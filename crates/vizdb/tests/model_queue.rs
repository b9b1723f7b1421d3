//! Model-check suite for `vizdb::sched::WorkQueue` — the closeable FIFO behind
//! `MalivaServer::serve_queued`'s admission queue — on the production type.
//! A lost wakeup (on push or close) parks a consumer forever, which the
//! checker reports as a deadlock.
//!
//! Compiled only under `RUSTFLAGS='--cfg maliva_model_check'`; see
//! `model_sync.rs` for the mechanics.

#![cfg(maliva_model_check)]

use std::sync::Arc;

use loomlite::{explore, Config};
use vizdb::sched::WorkQueue;
use vizdb::sync::thread;

/// Pops until the queue reports closed-and-drained.
fn drain(queue: &WorkQueue<usize>) -> Vec<usize> {
    let mut got = Vec::new();
    while let Some(item) = queue.pop() {
        got.push(item);
    }
    got
}

/// Exactly-once and FIFO: every pushed item reaches exactly one of two
/// consumers, each sees its items in push order, and `close` ends both.
#[test]
fn competing_consumers_take_each_item_once_in_push_order() {
    let report = explore(Config::random(21, 1000), || {
        let queue = Arc::new(WorkQueue::new());
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || drain(&queue))
            })
            .collect();
        for item in 0..3 {
            queue.push(item);
        }
        queue.close();
        let mut all = Vec::new();
        for consumer in consumers {
            let got = consumer.join().unwrap();
            assert!(got.windows(2).all(|w| w[0] < w[1]), "not FIFO: {got:?}");
            all.extend(got);
        }
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "0 = lost, 2+ = duplicated");
        assert_eq!(queue.snapshot(), (3, 0));
    });
    report.assert_ok();
}

/// No lost wakeup, exhaustively: every schedule with at most two preemptions
/// of two consumers blocked in `pop` against one push and then a close. The
/// item reaches exactly one of them — close never beats a queued item — and
/// the close wakes both, wherever each was between its check and its park.
#[test]
fn blocked_pops_wake_on_push_and_on_close_exhaustively() {
    let report = explore(Config::exhaustive(2, 20_000), || {
        let queue = Arc::new(WorkQueue::new());
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || drain(&queue))
            })
            .collect();
        queue.push(7);
        queue.close();
        let got: Vec<usize> = consumers
            .into_iter()
            .flat_map(|consumer| consumer.join().unwrap())
            .collect();
        assert_eq!(got, vec![7]);
    });
    report.assert_ok();
}

/// Concurrent producers lose nothing, and the `(pushed, waiting)` snapshot is
/// never torn: whatever a reader catches, what waits was counted as pushed.
#[test]
fn concurrent_producers_and_untorn_snapshots() {
    let report = explore(Config::random(29, 1000), || {
        let queue = Arc::new(WorkQueue::new());
        let producers: Vec<_> = (0..2usize)
            .map(|item| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || queue.push(item))
            })
            .collect();
        let reader = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let (pushed, waiting) = queue.snapshot();
                assert!(
                    waiting as u64 <= pushed && pushed <= 2,
                    "torn: {pushed}/{waiting}"
                );
            })
        };
        let first = queue.pop();
        for producer in producers {
            producer.join().unwrap();
        }
        reader.join().unwrap();
        queue.close();
        let mut all: Vec<usize> = first.into_iter().chain(drain(&queue)).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1]);
        assert_eq!(queue.snapshot(), (2, 0));
    });
    report.assert_ok();
}
