//! Model-check suite for `vizdb::sched::WorkQueue` — the closeable FIFO behind
//! the shard worker pool and `MalivaServer::serve_queued` — and for what the
//! pool adds on top (panic isolation, join-on-drop), all on the production
//! types. A lost wakeup (on push or close) parks a consumer forever, which
//! the checker reports as a deadlock.
//!
//! Compiled only under `RUSTFLAGS='--cfg maliva_model_check'`; see
//! `model_sync.rs` for the mechanics.

#![cfg(maliva_model_check)]

use std::sync::Arc;

use loomlite::{explore, Config};
use vizdb::sched::WorkQueue;
use vizdb::sync::atomic::{AtomicU64, Ordering};
use vizdb::sync::thread;
use vizdb::ShardWorkerPool;

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

/// The pool: every job dispatched to two workers runs exactly once — on
/// whichever pops it — before `Drop` returns.
#[test]
fn pool_runs_every_job_exactly_once_and_joins_on_drop() {
    let report = explore(Config::random(13, 1000), || {
        let pool = ShardWorkerPool::start(2);
        let runs: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for counter in &runs {
            let counter = Arc::clone(counter);
            pool.dispatch(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert_eq!(pool.snapshot().0, 3);
        drop(pool);
        for (job, counter) in runs.iter().enumerate() {
            assert_eq!(counter.load(Ordering::SeqCst), 1, "job {job}");
        }
    });
    report.assert_ok();
}

/// Panic isolation: a panicking job must not take its worker down — the worker
/// runs the next job and still joins cleanly on drop.
#[test]
fn worker_survives_a_panicking_job() {
    let report = explore(Config::random(17, 1000), || {
        let pool = ShardWorkerPool::start(1);
        let ran = Arc::new(AtomicU64::new(0));
        pool.dispatch(Box::new(|| panic!("job blew up")));
        let r = Arc::clone(&ran);
        pool.dispatch(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        drop(pool);
        assert_eq!(
            ran.load(Ordering::SeqCst),
            1,
            "the worker died with the panicking job"
        );
    });
    report.assert_ok();
}
