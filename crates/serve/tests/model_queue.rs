//! Model-check suite for `maliva_serve::queue` on the production types:
//! `WorkQueue`, the closeable FIFO that `MalivaServer`'s drain loop admits
//! requests into, and `Helpers`, the persistent helper threads that serve a
//! call beside its caller (`Helpers::serve` is that drain loop).
//! A lost wakeup (on push, close or the last answer) parks a thread forever,
//! which the checker reports as a deadlock.
//!
//! Compiled only under `RUSTFLAGS='--cfg maliva_model_check'`; see vizdb's
//! `model_sync.rs` for the mechanics.

#![cfg(maliva_model_check)]

use std::collections::BTreeSet;
use std::sync::Arc;

use loomlite::{explore, Config, FailureKind};
use maliva_serve::queue::{Help, Helpers, WorkQueue};
use maliva_serve::sync::atomic::{AtomicUsize, Ordering};
use maliva_serve::sync::{thread, Condvar, Mutex};

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

/// A call returns only once every admitted index is answered, each exactly
/// once, whether the helper wakes before, during or after the caller's own
/// drain; a second call on the same pool is served the same way by the
/// helper the first one started, and a late token of the first call is
/// harmless. Across the explored schedules the helper serves none of a
/// call's indices (it woke after the caller drained the queue) and some.
#[test]
fn a_call_returns_after_every_admitted_index_is_answered_once() {
    // How many indices of a call the helper served, over all schedules; a
    // plain std mutex, outside the protocol under test.
    let helped = Arc::new(std::sync::Mutex::new(BTreeSet::new()));
    let seen = Arc::clone(&helped);
    let report = explore(Config::random(41, 1000), move || {
        let helpers = Helpers::new(1);
        let caller = std::thread::current().id();
        for call in 0..2 {
            let served: Arc<Vec<AtomicUsize>> =
                Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect());
            let by_helper = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let (counts, helper_count) = (Arc::clone(&served), Arc::clone(&by_helper));
            let answers = helpers.serve(
                3,
                usize::MAX,
                || {},
                move |i| {
                    counts[i].fetch_add(1, Ordering::SeqCst);
                    if std::thread::current().id() != caller {
                        helper_count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    10 * i + call
                },
            );
            let answers: Vec<_> = answers
                .into_iter()
                .map(|a| a.and_then(Result::ok))
                .collect();
            assert_eq!(answers, [Some(call), Some(10 + call), Some(20 + call)]);
            let counts: Vec<_> = served.iter().map(|c| c.load(Ordering::SeqCst)).collect();
            assert_eq!(counts, [1, 1, 1], "0 = unserved, 2+ = served twice");
            seen.lock()
                .unwrap()
                .insert(by_helper.load(std::sync::atomic::Ordering::Relaxed));
        }
        assert_eq!(helpers.started(), 1, "the second call reused the helper");
    });
    report.assert_ok();
    let helped = helped.lock().unwrap();
    assert!(
        helped.contains(&0),
        "no schedule woke the helper late: {helped:?}"
    );
    assert!(
        helped.iter().any(|&k| k > 0),
        "the helper never served: {helped:?}"
    );
}

/// Dropping the pool wakes the helper parked on its token queue and joins
/// it, exhaustively over every schedule with at most two preemptions:
/// afterwards no thread holds the call's state.
#[test]
fn dropping_the_pool_wakes_and_joins_a_parked_helper_exhaustively() {
    let report = explore(Config::exhaustive(2, 20_000), || {
        let marker = Arc::new(());
        let helpers = Helpers::new(1);
        let held = Arc::clone(&marker);
        let answers = helpers.serve(
            2,
            usize::MAX,
            || {},
            move |i| {
                let _ = &held;
                i
            },
        );
        assert!(answers.iter().all(|a| matches!(a, Some(Ok(_)))));
        assert_eq!(helpers.started(), 1);
        drop(helpers);
        assert_eq!(Arc::strong_count(&marker), 1, "a helper outlived the drop");
    });
    report.assert_ok();
}

/// [`Helpers::serve`]'s call with the seeded bug: the completion count is an
/// atomic bumped outside the lock the caller waits under.
struct CountOutsideTheLock {
    queue: WorkQueue<usize>,
    admitted: usize,
    slots: Mutex<Vec<Option<usize>>>,
    answered: AtomicUsize,
    all_answered: Condvar,
}

impl Help for CountOutsideTheLock {
    fn help(&self) {
        while let Some(i) = self.queue.pop() {
            self.slots.lock()[i] = Some(i);
            if self.answered.fetch_add(1, Ordering::SeqCst) + 1 == self.admitted {
                self.all_answered.notify_one();
            }
        }
    }
}

/// The acceptance bar for the pool's checks: with the count outside the
/// lock, the last answer's wakeup can land between the caller's check and
/// its wait, which parks the caller forever; the checker must report that
/// deadlock, through the production `Helpers::wake`.
#[test]
fn a_completion_count_outside_the_lock_is_detected() {
    let report = explore(Config::random(43, 10_000), || {
        let helpers = Helpers::new(1);
        let queue = WorkQueue::new();
        for i in 0..2 {
            queue.push(i);
        }
        queue.close();
        let call = Arc::new(CountOutsideTheLock {
            queue,
            admitted: 2,
            slots: Mutex::new(vec![None; 2]),
            answered: AtomicUsize::new(0),
            all_answered: Condvar::new(),
        });
        let job: Arc<dyn Help> = call.clone();
        helpers.wake(&job, 1);
        call.help();
        let mut slots = call.slots.lock();
        while call.answered.load(Ordering::SeqCst) < call.admitted {
            slots = call.all_answered.wait(slots);
        }
        assert!(slots.iter().all(Option::is_some));
    });
    let failure = report
        .failure
        .expect("the lost completion wakeup must be found within 10k schedules");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected a deadlock, got {failure}"
    );
}
