//! Model-check suite for the serve layer: the decision cache's (a
//! `vizdb::Memo` of `CachedDecision`s) first-insert and LRU/invalidate
//! interleavings, the shed-counter ordering of queued admission (through the
//! production `WorkQueue::try_push`), and a test-only reintroduction of the
//! shed-counter race that the checker must detect. The admit/drain/close
//! protocol itself is checked in `model_queue.rs`.
//!
//! Compiled only under `RUSTFLAGS='--cfg maliva_model_check'`; see vizdb's
//! `model_sync.rs` for the mechanics.

#![cfg(maliva_model_check)]

use std::sync::Arc;

use loomlite::{explore, Config, FailureKind};
use maliva_serve::queue::WorkQueue;
use maliva_serve::{CachedDecision, DECISION_CACHE_CAPACITY};
use vizdb::hints::RewriteOption;
use vizdb::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use vizdb::sync::thread;
use vizdb::Memo;

fn decision(planning_ms: f64) -> CachedDecision {
    CachedDecision {
        chosen_index: 0,
        rewrite: RewriteOption::original(),
        planning_ms,
    }
}

/// First insert wins: two threads install *different* decisions for one key at
/// once; both must walk away holding the canonical one.
#[test]
fn decision_cache_first_insert_wins_under_every_interleaving() {
    let report = explore(Config::random(21, 1000), || {
        let cache = Arc::new(Memo::new(DECISION_CACHE_CAPACITY));
        let key = (0xFEED, 7);
        let a = cache.clone();
        let ha = thread::spawn(move || a.insert(key, decision(10.0)).planning_ms);
        let b = cache.clone();
        let hb = thread::spawn(move || b.insert(key, decision(20.0)).planning_ms);
        let va = ha.join().unwrap();
        let vb = hb.join().unwrap();
        let canonical = cache
            .get(key)
            .expect("one insert must have landed")
            .planning_ms;
        assert_eq!(va, canonical, "thread A served a non-canonical decision");
        assert_eq!(vb, canonical, "thread B served a non-canonical decision");
    });
    report.assert_ok();
    assert!(report.schedules_explored >= 1000);
}

/// LRU touch racing an invalidation: the lazily-deleted recency queue must
/// stay consistent whichever side wins each step — the entry is gone once both
/// settle, the invalidation is counted, and the slot is cleanly reusable.
#[test]
fn decision_cache_touch_vs_invalidate_stays_consistent() {
    let report = explore(Config::random(23, 1000), || {
        let cache = Arc::new(Memo::new(DECISION_CACHE_CAPACITY));
        let key = (1, 1);
        cache.insert(key, decision(1.0));
        let toucher = {
            let c = cache.clone();
            thread::spawn(move || {
                // A hit must return the live decision; a miss means the
                // invalidator already won. Both are legal.
                if let Some(found) = c.get(key) {
                    assert_eq!(found.planning_ms, 1.0);
                }
            })
        };
        let invalidator = {
            let c = cache.clone();
            thread::spawn(move || {
                assert!(c.invalidate(key), "the entry existed when we started");
            })
        };
        toucher.join().unwrap();
        invalidator.join().unwrap();
        assert!(
            cache.get(key).is_none(),
            "the invalidation must win by the end"
        );
        assert_eq!(cache.stats().invalidations, 1);
        // The recency queue holds a dead reference to `key` now; reinsertion
        // must still work and serve the new decision.
        cache.insert(key, decision(2.0));
        assert_eq!(cache.get(key).unwrap().planning_ms, 2.0);
    });
    report.assert_ok();
}

/// One shed as `MalivaServer::serve_queued` performs it, against an observer
/// that must never see a rejection whose count has not landed. `submit` sheds
/// one request: it bumps `shed` and then publishes the rejection (the serve
/// loop's slot write, here the `rejected` flag) in the order under test.
fn run_admission(submit: fn(&AtomicU64, &AtomicBool)) {
    let shed = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicBool::new(false));

    let submitter = {
        let shed = shed.clone();
        let rejected = rejected.clone();
        thread::spawn(move || submit(&shed, &rejected))
    };
    let observer = {
        let shed = shed.clone();
        let rejected = rejected.clone();
        thread::spawn(move || {
            if rejected.load(Ordering::SeqCst) {
                assert!(
                    shed.load(Ordering::SeqCst) >= 1,
                    "a visible rejection must already be counted"
                );
            }
        })
    };
    submitter.join().unwrap();
    observer.join().unwrap();
    assert_eq!(shed.load(Ordering::SeqCst), 1);
}

/// The shipped ordering: the production `WorkQueue::try_push` on a full queue
/// runs the count inside the queue lock, before it returns and before the
/// caller can publish the rejection.
fn shed_through_try_push(shed: &AtomicU64, rejected: &AtomicBool) {
    let queue = WorkQueue::new();
    let admitted = queue.try_push(0usize, 0, || {
        shed.fetch_add(1, Ordering::SeqCst);
    });
    assert!(!admitted, "capacity 0: the queue is always full");
    rejected.store(true, Ordering::SeqCst);
}

/// The pre-fix ordering, reintroduced: the rejection becomes visible before
/// its count lands.
fn shed_publishing_first(shed: &AtomicU64, rejected: &AtomicBool) {
    rejected.store(true, Ordering::SeqCst);
    shed.fetch_add(1, Ordering::SeqCst);
}

/// The acceptance bar for the checker: the pre-fix shed-counter ordering must
/// be caught within ten thousand seeded schedules.
#[test]
fn reintroduced_shed_counter_race_is_detected() {
    let report = explore(Config::random(31, 10_000), || {
        run_admission(shed_publishing_first)
    });
    let failure = report
        .failure
        .expect("the shed-counter race must be found within 10k schedules");
    assert!(
        matches!(failure.kind, FailureKind::Panic { .. }),
        "expected the uncounted-rejection assertion, got {failure}"
    );
}

/// And the shipped ordering passes the same exploration clean.
#[test]
fn count_under_lock_shed_protocol_is_race_free() {
    explore(Config::random(33, 1000), || {
        run_admission(shed_through_try_push)
    })
    .assert_ok();
}
