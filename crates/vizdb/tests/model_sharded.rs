//! Model-check suite for the sharded backend's fault layer: the per-shard
//! circuit breaker and the shared fault counters. A request runs its shards
//! on its own thread, so the concurrency here is across requests: every
//! serving thread shares the backend's breakers and cumulative counters.
//!
//! Compiled only under `RUSTFLAGS='--cfg maliva_model_check'`; see
//! `model_sync.rs` for the mechanics.

#![cfg(maliva_model_check)]

use std::sync::Arc;

use loomlite::{explore, Config, FailureKind};
use vizdb::sync::atomic::{AtomicU64, Ordering};
use vizdb::sync::thread;
use vizdb::{BreakerState, CircuitBreaker, FaultCounters, FaultPolicy};

/// The torn-snapshot fix, pinned: one logical fault event bumps two counters
/// inside a single `record` closure, and `snapshot` must never observe one
/// bump without the other — under *any* interleaving with a concurrent reader.
#[test]
fn fault_counter_snapshots_are_never_torn() {
    let report = explore(Config::random(3, 1000), || {
        let counters = Arc::new(FaultCounters::new());
        let writer = {
            let c = counters.clone();
            thread::spawn(move || {
                for _ in 0..2 {
                    c.record(|s| {
                        s.retries += 1;
                        s.timeouts += 1;
                    });
                }
            })
        };
        let reader = {
            let c = counters.clone();
            thread::spawn(move || {
                let s = c.snapshot();
                assert_eq!(
                    s.retries, s.timeouts,
                    "torn snapshot: a retry was visible without its timeout"
                );
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        let end = counters.snapshot();
        assert_eq!((end.retries, end.timeouts), (2, 2));
    });
    report.assert_ok();
}

/// The bug the fix replaced, demonstrated: with one atomic per counter (the
/// pre-fix `FaultCounters` layout), a concurrent reader *can* observe the two
/// halves of one logical event apart — and the checker finds the schedule.
#[test]
fn per_field_atomic_counters_are_caught_tearing() {
    let report = explore(Config::random(5, 10_000), || {
        let retries = Arc::new(AtomicU64::new(0));
        let timeouts = Arc::new(AtomicU64::new(0));
        let writer = {
            let (r, t) = (retries.clone(), timeouts.clone());
            thread::spawn(move || {
                // One logical event, two independent atomics: the pre-fix shape.
                r.fetch_add(1, Ordering::SeqCst);
                t.fetch_add(1, Ordering::SeqCst);
            })
        };
        let reader = {
            let (r, t) = (retries.clone(), timeouts.clone());
            thread::spawn(move || {
                let retries = r.load(Ordering::SeqCst);
                let timeouts = t.load(Ordering::SeqCst);
                assert_eq!(retries, timeouts, "torn read");
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    });
    let failure = report.failure.expect("the torn snapshot must be found");
    assert!(matches!(failure.kind, FailureKind::Panic { .. }));
}

/// Breaker state machine under concurrent shard failures: four consecutive
/// failures from two threads (threshold 3, no successes in between) must leave
/// the breaker open — no interleaving may lose a failure — and an open breaker
/// refuses the next arrival.
#[test]
fn breaker_opens_under_concurrent_shard_failures() {
    let report = explore(Config::random(9, 1000), || {
        let breaker = Arc::new(CircuitBreaker::new());
        let policy = FaultPolicy::default();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = breaker.clone();
                thread::spawn(move || {
                    b.record_failure(&policy);
                    b.record_failure(&policy);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(
            !breaker.admit(&policy),
            "a freshly opened breaker must refuse (cooldown not yet served)"
        );
    });
    report.assert_ok();
}

/// Cooldown handoff: with `breaker_cooldown = 1`, two concurrent `admit` calls
/// on an open breaker must admit *exactly one* half-open probe — one refusal
/// serves the cooldown, the other call proceeds as the probe, in either order.
#[test]
fn open_breaker_admits_exactly_one_half_open_probe() {
    let report = explore(Config::random(15, 1000), || {
        let policy = FaultPolicy {
            breaker_cooldown: 1,
            ..FaultPolicy::default()
        };
        let breaker = Arc::new(CircuitBreaker::new());
        for _ in 0..policy.breaker_threshold {
            breaker.record_failure(&policy);
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = breaker.clone();
                thread::spawn(move || b.admit(&policy))
            })
            .collect();
        let admitted: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            admitted.iter().filter(|&&a| a).count(),
            1,
            "exactly one probe must pass: {admitted:?}"
        );
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
    });
    report.assert_ok();
}
