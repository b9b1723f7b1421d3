//! The per-shard fault layer: retry/backoff/breaker policy, the count-based
//! [`CircuitBreaker`], the shared [`FaultCounters`], and [`ShardGuard`], the
//! one attempt cycle every shard execution goes through.
//!
//! Not a [`QueryBackend`] decorator: no unsharded caller needs retries or
//! breakers, and an `Err` carries no `RunReport` to return counters in.

use crate::backend::{FaultStats, QueryBackend};
use crate::db::RunOutcome;
use crate::error::{Error, Result};
use crate::hints::RewriteOption;
use crate::query::Query;
use crate::sync::Mutex;

/// Renders a caught panic payload for [`Error::ShardPanic`].
fn panic_payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// How the backend reacts to per-shard faults: bounded retry with deterministic
/// simulated backoff, and a count-based circuit breaker per shard.
///
/// Everything here is expressed in **counts and simulated milliseconds**, never
/// wall-clock time, so fault handling is as reproducible as the rest of the
/// engine: the same request sequence trips, cools down and re-closes breakers
/// identically on every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Extra attempts after a transient shard fault (panic, injected
    /// unavailability). Deadline misses are never retried — the same query can
    /// only blow the same budget again.
    pub max_retries: u32,
    /// Simulated milliseconds of backoff charged per retry: the n-th retry adds
    /// `n × backoff_ms` to the attempt's execution time.
    pub backoff_ms: f64,
    /// Consecutive failed *requests* (retries exhausted) after which a shard's
    /// breaker opens.
    pub breaker_threshold: u32,
    /// Requests refused while open before the next arrival is admitted as the
    /// half-open probe.
    pub breaker_cooldown: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_ms: 4.0,
            breaker_threshold: 3,
            breaker_cooldown: 4,
        }
    }
}

/// Observable state of one shard's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are being counted.
    Closed,
    /// Requests are refused without touching the shard.
    Open,
    /// A probe is admitted; its outcome decides between re-closing and
    /// re-opening.
    HalfOpen,
}

enum BreakerInner {
    Closed { consecutive_failures: u32 },
    Open { skipped: u32 },
    HalfOpen,
}

/// A count-based circuit breaker: closed → open after
/// [`FaultPolicy::breaker_threshold`] consecutive failed requests; while open it
/// refuses [`FaultPolicy::breaker_cooldown`] requests, then admits the next
/// arrival as a half-open probe whose outcome re-closes or re-opens the circuit.
///
/// Cooldown is measured in refused *requests*, not elapsed wall-clock time —
/// the deterministic analogue of the classic timer-based breaker.
///
/// Public so the model-check suite can explore its state transitions under
/// concurrent failures; not part of the stable API.
pub struct CircuitBreaker {
    inner: Mutex<BreakerInner>,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBreaker {
    /// A closed breaker with zero recorded failures.
    pub fn new() -> Self {
        Self {
            inner: Mutex::with_name(
                BreakerInner::Closed {
                    consecutive_failures: 0,
                },
                "breaker",
            ),
        }
    }

    /// The breaker's current state.
    pub fn state(&self) -> BreakerState {
        match *self.inner.lock() {
            BreakerInner::Closed { .. } => BreakerState::Closed,
            BreakerInner::Open { .. } => BreakerState::Open,
            BreakerInner::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// Whether a request may reach the shard. While open, refusals count toward
    /// the cooldown; once `breaker_cooldown` requests have been refused the next
    /// arrival flips the breaker half-open and proceeds as its probe.
    pub fn admit(&self, policy: &FaultPolicy) -> bool {
        let mut inner = self.inner.lock();
        match &mut *inner {
            BreakerInner::Closed { .. } | BreakerInner::HalfOpen => true,
            BreakerInner::Open { skipped } => {
                if *skipped >= policy.breaker_cooldown {
                    *inner = BreakerInner::HalfOpen;
                    true
                } else {
                    *skipped += 1;
                    false
                }
            }
        }
    }

    /// Records a successful request: the breaker re-closes with a clean slate.
    pub fn record_success(&self) {
        *self.inner.lock() = BreakerInner::Closed {
            consecutive_failures: 0,
        };
    }

    /// Records a failed request (retries already exhausted).
    pub fn record_failure(&self, policy: &FaultPolicy) {
        let mut inner = self.inner.lock();
        match &mut *inner {
            BreakerInner::Closed {
                consecutive_failures,
            } => {
                *consecutive_failures += 1;
                if *consecutive_failures >= policy.breaker_threshold {
                    *inner = BreakerInner::Open { skipped: 0 };
                }
            }
            // A failed half-open probe re-opens with a fresh cooldown.
            BreakerInner::HalfOpen => *inner = BreakerInner::Open { skipped: 0 },
            BreakerInner::Open { .. } => {}
        }
    }
}

/// Shared fault counters — one global set per backend (cumulative) and one
/// short-lived set per request (reported in the
/// [`crate::backend::RunReport`]).
///
/// All six counters live behind **one** mutex so [`FaultCounters::snapshot`]
/// returns a single consistent [`FaultStats`]: with per-field atomics a
/// snapshot taken while another serving thread records or absorbs could tear,
/// e.g. observing a retry's failure counted but not the timeout it became.
/// Public so the model-check suite can pin that contract; not part of the
/// stable API.
#[derive(Debug, Default)]
pub struct FaultCounters {
    inner: Mutex<FaultStats>,
}

impl FaultCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self {
            inner: Mutex::with_name(FaultStats::default(), "fault-counters"),
        }
    }

    /// Applies one mutation atomically with respect to [`Self::snapshot`].
    pub fn record(&self, bump: impl FnOnce(&mut FaultStats)) {
        bump(&mut self.inner.lock());
    }

    /// One consistent view of all six counters.
    pub fn snapshot(&self) -> FaultStats {
        *self.inner.lock()
    }

    /// Adds `stats` (a per-request delta) into these cumulative counters.
    pub fn absorb(&self, stats: &FaultStats) {
        self.inner.lock().add(stats);
    }
}

/// One request as every shard it targets sees it.
pub(super) struct ShardCall<'a> {
    pub query: &'a Query,
    pub ro: &'a RewriteOption,
    /// Shards run in parallel on the simulated clock, so each gets the full
    /// remaining slice.
    pub deadline_ms: Option<f64>,
    /// The request's own counters (reported in its `RunReport`).
    pub counters: &'a FaultCounters,
}

/// The fault handling in front of one shard, run on the request's own thread
/// for every target it routes to.
pub(super) struct ShardGuard<'a> {
    pub shard: usize,
    pub breaker: &'a CircuitBreaker,
    pub policy: FaultPolicy,
}

impl ShardGuard<'_> {
    /// One fault-handled attempt cycle: breaker admission, panic capture,
    /// bounded retry with deterministic simulated backoff, and deadline
    /// enforcement.
    pub(super) fn attempt(
        &self,
        backend: &dyn QueryBackend,
        call: &ShardCall<'_>,
    ) -> Result<RunOutcome> {
        let (shard, breaker, policy) = (self.shard, self.breaker, self.policy);
        let counters = call.counters;
        if !breaker.admit(&policy) {
            counters.record(|s| s.breaker_open_skips += 1);
            return Err(Error::ShardUnavailable {
                shard,
                reason: "circuit open".into(),
            });
        }
        let mut attempt = 0u32;
        loop {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                backend.run(call.query, call.ro)
            }))
            .unwrap_or_else(|payload| {
                counters.record(|s| s.panics += 1);
                Err(Error::ShardPanic {
                    shard,
                    payload: panic_payload_to_string(&*payload),
                })
            });
            match result {
                Ok(mut outcome) => {
                    // Failed attempts and their backoff cost simulated time.
                    outcome.time_ms += attempt as f64 * policy.backoff_ms;
                    if let Some(deadline) = call.deadline_ms {
                        if outcome.time_ms > deadline {
                            counters.record(|s| s.timeouts += 1);
                            breaker.record_failure(&policy);
                            return Err(Error::ShardTimeout { shard });
                        }
                    }
                    breaker.record_success();
                    return Ok(outcome);
                }
                Err(err) if err.is_shard_fault() && attempt < policy.max_retries => {
                    counters.record(|s| s.retries += 1);
                    attempt += 1;
                }
                Err(err) => {
                    // Query errors (invalid query, missing table) are the
                    // caller's problem, not the shard's — they neither trip the
                    // breaker nor get retried.
                    if err.is_shard_fault() {
                        breaker.record_failure(&policy);
                    }
                    return Err(err);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every circuit-breaker transition, pinned: closed → open after
    /// `breaker_threshold` consecutive failures; open refuses `breaker_cooldown`
    /// requests then admits a half-open probe; the probe's outcome re-closes or
    /// re-opens the circuit.
    #[test]
    fn circuit_breaker_transitions_are_pinned() {
        let policy = FaultPolicy {
            max_retries: 0,
            backoff_ms: 0.0,
            breaker_threshold: 2,
            breaker_cooldown: 2,
        };
        let b = CircuitBreaker::new();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit(&policy));

        // closed → open after `threshold` consecutive failures.
        b.record_failure(&policy);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.record_failure(&policy);
        assert_eq!(b.state(), BreakerState::Open);

        // open refuses exactly `cooldown` requests, then probes half-open.
        assert!(!b.admit(&policy));
        assert!(!b.admit(&policy));
        assert!(b.admit(&policy), "the post-cooldown arrival is the probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);

        // half-open → open on a failed probe (fresh cooldown).
        b.record_failure(&policy);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(&policy));
        assert!(!b.admit(&policy));
        assert!(b.admit(&policy));
        assert_eq!(b.state(), BreakerState::HalfOpen);

        // half-open → closed on a successful probe, failure count reset.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(&policy);
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "count restarted after close"
        );
    }
}
