//! Deterministic fault injection: a seeded [`FaultPlan`] and a
//! [`FaultInjectingBackend`] decorator.
//!
//! Chaos testing a *simulated* database should itself be simulated: a fault
//! plan decides **purely from `(seed, shard, query index)`** whether a given
//! execution panics, errors, or is delayed, so a chaos run is byte-for-byte
//! reproducible — the same seed yields the same fault sequence on every
//! machine, in tests and in CI's seed sweep alike.
//!
//! Two ways to consume a plan:
//!
//! * [`FaultInjectingBackend`] wraps any `Arc<dyn QueryBackend>` as a pure
//!   decorator (the [`QueryBackend`] trait makes every backend wrappable) and
//!   injects faults into `run` / `run_with_context` calls. Wrapping each shard
//!   of a [`crate::ShardedBackend`] (see
//!   [`crate::ShardedBackendBuilder::build_with_faults`]) turns per-shard fault
//!   handling — retry, circuit breaking, deadline cut-off, degradation — into
//!   an observable, reproducible scenario.
//! * Scripted overrides ([`FaultPlan::script`]) pin an exact fault at an exact
//!   `(shard, query index)`, which unit tests use to exercise one specific
//!   transition (e.g. "first attempt panics, the retry succeeds").
//!
//! Query indexes count the **arrival order of executions at one wrapper**
//! (retries advance the index too). Under a single-threaded caller the
//! sequence is fully deterministic; concurrent callers interleave arrivals, so
//! chaos tests that assert byte-identical outcomes drain their queue with one
//! worker.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::sync::atomic::{AtomicU64, Ordering};

use crate::backend::{ExecContext, FaultStats, QueryBackend, ResultQuality, RunReport};
use crate::db::RunOutcome;
use crate::error::{Error, Result};
use crate::hints::RewriteOption;
use crate::plan::PhysicalPlan;
use crate::query::{Predicate, Query};
use crate::schema::TableSchema;
use crate::stats::TableStats;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The execution panics (exercises the worker-pool `catch_unwind` path and
    /// [`Error::ShardPanic`] surfacing).
    Panic,
    /// The execution returns [`Error::ShardUnavailable`] without running.
    Error,
    /// The execution runs normally but its simulated time is inflated by
    /// `extra_ms` (exercises deadline cut-offs and the degradation path).
    Delay {
        /// Simulated milliseconds added to the outcome's execution time.
        extra_ms: f64,
    },
}

/// A seeded, deterministic per-`(shard, query index)` fault assignment.
///
/// Rates are probabilities in `[0, 1]` evaluated against a splitmix64-style
/// hash of `(seed, shard, query_index)` — a pure function, so the plan needs no
/// mutable state and two plans with the same seed agree everywhere. Scripted
/// overrides take precedence over the seeded rates.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    panic_rate: f64,
    error_rate: f64,
    delay_rate: f64,
    delay_ms: f64,
    scripted: BTreeMap<(usize, u64), FaultKind>,
}

impl FaultPlan {
    /// A plan that never injects anything (rate-0 baseline).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            panic_rate: 0.0,
            error_rate: 0.0,
            delay_rate: 0.0,
            delay_ms: 0.0,
            scripted: BTreeMap::new(),
        }
    }

    /// A seeded plan injecting panics, errors and delays each at `rate / 3`
    /// (total injected-fault probability `rate` per execution), with delays of
    /// `delay_ms` simulated milliseconds.
    pub fn with_rate(seed: u64, rate: f64, delay_ms: f64) -> Self {
        let each = (rate / 3.0).clamp(0.0, 1.0 / 3.0);
        Self {
            seed,
            panic_rate: each,
            error_rate: each,
            delay_rate: each,
            delay_ms,
            scripted: BTreeMap::new(),
        }
    }

    /// A seeded plan with explicit per-kind rates.
    pub fn with_rates(
        seed: u64,
        panic_rate: f64,
        error_rate: f64,
        delay_rate: f64,
        delay_ms: f64,
    ) -> Self {
        Self {
            seed,
            panic_rate: panic_rate.clamp(0.0, 1.0),
            error_rate: error_rate.clamp(0.0, 1.0),
            delay_rate: delay_rate.clamp(0.0, 1.0),
            delay_ms,
            scripted: BTreeMap::new(),
        }
    }

    /// Pins an exact fault at `(shard, query_index)`, overriding the seeded
    /// rates there. Returns `self` for chaining.
    pub fn script(mut self, shard: usize, query_index: u64, fault: FaultKind) -> Self {
        self.scripted.insert((shard, query_index), fault);
        self
    }

    /// The seed this plan draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault (if any) this plan assigns to execution `query_index` on
    /// `shard`. Pure: same inputs, same answer, forever.
    pub fn fault_at(&self, shard: usize, query_index: u64) -> Option<FaultKind> {
        if let Some(fault) = self.scripted.get(&(shard, query_index)) {
            return Some(*fault);
        }
        let total = self.panic_rate + self.error_rate + self.delay_rate;
        if total <= 0.0 {
            return None;
        }
        let u = Self::unit(self.seed, shard as u64, query_index);
        if u < self.panic_rate {
            Some(FaultKind::Panic)
        } else if u < self.panic_rate + self.error_rate {
            Some(FaultKind::Error)
        } else if u < total {
            Some(FaultKind::Delay {
                extra_ms: self.delay_ms,
            })
        } else {
            None
        }
    }

    /// A uniform draw in `[0, 1)` from `(seed, shard, query_index)` via two
    /// rounds of splitmix64 finalisation.
    fn unit(seed: u64, shard: u64, query_index: u64) -> f64 {
        let mut x = seed
            ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ query_index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // 53 mantissa bits → uniform in [0, 1).
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Counters of the faults a [`FaultInjectingBackend`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionCounts {
    /// Executions that were made to panic.
    pub panics: u64,
    /// Executions that returned an injected error.
    pub errors: u64,
    /// Executions whose simulated time was inflated.
    pub delays: u64,
}

/// A pure decorator over any [`QueryBackend`] that injects the faults a
/// [`FaultPlan`] assigns to this wrapper's shard id.
///
/// Only the *execution* surface (`run`, `run_with_context`) is faulted —
/// planning, estimation and catalog introspection pass through untouched, so a
/// planner keeps working while the data path misbehaves (exactly the partial
/// failure the serving layer must tolerate).
pub struct FaultInjectingBackend {
    inner: Arc<dyn QueryBackend>,
    plan: Arc<FaultPlan>,
    shard: usize,
    next_query: AtomicU64,
    panics: AtomicU64,
    errors: AtomicU64,
    delays: AtomicU64,
}

impl FaultInjectingBackend {
    /// Wraps `inner` as shard `shard` of `plan`.
    pub fn new(inner: Arc<dyn QueryBackend>, plan: Arc<FaultPlan>, shard: usize) -> Self {
        Self {
            inner,
            plan,
            shard,
            next_query: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }
    }

    /// The shard id this wrapper reports to its plan.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Executions seen so far (the next arrival gets this index).
    pub fn executions(&self) -> u64 {
        self.next_query.load(Ordering::Relaxed)
    }

    /// How many faults of each kind were actually injected.
    pub fn injection_counts(&self) -> InjectionCounts {
        InjectionCounts {
            panics: self.panics.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }

    /// Applies the plan to one execution: inject, or run `exec` and possibly
    /// inflate its simulated time.
    fn faulted_run(&self, exec: impl FnOnce() -> Result<RunOutcome>) -> Result<RunOutcome> {
        let query_index = self.next_query.fetch_add(1, Ordering::Relaxed);
        match self.plan.fault_at(self.shard, query_index) {
            Some(FaultKind::Panic) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                panic!(
                    "injected fault: shard {} panicked at query index {}",
                    self.shard, query_index
                );
            }
            Some(FaultKind::Error) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(Error::ShardUnavailable {
                    shard: self.shard,
                    reason: format!("injected fault at query index {query_index}"),
                })
            }
            Some(FaultKind::Delay { extra_ms }) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                let mut outcome = exec()?;
                outcome.time_ms += extra_ms.max(0.0);
                Ok(outcome)
            }
            None => exec(),
        }
    }
}

impl QueryBackend for FaultInjectingBackend {
    fn table_names(&self) -> Vec<String> {
        self.inner.table_names()
    }

    fn row_count(&self, table: &str) -> Result<usize> {
        self.inner.row_count(table)
    }

    fn schema(&self, table: &str) -> Result<TableSchema> {
        self.inner.schema(table)
    }

    fn stats(&self, table: &str) -> Result<TableStats> {
        self.inner.stats(table)
    }

    fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
        self.inner.indexed_columns(table)
    }

    fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
        self.inner.sample_len(table, fraction_pct)
    }

    fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan> {
        self.inner.plan(query, ro)
    }

    fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        self.faulted_run(|| self.inner.run(query, ro))
    }

    fn run_with_context(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &ExecContext,
    ) -> Result<RunReport> {
        // Inject around the inner context-aware run, preserving whatever
        // quality/fault report the inner backend produced; a delay inflates the
        // outcome's time like it does on the plain path.
        let mut quality = ResultQuality::Full;
        let mut faults = FaultStats::default();
        let outcome = self.faulted_run(|| {
            let report = self.inner.run_with_context(query, ro, ctx)?;
            quality = report.quality;
            faults = report.faults;
            Ok(report.outcome)
        })?;
        Ok(RunReport {
            outcome,
            quality,
            faults,
        })
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
        self.inner.execution_time_ms(query, ro)
    }

    fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
        self.inner.estimated_cardinality(query)
    }

    fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        self.inner.estimated_selectivity(table, pred)
    }

    fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        self.inner.true_selectivity(table, pred)
    }

    fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)> {
        self.inner.sample_selectivity(table, pred, fraction_pct)
    }

    fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String {
        self.inner.render_sql(query, ro)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn clear_caches(&self) {
        self.inner.clear_caches()
    }

    fn cache_entry_counts(&self) -> (usize, usize) {
        self.inner.cache_entry_counts()
    }

    fn viable_plan_count(&self, query: &Query, tau_ms: f64) -> Result<usize> {
        self.inner.viable_plan_count(query, tau_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Database, DbConfig};
    use crate::query::OutputKind;
    use crate::schema::{ColumnType, TableSchema};
    use crate::storage::TableBuilder;

    fn backend(rows: i64) -> Arc<dyn QueryBackend> {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("when", i * 10);
            });
        }
        let mut db = Database::new(DbConfig::default());
        db.register_table(b.build()).unwrap();
        Arc::new(db)
    }

    fn count_query() -> Query {
        Query::select("t")
            .filter(Predicate::time_range(1, 0, 2_000))
            .output(OutputKind::Count)
    }

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        let a = FaultPlan::with_rate(42, 0.2, 1e6);
        let b = FaultPlan::with_rate(42, 0.2, 1e6);
        for shard in 0..4 {
            for q in 0..512u64 {
                assert_eq!(a.fault_at(shard, q), b.fault_at(shard, q));
            }
        }
        let c = FaultPlan::with_rate(43, 0.2, 1e6);
        let diverges = (0..512u64).any(|q| a.fault_at(0, q) != c.fault_at(0, q));
        assert!(diverges, "different seeds must yield different sequences");
    }

    #[test]
    fn rates_are_approximately_honoured() {
        let plan = FaultPlan::with_rate(7, 0.3, 50.0);
        let n = 20_000u64;
        let injected = (0..n).filter(|&q| plan.fault_at(0, q).is_some()).count();
        let rate = injected as f64 / n as f64;
        assert!(
            (rate - 0.3).abs() < 0.02,
            "expected ~30% injected, got {rate:.3}"
        );
    }

    #[test]
    fn scripted_overrides_beat_the_seeded_rates() {
        let plan = FaultPlan::none(1)
            .script(2, 5, FaultKind::Panic)
            .script(2, 6, FaultKind::Error);
        assert_eq!(plan.fault_at(2, 5), Some(FaultKind::Panic));
        assert_eq!(plan.fault_at(2, 6), Some(FaultKind::Error));
        assert_eq!(plan.fault_at(2, 7), None);
        assert_eq!(plan.fault_at(1, 5), None, "overrides are per shard");
    }

    #[test]
    fn rate_zero_wrapper_is_a_transparent_passthrough() {
        let inner = backend(500);
        let wrapped = FaultInjectingBackend::new(inner.clone(), Arc::new(FaultPlan::none(9)), 0);
        let q = count_query();
        let ro = RewriteOption::original();
        let direct = inner.run(&q, &ro).unwrap();
        let via = wrapped.run(&q, &ro).unwrap();
        assert_eq!(direct.result, via.result);
        assert_eq!(direct.time_ms, via.time_ms);
        assert_eq!(wrapped.injection_counts(), InjectionCounts::default());
        assert_eq!(
            inner.execution_time_ms(&q, &ro).unwrap(),
            wrapped.execution_time_ms(&q, &ro).unwrap()
        );
    }

    #[test]
    fn injected_error_and_delay_behave_as_declared() {
        let plan = FaultPlan::none(3).script(0, 0, FaultKind::Error).script(
            0,
            1,
            FaultKind::Delay { extra_ms: 1234.5 },
        );
        let inner = backend(500);
        let wrapped = FaultInjectingBackend::new(inner.clone(), Arc::new(plan), 0);
        let q = count_query();
        let ro = RewriteOption::original();
        let err = wrapped.run(&q, &ro).unwrap_err();
        assert!(matches!(err, Error::ShardUnavailable { shard: 0, .. }));
        assert!(err.is_shard_fault());
        let clean = inner.run(&q, &ro).unwrap();
        let delayed = wrapped.run(&q, &ro).unwrap();
        assert_eq!(clean.result, delayed.result, "a delay must not change data");
        assert!((delayed.time_ms - clean.time_ms - 1234.5).abs() < 1e-9);
        let third = wrapped.run(&q, &ro).unwrap();
        assert_eq!(clean.time_ms, third.time_ms, "index 2 is unscripted");
        let counts = wrapped.injection_counts();
        assert_eq!((counts.errors, counts.delays, counts.panics), (1, 1, 0));
    }

    #[test]
    fn injected_panic_panics_with_a_recognisable_payload() {
        let plan = FaultPlan::none(5).script(3, 0, FaultKind::Panic);
        let wrapped = FaultInjectingBackend::new(backend(100), Arc::new(plan), 3);
        let q = count_query();
        let ro = RewriteOption::original();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = wrapped.run(&q, &ro);
        }))
        .unwrap_err();
        let payload = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(payload.contains("injected fault"), "payload: {payload}");
        assert!(payload.contains("shard 3"));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            /// Two wrappers with the same seed produce byte-identical outcome
            /// sequences over an identical request stream — results, simulated
            /// times and injected errors all agree arrival for arrival.
            /// (Panics are rate-0 here to keep the harness quiet; panic
            /// determinism is pinned by `plans_are_pure_functions_of_their_inputs`.)
            #[test]
            fn same_seed_yields_byte_identical_outcome_sequences(
                seed in 0u64..u64::MAX,
                error_rate in 0.0f64..0.5,
                delay_rate in 0.0f64..0.5,
                delay_ms in 0.0f64..5_000.0,
                shard in 0usize..8,
            ) {
                let inner = backend(300);
                let make = || {
                    FaultInjectingBackend::new(
                        inner.clone(),
                        Arc::new(FaultPlan::with_rates(seed, 0.0, error_rate, delay_rate, delay_ms)),
                        shard,
                    )
                };
                let (a, b) = (make(), make());
                let q = count_query();
                let ro = RewriteOption::original();
                for arrival in 0..48u32 {
                    let trace = |r: Result<RunOutcome>| match r {
                        Ok(o) => format!("ok:{:?}@{}", o.result, o.time_ms),
                        Err(e) => format!("err:{e}"),
                    };
                    let (ta, tb) = (trace(a.run(&q, &ro)), trace(b.run(&q, &ro)));
                    prop_assert!(ta == tb, "diverged at arrival {arrival}: {ta} vs {tb}");
                }
                prop_assert_eq!(a.injection_counts(), b.injection_counts());
            }
        }
    }

    #[test]
    fn planning_surface_is_never_faulted() {
        // Even at rate 1.0, estimation and planning pass through untouched.
        let plan = FaultPlan::with_rates(11, 1.0, 0.0, 0.0, 0.0);
        let inner = backend(300);
        let wrapped = FaultInjectingBackend::new(inner.clone(), Arc::new(plan), 0);
        let q = count_query();
        let ro = RewriteOption::original();
        assert_eq!(
            inner.execution_time_ms(&q, &ro).unwrap(),
            wrapped.execution_time_ms(&q, &ro).unwrap()
        );
        assert!(wrapped.plan(&q, &ro).is_ok());
        assert_eq!(wrapped.row_count("t").unwrap(), 300);
        assert_eq!(wrapped.injection_counts(), InjectionCounts::default());
    }
}
