//! The Accurate-QTE: an oracle with a configurable estimation cost.
//!
//! The paper isolates the effect of estimation *errors* from estimation *costs* by
//! evaluating an estimator that returns the true execution time of every rewritten
//! query while charging a unit cost per collected selectivity (40 ms by default, 50–100
//! ms in the training experiments of §7.8). This type reproduces that estimator
//! exactly: the truth comes from the simulated database, the cost from the number of
//! selectivity slots the rewritten query needs that have not been collected yet.
//!
//! [`AccurateQte::estimate`] asks for the execution time *before* it collects the
//! selectivities. On an exact, join-free, uncapped query the database prices the
//! whole hint lattice in one pass and caches each predicate's true selectivity
//! from that pass's counts, so the collection that follows reads the cache
//! instead of counting every predicate again. The values, and so every estimate
//! and its charged cost, are the same in either order.

use std::sync::Arc;

use vizdb::error::Result;
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::QueryBackend;

use crate::context::EstimationContext;
use crate::traits::{needed_slots, EstimateReport, QueryTimeEstimator};

/// Oracle query-time estimator with a per-selectivity unit cost.
pub struct AccurateQte {
    db: Arc<dyn QueryBackend>,
    unit_cost_ms: f64,
    overhead_ms: f64,
}

impl AccurateQte {
    /// The paper's default unit cost for collecting one selectivity value.
    pub const DEFAULT_UNIT_COST_MS: f64 = 40.0;

    /// Creates an accurate QTE over `db` with the paper's default unit cost.
    pub fn new(db: Arc<dyn QueryBackend>) -> Self {
        Self::with_unit_cost(db, Self::DEFAULT_UNIT_COST_MS)
    }

    /// Creates an accurate QTE with a custom unit cost (used by §7.8, which varies it
    /// between 50 ms and 100 ms).
    pub fn with_unit_cost(db: Arc<dyn QueryBackend>, unit_cost_ms: f64) -> Self {
        Self {
            db,
            unit_cost_ms,
            overhead_ms: 2.0,
        }
    }

    /// The configured unit cost.
    pub fn unit_cost_ms(&self) -> f64 {
        self.unit_cost_ms
    }

    fn cost_of(&self, new_slots: usize) -> f64 {
        self.overhead_ms + self.unit_cost_ms * new_slots as f64
    }
}

impl QueryTimeEstimator for AccurateQte {
    fn name(&self) -> &'static str {
        "accurate"
    }

    fn estimation_cost(&self, query: &Query, ro: &RewriteOption, ctx: &EstimationContext) -> f64 {
        let new_slots = needed_slots(query, ro)
            .filter(|&slot| !ctx.is_collected(slot))
            .count();
        self.cost_of(new_slots)
    }

    fn estimate(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &mut EstimationContext,
    ) -> Result<EstimateReport> {
        let cost_ms = self.estimation_cost(query, ro, ctx);
        // The time first: a priced lattice caches its predicates' true
        // selectivities, so the probes below read them instead of counting.
        let estimated_ms = self.db.execution_time_ms(query, ro)?;
        let n = query.predicate_count();
        for slot in needed_slots(query, ro) {
            if ctx.is_collected(slot) {
                continue;
            }
            let sel = if slot < n {
                self.db
                    .true_selectivity(&query.table, &query.predicates[slot])?
            } else {
                // Dimension-side slot: combined selectivity of the join predicates.
                match &query.join {
                    Some(spec) => {
                        let mut s = 1.0;
                        for pred in &spec.right_predicates {
                            s *= self.db.true_selectivity(&spec.right_table, pred)?;
                        }
                        s
                    }
                    None => 1.0,
                }
            };
            ctx.record(slot, sel);
        }
        Ok(EstimateReport {
            estimated_ms,
            cost_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vizdb::hints::HintSet;
    use vizdb::query::{OutputKind, Predicate};
    use vizdb::schema::{ColumnType, TableSchema};
    use vizdb::storage::TableBuilder;
    use vizdb::types::GeoRect;
    use vizdb::{Database, DbConfig};

    fn build_db() -> Arc<Database> {
        let schema = TableSchema::new("tweets")
            .with_column("id", ColumnType::Int)
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for i in 0..2000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("created_at", i);
                row.set_geo("coordinates", -118.0 + (i % 10) as f64 * 0.05, 34.0);
                row.set_text("text", if i % 5 == 0 { &["covid"] } else { &["other"] });
            });
        }
        let mut db = Database::new(DbConfig::default());
        db.register_table(b.build()).unwrap();
        db.build_all_indexes("tweets").unwrap();
        Arc::new(db)
    }

    fn query() -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 0, 999))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-119.0, 33.0, -117.0, 35.0),
            ))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            })
    }

    #[test]
    fn estimate_equals_true_execution_time() {
        let db = build_db();
        let qte = AccurateQte::new(db.clone());
        let q = query();
        let ro = RewriteOption::hinted(HintSet::with_mask(0b011));
        let mut ctx = EstimationContext::new();
        let report = qte.estimate(&q, &ro, &mut ctx).unwrap();
        assert_eq!(report.estimated_ms, db.execution_time_ms(&q, &ro).unwrap());
    }

    #[test]
    fn cost_scales_with_new_slots() {
        let db = build_db();
        let qte = AccurateQte::with_unit_cost(db, 40.0);
        let q = query();
        let ctx = EstimationContext::new();
        let one = qte.estimation_cost(&q, &RewriteOption::hinted(HintSet::with_mask(0b001)), &ctx);
        let three =
            qte.estimation_cost(&q, &RewriteOption::hinted(HintSet::with_mask(0b111)), &ctx);
        assert!((one - 42.0).abs() < 1e-9);
        assert!((three - 122.0).abs() < 1e-9);
    }

    #[test]
    fn collected_slots_reduce_future_costs() {
        let db = build_db();
        let qte = AccurateQte::new(db);
        let q = query();
        let mut ctx = EstimationContext::new();
        // Estimate RQ with predicate 0 only; slot 0 becomes collected.
        let _ = qte
            .estimate(
                &q,
                &RewriteOption::hinted(HintSet::with_mask(0b001)),
                &mut ctx,
            )
            .unwrap();
        assert!(ctx.is_collected(0));
        let cost_after =
            qte.estimation_cost(&q, &RewriteOption::hinted(HintSet::with_mask(0b011)), &ctx);
        let cost_fresh = qte.estimation_cost(
            &q,
            &RewriteOption::hinted(HintSet::with_mask(0b011)),
            &EstimationContext::new(),
        );
        assert!(cost_after < cost_fresh);
    }

    #[test]
    fn collected_selectivities_are_true_values() {
        let db = build_db();
        let qte = AccurateQte::new(db);
        let q = query();
        let mut ctx = EstimationContext::new();
        let _ = qte
            .estimate(
                &q,
                &RewriteOption::hinted(HintSet::with_mask(0b001)),
                &mut ctx,
            )
            .unwrap();
        // Keyword "covid" matches every 5th row.
        assert!((ctx.selectivity(0).unwrap() - 0.2).abs() < 1e-9);
    }

    /// Forwards to a database and counts the true selectivities asked for,
    /// and those of them the database computed rather than read from its
    /// selectivity cache (its entry count grew).
    struct CountingBackend {
        db: Arc<Database>,
        asked: AtomicUsize,
        computed: AtomicUsize,
    }

    impl QueryBackend for CountingBackend {
        fn table_names(&self) -> Vec<String> {
            self.db.table_names()
        }
        fn row_count(&self, table: &str) -> Result<usize> {
            self.db.row_count(table)
        }
        fn schema(&self, table: &str) -> Result<TableSchema> {
            QueryBackend::schema(&*self.db, table)
        }
        fn stats(&self, table: &str) -> Result<vizdb::stats::TableStats> {
            QueryBackend::stats(&*self.db, table)
        }
        fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
            QueryBackend::indexed_columns(&*self.db, table)
        }
        fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
            QueryBackend::sample_len(&*self.db, table, fraction_pct)
        }
        fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<vizdb::plan::PhysicalPlan> {
            self.db.plan(query, ro)
        }
        fn run(&self, query: &Query, ro: &RewriteOption) -> Result<vizdb::RunOutcome> {
            self.db.run(query, ro)
        }
        fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
            self.db.execution_time_ms(query, ro)
        }
        fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
            self.db.estimated_cardinality(query)
        }
        fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
            self.db.estimated_selectivity(table, pred)
        }
        fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
            let before = self.db.cache_entry_counts().1;
            let sel = self.db.true_selectivity(table, pred);
            self.asked.fetch_add(1, Ordering::Relaxed);
            if self.db.cache_entry_counts().1 > before {
                self.computed.fetch_add(1, Ordering::Relaxed);
            }
            sel
        }
        fn sample_selectivity(
            &self,
            table: &str,
            pred: &Predicate,
            fraction_pct: u32,
        ) -> Result<(f64, usize)> {
            self.db.sample_selectivity(table, pred, fraction_pct)
        }
        fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String {
            self.db.render_sql(query, ro)
        }
        fn generation(&self) -> u64 {
            self.db.generation()
        }
        fn clear_caches(&self) {
            self.db.clear_caches()
        }
        fn cache_entry_counts(&self) -> (usize, usize) {
            self.db.cache_entry_counts()
        }
    }

    /// `(asked, computed)` true selectivities after estimating `q` under
    /// the hint sets `masks` in turn, and the slots' collected values.
    fn probe_counts(q: &Query, masks: &[u32]) -> ((usize, usize), Vec<f64>) {
        let backend = Arc::new(CountingBackend {
            db: build_db(),
            asked: AtomicUsize::new(0),
            computed: AtomicUsize::new(0),
        });
        let qte = AccurateQte::new(backend.clone());
        let mut ctx = EstimationContext::new();
        for &mask in masks {
            let ro = RewriteOption::hinted(HintSet::with_mask(mask));
            qte.estimate(q, &ro, &mut ctx).unwrap();
        }
        let sels = (0..q.predicate_count())
            .filter_map(|slot| ctx.selectivity(slot))
            .collect();
        let counts = (
            backend.asked.load(Ordering::Relaxed),
            backend.computed.load(Ordering::Relaxed),
        );
        (counts, sels)
    }

    /// The first estimate prices the query's hint lattice, which caches every
    /// predicate's true selectivity, so collecting the slots computes none of
    /// them; the values are a cold database's, bit for bit. A capped query is
    /// not priced, so there every slot is computed.
    #[test]
    fn selectivities_are_read_from_the_priced_lattice() {
        let cold = build_db();
        let q = query();
        let ((asked, computed), sels) = probe_counts(&q, &[0b001, 0b011, 0b111]);
        assert_eq!((asked, computed), (3, 0));
        for (pred, sel) in q.predicates.iter().zip(&sels) {
            let want = cold.true_selectivity("tweets", pred).unwrap();
            assert_eq!(sel.to_bits(), want.to_bits(), "{pred:?}");
        }
        let ((asked, computed), capped) = probe_counts(&q.clone().limit(10), &[0b001, 0b111]);
        assert_eq!((asked, computed), (3, 3));
        assert_eq!(capped, sels);
    }

    #[test]
    fn zero_mask_costs_only_overhead() {
        let db = build_db();
        let qte = AccurateQte::new(db);
        let q = query();
        let cost = qte.estimation_cost(
            &q,
            &RewriteOption::hinted(HintSet::with_mask(0)),
            &EstimationContext::new(),
        );
        assert!(cost < 10.0);
    }
}
