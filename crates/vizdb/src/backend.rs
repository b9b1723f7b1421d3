//! The [`QueryBackend`] trait: the database surface Maliva's upper layers consume.
//!
//! The paper treats the backend database as an oracle — "how long does plan `ro`
//! take for query `q`?" — and never depends on *how* the answer is produced. This
//! trait captures exactly the surface the planning, estimation, baseline and
//! serving layers use, so they run unchanged over a plain [`Database`] or a
//! [`crate::ShardedBackend`] (viewport queries fanned out across per-region
//! shards and merged).
//!
//! A backend's catalog is fixed once it is shared: every mutation of a
//! [`Database`] takes `&mut self`, and a `ShardedBackend` is built whole. So
//! every trait method is a deterministic function of its arguments, and the
//! layers above may memoise any answer for as long as they hold the backend.
//!
//! Methods that hand out catalog objects return them **by value** so the trait
//! stays object-safe for backends that cannot lend references into their own
//! storage (sharded ones).

use crate::db::{Database, RunOutcome};
use crate::error::Result;
use crate::hints::{enumerate_hint_sets, RewriteOption};
use crate::plan::PhysicalPlan;
use crate::query::{render_sql, Predicate, Query};
use crate::schema::TableSchema;
use crate::stats::TableStats;

/// An execution context for [`QueryBackend::run_with_context`]. It carries
/// nothing: every run completes. Kept for `benchmark/` until ROADMAP item 15
/// drops it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecContext;

impl ExecContext {
    /// The one context there is.
    pub fn unbounded() -> Self {
        Self
    }
}

/// A [`QueryBackend::run_with_context`] result: the run outcome. Kept for
/// `benchmark/` until ROADMAP item 15 drops it.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The run outcome.
    pub outcome: RunOutcome,
}

impl RunReport {
    /// Wraps an outcome.
    pub fn full(outcome: RunOutcome) -> Self {
        Self { outcome }
    }
}

/// The backend-database surface consumed by every layer above `vizdb`.
///
/// Implementations must be shareable across serving threads (`Send + Sync`).
/// A shared backend cannot be mutated, so every method is a deterministic
/// function of its arguments.
pub trait QueryBackend: Send + Sync {
    /// Names of all registered tables, sorted.
    fn table_names(&self) -> Vec<String>;

    /// Number of rows in `table`.
    fn row_count(&self, table: &str) -> Result<usize>;

    /// Schema of `table`.
    fn schema(&self, table: &str) -> Result<TableSchema>;

    /// Optimizer statistics of `table`. For composite backends these describe the
    /// *whole* logical table, not any single partition.
    fn stats(&self, table: &str) -> Result<TableStats>;

    /// Columns of `table` that currently have an index, sorted.
    fn indexed_columns(&self, table: &str) -> Result<Vec<usize>>;

    /// Number of rows in the `fraction_pct`% sample of `table` (the row count a
    /// sampling probe scans), or an error when no such sample was built.
    fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize>;

    /// Plans `query` rewritten with `ro`.
    fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan>;

    /// Runs the rewritten query, returning the materialised result, plan, work
    /// profile and simulated execution time.
    fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome>;

    /// [`Self::run`] wrapped in a [`RunReport`]. Kept for `benchmark/` until
    /// ROADMAP item 15 drops it.
    fn run_with_context(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &ExecContext,
    ) -> Result<RunReport> {
        let _ = ctx;
        Ok(RunReport::full(self.run(query, ro)?))
    }

    /// Simulated execution time of `query` rewritten with `ro`, without
    /// materialising results.
    fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64>;

    /// The engine's own cardinality estimate for `query` (rows after all
    /// predicates).
    fn estimated_cardinality(&self, query: &Query) -> Result<f64>;

    /// The engine's estimated selectivity of a single predicate on `table`.
    fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64>;

    /// The true selectivity of a single predicate on `table`.
    fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64>;

    /// Selectivity of `pred` measured on the `fraction_pct`% sample of `table`,
    /// returning `(selectivity estimate, rows scanned)`.
    fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)>;

    /// Renders the SQL text of `query` rewritten with `ro` (presentation only),
    /// naming columns from [`Self::schema`].
    fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String {
        let schema = self.schema(&query.table).ok();
        let join_schema = query
            .join
            .as_ref()
            .and_then(|j| self.schema(&j.right_table).ok());
        render_sql(query, ro, schema.as_ref(), join_schema.as_ref())
    }

    /// A constant: a shared backend's catalog cannot change. Kept for
    /// `benchmark/` until ROADMAP item 15 drops it.
    fn generation(&self) -> u64 {
        0
    }

    /// Clears the execution-time and selectivity caches.
    fn clear_caches(&self);

    /// Number of entries in the (execution-time, selectivity) caches.
    fn cache_entry_counts(&self) -> (usize, usize);

    /// The paper's query-difficulty metric: the number of hinted (exact) physical
    /// plans whose execution time is within `tau_ms`.
    fn viable_plan_count(&self, query: &Query, tau_ms: f64) -> Result<usize> {
        let mut count = 0usize;
        for hints in enumerate_hint_sets(query) {
            let ro = RewriteOption::hinted(hints);
            if self.execution_time_ms(query, &ro)? <= tau_ms {
                count += 1;
            }
        }
        Ok(count)
    }
}

impl QueryBackend for Database {
    fn table_names(&self) -> Vec<String> {
        Database::table_names(self)
    }

    fn row_count(&self, table: &str) -> Result<usize> {
        Database::row_count(self, table)
    }

    fn schema(&self, table: &str) -> Result<TableSchema> {
        Database::schema(self, table).cloned()
    }

    fn stats(&self, table: &str) -> Result<TableStats> {
        Database::stats(self, table).cloned()
    }

    fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
        Database::indexed_columns(self, table)
    }

    fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
        Database::sample(self, table, fraction_pct).map(|s| s.len())
    }

    fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan> {
        Database::plan(self, query, ro)
    }

    fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        Database::run(self, query, ro)
    }

    fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
        Database::execution_time_ms(self, query, ro)
    }

    fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
        Database::estimated_cardinality(self, query)
    }

    fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        Database::estimated_selectivity(self, table, pred)
    }

    fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        Database::true_selectivity(self, table, pred)
    }

    fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)> {
        Database::sample_selectivity(self, table, pred, fraction_pct)
    }

    fn clear_caches(&self) {
        Database::clear_caches(self)
    }

    fn cache_entry_counts(&self) -> (usize, usize) {
        Database::cache_entry_counts(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::query::OutputKind;
    use crate::schema::ColumnType;
    use crate::storage::{Table, TableBuilder};

    fn small_table(name: &str, rows: i64) -> Table {
        let schema = TableSchema::new(name)
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("when", i * 10);
            });
        }
        b.build()
    }

    fn query() -> Query {
        Query::select("t")
            .filter(Predicate::time_range(1, 0, 5_000))
            .output(OutputKind::Count)
    }

    #[test]
    fn trait_is_object_safe_and_usable_via_arc_dyn() {
        use std::sync::Arc;
        let mut db = Database::new(DbConfig::default());
        db.register_table(small_table("t", 200)).unwrap();
        let backend: Arc<dyn QueryBackend> = Arc::new(db);
        let q = query();
        let ro = RewriteOption::original();
        assert!(backend.execution_time_ms(&q, &ro).unwrap() > 0.0);
        assert!(backend.sample_len("t", 20).is_err(), "no sample built");
        assert!(backend.render_sql(&q, &ro).contains("FROM t"));
    }
}
