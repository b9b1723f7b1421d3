//! The [`QueryBackend`] trait: the database surface Maliva's upper layers consume.
//!
//! The paper treats the backend database as an oracle — "how long does plan `ro`
//! take for query `q`?" — and never depends on *how* the answer is produced. This
//! trait captures exactly the surface the planning, estimation, baseline and
//! serving layers use, so they can run unchanged over:
//!
//! * a plain [`Database`] (the common case, zero indirection cost beyond vtable
//!   dispatch),
//! * a [`SharedBackend`] (a `RwLock`-wrapped database whose catalog can be
//!   mutated *while being served*, with generation-based cache invalidation),
//! * a [`crate::ShardedBackend`] (viewport queries fanned out across per-region
//!   shards and merged), or any future backend (async, remote, multi-tenant).
//!
//! Methods that hand out catalog objects return them **by value** so the trait
//! stays object-safe for backends that cannot lend references into their own
//! storage (locked or sharded ones).

use crate::sync::RwLock;

use crate::db::{Database, DbConfig, RunOutcome};
use crate::error::Result;
use crate::hints::{enumerate_hint_sets, RewriteOption};
use crate::plan::PhysicalPlan;
use crate::query::{Predicate, Query};
use crate::schema::TableSchema;
use crate::stats::TableStats;
use crate::storage::Table;

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
/// Implementations must be shareable across serving threads (`Send + Sync`) and
/// must keep every returned quantity a deterministic function of the catalog
/// state identified by [`Self::generation`].
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

    /// Renders the SQL text of `query` rewritten with `ro` (presentation only).
    fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String;

    /// The catalog generation. Bumped by every mutation that can change any
    /// quantity this trait reports; cached artefacts derived under an older
    /// generation are stale.
    fn generation(&self) -> u64;

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

    fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String {
        Database::render_sql(self, query, ro)
    }

    fn generation(&self) -> u64 {
        Database::generation(self)
    }

    fn clear_caches(&self) {
        Database::clear_caches(self)
    }

    fn cache_entry_counts(&self) -> (usize, usize) {
        Database::cache_entry_counts(self)
    }

    fn viable_plan_count(&self, query: &Query, tau_ms: f64) -> Result<usize> {
        Database::viable_plan_count(self, query, tau_ms)
    }
}

// Smart pointers to a backend are backends themselves, so call sites can pass
// `&shared_db` (where `shared_db: Arc<Database>`) wherever a `&dyn QueryBackend`
// is expected without spelling out the double dereference.
impl<T: QueryBackend + ?Sized> QueryBackend for std::sync::Arc<T> {
    fn table_names(&self) -> Vec<String> {
        (**self).table_names()
    }

    fn row_count(&self, table: &str) -> Result<usize> {
        (**self).row_count(table)
    }

    fn schema(&self, table: &str) -> Result<TableSchema> {
        (**self).schema(table)
    }

    fn stats(&self, table: &str) -> Result<TableStats> {
        (**self).stats(table)
    }

    fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
        (**self).indexed_columns(table)
    }

    fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
        (**self).sample_len(table, fraction_pct)
    }

    fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan> {
        (**self).plan(query, ro)
    }

    fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        (**self).run(query, ro)
    }

    fn run_with_context(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &ExecContext,
    ) -> Result<RunReport> {
        (**self).run_with_context(query, ro, ctx)
    }

    fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
        (**self).execution_time_ms(query, ro)
    }

    fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
        (**self).estimated_cardinality(query)
    }

    fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        (**self).estimated_selectivity(table, pred)
    }

    fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        (**self).true_selectivity(table, pred)
    }

    fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)> {
        (**self).sample_selectivity(table, pred, fraction_pct)
    }

    fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String {
        (**self).render_sql(query, ro)
    }

    fn generation(&self) -> u64 {
        (**self).generation()
    }

    fn clear_caches(&self) {
        (**self).clear_caches()
    }

    fn cache_entry_counts(&self) -> (usize, usize) {
        (**self).cache_entry_counts()
    }

    fn viable_plan_count(&self, query: &Query, tau_ms: f64) -> Result<usize> {
        (**self).viable_plan_count(query, tau_ms)
    }
}

/// A [`Database`] behind a `RwLock`, usable wherever an `Arc<dyn QueryBackend>`
/// is expected while *also* allowing catalog mutations through a shared handle.
///
/// Reads (every [`QueryBackend`] method) take the lock shared; the mutation
/// hooks ([`Self::register_table`], [`Self::build_index`], [`Self::build_sample`])
/// take it exclusively and bump the database generation, which the serving
/// layer's decision cache uses to drop stale entries.
pub struct SharedBackend {
    inner: RwLock<Database>,
}

impl SharedBackend {
    /// Wraps a database for shared mutable access.
    pub fn new(db: Database) -> Self {
        Self {
            inner: RwLock::new(db),
        }
    }

    /// Creates an empty shared database with the given configuration.
    pub fn with_config(config: DbConfig) -> Self {
        Self::new(Database::new(config))
    }

    /// Registers a table through the shared handle (exclusive lock; bumps the
    /// generation and drops the fingerprint caches).
    pub fn register_table(&self, table: Table) -> Result<()> {
        self.inner.write().register_table(table)
    }

    /// Builds an index through the shared handle.
    pub fn build_index(&self, table: &str, column: &str) -> Result<()> {
        self.inner.write().build_index(table, column)
    }

    /// Builds indexes on every column of `table` through the shared handle.
    pub fn build_all_indexes(&self, table: &str) -> Result<()> {
        self.inner.write().build_all_indexes(table)
    }

    /// Builds a sample table through the shared handle.
    pub fn build_sample(&self, table: &str, fraction_pct: u32) -> Result<()> {
        self.inner.write().build_sample(table, fraction_pct)
    }

    /// Runs `f` with shared read access to the wrapped database.
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.inner.read())
    }
}

impl QueryBackend for SharedBackend {
    fn table_names(&self) -> Vec<String> {
        self.inner.read().table_names()
    }

    fn row_count(&self, table: &str) -> Result<usize> {
        self.inner.read().row_count(table)
    }

    fn schema(&self, table: &str) -> Result<TableSchema> {
        self.inner.read().schema(table).cloned()
    }

    fn stats(&self, table: &str) -> Result<TableStats> {
        self.inner.read().stats(table).cloned()
    }

    fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
        self.inner.read().indexed_columns(table)
    }

    fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
        self.inner
            .read()
            .sample(table, fraction_pct)
            .map(|s| s.len())
    }

    fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan> {
        self.inner.read().plan(query, ro)
    }

    fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        self.inner.read().run(query, ro)
    }

    fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
        self.inner.read().execution_time_ms(query, ro)
    }

    fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
        self.inner.read().estimated_cardinality(query)
    }

    fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        self.inner.read().estimated_selectivity(table, pred)
    }

    fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        self.inner.read().true_selectivity(table, pred)
    }

    fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)> {
        self.inner
            .read()
            .sample_selectivity(table, pred, fraction_pct)
    }

    fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String {
        self.inner.read().render_sql(query, ro)
    }

    fn generation(&self) -> u64 {
        self.inner.read().generation()
    }

    fn clear_caches(&self) {
        self.inner.read().clear_caches()
    }

    fn cache_entry_counts(&self) -> (usize, usize) {
        self.inner.read().cache_entry_counts()
    }

    fn viable_plan_count(&self, query: &Query, tau_ms: f64) -> Result<usize> {
        self.inner.read().viable_plan_count(query, tau_ms)
    }
}

// Both backend flavours are shared across serving threads behind `Arc<dyn
// QueryBackend>`; keep that contract visible at compile time.
const _: () = {
    const fn assert_backend<T: QueryBackend>() {}
    assert_backend::<Database>();
    assert_backend::<SharedBackend>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{OutputKind, Predicate, Query};
    use crate::schema::{ColumnType, TableSchema};
    use crate::storage::TableBuilder;

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
    fn database_and_shared_backend_agree() {
        let mut db = Database::new(DbConfig::default());
        db.register_table(small_table("t", 1_000)).unwrap();
        db.build_all_indexes("t").unwrap();
        let shared = SharedBackend::with_config(DbConfig::default());
        shared.register_table(small_table("t", 1_000)).unwrap();
        shared.build_all_indexes("t").unwrap();

        let q = query();
        let ro = RewriteOption::original();
        let direct: &dyn QueryBackend = &db;
        let wrapped: &dyn QueryBackend = &shared;
        assert_eq!(direct.table_names(), wrapped.table_names());
        assert_eq!(direct.row_count("t").unwrap(), 1_000);
        assert_eq!(
            direct.schema("t").unwrap().columns.len(),
            wrapped.schema("t").unwrap().columns.len()
        );
        assert_eq!(
            direct.execution_time_ms(&q, &ro).unwrap(),
            wrapped.execution_time_ms(&q, &ro).unwrap()
        );
        assert_eq!(
            direct.run(&q, &ro).unwrap().result,
            wrapped.run(&q, &ro).unwrap().result
        );
        assert_eq!(
            direct.viable_plan_count(&q, f64::INFINITY).unwrap(),
            wrapped.viable_plan_count(&q, f64::INFINITY).unwrap()
        );
    }

    #[test]
    fn shared_backend_mutations_bump_generation_through_shared_handle() {
        use std::sync::Arc;
        let shared = Arc::new(SharedBackend::with_config(DbConfig::default()));
        shared.register_table(small_table("t", 100)).unwrap();
        let backend: Arc<dyn QueryBackend> = shared.clone();
        let g0 = backend.generation();
        // Mutate through one handle while another (the trait object) observes.
        shared.register_table(small_table("u", 50)).unwrap();
        assert_eq!(backend.generation(), g0 + 1);
        shared.build_index("t", "id").unwrap();
        assert_eq!(backend.generation(), g0 + 2);
        assert_eq!(backend.row_count("u").unwrap(), 50);
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
