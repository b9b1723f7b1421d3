//! The `Database` facade: catalog, index management, planning, execution and the
//! simulated-time memo.
//!
//! Execution has one production path ([`Database::run`], the bitmap pipeline of
//! [`crate::exec`], on the calling thread) and one oracle
//! ([`Database::run_reference`], the row-at-a-time interpreter). They share
//! planning, LIMIT sizing and timing, so the only thing that can differ
//! between them is the executor itself. Asking only for a time
//! ([`Database::execution_time_ms`], the time memo's only writer) executes
//! nothing when the rewrite is exact: the query's whole hint lattice is priced
//! from one pass over the table ([`crate::exec::price_plans`]); any other
//! rewrite is run like [`Database::run`]. Every entry point that reads rows —
//! both runs, the time and both selectivity probes — checks the query or
//! predicate against its table first, so a malformed one is the same typed
//! error from each of them, whatever the table holds.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::cache::Memo;
use crate::error::{Error, Result};
use crate::exec::{self, ExecTable, QueryResult};
use crate::fingerprint::{
    predicate_fingerprint, query_fingerprint, rewrite_fingerprint, Fingerprint,
};
use crate::hints::{enumerate_hint_sets, RewriteOption};
use crate::index::{BPlusTree, InvertedIndex, RTree};
use crate::optimizer::{estimate_selectivity, Planner, TableMeta};
use crate::plan::PhysicalPlan;
use crate::query::{OutputKind, Predicate, Query};
use crate::schema::TableSchema;
use crate::stats::TableStats;
use crate::storage::{check_fraction, CellColumnSlot, CellKey, ColumnData, SampleTable, Table};
use crate::timing::{apply_profile_noise, execution_time_ms, CostParams, WorkProfile};
use crate::types::RecordId;

pub use crate::timing::DbProfile;

/// Configuration of a simulated database instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DbConfig {
    /// Behavioural profile (PostgreSQL-like or commercial-like, see [`DbProfile`]).
    pub profile: DbProfile,
    /// Seed for all deterministic pseudo-randomness (sampling, noise).
    pub seed: u64,
    /// Millisecond cost constants of the execution engine.
    pub cost_params: CostParams,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            profile: DbProfile::Postgres,
            seed: 42,
            cost_params: CostParams::default(),
        }
    }
}

impl DbConfig {
    /// A commercial-database configuration (paper §7.6).
    pub fn commercial() -> Self {
        Self {
            profile: DbProfile::Commercial,
            ..Self::default()
        }
    }
}

/// The outcome of running one (rewritten) query.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Simulated execution time in milliseconds (planning time of the middleware is
    /// *not* included — that is the middleware's concern).
    pub time_ms: f64,
    /// Materialised result.
    pub result: QueryResult,
    /// The physical plan that was executed.
    pub plan: PhysicalPlan,
    /// Exact operation counts performed by the executor.
    pub work: WorkProfile,
}

/// An executor a plan can run on: the pipeline ([`exec::execute`]) or the
/// reference oracle, which share this signature.
type Engine = fn(
    &Query,
    &PhysicalPlan,
    &ExecTable<'_>,
    Option<&ExecTable<'_>>,
    Option<usize>,
) -> Result<exec::ExecOutcome>;

/// A table's secondary indexes, keyed by column.
#[derive(Default)]
struct Indexes {
    btree: HashMap<usize, BPlusTree>,
    rtree: HashMap<usize, RTree>,
    inverted: HashMap<usize, InvertedIndex>,
}

impl Indexes {
    /// Builds the type-appropriate index on column `col` of `table`: B+-tree for
    /// numeric / timestamp, R-tree for geo, inverted index for text.
    fn build(&mut self, table: &Table, col: usize) -> Result<()> {
        let ids = 0..table.row_count() as RecordId;
        match table.column(col)? {
            ColumnData::Timestamp(v) => {
                let entries = v.iter().copied().zip(ids).collect();
                self.btree.insert(col, BPlusTree::build(entries));
            }
            ColumnData::Int(v) => {
                let keys = v.iter().map(|&n| BPlusTree::float_key(n as f64));
                self.btree
                    .insert(col, BPlusTree::build(keys.zip(ids).collect()));
            }
            ColumnData::Float(v) => {
                let keys = v.iter().map(|&x| BPlusTree::float_key(x));
                self.btree
                    .insert(col, BPlusTree::build(keys.zip(ids).collect()));
            }
            ColumnData::Geo(v) => {
                let entries = v.iter().copied().zip(ids).collect();
                self.rtree.insert(col, RTree::build(entries));
            }
            // Straight from the CSR-flattened column: no per-row clones.
            ColumnData::Text(docs) => {
                self.inverted
                    .insert(col, InvertedIndex::from_docs(docs.docs()));
            }
        }
        Ok(())
    }

    fn exec_table<'a>(
        &'a self,
        table: &'a Table,
        cells: Option<&'a CellColumnSlot>,
    ) -> ExecTable<'a> {
        ExecTable {
            table,
            btree: &self.btree,
            rtree: &self.rtree,
            inverted: &self.inverted,
            cells,
        }
    }
}

/// A sample: its draw of the base table's rows, and those rows as a table of
/// their own, on the base table's dictionary, with every index the base table
/// has — what the sample's `count(*)` probes read
/// ([`Database::sample_selectivity`]).
struct Sample {
    draw: SampleTable,
    table: Table,
    indexes: Indexes,
}

impl Sample {
    fn build(base: &TableEntry, draw: SampleTable) -> Result<Self> {
        let table = base.table.rows(draw.row_ids())?;
        let mut indexes = Indexes::default();
        for &col in &base.indexed_columns {
            indexes.build(&table, col)?;
        }
        Ok(Self {
            draw,
            table,
            indexes,
        })
    }

    /// Probes only count, so a sample has no cell column.
    fn exec_table(&self) -> ExecTable<'_> {
        self.indexes.exec_table(&self.table, None)
    }
}

/// All per-table state: data, indexes, statistics, samples and the structure
/// derived from them on use.
struct TableEntry {
    table: Table,
    stats: TableStats,
    indexes: Indexes,
    samples: HashMap<u32, Sample>,
    /// Every row's heatmap cell on the first grid the table bins
    /// ([`CellColumnSlot`]); emptied by every catalog mutation.
    cells: CellColumnSlot,
    indexed_columns: HashSet<usize>,
}

impl TableEntry {
    fn new(table: Table, stats: TableStats) -> Self {
        Self {
            cells: CellColumnSlot::new(),
            table,
            stats,
            indexes: Indexes::default(),
            samples: HashMap::new(),
            indexed_columns: HashSet::new(),
        }
    }

    fn exec_table(&self) -> ExecTable<'_> {
        self.indexes.exec_table(&self.table, Some(&self.cells))
    }

    fn meta(&self) -> TableMeta<'_> {
        TableMeta {
            stats: &self.stats,
            dictionary: self.table.dictionary(),
            schema: self.table.schema(),
            indexed_columns: &self.indexed_columns,
            row_count: self.table.row_count(),
        }
    }
}

/// Capacity of each of the database's two memos: well above the most entries
/// the paper suite or a 15 s benchmark workload leaves in one, so it bounds
/// long runs without evicting anything those reach.
const ENGINE_MEMO_CAPACITY: usize = 65_536;

/// The selectivity memo's key for `pred` on `table`.
fn selectivity_key(table: &str, pred: &Predicate) -> (u64, u64) {
    let table_fp = Fingerprint::new().write_str(table).finish();
    (table_fp, predicate_fingerprint(pred))
}

/// An in-memory analytical database instance.
pub struct Database {
    config: DbConfig,
    tables: HashMap<String, TableEntry>,
    planner: Planner,
    /// Simulated execution time per (query, rewrite) fingerprint pair.
    time_memo: Memo<f64>,
    /// True selectivity per (table, predicate) fingerprint pair.
    selectivity_memo: Memo<f64>,
}

// The serving layer shares one `Arc<Database>` across worker threads; keep that
// contract visible at compile time (tables and planner are plain data, the two
// memos synchronise internally).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

impl Database {
    /// Creates an empty database with the given configuration.
    pub fn new(config: DbConfig) -> Self {
        let planner = Planner::new(config.cost_params);
        Self {
            config,
            tables: HashMap::new(),
            planner,
            time_memo: Memo::new(ENGINE_MEMO_CAPACITY),
            selectivity_memo: Memo::new(ENGINE_MEMO_CAPACITY),
        }
    }

    /// Invalidation hook shared by every catalog mutation: drop both memos, whose entries were computed against the old
    /// catalog (a new index changes execution times, a re-registered table
    /// changes everything), and every table's cell column, which the table's
    /// next binning rebuilds.
    fn invalidate(&mut self) {
        self.clear_caches();
        for entry in self.tables.values_mut() {
            entry.cells = CellColumnSlot::new();
        }
    }

    /// The database configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Registers a fully loaded table (statistics are collected immediately).
    ///
    /// Returns an error when statistics collection fails (e.g. a malformed column),
    /// like its `build_index` / `build_sample` siblings, instead of panicking.
    pub fn register_table(&mut self, table: Table) -> Result<()> {
        let stats = TableStats::analyze(&table)?;
        let name = table.name().to_string();
        self.tables.insert(name, TableEntry::new(table, stats));
        self.invalidate();
        Ok(())
    }

    /// The raw storage of `table` (used by the sharded backend to partition a
    /// loaded table into per-region shards).
    pub fn table(&self, table: &str) -> Result<&Table> {
        Ok(&self.entry(table)?.table)
    }

    /// The sample fractions (in percent) built for `table`, sorted ascending.
    pub fn sample_fractions(&self, table: &str) -> Result<Vec<u32>> {
        let mut fractions: Vec<u32> = self.entry(table)?.samples.keys().copied().collect();
        fractions.sort_unstable();
        Ok(fractions)
    }

    /// Names of all registered tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of rows in `table`.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.entry(table)?.table.row_count())
    }

    /// Schema of `table`.
    pub fn schema(&self, table: &str) -> Result<&TableSchema> {
        Ok(self.entry(table)?.table.schema())
    }

    /// Statistics of `table`.
    pub fn stats(&self, table: &str) -> Result<&TableStats> {
        Ok(&self.entry(table)?.stats)
    }

    /// Columns of `table` that currently have an index.
    pub fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
        let mut cols: Vec<usize> = self.entry(table)?.indexed_columns.iter().copied().collect();
        cols.sort_unstable();
        Ok(cols)
    }

    /// Builds a secondary index on `table.column` (type-appropriate: B+-tree for
    /// numeric / timestamp, R-tree for geo, inverted index for text), on the
    /// table and on each of its samples.
    pub fn build_index(&mut self, table: &str, column: &str) -> Result<()> {
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))?;
        let col_idx = entry.table.schema().column_index(column)?;
        entry.indexes.build(&entry.table, col_idx)?;
        for sample in entry.samples.values_mut() {
            sample.indexes.build(&sample.table, col_idx)?;
        }
        entry.indexed_columns.insert(col_idx);
        self.invalidate();
        Ok(())
    }

    /// Builds an index on every column of `table`.
    pub fn build_all_indexes(&mut self, table: &str) -> Result<()> {
        let columns: Vec<String> = self
            .schema(table)?
            .columns
            .iter()
            .map(|c| c.name.clone())
            .collect();
        for col in columns {
            self.build_index(table, &col)?;
        }
        Ok(())
    }

    /// Builds a `fraction_pct`% random sample of `table`: draws its rows and
    /// stores them as a table of their own, with the table's indexes (see
    /// [`Database::sample_selectivity`]). A fraction outside `1..=100` is an
    /// [`Error::InvalidSampleFraction`], raised before the catalog changes.
    pub fn build_sample(&mut self, table: &str, fraction_pct: u32) -> Result<()> {
        let seed = self.config.seed;
        let entry = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))?;
        check_fraction(table, fraction_pct)?;
        let draw = SampleTable::build(table, entry.table.row_count(), fraction_pct, seed);
        let sample = Sample::build(entry, draw)?;
        entry.samples.insert(fraction_pct, sample);
        self.invalidate();
        Ok(())
    }

    /// Returns the sample table of `table` at `fraction_pct`%, if built.
    pub fn sample(&self, table: &str, fraction_pct: u32) -> Result<&SampleTable> {
        self.built_sample(table, fraction_pct).map(|s| &s.draw)
    }

    fn built_sample(&self, table: &str, fraction_pct: u32) -> Result<&Sample> {
        self.entry(table)?
            .samples
            .get(&fraction_pct)
            .ok_or(Error::SampleMissing {
                table: table.to_string(),
                fraction_pct,
            })
    }

    fn entry(&self, table: &str) -> Result<&TableEntry> {
        self.tables
            .get(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))
    }

    fn dim_entry(&self, query: &Query) -> Result<Option<&TableEntry>> {
        match &query.join {
            Some(spec) => Ok(Some(self.entry(&spec.right_table)?)),
            None => Ok(None),
        }
    }

    /// Plans `query` rewritten with `ro` (the engine's own cost model applies
    /// exactly as it would at execution time).
    pub fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan> {
        let fact = self.entry(&query.table)?;
        let dim = self.dim_entry(query)?;
        Ok(self.plan_entries(query, ro, fact, dim))
    }

    /// [`Database::plan`] over already-resolved table entries.
    fn plan_entries(
        &self,
        query: &Query,
        ro: &RewriteOption,
        fact: &TableEntry,
        dim: Option<&TableEntry>,
    ) -> PhysicalPlan {
        let dim_meta = dim.map(|d| d.meta());
        let meta = fact.meta();
        self.planner
            .plan(query, &ro.hints, ro.approx, &meta, dim_meta.as_ref())
    }

    /// The engine's own cardinality estimate for `query` (rows after all predicates),
    /// used to size LIMIT approximation rewrites.
    pub fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
        let fact = self.entry(&query.table)?;
        let meta = fact.meta();
        let mut card = fact.table.row_count() as f64;
        for pred in &query.predicates {
            card *= estimate_selectivity(&meta, pred);
        }
        if let (Some(spec), Some(dim)) = (&query.join, self.dim_entry(query)?) {
            let dmeta = dim.meta();
            for pred in &spec.right_predicates {
                card *= estimate_selectivity(&dmeta, pred);
            }
        }
        Ok(card.max(0.0))
    }

    /// The engine's estimated selectivity of a single predicate on `table`.
    pub fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        let entry = self.entry(table)?;
        Ok(estimate_selectivity(&entry.meta(), pred))
    }

    /// The *true* selectivity of a single predicate on `table`: an exact count,
    /// from the index when one answers the predicate and by the compiled kernel
    /// over every row otherwise (the count [`Database::sample_selectivity`]
    /// takes over a sample), 0 on an empty table. A predicate that cannot be
    /// bound to its column is an error, on an empty table too. Results are
    /// memoised uniformly (including for empty tables).
    pub fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        let entry = self.entry(table)?;
        let key = selectivity_key(table, pred);
        self.selectivity_memo.get_or_try_compute(key, || {
            let matched = exec::count_matching(pred, &entry.exec_table())?;
            let rows = entry.table.row_count();
            Ok(if rows == 0 {
                0.0
            } else {
                matched as f64 / rows as f64
            })
        })
    }

    /// Measures the selectivity of `pred` on the `fraction_pct`% sample of `table`,
    /// returning `(selectivity estimate, rows scanned)`. This is the probe the
    /// sampling-based Approximate-QTE issues (a `count(*)` on a small sample table).
    ///
    /// The count is exactly the sampled rows that match, as if each were read
    /// from the base table: the sample holds those rows with the base table's
    /// dictionary and indexes, so it is an index count when an index answers
    /// the predicate and a kernel over the sample's rows otherwise. A predicate
    /// that cannot be bound to its column is an error, over an empty sample too.
    /// `rows scanned` is the sample's length, which is what the QTE charges
    /// its simulated probe time by.
    pub fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)> {
        let sample = self.built_sample(table, fraction_pct)?;
        let matched = exec::count_matching(pred, &sample.exec_table())?;
        let scanned = sample.table.row_count();
        let sel = if scanned == 0 {
            0.0
        } else {
            matched as f64 / scanned as f64
        };
        Ok((sel, scanned))
    }

    /// Runs the rewritten query and returns its materialised result, plan, operation
    /// counts and simulated execution time.
    pub fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        self.run_inner(query, ro, query_fingerprint(query), exec::execute)
    }

    /// [`Database::run`] on the reference oracle — the row-at-a-time
    /// interpreter the production pipeline must match bit for bit (same
    /// results, same work profile, same simulated time). For equivalence tests.
    pub fn run_reference(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        let reference = exec::reference::execute;
        self.run_inner(query, ro, query_fingerprint(query), reference)
    }

    /// Simulated execution time of `query` rewritten with `ro`. Times are memoised
    /// per (query, rewrite option); this is the time memo's only writer.
    ///
    /// A miss on an exact rewrite of a join-free, `LIMIT`-free query of at most
    /// [`exec::MAX_PRICED_PREDICATES`] predicates is *priced*, not executed, and
    /// its whole hint lattice with it ([`exec::price_plans`]); everything else
    /// — and a query the pass declines, such as a malformed one — runs the
    /// rewrite exactly as [`Database::run`] does, which is also the only place
    /// an error is raised: the error `run` raises.
    pub fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
        let query_fp = query_fingerprint(query);
        let rewrite_fp = rewrite_fingerprint(ro);
        let key = (query_fp, rewrite_fp);
        self.time_memo.get_or_try_compute(key, || {
            match self.price_lattice(query, ro, query_fp, rewrite_fp) {
                Some(time_ms) => Ok(time_ms),
                None => self
                    .run_inner(query, ro, query_fp, exec::execute)
                    .map(|run| run.time_ms),
            }
        })
    }

    /// Prices `ro` together with every hint set of `query` in one shared pass
    /// over the table ([`exec::price_plans`]), memoises its siblings' times and
    /// returns `ro`'s. All exact rewrites select the same rows, so the pass costs
    /// at most about one sequential-scan execution however many plans it prices
    /// (an indexed range predicate's mask comes from its index scan, a few word
    /// passes over the index's prefix checkpoints when the range is wide, a
    /// keyword's or unindexed one's from its kernel) — and whoever asks about
    /// one rewrite of a query (a QTE, training, the viability count) goes on to
    /// ask about its siblings. The pass popcounts each predicate's own mask
    /// too, so it also memoises every predicate's [`Database::true_selectivity`]
    /// (unless the table is empty): the Accurate-QTE's probes after it are
    /// memo reads. `None` when the rewrite is not exact, the query joins, is
    /// capped or has more than [`exec::MAX_PRICED_PREDICATES`] predicates, or
    /// the pass cannot price it (a mistyped predicate); nothing is memoised then.
    fn price_lattice(
        &self,
        query: &Query,
        ro: &RewriteOption,
        query_fp: u64,
        rewrite_fp: u64,
    ) -> Option<f64> {
        if ro.approx.is_some()
            || query.join.is_some()
            || query.limit.is_some()
            || query.predicate_count() > exec::MAX_PRICED_PREDICATES
        {
            return None;
        }
        let fact = self.entry(&query.table).ok()?;
        let mut rewrite_fps = vec![rewrite_fp];
        let mut plans = vec![self.plan_entries(query, ro, fact, None)];
        for hints in enumerate_hint_sets(query) {
            let sibling = RewriteOption::hinted(hints);
            let sibling_fp = rewrite_fingerprint(&sibling);
            if sibling_fp != rewrite_fp {
                rewrite_fps.push(sibling_fp);
                plans.push(self.plan_entries(query, &sibling, fact, None));
            }
        }
        let priced = exec::price_plans(query, &plans, &fact.exec_table())?;
        let mut times = rewrite_fps.iter().zip(&plans).zip(&priced.works);
        let ((_, ro_plan), ro_work) = times.next()?;
        let ro_time_ms = self.simulated_time_ms(ro_work, ro_plan, query_fp);
        for ((&fp, plan), work) in times {
            let time_ms = self.simulated_time_ms(work, plan, query_fp);
            self.time_memo.insert((query_fp, fp), time_ms);
        }
        // The pass counted each predicate's rows exactly as `true_selectivity`
        // would (an index scan's mask has an index count's bits, a kernel's a
        // kernel count's), so its selectivities are memoised too.
        let rows = fact.table.row_count();
        if rows > 0 {
            for (pred, &matches) in query.predicates.iter().zip(&priced.matches) {
                let sel = matches as f64 / rows as f64;
                let key = selectivity_key(&query.table, pred);
                self.selectivity_memo.insert(key, sel);
            }
        }
        Some(ro_time_ms)
    }

    /// The simulated time of `plan` having performed `work`: the cost model plus
    /// the profile's noise, seeded by the query and the plan's own signature.
    fn simulated_time_ms(&self, work: &WorkProfile, plan: &PhysicalPlan, query_fp: u64) -> f64 {
        let base_ms = execution_time_ms(work, &self.config.cost_params);
        let fp = query_fp ^ plan.signature() ^ self.config.seed;
        apply_profile_noise(base_ms, self.config.profile, &self.config.cost_params, fp)
    }

    /// `query_fp` is `query_fingerprint(query)`, hashed once by the caller;
    /// `engine` is the pipeline ([`exec::execute`]) or the reference oracle.
    fn run_inner(
        &self,
        query: &Query,
        ro: &RewriteOption,
        query_fp: u64,
        engine: Engine,
    ) -> Result<RunOutcome> {
        let fact = self.entry(&query.table)?;
        let dim = self.dim_entry(query)?;
        let plan = self.plan_entries(query, ro, fact, dim);

        // Size the LIMIT approximation from the engine's estimated cardinality, as in
        // the paper ("a LIMIT clause with x% of the estimated cardinality").
        let limit_rows = match ro.approx {
            Some(rule) => {
                let est = self.estimated_cardinality(query)?;
                let kept = rule.kept_fraction();
                Some(((est * kept).ceil() as usize).max(1))
            }
            None => query.limit,
        };

        let fact_exec = fact.exec_table();
        let dim_exec = dim.map(|d| d.exec_table());
        let dim_exec = dim_exec.as_ref();
        let outcome = engine(query, &plan, &fact_exec, dim_exec, limit_rows)?;

        Ok(RunOutcome {
            time_ms: self.simulated_time_ms(&outcome.work, &plan, query_fp),
            result: outcome.result,
            plan,
            work: outcome.work,
        })
    }

    /// Clears the execution-time and selectivity memos (useful between experiments
    /// that mutate cost parameters, and between throughput runs that must each do
    /// the same amount of work). Each table's cell column survives it: it changes
    /// how fast an answer or a time is computed, never what it is. Catalog
    /// mutations drop it.
    pub fn clear_caches(&self) {
        self.time_memo.clear();
        self.selectivity_memo.clear();
    }

    /// Number of entries in the (execution-time, selectivity) memos, for
    /// observability and determinism assertions in tests.
    pub fn cache_entry_counts(&self) -> (usize, usize) {
        (
            self.time_memo.stats().entries,
            self.selectivity_memo.stats().entries,
        )
    }

    /// Whether `table` holds a cell column for `output`'s point column and
    /// grid, so binning it reads each row's cell instead of computing it (see
    /// [`CellColumnSlot`]). `false` for any other output. Only the tests that
    /// pin the column path against the oracle need it.
    #[doc(hidden)]
    pub fn has_cell_column(&self, table: &str, output: &OutputKind) -> Result<bool> {
        let OutputKind::BinnedCounts { point_attr, grid } = output else {
            return Ok(false);
        };
        let key = CellKey::new(*point_attr, grid);
        let cells = &self.entry(table)?.cells;
        Ok(cells.peek(|column| column.and_then(|c| c.cells_for(key)).is_some()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxRule;
    use crate::backend::QueryBackend;
    use crate::hints::HintSet;
    use crate::query::{OutputKind, Predicate};
    use crate::schema::{ColumnType, TableSchema};
    use crate::storage::TableBuilder;
    use crate::types::GeoRect;

    /// A small but skewed tweets table: keyword "covid" on 25% of rows, clustered
    /// coordinates, uniform timestamps.
    fn build_db() -> Database {
        let schema = TableSchema::new("tweets")
            .with_column("id", ColumnType::Int)
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text)
            .with_column("user_id", ColumnType::Int);
        let mut b = TableBuilder::new(schema);
        for i in 0..5000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("created_at", i * 60);
                let lon = if i % 10 < 9 {
                    -118.0 + (i % 7) as f64 * 0.1
                } else {
                    -75.0
                };
                row.set_geo("coordinates", lon, 34.0 + (i % 5) as f64 * 0.1);
                let unique = format!("u{i}");
                let words: Vec<&str> = if i % 4 == 0 {
                    vec!["covid", unique.as_str()]
                } else {
                    vec!["weather", unique.as_str()]
                };
                row.set_text("text", &words);
                row.set_int("user_id", i % 100);
            });
        }
        let mut db = Database::new(DbConfig::default());
        db.register_table(b.build()).unwrap();
        db.build_index("tweets", "created_at").unwrap();
        db.build_index("tweets", "coordinates").unwrap();
        db.build_index("tweets", "text").unwrap();
        db.build_sample("tweets", 20).unwrap();
        db.build_sample("tweets", 1).unwrap();
        db
    }

    fn base_query() -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 0, 60 * 999))
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
    fn register_and_introspect() {
        let db = build_db();
        assert_eq!(db.table_names(), vec!["tweets".to_string()]);
        assert_eq!(db.row_count("tweets").unwrap(), 5000);
        assert_eq!(db.indexed_columns("tweets").unwrap(), vec![1, 2, 3]);
        assert!(db.row_count("missing").is_err());
    }

    #[test]
    fn true_selectivity_uses_indexes() {
        let db = build_db();
        let sel = db
            .true_selectivity("tweets", &Predicate::keyword(3, "covid"))
            .unwrap();
        assert!((sel - 0.25).abs() < 0.01, "got {sel}");
        let sel_t = db
            .true_selectivity("tweets", &Predicate::time_range(1, 0, 60 * 2499))
            .unwrap();
        assert!((sel_t - 0.5).abs() < 0.01, "got {sel_t}");
    }

    #[test]
    fn estimated_selectivity_differs_from_truth_for_spatial() {
        let db = build_db();
        let rect = GeoRect::new(-119.0, 33.0, -117.0, 35.0);
        let pred = Predicate::spatial_range(2, rect);
        let truth = db.true_selectivity("tweets", &pred).unwrap();
        let est = db.estimated_selectivity("tweets", &pred).unwrap();
        assert!(
            truth > 0.5,
            "hot cluster should contain most rows, got {truth}"
        );
        assert!(
            est < truth / 2.0,
            "uniformity estimate {est} should undershoot {truth}"
        );
    }

    #[test]
    fn run_returns_consistent_results_across_hints() {
        let db = build_db();
        let q = base_query();
        let original = db.run(&q, &RewriteOption::original()).unwrap();
        let hinted = db
            .run(&q, &RewriteOption::hinted(HintSet::with_mask(0b010)))
            .unwrap();
        assert_eq!(original.result.len(), hinted.result.len());
        assert!(original.time_ms > 0.0 && hinted.time_ms > 0.0);
    }

    #[test]
    fn execution_time_is_cached_and_deterministic() {
        let db = build_db();
        let q = base_query();
        let ro = RewriteOption::hinted(HintSet::with_mask(0b001));
        let a = db.execution_time_ms(&q, &ro).unwrap();
        let b = db.execution_time_ms(&q, &ro).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_hints_lead_to_different_times() {
        let db = build_db();
        let q = base_query();
        let seq = db
            .execution_time_ms(&q, &RewriteOption::hinted(HintSet::with_mask(0)))
            .unwrap();
        let best = db
            .execution_time_ms(&q, &RewriteOption::hinted(HintSet::with_mask(0b111)))
            .unwrap();
        assert!(
            seq > best * 1.3,
            "sequential scan ({seq} ms) should be slower than all-index ({best} ms)"
        );
    }

    #[test]
    fn viable_plan_count_within_bounds() {
        let db = build_db();
        let q = base_query();
        let n = db.viable_plan_count(&q, 500.0).unwrap();
        assert!(n <= 8);
        let all = db.viable_plan_count(&q, f64::INFINITY).unwrap();
        assert_eq!(all, 8);
    }

    #[test]
    fn sample_selectivity_close_to_truth() {
        let db = build_db();
        let pred = Predicate::keyword(3, "covid");
        let (sel, scanned) = db.sample_selectivity("tweets", &pred, 20).unwrap();
        assert_eq!(scanned, 1000);
        assert!((sel - 0.25).abs() < 0.06, "sampled selectivity {sel}");
    }

    #[test]
    fn missing_sample_table_is_an_error() {
        let db = build_db();
        let pred = Predicate::keyword(3, "covid");
        let err = db.sample_selectivity("tweets", &pred, 40).unwrap_err();
        assert!(matches!(
            err,
            Error::SampleMissing {
                fraction_pct: 40,
                ..
            }
        ));
        assert!(db.sample("tweets", 40).is_err());
    }

    #[test]
    fn estimated_cardinality_positive() {
        let db = build_db();
        let card = db.estimated_cardinality(&base_query()).unwrap();
        assert!(card > 0.0);
        assert!(card < 5000.0);
    }

    #[test]
    fn commercial_profile_changes_times() {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp);
        let mut b = TableBuilder::new(schema);
        for i in 0..1000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("when", i);
            });
        }
        let table = b.build();

        let mut pg = Database::new(DbConfig::default());
        pg.register_table(table.clone()).unwrap();
        pg.build_all_indexes("t").unwrap();
        let mut com = Database::new(DbConfig::commercial());
        com.register_table(table).unwrap();
        com.build_all_indexes("t").unwrap();

        let q = Query::select("t")
            .filter(Predicate::time_range(1, 0, 500))
            .output(OutputKind::Count);
        let ro = RewriteOption::hinted(HintSet::with_mask(0b1));
        let t_pg = pg.execution_time_ms(&q, &ro).unwrap();
        let t_com = com.execution_time_ms(&q, &ro).unwrap();
        assert!(t_pg > 0.0 && t_com > 0.0);
        assert_ne!(t_pg, t_com);
    }

    #[test]
    fn render_sql_includes_table_names() {
        let db = build_db();
        let sql = db.render_sql(&base_query(), &RewriteOption::original());
        assert!(sql.contains("FROM tweets"));
        assert!(sql.contains("covid"));
    }

    #[test]
    fn clear_caches_resets_state() {
        let db = build_db();
        let q = base_query();
        let ro = RewriteOption::original();
        let a = db.execution_time_ms(&q, &ro).unwrap();
        db.clear_caches();
        assert_eq!(db.cache_entry_counts(), (0, 0));
        let b = db.execution_time_ms(&q, &ro).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn register_table_reports_success() {
        let schema = TableSchema::new("empty").with_column("id", ColumnType::Int);
        let table = TableBuilder::new(schema).build();
        let mut db = Database::new(DbConfig::default());
        assert!(db.register_table(table).is_ok());
        assert_eq!(db.row_count("empty").unwrap(), 0);
    }

    /// The `rows == 0` early return used to skip the cache insert while the normal
    /// path cached; both paths must now cache through the same helper.
    #[test]
    fn empty_table_selectivity_is_cached_like_any_other() {
        let schema = TableSchema::new("empty").with_column("id", ColumnType::Int);
        let mut db = Database::new(DbConfig::default());
        db.register_table(TableBuilder::new(schema).build())
            .unwrap();
        let pred = Predicate::numeric_range(0, 0.0, 1.0);
        assert_eq!(db.true_selectivity("empty", &pred).unwrap(), 0.0);
        let (_, sel_entries) = db.cache_entry_counts();
        assert_eq!(sel_entries, 1, "zero-row selectivity must be cached");
        assert_eq!(db.true_selectivity("empty", &pred).unwrap(), 0.0);
        assert_eq!(db.cache_entry_counts().1, 1);
    }

    /// Every catalog mutation must drop the fingerprint caches, so that stale
    /// cached times can never be served after an index or a table appears.
    #[test]
    fn catalog_mutations_bump_generation_and_drop_caches() {
        let mut db = build_db();
        let q = base_query();
        let ro = RewriteOption::original();
        let _ = db.execution_time_ms(&q, &ro).unwrap();
        assert!(db.cache_entry_counts().0 > 0);
        db.build_index("tweets", "user_id").unwrap();
        assert_eq!(
            db.cache_entry_counts(),
            (0, 0),
            "fingerprint caches must be invalidated by catalog mutations"
        );
        let _ = db.execution_time_ms(&q, &ro).unwrap();
        assert!(db.cache_entry_counts().0 > 0);
        let schema = TableSchema::new("late").with_column("id", ColumnType::Int);
        db.register_table(TableBuilder::new(schema).build())
            .unwrap();
        assert_eq!(db.cache_entry_counts(), (0, 0));
    }

    /// Two heatmap viewports sharing one corner of the grid extent must not share
    /// cached execution times (the original cache-poisoning bug).
    #[test]
    fn viewports_sharing_a_corner_do_not_share_cached_times() {
        use crate::query::BinGrid;
        let db = build_db();
        let viewport = |rect: GeoRect| {
            Query::select("tweets")
                .filter(Predicate::keyword(3, "covid"))
                .output(OutputKind::BinnedCounts {
                    point_attr: 2,
                    grid: BinGrid::new(rect, 16, 16),
                })
        };
        // Same north-west corner (min_lon / max_lat), very different areas.
        let small = viewport(GeoRect::new(-119.0, 33.5, -117.5, 34.5));
        let zoomed_out = viewport(GeoRect::new(-119.0, 20.0, -70.0, 34.5));
        let ro = RewriteOption::original();
        let t_small = db.execution_time_ms(&small, &ro).unwrap();
        let t_zoomed_out = db.execution_time_ms(&zoomed_out, &ro).unwrap();
        // One ask caches the viewport's whole hint lattice, so the entry count
        // says nothing about aliasing; the keys and the values under them do.
        let key = |q: &Query| (query_fingerprint(q), rewrite_fingerprint(&ro));
        assert_ne!(key(&small).0, key(&zoomed_out).0);
        assert_ne!(t_small, t_zoomed_out, "the viewports bin different cells");
        let memoised = |q: &Query| db.time_memo.get(key(q));
        assert_eq!(memoised(&small), Some(t_small));
        assert_eq!(memoised(&zoomed_out), Some(t_zoomed_out));
        // Re-asking for the small viewport must return its own time, not the
        // zoomed-out one's.
        assert_eq!(db.execution_time_ms(&small, &ro).unwrap(), t_small);
    }

    /// The table's first binning, an execution or a pricing pass, builds its
    /// cell column for that grid, which keeps it; catalog mutations reset it
    /// and clearing the caches does not; a grid above `DENSE_GRID_MAX_CELLS`
    /// never gets one and leaves the slot to the next grid.
    #[test]
    fn cell_column_lifecycle() {
        use crate::query::BinGrid;
        let mut db = build_db();
        let extent = GeoRect::new(-119.0, 33.0, -74.0, 35.0);
        let heatmap = |cols, rows| {
            Query::select("tweets")
                .filter(Predicate::keyword(3, "covid"))
                .output(OutputKind::BinnedCounts {
                    point_attr: 2,
                    grid: BinGrid::new(extent, cols, rows),
                })
        };
        let (a, b, huge) = (heatmap(64, 32), heatmap(16, 16), heatmap(1025, 1024));
        let ro = RewriteOption::original();
        let has = |db: &Database, q: &Query| db.has_cell_column("tweets", &q.output).unwrap();
        let expected = db.run_reference(&a, &ro).unwrap().result;
        assert!(!has(&db, &a));
        assert_eq!(db.run(&a, &ro).unwrap().result, expected);
        assert!(has(&db, &a));
        assert_eq!(db.run(&a, &ro).unwrap().result, expected);
        // A second grid bins by arithmetic and does not displace it.
        let b_expected = db.run_reference(&b, &ro).unwrap().result;
        assert_eq!(db.run(&b, &ro).unwrap().result, b_expected);
        assert!(has(&db, &a) && !has(&db, &b));
        db.clear_caches();
        assert!(has(&db, &a), "clear_caches keeps the column");
        db.build_index("tweets", "user_id").unwrap();
        assert!(!has(&db, &a), "build_index resets it");
        // A pricing pass builds it too.
        db.execution_time_ms(&a, &ro).unwrap();
        assert!(has(&db, &a));
        let other = TableSchema::new("other").with_column("id", ColumnType::Int);
        db.register_table(TableBuilder::new(other).build()).unwrap();
        assert!(!has(&db, &a), "register_table resets it");
        db.run(&huge, &ro).unwrap();
        assert!(!has(&db, &huge), "above DENSE_GRID_MAX_CELLS");
        db.run(&b, &ro).unwrap();
        assert!(has(&db, &b), "the slot stayed free for the next grid");
        assert!(!db.has_cell_column("tweets", &base_query().output).unwrap());
    }

    /// What `execution_time_ms` cannot price it executes, exactly as before the
    /// lattice pass existed: same value as `run` (same `run_inner`, results
    /// dropped), same error, and one cache entry for the one rewrite that ran.
    #[test]
    fn unpriceable_rewrites_execute_and_cache_only_themselves() {
        let users = TableSchema::new("users").with_column("id", ColumnType::Int);
        let mut b = TableBuilder::new(users);
        for i in 0..100i64 {
            b.push_row(|row| row.set_int("id", i));
        }
        let users = b.build();
        let build = || {
            let mut db = build_db();
            db.register_table(users.clone()).unwrap();
            db
        };
        let hints = HintSet::with_mask(0b011);
        let exact = RewriteOption::hinted(hints);
        let join = base_query().join_with(crate::query::JoinSpec {
            right_table: "users".into(),
            left_attr: 4,
            right_attr: 0,
            right_predicates: vec![],
        });
        let five_predicates = base_query()
            .filter(Predicate::numeric_range(0, 0.0, 4000.0))
            .filter(Predicate::numeric_range(4, 0.0, 50.0));
        let mistyped = base_query().filter(Predicate::numeric_range(3, 0.0, 1.0));
        let limited =
            RewriteOption::approximate(hints, ApproxRule::LimitPermille { permille: 250 });
        let cases = vec![
            (join, exact.clone()),
            (base_query().limit(7), exact.clone()),
            (five_predicates, exact.clone()),
            (mistyped, exact),
            (base_query(), limited),
        ];
        for (query, ro) in &cases {
            let executed = build().run(query, ro).map(|out| out.time_ms);
            let db = build();
            let asked = db.execution_time_ms(query, ro);
            match (&asked, &executed) {
                (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{query:?} {ro:?}"),
                (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
                _ => panic!("{query:?} {ro:?}: {asked:?} vs {executed:?}"),
            }
            assert_eq!(
                db.cache_entry_counts().0,
                asked.is_ok() as usize,
                "{query:?} {ro:?}: no sibling may be cached by a pass that did not run"
            );
        }
        let (mistyped, ro) = &cases[3];
        assert!(build().execution_time_ms(mistyped, ro).is_err());
    }

    /// A memo that evicts changes how often a value is computed, never the
    /// value: with 8-entry memos, every lattice option's time, every run and
    /// every predicate's true selectivity, asked twice over, is bit-equal to a
    /// roomy database's, and both small memos did evict.
    #[test]
    fn eviction_changes_no_answer() {
        let roomy = build_db();
        let mut tight = build_db();
        tight.time_memo = Memo::new(8);
        tight.selectivity_memo = Memo::new(8);
        let queries: Vec<Query> = (0..4)
            .map(|i| {
                let west = -119.0 + i as f64 * 0.2;
                Query::select("tweets")
                    .filter(Predicate::keyword(3, "covid"))
                    .filter(Predicate::time_range(1, 0, 60 * (500 + i * 700)))
                    .filter(Predicate::spatial_range(
                        2,
                        GeoRect::new(west, 33.0, -117.0, 35.0),
                    ))
                    .output(OutputKind::Count)
            })
            .collect();
        let limited = RewriteOption::approximate(
            HintSet::with_mask(0b011),
            ApproxRule::LimitPermille { permille: 250 },
        );
        for _ in 0..2 {
            for q in &queries {
                let lattice = enumerate_hint_sets(q)
                    .into_iter()
                    .map(RewriteOption::hinted);
                for ro in lattice.chain([limited.clone()]) {
                    let time = |db: &Database| db.execution_time_ms(q, &ro).unwrap().to_bits();
                    assert_eq!(time(&tight), time(&roomy), "{q:?} {ro:?}");
                    let (a, b) = (tight.run(q, &ro).unwrap(), roomy.run(q, &ro).unwrap());
                    assert_eq!(a.time_ms.to_bits(), b.time_ms.to_bits());
                    assert_eq!(a.result, b.result);
                }
                for pred in &q.predicates {
                    let sel =
                        |db: &Database| db.true_selectivity("tweets", pred).unwrap().to_bits();
                    assert_eq!(sel(&tight), sel(&roomy), "{pred:?}");
                }
            }
        }
        assert!(tight.time_memo.stats().evictions > 0);
        assert!(tight.selectivity_memo.stats().evictions > 0);
        assert_eq!(roomy.time_memo.stats().evictions, 0);
    }

    /// Concurrent workers sharing one database must observe identical cached times
    /// and selectivities as a single-threaded run.
    #[test]
    fn concurrent_cache_access_matches_single_threaded() {
        use std::sync::Arc;
        let queries: Vec<Query> = (0..6)
            .map(|i| {
                Query::select("tweets")
                    .filter(Predicate::keyword(3, "covid"))
                    .filter(Predicate::time_range(1, 0, 60 * (500 + i * 300)))
                    .output(OutputKind::Count)
            })
            .collect();
        let ros: Vec<RewriteOption> = (0..4u32)
            .map(|m| RewriteOption::hinted(HintSet::with_mask(m)))
            .collect();

        // Single-threaded reference run on a fresh database.
        let reference = build_db();
        let mut expected = Vec::new();
        for q in &queries {
            for ro in &ros {
                expected.push(reference.execution_time_ms(q, ro).unwrap());
            }
        }

        let db = Arc::new(build_db());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for q in &queries {
                        for ro in &ros {
                            db.execution_time_ms(q, ro).unwrap();
                        }
                    }
                });
            }
        });
        let mut observed = Vec::new();
        for q in &queries {
            for ro in &ros {
                observed.push(db.execution_time_ms(q, ro).unwrap());
            }
        }
        assert_eq!(expected, observed);
        assert_eq!(
            db.cache_entry_counts().0,
            queries.len() * ros.len(),
            "every (query, rewrite) pair must be cached exactly once"
        );

        // Four threads asking about four rewrites of one query at the same
        // moment each price its whole lattice: exactly its 2^3 entries remain,
        // every one the single-threaded value.
        let q = base_query();
        let lattice: Vec<RewriteOption> = enumerate_hint_sets(&q)
            .into_iter()
            .map(RewriteOption::hinted)
            .collect();
        let expected: Vec<f64> = lattice
            .iter()
            .map(|ro| reference.execution_time_ms(&q, ro).unwrap())
            .collect();
        db.clear_caches();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for ro in lattice.iter().step_by(2) {
                scope.spawn(|| {
                    start.wait();
                    db.execution_time_ms(&q, ro).unwrap();
                });
            }
        });
        assert_eq!(db.cache_entry_counts().0, lattice.len());
        let key = |ro| (query_fingerprint(&q), rewrite_fingerprint(ro));
        let raced: Vec<f64> = lattice
            .iter()
            .map(|ro| db.time_memo.get(key(ro)).unwrap())
            .collect();
        assert_eq!(raced, expected);
    }
}
