//! [`ShardedBackend`]: per-region database shards behind one [`QueryBackend`].
//!
//! Dataflow visualization systems get their interactive latency from pushing
//! viewport queries down to partitioned executors and merging the per-partition
//! aggregates. Maliva's heatmap aggregate (`BinnedCounts`) is exactly mergeable
//! — every row lands in one grid cell, cells sum — so the backend can be split
//! into N per-region [`Database`](crate::Database) shards by **2-D tile
//! partitioning** (a lon×lat tile grid from the table's geo statistics, tiles
//! ordered along a Z-order curve and assigned to shards in contiguous runs
//! balanced by row count — see [`tiles`]) without changing any observable
//! result:
//!
//! * a viewport query is fanned out **only to the shards owning a tile its
//!   spatial window overlaps** — both the longitude *and* latitude intervals
//!   of its spatial predicates and (for heatmaps) the binning grid extent
//!   prune, so a latitude-only viewport prunes shards too;
//! * per-shard `Bins` grids are merged by summing counts per cell — byte-identical
//!   to the unsharded result; `Count`s sum; `Points` of a partitioned table are
//!   returned in the **canonical distributed order** (sorted by `(id, lon, lat)`)
//!   on every routing path, single- or multi-shard;
//! * the merged execution time is the **slowest overlapping shard** (on the
//!   simulated clock the shards run in parallel), which is where the speedup
//!   over a single backend comes from — and balanced tile runs keep the
//!   slowest shard close to the mean on skewed data. In wall-clock time the
//!   routed shards run one after another on the thread serving the request:
//!   concurrency across requests comes from the serving layer's workers, and
//!   a hand-off to other threads per shard cost more than it overlapped;
//! * selectivity-style estimates compose as **row-count-weighted sums** over the
//!   shards, so QTE feature vectors and Q-agent decisions stay well-defined: the
//!   weighted sum of true selectivities is *exactly* the global true selectivity,
//!   and estimated selectivities/cardinalities aggregate the per-shard optimizer
//!   estimates the same way a distributed planner would.
//!
//! The layout is fixed when the backend is built: no tiles move afterwards,
//! so the shards and partitions are plain fields read without a lock. Because
//! the shards of one request run serially, moving tiles between them could
//! only change the simulated slowest-shard number, never a request's wall
//! time.
//!
//! Tables without a geo column (dimension tables, TPC-H-style facts) are
//! **replicated** into every shard so joins stay shard-local; queries rooted at a
//! replicated table are routed to shard 0 only (any replica answers exactly).
//! A join whose *right* table is partitioned cannot be answered shard-locally
//! (cross-shard join pairs would be silently lost), so such queries are
//! **rejected** with [`Error::InvalidQuery`] instead of merging wrong aggregates;
//! cross-shard join shuffles are a ROADMAP follow-on.
//!
//! ## Equivalence scope
//!
//! Results are **byte-identical** to the unsharded
//! [`Database`](crate::Database) for *exact* rewrites without a row cap — the
//! visualization workloads this repo serves (heatmap grids, viewport
//! scatterplots, counts) — for every grid resolution, shard count, and
//! tile→shard assignment, provided the `Points` id column preserves storage
//! order (true for every dataset generator here; otherwise the sets are equal
//! but the canonical order differs from the unsharded scan order).
//! Row-capped queries follow standard **distributed LIMIT semantics** instead:
//!
//! * an explicit `query.limit` is applied *per shard* and re-applied at the
//!   merge, so `Count` outputs stay exactly equal to the unsharded backend
//!   (`min(Σ per-shard count, limit)`) and `Points` outputs return a valid
//!   `limit`-sized subset in canonical order (the unsharded backend keeps the
//!   first `limit` rows in scan order — an arbitrary tie-break this backend does
//!   not reproduce); a `BinnedCounts` output under an explicit limit bins each
//!   shard's first `limit` qualifying rows — up to `shards × limit` rows in
//!   total where the unsharded backend bins an equally arbitrary first-`limit`
//!   subset (a capped heatmap has no canonical answer; both are valid
//!   `limit`-per-scan samples);
//! * an approximate `LIMIT`-permille rewrite sizes its cap from each shard's own
//!   estimated cardinality — per-shard stratified sampling with the same
//!   expected kept fraction as the single backend, not a byte-identical row set
//!   (it is an approximation rule; quality metrics measure it as such).

mod builder;
mod merge;
mod tiles;

pub use builder::ShardedBackendBuilder;

use merge::{canonicalise_points, merge_outcomes};
use tiles::{QueryWindow, TablePartition};

use std::collections::HashMap;
use std::sync::Arc;

use crate::backend::QueryBackend;
use crate::db::{DbConfig, RunOutcome};
use crate::error::{Error, Result};
use crate::exec::QueryResult;
use crate::hints::RewriteOption;
use crate::plan::PhysicalPlan;
use crate::query::{OutputKind, Predicate, Query};
use crate::schema::TableSchema;
use crate::stats::TableStats;

/// N per-region [`Database`](crate::Database) shards behind the
/// [`QueryBackend`] surface.
///
/// Each shard is held as an `Arc<dyn QueryBackend>` so a test decorator can
/// sit between the fan-out and a shard (see
/// [`ShardedBackendBuilder::build_wrapped`]); a plain build wraps each
/// [`Database`](crate::Database) directly.
pub struct ShardedBackend {
    shards: Vec<Arc<dyn QueryBackend>>,
    /// How each registered table is laid out over `shards`.
    partitions: HashMap<String, TablePartition>,
    schemas: HashMap<String, TableSchema>,
    global_stats: HashMap<String, TableStats>,
}

// Shared across serving threads exactly like a single database.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedBackend>();
};

impl ShardedBackend {
    /// Starts a builder (see [`ShardedBackendBuilder`]).
    pub fn builder(config: DbConfig, shards: usize) -> ShardedBackendBuilder {
        ShardedBackendBuilder::new(config, shards)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows of `table` per shard (the replica count repeated for replicated
    /// tables).
    pub fn shard_row_counts(&self, table: &str) -> Result<Vec<usize>> {
        Ok(self.partition_of(table)?.shard_rows.clone())
    }

    fn partition_of(&self, table: &str) -> Result<&TablePartition> {
        self.partitions
            .get(table)
            .ok_or_else(|| Error::TableNotFound(table.to_string()))
    }

    /// Shard-local execution answers a join only if every replica of the right
    /// table is complete: a partitioned right table would silently lose every
    /// cross-shard join pair, so such queries are rejected up front.
    fn check_join_is_shard_local(&self, query: &Query) -> Result<()> {
        if let Some(join) = &query.join {
            if !self.partition_of(&join.right_table)?.is_replicated() {
                return Err(Error::InvalidQuery(format!(
                    "table {} is partitioned across {} shards and cannot be the right side \
                     of a shard-local join; replicate it (no geo column) or run unsharded",
                    join.right_table,
                    self.shards.len()
                )));
            }
        }
        Ok(())
    }

    /// The query's spatial window on partition column `attr`: the intersection
    /// of its spatial-range predicates and (for heatmaps) the binning grid
    /// extent, on **both** axes — rows outside either produce no output, so
    /// shards entirely outside cannot contribute.
    fn query_window(query: &Query, attr: usize) -> QueryWindow {
        let mut w = QueryWindow::unconstrained();
        for pred in &query.predicates {
            if let Predicate::SpatialRange { attr: a, rect } = pred {
                if *a == attr {
                    w.narrow(rect);
                }
            }
        }
        if let OutputKind::BinnedCounts { point_attr, grid } = &query.output {
            if *point_attr == attr {
                w.narrow(&grid.extent);
            }
        }
        w
    }

    /// The shards a query on `query.table` must be fanned out to: every shard
    /// owning a tile the query's spatial window overlaps. Queries over
    /// replicated tables route to shard 0.
    fn route(&self, query: &Query) -> Result<Vec<usize>> {
        self.check_join_is_shard_local(query)?;
        let part = self.partition_of(&query.table)?;
        let attr = match part.geo_attr {
            None => return Ok(vec![0]),
            Some(attr) => attr,
        };
        let targets = part.overlapping_shards(&Self::query_window(query, attr), self.shards.len());
        if targets.is_empty() {
            // The viewport misses the data entirely; one shard still runs the
            // query so overheads and the (empty) result shape are reported.
            return Ok(vec![0]);
        }
        Ok(targets)
    }

    /// Public view of [`Self::route`] for tests, benchmarks and fan-out
    /// metrics.
    pub fn overlapping_shards(&self, query: &Query) -> Result<Vec<usize>> {
        self.route(query)
    }

    /// Row-count-weighted mean of a per-shard quantity — the composition rule
    /// that keeps selectivities exact: `Σ selᵢ·rowsᵢ / Σ rowsᵢ` over partitioned
    /// shards equals the selectivity over the whole table.
    fn weighted_selectivity(
        &self,
        table: &str,
        f: impl Fn(&dyn QueryBackend) -> Result<f64>,
    ) -> Result<f64> {
        let part = self.partition_of(table)?;
        if part.is_replicated() {
            return f(self.shards[0].as_ref());
        }
        let mut weighted = 0.0;
        let mut rows = 0usize;
        for (shard, &shard_rows) in self.shards.iter().zip(&part.shard_rows) {
            if shard_rows == 0 {
                continue;
            }
            weighted += f(shard.as_ref())? * shard_rows as f64;
            rows += shard_rows;
        }
        if rows == 0 {
            // Every shard is empty, and the answer is 0 — unless shard 0
            // raises the error a predicate that cannot be bound raises on
            // any table.
            return f(self.shards[0].as_ref()).map(|_| 0.0);
        }
        Ok(weighted / rows as f64)
    }
}

impl QueryBackend for ShardedBackend {
    fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.partitions.keys().cloned().collect();
        names.sort();
        names
    }

    fn row_count(&self, table: &str) -> Result<usize> {
        let part = self.partition_of(table)?;
        if part.is_replicated() {
            return Ok(part.shard_rows.first().copied().unwrap_or(0));
        }
        Ok(part.shard_rows.iter().sum())
    }

    fn schema(&self, table: &str) -> Result<TableSchema> {
        self.schemas
            .get(table)
            .cloned()
            .ok_or_else(|| Error::TableNotFound(table.to_string()))
    }

    fn stats(&self, table: &str) -> Result<TableStats> {
        self.global_stats
            .get(table)
            .cloned()
            .ok_or_else(|| Error::TableNotFound(table.to_string()))
    }

    fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
        self.shards[0].indexed_columns(table)
    }

    fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
        let part = self.partition_of(table)?;
        if part.is_replicated() {
            return self.shards[0].sample_len(table, fraction_pct);
        }
        let mut total = 0usize;
        for shard in &self.shards {
            total += shard.sample_len(table, fraction_pct)?;
        }
        Ok(total)
    }

    fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan> {
        let targets = self.route(query)?;
        self.shards[targets[0]].plan(query, ro)
    }

    fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        // The routed shards run in route order on the calling thread (see the
        // module docs); the first shard that fails fails the request.
        let targets = self.route(query)?;
        let mut outcomes = Vec::with_capacity(targets.len());
        for &shard in &targets {
            outcomes.push(self.shards[shard].run(query, ro)?);
        }
        if outcomes.len() > 1 {
            return merge_outcomes(query, outcomes);
        }
        let mut outcome = outcomes
            .pop()
            .ok_or_else(|| Error::Internal("a request routed to no shard".into()))?;
        // Partitioned tables return points in the canonical distributed order
        // on *every* routing path, so a narrow (single-shard) viewport orders
        // rows the same way a wide (merged) one does.
        if let QueryResult::Points(points) = &mut outcome.result {
            if !self.partition_of(&query.table)?.is_replicated() {
                canonicalise_points(points, query.limit);
            }
        }
        Ok(outcome)
    }

    fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
        // The slowest overlapping shard, as `run` merges simulated times.
        let targets = self.route(query)?;
        let mut slowest = 0.0f64;
        for &shard in &targets {
            slowest = slowest.max(self.shards[shard].execution_time_ms(query, ro)?);
        }
        Ok(slowest)
    }

    fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
        self.check_join_is_shard_local(query)?;
        let part = self.partition_of(&query.table)?;
        if part.is_replicated() {
            return self.shards[0].estimated_cardinality(query);
        }
        let mut total = 0.0;
        for (shard, &rows) in self.shards.iter().zip(&part.shard_rows) {
            if rows == 0 {
                continue;
            }
            total += shard.estimated_cardinality(query)?;
        }
        Ok(total)
    }

    fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        self.weighted_selectivity(table, |shard| shard.estimated_selectivity(table, pred))
    }

    fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        self.weighted_selectivity(table, |shard| shard.true_selectivity(table, pred))
    }

    fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)> {
        let part = self.partition_of(table)?;
        if part.is_replicated() {
            return self.shards[0].sample_selectivity(table, pred, fraction_pct);
        }
        let mut matched = 0.0;
        let mut scanned = 0usize;
        for shard in &self.shards {
            let (sel, rows) = shard.sample_selectivity(table, pred, fraction_pct)?;
            matched += sel * rows as f64;
            scanned += rows;
        }
        let sel = if scanned == 0 {
            0.0
        } else {
            matched / scanned as f64
        };
        Ok((sel, scanned))
    }

    fn clear_caches(&self) {
        for shard in &self.shards {
            shard.clear_caches();
        }
    }

    fn cache_entry_counts(&self) -> (usize, usize) {
        let mut totals = (0, 0);
        for shard in &self.shards {
            let (t, s) = shard.cache_entry_counts();
            totals.0 += t;
            totals.1 += s;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::query::{BinGrid, JoinSpec, OutputKind, Predicate};
    use crate::schema::ColumnType;
    use crate::storage::{Table, TableBuilder};
    use crate::testing::{Log, Recorder};
    use crate::types::{GeoRect, RecordId};

    /// A skewed bi-coastal table: 70% of rows near the west edge, 30% near the
    /// east, timestamps uniform, keyword "hot" on every 4th row.
    pub(super) fn build_table(rows: i64) -> Table {
        build_table_with_ids(rows, |i| i)
    }

    /// [`build_table`] with row `i`'s id column set to `id(i)`.
    fn build_table_with_ids(rows: i64, id: impl Fn(i64) -> i64) -> Table {
        let schema = TableSchema::new("events")
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp)
            .with_column("loc", ColumnType::Geo)
            .with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(|row| {
                row.set_int("id", id(i));
                row.set_timestamp("when", i * 10);
                let lon = if i % 10 < 7 {
                    -120.0 + (i % 31) as f64 * 0.1
                } else {
                    -80.0 + (i % 17) as f64 * 0.1
                };
                row.set_geo("loc", lon, 30.0 + (i % 19) as f64 * 0.5);
                let unique = format!("u{i}");
                let words: Vec<&str> = if i % 4 == 0 {
                    vec!["hot", unique.as_str()]
                } else {
                    vec!["cold", unique.as_str()]
                };
                row.set_text("text", &words);
            });
        }
        b.build()
    }

    fn users_table(rows: i64) -> Table {
        let schema = TableSchema::new("users")
            .with_column("id", ColumnType::Int)
            .with_column("score", ColumnType::Float);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_float("score", (i % 50) as f64);
            });
        }
        b.build()
    }

    pub(super) fn single_db(table: &Table) -> Database {
        let mut db = Database::new(DbConfig::default());
        db.register_table(table.clone()).unwrap();
        db.build_all_indexes("events").unwrap();
        db.build_sample("events", 20).unwrap();
        db
    }

    fn sharded(table: &Table, n: usize) -> ShardedBackend {
        let mut b = ShardedBackend::builder(DbConfig::default(), n);
        b.register_table(table).unwrap();
        b.build_all_indexes("events").unwrap();
        b.build_sample("events", 20).unwrap();
        b.build()
    }

    /// Exactly the bottom-left tile of [`build_table`]'s 64×64 grid (its data
    /// spans lon -120..-78.4 and lat 30..39, so a tile is 0.65° × 0.14°): a
    /// viewport inside it routes to the one shard owning that tile.
    const CORNER_TILE: GeoRect = GeoRect {
        min_lon: -120.0,
        min_lat: 30.0,
        max_lon: -119.4,
        max_lat: 30.1,
    };

    pub(super) fn viewport(rect: GeoRect, cols: u32, rows: u32) -> Query {
        Query::select("events")
            .filter(Predicate::spatial_range(2, rect))
            .output(OutputKind::BinnedCounts {
                point_attr: 2,
                grid: BinGrid::new(rect, cols, rows),
            })
    }

    #[test]
    fn partitioning_assigns_every_row_exactly_once() {
        let table = build_table(2_000);
        for n in [1usize, 2, 4, 8] {
            let backend = sharded(&table, n);
            let counts = backend.shard_row_counts("events").unwrap();
            assert_eq!(counts.len(), n);
            assert_eq!(counts.iter().sum::<usize>(), 2_000);
            assert_eq!(backend.row_count("events").unwrap(), 2_000);
        }
    }

    #[test]
    fn binned_counts_merge_byte_identically() {
        let table = build_table(3_000);
        let reference = single_db(&table);
        for n in [2usize, 3, 4, 8] {
            let backend = sharded(&table, n);
            for rect in [
                GeoRect::new(-125.0, 25.0, -66.0, 49.0),  // whole extent
                GeoRect::new(-121.0, 29.0, -115.0, 41.0), // west coast only
                GeoRect::new(-100.0, 25.0, -70.0, 49.0),  // straddles the split
            ] {
                let q = viewport(rect, 16, 16);
                let ro = RewriteOption::original();
                let expected = reference.run(&q, &ro).unwrap().result;
                let got = backend.run(&q, &ro).unwrap().result;
                assert_eq!(expected, got, "diverged at {n} shards for {rect:?}");
            }
        }
    }

    #[test]
    fn counts_and_sorted_points_match_the_unsharded_backend() {
        let table = build_table(1_500);
        let reference = single_db(&table);
        let backend = sharded(&table, 4);
        let count_q = Query::select("events")
            .filter(Predicate::keyword(3, "hot"))
            .output(OutputKind::Count);
        let ro = RewriteOption::original();
        assert_eq!(
            reference.run(&count_q, &ro).unwrap().result,
            backend.run(&count_q, &ro).unwrap().result
        );
        let points_q = Query::select("events")
            .filter(Predicate::keyword(3, "hot"))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            });
        let mut expected = match reference.run(&points_q, &ro).unwrap().result {
            QueryResult::Points(p) => p,
            other => panic!("expected points, got {other:?}"),
        };
        expected.sort_by_key(|e| e.0);
        let got = match backend.run(&points_q, &ro).unwrap().result {
            QueryResult::Points(p) => p,
            other => panic!("expected points, got {other:?}"),
        };
        assert_eq!(expected, got);
    }

    #[test]
    fn narrow_viewports_prune_shards() {
        let table = build_table(2_000);
        let backend = sharded(&table, 8);
        let west = viewport(GeoRect::new(-121.0, 25.0, -116.0, 49.0), 8, 8);
        let targets = backend.overlapping_shards(&west).unwrap();
        assert!(
            targets.len() < 8,
            "a narrow west-coast viewport must not fan out to all shards, got {targets:?}"
        );
        let everywhere = Query::select("events").output(OutputKind::Count);
        assert_eq!(
            backend.overlapping_shards(&everywhere).unwrap().len(),
            8,
            "an unconstrained query must fan out everywhere"
        );
        // A viewport that misses the data entirely still routes somewhere and
        // returns an empty result.
        let nowhere = viewport(GeoRect::new(40.0, 25.0, 50.0, 49.0), 4, 4);
        assert_eq!(backend.overlapping_shards(&nowhere).unwrap(), vec![0]);
        let outcome = backend.run(&nowhere, &RewriteOption::original()).unwrap();
        assert_eq!(outcome.result, QueryResult::Bins(vec![]));
    }

    /// The grid routes on latitude too: a full-width, latitude-thin viewport
    /// prunes shards that the same longitudes at full height all reach. Both
    /// answers stay byte-identical to the unsharded backend.
    #[test]
    fn latitude_only_viewports_prune_shards() {
        let table = build_table(2_000);
        let reference = single_db(&table);
        let backend = sharded(&table, 4);
        let band = viewport(GeoRect::new(-125.0, 30.0, -66.0, 31.0), 8, 4);
        let full = viewport(GeoRect::new(-125.0, 25.0, -66.0, 49.0), 8, 4);
        let ro = RewriteOption::original();

        let pruned = backend.overlapping_shards(&band).unwrap();
        assert!(
            pruned.len() < 4,
            "a latitude-thin viewport must prune shards, got {pruned:?}"
        );
        assert_eq!(
            backend.overlapping_shards(&full).unwrap().len(),
            4,
            "test premise: the same longitudes at full height reach every shard"
        );
        for q in [band, full] {
            assert_eq!(
                reference.run(&q, &ro).unwrap().result,
                backend.run(&q, &ro).unwrap().result
            );
        }
    }

    /// Distributed LIMIT semantics: the per-shard cap is re-applied at the merge,
    /// so `Count` outputs stay exactly equal to the unsharded backend whether the
    /// cap binds (limit < qualifying) or not.
    #[test]
    fn count_with_limit_matches_unsharded() {
        let table = build_table(2_000);
        let reference = single_db(&table);
        let backend = sharded(&table, 4);
        let ro = RewriteOption::original();
        for limit in [1usize, 7, 100, 10_000] {
            let q = Query::select("events")
                .filter(Predicate::keyword(3, "hot"))
                .output(OutputKind::Count)
                .limit(limit);
            assert_eq!(
                reference.run(&q, &ro).unwrap().result,
                backend.run(&q, &ro).unwrap().result,
                "count diverged at limit {limit}"
            );
        }
    }

    /// Points of a partitioned table come back in the canonical distributed order
    /// on every routing path — a narrow viewport hitting one shard must order rows
    /// exactly like a wide viewport that merges several. Ids run against
    /// storage order, so no shard's scan is canonical by itself.
    #[test]
    fn points_order_is_canonical_on_single_and_multi_shard_routes() {
        let table = build_table_with_ids(1_200, |i| 1_200 - i);
        let backend = sharded(&table, 8);
        let ro = RewriteOption::original();
        let wide = GeoRect::new(-125.0, 25.0, -66.0, 49.0);
        for (rect, single) in [(CORNER_TILE, true), (wide, false)] {
            let q = Query::select("events")
                .filter(Predicate::spatial_range(2, rect))
                .output(OutputKind::Points {
                    id_attr: 0,
                    point_attr: 2,
                });
            let routed = backend.overlapping_shards(&q).unwrap().len();
            assert_eq!(
                routed == 1,
                single,
                "test premise: {rect:?} routes to {routed}"
            );
            let points = match backend.run(&q, &ro).unwrap().result {
                QueryResult::Points(p) => p,
                other => panic!("expected points, got {other:?}"),
            };
            assert!(
                points.len() > 1,
                "test premise: {rect:?} holds several rows"
            );
            assert!(
                points.windows(2).all(|w| w[0].0 <= w[1].0),
                "points must be in canonical (id-sorted) order on every route"
            );
        }
    }

    #[test]
    fn true_selectivity_composes_exactly() {
        let table = build_table(2_400);
        let reference = single_db(&table);
        let backend = sharded(&table, 4);
        for pred in [
            Predicate::keyword(3, "hot"),
            Predicate::time_range(1, 0, 9_000),
            Predicate::spatial_range(2, GeoRect::new(-121.0, 25.0, -110.0, 49.0)),
        ] {
            let expected = reference.true_selectivity("events", &pred).unwrap();
            let got = backend.true_selectivity("events", &pred).unwrap();
            assert!(
                (expected - got).abs() < 1e-12,
                "true selectivity must compose exactly: {expected} vs {got}"
            );
        }
    }

    #[test]
    fn sharded_time_is_no_slower_than_single_and_usually_faster() {
        let table = build_table(4_000);
        let reference = single_db(&table);
        let backend = sharded(&table, 4);
        let q = viewport(GeoRect::new(-125.0, 25.0, -66.0, 49.0), 16, 16);
        let ro = RewriteOption::hinted(crate::hints::HintSet::with_mask(0));
        let single = reference.execution_time_ms(&q, &ro).unwrap();
        let parallel = backend.execution_time_ms(&q, &ro).unwrap();
        assert!(
            parallel < single,
            "slowest-shard time {parallel} should beat the single-backend scan {single}"
        );
    }

    #[test]
    fn replicated_dimension_tables_keep_joins_shard_local() {
        let events = build_table(1_200);
        // Rebuild the fact table with a join key (reuse id % 40 as user id).
        let schema = TableSchema::new("events")
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp)
            .with_column("loc", ColumnType::Geo)
            .with_column("user_id", ColumnType::Int);
        let mut b = TableBuilder::new(schema);
        for rid in 0..events.row_count() as RecordId {
            let id = events.int(0, rid).unwrap();
            let when = events.timestamp(1, rid).unwrap();
            let p = events.geo(2, rid).unwrap();
            b.push_row(|row| {
                row.set_int("id", id);
                row.set_timestamp("when", when);
                row.set_geo("loc", p.lon, p.lat);
                row.set_int("user_id", id % 40);
            });
        }
        let fact = b.build();
        let users = users_table(40);

        let mut reference = Database::new(DbConfig::default());
        reference.register_table(fact.clone()).unwrap();
        reference.register_table(users.clone()).unwrap();
        reference.build_all_indexes("events").unwrap();
        reference.build_all_indexes("users").unwrap();

        let mut builder = ShardedBackend::builder(DbConfig::default(), 4);
        builder.register_table(&fact).unwrap();
        builder.register_table(&users).unwrap();
        builder.build_all_indexes("events").unwrap();
        builder.build_all_indexes("users").unwrap();
        let backend = builder.build();

        let q = Query::select("events")
            .filter(Predicate::time_range(1, 0, 8_000))
            .join_with(JoinSpec {
                right_table: "users".into(),
                left_attr: 3,
                right_attr: 0,
                right_predicates: vec![Predicate::numeric_range(1, 0.0, 20.0)],
            })
            .output(OutputKind::Count);
        let ro = RewriteOption::original();
        assert_eq!(
            reference.run(&q, &ro).unwrap().result,
            backend.run(&q, &ro).unwrap().result,
            "a join against a replicated dimension table must merge exactly"
        );
        assert_eq!(backend.row_count("users").unwrap(), 40);
    }

    /// A viewport whose lower-left corner sits exactly on the data's maximum
    /// longitude must still reach the shard owning the max-lon rows — the last
    /// shard's upper bound is pinned to the exact extent, not the rounded
    /// `lo + n·width` (which can fall an ulp short).
    #[test]
    fn viewport_at_the_exact_data_max_lon_hits_the_owning_shard() {
        let table = build_table(1_000);
        let reference = single_db(&table);
        let stats = TableStats::analyze(&table).unwrap();
        let max_lon = match stats.column(2) {
            Some(crate::stats::ColumnStats::Geo(geo)) => geo.bounds.max_lon,
            other => panic!("expected geo stats, got {other:?}"),
        };
        let rect = GeoRect::new(max_lon, 25.0, max_lon + 10.0, 49.0);
        for n in [2usize, 3, 4, 7, 8] {
            let backend = sharded(&table, n);
            let q = viewport(rect, 4, 4);
            let last = backend.overlapping_shards(&q).unwrap().contains(&(n - 1));
            assert!(last, "the max-lon shard must be targeted at {n} shards");
            assert_eq!(
                reference
                    .run(&q, &RewriteOption::original())
                    .unwrap()
                    .result,
                backend.run(&q, &RewriteOption::original()).unwrap().result,
                "max-lon edge rows dropped at {n} shards"
            );
        }
    }

    /// A join whose right table is longitude-partitioned would lose every
    /// cross-shard pair; the backend must reject it instead of silently merging
    /// wrong aggregates. The same join over a single "shard" (everything
    /// replicated at n = 1) still works.
    #[test]
    fn joins_against_partitioned_right_tables_are_rejected() {
        let events = build_table(600);
        let mut checkins_schema_rows = TableBuilder::new(
            TableSchema::new("checkins")
                .with_column("id", ColumnType::Int)
                .with_column("spot", ColumnType::Geo),
        );
        for i in 0..200i64 {
            checkins_schema_rows.push_row(|row| {
                row.set_int("id", i % 40);
                row.set_geo("spot", -120.0 + (i % 50) as f64, 35.0);
            });
        }
        let checkins = checkins_schema_rows.build();
        let q = Query::select("events")
            .join_with(JoinSpec {
                right_table: "checkins".into(),
                left_attr: 0,
                right_attr: 0,
                right_predicates: vec![],
            })
            .output(OutputKind::Count);
        let ro = RewriteOption::original();

        let mut builder = ShardedBackend::builder(DbConfig::default(), 4);
        builder.register_table(&events).unwrap();
        builder.register_table(&checkins).unwrap();
        let backend = builder.build();
        let err = backend.run(&q, &ro).unwrap_err();
        assert!(
            matches!(err, Error::InvalidQuery(_)),
            "expected InvalidQuery, got {err:?}"
        );
        assert!(backend.execution_time_ms(&q, &ro).is_err());
        assert!(backend.estimated_cardinality(&q).is_err());

        // At one shard every table is replicated, so the same join is answerable.
        let mut single = ShardedBackend::builder(DbConfig::default(), 1);
        single.register_table(&events).unwrap();
        single.register_table(&checkins).unwrap();
        assert!(single.build().run(&q, &ro).is_ok());
    }

    /// Sequential multi-shard requests each merge byte-identically to the
    /// unsharded reference.
    #[test]
    fn sequential_multi_shard_requests_merge_byte_identically() {
        let table = build_table(2_000);
        let reference = single_db(&table);
        let backend = sharded(&table, 4);
        let ro = RewriteOption::original();
        for (i, rect) in [
            GeoRect::new(-125.0, 25.0, -66.0, 49.0),
            GeoRect::new(-121.0, 25.0, -75.0, 49.0),
            GeoRect::new(-125.0, 28.0, -70.0, 45.0),
        ]
        .into_iter()
        .enumerate()
        {
            let q = viewport(rect, 8, 8);
            let targets = backend.overlapping_shards(&q).unwrap();
            assert!(
                targets.len() > 1,
                "test premise: request {i} must fan out to several shards"
            );
            assert_eq!(
                reference.run(&q, &ro).unwrap().result,
                backend.run(&q, &ro).unwrap().result,
                "request {i} diverged"
            );
        }
    }

    /// A narrow viewport routed to a single shard answers exactly what the
    /// unsharded backend does.
    #[test]
    fn single_shard_routes_match_the_unsharded_backend() {
        let table = build_table(1_000);
        let reference = single_db(&table);
        let backend = sharded(&table, 8);
        let narrow = viewport(CORNER_TILE, 4, 4);
        assert_eq!(backend.overlapping_shards(&narrow).unwrap().len(), 1);
        let ro = RewriteOption::original();
        assert_eq!(
            reference.run(&narrow, &ro).unwrap().result,
            backend.run(&narrow, &ro).unwrap().result
        );
    }

    /// Each shard of a 4-shard `builder`, decorated with a [`Recorder`]
    /// labelled `shard <i>` (failing every `run` on shard `failing`), and the
    /// `(shard, thread)` of every `run` the shards were asked for.
    fn recorded(
        b: ShardedBackendBuilder,
        failing: Option<usize>,
    ) -> (
        ShardedBackend,
        impl Fn() -> Vec<(usize, std::thread::ThreadId)>,
    ) {
        let log = Log::default();
        let shared = Arc::clone(&log);
        let backend = b.build_wrapped(move |shard, inner| {
            let recorder = Recorder::new(format!("shard {shard}"), inner, &shared);
            Arc::new(if failing == Some(shard) {
                recorder.failing_runs()
            } else {
                recorder
            })
        });
        let runs = move || {
            log.lock()
                .iter()
                .filter(|call| call.method == "run")
                .map(|call| {
                    let shard = call.label.strip_prefix("shard ").unwrap();
                    (shard.parse().unwrap(), call.thread)
                })
                .collect()
        };
        (backend, runs)
    }

    /// A wide viewport runs each routed shard exactly once, in route order, on
    /// the thread that called `run` — no shard is handed to another thread —
    /// and still merges byte-identically to the unsharded database.
    #[test]
    fn every_routed_shard_runs_once_on_the_calling_thread() {
        let table = build_table(2_000);
        let reference = single_db(&table);
        let mut b = ShardedBackend::builder(DbConfig::default(), 4);
        b.register_table(&table).unwrap();
        b.build_all_indexes("events").unwrap();
        let (backend, runs) = recorded(b, None);
        let q = viewport(GeoRect::new(-125.0, 25.0, -66.0, 49.0), 8, 8);
        let targets = backend.overlapping_shards(&q).unwrap();
        assert!(
            targets.len() > 1,
            "test premise: the viewport must fan out, got {targets:?}"
        );
        let ro = RewriteOption::original();
        assert_eq!(
            reference.run(&q, &ro).unwrap().result,
            backend.run(&q, &ro).unwrap().result
        );
        let me = std::thread::current().id();
        let expected: Vec<_> = targets.iter().map(|&shard| (shard, me)).collect();
        assert_eq!(runs(), expected);
    }

    /// A shard's `Err` is the `Err` the request returns, and the shards routed
    /// after it do not run: here the second of four targets fails.
    #[test]
    fn a_failing_shard_fails_the_request_with_its_error() {
        let table = build_table(2_000);
        let q = viewport(GeoRect::new(-125.0, 25.0, -66.0, 49.0), 8, 8);
        let mut b = ShardedBackend::builder(DbConfig::default(), 4);
        b.register_table(&table).unwrap();
        let (backend, runs) = recorded(b, Some(1));
        let targets = backend.overlapping_shards(&q).unwrap();
        assert_eq!(targets, vec![0, 1, 2, 3], "test premise: {targets:?}");
        let err = backend.run(&q, &RewriteOption::original()).unwrap_err();
        assert_eq!(err, Error::Internal("shard 1 failed".into()));
        let ran: Vec<usize> = runs().iter().map(|&(shard, _)| shard).collect();
        assert_eq!(ran, vec![0, 1]);
    }

    /// A table whose geo extent would be stretched by one `(+inf, lat)` row:
    /// 1,000 rows on a 40×25 one-degree grid, row 0 optionally moved to
    /// `+inf` longitude.
    fn grid_table(infinite: bool) -> Table {
        let schema = TableSchema::new("events")
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp)
            .with_column("loc", ColumnType::Geo);
        let mut b = TableBuilder::new(schema);
        for i in 0..1_000i64 {
            let lon = if infinite && i == 0 {
                f64::INFINITY
            } else {
                -120.0 + (i % 40) as f64
            };
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("when", i);
                row.set_geo("loc", lon, 25.0 + (i / 40) as f64);
            });
        }
        b.build()
    }

    /// One `+inf` row neither flattens the tile grid (which spans the finite
    /// extent; the row sits in an edge tile) nor escapes routing: a window
    /// reaching out to `+inf` beyond the finite extent still finds it.
    #[test]
    fn an_infinite_row_keeps_shards_balanced_and_reachable() {
        let clean = sharded(&grid_table(false), 4);
        let table = grid_table(true);
        let reference = single_db(&table);
        let backend = sharded(&table, 4);
        let rows = backend.shard_row_counts("events").unwrap();
        assert_eq!(rows, clean.shard_row_counts("events").unwrap());
        assert_eq!(rows, vec![250; 4]);

        let ro = RewriteOption::original();
        let beyond = GeoRect::new(-70.0, 25.0, f64::INFINITY, 49.0);
        let count = |rect: GeoRect| {
            Query::select("events")
                .filter(Predicate::spatial_range(2, rect))
                .output(OutputKind::Count)
        };
        assert_eq!(
            reference.run(&count(beyond), &ro).unwrap().result,
            QueryResult::Count(1),
            "test premise: only the +inf row lies beyond the finite extent"
        );
        for q in [
            count(beyond),
            count(GeoRect::new(-120.0, 25.0, -100.5, 49.0)),
            viewport(GeoRect::new(-120.0, 25.0, -81.0, 49.0), 16, 16),
        ] {
            assert_eq!(
                reference.run(&q, &ro).unwrap().result,
                backend.run(&q, &ro).unwrap().result,
                "{q:?}"
            );
        }
    }
}
