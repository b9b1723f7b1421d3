//! Property test: for random tables, viewports, shard counts and grid sizes,
//! `ShardedBackend::run` merges `BinnedCounts` byte-identically to the unsharded
//! `Database`, and selectivities compose exactly. This pins the core invariant
//! of the scale-out path: sharding is an execution strategy, never a semantic
//! change.

use proptest::prelude::*;

use vizdb::query::{BinGrid, OutputKind, Predicate, Query};
use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::{Table, TableBuilder};
use vizdb::types::GeoRect;
use vizdb::{Database, DbConfig, QueryBackend, ShardedBackend};

fn build_table(points: &[(f64, f64)], with_keyword_every: usize) -> Table {
    let schema = TableSchema::new("events")
        .with_column("id", ColumnType::Int)
        .with_column("when", ColumnType::Timestamp)
        .with_column("loc", ColumnType::Geo)
        .with_column("text", ColumnType::Text);
    let mut b = TableBuilder::new(schema);
    for (i, &(lon, lat)) in points.iter().enumerate() {
        b.push_row(|row| {
            row.set_int("id", i as i64);
            row.set_timestamp("when", i as i64 * 7);
            row.set_geo("loc", lon, lat);
            let unique = format!("u{i}");
            let words: Vec<&str> = if i % with_keyword_every == 0 {
                vec!["hot", unique.as_str()]
            } else {
                vec!["cold", unique.as_str()]
            };
            row.set_text("text", &words);
        });
    }
    b.build()
}

/// Overwrites the first rows of `points` with the points a grid over
/// `extent` must treat specially: NaN and infinite coordinates, the extent's
/// corners and max edge, its centre (an interior cell edge on an even grid)
/// and a point just outside.
fn plant_edge_points(points: &mut [(f64, f64)], extent: GeoRect) {
    let (lon, lat) = (
        extent.min_lon + extent.width() / 2.0,
        extent.min_lat + extent.height() / 2.0,
    );
    let planted = [
        (f64::NAN, lat),
        (lon, f64::NAN),
        (f64::INFINITY, lat),
        (lon, f64::NEG_INFINITY),
        (extent.max_lon, extent.max_lat),
        (extent.max_lon, lat),
        (lon, lat),
        (extent.min_lon, extent.min_lat),
        (extent.min_lon - 1.0, lat),
    ];
    for (point, planted) in points.iter_mut().zip(planted) {
        *point = planted;
    }
}

fn unsharded(table: &Table) -> Database {
    let mut db = Database::new(DbConfig::default());
    db.register_table(table.clone()).unwrap();
    db.build_all_indexes("events").unwrap();
    db
}

/// A backend on the default 64×64 tile grid.
fn sharded(table: &Table, shards: usize) -> ShardedBackend {
    sharded_on_grid(table, shards, 64)
}

fn sharded_on_grid(table: &Table, shards: usize, grid_dim: u32) -> ShardedBackend {
    let mut builder = ShardedBackend::builder(DbConfig::default(), shards).with_grid_dim(grid_dim);
    builder.register_table(table).unwrap();
    builder.build_all_indexes("events").unwrap();
    builder.build()
}

/// Tile grid resolutions (tiles per axis) a backend is checked under: a 1×1
/// grid (the everything-on-one-shard degenerate case), an odd 7×7 and the
/// default 64×64.
const GRID_DIMS: [u32; 3] = [1, 7, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: merged heatmap grids are byte-identical for any
    /// viewport and grid resolution, under **every** partitioning — unsharded
    /// vs tile grids of 1, 7 and 64 tiles per axis at 1, 2, 4 and 8 shards, on
    /// the drawn grid and on one fixed shape. With `warm`, every shard the
    /// grid routes to first bins all its rows on it, so it builds its own cell
    /// column for the grid; otherwise every shard's column holds another grid
    /// and it bins by arithmetic. The first rows sit at NaN and infinite
    /// coordinates, on the grid's edges and outside it.
    #[test]
    fn binned_counts_are_byte_identical(
        points in proptest::collection::vec((-120.0f64..-70.0, 25.0f64..48.0), 40..220),
        cols in 1u32..24,
        rows in 1u32..24,
        grid_pick in 0usize..4,
        warm in 0u8..2,
        lon_a in -130.0f64..-60.0,
        lon_w in 0.5f64..50.0,
        lat_a in 20.0f64..50.0,
        lat_h in 0.5f64..25.0,
    ) {
        // Exercise both the filtered and the unfiltered (grid-extent-pruned)
        // routing path without needing a boolean strategy.
        let constrain = cols % 2 == 0;
        let rect = GeoRect::new(lon_a, lat_a, lon_a + lon_w, lat_a + lat_h);
        let mut points = points;
        plant_edge_points(&mut points, rect);
        let table = build_table(&points, 4);
        let reference = unsharded(&table);

        // Beside the drawn shape: one cell, the workloads' 64×32, just above
        // 4,096 cells (binned sparsely) or above 2^20 cells (never a column).
        let fixed = [(1, 1), (64, 32), (65, 64), (1025, 1024)][grid_pick];
        // A grid over the whole globe routes to every shard.
        let decoy = BinGrid::new(GeoRect::new(-180.0, -90.0, 180.0, 90.0), 2, 2);
        let ro = vizdb::hints::RewriteOption::original();
        for (cols, rows) in [(cols, rows), fixed] {
            let grid = BinGrid::new(rect, cols, rows);
            let first = if warm == 1 { grid } else { decoy };
            let first = Query::select("events")
                .output(OutputKind::BinnedCounts { point_attr: 2, grid: first });
            let mut query = Query::select("events")
                .output(OutputKind::BinnedCounts { point_attr: 2, grid });
            if constrain {
                query = query.filter(Predicate::spatial_range(2, rect));
            }
            let expected = reference.run(&query, &ro).unwrap().result;
            for grid_dim in GRID_DIMS {
                for shards in [1usize, 2, 4, 8] {
                    let backend = sharded_on_grid(&table, shards, grid_dim);
                    prop_assert!(
                        reference.run(&first, &ro).unwrap().result
                            == backend.run(&first, &ro).unwrap().result
                    );
                    let got = backend.run(&query, &ro).unwrap().result;
                    prop_assert!(
                        expected == got,
                        "diverged on a {}×{} tile grid at {} shards", grid_dim, grid_dim, shards
                    );
                }
            }
        }
    }

    /// Counts sum exactly and row-count-weighted true selectivities reproduce the
    /// global value for every predicate kind the routing can see.
    #[test]
    fn counts_and_selectivities_compose(
        points in proptest::collection::vec((-120.0f64..-70.0, 25.0f64..48.0), 30..150),
        shards in 2usize..=8,
        t_hi in 1i64..2_000,
    ) {
        let table = build_table(&points, 3);
        let reference = unsharded(&table);
        let backend = sharded(&table, shards);

        let query = Query::select("events")
            .filter(Predicate::time_range(1, 0, t_hi))
            .output(OutputKind::Count);
        let ro = vizdb::hints::RewriteOption::original();
        prop_assert_eq!(
            reference.run(&query, &ro).unwrap().result,
            backend.run(&query, &ro).unwrap().result
        );

        for pred in [
            Predicate::keyword(3, "hot"),
            Predicate::time_range(1, 0, t_hi),
        ] {
            let expected = reference.true_selectivity("events", &pred).unwrap();
            let got = backend.true_selectivity("events", &pred).unwrap();
            prop_assert!((expected - got).abs() < 1e-12,
                "selectivity composition diverged: {} vs {}", expected, got);
        }
    }
}

/// A heatmap grid with no column, no row or more than 2^32 cells has no valid
/// bin ids, and one whose extent has a NaN or infinite coordinate, or whose
/// finite corners are further apart than an `f64` holds, has no cell width.
/// Every path that executes or prices the query rejects it with
/// `InvalidQuery` before touching a row, instead of panicking on the bin
/// arithmetic or counting rows into bins they do not fall in: `run`,
/// `run_reference`, `execution_time_ms` priced (exact rewrites) and executed
/// (capped or approximate ones), and 2- and 4-shard mirrors. No cell column
/// is built for such a grid.
#[test]
fn degenerate_and_oversized_grids_are_rejected_on_every_path() {
    use vizdb::approx::ApproxRule;
    use vizdb::hints::{HintSet, RewriteOption};
    use vizdb::Error;

    let points: Vec<(f64, f64)> = (0..1000)
        .map(|i| (-120.0 + (i % 50) as f64, 25.0 + (i % 23) as f64))
        .collect();
    let table = build_table(&points, 3);
    let db = unsharded(&table);
    let backends = [sharded(&table, 2), sharded(&table, 4)];
    let rect = GeoRect::new(-125.0, 20.0, -60.0, 50.0);
    let rewrites = [
        RewriteOption::original(),
        RewriteOption::hinted(HintSet::with_mask(0b01)),
        RewriteOption::hinted(HintSet::with_mask(0b11)),
        RewriteOption::approximate(HintSet::none(), ApproxRule::LimitPermille { permille: 250 }),
    ];
    let rejected = |what: &str, result: vizdb::Result<()>| {
        assert!(
            matches!(result, Err(Error::InvalidQuery(_))),
            "{what}: {result:?}"
        );
    };
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let grids = [
        BinGrid::new(rect, 0, 16),
        BinGrid::new(rect, 16, 0),
        BinGrid::new(rect, 1 << 20, 1 << 13),
        BinGrid::new(GeoRect::new(nan, nan, nan, nan), 8, 8),
        BinGrid::new(GeoRect::new(-inf, 25.0, inf, 49.0), 8, 8),
        BinGrid::new(GeoRect::new(-125.0, -inf, -60.0, 50.0), 8, 8),
        // Finite corners, infinite width or height.
        BinGrid::new(GeoRect::new(-1.5e308, 0.0, 1.5e308, 10.0), 4, 1),
        BinGrid::new(GeoRect::new(-125.0, -1.5e308, -60.0, 1.5e308), 1, 4),
        BinGrid {
            extent: GeoRect {
                max_lon: nan,
                ..rect
            },
            ..BinGrid::new(rect, 8, 8)
        },
    ];
    for grid in grids {
        let output = OutputKind::BinnedCounts {
            point_attr: 2,
            grid,
        };
        let base = Query::select("events")
            .filter(Predicate::time_range(1, 0, 5_000))
            .filter(Predicate::spatial_range(2, rect))
            .output(output);
        for query in [base.clone(), base.limit(100)] {
            for ro in &rewrites {
                let what = format!("{grid:?} {ro:?} limit {:?}", query.limit);
                db.clear_caches();
                rejected(&what, db.execution_time_ms(&query, ro).map(drop));
                rejected(&what, db.run(&query, ro).map(drop));
                rejected(&what, db.run_reference(&query, ro).map(drop));
                for backend in &backends {
                    rejected(&what, backend.execution_time_ms(&query, ro).map(drop));
                    rejected(&what, backend.run(&query, ro).map(drop));
                }
            }
        }
        assert!(!db.has_cell_column("events", &output).unwrap(), "{grid:?}");
    }
}
