//! Property test: the production bitmap pipeline is observationally identical
//! to the reference oracle, the row-at-a-time interpreter. For random tables,
//! predicates, hint-forced plans, approximation rules, grids and limits, both
//! must produce the same `QueryResult` bytes, the same `WorkProfile` (and
//! therefore the same simulated execution time) and the same plan. This pins
//! the core invariant of the execution engine: compilation and bitmap
//! selections are speed-ups, never a semantic change.

use std::collections::HashMap;

use proptest::prelude::*;

use vizdb::approx::ApproxRule;
use vizdb::exec::{execute, price_plans, ExecTable};
use vizdb::hints::{enumerate_hint_sets, HintSet, RewriteOption};
use vizdb::index::{BPlusTree, InvertedIndex, RTree};
use vizdb::query::{BinGrid, JoinSpec, OutputKind, Predicate, Query};
use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::{CellColumnSlot, Table, TableBuilder};
use vizdb::types::{GeoRect, NumRange, RecordId, TimeRange};
use vizdb::{Database, DbConfig, QueryBackend, ShardedBackend};

fn build_table(points: &[(f64, f64)], keyword_every: usize) -> Table {
    let schema = TableSchema::new("events")
        .with_column("id", ColumnType::Int)
        .with_column("when", ColumnType::Timestamp)
        .with_column("loc", ColumnType::Geo)
        .with_column("text", ColumnType::Text)
        .with_column("score", ColumnType::Float);
    let mut b = TableBuilder::new(schema);
    for (i, &(lon, lat)) in points.iter().enumerate() {
        b.push_row(|row| {
            row.set_int("id", i as i64);
            row.set_timestamp("when", i as i64 * 5);
            row.set_geo("loc", lon, lat);
            let unique = format!("u{i}");
            let words: Vec<&str> = if i % keyword_every.max(1) == 0 {
                vec!["hot", unique.as_str()]
            } else {
                vec!["cold", unique.as_str()]
            };
            row.set_text("text", &words);
            // Duplicate keys, and NaNs of both signs (one B+-tree key below
            // every number, one above).
            let score = match i % 53 {
                51 => f64::NAN,
                52 => -f64::NAN,
                _ => (i % 37) as f64,
            };
            row.set_float("score", score);
        });
    }
    b.build()
}

fn build_db(points: &[(f64, f64)], keyword_every: usize) -> Database {
    build_db_with(points, keyword_every, true)
}

/// [`build_db`], leaving the text column without its inverted index unless
/// `index_text`.
fn build_db_with(points: &[(f64, f64)], keyword_every: usize, index_text: bool) -> Database {
    let mut db = Database::new(DbConfig::default());
    db.register_table(build_table(points, keyword_every))
        .unwrap();
    for col in ["id", "when", "loc", "score"] {
        db.build_index("events", col).unwrap();
    }
    if index_text {
        db.build_index("events", "text").unwrap();
    }
    db.build_sample("events", 20).unwrap();
    db
}

/// Registers a `users` dimension table (ids `0..n`, a float rank) so join
/// queries can exercise the compiled dimension-predicate path.
fn register_users(db: &mut Database, n: usize) {
    let schema = TableSchema::new("users")
        .with_column("id", ColumnType::Int)
        .with_column("rank", ColumnType::Float);
    let mut b = TableBuilder::new(schema);
    for i in 0..n as i64 {
        b.push_row(|row| {
            row.set_int("id", i);
            row.set_float("rank", (i % 23) as f64);
        });
    }
    db.register_table(b.build()).unwrap();
    db.build_all_indexes("users").unwrap();
}

/// The grid shapes binning is pinned on besides a drawn `cols × rows`: one
/// cell, the workloads' 64×32, one just above 4,096 cells (binned sparsely
/// for a few hundred rows) and one above 2^20 cells (which never gets a
/// column).
const FIXED_GRIDS: [(u32, u32); 4] = [(1, 1), (64, 32), (65, 64), (1025, 1024)];

/// Overwrites the first rows of `points` with the points a grid over
/// `extent` must treat specially: NaN and infinite coordinates, the extent's
/// corners and its max edge, the centre (an interior cell edge on an even
/// grid) and a point just outside. A table with no more rows than that keeps
/// its points, so the 0- and 1-row tables stay as drawn.
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
        (lon, extent.max_lat),
        (lon, lat),
        (extent.min_lon, extent.min_lat),
        (extent.min_lon - 1.0, lat),
    ];
    if points.len() > planted.len() {
        points[..planted.len()].copy_from_slice(&planted);
    }
}

/// Bins the events table on `grid`, its first binning, so the table builds
/// its cell column for the grid (unless it has more than 2^20 cells);
/// asserts it did.
fn warm_cells(db: &Database, grid: BinGrid) {
    let output = OutputKind::BinnedCounts {
        point_attr: 2,
        grid,
    };
    let everything = Query::select("events").output(output);
    assert_engines_agree(db, &everything, &RewriteOption::original());
    let built = grid.cell_count() <= vizdb::exec::DENSE_GRID_MAX_CELLS;
    assert_eq!(db.has_cell_column("events", &output).unwrap(), built);
}

/// Gives the events table its cell column for a grid no query here bins on,
/// so every query's grid bins by arithmetic.
fn occupy_cells(db: &Database) {
    warm_cells(db, BinGrid::new(GeoRect::new(0.0, 0.0, 1.0, 1.0), 2, 2));
}

/// Runs `query` under `ro` on the reference oracle and on the production
/// pipeline and asserts full observational equality.
fn assert_engines_agree(db: &Database, query: &Query, ro: &RewriteOption) {
    let reference = db.run_reference(query, ro);
    // `run` reads no memo, so each run reports the time it computed and the
    // time assertion below can fail.
    match (&reference, db.run(query, ro)) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.result, b.result, "result diverged for {query:?}");
            assert_eq!(a.work, b.work, "work diverged for {query:?}");
            assert_eq!(a.time_ms, b.time_ms, "time diverged for {query:?}");
            assert_eq!(a.plan, b.plan, "plan diverged for {query:?}");
        }
        (Err(a), Err(b)) => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "error diverged");
        }
        (a, b) => panic!("the oracle and the pipeline disagree on failure: {a:?} vs {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random predicates, every hint-forced plan shape, every output kind —
    /// on small one-chunk tables with a dense keyword, and on 0-, 1-, 4,096-,
    /// 4,097-, 9,001- and 70,000-row tables with the keyword on every 2nd or
    /// every 97th row, so the posting-list keyword kernels (array containers,
    /// and at 70,000 rows a bitmap container followed by a partial second
    /// container), multi-chunk selections and the edge universes — no word,
    /// one word, exactly one chunk — run against the oracle. The edge
    /// tables run every hint mask. Heatmaps bin on the drawn grid and on one
    /// fixed shape, each on a table whose cell column holds another grid (so
    /// it bins by arithmetic) and on one whose column holds the heatmap's
    /// grid.
    #[test]
    fn compiled_matches_interpreter_across_plans(
        points in proptest::collection::vec((-120.0f64..-70.0, 25.0f64..48.0), 30..180),
        keyword_every in 2usize..6,
        size in 0usize..8,
        seed in 0u64..u64::MAX,
        sparse_keyword in 0u8..2,
        narrow in 0u8..2,
        mask in 0u32..8,
        t_hi in 1i64..900,
        score_hi in 1.0f64..40.0,
        lon_a in -125.0f64..-65.0,
        lon_w in 1.0f64..55.0,
        cols in 1u32..20,
        rows in 1u32..20,
        grid_pick in 0usize..4,
    ) {
        let (mut points, keyword_every) = match size {
            0 | 1 => (points, keyword_every),
            _ => (
                scatter([0, 1, 4096, 4097, 9001, 70_000][size - 2], seed),
                if sparse_keyword == 1 { 97 } else { 2 },
            ),
        };
        let masks = if (2..5).contains(&size) { 0..8 } else { mask..mask + 1 };
        // A viewport a few hundredths of a degree wide leaves a big table's
        // chunks few candidates, so the keyword's containers hold many more
        // ids than survive the other predicates.
        let lon_w = if narrow == 1 && size >= 2 { lon_w / 40.0 } else { lon_w };
        let rect = GeoRect::new(lon_a, 20.0, lon_a + lon_w, 50.0);
        plant_edge_points(&mut points, rect);
        let grids = [(cols, rows), FIXED_GRIDS[grid_pick]].map(|(c, r)| BinGrid::new(rect, c, r));
        let cold = build_db(&points, keyword_every);
        occupy_cells(&cold);
        let warm = grids.map(|grid| {
            let db = build_db(&points, keyword_every);
            warm_cells(&db, grid);
            db
        });
        // Timestamps are `5 × row`: scale the bound to the table.
        let t_hi = t_hi * (points.len() as i64).max(180) / 180;
        let base = Query::select("events")
            .filter(Predicate::keyword(3, "hot"))
            .filter(Predicate::time_range(1, 0, t_hi))
            .filter(Predicate::spatial_range(2, rect));
        for mask in masks {
            let ro = RewriteOption::hinted(HintSet::with_mask(mask));
            // Count output plus a residual-only numeric predicate.
            let count_q = base
                .clone()
                .filter(Predicate::numeric_range(4, 0.0, score_hi))
                .output(OutputKind::Count);
            assert_engines_agree(&cold, &count_q, &ro);
            // Scatterplot output.
            let points_q = base.clone().output(OutputKind::Points { id_attr: 0, point_attr: 2 });
            assert_engines_agree(&cold, &points_q, &ro);
            // Heatmap output (dense- or sparse-grid binning on the compiled
            // path, by arithmetic and from the cell column).
            for (grid, warm) in grids.into_iter().zip(&warm) {
                let heatmap_q = base.clone().output(OutputKind::BinnedCounts { point_attr: 2, grid });
                assert_engines_agree(&cold, &heatmap_q, &ro);
                assert_engines_agree(warm, &heatmap_q, &ro);
            }
        }
    }

    /// Approximation rules and row caps take the capped row-at-a-time path;
    /// the engines must stay identical there too.
    #[test]
    fn compiled_matches_interpreter_under_approx_and_limits(
        points in proptest::collection::vec((-120.0f64..-70.0, 25.0f64..48.0), 30..150),
        mask in 0u32..8,
        approx_pick in 0usize..4,
        limit in 1usize..80,
        t_hi in 1i64..700,
    ) {
        let db = build_db(&points, 3);
        let query = Query::select("events")
            .filter(Predicate::keyword(3, "hot"))
            .filter(Predicate::time_range(1, 0, t_hi))
            .output(OutputKind::Count)
            .limit(limit);
        let hints = HintSet::with_mask(mask);
        let ro = match approx_pick {
            0 => RewriteOption::hinted(hints),
            pick => {
                let permille = [1, 40, 250][pick - 1];
                RewriteOption::approximate(hints, ApproxRule::LimitPermille { permille })
            }
        };
        assert_engines_agree(&db, &query, &ro);
    }

    /// Join queries: the dimension predicates are compiled on the compiled
    /// engines (same `filter_evals` charges, same short-circuit order), so
    /// engines stay identical across plan shapes, join selectivities and caps.
    #[test]
    fn compiled_matches_interpreter_on_joins(
        points in proptest::collection::vec((-120.0f64..-70.0, 25.0f64..48.0), 30..150),
        mask in 0u32..8,
        users in 5usize..60,
        rank_hi in 1.0f64..25.0,
        t_hi in 1i64..900,
        limit in 0usize..50,
    ) {
        let mut db = build_db(&points, 3);
        register_users(&mut db, users);
        let mut query = Query::select("events")
            .filter(Predicate::keyword(3, "hot"))
            .filter(Predicate::time_range(1, 0, t_hi))
            .join_with(JoinSpec {
                right_table: "users".into(),
                left_attr: 0,
                right_attr: 0,
                right_predicates: vec![Predicate::numeric_range(1, 0.0, rank_hi)],
            })
            .output(OutputKind::Count);
        // `limit == 0` means uncapped; anything else exercises the capped path.
        if limit > 0 {
            query = query.limit(limit);
        }
        assert_engines_agree(&db, &query, &RewriteOption::hinted(HintSet::with_mask(mask)));
    }
}

/// `n` points scattered over the continental US by a fixed LCG: the pricing
/// law needs tables of exact sizes (chunk boundaries), not shrinkable vectors.
fn scatter(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut state = seed | 1;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| (-120.0 + 50.0 * unit(), 25.0 + 23.0 * unit()))
        .collect()
}

/// The indexes `Database::build_all_indexes` builds over [`build_table`]'s
/// columns, by hand, so `price_plans` and `execute` can be called on the same
/// [`ExecTable`] directly (`index_text = false` leaves the text column bare).
struct Indexes {
    btree: HashMap<usize, BPlusTree>,
    rtree: HashMap<usize, RTree>,
    inverted: HashMap<usize, InvertedIndex>,
}

impl Indexes {
    fn build(table: &Table, index_text: bool) -> Self {
        let rids = || 0..table.row_count() as RecordId;
        let mut btree = HashMap::new();
        for col in [0usize, 4] {
            let keys = rids().map(|r| (BPlusTree::float_key(table.numeric(col, r).unwrap()), r));
            btree.insert(col, BPlusTree::build(keys.collect()));
        }
        let stamps = rids().map(|r| (table.timestamp(1, r).unwrap(), r));
        btree.insert(1, BPlusTree::build(stamps.collect()));
        let points = rids().map(|r| (table.geo(2, r).unwrap(), r));
        let rtree = HashMap::from([(2, RTree::build(points.collect()))]);
        let mut inverted = HashMap::new();
        if index_text {
            let docs = table.text_docs(3).unwrap().docs();
            inverted.insert(3, InvertedIndex::from_docs(docs));
        }
        Self {
            btree,
            rtree,
            inverted,
        }
    }
}

/// Predicate kind `kind` of 14 over [`build_table`]'s columns, its bound placed
/// at fraction `u` of the column's span, so every mask source of the pricing
/// pass is drawn: a keyword missing from the dictionary, a numeric range over
/// the timestamp column (fractional, inverted and NaN bounds too), time
/// ranges reaching `i64::MIN` / `i64::MAX` or inverted, float ranges over
/// NaNs and duplicate keys, and rectangles holding more than half of
/// [`scatter`]'s points (wide slabs, read from the R-tree's prefix
/// checkpoints on a big table).
fn predicate_of(kind: usize, u: f64) -> Predicate {
    let at = (u * 50_000.0) as i64;
    let time = |start, end| Predicate::TimeRange {
        attr: 1,
        range: TimeRange { start, end },
    };
    let numeric = |attr, lo, hi| Predicate::NumericRange {
        attr,
        range: NumRange { lo, hi },
    };
    match kind {
        0 => Predicate::keyword(3, "hot"),
        1 => Predicate::keyword(3, "nosuchword"),
        2 => time(100, at),
        3 => {
            let lon = -125.0 + u * 60.0;
            Predicate::spatial_range(2, GeoRect::new(lon, 20.0, lon + 1.0 + u * 54.0, 50.0))
        }
        4 => numeric(0, 10.0, u * 9_500.0),
        5 => numeric(4, 2.0, u * 40.0),
        6 => numeric(1, 50.5, u * 50_000.0),
        7 => time(i64::MIN, at),
        8 => time(at, i64::MAX),
        9 => time(at + 10, at),
        10 => numeric(1, u * 50_000.0, u * 20_000.0),
        11 => numeric(1, f64::NAN, u * 50_000.0),
        12 => numeric(4, -0.0, u * 40.0),
        _ => {
            // At least 62% of the longitudes times 95% of the latitudes.
            let rect = GeoRect::new(-121.0 + u * 20.0, 24.0 + u * 2.0, -69.0, 50.0);
            Predicate::spatial_range(2, rect)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pricing law: for every exact rewrite of a join-free, uncapped
    /// query, the simulated time `execution_time_ms` reports from the shared
    /// lattice pass — asked first, or cached as another rewrite's sibling —
    /// is bit for bit the time of executing that rewrite, and
    /// `price_plans` reports `execute`'s `WorkProfile` field for field —
    /// whichever source (column kernel, index walk, prefix checkpoints) the
    /// pass took each predicate's mask from. The first rows of a big table sit
    /// at NaN coordinates (in neither of the R-tree's coordinate orders) and
    /// infinite ones (at their ends), on the
    /// grid's edges and outside it. Heatmaps bin on the drawn grid and on one
    /// fixed shape. With `warm`, the pricing side bins each from a cell
    /// column built for its grid, otherwise by arithmetic, and must still
    /// price what the executing side charges. The 70,000-row table puts the
    /// keyword on every 2nd row (a bitmap container, then a partial array
    /// one) or every 97th (two array containers). Without `follow_hints` the
    /// hint sets are unforced, so the law covers the planner's own choices.
    #[test]
    fn priced_time_equals_executed_time(
        size in 0usize..7,
        seed in 0u64..u64::MAX,
        keyword_every in 2usize..6,
        index_text in 0u8..2,
        follow_hints in 0u8..2,
        preds in proptest::collection::vec((0usize..14, 0.0f64..1.0), 0..5),
        cols in 1u32..20,
        grid_rows in 1u32..20,
        grid_pick in 0usize..4,
        warm in 0u8..2,
    ) {
        let rows = [0usize, 1, 4095, 4096, 4097, 9001, 70_000][size];
        let keyword_every = match (rows, keyword_every % 2) {
            (70_000, 0) => 2,
            (70_000, _) => 97,
            _ => keyword_every,
        };
        let (index_text, follow_hints, warm) = (index_text == 1, follow_hints == 1, warm == 1);
        let extent = GeoRect::new(-118.0, 27.0, -80.0, 45.0);
        let mut points = scatter(rows, seed);
        plant_edge_points(&mut points, extent);
        let table = build_table(&points, keyword_every);
        let indexes = Indexes::build(&table, index_text);
        let cold = ExecTable {
            table: &table,
            btree: &indexes.btree,
            rtree: &indexes.rtree,
            inverted: &indexes.inverted,
            cells: None,
        };
        let build = || {
            let mut db = Database::new(DbConfig::default());
            db.register_table(table.clone()).unwrap();
            for col in ["id", "when", "loc", "score"] {
                db.build_index("events", col).unwrap();
            }
            if index_text {
                db.build_index("events", "text").unwrap();
            }
            db
        };
        let executing = build();

        let mut base = Query::select("events");
        for &(kind, u) in &preds {
            base = base.filter(predicate_of(kind, u));
        }
        // Without `follow_hints`, every hint set is unforced, so each one is
        // planned by the planner's own choice, as `original()` is.
        let mut lattice = vec![RewriteOption::original()];
        lattice.extend(enumerate_hint_sets(&base).into_iter().map(|hints| {
            RewriteOption::hinted(HintSet { forced: follow_hints, ..hints })
        }));
        let heatmaps = [(cols, grid_rows), FIXED_GRIDS[grid_pick]].map(|(c, r)| {
            OutputKind::BinnedCounts { point_attr: 2, grid: BinGrid::new(extent, c, r) }
        });
        let outputs = [OutputKind::Count, OutputKind::Points { id_attr: 0, point_attr: 2 }];
        for output in outputs.into_iter().chain(heatmaps) {
            let pricing = build();
            match output {
                OutputKind::BinnedCounts { grid, .. } if warm => warm_cells(&pricing, grid),
                _ => occupy_cells(&pricing),
            }
            // Its first binning, the first pricing pass, builds the column.
            let slot = CellColumnSlot::new();
            let fact = ExecTable { cells: warm.then_some(&slot), ..cold };
            let query = base.clone().output(output);
            let executed: Vec<u64> = lattice
                .iter()
                .map(|ro| {
                    executing.clear_caches();
                    executing.run(&query, ro).unwrap().time_ms.to_bits()
                })
                .collect();
            for asked in &lattice {
                pricing.clear_caches();
                pricing.execution_time_ms(&query, asked).unwrap();
                for (ro, time) in lattice.iter().zip(&executed) {
                    let priced = pricing.execution_time_ms(&query, ro).unwrap();
                    prop_assert!(priced.to_bits() == *time, "{ro:?} after {asked:?}: {priced}");
                }
            }

            let plans: Vec<_> = lattice
                .iter()
                .map(|ro| pricing.plan(&query, ro).unwrap())
                .collect();
            let works = price_plans(&query, &plans, &fact).map(|p| p.works);
            prop_assert!(works.is_some(), "{query:?} was not priced");
            for (plan, work) in plans.iter().zip(works.iter().flatten()) {
                for exec_table in [&cold, &fact] {
                    let run = execute(&query, plan, exec_table, None, None).unwrap();
                    prop_assert_eq!(*work, run.work);
                }
            }
        }
    }
}

/// With the text column left unindexed the keyword binds no posting list, so
/// the pipeline fills and refines it from the documents: still the oracle's
/// bytes across plans and chunks.
#[test]
fn unindexed_keyword_matches_interpreter() {
    let db = build_db_with(&scatter(9001, 7), 2, false);
    let rect = GeoRect::new(-110.0, 20.0, -95.0, 50.0);
    let base = Query::select("events")
        .filter(Predicate::keyword(3, "hot"))
        .filter(Predicate::time_range(1, 0, 30_000))
        .filter(Predicate::spatial_range(2, rect));
    for mask in 0..8 {
        let ro = RewriteOption::hinted(HintSet::with_mask(mask));
        for output in [
            OutputKind::Count,
            OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            },
            OutputKind::BinnedCounts {
                point_attr: 2,
                grid: BinGrid::new(rect, 8, 8),
            },
        ] {
            let query = base.clone().output(output);
            assert_engines_agree(&db, &query, &ro);
        }
    }
}

/// The residual kinds an index plan may filter by its index's mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ResidualKind {
    Timestamp,
    TimestampNumeric,
    Int,
    Float,
    Rectangle,
}

/// The residuals the mask tests draw, per kind: wide ranges (read from the
/// prefix checkpoints), narrow ones (walked), NaN, `−0.0`, `±∞` and inverted
/// bounds, and rectangles that are slab-covered, walked, NaN-bounded or of
/// zero area (one on [`mask_db`]'s duplicated point, which has two wide
/// slabs, one on no point).
fn mask_residuals() -> Vec<(ResidualKind, Predicate)> {
    use ResidualKind::*;
    let nan = f64::NAN;
    let (neg_inf, inf) = (f64::NEG_INFINITY, f64::INFINITY);
    let time = |start, end| Predicate::TimeRange {
        attr: 1,
        range: TimeRange { start, end },
    };
    let numeric = |attr, lo, hi| Predicate::NumericRange {
        attr,
        range: NumRange { lo, hi },
    };
    let rect = |min_lon, min_lat, max_lon, max_lat| {
        Predicate::spatial_range(
            2,
            GeoRect {
                min_lon,
                min_lat,
                max_lon,
                max_lat,
            },
        )
    };
    vec![
        (Timestamp, time(0, 40_000)),
        (Timestamp, time(i64::MIN, 20_000)),
        (Timestamp, time(10_000, i64::MAX)),
        (Timestamp, time(100, 600)),
        (Timestamp, time(30_000, 100)),
        (TimestampNumeric, numeric(1, -0.0, 30_000.5)),
        (TimestampNumeric, numeric(1, neg_inf, inf)),
        (TimestampNumeric, numeric(1, 52.5, 9_001.5)),
        (TimestampNumeric, numeric(1, 100.0, 600.0)),
        (TimestampNumeric, numeric(1, nan, 30_000.0)),
        (TimestampNumeric, numeric(1, 40_000.0, 100.0)),
        (Int, numeric(0, -0.0, 6_000.0)),
        (Int, numeric(0, neg_inf, 3_000.0)),
        (Int, numeric(0, 0.0, inf)),
        (Int, numeric(0, 10.0, 100.0)),
        (Int, numeric(0, nan, 100.0)),
        (Int, numeric(0, 500.0, 10.0)),
        (Float, numeric(4, -0.0, 20.0)),
        (Float, numeric(4, neg_inf, inf)),
        (Float, numeric(4, 3.0, 3.0)),
        (Float, numeric(4, -0.0, -0.0)),
        (Float, numeric(4, 5.0, nan)),
        (Float, numeric(4, 30.0, 2.0)),
        (Rectangle, rect(-121.0, 24.0, -69.0, 50.0)),
        (Rectangle, rect(-110.0, 30.0, -80.0, 45.0)),
        (Rectangle, rect(neg_inf, neg_inf, inf, inf)),
        (Rectangle, rect(-115.0, 40.0, -114.0, 41.0)),
        (Rectangle, rect(-119.0, 40.0, -71.0, 40.2)),
        (Rectangle, rect(nan, 30.0, -80.0, 45.0)),
        (Rectangle, rect(-110.0, 30.0, -80.0, nan)),
        (Rectangle, rect(-100.0, 35.0, -100.0, 35.0)),
        (Rectangle, rect(-90.0, 30.0, -90.0, 30.0)),
        (Rectangle, rect(-80.0, 45.0, -110.0, 30.0)),
    ]
}

/// 9,001 rows — two full 4,096-row chunks and a partial one — with every
/// index and prefix checkpoints on each: NaN and infinite coordinates in the
/// first rows, and every 16th point at `(-100, 35)`.
fn mask_db() -> Database {
    let mut points = scatter(9_001, 23);
    plant_edge_points(&mut points, GeoRect::new(-118.0, 27.0, -80.0, 45.0));
    for point in points.iter_mut().skip(16).step_by(16) {
        *point = (-100.0, 35.0);
    }
    build_db(&points, 3)
}

/// Whether an index plan could read `pred`'s mask from its index's prefix
/// checkpoints — the scan's own rule, restated from the data: a B+-tree
/// range holding at least `⌈n/32⌉` entries, or a rectangle both of whose
/// slabs hold at least `⌈m/32⌉` of the `m` points with no NaN coordinate.
fn reads_checkpoints(db: &Database, pred: &Predicate) -> bool {
    let table = db.table("events").unwrap();
    let n = table.row_count();
    let Predicate::SpatialRange { rect, .. } = pred else {
        let matches = db.true_selectivity("events", pred).unwrap() * n as f64;
        return matches.round() as usize >= n.div_ceil(32);
    };
    let placed = placed_points(db);
    let slab = |coord: fn(&vizdb::types::GeoPoint) -> f64, lo: f64, hi: f64| {
        placed
            .iter()
            .filter(|p| lo <= coord(p) && coord(p) <= hi)
            .count()
    };
    let wide = placed.len().div_ceil(32);
    slab(|p| p.lon, rect.min_lon, rect.max_lon) >= wide
        && slab(|p| p.lat, rect.min_lat, rect.max_lat) >= wide
}

/// The points of [`mask_db`] the R-tree's axes hold: those with no NaN
/// coordinate.
fn placed_points(db: &Database) -> Vec<vizdb::types::GeoPoint> {
    let table = db.table("events").unwrap();
    (0..table.row_count() as RecordId)
        .map(|r| table.geo(2, r).unwrap())
        .filter(|p| !p.lon.is_nan() && !p.lat.is_nan())
        .collect()
}

/// The single-bit fix-ups of the rank interval `a..b` over `m` entries with
/// 16 checkpoints every `⌈m/16⌉` ranks: the ranks of `a..b` outside the
/// span between the checkpoints nearest `a` and `b`, plus the ranks of that
/// span outside `a..b` (no span when both round to one checkpoint).
fn fixups(a: usize, b: usize, m: usize) -> usize {
    let step = m.div_ceil(16);
    let nearest = |r: usize| ((r + step / 2) / step).min(16);
    let (ja, jb) = (nearest(a), nearest(b));
    let (lo, hi) = if ja < jb {
        (ja * step, (jb * step).min(m))
    } else {
        (a, a)
    };
    let overlap = b.min(hi).saturating_sub(a.max(lo));
    (b - a) + (hi - lo) - 2 * overlap
}

/// What ANDing `pred`'s checkpoint mask into [`mask_db`]'s candidates costs,
/// as the executor's rule prices it (`exec/compiled.rs`: a probe costs 8, a
/// word of a checkpoint pass 1, a fix-up 3), restated from the data:
/// `(expected, exact)`, where `expected` takes `⌈m/32⌉` fix-ups per span —
/// what the rank search is skipped on — and `exact` the fix-ups the spans
/// really need. One span for a B+-tree range over all `n` rows, whose ranks
/// start after the rows keyed below it (a `-NaN` float keys below every
/// number); two for a rectangle's slabs over the placed points.
fn mask_costs(db: &Database, pred: &Predicate) -> (usize, usize) {
    let table = db.table("events").unwrap();
    let n = table.row_count();
    let words = n.div_ceil(64);
    let cost = |spans: usize, fixups: usize| spans * words + 3 * fixups;
    let (spans, m, exact) = match pred {
        Predicate::SpatialRange { rect, .. } => {
            let placed = placed_points(db);
            let m = placed.len();
            let slab = |coord: fn(&vizdb::types::GeoPoint) -> f64, lo: f64, hi: f64| {
                let a = placed.iter().filter(|p| coord(p) < lo).count();
                let b = placed.iter().filter(|p| coord(p) <= hi).count();
                fixups(a, b.max(a), m)
            };
            let exact = slab(|p| p.lon, rect.min_lon, rect.max_lon)
                + slab(|p| p.lat, rect.min_lat, rect.max_lat);
            (2, m, exact)
        }
        _ => {
            let below = |r: RecordId| match pred {
                Predicate::TimeRange { attr, range } => {
                    table.timestamp(*attr, r).unwrap() < range.start
                }
                Predicate::NumericRange { attr, range } => {
                    let v = table.numeric(*attr, r).unwrap();
                    (v.is_nan() && v.is_sign_negative()) || v < range.lo
                }
                _ => unreachable!("only ranges and rectangles have masks"),
            };
            let a = (0..n as RecordId).filter(|&r| below(r)).count();
            let matches = db.true_selectivity("events", pred).unwrap() * n as f64;
            (1, n, fixups(a, a + matches.round() as usize, n))
        }
    };
    (cost(spans, spans * m.div_ceil(32)), cost(spans, exact))
}

/// How an index plan applies one residual to its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResidualPath {
    /// ANDed in from its checkpoint mask.
    Masked,
    /// Probed per candidate after the rank search found the mask dearer.
    SearchedThenProbed,
    /// Probed per candidate with no rank search: the mask was expected to
    /// cost more, or its scan walks entries.
    Probed,
}

/// Every residual kind refines an index plan's candidates both ways — by
/// ANDing its index's checkpoint mask (the mask costs less than probing
/// the candidates) and by probing each candidate (the mask costs more, or
/// is expected to, or the index would walk a narrow, NaN or inverted
/// range) — and either way the pipeline returns the oracle's result,
/// `WorkProfile` and simulated time, capped or not. Which way each takes is
/// restated from the data ([`mask_costs`]), and at least one residual finds
/// the mask dearer only after its rank search. Row `r` of [`mask_db`] holds
/// timestamp `5r`, so the indexed predicate `when ≤ 5(k − 1)` fetches
/// exactly `k` candidates.
#[test]
fn residual_index_masks_match_the_interpreter() {
    let db = mask_db();
    let first_rows = |k: i64| Predicate::time_range(1, 0, 5 * (k - 1));
    let index_first = RewriteOption::hinted(HintSet::with_mask(1));
    // Binned rather than `Points`: a NaN coordinate would compare unequal to
    // itself.
    let outputs = [
        OutputKind::Count,
        OutputKind::BinnedCounts {
            point_attr: 2,
            grid: BinGrid::new(GeoRect::new(-121.0, 24.0, -69.0, 50.0), 128, 64),
        },
    ];
    let mut paths = HashMap::new();
    for (kind, residual) in mask_residuals() {
        let wide = reads_checkpoints(&db, &residual);
        let (expected, exact) = mask_costs(&db, &residual);
        // From half the rows down to a 1/150 of them: 250 and 130 fall
        // between the expected and the exact cost of a rectangle on the
        // duplicated point and of the unbounded float range.
        for k in [4_500i64, 500, 250, 130, 60] {
            let probing = k as usize * 8;
            let path = if !wide || probing < expected {
                ResidualPath::Probed
            } else if exact < probing {
                ResidualPath::Masked
            } else {
                ResidualPath::SearchedThenProbed
            };
            paths.entry(kind).or_insert_with(Vec::new).push(path);
            let base = Query::select("events")
                .filter(first_rows(k))
                .filter(residual.clone());
            for output in outputs {
                let query = base.clone().output(output);
                assert_eq!(db.plan(&query, &index_first).unwrap().index_preds, [0]);
                assert_engines_agree(&db, &query, &index_first);
                for limit in [40, 3_000] {
                    assert_engines_agree(&db, &query.clone().limit(limit), &index_first);
                }
            }
        }
    }
    for (kind, taken) in &paths {
        assert!(
            taken.contains(&ResidualPath::Masked),
            "{kind:?} never takes its mask"
        );
        assert!(
            taken.iter().any(|&p| p != ResidualPath::Masked),
            "{kind:?} never probes per bit"
        );
    }
    assert!(
        paths
            .values()
            .flatten()
            .any(|&p| p == ResidualPath::SearchedThenProbed),
        "no residual finds its mask dearer after the rank search"
    );
    assert!(
        paths.values().flatten().any(|&p| p == ResidualPath::Probed),
        "every residual searched"
    );

    // Several residuals: two masks ANDed in turn; a keyword probed before
    // them; a mask that leaves the survivors sparse, so the residuals after
    // it are probed; and two index scans whose AND is the candidate set.
    let wide_rect = Predicate::spatial_range(2, GeoRect::new(-110.0, 30.0, -80.0, 45.0));
    let plans: [(Vec<Predicate>, u32); 4] = [
        (
            vec![
                first_rows(6_000),
                Predicate::time_range(1, 0, 40_000),
                wide_rect.clone(),
            ],
            0b1,
        ),
        (
            vec![
                first_rows(6_000),
                Predicate::keyword(3, "hot"),
                Predicate::numeric_range(4, -0.0, 20.0),
                wide_rect.clone(),
            ],
            0b1,
        ),
        (
            vec![
                first_rows(6_000),
                Predicate::numeric_range(0, 0.0, 700.0),
                wide_rect.clone(),
                Predicate::numeric_range(4, -0.0, 20.0),
            ],
            0b1,
        ),
        (
            vec![
                first_rows(8_000),
                Predicate::numeric_range(0, 2_000.0, 9_000.0),
                wide_rect,
            ],
            0b11,
        ),
    ];
    for (preds, mask) in plans {
        let ro = RewriteOption::hinted(HintSet::with_mask(mask));
        for output in outputs {
            let mut query = Query::select("events").output(output);
            for pred in &preds {
                query = query.filter(pred.clone());
            }
            assert_engines_agree(&db, &query, &ro);
            assert_engines_agree(&db, &query.limit(100), &ro);
        }
    }
}

/// Queries of up to three predicates over [`mask_db`], each predicate also
/// counted by itself: B+-tree ranges with NaN, `−0.0` and `±∞` bounds (wide
/// ones read from the checkpoints, narrow ones walked), R-tree rectangles
/// over the planted NaN and infinite points (slab-covered and walked), and a
/// present and an absent keyword.
fn priced_selectivity_queries() -> Vec<Query> {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let groups = [
        vec![
            Predicate::numeric_range(4, nan, 20.0),
            Predicate::numeric_range(4, -0.0, 20.0),
            Predicate::numeric_range(4, -inf, inf),
        ],
        vec![
            Predicate::time_range(1, i64::MIN, 20_000),
            Predicate::numeric_range(0, -0.0, 6_000.0),
            Predicate::numeric_range(1, 100.0, 600.0),
        ],
        vec![
            Predicate::spatial_range(2, GeoRect::new(-inf, -inf, inf, inf)),
            Predicate::spatial_range(2, GeoRect::new(-110.0, 30.0, -80.0, 45.0)),
            Predicate::spatial_range(2, GeoRect::new(-115.0, 40.0, -114.0, 41.0)),
        ],
        vec![
            Predicate::keyword(3, "hot"),
            Predicate::keyword(3, "nosuchword"),
            Predicate::spatial_range(
                2,
                GeoRect {
                    min_lon: nan,
                    min_lat: 30.0,
                    max_lon: -80.0,
                    max_lat: 45.0,
                },
            ),
        ],
    ];
    groups
        .into_iter()
        .map(|preds| {
            let mut query = Query::select("events").output(OutputKind::Count);
            for pred in preds {
                query = query.filter(pred);
            }
            query
        })
        .collect()
}

/// Pricing a query's hint lattice caches each predicate's true selectivity
/// from the pass's own counts: afterwards `true_selectivity` of every
/// predicate is a cache hit (the entry count does not grow), and its value is
/// a cold database's, bit for bit — on a `Database` and on a 4-shard mirror
/// (`weighted_selectivity` over the shards, a hit wherever the query was
/// routed to every shard). Nothing is recorded when the pass does not run:
/// a mistyped predicate still errors and leaves no entry, and an empty table
/// prices but records nothing.
#[test]
fn priced_lattices_cache_true_selectivities() {
    let db = mask_db();
    let cold = mask_db();
    for query in priced_selectivity_queries() {
        db.clear_caches();
        db.execution_time_ms(&query, &RewriteOption::original())
            .unwrap();
        let (_, entries) = db.cache_entry_counts();
        assert!(entries > 0, "{query:?} recorded nothing");
        for pred in &query.predicates {
            let sel = db.true_selectivity("events", pred).unwrap();
            assert_eq!(db.cache_entry_counts().1, entries, "{pred:?} missed");
            cold.clear_caches();
            let want = cold.true_selectivity("events", pred).unwrap();
            assert_eq!(sel.to_bits(), want.to_bits(), "{pred:?}");
        }
    }

    // The mirror prices only the shards a query routes to: each predicate
    // alone, where one without a rectangle (or with the unbounded one)
    // routes to every shard.
    let mirror = vizdb::ShardedBackendBuilder::mirror(&db, 4).unwrap();
    let cold_mirror = vizdb::ShardedBackendBuilder::mirror(&db, 4).unwrap();
    let mut everywhere = 0;
    for pred in priced_selectivity_queries()
        .iter()
        .flat_map(|q| q.predicates.clone())
    {
        let query = Query::select("events")
            .filter(pred.clone())
            .output(OutputKind::Count);
        mirror.clear_caches();
        mirror
            .execution_time_ms(&query, &RewriteOption::original())
            .unwrap();
        let (_, entries) = mirror.cache_entry_counts();
        let sel = mirror.true_selectivity("events", &pred).unwrap();
        let routed_everywhere = match &pred {
            Predicate::SpatialRange { rect, .. } => rect.min_lon == f64::NEG_INFINITY,
            _ => true,
        };
        if routed_everywhere {
            assert_eq!(mirror.cache_entry_counts().1, entries, "{pred:?} missed");
            everywhere += 1;
        }
        cold_mirror.clear_caches();
        let want = cold_mirror.true_selectivity("events", &pred).unwrap();
        assert_eq!(sel.to_bits(), want.to_bits(), "{pred:?} on the mirror");
    }
    assert!(everywhere >= 8);

    let mistyped = Query::select("events")
        .filter(Predicate::keyword(3, "hot"))
        .filter(Predicate::time_range(3, 0, 10))
        .output(OutputKind::Count);
    db.clear_caches();
    assert!(db
        .execution_time_ms(&mistyped, &RewriteOption::original())
        .is_err());
    assert_eq!(db.cache_entry_counts().1, 0);
    assert!(db
        .true_selectivity("events", &mistyped.predicates[1])
        .is_err());

    let empty = build_db(&[], 3);
    let query = &priced_selectivity_queries()[0];
    empty
        .execution_time_ms(query, &RewriteOption::original())
        .unwrap();
    let (times, sels) = empty.cache_entry_counts();
    assert!(times > 0, "the empty table's lattice was not priced");
    assert_eq!(sels, 0);
}

/// A numeric range over a timestamp column selects the same rows under every
/// rewrite: its B+-tree is keyed by raw timestamps, so the index scan probes
/// the integer interval inside the bounds (fractional, negative, NaN and
/// saturating bounds included), and `true_selectivity` counts it the same way.
#[test]
fn numeric_range_over_timestamps_is_hint_invariant() {
    let db = build_db(&scatter(4500, 3), 3);
    let table = db.table("events").unwrap();
    let all: Vec<RecordId> = (0..table.row_count() as RecordId).collect();
    let ranges = [
        (50.0, 9_000.0),
        (52.5, 9_001.5),
        (-1e300, 7.0),
        (4_000.0, 1e300),
        (f64::NEG_INFINITY, f64::INFINITY),
        (3.2, 3.7),
        (f64::NAN, 100.0),
        (100.0, f64::NAN),
    ];
    for (lo, hi) in ranges {
        let range = NumRange { lo, hi };
        let pred = Predicate::NumericRange { attr: 1, range };
        let query = Query::select("events")
            .filter(pred.clone())
            .filter(Predicate::keyword(3, "hot"))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            });
        let scanned = db
            .run(&query, &RewriteOption::hinted(HintSet::with_mask(0)))
            .unwrap();
        assert!(scanned.plan.index_preds.is_empty());
        for mask in 0..4 {
            let ro = RewriteOption::hinted(HintSet::with_mask(mask));
            assert_engines_agree(&db, &query, &ro);
            let run = db.run(&query, &ro).unwrap();
            assert_eq!(run.result, scanned.result, "[{lo}, {hi}] mask {mask}");
        }
        let matching = probe_oracle(table, &pred, &all).unwrap();
        assert_eq!(
            db.true_selectivity("events", &pred).unwrap(),
            matching as f64 / all.len() as f64,
            "[{lo}, {hi}]"
        );
    }
}

/// A predicate mistyped for its indexed column — a time range over an Int
/// (B+-tree keyed by `float_key`, not by raw timestamps) or a Float, a
/// keyword over a timestamp, a rectangle over an Int, a numeric range over
/// points or text — is answered by no index. So every hint set gives what
/// the forced scan gives: a `TypeMismatch`, on a populated table and on an
/// empty one alike; both selectivity probes and the time oracle fail with
/// it. No index plan may count the time range over `float_key`s as raw
/// timestamps.
#[test]
fn mistyped_predicates_on_indexed_columns_are_hint_invariant() {
    let build = |rows: i64| {
        let schema = TableSchema::new("t")
            .with_column("n", ColumnType::Int)
            .with_column("x", ColumnType::Float)
            .with_column("when", ColumnType::Timestamp)
            .with_column("loc", ColumnType::Geo)
            .with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(|row| {
                row.set_int("n", i);
                row.set_float("x", i as f64);
                row.set_timestamp("when", i);
                row.set_geo("loc", i as f64 / 10.0, 0.0);
                row.set_text("text", &["w"]);
            });
        }
        let mut db = Database::new(DbConfig::default());
        db.register_table(b.build()).unwrap();
        db.build_all_indexes("t").unwrap();
        db.build_sample("t", 10).unwrap();
        db
    };
    let mistyped = [
        Predicate::time_range(0, 0, 499),
        Predicate::time_range(1, 0, 499),
        Predicate::keyword(2, "w"),
        Predicate::spatial_range(0, GeoRect::new(0.0, -1.0, 10.0, 1.0)),
        Predicate::numeric_range(3, 0.0, 10.0),
        Predicate::numeric_range(4, 0.0, 10.0),
    ];
    for rows in [1000, 0] {
        let db = build(rows);
        for pred in &mistyped {
            let query = Query::select("t")
                .filter(pred.clone())
                .output(OutputKind::Count);
            let scan = RewriteOption::hinted(HintSet::with_mask(0));
            let expected = db.run(&query, &scan).map(|out| out.result);
            assert!(
                matches!(expected, Err(vizdb::Error::TypeMismatch { .. })),
                "{pred:?} on {rows} rows: {expected:?}"
            );
            let rewrites = [
                RewriteOption::original(),
                scan,
                RewriteOption::hinted(HintSet::with_mask(1)),
            ];
            for ro in &rewrites {
                let run = db.run(&query, ro).map(|out| out.result);
                assert_eq!(run, expected, "{pred:?} {ro:?}");
                let reference = db.run_reference(&query, ro).map(|out| out.result);
                assert_eq!(reference, expected, "{pred:?} {ro:?}");
                let time = db.execution_time_ms(&query, ro).map(|_| ());
                assert_eq!(time.err(), expected.clone().err(), "{pred:?} {ro:?}");
            }
            let error = expected.as_ref().err().cloned();
            assert_eq!(db.true_selectivity("t", pred).err(), error, "{pred:?}");
            assert_eq!(
                db.sample_selectivity("t", pred, 10).err(),
                error,
                "{pred:?}"
            );
        }
    }
}

/// A point with a NaN coordinate lies in no rectangle, so every plan, the
/// index-counted selectivity, the 4-shard backend and the pricing pass's
/// R-tree mask leave it out. (`GeoRect::extend` skips NaN, so an R-tree leaf
/// holding the point would get an MBR without it and hand its id out with
/// the rest of a contained leaf.)
#[test]
fn nan_coordinate_is_in_no_rectangle() {
    let mut points: Vec<(f64, f64)> = (0..1000)
        .map(|i| (-120.0 + i as f64 * 0.01, 34.0))
        .collect();
    points[5] = (f64::NAN, 34.0);
    let db = build_db(&points, 3);
    let mut sharded = ShardedBackend::builder(DbConfig::default(), 4);
    sharded.register_table(db.table("events").unwrap()).unwrap();
    sharded.build_all_indexes("events").unwrap();
    let sharded = sharded.build();
    // Every point but the NaN one; then a narrower rectangle whose leaves
    // hold the NaN point. (Below 4,096 rows the R-tree keeps no checkpoints,
    // so both walk the tree; `rtree::tests::proptests` draw NaN points
    // against the checkpoint path.)
    for (rect, expected) in [
        (GeoRect::new(-121.0, 33.0, -100.0, 35.0), 999),
        (GeoRect::new(-121.0, 33.0, -117.005, 35.0), 299),
    ] {
        let pred = Predicate::spatial_range(2, rect);
        let query = Query::select("events")
            .filter(pred.clone())
            .output(OutputKind::Count);
        let selectivity = expected as f64 / 1000.0;
        assert_eq!(db.true_selectivity("events", &pred).unwrap(), selectivity);
        assert_eq!(
            sharded.true_selectivity("events", &pred).unwrap(),
            selectivity
        );
        for mask in [0, 1] {
            let ro = RewriteOption::hinted(HintSet::with_mask(mask));
            let count = vizdb::exec::QueryResult::Count(expected);
            assert_eq!(db.run(&query, &ro).unwrap().result, count, "mask {mask}");
            assert_eq!(db.run_reference(&query, &ro).unwrap().result, count);
            assert_eq!(sharded.run(&query, &ro).unwrap().result, count);
            db.clear_caches();
            let executed = db.run(&query, &ro).unwrap().time_ms;
            db.clear_caches();
            assert_eq!(db.execution_time_ms(&query, &ro).unwrap(), executed);
        }
    }
}

/// A point with a NaN coordinate lies in no heatmap cell either. With no
/// spatial predicate to drop it first, the pipeline's dense and sparse
/// binning, the reference's binning and the pricing pass all leave it
/// uncounted. (The extent test used to fail none of its compares on NaN, so
/// the point landed in column / row 0.)
#[test]
fn nan_coordinate_is_in_no_cell() {
    let mut points: Vec<(f64, f64)> = (0..1000)
        .map(|i| (-120.0 + (i % 40) as f64, 25.0 + (i % 20) as f64))
        .collect();
    points[1] = (f64::NAN, 30.0);
    points[2] = (-110.0, f64::NAN);
    points[3] = (f64::NAN, f64::NAN);
    let db = build_db(&points, 3);
    // Column 0 of either grid lies west of every real point.
    let extent = GeoRect::new(-130.0, 25.0, -81.0, 44.0);
    for grid in [BinGrid::new(extent, 8, 8), BinGrid::new(extent, 100, 100)] {
        let query = Query::select("events")
            .filter(Predicate::time_range(1, 0, 10_000))
            .output(OutputKind::BinnedCounts {
                point_attr: 2,
                grid,
            });
        for mask in [0, 1] {
            let ro = RewriteOption::hinted(HintSet::with_mask(mask));
            assert_engines_agree(&db, &query, &ro);
            let run = db.run(&query, &ro).unwrap();
            let vizdb::exec::QueryResult::Bins(bins) = &run.result else {
                panic!("{:?}", run.result);
            };
            assert_eq!(bins.iter().map(|&(_, n)| n).sum::<u64>(), 997, "{grid:?}");
            assert!(
                bins.iter().all(|&(bin, _)| bin % grid.cols != 0),
                "{bins:?}"
            );
            db.clear_caches();
            let priced = db.execution_time_ms(&query, &ro).unwrap();
            assert_eq!(priced.to_bits(), run.time_ms.to_bits(), "mask {mask}");
        }
    }
}

/// `Query::limit(0)` renders `LIMIT 0` and must mean it: an empty result with
/// zero rows visited, on the oracle and on the pipeline alike. (It used to be
/// clamped to a cap of one row and charge that row's scan.)
#[test]
fn limit_zero_returns_nothing_and_visits_no_row() {
    let db = build_db(&scatter(9_000, 11), 3);
    let base = Query::select("events")
        .filter(Predicate::keyword(3, "hot"))
        .limit(0);
    let points = base.clone().output(OutputKind::Points {
        id_attr: 0,
        point_attr: 2,
    });
    let bins = base.clone().output(OutputKind::BinnedCounts {
        point_attr: 2,
        grid: BinGrid::new(GeoRect::new(-121.0, 20.0, -70.0, 50.0), 16, 16),
    });
    let count = base.output(OutputKind::Count);
    // Both a sequential-scan plan and an index plan.
    for mask in [0u32, 1] {
        let ro = RewriteOption::hinted(HintSet::with_mask(mask));
        for query in [&points, &bins, &count] {
            assert_engines_agree(&db, query, &ro);
            let out = db.run(query, &ro).unwrap();
            assert!(out.result.is_empty(), "{query:?}");
            assert_eq!(out.work.seq_rows, 0);
            assert_eq!(out.work.heap_fetches, 0);
            assert_eq!(out.work.filter_evals, 0);
        }
    }
}

/// A type-mismatched predicate, or one past the schema, cannot compile. The
/// query is checked before either engine touches a row, so the pipeline and
/// the oracle raise the identical typed error; nothing falls back.
#[test]
fn uncompilable_predicates_fall_back_identically() {
    let db = build_db(&[(-100.0, 30.0), (-99.0, 31.0)], 2);
    let ro = RewriteOption::original();
    // Numeric range over the text column.
    let bad = Query::select("events")
        .filter(Predicate::numeric_range(3, 0.0, 1.0))
        .output(OutputKind::Count);
    assert_engines_agree(&db, &bad, &ro);
    let err = db.run(&bad, &ro).unwrap_err();
    assert!(matches!(err, vizdb::Error::TypeMismatch { .. }), "{err:?}");
    // Out-of-range attribute.
    let oob = Query::select("events")
        .filter(Predicate::time_range(17, 0, 10))
        .output(OutputKind::Count);
    assert_engines_agree(&db, &oob, &ro);
    assert_eq!(
        db.run(&oob, &ro).unwrap_err(),
        vizdb::Error::InvalidAttribute(17)
    );
}

/// An uncompilable dimension predicate is rejected like a fact one: the
/// pipeline and the oracle raise the identical error for the join.
#[test]
fn uncompilable_join_predicates_fall_back_identically() {
    let mut db = build_db(&[(-100.0, 30.0), (-99.0, 31.0), (-98.0, 32.0)], 2);
    register_users(&mut db, 10);
    let q = Query::select("events")
        .filter(Predicate::time_range(1, 0, 1000))
        .join_with(JoinSpec {
            right_table: "users".into(),
            left_attr: 0,
            right_attr: 0,
            // Attribute 17 does not exist on `users`.
            right_predicates: vec![Predicate::numeric_range(17, 0.0, 1.0)],
        })
        .output(OutputKind::Count);
    let ro = RewriteOption::original();
    assert_engines_agree(&db, &q, &ro);
    assert_eq!(
        db.run(&q, &ro).unwrap_err(),
        vizdb::Error::InvalidAttribute(17)
    );
}

/// An uncompilable join-side predicate and an uncompilable fact predicate
/// take the same path: the query check rejects each with the oracle's error,
/// on a populated table and on an empty one alike — an empty scan does not
/// turn a malformed query into an empty answer.
#[test]
fn fact_and_join_side_fallbacks_are_the_same_path() {
    let join = |fact_pred: Predicate, right_pred: Predicate| {
        Query::select("events")
            .filter(fact_pred)
            .join_with(JoinSpec {
                right_table: "users".into(),
                left_attr: 0,
                right_attr: 0,
                right_predicates: vec![right_pred],
            })
            .output(OutputKind::Count)
    };
    let bad_join = join(
        Predicate::time_range(1, 0, 1000),
        Predicate::numeric_range(17, 0.0, 1.0),
    );
    let bad_fact = join(
        Predicate::numeric_range(17, 0.0, 1.0),
        Predicate::numeric_range(1, 0.0, 100.0),
    );
    let ro = RewriteOption::original();
    let points = [(-100.0, 30.0), (-99.0, 31.0), (-98.0, 32.0)];
    for rows in [&points[..], &[]] {
        let mut db = build_db(rows, 2);
        register_users(&mut db, 10);
        for query in [&bad_join, &bad_fact] {
            assert_engines_agree(&db, query, &ro);
            let err = db.run(query, &ro).unwrap_err();
            assert_eq!(err, db.run_reference(query, &ro).unwrap_err());
            assert_eq!(
                err,
                vizdb::Error::InvalidAttribute(17),
                "{} rows",
                rows.len()
            );
        }
    }
}

/// One hostile-query matrix. Each malformed query — a mistyped fact
/// predicate, an attribute past the schema, a mistyped join-side predicate, a
/// non-`Int` join key, a non-`Int` id column, a non-`Geo` point column — is
/// checked before any engine touches a row. So `run`, `run_reference`,
/// `execution_time_ms`, a 4-shard `ShardedBackend::run` and, for a predicate,
/// both selectivity probes (unsharded and sharded) all return one typed error
/// on every shape: a populated table under a scan and under the planner's own
/// plan, an empty table, `LIMIT 0`, and an index plan whose scan finds no
/// candidate. None answers empty, none panics.
#[test]
fn malformed_queries_are_one_error_on_every_entry_point_and_shape() {
    let build = |points: &[(f64, f64)]| {
        let mut db = build_db(points, 3);
        register_users(&mut db, 10);
        db.build_sample("users", 20).unwrap();
        let sharded = vizdb::ShardedBackendBuilder::mirror(&db, 4).unwrap();
        (db, sharded)
    };
    let (populated, empty) = (build(&scatter(2_000, 5)), build(&[]));
    let keyword = || Query::select("events").filter(Predicate::keyword(3, "hot"));
    // No row has a negative timestamp, so indexing predicate 0 scans no
    // candidate.
    let no_candidates = Query::select("events")
        .filter(Predicate::time_range(1, -100, -50))
        .filter(Predicate::keyword(3, "hot"));
    let first_index = RewriteOption::hinted(HintSet::with_mask(1));
    assert_eq!(
        populated
            .0
            .plan(&no_candidates, &first_index)
            .unwrap()
            .index_preds,
        [0]
    );
    let shapes = [
        (
            "populated, scanned",
            &populated,
            keyword(),
            RewriteOption::hinted(HintSet::with_mask(0)),
        ),
        (
            "populated, own plan",
            &populated,
            keyword(),
            RewriteOption::original(),
        ),
        ("empty", &empty, keyword(), RewriteOption::original()),
        (
            "LIMIT 0",
            &populated,
            keyword().limit(0),
            RewriteOption::original(),
        ),
        (
            "no index candidates",
            &populated,
            no_candidates,
            first_index,
        ),
    ];

    let mistyped_join = Predicate::keyword(1, "hot");
    let join = JoinSpec {
        right_table: "users".into(),
        left_attr: 0,
        right_attr: 0,
        right_predicates: vec![mistyped_join.clone()],
    };
    let timestamp_key = JoinSpec {
        left_attr: 1,
        right_predicates: Vec::new(),
        ..join.clone()
    };
    let grid = BinGrid::new(GeoRect::new(-121.0, 20.0, -70.0, 50.0), 16, 16);
    let filtered = |pred: &Predicate| {
        let pred = pred.clone();
        move |q: Query| q.filter(pred.clone()).output(OutputKind::Count)
    };
    let output = |output: OutputKind| move |q: Query| q.output(output);
    let (mistyped, past_schema) = (
        Predicate::numeric_range(3, 0.0, 1.0),
        Predicate::time_range(17, 0, 10),
    );
    type Malform<'a> = Box<dyn Fn(Query) -> Query + 'a>;
    let cases: Vec<(Malform, Option<(&str, &Predicate)>)> = vec![
        (Box::new(filtered(&mistyped)), Some(("events", &mistyped))),
        (
            Box::new(filtered(&past_schema)),
            Some(("events", &past_schema)),
        ),
        (
            Box::new(|q: Query| q.join_with(join.clone()).output(OutputKind::Count)),
            Some(("users", &mistyped_join)),
        ),
        (
            Box::new(|q: Query| q.join_with(timestamp_key.clone()).output(OutputKind::Count)),
            None,
        ),
        (
            Box::new(output(OutputKind::Points {
                id_attr: 1,
                point_attr: 2,
            })),
            None,
        ),
        (
            Box::new(output(OutputKind::Points {
                id_attr: 0,
                point_attr: 4,
            })),
            None,
        ),
        (
            Box::new(output(OutputKind::BinnedCounts {
                point_attr: 4,
                grid,
            })),
            None,
        ),
    ];

    for (malform, probe) in &cases {
        let mut seen: Option<vizdb::Error> = None;
        let mut expect = |what: String, got: vizdb::Result<()>| {
            let err = got.expect_err(&what);
            let first = seen.get_or_insert_with(|| err.clone());
            assert_eq!(&err, first, "{what}");
            let typed = matches!(
                err,
                vizdb::Error::TypeMismatch { .. } | vizdb::Error::InvalidAttribute(17)
            );
            assert!(typed, "{what}: {err:?}");
        };
        for (shape, (db, sharded), base, ro) in &shapes {
            let query = malform(base.clone());
            let at = |entry: &str| format!("{entry} on {shape}: {query:?}");
            expect(at("run"), db.run(&query, ro).map(drop));
            expect(at("run_reference"), db.run_reference(&query, ro).map(drop));
            expect(
                at("execution_time_ms"),
                db.execution_time_ms(&query, ro).map(drop),
            );
            expect(at("4-shard run"), sharded.run(&query, ro).map(drop));
            let Some((table, pred)) = probe else {
                continue;
            };
            let backends: [(&str, &dyn QueryBackend); 2] = [("", db), ("4-shard ", sharded)];
            for (name, backend) in backends {
                let truth = backend.true_selectivity(table, pred).map(drop);
                expect(at(&format!("{name}true_selectivity")), truth);
                let sampled = backend.sample_selectivity(table, pred, 20).map(drop);
                expect(at(&format!("{name}sample_selectivity")), sampled);
            }
        }
    }
}

/// Unknown keywords compile to an always-false predicate — same empty result on
/// both engines, same work accounting.
#[test]
fn unknown_keyword_is_identical_on_both_engines() {
    let db = build_db(&[(-100.0, 30.0), (-99.0, 31.0), (-98.0, 32.0)], 2);
    let q = Query::select("events")
        .filter(Predicate::keyword(3, "nosuchword"))
        .output(OutputKind::Count);
    for mask in [0u32, 1] {
        assert_engines_agree(&db, &q, &RewriteOption::hinted(HintSet::with_mask(mask)));
    }
}

/// The reference count of a selectivity probe: the interpreter's row loop,
/// written against the table's checked per-row accessors.
fn probe_oracle(table: &Table, pred: &Predicate, rows: &[RecordId]) -> vizdb::Result<usize> {
    let mut count = 0;
    for &rid in rows {
        let matched = match pred {
            Predicate::KeywordContains { attr, keyword } => {
                match table.dictionary().lookup(keyword) {
                    Some(token) => table.text_contains(*attr, rid, token)?,
                    None => false,
                }
            }
            Predicate::TimeRange { attr, range } => range.contains(table.timestamp(*attr, rid)?),
            Predicate::NumericRange { attr, range } => range.contains(table.numeric(*attr, rid)?),
            Predicate::SpatialRange { attr, rect } => rect.contains(&table.geo(*attr, rid)?),
        };
        count += matched as usize;
    }
    Ok(count)
}

/// Both selectivity probes — the sample `count(*)` of the Approximate-QTE and
/// the full-table count behind `true_selectivity` on an unindexed column — run
/// on the compiled count kernel. Counts are integers, so each selectivity must
/// equal the oracle's bit for bit; a predicate that cannot be lowered must
/// raise the oracle's error, and raise it over no rows too.
#[test]
fn selectivity_probes_match_the_reference_row_loop() {
    let points: Vec<(f64, f64)> = (0..400)
        .map(|i| (-120.0 + (i % 50) as f64, 25.0 + (i % 23) as f64))
        .collect();
    let mut db = Database::new(DbConfig::default());
    db.register_table(build_table(&points, 3)).unwrap();
    db.build_sample("events", 20).unwrap();
    let empty = build_db(&[], 3);

    let lowerable = [
        Predicate::keyword(3, "hot"),
        Predicate::keyword(3, "nosuchword"),
        Predicate::time_range(1, 100, 900),
        Predicate::spatial_range(2, GeoRect::new(-110.0, 28.0, -90.0, 40.0)),
        Predicate::numeric_range(0, 17.0, 203.5),
        Predicate::numeric_range(4, 3.0, 11.0),
        Predicate::numeric_range(1, 250.0, 1250.0),
    ];
    let table = db.table("events").unwrap();
    let sample = db.sample("events", 20).unwrap().row_ids();
    let all: Vec<RecordId> = (0..table.row_count() as RecordId).collect();
    assert_eq!(sample.len(), 80);
    for pred in &lowerable {
        let on_sample = probe_oracle(table, pred, sample).unwrap();
        assert_eq!(
            db.sample_selectivity("events", pred, 20).unwrap(),
            (on_sample as f64 / sample.len() as f64, sample.len()),
            "{pred:?}"
        );
        let on_table = probe_oracle(table, pred, &all).unwrap();
        assert_eq!(
            db.true_selectivity("events", pred).unwrap(),
            on_table as f64 / all.len() as f64,
            "{pred:?}"
        );
        assert_eq!(
            empty.sample_selectivity("events", pred, 20).unwrap(),
            (0.0, 0)
        );
        assert_eq!(empty.true_selectivity("events", pred).unwrap(), 0.0);
    }
    let matched = |pred: &Predicate| probe_oracle(table, pred, &all).unwrap();
    assert!(matched(&lowerable[0]) > 0 && matched(&lowerable[4]) > 0);
    assert_eq!(matched(&lowerable[1]), 0);

    // A numeric range over the text column and an attribute past the schema.
    for pred in [
        Predicate::numeric_range(3, 0.0, 1.0),
        Predicate::time_range(17, 0, 10),
    ] {
        let expected = probe_oracle(table, &pred, sample).unwrap_err();
        assert_eq!(
            db.sample_selectivity("events", &pred, 20).unwrap_err(),
            expected
        );
        assert_eq!(db.true_selectivity("events", &pred).unwrap_err(), expected);
        assert_eq!(
            empty.sample_selectivity("events", &pred, 20).unwrap_err(),
            expected
        );
        assert_eq!(
            empty.true_selectivity("events", &pred).unwrap_err(),
            expected
        );
    }
}
