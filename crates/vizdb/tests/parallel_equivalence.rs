//! Property test: the bitmap pipeline is byte-identical at every thread
//! count. For random tables, plan shapes, outputs, approximation rules, joins
//! and row caps, a run at 1, 2, 4 and 8 threads must produce the same
//! `QueryResult` bytes, the same exact `WorkProfile` (and therefore the same
//! simulated execution time) and the same plan as the database's own
//! single-threaded `run` — parallelism is a wall-clock speed-up, never a
//! semantic or accounting change.

use proptest::prelude::*;

use vizdb::approx::ApproxRule;
use vizdb::hints::{HintSet, RewriteOption};
use vizdb::query::{BinGrid, JoinSpec, OutputKind, Predicate, Query};
use vizdb::schema::{ColumnType, TableSchema};
use vizdb::sharded::ShardedBackend;
use vizdb::storage::{Table, TableBuilder};
use vizdb::types::GeoRect;
use vizdb::{Database, DbConfig, QueryBackend};

/// Thread counts every observable is pinned at. `1` exercises the degenerate
/// spawn-nothing path, `8` oversubscribes the morsel count on small tables.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn build_events(rows: usize, keyword_every: usize) -> Table {
    let schema = TableSchema::new("events")
        .with_column("id", ColumnType::Int)
        .with_column("when", ColumnType::Timestamp)
        .with_column("loc", ColumnType::Geo)
        .with_column("text", ColumnType::Text)
        .with_column("score", ColumnType::Float);
    let mut b = TableBuilder::new(schema);
    for i in 0..rows {
        b.push_row(|row| {
            row.set_int("id", i as i64);
            row.set_timestamp("when", i as i64 * 5);
            let lon = -120.0 + (i % 997) as f64 * 0.05;
            let lat = 25.0 + (i % 23) as f64;
            row.set_geo("loc", lon, lat);
            let unique = format!("u{i}");
            let words: Vec<&str> = if i % keyword_every.max(1) == 0 {
                vec!["hot", unique.as_str()]
            } else {
                vec!["cold", unique.as_str()]
            };
            row.set_text("text", &words);
            row.set_float("score", (i % 37) as f64);
        });
    }
    b.build()
}

fn build_users(n: usize) -> Table {
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
    b.build()
}

fn build_db(rows: usize, keyword_every: usize, users: Option<usize>) -> Database {
    let mut db = Database::new(DbConfig::default());
    db.register_table(build_events(rows, keyword_every))
        .unwrap();
    db.build_all_indexes("events").unwrap();
    db.build_sample("events", 20).unwrap();
    if let Some(n) = users {
        db.register_table(build_users(n)).unwrap();
        db.build_all_indexes("users").unwrap();
    }
    db
}

/// Runs `query` at every thread count and asserts full observational equality
/// against the default single-threaded `run` (or identical errors).
fn assert_parallel_matches(db: &Database, query: &Query, ro: &RewriteOption) {
    let sequential = db.run(query, ro);
    for threads in THREADS {
        // Drop the time cache so each run computes its own simulated time —
        // the time assertion below must be able to fail.
        db.clear_caches();
        let parallel = db.run_with_threads(query, ro, threads);
        match (&sequential, parallel) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.result, b.result,
                    "{threads}-thread result diverged for {query:?}"
                );
                assert_eq!(
                    a.work, b.work,
                    "{threads}-thread work diverged for {query:?}"
                );
                assert_eq!(
                    a.time_ms, b.time_ms,
                    "{threads}-thread time diverged for {query:?}"
                );
                assert_eq!(
                    a.plan, b.plan,
                    "{threads}-thread plan diverged for {query:?}"
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{threads}-thread error diverged"
                );
            }
            (a, b) => panic!(
                "one run failed where the other succeeded: {a:?} vs {b:?} ({threads} threads)"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random plan shapes and every output kind, uncapped.
    #[test]
    fn parallel_matches_sequential_across_plans(
        rows in 30usize..300,
        keyword_every in 2usize..6,
        mask in 0u32..8,
        t_hi in 1i64..1200,
        score_hi in 1.0f64..40.0,
        cols in 1u32..20,
        grid_rows in 1u32..20,
    ) {
        let db = build_db(rows, keyword_every, None);
        let rect = GeoRect::new(-121.0, 20.0, -70.0, 50.0);
        let base = Query::select("events")
            .filter(Predicate::keyword(3, "hot"))
            .filter(Predicate::time_range(1, 0, t_hi))
            .filter(Predicate::spatial_range(2, rect));
        let ro = RewriteOption::hinted(HintSet::with_mask(mask));
        let count_q = base
            .clone()
            .filter(Predicate::numeric_range(4, 0.0, score_hi))
            .output(OutputKind::Count);
        assert_parallel_matches(&db, &count_q, &ro);
        let points_q = base.clone().output(OutputKind::Points { id_attr: 0, point_attr: 2 });
        assert_parallel_matches(&db, &points_q, &ro);
        let heatmap_q = base.output(OutputKind::BinnedCounts {
            point_attr: 2,
            grid: BinGrid::new(rect, cols, grid_rows),
        });
        assert_parallel_matches(&db, &heatmap_q, &ro);
    }

    /// Row caps and sampling approximations: the capped paths run morsels
    /// speculatively and cut in order, the sampled paths take the slice/stream
    /// entry points — all must stay bit-exact.
    #[test]
    fn parallel_matches_sequential_under_approx_and_limits(
        rows in 30usize..250,
        mask in 0u32..8,
        approx_pick in 0usize..4,
        limit in 1usize..80,
        t_hi in 1i64..900,
    ) {
        let db = build_db(rows, 3, None);
        let query = Query::select("events")
            .filter(Predicate::keyword(3, "hot"))
            .filter(Predicate::time_range(1, 0, t_hi))
            .output(OutputKind::Count)
            .limit(limit);
        let hints = HintSet::with_mask(mask);
        let ro = match approx_pick {
            0 => RewriteOption::hinted(hints),
            1 => RewriteOption::approximate(hints, ApproxRule::SampleTable { fraction_pct: 20 }),
            2 => RewriteOption::approximate(hints, ApproxRule::TableSample { fraction_pct: 50 }),
            _ => RewriteOption::approximate(hints, ApproxRule::LimitPermille { permille: 250 }),
        };
        assert_parallel_matches(&db, &query, &ro);
    }

    /// Joins keep the compiled dimension-predicate path and the id-vector
    /// representation; the parallel engine must not perturb either.
    #[test]
    fn parallel_matches_sequential_on_joins(
        rows in 30usize..200,
        mask in 0u32..8,
        users in 5usize..60,
        rank_hi in 1.0f64..25.0,
        t_hi in 1i64..900,
        limit in 0usize..50,
    ) {
        let db = build_db(rows, 3, Some(users));
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
        if limit > 0 {
            query = query.limit(limit);
        }
        assert_parallel_matches(&db, &query, &RewriteOption::hinted(HintSet::with_mask(mask)));
    }
}

/// A table spanning many 4096-row chunks: morsel boundaries, chunk-aligned
/// splits and the in-order merge all get real multi-morsel work, including a
/// capped query whose cut crosses a morsel boundary mid-chunk.
#[test]
fn multi_morsel_table_is_bit_exact() {
    let db = build_db(12_500, 3, None);
    let ro = RewriteOption::original();
    let base = Query::select("events").filter(Predicate::keyword(3, "hot"));
    for (name, query) in [
        ("count", base.clone().output(OutputKind::Count)),
        (
            "points",
            base.clone().output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            }),
        ),
        (
            "bins",
            base.clone().output(OutputKind::BinnedCounts {
                point_attr: 2,
                grid: BinGrid::new(GeoRect::new(-121.0, 20.0, -70.0, 50.0), 16, 16),
            }),
        ),
        (
            "capped",
            base.clone().output(OutputKind::Count).limit(2_000),
        ),
        ("tight-cap", base.output(OutputKind::Count).limit(7)),
    ] {
        assert_parallel_matches(&db, &query, &ro);
        let _ = name;
    }
}

/// Queries selecting nothing: empty candidate bitmaps produce zero morsels,
/// and all-false predicates produce all-empty morsels. Both must merge to the
/// sequential empty result with identical accounting.
#[test]
fn empty_selections_are_bit_exact() {
    let db = build_db(6_000, 4, None);
    let ro = RewriteOption::original();
    // Unknown keyword: empty index candidates, zero refinement morsels.
    let unknown = Query::select("events")
        .filter(Predicate::keyword(3, "nosuchword"))
        .output(OutputKind::Count);
    assert_parallel_matches(&db, &unknown, &ro);
    assert_parallel_matches(&db, &unknown, &RewriteOption::hinted(HintSet::with_mask(1)));
    // All-false residual: every scan morsel qualifies nothing.
    let none = Query::select("events")
        .filter(Predicate::time_range(1, -100, -1))
        .output(OutputKind::Points {
            id_attr: 0,
            point_attr: 2,
        })
        .limit(10);
    assert_parallel_matches(&db, &none, &ro);
}

/// An uncompilable residual routes the parallel engine to the same sequential
/// interpreter fallback as the bitmap engine — identical errors included.
#[test]
fn uncompilable_predicates_fall_back_identically() {
    let db = build_db(100, 2, None);
    let bad = Query::select("events")
        .filter(Predicate::numeric_range(3, 0.0, 1.0))
        .output(OutputKind::Count);
    assert_parallel_matches(&db, &bad, &RewriteOption::original());
}

/// `DbConfig::exec_threads` selects the parallel engine for `Database::run`
/// and propagates through `ShardedBackend` to every shard and mirror: a
/// 4-thread sharded deployment must answer exactly like a sequential
/// single-node reference.
#[test]
fn exec_threads_config_propagates_through_sharded_backend() {
    let events = build_events(4_000, 3);
    let users = build_users(40);

    let mut reference = Database::new(DbConfig::default());
    reference.register_table(events.clone()).unwrap();
    reference.register_table(users.clone()).unwrap();
    reference.build_all_indexes("events").unwrap();
    reference.build_all_indexes("users").unwrap();

    let parallel_config = DbConfig {
        exec_threads: 4,
        ..DbConfig::default()
    };
    let mut builder = ShardedBackend::builder(parallel_config, 3);
    builder.register_table(&events).unwrap();
    builder.register_table(&users).unwrap();
    builder.build_all_indexes("events").unwrap();
    builder.build_all_indexes("users").unwrap();
    let backend = builder.build();

    let ro = RewriteOption::original();
    let scan = Query::select("events")
        .filter(Predicate::keyword(3, "hot"))
        .output(OutputKind::Count);
    let join = Query::select("events")
        .filter(Predicate::time_range(1, 0, 10_000))
        .join_with(JoinSpec {
            right_table: "users".into(),
            left_attr: 0,
            right_attr: 0,
            right_predicates: vec![Predicate::numeric_range(1, 0.0, 20.0)],
        })
        .output(OutputKind::Count);
    for q in [&scan, &join] {
        assert_eq!(
            reference.run(q, &ro).unwrap().result,
            backend.run(q, &ro).unwrap().result,
            "sharded parallel run diverged for {q:?}"
        );
    }

    // And directly on a single parallel-configured database: `run` picks the
    // parallel engine and must match the sequential reference bit for bit.
    let mut par_db = Database::new(DbConfig {
        exec_threads: 8,
        ..DbConfig::default()
    });
    par_db.register_table(events).unwrap();
    par_db.build_all_indexes("events").unwrap();
    let a = reference.run(&scan, &ro).unwrap();
    let b = par_db.run(&scan, &ro).unwrap();
    assert_eq!(a.result, b.result);
    assert_eq!(a.work, b.work);
    assert_eq!(a.time_ms, b.time_ms);
}

/// `exec_threads: 0` is not a distinct mode: like `1` it runs every kernel
/// once, sequentially, on the calling thread.
#[test]
fn zero_exec_threads_behaves_exactly_as_one() {
    let events = build_events(9_000, 3);
    let build = |exec_threads: usize| {
        let mut db = Database::new(DbConfig {
            exec_threads,
            ..DbConfig::default()
        });
        db.register_table(events.clone()).unwrap();
        db.build_all_indexes("events").unwrap();
        db.build_sample("events", 20).unwrap();
        db
    };
    let (zero, one) = (build(0), build(1));
    let base = Query::select("events").filter(Predicate::keyword(3, "hot"));
    let heatmap = base.clone().output(OutputKind::BinnedCounts {
        point_attr: 2,
        grid: BinGrid::new(GeoRect::new(-121.0, 20.0, -70.0, 50.0), 16, 16),
    });
    let capped = base
        .output(OutputKind::Points {
            id_attr: 0,
            point_attr: 2,
        })
        .limit(50);
    for query in [&heatmap, &capped] {
        for ro in [
            RewriteOption::original(),
            RewriteOption::hinted(HintSet::with_mask(0)),
            RewriteOption::approximate(
                HintSet::with_mask(0),
                ApproxRule::SampleTable { fraction_pct: 20 },
            ),
        ] {
            let a = zero.run(query, &ro).unwrap();
            let b = one.run(query, &ro).unwrap();
            assert_eq!(a.result, b.result);
            assert_eq!(a.work, b.work);
            assert_eq!(a.time_ms, b.time_ms);
            assert_eq!(a.plan, b.plan);
            // And an explicit zero-thread run matches both.
            let c = one.run_with_threads(query, &ro, 0).unwrap();
            assert_eq!((&a.result, &a.work), (&c.result, &c.work));
        }
    }
}

/// `Query::limit(0)` renders `LIMIT 0` and must mean it: an empty result with
/// zero rows visited, on the oracle and on the pipeline at any thread count.
/// (It used to be clamped to a cap of one row and charge that row's scan.)
#[test]
fn limit_zero_returns_nothing_and_visits_no_row() {
    let db = build_db(9_000, 3, None);
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
            db.clear_caches();
            let reference = db.run_reference(query, &ro).unwrap();
            for threads in [1usize, 4] {
                db.clear_caches();
                let out = db.run_with_threads(query, &ro, threads).unwrap();
                assert!(out.result.is_empty(), "{query:?} at {threads} threads");
                assert_eq!(out.work.seq_rows, 0);
                assert_eq!(out.work.heap_fetches, 0);
                assert_eq!(out.work.filter_evals, 0);
                assert_eq!(out.result, reference.result);
                assert_eq!(out.work, reference.work);
                assert_eq!(out.time_ms, reference.time_ms);
            }
        }
    }
}
