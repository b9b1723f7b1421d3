//! Model-check suite for the `vizdb::sync` facade, the memo behind the
//! database's time and selectivity memos, and the cell column a table's first
//! heatmap builds.
//!
//! Compiled only under `RUSTFLAGS='--cfg maliva_model_check'`, where
//! `vizdb::sync` resolves to the instrumented loomlite shims and `explore`
//! drives every lock acquisition and atomic access through the deterministic
//! scheduler. A plain `cargo test` builds this file to an empty test binary.

#![cfg(maliva_model_check)]

use std::sync::Arc;

use loomlite::{explore, Config, FailureKind};
use vizdb::hints::RewriteOption;
use vizdb::query::{BinGrid, OutputKind, Predicate, Query};
use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::{BuildOnce, TableBuilder};
use vizdb::sync::atomic::{AtomicU64, Ordering};
use vizdb::sync::thread;
use vizdb::types::GeoRect;
use vizdb::{Database, DbConfig, Memo};

/// A classic lost update, written against the *facade's* atomics. The checker
/// finding it proves the `maliva_model_check` cfg actually switched
/// `vizdb::sync` onto the loomlite shims — uninstrumented std atomics would
/// give the scheduler nothing to interleave.
#[test]
fn facade_atomics_are_instrumented() {
    let report = explore(Config::random(7, 2000), || {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = n.clone();
                thread::spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = report
        .failure
        .expect("the seeded read-modify-write race must be found");
    assert!(
        matches!(failure.kind, FailureKind::Panic { .. }),
        "expected the lost-update assertion, got {failure}"
    );
}

/// Two atomics bumped for one logical event can be read apart: a concurrent
/// reader loading both may see the first bump without the second, and the
/// checker finds that schedule. Any pair of values that must be read together
/// belongs behind one lock.
#[test]
fn per_field_atomic_counters_are_caught_tearing() {
    let report = explore(Config::random(5, 10_000), || {
        let retries = Arc::new(AtomicU64::new(0));
        let timeouts = Arc::new(AtomicU64::new(0));
        let writer = {
            let (r, t) = (retries.clone(), timeouts.clone());
            thread::spawn(move || {
                // One logical event, two independent atomics.
                r.fetch_add(1, Ordering::SeqCst);
                t.fetch_add(1, Ordering::SeqCst);
            })
        };
        let reader = {
            let (r, t) = (retries.clone(), timeouts.clone());
            thread::spawn(move || {
                let retries = r.load(Ordering::SeqCst);
                let timeouts = t.load(Ordering::SeqCst);
                assert_eq!(retries, timeouts, "torn read");
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    });
    let failure = report.failure.expect("the torn snapshot must be found");
    assert!(matches!(failure.kind, FailureKind::Panic { .. }));
}

/// The memo contract under every explored interleaving: two threads race
/// `get_or_try_compute` on one key with *different* candidate values; the
/// first insert wins and both threads observe exactly the canonical value.
#[test]
fn fingerprint_cache_first_insert_wins_under_every_interleaving() {
    let report = explore(Config::random(11, 1000), || {
        let cache = Arc::new(Memo::new(65_536));
        let a = cache.clone();
        let ha = thread::spawn(move || {
            let v: Result<f64, ()> = a.get_or_try_compute((1, 2), || Ok(10.0));
            v.unwrap()
        });
        let b = cache.clone();
        let hb = thread::spawn(move || {
            let v: Result<f64, ()> = b.get_or_try_compute((1, 2), || Ok(20.0));
            v.unwrap()
        });
        let va = ha.join().unwrap();
        let vb = hb.join().unwrap();
        let canonical = cache.get((1, 2)).expect("one insert must have landed");
        assert_eq!(va, canonical, "thread A observed a non-canonical value");
        assert_eq!(vb, canonical, "thread B observed a non-canonical value");
        assert_eq!(
            cache.stats().entries,
            1,
            "a racing insert must not duplicate the key"
        );
    });
    report.assert_ok();
    assert!(report.schedules_explored >= 1000);
}

/// `insert` against a concurrent `clear`: whatever the outcome, the caller's
/// returned value was canonical *at insertion time* and the memo ends in one
/// of the two legal states (entry present with the inserted value, or empty).
#[test]
fn fingerprint_cache_clear_races_are_benign() {
    let report = explore(Config::random(13, 1000), || {
        let cache = Arc::new(Memo::new(65_536));
        let inserter = {
            let c = cache.clone();
            thread::spawn(move || c.insert((9, 9), 4.5))
        };
        let clearer = {
            let c = cache.clone();
            thread::spawn(move || c.clear())
        };
        let inserted = inserter.join().unwrap();
        clearer.join().unwrap();
        assert_eq!(inserted, 4.5);
        match cache.get((9, 9)) {
            Some(v) => assert_eq!(v, 4.5),
            None => assert_eq!(cache.stats().entries, 0),
        }
    });
    report.assert_ok();
}

/// Two first users of one `BuildOnce` slot race: under every interleaving
/// exactly one builds, and both read the value it built.
#[test]
fn build_once_builds_exactly_once_under_every_interleaving() {
    let report = explore(Config::random(17, 1000), || {
        let slot = Arc::new(BuildOnce::new());
        let builds = Arc::new(AtomicU64::new(0));
        let first_use = |id: u64| {
            let (slot, builds) = (slot.clone(), builds.clone());
            thread::spawn(move || {
                let build = || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, vizdb::Error>(id)
                };
                slot.read_or_build(build, |&v| v).unwrap()
            })
        };
        let (a, b) = (first_use(1), first_use(2));
        let (a, b) = (a.join().unwrap(), b.join().unwrap());
        assert_eq!(builds.load(Ordering::SeqCst), 1, "lost or repeated build");
        assert_eq!(a, b, "the two users read different builds");
    });
    report.assert_ok();
    assert!(report.schedules_explored >= 1000);
}

/// Two threads make a table's first heatmap binning at once: whichever of
/// them builds the cell column, both return the interpreter's bins (a torn or
/// lost build would misbin), and the table keeps the column.
#[test]
fn racing_first_heatmaps_both_get_the_arithmetic_answer() {
    const ROWS: i64 = 16;
    let output = OutputKind::BinnedCounts {
        point_attr: 1,
        grid: BinGrid::new(GeoRect::new(0.0, 0.0, 4.0, 4.0), 4, 4),
    };
    let query = Query::select("t")
        .filter(Predicate::numeric_range(0, 0.0, 9.0))
        .output(output);
    let report = explore(Config::random(29, 300), move || {
        let schema = TableSchema::new("t")
            .with_column("n", ColumnType::Int)
            .with_column("loc", ColumnType::Geo);
        let mut b = TableBuilder::new(schema);
        for i in 0..ROWS {
            b.push_row(|row| {
                row.set_int("n", i);
                row.set_geo("loc", (i % 5) as f64, (i / 4) as f64);
            });
        }
        let mut db = Database::new(DbConfig::default());
        db.register_table(b.build()).unwrap();
        let db = Arc::new(db);
        let ro = RewriteOption::original();
        let expected = db.run_reference(&query, &ro).unwrap().result;
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (db, query, ro) = (db.clone(), query.clone(), ro.clone());
                thread::spawn(move || db.run(&query, &ro).unwrap().result)
            })
            .collect();
        for run in runs {
            assert_eq!(run.join().unwrap(), expected, "a heatmap misbinned");
        }
        assert!(db.has_cell_column("t", &output).unwrap());
    });
    report.assert_ok();
}
