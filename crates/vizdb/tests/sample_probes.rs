//! Property test: the Approximate-QTE's sample probe
//! (`sample_selectivity`) counts exactly the sampled rows a predicate matches.
//! The probe runs on the sample's own table and indexes; the oracle is a
//! row-at-a-time count over the sample's record ids on the base table.
//! Hostile data (NaN and infinite floats and coordinates, duplicate
//! timestamps, empty documents, a keyword found only outside the sample)
//! meets every predicate kind over every column type, with NaN bounds,
//! inverted ranges, zero-area rectangles and unknown keywords, on a
//! `Database` and on sharded mirrors of it.
//!
//! Also here: `build_sample` rejects a fraction outside `1..=100` with a
//! typed error, leaving the catalog untouched, on every entry point.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use vizdb::query::Predicate;
use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::{SampleTable, Table, TableBuilder};
use vizdb::types::{GeoRect, NumRange, RecordId, TimeRange};
use vizdb::{Database, DbConfig, Error, QueryBackend, ShardedBackend, ShardedBackendBuilder};

const TABLE: &str = "events";
const COLUMNS: [&str; 5] = ["id", "when", "loc", "text", "score"];
/// Only ever written to a row outside the `Database`'s sample.
const STRAY: &str = "stray";
const WORDS: [&str; 5] = ["hot", "cold", STRAY, "nosuchword", ""];

/// A float drawn to hit the edges: NaN of both signs, both infinities,
/// duplicates and ordinary values.
fn hostile_float(rng: &mut ChaCha8Rng, span: f64) -> f64 {
    match rng.gen_range(0..16) {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4..=7 => rng.gen_range(-4i32..4) as f64,
        _ => rng.gen_range(-span..span),
    }
}

/// `rows` rows of hostile data. The stray keyword goes into one row that the
/// `Database`'s `stray_pct`% sample leaves out (when it leaves one out).
fn draw_table(rng: &mut ChaCha8Rng, rows: usize, stray_pct: u32) -> Table {
    let schema = TableSchema::new(TABLE)
        .with_column("id", ColumnType::Int)
        .with_column("when", ColumnType::Timestamp)
        .with_column("loc", ColumnType::Geo)
        .with_column("text", ColumnType::Text)
        .with_column("score", ColumnType::Float);
    let sample = SampleTable::build(TABLE, rows, stray_pct, DbConfig::default().seed);
    let stray_row = (0..rows as RecordId).find(|&rid| !sample.contains(rid));
    let mut b = TableBuilder::new(schema);
    for rid in 0..rows as RecordId {
        let id = rng.gen_range(-40i64..40);
        // Few distinct timestamps: plenty of duplicates.
        let when = rng.gen_range(0i64..(rows as i64 / 8 + 2)) * 10;
        let lon = hostile_float(rng, 180.0);
        let lat = hostile_float(rng, 90.0);
        let score = hostile_float(rng, 50.0);
        let mut words: Vec<&str> = match rng.gen_range(0..4) {
            0 => vec![],
            1 => vec!["hot"],
            2 => vec!["cold"],
            _ => vec!["hot", "cold"],
        };
        if Some(rid) == stray_row {
            words.push(STRAY);
        }
        b.push_row(|row| {
            row.set_int("id", id);
            row.set_timestamp("when", when);
            row.set_geo("loc", lon, lat);
            row.set_text("text", &words);
            row.set_float("score", score);
        });
    }
    b.build()
}

fn hostile_timestamp(rng: &mut ChaCha8Rng) -> i64 {
    match rng.gen_range(0..8) {
        0 => i64::MIN,
        1 => i64::MAX,
        _ => rng.gen_range(-50i64..3000),
    }
}

/// A predicate of a random kind over a random column (or one past the
/// schema): NaN and infinite bounds, inverted ranges and rectangles (built
/// directly, not normalised), zero-area rectangles and unknown keywords.
fn draw_predicate(rng: &mut ChaCha8Rng) -> Predicate {
    let attr = rng.gen_range(0..COLUMNS.len() + 1);
    match rng.gen_range(0..4) {
        0 => Predicate::keyword(attr, WORDS[rng.gen_range(0..WORDS.len())]),
        1 => Predicate::TimeRange {
            attr,
            range: TimeRange {
                start: hostile_timestamp(rng),
                end: hostile_timestamp(rng),
            },
        },
        2 => Predicate::NumericRange {
            attr,
            range: NumRange {
                lo: hostile_float(rng, 60.0),
                hi: hostile_float(rng, 60.0),
            },
        },
        _ => {
            let (lon, lat) = (hostile_float(rng, 180.0), hostile_float(rng, 90.0));
            let rect = if rng.gen_bool(0.25) {
                GeoRect {
                    min_lon: lon,
                    min_lat: lat,
                    max_lon: lon,
                    max_lat: lat,
                }
            } else {
                GeoRect {
                    min_lon: lon,
                    min_lat: lat,
                    max_lon: hostile_float(rng, 180.0),
                    max_lat: hostile_float(rng, 90.0),
                }
            };
            Predicate::spatial_range(attr, rect)
        }
    }
}

/// The check every probe makes before it counts: the predicate's column
/// exists and holds a type the predicate reads, whatever the rows (an unknown
/// keyword over a non-text column is an error too).
fn check(table: &Table, pred: &Predicate) -> vizdb::Result<()> {
    let attr = pred.attr();
    match pred {
        Predicate::KeywordContains { .. } => table.text_docs(attr).map(drop),
        Predicate::TimeRange { .. } => table.timestamp_slice(attr).map(drop),
        Predicate::SpatialRange { .. } => table.geo_slice(attr).map(drop),
        Predicate::NumericRange { .. } => match table.schema().column_type(attr)? {
            ColumnType::Int | ColumnType::Float | ColumnType::Timestamp => Ok(()),
            other => Err(Error::TypeMismatch {
                column: table.schema().column_name(attr)?.to_string(),
                expected: "numeric",
                actual: other.name(),
            }),
        },
    }
}

/// The oracle: [`check`], then the row loop over the sample's ids on the base
/// table, written against the table's checked accessors.
fn row_loop(table: &Table, pred: &Predicate, rows: &[RecordId]) -> vizdb::Result<usize> {
    check(table, pred)?;
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

fn selectivity(matched: usize, rows: usize) -> f64 {
    if rows == 0 {
        0.0
    } else {
        matched as f64 / rows as f64
    }
}

/// The row loop over `db`'s `pct`% sample ids on its base table:
/// `(matched, sampled rows)`.
fn sampled_count(db: &Database, pred: &Predicate, pct: u32) -> vizdb::Result<(usize, usize)> {
    let sample = db.sample(TABLE, pct).unwrap().row_ids();
    row_loop(db.table(TABLE).unwrap(), pred, sample).map(|m| (m, sample.len()))
}

fn check_database(db: &Database, fractions: &[u32], preds: &[Predicate]) -> Result<(), String> {
    for &pct in fractions {
        for pred in preds {
            let expected =
                sampled_count(db, pred, pct).map(|(m, rows)| (selectivity(m, rows), rows));
            let probed = db.sample_selectivity(TABLE, pred, pct);
            prop_assert!(
                probed == expected,
                "{pct}% sample, {pred:?}: probed {probed:?}, row loop {expected:?}"
            );
        }
    }
    Ok(())
}

/// Each shard's probe against the row loop over that shard's rows and sample
/// ids, and the backend's composed probe against the shards' summed counts.
fn check_sharded(
    db: &Database,
    shards: usize,
    fractions: &[u32],
    preds: &[Predicate],
) -> Result<(), String> {
    let builder = ShardedBackendBuilder::mirror_builder(db, shards).unwrap();
    let mut summed = Vec::new();
    for &pct in fractions {
        for pred in preds {
            let mut sum = Ok((0usize, 0usize));
            for (i, shard) in builder.shards().iter().enumerate() {
                check_database(shard, &[pct], std::slice::from_ref(pred))
                    .map_err(|e| format!("shard {i}/{shards}: {e}"))?;
                // The backend raises the first failing shard's error.
                sum = match (sum, sampled_count(shard, pred, pct)) {
                    (Ok((m, r)), Ok((matched, rows))) => Ok((m + matched, r + rows)),
                    (Ok(_), Err(err)) | (Err(err), _) => Err(err),
                };
            }
            summed.push((pct, pred, sum));
        }
    }
    let backend = builder.build();
    for (pct, pred, sum) in summed {
        match (backend.sample_selectivity(TABLE, pred, pct), sum) {
            (Ok((sel, rows)), Ok((matched, want_rows))) => {
                prop_assert_eq!(rows, want_rows);
                let want = selectivity(matched, want_rows);
                prop_assert!((sel - want).abs() <= 1e-12, "{sel} vs {want}");
            }
            (got, want) => prop_assert_eq!(got.map(|_| ()), want.map(|_| ())),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random tables of 0–2,500 rows with a random subset of columns
    /// indexed, sampled at a random fraction and at 100%: every probe equals
    /// the row loop — on the `Database`, again after indexing the remaining
    /// columns (which indexes each sample too), and on 1-, 2- and 4-shard
    /// mirrors.
    #[test]
    fn sample_probes_count_exactly_the_sampled_rows(
        seed in 0u64..u64::MAX,
        rows in 0usize..2500,
        pct in 1u32..40,
        indexed in 0u32..32,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let table = draw_table(&mut rng, rows, pct);
        let preds: Vec<Predicate> = (0..40).map(|_| draw_predicate(&mut rng)).collect();
        let fractions = [pct, 100];
        let mut db = Database::new(DbConfig::default());
        db.register_table(table).unwrap();
        let (now, later): (Vec<_>, Vec<_>) =
            (0..COLUMNS.len()).partition(|col| indexed & (1 << col) != 0);
        for &col in &now {
            db.build_index(TABLE, COLUMNS[col]).unwrap();
        }
        for pct in fractions {
            db.build_sample(TABLE, pct).unwrap();
        }
        check_database(&db, &fractions, &preds)?;
        for &col in &later {
            db.build_index(TABLE, COLUMNS[col]).unwrap();
        }
        check_database(&db, &fractions, &preds)?;
        for shards in [1, 2, 4] {
            check_sharded(&db, shards, &fractions, &preds)?;
        }
    }
}

fn small_table() -> Table {
    let schema = TableSchema::new(TABLE)
        .with_column("id", ColumnType::Int)
        .with_column("loc", ColumnType::Geo);
    let mut b = TableBuilder::new(schema);
    for i in 0..200i64 {
        b.push_row(|row| {
            row.set_int("id", i);
            row.set_geo("loc", -120.0 + (i % 20) as f64, 30.0 + (i / 20) as f64);
        });
    }
    b.build()
}

fn invalid(fraction_pct: u32) -> Error {
    Error::InvalidSampleFraction {
        table: TABLE.into(),
        fraction_pct,
    }
}

/// `Database::build_sample` returns the typed error and changes nothing: the
/// memos a catalog mutation drops keep their entries, and no sample is added.
/// The database stays usable.
#[test]
fn out_of_range_fractions_are_errors_on_a_database() {
    let mut db = Database::new(DbConfig::default());
    db.register_table(small_table()).unwrap();
    let pred = Predicate::spatial_range(1, GeoRect::new(-120.0, 30.0, -110.0, 35.0));
    db.true_selectivity(TABLE, &pred).unwrap();
    let caches = db.cache_entry_counts();
    assert_eq!(caches, (0, 1), "test premise: a memoised selectivity");
    for pct in [0, 101, u32::MAX] {
        assert_eq!(db.build_sample(TABLE, pct), Err(invalid(pct)));
        assert_eq!(db.cache_entry_counts(), caches);
        assert!(db.sample_fractions(TABLE).unwrap().is_empty());
    }
    db.build_sample(TABLE, 10).unwrap();
    assert_eq!(db.sample_fractions(TABLE).unwrap(), vec![10]);
    assert_eq!(QueryBackend::sample_len(&db, TABLE, 10).unwrap(), 20);
}

/// `ShardedBackendBuilder::build_sample` returns the typed error before any
/// shard samples: the built backend has no sample, like a backend that was
/// never asked.
#[test]
fn out_of_range_fractions_are_errors_on_a_sharded_builder() {
    let build = |bad: &[u32]| -> ShardedBackend {
        let mut builder = ShardedBackend::builder(DbConfig::default(), 3);
        builder.register_table(&small_table()).unwrap();
        for &pct in bad {
            assert_eq!(builder.build_sample(TABLE, pct), Err(invalid(pct)));
        }
        builder.build()
    };
    let asked = build(&[0, 101, u32::MAX]);
    let untouched = build(&[]);
    for pct in [0, 101, u32::MAX] {
        assert!(asked.sample_len(TABLE, pct).is_err());
        assert!(untouched.sample_len(TABLE, pct).is_err());
    }
}
