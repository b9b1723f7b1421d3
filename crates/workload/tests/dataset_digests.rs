//! Structural digests of the generated datasets.
//!
//! Each digest is an FNV-1a hash over every table of a dataset's database:
//! every column's values (floats by bit pattern, text as its token lists),
//! the dictionary's words in id order with their document frequencies, and
//! the dataset's seed records and extents. The Twitter digest also covers
//! each shard table of the 4-shard mirror, which re-interns every shard's
//! text. A generator or loader change that moves a single value, token id
//! or dictionary entry moves a digest; a faster generator must leave all of
//! them as they are.

use maliva_workload::{build_nyctaxi, build_tpch, build_twitter, Dataset, DatasetScale};
use vizdb::fingerprint::Fingerprint;
use vizdb::storage::{ColumnData, Table};
use vizdb::{Database, ShardedBackendBuilder};

/// Shards of the mirror the Twitter digests cover (the benchmark's count).
const SHARDS: usize = 4;

fn write_table(fp: &mut Fingerprint, table: &Table) {
    fp.write_str(table.name())
        .write_u64(table.row_count() as u64);
    for (i, column) in table.schema().columns.iter().enumerate() {
        fp.write_str(&column.name);
        match table.column(i).expect("schema column") {
            ColumnData::Int(v) => v.iter().for_each(|&x| {
                fp.write_i64(x);
            }),
            ColumnData::Float(v) => v.iter().for_each(|&x| {
                fp.write_f64(x);
            }),
            ColumnData::Timestamp(v) => v.iter().for_each(|&x| {
                fp.write_i64(x);
            }),
            ColumnData::Geo(v) => v.iter().for_each(|p| {
                fp.write_f64(p.lon).write_f64(p.lat);
            }),
            ColumnData::Text(docs) => docs.docs().for_each(|doc| {
                fp.write_u64(doc.len() as u64);
                doc.iter().for_each(|&t| {
                    fp.write_u64(u64::from(t));
                });
            }),
        }
    }
    let dictionary = table.dictionary();
    fp.write_u64(dictionary.len() as u64);
    for id in 0..dictionary.len() as u32 {
        fp.write_str(dictionary.word(id).expect("dense ids"))
            .write_u64(u64::from(dictionary.doc_freq(id)));
    }
}

fn write_database(fp: &mut Fingerprint, db: &Database) {
    for name in db.table_names() {
        write_table(fp, db.table(&name).expect("listed table"));
        for col in db.indexed_columns(&name).expect("listed table") {
            fp.write_u64(col as u64);
        }
    }
}

/// The digest of a dataset's database, seed records and extents.
fn dataset_digest(ds: &Dataset) -> u64 {
    let mut fp = Fingerprint::new();
    write_database(&mut fp, &ds.db);
    for seed in &ds.seeds {
        fp.write_i64(seed.timestamp)
            .write_f64(seed.point.lon)
            .write_f64(seed.point.lat);
        match &seed.keyword {
            Some(k) => fp.write_u64(1).write_str(k),
            None => fp.write_u64(0),
        };
        seed.numerics.iter().for_each(|&x| {
            fp.write_f64(x);
        });
    }
    fp.write_i64(ds.time_extent.0).write_i64(ds.time_extent.1);
    let g = ds.geo_extent;
    fp.write_f64(g.min_lon)
        .write_f64(g.min_lat)
        .write_f64(g.max_lon)
        .write_f64(g.max_lat);
    fp.finish()
}

/// One digest per shard database of the dataset's `SHARDS`-shard mirror.
fn mirror_digests(ds: &Dataset) -> Vec<u64> {
    let builder = ShardedBackendBuilder::mirror_builder(&ds.db, SHARDS).expect("mirror");
    builder
        .shards()
        .iter()
        .map(|shard| {
            let mut fp = Fingerprint::new();
            write_database(&mut fp, shard);
            fp.finish()
        })
        .collect()
}

#[test]
fn tiny_datasets_and_the_twitter_mirror_keep_their_digests() {
    let twitter = build_twitter(DatasetScale::tiny(), 1);
    assert_eq!(
        (
            dataset_digest(&twitter),
            mirror_digests(&twitter),
            dataset_digest(&build_nyctaxi(DatasetScale::tiny(), 1)),
            dataset_digest(&build_tpch(DatasetScale::tiny(), 1)),
        ),
        (
            6_880_725_574_465_740_638,
            vec![
                3_788_533_275_477_601_619,
                18_118_575_514_442_089_312,
                10_901_113_726_446_783_302,
                1_887_654_485_511_728_234,
            ],
            3_243_816_056_177_247_440,
            596_438_934_054_117_525,
        )
    );
}

/// The tables the benchmark's stages serve (seed 42): the `large` Twitter table, its
/// 4-shard mirror and the `large` NYC Taxi table. Ignored by default (about
/// a second in release, far longer in debug); CI runs it in release.
#[test]
#[ignore]
fn large_benchmark_tables_keep_their_digests() {
    let twitter = build_twitter(DatasetScale::large(), 42);
    assert_eq!(
        (
            dataset_digest(&twitter),
            mirror_digests(&twitter),
            dataset_digest(&build_nyctaxi(DatasetScale::large(), 42)),
        ),
        (
            15_942_873_841_959_336_433,
            vec![
                13_632_006_127_727_059_762,
                9_293_533_164_706_391_533,
                1_254_154_023_451_650_391,
                13_379_101_012_497_805_763,
            ],
            10_017_853_957_552_057_857,
        )
    );
}
