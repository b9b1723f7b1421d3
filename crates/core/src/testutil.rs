//! Shared fixtures for the crate's unit tests: a small skewed database and a query
//! generator whose queries span the whole difficulty range (0 viable plans to many).

use std::sync::Arc;

use vizdb::query::{JoinSpec, OutputKind, Predicate, Query};
use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::TableBuilder;
use vizdb::types::GeoRect;
use vizdb::{Database, DbConfig, QueryBackend, ShardedBackendBuilder};

/// Builds a 6 000-row tweets table plus a 200-row users table with skewed text and
/// spatial distributions, all indexes, and 1% samples.
pub fn tiny_db() -> Arc<Database> {
    let schema = TableSchema::new("tweets")
        .with_column("id", ColumnType::Int)
        .with_column("created_at", ColumnType::Timestamp)
        .with_column("coordinates", ColumnType::Geo)
        .with_column("text", ColumnType::Text)
        .with_column("user_id", ColumnType::Int);
    let mut b = TableBuilder::new(schema);
    let rows = 6000i64;
    for i in 0..rows {
        b.push_row(|row| {
            row.set_int("id", i);
            row.set_timestamp("created_at", i * 30);
            // 90% of tweets sit in a hot cluster around Los Angeles, the rest spread
            // across the country, so spatial uniformity estimates are badly wrong.
            let (lon, lat) = if i % 10 < 9 {
                (
                    -118.3 + (i % 23) as f64 * 0.01,
                    34.0 + (i % 17) as f64 * 0.01,
                )
            } else {
                (-95.0 + (i % 40) as f64, 30.0 + (i % 15) as f64)
            };
            row.set_geo("coordinates", lon, lat);
            // Keyword skew: "covid" in 20% of tweets, "storm" in 2%, plus a unique word
            // per tweet that keeps the average document frequency tiny.
            let unique = format!("w{i}");
            let mut words: Vec<&str> = vec![unique.as_str(), "the"];
            if i % 5 == 0 {
                words.push("covid");
            }
            if i % 50 == 0 {
                words.push("storm");
            }
            row.set_text("text", &words);
            row.set_int("user_id", i % 200);
        });
    }
    let users_schema = TableSchema::new("users")
        .with_column("id", ColumnType::Int)
        .with_column("tweet_count", ColumnType::Int);
    let mut ub = TableBuilder::new(users_schema);
    for i in 0..200i64 {
        ub.push_row(|row| {
            row.set_int("id", i);
            row.set_int("tweet_count", (i * 13) % 500);
        });
    }

    let mut db = Database::new(DbConfig::default());
    db.register_table(b.build()).unwrap();
    db.register_table(ub.build()).unwrap();
    db.build_all_indexes("tweets").unwrap();
    db.build_all_indexes("users").unwrap();
    db.build_sample("tweets", 1).unwrap();
    db.build_sample("users", 1).unwrap();
    Arc::new(db)
}

/// A per-region sharded mirror of the fixture database (same tables, indexes and
/// samples, longitude-partitioned into `shards` regions).
#[allow(dead_code)]
pub fn tiny_sharded_backend(shards: usize) -> Arc<dyn QueryBackend> {
    Arc::new(
        ShardedBackendBuilder::mirror(&tiny_db(), shards).expect("mirroring the fixture database"),
    )
}

/// A deterministic query generator over the fixture table: varies keyword rarity, time
/// range length and spatial extent so different queries have different numbers of
/// viable plans.
pub fn make_query(i: u64) -> Query {
    let keyword = match i % 4 {
        0 => "covid",
        1 => "storm",
        2 => "the",
        _ => "covid",
    };
    let start = ((i * 977) % 5000) as i64 * 30;
    let len = match (i / 4) % 3 {
        0 => 1_000 * 30,
        1 => 200 * 30,
        _ => 4_000 * 30,
    };
    let rect = match (i / 2) % 3 {
        0 => GeoRect::new(-118.4, 33.9, -118.0, 34.3),
        1 => GeoRect::new(-119.0, 33.0, -117.0, 35.0),
        _ => GeoRect::new(-125.0, 25.0, -66.0, 49.0),
    };
    Query::select("tweets")
        .filter(Predicate::keyword(3, keyword))
        .filter(Predicate::time_range(1, start, start + len))
        .filter(Predicate::spatial_range(2, rect))
        .output(OutputKind::Points {
            id_attr: 0,
            point_attr: 2,
        })
}

/// A join-query variant of [`make_query`] (same three fact-table predicates, joined
/// with the users table).
#[allow(dead_code)]
pub fn make_join_query(i: u64) -> Query {
    make_query(i).join_with(JoinSpec {
        right_table: "users".into(),
        left_attr: 4,
        right_attr: 0,
        right_predicates: vec![Predicate::numeric_range(1, 0.0, 250.0)],
    })
}

/// A workload of `n` fixture queries.
pub fn workload(n: usize) -> Vec<Query> {
    (0..n as u64).map(make_query).collect()
}
