//! The synthetic Twitter dataset (paper Table 1, scaled down).
//!
//! 100 million geo-located US tweets become `scale.rows` synthetic tweets with the same
//! structural skew: Zipf-distributed text, coordinates clustered around a handful of
//! metropolitan areas, 14 months of timestamps, heavy-tailed user activity counters and
//! a `users` dimension table reachable through a `user_id` foreign key.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::TableBuilder;
use vizdb::types::{GeoPoint, GeoRect, TokenId};
use vizdb::{Database, DbConfig};

use crate::scale::DatasetScale;
use crate::text::TextCorpus;
use crate::{Dataset, DatasetSpec, SeedRecord};

/// Start of the timestamp range (November 2015, Unix seconds).
const TIME_START: i64 = 1_446_336_000;
/// End of the timestamp range (end of January 2017, Unix seconds).
const TIME_END: i64 = 1_485_820_800;

/// Metropolitan clusters (lon, lat, weight) that hold ~95% of the tweets.
const CITIES: &[(f64, f64, f64)] = &[
    (-118.24, 34.05, 0.16), // Los Angeles
    (-73.99, 40.73, 0.20),  // New York
    (-87.63, 41.88, 0.10),  // Chicago
    (-95.37, 29.76, 0.08),  // Houston
    (-122.42, 37.77, 0.09), // San Francisco
    (-80.19, 25.76, 0.07),  // Miami
    (-104.99, 39.74, 0.05), // Denver
    (-122.33, 47.61, 0.06), // Seattle
    (-84.39, 33.75, 0.05),  // Atlanta
    (-112.07, 33.45, 0.04), // Phoenix
    (-77.04, 38.91, 0.05),  // Washington DC
];

/// Continental-US bounding box used for the background noise and map extents.
fn us_extent() -> GeoRect {
    GeoRect::new(-125.0, 25.0, -66.0, 49.0)
}

/// Builds the Twitter dataset with the default (PostgreSQL-like) database profile.
pub fn build_twitter(scale: DatasetScale, seed: u64) -> Dataset {
    build_twitter_with_config(scale, seed, DbConfig::default())
}

/// Builds the Twitter dataset with a custom database configuration (the cost parameters
/// are always overridden to match the dataset scale).
pub fn build_twitter_with_config(scale: DatasetScale, seed: u64, mut config: DbConfig) -> Dataset {
    config.cost_params = scale.cost_params();
    config.seed = seed;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let corpus = TextCorpus::new(4_000);

    let schema = TableSchema::new("tweets")
        .with_column("id", ColumnType::Int)
        .with_column("created_at", ColumnType::Timestamp)
        .with_column("coordinates", ColumnType::Geo)
        .with_column("text", ColumnType::Text)
        .with_column("users_statuses_count", ColumnType::Float)
        .with_column("users_followers_count", ColumnType::Float)
        .with_column("user_id", ColumnType::Int);
    let mut builder = TableBuilder::new(schema);

    let mut seeds: Vec<SeedRecord> = Vec::new();
    let seed_every = (scale.rows / 1_000).max(1);
    let us = us_extent();
    let mut doc = Vec::new();
    // Each corpus word's token id, interned at the word's first occurrence, so
    // the dictionary assigns ids in the order `set_text` would.
    let mut token_of: Vec<Option<TokenId>> = vec![None; corpus.word_count()];
    let mut tokens: Vec<TokenId> = Vec::new();

    for i in 0..scale.rows as i64 {
        let timestamp = rng.gen_range(TIME_START..TIME_END);
        let point = sample_point(&mut rng, &us);
        corpus.sample_document(&mut rng, 9, &mut doc);
        let statuses = sample_heavy_tail(&mut rng, 20_000.0);
        let followers = sample_heavy_tail(&mut rng, 100_000.0);
        let user_id = rng.gen_range(0..scale.dim_rows as i64);

        if (i as usize).is_multiple_of(seed_every) && seeds.len() < 1_500 {
            seeds.push(SeedRecord {
                timestamp,
                point,
                keyword: corpus.pick_keyword(&mut rng, &doc).map(str::to_string),
                numerics: vec![statuses, followers],
            });
        }

        builder.push_row(|row| {
            row.set_int("id", i);
            row.set_timestamp("created_at", timestamp);
            row.set_geo("coordinates", point.lon, point.lat);
            tokens.clear();
            for &w in &doc {
                let token = &mut token_of[w as usize];
                tokens.push(*token.get_or_insert_with(|| row.intern(corpus.word(w))));
            }
            row.set_tokens("text", &tokens);
            row.set_float("users_statuses_count", statuses);
            row.set_float("users_followers_count", followers);
            row.set_int("user_id", user_id);
        });
    }

    // Dimension table: users(id, tweet_count).
    let users_schema = TableSchema::new("users")
        .with_column("id", ColumnType::Int)
        .with_column("tweet_count", ColumnType::Float);
    let mut users = TableBuilder::new(users_schema);
    for i in 0..scale.dim_rows as i64 {
        let count = sample_heavy_tail(&mut rng, 6_000.0);
        users.push_row(|row| {
            row.set_int("id", i);
            row.set_float("tweet_count", count);
        });
    }

    let mut db = Database::new(config);
    db.register_table(builder.build())
        .expect("fact-table statistics");
    db.register_table(users.build())
        .expect("dimension-table statistics");
    for column in [
        "created_at",
        "coordinates",
        "text",
        "users_statuses_count",
        "users_followers_count",
    ] {
        db.build_index("tweets", column).unwrap();
    }
    db.build_index("users", "id").unwrap();
    db.build_index("users", "tweet_count").unwrap();
    // The Approximate-QTE's probe samples.
    db.build_sample("tweets", 1).unwrap();
    db.build_sample("users", 1).unwrap();

    Dataset {
        db: Arc::new(db),
        name: "Twitter".to_string(),
        table: "tweets".to_string(),
        spec: DatasetSpec {
            id_attr: 0,
            time_attr: 1,
            geo_attr: 2,
            text_attr: Some(3),
            numeric_attrs: vec![4, 5],
            filter_attrs: vec![
                crate::FilterAttr {
                    attr: 3,
                    kind: crate::FilterKind::Keyword,
                },
                crate::FilterAttr {
                    attr: 1,
                    kind: crate::FilterKind::Time,
                },
                crate::FilterAttr {
                    attr: 2,
                    kind: crate::FilterKind::Spatial,
                },
                crate::FilterAttr {
                    attr: 4,
                    kind: crate::FilterKind::Numeric(0),
                },
                crate::FilterAttr {
                    attr: 5,
                    kind: crate::FilterKind::Numeric(1),
                },
            ],
            join_key_attr: Some(6),
            dim_table: Some("users".to_string()),
            dim_numeric_attr: Some(1),
        },
        seeds,
        time_extent: (TIME_START, TIME_END),
        geo_extent: us_extent(),
    }
}

/// Samples a tweet location: 95% from a Gaussian blob around a weighted city, 5%
/// uniform across the continental US.
fn sample_point<R: Rng>(rng: &mut R, extent: &GeoRect) -> GeoPoint {
    if rng.gen::<f64>() < 0.05 {
        return GeoPoint::new(
            rng.gen_range(extent.min_lon..extent.max_lon),
            rng.gen_range(extent.min_lat..extent.max_lat),
        );
    }
    let mut pick = rng.gen::<f64>();
    let mut city = CITIES[0];
    for &c in CITIES {
        if pick < c.2 {
            city = c;
            break;
        }
        pick -= c.2;
    }
    // Box-Muller Gaussian spread of ~0.3 degrees.
    let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
    let radius = (-2.0 * u1.ln()).sqrt() * 0.3;
    let angle = 2.0 * std::f64::consts::PI * u2;
    GeoPoint::new(
        (city.0 + radius * angle.cos()).clamp(extent.min_lon, extent.max_lon),
        (city.1 + radius * angle.sin()).clamp(extent.min_lat, extent.max_lat),
    )
}

/// Heavy-tailed positive value (exponential-of-uniform, capped), modelling follower and
/// status counts.
fn sample_heavy_tail<R: Rng>(rng: &mut R, cap: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().max(1e-9);
    (1.0 / u.powf(0.7) - 1.0).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_expected_row_counts_and_indexes() {
        let ds = build_twitter(DatasetScale::tiny(), 1);
        assert_eq!(ds.row_count(), 5_000);
        assert_eq!(ds.db.row_count("users").unwrap(), 200);
        assert_eq!(
            ds.db.indexed_columns("tweets").unwrap(),
            vec![1, 2, 3, 4, 5]
        );
        assert!(!ds.seeds.is_empty());
        assert_eq!(ds.spec.text_attr, Some(3));
    }

    #[test]
    fn coordinates_are_clustered() {
        let ds = build_twitter(DatasetScale::tiny(), 3);
        // A small box around New York should hold far more than its area share.
        let ny = vizdb::query::Predicate::spatial_range(2, GeoRect::new(-74.5, 40.2, -73.5, 41.2));
        let sel = ds.db.true_selectivity("tweets", &ny).unwrap();
        let est = ds.db.estimated_selectivity("tweets", &ny).unwrap();
        assert!(sel > 0.08, "true selectivity {sel}");
        assert!(
            est < sel,
            "uniformity estimate {est} should undershoot {sel}"
        );
    }

    #[test]
    fn keyword_selectivities_are_skewed() {
        let ds = build_twitter(DatasetScale::tiny(), 5);
        let common = vizdb::query::Predicate::keyword(3, "word0");
        let rare = vizdb::query::Predicate::keyword(3, "word900");
        let sel_common = ds.db.true_selectivity("tweets", &common).unwrap();
        let sel_rare = ds.db.true_selectivity("tweets", &rare).unwrap();
        assert!(sel_common > 10.0 * sel_rare.max(1e-4) || sel_rare == 0.0);
    }

    #[test]
    fn seed_records_have_keywords_and_numerics() {
        let ds = build_twitter(DatasetScale::tiny(), 9);
        assert!(ds.seeds.iter().all(|s| s.numerics.len() == 2));
        assert!(ds.seeds.iter().filter(|s| s.keyword.is_some()).count() > ds.seeds.len() / 2);
    }
}
