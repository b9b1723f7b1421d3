//! The synthetic NYC-Taxi dataset (paper Table 1, scaled down).
//!
//! 500 million trip records become `scale.rows` synthetic trips: pickup timestamps over
//! three years (2010–2012), exponentially distributed trip distances and pickup
//! locations tightly clustered inside Manhattan with thinner coverage of the outer
//! boroughs — the clustering is what breaks uniformity-based spatial estimates.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

use vizdb::schema::{ColumnType, TableSchema};
use vizdb::storage::TableBuilder;
use vizdb::types::{GeoPoint, GeoRect};
use vizdb::{Database, DbConfig};

use crate::scale::DatasetScale;
use crate::{Dataset, DatasetSpec, SeedRecord};

/// 2010-01-01 (Unix seconds).
const TIME_START: i64 = 1_262_304_000;
/// 2013-01-01 (Unix seconds).
const TIME_END: i64 = 1_356_998_400;

fn nyc_extent() -> GeoRect {
    GeoRect::new(-74.3, 40.5, -73.6, 41.0)
}

/// Builds the NYC-Taxi dataset with the default database profile.
pub fn build_nyctaxi(scale: DatasetScale, seed: u64) -> Dataset {
    let config = DbConfig {
        cost_params: scale.cost_params(),
        seed,
        ..DbConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7A41);
    let extent = nyc_extent();

    let schema = TableSchema::new("trips")
        .with_column("id", ColumnType::Int)
        .with_column("pickup_datetime", ColumnType::Timestamp)
        .with_column("trip_distance", ColumnType::Float)
        .with_column("pickup_coordinates", ColumnType::Geo);
    let mut builder = TableBuilder::new(schema);

    let mut seeds = Vec::new();
    let seed_every = (scale.rows / 1_000).max(1);

    for i in 0..scale.rows as i64 {
        // Temporal density: weekdays/rush hours are busier; model with a coarse
        // periodic acceptance step.
        let mut timestamp;
        loop {
            timestamp = rng.gen_range(TIME_START..TIME_END);
            let hour = (timestamp / 3600) % 24;
            let busy = matches!(hour, 7..=9 | 16..=19);
            if busy || rng.gen::<f64>() < 0.55 {
                break;
            }
        }
        let distance = sample_trip_distance(&mut rng);
        let point = sample_pickup(&mut rng, &extent);

        if (i as usize).is_multiple_of(seed_every) && seeds.len() < 1_500 {
            seeds.push(SeedRecord {
                timestamp,
                point,
                keyword: None,
                numerics: vec![distance],
            });
        }

        builder.push_row(|row| {
            row.set_int("id", i);
            row.set_timestamp("pickup_datetime", timestamp);
            row.set_float("trip_distance", distance);
            row.set_geo("pickup_coordinates", point.lon, point.lat);
        });
    }

    let mut db = Database::new(config);
    db.register_table(builder.build()).unwrap();
    for column in ["pickup_datetime", "trip_distance", "pickup_coordinates"] {
        db.build_index("trips", column).unwrap();
    }
    // The Approximate-QTE's probe sample.
    db.build_sample("trips", 1).unwrap();

    Dataset {
        db: Arc::new(db),
        name: "NYC Taxi".to_string(),
        table: "trips".to_string(),
        spec: DatasetSpec {
            id_attr: 0,
            time_attr: 1,
            geo_attr: 3,
            text_attr: None,
            numeric_attrs: vec![2],
            filter_attrs: vec![
                crate::FilterAttr {
                    attr: 1,
                    kind: crate::FilterKind::Time,
                },
                crate::FilterAttr {
                    attr: 2,
                    kind: crate::FilterKind::Numeric(0),
                },
                crate::FilterAttr {
                    attr: 3,
                    kind: crate::FilterKind::Spatial,
                },
            ],
            join_key_attr: None,
            dim_table: None,
            dim_numeric_attr: None,
        },
        seeds,
        time_extent: (TIME_START, TIME_END),
        geo_extent: extent,
    }
}

/// Exponentially distributed trip distance in miles (mean ~2.8, capped at 40).
fn sample_trip_distance<R: Rng>(rng: &mut R) -> f64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    (-u.ln() * 2.8).min(40.0)
}

/// Pickup location: 80% inside a dense Manhattan strip, 15% in two outer-borough
/// clusters, 5% anywhere in the metro extent.
fn sample_pickup<R: Rng>(rng: &mut R, extent: &GeoRect) -> GeoPoint {
    let roll: f64 = rng.gen();
    let (centre_lon, centre_lat, spread) = if roll < 0.80 {
        (-73.975, 40.755, 0.03)
    } else if roll < 0.90 {
        (-73.87, 40.77, 0.02) // LaGuardia
    } else if roll < 0.95 {
        (-73.79, 40.64, 0.02) // JFK
    } else {
        return GeoPoint::new(
            rng.gen_range(extent.min_lon..extent.max_lon),
            rng.gen_range(extent.min_lat..extent.max_lat),
        );
    };
    let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
    let radius = (-2.0 * u1.ln()).sqrt() * spread;
    let angle = 2.0 * std::f64::consts::PI * u2;
    GeoPoint::new(
        (centre_lon + radius * angle.cos()).clamp(extent.min_lon, extent.max_lon),
        (centre_lat + radius * angle.sin()).clamp(extent.min_lat, extent.max_lat),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_trips_with_indexes_and_samples() {
        let ds = build_nyctaxi(DatasetScale::tiny(), 2);
        assert_eq!(ds.row_count(), 5_000);
        assert_eq!(ds.db.indexed_columns("trips").unwrap(), vec![1, 2, 3]);
        assert!(ds.db.sample("trips", 1).is_ok());
        assert!(ds.db.sample("trips", 20).is_err());
        assert_eq!(ds.spec.text_attr, None);
        assert!(!ds.seeds.is_empty());
    }

    #[test]
    fn manhattan_is_dense() {
        let ds = build_nyctaxi(DatasetScale::tiny(), 4);
        let manhattan =
            vizdb::query::Predicate::spatial_range(3, GeoRect::new(-74.03, 40.70, -73.93, 40.82));
        let sel = ds.db.true_selectivity("trips", &manhattan).unwrap();
        let est = ds.db.estimated_selectivity("trips", &manhattan).unwrap();
        assert!(sel > 0.4, "Manhattan should hold most pickups, got {sel}");
        assert!(est < sel / 2.0, "uniformity estimate {est} vs truth {sel}");
    }

    #[test]
    fn trip_distances_are_heavy_tailed() {
        let ds = build_nyctaxi(DatasetScale::tiny(), 6);
        let short = vizdb::query::Predicate::numeric_range(2, 0.0, 2.0);
        let long = vizdb::query::Predicate::numeric_range(2, 15.0, 40.0);
        let sel_short = ds.db.true_selectivity("trips", &short).unwrap();
        let sel_long = ds.db.true_selectivity("trips", &long).unwrap();
        assert!(sel_short > 0.3);
        assert!(sel_long < 0.05);
    }

    #[test]
    fn timestamps_span_three_years() {
        let ds = build_nyctaxi(DatasetScale::tiny(), 8);
        assert_eq!(ds.time_extent, (TIME_START, TIME_END));
        let all = vizdb::query::Predicate::time_range(1, TIME_START, TIME_END);
        assert!((ds.db.true_selectivity("trips", &all).unwrap() - 1.0).abs() < 1e-9);
    }
}
