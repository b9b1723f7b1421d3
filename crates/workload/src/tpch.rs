//! The synthetic TPC-H dataset (paper Table 1, scaled down).
//!
//! The paper uses the TPC-H `lineitem` table as its synthetic workload: filtering on
//! `extended_price`, `ship_date` and `receipt_date`, outputting `quantity` and
//! `discount`. All three filtering attributes are numeric/temporal, so the backend's
//! histogram-based estimates are *accurate* here — which is exactly why Bao performs
//! comparatively well on TPC-H in the paper's Figures 12(c)/13(c). The output pair
//! `(quantity, discount)` is stored as a 2-D point so scatterplot outputs work
//! unchanged.

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

/// 1992-01-01 (Unix seconds) — start of the TPC-H date range.
const TIME_START: i64 = 694_224_000;
/// 1998-12-31 (Unix seconds) — end of the TPC-H date range.
const TIME_END: i64 = 915_062_400;

/// Builds the TPC-H lineitem dataset with the default database profile.
pub fn build_tpch(scale: DatasetScale, seed: u64) -> Dataset {
    let config = DbConfig {
        cost_params: scale.cost_params(),
        seed,
        ..DbConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x79C8);

    let schema = TableSchema::new("lineitem")
        .with_column("id", ColumnType::Int)
        .with_column("extended_price", ColumnType::Float)
        .with_column("ship_date", ColumnType::Timestamp)
        .with_column("receipt_date", ColumnType::Timestamp)
        .with_column("quantity_discount", ColumnType::Geo)
        .with_column("quantity", ColumnType::Float)
        .with_column("discount", ColumnType::Float);
    let mut builder = TableBuilder::new(schema);

    let mut seeds = Vec::new();
    let seed_every = (scale.rows / 1_000).max(1);

    for i in 0..scale.rows as i64 {
        // extended_price = quantity * unit price, TPC-H style.
        let quantity = rng.gen_range(1.0f64..=50.0).floor();
        let unit_price = rng.gen_range(900.0f64..=10_500.0);
        let price = quantity * unit_price / 10.0;
        let discount = (rng.gen_range(0.0f64..=0.10) * 100.0).round() / 100.0;
        let ship_date = rng.gen_range(TIME_START..TIME_END);
        // Receipt follows shipping by 1–30 days (correlated attributes).
        let receipt_date = ship_date + rng.gen_range(1i64..=30) * 86_400;

        if (i as usize).is_multiple_of(seed_every) && seeds.len() < 1_500 {
            seeds.push(SeedRecord {
                timestamp: ship_date,
                point: GeoPoint::new(quantity, discount),
                keyword: None,
                numerics: vec![price, receipt_date as f64],
            });
        }

        builder.push_row(|row| {
            row.set_int("id", i);
            row.set_float("extended_price", price);
            row.set_timestamp("ship_date", ship_date);
            row.set_timestamp("receipt_date", receipt_date);
            row.set_geo("quantity_discount", quantity, discount);
            row.set_float("quantity", quantity);
            row.set_float("discount", discount);
        });
    }

    let mut db = Database::new(config);
    db.register_table(builder.build()).unwrap();
    for column in ["extended_price", "ship_date", "receipt_date"] {
        db.build_index("lineitem", column).unwrap();
    }
    // The Approximate-QTE's probe sample.
    db.build_sample("lineitem", 1).unwrap();

    Dataset {
        db: Arc::new(db),
        name: "TPC-H".to_string(),
        table: "lineitem".to_string(),
        spec: DatasetSpec {
            id_attr: 0,
            time_attr: 2,
            geo_attr: 4,
            text_attr: None,
            numeric_attrs: vec![1, 3],
            filter_attrs: vec![
                crate::FilterAttr {
                    attr: 1,
                    kind: crate::FilterKind::Numeric(0),
                },
                crate::FilterAttr {
                    attr: 2,
                    kind: crate::FilterKind::Time,
                },
                crate::FilterAttr {
                    attr: 3,
                    kind: crate::FilterKind::TimeFromNumeric(1),
                },
            ],
            join_key_attr: None,
            dim_table: None,
            dim_numeric_attr: None,
        },
        seeds,
        time_extent: (TIME_START, TIME_END),
        geo_extent: GeoRect::new(1.0, 0.0, 50.0, 0.10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_lineitem_with_indexes() {
        let ds = build_tpch(DatasetScale::tiny(), 1);
        assert_eq!(ds.row_count(), 5_000);
        assert_eq!(ds.db.indexed_columns("lineitem").unwrap(), vec![1, 2, 3]);
        assert_eq!(ds.name, "TPC-H");
        assert!(!ds.seeds.is_empty());
    }

    #[test]
    fn numeric_estimates_are_accurate_on_tpch() {
        // The key property: on purely numeric/temporal attributes the backend's
        // estimates are close to the truth (unlike keyword/spatial attributes).
        let ds = build_tpch(DatasetScale::tiny(), 3);
        let pred = vizdb::query::Predicate::time_range(
            2,
            TIME_START,
            TIME_START + (TIME_END - TIME_START) / 4,
        );
        let truth = ds.db.true_selectivity("lineitem", &pred).unwrap();
        let est = ds.db.estimated_selectivity("lineitem", &pred).unwrap();
        assert!(
            (truth - est).abs() < 0.05,
            "truth {truth} vs estimate {est}"
        );
    }

    #[test]
    fn receipt_follows_ship_date() {
        let ds = build_tpch(DatasetScale::tiny(), 5);
        // receipt_date >= ship_date for every row, so a receipt range entirely before
        // the shipping range start matches nothing.
        let pred = vizdb::query::Predicate::time_range(3, 0, TIME_START);
        assert_eq!(ds.db.true_selectivity("lineitem", &pred).unwrap(), 0.0);
    }

    #[test]
    fn quantity_and_discount_ranges_are_tpch_like() {
        let ds = build_tpch(DatasetScale::tiny(), 7);
        let q = vizdb::query::Predicate::numeric_range(5, 1.0, 50.0);
        let d = vizdb::query::Predicate::numeric_range(6, 0.0, 0.10);
        // quantity / discount are not indexed (they are output attributes), so the
        // selectivity falls back to scanning — still exact.
        assert!((ds.db.true_selectivity("lineitem", &q).unwrap() - 1.0).abs() < 1e-9);
        assert!((ds.db.true_selectivity("lineitem", &d).unwrap() - 1.0).abs() < 1e-9);
    }
}
