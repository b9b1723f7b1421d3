//! Table statistics used by the (deliberately fallible) default cardinality estimator.
//!
//! The statistics mirror what a production optimizer keeps: equi-width histograms for
//! numeric and temporal columns, a bounding box for spatial columns (leading to the
//! classic uniformity assumption), and most-common-token lists plus an average document
//! frequency for text columns. The gap between these statistics and the true data
//! distribution is exactly what makes the backend pick bad plans in the paper.

use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::schema::ColumnType;
use crate::storage::{ColumnData, Table};
use crate::types::{GeoRect, TokenId};

/// Number of buckets in numeric / temporal histograms.
const HISTOGRAM_BUCKETS: usize = 64;
/// Number of most-common tokens tracked per text column. Kept deliberately small (as a
/// fraction of a realistic vocabulary) so that mid-frequency keywords fall back to the
/// average-document-frequency estimate and get badly underestimated — the estimation
/// failure mode the paper attributes PostgreSQL's bad plans to.
const MOST_COMMON_TOKENS: usize = 12;

/// Equi-width histogram over a numeric domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram from raw values.
    pub fn build(values: impl Iterator<Item = f64> + Clone) -> Self {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut total = 0u64;
        for v in values.clone() {
            min = min.min(v);
            max = max.max(v);
            total += 1;
        }
        if total == 0 {
            return Self {
                min: 0.0,
                max: 0.0,
                counts: vec![0; HISTOGRAM_BUCKETS],
                total: 0,
            };
        }
        let mut counts = vec![0u64; HISTOGRAM_BUCKETS];
        let span = (max - min).max(f64::EPSILON);
        for v in values {
            let b = (((v - min) / span) * HISTOGRAM_BUCKETS as f64) as usize;
            counts[b.min(HISTOGRAM_BUCKETS - 1)] += 1;
        }
        Self {
            min,
            max,
            counts,
            total,
        }
    }

    /// Estimated fraction of values within `[lo, hi]` (inclusive), assuming uniformity
    /// within each bucket.
    pub fn range_fraction(&self, lo: f64, hi: f64) -> f64 {
        if self.total == 0 || hi < lo {
            return 0.0;
        }
        let span = (self.max - self.min).max(f64::EPSILON);
        let width = span / HISTOGRAM_BUCKETS as f64;
        let mut matched = 0.0f64;
        for (i, &count) in self.counts.iter().enumerate() {
            let b_lo = self.min + i as f64 * width;
            let b_hi = b_lo + width;
            let overlap = (hi.min(b_hi) - lo.max(b_lo)).max(0.0);
            if overlap > 0.0 {
                matched += count as f64 * (overlap / width).min(1.0);
            }
        }
        // An exact point query on a bucket boundary can still match; clamp into [0, 1].
        (matched / self.total as f64).clamp(0.0, 1.0)
    }

    /// Minimum observed value.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Number of values the histogram was built from.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Statistics of a text column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TextStats {
    /// Number of distinct tokens.
    pub distinct_tokens: usize,
    /// Average per-token document frequency (documents per token).
    pub avg_doc_freq: f64,
    /// Most common tokens with their document frequencies, most frequent first.
    pub most_common: Vec<(TokenId, u32)>,
    /// Total number of documents (rows).
    pub doc_count: usize,
}

impl TextStats {
    /// Estimated selectivity of a keyword predicate for `token` using only the
    /// statistics a production optimizer keeps: exact for most-common tokens, the
    /// average document frequency otherwise. Unknown tokens fall back to the same
    /// average — which is where the large estimation errors of the paper come from.
    pub fn keyword_selectivity(&self, token: Option<TokenId>) -> f64 {
        if self.doc_count == 0 {
            return 0.0;
        }
        if let Some(t) = token {
            if let Some(&(_, freq)) = self.most_common.iter().find(|(mc, _)| *mc == t) {
                return freq as f64 / self.doc_count as f64;
            }
        }
        (self.avg_doc_freq / self.doc_count as f64).clamp(0.0, 1.0)
    }
}

/// Statistics of a geo column: only the bounding box and the row count, so range
/// selectivity estimation must assume spatial uniformity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeoStats {
    /// Bounding box of the points whose coordinates are both finite.
    pub bounds: GeoRect,
    /// Number of points.
    pub count: usize,
}

impl GeoStats {
    /// Estimated selectivity of a spatial range predicate under the uniformity
    /// assumption: the fraction of the data bounding box covered by the query rectangle.
    pub fn range_selectivity(&self, rect: &GeoRect) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.bounds.overlap_fraction(rect).clamp(0.0, 1.0)
    }
}

/// Per-column statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ColumnStats {
    /// Histogram for Int / Float / Timestamp columns.
    Numeric(Histogram),
    /// Bounding box statistics for Geo columns.
    Geo(GeoStats),
    /// Token statistics for Text columns.
    Text(TextStats),
}

/// Statistics for a whole table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableStats {
    /// Number of rows in the table.
    pub row_count: usize,
    /// Per-column statistics, aligned with the schema's column order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Collects statistics from a fully loaded table.
    pub fn analyze(table: &Table) -> Result<Self> {
        let mut columns = Vec::with_capacity(table.schema().arity());
        for (idx, col) in table.schema().columns.iter().enumerate() {
            let stats = match col.ty {
                ColumnType::Int | ColumnType::Float | ColumnType::Timestamp => {
                    let data = table.column(idx)?;
                    let hist = match data {
                        ColumnData::Int(v) => Histogram::build(v.iter().map(|&x| x as f64)),
                        ColumnData::Float(v) => Histogram::build(v.iter().copied()),
                        ColumnData::Timestamp(v) => Histogram::build(v.iter().map(|&x| x as f64)),
                        _ => unreachable!("schema/type mismatch"),
                    };
                    ColumnStats::Numeric(hist)
                }
                ColumnType::Geo => {
                    let mut bounds = GeoRect::empty();
                    let mut count = 0;
                    if let ColumnData::Geo(points) = table.column(idx)? {
                        for p in points {
                            // A ±inf coordinate would make the box infinite
                            // and every overlap fraction zero (`min`/`max`
                            // already skip NaN).
                            if p.lon.is_finite() && p.lat.is_finite() {
                                bounds.extend(p);
                            }
                            count += 1;
                        }
                    }
                    ColumnStats::Geo(GeoStats { bounds, count })
                }
                ColumnType::Text => {
                    let dict = table.dictionary();
                    ColumnStats::Text(TextStats {
                        distinct_tokens: dict.len(),
                        avg_doc_freq: dict.average_doc_freq(),
                        most_common: dict.most_common(MOST_COMMON_TOKENS),
                        doc_count: table.row_count(),
                    })
                }
            };
            columns.push(stats);
        }
        Ok(Self {
            row_count: table.row_count(),
            columns,
        })
    }

    /// The statistics of column `idx`, if any.
    pub fn column(&self, idx: usize) -> Option<&ColumnStats> {
        self.columns.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, TableSchema};
    use crate::storage::TableBuilder;

    fn build_table(rows: usize) -> Table {
        let schema = TableSchema::new("t")
            .with_column("val", ColumnType::Float)
            .with_column("when", ColumnType::Timestamp)
            .with_column("loc", ColumnType::Geo)
            .with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(|row| {
                row.set_float("val", i as f64);
                row.set_timestamp("when", (i * 10) as i64);
                // Points clustered in the left half of the bounding box.
                let lon = if i % 10 < 9 { -100.0 } else { -60.0 };
                row.set_geo("loc", lon + (i % 5) as f64, 30.0 + (i % 5) as f64);
                row.set_text("text", &[if i % 100 == 0 { "rare" } else { "common" }]);
            });
        }
        b.build()
    }

    #[test]
    fn histogram_range_fraction_uniform_data() {
        let h = Histogram::build((0..1000).map(|i| i as f64));
        assert!((h.range_fraction(0.0, 999.0) - 1.0).abs() < 0.02);
        assert!((h.range_fraction(0.0, 499.0) - 0.5).abs() < 0.03);
        assert!(h.range_fraction(2000.0, 3000.0) < 0.001);
        assert_eq!(h.range_fraction(10.0, 5.0), 0.0);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::build(std::iter::empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.range_fraction(0.0, 10.0), 0.0);
    }

    #[test]
    fn analyze_builds_stats_for_every_column() {
        let table = build_table(500);
        let stats = TableStats::analyze(&table).unwrap();
        assert_eq!(stats.row_count, 500);
        assert_eq!(stats.columns.len(), 4);
        assert!(matches!(stats.column(0), Some(ColumnStats::Numeric(_))));
        assert!(matches!(stats.column(2), Some(ColumnStats::Geo(_))));
        assert!(matches!(stats.column(3), Some(ColumnStats::Text(_))));
    }

    #[test]
    fn geo_uniformity_assumption_is_wrong_for_clustered_data() {
        let table = build_table(1000);
        let stats = TableStats::analyze(&table).unwrap();
        let ColumnStats::Geo(geo) = stats.column(2).unwrap() else {
            panic!("expected geo stats");
        };
        // Query the dense left cluster: true selectivity is 90% but the uniformity
        // assumption estimates roughly the area fraction, which is far smaller.
        let rect = GeoRect::new(-101.0, 29.0, -94.0, 36.0);
        let estimate = geo.range_selectivity(&rect);
        assert!(
            estimate < 0.5,
            "uniformity estimate should be small, got {estimate}"
        );
    }

    /// One `(+inf, lat)` row neither zeroes the estimate of a finite
    /// viewport nor turns an infinite one into NaN: the bounds keep to the
    /// finite points.
    #[test]
    fn infinite_points_do_not_stretch_the_geo_bounds() {
        let geo_of = |infinite: bool| {
            let mut b =
                TableBuilder::new(TableSchema::new("g").with_column("loc", ColumnType::Geo));
            for i in 0..1_000 {
                let lon = if infinite && i == 0 {
                    f64::INFINITY
                } else {
                    -100.0 + (i % 40) as f64
                };
                b.push_row(|row| row.set_geo("loc", lon, 30.0 + (i / 40) as f64));
            }
            match TableStats::analyze(&b.build()).unwrap().column(0) {
                Some(ColumnStats::Geo(geo)) => geo.clone(),
                other => panic!("expected geo stats, got {other:?}"),
            }
        };
        let (clean, dirty) = (geo_of(false), geo_of(true));
        assert_eq!(dirty.count, 1_000);
        assert_eq!(dirty.bounds, clean.bounds);
        let half = GeoRect::new(-100.0, 30.0, -80.0, 54.0);
        let estimate = dirty.range_selectivity(&half);
        assert!((estimate - 0.51).abs() < 0.01, "estimate {estimate}");
        let everywhere = GeoRect::new(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        );
        assert_eq!(dirty.range_selectivity(&everywhere), 1.0);
    }

    #[test]
    fn text_stats_common_token_estimated_exactly() {
        let table = build_table(1000);
        let stats = TableStats::analyze(&table).unwrap();
        let ColumnStats::Text(text) = stats.column(3).unwrap() else {
            panic!("expected text stats");
        };
        let common = table.dictionary().lookup("common");
        let sel = text.keyword_selectivity(common);
        assert!(
            (sel - 0.99).abs() < 0.02,
            "common token should be accurate, got {sel}"
        );
    }

    #[test]
    fn text_stats_unknown_token_falls_back_to_average() {
        let table = build_table(1000);
        let stats = TableStats::analyze(&table).unwrap();
        let ColumnStats::Text(text) = stats.column(3).unwrap() else {
            panic!("expected text stats");
        };
        let sel_unknown = text.keyword_selectivity(None);
        // Average doc freq = (990 + 10) / 2 = 500 docs -> 0.5 selectivity: wildly wrong
        // for the rare token, which is the point.
        assert!(sel_unknown > 0.3);
    }

    #[test]
    fn keyword_selectivity_empty_table_is_zero() {
        let stats = TextStats {
            distinct_tokens: 0,
            avg_doc_freq: 0.0,
            most_common: vec![],
            doc_count: 0,
        };
        assert_eq!(stats.keyword_selectivity(None), 0.0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn histogram_fraction_within_bounds(
                values in proptest::collection::vec(-1e6f64..1e6, 1..500),
                lo in -2e6f64..2e6,
                width in 0.0f64..1e6,
            ) {
                let h = Histogram::build(values.iter().copied());
                let f = h.range_fraction(lo, lo + width);
                prop_assert!((0.0..=1.0).contains(&f));
            }

            #[test]
            fn histogram_full_range_close_to_one(
                values in proptest::collection::vec(-1000.0f64..1000.0, 2..500),
            ) {
                let h = Histogram::build(values.iter().copied());
                let f = h.range_fraction(h.min(), h.max());
                prop_assert!(f > 0.95, "full range fraction {f}");
            }
        }
    }
}
