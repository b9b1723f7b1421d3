//! The default (PostgreSQL-like) selectivity estimator.
//!
//! The estimator is accurate for numeric and temporal ranges, for which histograms
//! work well, but systematically wrong for keyword predicates on rare / skewed tokens
//! (it falls back to the average document frequency) and for spatial ranges on
//! clustered data (it assumes spatial uniformity). These errors are the reason the
//! backend often picks a non-viable plan for the original query, which is the problem
//! Maliva exists to fix (paper §1 "Why the database fails?").

use std::collections::HashSet;

use crate::index::index_answers;
use crate::query::Predicate;
use crate::schema::TableSchema;
use crate::stats::{ColumnStats, TableStats};
use crate::storage::Dictionary;

/// Borrowed view over the per-table metadata the estimator and planner need.
#[derive(Debug, Clone, Copy)]
pub struct TableMeta<'a> {
    /// Table statistics (histograms, bounding boxes, token statistics).
    pub stats: &'a TableStats,
    /// Text dictionary of the table (for keyword → token resolution).
    pub dictionary: &'a Dictionary,
    /// The table's schema (column types decide which index answers a predicate).
    pub schema: &'a TableSchema,
    /// Columns that currently have a secondary index.
    pub indexed_columns: &'a HashSet<usize>,
    /// Number of rows.
    pub row_count: usize,
}

impl TableMeta<'_> {
    /// Whether an index on the table answers `pred` ([`index_answers`]):
    /// only then may a plan scan it as an index predicate.
    pub(crate) fn has_index_for(&self, pred: &Predicate) -> bool {
        let attr = pred.attr();
        self.indexed_columns.contains(&attr)
            && self
                .schema
                .column_type(attr)
                .is_ok_and(|ty| index_answers(pred, ty))
    }
}

/// Estimates the selectivity (fraction of rows matching) of `pred` using only the
/// optimizer statistics in `meta`.
pub fn estimate_selectivity(meta: &TableMeta<'_>, pred: &Predicate) -> f64 {
    let sel = match pred {
        Predicate::KeywordContains { attr, keyword } => match meta.stats.column(*attr) {
            Some(ColumnStats::Text(text)) => {
                let token = meta.dictionary.lookup(keyword);
                text.keyword_selectivity(token)
            }
            _ => default_selectivity(),
        },
        Predicate::TimeRange { attr, range } => match meta.stats.column(*attr) {
            Some(ColumnStats::Numeric(hist)) => {
                hist.range_fraction(range.start as f64, range.end as f64)
            }
            _ => default_selectivity(),
        },
        Predicate::NumericRange { attr, range } => match meta.stats.column(*attr) {
            Some(ColumnStats::Numeric(hist)) => hist.range_fraction(range.lo, range.hi),
            _ => default_selectivity(),
        },
        Predicate::SpatialRange { attr, rect } => match meta.stats.column(*attr) {
            Some(ColumnStats::Geo(geo)) => geo.range_selectivity(rect),
            _ => default_selectivity(),
        },
    };
    sel.clamp(0.0, 1.0)
}

/// The fall-back selectivity used when no statistics are available; PostgreSQL uses a
/// similar magic constant for unknown predicates.
fn default_selectivity() -> f64 {
    0.005
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, TableSchema};
    use crate::storage::{Table, TableBuilder};
    use crate::types::GeoRect;

    /// Data with a hot spatial cluster and a skewed keyword distribution.
    fn table() -> Table {
        let schema = TableSchema::new("tweets")
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for i in 0..2000usize {
            b.push_row(|row| {
                row.set_timestamp("created_at", (i * 100) as i64);
                // 95% of points in a small hot cluster, the rest spread wide.
                if i % 20 != 0 {
                    row.set_geo("coordinates", -118.0 + (i % 10) as f64 * 0.01, 34.0);
                } else {
                    row.set_geo("coordinates", -70.0 - (i % 50) as f64, 45.0);
                }
                // "covid" appears in 30% of documents; a long tail of rare words fills
                // the dictionary so the average document frequency is tiny.
                let rare = format!("rare{}", i);
                let words: Vec<&str> = if i % 10 < 3 {
                    vec!["covid", rare.as_str()]
                } else {
                    vec!["weather", rare.as_str()]
                };
                row.set_text("text", &words);
            });
        }
        b.build()
    }

    fn meta_of(table: &Table, stats: &TableStats, indexed: &HashSet<usize>) -> f64 {
        // convenience no-op to silence unused warnings in some test configurations
        let _ = (table, stats, indexed);
        0.0
    }

    #[test]
    fn temporal_estimate_is_accurate() {
        let t = table();
        let stats = TableStats::analyze(&t).unwrap();
        let indexed = HashSet::new();
        let meta = TableMeta {
            stats: &stats,
            dictionary: t.dictionary(),
            schema: t.schema(),
            indexed_columns: &indexed,
            row_count: t.row_count(),
        };
        let _ = meta_of(&t, &stats, &indexed);
        // Half of the timestamps are below 100_000.
        let sel = estimate_selectivity(&meta, &Predicate::time_range(0, 0, 99_999));
        assert!((sel - 0.5).abs() < 0.05, "estimated {sel}");
    }

    #[test]
    fn spatial_estimate_underestimates_hot_cluster() {
        let t = table();
        let stats = TableStats::analyze(&t).unwrap();
        let indexed = HashSet::new();
        let meta = TableMeta {
            stats: &stats,
            dictionary: t.dictionary(),
            schema: t.schema(),
            indexed_columns: &indexed,
            row_count: t.row_count(),
        };
        // The hot cluster rectangle actually contains 95% of rows.
        let rect = GeoRect::new(-118.5, 33.5, -117.5, 34.5);
        let sel = estimate_selectivity(&meta, &Predicate::spatial_range(1, rect));
        assert!(
            sel < 0.1,
            "uniformity assumption should grossly underestimate, got {sel}"
        );
    }

    #[test]
    fn keyword_estimate_underestimates_mid_frequency_token() {
        // 120 "hot" words each in 10% of documents saturate the most-common-token list;
        // "covid" appears in 5% of documents but is *not* tracked, so the estimator
        // falls back to the (tiny) average document frequency and grossly
        // underestimates it — the exact failure mode the paper describes.
        let schema = TableSchema::new("tweets").with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for i in 0..2000usize {
            b.push_row(|row| {
                let rare = format!("rare{i}");
                let mut words: Vec<String> = vec![rare];
                for hot in 0..120usize {
                    if i % 10 == hot % 10 {
                        words.push(format!("hot{hot}"));
                    }
                }
                if i % 20 == 0 {
                    words.push("covid".to_string());
                }
                let refs: Vec<&str> = words.iter().map(String::as_str).collect();
                row.set_text("text", &refs);
            });
        }
        let t = b.build();
        let stats = TableStats::analyze(&t).unwrap();
        let indexed = HashSet::new();
        let meta = TableMeta {
            stats: &stats,
            dictionary: t.dictionary(),
            schema: t.schema(),
            indexed_columns: &indexed,
            row_count: t.row_count(),
        };
        let truth = 0.05;
        let estimate = estimate_selectivity(&meta, &Predicate::keyword(0, "covid"));
        assert!(
            estimate < truth / 2.0,
            "estimate {estimate} should badly underestimate the true selectivity {truth}"
        );
    }

    #[test]
    fn unknown_keyword_gets_fallback() {
        let t = table();
        let stats = TableStats::analyze(&t).unwrap();
        let indexed = HashSet::new();
        let meta = TableMeta {
            stats: &stats,
            dictionary: t.dictionary(),
            schema: t.schema(),
            indexed_columns: &indexed,
            row_count: t.row_count(),
        };
        let sel = estimate_selectivity(&meta, &Predicate::keyword(2, "notaword"));
        assert!(sel > 0.0);
    }

    #[test]
    fn estimates_clamped_to_unit_interval() {
        let t = table();
        let stats = TableStats::analyze(&t).unwrap();
        let indexed = HashSet::new();
        let meta = TableMeta {
            stats: &stats,
            dictionary: t.dictionary(),
            schema: t.schema(),
            indexed_columns: &indexed,
            row_count: t.row_count(),
        };
        let preds = [
            Predicate::time_range(0, i64::MIN / 4, i64::MAX / 4),
            Predicate::spatial_range(1, GeoRect::new(-180.0, -90.0, 180.0, 90.0)),
            Predicate::numeric_range(0, f64::MIN / 2.0, f64::MAX / 2.0),
        ];
        for p in &preds {
            let sel = estimate_selectivity(&meta, p);
            assert!((0.0..=1.0).contains(&sel), "{p:?} -> {sel}");
        }
    }
}
