//! Stable 64-bit fingerprints for queries and rewrite options.
//!
//! Fingerprints are used as memo keys (execution times, selectivities, decisions) and as
//! seeds for deterministic per-query pseudo-randomness (commercial profile noise). They
//! must be stable across runs, so they are computed structurally (hashing float bits)
//! rather than via `Hash` derives or debug formatting.

use crate::approx::ApproxRule;
use crate::hints::{HintSet, JoinMethod, RewriteOption};
use crate::query::{OutputKind, Predicate, Query};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// A tiny FNV-1a accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fingerprint {
    /// Starts a new fingerprint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mixes raw bytes into the fingerprint.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Mixes a `u64` into the fingerprint.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Mixes an `i64` into the fingerprint.
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Mixes an `f64` (by bit pattern) into the fingerprint.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Mixes a string into the fingerprint.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes()).write_u64(s.len() as u64)
    }

    /// Finalises the fingerprint.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a predicate.
pub fn predicate_fingerprint(pred: &Predicate) -> u64 {
    let mut fp = Fingerprint::new();
    write_predicate(&mut fp, pred);
    fp.finish()
}

fn write_predicate(fp: &mut Fingerprint, pred: &Predicate) {
    match pred {
        Predicate::KeywordContains { attr, keyword } => {
            fp.write_u64(1).write_u64(*attr as u64).write_str(keyword);
        }
        Predicate::TimeRange { attr, range } => {
            fp.write_u64(2)
                .write_u64(*attr as u64)
                .write_i64(range.start)
                .write_i64(range.end);
        }
        Predicate::SpatialRange { attr, rect } => {
            fp.write_u64(3)
                .write_u64(*attr as u64)
                .write_f64(rect.min_lon)
                .write_f64(rect.min_lat)
                .write_f64(rect.max_lon)
                .write_f64(rect.max_lat);
        }
        Predicate::NumericRange { attr, range } => {
            fp.write_u64(4)
                .write_u64(*attr as u64)
                .write_f64(range.lo)
                .write_f64(range.hi);
        }
    }
}

/// Fingerprint of a whole query.
pub fn query_fingerprint(query: &Query) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str(&query.table);
    for pred in &query.predicates {
        write_predicate(&mut fp, pred);
    }
    if let Some(join) = &query.join {
        fp.write_str(&join.right_table)
            .write_u64(join.left_attr as u64)
            .write_u64(join.right_attr as u64);
        for pred in &join.right_predicates {
            write_predicate(&mut fp, pred);
        }
    }
    match &query.output {
        OutputKind::Points {
            id_attr,
            point_attr,
        } => {
            fp.write_u64(10)
                .write_u64(*id_attr as u64)
                .write_u64(*point_attr as u64);
        }
        OutputKind::BinnedCounts { point_attr, grid } => {
            // All four rect coordinates must participate: hashing only one corner
            // made every viewport sharing that corner alias to one cache entry,
            // poisoning the execution-time and selectivity caches.
            fp.write_u64(11)
                .write_u64(*point_attr as u64)
                .write_u64(grid.cols as u64)
                .write_u64(grid.rows as u64)
                .write_f64(grid.extent.min_lon)
                .write_f64(grid.extent.min_lat)
                .write_f64(grid.extent.max_lon)
                .write_f64(grid.extent.max_lat);
        }
        OutputKind::Count => {
            fp.write_u64(12);
        }
    }
    // Tag both branches so a `Some(limit)` write can never be confused with any
    // untagged neighbouring field (and present/absent streams always differ).
    match query.limit {
        Some(limit) => {
            fp.write_u64(20).write_u64(limit as u64);
        }
        None => {
            fp.write_u64(21);
        }
    }
    fp.finish()
}

/// Fingerprint of a hint set.
pub fn hint_fingerprint(hints: &HintSet) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_u64(hints.index_mask as u64)
        .write_u64(hints.forced as u64)
        .write_u64(match hints.join_method {
            None => 0,
            Some(JoinMethod::NestLoop) => 1,
            Some(JoinMethod::Hash) => 2,
            Some(JoinMethod::Merge) => 3,
        });
    fp.finish()
}

/// Fingerprint of a rewrite option.
pub fn rewrite_fingerprint(ro: &RewriteOption) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_u64(hint_fingerprint(&ro.hints));
    match &ro.approx {
        None => fp.write_u64(0),
        // Tag 3, as when tags 1 and 2 named sample rules, so no fingerprint
        // moves.
        Some(ApproxRule::LimitPermille { permille }) => fp.write_u64(3).write_u64(*permille as u64),
    };
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::HintSet;
    use crate::types::GeoRect;

    fn query_a() -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 0, 86_400))
    }

    #[test]
    fn same_query_same_fingerprint() {
        assert_eq!(query_fingerprint(&query_a()), query_fingerprint(&query_a()));
    }

    #[test]
    fn different_keyword_different_fingerprint() {
        let b = Query::select("tweets")
            .filter(Predicate::keyword(3, "vaccine"))
            .filter(Predicate::time_range(1, 0, 86_400));
        assert_ne!(query_fingerprint(&query_a()), query_fingerprint(&b));
    }

    #[test]
    fn different_range_different_fingerprint() {
        let b = Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 0, 86_401));
        assert_ne!(query_fingerprint(&query_a()), query_fingerprint(&b));
    }

    #[test]
    fn spatial_rect_affects_fingerprint() {
        let a = Query::select("t").filter(Predicate::spatial_range(
            0,
            GeoRect::new(0.0, 0.0, 1.0, 1.0),
        ));
        let b = Query::select("t").filter(Predicate::spatial_range(
            0,
            GeoRect::new(0.0, 0.0, 1.0, 1.000001),
        ));
        assert_ne!(query_fingerprint(&a), query_fingerprint(&b));
    }

    #[test]
    fn rewrite_fingerprints_distinguish_masks_and_rules() {
        let a = RewriteOption::hinted(HintSet::with_mask(0b001));
        let b = RewriteOption::hinted(HintSet::with_mask(0b010));
        let c = RewriteOption::approximate(
            HintSet::with_mask(0b001),
            ApproxRule::LimitPermille { permille: 40 },
        );
        let d = RewriteOption::approximate(
            HintSet::with_mask(0b001),
            ApproxRule::LimitPermille { permille: 20 },
        );
        let fps = [
            rewrite_fingerprint(&a),
            rewrite_fingerprint(&b),
            rewrite_fingerprint(&c),
            rewrite_fingerprint(&d),
        ];
        let unique: std::collections::HashSet<_> = fps.iter().collect();
        assert_eq!(unique.len(), 4);
    }

    /// Regression test for the cache-poisoning collision: two heatmap viewports
    /// sharing only the north-west corner (`min_lon` / `max_lat`) used to hash
    /// identically because the other two rect coordinates were never written.
    #[test]
    fn binned_counts_extent_corners_all_affect_fingerprint() {
        use crate::query::{BinGrid, OutputKind};
        let grid = |rect: GeoRect| {
            Query::select("tweets").output(OutputKind::BinnedCounts {
                point_attr: 2,
                grid: BinGrid::new(rect, 64, 64),
            })
        };
        let base = grid(GeoRect::new(-120.0, 30.0, -110.0, 40.0));
        // Same min_lon and max_lat as `base`, different max_lon / min_lat: a
        // zoomed-out viewport anchored at the same corner.
        let shares_corner = grid(GeoRect::new(-120.0, 25.0, -100.0, 40.0));
        assert_ne!(
            query_fingerprint(&base),
            query_fingerprint(&shares_corner),
            "viewports sharing one corner must not share a fingerprint"
        );
        // Every single-coordinate perturbation must change the fingerprint.
        for rect in [
            GeoRect::new(-121.0, 30.0, -110.0, 40.0),
            GeoRect::new(-120.0, 29.0, -110.0, 40.0),
            GeoRect::new(-120.0, 30.0, -109.0, 40.0),
            GeoRect::new(-120.0, 30.0, -110.0, 41.0),
        ] {
            assert_ne!(query_fingerprint(&base), query_fingerprint(&grid(rect)));
        }
    }

    /// Regression test for the untagged LIMIT write: the limit must be framed by
    /// its own field tag so its raw value can never alias an adjacent untagged
    /// field, and presence/absence must always be distinguished.
    #[test]
    fn limit_is_tagged_and_distinguished() {
        let base = query_a();
        let limited = query_a().limit(12);
        assert_ne!(query_fingerprint(&base), query_fingerprint(&limited));
        // A limit equal to an output-kind tag value must not collapse into it:
        // `Count` output is tag 12, so limit 12 is the adversarial value.
        let count_no_limit = Query::select("t");
        let count_limit_12 = Query::select("t").limit(12);
        let count_limit_20 = Query::select("t").limit(20);
        let fps = [
            query_fingerprint(&count_no_limit),
            query_fingerprint(&count_limit_12),
            query_fingerprint(&count_limit_20),
        ];
        let unique: std::collections::HashSet<_> = fps.iter().collect();
        assert_eq!(unique.len(), 3, "limit presence and value must both matter");
    }

    #[test]
    fn predicate_fingerprint_differs_by_attr() {
        let a = Predicate::numeric_range(0, 1.0, 2.0);
        let b = Predicate::numeric_range(1, 1.0, 2.0);
        assert_ne!(predicate_fingerprint(&a), predicate_fingerprint(&b));
    }
}
