//! # maliva-quality — the visualization quality function
//!
//! When Maliva rewrites a query with an approximation rule, the rewritten query's
//! result differs from the original query's result. The paper assumes a given quality
//! function `F(r(Q), r(RQ))` in `[0, 1]` (§2, §6) and notes that Maliva places no
//! restriction on which function is used — Jaccard similarity for scatterplots,
//! distribution precision for pie charts, or perceptual functions such as VAS.
//!
//! This crate provides the one every experiment uses, Jaccard similarity (paper
//! Fig. 9), over [`vizdb::exec::QueryResult`]s.

use std::collections::BTreeSet;

use vizdb::exec::QueryResult;

/// Jaccard similarity between the two results.
///
/// * Point results: Jaccard over the sets of returned record ids.
/// * Binned results: weighted Jaccard over the bin-count vectors
///   (`Σ min(a, b) / Σ max(a, b)`), which reduces to set Jaccard for 0/1 counts.
/// * Counts: ratio of the smaller to the larger count.
/// * Mixed kinds: 0.0 (the visualizations are not comparable).
pub fn jaccard_quality(exact: &QueryResult, approx: &QueryResult) -> f64 {
    match (exact, approx) {
        (QueryResult::Points(_), QueryResult::Points(_)) => {
            let a: BTreeSet<i64> = exact.point_ids().unwrap_or_default().into_iter().collect();
            let b: BTreeSet<i64> = approx.point_ids().unwrap_or_default().into_iter().collect();
            if a.is_empty() && b.is_empty() {
                return 1.0;
            }
            let inter = a.intersection(&b).count() as f64;
            let union = a.union(&b).count() as f64;
            if union == 0.0 {
                1.0
            } else {
                inter / union
            }
        }
        (QueryResult::Bins(_), QueryResult::Bins(_)) => {
            let a = exact.bin_map().unwrap_or_default();
            let b = approx.bin_map().unwrap_or_default();
            if a.is_empty() && b.is_empty() {
                return 1.0;
            }
            let keys: BTreeSet<u32> = a.keys().chain(b.keys()).copied().collect();
            let mut num = 0.0;
            let mut den = 0.0;
            for k in keys {
                let x = *a.get(&k).unwrap_or(&0) as f64;
                let y = *b.get(&k).unwrap_or(&0) as f64;
                num += x.min(y);
                den += x.max(y);
            }
            if den == 0.0 {
                1.0
            } else {
                num / den
            }
        }
        (QueryResult::Count(a), QueryResult::Count(b)) => {
            let (a, b) = (*a as f64, *b as f64);
            if a == 0.0 && b == 0.0 {
                1.0
            } else {
                a.min(b) / a.max(b)
            }
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizdb::types::GeoPoint;

    fn points(ids: &[i64]) -> QueryResult {
        QueryResult::Points(
            ids.iter()
                .map(|&id| (id, GeoPoint::new(id as f64, id as f64)))
                .collect(),
        )
    }

    #[test]
    fn jaccard_identical_points_is_one() {
        let a = points(&[1, 2, 3]);
        assert_eq!(jaccard_quality(&a, &a), 1.0);
    }

    #[test]
    fn jaccard_disjoint_points_is_zero() {
        assert_eq!(jaccard_quality(&points(&[1, 2]), &points(&[3, 4])), 0.0);
    }

    #[test]
    fn jaccard_partial_overlap() {
        // |{1,2,3} ∩ {2,3,4}| = 2, union = 4 -> 0.5
        let q = jaccard_quality(&points(&[1, 2, 3]), &points(&[2, 3, 4]));
        assert!((q - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_subset_matches_fraction() {
        // A 60% sample of the exact result: 3 of 5 ids.
        let q = jaccard_quality(&points(&[1, 2, 3, 4, 5]), &points(&[1, 3, 5]));
        assert!((q - 0.6).abs() < 1e-12);
    }

    #[test]
    fn jaccard_bins_weighted() {
        let exact = QueryResult::Bins(vec![(0, 10), (1, 10)]);
        let approx = QueryResult::Bins(vec![(0, 5), (1, 10)]);
        // min-sum 15 / max-sum 20.
        assert!((jaccard_quality(&exact, &approx) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn jaccard_counts_and_empty_results() {
        assert_eq!(
            jaccard_quality(&QueryResult::Count(50), &QueryResult::Count(100)),
            0.5
        );
        assert_eq!(
            jaccard_quality(&QueryResult::Count(0), &QueryResult::Count(0)),
            1.0
        );
        assert_eq!(jaccard_quality(&points(&[]), &points(&[])), 1.0);
    }

    #[test]
    fn jaccard_mixed_kinds_is_zero() {
        assert_eq!(jaccard_quality(&points(&[1]), &QueryResult::Count(1)), 0.0);
    }

    #[test]
    fn qualities_are_bounded() {
        let cases = [
            (points(&[1, 2, 3]), points(&[4, 5])),
            (
                QueryResult::Bins(vec![(0, 7)]),
                QueryResult::Bins(vec![(3, 2)]),
            ),
            (QueryResult::Count(10), QueryResult::Count(3)),
        ];
        for (a, b) in &cases {
            let q = jaccard_quality(a, b);
            assert!((0.0..=1.0).contains(&q), "out of bounds: {q}");
        }
    }
}
