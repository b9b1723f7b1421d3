//! Secondary indexes: B+-tree (ordered keys), R-tree (spatial) and inverted index
//! (keyword). These are the structures the paper's query hints steer the database
//! towards or away from.

mod btree;
mod inverted;
pub mod posting;
mod prefix;
mod rtree;

pub use btree::BPlusTree;
pub use inverted::InvertedIndex;
pub use posting::PostingList;
pub(crate) use prefix::Span;
pub use rtree::RTree;

use crate::query::Predicate;
use crate::schema::ColumnType;
use crate::types::RecordId;

/// Whether the index `Database::build_index` puts on a column of type
/// `column` answers `pred` with the rows a column scan would select: an
/// inverted index a keyword over text, a B+-tree a time range over
/// timestamps (keyed by the raw timestamp) or a numeric range over any
/// numeric column, an R-tree a rectangle over points. The one eligibility
/// rule the planner and the index probes share; any other pairing is left
/// to the scan, which rejects the mistyped predicate.
pub(crate) fn index_answers(pred: &Predicate, column: ColumnType) -> bool {
    use ColumnType::{Float, Geo, Int, Text, Timestamp};
    matches!(
        (pred, column),
        (Predicate::KeywordContains { .. }, Text)
            | (Predicate::TimeRange { .. }, Timestamp)
            | (Predicate::NumericRange { .. }, Int | Float | Timestamp)
            | (Predicate::SpatialRange { .. }, Geo)
    )
}

/// Statistics reported by an index scan, consumed by the simulated-time cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanStats {
    /// Number of matching record ids produced.
    pub matches: usize,
}

/// Common behaviour of all secondary indexes over a single column.
pub trait SecondaryIndex {
    /// Number of indexed entries (rows).
    fn len(&self) -> usize;

    /// Returns `true` when the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate number of heap bytes used, for reporting.
    fn memory_bytes(&self) -> usize;
}

/// Intersects several ascending-sorted record-id lists. The result is sorted.
///
/// This mirrors the "intersect the record lists" strategy a database uses when a query
/// hint asks it to combine multiple single-attribute indexes.
pub fn intersect_sorted(lists: &[Vec<RecordId>]) -> Vec<RecordId> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].clone(),
        _ => {
            // Start from the smallest list to minimise work.
            let mut order: Vec<usize> = (0..lists.len()).collect();
            order.sort_by_key(|&i| lists[i].len());
            let mut acc = lists[order[0]].clone();
            for &i in &order[1..] {
                let other = &lists[i];
                acc = intersect_two(&acc, other);
                if acc.is_empty() {
                    break;
                }
            }
            acc
        }
    }
}

/// Adaptive intersection of several ascending-sorted record-id lists: gallops
/// each element of the (progressively shrinking) smallest list through the
/// larger ones with exponential search instead of merging every pair
/// element-by-element. The result is identical to [`intersect_sorted`] but the
/// cost is `O(n_small · log(n_big / n_small))` per list — the regime index
/// plans actually hit, where one highly selective posting list meets a huge
/// range scan.
pub fn intersect_adaptive(lists: &[Vec<RecordId>]) -> Vec<RecordId> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].clone(),
        _ => {
            let mut order: Vec<usize> = (0..lists.len()).collect();
            order.sort_by_key(|&i| lists[i].len());
            let mut acc = lists[order[0]].clone();
            for &i in &order[1..] {
                if acc.is_empty() {
                    break;
                }
                acc = gallop_intersect(&acc, &lists[i]);
            }
            acc
        }
    }
}

/// Intersects a small sorted list into a large one by galloping: for each probe
/// the search window doubles from where the previous probe landed, then a binary
/// search pins the exact position inside the window.
fn gallop_intersect(small: &[RecordId], large: &[RecordId]) -> Vec<RecordId> {
    let mut out = Vec::with_capacity(small.len());
    let mut cursor = 0usize;
    for &v in small {
        cursor = gallop_to(large, cursor, v);
        if cursor >= large.len() {
            break;
        }
        if large[cursor] == v {
            out.push(v);
            cursor += 1;
        }
    }
    out
}

/// The first index `>= from` with `large[idx] >= v` (or `large.len()`), found by
/// doubling the step from `from` and binary-searching the final window.
fn gallop_to(large: &[RecordId], from: usize, v: RecordId) -> usize {
    if from >= large.len() || large[from] >= v {
        return from;
    }
    // Invariant: large[prev] < v; the answer lies in (prev, hi].
    let mut step = 1usize;
    let mut prev = from;
    loop {
        let next = match from.checked_add(step) {
            Some(n) if n < large.len() => n,
            _ => break,
        };
        if large[next] >= v {
            break;
        }
        prev = next;
        step <<= 1;
    }
    let hi = from.saturating_add(step).min(large.len());
    prev + 1 + large[prev + 1..hi].partition_point(|&x| x < v)
}

/// Work charged for intersecting id lists of the given lengths under the
/// skip/gallop model the executor actually runs: the smallest list `s` drives,
/// and every other list of length `n` costs `s · (1 + ⌊log2(n/s + 1)⌋)` —
/// one block decode plus a logarithmic skip probe per driving entry. This is
/// the *single* formula both the executor (actual charge) and the optimizer's
/// [`predict_work`](crate::optimizer) (estimate, via
/// [`intersect_skip_charge_est`]) use, so charged work always matches
/// predicted work. The classic k-way merge (`Σ nᵢ`) it replaces over-charged
/// exactly the regime index hints steer into: one selective list against a
/// huge range scan.
pub fn intersect_skip_charge(lens: &[usize]) -> u64 {
    if lens.len() < 2 {
        return 0;
    }
    let s = lens.iter().copied().min().unwrap_or(0);
    if s == 0 {
        return 0;
    }
    let mut charge = 0u64;
    let mut skipped_min = false;
    for &n in lens {
        if !skipped_min && n == s {
            skipped_min = true;
            continue;
        }
        let ratio = (n / s) as u64 + 1;
        charge += s as u64 * (1 + ratio.ilog2() as u64);
    }
    charge
}

/// Estimator-side twin of [`intersect_skip_charge`] over fractional expected
/// list lengths. Truncating both to the same integer model keeps the planner's
/// predicted `intersect_entries` consistent with what execution will charge.
pub fn intersect_skip_charge_est(lens: &[f64]) -> f64 {
    if lens.len() < 2 {
        return 0.0;
    }
    let ints: Vec<usize> = lens.iter().map(|&l| l.max(0.0) as usize).collect();
    intersect_skip_charge(&ints) as f64
}

fn intersect_two(a: &[RecordId], b: &[RecordId]) -> Vec<RecordId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_empty_input() {
        assert!(intersect_sorted(&[]).is_empty());
    }

    #[test]
    fn intersect_single_list_is_identity() {
        let lists = vec![vec![1, 5, 9]];
        assert_eq!(intersect_sorted(&lists), vec![1, 5, 9]);
    }

    #[test]
    fn intersect_two_lists() {
        let lists = vec![vec![1, 2, 3, 7, 9], vec![2, 3, 4, 9, 11]];
        assert_eq!(intersect_sorted(&lists), vec![2, 3, 9]);
    }

    #[test]
    fn intersect_three_lists_with_empty_result() {
        let lists = vec![vec![1, 2, 3], vec![2, 3, 4], vec![5, 6]];
        assert!(intersect_sorted(&lists).is_empty());
    }

    #[test]
    fn intersect_is_order_independent() {
        let a = vec![vec![1, 4, 8, 10], vec![4, 10, 20], vec![0, 4, 10, 30]];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(intersect_sorted(&a), intersect_sorted(&b));
        assert_eq!(intersect_sorted(&a), vec![4, 10]);
    }

    #[cfg(test)]
    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            #[test]
            fn intersection_matches_set_semantics(
                a in proptest::collection::btree_set(0u32..200, 0..60),
                b in proptest::collection::btree_set(0u32..200, 0..60),
                c in proptest::collection::btree_set(0u32..200, 0..60),
            ) {
                let lists = vec![
                    a.iter().copied().collect::<Vec<_>>(),
                    b.iter().copied().collect::<Vec<_>>(),
                    c.iter().copied().collect::<Vec<_>>(),
                ];
                let expected: Vec<u32> = a
                    .intersection(&b)
                    .copied()
                    .collect::<BTreeSet<_>>()
                    .intersection(&c)
                    .copied()
                    .collect();
                prop_assert_eq!(intersect_sorted(&lists), expected);
            }

            #[test]
            fn adaptive_intersection_matches_merge(
                a in proptest::collection::btree_set(0u32..500, 0..80),
                b in proptest::collection::btree_set(0u32..500, 0..300),
                c in proptest::collection::btree_set(0u32..500, 0..300),
            ) {
                let lists = vec![
                    a.iter().copied().collect::<Vec<_>>(),
                    b.iter().copied().collect::<Vec<_>>(),
                    c.iter().copied().collect::<Vec<_>>(),
                ];
                prop_assert_eq!(intersect_adaptive(&lists), intersect_sorted(&lists));
            }
        }
    }

    #[test]
    fn skip_charge_models_gallop_not_merge() {
        // Fewer than two lists, or an empty list, charge nothing.
        assert_eq!(intersect_skip_charge(&[]), 0);
        assert_eq!(intersect_skip_charge(&[1000]), 0);
        assert_eq!(intersect_skip_charge(&[0, 1000]), 0);
        // Equal lists: s·(1 + log2(2)) = 2s per non-driving list.
        assert_eq!(intersect_skip_charge(&[100, 100]), 200);
        // One selective list against a huge scan is charged logarithmically in
        // the ratio — far below the classic merge's Σ nᵢ.
        let skewed = intersect_skip_charge(&[100, 100_000]);
        assert_eq!(skewed, 100 * (1 + (1001u64).ilog2() as u64));
        assert!(skewed < 100_100, "skip charge must undercut the merge");
        // Three-way: both non-driving lists are charged.
        assert_eq!(
            intersect_skip_charge(&[50, 200, 800]),
            50 * (1 + 5u64.ilog2() as u64) + 50 * (1 + 17u64.ilog2() as u64)
        );
        // The estimator truncates to the same integer model.
        assert_eq!(
            intersect_skip_charge_est(&[100.9, 100_000.2]),
            intersect_skip_charge(&[100, 100_000]) as f64
        );
    }

    #[test]
    fn adaptive_handles_trivial_shapes() {
        assert!(intersect_adaptive(&[]).is_empty());
        assert_eq!(intersect_adaptive(&[vec![3, 9]]), vec![3, 9]);
        assert!(intersect_adaptive(&[vec![1, 2], vec![]]).is_empty());
        assert_eq!(
            intersect_adaptive(&[vec![5, 900], (0..1000u32).collect()]),
            vec![5, 900]
        );
        // A probe past the end of the large list must terminate cleanly.
        assert_eq!(
            intersect_adaptive(&[vec![5, 2000], (0..1000u32).collect()]),
            vec![5]
        );
    }
}
