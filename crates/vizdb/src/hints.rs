//! Query hints and rewrite options.
//!
//! A *query hint* instructs the database which access path to use (use / don't use the
//! index on each filtering attribute; which join algorithm to apply). A *rewriting
//! option* (paper Definition 2.1) is a pair of a query-hint set and an (optional)
//! approximation-rule set; applying it to an original query yields a *rewritten query*
//! (Definition 2.2).

use serde::{Deserialize, Serialize};

use crate::approx::ApproxRule;
use crate::query::Query;

/// Join algorithm hint, mirroring the paper's `Nest-Loop-Join(t u)` style hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinMethod {
    /// Index nested-loop join (probe the dimension table per fact row).
    NestLoop,
    /// Hash join (build a hash table on the dimension table).
    Hash,
    /// Sort-merge join.
    Merge,
}

impl JoinMethod {
    /// All supported join methods, in a stable order.
    pub fn all() -> [JoinMethod; 3] {
        [JoinMethod::NestLoop, JoinMethod::Hash, JoinMethod::Merge]
    }

    /// Display name used in SQL hint comments.
    pub fn hint_name(&self) -> &'static str {
        match self {
            JoinMethod::NestLoop => "Nest-Loop-Join",
            JoinMethod::Hash => "Hash-Join",
            JoinMethod::Merge => "Merge-Join",
        }
    }
}

/// A set of query hints for one query: which predicate indexes to use and, for join
/// queries, which join method to apply.
///
/// `index_mask` bit `i` set means "use the index for predicate `i`" (predicate order as
/// in [`Query::predicates`]). An all-zero mask with no join hint means "let the
/// database optimizer decide freely", i.e. the original query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HintSet {
    /// Bitmask over the query's predicates: bit `i` = scan the index of predicate `i`.
    pub index_mask: u32,
    /// Join-method hint for join queries.
    pub join_method: Option<JoinMethod>,
    /// When `true` the mask is authoritative even if zero (forces a sequential scan);
    /// when `false` a zero mask means "no hint given".
    pub forced: bool,
}

impl HintSet {
    /// The empty hint set (no hints — the database plans the original query itself).
    pub fn none() -> Self {
        Self {
            index_mask: 0,
            join_method: None,
            forced: false,
        }
    }

    /// A hint set forcing exactly the indexes in `mask` (bit `i` = predicate `i`).
    pub fn with_mask(mask: u32) -> Self {
        Self {
            index_mask: mask,
            join_method: None,
            forced: true,
        }
    }

    /// Adds a join-method hint.
    pub fn with_join(mut self, method: JoinMethod) -> Self {
        self.join_method = Some(method);
        self
    }

    /// Returns `true` when this hint set contains no directives at all.
    pub fn is_empty(&self) -> bool {
        !self.forced && self.join_method.is_none()
    }

    /// Returns `true` when predicate `i`'s index is requested. The mask holds 32
    /// predicates, so a predicate at position 32 or later is never hinted.
    pub fn uses_index(&self, i: usize) -> bool {
        i < u32::BITS as usize && self.index_mask & (1 << i) != 0
    }

    /// Number of requested index scans.
    pub fn index_count(&self) -> usize {
        self.index_mask.count_ones() as usize
    }
}

/// A rewriting option: a hint set plus an optional approximation rule
/// (paper Definition 2.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewriteOption {
    /// The query-hint component (`h` in the paper, possibly empty).
    pub hints: HintSet,
    /// The approximation-rule component (`a` in the paper, possibly absent).
    pub approx: Option<ApproxRule>,
}

impl RewriteOption {
    /// The identity rewrite: `RO = (∅, ∅)`, so `RQ = Q`.
    pub fn original() -> Self {
        Self {
            hints: HintSet::none(),
            approx: None,
        }
    }

    /// An exact (non-approximate) rewrite with the given hints.
    pub fn hinted(hints: HintSet) -> Self {
        Self {
            hints,
            approx: None,
        }
    }

    /// An approximate rewrite combining hints with an approximation rule.
    pub fn approximate(hints: HintSet, rule: ApproxRule) -> Self {
        Self {
            hints,
            approx: Some(rule),
        }
    }

    /// Returns `true` when the rewritten query returns exact (lossless) results.
    pub fn is_exact(&self) -> bool {
        self.approx.is_none()
    }

    /// Returns `true` when this is the identity rewrite.
    pub fn is_original(&self) -> bool {
        self.hints.is_empty() && self.approx.is_none()
    }
}

/// Enumerates the candidate hint sets for a query, exactly as the paper sets up its
/// experiments:
///
/// * single-table query with `m` predicates → all `2^m` use / don't-use index
///   combinations (paper §3: "we have 2^3 = 8 query-hint sets");
/// * join query with `m` predicates → the `2^m − 1` non-empty index combinations × the
///   3 join methods (paper §7.5: "7 different ways of using or not using indexes on the
///   three attributes and 3 different join methods ... 21 query-hint sets in total").
pub fn enumerate_hint_sets(query: &Query) -> Vec<HintSet> {
    let m = query.predicate_count().min(31) as u32;
    let mut out = Vec::new();
    if query.is_join() {
        for mask in 1..(1u32 << m) {
            for method in JoinMethod::all() {
                out.push(HintSet::with_mask(mask).with_join(method));
            }
        }
    } else {
        for mask in 0..(1u32 << m) {
            out.push(HintSet::with_mask(mask));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{JoinSpec, Predicate};

    fn plain_query(preds: usize) -> Query {
        let mut q = Query::select("tweets");
        for i in 0..preds {
            q = q.filter(Predicate::numeric_range(i, 0.0, 1.0));
        }
        q
    }

    #[test]
    fn hint_set_mask_accessors() {
        let h = HintSet::with_mask(0b101);
        assert!(h.uses_index(0));
        assert!(!h.uses_index(1));
        assert!(h.uses_index(2));
        assert_eq!(h.index_count(), 2);
        assert!(!h.is_empty());
        // Past the mask's 32 bits nothing is hinted; the shift neither overflows
        // nor wraps onto predicate `i % 32`.
        assert!(HintSet::with_mask(1 << 31).uses_index(31));
        for i in [32, 34, 64, usize::MAX] {
            assert!(!h.uses_index(i), "predicate {i}");
        }
    }

    #[test]
    fn empty_hint_set() {
        let h = HintSet::none();
        assert!(h.is_empty());
        assert_eq!(h.index_count(), 0);
        let forced_seqscan = HintSet::with_mask(0);
        assert!(!forced_seqscan.is_empty());
    }

    #[test]
    fn enumerate_single_table_is_power_of_two() {
        let q = plain_query(3);
        let sets = enumerate_hint_sets(&q);
        assert_eq!(sets.len(), 8);
        // All masks distinct.
        let masks: std::collections::HashSet<u32> = sets.iter().map(|h| h.index_mask).collect();
        assert_eq!(masks.len(), 8);
        assert!(sets.iter().all(|h| h.join_method.is_none()));
    }

    #[test]
    fn enumerate_matches_paper_table3_sizes() {
        assert_eq!(enumerate_hint_sets(&plain_query(4)).len(), 16);
        assert_eq!(enumerate_hint_sets(&plain_query(5)).len(), 32);
    }

    #[test]
    fn enumerate_join_query_is_21_for_three_predicates() {
        let q = plain_query(3).join_with(JoinSpec {
            right_table: "users".into(),
            left_attr: 5,
            right_attr: 0,
            right_predicates: vec![],
        });
        let sets = enumerate_hint_sets(&q);
        assert_eq!(sets.len(), 21);
        assert!(sets.iter().all(|h| h.join_method.is_some()));
        assert!(sets.iter().all(|h| h.index_mask != 0));
    }

    #[test]
    fn rewrite_option_classification() {
        let original = RewriteOption::original();
        assert!(original.is_original());
        assert!(original.is_exact());

        let hinted = RewriteOption::hinted(HintSet::with_mask(0b1));
        assert!(!hinted.is_original());
        assert!(hinted.is_exact());

        let approx =
            RewriteOption::approximate(HintSet::none(), ApproxRule::LimitPermille { permille: 40 });
        assert!(!approx.is_exact());
        assert!(!approx.is_original());
    }

    #[test]
    fn join_methods_have_unique_names() {
        let names: std::collections::HashSet<_> =
            JoinMethod::all().iter().map(|m| m.hint_name()).collect();
        assert_eq!(names.len(), 3);
    }
}
