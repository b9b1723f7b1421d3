//! The rewrite-option space Ω = {RO₁, …, ROₙ} an agent chooses from.

use serde::{Deserialize, Serialize};

use vizdb::approx::ApproxRule;
use vizdb::hints::{enumerate_hint_sets, HintSet, RewriteOption};
use vizdb::query::Query;

/// An ordered set of candidate rewrite options for one query shape.
///
/// The MDP state and the Q-network output are indexed by positions in this space, so
/// the same space must be used at training and inference time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewriteSpace {
    options: Vec<RewriteOption>,
}

impl RewriteSpace {
    /// Builds a space from explicit rewrite options.
    ///
    /// # Panics
    /// Panics when `options` is empty.
    pub fn new(options: Vec<RewriteOption>) -> Self {
        assert!(!options.is_empty(), "rewrite space cannot be empty");
        Self { options }
    }

    /// The paper's exact-rewriting setting: every hint set applicable to `query`
    /// (2^m for single-table queries, (2^m − 1) × 3 for join queries), no approximation.
    pub fn hints_only(query: &Query) -> Self {
        Self::new(
            enumerate_hint_sets(query)
                .into_iter()
                .map(RewriteOption::hinted)
                .collect(),
        )
    }

    /// A space restricted to index hints over the first `m` predicates (2^m options,
    /// no join-method hints). Used by the unseen-query-shape experiment where the
    /// training and testing spaces must have the same size.
    pub fn index_hints(m: usize) -> Self {
        assert!(m <= 16, "at most 16 hinted predicates supported");
        Self::new(
            (0..(1u32 << m))
                .map(|mask| RewriteOption::hinted(HintSet::with_mask(mask)))
                .collect(),
        )
    }

    /// The quality-aware one-stage space: every hint set, each either exact or combined
    /// with one of the `rules` (size = |hints| × (1 + |rules|)).
    pub fn with_approx_rules(query: &Query, rules: &[ApproxRule]) -> Self {
        let hints = enumerate_hint_sets(query);
        let mut options = Vec::with_capacity(hints.len() * (1 + rules.len()));
        for h in &hints {
            options.push(RewriteOption::hinted(*h));
        }
        for h in &hints {
            for rule in rules {
                options.push(RewriteOption::approximate(*h, *rule));
            }
        }
        Self::new(options)
    }

    /// The quality-aware two-stage *second stage* space: every hint set combined with
    /// each approximation rule (size = |hints| × |rules|, no exact options — those were
    /// exhausted by the first stage).
    pub fn approx_only(query: &Query, rules: &[ApproxRule]) -> Self {
        let hints = enumerate_hint_sets(query);
        let mut options = Vec::with_capacity(hints.len() * rules.len());
        for h in &hints {
            for rule in rules {
                options.push(RewriteOption::approximate(*h, *rule));
            }
        }
        Self::new(options)
    }

    /// Number of rewrite options.
    pub fn len(&self) -> usize {
        self.options.len()
    }

    /// Returns `true` when the space is empty (never true for a constructed space).
    pub fn is_empty(&self) -> bool {
        self.options.is_empty()
    }

    /// The rewrite option at position `i`.
    pub fn get(&self, i: usize) -> &RewriteOption {
        &self.options[i]
    }

    /// All options in order.
    pub fn options(&self) -> &[RewriteOption] {
        &self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizdb::query::{JoinSpec, Predicate};

    fn query(preds: usize) -> Query {
        let mut q = Query::select("t");
        for i in 0..preds {
            q = q.filter(Predicate::numeric_range(i, 0.0, 1.0));
        }
        q
    }

    #[test]
    fn hints_only_space_matches_paper_sizes() {
        assert_eq!(RewriteSpace::hints_only(&query(3)).len(), 8);
        assert_eq!(RewriteSpace::hints_only(&query(4)).len(), 16);
        assert_eq!(RewriteSpace::hints_only(&query(5)).len(), 32);
    }

    #[test]
    fn join_space_is_21() {
        let q = query(3).join_with(JoinSpec {
            right_table: "u".into(),
            left_attr: 0,
            right_attr: 0,
            right_predicates: vec![],
        });
        assert_eq!(RewriteSpace::hints_only(&q).len(), 21);
    }

    #[test]
    fn one_stage_space_combines_exact_and_approx() {
        let rules = ApproxRule::paper_limit_rules();
        let space = RewriteSpace::with_approx_rules(&query(3), &rules);
        assert_eq!(space.len(), 8 * (1 + 5));
        assert_eq!(space.options().iter().filter(|ro| ro.is_exact()).count(), 8);
    }

    #[test]
    fn second_stage_space_is_cross_product() {
        let rules = ApproxRule::paper_limit_rules();
        let space = RewriteSpace::approx_only(&query(3), &rules);
        assert_eq!(space.len(), 40);
        assert!(!space.options().iter().any(|ro| ro.is_exact()));
    }

    #[test]
    fn index_hints_space_has_power_of_two_options() {
        let space = RewriteSpace::index_hints(3);
        assert_eq!(space.len(), 8);
        assert!(space.options().iter().all(|ro| ro.is_exact()));
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_space_panics() {
        let _ = RewriteSpace::new(vec![]);
    }
}
