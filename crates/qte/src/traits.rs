//! The Query Time Estimator interface.

use vizdb::error::Result;
use vizdb::hints::RewriteOption;
use vizdb::query::Query;

use crate::context::EstimationContext;

/// What one estimation call produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReport {
    /// Predicted execution time of the rewritten query, in (simulated) milliseconds.
    pub estimated_ms: f64,
    /// Planning cost actually paid for this estimate, in (simulated) milliseconds.
    pub cost_ms: f64,
}

/// A Query Time Estimator: predicts execution times of rewritten queries at a cost.
pub trait QueryTimeEstimator: Send + Sync {
    /// Short display name ("accurate", "approximate"), used in experiment output.
    fn name(&self) -> &'static str;

    /// Planning cost (ms) this estimator would charge for estimating `ro` given the
    /// selectivities already collected in `ctx`. This populates the estimation-cost
    /// slots of the MDP state.
    fn estimation_cost(&self, query: &Query, ro: &RewriteOption, ctx: &EstimationContext) -> f64;

    /// Performs the estimation: collects any missing selectivities (updating `ctx`),
    /// pays the corresponding cost and returns the predicted execution time.
    fn estimate(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &mut EstimationContext,
    ) -> Result<EstimateReport>;
}

/// The selectivity slots an estimate for `ro` needs, in ascending order: one slot per
/// fact-table predicate whose index the hint set uses, plus slot `n` (the
/// dimension-side slot) when the rewrite hints a join method and the query has
/// dimension predicates. Nothing is allocated: the estimators walk it on every cost
/// they charge.
pub fn needed_slots<'a>(
    query: &'a Query,
    ro: &'a RewriteOption,
) -> impl Iterator<Item = usize> + 'a {
    let n = query.predicate_count();
    let dimension = ro.hints.join_method.is_some()
        && query
            .join
            .as_ref()
            .is_some_and(|j| !j.right_predicates.is_empty());
    (0..n)
        .filter(|&i| ro.hints.uses_index(i))
        .chain(dimension.then_some(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizdb::hints::{HintSet, JoinMethod};
    use vizdb::query::{JoinSpec, Predicate, Query};

    fn query(join: bool) -> Query {
        let mut q = Query::select("t")
            .filter(Predicate::numeric_range(0, 0.0, 1.0))
            .filter(Predicate::numeric_range(1, 0.0, 1.0))
            .filter(Predicate::numeric_range(2, 0.0, 1.0));
        if join {
            q = q.join_with(JoinSpec {
                right_table: "u".into(),
                left_attr: 3,
                right_attr: 0,
                right_predicates: vec![Predicate::numeric_range(1, 0.0, 10.0)],
            });
        }
        q
    }

    #[test]
    fn slots_follow_index_mask() {
        let q = query(false);
        let ro = RewriteOption::hinted(HintSet::with_mask(0b101));
        assert_eq!(needed_slots(&q, &ro).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn empty_mask_needs_no_slots() {
        let q = query(false);
        let ro = RewriteOption::hinted(HintSet::with_mask(0));
        assert_eq!(needed_slots(&q, &ro).count(), 0);
    }

    /// A 34-predicate query under mask `0b1` needs only slot 0: predicates 32
    /// and 33 lie past the mask and are never hinted.
    #[test]
    fn predicates_past_the_mask_need_no_slots() {
        let q = (0..34).fold(Query::select("t"), |q, i| {
            q.filter(Predicate::numeric_range(i, 0.0, 1.0))
        });
        let ro = RewriteOption::hinted(HintSet::with_mask(0b1));
        assert!(!ro.hints.uses_index(32));
        assert_eq!(needed_slots(&q, &ro).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn join_hint_adds_dimension_slot() {
        let q = query(true);
        let ro = RewriteOption::hinted(HintSet::with_mask(0b011).with_join(JoinMethod::Hash));
        assert_eq!(needed_slots(&q, &ro).collect::<Vec<_>>(), vec![0, 1, 3]);
    }

    #[test]
    fn join_without_dimension_predicates_needs_no_extra_slot() {
        let mut q = query(true);
        q.join.as_mut().unwrap().right_predicates.clear();
        let ro = RewriteOption::hinted(HintSet::with_mask(0b1).with_join(JoinMethod::Merge));
        assert_eq!(needed_slots(&q, &ro).collect::<Vec<_>>(), vec![0]);
    }
}
