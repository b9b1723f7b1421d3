//! Evaluation metrics: viable-query percentage (VQP) and average query response time
//! (AQRT), computed per difficulty bucket exactly as in the paper's §7.1.

use std::collections::BTreeMap;

use maliva_quality::jaccard_quality;
use serde::{Deserialize, Serialize};
use vizdb::error::Result;
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::QueryBackend;

use crate::rewriter::QueryRewriter;

/// Per-query evaluation record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Planning time the middleware spent, in milliseconds.
    pub planning_ms: f64,
    /// Execution time of the chosen rewritten query, in milliseconds.
    pub exec_ms: f64,
    /// Total response time.
    pub total_ms: f64,
    /// Whether the total response time met the budget.
    pub viable: bool,
    /// Whether the chosen rewrite was exact (no approximation rule).
    pub exact: bool,
    /// Quality of the answer in `[0, 1]`: 1 for an exact rewrite, otherwise the
    /// Jaccard similarity of the approximate answer to the exact one.
    pub quality: f64,
}

/// Aggregated workload metrics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadMetrics {
    /// Number of evaluated queries.
    pub queries: usize,
    /// Viable-query percentage, in `[0, 100]`.
    pub vqp: f64,
    /// Average query response time (planning + execution), in milliseconds.
    pub aqrt_ms: f64,
    /// Average planning time, in milliseconds.
    pub avg_planning_ms: f64,
    /// Average execution time, in milliseconds.
    pub avg_exec_ms: f64,
    /// Per-query outcomes (same order as the evaluated workload).
    pub outcomes: Vec<QueryOutcome>,
}

impl WorkloadMetrics {
    fn from_outcomes(outcomes: Vec<QueryOutcome>) -> Self {
        let n = outcomes.len().max(1) as f64;
        let viable = outcomes.iter().filter(|o| o.viable).count() as f64;
        let planning: f64 = outcomes.iter().map(|o| o.planning_ms).sum();
        let exec: f64 = outcomes.iter().map(|o| o.exec_ms).sum();
        let total: f64 = outcomes.iter().map(|o| o.total_ms).sum();
        Self {
            queries: outcomes.len(),
            vqp: viable / n * 100.0,
            aqrt_ms: total / n,
            avg_planning_ms: planning / n,
            avg_exec_ms: exec / n,
            outcomes,
        }
    }
}

/// Runs `rewriter` over every query of `workload` and aggregates VQP / AQRT against the
/// budget `tau_ms`. An approximate rewrite is also run, with the original query, to
/// score its answer's quality.
pub fn evaluate_workload(
    rewriter: &dyn QueryRewriter,
    db: &dyn QueryBackend,
    workload: &[Query],
    tau_ms: f64,
) -> Result<WorkloadMetrics> {
    let mut outcomes = Vec::with_capacity(workload.len());
    for query in workload {
        let decision = rewriter.rewrite(query)?;
        let exec_ms = db.execution_time_ms(query, &decision.rewrite)?;
        let total_ms = decision.planning_ms + exec_ms;
        let exact = decision.rewrite.is_exact();
        let quality = if exact {
            1.0
        } else {
            let exact_answer = db.run(query, &RewriteOption::original())?.result;
            jaccard_quality(&exact_answer, &db.run(query, &decision.rewrite)?.result)
        };
        outcomes.push(QueryOutcome {
            planning_ms: decision.planning_ms,
            exec_ms,
            total_ms,
            viable: total_ms <= tau_ms,
            exact,
            quality,
        });
    }
    Ok(WorkloadMetrics::from_outcomes(outcomes))
}

/// Buckets queries by their number of viable plans (the paper's difficulty metric,
/// Table 2/3): returns a map `bucket label → query indices`, where buckets are defined
/// by `edges` as inclusive ranges (e.g. `[(1,1), (2,2), (3,3), (4,4)]` or
/// `[(1,2), (3,4), (5,6), (7,8)]`).
pub fn bucket_by_viable_plans(
    db: &dyn QueryBackend,
    workload: &[Query],
    tau_ms: f64,
    edges: &[(usize, usize)],
) -> Result<BTreeMap<String, Vec<usize>>> {
    let mut buckets: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (idx, query) in workload.iter().enumerate() {
        let viable = db.viable_plan_count(query, tau_ms)?;
        for &(lo, hi) in edges {
            if viable >= lo && viable <= hi {
                let label = if lo == hi {
                    format!("{lo}")
                } else {
                    format!("{lo}-{hi}")
                };
                buckets.entry(label).or_default().push(idx);
                break;
            }
        }
    }
    Ok(buckets)
}

/// Counts queries per viable-plan count (used to reproduce Table 2 / Table 3).
pub fn viable_plan_histogram(
    db: &dyn QueryBackend,
    workload: &[Query],
    tau_ms: f64,
) -> Result<BTreeMap<usize, usize>> {
    let mut histogram = BTreeMap::new();
    for query in workload {
        let viable = db.viable_plan_count(query, tau_ms)?;
        *histogram.entry(viable).or_insert(0) += 1;
    }
    Ok(histogram)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewriter::RewriteDecision;
    use crate::testutil::{tiny_db, workload};
    use vizdb::approx::ApproxRule;
    use vizdb::hints::HintSet;

    /// A trivial rewriter that always returns the same rewrite (the original query
    /// unless `rewrite` is set) with a fixed planning cost, for exercising the metric
    /// plumbing.
    #[derive(Default)]
    struct FixedRewriter {
        planning_ms: f64,
        rewrite: Option<RewriteOption>,
    }

    impl QueryRewriter for FixedRewriter {
        fn name(&self) -> String {
            "fixed".into()
        }

        fn rewrite(&self, _query: &Query) -> Result<RewriteDecision> {
            Ok(RewriteDecision {
                rewrite: self.rewrite.clone().unwrap_or_else(RewriteOption::original),
                planning_ms: self.planning_ms,
            })
        }
    }

    #[test]
    fn metrics_aggregate_viability_and_times() {
        let db = tiny_db();
        let queries = workload(10);
        let rewriter = FixedRewriter {
            planning_ms: 5.0,
            ..FixedRewriter::default()
        };
        let metrics = evaluate_workload(&rewriter, &*db, &queries, 500.0).unwrap();
        assert_eq!(metrics.queries, 10);
        assert_eq!(metrics.outcomes.len(), 10);
        assert!((0.0..=100.0).contains(&metrics.vqp));
        assert!(metrics.aqrt_ms >= metrics.avg_exec_ms);
        assert!((metrics.avg_planning_ms - 5.0).abs() < 1e-9);
        assert!(metrics.outcomes.iter().all(|o| o.exact && o.quality == 1.0));
    }

    #[test]
    fn approximate_rewrites_score_the_jaccard_quality_of_their_answer() {
        let db = tiny_db();
        let queries = workload(8);
        let limited = RewriteOption::approximate(
            HintSet::none(),
            ApproxRule::LimitPermille { permille: 200 },
        );
        let rewriter = FixedRewriter {
            planning_ms: 1.0,
            rewrite: Some(limited.clone()),
        };
        let metrics = evaluate_workload(&rewriter, &*db, &queries, 500.0).unwrap();
        for (query, outcome) in queries.iter().zip(&metrics.outcomes) {
            let exact = db.run(query, &RewriteOption::original()).unwrap().result;
            let approx = db.run(query, &limited).unwrap().result;
            assert!(!outcome.exact);
            assert_eq!(outcome.quality, jaccard_quality(&exact, &approx));
        }
        assert!(metrics
            .outcomes
            .iter()
            .all(|o| (0.0..=1.0).contains(&o.quality)));
        assert!(
            metrics.outcomes.iter().any(|o| o.quality < 1.0),
            "a 200‰ LIMIT should lose part of some answer"
        );
    }

    #[test]
    fn infinite_budget_makes_everything_viable() {
        let db = tiny_db();
        let queries = workload(6);
        let rewriter = FixedRewriter {
            planning_ms: 1.0,
            ..FixedRewriter::default()
        };
        let metrics = evaluate_workload(&rewriter, &*db, &queries, f64::INFINITY).unwrap();
        assert_eq!(metrics.vqp, 100.0);
    }

    #[test]
    fn buckets_partition_queries() {
        let db = tiny_db();
        let queries = workload(20);
        let edges = [(0, 0), (1, 2), (3, 4), (5, 8)];
        let buckets = bucket_by_viable_plans(&*db, &queries, 500.0, &edges).unwrap();
        let assigned: usize = buckets.values().map(Vec::len).sum();
        assert_eq!(assigned, 20, "every query falls in exactly one bucket");
    }

    #[test]
    fn histogram_counts_sum_to_workload_size() {
        let db = tiny_db();
        let queries = workload(15);
        let hist = viable_plan_histogram(&*db, &queries, 500.0).unwrap();
        let total: usize = hist.values().sum();
        assert_eq!(total, 15);
        assert!(hist.keys().all(|&k| k <= 8));
    }

    #[test]
    fn empty_workload_metrics_are_zero() {
        let db = tiny_db();
        let rewriter = FixedRewriter {
            planning_ms: 1.0,
            ..FixedRewriter::default()
        };
        let metrics = evaluate_workload(&rewriter, &*db, &[], 500.0).unwrap();
        assert_eq!(metrics.queries, 0);
        assert_eq!(metrics.vqp, 0.0);
    }
}
