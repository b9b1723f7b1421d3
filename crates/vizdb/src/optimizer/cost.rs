//! Predicted work model: expected operation counts of a plan shape given per-predicate
//! selectivities.
//!
//! The same model is used (a) by the planner with *estimated* selectivities to choose
//! the default physical plan and (b) indirectly by consumers that want an analytical
//! prediction of execution time from selectivities (the Approximate-QTE features are
//! derived from it). The executor reports *actual* operation counts with the same
//! shape, so predicted and measured times are directly comparable.

use crate::approx::ApproxRule;
use crate::hints::JoinMethod;
use crate::query::{OutputKind, Query};
use crate::timing::WorkProfile;

/// The structural information about a plan that the cost predictor needs.
#[derive(Debug, Clone)]
pub struct PlanShape<'a> {
    /// The query being planned.
    pub query: &'a Query,
    /// Predicate indices answered via index scans.
    pub index_preds: &'a [usize],
    /// Predicate indices applied as residual filters.
    pub filter_preds: &'a [usize],
    /// Join method (for join queries).
    pub join_method: Option<JoinMethod>,
    /// Approximation rule applied by the plan.
    pub approx: Option<ApproxRule>,
    /// Fact-table row count.
    pub row_count: usize,
    /// Dimension-table row count (0 for single-table queries).
    pub right_row_count: usize,
    /// Estimated (or true) selectivity of each fact-table predicate, aligned with
    /// `query.predicates`.
    pub selectivities: &'a [f64],
    /// Combined selectivity of the dimension-table predicates (1.0 when none).
    pub right_selectivity: f64,
}

/// Predicts the operation counts a plan of this shape will perform.
pub fn predict_work(shape: &PlanShape<'_>) -> WorkProfile {
    let mut work = WorkProfile::default();
    let n = shape.row_count as f64;

    // Approximation scaling: a LIMIT rule lets the engine stop early, scaling
    // the candidate-processing work.
    let limit_fraction = shape.approx.map_or(1.0, |rule| rule.kept_fraction());

    // Selectivity products.
    let sel = |i: usize| {
        shape
            .selectivities
            .get(i)
            .copied()
            .unwrap_or(1.0)
            .clamp(0.0, 1.0)
    };
    let index_product: f64 = shape.index_preds.iter().map(|&i| sel(i)).product();
    let all_product: f64 = (0..shape.query.predicate_count()).map(sel).product();
    let result_rows = n * all_product;

    if shape.index_preds.is_empty() {
        // Sequential scan over the table; LIMIT allows stopping once
        // enough output has been produced.
        let scan_rows = n * limit_fraction.max(result_min_fraction(result_rows, limit_fraction));
        work.seq_rows = scan_rows as u64;
        work.filter_evals = (scan_rows * shape.query.predicate_count() as f64) as u64;
    } else {
        // Index scans + record-id intersection + heap fetch + residual filtering.
        work.index_probes = shape.index_preds.len() as u64;
        let lens: Vec<f64> = shape.index_preds.iter().map(|&i| n * sel(i)).collect();
        let total_entries: f64 = lens.iter().sum();
        work.index_entries = total_entries as u64;
        if shape.index_preds.len() > 1 {
            // The executor charges the skip/gallop intersection model, not the
            // classic k-way merge — estimate with the same formula so predicted
            // and charged intersection work agree (see intersect_skip_charge).
            work.intersect_entries = crate::index::intersect_skip_charge_est(&lens) as u64;
        }
        let candidates = n
            * index_product
            * limit_fraction.max(result_min_fraction(result_rows, limit_fraction));
        work.heap_fetches = candidates as u64;
        work.filter_evals = (candidates * shape.filter_preds.len() as f64) as u64;
    }

    let mut output_rows = result_rows * limit_fraction;

    // Join handling: each fact row carrying a foreign key matches exactly one dimension
    // row; dimension predicates keep a `right_selectivity` fraction of them.
    if let (true, Some(method)) = (
        shape.query.is_join(),
        shape.join_method.or(Some(JoinMethod::Hash)),
    ) {
        let left_rows = output_rows;
        let right_rows = shape.right_row_count as f64;
        let right_pred_count = shape
            .query
            .join
            .as_ref()
            .map(|j| j.right_predicates.len())
            .unwrap_or(0) as f64;
        match method {
            JoinMethod::NestLoop => {
                work.nl_probe_rows = left_rows as u64;
                work.filter_evals += (left_rows * right_pred_count) as u64;
            }
            JoinMethod::Hash => {
                work.hash_build_rows = right_rows as u64;
                work.filter_evals += (right_rows * right_pred_count) as u64;
                work.hash_probe_rows = left_rows as u64;
            }
            JoinMethod::Merge => {
                let log_l = (left_rows.max(2.0)).log2();
                let log_r = (right_rows.max(2.0)).log2();
                work.merge_weighted_rows = (left_rows * log_l + right_rows * log_r) as u64;
                work.filter_evals += (right_rows * right_pred_count) as u64;
            }
        }
        output_rows = left_rows * shape.right_selectivity.clamp(0.0, 1.0);
    }

    match &shape.query.output {
        OutputKind::Points { .. } => {
            work.output_rows = output_rows as u64;
        }
        OutputKind::BinnedCounts { grid, .. } => {
            work.grouped_rows = output_rows as u64;
            work.output_rows = (grid.cell_count() as f64).min(output_rows) as u64;
        }
        OutputKind::Count => {
            work.output_rows = 1;
        }
    }

    work
}

/// When a LIMIT keeps a very small fraction but the query is highly selective anyway,
/// the engine still has to look at enough rows to produce *some* output; this floor
/// prevents the predicted work from collapsing to zero.
fn result_min_fraction(result_rows: f64, limit_fraction: f64) -> f64 {
    if limit_fraction >= 1.0 {
        return 1.0;
    }
    if result_rows <= 1.0 {
        1.0
    } else {
        (1.0 / result_rows).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::timing::{execution_time_ms, CostParams};
    use crate::types::GeoRect;

    fn query() -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 0, 86_400))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-124.4, 32.5, -114.1, 42.0),
            ))
            .output(OutputKind::Points {
                id_attr: 0,
                point_attr: 2,
            })
    }

    fn shape<'a>(
        q: &'a Query,
        index: &'a [usize],
        filter: &'a [usize],
        sels: &'a [f64],
    ) -> PlanShape<'a> {
        PlanShape {
            query: q,
            index_preds: index,
            filter_preds: filter,
            join_method: None,
            approx: None,
            row_count: 200_000,
            right_row_count: 0,
            selectivities: sels,
            right_selectivity: 1.0,
        }
    }

    #[test]
    fn full_scan_work_scales_with_rows() {
        let q = query();
        let sels = [0.02, 0.003, 0.05];
        let work = predict_work(&shape(&q, &[], &[0, 1, 2], &sels));
        assert_eq!(work.seq_rows, 200_000);
        assert_eq!(work.filter_evals, 600_000);
        assert_eq!(work.index_probes, 0);
    }

    #[test]
    fn selective_index_beats_full_scan() {
        let q = query();
        let sels = [0.02, 0.003, 0.05];
        let params = CostParams::default();
        let full = execution_time_ms(&predict_work(&shape(&q, &[], &[0, 1, 2], &sels)), &params);
        let idx = execution_time_ms(&predict_work(&shape(&q, &[1], &[0, 2], &sels)), &params);
        assert!(idx < full / 10.0, "index {idx} vs full {full}");
    }

    #[test]
    fn non_selective_index_is_expensive() {
        let q = query();
        // Keyword matches 40% of rows.
        let sels = [0.4, 0.003, 0.05];
        let params = CostParams::default();
        let kw = execution_time_ms(&predict_work(&shape(&q, &[0], &[1, 2], &sels)), &params);
        let ts = execution_time_ms(&predict_work(&shape(&q, &[1], &[0, 2], &sels)), &params);
        assert!(
            kw > 5.0 * ts,
            "keyword plan {kw} should be far slower than time plan {ts}"
        );
        assert!(
            kw > 500.0,
            "non-selective index plan should blow the budget, got {kw}"
        );
    }

    #[test]
    fn multi_index_intersection_charges_skip_model() {
        let q = query();
        let sels = [0.02, 0.003, 0.05];
        let work = predict_work(&shape(&q, &[0, 1, 2], &[], &sels));
        assert_eq!(work.index_probes, 3);
        // Expected list lengths are 4000, 600 and 10000 entries; the predicted
        // charge is the same skip/gallop formula the executor applies.
        assert_eq!(
            work.intersect_entries,
            crate::index::intersect_skip_charge(&[4000, 600, 10_000])
        );
        // ...which undercuts the classic merge's Σ nᵢ.
        assert!(work.intersect_entries < work.index_entries);
        // Candidates after intersecting all three lists are few.
        assert!(work.heap_fetches < 10);
    }

    #[test]
    fn limit_rule_scales_candidate_work() {
        let q = query();
        let sels = [0.5, 0.5, 0.5];
        let mut s = shape(&q, &[0], &[1, 2], &sels);
        let unlimited = predict_work(&s);
        s.approx = Some(ApproxRule::LimitPermille { permille: 10 });
        let limited = predict_work(&s);
        assert!(limited.heap_fetches < unlimited.heap_fetches / 10);
    }

    #[test]
    fn join_methods_produce_different_work() {
        let mut q = query();
        q.join = Some(crate::query::JoinSpec {
            right_table: "users".into(),
            left_attr: 4,
            right_attr: 0,
            right_predicates: vec![Predicate::numeric_range(1, 100.0, 5000.0)],
        });
        let sels = [0.1, 0.1, 0.5];
        let mk = |method| {
            let s = PlanShape {
                query: &q,
                index_preds: &[1],
                filter_preds: &[0, 2],
                join_method: Some(method),
                approx: None,
                row_count: 200_000,
                right_row_count: 20_000,
                selectivities: &sels,
                right_selectivity: 0.3,
            };
            predict_work(&s)
        };
        let nl = mk(JoinMethod::NestLoop);
        let hash = mk(JoinMethod::Hash);
        let merge = mk(JoinMethod::Merge);
        assert!(nl.nl_probe_rows > 0 && nl.hash_build_rows == 0);
        assert!(hash.hash_build_rows == 20_000 && hash.nl_probe_rows == 0);
        assert!(merge.merge_weighted_rows > 0);
    }

    #[test]
    fn binned_output_caps_output_rows_at_cell_count() {
        let q = Query::select("tweets")
            .filter(Predicate::time_range(1, 0, 86_400))
            .output(OutputKind::BinnedCounts {
                point_attr: 2,
                grid: crate::query::BinGrid::new(GeoRect::new(0.0, 0.0, 1.0, 1.0), 10, 10),
            });
        let sels = [0.5];
        let work = predict_work(&shape(&q, &[], &[0], &sels));
        assert!(work.output_rows <= 100);
        assert!(work.grouped_rows > 0);
    }

    #[test]
    fn count_output_produces_single_row() {
        let q = Query::select("tweets").filter(Predicate::time_range(1, 0, 1));
        let sels = [0.1];
        let work = predict_work(&shape(&q, &[], &[0], &sels));
        assert_eq!(work.output_rows, 1);
    }
}
