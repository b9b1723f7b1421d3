//! The hint-aware planner.
//!
//! Without hints, the planner enumerates access paths and join methods and picks the
//! cheapest according to the *estimated* selectivities — which is where the backend's
//! bad choices come from. With a forced hint set, the planner builds exactly the plan
//! the hint dictates.

use crate::approx::ApproxRule;
use crate::hints::{HintSet, JoinMethod};
use crate::optimizer::cardinality::{estimate_selectivity, TableMeta};
use crate::optimizer::cost::{predict_work, PlanShape};
use crate::plan::{JoinPlan, PhysicalPlan};
use crate::query::Query;
use crate::timing::{execution_time_ms, CostParams};

/// Plans queries for one database instance.
#[derive(Debug, Clone)]
pub struct Planner {
    params: CostParams,
}

impl Planner {
    /// Creates a planner with the given cost parameters.
    pub fn new(params: CostParams) -> Self {
        Self { params }
    }

    /// Produces a physical plan for `query` rewritten with `hints` / `approx`.
    ///
    /// `meta` describes the fact table; `right_meta` the dimension table for join
    /// queries.
    pub fn plan(
        &self,
        query: &Query,
        hints: &HintSet,
        approx: Option<ApproxRule>,
        meta: &TableMeta<'_>,
        right_meta: Option<&TableMeta<'_>>,
    ) -> PhysicalPlan {
        let available: Vec<usize> = (0..query.predicate_count())
            .filter(|&i| meta.has_index_for(&query.predicates[i]))
            .collect();

        let (index_preds, join_method, hinted) = if hints.forced {
            let index_preds: Vec<usize> = available
                .iter()
                .copied()
                .filter(|&i| hints.uses_index(i))
                .collect();
            let method = if query.is_join() {
                Some(hints.join_method.unwrap_or(JoinMethod::Hash))
            } else {
                None
            };
            (index_preds, method, true)
        } else {
            self.choose_own_plan(query, &available, meta, right_meta, approx)
        };

        let filter_preds: Vec<usize> = (0..query.predicate_count())
            .filter(|i| !index_preds.contains(i))
            .collect();

        let join = query.join.as_ref().map(|spec| JoinPlan {
            method: join_method.unwrap_or(JoinMethod::Hash),
            right_table: spec.right_table.clone(),
            left_attr: spec.left_attr,
            right_attr: spec.right_attr,
        });

        // Estimated qualifying fact rows: the executor pre-sizes its result
        // vector from this. A pure function of the query and the statistics, so
        // identical queries keep producing identical plans.
        let fact_selectivity: f64 = query
            .predicates
            .iter()
            .map(|p| estimate_selectivity(meta, p))
            .product();
        let est_rows = (meta.row_count as f64 * fact_selectivity).ceil().max(0.0) as u64;

        PhysicalPlan {
            table: query.table.clone(),
            index_preds,
            filter_preds,
            join,
            approx,
            hinted,
            est_rows,
        }
    }

    /// Cost-based plan choice over all access-path subsets and join methods, using the
    /// default (error-prone) selectivity estimator.
    fn choose_own_plan(
        &self,
        query: &Query,
        available: &[usize],
        meta: &TableMeta<'_>,
        right_meta: Option<&TableMeta<'_>>,
        approx: Option<ApproxRule>,
    ) -> (Vec<usize>, Option<JoinMethod>, bool) {
        let selectivities: Vec<f64> = query
            .predicates
            .iter()
            .map(|p| estimate_selectivity(meta, p))
            .collect();
        let right_selectivity = match (&query.join, right_meta) {
            (Some(spec), Some(rm)) => spec
                .right_predicates
                .iter()
                .map(|p| estimate_selectivity(rm, p))
                .product(),
            _ => 1.0,
        };
        let right_rows = right_meta.map(|m| m.row_count).unwrap_or(0);

        let join_options: Vec<Option<JoinMethod>> = if query.is_join() {
            JoinMethod::all().into_iter().map(Some).collect()
        } else {
            vec![None]
        };

        let m = available.len().min(16);
        let mut best: Option<(f64, Vec<usize>, Option<JoinMethod>)> = None;
        for mask in 0..(1u32 << m) {
            let index_preds: Vec<usize> = available
                .iter()
                .take(m)
                .enumerate()
                .filter(|(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &p)| p)
                .collect();
            let filter_preds: Vec<usize> = (0..query.predicate_count())
                .filter(|i| !index_preds.contains(i))
                .collect();
            for &jm in &join_options {
                let shape = PlanShape {
                    query,
                    index_preds: &index_preds,
                    filter_preds: &filter_preds,
                    join_method: jm,
                    approx,
                    row_count: meta.row_count,
                    right_row_count: right_rows,
                    selectivities: &selectivities,
                    right_selectivity,
                };
                let cost = execution_time_ms(&predict_work(&shape), &self.params);
                if best.as_ref().map(|(c, _, _)| cost < *c).unwrap_or(true) {
                    best = Some((cost, index_preds.clone(), jm));
                }
            }
        }
        let (_, index_preds, jm) = best.unwrap_or((f64::INFINITY, Vec::new(), None));
        (index_preds, jm, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::schema::{ColumnType, TableSchema};
    use crate::stats::TableStats;
    use crate::storage::{Table, TableBuilder};
    use crate::types::GeoRect;
    use std::collections::HashSet;

    /// A table where the keyword estimate is badly wrong (rare words estimated at the
    /// average frequency) but the temporal histogram is accurate.
    fn skewed_table() -> Table {
        let schema = TableSchema::new("tweets")
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("coordinates", ColumnType::Geo)
            .with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for i in 0..4000usize {
            b.push_row(|row| {
                row.set_timestamp("created_at", i as i64);
                row.set_geo("coordinates", -118.0, 34.0);
                // "viral" is very common (50%); each row also carries a unique word so
                // the average document frequency is close to 1 document.
                let unique = format!("w{i}");
                let words: Vec<&str> = if i % 2 == 0 {
                    vec!["viral", unique.as_str()]
                } else {
                    vec!["quiet", unique.as_str()]
                };
                row.set_text("text", &words);
            });
        }
        b.build()
    }

    fn meta<'a>(
        table: &'a Table,
        stats: &'a TableStats,
        indexed: &'a HashSet<usize>,
    ) -> TableMeta<'a> {
        TableMeta {
            stats,
            dictionary: table.dictionary(),
            schema: table.schema(),
            indexed_columns: indexed,
            row_count: table.row_count(),
        }
    }

    fn base_query() -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(2, "viral"))
            .filter(Predicate::time_range(0, 0, 39))
            .filter(Predicate::spatial_range(
                1,
                GeoRect::new(-119.0, 33.0, -117.0, 35.0),
            ))
    }

    #[test]
    fn forced_hints_are_followed_exactly() {
        let table = skewed_table();
        let stats = TableStats::analyze(&table).unwrap();
        let indexed: HashSet<usize> = [0usize, 1, 2].into_iter().collect();
        let m = meta(&table, &stats, &indexed);
        let planner = Planner::new(CostParams::default());
        let q = base_query();
        let plan = planner.plan(&q, &HintSet::with_mask(0b010), None, &m, None);
        assert!(plan.hinted);
        assert_eq!(plan.index_preds, vec![1]);
        assert_eq!(plan.filter_preds, vec![0, 2]);
    }

    #[test]
    fn forced_empty_mask_forces_sequential_scan() {
        let table = skewed_table();
        let stats = TableStats::analyze(&table).unwrap();
        let indexed: HashSet<usize> = [0usize, 1, 2].into_iter().collect();
        let m = meta(&table, &stats, &indexed);
        let planner = Planner::new(CostParams::default());
        let plan = planner.plan(&base_query(), &HintSet::with_mask(0), None, &m, None);
        assert!(plan.is_full_scan());
        assert!(plan.hinted);
    }

    #[test]
    fn own_choice_avoids_obviously_bad_full_scan() {
        let table = skewed_table();
        let stats = TableStats::analyze(&table).unwrap();
        let indexed: HashSet<usize> = [0usize, 1, 2].into_iter().collect();
        let m = meta(&table, &stats, &indexed);
        let planner = Planner::new(CostParams::default());
        let plan = planner.plan(&base_query(), &HintSet::none(), None, &m, None);
        assert!(!plan.hinted);
        assert!(
            !plan.index_preds.is_empty(),
            "optimizer should prefer some index over a full scan"
        );
    }

    #[test]
    fn hints_ignore_unindexed_columns() {
        let table = skewed_table();
        let stats = TableStats::analyze(&table).unwrap();
        // Only the timestamp column has an index.
        let indexed: HashSet<usize> = [0usize].into_iter().collect();
        let m = meta(&table, &stats, &indexed);
        let planner = Planner::new(CostParams::default());
        let plan = planner.plan(&base_query(), &HintSet::with_mask(0b111), None, &m, None);
        assert_eq!(plan.index_preds, vec![1]); // predicate 1 filters on column 0
    }

    #[test]
    fn join_queries_get_a_join_plan() {
        let table = skewed_table();
        let stats = TableStats::analyze(&table).unwrap();
        let indexed: HashSet<usize> = [0usize, 1, 2].into_iter().collect();
        let m = meta(&table, &stats, &indexed);
        let planner = Planner::new(CostParams::default());
        let q = base_query().join_with(crate::query::JoinSpec {
            right_table: "users".into(),
            left_attr: 0,
            right_attr: 0,
            right_predicates: vec![],
        });
        let plan = planner.plan(
            &q,
            &HintSet::with_mask(0b1).with_join(JoinMethod::Merge),
            None,
            &m,
            None,
        );
        assert_eq!(plan.join.as_ref().unwrap().method, JoinMethod::Merge);
    }

    #[test]
    fn approx_rule_is_propagated_to_plan() {
        let table = skewed_table();
        let stats = TableStats::analyze(&table).unwrap();
        let indexed: HashSet<usize> = [0usize, 1, 2].into_iter().collect();
        let m = meta(&table, &stats, &indexed);
        let planner = Planner::new(CostParams::default());
        let plan = planner.plan(
            &base_query(),
            &HintSet::with_mask(0b1),
            Some(ApproxRule::LimitPermille { permille: 40 }),
            &m,
            None,
        );
        assert_eq!(
            plan.approx,
            Some(ApproxRule::LimitPermille { permille: 40 })
        );
    }
}
