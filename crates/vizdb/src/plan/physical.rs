//! Physical plans: which indexes a query uses, how residual predicates are applied and
//! how joins are performed.

use serde::{Deserialize, Serialize};

use crate::approx::ApproxRule;
use crate::hints::JoinMethod;
use crate::query::Query;

/// How the dimension table of a join query is accessed and combined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinPlan {
    /// Join algorithm.
    pub method: JoinMethod,
    /// Dimension table name.
    pub right_table: String,
    /// Foreign-key column in the fact table.
    pub left_attr: usize,
    /// Key column in the dimension table.
    pub right_attr: usize,
}

/// A fully determined physical plan for one rewritten query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhysicalPlan {
    /// Fact table name (base table of the query).
    pub table: String,
    /// Indices (into [`Query::predicates`]) of predicates answered by an index scan.
    pub index_preds: Vec<usize>,
    /// Indices of predicates applied as residual filters after candidate fetching.
    pub filter_preds: Vec<usize>,
    /// Join strategy for join queries.
    pub join: Option<JoinPlan>,
    /// Approximation rule applied by the plan (sample table, tablesample or limit).
    pub approx: Option<ApproxRule>,
    /// Whether the plan was produced by following a hint (`true`) or by the engine's
    /// own cost-based choice (`false`).
    pub hinted: bool,
    /// The planner's cardinality estimate for the qualifying fact rows (0 when
    /// unknown). The executor pre-sizes its qualifying-row vector from this; it
    /// does not affect plan shape, signatures or results.
    pub est_rows: u64,
}

impl PhysicalPlan {
    /// Creates a plan that scans `table` sequentially and filters every predicate.
    pub fn full_scan(query: &Query) -> Self {
        Self {
            table: query.table.clone(),
            index_preds: Vec::new(),
            filter_preds: (0..query.predicate_count()).collect(),
            join: None,
            approx: None,
            hinted: false,
            est_rows: 0,
        }
    }

    /// Returns `true` when the plan uses no index at all.
    pub fn is_full_scan(&self) -> bool {
        self.index_preds.is_empty()
    }

    /// A stable signature identifying the plan shape (used as a cache key component).
    pub fn signature(&self) -> u64 {
        let mut sig: u64 = 0;
        for &p in &self.index_preds {
            sig |= 1 << p;
        }
        if let Some(join) = &self.join {
            let j = match join.method {
                JoinMethod::NestLoop => 1u64,
                JoinMethod::Hash => 2,
                JoinMethod::Merge => 3,
            };
            sig |= j << 32;
        }
        if let Some(approx) = &self.approx {
            // `0x400 + permille`, as when `0x100` and `0x200` keyed sample
            // rules: the signature seeds the simulated timing noise.
            let a = match approx {
                ApproxRule::LimitPermille { permille } => 0x400 + *permille as u64,
            };
            sig |= a << 40;
        }
        sig
    }

    /// A human-readable EXPLAIN-style description.
    pub fn explain(&self, query: &Query) -> String {
        let mut lines = Vec::new();
        let approx_note = match &self.approx {
            Some(rule) => format!(" [approx: {}]", rule.label()),
            None => String::new(),
        };
        if self.index_preds.is_empty() {
            lines.push(format!("SeqScan on {}{}", self.table, approx_note));
        } else {
            let scans: Vec<String> = self
                .index_preds
                .iter()
                .map(|&i| {
                    let kind = query
                        .predicates
                        .get(i)
                        .map(|p| p.kind())
                        .unwrap_or("unknown");
                    format!("IndexScan({kind} pred #{i})")
                })
                .collect();
            lines.push(format!(
                "BitmapAnd[{}] on {}{}",
                scans.join(", "),
                self.table,
                approx_note
            ));
        }
        if !self.filter_preds.is_empty() {
            lines.push(format!("  Filter: predicates {:?}", self.filter_preds));
        }
        if let Some(join) = &self.join {
            lines.push(format!(
                "  {} with {} (fact.{} = dim.{})",
                join.method.hint_name(),
                join.right_table,
                join.left_attr,
                join.right_attr
            ));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::types::GeoRect;

    fn query() -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 0, 86_400))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-124.4, 32.5, -114.1, 42.0),
            ))
    }

    #[test]
    fn full_scan_plan_filters_everything() {
        let q = query();
        let plan = PhysicalPlan::full_scan(&q);
        assert!(plan.is_full_scan());
        assert_eq!(plan.filter_preds, vec![0, 1, 2]);
    }

    #[test]
    fn signatures_distinguish_index_sets() {
        let q = query();
        let a = PhysicalPlan {
            index_preds: vec![0],
            filter_preds: vec![1, 2],
            ..PhysicalPlan::full_scan(&q)
        };
        let b = PhysicalPlan {
            index_preds: vec![1],
            filter_preds: vec![0, 2],
            ..PhysicalPlan::full_scan(&q)
        };
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn signatures_distinguish_join_methods_and_approx() {
        let q = query();
        let base = PhysicalPlan::full_scan(&q);
        let nl = PhysicalPlan {
            join: Some(JoinPlan {
                method: JoinMethod::NestLoop,
                right_table: "users".into(),
                left_attr: 4,
                right_attr: 0,
            }),
            ..base.clone()
        };
        let hash = PhysicalPlan {
            join: Some(JoinPlan {
                method: JoinMethod::Hash,
                right_table: "users".into(),
                left_attr: 4,
                right_attr: 0,
            }),
            ..base.clone()
        };
        let limited = PhysicalPlan {
            approx: Some(ApproxRule::LimitPermille { permille: 40 }),
            ..base.clone()
        };
        assert_ne!(nl.signature(), hash.signature());
        assert_ne!(base.signature(), limited.signature());
        assert_eq!(base.signature() ^ limited.signature(), (0x400 + 40) << 40);
    }

    #[test]
    fn explain_mentions_indexes_and_filters() {
        let q = query();
        let plan = PhysicalPlan {
            index_preds: vec![1, 2],
            filter_preds: vec![0],
            ..PhysicalPlan::full_scan(&q)
        };
        let text = plan.explain(&q);
        assert!(text.contains("IndexScan(time pred #1)"));
        assert!(text.contains("IndexScan(spatial pred #2)"));
        assert!(text.contains("Filter"));
    }

    #[test]
    fn explain_full_scan_mentions_seqscan() {
        let q = query();
        let text = PhysicalPlan::full_scan(&q).explain(&q);
        assert!(text.contains("SeqScan on tweets"));
    }
}
