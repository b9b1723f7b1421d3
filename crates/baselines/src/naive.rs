//! The naive brute-force rewriter: estimate every candidate with the QTE, pick the
//! fastest, pay the full enumeration cost (paper §7.1 "Naive (Approximate-QTE)").

use std::sync::Arc;

use maliva::{QueryRewriter, RewriteDecision, RewriteSpace};
use maliva_qte::{EstimationContext, QueryTimeEstimator};
use vizdb::error::Result;
use vizdb::query::Query;

/// Brute-force enumeration over the whole rewrite space with a given QTE.
pub struct NaiveRewriter {
    qte: Arc<dyn QueryTimeEstimator>,
}

impl NaiveRewriter {
    /// Creates a naive rewriter that enumerates the hint-only rewrite space.
    pub fn new(qte: Arc<dyn QueryTimeEstimator>) -> Self {
        Self { qte }
    }
}

impl QueryRewriter for NaiveRewriter {
    fn name(&self) -> String {
        format!("Naive ({}-QTE)", capitalise(self.qte.name()))
    }

    fn rewrite(&self, query: &Query) -> Result<RewriteDecision> {
        let space = RewriteSpace::hints_only(query);
        let mut ctx = EstimationContext::new();
        let mut planning_ms = 0.0;
        let mut best: Option<(usize, f64)> = None;
        for (i, ro) in space.options().iter().enumerate() {
            let report = self.qte.estimate(query, ro, &mut ctx)?;
            planning_ms += report.cost_ms;
            if best
                .map(|(_, best_ms)| report.estimated_ms < best_ms)
                .unwrap_or(true)
            {
                best = Some((i, report.estimated_ms));
            }
        }
        let chosen = best.map(|(i, _)| i).unwrap_or(0);
        Ok(RewriteDecision {
            rewrite: space.get(chosen).clone(),
            planning_ms,
        })
    }
}

fn capitalise(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maliva_qte::AccurateQte;
    use vizdb::query::{OutputKind, Predicate};
    use vizdb::schema::{ColumnType, TableSchema};
    use vizdb::storage::TableBuilder;
    use vizdb::{Database, DbConfig};

    fn tiny_db() -> Arc<Database> {
        let schema = TableSchema::new("t")
            .with_column("id", ColumnType::Int)
            .with_column("when", ColumnType::Timestamp)
            .with_column("value", ColumnType::Float);
        let mut b = TableBuilder::new(schema);
        for i in 0..3000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("when", i);
                row.set_float("value", (i % 100) as f64);
            });
        }
        let mut db = Database::new(DbConfig::default());
        db.register_table(b.build()).unwrap();
        db.build_all_indexes("t").unwrap();
        Arc::new(db)
    }

    fn query() -> Query {
        Query::select("t")
            .filter(Predicate::time_range(1, 0, 500))
            .filter(Predicate::numeric_range(2, 0.0, 10.0))
            .output(OutputKind::Count)
    }

    #[test]
    fn naive_pays_the_full_enumeration_cost() {
        let db = tiny_db();
        let qte = Arc::new(AccurateQte::new(db.clone()));
        let rewriter = NaiveRewriter::new(qte.clone());
        let decision = rewriter.rewrite(&query()).unwrap();
        // 4 hint sets (2 predicates); every unexplored selectivity is collected once, so
        // the enumeration cost is at least the cost of collecting both selectivities.
        assert!(decision.planning_ms >= 2.0 * AccurateQte::DEFAULT_UNIT_COST_MS);
        assert_eq!(rewriter.name(), "Naive (Accurate-QTE)");
    }

    #[test]
    fn naive_picks_the_fastest_estimated_option() {
        let db = tiny_db();
        let qte = Arc::new(AccurateQte::new(db.clone()));
        let rewriter = NaiveRewriter::new(qte);
        let q = query();
        let decision = rewriter.rewrite(&q).unwrap();
        // With an oracle QTE the chosen option must be (one of) the true fastest.
        let space = RewriteSpace::hints_only(&q);
        let chosen_time = db.execution_time_ms(&q, &decision.rewrite).unwrap();
        let best_time = space
            .options()
            .iter()
            .map(|ro| db.execution_time_ms(&q, ro).unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!((chosen_time - best_time).abs() < 1e-9);
    }
}
