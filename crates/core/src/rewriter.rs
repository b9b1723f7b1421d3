//! The `QueryRewriter` abstraction shared by Maliva, the baselines and Bao, plus the
//! MDP-based implementation.

use std::sync::Arc;

use maliva_qte::QueryTimeEstimator;
use vizdb::error::Result;
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::QueryBackend;

use crate::agent::QAgent;
use crate::online::plan_online;
use crate::space::RewriteSpace;
use crate::train::SpaceBuilder;

/// What a middleware rewriter decided for one query.
#[derive(Debug, Clone)]
pub struct RewriteDecision {
    /// The rewrite option to apply to the original query.
    pub rewrite: RewriteOption,
    /// Online planning time the middleware spent making the decision (milliseconds,
    /// charged against the time budget).
    pub planning_ms: f64,
}

/// A middleware query rewriter: given an original query, decide (within the budget) how
/// to rewrite it. All approaches compared in the paper implement this trait so the
/// experiment harness treats them uniformly.
pub trait QueryRewriter: Send + Sync {
    /// Display name used in experiment output ("MDP (Accurate-QTE)", "Baseline", ...).
    fn name(&self) -> String;

    /// Decides the rewrite for `query`.
    fn rewrite(&self, query: &Query) -> Result<RewriteDecision>;
}

/// The MDP-based rewriter: a trained Q-network agent driving a QTE (paper §5.2).
pub struct MalivaRewriter {
    name: String,
    db: Arc<dyn QueryBackend>,
    qte: Arc<dyn QueryTimeEstimator>,
    agent: QAgent,
    space_builder: Box<SpaceBuilder>,
    tau_ms: f64,
}

// `QueryRewriter: Send + Sync` already implies this for trait objects, but the
// concrete type is also shared directly (e.g. by the serving layer's tests);
// assert it independently of the trait impl.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MalivaRewriter>();
};

impl MalivaRewriter {
    /// Creates a rewriter from a trained agent.
    pub fn new(
        name: impl Into<String>,
        db: Arc<dyn QueryBackend>,
        qte: Arc<dyn QueryTimeEstimator>,
        agent: QAgent,
        space_builder: Box<SpaceBuilder>,
        tau_ms: f64,
    ) -> Self {
        Self {
            name: name.into(),
            db,
            qte,
            agent,
            space_builder,
            tau_ms,
        }
    }

    /// The trained agent (e.g. for saving it to disk).
    pub fn agent(&self) -> &QAgent {
        &self.agent
    }

    /// The budget this rewriter plans for.
    pub fn tau_ms(&self) -> f64 {
        self.tau_ms
    }

    /// Builds the rewrite space for a query (the same builder used during training).
    pub fn space_for(&self, query: &Query) -> RewriteSpace {
        (self.space_builder)(query)
    }
}

impl QueryRewriter for MalivaRewriter {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn rewrite(&self, query: &Query) -> Result<RewriteDecision> {
        let space = self.space_for(query);
        let outcome = plan_online(
            &self.agent,
            &*self.db,
            self.qte.as_ref(),
            query,
            &space,
            self.tau_ms,
        )?;
        Ok(RewriteDecision {
            rewrite: outcome.rewrite,
            planning_ms: outcome.planning_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MalivaConfig;
    use crate::mdp::RewardSpec;
    use crate::testutil::{make_query, tiny_db, workload};
    use crate::train::train_agent;
    use maliva_qte::AccurateQte;

    #[test]
    fn maliva_rewriter_produces_decisions() {
        let db = tiny_db();
        let qte = Arc::new(AccurateQte::new(db.clone()));
        let trained = train_agent(
            &*db,
            qte.as_ref(),
            &workload(10),
            &RewriteSpace::hints_only,
            RewardSpec::efficiency_only(),
            &MalivaConfig::fast(),
        )
        .unwrap();
        let rewriter = MalivaRewriter::new(
            "MDP (Accurate-QTE)",
            db.clone(),
            qte,
            trained.agent,
            Box::new(RewriteSpace::hints_only),
            500.0,
        );
        assert_eq!(rewriter.name(), "MDP (Accurate-QTE)");
        let decision = rewriter.rewrite(&make_query(21)).unwrap();
        assert!(decision.planning_ms > 0.0);
        // The decision must come from the space the rewriter builds.
        let space = rewriter.space_for(&make_query(21));
        assert!(space.options().contains(&decision.rewrite));
    }
}
