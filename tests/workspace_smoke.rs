//! Workspace smoke test: constructs one rewriter per implementation through the
//! shared [`QueryRewriter`] trait and plans a single query end-to-end with each.
//!
//! Its purpose is to catch manifest/wiring regressions (crate renames, missing
//! re-exports, broken cross-crate trait impls) in tier-1 (`cargo test`) rather than
//! only when the experiment binary is built.

use std::sync::Arc;

use maliva::{train_agent, MalivaConfig, MalivaRewriter, QueryRewriter, RewardSpec, RewriteSpace};
use maliva_baselines::{BaoConfig, BaoRewriter, BaselineRewriter, NaiveRewriter};
use maliva_qte::AccurateQte;
use maliva_workload::{build_twitter, generate_workload, DatasetScale};

#[test]
fn every_rewriter_implementation_plans_a_query() {
    let tau_ms = 500.0;
    let dataset = build_twitter(DatasetScale::tiny(), 2024);
    let db = dataset.db.clone();
    let workload = generate_workload(&dataset, 24, 11);
    let (train, query) = workload.split_at(workload.len() - 1);
    let query = &query[0];
    let space = RewriteSpace::hints_only(query);

    let qte = Arc::new(AccurateQte::new(db.clone()));
    let trained = train_agent(
        &*db,
        qte.as_ref(),
        train,
        &RewriteSpace::hints_only,
        RewardSpec::efficiency_only(),
        &MalivaConfig {
            tau_ms,
            max_epochs: 1,
            ..MalivaConfig::fast()
        },
    )
    .expect("MDP training succeeds");

    let rewriters: Vec<Box<dyn QueryRewriter>> = vec![
        Box::new(MalivaRewriter::new(
            "MDP",
            db.clone(),
            qte.clone(),
            trained.agent,
            Box::new(RewriteSpace::hints_only),
            tau_ms,
        )),
        Box::new(BaselineRewriter::new()),
        Box::new(NaiveRewriter::new(qte.clone())),
        Box::new(BaoRewriter::train(db.clone(), train, BaoConfig::default()).expect("Bao trains")),
    ];

    for rewriter in &rewriters {
        let decision = rewriter
            .rewrite(query)
            .unwrap_or_else(|e| panic!("{} failed to plan: {e}", rewriter.name()));
        // Every decision must come from the hint-only space, except the original
        // query itself (the Baseline forwards it without constructing a space).
        assert!(
            space.options().contains(&decision.rewrite)
                || decision.rewrite == vizdb::hints::RewriteOption::original(),
            "{} returned a rewrite outside the hint-only space",
            rewriter.name()
        );
        assert!(
            decision.planning_ms >= 0.0,
            "{} reported negative planning time",
            rewriter.name()
        );
        // The decision must actually execute on the backend within the simulator.
        let outcome = db
            .run(query, &decision.rewrite)
            .unwrap_or_else(|e| panic!("{}'s rewrite failed to execute: {e}", rewriter.name()));
        assert!(outcome.time_ms > 0.0);
    }
}
