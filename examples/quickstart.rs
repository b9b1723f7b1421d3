//! Quickstart: build a small Twitter-like dataset, train a Maliva agent, and rewrite a
//! visualization query under a 500 ms budget.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use maliva::{
    evaluate_workload, train_agent, MalivaConfig, MalivaRewriter, QueryRewriter, RewardSpec,
    RewriteSpace,
};
use maliva_baselines::BaselineRewriter;
use maliva_qte::AccurateQte;
use maliva_workload::{build_twitter, generate_workload, split_workload, DatasetScale};
use vizdb::QueryBackend;

fn main() {
    let tau_ms = 500.0;

    // 1. Build the (scaled-down) Twitter dataset: tweets table, secondary indexes,
    //    a 1% probe sample, plus a users dimension table.
    println!("building dataset ...");
    let dataset = build_twitter(DatasetScale::tiny(), 42);
    println!(
        "  {} rows in table `{}`, indexes on columns {:?}",
        dataset.row_count(),
        dataset.table,
        dataset.db.indexed_columns(&dataset.table).unwrap()
    );

    // 2. Generate a workload of visualization queries and split it.
    let queries = generate_workload(&dataset, 120, 7);
    let split = split_workload(&queries, 7);
    println!(
        "  workload: {} train / {} validation / {} eval queries",
        split.train.len(),
        split.validation.len(),
        split.eval.len()
    );

    // 3. Train the MDP agent with the Accurate-QTE (oracle estimates at 40 ms per
    //    collected selectivity).
    println!("training the MDP agent ...");
    let qte = Arc::new(AccurateQte::new(dataset.db.clone()));
    let config = MalivaConfig::with_budget(tau_ms);
    let trained = train_agent(
        &*dataset.db,
        qte.as_ref(),
        &split.train,
        &RewriteSpace::hints_only,
        RewardSpec::efficiency_only(),
        &config,
    )
    .expect("training");
    println!(
        "  trained for {} epochs ({} episodes), final training VQP {:.1}%",
        trained.report.epochs,
        trained.report.episodes,
        trained.report.final_vqp()
    );

    // 4. Wrap the agent in a rewriter and answer one request end to end.
    let rewriter = MalivaRewriter::new(
        "MDP (Accurate-QTE)",
        dataset.db.clone(),
        qte,
        trained.agent,
        Box::new(RewriteSpace::hints_only),
        tau_ms,
    );
    let query = &split.eval[0];
    println!(
        "\noriginal SQL:\n{}",
        dataset
            .db
            .render_sql(query, &vizdb::hints::RewriteOption::original())
    );
    let decision = rewriter.rewrite(query).expect("rewrite");
    println!(
        "\nrewritten SQL:\n{}",
        dataset.db.render_sql(query, &decision.rewrite)
    );
    let exec_ms = dataset
        .db
        .execution_time_ms(query, &decision.rewrite)
        .expect("execution");
    println!(
        "\nplanning {:.0} ms + execution {:.0} ms = total {:.0} ms (budget {:.0} ms, viable: {})",
        decision.planning_ms,
        exec_ms,
        decision.planning_ms + exec_ms,
        tau_ms,
        decision.planning_ms + exec_ms <= tau_ms
    );

    // 5. Compare against the no-rewriting baseline on the whole evaluation workload.
    let maliva_metrics = evaluate_workload(&rewriter, &*dataset.db, &split.eval, tau_ms).unwrap();
    let baseline_metrics =
        evaluate_workload(&BaselineRewriter::new(), &*dataset.db, &split.eval, tau_ms).unwrap();
    println!(
        "\nevaluation over {} queries:\n  {:22} VQP {:5.1}%  AQRT {:.2} s\n  {:22} VQP {:5.1}%  AQRT {:.2} s",
        split.eval.len(),
        rewriter.name(),
        maliva_metrics.vqp,
        maliva_metrics.aqrt_ms / 1000.0,
        "Baseline",
        baseline_metrics.vqp,
        baseline_metrics.aqrt_ms / 1000.0,
    );
}
