//! Head-to-head comparison of every middleware strategy the paper evaluates — Baseline,
//! Naive (brute force), Bao, MDP (Approximate-QTE) and MDP (Accurate-QTE) — on a single
//! generated Twitter workload (a miniature of Figures 12/13).
//!
//! ```text
//! cargo run --release --example compare_rewriters
//! ```

use std::sync::Arc;

use maliva::{
    evaluate_workload, train_agent, MalivaConfig, MalivaRewriter, QueryRewriter, RewardSpec,
    RewriteSpace,
};
use maliva_baselines::{BaoConfig, BaoRewriter, BaselineRewriter, NaiveRewriter};
use maliva_qte::approximate::ApproximateQteConfig;
use maliva_qte::{AccurateQte, ApproximateQte, QueryTimeEstimator};
use maliva_workload::{build_twitter, generate_workload, split_workload, DatasetScale};

fn main() {
    let tau_ms = 500.0;
    let dataset = build_twitter(DatasetScale::tiny(), 33);
    let db = dataset.db.clone();
    let workload = generate_workload(&dataset, 160, 13);
    let split = split_workload(&workload, 13);
    println!(
        "workload: {} train / {} eval queries, budget {} ms",
        split.train.len(),
        split.eval.len(),
        tau_ms
    );

    // QTEs.
    let accurate: Arc<AccurateQte> = Arc::new(AccurateQte::new(db.clone()));
    let qte_training: Vec<_> = split
        .train
        .iter()
        .map(|q| (q.clone(), RewriteSpace::hints_only(q).options().to_vec()))
        .collect();
    let approximate: Arc<ApproximateQte> = Arc::new(
        ApproximateQte::fit(db.clone(), ApproximateQteConfig::default(), &qte_training)
            .expect("QTE training"),
    );

    // Rewriters.
    let config = MalivaConfig::with_budget(tau_ms);
    let train_mdp = |qte: Arc<dyn QueryTimeEstimator>, label: &str| -> MalivaRewriter {
        let trained = train_agent(
            &*db,
            qte.as_ref(),
            &split.train,
            &RewriteSpace::hints_only,
            RewardSpec::efficiency_only(),
            &config,
        )
        .expect("training");
        MalivaRewriter::new(
            label,
            db.clone(),
            qte,
            trained.agent,
            Box::new(RewriteSpace::hints_only),
            tau_ms,
        )
    };
    let rewriters: Vec<Box<dyn QueryRewriter>> = vec![
        Box::new(BaselineRewriter::new()),
        Box::new(NaiveRewriter::new(approximate.clone())),
        Box::new(BaoRewriter::train(db.clone(), &split.train, BaoConfig::default()).expect("bao")),
        Box::new(train_mdp(approximate, "MDP (Approximate-QTE)")),
        Box::new(train_mdp(accurate, "MDP (Accurate-QTE)")),
    ];

    println!(
        "\n{:24} {:>8} {:>10} {:>12} {:>12}",
        "approach", "VQP (%)", "AQRT (s)", "plan (ms)", "exec (ms)"
    );
    for rewriter in &rewriters {
        let m = evaluate_workload(rewriter.as_ref(), &*db, &split.eval, tau_ms).expect("eval");
        println!(
            "{:24} {:>8.1} {:>10.2} {:>12.1} {:>12.1}",
            rewriter.name(),
            m.vqp,
            m.aqrt_ms / 1000.0,
            m.avg_planning_ms,
            m.avg_exec_ms
        );
    }
}
