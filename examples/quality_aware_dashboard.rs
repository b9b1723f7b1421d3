//! Quality-aware rewriting (paper §6): when no exact rewritten query can meet the time
//! budget, Maliva trades visualization quality for responsiveness by adding a LIMIT
//! clause — and the two-stage rewriter only does so when it has to.
//!
//! ```text
//! cargo run --release --example quality_aware_dashboard
//! ```

use std::sync::Arc;

use maliva::{
    evaluate_workload, MalivaConfig, QualityAwareMode, QualityAwareRewriter, QueryRewriter,
};
use maliva_qte::{AccurateQte, QueryTimeEstimator};
use maliva_workload::{build_twitter, generate_workload, split_workload, DatasetScale};
use vizdb::approx::ApproxRule;

fn main() {
    let tau_ms = 500.0;
    let dataset = build_twitter(DatasetScale::tiny(), 11);
    let db = dataset.db.clone();
    let workload = generate_workload(&dataset, 140, 5);
    let split = split_workload(&workload, 5);

    let qte: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(db.clone()));
    let config = MalivaConfig::with_budget(tau_ms).with_beta(0.5);
    let rules = ApproxRule::paper_limit_rules();

    println!("training one-stage and two-stage quality-aware rewriters ...");
    let one_stage = QualityAwareRewriter::train(
        db.clone(),
        qte.clone(),
        &split.train,
        rules.clone(),
        QualityAwareMode::OneStage,
        &config,
    )
    .expect("one-stage training");
    let two_stage = QualityAwareRewriter::train(
        db.clone(),
        qte,
        &split.train,
        rules,
        QualityAwareMode::TwoStage,
        &config,
    )
    .expect("two-stage training");

    // Find the hardest evaluation queries: those without any viable exact plan.
    let mut hard = Vec::new();
    for q in &split.eval {
        if db.viable_plan_count(q, tau_ms).unwrap_or(0) == 0 {
            hard.push(q.clone());
        }
        if hard.len() == 5 {
            break;
        }
    }
    println!(
        "{} evaluation queries have no viable exact plan; showing decisions:\n",
        hard.len()
    );

    let rewriters = [&two_stage as &dyn QueryRewriter, &one_stage];
    let metrics: Vec<_> = rewriters
        .iter()
        .map(|r| evaluate_workload(*r, &db, &hard, tau_ms).expect("evaluate"))
        .collect();
    for i in 0..hard.len() {
        for (rewriter, m) in rewriters.iter().zip(&metrics) {
            let outcome = &m.outcomes[i];
            println!(
                "query #{i} | {:12} | {:11} | total {:6.0} ms | viable {} | Jaccard quality {:.2}",
                rewriter.name(),
                if outcome.exact {
                    "exact"
                } else {
                    "approximate"
                },
                outcome.total_ms,
                outcome.viable,
                outcome.quality
            );
        }
        println!();
    }
}
