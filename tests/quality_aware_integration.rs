//! Integration test of the quality-aware rewriters (paper §6 / Fig. 20): approximation
//! rules make otherwise-unviable queries viable, and the two-stage rewriter preserves
//! quality on easy queries.

use std::sync::Arc;

use maliva::{
    evaluate_workload, MalivaConfig, QualityAwareMode, QualityAwareRewriter, QueryRewriter,
};
use maliva_qte::{AccurateQte, QueryTimeEstimator};
use maliva_workload::{build_twitter, generate_workload, split_workload, DatasetScale};
use vizdb::approx::ApproxRule;
use vizdb::QueryBackend;

fn config(tau_ms: f64) -> MalivaConfig {
    MalivaConfig {
        tau_ms,
        max_epochs: 2,
        epsilon_decay_episodes: 80,
        beta: 0.5,
        ..MalivaConfig::default()
    }
}

#[test]
fn quality_aware_rewriters_produce_valid_decisions_and_qualities() {
    let tau_ms = 500.0;
    let dataset = build_twitter(DatasetScale::tiny(), 2024);
    let db = dataset.db.clone();
    let workload = generate_workload(&dataset, 120, 17);
    let split = split_workload(&workload, 17);
    let qte: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(db.clone()));
    let rules = ApproxRule::paper_limit_rules();

    let one_stage = QualityAwareRewriter::train(
        db.clone(),
        qte.clone(),
        &split.train,
        rules.clone(),
        QualityAwareMode::OneStage,
        &config(tau_ms),
    )
    .unwrap();
    let two_stage = QualityAwareRewriter::train(
        db.clone(),
        qte,
        &split.train,
        rules,
        QualityAwareMode::TwoStage,
        &config(tau_ms),
    )
    .unwrap();

    let eval: Vec<_> = split.eval.iter().take(25).cloned().collect();
    for rewriter in [&one_stage as &dyn QueryRewriter, &two_stage] {
        let metrics = evaluate_workload(rewriter, &*db, &eval, tau_ms).unwrap();
        for outcome in &metrics.outcomes {
            assert!(outcome.exec_ms > 0.0);
            assert!((0.0..=1.0).contains(&outcome.quality));
        }
        let mean_quality: f64 =
            metrics.outcomes.iter().map(|o| o.quality).sum::<f64>() / metrics.queries as f64;
        assert!(
            mean_quality > 0.2,
            "{} produced implausibly low average quality {mean_quality}",
            rewriter.name()
        );
    }
}

#[test]
fn two_stage_keeps_exact_rewrites_for_easy_queries() {
    let tau_ms = 500.0;
    let dataset = build_twitter(DatasetScale::tiny(), 555);
    let db = dataset.db.clone();
    let workload = generate_workload(&dataset, 100, 23);
    let split = split_workload(&workload, 23);
    let qte: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(db.clone()));
    let two_stage = QualityAwareRewriter::train(
        db.clone(),
        qte,
        &split.train,
        ApproxRule::paper_limit_rules(),
        QualityAwareMode::TwoStage,
        &config(tau_ms),
    )
    .unwrap();

    // Queries with many viable exact plans must not be answered approximately.
    let mut checked = 0;
    for query in &split.eval {
        if db.viable_plan_count(query, tau_ms).unwrap() >= 4 {
            let decision = two_stage.rewrite(query).unwrap();
            assert!(
                decision.rewrite.is_exact(),
                "two-stage rewriter must stay exact when exact viable plans abound"
            );
            checked += 1;
        }
        if checked >= 5 {
            break;
        }
    }
    assert!(checked > 0, "workload should contain easy queries");
}
