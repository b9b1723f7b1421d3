//! One function per table / figure of the paper's evaluation (§7).
//!
//! Every function returns one or more [`ExperimentOutput`]s that the `experiments`
//! binary prints and saves as JSON. Dataset scale and workload size come from the
//! `MALIVA_SCALE` / `MALIVA_QUERIES` environment variables (see
//! [`crate::harness::scale_from_env`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use maliva::metrics::viable_plan_histogram;
use maliva::{
    evaluate_workload, train_agent, MalivaConfig, MalivaRewriter, QualityAwareMode,
    QualityAwareRewriter, QueryRewriter, RewardSpec, RewriteSpace, TrainingReport, WorkloadMetrics,
};
use maliva_baselines::{BaselineRewriter, NaiveRewriter};
use maliva_qte::{AccurateQte, QueryTimeEstimator};
use maliva_workload::{generate_queries, split_workload, DatasetScale, QueryGenConfig};
use vizdb::approx::ApproxRule;
use vizdb::query::Query;
use vizdb::DbConfig;

use crate::harness::{
    bucket_edges_small, build_qtes, evaluate_by_bucket, experiment_config, f1, mdp_rewriters,
    queries_from_env, record_training, scale_from_env, scenario, secs, standard_rewriters,
    train_mdp_rewriter, BucketReport, DatasetKind, ExperimentOutput, Scenario,
};

const SEED: u64 = 42;

/// Table 1: dataset inventory.
pub fn run_table1() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let mut rows = Vec::new();
    for kind in [
        DatasetKind::Twitter,
        DatasetKind::NycTaxi,
        DatasetKind::Tpch,
    ] {
        let ds = kind.build(scale, SEED);
        let schema = ds.db.schema(&ds.table).expect("schema");
        let filtering: Vec<String> = ds
            .spec
            .filter_attrs
            .iter()
            .map(|f| schema.column_name(f.attr).unwrap_or("?").to_string())
            .collect();
        rows.push(vec![
            ds.name.clone(),
            format!("{}", ds.row_count()),
            filtering.join(", "),
            schema
                .column_name(ds.spec.geo_attr)
                .unwrap_or("?")
                .to_string(),
        ]);
    }
    let output = ExperimentOutput {
        id: "table1".into(),
        title: "Datasets (scaled-down synthetic equivalents of paper Table 1)".into(),
        headers: vec![
            "Dataset".into(),
            "Record #".into(),
            "Filtering attributes".into(),
            "Output attribute".into(),
        ],
        rows,
    };
    vec![output]
}

/// Table 2: number of evaluation queries per viable-plan count (3 filtering conditions,
/// 8 rewrite options) for the three datasets.
pub fn run_table2() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let mut rows = Vec::new();
    for kind in [
        DatasetKind::Twitter,
        DatasetKind::NycTaxi,
        DatasetKind::Tpch,
    ] {
        let tau = kind.default_tau_ms();
        let sc = scenario(kind, scale, tau, &QueryGenConfig::default(), n, SEED);
        let edges = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, usize::MAX)];
        let mut row = vec![kind.name().to_string()];
        row.extend(histogram_cells(&sc, &edges));
        rows.push(row);
    }
    let output = ExperimentOutput {
        id: "table2".into(),
        title: "Number of queries in evaluation workloads per viable-plan count".into(),
        headers: vec![
            "Dataset".into(),
            "0".into(),
            "1".into(),
            "2".into(),
            "3".into(),
            "4".into(),
            ">=5".into(),
        ],
        rows,
    };
    vec![output]
}

/// Table 3: workloads with 16 and 32 rewrite options (4 and 5 filtering conditions on
/// Twitter), bucketed as in the paper.
pub fn run_table3() -> Vec<ExperimentOutput> {
    let mut outputs = Vec::new();
    for (attrs, edges) in [
        (
            4usize,
            vec![(0, 0), (1, 2), (3, 4), (5, 6), (7, 8), (9, 16)],
        ),
        (
            5usize,
            vec![(0, 0), (1, 4), (5, 8), (9, 12), (13, 16), (17, 32)],
        ),
    ] {
        let sc = twitter(500.0, &QueryGenConfig::with_filters(attrs));
        let mut headers = vec!["# viable plans".to_string()];
        for &(lo, hi) in &edges {
            headers.push(if lo == hi {
                format!("{lo}")
            } else {
                format!("{lo}-{hi}")
            });
        }
        let mut row = vec!["# of queries".to_string()];
        row.extend(histogram_cells(&sc, &edges));
        outputs.push(ExperimentOutput {
            id: format!("table3_{}opts", 1 << attrs),
            title: format!(
                "Workload with {} rewrite options ({} filtering conditions)",
                1 << attrs,
                attrs
            ),
            headers,
            rows: vec![row],
        });
    }
    outputs
}

/// A Twitter scenario at the environment's scale and workload size.
fn twitter(tau_ms: f64, gen_config: &QueryGenConfig) -> Scenario {
    scenario(
        DatasetKind::Twitter,
        scale_from_env(),
        tau_ms,
        gen_config,
        queries_from_env(),
        SEED,
    )
}

/// The number of evaluation queries of `sc` whose viable-plan count falls in each
/// inclusive range of `edges` (one row of Tables 2 and 3).
fn histogram_cells(sc: &Scenario, edges: &[(usize, usize)]) -> Vec<String> {
    let hist = viable_plan_histogram(sc.db(), &sc.split.eval, sc.tau_ms).expect("histogram");
    edges
        .iter()
        .map(|&(lo, hi)| {
            let count: usize = hist.range(lo..=hi).map(|(_, v)| *v).sum();
            format!("{count}")
        })
        .collect()
}

/// Shared implementation for Figures 12–19: evaluates a rewriter line-up per bucket
/// and emits a VQP table and an AQRT table.
fn vqp_aqrt_outputs(
    id_vqp: &str,
    id_aqrt: &str,
    title: &str,
    sc: &Scenario,
    rewriters: &[Box<dyn QueryRewriter>],
    edges: &[(usize, usize)],
) -> Vec<ExperimentOutput> {
    let report = evaluate_by_bucket(sc.db(), rewriters, &sc.split.eval, sc.tau_ms, edges);
    vqp_aqrt_tables(id_vqp, id_aqrt, title, &report, rewriters)
}

/// The VQP and AQRT tables of a bucketed evaluation.
fn vqp_aqrt_tables(
    id_vqp: &str,
    id_aqrt: &str,
    title: &str,
    report: &BucketReport,
    rewriters: &[Box<dyn QueryRewriter>],
) -> Vec<ExperimentOutput> {
    vec![
        bucket_table(
            id_vqp,
            format!("{title} — viable query percentage (%)"),
            report,
            rewriters,
            |m| f1(m.vqp),
        ),
        bucket_table(
            id_aqrt,
            format!("{title} — average query response time (s)"),
            report,
            rewriters,
            |m| secs(m.aqrt_ms),
        ),
    ]
}

/// A projection of a bucketed evaluation: one row per bucket, one column per
/// rewriter, each cell `cell` of that rewriter's metrics on the bucket.
fn bucket_table(
    id: &str,
    title: String,
    report: &BucketReport,
    rewriters: &[Box<dyn QueryRewriter>],
    cell: impl Fn(&WorkloadMetrics) -> String,
) -> ExperimentOutput {
    let mut headers = vec!["# viable plans (n)".to_string()];
    headers.extend(rewriters.iter().map(|r| r.name()));
    let rows = report
        .buckets
        .iter()
        .map(|(label, per_rewriter)| {
            let n = report.bucket_sizes.get(label).copied().unwrap_or(0);
            let mut row = vec![format!("{label} (n={n})")];
            row.extend(
                rewriters
                    .iter()
                    .map(|r| per_rewriter.get(&r.name()).map_or("-".into(), &cell)),
            );
            row
        })
        .collect();
    ExperimentOutput {
        id: id.to_string(),
        title,
        headers,
        rows,
    }
}

/// Figures 12 & 13: VQP and AQRT on Twitter (τ=500 ms), NYC Taxi (τ=1 s) and TPC-H
/// (τ=500 ms) with 8 rewrite options.
pub fn run_fig12_13() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let mut outputs = Vec::new();
    for (kind, sub) in [
        (DatasetKind::Twitter, "a"),
        (DatasetKind::NycTaxi, "b"),
        (DatasetKind::Tpch, "c"),
    ] {
        let tau = kind.default_tau_ms();
        let sc = scenario(kind, scale, tau, &QueryGenConfig::default(), n, SEED);
        let rewriters = standard_rewriters(&sc, build_qtes(&sc));
        outputs.extend(vqp_aqrt_outputs(
            &format!("fig12{sub}"),
            &format!("fig13{sub}"),
            &format!("{} (tau = {} ms)", kind.name(), tau),
            &sc,
            &rewriters,
            &bucket_edges_small(),
        ));
    }
    outputs
}

/// Figures 14 & 15: effect of the number of rewrite options (16 and 32) on Twitter.
pub fn run_fig14_15() -> Vec<ExperimentOutput> {
    let mut outputs = Vec::new();
    for (attrs, edges, sub) in [
        (4usize, vec![(1, 2), (3, 4), (5, 6), (7, 8)], "a"),
        (5usize, vec![(1, 4), (5, 8), (9, 12), (13, 16)], "b"),
    ] {
        let sc = twitter(500.0, &QueryGenConfig::with_filters(attrs));
        let (accurate, approximate) = build_qtes(&sc);
        let mut rewriters = standard_rewriters(&sc, (accurate, approximate.clone()));
        if attrs == 4 {
            // The paper additionally reports the brute-force Naive (Approximate-QTE)
            // strategy for the 16-option workload (Fig. 14a).
            rewriters.push(Box::new(NaiveRewriter::new(approximate)));
        }
        outputs.extend(vqp_aqrt_outputs(
            &format!("fig14{sub}"),
            &format!("fig15{sub}"),
            &format!("{} rewrite options (Twitter, tau = 500 ms)", 1 << attrs),
            &sc,
            &rewriters,
            &edges,
        ));
    }
    outputs
}

/// Figures 16 & 17: effect of the time budget (0.25 s, 0.75 s, 1.0 s) on Twitter.
pub fn run_fig16_17() -> Vec<ExperimentOutput> {
    let mut outputs = Vec::new();
    for (tau, sub) in [(250.0, "a"), (750.0, "b"), (1000.0, "c")] {
        let sc = twitter(tau, &QueryGenConfig::default());
        let rewriters = standard_rewriters(&sc, build_qtes(&sc));
        outputs.extend(vqp_aqrt_outputs(
            &format!("fig16{sub}"),
            &format!("fig17{sub}"),
            &format!("Twitter, time budget tau = {} ms", tau),
            &sc,
            &rewriters,
            &bucket_edges_small(),
        ));
    }
    outputs
}

/// Figure 18: join queries (tweets ⋈ users, 21 rewrite options).
pub fn run_fig18() -> Vec<ExperimentOutput> {
    let sc = twitter(500.0, &QueryGenConfig::join());
    let rewriters = standard_rewriters(&sc, build_qtes(&sc));
    let edges = vec![(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)];
    vqp_aqrt_outputs(
        "fig18a",
        "fig18b",
        "Join queries (Twitter ⋈ users, tau = 500 ms)",
        &sc,
        &rewriters,
        &edges,
    )
}

/// Figure 19(a): generalisation to unseen query shapes — agents trained on
/// single-table queries, evaluated on join queries (the rewrite space stays the 8
/// index-hint sets over the three fact-table predicates).
pub fn run_fig19a() -> Vec<ExperimentOutput> {
    let n = queries_from_env();
    let sc = twitter(500.0, &QueryGenConfig::default());
    // Evaluation workload: join queries (unseen shape).
    let join_queries = generate_queries(&sc.dataset, n / 2, &QueryGenConfig::join(), SEED ^ 0x77);
    let eval_split = split_workload(&join_queries, SEED);

    let mut rewriters: Vec<Box<dyn QueryRewriter>> = vec![Box::new(BaselineRewriter::new())];
    rewriters.extend(mdp_rewriters(&sc, build_qtes(&sc), |_| {
        RewriteSpace::index_hints(3)
    }));
    let mut outputs = vqp_aqrt_outputs(
        "fig19a",
        "fig19a_aqrt",
        "Unseen query shapes (trained on single-table, tested on join queries)",
        &Scenario {
            dataset: sc.dataset,
            split: eval_split,
            tau_ms: sc.tau_ms,
        },
        &rewriters,
        &bucket_edges_small(),
    );
    // The paper only reports VQP for Fig. 19(a); keep the AQRT table as supplementary.
    outputs[1].title = format!("{} (supplementary)", outputs[1].title);
    outputs
}

/// Figure 19(b): a commercial database profile (smaller table, τ = 250 ms, noisy
/// execution times that break the selectivity-only Approximate-QTE).
pub fn run_fig19b() -> Vec<ExperimentOutput> {
    let n = queries_from_env();
    let scale = DatasetScale {
        rows: scale_from_env().rows / 2,
        dim_rows: scale_from_env().dim_rows,
    };
    let tau = 250.0;
    let dataset =
        maliva_workload::twitter::build_twitter_with_config(scale, SEED, DbConfig::commercial());
    let queries = generate_queries(&dataset, n, &QueryGenConfig::default(), SEED ^ 0xBEEF);
    let split = split_workload(&queries, SEED);
    let sc = Scenario {
        dataset,
        split,
        tau_ms: tau,
    };
    let mut rewriters: Vec<Box<dyn QueryRewriter>> = vec![Box::new(BaselineRewriter::new())];
    rewriters.extend(mdp_rewriters(
        &sc,
        build_qtes(&sc),
        RewriteSpace::hints_only,
    ));
    let edges = vec![(1, 2), (3, 4), (5, 6), (7, 8)];
    vqp_aqrt_outputs(
        "fig19b",
        "fig19b_aqrt",
        "Commercial database profile (tau = 250 ms)",
        &sc,
        &rewriters,
        &edges,
    )
}

/// Figure 20: quality-aware rewriting (one-stage vs two-stage vs exact-only MDP vs
/// baseline) — VQP, AQRT and average Jaccard quality per bucket.
pub fn run_fig20() -> Vec<ExperimentOutput> {
    let sc = twitter(500.0, &QueryGenConfig::default());
    let db = sc.db().clone();
    let accurate: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(db.clone()));
    let config = experiment_config(sc.tau_ms).with_beta(0.5);
    let rules = ApproxRule::paper_limit_rules();

    // The quality-aware rewriters keep their training reports to themselves, so
    // their whole training (stage 2's training-set selection included) is timed.
    let started = std::time::Instant::now();
    let one_stage = QualityAwareRewriter::train(
        db.clone(),
        accurate.clone(),
        &sc.split.train,
        rules.clone(),
        QualityAwareMode::OneStage,
        &config,
    )
    .expect("one-stage training");
    let two_stage = QualityAwareRewriter::train(
        db.clone(),
        accurate.clone(),
        &sc.split.train,
        rules,
        QualityAwareMode::TwoStage,
        &config,
    )
    .expect("two-stage training");
    record_training(started.elapsed().as_secs_f64());
    let exact_mdp = train_mdp_rewriter(
        &sc,
        accurate,
        "MDP (Accu.-QTE)",
        Box::new(RewriteSpace::hints_only),
        &experiment_config(sc.tau_ms),
    );
    let rewriters: Vec<Box<dyn QueryRewriter>> = vec![
        Box::new(BaselineRewriter::new()),
        Box::new(exact_mdp),
        Box::new(two_stage),
        Box::new(one_stage),
    ];

    // Bucket the evaluation queries including the 0-viable-plan bucket.
    let edges = vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)];
    let report = evaluate_by_bucket(sc.db(), &rewriters, &sc.split.eval, sc.tau_ms, &edges);
    let title = "Quality-aware rewriting";
    let mut outputs = vqp_aqrt_tables("fig20a", "fig20b", title, &report, &rewriters);
    outputs.push(bucket_table(
        "fig20c",
        format!("{title} — average Jaccard quality"),
        &report,
        &rewriters,
        |m| {
            let quality: f64 = m.outcomes.iter().map(|o| o.quality).sum();
            format!("{:.2}", quality / m.queries as f64)
        },
    ));
    outputs
}

/// Figure 21: learning curves (training vs validation VQP) and training time as the
/// number of training queries grows, for 8 / 16 / 32 rewrite options.
pub fn run_fig21() -> Vec<ExperimentOutput> {
    let mut curve_rows = Vec::new();
    let mut time_rows = Vec::new();
    for (attrs, unit_cost) in [(3usize, 100.0), (4, 60.0), (5, 50.0)] {
        let options = 1usize << attrs;
        let sc = twitter(500.0, &QueryGenConfig::with_filters(attrs));
        let qte: Arc<dyn QueryTimeEstimator> =
            Arc::new(AccurateQte::with_unit_cost(sc.db().clone(), unit_cost));
        let max_train = sc.split.train.len();
        for &train_size in &[10usize, 25, 50, 100, 200] {
            let size = train_size.min(max_train);
            let subset: Vec<Query> = sc.split.train.iter().take(size).cloned().collect();
            if subset.is_empty() {
                continue;
            }
            let config = MalivaConfig {
                tau_ms: 500.0,
                max_epochs: 5,
                epsilon_decay_episodes: (size * 3).max(30),
                ..MalivaConfig::default()
            };
            let (report, validation) = train_and_validate(&sc, qte.clone(), &subset, &config);
            curve_rows.push(vec![
                format!("{options} options"),
                format!("{size}"),
                f1(report.final_vqp()),
                f1(validation.vqp),
            ]);
            time_rows.push(vec![
                format!("{options} options"),
                format!("{size}"),
                format!("{:.1}", report.wall_clock_secs),
                format!("{}", report.epochs),
            ]);
            if size == max_train {
                break;
            }
        }
    }
    vec![
        ExperimentOutput {
            id: "fig21ab".into(),
            title: "Learning curves: training vs validation VQP by number of training queries"
                .into(),
            headers: vec![
                "Rewrite options".into(),
                "# training queries".into(),
                "Training VQP (%)".into(),
                "Validation VQP (%)".into(),
            ],
            rows: curve_rows,
        },
        ExperimentOutput {
            id: "fig21c".into(),
            title: "Training time by number of training queries".into(),
            headers: vec![
                "Rewrite options".into(),
                "# training queries".into(),
                "Training time (s)".into(),
                "Epochs".into(),
            ],
            rows: time_rows,
        },
    ]
}

/// Ablation of the ε-greedy exploration schedule (paper §5.1): training and
/// validation VQP of agents trained with the decaying schedule, with pure
/// exploitation (ε = 0) and with pure exploration (ε = 1).
pub fn run_ablation() -> Vec<ExperimentOutput> {
    let sc = twitter(500.0, &QueryGenConfig::default());
    let qte: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(sc.db().clone()));
    let mut rows = Vec::new();
    for (schedule, epsilon_start, epsilon_end) in [
        ("decaying (0.9 -> 0.05)", 0.9, 0.05),
        ("greedy (eps = 0)", 0.0, 0.0),
        ("random (eps = 1)", 1.0, 1.0),
    ] {
        let config = MalivaConfig {
            epsilon_start,
            epsilon_end,
            ..experiment_config(sc.tau_ms)
        };
        let (report, validation) = train_and_validate(&sc, qte.clone(), &sc.split.train, &config);
        rows.push(vec![
            schedule.to_string(),
            f1(report.final_vqp()),
            f1(validation.vqp),
        ]);
    }
    vec![ExperimentOutput {
        id: "ablation".into(),
        title: "Exploration schedule ablation (Twitter, Accurate-QTE, tau = 500 ms)".into(),
        headers: vec![
            "Epsilon schedule".into(),
            "Training VQP (%)".into(),
            "Validation VQP (%)".into(),
        ],
        rows,
    }]
}

/// Trains an agent on `train` and evaluates it on the scenario's validation
/// workload: the training report and the validation metrics.
fn train_and_validate(
    sc: &Scenario,
    qte: Arc<dyn QueryTimeEstimator>,
    train: &[Query],
    config: &MalivaConfig,
) -> (TrainingReport, WorkloadMetrics) {
    let trained = train_agent(
        sc.db(),
        qte.as_ref(),
        train,
        &RewriteSpace::hints_only,
        RewardSpec::efficiency_only(),
        config,
    )
    .expect("training");
    record_training(trained.report.wall_clock_secs);
    let rewriter = MalivaRewriter::new(
        "MDP",
        sc.db().clone(),
        qte,
        trained.agent,
        Box::new(RewriteSpace::hints_only),
        config.tau_ms,
    );
    let validation = evaluate_workload(&rewriter, sc.db(), &sc.split.validation, config.tau_ms)
        .expect("validation");
    (trained.report, validation)
}

/// The experiment groups: the ids one run produces, the one [`run_experiment`]
/// is asked for first (figure pairs such as fig12/fig13 are produced together).
const GROUPS: &[&[&str]] = &[
    &["table1"],
    &["table2"],
    &["table3"],
    &["fig12", "fig13"],
    &["fig14", "fig15"],
    &["fig16", "fig17"],
    &["fig18"],
    &["fig19a"],
    &["fig19b"],
    &["fig20"],
    &["fig21"],
    &["ablation"],
];

/// Every experiment id accepted by the `experiments` binary.
pub fn all_experiment_ids() -> Vec<&'static str> {
    GROUPS.iter().flat_map(|ids| ids.iter().copied()).collect()
}

/// One id per experiment group: what `experiments -- all` runs and
/// `experiments -- pins` pins, so each group runs once.
pub fn experiment_groups() -> Vec<&'static str> {
    GROUPS.iter().map(|ids| ids[0]).collect()
}

/// Runs one experiment by id (figure pairs such as fig12/fig13 are produced together).
pub fn run_experiment(id: &str) -> Vec<ExperimentOutput> {
    match id {
        "table1" => run_table1(),
        "table2" => run_table2(),
        "table3" => run_table3(),
        "fig12" | "fig13" => run_fig12_13(),
        "fig14" | "fig15" => run_fig14_15(),
        "fig16" | "fig17" => run_fig16_17(),
        "fig18" => run_fig18(),
        "fig19a" => run_fig19a(),
        "fig19b" => run_fig19b(),
        "fig20" => run_fig20(),
        "fig21" => run_fig21(),
        "ablation" => run_ablation(),
        other => panic!("unknown experiment id: {other}"),
    }
}

/// A map from experiment id to a short description (used by `--list`).
pub fn experiment_descriptions() -> BTreeMap<&'static str, &'static str> {
    BTreeMap::from([
        ("table1", "Dataset inventory"),
        (
            "table2",
            "Evaluation-workload difficulty histogram (8 options)",
        ),
        ("table3", "Difficulty histograms for 16/32 rewrite options"),
        ("fig12", "VQP on Twitter / NYC Taxi / TPC-H"),
        ("fig13", "AQRT on Twitter / NYC Taxi / TPC-H"),
        ("fig14", "VQP for 16/32 rewrite options"),
        ("fig15", "AQRT for 16/32 rewrite options"),
        ("fig16", "VQP for time budgets 0.25/0.75/1.0 s"),
        ("fig17", "AQRT for time budgets 0.25/0.75/1.0 s"),
        ("fig18", "Join queries (VQP + AQRT)"),
        ("fig19a", "Unseen query shapes"),
        ("fig19b", "Commercial database profile"),
        (
            "fig20",
            "Quality-aware rewriting (VQP, AQRT, Jaccard quality)",
        ),
        ("fig21", "Learning curves and training time"),
        (
            "ablation",
            "Exploration-schedule ablation (training and validation VQP)",
        ),
    ])
}
