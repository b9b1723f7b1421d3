//! Shared experiment plumbing: scenario construction, rewriter line-ups, per-bucket
//! evaluation and result printing / serialisation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use maliva::{
    evaluate_workload, train_agent, MalivaConfig, MalivaRewriter, QueryRewriter, RewardSpec,
    RewriteSpace, WorkloadMetrics,
};
use maliva_baselines::{BaoConfig, BaoRewriter, BaselineRewriter};
use maliva_qte::approximate::ApproximateQteConfig;
use maliva_qte::{AccurateQte, ApproximateQte, QueryTimeEstimator};
use maliva_workload::{
    build_nyctaxi, build_tpch, build_twitter, generate_queries, split_workload, Dataset,
    DatasetScale, QueryGenConfig, WorkloadSplit,
};
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::Database;

/// Which of the paper's datasets to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// The Twitter dataset (Table 1 row 1).
    Twitter,
    /// The NYC-Taxi dataset (Table 1 row 2).
    NycTaxi,
    /// The TPC-H lineitem dataset (Table 1 row 3).
    Tpch,
}

impl DatasetKind {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Twitter => "Twitter",
            DatasetKind::NycTaxi => "NYC Taxi",
            DatasetKind::Tpch => "TPC-H",
        }
    }

    /// The time budget the paper uses for this dataset in Figures 12/13.
    pub fn default_tau_ms(&self) -> f64 {
        match self {
            DatasetKind::Twitter => 500.0,
            DatasetKind::NycTaxi => 1_000.0,
            DatasetKind::Tpch => 500.0,
        }
    }

    /// Builds the dataset at the given scale.
    pub fn build(&self, scale: DatasetScale, seed: u64) -> Dataset {
        match self {
            DatasetKind::Twitter => build_twitter(scale, seed),
            DatasetKind::NycTaxi => build_nyctaxi(scale, seed),
            DatasetKind::Tpch => build_tpch(scale, seed),
        }
    }
}

/// Reads the dataset scale from `MALIVA_SCALE` (default `tiny` so that `cargo test` and
/// quick runs stay fast; use `small` or `large` for report-quality numbers). Any other
/// value is a usage error: the process prints it and exits with status 2.
pub fn scale_from_env() -> DatasetScale {
    let value = std::env::var("MALIVA_SCALE").ok();
    or_exit(parse_scale(value.as_deref()))
}

/// Reads the workload size from `MALIVA_QUERIES` (default 240). A value that
/// is not a positive whole number is a usage error: the process prints it and
/// exits with status 2 rather than run on a size nobody asked for.
pub fn queries_from_env() -> usize {
    let value = std::env::var("MALIVA_QUERIES").ok();
    or_exit(parse_queries(value.as_deref()))
}

/// The parsed value, or exit with status 2 after printing the usage error.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

/// The dataset scale `MALIVA_SCALE = value` asks for (`tiny` when unset), or
/// the usage error naming the variable.
fn parse_scale(value: Option<&str>) -> Result<DatasetScale, String> {
    match value {
        None | Some("tiny") => Ok(DatasetScale::tiny()),
        Some("small") => Ok(DatasetScale::small()),
        Some("large") => Ok(DatasetScale::large()),
        Some(other) => Err(format!(
            "MALIVA_SCALE must be one of tiny, small or large, got `{other}`"
        )),
    }
}

/// The workload size `MALIVA_QUERIES = value` asks for (240 when unset), or
/// the usage error naming the variable.
fn parse_queries(value: Option<&str>) -> Result<usize, String> {
    let Some(value) = value else {
        return Ok(240);
    };
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "MALIVA_QUERIES must be a positive whole number of queries, got `{value}`"
        )),
    }
}

/// A fully prepared experiment scenario.
pub struct Scenario {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Train / validation / evaluation split of the generated workload.
    pub split: WorkloadSplit,
    /// Time budget τ in milliseconds.
    pub tau_ms: f64,
}

impl Scenario {
    /// The database handle.
    pub fn db(&self) -> &Arc<Database> {
        &self.dataset.db
    }
}

/// Builds a scenario: dataset + generated workload + split.
pub fn scenario(
    kind: DatasetKind,
    scale: DatasetScale,
    tau_ms: f64,
    gen_config: &QueryGenConfig,
    n_queries: usize,
    seed: u64,
) -> Scenario {
    let dataset = kind.build(scale, seed);
    let queries = generate_queries(&dataset, n_queries, gen_config, seed ^ 0xABCD);
    let split = split_workload(&queries, seed ^ 0x1234);
    Scenario {
        dataset,
        split,
        tau_ms,
    }
}

/// Training configuration used by the experiments (kept deliberately small so the whole
/// suite runs in minutes; increase `max_epochs` for closer-to-paper training).
pub fn experiment_config(tau_ms: f64) -> MalivaConfig {
    MalivaConfig {
        tau_ms,
        max_epochs: 6,
        epsilon_decay_episodes: 400,
        ..MalivaConfig::default()
    }
}

/// Summed agent-training wall time of every experiment this process has run, in
/// nanoseconds.
static TRAINING_NANOS: AtomicU64 = AtomicU64::new(0);

/// Adds one agent training's wall-clock seconds (`TrainingReport::wall_clock_secs`)
/// to [`training_secs`].
pub fn record_training(secs: f64) {
    TRAINING_NANOS.fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
}

/// Summed wall-clock seconds of every agent training recorded in this process.
pub fn training_secs() -> f64 {
    TRAINING_NANOS.load(Ordering::Relaxed) as f64 / 1e9
}

/// Builds the QTEs for a scenario: the oracle Accurate-QTE and a trained
/// sampling-based Approximate-QTE.
pub fn build_qtes(scenario: &Scenario) -> (Arc<AccurateQte>, Arc<ApproximateQte>) {
    let db = scenario.db().clone();
    let accurate = Arc::new(AccurateQte::new(db.clone()));
    let training: Vec<(Query, Vec<RewriteOption>)> = scenario
        .split
        .train
        .iter()
        .map(|q| {
            let ros = RewriteSpace::hints_only(q).options().to_vec();
            (q.clone(), ros)
        })
        .collect();
    let approximate = Arc::new(
        ApproximateQte::fit(db, ApproximateQteConfig::default(), &training)
            .expect("QTE training cannot fail on a generated workload"),
    );
    (accurate, approximate)
}

/// Trains an MDP rewriter for a scenario with the given QTE and space builder.
pub fn train_mdp_rewriter(
    scenario: &Scenario,
    qte: Arc<dyn QueryTimeEstimator>,
    label: &str,
    space_builder: Box<dyn Fn(&Query) -> RewriteSpace + Send + Sync>,
    config: &MalivaConfig,
) -> MalivaRewriter {
    let trained = train_agent(
        scenario.db(),
        qte.as_ref(),
        &scenario.split.train,
        space_builder.as_ref(),
        RewardSpec::efficiency_only(),
        config,
    )
    .expect("MDP training needs a non-empty training split");
    record_training(trained.report.wall_clock_secs);
    MalivaRewriter::new(
        label,
        scenario.db().clone(),
        qte,
        trained.agent,
        space_builder,
        config.tau_ms,
    )
}

/// The paper's standard rewriter line-up for Figures 12/13/14/16/17/18: Baseline, Bao,
/// MDP (Approximate-QTE) and MDP (Accurate-QTE), over the QTEs of [`build_qtes`].
pub fn standard_rewriters(
    scenario: &Scenario,
    qtes: (Arc<AccurateQte>, Arc<ApproximateQte>),
) -> Vec<Box<dyn QueryRewriter>> {
    let bao = BaoRewriter::train(
        scenario.db().clone(),
        &scenario.split.train,
        BaoConfig::default(),
    )
    .expect("Bao training needs a non-empty training split");
    let mut rewriters: Vec<Box<dyn QueryRewriter>> =
        vec![Box::new(BaselineRewriter::new()), Box::new(bao)];
    rewriters.extend(mdp_rewriters(scenario, qtes, RewriteSpace::hints_only));
    rewriters
}

/// MDP (Approximate-QTE) and MDP (Accurate-QTE), trained over `space`.
pub fn mdp_rewriters(
    scenario: &Scenario,
    (accurate, approximate): (Arc<AccurateQte>, Arc<ApproximateQte>),
    space: fn(&Query) -> RewriteSpace,
) -> [Box<dyn QueryRewriter>; 2] {
    let config = experiment_config(scenario.tau_ms);
    [
        Box::new(train_mdp_rewriter(
            scenario,
            approximate,
            "MDP (Approximate-QTE)",
            Box::new(space),
            &config,
        )),
        Box::new(train_mdp_rewriter(
            scenario,
            accurate,
            "MDP (Accurate-QTE)",
            Box::new(space),
            &config,
        )),
    ]
}

/// Per-bucket, per-rewriter evaluation results.
#[derive(Debug, Clone, Serialize)]
pub struct BucketReport {
    /// Bucket label ("1", "1-2", ...) → rewriter name → metrics.
    pub buckets: BTreeMap<String, BTreeMap<String, WorkloadMetrics>>,
    /// Number of evaluation queries per bucket.
    pub bucket_sizes: BTreeMap<String, usize>,
}

/// The default difficulty buckets of Figures 12/13: 1, 2, 3 and 4 viable plans.
pub fn bucket_edges_small() -> Vec<(usize, usize)> {
    vec![(1, 1), (2, 2), (3, 3), (4, 4)]
}

/// Evaluates every rewriter on every difficulty bucket of the evaluation workload.
pub fn evaluate_by_bucket(
    db: &Arc<Database>,
    rewriters: &[Box<dyn QueryRewriter>],
    eval_queries: &[Query],
    tau_ms: f64,
    edges: &[(usize, usize)],
) -> BucketReport {
    let buckets_idx = maliva::metrics::bucket_by_viable_plans(db, eval_queries, tau_ms, edges)
        .expect("difficulty bucketing cannot fail");
    let mut buckets = BTreeMap::new();
    let mut bucket_sizes = BTreeMap::new();
    for (label, indices) in &buckets_idx {
        let subset: Vec<Query> = indices.iter().map(|&i| eval_queries[i].clone()).collect();
        bucket_sizes.insert(label.clone(), subset.len());
        if subset.is_empty() {
            continue;
        }
        let mut per_rewriter = BTreeMap::new();
        for rewriter in rewriters {
            let metrics = evaluate_workload(rewriter.as_ref(), db, &subset, tau_ms)
                .expect("evaluation cannot fail");
            per_rewriter.insert(rewriter.name(), metrics);
        }
        buckets.insert(label.clone(), per_rewriter);
    }
    BucketReport {
        buckets,
        bucket_sizes,
    }
}

/// A printable / serialisable experiment output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOutput {
    /// Experiment id ("fig12", "table2", ...).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers of the printed table.
    pub headers: Vec<String>,
    /// Table rows (first cell is the row label).
    pub rows: Vec<Vec<String>>,
}

impl ExperimentOutput {
    /// Prints the output as an aligned text table.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        print_table(&self.headers, &self.rows);
    }
}

/// Prints an aligned text table.
pub fn print_table(headers: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(headers));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Saves an experiment output as JSON under `target/experiments/<id>.json`.
pub fn save_json(output: &ExperimentOutput) {
    let dir = std::path::Path::new("target").join("experiments");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{}.json", output.id));
    let _ = std::fs::write(
        path,
        serde_json::to_string_pretty(output).unwrap_or_default(),
    );
}

/// Formats a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats milliseconds as seconds with two decimals (the paper reports AQRT in
/// seconds).
pub fn secs(v_ms: f64) -> String {
    format!("{:.2}", v_ms / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_default_to_240_and_take_any_positive_count() {
        assert_eq!(parse_queries(None), Ok(240));
        assert_eq!(parse_queries(Some("1")), Ok(1));
        assert_eq!(parse_queries(Some(" 400 ")), Ok(400));
    }

    #[test]
    fn zero_or_non_numeric_queries_name_the_variable() {
        for bad in ["0", "-3", "", "abc", "2.5"] {
            let err = parse_queries(Some(bad)).unwrap_err();
            assert!(err.contains("MALIVA_QUERIES"), "{bad:?}: {err}");
            assert!(err.contains(&format!("`{bad}`")), "{bad:?}: {err}");
        }
    }

    #[test]
    fn scales_are_named_exactly_and_others_name_the_variable() {
        assert_eq!(parse_scale(None), Ok(DatasetScale::tiny()));
        assert_eq!(parse_scale(Some("tiny")), Ok(DatasetScale::tiny()));
        assert_eq!(parse_scale(Some("small")), Ok(DatasetScale::small()));
        assert_eq!(parse_scale(Some("large")), Ok(DatasetScale::large()));
        for bad in ["Large", "huge", "", "smal"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains("MALIVA_SCALE"), "{bad:?}: {err}");
            assert!(err.contains(&format!("`{bad}`")), "{bad:?}: {err}");
        }
    }
}
