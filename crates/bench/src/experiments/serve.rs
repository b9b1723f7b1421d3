//! The `serve` experiment: throughput and latency of the concurrent serving
//! layer (`maliva-serve`) at 1/2/4/8 workers, plus a decision-cache ablation.
//!
//! Unlike the paper-figure experiments, wall-clock numbers here depend on the
//! host (core count, load); the *responses* do not — every run is checked
//! byte-identical to the single-threaded, cache-disabled reference, and the
//! simulated planning-cost savings of the decision cache are reported as a
//! hardware-independent aggregate speedup.

use std::sync::Arc;

use serde_json::json;

use maliva::{train_agent, QAgent, RewardSpec, RewriteSpace};
use maliva_qte::{AccurateQte, QueryTimeEstimator};
use maliva_serve::{
    DecisionCacheConfig, MalivaServer, ServeConfig, ServeMetrics, ServeRequest, ServeResponse,
};
use maliva_workload::QueryGenConfig;

use crate::harness::{
    experiment_config, f1, queries_from_env, scale_from_env, scenario, DatasetKind,
    ExperimentOutput, Scenario,
};

const SEED: u64 = 42;
/// How often each evaluation viewport is re-requested (map frontends re-issue
/// the same viewport as users pan back and forth).
const REPEATS: usize = 3;

fn build_requests(sc: &Scenario) -> Vec<ServeRequest> {
    let mut requests = Vec::new();
    for _ in 0..REPEATS {
        for q in &sc.split.eval {
            requests.push(ServeRequest::new(q.clone()));
        }
    }
    requests
}

fn make_server(sc: &Scenario, agent: &Arc<QAgent>, workers: usize, cache: bool) -> MalivaServer {
    let db = sc.db().clone();
    let qte: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(db.clone()));
    MalivaServer::new(
        db,
        agent.clone(),
        qte,
        Arc::new(RewriteSpace::hints_only),
        ServeConfig {
            workers,
            default_tau_ms: sc.tau_ms,
            cache: if cache {
                DecisionCacheConfig::default()
            } else {
                DecisionCacheConfig::disabled()
            },
            ..ServeConfig::default()
        },
    )
}

fn run_once(
    sc: &Scenario,
    agent: &Arc<QAgent>,
    requests: &[ServeRequest],
    workers: usize,
    cache: bool,
) -> (
    Vec<ServeResponse>,
    ServeMetrics,
    maliva_serve::DecisionCacheStats,
) {
    // Pristine database caches so every run does the same amount of work.
    sc.db().clear_caches();
    let server = make_server(sc, agent, workers, cache);
    let (responses, metrics) = server
        .serve_batch_timed(requests)
        .expect("serving a generated workload");
    (responses, metrics, server.cache_stats())
}

fn assert_identical(reference: &[ServeResponse], observed: &[ServeResponse]) -> bool {
    reference.len() == observed.len()
        && reference
            .iter()
            .zip(observed)
            .all(|(a, b)| a.deterministic_view() == b.deterministic_view())
}

/// Total simulated planning cost the batch paid (cache hits pay the canonical
/// cost of their key exactly once in this sum's "unique" variant).
fn total_planning_ms(responses: &[ServeResponse]) -> f64 {
    responses.iter().map(|r| r.planning_ms).sum()
}

/// The `serve` experiment entry point.
pub fn run_serve_throughput() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let sc = scenario(
        DatasetKind::Twitter,
        scale,
        500.0,
        &QueryGenConfig::default(),
        n,
        SEED,
    );
    let qte = AccurateQte::new(sc.db().clone());
    let trained = train_agent(
        sc.db(),
        &qte,
        &sc.split.train,
        &RewriteSpace::hints_only,
        RewardSpec::efficiency_only(),
        &experiment_config(sc.tau_ms),
    )
    .expect("training on a generated workload");
    let agent = Arc::new(trained.agent);
    let requests = build_requests(&sc);

    // Reference: single worker, decision cache disabled.
    let (reference, base_metrics, _) = run_once(&sc, &agent, &requests, 1, false);

    let mut rows = Vec::new();
    let mut worker_metrics = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (responses, metrics, cache_stats) = run_once(&sc, &agent, &requests, workers, true);
        let identical = assert_identical(&reference, &responses);
        assert!(identical, "served responses diverged at {workers} workers");
        rows.push(vec![
            format!("{workers}"),
            format!("{}", metrics.requests),
            f1(metrics.queries_per_sec),
            format!("{:.3}", metrics.p50_ms),
            format!("{:.3}", metrics.p95_ms),
            format!("{:.3}", metrics.p99_ms),
            format!("{:.0}%", cache_stats.hit_rate() * 100.0),
            format!(
                "{:.2}x",
                metrics.queries_per_sec / base_metrics.queries_per_sec.max(1e-12)
            ),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        worker_metrics.push((workers, metrics, cache_stats));
    }
    // The per-worker metrics, machine-readable, saved with the table.
    let per_worker = json!({
        "workers": worker_metrics
            .iter()
            .map(|(w, m, c)| {
                json!({
                    "workers": w,
                    "qps": m.queries_per_sec,
                    "wall_clock_ms": m.wall_clock_ms,
                    "p50_ms": m.p50_ms,
                    "p95_ms": m.p95_ms,
                    "p99_ms": m.p99_ms,
                    "cache_hits": c.hits,
                    "cache_misses": c.misses,
                })
            })
            .collect::<Vec<_>>(),
    });
    let throughput = ExperimentOutput {
        id: "serve".into(),
        title: format!(
            "Serving throughput, Twitter tau = {} ms ({} requests = {} eval queries x {} repeats)",
            sc.tau_ms,
            requests.len(),
            sc.split.eval.len(),
            REPEATS
        ),
        headers: [
            "Workers",
            "Requests",
            "Queries/s",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "Cache hit rate",
            "Speedup vs uncached 1w",
            "Identical results",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        extra: per_worker,
    };

    // Cache ablation, measured at 1 worker so hit/miss counts are deterministic
    // (concurrent workers can race to a double miss on the same key): the
    // simulated planning cost the decision cache saves is hardware-independent —
    // each repeated viewport pays its planning cost once instead of every time.
    let (cached_responses, _, cached_stats) = run_once(&sc, &agent, &requests, 1, true);
    // Misses paid planning; hits were answered from the cache for free. At one
    // worker, misses are exactly the distinct request keys.
    let paid_with_cache: f64 = cached_responses
        .iter()
        .filter(|r| !r.cache_hit)
        .map(|r| r.planning_ms)
        .sum();
    let paid_without_cache = total_planning_ms(&reference);
    let ablation = ExperimentOutput {
        id: "serve_cache_ablation".into(),
        title: "Decision-cache ablation: simulated planning cost paid".into(),
        headers: [
            "Configuration",
            "Planning paid (ms)",
            "Aggregate planning speedup",
            "Hits",
            "Misses",
            "Evictions",
        ]
        .map(String::from)
        .to_vec(),
        rows: vec![
            vec![
                "no decision cache".into(),
                f1(paid_without_cache),
                "1.00x".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
            vec![
                "decision cache".into(),
                f1(paid_with_cache),
                format!("{:.2}x", paid_without_cache / paid_with_cache.max(1e-12)),
                format!("{}", cached_stats.hits),
                format!("{}", cached_stats.misses),
                format!("{}", cached_stats.evictions),
            ],
        ],
        extra: serde_json::Value::Null,
    };

    vec![throughput, ablation]
}
