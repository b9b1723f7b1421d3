//! The `chaos` experiment: serving availability under injected shard faults.
//!
//! The fault-tolerance layer claims that a sharded backend keeps answering —
//! degraded, never failed — while individual shards misbehave. This experiment
//! serves the same heatmap workload over a 4-shard mirrored backend whose
//! shards are wrapped in `vizdb::FaultInjectingBackend`, at injected per-shard
//! failure rates of 0%, 5% and 20% (seeded through `MALIVA_FAULT_SEED`, default
//! 42), and reports:
//!
//! * **availability** — the fraction of requests that produced an answer at
//!   all (full or degraded). The layer's contract is that this stays 1.0:
//!   shard faults degrade coverage, they never surface as request errors
//!   (asserted, not just reported);
//! * **quality split** — how many answers were full vs degraded, and the mean
//!   coverage fraction of the degraded ones;
//! * **latency** — wall-clock p99 per request, plus the retry and
//!   breaker-skip work the backend performed to get there;
//! * **the rate-0 identity** — with a fault rate of 0 the wrapped backend must
//!   serve responses byte-identical to an unwrapped mirror and count zero
//!   fault-handling work (asserted).
//!
//! Single-worker serving keeps the per-shard fault sequence a pure function of
//! the seed, so a run is reproducible end to end.

use std::sync::Arc;

use serde_json::json;

use maliva::{train_agent, RewardSpec, RewriteSpace};
use maliva_qte::AccurateQte;
use maliva_serve::{MalivaServer, ServeConfig, ServeRequest, ServeResponse};
use maliva_workload::QueryGenConfig;
use vizdb::{FaultPlan, QueryBackend, ResultQuality, ShardedBackend, ShardedBackendBuilder};

use crate::harness::{
    experiment_config, f1, queries_from_env, scale_from_env, scenario, DatasetKind,
    ExperimentOutput, Scenario,
};

const SEED: u64 = 42;
const SHARDS: usize = 4;
const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// The fault seed, overridable through `MALIVA_FAULT_SEED` (the same knob the
/// CI chaos smoke step sets).
fn fault_seed() -> u64 {
    std::env::var("MALIVA_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

fn heatmap_workload() -> QueryGenConfig {
    QueryGenConfig {
        binned_output: true,
        ..QueryGenConfig::default()
    }
}

/// Serves the evaluation viewports over `backend` with a single worker (so the
/// per-shard arrival order, and therefore the injected fault sequence, is
/// deterministic for a fixed seed).
fn serve_over(
    sc: &Scenario,
    agent: &Arc<maliva::QAgent>,
    backend: Arc<ShardedBackend>,
    requests: &[ServeRequest],
) -> (Vec<ServeResponse>, maliva_serve::ServeMetrics) {
    let shards = backend.shard_count();
    let qte = Arc::new(AccurateQte::new(backend.clone() as Arc<dyn QueryBackend>));
    MalivaServer::new(
        backend,
        agent.clone(),
        qte,
        Arc::new(RewriteSpace::hints_only),
        ServeConfig {
            workers: 1,
            shards,
            default_tau_ms: sc.tau_ms,
            ..ServeConfig::default()
        },
    )
    .serve_batch_timed(requests)
    .expect("chaos serving must degrade, never hard-fail")
}

/// The `chaos` experiment entry point.
pub fn run_chaos() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
    let seed = fault_seed();
    let sc = scenario(
        DatasetKind::Twitter,
        scale,
        500.0,
        &heatmap_workload(),
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
    let requests: Vec<ServeRequest> = sc
        .split
        .eval
        .iter()
        .map(|q| ServeRequest::new(q.clone()))
        .collect();

    // The pre-fault-injection baseline: an unwrapped mirror of the database.
    let plain = Arc::new(
        ShardedBackendBuilder::mirror(sc.db(), SHARDS).expect("mirroring the database into shards"),
    );
    let (reference, _) = serve_over(&sc, &agent, plain, &requests);

    let mut rows = Vec::new();
    let mut dump = Vec::new();
    for rate in FAULT_RATES {
        let backend = Arc::new(
            ShardedBackendBuilder::mirror_builder(sc.db(), SHARDS)
                .expect("mirroring the database into shards")
                .build_with_faults(FaultPlan::with_rates(seed, 0.0, rate, 0.0, 0.0)),
        );
        let (responses, metrics) = serve_over(&sc, &agent, backend.clone(), &requests);
        let availability = responses.len() as f64 / requests.len().max(1) as f64;
        assert!(
            (availability - 1.0).abs() < 1e-12,
            "every request must be answered at a {rate} fault rate"
        );

        let coverages: Vec<f64> = responses
            .iter()
            .filter_map(|r| match r.quality {
                ResultQuality::Degraded {
                    coverage_fraction, ..
                } => Some(coverage_fraction),
                ResultQuality::Full => None,
            })
            .collect();
        let degraded = coverages.len();
        let full = responses.len() - degraded;
        let mean_coverage = if degraded > 0 {
            coverages.iter().sum::<f64>() / degraded as f64
        } else {
            1.0
        };

        if rate == 0.0 {
            // The rate-0 identity: the fault wrapper must be a perfect no-op.
            assert!(
                reference.len() == responses.len()
                    && reference
                        .iter()
                        .zip(&responses)
                        .all(|(a, b)| a.deterministic_view() == b.deterministic_view()),
                "a rate-0 fault plan diverged from the unwrapped backend"
            );
            assert_eq!(
                (metrics.retries, metrics.degraded),
                (0, 0),
                "a rate-0 fault plan must cause no fault handling"
            );
        }

        rows.push(vec![
            format!("{:.0}%", rate * 100.0),
            format!("{}", responses.len()),
            f1(availability * 100.0),
            f1(full as f64 / responses.len().max(1) as f64 * 100.0),
            f1(degraded as f64 / responses.len().max(1) as f64 * 100.0),
            format!("{mean_coverage:.3}"),
            format!("{:.2}", metrics.p99_ms),
            format!("{}", metrics.retries),
            format!("{}", metrics.breaker_open_skips),
        ]);
        dump.push(json!({
            "fault_rate": rate,
            "requests": responses.len(),
            "availability": availability,
            "full": full,
            "degraded": degraded,
            "mean_degraded_coverage": mean_coverage,
            "p99_ms": metrics.p99_ms,
            "p50_ms": metrics.p50_ms,
            "retries": metrics.retries,
            "timeouts": metrics.timeouts,
            "breaker_open_skips": metrics.breaker_open_skips,
        }));
    }

    let payload = json!({ "seed": seed, "shards": SHARDS, "rates": dump });
    let output = ExperimentOutput {
        id: "chaos".into(),
        title: format!(
            "Chaos serving: availability under injected shard faults ({SHARDS} shards, seed \
             {seed}, {} heatmap viewports, tau = {} ms; wall-clock p99)",
            sc.split.eval.len(),
            sc.tau_ms
        ),
        headers: [
            "Fault rate",
            "Viewports",
            "Availability (%)",
            "Full (%)",
            "Degraded (%)",
            "Mean coverage",
            "p99 (ms)",
            "Retries",
            "Breaker skips",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        extra: payload.clone(),
    };
    // The availability baseline: a stable, machine-readable file at the repo
    // root (wall-clock latencies are host-dependent; availability and the
    // quality split are the tracked quantities).
    let _ = std::fs::write(
        "BENCH_chaos.json",
        serde_json::to_string_pretty(&json!({
            "experiment": "chaos",
            "dataset": "twitter",
            "viewports": sc.split.eval.len(),
            "results": payload,
        }))
        .unwrap_or_default(),
    );
    vec![output]
}
