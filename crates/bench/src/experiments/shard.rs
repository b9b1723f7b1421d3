//! The `shard` experiment: per-region scale-out of the backend database.
//!
//! The serving layer can mirror its database into N per-region shards behind
//! the same [`vizdb::QueryBackend`] surface (`vizdb::ShardedBackend`, a 2-D
//! tile layout fixed at build): a viewport query fans out only to the shards
//! owning a tile its filter rectangle overlaps, per-shard heatmap grids merge
//! by summing counts per cell, and the merged execution time is the slowest
//! overlapping shard (the shards run in parallel on the simulated clock). This
//! experiment serves the same heatmap workload at 1/2/4/8 shards and reports:
//!
//! * **result equivalence** — every served `BinnedCounts` grid must be
//!   byte-identical to the single-backend reference (asserted, not just
//!   reported; the rewrite space contains only exact index-hint rewrites, so
//!   results are decision-independent);
//! * **aggregate speedup** — total simulated execution time of the batch vs the
//!   single backend (hardware-independent: the simulated clock, not wall time);
//! * **fan-out** — the mean number of shards a viewport actually touches, which
//!   is why pruned viewports gain more than the `1/N` parallel bound suggests.

use std::sync::Arc;

use serde_json::json;

use maliva::{train_agent, RewardSpec, RewriteSpace};
use maliva_qte::AccurateQte;
use maliva_serve::{MalivaServer, ServeConfig, ServeRequest, ServeResponse};
use maliva_workload::QueryGenConfig;
use vizdb::{QueryBackend, ShardedBackend, ShardedBackendBuilder};

use crate::harness::{
    experiment_config, f1, queries_from_env, scale_from_env, scenario, DatasetKind,
    ExperimentOutput, Scenario,
};

const SEED: u64 = 42;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn heatmap_workload() -> QueryGenConfig {
    QueryGenConfig {
        binned_output: true,
        ..QueryGenConfig::default()
    }
}

/// Serves the evaluation viewports over an already-mirrored backend (built once
/// per shard count and shared with the fan-out statistic).
fn serve_over(
    sc: &Scenario,
    agent: &Arc<maliva::QAgent>,
    backend: &Arc<ShardedBackend>,
) -> Vec<ServeResponse> {
    let qte = Arc::new(AccurateQte::new(backend.clone() as Arc<dyn QueryBackend>));
    MalivaServer::new(
        backend.clone(),
        agent.clone(),
        qte,
        Arc::new(RewriteSpace::hints_only),
        ServeConfig {
            workers: 4,
            shards: backend.shard_count(),
            default_tau_ms: sc.tau_ms,
            ..ServeConfig::default()
        },
    )
    .serve_batch(
        &sc.split
            .eval
            .iter()
            .map(|q| ServeRequest::new(q.clone()))
            .collect::<Vec<_>>(),
    )
    .expect("serving the heatmap workload")
}

/// Mean number of shards the workload's viewports fan out to.
fn mean_fan_out(sc: &Scenario, backend: &ShardedBackend) -> f64 {
    let total: usize = sc
        .split
        .eval
        .iter()
        .map(|q| {
            backend
                .overlapping_shards(q)
                .expect("routing a generated query")
                .len()
        })
        .sum();
    total as f64 / sc.split.eval.len().max(1) as f64
}

/// The `shard` experiment entry point.
pub fn run_shard_scaling() -> Vec<ExperimentOutput> {
    let scale = scale_from_env();
    let n = queries_from_env();
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

    let mirror = |shards: usize| -> Arc<ShardedBackend> {
        Arc::new(
            ShardedBackendBuilder::mirror(sc.db(), shards)
                .expect("mirroring the database into shards"),
        )
    };
    let reference = serve_over(&sc, &agent, &mirror(1));
    let reference_exec_ms: f64 = reference.iter().map(|r| r.exec_ms).sum();

    let mut rows = Vec::new();
    let mut shard_dump = Vec::new();
    for shards in SHARD_COUNTS {
        let backend = mirror(shards);
        let responses = serve_over(&sc, &agent, &backend);
        let identical = reference.len() == responses.len()
            && reference
                .iter()
                .zip(&responses)
                .all(|(a, b)| a.result == b.result);
        assert!(
            identical,
            "sharded results diverged from the single backend at {shards} shards"
        );
        let exec_ms: f64 = responses.iter().map(|r| r.exec_ms).sum();
        let viable = responses.iter().filter(|r| r.viable).count();
        let speedup = reference_exec_ms / exec_ms.max(1e-12);
        let fan_out = mean_fan_out(&sc, &backend);
        rows.push(vec![
            format!("{shards}"),
            format!("{}", responses.len()),
            format!("{:.2}", fan_out),
            format!("{:.1}", exec_ms),
            format!("{speedup:.2}x"),
            f1(viable as f64 / responses.len().max(1) as f64 * 100.0),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        shard_dump.push(json!({
            "shards": shards,
            "exec_ms": exec_ms,
            "speedup": speedup,
            "mean_fan_out": fan_out,
            "viable": viable,
        }));
    }

    let scaling_payload = json!({ "shards": shard_dump });
    let output = ExperimentOutput {
        id: "shard".into(),
        title: format!(
            "Per-region shard scaling, Twitter heatmaps tau = {} ms ({} viewports; simulated \
             execution time, slowest-overlapping-shard model)",
            sc.tau_ms,
            sc.split.eval.len()
        ),
        headers: [
            "Shards",
            "Viewports",
            "Mean fan-out",
            "Total exec (ms)",
            "Exec speedup vs 1 shard",
            "VQP (%)",
            "Identical results",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        extra: scaling_payload.clone(),
    };
    // The shard perf-trajectory baseline at the repo root: all numbers here are
    // simulated-clock quantities, so the file is stable across hosts.
    let _ = std::fs::write(
        "BENCH_shard.json",
        serde_json::to_string_pretty(&json!({
            "experiment": "shard",
            "dataset": "twitter",
            "shard_counts": SHARD_COUNTS.to_vec(),
            "scaling": scaling_payload,
        }))
        .unwrap_or_default(),
    );
    vec![output]
}
