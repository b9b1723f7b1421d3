//! One workload, end to end: set-up, the timed phase (tracing off), the
//! correctness check, and — with `--trace 1` — the traced replay.

use std::path::{Path, PathBuf};
use std::time::Duration;

use maliva_serve::MalivaServer;
use serde_json::{json, Value};
use vizdb::hints::RewriteOption;

use crate::phase::{self, PhaseLog};
use crate::replay;
use crate::spec::{self, BenchmarkSpec, MetricSpec};
use crate::stats;
use crate::trace;
use crate::workloads::{self, Shape, Stage};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: PathBuf,
}

/// What one run measured. `end_to_end` is always filled (the timed phase runs
/// with tracing off either way); `per_layer` only by a traced run.
pub struct RunResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Wall and CPU metrics at reference speed (see `hostspeed`).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// The same wall and CPU metrics as the clock read them.
    pub as_clocked: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    pub input_digest: String,
    pub decision_digest: String,
    pub result_digest: String,
    pub rows: usize,
}

fn serve_phase(server: &MalivaServer, stage: &Stage, slots: &[u32], cap: Duration) -> PhaseLog {
    match stage.spec.shape {
        Shape::Frames => phase::open_loop(
            server,
            &stage.traffic.pool,
            slots,
            stage.traffic.op_size,
            cap,
        ),
        _ => phase::closed_loop(server, &stage.traffic.pool, slots, cap, true),
    }
}

/// Builds the stage and its server and warms both up. Warm-up goes through the
/// closed loop for every workload: what it must do is fill caches.
fn set_up(
    spec: &'static workloads::Spec,
    seed: u64,
    seconds: u64,
) -> Result<(Stage, MalivaServer), String> {
    let mut stage = workloads::build_stage(spec, seed, seconds)?;
    let server = stage.build_server(stage.backend.clone(), stage.qte.clone());
    let times = &mut stage.times;
    let warm = workloads::timed(&mut times.warmup_s, &mut times.probe_ns, || {
        phase::closed_loop(
            &server,
            &stage.traffic.pool,
            &stage.traffic.warmup,
            Duration::MAX,
            false,
        )
    });
    if warm.failed > 0 {
        return Err(format!("{} warm-up requests failed", warm.failed));
    }
    Ok((stage, server))
}

/// Every kept result must equal the unsharded database's answer to the
/// unrewritten query.
fn kept_results_are_right(stage: &Stage, log: &PhaseLog) -> Result<bool, String> {
    let original = RewriteOption::original();
    for (pos, result) in &log.kept {
        let request = &stage.traffic.pool[stage.traffic.schedule[*pos] as usize];
        let expected = stage
            .reference
            .run(&request.query, &original)
            .map_err(|e| format!("reference run of request {pos}: {e}"))?;
        if expected.result != *result {
            eprintln!("request {pos}: served result differs from the unrewritten query's");
            return Ok(false);
        }
    }
    Ok(!log.kept.is_empty())
}

pub fn run(args: &RunArgs, contract: &BenchmarkSpec) -> Result<RunResult, String> {
    let spec = workloads::spec_named(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;

    // Set-up, repeated so that its time is a median rather than one sample. A
    // traced run reports per-layer metrics only, so it sets up once.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        // Free the previous stage first: two at once would double the peak RSS.
        drop(built.take());
        let stage_and_server = set_up(spec, args.seed, args.seconds)?;
        let times = &stage_and_server.0.times;
        setup_s.push((times.total_at_reference_speed_s(), times.total_s()));
        built = Some(stage_and_server);
    }
    let (stage, server) = built.expect("at least one set-up ran");
    let (setup_s, setup_clocked_s): (Vec<f64>, Vec<f64>) = setup_s.into_iter().unzip();

    let mut correct = true;
    eprintln!(
        "{}: seed {} input_digest {}",
        spec.name, args.seed, stage.input_digest
    );
    // The traffic depends on the run length too, so the pin is for the default of both.
    if args.seed == spec::DEFAULT_SEED && args.seconds == contract.run_seconds {
        let pinned = spec::pinned_digest(spec.name);
        if pinned.as_deref() != Some(stage.input_digest.as_str()) {
            eprintln!(
                "{}: the generated traffic changed: input_digest {} but benchmark/pins.json pins {:?}",
                spec.name, stage.input_digest, pinned
            );
            correct = false;
        }
    }

    // The timed phase. The cap, twice the time the schedule is sized for, only
    // guards the driver's time limit: on the reference box the schedule runs
    // out first, which keeps counts exact.
    let cache_before = server.cache_stats();
    let log = serve_phase(
        &server,
        &stage,
        &stage.traffic.schedule,
        Duration::from_secs_f64(2.0 * stage.traffic.ops() as f64 / spec.ops_per_second() as f64),
    );
    let cache_after = server.cache_stats();
    let peak_rss_mb = phase::peak_rss_mb();
    let clocked = log.summary();
    let summary = clocked.at_reference_speed(spec.shape != Shape::Frames);
    let (decision_digest, result_digest) = log.digests();
    correct &= kept_results_are_right(&stage, &log)?;
    eprintln!(
        "{}: the host ran at {:.3} of the reference kernel's time ({} probes)",
        spec.name,
        summary.slowdown,
        log.probe_ns.len()
    );

    let end_to_end = vec![
        ("lat_p50_ms", summary.lat_p50_ms),
        ("lat_p95_ms", summary.lat_p95_ms),
        ("throughput_rps", summary.throughput_rps),
        ("cpu_ms_per_req", summary.cpu_ms_per_req),
        ("vqp", summary.vqp),
        ("sim_resp_mean_ms", summary.sim_resp_mean_ms),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", stats::median(setup_s)),
    ];
    let as_clocked = vec![
        ("lat_p50_ms", clocked.lat_p50_ms),
        ("lat_p95_ms", clocked.lat_p95_ms),
        ("throughput_rps", clocked.throughput_rps),
        ("cpu_ms_per_req", clocked.cpu_ms_per_req),
        ("setup_s", stats::median(setup_clocked_s)),
    ];

    let mut per_layer = Vec::new();
    if args.trace {
        let lookups =
            (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
        let (time_entries, selectivity_entries) = stage.backend.cache_entry_counts();
        per_layer.extend([
            (
                "serve.cache_hit_share",
                (cache_after.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
            ),
            (
                "serve.cache_evictions",
                (cache_after.evictions - cache_before.evictions) as f64,
            ),
            ("host.slowdown", summary.slowdown),
            ("serve.shed", server.shed_count() as f64),
            (
                "serve.failed_share",
                summary.failed as f64 / summary.attempted.max(1) as f64,
            ),
            ("serve.lat_p99_ms", summary.lat_p99_ms),
            ("gen.lag_p95_ms", summary.lag_p95_ms),
            ("dbcache.time_entries", time_entries as f64),
            ("dbcache.selectivity_entries", selectivity_entries as f64),
            ("setup.dataset_s", stage.times.dataset_s),
            ("setup.train_s", stage.times.train_s),
            ("setup.qte_fit_s", stage.times.qte_fit_s),
            ("setup.mirror_s", stage.times.mirror_s),
            ("setup.requests_s", stage.times.requests_s),
            ("setup.warmup_s", stage.times.warmup_s),
        ]);
        drop(server);
        let replayed = replay::replay(&stage)?;
        if replayed.wrong > 0 {
            eprintln!(
                "{}: {} of {} replayed requests were answered wrongly",
                spec.name, replayed.wrong, replayed.requests
            );
            correct = false;
        }
        per_layer.extend(replayed.metrics);
        std::fs::create_dir_all(&args.out)
            .and_then(|()| {
                trace::dump_jsonl(
                    &replayed.spans,
                    &args.out.join(format!("trace-{}.jsonl", spec.name)),
                )
            })
            .map_err(|e| format!("writing the trace under {}: {e}", args.out.display()))?;
        eprintln!(
            "{}: replay decision_digest {} result_digest {}",
            spec.name, replayed.decision_digest, replayed.result_digest
        );
    }
    eprintln!(
        "{}: decision_digest {decision_digest} result_digest {result_digest}",
        spec.name
    );

    Ok(RunResult {
        workload: spec.name,
        correct,
        attempted: summary.attempted,
        failed: summary.failed,
        end_to_end,
        as_clocked,
        per_layer,
        input_digest: stage.input_digest.clone(),
        decision_digest,
        result_digest,
        rows: stage.rows,
    })
}

fn metric_object(values: &[(&'static str, f64)], specs: &[MetricSpec]) -> Result<Value, String> {
    let mut entries = Vec::with_capacity(specs.len());
    for spec in specs {
        let (_, value) = values
            .iter()
            .find(|(name, _)| *name == spec.name)
            .ok_or_else(|| format!("metric `{}` of BENCHMARK.json was not measured", spec.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not a finite number", spec.name));
        }
        entries.push((
            spec.name.clone(),
            json!({"value": *value, "unit": spec.unit.clone()}),
        ));
    }
    Ok(Value::Object(entries))
}

impl RunResult {
    /// The line the driver reads: end-to-end metrics of an untraced run, the
    /// per-layer ones of a traced run.
    pub fn contract_line(&self, contract: &BenchmarkSpec, trace: bool) -> Result<String, String> {
        let metrics = if trace {
            metric_object(&self.per_layer, &contract.per_layer)?
        } else {
            metric_object(&self.end_to_end, &contract.end_to_end)?
        };
        serde_json::to_string(&json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))
        .map_err(|e| e.to_string())
    }

    /// The result file's entry for this workload.
    pub fn to_json(&self, contract: &BenchmarkSpec) -> Result<Value, String> {
        let per_layer = if self.per_layer.is_empty() {
            Value::Null
        } else {
            metric_object(&self.per_layer, &contract.per_layer)?
        };
        Ok(json!({
            "workload": self.workload,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "rows": self.rows,
            "input_digest": self.input_digest.clone(),
            "decision_digest": self.decision_digest.clone(),
            "result_digest": self.result_digest.clone(),
            "end_to_end": metric_object(&self.end_to_end, &contract.end_to_end)?,
            "as_clocked": Value::Object(
                self.as_clocked
                    .iter()
                    .map(|(name, value)| (name.to_string(), json!(*value)))
                    .collect(),
            ),
            "per_layer": per_layer,
        }))
    }
}

/// What must match for two result files to be comparable, plus the git sha.
pub fn envelope(seed: u64, seconds: u64) -> Value {
    let git_sha = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |sha| sha.trim().to_string());
    json!({
        "git_sha": git_sha,
        "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "rustc": env!("BENCH_RUSTC_VERSION"),
        "seed": seed,
        "seconds": seconds,
    })
}

pub fn write_result_file(
    path: &Path,
    envelope: Value,
    workloads: Vec<Value>,
) -> Result<(), String> {
    let body = serde_json::to_string_pretty(&json!({
        "envelope": envelope,
        "workloads": Value::Array(workloads),
    }))
    .map_err(|e| e.to_string())?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}
