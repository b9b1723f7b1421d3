//! The `exec` experiment: the reference interpreter vs the production bitmap
//! pipeline.
//!
//! The simulated backend's executor is the hottest path in the repo — every QTE
//! feature, Q-agent reward and serving decision is trained against its cost
//! profile. `vizdb` runs one production engine ([`vizdb::Database::run`]):
//! predicates are lowered once per execution, then evaluated over
//! `SelectionBitmap` chunks with 64-bit word kernels and index scans that
//! write straight into them. The row-at-a-time interpreter ([`vizdb::Database::run_reference`]) is
//! the oracle it is pinned against. This experiment runs the same viewport
//! workloads through both and reports:
//!
//! * **result equivalence** — every `QueryResult`, `WorkProfile` and simulated
//!   time must be byte-identical (asserted, not just reported: the two are
//!   observationally indistinguishable, only wall-clock differs);
//! * **aggregate wall-clock speedup** — total real time of the batch, pipeline
//!   vs interpreter, for a sequential-scan-heavy workload (every predicate
//!   residual), a multi-predicate index-residual one (two indexed predicates
//!   intersected, one residual) and an index-heavy one (every predicate
//!   answered by an index);
//! * **pricing vs executing** — the simulated times of a viewport's 8 hint
//!   sets from one [`vizdb::Database::execution_time_ms`] lattice pass against
//!   8 `run`s, asserted bit-identical, with the wall-clock ratio;
//! * a machine-readable `BENCH_exec.json` dump in the working directory,
//!   extending the repo's performance trajectory.
//!
//! In optimized builds the seq-scan-heavy speedup is asserted to be ≥ 2× and
//! the index-heavy aggregate (index-residual + index-heavy regimes) ≥ 1.5×;
//! debug builds only warn, since unoptimized codegen distorts the ratios.

use std::time::Instant;

use serde_json::json;

use vizdb::exec::QueryResult;
use vizdb::hints::{enumerate_hint_sets, HintSet, RewriteOption};
use vizdb::query::Query;
use vizdb::timing::WorkProfile;
use vizdb::{Database, RunOutcome};

use maliva_workload::QueryGenConfig;

use crate::harness::{queries_from_env, scale_from_env, scenario, DatasetKind, ExperimentOutput};

const SEED: u64 = 42;
/// Repeat the workload so the interpreted total is comfortably above timer
/// noise even at the tiny default scale.
const REPEATS: usize = 5;

/// One pass over a workload: total wall-clock nanos plus the per-query
/// results, work profiles and simulated times of the first repeat.
struct EnginePass {
    wall_nanos: u128,
    results: Vec<QueryResult>,
    work: Vec<WorkProfile>,
    sim_ms: f64,
}

/// Runs the workload [`REPEATS`] times through `engine`: [`Database::run`]
/// (the pipeline) or [`Database::run_reference`] (the interpreter).
fn run_pass(
    db: &Database,
    queries: &[Query],
    ro: &RewriteOption,
    engine: fn(&Database, &Query, &RewriteOption) -> vizdb::Result<RunOutcome>,
) -> EnginePass {
    let mut results = Vec::with_capacity(queries.len());
    let mut work = Vec::with_capacity(queries.len());
    let mut sim_ms = 0.0;
    let start = Instant::now();
    for repeat in 0..REPEATS {
        // Each repeat does the full amount of execution work (`run` always
        // executes; only the simulated-time *value* is cached), but collect the
        // observables once.
        for query in queries {
            let outcome = engine(db, query, ro).expect("executing a generated viewport query");
            if repeat == 0 {
                results.push(outcome.result);
                work.push(outcome.work);
                sim_ms += outcome.time_ms;
            }
        }
    }
    EnginePass {
        wall_nanos: start.elapsed().as_nanos(),
        results,
        work,
        sim_ms,
    }
}

fn assert_pass_matches(name: &str, engine: &str, reference: &EnginePass, pass: &EnginePass) {
    assert_eq!(
        reference.results, pass.results,
        "{name}: {engine} results must be byte-identical to the reference"
    );
    assert_eq!(
        reference.work, pass.work,
        "{name}: {engine} work profiles must match the reference"
    );
    assert!(
        (reference.sim_ms - pass.sim_ms).abs() < 1e-9,
        "{name}: {engine} simulated times must match ({} vs {})",
        reference.sim_ms,
        pass.sim_ms
    );
}

/// Prices every viewport's hint lattice through `execution_time_ms` (one
/// shared pass per viewport, the other hint sets read back from the time
/// cache) and executes the same rewrites one `run` each. The simulated times
/// must agree bit for bit; returns the wall-clock milliseconds of
/// `(the executions, the passes)` and the number of plans per viewport.
fn price_vs_execute(db: &Database, queries: &[Query], name: &str) -> (f64, f64, usize) {
    let mut executed = Vec::new();
    db.clear_caches();
    let start = Instant::now();
    for query in queries {
        for hints in enumerate_hint_sets(query) {
            let outcome = db.run(query, &RewriteOption::hinted(hints));
            executed.push(outcome.expect("executing a hinted viewport query").time_ms);
        }
    }
    let executed_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut priced = Vec::with_capacity(executed.len());
    db.clear_caches();
    let start = Instant::now();
    for query in queries {
        for hints in enumerate_hint_sets(query) {
            let time = db.execution_time_ms(query, &RewriteOption::hinted(hints));
            priced.push(time.expect("pricing a hinted viewport query"));
        }
    }
    let priced_ms = start.elapsed().as_secs_f64() * 1e3;
    db.clear_caches();

    let bits = |times: &[f64]| times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&executed),
        bits(&priced),
        "{name}: priced simulated times must be bit-identical to executed ones"
    );
    (
        executed_ms,
        priced_ms,
        executed.len() / queries.len().max(1),
    )
}

/// The `exec` experiment entry point.
pub fn run_exec_engine() -> Vec<ExperimentOutput> {
    // The two differ in *per-row* cost, so measure on tables big enough that
    // scans dominate the fixed per-query overheads (planning, fingerprint
    // hashing) they share: at least the `small` scale even when the
    // training-bound experiments default to `tiny`.
    let mut scale = scale_from_env();
    scale.rows = scale.rows.max(maliva_workload::DatasetScale::small().rows);
    let n = queries_from_env();

    // Two datasets x three plan regimes. Twitter viewports lead with a keyword
    // predicate (token-stripe sweep); NYC Taxi's are time/numeric/spatial (the
    // vectorized range scans). "seq-scan-heavy" forces every predicate
    // residual (the columnar kernels' regime); "index-residual" answers two
    // predicates from indexes and leaves one residual (candidate intersection
    // + bitmap refinement); "index-heavy" answers every predicate from an
    // index, leaving only scan + intersection work — the regime the
    // pipeline's sort-free index scans and word-wise AND target.
    let datasets = [DatasetKind::Twitter, DatasetKind::NycTaxi];
    let regimes = [
        (
            "seq-scan-heavy",
            RewriteOption::hinted(HintSet::with_mask(0)),
        ),
        (
            "index-residual",
            RewriteOption::hinted(HintSet::with_mask(0b011)),
        ),
        (
            "index-heavy",
            RewriteOption::hinted(HintSet::with_mask(0b111)),
        ),
    ];

    let mut rows = Vec::new();
    let mut dump = Vec::new();
    let mut pricing_rows = Vec::new();
    let mut pricing_dump = Vec::new();
    let mut seq_interp_ms = 0.0f64;
    let mut seq_bitmap_ms = 0.0f64;
    let mut idx_interp_ms = 0.0f64;
    let mut idx_bitmap_ms = 0.0f64;
    for kind in datasets {
        let sc = scenario(
            kind,
            scale,
            500.0,
            &QueryGenConfig {
                binned_output: true,
                ..QueryGenConfig::default()
            },
            n,
            SEED,
        );
        let db = sc.db();
        let queries: Vec<Query> = sc
            .split
            .train
            .iter()
            .chain(&sc.split.validation)
            .chain(&sc.split.eval)
            .cloned()
            .collect();
        for (regime, ro) in &regimes {
            let name = format!("{} {regime}", kind.name());
            // Untimed warmup touches every table/column once, so the measured
            // interpreted pass (which runs first) is not charged the first-touch
            // cost it would otherwise pay on behalf of the pipeline pass.
            for query in &queries {
                db.run_reference(query, ro).expect("warmup");
            }
            // Clear the simulated-time cache between passes so each pass
            // reports (and asserts against) its own computed times rather than
            // the other's canonical cached values.
            db.clear_caches();
            let interpreted = run_pass(db, &queries, ro, Database::run_reference);
            db.clear_caches();
            let bitmap = run_pass(db, &queries, ro, Database::run);
            assert_pass_matches(&name, "pipeline", &interpreted, &bitmap);
            let interp_ms = interpreted.wall_nanos as f64 / 1e6;
            let bitmap_ms = bitmap.wall_nanos as f64 / 1e6;
            let speedup = interp_ms / bitmap_ms.max(1e-9);
            match *regime {
                "seq-scan-heavy" => {
                    seq_interp_ms += interp_ms;
                    seq_bitmap_ms += bitmap_ms;
                }
                _ => {
                    idx_interp_ms += interp_ms;
                    idx_bitmap_ms += bitmap_ms;
                }
            }
            rows.push(vec![
                name.clone(),
                format!("{}", queries.len()),
                format!("{REPEATS}"),
                format!("{interp_ms:.1}"),
                format!("{bitmap_ms:.1}"),
                format!("{speedup:.2}x"),
                "yes".to_string(),
            ]);
            dump.push(json!({
                "workload": name,
                "dataset": kind.name(),
                "regime": regime,
                "queries": queries.len(),
                "repeats": REPEATS,
                "interpreted_wall_ms": interp_ms,
                "compiled_bitmap_wall_ms": bitmap_ms,
                "speedup": speedup,
                "identical_results": true,
            }));
        }

        let name = format!("{} hint lattice", kind.name());
        let (executed_ms, priced_ms, plans) = price_vs_execute(db, &queries, &name);
        let ratio = executed_ms / priced_ms.max(1e-9);
        pricing_rows.push(vec![
            name.clone(),
            format!("{}", queries.len()),
            format!("{plans}"),
            format!("{executed_ms:.1}"),
            format!("{priced_ms:.1}"),
            format!("{ratio:.2}x"),
            "yes".to_string(),
        ]);
        pricing_dump.push(json!({
            "workload": name,
            "dataset": kind.name(),
            "queries": queries.len(),
            "plans_per_query": plans,
            "executions_wall_ms": executed_ms,
            "one_pass_wall_ms": priced_ms,
            "executions_over_one_pass": ratio,
            "identical_times": true,
        }));
    }

    // The acceptance bars: the bitmap pipeline must at least halve the
    // wall clock of the seq-scan-heavy suite and take ≥ 1.5x off the
    // index-heavy suites. Only enforced in optimized builds (unoptimized
    // codegen distorts the ratios), and only unless
    // `MALIVA_EXEC_SPEEDUP_ASSERT=0` opts out — wall-clock ratios are the only
    // non-deterministic numbers in the suite, and a noisy shared runner should
    // be able to keep the (always-asserted) equivalence checks without gating
    // on the timing bars.
    let seq_speedup = seq_interp_ms / seq_bitmap_ms.max(1e-9);
    let idx_speedup = idx_interp_ms / idx_bitmap_ms.max(1e-9);
    eprintln!(
        "[exec] aggregate speedups: seq-scan-heavy {seq_speedup:.2}x, index-heavy {idx_speedup:.2}x"
    );
    let assert_opted_out =
        std::env::var("MALIVA_EXEC_SPEEDUP_ASSERT").is_ok_and(|v| v == "0" || v == "off");
    if cfg!(debug_assertions) || assert_opted_out {
        if seq_speedup < 2.0 || idx_speedup < 1.5 {
            eprintln!(
                "warning: speedups below bars (seq {seq_speedup:.2}x < 2x or index \
                 {idx_speedup:.2}x < 1.5x; assertion skipped: {})",
                if assert_opted_out {
                    "MALIVA_EXEC_SPEEDUP_ASSERT=0"
                } else {
                    "debug build; run with --release for the enforced numbers"
                }
            );
        }
    } else {
        assert!(
            seq_speedup >= 2.0,
            "bitmap pipeline must be >= 2x on the seq-scan-heavy workloads, got {seq_speedup:.2}x"
        );
        assert!(
            idx_speedup >= 1.5,
            "bitmap pipeline must be >= 1.5x on the index-heavy workloads, got {idx_speedup:.2}x"
        );
    }

    let pricing_payload = json!(pricing_dump);
    let payload = json!({
        "workloads": dump,
        "seq_scan_aggregate_speedup": seq_speedup,
        "index_aggregate_speedup": idx_speedup,
        "pricing_vs_executing": pricing_payload,
    });
    let output = ExperimentOutput {
        id: "exec".into(),
        title: format!(
            "Execution engine: reference interpreter vs bitmap pipeline, Twitter + NYC Taxi \
             heatmap viewports ({} rows/table, {REPEATS} repeats; wall clock; aggregate \
             speedups: seq-scan {seq_speedup:.2}x, index {idx_speedup:.2}x)",
            scale.rows,
        ),
        headers: [
            "Workload",
            "Viewports",
            "Repeats",
            "Interpreted (ms)",
            "Bitmap (ms)",
            "Speedup",
            "Identical results",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        extra: payload.clone(),
    };
    let pricing_output = ExperimentOutput {
        id: "exec-pricing".into(),
        title: format!(
            "Pricing vs executing: the simulated times of each viewport's hint sets from one \
             `execution_time_ms` lattice pass vs one `run` per hint set ({} rows/table; wall \
             clock; times bit-identical)",
            scale.rows,
        ),
        headers: [
            "Workload",
            "Viewports",
            "Plans",
            "Executions (ms)",
            "One pass each (ms)",
            "Ratio",
            "Identical times",
        ]
        .map(String::from)
        .to_vec(),
        rows: pricing_rows,
        extra: pricing_payload,
    };
    // The perf-trajectory baseline: a stable, machine-readable file at the repo
    // root (wall-clock numbers are host-dependent; the speedup ratios are the
    // tracked quantities).
    let _ = std::fs::write(
        "BENCH_exec.json",
        serde_json::to_string_pretty(&json!({
            "experiment": "exec",
            "datasets": ["twitter", "nyctaxi"],
            "rows_per_table": scale.rows,
            "repeats": REPEATS,
            "results": payload,
        }))
        .unwrap_or_default(),
    );
    vec![output, pricing_output]
}
