//! The traced run: after the timed phase, the first operations of the workload
//! are replayed single-threaded through `TimedBackend` / `TimedQte`, with
//! explicit, span-wrapped calls into each layer. It yields the per-layer
//! metrics, runs the correctness oracle on every replayed request, and fits the
//! cost model against wall time.
//!
//! Four passes over the same requests, each starting from empty database
//! caches and a freshly warmed decision cache, so all see the same misses:
//!
//! 1. untraced `serve_one` — the base for `trace.overhead_share` and the
//!    per-request service times behind `serve.frame_overhead_us`;
//! 2. (frames only) untraced `serve_queued`, frame by frame;
//! 3. traced `serve_one` — the in-situ span tree and the served results;
//! 4. explicit layer calls: `plan_online` for every request pass 3 had to plan,
//!    then `run_with_context` with the served rewrite, then the unsharded
//!    `Database::{plan, run}` for it, then the oracle.

use std::sync::Arc;
use std::time::Instant;

use maliva::{plan_online, RewriteSpace};
use maliva_serve::{MalivaServer, ServeRequest, ServeResponse};
use vizdb::hints::RewriteOption;
use vizdb::timing::{CostParams, WorkProfile};
use vizdb::{ExecContext, QueryBackend};

use crate::phase::hash_result;
use crate::stats::{self, Digest};
use crate::trace::{self, Span, TimedBackend, TimedQte, Tracer};
use crate::workloads::{Stage, CLIENTS};

const SERVE_ONE: &str = "serve.serve_one";
const PLAN_ONLINE: &str = "core.plan_online";
const OPTIMIZER_PLAN: &str = "optimizer.plan";
const EXEC_RUN: &str = "exec.run";

pub struct Replayed {
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    pub requests: usize,
    /// Requests whose served result differed from the unsharded, unhinted run,
    /// or that failed outright.
    pub wrong: u64,
    pub decision_digest: String,
    pub result_digest: String,
}

fn warm(server: &MalivaServer, stage: &Stage) -> Result<(), String> {
    for &slot in &stage.traffic.warmup {
        server
            .serve_one(0, &stage.traffic.pool[slot as usize])
            .map_err(|e| format!("warming a replay server: {e}"))?;
    }
    Ok(())
}

fn mean_ns_as(spans: &[&Span], unit_ns: f64) -> f64 {
    stats::mean(
        &spans
            .iter()
            .map(|s| s.duration_ns() as f64 / unit_ns)
            .collect::<Vec<f64>>(),
    )
}

/// Least-squares fit of unsharded run wall time on the work counters the cost
/// model prices, printed beside the ratio `CostParams` assumes.
fn calibrate(
    samples: &[(WorkProfile, f64)],
    cost: &CostParams,
    metrics: &mut Vec<(&'static str, f64)>,
) {
    const NAMES: [&str; 3] = [
        "exec.ns_per_seq_row",
        "exec.ns_per_index_entry",
        "exec.ns_per_heap_fetch",
    ];
    let counters = |w: &WorkProfile| [w.seq_rows, w.index_entries, w.heap_fetches];
    let assumed = [cost.seq_row_ms, cost.index_entry_ms, cost.heap_fetch_ms];
    // A counter that never varies on this workload cannot be priced from it.
    let first = counters(&samples[0].0);
    let varying: Vec<usize> = (0..NAMES.len())
        .filter(|&c| samples.iter().any(|(w, _)| counters(w)[c] != first[c]))
        .collect();
    let xs: Vec<Vec<f64>> = samples
        .iter()
        .map(|(w, _)| varying.iter().map(|&c| counters(w)[c] as f64).collect())
        .collect();
    let ys: Vec<f64> = samples.iter().map(|(_, ns)| *ns).collect();
    let mut fitted = [0.0f64; 3];
    let mut r2 = 0.0;
    if let Some((_, beta, fit_r2)) = stats::least_squares(&xs, &ys) {
        for (&c, b) in varying.iter().zip(beta) {
            fitted[c] = b;
        }
        r2 = fit_r2;
    }
    metrics.extend(NAMES.into_iter().zip(fitted));
    metrics.push(("exec.costmodel_r2", r2));
    let ratio = |v: [f64; 3]| {
        if v[0] > 0.0 {
            format!("1 : {:.2} : {:.2}", v[1] / v[0], v[2] / v[0])
        } else {
            format!("{:.3} : {:.3} : {:.3}", v[0], v[1], v[2])
        }
    };
    eprintln!(
        "cost model, seq_row : index_entry : heap_fetch — fitted on wall time {} (R² {:.3}); CostParams {}",
        ratio(fitted),
        r2,
        ratio(assumed),
    );
}

pub fn replay(stage: &Stage) -> Result<Replayed, String> {
    let traffic = &stage.traffic;
    let ops = stage.spec.replay_ops.min(traffic.ops());
    let op_size = traffic.op_size;
    let requests: Vec<&ServeRequest> = traffic.schedule[..ops * op_size]
        .iter()
        .map(|&slot| &traffic.pool[slot as usize])
        .collect();
    let n = requests.len();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();

    // Pass 1: untraced, one request at a time.
    stage.backend.clear_caches();
    let plain = stage.build_server(stage.backend.clone(), stage.qte.clone());
    warm(&plain, stage)?;
    let mut service_ns = Vec::with_capacity(n);
    for (i, request) in requests.iter().enumerate() {
        let started = Instant::now();
        let served = plain.serve_one(i, request);
        service_ns.push(started.elapsed().as_nanos() as f64);
        served.map_err(|e| format!("untraced replay of request {i}: {e}"))?;
    }
    let untraced_ns: f64 = service_ns.iter().sum();

    // Pass 2: what a frame costs beyond its requests' service time shared by
    // the serve workers.
    if op_size > 1 {
        stage.backend.clear_caches();
        let framed = stage.build_server(stage.backend.clone(), stage.qte.clone());
        warm(&framed, stage)?;
        let mut overhead_us = Vec::with_capacity(ops);
        for k in 0..ops {
            let frame: Vec<ServeRequest> = requests[k * op_size..(k + 1) * op_size]
                .iter()
                .map(|&r| r.clone())
                .collect();
            let started = Instant::now();
            framed
                .serve_queued(&frame)
                .map_err(|e| format!("replaying frame {k}: {e}"))?;
            let frame_ns = started.elapsed().as_nanos() as f64;
            let service: f64 = service_ns[k * op_size..(k + 1) * op_size].iter().sum();
            overhead_us.push((frame_ns - service / CLIENTS as f64) / 1e3);
        }
        metrics.push(("serve.frame_overhead_us", stats::mean(&overhead_us)));
    } else {
        metrics.push(("serve.frame_overhead_us", 0.0));
    }

    // Pass 3: traced serve_one. The QTE is built over the TimedBackend, so its
    // probes nest under its estimates.
    stage.backend.clear_caches();
    let tracer = Arc::new(Tracer::new());
    let timed_backend: Arc<dyn QueryBackend> =
        Arc::new(TimedBackend::new(stage.backend.clone(), tracer.clone()));
    let timed_qte = Arc::new(TimedQte::new(
        stage.build_qte(timed_backend.clone()),
        tracer.clone(),
    ));
    let traced = stage.build_server(timed_backend.clone(), timed_qte.clone());
    warm(&traced, stage)?;
    tracer.clear();
    timed_qte.take_estimates();
    let mut responses: Vec<ServeResponse> = Vec::with_capacity(n);
    let traced_started = Instant::now();
    for (i, request) in requests.iter().enumerate() {
        tracer.begin_request(i as u64 + 1);
        let served = tracer.span(SERVE_ONE, || traced.serve_one(i, request));
        responses.push(served.map_err(|e| format!("traced replay of request {i}: {e}"))?);
    }
    let traced_ns = traced_started.elapsed().as_nanos() as f64;
    metrics.push((
        "trace.overhead_share",
        (traced_ns - untraced_ns) / untraced_ns,
    ));
    timed_qte.take_estimates();

    // Pass 4: explicit calls into each layer.
    stage.backend.clear_caches();
    let cost = stage.reference.config().cost_params;
    let original = RewriteOption::original();
    let mut wrong = 0u64;
    let mut steps = Vec::new();
    let mut rel_errs = Vec::new();
    let mut fanouts = Vec::with_capacity(n);
    let mut work_total = WorkProfile::default();
    let mut exec_samples: Vec<(WorkProfile, f64)> = Vec::with_capacity(n);
    let (mut decisions, mut results) = (Digest::default(), Digest::default());
    for (i, (request, response)) in requests.iter().zip(&responses).enumerate() {
        tracer.begin_request(i as u64 + 1);
        let query = &request.query;
        if !response.cache_hit {
            let space = RewriteSpace::hints_only(query);
            let planned = tracer
                .span(PLAN_ONLINE, || {
                    plan_online(
                        &stage.agent,
                        timed_backend.as_ref(),
                        timed_qte.as_ref(),
                        query,
                        &space,
                        stage.spec.tau_ms,
                    )
                })
                .map_err(|e| format!("planning request {i}: {e}"))?;
            steps.push(planned.explored.len() as f64);
            let estimates = timed_qte.take_estimates();
            if let Some((_, estimated_ms)) = estimates
                .iter()
                .rev()
                .find(|(ro, _)| *ro == planned.rewrite)
            {
                if planned.exec_ms > 0.0 {
                    rel_errs.push((estimated_ms - planned.exec_ms).abs() / planned.exec_ms);
                }
            }
            // Planning is deterministic: the served decision is this decision.
            if planned.chosen_index != response.chosen_index {
                wrong += 1;
            }
        }
        let report = timed_backend
            .run_with_context(query, &response.rewrite, &ExecContext::unbounded())
            .map_err(|e| format!("running request {i}: {e}"))?;
        fanouts.push(match &stage.sharded {
            Some(sharded) => sharded
                .overlapping_shards(query)
                .map_err(|e| format!("routing request {i}: {e}"))?
                .len() as f64,
            None => 1.0,
        });
        tracer
            .span(OPTIMIZER_PLAN, || {
                stage.reference.plan(query, &response.rewrite)
            })
            .map_err(|e| format!("planning request {i} unsharded: {e}"))?;
        let (exec_span, unsharded) =
            tracer.span_indexed(EXEC_RUN, || stage.reference.run(query, &response.rewrite));
        let unsharded = unsharded.map_err(|e| format!("running request {i} unsharded: {e}"))?;
        work_total.add(&unsharded.work);
        exec_samples.push((unsharded.work, tracer.duration_ns(exec_span) as f64));

        // Hint invariance: a rewrite changes the time of a query, never its answer.
        let expected = stage
            .reference
            .run(query, &original)
            .map_err(|e| format!("oracle run of request {i}: {e}"))?
            .result;
        if response.is_degraded()
            || response.result != expected
            || report.outcome.result != expected
            || unsharded.result != expected
        {
            wrong += 1;
        }
        decisions.write(response.chosen_index as u64);
        results.write(hash_result(&response.result));
    }

    let spans = tracer.spans();
    let own_ns = trace::self_times_ns(&spans);
    let named = |name: &str| -> Vec<&Span> { spans.iter().filter(|s| s.name == name).collect() };
    let per_req = |count: usize| count as f64 / n as f64;

    // serve: what serve_one costs beyond planning and running. Its span covers
    // the agent's work too (planning is not a span inside it), so the agent's
    // self time, measured on the explicit plan_online of the same requests, is
    // taken out.
    let own_us = |keep: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        spans
            .iter()
            .zip(&own_ns)
            .filter(|(s, _)| keep(s))
            .map(|(_, &own)| own as f64 / 1e3)
            .collect()
    };
    let serve_own_us: f64 = own_us(&|s| s.name == SERVE_ONE).iter().sum();
    let agent_own = own_us(&|s| s.name == PLAN_ONLINE);
    let agent_own_us: f64 = agent_own.iter().sum();
    metrics.push((
        "serve.self_us_mean",
        (serve_own_us - agent_own_us).max(0.0) / n as f64,
    ));

    let plans = named(PLAN_ONLINE);
    let mut plan_ms: Vec<f64> = plans.iter().map(|s| s.duration_ns() as f64 / 1e6).collect();
    stats::sort(&mut plan_ms);
    let serve_ns: f64 = named(SERVE_ONE)
        .iter()
        .map(|s| s.duration_ns() as f64)
        .sum();
    metrics.push(("core.plan_ms_mean", stats::mean(&plan_ms)));
    metrics.push(("core.plan_ms_p95", stats::percentile(&plan_ms, 95.0)));
    metrics.push((
        "core.plan_share",
        plan_ms.iter().sum::<f64>() * 1e6 / serve_ns,
    ));
    metrics.push(("core.steps_mean", stats::mean(&steps)));
    metrics.push(("core.agent_self_us_mean", stats::mean(&agent_own)));

    // qte / backend probes: only the spans under an explicit plan_online, so
    // pass 3's copies of the same calls are not counted twice.
    let under = |span: &Span, ancestor: &str| {
        let mut at = span.parent;
        while let Some(p) = at {
            if spans[p].name == ancestor {
                return true;
            }
            at = spans[p].parent;
        }
        false
    };
    let planned_spans = |name: &str| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.name == name && under(s, PLAN_ONLINE))
            .collect()
    };
    let estimates = planned_spans(trace::QTE_ESTIMATE);
    let estimate_own = own_us(&|s| s.name == trace::QTE_ESTIMATE && under(s, PLAN_ONLINE));
    metrics.push(("qte.estimate_ms_mean", mean_ns_as(&estimates, 1e6)));
    metrics.push(("qte.calls_per_req", per_req(estimates.len())));
    metrics.push(("qte.self_us_mean", stats::mean(&estimate_own)));
    let mut probes = planned_spans(trace::BACKEND_SAMPLE_SEL);
    probes.extend(planned_spans(trace::BACKEND_TRUE_SEL));
    metrics.push(("qte.probe_ms_mean", mean_ns_as(&probes, 1e6)));
    metrics.push((
        "qte.oracle_exec_ms_mean",
        mean_ns_as(&planned_spans(trace::BACKEND_EXEC_TIME), 1e6),
    ));
    stats::sort(&mut rel_errs);
    metrics.push(("qte.rel_err_p50", stats::percentile(&rel_errs, 50.0)));

    // optimizer: the planner runs once inside every backend call that executes;
    // counted on pass 3's serve_one trees, the calls serving really makes.
    metrics.push((
        "optimizer.plan_us_mean",
        mean_ns_as(&named(OPTIMIZER_PLAN), 1e3),
    ));
    let executing_calls = [
        trace::BACKEND_PLAN,
        trace::BACKEND_RUN,
        trace::BACKEND_RUN_CTX,
        trace::BACKEND_EXEC_TIME,
    ];
    let in_situ_calls = spans
        .iter()
        .filter(|s| executing_calls.contains(&s.name) && under(s, SERVE_ONE))
        .count();
    metrics.push(("optimizer.calls_per_req", per_req(in_situ_calls)));

    // sharded / exec: the explicit pass-4 calls (root spans).
    let sharded_runs: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == trace::BACKEND_RUN_CTX && s.parent.is_none())
        .collect();
    let exec_runs = named(EXEC_RUN);
    let sum_ns = |spans: &[&Span]| spans.iter().map(|s| s.duration_ns() as f64).sum::<f64>();
    metrics.push(("sharded.run_ms_mean", mean_ns_as(&sharded_runs, 1e6)));
    metrics.push(("sharded.fanout_mean", stats::mean(&fanouts)));
    metrics.push((
        "sharded.overhead_ratio",
        sum_ns(&sharded_runs) / sum_ns(&exec_runs),
    ));
    let mut exec_ms: Vec<f64> = exec_runs
        .iter()
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    stats::sort(&mut exec_ms);
    metrics.push(("exec.run_ms_mean", stats::mean(&exec_ms)));
    metrics.push(("exec.run_ms_p95", stats::percentile(&exec_ms, 95.0)));
    let w = &work_total;
    metrics.push(("exec.seq_rows_per_req", per_req(w.seq_rows as usize)));
    metrics.push((
        "exec.index_entries_per_req",
        per_req(w.index_entries as usize),
    ));
    metrics.push((
        "exec.heap_fetches_per_req",
        per_req(w.heap_fetches as usize),
    ));
    metrics.push((
        "exec.filter_evals_per_req",
        per_req(w.filter_evals as usize),
    ));
    metrics.push(("exec.output_rows_per_req", per_req(w.output_rows as usize)));
    metrics.push((
        "exec.rows_examined_per_output",
        (w.seq_rows + w.heap_fetches) as f64 / w.output_rows.max(1) as f64,
    ));
    calibrate(&exec_samples, &cost, &mut metrics);

    if !trace::nesting_is_sound(&spans) {
        return Err("a traced child span escapes its parent".into());
    }
    Ok(Replayed {
        metrics,
        spans,
        requests: n,
        wrong,
        decision_digest: decisions.hex(),
        result_digest: results.hex(),
    })
}
