//! Benchmark-owned tracing: an in-memory span recorder plus the `TimedBackend`
//! and `TimedQte` decorators that record a span around every call into a layer.
//!
//! Tracing inside the program is a later change; here spans are recorded only
//! from the benchmark's side of each layer boundary. The traced replay is
//! single-threaded, so the "current span" is one stack, not one per thread.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use maliva_qte::{EstimateReport, EstimationContext, QueryTimeEstimator};
use vizdb::db::RunOutcome;
use vizdb::hints::RewriteOption;
use vizdb::plan::PhysicalPlan;
use vizdb::query::{Predicate, Query};
use vizdb::schema::TableSchema;
use vizdb::stats::TableStats;
use vizdb::{ExecContext, QueryBackend, Result, RunReport};

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request share this identifier.
    pub request_id: u64,
    /// Index (into the span list) of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct TracerState {
    spans: Vec<Span>,
    stack: Vec<usize>,
    request_id: u64,
}

/// In-memory span recorder; spans are written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<TracerState>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            state: Mutex::new(TracerState::default()),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, TracerState> {
        self.state
            .lock()
            .expect("no tracer user panics while holding the lock")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on belong to `request_id`.
    pub fn begin_request(&self, request_id: u64) {
        self.state().request_id = request_id;
    }

    /// Runs `f` inside a span named `name`, nested under the current span.
    /// Returns the span's index alongside `f`'s result.
    pub fn span_indexed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (usize, T) {
        let index = {
            let mut state = self.state();
            let index = state.spans.len();
            let span = Span {
                name,
                request_id: state.request_id,
                parent: state.stack.last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            };
            state.spans.push(span);
            state.stack.push(index);
            index
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut state = self.state();
        state.spans[index].end_ns = end_ns;
        state.stack.pop();
        (index, out)
    }

    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_indexed(name, f).1
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    pub fn duration_ns(&self, index: usize) -> u64 {
        self.state().spans[index].duration_ns()
    }

    /// Forgets every finished span (warm-up traffic is not part of the trace).
    pub fn clear(&self) {
        let mut state = self.state();
        assert!(state.stack.is_empty(), "clear() inside an open span");
        state.spans.clear();
    }
}

/// Self time of every span: its duration minus the part its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Whether every child interval lies inside its parent's and shares its request.
pub fn nesting_is_sound(spans: &[Span]) -> bool {
    spans.iter().all(|span| {
        span.start_ns <= span.end_ns
            && span.parent.is_none_or(|p| {
                let parent = &spans[p];
                parent.request_id == span.request_id
                    && parent.start_ns <= span.start_ns
                    && span.end_ns <= parent.end_ns
            })
    })
}

/// Writes one JSON object per span.
pub fn dump_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"request_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            span.name, span.request_id, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

/// Span names of the backend calls that do real work (metadata getters are
/// forwarded untimed: a span around a field read would measure only itself).
pub const BACKEND_PLAN: &str = "backend.plan";
pub const BACKEND_RUN: &str = "backend.run";
pub const BACKEND_RUN_CTX: &str = "backend.run_with_context";
pub const BACKEND_EXEC_TIME: &str = "backend.execution_time_ms";
pub const BACKEND_TRUE_SEL: &str = "backend.true_selectivity";
pub const BACKEND_SAMPLE_SEL: &str = "backend.sample_selectivity";
pub const QTE_ESTIMATE: &str = "qte.estimate";

/// A [`QueryBackend`] that records a span around every call that does work.
pub struct TimedBackend {
    inner: Arc<dyn QueryBackend>,
    tracer: Arc<Tracer>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn QueryBackend>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl QueryBackend for TimedBackend {
    fn table_names(&self) -> Vec<String> {
        self.inner.table_names()
    }

    fn row_count(&self, table: &str) -> Result<usize> {
        self.inner.row_count(table)
    }

    fn schema(&self, table: &str) -> Result<TableSchema> {
        self.inner.schema(table)
    }

    fn stats(&self, table: &str) -> Result<TableStats> {
        self.inner.stats(table)
    }

    fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
        self.inner.indexed_columns(table)
    }

    fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
        self.inner.sample_len(table, fraction_pct)
    }

    fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan> {
        self.tracer
            .span(BACKEND_PLAN, || self.inner.plan(query, ro))
    }

    fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        self.tracer.span(BACKEND_RUN, || self.inner.run(query, ro))
    }

    fn run_with_context(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &ExecContext,
    ) -> Result<RunReport> {
        self.tracer.span(BACKEND_RUN_CTX, || {
            self.inner.run_with_context(query, ro, ctx)
        })
    }

    fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
        self.tracer.span(BACKEND_EXEC_TIME, || {
            self.inner.execution_time_ms(query, ro)
        })
    }

    fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
        self.inner.estimated_cardinality(query)
    }

    fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        self.inner.estimated_selectivity(table, pred)
    }

    fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        self.tracer.span(BACKEND_TRUE_SEL, || {
            self.inner.true_selectivity(table, pred)
        })
    }

    fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)> {
        self.tracer.span(BACKEND_SAMPLE_SEL, || {
            self.inner.sample_selectivity(table, pred, fraction_pct)
        })
    }

    fn render_sql(&self, query: &Query, ro: &RewriteOption) -> String {
        self.inner.render_sql(query, ro)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn clear_caches(&self) {
        self.inner.clear_caches()
    }

    fn cache_entry_counts(&self) -> (usize, usize) {
        self.inner.cache_entry_counts()
    }
}

/// A [`QueryTimeEstimator`] that records a span around every `estimate` and
/// remembers what it predicted, so the prediction for the chosen rewrite can be
/// compared with the simulated time afterwards.
pub struct TimedQte {
    inner: Arc<dyn QueryTimeEstimator>,
    tracer: Arc<Tracer>,
    estimates: Mutex<Vec<(RewriteOption, f64)>>,
}

impl TimedQte {
    pub fn new(inner: Arc<dyn QueryTimeEstimator>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            estimates: Mutex::new(Vec::new()),
        }
    }

    /// Drains the `(rewrite, estimated_ms)` pairs recorded since the last call.
    pub fn take_estimates(&self) -> Vec<(RewriteOption, f64)> {
        std::mem::take(
            &mut *self
                .estimates
                .lock()
                .expect("estimate log is never held across a panic"),
        )
    }
}

impl QueryTimeEstimator for TimedQte {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimation_cost(&self, query: &Query, ro: &RewriteOption, ctx: &EstimationContext) -> f64 {
        self.inner.estimation_cost(query, ro, ctx)
    }

    fn estimate(
        &self,
        query: &Query,
        ro: &RewriteOption,
        ctx: &mut EstimationContext,
    ) -> Result<EstimateReport> {
        let report = self
            .tracer
            .span(QTE_ESTIMATE, || self.inner.estimate(query, ro, ctx))?;
        self.estimates
            .lock()
            .expect("estimate log is never held across a panic")
            .push((ro.clone(), report.estimated_ms));
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            request_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 15, 25),
            span(Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        assert!(nesting_is_sound(&spans));
    }

    #[test]
    fn escaping_child_is_unsound() {
        let spans = vec![span(None, 0, 100), span(Some(0), 90, 110)];
        assert!(!nesting_is_sound(&spans));
        let mut other_request = vec![span(None, 0, 100), span(Some(0), 10, 20)];
        other_request[1].request_id = 2;
        assert!(!nesting_is_sound(&other_request));
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let tracer = Tracer::new();
        tracer.begin_request(7);
        let (outer, inner) = tracer.span_indexed("outer", || {
            tracer.span("first", || ());
            tracer.span_indexed("second", || ()).0
        });
        tracer.span("sibling", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.request_id == 7));
        assert!(nesting_is_sound(&spans));
    }
}
