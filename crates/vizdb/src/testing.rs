//! Test support shared by the workspace's crates; not part of the API.
//!
//! [`Recorder`] decorates a [`QueryBackend`]: it forwards every method and
//! logs each call to a [`Log`] the test keeps, and it can fail every `run`.

use std::sync::Arc;
use std::thread::ThreadId;

use crate::db::RunOutcome;
use crate::error::{Error, Result};
use crate::hints::RewriteOption;
use crate::plan::PhysicalPlan;
use crate::query::{Predicate, Query};
use crate::schema::TableSchema;
use crate::stats::TableStats;
use crate::sync::Mutex;
use crate::QueryBackend;

/// One call a [`Recorder`] forwarded.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// The recorder's label.
    pub label: String,
    /// The [`QueryBackend`] method called.
    pub method: &'static str,
    /// The arguments, `Debug`-formatted and comma-separated.
    pub args: String,
    /// The thread that made the call.
    pub thread: ThreadId,
    /// The decorated backend's [`QueryBackend::cache_entry_counts`] once the
    /// call returned.
    pub caches: (usize, usize),
}

/// The calls one or more [`Recorder`]s made, in order.
pub type Log = Arc<Mutex<Vec<Call>>>;

/// A [`QueryBackend`] decorator that forwards every method and appends a
/// [`Call`] to its log; a failing one logs each `run` and returns
/// [`Error::Internal`] `"<label> failed"` instead of forwarding it.
pub struct Recorder {
    label: String,
    inner: Arc<dyn QueryBackend>,
    log: Log,
    fail_runs: bool,
}

impl Recorder {
    /// Decorates `inner`, logging to `log` under `label`.
    pub fn new(label: impl Into<String>, inner: Arc<dyn QueryBackend>, log: &Log) -> Self {
        Self {
            label: label.into(),
            inner,
            log: Arc::clone(log),
            fail_runs: false,
        }
    }

    /// Makes every `run` fail with [`Error::Internal`].
    pub fn failing_runs(mut self) -> Self {
        self.fail_runs = true;
        self
    }

    /// Logs `method(args)` and passes `result` through.
    fn record<T>(&self, method: &'static str, args: String, result: T) -> T {
        let caches = self.inner.cache_entry_counts();
        self.log.lock().push(Call {
            label: self.label.clone(),
            method,
            args,
            thread: std::thread::current().id(),
            caches,
        });
        result
    }
}

impl QueryBackend for Recorder {
    fn table_names(&self) -> Vec<String> {
        self.record("table_names", String::new(), self.inner.table_names())
    }

    fn row_count(&self, table: &str) -> Result<usize> {
        let args = format!("{table:?}");
        self.record("row_count", args, self.inner.row_count(table))
    }

    fn schema(&self, table: &str) -> Result<TableSchema> {
        let args = format!("{table:?}");
        self.record("schema", args, self.inner.schema(table))
    }

    fn stats(&self, table: &str) -> Result<TableStats> {
        let args = format!("{table:?}");
        self.record("stats", args, self.inner.stats(table))
    }

    fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
        let args = format!("{table:?}");
        self.record("indexed_columns", args, self.inner.indexed_columns(table))
    }

    fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
        let args = format!("{table:?}, {fraction_pct}");
        let result = self.inner.sample_len(table, fraction_pct);
        self.record("sample_len", args, result)
    }

    fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<PhysicalPlan> {
        let args = format!("{query:?}, {ro:?}");
        self.record("plan", args, self.inner.plan(query, ro))
    }

    fn run(&self, query: &Query, ro: &RewriteOption) -> Result<RunOutcome> {
        let args = format!("{query:?}, {ro:?}");
        let result = if self.fail_runs {
            Err(Error::Internal(format!("{} failed", self.label)))
        } else {
            self.inner.run(query, ro)
        };
        self.record("run", args, result)
    }

    fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
        let args = format!("{query:?}, {ro:?}");
        let result = self.inner.execution_time_ms(query, ro);
        self.record("execution_time_ms", args, result)
    }

    fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
        let args = format!("{query:?}");
        let result = self.inner.estimated_cardinality(query);
        self.record("estimated_cardinality", args, result)
    }

    fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        let args = format!("{table:?}, {pred:?}");
        let result = self.inner.estimated_selectivity(table, pred);
        self.record("estimated_selectivity", args, result)
    }

    fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
        let args = format!("{table:?}, {pred:?}");
        let result = self.inner.true_selectivity(table, pred);
        self.record("true_selectivity", args, result)
    }

    fn sample_selectivity(
        &self,
        table: &str,
        pred: &Predicate,
        fraction_pct: u32,
    ) -> Result<(f64, usize)> {
        let args = format!("{table:?}, {pred:?}, {fraction_pct}");
        let result = self.inner.sample_selectivity(table, pred, fraction_pct);
        self.record("sample_selectivity", args, result)
    }

    fn clear_caches(&self) {
        self.inner.clear_caches();
        self.record("clear_caches", String::new(), ())
    }

    fn cache_entry_counts(&self) -> (usize, usize) {
        let counts = self.inner.cache_entry_counts();
        self.record("cache_entry_counts", String::new(), counts)
    }
}
