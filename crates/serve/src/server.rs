//! The multi-threaded serving loop.
//!
//! A [`MalivaServer`] owns shared handles to a [`QueryBackend`] (a single
//! simulated database or a per-region [`vizdb::ShardedBackend`]), a trained
//! agent and a QTE, plus a decision cache: a [`vizdb::Memo`] of
//! [`CachedDecision`]s keyed by the query's fingerprint and the exact bits of
//! its budget τ, holding [`DECISION_CACHE_CAPACITY`] decisions. Each request
//! is decided with [`maliva::decide_online`] (unless the decision cache
//! already knows the answer), which executes nothing, and the chosen rewrite
//! is then executed once, with [`QueryBackend::run`].
//! [`MalivaServer::serve_batch`] and [`MalivaServer::serve_queued`] share one
//! drain loop, [`Helpers::serve`]: the caller admits request indices into a
//! [`crate::queue::WorkQueue`] of its own, wakes the server's persistent
//! helper threads onto it, at most one per admitted request beyond the
//! first, and serves requests on its own thread too. A batch's queue holds
//! the whole batch, so it never sheds; `serve_queued`'s is bounded by
//! `queue_capacity`.
//!
//! Every quantity a response carries is *simulated* and deterministic — planning
//! cost, execution time, viability, the materialised result — so serving the same
//! batch with 1 or 8 workers produces identical responses; only the wall-clock
//! throughput changes. This is the invariant the concurrency smoke tests pin.
//!
//! Three serve-layer knobs ([`ServeConfig`]):
//!
//! * `workers` — threads that serve one call, the calling thread included,
//!   at most one per request;
//! * `shards` — consumed by [`MalivaServer::over_database`], which mirrors the
//!   database into that many per-region shards behind the same trait object;
//! * `queue_capacity` — admission control: [`MalivaServer::serve_queued`] admits
//!   requests into a bounded queue and sheds with an explicit
//!   [`ServeOutcome::Rejected`] once it is full, instead of growing without bound.

use std::panic::resume_unwind;
use std::sync::Arc;

use maliva::train::SpaceBuilder;
use maliva::{decide_online, QAgent};
use maliva_qte::QueryTimeEstimator;
use vizdb::error::{Error, Result};
use vizdb::exec::QueryResult;
use vizdb::fingerprint::query_fingerprint;
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::sync::atomic::{AtomicU64, Ordering};
use vizdb::{Database, Memo, MemoStats, QueryBackend, ShardedBackendBuilder};

use crate::queue::Helpers;

/// Decisions the cache holds, 512 per lock shard. A full shard evicts by
/// CLOCK: its hand sweeps the shard's ring, clearing the reference bit that
/// a hit sets, and evicts the first decision whose bit is already clear.
pub const DECISION_CACHE_CAPACITY: usize = 4096;

/// Configuration of a [`MalivaServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Threads that serve one call, at most one per request (at least 1):
    /// the calling thread and up to `workers - 1` helper threads, which the
    /// server starts on the first call that wants them and keeps until it
    /// is dropped.
    pub workers: usize,
    /// Number of per-region backend shards [`MalivaServer::over_database`] routes
    /// viewports across (at least 1; `1` serves the database directly).
    ///
    /// Consumed **only** by [`MalivaServer::over_database`], which mirrors the
    /// database accordingly; [`MalivaServer::new`] takes the backend as
    /// constructed, so there the field is purely descriptive of the topology the
    /// caller built.
    pub shards: usize,
    /// Admission-control bound for [`MalivaServer::serve_queued`]: requests
    /// arriving while this many are already queued are shed with
    /// [`ServeOutcome::Rejected`] (at least 1).
    pub queue_capacity: usize,
    /// Time budget τ applied to requests that don't carry their own.
    pub default_tau_ms: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            shards: 1,
            queue_capacity: 1024,
            default_tau_ms: 500.0,
        }
    }
}

/// A memoised planning outcome. Planning is greedy over a fixed agent and a
/// deterministic simulated database, so a decision is a pure function of its
/// key, and hit/miss races cannot change served results.
#[derive(Debug, Clone)]
pub struct CachedDecision {
    /// Index of the chosen option in the query's rewrite space.
    pub chosen_index: usize,
    /// The chosen rewrite option.
    pub rewrite: RewriteOption,
    /// Simulated planning cost that the original planning run paid (charged to
    /// every consumer of this entry so that served responses are identical
    /// whether they hit or miss).
    pub planning_ms: f64,
}

/// One visualization request: a query plus its time budget.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// The visualization query.
    pub query: Query,
    /// Time budget in (simulated) milliseconds; `None` uses the server default.
    pub tau_ms: Option<f64>,
}

impl ServeRequest {
    /// A request served under the server's default budget.
    pub fn new(query: Query) -> Self {
        Self {
            query,
            tau_ms: None,
        }
    }

    /// A request with an explicit budget.
    pub fn with_tau(query: Query, tau_ms: f64) -> Self {
        Self {
            query,
            tau_ms: Some(tau_ms),
        }
    }
}

/// The served answer for one request.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Position of the request in the batch.
    pub request_index: usize,
    /// Index of the chosen option in the query's rewrite space.
    pub chosen_index: usize,
    /// The rewrite the server sent to the database.
    pub rewrite: RewriteOption,
    /// Simulated planning cost in milliseconds (the canonical cost of planning
    /// this key, charged identically on cache hits and misses).
    pub planning_ms: f64,
    /// Simulated execution time of the rewritten query in milliseconds.
    pub exec_ms: f64,
    /// Simulated total response time (planning + execution).
    pub total_ms: f64,
    /// Whether the total stayed within the request's budget.
    pub viable: bool,
    /// Whether planning was answered from the decision cache.
    pub cache_hit: bool,
    /// The materialised visualization result.
    pub result: QueryResult,
}

impl ServeResponse {
    /// Always `false`: every answer is complete. Kept for `benchmark/` until
    /// ROADMAP item 15 drops it.
    pub fn is_degraded(&self) -> bool {
        false
    }

    /// The deterministic portion of the response — everything except
    /// `cache_hit`, which legitimately depends on request interleaving.
    pub fn deterministic_view(
        &self,
    ) -> (usize, usize, &RewriteOption, f64, f64, bool, &QueryResult) {
        (
            self.request_index,
            self.chosen_index,
            &self.rewrite,
            self.planning_ms,
            self.exec_ms,
            self.viable,
            &self.result,
        )
    }
}

/// What happened to one request submitted through admission control
/// ([`MalivaServer::serve_queued`]).
#[derive(Debug, Clone)]
pub enum ServeOutcome {
    /// The request was admitted, planned and executed to a complete answer.
    Served(ServeResponse),
    /// Never constructed: every admitted request is served in full or fails.
    /// Kept for `benchmark/` until ROADMAP item 15 drops it.
    Degraded(ServeResponse),
    /// The request was shed at admission time.
    Rejected {
        /// `true` when the request was shed because the bounded queue was full
        /// (the only shed reason today; explicit so future admission policies can
        /// reject for other reasons).
        queue_full: bool,
    },
}

impl ServeOutcome {
    /// The response, if the request was answered.
    pub fn response(&self) -> Option<&ServeResponse> {
        match self {
            Self::Served(response) | Self::Degraded(response) => Some(response),
            Self::Rejected { .. } => None,
        }
    }

    /// Whether the request was shed.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Self::Rejected { .. })
    }
}

/// The backend a [`ServeConfig::shards`] value asks for: the database itself at
/// one shard, a [`vizdb::ShardedBackend`] mirroring its tables, indexes and
/// samples otherwise. A shard count the mirror refuses (more shards than
/// partition tiles) is its [`Error::Internal`], returned before any shard is
/// allocated.
pub fn backend_for_shards(db: Arc<Database>, shards: usize) -> Result<Arc<dyn QueryBackend>> {
    if shards <= 1 {
        return Ok(db);
    }
    Ok(Arc::new(ShardedBackendBuilder::mirror(&db, shards)?))
}

/// The decision cache's key for `query` under budget `tau_ms`.
fn decision_key(query: &Query, tau_ms: f64) -> (u64, u64) {
    (query_fingerprint(query), tau_ms.to_bits())
}

/// A multi-threaded, cache-fronted query server over one [`QueryBackend`].
pub struct MalivaServer {
    state: Arc<State>,
    /// The `workers - 1` threads that serve calls beside their callers.
    helpers: Helpers,
}

/// What serving a request reads, shared with the helper threads.
struct State {
    backend: Arc<dyn QueryBackend>,
    agent: Arc<QAgent>,
    qte: Arc<dyn QueryTimeEstimator>,
    space_builder: Arc<SpaceBuilder>,
    cache: Memo<CachedDecision>,
    config: ServeConfig,
    shed: AtomicU64,
}

// Callers on many threads share one server, and its helpers serve requests
// from the shared state.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MalivaServer>();
};

impl MalivaServer {
    /// Creates a server over shared backend / agent / QTE handles. No thread
    /// starts here: helper threads start on the first call that wants them.
    ///
    /// `space_builder` must be the same builder the agent was trained with (the
    /// Q-network output dimensionality is the space size).
    pub fn new(
        backend: Arc<dyn QueryBackend>,
        agent: Arc<QAgent>,
        qte: Arc<dyn QueryTimeEstimator>,
        space_builder: Arc<SpaceBuilder>,
        config: ServeConfig,
    ) -> Self {
        Self {
            state: Arc::new(State {
                backend,
                agent,
                qte,
                space_builder,
                cache: Memo::new(DECISION_CACHE_CAPACITY),
                config,
                shed: AtomicU64::new(0),
            }),
            helpers: Helpers::new(config.workers.max(1) - 1),
        }
    }

    /// Creates a server over a loaded database, consuming the `config.shards`
    /// knob: at `shards > 1` the database is mirrored into that many per-region
    /// shards (see [`backend_for_shards`]). `qte_builder` receives the serving
    /// backend so the estimator measures the same backend it serves.
    pub fn over_database(
        db: Arc<Database>,
        agent: Arc<QAgent>,
        qte_builder: impl FnOnce(Arc<dyn QueryBackend>) -> Arc<dyn QueryTimeEstimator>,
        space_builder: Arc<SpaceBuilder>,
        config: ServeConfig,
    ) -> Result<Self> {
        let backend = backend_for_shards(db, config.shards)?;
        let qte = qte_builder(backend.clone());
        Ok(Self::new(backend, agent, qte, space_builder, config))
    }

    /// The server configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.state.config
    }

    /// The shared backend handle.
    pub fn backend(&self) -> &Arc<dyn QueryBackend> {
        &self.state.backend
    }

    /// Decision-cache counters.
    pub fn cache_stats(&self) -> MemoStats {
        self.state.cache.stats()
    }

    /// Requests shed by admission control since the server was created.
    pub fn shed_count(&self) -> u64 {
        self.state.shed.load(Ordering::Relaxed)
    }

    /// Serves one request: decide (through the decision cache), then execute the
    /// chosen rewrite — the request's only executing backend call.
    ///
    /// The cache is keyed by query and budget alone: the backend is shared, so
    /// its catalog cannot change and neither can a decision planned over it.
    ///
    /// A NaN or negative budget is an [`Error::InvalidQuery`] before the cache
    /// is touched.
    pub fn serve_one(&self, request_index: usize, request: &ServeRequest) -> Result<ServeResponse> {
        self.state.serve_one(request_index, request)
    }

    /// Serves a whole batch through the drain loop, returning responses in
    /// request order.
    pub fn serve_batch(&self, requests: &[ServeRequest]) -> Result<Vec<ServeResponse>> {
        // A queue as long as the batch never sheds.
        self.drain(requests, requests.len())
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(Error::Internal("a batch request was never served".into()))
                })
            })
            .collect()
    }

    /// Serves `requests` through admission control: the calling thread admits
    /// them, in request order, into a queue bounded by `config.queue_capacity`
    /// before anyone serves them. A request that finds the queue full is shed
    /// immediately with [`ServeOutcome::Rejected`] (and counted in
    /// [`Self::shed_count`]) — overload sheds, it never stalls the submitter or
    /// grows the queue without bound.
    ///
    /// Outcomes are returned in request order; planning/execution errors and
    /// panics of admitted requests propagate like in [`Self::serve_batch`].
    pub fn serve_queued(&self, requests: &[ServeRequest]) -> Result<Vec<ServeOutcome>> {
        let capacity = self.state.config.queue_capacity.max(1);
        self.drain(requests, capacity)
            .into_iter()
            .map(|slot| match slot {
                Some(response) => response.map(ServeOutcome::Served),
                None => Ok(ServeOutcome::Rejected { queue_full: true }),
            })
            .collect()
    }

    /// The one scheduling loop, [`Helpers::serve`] over a copy of `requests`:
    /// the calling thread admits request indices into a queue of `capacity`
    /// (counting each shed), then serves them together with up to
    /// `config.workers - 1` helper threads, each request under
    /// `catch_unwind`. Returns, in request order, `None` for a shed request,
    /// else what `serve_one` returned; once every admitted request has left
    /// `serve_one`, the lowest-index panic is re-raised.
    fn drain(
        &self,
        requests: &[ServeRequest],
        capacity: usize,
    ) -> Vec<Option<Result<ServeResponse>>> {
        // A shed is counted under the queue lock (see `WorkQueue::try_push`).
        let count_shed = || {
            self.state.shed.fetch_add(1, Ordering::Relaxed);
        };
        let (n, state) = (requests.len(), Arc::clone(&self.state));
        // Helpers outlive the call, so they serve from a copy they share.
        let requests: Arc<[ServeRequest]> = requests.into();
        let serve = move |i: usize| state.serve_one(i, &requests[i]);
        // In request order, so the first panic re-raised is the lowest index's.
        self.helpers
            .serve(n, capacity, count_shed, serve)
            .into_iter()
            .map(|slot| slot.map(|response| response.unwrap_or_else(|p| resume_unwind(p))))
            .collect()
    }
}

impl State {
    /// [`MalivaServer::serve_one`], on whichever thread serves the request.
    fn serve_one(&self, request_index: usize, request: &ServeRequest) -> Result<ServeResponse> {
        let tau_ms = request.tau_ms.unwrap_or(self.config.default_tau_ms);
        if tau_ms.is_nan() || tau_ms < 0.0 {
            return Err(Error::InvalidQuery(format!(
                "time budget tau_ms must be a non-negative number, got {tau_ms}"
            )));
        }
        let key = decision_key(&request.query, tau_ms);
        let (decision, cache_hit) = match self.cache.get(key) {
            Some(found) => (found, true),
            None => {
                let space = (self.space_builder)(&request.query);
                let decided = decide_online(
                    &self.agent,
                    self.backend.as_ref(),
                    self.qte.as_ref(),
                    &request.query,
                    &space,
                    tau_ms,
                    0.0,
                )?;
                let planned = CachedDecision {
                    chosen_index: decided.chosen_index,
                    rewrite: decided.rewrite,
                    planning_ms: decided.planning_ms,
                };
                // First insert wins, so a racing worker's identical decision is
                // returned as the canonical one.
                (self.cache.insert(key, planned), false)
            }
        };
        let run = self
            .backend
            .run(&request.query, &decision.rewrite)
            .inspect_err(|_| {
                // Don't let a decision whose execution failed sit in the cache:
                // the next arrival of this key re-plans instead of replaying
                // the decision.
                self.cache.invalidate(key);
            })?;
        let total_ms = decision.planning_ms + run.time_ms;
        Ok(ServeResponse {
            request_index,
            chosen_index: decision.chosen_index,
            rewrite: decision.rewrite,
            planning_ms: decision.planning_ms,
            exec_ms: run.time_ms,
            total_ms,
            viable: total_ms <= tau_ms,
            cache_hit,
            result: run.result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maliva::RewriteSpace;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use vizdb::query::{OutputKind, Predicate};
    use vizdb::schema::{ColumnType, TableSchema};
    use vizdb::storage::{Table, TableBuilder};
    use vizdb::testing::{Log, Recorder};
    use vizdb::DbConfig;

    fn build_table() -> Table {
        let schema = TableSchema::new("tweets")
            .with_column("id", ColumnType::Int)
            .with_column("created_at", ColumnType::Timestamp)
            .with_column("text", ColumnType::Text);
        let mut b = TableBuilder::new(schema);
        for i in 0..3000i64 {
            b.push_row(|row| {
                row.set_int("id", i);
                row.set_timestamp("created_at", i * 60);
                let unique = format!("u{i}");
                let words: Vec<&str> = if i % 4 == 0 {
                    vec!["covid", unique.as_str()]
                } else {
                    vec!["weather", unique.as_str()]
                };
                row.set_text("text", &words);
            });
        }
        b.build()
    }

    fn build_db() -> Arc<Database> {
        let mut db = Database::new(DbConfig::default());
        db.register_table(build_table()).unwrap();
        db.build_all_indexes("tweets").unwrap();
        Arc::new(db)
    }

    fn make_query(i: u64) -> Query {
        Query::select("tweets")
            .filter(Predicate::keyword(
                2,
                if i.is_multiple_of(2) {
                    "covid"
                } else {
                    "weather"
                },
            ))
            .filter(Predicate::time_range(
                1,
                0,
                60 * (500 + (i % 5) as i64 * 250),
            ))
            .output(OutputKind::Count)
    }

    /// An untrained (but deterministic) agent is enough to exercise the serving
    /// machinery; training quality is tested in `maliva` itself.
    fn server_over(backend: Arc<dyn QueryBackend>, config: ServeConfig) -> MalivaServer {
        server_with_spaces(backend, Arc::new(RewriteSpace::hints_only), config)
    }

    /// [`server_over`] with a caller-supplied space builder.
    fn server_with_spaces(
        backend: Arc<dyn QueryBackend>,
        space_builder: Arc<SpaceBuilder>,
        config: ServeConfig,
    ) -> MalivaServer {
        let space_len = RewriteSpace::hints_only(&make_query(0)).len();
        MalivaServer::new(
            backend.clone(),
            Arc::new(QAgent::new(space_len, 500.0, 7)),
            Arc::new(maliva_qte::AccurateQte::new(backend)),
            space_builder,
            config,
        )
    }

    fn server_with_workers(db: Arc<Database>, workers: usize) -> MalivaServer {
        server_over(
            db,
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
    }

    fn batch(n: usize) -> Vec<ServeRequest> {
        (0..n as u64)
            .map(|i| ServeRequest::new(make_query(i)))
            .collect()
    }

    #[test]
    fn serve_one_plans_and_executes() {
        let server = server_with_workers(build_db(), 1);
        let response = server
            .serve_one(0, &ServeRequest::new(make_query(0)))
            .unwrap();
        assert!(response.planning_ms > 0.0);
        assert!(response.exec_ms > 0.0);
        assert!((response.total_ms - response.planning_ms - response.exec_ms).abs() < 1e-9);
        assert!(!response.cache_hit);
        assert!(!response.result.is_empty());
    }

    #[test]
    fn repeated_requests_hit_the_decision_cache() {
        let server = server_with_workers(build_db(), 2);
        let requests: Vec<ServeRequest> =
            (0..12).map(|_| ServeRequest::new(make_query(0))).collect();
        let responses = server.serve_batch(&requests).unwrap();
        assert_eq!(responses.len(), 12);
        let stats = server.cache_stats();
        assert_eq!(stats.hits + stats.misses, 12);
        assert!(stats.hits >= 10, "expected mostly hits, got {stats:?}");
        // Hits must serve the canonical decision.
        for r in &responses {
            assert_eq!(r.planning_ms, responses[0].planning_ms);
            assert_eq!(r.rewrite, responses[0].rewrite);
            assert_eq!(r.result, responses[0].result);
        }
    }

    #[test]
    fn batch_responses_are_in_request_order() {
        let server = server_with_workers(build_db(), 4);
        let responses = server.serve_batch(&batch(16)).unwrap();
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.request_index, i);
        }
    }

    #[test]
    fn worker_count_does_not_change_responses() {
        let db = build_db();
        let requests = batch(20);
        let single = server_with_workers(db.clone(), 1);
        let reference = single.serve_batch(&requests).unwrap();
        for workers in [2, 4, 8] {
            db.clear_caches();
            let server = server_with_workers(db.clone(), workers);
            let responses = server.serve_batch(&requests).unwrap();
            assert_eq!(responses.len(), reference.len());
            for (a, b) in reference.iter().zip(&responses) {
                assert_eq!(a.deterministic_view(), b.deterministic_view());
            }
        }
    }

    /// The `shards` knob: a server over a mirrored sharded backend serves the
    /// same results as one over the plain database.
    #[test]
    fn sharded_server_serves_identical_results() {
        let db = build_db();
        let requests = batch(12);
        let reference = server_with_workers(db.clone(), 2)
            .serve_batch(&requests)
            .unwrap();
        for shards in [2usize, 4] {
            let server = MalivaServer::over_database(
                db.clone(),
                Arc::new(QAgent::new(
                    RewriteSpace::hints_only(&make_query(0)).len(),
                    500.0,
                    7,
                )),
                |backend| Arc::new(maliva_qte::AccurateQte::new(backend)),
                Arc::new(RewriteSpace::hints_only),
                ServeConfig {
                    workers: 2,
                    shards,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            let responses = server.serve_batch(&requests).unwrap();
            // Exact (hint-only) rewrites: the materialised results must match
            // whatever per-shard plan the backend used.
            for (a, b) in reference.iter().zip(&responses) {
                assert_eq!(a.result, b.result, "results diverged at {shards} shards");
            }
        }
    }

    #[test]
    fn per_request_tau_controls_viability() {
        let server = server_with_workers(build_db(), 1);
        let q = make_query(0);
        let generous = server
            .serve_one(0, &ServeRequest::with_tau(q.clone(), 1.0e9))
            .unwrap();
        assert!(generous.viable);
        let impossible = server
            .serve_one(1, &ServeRequest::with_tau(q, 1.0e-3))
            .unwrap();
        assert!(!impossible.viable);
    }

    #[test]
    fn planning_errors_propagate_out_of_the_batch() {
        let db = build_db();
        // Agent trained for a different space size: planning must fail cleanly.
        let server = MalivaServer::new(
            db.clone(),
            Arc::new(QAgent::new(3, 500.0, 7)),
            Arc::new(maliva_qte::AccurateQte::new(db)),
            Arc::new(RewriteSpace::hints_only),
            ServeConfig::default(),
        );
        let err = server.serve_batch(&batch(4)).unwrap_err();
        assert!(
            err.to_string().contains("rewrite-space size"),
            "unexpected error: {err}"
        );
    }

    /// τ is keyed by its exact bits: a request under another budget is
    /// decided afresh, and the first budget's decision still hits.
    #[test]
    fn distinct_taus_are_decided_separately() {
        let server = server_with_workers(build_db(), 1);
        let q = make_query(0);
        let hits: Vec<bool> = [500.0, 501.0, 500.0]
            .into_iter()
            .map(|tau| {
                let request = ServeRequest::with_tau(q.clone(), tau);
                server.serve_one(0, &request).unwrap().cache_hit
            })
            .collect();
        assert_eq!(hits, [false, false, true]);
    }

    /// The admission-control satellite: overload sheds rather than stalls.
    #[test]
    fn overload_sheds_with_explicit_rejections() {
        let server = server_over(
            build_db(),
            ServeConfig {
                workers: 1,
                queue_capacity: 2,
                ..ServeConfig::default()
            },
        );
        let requests = batch(200);
        let outcomes = server.serve_queued(&requests).unwrap();
        assert_eq!(outcomes.len(), requests.len());
        let served = outcomes.iter().filter(|o| o.response().is_some()).count();
        let shed = outcomes.iter().filter(|o| o.is_rejected()).count();
        assert_eq!(served + shed, requests.len());
        assert!(served >= 1, "the queue must still drain under overload");
        assert!(
            shed > 0,
            "a tight queue with one worker and 200 instant arrivals must shed"
        );
        assert_eq!(server.shed_count(), shed as u64);
        for outcome in &outcomes {
            if let ServeOutcome::Rejected { queue_full } = outcome {
                assert!(queue_full);
            }
        }
    }

    /// With a queue at least as large as the batch, nothing is shed and queued
    /// serving matches batch serving.
    #[test]
    fn queued_serving_without_overload_matches_batch() {
        let db = build_db();
        let requests = batch(10);
        let reference = server_with_workers(db.clone(), 2)
            .serve_batch(&requests)
            .unwrap();
        db.clear_caches();
        let server = server_over(
            db,
            ServeConfig {
                workers: 2,
                queue_capacity: 64,
                ..ServeConfig::default()
            },
        );
        let outcomes = server.serve_queued(&requests).unwrap();
        assert_eq!(server.shed_count(), 0);
        for (a, b) in reference.iter().zip(&outcomes) {
            let b = b.response().expect("not shed");
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
    }

    /// Both entry points run the one drain loop. At `workers = 1` one thread
    /// serves the requests in request order; no more workers than requests
    /// serve a batch; and a request that panics in `serve_one` resurfaces
    /// with the **earliest** panicking request's payload, after every worker
    /// has left `serve_one`.
    /// The request index rides in the query's LIMIT (+1); the space builder is
    /// the hook on the serving thread.
    #[test]
    fn one_worker_serves_in_order_and_both_entry_points_reraise_the_earliest_panic() {
        struct Leave<'a>(&'a AtomicU64);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let served = Arc::new(std::sync::Mutex::new(Vec::new()));
        let in_flight = Arc::new(AtomicU64::new(0));
        let server_with = |workers: usize| {
            let (served, in_flight) = (Arc::clone(&served), Arc::clone(&in_flight));
            server_with_spaces(
                build_db(),
                Arc::new(move |q: &Query| {
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    let _leave = Leave(&in_flight);
                    let index = q.limit.unwrap() - 1;
                    served
                        .lock()
                        .unwrap()
                        .push((std::thread::current().id(), index));
                    if index >= 5 {
                        std::panic::panic_any(index);
                    }
                    RewriteSpace::hints_only(q)
                }),
                ServeConfig {
                    workers,
                    ..ServeConfig::default()
                },
            )
        };
        let requests: Vec<ServeRequest> = (0..16)
            .map(|i| ServeRequest::new(make_query(0).limit(i + 1)))
            .collect();
        type Entry = fn(&MalivaServer, &[ServeRequest]) -> usize;
        let entries: [Entry; 2] = [
            |server, requests| server.serve_batch(requests).unwrap().len(),
            |server, requests| server.serve_queued(requests).unwrap().len(),
        ];
        for entry in entries {
            // (distinct serving threads, request indices in serving order)
            let run = |workers: usize, n: usize| {
                served.lock().unwrap().clear();
                assert_eq!(entry(&server_with(workers), &requests[..n]), n);
                let served = served.lock().unwrap();
                let threads: std::collections::HashSet<_> =
                    served.iter().map(|&(id, _)| id).collect();
                (threads.len(), served.iter().map(|&(_, i)| i).collect())
            };
            assert_eq!(run(1, 5), (1, vec![0, 1, 2, 3, 4]));
            assert!(run(64, 3).0 <= 3);
            assert_eq!(
                run(usize::MAX, 0),
                (0, vec![]),
                "an empty batch spawns nothing"
            );

            let server = server_with(4);
            let caught = catch_unwind(AssertUnwindSafe(|| entry(&server, &requests)));
            let payload = caught.expect_err("requests 5.. panic");
            assert_eq!(payload.downcast_ref::<usize>(), Some(&5));
            assert_eq!(in_flight.load(Ordering::SeqCst), 0, "a worker outlived it");
        }
    }

    /// A server whose space builder (the hook on the serving thread) calls
    /// `hook` with the request index riding in the query's LIMIT (+1).
    fn hooked_server(workers: usize, hook: impl Fn(usize) + Send + Sync + 'static) -> MalivaServer {
        server_with_spaces(
            build_db(),
            Arc::new(move |q: &Query| {
                hook(q.limit.unwrap() - 1);
                RewriteSpace::hints_only(q)
            }),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
    }

    /// Requests whose LIMITs carry the indices `range` (distinct queries, so
    /// every one misses the decision cache and reaches the hook).
    fn indexed(range: std::ops::Range<usize>) -> Vec<ServeRequest> {
        range
            .map(|i| ServeRequest::new(make_query(0).limit(i + 1)))
            .collect()
    }

    /// At one worker no helper starts: the calling thread serves every
    /// request of a queued call itself.
    #[test]
    fn one_worker_serves_every_queued_request_on_the_calling_thread() {
        let threads = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&threads);
        let server = hooked_server(1, move |_| {
            seen.lock().unwrap().push(std::thread::current().id());
        });
        let outcomes = server.serve_queued(&indexed(0..6)).unwrap();
        assert!(outcomes.iter().all(|o| o.response().is_some()));
        let caller = std::thread::current().id();
        assert_eq!(*threads.lock().unwrap(), vec![caller; 6]);
        assert_eq!(server.helpers.started(), 0);
    }

    /// At two workers the server keeps one helper thread: the caller's hook
    /// holds its first request until another thread has entered the hook,
    /// and both calls are helped by the same thread.
    #[test]
    fn consecutive_calls_get_help_from_the_same_helper_thread() {
        let caller = std::thread::current().id();
        // Hook entries by threads other than the caller in the current call.
        let helped = Arc::new((std::sync::Mutex::new(Vec::new()), std::sync::Condvar::new()));
        let hook_helped = Arc::clone(&helped);
        let server = hooked_server(2, move |_| {
            let (helpers, entered) = &*hook_helped;
            let mut helpers = helpers.lock().unwrap();
            if std::thread::current().id() == caller {
                let wait = std::time::Duration::from_secs(10);
                let _ = entered.wait_timeout_while(helpers, wait, |h| h.is_empty());
            } else {
                helpers.push(std::thread::current().id());
                entered.notify_all();
            }
        });
        let mut helpers_per_call = Vec::new();
        for call in [0..2, 2..4] {
            helped.0.lock().unwrap().clear();
            let responses = server.serve_queued(&indexed(call)).unwrap();
            assert!(responses.iter().all(|o| o.response().is_some()));
            let mut threads = helped.0.lock().unwrap().clone();
            threads.dedup();
            helpers_per_call.push(threads);
        }
        assert_eq!(helpers_per_call[0].len(), 1, "one helper served call 1");
        assert_eq!(
            helpers_per_call[1], helpers_per_call[0],
            "call 2 was helped by another thread"
        );
        assert_eq!(server.helpers.started(), 1);
    }

    /// Dropping a server right after a call returns joins every helper,
    /// including one that has not yet taken its token: afterwards nothing
    /// holds the server's shared state.
    #[test]
    fn dropping_a_server_right_after_a_call_joins_its_helpers() {
        let marker = Arc::new(());
        let held = Arc::clone(&marker);
        let server = hooked_server(4, move |_| {
            let _ = &held;
        });
        let outcomes = server.serve_queued(&indexed(0..8)).unwrap();
        assert_eq!(outcomes.len(), 8);
        assert!(server.helpers.started() >= 1);
        assert_eq!(Arc::strong_count(&marker), 2, "the hook holds the marker");
        drop(server);
        assert_eq!(Arc::strong_count(&marker), 1, "a helper outlived the drop");
    }

    /// A shard count beyond the default grid's tiles is refused before any
    /// shard database is allocated (`usize::MAX` used to overflow capacity).
    #[test]
    fn backend_for_shards_refuses_more_shards_than_tiles() {
        let db = build_db();
        for shards in [usize::MAX, 4_097] {
            let err = backend_for_shards(db.clone(), shards).err();
            assert!(matches!(err, Some(Error::Internal(_))), "{shards}: {err:?}");
        }
        assert!(backend_for_shards(db, 4).is_ok());
    }

    /// Hostile budgets are refused before the cache key is computed.
    #[test]
    fn hostile_tau_is_rejected_by_serve_one_and_serve_queued_before_the_cache() {
        let server = server_over(build_db(), ServeConfig::default());
        let q = make_query(0);
        for tau in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            let err = server
                .serve_one(0, &ServeRequest::with_tau(q.clone(), tau))
                .unwrap_err();
            assert!(matches!(err, Error::InvalidQuery(_)), "tau {tau}: {err}");
        }
        let legit = server
            .serve_one(1, &ServeRequest::with_tau(q, 50.0))
            .unwrap();
        assert!(!legit.cache_hit, "a hostile-τ decision was served");
        let stats = server.cache_stats();
        assert_eq!(stats.hits + stats.misses, 1, "only the legitimate lookup");

        // The queued path: the invalid request fails the call like any other
        // planning error instead of being served.
        let requests = [
            ServeRequest::new(make_query(1)),
            ServeRequest::with_tau(make_query(2), f64::NAN),
        ];
        let err = server.serve_queued(&requests).unwrap_err();
        assert!(matches!(err, Error::InvalidQuery(_)), "{err}");
    }

    /// `inner` behind a [`Recorder`] that fails every `run` when `fail` is set,
    /// and a count of the `(run, execution_time_ms)` calls it has forwarded.
    fn counting(
        inner: Arc<dyn QueryBackend>,
        fail: bool,
    ) -> (Arc<dyn QueryBackend>, impl Fn() -> (usize, usize)) {
        let log = Log::default();
        let recorder = Recorder::new("backend", inner, &log);
        let backend = Arc::new(if fail {
            recorder.failing_runs()
        } else {
            recorder
        });
        let executing_calls = move || {
            let log = log.lock();
            let count = |method| log.iter().filter(|call| call.method == method).count();
            (count("run"), count("execution_time_ms"))
        };
        (backend, executing_calls)
    }

    /// [`build_db`] plus the 1% sample the Approximate-QTE probes.
    fn build_sampled_db() -> Arc<Database> {
        let mut db = Database::new(DbConfig::default());
        db.register_table(build_table()).unwrap();
        db.build_all_indexes("tweets").unwrap();
        db.build_sample("tweets", 1).unwrap();
        Arc::new(db)
    }

    /// A single-worker server over `backend` with the (unfitted, oracle-free)
    /// Approximate-QTE and the given rewrite spaces.
    fn approximate_server(
        backend: Arc<dyn QueryBackend>,
        space_builder: Arc<SpaceBuilder>,
    ) -> MalivaServer {
        let space_len = space_builder(&make_query(0)).len();
        let qte = maliva_qte::ApproximateQte::new(backend.clone(), Default::default());
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        MalivaServer::new(
            backend,
            Arc::new(QAgent::new(space_len, 500.0, 7)),
            Arc::new(qte),
            space_builder,
            config,
        )
    }

    /// Paper Algorithm 2 sends the chosen rewrite to the database once. Under
    /// the Approximate-QTE, which never asks the backend for a true time, a
    /// served request — miss or hit — is exactly one executing backend call.
    #[test]
    fn a_served_request_executes_its_rewrite_exactly_once() {
        let db = build_sampled_db();
        let backends: [Arc<dyn QueryBackend>; 2] = [db.clone(), backend_for_shards(db, 4).unwrap()];
        for backend in backends {
            let (counting, executing_calls) = counting(backend, false);
            let server = approximate_server(counting, Arc::new(RewriteSpace::hints_only));
            for i in 0..6u64 {
                let request = ServeRequest::new(make_query(i));
                for expect_hit in [false, true] {
                    let before = executing_calls();
                    let response = server.serve_one(0, &request).unwrap();
                    assert_eq!(response.cache_hit, expect_hit, "query {i}");
                    let after = executing_calls();
                    assert_eq!(
                        (after.0 - before.0, after.1 - before.1),
                        (1, 0),
                        "query {i}, cache hit {expect_hit}: (runs, execution_time_ms calls)"
                    );
                }
            }
        }
    }

    /// Deciding no longer executes, so a rewrite whose execution fails (here:
    /// a backend whose every `run` errs) is cached before the failure is seen;
    /// the failed run must take its decision back out.
    #[test]
    fn a_decision_whose_execution_fails_does_not_stay_cached() {
        let (backend, _) = counting(build_sampled_db(), true);
        let server = approximate_server(backend, Arc::new(RewriteSpace::hints_only));
        let request = ServeRequest::new(make_query(0));
        for _ in 0..2 {
            let err = server.serve_one(0, &request).unwrap_err();
            assert!(matches!(err, Error::Internal(_)), "{err}");
        }
        let stats = server.cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!((stats.misses, stats.hits), (2, 0));
    }

    /// With the shed count taken under the queue lock, concurrent queued
    /// batches can never lose or double-count a rejection — the counter equals the rejections actually returned.
    #[test]
    fn shed_count_matches_rejections_under_concurrent_queued_batches() {
        let server = server_over(
            build_db(),
            ServeConfig {
                workers: 2,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        );
        let requests = batch(60);
        let rejected: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        server
                            .serve_queued(&requests)
                            .unwrap()
                            .iter()
                            .filter(|o| o.is_rejected())
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(
            server.shed_count(),
            rejected as u64,
            "every rejection must be counted exactly once"
        );
    }
}
