//! The multi-threaded serving loop.
//!
//! A [`MalivaServer`] owns shared handles to a [`QueryBackend`] (a single
//! simulated database, a lock-wrapped mutable one, or a per-region
//! [`vizdb::ShardedBackend`]), a trained agent and a QTE, plus a decision
//! cache: a [`vizdb::Memo`] of [`CachedDecision`]s keyed by the query's
//! fingerprint and the exact bits of its budget τ, holding
//! [`DECISION_CACHE_CAPACITY`] decisions. Each request is decided with
//! [`maliva::decide_online`] (unless the decision cache already knows the
//! answer), which executes nothing, and the chosen rewrite is then executed
//! once, with [`QueryBackend::run`].
//! [`MalivaServer::serve_batch`] and [`MalivaServer::serve_queued`] share one
//! drain loop: the caller admits request indices into a [`WorkQueue`] and
//! scoped workers, at most one per request, pop and serve them. A batch's
//! queue holds the whole batch, so it never sheds; `serve_queued`'s is bounded
//! by `queue_capacity`.
//!
//! Every quantity a response carries is *simulated* and deterministic — planning
//! cost, execution time, viability, the materialised result — so serving the same
//! batch with 1 or 8 workers produces identical responses; only the wall-clock
//! throughput changes. This is the invariant the concurrency smoke tests pin.
//!
//! Three serve-layer knobs ([`ServeConfig`]):
//!
//! * `workers` — threads that drain the queue, at most one per request;
//! * `shards` — consumed by [`MalivaServer::over_database`], which mirrors the
//!   database into that many per-region shards behind the same trait object;
//! * `queue_capacity` — admission control: [`MalivaServer::serve_queued`] admits
//!   requests into a bounded queue and sheds with an explicit
//!   [`ServeOutcome::Rejected`] once it is full, instead of growing without bound.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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

use crate::queue::WorkQueue;

/// Decisions the cache holds, 512 per lock shard; a full shard evicts its
/// least-recently-used decision.
pub const DECISION_CACHE_CAPACITY: usize = 4096;

/// Configuration of a [`MalivaServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Threads that drain the queue, at most one per request (at least 1).
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
    backend: Arc<dyn QueryBackend>,
    agent: Arc<QAgent>,
    qte: Arc<dyn QueryTimeEstimator>,
    space_builder: Arc<SpaceBuilder>,
    cache: Memo<CachedDecision>,
    config: ServeConfig,
    shed: AtomicU64,
}

// `serve_batch` / `serve_queued` borrow `self` from every scoped worker thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MalivaServer>();
};

impl MalivaServer {
    /// Creates a server over shared backend / agent / QTE handles.
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
            backend,
            agent,
            qte,
            space_builder,
            cache: Memo::new(DECISION_CACHE_CAPACITY),
            config,
            shed: AtomicU64::new(0),
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
        &self.config
    }

    /// The shared backend handle.
    pub fn backend(&self) -> &Arc<dyn QueryBackend> {
        &self.backend
    }

    /// Decision-cache counters.
    pub fn cache_stats(&self) -> MemoStats {
        self.cache.stats()
    }

    /// Requests shed by admission control since the server was created.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Serves one request: decide (through the decision cache), then execute the
    /// chosen rewrite — the request's only executing backend call.
    ///
    /// The cache lookup carries the backend's current catalog generation, so a
    /// decision planned before a mid-serve `register_table` / `build_index` is
    /// dropped as stale instead of being returned.
    ///
    /// A NaN or negative budget is an [`Error::InvalidQuery`] before the cache
    /// is touched.
    pub fn serve_one(&self, request_index: usize, request: &ServeRequest) -> Result<ServeResponse> {
        let tau_ms = request.tau_ms.unwrap_or(self.config.default_tau_ms);
        if tau_ms.is_nan() || tau_ms < 0.0 {
            return Err(Error::InvalidQuery(format!(
                "time budget tau_ms must be a non-negative number, got {tau_ms}"
            )));
        }
        let key = decision_key(&request.query, tau_ms);
        // The generation is read lazily *inside* the lookup (after the entry is
        // retrieved), so a catalog mutation landing just before the lookup drops
        // the entry instead of slipping a stale decision through.
        let (decision, cache_hit) = match self.cache.get(key, || self.backend.generation()) {
            Some(found) => (found, true),
            None => {
                // Read before planning: a mutation *during* planning tags the
                // entry with the pre-mutation generation, so it is born stale.
                let generation = self.backend.generation();
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
                (self.cache.insert(key, planned, generation), false)
            }
        };
        let run = self
            .backend
            .run(&request.query, &decision.rewrite)
            .inspect_err(|_| {
                // Don't let a decision whose execution failed sit in the cache:
                // the next arrival of this key re-plans against the backend's
                // current state instead of replaying the decision.
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

    /// Serves `requests` through admission control: the calling thread submits
    /// them into a queue bounded by `config.queue_capacity` while the workers
    /// drain it. A request arriving while the queue is full is shed immediately
    /// with [`ServeOutcome::Rejected`] (and counted in [`Self::shed_count`]) —
    /// overload sheds, it never stalls the submitter or grows the queue without
    /// bound.
    ///
    /// Outcomes are returned in request order; planning/execution errors and
    /// panics of admitted requests propagate like in [`Self::serve_batch`].
    pub fn serve_queued(&self, requests: &[ServeRequest]) -> Result<Vec<ServeOutcome>> {
        let capacity = self.config.queue_capacity.max(1);
        self.drain(requests, capacity)
            .into_iter()
            .map(|slot| match slot {
                Some(response) => response.map(ServeOutcome::Served),
                None => Ok(ServeOutcome::Rejected { queue_full: true }),
            })
            .collect()
    }

    /// The one scheduling loop: the calling thread admits request indices into
    /// a [`WorkQueue`] of `capacity` (counting each shed), while
    /// `min(config.workers, requests.len())` scoped workers pop them and serve
    /// each under `catch_unwind`. Returns, in request order, `None` for a shed
    /// request, else what `serve_one` returned; once every worker has joined,
    /// the lowest-index panic is re-raised.
    fn drain(
        &self,
        requests: &[ServeRequest],
        capacity: usize,
    ) -> Vec<Option<Result<ServeResponse>>> {
        let queue = WorkQueue::new();
        let work = || {
            let mut served = Vec::new();
            while let Some(i) = queue.pop() {
                let response = catch_unwind(AssertUnwindSafe(|| self.serve_one(i, &requests[i])));
                served.push((i, response));
            }
            served
        };
        let mut slots: Vec<_> = requests.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            // Closes the queue however this closure exits: if a spawn panics,
            // the workers already started leave `pop` and the scope returns.
            let closer = queue.close_on_drop();
            let workers = self.config.workers.max(1).min(requests.len());
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            // A shed is counted under the queue lock (see `WorkQueue::try_push`).
            let count_shed = || {
                self.shed.fetch_add(1, Ordering::Relaxed);
            };
            for i in 0..requests.len() {
                let _admitted = queue.try_push(i, capacity, count_shed);
            }
            drop(closer);
            for handle in handles {
                // Only the queue's own bookkeeping runs outside `catch_unwind`.
                for (i, response) in handle.join().unwrap_or_else(|p| resume_unwind(p)) {
                    slots[i] = Some(response);
                }
            }
        });
        // In request order, so the first panic re-raised is the lowest index's.
        slots
            .into_iter()
            .map(|slot| slot.map(|response| response.unwrap_or_else(|p| resume_unwind(p))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maliva::RewriteSpace;
    use vizdb::query::{OutputKind, Predicate};
    use vizdb::schema::{ColumnType, TableSchema};
    use vizdb::storage::{Table, TableBuilder};
    use vizdb::{DbConfig, SharedBackend};

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

    /// The invalidation satellite (server half): registering a table mid-serve
    /// bumps the backend generation, so the next lookup of an already-cached
    /// decision must re-plan instead of returning the stale entry.
    #[test]
    fn catalog_mutation_mid_serve_invalidates_cached_decisions() {
        let mut db = Database::new(DbConfig::default());
        db.register_table(build_table()).unwrap();
        db.build_all_indexes("tweets").unwrap();
        let shared = Arc::new(SharedBackend::new(db));
        let server = server_over(shared.clone(), ServeConfig::default());

        let request = ServeRequest::new(make_query(0));
        let first = server.serve_one(0, &request).unwrap();
        assert!(!first.cache_hit);
        let warm = server.serve_one(1, &request).unwrap();
        assert!(warm.cache_hit, "second identical request must hit");

        // Mid-serve catalog mutation through the shared handle.
        let late = TableSchema::new("late").with_column("id", ColumnType::Int);
        shared
            .register_table(TableBuilder::new(late).build())
            .unwrap();

        let after = server.serve_one(2, &request).unwrap();
        assert!(
            !after.cache_hit,
            "a decision planned before register_table must not be served"
        );
        assert!(server.cache_stats().stale_drops >= 1);
        // The re-planned decision over the unchanged table is still the same.
        assert_eq!(after.result, first.result);
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

    /// Counts the executing calls that reach the backend it decorates; with
    /// `fail` set, every `run` is counted and then returns [`Error::Internal`].
    struct CountingBackend {
        inner: Arc<dyn QueryBackend>,
        fail: bool,
        runs: AtomicU64,
        timings: AtomicU64,
    }

    impl CountingBackend {
        fn new(inner: Arc<dyn QueryBackend>, fail: bool) -> Arc<Self> {
            Arc::new(Self {
                inner,
                fail,
                runs: AtomicU64::new(0),
                timings: AtomicU64::new(0),
            })
        }

        /// `(run calls, execution_time_ms calls)` so far.
        fn executing_calls(&self) -> (u64, u64) {
            (
                self.runs.load(Ordering::Relaxed),
                self.timings.load(Ordering::Relaxed),
            )
        }
    }

    impl QueryBackend for CountingBackend {
        fn table_names(&self) -> Vec<String> {
            self.inner.table_names()
        }
        fn row_count(&self, table: &str) -> Result<usize> {
            self.inner.row_count(table)
        }
        fn schema(&self, table: &str) -> Result<TableSchema> {
            self.inner.schema(table)
        }
        fn stats(&self, table: &str) -> Result<vizdb::stats::TableStats> {
            self.inner.stats(table)
        }
        fn indexed_columns(&self, table: &str) -> Result<Vec<usize>> {
            self.inner.indexed_columns(table)
        }
        fn sample_len(&self, table: &str, fraction_pct: u32) -> Result<usize> {
            self.inner.sample_len(table, fraction_pct)
        }
        fn plan(&self, query: &Query, ro: &RewriteOption) -> Result<vizdb::plan::PhysicalPlan> {
            self.inner.plan(query, ro)
        }
        fn run(&self, query: &Query, ro: &RewriteOption) -> Result<vizdb::RunOutcome> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            if self.fail {
                return Err(Error::Internal("injected run failure".into()));
            }
            self.inner.run(query, ro)
        }
        fn execution_time_ms(&self, query: &Query, ro: &RewriteOption) -> Result<f64> {
            self.timings.fetch_add(1, Ordering::Relaxed);
            self.inner.execution_time_ms(query, ro)
        }
        fn estimated_cardinality(&self, query: &Query) -> Result<f64> {
            self.inner.estimated_cardinality(query)
        }
        fn estimated_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
            self.inner.estimated_selectivity(table, pred)
        }
        fn true_selectivity(&self, table: &str, pred: &Predicate) -> Result<f64> {
            self.inner.true_selectivity(table, pred)
        }
        fn sample_selectivity(
            &self,
            table: &str,
            pred: &Predicate,
            fraction_pct: u32,
        ) -> Result<(f64, usize)> {
            self.inner.sample_selectivity(table, pred, fraction_pct)
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
            let counting = CountingBackend::new(backend, false);
            let server = approximate_server(counting.clone(), Arc::new(RewriteSpace::hints_only));
            for i in 0..6u64 {
                let request = ServeRequest::new(make_query(i));
                for expect_hit in [false, true] {
                    let before = counting.executing_calls();
                    let response = server.serve_one(0, &request).unwrap();
                    assert_eq!(response.cache_hit, expect_hit, "query {i}");
                    let after = counting.executing_calls();
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
        let backend = CountingBackend::new(build_sampled_db(), true);
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
