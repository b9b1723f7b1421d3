//! # maliva-serve — a concurrent, cache-fronted query-serving layer
//!
//! Maliva is middleware in front of a database (paper §1): visualization
//! frontends send it map-viewport queries with a per-query time budget τ, and it
//! answers each within the budget by rewriting the query before execution. This
//! crate adds the serving machinery that the core reproduction leaves out:
//!
//! * [`MalivaServer`] shares one `Arc<dyn vizdb::QueryBackend>` — a plain
//!   [`vizdb::Database`], a lock-wrapped [`vizdb::SharedBackend`], or a
//!   per-region [`vizdb::ShardedBackend`] (the [`ServeConfig::shards`] knob, see
//!   [`backend_for_shards`]) — one trained [`maliva::QAgent`] and one
//!   [`maliva_qte::QueryTimeEstimator`] across `std::thread::scope` worker
//!   threads, at most one per request, that drain a [`queue::WorkQueue`] —
//!   one loop behind both [`MalivaServer::serve_batch`] and
//!   [`MalivaServer::serve_queued`]: each request is decided with
//!   [`maliva::decide_online`] (no execution) and its chosen rewrite executed
//!   once, with [`vizdb::QueryBackend::run_with_context`];
//! * [`DecisionCache`] fronts planning with a bounded, sharded, LRU
//!   (touch-on-hit) map keyed by the corrected query fingerprint and a τ-bucket,
//!   with hit/miss/eviction counters; every entry is tagged with the backend
//!   catalog generation, so a table registered or an index built mid-serve drops
//!   the affected decisions instead of serving them stale;
//! * [`MalivaServer::serve_queued`] adds admission control: a queue bounded by
//!   [`ServeConfig::queue_capacity`] that sheds overload with an explicit
//!   [`ServeOutcome::Rejected`] and a shed counter instead of growing without
//!   bound;
//! * [`ServeMetrics`] reports wall-clock throughput (queries/sec) and
//!   p50/p95/p99 latency for the `serve` and `shard` experiments in
//!   `maliva-bench` (`cargo run -p maliva-bench --release --bin experiments --
//!   serve shard`).
//!
//! Everything a response carries is simulated and deterministic, so a batch
//! served with 8 workers is byte-identical to the single-threaded run — the
//! repro's core invariant, pinned by this crate's concurrency smoke tests.

pub mod cache;
pub mod queue;
pub mod server;

/// The workspace synchronization facade, re-exported so serve-layer code and
/// tests name one canonical `sync` module (std/parking-lot-free wrappers
/// normally, loomlite shims under `--cfg maliva_model_check`).
pub use vizdb::sync;

pub use cache::{CachedDecision, DecisionCache, DecisionCacheConfig, DecisionCacheStats};
pub use server::{
    backend_for_shards, percentile_ms, MalivaServer, ServeConfig, ServeMetrics, ServeOutcome,
    ServeRequest, ServeResponse,
};
