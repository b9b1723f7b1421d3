//! # maliva-serve — a concurrent, cache-fronted query-serving layer
//!
//! Maliva is middleware in front of a database (paper §1): visualization
//! frontends send it map-viewport queries with a per-query time budget τ, and it
//! answers each within the budget by rewriting the query before execution. This
//! crate adds the serving machinery that the core reproduction leaves out:
//!
//! * [`MalivaServer`] shares one `Arc<dyn vizdb::QueryBackend>` — a plain
//!   [`vizdb::Database`] or a per-region [`vizdb::ShardedBackend`] (the [`ServeConfig::shards`] knob, see
//!   [`backend_for_shards`]) — one trained [`maliva::QAgent`] and one
//!   [`maliva_qte::QueryTimeEstimator`] across `std::thread::scope` worker
//!   threads, at most one per request, that drain a [`queue::WorkQueue`] —
//!   one loop behind both [`MalivaServer::serve_batch`] and
//!   [`MalivaServer::serve_queued`]: each request is decided with
//!   [`maliva::decide_online`] (no execution) and its chosen rewrite executed
//!   once, with [`vizdb::QueryBackend::run`];
//! * a decision cache fronts planning: a [`vizdb::Memo`] of
//!   [`CachedDecision`]s (bounded, sharded, LRU touch-on-hit) keyed by the
//!   corrected query fingerprint and the exact bits of τ, with
//!   hit/miss/eviction counters ([`MalivaServer::cache_stats`]); a shared
//!   backend's catalog cannot change, so an entry stays valid until it is
//!   evicted, or invalidated because its rewrite's `run` failed;
//! * [`MalivaServer::serve_queued`] adds admission control: a queue bounded by
//!   [`ServeConfig::queue_capacity`] that sheds overload with an explicit
//!   [`ServeOutcome::Rejected`] and a shed counter instead of growing without
//!   bound.
//!
//! Everything a response carries is simulated and deterministic, so a batch
//! served with 8 workers is byte-identical to the single-threaded run — the
//! repro's core invariant, pinned by this crate's concurrency smoke tests.
//! Wall-clock throughput and latency of the serving path are measured end to
//! end by the separate `benchmark/` workspace.

pub mod queue;
pub mod server;

/// The workspace synchronization facade, re-exported so serve-layer code and
/// tests name one canonical `sync` module (std/parking-lot-free wrappers
/// normally, loomlite shims under `--cfg maliva_model_check`).
pub use vizdb::sync;

pub use server::{
    backend_for_shards, CachedDecision, MalivaServer, ServeConfig, ServeOutcome, ServeRequest,
    ServeResponse, DECISION_CACHE_CAPACITY,
};
