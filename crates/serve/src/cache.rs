//! The decision cache: memoises online-planning outcomes per (query, τ-bucket).
//!
//! Planning a query with [`maliva::plan_online`] costs a sequence of QTE calls;
//! for a map-centric workload the same viewport queries arrive over and over, so
//! the serving layer fronts planning with a bounded, sharded cache keyed by the
//! *corrected* query fingerprint (see `vizdb::fingerprint`) and a quantised time
//! budget. Cached decisions are deterministic functions of their key — planning
//! is greedy over a fixed agent and a deterministic simulated database — so
//! whichever worker plans a key first installs exactly the value every other
//! worker would have computed, and hit/miss races cannot change served results.
//!
//! Two mechanisms keep the cache honest:
//!
//! * **LRU eviction** (touch-on-hit): when a shard reaches its capacity bound,
//!   the least-recently-*used* entry goes, so the hot viewports a map frontend
//!   keeps re-requesting survive a long tail of one-off queries.
//! * **Generation tagging**: every entry records the backend catalog generation
//!   it was planned under ([`vizdb::QueryBackend::generation`]). A lookup under a
//!   newer generation treats the entry as stale — it is dropped and the lookup
//!   misses — so a table registered or an index built mid-serve can never cause
//!   a stale decision to be returned.

use std::collections::{HashMap, VecDeque};

use vizdb::fingerprint::query_fingerprint;
use vizdb::hints::RewriteOption;
use vizdb::query::Query;
use vizdb::sync::atomic::{AtomicU64, Ordering};
use vizdb::sync::Mutex;

/// Number of independent lock shards (power of two so shard selection is a mask).
const SHARDS: usize = 8;

/// Configuration of a [`DecisionCache`].
#[derive(Debug, Clone, Copy)]
pub struct DecisionCacheConfig {
    /// Target number of cached decisions. The bound is enforced *per shard*
    /// (`capacity / 8`, rounded up), so a key distribution skewed towards one
    /// shard starts evicting before the global total is reached, and rounding
    /// can admit slightly more than `capacity` entries overall. `0` disables
    /// the cache entirely (every lookup misses, inserts are dropped).
    pub capacity: usize,
    /// Width of the τ-quantisation bucket in milliseconds. `0.0` keys by the
    /// exact τ bits. With a positive width, every budget inside
    /// `[k·w, (k+1)·w)` is planned with the *canonical* budget `k·w` (the
    /// conservative floor), so a cached decision is still a pure function of its
    /// key and determinism is preserved across worker interleavings. A budget
    /// whose bucket index `k` is not an integer in `[0, 2^53)` — any budget
    /// under an infinite width, a large one under a subnormal width — keys by
    /// its exact bits instead.
    pub tau_bucket_ms: f64,
}

impl Default for DecisionCacheConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            tau_bucket_ms: 0.0,
        }
    }
}

impl DecisionCacheConfig {
    /// A configuration with the cache disabled (used as a planning baseline).
    pub fn disabled() -> Self {
        Self {
            capacity: 0,
            ..Self::default()
        }
    }
}

/// A memoised planning outcome.
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

/// Monotonic hit/miss/eviction counters of a [`DecisionCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required planning.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries inserted (first-wins; re-inserts of a present key don't count).
    pub insertions: u64,
    /// Entries dropped because their catalog generation was stale.
    pub stale_drops: u64,
    /// Entries explicitly invalidated by the serving layer (decisions whose
    /// execution failed).
    pub invalidations: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// One cached entry: the decision, the catalog generation it was planned under,
/// and its most recent use stamp (for LRU eviction).
struct Entry {
    decision: CachedDecision,
    generation: u64,
    stamp: u64,
}

/// One lock shard. `order` is a lazy-deletion recency queue: every touch pushes a
/// fresh `(key, stamp)` pair and bumps the entry's stamp, so older pairs for the
/// same key no longer match and are skipped (and discarded) during eviction. The
/// queue is compacted once it grows well past the live-entry count.
#[derive(Default)]
struct Shard {
    map: HashMap<(u64, u64), Entry>,
    order: VecDeque<((u64, u64), u64)>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: (u64, u64)) {
        self.tick += 1;
        let stamp = self.tick;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.stamp = stamp;
        }
        self.order.push_back((key, stamp));
    }

    /// Removes the least-recently-used live entry. Returns whether one was evicted.
    fn evict_lru(&mut self) -> bool {
        while let Some((key, stamp)) = self.order.pop_front() {
            let live = matches!(self.map.get(&key), Some(entry) if entry.stamp == stamp);
            if live {
                self.map.remove(&key);
                return true;
            }
        }
        false
    }

    /// Drops dead recency pairs once they outnumber live entries substantially
    /// (keeps the queue within a constant factor of the map).
    fn maybe_compact(&mut self) {
        if self.order.len() > self.map.len() * 2 + 8 {
            let map = &self.map;
            self.order
                .retain(|(key, stamp)| matches!(map.get(key), Some(e) if e.stamp == *stamp));
        }
    }
}

/// A bounded, sharded map from (query fingerprint, τ-bucket) to planning
/// decisions, safe to share across serving threads.
pub struct DecisionCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    tau_bucket_ms: f64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    stale_drops: AtomicU64,
    invalidations: AtomicU64,
}

impl DecisionCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: DecisionCacheConfig) -> Self {
        // Round the per-shard bound up so the configured total is never undercut.
        let shard_capacity = config.capacity.div_ceil(SHARDS);
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            tau_bucket_ms: config.tau_bucket_ms.max(0.0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The τ-bucket of `tau_ms`, or `None` to key and plan on the exact
    /// budget. Buckets need a finite, positive width and a quotient `τ / w` in
    /// `[0, 2^53)`, where its floor is an exact integer and times `w` a finite
    /// budget; an infinite width (`0 × ∞` is NaN) or a subnormal one (`τ / w`
    /// overflows) would otherwise plan every request under a NaN or infinite
    /// budget. An exactly keyed τ has bits `≥ 2^53`, so it never collides with
    /// a bucket index.
    fn bucket(&self, tau_ms: f64) -> Option<f64> {
        const EXACT_INTEGERS: f64 = (1u64 << 53) as f64;
        let width = self.tau_bucket_ms;
        let quotient = tau_ms / width;
        let bucketed =
            width.is_finite() && width > 0.0 && (0.0..EXACT_INTEGERS).contains(&quotient);
        bucketed.then(|| quotient.floor())
    }

    /// The cache key of `(query, tau_ms)`.
    pub fn key(&self, query: &Query, tau_ms: f64) -> (u64, u64) {
        let tau_key = match self.bucket(tau_ms) {
            Some(bucket) => bucket as u64,
            None => tau_ms.to_bits(),
        };
        (query_fingerprint(query), tau_key)
    }

    /// The budget planning must use for `tau_ms` so that the resulting decision
    /// is a pure function of [`Self::key`]: the bucket floor when τ falls in a
    /// bucket, the exact budget otherwise.
    pub fn canonical_tau(&self, tau_ms: f64) -> f64 {
        match self.bucket(tau_ms) {
            Some(bucket) => bucket * self.tau_bucket_ms,
            None => tau_ms,
        }
    }

    fn shard(&self, key: (u64, u64)) -> &Mutex<Shard> {
        &self.shards[(key.0 ^ key.1) as usize & (SHARDS - 1)]
    }

    /// Looks `key` up, updating the hit/miss counters. A hit refreshes the
    /// entry's recency (LRU). An entry planned under an older catalog generation
    /// is dropped and the lookup misses.
    ///
    /// `generation` is a *supplier* of the backend's current generation, called
    /// only once an entry is found and *after* the entry is retrieved — reading
    /// it up front would leave a window where a catalog mutation lands between
    /// the read and the lookup and a stale decision is served anyway. Evaluated
    /// lazily, serving a cached decision exposes exactly the same
    /// mutation-between-plan-and-run window as planning from scratch, no more.
    pub fn get(&self, key: (u64, u64), generation: impl FnOnce() -> u64) -> Option<CachedDecision> {
        let mut shard = self.shard(key).lock();
        let found = match shard.map.get(&key) {
            Some(entry) if entry.generation == generation() => Some(entry.decision.clone()),
            Some(_) => {
                shard.map.remove(&key);
                self.stale_drops.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        };
        match &found {
            Some(_) => {
                shard.touch(key);
                shard.maybe_compact();
                self.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a decision planned under `generation` unless the key is already
    /// present at that generation (first insert wins, mirroring the database
    /// caches; a stale entry is overwritten), evicting the least-recently-used
    /// entry of the shard when the capacity bound is hit. Returns the canonical
    /// cached decision.
    pub fn insert(
        &self,
        key: (u64, u64),
        decision: CachedDecision,
        generation: u64,
    ) -> CachedDecision {
        if self.shard_capacity == 0 {
            return decision;
        }
        let mut shard = self.shard(key).lock();
        match shard.map.get(&key) {
            // Generations increase monotonically: an entry at the same or a
            // *newer* generation than the inserter's snapshot wins (a slow
            // planner that read the catalog before a mutation must not clobber
            // the fresher entry a faster worker installed after it).
            Some(existing) if existing.generation >= generation => {
                return existing.decision.clone()
            }
            Some(_) => {
                shard.map.remove(&key);
                self.stale_drops.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        if shard.map.len() >= self.shard_capacity && shard.evict_lru() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.map.insert(
            key,
            Entry {
                decision: decision.clone(),
                generation,
                stamp: 0,
            },
        );
        shard.touch(key);
        shard.maybe_compact();
        self.insertions.fetch_add(1, Ordering::Relaxed);
        decision
    }

    /// Drops `key` from the cache, returning whether an entry was present.
    ///
    /// The serving layer calls this when a decision's execution returns an
    /// error, so the next arrival of the same key re-plans against the
    /// backend's current state instead of replaying the failed decision.
    pub fn invalidate(&self, key: (u64, u64)) -> bool {
        let mut shard = self.shard(key).lock();
        let removed = shard.map.remove(&key).is_some();
        if removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Current counter values and entry count.
    pub fn stats(&self) -> DecisionCacheStats {
        DecisionCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            stale_drops: self.stale_drops.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().map.len()).sum(),
        }
    }

    /// Drops every cached decision (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.map.clear();
            shard.order.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizdb::hints::HintSet;
    use vizdb::query::Predicate;

    /// Catalog generation used by tests that don't exercise invalidation.
    const GEN: u64 = 7;

    fn decision(i: usize) -> CachedDecision {
        CachedDecision {
            chosen_index: i,
            rewrite: RewriteOption::hinted(HintSet::with_mask(i as u32)),
            planning_ms: 40.0 + i as f64,
        }
    }

    fn query(i: u64) -> Query {
        Query::select("t").filter(Predicate::time_range(0, 0, i as i64 + 1))
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = DecisionCache::new(DecisionCacheConfig::default());
        let key = cache.key(&query(1), 500.0);
        assert!(cache.get(key, || GEN).is_none());
        cache.insert(key, decision(3), GEN);
        let hit = cache.get(key, || GEN).expect("cached");
        assert_eq!(hit.chosen_index, 3);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_taus_have_distinct_keys_without_bucketing() {
        let cache = DecisionCache::new(DecisionCacheConfig::default());
        let q = query(1);
        assert_ne!(cache.key(&q, 500.0), cache.key(&q, 501.0));
        assert_eq!(cache.canonical_tau(501.0), 501.0);
    }

    #[test]
    fn tau_bucketing_quantises_key_and_budget_together() {
        let cache = DecisionCache::new(DecisionCacheConfig {
            capacity: 64,
            tau_bucket_ms: 50.0,
        });
        let q = query(1);
        assert_eq!(cache.key(&q, 500.0), cache.key(&q, 549.9));
        assert_ne!(cache.key(&q, 500.0), cache.key(&q, 550.0));
        // Whatever τ in the bucket arrives first, planning uses the same budget.
        assert_eq!(cache.canonical_tau(500.0), 500.0);
        assert_eq!(cache.canonical_tau(549.9), 500.0);
    }

    /// A width whose buckets cannot be computed keys and plans on the exact
    /// τ: an infinite width used to put every τ in bucket 0 and plan it under
    /// NaN (`0 × ∞`), a subnormal one to overflow `τ / w` so every key
    /// saturated and every budget became `∞`.
    #[test]
    fn extreme_bucket_widths_key_and_plan_on_the_exact_tau() {
        let q = query(1);
        for width in [f64::INFINITY, 1e-320, f64::MIN_POSITIVE] {
            let cache = DecisionCache::new(DecisionCacheConfig {
                capacity: 64,
                tau_bucket_ms: width,
            });
            assert_eq!(cache.canonical_tau(500.0), 500.0, "width {width:e}");
            assert_eq!(cache.canonical_tau(501.0), 501.0, "width {width:e}");
            assert_ne!(
                cache.key(&q, 500.0),
                cache.key(&q, 501.0),
                "width {width:e}"
            );
        }
        // A narrow width still buckets while τ / w stays below 2^53.
        let width = (-20f64).exp2();
        let cache = DecisionCache::new(DecisionCacheConfig {
            capacity: 64,
            tau_bucket_ms: width,
        });
        assert_eq!(cache.key(&q, 500.0), cache.key(&q, 500.0 + width / 4.0));
        assert_eq!(cache.canonical_tau(500.0 + width / 4.0), 500.0);
    }

    #[test]
    fn first_insert_wins() {
        let cache = DecisionCache::new(DecisionCacheConfig::default());
        let key = cache.key(&query(1), 500.0);
        cache.insert(key, decision(1), GEN);
        let canonical = cache.insert(key, decision(2), GEN);
        assert_eq!(canonical.chosen_index, 1);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn capacity_bound_evicts() {
        let cache = DecisionCache::new(DecisionCacheConfig {
            capacity: 8, // one entry per shard
            tau_bucket_ms: 0.0,
        });
        for i in 0..64u64 {
            cache.insert(cache.key(&query(i), 500.0), decision(i as usize), GEN);
        }
        let stats = cache.stats();
        assert!(
            stats.entries <= 8,
            "entries {} exceed capacity",
            stats.entries
        );
        assert_eq!(stats.evictions, stats.insertions - stats.entries as u64);
    }

    /// The LRU satellite: with a per-shard capacity of 2, FIFO would evict the
    /// oldest-inserted entry; touching it on a hit must make the *untouched*
    /// entry the victim instead.
    #[test]
    fn touch_on_hit_survives_where_fifo_would_evict() {
        let cache = DecisionCache::new(DecisionCacheConfig {
            capacity: 16, // two entries per shard
            tau_bucket_ms: 0.0,
        });
        // Find three distinct queries whose keys land in the same shard.
        let probe = cache.key(&query(0), 500.0);
        let shard_of = |key: (u64, u64)| (key.0 ^ key.1) as usize & (super::SHARDS - 1);
        let mut same_shard = vec![probe];
        let mut i = 1u64;
        while same_shard.len() < 3 {
            let key = cache.key(&query(i), 500.0);
            if shard_of(key) == shard_of(probe) {
                same_shard.push(key);
            }
            i += 1;
        }
        let (a, b, c) = (same_shard[0], same_shard[1], same_shard[2]);
        cache.insert(a, decision(1), GEN); // oldest inserted
        cache.insert(b, decision(2), GEN);
        assert!(cache.get(a, || GEN).is_some()); // touch a → b is now LRU
        cache.insert(c, decision(3), GEN); // shard full: evicts LRU
        assert!(
            cache.get(a, || GEN).is_some(),
            "a re-touched entry must survive the eviction FIFO would have hit it with"
        );
        assert!(
            cache.get(b, || GEN).is_none(),
            "the untouched entry is the LRU victim"
        );
        assert!(cache.get(c, || GEN).is_some());
    }

    /// The invalidation satellite (cache half): a lookup under a newer catalog
    /// generation must drop the entry and miss instead of returning it.
    #[test]
    fn stale_generation_entries_are_dropped_on_lookup() {
        let cache = DecisionCache::new(DecisionCacheConfig::default());
        let key = cache.key(&query(1), 500.0);
        cache.insert(key, decision(1), GEN);
        assert!(cache.get(key, || GEN).is_some());
        assert!(
            cache.get(key, || GEN + 1).is_none(),
            "an entry planned under an older generation must not be served"
        );
        let stats = cache.stats();
        assert_eq!(stats.stale_drops, 1);
        assert_eq!(stats.entries, 0);
        // Re-inserting under the new generation works and hits again.
        cache.insert(key, decision(2), GEN + 1);
        assert_eq!(cache.get(key, || GEN + 1).unwrap().chosen_index, 2);
    }

    /// A stale entry is also replaced (not first-wins-kept) on insert.
    #[test]
    fn insert_overwrites_stale_generations() {
        let cache = DecisionCache::new(DecisionCacheConfig::default());
        let key = cache.key(&query(1), 500.0);
        cache.insert(key, decision(1), GEN);
        let canonical = cache.insert(key, decision(2), GEN + 1);
        assert_eq!(canonical.chosen_index, 2);
        assert_eq!(cache.get(key, || GEN + 1).unwrap().chosen_index, 2);
    }

    /// The reverse race: a slow planner whose generation snapshot predates a
    /// catalog mutation must not clobber the fresher entry a faster worker
    /// installed — the newer-generation entry wins and is returned as canonical.
    #[test]
    fn insert_with_an_older_generation_keeps_the_fresher_entry() {
        let cache = DecisionCache::new(DecisionCacheConfig::default());
        let key = cache.key(&query(1), 500.0);
        cache.insert(key, decision(2), GEN + 1); // fast worker, post-mutation
        let canonical = cache.insert(key, decision(1), GEN); // slow pre-mutation planner
        assert_eq!(
            canonical.chosen_index, 2,
            "the fresher decision is canonical"
        );
        assert_eq!(cache.get(key, || GEN + 1).unwrap().chosen_index, 2);
        assert_eq!(
            cache.stats().stale_drops,
            0,
            "a fresh entry must not be counted as a stale drop"
        );
    }

    /// An explicit invalidation drops exactly the targeted key, counts once,
    /// and is a no-op for keys that are absent.
    #[test]
    fn invalidate_drops_only_the_targeted_key() {
        let cache = DecisionCache::new(DecisionCacheConfig::default());
        let a = cache.key(&query(1), 500.0);
        let b = cache.key(&query(2), 500.0);
        cache.insert(a, decision(1), GEN);
        cache.insert(b, decision(2), GEN);
        assert!(cache.invalidate(a));
        assert!(!cache.invalidate(a), "second invalidation finds nothing");
        assert!(cache.get(a, || GEN).is_none());
        assert!(cache.get(b, || GEN).is_some(), "other keys must survive");
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = DecisionCache::new(DecisionCacheConfig::disabled());
        let key = cache.key(&query(1), 500.0);
        cache.insert(key, decision(1), GEN);
        assert!(cache.get(key, || GEN).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = DecisionCache::new(DecisionCacheConfig::default());
        let key = cache.key(&query(1), 500.0);
        cache.insert(key, decision(1), GEN);
        let _ = cache.get(key, || GEN);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
        assert!(cache.get(key, || GEN).is_none());
    }

    /// The recency queue must stay within a constant factor of the live entries
    /// even under a pure hit workload (compaction).
    #[test]
    fn recency_queue_stays_bounded_under_hits() {
        let cache = DecisionCache::new(DecisionCacheConfig {
            capacity: 8,
            tau_bucket_ms: 0.0,
        });
        let key = cache.key(&query(1), 500.0);
        cache.insert(key, decision(1), GEN);
        for _ in 0..10_000 {
            let _ = cache.get(key, || GEN);
        }
        let order_len = cache.shard(key).lock().order.len();
        assert!(
            order_len <= 16,
            "recency queue grew to {order_len} entries for 1 live key"
        );
    }
}
