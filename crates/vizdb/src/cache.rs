//! One bounded, sharded, thread-safe memo for values that are deterministic
//! functions of a `(u64, u64)` key.
//!
//! The database memoises simulated execution times and true selectivities
//! (keyed by query and rewrite fingerprints, or by table and predicate
//! fingerprints), and the serving layer memoises planning decisions (keyed by
//! query fingerprint and τ bits). Every value is a pure function of its key, so
//! concurrent workers race benignly: whichever installs a value first, every
//! other worker would have computed exactly the same one. The memo behaves the
//! same way for all three:
//!
//! * **Bounded, CLOCK.** The capacity is enforced per lock shard. Each entry
//!   holds a slot of the shard's ring and a referenced bit, which a hit sets.
//!   When a full shard needs a slot, its hand sweeps the ring, clearing set
//!   bits, and evicts the first entry whose bit is clear, so a hot key
//!   survives a long tail of one-off keys while a hit stays a plain lookup and
//!   a bit store. A slot left by an invalidated entry is reused before
//!   anything is evicted.
//! * **First insert wins.** The first value installed for a key stays until
//!   it is invalidated, cleared or evicted. No generation or version is kept:
//!   every owner's inputs are fixed while the memo is shared (a [`crate::Database`]
//!   clears its memos on each `&mut` catalog mutation, and a backend shared
//!   across serving threads cannot be mutated).
//! * **Computed outside the lock.** [`Memo::get_or_try_compute`] runs a miss's
//!   computation without holding the shard, so a slow computation never blocks
//!   unrelated keys. Errors are not memoised.
//!
//! Each shard keeps its counters beside its map and bumps them under the lock
//! the operation already holds, so a shard's counters and entries are never
//! read torn.

use std::collections::HashMap;

use crate::sync::Mutex;

/// Number of independent lock shards (power of two so shard selection is a mask).
const SHARDS: usize = 8;

type Key = (u64, u64);

/// Counters and the entry count of a [`Memo`]. Every counter is monotonic;
/// [`Memo::clear`] keeps them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that found no live entry.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries inserted (an insert that the present entry wins does not count).
    pub insertions: u64,
    /// Entries removed by [`Memo::invalidate`].
    pub invalidations: u64,
    /// Entries currently held.
    pub entries: usize,
}

/// One entry: the value, its slot in the shard's ring and whether a hit has
/// referenced it since the hand last passed.
struct Entry<V> {
    value: V,
    slot: usize,
    referenced: bool,
}

/// One lock shard. `ring` holds at most the shard capacity's keys, one per
/// slot; `free` lists the slots whose entry was invalidated, and `hand` is where the next eviction sweep starts.
struct Shard<V> {
    map: HashMap<Key, Entry<V>>,
    ring: Vec<Key>,
    free: Vec<usize>,
    hand: usize,
    stats: MemoStats,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            ring: Vec::new(),
            free: Vec::new(),
            hand: 0,
            stats: MemoStats::default(),
        }
    }

    /// Removes `key`'s entry, freeing its slot; `false` when there is none.
    fn remove(&mut self, key: Key) -> bool {
        match self.map.remove(&key) {
            Some(entry) => {
                self.free.push(entry.slot);
                true
            }
            None => false,
        }
    }

    /// Puts `key` in a slot of a ring of at most `capacity` and returns the
    /// slot: a freed one, a new one while the ring is short, or else the first
    /// one from the hand on whose entry is unreferenced, which is evicted (the
    /// sweep clears each set bit it passes).
    fn place(&mut self, key: Key, capacity: usize) -> usize {
        if let Some(slot) = self.free.pop() {
            self.ring[slot] = key;
            return slot;
        }
        if self.ring.len() < capacity {
            self.ring.push(key);
            return self.ring.len() - 1;
        }
        loop {
            let slot = self.hand;
            self.hand = (slot + 1) % self.ring.len();
            match self.map.get_mut(&self.ring[slot]) {
                Some(entry) if entry.referenced => entry.referenced = false,
                // `free` lists every slot without an entry, so this one has one.
                _ => {
                    self.map.remove(&self.ring[slot]);
                    self.stats.evictions += 1;
                    self.ring[slot] = key;
                    return slot;
                }
            }
        }
    }
}

/// A bounded map from `(u64, u64)` keys to values that are deterministic
/// functions of their key, safe to share across threads.
pub struct Memo<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_capacity: usize,
}

impl<V: Clone> Memo<V> {
    /// A memo holding about `capacity` entries: the bound is enforced *per
    /// shard* (`capacity / 8`, rounded up), so keys skewed towards one shard
    /// start evicting before the total is reached. `0` holds nothing (every
    /// lookup misses).
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity: capacity.div_ceil(SHARDS),
        }
    }

    fn shard(&self, key: Key) -> &Mutex<Shard<V>> {
        // Fingerprints are FNV-mixed, so the low bits are already well spread.
        &self.shards[(key.0 ^ key.1) as usize & (SHARDS - 1)]
    }

    /// Looks `key` up; a hit sets the entry's referenced bit.
    pub fn get(&self, key: Key) -> Option<V> {
        let mut shard = self.shard(key).lock();
        let found = shard.map.get_mut(&key).map(|entry| {
            entry.referenced = true;
            entry.value.clone()
        });
        if found.is_some() {
            shard.stats.hits += 1;
        } else {
            shard.stats.misses += 1;
        }
        found
    }

    /// Inserts `value` unless `key` already has an entry: the first insert
    /// wins. A new entry starts unreferenced, in a slot [`Shard::place`]
    /// finds, which in a full shard evicts an entry. Returns the value the
    /// memo now holds for `key` (the canonical one).
    pub fn insert(&self, key: Key, value: V) -> V {
        if self.shard_capacity == 0 {
            return value;
        }
        let mut shard = self.shard(key).lock();
        if let Some(existing) = shard.map.get(&key) {
            return existing.value.clone();
        }
        let slot = shard.place(key, self.shard_capacity);
        let entry = Entry {
            value: value.clone(),
            slot,
            referenced: false,
        };
        shard.map.insert(key, entry);
        shard.stats.insertions += 1;
        value
    }

    /// The value for `key`, computing and inserting it on a miss. `compute`
    /// runs outside the shard lock, so racing callers may each compute; every
    /// caller returns the canonical (first-inserted) value. Errors are
    /// returned and not memoised.
    pub fn get_or_try_compute<E>(
        &self,
        key: Key,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(value) = self.get(key) {
            return Ok(value);
        }
        Ok(self.insert(key, compute()?))
    }

    /// Drops `key`, returning whether an entry was present.
    pub fn invalidate(&self, key: Key) -> bool {
        let mut shard = self.shard(key).lock();
        let removed = shard.remove(key);
        if removed {
            shard.stats.invalidations += 1;
        }
        removed
    }

    /// Drops every entry; the counters are kept.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.map.clear();
            shard.ring.clear();
            shard.free.clear();
            shard.hand = 0;
        }
    }

    /// The counters summed over every shard, and the entries held.
    pub fn stats(&self) -> MemoStats {
        let mut total = MemoStats::default();
        for shard in &self.shards {
            let shard = shard.lock();
            let s = shard.stats;
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.insertions += s.insertions;
            total.invalidations += s.invalidations;
            total.entries += shard.map.len();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(memo: &Memo<f64>) -> (u64, u64, usize) {
        let s = memo.stats();
        (s.hits, s.misses, s.entries)
    }

    /// `n` distinct keys that land in one shard.
    fn same_shard_keys(n: usize) -> Vec<Key> {
        let shard_of = |key: Key| (key.0 ^ key.1) as usize & (SHARDS - 1);
        (0..)
            .map(|i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 500))
            .filter(|&key| shard_of(key) == shard_of((0, 500)))
            .take(n)
            .collect()
    }

    #[test]
    fn get_after_insert_hits() {
        let memo = Memo::new(4096);
        assert_eq!(memo.get((1, 2)), None);
        memo.insert((1, 2), 3.0);
        assert_eq!(memo.get((1, 2)), Some(3.0));
        assert_eq!(stats_of(&memo), (1, 1, 1));
    }

    #[test]
    fn miss_computes_and_caches() {
        let memo = Memo::new(4096);
        let v: Result<f64, ()> = memo.get_or_try_compute((1, 2), || Ok(7.5));
        assert_eq!(v, Ok(7.5));
        assert_eq!(memo.get((1, 2)), Some(7.5));
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn hit_skips_compute() {
        let memo = Memo::new(4096);
        let _: Result<f64, ()> = memo.get_or_try_compute((1, 2), || Ok(1.0));
        let v: Result<f64, ()> = memo.get_or_try_compute((1, 2), || panic!("must not recompute"));
        assert_eq!(v, Ok(1.0));
    }

    #[test]
    fn errors_are_not_cached() {
        let memo = Memo::new(4096);
        let e: Result<f64, &str> = memo.get_or_try_compute((3, 4), || Err("boom"));
        assert_eq!(e, Err("boom"));
        assert_eq!(memo.get((3, 4)), None);
        assert_eq!(memo.stats().insertions, 0);
        let v: Result<f64, &str> = memo.get_or_try_compute((3, 4), || Ok(2.0));
        assert_eq!(v, Ok(2.0));
    }

    #[test]
    fn first_insert_wins() {
        let memo = Memo::new(4096);
        assert_eq!(memo.insert((9, 9), 1.0), 1.0);
        assert_eq!(memo.insert((9, 9), 2.0), 1.0);
        assert_eq!(memo.get((9, 9)), Some(1.0));
        assert_eq!(memo.stats().insertions, 1);
    }

    #[test]
    fn capacity_bound_evicts() {
        let memo = Memo::new(8); // one entry per shard
        for i in 0..64u64 {
            memo.insert((i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)), i as f64);
        }
        let stats = memo.stats();
        assert!(
            stats.entries <= 8,
            "{} entries exceed capacity",
            stats.entries
        );
        assert_eq!(stats.evictions, stats.insertions - stats.entries as u64);
    }

    /// With two entries per shard, FIFO would evict the oldest-inserted entry;
    /// touching it on a hit must make the *untouched* entry the victim instead.
    #[test]
    fn touch_on_hit_survives_where_fifo_would_evict() {
        let memo = Memo::new(16); // two entries per shard
        let keys = same_shard_keys(3);
        let (a, b, c) = (keys[0], keys[1], keys[2]);
        memo.insert(a, 1.0); // oldest inserted
        memo.insert(b, 2.0);
        assert!(memo.get(a).is_some()); // touch a: b is now LRU
        memo.insert(c, 3.0); // shard full: evicts the LRU
        assert!(
            memo.get(a).is_some(),
            "a re-touched entry must survive the eviction FIFO would have hit it with"
        );
        assert!(memo.get(b).is_none(), "the untouched entry is the victim");
        assert!(memo.get(c).is_some());
        assert_eq!(memo.stats().evictions, 1);
    }

    /// An invalidation drops exactly the targeted key, counts once, and is a
    /// no-op for an absent key.
    #[test]
    fn invalidate_drops_only_the_targeted_key() {
        let memo = Memo::new(4096);
        memo.insert((1, 1), 1.0);
        memo.insert((2, 1), 2.0);
        assert!(memo.invalidate((1, 1)));
        assert!(
            !memo.invalidate((1, 1)),
            "second invalidation finds nothing"
        );
        assert!(memo.get((1, 1)).is_none());
        assert!(memo.get((2, 1)).is_some(), "other keys must survive");
        let stats = memo.stats();
        assert_eq!((stats.invalidations, stats.entries), (1, 1));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let memo = Memo::new(0);
        assert_eq!(memo.insert((1, 1), 1.0), 1.0);
        assert!(memo.get((1, 1)).is_none());
        assert_eq!(memo.stats().entries, 0);
    }

    #[test]
    fn clear_preserves_counters() {
        let memo = Memo::new(4096);
        memo.insert((1, 1), 1.0);
        let _ = memo.get((1, 1));
        memo.clear();
        assert_eq!(stats_of(&memo), (1, 0, 0));
        assert!(memo.get((1, 1)).is_none());
    }

    #[test]
    fn clear_empties_every_shard() {
        let memo = Memo::new(4096);
        for i in 0..64u64 {
            memo.insert((i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)), i as f64);
        }
        assert_eq!(memo.stats().entries, 64);
        memo.clear();
        assert_eq!(memo.stats().entries, 0);
        assert!(memo.shards.iter().all(|s| s.lock().ring.is_empty()));
    }

    /// The ring never holds more keys than the shard capacity, under hits,
    /// invalidations and evictions alike, and every entry's slot holds its
    /// own key.
    #[test]
    fn recency_queue_stays_bounded_under_hits() {
        let memo = Memo::new(32); // four entries per shard
        let keys = same_shard_keys(12);
        let check = |step: &str| {
            let shard = memo.shard(keys[0]).lock();
            assert!(shard.ring.len() <= memo.shard_capacity, "{step}");
            for (key, entry) in &shard.map {
                assert_eq!(shard.ring[entry.slot], *key, "{step}");
            }
        };
        for _round in 0..3 {
            for (i, &key) in keys.iter().enumerate() {
                memo.insert(key, i as f64);
                check("insert");
                for &hot in &keys[..2] {
                    let _ = memo.get(hot);
                    check("hit");
                }
                if i % 3 == 0 {
                    assert!(memo.invalidate(key));
                    check("invalidate");
                }
            }
            // Free what this round left, so the next one refills freed slots.
            for &key in &keys {
                memo.invalidate(key);
                check("invalidate the rest");
            }
        }
        let stats = memo.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.invalidations > 0, "{stats:?}");
    }

    #[test]
    fn concurrent_get_or_compute_is_consistent() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let memo = Memo::new(4096);
        let computed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..100u64 {
                        let v: Result<f64, ()> = memo.get_or_try_compute((i, i ^ 0xABCD), || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            Ok(i as f64 * 3.0)
                        });
                        assert_eq!(v, Ok(i as f64 * 3.0));
                    }
                });
            }
        });
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.insertions), (100, 100));
        // Racing threads may compute a key more than once, but every value
        // observed above was the canonical one.
        assert!(computed.load(Ordering::Relaxed) >= 100);
    }
}
