//! A bulk-loaded B+-tree over `i64` keys.
//!
//! The tree indexes timestamp and integer/float columns (floats are indexed by their
//! order-preserving bit representation at the caller's discretion; `vizdb` stores
//! numeric predicates as `f64` and converts to a sortable `i64` key via
//! [`BPlusTree::float_key`]). Each internal node stores per-child subtree row counts so
//! that *range cardinality* queries run in `O(log n)` without touching the leaves —
//! this is what makes the oracle selectivity collector cheap.
//!
//! The same counts give a key range's *rank* interval in the leaf order, and a
//! tree of at least 4,096 entries keeps [`PrefixBitmaps`] over that order. So
//! [`BPlusTree::range_scan_bitmap`] answers a range holding at least `⌈n/32⌉`
//! entries with a few word passes over the checkpoints instead of a bit set
//! per entry; narrower ranges walk their leaves.

use crate::bitmap::SelectionBitmap;
use crate::index::prefix::{PrefixBitmaps, Span};
use crate::index::{ScanStats, SecondaryIndex};
use crate::types::RecordId;

/// Maximum number of keys per leaf / fanout of internal nodes.
const NODE_CAPACITY: usize = 64;

#[derive(Debug, Clone)]
struct Internal {
    /// Smallest key reachable through each child.
    min_keys: Vec<i64>,
    /// Child node indexes (into `BPlusTree::internals`, or leaf numbers,
    /// depending on `children_are_leaves`).
    children: Vec<usize>,
    /// Number of entries stored below each child.
    counts: Vec<usize>,
    children_are_leaves: bool,
}

/// An immutable, bulk-loaded B+-tree mapping `i64` keys to record ids.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    /// The leaf level, flattened: every key in key order. Leaf `i` is entries
    /// `64·i..64·(i + 1)`, bulk-loaded leaves being full except the last, so
    /// the entry of rank `r` is `keys[r]`, `rids[r]`.
    keys: Vec<i64>,
    /// The record ids, entry for entry with `keys`.
    rids: Vec<RecordId>,
    /// Internal levels, bottom-up: `internals[0]` is the level directly above leaves.
    internals: Vec<Vec<Internal>>,
    /// Checkpoints over the leaf order (`None` under 4,096 entries).
    prefixes: Option<PrefixBitmaps>,
}

impl BPlusTree {
    /// Bulk-loads a tree from `(key, record id)` pairs. Pairs need not be sorted.
    pub fn build(mut entries: Vec<(i64, RecordId)>) -> Self {
        entries.sort_unstable();
        let prefixes = PrefixBitmaps::build(entries.iter().map(|e| e.1), entries.len());
        let (keys, rids): (Vec<i64>, Vec<RecordId>) = entries.into_iter().unzip();

        // Build internal levels bottom-up.
        let mut internals: Vec<Vec<Internal>> = Vec::new();
        if !keys.is_empty() {
            let mut level_entries: Vec<(i64, usize, usize)> = keys
                .chunks(NODE_CAPACITY)
                .enumerate()
                .map(|(i, leaf)| (leaf[0], i, leaf.len()))
                .collect();
            let mut children_are_leaves = true;
            while level_entries.len() > 1 || internals.is_empty() {
                let mut level = Vec::new();
                for chunk in level_entries.chunks(NODE_CAPACITY) {
                    level.push(Internal {
                        min_keys: chunk.iter().map(|e| e.0).collect(),
                        children: chunk.iter().map(|e| e.1).collect(),
                        counts: chunk.iter().map(|e| e.2).collect(),
                        children_are_leaves,
                    });
                }
                level_entries = level
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.min_keys[0], i, n.counts.iter().sum()))
                    .collect();
                internals.push(level);
                children_are_leaves = false;
                if level_entries.len() == 1 {
                    break;
                }
            }
        }

        Self {
            keys,
            rids,
            internals,
            prefixes,
        }
    }

    /// Converts an `f64` to an order-preserving `i64` key.
    ///
    /// Negative values map to negative keys and positive values to non-negative keys by
    /// negating the magnitude bits, so `a <= b` implies `float_key(a) <= float_key(b)`
    /// for all non-NaN inputs (and `-0.0` / `+0.0` both map to `0`).
    pub fn float_key(v: f64) -> i64 {
        let bits = v.to_bits();
        let magnitude = (bits & 0x7FFF_FFFF_FFFF_FFFF) as i64;
        if bits >> 63 == 1 {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Smallest indexed key (0 when empty).
    pub fn min_key(&self) -> i64 {
        self.keys.first().copied().unwrap_or(0)
    }

    /// Number of tree levels including the leaf level.
    pub fn height(&self) -> usize {
        if self.keys.is_empty() {
            0
        } else {
            self.internals.len() + 1
        }
    }

    /// Record ids of all entries with `lo <= key <= hi`, sorted by record id, plus scan
    /// statistics for the cost model.
    pub fn range_scan(&self, lo: i64, hi: i64) -> (Vec<RecordId>, ScanStats) {
        let mut stats = ScanStats::default();
        let mut out = Vec::new();
        if self.keys.is_empty() || lo > hi {
            return (out, stats);
        }
        self.walk(lo, hi, &mut stats, |rids| out.extend_from_slice(rids));
        out.sort_unstable();
        (out, stats)
    }

    /// [`BPlusTree::range_scan`] emitting a [`SelectionBitmap`], with the
    /// same [`ScanStats`]. A range of at least `⌈n/32⌉` entries is read from
    /// the prefix checkpoints over its rank interval; a narrower one walks
    /// its leaves, setting bits as record ids stream out in *key* order
    /// rather than sorting them into id order.
    pub fn range_scan_bitmap(&self, lo: i64, hi: i64) -> (SelectionBitmap, ScanStats) {
        let mut stats = ScanStats::default();
        if self.keys.is_empty() || lo > hi {
            return (SelectionBitmap::default(), stats);
        }
        if let Some(span) = self.checkpoint_span(lo, hi) {
            stats.matches = span.matches();
            return (span.bitmap(), stats);
        }
        // Record ids are row indices below the entry count, so the word array
        // is sized once up front — no growth during the leaf walk.
        let mut bits = SelectionBitmap::new(self.keys.len());
        self.walk(lo, hi, &mut stats, |rids| {
            rids.iter().for_each(|&rid| bits.insert(rid))
        });
        (bits, stats)
    }

    /// The prefix-checkpoint span of keys `[lo, hi]` — what
    /// [`BPlusTree::range_scan_bitmap`] reads a range of at least `⌈n/32⌉`
    /// entries from; `None` when the tree keeps no checkpoints or the range
    /// is narrower, so the scan walks the leaves. Two `O(log n)` descents.
    pub(crate) fn checkpoint_span(&self, lo: i64, hi: i64) -> Option<Span<'_>> {
        let prefixes = self.prefixes.as_ref()?;
        if lo > hi {
            return None;
        }
        let ranks = self.rank_below(lo)..self.rank_le(hi);
        prefixes
            .covers(&ranks)
            .then(|| prefixes.span(ranks, &self.rids))
    }

    /// How many entries the prefix checkpoints are laid over (every entry),
    /// `None` when the tree keeps none.
    pub(crate) fn checkpointed_len(&self) -> Option<usize> {
        self.prefixes.as_ref().map(PrefixBitmaps::len)
    }

    /// Leaf `i`'s keys and record ids.
    fn leaf(&self, i: usize) -> Option<(&[i64], &[RecordId])> {
        let from = i.checked_mul(NODE_CAPACITY)?;
        let to = from.saturating_add(NODE_CAPACITY).min(self.keys.len());
        Some((self.keys.get(from..to)?, self.rids.get(from..to)?))
    }

    /// The leaf walk every scan shares, over keys `[lo, hi]` (`lo <= hi`):
    /// from the leaf [`BPlusTree::find_leaf`] descends to, each leaf's
    /// in-range slice — found by two binary searches, keys being sorted
    /// within a leaf — goes to `emit`, until a leaf starts above `hi`. Counts
    /// every match into `stats`.
    fn walk(&self, lo: i64, hi: i64, stats: &mut ScanStats, mut emit: impl FnMut(&[RecordId])) {
        let leaves = (self.find_leaf(lo)..).map_while(|i| self.leaf(i));
        for (keys, rids) in leaves {
            if keys.first().is_none_or(|&first| first > hi) {
                break;
            }
            let from = keys.partition_point(|&k| k < lo);
            let to = keys.partition_point(|&k| k <= hi);
            let rids = rids.get(from..to).unwrap_or_default();
            stats.matches += rids.len();
            emit(rids);
        }
    }

    /// Exact number of entries with `lo <= key <= hi`, computed without visiting leaves
    /// outside the range boundaries.
    pub fn range_count(&self, lo: i64, hi: i64) -> usize {
        if self.keys.is_empty() || lo > hi {
            return 0;
        }
        self.rank_le(hi) - self.rank_below(lo)
    }

    /// Number of entries with `key < bound`.
    fn rank_below(&self, bound: i64) -> usize {
        bound.checked_sub(1).map_or(0, |prev| self.rank_le(prev))
    }

    /// Number of entries with `key <= bound`.
    ///
    /// Descends into the *last* child whose minimum key is `<= bound`; every earlier
    /// sibling only holds keys `<=` that child's minimum key, so its full count can be
    /// added without visiting it — this stays correct even when duplicate keys span
    /// node boundaries.
    fn rank_le(&self, bound: i64) -> usize {
        if self.internals.is_empty() {
            // No internal level: the tree is empty.
            return 0;
        }
        let mut rank = 0usize;
        let mut level = self.internals.len() - 1;
        let mut node = &self.internals[level][0];
        loop {
            if node.min_keys[0] > bound {
                // Entire subtree is above the bound.
                return rank;
            }
            // Find the child to descend into: last child whose min_key <= bound.
            let mut child_pos = 0usize;
            for (i, &mk) in node.min_keys.iter().enumerate() {
                if mk <= bound {
                    child_pos = i;
                } else {
                    break;
                }
            }
            for c in 0..child_pos {
                rank += node.counts[c];
            }
            let child_idx = node.children[child_pos];
            if node.children_are_leaves {
                let keys = self.leaf(child_idx).map_or(&[][..], |(keys, _)| keys);
                return rank + keys.partition_point(|&k| k <= bound);
            }
            level -= 1;
            node = &self.internals[level][child_idx];
        }
    }

    fn find_leaf(&self, key: i64) -> usize {
        if self.internals.is_empty() {
            return 0;
        }
        let mut level = self.internals.len() - 1;
        let mut node = &self.internals[level][0];
        loop {
            // Descend into the last child whose minimum key is strictly below `key`.
            // Duplicates equal to `key` may start in that child even when a later
            // sibling's minimum equals `key`, so choosing the strictly-below child
            // guarantees the returned leaf is at or before the first occurrence.
            let mut child_pos = 0usize;
            for (i, &mk) in node.min_keys.iter().enumerate() {
                if mk < key {
                    child_pos = i;
                } else {
                    break;
                }
            }
            let child_idx = node.children[child_pos];
            if node.children_are_leaves {
                return child_idx;
            }
            level -= 1;
            node = &self.internals[level][child_idx];
        }
    }
}

impl SecondaryIndex for BPlusTree {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn memory_bytes(&self) -> usize {
        let leaf_bytes = self.keys.len() * 8 + self.rids.len() * 4;
        let internal_bytes: usize = self
            .internals
            .iter()
            .flat_map(|lvl| lvl.iter())
            .map(|n| n.min_keys.len() * 8 + n.children.len() * 8 + n.counts.len() * 8)
            .sum();
        let prefix_bytes = self
            .prefixes
            .as_ref()
            .map_or(0, PrefixBitmaps::memory_bytes);
        leaf_bytes + internal_bytes + prefix_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_of(n: i64) -> BPlusTree {
        // Keys 0, 2, 4, ..., 2(n-1): even keys only, rid = key/2.
        BPlusTree::build((0..n).map(|i| (2 * i, i as RecordId)).collect())
    }

    #[test]
    fn empty_tree() {
        let t = BPlusTree::build(vec![]);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.range_count(0, 100), 0);
        assert!(t.range_scan(0, 100).0.is_empty());
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn single_leaf_range_scan_and_count() {
        let t = tree_of(10);
        let (rids, stats) = t.range_scan(2, 8);
        assert_eq!(rids, vec![1, 2, 3, 4]);
        assert_eq!(stats.matches, 4);
        assert_eq!(t.range_count(2, 8), 4);
    }

    #[test]
    fn multi_level_tree_counts_match_scans() {
        let t = tree_of(10_000);
        assert!(t.height() >= 3, "10k keys should build a multi-level tree");
        for (lo, hi) in [(0, 19_998), (500, 700), (9_999, 10_001), (19_998, 19_998)] {
            let (rids, _) = t.range_scan(lo, hi);
            assert_eq!(
                rids.len(),
                t.range_count(lo, hi),
                "mismatch for range [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn range_excludes_out_of_bounds() {
        let t = tree_of(100);
        assert_eq!(t.range_count(-100, -1), 0);
        assert_eq!(t.range_count(10_000, 20_000), 0);
        assert_eq!(t.range_count(i64::MIN, i64::MAX), 100);
    }

    #[test]
    fn inverted_bounds_yield_empty() {
        let t = tree_of(100);
        assert_eq!(t.range_count(50, 10), 0);
        assert!(t.range_scan(50, 10).0.is_empty());
    }

    #[test]
    fn odd_keys_not_counted() {
        let t = tree_of(100);
        // Only even keys exist, so [1,1] is empty and [1,3] has exactly one (key 2).
        assert_eq!(t.range_count(1, 1), 0);
        assert_eq!(t.range_count(1, 3), 1);
    }

    #[test]
    fn duplicate_keys_supported() {
        let entries: Vec<(i64, RecordId)> = (0..1000).map(|i| ((i % 10) as i64, i)).collect();
        let t = BPlusTree::build(entries);
        assert_eq!(t.range_count(3, 3), 100);
        let (rids, _) = t.range_scan(3, 3);
        assert_eq!(rids.len(), 100);
        assert!(rids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn float_key_preserves_order() {
        let values = [-1000.5, -1.0, -0.0, 0.0, 0.25, 3.7, 1e9];
        let keys: Vec<i64> = values.iter().map(|&v| BPlusTree::float_key(v)).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn min_max_key_reported() {
        let t = tree_of(50);
        assert_eq!(t.min_key(), 0);
    }

    #[test]
    fn memory_bytes_positive_for_nonempty() {
        let t = tree_of(1000);
        assert!(t.memory_bytes() > 1000 * 12 / 2);
    }

    #[test]
    fn bitmap_scan_matches_vector_scan() {
        let t = tree_of(10_000);
        for (lo, hi) in [(0, 19_998), (500, 700), (19_998, 19_998), (50, 10)] {
            let (rids, stats) = t.range_scan(lo, hi);
            let (bm, bm_stats) = t.range_scan_bitmap(lo, hi);
            assert_eq!(bm.to_vec(), rids, "range [{lo}, {hi}]");
            assert_eq!(bm_stats.matches, stats.matches, "range [{lo}, {hi}]");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Float draw `code`: NaN, `−NaN`, `−0.0`, `+∞` or `−∞` for five
        /// residues of 101, else an integer from `levels` values centred on
        /// 0 — few levels put runs of duplicate keys across checkpoints, many
        /// make ranks exact.
        fn value(code: u16, levels: u16) -> f64 {
            match code % 101 {
                0 => f64::NAN,
                1 => -f64::NAN,
                2 => -0.0,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                _ => f64::from(code % levels) - f64::from(levels / 2),
            }
        }

        /// One range bound: `i64::MIN`, `i64::MAX`, the key of NaN or of
        /// `−NaN`, or the key at rank `j·step + delta` of `sorted` moved by
        /// `−1, 0, +1`, so rank bounds fall on, just before and just after
        /// checkpoints.
        fn bound(sorted: &[i64], (sel, j, delta): (u8, usize, isize)) -> i64 {
            let step = sorted.len().div_ceil(16).max(1);
            let rank = (j * step).saturating_add_signed(delta);
            let at = sorted.get(rank.min(sorted.len().saturating_sub(1)));
            match sel % 8 {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => BPlusTree::float_key(f64::NAN),
                3 => BPlusTree::float_key(-f64::NAN),
                s => at.copied().unwrap_or(0).saturating_add(i64::from(s) - 5),
            }
        }

        fn bound_spec() -> impl Strategy<Value = (u8, usize, isize)> {
            (0u8..16, 0usize..17, -2isize..3)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Over 4,300–6,000 float keys (three or more checkpoints, never a
            /// multiple of 16) with NaN, `−NaN`, `±0.0`, `±∞` and duplicates:
            /// the bitmap scan — checkpoints for wide ranges, the leaf walk
            /// for narrow ones — holds exactly `range_scan`'s ids and
            /// `range_count` of them, for ranges bounded at checkpoint ranks,
            /// and whole-table, inverted and NaN-keyed ones.
            #[test]
            fn checkpoint_scans_match_the_leaf_walk(
                codes in proptest::collection::vec(0u16..=u16::MAX, 4300..6000),
                levels in 0usize..3,
                specs in proptest::collection::vec((bound_spec(), bound_spec()), 12..13),
            ) {
                let mut codes = codes;
                if codes.len() % 16 == 0 {
                    codes.pop();
                }
                let levels = [7u16, 40, 65_000][levels];
                let keys: Vec<i64> =
                    codes.iter().map(|&c| BPlusTree::float_key(value(c, levels))).collect();
                let tree = BPlusTree::build(keys.iter().copied().zip(0..).collect());
                prop_assert!(tree.prefixes.is_some());
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                let mut ranges = vec![(i64::MIN, i64::MAX), (i64::MAX, i64::MIN), (1, 0)];
                ranges.extend(specs.iter().map(|&(a, b)| (bound(&sorted, a), bound(&sorted, b))));
                for (lo, hi) in ranges {
                    let (ids, _) = tree.range_scan(lo, hi);
                    let (bits, stats) = tree.range_scan_bitmap(lo, hi);
                    let expected: Vec<RecordId> = (0..)
                        .zip(&keys)
                        .filter(|&(_, &k)| lo <= k && k <= hi)
                        .map(|(rid, _)| rid)
                        .collect();
                    prop_assert_eq!(&ids, &expected);
                    prop_assert_eq!(bits.to_vec(), ids);
                    prop_assert_eq!(bits.len(), tree.range_count(lo, hi));
                    prop_assert_eq!(stats.matches, bits.len());
                }
            }
            #[test]
            fn bitmap_scan_equals_vector_scan(
                keys in proptest::collection::vec(-500i64..500, 0..400),
                lo in -600i64..600,
                span in 0i64..300,
            ) {
                let entries: Vec<(i64, RecordId)> =
                    keys.iter().enumerate().map(|(i, &k)| (k, i as RecordId)).collect();
                let tree = BPlusTree::build(entries);
                let (rids, stats) = tree.range_scan(lo, lo + span);
                let (bm, bm_stats) = tree.range_scan_bitmap(lo, lo + span);
                prop_assert_eq!(bm.to_vec(), rids);
                prop_assert_eq!(bm_stats, stats);
            }

            #[test]
            fn count_equals_bruteforce(
                keys in proptest::collection::vec(-500i64..500, 0..400),
                lo in -600i64..600,
                span in 0i64..300,
            ) {
                let hi = lo + span;
                let entries: Vec<(i64, RecordId)> =
                    keys.iter().enumerate().map(|(i, &k)| (k, i as RecordId)).collect();
                let tree = BPlusTree::build(entries);
                let expected = keys.iter().filter(|&&k| k >= lo && k <= hi).count();
                prop_assert_eq!(tree.range_count(lo, hi), expected);
                let (scan, _) = tree.range_scan(lo, hi);
                prop_assert_eq!(scan.len(), expected);
            }

            #[test]
            fn scan_returns_sorted_unique_rids(
                keys in proptest::collection::vec(0i64..100, 1..300),
            ) {
                let entries: Vec<(i64, RecordId)> =
                    keys.iter().enumerate().map(|(i, &k)| (k, i as RecordId)).collect();
                let tree = BPlusTree::build(entries);
                let (scan, _) = tree.range_scan(0, 100);
                prop_assert!(scan.windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(scan.len(), keys.len());
            }
        }
    }
}
