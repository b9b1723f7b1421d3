//! Checkpointed prefix bitmaps: a range-encoded bitmap index (Chan &
//! Ioannidis, SIGMOD 1998) laid over an order an index already keeps.
//!
//! For a sequence of `m` distinct record ids in key order — the B+-tree's leaf
//! order, or the R-tree's placed points by longitude or by latitude —
//! checkpoint `j` (`1..=CHECKPOINTS`) is the bitmap of the ids of rank
//! `< j·⌈m/16⌉`. The ids of any rank interval `[a, b)` are then
//! `C(b) ∧ ¬C(a)`, read from the checkpoints nearest `a` and `b`, plus at most
//! `⌈m/32⌉` single-bit sets or clears at each end: a few word passes over the
//! row universe instead of one bit set per matching entry. The checkpoints
//! cost `16 / 8 = 2` bytes per row and copy no keys.

use std::ops::Range;

use crate::bitmap::{SelectionBitmap, CHUNK_WORDS};
use crate::types::RecordId;

/// Checkpoints per sequence.
const CHECKPOINTS: usize = 16;

/// Sequences shorter than this keep no checkpoints: walking their entries is
/// already cheap.
const MIN_ENTRIES: usize = 4096;

/// The checkpoints of one id sequence (see the module docs). The sequence
/// itself stays with its owner, which hands [`PrefixBitmaps::range`] an
/// accessor from rank to id.
#[derive(Debug, Clone)]
pub(crate) struct PrefixBitmaps {
    /// Ranks between consecutive checkpoints: `⌈m / CHECKPOINTS⌉`.
    step: usize,
    /// `m`, the sequence length.
    len: usize,
    /// `checkpoints[j - 1]` is checkpoint `j`; checkpoint 0 is empty and not
    /// stored.
    checkpoints: Vec<SelectionBitmap>,
}

impl PrefixBitmaps {
    /// The checkpoints of `ids` (distinct record ids in rank order) as
    /// bitmaps over rows `0..universe`, grown to any larger id; `None` for
    /// fewer than [`MIN_ENTRIES`] ids.
    pub(crate) fn build(
        ids: impl ExactSizeIterator<Item = RecordId>,
        universe: usize,
    ) -> Option<Self> {
        let len = ids.len();
        if len < MIN_ENTRIES {
            return None;
        }
        let step = len.div_ceil(CHECKPOINTS);
        // Each checkpoint first takes only its own block of ranks, then
        // unites its predecessor's prefix in.
        let mut checkpoints = vec![SelectionBitmap::new(universe); CHECKPOINTS];
        for (rank, rid) in ids.enumerate() {
            if let Some(bits) = checkpoints.get_mut(rank / step) {
                bits.insert(rid);
            }
        }
        for j in 1..CHECKPOINTS {
            let (done, rest) = checkpoints.split_at_mut(j);
            if let (Some(prev), Some(bits)) = (done.last(), rest.first_mut()) {
                bits.or_with(prev);
            }
        }
        Some(Self {
            step,
            len,
            checkpoints,
        })
    }

    /// Whether `ranks` holds at least `⌈m/32⌉` entries — as many as the
    /// single-bit fix-ups at one end can take — so that [`Self::range`] beats
    /// visiting every entry.
    pub(crate) fn covers(&self, ranks: &Range<usize>) -> bool {
        ranks.len() >= self.len.div_ceil(2 * CHECKPOINTS)
    }

    /// The ids of ranks `ranks` (clamped to `0..m`), where `id_at(r)` is the
    /// id of rank `r`: the difference of the checkpoints nearest the two
    /// bounds, then single-bit fix-ups for the ranks between each bound and
    /// its checkpoint.
    pub(crate) fn range(
        &self,
        ranks: Range<usize>,
        id_at: impl Fn(usize) -> Option<RecordId>,
    ) -> SelectionBitmap {
        let span = self.span(ranks);
        let mut bits = match span.base {
            Some((upto, below)) => below.map_or_else(|| upto.clone(), |below| upto.and_not(below)),
            None => SelectionBitmap::default(),
        };
        // Ranks are distinct ids, so the clears (base ranks outside `a..b`)
        // and the sets (ranks of `a..b` outside the base) never meet.
        span.clears()
            .filter_map(&id_at)
            .for_each(|rid| bits.remove(rid));
        span.sets()
            .filter_map(&id_at)
            .for_each(|rid| bits.insert(rid));
        bits
    }

    /// Intersects `target` in place with the ids of ranks `ranks`:
    /// [`Self::range`] without building it. The ids of the ranks set by
    /// fix-ups keep their bit only if `target` had it, so they are read
    /// before the checkpoints' words are ANDed in.
    pub(crate) fn and_range(
        &self,
        ranks: Range<usize>,
        id_at: impl Fn(usize) -> Option<RecordId>,
        target: &mut SelectionBitmap,
    ) {
        let span = self.span(ranks);
        let sets = span.sets().filter_map(&id_at);
        let kept: Vec<RecordId> = sets.filter(|&rid| target.contains(rid)).collect();
        match span.base {
            Some((upto, below)) => target.and_difference(upto, below),
            None => *target = SelectionBitmap::default(),
        }
        span.clears()
            .filter_map(&id_at)
            .for_each(|rid| target.remove(rid));
        kept.into_iter().for_each(|rid| target.insert(rid));
    }

    /// Where the ids of ranks `ranks` come from: the checkpoints nearest the
    /// clamped bounds `a..b`, which hold the ranks `lo..hi` between them.
    fn span(&self, ranks: Range<usize>) -> Span<'_> {
        let b = ranks.end.min(self.len);
        let a = ranks.start.min(b);
        let (ja, jb) = (self.nearest(a), self.nearest(b));
        let below = ja.checked_sub(1).and_then(|i| self.checkpoints.get(i));
        let upto = jb.checked_sub(1).and_then(|j| self.checkpoints.get(j));
        // The base is the checkpoints' difference, or nothing (as `a..a`)
        // when both bounds round to one checkpoint.
        match upto {
            Some(upto) if ja < jb => Span {
                ranks: a..b,
                base: Some((upto, below)),
                held: self.rank(ja)..self.rank(jb),
            },
            _ => Span {
                ranks: a..b,
                base: None,
                held: a..a,
            },
        }
    }

    /// The checkpoint nearest rank `r`.
    fn nearest(&self, r: usize) -> usize {
        ((r + self.step / 2) / self.step).min(CHECKPOINTS)
    }

    /// The rank bound of checkpoint `j`: it holds the ranks `0..rank(j)`.
    fn rank(&self, j: usize) -> usize {
        (j * self.step).min(self.len)
    }

    /// Heap bytes of the checkpoints.
    pub(crate) fn memory_bytes(&self) -> usize {
        let words: usize = self.checkpoints.iter().map(|c| c.chunk_count()).sum();
        words * CHUNK_WORDS * 8
    }
}

/// A rank interval `ranks` as [`PrefixBitmaps::span`] resolves it: `base`,
/// checkpoint `upto` minus checkpoint `below` (when not empty), holds the
/// ranks `held`.
struct Span<'a> {
    ranks: Range<usize>,
    base: Option<(&'a SelectionBitmap, Option<&'a SelectionBitmap>)>,
    held: Range<usize>,
}

impl Span<'_> {
    /// The ranks the base holds outside `ranks`.
    fn clears(&self) -> impl Iterator<Item = usize> {
        let (Range { start: a, end: b }, Range { start: lo, end: hi }) =
            (self.ranks.clone(), self.held.clone());
        (lo..a.min(hi)).chain(b.max(lo)..hi)
    }

    /// The ranks of `ranks` the base does not hold.
    fn sets(&self) -> impl Iterator<Item = usize> {
        let (Range { start: a, end: b }, Range { start: lo, end: hi }) =
            (self.ranks.clone(), self.held.clone());
        (a..lo.min(b)).chain(hi.max(a)..b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids `0..m` in a scrambled rank order: rank `r` holds `(r · 7919) mod m`.
    fn scrambled(m: usize) -> Vec<RecordId> {
        (0..m).map(|r| ((r * 7919) % m) as RecordId).collect()
    }

    #[test]
    fn short_sequences_keep_no_checkpoints() {
        assert!(PrefixBitmaps::build(scrambled(MIN_ENTRIES - 1).into_iter(), 0).is_none());
        assert!(PrefixBitmaps::build(scrambled(MIN_ENTRIES).into_iter(), 0).is_some());
    }

    /// Every rank interval whose bounds fall on, next to or between
    /// checkpoints — inverted and past-the-end ones included — yields exactly
    /// the ids of its ranks.
    #[test]
    fn every_interval_matches_its_ranks() {
        let m = 5_003; // not a multiple of 16: the last checkpoint is short
        let ids = scrambled(m);
        let prefixes = PrefixBitmaps::build(ids.iter().copied(), m).unwrap();
        let step = m.div_ceil(CHECKPOINTS);
        let mut bounds: Vec<usize> = (0..=CHECKPOINTS)
            .flat_map(|j| [j * step, j * step + 1, (j * step).saturating_sub(1)])
            .chain([step / 2, step / 2 + 1, step + step / 2, m - 1, m, m + 9])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let id_at = |r: usize| ids.get(r).copied();
        for &a in &bounds {
            for &b in &bounds {
                let got = prefixes.range(a..b, id_at);
                let mut want: Vec<RecordId> = ids
                    .get(a.min(m)..b.clamp(a.min(m), m))
                    .unwrap_or_default()
                    .to_vec();
                want.sort_unstable();
                assert_eq!(got.to_vec(), want, "ranks {a}..{b}");
                // In place, over every id and over every third one.
                for step in [1, 3] {
                    let mut target = SelectionBitmap::from_sorted(
                        &(0..m as RecordId).step_by(step).collect::<Vec<_>>(),
                    );
                    prefixes.and_range(a..b, id_at, &mut target);
                    let kept: Vec<RecordId> = want
                        .iter()
                        .copied()
                        .filter(|&rid| (rid as usize).is_multiple_of(step))
                        .collect();
                    assert_eq!(
                        target.to_vec(),
                        kept,
                        "ranks {a}..{b} into every {step}th id"
                    );
                }
            }
        }
    }
}
