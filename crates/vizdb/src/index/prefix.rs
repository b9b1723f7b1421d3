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
//!
//! [`PrefixBitmaps::span`] resolves an interval before reading it: the two
//! checkpoints and the ranks left to fix up, whose count
//! ([`Span::fixups`]) is then known exactly. A caller that can answer another
//! way — the executor, probing candidates one by one — compares that cost
//! with its own and reads the span ([`Span::bitmap`], [`Span::and_into`])
//! only when it is cheaper.

use std::ops::Range;

use crate::bitmap::{SelectionBitmap, CHUNK_WORDS};
use crate::types::RecordId;

/// Checkpoints per sequence.
const CHECKPOINTS: usize = 16;

/// Sequences shorter than this keep no checkpoints: walking their entries is
/// already cheap.
const MIN_ENTRIES: usize = 4096;

/// The checkpoints of one id sequence (see the module docs). The sequence
/// itself stays with its owner, which hands it to [`PrefixBitmaps::span`].
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

    /// `m`, the sequence length.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether `ranks` holds at least `⌈m/32⌉` entries — as many as the
    /// single-bit fix-ups at one end can take — so that reading its
    /// [`Self::span`] beats visiting every entry.
    pub(crate) fn covers(&self, ranks: &Range<usize>) -> bool {
        ranks.len() >= self.len.div_ceil(2 * CHECKPOINTS)
    }

    /// Where the ids of ranks `ranks` (clamped to `0..m`) of `ids`, the
    /// sequence in rank order, come from:
    /// the checkpoints nearest the clamped bounds `a..b`, which hold the ranks
    /// `lo..hi` between them, and the ranks between each bound and its
    /// checkpoint, which take single-bit fix-ups.
    pub(crate) fn span<'a>(&'a self, ranks: Range<usize>, ids: &'a [RecordId]) -> Span<'a> {
        let b = ranks.end.min(self.len);
        let a = ranks.start.min(b);
        let (ja, jb) = (self.nearest(a), self.nearest(b));
        let below = ja.checked_sub(1).and_then(|i| self.checkpoints.get(i));
        let upto = jb.checked_sub(1).and_then(|j| self.checkpoints.get(j));
        // The base is the checkpoints' difference, or nothing (as `a..a`)
        // when both bounds round to one checkpoint.
        let (base, held) = match upto {
            Some(upto) if ja < jb => (Some((upto, below)), self.rank(ja)..self.rank(jb)),
            _ => (None, a..a),
        };
        Span {
            ranks: a..b,
            base,
            held,
            ids,
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
/// ranks `held`; `ids` maps a rank to its id. Resolving costs the rank search
/// that found `ranks`; reading it costs one word pass plus
/// [`Span::fixups`] single-bit fix-ups.
pub(crate) struct Span<'a> {
    ranks: Range<usize>,
    base: Option<(&'a SelectionBitmap, Option<&'a SelectionBitmap>)>,
    held: Range<usize>,
    ids: &'a [RecordId],
}

impl Span<'_> {
    /// How many ids the span holds.
    pub(crate) fn matches(&self) -> usize {
        self.ranks.len()
    }

    /// How many single-bit fix-ups reading the span makes: the ranks the
    /// base holds outside `ranks` plus the ranks of `ranks` it does not hold.
    pub(crate) fn fixups(&self) -> usize {
        let (Range { start: a, end: b }, Range { start: lo, end: hi }) =
            (self.ranks.clone(), self.held.clone());
        (lo..a.min(hi)).len() + (b.max(lo)..hi).len() + (a..lo.min(b)).len() + (hi.max(a)..b).len()
    }

    /// The span's ids as a bitmap: the base, then the fix-ups.
    pub(crate) fn bitmap(&self) -> SelectionBitmap {
        let mut bits = match self.base {
            Some((upto, below)) => below.map_or_else(|| upto.clone(), |below| upto.and_not(below)),
            None => SelectionBitmap::default(),
        };
        // Ranks are distinct ids, so the clears (base ranks outside `a..b`)
        // and the sets (ranks of `a..b` outside the base) never meet.
        self.clears().for_each(|rid| bits.remove(rid));
        self.sets().for_each(|rid| bits.insert(rid));
        bits
    }

    /// Intersects `target` in place with the span's ids: [`Span::bitmap`]
    /// without building it. The ids the fix-ups set keep their bit only if
    /// `target` had it, so they are read before the base's words are ANDed
    /// in.
    pub(crate) fn and_into(&self, target: &mut SelectionBitmap) {
        let kept: Vec<RecordId> = self.sets().filter(|&rid| target.contains(rid)).collect();
        match self.base {
            Some((upto, below)) => target.and_difference(upto, below),
            None => *target = SelectionBitmap::default(),
        }
        self.clears().for_each(|rid| target.remove(rid));
        kept.into_iter().for_each(|rid| target.insert(rid));
    }

    /// The ids the base holds outside `ranks`.
    fn clears(&self) -> impl Iterator<Item = RecordId> + '_ {
        let (Range { start: a, end: b }, Range { start: lo, end: hi }) =
            (self.ranks.clone(), self.held.clone());
        let ids = self.ids;
        (lo..a.min(hi))
            .chain(b.max(lo)..hi)
            .filter_map(move |r| ids.get(r).copied())
    }

    /// The ids of `ranks` the base does not hold.
    fn sets(&self) -> impl Iterator<Item = RecordId> + '_ {
        let (Range { start: a, end: b }, Range { start: lo, end: hi }) =
            (self.ranks.clone(), self.held.clone());
        let ids = self.ids;
        (a..lo.min(b))
            .chain(hi.max(a)..b)
            .filter_map(move |r| ids.get(r).copied())
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

    /// Rank bounds on, next to and between the checkpoints of an
    /// `m`-entry sequence, inverted and past-the-end ones included.
    fn bounds(m: usize) -> Vec<usize> {
        let step = m.div_ceil(CHECKPOINTS);
        let mut bounds: Vec<usize> = (0..=CHECKPOINTS)
            .flat_map(|j| {
                let at = j * step;
                [
                    at.saturating_sub(2),
                    at.saturating_sub(1),
                    at,
                    at + 1,
                    at + 2,
                ]
            })
            .chain([step / 2, step / 2 + 1, step + step / 2, m - 1, m, m + 9])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        bounds
    }

    /// Every rank interval whose bounds fall on, next to or between
    /// checkpoints — inverted and past-the-end ones included — yields exactly
    /// the ids of its ranks.
    #[test]
    fn every_interval_matches_its_ranks() {
        let m = 5_003; // not a multiple of 16: the last checkpoint is short
        let ids = scrambled(m);
        let prefixes = PrefixBitmaps::build(ids.iter().copied(), m).unwrap();
        for &a in &bounds(m) {
            for &b in &bounds(m) {
                let span = prefixes.span(a..b, &ids);
                let mut want: Vec<RecordId> = ids
                    .get(a.min(m)..b.clamp(a.min(m), m))
                    .unwrap_or_default()
                    .to_vec();
                want.sort_unstable();
                assert_eq!(span.bitmap().to_vec(), want, "ranks {a}..{b}");
                assert_eq!(span.matches(), want.len(), "ranks {a}..{b}");
                // In place, over every id and over every third one.
                for step in [1, 3] {
                    let mut target = SelectionBitmap::from_sorted(
                        &(0..m as RecordId).step_by(step).collect::<Vec<_>>(),
                    );
                    span.and_into(&mut target);
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

    /// [`Span::fixups`] is the number of single-bit flips
    /// [`Span::and_into`] makes: into every id, the AND leaves the base, and
    /// each fix-up flips one bit of it, so the count is the number of ids in
    /// exactly one of the base and the span's ranks. Bounds at checkpoint
    /// ranks ± {0, 1, 2}, inverted and past the end.
    #[test]
    fn fixups_count_the_flips_and_into_makes() {
        let m = 5_003;
        let ids = scrambled(m);
        let prefixes = PrefixBitmaps::build(ids.iter().copied(), m).unwrap();
        let every_id = || SelectionBitmap::from_sorted(&(0..m as RecordId).collect::<Vec<_>>());
        let mut seen_zero = false;
        for &a in &bounds(m) {
            for &b in &bounds(m) {
                let span = prefixes.span(a..b, &ids);
                let mut base = every_id();
                match span.base {
                    Some((upto, below)) => base.and_difference(upto, below),
                    None => base = SelectionBitmap::default(),
                }
                let mut result = every_id();
                span.and_into(&mut result);
                let mut both = base.clone();
                both.and_with(&result);
                let flipped = base.len() + result.len() - 2 * both.len();
                assert_eq!(span.fixups(), flipped, "ranks {a}..{b}");
                // At most `⌈m/32⌉` ranks separate a bound from its checkpoint.
                assert!(
                    span.fixups() <= 2 * m.div_ceil(2 * CHECKPOINTS),
                    "ranks {a}..{b}"
                );
                seen_zero |= span.fixups() == 0 && span.matches() > 0;
            }
        }
        assert!(seen_zero, "no interval fell on its checkpoints");
    }
}
