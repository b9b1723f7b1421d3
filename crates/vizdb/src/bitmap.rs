//! Dense selection bitmaps.
//!
//! A [`SelectionBitmap`] is a set of [`RecordId`]s held as one `Vec<u64>`:
//! bit `rid & 63` of word `rid >> 6` is set when row `rid` is selected. The
//! array is padded to whole 4096-row *chunks* ([`CHUNK_BITS`]), so every chunk
//! is a full `[u64; CHUNK_WORDS]` view (record id `rid` lives in chunk
//! `rid >> 12` at offset `rid & 4095`).
//!
//! A selection lives for one query over one table of at most a few hundred
//! thousand rows, and every consumer — index scans, the in-place AND of
//! several scans, the chunk kernels refining candidates, the sink binning and
//! gathering rows — reads or writes whole words. So the bits stay in the one
//! layout from index scan to sink: nothing is compressed, canonicalised or
//! decoded on the way. `PartialEq` is set equality: two bitmaps over different
//! universes (word-array lengths) are equal when they select the same ids.

use crate::types::RecordId;

/// Bits per chunk.
pub const CHUNK_BITS: usize = 4096;
/// `u64` words per chunk.
pub const CHUNK_WORDS: usize = CHUNK_BITS / 64;

/// Sets one in-chunk offset in a 64-word chunk buffer.
pub(crate) fn set_bit(words: &mut [u64; CHUNK_WORDS], off: usize) {
    let off = off & (CHUNK_BITS - 1);
    words[off >> 6] |= 1u64 << (off & 63);
}

/// Sets bits `lo..=hi` of `words` with word-wide fills (nothing when
/// `lo > hi`). Both bounds must lie inside `words`.
fn fill_span(words: &mut [u64], lo: usize, hi: usize) {
    if lo > hi {
        return;
    }
    let (lw, hw) = (lo >> 6, hi >> 6);
    let lo_mask = !0u64 << (lo & 63);
    let hi_mask = !0u64 >> (63 - (hi & 63));
    if lw == hw {
        words[lw] |= lo_mask & hi_mask;
    } else {
        words[lw] |= lo_mask;
        for w in words.iter_mut().take(hw).skip(lw + 1) {
            *w = !0;
        }
        words[hw] |= hi_mask;
    }
}

/// Sets in-chunk offsets `lo..=hi` in `words` with word-wide fills.
pub(crate) fn set_span(words: &mut [u64; CHUNK_WORDS], lo: usize, hi: usize) {
    fill_span(words, lo & (CHUNK_BITS - 1), hi & (CHUNK_BITS - 1));
}

/// A set of record ids as one dense, chunk-padded word array: the selection
/// representation index scans, candidate intersection, residual filtering and
/// output shaping share. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct SelectionBitmap {
    /// One bit per row; the length is a multiple of [`CHUNK_WORDS`].
    words: Vec<u64>,
}

impl SelectionBitmap {
    /// The empty set over rows `0..rows` (room for every id below `rows`,
    /// rounded up to whole chunks).
    pub fn new(rows: usize) -> Self {
        Self {
            words: vec![0; rows.div_ceil(CHUNK_BITS) * CHUNK_WORDS],
        }
    }

    /// Builds from a sorted (ascending, possibly duplicated) id slice.
    pub fn from_sorted(ids: &[RecordId]) -> Self {
        let mut bits = Self::new(ids.last().map_or(0, |&last| last as usize + 1));
        for &rid in ids {
            bits.insert(rid);
        }
        bits
    }

    /// The set `{0, 1, .., n-1}`.
    pub fn full(n: usize) -> Self {
        let mut bits = Self::new(n);
        if n > 0 {
            fill_span(&mut bits.words, 0, n - 1);
        }
        bits
    }

    /// Number of ids in the set (a popcount over the whole array).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Grows the array (by whole chunks) until word `word` exists.
    #[cold]
    fn grow_to(&mut self, word: usize) {
        self.words.resize((word / CHUNK_WORDS + 1) * CHUNK_WORDS, 0);
    }

    /// Adds one id (duplicates are fine). An id past the universe grows it.
    #[inline]
    pub fn insert(&mut self, rid: RecordId) {
        let word = (rid >> 6) as usize;
        if word >= self.words.len() {
            self.grow_to(word);
        }
        if let Some(w) = self.words.get_mut(word) {
            *w |= 1u64 << (rid & 63);
        }
    }

    /// Adds the inclusive id range `lo..=hi` using word-wide fills.
    pub fn insert_span(&mut self, lo: RecordId, hi: RecordId) {
        if lo > hi {
            return;
        }
        let hi_word = (hi >> 6) as usize;
        if hi_word >= self.words.len() {
            self.grow_to(hi_word);
        }
        fill_span(&mut self.words, lo as usize, hi as usize);
    }

    /// Whether `rid` is in the set.
    #[inline]
    pub fn contains(&self, rid: RecordId) -> bool {
        self.words
            .get((rid >> 6) as usize)
            .is_some_and(|w| w & (1u64 << (rid & 63)) != 0)
    }

    /// Drops one id (nothing when it is absent or past the universe).
    #[inline]
    pub fn remove(&mut self, rid: RecordId) {
        if let Some(w) = self.words.get_mut((rid >> 6) as usize) {
            *w &= !(1u64 << (rid & 63));
        }
    }

    /// The ids in `self` and not in `other`, word by word, over `self`'s
    /// universe.
    pub fn and_not(&self, other: &Self) -> Self {
        // A plain zip over the common words, then a copy of the rest, rather
        // than one zip over `other` padded with zeros, so the loop vectorises.
        let (head, tail) = self.words.split_at(other.words.len().min(self.words.len()));
        let mut words = Vec::with_capacity(self.words.len());
        words.extend(head.iter().zip(&other.words).map(|(w, o)| w & !o));
        words.extend_from_slice(tail);
        Self { words }
    }

    /// Unites `other` into `self`, word by word, growing `self` to `other`'s
    /// universe.
    pub fn or_with(&mut self, other: &Self) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Intersects `other` into `self`, word by word. Ids past the shorter of
    /// the two universes cannot be in both, so the result keeps only it.
    pub fn and_with(&mut self, other: &Self) {
        self.words.truncate(other.words.len());
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Intersects `upto ∖ below` into `self` in one pass: `upto` bounds the
    /// universe as [`Self::and_with`] does, and ids past `below`'s are not in
    /// it.
    pub fn and_difference(&mut self, upto: &Self, below: Option<&Self>) {
        self.words.truncate(upto.words.len());
        let below = below.map_or(&[][..], |b| &b.words[..]);
        // Two plain zips rather than one over `below` padded with zeros, so
        // each loop vectorises.
        // `self` is no longer than `upto` now, so neither split can fail.
        let split = below.len().min(self.words.len());
        let (head, tail) = self.words.split_at_mut(split);
        let (upto_head, upto_tail) = upto.words.split_at(split);
        for ((w, u), b) in head.iter_mut().zip(upto_head).zip(below) {
            *w &= u & !b;
        }
        for (w, u) in tail.iter_mut().zip(upto_tail) {
            *w &= u;
        }
    }

    /// Drops the ids failing `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(RecordId) -> bool) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut w = *word;
            while w != 0 {
                let bit = w.trailing_zeros();
                if !keep(((wi as RecordId) << 6) | bit) {
                    *word &= !(1u64 << bit);
                }
                w &= w - 1;
            }
        }
    }

    /// Number of chunks the array spans (empty ones included).
    pub fn chunk_count(&self) -> usize {
        self.words.len() / CHUNK_WORDS
    }

    /// Chunk `i`'s words, if the array spans it.
    pub fn chunk(&self, i: usize) -> Option<&[u64; CHUNK_WORDS]> {
        self.words.chunks_exact(CHUNK_WORDS).nth(i)?.try_into().ok()
    }

    /// Chunk `i`'s words, mutably, if the array spans it.
    pub fn chunk_mut(&mut self, i: usize) -> Option<&mut [u64; CHUNK_WORDS]> {
        self.words
            .chunks_exact_mut(CHUNK_WORDS)
            .nth(i)?
            .try_into()
            .ok()
    }

    /// Every chunk's words, mutably, in chunk order: the in-place refinement
    /// hook of the chunk kernels.
    pub fn chunks_mut(&mut self) -> impl Iterator<Item = &mut [u64; CHUNK_WORDS]> {
        self.words
            .chunks_exact_mut(CHUNK_WORDS)
            .filter_map(|c| c.try_into().ok())
    }

    /// Ascending iterator over the set ids.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter {
            words: self.words.iter(),
            // Stepped forward by one word before the first word is read.
            base: RecordId::wrapping_sub(0, 64),
            cur: 0,
        }
    }

    /// Materialises the set as a sorted id vector.
    pub fn to_vec(&self) -> Vec<RecordId> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }
}

impl PartialEq for SelectionBitmap {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long.get(..short.len()) == Some(short.as_slice())
            && long.iter().skip(short.len()).all(|&w| w == 0)
    }
}

impl Eq for SelectionBitmap {}

/// Ascending iterator over the set bits of a [`SelectionBitmap`].
pub struct BitmapIter<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Record id of bit 0 of `cur`.
    base: RecordId,
    /// The unvisited bits of the current word.
    cur: u64,
}

impl Iterator for BitmapIter<'_> {
    type Item = RecordId;

    #[inline]
    fn next(&mut self) -> Option<RecordId> {
        while self.cur == 0 {
            self.cur = *self.words.next()?;
            self.base = self.base.wrapping_add(64);
        }
        let bit = self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(bm: &SelectionBitmap) -> Vec<RecordId> {
        bm.to_vec()
    }

    fn contains(bm: &SelectionBitmap, rid: RecordId) -> bool {
        bm.iter().any(|id| id == rid)
    }

    #[test]
    fn from_sorted_roundtrips() {
        let v = vec![0, 1, 2, 4095, 4096, 4097, 9000, 100_000];
        let bm = SelectionBitmap::from_sorted(&v);
        assert_eq!(bm.len(), v.len());
        assert_eq!(ids(&bm), v);
        assert!(!contains(&bm, 3));
        assert!(!contains(&bm, 4098));
        assert_eq!(bm.chunk_count(), 100_000 / CHUNK_BITS + 1);
    }

    #[test]
    fn duplicates_collapse() {
        let bm = SelectionBitmap::from_sorted(&[5, 5, 5, 6]);
        assert_eq!(bm.len(), 2);
        assert_eq!(ids(&bm), vec![5, 6]);
    }

    #[test]
    fn builder_handles_unordered_inserts() {
        // Inserts in any order, past the universe and repeated.
        let mut bm = SelectionBitmap::new(100);
        for rid in [9000u32, 3, 4096, 3, 12_288, 4095] {
            bm.insert(rid);
        }
        assert_eq!(ids(&bm), vec![3, 4095, 4096, 9000, 12_288]);
        assert_eq!(bm.chunk_count(), 4);
    }

    #[test]
    fn insert_span_crosses_chunks() {
        let mut bm = SelectionBitmap::default();
        bm.insert_span(4000, 8200);
        assert_eq!(bm.len(), 4201);
        assert_eq!(ids(&bm), (4000..=8200).collect::<Vec<_>>());
        bm.insert_span(9, 8);
        assert_eq!(bm.len(), 4201);
    }

    #[test]
    fn full_is_dense_prefix() {
        let bm = SelectionBitmap::full(5000);
        assert_eq!(bm.len(), 5000);
        assert_eq!(ids(&bm), (0..5000).collect::<Vec<_>>());
        assert_eq!(bm.chunk_count(), 2);
        assert!(SelectionBitmap::full(0).is_empty());
    }

    #[test]
    fn representation_is_canonical() {
        // Same set built three ways, over three universes, compares equal.
        let v: Vec<u32> = (100..5000).step_by(3).collect();
        let a = SelectionBitmap::from_sorted(&v);
        let mut b = SelectionBitmap::new(1 << 16);
        for &rid in v.iter().rev() {
            b.insert(rid);
        }
        let mut c = SelectionBitmap::full(1 << 20);
        c.and_with(&a);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(c, b);
        b.insert(1 << 15);
        assert_ne!(a, b);
        assert_ne!(b, a);
    }

    #[test]
    fn remove_and_not_and_or_with_work_across_universes() {
        let mut a = SelectionBitmap::from_sorted(&[1, 70, 4096, 9000]);
        a.remove(70);
        a.remove(71);
        a.remove(1 << 20);
        assert_eq!(ids(&a), vec![1, 4096, 9000]);
        let b = SelectionBitmap::from_sorted(&[1, 9000]);
        assert_eq!(ids(&a.and_not(&b)), vec![4096]);
        assert_eq!(ids(&b.and_not(&a)), Vec::<RecordId>::new());
        assert_eq!(a.and_not(&SelectionBitmap::default()), a);
        let mut c = SelectionBitmap::default();
        c.or_with(&b);
        c.or_with(&SelectionBitmap::from_sorted(&[2]));
        assert_eq!(ids(&c), vec![1, 2, 9000]);
    }

    #[test]
    fn and_with_intersects_across_universes() {
        let a: Vec<u32> = (0..10_000).filter(|x| x % 3 == 0).collect();
        let b: Vec<u32> = (0..7_000).filter(|x| x % 5 == 0).collect();
        let expect: Vec<u32> = (0..7_000).filter(|x| x % 15 == 0).collect();
        let mut ab = SelectionBitmap::from_sorted(&a);
        ab.and_with(&SelectionBitmap::from_sorted(&b));
        let mut ba = SelectionBitmap::from_sorted(&b);
        ba.and_with(&SelectionBitmap::from_sorted(&a));
        assert_eq!(ids(&ab), expect);
        assert_eq!(ab, ba);
        ab.and_with(&SelectionBitmap::default());
        assert!(ab.is_empty());
        assert_eq!(ab.chunk_count(), 0);
    }

    #[test]
    fn retain_filters_and_recanonicalises() {
        let mut bm = SelectionBitmap::full(10_000);
        bm.retain(|rid| rid % 7 == 0);
        let expect: Vec<u32> = (0..10_000).filter(|x| x % 7 == 0).collect();
        assert_eq!(ids(&bm), expect);
        assert_eq!(bm, SelectionBitmap::from_sorted(&expect));
    }

    #[test]
    fn chunk_views_write_through() {
        let mut bm = SelectionBitmap::new(3 * CHUNK_BITS);
        if let Some(words) = bm.chunk_mut(1) {
            set_span(words, 0, 9);
        }
        for words in bm.chunks_mut().skip(2) {
            set_bit(words, 4095);
        }
        let expect: Vec<u32> = (4096..4106).chain([3 * 4096 - 1]).collect();
        assert_eq!(ids(&bm), expect);
        assert_eq!(bm.chunk(1).map(|w| w[0]), Some(0x3FF));
        assert!(bm.chunk(3).is_none() && bm.chunk_mut(usize::MAX / 64).is_none());
    }
}
