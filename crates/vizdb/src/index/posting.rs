//! Bit-packed posting-list blocks with skip pointers.
//!
//! A [`PostingList`] stores an ascending record-id list as blocks of up to
//! [`BLOCK_IDS`] ids. Each block keeps a tiny directory entry — `first` /
//! `last` id (the skip pointer), count, and the fixed bit `width` of its
//! packed gap encoding — plus `width * (count - 1)` bits of payload in a
//! shared word arena. Gaps are stored minus one, so a block of *consecutive*
//! ids packs at width 0: no payload at all, just the directory entry. That is
//! the common shape for low-cardinality tokens over clustered rows, and it is
//! also what lets [`PostingList::to_bitmap`] and `combine_chunk` set a whole
//! block's bits with one word-wide span fill, without touching individual
//! ids.
//!
//! The directory makes three operations cheap:
//!
//! - [`PostingList::intersect`] gallops over *blocks*: a block whose
//!   `[first, last]` window cannot overlap the other list's current block is
//!   skipped without decoding a single id (exponential directory search +
//!   binary refine, the classic skip-pointer walk).
//! - [`PostingList::to_bitmap`] decodes straight into a dense
//!   [`SelectionBitmap`], which is how index scans hand selections to the
//!   executor without ever materialising a sorted `Vec<RecordId>`.
//! - [`PostingList::combine_chunk`] does the same for *one* chunk, decoding
//!   only the blocks whose windows overlap it — and none at all when they
//!   hold more ids than the caller's budget. This is how a keyword predicate
//!   is evaluated from its postings inside the executor's chunk loop.

use serde::{Deserialize, Serialize};

use crate::bitmap::{set_bit, set_span, SelectionBitmap, CHUNK_WORDS};
use crate::types::RecordId;

/// Maximum record ids per packed block.
pub const BLOCK_IDS: usize = 128;

/// In-chunk offset mask / shift mirrored from the bitmap layout.
const CHUNK_SHIFT: u32 = 12;
const OFFSET_MASK: u32 = (1 << CHUNK_SHIFT) - 1;

/// One block's directory entry: the min/max skip window plus the packed-gap
/// geometry needed to decode the payload.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct BlockMeta {
    /// Smallest id in the block.
    first: u32,
    /// Largest id in the block (the skip pointer).
    last: u32,
    /// Word index of the block's payload in the shared arena.
    word_offset: u32,
    /// Ids in the block (1..=BLOCK_IDS).
    count: u16,
    /// Bits per stored gap; 0 means the block is one consecutive run.
    width: u8,
}

/// How [`PostingList::combine_chunk`] merges a list's ids into chunk words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkOp {
    /// Set the bit of every id (a predicate's fill).
    Or,
    /// Keep only the bits of ids (refining a selection).
    And,
}

/// A compressed ascending record-id list (see module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PostingList {
    blocks: Vec<BlockMeta>,
    words: Vec<u64>,
    len: usize,
}

impl PostingList {
    /// Encodes an ascending list of record ids.
    ///
    /// # Panics
    /// Panics (in debug builds) if the input is not strictly ascending.
    pub fn encode(rids: &[RecordId]) -> Self {
        debug_assert!(rids.windows(2).all(|w| w[0] < w[1]), "postings must ascend");
        let mut blocks = Vec::with_capacity(rids.len().div_ceil(BLOCK_IDS));
        let mut words: Vec<u64> = Vec::new();
        for block in rids.chunks(BLOCK_IDS) {
            let first = block[0];
            let last = block[block.len() - 1];
            let mut max_gap = 0u32;
            for pair in block.windows(2) {
                max_gap = max_gap.max(pair[1] - pair[0] - 1);
            }
            let width = if max_gap == 0 {
                0u8
            } else {
                (32 - max_gap.leading_zeros()) as u8
            };
            let word_offset = words.len() as u32;
            if width > 0 {
                let total_bits = width as usize * (block.len() - 1);
                words.resize(words.len() + total_bits.div_ceil(64), 0);
                let mut bitpos = 0usize;
                for pair in block.windows(2) {
                    let gap = (pair[1] - pair[0] - 1) as u64;
                    let wi = word_offset as usize + (bitpos >> 6);
                    let shift = bitpos & 63;
                    words[wi] |= gap << shift;
                    if shift + width as usize > 64 {
                        words[wi + 1] |= gap >> (64 - shift);
                    }
                    bitpos += width as usize;
                }
            }
            blocks.push(BlockMeta {
                first,
                last,
                word_offset,
                count: block.len() as u16,
                width,
            });
        }
        Self {
            blocks,
            words,
            len: rids.len(),
        }
    }

    /// Number of record ids in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the posting list has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the encoded representation in bytes (payload words plus the
    /// block directory).
    pub fn encoded_bytes(&self) -> usize {
        self.words.len() * 8 + self.blocks.len() * std::mem::size_of::<BlockMeta>()
    }

    /// Number of packed blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Reads the `idx`-th packed gap of a block (gap-minus-one encoding).
    fn gap(&self, meta: &BlockMeta, idx: usize) -> u32 {
        let width = meta.width as usize;
        let bitpos = idx * width;
        let wi = meta.word_offset as usize + (bitpos >> 6);
        let shift = bitpos & 63;
        let mut v = self.words[wi] >> shift;
        if shift + width > 64 {
            v |= self.words[wi + 1] << (64 - shift);
        }
        (v & ((1u64 << width) - 1)) as u32
    }

    /// Decodes block `bi` into `buf`, returning how many ids were written.
    fn decode_block(&self, bi: usize, buf: &mut [RecordId; BLOCK_IDS]) -> usize {
        let meta = self.blocks[bi];
        let n = meta.count as usize;
        if meta.width == 0 {
            for (i, slot) in buf.iter_mut().enumerate().take(n) {
                *slot = meta.first + i as u32;
            }
        } else {
            let mut acc = meta.first;
            buf[0] = acc;
            for (i, slot) in buf.iter_mut().enumerate().take(n).skip(1) {
                acc = acc + self.gap(&meta, i - 1) + 1;
                *slot = acc;
            }
        }
        n
    }

    /// Decodes the full list of record ids (ascending order).
    pub fn decode(&self) -> Vec<RecordId> {
        let mut out = Vec::with_capacity(self.len);
        let mut buf = [0u32; BLOCK_IDS];
        for bi in 0..self.blocks.len() {
            let n = self.decode_block(bi, &mut buf);
            out.extend_from_slice(&buf[..n]);
        }
        out
    }

    /// Decodes into a [`SelectionBitmap`] (sized to the largest id) without
    /// materialising an id vector. A width-0 block (one consecutive run) is a
    /// single word-wide span fill.
    pub fn to_bitmap(&self) -> SelectionBitmap {
        let top = self.blocks.last().map_or(0, |b| b.last as usize + 1);
        let mut bits = SelectionBitmap::new(top);
        let mut buf = [0u32; BLOCK_IDS];
        for (bi, meta) in self.blocks.iter().enumerate() {
            if meta.width == 0 {
                bits.insert_span(meta.first, meta.last);
            } else {
                let n = self.decode_block(bi, &mut buf);
                for &rid in buf.iter().take(n) {
                    bits.insert(rid);
                }
            }
        }
        bits
    }

    /// Combines the list's ids in chunk `chunk_id` (rows `chunk_id * 4096 ..
    /// + 4096`) into that chunk's `words` by `op`, decoding only the blocks
    /// that overlap the chunk. Those are found by a `partition_point` over the
    /// skip directory and their counts summed; when the sum exceeds `budget`
    /// nothing is decoded, `words` is left untouched and the result is
    /// `false` — the caller evaluates the chunk another way. Width-0 blocks
    /// fill word-wide by [`set_span`].
    pub(crate) fn combine_chunk(
        &self,
        chunk_id: u32,
        budget: usize,
        op: ChunkOp,
        words: &mut [u64; CHUNK_WORDS],
    ) -> bool {
        let base = chunk_id << CHUNK_SHIFT;
        let top = base | OFFSET_MASK;
        let first = self.blocks.partition_point(|b| b.last < base);
        let rest = self.blocks.get(first..).unwrap_or(&[]);
        let overlapping = rest
            .get(..rest.partition_point(|b| b.first <= top))
            .unwrap_or(&[]);
        let ids: usize = overlapping.iter().map(|b| b.count as usize).sum();
        if ids > budget {
            return false;
        }
        match op {
            ChunkOp::Or => self.set_chunk_bits(overlapping, base, words),
            ChunkOp::And => {
                let mut mask = [0u64; CHUNK_WORDS];
                self.set_chunk_bits(overlapping, base, &mut mask);
                for (w, m) in words.iter_mut().zip(&mask) {
                    *w &= m;
                }
            }
        }
        true
    }

    /// Sets in `words` the bit of every id of `blocks` in the chunk starting
    /// at row `base` (ids outside it are skipped: only the first and last
    /// overlapping blocks can hold any).
    fn set_chunk_bits(&self, blocks: &[BlockMeta], base: u32, words: &mut [u64; CHUNK_WORDS]) {
        let top = base | OFFSET_MASK;
        for meta in blocks {
            if meta.width == 0 {
                set_span(
                    words,
                    (meta.first.max(base) - base) as usize,
                    (meta.last.min(top) - base) as usize,
                );
                continue;
            }
            let width = meta.width as usize;
            let mask = (1u64 << width) - 1;
            let payload = self.words.get(meta.word_offset as usize..).unwrap_or(&[]);
            let word = |i: usize| payload.get(i).copied().unwrap_or(0);
            let mut rid = meta.first;
            let mut bitpos = 0usize;
            for _ in 0..meta.count {
                if rid > top {
                    break;
                }
                if rid >= base {
                    set_bit(words, (rid - base) as usize);
                }
                // Step to the next id (past the last one the read is unused).
                let (wi, shift) = (bitpos >> 6, bitpos & 63);
                let mut gap = word(wi) >> shift;
                if shift + width > 64 {
                    gap |= word(wi + 1) << (64 - shift);
                }
                rid = rid.wrapping_add((gap & mask) as u32 + 1);
                bitpos += width;
            }
        }
    }

    /// Intersects two posting lists with the skip-block gallop: blocks whose
    /// `[first, last]` windows cannot overlap are skipped via the directory
    /// (doubling search + binary refine) without decoding any ids; only
    /// overlapping block pairs are decoded and merge-intersected.
    pub fn intersect(&self, other: &PostingList) -> Vec<RecordId> {
        let mut out = Vec::with_capacity(self.len.min(other.len));
        let (mut i, mut j) = (0usize, 0usize);
        let mut abuf = [0u32; BLOCK_IDS];
        let mut bbuf = [0u32; BLOCK_IDS];
        while i < self.blocks.len() && j < other.blocks.len() {
            let ab = self.blocks[i];
            let bb = other.blocks[j];
            if ab.last < bb.first {
                i = skip_blocks(&self.blocks, i + 1, bb.first);
                continue;
            }
            if bb.last < ab.first {
                j = skip_blocks(&other.blocks, j + 1, ab.first);
                continue;
            }
            // Overlapping windows: decode both and merge.
            let an = self.decode_block(i, &mut abuf);
            let bn = other.decode_block(j, &mut bbuf);
            let (mut x, mut y) = (0usize, 0usize);
            while x < an && y < bn {
                match abuf[x].cmp(&bbuf[y]) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        out.push(abuf[x]);
                        x += 1;
                        y += 1;
                    }
                }
            }
            if ab.last <= bb.last {
                i += 1;
            }
            if bb.last <= ab.last {
                j += 1;
            }
        }
        out
    }
}

/// First block index `>= from` whose `last >= target`: exponential search over
/// the directory followed by a binary refine of the overshoot window.
fn skip_blocks(blocks: &[BlockMeta], from: usize, target: u32) -> usize {
    if from >= blocks.len() || blocks[from].last >= target {
        return from;
    }
    let mut step = 1usize;
    let mut lo = from;
    loop {
        let next = match lo.checked_add(step) {
            Some(n) if n < blocks.len() => n,
            _ => break,
        };
        if blocks[next].last >= target {
            break;
        }
        lo = next;
        step <<= 1;
    }
    let hi = lo.saturating_add(step).min(blocks.len());
    lo + blocks[lo..hi].partition_point(|b| b.last < target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posting_round_trip() {
        let rids: Vec<RecordId> = vec![0, 3, 4, 100, 10_000, 10_001];
        let list = PostingList::encode(&rids);
        assert_eq!(list.len(), 6);
        assert_eq!(list.decode(), rids);
    }

    #[test]
    fn consecutive_ids_pack_at_width_zero() {
        let rids: Vec<RecordId> = (1000..2000).collect();
        let list = PostingList::encode(&rids);
        assert_eq!(list.decode(), rids);
        // Eight directory entries, zero payload words.
        assert_eq!(list.block_count(), 8);
        assert_eq!(list.words.len(), 0);
        assert!(list.encoded_bytes() < 1100, "got {}", list.encoded_bytes());
    }

    #[test]
    fn empty_posting_list() {
        let list = PostingList::encode(&[]);
        assert!(list.is_empty());
        assert!(list.decode().is_empty());
        assert!(list.to_bitmap().is_empty());
    }

    #[test]
    fn wide_gaps_round_trip() {
        let rids: Vec<RecordId> = vec![0, 1 << 20, (1 << 24) + 5, u32::MAX - 1];
        let list = PostingList::encode(&rids);
        assert_eq!(list.decode(), rids);
    }

    #[test]
    fn to_bitmap_matches_decode() {
        let rids: Vec<RecordId> = (0..50_000)
            .filter(|x| x % 7 == 0 || (20_000..24_000).contains(x))
            .collect();
        let list = PostingList::encode(&rids);
        let bm = list.to_bitmap();
        assert_eq!(bm.len(), rids.len());
        assert_eq!(bm.to_vec(), rids);
        assert_eq!(bm, crate::bitmap::SelectionBitmap::from_sorted(&rids));
    }

    #[test]
    fn width_zero_run_spans_chunks() {
        // A consecutive run crossing a 4096 boundary inside one block.
        let rids: Vec<RecordId> = (4090..4110).collect();
        let list = PostingList::encode(&rids);
        assert_eq!(list.words.len(), 0);
        assert_eq!(list.to_bitmap().to_vec(), rids);
    }

    #[test]
    fn intersect_skips_disjoint_blocks() {
        let a: Vec<RecordId> = (0..100_000).filter(|x| x % 997 == 0).collect();
        let b: Vec<RecordId> = (0..100_000).collect();
        let pa = PostingList::encode(&a);
        let pb = PostingList::encode(&b);
        assert_eq!(pa.intersect(&pb), a);
        assert_eq!(pb.intersect(&pa), a);
        // Fully disjoint windows produce nothing.
        let lo = PostingList::encode(&(0..500).collect::<Vec<_>>());
        let hi = PostingList::encode(&(1_000_000..1_000_500).collect::<Vec<_>>());
        assert!(lo.intersect(&hi).is_empty());
    }

    #[test]
    fn combine_chunk_skips_chunks_without_ids() {
        // One full block in chunk 0, one of 100 ids in chunk 3: the windows
        // of chunks 1, 2 and 9 overlap no block.
        let rids: Vec<RecordId> = (0..128).chain(12_300..12_400).collect();
        let list = PostingList::encode(&rids);
        for chunk in [1u32, 2, 9] {
            let mut words = [!0u64; CHUNK_WORDS];
            assert!(list.combine_chunk(chunk, 0, ChunkOp::Or, &mut words));
            assert_eq!(words, [!0u64; CHUNK_WORDS]);
            assert!(list.combine_chunk(chunk, 0, ChunkOp::And, &mut words));
            assert_eq!(words, [0u64; CHUNK_WORDS]);
        }
        let mut words = [0u64; CHUNK_WORDS];
        assert!(!list.combine_chunk(3, 99, ChunkOp::Or, &mut words));
        assert_eq!(words, [0u64; CHUNK_WORDS]);
        assert!(list.combine_chunk(3, 100, ChunkOp::Or, &mut words));
        let set: u32 = words.iter().map(|w| w.count_ones()).sum();
        assert_eq!(set, 100);
    }

    mod proptests {
        use super::*;
        use crate::storage::TextColumn;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// Chunks the generated lists can reach, plus one past them.
        const CHUNKS: u32 = 6;

        /// A reproducible 64-word pattern to combine into.
        fn pattern(seed: u64) -> [u64; CHUNK_WORDS] {
            let mut state = seed | 1;
            std::array::from_fn(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
        }

        proptest! {
            /// `combine_chunk` against `decode()` and against a per-row
            /// `doc_contains` over documents holding the same ids, for both
            /// ops, over every chunk — including chunks the list skips — with
            /// a run that crosses a chunk boundary (width-0 blocks straddling
            /// it) and budgets just under and exactly at the overlapping
            /// blocks' id count.
            #[test]
            fn combine_chunk_matches_decode_and_doc_contains(
                scattered in proptest::collection::btree_set(0u32..20_000, 0..300),
                runs in proptest::collection::vec((0u32..20_000, 1u32..400), 0..4),
                cross in (1u32..5, 1u32..200, 2u32..400),
                seed in 0u64..u64::MAX,
            ) {
                let mut ids: BTreeSet<RecordId> = scattered;
                let (cross_chunk, cross_before, cross_len) = cross;
                let cross_start = cross_chunk * 4096 - cross_before;
                ids.extend(cross_start..cross_start + cross_len);
                for (start, len) in runs {
                    ids.extend(start..start + len);
                }
                let rids: Vec<RecordId> = ids.iter().copied().collect();
                let list = PostingList::encode(&rids);
                prop_assert_eq!(list.decode(), rids.clone());

                const TOKEN: u32 = 7;
                let mut docs = TextColumn::new();
                for row in 0..CHUNKS * 4096 {
                    docs.push_doc(if ids.contains(&row) { &[TOKEN] } else { &[1] });
                }
                let pre = pattern(seed);
                for chunk in 0..CHUNKS {
                    let base = chunk * 4096;
                    let mut by_docs = [0u64; CHUNK_WORDS];
                    for off in 0..4096 {
                        if docs.doc_contains((base + off) as usize, TOKEN) {
                            set_bit(&mut by_docs, off as usize);
                        }
                    }
                    let mut by_decode = [0u64; CHUNK_WORDS];
                    for &rid in rids.iter().filter(|&&r| r >> CHUNK_SHIFT == chunk) {
                        set_bit(&mut by_decode, (rid - base) as usize);
                    }
                    prop_assert_eq!(by_docs, by_decode);
                    let overlapping: usize = rids
                        .chunks(BLOCK_IDS)
                        .filter(|b| b[b.len() - 1] >= base && b[0] < base + 4096)
                        .map(|b| b.len())
                        .sum();
                    for op in [ChunkOp::Or, ChunkOp::And] {
                        if overlapping > 0 {
                            let mut words = pre;
                            prop_assert!(!list.combine_chunk(chunk, overlapping - 1, op, &mut words));
                            prop_assert_eq!(words, pre);
                        }
                        let mut words = pre;
                        prop_assert!(list.combine_chunk(chunk, overlapping, op, &mut words));
                        let expected: [u64; CHUNK_WORDS] = std::array::from_fn(|i| match op {
                            ChunkOp::Or => pre[i] | by_decode[i],
                            ChunkOp::And => pre[i] & by_decode[i],
                        });
                        prop_assert_eq!(words, expected);
                    }
                }
            }
        }

        proptest! {
            #[test]
            fn round_trip_any_ascending(ids in proptest::collection::btree_set(0u32..1_000_000, 0..600)) {
                let rids: Vec<RecordId> = ids.into_iter().collect();
                let list = PostingList::encode(&rids);
                prop_assert_eq!(list.decode(), rids.clone());
                prop_assert_eq!(list.to_bitmap().to_vec(), rids);
            }

            #[test]
            fn intersect_matches_set_semantics(
                a in proptest::collection::btree_set(0u32..5_000, 0..400),
                b in proptest::collection::btree_set(0u32..5_000, 0..400),
            ) {
                let va: Vec<RecordId> = a.iter().copied().collect();
                let vb: Vec<RecordId> = b.iter().copied().collect();
                let expected: Vec<RecordId> =
                    a.intersection(&b).copied().collect::<BTreeSet<_>>().into_iter().collect();
                let pa = PostingList::encode(&va);
                let pb = PostingList::encode(&vb);
                prop_assert_eq!(pa.intersect(&pb), expected.clone());
                prop_assert_eq!(pb.intersect(&pa), expected);
            }
        }
    }
}
