//! Posting lists stored as containers of 65,536 rows.
//!
//! A [`PostingList`] splits an ascending record-id list by the ids' high 16
//! bits into *containers*, the layout of Roaring bitmaps (Chambi, Lemire et
//! al., "Better bitmap performance with Roaring bitmaps"). A container covers
//! 65,536 rows — sixteen of the executor's 4,096-row chunks — and is either
//!
//! - an **array**: the sorted `u16` offsets of its ids, 2 bytes per id, when
//!   it holds at most 4,096 ids, or
//! - a **bitmap** of 1,024 words (8 KiB) when it holds more, which is then
//!   under 2 bytes per id.
//!
//! One directory entry per non-empty container records its key, id count and
//! where its payload starts; every vector is sized exactly by
//! [`PostingList::encode`], and the list is read-only after that.
//!
//! The layout is shaped for the executor's chunk loop:
//! [`PostingList::combine_chunk`] merges one chunk's ids into that chunk's 64
//! selection words. From a bitmap container that is one 64-word AND or OR
//! against the chunk's slice; from an array container the chunk's run of
//! offsets is found by two binary searches and scattered.
//! [`PostingList::to_bitmap`] builds a whole [`SelectionBitmap`] the same
//! way, which is how an index scan hands its selection to the executor.

use crate::bitmap::{set_bit, SelectionBitmap, CHUNK_BITS, CHUNK_WORDS};
use crate::types::RecordId;

/// Most ids an array container holds; a fuller container is a bitmap.
const ARRAY_MAX_IDS: usize = 4096;

/// Record-id bits below a container's key: a container covers 65,536 rows.
const CONTAINER_SHIFT: u32 = 16;
/// Words of a bitmap container.
const CONTAINER_WORDS: usize = (1 << CONTAINER_SHIFT) / 64;
/// Record-id bits below a chunk id.
const CHUNK_SHIFT: u32 = CHUNK_BITS.trailing_zeros();
/// Chunk-id bits below a container key.
const CHUNKS_SHIFT: u32 = CONTAINER_SHIFT - CHUNK_SHIFT;

/// One container's directory entry.
#[derive(Debug, Clone, Copy)]
struct Container {
    /// The high 16 bits its ids share.
    key: u16,
    /// Ids in the container (`1..=65,536`).
    len: u32,
    /// Where its payload starts: an index into `offsets` for an array
    /// container, into `words` for a bitmap one.
    start: u32,
}

/// A container's payload.
enum Payload<'a> {
    /// Sorted low 16 bits of each id.
    Array(&'a [u16]),
    /// One bit per row of the container.
    Bitmap(&'a [u64]),
}

/// How [`PostingList::combine_chunk`] merges a list's ids into chunk words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkOp {
    /// Set the bit of every id (a predicate's fill).
    Or,
    /// Keep only the bits of ids (refining a selection).
    And,
}

impl ChunkOp {
    /// Merges one chunk's id bits `ids` into `words`.
    fn merge(self, words: &mut [u64; CHUNK_WORDS], ids: &[u64; CHUNK_WORDS]) {
        let zipped = words.iter_mut().zip(ids);
        match self {
            ChunkOp::Or => zipped.for_each(|(w, m)| *w |= m),
            ChunkOp::And => zipped.for_each(|(w, m)| *w &= m),
        }
    }
}

/// A compressed set of record ids (see module docs).
#[derive(Debug, Clone)]
pub struct PostingList {
    directory: Vec<Container>,
    offsets: Vec<u16>,
    words: Vec<u64>,
    len: usize,
}

impl PostingList {
    /// Encodes a list of record ids. An input that is not strictly ascending
    /// is sorted and deduplicated first, so the list is always a set.
    /// [`InvertedIndex`](super::InvertedIndex) already passes ascending sets;
    /// the copy is for other callers.
    pub fn encode(rids: &[RecordId]) -> Self {
        let sorted: Vec<RecordId>;
        let rids = if rids.windows(2).all(|w| w[0] < w[1]) {
            rids
        } else {
            let mut copy = rids.to_vec();
            copy.sort_unstable();
            copy.dedup();
            sorted = copy;
            &sorted
        };
        let containers = || rids.chunk_by(|a, b| a >> CONTAINER_SHIFT == b >> CONTAINER_SHIFT);
        let (mut entries, mut array_ids, mut bitmaps) = (0, 0, 0);
        for ids in containers() {
            entries += 1;
            if ids.len() > ARRAY_MAX_IDS {
                bitmaps += 1;
            } else {
                array_ids += ids.len();
            }
        }
        let mut list = Self {
            directory: Vec::with_capacity(entries),
            offsets: Vec::with_capacity(array_ids),
            words: Vec::with_capacity(bitmaps * CONTAINER_WORDS),
            len: rids.len(),
        };
        for ids in containers() {
            let key = ids.first().map_or(0, |&rid| rid >> CONTAINER_SHIFT) as u16;
            let start = if ids.len() > ARRAY_MAX_IDS {
                let start = list.words.len();
                list.words.resize(start + CONTAINER_WORDS, 0);
                let bitmap = list.words.get_mut(start..).unwrap_or(&mut []);
                for &rid in ids {
                    let off = (rid & 0xFFFF) as usize;
                    if let Some(w) = bitmap.get_mut(off >> 6) {
                        *w |= 1u64 << (off & 63);
                    }
                }
                start
            } else {
                let start = list.offsets.len();
                list.offsets.extend(ids.iter().map(|&rid| rid as u16));
                start
            };
            list.directory.push(Container {
                key,
                len: ids.len() as u32,
                start: start as u32,
            });
        }
        list
    }

    /// Number of record ids in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the posting list has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the encoded representation in bytes (payloads plus the
    /// container directory).
    pub fn encoded_bytes(&self) -> usize {
        self.directory.len() * std::mem::size_of::<Container>()
            + self.offsets.len() * 2
            + self.words.len() * 8
    }

    /// The payload of `container`.
    fn payload(&self, container: &Container) -> Payload<'_> {
        let start = container.start as usize;
        if container.len as usize > ARRAY_MAX_IDS {
            Payload::Bitmap(
                self.words
                    .get(start..start + CONTAINER_WORDS)
                    .unwrap_or(&[]),
            )
        } else {
            let end = start + container.len as usize;
            Payload::Array(self.offsets.get(start..end).unwrap_or(&[]))
        }
    }

    /// Decodes the full list of record ids (ascending order).
    pub fn decode(&self) -> Vec<RecordId> {
        let mut out = Vec::with_capacity(self.len);
        for container in &self.directory {
            let high = RecordId::from(container.key) << CONTAINER_SHIFT;
            match self.payload(container) {
                Payload::Array(offsets) => {
                    out.extend(offsets.iter().map(|&off| high | RecordId::from(off)));
                }
                Payload::Bitmap(words) => {
                    for (wi, &word) in words.iter().enumerate() {
                        let mut w = word;
                        while w != 0 {
                            out.push(high | (wi as RecordId) << 6 | w.trailing_zeros());
                            w &= w - 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Decodes into a [`SelectionBitmap`] (sized to the largest id) without
    /// materialising an id vector: a bitmap container's chunks are copied
    /// word for word, an array container's offsets scattered.
    pub fn to_bitmap(&self) -> SelectionBitmap {
        let top = self.last_id().map_or(0, |last| last as usize + 1);
        let mut bits = SelectionBitmap::new(top);
        for container in &self.directory {
            let first = usize::from(container.key) << CHUNKS_SHIFT;
            for sub in 0..1 << CHUNKS_SHIFT {
                if let Some(words) = bits.chunk_mut(first + sub as usize) {
                    self.combine_container(container, sub, ChunkOp::Or, words);
                }
            }
        }
        bits
    }

    /// The largest id in the list.
    fn last_id(&self) -> Option<RecordId> {
        let container = self.directory.last()?;
        let high = RecordId::from(container.key) << CONTAINER_SHIFT;
        let low = match self.payload(container) {
            Payload::Array(offsets) => RecordId::from(*offsets.last()?),
            Payload::Bitmap(words) => {
                let wi = words.iter().rposition(|&w| w != 0)?;
                let word = words.get(wi)?;
                (wi as RecordId) << 6 | (63 - word.leading_zeros())
            }
        };
        Some(high | low)
    }

    /// Combines the list's ids in chunk `chunk_id` (rows `chunk_id * 4096 ..
    /// + 4096`) into that chunk's `words` by `op`. A chunk whose container
    /// the list does not have holds no ids: `Or` leaves `words` as they are
    /// and `And` clears them.
    pub(crate) fn combine_chunk(&self, chunk_id: u32, op: ChunkOp, words: &mut [u64; CHUNK_WORDS]) {
        let key = chunk_id >> CHUNKS_SHIFT;
        let found = self
            .directory
            .binary_search_by_key(&key, |c| u32::from(c.key))
            .ok()
            .and_then(|i| self.directory.get(i));
        match found {
            Some(container) => {
                let sub = chunk_id & ((1 << CHUNKS_SHIFT) - 1);
                self.combine_container(container, sub, op, words);
            }
            None if op == ChunkOp::And => *words = [0; CHUNK_WORDS],
            None => {}
        }
    }

    /// [`PostingList::combine_chunk`] for the `sub`-th chunk of `container`.
    fn combine_container(
        &self,
        container: &Container,
        sub: u32,
        op: ChunkOp,
        words: &mut [u64; CHUNK_WORDS],
    ) {
        match self.payload(container) {
            Payload::Bitmap(bitmap) => {
                let lo = sub as usize * CHUNK_WORDS;
                let ids = bitmap
                    .get(lo..lo + CHUNK_WORDS)
                    .and_then(|slice| <&[u64; CHUNK_WORDS]>::try_from(slice).ok())
                    .unwrap_or(&[0; CHUNK_WORDS]);
                op.merge(words, ids);
            }
            Payload::Array(offsets) => {
                let lo = offsets.partition_point(|&off| u32::from(off) >> CHUNK_SHIFT < sub);
                let hi = offsets.partition_point(|&off| u32::from(off) >> CHUNK_SHIFT <= sub);
                let run = offsets.get(lo..hi).unwrap_or(&[]);
                match op {
                    ChunkOp::Or => run.iter().for_each(|&off| set_bit(words, off.into())),
                    ChunkOp::And => {
                        let mut ids = [0u64; CHUNK_WORDS];
                        run.iter().for_each(|&off| set_bit(&mut ids, off.into()));
                        op.merge(words, &ids);
                    }
                }
            }
        }
    }
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
    fn unsorted_or_repeated_ids_encode_as_a_set() {
        let list = PostingList::encode(&[5, 3, 9]);
        assert_eq!(list.decode(), vec![3, 5, 9]);
        assert_eq!(list.to_bitmap().to_vec(), vec![3, 5, 9]);
        let list = PostingList::encode(&[7, 1, 7, 1, 70_000]);
        assert_eq!(list.len(), 3);
        assert_eq!(list.decode(), vec![1, 7, 70_000]);
        assert_eq!(list.to_bitmap().len(), 3);
    }

    #[test]
    fn a_container_becomes_a_bitmap_above_4096_ids() {
        let entry = std::mem::size_of::<Container>();
        // 4,096 ids: the fullest array, 2 bytes per id.
        let array: Vec<RecordId> = (0..ARRAY_MAX_IDS as RecordId).map(|i| i * 16).collect();
        let list = PostingList::encode(&array);
        assert_eq!((list.directory.len(), list.words.len()), (1, 0));
        assert_eq!(list.encoded_bytes(), entry + 2 * ARRAY_MAX_IDS);
        assert_eq!(list.decode(), array);
        // One more id: the same 8 KiB as a bitmap.
        let bitmap: Vec<RecordId> = (0..=ARRAY_MAX_IDS as RecordId).map(|i| i * 15).collect();
        let list = PostingList::encode(&bitmap);
        assert_eq!((list.directory.len(), list.offsets.len()), (1, 0));
        assert_eq!(list.encoded_bytes(), entry + 8 * CONTAINER_WORDS);
        assert_eq!(list.decode(), bitmap);
    }

    #[test]
    fn empty_posting_list() {
        let list = PostingList::encode(&[]);
        assert!(list.is_empty());
        assert_eq!(list.directory.len(), 0);
        assert!(list.decode().is_empty());
        assert!(list.to_bitmap().is_empty());
    }

    #[test]
    fn wide_gaps_round_trip() {
        let rids: Vec<RecordId> = vec![0, 1 << 20, (1 << 24) + 5, u32::MAX - 1, u32::MAX];
        let list = PostingList::encode(&rids);
        assert_eq!(list.directory.len(), 4);
        assert_eq!(list.decode(), rids);
    }

    #[test]
    fn to_bitmap_matches_decode() {
        let rids: Vec<RecordId> = (0..150_000)
            .filter(|x| x % 7 == 0 || (20_000..24_000).contains(x))
            .collect();
        let list = PostingList::encode(&rids);
        let bm = list.to_bitmap();
        assert_eq!(bm.len(), rids.len());
        assert_eq!(bm.to_vec(), rids);
        assert_eq!(bm, crate::bitmap::SelectionBitmap::from_sorted(&rids));
    }

    #[test]
    fn run_spans_chunks_and_containers() {
        // A consecutive run crossing chunk boundaries and the first container
        // boundary (row 65,536), ending in a bitmap container.
        let rids: Vec<RecordId> = (60_000..72_000).collect();
        let list = PostingList::encode(&rids);
        assert_eq!(list.directory.len(), 2);
        assert_eq!(list.to_bitmap().to_vec(), rids);
    }

    #[test]
    fn combine_chunk_skips_chunks_without_ids() {
        // 128 ids in chunk 0 and 100 in chunk 3 (one array container), and a
        // bitmap container at rows 131,072..: chunks 1, 2, 9 and the whole
        // middle container (chunks 16..32) hold no ids.
        let rids: Vec<RecordId> = (0..128)
            .chain(12_300..12_400)
            .chain(131_072..140_000)
            .collect();
        let list = PostingList::encode(&rids);
        for chunk in [1u32, 2, 9, 16, 31, 35, 1 << 20] {
            let mut words = [!0u64; CHUNK_WORDS];
            list.combine_chunk(chunk, ChunkOp::Or, &mut words);
            assert_eq!(words, [!0u64; CHUNK_WORDS]);
            list.combine_chunk(chunk, ChunkOp::And, &mut words);
            assert_eq!(words, [0u64; CHUNK_WORDS]);
        }
        for (chunk, ids) in [(3u32, 100u32), (32, 4096), (34, 140_000 - 139_264)] {
            let mut words = [0u64; CHUNK_WORDS];
            list.combine_chunk(chunk, ChunkOp::Or, &mut words);
            let set: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(set, ids, "chunk {chunk}");
        }
    }

    mod proptests {
        use super::*;
        use crate::storage::TextColumn;
        use proptest::prelude::*;

        const TOKEN: u32 = 7;

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

        /// The sorted in-container offsets of one container of kind `kind`:
        /// empty, exactly 4,096 ids (the fullest array), exactly 4,097 (the
        /// sparsest bitmap), `sparse` ids, or 30,000. Offsets step by an odd
        /// stride modulo 65,536, so they are distinct.
        fn container_offsets(kind: u8, start: u32, stride: u32, sparse: u32) -> Vec<u32> {
            let n = match kind {
                0 => 0,
                1 => ARRAY_MAX_IDS as u32,
                2 => ARRAY_MAX_IDS as u32 + 1,
                3 => sparse,
                _ => 30_000,
            };
            let stride = stride | 1;
            let mut offsets: Vec<u32> = (0..n)
                .map(|i| start.wrapping_add(i.wrapping_mul(stride)) & 0xFFFF)
                .collect();
            offsets.sort_unstable();
            offsets
        }

        /// The chunk's words with every id of `list` in it combined by `op`
        /// into `pre`.
        fn combined(
            list: &PostingList,
            chunk: u32,
            op: ChunkOp,
            pre: [u64; CHUNK_WORDS],
        ) -> [u64; CHUNK_WORDS] {
            let mut words = pre;
            list.combine_chunk(chunk, op, &mut words);
            words
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Lists over three or more containers — the first of the drawn
            /// kinds, then an empty container, then the rest — whose last
            /// container ends in a partial chunk of the row space. On every
            /// chunk up to one past the last (chunks without ids included),
            /// `decode`, `to_bitmap`, `combine_chunk` with both ops and a
            /// per-row `doc_contains` over documents holding the same ids
            /// agree. The same ids shifted into the top containers (the last
            /// one keyed 65,535, ids up to `u32::MAX`) decode and combine the
            /// same; their `to_bitmap` would span 2^32 rows, so it is skipped.
            #[test]
            fn combine_chunk_matches_decode_and_doc_contains(
                kinds in proptest::collection::vec(((0u8..5, 0u32..65_536), (0u32..65_536, 0u32..300)), 2..4),
                tail in 0u32..4096,
                seed in 0u64..u64::MAX,
            ) {
                let containers = kinds.len() as u32 + 1;
                let rows = (containers << CONTAINER_SHIFT) - tail;
                let mut rids = Vec::new();
                for (key, &((kind, start), (stride, sparse))) in kinds.iter().enumerate() {
                    // Container 1 stays empty.
                    let key = if key == 0 { 0 } else { key as u32 + 1 };
                    let offsets = container_offsets(kind, start, stride, sparse);
                    rids.extend(offsets.iter().map(|off| key << CONTAINER_SHIFT | off));
                }
                rids.retain(|&rid| rid < rows);
                if rids.last() != Some(&(rows - 1)) {
                    rids.push(rows - 1);
                }
                let list = PostingList::encode(&rids);
                prop_assert_eq!(list.decode(), rids.clone());
                let shift = (1u32 << CONTAINER_SHIFT) - containers;
                let top_ids: Vec<RecordId> = rids.iter().map(|&rid| shift << CONTAINER_SHIFT | rid).collect();
                let top = PostingList::encode(&top_ids);
                prop_assert_eq!(top.decode(), top_ids);
                prop_assert_eq!(top.directory.last().map(|c| c.key), Some(u16::MAX));

                let mut docs = TextColumn::new();
                let mut cursor = rids.iter().peekable();
                for row in 0..rows {
                    let hit = cursor.next_if_eq(&&row).is_some();
                    docs.push_doc(if hit { &[TOKEN] } else { &[1] });
                }
                let bitmap = list.to_bitmap();
                let pre = pattern(seed);
                let chunks = rows.div_ceil(CHUNK_BITS as u32) + 1;
                let top_chunk = shift << CHUNKS_SHIFT;
                for chunk in 0..chunks {
                    let base = chunk << CHUNK_SHIFT;
                    let mut by_docs = [0u64; CHUNK_WORDS];
                    for row in base..(base + CHUNK_BITS as u32).min(rows) {
                        if docs.doc_contains(row as usize, TOKEN) {
                            set_bit(&mut by_docs, (row - base) as usize);
                        }
                    }
                    let mut by_decode = [0u64; CHUNK_WORDS];
                    for &rid in rids.iter().filter(|&&r| r >> CHUNK_SHIFT == chunk) {
                        set_bit(&mut by_decode, (rid - base) as usize);
                    }
                    prop_assert_eq!(by_docs, by_decode);
                    let by_bitmap = bitmap.chunk(chunk as usize).copied().unwrap_or([0; CHUNK_WORDS]);
                    prop_assert_eq!(by_bitmap, by_docs);
                    for op in [ChunkOp::Or, ChunkOp::And] {
                        let expected: [u64; CHUNK_WORDS] = std::array::from_fn(|i| match op {
                            ChunkOp::Or => pre[i] | by_docs[i],
                            ChunkOp::And => pre[i] & by_docs[i],
                        });
                        prop_assert_eq!(combined(&list, chunk, op, pre), expected);
                        prop_assert_eq!(combined(&top, top_chunk + chunk, op, pre), expected);
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
        }
    }
}
