//! Property tests: the dense `SelectionBitmap` against a sorted-`Vec<RecordId>`
//! reference model. The generated id sets are biased towards the shapes that
//! stress word and chunk edges — empty and full chunks, run-heavy spans, the
//! ids 0, 4095, 4096 and the last row of the universe, and ids hugging the
//! other 4096-aligned chunk boundaries — and the bitmaps are built over
//! universes of different sizes, so ANDs and equality cross universes.

use std::collections::BTreeSet;

use proptest::prelude::*;

use vizdb::bitmap::{SelectionBitmap, CHUNK_BITS};
use vizdb::types::RecordId;

const ID_SPAN: u32 = 6 * CHUNK_BITS as u32;

/// Assembles an id set from sparse ids, dense runs, chunk-boundary probes and
/// the edge ids picked by `edges` (bit `i` adds `[0, 4095, 4096, last][i]`,
/// `last` being the final row of an `ID_SPAN`-row table).
fn assemble(
    sparse: BTreeSet<RecordId>,
    runs: &[(u32, u32)],
    boundaries: &[(u32, i64)],
    edges: u8,
) -> BTreeSet<RecordId> {
    let mut set = sparse;
    for &(start, len) in runs {
        let end = start.saturating_add(len).min(ID_SPAN);
        set.extend(start..end);
    }
    for &(chunk, delta) in boundaries {
        let id = (chunk as i64 * CHUNK_BITS as i64) + delta;
        if (0..ID_SPAN as i64).contains(&id) {
            set.insert(id as u32);
        }
    }
    for (i, id) in [0, 4095, 4096, ID_SPAN - 1].into_iter().enumerate() {
        if edges & (1 << i) != 0 {
            set.insert(id);
        }
    }
    set
}

fn to_vec(set: &BTreeSet<RecordId>) -> Vec<RecordId> {
    set.iter().copied().collect()
}

/// `ids` inserted one by one into a bitmap over rows `0..universe`.
fn built_over(ids: &[RecordId], universe: usize) -> SelectionBitmap {
    let mut bm = SelectionBitmap::new(universe);
    for &id in ids {
        bm.insert(id);
    }
    bm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Iteration, `len`, `to_vec` and the chunk views against the model.
    #[test]
    fn roundtrip_iter_rank_select_contains(
        sparse in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        boundaries in proptest::collection::vec((1u32..6, -1i64..2), 0..6),
        edges in 0u8..16,
    ) {
        let set = assemble(sparse, &runs, &boundaries, edges);
        let ids = to_vec(&set);
        let bm = SelectionBitmap::from_sorted(&ids);
        prop_assert_eq!(bm.len(), ids.len());
        prop_assert_eq!(bm.is_empty(), ids.is_empty());
        prop_assert_eq!(bm.iter().collect::<Vec<_>>(), ids.clone());
        prop_assert_eq!(bm.to_vec(), ids.clone());
        // The chunk views hold exactly the ids of their chunk.
        for c in 0..bm.chunk_count() {
            let words = bm.chunk(c).copied().unwrap_or([0; CHUNK_BITS / 64]);
            let in_chunk: Vec<RecordId> = ids
                .iter()
                .copied()
                .filter(|&id| id as usize / CHUNK_BITS == c)
                .collect();
            let from_words: Vec<RecordId> = (0..CHUNK_BITS)
                .filter(|&off| words[off / 64] & (1 << (off % 64)) != 0)
                .map(|off| (c * CHUNK_BITS + off) as RecordId)
                .collect();
            prop_assert_eq!(from_words, in_chunk);
        }
        prop_assert!(bm.chunk(bm.chunk_count()).is_none());
    }

    /// Inserts in scrambled order (with duplicates, over any universe) give
    /// the same set as `from_sorted`; so do span inserts of its runs.
    #[test]
    fn builder_matches_from_sorted(
        sparse in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        boundaries in proptest::collection::vec((1u32..6, -1i64..2), 0..6),
        edges in 0u8..16,
        universe in 0usize..(ID_SPAN as usize + 100),
        seed in 0u64..u64::MAX,
    ) {
        let ids = to_vec(&assemble(sparse, &runs, &boundaries, edges));
        let mut scrambled = ids.clone();
        let mut state = seed | 1;
        for i in (1..scrambled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            scrambled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        scrambled.extend(ids.iter().take(5)); // duplicates collapse
        let built = built_over(&scrambled, universe);
        prop_assert_eq!(built.to_vec(), ids.clone());
        prop_assert_eq!(&built, &SelectionBitmap::from_sorted(&ids));
        // Maximal runs of consecutive ids as span inserts.
        let mut spans = SelectionBitmap::new(universe);
        let mut i = 0;
        while i < ids.len() {
            let mut j = i;
            while j + 1 < ids.len() && ids[j + 1] == ids[j] + 1 {
                j += 1;
            }
            spans.insert_span(ids[i], ids[j]);
            i = j + 1;
        }
        prop_assert_eq!(spans, built);
    }

    /// In-place AND against the model's intersection, in both orders and over
    /// different universes; equality is set equality across universes.
    #[test]
    fn and_or_andnot_match_set_semantics(
        sparse_a in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs_a in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        bounds_a in proptest::collection::vec((1u32..6, -1i64..2), 0..6),
        sparse_b in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs_b in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        bounds_b in proptest::collection::vec((1u32..6, -1i64..2), 0..6),
        edges in (0u8..16, 0u8..16),
        universes in (0usize..3 * CHUNK_BITS, 0usize..3 * CHUNK_BITS),
    ) {
        let a = assemble(sparse_a, &runs_a, &bounds_a, edges.0);
        let b = assemble(sparse_b, &runs_b, &bounds_b, edges.1);
        let and: Vec<RecordId> = a.intersection(&b).copied().collect();
        let bma = built_over(&to_vec(&a), universes.0);
        let bmb = built_over(&to_vec(&b), universes.1);
        let mut ab = bma.clone();
        ab.and_with(&bmb);
        let mut ba = bmb.clone();
        ba.and_with(&bma);
        prop_assert_eq!(ab.to_vec(), and.clone());
        prop_assert_eq!(ab.len(), and.len());
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(&ab, &SelectionBitmap::from_sorted(&and));
        // AND is idempotent and a subset of both sides.
        let mut again = ab.clone();
        again.and_with(&bma);
        prop_assert_eq!(&again, &ab);
        prop_assert_eq!(bma == bmb, a == b);
    }

    /// `and_difference(upto, below)` against the model's `self ∩ (upto ∖
    /// below)`, over three universes of different sizes (so each of the
    /// three can be the shortest), and with no `below`; `and_not` against
    /// `self ∖ below`.
    #[test]
    fn and_difference_matches_set_semantics(
        sparse_t in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs_t in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        sparse_u in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs_u in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        sparse_b in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs_b in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        edges in (0u8..16, 0u8..16),
        universes in (0usize..3 * CHUNK_BITS, 0usize..3 * CHUNK_BITS),
        below_universe in 0usize..3 * CHUNK_BITS,
    ) {
        let target = assemble(sparse_t, &runs_t, &[], edges.0);
        let upto = assemble(sparse_u, &runs_u, &[], edges.1);
        let below = assemble(sparse_b, &runs_b, &[], 0);
        let target_bits = built_over(&to_vec(&target), universes.0);
        let upto_bits = built_over(&to_vec(&upto), universes.1);
        let below_bits = built_over(&to_vec(&below), below_universe);
        let kept: BTreeSet<RecordId> = target.intersection(&upto).copied().collect();
        let mut got = target_bits.clone();
        got.and_difference(&upto_bits, None);
        prop_assert_eq!(got.to_vec(), to_vec(&kept));
        let want: Vec<RecordId> = kept.difference(&below).copied().collect();
        let mut got = target_bits.clone();
        got.and_difference(&upto_bits, Some(&below_bits));
        prop_assert_eq!(got.to_vec(), want);
        // `and_not` is the same difference, built anew over `self`'s universe.
        let want: Vec<RecordId> = target.difference(&below).copied().collect();
        prop_assert_eq!(target_bits.and_not(&below_bits).to_vec(), want);
    }

    #[test]
    fn retain_matches_vec_retain(
        sparse in proptest::collection::btree_set(0u32..ID_SPAN, 0..80),
        runs in proptest::collection::vec((0u32..ID_SPAN, 1u32..700), 0..4),
        boundaries in proptest::collection::vec((1u32..6, -1i64..2), 0..6),
        edges in 0u8..16,
        modulus in 2u32..7,
    ) {
        let mut ids = to_vec(&assemble(sparse, &runs, &boundaries, edges));
        let mut bm = SelectionBitmap::from_sorted(&ids);
        ids.retain(|id| id % modulus != 0);
        bm.retain(|id| id % modulus != 0);
        prop_assert_eq!(bm.to_vec(), ids.clone());
        prop_assert_eq!(bm, SelectionBitmap::from_sorted(&ids));
    }

    #[test]
    fn full_prefix_is_dense(n in 0usize..(2 * CHUNK_BITS + 77)) {
        let bm = SelectionBitmap::full(n);
        prop_assert_eq!(bm.len(), n);
        prop_assert_eq!(bm.to_vec(), (0..n as RecordId).collect::<Vec<_>>());
        prop_assert_eq!(bm.chunk_count(), n.div_ceil(CHUNK_BITS));
        prop_assert_eq!(bm.iter().last(), n.checked_sub(1).map(|l| l as RecordId));
    }
}
