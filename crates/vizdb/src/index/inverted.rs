//! Inverted index over tokenised text columns.
//!
//! Each token's postings are one [`PostingList`]: the rows holding it, stored
//! as containers of 65,536 rows, each a sorted `u16` offset array or a
//! 1,024-word bitmap ([`crate::index::posting`]). Keyword predicates
//! (`Content contains "covid"`) are answered either as a decoded id vector
//! ([`InvertedIndex::lookup`], the interpreter path) or as a
//! [`SelectionBitmap`] filled straight from the containers
//! ([`InvertedIndex::lookup_bitmap`], the compiled bitmap path).

use std::collections::HashMap;

use crate::bitmap::SelectionBitmap;
use crate::index::{PostingList, ScanStats, SecondaryIndex};
use crate::types::{RecordId, TokenId};

/// Inverted index: token id → compressed posting list.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<TokenId, PostingList>,
    indexed_rows: usize,
}

impl InvertedIndex {
    /// Builds the index from per-row token lists (`docs[rid]` = tokens of row `rid`).
    pub fn build(docs: &[Vec<TokenId>]) -> Self {
        Self::from_docs(docs.iter().map(|d| d.as_slice()))
    }

    /// Builds the index from an iterator of per-row token slices (row id =
    /// iteration order), e.g. a CSR-flattened [`crate::storage::TextColumn`].
    /// A token repeated within one row adds that row once.
    ///
    /// Row lists are gathered by token id ([`RowLists`]): a dictionary's ids
    /// are dense, so each posting is an index into a vector, not a hash-map
    /// entry.
    pub fn from_docs<'a>(docs: impl Iterator<Item = &'a [TokenId]>) -> Self {
        let mut lists = RowLists::default();
        let mut indexed_rows = 0usize;
        for (rid, tokens) in docs.enumerate() {
            indexed_rows += 1;
            for &t in tokens {
                lists.push(t, rid as RecordId);
            }
        }
        Self {
            postings: lists.encode(),
            indexed_rows,
        }
    }

    /// Document frequency of `token` (0 if unseen).
    pub fn doc_freq(&self, token: TokenId) -> usize {
        self.postings.get(&token).map(|p| p.len()).unwrap_or(0)
    }

    /// The posting list of `token`, if indexed: the chunk kernels combine a
    /// keyword's ids into a chunk's selection words from it.
    pub fn posting(&self, token: TokenId) -> Option<&PostingList> {
        self.postings.get(&token)
    }

    /// Record ids containing `token`, sorted ascending, plus scan statistics.
    pub fn lookup(&self, token: TokenId) -> (Vec<RecordId>, ScanStats) {
        match self.postings.get(&token) {
            Some(list) => {
                let stats = Self::stats(list);
                (list.decode(), stats)
            }
            None => (Vec::new(), ScanStats::default()),
        }
    }

    /// [`InvertedIndex::lookup`] emitting a [`SelectionBitmap`] filled
    /// container by container straight into its words — identical
    /// [`ScanStats`], no sorted id vector in between.
    pub fn lookup_bitmap(&self, token: TokenId) -> (SelectionBitmap, ScanStats) {
        match self.postings.get(&token) {
            Some(list) => (list.to_bitmap(), Self::stats(list)),
            None => (SelectionBitmap::default(), ScanStats::default()),
        }
    }

    fn stats(list: &PostingList) -> ScanStats {
        ScanStats {
            matches: list.len(),
        }
    }

    /// Exact number of rows containing `token` — available without decoding.
    pub fn count(&self, token: TokenId) -> usize {
        self.doc_freq(token)
    }
}

/// Ids the dense row lists may reach beyond twice the postings pushed.
const DENSE_SLACK: usize = 4096;

/// Each token's row ids, gathered in push order.
///
/// Lists live in a vector indexed by token id while the ids stay within
/// `2 × postings + DENSE_SLACK`, which a dictionary's dense ids always do;
/// a token far above that (a hostile `u32::MAX`) goes to a hash map, so the
/// vector never grows past a multiple of the input it has seen. When the
/// vector grows, the hash map's lists below its new length move into it.
#[derive(Default)]
struct RowLists {
    dense: Vec<Vec<RecordId>>,
    sparse: HashMap<TokenId, Vec<RecordId>>,
    postings: usize,
}

impl RowLists {
    /// Adds row `rid` to `token`'s list, once per row (rows arrive in order).
    fn push(&mut self, token: TokenId, rid: RecordId) {
        self.postings += 1;
        let t = token as usize;
        if t >= self.dense.len() && t < 2 * self.postings + DENSE_SLACK {
            let len = (t + 1)
                .max(2 * self.dense.len())
                .min(2 * self.postings + DENSE_SLACK);
            self.dense.resize_with(len, Vec::new);
            let dense = &mut self.dense;
            self.sparse
                .retain(|&k, rows| match dense.get_mut(k as usize) {
                    Some(slot) => {
                        *slot = std::mem::take(rows);
                        false
                    }
                    None => true,
                });
        }
        let list = match self.dense.get_mut(t) {
            Some(list) => list,
            None => self.sparse.entry(token).or_default(),
        };
        if list.last() != Some(&rid) {
            list.push(rid);
        }
    }

    /// Every non-empty list, encoded.
    fn encode(self) -> HashMap<TokenId, PostingList> {
        let dense = self.dense.into_iter().enumerate();
        dense
            .map(|(t, rows)| (t as TokenId, rows))
            .chain(self.sparse)
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(t, rows)| (t, PostingList::encode(&rows)))
            .collect()
    }
}

impl SecondaryIndex for InvertedIndex {
    fn len(&self) -> usize {
        self.indexed_rows
    }

    fn memory_bytes(&self) -> usize {
        self.postings.values().map(|p| p.encoded_bytes() + 16).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_lookup_and_count() {
        let docs = vec![vec![1u32, 2, 3], vec![2, 3], vec![3], vec![], vec![1, 3]];
        let idx = InvertedIndex::build(&docs);
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.count(1), 2);
        assert_eq!(idx.count(3), 4);
        assert_eq!(idx.count(99), 0);
        let (rids, stats) = idx.lookup(2);
        assert_eq!(rids, vec![0, 1]);
        assert_eq!(stats.matches, 2);
        assert!(idx.lookup(99).0.is_empty());
    }

    #[test]
    fn bitmap_lookup_matches_vector_lookup() {
        let docs: Vec<Vec<TokenId>> = (0..9000)
            .map(|i| if i % 3 == 0 { vec![7] } else { vec![8] })
            .collect();
        let idx = InvertedIndex::build(&docs);
        let (rids, stats) = idx.lookup(7);
        let (bm, bm_stats) = idx.lookup_bitmap(7);
        assert_eq!(bm.to_vec(), rids);
        assert_eq!(bm.len(), stats.matches);
        assert_eq!(bm_stats, stats);
        let (empty, empty_stats) = idx.lookup_bitmap(99);
        assert!(empty.is_empty());
        assert_eq!(empty_stats, ScanStats::default());
    }

    #[test]
    fn repeated_token_counts_its_row_once() {
        let idx = InvertedIndex::build(&[vec![1, 1], vec![2]]);
        assert_eq!(idx.doc_freq(1), 1);
        assert_eq!(idx.lookup(1).0, vec![0]);
        let (bits, stats) = idx.lookup_bitmap(1);
        assert_eq!(bits.to_vec(), vec![0]);
        assert_eq!(stats.matches, 1);
    }

    /// A token id far above the rest (`u32::MAX`) answers the same lookups
    /// without growing the dense lists to it, and a sparse token that the
    /// dense lists later reach keeps all of its rows.
    #[test]
    fn far_token_ids_stay_out_of_the_dense_lists() {
        let far = u32::MAX;
        let docs: Vec<Vec<TokenId>> = (0..20_000u32)
            .map(|i| match i % 4 {
                0 => vec![0, 9_000, far],
                1 => vec![1],
                2 => vec![2, far],
                _ => vec![i / 2],
            })
            .collect();
        let mut lists = RowLists::default();
        for (rid, doc) in docs.iter().enumerate() {
            for &t in doc {
                lists.push(t, rid as RecordId);
            }
            assert!(lists.dense.len() <= 2 * lists.postings + DENSE_SLACK);
        }
        assert!(lists.dense.len() <= 40_000);
        let idx = InvertedIndex::build(&docs);
        for token in [0, 1, 2, 9_000, 4_999, far, far - 1] {
            let expected: Vec<RecordId> = (0..docs.len() as RecordId)
                .filter(|&r| docs[r as usize].contains(&token))
                .collect();
            assert_eq!(idx.lookup(token).0, expected, "token {token}");
            assert_eq!(idx.lookup_bitmap(token).0.to_vec(), expected);
            assert_eq!(idx.count(token), expected.len());
        }
    }

    #[test]
    fn memory_accounting_nonzero() {
        let docs = vec![vec![0u32; 1]; 100];
        let idx = InvertedIndex::build(&docs);
        assert!(idx.memory_bytes() > 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn lookup_matches_bruteforce(
                docs in proptest::collection::vec(proptest::collection::btree_set(0u32..20, 0..6), 0..100),
                token in 0u32..20,
            ) {
                let docs: Vec<Vec<TokenId>> =
                    docs.into_iter().map(|s| s.into_iter().collect()).collect();
                let idx = InvertedIndex::build(&docs);
                let expected: Vec<RecordId> = docs
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.contains(&token))
                    .map(|(i, _)| i as RecordId)
                    .collect();
                prop_assert_eq!(idx.lookup(token).0, expected.clone());
                prop_assert_eq!(idx.lookup_bitmap(token).0.to_vec(), expected.clone());
                prop_assert_eq!(idx.count(token), expected.len());
            }
        }
    }
}
