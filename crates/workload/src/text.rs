//! Synthetic tweet text with a Zipf-distributed vocabulary.
//!
//! Keyword-selectivity skew is what breaks the backend's keyword estimates in the
//! paper, so the corpus must contain common words (high document frequency), a long
//! tail of rare words, and a small set of stop words that query generation avoids.

use rand::Rng;

/// Buckets of the guide table over the Zipf cumulative distribution.
const GUIDE_BUCKETS: usize = 1 << 14;

/// A Zipf-distributed vocabulary and document sampler.
///
/// A document is a list of word indices (see [`TextCorpus::word`]) rather than
/// owned strings, so sampling one allocates nothing per word.
#[derive(Debug, Clone)]
pub struct TextCorpus {
    /// The content words (`word0`, `word1`, ...), then the stop words.
    words: Vec<String>,
    /// Number of content words: indices below it are content words.
    content: usize,
    /// Normalised Zipf cumulative weights of the content words.
    cumulative: Vec<f64>,
    /// `guide[b]` is the first content index whose cumulative weight is at
    /// least `b / GUIDE_BUCKETS`; `guide[GUIDE_BUCKETS]` is `content`. A draw
    /// `u` searches only its bucket's window `guide[b]..=guide[b + 1]`.
    guide: Vec<u32>,
    /// Each word's rank in lexicographic order, by index.
    rank: Vec<u32>,
}

impl TextCorpus {
    /// Creates a corpus with `vocabulary` content words (Zipf exponent ~1) plus a small
    /// fixed set of stop words that appear in almost every document.
    pub fn new(vocabulary: usize) -> Self {
        let content = vocabulary.max(10);
        let mut words: Vec<String> = (0..content).map(|i| format!("word{i}")).collect();
        words.extend(["the", "a", "to", "and", "of"].map(str::to_string));
        // Zipf weights: w_i ∝ 1 / (i + 1).
        let mut cumulative = Vec::with_capacity(content);
        let mut acc = 0.0;
        for i in 0..content {
            acc += 1.0 / (i as f64 + 1.0);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        let guide = (0..=GUIDE_BUCKETS)
            .map(|b| match b {
                GUIDE_BUCKETS => content,
                _ => cumulative.partition_point(|&c| c < b as f64 / GUIDE_BUCKETS as f64),
            })
            .map(|i| i as u32)
            .collect();
        let mut by_word: Vec<usize> = (0..words.len()).collect();
        by_word.sort_unstable_by(|&a, &b| words[a].cmp(&words[b]));
        let mut rank = vec![0; words.len()];
        for (r, &i) in by_word.iter().enumerate() {
            rank[i] = r as u32;
        }
        Self {
            words,
            content,
            cumulative,
            guide,
            rank,
        }
    }

    /// The stop words (excluded from query keywords, included in most documents).
    pub fn stop_words(&self) -> &[String] {
        &self.words[self.content..]
    }

    /// Number of words, content and stop words: a sampled document's word
    /// indices are below it.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The word at index `index` of a sampled document.
    ///
    /// # Panics
    /// If `index` is not a word index of this corpus.
    pub fn word(&self, index: u32) -> &str {
        &self.words[index as usize]
    }

    /// Samples one content word according to the Zipf distribution.
    pub fn sample_word<R: Rng>(&self, rng: &mut R) -> &str {
        &self.words[self.content_index(rng.gen())]
    }

    /// The content word a uniform draw `u` selects: the first whose cumulative
    /// weight is at least `u`, clamped to the last word. The guide table narrows
    /// the search to `u`'s bucket, a window of a few words.
    fn content_index(&self, u: f64) -> usize {
        // Scaling by a power of two is exact, so bucket `b` holds exactly the
        // draws in `[b, b + 1) / GUIDE_BUCKETS`; a draw at or past 1 (or below
        // 0) lands in the last (first) bucket, whose window still holds it.
        let b = ((u * GUIDE_BUCKETS as f64) as usize).min(GUIDE_BUCKETS - 1);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let i = lo + self.cumulative[lo..hi].partition_point(|&c| c < u);
        i.min(self.content - 1)
    }

    /// Samples a document of roughly `target_len` distinct content words plus one stop
    /// word into `doc` (cleared first): word indices in the words' lexicographic order,
    /// without duplicates.
    pub fn sample_document<R: Rng>(&self, rng: &mut R, target_len: usize, doc: &mut Vec<u32>) {
        doc.clear();
        doc.push((self.content + rng.gen_range(0..self.words.len() - self.content)) as u32);
        for _ in 0..target_len.max(1) {
            doc.push(self.content_index(rng.gen()) as u32);
        }
        doc.sort_unstable_by_key(|&i| self.rank[i as usize]);
        doc.dedup();
    }

    /// Picks a random non-stop word from a document (the paper's keyword-condition
    /// generation); `None` if the document only contains stop words.
    pub fn pick_keyword<R: Rng>(&self, rng: &mut R, doc: &[u32]) -> Option<&str> {
        let mut content = doc.iter().filter(|&&i| (i as usize) < self.content);
        let count = content.clone().count();
        if count == 0 {
            None
        } else {
            content.nth(rng.gen_range(0..count)).map(|&i| self.word(i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    #[test]
    fn corpus_has_requested_vocabulary() {
        let c = TextCorpus::new(500);
        assert!(!c.stop_words().is_empty());
    }

    #[test]
    fn word_sampling_is_zipf_skewed() {
        let c = TextCorpus::new(1000);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut counts: HashMap<String, usize> = HashMap::new();
        for _ in 0..20_000 {
            *counts
                .entry(c.sample_word(&mut rng).to_string())
                .or_insert(0) += 1;
        }
        let top = counts.get("word0").copied().unwrap_or(0);
        let mid = counts.get("word100").copied().unwrap_or(0);
        assert!(
            top > 10 * mid.max(1),
            "word0 {top} should dominate word100 {mid}"
        );
    }

    #[test]
    fn documents_contain_stop_and_content_words() {
        let c = TextCorpus::new(200);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut doc = Vec::new();
        c.sample_document(&mut rng, 8, &mut doc);
        let words: Vec<&str> = doc.iter().map(|&i| c.word(i)).collect();
        assert!(!words.is_empty());
        let is_stop = |w: &str| c.stop_words().iter().any(|s| s == w);
        assert_eq!(words.iter().filter(|w| is_stop(w)).count(), 1);
        assert!(words.iter().any(|w| !is_stop(w)));
        // Sorted as strings, without duplicates.
        let mut sorted = words.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, words);
    }

    /// The documents `sample_document` draws are the ones an owned-string
    /// sampler draws from the same stream: one stop word, then the content
    /// words, sorted and deduplicated as strings.
    #[test]
    fn documents_equal_string_sorted_draws() {
        let c = TextCorpus::new(4_000);
        let (mut rng, mut reference) = (ChaCha8Rng::seed_from_u64(5), ChaCha8Rng::seed_from_u64(5));
        let mut doc = Vec::new();
        for _ in 0..2_000 {
            c.sample_document(&mut rng, 9, &mut doc);
            let stop = c.stop_words();
            let mut expected = vec![stop[reference.gen_range(0..stop.len())].clone()];
            for _ in 0..9 {
                expected.push(c.sample_word(&mut reference).to_string());
            }
            expected.sort();
            expected.dedup();
            let words: Vec<&str> = doc.iter().map(|&i| c.word(i)).collect();
            assert_eq!(words, expected);
        }
    }

    /// The binary search over the whole cumulative distribution that the
    /// guide table replaces.
    fn searched_index(c: &TextCorpus, u: f64) -> usize {
        match c
            .cumulative
            .binary_search_by(|x| x.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Equal))
        {
            Ok(i) => i,
            Err(i) => i.min(c.content - 1),
        }
    }

    /// The guide table selects the word the full binary search selects: at 0,
    /// at every cumulative weight exactly and one ulp either side, at every
    /// bucket edge, and past the last weight (the clamp).
    #[test]
    fn guided_draws_equal_the_binary_search_at_every_edge() {
        for vocabulary in [10, 4_000, 20_000] {
            let c = TextCorpus::new(vocabulary);
            let last = *c.cumulative.last().unwrap();
            let buckets = GUIDE_BUCKETS as f64;
            let edges = c
                .cumulative
                .iter()
                .copied()
                .chain((0..=GUIDE_BUCKETS).map(|b| b as f64 / buckets))
                .flat_map(|x| [x.next_down(), x, x.next_up()])
                .chain([0.0, last.next_up(), 1.0_f64.next_down(), 1.0, 2.0]);
            for u in edges.filter(|u| *u >= 0.0) {
                assert_eq!(c.content_index(u), searched_index(&c, u), "u = {u:e}");
            }
            let mut rng = ChaCha8Rng::seed_from_u64(vocabulary as u64);
            for _ in 0..100_000 {
                let u: f64 = rng.gen();
                assert_eq!(c.content_index(u), searched_index(&c, u), "u = {u:e}");
            }
        }
    }

    #[test]
    fn keyword_picker_avoids_stop_words() {
        let c = TextCorpus::new(50);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut doc = Vec::new();
        for _ in 0..50 {
            c.sample_document(&mut rng, 5, &mut doc);
            if let Some(kw) = c.pick_keyword(&mut rng, &doc) {
                assert!(!c.stop_words().iter().any(|s| s == kw));
            }
        }
    }

    #[test]
    fn keyword_picker_handles_stopword_only_documents() {
        let c = TextCorpus::new(50);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let the = (50..55).find(|&i| c.word(i) == "the").unwrap();
        assert!(c.pick_keyword(&mut rng, &[the]).is_none());
    }
}
