//! Synthetic tweet text with a Zipf-distributed vocabulary.
//!
//! Keyword-selectivity skew is what breaks the backend's keyword estimates in the
//! paper, so the corpus must contain common words (high document frequency), a long
//! tail of rare words, and a small set of stop words that query generation avoids.

use rand::Rng;

/// A Zipf-distributed vocabulary and document sampler.
#[derive(Debug, Clone)]
pub struct TextCorpus {
    words: Vec<String>,
    cumulative: Vec<f64>,
    stop_words: Vec<String>,
}

impl TextCorpus {
    /// Creates a corpus with `vocabulary` content words (Zipf exponent ~1) plus a small
    /// fixed set of stop words that appear in almost every document.
    pub fn new(vocabulary: usize) -> Self {
        let vocabulary = vocabulary.max(10);
        let words: Vec<String> = (0..vocabulary).map(|i| format!("word{i}")).collect();
        // Zipf weights: w_i ∝ 1 / (i + 1).
        let mut cumulative = Vec::with_capacity(vocabulary);
        let mut acc = 0.0;
        for i in 0..vocabulary {
            acc += 1.0 / (i as f64 + 1.0);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        let stop_words = ["the", "a", "to", "and", "of"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        Self {
            words,
            cumulative,
            stop_words,
        }
    }

    /// The stop words (excluded from query keywords, included in most documents).
    pub fn stop_words(&self) -> &[String] {
        &self.stop_words
    }

    /// Samples one content word according to the Zipf distribution.
    pub fn sample_word<R: Rng>(&self, rng: &mut R) -> &str {
        let u: f64 = rng.gen();
        let idx = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Equal))
        {
            Ok(i) => i,
            Err(i) => i.min(self.words.len() - 1),
        };
        &self.words[idx]
    }

    /// Samples a document of roughly `target_len` distinct content words plus a couple
    /// of stop words.
    pub fn sample_document<R: Rng>(&self, rng: &mut R, target_len: usize) -> Vec<String> {
        let mut doc: Vec<String> = Vec::with_capacity(target_len + 2);
        doc.push(self.stop_words[rng.gen_range(0..self.stop_words.len())].clone());
        for _ in 0..target_len.max(1) {
            doc.push(self.sample_word(rng).to_string());
        }
        doc.sort();
        doc.dedup();
        doc
    }

    /// Picks a random non-stop word from a document (the paper's keyword-condition
    /// generation); `None` if the document only contains stop words.
    pub fn pick_keyword<'a, R: Rng>(&self, rng: &mut R, doc: &'a [String]) -> Option<&'a str> {
        let content: Vec<&String> = doc
            .iter()
            .filter(|w| !self.stop_words.contains(w))
            .collect();
        if content.is_empty() {
            None
        } else {
            Some(content[rng.gen_range(0..content.len())].as_str())
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
        let doc = c.sample_document(&mut rng, 8);
        assert!(!doc.is_empty());
        assert!(doc.iter().any(|w| c.stop_words().contains(w)));
        assert!(doc.iter().any(|w| !c.stop_words().contains(w)));
        // No duplicates.
        let mut sorted = doc.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), doc.len());
    }

    #[test]
    fn keyword_picker_avoids_stop_words() {
        let c = TextCorpus::new(50);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..50 {
            let doc = c.sample_document(&mut rng, 5);
            if let Some(kw) = c.pick_keyword(&mut rng, &doc) {
                assert!(!c.stop_words().iter().any(|s| s == kw));
            }
        }
    }

    #[test]
    fn keyword_picker_handles_stopword_only_documents() {
        let c = TextCorpus::new(50);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let doc = vec!["the".to_string()];
        assert!(c.pick_keyword(&mut rng, &doc).is_none());
    }
}
