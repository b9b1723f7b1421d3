//! The replay memory `M` of experience tuples `(s, a, s', r')` (paper Algorithm 1).

use std::collections::VecDeque;

use rand::Rng;

/// One experience tuple, extended with the information needed to compute the Bellman
/// target: whether `s'` was terminal and which actions remained available in `s'`.
#[derive(Debug, Clone)]
pub struct Experience {
    /// Feature encoding of `s`.
    pub state: Vec<f64>,
    /// Action `a` taken in `s`.
    pub action: usize,
    /// Feature encoding of `s'`.
    pub next_state: Vec<f64>,
    /// Immediate reward `r'`.
    pub reward: f64,
    /// Whether `s'` is a terminal state.
    pub terminal: bool,
    /// Actions still available in `s'` (empty for terminal states).
    pub next_remaining: Vec<usize>,
}

/// A bounded FIFO replay memory (paper: "when M reaches its capacity C, we replace
/// existing experiences in a FIFO manner").
#[derive(Debug, Clone)]
pub struct ReplayMemory {
    buffer: VecDeque<Experience>,
    capacity: usize,
    /// A permutation of the buffer's positions that sampling shuffles in place.
    order: Vec<usize>,
}

impl ReplayMemory {
    /// Creates a memory with capacity `C`.
    pub fn new(capacity: usize) -> Self {
        Self {
            buffer: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            order: Vec::new(),
        }
    }

    /// Stores an experience, evicting the oldest one when full.
    pub fn push(&mut self, experience: Experience) {
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
        } else {
            self.order.push(self.buffer.len());
        }
        self.buffer.push_back(experience);
    }

    /// Number of stored experiences.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Returns `true` when no experience is stored.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples (without replacement) up to `batch_size` random experiences: a partial
    /// Fisher–Yates shuffle of the kept permutation, so `min(batch_size, len)` draws.
    pub fn sample<R: Rng>(&mut self, batch_size: usize, rng: &mut R) -> Vec<&Experience> {
        let taken = batch_size.min(self.order.len());
        for k in 0..taken {
            let pick = rng.gen_range(k..self.order.len());
            self.order.swap(k, pick);
        }
        let picked = &self.order[..taken];
        picked.iter().map(|&i| &self.buffer[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    fn exp(reward: f64) -> Experience {
        Experience {
            state: vec![0.0],
            action: 0,
            next_state: vec![1.0],
            reward,
            terminal: false,
            next_remaining: vec![1, 2],
        }
    }

    #[test]
    fn push_and_len() {
        let mut m = ReplayMemory::new(10);
        assert!(m.is_empty());
        m.push(exp(1.0));
        m.push(exp(2.0));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut m = ReplayMemory::new(3);
        for i in 0..5 {
            m.push(exp(i as f64));
        }
        assert_eq!(m.len(), 3);
        let rewards: Vec<f64> = m.buffer.iter().map(|e| e.reward).collect();
        assert_eq!(rewards, vec![2.0, 3.0, 4.0]);
    }

    /// Before and after the memory fills and evicts, a sample holds `min(B, len)`
    /// distinct experiences, all of them still stored.
    #[test]
    fn sample_respects_batch_size() {
        let (mut m, mut rng) = (ReplayMemory::new(40), ChaCha8Rng::seed_from_u64(1));
        for i in 0..100 {
            m.push(exp(i as f64));
            let len = m.len();
            for batch_size in [1, 8, 32, 64] {
                let sample = m.sample(batch_size, &mut rng);
                let rewards: BTreeSet<i64> = sample.iter().map(|e| e.reward as i64).collect();
                assert_eq!(
                    (sample.len(), rewards.len()),
                    (batch_size.min(len), sample.len())
                );
                assert!(rewards.iter().all(|&r| r > i - 40 && r <= i));
            }
        }
    }

    #[test]
    fn sample_has_no_duplicates() {
        let mut m = ReplayMemory::new(100);
        for i in 0..20 {
            m.push(exp(i as f64));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sample = m.sample(20, &mut rng);
        let mut rewards: Vec<i64> = sample.iter().map(|e| e.reward as i64).collect();
        rewards.sort_unstable();
        rewards.dedup();
        assert_eq!(rewards.len(), 20);
    }

    /// Two of three experiences: each pair is drawn about a third of the time.
    #[test]
    fn samples_are_uniform_over_subsets() {
        let (mut rng, mut left_out) = (ChaCha8Rng::seed_from_u64(4), [0; 3]);
        for _ in 0..3000 {
            let mut m = ReplayMemory::new(3);
            (0..3).for_each(|i| m.push(exp(i as f64)));
            let drawn: f64 = m.sample(2, &mut rng).iter().map(|e| e.reward).sum();
            left_out[3 - drawn as usize] += 1;
        }
        assert!(
            left_out.iter().all(|n| (900..1100).contains(n)),
            "{left_out:?}"
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut m = ReplayMemory::new(0);
        m.push(exp(1.0));
        m.push(exp(2.0));
        assert_eq!(m.len(), 1);
        assert_eq!(m.capacity(), 1);
    }
}
