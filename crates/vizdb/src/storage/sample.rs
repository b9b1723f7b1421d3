//! Uniform random samples of a base table: the Approximate-QTE's probe tables.
//!
//! A [`SampleTable`] is one draw: the sampled record ids of the base table,
//! fixed by the database seed and the sampling percentage. The database stores
//! each sample's rows as a table of their own, on the base table's dictionary
//! and with the base table's indexes ([`crate::Database::build_sample`]), so a
//! `count(*)` probe is an index count or a kernel over a few contiguous rows.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::types::RecordId;

/// Rejects a sampling percentage outside `1..=100` with
/// [`Error::InvalidSampleFraction`] — the check [`SampleTable::build`] asserts,
/// made before a catalog inserts anything.
pub(crate) fn check_fraction(table: &str, fraction_pct: u32) -> Result<()> {
    if (1..=100).contains(&fraction_pct) {
        Ok(())
    } else {
        Err(Error::InvalidSampleFraction {
            table: table.to_string(),
            fraction_pct,
        })
    }
}

/// A uniform random sample of a base table, identified by its sampling percentage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleTable {
    base_table: String,
    fraction_pct: u32,
    row_ids: Vec<RecordId>,
}

impl SampleTable {
    /// Draws a `fraction_pct`% uniform sample (without replacement) of a table with
    /// `base_rows` rows. Sampling is deterministic given `seed`.
    ///
    /// # Panics
    /// Panics if `fraction_pct` is 0 or greater than 100.
    pub fn build(base_table: &str, base_rows: usize, fraction_pct: u32, seed: u64) -> Self {
        assert!(
            (1..=100).contains(&fraction_pct),
            "sample fraction must be in 1..=100, got {fraction_pct}"
        );
        let target = ((base_rows as u64 * fraction_pct as u64) / 100) as usize;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (fraction_pct as u64).wrapping_mul(0x9E37));
        let mut ids: Vec<RecordId> = (0..base_rows as RecordId).collect();
        ids.shuffle(&mut rng);
        ids.truncate(target.max(1).min(base_rows));
        ids.sort_unstable();
        Self {
            base_table: base_table.to_string(),
            fraction_pct,
            row_ids: ids,
        }
    }

    /// Name of the table this sample was drawn from.
    pub fn base_table(&self) -> &str {
        &self.base_table
    }

    /// The sampling percentage (1..=100).
    pub fn fraction_pct(&self) -> u32 {
        self.fraction_pct
    }

    /// Sampling fraction as a ratio in (0, 1].
    pub fn fraction(&self) -> f64 {
        self.fraction_pct as f64 / 100.0
    }

    /// The sampled record ids (sorted ascending).
    pub fn row_ids(&self) -> &[RecordId] {
        &self.row_ids
    }

    /// Number of sampled rows.
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// Returns `true` when the sample holds no rows.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// Returns `true` when `rid` is part of the sample.
    pub fn contains(&self, rid: RecordId) -> bool {
        self.row_ids.binary_search(&rid).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_size_close_to_fraction() {
        let s = SampleTable::build("tweets", 10_000, 20, 7);
        assert_eq!(s.len(), 2_000);
        assert_eq!(s.fraction(), 0.20);
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let a = SampleTable::build("tweets", 1_000, 10, 42);
        let b = SampleTable::build("tweets", 1_000, 10, 42);
        let c = SampleTable::build("tweets", 1_000, 10, 43);
        assert_eq!(a.row_ids(), b.row_ids());
        assert_ne!(a.row_ids(), c.row_ids());
    }

    #[test]
    fn sample_ids_sorted_unique_and_in_range() {
        let s = SampleTable::build("taxi", 5_000, 33, 1);
        let ids = s.row_ids();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert!(ids.iter().all(|&id| (id as usize) < 5_000));
    }

    #[test]
    fn contains_uses_membership() {
        let s = SampleTable::build("tweets", 100, 50, 3);
        let inside = s.row_ids()[0];
        assert!(s.contains(inside));
        let missing = (0..100u32).find(|id| !s.row_ids().contains(id)).unwrap();
        assert!(!s.contains(missing));
    }

    #[test]
    fn tiny_table_keeps_at_least_one_row() {
        let s = SampleTable::build("t", 3, 1, 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "sample fraction")]
    fn zero_fraction_panics() {
        SampleTable::build("t", 10, 0, 0);
    }

    #[test]
    fn full_sample_contains_every_row() {
        let s = SampleTable::build("t", 50, 100, 9);
        assert_eq!(s.len(), 50);
        assert!((0..50u32).all(|id| s.contains(id)));
    }
}
