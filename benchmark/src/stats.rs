//! Small numeric helpers: percentiles, medians, digests and a least-squares fit.

/// The `p`-th percentile (0–100) of an ascending-sorted sample by the
/// nearest-rank method; 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (NaN-free by construction: all inputs are durations
/// or counts).
pub fn sort(sample: &mut [f64]) {
    sample.sort_by(|a, b| a.total_cmp(b));
}

/// Median of an unsorted sample (nearest rank); 0 for an empty sample.
pub fn median(mut sample: Vec<f64>) -> f64 {
    sort(&mut sample);
    percentile(&sample, 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Order-sensitive FNV-1a fold over 64-bit words, used for the input, decision
/// and result digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Ordinary least squares of `ys` on the columns of `xs` plus an intercept.
/// Returns `(intercept, coefficients, r2)`, or `None` when the normal equations
/// are singular (a regressor is constant or collinear on this sample).
pub fn least_squares(xs: &[Vec<f64>], ys: &[f64]) -> Option<(f64, Vec<f64>, f64)> {
    let k = xs.first()?.len() + 1;
    if xs.len() != ys.len() || xs.len() < k {
        return None;
    }
    // Scale every regressor to unit maximum so counters of very different
    // magnitudes do not wreck the elimination's conditioning.
    let mut scale = vec![1.0f64; k];
    for row in xs {
        for (j, v) in row.iter().enumerate() {
            scale[j + 1] = scale[j + 1].max(v.abs());
        }
    }
    // Normal equations, augmented with the right-hand side as column `k`.
    let mut a = vec![vec![0.0f64; k + 1]; k];
    for (row, &y) in xs.iter().zip(ys) {
        let design: Vec<f64> = std::iter::once(1.0)
            .chain(row.iter().zip(&scale[1..]).map(|(x, s)| x / s))
            .collect();
        for (a_row, xi) in a.iter_mut().zip(&design) {
            for (cell, xj) in a_row.iter_mut().zip(&design) {
                *cell += xi * xj;
            }
            a_row[k] += xi * y;
        }
    }
    for col in 0..k {
        let pivot = (col..k).max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs()))?;
        if a[pivot][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, pivot);
        let pivot_row = a[col].clone();
        for (row, a_row) in a.iter_mut().enumerate() {
            if row != col {
                let factor = a_row[col] / pivot_row[col];
                for (cell, p) in a_row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *cell -= factor * p;
                }
            }
        }
    }
    let beta: Vec<f64> = (0..k).map(|i| a[i][k] / a[i][i] / scale[i]).collect();
    let y_mean = mean(ys);
    let (mut ss_res, mut ss_tot) = (0.0, 0.0);
    for (row, &y) in xs.iter().zip(ys) {
        let fitted = beta[0] + row.iter().zip(&beta[1..]).map(|(x, b)| x * b).sum::<f64>();
        ss_res += (y - fitted).powi(2);
        ss_tot += (y - y_mean).powi(2);
    }
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        0.0
    };
    Some((beta[0], beta[1..].to_vec(), r2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 95.0), 95.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // 4 samples: p50 is the 2nd, p95 the 4th.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 95.0), 4.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn digest_depends_on_order() {
        let fold = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.write(w));
            d
        };
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        assert_eq!(fold(&[1]).hex().len(), 16);
    }

    #[test]
    fn least_squares_recovers_synthetic_counters() {
        // wall_ns = 5000 + 3·seq_rows + 40·index_entries + 900·heap_fetches
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..200u64 {
            let seq = (i * 7919 % 10_000) as f64;
            let idx = (i * 104_729 % 3_000) as f64;
            let heap = (i * 1_299_709 % 500) as f64;
            xs.push(vec![seq, idx, heap]);
            ys.push(5000.0 + 3.0 * seq + 40.0 * idx + 900.0 * heap);
        }
        let (intercept, beta, r2) = least_squares(&xs, &ys).expect("well-conditioned");
        assert!((intercept - 5000.0).abs() < 1e-3, "{intercept}");
        assert!((beta[0] - 3.0).abs() < 1e-6);
        assert!((beta[1] - 40.0).abs() < 1e-6);
        assert!((beta[2] - 900.0).abs() < 1e-6);
        assert!(r2 > 0.999_999);
    }

    #[test]
    fn least_squares_rejects_constant_regressor() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i), 0.0]).collect();
        let ys: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(least_squares(&xs, &ys).is_none());
    }
}
