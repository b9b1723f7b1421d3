//! The MDP state: `s = (E, C₁…Cₙ, T₁…Tₙ)` (paper Fig. 6).

use serde::{Deserialize, Serialize};

/// State of the planning process for one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MdpState {
    /// Elapsed planning time `E` in milliseconds.
    pub elapsed_ms: f64,
    /// Estimation cost `Cᵢ` of each rewrite option (initially rough estimates, updated
    /// to actual costs / cheaper residual costs as options are explored).
    pub costs_ms: Vec<f64>,
    /// Estimated execution time `Tᵢ` of each explored option (`None` until explored;
    /// the paper initialises these slots to 0).
    pub estimated_ms: Vec<Option<f64>>,
}

impl MdpState {
    /// Creates the initial state for a space of `n` options with the given initial
    /// estimation costs.
    pub fn initial(costs_ms: Vec<f64>) -> Self {
        let n = costs_ms.len();
        Self {
            elapsed_ms: 0.0,
            costs_ms,
            estimated_ms: vec![None; n],
        }
    }

    /// Number of rewrite options `n`.
    pub fn n(&self) -> usize {
        self.costs_ms.len()
    }

    /// Positions that have been explored (their estimated time is known).
    pub fn explored(&self) -> Vec<usize> {
        self.estimated_ms
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// The explored option with the smallest estimated execution time, if any.
    pub fn best_known(&self) -> Option<(usize, f64)> {
        self.estimated_ms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|v| (i, v)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Encodes the state as the Q-network input vector of length `2n + 1`, normalising
    /// all times by the budget `tau_ms` so that inputs stay in a small range.
    pub fn to_features(&self, tau_ms: f64) -> Vec<f64> {
        let mut features = Vec::with_capacity(Self::feature_dim(self.n()));
        self.write_features(tau_ms, &mut features);
        features
    }

    /// [`Self::to_features`] into a caller-owned buffer, which is overwritten.
    pub fn write_features(&self, tau_ms: f64, features: &mut Vec<f64>) {
        let tau = tau_ms.max(1e-6);
        features.clear();
        features.push(self.elapsed_ms / tau);
        for &c in &self.costs_ms {
            features.push(c / tau);
        }
        for t in &self.estimated_ms {
            features.push(t.unwrap_or(0.0) / tau);
        }
    }

    /// Dimensionality of the feature vector for a space of `n` options.
    pub fn feature_dim(n: usize) -> usize {
        2 * n + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_unexplored() {
        let s = MdpState::initial(vec![40.0, 80.0, 120.0]);
        assert_eq!(s.n(), 3);
        assert_eq!(s.elapsed_ms, 0.0);
        assert!(s.explored().is_empty());
        assert!(s.best_known().is_none());
    }

    #[test]
    fn best_known_tracks_minimum_estimate() {
        let mut s = MdpState::initial(vec![40.0; 4]);
        s.estimated_ms[2] = Some(900.0);
        s.estimated_ms[0] = Some(300.0);
        assert_eq!(s.best_known(), Some((0, 300.0)));
        assert_eq!(s.explored(), vec![0, 2]);
    }

    #[test]
    fn features_have_expected_layout() {
        let mut s = MdpState::initial(vec![50.0, 100.0]);
        s.elapsed_ms = 250.0;
        s.estimated_ms[1] = Some(1000.0);
        let f = s.to_features(500.0);
        assert_eq!(f.len(), MdpState::feature_dim(2));
        assert!((f[0] - 0.5).abs() < 1e-12); // elapsed / tau
        assert!((f[1] - 0.1).abs() < 1e-12); // cost 0
        assert!((f[2] - 0.2).abs() < 1e-12); // cost 1
        assert_eq!(f[3], 0.0); // unexplored estimate encoded as 0
        assert!((f[4] - 2.0).abs() < 1e-12); // estimate 1
    }

    #[test]
    fn feature_dim_formula() {
        assert_eq!(MdpState::feature_dim(8), 17);
        assert_eq!(MdpState::feature_dim(32), 65);
    }
}
