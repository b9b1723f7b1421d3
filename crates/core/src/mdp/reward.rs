//! Reward functions: efficiency-only (Eq. 1) and quality-aware (Eq. 2).

/// Which reward the environment hands the agent at termination. The quality term
/// `(1 − β) F(r(Q), r(RQ))` scores with [`maliva_quality::jaccard_quality`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardSpec {
    /// Weight β of the efficiency term; `1.0` reduces Eq. 2 to Eq. 1.
    pub beta: f64,
}

impl Default for RewardSpec {
    fn default() -> Self {
        Self { beta: 1.0 }
    }
}

impl RewardSpec {
    /// An efficiency-only reward (Eq. 1).
    pub fn efficiency_only() -> Self {
        Self::default()
    }

    /// A quality-aware reward (Eq. 2) with the given β.
    pub fn quality_aware(beta: f64) -> Self {
        Self {
            beta: beta.clamp(0.0, 1.0),
        }
    }

    /// Returns `true` when computing the reward needs the materialised results of both
    /// the original and the rewritten query.
    pub fn needs_quality(&self) -> bool {
        self.beta < 1.0
    }

    /// Computes the terminal reward.
    ///
    /// `tau_ms` is the budget, `elapsed_ms` the planning time spent, `exec_ms` the
    /// actual execution time of the chosen rewritten query, and `quality` the value of
    /// `F(r(Q), r(RQ))` (pass 1.0 for exact rewrites or when β = 1).
    pub fn terminal_reward(&self, tau_ms: f64, elapsed_ms: f64, exec_ms: f64, quality: f64) -> f64 {
        let tau = tau_ms.max(1e-9);
        let efficiency = (tau - elapsed_ms - exec_ms) / tau;
        self.beta * efficiency + (1.0 - self.beta) * quality.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_positive_when_within_budget() {
        let spec = RewardSpec::efficiency_only();
        let r = spec.terminal_reward(500.0, 150.0, 300.0, 1.0);
        assert!((r - 0.1).abs() < 1e-12);
    }

    #[test]
    fn eq1_negative_when_over_budget() {
        let spec = RewardSpec::efficiency_only();
        let r = spec.terminal_reward(500.0, 200.0, 800.0, 1.0);
        assert!(r < 0.0);
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn faster_queries_earn_larger_rewards() {
        let spec = RewardSpec::efficiency_only();
        let fast = spec.terminal_reward(500.0, 100.0, 100.0, 1.0);
        let slow = spec.terminal_reward(500.0, 100.0, 350.0, 1.0);
        assert!(fast > slow);
    }

    #[test]
    fn eq2_blends_quality() {
        let spec = RewardSpec::quality_aware(0.5);
        // Efficiency term = 0.2, quality = 0.8 -> 0.5*0.2 + 0.5*0.8 = 0.5
        let r = spec.terminal_reward(500.0, 100.0, 300.0, 0.8);
        assert!((r - 0.5).abs() < 1e-12);
        assert!(spec.needs_quality());
        assert!(!RewardSpec::efficiency_only().needs_quality());
    }

    #[test]
    fn quality_is_clamped() {
        let spec = RewardSpec::quality_aware(0.0);
        assert_eq!(spec.terminal_reward(500.0, 0.0, 0.0, 7.0), 1.0);
    }
}
