//! Approximation rules: rewrite a query so it computes an approximate result faster.
//!
//! The paper's §7.7 evaluates one approximation family: a `LIMIT` clause sized
//! as a fraction of the engine's estimated cardinality. That is the only rule
//! here. The paper's §6.2 running example substitutes a pre-built random sample
//! table (`tweetsSample20`) instead; no experiment of §7 runs it, so it is not
//! reproduced. Samples remain only as the Approximate-QTE's probe tables
//! ([`crate::Database::sample_selectivity`]).

use serde::{Deserialize, Serialize};

/// A single approximation rule applied to the original query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApproxRule {
    /// Add a `LIMIT` clause that keeps `permille` ‰ (parts per thousand, to express the
    /// paper's 0.032%–20% range with integers) of the query's estimated cardinality.
    LimitPermille {
        /// Kept fraction in tenths of a percent of the estimated result cardinality.
        permille: u32,
    },
}

impl ApproxRule {
    /// The fraction of the estimated result rows kept by this rule, as a ratio in
    /// (0, 1].
    pub fn kept_fraction(&self) -> f64 {
        match self {
            ApproxRule::LimitPermille { permille } => (*permille as f64 / 1000.0).clamp(0.0, 1.0),
        }
    }

    /// A short label used in SQL rendering and experiment output.
    pub fn label(&self) -> String {
        match self {
            ApproxRule::LimitPermille { permille } => format!("limit{}‰", permille),
        }
    }

    /// The paper's §7.7 approximation-rule set: LIMIT clauses keeping 0.032%, 0.16%,
    /// 0.8%, 4% and 20% of the estimated cardinality. A rule counts in whole
    /// permille, so the paper's 0.032% and 0.16% are kept as 1‰ and 2‰; the other
    /// three are exact.
    pub fn paper_limit_rules() -> Vec<ApproxRule> {
        vec![
            ApproxRule::LimitPermille { permille: 1 },
            ApproxRule::LimitPermille { permille: 2 },
            ApproxRule::LimitPermille { permille: 8 },
            ApproxRule::LimitPermille { permille: 40 },
            ApproxRule::LimitPermille { permille: 200 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept_fraction_for_limits() {
        assert!((ApproxRule::LimitPermille { permille: 200 }.kept_fraction() - 0.2).abs() < 1e-12);
        assert!((ApproxRule::LimitPermille { permille: 1 }.kept_fraction() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn paper_rule_sets_have_expected_sizes() {
        assert_eq!(ApproxRule::paper_limit_rules().len(), 5);
    }

    #[test]
    fn limit_rules_are_monotone() {
        let fractions: Vec<f64> = ApproxRule::paper_limit_rules()
            .iter()
            .map(|r| r.kept_fraction())
            .collect();
        assert!(fractions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = ApproxRule::paper_limit_rules()
            .iter()
            .map(|r| r.label())
            .collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn kept_fraction_clamped_to_one() {
        assert_eq!(
            ApproxRule::LimitPermille { permille: 5000 }.kept_fraction(),
            1.0
        );
    }

    /// A rule serialized before the sample rules were removed reads back as an
    /// error, not a panic; a LIMIT rule still round-trips.
    #[test]
    fn removed_rules_do_not_deserialize() {
        let removed = r#"{"SampleTable":{"fraction_pct":20}}"#;
        assert!(serde_json::from_str::<ApproxRule>(removed).is_err());
        let limit = ApproxRule::LimitPermille { permille: 8 };
        let json = serde_json::to_string(&limit).unwrap();
        assert_eq!(serde_json::from_str::<ApproxRule>(&json).unwrap(), limit);
    }
}
