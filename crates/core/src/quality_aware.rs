//! Quality-aware query rewriting (paper §6): rewrite options may include approximation
//! rules, the reward blends efficiency with visualization quality (Eq. 2), and two
//! rewriter architectures are offered — one-stage and two-stage.

use std::sync::Arc;

use maliva_qte::QueryTimeEstimator;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vizdb::approx::ApproxRule;
use vizdb::error::{Error, Result};
use vizdb::query::Query;
use vizdb::QueryBackend;

use crate::agent::QAgent;
use crate::config::MalivaConfig;
use crate::mdp::{Decision, RewardSpec};
use crate::online::{plan_online, plan_online_from};
use crate::rewriter::{QueryRewriter, RewriteDecision};
use crate::space::RewriteSpace;
use crate::train::{run_algorithm1, train_agent};

/// Which of the paper's two quality-aware architectures to use (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QualityAwareMode {
    /// One agent considers hint-only and hint+approximation options simultaneously,
    /// trained with the quality-aware reward.
    OneStage,
    /// First exhaust the hint-only agent; only when it finds no viable exact rewrite
    /// (and budget remains) run a second, quality-aware agent over the approximate
    /// options, inheriting the elapsed planning time.
    TwoStage,
}

/// A quality-aware rewriter (one-stage or two-stage).
pub struct QualityAwareRewriter {
    name: String,
    db: Arc<dyn QueryBackend>,
    qte: Arc<dyn QueryTimeEstimator>,
    mode: QualityAwareMode,
    tau_ms: f64,
    rules: Vec<ApproxRule>,
    one_stage_agent: Option<QAgent>,
    hint_agent: Option<QAgent>,
    approx_agent: Option<QAgent>,
}

impl QualityAwareRewriter {
    /// Trains a quality-aware rewriter on `training` queries.
    ///
    /// `rules` is the approximation-rule set (e.g. the paper's five LIMIT rules);
    /// `config.beta` weights efficiency against Jaccard quality in the Eq. 2 reward.
    pub fn train(
        db: Arc<dyn QueryBackend>,
        qte: Arc<dyn QueryTimeEstimator>,
        training: &[Query],
        rules: Vec<ApproxRule>,
        mode: QualityAwareMode,
        config: &MalivaConfig,
    ) -> Result<Self> {
        let reward_quality = RewardSpec::quality_aware(config.beta);
        let mut rewriter = Self {
            name: match mode {
                QualityAwareMode::OneStage => "1-stage MDP".to_string(),
                QualityAwareMode::TwoStage => "2-stage MDP".to_string(),
            },
            db: db.clone(),
            qte: qte.clone(),
            mode,
            tau_ms: config.tau_ms,
            rules: rules.clone(),
            one_stage_agent: None,
            hint_agent: None,
            approx_agent: None,
        };
        match mode {
            QualityAwareMode::OneStage => {
                let rules_for_space = rules.clone();
                let builder = move |q: &Query| RewriteSpace::with_approx_rules(q, &rules_for_space);
                let trained = train_agent(
                    &*db,
                    qte.as_ref(),
                    training,
                    &builder,
                    reward_quality,
                    config,
                )?;
                rewriter.one_stage_agent = Some(trained.agent);
            }
            QualityAwareMode::TwoStage => {
                // Stage 1: the plain exact-rewriting agent of §4/§5.
                let trained_hint = train_agent(
                    &*db,
                    qte.as_ref(),
                    training,
                    &RewriteSpace::hints_only,
                    RewardSpec::efficiency_only(),
                    config,
                )?;
                // Stage 2 training set: queries the first stage could not serve with an
                // exact viable rewrite, starting from the planning time stage 1 spent.
                let mut second_stage: Vec<(&Query, f64)> = Vec::new();
                for query in training {
                    let space = RewriteSpace::hints_only(query);
                    let outcome = plan_online(
                        &trained_hint.agent,
                        &*db,
                        qte.as_ref(),
                        query,
                        &space,
                        config.tau_ms,
                    )?;
                    let exhausted = matches!(outcome.decision, Decision::Exhausted(_));
                    if exhausted && !outcome.viable && outcome.planning_ms < config.tau_ms {
                        second_stage.push((query, outcome.planning_ms));
                    }
                }
                let approx_space = move |q: &Query| RewriteSpace::approx_only(q, &rules);
                let approx_agent = match second_stage.first() {
                    None => {
                        // Nothing to train on: keep an untrained agent of the right size.
                        let first = training.first().ok_or(Error::EmptyWorkload)?;
                        QAgent::new(approx_space(first).len(), config.tau_ms, config.seed)
                    }
                    Some(&(first, _)) => {
                        let mut agent = QAgent::new(
                            approx_space(first).len(),
                            config.tau_ms,
                            config.seed ^ 0x51A6E2,
                        );
                        // Algorithm 1 again, every episode starting where stage 1
                        // stopped; stage 2 runs every epoch, so no convergence test.
                        run_algorithm1(
                            &*db,
                            qte.as_ref(),
                            &second_stage,
                            &approx_space,
                            reward_quality,
                            &MalivaConfig {
                                convergence_threshold: 0.0,
                                ..config.clone()
                            },
                            &mut agent,
                            ChaCha8Rng::seed_from_u64(config.seed ^ 0x2A6E),
                        )?;
                        agent
                    }
                };
                rewriter.hint_agent = Some(trained_hint.agent);
                rewriter.approx_agent = Some(approx_agent);
            }
        }
        Ok(rewriter)
    }

    /// The approximation rules this rewriter may apply.
    pub fn rules(&self) -> &[ApproxRule] {
        &self.rules
    }

    /// The rewriter mode.
    pub fn mode(&self) -> QualityAwareMode {
        self.mode
    }
}

impl QueryRewriter for QualityAwareRewriter {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn rewrite(&self, query: &Query) -> Result<RewriteDecision> {
        match self.mode {
            QualityAwareMode::OneStage => {
                let agent = self.one_stage_agent.as_ref().ok_or_else(|| {
                    Error::Internal("one-stage rewriter has no trained agent".into())
                })?;
                let space = RewriteSpace::with_approx_rules(query, &self.rules);
                let outcome = plan_online(
                    agent,
                    &*self.db,
                    self.qte.as_ref(),
                    query,
                    &space,
                    self.tau_ms,
                )?;
                Ok(RewriteDecision {
                    rewrite: outcome.rewrite,
                    planning_ms: outcome.planning_ms,
                })
            }
            QualityAwareMode::TwoStage => {
                let hint_agent = self.hint_agent.as_ref().ok_or_else(|| {
                    Error::Internal("two-stage rewriter has no hint agent".into())
                })?;
                let approx_agent = self.approx_agent.as_ref().ok_or_else(|| {
                    Error::Internal("two-stage rewriter has no approx agent".into())
                })?;
                let hint_space = RewriteSpace::hints_only(query);
                let first = plan_online(
                    hint_agent,
                    &*self.db,
                    self.qte.as_ref(),
                    query,
                    &hint_space,
                    self.tau_ms,
                )?;
                let exhausted = matches!(first.decision, Decision::Exhausted(_));
                if exhausted && !first.viable && first.planning_ms < self.tau_ms {
                    let approx_space = RewriteSpace::approx_only(query, &self.rules);
                    let second = plan_online_from(
                        approx_agent,
                        &*self.db,
                        self.qte.as_ref(),
                        query,
                        &approx_space,
                        self.tau_ms,
                        first.planning_ms,
                    )?;
                    return Ok(RewriteDecision {
                        rewrite: second.rewrite,
                        planning_ms: second.planning_ms,
                    });
                }
                Ok(RewriteDecision {
                    rewrite: first.rewrite,
                    planning_ms: first.planning_ms,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_workload;
    use crate::testutil::{tiny_db, workload};
    use maliva_qte::AccurateQte;
    use vizdb::hints::{HintSet, RewriteOption};

    fn fast_config() -> MalivaConfig {
        MalivaConfig {
            max_epochs: 2,
            epsilon_decay_episodes: 60,
            beta: 0.5,
            ..MalivaConfig::fast()
        }
    }

    #[test]
    fn one_stage_rewriter_trains_and_rewrites() {
        let db = tiny_db();
        let qte: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(db.clone()));
        let rewriter = QualityAwareRewriter::train(
            db.clone(),
            qte,
            &workload(8),
            ApproxRule::paper_limit_rules(),
            QualityAwareMode::OneStage,
            &fast_config(),
        )
        .unwrap();
        assert_eq!(rewriter.mode(), QualityAwareMode::OneStage);
        assert_eq!(rewriter.name(), "1-stage MDP");
        let metrics = evaluate_workload(&rewriter, &*db, &workload(6), 500.0).unwrap();
        assert_eq!(metrics.queries, 6);
    }

    #[test]
    fn two_stage_rewriter_trains_and_rewrites() {
        let db = tiny_db();
        let qte: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(db.clone()));
        let rewriter = QualityAwareRewriter::train(
            db.clone(),
            qte,
            &workload(8),
            ApproxRule::paper_limit_rules(),
            QualityAwareMode::TwoStage,
            &fast_config(),
        )
        .unwrap();
        assert_eq!(rewriter.name(), "2-stage MDP");
        let metrics = evaluate_workload(&rewriter, &*db, &workload(6), 500.0).unwrap();
        assert_eq!(metrics.queries, 6);
        // The two-stage rewriter only approximates when no exact option is viable, so
        // at least the easy queries must stay exact.
        assert!(metrics.outcomes.iter().any(|o| o.exact));
    }

    /// The two-stage rewriter's training is pinned: each fixture query's chosen
    /// rewrite and the bits of its planning time, plus a digest of the stage-2
    /// agent. At τ = 150 ms stage 1 finds a viable exact rewrite for 23 of the 24
    /// training queries (one QTE call for most, two for four of them) and exhausts
    /// query 22, so stage 2 trains on that one query (from the 136 ms stage 1
    /// spent) and answers it with a LIMIT. An infinite convergence threshold stops
    /// stage 1 after its second epoch, while stage 2 runs all four: a change to
    /// either stage's training trajectory moves these values.
    #[test]
    fn two_stage_training_is_pinned() {
        let db = tiny_db();
        let qte: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(db.clone()));
        let queries = workload(24);
        let config = MalivaConfig {
            tau_ms: 150.0,
            convergence_threshold: f64::INFINITY,
            ..MalivaConfig::fast().with_beta(0.5)
        };
        let rules = ApproxRule::paper_limit_rules();
        let rewriter = QualityAwareRewriter::train(
            db,
            qte,
            &queries,
            rules,
            QualityAwareMode::TwoStage,
            &config,
        )
        .unwrap();
        let [first, second] =
            [0b10, 0b01].map(|mask| RewriteOption::hinted(HintSet::with_mask(mask)));
        let limit = RewriteOption::approximate(
            HintSet::with_mask(0b100),
            ApproxRule::LimitPermille { permille: 200 },
        );
        for (i, query) in queries.iter().enumerate() {
            let decision = rewriter.rewrite(query).unwrap();
            let (rewrite, planning_ms) = match i {
                22 => (&limit, 178.0),
                8 | 11 | 21 | 23 => (&second, 84.0),
                _ => (&first, 42.0),
            };
            assert_eq!(&decision.rewrite, rewrite, "query {i}");
            assert_eq!(
                decision.planning_ms.to_bits(),
                f64::to_bits(planning_ms),
                "query {i}"
            );
        }
        let stage_2 = rewriter.approx_agent.as_ref().unwrap().to_json().unwrap();
        let digest = vizdb::fingerprint::Fingerprint::new()
            .write_str(&stage_2)
            .finish();
        assert_eq!(digest, 6_454_600_289_497_316_896, "stage-2 agent changed");
    }

    #[test]
    fn empty_training_workload_is_an_error_in_both_modes() {
        let db = tiny_db();
        let qte: Arc<dyn QueryTimeEstimator> = Arc::new(AccurateQte::new(db.clone()));
        for mode in [QualityAwareMode::OneStage, QualityAwareMode::TwoStage] {
            let trained = QualityAwareRewriter::train(
                db.clone(),
                qte.clone(),
                &[],
                ApproxRule::paper_limit_rules(),
                mode,
                &fast_config(),
            );
            assert_eq!(trained.err(), Some(Error::EmptyWorkload));
        }
    }
}
