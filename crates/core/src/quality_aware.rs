//! Quality-aware query rewriting (paper §6): rewrite options may include approximation
//! rules, the reward blends efficiency with visualization quality (Eq. 2), and two
//! rewriter architectures are offered — one-stage and two-stage.

use std::sync::Arc;

use maliva_nn::Adam;
use maliva_qte::QueryTimeEstimator;
use maliva_quality::QualityFunction;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vizdb::approx::ApproxRule;
use vizdb::error::Result;
use vizdb::query::Query;
use vizdb::QueryBackend;

use crate::agent::{EpsilonSchedule, Experience, QAgent, QScratch, ReplayMemory};
use crate::config::MalivaConfig;
use crate::mdp::{Decision, PlanningEnv, RewardSpec};
use crate::online::{plan_online, plan_online_from};
use crate::rewriter::{QueryRewriter, RewriteDecision};
use crate::space::RewriteSpace;
use crate::train::train_agent;

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
    /// `config.beta` weights efficiency against quality in the Eq. 2 reward.
    pub fn train(
        db: Arc<dyn QueryBackend>,
        qte: Arc<dyn QueryTimeEstimator>,
        training: &[Query],
        rules: Vec<ApproxRule>,
        mode: QualityAwareMode,
        quality_function: QualityFunction,
        config: &MalivaConfig,
    ) -> Result<Self> {
        let reward_quality = RewardSpec::quality_aware(config.beta, quality_function);
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
                    &db,
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
                    &db,
                    qte.as_ref(),
                    training,
                    &RewriteSpace::hints_only,
                    RewardSpec::efficiency_only(),
                    config,
                )?;
                // Stage 2 training set: queries the first stage could not serve with an
                // exact viable rewrite, starting from the planning time stage 1 spent.
                let mut second_stage: Vec<(Query, f64)> = Vec::new();
                for query in training {
                    let space = RewriteSpace::hints_only(query);
                    let outcome = plan_online(
                        &trained_hint.agent,
                        &db,
                        qte.as_ref(),
                        query,
                        &space,
                        config.tau_ms,
                    )?;
                    let exhausted = matches!(outcome.decision, Decision::Exhausted(_));
                    if exhausted && !outcome.viable && outcome.planning_ms < config.tau_ms {
                        second_stage.push((query.clone(), outcome.planning_ms));
                    }
                }
                let approx_agent = if second_stage.is_empty() {
                    // Nothing to train on: keep an untrained agent of the right size.
                    let space = RewriteSpace::approx_only(&training[0], &rules);
                    QAgent::new(space.len(), config.tau_ms, config.seed)
                } else {
                    train_quality_agent_with_elapsed(
                        &db,
                        qte.as_ref(),
                        &second_stage,
                        &rules,
                        reward_quality,
                        config,
                    )?
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
                    vizdb::error::Error::Internal("one-stage rewriter has no trained agent".into())
                })?;
                let space = RewriteSpace::with_approx_rules(query, &self.rules);
                let outcome = plan_online(
                    agent,
                    &self.db,
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
                    vizdb::error::Error::Internal("two-stage rewriter has no hint agent".into())
                })?;
                let approx_agent = self.approx_agent.as_ref().ok_or_else(|| {
                    vizdb::error::Error::Internal("two-stage rewriter has no approx agent".into())
                })?;
                let hint_space = RewriteSpace::hints_only(query);
                let first = plan_online(
                    hint_agent,
                    &self.db,
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
                        &self.db,
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

/// Trains the second-stage quality-aware agent over the approximate rewrite space,
/// starting every episode from the planning time the first stage already spent
/// (mirrors Algorithm 1 with a non-zero initial elapsed time).
fn train_quality_agent_with_elapsed(
    db: &dyn QueryBackend,
    qte: &dyn QueryTimeEstimator,
    workload: &[(Query, f64)],
    rules: &[ApproxRule],
    reward: RewardSpec,
    config: &MalivaConfig,
) -> Result<QAgent> {
    let space_size = RewriteSpace::approx_only(&workload[0].0, rules).len();
    let mut agent = QAgent::new(space_size, config.tau_ms, config.seed ^ 0x51A6E2);
    let mut replay = ReplayMemory::new(config.replay_capacity);
    let mut optimizer = Adam::new(config.learning_rate);
    let epsilon = EpsilonSchedule::new(
        config.epsilon_start,
        config.epsilon_end,
        config.epsilon_decay_episodes,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x2A6E);
    let mut episode = 0usize;

    for _epoch in 0..config.max_epochs {
        let mut order: Vec<usize> = (0..workload.len()).collect();
        order.shuffle(&mut rng);
        for &qi in &order {
            let (query, initial_elapsed) = &workload[qi];
            let space = RewriteSpace::approx_only(query, rules);
            let mut env = PlanningEnv::with_initial_elapsed(
                db,
                qte,
                query,
                &space,
                config.tau_ms,
                reward,
                *initial_elapsed,
            );
            let eps = epsilon.value(episode);
            let mut scratch = QScratch::default();
            while !env.is_done() {
                let remaining = env.remaining().to_vec();
                // `choose` stays inside the epsilon branch so the seeded RNG stream
                // matches the sibling loop in `train::train_agent` draw for draw.
                let action = if rng.gen::<f64>() < eps {
                    *remaining.choose(&mut rng).ok_or_else(|| {
                        vizdb::error::Error::Internal(
                            "planning episode not done but no actions remain".into(),
                        )
                    })?
                } else {
                    agent.best_action(env.state(), &remaining, &mut scratch)
                };
                let step = env.step(action)?;
                replay.push(Experience {
                    state: step.prev_features,
                    action: step.action,
                    next_state: step.next_features,
                    reward: step.reward,
                    terminal: step.terminal.is_some(),
                    next_remaining: step.next_remaining,
                });
            }
            let batch = replay.sample(config.batch_size, &mut rng);
            agent.train_on_batch(&batch, config.gamma, &mut optimizer);
            episode += 1;
            if episode.is_multiple_of(config.target_sync_episodes) {
                agent.sync_target();
            }
        }
    }
    agent.sync_target();
    Ok(agent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_workload;
    use crate::testutil::{tiny_db, workload};
    use maliva_qte::AccurateQte;

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
            QualityFunction::Jaccard,
            &fast_config(),
        )
        .unwrap();
        assert_eq!(rewriter.mode(), QualityAwareMode::OneStage);
        assert_eq!(rewriter.name(), "1-stage MDP");
        let metrics = evaluate_workload(&rewriter, &db, &workload(6), 500.0).unwrap();
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
            QualityFunction::Jaccard,
            &fast_config(),
        )
        .unwrap();
        assert_eq!(rewriter.name(), "2-stage MDP");
        let metrics = evaluate_workload(&rewriter, &db, &workload(6), 500.0).unwrap();
        assert_eq!(metrics.queries, 6);
        // The two-stage rewriter only approximates when no exact option is viable, so
        // at least the easy queries must stay exact.
        assert!(metrics.outcomes.iter().any(|o| o.exact));
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
                QualityFunction::Jaccard,
                &fast_config(),
            );
            assert_eq!(trained.err(), Some(vizdb::error::Error::EmptyWorkload));
        }
    }
}
