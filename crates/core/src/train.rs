//! Offline training of the MDP agent (paper Algorithm 1).

use maliva_nn::Adam;
use maliva_qte::QueryTimeEstimator;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vizdb::error::{Error, Result};
use vizdb::query::Query;
use vizdb::QueryBackend;

use crate::agent::{EpsilonSchedule, Experience, QAgent, QScratch, ReplayMemory};
use crate::config::MalivaConfig;
use crate::mdp::{PlanningEnv, RewardSpec};
use crate::space::RewriteSpace;

/// A trained agent bundled with everything needed to use it online.
pub struct TrainedAgent {
    /// The Q-network agent.
    pub agent: QAgent,
    /// The rewrite space the agent was trained over (the same space must be used
    /// online; its size fixes the network dimensions).
    pub space_size: usize,
    /// Training statistics.
    pub report: TrainingReport,
}

/// Statistics of one training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Number of epochs (passes over the training workload) performed.
    pub epochs: usize,
    /// Total number of episodes (query plannings) performed.
    pub episodes: usize,
    /// Total number of environment steps (QTE calls) performed.
    pub steps: usize,
    /// Mean terminal reward per epoch.
    pub epoch_rewards: Vec<f64>,
    /// Fraction of training episodes that ended viable, per epoch.
    pub epoch_vqp: Vec<f64>,
    /// Wall-clock training time in seconds.
    pub wall_clock_secs: f64,
}

impl TrainingReport {
    /// The viable-query percentage of the final epoch, in `[0, 100]`.
    pub fn final_vqp(&self) -> f64 {
        self.epoch_vqp.last().copied().unwrap_or(0.0) * 100.0
    }
}

/// Builds the rewrite space used for a query during training/online planning.
///
/// Most experiments use a fixed space shape (e.g. the 2^m hint sets), so the default
/// builder is [`RewriteSpace::hints_only`]; the quality-aware experiments pass a
/// different builder.
pub type SpaceBuilder = dyn Fn(&Query) -> RewriteSpace + Send + Sync;

/// Trains an MDP agent on `workload` (paper Algorithm 1).
///
/// The rewrite space of every query must have the same size (the Q-network output
/// dimensionality); a query whose space differs is an error.
pub fn train_agent(
    db: &dyn QueryBackend,
    qte: &dyn QueryTimeEstimator,
    workload: &[Query],
    space_builder: &SpaceBuilder,
    reward: RewardSpec,
    config: &MalivaConfig,
) -> Result<TrainedAgent> {
    let Some(first_query) = workload.first() else {
        return Err(Error::EmptyWorkload);
    };
    let n_actions = space_builder(first_query).len();
    let mut agent = QAgent::new(n_actions, config.tau_ms, config.seed);
    let episodes: Vec<(&Query, f64)> = workload.iter().map(|query| (query, 0.0)).collect();
    let report = run_algorithm1(
        db,
        qte,
        &episodes,
        space_builder,
        reward,
        config,
        &mut agent,
        ChaCha8Rng::seed_from_u64(config.seed ^ 0xDA7A),
    )?;
    Ok(TrainedAgent {
        agent,
        space_size: n_actions,
        report,
    })
}

/// Paper Algorithm 1 on a freshly built `agent`: epochs of ε-greedy episodes over
/// `workload` in a shuffled order, each episode starting from its query's elapsed
/// planning time and followed by one replay-minibatch update, with the target
/// network synced every `config.target_sync_episodes` episodes and once at the end.
/// Training stops after `config.max_epochs` epochs, or earlier when an epoch's mean
/// reward moves by less than `config.convergence_threshold` (relative). `rng`
/// drives the shuffles, the ε draws and the replay samples.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_algorithm1(
    db: &dyn QueryBackend,
    qte: &dyn QueryTimeEstimator,
    workload: &[(&Query, f64)],
    space_builder: &SpaceBuilder,
    reward: RewardSpec,
    config: &MalivaConfig,
    agent: &mut QAgent,
    mut rng: ChaCha8Rng,
) -> Result<TrainingReport> {
    if workload.is_empty() {
        return Err(Error::EmptyWorkload);
    }
    let start = std::time::Instant::now();
    let mut replay = ReplayMemory::new(config.replay_capacity);
    let mut optimizer = Adam::new(config.learning_rate);
    let epsilon = EpsilonSchedule::new(
        config.epsilon_start,
        config.epsilon_end,
        config.epsilon_decay_episodes,
    );

    let mut report = TrainingReport::default();
    let mut episode_counter = 0usize;
    let mut prev_epoch_reward = f64::NEG_INFINITY;
    let mut scratch = QScratch::default();

    for epoch in 0..config.max_epochs {
        // Shuffle the workload each epoch to reduce ordering bias (Algorithm 1 line 4).
        let mut order: Vec<usize> = (0..workload.len()).collect();
        order.shuffle(&mut rng);

        let mut epoch_reward = 0.0;
        let mut epoch_viable = 0usize;

        for &qi in &order {
            let (query, initial_elapsed_ms) = workload[qi];
            let space = space_builder(query);
            if space.len() != agent.n_actions() {
                return Err(Error::Internal(format!(
                    "training query {qi} has {} rewrite options but the agent has {}; \
                     all training queries must share the same rewrite-space size",
                    space.len(),
                    agent.n_actions()
                )));
            }
            let mut env = PlanningEnv::with_initial_elapsed(
                db,
                qte,
                query,
                &space,
                config.tau_ms,
                reward,
                initial_elapsed_ms,
            );
            let eps = epsilon.value(episode_counter);

            // One episode: a full sequence of decisions for this query.
            while !env.is_done() {
                let remaining = env.remaining().to_vec();
                let action = if rng.gen::<f64>() < eps {
                    remaining.choose(&mut rng).copied()
                } else {
                    agent.best_action(env.state(), &remaining, &mut scratch)
                };
                let action = action.ok_or_else(|| {
                    Error::Internal("planning episode not done but no actions remain".into())
                })?;
                let step = env.step(action)?;
                report.steps += 1;
                replay.push(Experience {
                    state: step.prev_features,
                    action: step.action,
                    next_state: step.next_features,
                    reward: step.reward,
                    terminal: step.terminal.is_some(),
                    next_remaining: step.next_remaining,
                });
            }
            let outcome = env
                .final_outcome()
                .ok_or_else(|| Error::Internal("planning episode done but not settled".into()))?;
            epoch_reward += outcome.reward;
            if outcome.viable {
                epoch_viable += 1;
            }

            // Update the policy from a random replay sample (Algorithm 1 line 21).
            let batch = replay.sample(config.batch_size, &mut rng);
            agent.train_on_batch(&batch, config.gamma, &mut optimizer);

            episode_counter += 1;
            if episode_counter.is_multiple_of(config.target_sync_episodes) {
                agent.sync_target();
            }
        }

        let mean_reward = epoch_reward / workload.len() as f64;
        report.epoch_rewards.push(mean_reward);
        report
            .epoch_vqp
            .push(epoch_viable as f64 / workload.len() as f64);
        report.epochs = epoch + 1;
        report.episodes = episode_counter;

        // Convergence: stop when the epoch reward stops improving (paper: "until it
        // converges, i.e., the total accumulated reward ... does not improve much").
        if epoch > 0 {
            let improvement = mean_reward - prev_epoch_reward;
            let scale = prev_epoch_reward.abs().max(1e-3);
            if improvement.abs() / scale < config.convergence_threshold {
                break;
            }
        }
        prev_epoch_reward = mean_reward;
    }
    agent.sync_target();
    report.wall_clock_secs = start.elapsed().as_secs_f64();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{make_join_query, make_query, tiny_db, workload};
    use maliva_qte::AccurateQte;

    #[test]
    fn training_produces_an_agent_and_report() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let queries = workload(12);
        let config = MalivaConfig {
            max_epochs: 2,
            ..MalivaConfig::fast()
        };
        let trained = train_agent(
            &*db,
            &qte,
            &queries,
            &RewriteSpace::hints_only,
            RewardSpec::efficiency_only(),
            &config,
        )
        .unwrap();
        assert_eq!(trained.space_size, 8);
        assert!(trained.report.epochs >= 1);
        assert_eq!(trained.report.epoch_rewards.len(), trained.report.epochs);
        assert!(trained.report.episodes >= queries.len());
        assert!(trained.report.steps >= trained.report.episodes);
        assert!(trained.report.wall_clock_secs >= 0.0);
    }

    #[test]
    fn training_improves_over_random_behaviour() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let queries = workload(16);
        let config = MalivaConfig {
            max_epochs: 6,
            epsilon_decay_episodes: 40,
            ..MalivaConfig::fast()
        };
        let trained = train_agent(
            &*db,
            &qte,
            &queries,
            &RewriteSpace::hints_only,
            RewardSpec::efficiency_only(),
            &config,
        )
        .unwrap();
        // The final epoch (mostly exploitation) should achieve a clearly positive
        // viable fraction on this workload, where most queries have viable plans.
        assert!(
            trained.report.final_vqp() > 30.0,
            "final training VQP {} too low",
            trained.report.final_vqp()
        );
    }

    /// Training goes through `PlanningEnv::step` and one minibatch step per
    /// episode: at a fixed seed the serialized agent and the report digest to
    /// the pinned value.
    #[test]
    fn training_at_a_fixed_seed_is_bit_identical_to_the_pinned_run() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let config = MalivaConfig {
            max_epochs: 2,
            ..MalivaConfig::fast().with_seed(7)
        };
        let trained = train_agent(
            &*db,
            &qte,
            &workload(12),
            &RewriteSpace::hints_only,
            RewardSpec::efficiency_only(),
            &config,
        )
        .unwrap();
        let report = &trained.report;
        let mut digest = vizdb::fingerprint::Fingerprint::new();
        digest.write_str(&trained.agent.to_json().unwrap());
        for count in [report.epochs, report.episodes, report.steps] {
            digest.write_u64(count as u64);
        }
        for value in report.epoch_rewards.iter().chain(&report.epoch_vqp) {
            digest.write_f64(*value);
        }
        assert_eq!(
            digest.finish(),
            359_330_426_843_816_732,
            "agent or report changed"
        );
    }

    /// Training at `MalivaConfig::fast()` on the fixture workload is pinned: any
    /// change to the training trajectory (exploration and replay draws, gradient
    /// step, optimizer state, target syncs) moves the FNV-1a digest of the
    /// serialized agent.
    #[test]
    fn fast_training_serializes_to_the_pinned_agent() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let trained = train_agent(
            &*db,
            &qte,
            &workload(12),
            &RewriteSpace::hints_only,
            RewardSpec::efficiency_only(),
            &MalivaConfig::fast(),
        )
        .unwrap();
        let digest = vizdb::fingerprint::Fingerprint::new()
            .write_str(&trained.agent.to_json().unwrap())
            .finish();
        assert_eq!(digest, 5_364_926_315_334_491_031, "trained agent changed");
    }

    /// Every query's rewrite space must be the size of the agent's output layer: a
    /// plain query has 8 hint options, a join query more, and mixing them is an
    /// error rather than a panic.
    #[test]
    fn mismatched_space_sizes_are_an_error() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let trained = train_agent(
            &*db,
            &qte,
            &[make_query(0), make_join_query(1)],
            &RewriteSpace::hints_only,
            RewardSpec::efficiency_only(),
            &MalivaConfig::fast(),
        );
        assert!(matches!(trained.err(), Some(Error::Internal(_))));
    }

    /// The episode loop itself rejects an empty workload (the second stage of the
    /// two-stage rewriter calls it directly).
    #[test]
    fn an_empty_episode_workload_is_an_error() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let config = MalivaConfig::fast();
        let mut agent = QAgent::new(8, config.tau_ms, config.seed);
        let report = run_algorithm1(
            &*db,
            &qte,
            &[],
            &RewriteSpace::hints_only,
            RewardSpec::quality_aware(0.5),
            &config,
            &mut agent,
            ChaCha8Rng::seed_from_u64(config.seed),
        );
        assert_eq!(report.err(), Some(Error::EmptyWorkload));
    }

    #[test]
    fn empty_workload_is_an_error() {
        let db = tiny_db();
        let qte = AccurateQte::new(db.clone());
        let trained = train_agent(
            &*db,
            &qte,
            &[],
            &RewriteSpace::hints_only,
            RewardSpec::efficiency_only(),
            &MalivaConfig::fast(),
        );
        assert_eq!(trained.err(), Some(Error::EmptyWorkload));
    }
}
