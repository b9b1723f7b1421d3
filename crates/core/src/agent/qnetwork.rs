//! The Q-network agent (paper Fig. 8): a small MLP mapping an MDP state to one Q-value
//! per rewrite option.

use std::fmt;

use maliva_nn::{Activations, Adam, Mlp, ShapeError};
use serde::{Deserialize, Serialize};

use crate::agent::replay::Experience;
use crate::mdp::MdpState;

/// A Q-learning agent over a fixed-size rewrite space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QAgent {
    network: Mlp,
    target_network: Mlp,
    n_actions: usize,
    tau_ms: f64,
}

/// Why an agent cannot plan: its JSON does not parse, or its networks do not fit
/// its action count. Deserialization checks neither shape, so a loaded or embedded
/// agent is checked before it runs.
#[derive(Debug)]
pub enum AgentError {
    /// The JSON does not describe an agent.
    Json(serde_json::Error),
    /// A network's layers cannot run a forward pass.
    Network(ShapeError),
    /// A network's input is not `2n + 1` features or its output not `n` Q-values.
    Dimensions {
        /// The agent's action count `n`.
        n_actions: usize,
        /// The network's input dimensionality.
        input: usize,
        /// The network's output dimensionality.
        output: usize,
    },
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::Json(err) => write!(f, "agent JSON does not parse: {err}"),
            AgentError::Network(err) => write!(f, "agent network is malformed: {err}"),
            AgentError::Dimensions {
                n_actions,
                input,
                output,
            } => write!(
                f,
                "agent network maps {input} inputs to {output} outputs, but {n_actions} \
                 actions need 2 x {n_actions} + 1 inputs and {n_actions} outputs"
            ),
        }
    }
}

impl std::error::Error for AgentError {}

/// The buffers one planning loop reuses across its [`QAgent::best_action`] calls:
/// the encoded state and the network's activations.
#[derive(Debug, Clone, Default)]
pub struct QScratch {
    features: Vec<f64>,
    activations: Activations,
}

// Inference (`best_action`) takes `&self` and the networks are
// plain data, so one trained agent can be shared across serving threads behind
// an `Arc` without locking; keep that contract visible at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QAgent>();
};

impl QAgent {
    /// Creates an agent for a rewrite space of `n_actions` options and a budget of
    /// `tau_ms` (used to normalise state features). The network has two hidden layers
    /// sized like the input layer, as in the paper.
    pub fn new(n_actions: usize, tau_ms: f64, seed: u64) -> Self {
        let input = MdpState::feature_dim(n_actions);
        let hidden = input.max(8);
        let network = Mlp::new(&[input, hidden, hidden, n_actions], seed);
        let target_network = network.clone();
        Self {
            network,
            target_network,
            n_actions,
            tau_ms,
        }
    }

    /// Number of actions (rewrite options) the agent chooses between.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// The budget the agent was trained for.
    pub fn tau_ms(&self) -> f64 {
        self.tau_ms
    }

    /// The remaining action with the highest Q-value (paper Algorithm 2 line 5);
    /// `None` when `remaining` is empty. The state is encoded and the network run
    /// in `scratch`, so a loop that keeps one allocates nothing per step.
    ///
    /// # Panics
    /// Panics when the network does not fit the state (see [`Self::check_shape`]).
    pub fn best_action(
        &self,
        state: &MdpState,
        remaining: &[usize],
        scratch: &mut QScratch,
    ) -> Option<usize> {
        if remaining.is_empty() {
            return None;
        }
        state.write_features(self.tau_ms, &mut scratch.features);
        let q = self
            .network
            .forward_into(&scratch.features, &mut scratch.activations);
        remaining
            .iter()
            .copied()
            .max_by(|&a, &b| q[a].partial_cmp(&q[b]).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Checks that both networks run and map `2n + 1` state features to `n` Q-values
    /// for this agent's `n` actions.
    pub fn check_shape(&self) -> Result<(), AgentError> {
        for network in [&self.network, &self.target_network] {
            network.check_shape().map_err(AgentError::Network)?;
            let (input, output) = (network.input_dim(), network.output_dim());
            let features = self.n_actions.checked_mul(2).and_then(|d| d.checked_add(1));
            if Some(input) != features || output != self.n_actions {
                return Err(AgentError::Dimensions {
                    n_actions: self.n_actions,
                    input,
                    output,
                });
            }
        }
        Ok(())
    }

    /// One Q-learning update, the DQN step: each experience's Bellman target (its
    /// reward, plus `gamma` times the *target* network's highest Q-value over the
    /// actions remaining in `s'` when `s'` is not terminal and some remain) trains
    /// the taken action's Q-value, and the online network takes one optimizer step
    /// on the batch-mean gradient. Returns the mean squared Bellman error before the
    /// update (0 for an empty batch, which changes nothing).
    pub fn train_on_batch(&mut self, batch: &[&Experience], gamma: f64, opt: &mut Adam) -> f64 {
        let (target_network, mut activations) = (&self.target_network, Activations::default());
        let mut target = |exp: &Experience| {
            if exp.terminal || exp.next_remaining.is_empty() {
                return exp.reward;
            }
            let q = target_network.forward_into(&exp.next_state, &mut activations);
            let best = exp.next_remaining.iter().map(|&a| q[a]);
            exp.reward + gamma * best.fold(f64::NEG_INFINITY, f64::max)
        };
        let batch = batch
            .iter()
            .map(|exp| (&exp.state[..], exp.action, target(exp)));
        self.network.train_batch_masked(batch, opt)
    }

    /// Copies the online network into the target network.
    pub fn sync_target(&mut self) {
        self.target_network.copy_weights_from(&self.network);
    }

    /// Serialises the agent to JSON (for saving trained agents to disk).
    pub fn to_json(&self) -> Result<String, AgentError> {
        serde_json::to_string(self).map_err(AgentError::Json)
    }

    /// Restores an agent serialised with [`Self::to_json`], rejecting one whose
    /// networks do not fit its action count ([`Self::check_shape`]).
    pub fn from_json(json: &str) -> Result<Self, AgentError> {
        let agent: Self = serde_json::from_str(json).map_err(AgentError::Json)?;
        agent.check_shape()?;
        Ok(agent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(n: usize) -> MdpState {
        MdpState::initial(vec![40.0; n])
    }

    #[test]
    fn q_values_have_one_entry_per_action() {
        let agent = QAgent::new(8, 500.0, 1);
        assert_eq!(agent.network.forward(&state(8).to_features(500.0)).len(), 8);
        assert_eq!(agent.n_actions(), 8);
    }

    #[test]
    fn best_action_respects_remaining_mask() {
        let agent = QAgent::new(4, 500.0, 3);
        let s = state(4);
        let mut scratch = QScratch::default();
        let best_all = agent.best_action(&s, &[0, 1, 2, 3], &mut scratch).unwrap();
        assert!(best_all < 4);
        let restricted = agent.best_action(&s, &[2], &mut scratch);
        assert_eq!(restricted, Some(2));
    }

    /// `best_action` through a reused scratch picks what the allocating Q-values
    /// pick, with the same tie rule, as the state changes step by step.
    #[test]
    fn best_action_matches_allocating_q_values() {
        let agent = QAgent::new(8, 500.0, 7);
        assert!(agent.check_shape().is_ok());
        let mut scratch = QScratch::default();
        let mut s = MdpState::initial((0..8).map(|i| 10.0 * i as f64).collect());
        let mut remaining: Vec<usize> = (0..8).collect();
        while !remaining.is_empty() {
            let q = agent.network.forward(&s.to_features(500.0));
            let want = *remaining
                .iter()
                .max_by(|&&a, &&b| q[a].partial_cmp(&q[b]).unwrap())
                .unwrap();
            let got = agent.best_action(&s, &remaining, &mut scratch).unwrap();
            assert_eq!(got, want);
            s.elapsed_ms += 35.0;
            s.estimated_ms[got] = Some(120.0 + got as f64);
            s.costs_ms[got] = 2.0;
            remaining.retain(|&a| a != got);
        }
    }

    /// An experience from the initial state of `n` actions back to it, terminal
    /// when no action remains.
    fn experience(n: usize, action: usize, reward: f64, next_remaining: Vec<usize>) -> Experience {
        let features = state(n).to_features(500.0);
        Experience {
            state: features.clone(),
            action,
            next_state: features,
            reward,
            terminal: next_remaining.is_empty(),
            next_remaining,
        }
    }

    #[test]
    fn training_moves_q_value_towards_target() {
        let mut agent = QAgent::new(3, 500.0, 5);
        let exp = experience(3, 1, 0.8, vec![]);
        let mut opt = Adam::new(0.01);
        for _ in 0..300 {
            agent.train_on_batch(&[&exp], 0.97, &mut opt);
        }
        let q = agent.network.forward(&exp.state);
        assert!((q[1] - 0.8).abs() < 0.1, "q[1] = {}", q[1]);
    }

    /// A non-terminal target is the reward plus γ times the target network's best
    /// Q-value over the remaining actions; the returned error is measured against it.
    #[test]
    fn non_terminal_targets_use_target_network_max() {
        let mut agent = QAgent::new(2, 500.0, 9);
        let exp = experience(2, 0, 0.1, vec![1]);
        let q = agent.network.forward(&exp.state);
        let error = q[0] - (0.1 + 0.9 * q[1]);
        let mut opt = Adam::new(0.005);
        assert_eq!(agent.train_on_batch(&[&exp], 0.9, &mut opt), error * error);
    }

    #[test]
    fn sync_target_aligns_predictions() {
        let mut agent = QAgent::new(3, 500.0, 2);
        let exp = experience(3, 0, 1.0, vec![]);
        let mut opt = Adam::new(0.02);
        for _ in 0..50 {
            agent.train_on_batch(&[&exp], 0.9, &mut opt);
        }
        // Target network still predicts the old values until synced.
        let s = &exp.state;
        assert_ne!(agent.network.forward(s), agent.target_network.forward(s));
        agent.sync_target();
        assert_eq!(agent.network.forward(s), agent.target_network.forward(s));
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let agent = QAgent::new(5, 250.0, 11);
        let s = state(5).to_features(250.0);
        let json = agent.to_json().unwrap();
        let restored = QAgent::from_json(&json).unwrap();
        assert_eq!(agent.network.forward(&s), restored.network.forward(&s));
        assert_eq!(restored.tau_ms(), 250.0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut agent = QAgent::new(2, 500.0, 0);
        let mut opt = Adam::new(0.01);
        assert_eq!(agent.train_on_batch(&[], 0.9, &mut opt), 0.0);
    }

    #[test]
    fn best_action_requires_remaining() {
        let agent = QAgent::new(2, 500.0, 0);
        let best = agent.best_action(&state(2), &[], &mut QScratch::default());
        assert_eq!(best, None, "no remaining actions to choose from");
    }
}
