//! # maliva-nn — a minimal neural-network library
//!
//! Maliva's Q-network (paper Fig. 8) is a small multi-layer perceptron: an input layer
//! of size `2n + 1` (elapsed time, `n` estimation costs, `n` estimated times), two
//! fully-connected ReLU hidden layers of similar size, and a linear output layer with
//! one Q-value per rewrite option. Training takes one Adam step per replay minibatch
//! on the batch-mean squared error of each taken action's Q-value against its
//! Bellman target ([`Mlp::train_batch_masked`]); the other outputs get no gradient.
//!
//! The Rust ML ecosystem is not suited to training such models offline inside a
//! reproducible, dependency-free build, so this crate implements exactly what is
//! needed from scratch: dense layers, ReLU, that masked minibatch step, Adam (which
//! updates each layer's weights and biases in place), Xavier initialisation and
//! (de)serialisation of trained weights.
//!
//! ```
//! use maliva_nn::{Mlp, Adam};
//!
//! // Learn y = x0 + 2*x1 with a tiny network; its one output is unit 0.
//! let mut net = Mlp::new(&[2, 8, 8, 1], 7);
//! let mut opt = Adam::new(0.01);
//! let data = [([0.0, 0.0], 0.0), ([1.0, 0.0], 1.0), ([0.0, 1.0], 2.0), ([1.0, 1.0], 3.0)];
//! for _ in 0..600 {
//!     net.train_batch_masked(data.iter().map(|(x, y)| (&x[..], 0, *y)), &mut opt);
//! }
//! let pred = net.forward(&[1.0, 1.0])[0];
//! assert!((pred - 3.0).abs() < 0.2, "prediction {pred}");
//! ```

pub mod activation;
pub mod init;
pub mod linear;
pub mod mlp;
pub mod optim;

pub use linear::Dense;
pub use mlp::{Activations, Mlp};
pub use optim::Adam;

use std::fmt;

/// Why a network's parameters cannot run a forward pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// The network has no layers.
    NoLayers,
    /// A layer's weight or bias vector does not match its dimensions.
    Parameters {
        /// Position of the layer in the network.
        layer: usize,
        /// Declared input dimensionality.
        in_dim: usize,
        /// Declared output dimensionality.
        out_dim: usize,
        /// Length of the weight vector (should be `in_dim * out_dim`).
        weights: usize,
        /// Length of the bias vector (should be `out_dim`).
        biases: usize,
    },
    /// A layer's input is not the previous layer's output.
    Chain {
        /// Position of the layer in the network.
        layer: usize,
        /// Its declared input dimensionality.
        in_dim: usize,
        /// The previous layer's output dimensionality.
        previous_out_dim: usize,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::NoLayers => write!(f, "network has no layers"),
            ShapeError::Parameters {
                layer,
                in_dim,
                out_dim,
                weights,
                biases,
            } => write!(
                f,
                "layer {layer} is {in_dim}x{out_dim} but holds {weights} weights and {biases} biases"
            ),
            ShapeError::Chain {
                layer,
                in_dim,
                previous_out_dim,
            } => write!(
                f,
                "layer {layer} takes {in_dim} inputs but the layer before it outputs {previous_out_dim}"
            ),
        }
    }
}

impl std::error::Error for ShapeError {}
