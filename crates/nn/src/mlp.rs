//! Multi-layer perceptron with ReLU hidden layers and a linear output layer.

use serde::{Deserialize, Serialize};

use crate::activation::{relu_derivative, relu_inplace};
use crate::linear::Dense;
use crate::optim::Adam;
use crate::ShapeError;

/// The two activation buffers [`Mlp::forward_into`] alternates between; reuse one
/// across calls so inference allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Activations {
    current: Vec<f64>,
    next: Vec<f64>,
}

/// A feed-forward network: `Dense -> ReLU -> ... -> Dense` (no activation on the output
/// layer), exactly the shape of Maliva's Q-network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Creates a network with the given layer sizes, e.g. `&[7, 8, 8, 4]` for a
    /// 7-input, 4-output network with two hidden layers of 8 units.
    ///
    /// # Panics
    /// Panics when fewer than two sizes are given.
    pub fn new(layer_sizes: &[usize], seed: u64) -> Self {
        assert!(
            layer_sizes.len() >= 2,
            "need at least input and output sizes"
        );
        let layers = layer_sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Dense::new(w[0], w[1], seed.wrapping_add(i as u64 * 7919)))
            .collect();
        Self { layers }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(Dense::in_dim).unwrap_or(0)
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map(Dense::out_dim).unwrap_or(0)
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward pass returning the output vector.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut buffers = Activations::default();
        self.forward_into(input, &mut buffers);
        buffers.current
    }

    /// [`Self::forward`] through caller-owned buffers, returning the output; nothing
    /// is allocated once the buffers have grown to the widest layer.
    ///
    /// # Panics
    /// Panics when `input.len()` is not the input dimensionality.
    pub fn forward_into<'b>(&self, input: &[f64], buffers: &'b mut Activations) -> &'b [f64] {
        let Activations { current, next } = buffers;
        current.clear();
        current.extend_from_slice(input);
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward_into(current, next);
            if i < last {
                relu_inplace(next);
            }
            std::mem::swap(current, next);
        }
        current
    }

    /// Checks that the network can run: at least one layer, every layer's
    /// parameters sized by its dimensions, and each layer's input the previous
    /// layer's output. A deserialized network guarantees none of these.
    pub fn check_shape(&self) -> Result<(), ShapeError> {
        if self.layers.is_empty() {
            return Err(ShapeError::NoLayers);
        }
        for (i, layer) in self.layers.iter().enumerate() {
            layer.check_shape(i)?;
            if let Some(previous) = i.checked_sub(1).map(|p| &self.layers[p]) {
                if previous.out_dim() != layer.in_dim() {
                    return Err(ShapeError::Chain {
                        layer: i,
                        in_dim: layer.in_dim(),
                        previous_out_dim: previous.out_dim(),
                    });
                }
            }
        }
        Ok(())
    }

    /// One masked minibatch step, the DQN update: each `(input, action, target)`
    /// puts a target on output `action` alone, and each layer takes one Adam step on
    /// the batch-mean gradient of those squared errors, computed through per-layer
    /// buffers every experience reuses. Returns the mean squared error before the
    /// update; an empty batch changes nothing.
    ///
    /// # Panics
    /// Panics when an `action` is not an output unit.
    pub fn train_batch_masked<'a>(
        &mut self,
        batch: impl ExactSizeIterator<Item = (&'a [f64], usize, f64)>,
        opt: &mut Adam,
    ) -> f64 {
        let (size, last) = (batch.len() as f64, self.layers.len() - 1);
        if batch.len() == 0 {
            return 0.0;
        }
        // `acts[i]` is layer `i`'s input and `acts[last + 1]` the output; a hidden
        // unit's ReLU passes gradient exactly where its activation is positive.
        let mut acts = vec![Vec::new(); last + 2];
        let (mut grad, mut grad_input, mut total) = (Vec::new(), Vec::new(), 0.0);
        // The optimizer keeps the gradient buffers; they are lent out for the
        // batch so the Adam steps below can borrow the optimizer.
        let mut grads = std::mem::take(&mut opt.grads);
        grads.resize_with(self.layers.len(), Default::default);
        for (layer, grad) in self.layers.iter().zip(&mut grads) {
            layer.zero_grad(grad);
        }
        for (input, action, target) in batch {
            acts[0].clear();
            acts[0].extend_from_slice(input);
            for (i, layer) in self.layers.iter().enumerate() {
                let (done, rest) = acts.split_at_mut(i + 1);
                layer.forward_into(&done[i], &mut rest[0]);
                if i < last {
                    relu_inplace(&mut rest[0]);
                }
            }
            let output = &acts[last + 1];
            assert!(action < output.len(), "action index out of range");
            let error = output[action] - target;
            total += error * error;
            grad.clear();
            grad.resize(output.len(), 0.0);
            grad[action] = 2.0 * error / size;
            for i in (0..=last).rev() {
                if i < last {
                    for (g, &a) in grad.iter_mut().zip(&acts[i + 1]) {
                        *g *= relu_derivative(a);
                    }
                }
                // Nothing reads the gradient of the network's own input.
                let wanted = (i > 0).then_some(&mut grad_input);
                self.layers[i].backward(&acts[i], &grad, &mut grads[i], wanted);
                std::mem::swap(&mut grad, &mut grad_input);
            }
        }
        for (i, (layer, grad)) in self.layers.iter_mut().zip(&grads).enumerate() {
            layer.adam_step(i, grad, opt);
        }
        opt.grads = grads;
        total / size
    }

    /// Copies all weights and biases from `other` (used for Q-learning target
    /// networks).
    ///
    /// # Panics
    /// Panics when the architectures differ.
    pub fn copy_weights_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "architecture mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.copy_params_from(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architecture_dimensions() {
        let net = Mlp::new(&[7, 8, 8, 4], 0);
        assert_eq!(net.input_dim(), 7);
        assert_eq!(net.output_dim(), 4);
        assert_eq!(net.param_count(), 7 * 8 + 8 + 8 * 8 + 8 + 8 * 4 + 4);
    }

    /// One buffer pair serves networks of every width, and its output is the
    /// layer-by-layer composition's, bit for bit.
    #[test]
    fn forward_into_matches_forward_bit_for_bit() {
        let mut buffers = Activations::default();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (sizes, seed) in [
            (&[7usize, 8, 8, 4][..], 1),
            (&[3, 5, 2][..], 2),
            (&[17, 17, 17, 8][..], 3),
            (&[2, 1][..], 4),
        ] {
            let net = Mlp::new(sizes, seed);
            assert_eq!(net.check_shape(), Ok(()));
            for k in 0..5 {
                let input: Vec<f64> = (0..sizes[0])
                    .map(|i| ((i * 7 + k) as f64).sin() * 3.0)
                    .collect();
                let mut want = input.clone();
                for (i, layer) in net.layers.iter().enumerate() {
                    let mut out = Vec::new();
                    layer.forward_into(&want, &mut out);
                    want = out;
                    if i + 1 < net.layers.len() {
                        relu_inplace(&mut want);
                    }
                }
                assert_eq!(bits(&net.forward(&input)), bits(&want));
                assert_eq!(bits(net.forward_into(&input, &mut buffers)), bits(&want));
            }
        }
    }

    #[test]
    fn forward_output_has_right_size() {
        let net = Mlp::new(&[3, 5, 2], 1);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3]).len(), 2);
    }

    #[test]
    fn training_reduces_loss_on_regression_task() {
        let mut net = Mlp::new(&[2, 16, 1], 3);
        let mut opt = Adam::new(0.01);
        let data: Vec<([f64; 2], f64)> = (0..50)
            .map(|i| {
                let x0 = (i % 10) as f64 / 10.0;
                let x1 = (i / 10) as f64 / 5.0;
                ([x0, x1], 0.5 * x0 - 0.3 * x1 + 0.1)
            })
            .collect();
        let loss_of = |net: &Mlp| -> f64 {
            data.iter()
                .map(|(x, y)| {
                    let p = net.forward(x)[0];
                    (p - y) * (p - y)
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let before = loss_of(&net);
        for _ in 0..200 {
            for chunk in data.chunks(5) {
                net.train_batch_masked(chunk.iter().map(|(x, y)| (&x[..], 0, *y)), &mut opt);
            }
        }
        let after = loss_of(&net);
        assert!(after < before / 10.0, "loss before {before}, after {after}");
        assert!(after < 0.01, "final loss {after}");
    }

    #[test]
    fn masked_training_only_moves_selected_output() {
        let mut net = Mlp::new(&[2, 8, 3], 5);
        let mut opt = Adam::new(0.02);
        let input = [0.5, -0.2];
        let before = net.forward(&input);
        for _ in 0..300 {
            net.train_batch_masked(std::iter::once((&input[..], 1, 2.0)), &mut opt);
        }
        let after = net.forward(&input);
        assert!(
            (after[1] - 2.0).abs() < 0.1,
            "trained output {:.3}",
            after[1]
        );
        // The untouched outputs may drift through shared hidden layers but should stay
        // far from the trained target magnitude relative to their start.
        assert!((after[1] - before[1]).abs() > 0.5);
    }

    /// A batch of one is the per-experience step this crate used to take, bit for
    /// bit (the digest was taken with that step, over the network's dimensions,
    /// weights and biases), a batch of one experience twice takes the same
    /// update, and Adam counts one step per batch.
    #[test]
    fn a_batch_takes_one_adam_step_on_the_mean_gradient() {
        let (mut one, mut twice) = (Mlp::new(&[5, 6, 6, 3], 11), Mlp::new(&[5, 6, 6, 3], 11));
        let (mut opt_one, mut opt_twice) = (Adam::new(0.01), Adam::new(0.01));
        for k in 0..40usize {
            let input: Vec<f64> = (0..5).map(|i| ((i * 5 + k) as f64).sin()).collect();
            let experience = (&input[..], k % 3, (k as f64 * 0.7).cos());
            one.train_batch_masked(std::iter::once(experience), &mut opt_one);
            twice.train_batch_masked([experience; 2].into_iter(), &mut opt_twice);
        }
        let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        let digest = format!("{one:?}").bytes().fold(0xcbf2_9ce4_8422_2325, fnv);
        assert_eq!(digest, 5_980_802_190_311_076_302);
        let state = |net: &Mlp, opt: &Adam| format!("{net:?}{opt:?}");
        assert_eq!(state(&one, &opt_one), state(&twice, &opt_twice));
        assert!(opt_one.state.iter().all(|layer| layer.t == 40));
    }

    #[test]
    fn copy_weights_clones_behaviour() {
        let mut a = Mlp::new(&[3, 6, 2], 1);
        let b = Mlp::new(&[3, 6, 2], 99);
        let x = [0.3, 0.1, -0.7];
        assert_ne!(a.forward(&x), b.forward(&x));
        a.copy_weights_from(&b);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn copy_weights_rejects_mismatched_architectures() {
        let mut a = Mlp::new(&[2, 4, 1], 0);
        let b = Mlp::new(&[2, 5, 1], 0);
        a.copy_weights_from(&b);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn single_layer_size_panics() {
        let _ = Mlp::new(&[3], 0);
    }
}
