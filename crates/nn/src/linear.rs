//! Fully-connected (dense) layers.

use serde::{Deserialize, Serialize};

use crate::init::xavier_uniform;
use crate::optim::Adam;
use crate::ShapeError;

/// A dense layer computing `y = W x + b` with `W` of shape `(out, in)`. It
/// holds its parameters only; the gradients a training step accumulates live
/// with the optimizer's state ([`DenseGrad`] in [`Adam`]), so a serialized
/// layer is its dimensions, weights and biases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major weights: `weights[o * in_dim + i]`.
    weights: Vec<f64>,
    biases: Vec<f64>,
}

/// The gradients [`Dense::backward`] accumulates for one layer, laid out
/// like its weights and biases.
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseGrad {
    weights: Vec<f64>,
    biases: Vec<f64>,
}

impl Dense {
    /// Creates a layer with Xavier-initialised weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            in_dim,
            out_dim,
            weights: xavier_uniform(in_dim, out_dim, seed),
            biases: vec![0.0; out_dim],
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass for a single sample into a caller-owned buffer, which is
    /// overwritten; nothing is allocated once `out` has grown to `out_dim`.
    ///
    /// # Panics
    /// Panics when `input.len() != in_dim`.
    pub fn forward_into(&self, input: &[f64], out: &mut Vec<f64>) {
        assert_eq!(input.len(), self.in_dim, "dense layer input size mismatch");
        out.clear();
        out.extend_from_slice(&self.biases);
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = 0.0;
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            *out_v += acc;
        }
    }

    /// Checks that the parameter vectors match the declared dimensions, which a
    /// deserialized layer does not guarantee; `layer` is its position in the network.
    pub(crate) fn check_shape(&self, layer: usize) -> Result<(), ShapeError> {
        let expected = self.in_dim.checked_mul(self.out_dim);
        if expected != Some(self.weights.len()) || self.biases.len() != self.out_dim {
            return Err(ShapeError::Parameters {
                layer,
                in_dim: self.in_dim,
                out_dim: self.out_dim,
                weights: self.weights.len(),
                biases: self.biases.len(),
            });
        }
        Ok(())
    }

    /// Backward pass for a single sample `x`: accumulates weight/bias gradients
    /// into `grad` (shaped by [`Self::zero_grad`]) and, when `grad_in` is given,
    /// overwrites it with the gradient with respect to `x`. Outputs with a zero
    /// gradient (masked, or behind an inactive ReLU) add nothing and are skipped.
    pub(crate) fn backward(
        &self,
        x: &[f64],
        grad_out: &[f64],
        grad: &mut DenseGrad,
        mut grad_in: Option<&mut Vec<f64>>,
    ) {
        assert_eq!(grad_out.len(), self.out_dim, "grad_output size mismatch");
        assert_eq!(x.len(), self.in_dim, "input size mismatch");
        if let Some(grad_in) = grad_in.as_deref_mut() {
            grad_in.clear();
            grad_in.resize(self.in_dim, 0.0);
        }
        for (o, &go) in grad_out.iter().enumerate().filter(|(_, &go)| go != 0.0) {
            grad.biases[o] += go;
            let row = o * self.in_dim..(o + 1) * self.in_dim;
            for (g, xi) in grad.weights[row.clone()].iter_mut().zip(x) {
                *g += go * xi;
            }
            if let Some(grad_in) = grad_in.as_deref_mut() {
                for (g, w) in grad_in.iter_mut().zip(&self.weights[row]) {
                    *g += go * w;
                }
            }
        }
    }

    /// Shapes `grad` for this layer and clears it.
    pub(crate) fn zero_grad(&self, grad: &mut DenseGrad) {
        for (buffer, len) in [
            (&mut grad.weights, self.weights.len()),
            (&mut grad.biases, self.biases.len()),
        ] {
            buffer.clear();
            buffer.resize(len, 0.0);
        }
    }

    /// Applies one Adam update to the weights and biases from `grad`, the
    /// gradients of the last backward passes; `layer` keys the layer's moment
    /// estimates.
    pub(crate) fn adam_step(&mut self, layer: usize, grad: &DenseGrad, opt: &mut Adam) {
        opt.step(
            layer,
            &mut self.weights,
            &grad.weights,
            &mut self.biases,
            &grad.biases,
        );
    }

    /// Copies `other`'s weights and biases.
    ///
    /// # Panics
    /// Panics when the two layers' parameter shapes differ.
    pub(crate) fn copy_params_from(&mut self, other: &Dense) {
        assert!(
            self.weights.len() == other.weights.len() && self.biases.len() == other.biases.len(),
            "architecture mismatch"
        );
        self.weights.copy_from_slice(&other.weights);
        self.biases.copy_from_slice(&other.biases);
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.biases.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(layer: &Dense, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        layer.forward_into(input, &mut out);
        out
    }

    #[test]
    fn forward_computes_affine_map() {
        let mut layer = Dense::new(2, 1, 0);
        // Overwrite weights for a deterministic check: y = 3*x0 - x1 + 0.5
        layer.weights = vec![3.0, -1.0];
        layer.biases = vec![0.5];
        let y = forward(&layer, &[2.0, 4.0]);
        assert_eq!(y, vec![2.5]);
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let layer = Dense::new(3, 2, 9);
        let input = [0.5, -1.0, 2.0];
        let grad_out = [1.0, -0.5];

        let mut grad = DenseGrad::default();
        layer.zero_grad(&mut grad);
        let out_base = forward(&layer, &input);
        layer.backward(&input, &grad_out, &mut grad, None);
        let grads = [&grad.weights[..], &grad.biases[..]].concat();

        // Finite differences over a few parameters.
        let eps = 1e-6;
        let scalar = |out: &[f64]| out[0] * grad_out[0] + out[1] * grad_out[1];
        for check_idx in [0usize, 3, 5, 6, 7] {
            let mut perturbed = layer.clone();
            match check_idx.checked_sub(perturbed.weights.len()) {
                None => perturbed.weights[check_idx] += eps,
                Some(bias) => perturbed.biases[bias] += eps,
            }
            let out_p = forward(&perturbed, &input);
            let numeric = (scalar(&out_p) - scalar(&out_base)) / eps;
            assert!(
                (numeric - grads[check_idx]).abs() < 1e-4,
                "param {check_idx}: numeric {numeric} vs analytic {}",
                grads[check_idx]
            );
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_differences() {
        let layer = Dense::new(3, 2, 4);
        let input = [0.3, 0.7, -0.2];
        let grad_out = [0.8, 1.2];
        let base = forward(&layer, &input);
        let scalar = |out: &[f64]| out[0] * grad_out[0] + out[1] * grad_out[1];
        let mut grad = DenseGrad::default();
        layer.zero_grad(&mut grad);
        let mut grad_in = Vec::new();
        layer.backward(&input, &grad_out, &mut grad, Some(&mut grad_in));
        let eps = 1e-6;
        for i in 0..3 {
            let mut x = input;
            x[i] += eps;
            let numeric = (scalar(&forward(&layer, &x)) - scalar(&base)) / eps;
            assert!((numeric - grad_in[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn zero_grad_resets_accumulation() {
        let layer = Dense::new(2, 2, 1);
        let mut grad = DenseGrad::default();
        layer.zero_grad(&mut grad);
        layer.backward(&[1.0, 1.0], &[1.0, 1.0], &mut grad, None);
        assert!(grad.weights.iter().chain(&grad.biases).any(|&g| g != 0.0));
        layer.zero_grad(&mut grad);
        assert_eq!((grad.weights.len(), grad.biases.len()), (4, 2));
        assert!(grad.weights.iter().chain(&grad.biases).all(|&g| g == 0.0));
    }

    /// A layer serializes its dimensions, weights and biases and nothing else:
    /// training leaves no gradient in it, so a target network's sync, which
    /// copies weights and biases, makes it the source's equal.
    #[test]
    fn a_layer_serializes_its_parameters_only() {
        let src = Dense::new(3, 2, 1);
        let mut grad = DenseGrad::default();
        src.zero_grad(&mut grad);
        src.backward(&[1.0, 2.0, 3.0], &[1.0, -1.0], &mut grad, None);
        let mut dst = Dense::new(3, 2, 2);
        dst.copy_params_from(&src);
        let json = serde_json::to_value(&dst).unwrap();
        let fields: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["in_dim", "out_dim", "weights", "biases"]);
        assert_eq!(json, serde_json::to_value(&src).unwrap());
    }

    #[test]
    fn param_count_matches_dims() {
        let layer = Dense::new(5, 3, 0);
        assert_eq!(layer.param_count(), 5 * 3 + 3);
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn wrong_input_size_panics() {
        let layer = Dense::new(3, 1, 0);
        let _ = forward(&layer, &[1.0]);
    }
}
