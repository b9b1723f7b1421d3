//! The Adam optimizer.

use crate::linear::DenseGrad;

/// Adam optimizer (Kingma & Ba) with per-layer first/second moment state, and
/// the per-layer gradient buffers a minibatch step accumulates into: training
/// state, kept out of the network and so out of its serialized form.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability constant.
    pub epsilon: f64,
    pub(crate) state: Vec<AdamState>,
    /// Each layer's gradients of the current minibatch.
    pub(crate) grads: Vec<DenseGrad>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct AdamState {
    m: Vec<f64>,
    v: Vec<f64>,
    pub(crate) t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with standard hyper-parameters.
    pub fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            state: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// Updates layer `layer`'s weights and biases in place from their gradients.
    /// The layer's moments run over its weights, then its biases, and its step
    /// count advances once per call; a layer whose parameter count changes starts
    /// afresh.
    pub(crate) fn step(
        &mut self,
        layer: usize,
        weights: &mut [f64],
        grad_weights: &[f64],
        biases: &mut [f64],
        grad_biases: &[f64],
    ) {
        if self.state.len() <= layer {
            self.state.resize_with(layer + 1, AdamState::default);
        }
        let (beta1, beta2) = (self.beta1, self.beta2);
        let state = &mut self.state[layer];
        let len = grad_weights.len() + grad_biases.len();
        if state.m.len() != len {
            state.m = vec![0.0; len];
            state.v = vec![0.0; len];
            state.t = 0;
        }
        state.t += 1;
        let t = state.t as f64;
        let bias1 = 1.0 - beta1.powf(t);
        let bias2 = 1.0 - beta2.powf(t);
        let params = weights.iter_mut().chain(biases.iter_mut());
        let grads = grad_weights.iter().chain(grad_biases);
        let moments = state.m.iter_mut().zip(state.v.iter_mut());
        for ((p, &g), (m, v)) in params.zip(grads).zip(moments) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise f(x) = (x - 3)^2 with gradient 2(x - 3).
        let mut opt = Adam::new(0.05);
        let mut x = [10.0];
        for _ in 0..2000 {
            let g = 2.0 * (x[0] - 3.0);
            opt.step(0, &mut x, &[g], &mut [], &[]);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "got {}", x[0]);
    }

    #[test]
    fn adam_keeps_separate_state_per_group() {
        let mut opt = Adam::new(0.1);
        let mut a = [0.0];
        let mut b = [0.0];
        opt.step(0, &mut a, &[1.0], &mut [], &[]);
        opt.step(1, &mut [], &[], &mut b, &[1.0]);
        // Both layers are at t=1, so the (bias-corrected) updates are identical.
        assert!((a[0] - b[0]).abs() < 1e-12);
        assert_eq!(opt.state.len(), 2);
    }

    #[test]
    fn adam_resets_state_on_shape_change() {
        let mut opt = Adam::new(0.1);
        opt.step(0, &mut [0.0], &[1.0], &mut [], &[]);
        opt.step(0, &mut [0.0], &[1.0], &mut [0.0], &[1.0]);
        assert_eq!(opt.state[0].m.len(), 2);
        assert_eq!(opt.state[0].t, 1);
    }

    /// A layer's weights and biases share one moment vector, weights first: the
    /// split update is the update of their concatenation, bit for bit.
    #[test]
    fn weights_and_biases_update_as_one_parameter_vector() {
        let mut split = Adam::new(0.01);
        let mut joined = Adam::new(0.01);
        let (mut w, mut b) = ([0.5, -0.25, 1.5], [0.125, 2.0]);
        let mut all = [0.5, -0.25, 1.5, 0.125, 2.0];
        for k in 0..5 {
            let grads: Vec<f64> = (0..5).map(|i| ((i * 3 + k) as f64).sin()).collect();
            split.step(0, &mut w, &grads[..3], &mut b, &grads[3..]);
            joined.step(0, &mut all, &grads, &mut [], &[]);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&[&w[..], &b[..]].concat()), bits(&all));
    }
}
