//! A fully connected layer with explicit forward and backward passes.

use crate::activation::Activation;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dense layer: `y = act(W·x + b)`, weights row-major `[out × in]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Input width.
    pub inputs: usize,
    /// Output width.
    pub outputs: usize,
    /// Row-major weight matrix, `outputs` rows of `inputs` columns.
    pub weights: Vec<f64>,
    /// Per-output bias.
    pub biases: Vec<f64>,
    /// Activation applied to each output.
    pub activation: Activation,
}

/// Gradients produced by one backward pass through a layer.
#[derive(Debug, Clone, Default)]
pub struct DenseGrads {
    /// dLoss/dW, same layout as the weights.
    pub weights: Vec<f64>,
    /// dLoss/db.
    pub biases: Vec<f64>,
}

impl Dense {
    /// Creates a layer with Xavier-uniform weights from a seed.
    ///
    /// # Panics
    /// Panics on zero widths.
    pub fn new(inputs: usize, outputs: usize, activation: Activation, seed: u64) -> Self {
        assert!(inputs > 0 && outputs > 0, "layer widths must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let bound = (6.0 / (inputs + outputs) as f64).sqrt();
        let weights = (0..inputs * outputs)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Dense {
            inputs,
            outputs,
            weights,
            biases: vec![0.0; outputs],
            activation,
        }
    }

    /// Forward pass. Writes the pre-activation vector into `pre` and the
    /// activated output into `out` (both resized as needed) so callers can
    /// reuse buffers across calls.
    pub fn forward(&self, x: &[f64], pre: &mut Vec<f64>, out: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.inputs, "input width mismatch");
        pre.clear();
        pre.reserve(self.outputs);
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let mut acc = self.biases[o];
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            pre.push(acc);
        }
        out.clear();
        out.extend(pre.iter().map(|&p| self.activation.apply(p)));
    }

    /// Backward pass: given the layer input `x`, the pre-activations from
    /// the forward pass and `dloss_dout` (gradient w.r.t. this layer's
    /// activated output), accumulates weight/bias gradients into `grads`
    /// and returns the gradient w.r.t. the layer input.
    pub fn backward(
        &self,
        x: &[f64],
        pre: &[f64],
        dloss_dout: &[f64],
        grads: &mut DenseGrads,
    ) -> Vec<f64> {
        debug_assert_eq!(dloss_dout.len(), self.outputs);
        if grads.weights.len() != self.weights.len() {
            grads.weights = vec![0.0; self.weights.len()];
            grads.biases = vec![0.0; self.outputs];
        }
        let mut dx = vec![0.0; self.inputs];
        for o in 0..self.outputs {
            let delta = dloss_dout[o] * self.activation.derivative(pre[o]);
            grads.biases[o] += delta;
            let row = o * self.inputs;
            for i in 0..self.inputs {
                grads.weights[row + i] += delta * x[i];
                dx[i] += delta * self.weights[row + i];
            }
        }
        dx
    }

    /// Applies a parameter update `p -= step` for each gradient entry.
    pub fn apply_update(&mut self, dw: &[f64], db: &[f64]) {
        debug_assert_eq!(dw.len(), self.weights.len());
        debug_assert_eq!(db.len(), self.biases.len());
        for (w, d) in self.weights.iter_mut().zip(dw) {
            *w -= d;
        }
        for (b, d) in self.biases.iter_mut().zip(db) {
            *b -= d;
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.biases.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_computes_affine_identity() {
        let mut l = Dense::new(2, 2, Activation::Identity, 1);
        l.weights = vec![1.0, 2.0, 3.0, 4.0];
        l.biases = vec![0.5, -0.5];
        let (mut pre, mut out) = (Vec::new(), Vec::new());
        l.forward(&[1.0, 1.0], &mut pre, &mut out);
        assert_eq!(out, vec![3.5, 6.5]);
        assert_eq!(pre, out);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let l = Dense::new(3, 2, Activation::Tanh, 7);
        let x = [0.3, -0.7, 1.1];
        let dloss = [1.0, -0.5];
        let (mut pre, mut out) = (Vec::new(), Vec::new());
        l.forward(&x, &mut pre, &mut out);
        let mut grads = DenseGrads::default();
        let dx = l.backward(&x, &pre, &dloss, &mut grads);

        // Scalar loss L = dloss · out. Check dL/dw numerically.
        let loss_of = |layer: &Dense| {
            let (mut p, mut o) = (Vec::new(), Vec::new());
            layer.forward(&x, &mut p, &mut o);
            o.iter().zip(&dloss).map(|(a, b)| a * b).sum::<f64>()
        };
        let h = 1e-6;
        for k in [0usize, 2, 5] {
            let mut plus = l.clone();
            plus.weights[k] += h;
            let mut minus = l.clone();
            minus.weights[k] -= h;
            let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * h);
            assert!(
                (numeric - grads.weights[k]).abs() < 1e-6,
                "dW[{k}]: {numeric} vs {}",
                grads.weights[k]
            );
        }
        // And dL/dx numerically.
        for k in 0..3 {
            let mut xp = x;
            xp[k] += h;
            let mut xm = x;
            xm[k] -= h;
            let f = |xs: &[f64]| {
                let (mut p, mut o) = (Vec::new(), Vec::new());
                l.forward(xs, &mut p, &mut o);
                o.iter().zip(&dloss).map(|(a, b)| a * b).sum::<f64>()
            };
            let numeric = (f(&xp) - f(&xm)) / (2.0 * h);
            assert!((numeric - dx[k]).abs() < 1e-6, "dx[{k}]");
        }
    }

    #[test]
    fn update_moves_parameters() {
        let mut l = Dense::new(1, 1, Activation::Identity, 3);
        let w0 = l.weights[0];
        l.apply_update(&[0.25], &[0.5]);
        assert_eq!(l.weights[0], w0 - 0.25);
        assert_eq!(l.biases[0], -0.5);
    }

    #[test]
    fn init_is_deterministic_and_bounded() {
        let a = Dense::new(4, 3, Activation::Relu, 42);
        let b = Dense::new(4, 3, Activation::Relu, 42);
        assert_eq!(a, b);
        let bound = (6.0 / 7.0f64).sqrt();
        assert!(a.weights.iter().all(|w: &f64| w.abs() <= bound));
        assert_eq!(a.param_count(), 15);
    }
}
