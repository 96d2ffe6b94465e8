//! Multi-layer perceptron over a single flat parameter block.
//!
//! All weights and biases live in one `Vec<f64>` (per layer: the
//! row-major weight matrix, then the biases), with per-layer offsets
//! precomputed at construction. Forward activations, pre-activations,
//! backward deltas and gradients live in a caller-owned [`Workspace`],
//! so `predict_into`/`train_step`/`score_into` perform **zero heap
//! allocation** once the workspace has warmed up. Momentum state is a
//! second flat buffer mirroring the parameters.
//!
//! The arithmetic — loop nesting, accumulation order, update order —
//! mirrors the layer-per-`Vec` formulation ([`crate::layer::Dense`] +
//! [`crate::optimizer::Sgd`]) exactly, so results are bit-identical to
//! it (see `tests/flat_equivalence.rs`).

use crate::activation::Activation;
use crate::loss::{mse, mse_grad_into};
use crate::optimizer::Sgd;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Where one dense layer sits inside the flat buffers. Shared with the
/// single-precision mirror ([`crate::network32`]): the offsets are
/// element counts, so the same spec addresses an `f32` parameter block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LayerSpec {
    /// Input width.
    pub(crate) inputs: usize,
    /// Output width.
    pub(crate) outputs: usize,
    /// Offset of the row-major `[outputs × inputs]` weight block.
    pub(crate) w: usize,
    /// Offset of the bias block (`outputs` entries).
    pub(crate) b: usize,
    /// Offset of this layer's input in the workspace activation buffer.
    pub(crate) x: usize,
    /// Offset of this layer's activated output (`= x + inputs`).
    pub(crate) y: usize,
    /// Offset of this layer's pre-activations in the workspace.
    pub(crate) p: usize,
    /// Activation applied to each output.
    pub(crate) act: Activation,
}

/// Reusable scratch for forward/backward passes.
///
/// Create one per call-site (or via [`Default`]) and pass it to every
/// [`Mlp::predict_into`]/[`Mlp::train_step`]/[`Mlp::score_into`] call.
/// Buffers are sized lazily on first use and then reused — after that
/// first call no method allocates.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Activations of every layer boundary: the network input, then each
    /// layer's activated output, contiguously.
    acts: Vec<f64>,
    /// Pre-activations of every layer, contiguously.
    pres: Vec<f64>,
    /// Gradient accumulator, same layout as the parameter block.
    grads: Vec<f64>,
    /// Gradient w.r.t. the current layer's output during backprop.
    dout: Vec<f64>,
    /// Gradient w.r.t. the current layer's input during backprop.
    din: Vec<f64>,
    /// Single-sample forward passes performed through this workspace
    /// (each `score_into` row counts as one).
    forwards: u64,
}

impl Workspace {
    /// Grows the buffers to fit `net`. No-op once sized.
    fn ensure(&mut self, net: &Mlp) {
        let acts_len = net.layers[0].inputs + net.layers.iter().map(|l| l.outputs).sum::<usize>();
        if self.acts.len() == acts_len && self.grads.len() == net.params.len() {
            return;
        }
        let pres_len = net.layers.iter().map(|l| l.outputs).sum::<usize>();
        let max_w = net
            .layers
            .iter()
            .map(|l| l.inputs.max(l.outputs))
            .max()
            .unwrap_or(0);
        self.acts.clear();
        self.acts.resize(acts_len, 0.0);
        self.pres.clear();
        self.pres.resize(pres_len, 0.0);
        self.grads.clear();
        self.grads.resize(net.params.len(), 0.0);
        self.dout.clear();
        self.dout.resize(max_w, 0.0);
        self.din.clear();
        self.din.resize(max_w, 0.0);
    }

    /// Number of single-sample forward passes run through this workspace
    /// — the counting probe behind the `best_action` regression test.
    pub fn forward_passes(&self) -> u64 {
        self.forwards
    }
}

/// A feed-forward network trained online with SGD — the Adaptive-RL
/// agent's value estimator. Parameters (and momentum) are flat buffers;
/// scratch state lives in a caller-supplied [`Workspace`].
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<LayerSpec>,
    /// Flat parameter block: per layer, weights then biases.
    params: Vec<f64>,
    /// Momentum velocities, same layout as `params`.
    velocity: Vec<f64>,
    lr: f64,
    momentum: f64,
    steps: u64,
}

impl Mlp {
    /// Builds a network with the given layer widths, e.g. `[4, 8, 1]` for a
    /// 4-input, one-hidden-layer, scalar-output net. Hidden layers use
    /// `hidden_act`; the output layer is linear. The optimizer supplies the
    /// learning rate and momentum (velocity state is kept flat here).
    ///
    /// Weight initialisation replays the exact per-layer draw order of
    /// [`crate::layer::Dense::new`], so a flat net and a layered net built
    /// from the same seed hold bit-identical parameters.
    ///
    /// # Panics
    /// Panics with fewer than two widths or a zero width.
    pub fn new(widths: &[usize], hidden_act: Activation, optimizer: Sgd, seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut layers = Vec::with_capacity(widths.len() - 1);
        let mut params = Vec::new();
        let (mut xoff, mut poff) = (0usize, 0usize);
        for (i, pair) in widths.windows(2).enumerate() {
            let (ins, outs) = (pair[0], pair[1]);
            assert!(ins > 0 && outs > 0, "layer widths must be positive");
            let act = if i == widths.len() - 2 {
                Activation::Identity
            } else {
                hidden_act
            };
            let w = params.len();
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(i as u64));
            let bound = (6.0 / (ins + outs) as f64).sqrt();
            for _ in 0..ins * outs {
                params.push(rng.random_range(-bound..bound));
            }
            let b = params.len();
            params.resize(b + outs, 0.0);
            layers.push(LayerSpec {
                inputs: ins,
                outputs: outs,
                w,
                b,
                x: xoff,
                y: xoff + ins,
                p: poff,
                act,
            });
            xoff += ins;
            poff += outs;
        }
        let velocity = vec![0.0; params.len()];
        Mlp {
            layers,
            params,
            velocity,
            lr: optimizer.lr,
            momentum: optimizer.momentum,
            steps: 0,
        }
    }

    /// Input width.
    pub fn input_width(&self) -> usize {
        self.layers[0].inputs
    }

    /// Output width.
    pub fn output_width(&self) -> usize {
        self.layers.last().expect("non-empty").outputs
    }

    /// The flat parameter block: per layer, the row-major weight matrix
    /// followed by the biases.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// One forward pass; activations land in `ws`.
    fn forward(&self, x: &[f64], ws: &mut Workspace) {
        debug_assert_eq!(x.len(), self.input_width(), "input width mismatch");
        ws.ensure(self);
        ws.forwards += 1;
        ws.acts[..x.len()].copy_from_slice(x);
        for l in &self.layers {
            for o in 0..l.outputs {
                let row = &self.params[l.w + o * l.inputs..l.w + (o + 1) * l.inputs];
                let mut acc = self.params[l.b + o];
                for (w, xi) in row.iter().zip(&ws.acts[l.x..l.x + l.inputs]) {
                    acc += w * xi;
                }
                ws.pres[l.p + o] = acc;
            }
            for o in 0..l.outputs {
                ws.acts[l.y + o] = l.act.apply(ws.pres[l.p + o]);
            }
        }
    }

    /// Forward pass into a reusable workspace; returns the output slice.
    /// Allocation-free once `ws` is warm.
    pub fn predict_into<'w>(&self, x: &[f64], ws: &'w mut Workspace) -> &'w [f64] {
        self.forward(x, ws);
        let l = self.layers.last().expect("non-empty");
        &ws.acts[l.y..l.y + l.outputs]
    }

    /// Scalar forward pass into a reusable workspace. Allocation-free once
    /// `ws` is warm.
    ///
    /// # Panics
    /// Panics if the output width is not 1.
    pub fn predict_scalar_into(&self, x: &[f64], ws: &mut Workspace) -> f64 {
        assert_eq!(self.output_width(), 1, "predict_scalar needs a scalar head");
        self.predict_into(x, ws)[0]
    }

    /// Forward pass (allocating convenience wrapper over
    /// [`Mlp::predict_into`]).
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut ws = Workspace::default();
        self.predict_into(x, &mut ws).to_vec()
    }

    /// Scalar convenience for single-output networks.
    ///
    /// # Panics
    /// Panics if the output width is not 1.
    pub fn predict_scalar(&self, x: &[f64]) -> f64 {
        let mut ws = Workspace::default();
        self.predict_scalar_into(x, &mut ws)
    }

    /// Batched scoring kernel: `inputs` packs `n` rows of
    /// `input_width()` values each; one forward pass per row writes the
    /// scalar outputs into `out` (cleared first). Allocation-free once
    /// `out` and `ws` have capacity.
    ///
    /// # Panics
    /// Panics if the output width is not 1 or `inputs` is not a whole
    /// number of rows.
    pub fn score_into(&self, inputs: &[f64], out: &mut Vec<f64>, ws: &mut Workspace) {
        assert_eq!(self.output_width(), 1, "score_into needs a scalar head");
        let iw = self.input_width();
        assert_eq!(inputs.len() % iw, 0, "inputs must pack whole rows");
        out.clear();
        for row in inputs.chunks_exact(iw) {
            self.forward(row, ws);
            let l = self.layers.last().expect("non-empty");
            out.push(ws.acts[l.y]);
        }
    }

    /// One online SGD step on a single example; returns the pre-update
    /// MSE. Allocation-free once `ws` is warm.
    pub fn train_step(&mut self, x: &[f64], target: &[f64], ws: &mut Workspace) -> f64 {
        self.forward(x, ws);
        let last = *self.layers.last().expect("non-empty");
        let loss = mse(&ws.acts[last.y..last.y + last.outputs], target);
        mse_grad_into(
            &ws.acts[last.y..last.y + last.outputs],
            target,
            &mut ws.dout[..last.outputs],
        );
        // Backward: accumulate into zeroed gradient buffers in the same
        // order as the layered formulation.
        ws.grads.fill(0.0);
        for l in self.layers.iter().rev() {
            ws.din[..l.inputs].fill(0.0);
            for o in 0..l.outputs {
                let delta = ws.dout[o] * l.act.derivative(ws.pres[l.p + o]);
                ws.grads[l.b + o] += delta;
                let row = l.w + o * l.inputs;
                for i in 0..l.inputs {
                    ws.grads[row + i] += delta * ws.acts[l.x + i];
                    ws.din[i] += delta * self.params[row + i];
                }
            }
            // This layer's input gradient is the next (lower) layer's
            // output gradient.
            std::mem::swap(&mut ws.dout, &mut ws.din);
        }
        // Update: `v ← μ·v + g`, `p -= lr·v`, weights then biases per
        // layer — the same element-wise arithmetic as Sgd::step +
        // Dense::apply_update.
        for l in &self.layers {
            let wlen = l.inputs * l.outputs;
            for k in l.w..l.w + wlen {
                let v = self.momentum * self.velocity[k] + ws.grads[k];
                self.velocity[k] = v;
                self.params[k] -= self.lr * v;
            }
            for k in l.b..l.b + l.outputs {
                let v = self.momentum * self.velocity[k] + ws.grads[k];
                self.velocity[k] = v;
                self.params[k] -= self.lr * v;
            }
        }
        self.steps += 1;
        loss
    }

    /// Number of training steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The flat momentum-velocity block, same layout as
    /// [`Mlp::params`].
    pub fn velocity(&self) -> &[f64] {
        &self.velocity
    }

    /// Layer table, shared with the single-precision mirror.
    pub(crate) fn layer_specs(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Learning rate and momentum, for the single-precision mirror.
    pub(crate) fn hyperparams(&self) -> (f64, f64) {
        (self.lr, self.momentum)
    }

    /// Restores the training state captured by a checkpoint. Returns
    /// `false` (leaving the network untouched) when either buffer length
    /// does not match this network's architecture.
    pub fn restore_training_state(&mut self, params: &[f64], velocity: &[f64], steps: u64) -> bool {
        if params.len() != self.params.len() || velocity.len() != self.velocity.len() {
            return false;
        }
        self.params.copy_from_slice(params);
        self.velocity.copy_from_slice(velocity);
        self.steps = steps;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_consistent() {
        let net = Mlp::new(&[4, 8, 2], Activation::Tanh, Sgd::new(0.01, 0.0), 1);
        assert_eq!(net.input_width(), 4);
        assert_eq!(net.output_width(), 2);
        assert_eq!(net.predict(&[0.1, 0.2, 0.3, 0.4]).len(), 2);
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn learns_a_linear_map() {
        // y = 2x + 1, single linear layer can represent it exactly.
        let mut net = Mlp::new(&[1, 1], Activation::Identity, Sgd::new(0.05, 0.0), 2);
        let mut ws = Workspace::default();
        for i in 0..2000 {
            let x = (i % 20) as f64 / 10.0 - 1.0;
            net.train_step(&[x], &[2.0 * x + 1.0], &mut ws);
        }
        for &x in &[-0.9, 0.0, 0.7] {
            let y = net.predict_scalar(&[x]);
            assert!((y - (2.0 * x + 1.0)).abs() < 0.05, "f({x}) = {y}");
        }
    }

    #[test]
    fn learns_xor() {
        let cases: [([f64; 2], f64); 4] = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Sgd::new(0.1, 0.9), 3);
        let mut ws = Workspace::default();
        for _epoch in 0..4000 {
            for (x, y) in &cases {
                net.train_step(x, &[*y], &mut ws);
            }
        }
        for (x, y) in &cases {
            let p = net.predict_scalar(x);
            assert!((p - y).abs() < 0.2, "xor({x:?}) = {p}, want {y}");
        }
        assert_eq!(net.steps(), 16_000);
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = Mlp::new(&[2, 6, 1], Activation::Relu, Sgd::new(0.02, 0.5), 5);
        let mut ws = Workspace::default();
        let x = [0.4, -0.3];
        let target = [0.8];
        let first = net.train_step(&x, &target, &mut ws);
        let mut last = first;
        for _ in 0..200 {
            last = net.train_step(&x, &target, &mut ws);
        }
        assert!(last < first * 0.01, "loss {first} -> {last}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut n = Mlp::new(&[2, 4, 1], Activation::Tanh, Sgd::new(0.05, 0.0), 9);
            let mut ws = Workspace::default();
            for i in 0..50 {
                let v = i as f64 / 50.0;
                n.train_step(&[v, 1.0 - v], &[v], &mut ws);
            }
            n.predict_scalar(&[0.3, 0.7])
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "scalar head")]
    fn predict_scalar_guards_width() {
        let net = Mlp::new(&[2, 2], Activation::Identity, Sgd::new(0.1, 0.0), 1);
        let _ = net.predict_scalar(&[0.0, 0.0]);
    }

    #[test]
    fn score_into_matches_per_row_predict() {
        let net = Mlp::new(&[3, 5, 1], Activation::Tanh, Sgd::new(0.05, 0.0), 17);
        let rows: Vec<f64> = (0..12).map(|i| i as f64 / 7.0 - 1.0).collect();
        let mut ws = Workspace::default();
        let mut scores = Vec::new();
        net.score_into(&rows, &mut scores, &mut ws);
        assert_eq!(scores.len(), 4);
        for (row, s) in rows.chunks_exact(3).zip(&scores) {
            assert_eq!(net.predict_scalar(row).to_bits(), s.to_bits());
        }
    }

    #[test]
    fn workspace_counts_forward_passes() {
        let net = Mlp::new(&[2, 3, 1], Activation::Tanh, Sgd::new(0.05, 0.0), 4);
        let mut ws = Workspace::default();
        assert_eq!(ws.forward_passes(), 0);
        let _ = net.predict_into(&[0.1, 0.2], &mut ws);
        assert_eq!(ws.forward_passes(), 1);
        let mut out = Vec::new();
        net.score_into(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], &mut out, &mut ws);
        assert_eq!(ws.forward_passes(), 4, "one pass per scored row");
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn score_into_rejects_ragged_input() {
        let net = Mlp::new(&[3, 2, 1], Activation::Tanh, Sgd::new(0.05, 0.0), 4);
        let mut ws = Workspace::default();
        let mut out = Vec::new();
        net.score_into(&[0.1, 0.2], &mut out, &mut ws);
    }
}
