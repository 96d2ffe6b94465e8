//! Single-precision, vectorization-friendly mirrors of the flat MLP
//! kernels.
//!
//! [`MlpF32`] shares [`crate::network::Mlp`]'s flat-buffer layout (the
//! `LayerSpec` offsets are element counts, so the same spec addresses an
//! `f32` block) and exposes the same workspace API:
//! `predict_into`/`predict_scalar_into`/`score_into`/`train_step` against a
//! caller-owned [`WorkspaceF32`]. The inner loops are written in an
//! 8-lane chunked multiply-accumulate shape — independent partial sums the
//! auto-vectorizer reliably maps onto SIMD lanes (and fuses where the
//! target has FMA; `f32::mul_add` is deliberately avoided because baseline
//! x86-64 lowers it to a slow `fmaf` libm call).
//!
//! An `MlpF32` is always *derived from* an f64 [`Mlp`] so both precisions
//! start from the identical Xavier initialisation, and its checkpoint
//! surface stays f64: `f32 → f64 → f32` round-trips losslessly, so an
//! f32-mode run resumes bit-exactly from an f64-encoded snapshot. Results
//! track the f64 reference to ~1e-5 relative error (see
//! `tests/f32_equivalence.rs`) but are **not** bit-identical to it — the
//! wide lanes reassociate the accumulation on purpose.

use crate::activation::Activation;
use crate::network::{LayerSpec, Mlp};

/// Partial-sum lanes in the chunked dot product. Eight f32 lanes fill one
/// AVX2 register; narrower targets just unroll.
const LANES: usize = 8;

/// Past this magnitude `tanh` rounds to ±1 in f32; clamping here also
/// bounds the rational approximation's domain.
const TANH_BOUND: f32 = 7.905_31;

/// Branch-free single-precision `tanh`: the classic clamped order-13/6
/// rational `x·P(x²)/Q(x²)` (the coefficient set used by Eigen and ONNX
/// runtimes). Max error is a few f32 ULPs across the clamped range —
/// ≈1.3e-7 relative near zero — far inside the 1e-5 equivalence budget
/// of the f32 kernel path. Every operation is mul/add/min/max/div, so
/// loops over slices of these vectorize cleanly, unlike the libm `tanhf`
/// call it replaces.
#[inline(always)]
fn tanh_fast(x: f32) -> f32 {
    const A1: f32 = 4.893_525_5e-3;
    const A3: f32 = 6.372_619_3e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297_1e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-TANH_BOUND, TANH_BOUND);
    let x2 = x * x;
    let p = A13;
    let p = p * x2 + A11;
    let p = p * x2 + A9;
    let p = p * x2 + A7;
    let p = p * x2 + A5;
    let p = p * x2 + A3;
    let p = p * x2 + A1;
    let p = p * x;
    let q = B6;
    let q = q * x2 + B4;
    let q = q * x2 + B2;
    let q = q * x2 + B0;
    p / q
}

/// Applies `act` to `pres`, writing into `acts`. The `Tanh` arm runs the
/// vectorizable [`tanh_fast`] loop; the cheap activations apply inline.
#[inline(always)]
fn apply_slice(act: Activation, pres: &[f32], acts: &mut [f32]) {
    debug_assert_eq!(pres.len(), acts.len());
    match act {
        Activation::Tanh => {
            for (a, &p) in acts.iter_mut().zip(pres) {
                *a = tanh_fast(p);
            }
        }
        _ => {
            for (a, &p) in acts.iter_mut().zip(pres) {
                *a = act.apply_f32(p);
            }
        }
    }
}

/// Activation derivative from the pre-activation `pre` *and* the realized
/// output `out`. Using the output form where one exists (`1 − y²`,
/// `y(1 − y)`) makes the gradient exactly consistent with the forward
/// pass's [`tanh_fast`] value and avoids re-evaluating the activation.
#[inline(always)]
fn derivative_from_parts(act: Activation, pre: f32, out: f32) -> f32 {
    match act {
        Activation::Identity => 1.0,
        Activation::Relu => {
            if pre > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        Activation::Tanh => 1.0 - out * out,
        Activation::Sigmoid => out * (1.0 - out),
    }
}

/// Chunked dot product with independent partial sums per lane.
#[inline]
fn dot_wide(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let head = a.len() - a.len() % LANES;
    for (ac, bc) in a[..head]
        .chunks_exact(LANES)
        .zip(b[..head].chunks_exact(LANES))
    {
        for k in 0..LANES {
            lanes[k] += ac[k] * bc[k];
        }
    }
    let mut acc = 0.0f32;
    for &l in &lanes {
        acc += l;
    }
    for (x, y) in a[head..].iter().zip(&b[head..]) {
        acc += x * y;
    }
    acc
}

/// `out[i] += s * v[i]` — the backprop axpy kernel.
#[inline]
fn axpy(s: f32, v: &[f32], out: &mut [f32]) {
    debug_assert_eq!(v.len(), out.len());
    for (o, &x) in out.iter_mut().zip(v) {
        *o += s * x;
    }
}

/// Reusable scratch for single-precision forward/backward passes; the
/// `f32` counterpart of [`crate::network::Workspace`]. Buffers are sized
/// lazily on first use, after which no method allocates.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceF32 {
    /// Activations of every layer boundary, contiguously.
    acts: Vec<f32>,
    /// Pre-activations of every layer, contiguously.
    pres: Vec<f32>,
    /// Gradient accumulator, same layout as the parameter block.
    grads: Vec<f32>,
    /// Gradient w.r.t. the current layer's output during backprop.
    dout: Vec<f32>,
    /// Gradient w.r.t. the current layer's input during backprop.
    din: Vec<f32>,
    /// Column-major activations of the current layer in the batched
    /// scoring kernel (`width × rows`).
    cola: Vec<f32>,
    /// Column-major activations of the next layer (ping-pong partner).
    colb: Vec<f32>,
    /// Single-sample forward passes performed through this workspace.
    forwards: u64,
}

impl WorkspaceF32 {
    /// Grows the buffers to fit `net`. No-op once sized.
    fn ensure(&mut self, net: &MlpF32) {
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

    /// Number of single-sample forward passes run through this workspace.
    pub fn forward_passes(&self) -> u64 {
        self.forwards
    }

    /// Grows the column buffers to hold `rows` columns of the widest layer
    /// boundary of `net`. Only ever grows, so the buffers settle at the
    /// largest batch seen and stay allocation-free after.
    fn ensure_cols(&mut self, net: &MlpF32, rows: usize) {
        let max_w = net
            .layers
            .iter()
            .map(|l| l.inputs.max(l.outputs))
            .max()
            .unwrap_or(0);
        let need = max_w * rows;
        if self.cola.len() < need {
            self.cola.resize(need, 0.0);
            self.colb.resize(need, 0.0);
        }
    }
}

/// One dense layer over a column-major activation block: `a` holds
/// `inputs × rows`, `b` receives `outputs × rows`, both row-of-columns
/// (`[unit][row]`). The row dimension is the innermost loop, so every
/// multiply-accumulate runs across independent batch lanes — the shape
/// the auto-vectorizer maps straight onto SIMD. `FMA` selects
/// `f32::mul_add`, which is only fast when the enclosing function is
/// compiled with the `fma` target feature (otherwise it lowers to a libm
/// call).
#[inline(always)]
fn layer_cols<const FMA: bool>(
    params: &[f32],
    l: &LayerSpec,
    rows: usize,
    a: &[f32],
    b: &mut [f32],
) {
    for o in 0..l.outputs {
        let acc = &mut b[o * rows..(o + 1) * rows];
        acc.fill(params[l.b + o]);
        let wrow = &params[l.w + o * l.inputs..l.w + (o + 1) * l.inputs];
        for (i, &w) in wrow.iter().enumerate() {
            let col = &a[i * rows..(i + 1) * rows];
            if FMA {
                for (ac, &x) in acc.iter_mut().zip(col) {
                    *ac = x.mul_add(w, *ac);
                }
            } else {
                for (ac, &x) in acc.iter_mut().zip(col) {
                    *ac += w * x;
                }
            }
        }
    }
    let block = &mut b[..l.outputs * rows];
    match l.act {
        Activation::Tanh => {
            for v in block.iter_mut() {
                *v = tanh_fast(*v);
            }
        }
        Activation::Identity => {}
        _ => {
            for v in block.iter_mut() {
                *v = l.act.apply_f32(*v);
            }
        }
    }
}

/// Runs every layer of `net` over the column-major batch in `ws.cola`,
/// leaving the final layer's block in `ws.cola`.
#[inline(always)]
fn forward_cols_impl<const FMA: bool>(net: &MlpF32, rows: usize, ws: &mut WorkspaceF32) {
    for l in &net.layers {
        layer_cols::<FMA>(&net.params, l, rows, &ws.cola, &mut ws.colb);
        std::mem::swap(&mut ws.cola, &mut ws.colb);
    }
}

/// AVX2+FMA instantiation of the batched forward pass; the caller
/// guarantees the features at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn forward_cols_avx2(net: &MlpF32, rows: usize, ws: &mut WorkspaceF32) {
    forward_cols_impl::<true>(net, rows, ws);
}

/// Batched forward pass with runtime CPU dispatch: AVX2+FMA where the
/// host has it (std caches the detection), portable auto-vectorized code
/// elsewhere.
fn forward_cols(net: &MlpF32, rows: usize, ws: &mut WorkspaceF32) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: both required target features were just detected.
        unsafe { forward_cols_avx2(net, rows, ws) };
        return;
    }
    forward_cols_impl::<false>(net, rows, ws);
}

/// Single-precision mirror of the flat [`Mlp`], built by narrowing an f64
/// network's parameters so both precisions share one initialisation.
#[derive(Debug, Clone)]
pub struct MlpF32 {
    layers: Vec<LayerSpec>,
    /// Flat parameter block: per layer, weights then biases.
    params: Vec<f32>,
    /// Momentum velocities, same layout as `params`.
    velocity: Vec<f32>,
    lr: f32,
    momentum: f32,
    steps: u64,
}

impl MlpF32 {
    /// Builds the single-precision mirror of `net`: same layer table, the
    /// parameters/velocities narrowed to `f32`, same hyperparameters and
    /// step count.
    pub fn from_f64(net: &Mlp) -> Self {
        let (lr, momentum) = net.hyperparams();
        MlpF32 {
            layers: net.layer_specs().to_vec(),
            params: net.params().iter().map(|&p| p as f32).collect(),
            velocity: net.velocity().iter().map(|&v| v as f32).collect(),
            lr: lr as f32,
            momentum: momentum as f32,
            steps: net.steps(),
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

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Number of training steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// One forward pass; activations land in `ws`.
    fn forward(&self, x: &[f32], ws: &mut WorkspaceF32) {
        debug_assert_eq!(x.len(), self.input_width(), "input width mismatch");
        ws.ensure(self);
        ws.forwards += 1;
        ws.acts[..x.len()].copy_from_slice(x);
        for l in &self.layers {
            for o in 0..l.outputs {
                let row = &self.params[l.w + o * l.inputs..l.w + (o + 1) * l.inputs];
                let acc = self.params[l.b + o] + dot_wide(row, &ws.acts[l.x..l.x + l.inputs]);
                ws.pres[l.p + o] = acc;
            }
            let (pres, acts) = (
                &ws.pres[l.p..l.p + l.outputs],
                &mut ws.acts[l.y..l.y + l.outputs],
            );
            apply_slice(l.act, pres, acts);
        }
    }

    /// Forward pass into a reusable workspace; returns the output slice.
    /// Allocation-free once `ws` is warm.
    pub fn predict_into<'w>(&self, x: &[f32], ws: &'w mut WorkspaceF32) -> &'w [f32] {
        self.forward(x, ws);
        let l = self.layers.last().expect("non-empty");
        &ws.acts[l.y..l.y + l.outputs]
    }

    /// Scalar forward pass into a reusable workspace.
    ///
    /// # Panics
    /// Panics if the output width is not 1.
    pub fn predict_scalar_into(&self, x: &[f32], ws: &mut WorkspaceF32) -> f32 {
        assert_eq!(self.output_width(), 1, "predict_scalar needs a scalar head");
        self.predict_into(x, ws)[0]
    }

    /// Batched scoring kernel: `inputs` packs `n` rows of `input_width()`
    /// values each; the scalar outputs land in `out` (cleared first).
    /// Allocation-free once warm.
    ///
    /// Unlike the f64 reference this is a true batch kernel: the rows are
    /// transposed into column-major blocks and every layer runs one
    /// SIMD-friendly pass over the whole batch (AVX2+FMA where the host
    /// has it). Scores agree with [`MlpF32::predict_scalar_into`] to
    /// normal f32 rounding differences, not bit-for-bit — the batch and
    /// single-row kernels associate the accumulation differently.
    ///
    /// # Panics
    /// Panics if the output width is not 1 or `inputs` is not a whole
    /// number of rows.
    pub fn score_into(&self, inputs: &[f32], out: &mut Vec<f32>, ws: &mut WorkspaceF32) {
        assert_eq!(self.output_width(), 1, "score_into needs a scalar head");
        let iw = self.input_width();
        assert_eq!(inputs.len() % iw, 0, "inputs must pack whole rows");
        out.clear();
        let rows = inputs.len() / iw;
        if rows == 0 {
            return;
        }
        ws.ensure_cols(self, rows);
        ws.forwards += rows as u64;
        // Transpose row-major inputs into `[input][row]` columns.
        for (r, row) in inputs.chunks_exact(iw).enumerate() {
            for (i, &v) in row.iter().enumerate() {
                ws.cola[i * rows + r] = v;
            }
        }
        forward_cols(self, rows, ws);
        out.extend_from_slice(&ws.cola[..rows]);
    }

    /// One online SGD step on a single example; returns the pre-update
    /// MSE (widened to f64 for a uniform caller surface). Allocation-free
    /// once `ws` is warm.
    pub fn train_step(&mut self, x: &[f32], target: &[f32], ws: &mut WorkspaceF32) -> f64 {
        self.forward(x, ws);
        let last = *self.layers.last().expect("non-empty");
        let pred = &ws.acts[last.y..last.y + last.outputs];
        assert_eq!(pred.len(), target.len(), "length mismatch");
        let n = target.len() as f32;
        let mut loss = 0.0f32;
        for (o, (&p, &t)) in ws.dout[..last.outputs]
            .iter_mut()
            .zip(pred.iter().zip(target))
        {
            let e = p - t;
            loss += e * e;
            *o = 2.0 * e / n;
        }
        loss /= n;
        ws.grads.fill(0.0);
        for l in self.layers.iter().rev() {
            ws.din[..l.inputs].fill(0.0);
            for o in 0..l.outputs {
                let delta =
                    ws.dout[o] * derivative_from_parts(l.act, ws.pres[l.p + o], ws.acts[l.y + o]);
                ws.grads[l.b + o] += delta;
                let row = l.w + o * l.inputs;
                axpy(
                    delta,
                    &ws.acts[l.x..l.x + l.inputs],
                    &mut ws.grads[row..row + l.inputs],
                );
                axpy(
                    delta,
                    &self.params[row..row + l.inputs],
                    &mut ws.din[..l.inputs],
                );
            }
            std::mem::swap(&mut ws.dout, &mut ws.din);
        }
        // v ← μ·v + g, p -= lr·v over the flat buffers — a single
        // vectorizable sweep (the layout is contiguous per layer anyway).
        for ((p, v), &g) in self
            .params
            .iter_mut()
            .zip(self.velocity.iter_mut())
            .zip(ws.grads.iter())
        {
            let nv = self.momentum * *v + g;
            *v = nv;
            *p -= self.lr * nv;
        }
        self.steps += 1;
        f64::from(loss)
    }

    /// Widens the flat parameter block to f64 (checkpoint surface; the
    /// `f32 → f64` conversion is exact).
    pub fn params_f64_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.params.iter().map(|&p| f64::from(p)));
    }

    /// Widens the flat momentum block to f64 (checkpoint surface).
    pub fn velocity_f64_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.velocity.iter().map(|&v| f64::from(v)));
    }

    /// Restores training state from f64 checkpoint buffers by narrowing.
    /// Returns `false` (leaving the network untouched) on a length
    /// mismatch. A buffer produced by [`MlpF32::params_f64_into`] restores
    /// bit-exactly: every f32 survives the f64 round trip.
    pub fn restore_training_state(&mut self, params: &[f64], velocity: &[f64], steps: u64) -> bool {
        if params.len() != self.params.len() || velocity.len() != self.velocity.len() {
            return false;
        }
        for (dst, &src) in self.params.iter_mut().zip(params) {
            *dst = src as f32;
        }
        for (dst, &src) in self.velocity.iter_mut().zip(velocity) {
            *dst = src as f32;
        }
        self.steps = steps;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::optimizer::Sgd;

    fn reference() -> Mlp {
        Mlp::new(&[5, 8, 1], Activation::Tanh, Sgd::new(0.05, 0.5), 42)
    }

    #[test]
    fn mirrors_f64_initialisation() {
        let net = reference();
        let net32 = MlpF32::from_f64(&net);
        assert_eq!(net32.param_count(), net.param_count());
        assert_eq!(net32.input_width(), 5);
        assert_eq!(net32.output_width(), 1);
        for (&p32, &p64) in net32.params.iter().zip(net.params()) {
            assert_eq!(p32, p64 as f32);
        }
    }

    #[test]
    fn dot_wide_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.71).cos()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_wide(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn f64_roundtrip_restores_bit_exactly() {
        let mut net32 = MlpF32::from_f64(&reference());
        let mut ws = WorkspaceF32::default();
        for i in 0..50 {
            let v = i as f32 / 50.0;
            net32.train_step(&[v, 1.0 - v, 0.2, -v, 0.9], &[v], &mut ws);
        }
        let mut params = Vec::new();
        let mut velocity = Vec::new();
        net32.params_f64_into(&mut params);
        net32.velocity_f64_into(&mut velocity);
        let before = net32.params.clone();
        let mut restored = MlpF32::from_f64(&reference());
        assert!(restored.restore_training_state(&params, &velocity, net32.steps()));
        assert_eq!(restored.params, before);
        assert_eq!(restored.steps(), 50);
        assert!(!restored.restore_training_state(&params[1..], &velocity, 0));
    }

    #[test]
    fn score_into_matches_per_row_predict() {
        let net32 = MlpF32::from_f64(&reference());
        let rows: Vec<f32> = (0..15).map(|i| i as f32 / 7.0 - 1.0).collect();
        let mut ws = WorkspaceF32::default();
        let mut scores = Vec::new();
        net32.score_into(&rows, &mut scores, &mut ws);
        assert_eq!(scores.len(), 3);
        assert_eq!(ws.forward_passes(), 3);
        // The batch kernel associates the accumulation differently from
        // the single-row path, so agreement is to f32 rounding, not bits.
        for (row, &s) in rows.chunks_exact(5).zip(&scores) {
            let mut ws2 = WorkspaceF32::default();
            let single = net32.predict_scalar_into(row, &mut ws2);
            assert!(
                (f64::from(single) - f64::from(s)).abs() <= 1e-6 * f64::from(s.abs()).max(1.0),
                "batch {s} vs single {single}"
            );
        }
    }

    #[test]
    fn tanh_fast_tracks_reference() {
        let mut worst = 0.0f64;
        for i in -4000..=4000 {
            let x = i as f32 * 0.005; // covers ±20, past both saturation points
            let got = f64::from(tanh_fast(x));
            let want = f64::from(x).tanh();
            let err = (got - want).abs() / want.abs().max(1e-3);
            worst = worst.max(err);
        }
        assert!(worst < 1e-6, "worst tanh_fast relative error {worst:e}");
    }

    #[test]
    fn score_into_handles_large_batches() {
        // Wider than any SIMD width and not a multiple of it, so the
        // remainder lanes of the column kernel are exercised.
        let net32 = MlpF32::from_f64(&reference());
        let rows: Vec<f32> = (0..5 * 37).map(|i| (i as f32 * 0.13).sin()).collect();
        let mut ws = WorkspaceF32::default();
        let mut scores = Vec::new();
        net32.score_into(&rows, &mut scores, &mut ws);
        assert_eq!(scores.len(), 37);
        let mut ws2 = WorkspaceF32::default();
        for (r, (row, &s)) in rows.chunks_exact(5).zip(&scores).enumerate() {
            let single = net32.predict_scalar_into(row, &mut ws2);
            assert!(
                (f64::from(single) - f64::from(s)).abs() <= 1e-6,
                "row {r}: batch {s} vs single {single}"
            );
        }
    }
}
