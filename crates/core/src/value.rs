//! The neural value estimator.
//!
//! Predicts the normalised learning value of taking a grouping action in a
//! given site state — the function-approximation role the paper assigns to
//! the neural-network structure of \[10\]. Trained online: one SGD step per
//! completed learning cycle.
//!
//! The estimator owns a reusable [`neural::Workspace`] plus candidate
//! scratch buffers, so `predict`/`train`/`best_action` are allocation-free
//! after the first call. Candidate scoring is batched: callers either use
//! [`ValueEstimator::best_action`] directly, or — as the scheduler's
//! dispatch loop does — stage *every* site's candidate rows via
//! [`ValueEstimator::begin_batch`]/[`ValueEstimator::push_candidates`] and
//! resolve them all through one [`ValueEstimator::score_batch`] pass
//! followed by per-range [`ValueEstimator::argmax_in`] calls. The argmax
//! keeps `max_by`'s tie rule (the *last* maximal element wins) in both
//! precisions.
//!
//! # Kernel precision
//!
//! The estimator runs on either the reference f64 kernels (default,
//! bit-reproducible, pinned by goldens) or the vectorization-friendly f32
//! kernel set (`neural::MlpF32`), chosen per estimator at run time. Both
//! start from the identical initialisation, and the checkpoint surface is
//! f64 in both modes (`f32 → f64` widening is exact, so f32 runs resume
//! bit-exactly too).

use crate::action::ActionChoice;
use crate::state::{SiteObservation, STATE_FEATURES};
use neural::{Activation, KernelPrecision, Mlp, MlpF32, Sgd, Workspace, WorkspaceF32};
use snapshot::{Codec, SnapshotError};

/// Width of the estimator's input: state features plus action features.
pub const INPUT_WIDTH: usize = STATE_FEATURES + 3;

/// The active kernel set: exactly one precision is live per estimator.
#[derive(Debug, Clone)]
enum Kernel {
    F64(Mlp),
    F32(MlpF32),
}

/// Value estimator: `(state, action) → expected normalised l_val`.
#[derive(Debug, Clone)]
pub struct ValueEstimator {
    kernel: Kernel,
    /// Reusable forward/backward scratch (f64 kernels).
    ws: Workspace,
    /// Reusable forward/backward scratch (f32 kernels).
    ws32: WorkspaceF32,
    /// Candidate encoding matrix, one `INPUT_WIDTH` row per candidate.
    enc: Vec<f64>,
    /// f32 mirror of the encoding matrix.
    enc32: Vec<f32>,
    /// Candidate scores, parallel to the encoded rows (always f64: f32
    /// scores are widened so the argmax has a single code path).
    scores: Vec<f64>,
    /// f32 score scratch.
    scores32: Vec<f32>,
}

impl ValueEstimator {
    /// Creates an estimator with one hidden layer of `hidden` units on the
    /// default (f64) kernels.
    pub fn new(hidden: usize, lr: f64, momentum: f64, seed: u64) -> Self {
        Self::with_precision(hidden, lr, momentum, seed, KernelPrecision::F64)
    }

    /// Creates an estimator on the requested kernel precision. Both
    /// precisions derive from the identical f64 Xavier initialisation.
    pub fn with_precision(
        hidden: usize,
        lr: f64,
        momentum: f64,
        seed: u64,
        precision: KernelPrecision,
    ) -> Self {
        let net = Mlp::new(
            &[INPUT_WIDTH, hidden, 1],
            Activation::Tanh,
            Sgd::new(lr, momentum),
            seed,
        );
        let kernel = match precision {
            KernelPrecision::F64 => Kernel::F64(net),
            KernelPrecision::F32 => Kernel::F32(MlpF32::from_f64(&net)),
        };
        ValueEstimator {
            kernel,
            ws: Workspace::default(),
            ws32: WorkspaceF32::default(),
            enc: Vec::new(),
            enc32: Vec::new(),
            scores: Vec::new(),
            scores32: Vec::new(),
        }
    }

    /// The kernel precision this estimator runs on.
    pub fn precision(&self) -> KernelPrecision {
        match &self.kernel {
            Kernel::F64(_) => KernelPrecision::F64,
            Kernel::F32(_) => KernelPrecision::F32,
        }
    }

    fn encode(obs: &SiteObservation, action: ActionChoice) -> [f64; INPUT_WIDTH] {
        let mut input = [0.0; INPUT_WIDTH];
        input[..STATE_FEATURES].copy_from_slice(&obs.features());
        input[STATE_FEATURES..].copy_from_slice(&action.features(obs.max_procs));
        input
    }

    /// Predicted normalised learning value of `action` in `obs`.
    pub fn predict(&mut self, obs: &SiteObservation, action: ActionChoice) -> f64 {
        let input = Self::encode(obs, action);
        match &mut self.kernel {
            Kernel::F64(net) => net.predict_scalar_into(&input, &mut self.ws),
            Kernel::F32(net) => {
                let mut input32 = [0.0f32; INPUT_WIDTH];
                for (dst, &src) in input32.iter_mut().zip(&input) {
                    *dst = src as f32;
                }
                f64::from(net.predict_scalar_into(&input32, &mut self.ws32))
            }
        }
    }

    /// One online training step toward the observed normalised target;
    /// returns the pre-update squared error.
    pub fn train(&mut self, obs: &SiteObservation, action: ActionChoice, target: f64) -> f64 {
        let input = Self::encode(obs, action);
        match &mut self.kernel {
            Kernel::F64(net) => net.train_step(&input, &[target], &mut self.ws),
            Kernel::F32(net) => {
                let mut input32 = [0.0f32; INPUT_WIDTH];
                for (dst, &src) in input32.iter_mut().zip(&input) {
                    *dst = src as f32;
                }
                net.train_step(&input32, &[target as f32], &mut self.ws32)
            }
        }
    }

    /// Starts a fresh scoring batch, discarding previously staged rows.
    pub fn begin_batch(&mut self) {
        self.enc.clear();
        self.enc32.clear();
    }

    /// Number of candidate rows currently staged.
    pub fn batch_rows(&self) -> usize {
        match self.kernel {
            Kernel::F64(_) => self.enc.len() / INPUT_WIDTH,
            Kernel::F32(_) => self.enc32.len() / INPUT_WIDTH,
        }
    }

    /// Stages every candidate of one decision into the batch matrix;
    /// returns the starting row index for [`ValueEstimator::argmax_in`].
    pub fn push_candidates(&mut self, obs: &SiteObservation, candidates: &[ActionChoice]) -> usize {
        let start = self.batch_rows();
        // Every candidate row shares the observation's state features —
        // compute them once per site instead of once per row (the values,
        // and therefore the staged rows, are bit-identical either way).
        let state = obs.features();
        match &self.kernel {
            Kernel::F64(_) => {
                for &c in candidates {
                    self.enc.extend_from_slice(&state);
                    self.enc.extend_from_slice(&c.features(obs.max_procs));
                }
            }
            Kernel::F32(_) => {
                let mut state32 = [0.0f32; STATE_FEATURES];
                for (dst, &src) in state32.iter_mut().zip(&state) {
                    *dst = src as f32;
                }
                for &c in candidates {
                    self.enc32.extend_from_slice(&state32);
                    self.enc32
                        .extend(c.features(obs.max_procs).iter().map(|&v| v as f32));
                }
            }
        }
        start
    }

    /// Scores every staged row in one batched kernel pass. f32 scores are
    /// widened into the shared f64 score buffer.
    pub fn score_batch(&mut self) {
        match &mut self.kernel {
            Kernel::F64(net) => net.score_into(&self.enc, &mut self.scores, &mut self.ws),
            Kernel::F32(net) => {
                net.score_into(&self.enc32, &mut self.scores32, &mut self.ws32);
                self.scores.clear();
                self.scores
                    .extend(self.scores32.iter().map(|&s| f64::from(s)));
            }
        }
    }

    /// Argmax over the scored rows `[start, start + len)` of the last
    /// [`ValueEstimator::score_batch`], as an offset into that range.
    /// Replicates `Iterator::max_by`'s keep-the-last-maximum tie rule.
    ///
    /// # Panics
    /// Panics if the range is empty or out of bounds.
    pub fn argmax_in(&self, start: usize, len: usize) -> usize {
        use std::cmp::Ordering;
        assert!(len > 0, "need at least one candidate action");
        let scores = &self.scores[start..start + len];
        let mut best = 0usize;
        for (i, s) in scores.iter().enumerate().skip(1) {
            if s.total_cmp(&scores[best]) != Ordering::Less {
                best = i;
            }
        }
        best
    }

    /// The action among `candidates` with the highest predicted value.
    ///
    /// Single-decision convenience over the batch API: encodes all
    /// candidates, scores them in one pass, and takes the cached-score
    /// argmax (bit-identical to the pairwise `max_by` formulation).
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    pub fn best_action(
        &mut self,
        obs: &SiteObservation,
        candidates: &[ActionChoice],
    ) -> ActionChoice {
        assert!(!candidates.is_empty(), "need at least one candidate action");
        self.begin_batch();
        let start = self.push_candidates(obs, candidates);
        self.score_batch();
        candidates[self.argmax_in(start, candidates.len())]
    }

    /// Training steps taken so far.
    pub fn steps(&self) -> u64 {
        match &self.kernel {
            Kernel::F64(net) => net.steps(),
            Kernel::F32(net) => net.steps(),
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        match &self.kernel {
            Kernel::F64(net) => net.param_count(),
            Kernel::F32(net) => net.param_count(),
        }
    }

    /// Snapshot field list: parameters, momentum velocities and the step
    /// count. The snapshot surface is f64 in both kernel precisions (f32 →
    /// f64 widening is exact), so f32 runs resume bit-exactly. Decoding
    /// rejects an architecture mismatch and leaves the network untouched.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let (mut params, mut velocity) = (Vec::new(), Vec::new());
        let mut steps = match &self.kernel {
            Kernel::F64(net) => {
                params.extend_from_slice(net.params());
                velocity.extend_from_slice(net.velocity());
                net.steps()
            }
            Kernel::F32(net) => {
                net.params_f64_into(&mut params);
                net.velocity_f64_into(&mut velocity);
                net.steps()
            }
        };
        c.seq(&mut params, |v, c| c.f64(v))?;
        c.seq(&mut velocity, |v, c| c.f64(v))?;
        c.u64(&mut steps)?;
        let restored = !C::DECODE
            || match &mut self.kernel {
                Kernel::F64(net) => net.restore_training_state(&params, &velocity, steps),
                Kernel::F32(net) => net.restore_training_state(&params, &velocity, steps),
            };
        let (n_params, n_vel, want) = (params.len(), velocity.len(), self.param_count());
        c.check(restored, || {
            format!(
                "value net shape mismatch: snapshot has {n_params} params / {n_vel} \
                 velocities, network has {want}"
            )
        })
    }

    /// Single-sample forward passes run so far (the counting probe behind
    /// the `best_action` cost regression test), summed across both
    /// precisions' workspaces.
    pub fn forward_passes(&self) -> u64 {
        self.ws.forward_passes() + self.ws32.forward_passes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::PolicyKind;
    use snapshot::{SnapReader, SnapWriter};

    fn obs() -> SiteObservation {
        SiteObservation {
            mean_load: 2.0,
            mean_queue_free: 0.5,
            mean_power_frac: 0.6,
            mean_capacity: 1500.0,
            max_procs: 6,
            pending: 8,
            priority_mix: [0.3, 0.4, 0.3],
            availability: 1.0,
        }
    }

    #[test]
    fn learns_to_prefer_the_rewarded_action() {
        let mut v = ValueEstimator::new(8, 0.05, 0.5, 7);
        let good = ActionChoice {
            policy: PolicyKind::Mixed,
            opnum: 5,
        };
        let bad = ActionChoice {
            policy: PolicyKind::Mixed,
            opnum: 1,
        };
        let o = obs();
        for _ in 0..300 {
            v.train(&o, good, 0.9);
            v.train(&o, bad, 0.1);
        }
        assert!(v.predict(&o, good) > v.predict(&o, bad) + 0.3);
        assert_eq!(v.best_action(&o, &[bad, good]), good);
        assert_eq!(v.steps(), 600);
    }

    #[test]
    fn training_error_shrinks() {
        let mut v = ValueEstimator::new(6, 0.05, 0.0, 3);
        let a = ActionChoice {
            policy: PolicyKind::Identical,
            opnum: 4,
        };
        let o = obs();
        let first = v.train(&o, a, 0.7);
        let mut last = first;
        for _ in 0..200 {
            last = v.train(&o, a, 0.7);
        }
        assert!(last < first * 0.05, "{first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_rejected() {
        let mut v = ValueEstimator::new(4, 0.05, 0.0, 1);
        let _ = v.best_action(&obs(), &[]);
    }

    #[test]
    fn best_action_scores_each_candidate_exactly_once() {
        // Regression test for the former max_by-over-predict formulation,
        // which ran ≈ 2(n−1) forward passes per decision.
        let mut v = ValueEstimator::new(8, 0.05, 0.5, 11);
        let o = obs();
        let cands = ActionChoice::candidates(6);
        assert_eq!(cands.len(), 12);
        let before = v.forward_passes();
        let _ = v.best_action(&o, &cands);
        assert_eq!(
            v.forward_passes() - before,
            cands.len() as u64,
            "one forward pass per candidate, no re-evaluation"
        );
    }

    #[test]
    fn best_action_matches_max_by_reference() {
        // The cached-score argmax must replicate Iterator::max_by exactly,
        // including its keep-the-last-maximum tie rule.
        let mut v = ValueEstimator::new(8, 0.05, 0.5, 13);
        let o = obs();
        for i in 0..50 {
            let cands = ActionChoice::candidates(6);
            // Scores from the same estimator state the decision will use.
            let scores: Vec<f64> = cands.iter().map(|&c| v.predict(&o, c)).collect();
            let expect = cands
                .iter()
                .zip(&scores)
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, _)| *c)
                .expect("non-empty");
            assert_eq!(v.best_action(&o, &cands), expect, "iteration {i}");
            // Shift the landscape between rounds.
            let a = cands[i % cands.len()];
            v.train(&o, a, (i % 7) as f64 / 7.0);
        }
    }

    #[test]
    fn tie_rule_keeps_the_last_maximum() {
        // An untrained net with zero-init output bias can still break ties
        // arbitrarily; force a genuine tie by duplicating one candidate.
        let mut v = ValueEstimator::new(4, 0.05, 0.0, 5);
        let o = obs();
        let a = ActionChoice {
            policy: PolicyKind::Mixed,
            opnum: 2,
        };
        let b = ActionChoice {
            policy: PolicyKind::Identical,
            opnum: 2,
        };
        let dup = [a, b, a];
        let reference = *dup
            .iter()
            .zip([v.predict(&o, a), v.predict(&o, b), v.predict(&o, a)].iter())
            .max_by(|x, y| x.1.total_cmp(y.1))
            .map(|(c, _)| c)
            .expect("non-empty");
        assert_eq!(v.best_action(&o, &dup), reference);
    }

    #[test]
    fn batched_multi_site_scoring_matches_per_site_best_action() {
        // Staging several decisions and resolving them through one
        // score_batch must pick exactly what per-decision best_action picks.
        for precision in KernelPrecision::ALL {
            let mut v = ValueEstimator::with_precision(8, 0.05, 0.5, 17, precision);
            let o1 = obs();
            let mut o2 = obs();
            o2.mean_load = 4.0;
            o2.pending = 2;
            let c1 = ActionChoice::candidates(6);
            let c2 = ActionChoice::candidates(3);
            let want1 = v.best_action(&o1, &c1);
            let want2 = v.best_action(&o2, &c2);
            v.begin_batch();
            let s1 = v.push_candidates(&o1, &c1);
            let s2 = v.push_candidates(&o2, &c2);
            assert_eq!(v.batch_rows(), c1.len() + c2.len());
            v.score_batch();
            assert_eq!(c1[v.argmax_in(s1, c1.len())], want1, "{precision:?}");
            assert_eq!(c2[v.argmax_in(s2, c2.len())], want2, "{precision:?}");
        }
    }

    #[test]
    fn snapshot_roundtrip_restores_predictions() {
        for precision in KernelPrecision::ALL {
            let mut v = ValueEstimator::with_precision(8, 0.05, 0.5, 19, precision);
            let o = obs();
            let a = ActionChoice {
                policy: PolicyKind::Mixed,
                opnum: 3,
            };
            for i in 0..40 {
                v.train(&o, a, (i % 5) as f64 / 5.0);
            }
            let mut w = SnapWriter::new();
            w.encode(|w| v.snap(w));
            let bytes = w.into_bytes();
            let before = v.predict(&o, a);
            let mut fresh = ValueEstimator::with_precision(8, 0.05, 0.5, 19, precision);
            fresh.snap(&mut SnapReader::new(&bytes)).unwrap();
            assert_eq!(fresh.steps(), 40);
            assert_eq!(
                fresh.predict(&o, a).to_bits(),
                before.to_bits(),
                "{precision:?}"
            );
            // The restored net keeps training exactly as the original.
            v.train(&o, a, 0.5);
            fresh.train(&o, a, 0.5);
            assert_eq!(fresh.predict(&o, a).to_bits(), v.predict(&o, a).to_bits());
            let mut wrong = ValueEstimator::with_precision(4, 0.05, 0.5, 19, precision);
            assert!(wrong.snap(&mut SnapReader::new(&bytes)).is_err());
        }
    }

    #[test]
    fn default_precision_is_f64() {
        let v = ValueEstimator::new(4, 0.05, 0.0, 1);
        assert_eq!(v.precision(), neural::KernelPrecision::F64);
    }
}
