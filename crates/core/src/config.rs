//! Adaptive-RL hyper-parameters.

use crate::action::PolicyKind;
use neural::KernelPrecision;
use serde::{Deserialize, Serialize};
use snapshot::{Codec, SnapshotError};

/// Configuration of the Adaptive-RL scheduler.
///
/// The `use_*` switches exist for the ablation studies called out in
/// DESIGN.md; the paper's full algorithm has all of them on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveRlConfig {
    /// Initial exploration probability.
    pub epsilon0: f64,
    /// Multiplicative ε decay applied per learning cycle.
    pub epsilon_decay: f64,
    /// Exploration floor.
    pub epsilon_floor: f64,
    /// Value-network learning rate.
    pub lr: f64,
    /// Value-network momentum.
    pub momentum: f64,
    /// Hidden width of the value network.
    pub hidden: usize,
    /// Shared-learning-memory depth per agent (§III.B: 15 cycles).
    pub memory_depth: usize,
    /// Floor applied to the Eq. (9) error before dividing in Eq. (7)
    /// (a null error is "favorable"; the floor keeps `l_val` finite).
    pub error_floor: f64,
    /// Maximum time a partial identical-priority group may wait before
    /// being flushed as a smaller group.
    pub flush_age: f64,
    /// Whether agents read each other's experience via the shared memory
    /// (ablation: `false` = private memories only).
    pub use_shared_memory: bool,
    /// Whether the neural value estimator drives exploitation (ablation:
    /// `false` = uniform choice among candidate actions).
    pub use_value_net: bool,
    /// Whether the Eq. (9) error feedback drives node selection (ablation:
    /// `false` = pick the node with the most free queue slots).
    pub use_error_feedback: bool,
    /// Whether the Eq. (8) reward feedback trains the estimator and drives
    /// the memory-replay rule (ablation).
    pub use_reward_feedback: bool,
    /// RNG seed for exploration and tie-breaking.
    pub seed: u64,
    /// Forces every action to one merge policy (ablation of the adaptive
    /// mixed-versus-identical choice). `None` = adaptive (the paper).
    pub force_policy: Option<PolicyKind>,
    /// **Extension (off by default):** power-gate idle processors.
    ///
    /// §II surveys resource hibernation as an energy-saving technique the
    /// paper's own scheduler does not use. With this switch the agent puts
    /// processors of fully drained nodes to sleep whenever its pending
    /// pool is empty; the engine auto-wakes them (paying the wake latency
    /// and inrush) when work arrives. Only worthwhile on platforms whose
    /// `PowerParams::p_sleep` is genuinely below idle draw — under the
    /// paper's Eq. (5) model (`p_sleep = p_idle`) it can only lose.
    pub power_gating: bool,
    /// **Extension (0 = off, the paper's behaviour):** degradation-aware
    /// placement under injected faults. Adds
    /// `availability_penalty × (1 − availability)` to a node's Eq. (9)
    /// assignment error, steering groups away from nodes that have lost
    /// processors (and are therefore both slower and likelier to strand
    /// work again). Irrelevant on a healthy platform, where every node's
    /// availability is 1.
    pub availability_penalty: f64,
    /// Kernel precision of the neural value path. `F64` (default) is
    /// bit-reproducible and pinned by the golden tests; `F32` selects the
    /// vectorization-friendly kernel set and requires the `f32-kernels`
    /// cargo feature.
    #[serde(default)]
    pub precision: KernelPrecision,
}

impl Default for AdaptiveRlConfig {
    fn default() -> Self {
        AdaptiveRlConfig {
            epsilon0: 0.5,
            epsilon_decay: 0.995,
            epsilon_floor: 0.02,
            lr: 0.05,
            momentum: 0.5,
            hidden: 8,
            memory_depth: 15,
            error_floor: 0.05,
            flush_age: 10.0,
            use_shared_memory: true,
            use_value_net: true,
            use_error_feedback: true,
            use_reward_feedback: true,
            seed: 0x5EED,
            force_policy: None,
            power_gating: false,
            availability_penalty: 0.0,
            precision: KernelPrecision::F64,
        }
    }
}

impl AdaptiveRlConfig {
    /// Validates hyper-parameter ranges.
    ///
    /// # Panics
    /// Panics on out-of-range values.
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// The first out-of-range hyper-parameter, if any (the non-panicking
    /// form of [`AdaptiveRlConfig::validate`]).
    pub fn check(&self) -> Result<(), String> {
        let unit = |v: f64| (0.0..=1.0).contains(&v);
        let rules = [
            (unit(self.epsilon0), "epsilon0 must be in [0, 1]"),
            (unit(self.epsilon_decay), "epsilon_decay must be in [0, 1]"),
            (
                unit(self.epsilon_floor) && self.epsilon_floor <= self.epsilon0,
                "epsilon_floor must be in [0, epsilon0]",
            ),
            (self.lr > 0.0, "learning rate must be positive"),
            (
                (0.0..1.0).contains(&self.momentum),
                "momentum must be in [0, 1)",
            ),
            (self.hidden > 0, "hidden width must be positive"),
            (self.memory_depth > 0, "memory depth must be positive"),
            (self.error_floor > 0.0, "error floor must be positive"),
            (self.flush_age >= 0.0, "flush age must be non-negative"),
            (
                self.availability_penalty >= 0.0,
                "availability penalty must be non-negative",
            ),
        ];
        if let Some((_, why)) = rules.iter().find(|(ok, _)| !ok) {
            return Err((*why).into());
        }
        if !self.precision.available() {
            return Err(format!(
                "precision {} requires kernels not compiled into this build \
                 (rebuild with `--features f32-kernels`)",
                self.precision.label()
            ));
        }
        Ok(())
    }

    /// Snapshot field list (the checkpoint meta blob's copy); decoding
    /// rejects what [`AdaptiveRlConfig::check`] rejects.
    pub fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.finite(&mut self.epsilon0)?;
        c.finite(&mut self.epsilon_decay)?;
        c.finite(&mut self.epsilon_floor)?;
        c.finite(&mut self.lr)?;
        c.finite(&mut self.momentum)?;
        c.usize(&mut self.hidden)?;
        c.usize(&mut self.memory_depth)?;
        c.finite(&mut self.error_floor)?;
        c.finite(&mut self.flush_age)?;
        c.bool(&mut self.use_shared_memory)?;
        c.bool(&mut self.use_value_net)?;
        c.bool(&mut self.use_error_feedback)?;
        c.bool(&mut self.use_reward_feedback)?;
        c.u64(&mut self.seed)?;
        let forced = [None, Some(PolicyKind::Mixed), Some(PolicyKind::Identical)];
        c.variant(&mut self.force_policy, &forced, "force-policy")?;
        c.bool(&mut self.power_gating)?;
        c.finite(&mut self.availability_penalty)?;
        c.variant(
            &mut self.precision,
            &KernelPrecision::ALL,
            "kernel-precision",
        )?;
        let checked = self.check();
        c.check(checked.is_ok(), || checked.unwrap_err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = AdaptiveRlConfig::default();
        c.validate();
        assert_eq!(c.memory_depth, 15, "§III.B fixes the memory at 15 cycles");
        assert!(c.use_shared_memory && c.use_value_net);
    }

    #[test]
    #[should_panic(expected = "epsilon0")]
    fn bad_epsilon_rejected() {
        let c = AdaptiveRlConfig {
            epsilon0: 1.5,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "memory depth")]
    fn zero_memory_rejected() {
        let c = AdaptiveRlConfig {
            memory_depth: 0,
            ..Default::default()
        };
        c.validate();
    }
}
