//! The per-site scheduling agent.
//!
//! Owns the site's pending pool and the action-selection logic: ε-greedy
//! trial-and-error over the value estimator, overridden by the §IV.C
//! memory-replay rule whenever the reward signal drops ("if it is
//! determined that the reward is decreased, the agent immediately checks
//! and learns the actions from the shared-learning memory — considering
//! the action with the maximum learning value").

use crate::action::ActionChoice;
use crate::memory::SharedLearningMemory;
use simcore::rng::RngStream;
use snapshot::{Codec, SnapshotError};
use workload::{SimCodec, SiteId, Task};

/// One scheduling agent (one per resource site).
#[derive(Debug, Clone)]
pub struct Agent {
    /// The site this agent manages.
    pub site: SiteId,
    /// Tasks awaiting grouping.
    pub pending: Vec<Task>,
    /// Success fraction (`reward / opnum`) of the agent's previous cycle.
    pub last_success: Option<f64>,
    /// Set when the reward dropped; cleared after one memory replay.
    pub consult_memory: bool,
    rng: RngStream,
}

/// How an action was selected (exposed for tests and diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceSource {
    /// Replayed from the shared-learning memory (reward-drop rule).
    MemoryReplay,
    /// Uniform exploration.
    Explore,
    /// Greedy exploitation of the value estimator.
    Exploit,
}

impl Agent {
    /// Creates an idle agent.
    pub fn new(site: SiteId, rng: RngStream) -> Self {
        Agent {
            site,
            pending: Vec::new(),
            last_success: None,
            consult_memory: false,
            rng,
        }
    }

    /// Buffers newly arrived (or bounced) tasks.
    pub fn buffer(&mut self, tasks: Vec<Task>) {
        self.pending.extend(tasks);
    }

    /// Chooses a grouping action. Order of precedence:
    /// 1. memory replay when the reward dropped (and the memory is
    ///    non-empty) — shared across agents unless `shared` is false,
    /// 2. uniform exploration with probability `epsilon`,
    /// 3. greedy exploitation of the value estimator, or uniform if
    ///    `have_value` is false (the value-net ablation).
    ///
    /// Only the cheap (non-neural) branches resolve here. Exploitation is
    /// deferred to the caller, which gets `(None, Exploit)` and stages the
    /// site's candidates into the scheduler's one batched scoring pass.
    /// Each agent draws from its own private RNG stream, so the order in
    /// which sites decide does not change any decision.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    pub fn decide(
        &mut self,
        candidates: &[ActionChoice],
        epsilon: f64,
        have_value: bool,
        memory: &SharedLearningMemory,
        shared: bool,
        max_procs: usize,
    ) -> (Option<ActionChoice>, ChoiceSource) {
        assert!(!candidates.is_empty(), "need candidate actions");
        if self.consult_memory {
            self.consult_memory = false;
            let best = if shared {
                memory.best_shared()
            } else {
                memory.best_of(self.site.0)
            };
            if let Some(exp) = best {
                let mut action = exp.action;
                // "the value must not exceed the maximum number of
                // processors in a node" — clamp remembered opnums drawn
                // from sites with bigger nodes.
                action.opnum = action.opnum.min(max_procs).max(1);
                return (Some(action), ChoiceSource::MemoryReplay);
            }
        }
        if self.rng.chance(epsilon) {
            let pick = self.rng.pick(candidates.len());
            return (Some(candidates[pick]), ChoiceSource::Explore);
        }
        if have_value {
            (None, ChoiceSource::Exploit)
        } else {
            let pick = self.rng.pick(candidates.len());
            (Some(candidates[pick]), ChoiceSource::Explore)
        }
    }

    /// Snapshot field list: the pending pool, the reward memory and the
    /// exploration RNG.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.seq(&mut self.pending, Task::snap)?;
        c.opt(&mut self.last_success, |v, c| c.f64(v))?;
        c.bool(&mut self.consult_memory)?;
        c.rng(&mut self.rng)
    }

    /// Feeds back the success fraction of a completed cycle; arms the
    /// memory-replay rule when it dropped below the previous cycle's.
    pub fn note_reward(&mut self, success: f64) {
        if let Some(prev) = self.last_success {
            if success < prev {
                self.consult_memory = true;
            }
        }
        self.last_success = Some(success);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::PolicyKind;
    use crate::memory::Experience;
    use crate::state::SiteObservation;
    use crate::value::ValueEstimator;

    fn obs(max_procs: usize) -> SiteObservation {
        SiteObservation {
            mean_load: 1.0,
            mean_queue_free: 0.8,
            mean_power_frac: 0.5,
            mean_capacity: 2000.0,
            max_procs,
            pending: 5,
            priority_mix: [0.2, 0.5, 0.3],
            availability: 1.0,
        }
    }

    fn agent() -> Agent {
        Agent::new(SiteId(0), RngStream::root(1).derive("agent"))
    }

    #[test]
    fn reward_drop_arms_memory_replay() {
        let mut a = agent();
        a.note_reward(0.9);
        assert!(!a.consult_memory);
        a.note_reward(0.5);
        assert!(a.consult_memory);
        a.note_reward(0.7);
        // Improvement does not arm it again.
        a.note_reward(0.8);
        assert!(a.consult_memory, "flag persists until consumed");
    }

    #[test]
    fn memory_replay_returns_best_remembered_action() {
        let mut a = agent();
        let mut mem = SharedLearningMemory::new(2, 15);
        mem.record(Experience {
            agent: 1,
            action: ActionChoice {
                policy: PolicyKind::Identical,
                opnum: 6,
            },
            l_val: 50.0,
            cycle: 1,
        });
        a.consult_memory = true;
        let cands = ActionChoice::candidates(4);
        let (action, src) = a.decide(&cands, 0.0, false, &mem, true, 4);
        let action = action.expect("a replay resolves the action");
        assert_eq!(src, ChoiceSource::MemoryReplay);
        assert_eq!(action.policy, PolicyKind::Identical);
        // Remembered opnum 6 clamped to this site's max of 4.
        assert_eq!(action.opnum, 4);
        assert!(!a.consult_memory, "flag consumed");
    }

    #[test]
    fn private_memory_ignores_other_agents() {
        let mut a = agent();
        let mut mem = SharedLearningMemory::new(2, 15);
        mem.record(Experience {
            agent: 1,
            action: ActionChoice {
                policy: PolicyKind::Identical,
                opnum: 3,
            },
            l_val: 50.0,
            cycle: 1,
        });
        a.consult_memory = true;
        let cands = ActionChoice::candidates(4);
        // Agent 0's private ring is empty: falls through to exploration.
        let (action, src) = a.decide(&cands, 1.0, false, &mem, false, 4);
        assert!(action.is_some());
        assert_eq!(src, ChoiceSource::Explore);
    }

    #[test]
    fn epsilon_one_always_explores() {
        let mut a = agent();
        let mem = SharedLearningMemory::new(1, 15);
        let cands = ActionChoice::candidates(4);
        for _ in 0..20 {
            let (action, src) = a.decide(&cands, 1.0, true, &mem, true, 4);
            assert!(action.is_some());
            assert_eq!(src, ChoiceSource::Explore);
        }
    }

    #[test]
    fn exploitation_uses_the_estimator() {
        let mut a = agent();
        let mem = SharedLearningMemory::new(1, 15);
        let mut v = ValueEstimator::new(6, 0.05, 0.5, 11);
        let o = obs(4);
        let good = ActionChoice {
            policy: PolicyKind::Mixed,
            opnum: 4,
        };
        for c in ActionChoice::candidates(4) {
            let target = if c == good { 0.95 } else { 0.05 };
            for _ in 0..200 {
                v.train(&o, c, target);
            }
        }
        let cands = ActionChoice::candidates(4);
        // Exploitation is deferred to the caller, which scores the
        // candidates with the estimator.
        let (action, src) = a.decide(&cands, 0.0, true, &mem, true, 4);
        assert_eq!((action, src), (None, ChoiceSource::Exploit));
        assert_eq!(v.best_action(&o, &cands), good);
    }

    #[test]
    fn buffer_accumulates() {
        let mut a = agent();
        assert!(a.pending.is_empty());
        a.buffer(vec![]);
        assert!(a.pending.is_empty());
    }
}
