//! The shared-learning memory.
//!
//! §III.B: "In each resource site, an agent resides and agents in different
//! sites are independent from each other, but they share a long-term memory
//! (shared-learning memory). Each agent is limited to keep and update 15
//! cycles of its learning experiences". §IV.C: when an agent's reward
//! drops, it "immediately checks and learns the actions from the
//! shared-learning memory — considering the action with the maximum
//! learning value".

use crate::action::ActionChoice;
use serde::{Deserialize, Serialize};
use snapshot::{Codec, SnapshotError};
use std::collections::VecDeque;

/// One remembered learning cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Experience {
    /// The agent (site index) that produced it.
    pub agent: u32,
    /// The grouping action taken.
    pub action: ActionChoice,
    /// Eq. (7) learning value observed.
    pub l_val: f64,
    /// Learning-cycle index when recorded.
    pub cycle: u64,
}

impl Experience {
    /// Snapshot field list. The agent is the ring's index and is not
    /// stored; the learning value keeps its raw bits, since a diverged
    /// learner can legitimately record a NaN.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.action.snap(c)?;
        c.f64(&mut self.l_val)?;
        c.u64(&mut self.cycle)
    }
}

/// Bounded per-agent experience rings with cross-agent queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharedLearningMemory {
    depth: usize,
    rings: Vec<VecDeque<Experience>>,
}

impl SharedLearningMemory {
    /// Creates a memory for `agents` agents, `depth` cycles each.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(agents: usize, depth: usize) -> Self {
        assert!(agents > 0, "need at least one agent");
        assert!(depth > 0, "memory depth must be positive");
        SharedLearningMemory {
            depth,
            rings: vec![VecDeque::new(); agents],
        }
    }

    /// Records an experience for `agent`, evicting its oldest entry when
    /// the 15-cycle (by default) window is full.
    ///
    /// # Panics
    /// Panics on an out-of-range agent index.
    pub fn record(&mut self, exp: Experience) {
        let ring = &mut self.rings[exp.agent as usize];
        if ring.len() == self.depth {
            ring.pop_front();
        }
        ring.push_back(exp);
    }

    /// The experience with the maximum learning value across *all* agents
    /// — the §IV.C replay rule ("the agent improves its action not only by
    /// learning from its feedback signal, but also from other agents'
    /// experiences").
    pub fn best_shared(&self) -> Option<Experience> {
        self.rings
            .iter()
            .flatten()
            .copied()
            .max_by(|a, b| a.l_val.total_cmp(&b.l_val))
    }

    /// The best experience of a single agent (used when shared access is
    /// ablated away).
    pub fn best_of(&self, agent: u32) -> Option<Experience> {
        self.rings[agent as usize]
            .iter()
            .copied()
            .max_by(|a, b| a.l_val.total_cmp(&b.l_val))
    }

    /// Number of experiences currently held for `agent`.
    pub fn len_of(&self, agent: u32) -> usize {
        self.rings[agent as usize].len()
    }

    /// Total experiences held.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }

    /// Whether the memory holds no experiences.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(|r| r.is_empty())
    }

    /// Configured per-agent depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of per-agent rings.
    pub fn num_agents(&self) -> usize {
        self.rings.len()
    }

    /// Snapshot field list: one ring per agent, oldest first, each within
    /// the configured depth.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.len_eq(self.rings.len(), "memory rings")?;
        let depth = self.depth;
        for (agent, ring) in self.rings.iter_mut().enumerate() {
            c.deque(ring, Experience::snap)?;
            let n = ring.len();
            c.check(n <= depth, || {
                format!("ring {agent} holds {n} experiences, depth is {depth}")
            })?;
            ring.iter_mut().for_each(|e| e.agent = agent as u32);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::PolicyKind;

    fn exp(agent: u32, opnum: usize, l_val: f64, cycle: u64) -> Experience {
        Experience {
            agent,
            action: ActionChoice {
                policy: PolicyKind::Mixed,
                opnum,
            },
            l_val,
            cycle,
        }
    }

    #[test]
    fn ring_evicts_oldest_beyond_depth() {
        let mut m = SharedLearningMemory::new(1, 15);
        for c in 0..20 {
            m.record(exp(0, 1, c as f64, c));
        }
        assert_eq!(m.len_of(0), 15);
        // Oldest remaining is cycle 5.
        assert!(m.rings[0].iter().all(|e| e.cycle >= 5));
    }

    #[test]
    fn best_shared_crosses_agents() {
        let mut m = SharedLearningMemory::new(3, 15);
        m.record(exp(0, 2, 1.0, 1));
        m.record(exp(1, 4, 9.0, 2));
        m.record(exp(2, 3, 5.0, 3));
        let best = m.best_shared().unwrap();
        assert_eq!(best.agent, 1);
        assert_eq!(best.action.opnum, 4);
    }

    #[test]
    fn best_of_is_agent_local() {
        let mut m = SharedLearningMemory::new(2, 15);
        m.record(exp(0, 2, 1.0, 1));
        m.record(exp(1, 4, 9.0, 2));
        assert_eq!(m.best_of(0).unwrap().l_val, 1.0);
        assert_eq!(m.best_of(1).unwrap().l_val, 9.0);
    }

    #[test]
    fn empty_queries_return_none() {
        let m = SharedLearningMemory::new(2, 5);
        assert!(m.is_empty());
        assert!(m.best_shared().is_none());
        assert!(m.best_of(1).is_none());
        assert_eq!(m.len(), 0);
        assert_eq!(m.depth(), 5);
    }

    #[test]
    fn nan_learning_value_never_panics_selection() {
        // Regression: `max_by(partial_cmp().unwrap())` used to panic the
        // whole run when a diverged learner produced a NaN value. With
        // `total_cmp`, NaN sorts greatest — a poisoned experience wins the
        // query visibly instead of aborting mid-simulation.
        let mut m = SharedLearningMemory::new(2, 15);
        m.record(exp(0, 2, 3.0, 1));
        m.record(exp(1, 4, f64::NAN, 2));
        m.record(exp(1, 5, 7.0, 3));
        let best = m.best_shared().expect("selection must not panic");
        assert!(best.l_val.is_nan());
        assert!(m.best_of(0).unwrap().l_val == 3.0);
        assert!(m.best_of(1).unwrap().l_val.is_nan());
    }

    #[test]
    fn eviction_can_drop_the_maximum() {
        // The window is *recency*-bounded, not value-bounded: a stale peak
        // falls out after `depth` newer cycles.
        let mut m = SharedLearningMemory::new(1, 3);
        m.record(exp(0, 6, 100.0, 1));
        for c in 2..=4 {
            m.record(exp(0, 1, 1.0, c));
        }
        assert_eq!(m.best_shared().unwrap().l_val, 1.0);
    }
}
