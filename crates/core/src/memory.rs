//! The shared-learning memory.
//!
//! §III.B: "In each resource site, an agent resides and agents in different
//! sites are independent from each other, but they share a long-term memory
//! (shared-learning memory). Each agent is limited to keep and update 15
//! cycles of its learning experiences". §IV.C: when an agent's reward
//! drops, it "immediately checks and learns the actions from the
//! shared-learning memory — considering the action with the maximum
//! learning value".
//!
//! That maximum is the only thing the memory is ever asked for, which
//! lets a sharded run keep it small: each shard holds its own agent's
//! ring and, for every other agent, a [`RingSummary`] (the ring's best
//! experience and its length) sent once per epoch, instead of a full
//! replica of every ring.

use crate::action::ActionChoice;
use snapshot::{Codec, SnapshotError};
use std::collections::VecDeque;

/// One remembered learning cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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

/// What one shard tells the others about its agent's ring at an epoch
/// barrier: the ring's best experience, its *last* maximum by
/// [`f64::total_cmp`] (the element `max_by` returns), and its length.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RingSummary {
    /// The ring's best experience; `None` only for an empty ring.
    pub best: Option<Experience>,
    /// Experiences the ring holds.
    pub len: usize,
}

/// One agent's place in the memory.
#[derive(Debug, Clone)]
enum Slot {
    /// The agent's own ring, oldest first.
    Local(VecDeque<Experience>),
    /// Another shard's agent, as of the last epoch barrier.
    Remote(RingSummary),
}

impl Slot {
    /// The experiences this slot answers for, oldest first: every one a
    /// local ring holds, or a remote slot's best.
    fn experiences(&self) -> impl Iterator<Item = &Experience> {
        let ((older, newer), best) = match self {
            Slot::Local(ring) => (ring.as_slices(), None),
            Slot::Remote(s) => ((&[][..], &[][..]), s.best.as_ref()),
        };
        older.iter().chain(newer).chain(best)
    }

    fn len(&self) -> usize {
        match self {
            Slot::Local(ring) => ring.len(),
            Slot::Remote(s) => s.len,
        }
    }
}

/// The last experience with the maximum learning value, the one
/// `max_by` returns; NaN sorts greatest, so a diverged learner never
/// panics the query. It compares references: moving each candidate by
/// value made the query several times slower.
fn last_max<'a>(exps: impl Iterator<Item = &'a Experience>) -> Option<Experience> {
    exps.max_by(|a, b| a.l_val.total_cmp(&b.l_val)).copied()
}

/// Bounded per-agent experience rings with cross-agent queries.
///
/// Every slot of a sequential run's memory is a local ring. A shard of a
/// sharded run owns one local ring, its own agent's, and holds a
/// [`RingSummary`] for every other agent, refreshed at epoch barriers.
#[derive(Debug, Clone)]
pub struct SharedLearningMemory {
    depth: usize,
    slots: Vec<Slot>,
}

impl SharedLearningMemory {
    /// Creates a memory for `agents` agents, `depth` cycles each, every
    /// ring local.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(agents: usize, depth: usize) -> Self {
        assert!(agents > 0, "need at least one agent");
        assert!(depth > 0, "memory depth must be positive");
        SharedLearningMemory {
            depth,
            slots: vec![Slot::Local(VecDeque::new()); agents],
        }
    }

    /// Creates the memory of the shard owning agent `own`: that agent's
    /// ring is local, every other agent starts as an empty summary.
    ///
    /// # Panics
    /// Panics if either size is zero or `own >= agents`.
    pub fn for_shard(agents: usize, depth: usize, own: usize) -> Self {
        assert!(own < agents, "agent {own} outside {agents} agents");
        let mut m = Self::new(agents, depth);
        for (a, slot) in m.slots.iter_mut().enumerate() {
            if a != own {
                *slot = Slot::Remote(RingSummary::default());
            }
        }
        m
    }

    /// Records an experience for `agent`, evicting its oldest entry when
    /// the 15-cycle (by default) window is full.
    ///
    /// # Panics
    /// Panics on an out-of-range agent index, or on an agent whose ring
    /// another shard owns.
    pub fn record(&mut self, exp: Experience) {
        let Slot::Local(ring) = &mut self.slots[exp.agent as usize] else {
            panic!("agent {} records in another shard", exp.agent);
        };
        if ring.len() == self.depth {
            ring.pop_front();
        }
        ring.push_back(exp);
    }

    /// The experience with the maximum learning value across *all* agents
    /// — the §IV.C replay rule ("the agent improves its action not only by
    /// learning from its feedback signal, but also from other agents'
    /// experiences").
    ///
    /// Ties go to the last maximum of the highest-indexed agent holding
    /// it: the element `max_by` over every ring, oldest first and in
    /// agent order, would return.
    pub fn best_shared(&self) -> Option<Experience> {
        last_max(self.slots.iter().flat_map(Slot::experiences))
    }

    /// The best experience of a single agent (used when shared access is
    /// ablated away).
    pub fn best_of(&self, agent: u32) -> Option<Experience> {
        last_max(self.slots[agent as usize].experiences())
    }

    /// `agent`'s ring as a [`RingSummary`]: what its shard sends at an
    /// epoch barrier.
    pub fn summary(&self, agent: u32) -> RingSummary {
        let slot = &self.slots[agent as usize];
        RingSummary {
            best: last_max(slot.experiences()),
            len: slot.len(),
        }
    }

    /// Stores another shard's summary of `agent`'s ring. A local ring is
    /// never overwritten: its shard's own experiences are the truth.
    ///
    /// # Panics
    /// Panics on an out-of-range agent index.
    pub fn set_summary(&mut self, agent: u32, summary: RingSummary) {
        if let Slot::Remote(s) = &mut self.slots[agent as usize] {
            *s = summary;
        }
    }

    /// Total experiences held, summarised rings counted at their length.
    pub fn len(&self) -> usize {
        self.slots.iter().map(Slot::len).sum()
    }

    /// Whether the memory holds no experiences.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured per-agent depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.slots.len()
    }

    /// Snapshot field list, one entry per agent: a local ring oldest
    /// first, or a remote slot's summary. Only shard memories have
    /// remote slots, so a sequential memory's bytes are its rings alone.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.len_eq(self.slots.len(), "memory rings")?;
        let depth = self.depth;
        for (agent, slot) in self.slots.iter_mut().enumerate() {
            let agent = agent as u32;
            match slot {
                Slot::Local(ring) => {
                    c.deque(ring, Experience::snap)?;
                    ring.iter_mut().for_each(|e| e.agent = agent);
                }
                Slot::Remote(s) => {
                    c.opt(&mut s.best, Experience::snap)?;
                    c.usize(&mut s.len)?;
                    let (has, n) = (s.best.is_some(), s.len);
                    c.check(has == (n > 0), || {
                        format!("summary of ring {agent}: {n} experiences, best present {has}")
                    })?;
                    if let Some(b) = &mut s.best {
                        b.agent = agent;
                    }
                }
            }
            let n = slot.len();
            c.check(n <= depth, || {
                format!("ring {agent} holds {n} experiences, depth is {depth}")
            })?;
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
        assert_eq!(m.len(), 15);
        // Oldest remaining is cycle 5.
        let Slot::Local(ring) = &m.slots[0] else {
            unreachable!()
        };
        assert!(ring.iter().all(|e| e.cycle >= 5));
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
    fn a_shard_answers_from_its_ring_and_the_summaries() {
        let mut full = SharedLearningMemory::new(3, 4);
        let mut shard = SharedLearningMemory::for_shard(3, 4, 1);
        for e in [exp(0, 2, 5.0, 1), exp(0, 3, 5.0, 2), exp(2, 4, 1.0, 3)] {
            full.record(e);
        }
        for e in [exp(1, 5, 5.0, 4), exp(1, 6, 0.5, 5)] {
            full.record(e);
            shard.record(e);
        }
        shard.set_summary(0, full.summary(0));
        shard.set_summary(2, full.summary(2));
        // Agent 2 holds no 5.0, so agent 1's last maximum wins the tie.
        assert_eq!(shard.best_shared(), full.best_shared());
        assert_eq!(shard.best_shared().unwrap().action.opnum, 5);
        assert_eq!(shard.best_of(0).unwrap().cycle, 2, "last maximum");
        assert_eq!(shard.len(), full.len());
        assert_eq!(shard.summary(0), full.summary(0));
    }

    #[test]
    fn a_summary_never_overwrites_a_local_ring() {
        let mut shard = SharedLearningMemory::for_shard(2, 4, 0);
        shard.record(exp(0, 2, 1.0, 1));
        let foreign = RingSummary {
            best: Some(exp(1, 6, 9.0, 7)),
            len: 3,
        };
        shard.set_summary(0, foreign);
        assert_eq!(shard.summary(0).best, Some(exp(0, 2, 1.0, 1)));
        shard.set_summary(1, foreign);
        assert_eq!(shard.summary(1), foreign);
        assert_eq!(shard.len(), 4);
    }

    #[test]
    #[should_panic(expected = "another shard")]
    fn recording_into_a_remote_slot_panics() {
        SharedLearningMemory::for_shard(2, 4, 0).record(exp(1, 2, 1.0, 1));
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
