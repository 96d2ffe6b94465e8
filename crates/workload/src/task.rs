//! The task type — `T_i = {s_i, d_i}` of Eq. (1).

use crate::codec::SimCodec;
use crate::priority::Priority;
use simcore::time::{SimDuration, SimTime};
use snapshot::{Codec, SnapshotError};
use std::fmt;

/// Unique task identifier, dense from 0 within one workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Identifier of the resource site a task arrives at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// An independent, computation-intensive, sequential task.
///
/// `ACT` (the expected execution time used to set deadlines and priorities)
/// is always relative to the *reference speed* — the slowest processor of
/// the platform — per §III.A of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Task {
    /// Unique id.
    pub id: TaskId,
    /// Computational size in millions of instructions (MI).
    pub size_mi: f64,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Absolute completion deadline `d_i`.
    pub deadline: SimTime,
    /// Urgency class derived from deadline slack.
    pub priority: Priority,
    /// Resource site the task arrives at (one agent per site).
    pub site: SiteId,
}

impl Task {
    /// Remaining slack at `now`: time until the deadline, saturating at 0.
    #[inline]
    pub fn slack_at(&self, now: SimTime) -> SimDuration {
        self.deadline.since(now)
    }

    /// The paper's *processing weight contribution*: `s_i / d_i` where the
    /// deadline is measured as the window from arrival (`d_i - arrival`).
    /// Larger values mean more work per unit of allowed time, i.e. more
    /// urgent work.
    #[inline]
    pub fn urgency_density(&self) -> f64 {
        let window = self.deadline.since(self.arrival).as_f64();
        debug_assert!(window > 0.0, "deadline window must be positive");
        self.size_mi / window
    }

    /// Whether `self` is `original`, possibly with its priority escalated
    /// (a task re-dispatched after a failure can be raised to `High`).
    pub fn is_copy_of(&self, original: &Task) -> bool {
        Task {
            priority: self.priority,
            ..*original
        } == *self
    }

    /// The task's snapshot field list, shared by checkpoints and traces.
    /// Site range checks are the caller's (they need the platform).
    pub fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.u64(&mut self.id.0)?;
        c.nonneg(&mut self.size_mi)?;
        c.time(&mut self.arrival)?;
        c.time(&mut self.deadline)?;
        let id = self.id;
        c.check(self.deadline >= self.arrival, || {
            format!("task {id} is due before it arrives")
        })?;
        self.priority.snap(c)?;
        c.u32(&mut self.site.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(size: f64, arrival: f64, deadline: f64) -> Task {
        Task {
            id: TaskId(1),
            size_mi: size,
            arrival: SimTime::new(arrival),
            deadline: SimTime::new(deadline),
            priority: Priority::Medium,
            site: SiteId(0),
        }
    }

    #[test]
    fn slack_saturates() {
        let t = mk(100.0, 0.0, 5.0);
        assert_eq!(t.slack_at(SimTime::new(2.0)).as_f64(), 3.0);
        assert_eq!(t.slack_at(SimTime::new(9.0)).as_f64(), 0.0);
    }

    #[test]
    fn urgency_density_scales_with_size_and_window() {
        let tight = mk(1000.0, 10.0, 12.0); // 500 MI per unit
        let loose = mk(1000.0, 10.0, 20.0); // 100 MI per unit
        assert!(tight.urgency_density() > loose.urgency_density());
        assert_eq!(tight.urgency_density(), 500.0);
    }
}
