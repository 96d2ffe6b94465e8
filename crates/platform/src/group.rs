//! Task groups — the output of the TG technique and the unit of queueing.
//!
//! §IV.D: tasks are merged into groups before assignment; a group occupies
//! one queue slot and its tasks share the same waiting time. Groups are
//! formed either **mixed-priority** (tasks of any class, EDF-sorted) or
//! **identical-priority** (one class only, EDF-sorted). The group's
//! *processing weight* `pw` (Eq. 10) — total work over total deadline
//! budget — indicates its importance relative to other groups.

use snapshot::{Codec, SnapshotError};
use std::fmt;
use workload::{Priority, Task};

/// Unique identifier of a dispatched task group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

impl GroupId {
    /// Sentinel for "no group": used in records of tasks that a failure
    /// abandoned before they were ever (re-)dispatched.
    pub const NONE: GroupId = GroupId(u64::MAX);
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// How a group was merged (§IV.D.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum GroupPolicy {
    /// Tasks of different priorities merged together, EDF-sorted.
    #[default]
    Mixed,
    /// Tasks of one priority class only, EDF-sorted.
    Identical(Priority),
}

impl GroupPolicy {
    /// Snapshot field list: a tag, then the class of an identical group.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let blanks = [GroupPolicy::Mixed, GroupPolicy::Identical(Priority::Low)];
        c.variant(self, &blanks, "group-policy")?;
        match self {
            GroupPolicy::Identical(p) => p.snap(c),
            GroupPolicy::Mixed => Ok(()),
        }
    }
}

impl fmt::Display for GroupPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupPolicy::Mixed => write!(f, "mixed"),
            GroupPolicy::Identical(p) => write!(f, "identical({p})"),
        }
    }
}

/// A merged group of tasks ready for (or undergoing) execution.
///
/// Invariants, enforced by [`TaskGroup::new`]:
/// * non-empty,
/// * tasks sorted by deadline (EDF),
/// * under an [`GroupPolicy::Identical`] policy, all tasks share the class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGroup {
    /// Unique id.
    pub id: GroupId,
    /// Member tasks in EDF (earliest-deadline-first) order.
    pub tasks: Vec<Task>,
    /// The merge policy that produced this group.
    pub policy: GroupPolicy,
}

impl TaskGroup {
    /// Creates a group, sorting tasks into EDF order and validating the
    /// policy.
    ///
    /// # Panics
    /// Panics if `tasks` is empty, or an identical-priority policy is given
    /// tasks of mixed classes.
    pub fn new(id: GroupId, mut tasks: Vec<Task>, policy: GroupPolicy) -> Self {
        assert!(
            !tasks.is_empty(),
            "a task group must contain at least one task"
        );
        if let GroupPolicy::Identical(p) = policy {
            assert!(
                tasks.iter().all(|t| t.priority == p),
                "identical-priority group must be homogeneous"
            );
        }
        tasks.sort_by(|a, b| a.deadline.cmp(&b.deadline).then(a.id.cmp(&b.id)));
        TaskGroup { id, tasks, policy }
    }

    /// Number of member tasks (`opnum` once dispatched).
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the group is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Eq. (10) processing weight: `pw = Σ s_i / Σ (d_i − arrival_i)` —
    /// total work (MI) over total deadline budget (time units). Higher
    /// values mean the group needs faster service.
    ///
    /// The printed equation in the paper is typographically corrupted; this
    /// reading is the one consistent with the surrounding prose (see
    /// DESIGN.md §4).
    pub fn processing_weight(&self) -> f64 {
        let work: f64 = self.tasks.iter().map(|t| t.size_mi).sum();
        let budget: f64 = self
            .tasks
            .iter()
            .map(|t| t.deadline.since(t.arrival).as_f64())
            .sum();
        debug_assert!(budget > 0.0, "deadline budget must be positive");
        work / budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use workload::{SiteId, TaskId};

    fn task(id: u64, deadline: f64, priority: Priority) -> Task {
        Task {
            id: TaskId(id),
            size_mi: 1000.0,
            arrival: SimTime::ZERO,
            deadline: SimTime::new(deadline),
            priority,
            site: SiteId(0),
        }
    }

    #[test]
    fn tasks_are_edf_sorted() {
        let g = TaskGroup::new(
            GroupId(1),
            vec![
                task(1, 30.0, Priority::Low),
                task(2, 10.0, Priority::High),
                task(3, 20.0, Priority::Medium),
            ],
            GroupPolicy::Mixed,
        );
        let deadlines: Vec<f64> = g.tasks.iter().map(|t| t.deadline.as_f64()).collect();
        assert_eq!(deadlines, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn edf_ties_break_by_task_id() {
        let g = TaskGroup::new(
            GroupId(1),
            vec![task(9, 10.0, Priority::Low), task(3, 10.0, Priority::Low)],
            GroupPolicy::Mixed,
        );
        assert_eq!(g.tasks[0].id, TaskId(3));
    }

    #[test]
    fn processing_weight_is_work_over_budget() {
        let mut a = task(1, 10.0, Priority::Medium);
        a.size_mi = 2000.0;
        let mut b = task(2, 30.0, Priority::Medium);
        b.size_mi = 1000.0;
        let g = TaskGroup::new(GroupId(2), vec![a, b], GroupPolicy::Mixed);
        assert!((g.processing_weight() - 3000.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn high_priority_groups_have_higher_pw() {
        // §IV.D.1: "a task group with high priority tasks would produce a
        // higher pw compared with that of low priority tasks".
        let tight = TaskGroup::new(
            GroupId(3),
            vec![task(1, 2.4, Priority::High), task(2, 2.4, Priority::High)],
            GroupPolicy::Identical(Priority::High),
        );
        let loose = TaskGroup::new(
            GroupId(4),
            vec![task(3, 5.0, Priority::Low), task(4, 5.0, Priority::Low)],
            GroupPolicy::Identical(Priority::Low),
        );
        assert!(tight.processing_weight() > loose.processing_weight());
    }

    #[test]
    #[should_panic(expected = "homogeneous")]
    fn heterogeneous_identical_group_rejected() {
        let _ = TaskGroup::new(
            GroupId(5),
            vec![task(1, 10.0, Priority::High), task(2, 10.0, Priority::Low)],
            GroupPolicy::Identical(Priority::High),
        );
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_group_rejected() {
        let _ = TaskGroup::new(GroupId(6), vec![], GroupPolicy::Mixed);
    }
}
