//! The bounded per-node group queue.
//!
//! §III.B: "The queue … exists to limit the number of tasks to be scheduled
//! for execution. … there are more than one task waiting in each queue
//! space; this is based on a TG technique". Each slot holds one task group
//! together with its execution bookkeeping (which members have started,
//! finished, and met their deadlines — the raw material of the Eq. (8)
//! reward).

use crate::group::{GroupId, GroupPolicy, TaskGroup};
use simcore::time::SimTime;
use snapshot::{Codec, SnapshotError};
use std::collections::VecDeque;
use workload::{SimCodec, Task};

/// A queued (possibly partially executing) task group.
#[derive(Debug, Clone, Default)]
pub struct QueuedGroup {
    /// The group itself (tasks in EDF order).
    pub group: TaskGroup,
    /// When it entered the queue.
    pub enqueued_at: SimTime,
    /// Processing weight at dispatch (Eq. 10), cached.
    pub pw: f64,
    /// Index of the next unstarted task in EDF order.
    pub next_start: usize,
    /// Members currently executing.
    pub running: u32,
    /// Members finished.
    pub done: u32,
    /// Members lost to failures (preempted mid-execution and returned to
    /// the site agent for re-dispatch). They no longer count toward this
    /// group's completion.
    pub lost: u32,
    /// Members finished within their deadline.
    pub met: u32,
    /// When the first member started (the group's wait end).
    pub first_start: Option<SimTime>,
    /// Whether the group entered execution through the split process
    /// (§IV.D.2) rather than a whole-group batch start.
    pub split_mode: bool,
    /// The Eq. (9) error value computed at assignment time.
    pub assign_error: f64,
}

impl QueuedGroup {
    /// Wraps a freshly dispatched group.
    pub fn new(group: TaskGroup, now: SimTime) -> Self {
        let pw = group.processing_weight();
        QueuedGroup {
            group,
            enqueued_at: now,
            pw,
            next_start: 0,
            running: 0,
            done: 0,
            lost: 0,
            met: 0,
            first_start: None,
            split_mode: false,
            assign_error: 0.0,
        }
    }

    /// Number of members not yet started.
    pub fn unstarted(&self) -> usize {
        self.group.len() - self.next_start
    }

    /// Whether every member has been resolved — finished, or lost to a
    /// failure and handed back for re-dispatch elsewhere.
    pub fn is_complete(&self) -> bool {
        (self.done + self.lost) as usize == self.group.len()
    }

    /// Whether any member has started.
    pub fn has_started(&self) -> bool {
        self.next_start > 0
    }

    /// Snapshot field list. Decoding re-validates the [`TaskGroup::new`]
    /// invariants instead of re-sorting: the restored member order must be
    /// the saved one.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let g = &mut self.group;
        c.u64(&mut g.id.0)?;
        g.policy.snap(c)?;
        c.seq(&mut g.tasks, Task::snap)?;
        let (id, tasks) = (g.id, &g.tasks);
        let edf = tasks
            .windows(2)
            .all(|p| (p[0].deadline, p[0].id) <= (p[1].deadline, p[1].id));
        let pure = match g.policy {
            GroupPolicy::Identical(p) => tasks.iter().all(|t| t.priority == p),
            GroupPolicy::Mixed => true,
        };
        c.check(!tasks.is_empty() && edf && pure, || {
            format!("queued group {id} is empty, out of EDF order or of mixed classes")
        })?;
        let members = tasks.len();
        c.time(&mut self.enqueued_at)?;
        c.nonneg(&mut self.pw)?;
        c.usize(&mut self.next_start)?;
        c.u32(&mut self.running)?;
        c.u32(&mut self.done)?;
        c.u32(&mut self.lost)?;
        c.u32(&mut self.met)?;
        // Every started member is running, done or lost.
        let started: u64 = [self.running, self.done, self.lost]
            .map(u64::from)
            .iter()
            .sum();
        c.check(
            self.next_start <= members
                && started == self.next_start as u64
                && self.met <= self.done,
            || format!("group {id}: execution counters disagree with {members} members"),
        )?;
        c.opt(&mut self.first_start, |t, c| c.time(t))?;
        c.bool(&mut self.split_mode)?;
        c.nonneg(&mut self.assign_error)
    }
}

/// Error returned when pushing to a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// Bounded FIFO of task groups.
///
/// The total processing weight (`Load` in the paper's state vector) is
/// cached and refreshed on push/remove rather than summed per read. The
/// refresh re-sums the queued `pw` values front to back — identical bits
/// to the naive sum, unlike incremental float add/subtract which would
/// drift after mid-queue removals. This relies on `QueuedGroup::pw` being
/// immutable once enqueued (it is set at dispatch and never rewritten).
#[derive(Debug, Clone, Default)]
pub struct GroupQueue {
    capacity: usize,
    slots: VecDeque<QueuedGroup>,
    load: f64,
}

impl GroupQueue {
    /// Creates a queue with the given slot capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        GroupQueue {
            capacity,
            slots: VecDeque::with_capacity(capacity),
            load: 0.0,
        }
    }

    /// Re-sums the cached total load front to back.
    fn refresh_load(&mut self) {
        self.load = self.slots.iter().map(|g| g.pw).sum();
    }

    /// Snapshot field list: the groups, front to back. The capacity comes
    /// from the platform spec (nothing is pre-allocated for it), and the
    /// cached load is re-derived, never read.
    pub(crate) fn snap<C: Codec>(
        &mut self,
        c: &mut C,
        capacity: usize,
    ) -> Result<(), SnapshotError> {
        c.deque(&mut self.slots, QueuedGroup::snap)?;
        if C::DECODE {
            self.capacity = capacity;
            c.check(self.slots.len() <= capacity, || {
                "queued groups exceed queue capacity".into()
            })?;
            self.refresh_load();
        }
        Ok(())
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no groups are queued.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Free slots (`q⁻` in the paper's state vector).
    pub fn available(&self) -> usize {
        self.capacity - self.slots.len()
    }

    /// Enqueues a group, or reports the queue full.
    pub fn push(&mut self, qg: QueuedGroup) -> Result<(), QueueFull> {
        if self.slots.len() >= self.capacity {
            return Err(QueueFull);
        }
        self.slots.push_back(qg);
        self.refresh_load();
        Ok(())
    }

    /// The `i`-th queued group.
    pub fn get(&self, i: usize) -> Option<&QueuedGroup> {
        self.slots.get(i)
    }

    /// The `i`-th queued group, mutably.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut QueuedGroup> {
        self.slots.get_mut(i)
    }

    /// Finds a queued group by id.
    pub fn find_mut(&mut self, id: GroupId) -> Option<&mut QueuedGroup> {
        self.slots.iter_mut().find(|g| g.group.id == id)
    }

    /// Removes and returns the group with the given id (wherever it sits —
    /// with the split process a non-head group can complete first).
    pub fn remove(&mut self, id: GroupId) -> Option<QueuedGroup> {
        let idx = self.slots.iter().position(|g| g.group.id == id)?;
        let removed = self.slots.remove(idx);
        self.refresh_load();
        removed
    }

    /// Total processing weight of queued groups — the `Load` component of
    /// the state vector `S_c(t)`. Served from the push/remove-maintained
    /// cache.
    pub fn total_load(&self) -> f64 {
        debug_assert_eq!(
            self.load,
            self.slots.iter().map(|g| g.pw).sum::<f64>(),
            "queue-load cache out of sync"
        );
        self.load
    }

    /// Audit-mode cross-check of the cached load against the naive sum.
    ///
    /// # Panics
    /// Panics if the cache drifted.
    pub fn assert_cache_consistent(&self) {
        assert_eq!(
            self.load,
            self.slots.iter().map(|g| g.pw).sum::<f64>(),
            "queue-load cache out of sync"
        );
    }

    /// Iterates the queued groups front to back.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedGroup> {
        self.slots.iter()
    }

    /// Iterates the queued groups mutably, front to back.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut QueuedGroup> {
        self.slots.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupPolicy;
    use workload::{Priority, SiteId, Task, TaskId};

    fn group(id: u64, n: usize) -> TaskGroup {
        let tasks: Vec<Task> = (0..n)
            .map(|i| Task {
                id: TaskId(id * 100 + i as u64),
                size_mi: 1000.0,
                arrival: SimTime::ZERO,
                deadline: SimTime::new(10.0 + i as f64),
                priority: Priority::Medium,
                site: SiteId(0),
            })
            .collect();
        TaskGroup::new(GroupId(id), tasks, GroupPolicy::Mixed)
    }

    #[test]
    fn push_until_full() {
        let mut q = GroupQueue::new(2);
        assert_eq!(q.available(), 2);
        q.push(QueuedGroup::new(group(1, 2), SimTime::ZERO))
            .unwrap();
        q.push(QueuedGroup::new(group(2, 2), SimTime::ZERO))
            .unwrap();
        assert_eq!(q.available(), 0);
        assert_eq!(
            q.push(QueuedGroup::new(group(3, 2), SimTime::ZERO)),
            Err(QueueFull)
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn remove_by_id_anywhere() {
        let mut q = GroupQueue::new(3);
        for i in 1..=3 {
            q.push(QueuedGroup::new(group(i, 1), SimTime::ZERO))
                .unwrap();
        }
        let removed = q.remove(GroupId(2)).unwrap();
        assert_eq!(removed.group.id, GroupId(2));
        assert_eq!(q.len(), 2);
        assert!(q.remove(GroupId(2)).is_none());
        assert_eq!(q.get(0).unwrap().group.id, GroupId(1));
    }

    #[test]
    fn load_sums_processing_weights() {
        let mut q = GroupQueue::new(4);
        let g1 = QueuedGroup::new(group(1, 2), SimTime::ZERO);
        let g2 = QueuedGroup::new(group(2, 3), SimTime::ZERO);
        let expected = g1.pw + g2.pw;
        q.push(g1).unwrap();
        q.push(g2).unwrap();
        assert!((q.total_load() - expected).abs() < 1e-12);
    }

    #[test]
    fn bookkeeping_counts() {
        let mut qg = QueuedGroup::new(group(1, 3), SimTime::ZERO);
        assert_eq!(qg.unstarted(), 3);
        assert!(!qg.has_started());
        qg.next_start = 2;
        qg.running = 2;
        assert_eq!(qg.unstarted(), 1);
        assert!(qg.has_started());
        qg.done = 3;
        assert!(qg.is_complete());
    }

    #[test]
    fn lost_members_count_toward_completion() {
        let mut qg = QueuedGroup::new(group(1, 3), SimTime::ZERO);
        qg.done = 2;
        assert!(!qg.is_complete());
        qg.lost = 1;
        assert!(qg.is_complete());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = GroupQueue::new(0);
    }
}
