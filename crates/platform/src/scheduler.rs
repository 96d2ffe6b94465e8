//! The scheduler interface.
//!
//! Every policy in this repository — the Adaptive-RL contribution and all
//! baseline comparators — implements [`Scheduler`]. The execution engine
//! drives it with arrivals, dispatch opportunities, the two reinforcement
//! feedback signals of §IV.C (the immediate *error* at assignment and the
//! deferred *reward* at group completion), and periodic control ticks.

use crate::group::{GroupId, GroupPolicy};
use crate::ids::{NodeAddr, ProcAddr};
use crate::view::PlatformView;
use simcore::time::SimTime;
use workload::{SiteId, Task};

/// An action a scheduler can take.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Enqueue `tasks` as one task group at `node`. The group size must not
    /// exceed the node's processor count, and the node's queue must have a
    /// free slot; otherwise the engine bounces the tasks back through
    /// [`Scheduler::on_rejected`].
    Dispatch {
        /// Target node.
        node: NodeAddr,
        /// Group members (any order; the group sorts them EDF).
        tasks: Vec<Task>,
        /// The merge policy that produced the group.
        policy: GroupPolicy,
    },
    /// Set a node's CPU throttle level (clamped to `[0.1, 1.0]`). Affects
    /// tasks started after the change. This is the Online-RL baseline's
    /// control knob.
    SetThrottle {
        /// Target node.
        node: NodeAddr,
        /// New throttle level.
        level: f64,
    },
    /// Put an idle processor into deep sleep (no-op if not idle). This is
    /// the Q+ baseline's `go_sleep` action.
    Sleep(
        /// Target processor.
        ProcAddr,
    ),
    /// Begin waking a sleeping processor (`go_active`; no-op if not
    /// asleep). The engine also auto-wakes sleepers when a group at the
    /// head of an otherwise-empty node cannot start.
    Wake(
        /// Target processor.
        ProcAddr,
    ),
}

/// Immediate feedback delivered right after a group is enqueued — carries
/// the Eq. (9) error value. "The agent receives an error value immediately
/// after the task assignment process."
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentFeedback {
    /// The dispatched group.
    pub group: GroupId,
    /// Where it was enqueued.
    pub node: NodeAddr,
    /// The merge policy used.
    pub policy: GroupPolicy,
    /// Group size (`opnum`).
    pub size: usize,
    /// Processing weight (Eq. 10).
    pub pw: f64,
    /// The node's Eq. (2) processing capacity as seen at assignment.
    pub capacity: f64,
    /// Eq. (9): `err_tg = |1 − 1 / (pw / PC_c)|`.
    pub error: f64,
}

/// Deferred feedback delivered when every member of a group has finished —
/// carries the Eq. (8) reward. "For reward the agent has to wait until all
/// tasks in a task group have completed their execution."
#[derive(Debug, Clone, PartialEq)]
pub struct GroupFeedback {
    /// The completed group.
    pub group: GroupId,
    /// Where it executed.
    pub node: NodeAddr,
    /// The merge policy used.
    pub policy: GroupPolicy,
    /// Group size (`opnum`).
    pub size: usize,
    /// Eq. (8): number of members that met their deadline.
    pub reward: u32,
    /// Processing weight at dispatch.
    pub pw: f64,
    /// The Eq. (9) error recorded at assignment.
    pub error: f64,
    /// When the group entered the queue.
    pub enqueued_at: SimTime,
    /// When its first member started executing.
    pub first_start: Option<SimTime>,
    /// When its last member finished.
    pub completed_at: SimTime,
    /// Whether the group entered execution through the split process.
    pub split: bool,
}

impl GroupFeedback {
    /// Fraction of members that met their deadline.
    pub fn success_rate(&self) -> f64 {
        self.reward as f64 / self.size as f64
    }

    /// Queueing delay experienced by the group.
    pub fn wait_time(&self) -> f64 {
        match self.first_start {
            Some(s) => s.since(self.enqueued_at).as_f64(),
            None => 0.0,
        }
    }
}

/// One cross-shard state-synchronisation record exchanged at a sharded
/// run's epoch barriers (see [`crate::shard`]).
///
/// Records are merged across shards and applied in the canonical
/// `(time, seq, site)` order, so the payload's meaning is entirely up to
/// the scheduler — the engine only routes and orders them. The payload is
/// four raw words; schedulers pack their own wire format (the Adaptive-RL
/// policy sends at most one record per site per epoch: the summary of
/// its shared-learning-memory ring, that is the ring's best experience
/// and its length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncRecord {
    /// Simulation time the record was produced at.
    pub time: SimTime,
    /// Producer-local sequence number (ties within one site's epoch).
    pub seq: u64,
    /// Global site id of the producing shard.
    pub site: u32,
    /// Scheduler-defined payload words.
    pub payload: [u64; 4],
}

impl SyncRecord {
    /// The canonical cross-shard ordering key: `(time, seq, site)`.
    /// Total over NaN-free times; sharded runs never produce NaN times.
    pub fn key(&self) -> (u64, u64, u32) {
        // total_cmp-equivalent bit trick is unnecessary: sim times are
        // non-negative finite, so raw bit order equals numeric order.
        (self.time.as_f64().to_bits(), self.seq, self.site)
    }
}

/// A task-scheduling policy driven by the execution engine.
pub trait Scheduler {
    /// Human-readable policy name (used in reports and figure legends).
    fn name(&self) -> &str;

    /// New tasks arrived at `site`. Typical implementations buffer them in
    /// a per-site pending pool.
    fn on_arrivals(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>);

    /// Make decisions. Called after every arrival, group completion and
    /// control tick. Return an empty vector when there is nothing to do.
    fn dispatch(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command>;

    /// Immediate Eq. (9) error feedback after an accepted dispatch.
    fn on_assignment(&mut self, _now: SimTime, _fb: &AssignmentFeedback) {}

    /// Deferred Eq. (8) reward feedback when a group completes.
    fn on_group_complete(&mut self, _now: SimTime, _fb: &GroupFeedback) {}

    /// A dispatch was rejected (full queue or oversized group); the tasks
    /// come back. The default re-buffers them as fresh arrivals.
    fn on_rejected(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.on_arrivals(now, site, tasks);
    }

    /// Tasks lost to an injected failure (preempted mid-execution or
    /// orphaned in a drained queue) come back to their site agent for
    /// re-dispatch, still within their retry budget and possibly with an
    /// escalated priority (§III.B: urgency rises as slack shrinks). The
    /// default re-buffers them as fresh arrivals — ignore-and-retry
    /// semantics, which every baseline inherits for free.
    fn on_orphaned(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.on_arrivals(now, site, tasks);
    }

    /// A queued group was destroyed by a failure before completing; no
    /// Eq. (8) reward will ever arrive for it. Learning schedulers should
    /// drop any sample awaiting that group's feedback.
    fn on_group_aborted(&mut self, _now: SimTime, _group: GroupId) {}

    /// Periodic control tick (decision-interval controllers override this).
    fn on_tick(&mut self, _now: SimTime, _view: &PlatformView<'_>) -> Vec<Command> {
        Vec::new()
    }

    /// Drains the cross-shard synchronisation records this scheduler
    /// produced since the last drain into `out` (sharded runs call this at
    /// every epoch barrier). The default produces nothing — policies with
    /// no cross-site learning state need no sync traffic.
    fn drain_sync(&mut self, _out: &mut Vec<SyncRecord>) {}

    /// Applies one *foreign* shard's synchronisation record (records are
    /// delivered in the canonical `(time, seq, site)` order at the epoch
    /// barrier). The default ignores it.
    fn apply_sync(&mut self, _rec: &SyncRecord) {}

    /// The policy's current exploration rate, for live monitoring and the
    /// time-series sampler. `None` (the default) for policies that do not
    /// explore; the adaptive scheduler reports its ε-greedy rate.
    fn exploration(&self) -> Option<f64> {
        None
    }

    /// Serializes the scheduler's learning and buffering state into a
    /// checkpoint byte stream. Must not mutate observable state — a run
    /// that checkpoints must stay event-for-event identical to one that
    /// does not. The default writes nothing (stateless policies).
    fn save_state(&mut self, w: &mut snapshot::SnapWriter) {
        let _ = w;
    }

    /// Restores state previously written by
    /// [`save_state`](Scheduler::save_state) into a freshly-constructed
    /// scheduler of the same kind and configuration.
    ///
    /// # Errors
    /// Returns a typed [`snapshot::SnapshotError`] on truncated or
    /// structurally invalid bytes; implementations must never panic on
    /// corrupt input.
    fn load_state(
        &mut self,
        r: &mut snapshot::SnapReader<'_>,
    ) -> Result<(), snapshot::SnapshotError> {
        let _ = r;
        Ok(())
    }
}

/// A boxed policy is a policy, so a runtime-chosen `Box<dyn Scheduler +
/// Send>` can feed [`crate::run_sharded`]'s factory. Every method
/// forwards: a missing forwarder would silently fall back to the trait
/// default instead of the boxed policy's override.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_arrivals(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        (**self).on_arrivals(now, site, tasks)
    }
    fn dispatch(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        (**self).dispatch(now, view)
    }
    fn on_assignment(&mut self, now: SimTime, fb: &AssignmentFeedback) {
        (**self).on_assignment(now, fb)
    }
    fn on_group_complete(&mut self, now: SimTime, fb: &GroupFeedback) {
        (**self).on_group_complete(now, fb)
    }
    fn on_rejected(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        (**self).on_rejected(now, site, tasks)
    }
    fn on_orphaned(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        (**self).on_orphaned(now, site, tasks)
    }
    fn on_group_aborted(&mut self, now: SimTime, group: GroupId) {
        (**self).on_group_aborted(now, group)
    }
    fn on_tick(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        (**self).on_tick(now, view)
    }
    fn drain_sync(&mut self, out: &mut Vec<SyncRecord>) {
        (**self).drain_sync(out)
    }
    fn apply_sync(&mut self, rec: &SyncRecord) {
        (**self).apply_sync(rec)
    }
    fn exploration(&self) -> Option<f64> {
        (**self).exploration()
    }
    fn save_state(&mut self, w: &mut snapshot::SnapWriter) {
        (**self).save_state(w)
    }
    fn load_state(
        &mut self,
        r: &mut snapshot::SnapReader<'_>,
    ) -> Result<(), snapshot::SnapshotError> {
        (**self).load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_feedback_derived_metrics() {
        let fb = GroupFeedback {
            group: GroupId(1),
            node: NodeAddr::new(0, 0),
            policy: GroupPolicy::Mixed,
            size: 4,
            reward: 3,
            pw: 100.0,
            error: 0.1,
            enqueued_at: SimTime::new(10.0),
            first_start: Some(SimTime::new(12.5)),
            completed_at: SimTime::new(20.0),
            split: false,
        };
        assert_eq!(fb.success_rate(), 0.75);
        assert_eq!(fb.wait_time(), 2.5);
    }

    #[test]
    fn wait_time_defaults_to_zero_without_start() {
        let fb = GroupFeedback {
            group: GroupId(1),
            node: NodeAddr::new(0, 0),
            policy: GroupPolicy::Mixed,
            size: 1,
            reward: 0,
            pw: 1.0,
            error: 0.0,
            enqueued_at: SimTime::ZERO,
            first_start: None,
            completed_at: SimTime::ZERO,
            split: true,
        };
        assert_eq!(fb.wait_time(), 0.0);
    }
}
