//! Compute nodes: a set of processors behind one bounded group queue.
//!
//! Eq. (2): the *processing capacity* of node `c` is
//! `PC_c = (1/q_c) · Σ_j sp_j`, where `q_c` is the node's queue length. We
//! read `q_c` as the current backlog plus one (the slot a new group would
//! occupy), so capacity degrades as work queues up — the reading that makes
//! the Eq. (9) `proc_fitness = pw / PC_c` a live load/capacity signal.

use crate::group::GroupId;
use crate::ids::NodeAddr;
use crate::power::PowerParams;
use crate::processor::Processor;
use crate::queue::GroupQueue;
use serde::{Deserialize, Serialize};
use simcore::time::SimTime;
use snapshot::{Codec, SnapshotError};
use workload::TaskId;

/// The lowest throttle level a node runs at.
pub(crate) const MIN_THROTTLE: f64 = 0.1;

/// A compute node.
///
/// # Incremental aggregates
///
/// The node caches everything the dispatch hot path reads per decision —
/// per-processor power draws, their sum, the nominal speed list and its
/// sum, and idle/asleep/failed counters — and updates the caches at each
/// state transition instead of rescanning `processors`. Processor state
/// therefore **must** change through the node's transition methods
/// ([`ComputeNode::start_task_on`], [`ComputeNode::finish_task_on`],
/// [`ComputeNode::sleep_proc`], [`ComputeNode::begin_wake_proc`],
/// [`ComputeNode::finish_wake_proc`], [`ComputeNode::fail_proc`],
/// [`ComputeNode::recover_proc`]), never by mutating a processor directly.
/// Every cached read carries a `debug_assert!` against the naive
/// recomputation, and [`ComputeNode::assert_cache_consistent`] performs
/// the full cross-check for audit-mode tests.
///
/// Bit-identity note: `power_sum` is *recomputed* from the per-processor
/// cache (in processor order) whenever any entry changes, rather than
/// adjusted by a float delta — incremental float accumulation would drift
/// from the naive sum in the last bits and break run determinism.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ComputeNode {
    /// The node's address.
    pub addr: NodeAddr,
    /// The node's processors (4–6 in the paper's experiments). Public for
    /// reads; mutate only through the node's transition methods (see the
    /// type-level docs) or the cached aggregates go stale.
    pub processors: Vec<Processor>,
    /// The bounded group queue.
    pub queue: GroupQueue,
    /// CPU throttle level `θ ∈ (0, 1]` (Online-RL's control knob; 1.0 =
    /// full speed).
    pub throttle: f64,
    /// Cached nominal speed of each processor (static after construction).
    speeds: Vec<f64>,
    /// Cached sum of `speeds` (static after construction).
    raw_speed_mips: f64,
    /// Cached instantaneous power draw of each processor.
    powers: Vec<f64>,
    /// Cached sum of `powers`, recomputed in processor order on change.
    power_sum: f64,
    /// Cached number of idle processors.
    idle: usize,
    /// Cached number of sleeping processors.
    asleep: usize,
    /// Cached number of failed processors.
    failed: usize,
}

impl ComputeNode {
    /// Creates a node from its processors.
    ///
    /// # Panics
    /// Panics if `processors` is empty.
    pub fn new(addr: NodeAddr, processors: Vec<Processor>, queue_capacity: usize) -> Self {
        assert!(
            !processors.is_empty(),
            "a node needs at least one processor"
        );
        let mut node = ComputeNode {
            addr,
            processors,
            queue: GroupQueue::new(queue_capacity),
            throttle: 1.0,
            ..ComputeNode::default()
        };
        node.rebuild_caches();
        node
    }

    /// Recomputes every cached aggregate from the processors.
    fn rebuild_caches(&mut self) {
        let procs = &self.processors;
        self.speeds = procs.iter().map(|p| p.speed_mips).collect();
        self.raw_speed_mips = self.speeds.iter().sum();
        self.powers = procs.iter().map(|p| p.current_power()).collect();
        self.power_sum = self.powers.iter().sum();
        self.idle = procs.iter().filter(|p| p.is_idle()).count();
        self.asleep = procs.iter().filter(|p| p.is_asleep()).count();
        self.failed = procs.iter().filter(|p| p.is_failed()).count();
    }

    /// Snapshot field list. The cached aggregates are rebuilt from the
    /// decoded processors, never read.
    pub(crate) fn snap<C: Codec>(
        &mut self,
        c: &mut C,
        queue_capacity: usize,
        power: &PowerParams,
    ) -> Result<(), SnapshotError> {
        self.addr.snap(c)?;
        c.finite(&mut self.throttle)?;
        let (addr, throttle) = (self.addr, self.throttle);
        c.check((MIN_THROTTLE..=1.0).contains(&throttle), || {
            format!("throttle {throttle} outside [{MIN_THROTTLE}, 1.0]")
        })?;
        c.seq(&mut self.processors, |p, c| p.snap(c, power))?;
        c.check(!self.processors.is_empty(), || {
            format!("node {addr} has no processors")
        })?;
        if C::DECODE {
            self.rebuild_caches();
        }
        self.queue.snap(c, queue_capacity)
    }

    /// Number of processors (`m`, the TG `opnum` upper bound).
    pub fn num_processors(&self) -> usize {
        self.processors.len()
    }

    /// Sum of nominal processor speeds in MIPS.
    pub fn raw_speed(&self) -> f64 {
        debug_assert_eq!(
            self.raw_speed_mips,
            self.processors.iter().map(|p| p.speed_mips).sum::<f64>(),
            "raw-speed cache out of sync"
        );
        self.raw_speed_mips
    }

    /// Eq. (2) processing capacity: raw speed divided by the effective
    /// queue length (backlog + 1).
    pub fn processing_capacity(&self) -> f64 {
        self.raw_speed() / (self.queue.len() + 1) as f64
    }

    /// Indices of processors that can start a task now.
    pub fn idle_procs(&self) -> Vec<usize> {
        self.processors
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_idle())
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of idle processors.
    pub fn idle_count(&self) -> usize {
        debug_assert_eq!(
            self.idle,
            self.processors.iter().filter(|p| p.is_idle()).count(),
            "idle-count cache out of sync"
        );
        self.idle
    }

    /// Number of sleeping processors.
    pub fn asleep_count(&self) -> usize {
        debug_assert_eq!(
            self.asleep,
            self.processors.iter().filter(|p| p.is_asleep()).count(),
            "asleep-count cache out of sync"
        );
        self.asleep
    }

    /// Number of processors currently down from injected faults.
    pub fn failed_count(&self) -> usize {
        debug_assert_eq!(
            self.failed,
            self.processors.iter().filter(|p| p.is_failed()).count(),
            "failed-count cache out of sync"
        );
        self.failed
    }

    /// Processors not currently failed — the node's usable capacity under
    /// faults (equals `num_processors()` on a healthy node).
    pub fn available_processors(&self) -> usize {
        self.processors.len() - self.failed_count()
    }

    /// Fraction of processors currently online (`1.0` on a healthy node).
    pub fn availability(&self) -> f64 {
        self.available_processors() as f64 / self.processors.len() as f64
    }

    /// Sets the throttle level, clamped to `[0.1, 1.0]`. No cache update:
    /// busy power is snapshotted at task start, so a throttle change never
    /// alters any processor's current draw.
    pub fn set_throttle(&mut self, level: f64) {
        self.throttle = level.clamp(MIN_THROTTLE, 1.0);
    }

    /// Refreshes the power cache for processor `i` after a transition.
    fn refresh_power(&mut self, i: usize) {
        self.powers[i] = self.processors[i].current_power();
        // Full re-sum in processor order — identical bits to the naive
        // `proc_powers().iter().sum()` the observation layer used to do.
        self.power_sum = self.powers.iter().sum();
    }

    /// Starts a task on idle processor `i`; returns the completion instant.
    /// Uses the node's current throttle.
    ///
    /// # Panics
    /// Panics if processor `i` is not idle.
    pub fn start_task_on(
        &mut self,
        i: usize,
        now: SimTime,
        task: TaskId,
        group: GroupId,
        size_mi: f64,
        params: &PowerParams,
    ) -> SimTime {
        let throttle = self.throttle;
        let finish = self.processors[i].start_task(now, task, group, size_mi, throttle, params);
        self.idle -= 1;
        self.refresh_power(i);
        finish
    }

    /// Completes the task running on processor `i`, returning
    /// `(task, group)`.
    ///
    /// # Panics
    /// Panics if processor `i` is not busy.
    pub fn finish_task_on(&mut self, i: usize, now: SimTime) -> (TaskId, GroupId) {
        let r = self.processors[i].finish_task(now);
        self.idle += 1;
        self.refresh_power(i);
        r
    }

    /// Puts idle processor `i` to sleep. Returns `false` (no-op) if it is
    /// not idle.
    pub fn sleep_proc(&mut self, i: usize, now: SimTime) -> bool {
        let slept = self.processors[i].sleep(now);
        if slept {
            self.idle -= 1;
            self.asleep += 1;
            self.refresh_power(i);
        }
        slept
    }

    /// Begins waking sleeping processor `i`; returns the instant it becomes
    /// usable, or `None` if it was not asleep.
    pub fn begin_wake_proc(
        &mut self,
        i: usize,
        now: SimTime,
        params: &PowerParams,
    ) -> Option<SimTime> {
        let until = self.processors[i].begin_wake(now, params);
        if until.is_some() {
            self.asleep -= 1;
            self.refresh_power(i);
        }
        until
    }

    /// Completes the wake transition of processor `i`.
    ///
    /// # Panics
    /// Panics if processor `i` is not waking.
    pub fn finish_wake_proc(&mut self, i: usize, now: SimTime) {
        self.processors[i].finish_wake(now);
        self.idle += 1;
        self.refresh_power(i);
    }

    /// Crashes processor `i`. If it was executing, returns the preempted
    /// `(task, group)`. No-op (returning `None`) if already failed.
    pub fn fail_proc(&mut self, i: usize, now: SimTime) -> Option<(TaskId, GroupId)> {
        if self.processors[i].is_failed() {
            return None;
        }
        let was_idle = self.processors[i].is_idle();
        let was_asleep = self.processors[i].is_asleep();
        let preempted = self.processors[i].fail(now);
        if was_idle {
            self.idle -= 1;
        } else if was_asleep {
            self.asleep -= 1;
        }
        self.failed += 1;
        self.refresh_power(i);
        preempted
    }

    /// Brings failed processor `i` back online (idle).
    ///
    /// # Panics
    /// Panics if processor `i` is not failed.
    pub fn recover_proc(&mut self, i: usize, now: SimTime) {
        self.processors[i].recover(now);
        self.failed -= 1;
        self.idle += 1;
        self.refresh_power(i);
    }

    /// Full audit-mode cross-check: every cached aggregate must equal its
    /// naive recomputation, bitwise for the float caches.
    ///
    /// # Panics
    /// Panics on any cache that drifted from ground truth.
    pub fn assert_cache_consistent(&self) {
        assert_eq!(
            self.idle,
            self.processors.iter().filter(|p| p.is_idle()).count(),
            "idle-count cache out of sync"
        );
        assert_eq!(
            self.asleep,
            self.processors.iter().filter(|p| p.is_asleep()).count(),
            "asleep-count cache out of sync"
        );
        assert_eq!(
            self.failed,
            self.processors.iter().filter(|p| p.is_failed()).count(),
            "failed-count cache out of sync"
        );
        let naive_powers: Vec<f64> = self.processors.iter().map(|p| p.current_power()).collect();
        assert_eq!(
            self.powers, naive_powers,
            "per-proc power cache out of sync"
        );
        assert_eq!(
            self.power_sum,
            naive_powers.iter().sum::<f64>(),
            "power-sum cache out of sync"
        );
        let naive_speeds: Vec<f64> = self.processors.iter().map(|p| p.speed_mips).collect();
        assert_eq!(self.speeds, naive_speeds, "speed cache out of sync");
        assert_eq!(
            self.raw_speed_mips,
            naive_speeds.iter().sum::<f64>(),
            "raw-speed cache out of sync"
        );
        self.queue.assert_cache_consistent();
    }

    /// Node energy per Eq. (6): the *mean* per-processor energy
    /// `E_c = (1/m) Σ_j PP_j` evaluated at `now`.
    pub fn energy_at(&self, now: SimTime) -> f64 {
        let total: f64 = self.processors.iter().map(|p| p.energy_at(now)).sum();
        total / self.processors.len() as f64
    }

    /// Sum of per-processor energies at `now` (Σ PP_j without the 1/m).
    pub fn energy_sum_at(&self, now: SimTime) -> f64 {
        self.processors.iter().map(|p| p.energy_at(now)).sum()
    }

    /// Mean processor utilisation at `now`.
    pub fn utilisation_at(&self, now: SimTime) -> f64 {
        let total: f64 = self.processors.iter().map(|p| p.utilisation_at(now)).sum();
        total / self.processors.len() as f64
    }

    /// Instantaneous per-processor power draws — the `{PP_1…m}` component
    /// of the state vector `S_c(t)`. Served from the transition-maintained
    /// cache, so no per-call allocation or processor scan.
    pub fn proc_powers(&self) -> &[f64] {
        debug_assert!(
            self.powers
                .iter()
                .zip(&self.processors)
                .all(|(&w, p)| w == p.current_power()),
            "per-proc power cache out of sync"
        );
        &self.powers
    }

    /// Sum of the per-processor power draws, maintained at transitions
    /// (recomputed from the cache in processor order, so bit-identical to
    /// summing [`ComputeNode::proc_powers`] naively).
    pub fn power_sum(&self) -> f64 {
        debug_assert_eq!(
            self.power_sum,
            self.powers.iter().sum::<f64>(),
            "power-sum cache out of sync"
        );
        self.power_sum
    }

    /// Nominal speed of each processor (MIPS), cached at construction.
    pub fn proc_speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// Effective speed (MIPS) of processor `i` under the current throttle.
    pub fn effective_speed(&self, i: usize) -> f64 {
        self.processors[i].speed_mips * self.throttle
    }
}

/// Builds a node's processors from a speed list.
pub fn processors_from_speeds(speeds: &[f64], params: &PowerParams) -> Vec<Processor> {
    speeds.iter().map(|&s| Processor::new(s, params)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupId, GroupPolicy, TaskGroup};
    use crate::queue::QueuedGroup;
    use workload::{Priority, SiteId, Task, TaskId};

    fn node(speeds: &[f64]) -> ComputeNode {
        let params = PowerParams::paper();
        ComputeNode::new(
            NodeAddr::new(0, 0),
            processors_from_speeds(speeds, &params),
            4,
        )
    }

    fn one_task_group(id: u64) -> QueuedGroup {
        let t = Task {
            id: TaskId(id),
            size_mi: 1000.0,
            arrival: SimTime::ZERO,
            deadline: SimTime::new(10.0),
            priority: Priority::Medium,
            site: SiteId(0),
        };
        QueuedGroup::new(
            TaskGroup::new(GroupId(id), vec![t], GroupPolicy::Mixed),
            SimTime::ZERO,
        )
    }

    #[test]
    fn capacity_decays_with_backlog() {
        let mut n = node(&[500.0, 1000.0]);
        assert_eq!(n.raw_speed(), 1500.0);
        assert_eq!(n.processing_capacity(), 1500.0);
        n.queue.push(one_task_group(1)).unwrap();
        assert_eq!(n.processing_capacity(), 750.0);
        n.queue.push(one_task_group(2)).unwrap();
        assert_eq!(n.processing_capacity(), 500.0);
    }

    #[test]
    fn idle_accounting() {
        let n = node(&[500.0, 600.0, 700.0]);
        assert_eq!(n.idle_count(), 3);
        assert_eq!(n.idle_procs(), vec![0, 1, 2]);
        assert_eq!(n.asleep_count(), 0);
    }

    #[test]
    fn throttle_clamps() {
        let mut n = node(&[500.0]);
        n.set_throttle(0.01);
        assert_eq!(n.throttle, 0.1);
        n.set_throttle(2.0);
        assert_eq!(n.throttle, 1.0);
        n.set_throttle(0.5);
        assert_eq!(n.effective_speed(0), 250.0);
    }

    #[test]
    fn node_energy_is_mean_of_processors() {
        let n = node(&[500.0, 1000.0]);
        // Both idle at 48 W for 10 units -> each 480, mean 480, sum 960.
        let t = SimTime::new(10.0);
        assert!((n.energy_at(t) - 480.0).abs() < 1e-9);
        assert!((n.energy_sum_at(t) - 960.0).abs() < 1e-9);
    }

    #[test]
    fn proc_powers_reflect_state() {
        let n = node(&[500.0, 1000.0]);
        assert_eq!(n.proc_powers(), vec![48.0, 48.0]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn empty_node_rejected() {
        let _ = node(&[]);
    }
}
