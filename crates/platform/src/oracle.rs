//! The simulation correctness oracle: conservation invariants, shadow
//! energy accounting, and replay-determinism checks.
//!
//! The paper's figures (deadline-hit ratio, ECS energy, utilisation) are
//! only as trustworthy as the simulator's bookkeeping — a dropped task, a
//! double-counted joule, or a stale queue slot silently corrupts every
//! curve. This module is a pluggable auditor that runs alongside *any*
//! scheduler and checks, at every state transition and at end-of-run:
//!
//! * **task conservation** — every arrived task resolves exactly once
//!   (completed or failed), no task runs twice concurrently, and no
//!   [`GroupId`] is ever dispatched twice;
//! * **energy conservation** — the oracle maintains an *independent*
//!   shadow state machine per processor (fed by the engine's transition
//!   stream) and integrates its own energy/time buckets; at end-of-run the
//!   per-processor busy/idle/asleep/failed partitions must tile
//!   `[0, horizon]` exactly and the recomputed `ECS = Σ E_c` must match
//!   the platform's incremental accumulator within 1e-9 (relative);
//! * **queue/capacity invariants** — bounded queues never exceed capacity,
//!   nodes without available processors never receive dispatches, queued
//!   groups keep sane member bookkeeping, event timestamps are monotone;
//! * **replay determinism** — [`replay_divergence`] compares two runs of
//!   the same scenario field by field, bit-exact.
//!
//! The oracle is strictly *observing*: enabling it (via
//! [`crate::ExecConfig::audit`]) changes no scheduling decision, no RNG
//! draw and no float operation on the simulation path, so audited runs
//! produce bit-identical [`RunResult`]s to unaudited ones (minus the
//! attached report).
//!
//! Violations are recorded, not panicked, so one broken invariant cannot
//! mask the others; [`AuditReport::is_clean`] gates CI.

use crate::engine::{RunResult, TaskOutcome};
use crate::group::GroupId;
use crate::power::PowerParams;
use crate::probe::{Hook, Probe, RunView};
use crate::processor::ProcState;
use crate::topology::Platform;
use simcore::time::SimTime;
use std::collections::HashSet;
use std::fmt;
use workload::{Task, TaskId};

/// Relative tolerance for float cross-checks (the issue's 1e-9 contract).
pub const REL_TOL: f64 = 1e-9;

/// Violations kept verbatim in a report before further ones are only
/// counted (guards against a systematic bug producing gigabytes of text).
const MAX_VIOLATIONS: usize = 64;

/// Whether `a` and `b` agree within [`REL_TOL`] (relative, with an
/// absolute floor of `REL_TOL` near zero).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Short invariant identifier, e.g. `task.conservation`.
    pub invariant: String,
    /// Simulation time the violation was observed at.
    pub at: f64,
    /// Human-readable description of the observed inconsistency.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] t={:.4}: {}", self.invariant, self.at, self.detail)
    }
}

/// The outcome of an audit: recorded violations plus check volume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Violations found, in observation order (capped; see `dropped`).
    pub violations: Vec<Violation>,
    /// Individual invariant checks evaluated.
    pub checks: u64,
    /// Engine events audited.
    pub events: u64,
    /// Full platform sweeps performed.
    pub sweeps: u64,
    /// Violations beyond the recording cap (counted, not stored).
    pub dropped: u64,
}

impl AuditReport {
    /// Whether no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }

    /// Total violation count, including ones beyond the recording cap.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.dropped
    }

    /// Records a violation (respecting the cap).
    pub fn violate(&mut self, invariant: &str, at: f64, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation {
                invariant: invariant.to_string(),
                at,
                detail,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Evaluates one check, recording a violation when `cond` is false.
    fn check(&mut self, cond: bool, invariant: &str, at: f64, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !cond {
            self.violate(invariant, at, detail());
        }
    }

    /// Folds another report (e.g. the post-hoc [`audit_result`] pass) into
    /// this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.events += other.events;
        self.sweeps += other.sweeps;
        self.dropped += other.dropped;
        for v in other.violations {
            if self.violations.len() < MAX_VIOLATIONS {
                self.violations.push(v);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "audit: {} checks over {} events / {} sweeps — {}",
            self.checks,
            self.events,
            self.sweeps,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", self.violation_count())
            }
        );
        for v in &self.violations {
            s.push_str("\n  ");
            s.push_str(&v.to_string());
        }
        if self.dropped > 0 {
            s.push_str(&format!("\n  … and {} more (cap reached)", self.dropped));
        }
        s
    }
}

/// Task lifecycle as the oracle tracks it, independent of the engine's
/// `Partial` bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskPhase {
    /// Not yet arrived.
    NotArrived,
    /// Arrived, waiting at the scheduler (or orphaned back to it).
    Pending,
    /// Member of a dispatched group, not yet executing.
    Queued(GroupId),
    /// Executing on the given flat processor index.
    Running(GroupId, usize),
    /// Completed (met or missed).
    Done,
    /// Abandoned by the failure path.
    Failed,
}

/// Shadow processor power state (mirrors [`ProcState`] minus payloads).
#[derive(Debug, Clone, Copy, PartialEq)]
enum ShadowState {
    Idle,
    /// Busy at the snapshotted wattage.
    Busy(f64),
    Asleep,
    /// Waking (draws peak; time accrues into the idle bucket, mirroring
    /// the platform's accounting).
    Waking,
    Failed,
}

/// An independently integrated per-processor accounting shadow. It
/// receives the same transition stream as the real [`crate::Processor`]
/// but keeps its own buckets and energy integral, so a missed or
/// double-applied `settle` on either side shows up as a mismatch.
#[derive(Debug, Clone)]
struct ShadowProc {
    p_peak: f64,
    p_idle: f64,
    p_sleep: f64,
    state: ShadowState,
    since: f64,
    energy: f64,
    busy: f64,
    idle: f64,
    sleep: f64,
    failed: f64,
}

impl ShadowProc {
    fn power(&self) -> f64 {
        match self.state {
            ShadowState::Idle => self.p_idle,
            ShadowState::Busy(w) => w,
            ShadowState::Asleep => self.p_sleep,
            ShadowState::Waking => self.p_peak,
            ShadowState::Failed => 0.0,
        }
    }

    fn settle(&mut self, now: f64) {
        let dt = (now - self.since).max(0.0);
        if dt > 0.0 {
            self.energy += dt * self.power();
            match self.state {
                ShadowState::Idle | ShadowState::Waking => self.idle += dt,
                ShadowState::Busy(_) => self.busy += dt,
                ShadowState::Asleep => self.sleep += dt,
                ShadowState::Failed => self.failed += dt,
            }
        }
        self.since = now;
    }

    fn transition(&mut self, to: ShadowState, now: f64) {
        self.settle(now);
        self.state = to;
    }
}

/// The online auditor. Attached to the engine's driver as a probe when
/// [`crate::ExecConfig::audit`] is set; fed through transition hooks and
/// consumed by [`Oracle::finalize`] at end-of-run.
#[derive(Debug)]
pub struct Oracle {
    report: AuditReport,
    last_event: f64,
    phases: Vec<TaskPhase>,
    arrived: usize,
    completed: usize,
    failed: usize,
    dispatched: HashSet<u64>,
    open_groups: HashSet<u64>,
    groups_completed: u64,
    groups_aborted: u64,
    shadow: Vec<ShadowProc>,
    params: PowerParams,
    last_sweep_energy: f64,
}

/// End-of-run counter totals the driver hands to [`Oracle::finalize`] for
/// cross-checking against the oracle's independent tallies.
#[derive(Debug, Clone, Copy)]
pub struct RunTotals {
    /// Tasks submitted to the run.
    pub num_tasks: usize,
    /// Driver's completed-task counter.
    pub completed: usize,
    /// Driver's failed-task counter.
    pub failed: usize,
    /// Driver's dispatched-group counter.
    pub groups_dispatched: u64,
    /// Driver's completed-group counter.
    pub groups_completed: u64,
    /// Driver's aborted-group counter.
    pub groups_aborted: u64,
    /// The `total_energy` the engine read from the platform's incremental
    /// accumulators (compared against the shadow recomputation).
    pub reported_energy: f64,
    /// Whether the event loop drained (end-state checks only make sense
    /// on a drained run).
    pub drained: bool,
    /// The energy/utilisation horizon the run's totals were read at.
    pub horizon: SimTime,
}

impl Oracle {
    /// Creates an oracle for a platform about to run `num_tasks` tasks.
    /// Shadow processors are indexed flat, site-major then node-major —
    /// the same order as the engine's `proc_base` flattening.
    pub fn new(platform: &Platform, num_tasks: usize) -> Oracle {
        let params = platform.spec.power;
        let mut shadow = Vec::with_capacity(platform.num_processors());
        for site in &platform.sites {
            for node in &site.nodes {
                for p in &node.processors {
                    shadow.push(ShadowProc {
                        p_peak: p.p_peak,
                        p_idle: params.p_idle,
                        p_sleep: params.p_sleep,
                        state: ShadowState::Idle,
                        since: 0.0,
                        energy: 0.0,
                        busy: 0.0,
                        idle: 0.0,
                        sleep: 0.0,
                        failed: 0.0,
                    });
                }
            }
        }
        Oracle {
            report: AuditReport::default(),
            last_event: 0.0,
            phases: vec![TaskPhase::NotArrived; num_tasks],
            arrived: 0,
            completed: 0,
            failed: 0,
            dispatched: HashSet::new(),
            open_groups: HashSet::new(),
            groups_completed: 0,
            groups_aborted: 0,
            shadow,
            params,
            last_sweep_energy: 0.0,
        }
    }

    fn phase(&mut self, task: TaskId) -> &mut TaskPhase {
        &mut self.phases[task.0 as usize]
    }

    /// Moves `task` to phase `to`, checking that `from` accepts the phase
    /// it leaves.
    fn move_task(
        &mut self,
        task: TaskId,
        from: impl Fn(TaskPhase) -> bool,
        invariant: &str,
        what: &str,
        to: TaskPhase,
        t: f64,
    ) {
        let ph = *self.phase(task);
        self.report.check(from(ph), invariant, t, || {
            format!("{task:?} {what} in phase {ph:?}")
        });
        *self.phase(task) = to;
    }

    /// Moves shadow processor `proc` to state `to`, checking that `from`
    /// accepts the state it leaves.
    fn move_proc(
        &mut self,
        proc: usize,
        from: impl Fn(ShadowState) -> bool,
        invariant: &str,
        what: &str,
        to: ShadowState,
        t: f64,
    ) {
        let st = self.shadow[proc].state;
        self.report.check(from(st), invariant, t, || {
            format!("{what} on flat proc {proc} in shadow state {st:?}")
        });
        self.shadow[proc].transition(to, t);
    }

    /// A group was accepted onto a node queue. `queue_len` is the queue
    /// length *after* the push; `available` the node's non-failed
    /// processor count.
    fn check_dispatch(
        &mut self,
        gid: GroupId,
        tasks: &[Task],
        queue_len: usize,
        queue_cap: usize,
        available: usize,
        now: SimTime,
    ) {
        let t = now.as_f64();
        self.report.check(
            self.dispatched.insert(gid.0),
            "group.unique-dispatch",
            t,
            || format!("{gid} dispatched twice"),
        );
        self.open_groups.insert(gid.0);
        self.report
            .check(queue_len <= queue_cap, "queue.capacity", t, || {
                format!("queue length {queue_len} exceeds capacity {queue_cap}")
            });
        self.report.check(
            !tasks.is_empty() && tasks.len() <= available,
            "dispatch.node-capacity",
            t,
            || {
                format!(
                    "group of {} dispatched to a node with {} available processors",
                    tasks.len(),
                    available
                )
            },
        );
        for task in tasks {
            self.move_task(
                task.id,
                |ph| ph == TaskPhase::Pending,
                "task.dispatch-from-pending",
                "dispatched",
                TaskPhase::Queued(gid),
                t,
            );
        }
    }

    /// Periodic full-platform sweep (queue bounds, group bookkeeping,
    /// finite load/power signals, energy monotonicity). O(nodes + queued
    /// groups); the engine runs it on control ticks.
    pub fn sweep(&mut self, platform: &Platform, now: SimTime) {
        let t = now.as_f64();
        self.report.sweeps += 1;
        for site in &platform.sites {
            for node in &site.nodes {
                let addr = node.addr;
                self.report.check(
                    node.queue.len() <= node.queue.capacity(),
                    "queue.capacity",
                    t,
                    || {
                        format!(
                            "node {addr:?} queue length {} over capacity {}",
                            node.queue.len(),
                            node.queue.capacity()
                        )
                    },
                );
                self.report.check(
                    node.queue.total_load().is_finite() && node.queue.total_load() >= 0.0,
                    "queue.finite-load",
                    t,
                    || format!("node {addr:?} queue load {}", node.queue.total_load()),
                );
                self.report.check(
                    node.processing_capacity().is_finite() && node.processing_capacity() > 0.0,
                    "node.finite-capacity",
                    t,
                    || format!("node {addr:?} capacity {}", node.processing_capacity()),
                );
                self.report.check(
                    node.power_sum().is_finite() && node.power_sum() >= 0.0,
                    "node.finite-power",
                    t,
                    || format!("node {addr:?} power sum {}", node.power_sum()),
                );
                for g in node.queue.iter() {
                    let gid = g.group.id;
                    let len = g.group.len();
                    self.report.check(
                        (g.done + g.lost) as usize <= len
                            && g.next_start <= len
                            && g.running as usize <= g.next_start,
                        "group.member-bookkeeping",
                        t,
                        || {
                            format!(
                                "{gid}: len {len}, done {}, lost {}, running {}, next_start {}",
                                g.done, g.lost, g.running, g.next_start
                            )
                        },
                    );
                    self.report.check(
                        self.open_groups.contains(&gid.0),
                        "group.queued-is-open",
                        t,
                        || {
                            format!(
                                "{gid} queued but not open (never dispatched or already resolved)"
                            )
                        },
                    );
                }
            }
        }
        let energy = platform.total_energy_at(now);
        self.report.check(
            energy.is_finite()
                && energy + REL_TOL * energy.abs().max(1.0) >= self.last_sweep_energy,
            "energy.monotone",
            t,
            || {
                format!(
                    "total energy {energy} fell below {}",
                    self.last_sweep_energy
                )
            },
        );
        self.last_sweep_energy = energy.max(self.last_sweep_energy);
    }

    /// End-of-run audit: settles every shadow processor to the horizon,
    /// cross-checks the shadow accounting against the platform's
    /// incremental accumulators, and verifies task/group conservation
    /// against the driver's counters. Consumes the oracle.
    pub fn finalize(mut self, platform: &Platform, totals: &RunTotals) -> AuditReport {
        let horizon = totals.horizon;
        let h = horizon.as_f64();
        // Shadow-versus-incremental accounting: only meaningful on a
        // drained run, where the post-settlement freeze guarantees every
        // processor's last transition is at or before the horizon.
        if totals.drained {
            for sp in &mut self.shadow {
                sp.settle(h);
            }
            let mut flat = 0usize;
            let mut shadow_ecs = 0.0;
            for site in &platform.sites {
                for node in &site.nodes {
                    let m = node.num_processors();
                    let mut node_shadow_energy = 0.0;
                    for p in &node.processors {
                        let sp = &self.shadow[flat];
                        node_shadow_energy += sp.energy;
                        let actual_e = p.energy_at(horizon);
                        self.report.check(
                            close(sp.energy, actual_e),
                            "energy.shadow-recompute",
                            h,
                            || {
                                format!(
                                    "flat proc {flat}: shadow energy {} vs incremental {actual_e}",
                                    sp.energy
                                )
                            },
                        );
                        let buckets = [
                            ("busy", sp.busy, p.busy_time_at(horizon)),
                            ("idle", sp.idle, p.idle_time_at(horizon)),
                            ("sleep", sp.sleep, p.sleep_time_at(horizon)),
                            ("failed", sp.failed, p.failed_time_at(horizon)),
                        ];
                        for (name, shadow_t, actual_t) in buckets {
                            self.report.check(
                                close(shadow_t, actual_t),
                                "time.shadow-buckets",
                                h,
                                || {
                                    format!(
                                        "flat proc {flat}: shadow {name} time {shadow_t} vs {actual_t}"
                                    )
                                },
                            );
                        }
                        let partition = p.busy_time_at(horizon)
                            + p.idle_time_at(horizon)
                            + p.sleep_time_at(horizon)
                            + p.failed_time_at(horizon);
                        self.report.check(
                            close(partition, h),
                            "time.partition",
                            h,
                            || {
                                format!(
                                    "flat proc {flat}: busy+idle+sleep+failed = {partition}, horizon {h}"
                                )
                            },
                        );
                        // At the horizon nothing may still be executing or
                        // waking on a drained run.
                        self.report.check(
                            !matches!(p.state(), ProcState::Busy { .. }),
                            "proc.drained-not-busy",
                            h,
                            || format!("flat proc {flat} still busy after drain"),
                        );
                        flat += 1;
                    }
                    shadow_ecs += node_shadow_energy / m as f64;
                }
            }
            self.report.check(
                close(shadow_ecs, totals.reported_energy),
                "energy.ecs-recompute",
                h,
                || {
                    format!(
                        "shadow ECS {shadow_ecs} vs reported total_energy {}",
                        totals.reported_energy
                    )
                },
            );

            // Task conservation: arrived = completed + failed, every task
            // resolved exactly once.
            self.report.check(
                self.arrived == totals.num_tasks,
                "task.all-arrived",
                h,
                || format!("{} of {} tasks arrived", self.arrived, totals.num_tasks),
            );
            let unresolved = self
                .phases
                .iter()
                .filter(|p| !matches!(p, TaskPhase::Done | TaskPhase::Failed))
                .count();
            self.report
                .check(unresolved == 0, "task.conservation", h, || {
                    format!("{unresolved} task(s) neither completed nor failed after drain")
                });
            self.report.check(
                self.completed == totals.completed && self.failed == totals.failed,
                "task.counter-agreement",
                h,
                || {
                    format!(
                        "oracle saw {}/{} completed/failed, driver counted {}/{}",
                        self.completed, self.failed, totals.completed, totals.failed
                    )
                },
            );
            self.report.check(
                self.completed + self.failed == totals.num_tasks,
                "task.conservation",
                h,
                || {
                    format!(
                        "completed {} + failed {} != submitted {}",
                        self.completed, self.failed, totals.num_tasks
                    )
                },
            );

            // Group conservation: dispatched = completed + aborted, no
            // group left open or queued.
            self.report
                .check(self.open_groups.is_empty(), "group.none-open", h, || {
                    format!("{} group(s) still open after drain", self.open_groups.len())
                });
            let queued: usize = platform
                .sites
                .iter()
                .flat_map(|s| &s.nodes)
                .map(|n| n.queue.len())
                .sum();
            self.report
                .check(queued == 0, "queue.drained-empty", h, || {
                    format!("{queued} group(s) still queued after drain")
                });
            self.report.check(
                self.dispatched.len() as u64 == totals.groups_dispatched
                    && self.groups_completed == totals.groups_completed
                    && self.groups_aborted == totals.groups_aborted,
                "group.counter-agreement",
                h,
                || {
                    format!(
                        "oracle saw {}/{}/{} dispatched/completed/aborted, driver {}/{}/{}",
                        self.dispatched.len(),
                        self.groups_completed,
                        self.groups_aborted,
                        totals.groups_dispatched,
                        totals.groups_completed,
                        totals.groups_aborted
                    )
                },
            );
            self.report.check(
                totals.groups_dispatched == totals.groups_completed + totals.groups_aborted,
                "group.conservation",
                h,
                || {
                    format!(
                        "dispatched {} != completed {} + aborted {}",
                        totals.groups_dispatched, totals.groups_completed, totals.groups_aborted
                    )
                },
            );
        }
        // Cache cross-checks are panicking audits maintained by PR 2; on
        // the oracle path run them too (a panic here is a real bug).
        platform.assert_stats_consistent();
        self.report
    }
}

/// The oracle as a driver probe: every transition is checked against the
/// shadow state machines, `sweep` runs on ticks, and `finalize` plus the
/// post-hoc [`audit_result`] pass make the run's [`AuditReport`].
impl Probe for Oracle {
    fn on(&mut self, platform: &Platform, now: SimTime, hook: Hook<'_>) {
        use ShadowState::{Asleep, Busy, Failed, Idle, Waking};
        use TaskPhase::{Pending, Queued, Running};
        let t = now.as_f64();
        match hook {
            Hook::Event(..) => {
                // Timestamps must be monotone non-decreasing.
                self.report.events += 1;
                self.report.check(
                    t >= self.last_event && t.is_finite(),
                    "event.monotone-time",
                    t,
                    || format!("event at {t} after {}", self.last_event),
                );
                self.last_event = t.max(self.last_event);
            }
            Hook::Arrival(task) => {
                let single = |ph| ph == TaskPhase::NotArrived;
                self.move_task(task, single, "task.single-arrival", "arrived", Pending, t);
                self.arrived += 1;
            }
            Hook::Dispatch(fb, tasks) => {
                // Reported after the push: the length counts the group.
                let node = platform.node(fb.node);
                let (len, cap) = (node.queue.len(), node.queue.capacity());
                let avail = node.available_processors();
                self.check_dispatch(fb.group, tasks, len, cap, avail, now);
            }
            Hook::Start(task, gid, proc, throttle, _) => {
                let ph = *self.phase(task);
                self.report
                    .check(ph == Queued(gid), "task.start-from-queued", t, || {
                        format!("{task:?} started in phase {ph:?}, expected Queued({gid})")
                    });
                *self.phase(task) = Running(gid, proc);
                let w = self.params.busy_power(self.shadow[proc].p_peak, throttle);
                let idle = |st| st == Idle;
                self.move_proc(proc, idle, "proc.start-on-idle", "task started", Busy(w), t);
            }
            Hook::Finish(task, proc, _) => {
                let ph = *self.phase(task.id);
                self.report.check(
                    matches!(ph, Running(_, p) if p == proc),
                    "task.finish-from-running",
                    t,
                    || format!("{:?} finished on proc {proc} in phase {ph:?}", task.id),
                );
                *self.phase(task.id) = TaskPhase::Done;
                self.completed += 1;
                let busy = |st| matches!(st, Busy(_));
                self.move_proc(proc, busy, "proc.finish-on-busy", "finish", Idle, t);
            }
            Hook::Preempt(task) => {
                // The processor's own transition arrives as `ProcFail`.
                let running = |ph| matches!(ph, Running(..));
                let inv = "task.preempt-from-running";
                self.move_task(task, running, inv, "preempted", Pending, t);
            }
            Hook::Detach(task) => {
                let queued = |ph| matches!(ph, Queued(_));
                let inv = "task.detach-from-queued";
                self.move_task(task, queued, inv, "detached", Pending, t);
            }
            Hook::GiveUp(task) => {
                let pending = |ph| ph == Pending;
                let inv = "task.fail-from-pending";
                self.move_task(task, pending, inv, "abandoned", TaskPhase::Failed, t);
                self.failed += 1;
            }
            Hook::GroupComplete(fb, _) => {
                let gid = fb.group;
                let open = self.open_groups.remove(&gid.0);
                self.report.check(open, "group.complete-open", t, || {
                    format!("{gid} completed but was not open")
                });
                self.groups_completed += 1;
            }
            Hook::GroupAbort(_, gid, _) => {
                let open = self.open_groups.remove(&gid.0);
                self.report.check(open, "group.abort-open", t, || {
                    format!("{gid} aborted but was not open")
                });
                self.groups_aborted += 1;
            }
            Hook::ProcSleep(p) => {
                self.move_proc(p, |s| s == Idle, "proc.sleep-from-idle", "sleep", Asleep, t)
            }
            Hook::WakeBegin(p) => {
                let inv = "proc.wake-from-asleep";
                self.move_proc(p, |s| s == Asleep, inv, "wake begin", Waking, t)
            }
            Hook::WakeEnd(p) => self.move_proc(
                p,
                |s| s == Waking,
                "proc.wake-end-waking",
                "wake end",
                Idle,
                t,
            ),
            Hook::ProcFail(p) => self.move_proc(
                p,
                |s| s != Failed,
                "proc.fail-once",
                "double failure",
                Failed,
                t,
            ),
            Hook::ProcRecover(p) => {
                let inv = "proc.recover-from-failed";
                self.move_proc(p, |s| s == Failed, inv, "recover", Idle, t)
            }
            _ => {}
        }
    }

    fn tick(&mut self, run: &RunView<'_>) {
        self.sweep(run.platform, run.now);
    }

    fn finish(self: Box<Self>, run: &RunView<'_>, totals: &RunTotals, result: &mut RunResult) {
        let mut report = self.finalize(run.platform, totals);
        // Fold in the record-level post-hoc pass so `--audit` covers the
        // assembled result too, not just the live run.
        report.merge(audit_result(result));
        result.audit = Some(report);
    }
}

/// Pure post-hoc audit of a finished [`RunResult`]: record-level
/// conservation, causality, counter balance and NaN guards. Needs no
/// engine state, so it also validates deserialised or mutated results —
/// the mutation tests feed deliberately corrupted results through this.
pub fn audit_result(r: &RunResult) -> AuditReport {
    let mut rep = AuditReport::default();
    let h = r.makespan;
    rep.check(
        r.records.len() + r.incomplete == r.num_tasks,
        "task.conservation",
        h,
        || {
            format!(
                "{} records + {} incomplete != {} submitted",
                r.records.len(),
                r.incomplete,
                r.num_tasks
            )
        },
    );
    rep.check(r.incomplete == 0, "task.none-lost", h, || {
        format!("{} task(s) lost (no record)", r.incomplete)
    });
    let mut seen = HashSet::new();
    for rec in &r.records {
        rep.check(seen.insert(rec.task.0), "task.single-record", h, || {
            format!("duplicate record for {:?}", rec.task)
        });
    }
    let met = r
        .records
        .iter()
        .filter(|x| x.outcome == TaskOutcome::Met)
        .count();
    let missed = r
        .records
        .iter()
        .filter(|x| x.outcome == TaskOutcome::Missed)
        .count();
    let failed = r
        .records
        .iter()
        .filter(|x| x.outcome == TaskOutcome::Failed)
        .count();
    rep.check(
        met + missed + failed == r.records.len(),
        "task.outcome-partition",
        h,
        || {
            format!(
                "met {met} + missed {missed} + failed {failed} != {}",
                r.records.len()
            )
        },
    );
    rep.check(failed == r.tasks_failed, "task.failed-counter", h, || {
        format!("{failed} failed records vs tasks_failed {}", r.tasks_failed)
    });
    let mut max_finish: f64 = 0.0;
    for rec in &r.records {
        let t = rec.finished.as_f64();
        rep.check(
            rec.met == (rec.outcome == TaskOutcome::Met),
            "record.met-flag",
            t,
            || {
                format!(
                    "{:?}: met={} but outcome {:?}",
                    rec.task, rec.met, rec.outcome
                )
            },
        );
        if rec.outcome == TaskOutcome::Failed {
            rep.check(!rec.met, "record.failed-not-met", t, || {
                format!("{:?} failed yet met", rec.task)
            });
            continue;
        }
        max_finish = max_finish.max(t);
        rep.check(
            rec.dispatched >= rec.arrival
                && rec.started >= rec.dispatched
                && rec.finished > rec.started,
            "record.causality",
            t,
            || {
                format!(
                    "{:?}: arrival {} dispatched {} started {} finished {}",
                    rec.task, rec.arrival, rec.dispatched, rec.started, rec.finished
                )
            },
        );
        rep.check(
            rec.met == (rec.finished <= rec.deadline),
            "record.met-deadline",
            t,
            || {
                format!(
                    "{:?}: met={} but finished {} deadline {}",
                    rec.task, rec.met, rec.finished, rec.deadline
                )
            },
        );
    }
    if met + missed > 0 {
        rep.check(close(max_finish, r.makespan), "record.makespan", h, || {
            format!("last completion {max_finish} vs makespan {}", r.makespan)
        });
    }
    rep.check(
        r.groups_dispatched == r.groups_completed + r.groups_aborted,
        "group.conservation",
        h,
        || {
            format!(
                "dispatched {} != completed {} + aborted {}",
                r.groups_dispatched, r.groups_completed, r.groups_aborted
            )
        },
    );
    rep.check(
        r.cycles.len() as u64 == r.groups_completed,
        "cycles.one-per-group",
        h,
        || {
            format!(
                "{} cycle samples vs {} completed groups",
                r.cycles.len(),
                r.groups_completed
            )
        },
    );
    let mut cycles_ok = true;
    for (i, w) in r.cycles.windows(2).enumerate() {
        if w[1].cycle != w[0].cycle + 1 || w[1].time < w[0].time || w[1].work_mi < w[0].work_mi {
            cycles_ok = false;
            rep.violate(
                "cycles.monotone",
                w[1].time,
                format!(
                    "cycle log not monotone at index {}: {:?} -> {:?}",
                    i, w[0], w[1]
                ),
            );
            break;
        }
    }
    rep.checks += 1;
    let _ = cycles_ok;
    rep.check(
        r.makespan.is_finite() && r.makespan >= 0.0,
        "metric.finite-makespan",
        h,
        || format!("makespan {}", r.makespan),
    );
    rep.check(
        r.total_energy.is_finite() && r.total_energy >= 0.0,
        "metric.finite-energy",
        h,
        || format!("total_energy {}", r.total_energy),
    );
    rep.check(
        r.mean_utilisation.is_finite() && (0.0..=1.0).contains(&r.mean_utilisation),
        "metric.utilisation-range",
        h,
        || format!("mean_utilisation {}", r.mean_utilisation),
    );
    for rec in &r.records {
        if !rec.size_mi.is_finite() || rec.size_mi <= 0.0 {
            rep.violate(
                "record.finite-size",
                rec.finished.as_f64(),
                format!("{:?} size_mi {}", rec.task, rec.size_mi),
            );
        }
    }
    rep.checks += 1;
    rep
}

/// Field-by-field, bit-exact comparison of two runs of the same scenario.
/// Returns `None` when identical, or a description of the first
/// divergence — the replay-determinism half of the audit.
pub fn replay_divergence(a: &RunResult, b: &RunResult) -> Option<String> {
    macro_rules! cmp {
        ($field:ident) => {
            if a.$field != b.$field {
                return Some(format!(
                    "replay diverged in `{}`: {:?} vs {:?}",
                    stringify!($field),
                    a.$field,
                    b.$field
                ));
            }
        };
    }
    cmp!(scheduler);
    cmp!(num_tasks);
    cmp!(incomplete);
    cmp!(makespan);
    cmp!(total_energy);
    cmp!(mean_utilisation);
    cmp!(groups_dispatched);
    cmp!(groups_completed);
    cmp!(groups_aborted);
    cmp!(split_starts);
    cmp!(rejections);
    cmp!(tasks_failed);
    cmp!(faults_injected);
    cmp!(faults_recovered);
    cmp!(preemptions);
    cmp!(retries);
    cmp!(outcome);
    cmp!(events_processed);
    if a.records != b.records {
        let i = a
            .records
            .iter()
            .zip(&b.records)
            .position(|(x, y)| x != y)
            .unwrap_or(a.records.len().min(b.records.len()));
        return Some(format!(
            "replay diverged in `records` at index {i}: {:?} vs {:?}",
            a.records.get(i),
            b.records.get(i)
        ));
    }
    if a.cycles != b.cycles {
        return Some("replay diverged in `cycles`".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ev;
    use crate::group::GroupPolicy;
    use crate::ids::NodeAddr;
    use crate::scheduler::GroupFeedback;
    use crate::topology::PlatformSpec;
    use simcore::rng::RngStream;
    use workload::{Priority, SiteId};

    fn platform() -> Platform {
        Platform::generate(PlatformSpec::small(1, 2, 4), &RngStream::root(7))
    }

    fn task(id: u64) -> Task {
        Task {
            id: TaskId(id),
            size_mi: 1000.0,
            arrival: SimTime::ZERO,
            deadline: SimTime::new(100.0),
            priority: Priority::Medium,
            site: SiteId(0),
        }
    }

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    /// Feeds one driver hook to the oracle at time `at`.
    fn feed(o: &mut Oracle, at: f64, hook: Hook<'_>) {
        o.on(&platform(), t(at), hook);
    }

    /// Task `task` of group 0 starts on flat processor `proc`.
    fn start(task: u64, proc: usize) -> Hook<'static> {
        Hook::Start(TaskId(task), GroupId(0), proc, 1.0, false)
    }

    /// Completion feedback for group `gid`.
    fn completed(gid: u64) -> GroupFeedback {
        GroupFeedback {
            group: GroupId(gid),
            node: NodeAddr::new(0, 0),
            policy: GroupPolicy::Mixed,
            size: 1,
            reward: 1,
            pw: 1.0,
            error: 0.0,
            enqueued_at: SimTime::ZERO,
            first_start: None,
            completed_at: SimTime::ZERO,
            split: false,
        }
    }

    fn has(oracle: &Oracle, invariant: &str) -> bool {
        oracle
            .report
            .violations
            .iter()
            .any(|v| v.invariant == invariant)
    }

    #[test]
    fn close_tolerates_relative_jitter() {
        assert!(close(1.0, 1.0 + 1e-12));
        assert!(close(1e9, 1e9 * (1.0 + 1e-10)));
        assert!(!close(1.0, 1.001));
        assert!(!close(0.0, 1e-3));
        assert!(close(0.0, 1e-10));
    }

    #[test]
    fn clean_hook_stream_stays_clean() {
        let p = platform();
        let mut o = Oracle::new(&p, 1);
        feed(&mut o, 1.0, Hook::Event(&Ev::Tick, 1));
        feed(&mut o, 1.0, Hook::Arrival(TaskId(0)));
        o.check_dispatch(GroupId(0), &[task(0)], 1, 10, 4, t(1.0));
        feed(&mut o, 1.0, start(0, 0));
        feed(&mut o, 3.0, Hook::Finish(&task(0), 0, true));
        feed(&mut o, 3.0, Hook::GroupComplete(&completed(0), 1));
        assert!(o.report.is_clean(), "{}", o.report.render());
    }

    #[test]
    fn time_regression_is_caught() {
        let mut o = Oracle::new(&platform(), 1);
        feed(&mut o, 5.0, Hook::Event(&Ev::Tick, 1));
        feed(&mut o, 3.0, Hook::Event(&Ev::Tick, 1));
        assert!(has(&o, "event.monotone-time"));
    }

    #[test]
    fn double_arrival_is_caught() {
        let mut o = Oracle::new(&platform(), 1);
        feed(&mut o, 1.0, Hook::Arrival(TaskId(0)));
        feed(&mut o, 2.0, Hook::Arrival(TaskId(0)));
        assert!(has(&o, "task.single-arrival"));
    }

    #[test]
    fn double_dispatch_of_group_is_caught() {
        let mut o = Oracle::new(&platform(), 2);
        feed(&mut o, 1.0, Hook::Arrival(TaskId(0)));
        feed(&mut o, 1.0, Hook::Arrival(TaskId(1)));
        o.check_dispatch(GroupId(7), &[task(0)], 1, 10, 4, t(1.0));
        o.check_dispatch(GroupId(7), &[task(1)], 2, 10, 4, t(2.0));
        assert!(has(&o, "group.unique-dispatch"));
    }

    #[test]
    fn queue_overflow_is_caught() {
        let mut o = Oracle::new(&platform(), 1);
        feed(&mut o, 1.0, Hook::Arrival(TaskId(0)));
        o.check_dispatch(GroupId(0), &[task(0)], 11, 10, 4, t(1.0));
        assert!(has(&o, "queue.capacity"));
    }

    #[test]
    fn oversized_group_is_caught() {
        let mut o = Oracle::new(&platform(), 3);
        for i in 0..3 {
            feed(&mut o, 1.0, Hook::Arrival(TaskId(i)));
        }
        let members: Vec<Task> = (0..3).map(task).collect();
        // Three members dispatched onto a node with two available procs.
        o.check_dispatch(GroupId(0), &members, 1, 10, 2, t(1.0));
        assert!(has(&o, "dispatch.node-capacity"));
    }

    #[test]
    fn dispatch_of_unarrived_task_is_caught() {
        let mut o = Oracle::new(&platform(), 1);
        o.check_dispatch(GroupId(0), &[task(0)], 1, 10, 4, t(1.0));
        assert!(has(&o, "task.dispatch-from-pending"));
    }

    #[test]
    fn start_without_dispatch_is_caught() {
        let mut o = Oracle::new(&platform(), 1);
        feed(&mut o, 1.0, Hook::Arrival(TaskId(0)));
        feed(&mut o, 1.0, start(0, 0));
        assert!(has(&o, "task.start-from-queued"));
    }

    #[test]
    fn double_occupancy_of_processor_is_caught() {
        let mut o = Oracle::new(&platform(), 2);
        feed(&mut o, 1.0, Hook::Arrival(TaskId(0)));
        feed(&mut o, 1.0, Hook::Arrival(TaskId(1)));
        o.check_dispatch(GroupId(0), &[task(0), task(1)], 1, 10, 4, t(1.0));
        feed(&mut o, 1.0, start(0, 0));
        // Second task lands on the same flat processor while it is busy.
        feed(&mut o, 1.0, start(1, 0));
        assert!(has(&o, "proc.start-on-idle"));
    }

    #[test]
    fn finish_on_wrong_processor_is_caught() {
        let mut o = Oracle::new(&platform(), 1);
        feed(&mut o, 1.0, Hook::Arrival(TaskId(0)));
        o.check_dispatch(GroupId(0), &[task(0)], 1, 10, 4, t(1.0));
        feed(&mut o, 1.0, start(0, 0));
        feed(&mut o, 2.0, Hook::Finish(&task(0), 1, true));
        assert!(has(&o, "task.finish-from-running"));
    }

    #[test]
    fn sleep_while_busy_is_caught() {
        let mut o = Oracle::new(&platform(), 1);
        feed(&mut o, 1.0, Hook::Arrival(TaskId(0)));
        o.check_dispatch(GroupId(0), &[task(0)], 1, 10, 4, t(1.0));
        feed(&mut o, 1.0, start(0, 0));
        feed(&mut o, 2.0, Hook::ProcSleep(0));
        assert!(has(&o, "proc.sleep-from-idle"));
    }

    #[test]
    fn wake_of_awake_processor_is_caught() {
        let mut o = Oracle::new(&platform(), 0);
        feed(&mut o, 1.0, Hook::WakeBegin(0));
        assert!(has(&o, "proc.wake-from-asleep"));
    }

    #[test]
    fn wake_end_without_wake_is_caught() {
        let mut o = Oracle::new(&platform(), 0);
        feed(&mut o, 1.0, Hook::WakeEnd(0));
        assert!(has(&o, "proc.wake-end-waking"));
    }

    #[test]
    fn double_fault_is_caught() {
        let mut o = Oracle::new(&platform(), 0);
        feed(&mut o, 1.0, Hook::ProcFail(0));
        feed(&mut o, 2.0, Hook::ProcFail(0));
        assert!(has(&o, "proc.fail-once"));
    }

    #[test]
    fn recovery_of_healthy_processor_is_caught() {
        let mut o = Oracle::new(&platform(), 0);
        feed(&mut o, 1.0, Hook::ProcRecover(0));
        assert!(has(&o, "proc.recover-from-failed"));
    }

    #[test]
    fn completion_of_unopened_group_is_caught() {
        let mut o = Oracle::new(&platform(), 0);
        feed(&mut o, 1.0, Hook::GroupComplete(&completed(9), 1));
        assert!(has(&o, "group.complete-open"));
    }

    #[test]
    fn shadow_energy_integrates_power_over_time() {
        let p = platform();
        let mut o = Oracle::new(&p, 1);
        let p_peak = o.shadow[0].p_peak;
        let p_idle = o.shadow[0].p_idle;
        let busy = o.params.busy_power(p_peak, 1.0);
        feed(&mut o, 0.0, Hook::Arrival(TaskId(0)));
        o.check_dispatch(GroupId(0), &[task(0)], 1, 10, 4, t(0.0));
        feed(&mut o, 0.0, start(0, 0));
        feed(&mut o, 4.0, Hook::Finish(&task(0), 0, true));
        o.shadow[0].settle(10.0);
        let expect = busy * 4.0 + p_idle * 6.0;
        assert!(
            close(o.shadow[0].energy, expect),
            "shadow energy {} vs expected {expect}",
            o.shadow[0].energy
        );
        assert!(close(o.shadow[0].busy, 4.0));
        assert!(close(o.shadow[0].idle, 6.0));
    }

    #[test]
    fn finalize_flags_counter_disagreement() {
        let p = platform();
        let mut o = Oracle::new(&p, 1);
        feed(&mut o, 0.0, Hook::Arrival(TaskId(0)));
        o.check_dispatch(GroupId(0), &[task(0)], 1, 10, 4, t(0.0));
        feed(&mut o, 0.0, start(0, 0));
        feed(&mut o, 4.0, Hook::Finish(&task(0), 0, true));
        feed(&mut o, 4.0, Hook::GroupComplete(&completed(0), 1));
        // The driver claims two completions; the oracle saw one.
        let totals = RunTotals {
            num_tasks: 1,
            completed: 2,
            failed: 0,
            groups_dispatched: 1,
            groups_completed: 1,
            groups_aborted: 0,
            reported_energy: 0.0,
            drained: true,
            horizon: t(4.0),
        };
        let report = o.finalize(&p, &totals);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "task.counter-agreement"));
    }

    #[test]
    fn violation_cap_counts_overflow() {
        let mut rep = AuditReport::default();
        for i in 0..(MAX_VIOLATIONS + 5) {
            rep.violate("test.cap", i as f64, format!("v{i}"));
        }
        assert_eq!(rep.violations.len(), MAX_VIOLATIONS);
        assert_eq!(rep.dropped, 5);
        assert_eq!(rep.violation_count(), MAX_VIOLATIONS as u64 + 5);
        assert!(!rep.is_clean());
        let text = rep.render();
        assert!(text.contains("test.cap"));
        assert!(text.contains("5 more (cap reached)"));
    }
}
