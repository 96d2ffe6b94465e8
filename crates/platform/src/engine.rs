//! The execution engine: drives a [`Scheduler`] against a [`Platform`] with
//! a task stream, implementing the paper's execution semantics:
//!
//! * a task group occupies **one queue slot** and its members start as a
//!   unit once the group reaches the head of the queue and enough
//!   processors are idle (§IV.D.2: "a task group is considered as a single
//!   arrival unit and dedicated to one slot in the queue"),
//! * the **split process** (§IV.D.2): while an earlier group still runs,
//!   idle processors pull EDF-ordered tasks from the next waiting group,
//! * the two reinforcement feedback signals (§IV.C): the Eq. (9) *error*
//!   immediately after assignment, the Eq. (8) *reward* when the whole
//!   group has completed,
//! * energy accounting per Eqs. (5)–(6) throughout.
//!
//! One **learning cycle** = one completed group feedback; Experiment 2's
//! utilisation-versus-learning-cycle curves are derived from the
//! [`CycleSample`] log.

use crate::fault::{FaultPlan, FaultSpec, FaultTarget, PlannedFault};
use crate::group::{GroupId, TaskGroup};
use crate::ids::{NodeAddr, ProcAddr};
use crate::monitor::{LiveMetrics, MonitorProbe, SamplerConfig};
use crate::oracle::{AuditReport, Oracle, RunTotals};
use crate::probe::{Hook, Probe, ProfileProbe, RunView, TraceProbe};
use crate::queue::QueuedGroup;
use crate::scheduler::{AssignmentFeedback, Command, GroupFeedback, Scheduler};
use crate::topology::{Platform, PlatformSpec};
use crate::view::PlatformView;
use simcore::engine::{Engine, EngineHandle, RunOutcome, Simulation};
use simcore::rng::RngStream;
use simcore::time::{SimDuration, SimTime};
use snapshot::{Codec, SnapshotError};
use std::collections::HashMap;
use std::sync::Arc;
use telemetry::{PhaseProfiler, Recorder, TimeSeriesLog};
use workload::{Priority, SimCodec, SiteId, Task, TaskId};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Whether the §IV.D.2 split process is active (ablatable).
    pub split_enabled: bool,
    /// Control-tick period; ticks fire while tasks remain outstanding.
    pub tick_interval: f64,
    /// Maximum number of simulation events (runaway guard).
    pub fuse: u64,
    /// Hard wall on simulated time; the run aborts past this.
    pub max_time: f64,
    /// Fault-injection knobs. Disabled by default: with `faults.enabled ==
    /// false` the engine draws no fault randomness and behaves exactly as
    /// it did before the fault subsystem existed.
    pub faults: FaultSpec,
    /// Run the correctness [`Oracle`] alongside the simulation and attach
    /// its [`AuditReport`] to the result. Strictly observing — scheduling
    /// decisions, RNG draws and metric values are bit-identical with the
    /// audit on or off — but costs roughly a shadow state machine per
    /// processor, so it defaults to off.
    pub audit: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            split_enabled: true,
            tick_interval: 5.0,
            fuse: 50_000_000,
            max_time: 1.0e7,
            faults: FaultSpec::default(),
            audit: false,
        }
    }
}

impl ExecConfig {
    /// Snapshot field list. The audit flag is stored as `false` and never
    /// restored: a resumed run does not carry the oracle, whose mid-run
    /// state is not checkpointable.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.bool(&mut self.split_enabled)?;
        c.nonneg(&mut self.tick_interval)?;
        c.check(self.tick_interval > 0.0, || {
            "tick interval must be positive".into()
        })?;
        c.u64(&mut self.fuse)?;
        c.f64(&mut self.max_time)?;
        c.check(!self.max_time.is_nan(), || "max_time is NaN".into())?;
        c.bool(&mut false)?;
        self.faults.snap(c)
    }
}

/// How a task's lifecycle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOutcome {
    /// Finished within its deadline.
    Met,
    /// Finished, but after its deadline.
    Missed,
    /// Abandoned: injected failures exhausted its re-dispatch budget, or
    /// its site permanently lost every processor.
    Failed,
}

/// Full per-task outcome record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRecord {
    /// The task.
    pub task: TaskId,
    /// Arrival site.
    pub site: SiteId,
    /// Node it executed on.
    pub node: NodeAddr,
    /// The group it was merged into.
    pub group: GroupId,
    /// Task priority.
    pub priority: Priority,
    /// Computational size (MI).
    pub size_mi: f64,
    /// Arrival instant.
    pub arrival: SimTime,
    /// When its group was enqueued at the node.
    pub dispatched: SimTime,
    /// When it began executing.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
    /// Its deadline.
    pub deadline: SimTime,
    /// Whether it finished by the deadline.
    pub met: bool,
    /// Whether it entered execution through the split process.
    pub split: bool,
    /// How the lifecycle ended (`met` is `outcome == Met`, kept for
    /// compatibility). For [`TaskOutcome::Failed`] records, `finished` is
    /// the abandonment instant, and `node`/`group`/`started` hold the last
    /// known assignment (or `NodeAddr {site, node: 0}` / [`GroupId::NONE`]
    /// / the abandonment instant when the task never dispatched).
    pub outcome: TaskOutcome,
    /// Re-dispatch attempts consumed by failures (0 on an undisturbed
    /// task).
    pub attempts: u32,
}

impl TaskRecord {
    /// Response time per Eq. (4)'s summand: waiting plus execution — i.e.
    /// arrival to completion.
    pub fn response_time(&self) -> f64 {
        self.finished.since(self.arrival).as_f64()
    }

    /// Queueing delay (arrival to execution start).
    pub fn wait_time(&self) -> f64 {
        self.started.since(self.arrival).as_f64()
    }

    /// Execution time.
    pub fn exec_time(&self) -> f64 {
        self.finished.since(self.started).as_f64()
    }
}

/// One learning-cycle sample: cumulative useful work delivered at the
/// instant a group feedback was processed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleSample {
    /// Learning-cycle index (1-based).
    pub cycle: u64,
    /// Simulation time of the sample.
    pub time: f64,
    /// Cumulative computational work completed across all processors (MI).
    /// Work — not raw busy time — so that throttled execution (slower,
    /// same instructions) and sleeping both register as reduced service.
    pub work_mi: f64,
}

impl CycleSample {
    /// Snapshot field list.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.u64(&mut self.cycle)?;
        c.nonneg(&mut self.time)?;
        c.nonneg(&mut self.work_mi)
    }
}

/// Everything a run produced; the metric layer derives the paper's figures
/// from this.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The scheduler's name.
    pub scheduler: String,
    /// Per-task outcomes, in completion order.
    pub records: Vec<TaskRecord>,
    /// Tasks submitted but never completed (0 on a healthy run).
    pub incomplete: usize,
    /// Tasks submitted.
    pub num_tasks: usize,
    /// Instant the last task completed.
    pub makespan: f64,
    /// System energy `ECS` (Eq. 6 summed over nodes) at the makespan.
    pub total_energy: f64,
    /// Mean processor utilisation at the makespan.
    pub mean_utilisation: f64,
    /// Learning-cycle log for utilisation-vs-cycles curves.
    pub cycles: Vec<CycleSample>,
    /// Groups dispatched.
    pub groups_dispatched: u64,
    /// Groups completed (= learning cycles).
    pub groups_completed: u64,
    /// Task starts that went through the split process.
    pub split_starts: u64,
    /// Dispatch commands bounced back to the scheduler.
    pub rejections: u64,
    /// Tasks abandoned after injected failures exhausted their retry
    /// budget (each still gets a [`TaskOutcome::Failed`] record).
    pub tasks_failed: usize,
    /// Queued groups destroyed by failures before completing.
    pub groups_aborted: u64,
    /// Fault events injected (processor and whole-node failures).
    pub faults_injected: u64,
    /// Planned outages whose recovery was applied (same units as
    /// [`RunResult::faults_injected`]; superseded or permanent outages
    /// never recover).
    pub faults_recovered: u64,
    /// Tasks preempted mid-execution by failures.
    pub preemptions: u64,
    /// Re-dispatches of preempted or orphaned tasks.
    pub retries: u64,
    /// Processor population of the platform.
    pub total_procs: usize,
    /// Sum of nominal processor speeds (MIPS) — the denominator of the
    /// work-based utilisation metric.
    pub total_mips: f64,
    /// Instant of the last task arrival — the end of the paper's
    /// "observation period" (completions after it are queue drain).
    pub arrival_horizon: f64,
    /// The platform spec the run used.
    pub platform_spec: PlatformSpec,
    /// How the event loop ended.
    pub outcome: String,
    /// Simulation events processed by the event loop — the repository
    /// benchmark's `simcore.events` count.
    pub events_processed: u64,
    /// Peak number of pending future events the event queue held at any
    /// point of the run — sizes the calendar queue's bucket wheel.
    /// Diagnostics only: excluded from replay comparison.
    pub max_queue_occupancy: usize,
    /// Sim-time series of energy/power/queue/availability snapshots on
    /// the sampler cadence. `None` unless the run was executed with a
    /// sampler attached. Diagnostics only: excluded from replay
    /// comparison.
    pub timeseries: Option<TimeSeriesLog>,
    /// The correctness oracle's findings. `None` unless the run was
    /// executed with [`ExecConfig::audit`] set.
    pub audit: Option<AuditReport>,
}

impl RunResult {
    /// Eq. (4) average response time over completed tasks. Tasks abandoned
    /// because of injected failures never completed and are excluded.
    pub fn avg_response_time(&self) -> f64 {
        let done: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.outcome != TaskOutcome::Failed)
            .map(|r| r.response_time())
            .collect();
        if done.is_empty() {
            return 0.0;
        }
        done.iter().sum::<f64>() / done.len() as f64
    }

    /// Successful rate (§V Exp. 3): deadline-met fraction over submitted
    /// tasks (`rew_val / N`).
    pub fn success_rate(&self) -> f64 {
        if self.num_tasks == 0 {
            return 0.0;
        }
        self.records.iter().filter(|r| r.met).count() as f64 / self.num_tasks as f64
    }

    /// Fraction of submitted tasks abandoned because of failures.
    pub fn failure_rate(&self) -> f64 {
        if self.num_tasks == 0 {
            return 0.0;
        }
        self.tasks_failed as f64 / self.num_tasks as f64
    }
}

/// Engine events. `TaskDone`/`WakeDone` carry the processor's fault epoch
/// at scheduling time: a failure bumps the epoch, so completions and wake
/// transitions queued before the crash arrive stale and are ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) enum Ev {
    Arrival(u32),
    TaskDone(ProcAddr, u32),
    WakeDone(ProcAddr, u32),
    #[default]
    Tick,
    Fault(u32),
    Recover(u32),
}

impl Ev {
    /// Static label of the event kind (the trace firehose's `kind`).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Ev::Arrival(_) => "arrival",
            Ev::TaskDone(..) => "task_done",
            Ev::WakeDone(..) => "wake_done",
            Ev::Tick => "tick",
            Ev::Fault(_) => "fault",
            Ev::Recover(_) => "recover",
        }
    }

    /// Snapshot field list: a tag, then the payload. Index and address
    /// range checks are the checkpoint decoder's.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let p = ProcAddr::default();
        let blanks = [
            Ev::Arrival(0),
            Ev::TaskDone(p, 0),
            Ev::WakeDone(p, 0),
            Ev::Tick,
            Ev::Fault(0),
            Ev::Recover(0),
        ];
        c.variant(self, &blanks, "engine-event")?;
        match self {
            Ev::Arrival(i) | Ev::Fault(i) | Ev::Recover(i) => c.u32(i),
            Ev::TaskDone(p, epoch) | Ev::WakeDone(p, epoch) => {
                p.snap(c)?;
                c.u32(epoch)
            }
            Ev::Tick => Ok(()),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Partial {
    pub(crate) node: Option<NodeAddr>,
    pub(crate) group: Option<GroupId>,
    pub(crate) dispatched: Option<SimTime>,
    pub(crate) started: Option<SimTime>,
    pub(crate) finished: Option<SimTime>,
    /// Instant the task was abandoned (retry budget exhausted or site
    /// permanently dead). Mutually exclusive with `finished`.
    pub(crate) failed_at: Option<SimTime>,
    pub(crate) met: bool,
    pub(crate) split: bool,
    /// Re-dispatch attempts consumed by failures.
    pub(crate) attempts: u32,
}

impl Partial {
    /// Snapshot field list.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.opt(&mut self.node, NodeAddr::snap)?;
        c.opt(&mut self.group, |g, c| c.u64(&mut g.0))?;
        c.opt(&mut self.dispatched, |t, c| c.time(t))?;
        c.opt(&mut self.started, |t, c| c.time(t))?;
        c.opt(&mut self.finished, |t, c| c.time(t))?;
        c.opt(&mut self.failed_at, |t, c| c.time(t))?;
        c.bool(&mut self.met)?;
        c.bool(&mut self.split)?;
        c.u32(&mut self.attempts)
    }
}

pub(crate) struct Driver<'s> {
    pub(crate) platform: Platform,
    pub(crate) tasks: Vec<Task>,
    pub(crate) sched: &'s mut dyn Scheduler,
    pub(crate) cfg: ExecConfig,
    pub(crate) partials: Vec<Partial>,
    pub(crate) completed: usize,
    pub(crate) finished_work: f64,
    pub(crate) cycles: Vec<CycleSample>,
    pub(crate) cycle: u64,
    pub(crate) next_group: u64,
    pub(crate) groups_dispatched: u64,
    pub(crate) groups_completed: u64,
    pub(crate) split_starts: u64,
    pub(crate) rejections: u64,
    pub(crate) last_completion: SimTime,
    /// The fault timeline (empty when faults are disabled).
    pub(crate) plan: Vec<PlannedFault>,
    /// Flat processor-index base per `[site][node]` (for `epochs`/
    /// `offline_until`) — plain vector indexing, no hashing on the hot
    /// path.
    pub(crate) proc_base: Vec<Vec<usize>>,
    /// Per-processor fault epoch; bumped on every failure so queued
    /// `TaskDone`/`WakeDone` events from before the crash are recognised
    /// as stale.
    pub(crate) epochs: Vec<u32>,
    /// Per-processor end of the current outage: `0` when never failed,
    /// `INFINITY` when permanently dead, otherwise the latest planned
    /// recovery instant (overlapping outages max-merge).
    pub(crate) offline_until: Vec<f64>,
    /// Per-site count of processors not permanently failed. Zero means the
    /// site can never execute anything again.
    pub(crate) site_perm_procs: Vec<usize>,
    pub(crate) failed_tasks: usize,
    pub(crate) faults_injected: u64,
    pub(crate) faults_recovered: u64,
    pub(crate) preemptions: u64,
    pub(crate) retries: u64,
    pub(crate) groups_aborted: u64,
    /// Reused buffer for nodes touched by one command batch.
    pub(crate) touched_scratch: Vec<NodeAddr>,
    /// Reused buffer for events produced by one engine event.
    pub(crate) ev_scratch: Vec<(SimTime, Ev)>,
    /// Engine events seen (mirrors the engine's own counter, which the
    /// driver cannot reach mid-run).
    pub(crate) events_seen: u64,
    /// Tasks that met their deadline so far (for progress snapshots).
    pub(crate) met_count: usize,
    /// Every observer of the run (oracle, recorder, live metrics and
    /// sampler, profiler). Empty on a plain run, so each hook site costs
    /// one length check.
    pub(crate) probes: Vec<Box<dyn Probe>>,
    /// Instant the run settled: every task resolved (completed or
    /// failed). Events after this are frozen — they must not disturb the
    /// platform's accounting — and the energy/utilisation horizon reads
    /// here when it exceeds the makespan (processors still draw power
    /// between the last completion and settlement, e.g. a failure path
    /// abandoning its final task after the last completion).
    pub(crate) settled_at: SimTime,
    /// Why the run halted early: the policy dispatched a task this run
    /// never issued (possible only for a policy restored from a corrupt
    /// snapshot). The run stops after the current event.
    pub(crate) halted: Option<String>,
}

/// Flat processor layout of a platform: per-`[site][node]` base indices
/// into the flat per-processor vectors, and the total processor count.
/// Shared by the run setup and the checkpoint restore path, which must
/// agree on the layout exactly.
pub(crate) fn proc_layout(platform: &Platform) -> (Vec<Vec<usize>>, usize) {
    let mut proc_base: Vec<Vec<usize>> = Vec::with_capacity(platform.num_sites());
    let mut flat = 0usize;
    for site in &platform.sites {
        let mut bases = Vec::with_capacity(site.nodes.len());
        for node in &site.nodes {
            bases.push(flat);
            flat += node.num_processors();
        }
        proc_base.push(bases);
    }
    (proc_base, flat)
}

/// Reports `$hook` at `$now` to every probe of driver `$d`. The hook is
/// only built when a probe is attached, so an unobserved run pays one
/// length check per site.
macro_rules! report {
    ($d:expr, $now:expr, $hook:expr) => {
        if !$d.probes.is_empty() {
            let hook = $hook;
            for p in &mut $d.probes {
                p.on(&$d.platform, $now, hook);
            }
        }
    };
}

impl Driver<'_> {
    /// Flat processor index (into `epochs` / `offline_until`).
    pub(crate) fn pidx(&self, p: ProcAddr) -> usize {
        self.proc_base[p.node.site.0 as usize][p.node.node as usize] + p.proc as usize
    }

    /// Processors of site `s` not permanently failed.
    pub(crate) fn alive_procs(&self, s: usize) -> usize {
        let bases = &self.proc_base[s];
        let nodes = &self.platform.sites[s].nodes;
        (nodes.iter().zip(bases))
            .map(|(node, &b)| {
                let span = &self.offline_until[b..b + node.num_processors()];
                span.iter().filter(|v| !v.is_infinite()).count()
            })
            .sum()
    }

    /// Flat processor-index base of a node.
    fn base(&self, addr: NodeAddr) -> usize {
        self.proc_base[addr.site.0 as usize][addr.node as usize]
    }

    /// Tasks resolved so far: every arrived task must end up completed
    /// (met or missed) or failed — the conservation invariant.
    fn resolved(&self) -> usize {
        self.completed + self.failed_tasks
    }

    /// Driver-wide tallies at `now`, for [`Probe::tick`] and
    /// [`Probe::finish`].
    fn run_view(&self, now: SimTime) -> RunView<'_> {
        RunView {
            platform: &self.platform,
            now,
            completed: self.completed,
            met: self.met_count,
            failed: self.failed_tasks,
            total: self.tasks.len(),
            events: self.events_seen,
            epsilon: self.sched.exploration(),
        }
    }

    /// Runs [`Probe::tick`] on every probe (control ticks, and the
    /// serving daemon's periodic refresh). O(nodes) per probe that
    /// samples, so never called per event.
    pub(crate) fn tick_probes(&mut self, now: SimTime) {
        let mut probes = std::mem::take(&mut self.probes);
        let view = self.run_view(now);
        for p in &mut probes {
            p.tick(&view);
        }
        self.probes = probes;
    }

    /// Starts every task that can start on `addr` right now, per the
    /// batch-start and split rules. Pushes events to schedule into `out`.
    fn start_ready(&mut self, addr: NodeAddr, now: SimTime, out: &mut Vec<(SimTime, Ev)>) {
        let split_enabled = self.cfg.split_enabled;
        let base = self.base(addr);
        loop {
            let node = self.platform.node(addr);
            // First group with unstarted members. Completed groups are
            // removed eagerly, so every group before it is still running.
            let mut target = None;
            for (i, g) in node.queue.iter().enumerate() {
                if g.unstarted() > 0 {
                    target = Some(i);
                    break;
                }
            }
            let Some(gi) = target else { break };
            let (g_len, g_unstarted, g_started) = {
                let g = node.queue.get(gi).expect("index in range");
                (g.group.len(), g.unstarted(), g.has_started())
            };
            let idle_count = node.idle_count();
            let (to_start, as_split) = if gi == 0 {
                if g_started {
                    // Unit semantics already broken by an earlier split;
                    // keep it running greedily.
                    (idle_count.min(g_unstarted), false)
                } else if idle_count >= g_len {
                    (g_len, false)
                } else {
                    // Blocked at the head with nothing running ahead of it:
                    // wake sleepers to cover the deficit, then wait.
                    let waking = node
                        .processors
                        .iter()
                        .filter(|p| matches!(p.state(), crate::processor::ProcState::Waking { .. }))
                        .count();
                    let deficit = g_len.saturating_sub(idle_count + waking);
                    if deficit > 0 {
                        let num_procs = node.num_processors();
                        let mut woken = 0;
                        for i in 0..num_procs {
                            if woken == deficit {
                                break;
                            }
                            if let Some(until) = self.platform.begin_wake_proc(addr, i, now) {
                                report!(self, now, Hook::WakeBegin(base + i));
                                out.push((
                                    until,
                                    Ev::WakeDone(
                                        ProcAddr {
                                            node: addr,
                                            proc: i as u32,
                                        },
                                        self.epochs[base + i],
                                    ),
                                ));
                                woken += 1;
                            }
                        }
                    }
                    (0, false)
                }
            } else if split_enabled {
                // §IV.D.2: idle processors take EDF tasks from the next
                // waiting group while the earlier group still runs.
                (idle_count.min(g_unstarted), true)
            } else {
                (0, false)
            };
            if to_start == 0 {
                break;
            }
            for _ in 0..to_start {
                // Fastest idle processors serve the earliest deadlines.
                // Select-max with a strict `>` over ascending indices picks
                // the same processor sequence as the old stable descending
                // sort (ties resolve to the lowest index), without the
                // per-call index Vec; each pick leaves Idle, so started
                // processors drop out of the next scan automatically.
                let node = self.platform.node(addr);
                let mut best: Option<usize> = None;
                for (i, p) in node.processors.iter().enumerate() {
                    if !p.is_idle() {
                        continue;
                    }
                    match best {
                        Some(b) if p.speed_mips <= node.processors[b].speed_mips => {}
                        _ => best = Some(i),
                    }
                }
                let proc_idx = best.expect("idle count guarantees an idle processor");
                let (task, group_id) = {
                    let g = self
                        .platform
                        .node_mut(addr)
                        .queue
                        .get_mut(gi)
                        .expect("index in range");
                    let task = g.group.tasks[g.next_start];
                    g.next_start += 1;
                    g.running += 1;
                    if g.first_start.is_none() {
                        g.first_start = Some(now);
                    }
                    if as_split {
                        g.split_mode = true;
                    }
                    (task, g.group.id)
                };
                let finish = self.platform.start_task_on(
                    addr,
                    proc_idx,
                    now,
                    task.id,
                    group_id,
                    task.size_mi,
                );
                report!(
                    self,
                    now,
                    Hook::Start(
                        task.id,
                        group_id,
                        base + proc_idx,
                        self.platform.node(addr).throttle,
                        as_split
                    )
                );
                out.push((
                    finish,
                    Ev::TaskDone(
                        ProcAddr {
                            node: addr,
                            proc: proc_idx as u32,
                        },
                        self.epochs[base + proc_idx],
                    ),
                ));
                let p = &mut self.partials[task.id.0 as usize];
                p.started = Some(now);
                p.split = as_split;
                if as_split {
                    self.split_starts += 1;
                }
            }
        }
    }

    /// Applies scheduler commands; pushes events to schedule into `out`.
    fn apply(&mut self, cmds: Vec<Command>, now: SimTime, out: &mut Vec<(SimTime, Ev)>) {
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        for cmd in cmds {
            match cmd {
                Command::Dispatch {
                    node: addr,
                    tasks,
                    policy,
                } => {
                    // A policy may only dispatch tasks of this run (one
                    // restored from a corrupt snapshot could hold others):
                    // a broken policy halts the run.
                    let foreign = tasks.iter().find(|t| {
                        !(self.tasks.get(t.id.0 as usize)).is_some_and(|o| t.is_copy_of(o))
                    });
                    if let Some(t) = foreign {
                        let (name, id) = (self.sched.name(), t.id);
                        self.halted = Some(format!(
                            "policy '{name}' dispatched task {id}, which this run never issued"
                        ));
                        break;
                    }
                    let accept = {
                        let node = self.platform.node(addr);
                        // `available_processors()` equals `num_processors()`
                        // on a healthy node, so without faults this check is
                        // unchanged; under faults it refuses groups wider
                        // than the node's surviving capacity.
                        !tasks.is_empty()
                            && tasks.len() <= node.available_processors()
                            && node.queue.available() > 0
                            && (!self.cfg.faults.enabled
                                || tasks.iter().all(|t| {
                                    let p = &self.partials[t.id.0 as usize];
                                    p.finished.is_none() && p.failed_at.is_none()
                                }))
                    };
                    if !accept {
                        self.rejections += 1;
                        report!(self, now, Hook::Rejected);
                        let site = tasks.first().map(|t| t.site).unwrap_or(addr.site);
                        self.sched.on_rejected(now, site, tasks);
                        continue;
                    }
                    let gid = GroupId(self.next_group);
                    self.next_group += 1;
                    let capacity = self.platform.node(addr).processing_capacity();
                    let group = TaskGroup::new(gid, tasks, policy);
                    let pw = group.processing_weight();
                    // Eq. (9): err = |1 − 1 / proc_fitness|, proc_fitness = pw / PC_c.
                    let error = (1.0 - capacity / pw).abs();
                    for t in &group.tasks {
                        let p = &mut self.partials[t.id.0 as usize];
                        p.node = Some(addr);
                        p.group = Some(gid);
                        p.dispatched = Some(now);
                    }
                    let size = group.len();
                    let mut qg = QueuedGroup::new(group, now);
                    qg.assign_error = error;
                    self.platform
                        .enqueue_group(addr, qg)
                        .expect("availability checked above");
                    self.groups_dispatched += 1;
                    let fb = AssignmentFeedback {
                        group: gid,
                        node: addr,
                        policy,
                        size,
                        pw,
                        capacity,
                        error,
                    };
                    self.sched.on_assignment(now, &fb);
                    report!(self, now, {
                        let queue = &self.platform.node(addr).queue;
                        let queued = queue.get(queue.len() - 1).expect("group just enqueued");
                        Hook::Dispatch(&fb, &queued.group.tasks)
                    });
                    if !touched.contains(&addr) {
                        touched.push(addr);
                    }
                }
                Command::SetThrottle { node, level } => {
                    self.platform.set_throttle(node, level);
                }
                Command::Sleep(p) => {
                    if self.platform.sleep_proc(p.node, p.proc as usize, now) {
                        report!(self, now, Hook::ProcSleep(self.pidx(p)));
                    }
                }
                Command::Wake(p) => {
                    if let Some(until) = self.platform.begin_wake_proc(p.node, p.proc as usize, now)
                    {
                        let flat = self.pidx(p);
                        report!(self, now, Hook::WakeBegin(flat));
                        out.push((until, Ev::WakeDone(p, self.epochs[flat])));
                    }
                }
            }
        }
        for &addr in &touched {
            self.start_ready(addr, now, out);
        }
        self.touched_scratch = touched;
    }

    /// One dispatch round: ask the scheduler for commands and apply them.
    /// The decision is timed only when a probe records it, and only
    /// rounds that produced commands count as decisions.
    fn dispatch_round(&mut self, now: SimTime, out: &mut Vec<(SimTime, Ev)>) {
        let timed = self.probes.iter().any(|p| p.times_decisions());
        let start = timed.then(std::time::Instant::now);
        let cmds = {
            let view = PlatformView::new(&self.platform, now);
            self.sched.dispatch(now, &view)
        };
        if cmds.is_empty() {
            return;
        }
        if let Some(start) = start {
            report!(self, now, Hook::Decision(start.elapsed().as_secs_f64()));
        }
        self.apply(cmds, now, out);
    }

    /// Finalises a completed group: removes it from the queue, logs the
    /// learning cycle, and delivers the Eq. (8) reward feedback.
    fn complete_group(&mut self, addr: NodeAddr, group_id: GroupId, now: SimTime) {
        let qg = self
            .platform
            .remove_group(addr, group_id)
            .expect("group present");
        self.groups_completed += 1;
        self.cycle += 1;
        self.cycles.push(CycleSample {
            cycle: self.cycle,
            time: now.as_f64(),
            work_mi: self.finished_work,
        });
        let fb = GroupFeedback {
            group: group_id,
            node: addr,
            policy: qg.group.policy,
            size: qg.group.len(),
            reward: qg.met,
            pw: qg.pw,
            error: qg.assign_error,
            enqueued_at: qg.enqueued_at,
            first_start: qg.first_start,
            completed_at: now,
            split: qg.split_mode,
        };
        report!(self, now, Hook::GroupComplete(&fb, self.cycle));
        self.sched.on_group_complete(now, &fb);
    }

    fn handle_task_done(
        &mut self,
        proc: ProcAddr,
        epoch: u32,
        now: SimTime,
        out: &mut Vec<(SimTime, Ev)>,
    ) {
        let flat = self.pidx(proc);
        if self.epochs[flat] != epoch {
            // The processor failed after this completion was scheduled; the
            // running task was preempted and the event is stale.
            return;
        }
        let addr = proc.node;
        let (task_id, group_id) = self.platform.finish_task_on(addr, proc.proc as usize, now);
        let task = self.tasks[task_id.0 as usize];
        let met = now <= task.deadline;
        report!(self, now, Hook::Finish(&task, flat, met));
        {
            let p = &mut self.partials[task_id.0 as usize];
            let started = p.started.expect("finished task must have started");
            // A positive size can still vanish next to a large clock, so a
            // task may finish at the instant it started.
            debug_assert!(now >= started, "execution cannot end before it starts");
            self.finished_work += task.size_mi;
            p.finished = Some(now);
            p.met = met;
        }
        self.completed += 1;
        if met {
            self.met_count += 1;
        }
        if self.resolved() == self.tasks.len() {
            self.settled_at = now;
        }
        self.last_completion = now;

        let complete = {
            let g = self
                .platform
                .node_mut(addr)
                .queue
                .find_mut(group_id)
                .expect("running group is queued");
            g.running -= 1;
            g.done += 1;
            if met {
                g.met += 1;
            }
            g.is_complete()
        };
        if complete {
            self.complete_group(addr, group_id, now);
        }
        self.start_ready(addr, now, out);
        self.dispatch_round(now, out);
    }

    /// Marks a task abandoned: failures exhausted its retry budget, or its
    /// site can never execute anything again.
    fn give_up(&mut self, task_id: TaskId, now: SimTime) {
        let p = &mut self.partials[task_id.0 as usize];
        debug_assert!(p.finished.is_none() && p.failed_at.is_none());
        p.failed_at = Some(now);
        self.failed_tasks += 1;
        report!(self, now, Hook::GiveUp(task_id));
        if self.resolved() == self.tasks.len() {
            self.settled_at = now;
        }
    }

    /// Re-dispatches tasks lost to a failure. Each orphan consumes one unit
    /// of its retry budget; tasks over budget (or stranded on a dead site)
    /// are abandoned. Survivors are handed back to their site agent with a
    /// recomputed priority: a task whose remaining slack has shrunk below
    /// half its original deadline budget escalates to `High` (§III.B —
    /// urgency rises as the deadline nears).
    fn process_orphans(&mut self, orphans: Vec<TaskId>, now: SimTime) {
        let max_retries = self.cfg.faults.max_retries;
        let mut by_site: HashMap<SiteId, Vec<Task>> = HashMap::new();
        let mut sites: Vec<SiteId> = Vec::new();
        for task_id in orphans {
            let task = self.tasks[task_id.0 as usize];
            let attempts = {
                let p = &mut self.partials[task_id.0 as usize];
                p.attempts += 1;
                p.attempts
            };
            let site_dead = self.site_perm_procs[task.site.0 as usize] == 0;
            if attempts > max_retries || site_dead {
                self.give_up(task_id, now);
                continue;
            }
            self.retries += 1;
            report!(self, now, Hook::Retried);
            let mut t = task;
            let budget = task.deadline.since(task.arrival).as_f64();
            let slack = task.deadline.as_f64() - now.as_f64();
            if slack <= 0.5 * budget && t.priority < Priority::High {
                t.priority = Priority::High;
            }
            by_site.entry(t.site).or_insert_with(|| {
                sites.push(t.site);
                Vec::new()
            });
            by_site.get_mut(&t.site).expect("just inserted").push(t);
        }
        // Deterministic delivery order (HashMap iteration is not).
        for site in sites {
            let batch = by_site.remove(&site).expect("site recorded");
            self.sched.on_orphaned(now, site, batch);
        }
    }

    /// Applies planned fault `idx`: fails the target processor(s), preempts
    /// their running tasks, aborts groups a failure has stranded, and
    /// routes every lost task back through the re-dispatch path.
    fn handle_fault(&mut self, idx: usize, now: SimTime, out: &mut Vec<(SimTime, Ev)>) {
        if self.resolved() == self.tasks.len() {
            // Run already settled; let the remaining timeline drain without
            // disturbing post-makespan accounting.
            return;
        }
        let fault = self.plan[idx];
        let addr = fault.target.node();
        let permanent = fault.recover_at.is_none();
        let base = self.base(addr);
        let procs: Vec<usize> = match fault.target {
            FaultTarget::Proc(p) => vec![p.proc as usize],
            FaultTarget::Node(_) => (0..self.platform.node(addr).num_processors()).collect(),
        };
        self.faults_injected += 1;
        let mut orphans: Vec<TaskId> = Vec::new();
        let mut touched_groups: Vec<GroupId> = Vec::new();
        for pi in procs {
            let flat = base + pi;
            // Record this outage window (overlapping outages max-merge).
            let end = match fault.recover_at {
                None => f64::INFINITY,
                Some(r) => r.as_f64(),
            };
            if self.offline_until[flat] < end {
                self.offline_until[flat] = end;
            }
            if self.platform.node(addr).processors[pi].is_failed() {
                continue;
            }
            self.epochs[flat] = self.epochs[flat].wrapping_add(1);
            let preempted = self.platform.fail_proc(addr, pi, now);
            report!(self, now, Hook::ProcFail(flat));
            if let Some((task_id, group_id)) = preempted {
                self.preemptions += 1;
                {
                    let g = self
                        .platform
                        .node_mut(addr)
                        .queue
                        .find_mut(group_id)
                        .expect("running group is queued");
                    g.running -= 1;
                    g.lost += 1;
                }
                report!(self, now, Hook::Preempt(task_id));
                let p = &mut self.partials[task_id.0 as usize];
                p.started = None;
                p.node = None;
                p.group = None;
                p.dispatched = None;
                p.split = false;
                orphans.push(task_id);
                if !touched_groups.contains(&group_id) {
                    touched_groups.push(group_id);
                }
            }
        }
        // Permanent-death accounting: recount the site's not-permanently-
        // failed processors (idempotent, so overlap handling stays simple).
        if permanent {
            let s = addr.site.0 as usize;
            self.site_perm_procs[s] = self.alive_procs(s);
        }
        report!(self, now, Hook::Fault(&fault, orphans.len()));
        // Groups this fault completed by member loss: if any member did
        // finish, the reward feedback still flows; a group that lost every
        // member is aborted instead.
        for gid in touched_groups {
            let status = self
                .platform
                .node(addr)
                .queue
                .iter()
                .find(|g| g.group.id == gid)
                .map(|g| (g.is_complete(), g.done));
            if let Some((true, done)) = status {
                if done > 0 {
                    self.complete_group(addr, gid, now);
                } else {
                    self.abort_group(addr, gid, now, &mut orphans);
                }
            }
        }
        // Stranded sweep: queued groups on this node that can never run to
        // completion on what is left of it.
        self.sweep_stranded(addr, now, &mut orphans);
        self.process_orphans(orphans, now);
        // A dead site strands tasks still pending at the scheduler too.
        if self.cfg.faults.enabled {
            self.sweep_dead_site_pending(addr.site, now);
        }
        self.start_ready(addr, now, out);
        self.dispatch_round(now, out);
    }

    /// Removes a queued group destroyed by a failure. Members not yet
    /// resolved are appended to `orphans` for re-dispatch.
    fn abort_group(
        &mut self,
        addr: NodeAddr,
        gid: GroupId,
        now: SimTime,
        orphans: &mut Vec<TaskId>,
    ) {
        let qg = self
            .platform
            .remove_group(addr, gid)
            .expect("aborting a queued group");
        for t in &qg.group.tasks {
            let p = &mut self.partials[t.id.0 as usize];
            // Finished members keep their records; members the preemption
            // loop already orphaned were detached (`group` cleared) there.
            if p.finished.is_none() && p.failed_at.is_none() && p.group == Some(gid) {
                p.node = None;
                p.group = None;
                p.dispatched = None;
                p.started = None;
                p.split = false;
                orphans.push(t.id);
                report!(self, now, Hook::Detach(t.id));
            }
        }
        self.groups_aborted += 1;
        report!(self, now, Hook::GroupAbort(addr, gid, qg.group.tasks.len()));
        self.sched.on_group_aborted(now, gid);
    }

    /// Aborts queued groups on `addr` that the node's surviving processor
    /// population can never finish: a never-started group needs its full
    /// width at once; a started group only needs one processor to drain.
    fn sweep_stranded(&mut self, addr: NodeAddr, now: SimTime, orphans: &mut Vec<TaskId>) {
        let base = self.base(addr);
        let perm_alive = {
            let n = self.platform.node(addr).num_processors();
            (0..n)
                .filter(|&pi| !self.offline_until[base + pi].is_infinite())
                .count()
        };
        let stranded: Vec<GroupId> = self
            .platform
            .node(addr)
            .queue
            .iter()
            .filter(|g| {
                if g.running > 0 || g.is_complete() {
                    return false;
                }
                let needed = if g.has_started() { 1 } else { g.group.len() };
                perm_alive < needed
            })
            .map(|g| g.group.id)
            .collect();
        for gid in stranded {
            self.abort_group(addr, gid, now, orphans);
        }
    }

    /// When a site has permanently lost all processors, tasks still pending
    /// at the scheduler (arrived, never resolved, not currently in any
    /// group) can never run: fail them now so the run terminates.
    fn sweep_dead_site_pending(&mut self, site: SiteId, now: SimTime) {
        if self.site_perm_procs[site.0 as usize] > 0 {
            return;
        }
        for i in 0..self.tasks.len() {
            let t = self.tasks[i];
            if t.site != site || t.arrival > now {
                continue;
            }
            let p = &self.partials[i];
            if p.finished.is_none() && p.failed_at.is_none() && p.group.is_none() {
                self.give_up(t.id, now);
            }
        }
    }

    /// Applies planned recovery `idx`: brings the processor back online
    /// unless a later overlapping outage supersedes this one.
    fn handle_recover(&mut self, idx: usize, now: SimTime, out: &mut Vec<(SimTime, Ev)>) {
        if self.resolved() == self.tasks.len() {
            return;
        }
        let fault = self.plan[idx];
        let addr = fault.target.node();
        let base = self.base(addr);
        let procs: Vec<usize> = match fault.target {
            FaultTarget::Proc(p) => vec![p.proc as usize],
            FaultTarget::Node(_) => (0..self.platform.node(addr).num_processors()).collect(),
        };
        let mut any = false;
        for pi in procs {
            let flat = base + pi;
            // Skip when a longer overlapping outage owns this processor.
            if self.offline_until[flat] > now.as_f64() + 1e-9 {
                continue;
            }
            if self.platform.node(addr).processors[pi].is_failed() {
                self.platform.recover_proc(addr, pi, now);
                report!(self, now, Hook::ProcRecover(flat));
                any = true;
            }
        }
        if !any {
            return;
        }
        // One planned outage = one recovery, matching `faults_injected`
        // units (a node event counts once, not once per processor).
        self.faults_recovered += 1;
        report!(self, now, Hook::Recover(addr));
        self.start_ready(addr, now, out);
        self.dispatch_round(now, out);
    }
}

impl Simulation for Driver<'_> {
    type Event = Ev;

    fn on_event(&mut self, now: SimTime, event: Ev, handle: &mut EngineHandle<'_, Ev>) -> bool {
        self.events_seen += 1;
        report!(self, now, Hook::Event(&event, self.events_seen));
        if now.as_f64() > self.cfg.max_time {
            return false;
        }
        // One reusable buffer for the whole event — handlers append, the
        // tail loop schedules, and the (cleared) capacity carries over to
        // the next event instead of reallocating.
        let mut out = std::mem::take(&mut self.ev_scratch);
        out.clear();
        match event {
            Ev::Arrival(idx) => {
                let task = self.tasks[idx as usize];
                report!(self, now, Hook::Arrival(task.id));
                if self.cfg.faults.enabled && self.site_perm_procs[task.site.0 as usize] == 0 {
                    // The site permanently lost every processor before this
                    // task arrived: nothing can ever run it.
                    self.give_up(task.id, now);
                } else {
                    self.sched.on_arrivals(now, task.site, vec![task]);
                    self.dispatch_round(now, &mut out);
                }
            }
            Ev::TaskDone(proc, epoch) => self.handle_task_done(proc, epoch, now, &mut out),
            Ev::WakeDone(proc, epoch) => {
                let settled = !self.tasks.is_empty() && self.resolved() == self.tasks.len();
                if self.epochs[self.pidx(proc)] != epoch || settled {
                    // The processor failed mid-wake (stale epoch), or the
                    // run already settled: freeze the transition. The
                    // energy horizon reads at settlement, and applying
                    // post-settlement transitions would fold the interval
                    // beyond it back into the accumulators (`SimTime::
                    // since` saturates, so `energy_at(horizon)` after a
                    // later transition overcounts the tail).
                } else {
                    self.platform
                        .finish_wake_proc(proc.node, proc.proc as usize, now);
                    report!(self, now, Hook::WakeEnd(self.pidx(proc)));
                    self.start_ready(proc.node, now, &mut out);
                }
            }
            Ev::Fault(idx) => self.handle_fault(idx as usize, now, &mut out),
            Ev::Recover(idx) => self.handle_recover(idx as usize, now, &mut out),
            Ev::Tick => {
                let settled = !self.tasks.is_empty() && self.resolved() == self.tasks.len();
                if !settled {
                    // Post-settlement ticks are frozen for the same
                    // accounting reason as wake transitions: an `on_tick`
                    // sleep/throttle command would settle processors past
                    // the energy horizon.
                    let cmds = {
                        let view = PlatformView::new(&self.platform, now);
                        self.sched.on_tick(now, &view)
                    };
                    if !cmds.is_empty() {
                        self.apply(cmds, now, &mut out);
                    }
                    self.dispatch_round(now, &mut out);
                    if !self.probes.is_empty() {
                        self.tick_probes(now);
                    }
                    if self.resolved() < self.tasks.len() {
                        handle.schedule_in(SimDuration::new(self.cfg.tick_interval), Ev::Tick);
                    }
                }
            }
        }
        for &(t, ev) in &out {
            handle.schedule_at(t, ev);
        }
        self.ev_scratch = out;
        report!(self, now, Hook::EventEnd);
        self.halted.is_none()
    }
}

/// Runs one scheduler over one platform and task stream.
///
/// ```
/// use platform::{ExecConfig, ExecEngine, Platform, PlatformSpec};
/// use platform::{Command, GroupPolicy, PlatformView, Scheduler};
/// use simcore::rng::RngStream;
/// use simcore::SimTime;
/// use workload::{SiteId, Task, Workload, WorkloadSpec};
///
/// // A two-line FCFS policy…
/// struct Fcfs(Vec<Task>);
/// impl Scheduler for Fcfs {
///     fn name(&self) -> &str { "fcfs" }
///     fn on_arrivals(&mut self, _: SimTime, _: SiteId, tasks: Vec<Task>) {
///         self.0.extend(tasks);
///     }
///     fn dispatch(&mut self, _: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
///         let mut cmds = Vec::new();
///         let mut kept = Vec::new();
///         for t in self.0.drain(..) {
///             match view.site_nodes(t.site).find(|n| n.queue_available() > 0) {
///                 Some(n) => cmds.push(Command::Dispatch {
///                     node: n.addr(), tasks: vec![t], policy: GroupPolicy::Mixed,
///                 }),
///                 None => kept.push(t),
///             }
///         }
///         self.0 = kept;
///         cmds
///     }
/// }
///
/// // …run against a generated platform and workload.
/// let rng = RngStream::root(1);
/// let platform = Platform::generate(PlatformSpec::small(1, 2, 4), &rng.derive("p"));
/// let wl = Workload::generate(WorkloadSpec::paper(50, 1, platform.reference_speed()),
///                             &rng.derive("w"));
/// let mut sched = Fcfs(Vec::new());
/// let result = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
/// assert_eq!(result.incomplete, 0);
/// assert!(result.total_energy > 0.0);
/// ```
#[derive(Clone, Default)]
pub struct ExecEngine {
    /// Engine configuration.
    pub cfg: ExecConfig,
    /// Scripted fault timeline. When set, it overrides the generated plan
    /// (and is honoured even with `cfg.faults.enabled == false` randomness
    /// knobs, as long as `enabled` is true).
    fault_plan: Option<FaultPlan>,
    /// Telemetry recorder the run traces into (strictly observing).
    recorder: Option<Arc<dyn Recorder>>,
    /// Live metric handles the run publishes into (strictly observing).
    monitor: Option<Arc<LiveMetrics>>,
    /// Time-series sampler cadence; `None` disables sampling.
    sampler: Option<SamplerConfig>,
    /// Phase profiler for `--profile` runs (strictly observing).
    profiler: Option<Arc<PhaseProfiler>>,
}

impl ExecEngine {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: ExecConfig) -> Self {
        ExecEngine {
            cfg,
            ..ExecEngine::default()
        }
    }

    /// Replaces the MTBF-generated fault timeline with a scripted one
    /// (tests and what-if experiments). Implies nothing about
    /// `cfg.faults.enabled`; set that too or the plan is ignored.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Traces the run into `rec`: dispatch spans, group completion and
    /// abort markers, fault/recovery markers with per-site queue-depth and
    /// power snapshots, and (at [`telemetry::TraceLevel::All`]) one record
    /// per engine event. The recorder counts nothing: the run's totals
    /// are [`RunResult`] fields, and decision latency is the monitor's
    /// `arls_decision_latency_seconds`. The caller owns sink finalisation
    /// (`rec.finish()`). Strictly observing.
    pub fn with_recorder(mut self, rec: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Publishes live run state into `monitor`'s pre-registered metric
    /// handles. Strictly observing: scheduling decisions, RNG draws and
    /// every `RunResult` field except diagnostics are bit-identical with
    /// the monitor on or off.
    pub fn with_monitor(mut self, monitor: Arc<LiveMetrics>) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Samples a [`telemetry::TimePoint`] on the given cadence; the series
    /// lands in [`RunResult::timeseries`]. Strictly observing, like the
    /// monitor.
    pub fn with_sampler(mut self, cfg: SamplerConfig) -> Self {
        self.sampler = Some(cfg);
        self
    }

    /// Accumulates per-phase wall-clock timings into `profiler`: the
    /// driver splits the event loop into event pop and event handling,
    /// and downstream layers time their own phases into the same
    /// profiler. Strictly observing.
    pub fn with_profiler(mut self, profiler: Arc<PhaseProfiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// The attached profiler, if any (shared with [`crate::checkpoint`]).
    pub(crate) fn profiler(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_deref()
    }

    /// Runs the simulation to completion and collects the results.
    ///
    /// # Panics
    /// Panics if task ids are not dense from 0 (as the workload generator
    /// produces them).
    pub fn run(
        &self,
        platform: Platform,
        tasks: Vec<Task>,
        sched: &mut dyn Scheduler,
    ) -> RunResult {
        let (mut driver, mut engine) = self.prepare(platform, tasks, sched);
        let outcome = engine.run(&mut driver);
        assemble_result(driver, &engine, outcome, None)
    }

    /// Builds the driver, with a probe for every attached observer, and a
    /// primed engine — the shared front half of [`ExecEngine::run`], the
    /// checkpointing run in [`crate::checkpoint`], sessions and shards.
    /// Every path must produce bit-identical initial state for
    /// checkpoint/restore determinism to hold.
    pub(crate) fn prepare<'s>(
        &self,
        platform: Platform,
        tasks: Vec<Task>,
        sched: &'s mut dyn Scheduler,
    ) -> (Driver<'s>, Engine<Ev>) {
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id.0, i as u64, "task ids must be dense from 0");
        }
        let total_procs = platform.num_processors();
        let num_tasks = tasks.len();
        self.cfg.faults.validate();
        let plan = if self.cfg.faults.enabled {
            match &self.fault_plan {
                Some(p) => p.clone(),
                None if self.cfg.faults.is_active() => FaultPlan::generate(
                    &self.cfg.faults,
                    &platform,
                    &RngStream::root(self.cfg.faults.seed),
                ),
                None => FaultPlan::empty(),
            }
        } else {
            FaultPlan::empty()
        };
        let (proc_base, flat) = proc_layout(&platform);
        let mut site_perm_procs = vec![0usize; platform.num_sites()];
        for site in &platform.sites {
            for node in &site.nodes {
                site_perm_procs[node.addr.site.0 as usize] += node.num_processors();
            }
        }
        let mut probes: Vec<Box<dyn Probe>> = Vec::new();
        if let Some(prof) = &self.profiler {
            // First, so event-handle time covers the other probes' hooks.
            probes.push(Box::new(ProfileProbe::new(prof.clone())));
        }
        if self.cfg.audit {
            probes.push(Box::new(Oracle::new(&platform, num_tasks)));
        }
        if let Some(rec) = &self.recorder {
            probes.push(Box::new(TraceProbe::new(rec.clone())));
        }
        if self.monitor.is_some() || self.sampler.is_some() {
            probes.push(Box::new(MonitorProbe::new(
                self.monitor.clone(),
                self.sampler,
            )));
        }
        let driver = Driver {
            platform,
            partials: vec![Partial::default(); num_tasks],
            tasks,
            sched,
            cfg: self.cfg,
            completed: 0,
            finished_work: 0.0,
            cycles: Vec::new(),
            cycle: 0,
            next_group: 0,
            groups_dispatched: 0,
            groups_completed: 0,
            split_starts: 0,
            rejections: 0,
            last_completion: SimTime::ZERO,
            plan: plan.events,
            proc_base,
            epochs: vec![0; flat],
            offline_until: vec![0.0; flat],
            site_perm_procs,
            failed_tasks: 0,
            faults_injected: 0,
            faults_recovered: 0,
            preemptions: 0,
            retries: 0,
            groups_aborted: 0,
            touched_scratch: Vec::new(),
            ev_scratch: Vec::new(),
            events_seen: 0,
            met_count: 0,
            probes,
            settled_at: SimTime::ZERO,
            halted: None,
        };
        // Peak event-queue occupancy: every arrival is primed upfront, the
        // fault plan adds at most one fault + one recovery per entry, at
        // most one TaskDone/WakeDone can be in flight per processor, and a
        // single Tick is outstanding at any time.
        let queue_cap = num_tasks + 2 * driver.plan.len() + total_procs + 2;
        let mut engine = Engine::new()
            .with_queue_capacity(queue_cap)
            .with_fuse(self.cfg.fuse);
        for (i, t) in driver.tasks.iter().enumerate() {
            engine.prime(t.arrival, Ev::Arrival(i as u32));
        }
        engine.prime(SimTime::new(self.cfg.tick_interval), Ev::Tick);
        for (i, f) in driver.plan.iter().enumerate() {
            engine.prime(f.at, Ev::Fault(i as u32));
            if let Some(r) = f.recover_at {
                engine.prime(r, Ev::Recover(i as u32));
            }
        }
        (driver, engine)
    }
}

/// Collapses a finished [`Driver`] into the public [`RunResult`] — the
/// shared back half of every run — and hands each probe its
/// [`Probe::finish`] at the engine's clock. `horizon_override` sets the
/// energy/utilisation horizon: sharded runs finalise every shard at the
/// *global* horizon — the instant the last shard settled — so per-site
/// energy integrals sum to the whole cluster's draw over one common
/// interval.
///
/// # Panics
/// Panics if the run halted on a task its policy made up: a policy bug. A
/// resume reports the same halt as a [`snapshot::SnapshotError`] before it
/// gets here.
pub(crate) fn assemble_result(
    mut driver: Driver<'_>,
    engine: &Engine<Ev>,
    outcome: RunOutcome,
    horizon_override: Option<SimTime>,
) -> RunResult {
    if let Some(why) = &driver.halted {
        panic!("{why}");
    }
    let total_procs = driver.platform.num_processors();
    let total_mips: f64 = driver
        .platform
        .sites
        .iter()
        .flat_map(|s| &s.nodes)
        .map(|n| n.raw_speed())
        .sum();
    let spec = driver.platform.spec.clone();
    let num_tasks = driver.tasks.len();
    let arrival_horizon = driver
        .tasks
        .iter()
        .map(|t| t.arrival.as_f64())
        .fold(0.0_f64, f64::max);
    let name = driver.sched.name().to_string();

    let makespan = driver.last_completion;
    // Energy/utilisation horizon: for a fully resolved run, the later
    // of the last completion and the settlement instant — a failure
    // path can abandon its final task *after* the last completion,
    // and the platform keeps drawing idle power until then. (On an
    // all-failed run `makespan` is zero but energy was still burned.)
    // Unresolved runs (`Stopped`/`FuseBlown`) read at the makespan as
    // before.
    let resolved_all = !driver.tasks.is_empty() && driver.resolved() == driver.tasks.len();
    let horizon = horizon_override.unwrap_or(if resolved_all {
        driver.settled_at.max(makespan)
    } else {
        makespan
    });
    let total_energy = driver.platform.total_energy_at(horizon);
    let mean_utilisation = driver.platform.mean_utilisation_at(horizon);
    let records: Vec<TaskRecord> = driver
        .partials
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let task = driver.tasks[i];
            if let Some(finished) = p.finished {
                Some(TaskRecord {
                    task: task.id,
                    site: task.site,
                    node: p.node.expect("finished implies dispatched"),
                    group: p.group.expect("finished implies grouped"),
                    priority: task.priority,
                    size_mi: task.size_mi,
                    arrival: task.arrival,
                    dispatched: p.dispatched.expect("finished implies dispatched"),
                    started: p.started.expect("finished implies started"),
                    finished,
                    deadline: task.deadline,
                    met: p.met,
                    split: p.split,
                    outcome: if p.met {
                        TaskOutcome::Met
                    } else {
                        TaskOutcome::Missed
                    },
                    attempts: p.attempts,
                })
            } else {
                let failed_at = p.failed_at?;
                Some(TaskRecord {
                    task: task.id,
                    site: task.site,
                    node: p.node.unwrap_or(NodeAddr {
                        site: task.site,
                        node: 0,
                    }),
                    group: p.group.unwrap_or(GroupId::NONE),
                    priority: task.priority,
                    size_mi: task.size_mi,
                    arrival: task.arrival,
                    dispatched: p.dispatched.unwrap_or(failed_at),
                    started: p.started.unwrap_or(failed_at),
                    finished: failed_at,
                    deadline: task.deadline,
                    met: false,
                    split: p.split,
                    outcome: TaskOutcome::Failed,
                    attempts: p.attempts,
                })
            }
        })
        .collect();
    let incomplete = num_tasks - records.len();
    let totals = RunTotals {
        num_tasks,
        completed: driver.completed,
        failed: driver.failed_tasks,
        groups_dispatched: driver.groups_dispatched,
        groups_completed: driver.groups_completed,
        groups_aborted: driver.groups_aborted,
        reported_energy: total_energy,
        drained: matches!(outcome, RunOutcome::Drained),
        horizon,
    };
    let probes = std::mem::take(&mut driver.probes);
    let mut result = RunResult {
        scheduler: name,
        incomplete,
        num_tasks,
        makespan: makespan.as_f64(),
        total_energy,
        mean_utilisation,
        cycles: std::mem::take(&mut driver.cycles),
        groups_dispatched: driver.groups_dispatched,
        groups_completed: driver.groups_completed,
        split_starts: driver.split_starts,
        rejections: driver.rejections,
        tasks_failed: driver.failed_tasks,
        groups_aborted: driver.groups_aborted,
        faults_injected: driver.faults_injected,
        faults_recovered: driver.faults_recovered,
        preemptions: driver.preemptions,
        retries: driver.retries,
        total_procs,
        total_mips,
        arrival_horizon,
        platform_spec: spec,
        records,
        outcome: format!("{outcome:?}"),
        events_processed: engine.processed(),
        max_queue_occupancy: engine.queue().max_occupancy(),
        timeseries: None,
        audit: None,
    };
    let view = driver.run_view(engine.now());
    for p in probes {
        p.finish(&view, &totals, &mut result);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupPolicy;
    use crate::topology::PlatformSpec;
    use simcore::rng::RngStream;
    use workload::{Workload, WorkloadSpec};

    /// Minimal FCFS scheduler: dispatches each task alone to the node with
    /// the most free queue slots in its site.
    struct Fcfs {
        pending: Vec<Task>,
    }

    impl Scheduler for Fcfs {
        fn name(&self) -> &str {
            "fcfs-test"
        }
        fn on_arrivals(&mut self, _now: SimTime, _site: SiteId, tasks: Vec<Task>) {
            self.pending.extend(tasks);
        }
        fn dispatch(&mut self, _now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
            let mut cmds = Vec::new();
            let mut remaining = Vec::new();
            for task in self.pending.drain(..) {
                let best = view
                    .site_nodes(task.site)
                    .filter(|n| n.queue_available() > 0)
                    .max_by(|a, b| a.queue_available().cmp(&b.queue_available()));
                match best {
                    Some(n) => cmds.push(Command::Dispatch {
                        node: n.addr(),
                        tasks: vec![task],
                        policy: GroupPolicy::Mixed,
                    }),
                    None => remaining.push(task),
                }
            }
            self.pending = remaining;
            cmds
        }
    }

    fn run_fcfs(n_tasks: usize, split: bool) -> RunResult {
        let rng = RngStream::root(11);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let wl = Workload::generate(
            WorkloadSpec::paper(n_tasks, 2, platform.reference_speed()),
            &rng.derive("w"),
        );
        let mut sched = Fcfs {
            pending: Vec::new(),
        };
        let engine = ExecEngine::new(ExecConfig {
            split_enabled: split,
            ..ExecConfig::default()
        });
        engine.run(platform, wl.tasks, &mut sched)
    }

    #[test]
    fn all_tasks_complete() {
        let r = run_fcfs(200, true);
        assert_eq!(r.incomplete, 0);
        assert_eq!(r.records.len(), 200);
        assert_eq!(r.groups_completed, r.groups_dispatched);
        assert!(r.makespan > 0.0);
        assert_eq!(r.outcome, "Drained");
    }

    #[test]
    fn records_are_causally_ordered() {
        let r = run_fcfs(150, true);
        for rec in &r.records {
            assert!(rec.dispatched >= rec.arrival, "dispatch before arrival");
            assert!(rec.started >= rec.dispatched, "start before dispatch");
            assert!(rec.finished > rec.started, "finish before start");
            assert!(rec.response_time() > 0.0);
            assert_eq!(rec.met, rec.finished <= rec.deadline);
        }
    }

    #[test]
    fn energy_is_positive_and_bounded() {
        let r = run_fcfs(100, true);
        // Lower bound: every proc idling the whole run.
        // Upper bound: every proc at global peak (95 W) the whole run.
        // Node energy is the per-proc mean, so ECS sums node counts.
        let nodes = 6.0;
        let lo = 48.0 * r.makespan * nodes * 0.99;
        let hi = 95.0 * r.makespan * nodes * 1.01;
        assert!(
            r.total_energy > lo && r.total_energy < hi,
            "energy {} not in [{lo}, {hi}]",
            r.total_energy
        );
    }

    #[test]
    fn utilisation_in_unit_range() {
        let r = run_fcfs(100, true);
        assert!(r.mean_utilisation > 0.0 && r.mean_utilisation <= 1.0);
    }

    /// Runs the `run_fcfs` scenario with a monitor, sampler and profiler
    /// attached.
    fn run_fcfs_monitored() -> (RunResult, std::sync::Arc<telemetry::MetricsRegistry>) {
        let rng = RngStream::root(11);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let wl = Workload::generate(
            WorkloadSpec::paper(200, 2, platform.reference_speed()),
            &rng.derive("w"),
        );
        let mut sched = Fcfs {
            pending: Vec::new(),
        };
        let reg = std::sync::Arc::new(telemetry::MetricsRegistry::new());
        let mon = crate::monitor::LiveMetrics::register(&reg, platform.num_sites());
        let engine = ExecEngine::new(ExecConfig::default())
            .with_monitor(mon)
            .with_sampler(crate::monitor::SamplerConfig {
                every: 20.0,
                capacity: 1024,
            })
            .with_profiler(std::sync::Arc::new(telemetry::PhaseProfiler::new()));
        (engine.run(platform, wl.tasks, &mut sched), reg)
    }

    #[test]
    fn monitoring_is_inert() {
        let plain = run_fcfs(200, true);
        let (monitored, _) = run_fcfs_monitored();
        assert_eq!(
            crate::oracle::replay_divergence(&plain, &monitored),
            None,
            "attaching monitor/sampler/profiler must not change the run"
        );
        assert!(plain.timeseries.is_none());
    }

    #[test]
    fn monitored_run_publishes_metrics_and_timeseries() {
        let (r, reg) = run_fcfs_monitored();
        let text = reg.render();
        assert!(
            text.contains(&format!("arls_tasks_completed_total {}", r.records.len())),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "arls_groups_completed_total {}",
                r.groups_completed
            )),
            "{text}"
        );
        assert!(text.contains("arls_site_power_watts{site=\"1\"}"), "{text}");
        // The driver times every policy's decisions, FCFS included.
        let decisions = text
            .lines()
            .find_map(|l| l.strip_prefix("arls_decision_latency_seconds_count "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("latency histogram rendered");
        assert!(decisions > 0, "{text}");
        let ts = r.timeseries.as_ref().expect("sampler attached");
        assert_eq!(ts.sample_every, 20.0);
        assert!(!ts.points.is_empty());
        // Monotone sample times; the final point carries the run's end
        // state, so its cumulative counters match the result.
        for w in ts.points.windows(2) {
            assert!(w[0].t < w[1].t, "sample times must be strictly increasing");
        }
        let last = ts.points.last().unwrap();
        assert_eq!(last.done as usize + last.failed as usize, r.num_tasks);
        assert!(last.energy_j > 0.0);
        assert_eq!(last.sites.len(), 2);
    }

    #[test]
    fn cycles_are_monotone() {
        let r = run_fcfs(120, true);
        assert_eq!(r.cycles.len() as u64, r.groups_completed);
        for w in r.cycles.windows(2) {
            assert!(w[1].cycle == w[0].cycle + 1);
            assert!(w[1].time >= w[0].time);
            assert!(w[1].work_mi >= w[0].work_mi);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_fcfs(100, true);
        let b = run_fcfs(100, true);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_energy, b.total_energy);
        assert_eq!(a.records.len(), b.records.len());
    }

    #[test]
    fn single_task_groups_make_split_irrelevant() {
        // With one task per group, the split path never triggers.
        let r = run_fcfs(100, true);
        assert_eq!(r.split_starts, 0);
    }

    /// Scheduler that merges all pending site tasks into one group of up to
    /// 4 to exercise batch starts and splits.
    struct Grouper {
        pending: Vec<Task>,
    }

    impl Scheduler for Grouper {
        fn name(&self) -> &str {
            "grouper-test"
        }
        fn on_arrivals(&mut self, _now: SimTime, _site: SiteId, tasks: Vec<Task>) {
            self.pending.extend(tasks);
        }
        fn dispatch(&mut self, _now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
            let mut cmds = Vec::new();
            let mut used_slots: Vec<(NodeAddr, usize)> = Vec::new();
            while !self.pending.is_empty() {
                let site = self.pending[0].site;
                let mut group = Vec::new();
                let mut rest = Vec::new();
                for t in self.pending.drain(..) {
                    if t.site == site && group.len() < 4 {
                        group.push(t);
                    } else {
                        rest.push(t);
                    }
                }
                self.pending = rest;
                let slots_used = |addr: NodeAddr, used: &[(NodeAddr, usize)]| {
                    used.iter()
                        .find(|(a, _)| *a == addr)
                        .map(|(_, c)| *c)
                        .unwrap_or(0)
                };
                let best = view
                    .site_nodes(site)
                    .filter(|n| {
                        n.queue_available() > slots_used(n.addr(), &used_slots)
                            && n.num_processors() >= group.len()
                    })
                    .max_by(|a, b| {
                        // total_cmp: a NaN capacity must not panic the
                        // selection mid-run.
                        a.processing_capacity().total_cmp(&b.processing_capacity())
                    });
                match best {
                    Some(n) => {
                        let addr = n.addr();
                        match used_slots.iter_mut().find(|(a, _)| *a == addr) {
                            Some((_, c)) => *c += 1,
                            None => used_slots.push((addr, 1)),
                        }
                        cmds.push(Command::Dispatch {
                            node: addr,
                            tasks: group,
                            policy: GroupPolicy::Mixed,
                        });
                    }
                    None => {
                        // No room anywhere: keep the tasks pending.
                        self.pending.extend(group);
                        break;
                    }
                }
            }
            cmds
        }
    }

    #[test]
    fn grouped_execution_completes_and_splits() {
        let rng = RngStream::root(21);
        let platform = Platform::generate(PlatformSpec::small(1, 2, 4), &rng.derive("p"));
        let mut spec = WorkloadSpec::paper(300, 1, platform.reference_speed());
        spec.mean_interarrival = 0.4; // oversubscribe to force queueing and grouping
        let wl = Workload::generate(spec, &rng.derive("w"));
        let mut sched = Grouper {
            pending: Vec::new(),
        };
        let engine = ExecEngine::new(ExecConfig::default());
        let r = engine.run(platform, wl.tasks, &mut sched);
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
        assert!(
            r.split_starts > 0,
            "heavy grouped load should trigger splits"
        );
        assert!(
            r.groups_dispatched < 300,
            "tasks should actually be grouped"
        );
    }

    #[test]
    fn split_disabled_never_splits() {
        let rng = RngStream::root(21);
        let platform = Platform::generate(PlatformSpec::small(1, 2, 4), &rng.derive("p"));
        let mut spec = WorkloadSpec::paper(300, 1, platform.reference_speed());
        spec.mean_interarrival = 1.0;
        let wl = Workload::generate(spec, &rng.derive("w"));
        let mut sched = Grouper {
            pending: Vec::new(),
        };
        let engine = ExecEngine::new(ExecConfig {
            split_enabled: false,
            ..ExecConfig::default()
        });
        let r = engine.run(platform, wl.tasks, &mut sched);
        assert_eq!(r.incomplete, 0);
        assert_eq!(r.split_starts, 0);
        for rec in &r.records {
            assert!(!rec.split);
        }
    }

    #[test]
    fn split_improves_throughput_under_load() {
        let mk = |split: bool| {
            let rng = RngStream::root(33);
            let platform = Platform::generate(PlatformSpec::small(1, 2, 5), &rng.derive("p"));
            let mut spec = WorkloadSpec::paper(400, 1, platform.reference_speed());
            spec.mean_interarrival = 0.8;
            let wl = Workload::generate(spec, &rng.derive("w"));
            let mut sched = Grouper {
                pending: Vec::new(),
            };
            ExecEngine::new(ExecConfig {
                split_enabled: split,
                ..ExecConfig::default()
            })
            .run(platform, wl.tasks, &mut sched)
        };
        let with = mk(true);
        let without = mk(false);
        assert!(
            with.avg_response_time() <= without.avg_response_time(),
            "split should not hurt response time: {} vs {}",
            with.avg_response_time(),
            without.avg_response_time()
        );
    }

    // ---- fault injection ----

    fn outcome_partition(r: &RunResult) {
        assert_eq!(
            r.records.len(),
            r.num_tasks,
            "every arrived task must end in exactly one record"
        );
        assert_eq!(r.incomplete, 0, "no task may be lost");
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
        assert_eq!(met + missed + failed, r.num_tasks);
        assert_eq!(failed, r.tasks_failed);
        for rec in &r.records {
            assert_eq!(rec.met, rec.outcome == TaskOutcome::Met);
        }
    }

    /// The oversubscribed one-site platform and workload of the fault
    /// tests.
    fn grouper_inputs() -> (Platform, Vec<Task>) {
        let rng = RngStream::root(21);
        let platform = Platform::generate(PlatformSpec::small(1, 2, 4), &rng.derive("p"));
        let mut spec = WorkloadSpec::paper(300, 1, platform.reference_speed());
        spec.mean_interarrival = 0.4; // oversubscribe to force queueing and splits
        let wl = Workload::generate(spec, &rng.derive("w"));
        (platform, wl.tasks)
    }

    /// A whole-node outage plus a single-processor outage that land while
    /// the Grouper workload is splitting groups.
    fn split_fault_plan() -> FaultPlan {
        FaultPlan::from_events(vec![
            PlannedFault {
                at: SimTime::new(30.0),
                target: FaultTarget::Node(NodeAddr::new(0, 0)),
                recover_at: Some(SimTime::new(60.0)),
            },
            PlannedFault {
                at: SimTime::new(45.0),
                target: FaultTarget::Proc(ProcAddr {
                    node: NodeAddr::new(0, 1),
                    proc: 0,
                }),
                recover_at: Some(SimTime::new(70.0)),
            },
        ])
    }

    fn grouper_run(faults: FaultSpec, plan: Option<FaultPlan>) -> RunResult {
        let (platform, tasks) = grouper_inputs();
        let mut sched = Grouper {
            pending: Vec::new(),
        };
        let mut engine = ExecEngine::new(ExecConfig {
            faults,
            ..ExecConfig::default()
        });
        if let Some(p) = plan {
            engine = engine.with_fault_plan(p);
        }
        engine.run(platform, tasks, &mut sched)
    }

    #[test]
    fn disabled_faults_are_bit_identical() {
        let base = grouper_run(FaultSpec::default(), None);
        // Knobs set but master switch off: provably zero impact.
        let knobs = grouper_run(
            FaultSpec {
                enabled: false,
                proc_mtbf: 10.0,
                node_mtbf: 20.0,
                ..FaultSpec::default()
            },
            None,
        );
        assert_eq!(base.makespan, knobs.makespan);
        assert_eq!(base.total_energy, knobs.total_energy);
        assert_eq!(base.records, knobs.records);
        assert_eq!(knobs.faults_injected, 0);
        assert_eq!(knobs.tasks_failed, 0);
        assert_eq!(knobs.preemptions, 0);
    }

    #[test]
    fn failure_during_split_conserves_tasks() {
        let r = grouper_run(
            FaultSpec {
                enabled: true,
                ..FaultSpec::default()
            },
            Some(split_fault_plan()),
        );
        assert_eq!(r.outcome, "Drained");
        outcome_partition(&r);
        assert_eq!(r.faults_injected, 2);
        assert!(r.preemptions > 0, "busy node outage must preempt something");
        assert!(r.retries > 0, "preempted tasks must be re-dispatched");
        assert!(r.split_starts > 0, "load should still trigger splits");
        assert!(
            r.records
                .iter()
                .any(|x| x.attempts > 0 && x.outcome != TaskOutcome::Failed),
            "some preempted task should still run to completion"
        );
    }

    #[test]
    fn permanent_loss_of_every_processor_fails_remaining_tasks() {
        // Both nodes of the only site die for good mid-run: every task not
        // yet finished must end as Failed, and the run must still drain.
        let rng = RngStream::root(7);
        let platform = Platform::generate(PlatformSpec::small(1, 2, 2), &rng.derive("p"));
        let wl = Workload::generate(
            WorkloadSpec::paper(100, 1, platform.reference_speed()),
            &rng.derive("w"),
        );
        let mut sched = Fcfs {
            pending: Vec::new(),
        };
        let plan = FaultPlan::from_events(vec![
            PlannedFault {
                at: SimTime::new(20.0),
                target: FaultTarget::Node(NodeAddr::new(0, 0)),
                recover_at: None,
            },
            PlannedFault {
                at: SimTime::new(25.0),
                target: FaultTarget::Node(NodeAddr::new(0, 1)),
                recover_at: None,
            },
        ]);
        let engine = ExecEngine::new(ExecConfig {
            faults: FaultSpec {
                enabled: true,
                ..FaultSpec::default()
            },
            ..ExecConfig::default()
        })
        .with_fault_plan(plan);
        let r = engine.run(platform, wl.tasks, &mut sched);
        assert_eq!(r.outcome, "Drained");
        outcome_partition(&r);
        assert!(r.tasks_failed > 0, "a dead site must strand tasks");
        assert!(r
            .records
            .iter()
            .all(|x| x.outcome != TaskOutcome::Failed || !x.met),);
        // Nothing finishes after the second (fatal) failure.
        for rec in &r.records {
            if rec.outcome != TaskOutcome::Failed {
                assert!(rec.finished.as_f64() <= 25.0 + 1e-9);
            }
        }
    }

    #[test]
    fn stochastic_fault_runs_are_deterministic() {
        let spec = FaultSpec {
            enabled: true,
            proc_mtbf: 150.0,
            proc_mttr: 20.0,
            node_mtbf: 500.0,
            node_mttr: 40.0,
            permanent_fraction: 0.05,
            horizon: 400.0,
            ..FaultSpec::default()
        };
        let a = grouper_run(spec, None);
        let b = grouper_run(spec, None);
        assert!(a.faults_injected > 0, "active spec must inject something");
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_energy, b.total_energy);
        assert_eq!(a.records, b.records);
        outcome_partition(&a);
        assert_eq!(a.outcome, "Drained");
    }

    #[test]
    fn retry_budget_bounds_attempts() {
        let spec = FaultSpec {
            enabled: true,
            proc_mtbf: 40.0, // very hostile
            proc_mttr: 10.0,
            max_retries: 2,
            horizon: 600.0,
            ..FaultSpec::default()
        };
        let r = grouper_run(spec, None);
        outcome_partition(&r);
        for rec in &r.records {
            assert!(
                rec.attempts <= spec.max_retries + 1,
                "attempts {} exceed budget",
                rec.attempts
            );
        }
    }

    // ---- probes ----

    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Counts the hooks the driver fires. Probes are owned by the driver,
    /// so the tallies are shared back through an `Rc`.
    #[derive(Default)]
    struct Tally {
        events: u64,
        event_ends: u64,
        decisions: u64,
        dispatched: u64,
        finished: u64,
        groups_completed: u64,
        faults: u64,
        recovered: u64,
        preempted: u64,
        retried: u64,
        ticks: u64,
        closed: bool,
    }

    struct TallyProbe(std::rc::Rc<std::cell::RefCell<Tally>>);

    impl Probe for TallyProbe {
        fn on(&mut self, platform: &Platform, _now: SimTime, hook: Hook<'_>) {
            let mut t = self.0.borrow_mut();
            match hook {
                Hook::Event(_, seq) => {
                    t.events += 1;
                    assert_eq!(seq, t.events, "seq counts the run's events");
                }
                Hook::EventEnd => t.event_ends += 1,
                Hook::Decision(secs) => {
                    assert!(secs >= 0.0);
                    t.decisions += 1;
                }
                Hook::Dispatch(fb, tasks) => {
                    assert_eq!(tasks.len(), fb.size);
                    let queue = &platform.node(fb.node).queue;
                    assert!(queue.iter().any(|g| g.group.id == fb.group));
                    t.dispatched += 1;
                }
                Hook::Finish(..) => t.finished += 1,
                Hook::GroupComplete(_, cycle) => {
                    t.groups_completed += 1;
                    assert_eq!(cycle, t.groups_completed);
                }
                Hook::Fault(..) => t.faults += 1,
                Hook::Recover(_) => t.recovered += 1,
                Hook::Preempt(_) => t.preempted += 1,
                Hook::Retried => t.retried += 1,
                _ => {}
            }
        }
        fn times_decisions(&self) -> bool {
            true
        }
        fn tick(&mut self, _run: &RunView<'_>) {
            self.0.borrow_mut().ticks += 1;
        }
        fn finish(self: Box<Self>, run: &RunView<'_>, _: &RunTotals, _: &mut RunResult) {
            let mut t = self.0.borrow_mut();
            assert_eq!(run.events, t.events);
            t.closed = true;
        }
    }

    #[test]
    fn observed_run_matches_plain_run_and_sees_every_transition() {
        let exec = ExecEngine::new(ExecConfig {
            faults: FaultSpec {
                enabled: true,
                ..FaultSpec::default()
            },
            ..ExecConfig::default()
        })
        .with_fault_plan(split_fault_plan());
        let (platform, tasks) = grouper_inputs();
        let mut sched = Grouper {
            pending: Vec::new(),
        };
        let plain = exec.run(platform.clone(), tasks.clone(), &mut sched);

        let tally = std::rc::Rc::new(std::cell::RefCell::new(Tally::default()));
        let mut sched = Grouper {
            pending: Vec::new(),
        };
        let (mut driver, mut engine) = exec.prepare(platform, tasks, &mut sched);
        driver.probes.push(Box::new(TallyProbe(tally.clone())));
        let outcome = engine.run(&mut driver);
        let observed = assemble_result(driver, &engine, outcome, None);
        assert_eq!(
            crate::oracle::replay_divergence(&plain, &observed),
            None,
            "a probe must not change the run"
        );

        let t = tally.borrow();
        assert!(t.closed, "finish reached the probe");
        assert_eq!(t.events, observed.events_processed);
        assert_eq!(t.event_ends, observed.events_processed);
        assert!(t.decisions > 0 && t.decisions <= t.events);
        assert_eq!(t.dispatched, observed.groups_dispatched);
        assert_eq!(
            t.finished as usize,
            observed.num_tasks - observed.tasks_failed
        );
        assert_eq!(t.groups_completed, observed.groups_completed);
        assert_eq!(t.faults, observed.faults_injected);
        assert_eq!(t.recovered, observed.faults_recovered);
        assert_eq!(t.preempted, observed.preemptions);
        assert_eq!(t.retried, observed.retries);
        assert!(t.ticks > 0);
        assert!(observed.faults_injected > 0 && observed.preemptions > 0);
    }

    /// Counts the per-event firehose records it receives.
    #[derive(Default)]
    struct FirehoseCounter(AtomicU64);

    impl Recorder for FirehoseCounter {
        fn wants(&self, _level: telemetry::TraceLevel) -> bool {
            true
        }
        fn event(&self, name: &str, _t: f64, _k: u32, _f: telemetry::Fields<'_>) {
            if name == "engine.event" {
                self.0.fetch_add(1, Relaxed);
            }
        }
        fn span_begin(&self, _n: &str, _i: u64, _t: f64, _k: u32, _f: telemetry::Fields<'_>) {}
        fn span_end(&self, _n: &str, _i: u64, _t: f64, _k: u32) {}
        fn gauge(&self, _n: &str, _t: f64, _v: f64) {}
    }

    fn fcfs_with(engine: ExecEngine) -> RunResult {
        let rng = RngStream::root(11);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let wl = Workload::generate(
            WorkloadSpec::paper(150, 2, platform.reference_speed()),
            &rng.derive("w"),
        );
        let mut sched = Fcfs {
            pending: Vec::new(),
        };
        engine.run(platform, wl.tasks, &mut sched)
    }

    #[test]
    fn full_trace_has_one_engine_record_per_processed_event() {
        // A drained run, and one the `max_time` wall stops mid-stream:
        // the stopping event is processed, so it is traced too.
        for (max_time, outcome) in [
            (ExecConfig::default().max_time, "Drained"),
            (60.0, "Stopped"),
        ] {
            let cfg = ExecConfig {
                max_time,
                ..ExecConfig::default()
            };
            let rec = Arc::new(FirehoseCounter::default());
            let r = fcfs_with(ExecEngine::new(cfg).with_recorder(rec.clone()));
            assert_eq!(r.outcome, outcome);
            assert_eq!(rec.0.load(Relaxed), r.events_processed);
            let plain = fcfs_with(ExecEngine::new(cfg));
            assert_eq!(crate::oracle::replay_divergence(&plain, &r), None);
        }
    }

    #[test]
    fn profiler_times_every_event_alongside_a_full_trace() {
        for traced in [false, true] {
            let prof = Arc::new(PhaseProfiler::new());
            let mut engine = ExecEngine::new(ExecConfig::default()).with_profiler(prof.clone());
            if traced {
                engine = engine.with_recorder(Arc::new(FirehoseCounter::default()));
            }
            let r = fcfs_with(engine);
            let report = prof.report();
            let calls = |name: &str| {
                report
                    .phases
                    .iter()
                    .find(|p| p.phase == name)
                    .map(|p| p.calls)
                    .unwrap_or(0)
            };
            assert_eq!(calls("event_handle"), r.events_processed, "traced={traced}");
            assert_eq!(calls("event_pop"), r.events_processed, "traced={traced}");
        }
    }
}
