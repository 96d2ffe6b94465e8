//! Deterministic checkpoint/restore of a running simulation.
//!
//! A checkpoint captures the *complete* state of an in-flight run at a
//! quiescent event boundary — engine clock, pending event list and sequence
//! counter, every processor's power/sleep/fault phase and accounting, node
//! queues with partially executed groups, the driver's fault timeline and
//! counters, and the scheduler's learning state (via
//! [`Scheduler::save_state`]) — such that a run restored from the snapshot
//! and driven to completion is **bit-identical** to one that never stopped
//! ([`crate::oracle::replay_divergence`] reports `None`).
//!
//! Snapshots use the [`snapshot`] container (versioned, CRC-checked,
//! torn-write-safe via temp-file + fsync + atomic rename). The payload
//! opens with an opaque caller `meta` blob (the experiments layer stores
//! the scheduler kind and seeded configuration there so `arls resume` can
//! reconstruct the right policy object), followed by the engine state.
//! Every decode path is bounds- and invariant-checked and returns a typed
//! [`SnapshotError`]; corrupt input must never panic.
//!
//! Cached aggregates (node power sums, site stats, queue loads, the flat
//! processor layout) are deliberately **not** serialized: the decoder
//! rebuilds them from restored ground truth via [`ComputeNode::new`],
//! `Platform::from_parts` and `proc_layout`, so a snapshot cannot smuggle
//! in an inconsistent cache.

use crate::engine::{
    assemble_result, proc_layout, CycleSample, Driver, Ev, ExecConfig, ExecEngine, Partial,
    RunResult,
};
use crate::fault::{FaultSpec, FaultTarget, PlannedFault};
use crate::group::{GroupId, GroupPolicy, TaskGroup};
use crate::ids::{NodeAddr, ProcAddr};
use crate::node::ComputeNode;
use crate::power::PowerParams;
use crate::processor::{ProcState, Processor};
use crate::queue::QueuedGroup;
use crate::scheduler::Scheduler;
use crate::topology::{Platform, PlatformSpec, Site};
use simcore::engine::{Engine, EngineHandle, Simulation};
use simcore::event::{EventQueue, ScheduledEvent};
use simcore::time::SimTime;
use snapshot::{corrupt, SnapReader, SnapWriter, SnapshotError};
use std::path::PathBuf;
use telemetry::{Phase, PhaseProfiler};
use workload::{Priority, SiteId, Task, TaskId};

/// Periodic-checkpoint configuration for
/// [`ExecEngine::run_with_checkpoints`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Write a snapshot every `every` processed events (values below 1 are
    /// treated as 1).
    pub every: u64,
    /// Directory snapshots land in (created if missing); snapshots are
    /// named `ckpt-{processed:012}.snap`.
    pub dir: PathBuf,
    /// Opaque caller blob stored at the head of every snapshot payload.
    /// The engine never interprets it; the experiments layer uses it to
    /// record which scheduler (and configuration) the run was using so a
    /// later `resume` can rebuild the same policy object.
    pub meta: Vec<u8>,
    /// Crash injection for the recovery harness: `Some(n)` calls
    /// [`std::process::abort`] immediately after the `n`-th successful
    /// checkpoint write (1-based), simulating a hard kill at an arbitrary
    /// point of the run. `None` (the default) never crashes.
    pub crash_after: Option<u64>,
}

impl CheckpointConfig {
    /// Creates a config with empty meta.
    pub fn new(every: u64, dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            every,
            dir: dir.into(),
            meta: Vec::new(),
            crash_after: None,
        }
    }

    /// Attaches the opaque caller meta blob.
    pub fn with_meta(mut self, meta: Vec<u8>) -> Self {
        self.meta = meta;
        self
    }

    /// Arms crash injection after the `n`-th checkpoint write (1-based).
    pub fn with_crash_after(mut self, n: u64) -> Self {
        self.crash_after = Some(n);
        self
    }
}

/// Outcome of a checkpointed run.
///
/// A failing checkpoint write (disk full, permissions, …) never aborts the
/// simulation: the error is recorded here, further checkpoint writes are
/// skipped, and the run finishes normally with its in-memory result intact.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// The run's result — bit-identical to an uncheckpointed run.
    pub result: RunResult,
    /// Snapshots successfully written.
    pub checkpoints_written: u64,
    /// The first checkpoint-write failure, if any occurred.
    pub write_error: Option<SnapshotError>,
}

/// The batch checkpoint writer: the driver with a snapshot written from
/// the engine's after-event hook every `ck.every` processed events.
struct Checkpointing<'d, 's> {
    driver: Driver<'s>,
    ck: &'d CheckpointConfig,
    fuse: u64,
    prof: Option<&'d PhaseProfiler>,
    written: u64,
    write_error: Option<SnapshotError>,
}

impl Simulation for Checkpointing<'_, '_> {
    type Event = Ev;

    fn on_event(&mut self, now: SimTime, event: Ev, handle: &mut EngineHandle<'_, Ev>) -> bool {
        self.driver.on_event(now, event, handle)
    }

    fn after_event(&mut self, now: SimTime, processed: u64, pending: &EventQueue<Ev>) {
        if self.write_error.is_some() || processed % self.ck.every.max(1) != 0 {
            return;
        }
        // Profile serialize + atomic write as one checkpoint sample; the
        // clock is only read when a profiler is attached.
        let start = self.prof.map(|_| std::time::Instant::now());
        let ck = self.ck;
        let payload = encode_checkpoint(
            &mut self.driver,
            now,
            processed,
            self.fuse,
            pending,
            &ck.meta,
        );
        let path = ck.dir.join(format!("ckpt-{processed:012}.snap"));
        let wrote = snapshot::write_atomic(&path, &payload);
        if let (Some(p), Some(start)) = (self.prof, start) {
            p.record_duration(Phase::CheckpointWrite, start.elapsed());
        }
        match wrote {
            Ok(()) => {
                self.written += 1;
                if ck.crash_after == Some(self.written) {
                    // Crash-recovery harness: die hard, mid-run, with no
                    // unwinding — exactly like a kill -9.
                    std::process::abort();
                }
            }
            Err(e) => self.write_error = Some(e),
        }
    }
}

impl ExecEngine {
    /// [`ExecEngine::run`] with periodic checkpointing.
    ///
    /// After every `ck.every`-th processed event the full simulation state
    /// is serialized and written atomically to
    /// `{ck.dir}/ckpt-{processed:012}.snap`. Checkpointing is
    /// strictly observing: the run's event sequence and result are
    /// bit-identical to [`ExecEngine::run`] on the same inputs.
    pub fn run_with_checkpoints(
        &self,
        platform: Platform,
        tasks: Vec<Task>,
        sched: &mut dyn Scheduler,
        ck: &CheckpointConfig,
    ) -> CheckpointedRun {
        let (driver, mut engine) = self.prepare(platform, tasks, sched);
        let mut sim = Checkpointing {
            driver,
            ck,
            fuse: engine.fuse(),
            prof: self.profiler(),
            written: 0,
            write_error: std::fs::create_dir_all(&ck.dir)
                .err()
                .map(SnapshotError::Io),
        };
        let outcome = engine.run(&mut sim);
        CheckpointedRun {
            result: assemble_result(sim.driver, &engine, outcome, None),
            checkpoints_written: sim.written,
            write_error: sim.write_error,
        }
    }
}

/// Extracts the opaque caller meta blob from a snapshot payload (as
/// returned by [`snapshot::read_file`]).
pub fn snapshot_meta(payload: &[u8]) -> Result<Vec<u8>, SnapshotError> {
    let mut r = SnapReader::new(payload);
    Ok(r.bytes()?.to_vec())
}

/// Resumes a run from a snapshot payload, driving it to completion.
///
/// `sched` must be a freshly-constructed scheduler of the same kind and
/// configuration the snapshot was taken with (its name is checked); its
/// learning state is restored via [`Scheduler::load_state`]. The returned
/// [`RunResult`] is bit-identical — under
/// [`crate::oracle::replay_divergence`] — to the uninterrupted run.
///
/// # Errors
/// Any structural problem in the payload (truncation, invalid values,
/// out-of-range indices, scheduler mismatch) yields a typed
/// [`SnapshotError`]; this function never panics on corrupt input.
pub fn resume_from_payload(
    payload: &[u8],
    sched: &mut dyn Scheduler,
) -> Result<RunResult, SnapshotError> {
    let (mut driver, mut engine) = restore(payload, sched)?;
    let outcome = engine.run(&mut driver);
    Ok(assemble_result(driver, &engine, outcome, None))
}

/// Decodes a snapshot payload (meta blob first, then the engine state)
/// into a paused `(Driver, Engine)` pair without running it — the shared
/// restore path behind [`resume_from_payload`] (which drives it to
/// completion) and [`crate::ScheduleSession::resume`] (which resumes it
/// in paced [`Engine::run_until`] slices).
pub(crate) fn restore<'s>(
    payload: &[u8],
    sched: &'s mut dyn Scheduler,
) -> Result<(Driver<'s>, Engine<Ev>), SnapshotError> {
    let mut reader = SnapReader::new(payload);
    let r = &mut reader;
    let _meta = r.bytes()?;
    let name = r.str()?;
    if name != sched.name() {
        return Err(corrupt(format!(
            "snapshot was taken with scheduler '{name}', resume requested with '{}'",
            sched.name()
        )));
    }
    let cfg = read_cfg(r)?;
    let platform = read_platform(r)?;

    let num_tasks = r.len_hint()?;
    let mut tasks = Vec::with_capacity(num_tasks);
    for i in 0..num_tasks {
        let t = read_task(r)?;
        if t.id.0 != i as u64 {
            return Err(corrupt(format!(
                "task ids not dense from 0: slot {i} holds id {}",
                t.id.0
            )));
        }
        if (t.site.0 as usize) >= platform.sites.len() {
            return Err(corrupt(format!(
                "task {} site {} out of range",
                t.id.0, t.site.0
            )));
        }
        tasks.push(t);
    }

    let n_partials = r.len_hint()?;
    if n_partials != num_tasks {
        return Err(corrupt(format!(
            "{n_partials} partials for {num_tasks} tasks"
        )));
    }
    let mut partials = Vec::with_capacity(n_partials);
    for _ in 0..n_partials {
        partials.push(read_partial(r, &platform)?);
    }

    let completed = r.usize()?;
    let finished_work = r.f64_time()?;
    let n_cycles = r.len_hint()?;
    let mut cycles = Vec::with_capacity(n_cycles);
    for _ in 0..n_cycles {
        cycles.push(CycleSample {
            cycle: r.u64()?,
            time: r.f64_time()?,
            work_mi: r.f64_time()?,
        });
    }
    let cycle = r.u64()?;
    let next_group = r.u64()?;
    let groups_dispatched = r.u64()?;
    let groups_completed = r.u64()?;
    let split_starts = r.u64()?;
    let rejections = r.u64()?;
    let last_completion = read_time(r)?;

    let n_plan = r.len_hint()?;
    let mut plan = Vec::with_capacity(n_plan);
    for _ in 0..n_plan {
        plan.push(read_planned_fault(r, &platform)?);
    }

    let (proc_base, flat) = proc_layout(&platform);
    let n_epochs = r.len_hint()?;
    if n_epochs != flat {
        return Err(corrupt(format!(
            "{n_epochs} fault epochs for {flat} processors"
        )));
    }
    let mut epochs = Vec::with_capacity(n_epochs);
    for _ in 0..n_epochs {
        epochs.push(r.u32()?);
    }
    let n_offline = r.len_hint()?;
    if n_offline != flat {
        return Err(corrupt(format!(
            "{n_offline} offline-until entries for {flat} processors"
        )));
    }
    let mut offline_until = Vec::with_capacity(n_offline);
    for _ in 0..n_offline {
        // May legitimately be +INFINITY (permanently dead processor), so
        // only NaN and negatives are rejected.
        let v = r.f64()?;
        if v.is_nan() || v < 0.0 {
            return Err(corrupt(format!("invalid offline-until value {v}")));
        }
        offline_until.push(v);
    }
    let n_perm = r.len_hint()?;
    if n_perm != platform.num_sites() {
        return Err(corrupt(format!(
            "{n_perm} per-site processor counts for {} sites",
            platform.num_sites()
        )));
    }
    let mut site_perm_procs = Vec::with_capacity(n_perm);
    for s in 0..n_perm {
        let v = r.usize()?;
        let site_procs: usize = platform.sites[s]
            .nodes
            .iter()
            .map(|n| n.num_processors())
            .sum();
        if v > site_procs {
            return Err(corrupt(format!(
                "site {s} claims {v} live processors of {site_procs}"
            )));
        }
        site_perm_procs.push(v);
    }
    let failed_tasks = r.usize()?;
    let faults_injected = r.u64()?;
    let faults_recovered = r.u64()?;
    let preemptions = r.u64()?;
    let retries = r.u64()?;
    let groups_aborted = r.u64()?;
    let events_seen = r.u64()?;
    let met_count = r.usize()?;
    let settled_at = read_time(r)?;
    if completed > num_tasks || failed_tasks > num_tasks || met_count > num_tasks {
        return Err(corrupt("task counters exceed the task population"));
    }

    let blob = r.bytes()?;
    {
        let mut sr = SnapReader::new(blob);
        sched.load_state(&mut sr)?;
        if !sr.is_exhausted() {
            return Err(corrupt(format!(
                "scheduler state has {} unconsumed bytes",
                sr.remaining()
            )));
        }
    }

    let now = read_time(r)?;
    let processed = r.u64()?;
    let fuse = r.u64()?;
    let next_seq = r.u64()?;
    let n_entries = r.len_hint()?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let time = read_time(r)?;
        if time < now {
            return Err(corrupt(format!(
                "pending event at t={} predates the restored clock t={}",
                time.as_f64(),
                now.as_f64()
            )));
        }
        let seq = r.u64()?;
        if seq >= next_seq {
            return Err(corrupt(format!(
                "event sequence {seq} not below the counter {next_seq}"
            )));
        }
        let event = read_ev(r, &platform, num_tasks, plan.len())?;
        entries.push(ScheduledEvent { time, seq, event });
    }
    if !r.is_exhausted() {
        return Err(corrupt(format!(
            "{} trailing bytes after engine state",
            r.remaining()
        )));
    }

    let driver = Driver {
        platform,
        tasks,
        sched,
        cfg,
        partials,
        completed,
        finished_work,
        cycles,
        cycle,
        next_group,
        groups_dispatched,
        groups_completed,
        split_starts,
        rejections,
        last_completion,
        plan,
        proc_base,
        epochs,
        offline_until,
        site_perm_procs,
        failed_tasks,
        faults_injected,
        faults_recovered,
        preemptions,
        retries,
        groups_aborted,
        touched_scratch: Vec::new(),
        ev_scratch: Vec::new(),
        events_seen,
        met_count,
        // Resumed runs start unobserved: no probe state is part of the
        // replay-divergence contract, and none of it is checkpointable.
        probes: Vec::new(),
        settled_at,
    };
    let queue = EventQueue::from_entries(entries, next_seq);
    let engine = Engine::from_parts(queue, now, processed, fuse);
    Ok((driver, engine))
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Serializes the full mid-run state into a snapshot payload. The engine
/// arguments come from the checkpoint hook (the driver cannot see the
/// engine it runs inside).
pub(crate) fn encode_checkpoint(
    driver: &mut Driver<'_>,
    now: SimTime,
    processed: u64,
    fuse: u64,
    queue: &EventQueue<Ev>,
    meta: &[u8],
) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.bytes(meta);
    w.str(driver.sched.name());
    write_cfg(&mut w, &driver.cfg);
    write_platform(&mut w, &driver.platform);

    w.usize(driver.tasks.len());
    for t in &driver.tasks {
        write_task(&mut w, t);
    }

    w.usize(driver.partials.len());
    for p in &driver.partials {
        write_partial(&mut w, p);
    }
    w.usize(driver.completed);
    w.f64(driver.finished_work);
    w.usize(driver.cycles.len());
    for c in &driver.cycles {
        w.u64(c.cycle);
        w.f64(c.time);
        w.f64(c.work_mi);
    }
    w.u64(driver.cycle);
    w.u64(driver.next_group);
    w.u64(driver.groups_dispatched);
    w.u64(driver.groups_completed);
    w.u64(driver.split_starts);
    w.u64(driver.rejections);
    w.f64(driver.last_completion.as_f64());
    w.usize(driver.plan.len());
    for f in &driver.plan {
        write_planned_fault(&mut w, f);
    }
    w.usize(driver.epochs.len());
    for &e in &driver.epochs {
        w.u32(e);
    }
    w.usize(driver.offline_until.len());
    for &v in &driver.offline_until {
        w.f64(v);
    }
    w.usize(driver.site_perm_procs.len());
    for &v in &driver.site_perm_procs {
        w.usize(v);
    }
    w.usize(driver.failed_tasks);
    w.u64(driver.faults_injected);
    w.u64(driver.faults_recovered);
    w.u64(driver.preemptions);
    w.u64(driver.retries);
    w.u64(driver.groups_aborted);
    w.u64(driver.events_seen);
    w.usize(driver.met_count);
    w.f64(driver.settled_at.as_f64());

    let mut sw = SnapWriter::new();
    driver.sched.save_state(&mut sw);
    w.bytes(&sw.into_bytes());

    w.f64(now.as_f64());
    w.u64(processed);
    w.u64(fuse);
    w.u64(queue.pushed());
    // Heap iteration order is unspecified; sort by the unique sequence
    // number so identical states produce identical bytes.
    let mut entries: Vec<&ScheduledEvent<Ev>> = queue.entries().collect();
    entries.sort_by_key(|e| e.seq);
    w.usize(entries.len());
    for e in entries {
        w.f64(e.time.as_f64());
        w.u64(e.seq);
        write_ev(&mut w, e.event);
    }
    w.into_bytes()
}

fn write_cfg(w: &mut SnapWriter, cfg: &ExecConfig) {
    w.bool(cfg.split_enabled);
    w.f64(cfg.tick_interval);
    w.u64(cfg.fuse);
    w.f64(cfg.max_time);
    // A resumed run never carries the oracle (its mid-run state is not
    // checkpointable), so the audit flag is pinned off in the snapshot.
    w.bool(false);
    let f = &cfg.faults;
    w.bool(f.enabled);
    w.f64(f.proc_mtbf);
    w.f64(f.proc_mttr);
    w.f64(f.node_mtbf);
    w.f64(f.node_mttr);
    w.f64(f.permanent_fraction);
    w.u32(f.max_retries);
    w.f64(f.horizon);
    w.u64(f.seed);
}

fn write_platform(w: &mut SnapWriter, p: &Platform) {
    let spec = &p.spec;
    w.u32(spec.num_sites);
    w.u32(spec.nodes_per_site.0);
    w.u32(spec.nodes_per_site.1);
    w.u32(spec.procs_per_node.0);
    w.u32(spec.procs_per_node.1);
    w.f64(spec.speed_range.0);
    w.f64(spec.speed_range.1);
    w.opt_f64(spec.heterogeneity_cv);
    w.usize(spec.queue_capacity);
    let pw = &spec.power;
    w.f64(pw.p_idle);
    w.f64(pw.p_peak_min);
    w.f64(pw.p_peak_max);
    w.f64(pw.p_sleep);
    w.f64(pw.wake_latency);
    w.f64(pw.speed_floor);
    w.f64(pw.speed_ceil);

    w.usize(p.sites.len());
    for site in &p.sites {
        w.u32(site.id.0);
        w.usize(site.nodes.len());
        for node in &site.nodes {
            w.u32(node.addr.site.0);
            w.u32(node.addr.node);
            w.f64(node.throttle);
            w.usize(node.processors.len());
            for proc in &node.processors {
                write_processor(w, proc);
            }
            w.usize(node.queue.len());
            for qg in node.queue.iter() {
                write_queued_group(w, qg);
            }
        }
    }
}

fn write_processor(w: &mut SnapWriter, p: &Processor) {
    w.f64(p.speed_mips);
    w.f64(p.p_peak);
    write_proc_state(w, &p.state());
    w.f64(p.last_transition().as_f64());
    w.f64(p.busy_time_raw());
    w.f64(p.idle_time());
    w.f64(p.sleep_time());
    w.f64(p.failed_time());
    w.f64(p.energy_raw());
    w.u64(p.tasks_executed());
    w.f64(p.p_idle());
    w.f64(p.p_sleep());
}

fn write_proc_state(w: &mut SnapWriter, s: &ProcState) {
    match *s {
        ProcState::Idle => w.u8(0),
        ProcState::Busy {
            task,
            group,
            finish,
            power,
        } => {
            w.u8(1);
            w.u64(task.0);
            w.u64(group.0);
            w.f64(finish.as_f64());
            w.f64(power);
        }
        ProcState::Asleep => w.u8(2),
        ProcState::Waking { until } => {
            w.u8(3);
            w.f64(until.as_f64());
        }
        ProcState::Failed => w.u8(4),
    }
}

fn write_queued_group(w: &mut SnapWriter, qg: &QueuedGroup) {
    w.u64(qg.group.id.0);
    write_policy(w, qg.group.policy);
    w.usize(qg.group.tasks.len());
    for t in &qg.group.tasks {
        write_task(w, t);
    }
    w.f64(qg.enqueued_at.as_f64());
    w.f64(qg.pw);
    w.usize(qg.next_start);
    w.u32(qg.running);
    w.u32(qg.done);
    w.u32(qg.lost);
    w.u32(qg.met);
    w.opt_f64(qg.first_start.map(|t| t.as_f64()));
    w.bool(qg.split_mode);
    w.f64(qg.assign_error);
}

fn write_policy(w: &mut SnapWriter, p: GroupPolicy) {
    match p {
        GroupPolicy::Mixed => w.u8(0),
        GroupPolicy::Identical(prio) => {
            w.u8(1);
            w.u8(prio.index() as u8);
        }
    }
}

fn write_task(w: &mut SnapWriter, t: &Task) {
    t.snap_write(w);
}

fn write_partial(w: &mut SnapWriter, p: &Partial) {
    match p.node {
        Some(n) => {
            w.u8(1);
            w.u32(n.site.0);
            w.u32(n.node);
        }
        None => w.u8(0),
    }
    w.opt_u64(p.group.map(|g| g.0));
    w.opt_f64(p.dispatched.map(|t| t.as_f64()));
    w.opt_f64(p.started.map(|t| t.as_f64()));
    w.opt_f64(p.finished.map(|t| t.as_f64()));
    w.opt_f64(p.failed_at.map(|t| t.as_f64()));
    w.bool(p.met);
    w.bool(p.split);
    w.u32(p.attempts);
}

fn write_planned_fault(w: &mut SnapWriter, f: &PlannedFault) {
    w.f64(f.at.as_f64());
    match f.target {
        FaultTarget::Proc(p) => {
            w.u8(0);
            w.u32(p.node.site.0);
            w.u32(p.node.node);
            w.u32(p.proc);
        }
        FaultTarget::Node(n) => {
            w.u8(1);
            w.u32(n.site.0);
            w.u32(n.node);
        }
    }
    w.opt_f64(f.recover_at.map(|t| t.as_f64()));
}

fn write_ev(w: &mut SnapWriter, ev: Ev) {
    match ev {
        Ev::Arrival(i) => {
            w.u8(0);
            w.u32(i);
        }
        Ev::TaskDone(p, epoch) => {
            w.u8(1);
            w.u32(p.node.site.0);
            w.u32(p.node.node);
            w.u32(p.proc);
            w.u32(epoch);
        }
        Ev::WakeDone(p, epoch) => {
            w.u8(2);
            w.u32(p.node.site.0);
            w.u32(p.node.node);
            w.u32(p.proc);
            w.u32(epoch);
        }
        Ev::Tick => w.u8(3),
        Ev::Fault(i) => {
            w.u8(4);
            w.u32(i);
        }
        Ev::Recover(i) => {
            w.u8(5);
            w.u32(i);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

fn read_time(r: &mut SnapReader<'_>) -> Result<SimTime, SnapshotError> {
    Ok(SimTime::new(r.f64_time()?))
}

fn read_opt_time(r: &mut SnapReader<'_>) -> Result<Option<SimTime>, SnapshotError> {
    match r.opt_f64()? {
        None => Ok(None),
        Some(v) => {
            if !v.is_finite() || v < 0.0 {
                return Err(corrupt(format!("invalid optional time {v}")));
            }
            Ok(Some(SimTime::new(v)))
        }
    }
}

fn read_cfg(r: &mut SnapReader<'_>) -> Result<ExecConfig, SnapshotError> {
    let split_enabled = r.bool()?;
    let tick_interval = r.f64_time()?;
    if tick_interval <= 0.0 {
        return Err(corrupt("tick interval must be positive"));
    }
    let fuse = r.u64()?;
    let max_time = r.f64()?;
    if max_time.is_nan() {
        return Err(corrupt("max_time is NaN"));
    }
    let audit = r.bool()?;
    let faults = FaultSpec {
        enabled: r.bool()?,
        proc_mtbf: r.f64_time()?,
        proc_mttr: r.f64_time()?,
        node_mtbf: r.f64_time()?,
        node_mttr: r.f64_time()?,
        permanent_fraction: {
            let v = r.f64_finite()?;
            if !(0.0..=1.0).contains(&v) {
                return Err(corrupt(format!("permanent fraction {v} outside [0, 1]")));
            }
            v
        },
        max_retries: r.u32()?,
        horizon: r.f64_time()?,
        seed: r.u64()?,
    };
    Ok(ExecConfig {
        split_enabled,
        tick_interval,
        fuse,
        max_time,
        faults,
        audit,
    })
}

fn read_platform(r: &mut SnapReader<'_>) -> Result<Platform, SnapshotError> {
    let num_sites = r.u32()?;
    let nodes_per_site = (r.u32()?, r.u32()?);
    let procs_per_node = (r.u32()?, r.u32()?);
    let speed_range = (r.f64_finite()?, r.f64_finite()?);
    let heterogeneity_cv = match r.opt_f64()? {
        None => None,
        Some(v) => {
            if !v.is_finite() || v < 0.0 {
                return Err(corrupt(format!("invalid heterogeneity CV {v}")));
            }
            Some(v)
        }
    };
    let queue_capacity = r.usize()?;
    if queue_capacity == 0 {
        return Err(corrupt("queue capacity must be positive"));
    }
    let power = PowerParams {
        p_idle: r.f64_finite()?,
        p_peak_min: r.f64_finite()?,
        p_peak_max: r.f64_finite()?,
        p_sleep: r.f64_finite()?,
        wake_latency: r.f64_time()?,
        speed_floor: r.f64_finite()?,
        speed_ceil: r.f64_finite()?,
    };
    let spec = PlatformSpec {
        num_sites,
        nodes_per_site,
        procs_per_node,
        speed_range,
        heterogeneity_cv,
        queue_capacity,
        power,
    };

    let n_sites = r.len_hint()?;
    if n_sites == 0 || n_sites != num_sites as usize {
        return Err(corrupt(format!(
            "{n_sites} serialized sites for a spec of {num_sites}"
        )));
    }
    let mut sites = Vec::with_capacity(n_sites);
    for s in 0..n_sites {
        let id = r.u32()?;
        if id as usize != s {
            return Err(corrupt(format!("site {s} carries id {id}")));
        }
        let n_nodes = r.len_hint()?;
        if n_nodes == 0 {
            return Err(corrupt(format!("site {s} has no nodes")));
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for n in 0..n_nodes {
            nodes.push(read_node(r, s as u32, n as u32, queue_capacity)?);
        }
        sites.push(Site {
            id: SiteId(s as u32),
            nodes,
        });
    }
    Ok(Platform::from_parts(spec, sites))
}

fn read_node(
    r: &mut SnapReader<'_>,
    site: u32,
    node_idx: u32,
    queue_capacity: usize,
) -> Result<ComputeNode, SnapshotError> {
    let a_site = r.u32()?;
    let a_node = r.u32()?;
    if a_site != site || a_node != node_idx {
        return Err(corrupt(format!(
            "node S{site}/n{node_idx} carries address S{a_site}/n{a_node}"
        )));
    }
    let throttle = r.f64_finite()?;
    if !(0.1..=1.0).contains(&throttle) {
        return Err(corrupt(format!("throttle {throttle} outside [0.1, 1.0]")));
    }
    let n_procs = r.len_hint()?;
    if n_procs == 0 {
        return Err(corrupt(format!(
            "node S{site}/n{node_idx} has no processors"
        )));
    }
    let mut procs = Vec::with_capacity(n_procs);
    for _ in 0..n_procs {
        procs.push(read_processor(r)?);
    }
    // `ComputeNode::new` recomputes every cached aggregate (power sums,
    // idle/asleep/failed counts) from the restored processor states.
    let mut node = ComputeNode::new(
        NodeAddr {
            site: SiteId(site),
            node: node_idx,
        },
        procs,
        queue_capacity,
    );
    node.throttle = throttle;
    let n_queued = r.len_hint()?;
    for _ in 0..n_queued {
        let qg = read_queued_group(r)?;
        // Front-to-back pushes re-derive the cached queue load with the
        // exact same summation order as the original run.
        node.queue
            .push(qg)
            .map_err(|_| corrupt("queued groups exceed queue capacity"))?;
    }
    Ok(node)
}

fn read_processor(r: &mut SnapReader<'_>) -> Result<Processor, SnapshotError> {
    let speed_mips = r.f64_finite()?;
    if speed_mips <= 0.0 {
        return Err(corrupt(format!(
            "processor speed {speed_mips} not positive"
        )));
    }
    let p_peak = r.f64_finite()?;
    let state = read_proc_state(r)?;
    let last_transition = read_time(r)?;
    let busy_time = r.f64_time()?;
    let idle_time = r.f64_time()?;
    let sleep_time = r.f64_time()?;
    let failed_time = r.f64_time()?;
    let energy = r.f64_time()?;
    let tasks_executed = r.u64()?;
    let p_idle = r.f64_finite()?;
    let p_sleep = r.f64_finite()?;
    Ok(Processor::from_parts(
        speed_mips,
        p_peak,
        state,
        last_transition,
        busy_time,
        idle_time,
        sleep_time,
        failed_time,
        energy,
        tasks_executed,
        p_idle,
        p_sleep,
    ))
}

fn read_proc_state(r: &mut SnapReader<'_>) -> Result<ProcState, SnapshotError> {
    match r.u8()? {
        0 => Ok(ProcState::Idle),
        1 => Ok(ProcState::Busy {
            task: TaskId(r.u64()?),
            group: GroupId(r.u64()?),
            finish: read_time(r)?,
            power: r.f64_finite()?,
        }),
        2 => Ok(ProcState::Asleep),
        3 => Ok(ProcState::Waking {
            until: read_time(r)?,
        }),
        4 => Ok(ProcState::Failed),
        t => Err(corrupt(format!("unknown processor-state tag {t}"))),
    }
}

fn read_queued_group(r: &mut SnapReader<'_>) -> Result<QueuedGroup, SnapshotError> {
    let id = GroupId(r.u64()?);
    let policy = read_policy(r)?;
    let n = r.len_hint()?;
    if n == 0 {
        return Err(corrupt(format!("queued group {} is empty", id.0)));
    }
    let mut tasks = Vec::with_capacity(n);
    for _ in 0..n {
        tasks.push(read_task(r)?);
    }
    // Re-validate the `TaskGroup::new` invariants instead of re-running the
    // sort: the restored order must be byte-identical to what was saved.
    for pair in tasks.windows(2) {
        if (pair[0].deadline, pair[0].id) > (pair[1].deadline, pair[1].id) {
            return Err(corrupt(format!("group {} tasks not in EDF order", id.0)));
        }
    }
    if let GroupPolicy::Identical(p) = policy {
        if tasks.iter().any(|t| t.priority != p) {
            return Err(corrupt(format!(
                "identical-priority group {} holds mixed classes",
                id.0
            )));
        }
    }
    let group = TaskGroup { id, tasks, policy };
    let enqueued_at = read_time(r)?;
    let pw = r.f64_finite()?;
    let next_start = r.usize()?;
    if next_start > group.len() {
        return Err(corrupt(format!(
            "group {}: next_start {next_start} beyond {} members",
            id.0,
            group.len()
        )));
    }
    let running = r.u32()?;
    let done = r.u32()?;
    let lost = r.u32()?;
    let met = r.u32()?;
    let members = group.len();
    if (running as usize) > members || (done + lost) as usize > members || met > done {
        return Err(corrupt(format!(
            "group {}: execution counters exceed {members} members",
            id.0
        )));
    }
    let first_start = read_opt_time(r)?;
    let split_mode = r.bool()?;
    let assign_error = r.f64_finite()?;
    Ok(QueuedGroup {
        group,
        enqueued_at,
        pw,
        next_start,
        running,
        done,
        lost,
        met,
        first_start,
        split_mode,
        assign_error,
    })
}

fn read_policy(r: &mut SnapReader<'_>) -> Result<GroupPolicy, SnapshotError> {
    match r.u8()? {
        0 => Ok(GroupPolicy::Mixed),
        1 => Ok(GroupPolicy::Identical(read_priority(r)?)),
        t => Err(corrupt(format!("unknown group-policy tag {t}"))),
    }
}

fn read_priority(r: &mut SnapReader<'_>) -> Result<Priority, SnapshotError> {
    match r.u8()? {
        0 => Ok(Priority::Low),
        1 => Ok(Priority::Medium),
        2 => Ok(Priority::High),
        t => Err(corrupt(format!("unknown priority tag {t}"))),
    }
}

fn read_task(r: &mut SnapReader<'_>) -> Result<Task, SnapshotError> {
    Task::snap_read(r)
}

fn read_partial(r: &mut SnapReader<'_>, platform: &Platform) -> Result<Partial, SnapshotError> {
    let node = match r.u8()? {
        0 => None,
        1 => {
            let n = NodeAddr {
                site: SiteId(r.u32()?),
                node: r.u32()?,
            };
            check_node_addr(platform, n)?;
            Some(n)
        }
        t => return Err(corrupt(format!("invalid presence byte {t:#04x}"))),
    };
    Ok(Partial {
        node,
        group: r.opt_u64()?.map(GroupId),
        dispatched: read_opt_time(r)?,
        started: read_opt_time(r)?,
        finished: read_opt_time(r)?,
        failed_at: read_opt_time(r)?,
        met: r.bool()?,
        split: r.bool()?,
        attempts: r.u32()?,
    })
}

fn read_planned_fault(
    r: &mut SnapReader<'_>,
    platform: &Platform,
) -> Result<PlannedFault, SnapshotError> {
    let at = read_time(r)?;
    let target = match r.u8()? {
        0 => {
            let p = ProcAddr {
                node: NodeAddr {
                    site: SiteId(r.u32()?),
                    node: r.u32()?,
                },
                proc: r.u32()?,
            };
            check_proc_addr(platform, p)?;
            FaultTarget::Proc(p)
        }
        1 => {
            let n = NodeAddr {
                site: SiteId(r.u32()?),
                node: r.u32()?,
            };
            check_node_addr(platform, n)?;
            FaultTarget::Node(n)
        }
        t => return Err(corrupt(format!("unknown fault-target tag {t}"))),
    };
    let recover_at = read_opt_time(r)?;
    if let Some(rec) = recover_at {
        if rec <= at {
            return Err(corrupt("fault recovery does not come after the failure"));
        }
    }
    Ok(PlannedFault {
        at,
        target,
        recover_at,
    })
}

fn read_ev(
    r: &mut SnapReader<'_>,
    platform: &Platform,
    num_tasks: usize,
    plan_len: usize,
) -> Result<Ev, SnapshotError> {
    match r.u8()? {
        0 => {
            let i = r.u32()?;
            if (i as usize) >= num_tasks {
                return Err(corrupt(format!("arrival index {i} out of range")));
            }
            Ok(Ev::Arrival(i))
        }
        tag @ (1 | 2) => {
            let p = ProcAddr {
                node: NodeAddr {
                    site: SiteId(r.u32()?),
                    node: r.u32()?,
                },
                proc: r.u32()?,
            };
            check_proc_addr(platform, p)?;
            let epoch = r.u32()?;
            Ok(if tag == 1 {
                Ev::TaskDone(p, epoch)
            } else {
                Ev::WakeDone(p, epoch)
            })
        }
        3 => Ok(Ev::Tick),
        4 => {
            let i = r.u32()?;
            if (i as usize) >= plan_len {
                return Err(corrupt(format!("fault index {i} out of range")));
            }
            Ok(Ev::Fault(i))
        }
        5 => {
            let i = r.u32()?;
            if (i as usize) >= plan_len {
                return Err(corrupt(format!("recovery index {i} out of range")));
            }
            Ok(Ev::Recover(i))
        }
        t => Err(corrupt(format!("unknown engine-event tag {t}"))),
    }
}

fn check_node_addr(platform: &Platform, n: NodeAddr) -> Result<(), SnapshotError> {
    let site = platform
        .sites
        .get(n.site.0 as usize)
        .ok_or_else(|| corrupt(format!("node address {n}: site out of range")))?;
    if (n.node as usize) >= site.nodes.len() {
        return Err(corrupt(format!("node address {n}: node out of range")));
    }
    Ok(())
}

fn check_proc_addr(platform: &Platform, p: ProcAddr) -> Result<(), SnapshotError> {
    check_node_addr(platform, p.node)?;
    let node = &platform.sites[p.node.site.0 as usize].nodes[p.node.node as usize];
    if (p.proc as usize) >= node.num_processors() {
        return Err(corrupt(format!("processor address {p} out of range")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::oracle::replay_divergence;
    use crate::scheduler::Command;
    use crate::view::PlatformView;
    use simcore::rng::RngStream;
    use workload::{Workload, WorkloadSpec};

    /// FCFS test scheduler (mirrors the engine test suite) with its pending
    /// buffer round-tripped through the checkpoint hooks.
    struct Fcfs {
        name: &'static str,
        pending: Vec<Task>,
    }

    impl Fcfs {
        fn new() -> Self {
            Fcfs {
                name: "fcfs-test",
                pending: Vec::new(),
            }
        }
    }

    impl Scheduler for Fcfs {
        fn name(&self) -> &str {
            self.name
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
                    .filter(|n| n.queue_available() > 0 && n.available_processors() > 0)
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
        fn save_state(&mut self, w: &mut SnapWriter) {
            w.usize(self.pending.len());
            for t in &self.pending {
                write_task(w, t);
            }
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
            let n = r.len_hint()?;
            let mut pending = Vec::with_capacity(n);
            for _ in 0..n {
                pending.push(read_task(r)?);
            }
            self.pending = pending;
            Ok(())
        }
    }

    fn setup(seed: u64, n_tasks: usize) -> (Platform, Vec<Task>) {
        let rng = RngStream::root(seed);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let wl = Workload::generate(
            WorkloadSpec::paper(n_tasks, 2, platform.reference_speed()),
            &rng.derive("w"),
        );
        (platform, wl.tasks)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arl-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn snapshots_in(dir: &PathBuf) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("checkpoint dir exists")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "snap"))
            .collect();
        files.sort();
        files
    }

    /// Golden uninterrupted run vs. a checkpointed run vs. a resume from
    /// every snapshot that was written: all bit-identical under the oracle.
    fn roundtrip_all_checkpoints(engine: &ExecEngine, seed: u64, n_tasks: usize, tag: &str) {
        let golden = {
            let (p, t) = setup(seed, n_tasks);
            engine.run(p, t, &mut Fcfs::new())
        };
        let dir = scratch_dir(tag);
        let ck_cfg = CheckpointConfig::new(40, &dir).with_meta(vec![7, 7, 7]);
        let ck = {
            let (p, t) = setup(seed, n_tasks);
            engine.run_with_checkpoints(p, t, &mut Fcfs::new(), &ck_cfg)
        };
        assert!(ck.write_error.is_none(), "{:?}", ck.write_error);
        assert!(
            ck.checkpoints_written >= 3,
            "too few checkpoints to be a real test"
        );
        if let Some(d) = replay_divergence(&golden, &ck.result) {
            panic!("checkpointing perturbed the run: {d}");
        }
        let files = snapshots_in(&dir);
        assert_eq!(files.len() as u64, ck.checkpoints_written);
        for f in &files {
            let payload = snapshot::read_file(f).expect("snapshot readable");
            assert_eq!(snapshot_meta(&payload).unwrap(), vec![7, 7, 7]);
            let mut sched = Fcfs::new();
            let resumed = resume_from_payload(&payload, &mut sched).expect("resume succeeds");
            if let Some(d) = replay_divergence(&golden, &resumed) {
                panic!("resume from {} diverged: {d}", f.display());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_matches_golden_no_faults() {
        let engine = ExecEngine::new(ExecConfig {
            split_enabled: true,
            ..ExecConfig::default()
        });
        roundtrip_all_checkpoints(&engine, 11, 160, "plain");
    }

    #[test]
    fn checkpointing_composes_with_probes() {
        // The writer sits on the engine's after-event hook and the oracle
        // and profiler on the driver's probe list: all three at once must
        // leave the run, its audit and the event timing intact.
        let cfg = ExecConfig {
            audit: true,
            ..ExecConfig::default()
        };
        let plain = {
            let (p, t) = setup(23, 160);
            ExecEngine::new(cfg).run(p, t, &mut Fcfs::new())
        };
        let prof = std::sync::Arc::new(PhaseProfiler::new());
        let dir = scratch_dir("probes");
        let ck = {
            let (p, t) = setup(23, 160);
            let engine = ExecEngine::new(cfg).with_profiler(prof.clone());
            engine.run_with_checkpoints(p, t, &mut Fcfs::new(), &CheckpointConfig::new(40, &dir))
        };
        let _ = std::fs::remove_dir_all(&dir);
        assert!(ck.write_error.is_none(), "{:?}", ck.write_error);
        assert!(ck.checkpoints_written >= 3);
        assert_eq!(replay_divergence(&plain, &ck.result), None);
        let (a, b) = (plain.audit.unwrap(), ck.result.audit.unwrap());
        assert!(b.is_clean(), "{}", b.render());
        assert_eq!(
            (a.checks, a.events, a.sweeps),
            (b.checks, b.events, b.sweeps)
        );
        let report = prof.report();
        let calls = |name: &str| {
            report
                .phases
                .iter()
                .find(|p| p.phase == name)
                .unwrap()
                .calls
        };
        assert_eq!(calls("event_handle"), ck.result.events_processed);
        assert_eq!(calls("checkpoint_write"), ck.checkpoints_written);
    }

    #[test]
    fn resume_matches_golden_with_faults() {
        let plan = FaultPlan::from_events(vec![
            PlannedFault {
                at: SimTime::new(20.0),
                target: FaultTarget::Proc(ProcAddr {
                    node: NodeAddr::new(0, 0),
                    proc: 1,
                }),
                recover_at: Some(SimTime::new(45.0)),
            },
            PlannedFault {
                at: SimTime::new(30.0),
                target: FaultTarget::Node(NodeAddr::new(1, 1)),
                recover_at: Some(SimTime::new(60.0)),
            },
            PlannedFault {
                at: SimTime::new(38.0),
                target: FaultTarget::Node(NodeAddr::new(0, 2)),
                recover_at: None,
            },
        ]);
        let engine = ExecEngine::new(ExecConfig {
            split_enabled: true,
            faults: FaultSpec {
                enabled: true,
                ..FaultSpec::default()
            },
            ..ExecConfig::default()
        })
        .with_fault_plan(plan);
        roundtrip_all_checkpoints(&engine, 17, 160, "faults");
    }

    #[test]
    fn scheduler_name_mismatch_is_typed_error() {
        let (p, t) = setup(11, 60);
        let dir = scratch_dir("name-mismatch");
        let ck_cfg = CheckpointConfig::new(40, &dir);
        let engine = ExecEngine::new(ExecConfig::default());
        let ck = engine.run_with_checkpoints(p, t, &mut Fcfs::new(), &ck_cfg);
        assert!(ck.write_error.is_none());
        let files = snapshots_in(&dir);
        let payload = snapshot::read_file(&files[0]).unwrap();
        let mut other = Fcfs::new();
        other.name = "not-fcfs";
        match resume_from_payload(&payload, &mut other) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(
                    msg.contains("fcfs-test") && msg.contains("not-fcfs"),
                    "{msg}"
                );
            }
            r => panic!("expected scheduler-mismatch error, got {r:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_payload_is_typed_error_never_panic() {
        let (p, t) = setup(11, 60);
        let dir = scratch_dir("truncate");
        let ck_cfg = CheckpointConfig::new(40, &dir);
        let engine = ExecEngine::new(ExecConfig::default());
        let ck = engine.run_with_checkpoints(p, t, &mut Fcfs::new(), &ck_cfg);
        assert!(ck.checkpoints_written >= 1);
        let files = snapshots_in(&dir);
        let payload = snapshot::read_file(files.last().unwrap()).unwrap();
        // Cut the payload at a spread of points; every prefix must decode
        // to a typed error, never a panic or an accidental success.
        let step = (payload.len() / 23).max(1);
        for cut in (0..payload.len()).step_by(step) {
            let err = resume_from_payload(&payload[..cut], &mut Fcfs::new());
            assert!(
                err.is_err(),
                "truncation at {cut} of {} decoded",
                payload.len()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_checkpoint_dir_does_not_abort_the_run() {
        let golden = {
            let (p, t) = setup(11, 80);
            ExecEngine::new(ExecConfig::default()).run(p, t, &mut Fcfs::new())
        };
        // A file where the directory should be makes create_dir_all fail.
        let blocker = std::env::temp_dir().join(format!("arl-ckpt-{}-blocker", std::process::id()));
        std::fs::write(&blocker, b"in the way").unwrap();
        let ck_cfg = CheckpointConfig::new(40, &blocker);
        let ck = {
            let (p, t) = setup(11, 80);
            ExecEngine::new(ExecConfig::default()).run_with_checkpoints(
                p,
                t,
                &mut Fcfs::new(),
                &ck_cfg,
            )
        };
        assert!(matches!(ck.write_error, Some(SnapshotError::Io(_))));
        assert_eq!(ck.checkpoints_written, 0);
        if let Some(d) = replay_divergence(&golden, &ck.result) {
            panic!("failed checkpointing perturbed the run: {d}");
        }
        let _ = std::fs::remove_file(&blocker);
    }
}
