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
//! Each snapshotted type lists its fields once, in a `snap` function next
//! to its definition; [`snapshot::Codec`] runs that one list to encode
//! (`encode_checkpoint`) and to decode (`restore`). Cached aggregates
//! (node power sums, site stats, queue loads, the flat processor layout)
//! are deliberately **not** serialized: decoding rebuilds them from the
//! restored ground truth, so a snapshot cannot smuggle in an inconsistent
//! cache.

use crate::engine::{
    assemble_result, proc_layout, CycleSample, Driver, Ev, ExecConfig, ExecEngine, Partial,
    RunResult,
};
use crate::fault::{FaultTarget, PlannedFault};
use crate::ids::{NodeAddr, ProcAddr};
use crate::node::MIN_THROTTLE;
use crate::processor::{ProcState, Processor};
use crate::queue::QueuedGroup;
use crate::scheduler::Scheduler;
use crate::topology::{Platform, PlatformSpec};
use simcore::engine::{Engine, EngineHandle, Simulation};
use simcore::event::{EventQueue, ScheduledEvent};
use simcore::time::SimTime;
use snapshot::{corrupt, Codec, SnapReader, SnapWriter, SnapshotError};
use std::path::PathBuf;
use telemetry::{Phase, PhaseProfiler};
use workload::{SimCodec, Task};

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

/// Reads the head of a snapshot payload (as returned by
/// [`snapshot::read_file`]): the opaque caller meta blob and the site count
/// of the snapshot's platform. A resumer builds its scheduler from these
/// before handing the payload to [`resume_from_payload`].
pub fn snapshot_meta(payload: &[u8]) -> Result<(Vec<u8>, usize), SnapshotError> {
    let (mut meta, mut name) = (Vec::new(), Vec::new());
    let (mut cfg, mut spec) = (ExecConfig::default(), PlatformSpec::paper(1));
    head(
        &mut SnapReader::new(payload),
        &mut meta,
        &mut name,
        &mut cfg,
        &mut spec,
    )?;
    Ok((meta, spec.num_sites as usize))
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
/// [`SnapshotError`], and so does a restored policy that dispatches a task
/// the run never issued (the run halts there); this function never panics
/// on corrupt input.
pub fn resume_from_payload(
    payload: &[u8],
    sched: &mut dyn Scheduler,
) -> Result<RunResult, SnapshotError> {
    let (mut driver, mut engine) = restore(payload, sched)?;
    let outcome = engine.run(&mut driver);
    if let Some(why) = driver.halted {
        return Err(corrupt(why));
    }
    Ok(assemble_result(driver, &engine, outcome, None))
}

/// Decodes a snapshot payload into a paused `(Driver, Engine)` pair
/// without running it — the shared restore path behind
/// [`resume_from_payload`] (which drives it to completion) and
/// [`crate::ScheduleSession::resume`] (which resumes it in paced
/// [`Engine::run_until`] slices).
pub(crate) fn restore<'s>(
    bytes: &[u8],
    sched: &'s mut dyn Scheduler,
) -> Result<(Driver<'s>, Engine<Ev>), SnapshotError> {
    let blank = Platform::from_parts(PlatformSpec::paper(1), Vec::new());
    let (mut driver, _) = ExecEngine::new(ExecConfig::default()).prepare(blank, Vec::new(), sched);
    let mut engine = EngineState::default();
    let mut r = SnapReader::new(bytes);
    payload(&mut r, &mut Vec::new(), &mut driver, &mut engine)?;
    let left = r.remaining();
    ensure(left == 0, || {
        format!("{left} trailing bytes after engine state")
    })?;
    driver.proc_base = proc_layout(&driver.platform).0;
    validate(&driver, &engine)?;
    let queue = EventQueue::from_entries(engine.events, engine.next_seq);
    let engine = Engine::from_parts(queue, engine.now, engine.processed, engine.fuse);
    Ok((driver, engine))
}

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
    // Heap iteration order is unspecified; sort by the unique sequence
    // number so identical states produce identical bytes.
    let mut events: Vec<ScheduledEvent<Ev>> = queue.entries().cloned().collect();
    events.sort_by_key(|e| e.seq);
    let mut engine = EngineState {
        now,
        processed,
        fuse,
        next_seq: queue.pushed(),
        events,
    };
    let mut w = SnapWriter::new();
    w.encode(|w| payload(w, &mut meta.to_vec(), driver, &mut engine));
    w.into_bytes()
}

/// The payload's head: everything a resumer needs before it can build the
/// scheduler (see [`snapshot_meta`]).
fn head<C: Codec>(
    c: &mut C,
    meta: &mut Vec<u8>,
    name: &mut Vec<u8>,
    cfg: &mut ExecConfig,
    spec: &mut PlatformSpec,
) -> Result<(), SnapshotError> {
    c.bytes(meta)?;
    c.bytes(name)?;
    cfg.snap(c)?;
    spec.snap(c)
}

/// The whole payload's field list: the head, the driver with the
/// scheduler's state nested inside, then the engine.
fn payload<C: Codec>(
    c: &mut C,
    meta: &mut Vec<u8>,
    d: &mut Driver<'_>,
    e: &mut EngineState,
) -> Result<(), SnapshotError> {
    let mut name = d.sched.name().as_bytes().to_vec();
    head(c, meta, &mut name, &mut d.cfg, &mut d.platform.spec)?;
    let want = d.sched.name();
    c.check(name == want.as_bytes(), || {
        let name = String::from_utf8_lossy(&name);
        format!("snapshot was taken with scheduler '{name}', resume requested with '{want}'")
    })?;
    d.snap(c)?;
    e.snap(c)
}

impl Driver<'_> {
    /// The driver's field list after the head. Derived state — the flat
    /// processor layout, scratch buffers and probes — is not listed.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.platform.snap_sites(c)?;
        c.seq(&mut self.tasks, Task::snap)?;
        c.seq(&mut self.partials, Partial::snap)?;
        c.usize(&mut self.completed)?;
        c.nonneg(&mut self.finished_work)?;
        c.seq(&mut self.cycles, CycleSample::snap)?;
        c.u64(&mut self.cycle)?;
        c.u64(&mut self.next_group)?;
        c.u64(&mut self.groups_dispatched)?;
        c.u64(&mut self.groups_completed)?;
        c.u64(&mut self.split_starts)?;
        c.u64(&mut self.rejections)?;
        c.time(&mut self.last_completion)?;
        c.seq(&mut self.plan, PlannedFault::snap)?;
        c.seq(&mut self.epochs, |v, c| c.u32(v))?;
        // May legitimately be +INFINITY (a permanently dead processor), so
        // only NaN and negatives are rejected.
        c.seq(&mut self.offline_until, |v, c| {
            c.f64(v)?;
            let v = *v;
            c.check(v >= 0.0, || format!("invalid offline-until value {v}"))
        })?;
        c.seq(&mut self.site_perm_procs, |v, c| c.usize(v))?;
        c.usize(&mut self.failed_tasks)?;
        c.u64(&mut self.faults_injected)?;
        c.u64(&mut self.faults_recovered)?;
        c.u64(&mut self.preemptions)?;
        c.u64(&mut self.retries)?;
        c.u64(&mut self.groups_aborted)?;
        c.u64(&mut self.events_seen)?;
        c.usize(&mut self.met_count)?;
        c.time(&mut self.settled_at)?;
        c.nested(
            &mut *self.sched,
            |s, w| s.save_state(w),
            |s, r| s.load_state(r),
        )
    }
}

/// The engine half of a checkpoint: clock, counters and the pending
/// events in sequence order.
#[derive(Default)]
struct EngineState {
    now: SimTime,
    processed: u64,
    fuse: u64,
    next_seq: u64,
    events: Vec<ScheduledEvent<Ev>>,
}

impl EngineState {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.time(&mut self.now)?;
        c.u64(&mut self.processed)?;
        c.u64(&mut self.fuse)?;
        c.u64(&mut self.next_seq)?;
        let (now, next_seq) = (self.now, self.next_seq);
        c.seq(&mut self.events, |e, c| {
            c.time(&mut e.time)?;
            let t = e.time;
            c.check(t >= now, || {
                format!(
                    "pending event at t={} predates the restored clock t={}",
                    t.as_f64(),
                    now.as_f64()
                )
            })?;
            c.u64(&mut e.seq)?;
            let seq = e.seq;
            c.check(seq < next_seq, || {
                format!("event sequence {seq} not below the counter {next_seq}")
            })?;
            e.event.snap(c)
        })
    }
}

/// Fails with [`SnapshotError::Corrupt`] carrying `why()` unless `ok`.
fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), SnapshotError> {
    ok.then_some(()).ok_or_else(|| corrupt(why()))
}

/// The cross-field invariants of a decoded checkpoint, checked in one pass
/// once the platform and the task table are known: every index and
/// address in range, the counters equal to what the task records say, and
/// the execution state the event handlers rely on — a busy processor runs
/// a started task of a group queued on its node and has exactly one live
/// completion pending, a waking processor at most one live wake-up, and a
/// task not yet arrived exactly one arrival.
fn validate(d: &Driver<'_>, e: &EngineState) -> Result<(), SnapshotError> {
    let p = &d.platform;
    let n_tasks = d.tasks.len();
    let node_ok = |n: NodeAddr| {
        (p.sites.get(n.site.0 as usize)).is_some_and(|s| (n.node as usize) < s.nodes.len())
    };
    let proc_ok =
        |a: ProcAddr| node_ok(a.node) && (a.proc as usize) < p.node(a.node).num_processors();

    for (i, t) in d.tasks.iter().enumerate() {
        ensure(
            t.id.0 == i as u64 && (t.site.0 as usize) < p.sites.len(),
            || format!("task slot {i} holds task {} of site {}", t.id, t.site),
        )?;
    }
    ensure(d.partials.len() == n_tasks, || {
        format!("{} partials for {n_tasks} tasks", d.partials.len())
    })?;
    for (i, pt) in d.partials.iter().enumerate() {
        let placed = [pt.dispatched, pt.started].iter().all(Option::is_some);
        let dispatched = pt.node.is_some() && pt.group.is_some() && placed;
        let ok = pt.node.is_none_or(node_ok)
            && (pt.finished.is_none() || (pt.failed_at.is_none() && dispatched));
        ensure(ok, || format!("task {i} has an impossible record"))?;
    }
    let count = |f: fn(&Partial) -> bool| d.partials.iter().filter(|p| f(p)).count();
    ensure(
        d.completed == count(|p| p.finished.is_some())
            && d.failed_tasks == count(|p| p.failed_at.is_some())
            && d.met_count == count(|p| p.finished.is_some() && p.met),
        || "task counters disagree with the task records".into(),
    )?;
    for f in &d.plan {
        let ok = match f.target {
            FaultTarget::Proc(a) => proc_ok(a),
            FaultTarget::Node(n) => node_ok(n),
        };
        ensure(ok, || "fault target outside the platform".into())?;
    }
    let (_, flat) = proc_layout(p);
    ensure(
        d.epochs.len() == flat
            && d.offline_until.len() == flat
            && d.site_perm_procs.len() == p.sites.len(),
        || format!("per-processor state does not cover the {flat} processors"),
    )?;
    for (s, &live) in d.site_perm_procs.iter().enumerate() {
        let alive = d.alive_procs(s);
        ensure(live == alive, || {
            format!("site {s} claims {live} live processors, {alive} are not dead")
        })?;
    }

    // Live completions and wake-ups per processor, pending arrivals per
    // task.
    let mut done_at: Vec<Option<SimTime>> = vec![None; flat];
    let mut waking = vec![false; flat];
    let mut arriving = vec![false; n_tasks];
    for ev in &e.events {
        let ok = match ev.event {
            Ev::Arrival(i) => d.tasks.get(i as usize).is_some_and(|t| {
                t.arrival == ev.time && !std::mem::replace(&mut arriving[i as usize], true)
            }),
            Ev::TaskDone(a, epoch) | Ev::WakeDone(a, epoch) if proc_ok(a) => {
                let i = d.pidx(a);
                let until = match p.node(a.node).processors[a.proc as usize].state() {
                    ProcState::Waking { until } => until,
                    _ => SimTime::MAX,
                };
                d.epochs[i] != epoch
                    || match ev.event {
                        Ev::TaskDone(..) => done_at[i].replace(ev.time).is_none(),
                        _ => until <= ev.time && !std::mem::replace(&mut waking[i], true),
                    }
            }
            Ev::TaskDone(..) | Ev::WakeDone(..) => false,
            Ev::Tick => true,
            Ev::Fault(i) | Ev::Recover(i) => (i as usize) < d.plan.len(),
        };
        ensure(ok, || {
            let (kind, t) = (ev.event.name(), ev.time.as_f64());
            format!("pending {kind} event at t={t} does not fit the restored state")
        })?;
    }
    for (i, t) in d.tasks.iter().enumerate() {
        ensure(arriving[i] || t.arrival <= e.now, || {
            format!("task {i} has not arrived and no arrival is pending")
        })?;
    }

    let mut slowest = f64::INFINITY;
    // Tasks waiting in a queue or running: each in one place at most.
    let mut held = vec![false; n_tasks];
    for node in p.sites.iter().flat_map(|s| &s.nodes) {
        let addr = node.addr;
        for qg in node.queue.iter() {
            let id = qg.group.id;
            let runs = |pr: &&Processor| matches!(pr.state(), ProcState::Busy { group, .. } if group == id);
            let known = |t: &Task| {
                d.tasks
                    .get(t.id.0 as usize)
                    .is_some_and(|o| t.is_copy_of(o))
            };
            // A member not yet started waits here and nowhere else.
            let waiting = |t: &Task| {
                let pt = &d.partials[t.id.0 as usize];
                pt.node == Some(addr)
                    && pt.group == Some(id)
                    && pt.finished.is_none()
                    && pt.failed_at.is_none()
                    && !std::mem::replace(&mut held[t.id.0 as usize], true)
            };
            ensure(
                qg.group.tasks.iter().all(known)
                    && qg.group.tasks[qg.next_start..].iter().all(waiting)
                    && node.processors.iter().filter(runs).count() == qg.running as usize,
                || format!("group {id} on {addr} disagrees with the tasks or processors"),
            )?;
        }
        for (pi, pr) in node.processors.iter().enumerate() {
            slowest = slowest.min(pr.speed_mips);
            let live_done = done_at[d.pidx(ProcAddr {
                node: addr,
                proc: pi as u32,
            })];
            let ok = match pr.state() {
                ProcState::Busy {
                    task,
                    group,
                    finish,
                    ..
                } => {
                    let started = d.partials.get(task.0 as usize).and_then(|pt| {
                        let here = pt.node == Some(addr) && pt.group == Some(group);
                        (here && pt.finished.is_none())
                            .then_some(pt.started)
                            .flatten()
                    });
                    let member = |qg: &QueuedGroup| {
                        qg.group.id == group && qg.group.tasks.iter().any(|t| t.id == task)
                    };
                    started.is_some_and(|s| s <= finish)
                        && !std::mem::replace(&mut held[task.0 as usize], true)
                        && node.queue.iter().any(member)
                        && live_done == Some(finish)
                }
                _ => live_done.is_none(),
            };
            ensure(ok, || {
                format!("processor {addr}/p{pi} disagrees with its task")
            })?;
        }
    }
    // Every execution ends in finite time: the longest (the largest task
    // on the slowest processor, fully throttled) must not overflow once
    // added to the time limit.
    let largest = d.tasks.iter().fold(0.0f64, |hi, t| hi.max(t.size_mi));
    let longest = (largest / (slowest * MIN_THROTTLE))
        .max(d.cfg.tick_interval)
        .max(p.spec.power.wake_latency);
    ensure(
        (d.cfg.max_time.min(f64::MAX / 2.0) + longest).is_finite(),
        || format!("a task of {largest} MI cannot execute in finite time"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::group::GroupPolicy;
    use crate::oracle::replay_divergence;
    use crate::scheduler::Command;
    use crate::view::PlatformView;
    use simcore::rng::RngStream;
    use workload::{SiteId, TaskId, Workload, WorkloadSpec};

    /// FCFS test scheduler (mirrors the engine test suite) with its pending
    /// buffer round-tripped through the checkpoint hooks.
    struct Fcfs {
        name: &'static str,
        pending: Vec<Task>,
        /// Give the first task of every dispatch an id the run never
        /// issued, as a policy restored from a corrupt snapshot might.
        forge: bool,
    }

    impl Fcfs {
        fn new() -> Self {
            Fcfs {
                name: "fcfs-test",
                pending: Vec::new(),
                forge: false,
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
            if let (true, Some(Command::Dispatch { tasks, .. })) = (self.forge, cmds.first_mut()) {
                tasks[0].id = TaskId(u64::MAX);
            }
            cmds
        }
        fn save_state(&mut self, w: &mut SnapWriter) {
            w.encode(|w| w.seq(&mut self.pending, Task::snap));
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
            r.seq(&mut self.pending, Task::snap)
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
            assert_eq!(snapshot_meta(&payload).unwrap(), (vec![7, 7, 7], 2));
            let mut sched = Fcfs::new();
            let resumed = resume_from_payload(&payload, &mut sched).expect("resume succeeds");
            if let Some(d) = replay_divergence(&golden, &resumed) {
                panic!("resume from {} diverged: {d}", f.display());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_restored_policy_forging_a_task_halts_with_a_typed_error() {
        // Resume reports the halt as a corrupt snapshot, a session through
        // `halt_reason`.
        let dir = scratch_dir("forged");
        let engine = ExecEngine::new(ExecConfig::default());
        let (p, t) = setup(31, 80);
        let ck =
            engine.run_with_checkpoints(p, t, &mut Fcfs::new(), &CheckpointConfig::new(40, &dir));
        assert!(ck.write_error.is_none(), "{:?}", ck.write_error);
        let payload = snapshot::read_file(&snapshots_in(&dir)[0]).expect("snapshot readable");
        let _ = std::fs::remove_dir_all(&dir);
        let forger = || Fcfs {
            forge: true,
            ..Fcfs::new()
        };
        let err = resume_from_payload(&payload, &mut forger()).expect_err("the run halts");
        assert!(err.to_string().contains("never issued"), "{err}");
        let mut sched = forger();
        let mut session = crate::ScheduleSession::resume(&payload, &mut sched).expect("decodes");
        assert_eq!(session.halt_reason(), None);
        session.advance_to(SimTime::new(1e9), &mut Vec::new());
        let why = session.halt_reason().expect("the session halted");
        assert!(why.contains("never issued"), "{why}");
    }

    #[test]
    #[should_panic(expected = "never issued")]
    fn a_fresh_policy_forging_a_task_panics() {
        let (p, t) = setup(31, 20);
        let mut sched = Fcfs {
            forge: true,
            ..Fcfs::new()
        };
        ExecEngine::new(ExecConfig::default()).run(p, t, &mut sched);
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
