//! A boxed policy is the policy it boxes: `Box<S>` forwards every
//! `Scheduler` method. Eleven of the fourteen methods have defaults, so a
//! missing forwarder would still compile and silently fall back to the
//! default. A policy that overrides every method and counts its calls is
//! run boxed and unboxed through the batch engine, the checkpoint/resume
//! path and the sharded engine; every override must be reached, with the
//! same counts and the same result either way.

use platform::checkpoint::{resume_from_payload, CheckpointConfig};
use platform::{
    replay_divergence, run_sharded, AssignmentFeedback, Command, ExecConfig, ExecEngine, FaultSpec,
    GroupFeedback, GroupId, GroupPolicy, Platform, PlatformSpec, PlatformView, RunResult,
    Scheduler, SyncRecord,
};
use simcore::rng::RngStream;
use simcore::SimTime;
use snapshot::{SnapReader, SnapWriter, SnapshotError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use workload::{SiteId, Task, Workload, WorkloadSpec};

/// The `Scheduler` methods, in declaration order.
const METHODS: [&str; 14] = [
    "name",
    "on_arrivals",
    "dispatch",
    "on_assignment",
    "on_group_complete",
    "on_rejected",
    "on_orphaned",
    "on_group_aborted",
    "on_tick",
    "drain_sync",
    "apply_sync",
    "exploration",
    "save_state",
    "load_state",
];

fn method(name: &str) -> usize {
    METHODS
        .iter()
        .position(|m| *m == name)
        .expect("known method")
}

/// Per-method call counts, shared by every policy instance of one run.
#[derive(Default)]
struct Calls([AtomicU64; 14]);

impl Calls {
    fn hit(&self, name: &str) {
        self.0[method(name)].fetch_add(1, Ordering::Relaxed);
    }

    fn counts(&self) -> [u64; 14] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

/// Overrides every method. Dispatches singletons to the node with the
/// most free queue slots even when every queue is full (so some dispatches
/// bounce), reports one sync record per completed group, and lets the
/// foreign records it applies steer its tie-breaks, so a lost `apply_sync`
/// also changes the schedule.
struct Counting {
    calls: Arc<Calls>,
    site: u32,
    pending: Vec<Task>,
    completions: Vec<SimTime>,
    produced: u64,
    applied: u64,
}

impl Counting {
    fn new(calls: &Arc<Calls>, site: usize) -> Self {
        Counting {
            calls: calls.clone(),
            site: site as u32,
            pending: Vec::new(),
            completions: Vec::new(),
            produced: 0,
            applied: 0,
        }
    }
}

impl Scheduler for Counting {
    fn name(&self) -> &str {
        self.calls.hit("name");
        "counting"
    }
    fn on_arrivals(&mut self, _now: SimTime, _site: SiteId, tasks: Vec<Task>) {
        self.calls.hit("on_arrivals");
        self.pending.extend(tasks);
    }
    fn dispatch(&mut self, _now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        self.calls.hit("dispatch");
        let mut cmds = Vec::new();
        for t in self.pending.drain(..) {
            let mut best = None;
            for n in view.site_nodes(t.site) {
                let better = match best {
                    None => true,
                    Some((_, free)) => {
                        n.queue_available() > free
                            || (n.queue_available() == free && self.applied % 2 == 1)
                    }
                };
                if better {
                    best = Some((n.addr(), n.queue_available()));
                }
            }
            if let Some((node, _)) = best {
                cmds.push(Command::Dispatch {
                    node,
                    tasks: vec![t],
                    policy: GroupPolicy::Mixed,
                });
            }
        }
        cmds
    }
    fn on_assignment(&mut self, _now: SimTime, _fb: &AssignmentFeedback) {
        self.calls.hit("on_assignment");
    }
    fn on_group_complete(&mut self, now: SimTime, _fb: &GroupFeedback) {
        self.calls.hit("on_group_complete");
        self.completions.push(now);
    }
    fn on_rejected(&mut self, _now: SimTime, _site: SiteId, tasks: Vec<Task>) {
        self.calls.hit("on_rejected");
        self.pending.extend(tasks);
    }
    fn on_orphaned(&mut self, _now: SimTime, _site: SiteId, tasks: Vec<Task>) {
        self.calls.hit("on_orphaned");
        self.pending.extend(tasks);
    }
    fn on_group_aborted(&mut self, _now: SimTime, _group: GroupId) {
        self.calls.hit("on_group_aborted");
    }
    fn on_tick(&mut self, _now: SimTime, _view: &PlatformView<'_>) -> Vec<Command> {
        self.calls.hit("on_tick");
        Vec::new()
    }
    fn drain_sync(&mut self, out: &mut Vec<SyncRecord>) {
        self.calls.hit("drain_sync");
        for time in self.completions.drain(..) {
            out.push(SyncRecord {
                time,
                seq: self.produced,
                site: self.site,
                payload: [self.produced, 0, 0, 0],
            });
            self.produced += 1;
        }
    }
    fn apply_sync(&mut self, _rec: &SyncRecord) {
        self.calls.hit("apply_sync");
        self.applied += 1;
    }
    fn exploration(&self) -> Option<f64> {
        self.calls.hit("exploration");
        Some(self.applied as f64)
    }
    fn save_state(&mut self, w: &mut SnapWriter) {
        self.calls.hit("save_state");
        w.usize(self.pending.len());
        for t in &self.pending {
            t.snap_write(w);
        }
        w.u64(self.produced);
        w.u64(self.applied);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.calls.hit("load_state");
        let n = r.len_hint()?;
        self.pending = (0..n)
            .map(|_| Task::snap_read(r))
            .collect::<Result<_, _>>()?;
        self.produced = r.u64()?;
        self.applied = r.u64()?;
        Ok(())
    }
}

/// A loaded two-site platform with frequent node failures, so queues fill
/// (rejections) and failures drain them (orphans, aborted groups).
fn setup() -> (Platform, Vec<Task>, ExecConfig) {
    let rng = RngStream::root(23);
    let platform = Platform::generate(PlatformSpec::small(2, 2, 2), &rng.derive("p"));
    let mut wspec = WorkloadSpec::paper(240, 2, platform.reference_speed());
    wspec.mean_interarrival = 0.5;
    let tasks = Workload::generate(wspec, &rng.derive("w")).tasks;
    let cfg = ExecConfig {
        faults: FaultSpec {
            enabled: true,
            node_mtbf: 60.0,
            node_mttr: 10.0,
            max_retries: 5,
            horizon: 400.0,
            ..FaultSpec::default()
        },
        ..ExecConfig::default()
    };
    (platform, tasks, cfg)
}

/// Runs `path` once with plain policies and once with boxed ones: the
/// results and the per-method call counts must match, and every method in
/// `expected` must have been called.
fn assert_boxed_matches(
    path: &str,
    expected: &[&str],
    run: impl Fn(&Arc<Calls>, bool) -> RunResult,
) {
    let (plain_calls, boxed_calls) = (Arc::default(), Arc::default());
    let plain = run(&plain_calls, false);
    let boxed = run(&boxed_calls, true);
    if let Some(d) = replay_divergence(&plain, &boxed) {
        panic!("{path}: boxed run diverges from plain: {d}");
    }
    assert_eq!(plain.incomplete, 0, "{path}: tasks left behind");
    let (plain_calls, boxed_calls) = (plain_calls.counts(), boxed_calls.counts());
    for (i, m) in METHODS.iter().enumerate() {
        assert_eq!(
            plain_calls[i], boxed_calls[i],
            "{path}: `{m}` called {} times plain, {} boxed",
            plain_calls[i], boxed_calls[i]
        );
    }
    for m in expected {
        assert!(plain_calls[method(m)] > 0, "{path}: `{m}` never reached");
    }
}

/// What every path reaches: the whole engine-facing surface.
const ENGINE: [&str; 10] = [
    "name",
    "on_arrivals",
    "dispatch",
    "on_assignment",
    "on_group_complete",
    "on_rejected",
    "on_orphaned",
    "on_group_aborted",
    "on_tick",
    "exploration",
];

#[test]
fn batch_run_reaches_every_engine_callback_through_a_box() {
    assert_boxed_matches("run", &ENGINE, |calls, boxed| {
        let (platform, tasks, cfg) = setup();
        let engine = ExecEngine::new(cfg);
        let mut plain = Counting::new(calls, 0);
        if boxed {
            let mut sched: Box<dyn Scheduler + Send> = Box::new(plain);
            engine.run(platform, tasks, &mut sched)
        } else {
            engine.run(platform, tasks, &mut plain)
        }
    });
}

#[test]
fn checkpoint_and_resume_reach_the_state_codec_through_a_box() {
    let expected: Vec<&str> = ENGINE
        .iter()
        .copied()
        .chain(["save_state", "load_state"])
        .collect();
    assert_boxed_matches("checkpoint+resume", &expected, |calls, boxed| {
        let (platform, tasks, cfg) = setup();
        let dir = std::env::temp_dir().join(format!(
            "arl-boxed-scheduler-{boxed}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = CheckpointConfig::new(200, &dir);
        let engine = ExecEngine::new(cfg);
        let wrap = |s: Counting| -> Box<dyn Scheduler + Send> { Box::new(s) };
        let run = if boxed {
            engine.run_with_checkpoints(platform, tasks, &mut wrap(Counting::new(calls, 0)), &ck)
        } else {
            engine.run_with_checkpoints(platform, tasks, &mut Counting::new(calls, 0), &ck)
        };
        assert!(run.write_error.is_none(), "{:?}", run.write_error);
        let mut snaps: Vec<_> = std::fs::read_dir(&dir)
            .expect("checkpoint dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        snaps.sort();
        assert!(snaps.len() >= 2, "want a mid-run snapshot");
        let payload = snapshot::read_file(&snaps[snaps.len() / 2]).expect("snapshot reads");
        let resumed = if boxed {
            resume_from_payload(&payload, &mut wrap(Counting::new(calls, 0)))
        } else {
            resume_from_payload(&payload, &mut Counting::new(calls, 0))
        }
        .expect("resume succeeds");
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(d) = replay_divergence(&run.result, &resumed) {
            panic!("resume diverges from the uninterrupted run: {d}");
        }
        resumed
    });
}

#[test]
fn sharded_run_reaches_the_sync_hooks_through_a_box() {
    let expected: Vec<&str> = ENGINE
        .iter()
        .copied()
        .chain(["drain_sync", "apply_sync"])
        .collect();
    assert_boxed_matches("run_sharded", &expected, |calls, boxed| {
        let (platform, tasks, cfg) = setup();
        if boxed {
            let factory =
                |g: usize| -> Box<dyn Scheduler + Send> { Box::new(Counting::new(calls, g)) };
            run_sharded(platform, tasks, cfg, 2, &factory)
        } else {
            let factory = |g: usize| Counting::new(calls, g);
            run_sharded(platform, tasks, cfg, 2, &factory)
        }
    });
}
