//! The batch workloads: `paper-adaptive`, `paper-baselines` and
//! `scale-sharded`.
//!
//! A run repeats rounds on scenario seeds `seed`, `seed + 1`, ... until
//! `--seconds` have passed. A round takes one set-up sample, then runs one
//! plain pass of each of the workload's policies through the harness entry
//! point (`experiments::runner::run_scenario`, or `run_sharded` with exactly
//! [`SHARDS`] workers) between two runs of the reference kernel. Every pass
//! is audited. Every second round a decorated pass of the same seed per
//! policy times each scheduling decision for the `ack_ms_*` metrics; its
//! result must equal the plain pass's.
//!
//! The traced run pairs each plain pass with a decorated, profiled pass of
//! the same seed and splits the decorated pass's time into layers.

use crate::decor::{self, CallStats, Cb, Sink, SiteClock, Timed};
use crate::kernel;
use crate::report::{emit_ack, peak_rss_mb, Report, SimTotals, Windows};
use crate::stats;
use crate::{Opts, Workload};
use adaptive_rl::{AdaptiveRl, AdaptiveRlConfig};
use baselines::{GreedyEdf, OnlineRl, PredictionBased, QPlusLearning, RoundRobin};
use experiments::{runner, Scenario, SchedulerKind};
use platform::{ExecEngine, RunResult, Scheduler};
use std::hint::black_box;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;
use telemetry::{PhaseProfiler, ProfileReport};

/// Worker threads of `scale-sharded`: the vCPU count of the host the
/// benchmark was defined on, fixed rather than `auto_shards` so that the
/// workload is the same on every machine.
pub const SHARDS: usize = 2;

// The per-worker metrics are named `shard.busy_s.w0` and `.w1`.
const _: () = assert!(SHARDS == 2);

/// Tasks of one `scale-sharded` pass: short passes, so that a run has
/// dozens of rounds to take medians over.
const SCALE_TASKS: usize = 25_000;

/// A decorated pass times the scheduling decisions every this many rounds,
/// so that the samples spread over the whole run.
const LATENCY_EVERY: u64 = 2;

/// Latency windows a run takes at least per policy, unless it has run
/// [`MAX_ROUNDS`] rounds already.
const MIN_WINDOWS: usize = 3;
const MAX_ROUNDS: u64 = 100;

/// The `baselines.sched_s.*` metrics, in `SchedulerKind::all_six` order.
const BASELINE_METRICS: [&str; 5] = [
    "baselines.sched_s.online_rl",
    "baselines.sched_s.q_plus",
    "baselines.sched_s.prediction",
    "baselines.sched_s.round_robin",
    "baselines.sched_s.greedy_edf",
];

/// A batch workload's fixed shape.
struct Shape {
    /// The scenario of a round's seed.
    scenario: fn(u64) -> Scenario,
    /// The policies a round runs, back to back.
    kinds: Vec<SchedulerKind>,
    sharded: bool,
    /// Rounds the `sim_*` metrics cover: fixed, so that they repeat exactly
    /// for a seed however fast the host runs.
    sim_rounds: u64,
    /// Kernel repetitions per timing, each before or after a round's
    /// passes: a small share of the passes' time.
    kernel_reps: usize,
}

impl Shape {
    fn of(w: Workload) -> Shape {
        let adaptive = || vec![SchedulerKind::Adaptive(AdaptiveRlConfig::default())];
        match w {
            // The paper's Exp. 1 heavy point: 5 sites of 5-8 nodes x 4-6
            // processors, 3000 tasks at offered load 1.0.
            Workload::PaperAdaptive => Shape {
                scenario: |seed| Scenario::new(seed, 3000, 1.0),
                kinds: adaptive(),
                sharded: false,
                sim_rounds: 40,
                kernel_reps: 2,
            },
            // The five comparison policies at offered load 0.5, the middle
            // of the Fig. 7-8 sweep: no neural or Adaptive-RL code runs.
            Workload::PaperBaselines => Shape {
                scenario: |seed| Scenario::new(seed, 3000, 0.5),
                kinds: SchedulerKind::all_six()
                    .into_iter()
                    .filter(|k| !matches!(k, SchedulerKind::Adaptive(_)))
                    .collect(),
                sharded: false,
                sim_rounds: 40,
                kernel_reps: 1,
            },
            // The 100-site scaling platform (18,520 nodes, 101,840
            // processors) at offered load 0.9.
            Workload::ScaleSharded => Shape {
                scenario: |seed| Scenario::scaling(seed, SCALE_TASKS, 0.9),
                kinds: adaptive(),
                sharded: true,
                sim_rounds: 24,
                kernel_reps: 12,
            },
            Workload::ServeOpen => unreachable!("serve-open is not a batch workload"),
        }
    }

    /// One pass of `kind` on `sc` through the harness entry point.
    fn harness_pass(&self, sc: &Scenario, kind: &SchedulerKind) -> RunResult {
        if self.sharded {
            runner::run_sharded(sc, kind, SHARDS)
        } else {
            runner::run_scenario(sc, kind)
        }
    }
}

/// `cfg` with the seed mask `experiments::runner` and `arls serve` apply to
/// the adaptive policy on a scenario seeded `seed`.
pub fn seeded_adaptive(cfg: AdaptiveRlConfig, seed: u64) -> AdaptiveRlConfig {
    AdaptiveRlConfig {
        seed: seed ^ 0xA11,
        ..cfg
    }
}

/// Builds `kind`'s scheduler for a scenario seeded `seed` as
/// `experiments::runner` does, with the same per-policy seed masks, and
/// attaches `prof` to the adaptive policy.
pub fn construct(
    kind: &SchedulerKind,
    seed: u64,
    sites: usize,
    prof: Option<&Arc<PhaseProfiler>>,
) -> Box<dyn Scheduler + Send> {
    match kind.clone() {
        SchedulerKind::Adaptive(cfg) => {
            let s = AdaptiveRl::new(sites, seeded_adaptive(cfg, seed));
            match prof {
                Some(p) => Box::new(s.with_profiler(p.clone())),
                None => Box::new(s),
            }
        }
        SchedulerKind::Online(mut cfg) => {
            cfg.seed = seed ^ 0x011;
            Box::new(OnlineRl::new(sites, cfg))
        }
        SchedulerKind::QPlus(mut cfg) => {
            cfg.seed = seed ^ 0x901;
            Box::new(QPlusLearning::new(sites, cfg))
        }
        SchedulerKind::Prediction(mut cfg) => {
            cfg.seed = seed ^ 0x9E1;
            Box::new(PredictionBased::new(sites, cfg))
        }
        SchedulerKind::RoundRobin => Box::new(RoundRobin::new(sites)),
        SchedulerKind::GreedyEdf => Box::new(GreedyEdf::new(sites)),
    }
}

/// The sharded policy's configuration: only Adaptive RL runs sharded here.
fn shard_cfg(kind: &SchedulerKind, seed: u64) -> AdaptiveRlConfig {
    match kind {
        SchedulerKind::Adaptive(cfg) => seeded_adaptive(*cfg, seed),
        other => unreachable!("{} never runs sharded here", other.label()),
    }
}

/// One set-up sample: the wall time to build the platform, the task stream
/// and every scheduler of a round on `sc`. The products are dropped untimed.
fn setup_sample(shape: &Shape, sc: &Scenario) -> f64 {
    let t0 = Instant::now();
    let (platform, tasks) = sc.build();
    let sites = platform.num_sites();
    let scheds: Vec<Box<dyn Scheduler + Send>> = if shape.sharded {
        let cfg = shard_cfg(&shape.kinds[0], sc.seed);
        (0..sites)
            .map(|g| Box::new(AdaptiveRl::for_shard(g, sites, cfg)) as Box<dyn Scheduler + Send>)
            .collect()
    } else {
        shape
            .kinds
            .iter()
            .map(|k| construct(k, sc.seed, sites, None))
            .collect()
    };
    let secs = t0.elapsed().as_secs_f64();
    black_box((platform, tasks, scheds));
    secs
}

/// What a decorated pass measured.
struct Decorated {
    result: RunResult,
    stats: CallStats,
    prof: Option<ProfileReport>,
    platform_s: f64,
    tasks_s: f64,
    /// Scheduler construction; shards build theirs inside the run.
    sched_s: f64,
    run_s: f64,
    run_start: Instant,
    run_end: Instant,
}

/// One pass of `kind` on `sc` with every scheduler wrapped in [`Timed`], and
/// with the phase profiler attached when `profile` is set.
fn decorated_pass(shape: &Shape, sc: &Scenario, kind: &SchedulerKind, profile: bool) -> Decorated {
    let t0 = Instant::now();
    let platform = sc.build_platform();
    let t1 = Instant::now();
    let tasks = sc.build_workload(&platform);
    let t2 = Instant::now();
    let sites = platform.num_sites();
    let prof = profile.then(|| Arc::new(PhaseProfiler::new()));
    let sink = Sink::default();
    let (result, run_start, run_end);
    if shape.sharded {
        let cfg = shard_cfg(kind, sc.seed);
        let factory = |g: usize| {
            let built = Instant::now();
            let s = AdaptiveRl::for_shard(g, sites, cfg);
            let s = match &prof {
                Some(p) => s.with_profiler(p.clone()),
                None => s,
            };
            Timed::for_site(Box::new(s), g, built, sink.clone())
        };
        run_start = Instant::now();
        result = platform::run_sharded(platform, tasks, sc.exec, SHARDS, &factory);
        run_end = Instant::now();
    } else {
        let mut sched = Timed::new(construct(kind, sc.seed, sites, prof.as_ref()), sink.clone());
        let mut engine = ExecEngine::new(sc.exec);
        if let Some(p) = &prof {
            engine = engine.with_profiler(p.clone());
        }
        run_start = Instant::now();
        result = engine.run(platform, tasks, &mut sched);
        run_end = Instant::now();
    }
    Decorated {
        result,
        stats: decor::take(&sink),
        prof: prof.map(|p| p.report()),
        platform_s: (t1 - t0).as_secs_f64(),
        tasks_s: (t2 - t1).as_secs_f64(),
        sched_s: (run_start - t2).as_secs_f64(),
        run_s: (run_end - run_start).as_secs_f64(),
        run_start,
        run_end,
    }
}

/// Counts a pass's tasks as attempted, and its incomplete, failed and
/// audit-flagged ones as failed.
fn check_pass(rep: &mut Report, r: &RunResult, what: &str) {
    rep.attempted += r.num_tasks as u64;
    rep.failed += (r.incomplete + r.tasks_failed) as u64;
    rep.check(r.incomplete == 0 && r.tasks_failed == 0, || {
        format!(
            "{what}: {} incomplete and {} failed of {} tasks ({})",
            r.incomplete, r.tasks_failed, r.num_tasks, r.outcome
        )
    });
    let audit = platform::audit_result(r);
    if !audit.is_clean() {
        rep.failed += audit.violation_count();
        rep.problem(format!("{what}: {}", audit.render()));
    }
}

/// Checks that a decorated pass reproduced the plain pass exactly.
fn same_result(rep: &mut Report, plain: &RunResult, decorated: &RunResult, what: &str) {
    if let Some(d) = platform::replay_divergence(plain, decorated) {
        rep.problem(format!(
            "{what}: the decorated pass diverged from the plain one: {d}"
        ));
    }
}

/// Runs a batch workload.
pub fn run(w: Workload, opts: &Opts) -> Result<Report, String> {
    let shape = Shape::of(w);
    if opts.trace {
        return Ok(traced(&shape, opts));
    }
    let mut rep = Report::default();
    let start = Instant::now();
    // An untimed warm-up pass: lazy initialisation, page faults, caches.
    let warm = shape.harness_pass(&(shape.scenario)(opts.seed), &shape.kinds[0]);
    check_pass(&mut rep, &warm, "warm-up pass");
    drop(warm);
    let kernel = || kernel::time_kernel(w.threads(), shape.kernel_reps);
    let mut rounds = Vec::new();
    let mut setup_s = Vec::new();
    let mut latencies: Vec<Windows> = shape.kinds.iter().map(|_| Windows::default()).collect();
    let mut sim = SimTotals::default();
    let mut round = 0;
    while round < shape.sim_rounds
        || start.elapsed() < opts.seconds
        || (latencies.iter().any(|l| l.closed.len() < MIN_WINDOWS) && round < MAX_ROUNDS)
    {
        let sc = (shape.scenario)(opts.seed.wrapping_add(round));
        let setup = setup_sample(&shape, &sc);
        // Set-up runs on one thread, as does this kernel run.
        setup_s.push(kernel::at_nominal(setup, kernel::time_kernel(1, 1)));
        let before = kernel();
        let mut r = Round::default();
        let mut plain = Vec::with_capacity(shape.kinds.len());
        for kind in &shape.kinds {
            let t0 = Instant::now();
            let result = shape.harness_pass(&sc, kind);
            r.pass_s += t0.elapsed().as_secs_f64();
            r.tasks += result.num_tasks - result.incomplete;
            plain.push(result);
        }
        let after = kernel();
        r.kernel_s = (before + after) / 2.0;
        rounds.push(r);
        // A decision runs on one thread, so one-thread kernel runs around
        // the decorated passes scale its latency.
        let decided_k0 =
            (round % LATENCY_EVERY == 0).then(|| kernel::time_kernel(1, shape.kernel_reps));
        let mut decided = Vec::new();
        for (kind, r) in shape.kinds.iter().zip(&plain) {
            let what = format!("{} seed {}", kind.label(), sc.seed);
            check_pass(&mut rep, r, &what);
            if round < shape.sim_rounds {
                sim.add(r);
            }
            if decided_k0.is_some() {
                let d = decorated_pass(&shape, &sc, kind, false);
                same_result(&mut rep, r, &d.result, &what);
                decided.push(d.stats.decision_ns);
            }
        }
        if let Some(k0) = decided_k0 {
            let k = (k0 + kernel::time_kernel(1, shape.kernel_reps)) / 2.0;
            for (l, ns) in latencies.iter_mut().zip(decided) {
                l.add(ns.into_iter().map(|x| kernel::at_nominal(x * 1e-6, k)));
            }
        }
        round += 1;
    }
    let tasks: f64 = rounds.iter().map(|r| r.tasks as f64).sum();
    let pass_s: f64 = rounds.iter().map(|r| r.pass_s).sum();
    let nominal_s: f64 = rounds
        .iter()
        .map(|r| kernel::at_nominal(r.pass_s, r.kernel_s))
        .sum();
    rep.metric("tasks_per_s", tasks / nominal_s);
    let refs: Vec<f64> = rounds
        .iter()
        .map(|r| r.tasks as f64 / r.pass_s * r.kernel_s)
        .collect();
    rep.metric(
        "tasks_per_ref",
        stats::median(&refs).expect("a run has rounds"),
    );
    rep.metric(
        "setup_s",
        stats::median(&setup_s).expect("every round takes a set-up sample"),
    );
    rep.metric("peak_rss_mb", peak_rss_mb(None)?);
    emit_ack(&mut rep, &latencies);
    sim.emit(&mut rep);
    rep.note(format!(
        "{round} rounds: {tasks} tasks in {pass_s:.4} s of passes ({:.1} tasks/s at the \
         host's speed, {nominal_s:.4} s at nominal speed); {} set-up samples",
        tasks / pass_s,
        setup_s.len()
    ));
    Ok(rep)
}

/// One round of a timed run: its plain passes, and the reference kernel
/// timed right before and right after them.
#[derive(Default)]
struct Round {
    tasks: usize,
    pass_s: f64,
    /// The mean of the two kernel timings, seconds per run.
    kernel_s: f64,
}

/// The traced run: every plain pass paired with a decorated, profiled pass
/// of the same seed, whose time is split into layers.
fn traced(shape: &Shape, opts: &Opts) -> Report {
    let mut rep = Report::default();
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < opts.seconds {
        let sc = (shape.scenario)(opts.seed.wrapping_add(rounds));
        for kind in &shape.kinds {
            let t0 = Instant::now();
            let plain = shape.harness_pass(&sc, kind);
            layers.plain_s += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let d = decorated_pass(shape, &sc, kind, true);
            layers.traced_s += t1.elapsed().as_secs_f64();
            let what = format!("{} seed {}", kind.label(), sc.seed);
            check_pass(&mut rep, &plain, &what);
            same_result(&mut rep, &plain, &d.result, &what);
            layers.add(&mut rep, kind, d, shape.sharded);
        }
        rounds += 1;
    }
    layers.emit(&mut rep, rounds as f64);
    rep.note(format!(
        "{rounds} traced rounds; times and counts are per round"
    ));
    rep
}

/// Index of a baseline policy in [`BASELINE_METRICS`]; `None` for Adaptive RL.
fn baseline_index(kind: &SchedulerKind) -> Option<usize> {
    match kind {
        SchedulerKind::Adaptive(_) => None,
        SchedulerKind::Online(_) => Some(0),
        SchedulerKind::QPlus(_) => Some(1),
        SchedulerKind::Prediction(_) => Some(2),
        SchedulerKind::RoundRobin => Some(3),
        SchedulerKind::GreedyEdf => Some(4),
    }
}

/// Per-layer totals over a traced run's decorated passes.
#[derive(Default)]
struct Layers {
    platform_s: f64,
    tasks_s: f64,
    sched_s: f64,
    events: f64,
    pop_s: f64,
    max_queue: f64,
    /// Thread-seconds in the engine runs: the run's wall time on the
    /// sequential engine, the workers' busy time less scheduler
    /// construction on the sharded one.
    run_s: f64,
    /// Seconds inside scheduler callbacks.
    callbacks_s: f64,
    rejections: f64,
    split_starts: f64,
    core: CoreAcc,
    baselines: [f64; 5],
    epochs: f64,
    sync_records: f64,
    sync_applied: f64,
    busy: [f64; SHARDS],
    wait_s: f64,
    decompose_s: f64,
    finish_s: f64,
    shard_wall_s: f64,
    plain_s: f64,
    traced_s: f64,
}

impl Layers {
    fn add(&mut self, rep: &mut Report, kind: &SchedulerKind, d: Decorated, sharded: bool) {
        let r = &d.result;
        self.platform_s += d.platform_s;
        self.tasks_s += d.tasks_s;
        self.events += r.events_processed as f64;
        self.max_queue = self.max_queue.max(r.max_queue_occupancy as f64);
        self.rejections += r.rejections as f64;
        self.split_starts += r.split_starts as f64;
        let callbacks_s = d.stats.total_ns() as f64 / 1e9;
        self.callbacks_s += callbacks_s;
        let prof = d.prof.unwrap_or_default();
        self.pop_s += phase(&prof, "event_pop").0;
        if sharded {
            let init_s = d.stats.init_ns as f64 / 1e9;
            self.sched_s += init_s;
            match shard_times(&d.stats.sites, d.run_start, d.run_end) {
                Ok(t) => {
                    self.epochs += t.epochs as f64;
                    for (b, x) in self.busy.iter_mut().zip(t.busy) {
                        *b += x;
                    }
                    self.run_s += t.busy.iter().sum::<f64>() - init_s;
                    self.wait_s += t.wait_s;
                    self.decompose_s += t.decompose_s;
                    self.finish_s += t.finish_s;
                }
                Err(e) => rep.problem(format!("shard timeline: {e}")),
            }
            self.shard_wall_s += d.run_s;
            self.sync_records += d.stats.sync_records as f64;
            self.sync_applied += d.stats.calls(Cb::ApplySync) as f64;
        } else {
            self.sched_s += d.sched_s;
            self.run_s += d.run_s;
        }
        match baseline_index(kind) {
            Some(i) => self.baselines[i] += callbacks_s,
            None => self.core.add(d.stats, &prof),
        }
    }

    fn emit(&self, rep: &mut Report, rounds: f64) {
        let per = |x: f64| x / rounds;
        rep.metric("setup.platform_s", per(self.platform_s));
        rep.metric("setup.tasks_s", per(self.tasks_s));
        rep.metric("setup.sched_init_s", per(self.sched_s));
        rep.metric("simcore.events", per(self.events));
        rep.metric("simcore.pop_s", per(self.pop_s));
        rep.metric("simcore.max_queue", self.max_queue);
        let self_s = self.run_s - self.callbacks_s;
        rep.metric("engine.self_s", per(self_s));
        rep.metric("engine.ns_per_event", self_s / self.events * 1e9);
        rep.metric("engine.rejections", per(self.rejections));
        rep.metric("engine.split_starts", per(self.split_starts));
        self.core.emit(rep, rounds);
        for (name, s) in BASELINE_METRICS.into_iter().zip(self.baselines) {
            rep.metric(name, per(s));
        }
        if self.epochs > 0.0 {
            rep.metric("shard.epochs", per(self.epochs));
            rep.metric("shard.sync_records", per(self.sync_records));
            rep.metric("shard.sync_applied", per(self.sync_applied));
            rep.metric("shard.busy_s.w0", per(self.busy[0]));
            rep.metric("shard.busy_s.w1", per(self.busy[1]));
            rep.metric("shard.barrier_wait_s", per(self.wait_s));
            rep.metric(
                "shard.efficiency",
                self.busy.iter().sum::<f64>() / (SHARDS as f64 * self.shard_wall_s),
            );
            rep.metric("shard.decompose_s", per(self.decompose_s));
            rep.metric("shard.finish_s", per(self.finish_s));
        }
        rep.metric(
            "trace.overhead_pct",
            (self.traced_s / self.plain_s - 1.0) * 100.0,
        );
    }
}

/// Adaptive-RL totals over traced passes: the decorator's callback
/// statistics and the profiler's phases inside the policy.
#[derive(Default)]
pub struct CoreAcc {
    stats: CallStats,
    obs_s: f64,
    score_s: f64,
    score_calls: f64,
    train_s: f64,
    train_calls: f64,
}

impl CoreAcc {
    pub fn add(&mut self, stats: CallStats, prof: &ProfileReport) {
        self.stats.merge(stats);
        self.obs_s += phase(prof, "obs_build").0;
        let (s, c) = phase(prof, "score");
        self.score_s += s;
        self.score_calls += c;
        let (s, c) = phase(prof, "train");
        self.train_s += s;
        self.train_calls += c;
    }

    /// The `core.*` and `neural.*` metrics, per round of `rounds`.
    pub fn emit(&self, rep: &mut Report, rounds: f64) {
        let s = &self.stats;
        let per = |x: f64| x / rounds;
        let dispatch_s = s.ns(Cb::Dispatch) as f64 / 1e9;
        let calls = s.calls(Cb::Dispatch) as f64;
        rep.metric("core.dispatch_s", per(dispatch_s));
        rep.metric("core.dispatch_calls", per(calls));
        if calls > 0.0 {
            rep.metric("core.dispatch_yield", s.decision_ns.len() as f64 / calls);
            rep.metric("core.pending_mean", s.backlog_sum as f64 / calls);
            let lat = stats::sorted(s.dispatch_ns.clone());
            if let (Some(p50), Some(p99)) =
                (stats::nearest_rank(&lat, 50.0), stats::tail(&lat, 99.0))
            {
                rep.metric("core.dispatch_us_p50", p50 / 1e3);
                rep.metric("core.dispatch_us_p99", p99 / 1e3);
            }
        }
        rep.metric("core.obs_s", per(self.obs_s));
        rep.metric(
            "core.group_select_s",
            per(dispatch_s - self.obs_s - self.score_s),
        );
        let feedback_ns = s.ns(Cb::Assignment) + s.ns(Cb::GroupComplete);
        rep.metric("core.feedback_s", per(feedback_ns as f64 / 1e9));
        rep.metric("neural.score_s", per(self.score_s));
        rep.metric("neural.score_calls", per(self.score_calls));
        rep.metric("neural.train_s", per(self.train_s));
        rep.metric("neural.train_calls", per(self.train_calls));
    }
}

/// Seconds and calls the profiler recorded for phase `name`.
fn phase(prof: &ProfileReport, name: &str) -> (f64, f64) {
    prof.phases
        .iter()
        .find(|p| p.phase == name)
        .map_or((0.0, 0.0), |p| (p.total_s, p.calls as f64))
}

/// One sharded pass's epoch-barrier timeline.
struct ShardTimes {
    epochs: usize,
    /// Per worker, in order of the lowest site each drives: from its start,
    /// or from the previous barrier-A release, to its next barrier-A
    /// arrival, summed over epochs. It includes the coordinator's merge
    /// between barriers A and B, which cannot be told apart from outside.
    busy: [f64; SHARDS],
    /// Barrier-A release minus arrival, summed over epochs and workers.
    wait_s: f64,
    /// From the `run_sharded` call until the first shard scheduler is built.
    decompose_s: f64,
    /// From the last barrier-A release until `run_sharded` returns.
    finish_s: f64,
}

/// Rebuilds a sharded pass's barrier timeline from each shard's
/// `drain_sync` instants.
fn shard_times(
    sites: &[SiteClock],
    called: Instant,
    returned: Instant,
) -> Result<ShardTimes, String> {
    let mut workers: Vec<(usize, ThreadId)> = Vec::new();
    for s in sites {
        match workers.iter_mut().find(|w| w.1 == s.thread) {
            Some(w) => w.0 = w.0.min(s.site),
            None => workers.push((s.site, s.thread)),
        }
    }
    if workers.len() != SHARDS {
        return Err(format!(
            "{} worker threads drove the shards, not {SHARDS}",
            workers.len()
        ));
    }
    workers.sort_by_key(|w| w.0);
    let epochs = sites.first().map_or(0, |s| s.drains.len());
    if epochs == 0 || sites.iter().any(|s| s.drains.len() != epochs) {
        return Err("the shards drained for different numbers of epochs".into());
    }
    let mut start = [returned; SHARDS];
    let mut arrival = vec![[called; SHARDS]; epochs];
    for s in sites {
        let w = workers
            .iter()
            .position(|w| w.1 == s.thread)
            .expect("every thread was collected above");
        start[w] = start[w].min(s.built);
        for (k, &d) in s.drains.iter().enumerate() {
            arrival[k][w] = arrival[k][w].max(d);
        }
    }
    let secs = |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64();
    let mut t = ShardTimes {
        epochs,
        busy: [0.0; SHARDS],
        wait_s: 0.0,
        decompose_s: secs(start.iter().copied().min().unwrap_or(called), called),
        finish_s: 0.0,
    };
    let mut release: Option<Instant> = None;
    for at in &arrival {
        let last = at.iter().copied().max().unwrap_or(called);
        for w in 0..SHARDS {
            t.busy[w] += secs(at[w], release.unwrap_or(start[w]));
            t.wait_s += secs(last, at[w]);
        }
        release = Some(last);
    }
    t.finish_s = secs(returned, release.unwrap_or(called));
    Ok(t)
}
