//! Scheduler construction and (replicated) scenario execution.

use crate::config::Scenario;
use adaptive_rl::{AdaptiveRl, AdaptiveRlConfig};
use baselines::{
    GreedyEdf, OnlineRl, OnlineRlConfig, PredictionBased, PredictionConfig, QPlusConfig,
    QPlusLearning, RoundRobin,
};
use platform::{
    ExecConfig, ExecEngine, LiveMetrics, Platform, RunResult, SamplerConfig, Scheduler,
};
use std::sync::Arc;
use telemetry::{MetricsRegistry, PhaseProfiler, Recorder};
use workload::Task;

/// A recorder shared across runs (and replication threads).
pub type SharedRecorder = Arc<dyn Recorder>;

/// Observability attachments for one run — telemetry recorder, live
/// metrics registry, time-series sampler cadence and phase profiler.
/// Everything here is strictly observing: a run with a `Monitor`
/// attached is bit-identical (under [`platform::replay_divergence`]) to
/// the same run without one.
#[derive(Default, Clone)]
pub struct Monitor {
    /// Telemetry recorder for the engine's trace and, for the Adaptive-RL
    /// policy, its decision and learning-cycle records. The caller owns
    /// sink finalisation (`rec.finish()`).
    pub recorder: Option<SharedRecorder>,
    /// Registry the run's `arls_*` metric family is registered into
    /// (shared with a [`telemetry::MetricsServer`] for live scraping).
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Sim-time series sampling cadence; lands in
    /// [`RunResult::timeseries`].
    pub sampler: Option<SamplerConfig>,
    /// Phase profiler for `--profile` runs.
    pub profiler: Option<Arc<PhaseProfiler>>,
}

impl Monitor {
    /// Whether any attachment is configured.
    pub fn is_active(&self) -> bool {
        self.recorder.is_some()
            || self.registry.is_some()
            || self.sampler.is_some()
            || self.profiler.is_some()
    }

    /// Attaches everything configured here to `engine`, registering the
    /// live metric family for a platform of `sites` sites.
    fn attach(&self, mut engine: ExecEngine, sites: usize) -> ExecEngine {
        if let Some(rec) = &self.recorder {
            engine = engine.with_recorder(rec.clone());
        }
        if let Some(reg) = &self.registry {
            engine = engine.with_monitor(LiveMetrics::register(reg, sites));
        }
        if let Some(s) = self.sampler {
            engine = engine.with_sampler(s);
        }
        if let Some(p) = &self.profiler {
            engine = engine.with_profiler(p.clone());
        }
        engine
    }
}

/// Which policy to run. Carries the policy's configuration so ablations
/// and sweeps are expressed as plain values.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// The paper's contribution.
    Adaptive(AdaptiveRlConfig),
    /// Tesauro-style power controller.
    Online(OnlineRlConfig),
    /// Tan-style DPM learner.
    QPlus(QPlusConfig),
    /// Berral-style consolidation.
    Prediction(PredictionConfig),
    /// Non-learning reference.
    RoundRobin,
    /// Non-learning reference.
    GreedyEdf,
}

impl SchedulerKind {
    /// The four policies of Experiment 1 with their default settings, in
    /// the paper's legend order.
    pub fn paper_four() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Adaptive(AdaptiveRlConfig::default()),
            SchedulerKind::Online(OnlineRlConfig::default()),
            SchedulerKind::QPlus(QPlusConfig::default()),
            SchedulerKind::Prediction(PredictionConfig::default()),
        ]
    }

    /// Every policy with default settings — the paper four plus the two
    /// non-learning references. The golden determinism tests cover this
    /// full set, and the repository benchmark's `paper-baselines`
    /// workload runs all but Adaptive RL.
    pub fn all_six() -> Vec<SchedulerKind> {
        let mut kinds = Self::paper_four();
        kinds.push(SchedulerKind::RoundRobin);
        kinds.push(SchedulerKind::GreedyEdf);
        kinds
    }

    /// Display name matching the scheduler's `name()`.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Adaptive(_) => "Adaptive RL",
            SchedulerKind::Online(_) => "Online RL",
            SchedulerKind::QPlus(_) => "Q+ learning",
            SchedulerKind::Prediction(_) => "Prediction-based learning",
            SchedulerKind::RoundRobin => "Round-robin",
            SchedulerKind::GreedyEdf => "Greedy EDF",
        }
    }

    /// Re-seeds the policy's own RNG from a run seed so replications
    /// differ, deterministically.
    pub fn with_seed(&self, seed: u64) -> SchedulerKind {
        let mut kind = self.clone();
        match &mut kind {
            SchedulerKind::Adaptive(c) => c.seed = seed ^ 0xA11,
            SchedulerKind::Online(c) => c.seed = seed ^ 0x011,
            SchedulerKind::QPlus(c) => c.seed = seed ^ 0x901,
            SchedulerKind::Prediction(c) => c.seed = seed ^ 0x9E1,
            SchedulerKind::RoundRobin | SchedulerKind::GreedyEdf => {}
        }
        kind
    }

    /// Builds the policy for a platform of `sites` sites, exactly as
    /// configured (no seed mask). Adaptive RL gets `monitor`'s recorder
    /// and profiler; the other attachments belong to the engine.
    pub fn build(&self, sites: usize, monitor: &Monitor) -> Box<dyn Scheduler + Send> {
        match *self {
            SchedulerKind::Adaptive(cfg) => {
                let mut s = AdaptiveRl::new(sites, cfg);
                if let Some(r) = &monitor.recorder {
                    s = s.with_recorder(r.clone());
                }
                if let Some(p) = &monitor.profiler {
                    s = s.with_profiler(p.clone());
                }
                Box::new(s)
            }
            SchedulerKind::Online(cfg) => Box::new(OnlineRl::new(sites, cfg)),
            SchedulerKind::QPlus(cfg) => Box::new(QPlusLearning::new(sites, cfg)),
            SchedulerKind::Prediction(cfg) => Box::new(PredictionBased::new(sites, cfg)),
            SchedulerKind::RoundRobin => Box::new(RoundRobin::new(sites)),
            SchedulerKind::GreedyEdf => Box::new(GreedyEdf::new(sites)),
        }
    }

    /// Builds the single-site policy owning global site `g` of a sharded
    /// run over `sites` sites. The Adaptive-RL shard draws the exact
    /// per-agent stream the sequential engine would
    /// ([`AdaptiveRl::for_shard`]); each seeded baseline gets an
    /// independent per-site seed derived from its (already masked) one.
    pub fn build_shard(&self, g: usize, sites: usize) -> Box<dyn Scheduler + Send> {
        let mut kind = self.clone();
        match &mut kind {
            SchedulerKind::Adaptive(cfg) => return Box::new(AdaptiveRl::for_shard(g, sites, *cfg)),
            SchedulerKind::Online(c) => c.seed = shard_site_seed(c.seed, g),
            SchedulerKind::QPlus(c) => c.seed = shard_site_seed(c.seed, g),
            SchedulerKind::Prediction(c) => c.seed = shard_site_seed(c.seed, g),
            SchedulerKind::RoundRobin | SchedulerKind::GreedyEdf => {}
        }
        kind.build(1, &Monitor::default())
    }
}

/// Runs one scenario under one policy.
pub fn run_scenario(scenario: &Scenario, kind: &SchedulerKind) -> RunResult {
    run_scenario_monitored(scenario, kind, &Monitor::default())
}

/// [`run_scenario`] with observability attachments: a telemetry
/// recorder, live metrics registered into `monitor.registry`, the
/// time-series sampler, and the phase profiler.
pub fn run_scenario_monitored(
    scenario: &Scenario,
    kind: &SchedulerKind,
    monitor: &Monitor,
) -> RunResult {
    let (platform, tasks) = scenario.build();
    let seeded = kind.with_seed(scenario.seed);
    run_tasks(platform, tasks, scenario.exec, &seeded, monitor)
}

/// Runs `kind` exactly as configured (no seed mask) over an explicit
/// platform and task stream — a replayed trace, for instance — with the
/// `monitor` attachments.
pub fn run_tasks(
    platform: Platform,
    tasks: Vec<Task>,
    exec: ExecConfig,
    kind: &SchedulerKind,
    monitor: &Monitor,
) -> RunResult {
    let sites = platform.num_sites();
    let engine = monitor.attach(ExecEngine::new(exec), sites);
    let mut sched = kind.build(sites, monitor);
    engine.run(platform, tasks, &mut *sched)
}

/// Runs one scenario under one policy on the sharded parallel engine
/// ([`platform::run_sharded`]): every resource site becomes an
/// independent shard (own event queue, own scheduler instance with a
/// deterministically derived RNG stream), advanced by `shards` worker
/// threads between deterministic epoch barriers. Results are
/// bit-identical for every `shards` value; pass
/// [`platform::auto_shards`] of the site count for `--shards auto`.
///
/// Shard scheduler construction mirrors [`run_scenario`]'s seeding: the
/// scenario seed is masked per policy by `with_seed`, then
/// [`SchedulerKind::build_shard`] derives each site's policy from it.
pub fn run_sharded(scenario: &Scenario, kind: &SchedulerKind, shards: usize) -> RunResult {
    let (platform, tasks) = scenario.build();
    let sites = platform.num_sites();
    let seeded = kind.with_seed(scenario.seed);
    let factory = |g: usize| seeded.build_shard(g, sites);
    platform::run_sharded(platform, tasks, scenario.exec, shards, &factory)
}

/// Per-site seed for a baseline shard: an independent derived stream per
/// `(policy-masked seed, global site)` pair.
fn shard_site_seed(seed: u64, g: usize) -> u64 {
    simcore::rng::RngStream::root(seed)
        .derive_indexed("shard-site", g as u64)
        .seed()
}

/// Runs `reps` replications (seeds `base_seed + i`), in parallel across
/// available cores via scoped threads. The fan-out is capped at
/// the machine's available parallelism — replication indices round-robin
/// across worker threads (worker `c` runs `c, c + workers, …`) so
/// heterogeneous-cost replications balance instead of one worker
/// inheriting a contiguous block of slow seeds. Results are returned in
/// replication order, so aggregation stays deterministic regardless of
/// scheduling.
pub fn run_replicated(scenario: &Scenario, kind: &SchedulerKind, reps: u32) -> Vec<RunResult> {
    assert!(reps > 0, "need at least one replication");
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(reps as usize);
    let mut slots: Vec<Option<RunResult>> = (0..reps).map(|_| None).collect();
    // Round-robin replication indices across workers (worker `c` owns
    // i ≡ c mod workers) so a run of expensive seeds spreads out instead
    // of landing on one worker as a contiguous chunk.
    let mut buckets: Vec<Vec<(usize, &mut Option<RunResult>)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (i, slot) in slots.iter_mut().enumerate() {
        buckets[i % workers].push((i, slot));
    }
    std::thread::scope(|scope| {
        for bucket in buckets {
            let kind = kind.clone();
            scope.spawn(move || {
                for (i, slot) in bucket {
                    let mut sc = scenario.clone();
                    sc.seed = scenario.seed.wrapping_add(i as u64);
                    *slot = Some(run_scenario(&sc, &kind));
                }
            });
        }
    });
    slots.into_iter().map(|s| s.expect("filled")).collect()
}

/// Mean of `metric` over replications of a scenario.
pub fn replicated_mean(
    scenario: &Scenario,
    kind: &SchedulerKind,
    reps: u32,
    metric: impl Fn(&RunResult) -> f64,
) -> f64 {
    let runs = run_replicated(scenario, kind, reps);
    runs.iter().map(&metric).sum::<f64>() / runs.len() as f64
}

/// Full statistics (mean, spread, extremes) of `metric` across
/// replications — for reporting replication variability alongside figure
/// points.
pub fn replicated_stats(
    scenario: &Scenario,
    kind: &SchedulerKind,
    reps: u32,
    metric: impl Fn(&RunResult) -> f64,
) -> simcore::RunningStats {
    let runs = run_replicated(scenario, kind, reps);
    let mut stats = simcore::RunningStats::new();
    for r in &runs {
        stats.push(metric(r));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_completes_a_small_scenario() {
        let sc = Scenario::small(3, 80, 0.5);
        let mut kinds = SchedulerKind::paper_four();
        kinds.push(SchedulerKind::RoundRobin);
        kinds.push(SchedulerKind::GreedyEdf);
        for kind in kinds {
            let r = run_scenario(&sc, &kind);
            assert_eq!(
                r.incomplete,
                0,
                "{} left tasks behind ({})",
                kind.label(),
                r.outcome
            );
        }
    }

    #[test]
    fn replications_stay_in_replication_order() {
        // Slot `i` must hold the run for seed `base + i` no matter how
        // the round-robin workers interleave.
        let sc = Scenario::small(7, 40, 0.5);
        let kind = SchedulerKind::QPlus(QPlusConfig::default());
        let runs = run_replicated(&sc, &kind, 5);
        for (i, r) in runs.iter().enumerate() {
            let mut sc_i = sc.clone();
            sc_i.seed = sc.seed.wrapping_add(i as u64);
            let solo = run_scenario(&sc_i, &kind);
            if let Some(d) = platform::replay_divergence(r, &solo) {
                panic!("replication {i} out of order: {d}");
            }
        }
    }

    #[test]
    fn sharded_engine_is_thread_count_invariant() {
        let sc = Scenario::small(11, 60, 0.5);
        for kind in [
            SchedulerKind::Adaptive(AdaptiveRlConfig::default()),
            SchedulerKind::RoundRobin,
        ] {
            let one = run_sharded(&sc, &kind, 1);
            let many = run_sharded(&sc, &kind, 3);
            if let Some(d) = platform::replay_divergence(&one, &many) {
                panic!("{} diverges across shard counts: {d}", kind.label());
            }
            assert_eq!(one.incomplete, 0, "{} left tasks behind", kind.label());
        }
    }

    #[test]
    fn replications_differ_but_are_deterministic() {
        let sc = Scenario::small(5, 60, 0.5);
        let kind = SchedulerKind::Adaptive(AdaptiveRlConfig::default());
        let a = run_replicated(&sc, &kind, 2);
        let b = run_replicated(&sc, &kind, 2);
        assert_eq!(a[0].makespan, b[0].makespan);
        assert_eq!(a[1].makespan, b[1].makespan);
        assert_ne!(
            a[0].makespan, a[1].makespan,
            "reps must use different seeds"
        );
    }

    #[test]
    fn replicated_stats_agree_with_mean() {
        let sc = Scenario::small(5, 60, 0.5);
        let kind = SchedulerKind::GreedyEdf;
        let stats = replicated_stats(&sc, &kind, 3, |r| r.avg_response_time());
        let mean = replicated_mean(&sc, &kind, 3, |r| r.avg_response_time());
        assert_eq!(stats.count(), 3);
        assert!((stats.mean() - mean).abs() < 1e-12);
        assert!(stats.min().unwrap() <= stats.max().unwrap());
    }

    #[test]
    fn replicated_mean_averages() {
        let sc = Scenario::small(5, 60, 0.5);
        let kind = SchedulerKind::RoundRobin;
        let runs = run_replicated(&sc, &kind, 3);
        let expect: f64 = runs.iter().map(|r| r.avg_response_time()).sum::<f64>() / 3.0;
        let got = replicated_mean(&sc, &kind, 3, |r| r.avg_response_time());
        assert!((got - expect).abs() < 1e-12);
    }
}
