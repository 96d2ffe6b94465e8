//! Scenario configuration and load calibration.

use platform::{ExecConfig, Platform, PlatformSpec};
use simcore::rng::RngStream;
use workload::{PriorityMix, Task, Workload, WorkloadSpec};

/// Mean task size of the paper's 600–7200 MI uniform distribution.
pub const MEAN_TASK_SIZE_MI: f64 = 3900.0;

/// The nominal reference speed (the slowest resource class of §V.A) used
/// for deadline generation. Held fixed across heterogeneity sweeps so the
/// *workload* stays identical while the *platform* varies.
pub const NOMINAL_REF_SPEED: f64 = 500.0;

/// A fully specified simulation scenario.
///
/// ```
/// use experiments::{runner, Scenario, SchedulerKind};
///
/// let scenario = Scenario::small(1, 60, 0.5);
/// let result = runner::run_scenario(&scenario, &SchedulerKind::GreedyEdf);
/// assert_eq!(result.incomplete, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Master seed (platform, workload and scheduler streams derive from
    /// it).
    pub seed: u64,
    /// Platform description.
    pub platform: PlatformSpec,
    /// Number of tasks.
    pub num_tasks: usize,
    /// Offered load: arriving work rate as a fraction of the platform's
    /// nominal capacity. `1.0` saturates the platform; the paper's
    /// *heavily loaded* state maps to ≈1 and *lightly loaded* to ≈0.2.
    pub offered_load: f64,
    /// Priority mix of the workload.
    pub priority_mix: PriorityMix,
    /// Execution-engine settings (split switch, tick interval).
    pub exec: ExecConfig,
    /// Reference speed for deadline generation; `None` uses the generated
    /// platform's slowest processor (§III.A literally), `Some` pins it
    /// (used in the heterogeneity sweep so deadlines stay comparable).
    pub deadline_ref_speed: Option<f64>,
}

impl Scenario {
    /// The experiment platform: five resource sites of 5–8 nodes × 4–6
    /// processors (≈160 processors) — the paper's §V.A shape scaled to the
    /// size at which its load regimes are realisable (see module docs).
    pub fn experiment_platform() -> PlatformSpec {
        PlatformSpec {
            num_sites: 5,
            nodes_per_site: (5, 8),
            procs_per_node: (4, 6),
            ..PlatformSpec::paper(5)
        }
    }

    /// A baseline scenario with the given task count and offered load.
    pub fn new(seed: u64, num_tasks: usize, offered_load: f64) -> Self {
        Scenario {
            seed,
            platform: Self::experiment_platform(),
            num_tasks,
            offered_load,
            priority_mix: PriorityMix::uniform(),
            exec: ExecConfig {
                tick_interval: 1.0,
                ..ExecConfig::default()
            },
            deadline_ref_speed: None,
        }
    }

    /// A small, fast scenario for unit tests.
    pub fn small(seed: u64, num_tasks: usize, offered_load: f64) -> Self {
        Scenario {
            platform: PlatformSpec::small(2, 3, 4),
            ..Scenario::new(seed, num_tasks, offered_load)
        }
    }

    /// The datacenter-scale platform of the sharded-engine scaling study:
    /// 100 resource sites of 180–190 nodes × 5–6 processors, ≈100 k
    /// processors in total. One site is one shard, so this is the shape
    /// the `--shards` flag and the repository benchmark's `scale-sharded`
    /// workload exercise.
    pub fn scaling_platform() -> PlatformSpec {
        PlatformSpec {
            num_sites: 100,
            nodes_per_site: (180, 190),
            procs_per_node: (5, 6),
            ..PlatformSpec::paper(100)
        }
    }

    /// The 100-site scaling scenario: [`Self::scaling_platform`] under
    /// the given offered load. Pass `num_tasks ≥ 1_000_000` for the
    /// roadmap's headline configuration.
    pub fn scaling(seed: u64, num_tasks: usize, offered_load: f64) -> Self {
        Scenario {
            platform: Self::scaling_platform(),
            ..Scenario::new(seed, num_tasks, offered_load)
        }
    }

    /// Generates the platform.
    pub fn build_platform(&self) -> Platform {
        Platform::generate(
            self.platform.clone(),
            &RngStream::root(self.seed).derive("platform"),
        )
    }

    /// Mean inter-arrival time that realises `offered_load` on `platform`:
    /// arriving work per time unit = `offered_load × total_mips`, so
    /// `iat = mean_size / (offered_load × total_mips)`.
    pub fn interarrival_for(&self, platform: &Platform) -> f64 {
        assert!(self.offered_load > 0.0, "offered load must be positive");
        MEAN_TASK_SIZE_MI / (self.offered_load * platform.total_nominal_mips())
    }

    /// The paper's §V.A parameters taken *literally*: full-size platform
    /// and a Poisson stream with mean inter-arrival 5 time units.
    ///
    /// Exists to make the calibration argument executable: on this
    /// scenario the offered load is a fraction of a percent of capacity,
    /// so the 60–90 % utilisation of Figs. 9–10 is unreachable
    /// (demonstrated by `tests/paper_literal.rs`).
    pub fn paper_literal(seed: u64, num_tasks: usize) -> Self {
        Scenario {
            seed,
            platform: platform::PlatformSpec::paper(7),
            num_tasks,
            // Placeholder; `build_workload_literal` pins iat = 5 directly.
            offered_load: 1.0,
            priority_mix: PriorityMix::uniform(),
            exec: ExecConfig {
                tick_interval: 5.0,
                ..ExecConfig::default()
            },
            deadline_ref_speed: None,
        }
    }

    /// Workload with the literal §V.A arrival process (mean iat 5).
    pub fn build_workload_literal(&self, platform: &Platform) -> Vec<Task> {
        let spec = WorkloadSpec {
            num_tasks: self.num_tasks,
            mean_interarrival: 5.0,
            size_min_mi: 600.0,
            size_max_mi: 7200.0,
            priority_mix: self.priority_mix,
            num_sites: self.platform.num_sites,
            reference_speed_mips: platform.reference_speed(),
        };
        Workload::generate(spec, &RngStream::root(self.seed).derive("workload")).tasks
    }

    /// Generates the workload matched to `platform`.
    pub fn build_workload(&self, platform: &Platform) -> Vec<Task> {
        let ref_speed = self
            .deadline_ref_speed
            .unwrap_or_else(|| platform.reference_speed());
        let spec = WorkloadSpec {
            num_tasks: self.num_tasks,
            mean_interarrival: self.interarrival_for(platform),
            size_min_mi: 600.0,
            size_max_mi: 7200.0,
            priority_mix: self.priority_mix,
            num_sites: self.platform.num_sites,
            reference_speed_mips: ref_speed,
        };
        Workload::generate(spec, &RngStream::root(self.seed).derive("workload")).tasks
    }

    /// Generates both platform and workload.
    pub fn build(&self) -> (Platform, Vec<Task>) {
        let platform = self.build_platform();
        let tasks = self.build_workload(&platform);
        (platform, tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_load_calibration_is_exact() {
        let sc = Scenario::new(1, 3000, 1.0);
        let platform = sc.build_platform();
        let total_mips: f64 = platform
            .sites
            .iter()
            .flat_map(|s| &s.nodes)
            .map(|n| n.raw_speed())
            .sum();
        let iat = sc.interarrival_for(&platform);
        // work rate = mean_size / iat must equal offered × capacity.
        let rate = MEAN_TASK_SIZE_MI / iat;
        assert!((rate - total_mips).abs() / total_mips < 1e-12);
    }

    #[test]
    fn light_load_means_longer_interarrivals() {
        let heavy = Scenario::new(1, 3000, 1.0);
        let light = Scenario::new(1, 500, 0.2);
        let p = heavy.build_platform();
        assert!(light.interarrival_for(&p) > 4.0 * heavy.interarrival_for(&p));
    }

    #[test]
    fn build_produces_matched_sizes() {
        let sc = Scenario::small(7, 120, 0.6);
        let (platform, tasks) = sc.build();
        assert_eq!(tasks.len(), 120);
        assert!(platform.num_processors() > 0);
        // Deadlines derive from the platform's slowest speed by default.
        let t = &tasks[0];
        let act = t.size_mi / platform.reference_speed();
        let window = t.deadline.since(t.arrival).as_f64();
        assert!(window >= act * 0.999, "window {window} vs act {act}");
        assert!(window <= act * 2.501);
    }

    #[test]
    fn pinned_reference_speed_is_honoured() {
        let mut sc = Scenario::small(7, 50, 0.6);
        sc.deadline_ref_speed = Some(NOMINAL_REF_SPEED);
        let (_, tasks) = sc.build();
        for t in &tasks {
            let act = t.size_mi / NOMINAL_REF_SPEED;
            let window = t.deadline.since(t.arrival).as_f64();
            assert!(window >= act * 0.999 && window <= act * 2.501);
        }
    }

    #[test]
    fn deterministic_build() {
        let a = Scenario::small(9, 60, 0.5).build();
        let b = Scenario::small(9, 60, 0.5).build();
        assert_eq!(a.1, b.1);
        assert_eq!(a.0.num_processors(), b.0.num_processors());
    }
}
