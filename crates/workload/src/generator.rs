//! Workload generation per §V.A of the paper.
//!
//! A [`WorkloadSpec`] captures the experiment knobs: task count (500–3000),
//! mean inter-arrival (5 time units), size range (600–7200 MI), priority
//! mix, and the number of sites tasks are spread over. Generation is
//! deterministic given an [`RngStream`].
//!
//! Deadlines are produced *consistently with the requested priority*: the
//! generator first draws the priority class from the mix, then draws the
//! slack fraction `add_t` uniformly within that class's band (§III.A defines
//! the bands; §V.A says "the computational size and deadline are satisfied
//! with the measurement made for the task priority").

use crate::priority::PriorityMix;
use crate::task::{SiteId, Task, TaskId};
use simcore::poisson::PoissonProcess;
use simcore::rng::RngStream;
use simcore::time::{SimDuration, SimTime};

/// Declarative description of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Total number of tasks (paper: 500–3000).
    pub num_tasks: usize,
    /// Mean Poisson inter-arrival time (paper: 5 time units).
    pub mean_interarrival: f64,
    /// Minimum task size in MI (paper: 600).
    pub size_min_mi: f64,
    /// Maximum task size in MI (paper: 7200).
    pub size_max_mi: f64,
    /// Priority class probabilities.
    pub priority_mix: PriorityMix,
    /// Number of resource sites arrivals are spread over (uniformly).
    pub num_sites: u32,
    /// Reference speed (MIPS) of the slowest resource, used for `ACT`.
    pub reference_speed_mips: f64,
}

impl WorkloadSpec {
    /// The paper's §V.A settings with the given task count, site count and
    /// reference speed.
    pub fn paper(num_tasks: usize, num_sites: u32, reference_speed_mips: f64) -> Self {
        WorkloadSpec {
            num_tasks,
            mean_interarrival: 5.0,
            size_min_mi: 600.0,
            size_max_mi: 7200.0,
            priority_mix: PriorityMix::uniform(),
            num_sites,
            reference_speed_mips,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics on an impossible spec (empty ranges, zero sites, …).
    pub fn validate(&self) {
        assert!(
            self.num_tasks > 0,
            "workload must contain at least one task"
        );
        assert!(
            self.mean_interarrival > 0.0,
            "mean inter-arrival must be positive"
        );
        assert!(
            self.size_min_mi > 0.0 && self.size_min_mi <= self.size_max_mi,
            "invalid size range [{}, {}]",
            self.size_min_mi,
            self.size_max_mi
        );
        assert!(self.num_sites > 0, "need at least one site");
        assert!(
            self.reference_speed_mips > 0.0,
            "reference speed must be positive"
        );
    }
}

/// A fully generated workload: tasks sorted by arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The spec this workload was generated from.
    pub spec: WorkloadSpec,
    /// Tasks in non-decreasing arrival order, ids dense from 0.
    pub tasks: Vec<Task>,
}

impl Workload {
    /// Generates a workload deterministically from `rng`.
    ///
    /// ```
    /// use simcore::rng::RngStream;
    /// use workload::{Workload, WorkloadSpec};
    ///
    /// let spec = WorkloadSpec::paper(100, 5, 500.0);
    /// let wl = Workload::generate(spec, &RngStream::root(42));
    /// assert_eq!(wl.len(), 100);
    /// assert!(wl.tasks.iter().all(|t| t.size_mi >= 600.0 && t.size_mi <= 7200.0));
    /// ```
    pub fn generate(spec: WorkloadSpec, rng: &RngStream) -> Workload {
        spec.validate();
        let mut arrivals = PoissonProcess::new(
            spec.mean_interarrival,
            SimTime::ZERO,
            rng.derive("workload.arrivals"),
        );
        let mut sizer = rng.derive("workload.sizes");
        let mut prio_rng = rng.derive("workload.priorities");
        let mut slack_rng = rng.derive("workload.slack");
        let mut site_rng = rng.derive("workload.sites");

        let mut tasks = Vec::with_capacity(spec.num_tasks);
        for i in 0..spec.num_tasks {
            let arrival = arrivals.next_arrival();
            let size_mi = if spec.size_min_mi == spec.size_max_mi {
                spec.size_min_mi
            } else {
                sizer.uniform(spec.size_min_mi, spec.size_max_mi)
            };
            let priority = spec.priority_mix.classify(prio_rng.unit());
            let (band_lo, band_hi) = priority.slack_band();
            let slack = if band_lo == band_hi {
                band_lo
            } else {
                slack_rng.uniform(band_lo, band_hi)
            };
            let act = size_mi / spec.reference_speed_mips;
            let deadline = arrival + SimDuration::new(act * (1.0 + slack));
            let site = SiteId(site_rng.pick(spec.num_sites as usize) as u32);
            tasks.push(Task {
                id: TaskId(i as u64),
                size_mi,
                arrival,
                deadline,
                priority,
                site,
            });
        }
        Workload { spec, tasks }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workload is empty (never true for generated workloads).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The last arrival instant (the generation horizon).
    pub fn horizon(&self) -> SimTime {
        self.tasks
            .last()
            .map(|t| t.arrival)
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::Priority;

    fn gen(seed: u64, n: usize) -> Workload {
        let spec = WorkloadSpec::paper(n, 5, 500.0);
        Workload::generate(spec, &RngStream::root(seed))
    }

    #[test]
    fn generates_requested_count_in_arrival_order() {
        let w = gen(1, 500);
        assert_eq!(w.len(), 500);
        for pair in w.tasks.windows(2) {
            assert!(pair[1].arrival >= pair[0].arrival);
        }
        for (i, t) in w.tasks.iter().enumerate() {
            assert_eq!(t.id.0, i as u64);
        }
    }

    #[test]
    fn sizes_within_paper_range() {
        let w = gen(2, 1000);
        for t in &w.tasks {
            assert!((600.0..7200.0).contains(&t.size_mi), "size {}", t.size_mi);
        }
    }

    #[test]
    fn deadlines_respect_priority_bands() {
        let w = gen(3, 2000);
        for t in &w.tasks {
            let act = t.size_mi / 500.0;
            let slack = (t.deadline.since(t.arrival).as_f64() - act) / act;
            // Allow floating-point fuzz at band edges.
            let classified = Priority::from_slack(slack.clamp(0.0, 1.5));
            assert_eq!(classified, t.priority, "slack {slack}");
        }
    }

    #[test]
    fn priority_mix_is_respected() {
        let spec = WorkloadSpec {
            priority_mix: PriorityMix::new(0.6, 0.3, 0.1),
            ..WorkloadSpec::paper(6000, 5, 500.0)
        };
        let w = Workload::generate(spec, &RngStream::root(4));
        let n = w.len() as f64;
        let frac = |p: Priority| w.tasks.iter().filter(|t| t.priority == p).count() as f64 / n;
        assert!((frac(Priority::Low) - 0.6).abs() < 0.03);
        assert!((frac(Priority::Medium) - 0.3).abs() < 0.03);
        assert!((frac(Priority::High) - 0.1).abs() < 0.03);
    }

    #[test]
    fn sites_are_covered() {
        let w = gen(5, 1000);
        let per_site = |s| w.tasks.iter().filter(|t| t.site == SiteId(s)).count();
        for s in 0..5 {
            assert!(per_site(s) > 0, "site {s} starved");
        }
        assert_eq!((0..5).map(per_site).sum::<usize>(), w.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen(42, 300);
        let b = gen(42, 300);
        assert_eq!(a, b);
        let c = gen(43, 300);
        assert_ne!(a, c);
    }

    #[test]
    fn horizon_tracks_last_arrival() {
        let w = gen(6, 100);
        assert_eq!(w.horizon(), w.tasks.last().unwrap().arrival);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_spec_rejected() {
        let spec = WorkloadSpec::paper(0, 5, 500.0);
        let _ = Workload::generate(spec, &RngStream::root(1));
    }

    #[test]
    fn mean_interarrival_close_to_five() {
        let w = gen(7, 5000);
        let mean = w.horizon().as_f64() / w.len() as f64;
        assert!((mean - 5.0).abs() < 0.25, "mean inter-arrival {mean}");
    }
}
