//! Workload profiling.
//!
//! §III.A assumes "the task's profile is available and can be provided by
//! the user using job profiling, analytical models or historical
//! information". [`WorkloadProfile`] is that profile: per-priority counts,
//! size and slack statistics, and arrival-intensity summaries that the
//! schedulers (and the reports in EXPERIMENTS.md) consume.

use crate::priority::Priority;
use crate::task::Task;
use simcore::stats::RunningStats;

/// Aggregate description of a set of tasks.
#[derive(Debug, Clone, Default)]
pub struct WorkloadProfile {
    /// Number of tasks per priority class (indexed by [`Priority::index`]).
    pub count_by_priority: [u64; 3],
    /// Task-size statistics (MI).
    pub size_mi: RunningStats,
    /// Deadline-window statistics (time units from arrival to deadline).
    pub deadline_window: RunningStats,
    /// Inter-arrival statistics (time units).
    pub interarrival: RunningStats,
    /// Urgency-density (`s_i / d_i`) statistics.
    pub urgency_density: RunningStats,
}

impl WorkloadProfile {
    /// Profiles a slice of tasks (assumed sorted by arrival, as produced by
    /// the generator).
    pub fn from_tasks(tasks: &[Task]) -> Self {
        let mut p = WorkloadProfile::default();
        let mut prev_arrival: Option<f64> = None;
        for t in tasks {
            p.count_by_priority[t.priority.index()] += 1;
            p.size_mi.push(t.size_mi);
            p.deadline_window.push(t.deadline.since(t.arrival).as_f64());
            p.urgency_density.push(t.urgency_density());
            if let Some(prev) = prev_arrival {
                p.interarrival.push(t.arrival.as_f64() - prev);
            }
            prev_arrival = Some(t.arrival.as_f64());
        }
        p
    }

    /// Total number of tasks profiled.
    pub fn total(&self) -> u64 {
        self.count_by_priority.iter().sum()
    }

    /// Fraction of tasks in the given class; 0 if the profile is empty.
    pub fn fraction(&self, priority: Priority) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count_by_priority[priority.index()] as f64 / total as f64
        }
    }

    /// Offered load in MI per time unit (mean size / mean inter-arrival);
    /// 0 for degenerate profiles.
    pub fn offered_load_mips(&self) -> f64 {
        let iat = self.interarrival.mean();
        if iat == 0.0 {
            0.0
        } else {
            self.size_mi.mean() / iat
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Workload, WorkloadSpec};
    use simcore::rng::RngStream;

    fn profile() -> WorkloadProfile {
        let spec = WorkloadSpec::paper(2000, 5, 500.0);
        let w = Workload::generate(spec, &RngStream::root(10));
        WorkloadProfile::from_tasks(&w.tasks)
    }

    #[test]
    fn counts_sum_to_total() {
        let p = profile();
        assert_eq!(p.total(), 2000);
        let fsum: f64 = Priority::ALL.iter().map(|&x| p.fraction(x)).sum();
        assert!((fsum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn size_stats_in_range() {
        let p = profile();
        assert!(p.size_mi.min().unwrap() >= 600.0);
        assert!(p.size_mi.max().unwrap() <= 7200.0);
        // Uniform [600, 7200] has mean 3900.
        assert!((p.size_mi.mean() - 3900.0).abs() < 150.0);
    }

    #[test]
    fn offered_load_is_positive() {
        let p = profile();
        let load = p.offered_load_mips();
        // mean size ~3900 MI / mean iat ~5 => ~780 MIPS offered.
        assert!((load - 780.0).abs() < 100.0, "offered load {load}");
    }

    #[test]
    fn empty_profile_is_benign() {
        let p = WorkloadProfile::from_tasks(&[]);
        assert_eq!(p.total(), 0);
        assert_eq!(p.fraction(Priority::High), 0.0);
        assert_eq!(p.offered_load_mips(), 0.0);
    }
}
