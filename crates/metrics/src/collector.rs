//! Derivation of the paper's metrics from a [`RunResult`].

use platform::RunResult;
use simcore::stats::quantile;
use simcore::Series;

/// System energy `ECS` scaled to the paper's "(in millions)" unit.
pub fn energy_millions(r: &RunResult) -> f64 {
    r.total_energy / 1.0e6
}

/// The `q`-quantile of per-task response times over tasks completed
/// within the observation period (arrival start to last arrival).
///
/// Failure-abandoned tasks have no completion and are always excluded.
/// Tasks that only finish during the drain tail — after the last arrival
/// at `r.arrival_horizon` — are outside the observation window and are
/// excluded too, so the quantiles describe steady-state latency rather
/// than the ramp-down. When *no* task completes inside the window (tiny
/// runs whose work all lands in the tail), the quantile falls back to
/// all completed tasks so short scenarios stay measurable. `None` on an
/// empty or all-failed run.
pub fn response_time_quantile(r: &RunResult, q: f64) -> Option<f64> {
    let completed = |rec: &&platform::TaskRecord| rec.outcome != platform::TaskOutcome::Failed;
    let in_window: Vec<f64> = r
        .records
        .iter()
        .filter(completed)
        .filter(|rec| rec.finished.as_f64() <= r.arrival_horizon)
        .map(|rec| rec.response_time())
        .collect();
    if !in_window.is_empty() {
        return quantile(&in_window, q);
    }
    let all_completed: Vec<f64> = r
        .records
        .iter()
        .filter(completed)
        .map(|rec| rec.response_time())
        .collect();
    quantile(&all_completed, q)
}

/// Utilisation per learning-cycle decile (Figs. 9–10).
///
/// The x axis is "% learning cycles" (10, 20, …, 100); each y value is the
/// platform-wide *service* utilisation achieved during that decile of
/// learning cycles: useful work (MI) completed in the window divided by
/// the window length times the platform's nominal capacity (MIPS). Work —
/// not busy time — so throttled and sleeping processors register as
/// reduced service.
///
/// Returns an empty series when the run recorded no cycles.
pub fn utilisation_by_cycle_decile_windowed(r: &RunResult, label: &str) -> Series {
    let mut series = Series::new(label);
    let n = r.cycles.len();
    if n == 0 || r.total_mips <= 0.0 {
        return series;
    }
    let mut prev_time = 0.0;
    let mut prev_work = 0.0;
    for d in 1..=10usize {
        let idx = (n * d).div_ceil(10).clamp(1, n) - 1;
        let sample = &r.cycles[idx];
        let dt = sample.time - prev_time;
        let util = if dt > 0.0 {
            ((sample.work_mi - prev_work) / (dt * r.total_mips)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        series.push((d * 10) as f64, util);
        prev_time = sample.time;
        prev_work = sample.work_mi;
    }
    series
}

/// Cumulative-to-date variant of the decile curve — the figures' default.
///
/// Each y value is the service utilisation accumulated from time zero up
/// to the decile's learning cycle: total completed work over elapsed time
/// times nominal capacity. This is the reading under which the paper's
/// "resource utilisation … exhibits a linear relationship with learning
/// cycle" claim is well-defined (the windowed variant is dominated by the
/// ramp-up/drain phases of a finite run).
pub fn utilisation_by_cycle_decile(r: &RunResult, label: &str) -> Series {
    let mut series = Series::new(label);
    if r.cycles.is_empty() || r.total_mips <= 0.0 {
        return series;
    }
    // Restrict to the observation period: cycles completed before the last
    // arrival. The drain tail (no further arrivals) would otherwise drag
    // the final deciles down for every policy alike. Fall back to the full
    // log when a run completes most work only after arrivals stop.
    let within = r
        .cycles
        .iter()
        .take_while(|c| c.time <= r.arrival_horizon)
        .count();
    let n = if within >= 10 { within } else { r.cycles.len() };
    for d in 1..=10usize {
        let idx = (n * d).div_ceil(10).clamp(1, n) - 1;
        let sample = &r.cycles[idx];
        let util = if sample.time > 0.0 {
            (sample.work_mi / (sample.time * r.total_mips)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        series.push((d * 10) as f64, util);
    }
    series
}

/// Compact per-run summary used by reports and EXPERIMENTS.md tables.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Scheduler name.
    pub scheduler: String,
    /// Tasks submitted.
    pub num_tasks: usize,
    /// Eq. (4) average response time.
    pub avg_response_time: f64,
    /// `ECS` in millions.
    pub energy_millions: f64,
    /// Deadline-met fraction.
    pub success_rate: f64,
    /// Mean utilisation at the makespan.
    pub mean_utilisation: f64,
    /// Makespan (time of last completion).
    pub makespan: f64,
    /// Groups completed (learning cycles).
    pub cycles: u64,
    /// Split-process task starts.
    pub split_starts: u64,
    /// Per-priority deadline-met fraction `[low, medium, high]`.
    pub success_by_priority: [f64; 3],
    /// Median per-task response time.
    pub response_p50: f64,
    /// 95th-percentile per-task response time (tail latency).
    pub response_p95: f64,
    /// Tasks that never completed (0 on a healthy run).
    pub incomplete: usize,
    /// Tasks abandoned after injected failures exhausted their retry
    /// budget (0 when fault injection is off).
    pub failed: usize,
    /// Fraction of submitted tasks abandoned because of failures.
    pub failure_rate: f64,
    /// Fault events injected into the run.
    pub faults_injected: u64,
    /// Tasks preempted mid-execution by failures.
    pub preemptions: u64,
    /// Re-dispatches of preempted or orphaned tasks.
    pub retries: u64,
}

impl RunSummary {
    /// Summarises one run.
    pub fn from_run(r: &RunResult) -> Self {
        let mut met = [0usize; 3];
        let mut tot = [0usize; 3];
        for rec in &r.records {
            let i = rec.priority.index();
            tot[i] += 1;
            if rec.met {
                met[i] += 1;
            }
        }
        let mut success_by_priority = [0.0; 3];
        for i in 0..3 {
            if tot[i] > 0 {
                success_by_priority[i] = met[i] as f64 / tot[i] as f64;
            }
        }
        RunSummary {
            scheduler: r.scheduler.clone(),
            num_tasks: r.num_tasks,
            avg_response_time: r.avg_response_time(),
            energy_millions: energy_millions(r),
            success_rate: r.success_rate(),
            mean_utilisation: r.mean_utilisation,
            makespan: r.makespan,
            cycles: r.groups_completed,
            split_starts: r.split_starts,
            success_by_priority,
            response_p50: response_time_quantile(r, 0.5).unwrap_or(0.0),
            response_p95: response_time_quantile(r, 0.95).unwrap_or(0.0),
            incomplete: r.incomplete,
            failed: r.tasks_failed,
            failure_rate: r.failure_rate(),
            faults_injected: r.faults_injected,
            preemptions: r.preemptions,
            retries: r.retries,
        }
    }

    /// One fixed-width table row (pair with [`RunSummary::header`]).
    pub fn row(&self) -> String {
        format!(
            "{:<28} {:>7} {:>10.2} {:>10.3} {:>8.3} {:>8.3} {:>10.1} {:>7}",
            self.scheduler,
            self.num_tasks,
            self.avg_response_time,
            self.energy_millions,
            self.success_rate,
            self.mean_utilisation,
            self.makespan,
            self.failed
        )
    }

    /// Table header matching [`RunSummary::row`].
    pub fn header() -> String {
        format!(
            "{:<28} {:>7} {:>10} {:>10} {:>8} {:>8} {:>10} {:>7}",
            "scheduler", "tasks", "aveRT", "ECS(M)", "success", "util", "makespan", "failed"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::engine::CycleSample;
    use platform::{ExecConfig, ExecEngine, Platform, PlatformSpec};
    use simcore::rng::RngStream;
    use workload::{Workload, WorkloadSpec};

    fn sample_run() -> RunResult {
        let rng = RngStream::root(42);
        let platform = Platform::generate(PlatformSpec::small(1, 2, 4), &rng.derive("p"));
        let wl = Workload::generate(
            WorkloadSpec::paper(120, 1, platform.reference_speed()),
            &rng.derive("w"),
        );
        let mut sched = baselines_for_test::Fcfs::default();
        ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched)
    }

    /// Local single-task FCFS policy so metrics tests don't depend on the
    /// scheduler crates.
    mod baselines_for_test {
        use platform::{Command, GroupPolicy, PlatformView, Scheduler};
        use simcore::time::SimTime;
        use workload::{SiteId, Task};

        #[derive(Default)]
        pub struct Fcfs {
            pending: Vec<Task>,
        }

        impl Scheduler for Fcfs {
            fn name(&self) -> &str {
                "fcfs"
            }
            fn on_arrivals(&mut self, _now: SimTime, _site: SiteId, tasks: Vec<Task>) {
                self.pending.extend(tasks);
            }
            fn dispatch(&mut self, _now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
                let mut cmds = Vec::new();
                let mut kept = Vec::new();
                for t in self.pending.drain(..) {
                    let node = view
                        .site_nodes(t.site)
                        .filter(|n| n.queue_available() > 0)
                        .max_by_key(|n| n.queue_available());
                    match node {
                        Some(n) => cmds.push(Command::Dispatch {
                            node: n.addr(),
                            tasks: vec![t],
                            policy: GroupPolicy::Mixed,
                        }),
                        None => kept.push(t),
                    }
                }
                self.pending = kept;
                cmds
            }
        }
    }

    #[test]
    fn summary_is_consistent_with_run() {
        let r = sample_run();
        let s = RunSummary::from_run(&r);
        assert_eq!(s.num_tasks, 120);
        assert_eq!(s.incomplete, 0);
        assert!(s.avg_response_time > 0.0);
        assert!(s.energy_millions > 0.0);
        assert!((0.0..=1.0).contains(&s.success_rate));
        assert!((0.0..=1.0).contains(&s.mean_utilisation));
        // The overall success rate is a weighted mean of the per-priority
        // rates.
        let total_met: f64 = r.records.iter().filter(|x| x.met).count() as f64;
        assert!((s.success_rate - total_met / 120.0).abs() < 1e-12);
    }

    #[test]
    fn decile_series_has_ten_points() {
        let r = sample_run();
        let u = utilisation_by_cycle_decile(&r, "test");
        assert_eq!(u.len(), 10);
        assert_eq!(u.points[0].x, 10.0);
        assert_eq!(u.points[9].x, 100.0);
        for p in &u.points {
            assert!((0.0..=1.0).contains(&p.y), "utilisation {}", p.y);
        }
    }

    #[test]
    fn decile_series_empty_without_cycles() {
        let mut r = sample_run();
        r.cycles.clear();
        assert!(utilisation_by_cycle_decile(&r, "x").is_empty());
    }

    #[test]
    fn decile_windows_partition_busy_time() {
        let mut r = sample_run();
        // Construct a synthetic cycle log with constant half-capacity
        // service delivery.
        r.cycles = (1..=20)
            .map(|i| CycleSample {
                cycle: i,
                time: i as f64,
                work_mi: i as f64 * r.total_mips * 0.5,
            })
            .collect();
        let u = utilisation_by_cycle_decile(&r, "synthetic");
        for p in &u.points {
            assert!((p.y - 0.5).abs() < 1e-9, "expected flat 0.5, got {}", p.y);
        }
    }

    #[test]
    fn percentiles_bracket_the_mean_sanely() {
        let r = sample_run();
        let s = RunSummary::from_run(&r);
        assert!(s.response_p50 > 0.0);
        assert!(s.response_p95 >= s.response_p50);
        let min_rt = r
            .records
            .iter()
            .map(|rec| rec.response_time())
            .fold(f64::INFINITY, f64::min);
        let max_rt = r
            .records
            .iter()
            .map(|rec| rec.response_time())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(s.response_p50 >= min_rt && s.response_p95 <= max_rt);
        // q = 1.0 is the slowest task completed inside the observation
        // window (the drain tail is excluded).
        let max_in_window = r
            .records
            .iter()
            .filter(|rec| rec.finished.as_f64() <= r.arrival_horizon)
            .map(|rec| rec.response_time())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max_in_window.is_finite(), "window holds completions");
        assert_eq!(response_time_quantile(&r, 1.0), Some(max_in_window));
    }

    #[test]
    fn quantile_is_none_on_an_empty_run() {
        let mut r = sample_run();
        r.records.clear();
        assert_eq!(response_time_quantile(&r, 0.5), None);
    }

    #[test]
    fn quantile_is_none_when_every_task_failed() {
        let mut r = sample_run();
        for rec in &mut r.records {
            rec.outcome = platform::TaskOutcome::Failed;
        }
        assert_eq!(response_time_quantile(&r, 0.5), None);
        assert_eq!(response_time_quantile(&r, 0.95), None);
    }

    #[test]
    fn drain_tail_is_excluded_but_tail_only_runs_fall_back() {
        let r = sample_run();
        let max_all = r
            .records
            .iter()
            .map(|rec| rec.response_time())
            .fold(f64::NEG_INFINITY, f64::max);
        // Shrink the observation window so some completions fall in the
        // drain tail: the tail's slowest task must stop dominating q=1.0.
        let mut shrunk = r.clone();
        let mut finish_times: Vec<f64> =
            shrunk.records.iter().map(|x| x.finished.as_f64()).collect();
        finish_times.sort_by(|a, b| a.total_cmp(b));
        shrunk.arrival_horizon = finish_times[finish_times.len() / 2];
        let windowed = response_time_quantile(&shrunk, 1.0).expect("windowed quantile");
        let max_in_window = shrunk
            .records
            .iter()
            .filter(|rec| rec.finished.as_f64() <= shrunk.arrival_horizon)
            .map(|rec| rec.response_time())
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(windowed, max_in_window);
        // A window that excludes everything falls back to all completed
        // tasks instead of reporting nothing.
        let mut tail_only = r.clone();
        tail_only.arrival_horizon = -1.0;
        assert_eq!(response_time_quantile(&tail_only, 1.0), Some(max_all));
    }

    #[test]
    fn table_row_formats() {
        let r = sample_run();
        let s = RunSummary::from_run(&r);
        let header = RunSummary::header();
        let row = s.row();
        assert!(header.contains("aveRT"));
        assert!(row.contains("fcfs"));
    }
}
