//! The run's stamp, its metrics, and the result line printed last.

use crate::Opts;
use platform::{RunResult, TaskOutcome};
use std::process::{Command, Stdio};

/// The end-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("tasks_per_s", "tasks/s"),
    ("tasks_per_ref", "tasks/ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ack_ms_p50", "ms"),
    ("ack_ms_p99", "ms"),
    ("sim_energy_per_task", "J/task"),
    ("sim_response_mean", "simtime"),
    ("sim_deadline_met_pct", "%"),
];

/// The traced run's per-layer metrics and their units, as
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("setup.platform_s", "s"),
    ("setup.tasks_s", "s"),
    ("setup.sched_init_s", "s"),
    ("simcore.events", "count"),
    ("simcore.pop_s", "s"),
    ("simcore.max_queue", "count"),
    ("engine.self_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.rejections", "count"),
    ("engine.split_starts", "count"),
    ("core.dispatch_s", "s"),
    ("core.dispatch_calls", "count"),
    ("core.dispatch_yield", "ratio"),
    ("core.dispatch_us_p50", "us"),
    ("core.dispatch_us_p99", "us"),
    ("core.pending_mean", "tasks"),
    ("core.obs_s", "s"),
    ("core.group_select_s", "s"),
    ("core.feedback_s", "s"),
    ("neural.score_s", "s"),
    ("neural.score_calls", "count"),
    ("neural.train_s", "s"),
    ("neural.train_calls", "count"),
    ("baselines.sched_s.online_rl", "s"),
    ("baselines.sched_s.q_plus", "s"),
    ("baselines.sched_s.prediction", "s"),
    ("baselines.sched_s.round_robin", "s"),
    ("baselines.sched_s.greedy_edf", "s"),
    ("shard.epochs", "count"),
    ("shard.sync_records", "count"),
    ("shard.sync_applied", "count"),
    ("shard.busy_s.w0", "s"),
    ("shard.busy_s.w1", "s"),
    ("shard.barrier_wait_s", "s"),
    ("shard.efficiency", "ratio"),
    ("shard.decompose_s", "s"),
    ("shard.finish_s", "s"),
    ("submit.parse_us", "us"),
    ("session.submit_us_p50", "us"),
    ("session.submit_us_p99", "us"),
    ("session.advance_us_p50", "us"),
    ("session.advance_us_p99", "us"),
    ("submit.render_us", "us"),
    ("serve.cpu_ms_per_1k", "ms"),
    ("serve.notifications", "count"),
    ("serve.ingest_submissions", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
];

/// A run's outcome: work attempted and failed, output checks that did not
/// hold, notes, and the measured metric values.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records an output check that did not hold.
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Prints the notes, every metric with its unit and every failed check
    /// as `#` lines, then the result line with exactly the end-to-end (or,
    /// traced, the per-layer) metrics. Returns whether the run is correct.
    pub fn finish(mut self, trace: bool) -> bool {
        let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(listed.len());
        for &(name, unit) in listed {
            let value = match self.values.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => v,
                Some(&(_, v)) => {
                    self.problems.push(format!("{name} came out as {v}"));
                    0.0
                }
                // A traced run reports 0 for layers its workload never enters.
                None if trace => 0.0,
                None => {
                    self.problems.push(format!("{name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
            self.notes.push(format!("{name} = {value} {unit}"));
        }
        for (name, _) in &self.values {
            if !listed.iter().any(|(n, _)| n == name) {
                self.problems
                    .push(format!("{name} is not a listed metric of this run"));
            }
        }
        let correct = self.problems.is_empty() && self.failed == 0 && self.attempted > 0;
        for note in &self.notes {
            println!("# {note}");
        }
        for p in &self.problems {
            println!("# CHECK FAILED: {p}");
            eprintln!("perfbench: check failed: {p}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// The `sim_*` metrics pooled over runs: energy per task (Fig. 8), mean
/// response time over completed tasks (Fig. 7), and the deadline-met share
/// of submitted tasks.
#[derive(Default)]
pub struct SimTotals {
    tasks: usize,
    energy: f64,
    completed: usize,
    response: f64,
    met: usize,
}

impl SimTotals {
    pub fn add(&mut self, r: &RunResult) {
        self.tasks += r.num_tasks;
        self.energy += r.total_energy;
        for rec in &r.records {
            if rec.outcome != TaskOutcome::Failed {
                self.completed += 1;
                self.response += rec.response_time();
            }
            self.met += usize::from(rec.met);
        }
    }

    pub fn emit(&self, rep: &mut Report) {
        rep.metric("sim_energy_per_task", self.energy / self.tasks as f64);
        rep.metric("sim_response_mean", self.response / self.completed as f64);
        rep.metric(
            "sim_deadline_met_pct",
            100.0 * self.met as f64 / self.tasks as f64,
        );
    }
}

/// Latency samples of one source, cut into sampling windows of
/// [`WINDOW_SAMPLES`] consecutive samples each.
#[derive(Default)]
pub struct Windows {
    open: Vec<f64>,
    /// The nearest-rank median and p99 of every closed window.
    pub closed: Vec<(f64, f64)>,
    samples: usize,
}

/// Samples a full window holds: enough for ten beyond its p99.
const WINDOW_SAMPLES: usize = 1000;

impl Windows {
    /// Adds samples; a window closes each time it holds [`WINDOW_SAMPLES`].
    pub fn add(&mut self, samples: impl IntoIterator<Item = f64>) {
        for x in samples {
            self.open.push(x);
            if self.open.len() == WINDOW_SAMPLES {
                self.close();
            }
        }
    }

    /// Closes the open window, whatever it holds; one too small for a p99
    /// with ten samples beyond it is dropped.
    pub fn close(&mut self) {
        let v = crate::stats::sorted(std::mem::take(&mut self.open));
        self.samples += v.len();
        if let (Some(p50), Some(p99)) = (
            crate::stats::nearest_rank(&v, 50.0),
            crate::stats::tail(&v, 99.0),
        ) {
            self.closed.push((p50, p99));
        }
    }
}

/// `ack_ms_p50` and `ack_ms_p99` from per-source latency windows, in
/// milliseconds: per source, the lower quartile over its windows of each
/// window's median and p99; then the mean over sources. The host only adds
/// delay, in stalls and in slow phases of seconds: a stall moves a window,
/// not the run, and the calmer windows show the program's own latency,
/// where a phase covering half the run would move the median.
pub fn emit_ack(rep: &mut Report, sources: &[Windows]) {
    let mut p50 = 0.0;
    let mut p99 = 0.0;
    for s in sources {
        let pick = |f: fn(&(f64, f64)) -> f64| {
            let v = crate::stats::sorted(s.closed.iter().map(f).collect());
            crate::stats::nearest_rank(&v, 25.0)
        };
        match (pick(|w| w.0), pick(|w| w.1)) {
            (Some(a), Some(b)) => {
                p50 += a / sources.len() as f64;
                p99 += b / sources.len() as f64;
            }
            _ => {
                return rep.problem(format!(
                    "{} latency samples make no window with ten samples beyond its p99",
                    s.samples
                ))
            }
        }
    }
    rep.metric("ack_ms_p50", p50);
    rep.metric("ack_ms_p99", p99);
    let windows: Vec<String> = sources
        .iter()
        .map(|s| format!("{} in {}", s.samples, s.closed.len()))
        .collect();
    rep.note(format!(
        "ack latency samples in windows, per source: {}",
        windows.join(", ")
    ));
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// Prints the run's stamp: the code measured, how it was built, the
/// machine, and the run's settings.
pub fn print_stamp(opts: &Opts) {
    let git = first_line("git", &["describe", "--always", "--dirty"])
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_string());
    let rustc = first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let f32_kernels = if adaptive_rl::KernelPrecision::F32.available() {
        "on"
    } else {
        "off"
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# stamp {{\"git\": {}, \"f32_kernels\": \"{f32_kernels}\", \
         \"available_parallelism\": {parallelism}, \"rustc\": {}, \"workload\": \"{}\", \
         \"seed\": {}, \"shards\": {}, \"trace\": {}}}",
        json_str(&git),
        json_str(&rustc),
        opts.workload.name(),
        opts.seed,
        opts.workload.threads(),
        u8::from(opts.trace)
    );
}

/// The first line `program args` prints, if it runs and succeeds.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{self, Json};

    #[test]
    fn windows_close_at_a_thousand_samples_and_drop_short_ones() {
        let mut w = Windows::default();
        w.add((1..=999).map(f64::from));
        assert!(w.closed.is_empty());
        w.add([1000.0]);
        // Rank 990 of 1000 is the p99, with ten samples beyond it.
        assert_eq!(w.closed, vec![(500.0, 990.0)]);
        // One batch of samples fills as many windows as it can.
        w.add((1..=2500).map(f64::from));
        assert_eq!(w.closed[1..], [(500.0, 990.0), (1500.0, 1990.0)]);
        w.close();
        assert_eq!(w.closed.len(), 3, "500 samples hold no p99 with ten beyond");
        assert_eq!(w.samples, 3500);
    }

    #[test]
    fn ack_metrics_are_the_lower_quartile_over_windows_averaged_over_sources() {
        let source = |shifts: &[f64]| {
            let mut w = Windows::default();
            for shift in shifts {
                w.add((1..=1000).map(|x| f64::from(x) + shift));
            }
            w
        };
        let mut rep = Report::default();
        emit_ack(
            &mut rep,
            &[source(&[3.0, 1.0, 4.0, 2.0]), source(&[9.0, 7.0, 8.0])],
        );
        // Window medians 501..504 and 507..509, p99s 991..994 and 997..999:
        // rank 1 of 4 and rank 1 of 3.
        assert_eq!(
            rep.values,
            vec![("ack_ms_p50", 504.0), ("ack_ms_p99", 994.0)]
        );
    }

    /// The lists above must be `BENCHMARK.json`'s, names and units, in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, listed) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = spec.get(key).and_then(Json::as_array).expect(key);
            let named: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(Json::as_str).expect(f);
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(named, listed, "{key}");
        }
    }
}
