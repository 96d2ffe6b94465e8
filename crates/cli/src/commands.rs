//! Command implementations. Each returns its output as a `String` so the
//! commands are unit-testable; the binary prints them.

use crate::args::{ArgError, Args};
use crate::select::scheduler_from;
use experiments::{runner, Monitor, Scenario, SchedulerKind};
use metrics::RunSummary;
use platform::{CheckpointConfig, RunResult, SamplerConfig};
use std::sync::Arc;
use std::time::Duration;
use telemetry::{
    ChromeTraceSink, JsonlSink, MetricsRegistry, MetricsServer, PhaseProfiler, Recorder,
    StderrProgress, TraceLevel,
};
use workload::{load_trace, save_trace, Task, WorkloadProfile};

/// Errors a command can produce.
#[derive(Debug)]
pub enum CmdError {
    /// Bad command-line arguments.
    Args(ArgError),
    /// File or trace-format problems.
    Io(std::io::Error),
    /// Snapshot/checkpoint problems (corrupt, truncated, wrong version…).
    Snapshot(snapshot::SnapshotError),
    /// Anything else worth reporting verbatim.
    Other(String),
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Args(e) => write!(f, "{e}"),
            CmdError::Io(e) => write!(f, "{e}"),
            CmdError::Snapshot(e) => write!(f, "{e}"),
            CmdError::Other(m) => f.write_str(m),
        }
    }
}

impl From<snapshot::SnapshotError> for CmdError {
    fn from(e: snapshot::SnapshotError) -> Self {
        CmdError::Snapshot(e)
    }
}

impl From<ArgError> for CmdError {
    fn from(e: ArgError) -> Self {
        CmdError::Args(e)
    }
}

impl From<std::io::Error> for CmdError {
    fn from(e: std::io::Error) -> Self {
        CmdError::Io(e)
    }
}

fn scenario_from(args: &Args) -> Result<Scenario, CmdError> {
    let tasks = args.get_or("tasks", 1000usize)?;
    let offered = args.get_or("offered", 0.8f64)?;
    let seed = args.get_or("seed", 2011u64)?;
    if !offered.is_finite() || offered <= 0.0 {
        return Err(CmdError::Other("--offered must be positive".into()));
    }
    let mut sc = Scenario::new(seed, tasks, offered);
    if args.has("scale") {
        // The 100-site / ~100 k-processor shape of the sharded scaling
        // study; --sites still overrides the site count below.
        sc.platform = Scenario::scaling_platform();
    }
    if let Some(sites) = args.get("sites") {
        let sites: u32 = sites.parse().map_err(|_| {
            CmdError::Args(ArgError::BadValue {
                flag: "sites".into(),
                value: sites.into(),
                expected: "u32",
            })
        })?;
        if sites == 0 {
            return Err(CmdError::Other("--sites must be at least 1".into()));
        }
        sc.platform.num_sites = sites;
    }
    if args.has("no-split") {
        sc.exec.split_enabled = false;
    }
    apply_fault_flags(args, &mut sc)?;
    Ok(sc)
}

/// Parses the `--fault-*` flag family into `sc.exec.faults`.
///
/// `--faults` switches injection on; the remaining flags refine the spec
/// and are accepted (but inert) without it, mirroring how `--no-split`
/// composes. Range errors surface as [`CmdError`]s rather than the
/// panics `FaultSpec::validate` would raise later.
fn apply_fault_flags(args: &Args, sc: &mut Scenario) -> Result<(), CmdError> {
    let f = &mut sc.exec.faults;
    if args.has("faults") {
        f.enabled = true;
    }
    f.proc_mtbf = args.get_or("fault-proc-mtbf", f.proc_mtbf)?;
    f.proc_mttr = args.get_or("fault-proc-mttr", f.proc_mttr)?;
    f.node_mtbf = args.get_or("fault-node-mtbf", f.node_mtbf)?;
    f.node_mttr = args.get_or("fault-node-mttr", f.node_mttr)?;
    f.permanent_fraction = args.get_or("fault-permanent", f.permanent_fraction)?;
    f.max_retries = args.get_or("fault-retries", f.max_retries)?;
    f.horizon = args.get_or("fault-horizon", f.horizon)?;
    f.seed = args.get_or("fault-seed", f.seed)?;
    for (flag, v) in [
        ("fault-proc-mtbf", f.proc_mtbf),
        ("fault-node-mtbf", f.node_mtbf),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(CmdError::Other(format!(
                "--{flag} must be non-negative (0 disables that source)"
            )));
        }
    }
    for (flag, v) in [
        ("fault-proc-mttr", f.proc_mttr),
        ("fault-node-mttr", f.node_mttr),
        ("fault-horizon", f.horizon),
    ] {
        if !v.is_finite() || v <= 0.0 {
            return Err(CmdError::Other(format!("--{flag} must be positive")));
        }
    }
    if !(0.0..=1.0).contains(&f.permanent_fraction) {
        return Err(CmdError::Other(
            "--fault-permanent must be in [0, 1]".into(),
        ));
    }
    if f.enabled && !f.is_active() {
        return Err(CmdError::Other(
            "--faults needs a failure source: set --fault-proc-mtbf and/or --fault-node-mtbf > 0"
                .into(),
        ));
    }
    Ok(())
}

/// Builds the recorder requested by the `--trace*` / `--progress`
/// family, or `None` when telemetry is off. `--trace-format` and
/// `--trace-level` without `--trace` are accepted but inert, mirroring
/// how the fault flags compose; `--progress` alone attaches the bare
/// stderr ticker without a trace sink.
fn recorder_from(args: &Args) -> Result<Option<runner::SharedRecorder>, CmdError> {
    let level = match args.get("trace-level") {
        None => TraceLevel::Decisions,
        Some(raw) => TraceLevel::parse(raw).ok_or_else(|| {
            CmdError::Args(ArgError::UnknownChoice {
                flag: "trace-level".into(),
                value: raw.into(),
                choices: "cycles, decisions, all",
            })
        })?,
    };
    let sink: Option<Arc<dyn Recorder>> = match args.get("trace") {
        None => None,
        Some("") => return Err(CmdError::Other("--trace needs a file path".into())),
        Some(path) => match args.get("trace-format").unwrap_or("jsonl") {
            "jsonl" => Some(Arc::new(JsonlSink::create(path, level)?)),
            "chrome" => Some(Arc::new(ChromeTraceSink::create(path, level)?)),
            other => {
                return Err(CmdError::Args(ArgError::UnknownChoice {
                    flag: "trace-format".into(),
                    value: other.into(),
                    choices: "jsonl, chrome",
                }))
            }
        },
    };
    Ok(match (sink, args.has("progress")) {
        (Some(inner), true) => Some(Arc::new(StderrProgress::wrap(
            inner,
            Duration::from_millis(500),
        ))),
        (Some(inner), false) => Some(inner),
        (None, true) => Some(Arc::new(StderrProgress::bare())),
        (None, false) => None,
    })
}

fn summary_block(r: &RunResult) -> String {
    let s = RunSummary::from_run(r);
    let mut out = String::new();
    out.push_str(&RunSummary::header());
    out.push('\n');
    out.push_str(&s.row());
    out.push('\n');
    out.push_str(&format!(
        "p50/p95 response: {:.2} / {:.2} | groups: {} | split starts: {} | rejections: {}\n",
        s.response_p50, s.response_p95, r.groups_dispatched, r.split_starts, r.rejections
    ));
    if r.faults_injected > 0 || r.tasks_failed > 0 {
        out.push_str(&format!(
            "faults: {} injected / {} recovered | preemptions: {} | retries: {} | tasks failed: {}\n",
            r.faults_injected, r.faults_recovered, r.preemptions, r.retries, r.tasks_failed
        ));
    }
    if r.incomplete > 0 {
        out.push_str(&format!(
            "WARNING: {} tasks never completed\n",
            r.incomplete
        ));
    }
    out
}

/// Finalises the trace recorder and reports any I/O error it swallowed.
///
/// A disk-full or read-only trace destination must not cost the run's
/// in-memory results, so the sinks latch write errors instead of
/// panicking; here they come back as a WARNING note appended to the
/// summary rather than an `Err` that would discard it.
fn finish_recorder(rec: Option<&dyn Recorder>, args: &Args) -> Option<String> {
    let rec = rec?;
    rec.finish();
    rec.io_error().map(|e| {
        format!(
            "WARNING: trace file {} is incomplete: {e}\n",
            args.get("trace").unwrap_or("<unknown>")
        )
    })
}

/// Parses the monitoring flag family (`--metrics-addr`, `--metrics-out`,
/// `--timeseries`, `--sample-every`, `--profile`) into a [`Monitor`]
/// attachment plus — when `--metrics-addr` is given — a live
/// [`MetricsServer`] that must stay alive for the duration of the run.
///
/// `--sample-every` without `--timeseries` is accepted but inert,
/// mirroring how the fault and trace flag families compose. The bound
/// address is announced on stderr at bind time so a user (or scraper)
/// can reach `/metrics` while the run is still going.
fn monitor_from(args: &Args) -> Result<(Monitor, Option<MetricsServer>), CmdError> {
    let mut monitor = Monitor::default();
    let mut server = None;
    if args.has("metrics-addr") || args.has("metrics-out") {
        monitor.registry = Some(Arc::new(MetricsRegistry::new()));
    }
    if let Some(addr) = args.get("metrics-addr") {
        if addr.is_empty() {
            return Err(CmdError::Other("--metrics-addr needs HOST:PORT".into()));
        }
        let registry = monitor.registry.clone().expect("registry just created");
        let s = MetricsServer::serve(addr, registry)?;
        eprintln!("serving metrics on http://{}/metrics", s.local_addr());
        server = Some(s);
    }
    if args.get("metrics-out") == Some("") {
        return Err(CmdError::Other("--metrics-out needs a file path".into()));
    }
    let every = args.get_or("sample-every", 10.0f64)?;
    if !every.is_finite() || every <= 0.0 {
        return Err(CmdError::Other("--sample-every must be positive".into()));
    }
    let capacity = args.get_or("sample-capacity", SamplerConfig::default().capacity)?;
    if capacity == 0 {
        return Err(CmdError::Other("--sample-capacity must be >= 1".into()));
    }
    match args.get("timeseries") {
        None => {}
        Some("") => return Err(CmdError::Other("--timeseries needs a file path".into())),
        Some(_) => {
            monitor.sampler = Some(SamplerConfig { every, capacity });
        }
    }
    if args.has("profile") {
        monitor.profiler = Some(Arc::new(PhaseProfiler::new()));
    }
    Ok((monitor, server))
}

/// Parses the `--checkpoint-*` flag pair into a [`CheckpointConfig`].
fn checkpoint_from(args: &Args) -> Result<Option<CheckpointConfig>, CmdError> {
    let every = args.get_or("checkpoint-every", 0u64)?;
    match (every, args.get("checkpoint-dir")) {
        (0, None) => Ok(None),
        (0, Some(_)) => Err(CmdError::Other(
            "--checkpoint-dir needs --checkpoint-every N".into(),
        )),
        (_, None) => Err(CmdError::Other(
            "--checkpoint-every needs --checkpoint-dir PATH".into(),
        )),
        (n, Some(dir)) => Ok(Some(CheckpointConfig::new(n, dir))),
    }
}

/// Parses `--shards {auto,N}` into a worker count for the sharded
/// parallel engine; `None` (flag absent) selects the sequential engine.
/// N is clamped to the site count, as the engine would clamp it, so the
/// count reported and the audit's replay count are counts that run.
fn shards_from(args: &Args, sc: &Scenario) -> Result<Option<usize>, CmdError> {
    let sites = sc.platform.num_sites as usize;
    match args.get("shards") {
        None => Ok(None),
        Some("") => Err(CmdError::Other(
            "--shards needs `auto` or a worker count".into(),
        )),
        Some("auto") => Ok(Some(platform::auto_shards(sites))),
        Some(raw) => {
            let n: usize = raw.parse().map_err(|_| {
                CmdError::Args(ArgError::BadValue {
                    flag: "shards".into(),
                    value: raw.into(),
                    expected: "`auto` or a positive integer",
                })
            })?;
            if n == 0 {
                return Err(CmdError::Other(
                    "--shards must be at least 1 (or `auto`)".into(),
                ));
            }
            Ok(Some(n.min(sites)))
        }
    }
}

/// Post-run half of the monitoring flags: the Prometheus dump
/// (`--metrics-out`), the time-series JSONL (`--timeseries`) and the
/// profiler table + `PROFILE_*.json` artifact (`--profile`).
///
/// Like [`finish_recorder`], output-file problems come back as WARNING
/// notes rather than errors — the run is already complete and its
/// summary must not be discarded over a full disk.
fn finish_monitor(monitor: &Monitor, r: &RunResult, args: &Args) -> String {
    let mut notes = String::new();
    if let (Some(reg), Some(path)) = (&monitor.registry, args.get("metrics-out")) {
        match std::fs::write(path, reg.render()) {
            Ok(()) => notes.push_str(&format!("metrics: wrote Prometheus dump to {path}\n")),
            Err(e) => notes.push_str(&format!("WARNING: could not write {path}: {e}\n")),
        }
    }
    if let Some(path) = args.get("timeseries") {
        match &r.timeseries {
            Some(ts) => {
                let write = std::fs::File::create(path).and_then(|mut f| ts.write_jsonl(&mut f));
                match write {
                    Ok(()) => notes.push_str(&format!(
                        "timeseries: {} points (every {} t.u.) written to {path}\n",
                        ts.points.len(),
                        ts.sample_every
                    )),
                    Err(e) => notes.push_str(&format!("WARNING: could not write {path}: {e}\n")),
                }
                if ts.dropped > 0 {
                    notes.push_str(&format!(
                        "WARNING: time series ring saturated; the {} oldest points were \
                         dropped — the series in {path} is truncated (raise --sample-capacity \
                         or --sample-every)\n",
                        ts.dropped
                    ));
                }
            }
            None => notes.push_str(&format!(
                "WARNING: no time series was sampled; {path} not written\n"
            )),
        }
    }
    if let Some(prof) = &monitor.profiler {
        let report = prof.report();
        notes.push_str("\nprofile (instrumented phases):\n");
        notes.push_str(&report.render_table());
        let path = args.get("profile-out").unwrap_or("PROFILE_simulate.json");
        match std::fs::write(path, report.to_json()) {
            Ok(()) => notes.push_str(&format!("profile: wrote {path}\n")),
            Err(e) => notes.push_str(&format!("WARNING: could not write {path}: {e}\n")),
        }
    }
    notes
}

/// `arls simulate`.
pub fn simulate(args: &Args) -> Result<String, CmdError> {
    let mut sc = scenario_from(args)?;
    sc.exec.audit = args.has("audit");
    let kind = scheduler_from(args)?;
    let rec = recorder_from(args)?;
    let ck = checkpoint_from(args)?;
    let (mut monitor, mut server) = monitor_from(args)?;
    monitor.recorder = rec.clone();
    if ck.is_some() && (sc.exec.audit || monitor.is_active() || server.is_some()) {
        return Err(CmdError::Other(
            "--checkpoint-every does not compose with --trace/--progress/--audit/--metrics-*/\
             --timeseries/--profile"
                .into(),
        ));
    }
    let shards = shards_from(args, &sc)?;
    if shards.is_some() && (ck.is_some() || monitor.is_active() || server.is_some()) {
        return Err(CmdError::Other(
            "--shards does not compose with --trace/--progress/--checkpoint-*/--metrics-*/\
             --timeseries/--profile (the sharded engine has no single global event loop to \
             observe)"
                .into(),
        ));
    }
    let mut ck_note = None;
    let r = match (shards, ck) {
        (Some(n), _) => {
            // Worker count to stderr only: the CI shard-smoke job diffs
            // stdout between --shards values byte-for-byte.
            eprintln!(
                "sharded engine: {n} worker thread(s) over {} site shards",
                sc.platform.num_sites
            );
            runner::run_sharded(&sc, &kind, n)
        }
        (None, ck) => match ck {
            Some(ck) => {
                let dir = ck.dir.clone();
                let run = experiments::checkpoint::run_scenario_checkpointed(&sc, &kind, ck);
                if let Some(e) = run.write_error {
                    return Err(CmdError::Snapshot(e));
                }
                ck_note = Some(format!(
                    "checkpoints: {} written to {} (resume with `arls resume SNAPSHOT`)\n",
                    run.checkpoints_written,
                    dir.display()
                ));
                run.result
            }
            None => runner::run_scenario_monitored(&sc, &kind, &monitor),
        },
    };
    if let Some(s) = &mut server {
        s.shutdown();
    }
    let trace_note = finish_recorder(rec.as_deref(), args);
    let monitor_notes = finish_monitor(&monitor, &r, args);
    let mut out = String::new();
    let platform = sc.build_platform();
    out.push_str(&format!(
        "scenario: {} tasks at offered load {:.2} on {} sites / {} nodes / {} processors (seed {})\n\n",
        sc.num_tasks,
        sc.offered_load,
        platform.num_sites(),
        platform.num_nodes(),
        platform.num_processors(),
        sc.seed
    ));
    out.push_str(&summary_block(&r));
    if let Some(note) = ck_note {
        out.push_str(&note);
    }
    if let Some(note) = trace_note {
        out.push_str(&note);
    }
    out.push_str(&monitor_notes);
    if sc.exec.audit {
        let Some(report) = r.audit.as_ref() else {
            return Err(CmdError::Other(
                "audit was requested but the engine produced no report".into(),
            ));
        };
        if !report.is_clean() {
            return Err(CmdError::Other(format!(
                "correctness audit FAILED:\n{}",
                report.render()
            )));
        }
        // Replay determinism: an identical second run must reproduce the
        // result bit-for-bit (the recorder is left off — telemetry is not
        // part of the replay contract). A sharded run replays at a
        // *different* worker count, so the audit doubles as a live
        // thread-count-invariance check.
        let replay = match shards {
            Some(n) => runner::run_sharded(&sc, &kind, if n == 1 { 2 } else { n - 1 }),
            None => runner::run_scenario(&sc, &kind),
        };
        if let Some(d) = platform::replay_divergence(&r, &replay) {
            return Err(CmdError::Other(format!("replay audit FAILED: {d}")));
        }
        out.push_str(&format!("{}\nreplay: bit-identical\n", report.render()));
    }
    if args.has("csv") {
        out.push_str("\ntask,site,node,arrival,started,finished,deadline,met,outcome,attempts\n");
        for rec in &r.records {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{:?},{}\n",
                rec.task.0,
                rec.site.0,
                rec.node,
                rec.arrival,
                rec.started,
                rec.finished,
                rec.deadline,
                rec.met,
                rec.outcome,
                rec.attempts
            ));
        }
    }
    Ok(out)
}

/// `arls resume SNAPSHOT` — restore a checkpoint written by
/// `arls simulate --checkpoint-every N --checkpoint-dir D` (or the
/// experiments harness) and drive the run to completion.
pub fn resume(args: &Args) -> Result<String, CmdError> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| CmdError::Other("usage: arls resume SNAPSHOT".into()))?;
    let r = experiments::resume_run(std::path::Path::new(path))?;
    let mut out = String::new();
    out.push_str(&format!("resumed from {path}\n\n"));
    out.push_str(&summary_block(&r));
    Ok(out)
}

/// `arls compare`.
pub fn compare(args: &Args) -> Result<String, CmdError> {
    let sc = scenario_from(args)?;
    let mut kinds = SchedulerKind::paper_four();
    if args.has("references") {
        kinds.push(SchedulerKind::RoundRobin);
        kinds.push(SchedulerKind::GreedyEdf);
    }
    let mut out = String::new();
    out.push_str(&RunSummary::header());
    out.push('\n');
    for kind in kinds {
        let r = runner::run_scenario(&sc, &kind);
        out.push_str(&RunSummary::from_run(&r).row());
        out.push('\n');
    }
    Ok(out)
}

/// `arls trace generate|show|run`.
pub fn trace(args: &Args) -> Result<String, CmdError> {
    match args.subcommand() {
        Some("generate") => {
            let sc = scenario_from(args)?;
            let out_path = args.require("out")?;
            let (_, tasks) = sc.build();
            save_trace(out_path, &tasks)?;
            Ok(format!("wrote {} tasks to {out_path}\n", tasks.len()))
        }
        Some("show") => {
            let path = args
                .positional
                .get(2)
                .ok_or_else(|| CmdError::Other("usage: arls trace show PATH".into()))?;
            let tasks = load_trace(path)?;
            Ok(profile_block(path, &tasks))
        }
        Some("run") => {
            let path = args
                .positional
                .get(2)
                .ok_or_else(|| CmdError::Other("usage: arls trace run PATH".into()))?;
            let tasks = load_trace(path)?;
            if tasks.is_empty() {
                return Err(CmdError::Other("trace is empty".into()));
            }
            let kind = scheduler_from(args)?;
            // The same platform flags as `trace generate`, so a trace made
            // with `--sites N` replays with `--sites N`.
            let sc = scenario_from(args)?;
            let platform = sc.build_platform();
            let sites = platform.num_sites();
            for (i, t) in tasks.iter().enumerate() {
                if t.id.0 != i as u64 {
                    return Err(CmdError::Other(format!(
                        "task {} is record {i}: task ids must be dense from 0 in file order",
                        t.id.0
                    )));
                }
                if t.site.0 as usize >= sites {
                    return Err(CmdError::Other(format!(
                        "task {} names site {}, but the platform has {sites} sites (set --sites)",
                        t.id.0, t.site.0
                    )));
                }
            }
            let rec = recorder_from(args)?;
            let monitor = Monitor {
                recorder: rec.clone(),
                ..Monitor::default()
            };
            let r = runner::run_tasks(platform, tasks, sc.exec, &kind, &monitor);
            let note = finish_recorder(rec.as_deref(), args);
            let mut out = summary_block(&r);
            if let Some(note) = note {
                out.push_str(&note);
            }
            Ok(out)
        }
        _ => Err(CmdError::Other(
            "usage: arls trace <generate|show|run> …".into(),
        )),
    }
}

fn profile_block(path: &str, tasks: &[Task]) -> String {
    let p = WorkloadProfile::from_tasks(tasks);
    let mut out = String::new();
    out.push_str(&format!("trace: {path}\n"));
    out.push_str(&format!("tasks: {}\n", p.total()));
    out.push_str(&format!(
        "priorities: low {} / medium {} / high {}\n",
        p.count_by_priority[0], p.count_by_priority[1], p.count_by_priority[2]
    ));
    out.push_str(&format!(
        "size (MI): mean {:.0}, min {:.0}, max {:.0}\n",
        p.size_mi.mean(),
        p.size_mi.min().unwrap_or(0.0),
        p.size_mi.max().unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "inter-arrival: mean {:.4} (offered ≈ {:.0} MIPS)\n",
        p.interarrival.mean(),
        p.offered_load_mips()
    ));
    out.push_str(&format!(
        "deadline window: mean {:.2}, max {:.2}\n",
        p.deadline_window.mean(),
        p.deadline_window.max().unwrap_or(0.0)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Args {
        Args::parse(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn shards_clamp_to_the_site_count() {
        let sc = Scenario::new(1, 10, 0.5);
        assert_eq!(sc.platform.num_sites, 5);
        let shards = |n: &str| shards_from(&parse(&["simulate", "--shards", n]), &sc).ok();
        assert_eq!(shards("200"), Some(Some(5)));
        assert_eq!(shards("5"), Some(Some(5)));
        assert_eq!(shards("3"), Some(Some(3)));
        assert_eq!(shards_from(&parse(&["simulate"]), &sc).ok(), Some(None));
    }

    #[test]
    fn simulate_produces_a_summary() {
        let out = simulate(&parse(&[
            "simulate",
            "--tasks",
            "120",
            "--offered",
            "0.6",
            "--seed",
            "3",
        ]))
        .expect("simulate");
        assert!(out.contains("Adaptive-RL"));
        assert!(out.contains("aveRT"));
        assert!(!out.contains("WARNING"));
    }

    #[test]
    fn simulate_audit_reports_clean_and_is_inert() {
        let line = [
            "simulate",
            "--tasks",
            "90",
            "--offered",
            "0.6",
            "--seed",
            "7",
        ];
        let plain = simulate(&parse(&line)).expect("plain");
        let mut audited_line = line.to_vec();
        audited_line.push("--audit");
        let audited = simulate(&parse(&audited_line)).expect("audited");
        assert!(
            audited.contains("audit:"),
            "missing audit line in {audited}"
        );
        assert!(audited.contains("clean"), "audit not clean: {audited}");
        assert!(audited.contains("replay: bit-identical"));
        // The oracle is a pure observer: the summary itself is unchanged.
        assert!(
            audited.starts_with(&plain),
            "audit perturbed the summary:\n{audited}\nvs\n{plain}"
        );
    }

    #[test]
    fn simulate_audit_composes_with_faults() {
        let out = simulate(&parse(&[
            "simulate",
            "--tasks",
            "120",
            "--offered",
            "0.6",
            "--seed",
            "11",
            "--audit",
            "--faults",
            "--fault-node-mtbf",
            "120",
            "--fault-node-mttr",
            "30",
        ]))
        .expect("audited fault run");
        assert!(out.contains("faults:"));
        assert!(out.contains("clean"), "audit not clean: {out}");
    }

    #[test]
    fn simulate_csv_dumps_records() {
        let out = simulate(&parse(&[
            "simulate",
            "--tasks",
            "40",
            "--offered",
            "0.6",
            "--seed",
            "3",
            "--csv",
        ]))
        .expect("simulate");
        assert!(out.contains("task,site,node"));
        assert!(out.lines().count() > 40);
    }

    #[test]
    fn compare_lists_all_four() {
        let out = compare(&parse(&[
            "compare",
            "--tasks",
            "100",
            "--offered",
            "0.7",
            "--seed",
            "5",
        ]))
        .expect("compare");
        for name in [
            "Adaptive-RL",
            "Online RL",
            "Q+ learning",
            "Prediction-based learning",
        ] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
        assert!(!out.contains("Round-robin"));
        let with_refs = compare(&parse(&[
            "compare",
            "--tasks",
            "100",
            "--offered",
            "0.7",
            "--seed",
            "5",
            "--references",
        ]))
        .expect("compare");
        assert!(with_refs.contains("Round-robin"));
        assert!(with_refs.contains("Greedy EDF"));
    }

    #[test]
    fn trace_round_trip_through_files() {
        let dir = std::env::temp_dir();
        let path = dir.join("arls_cli_trace_test.bin");
        // to_string_lossy, not to_str().unwrap(): a non-UTF-8 temp dir
        // must not abort the suite before the assertion messages print.
        let path_str = path.to_string_lossy().into_owned();
        let gen = trace(&parse(&[
            "trace", "generate", "--tasks", "60", "--seed", "9", "--out", &path_str,
        ]))
        .expect("generate");
        assert!(gen.contains("60 tasks"));
        let show = trace(&parse(&["trace", "show", &path_str])).expect("show");
        assert!(show.contains("tasks: 60"));
        let run = trace(&parse(&[
            "trace",
            "run",
            &path_str,
            "--scheduler",
            "greedy",
        ]))
        .expect("run");
        assert!(run.contains("Greedy EDF"));
        std::fs::remove_file(&path).ok();
    }

    fn temp_bin(name: &str) -> (std::path::PathBuf, String) {
        let path = std::env::temp_dir().join(format!("arls_cli_{name}_{}.bin", std::process::id()));
        let s = path.to_string_lossy().into_owned();
        (path, s)
    }

    /// Writes one task per `(id, site)` pair as a trace file.
    fn trace_file(name: &str, tasks: &[(u64, u32)]) -> (std::path::PathBuf, String) {
        let tasks: Vec<Task> = tasks
            .iter()
            .enumerate()
            .map(|(i, &(id, site))| Task {
                id: workload::TaskId(id),
                size_mi: 1000.0,
                arrival: simcore::time::SimTime::new(i as f64),
                deadline: simcore::time::SimTime::new(i as f64 + 50.0),
                priority: workload::Priority::Medium,
                site: workload::SiteId(site),
            })
            .collect();
        let (path, path_str) = temp_bin(name);
        save_trace(&path, &tasks).expect("write trace");
        (path, path_str)
    }

    fn run_err(path: &str) -> String {
        trace(&parse(&["trace", "run", path]))
            .expect_err("hostile trace must be rejected")
            .to_string()
    }

    #[test]
    fn trace_with_an_overflowing_record_count_is_rejected() {
        // A valid header declaring ~5e17 records, then 40 body bytes.
        let (path, path_str) = temp_bin("hugecount");
        let mut raw = b"ARLW\x01".to_vec();
        raw.extend(498_560_650_640_798_693u64.to_le_bytes());
        raw.extend([0u8; 40]);
        std::fs::write(&path, &raw).expect("write trace");
        assert!(trace(&parse(&["trace", "show", &path_str])).is_err());
        assert!(run_err(&path_str).contains("truncated"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_run_rejects_non_dense_ids() {
        let (path, path_str) = trace_file("sparse", &[(5, 0), (7, 1)]);
        let err = run_err(&path_str);
        assert!(err.contains("task 5") && err.contains("dense"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_run_rejects_sites_outside_the_platform() {
        for site in [u32::MAX, 2_000_000, 5] {
            let (path, path_str) = trace_file("farsite", &[(0, 0), (1, site)]);
            let err = run_err(&path_str);
            assert!(
                err.contains("task 1") && err.contains(&format!("site {site}")),
                "{err}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn trace_run_replays_on_the_generating_platform() {
        let (path, path_str) = temp_bin("sites8");
        trace(&parse(&[
            "trace", "generate", "--tasks", "80", "--sites", "8", "--out", &path_str,
        ]))
        .expect("generate");
        trace(&parse(&["trace", "run", &path_str, "--sites", "8"])).expect("replay on 8 sites");
        // The default 5-site platform lacks sites 5..8.
        assert!(run_err(&path_str).contains("--sites"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_with_faults_reports_counters() {
        let line = [
            "simulate",
            "--tasks",
            "150",
            "--offered",
            "0.6",
            "--seed",
            "11",
            "--faults",
            "--fault-node-mtbf",
            "120",
            "--fault-node-mttr",
            "30",
            "--fault-proc-mtbf",
            "80",
            "--fault-proc-mttr",
            "15",
        ];
        let out = simulate(&parse(&line)).expect("simulate with faults");
        assert!(out.contains("faults:"), "missing fault line in {out}");
        assert!(out.contains("preemptions:"));
        assert!(
            !out.contains("WARNING"),
            "fault run must still drain: {out}"
        );
        // Seeded injection is deterministic: a second run prints the same.
        assert_eq!(out, simulate(&parse(&line)).expect("repeat run"));
    }

    #[test]
    fn fault_flags_without_enable_change_nothing() {
        let plain = simulate(&parse(&[
            "simulate",
            "--tasks",
            "80",
            "--offered",
            "0.6",
            "--seed",
            "4",
        ]))
        .expect("plain");
        let tuned = simulate(&parse(&[
            "simulate",
            "--tasks",
            "80",
            "--offered",
            "0.6",
            "--seed",
            "4",
            "--fault-node-mtbf",
            "50",
        ]))
        .expect("tuned but disabled");
        assert_eq!(plain, tuned);
        assert!(!plain.contains("faults:"));
    }

    #[test]
    fn bad_fault_flags_are_rejected() {
        // Enabled but no failure source configured.
        assert!(simulate(&parse(&["simulate", "--faults"])).is_err());
        for bad in [
            ["--fault-proc-mtbf", "-1"],
            ["--fault-proc-mttr", "0"],
            ["--fault-node-mttr", "-3"],
            ["--fault-permanent", "1.5"],
            ["--fault-horizon", "0"],
            ["--fault-retries", "many"],
        ] {
            let line = ["simulate", "--faults", "--fault-node-mtbf", "100"];
            let args: Vec<&str> = line.iter().chain(bad.iter()).copied().collect();
            assert!(simulate(&parse(&args)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn bad_inputs_are_reported_not_panicked() {
        assert!(simulate(&parse(&["simulate", "--offered", "0"])).is_err());
        assert!(simulate(&parse(&["simulate", "--tasks", "zebra"])).is_err());
        assert!(trace(&parse(&["trace"])).is_err());
        assert!(trace(&parse(&["trace", "show", "/definitely/not/here.bin"])).is_err());
        assert!(simulate(&parse(&["simulate", "--scheduler", "alien"])).is_err());
        assert!(simulate(&parse(&["simulate", "--sites", "0"])).is_err());
    }

    fn temp_trace(name: &str) -> (std::path::PathBuf, String) {
        let path =
            std::env::temp_dir().join(format!("arls_cli_{name}_{}.json", std::process::id()));
        let s = path.to_string_lossy().into_owned();
        (path, s)
    }

    #[test]
    fn simulate_writes_a_chrome_trace() {
        let (path, path_str) = temp_trace("chrome");
        let out = simulate(&parse(&[
            "simulate",
            "--tasks",
            "80",
            "--offered",
            "0.6",
            "--seed",
            "3",
            "--trace",
            &path_str,
            "--trace-format",
            "chrome",
        ]))
        .expect("traced simulate");
        assert!(out.contains("p50/p95 response:"), "{out}");
        let text = std::fs::read_to_string(&path).expect("trace file");
        let v = telemetry::json::parse(&text).expect("chrome trace must be valid JSON");
        assert!(!v.as_array().expect("array").is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_defaults_to_jsonl_traces() {
        let (path, path_str) = temp_trace("jsonl");
        simulate(&parse(&[
            "simulate",
            "--tasks",
            "60",
            "--offered",
            "0.6",
            "--seed",
            "3",
            "--trace",
            &path_str,
        ]))
        .expect("traced simulate");
        let text = std::fs::read_to_string(&path).expect("trace file");
        assert!(!text.is_empty());
        for line in text.lines() {
            telemetry::json::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tracing_does_not_change_the_run_summary() {
        let line = [
            "simulate",
            "--tasks",
            "70",
            "--offered",
            "0.6",
            "--seed",
            "8",
        ];
        let plain = simulate(&parse(&line)).expect("plain");
        let (path, path_str) = temp_trace("inert");
        let mut traced_line: Vec<&str> = line.to_vec();
        traced_line.extend(["--trace", &path_str, "--trace-level", "all"]);
        let traced = simulate(&parse(&traced_line)).expect("traced");
        std::fs::remove_file(&path).ok();
        assert_eq!(traced, plain, "tracing changed the printed summary");
    }

    #[test]
    fn bad_trace_flags_are_rejected() {
        let (_path, path_str) = temp_trace("bad");
        assert!(simulate(&parse(&[
            "simulate",
            "--trace",
            &path_str,
            "--trace-format",
            "xml"
        ]))
        .is_err());
        assert!(simulate(&parse(&[
            "simulate",
            "--trace",
            &path_str,
            "--trace-level",
            "verbose"
        ]))
        .is_err());
        assert!(simulate(&parse(&["simulate", "--trace"])).is_err());
    }

    #[test]
    fn simulate_checkpoints_and_resume_reproduces_the_summary() {
        let dir = std::env::temp_dir().join(format!("arls_cli_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();
        let line = [
            "simulate",
            "--tasks",
            "90",
            "--offered",
            "0.6",
            "--seed",
            "13",
        ];
        let plain = simulate(&parse(&line)).expect("plain");
        let mut ck_line = line.to_vec();
        ck_line.extend(["--checkpoint-every", "100", "--checkpoint-dir", &dir_str]);
        let ck_out = simulate(&parse(&ck_line)).expect("checkpointed");
        assert!(
            ck_out.starts_with(&plain),
            "checkpointing perturbed the summary:\n{ck_out}\nvs\n{plain}"
        );
        assert!(ck_out.contains("checkpoints:"), "missing note in {ck_out}");
        let mut snaps: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        snaps.sort();
        assert!(!snaps.is_empty(), "no snapshots written");
        let snap_str = snaps[0].to_string_lossy().into_owned();
        let resumed = resume(&parse(&["resume", &snap_str])).expect("resume");
        // The resumed run's summary block must equal the golden's.
        let plain_summary = plain
            .split_once("\n\n")
            .map(|(_, rest)| rest)
            .expect("summary");
        assert!(
            resumed.contains(plain_summary),
            "resumed summary diverged:\n{resumed}\nvs\n{plain_summary}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_checkpoint_flags_are_rejected() {
        assert!(simulate(&parse(&["simulate", "--checkpoint-every", "50"])).is_err());
        assert!(simulate(&parse(&["simulate", "--checkpoint-dir", "/tmp/x"])).is_err());
        assert!(simulate(&parse(&[
            "simulate",
            "--checkpoint-every",
            "50",
            "--checkpoint-dir",
            "/tmp/arls_cli_ck_audit",
            "--audit"
        ]))
        .is_err());
        // Missing and corrupt snapshots surface as errors, not panics.
        assert!(resume(&parse(&["resume"])).is_err());
        assert!(resume(&parse(&["resume", "/definitely/not/here.snap"])).is_err());
        let junk = std::env::temp_dir().join(format!("arls_cli_junk_{}.snap", std::process::id()));
        std::fs::write(&junk, b"not a snapshot at all").expect("write junk");
        let junk_str = junk.to_string_lossy().into_owned();
        assert!(resume(&parse(&["resume", &junk_str])).is_err());
        let _ = std::fs::remove_file(&junk);
    }

    #[test]
    fn trace_run_accepts_a_recorder() {
        let dir = std::env::temp_dir();
        let bin = dir.join(format!("arls_cli_rerun_{}.bin", std::process::id()));
        let bin_str = bin.to_string_lossy().into_owned();
        trace(&parse(&[
            "trace", "generate", "--tasks", "50", "--seed", "9", "--out", &bin_str,
        ]))
        .expect("generate");
        let (path, path_str) = temp_trace("rerun");
        let out = trace(&parse(&[
            "trace",
            "run",
            &bin_str,
            "--trace",
            &path_str,
            "--trace-format",
            "chrome",
        ]))
        .expect("traced replay");
        assert!(out.contains("p50/p95 response:"), "{out}");
        let text = std::fs::read_to_string(&path).expect("trace file");
        assert!(telemetry::json::parse(&text).is_ok());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn monitoring_is_inert_and_writes_artifacts() {
        let line = [
            "simulate",
            "--tasks",
            "80",
            "--offered",
            "0.6",
            "--seed",
            "21",
        ];
        let plain = simulate(&parse(&line)).expect("plain");
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let metrics = dir.join(format!("arls_cli_mon_{pid}.prom"));
        let series = dir.join(format!("arls_cli_mon_{pid}.jsonl"));
        let profile = dir.join(format!("arls_cli_mon_{pid}_profile.json"));
        let (m_str, s_str, p_str) = (
            metrics.to_string_lossy().into_owned(),
            series.to_string_lossy().into_owned(),
            profile.to_string_lossy().into_owned(),
        );
        let mut mon_line = line.to_vec();
        mon_line.extend([
            "--metrics-out",
            &m_str,
            "--timeseries",
            &s_str,
            "--sample-every",
            "25",
            "--profile",
            "--profile-out",
            &p_str,
        ]);
        let monitored = simulate(&parse(&mon_line)).expect("monitored");
        // Monitoring is an observer: the run summary itself is unchanged.
        assert!(
            monitored.starts_with(&plain),
            "monitoring perturbed the summary:\n{monitored}\nvs\n{plain}"
        );
        assert!(monitored.contains("profile (instrumented phases):"));
        assert!(monitored.contains("event_handle"));

        let prom = std::fs::read_to_string(&metrics).expect("metrics dump");
        assert!(prom.contains("# TYPE arls_tasks_completed_total counter"));
        assert!(prom.contains("arls_site_power_watts{site=\"0\"}"));

        let ts = std::fs::read_to_string(&series).expect("timeseries");
        let mut lines = ts.lines();
        let meta = telemetry::json::parse(lines.next().expect("meta line")).expect("meta JSON");
        assert_eq!(
            meta.path(&["meta", "sample_every"])
                .and_then(|v| v.as_f64()),
            Some(25.0)
        );
        let mut points = 0;
        for line in lines {
            let v = telemetry::json::parse(line).unwrap_or_else(|e| panic!("bad {line}: {e}"));
            assert!(v.get("t").and_then(|t| t.as_f64()).is_some());
            points += 1;
        }
        assert!(points > 0, "no sample points in {ts}");

        let prof = std::fs::read_to_string(&profile).expect("profile artifact");
        let v = telemetry::json::parse(&prof).expect("profile JSON");
        assert_eq!(
            v.get("phases").and_then(|p| p.as_array()).map(|a| a.len()),
            Some(telemetry::PHASES.len())
        );
        for p in [&metrics, &series, &profile] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn audit_composes_with_a_live_metrics_endpoint() {
        // The acceptance path: an audited run with a live /metrics
        // listener stays clean and replays bit-identically.
        let out = simulate(&parse(&[
            "simulate",
            "--tasks",
            "70",
            "--offered",
            "0.6",
            "--seed",
            "9",
            "--audit",
            "--metrics-addr",
            "127.0.0.1:0",
        ]))
        .expect("audited monitored run");
        assert!(out.contains("clean"), "audit not clean: {out}");
        assert!(out.contains("replay: bit-identical"));
    }

    #[test]
    fn saturated_timeseries_ring_warns_about_dropped_points() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let series = dir.join(format!("arls_cli_dropped_{pid}.jsonl"));
        let s_str = series.to_string_lossy().into_owned();
        let out = simulate(&parse(&[
            "simulate",
            "--tasks",
            "120",
            "--offered",
            "0.6",
            "--seed",
            "5",
            "--timeseries",
            &s_str,
            "--sample-every",
            "5",
            "--sample-capacity",
            "2",
        ]))
        .expect("sampled simulate");
        assert!(
            out.contains("WARNING: time series ring saturated"),
            "missing dropped-points warning in {out}"
        );
        assert!(out.contains("--sample-capacity"), "no remedy hint in {out}");
        // The truncated file still exists, with its meta line carrying
        // the drop count.
        let text = std::fs::read_to_string(&series).expect("series file");
        let meta = telemetry::json::parse(text.lines().next().unwrap()).expect("meta");
        let dropped = meta
            .path(&["meta", "dropped"])
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(dropped > 0.0, "expected drops, meta says {dropped}");
        std::fs::remove_file(&series).ok();

        // A roomy ring on the same run stays warning-free.
        let out = simulate(&parse(&[
            "simulate",
            "--tasks",
            "120",
            "--offered",
            "0.6",
            "--seed",
            "5",
            "--timeseries",
            &s_str,
            "--sample-every",
            "5",
        ]))
        .expect("sampled simulate");
        assert!(
            !out.contains("ring saturated"),
            "unexpected warning in {out}"
        );
        std::fs::remove_file(&series).ok();
    }

    #[test]
    fn bad_monitoring_flags_are_rejected() {
        assert!(simulate(&parse(&["simulate", "--metrics-addr"])).is_err());
        assert!(simulate(&parse(&["simulate", "--metrics-out"])).is_err());
        assert!(simulate(&parse(&["simulate", "--timeseries"])).is_err());
        assert!(simulate(&parse(&[
            "simulate",
            "--timeseries",
            "/tmp/ts.jsonl",
            "--sample-every",
            "0"
        ]))
        .is_err());
        assert!(simulate(&parse(&[
            "simulate",
            "--timeseries",
            "/tmp/ts.jsonl",
            "--sample-capacity",
            "0"
        ]))
        .is_err());
        // Monitoring does not compose with checkpointing.
        assert!(simulate(&parse(&[
            "simulate",
            "--checkpoint-every",
            "50",
            "--checkpoint-dir",
            "/tmp/arls_cli_ck_mon",
            "--profile"
        ]))
        .is_err());
    }

    #[test]
    fn uncreatable_trace_path_is_a_typed_error() {
        // Parent of the trace path is a *file*, so creation must fail with
        // CmdError::Io — before the run starts, never a panic.
        let blocker = std::env::temp_dir().join(format!("arls_cli_blk_{}", std::process::id()));
        std::fs::write(&blocker, b"file, not dir").expect("blocker");
        let path = blocker.join("trace.jsonl");
        let path_str = path.to_string_lossy().into_owned();
        let err = simulate(&parse(&["simulate", "--tasks", "40", "--trace", &path_str]))
            .expect_err("trace into a file's child must fail");
        assert!(matches!(err, CmdError::Io(_)), "wrong error: {err}");
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn full_disk_warns_but_keeps_the_summary() {
        // /dev/full accepts the open but fails every write with ENOSPC —
        // exactly the disk-full mid-run case. Linux-only; skip elsewhere.
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let out = simulate(&parse(&[
            "simulate",
            "--tasks",
            "40",
            "--seed",
            "5",
            "--trace",
            "/dev/full",
        ]))
        .expect("run must survive a full disk");
        assert!(out.contains("aveRT"), "summary lost: {out}");
        assert!(
            out.contains("WARNING: trace file /dev/full is incomplete"),
            "missing warning: {out}"
        );
    }
}
