//! The `serve-open` workload: the `arls serve` daemon as a child process,
//! driven by the benchmark's own open-loop generator.
//!
//! The daemon runs its default policy (Adaptive RL) on the default
//! platform. One connection carries single-task submissions at [`RATE`] per
//! second; at [`PACE`] the simulated platform runs at about a third of its
//! capacity, so every deadline is met and the backlog stays flat. The
//! daemon is observed from outside only: CPU time and peak memory from
//! `/proc`, counters from its `/metrics` endpoint. Afterwards the same
//! admissions are replayed in process through `ScheduleSession`: the
//! daemon's notifications must equal the replay's, the replay's
//! `RunResult` gives the `sim_*` metrics, and timed replays give
//! `tasks_per_ref`. The traced run times the replay layer by layer.

use crate::batch::{seeded_adaptive, CoreAcc};
use crate::decor::{self, Sink, Timed};
use crate::kernel;
use crate::loadgen::{self, Load, Schedule};
use crate::report::{emit_ack, peak_rss_mb, Report, SimTotals, Windows};
use crate::stats;
use crate::Opts;
use adaptive_rl::{AdaptiveRl, AdaptiveRlConfig};
use experiments::Scenario;
use platform::{ExecEngine, Platform, RunResult, ScheduleSession, Scheduler, SessionEvent};
use simcore::{RngStream, SimTime};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::PhaseProfiler;
use workload::submit::{Notification, Submission, SubmitTask};
use workload::{Priority, SiteId};

/// Simulated time units per wall second (`arls serve --pace`).
const PACE: f64 = 200.0;
/// Submissions per wall second. Twice a submission per millisecond keeps
/// the daemon from parking twice between two of them, so the ack tail
/// measures the daemon's work rather than its idle back-off.
const RATE: f64 = 2000.0;
/// The daemon's `--seed`: its platform and scheduler are the same in every
/// run, and `--seed` varies only the submissions it receives.
const DAEMON_SEED: u64 = 2011;
/// Relative deadline of every task, in simulated time units.
const DEADLINE: f64 = 60.0;
/// Sites of the default platform; submissions visit them round-robin.
const SITES: u32 = 5;
/// Daemon start-ups per run; `setup_s` is their median, each at the
/// reference start-up's nominal duration.
const SPAWNS: usize = 41;
/// Seconds of a [`reference_start`] on the host this benchmark was defined
/// on, at its usual speed.
const NOMINAL_START_S: f64 = 1.0e-3;
/// Submissions per latency window: half a second's worth, which leaves
/// exactly ten acks beyond a window's p99.
const WINDOW: usize = (RATE / 2.0) as usize;
/// Timed in-process replays behind `tasks_per_ref`, the median over them.
const REPLAYS: usize = 3;
/// Admissions per timed stretch of a replay. Each stretch is timed between
/// two kernel runs and takes a few times as long as one, so both see the
/// same host speed; a replay's admissions per kernel run sum its stretches.
const STRETCH: usize = 1000;
/// How long after the last send every admitted task must have resolved.
const DRAIN: Duration = Duration::from_secs(20);
/// The readiness probe. It is no submission, so the daemon answers it with
/// a reject, which it can only do once its serve loop is running.
const PROBE: &str = "{\"probe\":\"ready\"}\n";

/// The run's submissions, each rendered with its newline: single tasks with
/// the paper's 600-7200 MI sizes drawn from `seed`, priorities and sites
/// round-robin.
fn submission_lines(seed: u64, n: usize) -> Vec<String> {
    let mut rng = RngStream::root(seed).derive("perfbench-serve");
    let priorities = [Priority::High, Priority::Medium, Priority::Low];
    (0..n)
        .map(|i| {
            let task = SubmitTask {
                size_mi: rng.uniform(600.0, 7200.0),
                deadline: DEADLINE,
                priority: priorities[i % 3],
                site: SiteId(i as u32 % SITES),
            };
            let mut line = Submission {
                id: i as u64,
                tasks: vec![task],
            }
            .render_line();
            line.push('\n');
            line
        })
        .collect()
}

/// A running daemon. Dropping it kills and reaps the process, so no exit
/// path of the benchmark leaves it behind.
struct Daemon {
    child: Child,
    metrics_addr: String,
    /// The ingest connection, past the readiness probe.
    conn: Option<TcpStream>,
    /// Seconds from spawning the process to the probe's answer.
    ready_s: f64,
}

impl Daemon {
    fn start(opts: &Opts, arls: &Path, k: usize) -> Result<Daemon, String> {
        let ports = opts.run_dir.join(format!("serve-{k}.ports"));
        let _ = std::fs::remove_file(&ports);
        let log_path = opts.run_dir.join(format!("serve-{k}.log"));
        let log =
            std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
        // Should this process die first, the daemon still exits by itself.
        let lifetime = opts.seconds.as_secs_f64() + 120.0;
        let ingest = free_port()?;
        let t0 = Instant::now();
        let child = Command::new(arls)
            .args([
                "serve",
                "--listen",
                &ingest,
                "--metrics-addr",
                "127.0.0.1:0",
            ])
            .args([
                "--pace",
                &PACE.to_string(),
                "--seed",
                &DAEMON_SEED.to_string(),
            ])
            .args(["--run-for-secs", &lifetime.to_string(), "--port-file"])
            .arg(&ports)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", arls.display()))?;
        let mut daemon = Daemon {
            child,
            metrics_addr: String::new(),
            conn: None,
            ready_s: 0.0,
        };
        let mut conn = daemon.connect(&ingest)?;
        conn.write_all(PROBE.as_bytes())
            .map_err(|e| format!("probe: {e}"))?;
        let answer = read_line(&mut conn)?;
        if !matches!(
            Notification::parse_line(&answer),
            Ok(Notification::Reject { .. })
        ) {
            return Err(format!("the daemon answered the probe with {answer:?}"));
        }
        daemon.ready_s = t0.elapsed().as_secs_f64();
        daemon.conn = Some(conn);
        // The daemon writes its port file before its serve loop starts.
        let text =
            std::fs::read_to_string(&ports).map_err(|e| format!("{}: {e}", ports.display()))?;
        let field = |key: &str| text.lines().find_map(|l| l.strip_prefix(key));
        if field("ingest ") != Some(ingest.as_str()) {
            return Err(format!("the daemon does not listen on {ingest}: {text:?}"));
        }
        daemon.metrics_addr = field("metrics ")
            .ok_or_else(|| format!("{} names no metrics address", ports.display()))?
            .to_string();
        Ok(daemon)
    }

    /// Connects to `addr` as soon as the daemon listens there. The probe
    /// then waits in the socket for the serve loop's first pass: a probe
    /// that came after it would wait out the daemon's idle park of a
    /// millisecond and more, and a start-up would take one of two durations
    /// a millisecond apart, depending on a race.
    fn connect(&mut self, addr: &str) -> Result<TcpStream, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match TcpStream::connect(addr) {
                Ok(conn) => return Ok(conn),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {}
                Err(e) => return Err(format!("connect {addr}: {e}")),
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "the daemon exited during start-up ({status}); its log is in the run directory"
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("the daemon did not listen on {addr} within 30 s"));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// A loopback address with a port free at the time of the call, for the
/// daemon to listen on: knowing it in advance, the benchmark can connect
/// before the daemon's port file is written.
fn free_port() -> Result<String, String> {
    let probe = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("no free port: {e}"))?;
    let addr = probe
        .local_addr()
        .map_err(|e| format!("no free port: {e}"))?;
    Ok(addr.to_string())
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Seconds from spawning a process of this benchmark's own binary that
/// exits at once ([`crate::REFERENCE_START`]) to its exit.
///
/// A daemon start-up is mostly process creation and loading. On the host
/// this benchmark was defined on, its speed moved by half between runs,
/// and scaled by compute-kernel runs it spread more, not less. Timed next
/// to this reference start-up, the daemon's start-up is reported at the
/// reference's nominal duration, [`NOMINAL_START_S`]: the host's speed
/// divides out, the daemon's own start-up work does not.
fn reference_start() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("this benchmark's binary: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(&exe)
        .arg(crate::REFERENCE_START)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    // Waits as for the daemon's answer, so that the wake-up of this thread
    // counts in both alike.
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the reference start-up: {e}"))?;
    if !status.success() {
        return Err(format!("the reference start-up exited with {status}"));
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Reads one line: the probe's answer, the only line the daemon sends
/// before the first submission.
fn read_line(conn: &mut TcpStream) -> Result<String, String> {
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while byte[0] != b'\n' {
        match conn.read(&mut byte) {
            Ok(1) => line.push(byte[0]),
            Ok(_) => return Err("the daemon closed the connection during start-up".into()),
            Err(e) => return Err(format!("waiting for the daemon: {e}")),
        }
    }
    conn.set_read_timeout(None).map_err(|e| e.to_string())?;
    Ok(String::from_utf8_lossy(&line).trim().to_string())
}

/// CPU time of every thread of process `pid`, in nanoseconds: the first
/// field of each `/proc/<pid>/task/<tid>/schedstat`, which counts
/// nanoseconds where `/proc/<pid>/stat` counts 10 ms ticks.
fn cpu_ns(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = 0;
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let path = entry
            .map_err(|e| format!("{dir}: {e}"))?
            .path()
            .join("schedstat");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        total += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{} holds no CPU time", path.display()))?;
    }
    Ok(total)
}

/// The daemon's `/metrics` exposition.
fn scrape(addr: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("scrape: {e}"))?;
    let mut body = String::new();
    s.read_to_string(&mut body)
        .map_err(|e| format!("scrape: {e}"))?;
    Ok(body)
}

/// The value of the unlabelled sample `name` in an exposition.
fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|l| {
        let mut fields = l.split_whitespace();
        (fields.next() == Some(name))
            .then(|| fields.next()?.parse().ok())
            .flatten()
    })
}

/// What the load window showed.
struct Observed {
    lines: Vec<String>,
    /// Seconds to generate the submission lines: the task stream.
    lines_s: f64,
    /// The median start-up, at the reference start-up's nominal duration.
    setup_s: f64,
    load: Load,
    /// Wall seconds of the load window: first send to last notice.
    window_s: f64,
    /// Daemon CPU seconds over the load window.
    cpu_s: f64,
    rss_mb: f64,
    exposition: String,
}

/// Runs `serve-open`.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let arls = opts.arls.as_deref().ok_or("serve-open needs --arls PATH")?;
    let mut rep = Report::default();
    let obs = observe(opts, arls)?;
    check_load(&mut rep, &obs.load, &obs.exposition);
    rep.note(format!(
        "{} submissions at {RATE}/s, {} acked; daemon CPU {:.4} s",
        obs.load.sent, obs.load.acked, obs.cpu_s
    ));
    let plain = match replay(&obs.lines, &obs.load, None, None) {
        Ok(r) => r,
        Err(e) => {
            rep.problem(format!("replay: {e}"));
            return Ok(rep);
        }
    };
    same_lines(&mut rep, &obs.load.task_lines, &plain.lines, "replay");
    if opts.trace {
        traced(&mut rep, &obs, &plain);
    } else {
        let resolved = obs.load.resolved.len() as f64;
        // The offered rate while the daemon keeps up, less once it falls
        // behind.
        rep.metric("tasks_per_s", resolved / obs.window_s);
        // The serving path's capacity in units of the host's speed: the
        // admissions replayed in process, as the daemon handles them but
        // without its sockets, in stretches timed between kernel runs.
        let mut refs = Vec::with_capacity(REPLAYS);
        for _ in 0..REPLAYS {
            let mut stretches = Vec::new();
            replay(&obs.lines, &obs.load, None, Some(&mut stretches))?;
            let kernel_runs: f64 = stretches.iter().sum();
            refs.push((STRETCH * stretches.len()) as f64 / kernel_runs);
        }
        rep.metric(
            "tasks_per_ref",
            stats::median(&refs).expect("REPLAYS replays"),
        );
        rep.note(format!(
            "{REPLAYS} timed replays in stretches of {STRETCH} admissions: {refs:.2?} tasks/ref"
        ));
        rep.metric("setup_s", obs.setup_s);
        rep.metric("peak_rss_mb", obs.rss_mb);
        // Windows of submissions by due time, each with ten acks beyond its
        // p99.
        let mut ack_ms = obs.load.ack_ms.clone();
        ack_ms.sort_by_key(|a| a.0);
        let mut acks = Windows::default();
        for window in ack_ms.chunk_by(|a, b| a.0 / WINDOW == b.0 / WINDOW) {
            acks.add(window.iter().map(|a| a.1));
            acks.close();
        }
        emit_ack(&mut rep, &[acks]);
        let mut sim = SimTotals::default();
        sim.add(&plain.result);
        sim.emit(&mut rep);
    }
    Ok(rep)
}

/// Starts the daemons, drives the load window, and reads the daemon's CPU
/// time, peak memory and counters before stopping it.
fn observe(opts: &Opts, arls: &Path) -> Result<Observed, String> {
    let t0 = Instant::now();
    let n = (RATE * opts.seconds.as_secs_f64()).round() as usize;
    let lines = submission_lines(opts.seed, n);
    let lines_s = t0.elapsed().as_secs_f64();
    // Set-up samples: throwaway start-ups, then the daemon under load, each
    // between two reference start-ups.
    let mut setup = Vec::with_capacity(SPAWNS);
    let mut daemon = None;
    for k in (0..SPAWNS).rev() {
        // Stops the previous start-up's daemon.
        drop(daemon.take());
        let before = reference_start()?;
        let d = Daemon::start(opts, arls, k)?;
        let after = reference_start()?;
        setup.push(d.ready_s * NOMINAL_START_S / ((before + after) / 2.0));
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("SPAWNS start-ups");
    let setup_s = stats::median(&setup).expect("SPAWNS start-ups");
    let pid = daemon.child.id();
    let conn = daemon
        .conn
        .take()
        .expect("a started daemon holds its connection");
    let cpu0 = cpu_ns(pid)?;
    let window = Instant::now();
    let load = loadgen::drive(conn, &Schedule::new(RATE), &lines, DRAIN)
        .map_err(|e| format!("load generator: {e}"))?;
    let window_s = window.elapsed().as_secs_f64();
    let cpu_s = cpu_ns(pid)?.saturating_sub(cpu0) as f64 / 1e9;
    let exposition = scrape(&daemon.metrics_addr)?;
    let rss_mb = peak_rss_mb(Some(pid))?;
    drop(daemon);
    Ok(Observed {
        lines,
        lines_s,
        setup_s,
        load,
        window_s,
        cpu_s,
        rss_mb,
        exposition,
    })
}

/// Every submission answered with an ack, every admitted task placed once
/// and resolved once, and the acks equal to the daemon's own count.
fn check_load(rep: &mut Report, load: &Load, exposition: &str) {
    let unanswered = load.sent.saturating_sub(load.acked + load.rejected);
    let broken = load
        .admitted
        .iter()
        .flatten()
        .filter(|(_, task)| {
            load.placed.get(task) != Some(&1) || load.resolved.get(task) != Some(&1)
        })
        .count();
    rep.attempted += load.sent as u64;
    rep.failed += (load.rejected + unanswered + broken + load.failed_tasks) as u64;
    rep.check(load.rejected == 0 && unanswered == 0, || {
        format!(
            "{} of {} submissions rejected and {unanswered} unanswered",
            load.rejected, load.sent
        )
    });
    rep.check(broken == 0, || {
        format!("{broken} admitted tasks lack exactly one placed and one done/failed notice")
    });
    rep.check(load.failed_tasks == 0, || {
        format!("{} tasks failed", load.failed_tasks)
    });
    rep.check(load.stray == 0, || {
        format!("{} stray lines from the daemon", load.stray)
    });
    let scraped = metric_value(exposition, "arls_ingest_submissions_total");
    rep.check(scraped == Some(load.acked as f64), || {
        format!(
            "{} acks, but /metrics counts {scraped:?} submissions",
            load.acked
        )
    });
}

/// Checks that two notification streams hold the same lines; the order
/// within one sweep is not part of the protocol.
fn same_lines(rep: &mut Report, daemon: &[String], replay: &[String], what: &str) {
    let mut a = daemon.to_vec();
    a.sort_unstable();
    let mut b = replay.to_vec();
    b.sort_unstable();
    if a != b {
        let first = a.iter().zip(&b).find(|(x, y)| x != y);
        rep.problem(format!(
            "{what}: the daemon sent {} task notices, the replay {}; first difference {first:?}",
            a.len(),
            b.len()
        ));
    }
}

/// Per-call timings of the traced replay, in nanoseconds.
#[derive(Default)]
struct Timings {
    parse_ns: Vec<f64>,
    submit_ns: Vec<f64>,
    advance_ns: Vec<f64>,
    render_ns: Vec<f64>,
}

/// What replaying a run's admissions in process produced.
struct Replayed {
    /// Placed, done and failed lines, rendered as the daemon renders them.
    lines: Vec<String>,
    result: RunResult,
    /// Seconds from the first advance to the last; set-up excluded.
    wall_s: f64,
    platform_s: f64,
    sched_s: f64,
}

/// Replays the admissions `load` observed, the same submission lines at the
/// same simulated instants, through a `ScheduleSession` built as `arls
/// serve` builds its own. With `trace`, the scheduler is decorated and
/// profiled and every call into the session layer is timed. With `refs`,
/// the replay runs in timed stretches of [`STRETCH`] admissions, each
/// between two kernel runs, and every whole stretch's duration in kernel
/// runs (its seconds over the mean of the two kernel times) is pushed onto
/// `refs`.
fn replay(
    lines: &[String],
    load: &Load,
    trace: Option<(&Sink, &Arc<PhaseProfiler>, &mut Timings)>,
    refs: Option<&mut Vec<f64>>,
) -> Result<Replayed, String> {
    let seed = DAEMON_SEED;
    let mut sc = Scenario::new(seed, 0, 1.0);
    // As in `arls serve`: a daemon has no batch horizon.
    sc.exec.max_time = 1.0e15;
    let t0 = Instant::now();
    let platform = sc.build_platform();
    let t1 = Instant::now();
    let sched = AdaptiveRl::new(
        platform.num_sites(),
        seeded_adaptive(AdaptiveRlConfig::default(), seed),
    );
    let sched_s = t1.elapsed().as_secs_f64();
    let exec = ExecEngine::new(sc.exec);
    let (out, result, wall_s) = match trace {
        None => {
            let mut sched = sched;
            drive_session(&mut sched, &exec, platform, lines, load, None, refs)?
        }
        Some((sink, prof, timings)) => {
            let mut timed = Timed::new(Box::new(sched.with_profiler(prof.clone())), sink.clone());
            drive_session(
                &mut timed,
                &exec,
                platform,
                lines,
                load,
                Some(timings),
                refs,
            )?
        }
    };
    Ok(Replayed {
        lines: out,
        result,
        wall_s,
        platform_s: (t1 - t0).as_secs_f64(),
        sched_s,
    })
}

fn drive_session<S: Scheduler>(
    sched: &mut S,
    exec: &ExecEngine,
    platform: Platform,
    lines: &[String],
    load: &Load,
    mut timings: Option<&mut Timings>,
    mut refs: Option<&mut Vec<f64>>,
) -> Result<(Vec<String>, RunResult, f64), String> {
    let mut session = ScheduleSession::new(exec, platform, sched);
    let mut events = Vec::new();
    let mut out = Vec::with_capacity(2 * lines.len());
    let mut last = 0.0;
    let start = Instant::now();
    // The open stretch: its kernel run before, its start, its admissions.
    let mut stretch = refs
        .is_some()
        .then(|| (kernel::time_kernel(1, 1), Instant::now(), 0));
    for (i, line) in lines.iter().enumerate() {
        if let (Some(refs), Some((k0, t0, n))) = (refs.as_deref_mut(), stretch.as_mut()) {
            if *n == STRETCH {
                let wall = t0.elapsed().as_secs_f64();
                let k1 = kernel::time_kernel(1, 1);
                refs.push(wall / ((*k0 + k1) / 2.0));
                (*k0, *t0, *n) = (k1, Instant::now(), 0);
            }
            *n += 1;
        }
        // Only what the daemon admitted; the rest has failed the run already.
        let Some((at, task)) = load.admitted[i] else {
            continue;
        };
        last = at;
        let t = clock(&timings);
        session.advance_to(SimTime::new(at), &mut events);
        lap(&mut timings, t, |x| &mut x.advance_ns);
        render(&mut events, &mut out, &mut timings);
        let t = clock(&timings);
        let sub = Submission::parse_line(line.trim_end())
            .map_err(|e| format!("submission {i} does not parse: {e}"))?;
        lap(&mut timings, t, |x| &mut x.parse_ns);
        let t = clock(&timings);
        let (admitted, ids) = session
            .submit(&sub.tasks)
            .map_err(|e| format!("submission {i} refused: {e}"))?;
        lap(&mut timings, t, |x| &mut x.submit_ns);
        if admitted.as_f64() != at || ids.iter().map(|id| id.0).ne([task]) {
            return Err(format!(
                "submission {i}: the daemon admitted task {task} at {at}, the replay {ids:?} at {}",
                admitted.as_f64()
            ));
        }
        let t = clock(&timings);
        let ack = Notification::Ack {
            id: sub.id,
            tasks: vec![task],
            t: at,
        }
        .render_line();
        lap(&mut timings, t, |x| &mut x.render_ns);
        std::hint::black_box(ack);
    }
    // Run on until every admitted task has resolved.
    let t = clock(&timings);
    session.advance_to(SimTime::new(last + 1.0e9), &mut events);
    lap(&mut timings, t, |x| &mut x.advance_ns);
    render(&mut events, &mut out, &mut timings);
    let wall_s = start.elapsed().as_secs_f64();
    Ok((out, session.finish(), wall_s))
}

/// Renders session events as the daemon does.
fn render(
    events: &mut Vec<SessionEvent>,
    out: &mut Vec<String>,
    timings: &mut Option<&mut Timings>,
) {
    for ev in events.drain(..) {
        let n = match ev {
            SessionEvent::Placed { task, node, at } => Notification::Placed {
                task: task.0,
                site: node.site.0,
                node: node.node,
                t: at.as_f64(),
            },
            SessionEvent::Done { task, met, at } => Notification::Done {
                task: task.0,
                met,
                t: at.as_f64(),
            },
            SessionEvent::Failed { task, at } => Notification::Failed {
                task: task.0,
                t: at.as_f64(),
            },
        };
        let t = clock(timings);
        let line = n.render_line();
        lap(timings, t, |x| &mut x.render_ns);
        out.push(line);
    }
}

/// The current instant when timing, so the untimed replay reads no clock.
fn clock(timings: &Option<&mut Timings>) -> Option<Instant> {
    timings.as_ref().map(|_| Instant::now())
}

fn lap(
    timings: &mut Option<&mut Timings>,
    t0: Option<Instant>,
    field: fn(&mut Timings) -> &mut Vec<f64>,
) {
    if let (Some(t), Some(t0)) = (timings.as_deref_mut(), t0) {
        field(t).push(t0.elapsed().as_nanos() as f64);
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The traced run's per-layer metrics: the daemon seen from outside, and
/// the replay timed layer by layer.
fn traced(rep: &mut Report, obs: &Observed, plain: &Replayed) {
    let sink = Sink::default();
    let prof = Arc::new(PhaseProfiler::new());
    let mut timings = Timings::default();
    let tr = match replay(
        &obs.lines,
        &obs.load,
        Some((&sink, &prof, &mut timings)),
        None,
    ) {
        Ok(r) => r,
        Err(e) => return rep.problem(format!("traced replay: {e}")),
    };
    same_lines(rep, &obs.load.task_lines, &tr.lines, "traced replay");
    if let Some(d) = platform::replay_divergence(&plain.result, &tr.result) {
        rep.problem(format!(
            "the traced replay diverged from the plain one: {d}"
        ));
    }
    let stats = decor::take(&sink);
    let r = &tr.result;
    let events = r.events_processed as f64;
    let self_s = timings.advance_ns.iter().sum::<f64>() / 1e9 - stats.total_ns() as f64 / 1e9;
    rep.metric("setup.platform_s", tr.platform_s);
    rep.metric("setup.tasks_s", obs.lines_s);
    rep.metric("setup.sched_init_s", tr.sched_s);
    rep.metric("simcore.events", events);
    rep.metric("simcore.max_queue", r.max_queue_occupancy as f64);
    rep.metric("engine.self_s", self_s);
    rep.metric("engine.ns_per_event", self_s / events * 1e9);
    rep.metric("engine.rejections", r.rejections as f64);
    rep.metric("engine.split_starts", r.split_starts as f64);
    let mut core = CoreAcc::default();
    core.add(stats, &prof.report());
    core.emit(rep, 1.0);
    rep.metric("submit.parse_us", mean(&timings.parse_ns) / 1e3);
    rep.metric("submit.render_us", mean(&timings.render_ns) / 1e3);
    for (p50, p99, samples) in [
        (
            "session.submit_us_p50",
            "session.submit_us_p99",
            &timings.submit_ns,
        ),
        (
            "session.advance_us_p50",
            "session.advance_us_p99",
            &timings.advance_ns,
        ),
    ] {
        let sorted = stats::sorted(samples.clone());
        if let (Some(a), Some(b)) = (
            stats::nearest_rank(&sorted, 50.0),
            stats::tail(&sorted, 99.0),
        ) {
            rep.metric(p50, a / 1e3);
            rep.metric(p99, b / 1e3);
        }
    }
    rep.metric(
        "serve.cpu_ms_per_1k",
        obs.cpu_s * 1e3 / (obs.load.sent as f64 / 1e3),
    );
    for (metric, name) in [
        ("serve.notifications", "arls_ingest_notifications_total"),
        ("serve.ingest_submissions", "arls_ingest_submissions_total"),
    ] {
        match metric_value(&obs.exposition, name) {
            Some(v) => rep.metric(metric, v),
            None => rep.problem(format!("/metrics has no {name}")),
        }
    }
    if let Some(v) = stats::tail(&stats::sorted(obs.load.late_ms.clone()), 99.0) {
        rep.metric("loadgen.late_ms_p99", v);
    }
    rep.metric(
        "trace.overhead_pct",
        (tr.wall_s / plain.wall_s - 1.0) * 100.0,
    );
}
