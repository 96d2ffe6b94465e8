//! Load driver for the `arls serve` daemon.
//!
//! Connects to a serving daemon's ingest socket, replays a synthetic
//! workload as [`workload::submit`] submissions at a configurable rate,
//! and reports achieved throughput plus ack-latency quantiles (wall time
//! from writing the submission line to reading its ack/reject line). A
//! thread of its own reads the daemon's lines as they arrive, so an ack is
//! timed when it is read, not when the sending loop next looks.
//!
//! Three replay shapes:
//!
//! * `open` (default) — open-loop: submissions fire on a fixed wall
//!   schedule of `--rate` submissions/second regardless of responses,
//!   the shape that exposes scheduler latency under pressure;
//! * `closed` — closed-loop: at most `--outstanding` submissions are
//!   un-acked at any instant, the next fires when an ack returns;
//! * `diurnal` — open-loop with the rate modulated sinusoidally between
//!   ~0 and 2×`--rate` over `--period` seconds, a compressed version of
//!   the day/night pattern the paper's energy argument targets.
//!
//! ```text
//! cargo run --release -p arl-experiments --bin load_driver -- \
//!     --addr 127.0.0.1:7171 --submissions 200 --rate 50 --mode open
//! ```

use simcore::rng::RngStream;
use simcore::stats::quantile;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workload::submit::{Notification, Submission, SubmitTask};
use workload::{Priority, SiteId};

struct Options {
    addr: String,
    mode: Mode,
    /// Total submissions to send.
    submissions: u64,
    /// Tasks per submission.
    group: usize,
    /// Submissions per second (open/diurnal mean rate).
    rate: f64,
    /// Closed-loop window.
    outstanding: usize,
    /// Diurnal period in wall seconds.
    period: f64,
    /// Relative deadline attached to every task (sim time units).
    deadline: f64,
    /// Number of sites to spread submissions over (round-robin).
    sites: u32,
    seed: u64,
    /// Wall time to wait for the next notification when nothing can be
    /// sent: after the last submission, or with a full closed-loop window.
    drain_secs: f64,
}

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Open,
    Closed,
    Diurnal,
}

fn usage() -> ! {
    eprintln!(
        "usage: load_driver --addr HOST:PORT [--mode open|closed|diurnal]\n\
         \x20                [--submissions N] [--group G] [--rate R]\n\
         \x20                [--outstanding K] [--period SECS] [--deadline D]\n\
         \x20                [--sites N] [--seed S] [--drain-secs SECS]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut opts = Options {
        addr: String::new(),
        mode: Mode::Open,
        submissions: 100,
        group: 1,
        rate: 50.0,
        outstanding: 8,
        period: 10.0,
        deadline: 60.0,
        sites: 5,
        seed: 2011,
        drain_secs: 5.0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: usize| -> String {
        args.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => opts.addr = value(&args, i),
            "--mode" => {
                opts.mode = match value(&args, i).as_str() {
                    "open" => Mode::Open,
                    "closed" => Mode::Closed,
                    "diurnal" => Mode::Diurnal,
                    _ => usage(),
                }
            }
            "--submissions" => {
                opts.submissions = value(&args, i).parse().unwrap_or_else(|_| usage())
            }
            "--group" => opts.group = value(&args, i).parse().unwrap_or_else(|_| usage()),
            "--rate" => opts.rate = value(&args, i).parse().unwrap_or_else(|_| usage()),
            "--outstanding" => {
                opts.outstanding = value(&args, i).parse().unwrap_or_else(|_| usage())
            }
            "--period" => opts.period = value(&args, i).parse().unwrap_or_else(|_| usage()),
            "--deadline" => opts.deadline = value(&args, i).parse().unwrap_or_else(|_| usage()),
            "--sites" => opts.sites = value(&args, i).parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value(&args, i).parse().unwrap_or_else(|_| usage()),
            "--drain-secs" => opts.drain_secs = value(&args, i).parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 2;
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if opts.addr.is_empty()
        || opts.submissions == 0
        || opts.group == 0
        || !positive(opts.rate)
        || opts.outstanding == 0
        || !positive(opts.period)
        || !positive(opts.deadline)
        || opts.sites == 0
    {
        usage();
    }
    opts
}

/// Builds the `i`-th submission: `group` tasks with the paper's
/// 600–7200 MI size range, round-robin site targeting.
fn build_submission(opts: &Options, rng: &mut RngStream, i: u64) -> Submission {
    let mut tasks = Vec::with_capacity(opts.group);
    for j in 0..opts.group {
        let pri = match (i as usize + j) % 3 {
            0 => Priority::High,
            1 => Priority::Medium,
            _ => Priority::Low,
        };
        tasks.push(SubmitTask {
            size_mi: rng.uniform(600.0, 7200.0),
            deadline: opts.deadline,
            priority: pri,
            site: SiteId(((i as usize + j) as u32) % opts.sites),
        });
    }
    Submission { id: i, tasks }
}

/// Wall-clock send times of the open-loop shapes, in order. For
/// `diurnal`, inter-arrival gaps stretch and compress so the
/// instantaneous rate tracks `rate × (1 + sin(2πt/period))`.
struct SendSchedule {
    /// Diurnal integration state: the time reached and the submissions
    /// due by then.
    t: f64,
    sent: f64,
}

impl SendSchedule {
    /// Send time of submission `i`, in seconds from the start; called
    /// with `i` in increasing order.
    fn due(&mut self, opts: &Options, i: u64) -> f64 {
        match opts.mode {
            Mode::Closed => 0.0,
            Mode::Open => i as f64 / opts.rate,
            Mode::Diurnal => {
                // Integrate the modulated rate: N(t) = rate·t + rate·period/(2π)·(1−cos(2πt/period)).
                // Invert numerically by stepping on from the previous
                // submission's time: cheap and exact enough for pacing.
                let dt = 1.0 / (opts.rate * 50.0).max(100.0);
                while self.sent < i as f64 {
                    let inst = opts.rate
                        * (1.0 + (2.0 * std::f64::consts::PI * self.t / opts.period).sin());
                    self.sent += inst * dt;
                    self.t += dt;
                }
                self.t
            }
        }
    }
}

fn main() {
    let opts = parse_options();
    let stream =
        TcpStream::connect(&opts.addr).unwrap_or_else(|e| panic!("connect {}: {e}", opts.addr));
    stream.set_nodelay(true).ok();
    run(opts, stream);
}

/// Reads the daemon's lines on their own handle as they arrive, and
/// passes each on with the instant it was read; ends at end of stream.
fn read_lines(mut stream: TcpStream, lines: mpsc::Sender<(Instant, Vec<u8>)>) {
    let mut readbuf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                eprintln!("read failed: {e}");
                return;
            }
        };
        let at = Instant::now();
        readbuf.extend_from_slice(&chunk[..n]);
        while let Some(pos) = readbuf.iter().position(|b| *b == b'\n') {
            let line = readbuf.drain(..=pos).collect();
            if lines.send((at, line)).is_err() {
                return;
            }
        }
    }
}

fn run(opts: Options, mut stream: TcpStream) {
    let mut rng = RngStream::root(opts.seed).derive("load-driver");
    let (tx, notices) = mpsc::channel();
    let reader = stream
        .try_clone()
        .expect("clone the connection for reading");
    let reader = std::thread::spawn(move || read_lines(reader, tx));
    let mut schedule = SendSchedule { t: 0.0, sent: 0.0 };
    let start = Instant::now();
    let mut sent: u64 = 0;
    let mut acked: u64 = 0;
    let mut rejected: u64 = 0;
    let mut tasks_admitted: u64 = 0;
    let mut placed: u64 = 0;
    let mut done: u64 = 0;
    let mut failed: u64 = 0;
    let mut met: u64 = 0;
    // Submission id → send instant, for ack latency.
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut ack_latencies_ms: Vec<f64> = Vec::new();
    let mut tasks_outstanding: u64 = 0;
    let mut last_activity = Instant::now();
    // When the next open-loop submission is due.
    let mut next_send = start;

    'run: loop {
        // Send whatever is due under the chosen shape.
        while sent < opts.submissions {
            let due = match opts.mode {
                Mode::Closed => in_flight.len() < opts.outstanding,
                _ => {
                    next_send = start + Duration::from_secs_f64(schedule.due(&opts, sent));
                    Instant::now() >= next_send
                }
            };
            if !due {
                break;
            }
            let sub = build_submission(&opts, &mut rng, sent);
            let mut line = sub.render_line();
            line.push('\n');
            in_flight.insert(sub.id, Instant::now());
            if let Err(e) = stream.write_all(line.as_bytes()) {
                eprintln!("write failed after {sent} submissions: {e}");
                break 'run;
            }
            sent += 1;
            last_activity = Instant::now();
        }

        // Wait for the next notification: until the next open-loop send is
        // due, or, with nothing left to send now, until the drain window
        // after the last activity closes.
        let all_sent = sent >= opts.submissions;
        let until = if all_sent || opts.mode == Mode::Closed {
            last_activity + Duration::from_secs_f64(opts.drain_secs)
        } else {
            next_send
        };
        let notice = match notices.recv_timeout(until.saturating_duration_since(Instant::now())) {
            Ok(notice) => Some(notice),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                eprintln!("server closed the connection");
                break;
            }
        };
        // Everything that arrived meanwhile, then account for it.
        for (at, line) in notice.into_iter().chain(notices.try_iter()) {
            last_activity = at;
            let line = String::from_utf8_lossy(&line);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match Notification::parse_line(line) {
                Ok(Notification::Ack { id, tasks, .. }) => {
                    if let Some(t0) = in_flight.remove(&id) {
                        ack_latencies_ms.push((at - t0).as_secs_f64() * 1e3);
                    }
                    acked += 1;
                    tasks_admitted += tasks.len() as u64;
                    tasks_outstanding += tasks.len() as u64;
                }
                Ok(Notification::Reject { id, reason }) => {
                    if let Some(t0) = in_flight.remove(&id) {
                        ack_latencies_ms.push((at - t0).as_secs_f64() * 1e3);
                    }
                    rejected += 1;
                    eprintln!("rejected {id}: {reason}");
                }
                Ok(Notification::Placed { .. }) => placed += 1,
                Ok(Notification::Done { met: m, .. }) => {
                    done += 1;
                    tasks_outstanding = tasks_outstanding.saturating_sub(1);
                    if m {
                        met += 1;
                    }
                }
                Ok(Notification::Failed { .. }) => {
                    failed += 1;
                    tasks_outstanding = tasks_outstanding.saturating_sub(1);
                }
                Err(e) => eprintln!("unparseable notification: {e} ({line})"),
            }
        }

        let all_answered = in_flight.is_empty();
        let drained = tasks_outstanding == 0;
        if all_sent && all_answered && drained {
            break;
        }
        // Give completions a bounded window after the last activity.
        if (all_sent || opts.mode == Mode::Closed)
            && last_activity.elapsed().as_secs_f64() > opts.drain_secs
        {
            eprintln!(
                "drain window elapsed with {} un-acked submissions and {} tasks in flight",
                in_flight.len(),
                tasks_outstanding
            );
            break;
        }
    }

    let wall = start.elapsed().as_secs_f64();
    // Closing the connection ends the reader at its next read.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    reader.join().expect("the reader thread panicked");
    let mode = match opts.mode {
        Mode::Open => "open",
        Mode::Closed => "closed",
        Mode::Diurnal => "diurnal",
    };
    println!(
        "load_driver: mode {mode}, {} submissions of {} task(s) to {}",
        sent, opts.group, opts.addr
    );
    println!(
        "  acked {acked}  rejected {rejected}  tasks admitted {tasks_admitted}  placed {placed}  done {done}  failed {failed}  deadline-met {met}"
    );
    println!(
        "  wall {:.2}s  offered {:.1} sub/s  achieved ack throughput {:.1} sub/s",
        wall,
        opts.rate,
        if wall > 0.0 {
            (acked + rejected) as f64 / wall
        } else {
            0.0
        }
    );
    if !ack_latencies_ms.is_empty() {
        let q = |p: f64| quantile(&ack_latencies_ms, p).unwrap_or(f64::NAN);
        println!(
            "  ack latency ms: p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}  (n={})",
            q(0.50),
            q(0.90),
            q(0.99),
            q(1.0),
            ack_latencies_ms.len()
        );
    }
    // Non-zero exit when the run clearly failed, so CI can gate on it.
    if sent < opts.submissions || acked + rejected < sent || done + failed < tasks_admitted {
        eprintln!("load_driver: incomplete run");
        std::process::exit(1);
    }
}
