//! `arls serve` — a long-running scheduling daemon.
//!
//! Accepts task submissions as line-delimited JSON over TCP (the
//! [`workload::submit`] protocol), routes them through a live scheduler
//! against a warm platform via [`platform::ScheduleSession`], and
//! streams placement/completion notifications back on the submitting
//! connection. Sim time advances under a wall-clock pacing factor
//! (`--pace` sim time units per wall second); the engine clock itself
//! only moves on events, so a paced run is state-identical to a batch
//! run of the same admissions.
//!
//! Durability: with `--checkpoint-dir` the daemon snapshots the complete
//! live state (platform, scheduler learning state, pending events)
//! through [`platform::checkpoint`] on a wall-clock timer and once more
//! on SIGTERM/SIGINT; `--resume-from SNAPSHOT` restarts bit-exactly —
//! the scheduler kind and configuration are recovered from the
//! snapshot's meta blob, so no flags need repeating.
//!
//! Observability: the shared [`MetricsRegistry`] carries both the
//! platform's `arls_*` family and the front door's `arls_ingest_*`
//! family, served on `/metrics` by [`telemetry::MetricsServer`] when
//! `--metrics-addr` is given.
//!
//! The daemon is single-threaded and non-blocking throughout (the same
//! dependency-free socket style as the metrics server): one loop
//! accepts, reads, advances, notifies, flushes, checkpoints — and parks
//! with a short exponential backoff when a pass does no work, so an idle
//! daemon costs ~0% CPU.

use crate::args::Args;
use crate::commands::CmdError;
use crate::select::scheduler_from;
use experiments::checkpoint::{encode_scheduler_meta, scheduler_of};
use experiments::{Monitor, Scenario};
use platform::{ExecEngine, LiveMetrics, PlatformSpec, ScheduleSession, SessionEvent};
use simcore::time::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{IngestMetrics, MetricsRegistry, MetricsServer};
use workload::submit::{Notification, Submission};

/// Set by the SIGTERM/SIGINT handler; polled by the serve loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Installs the shutdown handler via libc `signal(2)` — declared
/// directly so no signal crate is needed. `signal` is async-signal-safe
/// for the store-a-flag handler used here.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `signal` is called with valid signal numbers and an
    // `extern "C"` handler that only stores to an atomic, which is
    // async-signal-safe; the returned previous handler is ignored.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// Upper bound on a client's unflushed notification backlog, and on one
/// pending (not yet newline-terminated) request line. A client past
/// either bound is disconnected rather than growing a buffer without
/// bound.
const MAX_CLIENT_BACKLOG: usize = 1 << 20;

/// Idle-backoff floor: the first park after an active pass.
const IDLE_SLEEP_MIN: Duration = Duration::from_millis(1);

/// Idle-backoff ceiling. Bounds how stale the loop's timers (pacing,
/// monitor refresh, checkpoints, shutdown flag) can get while parked, so
/// an idle daemon burns ~0% CPU yet still reacts within ~50 ms.
const IDLE_SLEEP_MAX: Duration = Duration::from_millis(50);

/// How often the live gauges are refreshed from the session.
const MONITOR_REFRESH: Duration = Duration::from_millis(200);

struct ServeOpts {
    listener: TcpListener,
    /// Sim time units per wall second. `0` freezes the sim clock (the
    /// daemon still accepts and acks submissions; nothing executes).
    pace: f64,
    /// Wall-clock run bound; `None` runs until a signal.
    run_for: Option<Duration>,
    checkpoint_dir: Option<PathBuf>,
    /// Wall seconds between periodic checkpoints (0 = only on shutdown).
    checkpoint_every: f64,
    metrics_server: Option<MetricsServer>,
    ingest: IngestMetrics,
}

/// One accepted client connection. A closed client is dropped from the
/// daemon's client map at the end of the pass that closed it, which
/// releases its socket.
struct Client {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    open: bool,
}

impl Client {
    fn close(&mut self) {
        self.open = false;
        self.inbuf = Vec::new();
        self.outbuf = Vec::new();
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// `arls serve` entry point. Returns the end-of-run summary.
pub fn serve(args: &Args) -> Result<String, CmdError> {
    install_signal_handlers();
    SHUTDOWN.store(false, Ordering::SeqCst);

    let pace = args.get_or("pace", 100.0f64)?;
    if !pace.is_finite() || pace < 0.0 {
        return Err(CmdError::Other("--pace must be non-negative".into()));
    }
    let run_for = match args.get("run-for-secs") {
        None => None,
        Some(_) => {
            let secs = args.get_or("run-for-secs", 0.0f64)?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(CmdError::Other("--run-for-secs must be positive".into()));
            }
            Some(Duration::from_secs_f64(secs))
        }
    };
    let checkpoint_dir = args.get("checkpoint-dir").map(PathBuf::from);
    let checkpoint_every = args.get_or("checkpoint-every-secs", 0.0f64)?;
    if checkpoint_every > 0.0 && checkpoint_dir.is_none() {
        return Err(CmdError::Other(
            "--checkpoint-every-secs needs --checkpoint-dir".into(),
        ));
    }
    if let Some(dir) = &checkpoint_dir {
        std::fs::create_dir_all(dir)?;
    }

    let listener = TcpListener::bind(args.get("listen").unwrap_or("127.0.0.1:0"))?;
    listener.set_nonblocking(true)?;
    let ingest_addr = listener.local_addr()?;

    // Resolve what we are serving: a fresh platform + scheduler from the
    // flags, or everything out of a snapshot's meta blob (which is also
    // the meta every checkpoint of this daemon carries).
    let resume_payload = match args.get("resume-from") {
        Some(path) => Some(snapshot::read_file(std::path::Path::new(path))?),
        None => None,
    };
    let (kind, num_sites, meta, sc) = match &resume_payload {
        Some(payload) => {
            let (kind, sites, meta) = scheduler_of(payload)?;
            (kind, sites, meta, None)
        }
        None => {
            let seed = args.get_or("seed", 2011u64)?;
            let mut sc = Scenario::new(seed, 0, 1.0);
            if let Some(sites) = args.get("sites") {
                let sites: u32 = sites
                    .parse()
                    .map_err(|_| CmdError::Other("--sites must be a positive u32".into()))?;
                if sites == 0 {
                    return Err(CmdError::Other("--sites must be at least 1".into()));
                }
                sc.platform = PlatformSpec {
                    num_sites: sites,
                    ..Scenario::experiment_platform()
                };
            }
            // A daemon has no natural end of workload; don't let the
            // batch horizon stop it.
            sc.exec.max_time = 1.0e15;
            // The experiment harness's per-seed policy-RNG mask, so a
            // served scheduler matches a batch run with the same seed.
            let kind = scheduler_from(args)?.with_seed(seed);
            let sites = sc.platform.num_sites as usize;
            let meta = encode_scheduler_meta(&kind, sites);
            (kind, sites, meta, Some(sc))
        }
    };

    // Shared registry: platform family + ingest family in one payload.
    let registry = Arc::new(MetricsRegistry::new());
    let ingest = IngestMetrics::register(&registry);
    let metrics_server = match args.get("metrics-addr") {
        Some(addr) => {
            let s = MetricsServer::serve(addr, registry.clone())?;
            eprintln!("metrics: serving /metrics on http://{}", s.local_addr());
            Some(s)
        }
        None => None,
    };

    eprintln!("serve: listening on {ingest_addr} ({})", kind.label());
    if let Some(path) = args.get("port-file") {
        // Machine-readable bound addresses for scripts and tests (the
        // ports are kernel-assigned when `--listen` ends in `:0`).
        let metrics_line = metrics_server
            .as_ref()
            .map(|s| format!("metrics {}\n", s.local_addr()))
            .unwrap_or_default();
        std::fs::write(path, format!("ingest {ingest_addr}\n{metrics_line}"))?;
    }

    let live = LiveMetrics::register(&registry, num_sites);
    let mut sched = kind.build(num_sites, &Monitor::default());
    let session = match &resume_payload {
        Some(payload) => {
            let mut session = ScheduleSession::resume(payload, &mut *sched)?;
            session.set_monitor(live);
            session
        }
        None => {
            let sc = sc.expect("a fresh start has a scenario");
            let engine = ExecEngine::new(sc.exec).with_monitor(live);
            ScheduleSession::new(&engine, sc.build_platform(), &mut *sched)
        }
    };
    let opts = ServeOpts {
        listener,
        pace,
        run_for,
        checkpoint_dir,
        checkpoint_every,
        metrics_server,
        ingest,
    };
    run_daemon(session, &meta, opts)
}

/// The serve loop.
fn run_daemon(
    mut session: ScheduleSession<'_>,
    meta: &[u8],
    mut opts: ServeOpts,
) -> Result<String, CmdError> {
    let start = Instant::now();
    // Pacing is anchored at the session's restored horizon so a resumed
    // daemon continues from where the snapshot stopped.
    let base = session.horizon().max(session.now()).as_f64();
    // Open connections, keyed by accept order: the map iterates (and so
    // admits) in the order clients connected.
    let mut clients: BTreeMap<u64, Client> = BTreeMap::new();
    let mut accepted = 0u64;
    // Server-assigned task id → client id, for notification routing.
    // Tasks admitted before a resume, or whose client has gone, have no
    // client and their notifications are dropped.
    let mut owners: HashMap<u64, u64> = HashMap::new();
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut checkpoints_written = 0u64;
    let mut last_checkpoint = Instant::now();
    let mut last_refresh = Instant::now();
    let mut read_chunk = [0u8; 4096];
    // Adaptive idle park: any accept, read, or sim-time event resets the
    // backoff to the floor; consecutive quiet passes double it up to the
    // ceiling. An active pass loops straight back without sleeping, so a
    // busy daemon stays hot while an idle one costs ~0% CPU (the old
    // fixed 5 ms poll spun ~200 wakeups/s forever).
    let mut idle_sleep = IDLE_SLEEP_MIN;

    loop {
        let mut active = false;
        if SHUTDOWN.load(Ordering::SeqCst) {
            break;
        }
        if let Some(d) = opts.run_for {
            if start.elapsed() >= d {
                break;
            }
        }

        // Accept everything pending.
        loop {
            match opts.listener.accept() {
                Ok((stream, _addr)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    opts.ingest.connections.inc();
                    active = true;
                    clients.insert(
                        accepted,
                        Client {
                            stream,
                            inbuf: Vec::new(),
                            outbuf: Vec::new(),
                            open: true,
                        },
                    );
                    accepted += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }

        // Read request lines and admit submissions.
        for (&id, client) in clients.iter_mut() {
            loop {
                match client.stream.read(&mut read_chunk) {
                    Ok(0) => {
                        active = true;
                        client.close();
                        break;
                    }
                    Ok(n) => {
                        active = true;
                        client.inbuf.extend_from_slice(&read_chunk[..n]);
                        if client.inbuf.len() > MAX_CLIENT_BACKLOG {
                            // Admit the complete lines first; the rest
                            // is read on a later pass.
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        client.close();
                        break;
                    }
                }
            }
            while let Some(pos) = client.inbuf.iter().position(|b| *b == b'\n') {
                let line: Vec<u8> = client.inbuf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line[..line.len() - 1]);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                opts.ingest.lines.inc();
                let reply = handle_line(line, &mut session, id, &mut owners, &opts.ingest);
                push_notification(client, &reply, &opts.ingest);
            }
            if client.inbuf.len() > MAX_CLIENT_BACKLOG {
                // Over a MiB without a newline: refuse it like any other
                // malformed line, then drop the connection.
                opts.ingest.parse_errors.inc();
                opts.ingest.rejections.inc();
                let reason = format!("request line exceeds {MAX_CLIENT_BACKLOG} bytes");
                push_notification(
                    client,
                    &Notification::Reject { id: 0, reason },
                    &opts.ingest,
                );
                flush_client(client);
                client.close();
            }
        }

        // Advance sim time to the pacing target and route notifications.
        if opts.pace > 0.0 {
            let target = base + start.elapsed().as_secs_f64() * opts.pace;
            events.clear();
            session.advance_to(SimTime::new(target), &mut events);
            if let Some(why) = session.halt_reason() {
                return Err(CmdError::Other(format!("serve halted: {why}")));
            }
            active |= !events.is_empty();
            for ev in &events {
                let (task, n) = match ev {
                    SessionEvent::Placed { task, node, at } => (
                        task.0,
                        Notification::Placed {
                            task: task.0,
                            site: node.site.0,
                            node: node.node,
                            t: at.as_f64(),
                        },
                    ),
                    SessionEvent::Done { task, met, at } => (
                        task.0,
                        Notification::Done {
                            task: task.0,
                            met: *met,
                            t: at.as_f64(),
                        },
                    ),
                    SessionEvent::Failed { task, at } => (
                        task.0,
                        Notification::Failed {
                            task: task.0,
                            t: at.as_f64(),
                        },
                    ),
                };
                let done = matches!(ev, SessionEvent::Done { .. } | SessionEvent::Failed { .. });
                let owner = if done {
                    owners.remove(&task)
                } else {
                    owners.get(&task).copied()
                };
                if let Some(client) = owner.and_then(|id| clients.get_mut(&id)) {
                    push_notification(client, &n, &opts.ingest);
                }
            }
        }

        // Flush client backlogs, then drop every connection closed in
        // this pass (which closes its socket).
        for c in clients.values_mut() {
            flush_client(c);
        }
        clients.retain(|_, c| c.open);

        if last_refresh.elapsed() >= MONITOR_REFRESH {
            session.refresh_monitor();
            last_refresh = Instant::now();
        }

        if opts.checkpoint_every > 0.0
            && last_checkpoint.elapsed().as_secs_f64() >= opts.checkpoint_every
        {
            if let Some(dir) = &opts.checkpoint_dir {
                checkpoints_written += 1;
                write_checkpoint(dir, checkpoints_written, &mut session, meta)?;
                last_checkpoint = Instant::now();
            }
        }

        if active {
            idle_sleep = IDLE_SLEEP_MIN;
        } else {
            std::thread::sleep(idle_sleep);
            idle_sleep = (idle_sleep * 2).min(IDLE_SLEEP_MAX);
        }
    }

    // Shutdown: one final checkpoint so `--resume-from` can pick up
    // exactly here, then close everything.
    let mut final_snapshot = None;
    if let Some(dir) = &opts.checkpoint_dir {
        checkpoints_written += 1;
        let path = write_checkpoint(dir, checkpoints_written, &mut session, meta)?;
        final_snapshot = Some(path);
    }
    for c in clients.values_mut() {
        flush_client(c);
        c.close();
    }
    if let Some(s) = &mut opts.metrics_server {
        s.shutdown();
    }

    let mut out = String::new();
    out.push_str(&format!(
        "serve: {} connections, {} submissions ({} tasks) admitted, {} rejected\n",
        opts.ingest.connections.total(),
        opts.ingest.submissions.total(),
        opts.ingest.tasks.total(),
        opts.ingest.rejections.total(),
    ));
    out.push_str(&format!(
        "serve: sim time {:.4}, {} tasks still in flight, {:.1}s wall\n",
        session.now().as_f64(),
        session.outstanding(),
        start.elapsed().as_secs_f64(),
    ));
    if let Some(path) = final_snapshot {
        out.push_str(&format!(
            "serve: final checkpoint {} (restart with `arls serve --resume-from` it)\n",
            path.display()
        ));
    }
    // The session's RunResult is assembled for the final gauge values'
    // sake; the daemon's contract is the notification stream.
    let _ = session.finish();
    Ok(out)
}

/// Parses and admits one request line from client `client`, returning
/// the ack/reject.
fn handle_line(
    line: &str,
    session: &mut ScheduleSession<'_>,
    client: u64,
    owners: &mut HashMap<u64, u64>,
    ingest: &IngestMetrics,
) -> Notification {
    let sub = match Submission::parse_line(line) {
        Ok(sub) => sub,
        Err(reason) => {
            ingest.parse_errors.inc();
            ingest.rejections.inc();
            return Notification::Reject { id: 0, reason };
        }
    };
    match session.submit(&sub.tasks) {
        Ok((at, ids)) => {
            ingest.submissions.inc();
            ingest.tasks.add(ids.len() as u64);
            for id in &ids {
                owners.insert(id.0, client);
            }
            Notification::Ack {
                id: sub.id,
                tasks: ids.iter().map(|t| t.0).collect(),
                t: at.as_f64(),
            }
        }
        Err(reason) => {
            ingest.rejections.inc();
            Notification::Reject { id: sub.id, reason }
        }
    }
}

fn push_notification(client: &mut Client, n: &Notification, ingest: &IngestMetrics) {
    if !client.open {
        return;
    }
    client.outbuf.extend_from_slice(n.render_line().as_bytes());
    client.outbuf.push(b'\n');
    ingest.notifications.inc();
    if client.outbuf.len() > MAX_CLIENT_BACKLOG {
        client.close();
    }
}

/// Writes as much of the client's backlog as the socket accepts.
fn flush_client(client: &mut Client) {
    while !client.outbuf.is_empty() {
        match client.stream.write(&client.outbuf) {
            Ok(0) => {
                client.close();
                return;
            }
            Ok(n) => {
                client.outbuf.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                client.close();
                return;
            }
        }
    }
}

/// Serializes the session into `dir` with the zero-padded sequence
/// number in the name (lexicographic order = write order, matching the
/// batch checkpointer's convention).
fn write_checkpoint(
    dir: &std::path::Path,
    seq: u64,
    session: &mut ScheduleSession<'_>,
    meta: &[u8],
) -> Result<PathBuf, CmdError> {
    let payload = session.checkpoint(meta);
    let path = dir.join(format!("serve-{seq:08}.snap"));
    snapshot::write_atomic(&path, &payload)?;
    Ok(path)
}
