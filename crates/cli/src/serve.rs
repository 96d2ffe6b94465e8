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
//! `--metrics-addr` is given. The ingest family also counts the loop
//! below: passes by cause (an idle pass found nothing to do), the wait
//! time requested, `WouldBlock` returns per socket call, and advances
//! with and without events.
//!
//! A client that half-closes (`nc -N`, `shutdown(SHUT_WR)`) still gets
//! every reply: its end of stream ends its requests, and the daemon
//! closes the connection once the client owns no unresolved task and
//! its backlog is flushed. At `--pace 0` nothing resolves, so that is
//! as soon as its acks are out.
//!
//! The daemon is single-threaded and non-blocking throughout (the same
//! dependency-free socket style as the metrics server): one loop
//! accepts, reads, advances, admits, notifies, flushes, checkpoints —
//! and ends each pass in one `poll(2)` over its sockets, until a socket
//! is ready or the next thing is due: the next sim event, a timer, or a
//! 50 ms ceiling. So a submission is read as it arrives, and an idle
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
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_ulong};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{Counter, IngestMetrics, MetricsRegistry, MetricsServer};
use workload::submit::{Notification, Submission};

/// Set by the SIGTERM/SIGINT handler; polled by the serve loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// One entry of a `poll(2)` set (`struct pollfd`).
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

// libc's `signal(2)` and `poll(2)`, declared directly so no signal or
// event crate is needed.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Installs the shutdown handler. `signal` is async-signal-safe for the
/// store-a-flag handler used here.
fn install_signal_handlers() {
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

/// Earliest a wait may end for the next sim event, after the pass's
/// advance. A notice due sooner waits up to this long, as it waited for
/// the old 1 ms idle park, and the loop wakes for events alone at most
/// 1,000 times a second, however dense the event queue gets.
const EVENT_GRAIN: Duration = Duration::from_millis(1);

/// Longest wait. Bounds how late the loop sees a shutdown signal that
/// did not interrupt its wait, so an idle daemon burns ~0% CPU yet
/// still reacts within ~50 ms.
const WAIT_MAX: Duration = Duration::from_millis(50);

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
    /// Wall time between periodic checkpoints (`None`: only on shutdown).
    checkpoint_every: Option<Duration>,
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
    /// The client sent end of stream; it is not read again.
    eof: bool,
    /// Admitted tasks of this client without a `done`/`failed` yet.
    unresolved: usize,
    /// The client's entry in the last wait's poll set, if it had one.
    slot: Option<usize>,
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
            match Duration::try_from_secs_f64(secs) {
                Ok(d) if !d.is_zero() => Some(d),
                _ => {
                    return Err(CmdError::Other(
                        "--run-for-secs must be positive and below 2^64".into(),
                    ))
                }
            }
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
        checkpoint_every: Duration::try_from_secs_f64(checkpoint_every)
            .ok()
            .filter(|d| !d.is_zero()),
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
    // The last wait's poll set: the listener, then the clients that hold
    // a `slot` in it. Reused across passes.
    let mut fds: Vec<PollFd> = Vec::new();

    loop {
        // The first thing that makes this pass active counts it; a pass
        // with none is idle.
        let mut cause: Option<&Counter> = None;
        if SHUTDOWN.load(Ordering::SeqCst) {
            break;
        }
        if let Some(d) = opts.run_for {
            if start.elapsed() >= d {
                break;
            }
        }

        // Accept everything pending once the listener is ready (before the
        // first wait, nothing is known, so try).
        let mut listen = POLLIN;
        while fds.first().is_none_or(|l| l.revents != 0) {
            match opts.listener.accept() {
                Ok((stream, _addr)) => {
                    // Without TCP_NODELAY, a reply written while an earlier
                    // one is unacknowledged waits for the client's next
                    // segment.
                    if stream
                        .set_nonblocking(true)
                        .and_then(|()| stream.set_nodelay(true))
                        .is_err()
                    {
                        continue;
                    }
                    opts.ingest.connections.inc();
                    cause.get_or_insert(&opts.ingest.passes_accept);
                    clients.insert(
                        accepted,
                        Client {
                            stream,
                            inbuf: Vec::new(),
                            outbuf: Vec::new(),
                            open: true,
                            eof: false,
                            unresolved: 0,
                            slot: None,
                        },
                    );
                    accepted += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    opts.ingest.would_block_accept.inc();
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Out of descriptors, say. The listener stays ready, so it
                // sits out the next wait rather than end it at once.
                Err(_) => {
                    listen = 0;
                    break;
                }
            }
        }

        // Read the clients the wait reported readable. `poll` is
        // level-triggered: what a short read leaves, the next wait reports.
        for client in clients.values_mut() {
            let ready = client
                .slot
                .take()
                .is_some_and(|i| fds[i].revents & !POLLOUT != 0);
            while ready && !client.eof {
                match client.stream.read(&mut read_chunk) {
                    Ok(0) => {
                        cause.get_or_insert(&opts.ingest.passes_read);
                        client.eof = true;
                    }
                    Ok(n) => {
                        cause.get_or_insert(&opts.ingest.passes_read);
                        client.inbuf.extend_from_slice(&read_chunk[..n]);
                        // Only a full read can have left more. Past the line
                        // cap, admit the complete lines first; the rest is
                        // read on a later pass.
                        if n < read_chunk.len() || client.inbuf.len() > MAX_CLIENT_BACKLOG {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        opts.ingest.would_block_read.inc();
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        client.close();
                        break;
                    }
                }
            }
        }

        // Advance sim time to the pacing target before admitting what was
        // read, so a submission is admitted at the instant it was read,
        // not at the horizon of an earlier pass.
        let advanced_at = Instant::now();
        let target = (opts.pace > 0.0)
            .then(|| SimTime::new(base + (advanced_at - start).as_secs_f64() * opts.pace));
        events.clear();
        if let Some(t) = target {
            if advance(&mut session, t, &mut events, &opts.ingest)? {
                cause.get_or_insert(&opts.ingest.passes_events);
            }
        }

        // Admit the request lines read.
        let mut admitted = false;
        for (&id, client) in clients.iter_mut() {
            loop {
                let line: Vec<u8> = match client.inbuf.iter().position(|b| *b == b'\n') {
                    Some(pos) => client.inbuf.drain(..=pos).collect(),
                    // After end of stream, a last line without its newline.
                    None if client.eof && !client.inbuf.is_empty() => {
                        std::mem::take(&mut client.inbuf)
                    }
                    None => break,
                };
                let line = String::from_utf8_lossy(&line);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                opts.ingest.lines.inc();
                let reply = handle_line(line, &mut session, id, &mut owners, &opts.ingest);
                if let Notification::Ack { tasks, .. } = &reply {
                    client.unresolved += tasks.len();
                    admitted = true;
                }
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
                flush_client(client, &opts.ingest);
                client.close();
            }
        }

        // Run the new arrivals (and what they set off) up to the same
        // target in this pass, then route every notice of the pass.
        if let Some(t) = target.filter(|_| admitted) {
            if advance(&mut session, t, &mut events, &opts.ingest)? {
                cause.get_or_insert(&opts.ingest.passes_events);
            }
        }
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
                client.unresolved -= usize::from(done);
                push_notification(client, &n, &opts.ingest);
            }
        }

        // Flush client backlogs, close every client past its end of
        // stream that no reply can still reach, then drop every
        // connection closed in this pass (which closes its socket).
        for c in clients.values_mut() {
            flush_client(c, &opts.ingest);
            if c.eof && (c.unresolved == 0 || opts.pace == 0.0) && c.outbuf.is_empty() {
                c.close();
            }
        }
        clients.retain(|_, c| c.open);

        if last_refresh.elapsed() >= MONITOR_REFRESH {
            session.refresh_monitor();
            last_refresh = Instant::now();
        }

        if let (Some(dir), Some(every)) = (&opts.checkpoint_dir, opts.checkpoint_every) {
            if last_checkpoint.elapsed() >= every {
                checkpoints_written += 1;
                write_checkpoint(dir, checkpoints_written, &mut session, meta)?;
                last_checkpoint = Instant::now();
            }
        }

        cause.unwrap_or(&opts.ingest.passes_idle).inc();

        // Wait until a socket is ready or the next thing is due: the next
        // sim event, due at `start + (t - base) / pace` but no sooner than
        // a grain after this pass's advance; a timer; the end of the run;
        // or the ceiling.
        let event_due = target.and(session.next_event()).and_then(|t| {
            let wall = Duration::try_from_secs_f64(((t.as_f64() - base) / opts.pace).max(0.0));
            start.checked_add(wall.ok()?)
        });
        let now = Instant::now();
        let due = [
            event_due.map(|at| at.max(advanced_at + EVENT_GRAIN)),
            Some(last_refresh + MONITOR_REFRESH),
            opts.checkpoint_every
                .and_then(|every| last_checkpoint.checked_add(every)),
            opts.run_for.and_then(|d| start.checked_add(d)),
        ]
        .into_iter()
        .flatten()
        .fold(now + WAIT_MAX, Instant::min);
        // Poll the listener; each client not past its end of stream, for
        // reading; and each with a backlog, for writing. A client with
        // neither stays out: a peer that hung up reads as ready at its end
        // of stream, and would end every wait at once.
        fds.clear();
        fds.push(PollFd {
            fd: opts.listener.as_raw_fd(),
            events: listen,
            revents: 0,
        });
        for c in clients.values_mut() {
            let mut interest = 0;
            if !c.eof {
                interest |= POLLIN;
            }
            if !c.outbuf.is_empty() {
                interest |= POLLOUT;
            }
            c.slot = (interest != 0).then(|| {
                fds.push(PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: interest,
                    revents: 0,
                });
                fds.len() - 1
            });
        }
        let asked = wait(&mut fds, due.saturating_duration_since(now))?;
        opts.ingest.park_requested_us.add(asked);
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
        flush_client(c, &opts.ingest);
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

/// Advances `session` to `t`, appending its notices to `events`, and
/// counts the advance. Returns whether it produced notices.
fn advance(
    session: &mut ScheduleSession<'_>,
    t: SimTime,
    events: &mut Vec<SessionEvent>,
    ingest: &IngestMetrics,
) -> Result<bool, CmdError> {
    let before = events.len();
    session.advance_to(t, events);
    if let Some(why) = session.halt_reason() {
        return Err(CmdError::Other(format!("serve halted: {why}")));
    }
    let some = events.len() > before;
    if some {
        ingest.advances_with_events.inc();
    } else {
        ingest.advances_without_events.inc();
    }
    Ok(some)
}

/// Blocks in `poll(2)` until a socket of `fds` is ready, `timeout` has
/// passed, or a signal arrives, and returns the timeout it asked for in
/// microseconds. The timeout is rounded up to whole milliseconds; a
/// ready socket ends the wait at once, so the rounding never delays a
/// reply.
fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<u64> {
    let ms = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `pollfd` records and `nfds` is its length, so the kernel reads and
    // writes (only the `revents` fields) within it.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        // A signal ends the wait early; the loop then sees its flag.
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(ms as u64 * 1000)
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
fn flush_client(client: &mut Client, ingest: &IngestMetrics) {
    while !client.outbuf.is_empty() {
        match client.stream.write(&client.outbuf) {
            Ok(0) => {
                client.close();
                return;
            }
            Ok(n) => {
                client.outbuf.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                ingest.would_block_write.inc();
                return;
            }
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
