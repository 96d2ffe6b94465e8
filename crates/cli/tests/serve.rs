//! End-to-end test of the `arls serve` daemon: submissions over the
//! socket are all answered, the ingest counter family on `/metrics`
//! matches what was sent, a SIGTERM checkpoint restarts bit-exactly
//! via `--resume-from`, a submission is admitted at the instant it is
//! read, and a client that hung up cannot spin the loop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use workload::submit::Notification;

const N_SUBMISSIONS: u64 = 5;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arls-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn spawn_serve(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_arls"))
        .arg("serve")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn arls serve")
}

/// Polls the port file until the daemon has written its bound
/// addresses. Returns (ingest, metrics-if-any).
fn wait_for_ports(path: &Path, child: &mut Child) -> (String, Option<String>) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let mut ingest = None;
            let mut metrics = None;
            for line in text.lines() {
                match line.split_once(' ') {
                    Some(("ingest", a)) => ingest = Some(a.to_string()),
                    Some(("metrics", a)) => metrics = Some(a.to_string()),
                    _ => {}
                }
            }
            if let Some(i) = ingest {
                return (i, metrics);
            }
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            let mut err = String::new();
            if let Some(mut e) = child.stderr.take() {
                let _ = e.read_to_string(&mut err);
            }
            panic!("daemon exited early ({status}): {err}");
        }
        assert!(Instant::now() < deadline, "daemon never wrote {path:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn sigterm(child: &Child) {
    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill")
        .success();
    assert!(ok, "kill -TERM failed");
}

fn wait_exit(mut child: Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("try_wait").is_none() {
        assert!(Instant::now() < deadline, "daemon did not exit");
        std::thread::sleep(Duration::from_millis(50));
    }
    let out = child.wait_with_output().expect("collect output");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Plain HTTP GET via a raw socket (no client dependency).
fn http_get(addr: &str, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect metrics");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).expect("read response");
    body
}

fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

fn latest_snapshot(dir: &Path) -> PathBuf {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snaps.sort();
    snaps.pop().expect("at least one snapshot")
}

#[test]
fn serve_answers_streams_counts_and_resumes_bit_exactly() {
    let dir = scratch_dir("e2e");
    let ckpt = dir.join("ckpt");
    let port_file = dir.join("ports.txt");

    let mut daemon = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--metrics-addr",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--pace",
        "200",
        "--seed",
        "7",
    ]);
    let (ingest_addr, metrics_addr) = wait_for_ports(&port_file, &mut daemon);
    let metrics_addr = metrics_addr.expect("metrics address in port file");

    // Submit N task groups plus one garbage line; every line must be
    // answered and every admitted task must resolve.
    let stream = TcpStream::connect(&ingest_addr).expect("connect ingest");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone stream");
    for i in 0..N_SUBMISSIONS {
        let line = format!(
            "{{\"submit\":{{\"id\":{i},\"tasks\":[{{\"size_mi\":1500,\"deadline\":120,\
             \"priority\":\"high\",\"site\":{}}}]}}}}\n",
            i % 2
        );
        writer.write_all(line.as_bytes()).expect("write submission");
    }
    writer.write_all(b"this is not json\n").expect("write junk");

    let mut reader = BufReader::new(stream);
    let (mut acks, mut rejects, mut placed, mut done) = (0u64, 0u64, 0u64, 0u64);
    let mut line = String::new();
    while done < N_SUBMISSIONS {
        line.clear();
        let n = reader.read_line(&mut line).expect("read notification");
        assert!(n > 0, "daemon closed the stream early");
        let l = line.trim();
        if l.contains("\"ack\"") {
            acks += 1;
        } else if l.contains("\"reject\"") {
            rejects += 1;
        } else if l.contains("\"placed\"") {
            placed += 1;
        } else if l.contains("\"done\"") {
            assert!(l.contains("\"met\":true"), "deadline missed: {l}");
            done += 1;
        }
    }
    assert_eq!(acks, N_SUBMISSIONS, "every submission is acked");
    assert_eq!(rejects, 1, "the junk line is rejected");
    assert_eq!(placed, N_SUBMISSIONS, "every task got a placement");

    // The shared registry serves both metric families; the ingest
    // counters must equal what this test sent.
    let metrics = http_get(&metrics_addr, "/metrics");
    assert_eq!(
        metric_value(&metrics, "arls_ingest_submissions_total"),
        Some(N_SUBMISSIONS as f64),
        "{metrics}"
    );
    assert_eq!(
        metric_value(&metrics, "arls_ingest_tasks_total"),
        Some(N_SUBMISSIONS as f64)
    );
    assert_eq!(
        metric_value(&metrics, "arls_ingest_parse_errors_total"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&metrics, "arls_ingest_rejections_total"),
        Some(1.0)
    );
    assert!(
        metric_value(&metrics, "arls_events_total").unwrap_or(0.0) > 0.0,
        "platform family is served from the same registry"
    );
    assert!(
        metric_value(&metrics, "arls_decision_latency_seconds_count").unwrap_or(0.0) > 0.0,
        "the daemon times its scheduler's decisions: {metrics}"
    );
    // The loop counts itself: a pass accepted this connection, advances
    // produced the notices above, and a timer ended quiet waits.
    for series in [
        r#"arls_ingest_loop_passes_total{cause="accept"}"#,
        r#"arls_ingest_advances_total{events="some"}"#,
        r#"arls_ingest_loop_passes_total{cause="idle"}"#,
    ] {
        assert!(
            metric_value(&metrics, series).unwrap_or(0.0) >= 1.0,
            "{series}: {metrics}"
        );
    }
    // The loop accepts only when its wait reported the listener ready:
    // each connection costs one `accept` that found the backlog drained,
    // plus one try before the first wait.
    let connections = metric_value(&metrics, "arls_ingest_connections_total").unwrap_or(0.0);
    let accept_would_block =
        metric_value(&metrics, r#"arls_ingest_would_block_total{call="accept"}"#)
            .unwrap_or(f64::INFINITY);
    assert!(
        accept_would_block <= connections + 1.0,
        "{accept_would_block} accepts found nothing for {connections} connections: {metrics}"
    );

    // SIGTERM → final checkpoint on the way out.
    sigterm(&daemon);
    let out = wait_exit(daemon);
    assert!(out.contains("final checkpoint"), "stdout: {out}");
    let snap = latest_snapshot(&ckpt);
    let payload = std::fs::read(&snap).expect("snapshot bytes");

    // Resume with a frozen sim clock and stop again: the re-encoded
    // state must be byte-identical — scheduler learning state included.
    let ckpt2 = dir.join("ckpt2");
    let port_file2 = dir.join("ports2.txt");
    let mut resumed = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        port_file2.to_str().unwrap(),
        "--resume-from",
        snap.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt2.to_str().unwrap(),
        "--pace",
        "0",
        "--run-for-secs",
        "1",
    ]);
    let _ = wait_for_ports(&port_file2, &mut resumed);
    let out2 = wait_exit(resumed);
    assert!(out2.contains("final checkpoint"), "stdout: {out2}");
    let payload2 = std::fs::read(latest_snapshot(&ckpt2)).expect("resumed snapshot bytes");
    assert_eq!(payload, payload2, "resume must restore bit-exact state");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Bound on one pending request line (the daemon's `MAX_CLIENT_BACKLOG`).
const MAX_LINE: usize = 1 << 20;

#[test]
fn serve_rejects_and_drops_an_unterminated_oversized_line() {
    let dir = scratch_dir("oversized");
    let port_file = dir.join("ports.txt");
    let mut daemon = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--pace",
        "200",
    ]);
    let (ingest_addr, _) = wait_for_ports(&port_file, &mut daemon);

    // One byte over the bound, never terminated: the daemon consumes all
    // of it, answers with a reject, and closes the connection.
    let mut hog = TcpStream::connect(&ingest_addr).expect("connect ingest");
    hog.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    hog.set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    hog.write_all(&vec![b'x'; MAX_LINE + 1])
        .expect("write oversized line");
    let mut reply = String::new();
    hog.read_to_string(&mut reply)
        .expect("read until the daemon closes");
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "one reply, then EOF: {reply:?}");
    assert!(
        lines[0].contains("\"reject\"") && lines[0].contains("\"id\":0"),
        "{reply}"
    );

    // The daemon keeps serving everyone else.
    let other = TcpStream::connect(&ingest_addr).expect("connect ingest");
    other
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = other.try_clone().expect("clone stream");
    writer
        .write_all(
            b"{\"submit\":{\"id\":1,\"tasks\":[{\"size_mi\":1500,\"deadline\":120,\
              \"priority\":\"high\",\"site\":0}]}}\n",
        )
        .expect("write submission");
    let mut line = String::new();
    BufReader::new(other)
        .read_line(&mut line)
        .expect("read ack");
    assert!(line.contains("\"ack\""), "{line}");

    sigterm(&daemon);
    let out = wait_exit(daemon);
    assert!(out.contains("1 rejected"), "stdout: {out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_a_deeply_nested_line_and_keeps_serving() {
    let dir = scratch_dir("nested");
    let port_file = dir.join("ports.txt");
    let mut daemon = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--pace",
        "200",
    ]);
    let (ingest_addr, _) = wait_for_ports(&port_file, &mut daemon);

    // 300 KB, well under the line cap, but nested far deeper than any
    // wire document: a typed reject, then a normal ack on the same
    // connection.
    let conn = TcpStream::connect(&ingest_addr).expect("connect ingest");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = conn.try_clone().expect("clone stream");
    let mut deep = b"{\"submit\":".to_vec();
    deep.extend(std::iter::repeat_n(b'[', 300_000));
    deep.push(b'\n');
    writer.write_all(&deep).expect("write nested line");
    writer
        .write_all(
            b"{\"submit\":{\"id\":1,\"tasks\":[{\"size_mi\":1500,\"deadline\":120,\
              \"priority\":\"high\",\"site\":0}]}}\n",
        )
        .expect("write submission");
    let mut reader = BufReader::new(conn);
    let mut reject = String::new();
    reader.read_line(&mut reject).expect("read reject");
    assert!(reject.contains("\"reject\""), "{reject}");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read ack");
    assert!(ack.contains("\"ack\"") && ack.contains("\"id\":1"), "{ack}");

    sigterm(&daemon);
    let out = wait_exit(daemon);
    assert!(out.contains("1 rejected"), "stdout: {out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_a_client_that_half_closes() {
    let dir = scratch_dir("halfclose");
    let port_file = dir.join("ports.txt");
    let mut daemon = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--pace",
        "200",
    ]);
    let (ingest_addr, _) = wait_for_ports(&port_file, &mut daemon);

    // One submission, then end of stream at once (`nc -N`): the request
    // is still admitted and answered through to its `done`, and the
    // daemon then closes the connection.
    let mut conn = TcpStream::connect(&ingest_addr).expect("connect ingest");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(
        b"{\"submit\":{\"id\":1,\"tasks\":[{\"size_mi\":1500,\"deadline\":120,\
          \"priority\":\"high\",\"site\":0}]}}\n",
    )
    .expect("write submission");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = String::new();
    conn.read_to_string(&mut reply)
        .expect("read until the daemon closes");
    let kinds: Vec<&str> = reply
        .lines()
        .map(|l| l.split('"').nth(1).unwrap_or(""))
        .collect();
    assert_eq!(kinds, ["ack", "placed", "done"], "{reply:?}");

    sigterm(&daemon);
    let out = wait_exit(daemon);
    assert!(
        out.contains("1 submissions (1 tasks) admitted"),
        "stdout: {out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Open file descriptors of process `pid`.
#[cfg(target_os = "linux")]
fn fd_count(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("list /proc/<pid>/fd")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn serve_releases_each_closed_connection() {
    let dir = scratch_dir("fds");
    let port_file = dir.join("ports.txt");
    let mut daemon = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--pace",
        "0",
    ]);
    let (ingest_addr, _) = wait_for_ports(&port_file, &mut daemon);
    let pid = daemon.id();
    let start = fd_count(pid);

    // Connect, submit, read the ack, hang up: 200 times in a row.
    for i in 0..200 {
        let conn = TcpStream::connect(&ingest_addr).expect("connect ingest");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = conn.try_clone().expect("clone stream");
        writeln!(
            writer,
            "{{\"submit\":{{\"id\":{i},\"tasks\":[{{\"size_mi\":1500,\"deadline\":120,\
             \"priority\":\"low\",\"site\":0}}]}}}}"
        )
        .expect("write submission");
        let mut ack = String::new();
        BufReader::new(conn).read_line(&mut ack).expect("read ack");
        assert!(ack.contains("\"ack\""), "cycle {i}: {ack}");
    }

    // The daemon sees each hang-up on its next pass and drops the socket.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut now = fd_count(pid);
    while now > start + 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        now = fd_count(pid);
    }
    sigterm(&daemon);
    let out = wait_exit(daemon);
    assert!(
        now <= start + 2,
        "daemon holds {now} descriptors after 200 closed connections (started with {start})"
    );
    assert!(out.contains("200 connections"), "stdout: {out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads notification lines until an ack and returns its admission
/// instant.
fn next_ack_time(reader: &mut impl BufRead) -> f64 {
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read notification");
        assert!(n > 0, "daemon closed the stream early");
        if let Ok(Notification::Ack { t, .. }) = Notification::parse_line(line.trim()) {
            return t;
        }
    }
}

#[test]
fn serve_admits_a_submission_at_the_instant_it_is_read() {
    // Fast enough that each task resolves within a millisecond, so the
    // daemon is quiet when the next submission arrives.
    const PACE: f64 = 100_000.0;
    // Not a multiple of the loop's 50 ms longest wait.
    const GAP: Duration = Duration::from_millis(70);
    let dir = scratch_dir("admission");
    let port_file = dir.join("ports.txt");
    let pace = PACE.to_string();
    let mut daemon = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--pace",
        &pace,
    ]);
    let (ingest_addr, _) = wait_for_ports(&port_file, &mut daemon);
    let conn = TcpStream::connect(&ingest_addr).expect("connect ingest");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = conn.try_clone().expect("clone stream");
    let mut reader = BufReader::new(conn);
    let mut submit = |id: u64| {
        writeln!(
            writer,
            "{{\"submit\":{{\"id\":{id},\"tasks\":[{{\"size_mi\":1500,\"deadline\":120,\
             \"priority\":\"high\",\"site\":0}}]}}}}"
        )
        .expect("write submission");
        next_ack_time(&mut reader)
    };

    // Admitted at the instant it is read, a submission's sim time lies
    // between its sending and its ack's reading. So two acks lie at least
    // the sleep between them apart, and at most the wall time from the
    // first send to the second ack's reading.
    for round in 0..4 {
        let sent = Instant::now();
        let first = submit(2 * round);
        std::thread::sleep(GAP);
        let second = submit(2 * round + 1);
        let wall = sent.elapsed().as_secs_f64();
        let apart = (second - first) / PACE;
        assert!(
            apart >= GAP.as_secs_f64() && apart <= wall,
            "round {round}: acks {apart:.6} s apart in sim time, {:.3} s of sleep \
             between them within {wall:.6} s of wall time",
            GAP.as_secs_f64()
        );
    }

    sigterm(&daemon);
    let out = wait_exit(daemon);
    assert!(
        out.contains("8 submissions (8 tasks) admitted"),
        "stdout: {out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sum of `arls_ingest_loop_passes_total` over its causes.
fn loop_passes(metrics_addr: &str) -> f64 {
    http_get(metrics_addr, "/metrics")
        .lines()
        .filter(|l| l.starts_with("arls_ingest_loop_passes_total{"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .sum()
}

#[test]
fn serve_is_not_spun_by_a_client_that_hung_up() {
    let dir = scratch_dir("hangup");
    let port_file = dir.join("ports.txt");
    let mut daemon = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--metrics-addr",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--pace",
        "200",
    ]);
    let (ingest_addr, metrics_addr) = wait_for_ports(&port_file, &mut daemon);
    let metrics_addr = metrics_addr.expect("metrics address in port file");

    // A task that stays unresolved for the whole test: its connection
    // stays open after the client hangs up, at its end of stream, which a
    // socket reports as readable for ever.
    let conn = TcpStream::connect(&ingest_addr).expect("connect ingest");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = conn.try_clone().expect("clone stream");
    writer
        .write_all(
            b"{\"submit\":{\"id\":1,\"tasks\":[{\"size_mi\":1e7,\"deadline\":1e6,\
              \"priority\":\"high\",\"site\":0}]}}\n",
        )
        .expect("write submission");
    let mut reader = BufReader::new(conn);
    for kind in ["ack", "placed"] {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read notification");
        assert!(line.contains(&format!("\"{kind}\"")), "{line}");
    }
    drop((reader, writer));
    std::thread::sleep(Duration::from_millis(100));

    // Control ticks (every 5 ms of wall time at pace 200) and the timers
    // wake the loop ~225 times a second; a wait that the hung-up socket
    // ended at once would make 10^5 passes and more.
    let before = loop_passes(&metrics_addr);
    std::thread::sleep(Duration::from_secs(1));
    let passes = loop_passes(&metrics_addr) - before;
    sigterm(&daemon);
    let out = wait_exit(daemon);
    assert!(passes < 1000.0, "{passes} loop passes in one second");
    assert!(
        out.contains("1 tasks still in flight"),
        "the task stayed unresolved: {out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
