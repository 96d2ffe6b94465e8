//! The benchmark's open-loop load generator for `serve-open`.
//!
//! One thread, one connection, one single-task submission after another on
//! a fixed schedule: submission `i` is due `i / rate` seconds after the
//! start, whatever the daemon has answered so far, as from independent
//! users. Each ack is timed from its submission's due time, so a stall that
//! delays later sends counts against them, and the generator reports how
//! late it sent. Between sends it waits on the socket with `ppoll`, whose
//! timeout has nanosecond resolution; a socket read timeout is rounded to
//! scheduler ticks and cannot resolve sub-millisecond acks. It does not
//! spin instead: next to one busy thread on a two-vCPU host, a spinning
//! generator shares its vCPU in whole time slices and its ack p99 rose
//! 2.4-fold, a waiting one is woken ahead of the busy thread and its p99
//! rose 6 %.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};
use workload::submit::Notification;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ppoll binding below assumes the 64-bit Linux ABI");

/// The open-loop send schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate: f64,
}

impl Schedule {
    /// `rate` submissions per second.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "the rate must be positive");
        Schedule { rate }
    }

    /// When submission `i` is due, counted from the start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// How many submissions are due `elapsed` after the start.
    pub fn due_by(&self, elapsed: Duration) -> usize {
        // The float estimate, settled against `due` itself so that the two
        // never disagree at a boundary.
        let mut n = (elapsed.as_secs_f64() * self.rate) as usize;
        while n > 0 && self.due(n - 1) > elapsed {
            n -= 1;
        }
        while self.due(n) <= elapsed {
            n += 1;
        }
        n
    }
}

/// What one load window observed.
#[derive(Debug, Default)]
pub struct Load {
    /// Submissions written.
    pub sent: usize,
    /// Submissions acked.
    pub acked: usize,
    /// Submissions rejected.
    pub rejected: usize,
    /// Lines that parse as no notification, or ack no submission of ours.
    pub stray: usize,
    /// Per submission, once acked: its admission instant in simulated time
    /// and the id the daemon gave its task.
    pub admitted: Vec<Option<(f64, u64)>>,
    /// Per acked submission: its index and the milliseconds from its due
    /// time to its ack.
    pub ack_ms: Vec<(usize, f64)>,
    /// Per submission: milliseconds from its due time to its send.
    pub late_ms: Vec<f64>,
    /// Placement notices per task id.
    pub placed: HashMap<u64, u32>,
    /// Done and failed notices per task id.
    pub resolved: HashMap<u64, u32>,
    /// Failed notices.
    pub failed_tasks: usize,
    /// Every placed, done and failed line, as received.
    pub task_lines: Vec<String>,
}

impl Load {
    fn new(submissions: usize) -> Self {
        Load {
            admitted: vec![None; submissions],
            ..Load::default()
        }
    }

    /// Every submission answered and every admitted task resolved.
    fn settled(&self) -> bool {
        self.acked + self.rejected >= self.sent && self.resolved.len() >= self.acked
    }

    /// Consumes the complete lines at the front of `buf`, all read at `at`.
    fn take_lines(&mut self, buf: &mut Vec<u8>, at: Instant, start: Instant, sched: &Schedule) {
        let mut used = 0;
        while let Some(len) = buf[used..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[used..used + len])
                .trim()
                .to_string();
            used += len + 1;
            if !line.is_empty() {
                self.take(line, at, start, sched);
            }
        }
        buf.drain(..used);
    }

    fn take(&mut self, line: String, at: Instant, start: Instant, sched: &Schedule) {
        match Notification::parse_line(&line) {
            Ok(Notification::Ack { id, tasks, t }) => {
                let i = usize::try_from(id).unwrap_or(usize::MAX);
                if i < self.sent && self.admitted[i].is_none() && tasks.len() == 1 {
                    self.admitted[i] = Some((t, tasks[0]));
                    self.acked += 1;
                    let late = at.saturating_duration_since(start + sched.due(i));
                    self.ack_ms.push((i, ms(late)));
                } else {
                    self.stray += 1;
                }
            }
            Ok(Notification::Reject { .. }) => self.rejected += 1,
            Ok(Notification::Placed { task, .. }) => {
                *self.placed.entry(task).or_default() += 1;
                self.task_lines.push(line);
            }
            Ok(Notification::Done { task, .. }) => {
                *self.resolved.entry(task).or_default() += 1;
                self.task_lines.push(line);
            }
            Ok(Notification::Failed { task, .. }) => {
                *self.resolved.entry(task).or_default() += 1;
                self.failed_tasks += 1;
                self.task_lines.push(line);
            }
            Err(_) => self.stray += 1,
        }
    }
}

/// Sends `lines` (each ending in a newline) over `conn` on `sched`, and
/// reads notifications until every submission is answered and every
/// admitted task resolved, or until `drain` has passed after the last send.
pub fn drive(
    mut conn: TcpStream,
    sched: &Schedule,
    lines: &[String],
    drain: Duration,
) -> io::Result<Load> {
    conn.set_nonblocking(true)?;
    conn.set_nodelay(true)?;
    let fd = conn.as_raw_fd();
    let mut load = Load::new(lines.len());
    let mut inbuf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut drain_end = None;
    let start = Instant::now();
    loop {
        let due = sched.due_by(start.elapsed()).min(lines.len());
        while load.sent < due {
            write_all(&mut conn, fd, lines[load.sent].as_bytes())?;
            load.late_ms
                .push(ms(start.elapsed().saturating_sub(sched.due(load.sent))));
            load.sent += 1;
        }
        loop {
            match conn.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "the daemon closed the connection",
                    ))
                }
                Ok(n) => {
                    let at = Instant::now();
                    inbuf.extend_from_slice(&chunk[..n]);
                    load.take_lines(&mut inbuf, at, start, sched);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let wait = if load.sent < lines.len() {
            (start + sched.due(load.sent)).saturating_duration_since(Instant::now())
        } else if load.settled() {
            break;
        } else {
            let end = *drain_end.get_or_insert_with(|| Instant::now() + drain);
            let left = end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            left
        };
        if !wait.is_zero() {
            wait_fd(fd, POLLIN, wait)?;
        }
    }
    Ok(load)
}

/// `POLLIN` and `POLLOUT` of `<poll.h>`.
const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Blocks until `fd` is ready for `events` or `timeout` has passed.
fn wait_fd(fd: RawFd, events: i16, timeout: Duration) -> io::Result<()> {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` live across the call and have the layouts of
    // `struct pollfd` and `struct timespec` on 64-bit Linux, the only target
    // this module compiles for; `nfds` is 1, matching the single entry; a
    // null signal mask leaves the thread's mask unchanged.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// `write_all` for a non-blocking socket.
fn write_all(conn: &mut TcpStream, fd: RawFd, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match conn.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                wait_fd(fd, POLLOUT, Duration::from_millis(10))?
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_the_start() {
        let s = Schedule::new(1000.0);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_millis(1));
        assert_eq!(s.due(2500), Duration::from_millis(2500));
    }

    #[test]
    fn due_by_counts_exactly_the_submissions_already_due() {
        let s = Schedule::new(1000.0);
        assert_eq!(s.due_by(Duration::ZERO), 1);
        for i in 1..5000 {
            assert_eq!(s.due_by(s.due(i)), i + 1, "at due({i})");
            assert_eq!(
                s.due_by(s.due(i) - Duration::from_nanos(1)),
                i,
                "just before due({i})"
            );
        }
        // Open loop: a generator stalled for 250 ms owes, at once, every
        // submission that fell due meanwhile.
        assert_eq!(s.due_by(Duration::from_millis(250)), 251);
    }

    #[test]
    fn acks_are_timed_from_the_due_time() {
        let s = Schedule::new(1000.0);
        let start = Instant::now();
        let mut load = Load::new(4);
        load.sent = 4;
        let mut buf = b"{\"ack\":{\"id\":3,\"tasks\":[7],\"t\":1.5}}\n\
                        {\"placed\":{\"task\":7,\"site\":0,\"node\":1,\"t\":1.5}}\n{\"done"
            .to_vec();
        load.take_lines(&mut buf, start + Duration::from_millis(10), start, &s);
        // Due at 3 ms and answered at 10 ms: 7 ms, however late it was sent.
        assert_eq!(load.ack_ms.len(), 1);
        assert_eq!(load.ack_ms[0].0, 3);
        assert!((load.ack_ms[0].1 - 7.0).abs() < 1e-9, "{:?}", load.ack_ms);
        assert_eq!(load.admitted[3], Some((1.5, 7)));
        assert_eq!(load.placed.get(&7), Some(&1));
        assert!(!load.settled());
        // A partial line waits for the rest of its bytes.
        assert_eq!(buf, b"{\"done".to_vec());
        buf.extend_from_slice(b"\":{\"task\":7,\"met\":true,\"t\":9}}\n");
        load.take_lines(&mut buf, start, start, &s);
        assert_eq!(load.resolved.get(&7), Some(&1));
        assert!(buf.is_empty());
    }
}
