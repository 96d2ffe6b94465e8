//! Minimal blocking `/metrics` HTTP listener.
//!
//! No HTTP crate is vendored; the endpoint speaks just enough HTTP/1.1
//! for `curl` and a Prometheus scraper: one request per connection,
//! `GET`/`HEAD /metrics` answered from [`MetricsRegistry::render`],
//! everything else 404/405, `Connection: close`. The accept loop runs on
//! one background thread with a non-blocking listener polled every few
//! tens of milliseconds so [`MetricsServer::shutdown`] (and `Drop`) can
//! stop it promptly; the simulation thread never blocks on a scrape.

use crate::metrics::MetricsRegistry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A live `/metrics` endpoint serving one [`MetricsRegistry`].
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9898"`; port 0 picks a free one)
    /// and starts serving `registry` until shutdown/drop.
    pub fn serve(addr: &str, registry: Arc<MetricsRegistry>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("arls-metrics".to_string())
            .spawn(move || accept_loop(listener, registry, stop_flag))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, registry: Arc<MetricsRegistry>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Scrapes are cheap and rare; serving inline keeps the
                // server a single predictable thread.
                let _ = serve_one(stream, &registry);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Reads one request head and answers it. Any I/O error just drops the
/// connection — a broken scraper must never disturb the run.
fn serve_one(mut stream: TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let head = match read_head(&mut stream)? {
        Head::Complete(head) => head,
        Head::TooLarge => {
            let body = "request head exceeds 8 KiB\n";
            let response = format!(
                "HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(response.as_bytes())?;
            return stream.flush();
        }
    };
    let mut parts = head
        .lines()
        .next()
        .unwrap_or_default()
        .split_ascii_whitespace();
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    let path = path.split('?').next().unwrap_or_default();
    let (status, body) = match (method, path) {
        ("GET" | "HEAD", "/metrics") => ("200 OK", registry.render()),
        ("GET" | "HEAD", _) => ("404 Not Found", "not found; try /metrics\n".to_string()),
        _ => (
            "405 Method Not Allowed",
            "only GET is supported\n".to_string(),
        ),
    };
    let content_type = if status.starts_with("200") {
        // The exposition-format content type Prometheus expects.
        "text/plain; version=0.0.4; charset=utf-8"
    } else {
        "text/plain; charset=utf-8"
    };
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    if method != "HEAD" {
        response.push_str(&body);
    }
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Hard cap on the accumulated request head. A scrape request head is a
/// few hundred bytes; anything larger is a confused or hostile client.
const MAX_HEAD_BYTES: usize = 8192;

/// Outcome of reading one request head.
enum Head {
    /// Terminated by the blank line — or by peer half-close, which ends
    /// the head just as definitively (the client has nothing more to
    /// say, so waiting out the read timeout would be pointless).
    Complete(String),
    /// Grew past [`MAX_HEAD_BYTES`] without terminating; the caller must
    /// answer 431 and close rather than parse a truncated head.
    TooLarge,
}

/// Reads until the blank line ending the request head, bounded by
/// [`MAX_HEAD_BYTES`].
fn read_head(stream: &mut TcpStream) -> std::io::Result<Head> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            // Peer half-close: whatever arrived is the whole head.
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Ok(Head::TooLarge);
        }
    }
    Ok(Head::Complete(String::from_utf8_lossy(&buf).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn request(addr: SocketAddr, req: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(req.as_bytes()).unwrap();
        // Read the whole response. The server closes immediately after a
        // 431, which can surface as ECONNRESET once the status bytes have
        // arrived — treat that like EOF, the way a real scrape client does.
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset && !raw.is_empty() => {
                    break
                }
                Err(e) => panic!("read response: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&raw).into_owned();
        let status = text.lines().next().unwrap_or_default().to_string();
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_and_rejects_other_paths() {
        let registry = Arc::new(MetricsRegistry::new());
        let c = registry.counter("arls_up_total", "Liveness.", &[]);
        c.add(5);
        let mut server = MetricsServer::serve("127.0.0.1:0", registry.clone()).expect("bind");
        let addr = server.local_addr();

        let (status, body) = request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("arls_up_total 5\n"), "{body}");

        // A scrape sees live values, not a snapshot from bind time.
        c.add(2);
        let (_, body) = request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(body.contains("arls_up_total 7\n"), "{body}");

        let (status, _) = request(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 404 Not Found");

        let (status, _) = request(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");

        server.shutdown();
        // Idempotent shutdown, and the port is released.
        server.shutdown();
    }

    #[test]
    fn oversized_head_is_answered_431_and_closed() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut server = MetricsServer::serve("127.0.0.1:0", registry).expect("bind");
        let addr = server.local_addr();

        // A head that never terminates: > 8 KiB of header bytes with no
        // blank line. The server must refuse it rather than buffer on.
        let mut req = String::from("GET /metrics HTTP/1.1\r\n");
        while req.len() <= MAX_HEAD_BYTES {
            req.push_str("X-Padding: ");
            req.push_str(&"a".repeat(500));
            req.push_str("\r\n");
        }
        let (status, _) = request(addr, &req);
        assert_eq!(status, "HTTP/1.1 431 Request Header Fields Too Large");

        // The endpoint still serves normal requests afterwards.
        let (status, _) = request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        server.shutdown();
    }

    #[test]
    fn half_close_without_blank_line_still_gets_an_answer() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut server = MetricsServer::serve("127.0.0.1:0", registry).expect("bind");
        let addr = server.local_addr();

        // Send a request line with no terminating blank line, then shut
        // down the write half. The 0-byte read must end the head (the
        // client can say nothing more), not spin until the read timeout.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n")
            .unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(s);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert_eq!(status.trim_end(), "HTTP/1.1 200 OK");
        server.shutdown();
    }
}
