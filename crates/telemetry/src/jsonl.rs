//! JSONL structured-event sink: one self-contained JSON object per
//! line.
//!
//! Line atomicity: each record is formatted into a private `String`
//! (newline included) and written with a single `write_all` while
//! holding the writer lock, so lines from replicated runner threads
//! sharing one sink never interleave.

use crate::fmt::{push_f64, push_fields};
use crate::json::push_string;
use crate::recorder::{Fields, Recorder, TraceLevel};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A boxed output the sink can write to; `File` in production, a shared
/// buffer in tests.
pub type SinkWriter = Box<dyn Write + Send>;

struct JsonlOut {
    w: SinkWriter,
    /// First write/flush error; later errors are dropped so the root
    /// cause (e.g. the ENOSPC that started it all) is what gets reported.
    err: Option<io::Error>,
}

impl JsonlOut {
    fn note(&mut self, r: io::Result<()>) {
        if let Err(e) = r {
            self.err.get_or_insert(e);
        }
    }
}

pub struct JsonlSink {
    level: TraceLevel,
    out: Mutex<JsonlOut>,
}

impl JsonlSink {
    /// Create (truncate) `path` and record events up to `level`.
    pub fn create<P: AsRef<Path>>(path: P, level: TraceLevel) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(BufWriter::new(file)), level))
    }

    /// Build a sink over any writer (used by tests).
    pub fn to_writer(out: SinkWriter, level: TraceLevel) -> Self {
        JsonlSink {
            level,
            out: Mutex::new(JsonlOut { w: out, err: None }),
        }
    }

    /// Poison-recovering lock: a panic on another thread mid-write must
    /// not cascade here — the sink keeps accepting lines and still
    /// flushes on drop during the unwind.
    fn lock(&self) -> std::sync::MutexGuard<'_, JsonlOut> {
        self.out.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn write_line(&self, line: &str) {
        debug_assert!(line.ends_with('\n'));
        let mut out = self.lock();
        // A full line per syscall-visible write: atomic w.r.t. other
        // threads sharing this sink.
        let r = out.w.write_all(line.as_bytes());
        out.note(r);
    }

    fn record(&self, kind: &str, name: &str, t: f64, track: u32) -> String {
        let mut line = String::with_capacity(128);
        line.push_str("{\"type\":");
        push_string(&mut line, kind);
        line.push_str(",\"name\":");
        push_string(&mut line, name);
        line.push_str(",\"t\":");
        push_f64(&mut line, t);
        line.push_str(",\"track\":");
        line.push_str(&track.to_string());
        line
    }
}

impl Recorder for JsonlSink {
    fn wants(&self, level: TraceLevel) -> bool {
        self.level.accepts(level)
    }

    fn event(&self, name: &str, t: f64, track: u32, fields: Fields<'_>) {
        let mut line = self.record("event", name, t, track);
        line.push_str(",\"fields\":");
        push_fields(&mut line, fields);
        line.push_str("}\n");
        self.write_line(&line);
    }

    fn span_begin(&self, name: &str, id: u64, t: f64, track: u32, fields: Fields<'_>) {
        let mut line = self.record("span_begin", name, t, track);
        line.push_str(",\"id\":");
        line.push_str(&id.to_string());
        line.push_str(",\"fields\":");
        push_fields(&mut line, fields);
        line.push_str("}\n");
        self.write_line(&line);
    }

    fn span_end(&self, name: &str, id: u64, t: f64, track: u32) {
        let mut line = self.record("span_end", name, t, track);
        line.push_str(",\"id\":");
        line.push_str(&id.to_string());
        line.push_str("}\n");
        self.write_line(&line);
    }

    fn gauge(&self, name: &str, t: f64, value: f64) {
        let mut line = self.record("gauge", name, t, 0);
        line.push_str(",\"value\":");
        push_f64(&mut line, value);
        line.push_str("}\n");
        self.write_line(&line);
    }

    fn finish(&self) {
        let mut out = self.lock();
        let r = out.w.flush();
        out.note(r);
    }

    fn io_error(&self) -> Option<String> {
        self.lock().err.as_ref().map(|e| e.to_string())
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json;
    use crate::recorder::Value;
    use std::sync::Arc;

    /// A writer handing every byte to a shared buffer, so tests can read
    /// back what the sink wrote.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_line_is_valid_json() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::to_writer(Box::new(buf.clone()), TraceLevel::All);
        sink.event("cycle", 1.25, 3, &[("reward", Value::U64(1))]);
        sink.span_begin("group", 42, 2.0, 7, &[("site", Value::U64(0))]);
        sink.span_end("group", 42, 3.5, 7);
        sink.gauge("queue", 4.0, 9.0);
        sink.finish();
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let v = json::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
            assert!(v.get("type").is_some() && v.get("t").is_some());
        }
        let begin = json::parse(lines[1]).unwrap();
        assert_eq!(begin.get("id").unwrap().as_f64(), Some(42.0));
        assert_eq!(begin.path(&["fields", "site"]).unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn level_gating_respected() {
        let sink = JsonlSink::to_writer(Box::new(SharedBuf::default()), TraceLevel::Cycles);
        assert!(sink.wants(TraceLevel::Cycles));
        assert!(!sink.wants(TraceLevel::Decisions));
        assert!(!sink.wants(TraceLevel::All));
    }

    /// A writer whose disk is always full.
    pub(crate) struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        }
    }

    #[test]
    fn write_failure_is_latched_not_panicked() {
        let sink = JsonlSink::to_writer(Box::new(FailingWriter), TraceLevel::All);
        assert!(sink.io_error().is_none());
        sink.event("cycle", 1.0, 0, &[]);
        sink.gauge("queue", 2.0, 3.0);
        sink.finish();
        let err = sink.io_error().expect("first error latched");
        assert!(err.contains("disk full"), "unexpected error: {err}");
    }

    #[test]
    fn poisoned_lock_recovers_and_keeps_writing() {
        let buf = SharedBuf::default();
        let sink =
            std::sync::Arc::new(JsonlSink::to_writer(Box::new(buf.clone()), TraceLevel::All));
        // Poison the writer mutex by panicking while holding it.
        let poisoner = sink.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.out.lock().unwrap();
            panic!("poison");
        })
        .join();
        sink.event("after", 1.0, 0, &[]);
        sink.finish();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"after\""));
        assert!(sink.io_error().is_none());
    }
}
