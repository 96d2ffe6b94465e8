//! Chrome `trace_event` exporter (the JSON-array flavour), loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Mapping:
//! - `span_begin`/`span_end` → async `ph:"b"` / `ph:"e"` pairs keyed by
//!   `(cat, id)` — group lifetimes (dispatch → completion) render as
//!   horizontal bars per node track (`tid` = flat node index).
//! - `event` → global instant events (`ph:"i"`, `s:"g"`) — learning
//!   cycles, faults, recoveries, decisions.
//! - `gauge` → counter tracks (`ph:"C"`) — per-site queue depth and
//!   power draw.
//!
//! Timestamps are microseconds: simulated seconds × 1e6. Events are
//! streamed to the writer in emission order, which the engine guarantees
//! is non-decreasing in simulated time.

use crate::fmt::{push_f64, push_fields};
use crate::json::push_string;
use crate::jsonl::SinkWriter;
use crate::recorder::{Fields, Recorder, TraceLevel};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

const CATEGORY: &str = "sim";

struct ChromeOut {
    w: SinkWriter,
    wrote_any: bool,
    finished: bool,
    /// First write/flush error; later errors are dropped so the root
    /// cause is what gets reported.
    err: Option<io::Error>,
}

impl ChromeOut {
    fn note(&mut self, r: io::Result<()>) {
        if let Err(e) = r {
            self.err.get_or_insert(e);
        }
    }
}

pub struct ChromeTraceSink {
    level: TraceLevel,
    out: Mutex<ChromeOut>,
}

impl ChromeTraceSink {
    /// Create (truncate) `path` and record events up to `level`.
    pub fn create<P: AsRef<Path>>(path: P, level: TraceLevel) -> io::Result<Self> {
        let file = File::create(path)?;
        Self::to_writer(Box::new(BufWriter::new(file)), level)
    }

    /// Build a sink over any writer (used by tests).
    pub fn to_writer(mut out: SinkWriter, level: TraceLevel) -> io::Result<Self> {
        out.write_all(b"[\n")?;
        Ok(ChromeTraceSink {
            level,
            out: Mutex::new(ChromeOut {
                w: out,
                wrote_any: false,
                finished: false,
                err: None,
            }),
        })
    }

    /// Poison-recovering lock: a panic on another thread mid-write must
    /// not cascade here — the closing `]` still lands on drop during the
    /// unwind, keeping the trace loadable.
    fn lock(&self) -> std::sync::MutexGuard<'_, ChromeOut> {
        self.out.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Append one record (no surrounding comma) to the streamed array.
    fn emit(&self, record: &str) {
        let mut out = self.lock();
        if out.finished {
            return;
        }
        if out.wrote_any {
            let r = out.w.write_all(b",\n");
            out.note(r);
        }
        out.wrote_any = true;
        let r = out.w.write_all(record.as_bytes());
        out.note(r);
    }

    /// Common record prefix: name, category, phase, timestamp, pid/tid.
    fn head(name: &str, ph: &str, t: f64, track: u32) -> String {
        let mut r = String::with_capacity(128);
        r.push_str("{\"name\":");
        push_string(&mut r, name);
        r.push_str(",\"cat\":\"");
        r.push_str(CATEGORY);
        r.push_str("\",\"ph\":\"");
        r.push_str(ph);
        r.push_str("\",\"ts\":");
        push_f64(&mut r, t * 1e6);
        r.push_str(",\"pid\":0,\"tid\":");
        r.push_str(&track.to_string());
        r
    }
}

impl Recorder for ChromeTraceSink {
    fn wants(&self, level: TraceLevel) -> bool {
        self.level.accepts(level)
    }

    fn event(&self, name: &str, t: f64, track: u32, fields: Fields<'_>) {
        let mut r = Self::head(name, "i", t, track);
        r.push_str(",\"s\":\"g\",\"args\":");
        push_fields(&mut r, fields);
        r.push('}');
        self.emit(&r);
    }

    fn span_begin(&self, name: &str, id: u64, t: f64, track: u32, fields: Fields<'_>) {
        let mut r = Self::head(name, "b", t, track);
        r.push_str(",\"id\":");
        r.push_str(&id.to_string());
        r.push_str(",\"args\":");
        push_fields(&mut r, fields);
        r.push('}');
        self.emit(&r);
    }

    fn span_end(&self, name: &str, id: u64, t: f64, track: u32) {
        let mut r = Self::head(name, "e", t, track);
        r.push_str(",\"id\":");
        r.push_str(&id.to_string());
        r.push_str(",\"args\":{}}");
        self.emit(&r);
    }

    fn gauge(&self, name: &str, t: f64, value: f64) {
        let mut r = Self::head(name, "C", t, 0);
        r.push_str(",\"args\":{\"value\":");
        push_f64(&mut r, value);
        r.push_str("}}");
        self.emit(&r);
    }

    /// Close the JSON array; idempotent, also invoked on drop.
    fn finish(&self) {
        let mut out = self.lock();
        if out.finished {
            return;
        }
        out.finished = true;
        let r = out.w.write_all(b"\n]\n");
        out.note(r);
        let r = out.w.flush();
        out.note(r);
    }

    fn io_error(&self) -> Option<String> {
        self.lock().err.as_ref().map(|e| e.to_string())
    }
}

impl Drop for ChromeTraceSink {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::recorder::Value;
    use std::sync::Arc;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn render(f: impl FnOnce(&ChromeTraceSink)) -> String {
        let buf = SharedBuf::default();
        let sink = ChromeTraceSink::to_writer(Box::new(buf.clone()), TraceLevel::All).unwrap();
        f(&sink);
        sink.finish();
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn empty_trace_is_a_valid_array() {
        let text = render(|_| {});
        let v = json::parse(&text).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 0);
    }

    #[test]
    fn records_render_with_microsecond_ts() {
        let text = render(|s| {
            s.span_begin("group", 7, 0.5, 3, &[("size", Value::U64(4))]);
            s.event("fault", 0.75, 3, &[]);
            s.gauge("queue", 0.8, 2.0);
            s.span_end("group", 7, 1.0, 3);
        });
        let v = json::parse(&text).unwrap();
        let evs = v.as_array().unwrap();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("b"));
        assert_eq!(evs[0].get("ts").unwrap().as_f64(), Some(0.5e6));
        assert_eq!(evs[0].path(&["args", "size"]).unwrap().as_f64(), Some(4.0));
        assert_eq!(evs[1].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(evs[2].get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(evs[3].get("ph").unwrap().as_str(), Some("e"));
        assert_eq!(evs[3].get("id").unwrap().as_f64(), Some(7.0));
    }

    /// The satellite contract: a trace abandoned mid-run (sink dropped
    /// without `finish()`) is still a loadable JSON array — the drop path
    /// writes the closing bracket.
    #[test]
    fn dropped_sink_leaves_a_loadable_trace() {
        let buf = SharedBuf::default();
        {
            let sink = ChromeTraceSink::to_writer(Box::new(buf.clone()), TraceLevel::All).unwrap();
            sink.event("fault", 0.5, 1, &[]);
            sink.span_begin("group", 9, 0.6, 2, &[]);
            // No finish(): the run "crashed" here.
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let v = json::parse(&text).expect("partial trace must still parse");
        assert_eq!(v.as_array().unwrap().len(), 2);
    }

    /// Same guarantee under a panic unwind: the sink's Drop runs during
    /// the unwind and closes the array.
    #[test]
    fn panic_unwind_still_closes_the_array() {
        let buf = SharedBuf::default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let sink = ChromeTraceSink::to_writer(Box::new(buf.clone()), TraceLevel::All).unwrap();
            sink.event("before-crash", 0.25, 0, &[]);
            panic!("simulated mid-run crash");
        }));
        assert!(result.is_err());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let v = json::parse(&text).expect("trace after unwind must still parse");
        let evs = v.as_array().unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("name").unwrap().as_str(), Some("before-crash"));
    }

    #[test]
    fn write_failure_is_latched_not_panicked() {
        let sink = ChromeTraceSink::to_writer(
            Box::new(crate::jsonl::tests::FailingWriter),
            TraceLevel::All,
        );
        // Even the opening bracket fails to land: creation reports it.
        assert!(sink.is_err());
        let buf = SharedBuf::default();
        let sink = ChromeTraceSink::to_writer(Box::new(buf.clone()), TraceLevel::All).unwrap();
        assert!(sink.io_error().is_none());
        sink.finish();
        assert!(sink.io_error().is_none());
    }

    #[test]
    fn finish_is_idempotent_and_blocks_late_events() {
        let buf = SharedBuf::default();
        let sink = ChromeTraceSink::to_writer(Box::new(buf.clone()), TraceLevel::All).unwrap();
        sink.event("a", 0.0, 0, &[]);
        sink.finish();
        sink.finish();
        sink.event("late", 1.0, 0, &[]);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 1);
    }
}
