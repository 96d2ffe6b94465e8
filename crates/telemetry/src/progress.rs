//! Live stderr progress ticker.
//!
//! `StderrProgress` wraps an inner recorder (possibly the no-op one) and
//! adds `wants_progress() == true`: the platform engine then emits a
//! [`Progress`] snapshot on every tick event, and this wrapper throttles
//! rendering to at most one stderr line per interval of *wall* time so
//! fast runs don't drown the terminal.

use crate::recorder::{Fields, Progress, Recorder, TraceLevel};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct StderrProgress {
    inner: Arc<dyn Recorder>,
    every: Duration,
    last: Mutex<Option<Instant>>,
    /// Most recent snapshot, rendered unthrottled — once — by
    /// [`Recorder::finish`] so the ticker always ends on a complete
    /// `done` line and whatever follows on the terminal (the profiler
    /// table, piped logs) never interleaves with a stale ticker line.
    final_snapshot: Mutex<Option<Progress>>,
}

impl StderrProgress {
    /// Wrap `inner`, printing at most one line per `every` of wall time.
    pub fn wrap(inner: Arc<dyn Recorder>, every: Duration) -> Self {
        StderrProgress {
            inner,
            every,
            last: Mutex::new(None),
            final_snapshot: Mutex::new(None),
        }
    }

    /// Progress-only recorder: no trace sink, just the stderr ticker.
    pub fn bare() -> Self {
        Self::wrap(
            Arc::new(crate::recorder::NullRecorder),
            Duration::from_millis(500),
        )
    }

    fn should_print(&self) -> bool {
        // Poison recovery: the throttle state is just a timestamp, safe
        // to reuse after a panic elsewhere.
        let mut last = self.last.lock().unwrap_or_else(|p| p.into_inner());
        let now = Instant::now();
        match *last {
            Some(prev) if now.duration_since(prev) < self.every => false,
            _ => {
                *last = Some(now);
                true
            }
        }
    }

    fn render(p: &Progress) {
        eprintln!("{}", Self::render_line(p));
    }

    fn render_line(p: &Progress) -> String {
        let pct = if p.total > 0 {
            100.0 * p.done as f64 / p.total as f64
        } else {
            0.0
        };
        let success = if p.done > 0 {
            100.0 * p.met as f64 / p.done as f64
        } else {
            0.0
        };
        let eps = if p.wall_s > 0.0 {
            p.events as f64 / p.wall_s
        } else {
            0.0
        };
        format!(
            "[t={:>8.2}s] tasks {}/{} ({:.0}%)  met {:.1}%  energy {:.0} J  {:.0} ev/s",
            p.sim_time, p.done, p.total, pct, success, p.energy, eps
        )
    }
}

impl Recorder for StderrProgress {
    fn wants(&self, level: TraceLevel) -> bool {
        self.inner.wants(level)
    }

    fn wants_progress(&self) -> bool {
        true
    }

    fn event(&self, name: &str, t: f64, track: u32, fields: Fields<'_>) {
        self.inner.event(name, t, track, fields);
    }

    fn span_begin(&self, name: &str, id: u64, t: f64, track: u32, fields: Fields<'_>) {
        self.inner.span_begin(name, id, t, track, fields);
    }

    fn span_end(&self, name: &str, id: u64, t: f64, track: u32) {
        self.inner.span_end(name, id, t, track);
    }

    fn gauge(&self, name: &str, t: f64, value: f64) {
        self.inner.gauge(name, t, value);
    }

    fn progress(&self, p: &Progress) {
        {
            let mut snap = self
                .final_snapshot
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            *snap = Some(*p);
        }
        if self.should_print() {
            Self::render(p);
        }
    }

    fn finish(&self) {
        // `take()` makes the final line idempotent across repeated
        // finish() calls (the CLI finishes explicitly; drops may too).
        let snap = self
            .final_snapshot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(p) = snap {
            eprintln!("{}  done", Self::render_line(&p));
        }
        self.inner.finish();
    }

    fn io_error(&self) -> Option<String> {
        self.inner.io_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_wrapper_wants_progress_but_no_levels() {
        let p = StderrProgress::bare();
        assert!(p.wants_progress());
        assert!(!p.wants(TraceLevel::Cycles));
    }

    #[test]
    fn finish_consumes_the_final_snapshot_once() {
        let p = StderrProgress::wrap(
            Arc::new(crate::recorder::NullRecorder),
            Duration::from_secs(3600),
        );
        let snap = Progress {
            sim_time: 42.0,
            done: 5,
            total: 10,
            ..Progress::default()
        };
        p.progress(&snap);
        assert!(p.final_snapshot.lock().unwrap().is_some());
        p.finish();
        // The latch is consumed: a second finish has nothing to print.
        assert!(p.final_snapshot.lock().unwrap().is_none());
        p.finish();
    }

    #[test]
    fn render_line_is_one_line() {
        let line = StderrProgress::render_line(&Progress {
            sim_time: 1.5,
            wall_s: 0.5,
            done: 2,
            total: 4,
            met: 1,
            energy: 123.0,
            events: 100,
        });
        assert!(!line.contains('\n'));
        assert!(line.contains("tasks 2/4 (50%)"), "{line}");
    }

    #[test]
    fn throttle_admits_first_and_blocks_burst() {
        let p = StderrProgress::wrap(
            Arc::new(crate::recorder::NullRecorder),
            Duration::from_secs(3600),
        );
        assert!(p.should_print());
        assert!(!p.should_print());
        assert!(!p.should_print());
    }
}
