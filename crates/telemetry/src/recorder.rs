//! The `Recorder` trait, trace levels, field values and the no-op
//! recorder.

use crate::stats::TelemetrySummary;

/// How much detail a sink wants. Levels are cumulative: a sink
/// configured at a level accepts that level and everything coarser.
///
/// - `Cycles` — coarsest: learning-cycle summaries plus fault/recovery
///   markers.
/// - `Decisions` — the default: adds per-decision events, dispatch/group
///   spans and the latency/queue-wait histograms.
/// - `All` — adds the per-engine-event firehose from the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    Cycles,
    Decisions,
    All,
}

impl TraceLevel {
    /// Parse a CLI-style level name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cycles" => Some(TraceLevel::Cycles),
            "decisions" => Some(TraceLevel::Decisions),
            "all" => Some(TraceLevel::All),
            _ => None,
        }
    }

    /// The CLI-style name, inverse of [`TraceLevel::parse`].
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Cycles => "cycles",
            TraceLevel::Decisions => "decisions",
            TraceLevel::All => "all",
        }
    }

    /// Whether a sink configured at `self` accepts events tagged `site`.
    /// Coarser-or-equal site levels are accepted.
    pub fn accepts(self, site: TraceLevel) -> bool {
        site <= self
    }
}

/// A typed field value; sinks render these without allocating
/// intermediate strings beyond the per-record buffer.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'a str),
    Bool(bool),
}

/// A borrowed field list, built on the caller's stack.
pub type Fields<'a> = &'a [(&'a str, Value<'a>)];

/// A progress snapshot emitted from the engine on tick boundaries when
/// the recorder asks for it (`wants_progress`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Progress {
    /// Current simulated time (seconds).
    pub sim_time: f64,
    /// Wall-clock seconds since the run started.
    pub wall_s: f64,
    /// Tasks resolved so far (any outcome).
    pub done: usize,
    /// Total tasks in the run.
    pub total: usize,
    /// Tasks that met their deadline so far.
    pub met: usize,
    /// Energy consumed so far (joules).
    pub energy: f64,
    /// Engine events processed so far.
    pub events: u64,
}

/// The instrumentation interface the engines and schedulers talk to.
///
/// All methods take `&self`; sinks use interior mutability so one
/// recorder can be shared across replicated runner threads. Call sites
/// MUST guard emission behind a cached `wants(...)` boolean — the
/// methods themselves are not free.
pub trait Recorder: Send + Sync {
    /// Does this recorder want events tagged with `level`? Called once
    /// per run at instrumentation setup, never in the hot loop.
    fn wants(&self, level: TraceLevel) -> bool;

    /// Does this recorder want periodic [`Progress`] snapshots?
    fn wants_progress(&self) -> bool {
        false
    }

    /// An instant event at simulated time `t` on logical track `track`.
    fn event(&self, name: &str, t: f64, track: u32, fields: Fields<'_>);

    /// Begin an async span; `id` pairs it with the matching `span_end`.
    fn span_begin(&self, name: &str, id: u64, t: f64, track: u32, fields: Fields<'_>);

    /// End the async span opened with the same `name`/`id`.
    fn span_end(&self, name: &str, id: u64, t: f64, track: u32);

    /// A sampled scalar series (rendered as a counter track in Chrome
    /// traces).
    fn gauge(&self, name: &str, t: f64, value: f64);

    /// Add to a monotonic counter; totals appear in the summary.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Record one histogram sample; quantiles appear in the summary.
    fn histogram(&self, name: &'static str, value: f64);

    /// Periodic progress snapshot; only called when `wants_progress`.
    fn progress(&self, _p: &Progress) {}

    /// Counter totals and histogram quantiles accumulated so far.
    fn summary(&self) -> Option<TelemetrySummary> {
        None
    }

    /// Flush and finalise the sink (e.g. close the Chrome JSON array).
    /// Idempotent; recorders must also finalise on drop.
    fn finish(&self) {}

    /// The first write/flush error the sink swallowed, if any.
    ///
    /// Sinks never abort a run on I/O failure (a full disk must not cost
    /// the in-memory results); instead they latch the first error here so
    /// the caller can surface it after `finish()`.
    fn io_error(&self) -> Option<String> {
        None
    }
}

/// The no-op recorder: `wants` is `false` for every level, so guarded
/// call sites never reach the other methods.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn wants(&self, _level: TraceLevel) -> bool {
        false
    }

    #[inline(always)]
    fn event(&self, _name: &str, _t: f64, _track: u32, _fields: Fields<'_>) {}

    #[inline(always)]
    fn span_begin(&self, _name: &str, _id: u64, _t: f64, _track: u32, _fields: Fields<'_>) {}

    #[inline(always)]
    fn span_end(&self, _name: &str, _id: u64, _t: f64, _track: u32) {}

    #[inline(always)]
    fn gauge(&self, _name: &str, _t: f64, _value: f64) {}

    #[inline(always)]
    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn histogram(&self, _name: &'static str, _value: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_cumulative() {
        assert!(TraceLevel::All.accepts(TraceLevel::Cycles));
        assert!(TraceLevel::All.accepts(TraceLevel::Decisions));
        assert!(TraceLevel::All.accepts(TraceLevel::All));
        assert!(TraceLevel::Decisions.accepts(TraceLevel::Cycles));
        assert!(TraceLevel::Decisions.accepts(TraceLevel::Decisions));
        assert!(!TraceLevel::Decisions.accepts(TraceLevel::All));
        assert!(TraceLevel::Cycles.accepts(TraceLevel::Cycles));
        assert!(!TraceLevel::Cycles.accepts(TraceLevel::Decisions));
    }

    #[test]
    fn level_names_round_trip() {
        for lvl in [TraceLevel::Cycles, TraceLevel::Decisions, TraceLevel::All] {
            assert_eq!(TraceLevel::parse(lvl.name()), Some(lvl));
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
    }

    #[test]
    fn null_recorder_wants_nothing() {
        assert!(!NullRecorder.wants(TraceLevel::Cycles));
        assert!(!NullRecorder.wants(TraceLevel::All));
        assert!(!NullRecorder.wants_progress());
        assert!(NullRecorder.summary().is_none());
    }
}
