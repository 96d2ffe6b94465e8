//! Runtime telemetry for the simulation stack.
//!
//! The design goal is *zero cost when disabled*: a run without a sink
//! attaches no recorder at all, and every emission is guarded by a
//! boolean cached when the recorder is attached (`Recorder::wants(level)`)
//! — no allocation or formatting below the configured level. The
//! `golden_determinism` suite and the `perfbench/` benchmark pin this down.
//!
//! Layers:
//!
//! - [`Recorder`] — the trait the engines talk to: the trace stream
//!   (span begin/end, instant events, gauges), a periodic [`Progress`]
//!   snapshot for the stderr ticker, and sink finalisation. It counts
//!   nothing: run totals live in the platform's `RunResult`, and the live
//!   `arls_*` family in [`metrics`].
//! - [`NullRecorder`] — the no-op implementation; `wants`
//!   returns `false` for every level so guarded sites never fire.
//! - [`JsonlSink`] — one self-contained JSON object per line; each line
//!   is formatted into a private buffer and written with a single
//!   `write_all` under a mutex, so concurrent replicated runs never
//!   interleave partial lines.
//! - [`ChromeTraceSink`] — Chrome `trace_event` JSON array loadable in
//!   Perfetto / `chrome://tracing`; dispatch spans become async `b`/`e`
//!   pairs, markers become instant events, gauges become counter tracks.
//! - [`StderrProgress`] — wraps any recorder (or nothing) and renders
//!   the [`Progress`] snapshots as a throttled one-line stderr ticker.
//! - [`json`] — a minimal recursive-descent JSON parser (no JSON crate
//!   is vendored) used by the exporter tests and the throughput
//!   regression guard.
//! - [`metrics`] — the live-monitoring registry: labeled atomic
//!   counters/gauges/histograms with Prometheus text-format exposition,
//!   served over HTTP by [`MetricsServer`].
//! - [`TimeSeriesRing`] / [`TimeSeriesLog`] — sim-time snapshots of
//!   per-site power/energy/queue state on a configurable cadence.
//! - [`PhaseProfiler`] — coarse phase timers for the `--profile`
//!   self-profiler.

mod chrome;
mod fmt;
pub mod ingest;
pub mod json;
mod jsonl;
pub mod metrics;
mod profile;
mod progress;
mod promhttp;
mod recorder;
mod timeseries;

pub use chrome::ChromeTraceSink;
pub use ingest::IngestMetrics;
pub use jsonl::JsonlSink;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use profile::{Phase, PhaseProfiler, PhaseStat, ProfileReport, PHASES};
pub use progress::StderrProgress;
pub use promhttp::MetricsServer;
pub use recorder::{Fields, NullRecorder, Progress, Recorder, TraceLevel, Value};
pub use timeseries::{SitePoint, TimePoint, TimeSeriesLog, TimeSeriesRing};
