//! Self-profiler: coarse phase timers around the simulation hot path.
//!
//! Six fixed phases cover where the wall time goes — event-queue pop,
//! event handling, observation building, batched candidate scoring,
//! training steps and checkpoint writes. Recording is two relaxed atomic
//! adds per sample; call sites gate the `Instant::now()` pair behind an
//! `Option<Arc<PhaseProfiler>>` so unprofiled runs never read the clock.
//!
//! The report renders as an aligned stderr table and as a hand-rolled
//! `PROFILE_*.json` artifact (no JSON crate is vendored).

use crate::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The profiled phases, in display order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Popping the next event off the engine queue.
    EventPop,
    /// Handling one engine event (everything inside `on_event`).
    EventHandle,
    /// Building per-site observations for the RL agent.
    ObsBuild,
    /// Batched candidate scoring (`score_into` over the value network).
    Score,
    /// One training step of the value network.
    Train,
    /// Serializing + atomically writing one checkpoint.
    CheckpointWrite,
}

/// All phases, in display order.
pub const PHASES: [Phase; 6] = [
    Phase::EventPop,
    Phase::EventHandle,
    Phase::ObsBuild,
    Phase::Score,
    Phase::Train,
    Phase::CheckpointWrite,
];

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::EventPop => "event_pop",
            Phase::EventHandle => "event_handle",
            Phase::ObsBuild => "obs_build",
            Phase::Score => "score",
            Phase::Train => "train",
            Phase::CheckpointWrite => "checkpoint_write",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::EventPop => 0,
            Phase::EventHandle => 1,
            Phase::ObsBuild => 2,
            Phase::Score => 3,
            Phase::Train => 4,
            Phase::CheckpointWrite => 5,
        }
    }
}

#[derive(Debug, Default)]
struct Slot {
    ns: AtomicU64,
    calls: AtomicU64,
}

/// Lock-free phase-time accumulator shared across threads.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    slots: [Slot; 6],
}

impl PhaseProfiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample of `ns` nanoseconds in `phase`.
    #[inline]
    pub fn record(&self, phase: Phase, ns: u64) {
        let slot = &self.slots[phase.index()];
        slot.ns.fetch_add(ns, Ordering::Relaxed);
        slot.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// [`PhaseProfiler::record`] from a measured `Duration`.
    #[inline]
    pub fn record_duration(&self, phase: Phase, d: Duration) {
        self.record(phase, d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Snapshot everything recorded so far.
    pub fn report(&self) -> ProfileReport {
        let phases = PHASES
            .iter()
            .map(|&p| {
                let slot = &self.slots[p.index()];
                let calls = slot.calls.load(Ordering::Relaxed);
                let ns = slot.ns.load(Ordering::Relaxed);
                PhaseStat {
                    phase: p.name().to_string(),
                    calls,
                    total_s: ns as f64 / 1e9,
                    mean_us: if calls > 0 {
                        ns as f64 / calls as f64 / 1e3
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        ProfileReport { phases }
    }
}

/// Aggregated timings for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    pub phase: String,
    pub calls: u64,
    pub total_s: f64,
    pub mean_us: f64,
}

/// The profiler's end-of-run output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    pub phases: Vec<PhaseStat>,
}

impl ProfileReport {
    /// Aligned text table (phases with zero samples are elided; shares of
    /// total are relative to the instrumented time, not wall time).
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let shown: Vec<&PhaseStat> = self.phases.iter().filter(|p| p.calls > 0).collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>12} {:>7}",
            "phase", "calls", "total (s)", "mean (us)", "share"
        );
        if shown.is_empty() {
            let _ = writeln!(out, "  (no samples recorded)");
            return out;
        }
        let total: f64 = shown.iter().map(|p| p.total_s).sum();
        for p in shown {
            let share = if total > 0.0 {
                100.0 * p.total_s / total
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<18} {:>12} {:>12.4} {:>12.3} {:>6.1}%",
                p.phase, p.calls, p.total_s, p.mean_us, share
            );
        }
        out
    }

    /// The `PROFILE_*.json` payload.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str("    {\"phase\":");
            crate::json::push_string(&mut out, &p.phase);
            out.push_str(&format!(",\"calls\":{},\"total_s\":", p.calls));
            fmt::push_f64(&mut out, p.total_s);
            out.push_str(",\"mean_us\":");
            fmt::push_f64(&mut out, p.mean_us);
            out.push('}');
            if i + 1 < self.phases.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_phase() {
        let p = PhaseProfiler::new();
        p.record(Phase::Score, 1_000);
        p.record(Phase::Score, 3_000);
        p.record_duration(Phase::Train, Duration::from_micros(5));
        let r = p.report();
        let score = r.phases.iter().find(|s| s.phase == "score").unwrap();
        assert_eq!(score.calls, 2);
        assert!((score.mean_us - 2.0).abs() < 1e-9);
        let train = r.phases.iter().find(|s| s.phase == "train").unwrap();
        assert_eq!(train.calls, 1);
        assert!((train.total_s - 5e-6).abs() < 1e-12);
        let pop = r.phases.iter().find(|s| s.phase == "event_pop").unwrap();
        assert_eq!(pop.calls, 0);
    }

    #[test]
    fn table_elides_empty_phases_and_shares_sum() {
        let p = PhaseProfiler::new();
        p.record(Phase::EventHandle, 3_000_000);
        p.record(Phase::Score, 1_000_000);
        let table = p.report().render_table();
        assert!(table.contains("event_handle"));
        assert!(table.contains("score"));
        assert!(!table.contains("checkpoint_write"));
        assert!(table.contains("75.0%"), "{table}");
        assert!(table.contains("25.0%"), "{table}");
    }

    #[test]
    fn empty_profiler_renders_placeholder() {
        let table = PhaseProfiler::new().report().render_table();
        assert!(table.contains("no samples recorded"));
    }

    #[test]
    fn json_parses_and_lists_all_phases() {
        let p = PhaseProfiler::new();
        p.record(Phase::CheckpointWrite, 10_000);
        let json = p.report().to_json();
        let v = crate::json::parse(&json).expect("profile JSON parses");
        let phases = v.get("phases").and_then(|x| x.as_array()).unwrap();
        assert_eq!(phases.len(), PHASES.len());
        let names: Vec<&str> = phases
            .iter()
            .filter_map(|p| p.get("phase").and_then(|n| n.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                "event_pop",
                "event_handle",
                "obs_build",
                "score",
                "train",
                "checkpoint_write"
            ]
        );
    }
}
