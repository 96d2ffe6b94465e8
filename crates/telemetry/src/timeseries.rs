//! Sim-time series sampling: fixed-capacity ring of per-tick snapshots
//! (per-site power/queue/availability, cumulative energy, task counts,
//! exploration rate, decision-latency quantiles), emitted as a
//! `timeseries.jsonl` sink and folded into `RunResult`.

use crate::fmt;
use std::collections::VecDeque;
use std::io;

/// Per-site state at one sample instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SitePoint {
    /// Instantaneous power draw of the site (watts).
    pub power_w: f64,
    /// Task groups queued across the site's nodes.
    pub queue_depth: u64,
    /// Fraction of the site's processors not failed, in [0, 1].
    pub availability: f64,
}

/// One snapshot of the whole platform at sim time `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimePoint {
    /// Simulated time of the sample (seconds).
    pub t: f64,
    /// Cumulative energy consumed by the platform up to `t` (joules).
    pub energy_j: f64,
    /// Tasks resolved so far (completed + failed).
    pub done: u64,
    /// Tasks that met their deadline so far.
    pub met: u64,
    /// Tasks permanently failed so far.
    pub failed: u64,
    /// Scheduler exploration rate (epsilon), when the policy exposes one.
    pub epsilon: Option<f64>,
    /// Decision-latency quantile estimates (microseconds); zero until the
    /// first decision lands.
    pub decision_p50_us: f64,
    pub decision_p95_us: f64,
    pub decision_p99_us: f64,
    /// Per-site breakdown, indexed by site id.
    pub sites: Vec<SitePoint>,
}

/// The completed series: what the ring held when the run finished.
///
/// Diagnostics only — excluded from replay comparison, like the
/// telemetry summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeriesLog {
    /// Requested sampling cadence (sim seconds). Samples land on the
    /// first tick boundary at or after each cadence multiple.
    pub sample_every: f64,
    /// Oldest points dropped because the ring was full.
    pub dropped: u64,
    pub points: Vec<TimePoint>,
}

impl TimeSeriesLog {
    /// Writes the series as JSON Lines: one self-contained object per
    /// point, prefixed by a `meta` line carrying cadence and drop count.
    pub fn write_jsonl(&self, out: &mut impl io::Write) -> io::Result<()> {
        let mut line = String::with_capacity(256);
        line.push_str("{\"meta\":{\"sample_every\":");
        fmt::push_f64(&mut line, self.sample_every);
        line.push_str(",\"dropped\":");
        line.push_str(&self.dropped.to_string());
        line.push_str(",\"points\":");
        line.push_str(&self.points.len().to_string());
        line.push_str("}}\n");
        out.write_all(line.as_bytes())?;
        for p in &self.points {
            line.clear();
            render_point(&mut line, p);
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

fn render_point(out: &mut String, p: &TimePoint) {
    use std::fmt::Write as _;
    out.push_str("{\"t\":");
    fmt::push_f64(out, p.t);
    out.push_str(",\"energy_j\":");
    fmt::push_f64(out, p.energy_j);
    let _ = write!(
        out,
        ",\"done\":{},\"met\":{},\"failed\":{}",
        p.done, p.met, p.failed
    );
    out.push_str(",\"epsilon\":");
    match p.epsilon {
        Some(e) => fmt::push_f64(out, e),
        None => out.push_str("null"),
    }
    out.push_str(",\"decision_p50_us\":");
    fmt::push_f64(out, p.decision_p50_us);
    out.push_str(",\"decision_p95_us\":");
    fmt::push_f64(out, p.decision_p95_us);
    out.push_str(",\"decision_p99_us\":");
    fmt::push_f64(out, p.decision_p99_us);
    out.push_str(",\"sites\":[");
    for (i, s) in p.sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"power_w\":");
        fmt::push_f64(out, s.power_w);
        let _ = write!(out, ",\"queue_depth\":{}", s.queue_depth);
        out.push_str(",\"availability\":");
        fmt::push_f64(out, s.availability);
        out.push('}');
    }
    out.push_str("]}");
}

/// Fixed-capacity drop-oldest ring accumulating [`TimePoint`]s during a
/// run. Capacity bounds memory on arbitrarily long service runs; the
/// drop counter keeps truncation visible.
#[derive(Debug)]
pub struct TimeSeriesRing {
    sample_every: f64,
    capacity: usize,
    dropped: u64,
    points: VecDeque<TimePoint>,
}

impl TimeSeriesRing {
    /// `sample_every` is the requested cadence in sim seconds (clamped
    /// positive); `capacity` the maximum retained points (clamped >= 1).
    pub fn new(sample_every: f64, capacity: usize) -> Self {
        TimeSeriesRing {
            sample_every: if sample_every > 0.0 {
                sample_every
            } else {
                1.0
            },
            capacity: capacity.max(1),
            dropped: 0,
            points: VecDeque::new(),
        }
    }

    pub fn sample_every(&self) -> f64 {
        self.sample_every
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether a sample is due at sim time `now`: true once per cadence
    /// interval, at the first call at-or-after the interval boundary.
    pub fn due(&self, now: f64) -> bool {
        match self.points.back() {
            None => true,
            Some(last) => now - last.t >= self.sample_every,
        }
    }

    pub fn push(&mut self, p: TimePoint) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back(p);
    }

    /// Final sample at run end: records `p` unless the last retained
    /// point already sits at the same instant.
    pub fn push_final(&mut self, p: TimePoint) {
        if self.points.back().is_some_and(|last| last.t == p.t) {
            return;
        }
        self.push(p);
    }

    pub fn into_log(self) -> TimeSeriesLog {
        TimeSeriesLog {
            sample_every: self.sample_every,
            dropped: self.dropped,
            points: self.points.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t: f64) -> TimePoint {
        TimePoint {
            t,
            energy_j: 10.0 * t,
            done: t as u64,
            met: 0,
            failed: 0,
            epsilon: Some(0.2),
            decision_p50_us: 1.0,
            decision_p95_us: 2.0,
            decision_p99_us: 3.0,
            sites: vec![SitePoint {
                power_w: 100.0,
                queue_depth: 2,
                availability: 1.0,
            }],
        }
    }

    #[test]
    fn cadence_gates_samples() {
        let mut ring = TimeSeriesRing::new(10.0, 100);
        assert!(ring.due(0.0));
        ring.push(point(0.0));
        assert!(!ring.due(5.0));
        assert!(ring.due(10.0));
        ring.push(point(10.0));
        assert!(!ring.due(19.9));
        assert!(ring.due(25.0));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = TimeSeriesRing::new(1.0, 3);
        for t in 0..5 {
            ring.push(point(t as f64));
        }
        let log = ring.into_log();
        assert_eq!(log.dropped, 2);
        let ts: Vec<f64> = log.points.iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn final_sample_dedupes_same_instant() {
        let mut ring = TimeSeriesRing::new(1.0, 10);
        ring.push(point(4.0));
        ring.push_final(point(4.0));
        assert_eq!(ring.len(), 1);
        ring.push_final(point(7.5));
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let mut ring = TimeSeriesRing::new(5.0, 10);
        ring.push(point(0.0));
        ring.push(point(5.0));
        let log = ring.into_log();
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let meta = crate::json::parse(lines[0]).expect("meta parses");
        assert_eq!(
            meta.path(&["meta", "points"]).and_then(|v| v.as_f64()),
            Some(2.0)
        );
        let p1 = crate::json::parse(lines[2]).expect("point parses");
        assert_eq!(p1.get("t").and_then(|v| v.as_f64()), Some(5.0));
        assert_eq!(
            p1.get("sites").and_then(|v| v.as_array()).map(|a| a.len()),
            Some(1)
        );
    }

    #[test]
    fn non_finite_fields_stay_valid_json() {
        let mut p = point(1.0);
        p.energy_j = f64::NAN;
        let log = TimeSeriesLog {
            sample_every: 1.0,
            dropped: 0,
            points: vec![p],
        };
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines() {
            crate::json::parse(line).expect("every line parses");
        }
        assert!(text.contains("\"energy_j\":null"));
    }
}
