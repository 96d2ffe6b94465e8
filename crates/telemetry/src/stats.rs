//! Counter/histogram accumulation shared by the real sinks, and the
//! end-of-run `TelemetrySummary` attached to `RunResult`.

use simcore::stats::quantile;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A monotonic counter total.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTotal {
    pub name: String,
    pub total: u64,
}

/// Quantile summary of one histogram series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    pub name: String,
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

/// End-of-run telemetry rollup: counter totals plus histogram
/// quantiles, both sorted by name (BTreeMap order) for deterministic
/// output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    pub counters: Vec<CounterTotal>,
    pub histograms: Vec<HistogramSummary>,
}

/// Thread-safe counter and histogram storage embedded in each sink.
///
/// Counters are keyed by `&'static str` so the hot path never hashes or
/// allocates a `String`; histogram samples are kept raw and reduced to
/// quantiles once at summary time.
#[derive(Debug, Default)]
pub struct StatsCore {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    histograms: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl StatsCore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let mut c = self.counters.lock().expect("counter lock");
        *c.entry(name).or_insert(0) += delta;
    }

    pub fn histogram(&self, name: &'static str, value: f64) {
        let mut h = self.histograms.lock().expect("histogram lock");
        h.entry(name).or_default().push(value);
    }

    /// Reduce everything recorded so far into a [`TelemetrySummary`].
    pub fn summary(&self) -> TelemetrySummary {
        let counters = self
            .counters
            .lock()
            .expect("counter lock")
            .iter()
            .map(|(name, total)| CounterTotal {
                name: (*name).to_string(),
                total: *total,
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram lock")
            .iter()
            .map(|(name, samples)| {
                let count = samples.len() as u64;
                let mean = if samples.is_empty() {
                    0.0
                } else {
                    samples.iter().sum::<f64>() / samples.len() as f64
                };
                let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                HistogramSummary {
                    name: (*name).to_string(),
                    count,
                    mean,
                    p50: quantile(samples, 0.5).unwrap_or(0.0),
                    p95: quantile(samples, 0.95).unwrap_or(0.0),
                    p99: quantile(samples, 0.99).unwrap_or(0.0),
                    max: if max.is_finite() { max } else { 0.0 },
                }
            })
            .collect();
        TelemetrySummary {
            counters,
            histograms,
        }
    }
}

impl TelemetrySummary {
    /// Look up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.total)
    }

    /// Look up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let s = StatsCore::new();
        s.counter_add("b", 2);
        s.counter_add("a", 1);
        s.counter_add("b", 3);
        let sum = s.summary();
        assert_eq!(sum.counters.len(), 2);
        assert_eq!(sum.counters[0].name, "a");
        assert_eq!(sum.counter("b"), Some(5));
        assert_eq!(sum.counter("missing"), None);
    }

    #[test]
    fn histogram_quantiles() {
        let s = StatsCore::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.histogram("lat", v);
        }
        let sum = s.summary();
        let h = sum.histogram("lat").expect("lat histogram");
        assert_eq!(h.count, 5);
        assert!((h.mean - 3.0).abs() < 1e-12);
        assert!((h.p50 - 3.0).abs() < 1e-12);
        assert_eq!(h.max, 5.0);
        assert!(h.p95 <= h.max && h.p50 <= h.p95);
    }
}
