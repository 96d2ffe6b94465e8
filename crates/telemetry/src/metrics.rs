//! Live metrics registry: labeled counters, gauges and fixed-bucket
//! histograms with dependency-free Prometheus text-format exposition.
//!
//! Design goals, in order:
//!
//! 1. **Allocation-free hot path.** All allocation happens at
//!    registration time; [`Counter::add`], [`Gauge::set`] and
//!    [`Histogram::observe`] touch only pre-allocated atomics. Handles
//!    are cheap `Arc` clones the caller stores next to its cached
//!    trace-gate booleans, so a run without monitoring pays exactly one
//!    predictable branch per instrumented site.
//! 2. **Scrape-safe.** [`MetricsRegistry::write_prometheus`] renders the
//!    Prometheus text exposition format 0.0.4 — `# HELP`/`# TYPE`
//!    headers, escaped label values, cumulative `_bucket` series with a
//!    `+Inf` bound, `_sum`/`_count` — with fully deterministic ordering
//!    (families by name, series by label set), so diffs between scrapes
//!    are meaningful.
//!
//! Registration is idempotent: registering the same (name, label-set)
//! twice returns handles backed by the same cells. Re-registering a name
//! with a different metric kind (or different buckets) is a programmer
//! error and panics.

use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The three metric kinds of the exposition format we emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn type_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonic counter handle: one relaxed atomic.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<[AtomicU64]>,
}

impl Counter {
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell[0].fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn total(&self) -> u64 {
        self.cell[0].load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge storing an `f64` in atomic bits: the freshest
/// write wins, which is the semantics a scraper expects.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<[AtomicU64]>,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits[0].store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits[0].load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle.
///
/// The layout is `[bucket_0 .. bucket_{B-1}, count, sum_bits]` where
/// `bucket_i` counts observations with `v <= bounds[i]` (non-cumulative;
/// cumulated at exposition). `sum_bits` accumulates the f64 sample sum
/// with a compare-exchange loop.
#[derive(Debug, Clone)]
pub struct Histogram {
    cells: Arc<[AtomicU64]>,
    bounds: Arc<[f64]>,
}

impl Histogram {
    #[inline]
    pub fn observe(&self, v: f64) {
        // First bucket whose upper bound admits the sample; NaN falls
        // through every bound and lands only in count/sum, mirroring
        // Prometheus client behaviour of an observation beyond +Inf.
        if let Some(i) = self.bounds.iter().position(|&le| v <= le) {
            self.cells[i].fetch_add(1, Ordering::Relaxed);
        }
        let count = self.bounds.len();
        self.cells[count].fetch_add(1, Ordering::Relaxed);
        let sum = &self.cells[count + 1];
        let mut cur = sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match sum.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.cells[self.bounds.len()].load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.cells[self.bounds.len() + 1].load(Ordering::Relaxed))
    }

    /// Non-cumulative bucket counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.cells[..self.bounds.len()]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Bucket-interpolated quantile estimate (q in [0, 1]).
    ///
    /// Assumes uniform density inside each bucket; the first bucket
    /// interpolates from 0 and observations beyond the last bound clamp
    /// to it. `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * total as f64;
        let mut cum = 0u64;
        let counts = self.bucket_counts();
        for (i, &c) in counts.iter().enumerate() {
            let prev = cum as f64;
            cum += c;
            if (cum as f64) >= rank && c > 0 {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = ((rank - prev) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
        }
        // Samples beyond the last bound: clamp to it.
        self.bounds.last().copied()
    }
}

struct SeriesSlot {
    /// Label pairs sorted by label name; the identity key within a family.
    labels: Vec<(String, String)>,
    /// One cell for a counter or gauge, the [`Histogram`] layout for a
    /// histogram.
    cells: Arc<[AtomicU64]>,
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    /// Histogram bucket upper bounds (`+Inf` implicit); empty otherwise.
    bounds: Arc<[f64]>,
    series: Vec<SeriesSlot>,
}

/// The registry. Metadata lives behind one mutex taken only at
/// registration and exposition time; recorded values live in the
/// lock-free cells the handles point at.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.families.lock().map(|g| g.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry")
            .field("families", &n)
            .finish()
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| {
            assert!(valid_label_name(k), "invalid label name {k:?}");
            assert!(
                *k != "le",
                "label name 'le' is reserved for histogram buckets"
            );
            ((*k).to_string(), (*v).to_string())
        })
        .collect();
    out.sort();
    for pair in out.windows(2) {
        assert!(
            pair[0].0 != pair[1].0,
            "duplicate label name {:?}",
            pair[0].0
        );
    }
    out
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Family>> {
        // Registration state stays consistent through a panic elsewhere:
        // cells are append-only.
        self.families.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<[AtomicU64]> {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        if kind == MetricKind::Histogram {
            assert!(
                !bounds.is_empty(),
                "histogram {name:?} needs at least one bucket"
            );
            assert!(
                bounds.iter().all(|b| b.is_finite()),
                "histogram {name:?} bounds must be finite (+Inf is implicit)"
            );
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "histogram {name:?} bounds must be strictly increasing"
            );
        }
        let labels = sorted_labels(labels);
        let mut families = self.lock();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name:?} re-registered as {:?}, was {:?}",
                    kind,
                    f.kind
                );
                assert!(
                    f.bounds.as_ref() == bounds,
                    "histogram {name:?} re-registered with different buckets"
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    bounds: bounds.into(),
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(slot) = family.series.iter().find(|s| s.labels == labels) {
            return slot.cells.clone();
        }
        // A gauge's zero cell reads 0.0: `0.0f64.to_bits() == 0`.
        let len = match kind {
            MetricKind::Counter | MetricKind::Gauge => 1,
            MetricKind::Histogram => bounds.len() + 2,
        };
        let cells: Arc<[AtomicU64]> = (0..len).map(|_| AtomicU64::new(0)).collect();
        family.series.push(SeriesSlot {
            labels,
            cells: cells.clone(),
        });
        cells
    }

    /// Registers (or re-resolves) a labeled counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        Counter {
            cell: self.register(name, help, MetricKind::Counter, labels, &[]),
        }
    }

    /// Registers (or re-resolves) a labeled gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge {
            bits: self.register(name, help, MetricKind::Gauge, labels, &[]),
        }
    }

    /// Registers (or re-resolves) a labeled fixed-bucket histogram.
    /// `bounds` are the finite bucket upper bounds; `+Inf` is implicit.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        Histogram {
            cells: self.register(name, help, MetricKind::Histogram, labels, bounds),
            bounds: bounds.into(),
        }
    }

    /// Renders the registry in Prometheus text exposition format 0.0.4.
    pub fn write_prometheus(&self, out: &mut impl io::Write) -> io::Result<()> {
        out.write_all(self.render().as_bytes())
    }

    /// [`MetricsRegistry::write_prometheus`] into a `String`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.lock();
        let mut order: Vec<usize> = (0..families.len()).collect();
        order.sort_by(|&a, &b| families[a].name.cmp(&families[b].name));
        for &fi in &order {
            let f = &families[fi];
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.type_name());
            let mut series: Vec<&SeriesSlot> = f.series.iter().collect();
            series.sort_by(|a, b| a.labels.cmp(&b.labels));
            for s in series {
                match f.kind {
                    MetricKind::Counter => {
                        let total = s.cells[0].load(Ordering::Relaxed);
                        push_sample(&mut out, &f.name, "", &s.labels, None, Num::U64(total));
                    }
                    MetricKind::Gauge => {
                        let v = f64::from_bits(s.cells[0].load(Ordering::Relaxed));
                        push_sample(&mut out, &f.name, "", &s.labels, None, Num::F64(v));
                    }
                    MetricKind::Histogram => {
                        let h = Histogram {
                            cells: s.cells.clone(),
                            bounds: f.bounds.clone(),
                        };
                        let mut cum = 0u64;
                        for (i, c) in h.bucket_counts().into_iter().enumerate() {
                            cum += c;
                            push_sample(
                                &mut out,
                                &f.name,
                                "_bucket",
                                &s.labels,
                                Some(f.bounds[i]),
                                Num::U64(cum),
                            );
                        }
                        let count = h.count();
                        push_sample(
                            &mut out,
                            &f.name,
                            "_bucket",
                            &s.labels,
                            Some(f64::INFINITY),
                            Num::U64(count),
                        );
                        push_sample(
                            &mut out,
                            &f.name,
                            "_sum",
                            &s.labels,
                            None,
                            Num::F64(h.sum()),
                        );
                        push_sample(
                            &mut out,
                            &f.name,
                            "_count",
                            &s.labels,
                            None,
                            Num::U64(count),
                        );
                    }
                }
            }
        }
        out
    }
}

enum Num {
    U64(u64),
    F64(f64),
}

/// One sample line: `name[suffix]{labels[,le="bound"]} value`.
fn push_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    le: Option<f64>,
    value: Num,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            escape_label_value_into(out, v);
            out.push('"');
        }
        if let Some(bound) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(&render_f64(bound));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    match value {
        Num::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Num::F64(v) => out.push_str(&render_f64(v)),
    }
    out.push('\n');
}

/// Exposition-format float rendering: `+Inf`/`-Inf`/`NaN` spellings per
/// the 0.0.4 spec, shortest round-trippable decimal otherwise.
pub fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// HELP-line escaping: backslash and newline only.
fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Label-value escaping: backslash, double quote, newline.
fn escape_label_value_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Default decision-latency buckets (seconds): 1 µs .. ~1 s, log-spaced.
pub fn latency_buckets() -> Vec<f64> {
    let mut out = Vec::with_capacity(18);
    let mut b = 1e-6;
    for _ in 0..6 {
        out.push(b);
        out.push(b * 2.5);
        out.push(b * 5.0);
        b *= 10.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_registrations() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("arls_tasks_total", "Tasks completed.", &[("site", "0")]);
        for _ in 0..8 {
            c.add(2);
        }
        assert_eq!(c.total(), 16);
        // Re-registration resolves to the same cell.
        let again = reg.counter("arls_tasks_total", "Tasks completed.", &[("site", "0")]);
        again.inc();
        assert_eq!(c.total(), 17);
    }

    #[test]
    fn gauge_is_last_value_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("arls_power_watts", "Power draw.", &[]);
        g.set(12.5);
        g.set(-3.0);
        assert_eq!(g.get(), -3.0);
    }

    #[test]
    fn histogram_counts_sum_and_buckets_agree() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "Latency.", &[], &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 55.55).abs() < 1e-9);
        assert_eq!(h.bucket_counts(), vec![1, 1, 1]); // 50.0 beyond last bound
        let rendered = reg.render();
        // Cumulative buckets: 1, 2, 3, and +Inf == _count == 4.
        assert!(
            rendered.contains("lat_bucket{le=\"0.1\"} 1\n"),
            "{rendered}"
        );
        assert!(
            rendered.contains("lat_bucket{le=\"1.0\"} 2\n"),
            "{rendered}"
        );
        assert!(
            rendered.contains("lat_bucket{le=\"10.0\"} 3\n"),
            "{rendered}"
        );
        assert!(
            rendered.contains("lat_bucket{le=\"+Inf\"} 4\n"),
            "{rendered}"
        );
        assert!(rendered.contains("lat_count 4\n"), "{rendered}");
    }

    #[test]
    fn histogram_quantile_interpolates() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q", "Quantiles.", &[], &[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), None);
        for v in [0.5, 1.5, 1.6, 3.0] {
            h.observe(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((1.0..=2.0).contains(&p50), "p50 {p50} outside its bucket");
        let p100 = h.quantile(1.0).unwrap();
        assert!(
            (2.0..=4.0).contains(&p100),
            "p100 {p100} outside its bucket"
        );
        // Everything beyond the last bound clamps to it.
        let hh = reg.histogram("q2", "Overflow.", &[], &[1.0]);
        hh.observe(99.0);
        assert_eq!(hh.quantile(0.99), Some(1.0));
    }

    #[test]
    fn quantile_with_all_mass_in_overflow_bucket_clamps_finite() {
        // Regression: when every observation lands beyond the last
        // finite bound, no finite bucket satisfies the rank and the
        // estimate must clamp to the last finite edge — never
        // interpolate into the +Inf bucket or return inf/NaN.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ovf", "All overflow.", &[], &[1.0, 2.0, 4.0]);
        for v in [10.0, 100.0, 1e12, f64::INFINITY] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![0, 0, 0]);
        assert_eq!(h.count(), 4);
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!(est.is_finite(), "q={q} produced non-finite {est}");
            assert_eq!(est, 4.0, "q={q} must clamp to the last finite edge");
        }
        // Mixed mass: high quantiles whose rank exceeds the finite
        // cumulative count clamp the same way.
        let m = reg.histogram("mix", "Partial overflow.", &[], &[1.0, 2.0]);
        m.observe(0.5);
        m.observe(50.0);
        m.observe(50.0);
        let p99 = m.quantile(0.99).unwrap();
        assert_eq!(p99, 2.0, "rank beyond finite buckets clamps to last edge");
    }

    #[test]
    fn exposition_order_is_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta_total", "Last family.", &[]);
        reg.gauge("alpha", "First family.", &[("b", "2")]);
        reg.gauge("alpha", "First family.", &[("a", "1")]);
        let r1 = reg.render();
        let r2 = reg.render();
        assert_eq!(r1, r2);
        let alpha = r1.find("# HELP alpha").unwrap();
        let zeta = r1.find("# HELP zeta_total").unwrap();
        assert!(alpha < zeta, "families must sort by name:\n{r1}");
        let a = r1.find("alpha{a=\"1\"}").unwrap();
        let b = r1.find("alpha{b=\"2\"}").unwrap();
        assert!(a < b, "series must sort by label set:\n{r1}");
    }

    #[test]
    fn label_values_escape() {
        let reg = MetricsRegistry::new();
        reg.gauge("esc", "Escapes.", &[("path", "a\\b\"c\nd")]);
        let r = reg.render();
        assert!(
            r.contains("esc{path=\"a\\\\b\\\"c\\nd\"} 0.0\n"),
            "bad escaping:\n{r}"
        );
    }

    #[test]
    fn help_lines_escape_newlines() {
        let reg = MetricsRegistry::new();
        reg.gauge("h", "line one\nline two \\ end", &[]);
        let r = reg.render();
        assert!(
            r.contains("# HELP h line one\\nline two \\\\ end\n"),
            "bad HELP escaping:\n{r}"
        );
    }

    #[test]
    fn non_finite_gauges_render_spec_spellings() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("weird", "Non-finite.", &[("k", "inf")]);
        g.set(f64::INFINITY);
        assert!(reg.render().contains("weird{k=\"inf\"} +Inf\n"));
        g.set(f64::NEG_INFINITY);
        assert!(reg.render().contains("weird{k=\"inf\"} -Inf\n"));
        g.set(f64::NAN);
        assert!(reg.render().contains("weird{k=\"inf\"} NaN\n"));
    }

    #[test]
    fn help_and_type_lines_present_for_every_family() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", "A counter.", &[]);
        reg.gauge("g", "A gauge.", &[]);
        reg.histogram("h", "A histogram.", &[], &[1.0]);
        let r = reg.render();
        for needle in [
            "# HELP c_total A counter.\n# TYPE c_total counter\n",
            "# HELP g A gauge.\n# TYPE g gauge\n",
            "# HELP h A histogram.\n# TYPE h histogram\n",
        ] {
            assert!(r.contains(needle), "missing {needle:?} in:\n{r}");
        }
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("same", "x", &[]);
        reg.gauge("same", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_name_panics() {
        MetricsRegistry::new().counter("7bad-name", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn le_label_is_reserved() {
        MetricsRegistry::new().histogram("h", "x", &[("le", "1")], &[1.0]);
    }

    #[test]
    fn latency_buckets_are_increasing() {
        let b = latency_buckets();
        assert!(b.len() >= 12);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn write_prometheus_matches_render() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("w_total", "Writer parity.", &[]);
        c.add(3);
        let mut buf = Vec::new();
        reg.write_prometheus(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), reg.render());
    }
}
