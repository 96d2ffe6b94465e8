//! Live run monitoring: the `arls_*` metric family, the time-series
//! sampler configuration, and the driver probe that feeds both.
//!
//! [`LiveMetrics`] resolves every metric handle once, at registration
//! time, so the driver's hot path touches only pre-registered atomics —
//! one relaxed add per counter site, reached only when a monitor is
//! attached (through the driver's crate-private `probe` module); the
//! `monitoring_is_inert` tests and the golden suite pin down that
//! attaching a monitor never changes simulation state.
//!
//! Metrics are wall-clock observers of sim state: `arls_sim_time_seconds`
//! tells a scraper where in simulated time the run currently is, while
//! the counters/gauges carry the quantities the paper's figures are
//! built from (tasks, groups, energy, per-site power/queue/availability).

use crate::engine::RunResult;
use crate::oracle::RunTotals;
use crate::probe::{site_snapshot, Hook, Probe, RunView};
use crate::topology::Platform;
use simcore::time::SimTime;
use std::sync::Arc;
use telemetry::metrics::latency_buckets;
use telemetry::{Counter, Gauge, Histogram, MetricsRegistry, SitePoint, TimePoint, TimeSeriesRing};
use workload::SiteId;

/// How often (in simulated seconds) the driver snapshots a
/// [`telemetry::TimePoint`], and how many points the ring retains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Minimum simulated-time spacing between samples. Sampling happens
    /// on control ticks, so the effective cadence is `every` rounded up
    /// to the next tick boundary.
    pub every: f64,
    /// Ring capacity; older points are dropped (and counted) once full.
    pub capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            every: 10.0,
            capacity: 4096,
        }
    }
}

/// Pre-registered handles for every metric the engine publishes.
/// Per-site gauges are indexed by `SiteId`.
#[derive(Debug)]
pub struct LiveMetrics {
    /// Engine events processed.
    pub events: Counter,
    /// Tasks that finished (met or missed).
    pub tasks_completed: Counter,
    /// Tasks that finished within their deadline.
    pub tasks_met: Counter,
    /// Tasks abandoned after failures exhausted their retry budget.
    pub tasks_failed: Counter,
    /// Re-dispatches of preempted or orphaned tasks.
    pub tasks_retried: Counter,
    /// Tasks preempted mid-execution by injected faults.
    pub tasks_preempted: Counter,
    /// Groups dispatched to node queues.
    pub groups_dispatched: Counter,
    /// Groups that ran to completion (= learning cycles).
    pub groups_completed: Counter,
    /// Queued groups destroyed by failures.
    pub groups_aborted: Counter,
    /// Dispatch commands bounced back to the scheduler.
    pub dispatch_rejected: Counter,
    /// Task starts that went through the §IV.D.2 split process.
    pub split_starts: Counter,
    /// Fault events injected.
    pub faults_injected: Counter,
    /// Planned outages whose recovery was applied.
    pub faults_recovered: Counter,
    /// Current simulated time of the run (seconds).
    pub sim_time: Gauge,
    /// Cumulative system energy `ECS` at the current sim time (joules).
    pub energy_joules: Gauge,
    /// The adaptive scheduler's exploration rate; `NaN` until a policy
    /// that explores publishes one.
    pub epsilon: Gauge,
    /// Instantaneous power draw per site (watts), indexed by `SiteId`.
    pub site_power: Vec<Gauge>,
    /// Queued groups per site, indexed by `SiteId`.
    pub site_queue: Vec<Gauge>,
    /// Fraction of the site's processors not currently failed.
    pub site_availability: Vec<Gauge>,
    /// Scheduler decision latency in seconds (one observation per
    /// dispatch decision), on the shared wall-clock latency buckets.
    pub decision_latency: Histogram,
}

impl LiveMetrics {
    /// Registers the full metric family (idempotent — a second run over
    /// the same registry re-resolves the same cells) and returns its
    /// handles.
    pub fn register(reg: &MetricsRegistry, num_sites: usize) -> Arc<LiveMetrics> {
        let c = |name: &str, help: &str| reg.counter(name, help, &[]);
        let mut site_power = Vec::with_capacity(num_sites);
        let mut site_queue = Vec::with_capacity(num_sites);
        let mut site_availability = Vec::with_capacity(num_sites);
        for s in 0..num_sites {
            let label = s.to_string();
            let labels: &[(&str, &str)] = &[("site", &label)];
            site_power.push(reg.gauge(
                "arls_site_power_watts",
                "Instantaneous power draw of one site",
                labels,
            ));
            site_queue.push(reg.gauge(
                "arls_site_queue_depth",
                "Queued task groups across one site's node queues",
                labels,
            ));
            site_availability.push(reg.gauge(
                "arls_site_availability",
                "Fraction of one site's processors not currently failed",
                labels,
            ));
        }
        let m = LiveMetrics {
            events: c("arls_events_total", "Engine events processed"),
            tasks_completed: c(
                "arls_tasks_completed_total",
                "Tasks finished (met or missed)",
            ),
            tasks_met: c(
                "arls_tasks_met_total",
                "Tasks finished within their deadline",
            ),
            tasks_failed: c("arls_tasks_failed_total", "Tasks abandoned after failures"),
            tasks_retried: c(
                "arls_tasks_retried_total",
                "Re-dispatches of orphaned tasks",
            ),
            tasks_preempted: c("arls_tasks_preempted_total", "Tasks preempted by faults"),
            groups_dispatched: c(
                "arls_groups_dispatched_total",
                "Groups dispatched to queues",
            ),
            groups_completed: c("arls_groups_completed_total", "Groups run to completion"),
            groups_aborted: c("arls_groups_aborted_total", "Groups destroyed by failures"),
            dispatch_rejected: c("arls_dispatch_rejected_total", "Dispatches bounced back"),
            split_starts: c(
                "arls_split_starts_total",
                "Task starts via the split process",
            ),
            faults_injected: c("arls_faults_injected_total", "Fault events injected"),
            faults_recovered: c("arls_faults_recovered_total", "Outage recoveries applied"),
            sim_time: reg.gauge("arls_sim_time_seconds", "Current simulated time", &[]),
            energy_joules: reg.gauge(
                "arls_energy_joules",
                "Cumulative system energy at the current sim time",
                &[],
            ),
            epsilon: reg.gauge(
                "arls_epsilon",
                "Exploration rate of the adaptive scheduler",
                &[],
            ),
            site_power,
            site_queue,
            site_availability,
            decision_latency: reg.histogram(
                "arls_decision_latency_seconds",
                "Wall-clock latency of one scheduler dispatch decision",
                &[],
                &latency_buckets(),
            ),
        };
        m.epsilon.set(f64::NAN);
        Arc::new(m)
    }
}

/// Live metrics and the time-series sampler as one driver probe. Either
/// half may be absent; the sampler's decision-latency quantiles read the
/// live histogram, so they are zero without it.
pub(crate) struct MonitorProbe {
    live: Option<Arc<LiveMetrics>>,
    /// Samples are taken on control ticks (plus one final point at run
    /// end), so the configured cadence rounds up to the tick interval.
    sampler: Option<TimeSeriesRing>,
}

impl MonitorProbe {
    pub(crate) fn new(live: Option<Arc<LiveMetrics>>, sampler: Option<SamplerConfig>) -> Self {
        MonitorProbe {
            live,
            sampler: sampler.map(|s| TimeSeriesRing::new(s.every, s.capacity)),
        }
    }

    /// Refreshes the live gauges and, when the sampler cadence has
    /// elapsed (or for the closing point), appends one [`TimePoint`].
    /// Never called per event: the energy integral and per-site stats
    /// are O(nodes).
    fn sample(&mut self, run: &RunView<'_>, final_point: bool) {
        let now = run.now.as_f64();
        let due = self
            .sampler
            .as_ref()
            .is_some_and(|ring| final_point || ring.due(now));
        if self.live.is_none() && !due {
            return;
        }
        let energy = run.platform.total_energy_at(run.now);
        if let Some(m) = &self.live {
            m.sim_time.set(now);
            m.energy_joules.set(energy);
            if let Some(e) = run.epsilon {
                m.epsilon.set(e);
            }
        }
        let num_sites = run.platform.num_sites();
        let mut sites = Vec::with_capacity(if due { num_sites } else { 0 });
        for s in 0..num_sites {
            let (st, power) = site_snapshot(run.platform, SiteId(s as u32));
            let availability = if st.procs > 0 {
                (st.procs - st.failed) as f64 / st.procs as f64
            } else {
                0.0
            };
            if let Some(m) = &self.live {
                m.site_power[s].set(power);
                m.site_queue[s].set(st.queued_groups as f64);
                m.site_availability[s].set(availability);
            }
            if due {
                sites.push(SitePoint {
                    power_w: power,
                    queue_depth: st.queued_groups as u64,
                    availability,
                });
            }
        }
        let Some(ring) = self.sampler.as_mut().filter(|_| due) else {
            return;
        };
        let latency_us = |q: f64| match &self.live {
            Some(m) => m.decision_latency.quantile(q).unwrap_or(0.0) * 1e6,
            None => 0.0,
        };
        let point = TimePoint {
            t: now,
            energy_j: energy,
            done: run.completed as u64,
            met: run.met as u64,
            failed: run.failed as u64,
            epsilon: run.epsilon,
            decision_p50_us: latency_us(0.50),
            decision_p95_us: latency_us(0.95),
            decision_p99_us: latency_us(0.99),
            sites,
        };
        if final_point {
            ring.push_final(point);
        } else {
            ring.push(point);
        }
    }
}

impl Probe for MonitorProbe {
    fn on(&mut self, _platform: &Platform, _now: SimTime, hook: Hook<'_>) {
        let Some(m) = &self.live else {
            return;
        };
        let counter = match hook {
            Hook::Event(..) => &m.events,
            Hook::Decision(secs) => {
                m.decision_latency.observe(secs);
                return;
            }
            Hook::Rejected => &m.dispatch_rejected,
            Hook::Dispatch(..) => &m.groups_dispatched,
            Hook::Start(.., true) => &m.split_starts,
            Hook::Finish(.., met) => {
                if met {
                    m.tasks_met.inc();
                }
                &m.tasks_completed
            }
            Hook::Preempt(_) => &m.tasks_preempted,
            Hook::Retried => &m.tasks_retried,
            Hook::GiveUp(_) => &m.tasks_failed,
            Hook::GroupComplete(..) => &m.groups_completed,
            Hook::GroupAbort(..) => &m.groups_aborted,
            Hook::Fault(..) => &m.faults_injected,
            Hook::Recover(_) => &m.faults_recovered,
            _ => return,
        };
        counter.inc();
    }

    fn times_decisions(&self) -> bool {
        self.live.is_some()
    }

    fn tick(&mut self, run: &RunView<'_>) {
        self.sample(run, false);
    }

    fn finish(mut self: Box<Self>, run: &RunView<'_>, _: &RunTotals, result: &mut RunResult) {
        // Close the series at the run's end so the last sample always
        // reflects the final energy/task totals.
        self.sample(run, true);
        result.timeseries = self.sampler.map(TimeSeriesRing::into_log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_and_renders_the_family() {
        let reg = MetricsRegistry::new();
        let m = LiveMetrics::register(&reg, 3);
        m.tasks_completed.add(7);
        m.site_power[2].set(180.5);
        m.sim_time.set(42.0);
        m.decision_latency.observe(33e-6);
        let text = reg.render();
        assert!(text.contains("arls_tasks_completed_total 7"), "{text}");
        assert!(
            text.contains("arls_site_power_watts{site=\"2\"} 180.5"),
            "{text}"
        );
        assert!(text.contains("arls_sim_time_seconds 42"), "{text}");
        assert!(
            text.contains("arls_decision_latency_seconds_count 1"),
            "{text}"
        );
        // Epsilon starts NaN: no policy has published one yet.
        assert!(text.contains("arls_epsilon NaN"), "{text}");
    }

    #[test]
    fn registration_is_idempotent_across_runs() {
        let reg = MetricsRegistry::new();
        let a = LiveMetrics::register(&reg, 2);
        let b = LiveMetrics::register(&reg, 2);
        a.tasks_completed.inc();
        b.tasks_completed.inc();
        // Both handles resolve to the same cells: totals aggregate.
        assert_eq!(a.tasks_completed.total(), 2);
        assert_eq!(b.tasks_completed.total(), 2);
    }
}
