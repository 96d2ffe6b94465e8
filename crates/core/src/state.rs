//! State observation and featurisation.
//!
//! §IV.B: the agent receives, from each of its nodes, the state vector
//! `S_c(t) = (Load, q⁻, {PP_1…m})`. [`SiteObservation`] aggregates those
//! per-node vectors over one site (one agent's domain) together with the
//! agent's pending-pool composition, and exposes a normalised feature
//! vector for the neural value estimator.

use platform::PlatformView;
use snapshot::{Codec, SnapshotError};
use workload::{Priority, SiteId, Task};

/// Number of state features produced by [`SiteObservation::features`].
pub const STATE_FEATURES: usize = 8;

/// Aggregated observation of one site at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SiteObservation {
    /// Mean queued processing weight across the site's nodes (`Load`).
    pub mean_load: f64,
    /// Mean fraction of free queue slots (`q⁻` normalised).
    pub mean_queue_free: f64,
    /// Mean instantaneous processor power as a fraction of the 95 W peak
    /// (`{PP_1…m}` aggregated).
    pub mean_power_frac: f64,
    /// Mean Eq. (2) processing capacity (MIPS).
    pub mean_capacity: f64,
    /// Largest processor count among the site's nodes (caps `opnum`).
    pub max_procs: usize,
    /// Tasks waiting in the agent's pending pool.
    pub pending: usize,
    /// Pending-pool priority composition `[low, medium, high]`.
    pub priority_mix: [f64; 3],
    /// Mean fraction of the site's processors currently online (`1.0` on a
    /// healthy platform; degrades under injected faults). Not part of the
    /// 8-wide feature vector — the paper's state has no failure component —
    /// but exposed so a degradation-aware assignment penalty can use it.
    pub availability: f64,
}

impl SiteObservation {
    /// Snapshot field list: every float finite.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.finite(&mut self.mean_load)?;
        c.finite(&mut self.mean_queue_free)?;
        c.finite(&mut self.mean_power_frac)?;
        c.finite(&mut self.mean_capacity)?;
        c.usize(&mut self.max_procs)?;
        c.usize(&mut self.pending)?;
        self.priority_mix.iter_mut().try_for_each(|m| c.finite(m))?;
        c.finite(&mut self.availability)
    }
}

/// Memo slot for the platform-derived half of a [`SiteObservation`] —
/// the per-node scan — keyed by the site's mutation epoch
/// ([`PlatformView::site_epoch`]). While the epoch holds still, the
/// stored means are exactly the f64s a fresh scan of the unchanged node
/// state would produce, so reuse is bit-identical. The pending-pool half
/// (count and priority mix) changes between dispatches and is recomputed
/// on every observation — it costs only one walk of the pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteObsCache {
    /// Epoch the scan below was taken at; `None` until first use.
    key: Option<u64>,
    scan: SiteScan,
}

/// The node-scan aggregates of one site (the cacheable part of
/// [`SiteObservation`]).
#[derive(Debug, Clone, Copy, Default)]
struct SiteScan {
    mean_load: f64,
    mean_queue_free: f64,
    mean_power_frac: f64,
    mean_capacity: f64,
    max_procs: usize,
    availability: f64,
}

impl SiteScan {
    fn observe(view: &PlatformView<'_>, site: SiteId) -> Self {
        let mut n = 0usize;
        let mut load = 0.0;
        let mut qfree = 0.0;
        let mut power = 0.0;
        let mut cap = 0.0;
        let mut max_procs = 0usize;
        let mut avail = 0.0;
        for node in view.site_nodes(site) {
            n += 1;
            load += node.load();
            qfree += node.queue_available() as f64
                / (node.queue_available() + node.queue_len()).max(1) as f64;
            // Cached sum — bit-identical to summing `proc_powers()` in
            // order, without touching the per-proc slice.
            power += node.power_sum() / node.num_processors().max(1) as f64;
            cap += node.processing_capacity();
            max_procs = max_procs.max(node.num_processors());
            avail += node.availability();
        }
        let nf = n.max(1) as f64;
        SiteScan {
            mean_load: load / nf,
            mean_queue_free: qfree / nf,
            mean_power_frac: power / nf / 95.0,
            mean_capacity: cap / nf,
            max_procs,
            availability: avail / nf,
        }
    }
}

impl SiteObservation {
    /// Observes `site` through `view`, with the agent's current pending
    /// pool.
    pub fn observe(view: &PlatformView<'_>, site: SiteId, pending: &[Task]) -> Self {
        Self::assemble(SiteScan::observe(view, site), pending)
    }

    /// [`SiteObservation::observe`] with the node scan memoized in
    /// `cache`: when the site's mutation epoch is unchanged since the
    /// cached scan, the scan is reused bit-for-bit and only the
    /// pending-pool half is recomputed.
    pub fn observe_cached(
        view: &PlatformView<'_>,
        site: SiteId,
        pending: &[Task],
        cache: &mut SiteObsCache,
    ) -> Self {
        let epoch = view.site_epoch(site);
        if cache.key != Some(epoch) {
            *cache = SiteObsCache {
                key: Some(epoch),
                scan: SiteScan::observe(view, site),
            };
        }
        Self::assemble(cache.scan, pending)
    }

    fn assemble(scan: SiteScan, pending: &[Task]) -> Self {
        let mut mix = [0.0; 3];
        for t in pending {
            mix[t.priority.index()] += 1.0;
        }
        if !pending.is_empty() {
            for m in &mut mix {
                *m /= pending.len() as f64;
            }
        }
        SiteObservation {
            mean_load: scan.mean_load,
            mean_queue_free: scan.mean_queue_free,
            mean_power_frac: scan.mean_power_frac,
            mean_capacity: scan.mean_capacity,
            max_procs: scan.max_procs,
            pending: pending.len(),
            priority_mix: mix,
            availability: scan.availability,
        }
    }

    /// Normalised feature vector (every component in `[0, 1]` up to
    /// squashing): `[load, queue_free, power, capacity, pending, low,
    /// medium, high]`.
    pub fn features(&self) -> [f64; STATE_FEATURES] {
        // `x / (1 + x)` is NaN at `x = ∞`, the load of a site holding a
        // group whose Eq. (10) weight overflowed; map it to the limit, 1.
        // Every finite load keeps its bits.
        let load = if self.mean_load == f64::INFINITY {
            1.0
        } else {
            self.mean_load / (1.0 + self.mean_load)
        };
        [
            load,
            self.mean_queue_free,
            self.mean_power_frac,
            self.mean_capacity / (1000.0 + self.mean_capacity),
            self.pending as f64 / (10.0 + self.pending as f64),
            self.priority_mix[Priority::Low.index()],
            self.priority_mix[Priority::Medium.index()],
            self.priority_mix[Priority::High.index()],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{Platform, PlatformSpec};
    use simcore::rng::RngStream;
    use simcore::SimTime;
    use workload::{TaskId, Workload, WorkloadSpec};

    fn sample() -> (Platform, Vec<Task>) {
        let rng = RngStream::root(5);
        let p = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let w = Workload::generate(
            WorkloadSpec::paper(40, 2, p.reference_speed()),
            &rng.derive("w"),
        );
        (p, w.tasks)
    }

    #[test]
    fn observation_of_idle_site() {
        let (p, tasks) = sample();
        let view = PlatformView::new(&p, SimTime::ZERO);
        let site_tasks: Vec<Task> = tasks
            .iter()
            .filter(|t| t.site == SiteId(0))
            .cloned()
            .collect();
        let obs = SiteObservation::observe(&view, SiteId(0), &site_tasks);
        assert_eq!(obs.mean_load, 0.0);
        assert_eq!(obs.mean_queue_free, 1.0);
        assert_eq!(obs.availability, 1.0);
        // Idle draw 48 / 95.
        assert!((obs.mean_power_frac - 48.0 / 95.0).abs() < 1e-9);
        assert_eq!(obs.max_procs, 4);
        assert_eq!(obs.pending, site_tasks.len());
        let mix_sum: f64 = obs.priority_mix.iter().sum();
        assert!((mix_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn features_are_bounded() {
        let (p, tasks) = sample();
        let view = PlatformView::new(&p, SimTime::ZERO);
        let obs = SiteObservation::observe(&view, SiteId(1), &tasks);
        for (i, f) in obs.features().iter().enumerate() {
            assert!((0.0..=1.0).contains(f), "feature {i} = {f}");
        }
        assert_eq!(obs.features().len(), STATE_FEATURES);
    }

    #[test]
    fn empty_pending_mix_is_zero() {
        let (p, _) = sample();
        let view = PlatformView::new(&p, SimTime::ZERO);
        let obs = SiteObservation::observe(&view, SiteId(0), &[]);
        assert_eq!(obs.priority_mix, [0.0; 3]);
        assert_eq!(obs.pending, 0);
    }

    #[test]
    fn pending_mix_counts_priorities() {
        let (p, _) = sample();
        let view = PlatformView::new(&p, SimTime::ZERO);
        let mk = |id: u64, prio: Priority| Task {
            id: TaskId(id),
            size_mi: 1000.0,
            arrival: SimTime::ZERO,
            deadline: SimTime::new(100.0),
            priority: prio,
            site: SiteId(0),
        };
        let pend = vec![
            mk(0, Priority::High),
            mk(1, Priority::High),
            mk(2, Priority::Low),
            mk(3, Priority::Medium),
        ];
        let obs = SiteObservation::observe(&view, SiteId(0), &pend);
        assert_eq!(obs.priority_mix, [0.25, 0.25, 0.5]);
    }
}
