//! Platform specification and generation (§III.B + §V.A).
//!
//! The target system is "five to ten resource sites … each resource site
//! contains a varying number of compute nodes ranging from 5 to 20 and in
//! each node of which there are 4 to 6 processors", with processor speeds
//! uniform in 500–1000 MIPS. [`PlatformSpec`] captures those knobs and
//! [`Platform::generate`] realises them deterministically.

use crate::heterogeneity::speeds_with_cv;
use crate::ids::NodeAddr;
use crate::node::{processors_from_speeds, ComputeNode};
use crate::power::PowerParams;
use simcore::rng::RngStream;
use simcore::time::SimTime;
use snapshot::{Codec, SnapshotError};
use workload::SiteId;

/// Declarative description of a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Number of resource sites (paper: 5–10).
    pub num_sites: u32,
    /// Inclusive range of compute nodes per site (paper: 5–20).
    pub nodes_per_site: (u32, u32),
    /// Inclusive range of processors per node (paper: 4–6).
    pub procs_per_node: (u32, u32),
    /// Uniform speed range in MIPS (paper: 500–1000). Ignored when
    /// `heterogeneity_cv` is set.
    pub speed_range: (f64, f64),
    /// When set, draw speeds at this service coefficient of variation
    /// around the mean of `speed_range` instead of uniformly in it
    /// (Experiment 3's knob).
    pub heterogeneity_cv: Option<f64>,
    /// Queue-slot capacity per node.
    pub queue_capacity: usize,
    /// Power model parameters.
    pub power: PowerParams,
}

impl PlatformSpec {
    /// The paper's §V.A configuration with the given site count (the paper
    /// uses "five to ten resource sites"; experiments here default to 7).
    pub fn paper(num_sites: u32) -> Self {
        PlatformSpec {
            num_sites,
            nodes_per_site: (5, 20),
            procs_per_node: (4, 6),
            speed_range: (500.0, 1000.0),
            heterogeneity_cv: None,
            queue_capacity: 8,
            power: PowerParams::paper(),
        }
    }

    /// A small fixed platform for fast unit tests: `sites` sites × `nodes`
    /// nodes × `procs` processors, uniform speeds.
    pub fn small(sites: u32, nodes: u32, procs: u32) -> Self {
        PlatformSpec {
            num_sites: sites,
            nodes_per_site: (nodes, nodes),
            procs_per_node: (procs, procs),
            speed_range: (500.0, 1000.0),
            heterogeneity_cv: None,
            queue_capacity: 8,
            power: PowerParams::paper(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics on an impossible spec.
    pub fn validate(&self) {
        assert!(self.num_sites > 0, "need at least one site");
        assert!(
            self.nodes_per_site.0 > 0 && self.nodes_per_site.0 <= self.nodes_per_site.1,
            "invalid nodes-per-site range"
        );
        assert!(
            self.procs_per_node.0 > 0 && self.procs_per_node.0 <= self.procs_per_node.1,
            "invalid procs-per-node range"
        );
        assert!(
            self.speed_range.0 > 0.0 && self.speed_range.0 <= self.speed_range.1,
            "invalid speed range"
        );
        if let Some(cv) = self.heterogeneity_cv {
            assert!(cv >= 0.0, "heterogeneity CV must be non-negative");
        }
        assert!(self.queue_capacity > 0, "queue capacity must be positive");
        self.power.validate();
    }

    /// Mean of the speed range — the centre used for CV-controlled draws.
    pub fn mean_speed(&self) -> f64 {
        (self.speed_range.0 + self.speed_range.1) / 2.0
    }

    /// Snapshot field list.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.u32(&mut self.num_sites)?;
        c.u32(&mut self.nodes_per_site.0)?;
        c.u32(&mut self.nodes_per_site.1)?;
        c.u32(&mut self.procs_per_node.0)?;
        c.u32(&mut self.procs_per_node.1)?;
        c.finite(&mut self.speed_range.0)?;
        c.finite(&mut self.speed_range.1)?;
        c.opt(&mut self.heterogeneity_cv, |v, c| c.nonneg(v))?;
        c.usize(&mut self.queue_capacity)?;
        c.check(self.queue_capacity > 0, || {
            "queue capacity must be positive".into()
        })?;
        self.power.snap(c)
    }
}

/// One resource site: a set of compute nodes managed by one agent.
#[derive(Debug, Clone, Default)]
pub struct Site {
    /// Site id.
    pub id: SiteId,
    /// The site's compute nodes.
    pub nodes: Vec<ComputeNode>,
}

/// Per-site aggregates, maintained incrementally by the platform's
/// transition wrappers (task start/finish, sleep/wake, fault/repair,
/// queue push/remove) so site-level scheduling predicates are O(1)
/// instead of an every-decision node scan.
///
/// All fields are integer counters — exact under incremental update, no
/// float-drift concerns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Processor population of the site (static).
    pub procs: usize,
    /// Queue slots across the site's nodes (static). While
    /// `queued_groups` equals it, every node's queue is full.
    pub queue_slots: usize,
    /// Idle processors across the site.
    pub idle: usize,
    /// Sleeping processors across the site.
    pub asleep: usize,
    /// Failed processors across the site.
    pub failed: usize,
    /// Queued groups across the site's node queues.
    pub queued_groups: usize,
    /// Nodes with at least one idle processor and an empty queue — the
    /// "site has a free node" predicate schedulers test per dispatch.
    pub free_nodes: usize,
}

/// The free-node predicate backing [`SiteStats::free_nodes`].
fn node_is_free(node: &ComputeNode) -> bool {
    node.idle_count() > 0 && node.queue.is_empty()
}

/// A generated platform.
///
/// Processor and queue state must change through the platform's
/// transition wrappers ([`Platform::start_task_on`],
/// [`Platform::finish_task_on`], [`Platform::sleep_proc`],
/// [`Platform::begin_wake_proc`], [`Platform::finish_wake_proc`],
/// [`Platform::fail_proc`], [`Platform::recover_proc`],
/// [`Platform::enqueue_group`], [`Platform::remove_group`]) so the cached
/// [`SiteStats`] stay true; see [`Platform::assert_stats_consistent`] for
/// the audit-mode cross-check.
#[derive(Debug, Clone)]
pub struct Platform {
    /// The spec this platform was generated from.
    pub spec: PlatformSpec,
    /// The resource sites.
    pub sites: Vec<Site>,
    /// Incrementally maintained per-site aggregates.
    stats: Vec<SiteStats>,
    /// Per-site mutation epochs: bumped by every transition wrapper (and,
    /// conservatively, by every [`Platform::node_mut`] borrow). Two equal
    /// readings of [`Platform::site_epoch`] bracket a window with no
    /// node-state change, so site aggregates derived from node caches can
    /// be memoized against the epoch with exact bit-identity. Not part of
    /// the serialized platform: checkpoints rebuild state, and a reset
    /// epoch only costs one cold recomputation.
    epochs: Vec<u64>,
}

impl Platform {
    /// Generates a platform deterministically from `rng`.
    pub fn generate(spec: PlatformSpec, rng: &RngStream) -> Platform {
        spec.validate();
        let mut shape_rng = rng.derive("platform.shape");
        let mut sites = Vec::with_capacity(spec.num_sites as usize);
        for s in 0..spec.num_sites {
            let num_nodes = shape_rng.uniform_usize(
                spec.nodes_per_site.0 as usize,
                spec.nodes_per_site.1 as usize,
            );
            let mut nodes = Vec::with_capacity(num_nodes);
            for n in 0..num_nodes {
                let num_procs = shape_rng.uniform_usize(
                    spec.procs_per_node.0 as usize,
                    spec.procs_per_node.1 as usize,
                );
                let mut speed_rng =
                    rng.derive_indexed("platform.speeds", u64::from(s) << 32 | n as u64);
                let speeds = match spec.heterogeneity_cv {
                    Some(cv) => speeds_with_cv(num_procs, spec.mean_speed(), cv, &mut speed_rng),
                    None => (0..num_procs)
                        .map(|_| {
                            if spec.speed_range.0 == spec.speed_range.1 {
                                spec.speed_range.0
                            } else {
                                speed_rng.uniform(spec.speed_range.0, spec.speed_range.1)
                            }
                        })
                        .collect(),
                };
                nodes.push(ComputeNode::new(
                    NodeAddr {
                        site: SiteId(s),
                        node: n as u32,
                    },
                    processors_from_speeds(&speeds, &spec.power),
                    spec.queue_capacity,
                ));
            }
            sites.push(Site {
                id: SiteId(s),
                nodes,
            });
        }
        let mut p = Platform {
            spec,
            sites,
            stats: Vec::new(),
            epochs: Vec::new(),
        };
        p.recompute_stats();
        p
    }

    /// Builds a platform from a spec and ready-made sites (a shard's slice,
    /// or the empty blank a checkpoint decodes into). The cached aggregates
    /// are computed from the node state, so they cannot disagree with it.
    pub(crate) fn from_parts(spec: PlatformSpec, sites: Vec<Site>) -> Platform {
        let mut p = Platform {
            spec,
            sites,
            stats: Vec::new(),
            epochs: Vec::new(),
        };
        p.recompute_stats();
        p
    }

    /// Snapshot field list of the sites (the spec is listed ahead, on its
    /// own). Decoding checks the dense addressing and rebuilds the stats.
    pub(crate) fn snap_sites<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let (cap, power) = (self.spec.queue_capacity, self.spec.power);
        c.seq(&mut self.sites, |site, c| {
            c.u32(&mut site.id.0)?;
            c.seq(&mut site.nodes, |node, c| node.snap(c, cap, &power))
        })?;
        if C::DECODE {
            let (n, spec_sites) = (self.sites.len(), self.spec.num_sites);
            c.check(n > 0 && n == spec_sites as usize, || {
                format!("{n} serialized sites for a spec of {spec_sites}")
            })?;
            for (s, site) in self.sites.iter().enumerate() {
                let id = site.id.0;
                c.check(id as usize == s, || format!("site {s} carries id {id}"))?;
                c.check(!site.nodes.is_empty(), || format!("site {s} has no nodes"))?;
                for (i, node) in site.nodes.iter().enumerate() {
                    let want = NodeAddr::new(s as u32, i as u32);
                    let got = node.addr;
                    c.check(got == want, || format!("node {want} carries address {got}"))?;
                }
            }
            self.recompute_stats();
        }
        Ok(())
    }

    /// Rebuilds every [`SiteStats`] from scratch (construction and audit).
    fn recompute_stats(&mut self) {
        self.stats = self.sites.iter().map(Self::naive_site_stats).collect();
    }

    /// Ground-truth site aggregates by full scan.
    fn naive_site_stats(site: &Site) -> SiteStats {
        let mut st = SiteStats::default();
        for n in &site.nodes {
            st.procs += n.num_processors();
            st.queue_slots += n.queue.capacity();
            st.idle += n.idle_count();
            st.asleep += n.asleep_count();
            st.failed += n.failed_count();
            st.queued_groups += n.queue.len();
            if node_is_free(n) {
                st.free_nodes += 1;
            }
        }
        st
    }

    /// Cached aggregates of one site.
    pub fn site_stats(&self, site: SiteId) -> SiteStats {
        debug_assert_eq!(
            self.stats[site.0 as usize],
            Self::naive_site_stats(&self.sites[site.0 as usize]),
            "site-stats cache out of sync"
        );
        self.stats[site.0 as usize]
    }

    /// Audit-mode cross-check: every site's cached aggregates (and every
    /// node's cached aggregates beneath them) must equal naive
    /// recomputation.
    ///
    /// # Panics
    /// Panics on any cache that drifted from ground truth.
    pub fn assert_stats_consistent(&self) {
        for (s, site) in self.sites.iter().enumerate() {
            assert_eq!(
                self.stats[s],
                Self::naive_site_stats(site),
                "site {s} stats cache out of sync"
            );
            for n in &site.nodes {
                n.assert_cache_consistent();
            }
        }
    }

    /// Mutation epoch of `site`: unchanged epoch ⇒ unchanged node state,
    /// so any aggregate derived from the site's node caches may be reused
    /// bit-for-bit. Monotonic within a process; resets (to a cold cache
    /// miss, never a false hit within one platform value) across
    /// checkpoint restore.
    pub fn site_epoch(&self, site: SiteId) -> u64 {
        self.epochs.get(site.0 as usize).copied().unwrap_or(0)
    }

    /// Advances a site's mutation epoch. Lazily sizes the epoch vector so
    /// deserialized platforms (whose skipped `epochs` field defaults to
    /// empty) still invalidate correctly on their first mutation.
    fn bump_epoch(&mut self, s: usize) {
        if self.epochs.len() < self.sites.len() {
            self.epochs.resize(self.sites.len(), 0);
        }
        self.epochs[s] += 1;
    }

    /// Runs a node mutation, updating the owning site's cached stats from
    /// the node's before/after aggregates (all O(1) reads of node caches).
    fn with_node<R>(&mut self, addr: NodeAddr, f: impl FnOnce(&mut ComputeNode) -> R) -> R {
        let s = addr.site.0 as usize;
        self.bump_epoch(s);
        let node = &mut self.sites[s].nodes[addr.node as usize];
        let before = (
            node.idle_count(),
            node.asleep_count(),
            node.failed_count(),
            node.queue.len(),
            node_is_free(node),
        );
        let r = f(node);
        let after = (
            node.idle_count(),
            node.asleep_count(),
            node.failed_count(),
            node.queue.len(),
            node_is_free(node),
        );
        let st = &mut self.stats[s];
        st.idle = st.idle + after.0 - before.0;
        st.asleep = st.asleep + after.1 - before.1;
        st.failed = st.failed + after.2 - before.2;
        st.queued_groups = st.queued_groups + after.3 - before.3;
        st.free_nodes = st.free_nodes + usize::from(after.4) - usize::from(before.4);
        r
    }

    /// Starts a task on a node's idle processor (at the node's current
    /// throttle); returns the completion instant.
    ///
    /// # Panics
    /// Panics if the processor is not idle.
    pub fn start_task_on(
        &mut self,
        addr: NodeAddr,
        proc: usize,
        now: SimTime,
        task: workload::TaskId,
        group: crate::group::GroupId,
        size_mi: f64,
    ) -> SimTime {
        let params = self.spec.power;
        self.with_node(addr, |n| {
            n.start_task_on(proc, now, task, group, size_mi, &params)
        })
    }

    /// Completes the task running on a node's processor.
    ///
    /// # Panics
    /// Panics if the processor is not busy.
    pub fn finish_task_on(
        &mut self,
        addr: NodeAddr,
        proc: usize,
        now: SimTime,
    ) -> (workload::TaskId, crate::group::GroupId) {
        self.with_node(addr, |n| n.finish_task_on(proc, now))
    }

    /// Puts a node's idle processor to sleep; `false` if not idle.
    pub fn sleep_proc(&mut self, addr: NodeAddr, proc: usize, now: SimTime) -> bool {
        self.with_node(addr, |n| n.sleep_proc(proc, now))
    }

    /// Begins waking a node's sleeping processor; returns the usable-at
    /// instant, or `None` if it was not asleep.
    pub fn begin_wake_proc(
        &mut self,
        addr: NodeAddr,
        proc: usize,
        now: SimTime,
    ) -> Option<SimTime> {
        let params = self.spec.power;
        self.with_node(addr, |n| n.begin_wake_proc(proc, now, &params))
    }

    /// Completes a node processor's wake transition.
    ///
    /// # Panics
    /// Panics if the processor is not waking.
    pub fn finish_wake_proc(&mut self, addr: NodeAddr, proc: usize, now: SimTime) {
        self.with_node(addr, |n| n.finish_wake_proc(proc, now));
    }

    /// Crashes a node's processor; returns the preempted `(task, group)`
    /// if it was executing. No-op if already failed.
    pub fn fail_proc(
        &mut self,
        addr: NodeAddr,
        proc: usize,
        now: SimTime,
    ) -> Option<(workload::TaskId, crate::group::GroupId)> {
        self.with_node(addr, |n| n.fail_proc(proc, now))
    }

    /// Brings a node's failed processor back online.
    ///
    /// # Panics
    /// Panics if the processor is not failed.
    pub fn recover_proc(&mut self, addr: NodeAddr, proc: usize, now: SimTime) {
        self.with_node(addr, |n| n.recover_proc(proc, now));
    }

    /// Enqueues a group at a node, or reports the queue full.
    ///
    /// # Errors
    /// Returns [`crate::queue::QueueFull`] when the node queue has no free
    /// slot.
    pub fn enqueue_group(
        &mut self,
        addr: NodeAddr,
        qg: crate::queue::QueuedGroup,
    ) -> Result<(), crate::queue::QueueFull> {
        self.with_node(addr, |n| n.queue.push(qg))
    }

    /// Removes a queued group from a node by id.
    pub fn remove_group(
        &mut self,
        addr: NodeAddr,
        id: crate::group::GroupId,
    ) -> Option<crate::queue::QueuedGroup> {
        self.with_node(addr, |n| n.queue.remove(id))
    }

    /// Sets a node's throttle level (clamped to `[0.1, 1.0]`).
    pub fn set_throttle(&mut self, addr: NodeAddr, level: f64) {
        // Throttle does not feed any cached aggregate, but routing through
        // the wrapper keeps a single mutation discipline.
        self.with_node(addr, |n| n.set_throttle(level));
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Total number of compute nodes.
    pub fn num_nodes(&self) -> usize {
        self.sites.iter().map(|s| s.nodes.len()).sum()
    }

    /// Total number of processors.
    pub fn num_processors(&self) -> usize {
        self.sites
            .iter()
            .flat_map(|s| &s.nodes)
            .map(|n| n.num_processors())
            .sum()
    }

    /// Sum of nominal processor speeds over the whole platform (MIPS).
    pub fn total_nominal_mips(&self) -> f64 {
        self.sites
            .iter()
            .flat_map(|s| &s.nodes)
            .map(|n| n.raw_speed())
            .sum()
    }

    /// The slowest processor speed — the paper's *reference* resource used
    /// to compute `ACT`.
    pub fn reference_speed(&self) -> f64 {
        self.sites
            .iter()
            .flat_map(|s| &s.nodes)
            .flat_map(|n| &n.processors)
            .map(|p| p.speed_mips)
            .fold(f64::INFINITY, f64::min)
    }

    /// Borrow a node by address.
    ///
    /// # Panics
    /// Panics on an out-of-range address.
    pub fn node(&self, addr: NodeAddr) -> &ComputeNode {
        &self.sites[addr.site.0 as usize].nodes[addr.node as usize]
    }

    /// Mutably borrow a node by address.
    ///
    /// # Panics
    /// Panics on an out-of-range address.
    pub fn node_mut(&mut self, addr: NodeAddr) -> &mut ComputeNode {
        // Conservatively treat every mutable borrow as a mutation — the
        // engine's uses only touch queued-group progress counters, but a
        // spurious epoch bump costs one cache refill, while a missed one
        // would serve stale observations.
        self.bump_epoch(addr.site.0 as usize);
        &mut self.sites[addr.site.0 as usize].nodes[addr.node as usize]
    }

    /// All node addresses, site-major. Allocation-free: callers that need
    /// a materialised list can `collect()`.
    pub fn node_addrs(&self) -> impl Iterator<Item = NodeAddr> + '_ {
        self.sites
            .iter()
            .flat_map(|s| s.nodes.iter().map(|n| n.addr))
    }

    /// System-wide energy `ECS = Σ_c E_c` at `now` (Eq. 6 summed over all
    /// nodes).
    pub fn total_energy_at(&self, now: SimTime) -> f64 {
        self.sites
            .iter()
            .flat_map(|s| &s.nodes)
            .map(|n| n.energy_at(now))
            .sum()
    }

    /// Mean processor utilisation over the whole platform at `now`.
    pub fn mean_utilisation_at(&self, now: SimTime) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for p in self
            .sites
            .iter()
            .flat_map(|s| &s.nodes)
            .flat_map(|n| n.processors.iter())
        {
            sum += p.utilisation_at(now);
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_shapes_are_in_range() {
        let p = Platform::generate(PlatformSpec::paper(7), &RngStream::root(1));
        assert_eq!(p.num_sites(), 7);
        for site in &p.sites {
            assert!((5..=20).contains(&site.nodes.len()));
            for node in &site.nodes {
                assert!((4..=6).contains(&node.num_processors()));
                for proc in &node.processors {
                    assert!((500.0..1000.0).contains(&proc.speed_mips));
                    assert!((80.0..=95.0).contains(&proc.p_peak));
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Platform::generate(PlatformSpec::paper(5), &RngStream::root(9));
        let b = Platform::generate(PlatformSpec::paper(5), &RngStream::root(9));
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_processors(), b.num_processors());
        assert_eq!(a.reference_speed(), b.reference_speed());
        let a_speeds: Vec<f64> = a
            .sites
            .iter()
            .flat_map(|s| &s.nodes)
            .flat_map(|n| n.processors.iter().map(|p| p.speed_mips))
            .collect();
        let b_speeds: Vec<f64> = b
            .sites
            .iter()
            .flat_map(|s| &s.nodes)
            .flat_map(|n| n.processors.iter().map(|p| p.speed_mips))
            .collect();
        assert_eq!(a_speeds, b_speeds);
    }

    #[test]
    fn reference_speed_is_global_min() {
        let p = Platform::generate(PlatformSpec::paper(6), &RngStream::root(3));
        let min = p
            .sites
            .iter()
            .flat_map(|s| &s.nodes)
            .flat_map(|n| n.processors.iter().map(|pr| pr.speed_mips))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(p.reference_speed(), min);
    }

    #[test]
    fn heterogeneity_knob_controls_spread() {
        let mut lo_spec = PlatformSpec::paper(8);
        lo_spec.heterogeneity_cv = Some(0.1);
        let mut hi_spec = PlatformSpec::paper(8);
        hi_spec.heterogeneity_cv = Some(0.9);
        let lo = Platform::generate(lo_spec, &RngStream::root(4));
        let hi = Platform::generate(hi_spec, &RngStream::root(4));
        let cv = |p: &Platform| {
            let speeds: Vec<f64> = p
                .sites
                .iter()
                .flat_map(|s| &s.nodes)
                .flat_map(|n| n.processors.iter().map(|pr| pr.speed_mips))
                .collect();
            crate::heterogeneity::realized_cv(&speeds)
        };
        assert!(cv(&hi) > cv(&lo) + 0.2, "{} vs {}", cv(&lo), cv(&hi));
    }

    #[test]
    fn node_addressing_round_trips() {
        let p = Platform::generate(PlatformSpec::small(3, 4, 5), &RngStream::root(5));
        assert_eq!(p.num_nodes(), 12);
        assert_eq!(p.num_processors(), 60);
        for addr in p.node_addrs() {
            assert_eq!(p.node(addr).addr, addr);
        }
    }

    #[test]
    fn total_mips_sums_all_processors() {
        let p = Platform::generate(PlatformSpec::small(2, 2, 3), &RngStream::root(8));
        let manual: f64 = p
            .sites
            .iter()
            .flat_map(|s| &s.nodes)
            .flat_map(|n| n.processors.iter().map(|pr| pr.speed_mips))
            .sum();
        assert_eq!(p.total_nominal_mips(), manual);
        assert!(p.total_nominal_mips() > 0.0);
    }

    #[test]
    fn idle_platform_energy_matches_closed_form() {
        let p = Platform::generate(PlatformSpec::small(2, 3, 4), &RngStream::root(6));
        // Every node's Eq. (6) energy is 48 W × t regardless of proc count.
        let t = SimTime::new(100.0);
        let expected = 48.0 * 100.0 * p.num_nodes() as f64;
        assert!((p.total_energy_at(t) - expected).abs() < 1e-6);
        assert_eq!(p.mean_utilisation_at(t), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid speed range")]
    fn bad_speed_range_rejected() {
        let mut spec = PlatformSpec::paper(5);
        spec.speed_range = (1000.0, 500.0);
        spec.validate();
    }
}
