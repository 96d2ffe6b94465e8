//! Read-only platform snapshots handed to schedulers.
//!
//! §IV.B: "the agent A_S receives a state S_c(t) = (Load, q⁻, {PP_1…m})
//! from each node c, where Load is the total processing weight in the
//! node's queue, q⁻ is the available queue spaces and PP_1…m is the power
//! consumption of each processor". [`NodeView`] exposes exactly those
//! observables (plus the capability constants a real resource manager would
//! publish), without letting a scheduler mutate the platform.

use crate::ids::NodeAddr;
use crate::node::ComputeNode;
use crate::topology::Platform;
use simcore::time::SimTime;
use workload::SiteId;

/// Immutable view of the whole platform at one instant.
#[derive(Clone, Copy)]
pub struct PlatformView<'a> {
    platform: &'a Platform,
    now: SimTime,
}

impl<'a> PlatformView<'a> {
    /// Wraps a platform at observation time `now`.
    pub fn new(platform: &'a Platform, now: SimTime) -> Self {
        PlatformView { platform, now }
    }

    /// Observation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of resource sites.
    pub fn num_sites(&self) -> usize {
        self.platform.num_sites()
    }

    /// Views of all nodes in one site.
    pub fn site_nodes(&self, site: SiteId) -> impl Iterator<Item = NodeView<'a>> + '_ {
        self.platform.sites[site.0 as usize]
            .nodes
            .iter()
            .map(move |n| NodeView {
                node: n,
                now: self.now,
            })
    }

    /// View of one node.
    ///
    /// # Panics
    /// Panics on an out-of-range address.
    pub fn node(&self, addr: NodeAddr) -> NodeView<'a> {
        NodeView {
            node: self.platform.node(addr),
            now: self.now,
        }
    }

    /// All node addresses, site-major. Allocation-free.
    pub fn node_addrs(&self) -> impl Iterator<Item = NodeAddr> + 'a {
        self.platform.node_addrs()
    }

    /// Cached per-site aggregates (idle/asleep/failed processors, queued
    /// groups, free nodes) — O(1) instead of a node scan.
    pub fn site_stats(&self, site: SiteId) -> crate::topology::SiteStats {
        self.platform.site_stats(site)
    }

    /// Whether the site has a node with an idle processor and an empty
    /// queue — the common "can I start something immediately" predicate,
    /// answered from the cached site aggregates.
    pub fn site_has_free_node(&self, site: SiteId) -> bool {
        self.platform.site_stats(site).free_nodes > 0
    }

    /// Whether some node of the site has a free queue slot — false means
    /// no group can be placed there now. No queue holds more than its
    /// capacity, so the site's queued groups reach its total slot count
    /// exactly when every queue is full.
    pub fn site_has_open_queue(&self, site: SiteId) -> bool {
        let st = self.platform.site_stats(site);
        st.queued_groups < st.queue_slots
    }

    /// The reference (slowest) speed used for `ACT`.
    pub fn reference_speed(&self) -> f64 {
        self.platform.reference_speed()
    }

    /// Mutation epoch of `site` (see [`Platform::site_epoch`]): while it
    /// holds still, site aggregates computed from node state can be
    /// reused bit-for-bit instead of rescanned.
    pub fn site_epoch(&self, site: SiteId) -> u64 {
        self.platform.site_epoch(site)
    }

    /// System-wide energy at the observation instant (`ECS`).
    pub fn total_energy(&self) -> f64 {
        self.platform.total_energy_at(self.now)
    }

    /// Mean processor utilisation at the observation instant.
    pub fn mean_utilisation(&self) -> f64 {
        self.platform.mean_utilisation_at(self.now)
    }
}

/// Immutable view of one compute node — the state vector `S_c(t)`.
#[derive(Clone, Copy)]
pub struct NodeView<'a> {
    node: &'a ComputeNode,
    now: SimTime,
}

impl<'a> NodeView<'a> {
    /// Node address.
    pub fn addr(&self) -> NodeAddr {
        self.node.addr
    }

    /// `Load`: total processing weight queued at the node.
    pub fn load(&self) -> f64 {
        self.node.queue.total_load()
    }

    /// `q⁻`: available queue slots.
    pub fn queue_available(&self) -> usize {
        self.node.queue.available()
    }

    /// Occupied queue slots.
    pub fn queue_len(&self) -> usize {
        self.node.queue.len()
    }

    /// `{PP_1…m}`: instantaneous per-processor power draws. A borrow of
    /// the node's transition-maintained cache — no per-call allocation.
    pub fn proc_powers(&self) -> &'a [f64] {
        self.node.proc_powers()
    }

    /// Sum of the per-processor power draws (cached; bit-identical to
    /// summing [`NodeView::proc_powers`] in order).
    pub fn power_sum(&self) -> f64 {
        self.node.power_sum()
    }

    /// Eq. (2) processing capacity.
    pub fn processing_capacity(&self) -> f64 {
        self.node.processing_capacity()
    }

    /// Number of processors (`m`).
    pub fn num_processors(&self) -> usize {
        self.node.num_processors()
    }

    /// Processors able to start a task right now.
    pub fn idle_count(&self) -> usize {
        self.node.idle_count()
    }

    /// Processors in deep sleep.
    pub fn asleep_count(&self) -> usize {
        self.node.asleep_count()
    }

    /// Processors not currently failed (usable capacity under faults;
    /// equals `num_processors()` on a healthy node).
    pub fn available_processors(&self) -> usize {
        self.node.available_processors()
    }

    /// Fraction of processors currently online (`1.0` when no faults).
    pub fn availability(&self) -> f64 {
        self.node.availability()
    }

    /// Sum of nominal processor speeds (MIPS).
    pub fn raw_speed(&self) -> f64 {
        self.node.raw_speed()
    }

    /// Current throttle level.
    pub fn throttle(&self) -> f64 {
        self.node.throttle
    }

    /// Mean processor utilisation through the observation instant.
    pub fn utilisation(&self) -> f64 {
        self.node.utilisation_at(self.now)
    }

    /// Node energy (Eq. 6) through the observation instant.
    pub fn energy(&self) -> f64 {
        self.node.energy_at(self.now)
    }

    /// Nominal speed of each processor (MIPS). A borrow of the node's
    /// construction-time cache — no per-call allocation.
    pub fn proc_speeds(&self) -> &'a [f64] {
        self.node.proc_speeds()
    }

    /// Whether processor `i` is asleep.
    pub fn proc_is_asleep(&self, i: usize) -> bool {
        self.node.processors[i].is_asleep()
    }

    /// Whether processor `i` is idle.
    pub fn proc_is_idle(&self, i: usize) -> bool {
        self.node.processors[i].is_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PlatformSpec;
    use simcore::rng::RngStream;

    #[test]
    fn view_exposes_state_vector() {
        let p = Platform::generate(PlatformSpec::small(2, 3, 4), &RngStream::root(1));
        let v = PlatformView::new(&p, SimTime::new(5.0));
        assert_eq!(v.num_sites(), 2);
        assert_eq!(v.node_addrs().count(), 6);
        let nv = v.node(NodeAddr::new(0, 0));
        assert_eq!(nv.load(), 0.0);
        assert_eq!(nv.queue_available(), 8);
        assert_eq!(nv.proc_powers().len(), 4);
        assert_eq!(nv.idle_count(), 4);
        assert_eq!(nv.throttle(), 1.0);
        assert_eq!(nv.utilisation(), 0.0);
        assert!(nv.processing_capacity() > 0.0);
    }

    #[test]
    fn site_iteration_covers_all_nodes() {
        let p = Platform::generate(PlatformSpec::small(3, 2, 4), &RngStream::root(2));
        let v = PlatformView::new(&p, SimTime::ZERO);
        let mut count = 0;
        for s in 0..3 {
            count += v.site_nodes(SiteId(s)).count();
        }
        assert_eq!(count, 6);
    }
}
