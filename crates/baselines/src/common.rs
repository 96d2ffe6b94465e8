//! Shared plumbing for the baseline schedulers.
//!
//! All comparators are "induced into the same system model and scheduling
//! strategy" (§V.A): per-site pending pools and mixed-priority EDF task
//! grouping with a fixed `opnum` equal to the target node's processor
//! count. Each baseline's learning mechanism then controls its own knob —
//! throttle levels, sleep states, or node choice.

use platform::{Command, GroupPolicy, NodeAddr, PlatformView};
use simcore::time::SimTime;
use snapshot::{Codec, SnapshotError};
use workload::{SiteId, Task};

/// Per-site pending pools.
#[derive(Debug, Clone, Default)]
pub struct SitePools {
    pools: Vec<Vec<Task>>,
}

impl SitePools {
    /// Creates pools for `num_sites` sites.
    pub fn new(num_sites: usize) -> Self {
        SitePools {
            pools: vec![Vec::new(); num_sites],
        }
    }

    /// Buffers tasks for a site.
    pub fn buffer(&mut self, site: SiteId, tasks: Vec<Task>) {
        self.pools[site.0 as usize].extend(tasks);
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.pools.len()
    }

    /// Mutable access to one site's pool.
    pub fn pool_mut(&mut self, site: usize) -> &mut Vec<Task> {
        &mut self.pools[site]
    }

    /// Total pending tasks across sites.
    pub fn total_pending(&self) -> usize {
        self.pools.iter().map(|p| p.len()).sum()
    }

    /// Snapshot field list: one pool per site (the site count is fixed at
    /// construction).
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.len_eq(self.pools.len(), "site pools")?;
        self.pools.iter_mut().try_for_each(|p| c.seq(p, Task::snap))
    }
}

/// Tracks queue slots claimed during one dispatch round so consecutive
/// groups don't over-commit a node.
#[derive(Debug, Clone, Default)]
pub struct SlotLedger {
    used: Vec<(NodeAddr, usize)>,
}

impl SlotLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        SlotLedger::default()
    }

    /// Slots already claimed on `addr`.
    pub fn claimed(&self, addr: NodeAddr) -> usize {
        self.used
            .iter()
            .find(|(a, _)| *a == addr)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Forgets all claims, keeping the backing storage for reuse.
    pub fn clear(&mut self) {
        self.used.clear();
    }

    /// Claims one slot on `addr`.
    pub fn claim(&mut self, addr: NodeAddr) {
        match self.used.iter_mut().find(|(a, _)| *a == addr) {
            Some((_, c)) => *c += 1,
            None => self.used.push((addr, 1)),
        }
    }
}

/// Forms mixed-priority EDF groups of up to `opnum` from `pending`.
///
/// A final partial chunk is held back when `hold_partial` is set (the same
/// busy-site gate Adaptive-RL uses, so comparisons stay apples-to-apples)
/// — *unless* its oldest member has already waited `max_hold` time units,
/// which guarantees stragglers can never starve.
pub fn form_groups(
    pending: &mut Vec<Task>,
    opnum: usize,
    hold_partial: bool,
    now: SimTime,
    max_hold: f64,
) -> Vec<Vec<Task>> {
    debug_assert!(opnum > 0);
    if pending.is_empty() {
        return Vec::new();
    }
    let mut tasks = std::mem::take(pending);
    tasks.sort_by(|a, b| a.deadline.cmp(&b.deadline).then(a.id.cmp(&b.id)));
    let mut out = Vec::new();
    let mut iter = tasks.chunks(opnum).peekable();
    while let Some(chunk) = iter.next() {
        let is_partial = chunk.len() < opnum && iter.peek().is_none();
        if is_partial && hold_partial {
            let oldest_wait = chunk
                .iter()
                .map(|t| now.since(t.arrival).as_f64())
                .fold(0.0, f64::max);
            if oldest_wait < max_hold {
                pending.extend_from_slice(chunk);
                continue;
            }
        }
        out.push(chunk.to_vec());
    }
    out
}

/// Default straggler bound used by the baselines' grouping gate.
pub const MAX_HOLD: f64 = 10.0;

/// Whether any node of the site can start work immediately (idle processor
/// behind an empty queue). When true, partial groups should flush.
/// Answered from the platform's cached per-site aggregates — O(1) instead
/// of a node scan, with the identical predicate.
pub fn site_has_idle_node(view: &PlatformView<'_>, site: SiteId) -> bool {
    view.site_has_free_node(site)
}

/// Dispatch helper used by baselines that pick the least-loaded node:
/// groups pending tasks and targets the node with the highest Eq. (2)
/// processing capacity (speed over backlog) that can hold the group.
pub fn dispatch_least_loaded(
    pools: &mut SitePools,
    view: &PlatformView<'_>,
    now: SimTime,
    max_hold: f64,
) -> Vec<Command> {
    let mut cmds = Vec::new();
    for s in 0..pools.num_sites() {
        let site = SiteId(s as u32);
        // Group to the *smallest* node of the site so every node is
        // an eligible target; larger nodes' residual processors are
        // filled by the split process.
        let opnum = view
            .site_nodes(site)
            .map(|n| n.available_processors())
            .filter(|&m| m > 0)
            .min()
            .unwrap_or(0);
        if opnum == 0 {
            continue;
        }
        let hold = !site_has_idle_node(view, site);
        let groups = form_groups(pools.pool_mut(s), opnum, hold, now, max_hold);
        let mut ledger = SlotLedger::new();
        for group in groups {
            let target = view
                .site_nodes(site)
                .filter(|n| {
                    n.queue_available() > ledger.claimed(n.addr())
                        && n.available_processors() >= group.len()
                })
                .max_by(|a, b| {
                    let ca = a.raw_speed() / (a.queue_len() + ledger.claimed(a.addr()) + 1) as f64;
                    let cb = b.raw_speed() / (b.queue_len() + ledger.claimed(b.addr()) + 1) as f64;
                    ca.total_cmp(&cb)
                });
            match target {
                Some(n) => {
                    ledger.claim(n.addr());
                    cmds.push(Command::Dispatch {
                        node: n.addr(),
                        tasks: group,
                        policy: GroupPolicy::Mixed,
                    });
                }
                None => pools.pool_mut(s).extend(group),
            }
        }
    }
    cmds
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use workload::{Priority, TaskId};

    fn task(id: u64, deadline: f64) -> Task {
        Task {
            id: TaskId(id),
            size_mi: 1000.0,
            arrival: SimTime::ZERO,
            deadline: SimTime::new(deadline),
            priority: Priority::Medium,
            site: SiteId(0),
        }
    }

    #[test]
    fn form_groups_chunks_edf() {
        let mut pending = vec![
            task(1, 30.0),
            task(2, 10.0),
            task(3, 20.0),
            task(4, 40.0),
            task(5, 50.0),
        ];
        let groups = form_groups(&mut pending, 2, false, SimTime::new(1.0), 10.0);
        assert_eq!(groups.len(), 3);
        assert_eq!(
            groups[0].iter().map(|t| t.id.0).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(pending.is_empty());
    }

    #[test]
    fn hold_partial_keeps_stragglers() {
        let mut pending = vec![task(1, 10.0), task(2, 20.0), task(3, 30.0)];
        let groups = form_groups(&mut pending, 2, true, SimTime::new(1.0), 10.0);
        assert_eq!(groups.len(), 1);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id.0, 3);
    }

    #[test]
    fn pools_track_sites_independently() {
        let mut pools = SitePools::new(3);
        pools.buffer(SiteId(1), vec![task(1, 5.0)]);
        pools.buffer(SiteId(2), vec![task(2, 5.0), task(3, 5.0)]);
        assert_eq!(pools.total_pending(), 3);
        assert_eq!(pools.pool_mut(0).len(), 0);
        assert_eq!(pools.pool_mut(1).len(), 1);
        assert_eq!(pools.pool_mut(2).len(), 2);
    }

    #[test]
    fn ledger_counts_claims() {
        let mut l = SlotLedger::new();
        let a = NodeAddr::new(0, 0);
        let b = NodeAddr::new(0, 1);
        assert_eq!(l.claimed(a), 0);
        l.claim(a);
        l.claim(a);
        l.claim(b);
        assert_eq!(l.claimed(a), 2);
        assert_eq!(l.claimed(b), 1);
    }
}
