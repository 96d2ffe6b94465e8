//! Non-learning reference policies.
//!
//! Not part of the paper's comparison — they exist as sanity anchors for
//! tests, examples and the custom-scheduler tutorial: any learning policy
//! worth its name should beat [`RoundRobin`] on energy or response time
//! under load.

use crate::common::{self, SitePools, SlotLedger};
use platform::{Command, GroupPolicy, NodeAddr, PlatformView, Scheduler};
use simcore::time::SimTime;
use snapshot::{Codec, SnapReader, SnapWriter, SnapshotError};
use workload::{SiteId, Task};

/// Dispatches every task alone, cycling over the site's nodes.
#[derive(Clone)]
pub struct RoundRobin {
    pools: SitePools,
    cursor: Vec<usize>,
}

impl RoundRobin {
    /// Creates the policy for `num_sites` sites.
    pub fn new(num_sites: usize) -> Self {
        RoundRobin {
            pools: SitePools::new(num_sites),
            cursor: vec![0; num_sites],
        }
    }

    /// Snapshot field list: the pools, then one cursor per site. A cursor
    /// is a node index, so it fits a `u32`.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.pools.snap(c)?;
        c.len_eq(self.cursor.len(), "round-robin cursors")?;
        for cur in &mut self.cursor {
            c.usize(cur)?;
            let v = *cur;
            c.check(u32::try_from(v).is_ok(), || {
                format!("cursor {v} is not a node index")
            })?;
        }
        Ok(())
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &str {
        "Round-robin"
    }

    fn on_arrivals(&mut self, _now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.pools.buffer(site, tasks);
    }

    fn dispatch(&mut self, _now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        let mut cmds = Vec::new();
        for s in 0..self.pools.num_sites() {
            let site = SiteId(s as u32);
            // Node addresses are (site, index), so the cursor can address
            // nodes directly — no per-round Vec of addresses.
            let n_nodes = view.site_nodes(site).count();
            if n_nodes == 0 {
                continue;
            }
            let mut ledger = SlotLedger::new();
            let mut kept = Vec::new();
            for task in self.pools.pool_mut(s).drain(..) {
                let mut placed = false;
                for probe in 0..n_nodes {
                    let idx = (self.cursor[s] + probe) % n_nodes;
                    let addr = NodeAddr::new(s as u32, idx as u32);
                    let nv = view.node(addr);
                    if nv.queue_available() > ledger.claimed(addr) {
                        ledger.claim(addr);
                        self.cursor[s] = (idx + 1) % n_nodes;
                        cmds.push(Command::Dispatch {
                            node: addr,
                            tasks: vec![task],
                            policy: GroupPolicy::Mixed,
                        });
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    kept.push(task);
                }
            }
            *self.pools.pool_mut(s) = kept;
        }
        cmds
    }

    fn save_state(&mut self, w: &mut SnapWriter) {
        w.encode(|w| self.snap(w));
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        r.restore(self, Self::snap)
    }
}

/// Greedy EDF: groups pending tasks (shared strategy) and always targets
/// the node with the highest current processing capacity.
#[derive(Clone)]
pub struct GreedyEdf {
    pools: SitePools,
}

impl GreedyEdf {
    /// Creates the policy for `num_sites` sites.
    pub fn new(num_sites: usize) -> Self {
        GreedyEdf {
            pools: SitePools::new(num_sites),
        }
    }
}

impl Scheduler for GreedyEdf {
    fn name(&self) -> &str {
        "Greedy EDF"
    }

    fn on_arrivals(&mut self, _now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.pools.buffer(site, tasks);
    }

    fn dispatch(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        let mut cmds = Vec::new();
        for s in 0..self.pools.num_sites() {
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
            let hold = !common::site_has_idle_node(view, site);
            let groups =
                common::form_groups(self.pools.pool_mut(s), opnum, hold, now, common::MAX_HOLD);
            let mut ledger = SlotLedger::new();
            for group in groups {
                let target = view
                    .site_nodes(site)
                    .filter(|n| {
                        n.queue_available() > ledger.claimed(n.addr())
                            && n.available_processors() >= group.len()
                    })
                    .max_by(|a, b| {
                        // total_cmp: a NaN capacity must not panic the
                        // dispatch path mid-run.
                        a.processing_capacity().total_cmp(&b.processing_capacity())
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
                    None => self.pools.pool_mut(s).extend(group),
                }
            }
        }
        cmds
    }

    fn save_state(&mut self, w: &mut SnapWriter) {
        w.encode(|w| self.pools.snap(w));
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        r.restore(&mut self.pools, SitePools::snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{ExecConfig, ExecEngine, Platform, PlatformSpec, RunResult};
    use simcore::rng::RngStream;
    use workload::{Workload, WorkloadSpec};

    fn run_with<S: Scheduler>(mut sched: S, seed: u64, n: usize, iat: f64) -> RunResult {
        let rng = RngStream::root(seed);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(n, 2, platform.reference_speed());
        wspec.mean_interarrival = iat;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched)
    }

    #[test]
    fn round_robin_completes() {
        let r = run_with(RoundRobin::new(2), 1, 250, 1.0);
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
        assert_eq!(r.scheduler, "Round-robin");
    }

    #[test]
    fn greedy_edf_completes() {
        let r = run_with(GreedyEdf::new(2), 1, 250, 1.0);
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
        assert_eq!(r.scheduler, "Greedy EDF");
    }

    #[test]
    fn round_robin_spreads_tasks() {
        let r = run_with(RoundRobin::new(2), 3, 240, 1.0);
        let mut nodes: Vec<String> = r
            .records
            .iter()
            .map(|rec| format!("{}", rec.node))
            .collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 6, "all nodes should receive work");
    }

    #[test]
    fn greedy_edf_places_work_on_faster_processors() {
        // Greedy always targets the highest-capacity node, so the average
        // per-MI execution time must beat round-robin's, which cycles
        // through slow nodes too.
        let rr = run_with(RoundRobin::new(2), 7, 400, 1.0);
        let ge = run_with(GreedyEdf::new(2), 7, 400, 1.0);
        let mean_exec = |r: &RunResult| {
            r.records
                .iter()
                .map(|rec| rec.exec_time() / rec.size_mi)
                .sum::<f64>()
                / r.records.len() as f64
        };
        assert!(
            mean_exec(&ge) < mean_exec(&rr),
            "greedy {} vs rr {}",
            mean_exec(&ge),
            mean_exec(&rr)
        );
    }
}
