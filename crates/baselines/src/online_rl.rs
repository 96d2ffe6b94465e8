//! Online RL power/performance controller (extended from Tesauro et al.,
//! "Managing Power Consumption and Performance of Computing Systems Using
//! Reinforcement Learning", NIPS'07 — reference \[11\] of the paper).
//!
//! Per §II: the controller regulates CPU clock speed (throttling here) to
//! keep each node's power "close to but not over" a **powercap** that
//! itself follows a *simple random walk policy*; the reinforcement signal
//! combines response time and power over each decision interval; the
//! state is characterised by performance, power and load-intensity
//! metrics. Learning is tabular Q over discretised (load, cap-gap) states
//! with throttle levels as actions.
//!
//! Task grouping and node selection use the same strategy as every other
//! scheduler in the comparison ([`common::dispatch_least_loaded`]).

use crate::common::{self, SitePools};
use crate::tabular::{bucketize, QTable};
use platform::{Command, GroupFeedback, NodeAddr, PlatformView, Scheduler};
use serde::{Deserialize, Serialize};
use simcore::rng::RngStream;
use simcore::time::SimTime;
use snapshot::{Codec, SnapReader, SnapWriter, SnapshotError};
use workload::{SimCodec, SiteId, Task};

/// Throttle levels the controller can select.
pub const THROTTLE_LEVELS: [f64; 4] = [0.8, 0.9, 0.95, 1.0];

const LOAD_BUCKETS: usize = 5;
const GAP_BUCKETS: usize = 3;

/// Online-RL hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineRlConfig {
    /// Q-learning rate.
    pub alpha: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Initial exploration probability.
    pub epsilon0: f64,
    /// Multiplicative ε decay per decision interval.
    pub epsilon_decay: f64,
    /// Exploration floor.
    pub epsilon_floor: f64,
    /// Initial per-processor powercap (watts).
    pub powercap0: f64,
    /// Random-walk step applied to the cap each interval (watts).
    pub cap_step: f64,
    /// Powercap clamp range (watts).
    pub cap_range: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for OnlineRlConfig {
    fn default() -> Self {
        OnlineRlConfig {
            alpha: 0.1,
            gamma: 0.6,
            epsilon0: 0.15,
            epsilon_decay: 0.99,
            epsilon_floor: 0.02,
            powercap0: 88.0,
            cap_step: 1.0,
            cap_range: (78.0, 95.0),
            seed: 0x0717,
        }
    }
}

impl OnlineRlConfig {
    /// Snapshot field list (the checkpoint meta blob's copy).
    pub fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.unit(&mut self.alpha, "Online-RL rate")?;
        c.unit(&mut self.gamma, "Online-RL rate")?;
        c.unit(&mut self.epsilon0, "Online-RL rate")?;
        c.unit(&mut self.epsilon_decay, "Online-RL rate")?;
        c.unit(&mut self.epsilon_floor, "Online-RL rate")?;
        c.finite(&mut self.powercap0)?;
        c.finite(&mut self.cap_step)?;
        c.finite(&mut self.cap_range.0)?;
        c.finite(&mut self.cap_range.1)?;
        c.u64(&mut self.seed)
    }
}

#[derive(Debug, Clone)]
struct NodeCtl {
    q: QTable,
    powercap: f64,
    /// `(state, action)` pending its interval cost.
    last: Option<(usize, usize)>,
    /// Node energy reading at the previous tick.
    energy_prev: f64,
    tick_prev: f64,
    /// Response times of groups completed on this node this interval.
    resp_sum: f64,
    resp_n: u32,
    action: usize,
}

impl NodeCtl {
    fn new() -> Self {
        NodeCtl {
            q: QTable::new(LOAD_BUCKETS * GAP_BUCKETS, THROTTLE_LEVELS.len(), 0.0),
            powercap: 0.0, // set on first tick from cfg
            last: None,
            energy_prev: 0.0,
            tick_prev: 0.0,
            resp_sum: 0.0,
            resp_n: 0,
            // [11]: "CPUs operate at the highest frequency under all
            // workload conditions" until the controller throttles them.
            action: 3,
        }
    }

    /// Snapshot field list.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.q.snap(c)?;
        c.finite(&mut self.powercap)?;
        c.opt(&mut self.last, |(s, a), c| {
            c.usize(s)?;
            c.usize(a)
        })?;
        let (states, actions) = (self.q.num_states(), self.q.num_actions());
        if let Some((s, a)) = self.last {
            c.check(s < states && a < actions, || {
                format!("pending (state {s}, action {a}) outside the Q-table")
            })?;
        }
        c.nonneg(&mut self.energy_prev)?;
        c.nonneg(&mut self.tick_prev)?;
        c.nonneg(&mut self.resp_sum)?;
        c.u32(&mut self.resp_n)?;
        c.usize(&mut self.action)?;
        let action = self.action;
        c.check(action < THROTTLE_LEVELS.len(), || {
            format!("throttle action {action} out of range")
        })
    }

    fn state(&self, queue_len: usize, power_per_proc: f64) -> usize {
        let load_b = bucketize(queue_len as f64, 0.0, 8.0, LOAD_BUCKETS);
        // Gap to the cap: under / near / over.
        let gap = power_per_proc - self.powercap;
        let gap_b = bucketize(gap, -20.0, 10.0, GAP_BUCKETS);
        load_b * GAP_BUCKETS + gap_b
    }
}

impl Default for NodeCtl {
    fn default() -> Self {
        NodeCtl::new()
    }
}

/// The Online-RL baseline scheduler.
#[derive(Clone)]
pub struct OnlineRl {
    cfg: OnlineRlConfig,
    pools: SitePools,
    /// Per-node controllers, dense site-major (replaces a per-decision
    /// `HashMap<NodeAddr, NodeCtl>`); built lazily from the first view.
    ctls: Vec<NodeCtl>,
    /// Dense-index base of each site's first node.
    site_base: Vec<usize>,
    rng: RngStream,
    epsilon: f64,
    initialized: bool,
}

impl OnlineRl {
    /// Creates the scheduler for `num_sites` sites.
    pub fn new(num_sites: usize, cfg: OnlineRlConfig) -> Self {
        OnlineRl {
            pools: SitePools::new(num_sites),
            ctls: Vec::new(),
            site_base: Vec::new(),
            rng: RngStream::root(cfg.seed).derive("online-rl"),
            epsilon: cfg.epsilon0,
            initialized: false,
            cfg,
        }
    }

    /// Current exploration rate (diagnostics).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Builds the dense node index on first contact with the platform
    /// (node topology is fixed for a run; faults flag processors, they
    /// never remove nodes).
    fn ensure_ctls(&mut self, view: &PlatformView<'_>) {
        if !self.ctls.is_empty() {
            return;
        }
        let mut base = 0;
        for s in 0..view.num_sites() {
            self.site_base.push(base);
            base += view.site_nodes(SiteId(s as u32)).count();
        }
        self.ctls = (0..base)
            .map(|_| {
                let mut c = NodeCtl::new();
                c.powercap = self.cfg.powercap0;
                c
            })
            .collect();
    }

    /// The node's controller; `None` only when a restored index does not
    /// fit the platform (a corrupt snapshot).
    fn ctl(&mut self, addr: NodeAddr) -> Option<&mut NodeCtl> {
        let base = self.site_base.get(addr.site.0 as usize)?;
        self.ctls.get_mut(base + addr.node as usize)
    }

    /// Snapshot field list.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.pools.snap(c)?;
        c.rng(&mut self.rng)?;
        c.unit(&mut self.epsilon, "Online-RL epsilon")?;
        c.bool(&mut self.initialized)?;
        c.seq(&mut self.site_base, |v, c| c.usize(v))?;
        c.seq(&mut self.ctls, NodeCtl::snap)?;
        let (bases, n_ctls) = (&self.site_base, self.ctls.len());
        c.check(bases.is_empty() == (n_ctls == 0), || {
            "node index and controller table out of sync".into()
        })?;
        c.check(
            bases.is_empty()
                || (bases.len() == self.pools.num_sites()
                    && bases.windows(2).all(|p| p[0] <= p[1])
                    && bases.iter().all(|&b| b <= n_ctls)),
            || "node index does not fit the sites and controllers".into(),
        )
    }
}

impl Scheduler for OnlineRl {
    fn name(&self) -> &str {
        "Online RL"
    }

    fn on_arrivals(&mut self, _now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.pools.buffer(site, tasks);
    }

    fn dispatch(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        let mut cmds = common::dispatch_least_loaded(&mut self.pools, view, now, common::MAX_HOLD);
        self.ensure_ctls(view);
        if !self.initialized {
            // Apply the conservative initial throttle everywhere once.
            self.initialized = true;
            for addr in view.node_addrs() {
                if let Some(ctl) = self.ctl(addr) {
                    let level = THROTTLE_LEVELS[ctl.action];
                    cmds.push(Command::SetThrottle { node: addr, level });
                }
            }
        }
        cmds
    }

    fn on_group_complete(&mut self, _now: SimTime, fb: &GroupFeedback) {
        let Some(ctl) = self.ctl(fb.node) else {
            return;
        };
        ctl.resp_sum += fb.completed_at.since(fb.enqueued_at).as_f64();
        ctl.resp_n += 1;
    }

    fn on_tick(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        let mut cmds = Vec::new();
        let cfg = self.cfg;
        self.ensure_ctls(view);
        for addr in view.node_addrs() {
            let nv = view.node(addr);
            let energy_now = nv.energy();
            let queue_len = nv.queue_len();
            // Interval statistics.
            let walk_up = self.rng.chance(0.5);
            let explore = self.rng.chance(self.epsilon);
            let explore_pick = self.rng.pick(THROTTLE_LEVELS.len());
            let Some(ctl) = self.ctl(addr) else {
                continue;
            };
            let dt = now.as_f64() - ctl.tick_prev;
            if dt <= 0.0 {
                continue;
            }
            // Node energy is per-proc mean (Eq. 6): interval power per proc.
            let power_per_proc = (energy_now - ctl.energy_prev) / dt;
            let mean_resp = if ctl.resp_n > 0 {
                ctl.resp_sum / f64::from(ctl.resp_n)
            } else {
                0.0
            };
            // Powercap random walk (the paper's "simple random walk policy").
            ctl.powercap = (ctl.powercap + if walk_up { cfg.cap_step } else { -cfg.cap_step })
                .clamp(cfg.cap_range.0, cfg.cap_range.1);
            let state = ctl.state(queue_len, power_per_proc);
            // Interval cost: response·power (both to be minimised), with a
            // penalty for busting the cap.
            let over_cap = (power_per_proc - ctl.powercap).max(0.0);
            let cost = mean_resp * power_per_proc / 100.0 + over_cap;
            if let Some((s, a)) = ctl.last {
                ctl.q.update(s, a, cost, state, cfg.alpha, cfg.gamma);
            }
            // Choose the next throttle level.
            let action = if over_cap > 0.0 {
                // Cap enforcement: throttle down one level.
                ctl.action.saturating_sub(1)
            } else if explore {
                explore_pick
            } else {
                ctl.q.best_action(state)
            };
            ctl.last = Some((state, action));
            if action != ctl.action {
                ctl.action = action;
                cmds.push(Command::SetThrottle {
                    node: addr,
                    level: THROTTLE_LEVELS[action],
                });
            }
            ctl.energy_prev = energy_now;
            ctl.tick_prev = now.as_f64();
            ctl.resp_sum = 0.0;
            ctl.resp_n = 0;
        }
        self.epsilon = (self.epsilon * cfg.epsilon_decay).max(cfg.epsilon_floor);
        cmds
    }

    fn save_state(&mut self, w: &mut SnapWriter) {
        w.encode(|w| self.snap(w));
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        r.restore(self, Self::snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{ExecConfig, ExecEngine, Platform, PlatformSpec};
    use workload::{Workload, WorkloadSpec};

    fn run(seed: u64, n: usize, iat: f64) -> platform::RunResult {
        let rng = RngStream::root(seed);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(n, 2, platform.reference_speed());
        wspec.mean_interarrival = iat;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let mut sched = OnlineRl::new(2, OnlineRlConfig::default());
        ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched)
    }

    #[test]
    fn completes_all_tasks() {
        let r = run(1, 300, 1.0);
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
        assert_eq!(r.scheduler, "Online RL");
    }

    #[test]
    fn controller_eventually_throttles_something() {
        // Exploration and powercap enforcement must throttle at least one
        // execution below nominal speed over a long run.
        let r = run(2, 400, 1.0);
        let any_stretched = r.records.iter().any(|rec| {
            // At full speed a task on the *slowest* processor (500 MIPS)
            // takes size/500; anything slower than that implies throttle.
            rec.exec_time() > rec.size_mi / 500.0 * 1.01
        });
        assert!(any_stretched, "no execution was ever throttled");
    }

    #[test]
    fn epsilon_decays_over_ticks() {
        let rng = RngStream::root(3);
        let platform = Platform::generate(PlatformSpec::small(1, 2, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(200, 1, platform.reference_speed());
        wspec.mean_interarrival = 1.0;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let mut sched = OnlineRl::new(1, OnlineRlConfig::default());
        let e0 = sched.epsilon();
        let _ = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
        assert!(sched.epsilon() < e0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(5, 150, 1.0);
        let b = run(5, 150, 1.0);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_energy, b.total_energy);
    }
}
