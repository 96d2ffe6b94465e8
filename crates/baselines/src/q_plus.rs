//! Q+ learning dynamic power management (extended from Tan, Liu & Qiu,
//! "Adaptive Power Management Using Reinforcement Learning", ICCAD'09 —
//! reference \[12\] of the paper).
//!
//! Per §II: "An agent chooses an action, either sleep or active, every
//! time the system leaves the current state and enters another. … the
//! minimum Q-value (product of power consumption and delay) of previous
//! action is chosen for the next action. They also proposed the strategy
//! of updating multiple Q-values in each cycle at the various learning
//! rates that speed up the learning process."
//!
//! Here each processor is the managed device: when it idles, the learner
//! picks `go_sleep` or `stay_active` from a Q-table over idle-duration and
//! backlog buckets, pays the measured power×delay cost of the following
//! interval, and refreshes multiple neighbouring Q-entries per update.
//! Task grouping and node selection follow the shared strategy.

use crate::common::{self, SitePools};
use crate::tabular::{bucketize, QTable};
use platform::{Command, PlatformView, ProcAddr, Scheduler};
use simcore::rng::RngStream;
use simcore::time::SimTime;
use snapshot::{Codec, SnapReader, SnapWriter, SnapshotError};
use workload::{SimCodec, SiteId, Task};

const IDLE_BUCKETS: usize = 4;
const BACKLOG_BUCKETS: usize = 3;
const ACTIONS: usize = 2; // 0 = stay active, 1 = go to sleep

/// Q+ hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QPlusConfig {
    /// Base learning rate.
    pub alpha: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Initial exploration probability.
    pub epsilon0: f64,
    /// Multiplicative ε decay per decision.
    pub epsilon_decay: f64,
    /// Exploration floor.
    pub epsilon_floor: f64,
    /// Neighbouring states refreshed per update (the "multiple Q-values"
    /// trick).
    pub spread: usize,
    /// Learning-rate decay per neighbour distance.
    pub spread_decay: f64,
    /// Weight of the wake-delay term in the power×delay cost.
    pub delay_weight: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QPlusConfig {
    fn default() -> Self {
        QPlusConfig {
            alpha: 0.15,
            gamma: 0.5,
            epsilon0: 0.3,
            epsilon_decay: 0.995,
            epsilon_floor: 0.02,
            spread: 2,
            spread_decay: 0.5,
            delay_weight: 8.0,
            seed: 0x09C1,
        }
    }
}

impl QPlusConfig {
    /// Snapshot field list (the checkpoint meta blob's copy). The spread
    /// is bounded by the Q-table's state count.
    pub fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.unit(&mut self.alpha, "Q+ rate")?;
        c.unit(&mut self.gamma, "Q+ rate")?;
        c.unit(&mut self.epsilon0, "Q+ rate")?;
        c.unit(&mut self.epsilon_decay, "Q+ rate")?;
        c.unit(&mut self.epsilon_floor, "Q+ rate")?;
        c.usize(&mut self.spread)?;
        let spread = self.spread;
        c.check(spread <= IDLE_BUCKETS * BACKLOG_BUCKETS, || {
            format!("Q+ spread {spread} exceeds the state count")
        })?;
        c.finite(&mut self.spread_decay)?;
        c.finite(&mut self.delay_weight)?;
        c.u64(&mut self.seed)
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct ProcCtl {
    idle_since: Option<f64>,
    /// Decision awaiting its cost: `(state, action, decided_at, energy_at)`.
    pending: Option<(usize, usize, f64, f64)>,
}

impl ProcCtl {
    /// Snapshot field list; `states` bounds a pending decision's state.
    fn snap<C: Codec>(&mut self, c: &mut C, states: usize) -> Result<(), SnapshotError> {
        c.opt(&mut self.idle_since, |t, c| c.nonneg(t))?;
        c.opt(&mut self.pending, |(s, a, at, energy), c| {
            c.usize(s)?;
            c.usize(a)?;
            let (s, a) = (*s, *a);
            c.check(s < states && a < ACTIONS, || {
                format!("pending (state {s}, action {a}) outside the Q-table")
            })?;
            c.nonneg(at)?;
            c.f64(energy)
        })
    }
}

/// The Q+ learning baseline scheduler.
#[derive(Clone)]
pub struct QPlusLearning {
    cfg: QPlusConfig,
    pools: SitePools,
    q: QTable,
    /// Per-processor controllers, dense in the site-major tick iteration
    /// order (replaces a per-tick `HashMap<ProcAddr, ProcCtl>` with its
    /// entry-API rehash per processor); sized on first tick.
    procs: Vec<ProcCtl>,
    rng: RngStream,
    epsilon: f64,
    decisions: u64,
}

impl QPlusLearning {
    /// Creates the scheduler for `num_sites` sites.
    pub fn new(num_sites: usize, cfg: QPlusConfig) -> Self {
        QPlusLearning {
            pools: SitePools::new(num_sites),
            // Optimistic low-cost initialisation so both actions get tried.
            q: QTable::new(IDLE_BUCKETS * BACKLOG_BUCKETS, ACTIONS, 0.0),
            procs: Vec::new(),
            rng: RngStream::root(cfg.seed).derive("q-plus"),
            epsilon: cfg.epsilon0,
            decisions: 0,
            cfg,
        }
    }

    /// Sleep/active decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn state(idle_dur: f64, backlog: usize) -> usize {
        let idle_b = bucketize(idle_dur, 0.0, 20.0, IDLE_BUCKETS);
        let back_b = bucketize(backlog as f64, 0.0, 4.0, BACKLOG_BUCKETS);
        idle_b * BACKLOG_BUCKETS + back_b
    }

    /// Snapshot field list.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.pools.snap(c)?;
        c.rng(&mut self.rng)?;
        c.unit(&mut self.epsilon, "Q+ epsilon")?;
        c.u64(&mut self.decisions)?;
        self.q.snap(c)?;
        let states = self.q.num_states();
        c.seq(&mut self.procs, |p, c| p.snap(c, states))
    }
}

impl Scheduler for QPlusLearning {
    fn name(&self) -> &str {
        "Q+ learning"
    }

    fn on_arrivals(&mut self, _now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.pools.buffer(site, tasks);
    }

    fn dispatch(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        common::dispatch_least_loaded(&mut self.pools, view, now, common::MAX_HOLD)
    }

    fn on_tick(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        let cfg = self.cfg;
        let mut cmds = Vec::new();
        // The dense controller table follows the site-major order the loop
        // walks; it grows to the platform's processor count on first use.
        let mut dense = 0usize;
        for addr in view.node_addrs() {
            let nv = view.node(addr);
            let backlog = nv.queue_len();
            let powers = nv.proc_powers();
            #[allow(clippy::needless_range_loop)] // p indexes three parallel per-proc views
            for p in 0..nv.num_processors() {
                let proc = ProcAddr {
                    node: addr,
                    proc: p as u32,
                };
                let is_idle = nv.proc_is_idle(p);
                let is_asleep = nv.proc_is_asleep(p);
                let explore = self.rng.chance(self.epsilon);
                let explore_pick = self.rng.pick(ACTIONS);
                if dense == self.procs.len() {
                    self.procs.push(ProcCtl::default());
                }
                let ctl = &mut self.procs[dense];
                dense += 1;

                // Resolve the pending decision's power×delay cost over the
                // elapsed interval. Power is the current draw of the state
                // the action led to; delay is charged when the action put
                // the processor to sleep while work was queued behind it.
                if let Some((s, a, at, _)) = ctl.pending {
                    let dt = now.as_f64() - at;
                    if dt > 0.0 {
                        let power = powers[p];
                        let wake_delay = if a == 1 && backlog > 0 {
                            cfg.delay_weight
                        } else {
                            0.0
                        };
                        let cost = power * dt / 10.0 + wake_delay;
                        let s_now = Self::state(
                            ctl.idle_since.map(|t| now.as_f64() - t).unwrap_or(0.0),
                            backlog,
                        );
                        self.q.update_multi(
                            s,
                            a,
                            cost,
                            s_now,
                            cfg.alpha,
                            cfg.gamma,
                            cfg.spread,
                            cfg.spread_decay,
                        );
                        ctl.pending = None;
                    }
                }

                if is_idle {
                    let idle_since = *ctl.idle_since.get_or_insert(now.as_f64());
                    let idle_dur = now.as_f64() - idle_since;
                    let s = Self::state(idle_dur, backlog);
                    let a = if explore {
                        explore_pick
                    } else {
                        self.q.best_action(s)
                    };
                    self.decisions += 1;
                    self.epsilon = (self.epsilon * cfg.epsilon_decay).max(cfg.epsilon_floor);
                    ctl.pending = Some((s, a, now.as_f64(), 0.0));
                    if a == 1 {
                        cmds.push(Command::Sleep(proc));
                        ctl.idle_since = None;
                    }
                } else {
                    ctl.idle_since = None;
                    let _ = is_asleep; // sleeping procs are woken by the engine on demand
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{ExecConfig, ExecEngine, Platform, PlatformSpec, RunResult};
    use workload::{Workload, WorkloadSpec};

    fn run(seed: u64, n: usize, iat: f64) -> (RunResult, QPlusLearning) {
        let rng = RngStream::root(seed);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(n, 2, platform.reference_speed());
        wspec.mean_interarrival = iat;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let mut sched = QPlusLearning::new(2, QPlusConfig::default());
        let r = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
        (r, sched)
    }

    #[test]
    fn completes_all_tasks() {
        let (r, sched) = run(1, 300, 1.0);
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
        assert_eq!(r.scheduler, "Q+ learning");
        assert!(sched.decisions() > 0, "the DPM agent must make decisions");
    }

    #[test]
    fn sparse_load_triggers_sleeping() {
        // Long idle gaps: the learner should discover go_sleep pays.
        let (r, _) = run(2, 150, 8.0);
        assert_eq!(r.incomplete, 0);
        // Energy must undercut the all-idle floor at some point if any
        // processor ever slept; check against the strict idle baseline.
        let idle_floor = 48.0 * r.makespan * 6.0; // 6 nodes, Eq. 6 mean per node
        assert!(
            r.total_energy < idle_floor * 1.15,
            "energy {} vs idle floor {idle_floor}",
            r.total_energy
        );
    }

    #[test]
    fn wake_latency_is_paid_under_load() {
        let (r, _) = run(3, 200, 0.8);
        assert_eq!(r.incomplete, 0);
        // Some starts must have waited on a wake (start > dispatch by more
        // than scheduling jitter alone can explain is hard to assert
        // directly; instead assert the run stayed causal and finished).
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run(5, 150, 1.0);
        let (b, _) = run(5, 150, 1.0);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_energy, b.total_energy);
    }
}
