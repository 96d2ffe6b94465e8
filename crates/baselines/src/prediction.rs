//! Prediction-based learning scheduler (extended from Berral et al.,
//! "Towards energy-aware scheduling in data centers using machine
//! learning", e-Energy'10 — reference \[13\] of the paper).
//!
//! Per §II: "instead of dynamically allocating the resource to the task,
//! the policy estimates the impact of the task on the resource in terms of
//! performance and power consumption in advance … executes all tasks with
//! a minimum number of resources … the satisfaction rate is fulfilled when
//! the completion time is less than the deadline." A supervised model —
//! here an online least-squares regression — predicts each group's
//! *execution impact* on each candidate node; dispatch *consolidates*: it
//! prefers already-busy nodes, spreading out only when the prediction says
//! the deadline would be missed.
//!
//! The model predicts the task's impact on the resource — not the live
//! queueing delay, which an in-advance estimate cannot see. That is the
//! paper's §II critique of this family ("the efficacy of these approaches
//! in dealing with system dynamicity is limited to a certain level") and
//! is what makes consolidation overpack under bursty load.

use crate::common::{self, SitePools, SlotLedger};
use platform::{AssignmentFeedback, Command, GroupFeedback, GroupPolicy, PlatformView, Scheduler};
use simcore::time::SimTime;
use snapshot::{Codec, SnapReader, SnapWriter, SnapshotError};
use std::collections::{HashMap, VecDeque};
use workload::{SiteId, Task};

/// Prediction-based hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionConfig {
    /// SGD learning rate of the completion-time regressor.
    pub lr: f64,
    /// Margin multiplied into predicted execution impact before the
    /// deadline check.
    pub margin: f64,
    /// RNG seed (reserved; the policy itself is deterministic).
    pub seed: u64,
}

impl Default for PredictionConfig {
    fn default() -> Self {
        PredictionConfig {
            lr: 1e-3,
            margin: 1.0,
            seed: 0x9ED1,
        }
    }
}

impl PredictionConfig {
    /// Snapshot field list (the checkpoint meta blob's copy).
    pub fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.finite(&mut self.lr)?;
        c.finite(&mut self.margin)?;
        c.u64(&mut self.seed)
    }
}

/// Online least-squares linear regression on a fixed feature vector.
#[derive(Debug, Clone)]
pub struct LinReg<const D: usize> {
    /// Weights, including the bias at index 0.
    w: [f64; D],
    lr: f64,
    samples: u64,
}

impl<const D: usize> LinReg<D> {
    /// Creates a zero-initialised regressor.
    pub fn new(lr: f64) -> Self {
        LinReg {
            w: [0.0; D],
            lr,
            samples: 0,
        }
    }

    /// Predicted value.
    pub fn predict(&self, x: &[f64; D]) -> f64 {
        self.w.iter().zip(x).map(|(w, x)| w * x).sum()
    }

    /// One SGD step toward `y`; returns the pre-update absolute error.
    pub fn train(&mut self, x: &[f64; D], y: f64) -> f64 {
        let pred = self.predict(x);
        let err = pred - y;
        for (w, xi) in self.w.iter_mut().zip(x) {
            *w -= self.lr * err * xi;
        }
        self.samples += 1;
        err.abs()
    }

    /// Training samples consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Snapshot field list: the raw weights, bias first, then the sample
    /// count. The learning rate is configuration, not state.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.w.iter_mut().try_for_each(|w| c.f64(w))?;
        c.u64(&mut self.samples)
    }
}

/// Feature vector for the execution-impact model:
/// `[1, group_work_kMI, work/raw_speed, 1000/raw_speed]` — deliberately
/// *static* resource features; an in-advance estimator has no view of the
/// live queue (the paper's dynamicity critique of \[13\]).
fn completion_features(work_mi: f64, raw_speed: f64) -> [f64; 4] {
    [
        1.0,
        work_mi / 1000.0,
        work_mi / raw_speed.max(1.0),
        1000.0 / raw_speed.max(1.0),
    ]
}

#[derive(Debug, Clone, Copy, Default)]
struct PredSample {
    features: [f64; 4],
}

impl PredSample {
    /// Snapshot field list: the raw feature bits.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.features.iter_mut().try_for_each(|f| c.f64(f))
    }
}

/// Owned snapshot of one candidate node, reusable across decisions.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    addr: platform::NodeAddr,
    queue_len: usize,
    utilisation: f64,
    raw_speed: f64,
    /// Position in the site's node iteration order — the final sort
    /// tiebreaker that makes an unstable sort reproduce stable order.
    idx: usize,
}

/// The prediction-based consolidation scheduler.
#[derive(Clone)]
pub struct PredictionBased {
    cfg: PredictionConfig,
    pools: SitePools,
    model: LinReg<4>,
    issued: VecDeque<PredSample>,
    in_flight: HashMap<u64, PredSample>,
    /// Per-group candidate scratch (cleared, never reallocated).
    cands: Vec<Candidate>,
    /// Per-site slot ledger, cleared between sites.
    ledger: SlotLedger,
}

impl PredictionBased {
    /// Creates the scheduler for `num_sites` sites.
    pub fn new(num_sites: usize, cfg: PredictionConfig) -> Self {
        PredictionBased {
            pools: SitePools::new(num_sites),
            model: LinReg::new(cfg.lr),
            issued: VecDeque::new(),
            in_flight: HashMap::new(),
            cands: Vec::new(),
            ledger: SlotLedger::new(),
            cfg,
        }
    }

    /// Snapshot field list.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.pools.snap(c)?;
        self.model.snap(c)?;
        c.deque(&mut self.issued, PredSample::snap)?;
        c.map(&mut self.in_flight, PredSample::snap)
    }
}

impl Scheduler for PredictionBased {
    fn name(&self) -> &str {
        "Prediction-based learning"
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
            self.ledger.clear();
            for group in groups {
                let work: f64 = group.iter().map(|t| t.size_mi).sum();
                let earliest_slack = group
                    .iter()
                    .map(|t| t.deadline.since(now).as_f64())
                    .fold(f64::INFINITY, f64::min);
                // Candidates that can hold the group, *busiest first* —
                // consolidation prefers already-active resources. Snapshot
                // into the reusable scratch instead of collecting a fresh
                // Vec of views per group.
                self.cands.clear();
                for (idx, n) in view.site_nodes(site).enumerate() {
                    if n.queue_available() > self.ledger.claimed(n.addr())
                        && n.available_processors() >= group.len()
                    {
                        self.cands.push(Candidate {
                            addr: n.addr(),
                            queue_len: n.queue_len(),
                            utilisation: n.utilisation(),
                            raw_speed: n.raw_speed(),
                            idx,
                        });
                    }
                }
                // The original-order tiebreaker makes the unstable sort
                // reproduce the stable `sort_by` order exactly.
                self.cands.sort_unstable_by(|a, b| {
                    b.queue_len
                        .cmp(&a.queue_len)
                        .then(b.utilisation.total_cmp(&a.utilisation))
                        .then(a.idx.cmp(&b.idx))
                });
                let mut chosen = None;
                let mut best_fallback: Option<(f64, usize)> = None;
                for (i, n) in self.cands.iter().enumerate() {
                    let x = completion_features(work, n.raw_speed);
                    let pred = self.model.predict(&x).max(0.0) * self.cfg.margin;
                    if pred <= earliest_slack {
                        chosen = Some(i);
                        break;
                    }
                    match best_fallback {
                        Some((best, _)) if pred >= best => {}
                        _ => best_fallback = Some((pred, i)),
                    }
                }
                let pick = chosen.or(best_fallback.map(|(_, i)| i));
                match pick {
                    Some(i) => {
                        let n = self.cands[i];
                        self.ledger.claim(n.addr);
                        let features = completion_features(work, n.raw_speed);
                        self.issued.push_back(PredSample { features });
                        cmds.push(Command::Dispatch {
                            node: n.addr,
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

    fn on_assignment(&mut self, _now: SimTime, fb: &AssignmentFeedback) {
        if let Some(sample) = self.issued.pop_front() {
            self.in_flight.insert(fb.group.0, sample);
        }
    }

    fn on_rejected(&mut self, _now: SimTime, site: SiteId, tasks: Vec<Task>) {
        let _ = self.issued.pop_front();
        self.pools.buffer(site, tasks);
    }

    fn on_group_complete(&mut self, _now: SimTime, fb: &GroupFeedback) {
        if let Some(sample) = self.in_flight.remove(&fb.group.0) {
            // Train on the execution span — the "impact of the task on the
            // resource" — not the queueing delay the model cannot act on.
            let start = fb.first_start.unwrap_or(fb.enqueued_at);
            let actual = fb.completed_at.since(start).as_f64();
            self.model.train(&sample.features, actual);
        }
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
    use simcore::rng::RngStream;
    use workload::{Workload, WorkloadSpec};

    fn run(seed: u64, n: usize, iat: f64) -> (RunResult, PredictionBased) {
        let rng = RngStream::root(seed);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(n, 2, platform.reference_speed());
        wspec.mean_interarrival = iat;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let mut sched = PredictionBased::new(2, PredictionConfig::default());
        let r = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
        (r, sched)
    }

    #[test]
    fn completes_all_tasks_and_trains() {
        let (r, sched) = run(1, 300, 1.0);
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
        assert_eq!(r.scheduler, "Prediction-based learning");
        assert!(
            sched.model.samples() > 0,
            "the model must be trained online"
        );
    }

    #[test]
    fn consolidation_concentrates_load() {
        let (r, _) = run(2, 400, 1.5);
        assert_eq!(r.incomplete, 0);
        // Count tasks per node (dense index over the 2×3 platform);
        // consolidation should leave the spread clearly uneven (max node
        // gets far more than an even share).
        let mut per_node = [0usize; 6];
        for rec in &r.records {
            per_node[rec.node.site.0 as usize * 3 + rec.node.node as usize] += 1;
        }
        let max = per_node.iter().copied().max().unwrap_or(0);
        let even_share = r.records.len() / per_node.len();
        assert!(
            max > even_share * 3 / 2,
            "expected skewed placement, max {max} vs even {even_share}"
        );
    }

    #[test]
    fn linreg_learns_a_linear_target() {
        let mut m: LinReg<4> = LinReg::new(0.01);
        // y = 2 + 3·x1
        for i in 0..5000 {
            let x1 = (i % 10) as f64 / 10.0;
            let x = [1.0, x1, 0.0, 0.0];
            m.train(&x, 2.0 + 3.0 * x1);
        }
        let x = [1.0, 0.5, 0.0, 0.0];
        assert!((m.predict(&x) - 3.5).abs() < 0.05, "pred {}", m.predict(&x));
        assert_eq!(m.samples(), 5000);
    }

    #[test]
    fn unstable_sort_with_index_tiebreak_matches_stable_order() {
        // The scratch path replaced a stable `sort_by` over node views
        // with `sort_unstable_by` + original-index tiebreaker; on inputs
        // with heavy key ties the two must order identically.
        let items: Vec<(usize, f64)> = (0..64)
            .map(|i| ((i * 7) % 4, f64::from((i as u32 * 13) % 3)))
            .collect();
        let mut stable: Vec<(usize, (usize, f64))> = items.iter().copied().enumerate().collect();
        stable.sort_by(|(_, a), (_, b)| b.0.cmp(&a.0).then(b.1.total_cmp(&a.1)));
        let mut unstable: Vec<(usize, (usize, f64))> = items.iter().copied().enumerate().collect();
        unstable.sort_unstable_by(|(ia, a), (ib, b)| {
            b.0.cmp(&a.0).then(b.1.total_cmp(&a.1)).then(ia.cmp(ib))
        });
        assert_eq!(stable, unstable);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run(5, 150, 1.0);
        let (b, _) = run(5, 150, 1.0);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_energy, b.total_energy);
    }
}
