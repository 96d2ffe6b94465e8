//! Fault injection: deterministic processor/node failure plans.
//!
//! Large-scale distributed systems lose processors and whole nodes while
//! work is in flight; a scheduler that only performs well on a pristine
//! platform is not credible at the paper's target scale (§III.A's "large
//! number of heterogeneous resources"). This module produces *plans* —
//! fully precomputed, seeded failure/recovery timelines — so that fault
//! experiments are exactly reproducible: the same [`FaultSpec`], platform
//! shape and seed always yield the same [`FaultPlan`].
//!
//! Two generation modes:
//!
//! * **Stochastic** ([`FaultPlan::generate`]): per-processor and per-node
//!   failure processes with exponential inter-failure gaps (MTBF) and
//!   exponential repair times (MTTR), each failure independently permanent
//!   with probability `permanent_fraction`.
//! * **Scripted** ([`FaultPlan::from_events`]): an explicit event list,
//!   for targeted tests (kill exactly this processor at exactly this time).
//!
//! The execution engine consumes the plan; with `enabled == false`
//! (the default) no plan is generated, no RNG is drawn, and the engine
//! behaves bit-for-bit as it did before this subsystem existed.

use crate::ids::{NodeAddr, ProcAddr};
use crate::topology::Platform;
use serde::{Deserialize, Serialize};
use simcore::rng::RngStream;
use simcore::time::SimTime;
use snapshot::{Codec, SnapshotError};
use workload::{SimCodec, SiteId};

/// Declarative fault-injection knobs, nested in
/// [`ExecConfig`](crate::engine::ExecConfig).
///
/// All-scalar and `Copy` so the engine config stays `Copy`. The default is
/// fully disabled: experiments that do not opt in are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Master switch. When false the engine injects nothing and draws no
    /// random numbers for faults.
    pub enabled: bool,
    /// Mean time between failures of each individual processor
    /// (exponential gaps; `0` disables processor-level faults).
    pub proc_mtbf: f64,
    /// Mean time to repair a transient processor failure.
    pub proc_mttr: f64,
    /// Mean time between whole-node failures, per node (`0` disables
    /// node-level faults). A node failure takes down every processor of
    /// the node at once and drains its queue.
    pub node_mtbf: f64,
    /// Mean time to repair a transient node failure.
    pub node_mttr: f64,
    /// Probability that any given failure is permanent (never recovers).
    pub permanent_fraction: f64,
    /// Re-dispatch budget: how many times a task may be preempted or
    /// orphaned by failures before the engine records it as failed.
    pub max_retries: u32,
    /// Failures are injected over `[0, horizon]` simulated time units.
    pub horizon: f64,
    /// Root seed of the fault RNG stream (independent of workload and
    /// platform seeds).
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            enabled: false,
            proc_mtbf: 0.0,
            proc_mttr: 50.0,
            node_mtbf: 0.0,
            node_mttr: 100.0,
            permanent_fraction: 0.0,
            max_retries: 3,
            horizon: 2000.0,
            seed: 0xFA17,
        }
    }
}

impl FaultSpec {
    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics on an impossible spec (negative rates, repair times that are
    /// not positive while the matching MTBF is active, a permanent
    /// fraction outside `[0, 1]`, or a non-positive horizon).
    pub fn validate(&self) {
        assert!(self.proc_mtbf >= 0.0, "proc MTBF must be non-negative");
        assert!(self.node_mtbf >= 0.0, "node MTBF must be non-negative");
        if self.proc_mtbf > 0.0 {
            assert!(self.proc_mttr > 0.0, "proc MTTR must be positive");
        }
        if self.node_mtbf > 0.0 {
            assert!(self.node_mttr > 0.0, "node MTTR must be positive");
        }
        assert!(
            (0.0..=1.0).contains(&self.permanent_fraction),
            "permanent fraction must lie in [0, 1]"
        );
        if self.enabled {
            assert!(self.horizon > 0.0, "fault horizon must be positive");
        }
    }

    /// Whether this spec can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.enabled && (self.proc_mtbf > 0.0 || self.node_mtbf > 0.0)
    }

    /// Snapshot field list.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.bool(&mut self.enabled)?;
        c.nonneg(&mut self.proc_mtbf)?;
        c.nonneg(&mut self.proc_mttr)?;
        c.nonneg(&mut self.node_mtbf)?;
        c.nonneg(&mut self.node_mttr)?;
        c.unit(&mut self.permanent_fraction, "permanent fraction")?;
        c.u32(&mut self.max_retries)?;
        c.nonneg(&mut self.horizon)?;
        c.u64(&mut self.seed)
    }
}

/// What a planned fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// One processor fails; the rest of its node keeps working.
    Proc(ProcAddr),
    /// A whole node fails: every processor goes down and the queue drains.
    Node(NodeAddr),
}

impl FaultTarget {
    /// The node the fault lands on.
    pub fn node(&self) -> NodeAddr {
        match *self {
            FaultTarget::Proc(p) => p.node,
            FaultTarget::Node(n) => n,
        }
    }
}

/// One planned failure (and, unless permanent, its recovery).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedFault {
    /// When the target goes down.
    pub at: SimTime,
    /// What goes down.
    pub target: FaultTarget,
    /// When it comes back, or `None` for a permanent failure.
    pub recover_at: Option<SimTime>,
}

impl Default for PlannedFault {
    fn default() -> Self {
        PlannedFault {
            at: SimTime::ZERO,
            target: FaultTarget::Node(NodeAddr::default()),
            recover_at: None,
        }
    }
}

impl PlannedFault {
    /// Snapshot field list (address checks need the platform).
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.time(&mut self.at)?;
        let blanks = [
            FaultTarget::Proc(ProcAddr::default()),
            FaultTarget::Node(NodeAddr::default()),
        ];
        c.variant(&mut self.target, &blanks, "fault-target")?;
        match &mut self.target {
            FaultTarget::Proc(p) => p.snap(c)?,
            FaultTarget::Node(n) => n.snap(c)?,
        }
        c.opt(&mut self.recover_at, |t, c| c.time(t))?;
        let at = self.at;
        c.check(self.recover_at.is_none_or(|r| r > at), || {
            "fault recovery does not come after the failure".into()
        })
    }
}

/// A complete, time-sorted failure/recovery timeline for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Planned faults in firing order.
    pub events: Vec<PlannedFault>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Wraps a scripted event list, sorting it by failure time (ties keep
    /// the given order).
    ///
    /// # Panics
    /// Panics if any event recovers before (or exactly when) it fails.
    pub fn from_events(mut events: Vec<PlannedFault>) -> Self {
        for e in &events {
            if let Some(r) = e.recover_at {
                assert!(r > e.at, "recovery must come strictly after failure");
            }
        }
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Generates the stochastic plan for `platform` under `spec`.
    ///
    /// Each processor and each node runs its own alternating
    /// failure/repair renewal process seeded from a stream derived per
    /// source, so the plan is independent of iteration order and identical
    /// across runs with the same inputs.
    pub fn generate(spec: &FaultSpec, platform: &Platform, rng: &RngStream) -> Self {
        spec.validate();
        if !spec.is_active() {
            return FaultPlan::empty();
        }
        let mut events = Vec::new();
        let mut source_idx = 0u64;
        for site in &platform.sites {
            for node in &site.nodes {
                if spec.node_mtbf > 0.0 {
                    let mut r = rng.derive_indexed("fault.node", source_idx);
                    Self::renewal(
                        &mut events,
                        FaultTarget::Node(node.addr),
                        spec.node_mtbf,
                        spec.node_mttr,
                        spec,
                        &mut r,
                    );
                }
                if spec.proc_mtbf > 0.0 {
                    for p in 0..node.num_processors() {
                        let mut r = rng.derive_indexed("fault.proc", source_idx << 16 | p as u64);
                        Self::renewal(
                            &mut events,
                            FaultTarget::Proc(ProcAddr {
                                node: node.addr,
                                proc: p as u32,
                            }),
                            spec.proc_mtbf,
                            spec.proc_mttr,
                            spec,
                            &mut r,
                        );
                    }
                }
                source_idx += 1;
            }
        }
        Self::from_events(events)
    }

    /// Draws one source's alternating up/down renewal process.
    fn renewal(
        events: &mut Vec<PlannedFault>,
        target: FaultTarget,
        mtbf: f64,
        mttr: f64,
        spec: &FaultSpec,
        rng: &mut RngStream,
    ) {
        let mut t = 0.0;
        loop {
            t += rng.exponential(mtbf);
            if t > spec.horizon {
                break;
            }
            if rng.chance(spec.permanent_fraction) {
                events.push(PlannedFault {
                    at: SimTime::new(t),
                    target,
                    recover_at: None,
                });
                break;
            }
            let repair = rng.exponential(mttr).max(1e-6);
            events.push(PlannedFault {
                at: SimTime::new(t),
                target,
                recover_at: Some(SimTime::new(t + repair)),
            });
            t += repair;
        }
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Planned faults that hit (a processor of) `site` — handy when
    /// reasoning about per-site availability in tests.
    pub fn events_for_site(&self, site: SiteId) -> impl Iterator<Item = &PlannedFault> {
        self.events
            .iter()
            .filter(move |e| e.target.node().site == site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PlatformSpec;

    fn platform() -> Platform {
        Platform::generate(PlatformSpec::small(2, 3, 4), &RngStream::root(1))
    }

    fn active_spec() -> FaultSpec {
        FaultSpec {
            enabled: true,
            proc_mtbf: 300.0,
            proc_mttr: 40.0,
            node_mtbf: 800.0,
            node_mttr: 60.0,
            permanent_fraction: 0.1,
            horizon: 1500.0,
            ..FaultSpec::default()
        }
    }

    #[test]
    fn disabled_spec_generates_nothing() {
        let p = platform();
        let plan = FaultPlan::generate(&FaultSpec::default(), &p, &RngStream::root(2));
        assert!(plan.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let p = platform();
        let spec = active_spec();
        let a = FaultPlan::generate(&spec, &p, &RngStream::root(3));
        let b = FaultPlan::generate(&spec, &p, &RngStream::root(3));
        assert_eq!(a, b);
        assert!(!a.is_empty(), "active spec over a long horizon must fire");
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let p = platform();
        let spec = active_spec();
        let plan = FaultPlan::generate(&spec, &p, &RngStream::root(4));
        for w in plan.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in &plan.events {
            assert!(e.at.as_f64() > 0.0 && e.at.as_f64() <= spec.horizon);
            if let Some(r) = e.recover_at {
                assert!(r > e.at);
            }
        }
    }

    #[test]
    fn permanent_fraction_one_kills_each_source_once() {
        let p = platform();
        let spec = FaultSpec {
            enabled: true,
            proc_mtbf: 100.0,
            permanent_fraction: 1.0,
            horizon: 1.0e6,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(&spec, &p, &RngStream::root(5));
        // Every processor dies exactly once, permanently.
        assert_eq!(plan.len(), p.num_processors());
        assert!(plan.events.iter().all(|e| e.recover_at.is_none()));
    }

    #[test]
    fn scripted_plan_sorts_by_time() {
        let n = NodeAddr::new(0, 0);
        let plan = FaultPlan::from_events(vec![
            PlannedFault {
                at: SimTime::new(20.0),
                target: FaultTarget::Node(n),
                recover_at: None,
            },
            PlannedFault {
                at: SimTime::new(5.0),
                target: FaultTarget::Proc(ProcAddr { node: n, proc: 1 }),
                recover_at: Some(SimTime::new(9.0)),
            },
        ]);
        assert_eq!(plan.events[0].at.as_f64(), 5.0);
        assert_eq!(plan.events_for_site(SiteId(0)).count(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly after")]
    fn recovery_before_failure_rejected() {
        let n = NodeAddr::new(0, 0);
        let _ = FaultPlan::from_events(vec![PlannedFault {
            at: SimTime::new(5.0),
            target: FaultTarget::Node(n),
            recover_at: Some(SimTime::new(5.0)),
        }]);
    }

    #[test]
    #[should_panic(expected = "permanent fraction")]
    fn bad_permanent_fraction_rejected() {
        FaultSpec {
            permanent_fraction: 1.5,
            ..FaultSpec::default()
        }
        .validate();
    }
}
