//! Heterogeneous PDCS platform model and execution engine.
//!
//! Implements §III.B (system model) and §III.C (energy model) of the paper,
//! plus the event-driven execution engine that every scheduler — the
//! Adaptive-RL contribution and all baselines — plugs into through the
//! [`Scheduler`] trait.
//!
//! Layout:
//!
//! * [`ids`] — node / processor addressing,
//! * [`power`] — power-state parameters and the Eq. (5) power model,
//! * [`processor`] — a single processor with busy/idle/sleep accounting,
//! * [`group`] — task groups (the unit of queueing and the TG technique's
//!   output) and the Eq. (10) processing weight,
//! * [`queue`] — the bounded per-node group queue,
//! * [`node`] — compute nodes (Eq. 2 processing capacity, throttling),
//! * [`topology`] — platform specification and generation,
//! * [`heterogeneity`] — controlled service-coefficient-of-variation speed
//!   generation (Exp. 3),
//! * [`view`] — read-only platform snapshots handed to schedulers,
//! * [`scheduler`] — the scheduler trait, commands, feedback signals,
//! * [`fault`] — deterministic fault-injection plans (processor / node
//!   failures with recovery),
//! * [`monitor`] — the live `arls_*` metric family and sampler config,
//! * `probe` — the one observer interface the driver reports through
//!   (oracle, recorder, live metrics/sampler, profiler),
//! * [`oracle`] — the correctness oracle: conservation invariants, shadow
//!   energy accounting, post-hoc result audits and replay-determinism
//!   checks,
//! * [`engine`] — the simulation driver producing a [`RunResult`],
//! * [`shard`] — the sharded parallel engine: per-site shards advanced by
//!   worker threads between deterministic epoch barriers.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod fault;
pub mod group;
pub mod heterogeneity;
pub mod ids;
pub mod monitor;
pub mod node;
pub mod oracle;
pub mod power;
mod probe;
pub mod processor;
pub mod queue;
pub mod scheduler;
pub mod session;
pub mod shard;
pub mod topology;
pub mod view;

pub use checkpoint::{CheckpointConfig, CheckpointedRun};
pub use engine::{ExecConfig, ExecEngine, RunResult, TaskOutcome, TaskRecord};
pub use fault::{FaultPlan, FaultSpec, FaultTarget, PlannedFault};
pub use group::{GroupId, GroupPolicy, TaskGroup};
pub use ids::{NodeAddr, ProcAddr};
pub use monitor::{LiveMetrics, SamplerConfig};
pub use node::ComputeNode;
pub use oracle::{audit_result, replay_divergence, AuditReport, Oracle, Violation};
pub use power::PowerParams;
pub use processor::{ProcState, Processor};
pub use scheduler::{AssignmentFeedback, Command, GroupFeedback, Scheduler, SyncRecord};
pub use session::{ScheduleSession, SessionEvent};
pub use shard::{auto_shards, run_sharded};
pub use topology::{Platform, PlatformSpec, SiteStats};
pub use view::{NodeView, PlatformView};
