//! Checkpoint/resume glue between scenarios and the platform layer.
//!
//! The platform's snapshot payload opens with an opaque `meta` blob. This
//! module defines what the experiment harness stores there: the scheduler
//! kind tag, the *seeded* policy configuration (after the per-replication
//! seed mask), and the site count — everything `resume_run` needs to
//! rebuild the identical policy object from the snapshot file alone,
//! without re-deriving the scenario.

use crate::config::Scenario;
use crate::runner::{Monitor, SchedulerKind};
use adaptive_rl::{AdaptiveRlConfig, KernelPrecision, PolicyKind};
use baselines::{OnlineRlConfig, PredictionConfig, QPlusConfig};
use platform::checkpoint::{resume_from_payload, snapshot_meta};
use platform::{CheckpointConfig, CheckpointedRun, ExecEngine, RunResult};
use snapshot::{corrupt, SnapReader, SnapWriter, SnapshotError};
use std::path::Path;

/// Version byte of the experiments meta blob (v2 added the Adaptive-RL
/// kernel-precision tag).
const META_VERSION: u8 = 2;

/// Encodes the scheduler kind, its (already seeded) configuration and the
/// site count into the snapshot meta blob.
pub fn encode_scheduler_meta(kind: &SchedulerKind, num_sites: usize) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u8(META_VERSION);
    w.usize(num_sites);
    match kind {
        SchedulerKind::Adaptive(c) => {
            w.u8(0);
            w.f64(c.epsilon0);
            w.f64(c.epsilon_decay);
            w.f64(c.epsilon_floor);
            w.f64(c.lr);
            w.f64(c.momentum);
            w.usize(c.hidden);
            w.usize(c.memory_depth);
            w.f64(c.error_floor);
            w.f64(c.flush_age);
            w.bool(c.use_shared_memory);
            w.bool(c.use_value_net);
            w.bool(c.use_error_feedback);
            w.bool(c.use_reward_feedback);
            w.u64(c.seed);
            w.u8(match c.force_policy {
                None => 0,
                Some(PolicyKind::Mixed) => 1,
                Some(PolicyKind::Identical) => 2,
            });
            w.bool(c.power_gating);
            w.f64(c.availability_penalty);
            w.u8(c.precision.tag());
        }
        SchedulerKind::Online(c) => {
            w.u8(1);
            w.f64(c.alpha);
            w.f64(c.gamma);
            w.f64(c.epsilon0);
            w.f64(c.epsilon_decay);
            w.f64(c.epsilon_floor);
            w.f64(c.powercap0);
            w.f64(c.cap_step);
            w.f64(c.cap_range.0);
            w.f64(c.cap_range.1);
            w.u64(c.seed);
        }
        SchedulerKind::QPlus(c) => {
            w.u8(2);
            w.f64(c.alpha);
            w.f64(c.gamma);
            w.f64(c.epsilon0);
            w.f64(c.epsilon_decay);
            w.f64(c.epsilon_floor);
            w.usize(c.spread);
            w.f64(c.spread_decay);
            w.f64(c.delay_weight);
            w.u64(c.seed);
        }
        SchedulerKind::Prediction(c) => {
            w.u8(3);
            w.f64(c.lr);
            w.f64(c.margin);
            w.u64(c.seed);
        }
        SchedulerKind::RoundRobin => w.u8(4),
        SchedulerKind::GreedyEdf => w.u8(5),
    }
    w.into_bytes()
}

/// Decodes a meta blob written by [`encode_scheduler_meta`].
///
/// # Errors
/// Typed [`SnapshotError`] on truncated bytes, an unknown version or an
/// unknown scheduler tag.
pub fn decode_scheduler_meta(meta: &[u8]) -> Result<(SchedulerKind, usize), SnapshotError> {
    let mut r = SnapReader::new(meta);
    let version = r.u8()?;
    if version != META_VERSION {
        return Err(corrupt(format!(
            "unknown experiments meta version {version} (expected {META_VERSION})"
        )));
    }
    let num_sites = r.usize()?;
    let tag = r.u8()?;
    let kind = match tag {
        0 => SchedulerKind::Adaptive(AdaptiveRlConfig {
            epsilon0: r.f64_finite()?,
            epsilon_decay: r.f64_finite()?,
            epsilon_floor: r.f64_finite()?,
            lr: r.f64_finite()?,
            momentum: r.f64_finite()?,
            hidden: r.usize()?,
            memory_depth: r.usize()?,
            error_floor: r.f64_finite()?,
            flush_age: r.f64_finite()?,
            use_shared_memory: r.bool()?,
            use_value_net: r.bool()?,
            use_error_feedback: r.bool()?,
            use_reward_feedback: r.bool()?,
            seed: r.u64()?,
            force_policy: match r.u8()? {
                0 => None,
                1 => Some(PolicyKind::Mixed),
                2 => Some(PolicyKind::Identical),
                t => return Err(corrupt(format!("unknown force-policy tag {t}"))),
            },
            power_gating: r.bool()?,
            availability_penalty: r.f64_finite()?,
            precision: {
                let tag = r.u8()?;
                let p = KernelPrecision::from_tag(tag)
                    .ok_or_else(|| corrupt(format!("unknown kernel-precision tag {tag}")))?;
                if !p.available() {
                    return Err(corrupt(format!(
                        "snapshot needs {} kernels not compiled into this build \
                         (rebuild with `--features f32-kernels`)",
                        p.label()
                    )));
                }
                p
            },
        }),
        1 => SchedulerKind::Online(OnlineRlConfig {
            alpha: r.f64_finite()?,
            gamma: r.f64_finite()?,
            epsilon0: r.f64_finite()?,
            epsilon_decay: r.f64_finite()?,
            epsilon_floor: r.f64_finite()?,
            powercap0: r.f64_finite()?,
            cap_step: r.f64_finite()?,
            cap_range: (r.f64_finite()?, r.f64_finite()?),
            seed: r.u64()?,
        }),
        2 => SchedulerKind::QPlus(QPlusConfig {
            alpha: r.f64_finite()?,
            gamma: r.f64_finite()?,
            epsilon0: r.f64_finite()?,
            epsilon_decay: r.f64_finite()?,
            epsilon_floor: r.f64_finite()?,
            spread: r.usize()?,
            spread_decay: r.f64_finite()?,
            delay_weight: r.f64_finite()?,
            seed: r.u64()?,
        }),
        3 => SchedulerKind::Prediction(PredictionConfig {
            lr: r.f64_finite()?,
            margin: r.f64_finite()?,
            seed: r.u64()?,
        }),
        4 => SchedulerKind::RoundRobin,
        5 => SchedulerKind::GreedyEdf,
        t => return Err(corrupt(format!("unknown scheduler tag {t}"))),
    };
    if !r.is_exhausted() {
        return Err(corrupt(format!(
            "{} trailing bytes after scheduler meta",
            r.remaining()
        )));
    }
    Ok((kind, num_sites))
}

/// [`crate::runner::run_scenario`] with periodic checkpointing.
///
/// Snapshots land in `ck.dir` with the harness meta blob attached
/// (overwriting whatever `ck.meta` held), so any of them can later be fed
/// to [`resume_run`]. Checkpointing is strictly observing: `result` is
/// bit-identical to the uncheckpointed run.
pub fn run_scenario_checkpointed(
    scenario: &Scenario,
    kind: &SchedulerKind,
    ck: CheckpointConfig,
) -> CheckpointedRun {
    let (platform, tasks) = scenario.build();
    let sites = platform.num_sites();
    let engine = ExecEngine::new(scenario.exec);
    let seeded = kind.with_seed(scenario.seed);
    let ck = ck.with_meta(encode_scheduler_meta(&seeded, sites));
    let mut sched = seeded.build(sites, &Monitor::default());
    engine.run_with_checkpoints(platform, tasks, &mut *sched, &ck)
}

/// Resumes a run from a snapshot file written by
/// [`run_scenario_checkpointed`] (or the `--checkpoint-every` CLI flags),
/// reconstructing the scheduler recorded in the snapshot's meta blob and
/// driving the simulation to completion.
///
/// # Errors
/// Typed [`SnapshotError`] on missing/corrupt files or a meta blob this
/// build does not understand; never panics on bad input.
pub fn resume_run(snapshot: &Path) -> Result<RunResult, SnapshotError> {
    let payload = snapshot::read_file(snapshot)?;
    let (kind, num_sites) = decode_scheduler_meta(&snapshot_meta(&payload)?)?;
    let mut sched = kind.build(num_sites, &Monitor::default());
    resume_from_payload(&payload, &mut *sched)
}

/// Lists the snapshot files of a checkpoint directory, oldest first
/// (lexicographic order matches event order thanks to the zero-padded
/// event counter in the file name).
///
/// # Errors
/// [`SnapshotError::Io`] when the directory cannot be read.
pub fn list_snapshots(dir: &Path) -> Result<Vec<std::path::PathBuf>, SnapshotError> {
    let mut snaps: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(SnapshotError::Io)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snaps.sort();
    Ok(snaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{replay_divergence, ScheduleSession};
    use simcore::time::SimTime;
    use std::sync::atomic::{AtomicU64, Ordering};
    use workload::submit::SubmitTask;
    use workload::{Priority, SiteId};

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("arl-exp-ckpt-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn meta_round_trips_for_every_kind() {
        for kind in SchedulerKind::all_six() {
            let meta = encode_scheduler_meta(&kind, 5);
            let (back, sites) = decode_scheduler_meta(&meta).expect("decode");
            assert_eq!(back, kind);
            assert_eq!(sites, 5);
        }
    }

    #[test]
    fn corrupt_meta_is_a_typed_error() {
        let meta = encode_scheduler_meta(&SchedulerKind::RoundRobin, 2);
        for cut in 0..meta.len() {
            assert!(
                decode_scheduler_meta(&meta[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut bad = meta.clone();
        bad[0] = 99; // unknown version
        assert!(decode_scheduler_meta(&bad).is_err());
    }

    #[test]
    fn resume_matches_golden_for_every_scheduler() {
        // The platform layer proves bit-exact resume for its own test
        // scheduler; this covers the six real policies end-to-end through
        // the meta blob and `resume_run`.
        let sc = Scenario::small(41, 90, 0.6);
        for kind in SchedulerKind::all_six() {
            let golden = crate::runner::run_scenario(&sc, &kind);
            let dir = scratch_dir("six");
            let run = run_scenario_checkpointed(&sc, &kind, CheckpointConfig::new(150, &dir));
            assert!(run.write_error.is_none(), "{:?}", run.write_error);
            assert!(
                replay_divergence(&golden, &run.result).is_none(),
                "{}: checkpointing must not perturb the run",
                kind.label()
            );
            let snaps = list_snapshots(&dir).expect("list");
            assert!(!snaps.is_empty(), "{}: no snapshots written", kind.label());
            for snap in &snaps {
                let resumed = resume_run(snap).expect("resume");
                assert!(
                    replay_divergence(&golden, &resumed).is_none(),
                    "{}: resume from {} diverged",
                    kind.label(),
                    snap.display()
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn session_checkpoint_resume_round_trips_for_every_kind() {
        // The serving path: a policy from `SchedulerKind::build` admits
        // submissions into a live session, which checkpoints; a fresh
        // policy built from the snapshot's meta resumes it, and its own
        // checkpoint is the same bytes.
        let sc = Scenario::small(43, 0, 0.6);
        for kind in SchedulerKind::all_six() {
            let kind = kind.with_seed(sc.seed);
            let platform = sc.build_platform();
            let sites = platform.num_sites();
            let meta = encode_scheduler_meta(&kind, sites);
            let exec = ExecEngine::new(sc.exec);
            let mut sched = kind.build(sites, &Monitor::default());
            let mut session = ScheduleSession::new(&exec, platform, &mut *sched);
            let mut events = Vec::new();
            for i in 0..60u32 {
                let task = SubmitTask {
                    size_mi: 600.0 + 113.0 * f64::from(i % 50),
                    deadline: 30.0 + f64::from(i % 7) * 10.0,
                    priority: [Priority::Low, Priority::Medium, Priority::High][i as usize % 3],
                    site: SiteId(i % sites as u32),
                };
                session.submit(&[task]).expect("admitted");
                session.advance_to(SimTime::new(f64::from(i) * 1.5), &mut events);
            }
            assert!(
                session.outstanding() > 0,
                "{}: checkpoint mid-stream",
                kind.label()
            );
            let payload = session.checkpoint(&meta);
            let (back, back_sites) =
                decode_scheduler_meta(&snapshot_meta(&payload).expect("meta")).expect("decode");
            assert_eq!(back, kind);
            let mut fresh = back.build(back_sites, &Monitor::default());
            let mut resumed = ScheduleSession::resume(&payload, &mut *fresh).expect("resume");
            assert!(
                resumed.checkpoint(&meta) == payload,
                "{}: the resumed session checkpoints to different bytes",
                kind.label()
            );
            let end = SimTime::new(1.0e6);
            session.advance_to(end, &mut events);
            resumed.advance_to(end, &mut events);
            let (a, b) = (session.finish(), resumed.finish());
            assert_eq!(a.incomplete, 0, "{}: tasks left behind", kind.label());
            if let Some(d) = replay_divergence(&a, &b) {
                panic!("{}: resumed session diverged: {d}", kind.label());
            }
        }
    }
}
