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
use platform::checkpoint::{resume_from_payload, snapshot_meta};
use platform::{CheckpointConfig, CheckpointedRun, ExecEngine, RunResult};
use snapshot::{Codec, SnapReader, SnapWriter, SnapshotError};
use std::path::Path;

/// Version byte of the experiments meta blob (v2 added the Adaptive-RL
/// kernel-precision tag).
const META_VERSION: u8 = 2;

/// The meta blob's field list: version, site count, then the scheduler
/// kind's tag and its seeded configuration.
fn meta<C: Codec>(
    c: &mut C,
    kind: &mut SchedulerKind,
    num_sites: &mut usize,
) -> Result<(), SnapshotError> {
    let mut version = META_VERSION;
    c.u8(&mut version)?;
    c.check(version == META_VERSION, || {
        format!("unknown experiments meta version {version} (expected {META_VERSION})")
    })?;
    c.usize(num_sites)?;
    c.variant(kind, &SchedulerKind::all_six(), "scheduler")?;
    match kind {
        SchedulerKind::Adaptive(cfg) => cfg.snap(c),
        SchedulerKind::Online(cfg) => cfg.snap(c),
        SchedulerKind::QPlus(cfg) => cfg.snap(c),
        SchedulerKind::Prediction(cfg) => cfg.snap(c),
        SchedulerKind::RoundRobin | SchedulerKind::GreedyEdf => Ok(()),
    }
}

/// Encodes the scheduler kind, its (already seeded) configuration and the
/// site count into the snapshot meta blob.
pub fn encode_scheduler_meta(kind: &SchedulerKind, num_sites: usize) -> Vec<u8> {
    let (mut kind, mut num_sites) = (kind.clone(), num_sites);
    let mut w = SnapWriter::new();
    w.encode(|w| meta(w, &mut kind, &mut num_sites));
    w.into_bytes()
}

/// Reads the scheduler (and the meta blob, written by
/// [`encode_scheduler_meta`]) a snapshot payload was taken with, checking
/// the sizes it would allocate against the payload before anything is
/// built: the site count must be the platform's, and Adaptive RL's hidden
/// width must fit the value net's bytes (8 per parameter, one or more
/// parameters per hidden unit).
///
/// # Errors
/// Typed [`SnapshotError`] on a corrupt meta blob or one the payload
/// contradicts.
pub fn scheduler_of(payload: &[u8]) -> Result<(SchedulerKind, usize, Vec<u8>), SnapshotError> {
    let (bytes, platform_sites) = snapshot_meta(payload)?;
    let (mut kind, mut num_sites) = (SchedulerKind::RoundRobin, 0);
    let mut r = SnapReader::new(&bytes);
    meta(&mut r, &mut kind, &mut num_sites)?;
    let (n, len) = (r.remaining(), payload.len());
    r.check(n == 0, || {
        format!("{n} trailing bytes after scheduler meta")
    })?;
    r.check(num_sites == platform_sites, || {
        format!("meta blob names {num_sites} sites, the snapshot platform has {platform_sites}")
    })?;
    let hidden = match &kind {
        SchedulerKind::Adaptive(c) => c.hidden,
        _ => 0,
    };
    r.check(hidden <= len / 8, || {
        format!("hidden width {hidden} exceeds what a {len}-byte payload can hold")
    })?;
    Ok((kind, num_sites, bytes))
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
    let (kind, num_sites, _) = scheduler_of(&payload)?;
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

    /// The six policies plus Adaptive RL on the f32 kernels. f32 bits
    /// depend on the host's SIMD dispatch, so every check below compares
    /// runs made in one process and pins no f32 value.
    fn six_and_f32() -> Vec<SchedulerKind> {
        let mut kinds = SchedulerKind::all_six();
        kinds.push(SchedulerKind::Adaptive(adaptive_rl::AdaptiveRlConfig {
            precision: adaptive_rl::KernelPrecision::F32,
            ..Default::default()
        }));
        kinds
    }

    fn decode_scheduler_meta(bytes: &[u8]) -> Result<(SchedulerKind, usize), SnapshotError> {
        let (mut kind, mut num_sites) = (SchedulerKind::RoundRobin, 0);
        meta(&mut SnapReader::new(bytes), &mut kind, &mut num_sites)?;
        Ok((kind, num_sites))
    }

    #[test]
    fn meta_round_trips_for_every_kind() {
        for kind in six_and_f32() {
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
        for kind in six_and_f32() {
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
        for kind in six_and_f32() {
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
            let (back, back_sites, back_meta) = scheduler_of(&payload).expect("meta");
            assert_eq!(back_meta, meta);
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
