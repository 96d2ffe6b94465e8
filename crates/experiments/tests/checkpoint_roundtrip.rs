//! Property-based checkpoint round-trip: for random scenarios, scheduler
//! kinds and checkpoint intervals, resuming from a snapshot taken at a
//! random event index must reproduce the uninterrupted golden run
//! bit-exactly, and mangled snapshot files must fail with typed errors —
//! never panics, never silent partial restores.

use adaptive_rl::AdaptiveRlConfig;
use experiments::checkpoint::{list_snapshots, resume_run, run_scenario_checkpointed};
use experiments::{runner, Scenario, SchedulerKind};
use platform::{replay_divergence, CheckpointConfig, FaultSpec};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn scratch_dir() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("arl-ckpt-prop-{}-{n}", std::process::id()))
}

fn kind_strategy() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Adaptive(AdaptiveRlConfig::default())),
        Just(SchedulerKind::Online(Default::default())),
        Just(SchedulerKind::QPlus(Default::default())),
        Just(SchedulerKind::Prediction(Default::default())),
        Just(SchedulerKind::RoundRobin),
        Just(SchedulerKind::GreedyEdf),
    ]
}

fn scenario(seed: u64, tasks: usize, offered: f64, faults: bool) -> Scenario {
    let mut sc = Scenario::small(seed, tasks, offered);
    if faults {
        sc.exec.faults = FaultSpec {
            enabled: true,
            proc_mtbf: 300.0,
            proc_mttr: 25.0,
            node_mtbf: 800.0,
            node_mttr: 60.0,
            permanent_fraction: 0.1,
            ..FaultSpec::default()
        };
    }
    sc
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (any::<u64>(), 30usize..90, 0.3f64..1.0, any::<bool>())
        .prop_map(|(seed, tasks, offered, faults)| scenario(seed, tasks, offered, faults))
}

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Mid-run snapshot payloads of twelve checkpointed runs (six kinds x
/// faults off/on), shared by every case of the mutation property.
fn mutation_corpus() -> &'static [Vec<Vec<u8>>] {
    static CORPUS: OnceLock<Vec<Vec<Vec<u8>>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut runs = Vec::new();
        for kind in SchedulerKind::all_six() {
            for faults in [false, true] {
                let dir = scratch_dir();
                let sc = scenario(1, 120, 0.9, faults);
                let run = run_scenario_checkpointed(&sc, &kind, CheckpointConfig::new(37, &dir));
                assert!(run.write_error.is_none(), "{:?}", run.write_error);
                let snaps = list_snapshots(&dir).expect("list");
                runs.push(
                    snaps
                        .iter()
                        .map(|s| snapshot::read_file(s).expect("snapshot reads"))
                        .collect(),
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        runs
    })
}

/// The little-endian u64 at `at`.
fn u64_at(p: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(p[at..at + 8].try_into().expect("8 bytes"))
}

/// Payload offsets of the size fields that drive allocations before any
/// decode check could run, of sequence lengths whose elements are built as
/// they decode, and of the first byte after the platform spec. Layout: the
/// meta blob and the scheduler name, each length-prefixed, the engine
/// config (87 bytes), then the spec (101 bytes, 109 with a heterogeneity
/// CV; the queue capacity sits right after the CV); then the sites.
struct Layout {
    meta_sites: usize,
    adaptive_sizes: Option<[usize; 2]>,
    queue_capacity: usize,
    after_spec: usize,
    seq_lens: Vec<usize>,
}

fn layout(p: &[u8]) -> Layout {
    let meta_len = u64_at(p, 0) as usize;
    let name_at = 8 + meta_len;
    let cfg_at = name_at + 8 + u64_at(p, name_at) as usize;
    let cv_at = cfg_at + 87 + 36;
    let queue_capacity = cv_at + if p[cv_at] == 1 { 9 } else { 1 };
    let after_spec = queue_capacity + 8 + 56;
    // Experiments meta: version byte, site count, kind tag, then for
    // Adaptive RL (tag 0) five floats, `hidden` and `memory_depth`.
    let adaptive = p[8 + 9] == 0 && meta_len > 66;
    // Site 0's node count follows the site count and site 0's id. Online
    // RL's controller count ends its node index: on the two-site,
    // three-node platform the index reads [2 bases: 0, 3] then 6
    // controllers.
    let mut seq_lens = vec![after_spec + 8 + 4];
    let index: Vec<u8> = [2u64, 0, 3, 6]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let at = (0..p.len() - index.len())
        .rev()
        .find(|&i| p[i..].starts_with(&index));
    seq_lens.extend(at.map(|i| i + 24));
    Layout {
        meta_sites: 8 + 1,
        adaptive_sizes: adaptive.then_some([8 + 50, 8 + 58]),
        queue_capacity,
        after_spec,
        seq_lens,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 600,
        .. ProptestConfig::default()
    })]

    /// A snapshot whose payload was altered in one place but whose CRC
    /// was re-sealed must resume or fail with a typed error — never panic,
    /// never abort on an allocation. Mutations: a random byte, one flipped
    /// bit, or a 4-byte window set to a small value, anywhere after the
    /// platform spec; one allocation-driving size field (meta site count,
    /// Adaptive RL's `hidden` and `memory_depth`, the queue capacity) set
    /// near 2^40; or a sequence length (site 0's nodes, Online RL's
    /// controllers) set to the number of bytes left.
    fn mutated_payloads_fail_typed_never_panic(
        run in 0usize..12,
        pick in any::<u64>(),
        how in 0u8..5,
        at in any::<u64>(),
        value in any::<u64>(),
    ) {
        let snaps = &mutation_corpus()[run];
        let mut p = snaps[pick as usize % snaps.len()].clone();
        let lay = layout(&p);
        let span = (p.len() - lay.after_spec) as u64;
        let i = lay.after_spec + (at % span) as usize;
        match how {
            0 => p[i] = value as u8,
            1 => p[i] ^= 1 << (value % 8),
            2 => {
                let i = i.min(p.len() - 4);
                p[i..i + 4].copy_from_slice(&(value as u32 % 256).to_le_bytes());
            }
            3 => {
                let mut fields = vec![lay.meta_sites, lay.queue_capacity];
                fields.extend(lay.adaptive_sizes.into_iter().flatten());
                let f = fields[value as usize % fields.len()];
                p[f..f + 8].copy_from_slice(&((1u64 << 40) + at % 1000).to_le_bytes());
            }
            _ => {
                let f = lay.seq_lens[value as usize % lay.seq_lens.len()];
                let left = (p.len() - f - 8) as u64;
                p[f..f + 8].copy_from_slice(&left.to_le_bytes());
            }
        }
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mutated.snap");
        std::fs::write(&path, snapshot::encode_container(&p)).unwrap();
        // Ok and a typed Err both pass; a panic or an abort fails.
        let _ = resume_run(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The ARLSNAP format is pinned across code versions: every snapshot file
/// of twelve checkpointed runs (six kinds x faults off/on), hashed in
/// order, must match digests recorded before the snapshot codec was
/// rewritten. A change here breaks every snapshot already on disk.
#[test]
fn snapshot_bytes_are_pinned() {
    const PINNED: [(&str, bool, u64); 12] = [
        ("Adaptive RL", false, 0x7E8C_788D_D672_25D8),
        ("Adaptive RL", true, 0x8A72_2639_CE5E_35A5),
        ("Online RL", false, 0xFDDB_37E9_241A_E0E8),
        ("Online RL", true, 0xA427_3B20_A1F2_7961),
        ("Q+ learning", false, 0xA9DC_D96C_7C73_F28D),
        ("Q+ learning", true, 0x5FA5_5F16_55A6_C153),
        ("Prediction-based learning", false, 0x6871_F35C_E395_6F57),
        ("Prediction-based learning", true, 0xDFF6_4B76_59E6_CDF6),
        ("Round-robin", false, 0x755E_1FE8_F6C8_0C37),
        ("Round-robin", true, 0x330B_25B9_1B1B_EE1C),
        ("Greedy EDF", false, 0x4B69_6C5B_E9D1_C727),
        ("Greedy EDF", true, 0x010B_E2C3_EC0E_7BA0),
    ];
    let mut got = Vec::new();
    for kind in SchedulerKind::all_six() {
        for faults in [false, true] {
            let dir = scratch_dir();
            let sc = scenario(1, 120, 0.9, faults);
            let run = run_scenario_checkpointed(&sc, &kind, CheckpointConfig::new(37, &dir));
            assert!(run.write_error.is_none(), "{:?}", run.write_error);
            let snaps = list_snapshots(&dir).expect("list");
            assert!(!snaps.is_empty(), "{}: no snapshots", kind.label());
            let digest = snaps.iter().fold(0xCBF2_9CE4_8422_2325, |h, snap| {
                fnv1a(h, &std::fs::read(snap).expect("read snapshot"))
            });
            got.push((kind.label(), faults, digest));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert_eq!(got, PINNED, "ARLSNAP bytes changed");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn resume_at_random_event_index_is_identity(
        sc in scenario_strategy(),
        kind in kind_strategy(),
        every in 25u64..200,
        pick in any::<u64>(),
    ) {
        let golden = runner::run_scenario(&sc, &kind);
        let dir = scratch_dir();
        let run = run_scenario_checkpointed(&sc, &kind, CheckpointConfig::new(every, &dir));
        prop_assert!(run.write_error.is_none(), "write error: {:?}", run.write_error);
        prop_assert!(
            replay_divergence(&golden, &run.result).is_none(),
            "checkpointing perturbed the run"
        );
        let snaps = list_snapshots(&dir).expect("list");
        // Short run + long interval can legitimately produce no snapshot;
        // the property is about the ones that exist.
        if !snaps.is_empty() {
            let snap = &snaps[pick as usize % snaps.len()];
            let resumed = resume_run(snap).expect("resume");
            prop_assert!(
                replay_divergence(&golden, &resumed).is_none(),
                "resume from {} diverged", snap.display()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mangled_snapshots_fail_typed_never_panic(
        sc in scenario_strategy(),
        kind in kind_strategy(),
        cut_frac in 0.0f64..1.0,
        pos in any::<u64>(),
        mask in any::<u8>(),
    ) {
        let dir = scratch_dir();
        let run = run_scenario_checkpointed(&sc, &kind, CheckpointConfig::new(40, &dir));
        prop_assert!(run.write_error.is_none());
        let snaps = list_snapshots(&dir).expect("list");
        if let Some(snap) = snaps.first() {
            let bytes = std::fs::read(snap).expect("read");
            // Truncation at an arbitrary point must yield Err, not panic.
            let cut = (bytes.len() as f64 * cut_frac) as usize;
            let torn = dir.join("torn.snap");
            std::fs::write(&torn, &bytes[..cut.min(bytes.len().saturating_sub(1))]).unwrap();
            prop_assert!(resume_run(&torn).is_err(), "truncated file accepted");
            // A flipped byte must be caught (CRC) — or, for a flip that
            // cancels out (flip_mask 0), still decode to the golden run.
            let mut flipped = bytes.clone();
            let i = pos as usize % flipped.len();
            flipped[i] ^= mask;
            let bad = dir.join("flip.snap");
            std::fs::write(&bad, &flipped).unwrap();
            if mask == 0 {
                prop_assert!(resume_run(&bad).is_ok());
            } else {
                prop_assert!(resume_run(&bad).is_err(), "bit flip at {i} accepted");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
