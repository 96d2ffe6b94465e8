//! Sharded-engine oracle: property-based thread-count invariance plus
//! pinned goldens.
//!
//! The sharded engine's contract is that the worker-thread count is
//! invisible: `run_sharded(sc, kind, n)` must be bit-identical (under
//! [`platform::replay_divergence`]'s field-by-field comparison) to
//! `run_sharded(sc, kind, 1)` for every scheduler, scenario and `n`.
//! The property test samples random small scenarios — with and without
//! fault injection — across all six policies with the per-shard oracle
//! armed; the golden test pins exact values on the same mid-size
//! scenario the sequential goldens use, so drift in the epoch protocol
//! itself (not just a thread race) also fails loudly.
//!
//! To regenerate the goldens after an *intentional* protocol change:
//!
//! ```text
//! cargo test --release -p arl-experiments --test sharded_oracle \
//!     -- --ignored --nocapture regenerate
//! ```

use adaptive_rl::AdaptiveRlConfig;
use baselines::{OnlineRlConfig, PredictionConfig, QPlusConfig};
use experiments::{runner, Scenario, SchedulerKind};
use platform::{replay_divergence, FaultSpec, RunResult, TaskOutcome};
use proptest::prelude::*;

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

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        1u32..5,
        30usize..90,
        0.3f64..1.0,
        any::<bool>(),
    )
        .prop_map(|(seed, sites, tasks, offered, faults)| {
            let mut sc = Scenario::small(seed, tasks, offered);
            sc.platform.num_sites = sites;
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
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    #[test]
    fn any_shard_count_is_bit_identical(
        sc in scenario_strategy(),
        kind in kind_strategy(),
        shards in 2usize..6,
    ) {
        let mut sc = sc;
        // Arm the per-shard oracles and the coordinator's cross-shard
        // conservation check; any violation fails the run here.
        sc.exec.audit = true;
        let one = runner::run_sharded(&sc, &kind, 1);
        let many = runner::run_sharded(&sc, &kind, shards);
        for (tag, r) in [("1 shard", &one), ("n shards", &many)] {
            let report = r.audit.as_ref().expect("audit armed");
            prop_assert!(
                report.is_clean(),
                "{} ({tag}): oracle violations:\n{}",
                kind.label(),
                report.render()
            );
        }
        let divergence = replay_divergence(&one, &many);
        prop_assert!(
            divergence.is_none(),
            "{} diverges between 1 and {shards} shards: {}",
            kind.label(),
            divergence.unwrap_or_default()
        );
    }
}

/// The sequential goldens' mid-size scenario (3 sites × 4–6 nodes × 4–6
/// procs, 250 tasks at 70 % offered load), reused verbatim so the two
/// golden tables are side-by-side comparable.
fn scenario(faults: bool) -> Scenario {
    scenario_at(250, 0.7, faults)
}

/// The sequential goldens' saturating scenario (400 tasks at 130 %
/// offered load on the same platform). At 2 shards Adaptive RL decides
/// at a site with no free queue slot 81 of 522 times without faults and
/// 87 of 528 with.
fn saturating(faults: bool) -> Scenario {
    scenario_at(400, 1.3, faults)
}

fn scenario_at(tasks: usize, offered: f64, faults: bool) -> Scenario {
    let mut sc = Scenario::new(0xD5, tasks, offered);
    sc.platform = platform::PlatformSpec {
        num_sites: 3,
        nodes_per_site: (4, 6),
        procs_per_node: (4, 6),
        ..platform::PlatformSpec::paper(3)
    };
    if faults {
        sc.exec.faults = golden_faults();
    }
    sc
}

/// The fault spec of every faulted golden in this file.
fn golden_faults() -> FaultSpec {
    FaultSpec {
        enabled: true,
        proc_mtbf: 400.0,
        proc_mttr: 50.0,
        node_mtbf: 2000.0,
        node_mttr: 100.0,
        permanent_fraction: 0.1,
        max_retries: 3,
        horizon: 1500.0,
        seed: 0xFA17,
    }
}

fn kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Adaptive(AdaptiveRlConfig::default()),
        SchedulerKind::Online(OnlineRlConfig::default()),
        SchedulerKind::QPlus(QPlusConfig::default()),
        SchedulerKind::Prediction(PredictionConfig::default()),
        SchedulerKind::RoundRobin,
        SchedulerKind::GreedyEdf,
    ]
}

/// One golden row: the exact values a (scheduler, faults) pair must
/// reproduce on the sharded engine (any shard count — the test runs 2).
#[derive(Debug)]
struct Golden {
    label: &'static str,
    faults: bool,
    makespan: f64,
    total_energy: f64,
    met: usize,
    missed: usize,
    failed: usize,
    incomplete: usize,
    groups_dispatched: u64,
    retries: u64,
}

fn observed(r: &RunResult) -> (usize, usize) {
    let met = r
        .records
        .iter()
        .filter(|t| t.outcome == TaskOutcome::Met)
        .count();
    let missed = r
        .records
        .iter()
        .filter(|t| t.outcome == TaskOutcome::Missed)
        .count();
    (met, missed)
}

fn check(kind: &SchedulerKind, faults: bool) {
    check_in(GOLDENS, &scenario(faults), kind, faults);
}

/// Runs `sc` under `kind` on 2 shards and compares it with the row of
/// `table` for `(kind, faults)`.
fn check_in(table: &[Golden], sc: &Scenario, kind: &SchedulerKind, faults: bool) {
    let golden = table
        .iter()
        .find(|g| g.label == kind.label() && g.faults == faults)
        .unwrap_or_else(|| panic!("no golden for {} faults={}", kind.label(), faults));
    let r = runner::run_sharded(sc, kind, 2);
    let (met, missed) = observed(&r);
    let ctx = format!(
        "sharded {} (faults={}, {} tasks)",
        kind.label(),
        faults,
        sc.num_tasks
    );
    assert_eq!(r.makespan, golden.makespan, "{ctx}: makespan drifted");
    assert_eq!(r.total_energy, golden.total_energy, "{ctx}: energy drifted");
    assert_eq!(met, golden.met, "{ctx}: met count drifted");
    assert_eq!(missed, golden.missed, "{ctx}: missed count drifted");
    assert_eq!(r.tasks_failed, golden.failed, "{ctx}: failed count drifted");
    assert_eq!(r.incomplete, golden.incomplete, "{ctx}: incomplete drifted");
    assert_eq!(
        r.groups_dispatched, golden.groups_dispatched,
        "{ctx}: dispatch count drifted"
    );
    assert_eq!(r.retries, golden.retries, "{ctx}: retry count drifted");
}

#[test]
fn sharded_golden_adaptive() {
    let k = SchedulerKind::Adaptive(AdaptiveRlConfig::default());
    check(&k, false);
    check(&k, true);
}

#[test]
fn sharded_golden_adaptive_saturating() {
    let k = SchedulerKind::Adaptive(AdaptiveRlConfig::default());
    check_in(SATURATING, &saturating(false), &k, false);
    check_in(SATURATING, &saturating(true), &k, true);
}

#[test]
fn sharded_golden_online() {
    let k = SchedulerKind::Online(OnlineRlConfig::default());
    check(&k, false);
    check(&k, true);
}

#[test]
fn sharded_golden_qplus() {
    let k = SchedulerKind::QPlus(QPlusConfig::default());
    check(&k, false);
    check(&k, true);
}

#[test]
fn sharded_golden_prediction() {
    let k = SchedulerKind::Prediction(PredictionConfig::default());
    check(&k, false);
    check(&k, true);
}

#[test]
fn sharded_golden_round_robin() {
    check(&SchedulerKind::RoundRobin, false);
    check(&SchedulerKind::RoundRobin, true);
}

#[test]
fn sharded_golden_greedy_edf() {
    check(&SchedulerKind::GreedyEdf, false);
    check(&SchedulerKind::GreedyEdf, true);
}

/// An 8-site saturating run (2,000 tasks at 130 % offered load), where
/// rewards drop often enough that agents replay the shared-learning
/// memory (about 125 consults per run), so the cross-shard memory sync
/// decides actions. The 100-site scaling runs never consult it, and the
/// 3-site goldens above pin only aggregates.
fn eight_sites(seed: u64, faults: bool) -> Scenario {
    let mut sc = Scenario::new(seed, 2000, 1.3);
    sc.platform.num_sites = 8;
    if faults {
        sc.exec.faults = golden_faults();
    }
    sc
}

/// 64-bit FNV-1a, continued from `h`, over little-endian words.
fn fnv1a(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// A digest of every task record field, the energy, the makespan and
/// every cycle sample, all by their bits.
fn digest(r: &RunResult) -> u64 {
    let mut h = fnv1a(
        0xCBF2_9CE4_8422_2325,
        &[r.total_energy.to_bits(), r.makespan.to_bits()],
    );
    for t in &r.records {
        h = fnv1a(
            h,
            &[
                t.task.0,
                u64::from(t.site.0),
                u64::from(t.node.site.0),
                u64::from(t.node.node),
                t.group.0,
                t.priority as u64,
                t.size_mi.to_bits(),
                t.arrival.as_f64().to_bits(),
                t.dispatched.as_f64().to_bits(),
                t.started.as_f64().to_bits(),
                t.finished.as_f64().to_bits(),
                t.deadline.as_f64().to_bits(),
                u64::from(t.met),
                u64::from(t.split),
                t.outcome as u64,
                u64::from(t.attempts),
            ],
        );
    }
    for c in &r.cycles {
        h = fnv1a(h, &[c.cycle, c.time.to_bits(), c.work_mi.to_bits()]);
    }
    h
}

#[test]
fn sharded_digest_adaptive_eight_sites() {
    const PINNED: [(u64, bool, u64); 4] = [
        (1, false, 0xBF01_866D_27FD_270B),
        (1, true, 0x5875_6FDC_D25B_5F0D),
        (2, false, 0x04F9_1F81_B73A_3967),
        (2, true, 0x8A6F_068C_9A28_A4E3),
    ];
    let kind = SchedulerKind::Adaptive(AdaptiveRlConfig::default());
    let got: Vec<(u64, bool, u64)> = PINNED
        .iter()
        .map(|&(seed, faults, _)| {
            let r = runner::run_sharded(&eight_sites(seed, faults), &kind, 2);
            (seed, faults, digest(&r))
        })
        .collect();
    assert_eq!(got, PINNED, "8-site sharded Adaptive RL drifted");
}

/// Prints the golden table in source form. `{:?}` on `f64` prints the
/// shortest representation that round-trips, so pasting the output back
/// preserves bit-identity.
#[test]
#[ignore = "generator, not a test — run with --ignored --nocapture"]
fn regenerate() {
    println!("const GOLDENS: &[Golden] = &[");
    for faults in [false, true] {
        for kind in kinds() {
            print_row(
                &kind,
                faults,
                &runner::run_sharded(&scenario(faults), &kind, 2),
            );
        }
    }
    println!("];");
    println!("const SATURATING: &[Golden] = &[");
    let kind = SchedulerKind::Adaptive(AdaptiveRlConfig::default());
    for faults in [false, true] {
        print_row(
            &kind,
            faults,
            &runner::run_sharded(&saturating(faults), &kind, 2),
        );
    }
    println!("];");
}

fn print_row(kind: &SchedulerKind, faults: bool, r: &RunResult) {
    let (met, missed) = observed(r);
    println!(
        "    Golden {{ label: {:?}, faults: {}, makespan: {:?}, \
         total_energy: {:?}, met: {}, missed: {}, failed: {}, \
         incomplete: {}, groups_dispatched: {}, retries: {} }},",
        kind.label(),
        faults,
        r.makespan,
        r.total_energy,
        met,
        missed,
        r.tasks_failed,
        r.incomplete,
        r.groups_dispatched,
        r.retries
    );
}

const GOLDENS: &[Golden] = &[
    Golden {
        label: "Adaptive RL",
        faults: false,
        makespan: 45.93154639343369,
        total_energy: 43665.01379360621,
        met: 249,
        missed: 1,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 220,
        retries: 0,
    },
    Golden {
        label: "Online RL",
        faults: false,
        makespan: 44.06566909697819,
        total_energy: 42364.13735188562,
        met: 234,
        missed: 16,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 82,
        retries: 0,
    },
    Golden {
        label: "Q+ learning",
        faults: false,
        makespan: 52.91772695408277,
        total_energy: 49514.48118785798,
        met: 160,
        missed: 90,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 80,
        retries: 0,
    },
    Golden {
        label: "Prediction-based learning",
        faults: false,
        makespan: 42.46955699738991,
        total_energy: 41195.00478297835,
        met: 207,
        missed: 43,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 227,
        retries: 0,
    },
    Golden {
        label: "Round-robin",
        faults: false,
        makespan: 35.78959309736392,
        total_energy: 36474.39922000109,
        met: 247,
        missed: 3,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 250,
        retries: 0,
    },
    Golden {
        label: "Greedy EDF",
        faults: false,
        makespan: 38.677627415214516,
        total_energy: 38377.85189535827,
        met: 247,
        missed: 3,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 86,
        retries: 0,
    },
    Golden {
        label: "Adaptive RL",
        faults: true,
        makespan: 43.462354991333,
        total_energy: 40242.33377082551,
        met: 244,
        missed: 6,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 230,
        retries: 5,
    },
    Golden {
        label: "Online RL",
        faults: true,
        makespan: 45.39186302549036,
        total_energy: 41547.583210767945,
        met: 232,
        missed: 18,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 89,
        retries: 4,
    },
    Golden {
        label: "Q+ learning",
        faults: true,
        makespan: 53.60900663185102,
        total_energy: 47510.250085927524,
        met: 142,
        missed: 108,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 86,
        retries: 5,
    },
    Golden {
        label: "Prediction-based learning",
        faults: true,
        makespan: 42.46955699738991,
        total_energy: 39551.05692573845,
        met: 194,
        missed: 56,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 231,
        retries: 4,
    },
    Golden {
        label: "Round-robin",
        faults: true,
        makespan: 36.11259188188356,
        total_energy: 35457.03256929729,
        met: 247,
        missed: 3,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 254,
        retries: 4,
    },
    Golden {
        label: "Greedy EDF",
        faults: true,
        makespan: 40.96402478861928,
        total_energy: 38493.42238250106,
        met: 246,
        missed: 4,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 93,
        retries: 6,
    },
];

/// Adaptive RL on [`saturating`], pinned before the scheduler learned to
/// skip the decision work of a site with no free queue slot.
const SATURATING: &[Golden] = &[
    Golden {
        label: "Adaptive RL",
        faults: false,
        makespan: 44.63230300218555,
        total_energy: 48876.70470242636,
        met: 305,
        missed: 95,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 331,
        retries: 0,
    },
    Golden {
        label: "Adaptive RL",
        faults: true,
        makespan: 49.48576960422342,
        total_energy: 50468.2523717694,
        met: 281,
        missed: 119,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 339,
        retries: 7,
    },
];
