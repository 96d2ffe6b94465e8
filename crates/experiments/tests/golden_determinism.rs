//! Golden-determinism regression tests.
//!
//! Every `SchedulerKind` runs a fixed-seed mid-size scenario twice — with
//! fault injection off and on — and the resulting `RunResult` fields must
//! match the checked-in golden values *exactly* (bit-identical floats).
//! The goldens were captured from the pre-optimization engine, so any
//! hot-path refactor that silently changes behaviour fails loudly here.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! cargo test --release -p arl-experiments --test golden_determinism \
//!     -- --ignored --nocapture regenerate
//! ```
//!
//! and paste the printed tables over `GOLDENS` and `SATURATING`.

use adaptive_rl::AdaptiveRlConfig;
use baselines::{OnlineRlConfig, PredictionConfig, QPlusConfig};
use experiments::{runner, Scenario, SchedulerKind};
use platform::{FaultSpec, RunResult, TaskOutcome};

/// The mid-size scenario: 3 sites × 4–6 nodes × 4–6 procs, 250 tasks at
/// 70 % offered load. Big enough to exercise grouping, splits, sleep/wake
/// and queue pressure; small enough for debug-mode CI.
fn scenario(faults: bool) -> Scenario {
    scenario_at(250, 0.7, faults)
}

/// The saturating scenario: the same platform under 400 tasks at 130 %
/// offered load. Adaptive RL often decides at a site where no node has a
/// free queue slot (305 of 923 site decisions without faults, 329 of 844
/// with), a case the mid-size scenario never reaches.
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
        sc.exec.faults = FaultSpec {
            enabled: true,
            proc_mtbf: 400.0,
            proc_mttr: 50.0,
            node_mtbf: 2000.0,
            node_mttr: 100.0,
            permanent_fraction: 0.1,
            max_retries: 3,
            horizon: 1500.0,
            seed: 0xFA17,
        };
    }
    sc
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
/// reproduce.
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

/// Runs `sc` under `kind` and compares it with the row of `table` for
/// `(kind, faults)`.
fn check_in(table: &[Golden], sc: &Scenario, kind: &SchedulerKind, faults: bool) {
    let golden = table
        .iter()
        .find(|g| g.label == kind.label() && g.faults == faults)
        .unwrap_or_else(|| panic!("no golden for {} faults={}", kind.label(), faults));
    let r = runner::run_scenario(sc, kind);
    let (met, missed) = observed(&r);
    let ctx = format!(
        "{} (faults={}, {} tasks)",
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
fn golden_adaptive() {
    let k = SchedulerKind::Adaptive(AdaptiveRlConfig::default());
    check(&k, false);
    check(&k, true);
}

#[test]
fn golden_adaptive_saturating() {
    let k = SchedulerKind::Adaptive(AdaptiveRlConfig::default());
    check_in(SATURATING, &saturating(false), &k, false);
    check_in(SATURATING, &saturating(true), &k, true);
}

#[test]
fn golden_online() {
    let k = SchedulerKind::Online(OnlineRlConfig::default());
    check(&k, false);
    check(&k, true);
}

#[test]
fn golden_qplus() {
    let k = SchedulerKind::QPlus(QPlusConfig::default());
    check(&k, false);
    check(&k, true);
}

#[test]
fn golden_prediction() {
    let k = SchedulerKind::Prediction(PredictionConfig::default());
    check(&k, false);
    check(&k, true);
}

#[test]
fn golden_round_robin() {
    check(&SchedulerKind::RoundRobin, false);
    check(&SchedulerKind::RoundRobin, true);
}

#[test]
fn golden_greedy_edf() {
    check(&SchedulerKind::GreedyEdf, false);
    check(&SchedulerKind::GreedyEdf, true);
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
                &runner::run_scenario(&scenario(faults), &kind),
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
            &runner::run_scenario(&saturating(faults), &kind),
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
        makespan: 41.365910839562524,
        total_energy: 40381.723477332744,
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
        makespan: 41.14396485956421,
        total_energy: 40243.32210661863,
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
        makespan: 69.3196957703012,
        // Energy re-pinned by the PR 4 idle-tail fix: post-settlement
        // wake/sleep transitions used to fold the interval beyond the
        // energy horizon back into the accumulators (was 61384.925…).
        total_energy: 61370.23043147183,
        met: 160,
        missed: 90,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 81,
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
        total_energy: 38377.851895358275,
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
        makespan: 34.58445684499972,
        total_energy: 34239.53777417353,
        met: 250,
        missed: 0,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 237,
        retries: 1,
    },
    Golden {
        label: "Online RL",
        faults: true,
        makespan: 41.14396485956421,
        total_energy: 38678.867747551085,
        met: 232,
        missed: 18,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 87,
        retries: 2,
    },
    Golden {
        label: "Q+ learning",
        faults: true,
        makespan: 72.6404585523108,
        total_energy: 58877.49120395262,
        met: 144,
        missed: 106,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 88,
        retries: 6,
    },
    Golden {
        label: "Prediction-based learning",
        faults: true,
        makespan: 42.46955699738991,
        total_energy: 39496.44631787745,
        met: 199,
        missed: 51,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 231,
        retries: 4,
    },
    Golden {
        label: "Round-robin",
        faults: true,
        makespan: 36.11259188188356,
        total_energy: 35455.34840913948,
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
        makespan: 40.90492183544131,
        total_energy: 38454.60356285378,
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
        makespan: 41.635360674681834,
        total_energy: 46754.5396290794,
        met: 303,
        missed: 97,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 337,
        retries: 0,
    },
    Golden {
        label: "Adaptive RL",
        faults: true,
        makespan: 52.9216821002225,
        total_energy: 52559.11691474503,
        met: 276,
        missed: 124,
        failed: 0,
        incomplete: 0,
        groups_dispatched: 343,
        retries: 4,
    },
];
