//! Robustness sweep: deadline-hit rate and energy versus fault intensity.
//!
//! Not a figure from the paper — the source evaluation assumes a reliable
//! platform — but the natural stress test for its scheduler: every policy
//! is run under increasingly frequent node/processor outages and must keep
//! draining the workload via the engine's re-dispatch path. Adaptive-RL is
//! run twice, once vanilla and once with the degradation-aware placement
//! penalty, to show what the availability signal buys.
//!
//! `ARL_QUICK=1` reduces the run. `--audit` runs every cell under the
//! correctness oracle and exits non-zero on any invariant violation.
//! `--metrics-addr HOST:PORT` serves live Prometheus metrics on
//! `/metrics` for the duration of the sweep (port 0 picks a free port).
//! Fully seeded: repeated invocations print the same table — the metrics
//! endpoint observes the run without perturbing it.

use adaptive_rl::AdaptiveRlConfig;
use experiments::{runner, Monitor, Scenario, SchedulerKind};
use metrics::energy_millions;
use platform::FaultSpec;
use std::sync::Arc;
use telemetry::{MetricsRegistry, MetricsServer};

/// One sweep level: a label plus the mean time between whole-node
/// failures (processor failures arrive 4x as often, at a quarter of the
/// repair time).
const LEVELS: &[(&str, f64)] = &[
    ("none", 0.0),
    ("mild", 800.0),
    ("moderate", 300.0),
    ("severe", 120.0),
];

fn spec_for(node_mtbf: f64) -> FaultSpec {
    if node_mtbf == 0.0 {
        return FaultSpec::default(); // disabled: the healthy reference row
    }
    FaultSpec {
        enabled: true,
        node_mtbf,
        node_mttr: 60.0,
        proc_mtbf: node_mtbf / 4.0,
        proc_mttr: 15.0,
        permanent_fraction: 0.05,
        ..FaultSpec::default()
    }
}

/// Value of `--metrics-addr HOST:PORT` (also accepts `--metrics-addr=`),
/// or `None` when the flag is absent.
fn metrics_addr_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--metrics-addr" {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix("--metrics-addr=") {
            return Some(v.to_string());
        }
    }
    None
}

fn main() {
    let quick = std::env::var("ARL_QUICK").is_ok();
    let audit = std::env::args().any(|a| a == "--audit");
    let mut monitor = Monitor::default();
    let mut server = None;
    if let Some(addr) = metrics_addr_arg() {
        let registry = Arc::new(MetricsRegistry::new());
        match MetricsServer::serve(&addr, registry.clone()) {
            Ok(s) => {
                println!("serving metrics on http://{}/metrics", s.local_addr());
                monitor.registry = Some(registry);
                server = Some(s);
            }
            Err(e) => {
                eprintln!("error: could not bind metrics listener on {addr}: {e}");
                std::process::exit(2);
            }
        }
    }
    let (tasks, offered, seed) = if quick {
        (400, 0.7, 2011)
    } else {
        (1500, 0.8, 2011)
    };

    let mut schedulers: Vec<(String, SchedulerKind)> = vec![(
        "Adaptive RL (degradation-aware)".into(),
        SchedulerKind::Adaptive(AdaptiveRlConfig {
            availability_penalty: 2.0,
            ..AdaptiveRlConfig::default()
        }),
    )];
    schedulers.extend(
        SchedulerKind::paper_four()
            .into_iter()
            .map(|k| (k.label().to_string(), k)),
    );

    println!("fault sweep: {tasks} tasks, offered load {offered:.2}, seed {seed}");
    println!("(node MTTR 60 t.u., proc MTBF = node MTBF / 4, 5% of outages permanent)\n");
    println!(
        "{:<10} {:<32} {:>7} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "intensity", "scheduler", "hit%", "failed%", "ECS(M)", "faults", "preempts", "retries"
    );
    let mut audited_runs = 0u32;
    let mut dirty = false;
    for &(label, node_mtbf) in LEVELS {
        let mut sc = Scenario::new(seed, tasks, offered);
        sc.exec.faults = spec_for(node_mtbf);
        sc.exec.audit = audit;
        for (name, kind) in &schedulers {
            let r = runner::run_scenario_monitored(&sc, kind, &monitor);
            assert_eq!(
                r.incomplete, 0,
                "{name} lost tasks at intensity {label}: every task must \
                 end met, missed or failed"
            );
            if let Some(report) = &r.audit {
                audited_runs += 1;
                if !report.is_clean() {
                    dirty = true;
                    eprintln!(
                        "AUDIT FAILED: {name} at intensity {label}:\n{}",
                        report.render()
                    );
                }
            }
            println!(
                "{:<10} {:<32} {:>6.1}% {:>7.1}% {:>8.3} {:>8} {:>9} {:>8}",
                label,
                name,
                100.0 * r.success_rate(),
                100.0 * r.failure_rate(),
                energy_millions(&r),
                r.faults_injected,
                r.preemptions,
                r.retries
            );
        }
        println!();
    }
    if let Some(mut s) = server {
        s.shutdown();
    }
    if audit {
        if dirty {
            eprintln!("audit: violations found (see above)");
            std::process::exit(1);
        }
        println!("audit: {audited_runs} runs, all clean");
    }
}
