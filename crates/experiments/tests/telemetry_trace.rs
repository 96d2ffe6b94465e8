//! End-to-end telemetry tests: exporter well-formedness, line atomicity
//! under concurrent runs sharing one sink, and the no-perturbation
//! guarantee.

use adaptive_rl::AdaptiveRlConfig;
use experiments::{runner, Monitor, Scenario, SchedulerKind};
use platform::{FaultSpec, RunResult};
use std::collections::HashMap;
use std::sync::Arc;
use telemetry::{json, ChromeTraceSink, JsonlSink, TraceLevel};

/// A small faulty Adaptive-RL scenario: every instrumented subsystem
/// (dispatch, learning cycles, faults, recovery) fires at least once.
fn faulty_scenario() -> Scenario {
    let mut sc = Scenario::new(0xD5, 250, 0.7);
    sc.platform = platform::PlatformSpec {
        num_sites: 3,
        nodes_per_site: (4, 6),
        procs_per_node: (4, 6),
        ..platform::PlatformSpec::paper(3)
    };
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
    sc
}

fn adaptive() -> SchedulerKind {
    SchedulerKind::Adaptive(AdaptiveRlConfig::default())
}

/// One run traced into `rec`.
fn traced(sc: &Scenario, kind: &SchedulerKind, rec: &runner::SharedRecorder) -> RunResult {
    let monitor = Monitor {
        recorder: Some(rec.clone()),
        ..Monitor::default()
    };
    runner::run_scenario_monitored(sc, kind, &monitor)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("arl_telemetry_{name}_{}.json", std::process::id()))
}

#[test]
fn chrome_trace_is_wellformed_and_spans_pair_up() {
    let path = temp_path("chrome");
    let rec: runner::SharedRecorder =
        Arc::new(ChromeTraceSink::create(&path, TraceLevel::Decisions).expect("create sink"));
    let r = traced(&faulty_scenario(), &adaptive(), &rec);
    rec.finish();
    assert!(r.faults_injected > 0, "scenario must exercise faults");

    let text = std::fs::read_to_string(&path).expect("trace file");
    let v = json::parse(&text).expect("chrome trace must be valid JSON");
    let events = v.as_array().expect("top-level array");
    assert!(!events.is_empty());

    // Timestamps are monotonically non-decreasing in emission order.
    let mut prev_ts = f64::NEG_INFINITY;
    for ev in events {
        let ts = ev.get("ts").and_then(|t| t.as_f64()).expect("ts field");
        assert!(
            ts >= prev_ts,
            "ts must be non-decreasing: {ts} after {prev_ts}"
        );
        prev_ts = ts;
    }

    // Every async begin has exactly one matching end, keyed by (name, id),
    // with begin before end.
    let mut open: HashMap<(String, u64), u64> = HashMap::new();
    let mut names: Vec<String> = Vec::new();
    for ev in events {
        let name = ev.get("name").and_then(|n| n.as_str()).unwrap().to_string();
        names.push(name.clone());
        match ev.get("ph").and_then(|p| p.as_str()).expect("ph field") {
            "b" => {
                let id = ev.get("id").and_then(|i| i.as_f64()).expect("span id") as u64;
                let prev = open.insert((name, id), 1);
                assert!(prev.is_none(), "duplicate open span");
            }
            "e" => {
                let id = ev.get("id").and_then(|i| i.as_f64()).expect("span id") as u64;
                assert!(open.remove(&(name, id)).is_some(), "span end without begin");
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");

    // The acceptance-criteria content: dispatch spans, learning cycles
    // and fault/recovery markers all present.
    for expected in ["group", "learning_cycle", "decision", "fault", "recover"] {
        assert!(
            names.iter().any(|n| n == expected),
            "trace lacks {expected:?} records"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn jsonl_lines_stay_atomic_under_replication() {
    let path = temp_path("jsonl_replicated");
    let rec: runner::SharedRecorder =
        Arc::new(JsonlSink::create(&path, TraceLevel::Decisions).expect("create sink"));
    let runs: Vec<RunResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4u64)
            .map(|i| {
                let rec = &rec;
                scope.spawn(move || traced(&Scenario::small(7 + i, 60, 0.5), &adaptive(), rec))
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    rec.finish();
    assert_eq!(runs.len(), 4);

    let text = std::fs::read_to_string(&path).expect("trace file");
    let mut lines = 0usize;
    for line in text.lines() {
        let v =
            json::parse(line).unwrap_or_else(|e| panic!("interleaved/broken line {line:?}: {e}"));
        assert!(v.get("type").is_some() && v.get("name").is_some());
        lines += 1;
    }
    assert!(lines > 0, "replicated run must emit records");
    std::fs::remove_file(&path).ok();
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let sc = faulty_scenario();
    let kind = adaptive();
    let plain = runner::run_scenario(&sc, &kind);
    let path = temp_path("perturb");
    let rec: runner::SharedRecorder =
        Arc::new(JsonlSink::create(&path, TraceLevel::All).expect("create sink"));
    let traced = traced(&sc, &kind, &rec);
    rec.finish();
    std::fs::remove_file(&path).ok();

    assert_eq!(plain.makespan, traced.makespan, "makespan diverged");
    assert_eq!(plain.total_energy, traced.total_energy, "energy diverged");
    assert_eq!(plain.records.len(), traced.records.len());
    assert_eq!(plain.faults_injected, traced.faults_injected);
    assert!(plain.telemetry.is_none(), "untraced run carries no summary");
}

#[test]
fn run_summary_carries_counters_and_histograms() {
    let path = temp_path("summary");
    let rec: runner::SharedRecorder =
        Arc::new(JsonlSink::create(&path, TraceLevel::Decisions).expect("create sink"));
    let r = traced(&faulty_scenario(), &adaptive(), &rec);
    rec.finish();
    std::fs::remove_file(&path).ok();

    let t = r.telemetry.expect("traced run must attach a summary");
    assert_eq!(t.counter("groups.dispatched"), Some(r.groups_dispatched));
    assert_eq!(t.counter("faults.injected"), Some(r.faults_injected));
    assert_eq!(t.counter("learning.cycles"), Some(r.groups_completed));
    for hist in ["decision_latency_us", "queue_wait_s"] {
        let h = t
            .histogram(hist)
            .unwrap_or_else(|| panic!("missing {hist}"));
        assert!(h.count > 0);
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max);
    }
}
