//! Property-based tests for workload generation, the trace format and
//! the `arls serve` wire lines.

use proptest::prelude::*;
use simcore::rng::RngStream;
use workload::submit::{Notification, Submission};
use workload::{
    read_trace, write_trace, Priority, PriorityMix, Task, Workload, WorkloadProfile, WorkloadSpec,
};

fn spec_strategy() -> impl Strategy<Value = (WorkloadSpec, u64)> {
    (
        1usize..400,
        0.01f64..20.0,
        (100.0f64..5000.0, 1.0f64..5000.0),
        0.0f64..1.0,
        0.0f64..1.0,
        1u32..8,
        100.0f64..1000.0,
        any::<u64>(),
    )
        .prop_map(|(n, iat, (smin, extra), a, b, sites, refspeed, seed)| {
            // Map (a, b) onto a valid probability simplex.
            let low = a * 0.9;
            let medium = (1.0 - low) * b;
            let high = 1.0 - low - medium;
            (
                WorkloadSpec {
                    num_tasks: n,
                    mean_interarrival: iat,
                    size_min_mi: smin,
                    size_max_mi: smin + extra,
                    priority_mix: PriorityMix::new(low, medium, high),
                    num_sites: sites,
                    reference_speed_mips: refspeed,
                },
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn generated_workloads_satisfy_model_invariants((spec, seed) in spec_strategy()) {
        let w = Workload::generate(spec.clone(), &RngStream::root(seed));
        prop_assert_eq!(w.len(), spec.num_tasks);
        let mut prev = None;
        for (i, t) in w.tasks.iter().enumerate() {
            prop_assert_eq!(t.id.0, i as u64, "dense ids");
            prop_assert!((spec.size_min_mi..=spec.size_max_mi).contains(&t.size_mi));
            prop_assert!(t.site.0 < spec.num_sites);
            if let Some(p) = prev {
                prop_assert!(t.arrival >= p, "arrival order");
            }
            prev = Some(t.arrival);
            // Deadline window consistent with the priority band.
            let act = t.size_mi / spec.reference_speed_mips;
            let slack = (t.deadline.since(t.arrival).as_f64() - act) / act;
            prop_assert!((-1e-9..=1.5 + 1e-9).contains(&slack), "slack {slack}");
            prop_assert_eq!(Priority::from_slack(slack.clamp(0.0, 1.5)), t.priority);
        }
    }

    #[test]
    fn trace_round_trip_is_lossless((spec, seed) in spec_strategy()) {
        let tasks = Workload::generate(spec, &RngStream::root(seed)).tasks;
        let bytes = write_trace(&tasks);
        let back = read_trace(&bytes).expect("well-formed trace must decode");
        prop_assert_eq!(back, tasks);
    }

    #[test]
    fn truncated_traces_never_decode((spec, seed) in spec_strategy(), cut in 1usize..32) {
        let tasks = Workload::generate(spec, &RngStream::root(seed)).tasks;
        let bytes = write_trace(&tasks);
        let cut = cut.min(bytes.len().saturating_sub(1));
        if cut > 0 {
            let truncated = &bytes[..bytes.len() - cut];
            prop_assert!(read_trace(truncated).is_err(), "truncation must be detected");
        }
    }

    #[test]
    fn hostile_record_counts_never_panic(
        count in any::<u64>(),
        body in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        // A well-formed header declaring any record count over any body:
        // the decoder may accept only what the body holds (37-byte
        // records), and must refuse the rest without panicking.
        let mut raw = b"ARLW\x01".to_vec();
        raw.extend(count.to_le_bytes());
        raw.extend(&body);
        if let Ok(tasks) = read_trace(&raw) {
            prop_assert!(
                tasks.len() <= body.len() / 37,
                "{} tasks from {} bytes",
                tasks.len(),
                body.len()
            );
        }
    }

    #[test]
    fn profile_totals_match((spec, seed) in spec_strategy()) {
        let tasks: Vec<Task> = Workload::generate(spec, &RngStream::root(seed)).tasks;
        let p = WorkloadProfile::from_tasks(&tasks);
        prop_assert_eq!(p.total() as usize, tasks.len());
        let frac_sum: f64 = Priority::ALL.iter().map(|&x| p.fraction(x)).sum();
        prop_assert!((frac_sum - 1.0).abs() < 1e-9);
        prop_assert_eq!(p.size_mi.count() as usize, tasks.len());
        if tasks.len() > 1 {
            prop_assert_eq!(p.interarrival.count() as usize, tasks.len() - 1);
        }
    }

    #[test]
    fn priority_classifier_matches_band(slack in 0.0f64..1.5) {
        let p = Priority::from_slack(slack);
        let (lo, hi) = p.slack_band();
        // Band edges are shared; membership must hold up to the boundary.
        prop_assert!(slack >= lo - 1e-12 && slack <= hi + 1e-12,
            "slack {slack} classified {p} with band [{lo}, {hi}]");
    }
}

/// Wire lines as (key, valid value, line with `@` in the value's place):
/// every submission field and one field of each notification kind.
const WIRE_TEMPLATES: [(&str, &str, &str); 14] = [
    (
        "submit",
        r#"{"id":1,"tasks":[{"size_mi":1500,"deadline":120,"priority":"high","site":0}]}"#,
        r#"{"submit":@}"#,
    ),
    (
        "id",
        "1",
        r#"{"submit":{"id":@,"tasks":[{"size_mi":1500,"deadline":120,"priority":"high","site":0}]}}"#,
    ),
    (
        "tasks",
        r#"[{"size_mi":1500,"deadline":120,"priority":"high","site":0}]"#,
        r#"{"submit":{"id":1,"tasks":@}}"#,
    ),
    (
        "size_mi",
        "1500",
        r#"{"submit":{"id":1,"tasks":[{"size_mi":@,"deadline":120,"priority":"high","site":0}]}}"#,
    ),
    (
        "deadline",
        "120",
        r#"{"submit":{"id":1,"tasks":[{"size_mi":1500,"deadline":@,"priority":"high","site":0}]}}"#,
    ),
    (
        "priority",
        r#""low""#,
        r#"{"submit":{"id":1,"tasks":[{"size_mi":1500,"deadline":120,"priority":@,"site":0}]}}"#,
    ),
    (
        "site",
        "0",
        r#"{"submit":{"id":1,"tasks":[{"size_mi":1500,"deadline":120,"priority":"high","site":@}]}}"#,
    ),
    ("tasks", "[0,1]", r#"{"ack":{"id":1,"tasks":@,"t":2.5}}"#),
    ("t", "2.5", r#"{"ack":{"id":1,"tasks":[0],"t":@}}"#),
    ("reason", r#""bad""#, r#"{"reject":{"id":3,"reason":@}}"#),
    (
        "node",
        "2",
        r#"{"placed":{"task":4,"site":0,"node":@,"t":3}}"#,
    ),
    ("met", "true", r#"{"done":{"task":5,"met":@,"t":4}}"#),
    ("task", "6", r#"{"failed":{"task":@,"t":5}}"#),
    ("done", r#"{"task":5,"met":false,"t":4}"#, r#"{"done":@}"#),
];

/// Values just outside what a field accepts: integers past every
/// range, negative and fractional numbers, non-finite and malformed
/// numbers, and values of the wrong type.
const HOSTILE_VALUES: [&str; 31] = [
    "18446744073709551615",
    "18446744073709551616",
    "1e19",
    "9007199254740993",
    "4294967296",
    "-1",
    "-0",
    "-9223372036854775809",
    "1.5",
    "0.1",
    "1e300",
    "1e400",
    "-1e400",
    "1e-400",
    "0",
    "00",
    "1.",
    ".5",
    "1e",
    "-",
    "+1",
    "NaN",
    "Infinity",
    r#""12""#,
    "null",
    "true",
    "[]",
    "{}",
    r#""\ud800""#,
    r#""\u0000\"\\""#,
    r#""unterminated"#,
];

/// One MiB, the daemon's bound on a request line.
const MIB: usize = 1 << 20;

/// Both wire parsers on `line`: each must return `Ok` or a typed `Err`
/// (a panic fails the test), and an accepted submission or notification
/// must render to a line that parses back to it.
fn parse_both(line: &str) {
    if let Ok(sub) = Submission::parse_line(line) {
        assert_eq!(Submission::parse_line(&sub.render_line()), Ok(sub));
    }
    if let Ok(n) = Notification::parse_line(line) {
        assert_eq!(Notification::parse_line(&n.render_line()), Ok(n));
    }
}

/// `valid` made hostile: `kind` 0 swaps in a hostile value, 1 repeats
/// the key with a hostile value before or after the valid one, 2 buries
/// the value `depth` arrays or objects deep, 3 grows it to a MiB.
fn mutate(key: &str, valid: &str, kind: usize, pick: usize, depth: usize, flip: bool) -> String {
    let hostile = HOSTILE_VALUES[pick % HOSTILE_VALUES.len()];
    match kind {
        0 => hostile.to_string(),
        1 if flip => format!(r#"{valid},"{key}":{hostile}"#),
        1 => format!(r#"{hostile},"{key}":{valid}"#),
        2 if flip => format!("{}{valid}{}", "[".repeat(depth), "]".repeat(depth)),
        2 => format!("{}{valid}{}", r#"{"k":"#.repeat(depth), "}".repeat(depth)),
        _ => match pick % 4 {
            0 => format!("\"{}\"", "é⚡x".repeat(MIB / 6)),
            1 => "7".repeat(MIB),
            2 => format!("{}{valid}", " ".repeat(MIB)),
            _ => format!("[{}0]", "0,".repeat(MIB / 2)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn wire_lines_of_arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        template in 0usize..WIRE_TEMPLATES.len(),
        cut in any::<usize>(),
        splice in any::<bool>(),
    ) {
        // Raw bytes alone, or spliced into a valid line at any byte.
        let noise = String::from_utf8_lossy(&bytes);
        let (_, valid, line) = WIRE_TEMPLATES[template];
        let line = line.replace('@', valid);
        if splice {
            let cut = cut % (line.len() + 1);
            parse_both(&format!("{}{noise}{}", &line[..cut], &line[cut..]));
        } else {
            parse_both(&noise);
        }
    }

    #[test]
    fn near_valid_wire_lines_never_panic(
        template in 0usize..WIRE_TEMPLATES.len(),
        kind in 0usize..4,
        pick in 0usize..1024,
        depth in 1usize..300,
        flip in any::<bool>(),
    ) {
        let (key, valid, line) = WIRE_TEMPLATES[template];
        // Each case is one mutation away from a valid wire line.
        let base = line.replace('@', valid);
        prop_assert!(
            Submission::parse_line(&base).is_ok() || Notification::parse_line(&base).is_ok(),
            "template does not parse: {base}"
        );
        let value = mutate(key, valid, kind, pick, depth, flip);
        parse_both(&line.replace('@', &value));
    }
}
