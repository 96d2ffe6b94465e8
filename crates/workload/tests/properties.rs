//! Property-based tests for workload generation and the trace format.

use proptest::prelude::*;
use simcore::rng::RngStream;
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
