//! Property-based tests for the platform model: the Eq. (5) energy
//! integral against closed forms, queue semantics, and group invariants.

use platform::queue::{GroupQueue, QueuedGroup};
use platform::{GroupId, GroupPolicy, PowerParams, Processor, TaskGroup};
use proptest::prelude::*;
use simcore::SimTime;
use workload::{Priority, SiteId, Task, TaskId};

fn task(id: u64, size: f64, arrival: f64, window: f64, prio: Priority) -> Task {
    Task {
        id: TaskId(id),
        size_mi: size,
        arrival: SimTime::new(arrival),
        deadline: SimTime::new(arrival + window),
        priority: prio,
        site: SiteId(0),
    }
}

fn prio_strategy() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::Low),
        Just(Priority::Medium),
        Just(Priority::High)
    ]
}

proptest! {
    #[test]
    fn busy_idle_energy_matches_closed_form(
        speed in 100.0f64..2000.0,
        jobs in prop::collection::vec((100.0f64..5000.0, 0.0f64..10.0), 0..8),
    ) {
        // Run a sequence of (size, idle-gap) jobs back to back; energy must
        // equal p_peak·busy + p_idle·idle exactly.
        let params = PowerParams::paper();
        let mut p = Processor::new(speed, &params);
        let mut now = SimTime::ZERO;
        let mut busy = 0.0;
        let mut idle = 0.0;
        for (i, &(size, gap)) in jobs.iter().enumerate() {
            now += simcore::SimDuration::new(gap);
            idle += gap;
            let finish = p.start_task(now, TaskId(i as u64), GroupId(0), size, 1.0, &params);
            busy += finish.since(now).as_f64();
            p.finish_task(finish);
            now = finish;
        }
        let expected = p.p_peak * busy + params.p_idle * idle;
        let got = p.energy_at(now);
        prop_assert!((got - expected).abs() < 1e-6 * (1.0 + expected),
            "energy {got} vs closed form {expected}");
        prop_assert!((p.busy_time_at(now) - busy).abs() < 1e-9);
        prop_assert_eq!(p.tasks_executed() as usize, jobs.len());
    }

    #[test]
    fn throttled_energy_never_exceeds_full_speed_instantaneous_power(
        speed in 200.0f64..2000.0,
        throttle in 0.1f64..1.0,
        size in 100.0f64..5000.0,
    ) {
        let params = PowerParams::paper();
        let mut p = Processor::new(speed, &params);
        let finish = p.start_task(SimTime::ZERO, TaskId(0), GroupId(0), size, throttle, &params);
        // Slower but drawing less than peak while busy.
        prop_assert!(p.current_power() <= p.p_peak + 1e-9);
        prop_assert!(p.current_power() >= params.p_idle);
        let exec = finish.as_f64();
        prop_assert!((exec - size / (speed * throttle)).abs() < 1e-9);
    }

    #[test]
    fn group_queue_conserves_groups(ops in prop::collection::vec(0u8..3, 1..60)) {
        // Model-based test: mirror a GroupQueue against a Vec model.
        let mut q = GroupQueue::new(4);
        let mut model: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                0 => {
                    // push
                    let g = TaskGroup::new(
                        GroupId(next_id),
                        vec![task(next_id, 1000.0, 0.0, 10.0, Priority::Medium)],
                        GroupPolicy::Mixed,
                    );
                    let pushed = q.push(QueuedGroup::new(g, SimTime::ZERO)).is_ok();
                    if model.len() < 4 {
                        prop_assert!(pushed);
                        model.push(next_id);
                    } else {
                        prop_assert!(!pushed);
                    }
                    next_id += 1;
                }
                1 => {
                    // remove head
                    let removed = model.first().copied().map(GroupId);
                    if let Some(id) = removed {
                        prop_assert!(q.remove(id).is_some());
                        model.remove(0);
                    }
                }
                _ => {
                    // remove an arbitrary (middle) element if present
                    if model.len() > 1 {
                        let id = GroupId(model[model.len() / 2]);
                        prop_assert!(q.remove(id).is_some());
                        model.retain(|&x| x != id.0);
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.available(), 4 - model.len());
            let order: Vec<u64> = q.iter().map(|g| g.group.id.0).collect();
            prop_assert_eq!(order, model.clone(), "FIFO order preserved");
        }
    }

    #[test]
    fn groups_always_sort_edf(
        windows in prop::collection::vec(0.5f64..100.0, 1..12),
        prio in prio_strategy(),
    ) {
        let tasks: Vec<Task> = windows
            .iter()
            .enumerate()
            .map(|(i, &w)| task(i as u64, 1000.0, 0.0, w, prio))
            .collect();
        let g = TaskGroup::new(GroupId(0), tasks, GroupPolicy::Identical(prio));
        for pair in g.tasks.windows(2) {
            prop_assert!(pair[0].deadline <= pair[1].deadline);
        }
    }

    #[test]
    fn processing_weight_scales_linearly_with_work(
        sizes in prop::collection::vec(100.0f64..5000.0, 1..10),
        window in 1.0f64..100.0,
        scale in 1.1f64..4.0,
    ) {
        let mk = |factor: f64| {
            let tasks: Vec<Task> = sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| task(i as u64, s * factor, 0.0, window, Priority::Medium))
                .collect();
            TaskGroup::new(GroupId(0), tasks, GroupPolicy::Mixed).processing_weight()
        };
        let base = mk(1.0);
        let scaled = mk(scale);
        prop_assert!((scaled / base - scale).abs() < 1e-9,
            "pw must scale with total work: {base} -> {scaled}");
    }

    #[test]
    fn peak_power_is_monotone_in_speed(a in 100.0f64..2000.0, b in 100.0f64..2000.0) {
        let params = PowerParams::paper();
        let (slow, fast) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(params.peak_for_speed(slow) <= params.peak_for_speed(fast));
        prop_assert!(params.peak_for_speed(fast) <= params.p_peak_max);
        prop_assert!(params.peak_for_speed(slow) >= params.p_peak_min);
    }
}
