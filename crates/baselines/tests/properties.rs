//! Property-based tests for the baseline learning machinery.

use baselines::common::{form_groups, SitePools};
use baselines::tabular::{bucketize, QTable};
use proptest::prelude::*;
use simcore::SimTime;
use workload::{Priority, SiteId, Task, TaskId};

fn task_strategy() -> impl Strategy<Value = Task> {
    (any::<u64>(), 600.0f64..7200.0, 0.0f64..50.0, 1.0f64..40.0).prop_map(
        |(id, size, arrival, window)| Task {
            id: TaskId(id),
            size_mi: size,
            arrival: SimTime::new(arrival),
            deadline: SimTime::new(arrival + window),
            priority: Priority::Medium,
            site: SiteId(0),
        },
    )
}

proptest! {
    #[test]
    fn form_groups_conserves_tasks(
        tasks in prop::collection::vec(task_strategy(), 0..50),
        opnum in 1usize..8,
        hold in any::<bool>(),
        now in 0.0f64..200.0,
    ) {
        let mut ids: Vec<u64> = tasks.iter().map(|t| t.id.0).collect();
        let mut pending = tasks;
        let groups = form_groups(&mut pending, opnum, hold, SimTime::new(now), 10.0);
        let mut out: Vec<u64> = groups
            .iter()
            .flatten()
            .map(|t| t.id.0)
            .chain(pending.iter().map(|t| t.id.0))
            .collect();
        ids.sort_unstable();
        out.sort_unstable();
        prop_assert_eq!(ids, out);
        for g in &groups {
            prop_assert!(g.len() <= opnum && !g.is_empty());
            for pair in g.windows(2) {
                prop_assert!(pair[0].deadline <= pair[1].deadline, "EDF inside groups");
            }
        }
        // At most one partial group can be held back.
        prop_assert!(pending.len() < opnum, "held partial must be smaller than opnum");
    }

    #[test]
    fn stale_partials_always_flush(
        tasks in prop::collection::vec(task_strategy(), 1..20),
        opnum in 1usize..8,
    ) {
        let mut pending = tasks;
        // Far future: everything is stale, nothing may be held even with
        // hold_partial set.
        let groups = form_groups(&mut pending, opnum, true, SimTime::new(1.0e6), 10.0);
        prop_assert!(pending.is_empty(), "stale tasks must never be starved");
        prop_assert!(!groups.is_empty());
    }

    #[test]
    fn qtable_update_is_a_contraction(
        costs in prop::collection::vec(0.0f64..100.0, 1..50),
        alpha in 0.01f64..1.0,
    ) {
        // Repeated updates with bounded costs keep Q within the convex
        // hull of [0, max_cost / (1 - gamma)].
        let gamma = 0.5;
        let mut t = QTable::new(2, 2, 0.0);
        let bound = 100.0 / (1.0 - gamma);
        for (i, &c) in costs.iter().enumerate() {
            t.update(i % 2, i % 2, c, (i + 1) % 2, alpha, gamma);
        }
        for s in 0..2 {
            for a in 0..2 {
                let q = t.get(s, a);
                prop_assert!((0.0..=bound + 1e-9).contains(&q), "Q({s},{a}) = {q}");
            }
        }
    }

    #[test]
    fn qtable_multi_update_never_moves_centre_less_than_neighbours(
        cost in 1.0f64..100.0,
        spread in 1usize..4,
        decay in 0.1f64..0.9,
    ) {
        let mut t = QTable::new(9, 1, 0.0);
        t.update_multi(4, 0, cost, 4, 0.5, 0.0, spread, decay);
        let centre = t.get(4, 0);
        for d in 1..=spread {
            prop_assert!(t.get(4 - d, 0) <= centre + 1e-12);
            prop_assert!(t.get(4 + d, 0) <= centre + 1e-12);
            // Symmetric spread.
            prop_assert!((t.get(4 - d, 0) - t.get(4 + d, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn bucketize_is_total_and_monotone(
        x1 in -1e3f64..1e3,
        x2 in -1e3f64..1e3,
        buckets in 1usize..32,
    ) {
        let b1 = bucketize(x1, 0.0, 100.0, buckets);
        let b2 = bucketize(x2, 0.0, 100.0, buckets);
        prop_assert!(b1 < buckets && b2 < buckets);
        if x1 <= x2 {
            prop_assert!(b1 <= b2, "bucketize must be monotone");
        }
    }

    #[test]
    fn site_pools_route_by_site(
        routes in prop::collection::vec(0u32..4, 0..40),
    ) {
        let mut pools = SitePools::new(4);
        for (i, &s) in routes.iter().enumerate() {
            let mut t = task_dummy(i as u64);
            t.site = SiteId(s);
            pools.buffer(SiteId(s), vec![t]);
        }
        for s in 0..4u32 {
            let expect = routes.iter().filter(|&&x| x == s).count();
            prop_assert_eq!(pools.pool_mut(s as usize).len(), expect);
        }
    }
}

fn task_dummy(id: u64) -> Task {
    Task {
        id: TaskId(id),
        size_mi: 1000.0,
        arrival: SimTime::ZERO,
        deadline: SimTime::new(10.0),
        priority: Priority::Medium,
        site: SiteId(0),
    }
}
