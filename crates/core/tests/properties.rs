//! Property-based tests for the Adaptive-RL building blocks: grouping
//! conservation, memory-ring bounds, sharded memory summaries, and the
//! learning-value algebra.

use adaptive_rl::grouping::merge;
use adaptive_rl::memory::{Experience, SharedLearningMemory};
use adaptive_rl::{learning_value, ActionChoice, PolicyKind};
use proptest::prelude::*;
use simcore::SimTime;
use std::collections::VecDeque;
use workload::{Priority, SiteId, Task, TaskId};

fn task_strategy() -> impl Strategy<Value = Task> {
    (
        any::<u64>(),
        600.0f64..7200.0,
        0.0f64..100.0,
        1.0f64..40.0,
        0u8..3,
    )
        .prop_map(|(id, size, arrival, window, prio)| Task {
            id: TaskId(id),
            size_mi: size,
            arrival: SimTime::new(arrival),
            deadline: SimTime::new(arrival + window),
            priority: match prio {
                0 => Priority::Low,
                1 => Priority::Medium,
                _ => Priority::High,
            },
            site: SiteId(0),
        })
}

fn action_strategy() -> impl Strategy<Value = ActionChoice> {
    (
        prop_oneof![Just(PolicyKind::Mixed), Just(PolicyKind::Identical)],
        1usize..7,
    )
        .prop_map(|(policy, opnum)| ActionChoice { policy, opnum })
}

proptest! {
    #[test]
    fn merge_conserves_tasks(
        tasks in prop::collection::vec(task_strategy(), 0..40),
        action in action_strategy(),
        now in 0.0f64..200.0,
        flush in 0.0f64..20.0,
    ) {
        let mut ids: Vec<u64> = tasks.iter().map(|t| t.id.0).collect();
        let mut pending = tasks;
        let groups = merge(&mut pending, action, SimTime::new(now), flush);
        let mut out: Vec<u64> = groups
            .iter()
            .flat_map(|g| g.tasks.iter().map(|t| t.id.0))
            .chain(pending.iter().map(|t| t.id.0))
            .collect();
        ids.sort_unstable();
        out.sort_unstable();
        prop_assert_eq!(ids, out, "no task lost or duplicated by merge");
    }

    #[test]
    fn merge_respects_opnum_and_policy(
        tasks in prop::collection::vec(task_strategy(), 1..40),
        action in action_strategy(),
    ) {
        let mut pending = tasks;
        let groups = merge(&mut pending, action, SimTime::new(1000.0), 10.0);
        for g in &groups {
            prop_assert!(g.tasks.len() <= action.opnum, "group exceeds opnum");
            prop_assert!(!g.tasks.is_empty());
            // EDF order inside the group.
            for pair in g.tasks.windows(2) {
                prop_assert!(pair[0].deadline <= pair[1].deadline);
            }
            match (action.policy, g.policy) {
                (PolicyKind::Mixed, platform::GroupPolicy::Mixed) => {}
                (PolicyKind::Identical, platform::GroupPolicy::Identical(p)) => {
                    prop_assert!(g.tasks.iter().all(|t| t.priority == p));
                }
                (want, got) => prop_assert!(false, "policy mismatch: {want:?} vs {got:?}"),
            }
        }
    }

    #[test]
    fn mixed_merge_never_holds_tasks(
        tasks in prop::collection::vec(task_strategy(), 1..40),
        opnum in 1usize..7,
    ) {
        let mut pending = tasks;
        let action = ActionChoice { policy: PolicyKind::Mixed, opnum };
        let _ = merge(&mut pending, action, SimTime::ZERO, 1e9);
        prop_assert!(pending.is_empty(), "mixed merge has no grouping delay");
    }

    #[test]
    fn memory_ring_is_bounded_and_keeps_recency(
        lvals in prop::collection::vec(0.0f64..100.0, 1..60),
        depth in 1usize..20,
    ) {
        let mut mem = SharedLearningMemory::new(1, depth);
        for (i, &lv) in lvals.iter().enumerate() {
            mem.record(Experience {
                agent: 0,
                action: ActionChoice { policy: PolicyKind::Mixed, opnum: 1 },
                l_val: lv,
                cycle: i as u64,
            });
        }
        prop_assert!(mem.len() <= depth);
        prop_assert_eq!(mem.len(), lvals.len().min(depth));
        // The best remembered value is the max over the most recent window.
        let window = &lvals[lvals.len().saturating_sub(depth)..];
        let expect = window.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(mem.best_of(0).unwrap().l_val, expect);
    }

    /// A sharded memory, fed each foreign ring's summary at every barrier,
    /// answers `best_shared` and `len` exactly as a full replica of every
    /// ring would. Learning values come from {0, −0, 1, 2, NaN}, so ties,
    /// signed zeros and the eviction of a ring's maximum all occur; tied
    /// records differ in action and cycle, so picking the wrong one of
    /// them shows.
    fn ring_summaries_answer_as_full_replicas(
        agents in 2usize..6,
        depth in 1usize..5,
        // (0 = barrier, else a record; agent, l_val index, policy, opnum)
        events in prop::collection::vec(
            (0u8..4, 0usize..5, 0usize..5, any::<bool>(), 1usize..7),
            1..80,
        ),
    ) {
        const L_VALS: [f64; 5] = [0.0, -0.0, 1.0, 2.0, f64::NAN];
        // Reference: per shard, every agent's ring in full, oldest first;
        // foreign records wait for the next barrier, as they did when
        // every experience was replicated.
        let mut rings = vec![vec![VecDeque::<Experience>::new(); agents]; agents];
        let mut waiting: Vec<Experience> = Vec::new();
        let mut shards: Vec<SharedLearningMemory> = (0..agents)
            .map(|g| SharedLearningMemory::for_shard(agents, depth, g))
            .collect();
        let mut changed = vec![false; agents];
        let push = |ring: &mut VecDeque<Experience>, e: Experience| {
            if ring.len() == depth {
                ring.pop_front();
            }
            ring.push_back(e);
        };
        for (i, &(kind, agent, l, identical, opnum)) in events.iter().enumerate() {
            if kind == 0 {
                for e in waiting.drain(..) {
                    for (g, shard_rings) in rings.iter_mut().enumerate() {
                        if g != e.agent as usize {
                            push(&mut shard_rings[e.agent as usize], e);
                        }
                    }
                }
                for h in 0..agents {
                    if std::mem::take(&mut changed[h]) {
                        let summary = shards[h].summary(h as u32);
                        for (g, shard) in shards.iter_mut().enumerate() {
                            if g != h {
                                shard.set_summary(h as u32, summary);
                            }
                        }
                    }
                }
            } else {
                let h = agent % agents;
                let e = Experience {
                    agent: h as u32,
                    action: ActionChoice {
                        policy: if identical { PolicyKind::Identical } else { PolicyKind::Mixed },
                        opnum,
                    },
                    l_val: L_VALS[l],
                    cycle: i as u64,
                };
                push(&mut rings[h][h], e);
                waiting.push(e);
                shards[h].record(e);
                changed[h] = true;
            }
            for g in 0..agents {
                let want = rings[g]
                    .iter()
                    .flatten()
                    .copied()
                    .max_by(|a, b| a.l_val.total_cmp(&b.l_val));
                let got = shards[g].best_shared();
                let key = |e: Option<Experience>| {
                    e.map(|e| (e.agent, e.action, e.l_val.to_bits(), e.cycle))
                };
                prop_assert_eq!(key(got), key(want), "shard {} after event {}", g, i);
                let len: usize = rings[g].iter().map(VecDeque::len).sum();
                prop_assert_eq!(shards[g].len(), len, "shard {} after event {}", g, i);
            }
        }
    }

    #[test]
    fn learning_value_is_monotone(
        r1 in 0u32..50, r2 in 0u32..50,
        e1 in 0.0f64..10.0, e2 in 0.0f64..10.0,
        floor in 0.001f64..1.0,
    ) {
        // More reward at equal error never decreases l_val; more error at
        // equal reward never increases it.
        let (rlo, rhi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(learning_value(rhi, e1, floor) >= learning_value(rlo, e1, floor));
        let (elo, ehi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(learning_value(r1, elo, floor) >= learning_value(r1, ehi, floor));
        prop_assert!(learning_value(r1, e1, floor).is_finite());
    }

    #[test]
    fn candidate_actions_cover_the_space(max_procs in 1usize..12) {
        let c = ActionChoice::candidates(max_procs);
        prop_assert_eq!(c.len(), 2 * max_procs);
        for a in &c {
            prop_assert!(a.opnum >= 1 && a.opnum <= max_procs);
            let f = a.features(max_procs);
            prop_assert!(f[0] > 0.0 && f[0] <= 1.0);
            prop_assert_eq!(f[1] + f[2], 1.0, "policy one-hot");
        }
    }
}
