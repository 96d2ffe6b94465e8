//! Property test for the incremental platform-state caches.
//!
//! The platform maintains per-node aggregates (idle/asleep/failed counts,
//! per-proc power, queue load) and per-site aggregates ([`SiteStats`])
//! incrementally at each state transition. This test drives random
//! interleavings of every transition kind — dispatch, start, finish,
//! sleep, wake, fault, recovery, throttle — through the `Platform`
//! wrappers and asserts after every single step that the cached values
//! equal a full naive recomputation (bit-identical for the float
//! aggregates). Queues hold 1–3 groups, so enqueues regularly meet a full
//! queue and the open-node count moves both ways.

use platform::queue::QueuedGroup;
use platform::{GroupId, GroupPolicy, NodeAddr, Platform, PlatformSpec, ProcState, TaskGroup};
use proptest::prelude::*;
use simcore::rng::RngStream;
use simcore::time::SimTime;
use workload::{Priority, SiteId, Task, TaskId};

/// One random transition request. Addresses are taken modulo the actual
/// platform shape; requests illegal in the current state are skipped (the
/// generator does not need to know the state machine).
#[derive(Debug, Clone, Copy)]
enum Op {
    Enqueue { node: u8, tasks: u8 },
    RemoveGroup { node: u8, pick: u8 },
    Start { node: u8, proc: u8 },
    Finish { node: u8, proc: u8 },
    Sleep { node: u8, proc: u8 },
    BeginWake { node: u8, proc: u8 },
    FinishWake { node: u8, proc: u8 },
    Fail { node: u8, proc: u8 },
    Recover { node: u8, proc: u8 },
    Throttle { node: u8, level_pct: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1u8..=3).prop_map(|(node, tasks)| Op::Enqueue { node, tasks }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, pick)| Op::RemoveGroup { node, pick }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, proc)| Op::Start { node, proc }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, proc)| Op::Finish { node, proc }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, proc)| Op::Sleep { node, proc }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, proc)| Op::BeginWake { node, proc }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, proc)| Op::FinishWake { node, proc }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, proc)| Op::Fail { node, proc }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, proc)| Op::Recover { node, proc }),
        (any::<u8>(), 10u8..=100).prop_map(|(node, level_pct)| Op::Throttle { node, level_pct }),
    ]
}

fn mk_task(id: u64, now: SimTime, site: SiteId) -> Task {
    Task {
        id: TaskId(id),
        size_mi: 500.0 + (id % 7) as f64 * 250.0,
        arrival: now,
        deadline: SimTime::new(now.as_f64() + 50.0),
        priority: Priority::Medium,
        site,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    fn cached_aggregates_match_naive_recomputation(
        seed in 0u64..1_000,
        queue_capacity in 1usize..=3,
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let spec = PlatformSpec { queue_capacity, ..PlatformSpec::small(2, 3, 4) };
        let mut platform = Platform::generate(spec, &RngStream::root(seed));
        let num_sites = platform.num_sites();
        let mut now = SimTime::new(1.0);
        let mut next_id: u64 = 1;
        // Per-node ledger of (queued group ids, per-proc running group id)
        // so Finish/RemoveGroup target real entities.
        let all_addrs: Vec<NodeAddr> = platform.node_addrs().collect();
        let mut queued: Vec<Vec<GroupId>> = vec![Vec::new(); all_addrs.len()];
        // Scheduled finish instant of each running task — completions must
        // fire exactly on time, like the real engine's TaskDone events.
        let mut running: Vec<Vec<Option<SimTime>>> = all_addrs
            .iter()
            .map(|&a| vec![None; platform.node(a).num_processors()])
            .collect();
        // Wake-ready instant of each waking processor — a wake may not
        // complete before its latency has elapsed.
        let mut waking = running.clone();

        for op in ops {
            now = SimTime::new(now.as_f64() + 0.5);
            let ni = |node: u8| node as usize % all_addrs.len();
            match op {
                Op::Enqueue { node, tasks } => {
                    let i = ni(node);
                    let addr = all_addrs[i];
                    let site = SiteId(addr.site.0 % num_sites as u32);
                    let members: Vec<Task> = (0..tasks)
                        .map(|_| { let t = mk_task(next_id, now, site); next_id += 1; t })
                        .collect();
                    let gid = GroupId(next_id); next_id += 1;
                    let qg = QueuedGroup::new(
                        TaskGroup::new(gid, members, GroupPolicy::Mixed),
                        now,
                    );
                    if platform.enqueue_group(addr, qg).is_ok() {
                        queued[i].push(gid);
                    }
                }
                Op::RemoveGroup { node, pick } => {
                    let i = ni(node);
                    if queued[i].is_empty() { continue; }
                    let at = pick as usize % queued[i].len();
                    let gid = queued[i].remove(at);
                    prop_assert!(platform.remove_group(all_addrs[i], gid).is_some());
                }
                Op::Start { node, proc } => {
                    let i = ni(node);
                    let addr = all_addrs[i];
                    let p = proc as usize % platform.node(addr).num_processors();
                    if platform.node(addr).processors[p].is_idle() {
                        let gid = GroupId(next_id); next_id += 1;
                        let tid = TaskId(next_id); next_id += 1;
                        let finish = platform.start_task_on(addr, p, now, tid, gid, 1000.0);
                        running[i][p] = Some(finish);
                    }
                }
                Op::Finish { node, proc } => {
                    let i = ni(node);
                    let addr = all_addrs[i];
                    let p = proc as usize % platform.node(addr).num_processors();
                    // A completion may only fire at its scheduled instant;
                    // one already in the past is unreachable under a
                    // monotonic clock and stays busy (as it would if its
                    // TaskDone event had been superseded).
                    if let Some(finish) = running[i][p] {
                        if finish >= now && platform.node(addr).processors[p].is_busy() {
                            now = finish;
                            platform.finish_task_on(addr, p, now);
                            running[i][p] = None;
                        }
                    }
                }
                Op::Sleep { node, proc } => {
                    let i = ni(node);
                    let addr = all_addrs[i];
                    let p = proc as usize % platform.node(addr).num_processors();
                    if platform.node(addr).processors[p].is_idle() {
                        prop_assert!(platform.sleep_proc(addr, p, now));
                    }
                }
                Op::BeginWake { node, proc } => {
                    let i = ni(node);
                    let addr = all_addrs[i];
                    let p = proc as usize % platform.node(addr).num_processors();
                    if platform.node(addr).processors[p].is_asleep() {
                        let until = platform.begin_wake_proc(addr, p, now);
                        prop_assert!(until.is_some());
                        waking[i][p] = until;
                    }
                }
                Op::FinishWake { node, proc } => {
                    let i = ni(node);
                    let addr = all_addrs[i];
                    let p = proc as usize % platform.node(addr).num_processors();
                    if matches!(platform.node(addr).processors[p].state(), ProcState::Waking { .. }) {
                        if let Some(until) = waking[i][p] {
                            if until > now {
                                now = until;
                            }
                            platform.finish_wake_proc(addr, p, now);
                            waking[i][p] = None;
                        }
                    }
                }
                Op::Fail { node, proc } => {
                    let i = ni(node);
                    let addr = all_addrs[i];
                    let p = proc as usize % platform.node(addr).num_processors();
                    if !platform.node(addr).processors[p].is_failed() {
                        platform.fail_proc(addr, p, now);
                        running[i][p] = None;
                        waking[i][p] = None;
                    }
                }
                Op::Recover { node, proc } => {
                    let i = ni(node);
                    let addr = all_addrs[i];
                    let p = proc as usize % platform.node(addr).num_processors();
                    if platform.node(addr).processors[p].is_failed() {
                        platform.recover_proc(addr, p, now);
                    }
                }
                Op::Throttle { node, level_pct } => {
                    let addr = all_addrs[ni(node)];
                    platform.set_throttle(addr, f64::from(level_pct) / 100.0);
                }
            }
            // The whole point: after EVERY transition, every cached
            // aggregate — node-level counts, power caches, queue loads,
            // and site-level stats — must equal naive recomputation.
            platform.assert_stats_consistent();
        }
    }
}
