//! Sharded parallel simulation: per-site shards with deterministic epoch
//! barriers.
//!
//! One resource site = one shard. Each shard owns a private calendar
//! event queue, scheduler instance (with its own counter-based RNG
//! stream), and incremental aggregates, and is advanced by a worker
//! thread in conservative time windows sized from the control-tick
//! cadence (`ExecConfig::tick_interval`). At the end of every window all
//! threads meet at an epoch barrier where cross-shard interactions —
//! shared learning-memory sync for the Adaptive-RL policy, surfaced
//! through [`Scheduler::drain_sync`] / [`Scheduler::apply_sync`] — are
//! merged, sorted by the canonical `(time, seq, site)` key, and applied.
//! Because every shard sees the same record sequence at the same epoch
//! regardless of which thread ran it, results are **bit-reproducible
//! across thread counts**: `run_sharded` with `n` shards byte-matches
//! `run_sharded` with 1 shard.
//!
//! The sharded protocol is *decentralised by construction*: each site's
//! agent makes dispatch decisions against its own site only, and
//! learning state propagates with one-epoch latency. That is a
//! different (arguably more faithful to the paper's §III multi-agent
//! story) semantics than the sequential engine, whose global event loop
//! gives every site a dispatch opportunity on every event anywhere in
//! the platform — so sharded results are pinned by their own goldens
//! and compared against `shards = 1`, not against the sequential
//! engine. See DESIGN.md §14.
//!
//! The barrier protocol per epoch `k` (window `W` = tick interval):
//!
//! 1. every worker advances each of its shards through `(k+1)·W`
//!    (inclusive) with [`simcore::engine::Engine::run_until`],
//! 2. workers drain each shard's sync records and per-site progress into
//!    their post box; **barrier A**,
//! 3. the coordinator merges all records, sorts by `(time, seq, site)`,
//!    runs the cross-shard conservation check (per-site resolved counts
//!    monotone, total within the submitted task count), and decides
//!    whether every shard has finished; **barrier B**,
//! 4. workers apply the merged records from *foreign* sites to their
//!    shards in canonical order, then either start epoch `k+1` or
//!    finalise at the global horizon the coordinator published.

use crate::engine::{assemble_result, ExecConfig, ExecEngine, RunResult};
use crate::fault::{FaultPlan, FaultTarget, PlannedFault};
use crate::group::GroupId;
use crate::oracle::{audit_result, AuditReport};
use crate::scheduler::{Scheduler, SyncRecord};
use crate::topology::{Platform, PlatformSpec};
use simcore::engine::RunOutcome;
use simcore::rng::RngStream;
use simcore::time::SimTime;
use std::sync::{Barrier, Mutex};
use workload::{SiteId, Task, TaskId};

/// Everything one shard needs before its worker thread builds the
/// driver: the single-site sub-platform, the site's tasks re-densified
/// to local ids, the side map back to global ids, and the site's slice
/// of the global fault plan.
struct SiteBundle {
    global_site: u32,
    platform: Platform,
    tasks: Vec<Task>,
    /// Local dense task id → global task id.
    task_ids: Vec<TaskId>,
    plan: FaultPlan,
}

/// Per-site progress snapshot posted at every barrier.
struct SiteStatus {
    site: u32,
    resolved: usize,
    done: bool,
    /// The site's current energy horizon (settlement or last completion).
    horizon: f64,
}

/// One worker's barrier post box.
#[derive(Default)]
struct EpochPost {
    records: Vec<SyncRecord>,
    sites: Vec<SiteStatus>,
}

impl EpochPost {
    fn empty() -> Self {
        EpochPost {
            records: Vec::new(),
            sites: Vec::new(),
        }
    }
}

/// The coordinator's reply, written between barriers A and B.
#[derive(Default)]
struct EpochCtl {
    /// All shards' records this epoch, in canonical order.
    merged: Vec<SyncRecord>,
    /// `Some(global horizon)` once every shard has finished.
    finish: Option<f64>,
}

/// Default shard count for `--shards auto`: the machine's available
/// parallelism, clamped to the site count (more threads than sites
/// cannot help) and at least 1.
pub fn auto_shards(num_sites: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, num_sites.max(1))
}

/// Splits a platform + workload + fault plan into per-site bundles.
///
/// The fault plan is generated **once against the full platform** (so
/// the fault timeline is identical to a sequential run of the same
/// spec), then partitioned by the failing processor's site.
fn decompose(platform: Platform, tasks: Vec<Task>, cfg: &ExecConfig) -> Vec<SiteBundle> {
    let full_plan = if cfg.faults.enabled && cfg.faults.is_active() {
        FaultPlan::generate(&cfg.faults, &platform, &RngStream::root(cfg.faults.seed))
    } else {
        FaultPlan::empty()
    };
    let sub_spec = PlatformSpec {
        num_sites: 1,
        ..platform.spec.clone()
    };
    let mut bundles: Vec<SiteBundle> = platform
        .sites
        .into_iter()
        .enumerate()
        .map(|(g, mut site)| {
            site.id = SiteId(0);
            for node in &mut site.nodes {
                node.addr.site = SiteId(0);
            }
            SiteBundle {
                global_site: g as u32,
                platform: Platform::from_parts(sub_spec.clone(), vec![site]),
                tasks: Vec::new(),
                task_ids: Vec::new(),
                plan: FaultPlan::empty(),
            }
        })
        .collect();
    // Partition tasks in arrival (= id) order, re-densifying ids per
    // site; the side map restores global ids at result assembly.
    for t in tasks {
        let b = &mut bundles[t.site.0 as usize];
        let mut local = t;
        local.id = TaskId(b.tasks.len() as u64);
        local.site = SiteId(0);
        b.task_ids.push(t.id);
        b.tasks.push(local);
    }
    for f in &full_plan.events {
        let g = f.target.node().site.0 as usize;
        let mut local = PlannedFault {
            at: f.at,
            target: f.target,
            recover_at: f.recover_at,
        };
        match &mut local.target {
            FaultTarget::Proc(p) => p.node.site = SiteId(0),
            FaultTarget::Node(n) => n.site = SiteId(0),
        }
        bundles[g].plan.events.push(local);
    }
    bundles
}

/// Maps one shard's local [`RunResult`] back into global task / site /
/// group ids. Group ids pack the site into the high bits so they stay
/// unique across shards ([`GroupId::NONE`] is preserved).
fn remap_result(r: &mut RunResult, g: u32, task_ids: &[TaskId]) {
    for rec in &mut r.records {
        rec.task = task_ids[rec.task.0 as usize];
        rec.site = SiteId(g);
        rec.node.site = SiteId(g);
        if rec.group != GroupId::NONE {
            rec.group = GroupId((u64::from(g) << 40) | rec.group.0);
        }
    }
}

/// Severity rank of a run outcome string for the merged verdict.
fn outcome_rank(o: &str) -> u8 {
    match o {
        "FuseBlown" => 3,
        "Stopped" => 2,
        "Paused" => 1,
        _ => 0,
    }
}

/// Folds per-shard results (in site order) into one cluster-level
/// [`RunResult`]. `extra` carries the coordinator's cross-shard
/// conservation findings.
fn merge_results(
    mut parts: Vec<RunResult>,
    spec: PlatformSpec,
    extra: AuditReport,
    audit_on: bool,
) -> RunResult {
    assert!(!parts.is_empty(), "need at least one shard result");
    let scheduler = parts[0].scheduler.clone();
    let mut audit_parts: Vec<AuditReport> = Vec::new();
    let mut records = Vec::new();
    let mut cycle_rows: Vec<(u64, u32, usize, f64, f64)> = Vec::new();
    let mut num_tasks = 0;
    let mut incomplete = 0;
    let mut makespan = 0.0_f64;
    let mut total_energy = 0.0;
    let mut util_weighted = 0.0;
    let mut groups_dispatched = 0;
    let mut groups_completed = 0;
    let mut split_starts = 0;
    let mut rejections = 0;
    let mut tasks_failed = 0;
    let mut groups_aborted = 0;
    let mut faults_injected = 0;
    let mut faults_recovered = 0;
    let mut preemptions = 0;
    let mut retries = 0;
    let mut total_procs = 0;
    let mut total_mips = 0.0;
    let mut arrival_horizon = 0.0_f64;
    let mut events_processed = 0;
    let mut max_queue_occupancy = 0;
    let mut worst = 0u8;
    let mut outcome = "Drained".to_string();
    for (site, p) in parts.iter_mut().enumerate() {
        records.append(&mut p.records);
        // Per-site cycle logs carry site-cumulative work; re-express as
        // deltas keyed by (time, site, local index) for the k-way merge.
        let mut prev = 0.0;
        for (i, c) in p.cycles.iter().enumerate() {
            cycle_rows.push((c.time.to_bits(), site as u32, i, c.time, c.work_mi - prev));
            prev = c.work_mi;
        }
        num_tasks += p.num_tasks;
        incomplete += p.incomplete;
        makespan = makespan.max(p.makespan);
        total_energy += p.total_energy;
        util_weighted += p.mean_utilisation * p.total_procs as f64;
        groups_dispatched += p.groups_dispatched;
        groups_completed += p.groups_completed;
        split_starts += p.split_starts;
        rejections += p.rejections;
        tasks_failed += p.tasks_failed;
        groups_aborted += p.groups_aborted;
        faults_injected += p.faults_injected;
        faults_recovered += p.faults_recovered;
        preemptions += p.preemptions;
        retries += p.retries;
        total_procs += p.total_procs;
        total_mips += p.total_mips;
        arrival_horizon = arrival_horizon.max(p.arrival_horizon);
        events_processed += p.events_processed;
        max_queue_occupancy = max_queue_occupancy.max(p.max_queue_occupancy);
        let rank = outcome_rank(&p.outcome);
        if rank > worst {
            worst = rank;
            outcome = p.outcome.clone();
        }
        if let Some(a) = p.audit.take() {
            audit_parts.push(a);
        }
    }
    records.sort_by_key(|r| r.task.0);
    // Sim times are non-negative finite, so f64 bit order is numeric
    // order; ties break by site then per-site sequence — the same
    // canonical key the sync layer uses.
    cycle_rows.sort_by_key(|&(bits, site, idx, _, _)| (bits, site, idx));
    let mut cycles = Vec::with_capacity(cycle_rows.len());
    let mut work = 0.0;
    for (i, &(_, _, _, time, delta)) in cycle_rows.iter().enumerate() {
        work += delta;
        cycles.push(crate::engine::CycleSample {
            cycle: (i + 1) as u64,
            time,
            work_mi: work,
        });
    }
    let mean_utilisation = if total_procs > 0 {
        util_weighted / total_procs as f64
    } else {
        0.0
    };
    let mut result = RunResult {
        scheduler,
        records,
        incomplete,
        num_tasks,
        makespan,
        total_energy,
        mean_utilisation,
        cycles,
        groups_dispatched,
        groups_completed,
        split_starts,
        rejections,
        tasks_failed,
        groups_aborted,
        faults_injected,
        faults_recovered,
        preemptions,
        retries,
        total_procs,
        total_mips,
        arrival_horizon,
        platform_spec: spec,
        outcome,
        events_processed,
        max_queue_occupancy,
        timeseries: None,
        audit: None,
    };
    if audit_on {
        let mut report = extra;
        for a in audit_parts {
            report.merge(a);
        }
        report.merge(audit_result(&result));
        result.audit = Some(report);
    }
    result
}

/// Runs one scheduler family over a platform with per-site shards spread
/// across `shards` worker threads (clamped to `[1, num_sites]`).
///
/// `factory(g)` builds the scheduler instance owning global site `g`; it
/// must derive any randomness deterministically from `g` so results are
/// independent of which thread runs which site. All sites of one run use
/// the same concrete scheduler type, so each worker owns a plain
/// `Vec<S>` and drives disjoint per-site engines between barriers.
///
/// With `cfg.audit` set, every shard runs its own oracle and the
/// coordinator's cross-shard conservation findings are folded into the
/// merged report.
///
/// Results are bit-identical for every `shards` value — the epoch
/// protocol (window size, sync batching, canonical record order) does
/// not depend on the thread count.
pub fn run_sharded<S: Scheduler + Send>(
    platform: Platform,
    tasks: Vec<Task>,
    cfg: ExecConfig,
    shards: usize,
    factory: &(dyn Fn(usize) -> S + Sync),
) -> RunResult {
    let num_sites = platform.num_sites();
    assert!(num_sites > 0, "need at least one site");
    assert!(
        cfg.tick_interval > 0.0,
        "sharded runs need a positive tick interval for the epoch window"
    );
    let spec = platform.spec.clone();
    let num_tasks = tasks.len();
    let shards = shards.clamp(1, num_sites);
    let window = cfg.tick_interval;
    let bundles = decompose(platform, tasks, &cfg);

    // Round-robin the sites across workers; the assignment is invisible
    // to results (each site's trajectory depends only on its own events
    // and the canonical sync stream).
    let mut per_worker: Vec<Vec<SiteBundle>> = (0..shards).map(|_| Vec::new()).collect();
    for (g, b) in bundles.into_iter().enumerate() {
        per_worker[g % shards].push(b);
    }

    let barrier = Barrier::new(shards + 1);
    let posts: Vec<Mutex<EpochPost>> = (0..shards)
        .map(|_| Mutex::new(EpochPost::empty()))
        .collect();
    let ctl: Mutex<EpochCtl> = Mutex::new(EpochCtl::default());
    let results: Vec<Mutex<Option<RunResult>>> = (0..num_sites).map(|_| Mutex::new(None)).collect();

    let mut extra = AuditReport::default();
    std::thread::scope(|scope| {
        for (w, my_bundles) in per_worker.into_iter().enumerate() {
            let barrier = &barrier;
            let posts = &posts;
            let ctl = &ctl;
            let results = &results;
            scope.spawn(move || {
                run_worker(
                    my_bundles, cfg, factory, barrier, &posts[w], ctl, results, window,
                );
            });
        }
        // Coordinator: merge + conservation check between the barriers.
        let mut prev_resolved = vec![0usize; num_sites];
        let mut epoch = 0u64;
        loop {
            barrier.wait(); // A: every worker has posted.
            let now = (epoch + 1) as f64 * window;
            let mut merged: Vec<SyncRecord> = Vec::new();
            let mut all_done = true;
            let mut horizon = 0.0_f64;
            let mut resolved_sum = 0usize;
            for post in posts.iter() {
                let mut post = post.lock().expect("post box poisoned");
                merged.append(&mut post.records);
                for s in &post.sites {
                    extra.checks += 1;
                    if s.resolved < prev_resolved[s.site as usize] {
                        extra.violate(
                            "shard.resolved-monotone",
                            now,
                            format!(
                                "site {} resolved count fell {} -> {}",
                                s.site, prev_resolved[s.site as usize], s.resolved
                            ),
                        );
                    }
                    prev_resolved[s.site as usize] = s.resolved;
                    resolved_sum += s.resolved;
                    all_done &= s.done;
                    horizon = horizon.max(s.horizon);
                }
            }
            extra.checks += 1;
            if resolved_sum > num_tasks {
                extra.violate(
                    "shard.conservation",
                    now,
                    format!("{resolved_sum} tasks resolved across shards, {num_tasks} submitted"),
                );
            }
            merged.sort_by_key(|r| r.key());
            let mut c = ctl.lock().expect("ctl poisoned");
            c.merged = merged;
            c.finish = all_done.then_some(horizon);
            let fin = c.finish.is_some();
            drop(c);
            barrier.wait(); // B: reply visible to every worker.
            if fin {
                break;
            }
            epoch += 1;
        }
    });

    let parts: Vec<RunResult> = results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every shard deposits a result")
        })
        .collect();
    merge_results(parts, spec, extra, cfg.audit)
}

/// One worker thread: builds its shards' schedulers and engines, then
/// runs the epoch loop until the coordinator publishes the finish
/// horizon.
#[allow(clippy::too_many_arguments)]
fn run_worker<S: Scheduler + Send>(
    bundles: Vec<SiteBundle>,
    cfg: ExecConfig,
    factory: &(dyn Fn(usize) -> S + Sync),
    barrier: &Barrier,
    my_post: &Mutex<EpochPost>,
    ctl: &Mutex<EpochCtl>,
    results: &[Mutex<Option<RunResult>>],
    window: f64,
) {
    struct ShardSim<'s> {
        driver: crate::engine::Driver<'s>,
        engine: simcore::engine::Engine<crate::engine::Ev>,
        global_site: u32,
        task_ids: Vec<TaskId>,
        outcome: Option<RunOutcome>,
    }

    let mut scheds: Vec<S> = bundles
        .iter()
        .map(|b| factory(b.global_site as usize))
        .collect();
    let mut sims: Vec<ShardSim<'_>> = scheds
        .iter_mut()
        .zip(bundles)
        .map(|(sched, b)| {
            let exec = ExecEngine::new(cfg).with_fault_plan(b.plan);
            let (driver, engine) = exec.prepare(b.platform, b.tasks, sched);
            ShardSim {
                driver,
                engine,
                global_site: b.global_site,
                task_ids: b.task_ids,
                outcome: None,
            }
        })
        .collect();

    let mut epoch = 0u64;
    let finish = loop {
        let until = SimTime::new((epoch + 1) as f64 * window);
        for sim in &mut sims {
            if sim.outcome.is_some() {
                continue;
            }
            match sim.engine.run_until(until, &mut sim.driver) {
                RunOutcome::Paused => {}
                done => sim.outcome = Some(done),
            }
        }
        {
            let mut post = my_post.lock().expect("post box poisoned");
            post.records.clear();
            post.sites.clear();
            for sim in &mut sims {
                sim.driver.sched.drain_sync(&mut post.records);
                post.sites.push(SiteStatus {
                    site: sim.global_site,
                    resolved: sim.driver.completed + sim.driver.failed_tasks,
                    done: sim.outcome.is_some(),
                    horizon: sim
                        .driver
                        .settled_at
                        .max(sim.driver.last_completion)
                        .as_f64(),
                });
            }
        }
        barrier.wait(); // A
        barrier.wait(); // B
        let c = ctl.lock().expect("ctl poisoned");
        for rec in &c.merged {
            for sim in &mut sims {
                if rec.site != sim.global_site {
                    sim.driver.sched.apply_sync(rec);
                }
            }
        }
        if let Some(h) = c.finish {
            break h;
        }
        drop(c);
        epoch += 1;
    };

    let global_horizon = SimTime::new(finish);
    for sim in sims {
        let outcome = sim.outcome.unwrap_or(RunOutcome::Paused);
        let mut r = assemble_result(sim.driver, &sim.engine, outcome, Some(global_horizon));
        remap_result(&mut r, sim.global_site, &sim.task_ids);
        *results[sim.global_site as usize]
            .lock()
            .expect("result slot poisoned") = Some(r);
    }
}
