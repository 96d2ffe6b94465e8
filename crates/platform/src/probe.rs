//! One observer interface for the execution driver.
//!
//! The driver reports every state transition, in order, as a [`Hook`] to
//! the probes it holds as one `Vec<Box<dyn Probe>>`; an unobserved run
//! pays one empty-vector check per hook site. The probes are the
//! [`Oracle`](crate::oracle::Oracle), the recorder ([`TraceProbe`]), live
//! metrics with the sampler ([`MonitorProbe`](crate::monitor::MonitorProbe))
//! and the profiler ([`ProfileProbe`]). They only observe; a probe that
//! needs more than a hook carries reads it from the `&Platform` it gets.

use crate::engine::{Ev, RunResult};
use crate::fault::{FaultTarget, PlannedFault};
use crate::group::GroupId;
use crate::ids::NodeAddr;
use crate::oracle::RunTotals;
use crate::scheduler::{AssignmentFeedback, GroupFeedback};
use crate::topology::{Platform, SiteStats};
use simcore::time::SimTime;
use std::sync::Arc;
use std::time::Instant;
use telemetry::{Phase, PhaseProfiler, Progress, Recorder, TraceLevel, Value};
use workload::{SiteId, Task, TaskId};

/// One driver transition. Processors are flat indices (site-major, then
/// node-major).
#[derive(Clone, Copy)]
pub(crate) enum Hook<'a> {
    /// An engine event is about to be handled; the count of the run's
    /// events, this one included.
    Event(&'a Ev, u64),
    /// The handler of the last `Event` returned.
    EventEnd,
    /// A task arrived at its site agent.
    Arrival(TaskId),
    /// A dispatch round that returned commands took this many wall-clock
    /// seconds (only when a probe [times decisions](Probe::times_decisions)).
    Decision(f64),
    /// A dispatch command bounced back to the scheduler.
    Rejected,
    /// These tasks were pushed as one group onto the feedback's node queue.
    Dispatch(&'a AssignmentFeedback, &'a [Task]),
    /// A queued member began executing: task, group, processor, the
    /// node's throttle, and whether it started through the split process.
    Start(TaskId, GroupId, usize, f64, bool),
    /// The task running on the processor finished (met its deadline or not).
    Finish(&'a Task, usize, bool),
    /// A running task was preempted by a failure.
    Preempt(TaskId),
    /// An unstarted member was detached from an aborted group.
    Detach(TaskId),
    /// A lost task went back to its site agent for another attempt.
    Retried,
    /// A task was abandoned (retry budget exhausted or site dead).
    GiveUp(TaskId),
    /// A group completed; this is the learning cycle with that number.
    GroupComplete(&'a GroupFeedback, u64),
    /// A queued group on the node was destroyed by a failure, orphaning
    /// that many of its members.
    GroupAbort(NodeAddr, GroupId, usize),
    /// An idle processor went to sleep.
    ProcSleep(usize),
    /// A sleeping processor began waking.
    WakeBegin(usize),
    /// A waking processor became usable.
    WakeEnd(usize),
    /// A processor crashed.
    ProcFail(usize),
    /// A failed processor recovered.
    ProcRecover(usize),
    /// A planned fault was applied, preempting that many tasks.
    Fault(&'a PlannedFault, usize),
    /// A planned outage of the node ended.
    Recover(NodeAddr),
}

/// Driver-wide tallies handed to [`Probe::tick`] and [`Probe::finish`]:
/// tasks finished (met or missed), met, abandoned and submitted, engine
/// events processed, and the scheduler's exploration rate.
pub(crate) struct RunView<'a> {
    pub(crate) platform: &'a Platform,
    pub(crate) now: SimTime,
    pub(crate) completed: usize,
    pub(crate) met: usize,
    pub(crate) failed: usize,
    pub(crate) total: usize,
    pub(crate) events: u64,
    pub(crate) epsilon: Option<f64>,
}

/// Observer of one driver.
pub(crate) trait Probe {
    /// One transition at sim time `now`.
    fn on(&mut self, platform: &Platform, now: SimTime, hook: Hook<'_>);

    /// Whether this probe wants [`Hook::Decision`]; the driver only reads
    /// the clock around `Scheduler::dispatch` when one does.
    fn times_decisions(&self) -> bool {
        false
    }

    /// A control tick of an unsettled run (also the serving daemon's
    /// periodic refresh).
    fn tick(&mut self, _run: &RunView<'_>) {}

    /// The run ended at `run.now`; probes deposit what they produced into
    /// `result`.
    fn finish(self: Box<Self>, _run: &RunView<'_>, _end: &RunTotals, _result: &mut RunResult) {}
}

/// Queue-depth/idle/failed counts and instantaneous power of one site.
pub(crate) fn site_snapshot(platform: &Platform, site: SiteId) -> (SiteStats, f64) {
    let st = platform.site_stats(site);
    let power: f64 = platform.sites[site.0 as usize]
        .nodes
        .iter()
        .map(|n| n.power_sum())
        .sum();
    (st, power)
}

/// Feeds a telemetry [`Recorder`]: dispatch spans, completion and abort
/// markers, fault/recovery markers with per-site snapshots, counters,
/// histograms, progress snapshots and (at [`TraceLevel::All`]) one record
/// per engine event.
pub(crate) struct TraceProbe {
    rec: Arc<dyn Recorder>,
    /// Level gates resolved once at attach time.
    cycles: bool,
    decisions: bool,
    firehose: bool,
    progress: bool,
    wall_start: Instant,
}

/// Flat node index across the platform: each node renders as its own
/// Chrome-trace track.
fn track(platform: &Platform, addr: NodeAddr) -> u32 {
    let before = &platform.sites[..addr.site.0 as usize];
    before.iter().map(|s| s.nodes.len() as u32).sum::<u32>() + addr.node
}

impl TraceProbe {
    pub(crate) fn new(rec: Arc<dyn Recorder>) -> TraceProbe {
        TraceProbe {
            cycles: rec.wants(TraceLevel::Cycles),
            decisions: rec.wants(TraceLevel::Decisions),
            firehose: rec.wants(TraceLevel::All),
            progress: rec.wants_progress(),
            rec,
            wall_start: Instant::now(),
        }
    }

    fn queued_gauge(&self, platform: &Platform, site: SiteId, now: SimTime) {
        self.rec.gauge(
            &format!("queued.site{}", site.0),
            now.as_f64(),
            platform.site_stats(site).queued_groups as f64,
        );
    }

    fn emit_progress(&self, run: &RunView<'_>) {
        self.rec.progress(&Progress {
            sim_time: run.now.as_f64(),
            wall_s: self.wall_start.elapsed().as_secs_f64(),
            done: run.completed + run.failed,
            total: run.total,
            met: run.met,
            energy: run.platform.total_energy_at(run.now),
            events: run.events,
        });
    }

    /// Adds one to a counter (a `cycles`-level record).
    fn count(&self, name: &'static str) {
        if self.cycles {
            self.rec.counter_add(name, 1);
        }
    }
}

impl Probe for TraceProbe {
    fn on(&mut self, platform: &Platform, now: SimTime, hook: Hook<'_>) {
        let t = now.as_f64();
        match hook {
            Hook::Event(event, seq) if self.firehose => {
                let wall_us = self.wall_start.elapsed().as_secs_f64() * 1e6;
                let fields = [
                    ("kind", Value::Str(event.name())),
                    ("seq", Value::U64(seq)),
                    ("wall_us", Value::F64(wall_us)),
                ];
                self.rec.event("engine.event", t, 0, &fields);
            }
            Hook::Decision(secs) if self.decisions => {
                self.rec.histogram("decision_latency_us", secs * 1e6);
            }
            Hook::Rejected => self.count("dispatch.rejected"),
            Hook::Dispatch(fb, _) => {
                self.count("groups.dispatched");
                if self.decisions {
                    let addr = fb.node;
                    let (st, power) = site_snapshot(platform, addr.site);
                    let fields = [
                        ("site", Value::U64(addr.site.0 as u64)),
                        ("node", Value::U64(addr.node as u64)),
                        ("size", Value::U64(fb.size as u64)),
                        ("pw", Value::F64(fb.pw)),
                        ("capacity", Value::F64(fb.capacity)),
                        ("err", Value::F64(fb.error)),
                        ("site_queued", Value::U64(st.queued_groups as u64)),
                        ("site_idle", Value::U64(st.idle as u64)),
                        ("site_power_w", Value::F64(power)),
                    ];
                    self.rec
                        .span_begin("group", fb.group.0, t, track(platform, addr), &fields);
                    self.queued_gauge(platform, addr.site, now);
                }
            }
            Hook::Start(.., true) => self.count("split.starts"),
            Hook::Finish(task, _, met) if self.cycles => {
                self.rec.counter_add("tasks.completed", 1);
                if met {
                    self.rec.counter_add("tasks.met", 1);
                }
                self.rec
                    .histogram("task_response_s", now.since(task.arrival).as_f64());
            }
            Hook::Preempt(_) => self.count("tasks.preempted"),
            Hook::Retried => self.count("tasks.retried"),
            Hook::GiveUp(_) => self.count("tasks.failed"),
            Hook::GroupComplete(fb, cycle) => {
                let addr = fb.node;
                if self.decisions {
                    self.rec
                        .span_end("group", fb.group.0, t, track(platform, addr));
                    self.queued_gauge(platform, addr.site, now);
                }
                if self.cycles {
                    self.rec.counter_add("groups.completed", 1);
                    self.rec.histogram("queue_wait_s", fb.wait_time());
                    let fields = [
                        ("cycle", Value::U64(cycle)),
                        ("site", Value::U64(addr.site.0 as u64)),
                        ("node", Value::U64(addr.node as u64)),
                        ("size", Value::U64(fb.size as u64)),
                        ("reward", Value::U64(fb.reward as u64)),
                        ("err", Value::F64(fb.error)),
                        ("wait_s", Value::F64(fb.wait_time())),
                        ("split", Value::Bool(fb.split)),
                    ];
                    self.rec
                        .event("group_complete", t, track(platform, addr), &fields);
                }
            }
            Hook::GroupAbort(node, gid, orphaned) => {
                if self.decisions {
                    // Close the dispatch span: aborted groups must not
                    // leave dangling async spans in the trace.
                    self.rec.span_end("group", gid.0, t, track(platform, node));
                }
                if self.cycles {
                    self.rec.counter_add("groups.aborted", 1);
                    let fields = [
                        ("site", Value::U64(node.site.0 as u64)),
                        ("node", Value::U64(node.node as u64)),
                        ("orphaned", Value::U64(orphaned as u64)),
                    ];
                    self.rec
                        .event("group_abort", t, track(platform, node), &fields);
                }
            }
            Hook::Fault(fault, preempted) if self.cycles => {
                self.rec.counter_add("faults.injected", 1);
                let addr = fault.target.node();
                let (st, power) = site_snapshot(platform, addr.site);
                let proc = match fault.target {
                    FaultTarget::Proc(p) => p.proc as i64,
                    FaultTarget::Node(_) => -1,
                };
                let fields = [
                    ("site", Value::U64(addr.site.0 as u64)),
                    ("node", Value::U64(addr.node as u64)),
                    ("proc", Value::I64(proc)),
                    ("permanent", Value::Bool(fault.recover_at.is_none())),
                    ("preempted", Value::U64(preempted as u64)),
                    ("site_failed", Value::U64(st.failed as u64)),
                    ("site_idle", Value::U64(st.idle as u64)),
                    ("site_queued", Value::U64(st.queued_groups as u64)),
                    ("site_power_w", Value::F64(power)),
                ];
                self.rec.event("fault", t, track(platform, addr), &fields);
            }
            Hook::Recover(addr) if self.cycles => {
                self.rec.counter_add("faults.recovered", 1);
                let (st, power) = site_snapshot(platform, addr.site);
                let fields = [
                    ("site", Value::U64(addr.site.0 as u64)),
                    ("node", Value::U64(addr.node as u64)),
                    ("site_failed", Value::U64(st.failed as u64)),
                    ("site_idle", Value::U64(st.idle as u64)),
                    ("site_queued", Value::U64(st.queued_groups as u64)),
                    ("site_power_w", Value::F64(power)),
                ];
                self.rec.event("recover", t, track(platform, addr), &fields);
            }
            _ => {}
        }
    }

    fn times_decisions(&self) -> bool {
        self.decisions
    }

    fn tick(&mut self, run: &RunView<'_>) {
        if self.progress {
            self.emit_progress(run);
        }
    }

    fn finish(self: Box<Self>, run: &RunView<'_>, _: &RunTotals, result: &mut RunResult) {
        if self.progress {
            // Final snapshot so short runs print at least one line.
            self.emit_progress(run);
        }
        result.telemetry = self.rec.summary();
    }
}

/// Splits wall time into [`Phase::EventPop`] (from the end of one event's
/// handler to the start of the next: the queue pop and loop overhead)
/// and [`Phase::EventHandle`] (the handler itself).
pub(crate) struct ProfileProbe {
    prof: Arc<PhaseProfiler>,
    /// The last phase boundary (the run start before the first event).
    mark: Instant,
}

impl ProfileProbe {
    pub(crate) fn new(prof: Arc<PhaseProfiler>) -> ProfileProbe {
        let mark = Instant::now();
        ProfileProbe { prof, mark }
    }
}

impl Probe for ProfileProbe {
    fn on(&mut self, _platform: &Platform, _now: SimTime, hook: Hook<'_>) {
        let phase = match hook {
            Hook::Event(..) => Phase::EventPop,
            Hook::EventEnd => Phase::EventHandle,
            _ => return,
        };
        let now = Instant::now();
        self.prof.record_duration(phase, now - self.mark);
        self.mark = now;
    }
}
