//! `Timed`, the decorator the benchmark wraps around every scheduler it
//! measures layer by layer.
//!
//! The engine sees an ordinary [`Scheduler`]. Every method forwards to the
//! wrapped policy unchanged, so a decorated run produces the plain run's
//! `RunResult` (checked on every decorated pass); the decorator only times
//! and counts the callbacks. Statistics accumulate privately per instance
//! and merge into a shared [`Sink`] when the decorator is dropped, so the
//! worker threads of a sharded run never contend on them.

use platform::{
    AssignmentFeedback, Command, GroupFeedback, GroupId, PlatformView, Scheduler, SyncRecord,
};
use simcore::SimTime;
use snapshot::{SnapReader, SnapWriter, SnapshotError};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;
use workload::{SiteId, Task};

/// The callback families timed apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cb {
    Arrivals,
    Dispatch,
    Assignment,
    GroupComplete,
    Rejected,
    Orphaned,
    GroupAborted,
    Tick,
    DrainSync,
    ApplySync,
}

const CALLBACKS: usize = 10;

/// The epoch-barrier timeline of one shard's scheduler.
#[derive(Debug, Clone)]
pub struct SiteClock {
    /// Global site id.
    pub site: usize,
    /// The worker thread that built the shard, and so drives it.
    pub thread: ThreadId,
    /// When the worker began building the shard's scheduler.
    pub built: Instant,
    /// One instant per epoch, taken as `drain_sync` returns: a worker
    /// drains every shard it drives right before it waits at barrier A.
    pub drains: Vec<Instant>,
}

/// What the decorators measured.
#[derive(Debug, Default)]
pub struct CallStats {
    ns: [u64; CALLBACKS],
    calls: [u64; CALLBACKS],
    /// Wall time of every `dispatch` call, in nanoseconds.
    pub dispatch_ns: Vec<f64>,
    /// The calls of `dispatch_ns` that issued at least one command: the
    /// scheduling decisions.
    pub decision_ns: Vec<f64>,
    /// Tasks the scheduler held, summed over its `dispatch` calls.
    pub backlog_sum: u64,
    /// Records `drain_sync` produced.
    pub sync_records: u64,
    /// Nanoseconds spent building shard schedulers.
    pub init_ns: u64,
    /// Per-shard barrier timelines (sharded runs only).
    pub sites: Vec<SiteClock>,
}

impl CallStats {
    /// Nanoseconds inside `cb`.
    pub fn ns(&self, cb: Cb) -> u64 {
        self.ns[cb as usize]
    }

    /// Calls of `cb`.
    pub fn calls(&self, cb: Cb) -> u64 {
        self.calls[cb as usize]
    }

    /// Nanoseconds inside every callback.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Adds `other` to these statistics.
    pub fn merge(&mut self, other: CallStats) {
        for i in 0..CALLBACKS {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
        self.dispatch_ns.extend(other.dispatch_ns);
        self.decision_ns.extend(other.decision_ns);
        self.backlog_sum += other.backlog_sum;
        self.sync_records += other.sync_records;
        self.init_ns += other.init_ns;
        self.sites.extend(other.sites);
    }
}

/// Where dropped decorators leave their statistics.
pub type Sink = Arc<Mutex<CallStats>>;

/// Takes everything merged into `sink` so far.
pub fn take(sink: &Sink) -> CallStats {
    std::mem::take(&mut *sink.lock().expect("a decorator panicked while merging"))
}

/// A scheduler whose every callback is timed and counted.
pub struct Timed {
    inner: Box<dyn Scheduler + Send>,
    stats: CallStats,
    /// Tasks the wrapped scheduler holds: arrivals, rejections and orphans
    /// hand them in, dispatch commands hand them out.
    backlog: u64,
    clock: Option<SiteClock>,
    sink: Sink,
}

impl Timed {
    /// Wraps `inner`; its statistics reach `sink` when this is dropped.
    pub fn new(inner: Box<dyn Scheduler + Send>, sink: Sink) -> Self {
        Timed {
            inner,
            stats: CallStats::default(),
            backlog: 0,
            clock: None,
            sink,
        }
    }

    /// Wraps the scheduler of global site `site` of a sharded run, whose
    /// construction began at `built`. Call it on the worker thread that
    /// drives the shard: `run_sharded` calls its factory there.
    pub fn for_site(
        inner: Box<dyn Scheduler + Send>,
        site: usize,
        built: Instant,
        sink: Sink,
    ) -> Self {
        let mut t = Timed::new(inner, sink);
        t.stats.init_ns = nanos(built);
        t.clock = Some(SiteClock {
            site,
            thread: std::thread::current().id(),
            built,
            drains: Vec::new(),
        });
        t
    }

    fn timed<R>(&mut self, cb: Cb, call: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let t0 = Instant::now();
        let r = call(&mut *self.inner);
        self.stats.ns[cb as usize] += nanos(t0);
        self.stats.calls[cb as usize] += 1;
        r
    }

    fn hand_out(&mut self, cmds: &[Command]) {
        for c in cmds {
            if let Command::Dispatch { tasks, .. } = c {
                self.backlog = self.backlog.saturating_sub(tasks.len() as u64);
            }
        }
    }
}

/// Nanoseconds since `t0`.
fn nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Drop for Timed {
    fn drop(&mut self) {
        let mut stats = std::mem::take(&mut self.stats);
        stats.sites.extend(self.clock.take());
        // A poisoned sink means another decorator panicked mid-merge: that
        // run has failed already, and a panic here would abort.
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(stats);
        }
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrivals(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.backlog += tasks.len() as u64;
        self.timed(Cb::Arrivals, |s| s.on_arrivals(now, site, tasks));
    }

    fn dispatch(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        self.stats.backlog_sum += self.backlog;
        let t0 = Instant::now();
        let cmds = self.inner.dispatch(now, view);
        let ns = nanos(t0);
        self.stats.ns[Cb::Dispatch as usize] += ns;
        self.stats.calls[Cb::Dispatch as usize] += 1;
        self.stats.dispatch_ns.push(ns as f64);
        if !cmds.is_empty() {
            self.stats.decision_ns.push(ns as f64);
        }
        self.hand_out(&cmds);
        cmds
    }

    fn on_assignment(&mut self, now: SimTime, fb: &AssignmentFeedback) {
        self.timed(Cb::Assignment, |s| s.on_assignment(now, fb));
    }

    fn on_group_complete(&mut self, now: SimTime, fb: &GroupFeedback) {
        self.timed(Cb::GroupComplete, |s| s.on_group_complete(now, fb));
    }

    fn on_rejected(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.backlog += tasks.len() as u64;
        self.timed(Cb::Rejected, |s| s.on_rejected(now, site, tasks));
    }

    fn on_orphaned(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.backlog += tasks.len() as u64;
        self.timed(Cb::Orphaned, |s| s.on_orphaned(now, site, tasks));
    }

    fn on_group_aborted(&mut self, now: SimTime, group: GroupId) {
        self.timed(Cb::GroupAborted, |s| s.on_group_aborted(now, group));
    }

    fn on_tick(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        let cmds = self.timed(Cb::Tick, |s| s.on_tick(now, view));
        self.hand_out(&cmds);
        cmds
    }

    fn drain_sync(&mut self, out: &mut Vec<SyncRecord>) {
        let before = out.len();
        self.timed(Cb::DrainSync, |s| s.drain_sync(out));
        self.stats.sync_records += (out.len() - before) as u64;
        if let Some(clock) = &mut self.clock {
            clock.drains.push(Instant::now());
        }
    }

    fn apply_sync(&mut self, rec: &SyncRecord) {
        self.timed(Cb::ApplySync, |s| s.apply_sync(rec));
    }

    fn exploration(&self) -> Option<f64> {
        self.inner.exploration()
    }

    fn save_state(&mut self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{construct, seeded_adaptive};
    use adaptive_rl::{AdaptiveRl, AdaptiveRlConfig};
    use experiments::{runner, Scenario, SchedulerKind};
    use platform::{ExecEngine, FaultSpec, PlatformSpec};

    /// The golden-determinism scenario: 3 sites of 4-6 nodes x 4-6
    /// processors, 250 tasks at offered load 0.7. With `faults`, outages
    /// exercise the rejection, orphan and abort callbacks too.
    fn scenario(faults: bool) -> Scenario {
        let mut sc = Scenario::new(0xD5, 250, 0.7);
        sc.platform = PlatformSpec {
            num_sites: 3,
            nodes_per_site: (4, 6),
            procs_per_node: (4, 6),
            ..PlatformSpec::paper(3)
        };
        if faults {
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
        }
        sc
    }

    fn state_of(s: &mut dyn Scheduler) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn decorated_runs_equal_the_harness_for_all_six_kinds() {
        for faults in [false, true] {
            let sc = scenario(faults);
            for kind in SchedulerKind::all_six() {
                let want = runner::run_scenario(&sc, &kind);
                let (platform, tasks) = sc.build();
                let sites = platform.num_sites();
                let sink = Sink::default();
                let mut timed = Timed::new(construct(&kind, sc.seed, sites, None), sink.clone());
                let got = ExecEngine::new(sc.exec).run(platform, tasks, &mut timed);
                if let Some(d) = platform::replay_divergence(&want, &got) {
                    panic!("{} with faults {faults}: {d}", kind.label());
                }
                assert_eq!(timed.name(), timed.inner.name());
                assert_eq!(timed.exploration(), timed.inner.exploration());
                // Checkpoint state passes through in both directions.
                let state = state_of(&mut timed);
                assert_eq!(state, state_of(&mut *timed.inner));
                let mut fresh = Timed::new(construct(&kind, sc.seed, sites, None), Sink::default());
                fresh
                    .load_state(&mut SnapReader::new(&state))
                    .expect("the saved state restores");
                assert_eq!(state_of(&mut fresh), state);
                drop(timed);
                let stats = take(&sink);
                assert!(stats.calls(Cb::Arrivals) > 0 && stats.calls(Cb::Dispatch) > 0);
                assert_eq!(stats.dispatch_ns.len() as u64, stats.calls(Cb::Dispatch));
            }
        }
    }

    #[test]
    fn decorated_shards_equal_the_harness_and_record_barriers() {
        let sc = Scenario::small(11, 120, 0.5);
        let kind = SchedulerKind::Adaptive(AdaptiveRlConfig::default());
        let want = runner::run_sharded(&sc, &kind, 2);
        let (platform, tasks) = sc.build();
        let sites = platform.num_sites();
        let cfg = seeded_adaptive(AdaptiveRlConfig::default(), sc.seed);
        let sink = Sink::default();
        let factory = |g: usize| {
            let built = Instant::now();
            Timed::for_site(
                Box::new(AdaptiveRl::for_shard(g, sites, cfg)),
                g,
                built,
                sink.clone(),
            )
        };
        let got = platform::run_sharded(platform, tasks, sc.exec, 2, &factory);
        if let Some(d) = platform::replay_divergence(&want, &got) {
            panic!("sharded: {d}");
        }
        let stats = take(&sink);
        assert!(stats.sync_records > 0 && stats.calls(Cb::ApplySync) > 0);
        assert_eq!(stats.sites.len(), sites);
        let epochs = stats.sites[0].drains.len();
        assert!(epochs > 0 && stats.sites.iter().all(|s| s.drains.len() == epochs));
    }
}
