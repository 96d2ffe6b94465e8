//! The Adaptive-RL scheduler: agents + shared memory + value estimator
//! wired into the platform's [`Scheduler`] interface.

use crate::action::ActionChoice;
use crate::agent::Agent;
use crate::config::AdaptiveRlConfig;
use crate::feedback::{learning_value, value_target};
use crate::grouping::{self, MergedGroup};
use crate::memory::{Experience, RingSummary, SharedLearningMemory};
use crate::state::{SiteObsCache, SiteObservation, STATE_FEATURES};
use crate::value::ValueEstimator;
use platform::{
    AssignmentFeedback, Command, GroupFeedback, NodeAddr, PlatformView, ProcAddr, Scheduler,
    SyncRecord,
};
use simcore::rng::RngStream;
use simcore::time::SimTime;
use snapshot::{Codec, SnapReader, SnapWriter, SnapshotError};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use telemetry::{Phase, PhaseProfiler, Recorder, TraceLevel, Value};
use workload::{SiteId, Task};

/// A dispatched-but-unresolved sample awaiting its reward.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    obs: SiteObservation,
    action: ActionChoice,
    site: u32,
}

impl Sample {
    /// Snapshot field list; the site must be one of the `sites` agents.
    fn snap<C: Codec>(&mut self, c: &mut C, sites: usize) -> Result<(), SnapshotError> {
        self.obs.snap(c)?;
        self.action.snap(c)?;
        c.u32(&mut self.site)?;
        let site = self.site;
        c.check((site as usize) < sites, || {
            format!("sample site {site} out of range")
        })
    }
}

/// What a site's exploit decision is a pure function of: the bit patterns
/// of the 8 state features, `max_procs` (which fixes the candidate list
/// and the action features) and the value net's step count (which moves
/// whenever the weights do).
type ScoreKey = ([u64; STATE_FEATURES], usize, u64);

/// How one site's phase-A decision gets its action.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// Resolved without scoring: memory replay, exploration, or the
    /// site's memoised argmax for an unchanged [`ScoreKey`].
    Known(ActionChoice),
    /// An exploit decision whose candidates occupy rows
    /// `[start, start + len)` of the estimator's batch; its argmax is
    /// memoised under `key`.
    Scored {
        start: usize,
        len: usize,
        key: ScoreKey,
    },
    /// No node at the site has a free queue slot: it stages no rows and
    /// places nothing.
    Saturated,
}

/// One site's phase-A decision, awaiting the batched scoring pass.
#[derive(Debug, Clone, Copy)]
struct PendingDecision {
    site: usize,
    obs: SiteObservation,
    src: crate::agent::ChoiceSource,
    pick: Pick,
}

/// One eligible node captured by `select_node`'s streaming pass: address,
/// Eq. (2) capacity, availability penalty, and the deadline-feasibility
/// screen's verdict.
#[derive(Debug, Clone, Copy)]
struct NodeCand {
    addr: NodeAddr,
    cap: f64,
    pen: f64,
    feasible: bool,
}

/// The paper's Adaptive-RL energy-management scheduler.
///
/// ```
/// use adaptive_rl::{AdaptiveRl, AdaptiveRlConfig};
/// use platform::{ExecConfig, ExecEngine, Platform, PlatformSpec};
/// use simcore::rng::RngStream;
/// use workload::{Workload, WorkloadSpec};
///
/// let rng = RngStream::root(7);
/// let platform = Platform::generate(PlatformSpec::small(2, 2, 4), &rng.derive("p"));
/// let wl = Workload::generate(
///     WorkloadSpec::paper(80, 2, platform.reference_speed()),
///     &rng.derive("w"),
/// );
/// let mut sched = AdaptiveRl::new(platform.num_sites(), AdaptiveRlConfig::default());
/// let result = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
/// assert_eq!(result.incomplete, 0);
/// assert!(sched.cycles() > 0, "the agent learned from completed groups");
/// ```
#[derive(Clone)]
pub struct AdaptiveRl {
    cfg: AdaptiveRlConfig,
    agents: Vec<Agent>,
    memory: SharedLearningMemory,
    value: ValueEstimator,
    epsilon: f64,
    cycles: u64,
    /// Samples for Dispatch commands issued this round, FIFO — resolved by
    /// the engine's in-order `on_assignment` / `on_rejected` callbacks.
    issued: VecDeque<Sample>,
    /// Samples awaiting group completion, keyed by group id.
    in_flight: HashMap<u64, Sample>,
    /// Reusable per-round ledger of queue slots claimed by this round's
    /// dispatches — cleared per site, capacity kept across rounds.
    used_scratch: Vec<(NodeAddr, usize)>,
    /// Reusable candidate-node pool for `select_node`'s streaming pass —
    /// overwritten per group, capacity kept across rounds.
    node_scratch: Vec<NodeCand>,
    /// Reusable candidate-action buffer — refilled per site, capacity
    /// kept across rounds.
    cand_scratch: Vec<ActionChoice>,
    /// Reusable phase-A decision records — one entry per deciding site,
    /// cleared per round, capacity kept across rounds.
    pending_scratch: Vec<PendingDecision>,
    /// Reusable flat store of every deferred site's candidates, parallel to
    /// the estimator's batch rows (cleared per round).
    batch_cands: Vec<ActionChoice>,
    /// Per-site observation memo, keyed by the platform's site mutation
    /// epoch — skips the per-node scan when nothing at the site changed
    /// since the last dispatch (bit-identical reuse, so decisions are
    /// unaffected).
    obs_cache: Vec<SiteObsCache>,
    /// Per-site argmax memo: the key of the site's last scored exploit
    /// decision and the action it chose. A candidate's score depends only
    /// on its row and the weights, so an equal key picks the same action
    /// without staging a row. A cache, not state: never snapshotted, and
    /// emptied by `load_state`.
    best_memo: Vec<Option<(ScoreKey, ActionChoice)>>,
    /// Telemetry recorder ([`telemetry::NullRecorder`] unless attached
    /// via [`AdaptiveRl::with_recorder`]); `Arc` so the replicated
    /// runner can share one sink across schedulers.
    rec: Arc<dyn Recorder>,
    /// Level gates cached at attach time — the untraced hot path pays
    /// one predictable branch per site.
    t_dec: bool,
    t_cyc: bool,
    /// Shared-memory consultations that replayed a remembered action /
    /// fell through to ε-greedy (tracked only while tracing).
    mem_hits: u64,
    mem_misses: u64,
    /// Phase profiler for `--profile` runs; `None` skips every clock
    /// read around observation build / scoring / training.
    prof: Option<Arc<PhaseProfiler>>,
    /// Global site id of this instance's (single) agent when built via
    /// [`AdaptiveRl::for_shard`]; `0` in the sequential engine, where
    /// local agent indices *are* global site ids.
    site_offset: u32,
    /// Whether this instance is one shard of a sharded run: its ring's
    /// summary is sent at each epoch barrier it changed in.
    shard_mode: bool,
    /// The time of the newest experience recorded since the last drain,
    /// if any: the ring's summary has yet to be sent.
    sync_dirty: Option<SimTime>,
    /// Per-instance sequence counter for the canonical sync order.
    sync_seq: u64,
}

impl AdaptiveRl {
    /// Creates a scheduler for a platform with `num_sites` resource sites.
    ///
    /// # Panics
    /// Panics on an invalid configuration or zero sites.
    pub fn new(num_sites: usize, cfg: AdaptiveRlConfig) -> Self {
        cfg.validate();
        assert!(num_sites > 0, "need at least one site");
        let root = RngStream::root(cfg.seed);
        let agents = (0..num_sites)
            .map(|s| Agent::new(SiteId(s as u32), root.derive_indexed("agent", s as u64)))
            .collect();
        AdaptiveRl {
            agents,
            memory: SharedLearningMemory::new(num_sites, cfg.memory_depth),
            value: ValueEstimator::with_precision(
                cfg.hidden,
                cfg.lr,
                cfg.momentum,
                cfg.seed,
                cfg.precision,
            ),
            epsilon: cfg.epsilon0,
            cycles: 0,
            issued: VecDeque::new(),
            in_flight: HashMap::new(),
            used_scratch: Vec::new(),
            node_scratch: Vec::new(),
            cand_scratch: Vec::new(),
            pending_scratch: Vec::new(),
            batch_cands: Vec::new(),
            obs_cache: vec![SiteObsCache::default(); num_sites],
            best_memo: vec![None; num_sites],
            rec: Arc::new(telemetry::NullRecorder),
            t_dec: false,
            t_cyc: false,
            mem_hits: 0,
            mem_misses: 0,
            prof: None,
            site_offset: 0,
            shard_mode: false,
            sync_dirty: None,
            sync_seq: 0,
            cfg,
        }
    }

    /// Creates the scheduler instance owning global site `global_site` of
    /// a sharded run over `total_sites` sites.
    ///
    /// The single local agent draws from the same counter-based stream
    /// the sequential engine would hand agent `global_site`
    /// (`root(seed).derive_indexed("agent", global_site)`). The shared
    /// learning memory spans all `total_sites` agents: the local agent's
    /// ring enters experiences immediately, and every other agent is the
    /// [`RingSummary`] its shard sent at the last epoch barrier via
    /// [`Scheduler::apply_sync`]. A summary holds the ring's best
    /// experience, so the memory answers the replay rule exactly as a
    /// full replica of every ring would. Exploration rate and the value
    /// estimator stay per-site — decentralised learners, as in the
    /// paper's multi-agent story.
    ///
    /// # Panics
    /// Panics on an invalid configuration or `global_site >= total_sites`.
    pub fn for_shard(global_site: usize, total_sites: usize, cfg: AdaptiveRlConfig) -> Self {
        assert!(
            global_site < total_sites,
            "site {global_site} outside platform of {total_sites} sites"
        );
        let mut s = Self::new(1, cfg);
        let root = RngStream::root(s.cfg.seed);
        s.agents = vec![Agent::new(
            SiteId(0),
            root.derive_indexed("agent", global_site as u64),
        )];
        s.memory = SharedLearningMemory::for_shard(total_sites, s.cfg.memory_depth, global_site);
        s.site_offset = global_site as u32;
        s.shard_mode = true;
        s
    }

    /// Attaches a telemetry recorder: per-decision events (chosen node,
    /// policy, `pw`, ε, shared-memory hit/miss) and per-learning-cycle
    /// summaries (value-net training error, exploration rate, running
    /// shared-memory hit/miss totals). Decision latency is timed by the
    /// execution engine's live metrics, for every policy.
    pub fn with_recorder(mut self, rec: Arc<dyn Recorder>) -> Self {
        self.t_dec = rec.wants(TraceLevel::Decisions);
        self.t_cyc = rec.wants(TraceLevel::Cycles);
        self.rec = rec;
        self
    }

    /// Attaches a phase profiler: observation building, batched candidate
    /// scoring and value-net training report their wall time. Strictly
    /// observing; without it the scheduler never reads the clock for
    /// profiling.
    pub fn with_profiler(mut self, prof: Arc<PhaseProfiler>) -> Self {
        self.prof = Some(prof);
        self
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Learning cycles completed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Read access to the shared-learning memory (diagnostics). In a
    /// shard, only the local agent's ring is held; the other agents are
    /// the summaries of the last epoch barrier.
    pub fn memory(&self) -> &SharedLearningMemory {
        &self.memory
    }

    /// Eq. (10) processing weight of a candidate group.
    fn group_pw(tasks: &[Task]) -> f64 {
        let work: f64 = tasks.iter().map(|t| t.size_mi).sum();
        let budget: f64 = tasks
            .iter()
            .map(|t| t.deadline.since(t.arrival).as_f64())
            .sum();
        work / budget.max(f64::MIN_POSITIVE)
    }

    /// Picks the node whose capacity best fits the group (minimum Eq. (9)
    /// error), honouring queue slots already claimed this round.
    /// `scratch` is a reusable buffer for the captured candidate pool —
    /// contents are overwritten.
    fn select_node(
        &self,
        view: &PlatformView<'_>,
        site: SiteId,
        group: &MergedGroup,
        used: &[(NodeAddr, usize)],
        scratch: &mut Vec<NodeCand>,
    ) -> Option<NodeAddr> {
        use std::cmp::Ordering;
        let pw = Self::group_pw(&group.tasks);
        let claimed = |addr: NodeAddr| {
            used.iter()
                .find(|(a, _)| *a == addr)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        // `available_processors()` equals `num_processors()` on a healthy
        // platform; under injected faults it excludes downed processors, so
        // the agent never offers a group wider than a node can still serve.
        let eligible = |n: &platform::NodeView<'_>| {
            n.queue_available() > claimed(n.addr()) && n.available_processors() >= group.tasks.len()
        };
        // Degradation-aware placement: a positive penalty inflates the
        // assignment error of nodes that have lost processors.
        let avail_pen =
            |n: &platform::NodeView<'_>| self.cfg.availability_penalty * (1.0 - n.availability());
        if self.cfg.use_error_feedback {
            // Both feedback signals steer placement: the reward needs the
            // deadline met, the error needs pw matched to capacity. First
            // keep nodes that can plausibly finish the group's largest
            // member before the earliest deadline, then minimise Eq. (9)
            // among them (falling back to all eligible nodes when none
            // qualifies).
            let now = view.now();
            let max_size = group
                .tasks
                .iter()
                .map(|t| t.size_mi)
                .fold(0.0_f64, f64::max);
            let earliest_slack = group
                .tasks
                .iter()
                .map(|t| t.deadline.since(now).as_f64())
                .fold(f64::INFINITY, f64::min);
            let feasible = |n: &platform::NodeView<'_>| {
                let mean_speed = n.raw_speed() / n.num_processors() as f64 * n.throttle();
                max_size / mean_speed.max(1.0) <= earliest_slack
            };
            // One streaming pass over the site's nodes captures each
            // eligible node's (addr, capacity, penalty, feasibility) in
            // site order while folding the screen aggregates; selection
            // then runs over the captured pool without touching node state
            // again. Nothing mutates between capture and selection, so the
            // chosen node — values, order, and tie rules — is bit-identical
            // to the former two-pass formulation.
            scratch.clear();
            let mut any_feasible = false;
            let mut min_cap_feasible = f64::INFINITY;
            let mut min_cap_eligible = f64::INFINITY;
            for n in view.site_nodes(site) {
                if !eligible(&n) {
                    continue;
                }
                let cap = n.processing_capacity();
                min_cap_eligible = min_cap_eligible.min(cap);
                let fe = feasible(&n);
                if fe {
                    any_feasible = true;
                    min_cap_feasible = min_cap_feasible.min(cap);
                }
                scratch.push(NodeCand {
                    addr: n.addr(),
                    cap,
                    pen: avail_pen(&n),
                    feasible: fe,
                });
            }
            if scratch.is_empty() {
                return None;
            }
            let min_cap = if any_feasible {
                min_cap_feasible
            } else {
                min_cap_eligible
            };
            // §IV.D.1: "a task group with a small pw is required to be
            // executed as early as possible" — when every candidate node
            // over-provides capacity, the earliest finish is the fastest
            // node. Otherwise match pw to capacity (minimum Eq. (9)
            // error). Original tie rules: max_by keeps the LAST maximal
            // element, min_by the FIRST minimal.
            let mut best: Option<(NodeAddr, f64)> = None;
            for c in scratch.iter().filter(|c| !any_feasible || c.feasible) {
                if pw <= min_cap {
                    // The penalty discounts a degraded node's capacity
                    // (no-op at penalty 0 or full availability).
                    let v = c.cap * (1.0 - c.pen).max(0.0);
                    match best {
                        Some((_, bc)) if v.total_cmp(&bc) == Ordering::Less => {}
                        _ => best = Some((c.addr, v)),
                    }
                } else {
                    let e = (1.0 - c.cap / pw).abs() + c.pen;
                    match best {
                        Some((_, be)) if e.total_cmp(&be) != Ordering::Less => {}
                        _ => best = Some((c.addr, e)),
                    }
                }
            }
            best.map(|(a, _)| a)
        } else {
            // max_by_key keeps the last maximal element.
            let mut best: Option<(NodeAddr, usize)> = None;
            for n in view.site_nodes(site) {
                if !eligible(&n) {
                    continue;
                }
                let k = n.queue_available() - claimed(n.addr());
                match best {
                    Some((_, bk)) if k < bk => {}
                    _ => best = Some((n.addr(), k)),
                }
            }
            best.map(|(a, _)| a)
        }
    }

    /// Snapshot field list.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.unit(&mut self.epsilon, "epsilon")?;
        c.u64(&mut self.cycles)?;
        c.u64(&mut self.mem_hits)?;
        c.u64(&mut self.mem_misses)?;
        c.len_eq(self.agents.len(), "agents")?;
        self.agents.iter_mut().try_for_each(|a| a.snap(c))?;
        self.memory.snap(c)?;
        self.value.snap(c)?;
        let sites = self.agents.len();
        c.deque(&mut self.issued, |s, c| s.snap(c, sites))?;
        c.map(&mut self.in_flight, |s, c| s.snap(c, sites))
    }
}

impl Scheduler for AdaptiveRl {
    fn name(&self) -> &str {
        "Adaptive-RL"
    }

    fn on_arrivals(&mut self, _now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.agents[site.0 as usize].buffer(tasks);
    }

    fn dispatch(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        let mut cmds = Vec::new();
        let mut used = std::mem::take(&mut self.used_scratch);
        let mut node_pool = std::mem::take(&mut self.node_scratch);
        // Phase A: per-site observation and the cheap (non-neural) part of
        // action selection, staging the candidates of every exploiting site
        // that can still place a group into one scoring batch. Safe to
        // split from dispatch: each agent draws from its own RNG stream,
        // the memory is read-only here, and each site's pending pool and
        // observation are independent.
        let mut decisions = std::mem::take(&mut self.pending_scratch);
        decisions.clear();
        let mut batch_cands = std::mem::take(&mut self.batch_cands);
        batch_cands.clear();
        self.value.begin_batch();
        for idx in 0..self.agents.len() {
            if self.agents[idx].pending.is_empty() {
                continue;
            }
            let site = SiteId(idx as u32);
            let obs_t = self.prof.as_ref().map(|_| std::time::Instant::now());
            let obs = SiteObservation::observe_cached(
                view,
                site,
                &self.agents[idx].pending,
                &mut self.obs_cache[idx],
            );
            if let (Some(p), Some(t)) = (&self.prof, obs_t) {
                p.record_duration(Phase::ObsBuild, t.elapsed());
            }
            if obs.max_procs == 0 {
                continue;
            }
            ActionChoice::candidates_into(obs.max_procs, &mut self.cand_scratch);
            if let Some(forced) = self.cfg.force_policy {
                self.cand_scratch.retain(|c| c.policy == forced);
            }
            let (action, src) = self.agents[idx].decide(
                &self.cand_scratch,
                self.epsilon,
                self.cfg.use_value_net,
                &self.memory,
                self.cfg.use_shared_memory,
                obs.max_procs,
            );
            // A site where no node has a free queue slot places nothing,
            // whatever the action: `select_node`'s `eligible` test fails for
            // every node. The decision above still ran, so the agent's RNG
            // draws and memory-replay flag are used up exactly as before.
            // An exploit decision whose key matches the site's memo reuses
            // the stored argmax; any other key stages the candidate rows.
            let pick = match action {
                _ if !view.site_has_open_queue(site) => Pick::Saturated,
                Some(a) => Pick::Known(a),
                None => {
                    let state = obs.features();
                    let key = (state.map(f64::to_bits), obs.max_procs, self.value.steps());
                    match self.best_memo[idx] {
                        Some((k, a)) if k == key => Pick::Known(a),
                        _ => {
                            let start = self.value.push_candidates(
                                &state,
                                obs.max_procs,
                                &self.cand_scratch,
                            );
                            batch_cands.extend_from_slice(&self.cand_scratch);
                            Pick::Scored {
                                start,
                                len: self.cand_scratch.len(),
                                key,
                            }
                        }
                    }
                }
            };
            decisions.push(PendingDecision {
                site: idx,
                obs,
                src,
                pick,
            });
        }
        // One batched kernel pass scores every staged candidate row.
        if self.value.batch_rows() > 0 {
            let score_t = self.prof.as_ref().map(|_| std::time::Instant::now());
            self.value.score_batch();
            if let (Some(p), Some(t)) = (&self.prof, score_t) {
                p.record_duration(Phase::Score, t.elapsed());
            }
        }
        // Phase B: resolve each site's action (batch argmax for exploit
        // decisions), then group, place, and emit — in the original site
        // order, so telemetry, the issued queue, and the command stream are
        // identical to the per-site formulation.
        for d in &decisions {
            let idx = d.site;
            let site = SiteId(idx as u32);
            let obs = d.obs;
            let src = d.src;
            if self.t_cyc && self.cfg.use_shared_memory {
                if src == crate::agent::ChoiceSource::MemoryReplay {
                    self.mem_hits += 1;
                } else {
                    self.mem_misses += 1;
                }
            }
            let action = match d.pick {
                // Every group would come back unplaced: leave the pool as
                // it is (same tasks; only merge would have reordered them).
                Pick::Saturated => continue,
                Pick::Known(a) => a,
                Pick::Scored { start, len, key } => {
                    let a = batch_cands[start + self.value.argmax_in(start, len)];
                    self.best_memo[idx] = Some((key, a));
                    a
                }
            };
            // Hold partial chunks only while the site has no idle
            // processor — grouping must never delay tasks that could start
            // right away. Answered from the cached site aggregates (same
            // predicate as the former per-node scan).
            let site_idle = view.site_has_free_node(site);
            let effective_flush = if site_idle { 0.0 } else { self.cfg.flush_age };
            let groups =
                grouping::merge(&mut self.agents[idx].pending, action, now, effective_flush);
            used.clear();
            for group in groups {
                match self.select_node(view, site, &group, &used, &mut node_pool) {
                    Some(addr) => {
                        match used.iter_mut().find(|(a, _)| *a == addr) {
                            Some((_, c)) => *c += 1,
                            None => used.push((addr, 1)),
                        }
                        if self.t_dec {
                            self.rec.event(
                                "decision",
                                now.as_f64(),
                                0,
                                &[
                                    ("site", Value::U64(idx as u64)),
                                    ("node", Value::U64(addr.node as u64)),
                                    (
                                        "policy",
                                        Value::Str(match group.policy {
                                            platform::GroupPolicy::Mixed => "mixed",
                                            platform::GroupPolicy::Identical(_) => "identical",
                                        }),
                                    ),
                                    ("opnum", Value::U64(action.opnum as u64)),
                                    ("size", Value::U64(group.tasks.len() as u64)),
                                    ("pw", Value::F64(Self::group_pw(&group.tasks))),
                                    ("epsilon", Value::F64(self.epsilon)),
                                    (
                                        "source",
                                        Value::Str(match src {
                                            crate::agent::ChoiceSource::MemoryReplay => "memory",
                                            crate::agent::ChoiceSource::Explore => "explore",
                                            crate::agent::ChoiceSource::Exploit => "exploit",
                                        }),
                                    ),
                                ],
                            );
                        }
                        self.issued.push_back(Sample {
                            obs,
                            action,
                            site: idx as u32,
                        });
                        cmds.push(Command::Dispatch {
                            node: addr,
                            tasks: group.tasks,
                            policy: group.policy,
                        });
                    }
                    None => {
                        // Site saturated: keep the tasks pending.
                        self.agents[idx].pending.extend(group.tasks);
                    }
                }
            }
        }
        self.used_scratch = used;
        self.node_scratch = node_pool;
        self.pending_scratch = decisions;
        self.batch_cands = batch_cands;
        cmds
    }

    fn on_assignment(&mut self, _now: SimTime, fb: &AssignmentFeedback) {
        if let Some(sample) = self.issued.pop_front() {
            self.in_flight.insert(fb.group.0, sample);
        }
    }

    fn on_rejected(&mut self, _now: SimTime, site: SiteId, tasks: Vec<Task>) {
        let _ = self.issued.pop_front();
        self.agents[site.0 as usize].buffer(tasks);
    }

    fn on_tick(&mut self, _now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        if !self.cfg.power_gating {
            return Vec::new();
        }
        // Hibernate processors of drained nodes while the agent has no
        // pending work; the engine wakes them on demand.
        let mut cmds = Vec::new();
        for (idx, agent) in self.agents.iter().enumerate() {
            if !agent.pending.is_empty() {
                continue;
            }
            let site = SiteId(idx as u32);
            for node in view.site_nodes(site) {
                if node.queue_len() > 0 {
                    continue;
                }
                for p in 0..node.num_processors() {
                    if node.proc_is_idle(p) {
                        cmds.push(Command::Sleep(ProcAddr {
                            node: node.addr(),
                            proc: p as u32,
                        }));
                    }
                }
            }
        }
        cmds
    }

    fn on_group_aborted(&mut self, _now: SimTime, group: platform::GroupId) {
        // No Eq. (8) reward will ever arrive for a group a failure
        // destroyed; drop the waiting sample so it cannot leak.
        self.in_flight.remove(&group.0);
    }

    fn exploration(&self) -> Option<f64> {
        Some(self.epsilon)
    }

    fn on_group_complete(&mut self, now: SimTime, fb: &GroupFeedback) {
        self.cycles += 1;
        self.epsilon = (self.epsilon * self.cfg.epsilon_decay).max(self.cfg.epsilon_floor);
        let Some(sample) = self.in_flight.remove(&fb.group.0) else {
            return;
        };
        let l_val = learning_value(fb.reward, fb.error, self.cfg.error_floor);
        self.memory.record(Experience {
            // In shard mode the single local agent occupies ring
            // `site_offset`; sequentially the offset is 0 and local
            // indices are global.
            agent: self.site_offset + sample.site,
            action: sample.action,
            l_val,
            cycle: self.cycles,
        });
        if self.shard_mode {
            // The ring changed: its summary goes out at the next barrier.
            self.sync_dirty = Some(now);
        }
        // The value-table delta: `train` returns the pre-update squared
        // error. NaN (rendered as JSON null) marks cycles that trained
        // nothing.
        let mut value_mse = f64::NAN;
        if self.cfg.use_reward_feedback {
            let target = value_target(fb.reward, fb.size, fb.error);
            if self.cfg.use_value_net {
                let train_t = self.prof.as_ref().map(|_| std::time::Instant::now());
                value_mse = self.value.train(&sample.obs, sample.action, target);
                if let (Some(p), Some(t)) = (&self.prof, train_t) {
                    p.record_duration(Phase::Train, t.elapsed());
                }
            }
            self.agents[sample.site as usize].note_reward(fb.success_rate());
        }
        if self.t_cyc {
            self.rec.event(
                "learning_cycle",
                now.as_f64(),
                0,
                &[
                    ("cycle", Value::U64(self.cycles)),
                    ("site", Value::U64(sample.site as u64)),
                    ("reward", Value::U64(fb.reward as u64)),
                    ("size", Value::U64(fb.size as u64)),
                    ("err", Value::F64(fb.error)),
                    ("l_val", Value::F64(l_val)),
                    ("value_mse", Value::F64(value_mse)),
                    ("epsilon", Value::F64(self.epsilon)),
                    ("lr", Value::F64(self.cfg.lr)),
                    ("mem_len", Value::U64(self.memory.len() as u64)),
                    ("mem_hits", Value::U64(self.mem_hits)),
                    ("mem_misses", Value::U64(self.mem_misses)),
                ],
            );
        }
    }

    fn drain_sync(&mut self, out: &mut Vec<SyncRecord>) {
        // One record per epoch at most: the summary of this site's ring,
        // stamped with its newest experience's time. Wire format: the
        // policy tag in the low byte of word 0 and the ring length above
        // it, then the best experience's opnum, l_val bits and cycle.
        let Some(time) = self.sync_dirty.take() else {
            return;
        };
        let summary = self.memory.summary(self.site_offset);
        let best = summary.best.expect("a changed ring holds an experience");
        let tag = match best.action.policy {
            crate::action::PolicyKind::Mixed => 0,
            crate::action::PolicyKind::Identical => 1,
        };
        self.sync_seq += 1;
        out.push(SyncRecord {
            time,
            seq: self.sync_seq,
            site: self.site_offset,
            payload: [
                tag | ((summary.len as u64) << 8),
                best.action.opnum as u64,
                best.l_val.to_bits(),
                best.cycle,
            ],
        });
    }

    fn apply_sync(&mut self, rec: &SyncRecord) {
        // A foreign shard's ring summary overwrites its slot in this
        // instance's memory; a malformed payload is ignored (the wire
        // format is produced by this module, so this is defensive only).
        let policy = match rec.payload[0] & 0xFF {
            0 => crate::action::PolicyKind::Mixed,
            1 => crate::action::PolicyKind::Identical,
            _ => return,
        };
        let len = rec.payload[0] >> 8;
        let opnum = rec.payload[1] as usize;
        if opnum == 0
            || !(1..=self.memory.depth() as u64).contains(&len)
            || rec.site as usize >= self.memory.num_agents()
        {
            return;
        }
        self.memory.set_summary(
            rec.site,
            RingSummary {
                best: Some(Experience {
                    agent: rec.site,
                    action: ActionChoice { policy, opnum },
                    l_val: f64::from_bits(rec.payload[2]),
                    cycle: rec.payload[3],
                }),
                len: len as usize,
            },
        );
    }

    fn save_state(&mut self, w: &mut SnapWriter) {
        w.encode(|w| self.snap(w));
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        // Restored weights may share a step count with the memoised ones.
        self.best_memo.fill(None);
        r.restore(self, Self::snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{ExecConfig, ExecEngine, Platform, PlatformSpec, RunResult};
    use workload::{Workload, WorkloadSpec};

    fn run(seed: u64, n_tasks: usize, iat: f64, cfg: AdaptiveRlConfig) -> RunResult {
        let rng = RngStream::root(seed);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(n_tasks, 2, platform.reference_speed());
        wspec.mean_interarrival = iat;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let mut sched = AdaptiveRl::new(2, cfg);
        ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched)
    }

    #[test]
    fn completes_all_tasks_light_load() {
        let r = run(1, 300, 2.0, AdaptiveRlConfig::default());
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
        assert_eq!(r.scheduler, "Adaptive-RL");
        assert!(r.success_rate() > 0.5, "success {}", r.success_rate());
    }

    #[test]
    fn completes_all_tasks_heavy_load() {
        let r = run(2, 600, 0.35, AdaptiveRlConfig::default());
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
        assert!(r.groups_completed > 0);
        // Under heavy load grouping must actually group.
        assert!(
            (r.groups_dispatched as usize) < 600,
            "dispatched {} groups for 600 tasks",
            r.groups_dispatched
        );
    }

    #[test]
    fn learning_state_advances() {
        let rng = RngStream::root(3);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(400, 2, platform.reference_speed());
        wspec.mean_interarrival = 0.5;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let mut sched = AdaptiveRl::new(2, AdaptiveRlConfig::default());
        let eps0 = sched.epsilon();
        let r = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
        assert_eq!(r.incomplete, 0);
        assert!(sched.cycles() > 0);
        assert!(sched.epsilon() < eps0, "epsilon must decay with cycles");
        assert!(!sched.memory().is_empty(), "memory must fill");
        assert!(sched.memory().len() <= 2 * 15, "ring bound respected");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(7, 200, 1.0, AdaptiveRlConfig::default());
        let b = run(7, 200, 1.0, AdaptiveRlConfig::default());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_energy, b.total_energy);
    }

    #[test]
    fn ablated_variants_still_complete() {
        for cfg in [
            AdaptiveRlConfig {
                use_shared_memory: false,
                ..Default::default()
            },
            AdaptiveRlConfig {
                use_value_net: false,
                ..Default::default()
            },
            AdaptiveRlConfig {
                use_error_feedback: false,
                ..Default::default()
            },
            AdaptiveRlConfig {
                use_reward_feedback: false,
                ..Default::default()
            },
        ] {
            let r = run(9, 250, 0.8, cfg);
            assert_eq!(r.incomplete, 0, "cfg {cfg:?}");
        }
    }

    #[test]
    fn power_gating_saves_energy_with_a_real_sleep_state() {
        // Give the platform a genuine deep-sleep wattage, run a sparse
        // workload, and compare gated vs ungated energy.
        let mk = |gating: bool| {
            let rng = RngStream::root(17);
            let mut pspec = PlatformSpec::small(2, 3, 4);
            pspec.power.p_sleep = 5.0;
            let platform = Platform::generate(pspec, &rng.derive("p"));
            let mut wspec = workload::WorkloadSpec::paper(120, 2, platform.reference_speed());
            wspec.mean_interarrival = 6.0; // long idle gaps
            let wl = workload::Workload::generate(wspec, &rng.derive("w"));
            let cfg = AdaptiveRlConfig {
                power_gating: gating,
                ..AdaptiveRlConfig::default()
            };
            let mut sched = AdaptiveRl::new(2, cfg);
            ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched)
        };
        let gated = mk(true);
        let ungated = mk(false);
        assert_eq!(gated.incomplete, 0, "gating must never strand tasks");
        assert_eq!(ungated.incomplete, 0);
        assert!(
            gated.total_energy < ungated.total_energy * 0.8,
            "hibernation must pay on sparse load: {} vs {}",
            gated.total_energy,
            ungated.total_energy
        );
    }

    #[test]
    fn power_gating_is_safe_under_heavy_load() {
        let rng = RngStream::root(19);
        let mut pspec = PlatformSpec::small(2, 3, 4);
        pspec.power.p_sleep = 5.0;
        let platform = Platform::generate(pspec, &rng.derive("p"));
        let mut wspec = workload::WorkloadSpec::paper(400, 2, platform.reference_speed());
        wspec.mean_interarrival = 0.4;
        let wl = workload::Workload::generate(wspec, &rng.derive("w"));
        let cfg = AdaptiveRlConfig {
            power_gating: true,
            ..AdaptiveRlConfig::default()
        };
        let mut sched = AdaptiveRl::new(2, cfg);
        let r = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
    }

    #[test]
    fn no_rejection_leaks_tasks() {
        // Tiny queues to force rejections; every task must still finish.
        let rng = RngStream::root(11);
        let mut pspec = PlatformSpec::small(1, 2, 4);
        pspec.queue_capacity = 1;
        let platform = Platform::generate(pspec, &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(300, 1, platform.reference_speed());
        wspec.mean_interarrival = 0.3;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let mut sched = AdaptiveRl::new(1, AdaptiveRlConfig::default());
        let r = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
    }

    #[test]
    fn survives_injected_faults_with_degradation_penalty() {
        use platform::{FaultSpec, TaskOutcome};
        let rng = RngStream::root(23);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(400, 2, platform.reference_speed());
        wspec.mean_interarrival = 0.5;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let cfg = AdaptiveRlConfig {
            availability_penalty: 2.0,
            ..AdaptiveRlConfig::default()
        };
        let mut sched = AdaptiveRl::new(2, cfg);
        let exec = ExecConfig {
            faults: FaultSpec {
                enabled: true,
                proc_mtbf: 200.0,
                proc_mttr: 25.0,
                node_mtbf: 700.0,
                node_mttr: 50.0,
                permanent_fraction: 0.05,
                horizon: 500.0,
                ..FaultSpec::default()
            },
            ..ExecConfig::default()
        };
        let r = ExecEngine::new(exec).run(platform, wl.tasks, &mut sched);
        assert_eq!(r.outcome, "Drained");
        assert_eq!(r.records.len(), r.num_tasks, "no task may be lost");
        assert_eq!(r.incomplete, 0);
        assert!(r.faults_injected > 0, "the spec must actually inject");
        let failed = r
            .records
            .iter()
            .filter(|x| x.outcome == TaskOutcome::Failed)
            .count();
        assert_eq!(failed, r.tasks_failed);
    }

    #[test]
    fn a_site_with_no_free_queue_slot_skips_scoring_and_keeps_its_pool() {
        use platform::queue::QueuedGroup;
        use platform::{GroupId, GroupPolicy, TaskGroup};
        use workload::{Priority, TaskId};
        let task = |id: u64, deadline: f64, priority: Priority| Task {
            id: TaskId(id),
            size_mi: 800.0,
            arrival: SimTime::ZERO,
            deadline: SimTime::new(deadline),
            priority,
            site: SiteId(0),
        };
        let mut pspec = PlatformSpec::small(1, 2, 4);
        pspec.queue_capacity = 1;
        let mut platform = Platform::generate(pspec, &RngStream::root(5).derive("p"));
        let addrs: Vec<NodeAddr> = platform.node_addrs().collect();
        for (i, &addr) in addrs.iter().enumerate() {
            let id = 100 + i as u64;
            let group = TaskGroup::new(
                GroupId(id),
                vec![task(id, 50.0, Priority::Low)],
                GroupPolicy::Mixed,
            );
            platform
                .enqueue_group(addr, QueuedGroup::new(group, SimTime::ZERO))
                .expect("an empty queue has a slot");
        }
        // ε = 0: every decision exploits, so a scored decision shows up as
        // forward passes of the value net.
        let cfg = AdaptiveRlConfig {
            epsilon0: 0.0,
            epsilon_floor: 0.0,
            ..AdaptiveRlConfig::default()
        };
        let mut sched = AdaptiveRl::new(1, cfg);
        let prios = [Priority::High, Priority::Low, Priority::Medium];
        let tasks: Vec<Task> = (0..6)
            .map(|i| task(i, 40.0 - i as f64, prios[i as usize % 3]))
            .collect();
        sched.on_arrivals(SimTime::ZERO, SiteId(0), tasks.clone());
        let ids = |pool: &[Task]| {
            let mut v: Vec<u64> = pool.iter().map(|t| t.id.0).collect();
            v.sort_unstable();
            v
        };

        let now = SimTime::new(1.0);
        let passes = sched.value.forward_passes();
        let cmds = sched.dispatch(now, &PlatformView::new(&platform, now));
        assert!(cmds.is_empty(), "a full site places nothing");
        assert_eq!(sched.value.forward_passes(), passes, "no row was scored");
        assert_eq!(ids(&sched.agents[0].pending), ids(&tasks));
        assert!(sched.issued.is_empty());

        platform.remove_group(addrs[0], GroupId(100));
        let cmds = sched.dispatch(now, &PlatformView::new(&platform, now));
        assert!(sched.value.forward_passes() > passes, "an open site scores");
        assert!(
            matches!(cmds.as_slice(), [Command::Dispatch { node, .. }] if *node == addrs[0]),
            "the freed slot takes one group: {cmds:?}"
        );
    }

    #[test]
    fn a_shard_syncs_one_ring_summary_that_its_peers_snapshot() {
        use crate::action::PolicyKind;
        let cfg = AdaptiveRlConfig::default();
        let mut from = AdaptiveRl::for_shard(0, 3, cfg);
        for (cycle, l_val) in [(1, 2.0), (2, 7.0), (3, 7.0), (4, -1.0)] {
            from.memory.record(Experience {
                agent: 0,
                action: ActionChoice {
                    policy: PolicyKind::Identical,
                    opnum: cycle as usize,
                },
                l_val,
                cycle,
            });
        }
        from.sync_dirty = Some(SimTime::new(4.5));
        let mut out = Vec::new();
        from.drain_sync(&mut out);
        from.drain_sync(&mut out);
        assert_eq!(out.len(), 1, "one record per changed epoch, none after");
        assert_eq!((out[0].time, out[0].site), (SimTime::new(4.5), 0));

        let mut to = AdaptiveRl::for_shard(1, 3, cfg);
        to.apply_sync(&out[0]);
        let sent = from.memory().summary(0);
        assert_eq!(to.memory().summary(0), sent);
        assert_eq!(to.memory().best_shared().unwrap().cycle, 3, "last maximum");
        let depth = cfg.memory_depth as u64;
        let malformed = [
            (0, [2 | 4 << 8, 3, 0, 0]),
            (0, [1, 3, 0, 0]),
            (0, [1 | (depth + 1) << 8, 3, 0, 0]),
            (0, [1 | 4 << 8, 0, 0, 0]),
            (1, [1 | 4 << 8, 3, 0, 0]),
            (3, [1 | 4 << 8, 3, 0, 0]),
        ];
        for (site, payload) in malformed {
            to.apply_sync(&SyncRecord {
                site,
                payload,
                ..out[0]
            });
        }
        assert_eq!(to.memory().summary(0), sent, "malformed records ignored");
        assert_eq!(to.memory().len(), 4);

        let mut w = SnapWriter::new();
        to.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = AdaptiveRl::for_shard(1, 3, cfg);
        back.load_state(&mut SnapReader::new(&bytes)).unwrap();
        for agent in 0..3 {
            assert_eq!(back.memory().summary(agent), to.memory().summary(agent));
        }
        assert_eq!(back.memory().len(), 4);
    }

    #[test]
    fn a_site_state_is_scored_once_per_weight_version() {
        use platform::{GroupId, GroupPolicy};
        use workload::{Priority, TaskId};
        let platform = Platform::generate(
            PlatformSpec::small(1, 2, 4),
            &RngStream::root(5).derive("p"),
        );
        // ε = 0: every decision exploits.
        let cfg = AdaptiveRlConfig {
            epsilon0: 0.0,
            epsilon_floor: 0.0,
            ..AdaptiveRlConfig::default()
        };
        let mut sched = AdaptiveRl::new(1, cfg);
        let prios = [Priority::High, Priority::Low, Priority::Medium];
        let tasks: Vec<Task> = (0..6)
            .map(|i| Task {
                id: TaskId(i),
                size_mi: 800.0,
                arrival: SimTime::ZERO,
                deadline: SimTime::new(40.0 - i as f64),
                priority: prios[i as usize % 3],
                site: SiteId(0),
            })
            .collect();
        sched.on_arrivals(SimTime::ZERO, SiteId(0), tasks.clone());
        let now = SimTime::new(1.0);
        let view = PlatformView::new(&platform, now);
        let candidates = ActionChoice::candidates(4).len() as u64;
        // Dispatches, returns the forward passes it ran, and hands every
        // group but the first `keep` back through `on_rejected`: the pool
        // features are order-free sums, so the site state repeats.
        let round = |sched: &mut AdaptiveRl, keep: usize| {
            let before = sched.value.forward_passes();
            let cmds = sched.dispatch(now, &view);
            for cmd in cmds.iter().skip(keep) {
                if let Command::Dispatch { tasks, .. } = cmd {
                    sched.on_rejected(now, SiteId(0), tasks.clone());
                }
            }
            (cmds, sched.value.forward_passes() - before)
        };

        let (first, passes) = round(&mut sched, 0);
        assert_eq!(passes, candidates, "a new state scores every candidate");
        let (second, passes) = round(&mut sched, 1);
        assert_eq!(passes, 0, "the same state and weights reuse the argmax");
        assert_eq!(second, first, "and pick the same action");

        // One learning cycle trains the net: the same state scores again.
        let Command::Dispatch { node, tasks, .. } = &second[0] else {
            panic!("a dispatch: {second:?}");
        };
        let group = GroupId(7);
        sched.on_assignment(
            now,
            &AssignmentFeedback {
                group,
                node: *node,
                policy: GroupPolicy::Mixed,
                size: tasks.len(),
                pw: 1.0,
                capacity: 1.0,
                error: 0.0,
            },
        );
        let steps = sched.value.steps();
        sched.on_group_complete(
            now,
            &GroupFeedback {
                group,
                node: *node,
                policy: GroupPolicy::Mixed,
                size: tasks.len(),
                reward: tasks.len() as u32,
                pw: 1.0,
                error: 0.0,
                enqueued_at: now,
                first_start: Some(now),
                completed_at: now,
                split: false,
            },
        );
        assert_eq!(sched.value.steps(), steps + 1, "one training step");
        sched.on_arrivals(now, SiteId(0), tasks.clone());
        let (third, passes) = round(&mut sched, 0);
        assert_eq!(passes, candidates, "new weights score the state again");
        assert_eq!(third.len(), first.len());
    }

    /// [`AdaptiveRl`] with its argmax memo emptied before every dispatch:
    /// the scheduler as it scored before the memo. Every [`Scheduler`]
    /// method forwards.
    struct MemoOff(AdaptiveRl);

    impl Scheduler for MemoOff {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn on_arrivals(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
            self.0.on_arrivals(now, site, tasks)
        }
        fn dispatch(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
            self.0.best_memo.fill(None);
            self.0.dispatch(now, view)
        }
        fn on_assignment(&mut self, now: SimTime, fb: &AssignmentFeedback) {
            self.0.on_assignment(now, fb)
        }
        fn on_group_complete(&mut self, now: SimTime, fb: &GroupFeedback) {
            self.0.on_group_complete(now, fb)
        }
        fn on_rejected(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
            self.0.on_rejected(now, site, tasks)
        }
        fn on_orphaned(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
            self.0.on_orphaned(now, site, tasks)
        }
        fn on_group_aborted(&mut self, now: SimTime, group: platform::GroupId) {
            self.0.on_group_aborted(now, group)
        }
        fn on_tick(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
            self.0.on_tick(now, view)
        }
        fn drain_sync(&mut self, out: &mut Vec<SyncRecord>) {
            self.0.drain_sync(out)
        }
        fn apply_sync(&mut self, rec: &SyncRecord) {
            self.0.apply_sync(rec)
        }
        fn exploration(&self) -> Option<f64> {
            self.0.exploration()
        }
        fn save_state(&mut self, w: &mut SnapWriter) {
            self.0.save_state(w)
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
            self.0.load_state(r)
        }
    }

    #[test]
    fn the_argmax_memo_changes_no_run() {
        use neural::KernelPrecision;
        use platform::{replay_divergence, FaultSpec};
        for precision in KernelPrecision::ALL {
            for faults in [false, true] {
                for load in [1.0, 1.3] {
                    let rng = RngStream::root(31);
                    let spec = PlatformSpec::small(3, 4, 4);
                    let platform = Platform::generate(spec.clone(), &rng.derive("p"));
                    let mut wspec = WorkloadSpec::paper(400, 3, platform.reference_speed());
                    // Offered load: arriving work per time unit over the
                    // platform's capacity (3900 MI is the mean task size).
                    wspec.mean_interarrival = 3900.0 / (load * platform.total_nominal_mips());
                    let tasks = Workload::generate(wspec, &rng.derive("w")).tasks;
                    let exec = || ExecConfig {
                        faults: FaultSpec {
                            enabled: faults,
                            proc_mtbf: 200.0,
                            proc_mttr: 25.0,
                            node_mtbf: 700.0,
                            node_mttr: 50.0,
                            horizon: 500.0,
                            ..FaultSpec::default()
                        },
                        ..ExecConfig::default()
                    };
                    let cfg = AdaptiveRlConfig {
                        precision,
                        ..AdaptiveRlConfig::default()
                    };
                    let mut memo = AdaptiveRl::new(3, cfg);
                    let mut off = MemoOff(AdaptiveRl::new(3, cfg));
                    let a = ExecEngine::new(exec()).run(platform, tasks.clone(), &mut memo);
                    let platform = Platform::generate(spec, &rng.derive("p"));
                    let b = ExecEngine::new(exec()).run(platform, tasks, &mut off);
                    let case = format!("{precision:?}, faults {faults}, load {load}");
                    if let Some(d) = replay_divergence(&a, &b) {
                        panic!("{case}: the memo changed the run: {d}");
                    }
                    assert!(
                        memo.value.forward_passes() < off.0.value.forward_passes(),
                        "{case}: the memo never hit"
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_submissions_leave_the_value_net_finite() {
        use platform::ScheduleSession;
        use workload::submit::{Submission, SubmitTask};
        let rng = RngStream::root(41);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(400, 2, platform.reference_speed());
        wspec.mean_interarrival = 0.5;
        let tasks = Workload::generate(wspec, &rng.derive("w")).tasks;
        let mut sched = AdaptiveRl::new(2, AdaptiveRlConfig::default());
        let exec = ExecEngine::new(ExecConfig::default());
        let mut session = ScheduleSession::new(&exec, platform, &mut sched);
        let mut events = Vec::new();
        let hostile = |line: &str| Submission::parse_line(line).expect("valid wire line").tasks;
        // A relative deadline that rounds away at a non-zero horizon, and
        // three tasks whose summed size overflows a group's Eq. (10) weight.
        let vanishing = hostile(
            r#"{"submit":{"id":1,"tasks":[{"size_mi":1000,"deadline":1e-300,"priority":"high","site":1}]}}"#,
        );
        let huge = SubmitTask {
            size_mi: f64::MAX,
            deadline: 2.0,
            priority: workload::Priority::High,
            site: SiteId(0),
        };
        for (i, t) in tasks.iter().enumerate() {
            session.advance_to(t.arrival, &mut events);
            if i == tasks.len() / 2 {
                let _ = session.submit(&vanishing);
                let _ = session.submit(&[huge.clone(), huge.clone(), huge.clone()]);
            }
            let sub = SubmitTask {
                size_mi: t.size_mi,
                deadline: t.deadline.as_f64() - t.arrival.as_f64(),
                priority: t.priority,
                site: t.site,
            };
            session.submit(&[sub]).expect("a sane task is admitted");
        }
        session.advance_to(SimTime::new(5_000.0), &mut events);
        drop(session.finish());
        assert!(sched.cycles() > 0, "the agent learned");
        let obs = SiteObservation {
            mean_load: 1.0,
            mean_queue_free: 0.5,
            mean_power_frac: 0.6,
            mean_capacity: 1500.0,
            max_procs: 4,
            pending: 3,
            priority_mix: [0.3, 0.4, 0.3],
            availability: 1.0,
        };
        let prediction = sched.value.predict(&obs, ActionChoice::candidates(4)[0]);
        assert!(prediction.is_finite(), "prediction {prediction}");
    }
}
