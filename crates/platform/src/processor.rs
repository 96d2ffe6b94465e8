//! A single processor with power-state accounting.
//!
//! State machine: `Idle ↔ Busy`, `Idle → Asleep → Waking → Idle`. Every
//! transition settles the elapsed interval into the per-state time buckets
//! and the energy integral, so `energy_at(now)` is exact at any instant —
//! this is Eq. (5) evaluated incrementally.

use crate::group::GroupId;
use crate::power::PowerParams;
use serde::{Deserialize, Serialize};
use simcore::time::{SimDuration, SimTime};
use snapshot::{Codec, SnapshotError};
use workload::{SimCodec, TaskId};

/// Processor activity state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum ProcState {
    /// Powered but not executing (draws `p_idle`).
    #[default]
    Idle,
    /// Executing a task until `finish` (draws the snapshotted busy power).
    Busy {
        /// Executing task.
        task: TaskId,
        /// The group the task belongs to.
        group: GroupId,
        /// Completion instant.
        finish: SimTime,
        /// Busy draw in watts, snapshotted at start (throttle-dependent).
        power: f64,
    },
    /// Deep sleep (draws `p_sleep`).
    Asleep,
    /// Waking up until `until` (draws the peak inrush wattage while
    /// re-energising).
    Waking {
        /// Instant the processor becomes usable.
        until: SimTime,
    },
    /// Crashed by an injected fault (draws nothing). Leaves this state
    /// only through [`Processor::recover`].
    Failed,
}

impl ProcState {
    /// Snapshot field list: a tag, then the variant's payload.
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let blanks = [
            ProcState::Idle,
            ProcState::Busy {
                task: TaskId::default(),
                group: GroupId::default(),
                finish: SimTime::ZERO,
                power: 0.0,
            },
            ProcState::Asleep,
            ProcState::Waking {
                until: SimTime::ZERO,
            },
            ProcState::Failed,
        ];
        c.variant(self, &blanks, "processor-state")?;
        match self {
            ProcState::Busy {
                task,
                group,
                finish,
                power,
            } => {
                c.u64(&mut task.0)?;
                c.u64(&mut group.0)?;
                c.time(finish)?;
                c.finite(power)
            }
            ProcState::Waking { until } => c.time(until),
            ProcState::Idle | ProcState::Asleep | ProcState::Failed => Ok(()),
        }
    }
}

/// A processor: immutable capability parameters plus mutable state and
/// accounting.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Processor {
    /// Nominal speed in MIPS.
    pub speed_mips: f64,
    /// Peak (100 % utilisation) draw in watts.
    pub p_peak: f64,
    state: ProcState,
    last_transition: SimTime,
    busy_time: f64,
    idle_time: f64,
    sleep_time: f64,
    failed_time: f64,
    energy: f64,
    tasks_executed: u64,
    p_idle: f64,
    p_sleep: f64,
}

impl Processor {
    /// Creates an idle processor at time zero.
    ///
    /// # Panics
    /// Panics if `speed_mips` is not strictly positive.
    pub fn new(speed_mips: f64, params: &PowerParams) -> Self {
        assert!(speed_mips > 0.0, "processor speed must be positive");
        Processor {
            speed_mips,
            p_peak: params.peak_for_speed(speed_mips),
            state: ProcState::Idle,
            last_transition: SimTime::ZERO,
            busy_time: 0.0,
            idle_time: 0.0,
            sleep_time: 0.0,
            failed_time: 0.0,
            energy: 0.0,
            tasks_executed: 0,
            p_idle: params.p_idle,
            p_sleep: params.p_sleep,
        }
    }

    /// Current state.
    pub fn state(&self) -> ProcState {
        self.state
    }

    /// Whether the processor can accept a task right now.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ProcState::Idle)
    }

    /// Whether the processor is in deep sleep.
    pub fn is_asleep(&self) -> bool {
        matches!(self.state, ProcState::Asleep)
    }

    /// Whether the processor is executing.
    pub fn is_busy(&self) -> bool {
        matches!(self.state, ProcState::Busy { .. })
    }

    /// Whether the processor is down from an injected fault.
    pub fn is_failed(&self) -> bool {
        matches!(self.state, ProcState::Failed)
    }

    /// Instantaneous power draw in watts.
    pub fn current_power(&self) -> f64 {
        match self.state {
            ProcState::Idle => self.p_idle,
            ProcState::Busy { power, .. } => power,
            ProcState::Asleep => self.p_sleep,
            // Wake-up draws the inrush/peak wattage while the package
            // re-energises — part of what makes careless sleeping costly.
            ProcState::Waking { .. } => self.p_peak,
            // A crashed package draws nothing.
            ProcState::Failed => 0.0,
        }
    }

    /// Integrates elapsed time into the state buckets and energy integral.
    fn settle(&mut self, now: SimTime) {
        let dt = now.since(self.last_transition).as_f64();
        if dt > 0.0 {
            self.energy += dt * self.current_power();
            match self.state {
                ProcState::Idle | ProcState::Waking { .. } => self.idle_time += dt,
                ProcState::Busy { .. } => self.busy_time += dt,
                ProcState::Asleep => self.sleep_time += dt,
                ProcState::Failed => self.failed_time += dt,
            }
        }
        self.last_transition = now;
    }

    /// Execution time of `size_mi` at throttle `θ` (Eq. 3 with effective
    /// speed `θ · sp_j`).
    pub fn exec_time(&self, size_mi: f64, throttle: f64) -> SimDuration {
        debug_assert!(throttle > 0.0 && throttle <= 1.0);
        SimDuration::new(size_mi / (self.speed_mips * throttle))
    }

    /// Starts executing a task; returns the completion instant.
    ///
    /// # Panics
    /// Panics if the processor is not idle.
    pub fn start_task(
        &mut self,
        now: SimTime,
        task: TaskId,
        group: GroupId,
        size_mi: f64,
        throttle: f64,
        params: &PowerParams,
    ) -> SimTime {
        assert!(
            self.is_idle(),
            "cannot start a task on a non-idle processor"
        );
        self.settle(now);
        let finish = now + self.exec_time(size_mi, throttle);
        let power = params.busy_power(self.p_peak, throttle);
        self.state = ProcState::Busy {
            task,
            group,
            finish,
            power,
        };
        finish
    }

    /// Completes the running task, returning `(task, group)`.
    ///
    /// # Panics
    /// Panics if the processor is not busy.
    pub fn finish_task(&mut self, now: SimTime) -> (TaskId, GroupId) {
        let ProcState::Busy {
            task,
            group,
            finish,
            ..
        } = self.state
        else {
            panic!("finish_task on a non-busy processor");
        };
        debug_assert!(
            (now.as_f64() - finish.as_f64()).abs() < 1e-9,
            "completion fired at the wrong time"
        );
        self.settle(now);
        self.state = ProcState::Idle;
        self.tasks_executed += 1;
        (task, group)
    }

    /// Puts an idle processor to sleep. Returns `false` (no-op) if the
    /// processor is not idle.
    pub fn sleep(&mut self, now: SimTime) -> bool {
        if !self.is_idle() {
            return false;
        }
        self.settle(now);
        self.state = ProcState::Asleep;
        true
    }

    /// Begins waking a sleeping processor; returns the instant it becomes
    /// usable, or `None` if it was not asleep.
    pub fn begin_wake(&mut self, now: SimTime, params: &PowerParams) -> Option<SimTime> {
        if !self.is_asleep() {
            return None;
        }
        self.settle(now);
        let until = now + SimDuration::new(params.wake_latency);
        self.state = ProcState::Waking { until };
        Some(until)
    }

    /// Crashes the processor, whatever it was doing. If it was executing,
    /// returns the preempted `(task, group)` so the engine can re-dispatch
    /// the work; the partially executed instructions are lost. No-op
    /// (returning `None`) if already failed.
    pub fn fail(&mut self, now: SimTime) -> Option<(TaskId, GroupId)> {
        if self.is_failed() {
            return None;
        }
        self.settle(now);
        let preempted = match self.state {
            ProcState::Busy { task, group, .. } => Some((task, group)),
            _ => None,
        };
        self.state = ProcState::Failed;
        preempted
    }

    /// Brings a failed processor back online (idle).
    ///
    /// # Panics
    /// Panics if the processor is not failed.
    pub fn recover(&mut self, now: SimTime) {
        assert!(self.is_failed(), "recover on a non-failed processor");
        self.settle(now);
        self.state = ProcState::Idle;
    }

    /// Completes a wake transition.
    ///
    /// # Panics
    /// Panics if the processor is not waking.
    pub fn finish_wake(&mut self, now: SimTime) {
        let ProcState::Waking { until } = self.state else {
            panic!("finish_wake on a non-waking processor");
        };
        debug_assert!(now >= until, "wake completed early");
        self.settle(now);
        self.state = ProcState::Idle;
    }

    /// Total energy consumed through `now`, in watt-time-units (Eq. 5).
    pub fn energy_at(&self, now: SimTime) -> f64 {
        let dt = now.since(self.last_transition).as_f64();
        self.energy + dt * self.current_power()
    }

    /// Cumulative busy time through `now`.
    pub fn busy_time_at(&self, now: SimTime) -> f64 {
        let dt = now.since(self.last_transition).as_f64();
        self.busy_time + if self.is_busy() { dt } else { 0.0 }
    }

    /// Utilisation through `now`: busy time over elapsed time (§V,
    /// Experiment 2's metric). Zero before any time has elapsed.
    pub fn utilisation_at(&self, now: SimTime) -> f64 {
        let elapsed = now.as_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.busy_time_at(now) / elapsed
        }
    }

    /// Cumulative idle time through `now`, tail-inclusive. Waking time
    /// accrues here too, mirroring [`Processor::energy_at`]'s bucketing:
    /// a waking processor is powered but not executing.
    pub fn idle_time_at(&self, now: SimTime) -> f64 {
        let dt = now.since(self.last_transition).as_f64();
        self.idle_time
            + if matches!(self.state, ProcState::Idle | ProcState::Waking { .. }) {
                dt
            } else {
                0.0
            }
    }

    /// Cumulative deep-sleep time through `now`, tail-inclusive.
    pub fn sleep_time_at(&self, now: SimTime) -> f64 {
        let dt = now.since(self.last_transition).as_f64();
        self.sleep_time + if self.is_asleep() { dt } else { 0.0 }
    }

    /// Cumulative fault downtime through `now`, tail-inclusive.
    pub fn failed_time_at(&self, now: SimTime) -> f64 {
        let dt = now.since(self.last_transition).as_f64();
        self.failed_time + if self.is_failed() { dt } else { 0.0 }
    }

    /// Number of tasks completed on this processor.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks_executed
    }

    /// Snapshot field list. Decoding bypasses the transition machinery, so
    /// every float is checked here, and the power draws must be the ones
    /// [`Processor::new`] derives from the speed and `power`.
    pub(crate) fn snap<C: Codec>(
        &mut self,
        c: &mut C,
        power: &PowerParams,
    ) -> Result<(), SnapshotError> {
        c.finite(&mut self.speed_mips)?;
        let speed = self.speed_mips;
        c.check(speed > 0.0, || {
            format!("processor speed {speed} not positive")
        })?;
        c.finite(&mut self.p_peak)?;
        self.state.snap(c)?;
        c.time(&mut self.last_transition)?;
        c.nonneg(&mut self.busy_time)?;
        c.nonneg(&mut self.idle_time)?;
        c.nonneg(&mut self.sleep_time)?;
        c.nonneg(&mut self.failed_time)?;
        c.nonneg(&mut self.energy)?;
        c.u64(&mut self.tasks_executed)?;
        c.finite(&mut self.p_idle)?;
        c.finite(&mut self.p_sleep)?;
        let derived = Processor::new(speed, power);
        c.check(
            (self.p_peak, self.p_idle, self.p_sleep)
                == (derived.p_peak, derived.p_idle, derived.p_sleep),
            || format!("processor power draws disagree with its speed {speed}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> Processor {
        Processor::new(500.0, &PowerParams::paper())
    }

    #[test]
    fn idle_energy_accrues_at_p_idle() {
        let p = proc();
        assert_eq!(p.energy_at(SimTime::new(10.0)), 480.0);
    }

    #[test]
    fn busy_cycle_matches_eq5() {
        let params = PowerParams::paper();
        let mut p = proc();
        // Idle 0..5 at 48 W, busy 5..9 at peak (80 W for 500 MIPS), idle after.
        let finish = p.start_task(
            SimTime::new(5.0),
            TaskId(1),
            GroupId(1),
            2000.0,
            1.0,
            &params,
        );
        assert_eq!(finish.as_f64(), 9.0);
        let (t, g) = p.finish_task(finish);
        assert_eq!((t, g), (TaskId(1), GroupId(1)));
        let e = p.energy_at(SimTime::new(10.0));
        let expected = 5.0 * 48.0 + 4.0 * 80.0 + 1.0 * 48.0;
        assert!((e - expected).abs() < 1e-9, "energy {e} vs {expected}");
        assert_eq!(p.tasks_executed(), 1);
    }

    #[test]
    fn throttled_execution_is_slower_and_cheaper_per_instant() {
        let params = PowerParams::paper();
        let mut full = proc();
        let mut half = proc();
        let f_full = full.start_task(SimTime::ZERO, TaskId(1), GroupId(1), 1000.0, 1.0, &params);
        let f_half = half.start_task(SimTime::ZERO, TaskId(1), GroupId(1), 1000.0, 0.5, &params);
        assert_eq!(f_full.as_f64(), 2.0);
        assert_eq!(f_half.as_f64(), 4.0);
        assert!(half.current_power() < full.current_power());
    }

    #[test]
    fn utilisation_tracks_busy_fraction() {
        let params = PowerParams::paper();
        let mut p = proc();
        let finish = p.start_task(SimTime::ZERO, TaskId(1), GroupId(1), 2500.0, 1.0, &params);
        p.finish_task(finish); // busy 0..5
        assert!((p.utilisation_at(SimTime::new(10.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sleep_wake_cycle() {
        // Use a real deep-sleep state (the paper's model maps sleep to
        // idle; the mechanics are identical either way).
        let params = PowerParams {
            p_sleep: 5.0,
            ..PowerParams::paper()
        };
        let mut p = Processor::new(500.0, &params);
        assert!(p.sleep(SimTime::new(1.0)));
        assert!(p.is_asleep());
        // Sleeping draws p_sleep.
        let e = p.energy_at(SimTime::new(11.0));
        assert!((e - (1.0 * 48.0 + 10.0 * 5.0)).abs() < 1e-9);
        let usable = p.begin_wake(SimTime::new(11.0), &params).unwrap();
        assert_eq!(usable.as_f64(), 13.0);
        p.finish_wake(usable);
        assert!(p.is_idle());
        assert_eq!(p.sleep_time_at(usable), 10.0);
    }

    #[test]
    fn sleep_refused_when_busy() {
        let params = PowerParams::paper();
        let mut p = proc();
        p.start_task(SimTime::ZERO, TaskId(1), GroupId(1), 1000.0, 1.0, &params);
        assert!(!p.sleep(SimTime::new(0.5)));
        assert!(p.is_busy());
    }

    #[test]
    fn wake_refused_when_not_asleep() {
        let params = PowerParams::paper();
        let mut p = proc();
        assert!(p.begin_wake(SimTime::ZERO, &params).is_none());
    }

    #[test]
    #[should_panic(expected = "non-idle")]
    fn double_start_panics() {
        let params = PowerParams::paper();
        let mut p = proc();
        p.start_task(SimTime::ZERO, TaskId(1), GroupId(1), 1000.0, 1.0, &params);
        p.start_task(
            SimTime::new(0.1),
            TaskId(2),
            GroupId(1),
            1000.0,
            1.0,
            &params,
        );
    }

    #[test]
    fn fail_preempts_and_draws_nothing() {
        let params = PowerParams::paper();
        let mut p = proc();
        p.start_task(SimTime::ZERO, TaskId(7), GroupId(3), 5000.0, 1.0, &params);
        // Crash at t=2: the running task comes back out.
        let preempted = p.fail(SimTime::new(2.0));
        assert_eq!(preempted, Some((TaskId(7), GroupId(3))));
        assert!(p.is_failed());
        assert_eq!(p.current_power(), 0.0);
        // Downtime accrues zero energy: 2 s busy at 80 W, then nothing.
        assert!((p.energy_at(SimTime::new(10.0)) - 2.0 * 80.0).abs() < 1e-9);
        // The preempted task never counted as executed.
        assert_eq!(p.tasks_executed(), 0);
        // Double fault is a no-op.
        assert_eq!(p.fail(SimTime::new(3.0)), None);
        p.recover(SimTime::new(10.0));
        assert!(p.is_idle());
        assert_eq!(p.failed_time_at(SimTime::new(10.0)), 8.0);
    }

    #[test]
    fn fail_from_idle_and_sleep() {
        let params = PowerParams {
            p_sleep: 5.0,
            ..PowerParams::paper()
        };
        let mut idle = Processor::new(500.0, &params);
        assert_eq!(idle.fail(SimTime::new(1.0)), None);
        assert!(idle.is_failed());
        assert!(!idle.is_idle() && !idle.is_asleep());
        let mut asleep = Processor::new(500.0, &params);
        asleep.sleep(SimTime::ZERO);
        assert_eq!(asleep.fail(SimTime::new(1.0)), None);
        assert!(asleep.is_failed());
        // A failed processor cannot sleep or wake.
        assert!(!asleep.sleep(SimTime::new(2.0)));
        assert!(asleep.begin_wake(SimTime::new(2.0), &params).is_none());
    }

    #[test]
    #[should_panic(expected = "non-failed")]
    fn recover_requires_failed() {
        let mut p = proc();
        p.recover(SimTime::new(1.0));
    }

    #[test]
    fn busy_time_includes_running_partial() {
        let params = PowerParams::paper();
        let mut p = proc();
        p.start_task(SimTime::ZERO, TaskId(1), GroupId(1), 5000.0, 1.0, &params);
        assert!((p.busy_time_at(SimTime::new(3.0)) - 3.0).abs() < 1e-12);
    }
}
