//! A minimal discrete-event dispatch loop.
//!
//! [`Engine`] owns the clock and the future-event list and repeatedly hands
//! the earliest event to a user-supplied [`Simulation`]. The simulation can
//! schedule further events through the [`Scheduler`](EngineHandle) handle it
//! receives. The loop terminates when the event list drains, when the
//! simulation reports completion, or when a configured event-count fuse
//! blows (a guard against accidental non-termination in tests).
//!
//! There is exactly one loop, [`Engine::run_until`]; [`Engine::run`] is
//! the same loop with an unbounded horizon. Observation (tracing,
//! profiling, checkpointing) belongs to the simulation: it sees every
//! event in [`Simulation::on_event`] and every quiescent boundary in
//! [`Simulation::after_event`].

use crate::event::EventQueue;
use crate::time::SimTime;

/// Callback interface driven by [`Engine::run`].
pub trait Simulation {
    /// The event payload type.
    type Event;

    /// Handles one event at its firing time. New events are scheduled
    /// through `handle`. Returning `false` stops the run early.
    fn on_event(
        &mut self,
        now: SimTime,
        event: Self::Event,
        handle: &mut EngineHandle<'_, Self::Event>,
    ) -> bool;

    /// Runs after each event the simulation handled and chose to continue
    /// past, with the clock, the processed-event count and the pending
    /// event list. No event is in flight here — exactly the boundary a
    /// checkpoint must capture. The hook must not alter observable
    /// simulation state. The default does nothing.
    #[inline]
    fn after_event(&mut self, _now: SimTime, _processed: u64, _pending: &EventQueue<Self::Event>) {}
}

/// Scheduling handle passed to [`Simulation::on_event`].
///
/// Wraps the event queue so a simulation can only *add* future events, never
/// reorder or inspect the pending list.
pub struct EngineHandle<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> EngineHandle<'_, E> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time (causality violation).
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` `delay` after now.
    #[inline]
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }
}

/// Outcome of a completed [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every scheduled event was processed.
    Drained,
    /// The simulation returned `false` from `on_event`.
    Stopped,
    /// The event fuse blew before the queue drained.
    FuseBlown,
    /// A [`Engine::run_until`] horizon was reached with at least one
    /// future event still pending.
    Paused,
}

/// The dispatch loop.
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    fuse: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with an effectively unlimited event fuse.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            fuse: u64::MAX,
        }
    }

    /// Sets the maximum number of events to process before aborting.
    pub fn with_fuse(mut self, fuse: u64) -> Self {
        self.fuse = fuse;
        self
    }

    /// Pre-sizes the future-event list for an expected peak occupancy,
    /// avoiding heap regrowth mid-run. Call before priming.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        debug_assert!(self.queue.is_empty(), "pre-size before priming");
        self.queue = EventQueue::with_capacity(cap);
        self
    }

    /// Seeds an initial event at absolute time `at`.
    pub fn prime(&mut self, at: SimTime, event: E) {
        self.queue.push(at, event);
    }

    /// Current simulation time (the firing time of the last event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Read access to the pending future-event list (for checkpointing).
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// The configured event fuse.
    pub fn fuse(&self) -> u64 {
        self.fuse
    }

    /// Rebuilds an engine mid-run from captured state: the pending event
    /// list, the clock, and the processed-event counter. A run continued
    /// from here behaves exactly as if the original had never stopped.
    pub fn from_parts(queue: EventQueue<E>, now: SimTime, processed: u64, fuse: u64) -> Self {
        Engine {
            queue,
            now,
            processed,
            fuse,
        }
    }

    /// Runs `sim` until the queue drains, it stops itself, or the fuse blows.
    pub fn run<S>(&mut self, sim: &mut S) -> RunOutcome
    where
        S: Simulation<Event = E>,
    {
        self.run_until(SimTime::MAX, sim)
    }

    /// Runs `sim` through every event scheduled at or before `until`,
    /// then pauses with the remaining future events intact.
    ///
    /// This is the step-driven mode a paced service loop needs: the
    /// caller owns the outer clock (wall time, a pacing budget) and
    /// advances the simulation horizon in increments, injecting new
    /// events between calls with [`Engine::prime`]. The clock stays at
    /// the firing time of the last processed event — it never jumps to
    /// an event-free horizon — so an engine driven by `run_until` slices
    /// is state-for-state identical to one that ran the same events in a
    /// single [`Engine::run`], and [`Engine::from_parts`] round-trips
    /// are unaffected.
    ///
    /// Returns [`RunOutcome::Paused`] when events remain beyond
    /// `until`, [`RunOutcome::Drained`] when the queue is empty,
    /// [`RunOutcome::Stopped`] when the simulation returned `false`, and
    /// [`RunOutcome::FuseBlown`] once the event fuse is reached.
    pub fn run_until<S>(&mut self, until: SimTime, sim: &mut S) -> RunOutcome
    where
        S: Simulation<Event = E>,
    {
        while let Some(scheduled) = self.queue.pop_through(until) {
            debug_assert!(scheduled.time >= self.now, "event queue must be monotone");
            self.now = scheduled.time;
            self.processed += 1;
            let mut handle = EngineHandle {
                now: self.now,
                queue: &mut self.queue,
            };
            if !sim.on_event(self.now, scheduled.event, &mut handle) {
                return RunOutcome::Stopped;
            }
            sim.after_event(self.now, self.processed, &self.queue);
            if self.processed >= self.fuse {
                return RunOutcome::FuseBlown;
            }
        }
        if self.queue.is_empty() {
            RunOutcome::Drained
        } else {
            RunOutcome::Paused
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A ball that bounces a fixed number of times at unit intervals.
    struct Bouncer {
        remaining: u32,
        times: Vec<f64>,
    }

    #[derive(Debug)]
    struct Bounce;

    impl Simulation for Bouncer {
        type Event = Bounce;
        fn on_event(&mut self, now: SimTime, _e: Bounce, h: &mut EngineHandle<'_, Bounce>) -> bool {
            self.times.push(now.as_f64());
            if self.remaining > 0 {
                self.remaining -= 1;
                h.schedule_in(SimDuration::new(1.0), Bounce);
            }
            true
        }
    }

    #[test]
    fn drains_and_advances_clock() {
        let mut sim = Bouncer {
            remaining: 3,
            times: Vec::new(),
        };
        let mut engine = Engine::new();
        engine.prime(SimTime::new(0.5), Bounce);
        let outcome = engine.run(&mut sim);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.times, vec![0.5, 1.5, 2.5, 3.5]);
        assert_eq!(engine.now().as_f64(), 3.5);
        assert_eq!(engine.processed(), 4);
    }

    #[test]
    fn run_until_slices_match_a_single_run() {
        let mut whole = Bouncer {
            remaining: 5,
            times: Vec::new(),
        };
        let mut engine = Engine::new();
        engine.prime(SimTime::new(0.5), Bounce);
        engine.run(&mut whole);

        let mut sliced = Bouncer {
            remaining: 5,
            times: Vec::new(),
        };
        let mut engine = Engine::new();
        engine.prime(SimTime::new(0.5), Bounce);
        // Horizons before the first event, mid-stream, exactly on an
        // event time, and past the end.
        assert_eq!(
            engine.run_until(SimTime::new(0.25), &mut sliced),
            RunOutcome::Paused
        );
        assert!(sliced.times.is_empty());
        assert_eq!(engine.now(), SimTime::ZERO, "no event fired yet");
        assert_eq!(
            engine.run_until(SimTime::new(2.5), &mut sliced),
            RunOutcome::Paused
        );
        assert_eq!(sliced.times, vec![0.5, 1.5, 2.5]);
        assert_eq!(engine.now().as_f64(), 2.5, "clock stops at last event");
        assert_eq!(
            engine.run_until(SimTime::new(100.0), &mut sliced),
            RunOutcome::Drained
        );
        assert_eq!(sliced.times, whole.times);
        assert_eq!(engine.processed(), 6);

        // New events primed after a pause are picked up by later slices.
        let mut late = Bouncer {
            remaining: 0,
            times: Vec::new(),
        };
        let mut engine = Engine::new();
        assert_eq!(
            engine.run_until(SimTime::new(1.0), &mut late),
            RunOutcome::Drained
        );
        engine.prime(SimTime::new(3.0), Bounce);
        assert_eq!(
            engine.run_until(SimTime::new(5.0), &mut late),
            RunOutcome::Drained
        );
        assert_eq!(late.times, vec![3.0]);
    }

    #[test]
    fn fuse_stops_runaway() {
        let mut sim = Bouncer {
            remaining: u32::MAX,
            times: Vec::new(),
        };
        let mut engine = Engine::new().with_fuse(10);
        engine.prime(SimTime::ZERO, Bounce);
        assert_eq!(engine.run(&mut sim), RunOutcome::FuseBlown);
        assert_eq!(engine.processed(), 10);
    }

    struct StopsEarly;
    impl Simulation for StopsEarly {
        type Event = u32;
        fn on_event(&mut self, _now: SimTime, e: u32, _h: &mut EngineHandle<'_, u32>) -> bool {
            e < 2
        }
    }

    #[test]
    fn simulation_can_stop_itself() {
        let mut engine = Engine::new();
        engine.prime(SimTime::new(1.0), 1);
        engine.prime(SimTime::new(2.0), 2);
        engine.prime(SimTime::new(3.0), 3);
        assert_eq!(engine.run(&mut StopsEarly), RunOutcome::Stopped);
        assert_eq!(engine.now().as_f64(), 2.0);
    }

    struct PastScheduler;
    impl Simulation for PastScheduler {
        type Event = ();
        fn on_event(&mut self, _now: SimTime, _e: (), h: &mut EngineHandle<'_, ()>) -> bool {
            h.schedule_at(SimTime::ZERO, ());
            true
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut engine = Engine::new();
        engine.prime(SimTime::new(5.0), ());
        let _ = engine.run(&mut PastScheduler);
    }

    /// Counts the quiescent boundaries [`Simulation::after_event`] sees.
    struct Watched {
        inner: Bouncer,
        seen: Vec<(f64, u64, usize)>,
    }

    impl Simulation for Watched {
        type Event = Bounce;
        fn on_event(&mut self, now: SimTime, e: Bounce, h: &mut EngineHandle<'_, Bounce>) -> bool {
            self.inner.on_event(now, e, h)
        }
        fn after_event(&mut self, now: SimTime, processed: u64, pending: &EventQueue<Bounce>) {
            self.seen.push((now.as_f64(), processed, pending.len()));
        }
    }

    #[test]
    fn after_event_sees_every_handled_event_at_rest() {
        let mut sim = Watched {
            inner: Bouncer {
                remaining: 2,
                times: Vec::new(),
            },
            seen: Vec::new(),
        };
        let mut engine = Engine::new();
        engine.prime(SimTime::new(0.5), Bounce);
        assert_eq!(engine.run(&mut sim), RunOutcome::Drained);
        // Each boundary already holds the follow-up the handler scheduled.
        assert_eq!(sim.seen, vec![(0.5, 1, 1), (1.5, 2, 1), (2.5, 3, 0)]);
    }
}
