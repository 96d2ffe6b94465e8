//! The future-event list.
//!
//! A calendar queue keyed on `(time, sequence)`. The secondary sequence key
//! makes ordering *stable*: two events scheduled for the same instant pop in
//! the order they were pushed, which keeps whole simulations bit-for-bit
//! reproducible across runs and platforms.
//!
//! # Structure
//!
//! The queue is a classic two-tier calendar:
//!
//! * a **wheel** of day buckets, each covering one `width`-wide slice of
//!   virtual time starting at `origin`, holding the near-future events, and
//! * an **overflow rung** — a binary heap — holding everything beyond the
//!   wheel's current window (and everything pushed before the wheel is first
//!   calibrated).
//!
//! Pushes into the window append to the target bucket unsorted; only the
//! bucket under the cursor is kept sorted (descending, so the head pops from
//! the back in O(1)). When the cursor bucket drains, the cursor advances to
//! the next non-empty bucket and sorts it once. When the whole wheel drains
//! and events remain in the overflow rung, the wheel **rotates**: the bucket
//! width is recalibrated so the window exactly covers the pending span (the
//! wheel itself is sized once, targeting a handful of events per bucket so
//! its bucket headers stay cache-resident) and the rung is distributed into
//! buckets. Because slot index is monotone in time, every event in a later
//! bucket fires no earlier than any event under the cursor, so pop order is
//! exactly the (time, seq) order a binary heap would produce.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event with its scheduled firing time and tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone insertion counter; breaks ties at equal times.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we want the earliest event
        // (and, at equal times, the lowest sequence number) on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Smallest wheel size worth building.
const MIN_BUCKETS: usize = 4;
/// Largest wheel size; beyond this the overflow rung absorbs the tail.
const MAX_BUCKETS: usize = 1 << 16;
/// Target events per bucket at calibration. A handful per bucket keeps the
/// wheel an order of magnitude smaller than the pending population, so its
/// bucket headers stay cache-resident next to the simulation's own state;
/// the price is slightly longer (still tiny) cursor-bucket sorts.
const TARGET_DENSITY: usize = 8;
/// Slot indices are clamped here so degenerate widths cannot overflow `u64`.
const SLOT_CLAMP: f64 = (1u64 << 60) as f64;

/// A stable future-event list.
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::new(2.0), "late");
/// q.push(SimTime::new(1.0), "early");
/// q.push(SimTime::new(1.0), "early-but-second");
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "early-but-second");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Wheel of day buckets; empty until the first rotation calibrates it.
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    /// Far-future (and pre-calibration) events, earliest on top.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Virtual time covered by bucket slot 0 starts here.
    origin: f64,
    /// Reciprocal of the bucket width (cached for slot computation).
    inv_width: f64,
    /// Bucket width in virtual-time units.
    width: f64,
    /// Absolute slot index of `buckets[cursor]`.
    base_slot: u64,
    /// Ring index of the current day bucket.
    cursor: usize,
    /// Events currently stored in wheel buckets.
    in_wheel: usize,
    /// Total pending events (wheel + overflow).
    len: usize,
    /// Monotone insertion counter.
    next_seq: u64,
    /// Expected peak occupancy; drives the bucket count at calibration.
    cap_hint: usize,
    /// Largest `len` ever observed.
    max_occupancy: usize,
    /// Upper bound on the largest time in the overflow rung (sizing signal).
    overflow_max: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue sized for an expected peak occupancy.
    ///
    /// The hint pre-reserves the overflow rung and caps the wheel's bucket
    /// count at first calibration (the count itself comes from the pending
    /// population, targeting a handful of events per bucket).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            buckets: Vec::new(),
            overflow: BinaryHeap::with_capacity(cap),
            origin: 0.0,
            inv_width: 1.0,
            width: 1.0,
            base_slot: 0,
            cursor: 0,
            in_wheel: 0,
            len: 0,
            next_seq: 0,
            cap_hint: cap,
            max_occupancy: 0,
            overflow_max: f64::NEG_INFINITY,
        }
    }

    /// Absolute slot index for a firing time under the current calibration.
    #[inline]
    fn slot_of(&self, t: f64) -> u64 {
        let rel = (t - self.origin) * self.inv_width;
        if rel <= 0.0 {
            0
        } else if rel >= SLOT_CLAMP {
            SLOT_CLAMP as u64
        } else {
            rel as u64
        }
    }

    /// Schedules `event` to fire at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if self.len > self.max_occupancy {
            self.max_occupancy = self.len;
        }
        let ev = ScheduledEvent { time, seq, event };
        let n = self.buckets.len();
        if n == 0 {
            // Uncalibrated: everything waits in the overflow rung.
            self.overflow_max = self.overflow_max.max(time.as_f64());
            self.overflow.push(ev);
            return;
        }
        let slot = self.slot_of(time.as_f64());
        if slot >= self.base_slot.saturating_add(n as u64) {
            self.overflow_max = self.overflow_max.max(time.as_f64());
            self.overflow.push(ev);
            return;
        }
        self.in_wheel += 1;
        let off = slot.saturating_sub(self.base_slot);
        if self.in_wheel == 1 {
            // Wheel was empty: re-anchor the cursor on this event's day so
            // intermediate empty buckets are never scanned.
            self.cursor = (self.cursor + off as usize) % n;
            self.base_slot += off;
            self.buckets[self.cursor].push(ev);
            return;
        }
        if off == 0 {
            // Into the current day (including times at or before it, which
            // can only be at or before every later bucket): keep the cursor
            // bucket sorted descending so `pop` stays O(1).
            let bucket = &mut self.buckets[self.cursor];
            let key = (ev.time, ev.seq);
            let pos = bucket.partition_point(|e| (e.time, e.seq) > key);
            bucket.insert(pos, ev);
        } else {
            let idx = (self.cursor + off as usize) % n;
            self.buckets[idx].push(ev);
        }
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_through(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `until`; leaves the queue's contents untouched otherwise. One head
    /// lookup serves both the horizon check and the removal.
    #[inline]
    pub fn pop_through(&mut self, until: SimTime) -> Option<ScheduledEvent<E>> {
        if self.len == 0 {
            return None;
        }
        if self.in_wheel == 0 {
            self.rotate();
        }
        let w = self.buckets[self.cursor]
            .last()
            .expect("cursor bucket holds the wheel head");
        // The overflow rung can hold a *straggler* earlier than the wheel
        // head: an event pushed beyond the window before the cursor slid
        // past its slot. The head is therefore the min of both tiers.
        if let Some(o) = self.overflow.peek() {
            if (o.time, o.seq) < (w.time, w.seq) {
                if o.time.as_f64() > until.as_f64() {
                    return None;
                }
                let ev = self.overflow.pop().expect("peeked above");
                self.len -= 1;
                if self.overflow.is_empty() {
                    self.overflow_max = f64::NEG_INFINITY;
                }
                return Some(ev);
            }
        }
        if w.time.as_f64() > until.as_f64() {
            return None;
        }
        let ev = self.buckets[self.cursor]
            .pop()
            .expect("cursor bucket holds the queue head");
        self.in_wheel -= 1;
        self.len -= 1;
        if self.buckets[self.cursor].is_empty() && self.in_wheel > 0 {
            self.advance_cursor();
        }
        Some(ev)
    }

    /// Moves the cursor to the next non-empty bucket and sorts it.
    fn advance_cursor(&mut self) {
        let n = self.buckets.len();
        loop {
            self.cursor = (self.cursor + 1) % n;
            self.base_slot += 1;
            if !self.buckets[self.cursor].is_empty() {
                break;
            }
        }
        let bucket = &mut self.buckets[self.cursor];
        if bucket.len() > 1 {
            bucket.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        }
    }

    /// Recalibrates the wheel from the pending overflow population and moves
    /// the in-window prefix into buckets. Only called with an empty wheel and
    /// a non-empty overflow rung, so re-deriving `origin`/`width` is safe.
    #[cold]
    fn rotate(&mut self) {
        debug_assert_eq!(self.in_wheel, 0);
        if self.buckets.is_empty() {
            // One bucket per `TARGET_DENSITY` pending events, capped by the
            // capacity hint: a queue hinted small stays small even when a
            // burst momentarily inflates the rung.
            let cap = if self.cap_hint == 0 {
                MAX_BUCKETS
            } else {
                self.cap_hint.next_power_of_two()
            };
            let want = self.overflow.len().div_ceil(TARGET_DENSITY).max(1);
            // A tiny hint may undercut MIN_BUCKETS; the floor wins then.
            let hi = MAX_BUCKETS.min(cap).max(MIN_BUCKETS);
            let n = want.next_power_of_two().clamp(MIN_BUCKETS, hi);
            self.buckets = std::iter::repeat_with(Vec::new).take(n).collect();
        }
        let n = self.buckets.len();
        let head = self
            .overflow
            .peek()
            .expect("rotate requires pending overflow events");
        let t_min = head.time.as_f64();
        let span = (self.overflow_max - t_min).max(0.0);
        // Spread the whole rung across the wheel — the window exactly covers
        // the pending span, so a rotation drains the rung in one linear pass.
        // Degenerate (zero/over-tight) spans keep the previous width.
        let width = span / (n - 1) as f64;
        if width.is_finite() && width > f64::MIN_POSITIVE {
            self.width = width;
            self.inv_width = 1.0 / width;
        }
        self.origin = t_min;
        self.base_slot = 0;
        self.cursor = 0;
        let horizon = n as u64;
        if self.slot_of(self.overflow_max) < horizon {
            // The whole rung fits in the window: drain it without the heap's
            // ordered-pop cost. Bucket placement does not need sorted input.
            for ev in std::mem::take(&mut self.overflow).into_vec() {
                let idx = self.slot_of(ev.time.as_f64()) as usize;
                self.buckets[idx].push(ev);
                self.in_wheel += 1;
            }
        } else {
            while let Some(head) = self.overflow.peek() {
                if self.slot_of(head.time.as_f64()) >= horizon {
                    break;
                }
                let ev = self.overflow.pop().expect("peeked above");
                let idx = self.slot_of(ev.time.as_f64()) as usize;
                self.buckets[idx].push(ev);
                self.in_wheel += 1;
            }
        }
        if self.overflow.is_empty() {
            self.overflow_max = f64::NEG_INFINITY;
        }
        debug_assert!(self.in_wheel > 0, "the overflow head lands in slot 0");
        let bucket = &mut self.buckets[0];
        if bucket.is_empty() {
            self.advance_cursor();
        } else if bucket.len() > 1 {
            bucket.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever pushed (the sequence counter).
    #[inline]
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of simultaneously pending events ever observed.
    #[inline]
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Iterates over pending events in unspecified order (storage layout).
    ///
    /// Because every entry carries a unique `(time, seq)` key, a caller that
    /// needs a canonical ordering — e.g. for checkpoint bytes — can collect
    /// and sort by that key.
    pub fn entries(&self) -> impl Iterator<Item = &ScheduledEvent<E>> {
        self.buckets.iter().flatten().chain(self.overflow.iter())
    }

    /// Rebuilds a queue from previously captured entries and the sequence
    /// counter. The pop order depends only on `(time, seq)`, so the insertion
    /// order of `entries` is irrelevant.
    pub fn from_entries(entries: Vec<ScheduledEvent<E>>, next_seq: u64) -> Self {
        let mut q = Self::with_capacity(entries.len());
        q.overflow_max = entries
            .iter()
            .fold(f64::NEG_INFINITY, |m, e| m.max(e.time.as_f64()));
        q.len = entries.len();
        q.max_occupancy = entries.len();
        q.next_seq = next_seq;
        q.overflow = entries.into_iter().collect();
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.push(SimTime::new(t), t as u32);
        }
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e.event);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::new(7.0);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn pop_through_stops_at_the_horizon() {
        let mut q = EventQueue::new();
        assert!(q.pop_through(SimTime::MAX).is_none());
        q.push(SimTime::new(9.0), ());
        q.push(SimTime::new(4.0), ());
        assert!(q.pop_through(SimTime::new(3.5)).is_none());
        assert_eq!(q.len(), 2);
        let head = q
            .pop_through(SimTime::new(4.0))
            .expect("due at the horizon");
        assert_eq!(head.time, SimTime::new(4.0));
        assert!(q.pop_through(SimTime::new(8.0)).is_none());
        assert_eq!(q.pop_through(SimTime::MAX).unwrap().time, SimTime::new(9.0));
        assert!(q.is_empty());
    }

    #[test]
    fn pushed_counts_all_inserts() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.pop();
        q.push(SimTime::ZERO, ());
        assert_eq!(q.pushed(), 2);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(10.0), "c");
        q.push(SimTime::new(1.0), "a");
        assert_eq!(q.pop().unwrap().event, "a");
        q.push(SimTime::new(5.0), "b");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
    }

    #[test]
    fn max_occupancy_tracks_peak() {
        let mut q = EventQueue::new();
        assert_eq!(q.max_occupancy(), 0);
        q.push(SimTime::new(1.0), ());
        q.push(SimTime::new(2.0), ());
        q.push(SimTime::new(3.0), ());
        q.pop();
        q.pop();
        q.push(SimTime::new(4.0), ());
        assert_eq!(q.max_occupancy(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pushes_into_live_wheel_stay_ordered() {
        // Force a calibrated wheel, then interleave near-past, in-window and
        // far-future pushes and check the global (time, seq) pop order.
        let mut q = EventQueue::with_capacity(64);
        for i in 0..64u32 {
            q.push(SimTime::new(f64::from(i)), (f64::from(i), i));
        }
        // First pop rotates the overflow rung into the wheel.
        let first = q.pop().unwrap();
        assert_eq!(first.event.1, 0);
        // Same-day push (clamps into the cursor bucket).
        q.push(SimTime::new(1.25), (1.25, 1000));
        // Mid-window and beyond-window pushes.
        q.push(SimTime::new(30.5), (30.5, 1001));
        q.push(SimTime::new(1e6), (1e6, 1002));
        let mut last = (f64::NEG_INFINITY, 0u64);
        let mut count = 0;
        while let Some(e) = q.pop() {
            let key = (e.time.as_f64(), e.seq);
            assert!(key > last, "out of order: {key:?} after {last:?}");
            last = key;
            count += 1;
        }
        assert_eq!(count, 66);
    }

    #[test]
    fn entries_roundtrip_preserves_order() {
        let mut q = EventQueue::with_capacity(16);
        for i in 0..40u32 {
            q.push(SimTime::new(f64::from(i % 7)), i);
        }
        for _ in 0..10 {
            q.pop();
        }
        let entries: Vec<_> = q.entries().cloned().collect();
        assert_eq!(entries.len(), q.len());
        let mut rebuilt = EventQueue::from_entries(entries, q.pushed());
        let mut a = Vec::new();
        let mut b = Vec::new();
        while let Some(e) = q.pop() {
            a.push((e.time, e.seq, e.event));
        }
        while let Some(e) = rebuilt.pop() {
            b.push((e.time, e.seq, e.event));
        }
        assert_eq!(a, b);
    }
}
