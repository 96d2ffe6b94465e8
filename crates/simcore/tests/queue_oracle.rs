//! Property test: the calendar `EventQueue` dequeues in exactly the
//! `(time, seq)` order a binary-heap priority queue would produce, and
//! `peek_time` names the head it would dequeue next, under random
//! push/pop/pop-through-horizon/peek interleavings, bursty same-timestamp
//! clusters, and arbitrary capacity hints.

use proptest::prelude::*;
use simcore::{EventQueue, ScheduledEvent, SimTime};
use std::collections::BinaryHeap;

/// Reference future-event list: the pre-calendar binary-heap implementation.
struct HeapOracle {
    heap: BinaryHeap<ScheduledEvent<u32>>,
    next_seq: u64,
}

impl HeapOracle {
    fn new() -> Self {
        HeapOracle {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, event });
    }

    fn pop(&mut self) -> Option<ScheduledEvent<u32>> {
        self.heap.pop()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Push one event at the given (quantised) time.
    Push(f64),
    /// Push a burst of events at one shared timestamp.
    Burst(f64, u8),
    /// Pop `n` events.
    Pop(u8),
    /// Pop every event due at or before the given time.
    PopThrough(f64),
    /// Look up the head's time without popping.
    Peek,
}

/// Quantised times force plenty of exact ties; the wide span plus the
/// occasional huge time exercises the overflow rung and recalibration.
fn time_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u32..200).prop_map(|t| f64::from(t) * 0.5),
        (0u32..20).prop_map(|t| f64::from(t) * 1000.0),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        time_strategy().prop_map(Op::Push),
        (time_strategy(), 1u8..8).prop_map(|(t, n)| Op::Burst(t, n)),
        (1u8..6).prop_map(Op::Pop),
        time_strategy().prop_map(Op::PopThrough),
        Just(Op::Peek),
    ]
}

fn key(e: &ScheduledEvent<u32>) -> (SimTime, u64, u32) {
    (e.time, e.seq, e.event)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    fn calendar_matches_heap_oracle(
        ops in prop::collection::vec(op_strategy(), 1..120),
        cap in 0usize..96,
    ) {
        let mut calendar = EventQueue::with_capacity(cap);
        let mut oracle = HeapOracle::new();
        let mut tag = 0u32;
        for op in &ops {
            match *op {
                Op::Push(t) => {
                    calendar.push(SimTime::new(t), tag);
                    oracle.push(SimTime::new(t), tag);
                    tag += 1;
                }
                Op::Burst(t, n) => {
                    for _ in 0..n {
                        calendar.push(SimTime::new(t), tag);
                        oracle.push(SimTime::new(t), tag);
                        tag += 1;
                    }
                }
                Op::Pop(n) => {
                    for _ in 0..n {
                        let got = calendar.pop();
                        let want = oracle.pop();
                        prop_assert_eq!(
                            got.as_ref().map(key),
                            want.as_ref().map(key),
                            "mid-sequence pop diverged"
                        );
                    }
                }
                Op::PopThrough(t) => {
                    let until = SimTime::new(t);
                    loop {
                        let got = calendar.pop_through(until);
                        let want = match oracle.heap.peek() {
                            Some(head) if head.time <= until => oracle.pop(),
                            _ => None,
                        };
                        prop_assert_eq!(
                            got.as_ref().map(key),
                            want.as_ref().map(key),
                            "horizon pop diverged"
                        );
                        if want.is_none() {
                            break;
                        }
                    }
                }
                Op::Peek => {
                    prop_assert_eq!(
                        calendar.peek_time(),
                        oracle.heap.peek().map(|head| head.time),
                        "peek diverged"
                    );
                }
            }
            prop_assert_eq!(calendar.len(), oracle.heap.len());
        }
        // Drain: the full remaining order must match, and the sequence
        // counters must agree.
        prop_assert_eq!(calendar.pushed(), oracle.next_seq);
        loop {
            let got = calendar.pop();
            let want = oracle.pop();
            prop_assert_eq!(got.as_ref().map(key), want.as_ref().map(key), "drain diverged");
            if want.is_none() {
                break;
            }
        }
        prop_assert!(calendar.is_empty());
    }

    fn entries_roundtrip_matches_oracle(
        times in prop::collection::vec(0u32..64, 1..80),
        pops in 0usize..40,
        cap in 0usize..64,
    ) {
        let mut calendar = EventQueue::with_capacity(cap);
        let mut oracle = HeapOracle::new();
        for (i, &t) in times.iter().enumerate() {
            let time = SimTime::new(f64::from(t) * 0.25);
            calendar.push(time, i as u32);
            oracle.push(time, i as u32);
        }
        for _ in 0..pops.min(times.len()) {
            calendar.pop();
            oracle.pop();
        }
        // Checkpoint-style round trip: capture entries in unspecified order,
        // rebuild, and require the identical drain order.
        let entries: Vec<_> = calendar.entries().cloned().collect();
        prop_assert_eq!(entries.len(), calendar.len());
        let mut rebuilt = EventQueue::from_entries(entries, calendar.pushed());
        while let Some(want) = oracle.pop() {
            let got = rebuilt.pop();
            prop_assert_eq!(got.as_ref().map(key), Some(key(&want)));
        }
        prop_assert!(rebuilt.pop().is_none());
    }
}
