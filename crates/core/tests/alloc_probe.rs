//! Heap-allocation probe for the neural value path.
//!
//! Wraps the system allocator with a counting shim (a `#[global_allocator]`
//! is per-binary, hence this dedicated integration-test binary) and asserts
//! that a full decide→train learning cycle through the value estimator —
//! candidate encoding, batched scoring, argmax, online SGD step — performs
//! **zero** heap allocations once the reusable buffers have warmed up.

use adaptive_rl::action::ActionChoice;
use adaptive_rl::state::SiteObservation;
use adaptive_rl::value::ValueEstimator;
use adaptive_rl::KernelPrecision;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator with an allocation counter bolted on.
struct Counting;

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic with no effect on allocation behaviour.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn obs() -> SiteObservation {
    SiteObservation {
        mean_load: 2.0,
        mean_queue_free: 0.5,
        mean_power_frac: 0.6,
        mean_capacity: 1500.0,
        max_procs: 6,
        pending: 8,
        priority_mix: [0.3, 0.4, 0.3],
        availability: 1.0,
    }
}

#[test]
fn learning_cycle_is_allocation_free_after_warmup() {
    // Both kernel precisions, one after the other in this one test: the
    // counter is process-wide, so a second test running alongside would
    // count its allocations here.
    for precision in KernelPrecision::ALL {
        let mut v = ValueEstimator::with_precision(16, 0.05, 0.5, 7, precision);
        let o = obs();
        let cands = ActionChoice::candidates(6);

        // Warm-up: sizes the workspace, the candidate scratch matrix and
        // the score buffer.
        for i in 0..3 {
            let a = v.best_action(&o, &cands);
            let _ = v.predict(&o, a);
            let _ = v.train(&o, a, i as f64 / 3.0);
        }

        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..1000u32 {
            let a = v.best_action(&o, &cands);
            let _ = v.predict(&o, a);
            let _ = v.train(&o, a, f64::from(i % 10) / 10.0);
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "{precision:?}: decide→train cycles must not touch the heap after warm-up"
        );
    }
}
