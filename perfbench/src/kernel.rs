//! The fixed reference kernel behind `tasks_per_ref` and the times at
//! nominal speed.
//!
//! The host this benchmark was defined on (2 vCPUs, no hardware
//! performance counters exposed) runs a throughput-bound loop at speeds
//! up to 1.8x apart, switching in phases of seconds. Timing this kernel
//! next to the measured work and dividing by it cancels that host speed,
//! as far as the work and the kernel slow down alike. The kernel must
//! never change: the metrics compare commits only while every commit is
//! measured against the same kernel, which `kernel_output_is_pinned`
//! guards.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Rounds of one kernel run.
const ROUNDS: u32 = 1 << 19;

/// Seconds of one kernel run on the host this benchmark was defined on, at
/// its usual speed.
pub const NOMINAL_S: f64 = 2.0e-3;

/// `secs`, measured next to a kernel run that took `kernel_s`, scaled to a
/// host whose kernel run takes [`NOMINAL_S`]: the host's changes of speed
/// divide out, as they do in `tasks_per_ref`.
pub fn at_nominal(secs: f64, kernel_s: f64) -> f64 {
    secs * NOMINAL_S / kernel_s
}

/// One kernel run: eight independent multiply-xorshift accumulators, so
/// the loop is bound by integer throughput, not by one dependency chain
/// or by memory.
pub fn reference_kernel(seed: u64) -> u64 {
    let mut acc = [0u64; 8];
    for (j, a) in (0u64..).zip(acc.iter_mut()) {
        *a = seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    for _ in 0..ROUNDS {
        for a in acc.iter_mut() {
            *a = a
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            *a ^= *a >> 29;
        }
    }
    acc.iter().fold(0, |x, a| x ^ a)
}

/// Runs the kernel `reps` times on each of `threads` threads at once and
/// returns the wall time of one repetition, in seconds. Threads wait for
/// each other after every repetition, as the sharded engine's workers do
/// at every epoch barrier, so that a stall of one thread delays all of
/// them in both.
pub fn time_kernel(threads: usize, reps: usize) -> f64 {
    let barrier = Barrier::new(threads);
    let run = |t: usize| {
        let mut x = 0;
        for r in 0..reps {
            x ^= reference_kernel(black_box((t * reps + r) as u64));
            barrier.wait();
        }
        black_box(x);
    };
    let t0 = Instant::now();
    if threads == 1 {
        run(0);
    } else {
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || run(t));
            }
        });
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_output_is_pinned() {
        assert_eq!(reference_kernel(1), 8_024_844_277_710_111_666);
    }
}
