//! Microbenchmarks of the hot substrate paths: the event queue (calendar
//! wheel vs the binary heap it replaced), the RNG streams, and the
//! flat-buffer MLP kernels (`predict` / `train_step` / `score_into`, f64
//! and f32). Whole runs are timed by the repository benchmark
//! (`perfbench/`), not here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neural::{Activation, Mlp, MlpF32, Sgd, Workspace, WorkspaceF32};
use simcore::rng::RngStream;
use simcore::{EventQueue, SimTime};
use std::hint::black_box;

fn event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        let mut rng = RngStream::root(1);
        let times: Vec<f64> = (0..10_000).map(|_| rng.uniform(0.0, 1000.0)).collect();
        b.iter(|| {
            let mut q = EventQueue::with_capacity(times.len());
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::new(t), i as u32);
            }
            let mut acc = 0u64;
            while let Some(e) = q.pop() {
                acc = acc.wrapping_add(u64::from(e.event));
            }
            black_box(acc)
        })
    });
}

/// Uniform arrivals over a wide horizon (the calendar queue's best case).
fn uniform_times(n: usize) -> Vec<f64> {
    let mut rng = RngStream::root(3);
    (0..n).map(|_| rng.uniform(0.0, 1000.0)).collect()
}

/// Bursty arrivals: dense same-timestamp batches (the decision-batching
/// pattern — many events sharing one instant) over a narrow horizon.
fn bursty_times(n: usize) -> Vec<f64> {
    let mut rng = RngStream::root(4);
    let mut times = Vec::with_capacity(n);
    let mut t = 0.0f64;
    while times.len() < n {
        t += rng.exponential(1.0);
        let burst = 1 + rng.pick(64);
        for _ in 0..burst.min(n - times.len()) {
            times.push(t);
        }
    }
    times
}

/// Reference binary-heap run: what `EventQueue` was before the calendar
/// wheel. Times are non-negative, so their IEEE bit patterns order like
/// the values; `(time_bits, seq)` in a `Reverse` reproduces the exact
/// (time, FIFO seq) pop order.
fn heap_run(times: &[f64]) -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap = BinaryHeap::with_capacity(times.len());
    for (i, &t) in times.iter().enumerate() {
        heap.push(Reverse((t.to_bits(), i as u64)));
    }
    let mut acc = 0u64;
    while let Some(Reverse((_, s))) = heap.pop() {
        acc = acc.wrapping_add(s);
    }
    acc
}

fn calendar_run(times: &[f64]) -> u64 {
    let mut q = EventQueue::with_capacity(times.len());
    for (i, &t) in times.iter().enumerate() {
        q.push(SimTime::new(t), i as u32);
    }
    let mut acc = 0u64;
    while let Some(e) = q.pop() {
        acc = acc.wrapping_add(u64::from(e.event));
    }
    acc
}

/// Engine-shaped hold model: all arrivals primed upfront, and every
/// arrival pop schedules a completion a short service time later — the
/// pattern the simulation engine actually drives the queue with.
fn heap_hold_run(times: &[f64]) -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = times.len();
    let mut heap = BinaryHeap::with_capacity(n);
    let mut seq = 0u64;
    for (i, &t) in times.iter().enumerate() {
        heap.push(Reverse((t.to_bits(), seq, i as u32)));
        seq += 1;
    }
    let mut acc = 0u64;
    while let Some(Reverse((tb, _, id))) = heap.pop() {
        acc = acc.wrapping_add(u64::from(id));
        if (id as usize) < n {
            let t = f64::from_bits(tb) + 50.0 + (id % 16) as f64 * 30.0;
            heap.push(Reverse((t.to_bits(), seq, id + n as u32)));
            seq += 1;
        }
    }
    acc
}

fn calendar_hold_run(times: &[f64]) -> u64 {
    let n = times.len();
    let mut q = EventQueue::with_capacity(n);
    for (i, &t) in times.iter().enumerate() {
        q.push(SimTime::new(t), i as u32);
    }
    let mut acc = 0u64;
    while let Some(e) = q.pop() {
        acc = acc.wrapping_add(u64::from(e.event));
        if (e.event as usize) < n {
            let t = e.time.as_f64() + 50.0 + (e.event % 16) as f64 * 30.0;
            q.push(SimTime::new(t), e.event + n as u32);
        }
    }
    acc
}

fn event_queue_heap_vs_calendar(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_heap_vs_calendar_10k");
    for (dist, times) in [
        ("uniform", uniform_times(10_000)),
        ("bursty", bursty_times(10_000)),
    ] {
        group.bench_with_input(BenchmarkId::new("binary_heap", dist), &times, |b, times| {
            b.iter(|| black_box(heap_run(times)))
        });
        group.bench_with_input(BenchmarkId::new("calendar", dist), &times, |b, times| {
            b.iter(|| black_box(calendar_run(times)))
        });
    }
    // Hold model over a long horizon (mean interarrival 1.0).
    let arrivals: Vec<f64> = {
        let mut rng = RngStream::root(5);
        let mut t = 0.0;
        (0..10_000)
            .map(|_| {
                t += rng.exponential(1.0);
                t
            })
            .collect()
    };
    group.bench_with_input(
        BenchmarkId::new("binary_heap", "hold"),
        &arrivals,
        |b, times| b.iter(|| black_box(heap_hold_run(times))),
    );
    group.bench_with_input(
        BenchmarkId::new("calendar", "hold"),
        &arrivals,
        |b, times| b.iter(|| black_box(calendar_hold_run(times))),
    );
    group.finish();
}

fn rng_streams(c: &mut Criterion) {
    c.bench_function("rng_exponential_100k", |b| {
        b.iter(|| {
            let mut rng = RngStream::root(2).derive("bench");
            let mut acc = 0.0;
            for _ in 0..100_000 {
                acc += rng.exponential(5.0);
            }
            black_box(acc)
        })
    });
}

/// The value net of the decide→train cycle: `[11, 16, 1]`, Tanh hidden.
fn value_net() -> (Mlp, Workspace) {
    let net = Mlp::new(&[11, 16, 1], Activation::Tanh, Sgd::new(0.05, 0.5), 42);
    (net, Workspace::default())
}

fn bench_input(i: usize, width: usize) -> Vec<f64> {
    (0..width)
        .map(|j| ((i * width + j) as f64 * 0.37).sin())
        .collect()
}

fn mlp_predict(c: &mut Criterion) {
    c.bench_function("mlp_predict_11x16x1", |b| {
        let (net, mut ws) = value_net();
        let x = bench_input(0, 11);
        b.iter(|| black_box(net.predict_scalar_into(&x, &mut ws)))
    });
}

fn mlp_train_step(c: &mut Criterion) {
    c.bench_function("mlp_train_step_11x16x1", |b| {
        let (mut net, mut ws) = value_net();
        let x = bench_input(1, 11);
        b.iter(|| black_box(net.train_step(&x, &[0.5], &mut ws)))
    });
}

fn mlp_score_into(c: &mut Criterion) {
    // 12 candidates = the full action space of a 6-processor site.
    c.bench_function("mlp_score_into_12_candidates", |b| {
        let (net, mut ws) = value_net();
        let rows: Vec<f64> = (0..12).flat_map(|i| bench_input(i, 11)).collect();
        let mut scores = Vec::new();
        b.iter(|| {
            net.score_into(&rows, &mut scores, &mut ws);
            black_box(scores.last().copied())
        })
    });
}

/// f32 counterparts of the `mlp_*` benches above (same net shape, same
/// inputs narrowed) — compare `mlp32_*` against `mlp_*` for the f64 → f32
/// kernel speedup.
fn mlp32_kernels(c: &mut Criterion) {
    let net32 = |net: &Mlp| MlpF32::from_f64(net);
    let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
    c.bench_function("mlp32_train_step_11x16x1", |b| {
        let (net, _) = value_net();
        let mut net = net32(&net);
        let mut ws = WorkspaceF32::default();
        let x = narrow(&bench_input(1, 11));
        b.iter(|| black_box(net.train_step(&x, &[0.5], &mut ws)))
    });
    c.bench_function("mlp32_score_into_12_candidates", |b| {
        let (net, _) = value_net();
        let net = net32(&net);
        let mut ws = WorkspaceF32::default();
        let rows: Vec<f32> = narrow(&(0..12).flat_map(|i| bench_input(i, 11)).collect::<Vec<_>>());
        let mut scores = Vec::new();
        b.iter(|| {
            net.score_into(&rows, &mut scores, &mut ws);
            black_box(scores.last().copied())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = event_queue, event_queue_heap_vs_calendar, rng_streams,
        mlp_predict, mlp_train_step, mlp_score_into, mlp32_kernels
}
criterion_main!(benches);
