//! Tolerance-bounded equivalence of the f32 kernels against the
//! f64 reference: predict, batched score, and a 500-step online training
//! run must track the double-precision results to ≤1e-5 relative error
//! per output (relative to `max(|reference|, 1)`, so near-zero outputs
//! are held to the same absolute bar).

use neural::{Activation, Mlp, MlpF32, Sgd, Workspace, WorkspaceF32};

/// The value-estimator shape used by the Adaptive-RL scheduler.
const WIDTHS: [usize; 3] = [11, 16, 1];
const TOL: f64 = 1e-5;

fn nets(lr: f64, momentum: f64) -> (Mlp, MlpF32) {
    let net = Mlp::new(&WIDTHS, Activation::Tanh, Sgd::new(lr, momentum), 42);
    let net32 = MlpF32::from_f64(&net);
    (net, net32)
}

fn input(i: usize) -> [f64; 11] {
    let mut x = [0.0; 11];
    for (j, v) in x.iter_mut().enumerate() {
        *v = ((i * 11 + j) as f64 * 0.7311).sin();
    }
    x
}

fn narrow(x: &[f64]) -> Vec<f32> {
    x.iter().map(|&v| v as f32).collect()
}

fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(1.0)
}

#[test]
fn predict_matches_f64_reference() {
    let (net, net32) = nets(0.05, 0.5);
    let mut ws = Workspace::default();
    let mut ws32 = WorkspaceF32::default();
    for i in 0..64 {
        let x = input(i);
        let want = net.predict_scalar_into(&x, &mut ws);
        let got = f64::from(net32.predict_scalar_into(&narrow(&x), &mut ws32));
        assert!(
            rel_err(got, want) <= TOL,
            "predict row {i}: f32 {got} vs f64 {want} (rel err {})",
            rel_err(got, want)
        );
    }
}

#[test]
fn score_into_matches_f64_reference() {
    let (net, net32) = nets(0.05, 0.5);
    let mut rows = Vec::new();
    for i in 0..32 {
        rows.extend_from_slice(&input(i));
    }
    let mut ws = Workspace::default();
    let mut ws32 = WorkspaceF32::default();
    let mut scores = Vec::new();
    let mut scores32 = Vec::new();
    net.score_into(&rows, &mut scores, &mut ws);
    net32.score_into(&narrow(&rows), &mut scores32, &mut ws32);
    assert_eq!(scores.len(), 32);
    assert_eq!(scores32.len(), 32);
    for (i, (&want, &got)) in scores.iter().zip(&scores32).enumerate() {
        let got = f64::from(got);
        assert!(
            rel_err(got, want) <= TOL,
            "score row {i}: f32 {got} vs f64 {want} (rel err {})",
            rel_err(got, want)
        );
    }
}

#[test]
fn train_500_steps_tracks_f64_reference() {
    let (mut net, mut net32) = nets(0.05, 0.5);
    let mut ws = Workspace::default();
    let mut ws32 = WorkspaceF32::default();
    for i in 0..500 {
        let x = input(i % 40);
        // A smooth bounded regression target over the input pattern.
        let target = [(i % 40) as f64 / 40.0 - 0.5];
        let loss64 = net.train_step(&x, &target, &mut ws);
        let loss32 = net32.train_step(&narrow(&x), &narrow(&target), &mut ws32);
        assert!(loss32.is_finite() && loss64.is_finite());
    }
    assert_eq!(net32.steps(), 500);
    // Post-training predictions must still agree to the tolerance.
    let mut worst = 0.0f64;
    for i in 0..64 {
        let x = input(i);
        let want = net.predict_scalar_into(&x, &mut ws);
        let got = f64::from(net32.predict_scalar_into(&narrow(&x), &mut ws32));
        worst = worst.max(rel_err(got, want));
        assert!(
            rel_err(got, want) <= TOL,
            "post-train predict row {i}: f32 {got} vs f64 {want} (rel err {})",
            rel_err(got, want)
        );
    }
    // And the parameter blocks themselves must not have drifted apart.
    let mut p32 = Vec::new();
    net32.params_f64_into(&mut p32);
    for (k, (&got, &want)) in p32.iter().zip(net.params()).enumerate() {
        assert!(
            rel_err(got, want) <= TOL,
            "param {k}: f32 {got} vs f64 {want} (rel err {})",
            rel_err(got, want)
        );
    }
    eprintln!("worst post-train prediction rel err: {worst:e}");
}
