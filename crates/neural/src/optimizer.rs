//! Stochastic gradient descent with classical momentum.

/// Per-layer velocity buffers plus hyper-parameters.
///
/// `v ← μ·v + g`, `Δp = lr·v`. With `momentum = 0` this is plain SGD.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient `μ ∈ [0, 1)`.
    pub momentum: f64,
    velocities: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    /// Panics on a non-positive learning rate or `momentum ∉ [0, 1)`.
    pub fn new(lr: f64, momentum: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            lr,
            momentum,
            velocities: Vec::new(),
        }
    }

    /// Computes the update step for layer `idx` from raw gradients,
    /// returning `(Δweights, Δbiases)` to be subtracted from parameters.
    pub fn step(&mut self, idx: usize, dw: &[f64], db: &[f64]) -> (Vec<f64>, Vec<f64>) {
        while self.velocities.len() <= idx {
            self.velocities.push((Vec::new(), Vec::new()));
        }
        let (vw, vb) = &mut self.velocities[idx];
        if vw.len() != dw.len() {
            *vw = vec![0.0; dw.len()];
            *vb = vec![0.0; db.len()];
        }
        for (v, g) in vw.iter_mut().zip(dw) {
            *v = self.momentum * *v + g;
        }
        for (v, g) in vb.iter_mut().zip(db) {
            *v = self.momentum * *v + g;
        }
        (
            vw.iter().map(|v| self.lr * v).collect(),
            vb.iter().map(|v| self.lr * v).collect(),
        )
    }

    /// Clears all velocity state.
    pub fn reset(&mut self) {
        self.velocities.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_momentum_is_plain_sgd() {
        let mut opt = Sgd::new(0.1, 0.0);
        let (dw, db) = opt.step(0, &[1.0, -2.0], &[0.5]);
        assert_eq!(dw, vec![0.1, -0.2]);
        assert_eq!(db, vec![0.05]);
        // Stateless across steps at zero momentum.
        let (dw2, _) = opt.step(0, &[1.0, -2.0], &[0.5]);
        assert_eq!(dw2, dw);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(1.0, 0.5);
        let (d1, _) = opt.step(0, &[1.0], &[0.0]);
        assert_eq!(d1, vec![1.0]);
        let (d2, _) = opt.step(0, &[1.0], &[0.0]);
        assert_eq!(d2, vec![1.5]); // v = 0.5·1 + 1
        let (d3, _) = opt.step(0, &[1.0], &[0.0]);
        assert_eq!(d3, vec![1.75]);
    }

    #[test]
    fn layers_have_independent_velocity() {
        let mut opt = Sgd::new(1.0, 0.9);
        opt.step(0, &[1.0], &[0.0]);
        let (d, _) = opt.step(1, &[1.0], &[0.0]);
        assert_eq!(d, vec![1.0], "layer 1 must start cold");
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Sgd::new(1.0, 0.9);
        opt.step(0, &[1.0], &[0.0]);
        opt.reset();
        let (d, _) = opt.step(0, &[1.0], &[0.0]);
        assert_eq!(d, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn bad_lr_rejected() {
        let _ = Sgd::new(0.0, 0.0);
    }
}
