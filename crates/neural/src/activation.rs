//! Activation functions.

/// Element-wise activation applied by a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `f(x) = x` — used on output layers for regression targets.
    Identity,
    /// `f(x) = max(0, x)`.
    Relu,
    /// `f(x) = tanh(x)`.
    Tanh,
    /// `f(x) = 1 / (1 + e^(−x))`.
    Sigmoid,
}

impl Activation {
    /// Applies the activation.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Single-precision [`Activation::apply`] for the f32 kernels.
    #[inline]
    pub fn apply_f32(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the *pre-activation* input `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 4] = [
        Activation::Identity,
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    #[test]
    fn values_at_zero() {
        assert_eq!(Activation::Identity.apply(0.0), 0.0);
        assert_eq!(Activation::Relu.apply(0.0), 0.0);
        assert_eq!(Activation::Tanh.apply(0.0), 0.0);
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
    }

    #[test]
    fn relu_clips_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in ALL {
            for &x in &[-2.0f64, -0.5, 0.3, 1.7] {
                if act == Activation::Relu && x.abs() < h {
                    continue; // non-differentiable at 0
                }
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_saturates() {
        assert!(Activation::Sigmoid.apply(40.0) > 0.9999999);
        assert!(Activation::Sigmoid.apply(-40.0) < 1e-9);
    }
}
