//! Kernel-precision selection.
//!
//! Every build compiles both kernel sets: the f64 reference
//! ([`crate::network`]) and the single-precision mirror
//! ([`crate::network32`]). Which one a value estimator runs on is chosen
//! at run time by this enum.

/// Floating-point precision of the value-network kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelPrecision {
    /// Reference double-precision kernels: the default, bit-reproducible
    /// across runs and pinned by the golden tests.
    #[default]
    F64,
    /// Vectorization-friendly single-precision kernels (wide-lane chunked
    /// loops). Results match the f64 reference to ~1e-5 relative error,
    /// not bit-for-bit.
    F32,
}

impl KernelPrecision {
    /// Parses a precision name: `f64` or `f32`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f64" => Some(KernelPrecision::F64),
            "f32" => Some(KernelPrecision::F32),
            _ => None,
        }
    }

    /// Every precision, in the order of its snapshot tag.
    pub const ALL: [KernelPrecision; 2] = [KernelPrecision::F64, KernelPrecision::F32];

    /// Whether this precision's kernels are compiled into the current
    /// build: always, for both precisions. The benchmark's build stamp
    /// still reports it.
    pub fn available(self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_names_both_precisions() {
        assert_eq!(KernelPrecision::parse("f64"), Some(KernelPrecision::F64));
        assert_eq!(KernelPrecision::parse("f32"), Some(KernelPrecision::F32));
        assert_eq!(KernelPrecision::parse("f16"), None);
    }

    #[test]
    fn f64_is_default_and_always_available() {
        assert_eq!(KernelPrecision::default(), KernelPrecision::F64);
        assert!(KernelPrecision::ALL.iter().all(|p| p.available()));
    }
}
