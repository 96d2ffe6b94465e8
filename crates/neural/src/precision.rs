//! Kernel-precision selection.
//!
//! The enum is always compiled so configuration, CLI parsing, and snapshot
//! metadata can name both precisions; the actual single-precision kernels
//! (`network32`) only exist behind the `f32-kernels` cargo feature.
//! [`KernelPrecision::available`] tells a caller whether the selected
//! kernels are present in this build.

use serde::{Deserialize, Serialize};

/// Floating-point precision of the value-network kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelPrecision {
    /// Reference double-precision kernels: the default, bit-reproducible
    /// across runs and pinned by the golden tests.
    #[default]
    F64,
    /// Vectorization-friendly single-precision kernels (wide-lane chunked
    /// loops). Opt-in via the `f32-kernels` cargo feature; results match
    /// the f64 reference to ~1e-5 relative error, not bit-for-bit.
    F32,
}

impl KernelPrecision {
    /// Short lowercase label used on CLI and JSON surfaces.
    pub fn label(self) -> &'static str {
        match self {
            KernelPrecision::F64 => "f64",
            KernelPrecision::F32 => "f32",
        }
    }

    /// Parses a [`KernelPrecision::label`]-style string.
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
    /// build (`F32` requires the `f32-kernels` cargo feature).
    pub fn available(self) -> bool {
        match self {
            KernelPrecision::F64 => true,
            KernelPrecision::F32 => cfg!(feature = "f32-kernels"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for p in KernelPrecision::ALL {
            assert_eq!(KernelPrecision::parse(p.label()), Some(p));
        }
        assert_eq!(KernelPrecision::parse("f16"), None);
    }

    #[test]
    fn f64_is_default_and_always_available() {
        assert_eq!(KernelPrecision::default(), KernelPrecision::F64);
        assert!(KernelPrecision::F64.available());
    }
}
