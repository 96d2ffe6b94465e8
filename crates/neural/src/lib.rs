//! Minimal feed-forward neural-network substrate.
//!
//! §IV.B of the paper: "the structure of our RL system is designed based on
//! a neural network presented in \[10\]" (Zomaya, Clements & Olariu's
//! reinforcement-based scheduling framework). This crate provides that
//! substrate: dense layers, common activations, mean-squared-error loss and
//! SGD-with-momentum training — enough to realise the value estimator the
//! Adaptive-RL agent trains by trial and error.
//!
//! Everything is plain `Vec<f64>` math: the networks involved are tiny
//! (a handful of inputs, one hidden layer), so clarity beats BLAS here.
//! The hot path ([`Mlp`]) keeps all parameters in one flat buffer and
//! runs allocation-free against a reusable [`Workspace`]; the explicit
//! layer-per-`Vec` formulation ([`Dense`]) remains as the readable
//! reference the flat kernels are bit-compared against. [`MlpF32`] mirrors
//! the flat kernels in `f32`; [`KernelPrecision`] picks one set at run
//! time.

#![warn(missing_docs)]

pub mod activation;
pub mod layer;
pub mod loss;
pub mod network;
pub mod network32;
pub mod optimizer;
pub mod precision;

pub use activation::Activation;
pub use layer::Dense;
pub use loss::{mse, mse_grad, mse_grad_into};
pub use network::{Mlp, Workspace};
pub use network32::{MlpF32, WorkspaceF32};
pub use optimizer::Sgd;
pub use precision::KernelPrecision;
