//! Comparator schedulers for the evaluation (§V, Experiment 1).
//!
//! The paper compares Adaptive-RL against "extended versions of three other
//! learning approaches … induced into the same system model and scheduling
//! strategy":
//!
//! * [`OnlineRl`] — Tesauro et al. (NIPS'07): an online RL power/performance
//!   controller that regulates CPU clock speed (throttling) under a
//!   powercap that follows a simple random-walk policy, with a
//!   response-time-per-watt reward,
//! * [`QPlusLearning`] — Tan, Liu & Qiu (ICCAD'09): dynamic power
//!   management with `go_sleep` / `go_active` actions per processor,
//!   Q-values of power × delay, and the multiple-Q-update speed-up at
//!   varying learning rates,
//! * [`PredictionBased`] — Berral et al. (e-Energy'10): supervised online
//!   regression predicting per-(group, node) completion time and power,
//!   consolidating work onto the fewest resources that keep predictions
//!   within deadlines.
//!
//! "Induced into the same … scheduling strategy" means all three use the
//! same task-grouping plumbing ([`common`]) as Adaptive-RL — mixed-priority
//! EDF groups — while their *learning mechanisms* control their own knobs.
//!
//! [`reference`](mod@reference) adds two non-learning policies (round-robin, greedy EDF)
//! used by examples and sanity tests; they are not part of the paper's
//! figures.

#![warn(missing_docs)]

pub mod common;
pub mod online_rl;
pub mod prediction;
pub mod q_plus;
pub mod reference;
pub mod tabular;

pub use online_rl::{OnlineRl, OnlineRlConfig};
pub use prediction::{PredictionBased, PredictionConfig};
pub use q_plus::{QPlusConfig, QPlusLearning};
pub use reference::{GreedyEdf, RoundRobin};
