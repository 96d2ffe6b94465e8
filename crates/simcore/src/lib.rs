//! Deterministic discrete-event simulation substrate.
//!
//! The paper evaluates its scheduler purely in simulation; this crate is the
//! simulation kernel everything else is built on. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — totally-ordered virtual time,
//! * [`EventQueue`] — a stable future-event list (ties broken by insertion
//!   order so runs are reproducible),
//! * [`Engine`] — a minimal dispatch loop over a user-supplied event type,
//! * [`rng`] — seedable, *splittable* random-number streams so every
//!   stochastic component draws from its own independent deterministic
//!   stream,
//! * [`poisson`] — Poisson arrival-process generation (exponential
//!   inter-arrival times),
//! * [`stats`] / [`series`] — Welford summaries, percentiles and labelled
//!   (x, y) series used by the metric and reporting layers.
//!
//! Everything here is allocation-conscious: hot paths (`EventQueue::push` /
//! `pop`) never allocate beyond the backing heap growth, per the guidance of
//! the Rust Performance Book.

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod poisson;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use engine::{Engine, Simulation};
pub use event::{EventQueue, ScheduledEvent};
pub use poisson::PoissonProcess;
pub use rng::RngStream;
pub use series::{Point, Series};
pub use stats::RunningStats;
pub use time::{SimDuration, SimTime};
