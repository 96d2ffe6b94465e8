//! Workload model for the Adaptive-RL scheduling study.
//!
//! Tasks follow the paper's application model (§III.A): each task
//! `T_i = {s_i, d_i}` is an independent, computation-intensive, sequential
//! unit with
//!
//! * a computational size `s_i` in millions of instructions (MI), drawn
//!   uniformly from 600–7200 MI,
//! * a deadline `d_i = ACT_i + add_t`, where `ACT_i` is the execution time
//!   on the *slowest* (reference) resource and `add_t` ranges over 0–150 %
//!   of `ACT_i`,
//! * a priority derived from the deadline slack: **high** when the deadline
//!   is at most 20 % later than `ACT_i`, **low** when it is 80 % or more
//!   later, **medium** otherwise.
//!
//! Tasks arrive in a Poisson process with a configurable mean inter-arrival
//! time (five time units in the paper's experiments).

#![warn(missing_docs)]

pub mod codec;
pub mod generator;
pub mod priority;
pub mod profile;
pub mod submit;
pub mod task;
pub mod trace;

pub use codec::SimCodec;
pub use generator::{Workload, WorkloadSpec};
pub use priority::{Priority, PriorityMix};
pub use profile::WorkloadProfile;
pub use submit::{Notification, Submission, SubmitTask};
pub use task::{SiteId, Task, TaskId};
pub use trace::{load_trace, read_trace, save_trace, write_trace};
