//! Metric extraction and reporting.
//!
//! Turns raw [`RunResult`](platform::RunResult)s into the quantities the
//! paper's figures plot:
//!
//! * Eq. (4) average response time (`RunResult::avg_response_time`),
//! * system energy `ECS` in the paper's "millions" scale,
//! * utilisation-versus-learning-cycle curves (Figs. 9–10),
//! * successful rate `rew_val / N` (Fig. 11),
//!
//! plus rendering: fixed-width text tables, ASCII line charts and CSV
//! output used by the experiment binaries and EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod chart;
pub mod collector;
pub mod csv;
pub mod report;

pub use chart::ascii_chart;
pub use collector::{
    energy_millions, utilisation_by_cycle_decile, utilisation_by_cycle_decile_windowed, RunSummary,
};
pub use csv::series_to_csv;
pub use report::FigureReport;
