//! The energy model of §III.C.
//!
//! Eq. (5): `PP_j = p_max · Σ ET_i + p_min · t_idle` — a processor draws its
//! peak power while executing and its idle power otherwise. The paper's
//! experiments use `p_min = 48 W` and `p_max` up to `95 W`, with peak power
//! proportional to processing capacity within the 80–95 W band typical of
//! data-center processors.
//!
//! Two extensions are required by the baseline comparators and are part of
//! this model:
//!
//! * a **sleep** state (Q+ learning manages `go_sleep` / `go_active`
//!   transitions) drawing a deep-sleep wattage, with a wake latency;
//! * **throttling** (the Online-RL power controller regulates CPU clock
//!   speed): at throttle level `θ ∈ (0, 1]` the effective speed is
//!   `θ · sp_j` and the busy draw scales linearly between idle and peak:
//!   `p_busy(θ) = p_min + θ · (p_max − p_min)`.

use serde::{Deserialize, Serialize};
use snapshot::{Codec, SnapshotError};

/// Platform-wide power parameters (per-processor peak is derived from
/// speed; see [`PowerParams::peak_for_speed`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerParams {
    /// Idle draw in watts (paper: 48 W — about half of peak, per Barroso &
    /// Hölzle's energy-proportionality data).
    pub p_idle: f64,
    /// Lower end of the peak-power band (paper: 80 W).
    pub p_peak_min: f64,
    /// Upper end of the peak-power band (paper: 95 W).
    pub p_peak_max: f64,
    /// Deep-sleep draw in watts (used by the Q+ baseline's DPM actions).
    ///
    /// The paper's Eq. (5) energy model knows only busy and idle draw, so
    /// its §V comparison implicitly maps `go_sleep` to the idle wattage —
    /// a sleeping processor saves nothing but still pays the wake latency
    /// (and inrush) to become usable. [`PowerParams::paper`] therefore
    /// sets `p_sleep = p_idle`; deployments with a real deep-sleep state
    /// can lower it.
    pub p_sleep: f64,
    /// Latency, in time units, for a sleeping processor to become usable.
    pub wake_latency: f64,
    /// Speed (MIPS) mapped to `p_peak_min`.
    pub speed_floor: f64,
    /// Speed (MIPS) mapped to `p_peak_max`.
    pub speed_ceil: f64,
}

impl PowerParams {
    /// Snapshot field list.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.finite(&mut self.p_idle)?;
        c.finite(&mut self.p_peak_min)?;
        c.finite(&mut self.p_peak_max)?;
        c.finite(&mut self.p_sleep)?;
        c.nonneg(&mut self.wake_latency)?;
        c.finite(&mut self.speed_floor)?;
        c.finite(&mut self.speed_ceil)
    }

    /// The paper's §V.A experiment settings.
    pub fn paper() -> Self {
        PowerParams {
            p_idle: 48.0,
            p_peak_min: 80.0,
            p_peak_max: 95.0,
            p_sleep: 48.0,
            wake_latency: 2.0,
            speed_floor: 500.0,
            speed_ceil: 1000.0,
        }
    }

    /// Validates parameter consistency.
    ///
    /// # Panics
    /// Panics on inconsistent wattages or speed anchors.
    pub fn validate(&self) {
        assert!(self.p_sleep >= 0.0, "sleep power must be non-negative");
        assert!(
            self.p_sleep <= self.p_idle,
            "sleep power must not exceed idle power"
        );
        assert!(
            self.p_idle <= self.p_peak_min && self.p_peak_min <= self.p_peak_max,
            "power band must be ordered: idle <= peak_min <= peak_max"
        );
        assert!(
            self.wake_latency >= 0.0,
            "wake latency must be non-negative"
        );
        assert!(
            self.speed_floor > 0.0 && self.speed_floor < self.speed_ceil,
            "speed anchors must be ordered and positive"
        );
    }

    /// Peak power for a processor of the given speed: linear in speed
    /// across the band, clamped ("the processing capacity of a processor is
    /// proportional to its power draw; the faster the higher").
    pub fn peak_for_speed(&self, speed_mips: f64) -> f64 {
        let t = ((speed_mips - self.speed_floor) / (self.speed_ceil - self.speed_floor))
            .clamp(0.0, 1.0);
        self.p_peak_min + t * (self.p_peak_max - self.p_peak_min)
    }

    /// Busy draw at throttle level `θ ∈ (0, 1]` for a processor whose peak
    /// is `p_peak`: linear between idle and peak.
    pub fn busy_power(&self, p_peak: f64, throttle: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&throttle) && throttle > 0.0);
        self.p_idle + throttle * (p_peak - self.p_idle)
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_are_valid() {
        PowerParams::paper().validate();
    }

    #[test]
    fn peak_scales_with_speed() {
        let p = PowerParams::paper();
        assert_eq!(p.peak_for_speed(500.0), 80.0);
        assert_eq!(p.peak_for_speed(1000.0), 95.0);
        assert_eq!(p.peak_for_speed(750.0), 87.5);
        // Clamped outside the band.
        assert_eq!(p.peak_for_speed(100.0), 80.0);
        assert_eq!(p.peak_for_speed(5000.0), 95.0);
    }

    #[test]
    fn idle_is_about_half_of_peak() {
        // §III.C cites [8]: idle ≈ 50 % of peak. 48 / 95 ≈ 0.505.
        let p = PowerParams::paper();
        let ratio = p.p_idle / p.p_peak_max;
        assert!((ratio - 0.5).abs() < 0.01);
    }

    #[test]
    fn busy_power_interpolates() {
        let p = PowerParams::paper();
        assert_eq!(p.busy_power(95.0, 1.0), 95.0);
        let half = p.busy_power(95.0, 0.5);
        assert!(half > 48.0 && half < 95.0);
    }

    #[test]
    #[should_panic(expected = "power band must be ordered")]
    fn inverted_band_rejected() {
        let mut p = PowerParams::paper();
        p.p_peak_min = 40.0;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "sleep power must not exceed idle")]
    fn sleep_above_idle_rejected() {
        let mut p = PowerParams::paper();
        p.p_sleep = 60.0;
        p.validate();
    }
}
