//! Task priorities and priority mixes.
//!
//! The paper derives priority from deadline slack relative to the expected
//! execution time `ACT_i` on the reference (slowest) resource:
//!
//! * **High** — deadline at most 20 % later than `ACT_i`,
//! * **Low** — deadline 80 % or more later than `ACT_i`,
//! * **Medium** — otherwise.
//!
//! Experiments vary "the probabilities of three different task priorities"
//! (§V.A); [`PriorityMix`] captures those probabilities and maps a class to
//! the matching `add_t` slack band.

use serde::{Deserialize, Serialize};
use snapshot::{Codec, SnapshotError};
use std::fmt;

/// Slack fraction below which a task is high priority (`add_t <= 0.2`).
pub const HIGH_SLACK_MAX: f64 = 0.2;
/// Slack fraction at or above which a task is low priority (`add_t >= 0.8`).
pub const LOW_SLACK_MIN: f64 = 0.8;
/// Upper bound of the slack range (`add_t <= 1.5`, i.e. 150 % of ACT).
pub const SLACK_MAX: f64 = 1.5;

/// Task urgency class, derived from deadline slack.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum Priority {
    /// Deadline ≥ 80 % later than the reference execution time.
    #[default]
    Low,
    /// Between the high and low bands.
    Medium,
    /// Deadline ≤ 20 % later than the reference execution time.
    High,
}

impl Priority {
    /// Classifies a slack fraction `add_t / ACT` per the paper's rule.
    ///
    /// # Panics
    /// Panics if `slack` is negative or non-finite.
    #[inline]
    pub fn from_slack(slack: f64) -> Priority {
        assert!(
            slack.is_finite() && slack >= 0.0,
            "slack must be non-negative, got {slack}"
        );
        if slack <= HIGH_SLACK_MAX {
            Priority::High
        } else if slack >= LOW_SLACK_MIN {
            Priority::Low
        } else {
            Priority::Medium
        }
    }

    /// The `[lo, hi)` slack band that generates this priority class.
    ///
    /// The high band is `[0, 0.2]`, medium `(0.2, 0.8)`, low `[0.8, 1.5]`;
    /// returned as half-open ranges that tile `[0, 1.5]` without gaps.
    pub fn slack_band(self) -> (f64, f64) {
        match self {
            Priority::High => (0.0, HIGH_SLACK_MAX),
            Priority::Medium => (HIGH_SLACK_MAX, LOW_SLACK_MIN),
            Priority::Low => (LOW_SLACK_MIN, SLACK_MAX),
        }
    }

    /// All classes, lowest urgency first.
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Medium, Priority::High];

    /// Dense index (0 = Low, 1 = Medium, 2 = High) for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Medium => 1,
            Priority::High => 2,
        }
    }

    /// Snapshot field list: the dense index as one byte.
    pub fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.variant(self, &Priority::ALL, "priority")
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Priority::Low => "low",
            Priority::Medium => "medium",
            Priority::High => "high",
        };
        f.write_str(s)
    }
}

/// Probabilities of generating each priority class.
///
/// Invariant: components are non-negative and sum to 1 (±1e-9), enforced by
/// [`PriorityMix::new`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityMix {
    /// Probability of a low-priority task.
    pub low: f64,
    /// Probability of a medium-priority task.
    pub medium: f64,
    /// Probability of a high-priority task.
    pub high: f64,
}

impl PriorityMix {
    /// Creates a mix, validating that the probabilities form a distribution.
    ///
    /// # Panics
    /// Panics if any component is negative or they do not sum to 1.
    pub fn new(low: f64, medium: f64, high: f64) -> Self {
        assert!(
            low >= 0.0 && medium >= 0.0 && high >= 0.0,
            "probabilities must be non-negative"
        );
        let sum = low + medium + high;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "priority probabilities must sum to 1, got {sum}"
        );
        PriorityMix { low, medium, high }
    }

    /// Equal thirds.
    pub fn uniform() -> Self {
        PriorityMix::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    }

    /// Draws a class given a standard-uniform sample `u ∈ [0, 1)`.
    #[inline]
    pub fn classify(&self, u: f64) -> Priority {
        if u < self.low {
            Priority::Low
        } else if u < self.low + self.medium {
            Priority::Medium
        } else {
            Priority::High
        }
    }

    /// Probability of the given class.
    pub fn probability(&self, p: Priority) -> f64 {
        match p {
            Priority::Low => self.low,
            Priority::Medium => self.medium,
            Priority::High => self.high,
        }
    }
}

impl Default for PriorityMix {
    fn default() -> Self {
        PriorityMix::uniform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_classification_matches_paper() {
        assert_eq!(Priority::from_slack(0.0), Priority::High);
        assert_eq!(Priority::from_slack(0.2), Priority::High);
        assert_eq!(Priority::from_slack(0.21), Priority::Medium);
        assert_eq!(Priority::from_slack(0.79), Priority::Medium);
        assert_eq!(Priority::from_slack(0.8), Priority::Low);
        assert_eq!(Priority::from_slack(1.5), Priority::Low);
    }

    #[test]
    fn bands_tile_the_slack_range() {
        let (h_lo, h_hi) = Priority::High.slack_band();
        let (m_lo, m_hi) = Priority::Medium.slack_band();
        let (l_lo, l_hi) = Priority::Low.slack_band();
        assert_eq!(h_lo, 0.0);
        assert_eq!(h_hi, m_lo);
        assert_eq!(m_hi, l_lo);
        assert_eq!(l_hi, SLACK_MAX);
    }

    #[test]
    fn band_membership_agrees_with_classifier() {
        for p in Priority::ALL {
            let (lo, hi) = p.slack_band();
            let mid = (lo + hi) / 2.0;
            assert_eq!(Priority::from_slack(mid), p, "midpoint of {p} band");
        }
    }

    #[test]
    fn mix_classify_respects_probabilities() {
        let mix = PriorityMix::new(0.5, 0.3, 0.2);
        assert_eq!(mix.classify(0.0), Priority::Low);
        assert_eq!(mix.classify(0.49), Priority::Low);
        assert_eq!(mix.classify(0.5), Priority::Medium);
        assert_eq!(mix.classify(0.79), Priority::Medium);
        assert_eq!(mix.classify(0.8), Priority::High);
        assert_eq!(mix.classify(0.999), Priority::High);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn invalid_mix_rejected() {
        let _ = PriorityMix::new(0.5, 0.5, 0.5);
    }

    #[test]
    fn ordering_low_to_high() {
        assert!(Priority::Low < Priority::Medium);
        assert!(Priority::Medium < Priority::High);
    }

    #[test]
    fn indices_are_dense() {
        let idxs: Vec<usize> = Priority::ALL.iter().map(|p| p.index()).collect();
        assert_eq!(idxs, vec![0, 1, 2]);
    }

    #[test]
    fn probability_lookup() {
        let mix = PriorityMix::new(0.2, 0.3, 0.5);
        assert_eq!(mix.probability(Priority::Low), 0.2);
        assert_eq!(mix.probability(Priority::Medium), 0.3);
        assert_eq!(mix.probability(Priority::High), 0.5);
    }
}
