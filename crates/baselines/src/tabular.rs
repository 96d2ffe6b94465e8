//! A small tabular Q-table shared by the Online-RL and Q+ baselines.
//!
//! States and actions are dense indices; the table stores expected *costs*
//! (both baselines minimise: response·power for Online RL, power·delay for
//! Q+). Supports the Q+ paper's multiple-update trick: one observation can
//! refresh several entries at different learning rates.

use serde::{Deserialize, Serialize};
use snapshot::{Codec, SnapshotError};

/// Dense `states × actions` Q-table of expected costs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QTable {
    states: usize,
    actions: usize,
    q: Vec<f64>,
    visits: Vec<u32>,
}

impl QTable {
    /// Creates a table initialised to `init` (optimistic initialisation
    /// uses a low cost to encourage exploration of untried actions).
    ///
    /// # Panics
    /// Panics on zero dimensions.
    pub fn new(states: usize, actions: usize, init: f64) -> Self {
        assert!(
            states > 0 && actions > 0,
            "table dimensions must be positive"
        );
        QTable {
            states,
            actions,
            q: vec![init; states * actions],
            visits: vec![0; states * actions],
        }
    }

    #[inline]
    fn idx(&self, s: usize, a: usize) -> usize {
        debug_assert!(s < self.states && a < self.actions);
        s * self.actions + a
    }

    /// Current estimate for `(s, a)`.
    pub fn get(&self, s: usize, a: usize) -> f64 {
        self.q[self.idx(s, a)]
    }

    /// Number of updates applied to `(s, a)`.
    pub fn visits(&self, s: usize, a: usize) -> u32 {
        self.visits[self.idx(s, a)]
    }

    /// The action with the minimum expected cost in state `s` (ties break
    /// toward the lower action index, deterministically).
    pub fn best_action(&self, s: usize) -> usize {
        let row = &self.q[s * self.actions..(s + 1) * self.actions];
        row.iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .expect("actions > 0")
    }

    /// Minimum expected cost in state `s`.
    pub fn best_cost(&self, s: usize) -> f64 {
        self.get(s, self.best_action(s))
    }

    /// One Q-learning update toward `cost + gamma · min_a' Q(s', a')`.
    pub fn update(&mut self, s: usize, a: usize, cost: f64, next_s: usize, alpha: f64, gamma: f64) {
        debug_assert!((0.0..=1.0).contains(&alpha) && (0.0..=1.0).contains(&gamma));
        let target = cost + gamma * self.best_cost(next_s);
        let i = self.idx(s, a);
        self.q[i] += alpha * (target - self.q[i]);
        self.visits[i] += 1;
    }

    /// The Q+ multiple-update: refreshes `(s, a)` at `alpha` and the same
    /// action in neighbouring states at geometrically decaying rates —
    /// "updating multiple Q-values in each cycle at the various learning
    /// rates that speed up the learning process".
    #[allow(clippy::too_many_arguments)]
    pub fn update_multi(
        &mut self,
        s: usize,
        a: usize,
        cost: f64,
        next_s: usize,
        alpha: f64,
        gamma: f64,
        spread: usize,
        decay: f64,
    ) {
        self.update(s, a, cost, next_s, alpha, gamma);
        let mut rate = alpha;
        for d in 1..=spread {
            rate *= decay;
            if s >= d {
                self.update(s - d, a, cost, next_s, rate, gamma);
            }
            if s + d < self.states {
                self.update(s + d, a, cost, next_s, rate, gamma);
            }
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.actions
    }

    /// Snapshot field list: the dimensions, which must match this
    /// table's, then the raw cost bits, then the visit counters.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.len_eq(self.states, "Q-table states")?;
        c.len_eq(self.actions, "Q-table actions")?;
        self.q.iter_mut().try_for_each(|v| c.f64(v))?;
        self.visits.iter_mut().try_for_each(|v| c.u32(v))
    }
}

/// Clamps a continuous observation into one of `buckets` dense bucket
/// indices over `[lo, hi]`.
pub fn bucketize(x: f64, lo: f64, hi: f64, buckets: usize) -> usize {
    debug_assert!(buckets > 0 && lo < hi);
    let t = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
    ((t * buckets as f64) as usize).min(buckets - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_converges_to_cost() {
        let mut t = QTable::new(2, 2, 0.0);
        for _ in 0..200 {
            t.update(0, 1, 10.0, 1, 0.2, 0.0);
        }
        assert!((t.get(0, 1) - 10.0).abs() < 1e-3);
        assert_eq!(t.visits(0, 1), 200);
    }

    #[test]
    fn best_action_minimises_cost() {
        let mut t = QTable::new(1, 3, 5.0);
        for _ in 0..100 {
            t.update(0, 0, 8.0, 0, 0.3, 0.0);
            t.update(0, 1, 2.0, 0, 0.3, 0.0);
            t.update(0, 2, 4.0, 0, 0.3, 0.0);
        }
        assert_eq!(t.best_action(0), 1);
        assert!((t.best_cost(0) - 2.0).abs() < 0.1);
    }

    #[test]
    fn discounting_propagates_future_cost() {
        let mut t = QTable::new(2, 1, 0.0);
        // State 1 always costs 10; state 0 transitions into 1 with cost 0.
        for _ in 0..500 {
            t.update(1, 0, 10.0, 1, 0.2, 0.5);
            t.update(0, 0, 0.0, 1, 0.2, 0.5);
        }
        // Q(1) -> 10 / (1 - 0.5) = 20, Q(0) -> 0.5 · 20 = 10.
        assert!((t.get(1, 0) - 20.0).abs() < 0.5);
        assert!((t.get(0, 0) - 10.0).abs() < 0.5);
    }

    #[test]
    fn multi_update_touches_neighbours() {
        let mut t = QTable::new(5, 1, 0.0);
        t.update_multi(2, 0, 10.0, 2, 0.5, 0.0, 2, 0.5);
        assert!(t.get(2, 0) > t.get(1, 0), "centre gets the full rate");
        assert!(t.get(1, 0) > t.get(0, 0), "rate decays with distance");
        assert_eq!(t.get(1, 0), t.get(3, 0), "symmetric spread");
        assert!(t.get(0, 0) > 0.0);
        assert_eq!(t.visits(2, 0), 1);
        assert_eq!(t.visits(4, 0), 1);
    }

    #[test]
    fn bucketize_clamps_and_partitions() {
        assert_eq!(bucketize(-5.0, 0.0, 10.0, 4), 0);
        assert_eq!(bucketize(0.0, 0.0, 10.0, 4), 0);
        assert_eq!(bucketize(2.4, 0.0, 10.0, 4), 0);
        assert_eq!(bucketize(2.6, 0.0, 10.0, 4), 1);
        assert_eq!(bucketize(9.99, 0.0, 10.0, 4), 3);
        assert_eq!(bucketize(50.0, 0.0, 10.0, 4), 3);
    }
}
