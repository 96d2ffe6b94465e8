//! The action space: grouping decisions.
//!
//! §IV.B: "The action refers to a decision to group tasks that are
//! dynamically arriving." An action fixes (a) the merge policy — mixed or
//! identical priority (§IV.D.1) — and (b) the target group size `opnum`.

use serde::{Deserialize, Serialize};
use snapshot::{Codec, SnapshotError};
use std::fmt;

/// Merge policy selector (the concrete priority class of an identical
/// merge is determined by the tasks themselves at grouping time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Mixed-priority merge: group tasks as they arrive, EDF-sorted.
    #[default]
    Mixed,
    /// Identical-priority merge: group per priority class, EDF-sorted.
    Identical,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Mixed => write!(f, "mixed"),
            PolicyKind::Identical => write!(f, "identical"),
        }
    }
}

/// One point in the action space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ActionChoice {
    /// Merge policy.
    pub policy: PolicyKind,
    /// Target group size (`opnum`); capped by the node processor count at
    /// dispatch ("the value must not exceed the maximum number of
    /// processors in a node").
    pub opnum: usize,
}

impl ActionChoice {
    /// Snapshot field list: the policy tag, then a positive `opnum`.
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        let blanks = [PolicyKind::Mixed, PolicyKind::Identical];
        c.variant(&mut self.policy, &blanks, "policy")?;
        c.usize(&mut self.opnum)?;
        c.check(self.opnum > 0, || "action opnum must be positive".into())
    }

    /// Enumerates the candidate actions for a site whose largest node has
    /// `max_procs` processors.
    ///
    /// # Panics
    /// Panics if `max_procs == 0`.
    pub fn candidates(max_procs: usize) -> Vec<ActionChoice> {
        let mut out = Vec::with_capacity(max_procs * 2);
        Self::candidates_into(max_procs, &mut out);
        out
    }

    /// [`ActionChoice::candidates`] into a reusable buffer (cleared
    /// first) — the decide hot path re-enumerates per round without
    /// allocating.
    ///
    /// # Panics
    /// Panics if `max_procs == 0`.
    pub fn candidates_into(max_procs: usize, out: &mut Vec<ActionChoice>) {
        assert!(max_procs > 0, "a site must have processors");
        out.clear();
        for opnum in 1..=max_procs {
            out.push(ActionChoice {
                policy: PolicyKind::Mixed,
                opnum,
            });
            out.push(ActionChoice {
                policy: PolicyKind::Identical,
                opnum,
            });
        }
    }

    /// Feature encoding of the action for the value network:
    /// `[opnum / max_procs, is_mixed, is_identical]`.
    pub fn features(&self, max_procs: usize) -> [f64; 3] {
        [
            self.opnum as f64 / max_procs.max(1) as f64,
            f64::from(self.policy == PolicyKind::Mixed),
            f64::from(self.policy == PolicyKind::Identical),
        ]
    }
}

impl fmt::Display for ActionChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.policy, self.opnum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_cover_both_policies_and_all_sizes() {
        let c = ActionChoice::candidates(6);
        assert_eq!(c.len(), 12);
        assert!(c
            .iter()
            .any(|a| a.policy == PolicyKind::Mixed && a.opnum == 1));
        assert!(c
            .iter()
            .any(|a| a.policy == PolicyKind::Identical && a.opnum == 6));
        // No duplicates.
        let mut set = std::collections::HashSet::new();
        assert!(c.iter().all(|a| set.insert(*a)));
    }

    #[test]
    fn features_are_one_hot_and_normalised() {
        let a = ActionChoice {
            policy: PolicyKind::Mixed,
            opnum: 3,
        };
        assert_eq!(a.features(6), [0.5, 1.0, 0.0]);
        let b = ActionChoice {
            policy: PolicyKind::Identical,
            opnum: 6,
        };
        assert_eq!(b.features(6), [1.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "must have processors")]
    fn zero_procs_rejected() {
        let _ = ActionChoice::candidates(0);
    }
}
