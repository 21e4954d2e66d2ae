//! Client-initiated prefetching (§3.4).
//!
//! The paper sketches two client-side mechanisms that complement
//! server-initiated speculation:
//!
//! * **server-assisted prefetching** — the server attaches a list of
//!   likely-next URLs to each response and *the client* decides what to
//!   prefetch (each prefetch is a normal request: it costs the server a
//!   request, unlike a speculative push which rides on the original);
//! * **profile-based prefetching** — the client predicts from its *own*
//!   history (a per-user `P` relation, the paper's companion study \[5\]). The
//!   paper's observation: very effective for re-traversals, useless for
//!   documents the user has never visited.
//!
//! [`UserProfile`] is the per-client transition model; [`HintPolicy`]
//! decides which server hints a client acts on. A profile records two
//! `BTreeMap` updates per access, so the replay builds one per client
//! only for a configuration that reads it (`client_profile_prefetch`,
//! [`HintPolicy::ProfileGated`]); [`HintPolicy::Threshold`] selects
//! from the hints alone.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use specweb_core::ids::DocId;
use specweb_core::time::{Duration, SimTime};

/// Per-client transition profile: counts of `prev → next` within a
/// window, from this client's own history only.
#[derive(Debug, Clone, Default)]
pub struct UserProfile {
    window: Duration,
    last: Option<(SimTime, DocId)>,
    /// BTreeMaps: [`UserProfile::predict`] enumerates transition rows,
    /// and tied probabilities must break by document id, not by hash
    /// iteration order (the PR 3 `DepMatrix` truncation bug class).
    transitions: BTreeMap<DocId, BTreeMap<DocId, u32>>,
    occurrences: BTreeMap<DocId, u32>,
}

impl UserProfile {
    /// Creates a profile with transition window `window`.
    pub fn new(window: Duration) -> Self {
        UserProfile {
            window,
            ..UserProfile::default()
        }
    }

    /// Records an access by this client.
    pub fn record(&mut self, time: SimTime, doc: DocId) {
        if let Some((t, prev)) = self.last {
            if prev != doc && (self.window.is_infinite() || time.since(t) < self.window) {
                *self
                    .transitions
                    .entry(prev)
                    .or_default()
                    .entry(doc)
                    .or_insert(0) += 1;
            }
        }
        *self.occurrences.entry(doc).or_insert(0) += 1;
        self.last = Some((time, doc));
    }

    /// The client's own estimate of `p[prev → next]`.
    pub fn probability(&self, prev: DocId, next: DocId) -> f64 {
        let occ = *self.occurrences.get(&prev).unwrap_or(&0);
        if occ == 0 {
            return 0.0;
        }
        let n = self
            .transitions
            .get(&prev)
            .and_then(|m| m.get(&next))
            .copied()
            .unwrap_or(0);
        f64::from(n) / f64::from(occ)
    }

    /// The client's predictions after requesting `doc`, most probable
    /// first, above `floor`.
    pub fn predict(&self, doc: DocId, floor: f64) -> Vec<(DocId, f64)> {
        let Some(nexts) = self.transitions.get(&doc) else {
            return Vec::new();
        };
        let occ = *self.occurrences.get(&doc).unwrap_or(&0);
        if occ == 0 {
            return Vec::new();
        }
        let mut out: Vec<(DocId, f64)> = nexts
            .iter()
            .map(|(&j, &n)| (j, f64::from(n) / f64::from(occ)))
            .filter(|&(_, p)| p >= floor)
            .collect();
        // Descending probability, ties broken by id so the prediction
        // list (and anything truncating it) is run-stable.
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// How a client reacts to server-attached hints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HintPolicy {
    /// Ignore hints entirely.
    Ignore,
    /// Prefetch every hint at or above this probability.
    Threshold {
        /// Minimum hinted probability to act on.
        tp: f64,
    },
    /// Prefetch a hint only if the client's own profile *also* rates the
    /// transition at or above `own_tp` — the conjunction of server
    /// knowledge (spatial locality) and user history (re-traversal).
    ProfileGated {
        /// Minimum hinted probability.
        tp: f64,
        /// Minimum own-profile probability.
        own_tp: f64,
    },
}

impl HintPolicy {
    /// Whether [`HintPolicy::select`] consults the client's own profile.
    pub fn reads_profile(&self) -> bool {
        matches!(self, HintPolicy::ProfileGated { .. })
    }

    /// Which hints the client will prefetch. `own(j)` is the client's
    /// own estimate of `p[current → j]` ([`UserProfile::probability`]),
    /// asked only by a policy that [`HintPolicy::reads_profile`].
    pub fn select(&self, hints: &[(DocId, f64)], own: impl Fn(DocId) -> f64) -> Vec<DocId> {
        match *self {
            HintPolicy::Ignore => Vec::new(),
            HintPolicy::Threshold { tp } => hints
                .iter()
                .filter(|&&(_, p)| p >= tp)
                .map(|&(j, _)| j)
                .collect(),
            HintPolicy::ProfileGated { tp, own_tp } => hints
                .iter()
                .filter(|&&(j, p)| p >= tp && own(j) >= own_tp)
                .map(|&(j, _)| j)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: Duration = Duration::from_millis(5_000);

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn profile_learns_transitions() {
        let mut p = UserProfile::new(W);
        for k in 0..10u64 {
            p.record(t(k * 1_000_000), DocId(1));
            p.record(t(k * 1_000_000 + 100), DocId(2));
        }
        assert!((p.probability(DocId(1), DocId(2)) - 1.0).abs() < 1e-12);
        assert_eq!(p.probability(DocId(2), DocId(1)), 0.0);
    }

    #[test]
    fn profile_window_cuts_transitions() {
        let mut p = UserProfile::new(W);
        p.record(t(0), DocId(1));
        p.record(t(60_000), DocId(2)); // a minute later: not a transition
        assert_eq!(p.probability(DocId(1), DocId(2)), 0.0);
    }

    #[test]
    fn predictions_are_sorted_and_floored() {
        let mut p = UserProfile::new(W);
        for k in 0..10u64 {
            let base = k * 1_000_000;
            p.record(t(base), DocId(1));
            // 1→2 70%, 1→3 30%.
            let next = if k < 7 { 2 } else { 3 };
            p.record(t(base + 100), DocId(next));
        }
        let preds = p.predict(DocId(1), 0.0);
        assert_eq!(preds[0].0, DocId(2));
        assert!((preds[0].1 - 0.7).abs() < 1e-12);
        let floored = p.predict(DocId(1), 0.5);
        assert_eq!(floored.len(), 1);
        assert!(p.predict(DocId(9), 0.0).is_empty());
    }

    #[test]
    fn hint_policies() {
        let hints = vec![(DocId(2), 0.9), (DocId(3), 0.4)];
        let mut profile = UserProfile::new(W);
        // Profile knows 1→2 well, 1→3 not at all.
        for k in 0..5u64 {
            profile.record(t(k * 1_000_000), DocId(1));
            profile.record(t(k * 1_000_000 + 100), DocId(2));
        }

        let own = |j| profile.probability(DocId(1), j);
        assert!(HintPolicy::Ignore.select(&hints, own).is_empty());

        // A threshold never asks the profile.
        let th = HintPolicy::Threshold { tp: 0.5 }.select(&hints, |_| unreachable!());
        assert_eq!(th, vec![DocId(2)]);

        let gated = HintPolicy::ProfileGated {
            tp: 0.3,
            own_tp: 0.5,
        };
        assert!(gated.reads_profile());
        let gated = gated.select(&hints, own);
        // Doc 3 passes the server hint bar but fails the own-profile bar.
        assert_eq!(gated, vec![DocId(2)]);
    }

    #[test]
    fn self_transitions_are_not_recorded() {
        let mut p = UserProfile::new(W);
        p.record(t(0), DocId(1));
        p.record(t(100), DocId(1));
        assert_eq!(p.probability(DocId(1), DocId(1)), 0.0);
    }
}
