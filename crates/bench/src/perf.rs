//! Perf-trajectory tracking: a committed history of wall-clock runs.
//!
//! Every `figures` run appends one [`TrajectoryEntry`] — git describe,
//! jobs, scale, seed, total and per-experiment seconds — to
//! `perf_trajectory.json` in the output directory. The committed copy
//! under `results/` becomes a performance ledger: each PR's run rides
//! along, so a slowdown shows up as a diff long before anyone profiles.
//!
//! [`check_against`] is the regression gate behind `figures
//! --check-perf`: the current run is compared against the most recent
//! *comparable* prior entry — same jobs, scale and scale factor — and a
//! phase that got slower than `prev × (1 + ratio) + floor` seconds is
//! flagged. The absolute floor keeps sub-second phases from tripping
//! the gate on scheduler noise; the ratio scales the allowance with the
//! phase cost.
//!
//! Everything here is pure (no clocks, no file I/O beyond serde), so
//! the gate logic is unit-testable; the binary owns reading, appending
//! and exiting nonzero.

use serde::{Deserialize, Serialize};

/// Schema tag for `perf_trajectory.json`.
pub const PERF_SCHEMA: &str = "specweb-perf/v1";

/// One phase's (experiment's) wall clock within a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Experiment id.
    pub id: String,
    /// Wall clock, seconds.
    pub seconds: f64,
}

/// One run's timing summary, appended per `figures` invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryEntry {
    /// `git describe` of the tree the run was built from.
    pub git: String,
    /// Worker count.
    pub jobs: u64,
    /// Scale name (`full`, `quick`, `quick-x10`, …).
    pub scale: String,
    /// Population multiplier.
    pub scale_factor: u64,
    /// Master seed.
    pub seed: u64,
    /// End-to-end wall clock, seconds.
    pub total_seconds: f64,
    /// Per-experiment wall clock, in run order.
    pub experiments: Vec<PhaseTiming>,
}

/// The whole committed ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Schema tag, always [`PERF_SCHEMA`].
    pub schema: String,
    /// Entries in append (run) order, oldest first.
    pub entries: Vec<TrajectoryEntry>,
}

impl Trajectory {
    /// An empty ledger.
    pub fn new() -> Trajectory {
        Trajectory {
            schema: PERF_SCHEMA.to_string(),
            entries: Vec::new(),
        }
    }

    /// Parses a ledger, checking the schema tag.
    pub fn from_json(text: &str) -> Result<Trajectory, String> {
        let t: Trajectory =
            serde_json::from_str(text).map_err(|e| format!("bad perf trajectory: {e}"))?;
        if t.schema != PERF_SCHEMA {
            return Err(format!(
                "bad perf trajectory schema: expected {PERF_SCHEMA}, got {}",
                t.schema
            ));
        }
        Ok(t)
    }

    /// Serializes the ledger as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }
}

impl Default for Trajectory {
    fn default() -> Self {
        Trajectory::new()
    }
}

/// How much slower a phase may get before it is a regression.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Relative allowance: 0.25 = 25% slower is still fine.
    pub ratio: f64,
    /// Absolute allowance in seconds, absorbing scheduler noise on
    /// cheap phases.
    pub floor_seconds: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            ratio: 0.25,
            floor_seconds: 0.5,
        }
    }
}

impl Tolerance {
    /// The slowest acceptable current value given a prior one.
    fn limit(&self, prev_seconds: f64) -> f64 {
        prev_seconds * (1.0 + self.ratio) + self.floor_seconds
    }
}

/// Two entries are comparable when they measured the same configuration
/// — same worker count, scale name and population multiplier. (The
/// seed is irrelevant to cost at fixed scale.)
pub fn comparable(a: &TrajectoryEntry, b: &TrajectoryEntry) -> bool {
    a.jobs == b.jobs && a.scale == b.scale && a.scale_factor == b.scale_factor
}

/// Compares `current` against `prev` phase by phase. Phases are matched
/// by id; ids present in only one run are skipped. `total_seconds` is
/// only compared when both runs covered the same phase set (otherwise
/// the totals measure different work). Returns one human-readable line
/// per regression; empty means the run is within tolerance.
pub fn check(prev: &TrajectoryEntry, current: &TrajectoryEntry, tol: &Tolerance) -> Vec<String> {
    let mut out = Vec::new();
    for cur in &current.experiments {
        let Some(old) = prev.experiments.iter().find(|p| p.id == cur.id) else {
            continue;
        };
        let limit = tol.limit(old.seconds);
        if cur.seconds > limit {
            out.push(format!(
                "{}: {:.2}s, was {:.2}s at {} (limit {:.2}s = prev × {:.2} + {:.2}s)",
                cur.id,
                cur.seconds,
                old.seconds,
                prev.git,
                limit,
                1.0 + tol.ratio,
                tol.floor_seconds,
            ));
        }
    }
    fn ids(e: &TrajectoryEntry) -> std::collections::BTreeSet<&str> {
        e.experiments.iter().map(|p| p.id.as_str()).collect()
    }
    let same_phases = ids(prev) == ids(current);
    if same_phases {
        let limit = tol.limit(prev.total_seconds);
        if current.total_seconds > limit {
            out.push(format!(
                "total: {:.2}s, was {:.2}s at {} (limit {:.2}s)",
                current.total_seconds, prev.total_seconds, prev.git, limit,
            ));
        }
    }
    out
}

/// Finds the most recent prior entry comparable to `current` and runs
/// [`check`] against it. With no comparable history there is nothing to
/// regress from: returns empty.
pub fn check_against(
    history: &[TrajectoryEntry],
    current: &TrajectoryEntry,
    tol: &Tolerance,
) -> Vec<String> {
    match history.iter().rev().find(|e| comparable(e, current)) {
        Some(prev) => check(prev, current, tol),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(jobs: u64, total: f64, phases: &[(&str, f64)]) -> TrajectoryEntry {
        TrajectoryEntry {
            git: "v0-test".into(),
            jobs,
            scale: "quick".into(),
            scale_factor: 1,
            seed: 5,
            total_seconds: total,
            experiments: phases
                .iter()
                .map(|(id, s)| PhaseTiming {
                    id: id.to_string(),
                    seconds: *s,
                })
                .collect(),
        }
    }

    #[test]
    fn empty_history_never_regresses() {
        let cur = entry(4, 100.0, &[("fig4", 100.0)]);
        assert!(check_against(&[], &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn within_tolerance_is_quiet() {
        let prev = entry(4, 10.0, &[("fig4", 6.0), ("exp-closure", 4.0)]);
        // 20% slower + under the floor: both inside the default limit.
        let cur = entry(4, 12.0, &[("fig4", 7.2), ("exp-closure", 4.4)]);
        assert_eq!(
            check(&prev, &cur, &Tolerance::default()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn injected_synthetic_regression_is_flagged_by_phase() {
        let prev = entry(4, 10.0, &[("fig4", 6.0), ("exp-closure", 4.0)]);
        // fig4 doubled — far past 25% + 0.5s.
        let cur = entry(4, 16.0, &[("fig4", 12.0), ("exp-closure", 4.0)]);
        let regressions = check(&prev, &cur, &Tolerance::default());
        assert_eq!(regressions.len(), 2, "{regressions:?}"); // fig4 + total
        assert!(regressions[0].starts_with("fig4:"), "{regressions:?}");
        assert!(regressions[1].starts_with("total:"), "{regressions:?}");
    }

    #[test]
    fn the_floor_absorbs_noise_on_cheap_phases() {
        let prev = entry(4, 0.2, &[("exp-closure", 0.1)]);
        // 3× slower but only +0.2s: under the absolute floor.
        let cur = entry(4, 0.5, &[("exp-closure", 0.3)]);
        assert!(check(&prev, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn incomparable_entries_are_skipped() {
        // Prior runs at other job counts (or scales) say nothing about
        // this configuration.
        let history = [
            entry(1, 1.0, &[("fig4", 1.0)]),
            entry(8, 1.0, &[("fig4", 1.0)]),
        ];
        let cur = entry(4, 50.0, &[("fig4", 50.0)]);
        assert!(check_against(&history, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn latest_comparable_entry_wins() {
        let history = [
            entry(4, 50.0, &[("fig4", 50.0)]), // old and slow
            entry(4, 1.0, &[("fig4", 1.0)]),   // latest comparable
        ];
        let cur = entry(4, 40.0, &[("fig4", 40.0)]);
        let regressions = check_against(&history, &cur, &Tolerance::default());
        assert_eq!(regressions.len(), 2, "{regressions:?}"); // vs the 1.0s entry
    }

    #[test]
    fn totals_are_only_compared_over_the_same_phase_set() {
        let prev = entry(4, 3.0, &[("fig4", 3.0)]);
        // A much bigger run: more phases, bigger total — not a
        // regression of anything prev measured.
        let cur = entry(4, 30.0, &[("fig4", 3.0), ("exp-closure", 27.0)]);
        assert!(check(&prev, &cur, &Tolerance::default()).is_empty());
    }

    #[test]
    fn ledger_round_trips_and_rejects_bad_schemas() {
        let mut t = Trajectory::new();
        t.entries.push(entry(4, 10.0, &[("fig4", 10.0)]));
        let back = Trajectory::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);

        let mut bad = t.clone();
        bad.schema = "specweb-perf/v0".into();
        assert!(Trajectory::from_json(&bad.to_json()).is_err());
        assert!(Trajectory::from_json("not json").is_err());
    }
}
