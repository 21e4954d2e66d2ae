//! Run manifests: one JSON document per experiment capturing what ran,
//! with what inputs, and what the metrics registry saw.
//!
//! A manifest is split into two top-level sections mirroring the
//! registry channels:
//!
//! * `deterministic` — seed-tree root, scale, and the deterministic
//!   metric snapshot. Byte-identical across `--jobs` settings; the
//!   golden determinism test compares exactly this section.
//! * `nondeterministic` — worker count, git-describe, wall-clock
//!   timing breakdown, and wall-clock metrics. Never golden-compared.
//!
//! The `figures` binary writes `results/manifest_<exp>.json` for every
//! experiment plus `manifest_run.json` for process-wide metrics, and
//! `figures --report` renders them back through [`render_report`].

use std::collections::BTreeMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use super::registry::{MetricSnapshot, MetricValue};

/// The deterministic half of a manifest (golden-compared bytes).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeterministicSection {
    /// Master seed — the root of the run's `SeedTree`.
    pub seed_root: u64,
    /// `full` or `quick`.
    pub scale: String,
    /// Deterministic-channel metrics.
    pub metrics: BTreeMap<String, MetricValue>,
    /// Digests of deterministic artifacts the run produced (name →
    /// hex digest) — e.g. the session digest of a serve replay. Golden
    /// comparisons of this section therefore also pin the artifacts.
    pub artifacts: BTreeMap<String, String>,
}

/// One phase's wall-clock share in the timing breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name (`total`, `sweep`, `write`…).
    pub phase: String,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// The wall-clock half of a manifest (excluded from golden compares).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NondeterministicSection {
    /// Worker count the run used.
    pub jobs: usize,
    /// `git describe --always --dirty` at run time (or `unknown`).
    pub git: String,
    /// Wall-clock timing breakdown.
    pub timing: Vec<PhaseTiming>,
    /// Wall-clock-channel metrics.
    pub metrics: BTreeMap<String, MetricValue>,
}

/// A complete run manifest for one experiment (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Experiment id (`fig4`, `exp-closure`, or `run` for the
    /// process-wide manifest).
    pub id: String,
    /// Golden-compared section.
    pub deterministic: DeterministicSection,
    /// Wall-clock section.
    pub nondeterministic: NondeterministicSection,
}

impl RunManifest {
    /// Builds a manifest from a registry snapshot, routing each channel
    /// into its section.
    pub fn new(id: &str, seed_root: u64, scale: &str, snapshot: MetricSnapshot) -> RunManifest {
        RunManifest {
            id: id.to_string(),
            deterministic: DeterministicSection {
                seed_root,
                scale: scale.to_string(),
                metrics: snapshot.deterministic,
                artifacts: BTreeMap::new(),
            },
            nondeterministic: NondeterministicSection {
                jobs: 0,
                git: String::from("unknown"),
                timing: Vec::new(),
                metrics: snapshot.wallclock,
            },
        }
    }

    /// Fills the wall-clock envelope (builder-style).
    pub fn with_run_info(mut self, jobs: usize, git: &str) -> RunManifest {
        self.nondeterministic.jobs = jobs;
        self.nondeterministic.git = git.to_string();
        self
    }

    /// Records a deterministic artifact digest (builder-style). The
    /// digest joins the golden-compared section: two runs that agree on
    /// metrics but disagree on an artifact still diff.
    pub fn with_artifact(mut self, name: &str, digest: &str) -> RunManifest {
        self.deterministic
            .artifacts
            .insert(name.to_string(), digest.to_string());
        self
    }

    /// Appends one phase to the timing breakdown (builder-style).
    pub fn with_timing(mut self, phase: &str, seconds: f64) -> RunManifest {
        self.nondeterministic.timing.push(PhaseTiming {
            phase: phase.to_string(),
            seconds,
        });
        self
    }

    /// The conventional file name, `manifest_<id>.json`.
    pub fn file_name(&self) -> String {
        format!("manifest_{}.json", self.id)
    }
}

/// `git describe --always --dirty` for the working directory, or
/// `"unknown"` outside a git checkout (or with git unavailable).
/// Wall-clock-section data only — never golden-compared (two checkouts
/// of the same tree may differ).
///
/// The subprocess runs **once per process** and is cached: `figures`
/// writes a manifest per experiment, and shelling out per manifest was
/// measurable fork/exec overhead for a value that cannot change
/// mid-run.
pub fn git_describe() -> String {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| String::from("unknown"))
        })
        .clone()
}

/// The process's resident-set high-water mark so far, in KiB (`VmHWM`
/// of `/proc/self/status`), or `None` where there is no such file (off
/// Linux). Wall-clock-section data: process-wide at the instant of the
/// call, so attributable to one experiment only when experiments run
/// one at a time.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    hwm.split_whitespace().next()?.parse().ok()
}

/// The subsystem prefix of a metric name (`spec.pushes` → `spec`).
fn subsystem_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn fmt_value(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter { value } => value.to_string(),
        MetricValue::Gauge { value } => format!("{value} (high-water)"),
        MetricValue::Histogram {
            bins,
            underflow,
            overflow,
            ..
        } => {
            let total: u64 = bins.iter().sum();
            format!(
                "histogram: {total} obs in {} bins (underflow {underflow}, overflow {overflow})",
                bins.len()
            )
        }
    }
}

/// Renders a human-readable summary of a set of manifests: one block
/// per experiment (metrics grouped by subsystem, wall-clock timing),
/// then a cross-experiment per-subsystem aggregate of the
/// deterministic counters. This is what `figures --report` prints.
pub fn render_report(manifests: &[RunManifest]) -> String {
    let mut out = String::new();
    let mut totals: BTreeMap<String, MetricValue> = BTreeMap::new();

    for m in manifests {
        out.push_str(&format!(
            "== {} (seed {}, scale {}, jobs {}, git {})\n",
            m.id,
            m.deterministic.seed_root,
            m.deterministic.scale,
            m.nondeterministic.jobs,
            m.nondeterministic.git
        ));
        let mut last_subsystem = "";
        for (name, value) in &m.deterministic.metrics {
            let sub = subsystem_of(name);
            if sub != last_subsystem {
                out.push_str(&format!("  [{sub}]\n"));
                last_subsystem = sub;
            }
            out.push_str(&format!("    {name:<40} {}\n", fmt_value(value)));
            match totals.get_mut(name) {
                Some(existing) => existing.merge(value),
                None => {
                    totals.insert(name.clone(), value.clone());
                }
            }
        }
        for (name, value) in &m.nondeterministic.metrics {
            out.push_str(&format!(
                "    {name:<40} {}  (wall-clock)\n",
                fmt_value(value)
            ));
        }
        for t in &m.nondeterministic.timing {
            out.push_str(&format!("    time.{:<35} {:.2}s\n", t.phase, t.seconds));
        }
    }

    if !totals.is_empty() {
        out.push_str("== totals across experiments (deterministic channel)\n");
        let mut last_subsystem = "";
        for (name, value) in &totals {
            let sub = subsystem_of(name);
            if sub != last_subsystem {
                out.push_str(&format!("  [{sub}]\n"));
                last_subsystem = sub;
            }
            out.push_str(&format!("    {name:<40} {}\n", fmt_value(value)));
        }
    }
    out
}

/// Renders the manifests as a markdown report (`results/REPORT.md`).
///
/// Deliberately restricted to the **deterministic** sections: no jobs,
/// git describe, timing, or wall-clock metrics. The file is regenerated
/// by every `figures` run, so anything nondeterministic in it would
/// make `REPORT.md` churn across `--jobs` settings and break the CI
/// serial-vs-parallel `diff -r` gate the same way a nondeterministic
/// figure would.
pub fn render_report_markdown(manifests: &[RunManifest]) -> String {
    let mut out = String::new();
    let mut totals: BTreeMap<String, MetricValue> = BTreeMap::new();

    out.push_str("# specweb run report\n\n");
    out.push_str(
        "Deterministic metrics per experiment, rendered from the\n\
         `manifest_*.json` files. Regenerated by every `figures` run\n\
         (and by `figures --report` without re-running anything);\n\
         wall-clock data lives in the manifests' `nondeterministic`\n\
         sections and `perf_trajectory.json`, never here.\n",
    );

    for m in manifests {
        out.push_str(&format!(
            "\n## {} (seed {}, scale {})\n",
            m.id, m.deterministic.seed_root, m.deterministic.scale
        ));
        if m.deterministic.metrics.is_empty() {
            out.push_str("\n(no deterministic metrics recorded)\n");
            continue;
        }
        let mut last_subsystem = "";
        for (name, value) in &m.deterministic.metrics {
            let sub = subsystem_of(name);
            if sub != last_subsystem {
                out.push_str(&format!("\n### {sub}\n\n| metric | value |\n|---|---|\n"));
                last_subsystem = sub;
            }
            out.push_str(&format!("| `{name}` | {} |\n", fmt_value(value)));
            match totals.get_mut(name) {
                Some(existing) => existing.merge(value),
                None => {
                    totals.insert(name.clone(), value.clone());
                }
            }
        }
    }

    if !totals.is_empty() {
        out.push_str("\n## totals across experiments\n\n| metric | value |\n|---|---|\n");
        for (name, value) in &totals {
            out.push_str(&format!("| `{name}` | {} |\n", fmt_value(value)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::registry::Registry;
    use super::*;

    fn sample_manifest(id: &str) -> RunManifest {
        let reg = Registry::new();
        reg.counter("spec.pushes").add(10);
        reg.counter("dissem.proxy_hits").add(4);
        reg.counter_on(
            "par.workers_spawned",
            super::super::registry::Channel::WallClock,
        )
        .add(3);
        RunManifest::new(id, 1996, "quick", reg.snapshot())
            .with_run_info(4, "abc1234")
            .with_timing("total", 1.5)
            .with_artifact("session", "00000000deadbeef")
    }

    #[test]
    fn manifest_routes_channels_into_sections() {
        let m = sample_manifest("fig4");
        assert_eq!(m.deterministic.metrics.len(), 2);
        assert!(m.deterministic.metrics.contains_key("spec.pushes"));
        assert_eq!(m.nondeterministic.metrics.len(), 1);
        assert_eq!(m.nondeterministic.jobs, 4);
        assert_eq!(m.file_name(), "manifest_fig4.json");
        assert_eq!(
            m.deterministic.artifacts["session"], "00000000deadbeef",
            "artifact digests live in the golden-compared section"
        );
    }

    #[test]
    fn git_describe_is_cached_and_never_empty() {
        let a = git_describe();
        let b = git_describe();
        assert_eq!(a, b, "per-process cache must be stable");
        assert!(!a.is_empty(), "outside git the fallback is `unknown`");
    }

    #[test]
    fn peak_rss_is_read_where_proc_exists() {
        let rss = peak_rss_kib();
        assert_eq!(
            rss.is_some(),
            std::path::Path::new("/proc/self/status").exists()
        );
        assert!(rss.is_none_or(|kib| kib > 0));
        // A high-water mark never falls.
        assert!(peak_rss_kib() >= rss);
    }

    #[test]
    fn manifest_value_roundtrip() {
        use serde::{Deserialize as _, Serialize as _};
        let m = sample_manifest("exp-closure");
        let back = RunManifest::from_value(&m.to_value()).expect("roundtrip");
        assert_eq!(back, m);
    }

    /// `figures --report` re-reads whatever manifests are in `--out`,
    /// and older ones carry two `dropped_*` tallies in the wall-clock
    /// section: an unknown field must not stop the parse.
    #[test]
    fn a_stale_manifest_with_dropped_event_tallies_still_parses() {
        let m = sample_manifest("fig4");
        let json = serde_json::to_string_pretty(&m).unwrap();
        // One tally per ring the old tracer had.
        let tallies: String = ["", "wall_"]
            .iter()
            .map(|ring| format!("\"dropped_{ring}events\": 7, "))
            .collect();
        let stale = json.replacen("\"jobs\": 4,", &format!("{tallies}\"jobs\": 4,"), 1);
        assert_ne!(stale, json, "the nondeterministic section moved");
        assert_eq!(serde_json::from_str::<RunManifest>(&stale).unwrap(), m);
    }

    #[test]
    fn markdown_report_is_deterministic_only() {
        let md = render_report_markdown(&[sample_manifest("fig4"), sample_manifest("tab1")]);
        assert!(md.starts_with("# specweb run report"));
        assert!(md.contains("## fig4 (seed 1996, scale quick)"));
        assert!(md.contains("### spec"));
        assert!(md.contains("| `spec.pushes` | 10 |"));
        assert!(md.contains("## totals across experiments"));
        assert!(md.contains("| `spec.pushes` | 20 |"));
        // Nothing from the nondeterministic section may leak in: no
        // jobs/git line, no timing, no wall-clock metrics.
        assert!(!md.contains("jobs"), "{md}");
        assert!(!md.contains("abc1234"), "{md}");
        assert!(!md.contains("time."), "{md}");
        assert!(!md.contains("par.workers_spawned"), "{md}");
    }

    #[test]
    fn report_groups_by_subsystem_and_totals() {
        let report = render_report(&[sample_manifest("fig4"), sample_manifest("tab1")]);
        assert!(report.contains("== fig4 (seed 1996, scale quick, jobs 4"));
        assert!(report.contains("[spec]"));
        assert!(report.contains("[dissem]"));
        assert!(report.contains("totals across experiments"));
        // 10 pushes in each of the two manifests.
        let totals_at = report.find("totals").unwrap();
        assert!(report[totals_at..].contains("20"));
        assert!(report.contains("(wall-clock)"));
        assert!(report.contains("time.total"));
    }
}
