//! # specweb-bench
//!
//! The experiment harness: one module per figure/table of the paper's
//! evaluation, each rendering its artifact (table + JSON) from the
//! run's shared [`Inputs`] — the calibrated workloads and the baseline
//! `P`/`P*` store, built once per run — and whatever it sweeps itself.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p specweb-bench --bin figures -- all
//! ```
//!
//! or any of the ids in [`EXPERIMENTS`] (`figures --help` lists them).
//! Results land in `results/` as text and JSON.
//!
//! Every experiment supports two scales: `Scale::Full` (trace sizes
//! comparable to the paper's 205,925-access log; minutes of runtime)
//! and `Scale::Quick` (seconds; used by the test suite and CI).

#![warn(missing_docs)]

pub mod ablations;
pub mod cli;
pub mod exps;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod perf;
pub mod plot;
pub mod workloads;

use std::fmt::Write as _;

use serde::Serialize;
use specweb_core::Result;

pub use workloads::{Inputs, Need};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-comparable trace sizes (minutes).
    Full,
    /// Small traces for tests and smoke runs (seconds).
    Quick,
}

/// One row of [`EXPERIMENTS`]: an id, what it reads of the run's shared
/// [`Inputs`], and the function that renders its report(s).
#[derive(Debug)]
pub struct Experiment {
    /// The id `figures` takes and the report file stem.
    pub id: &'static str,
    /// The shared input this experiment reads. What a row does not
    /// declare it would build itself, inside a worker — and which
    /// worker built first would then depend on scheduling.
    pub needs: Need,
    run: fn(&Inputs) -> Result<Vec<Report>>,
}

impl Experiment {
    /// Runs the experiment on `inputs`, [`Inputs::prepare`]d for it
    /// first: the installed `Obs` gets the counters of the declared
    /// inputs whether they are built now or were held already.
    pub fn run(&self, inputs: &Inputs) -> Result<Vec<Report>> {
        inputs.prepare([self.needs])?;
        (self.run)(inputs)
    }
}

/// A row; `$run` renders one [`Report`] or an array of them.
macro_rules! row {
    ($id:literal, $needs:ident, $run:path) => {
        Experiment {
            id: $id,
            needs: Need::$needs,
            run: |inputs| Ok($run(inputs)?.into()),
        }
    };
}

/// Every experiment the harness knows, in canonical run order. `fig5`
/// and `fig6` are two reports of one sweep: either row runs it and
/// renders both.
pub const EXPERIMENTS: &[Experiment] = &[
    row!("fig1", BuTrace, fig1::run),
    row!("fig2", Nothing, fig2::run),
    row!("fig3", BuTrace, fig3::run),
    row!("fig4", BuTrace, fig4::run),
    row!("fig5", BuStore, fig5::run),
    row!("fig6", BuStore, fig5::run),
    row!("tab1", Nothing, exps::tab1),
    row!("exp-upd", DriftTrace, exps::exp_upd),
    row!("exp-size", BuStore, exps::exp_size),
    row!("exp-cache", BuStore, exps::exp_cache),
    row!("exp-coop", BuStore, exps::exp_coop),
    row!("exp-pref", BuStore, exps::exp_pref),
    row!("exp-class", BuTrace, exps::exp_class),
    row!("exp-sizing", Nothing, exps::exp_sizing),
    row!("exp-closure", BuStore, ablations::exp_closure),
    row!("exp-rank", BuTrace, ablations::exp_rank),
    row!("exp-tailored", BuTrace, ablations::exp_tailored),
    row!("exp-shed", BuTrace, ablations::exp_shed),
    row!("exp-hier", BuTrace, ablations::exp_hier),
    row!("exp-alloc", Nothing, ablations::exp_alloc),
    row!("exp-aging", DriftTrace, ablations::exp_aging),
    row!("exp-digest", Nothing, ablations::exp_digest),
    row!("exp-queue", BuStore, ablations::exp_queue),
];

/// A rendered experiment result: human-readable text plus a JSON blob.
/// What the run *measured about itself* is not here: experiments record
/// through the ambient [`specweb_core::obs::current`] bundle that
/// `figures` installs around them, and the manifest is built from that.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `fig5`).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The rendered text table.
    pub text: String,
    /// Machine-readable result.
    pub json: serde_json::Value,
}

impl Report {
    /// Builds a report from a serializable result.
    pub fn new<T: Serialize>(
        id: &'static str,
        title: &'static str,
        text: String,
        value: &T,
    ) -> Report {
        Report {
            id,
            title,
            text,
            json: serde_json::to_value(value).expect("results are serializable"),
        }
    }

    /// Renders header + body.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let rule = "=".repeat(72);
        let _ = writeln!(out, "{rule}");
        let _ = writeln!(out, "{}: {}", self.id, self.title);
        let _ = writeln!(out, "{rule}");
        out.push_str(&self.text);
        if !self.text.ends_with('\n') {
            out.push('\n');
        }
        out
    }

    /// Writes `results/<id>.txt` and `results/<id>.json` under `dir`.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.txt", self.id)), self.render())?;
        std::fs::write(
            dir.join(format!("{}.json", self.id)),
            serde_json::to_string_pretty(&self.json).expect("valid json"),
        )?;
        Ok(())
    }
}

impl From<Report> for Vec<Report> {
    fn from(report: Report) -> Vec<Report> {
        vec![report]
    }
}

/// Formats a percentage with sign, e.g. `+5.0%` / `−30.2%`.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_serializes() {
        #[derive(Serialize)]
        struct R {
            x: u32,
        }
        let r = Report::new("t1", "test report", "body\n".into(), &R { x: 7 });
        let s = r.render();
        assert!(s.contains("t1: test report"));
        assert!(s.contains("body"));
        assert_eq!(r.json["x"], 7);
    }

    #[test]
    fn report_writes_files() {
        let dir = std::env::temp_dir().join("specweb-bench-test");
        let r = Report::new("t2", "files", "x\n".into(), &serde_json::json!({"a": 1}));
        r.write_to(&dir).unwrap();
        assert!(dir.join("t2.txt").exists());
        assert!(dir.join("t2.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(5.04), "+5.0%");
        assert_eq!(pct(-30.25), "-30.2%");
    }
}
