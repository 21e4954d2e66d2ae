//! # specweb-bench
//!
//! The experiment harness: one module per figure/table of the paper's
//! evaluation, each regenerating its artifact from scratch (workload
//! generation → estimation → simulation → rendered table + JSON).
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p specweb-bench --bin figures -- all
//! ```
//!
//! or a single experiment (`fig1` … `fig6`, `tab1`, `exp-upd`,
//! `exp-size`, `exp-cache`, `exp-coop`, `exp-pref`, `exp-class`,
//! `exp-sizing`), or one of the ablation studies (`exp-closure`,
//! `exp-rank`, `exp-tailored`, `exp-shed`, `exp-hier`, `exp-alloc`,
//! `exp-aging`, `exp-digest`, `exp-queue`). Results land in `results/` as text and
//! JSON.
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

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-comparable trace sizes (minutes).
    Full,
    /// Small traces for tests and smoke runs (seconds).
    Quick,
}

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
