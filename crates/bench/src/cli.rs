//! Command-line parsing for the `figures` binary.
//!
//! Kept in the library (rather than the binary) so the flag grammar is
//! unit-testable: the experiment list, deduplication of repeated ids
//! and the `--jobs` contract all have regression tests here.

use std::path::PathBuf;

use crate::Scale;

/// Every experiment id the harness knows, in canonical run order: the
/// id column of [`crate::EXPERIMENTS`].
pub fn ids() -> impl Iterator<Item = &'static str> {
    crate::EXPERIMENTS.iter().map(|e| e.id)
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Experiment scale (`--quick` selects [`Scale::Quick`]).
    pub scale: Scale,
    /// Master seed (`--seed N`).
    pub seed: u64,
    /// Output directory (`--out DIR`).
    pub out_dir: PathBuf,
    /// Worker count (`--jobs N`); `None` means use the process default
    /// (`SPECWEB_JOBS` or the detected core count).
    pub jobs: Option<usize>,
    /// Population multiplier (`--scale {1,10,100}`): multiplies
    /// `sessions_per_day` and the client count of every workload.
    pub scale_factor: usize,
    /// Experiment ids to run, deduplicated, in request order.
    pub wanted: Vec<String>,
    /// Whether `--help` was requested.
    pub help: bool,
    /// Whether `--report` was requested: render a human-readable
    /// summary from the `manifest_*.json` files already in `--out`
    /// instead of running experiments.
    pub report: bool,
    /// Whether `--check-perf` was requested: after appending this
    /// run's timings to `perf_trajectory.json`, compare against the
    /// most recent comparable entry and exit nonzero on a regression
    /// beyond tolerance.
    pub check_perf: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            scale: Scale::Full,
            seed: 1996,
            out_dir: PathBuf::from("results"),
            jobs: None,
            scale_factor: 1,
            wanted: Vec::new(),
            help: false,
            report: false,
            check_perf: false,
        }
    }
}

/// The usage string printed by `--help` and on bad invocations.
pub fn usage() -> String {
    format!(
        "usage: figures [--quick] [--seed N] [--jobs N] [--scale {{1|10|100}}] [--out DIR] [--check-perf] <ids…|all>\n       \
         figures --report [--out DIR]   (summarize manifest_*.json from a past run)\n\
         --check-perf: exit nonzero if this run regressed beyond tolerance\n\
         \x20             against the last comparable perf_trajectory.json entry\n\
         ids: {}",
        ids().collect::<Vec<_>>().join(" ")
    )
}

/// Parses an argument list (without the program name).
///
/// Repeated experiment ids are deduplicated while preserving first-use
/// order, so `figures fig5 fig5` runs the experiment once. `all` (or an
/// empty list) expands to [`ids`].
pub fn parse<I>(argv: I) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut out = Args::default();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => out.scale = Scale::Quick,
            "--seed" => {
                out.seed = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--jobs" => {
                let jobs: usize = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--jobs needs an integer")?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                out.jobs = Some(jobs);
            }
            "--scale" => {
                let factor: usize = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--scale needs an integer")?;
                if ![1, 10, 100].contains(&factor) {
                    return Err("--scale must be 1, 10 or 100".into());
                }
                out.scale_factor = factor;
            }
            "--out" => {
                out.out_dir = PathBuf::from(argv.next().ok_or("--out needs a path")?);
            }
            "--help" | "-h" => out.help = true,
            "--report" => out.report = true,
            "--check-perf" => out.check_perf = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()));
            }
            other => {
                if other != "all" && !ids().any(|id| id == other) {
                    return Err(format!("unknown experiment `{other}`\n{}", usage()));
                }
                out.wanted.push(other.to_string());
            }
        }
    }
    if out.wanted.is_empty() || out.wanted.iter().any(|w| w == "all") {
        out.wanted = ids().map(str::to_string).collect();
    } else {
        let mut seen = std::collections::BTreeSet::new();
        out.wanted.retain(|w| seen.insert(w.clone()));
    }
    Ok(Args { ..out })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn empty_argv_runs_everything_at_full_scale() {
        let a = p(&[]).unwrap();
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.seed, 1996);
        assert_eq!(a.jobs, None);
        assert_eq!(a.wanted.len(), ids().count());
        assert!(!a.help);
    }

    #[test]
    fn flags_parse() {
        let a = p(&[
            "--quick", "--seed", "7", "--jobs", "4", "--out", "/tmp/x", "fig3",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.seed, 7);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(a.wanted, vec!["fig3"]);
    }

    #[test]
    fn repeated_ids_are_deduplicated_in_request_order() {
        // fig5 and fig6 share one sweep; a duplicated request must not
        // schedule the experiment (and hence the sweep) twice.
        let a = p(&["fig5", "fig6", "fig5", "fig6"]).unwrap();
        assert_eq!(a.wanted, vec!["fig5", "fig6"]);
        let b = p(&["fig6", "fig1", "fig6"]).unwrap();
        assert_eq!(b.wanted, vec!["fig6", "fig1"]);
    }

    #[test]
    fn all_expands_to_the_canonical_list_exactly_once() {
        let a = p(&["fig5", "all", "fig5"]).unwrap();
        assert_eq!(a.wanted.len(), ids().count());
        let uniq: std::collections::HashSet<&String> = a.wanted.iter().collect();
        assert_eq!(uniq.len(), ids().count());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(p(&["fig99"]).is_err());
        assert!(p(&["--jobs", "0"]).is_err());
        assert!(p(&["--jobs", "four"]).is_err());
        assert!(p(&["--seed"]).is_err());
        assert!(p(&["--frobnicate"]).is_err());
    }

    #[test]
    fn scale_parses_and_rejects_off_grid_factors() {
        assert_eq!(p(&[]).unwrap().scale_factor, 1);
        assert_eq!(p(&["--scale", "1"]).unwrap().scale_factor, 1);
        assert_eq!(p(&["--scale", "10", "fig3"]).unwrap().scale_factor, 10);
        assert_eq!(p(&["--scale", "100"]).unwrap().scale_factor, 100);
        assert!(p(&["--scale", "2"]).is_err());
        assert!(p(&["--scale", "0"]).is_err());
        assert!(p(&["--scale", "ten"]).is_err());
        assert!(p(&["--scale"]).is_err());
    }

    #[test]
    fn help_short_circuits_validation_of_nothing_else() {
        let a = p(&["-h"]).unwrap();
        assert!(a.help);
    }

    #[test]
    fn check_perf_flag_parses() {
        assert!(p(&["--check-perf", "fig3"]).unwrap().check_perf);
        assert!(!p(&["fig3"]).unwrap().check_perf);
    }

    #[test]
    fn report_flag_parses_with_out_dir() {
        let a = p(&["--report", "--out", "/tmp/r"]).unwrap();
        assert!(a.report);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/r"));
        assert!(!p(&["fig3"]).unwrap().report);
    }
}
