//! The repo benchmark: one workload per process, driven from outside
//! through the public functions of the specweb crates.
//!
//! ```text
//! specweb-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                   [--out DIR]
//! specweb-benchmark --check [--seed N]
//! ```
//!
//! Prints `workload metric value unit` for every metric measured, then,
//! as the last line, one JSON object: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `benchmark/README.md` describes workloads and metrics.

mod check;
mod harness;
mod inputs;
mod layers;
mod metrics;
mod pacer;
mod serve;
mod sims;
mod span;
mod stats;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Value};

use harness::{Outcome, Params};
use inputs::Scale;
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

/// The seed of a run that names none: the paper's year.
const DEFAULT_SEED: u64 = 1996;
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    check: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--check" => cli.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !cli.check && cli.workload.is_none() {
        return Err(format!("--workload is one of {}", WORKLOADS.join(", ")));
    }
    Ok(cli)
}

fn run_workload(name: &str, params: &Params) -> Option<Outcome> {
    let (seed, scale) = (params.seed, params.scale);
    Some(match name {
        "est-daily" => sims::run_spec(&inputs::est_daily(seed, scale), params),
        "est-aged" => sims::run_spec(&inputs::est_aged(seed, scale), params),
        "replay-wide" => sims::run_spec(&inputs::replay_wide(seed, scale), params),
        "dissem-cluster" => sims::run_dissem(&inputs::dissem_cluster(seed, scale), params),
        "serve-paced" => serve::run_paced(&inputs::serve(seed, scale), params),
        "serve-sessions" => serve::run_sessions(&inputs::serve(seed, scale), params),
        _ => return None,
    })
}

/// The metrics the last line must carry in this mode. Every end-to-end
/// metric must have been measured and be a positive number; a layer the
/// workload does not touch reads 0.
fn contract_metrics(outcome: &mut Outcome, trace: bool) -> Value {
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut obj = Vec::new();
    for def in defs {
        let value = match outcome.metrics.get(def.name) {
            Some(v) if v.is_finite() && (trace || v > 0.0) => v,
            None if trace => 0.0,
            other => {
                outcome
                    .checks
                    .fail(format!("metric {} is {other:?}", def.name));
                0.0
            }
        };
        obj.push((
            def.name.to_string(),
            json!({ "value": value, "unit": def.unit }),
        ));
    }
    Value::Obj(obj)
}

fn print_metrics(workload: &str, outcome: &Outcome) {
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = outcome.metrics.get(def.name) {
            match outcome.metrics.samples(def.name) {
                Some(n) => println!("{workload} {} {v} {} (n={n})", def.name, def.unit),
                None => println!("{workload} {} {v} {}", def.name, def.unit),
            }
        }
    }
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".to_string())
}

/// One run as `benchmark/out/<label>/<workload>.json` keeps it: the
/// contract's fields plus every measured metric, sample counts, the
/// outcome digest and what `run.sh` learnt about commit and machine.
fn record(workload: &str, cli: &Cli, outcome: &Outcome, contract: &Value) -> Value {
    let measured: Vec<(String, Value)> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .filter_map(|def| {
            let v = outcome.metrics.get(def.name)?;
            let mut entry = vec![
                ("value".to_string(), json!(v)),
                ("unit".to_string(), json!(def.unit)),
                ("better".to_string(), json!(def.better.as_str())),
            ];
            if let Some(n) = outcome.metrics.samples(def.name) {
                entry.push(("samples".to_string(), json!(n)));
            }
            Some((def.name.to_string(), Value::Obj(entry)))
        })
        .collect();
    let layer_self_s: Vec<(String, Value)> = outcome
        .tracer
        .self_seconds_by_name()
        .into_iter()
        .map(|(name, secs)| (name.to_string(), json!(secs)))
        .collect();
    json!({
        "workload": workload,
        "seed": cli.seed,
        "seconds": cli.seconds,
        "trace": cli.trace,
        "git": env_or_unknown("SPECWEB_BENCH_GIT"),
        "dirty": env_or_unknown("SPECWEB_BENCH_DIRTY"),
        "rustc": env_or_unknown("SPECWEB_BENCH_RUSTC"),
        "nproc": env_or_unknown("SPECWEB_BENCH_NPROC"),
        "correct": outcome.checks.failed == 0,
        "attempted": outcome.checks.attempted,
        "failed": outcome.checks.failed,
        "failures": outcome.checks.reasons.clone(),
        "digest": outcome.digest.clone(),
        "metrics": contract.clone(),
        "measured": Value::Obj(measured),
        "layer_self_s": Value::Obj(layer_self_s)
    })
}

/// Appends the run to the JSON list in `<dir>/<workload>.json`, and in
/// a traced run writes the spans beside it.
fn write_out(dir: &Path, workload: &str, run: Value, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}.json"));
    let mut runs = match std::fs::read_to_string(&path) {
        Ok(text) => match serde_json::parse(&text) {
            Ok(Value::Arr(runs)) => runs,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    runs.push(run);
    let text = serde_json::to_string_pretty(&Value::Arr(runs)).expect("values serialize");
    std::fs::write(&path, text + "\n")?;
    if outcome.tracer.span_count() > 0 {
        let spans = dir.join(format!("trace_{workload}.jsonl"));
        outcome.tracer.write_jsonl(&spans)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // ROADMAP's target is `figures --jobs 1`, and the box has two shared
    // cores: every timed body is serial.
    specweb_core::par::set_default_jobs(1);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("specweb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.check {
        return check::run(cli.seed);
    }
    let workload = cli.workload.clone().expect("checked by parse_cli");
    let params = Params {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: Scale::Full,
        process_start,
    };
    let Some(mut outcome) = run_workload(&workload, &params) else {
        eprintln!(
            "specweb-benchmark: unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };

    let contract = contract_metrics(&mut outcome, cli.trace);
    print_metrics(&workload, &outcome);
    println!("{workload} digest {}", outcome.digest);
    for reason in &outcome.checks.reasons {
        eprintln!("{workload} FAILED {reason}");
    }
    if let Some(dir) = &cli.out {
        let run = record(&workload, &cli, &outcome, &contract);
        if let Err(e) = write_out(dir, &workload, run, &outcome) {
            eprintln!("specweb-benchmark: writing {}: {e}", dir.display());
            return ExitCode::from(1);
        }
    }
    let last = json!({
        "correct": outcome.checks.failed == 0,
        "attempted": outcome.checks.attempted.max(1),
        "failed": outcome.checks.failed,
        "metrics": contract
    });
    println!(
        "{}",
        serde_json::to_string(&last).expect("values serialize")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_takes_the_drivers_arguments() {
        let cli = parse_cli(&args(&[
            "--workload",
            "est-daily",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("est-daily"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10.0, true));
        let defaults = parse_cli(&args(&["--workload", "est-aged"])).unwrap();
        assert_eq!((defaults.seed, defaults.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn cli_refuses_what_it_does_not_know() {
        for bad in [
            &["--seed", "7"][..],
            &["--workload", "est-daily", "--trace", "yes"],
            &["--workload", "est-daily", "--seconds", "0"],
            &["--workload", "est-daily", "--seed"],
            &["--workload", "est-daily", "--fast"],
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?}");
        }
        let params = Params {
            seed: 1,
            seconds: 0.1,
            trace: false,
            scale: Scale::Quick,
            process_start: Instant::now(),
        };
        assert!(run_workload("est-weekly", &params).is_none());
    }

    /// Quick-scale smoke of every workload, untraced and traced: no
    /// operation fails, every end-to-end metric is measured and
    /// positive, and the traced run attributes its bodies.
    #[test]
    fn every_workload_runs_at_quick_scale() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let params = Params {
                    seed: 7,
                    seconds: 0.2,
                    trace,
                    scale: Scale::Quick,
                    process_start: Instant::now(),
                };
                let mut outcome = run_workload(name, &params).expect("a known workload");
                contract_metrics(&mut outcome, trace);
                assert_eq!(
                    outcome.checks.failed, 0,
                    "{name} trace={trace}: {:?}",
                    outcome.checks.reasons
                );
                assert!(outcome.checks.attempted > 0, "{name}");
                assert!(!outcome.digest.is_empty(), "{name}");
                if trace {
                    let attributed = outcome.metrics.get("body.attributed_ratio");
                    assert!(
                        attributed.is_some_and(|r| r >= 0.9),
                        "{name}: {attributed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn quick_scale_fast_paths_agree_with_their_slow_twins() {
        for (what, ok) in check::equivalences(7) {
            assert!(ok, "{what}");
        }
    }
}
