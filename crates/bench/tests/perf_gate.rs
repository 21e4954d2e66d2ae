//! End-to-end gate for `figures --check-perf`: the binary must append
//! every run to `perf_trajectory.json`, exit zero when there is no
//! comparable history (or the run is within tolerance), and exit
//! nonzero when a phase regressed past the tolerance of the most
//! recent comparable ledger entry.
//!
//! The regression is *injected*: the test pre-seeds the ledger with a
//! comparable entry whose timings are impossible (−1 s), which puts the
//! `prev × 1.25 + 0.5s` limit below zero: the real run blows it however
//! fast it is. (A 1 ms baseline left a 0.5 s limit, which a debug
//! `exp-closure --quick` came in under once the estimator got faster.)

use std::path::Path;
use std::process::Command;

fn run_figures(out: &Path, check_perf: bool) -> std::process::ExitStatus {
    let mut args = vec![
        "--quick".to_string(),
        "--seed".to_string(),
        "5".to_string(),
        "--jobs".to_string(),
        "2".to_string(),
        "--out".to_string(),
        out.to_str().unwrap().to_string(),
    ];
    if check_perf {
        args.push("--check-perf".to_string());
    }
    args.push("exp-closure".to_string());
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(&args)
        .status()
        .expect("spawn figures")
}

fn ledger(out: &Path) -> serde_json::Value {
    let raw = std::fs::read_to_string(out.join("perf_trajectory.json"))
        .expect("perf_trajectory.json written");
    serde_json::from_str(&raw).expect("ledger parses")
}

/// A ledger with one prior entry comparable to the test invocation
/// (same jobs/scale/scale_factor) but faster than any run can be, so
/// every real run regresses past tolerance.
fn impossible_baseline() -> String {
    serde_json::to_string_pretty(&serde_json::json!({
        "schema": "specweb-perf/v1",
        "entries": [{
            "git": "v0-baseline",
            "jobs": 2,
            "scale": "quick",
            "scale_factor": 1,
            "seed": 5,
            "total_seconds": -1.0,
            "experiments": [{ "id": "exp-closure", "seconds": -1.0 }]
        }]
    }))
    .unwrap()
}

#[test]
fn check_perf_gates_on_an_injected_regression() {
    let base = std::env::temp_dir().join(format!("specweb-perf-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Fresh directory, no history: --check-perf has nothing to regress
    // from and must pass, seeding the ledger with this run's entry.
    let fresh = base.join("fresh");
    std::fs::create_dir_all(&fresh).unwrap();
    let status = run_figures(&fresh, true);
    assert!(status.success(), "no-history --check-perf failed: {status}");
    let entries = ledger(&fresh)["entries"].as_array().unwrap().len();
    assert_eq!(entries, 1, "the run must append itself to the ledger");

    // Injected regression: a comparable −1 s baseline makes the real
    // run a guaranteed regression.
    let rigged = base.join("rigged");
    std::fs::create_dir_all(&rigged).unwrap();
    std::fs::write(rigged.join("perf_trajectory.json"), impossible_baseline()).unwrap();
    let status = run_figures(&rigged, true);
    assert!(
        !status.success(),
        "--check-perf must exit nonzero on a regression past tolerance"
    );
    // The regressing run is still appended — the ledger records what
    // happened, the exit code is the gate.
    let entries = ledger(&rigged)["entries"].as_array().unwrap().len();
    assert_eq!(entries, 2, "the regressing run must still be recorded");

    // Same injected regression without --check-perf: warn-only, exit 0.
    let warned = base.join("warned");
    std::fs::create_dir_all(&warned).unwrap();
    std::fs::write(warned.join("perf_trajectory.json"), impossible_baseline()).unwrap();
    let status = run_figures(&warned, false);
    assert!(
        status.success(),
        "without --check-perf a regression must only warn: {status}"
    );

    let _ = std::fs::remove_dir_all(&base);
}
