//! Golden-output determinism: the `figures` binary must emit
//! byte-identical result files whether it runs serially or on a worker
//! pool. Only `perf_trajectory.json` and the `profile_*.txt` timings —
//! wall-clock accounting — and the `nondeterministic` sections of the
//! `manifest_*.json` files may differ between the two runs; each manifest's `deterministic`
//! section (seed, scale, and the deterministic-channel metric
//! snapshot) must match exactly.
//!
//! The experiment set exercises every parallel site in the stack:
//! `fig4` (trace → estimator → simulator), `exp-closure` (the shared
//! hard-window `MatrixStore::precompute`, built under the `inputs`
//! root before the fan-out, and the parallel `DepMatrix::closure` of
//! its `reclose`d variants), `exp-aging` (the aged `precompute`:
//! shared per-day estimates, one blend per boundary) and `exp-tailored`
//! (dissemination runs, replayed sharded at `--jobs 4`) — plus `fig1`,
//! whose only instrumentation is what the trace generator recorded,
//! republished to it from the shared trace.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const TRAJECTORY: &str = "perf_trajectory.json";

fn run_figures(out: &Path, jobs: &str, ids: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", "--seed", "5", "--jobs", jobs, "--out"])
        .arg(out)
        .args(ids)
        .status()
        .expect("spawn figures");
    assert!(status.success(), "figures --jobs {jobs} failed: {status}");
}

/// File name → contents for every file in `dir`.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read out dir")
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let base = std::env::temp_dir().join(format!("specweb-determinism-{}", std::process::id()));
    let dir_serial = base.join("serial");
    let dir_parallel = base.join("parallel");
    let _ = std::fs::remove_dir_all(&base);

    let ids = ["fig1", "fig4", "exp-closure", "exp-aging", "exp-tailored"];
    run_figures(&dir_serial, "1", &ids);
    run_figures(&dir_parallel, "4", &ids);

    let mut serial = snapshot(&dir_serial);
    let mut parallel = snapshot(&dir_parallel);

    // The perf-trajectory ledger is wall-clock accounting: present in
    // both runs, schema-checked, but never byte-compared.
    for snap in [&mut serial, &mut parallel] {
        let raw = snap
            .remove(TRAJECTORY)
            .expect("perf_trajectory.json written");
        let raw = String::from_utf8(raw).expect("trajectory is utf-8");
        let parsed: serde_json::Value = serde_json::from_str(&raw).expect("trajectory parse");
        assert_eq!(parsed["schema"].as_str(), Some("specweb-perf/v1"));
        let entries = parsed["entries"].as_array().unwrap();
        assert_eq!(entries.len(), 1, "fresh out dir gets exactly one entry");
        assert_eq!(
            entries[0]["experiments"].as_array().unwrap().len(),
            1 + ids.len(),
            "the `inputs` phase, then one phase timing per experiment"
        );
        assert!(entries[0]["total_seconds"].as_f64().unwrap() >= 0.0);
    }
    assert_eq!(serial.get(TRAJECTORY), None);

    // Flamegraph profiles are wall-clock accounting too: each frame
    // line is `path calls N wall_us T`. The frame paths and call
    // counts are deterministic (frames sit above the shard fan-out),
    // but the timings are not — compare the lines with `wall_us`
    // stripped, then drop the files from the byte compare.
    let profile_names: Vec<String> = serial
        .keys()
        .filter(|n| n.starts_with("profile_") && n.ends_with(".txt"))
        .cloned()
        .collect();
    for want in [
        "profile_inputs.txt",
        "profile_fig4.txt",
        "profile_exp-closure.txt",
    ] {
        assert!(
            profile_names.iter().any(|n| n == want),
            "{want} missing from run output ({profile_names:?})"
        );
    }
    for name in &profile_names {
        let calls_only = |snap: &mut BTreeMap<String, Vec<u8>>| -> Vec<String> {
            let raw = snap
                .remove(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            let raw = String::from_utf8(raw).expect("profile is utf-8");
            raw.lines()
                .map(|l| {
                    l.split(" wall_us ")
                        .next()
                        .unwrap_or_else(|| panic!("{name}: malformed line {l:?}"))
                        .to_string()
                })
                .collect()
        };
        let s = calls_only(&mut serial);
        let p = calls_only(&mut parallel);
        assert!(!s.is_empty(), "{name} is empty");
        assert_eq!(
            s, p,
            "{name}: frame paths/call counts differ between --jobs 1 and --jobs 4"
        );
        // Every root carries its self-time line, whatever the worker
        // count (a jobs-dependent path set would have failed above).
        let root = name
            .strip_prefix("profile_")
            .and_then(|n| n.strip_suffix(".txt"))
            .unwrap();
        let unattributed = format!("{root};<unattributed> calls 1");
        assert!(s.contains(&unattributed), "{name}: no `{unattributed}`");
        // The estimator's frames: one per precompute call, per slide or
        // per-day pass, and per boundary for blends and closures — the
        // closures run on pool workers and must still nest here. A
        // slide and the per-day pass split into the builder's push and
        // build halves (`deps.push` per pushed day, `deps.build` per
        // matrix), the per-day ones on pool workers too. A trace
        // generation's three phases (world, session walk, ordering),
        // once each per trace. The
        // shared store is built once, under `inputs`; exp-closure only
        // re-closes it. A dissemination run's three phases, once each
        // per run: six runs (shared and tailored at three fractions).
        let wanted: &[&str] = match name.as_str() {
            "profile_inputs.txt" => &[
                "inputs;workload.trace calls 2",
                "inputs;workload.trace;trace.world calls 2",
                "inputs;workload.trace;trace.sessions calls 2",
                "inputs;workload.trace;trace.order calls 2",
                "inputs;estimator.precompute calls 1",
                "inputs;estimator.precompute;estimator.slide calls 1",
                "inputs;estimator.precompute;estimator.slide;deps.push calls ",
                "inputs;estimator.precompute;estimator.slide;deps.build calls ",
                "inputs;estimator.precompute;deps.closure calls ",
            ],
            "profile_exp-closure.txt" => &[
                "exp-closure;estimator.reclose calls ",
                "exp-closure;estimator.reclose;deps.closure calls ",
            ],
            "profile_exp-aging.txt" => &[
                "exp-aging;estimator.precompute;estimator.slide calls ",
                "exp-aging;estimator.precompute;estimator.day_matrices calls ",
                "exp-aging;estimator.precompute;estimator.day_matrices;deps.push calls ",
                "exp-aging;estimator.precompute;estimator.day_matrices;deps.build calls ",
                "exp-aging;estimator.precompute;estimator.aged_blend calls ",
                "exp-aging;estimator.precompute;deps.closure calls ",
            ],
            "profile_exp-tailored.txt" => &[
                "exp-tailored;dissem.run calls 6",
                "exp-tailored;dissem.run;placement calls 6",
                "exp-tailored;dissem.run;stores calls 6",
                "exp-tailored;dissem.run;replay calls 6",
            ],
            _ => &[],
        };
        for frame in wanted {
            assert!(
                s.iter().any(|l| l.starts_with(frame)),
                "{name}: no `{frame}` line in {s:#?}"
            );
        }
    }

    // Manifests carry a two-channel split: the `deterministic` section
    // (seed root, scale, deterministic-channel metrics) must be
    // identical across worker counts, while the `nondeterministic`
    // section records jobs/timing and is excluded from the byte
    // compare. Pull them out and compare the channels separately.
    let manifest_names: Vec<String> = serial
        .keys()
        .filter(|n| n.starts_with("manifest_") && n.ends_with(".json"))
        .cloned()
        .collect();
    for want in [
        "manifest_fig4.json",
        "manifest_exp-closure.json",
        "manifest_run.json",
    ] {
        assert!(
            manifest_names.iter().any(|n| n == want),
            "{want} missing from run output ({manifest_names:?})"
        );
    }
    for name in &manifest_names {
        let parse = |snap: &mut BTreeMap<String, Vec<u8>>, jobs: u64| -> serde_json::Value {
            let raw = snap
                .remove(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            let raw = String::from_utf8(raw).expect("manifest is utf-8");
            let parsed: serde_json::Value =
                serde_json::from_str(&raw).unwrap_or_else(|e| panic!("{name} parse: {e}"));
            assert_eq!(
                parsed["nondeterministic"]["jobs"].as_u64(),
                Some(jobs),
                "{name} should record its own worker count"
            );
            parsed
        };
        let s = parse(&mut serial, 1);
        let p = parse(&mut parallel, 4);
        assert_eq!(
            s["deterministic"], p["deterministic"],
            "{name}: deterministic section differs between --jobs 1 and --jobs 4"
        );
        assert!(
            s["deterministic"]["metrics"].as_object().is_some(),
            "{name}: deterministic metric snapshot missing"
        );
    }
    // The per-experiment manifests must actually carry metrics — an
    // empty snapshot would mean the installed context did not reach
    // the work: fig4's own series, and for fig1 (which names no metric
    // itself) the counters of the shared trace it declared.
    for snap_dir in [&dir_serial, &dir_parallel] {
        for (id, series) in [("fig4", "fig4."), ("fig1", "trace.accesses_generated")] {
            let path = snap_dir.join(format!("manifest_{id}.json"));
            let raw = std::fs::read_to_string(path).unwrap();
            let parsed: serde_json::Value = serde_json::from_str(&raw).unwrap();
            let metrics = parsed["deterministic"]["metrics"].as_object().unwrap();
            assert!(
                metrics.iter().any(|(k, _)| k.starts_with(series)),
                "manifest_{id}.json carries no {series}* metrics"
            );
        }
    }

    let serial_names: Vec<&String> = serial.keys().collect();
    let parallel_names: Vec<&String> = parallel.keys().collect();
    assert_eq!(serial_names, parallel_names, "different file sets");
    assert!(
        serial.keys().any(|n| n.ends_with(".json")),
        "no result files produced"
    );

    for (name, bytes) in &serial {
        assert_eq!(
            bytes,
            parallel.get(name).unwrap(),
            "{name} differs between --jobs 1 and --jobs 4"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

/// fig5 and fig6 are two reports of one experiment: requested together
/// the sweep runs once, inside the pool and under the profiler root of
/// the id requested first, and both reports equal what each id
/// produces alone.
#[test]
fn fig5_and_fig6_together_equal_each_alone_and_the_sweep_is_profiled() {
    let base = std::env::temp_dir().join(format!("specweb-fig56-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (both, only5, only6) = (base.join("both"), base.join("fig5"), base.join("fig6"));
    run_figures(&both, "2", &["fig5", "fig6"]);
    run_figures(&only5, "2", &["fig5"]);
    run_figures(&only6, "2", &["fig6"]);

    let together = snapshot(&both);
    for (alone, id) in [(snapshot(&only5), "fig5"), (snapshot(&only6), "fig6")] {
        for ext in ["txt", "json"] {
            let name = format!("{id}.{ext}");
            assert!(together.contains_key(&name), "{name} not written");
            assert_eq!(
                together[&name], alone[&name],
                "{name} differs from `figures {id}` alone"
            );
        }
        let name = format!("manifest_{id}.json");
        let section = |snap: &BTreeMap<String, Vec<u8>>| -> serde_json::Value {
            let parsed: serde_json::Value =
                serde_json::from_str(std::str::from_utf8(&snap[&name]).unwrap()).unwrap();
            parsed["deterministic"].clone()
        };
        assert_eq!(section(&together), section(&alone), "{name}");
    }

    let profile = String::from_utf8(together["profile_fig5.txt"].clone()).unwrap();
    for frame in [
        "fig5;estimator.precompute calls ",
        "fig5;spec.replay calls ",
    ] {
        assert!(
            profile.lines().any(|l| l.starts_with(frame)),
            "no `{frame}` line in profile_fig5.txt:\n{profile}"
        );
    }

    let ledger: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&together[TRAJECTORY]).unwrap()).unwrap();
    let phases: Vec<&str> = ledger["entries"][0]["experiments"]
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p["id"].as_str().unwrap())
        .collect();
    assert_eq!(
        phases,
        ["inputs", "fig5"],
        "the shared inputs, then one phase: the run that did the sweep"
    );

    let _ = std::fs::remove_dir_all(&base);
}

/// An experiment's files do not depend on what else the run was asked
/// for: the inputs it shares with the rest of `all` are the ones it
/// would have built alone, and its manifest carries their counters
/// either way.
#[test]
fn one_experiment_alone_equals_its_files_from_a_full_run() {
    let base = std::env::temp_dir().join(format!("specweb-subset-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (all, alone) = (base.join("all"), base.join("alone"));
    run_figures(&all, "2", &["all"]);
    run_figures(&alone, "2", &["exp-coop"]);

    let (all, alone) = (snapshot(&all), snapshot(&alone));
    for name in ["exp-coop.txt", "exp-coop.json"] {
        assert_eq!(all[name], alone[name], "{name} differs from the full run's");
    }
    let section = |snap: &BTreeMap<String, Vec<u8>>| -> serde_json::Value {
        let raw = std::str::from_utf8(&snap["manifest_exp-coop.json"]).unwrap();
        serde_json::from_str::<serde_json::Value>(raw).unwrap()["deterministic"].clone()
    };
    assert_eq!(section(&all), section(&alone), "manifest_exp-coop.json");
    assert!(
        section(&alone)["metrics"]["trace.accesses_generated"]
            .as_object()
            .is_some(),
        "the shared trace's counters reach a sharer's manifest"
    );

    let _ = std::fs::remove_dir_all(&base);
}
