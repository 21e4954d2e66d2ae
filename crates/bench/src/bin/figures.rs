//! Regenerates every figure and table of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p specweb-bench --bin figures -- all
//! cargo run --release -p specweb-bench --bin figures -- fig5 fig6
//! cargo run --release -p specweb-bench --bin figures -- --quick all
//! cargo run --release -p specweb-bench --bin figures -- --seed 7 --jobs 4 fig3
//! cargo run --release -p specweb-bench --bin figures -- --report
//! ```
//!
//! Text and JSON land in `results/`, plus one `manifest_<id>.json` per
//! experiment (seed, scale, metric snapshot, timing, git describe), a
//! run-level `manifest_run.json` with the process-wide counters, one
//! `profile_<id>.txt` span profile per experiment run, and one more
//! entry in `perf_trajectory.json` with the run's per-experiment
//! wall-clock times. What the requested experiments share — the
//! calibrated traces and the baseline `P`/`P*` store — is built once,
//! before they start, under its own `inputs` root: `profile_inputs.txt`
//! and an `inputs` phase in the ledger, so an experiment's own profile
//! shows a build only for what is private to it. `fig5` and `fig6` are
//! two reports of one experiment: asked for together, the one named
//! first runs the sweep (and owns its profile and ledger phase) and
//! writes both.
//! Experiments fan out on `--jobs` workers (default: `SPECWEB_JOBS` or
//! the core count); the result files and every manifest's
//! `deterministic` section are byte-identical for every worker count —
//! only `perf_trajectory.json`, the `profile_*.txt` stacks and the
//! manifests' `nondeterministic` sections vary.
//!
//! Every run also regenerates `<out>/REPORT.md`, a deterministic-only
//! markdown summary of the manifests (no jobs/git/timing, so it joins
//! the byte-identical set). `figures --report` re-reads the manifests
//! from `--out`, prints the per-subsystem summary, and rewrites
//! `REPORT.md` without re-running anything.

use std::time::Instant;

use specweb_bench::{cli, perf, Experiment, Inputs, Report, Scale, EXPERIMENTS};
use specweb_core::log;
use specweb_core::obs::{self, Channel, Level, Obs, RunManifest};

fn main() {
    // Progress lines (level Info) print by default for the interactive
    // binary; SPECWEB_LOG still overrides in either direction.
    obs::set_default_level(Level::Info);

    let args = cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
    if args.help {
        println!("{}", cli::usage());
        return;
    }
    if args.report {
        match load_manifests(&args.out_dir) {
            Ok(manifests) => {
                println!("{}", obs::render_report(&manifests));
                write_markdown_report(&args.out_dir, &manifests);
            }
            Err(e) => die(&e),
        }
        return;
    }
    let cli::Args {
        scale,
        seed,
        out_dir,
        jobs,
        scale_factor,
        wanted,
        check_perf,
        ..
    } = args;

    // Pin the process-wide default so every parallel site in the
    // workspace — experiment fan-out, closure rows, profile mining —
    // honors --jobs. `--jobs 1` makes the entire process serial.
    let jobs = jobs.unwrap_or_else(specweb_core::par::default_jobs);
    specweb_core::par::set_default_jobs(jobs);

    let t0 = Instant::now();
    let scale_name: String = {
        let base = match scale {
            Scale::Full => "full",
            Scale::Quick => "quick",
        };
        if scale_factor > 1 {
            format!("{base}-x{scale_factor}")
        } else {
            base.to_string()
        }
    };
    let scale_name = scale_name.as_str();
    let git = obs::git_describe();

    // fig5 and fig6 are two reports of one experiment (`fig5::run`):
    // the id requested first runs it, like any other, and the second
    // rides along instead of running the sweep again. (cli::parse
    // deduplicates ids, so each appears at most once.)
    let rider = wanted
        .iter()
        .filter(|w| *w == "fig5" || *w == "fig6")
        .nth(1);
    // (cli::parse has checked every id against the same table.)
    let runs: Vec<&Experiment> = wanted
        .iter()
        .filter(|w| Some(*w) != rider)
        .filter_map(|w| EXPERIMENTS.iter().find(|e| e.id == w))
        .collect();

    // The run's plan: what the requested experiments declare is built
    // here, once, before the fan-out — so which profile shows a build
    // never depends on which worker asked first, and the workers only
    // read. Its time is the `inputs` root and ledger phase.
    let inputs = Inputs::new(scale, scale_factor, seed);
    let plan = Obs::new();
    let plan_secs = {
        let started = Instant::now();
        let _ctx = plan.install();
        let _root = obs::frame("inputs");
        inputs
            .prepare(runs.iter().map(|e| e.needs))
            .unwrap_or_else(|e| die(&format!("inputs failed: {e}")));
        started.elapsed().as_secs_f64()
    };
    write_profile(&out_dir, "inputs", &plan);
    let mut experiments = vec![perf::PhaseTiming {
        id: "inputs".into(),
        seconds: plan_secs,
    }];

    // Experiments are independent deterministic replays: fan them out
    // and print in request order (a rider right after the id that ran
    // it). Workers return Result and the exit happens after the pool
    // joins (G5: process::exit inside a worker would race the other
    // workers' output, and which error won would depend on completion
    // order); try_map_indexed surfaces the first
    // failure in *request* order, so a failed experiment can neither be
    // silently dropped nor report nondeterministically. Each experiment
    // runs under its own installed `Obs` — the registry every recording
    // site below it writes to, and a span-tree profile rooted at its id;
    // inner pools adopt the context, so simulator metrics and phases
    // land under it.
    let pool = specweb_core::par::Pool::new(jobs.min(runs.len().max(1)));
    let results: Vec<(Vec<Report>, f64, Obs)> = pool
        .try_map_indexed(&runs, |_, exp| {
            let started = Instant::now();
            let run = Obs::new();
            let mut reports = {
                let _ctx = run.install();
                let _root = obs::frame(exp.id);
                exp.run(&inputs)
                    .map_err(|e| format!("{} failed: {e}", exp.id))?
            };
            reports.retain(|r| wanted.iter().any(|w| w == r.id));
            record_peak_rss(&run);
            Ok((reports, started.elapsed().as_secs_f64(), run))
        })
        .unwrap_or_else(|e: String| die(&e));

    for (exp, (reports, secs, run)) in runs.iter().zip(&results) {
        for report in reports {
            println!("{}", report.render());
            report
                .write_to(&out_dir)
                .unwrap_or_else(|e| die(&format!("writing {}: {e}", report.id)));
            // Record the process-wide --jobs value, not the fan-out
            // pool's width (which is capped at the experiment count):
            // closure rows and profile mining inside one experiment
            // still parallelize.
            let manifest = RunManifest::new(report.id, seed, scale_name, run.snapshot())
                .with_run_info(jobs, &git)
                .with_timing("run", *secs);
            write_manifest(&out_dir, &manifest);
        }
        write_profile(&out_dir, exp.id, run);
        log!(
            Info,
            "figures",
            "{0} done in {secs:.1}s (→ {1}/{0}.txt)",
            exp.id,
            out_dir.display()
        );
        experiments.push(perf::PhaseTiming {
            id: exp.id.into(),
            seconds: *secs,
        });
    }

    let total_seconds = t0.elapsed().as_secs_f64();

    // Run-level manifest: the process-wide registry (pool task totals,
    // the process's peak RSS) plus end-to-end timing.
    record_peak_rss(obs::global());
    let run_manifest = RunManifest::new("run", seed, scale_name, obs::global().snapshot())
        .with_run_info(jobs, &git)
        .with_timing("total", total_seconds);
    write_manifest(&out_dir, &run_manifest);

    // REPORT.md rides along with every run: re-read the full manifest
    // set (this run's plus any earlier experiments still in --out) so
    // the report always reflects everything in the directory.
    match load_manifests(&out_dir) {
        Ok(manifests) => write_markdown_report(&out_dir, &manifests),
        Err(e) => die(&e),
    }

    // Perf trajectory: append this run to the committed wall-clock
    // ledger and (under --check-perf) gate on regressions against the
    // most recent comparable entry. Wall-clock channel — excluded from
    // the determinism byte-diffs.
    let entry = perf::TrajectoryEntry {
        git: git.clone(),
        jobs: jobs as u64,
        scale: scale_name.into(),
        scale_factor: scale_factor as u64,
        seed,
        total_seconds,
        experiments,
    };
    let traj_path = out_dir.join("perf_trajectory.json");
    let mut trajectory = match std::fs::read_to_string(&traj_path) {
        Ok(text) => perf::Trajectory::from_json(&text)
            .unwrap_or_else(|e| die(&format!("{}: {e}", traj_path.display()))),
        Err(_) => perf::Trajectory::new(),
    };
    let regressions = perf::check_against(&trajectory.entries, &entry, &perf::Tolerance::default());
    trajectory.entries.push(entry);
    std::fs::write(&traj_path, trajectory.to_json())
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", traj_path.display())));
    for r in &regressions {
        log!(Warn, "figures", "perf regression: {r}");
    }

    log!(
        Info,
        "figures",
        "all done in {total_seconds:.1}s ({} workers; timings → {})",
        pool.jobs(),
        traj_path.display()
    );
    if check_perf && !regressions.is_empty() {
        die(&format!(
            "--check-perf: {} phase(s) regressed beyond tolerance (see warnings above)",
            regressions.len()
        ));
    }
}

/// Records the process's resident-set high-water mark so far on `obs`'s
/// wall-clock channel (nothing off Linux). Process-wide at this
/// instant: one experiment's own only at `--jobs 1`, in request order.
fn record_peak_rss(obs: &Obs) {
    if let Some(kib) = obs::peak_rss_kib() {
        obs.metrics
            .gauge_on("proc.peak_rss_kib", Channel::WallClock)
            .record(kib);
    }
}

/// Writes `dir/name`, creating `dir`; exits on failure.
fn write_out(dir: &std::path::Path, name: &str, contents: &str) {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
}

/// Writes `profile_<root>.txt` under `dir`: `run`'s collapsed stacks
/// (wall-clock channel: excluded from the CI byte-diff, like
/// `perf_trajectory.json`).
fn write_profile(dir: &std::path::Path, root: &str, run: &Obs) {
    write_out(
        dir,
        &format!("profile_{root}.txt"),
        &run.profile.collapsed(),
    );
}

/// Writes `manifest_<id>.json` under `dir`.
fn write_manifest(dir: &std::path::Path, manifest: &RunManifest) {
    let json = serde_json::to_string_pretty(manifest).expect("manifests serialize");
    write_out(dir, &manifest.file_name(), &json);
}

/// Writes the deterministic-only markdown report to `<dir>/REPORT.md`.
fn write_markdown_report(dir: &std::path::Path, manifests: &[RunManifest]) {
    write_out(dir, "REPORT.md", &obs::render_report_markdown(manifests));
    log!(Info, "figures", "report → {}/REPORT.md", dir.display());
}

/// Loads every `manifest_*.json` in `dir`, sorted by file name so the
/// manifest order (and therefore any rendered report) is stable.
fn load_manifests(dir: &std::path::Path) -> Result<Vec<RunManifest>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| {
        format!(
            "reading {}: {e} (run some experiments first)",
            dir.display()
        )
    })?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("manifest_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!(
            "no manifest_*.json in {} — run `figures <ids…|all>` first",
            dir.display()
        ));
    }
    let mut manifests = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let manifest: RunManifest =
            serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        manifests.push(manifest);
    }
    Ok(manifests)
}

fn die(msg: &str) -> ! {
    log!(Error, "figures", "error: {msg}");
    std::process::exit(1)
}
