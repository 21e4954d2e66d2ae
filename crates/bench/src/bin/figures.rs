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
//! wall-clock times. `fig5` and `fig6` are two reports of one
//! experiment: asked for together, the one named first runs the sweep
//! (and owns its profile and ledger phase) and writes both.
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

use specweb_bench::{ablations, cli, exps, fig1, fig2, fig3, fig4, fig5, perf, Report, Scale};
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
    // Pin the population multiplier before any workload is built.
    specweb_bench::workloads::set_scale_factor(scale_factor);

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
    let runs: Vec<&String> = wanted.iter().filter(|w| Some(*w) != rider).collect();

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
        .try_map_indexed(&runs, |_, id| {
            let started = Instant::now();
            let run = Obs::new();
            let mut reports = {
                let _ctx = run.install();
                let _root = obs::frame(id);
                run_one(id, scale, seed).map_err(|e| format!("{id} failed: {e}"))?
            };
            reports.retain(|r| wanted.iter().any(|w| w == r.id));
            record_peak_rss(&run);
            Ok((reports, started.elapsed().as_secs_f64(), run))
        })
        .unwrap_or_else(|e: String| die(&e));

    let mut experiments = Vec::with_capacity(results.len());
    for (id, (reports, secs, run)) in runs.iter().zip(&results) {
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
        // Collapsed-stack profile (wall-clock channel: excluded from the
        // CI byte-diff, like perf_trajectory.json), one per run.
        let profile_path = out_dir.join(format!("profile_{id}.txt"));
        std::fs::write(&profile_path, run.profile.collapsed())
            .unwrap_or_else(|e| die(&format!("writing {}: {e}", profile_path.display())));
        log!(
            Info,
            "figures",
            "{id} done in {secs:.1}s (→ {}/{id}.txt)",
            out_dir.display()
        );
        experiments.push(perf::PhaseTiming {
            id: (*id).clone(),
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

/// Writes `manifest_<id>.json` under `dir`.
fn write_manifest(dir: &std::path::Path, manifest: &RunManifest) {
    let path = dir.join(manifest.file_name());
    std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                serde_json::to_string_pretty(manifest).expect("manifests serialize"),
            )
        })
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
}

/// Writes the deterministic-only markdown report to `<dir>/REPORT.md`.
fn write_markdown_report(dir: &std::path::Path, manifests: &[RunManifest]) {
    let path = dir.join("REPORT.md");
    std::fs::write(&path, obs::render_report_markdown(manifests))
        .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
    log!(Info, "figures", "report → {}", path.display());
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

/// Dispatches one experiment id to the reports it renders: one each,
/// except that `fig5` and `fig6` both run the sweep that renders both.
fn run_one(id: &str, scale: Scale, seed: u64) -> specweb_core::Result<Vec<Report>> {
    let report = match id {
        "fig5" | "fig6" => return Ok(fig5::run(scale, seed)?.into()),
        "fig1" => fig1::run(scale, seed),
        "fig2" => fig2::run(scale, seed),
        "fig3" => fig3::run(scale, seed),
        "fig4" => fig4::run(scale, seed),
        "tab1" => exps::tab1(scale, seed),
        "exp-upd" => exps::exp_upd(scale, seed),
        "exp-size" => exps::exp_size(scale, seed),
        "exp-cache" => exps::exp_cache(scale, seed),
        "exp-coop" => exps::exp_coop(scale, seed),
        "exp-pref" => exps::exp_pref(scale, seed),
        "exp-class" => exps::exp_class(scale, seed),
        "exp-sizing" => exps::exp_sizing(scale, seed),
        "exp-closure" => ablations::exp_closure(scale, seed),
        "exp-rank" => ablations::exp_rank(scale, seed),
        "exp-tailored" => ablations::exp_tailored(scale, seed),
        "exp-shed" => ablations::exp_shed(scale, seed),
        "exp-hier" => ablations::exp_hier(scale, seed),
        "exp-alloc" => ablations::exp_alloc(scale, seed),
        "exp-aging" => ablations::exp_aging(scale, seed),
        "exp-digest" => ablations::exp_digest(scale, seed),
        "exp-queue" => ablations::exp_queue(scale, seed),
        // cli::parse validates ids against the same list, so this is
        // unreachable from the command line; an Err (not die()) keeps
        // this fn effect-free for the worker-closure fan-out (G5).
        other => Err(specweb_core::CoreError::invalid_config(
            "experiment",
            format!("unknown experiment `{other}`"),
        )),
    }?;
    Ok(vec![report])
}

fn die(msg: &str) -> ! {
    log!(Error, "figures", "error: {msg}");
    std::process::exit(1)
}
