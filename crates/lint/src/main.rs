//! CLI for the determinism & safety lint pass.
//!
//! ```text
//! cargo run -p specweb-lint                  # lint the workspace (two engines)
//! cargo run -p specweb-lint -- --deny-all    # also fail on unused allows (CI mode)
//! cargo run -p specweb-lint -- --graph       # write results/callgraph.json
//! cargo run -p specweb-lint -- --stats       # write results/lint_report.json
//! cargo run -p specweb-lint -- --purity      # write results/purity.json
//! cargo run -p specweb-lint -- --width       # write results/widthflow.json
//! cargo run -p specweb-lint -- --jobs 4      # parallel per-file pass
//! cargo run -p specweb-lint -- --list-rules  # print the rule table
//! ```
//!
//! Exit code 0 when clean, 1 on violations (or, under `--deny-all`,
//! unused suppressions), 2 on usage/I-O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use specweb_lint::{analyze_workspace, rules};

struct Options {
    root: PathBuf,
    deny_all: bool,
    stats: bool,
    graph: bool,
    purity: bool,
    width: bool,
    jobs: usize,
    list_rules: bool,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: specweb-lint [--root PATH] [--deny-all] [--stats] [--graph] [--purity] \
     [--width] [--jobs N] [--list-rules] [--quiet]\n\
     \n\
     --root PATH    workspace root to lint (default: this workspace)\n\
     --deny-all     treat unused lint:allow suppressions as errors (CI mode)\n\
     --stats        write <root>/results/lint_report.json and print a summary\n\
     --graph        write <root>/results/callgraph.json (the resolved call graph)\n\
     --purity       write <root>/results/purity.json (per-fn purity classes)\n\
     --width        write <root>/results/widthflow.json (scale-taint width analysis)\n\
     --jobs N       fan the per-file pass over N workers (output is byte-identical\n\
                    for any N; default 1)\n\
     --list-rules   print the rule table and exit\n\
     --quiet        suppress per-violation diagnostics (summary only)"
}

fn parse_args() -> Result<Options, String> {
    // The manifest dir is crates/lint; the workspace root is two up.
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let mut opts = Options {
        root: default_root,
        deny_all: false,
        stats: false,
        graph: false,
        purity: false,
        width: false,
        jobs: 1,
        list_rules: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root requires a path")?;
                opts.root = PathBuf::from(v);
            }
            "--deny-all" => opts.deny_all = true,
            "--stats" => opts.stats = true,
            "--graph" => opts.graph = true,
            "--purity" => opts.purity = true,
            "--width" => opts.width = true,
            "--jobs" => {
                let v = args.next().ok_or("--jobs requires a count")?;
                opts.jobs = v
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs: `{v}` is not a number"))?
                    .max(1);
            }
            "--list-rules" => opts.list_rules = true,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("specweb-lint: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for r in rules::RULES {
            println!(
                "{:<4} {}",
                r.id,
                r.summary.split_whitespace().collect::<Vec<_>>().join(" ")
            );
        }
        return ExitCode::SUCCESS;
    }

    let analysis = match analyze_workspace(&opts.root, opts.jobs) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("specweb-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = &analysis.report;

    if !opts.quiet {
        for d in &report.violations {
            eprintln!("error: {d}");
        }
        for d in &report.unused_allows {
            let sev = if opts.deny_all { "error" } else { "warning" };
            eprintln!("{sev}: {d}");
        }
    }

    let results = opts.root.join("results");
    if (opts.stats || opts.graph || opts.purity || opts.width) && !results.exists() {
        if let Err(e) = std::fs::create_dir_all(&results) {
            eprintln!("specweb-lint: create {}: {e}", results.display());
            return ExitCode::from(2);
        }
    }

    if opts.graph {
        let out = results.join("callgraph.json");
        let json = analysis
            .graph
            .to_json(&analysis.roots, &analysis.hot_roots, &analysis.stats);
        if let Err(e) = std::fs::write(&out, json) {
            eprintln!("specweb-lint: write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", out.display());
    }

    if opts.purity {
        let out = results.join("purity.json");
        if let Err(e) = std::fs::write(&out, analysis.purity.to_json(&analysis.graph)) {
            eprintln!("specweb-lint: write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", out.display());
    }

    if opts.width {
        let out = results.join("widthflow.json");
        if let Err(e) = std::fs::write(&out, analysis.width.to_json(&analysis.graph)) {
            eprintln!("specweb-lint: write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", out.display());
    }

    if opts.stats {
        let out = results.join("lint_report.json");
        if let Err(e) = std::fs::write(&out, report.to_json()) {
            eprintln!("specweb-lint: write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", out.display());
        let stats = &analysis.stats;
        println!(
            "resolution ladder ({} call sites; {} fallback edge(s) + {} opaque-method \
             fallback edge(s)):",
            stats.calls, stats.fallback_edges, stats.method_fallback_edges
        );
        for rung in specweb_lint::graph::RUNGS {
            let n = stats.per_rung.get(rung).copied().unwrap_or(0);
            println!("  {rung:<17} {n:>5}");
        }
        if let Some(counts) = &report.purity_counts {
            println!(
                "purity: {}",
                counts
                    .iter()
                    .map(|(k, v)| format!("{k} {v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        if let Some(counts) = &report.width_counts {
            println!(
                "width: {}",
                counts
                    .iter()
                    .map(|(k, v)| format!("{k} {v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        println!("lines per crate (code outside #[cfg(test)] and comments / test):");
        for (krate, n) in &report.loc {
            println!("  {krate:<10} {:>6} {:>6}", n.code, n.test);
        }
        println!(
            "fallback pairs pinned: {} (golden-tested ceiling; see results/callgraph.json)",
            stats.fallback_pairs.len()
        );
        for (from, to) in &stats.fallback_pairs {
            println!("  {from} -> {to}");
        }
        let per_rule = report.per_rule();
        println!("allows retired vs remaining (line-engine baseline -> now):");
        for (rule, (_, allowed)) in &per_rule {
            let baseline = rules::allow_baseline(rule);
            if baseline == 0 && *allowed == 0 {
                continue;
            }
            println!(
                "  {rule:<4} baseline {baseline:>2}  remaining {allowed:>2}  retired {:>2}",
                baseline.saturating_sub(*allowed)
            );
        }
    }

    println!(
        "specweb-lint: {} files, {} fn(s), {} violation(s), {} suppressed, {} unused allow(s)",
        report.files_scanned,
        analysis.graph.nodes.len(),
        report.violations.len(),
        report.allowed.len(),
        report.unused_allows.len()
    );

    let failed =
        !report.violations.is_empty() || (opts.deny_all && !report.unused_allows.is_empty());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
