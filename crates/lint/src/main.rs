//! CLI for the determinism & safety lint pass.
//!
//! ```text
//! cargo run -p specweb-lint                  # lint the workspace
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

    // The four artifacts, each behind its flag.
    let graph = &analysis.graph;
    let callgraph = || graph.to_json(&analysis.roots, &analysis.hot_roots, &analysis.stats);
    let purity = || analysis.purity.to_json(graph);
    let widthflow = || analysis.width.to_json(graph);
    let lint_report = || report.to_json();
    let artifacts: [(bool, &str, &dyn Fn() -> String); 4] = [
        (opts.graph, "callgraph.json", &callgraph),
        (opts.purity, "purity.json", &purity),
        (opts.width, "widthflow.json", &widthflow),
        (opts.stats, "lint_report.json", &lint_report),
    ];
    let results = opts.root.join("results");
    for (_, name, json) in artifacts.iter().filter(|(wanted, ..)| *wanted) {
        let out = results.join(name);
        let written = std::fs::create_dir_all(&results).and_then(|()| std::fs::write(&out, json()));
        if let Err(e) = written {
            eprintln!("specweb-lint: write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", out.display());
    }

    if opts.stats {
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
        for (label, counts) in [
            ("purity", &report.purity_counts),
            ("width", &report.width_counts),
        ] {
            let counts: Vec<String> = counts.iter().map(|(k, v)| format!("{k} {v}")).collect();
            println!("{label}: {}", counts.join(", "));
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
        println!("allows in use, per rule:");
        for (rule, (_, allowed)) in report.per_rule() {
            if allowed > 0 {
                println!("  {rule:<4} {allowed:>2}");
            }
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
