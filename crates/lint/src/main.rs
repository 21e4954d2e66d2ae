//! CLI for the determinism & safety lint pass.
//!
//! ```text
//! cargo run -p specweb-lint                  # lint the workspace
//! cargo run -p specweb-lint -- --deny-all    # also fail on unused allows (CI mode)
//! cargo run -p specweb-lint -- --write       # write the four results/ artifacts
//! cargo run -p specweb-lint -- --jobs 4      # parallel per-file pass
//! cargo run -p specweb-lint -- --list-rules  # print the rule table
//! ```
//!
//! Exit code 0 when clean, 1 on violations (or, under `--deny-all`,
//! unused suppressions), 2 on usage/I-O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;
use specweb_lint::{analyze_workspace, render, rules};

struct Options {
    root: PathBuf,
    deny_all: bool,
    write: bool,
    jobs: usize,
    list_rules: bool,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: specweb-lint [--root PATH] [--deny-all] [--write] [--jobs N] [--list-rules] \
     [--quiet]\n\
     \n\
     --root PATH    workspace root to lint (default: this workspace)\n\
     --deny-all     treat unused lint:allow suppressions as errors (CI mode)\n\
     --write        write <root>/results/{callgraph,purity,widthflow,lint_report}.json\n\
     \x20              and print their counters as a table\n\
     --jobs N       fan the per-file pass over N workers (output is byte-identical\n\
     \x20              for any N; default 1)\n\
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
        write: false,
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
            "--write" => opts.write = true,
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

/// Prints the `--write` table by walking the values just written, so
/// the table and the artifacts cannot disagree.
fn print_table(callgraph: &Value, report: &Value) {
    fn entries(v: &Value) -> &[(String, Value)] {
        v.as_object().unwrap_or_default()
    }
    let num = |v: &Value| v.as_u64().unwrap_or_default();
    let res = &report["resolution"];
    println!(
        "resolution ladder ({} call sites; {} fallback edge(s) + {} opaque-method \
         fallback edge(s)):",
        res["calls"], res["fallback_edges"], res["method_fallback_edges"]
    );
    for (rung, n) in entries(&res["rungs"]) {
        println!("  {rung:<17} {:>5}", num(n));
    }
    for label in ["purity", "width"] {
        let count = |(k, v): &(String, Value)| format!("{k} {v}");
        let counts: Vec<String> = entries(&report[label]).iter().map(count).collect();
        println!("{label}: {}", counts.join(", "));
    }
    println!("lines per crate (code outside #[cfg(test)] and comments / test):");
    for (krate, n) in entries(&report["loc"]) {
        println!(
            "  {krate:<10} {:>6} {:>6}",
            num(&n["code"]),
            num(&n["test"])
        );
    }
    let pairs = callgraph["fallback_pairs"].as_array().unwrap_or_default();
    println!(
        "fallback pairs pinned: {} (golden-tested ceiling; see results/callgraph.json)",
        pairs.len()
    );
    for pair in pairs {
        let (from, to) = (pair["from"].as_str(), pair["to"].as_str());
        println!("  {} -> {}", from.unwrap_or("?"), to.unwrap_or("?"));
    }
    println!("allows in use, per rule:");
    for (rule, counts) in entries(&report["rules"]) {
        if counts["allowed"] != 0 {
            println!("  {rule:<4} {:>2}", num(&counts["allowed"]));
        }
    }
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

    if opts.write {
        let artifacts = analysis.artifacts();
        let results = opts.root.join("results");
        for (name, value) in &artifacts {
            let out = results.join(name);
            let written = std::fs::create_dir_all(&results)
                .and_then(|()| std::fs::write(&out, render(value)));
            if let Err(e) = written {
                eprintln!("specweb-lint: write {}: {e}", out.display());
                return ExitCode::from(2);
            }
            println!("wrote {}", out.display());
        }
        let [(_, callgraph), _, _, (_, lint_report)] = &artifacts;
        print_table(callgraph, lint_report);
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
