//! Docs that name files, modules and flags are checked against the
//! tree (ROADMAP aim 4: "docs/artifacts that reference each other are
//! checked to exist"). `benchmark/README.md` is frozen with the
//! benchmark and is not read here.

use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The `` `spans` `` of a text, in order.
fn backticked(text: &str) -> Vec<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

/// The `--long-flags` of a text, in order.
fn flags(text: &str) -> Vec<&str> {
    let is_flag_char = |c: char| c.is_ascii_lowercase() || c == '-';
    let starts = text.match_indices("--").map(|(at, _)| at);
    let flag = |at: usize| {
        let rest = &text[at..];
        &rest[..rest.find(|c| !is_flag_char(c)).unwrap_or(rest.len())]
    };
    let boundary =
        |at: usize| !text[..at].ends_with(|c: char| is_flag_char(c) || c.is_alphanumeric());
    starts
        .filter(|&at| boundary(at))
        .map(flag)
        .filter(|f| f.len() > 2 && !f.ends_with('-'))
        .collect()
}

/// DESIGN §4 and the crates agree on what modules there are: every
/// `` - `name`: `` bullet under a `### crates/<c>` heading is a file or
/// directory of that crate (a bullet that names a path is left to
/// `backticked_paths_exist`), and every `pub mod` of its `lib.rs` is
/// named somewhere in its section.
#[test]
fn design_module_inventory_matches_the_crates() {
    let design = read("DESIGN.md");
    let inventory = design
        .split("\n## ")
        .find(|s| s.starts_with("4. Module inventory"))
        .expect("DESIGN §4");
    let mut problems: Vec<String> = Vec::new();
    let mut sections = 0;
    for section in inventory.split("\n### crates/").skip(1) {
        let section = section.split("\n### ").next().expect("non-empty split");
        sections += 1;
        let krate = section.split([' ', '\n']).next().expect("crate name");
        let dir = root().join("crates").join(krate);
        for line in section.lines().filter(|l| l.starts_with("- `")) {
            let name = backticked(line)[0];
            if !line.starts_with(&format!("- `{name}`:")) || name.contains('/') {
                continue;
            }
            let src = dir.join("src");
            if !src.join(format!("{name}.rs")).exists() && !src.join(name).is_dir() {
                problems.push(format!(
                    "§4 lists `{name}` under crates/{krate}: no such module"
                ));
            }
        }
        let named = backticked(section);
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        for module in lib.lines().filter_map(|l| l.strip_prefix("pub mod ")) {
            let module = module.trim_end_matches(';');
            if !named.contains(&module) {
                problems.push(format!(
                    "crates/{krate} has `pub mod {module}`: not in its §4 section"
                ));
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    assert_eq!(sections, 8, "crate sections in DESIGN §4");
}

/// Every backticked path into the tree exists. Globs, brace sets and
/// `<placeholders>` are skipped; a trailing `:line` is not part of the
/// path.
#[test]
fn backticked_paths_exist() {
    const TREES: [&str; 8] = [
        "crates/",
        "src/",
        "examples/",
        "scripts/",
        "tests/",
        "results/",
        "benchmark/",
        ".github/",
    ];
    let mut missing: Vec<String> = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = read(doc);
        for span in backticked(&text) {
            let pattern = span.contains(['*', '<', '{', '…', ' ', '\n']);
            if pattern || !TREES.iter().any(|t| span.starts_with(t)) {
                continue;
            }
            let path = span.split(':').next().expect("non-empty span");
            checked += 1;
            if !root().join(path).exists() {
                missing.push(format!("{doc}: `{span}`"));
            }
        }
    }
    assert!(
        checked > 40,
        "only {checked} paths found: wrong extraction?"
    );
    assert!(missing.is_empty(), "no such file:\n{}", missing.join("\n"));
}

/// Every `--flag` a paragraph writes after naming `specweb-lint` is one
/// the lint's usage text lists.
#[test]
fn lint_flags_in_docs_are_in_its_usage_text() {
    let main = read("crates/lint/src/main.rs");
    let usage = main
        .split("fn usage()")
        .nth(1)
        .and_then(|rest| rest.split("\n}\n").next())
        .expect("usage() in the lint's main.rs");
    let known = flags(usage);
    assert!(known.contains(&"--deny-all"), "{known:?}");
    let mut unknown: Vec<String> = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for paragraph in text.split("\n\n") {
            let Some((_, after)) = paragraph.split_once("specweb-lint") else {
                continue;
            };
            for flag in flags(after) {
                if !known.contains(&flag) {
                    unknown.push(format!("{doc}: `{flag}` (after `specweb-lint`)"));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "not a specweb-lint flag:\n{}",
        unknown.join("\n")
    );
}

/// Every CI job and step a doc names is one `.github/workflows/ci.yml`
/// defines: a backticked name right after "CI", "CI's" or "job", or
/// right before "job", is a job key, and a quoted name right before or
/// after "step" is a step's `name:`. ROADMAP is read too: its open items
/// name the steps they would change.
#[test]
fn ci_jobs_and_steps_named_in_docs_exist() {
    let ci = read(".github/workflows/ci.yml");
    let (_, job_section) = ci.split_once("\njobs:\n").expect("a jobs: section");
    let jobs: Vec<&str> = job_section
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.strip_suffix(':'))
        .filter(|key| !key.starts_with(' '))
        .collect();
    let steps: Vec<&str> = (ci.lines())
        .filter_map(|l| l.trim_start().strip_prefix("- name: "))
        .collect();
    assert!(jobs.contains(&"benchmark") && steps.contains(&"Harness self-tests"));

    fn backticked_word(w: &str) -> Option<&str> {
        let spans = backticked(w);
        (w.trim_start_matches('(').starts_with('`') && spans.len() == 1).then(|| spans[0])
    }
    let mut unknown: Vec<String> = Vec::new();
    let (mut job_refs, mut step_refs) = (0, 0);
    for doc in DOCS.iter().chain(&["ROADMAP.md"]) {
        let text = read(doc).split_whitespace().collect::<Vec<_>>().join(" ");
        let words: Vec<&str> = text.split(' ').collect();
        for w in words.windows(2) {
            let before = ["CI", "CI's", "job", "(job"].contains(&w[0]);
            let name = match (backticked_word(w[0]), backticked_word(w[1])) {
                (_, Some(name)) if before => name,
                (Some(name), _) if w[1].starts_with("job") && !w[1].starts_with("jobs") => name,
                _ => continue,
            };
            job_refs += 1;
            let problem = format!("{doc}: CI job `{name}`");
            // "CI `x` job" is one name, met from both sides.
            if !jobs.contains(&name) && unknown.last() != Some(&problem) {
                unknown.push(problem);
            }
        }
        let quoted_before = text.match_indices("\" step").map(|(at, _)| {
            let name_start = text[..at].rfind('"').map_or(at, |q| q + 1);
            &text[name_start..at]
        });
        let quoted_after = text.match_indices("step \"").map(|(at, m)| {
            let rest = &text[at + m.len()..];
            &rest[..rest.find('"').unwrap_or(0)]
        });
        for name in quoted_before.chain(quoted_after) {
            step_refs += 1;
            if !steps.contains(&name) {
                unknown.push(format!("{doc}: CI step \"{name}\""));
            }
        }
    }
    assert!(
        job_refs > 5 && step_refs > 0,
        "only {job_refs} job and {step_refs} step names found: wrong extraction?"
    );
    assert!(unknown.is_empty(), "not in ci.yml:\n{}", unknown.join("\n"));
}
