//! `specweb-lint` — a token-level static-analysis pass that mechanically
//! enforces the workspace's determinism & safety contract.
//!
//! # Why this exists
//!
//! The paper's evaluation rests on trace-driven simulation being
//! exactly repeatable, and `DESIGN.md` §6a promises byte-identical
//! output for any `--jobs` count. Two earlier PRs each shipped a fix
//! for a latent nondeterminism bug found only after it corrupted
//! results (a `partial_cmp` NaN sort; `HashMap` iteration order
//! breaking closure-truncation ties). Those invariants only hold when
//! checked mechanically — so this crate walks every workspace `.rs`
//! file and enforces the rules in [`rules::RULES`].
//!
//! # One engine
//!
//! The vendored-deps constraint rules out `syn`, so everything is built
//! on a small hand-rolled lexer ([`lexer`]) that strips comments and
//! blanks literal bodies. Every analysis — the workspace, an in-memory
//! fixture set, a single file — runs the same pipeline:
//!
//! * per file, the line rule over the sanitized code (D1 float
//!   comparators) and the extractor ([`extract`]), which recovers `fn`
//!   items, call sites and hazard sites from the same token stream;
//! * over all files, the call graph ([`graph`]) and the three analyses
//!   on it: reachability ([`taint`], G1–G3 — a nondeterminism source is
//!   only a violation when it is call-reachable from a deterministic
//!   root, so e.g. a lookup-only `HashMap` needs no allow), purity
//!   ([`purity`], G4–G5) and scale-taint width ([`width`], W1–W3).
//!   Every finding carries an evidence chain. See DESIGN §9.
//!
//! Every rule's hits go through one suppression path: a violation is
//! suppressible in place with `// lint:allow(<rule>): <reason>` — the
//! reason is mandatory, and an allow that stops matching anything is
//! reported so suppressions cannot silently outlive the code they
//! excused.
//!
//! Run it as `cargo run -p specweb-lint`; the `workspace_clean`
//! integration test runs the same analysis so `cargo test` gates it.

#![warn(missing_docs)]

pub mod extract;
pub mod graph;
pub mod lexer;
pub mod purity;
pub mod reach;
pub mod rules;
pub mod taint;
pub mod width;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Serialize, Value};
use serde_json::json;

/// Classification of a `.rs` file: whether the rules apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library, binary and example code: every rule applies. (A binary
    /// may seed from entropy or panic on bad input without an allow —
    /// no deterministic root reaches it, so G1/G3 never see it.)
    Lib,
    /// Integration tests and benches: exempt. Tests legitimately use
    /// wall clocks, unwrap, and ad-hoc threads; golden tests are what
    /// *detect* nondeterminism rather than what must avoid it.
    Test,
}

/// One confirmed violation.
#[derive(Debug, Clone)]
pub struct Diag {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, or `"allow"` for suppression-syntax errors.
    pub rule: String,
    /// Explanation.
    pub message: String,
    /// Trimmed source line for context.
    pub snippet: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    > {}",
            self.file, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// Line counts of one crate (or one file of it): non-blank lines that
/// carry code after the lexer stripped comments. ROADMAP aim 2 tracks
/// these per crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Loc {
    /// Lines of library/binary code outside `#[cfg(test)]` regions.
    pub code: usize,
    /// Lines inside `#[cfg(test)]`/`#[test]` regions and in test/bench
    /// targets.
    pub test: usize,
}

/// The crate a workspace-relative path belongs to: `crates/<name>/..`
/// is `<name>`, the root package's own targets are `specweb`, any other
/// top-level directory (e.g. `benchmark`) is named after itself.
fn crate_of(rel: &str) -> &str {
    let (top, rest) = rel.split_once('/').unwrap_or(("", rel));
    match top {
        "crates" => rest.split('/').next().unwrap_or(rest),
        "" | "src" | "tests" | "examples" => "specweb",
        _ => top,
    }
}

/// Outcome of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Hard violations (nonzero exit).
    pub violations: Vec<Diag>,
    /// Warnings: suppressions that no longer match any hit. Promoted to
    /// violations under `--deny-all`.
    pub unused_allows: Vec<Diag>,
    /// `(rule, file, line)` for every suppressed hit.
    pub allowed: Vec<(String, String, usize)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Line counts per crate (see [`Loc`]), keyed by crate name.
    pub loc: BTreeMap<String, Loc>,
}

impl Report {
    /// Fold another file's report into this one.
    fn merge(&mut self, other: Report) {
        self.violations.extend(other.violations);
        self.unused_allows.extend(other.unused_allows);
        self.allowed.extend(other.allowed);
        self.files_scanned += other.files_scanned;
        for (krate, n) in other.loc {
            let sum = self.loc.entry(krate).or_default();
            sum.code += n.code;
            sum.test += n.test;
        }
    }

    /// Per-rule `(violations, allowed)` counts, sorted by rule id.
    pub fn per_rule(&self) -> BTreeMap<String, (usize, usize)> {
        let mut m: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for r in rules::RULES {
            m.insert(r.id.to_string(), (0, 0));
        }
        for d in &self.violations {
            m.entry(d.rule.clone()).or_insert((0, 0)).0 += 1;
        }
        for (rule, _, _) in &self.allowed {
            m.entry(rule.clone()).or_insert((0, 0)).1 += 1;
        }
        m
    }
}

/// A full analysis: the lint report plus what the graph analyses
/// produced — everything the four `--write` artifacts are views of.
#[derive(Debug)]
pub struct Analysis {
    /// The report (every rule's findings, suppression applied).
    pub report: Report,
    /// The resolved workspace call graph.
    pub graph: graph::CallGraph,
    /// Deterministic roots found in the graph (qnames, sorted).
    pub roots: Vec<String>,
    /// Simulator hot-loop roots (G3), subset of `roots`.
    pub hot_roots: Vec<String>,
    /// Resolution-ladder telemetry from the graph build — the
    /// precision counters CI gates on.
    pub stats: graph::ResolutionStats,
    /// The interprocedural purity classification.
    pub purity: purity::PurityMap,
    /// The interprocedural scale-taint width analysis.
    pub width: width::WidthMap,
}

impl Analysis {
    /// The `lint_report.json` artifact: per-rule counts, lines per
    /// crate, and the counters of the three graph analyses.
    pub fn lint_report(&self) -> Value {
        let rule = |(id, (violations, allowed)): (String, (usize, usize))| {
            (id, json!({"violations": violations, "allowed": allowed}))
        };
        json!({
            "files_scanned": self.report.files_scanned,
            "rules": Value::Obj(self.report.per_rule().into_iter().map(rule).collect()),
            "loc": self.report.loc,
            "resolution": self.stats.to_value(),
            "purity": self.purity.counts(),
            "width": self.width.counts(&self.graph),
            "allows_remaining": self.report.allowed.len(),
            "unused_allows": self.report.unused_allows.len(),
        })
    }

    /// The four committed artifacts as `(file name, value)`, each built
    /// once; [`render`] is their one writer and `--write`'s table reads
    /// the same values.
    pub fn artifacts(&self) -> [(&'static str, Value); 4] {
        let callgraph = self
            .graph
            .to_value(&self.roots, &self.hot_roots, &self.stats);
        [
            ("callgraph.json", callgraph),
            ("purity.json", self.purity.to_value(&self.graph)),
            ("widthflow.json", self.width.to_value(&self.graph)),
            ("lint_report.json", self.lint_report()),
        ]
    }
}

/// The sections whose entries [`render`] writes one per line, so a PR's
/// artifact diff is one line per fn, finding or pinned edge.
const ROW_SECTIONS: &[&str] = &["nodes", "fns", "tainted", "findings", "fallback_pairs"];

/// Writes an artifact: one top-level key per line, and the entries of
/// the [`ROW_SECTIONS`] one per line under theirs.
pub fn render(artifact: &Value) -> String {
    let key = |k: &str| Value::Str(k.to_string());
    let section = |(k, v): &(String, Value)| {
        let (open, rows, close): (_, Vec<String>, _) = match v {
            Value::Obj(rows) if ROW_SECTIONS.contains(&k.as_str()) && !rows.is_empty() => {
                let row = |(rk, rv): &(String, Value)| format!("    {}: {rv}", key(rk));
                ('{', rows.iter().map(row).collect(), '}')
            }
            Value::Arr(rows) if ROW_SECTIONS.contains(&k.as_str()) && !rows.is_empty() => (
                '[',
                rows.iter().map(|rv| format!("    {rv}")).collect(),
                ']',
            ),
            _ => return format!("  {}: {v}", key(k)),
        };
        format!("  {}: {open}\n{}\n  {close}", key(k), rows.join(",\n"))
    };
    let sections: Vec<String> = artifact
        .as_object()
        .unwrap_or_default()
        .iter()
        .map(section)
        .collect();
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileKind {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.contains(&"tests") || parts.contains(&"benches") {
        FileKind::Test
    } else {
        FileKind::Lib
    }
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "results"];

/// Collect every `.rs` file under `root` in sorted order, skipping
/// vendored code, build output, and the lint fixtures (which are
/// deliberate violations).
pub fn collect_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            paths.push(entry.path());
        }
        paths.sort();
        for p in paths {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if p.is_dir() {
                if SKIP_DIRS.contains(&name) || name == "fixtures" {
                    continue;
                }
                stack.push(p);
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// A parsed `lint:allow` marker.
#[derive(Debug)]
struct Allow {
    line: usize,
    /// The line the marker excuses: its own line when it is a trailing
    /// comment, otherwise the next line containing code (intervening
    /// comment-only lines are skipped, so a marker may sit anywhere in
    /// a multi-line justification comment).
    covers: usize,
    rules: Vec<String>,
    used: bool,
}

/// Parse a comment channel for a suppression marker.
/// Returns `Ok(None)` when absent, `Ok(Some(ids))` for a well-formed
/// marker, `Err(why)` for a malformed one.
///
/// The marker must *start* the comment (after doc-comment sigils and
/// whitespace); prose that merely mentions the syntax mid-sentence is
/// not a suppression.
fn parse_allow(comment: &str) -> Result<Option<Vec<String>>, String> {
    let trimmed = comment.trim_start_matches(|c: char| c == '/' || c == '!' || c.is_whitespace());
    let Some(rest) = trimmed.strip_prefix("lint:allow") else {
        return Ok(None);
    };
    let Some(open) = rest.strip_prefix('(') else {
        return Err("lint:allow must be written `lint:allow(<rule>): <reason>`".into());
    };
    let Some(close) = open.find(')') else {
        return Err("lint:allow is missing a closing `)`".into());
    };
    let ids: Vec<String> = open[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if ids.is_empty() {
        return Err("lint:allow names no rule".into());
    }
    for id in &ids {
        if !rules::is_known_rule(id) {
            return Err(format!("lint:allow names unknown rule `{id}`"));
        }
    }
    let after = &open[close + 1..];
    let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return Err(
            "lint:allow requires a non-empty reason: `lint:allow(<rule>): <reason>`".into(),
        );
    }
    Ok(Some(ids))
}

/// Mark the `#[cfg(test)]` / `#[test]` / `#[bench]` regions of a file:
/// from the attribute through the close of the item that follows.
fn test_regions(lines: &[lexer::Line]) -> Vec<bool> {
    let mut skip = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let c = &lines[i].code;
        let is_test_attr = (c.contains("cfg(test)") && !c.contains("not(test)"))
            || c.contains("#[test]")
            || c.contains("#[bench]");
        if !is_test_attr {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut started = false;
        let mut j = i;
        while j < lines.len() {
            skip[j] = true;
            for ch in lines[j].code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => depth -= 1,
                    ';' if !started => {
                        // `#[cfg(test)] mod tests;` / attributed item
                        // without a body: the region ends here.
                        started = true;
                        depth = 0;
                    }
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    skip
}

/// Per-file intermediate result: everything a worker can compute
/// without seeing other files. Pure function of `(rel, kind, src)`, so
/// the parallel workspace pass is deterministic by construction.
#[derive(Debug)]
struct FilePass {
    rel: String,
    /// Malformed-allow diagnostics (always violations).
    malformed: Vec<Diag>,
    allows: Vec<Allow>,
    /// Line-rule hits, in line order.
    line_hits: Vec<rules::Hit>,
    /// Trimmed raw source lines, for diagnostics.
    snippets: Vec<String>,
    /// This file's line counts.
    loc: Loc,
    /// Extraction result (non-test files).
    extract: Option<extract::FileExtract>,
}

/// Run the lexer, allow collection, line rules, and the extractor over
/// one file.
fn file_pass(rel: &str, kind: FileKind, src: &str) -> FilePass {
    let snippets: Vec<String> = src.lines().map(|s| s.trim().to_string()).collect();
    let mut pass = FilePass {
        rel: rel.to_string(),
        malformed: Vec::new(),
        allows: Vec::new(),
        line_hits: Vec::new(),
        snippets,
        loc: Loc::default(),
        extract: None,
    };
    let lines = lexer::sanitize(src);
    let skip = if kind == FileKind::Test {
        vec![true; lines.len()]
    } else {
        test_regions(&lines)
    };
    let carrying_code = |test: bool| {
        let counted = |(l, &t): &(&lexer::Line, &bool)| t == test && !l.code.trim().is_empty();
        lines.iter().zip(&skip).filter(counted).count()
    };
    pass.loc = Loc {
        code: carrying_code(false),
        test: carrying_code(true),
    };
    if kind == FileKind::Test {
        return pass;
    }

    for (idx, line) in lines.iter().enumerate() {
        if skip[idx] {
            continue;
        }
        match parse_allow(&line.comment) {
            Ok(None) => {}
            Ok(Some(ids)) => {
                let covers = if line.code.trim().is_empty() {
                    // Comment-only line: the marker excuses the next
                    // line that carries code.
                    (idx + 1..lines.len())
                        .find(|&j| !lines[j].code.trim().is_empty())
                        .unwrap_or(idx)
                } else {
                    idx
                };
                pass.allows.push(Allow {
                    line: idx,
                    covers,
                    rules: ids,
                    used: false,
                });
            }
            Err(why) => pass.malformed.push(Diag {
                file: rel.to_string(),
                line: idx + 1,
                rule: "allow".into(),
                message: why,
                snippet: pass.snippets.get(idx).cloned().unwrap_or_default(),
            }),
        }
        pass.line_hits
            .extend(rules::check_line(rel, idx + 1, &line.code));
    }

    pass.extract = Some(extract::extract(rel, &lines, &skip));
    pass
}

/// Apply suppression to a file's hits — every rule's, line rules first
/// — and emit its final report slice.
fn finish_file(mut pass: FilePass, hits: &[rules::Hit]) -> Report {
    let mut report = Report {
        files_scanned: 1,
        loc: BTreeMap::from([(crate_of(&pass.rel).to_string(), pass.loc)]),
        ..Report::default()
    };
    report.violations.append(&mut pass.malformed);
    let snippet = |idx: usize| pass.snippets.get(idx).cloned().unwrap_or_default();

    for h in hits {
        let idx = h.line.saturating_sub(1);
        let covered = pass
            .allows
            .iter_mut()
            .find(|a| a.covers == idx && a.rules.iter().any(|r| r == h.rule));
        match covered {
            Some(a) => {
                a.used = true;
                report
                    .allowed
                    .push((h.rule.to_string(), pass.rel.clone(), h.line));
            }
            None => report.violations.push(Diag {
                file: pass.rel.clone(),
                line: h.line,
                rule: h.rule.to_string(),
                message: h.message.clone(),
                snippet: snippet(idx),
            }),
        }
    }

    for a in pass.allows.iter().filter(|a| !a.used) {
        report.unused_allows.push(Diag {
            file: pass.rel.clone(),
            line: a.line + 1,
            rule: "allow".into(),
            message: format!(
                "unused lint:allow({}) — the code it excused is gone; remove it",
                a.rules.join(",")
            ),
            snippet: snippet(a.line),
        });
    }
    report
}

/// Lint one file's source text: [`analyze_sources`] on a one-file set.
/// `rel` is the workspace-relative path (forward slashes) — it decides
/// the module path, so a fixture placed under a root module (see
/// [`taint`]) is reachable by construction; `kind` usually comes from
/// [`classify`].
pub fn lint_source(rel: &str, kind: FileKind, src: &str) -> Report {
    analyze_sources(&[(rel.to_string(), kind, src.to_string())]).report
}

/// Run the analysis over an in-memory file set (fixture tests). Files
/// are `(rel, kind, src)`. Root specs the set does not contain are not
/// reported: a fixture is by definition not the whole workspace.
pub fn analyze_sources(files: &[(String, FileKind, String)]) -> Analysis {
    let passes: Vec<FilePass> = files
        .iter()
        .map(|(rel, kind, src)| file_pass(rel, *kind, src))
        .collect();
    finish_analysis(passes, &graph::CrateDeps::permissive()).0
}

/// Read the workspace crate-dependency DAG from `crates/*/Cargo.toml`
/// (intra-workspace `specweb-*` dependencies only), for pruning
/// infeasible cross-crate call edges. A root that has no `crates/`
/// directory yields an empty (permissive) DAG.
pub fn load_crate_deps(root: &Path) -> graph::CrateDeps {
    let mut pairs: Vec<(String, String)> = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return graph::CrateDeps::permissive();
    };
    let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    dirs.sort();
    for dir in dirs {
        let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        // The dep crate name (`specweb-spec`) maps to the qname crate
        // segment (`spec`) — crate directories and package suffixes
        // agree by workspace convention.
        pairs.push((name.to_string(), name.to_string()));
        for line in manifest.lines() {
            let t = line.trim();
            if let Some(rest) = t.strip_prefix("specweb-") {
                let dep: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !dep.is_empty() && dep != name {
                    pairs.push((name.to_string(), dep));
                }
            }
        }
    }
    graph::CrateDeps::from_pairs(&pairs)
}

/// Shared tail of the workspace / in-memory analyses: build the graph,
/// run the graph rules, apply suppression per file. Also returns the
/// root specs that matched no fn, as ready diagnostics.
fn finish_analysis(mut passes: Vec<FilePass>, deps: &graph::CrateDeps) -> (Analysis, Vec<Diag>) {
    let extracts: Vec<extract::FileExtract> =
        passes.iter().filter_map(|p| p.extract.clone()).collect();
    let (g, stats) = graph::CallGraph::build(&extracts, deps);
    let (roots, hot_roots, unmatched_roots) = taint::resolve_roots(&g);
    let pm = purity::PurityMap::compute(&g);
    let wm = width::WidthMap::compute(&g);
    let mut hits: Vec<rules::Hit> = Vec::new();
    for pass in &mut passes {
        hits.append(&mut pass.line_hits);
    }
    hits.extend(taint::check_reachability(&g, &roots, &hot_roots));
    hits.extend(taint::check_lock_order(&g));
    hits.extend(purity::check_effect_free(&g, &pm));
    hits.extend(purity::check_par_purity(&g, &pm));
    hits.extend(wm.findings.iter().cloned());

    let mut by_file: BTreeMap<String, Vec<rules::Hit>> = BTreeMap::new();
    for h in hits {
        by_file.entry(h.file.clone()).or_default().push(h);
    }

    let mut report = Report::default();
    for pass in passes {
        let hits = by_file.remove(&pass.rel).unwrap_or_default();
        report.merge(finish_file(pass, &hits));
    }
    let analysis = Analysis {
        report,
        graph: g,
        roots,
        hot_roots,
        stats,
        purity: pm,
        width: wm,
    };
    (analysis, unmatched_roots)
}

/// Run the analysis over every `.rs` file under `root`, fanning the
/// per-file pass over `jobs` workers. The per-file stage is a pure
/// function and results are merged in sorted file order, so the output
/// — including the serialized call graph — is byte-identical for any
/// `jobs` count (golden-tested). A root spec that matches no fn of the
/// whole workspace is a violation (see [`taint::resolve_roots`]).
pub fn analyze_workspace(root: &Path, jobs: usize) -> Result<Analysis, String> {
    let mut inputs: Vec<(String, FileKind, String)> = Vec::new();
    for path in collect_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let kind = classify(&rel);
        inputs.push((rel, kind, src));
    }
    let pool = specweb_core::par::Pool::new(jobs);
    let passes = pool.map_indexed(&inputs, |_, (rel, kind, src)| file_pass(rel, *kind, src));
    let (mut analysis, unmatched_roots) = finish_analysis(passes, &load_crate_deps(root));
    analysis.report.violations.extend(unmatched_roots);
    Ok(analysis)
}

/// Lint every `.rs` file under `root` (serial). Kept as the stable
/// entry point for the tier-1 gate.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    analyze_workspace(root, 1).map(|a| a.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path no root spec matches: only the line rules can fire.
    const COLD: &str = "crates/x/src/lib.rs";
    /// `serve::conn` — every fn in it is a deterministic and hot root.
    const HOT: &str = "crates/serve/src/conn.rs";

    #[test]
    fn classify_kinds() {
        assert_eq!(classify("crates/core/src/stats.rs"), FileKind::Lib);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
        assert_eq!(classify("src/bin/specweb.rs"), FileKind::Lib);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Lib);
        assert_eq!(
            classify("crates/serve/tests/degradation.rs"),
            FileKind::Test
        );
        assert_eq!(classify("crates/lint/benches/x.rs"), FileKind::Test);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "\
pub fn step(x: Option<u32>) -> u32 { x.unwrap() }

#[cfg(test)]
mod tests {
    use std::time::Instant;
    #[test]
    fn t() {
        let _ = Instant::now();
        let _ = a.partial_cmp(&b);
        let _ = m.get(&1).unwrap();
    }
}
";
        let r = lint_source(HOT, FileKind::Lib, src);
        // Only the top-level unwrap is flagged.
        assert_eq!(r.violations.len(), 1, "{:#?}", r.violations);
        assert_eq!(r.violations[0].rule, "G3");
        assert_eq!(r.violations[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }\n";
        let r = lint_source(HOT, FileKind::Lib, src);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "G3");
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = "let o = a.partial_cmp(&b); // lint:allow(D1): NaN is filtered upstream\n";
        let r = lint_source(COLD, FileKind::Lib, src);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
        assert_eq!(r.allowed.len(), 1);
        assert_eq!(r.allowed[0].0, "D1");
    }

    #[test]
    fn allow_on_preceding_line_suppresses() {
        let src = "// lint:allow(G3): invariant: key inserted two lines up\nfn f() { let v = m.get(&k).unwrap(); }\n";
        let r = lint_source(HOT, FileKind::Lib, src);
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
        assert_eq!(r.allowed.len(), 1);
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "let o = a.partial_cmp(&b); // lint:allow(D1)\n";
        let r = lint_source(COLD, FileKind::Lib, src);
        assert!(r.violations.iter().any(|d| d.rule == "allow"));
        // The malformed allow does not suppress the underlying hit.
        assert!(r.violations.iter().any(|d| d.rule == "D1"));
    }

    #[test]
    fn allow_unknown_rule_is_a_violation() {
        let src = "let x = 1; // lint:allow(D9): no such rule\n";
        let r = lint_source(COLD, FileKind::Lib, src);
        assert!(r.violations.iter().any(|d| d.rule == "allow"));
        // The retired line-rule ids are unknown now, too.
        let src = "let x = 1; // lint:allow(D2): side table, never iterated\n";
        let r = lint_source(COLD, FileKind::Lib, src);
        assert!(r.violations.iter().any(|d| d.rule == "allow"));
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "let x = 1; // lint:allow(D1): stale excuse\n";
        let r = lint_source(COLD, FileKind::Lib, src);
        assert!(r.violations.is_empty());
        assert_eq!(r.unused_allows.len(), 1);
    }

    #[test]
    fn json_summary_shape() {
        let a = analyze_sources(&[(
            COLD.to_string(),
            FileKind::Lib,
            "fn f() { let o = a.partial_cmp(&b); } // lint:allow(D1): NaN is filtered upstream\n"
                .to_string(),
        )]);
        let v = a.lint_report();
        assert_eq!(v["files_scanned"], 1);
        assert_eq!(v["rules"]["D1"], json!({"violations": 0, "allowed": 1}));
        assert_eq!(v["rules"]["G1"], json!({"violations": 0, "allowed": 0}));
        assert_eq!(v["allows_remaining"], 1);
        assert_eq!(v["unused_allows"], 0);
        assert_eq!(v["loc"], json!({"x": {"code": 1, "test": 0}}));
        // A one-file run is a full analysis: the graph sections are
        // always there.
        assert_eq!(v["resolution"]["calls"], 1);
        assert_eq!(
            v["purity"],
            json!({"effect_exempt": 0, "effectful": 0, "local_mut": 0, "pure": 1})
        );
        assert_eq!(v["width"]["arith_sites"], 0);
    }

    #[test]
    fn render_puts_row_sections_one_entry_per_line_and_parses_back() {
        let a = analyze_sources(&[(
            COLD.to_string(),
            FileKind::Lib,
            "fn f() { g(); }\nfn g() { println!(\"a \\\"quoted\\\" word\"); }\n".to_string(),
        )]);
        for (name, value) in a.artifacts() {
            let text = render(&value);
            assert_eq!(serde_json::parse(&text).expect(name), value, "{name}");
        }
        let [(_, callgraph), (_, purity), ..] = a.artifacts();
        let text = render(&callgraph);
        assert!(text.starts_with("{\n  \"schema\": \"specweb-callgraph/v2\",\n"));
        assert!(text.contains("\n    \"x::f\": {\"file\":"), "{text}");
        assert!(text.contains("},\n    \"x::g\": {\"file\":"), "{text}");
        assert!(text.contains("\n  \"fallback_pairs\": [],\n"), "{text}");
        assert!(render(&purity).contains("\n    \"x::g\": {\"class\":\"effectful\","));
    }

    #[test]
    fn line_counts_split_code_from_test_and_skip_comments() {
        let src = "\
//! Docs are not code.
pub fn f() -> u32 {
    // nor is this

    1 /* but this line is */
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        let lib = lint_source("crates/x/src/lib.rs", FileKind::Lib, src);
        assert_eq!(lib.loc["x"], Loc { code: 3, test: 5 });
        // A test target is test code throughout; the root package's
        // targets are counted under its own name.
        let it = lint_source("tests/pipeline.rs", FileKind::Test, src);
        assert_eq!(it.loc["specweb"], Loc { code: 0, test: 8 });
        assert_eq!(crate_of("benchmark/benches/main.rs"), "benchmark");
        assert_eq!(crate_of("crates/serve/src/bin/specweb-serve.rs"), "serve");
    }

    #[test]
    fn hybrid_analysis_accepts_lookup_only_hashmap_without_allow() {
        // The map is never iterated on any path from a root, so the
        // file is accepted as-is.
        let files = vec![
            (
                "crates/dissem/src/simulate.rs".to_string(),
                FileKind::Lib,
                "pub fn run(t: &T) -> u32 { lookup(t) }\n".to_string(),
            ),
            (
                "crates/dissem/src/lib.rs".to_string(),
                FileKind::Lib,
                "pub fn lookup(t: &T) -> u32 {\n    let m: HashMap<u32, u32> = t.map();\n    *m.get(&1).unwrap_or(&0)\n}\n"
                    .to_string(),
            ),
        ];
        let a = analyze_sources(&files);
        assert!(a.report.violations.is_empty(), "{:#?}", a.report.violations);
        assert_eq!(a.roots, ["dissem::simulate::run"]);
    }

    #[test]
    fn graph_hits_respect_allows() {
        let files = vec![(
            "crates/dissem/src/simulate.rs".to_string(),
            FileKind::Lib,
            "pub fn run(m: &HashMap<u32, u32>) -> Vec<u32> {\n    \
             // lint:allow(G1): keys are collected and sorted before use\n    \
             let mut v: Vec<u32> = m.keys().copied().collect();\n    v.sort();\n    v\n}\n"
                .to_string(),
        )];
        let a = analyze_sources(&files);
        assert!(a.report.violations.is_empty(), "{:#?}", a.report.violations);
        assert_eq!(a.report.allowed.len(), 1);
        assert_eq!(a.report.allowed[0].0, "G1");
        assert!(a.report.unused_allows.is_empty());
    }
}
