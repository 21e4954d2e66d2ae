//! Width-engine tests: fixture-driven W-rule checks, the jobs
//! determinism gate for `widthflow.json`, the committed-artifact
//! staleness gate, and the pinned any-name fallback-edge ceiling.

use specweb_lint::{analyze_sources, analyze_workspace, render, Analysis, FileKind};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {path}: {e}"))
}

fn workspace_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// `results/widthflow.json` as `--write` would write it.
fn widthflow(a: &Analysis) -> String {
    render(&a.width.to_value(&a.graph))
}

fn analyze_fixture(name: &str) -> Analysis {
    analyze_sources(&[(
        "crates/core/src/widthfix.rs".to_string(),
        FileKind::Lib,
        fixture(name),
    )])
}

#[test]
fn tainted_multiply_is_w1_with_seed_chain() {
    let a = analyze_fixture("width_tainted_mul.rs");
    let w1: Vec<_> = a
        .report
        .violations
        .iter()
        .filter(|d| d.rule == "W1")
        .collect();
    assert_eq!(w1.len(), 1, "{:#?}", a.report.violations);
    assert!(w1[0].message.contains("scale seed"), "{}", w1[0].message);
    assert!(w1[0].message.contains("days"), "{}", w1[0].message);
}

#[test]
fn bound_checked_cast_is_clean_unbounded_is_w2() {
    let clean = analyze_fixture("width_bounded_cast.rs");
    assert!(
        clean.report.violations.is_empty(),
        "dominating bound check must silence W2: {:#?}",
        clean.report.violations
    );
    let dirty = analyze_fixture("width_unbounded_cast.rs");
    let w2: Vec<_> = dirty
        .report
        .violations
        .iter()
        .filter(|d| d.rule == "W2")
        .collect();
    assert_eq!(w2.len(), 1, "{:#?}", dirty.report.violations);
    assert!(w2[0].message.contains("duration_days"), "{}", w2[0].message);
}

#[test]
fn tainted_capacity_is_w3() {
    let a = analyze_fixture("width_tainted_capacity.rs");
    let w3: Vec<_> = a
        .report
        .violations
        .iter()
        .filter(|d| d.rule == "W3")
        .collect();
    assert_eq!(w3.len(), 1, "{:#?}", a.report.violations);
    assert!(w3[0].message.contains("n_clients"), "{}", w3[0].message);
}

#[test]
fn taint_crosses_the_call_into_a_helper() {
    let a = analyze_fixture("width_helper_chain.rs");
    let w1: Vec<_> = a
        .report
        .violations
        .iter()
        .filter(|d| d.rule == "W1")
        .collect();
    assert_eq!(w1.len(), 1, "{:#?}", a.report.violations);
    // The finding sits in the helper, with the evidence chain walking
    // back through the call argument to the seed in the caller.
    let msg = &w1[0].message;
    assert!(msg.contains('n'), "{msg}");
    assert!(msg.contains("arg"), "chain must cross the call: {msg}");
    assert!(msg.contains("sessions_per_day"), "{msg}");
    assert!(msg.contains("scale seed"), "{msg}");
}

/// The `(rule, line)` of every W violation in one in-memory file.
fn w_hits(src: &str) -> Vec<(String, usize)> {
    let file = "crates/core/src/widthfix.rs".to_string();
    let a = analyze_sources(&[(file, FileKind::Lib, src.to_string())]);
    let hits = a.report.violations.iter();
    hits.map(|d| (d.rule.clone(), d.line)).collect()
}

/// W1 knows that unit types saturate — and nothing wider than that.
#[test]
fn unit_typed_names_saturate_and_only_those() {
    // `u64` fields are what W1 is for.
    let raw = "\
pub struct TraceConfig { pub duration_days: u64, pub sessions_per_day: u64 }
pub fn total(cfg: &TraceConfig) -> u64 {
    cfg.duration_days * cfg.sessions_per_day
}
";
    assert_eq!(w_hits(raw), [("W1".to_string(), 3)]);

    // Declared `Bytes`: `+=` is the saturating impl. The raw `u64`
    // taken out of the unit is an integer again.
    let unit = "\
pub struct RunTotals { pub bytes_sent: Bytes }
pub fn add(totals: &mut RunTotals, size: Bytes, k: u64) -> u64 {
    totals.bytes_sent += size;
    totals.bytes_sent.get() * k
}
";
    assert_eq!(w_hits(unit), [("W1".to_string(), 4)]);

    // Declared both ways: the name alone no longer says which one an
    // operand is, so it stays checked. A struct literal's
    // `bytes_sent: Bytes::new(..)` is a value, not a declaration.
    let both = "\
pub struct RunTotals { pub bytes_sent: Bytes }
pub struct WireStats { pub bytes_sent: u64 }
pub fn add(totals: &mut RunTotals, wire: &WireStats) -> RunTotals {
    totals.bytes_sent += Bytes::new(wire.bytes_sent);
    RunTotals { bytes_sent: Bytes::new(0) }
}
";
    assert_eq!(w_hits(both), [("W1".to_string(), 4)]);
}

/// W3 knows that a `len()` is memory already spent — for W3 only, and
/// only while the name still means the length.
#[test]
fn len_is_a_safe_capacity_and_not_a_width_guard() {
    let src = "\
pub fn build(cfg: &Config) -> u32 {
    let v = filled(cfg.n_clients);
    let a: Vec<u64> = Vec::with_capacity(cfg.n_clients);
    let b: Vec<u64> = Vec::with_capacity(v.len());
    let n = v.len();
    let c = vec![0u64; n];
    let n = cfg.n_clients;
    let d = vec![0u64; n];
    v.len() as u32
}
";
    // `v` is tainted: its `len()` is fine as a capacity (lines 4, 6)
    // and still a W2 as a cast (line 9). Once `n` is bound again it no
    // longer names a length (line 8).
    let hits = [("W3", 3), ("W3", 8), ("W2", 9)];
    assert_eq!(
        w_hits(src),
        hits.map(|(rule, line)| (rule.to_string(), line))
    );
}

/// DESIGN §6a applied to the width artifact: `widthflow.json` for the
/// real workspace must be byte-identical whether the per-file pass ran
/// serially or on four workers.
#[test]
fn widthflow_json_is_byte_identical_across_jobs() {
    let root = workspace_root();
    let a1 = analyze_workspace(&root, 1).expect("serial analysis");
    let a4 = analyze_workspace(&root, 4).expect("parallel analysis");
    assert_eq!(
        widthflow(&a1),
        widthflow(&a4),
        "widthflow.json must not depend on --jobs"
    );
}

/// The committed artifact must match what the engine produces at HEAD —
/// the same drift gate CI applies, kept here so plain `cargo test`
/// catches a stale `results/widthflow.json` before CI does.
#[test]
fn committed_widthflow_matches_head() {
    let root = workspace_root();
    let committed = match std::fs::read_to_string(root.join("results/widthflow.json")) {
        Ok(s) => s,
        // A fresh checkout without results/ is not an error.
        Err(_) => return,
    };
    let a = analyze_workspace(&root, 1).expect("analysis");
    assert_eq!(
        committed,
        widthflow(&a),
        "results/widthflow.json is stale — regenerate with \
         `cargo run -p specweb-lint -- --write`"
    );
}

/// The any-name fallback edge set is pinned: resolver changes may
/// shrink it, never grow it past the audited ceiling. The pairs are
/// emitted into `callgraph.json` so a diff shows exactly which edge
/// appeared.
#[test]
fn fallback_pairs_stay_under_the_audited_ceiling() {
    let stats = analyze_workspace(&workspace_root(), 1)
        .expect("analysis")
        .stats;
    assert!(
        stats.fallback_pairs.len() <= 44,
        "any-name fallback edge list grew past the audited ceiling of 44: \
         {} pairs now — resolve the new edges or re-audit:\n{:#?}",
        stats.fallback_pairs.len(),
        stats.fallback_pairs
    );
    // Every pair is caller != callee and sorted/deduped.
    let mut sorted = stats.fallback_pairs.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted, stats.fallback_pairs, "pairs must be sorted+deduped");
}

/// The workspace itself is the last fixture: zero W findings and every
/// W allow in active use (the sweep this engine shipped with stays
/// swept).
#[test]
fn workspace_is_width_clean() {
    let root = workspace_root();
    let a = analyze_workspace(&root, 1).expect("analysis");
    let w: Vec<_> = a
        .report
        .violations
        .iter()
        .filter(|d| d.rule.starts_with('W'))
        .collect();
    assert!(w.is_empty(), "workspace must stay width-clean: {w:#?}");
    assert!(
        a.report.unused_allows.is_empty(),
        "{:#?}",
        a.report.unused_allows
    );
    let counts = a.width.counts(&a.graph);
    assert!(counts["tainted_fns"] > 0, "{counts:#?}");
    assert!(counts["arith_sites"] > 0, "{counts:#?}");
}
