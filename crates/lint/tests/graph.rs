//! Graph-rule tests: fixture-driven G-rule checks and the golden
//! determinism test for the serialized call graph.

use specweb_lint::{analyze_sources, analyze_workspace, purity, render, taint, FileKind};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {path}: {e}"))
}

fn workspace_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// A hash map that is only ever looked up needs no allow, even when
/// the lookup IS called from a root.
#[test]
fn lookup_only_hashmap_needs_no_allow_under_reachability() {
    let src = fixture("graph_lookup_only.rs");
    // The fn is reachable from a deterministic root.
    let files = vec![
        (
            "crates/dissem/src/profile.rs".to_string(),
            FileKind::Lib,
            src,
        ),
        (
            "crates/dissem/src/simulate.rs".to_string(),
            FileKind::Lib,
            "pub fn run(t: &std::collections::HashMap<u32, f64>) -> f64 {\n    \
             crate::profile::lookup(t, 7)\n}\n"
                .to_string(),
        ),
    ];
    let a = analyze_sources(&files);
    assert!(
        a.report.violations.is_empty(),
        "lookup-only map must pass without allows: {:#?}",
        a.report.violations
    );
    // Sanity: the root really is wired to the lookup.
    assert!(a.roots.contains(&"dissem::simulate::run".to_string()));
    assert!(a.graph.nodes["dissem::simulate::run"]
        .calls
        .contains("dissem::profile::lookup"));
}

/// A cross-function leak: the fixture's only HashMap line hides behind
/// a wrong lint:allow and the iteration never names the type — the
/// reachability analysis catches it with a root→site evidence chain.
#[test]
fn cross_function_hash_leak_is_caught_with_evidence_chain() {
    let src = fixture("graph_leak.rs");
    let files = vec![
        (
            "crates/dissem/src/profile.rs".to_string(),
            FileKind::Lib,
            src,
        ),
        (
            "crates/dissem/src/simulate.rs".to_string(),
            FileKind::Lib,
            "pub fn run(p: &Profile) -> Vec<u32> {\n    p.predict()\n}\n".to_string(),
        ),
    ];
    let a = analyze_sources(&files);
    let g1: Vec<_> = a
        .report
        .violations
        .iter()
        .filter(|d| d.rule == "G1")
        .collect();
    assert_eq!(g1.len(), 1, "{:#?}", a.report.violations);
    let msg = &g1[0].message;
    assert!(msg.contains("dissem::simulate::run"), "{msg}");
    assert!(msg.contains("dissem::profile::Profile::predict"), "{msg}");
    assert!(msg.contains(" -> "), "chain rendering: {msg}");
    assert!(msg.contains("crates/dissem/src/profile.rs:"), "{msg}");
    // The wrong allow on the declaration excuses nothing and is
    // reported as unused.
    assert_eq!(
        a.report.unused_allows.len(),
        1,
        "{:#?}",
        a.report.unused_allows
    );
}

#[test]
fn lock_order_cycle_fixture_is_g2() {
    let files = vec![(
        "crates/core/src/pair.rs".to_string(),
        FileKind::Lib,
        fixture("graph_lock_cycle.rs"),
    )];
    let a = analyze_sources(&files);
    let g2: Vec<_> = a
        .report
        .violations
        .iter()
        .filter(|d| d.rule == "G2")
        .collect();
    assert!(!g2.is_empty(), "{:#?}", a.report.violations);
    assert!(g2[0].message.contains("both orders"), "{}", g2[0].message);
}

#[test]
fn panic_in_hot_loop_is_g3_cold_panic_is_not() {
    let src = fixture("graph_panic.rs");
    let files = vec![
        ("crates/spec/src/util.rs".to_string(), FileKind::Lib, src),
        (
            "crates/spec/src/simulate.rs".to_string(),
            FileKind::Lib,
            "pub fn run(x: Option<u64>) -> u64 {\n    crate::util::hot_step(x)\n}\n".to_string(),
        ),
    ];
    let a = analyze_sources(&files);
    let g3: Vec<_> = a
        .report
        .violations
        .iter()
        .filter(|d| d.rule == "G3")
        .collect();
    assert_eq!(g3.len(), 1, "{:#?}", a.report.violations);
    assert!(g3[0].message.contains("hot_step"), "{}", g3[0].message);
    assert!(
        !g3.iter().any(|d| d.message.contains("cold_report")),
        "cold panic must not be G3: {:#?}",
        g3
    );
}

/// Golden determinism test (DESIGN §6a applied to the lint itself): the
/// serialized call graph of the real workspace must be byte-identical
/// whether the per-file pass ran serially or on four workers.
#[test]
fn callgraph_json_is_byte_identical_across_jobs() {
    let root = workspace_root();
    let a1 = analyze_workspace(&root, 1).expect("serial analysis");
    let a4 = analyze_workspace(&root, 4).expect("parallel analysis");
    for ((name, v1), (_, v4)) in a1.artifacts().iter().zip(&a4.artifacts()) {
        assert_eq!(render(v1), render(v4), "{name} must not depend on --jobs");
    }
    assert_eq!(a1.report.violations.len(), a4.report.violations.len());
    assert_eq!(a1.report.allowed.len(), a4.report.allowed.len());
}

/// The committed artifact must match what the engine produces at HEAD —
/// the same drift gate CI applies, kept here so plain `cargo test`
/// catches a stale `results/callgraph.json` before CI does.
#[test]
fn committed_callgraph_matches_head() {
    let root = workspace_root();
    let committed = match std::fs::read_to_string(root.join("results/callgraph.json")) {
        Ok(s) => s,
        // A fresh checkout without results/ is not an error.
        Err(_) => return,
    };
    let a = analyze_workspace(&root, 1).expect("analysis");
    let fresh = render(&a.graph.to_value(&a.roots, &a.hot_roots, &a.stats));
    assert_eq!(
        committed, fresh,
        "results/callgraph.json is stale — regenerate with \
         `cargo run -p specweb-lint -- --write`"
    );
}

/// Workspace purity spot-checks: the G4 contract fns really are
/// effect-free at HEAD, and a known process-exiting fn classifies as
/// effectful — so a regression in either direction fails loudly.
#[test]
fn workspace_purity_classification_holds() {
    let root = workspace_root();
    let a = analyze_workspace(&root, 1).expect("analysis");
    let class = &a.purity.class;
    for q in [
        "core::stats::StreamingStats::merge",
        "core::stats::Histogram::merge",
        "core::stats::ServiceTimeDist::merge",
        "serve::session::replay",
    ] {
        let p = class
            .get(q)
            .unwrap_or_else(|| panic!("{q} missing from purity map"));
        assert!(
            matches!(p, purity::Purity::Pure | purity::Purity::LocalMut),
            "{q} must be effect-free, got {p:?}"
        );
    }
    assert_eq!(
        class.get("bench::bin::figures::die"),
        Some(&purity::Purity::Effectful),
        "process::exit must classify as effectful"
    );
    let counts = a.purity.counts();
    assert!(counts["pure"] > 0 && counts["effectful"] > 0, "{counts:#?}");
}

/// Root resolution on the real workspace: the deterministic entry
/// points the ISSUE names must all be present.
#[test]
fn workspace_roots_resolve() {
    let root = workspace_root();
    let a = analyze_workspace(&root, 1).expect("analysis");
    for expected in [
        "dissem::simulate::DisseminationSim::run",
        "spec::simulate::SpecSim::run",
        "trace::generator::TraceGenerator::generate",
        "spec::deps::DepMatrix::closure",
        "spec::deps::DepMatrix::closure_jobs",
    ] {
        assert!(
            a.roots.iter().any(|r| r == expected),
            "missing root {expected}; roots = {:#?}",
            a.roots
        );
    }
    assert!(
        a.roots
            .iter()
            .filter(|r| r.starts_with("bench::exps::"))
            .count()
            >= 8,
        "bench::exps experiments must be roots: {:#?}",
        a.roots
    );
    assert!(
        a.roots
            .iter()
            .filter(|r| r.starts_with("dissem::alloc::"))
            .count()
            >= 5,
        "dissem::alloc fns must be roots: {:#?}",
        a.roots
    );
    // Hot roots are the strict subset G3 uses.
    assert!(a.hot_roots.len() < a.roots.len());
    assert!(a.hot_roots.iter().all(|h| a.roots.contains(h)));
    // Every row of the root table names a live fn.
    let (roots, hot_roots, unmatched) = taint::resolve_roots(&a.graph);
    assert_eq!((roots, hot_roots), (a.roots, a.hot_roots));
    assert!(unmatched.is_empty(), "{unmatched:#?}");
}

/// A root spec that matches no fn of the whole workspace is a
/// violation naming the spec — a rename must not quietly un-root a
/// simulator. An in-memory fixture set is not the whole workspace, so
/// the same graph raises nothing there.
#[test]
fn unmatched_root_spec_is_a_workspace_violation() {
    let src = "pub fn run() {}\npub fn baseline_replay() {}\n";
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unrooted_workspace");
    // A tree left by an earlier version of this test would add its roots.
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("crates/spec/src");
    std::fs::create_dir_all(&dir).expect("temp workspace");
    std::fs::write(dir.join("simulate.rs"), src).expect("temp workspace file");

    let a = analyze_workspace(&root, 1).expect("analysis");
    assert_eq!(a.roots, ["spec::simulate::run"]);
    let named = |rule: &str, spec: &str| {
        a.report
            .violations
            .iter()
            .any(|d| d.rule == rule && d.message.contains(&format!("root spec `{spec}`")))
    };
    // `baseline_totals` was renamed to `baseline_replay`: a hot row says
    // so under both rules it feeds.
    assert!(named("G1", "spec::simulate::baseline_totals"));
    assert!(named("G3", "spec::simulate::baseline_totals"));
    assert!(
        !named("G1", "spec::simulate::run"),
        "a matched spec is fine"
    );

    let files = [(
        "crates/spec/src/simulate.rs".to_string(),
        FileKind::Lib,
        src.to_string(),
    )];
    let fixture_run = analyze_sources(&files);
    assert_eq!(fixture_run.roots, a.roots);
    assert!(
        fixture_run.report.violations.is_empty(),
        "{:#?}",
        fixture_run.report.violations
    );
}
