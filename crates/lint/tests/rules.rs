//! Fixture-driven rule tests: each file under `tests/fixtures/` is a
//! minimal Rust source exercising one rule (or one suppression
//! behavior). Fixtures are plain text to the lint — they are never
//! compiled — and the workspace walker skips any `fixtures/` directory,
//! so the deliberate violations below cannot fail the tree-wide gate.

use specweb_lint::{analyze_sources, lint_source, FileKind, Report};

/// Reads a fixture.
fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {path}: {e}"))
}

/// Lints a fixture as the one file at `rel`. The path decides its
/// module, so placing it under a root module (`taint::ROOTS`) makes
/// every fn in it a root.
fn lint_fixture(name: &str, rel: &str) -> Report {
    lint_source(rel, FileKind::Lib, &fixture(name))
}

/// The sorted rule ids of a report's violations.
fn rules_of(report: &Report) -> Vec<String> {
    let mut v: Vec<String> = report.violations.iter().map(|d| d.rule.clone()).collect();
    v.sort();
    v
}

/// Lints `name` as ordinary library code no root reaches
/// (`crates/demo/src/lib.rs`).
fn as_lib(name: &str) -> Report {
    lint_fixture(name, "crates/demo/src/lib.rs")
}

/// Lints `name` as `dissem::alloc`, where every fn is a deterministic
/// root (G1) but not a hot one.
fn as_root(name: &str) -> Report {
    lint_fixture(name, "crates/dissem/src/alloc.rs")
}

/// Lints `name` as `serve::conn`, where every fn is a deterministic
/// *and* hot root (G1 + G3). The serve crate may own threads, so the
/// thread-spawn source class is exempt here.
fn as_hot_root(name: &str) -> Report {
    lint_fixture(name, "crates/serve/src/conn.rs")
}

/// Lints `name` as a binary target's file.
fn as_bin(name: &str) -> Report {
    lint_fixture(name, "crates/demo/src/bin/cli.rs")
}

const CLEAN: [&str; 0] = [];

#[test]
fn d1_flags_partial_cmp_comparator() {
    assert_eq!(rules_of(&as_lib("d1_bad.rs")), ["D1"]);
}

#[test]
fn d1_accepts_total_cmp_and_partial_ord_impls() {
    assert_eq!(rules_of(&as_lib("d1_good.rs")), CLEAN);
}

#[test]
fn d2_flags_hash_collections() {
    // The iteration under a root is the violation; naming, building
    // and filling the map are not, and neither is the same iteration
    // where no root reaches it.
    let r = as_root("d2_bad.rs");
    assert_eq!(rules_of(&r), ["G1"]);
    assert!(r.violations[0].message.contains("hash_iter source `out`"));
    assert_eq!(r.violations[0].line, 12);
    assert_eq!(rules_of(&as_lib("d2_bad.rs")), CLEAN);
}

#[test]
fn d2_ignores_btreemap_and_literals() {
    // `HashMap` inside comments and string literals must not make the
    // iterated BTreeMap look hash-typed.
    assert_eq!(rules_of(&as_root("d2_good.rs")), CLEAN);
}

#[test]
fn d3_flags_wall_clock_outside_obs() {
    // Only the `Instant::now()` call trips — naming the type is fine.
    let r = as_root("d3_bad.rs");
    assert_eq!(rules_of(&r), ["G1"]);
    assert!(r.violations[0].message.contains("wall_clock source"));
}

#[test]
fn d3_exempts_the_obs_wall_modules() {
    // `core::obs::profile` is a root module *and* under the obs wall
    // channel: reachable, yet sanctioned.
    let r = lint_fixture("d3_bad.rs", "crates/core/src/obs/profile.rs");
    assert_eq!(rules_of(&r), CLEAN);
}

#[test]
fn d4_flags_unseeded_rng_in_lib() {
    let r = as_root("d4_bad.rs");
    assert_eq!(rules_of(&r), ["G1"]);
    assert!(r.violations[0].message.contains("unseeded_rng source"));
}

#[test]
fn d4_relaxed_for_bin_targets() {
    // A CLI may seed from entropy: no deterministic root reaches a bin.
    assert_eq!(rules_of(&as_bin("d4_bad.rs")), CLEAN);
}

#[test]
fn d5_flags_adhoc_threads() {
    let r = as_root("d5_bad.rs");
    assert_eq!(rules_of(&r), ["G1"]);
    assert!(r.violations[0].message.contains("thread_spawn source"));
}

#[test]
fn d5_exempts_the_serve_crate() {
    // `serve::conn` is a root module: reachable, yet a sanctioned
    // thread owner.
    assert_eq!(rules_of(&as_hot_root("d5_bad.rs")), CLEAN);
}

#[test]
fn thread_exemption_covers_core_par_reached_from_a_root() {
    // `core::par` is no root itself; a root calls into it. The same
    // spawn one module over is a G1 violation with the call chain.
    let reached_at = |rel: &str, module: &str| {
        analyze_sources(&[
            (rel.to_string(), FileKind::Lib, fixture("d5_bad.rs")),
            (
                "crates/dissem/src/alloc.rs".to_string(),
                FileKind::Lib,
                format!("pub fn optimize() {{ specweb_core::{module}::fan_out(); }}\n"),
            ),
        ])
        .report
    };
    assert_eq!(
        rules_of(&reached_at("crates/core/src/par.rs", "par")),
        CLEAN
    );
    let r = reached_at("crates/core/src/pool.rs", "pool");
    assert_eq!(rules_of(&r), ["G1"]);
    let msg = &r.violations[0].message;
    assert!(
        msg.contains("dissem::alloc::optimize [") && msg.contains("-> core::pool::fan_out ["),
        "{msg}"
    );
}

#[test]
fn s2_flags_unwrap_and_expect_in_lib() {
    // Under a hot root both extractors are G3; in a cold path neither.
    assert_eq!(rules_of(&as_hot_root("s2_bad.rs")), ["G3", "G3"]);
    assert_eq!(rules_of(&as_root("s2_bad.rs")), CLEAN);
    assert_eq!(rules_of(&as_lib("s2_bad.rs")), CLEAN);
}

#[test]
fn s2_relaxed_for_bin_targets() {
    // A CLI may panic on bad input: no hot root reaches a bin.
    assert_eq!(rules_of(&as_bin("s2_bad.rs")), CLEAN);
}

#[test]
fn well_formed_allows_suppress_and_are_counted() {
    let r = as_lib("allow_good.rs");
    assert_eq!(rules_of(&r), CLEAN, "{:#?}", r.violations);
    assert_eq!(r.unused_allows.len(), 0, "{:#?}", r.unused_allows);
    let suppressed: Vec<&str> = r.allowed.iter().map(|(rule, _, _)| rule.as_str()).collect();
    assert_eq!(suppressed, ["D1", "D1"]);
}

#[test]
fn malformed_allows_are_violations_and_do_not_suppress() {
    let r = as_lib("allow_bad.rs");
    // Empty reason + unknown rule each produce an `allow` diagnostic,
    // and the underlying D1 hits survive because neither allow is valid.
    assert_eq!(rules_of(&r), ["D1", "D1", "allow", "allow"]);
}

#[test]
fn stale_allows_are_reported_unused() {
    let r = as_lib("allow_unused.rs");
    assert_eq!(rules_of(&r), CLEAN);
    assert_eq!(r.unused_allows.len(), 1);
    assert_eq!(r.unused_allows[0].rule, "allow");
}

#[test]
fn cfg_test_regions_are_exempt() {
    assert_eq!(rules_of(&as_lib("cfg_test.rs")), CLEAN);
    // Even under a hot root the test module's `unwrap` is not G3.
    assert_eq!(rules_of(&as_hot_root("cfg_test.rs")), CLEAN);
}

#[test]
fn bytestring_bodies_are_opaque_to_every_rule() {
    // b"..." / br#"..."# bodies mention partial_cmp, unwrap,
    // Instant::now and unbalanced braces — all of it must be masked by
    // the lexer, for the line rule and the extractor alike.
    assert_eq!(rules_of(&as_hot_root("lex_bytestr.rs")), CLEAN);
}

#[test]
fn char_literals_with_quotes_and_braces_do_not_derail_the_lexer() {
    // '"' must not open a string (which would swallow the rest of the
    // file, including a real string containing "partial_cmp").
    assert_eq!(rules_of(&as_lib("lex_charlit.rs")), CLEAN);
}

#[test]
fn lifetime_ticks_are_not_char_literals() {
    // If `'a` opened a char literal the lexer would blank real code;
    // the trailing genuine `partial_cmp` comparator proves the lexer is
    // still reading code after the lifetimes.
    assert_eq!(rules_of(&as_lib("lex_lifetime.rs")), ["D1"]);
}

#[test]
fn fixtures_all_have_a_test() {
    // Every fixture file must be exercised above or in tests/graph.rs
    // or tests/width.rs; a fixture nobody reads is dead weight. Keep
    // this list in sync when adding one.
    let used = [
        "allow_bad.rs",
        "allow_good.rs",
        "allow_unused.rs",
        "cfg_test.rs",
        "d1_bad.rs",
        "d1_good.rs",
        "d2_bad.rs",
        "d2_good.rs",
        "d3_bad.rs",
        "d4_bad.rs",
        "d5_bad.rs",
        "graph_leak.rs",
        "graph_lock_cycle.rs",
        "graph_lookup_only.rs",
        "graph_panic.rs",
        "lex_bytestr.rs",
        "lex_charlit.rs",
        "lex_lifetime.rs",
        "s2_bad.rs",
        "width_bounded_cast.rs",
        "width_helper_chain.rs",
        "width_tainted_capacity.rs",
        "width_tainted_mul.rs",
        "width_unbounded_cast.rs",
    ];
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, used);
}
