//! Taint-reachability over the call graph: the G-rules.
//!
//! * **G1** — a nondeterminism source (hash-map iteration, wall-clock
//!   read, unseeded RNG, ad-hoc thread spawn) is call-reachable from a
//!   deterministic root. A `HashMap` that is never *iterated on any
//!   path from a root* is fine without an allow.
//! * **G2** — lock-order cycle: while one lock guard is held (`let`
//!   bound), a path exists that acquires a lock in a conflicting
//!   order (including re-acquiring the same lock → self-deadlock).
//! * **G3** — a panic-capable op (`unwrap`/`expect`) is reachable from
//!   a simulator hot loop. Panics in cold paths (report serialization,
//!   CLI glue) degrade gracefully; panics under the hot roots abort a
//!   simulation mid-experiment.
//!
//! Every violation carries an **evidence chain** — the shortest call
//! path from the root to the offending site, one `file:line` per hop —
//! so the report reads as a proof, not a pattern match. The searches
//! and the chains are [`crate::reach`]'s.

use std::collections::{BTreeMap, BTreeSet};

use crate::extract::SourceKind;
use crate::graph::CallGraph;
use crate::reach::{reach, Dir, Edges};
use crate::rules::Hit;
use crate::Diag;

/// Deterministic roots: fns whose output the determinism contract
/// (DESIGN §6a) promises is byte-identical across runs and `--jobs`
/// counts — G1's roots. Rows are `(module suffix, fn name, hot)`; a `*`
/// name matches every fn in the module. A `hot` row is also a G3 root:
/// a per-access simulation loop, where a panic kills an experiment
/// mid-run. Experiment drivers, result writers and allocation solvers
/// are *not* hot — they run once per figure and a panic there surfaces
/// immediately.
const ROOTS: &[(&str, &str, bool)] = &[
    ("dissem::simulate", "run", true),
    ("spec::simulate", "run", true),
    ("spec::simulate", "run_with_store_and_baseline", true),
    ("spec::simulate", "baseline_totals", true),
    ("trace::generator", "generate", true),
    ("spec::deps", "closure", true),
    ("spec::deps", "closure_jobs", true),
    ("dissem::alloc", "*", false),
    // Every fn that turns outcomes into a result file CI byte-diffs:
    // the experiment drivers, their report and plot code, and the
    // REPORT.md renderer.
    ("bench::exps", "*", false),
    ("bench::ablations", "*", false),
    ("bench::fig1", "*", false),
    ("bench::fig2", "*", false),
    ("bench::fig3", "*", false),
    ("bench::fig4", "*", false),
    ("bench::fig5", "*", false),
    ("bench::plot", "*", false),
    ("bench", "*", false),
    ("core::obs::manifest", "render_report_markdown", false),
    // The event-loop server's purity split (DESIGN §11): the
    // per-connection state machine and the trace replayer must be
    // clock/rng-free so a recorded session replays byte-identically,
    // and the reactor drives ConnCore once per readiness sweep per
    // connection — a panic there drops every live session at once.
    ("serve::conn", "*", true),
    ("serve::session", "replay", true),
    // Tail-latency observability (DESIGN §13): the profiler's frame
    // paths and call counts are jobs-invariant and golden-compared
    // (its one wall-clock read is lint:allow'd at the source), and a
    // STATS reply must be built clock-free so a recorded snapshot
    // replays byte-identically. Frames open and close inside the
    // per-access loops and STATS replies are built mid-sweep, so both
    // are hot.
    ("core::obs::profile", "*", true),
    ("serve::server", "stats_entries", true),
];

/// Resolves the root table against the graph: `(roots, hot_roots)` as
/// sorted qnames, plus diagnostics for every row that matches no fn —
/// one under G1 and, for a hot row, one under G3. A rename would
/// otherwise un-root a simulator and the rule would go quiet under it;
/// whole-workspace runs report these as violations.
pub fn resolve_roots(g: &CallGraph) -> (Vec<String>, Vec<String>, Vec<Diag>) {
    let mut unmatched: Vec<Diag> = Vec::new();
    let mut roots: BTreeSet<String> = BTreeSet::new();
    let mut hot_roots: BTreeSet<String> = BTreeSet::new();
    for &(msuf, fname, hot) in ROOTS {
        // The rules this row feeds; each goes silent if it matches nothing.
        let fed: &[&str] = if hot { &["G1", "G3"] } else { &["G1"] };
        let matched: Vec<&String> = g
            .nodes
            .iter()
            .filter(|(_, n)| {
                let module_matches = n.module == msuf || n.module.ends_with(&format!("::{msuf}"));
                module_matches && (fname == "*" || n.name == fname)
            })
            .map(|(q, _)| q)
            .collect();
        for rule in fed.iter().filter(|_| matched.is_empty()) {
            unmatched.push(Diag {
                // The spec is a row of the table above, not a statement
                // a `lint:allow` could sit on: no line.
                file: "crates/lint/src/taint.rs".into(),
                line: 0,
                rule: rule.to_string(),
                message: format!(
                    "root spec `{msuf}::{fname}` in taint::ROOTS matches no fn, so {rule} \
                     is silent under it; point the spec at the renamed fn or delete it"
                ),
                snippet: format!("(\"{msuf}\", \"{fname}\", {hot})"),
            });
        }
        roots.extend(matched.iter().copied().cloned());
        if hot {
            hot_roots.extend(matched.into_iter().cloned());
        }
    }
    (
        roots.into_iter().collect(),
        hot_roots.into_iter().collect(),
        unmatched,
    )
}

/// One hop of a call-chain rendering: `qname [file:line]`.
fn located(g: &CallGraph, q: &str) -> String {
    let loc = g
        .nodes
        .get(q)
        .map(|n| format!("{}:{}", n.file, n.line))
        .unwrap_or_default();
    format!("{q} [{loc}]")
}

/// Runs G1 and G3 over the graph. Returns hits sorted by
/// (file, line, rule).
pub fn check_reachability(g: &CallGraph, roots: &[String], hot_roots: &[String]) -> Vec<Hit> {
    let edges = g.edges();
    // G1: nondeterminism sources reachable from any deterministic root.
    // G3: panic sites reachable from a hot root.
    let from_roots = reach(&edges, Dir::Forward, roots, |_| false);
    let from_hot = reach(&edges, Dir::Forward, hot_roots, |_| false);
    let mut hits: Vec<Hit> = Vec::new();
    for (q, n) in &g.nodes {
        for s in &n.sources {
            let (rule, reached, lead) = match s.kind {
                SourceKind::Panic => (
                    "G3",
                    &from_hot,
                    format!(
                        "panic-capable `{}` is call-reachable from a simulator hot loop",
                        s.what
                    ),
                ),
                SourceKind::WallClock
                | SourceKind::Rng
                | SourceKind::HashIter
                | SourceKind::ThreadSpawn => (
                    "G1",
                    &from_roots,
                    format!(
                        "{} source `{}` is call-reachable from a deterministic root",
                        s.kind.id(),
                        s.what
                    ),
                ),
            };
            if !reached.contains(q) {
                continue;
            }
            hits.push(Hit::new(
                rule,
                &n.file,
                s.line,
                format!(
                    "{lead}:\n      {} -> {}:{} ({})",
                    reached.chain(q, |hop| located(g, hop)),
                    n.file,
                    s.line,
                    s.what,
                ),
            ));
        }
    }
    hits.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    hits
}

/// Runs the G2 lock-order check.
///
/// Model: each distinct lock receiver name is a node in an *order
/// graph*. For every `let`-bound (held) guard in fn `F`, we add an
/// order edge `held → later` for each lock acquired
/// (a) later in `F`'s own body, or (b) anywhere in a fn call-reachable
/// from `F` — the guard is conservatively assumed live for the rest of
/// `F`. A cycle in the order graph (including a self-loop: re-acquiring
/// a held lock) is a potential deadlock. Statement-temporary guards
/// (`x.lock().apply(..)` with no `let`) drop at the `;` and generate no
/// edges.
pub fn check_lock_order(g: &CallGraph) -> Vec<Hit> {
    let edges = g.edges();
    let mut order: Edges = Edges::new();
    // (held-lock name, acquired-lock name) → representative site.
    let mut edge_site: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();

    for (q, n) in &g.nodes {
        if !n.locks.iter().any(|l| l.held) {
            continue;
        }
        // Locks acquired downstream of this fn (few fns hold a lock, so
        // one search per holder is cheap), each with its call chain.
        let below = reach(&edges, Dir::Forward, std::slice::from_ref(q), |_| false);
        let mut downstream: Vec<(&str, String)> = Vec::new();
        for (cq, cn) in &g.nodes {
            if cq == q || !below.contains(cq) {
                continue;
            }
            for l in &cn.locks {
                downstream.push((&l.name, below.chain(cq, |hop| located(g, hop))));
            }
        }
        for (hi, h) in n.locks.iter().enumerate() {
            if !h.held {
                continue;
            }
            // (a) later acquisitions in the same body (the locks vec is
            // in source order, so position — not line number — decides
            // "later"). A same-name re-acquire later in the same fn is
            // a self-deadlock only if the guard is still live — scanning
            // liveness is out of scope; the cross-fn case below catches
            // the dangerous recursive shape.
            let own = n.locks[hi + 1..]
                .iter()
                .filter(|l| l.name != h.name)
                .map(|l| (l.name.as_str(), format!("{q} [{}:{}]", n.file, h.line)));
            // (b) acquisitions anywhere downstream (same name included:
            // calling back into something that takes the held lock is
            // an immediate self-deadlock with std Mutex).
            for (lname, via) in own.chain(downstream.iter().cloned()) {
                order
                    .entry(h.name.clone())
                    .or_default()
                    .insert(lname.to_string());
                edge_site
                    .entry((h.name.clone(), lname.to_string()))
                    .or_insert((n.file.clone(), h.line, via));
            }
        }
    }

    // An order edge a → b closes a cycle when b leads back to a.
    let mut hits: Vec<Hit> = Vec::new();
    for ((a, b), (file, line, via)) in &edge_site {
        let back =
            a == b || reach(&order, Dir::Forward, std::slice::from_ref(b), |_| false).contains(a);
        if back {
            let shape = if a == b {
                format!("lock `{a}` can be re-acquired while held (self-deadlock)")
            } else {
                format!("locks `{a}` and `{b}` are acquired in both orders")
            };
            hits.push(Hit::new(
                "G2",
                file,
                *line,
                format!("{shape}:\n      via {via}"),
            ));
        }
    }
    hits.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.message.as_str(),
        ))
    });
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::graph as build;

    #[test]
    fn cross_function_hash_iteration_is_caught_with_a_chain() {
        let g = build(&[
            (
                "crates/dissem/src/simulate.rs",
                "pub fn run() { helper::predict(); }",
            ),
            (
                "crates/dissem/src/helper.rs",
                "
pub fn predict() {
    let m: HashMap<u32, u32> = make();
    for (k, v) in m.iter() { touch(k, v); }
}
",
            ),
        ]);
        let (roots, hot, _) = resolve_roots(&g);
        assert_eq!(roots, ["dissem::simulate::run"]);
        let hits = check_reachability(&g, &roots, &hot);
        let g1: Vec<_> = hits.iter().filter(|h| h.rule == "G1").collect();
        assert_eq!(g1.len(), 1, "{hits:#?}");
        assert!(g1[0].message.contains("dissem::simulate::run"));
        assert!(g1[0].message.contains("->"));
        assert!(g1[0].message.contains("hash_iter"));
        assert_eq!(g1[0].file, "crates/dissem/src/helper.rs");
    }

    #[test]
    fn a_root_spec_that_matches_no_fn_is_reported_by_name() {
        // `run` still resolves; `baseline_totals` was renamed away.
        let g = build(&[(
            "crates/spec/src/simulate.rs",
            "pub fn run() {}\npub fn baseline_replay() {}",
        )]);
        let (roots, hot, unmatched) = resolve_roots(&g);
        assert_eq!(roots, ["spec::simulate::run"]);
        assert_eq!(hot, ["spec::simulate::run"]);
        let names = |rule: &str, spec: &str| {
            let spec = format!("root spec `{spec}` ");
            unmatched
                .iter()
                .any(|d| d.rule == rule && d.message.contains(&spec))
        };
        assert!(names("G1", "spec::simulate::baseline_totals"));
        assert!(names("G3", "spec::simulate::baseline_totals"));
        assert!(names("G1", "dissem::alloc::*"), "{unmatched:#?}");
        assert!(!names("G1", "spec::simulate::run"));
        let hot_rows = ROOTS.iter().filter(|r| r.2).count();
        assert_eq!(unmatched.len(), ROOTS.len() + hot_rows - 2);
    }

    #[test]
    fn unreachable_sources_are_clean() {
        let g = build(&[
            ("crates/dissem/src/simulate.rs", "pub fn run() {}"),
            (
                "crates/dissem/src/cold.rs",
                "
pub fn report() {
    let m: HashMap<u32, u32> = make();
    for k in m.keys() { touch(k); }
    let t = Instant::now();
}
",
            ),
        ]);
        let (roots, hot, _) = resolve_roots(&g);
        let hits = check_reachability(&g, &roots, &hot);
        assert!(hits.is_empty(), "{hits:#?}");
    }

    #[test]
    fn panic_reachable_from_hot_loop_is_g3_but_cold_panic_is_not() {
        let g = build(&[
            (
                "crates/spec/src/simulate.rs",
                "pub fn run() { step(); }\nfn step() { x.unwrap(); }",
            ),
            (
                "crates/bench/src/exps.rs",
                "pub fn tab1() { serde_out(); }\nfn serde_out() { y.expect( ); }",
            ),
        ]);
        let (roots, hot, _) = resolve_roots(&g);
        let hits = check_reachability(&g, &roots, &hot);
        let g3: Vec<_> = hits.iter().filter(|h| h.rule == "G3").collect();
        assert_eq!(g3.len(), 1, "exps is a G1 root but not hot: {hits:#?}");
        assert!(g3[0].message.contains("spec::simulate::run"));
    }

    #[test]
    fn lock_order_cycle_is_g2() {
        let g = build(&[(
            "crates/core/src/locks.rs",
            "
pub fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
pub fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }
",
        )]);
        let hits = check_lock_order(&g);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.rule == "G2"));
        assert!(hits[0].message.contains("both orders"), "{hits:#?}");
    }

    #[test]
    fn self_deadlock_through_a_callee_is_g2() {
        let g = build(&[(
            "crates/core/src/locks.rs",
            "
pub fn outer(&self) { let g = self.state.lock(); inner(self); }
fn inner(s: &S) { let h = s.state.lock(); }
",
        )]);
        let hits = check_lock_order(&g);
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert!(hits[0].message.contains("self-deadlock"));
    }

    #[test]
    fn ordered_nesting_without_reversal_is_clean() {
        let g = build(&[(
            "crates/core/src/locks.rs",
            "
pub fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
pub fn also_ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
",
        )]);
        let hits = check_lock_order(&g);
        assert!(hits.is_empty(), "{hits:#?}");
    }

    #[test]
    fn temporary_guards_do_not_create_order_edges() {
        let g = build(&[(
            "crates/core/src/locks.rs",
            "
pub fn ab(&self) { self.alpha.lock().push(1); self.beta.lock().push(2); }
pub fn ba(&self) { self.beta.lock().push(1); self.alpha.lock().push(2); }
",
        )]);
        let hits = check_lock_order(&g);
        assert!(hits.is_empty(), "{hits:#?}");
    }
}
