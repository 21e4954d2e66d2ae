//! Taint-reachability over the call graph: the G-rules.
//!
//! * **G1** — a nondeterminism source (hash-map iteration, wall-clock
//!   read, unseeded RNG, ad-hoc thread spawn) is call-reachable from a
//!   deterministic root. This re-implements D2/D3/D4/D5 transitively:
//!   a `HashMap` that is never *iterated on any path from a root* is
//!   fine without an allow.
//! * **G2** — lock-order cycle: while one lock guard is held (`let`
//!   bound), a path exists that acquires a lock in a conflicting
//!   order (including re-acquiring the same lock → self-deadlock).
//! * **G3** — a panic-capable op (`unwrap`/`expect`) is reachable from
//!   a simulator hot loop. Replaces the blanket S2 on all lib code:
//!   panics in cold paths (report serialization, CLI glue) degrade
//!   gracefully; panics under the hot roots abort a simulation
//!   mid-experiment.
//!
//! Every violation carries an **evidence chain** — the shortest call
//! path from the root to the offending site, one `file:line` per hop —
//! so the report reads as a proof, not a pattern match.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::extract::SourceKind;
use crate::graph::CallGraph;

/// Deterministic roots: fns whose output the determinism contract
/// (DESIGN §6a) promises is byte-identical across runs and `--jobs`
/// counts. Matched as (module suffix, fn name); a `*` name matches
/// every fn in the module.
const ROOTS: &[(&str, &str)] = &[
    ("dissem::simulate", "run"),
    ("dissem::simulate", "run_with_faults"),
    ("spec::simulate", "run"),
    ("spec::simulate", "run_with_store_and_baseline"),
    ("spec::simulate", "baseline_totals"),
    ("spec::simulate", "run_with_faults"),
    ("trace::generator", "generate"),
    ("spec::deps", "closure"),
    ("spec::deps", "closure_jobs"),
    ("dissem::alloc", "*"),
    ("bench::exps", "*"),
    // The event-loop server's purity split (DESIGN §11): the
    // per-connection state machine and the trace replayer must be
    // clock/rng-free so a recorded session replays byte-identically.
    ("serve::conn", "*"),
    ("serve::session", "replay"),
    // Tail-latency observability (DESIGN §13): the profiler's frame
    // paths and call counts are jobs-invariant and golden-compared
    // (its one wall-clock read is lint:allow'd at the source), and a
    // STATS reply must be built clock-free so a recorded snapshot
    // replays byte-identically.
    ("core::obs::profile", "*"),
    ("serve::server", "stats_entries"),
];

/// Hot-loop roots for G3: the per-access simulation loops where a panic
/// kills an experiment mid-run. Experiment drivers and allocation
/// solvers are *not* hot — they run once per figure and a panic there
/// surfaces immediately.
const HOT_ROOTS: &[(&str, &str)] = &[
    ("dissem::simulate", "run"),
    ("dissem::simulate", "run_with_faults"),
    ("spec::simulate", "run"),
    ("spec::simulate", "run_with_store_and_baseline"),
    ("spec::simulate", "baseline_totals"),
    ("spec::simulate", "run_with_faults"),
    ("trace::generator", "generate"),
    ("spec::deps", "closure"),
    ("spec::deps", "closure_jobs"),
    // The reactor drives ConnCore once per readiness sweep per
    // connection; a panic there drops every live session at once.
    ("serve::conn", "*"),
    ("serve::session", "replay"),
    // Profiler frames open and close inside the per-access simulation
    // loops, and STATS replies are built mid-sweep: a panic in either
    // takes the run (or every live session) down with it.
    ("core::obs::profile", "*"),
    ("serve::server", "stats_entries"),
];

/// A graph-rule finding, pre-suppression.
#[derive(Debug, Clone)]
pub struct GraphHit {
    /// `G1`, `G2`, or `G3`.
    pub rule: &'static str,
    /// File of the *source site* (where a `lint:allow` can suppress it).
    pub file: String,
    /// 1-based line of the source site.
    pub line: usize,
    /// Diagnostic text including the rendered evidence chain.
    pub message: String,
}

/// Resolves the root specs against the graph. Returns qnames, sorted.
pub fn resolve_roots(g: &CallGraph) -> (Vec<String>, Vec<String>) {
    let pick = |specs: &[(&str, &str)]| -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (q, n) in &g.nodes {
            for (msuf, fname) in specs {
                let module_matches = n.module == *msuf || n.module.ends_with(&format!("::{msuf}"));
                if module_matches && (*fname == "*" || n.name == *fname) {
                    out.push(q.clone());
                    break;
                }
            }
        }
        out
    };
    (pick(ROOTS), pick(HOT_ROOTS))
}

/// Multi-source BFS from `seeds`; returns, per reached node, the parent
/// on a shortest path back to some seed (seeds map to themselves).
/// Deterministic: seeds are processed in sorted order and neighbor
/// sets are BTreeSets.
fn bfs(g: &CallGraph, seeds: &[String]) -> BTreeMap<String, String> {
    let mut parent: BTreeMap<String, String> = BTreeMap::new();
    let mut queue: VecDeque<String> = VecDeque::new();
    for s in seeds {
        if g.nodes.contains_key(s) && !parent.contains_key(s) {
            parent.insert(s.clone(), s.clone());
            queue.push_back(s.clone());
        }
    }
    while let Some(q) = queue.pop_front() {
        let Some(n) = g.nodes.get(&q) else { continue };
        for callee in &n.calls {
            if g.nodes.contains_key(callee) && !parent.contains_key(callee) {
                parent.insert(callee.clone(), q.clone());
                queue.push_back(callee.clone());
            }
        }
    }
    parent
}

/// Renders the shortest root→`at` call chain as
/// `root → … → at  (file:line per hop)`.
fn chain(g: &CallGraph, parent: &BTreeMap<String, String>, at: &str) -> String {
    let mut hops: Vec<String> = Vec::new();
    let mut cur = at.to_string();
    loop {
        let loc = g
            .nodes
            .get(&cur)
            .map(|n| format!("{}:{}", n.file, n.line))
            .unwrap_or_default();
        hops.push(format!("{cur} [{loc}]"));
        let p = &parent[&cur];
        if *p == cur {
            break;
        }
        cur = p.clone();
    }
    hops.reverse();
    hops.join(" -> ")
}

/// Runs G1 and G3 over the graph. Returns hits sorted by
/// (file, line, rule).
pub fn check_reachability(g: &CallGraph, roots: &[String], hot_roots: &[String]) -> Vec<GraphHit> {
    let mut hits: Vec<GraphHit> = Vec::new();

    // G1: nondeterminism sources reachable from any deterministic root.
    let parent = bfs(g, roots);
    for (q, n) in &g.nodes {
        if !parent.contains_key(q) {
            continue;
        }
        for s in &n.sources {
            let kind_ok = matches!(
                s.kind,
                SourceKind::WallClock
                    | SourceKind::Rng
                    | SourceKind::HashIter
                    | SourceKind::ThreadSpawn
            );
            if !kind_ok {
                continue;
            }
            hits.push(GraphHit {
                rule: "G1",
                file: n.file.clone(),
                line: s.line,
                message: format!(
                    "{} source `{}` (line-rule class {}) is call-reachable \
                     from a deterministic root:\n      {} -> {}:{} ({})",
                    s.kind.id(),
                    s.what,
                    s.kind.legacy_rule(),
                    chain(g, &parent, q),
                    n.file,
                    s.line,
                    s.what,
                ),
            });
        }
    }

    // G3: panic sites reachable from a hot root.
    let hot_parent = bfs(g, hot_roots);
    for (q, n) in &g.nodes {
        if !hot_parent.contains_key(q) {
            continue;
        }
        for s in &n.sources {
            if s.kind != SourceKind::Panic {
                continue;
            }
            hits.push(GraphHit {
                rule: "G3",
                file: n.file.clone(),
                line: s.line,
                message: format!(
                    "panic-capable `{}` is call-reachable from a simulator \
                     hot loop:\n      {} -> {}:{} ({})",
                    s.what,
                    chain(g, &hot_parent, q),
                    n.file,
                    s.line,
                    s.what,
                ),
            });
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
pub fn check_lock_order(g: &CallGraph) -> Vec<GraphHit> {
    // For "reachable from F" we need, per fn, the set of locks its
    // callees can take. BFS from each fn that holds a lock (few).
    let mut order: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    // (held-lock name, acquired-lock name) → representative site.
    let mut edge_site: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();

    for (q, n) in &g.nodes {
        let held: Vec<_> = n.locks.iter().filter(|l| l.held).collect();
        if held.is_empty() {
            continue;
        }
        // Locks acquired downstream of this fn.
        let parent = bfs(g, std::slice::from_ref(q));
        let mut downstream: Vec<(String, String, usize, String)> = Vec::new();
        for (cq, cn) in &g.nodes {
            if cq == q || !parent.contains_key(cq) {
                continue;
            }
            for l in &cn.locks {
                downstream.push((
                    l.name.clone(),
                    cn.file.clone(),
                    l.line,
                    chain(g, &parent, cq),
                ));
            }
        }
        for (hi, h) in n.locks.iter().enumerate() {
            if !h.held {
                continue;
            }
            // (a) later acquisitions in the same body (the locks vec is
            // in source order, so position — not line number — decides
            // "later").
            for l in n.locks.iter().skip(hi + 1) {
                if l.name != h.name {
                    order
                        .entry(h.name.clone())
                        .or_default()
                        .insert(l.name.clone());
                    edge_site
                        .entry((h.name.clone(), l.name.clone()))
                        .or_insert((
                            n.file.clone(),
                            h.line,
                            format!("{q} [{}:{}]", n.file, h.line),
                        ));
                }
                // Same-name re-acquire later in the same fn is already
                // a self-deadlock only if the guard is still live —
                // scanning liveness is out of scope; the cross-fn case
                // below catches the dangerous recursive shape.
            }
            // (b) acquisitions anywhere downstream (same name included:
            // calling back into something that takes the held lock is
            // an immediate self-deadlock with std Mutex).
            for (lname, _lf, _ll, ch) in &downstream {
                order
                    .entry(h.name.clone())
                    .or_default()
                    .insert(lname.clone());
                edge_site.entry((h.name.clone(), lname.clone())).or_insert((
                    n.file.clone(),
                    h.line,
                    ch.clone(),
                ));
            }
        }
    }

    // Cycle detection over the order graph (iterative DFS, sorted).
    let mut hits: Vec<GraphHit> = Vec::new();
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for (a, succs) in &order {
        for b in succs {
            let back = a == b
                || order
                    .get(b)
                    .is_some_and(|s| reaches(&order, b, a, &mut BTreeSet::new()) || s.contains(a));
            if back && reported.insert((a.clone(), b.clone())) {
                let (file, line, ch) = &edge_site[&(a.clone(), b.clone())];
                let shape = if a == b {
                    format!("lock `{a}` can be re-acquired while held (self-deadlock)")
                } else {
                    format!("locks `{a}` and `{b}` are acquired in both orders")
                };
                hits.push(GraphHit {
                    rule: "G2",
                    file: file.clone(),
                    line: *line,
                    message: format!("{shape}:\n      via {ch}"),
                });
            }
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

/// Whether `from` reaches `to` in the order graph.
fn reaches(
    order: &BTreeMap<String, BTreeSet<String>>,
    from: &str,
    to: &str,
    seen: &mut BTreeSet<String>,
) -> bool {
    if !seen.insert(from.to_string()) {
        return false;
    }
    let Some(succs) = order.get(from) else {
        return false;
    };
    if succs.contains(to) {
        return true;
    }
    succs.iter().any(|s| reaches(order, s, to, seen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use crate::graph::CallGraph;
    use crate::lexer::sanitize;

    fn build(files: &[(&str, &str)]) -> CallGraph {
        let fx: Vec<_> = files
            .iter()
            .map(|(rel, src)| {
                let lines = sanitize(src);
                let skip = vec![false; lines.len()];
                extract(rel, &lines, &skip)
            })
            .collect();
        CallGraph::build(&fx)
    }

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
        let (roots, hot) = resolve_roots(&g);
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
        let (roots, hot) = resolve_roots(&g);
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
        let (roots, hot) = resolve_roots(&g);
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
