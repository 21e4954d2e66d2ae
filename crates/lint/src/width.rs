//! Interprocedural scale-taint width/overflow dataflow and the three
//! rules it backs (DESIGN §14):
//!
//! * **W1** — unchecked widening arithmetic (`*`, `+`, `<<` and their
//!   compound forms) where an operand is scale-tainted. A product of
//!   two scale-magnitude u64s clears 2^64 long before a million-client
//!   config feels slow — PR 7's `days × sessions × 12` overflow is the
//!   canonical instance.
//! * **W2** — narrowing cast (`as u32` / `as usize` / …) of a
//!   scale-tainted value with no dominating bound check. The
//!   portability floor for `usize` is 32 bits; scale products pass
//!   2^32 at `--scale 100`.
//! * **W3** — capacity allocation (`Vec::with_capacity`, `vec![_; n]`)
//!   sized by a tainted, unchecked expression: one bad config line
//!   becomes an OOM instead of an error.
//!
//! Taint seeds at the scale-carrying configuration fields and
//! run-population counters ([`SEEDS`]) and propagates:
//!
//! * **intraprocedurally** through `let` / `for` / assignment binding
//!   edges, to a per-fn fixpoint;
//! * **interprocedurally** through call arguments (caller's tainted
//!   arg taints the callee's positional parameter) and returns (a
//!   callee whose return value is tainted taints bindings of its call)
//!   — over the *precise* resolution rungs only. Propagating through
//!   the any-name / opaque-method fallback edges (thousands) would
//!   taint the whole graph; the width engine deliberately trades that
//!   soundness margin for precision, the reverse of the purity engine's
//!   choice (and the reason both directions are documented).
//!
//! Taint dies at width guards (`checked_*` / `saturating_*` /
//! `try_into` / `try_from` / `min` / `clamp`) and rule sites are
//! additionally silenced when the tainted identifier carries a visible
//! dominating bound (comparison, `assert!`, `%`). Two facts about the
//! workspace are held here rather than restated in a `lint:allow` per
//! site: W1 skips arithmetic whose left operand ends in a name declared
//! with a saturating unit type ([`CallGraph::unit_names`]), and W3
//! skips a capacity that is the `len()` of an existing collection
//! ([`crate::extract::CapacitySite::len_sized`]). Identifier-level
//! matching means field taint is name-global (`self.accesses` and a
//! local `accesses` alias); that over-approximation is the sound
//! direction and is what makes the engine std-only cheap.

use std::collections::{BTreeMap, BTreeSet};

use crate::extract::{is_width_guard, narrowing_target, ArithOp};
use crate::graph::CallGraph;
use crate::rules::Hit;
use serde::Value;
use serde_json::json;

/// Scale-taint seeds: configuration fields that set run population and
/// the per-run counters that grow with it. Matched as bare identifiers
/// anywhere (field or local), which is deliberately name-global.
pub const SEEDS: &[&str] = &[
    "accessed_bytes",
    "accesses",
    "accesses_generated",
    "byte_hops",
    "bytes_sent",
    "cache_hits",
    "duration_days",
    "latency_ms",
    "miss_bytes",
    "n_accesses",
    "n_clients",
    "n_pages",
    "n_sessions",
    "prefetches",
    "push_bytes",
    "pushes",
    "scale_factor",
    "server_requests",
    "sessions_generated",
    "sessions_per_day",
    "transfers",
    "wasted_push_bytes",
    "wasted_pushes",
];

fn is_seed(w: &str) -> bool {
    SEEDS.contains(&w)
}

/// Why an identifier is tainted in some fn — one hop of the evidence
/// chain back toward a seed.
#[derive(Debug, Clone)]
enum Why {
    /// Bound from a tainted rhs identifier at `line`.
    Bind { line: usize, from: String },
    /// The fn's parameter, tainted by a caller's argument.
    Param {
        caller: String,
        line: usize,
        from: String,
    },
    /// Bound from a call whose return value is tainted.
    Ret { callee: String, line: usize },
}

/// The computed taint state plus rule findings.
#[derive(Debug, Clone, Default)]
pub struct WidthMap {
    /// qname → tainted local/param idents with provenance (seeds are
    /// implicit and not stored).
    tainted: BTreeMap<String, BTreeMap<String, Why>>,
    /// qname → the ident that taints the return value, when any.
    ret_tainted: BTreeMap<String, String>,
    /// qname → float-typed locals (bound from an rhs mentioning
    /// f32/f64): W1 skips float arithmetic.
    floats: BTreeMap<String, BTreeSet<String>>,
    /// W1–W3 findings (pre-suppression, like every other rule's hits),
    /// sorted by (file, line, rule).
    pub findings: Vec<Hit>,
}

impl WidthMap {
    /// Worklist fixpoint over the call graph, then the W1–W3 site scan.
    /// Everything iterates in `BTreeMap`/`BTreeSet` order and the
    /// transfer functions are monotone, so the result is deterministic
    /// and the loop terminates.
    pub fn compute(g: &CallGraph) -> WidthMap {
        let mut wm = WidthMap::default();
        for (q, n) in &g.nodes {
            let mut fl = BTreeSet::new();
            for b in &n.binds {
                if b.rhs
                    .iter()
                    .any(|r| r.ends_with("f64") || r.ends_with("f32"))
                {
                    fl.extend(b.names.iter().cloned());
                }
            }
            if !fl.is_empty() {
                wm.floats.insert(q.clone(), fl);
            }
        }
        // callee → callers over precise call sites, for re-enqueueing
        // when a return value turns tainted.
        let mut callers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (q, n) in &g.nodes {
            for cs in &n.call_sites {
                for c in &cs.callees {
                    callers.entry(c.as_str()).or_default().insert(q.as_str());
                }
            }
        }

        let mut work: BTreeSet<String> = g.nodes.keys().cloned().collect();
        while let Some(q) = work.pop_first() {
            let Some(n) = g.nodes.get(&q) else { continue };
            // Take this fn's env out so the closures below can borrow
            // the rest of the state immutably.
            let mut env = wm.tainted.remove(&q).unwrap_or_default();
            // Call name → precise callees, for return-taint lookups.
            let mut by_call: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
            for cs in &n.call_sites {
                let e = by_call.entry(cs.name.as_str()).or_default();
                e.extend(cs.callees.iter().map(String::as_str));
            }
            // Intraprocedural fixpoint over the binding edges.
            loop {
                let mut grew = false;
                for b in &n.binds {
                    if b.guarded {
                        continue;
                    }
                    let mut why: Option<Why> = None;
                    for r in &b.rhs {
                        if is_seed(r) || env.contains_key(r) {
                            why = Some(Why::Bind {
                                line: b.line,
                                from: r.clone(),
                            });
                            break;
                        }
                        if let Some(cands) = by_call.get(r.as_str()) {
                            if let Some(callee) =
                                cands.iter().find(|c| wm.ret_tainted.contains_key(**c))
                            {
                                why = Some(Why::Ret {
                                    callee: (*callee).to_string(),
                                    line: b.line,
                                });
                                break;
                            }
                        }
                    }
                    if let Some(why) = why {
                        for name in &b.names {
                            if !env.contains_key(name) && !is_seed(name) {
                                env.insert(name.clone(), why.clone());
                                grew = true;
                            }
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            // Return taint: a tainted ident (or a call to a
            // return-tainted callee) in return position.
            let rt = n.ret_idents.iter().find(|r| {
                is_seed(r)
                    || env.contains_key(*r)
                    || by_call
                        .get(r.as_str())
                        .is_some_and(|cs| cs.iter().any(|c| wm.ret_tainted.contains_key(*c)))
            });
            let mut ret_grew = false;
            if let Some(r) = rt {
                if !wm.ret_tainted.contains_key(&q) {
                    wm.ret_tainted.insert(q.clone(), r.clone());
                    ret_grew = true;
                }
            }
            // Interprocedural arg → param propagation.
            let mut pending: Vec<(String, String, Why)> = Vec::new();
            for cs in &n.call_sites {
                for callee in &cs.callees {
                    let Some(cn) = g.nodes.get(callee) else {
                        continue;
                    };
                    for (pos, argset) in cs.args.iter().enumerate() {
                        let Some(p) = cn.params.get(pos) else { break };
                        let Some(src) = argset.iter().find(|a| is_seed(a) || env.contains_key(*a))
                        else {
                            continue;
                        };
                        pending.push((
                            callee.clone(),
                            p.clone(),
                            Why::Param {
                                caller: q.clone(),
                                line: cs.line,
                                from: src.clone(),
                            },
                        ));
                    }
                }
            }
            if !env.is_empty() {
                wm.tainted.insert(q.clone(), env);
            }
            for (callee, p, why) in pending {
                // (`callee == q` is self-recursive arg taint: the fn is
                // simply re-enqueued like any other callee.)
                let e = wm.tainted.entry(callee.clone()).or_default();
                if !e.contains_key(&p) && !is_seed(&p) {
                    e.insert(p, why);
                    work.insert(callee);
                }
            }
            if ret_grew {
                if let Some(cs) = callers.get(q.as_str()) {
                    work.extend(cs.iter().map(|c| c.to_string()));
                }
            }
        }

        wm.scan_sites(g);
        wm
    }

    /// Whether `ident` is tainted in fn `q`.
    fn is_tainted(&self, q: &str, ident: &str) -> bool {
        is_seed(ident) || self.tainted.get(q).is_some_and(|e| e.contains_key(ident))
    }

    /// The root→site evidence chain for a tainted ident, hopping
    /// through binds, call returns and caller args back to a seed.
    pub fn chain(&self, q: &str, ident: &str) -> String {
        let mut parts = vec![format!("`{ident}`")];
        let mut curq = q.to_string();
        let mut cur = ident.to_string();
        let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
        loop {
            if !seen.insert((curq.clone(), cur.clone())) || parts.len() > 12 {
                parts.push("…".to_string());
                break;
            }
            if is_seed(&cur) {
                parts.push("scale seed".to_string());
                break;
            }
            match self.tainted.get(&curq).and_then(|e| e.get(&cur)) {
                Some(Why::Bind { line, from }) => {
                    parts.push(format!("`{from}` (bound at line {line})"));
                    cur = from.clone();
                }
                Some(Why::Ret { callee, line }) => {
                    parts.push(format!("return of `{callee}` (called at line {line})"));
                    match self.ret_tainted.get(callee) {
                        Some(r) => {
                            parts.push(format!("`{r}`"));
                            curq = callee.clone();
                            cur = r.clone();
                        }
                        None => break,
                    }
                }
                Some(Why::Param { caller, line, from }) => {
                    parts.push(format!("arg `{from}` at `{caller}`:{line}"));
                    curq = caller.clone();
                    cur = from.clone();
                }
                None => break,
            }
        }
        parts.join(" ← ")
    }

    /// Scans every arithmetic / cast / capacity site against the
    /// converged taint state and fills [`Self::findings`].
    fn scan_sites(&mut self, g: &CallGraph) {
        let mut findings: Vec<Hit> = Vec::new();
        let mut seen: BTreeSet<(&'static str, String, usize)> = BTreeSet::new();
        for (q, n) in &g.nodes {
            let fl = self.floats.get(q);
            // `ends_with` catches the literal marker, the primitives and
            // conversion names (`as_f64`); declared float names lose to
            // seeds so a float-typed decl elsewhere can't silence one.
            let is_float = |ids: &[String]| {
                ids.iter().any(|w| {
                    w.ends_with("f64")
                        || w.ends_with("f32")
                        || (!is_seed(w)
                            && (g.float_names.contains(w) || fl.is_some_and(|f| f.contains(w))))
                })
            };
            // The tainted-and-unbounded ident that makes a site fire.
            let hot = |ids: &[String]| {
                ids.iter()
                    .find(|id| self.is_tainted(q, id) && !n.bounded.contains(*id))
                    .cloned()
            };
            let guarded = |ids: &[String]| ids.iter().any(|w| is_width_guard(w));
            // One finding per (rule, file, line); `describe` renders
            // the diagnostic from the ident and its evidence chain.
            let mut fire = |rule: &'static str,
                            line: usize,
                            ident: String,
                            describe: &dyn Fn(&str, &str) -> String| {
                if !seen.insert((rule, n.file.clone(), line)) {
                    return;
                }
                let chain = self.chain(q, &ident);
                findings.push(Hit {
                    rule,
                    file: n.file.clone(),
                    line,
                    message: describe(&ident, &chain),
                    ident,
                    chain,
                });
            };
            for a in &n.arith {
                if is_float(&a.lhs) || is_float(&a.rhs) {
                    continue;
                }
                // The operator is a unit type's saturating impl.
                if g.unit_names.contains(&a.left) {
                    continue;
                }
                if guarded(&a.lhs) || guarded(&a.rhs) {
                    continue;
                }
                let id = match a.op {
                    // A sum only reaches overflow magnitude when both
                    // sides carry scale (`i += 1` is not a hazard;
                    // `self.pushes += other.pushes` is).
                    ArithOp::Add => {
                        if a.lhs.iter().any(|i| self.is_tainted(q, i))
                            && a.rhs.iter().any(|i| self.is_tainted(q, i))
                        {
                            hot(&a.lhs).or_else(|| hot(&a.rhs))
                        } else {
                            None
                        }
                    }
                    ArithOp::Mul | ArithOp::Shl => hot(&a.lhs).or_else(|| hot(&a.rhs)),
                };
                let Some(id) = id else { continue };
                let fix = match a.op {
                    ArithOp::Mul => "checked_mul/saturating_mul",
                    ArithOp::Add => "checked_add/saturating_add",
                    ArithOp::Shl => "checked_shl",
                };
                fire("W1", a.line, id, &|id, chain| {
                    format!(
                        "unchecked `{}` on scale-tainted `{id}` in `{q}` [{chain}]; \
                         use {fix}, or lint:allow(W1) with the bound that makes it safe",
                        a.op.sym()
                    )
                });
            }
            for c in &n.casts {
                if !narrowing_target(&c.target) {
                    continue;
                }
                if guarded(&c.src) {
                    continue;
                }
                let Some(id) = hot(&c.src) else { continue };
                fire("W2", c.line, id, &|id, chain| {
                    format!(
                        "narrowing cast `as {}` of scale-tainted `{id}` in `{q}` [{chain}]; \
                         bound the value first or use try_into, or lint:allow(W2) with the proof",
                        c.target
                    )
                });
            }
            for cap in &n.caps {
                // A `len()` is memory already spent, however it scaled.
                if cap.len_sized || guarded(&cap.args) {
                    continue;
                }
                let Some(id) = hot(&cap.args) else { continue };
                fire("W3", cap.line, id, &|id, chain| {
                    format!(
                        "capacity allocation `{}` sized by scale-tainted `{id}` in `{q}` \
                         [{chain}]; validate against an explicit cap first, or lint:allow(W3) \
                         with the bound",
                        cap.what
                    )
                });
            }
        }
        findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.findings = findings;
    }

    /// Aggregate counters for `--write` and the JSON artifact, in key
    /// order.
    pub fn counts(&self, g: &CallGraph) -> BTreeMap<&'static str, usize> {
        let mut m: BTreeMap<&'static str, usize> = BTreeMap::new();
        m.insert("arith_sites", g.nodes.values().map(|n| n.arith.len()).sum());
        m.insert("cast_sites", g.nodes.values().map(|n| n.casts.len()).sum());
        m.insert(
            "capacity_sites",
            g.nodes.values().map(|n| n.caps.len()).sum(),
        );
        m.insert(
            "checked_sites",
            g.nodes.values().map(|n| n.checked_sites).sum(),
        );
        m.insert("flow_binds", g.nodes.values().map(|n| n.binds.len()).sum());
        m.insert("tainted_fns", self.tainted.len());
        m.insert("ret_tainted_fns", self.ret_tainted.len());
        m.insert(
            "w1",
            self.findings.iter().filter(|f| f.rule == "W1").count(),
        );
        m.insert(
            "w2",
            self.findings.iter().filter(|f| f.rule == "W2").count(),
        );
        m.insert(
            "w3",
            self.findings.iter().filter(|f| f.rule == "W3").count(),
        );
        m
    }

    /// The `widthflow.json` artifact (schema `specweb-widthflow/v1`):
    /// seeds, counters, the per-fn taint map and the W1–W3 findings.
    pub fn to_value(&self, g: &CallGraph) -> Value {
        let qnames: BTreeSet<&String> =
            self.tainted.keys().chain(self.ret_tainted.keys()).collect();
        let tainted = |q: &String| {
            let locals: Vec<&String> = self
                .tainted
                .get(q)
                .into_iter()
                .flat_map(|e| e.keys())
                .collect();
            let row = json!({"locals": locals, "ret": self.ret_tainted.get(q)});
            (q.clone(), row)
        };
        let finding = |f: &Hit| {
            json!({
                "rule": f.rule,
                "file": f.file,
                "line": f.line,
                "ident": f.ident,
                "chain": f.chain,
            })
        };
        json!({
            "schema": "specweb-widthflow/v1",
            "seeds": SEEDS,
            "counts": self.counts(g),
            "tainted": Value::Obj(qnames.into_iter().map(tainted).collect()),
            "findings": self.findings.iter().map(finding).collect::<Vec<_>>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::graph;

    #[test]
    fn tainted_multiply_is_caught_with_chain() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
pub fn plan(cfg: &Config) -> u64 {
    let days = cfg.duration_days;
    let total = days * cfg.sessions_per_day;
    total
}
",
        )]);
        let wm = WidthMap::compute(&g);
        let w1: Vec<_> = wm.findings.iter().filter(|f| f.rule == "W1").collect();
        assert_eq!(w1.len(), 1, "{:#?}", wm.findings);
        assert_eq!(w1[0].line, 4);
        assert!(w1[0].chain.contains("scale seed"), "{}", w1[0].chain);
        assert!(w1[0].chain.contains("`duration_days`"), "{}", w1[0].chain);
    }

    #[test]
    fn checked_arithmetic_and_floats_are_clean() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
pub fn plan(cfg: &Config) -> u64 {
    let total = cfg.duration_days.checked_mul(cfg.sessions_per_day).unwrap();
    let frac = (cfg.n_clients as f64) * 0.5;
    total
}
",
        )]);
        let wm = WidthMap::compute(&g);
        assert!(
            wm.findings.iter().all(|f| f.rule != "W1"),
            "{:#?}",
            wm.findings
        );
    }

    #[test]
    fn narrowing_cast_fires_unless_bounded() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
pub fn bad(cfg: &Config) -> u32 {
    cfg.n_clients as u32
}
pub fn good(cfg: &Config) -> u32 {
    assert!(cfg.n_clients <= MAX_CLIENTS);
    cfg.n_clients as u32
}
",
        )]);
        let wm = WidthMap::compute(&g);
        let w2: Vec<_> = wm.findings.iter().filter(|f| f.rule == "W2").collect();
        assert_eq!(w2.len(), 1, "{:#?}", wm.findings);
        assert_eq!(w2[0].line, 3, "{:#?}", wm.findings);
    }

    #[test]
    fn tainted_capacity_is_caught() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
pub fn alloc(cfg: &Config) -> Vec<u64> {
    let mut v = Vec::with_capacity(cfg.n_clients);
    let w = vec![0u64; cfg.n_clients];
    v
}
",
        )]);
        let wm = WidthMap::compute(&g);
        let w3: Vec<_> = wm.findings.iter().filter(|f| f.rule == "W3").collect();
        assert_eq!(w3.len(), 2, "{:#?}", wm.findings);
    }

    #[test]
    fn taint_flows_through_helper_args_and_returns() {
        // `run` has no direct seed contact at either site: taint must
        // travel seed → session_count's return → `total` → scale_up's
        // `n` parameter to reach the multiply.
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
fn scale_up(n: u64) -> u64 {
    n * 2
}
fn session_count(cfg: &Config) -> u64 {
    let n = cfg.n_sessions;
    n
}
pub fn run(cfg: &Config) -> u64 {
    let total = session_count(cfg);
    scale_up(total)
}
",
        )]);
        let wm = WidthMap::compute(&g);
        assert!(
            wm.is_tainted("a::scale_up", "n"),
            "param taint: {:#?}",
            wm.tainted
        );
        let w1: Vec<_> = wm.findings.iter().filter(|f| f.rule == "W1").collect();
        assert_eq!(w1.len(), 1, "{:#?}", wm.findings);
        assert_eq!(w1[0].line, 3, "{:#?}", wm.findings);
        assert!(
            w1[0].chain.contains("arg `total` at `a::run`"),
            "{}",
            w1[0].chain
        );
        assert!(
            w1[0].chain.contains("return of `a::session_count`"),
            "{}",
            w1[0].chain
        );
        assert!(w1[0].chain.contains("scale seed"), "{}", w1[0].chain);
    }

    #[test]
    fn guards_kill_the_flow() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
pub fn run(cfg: &Config) -> u64 {
    let capped = cfg.n_sessions.min(LIMIT);
    capped * 12
}
",
        )]);
        let wm = WidthMap::compute(&g);
        assert!(wm.findings.is_empty(), "{:#?}", wm.findings);
    }

    #[test]
    fn widthflow_json_is_deterministic() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn f(cfg: &Config) -> u64 { cfg.n_clients * 2 }\n",
        )]);
        let wm = WidthMap::compute(&g);
        let v = wm.to_value(&g);
        assert_eq!(v["schema"], "specweb-widthflow/v1");
        assert_eq!(v["counts"]["w1"], 1, "{v}");
        assert_eq!(v["findings"][0]["ident"], "n_clients", "{v}");
        assert_eq!(v, wm.to_value(&g), "stable value");
    }
}
