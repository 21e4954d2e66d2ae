//! The determinism & safety rule set.
//!
//! [`RULES`] names every rule the pass enforces. D1 is a line-oriented
//! check over sanitized code (see [`crate::lexer`]) and lives here
//! ([`check_line`]); G1–G5 and W1–W3 are computed over the workspace
//! call graph by [`crate::taint`], [`crate::purity`] and
//! [`crate::width`]. (`unsafe` is not a rule: `unsafe_code = "forbid"`
//! in the workspace lint table makes it a compile error in every
//! target.) Rules are deliberately over-approximate: they flag what a
//! token-level pass cannot prove safe. The release valve for
//! sound-but-unwanted flags is an in-place
//! `// lint:allow(<rule>): <reason>` with a written justification — see
//! `DESIGN.md` §8 for the policy.

use crate::lexer::has_ident;

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier used in diagnostics and `lint:allow`.
    pub id: &'static str,
    /// One-line summary shown by `--list-rules`.
    pub summary: &'static str,
}

/// Every rule the pass knows about, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D1",
        summary: "float comparators must use total_cmp, not partial_cmp \
                  (NaN-poisoned sorts are order-nondeterministic)",
    },
    Rule {
        id: "G1",
        summary: "graph: a nondeterminism source (hash-map iteration, \
                  wall clock, unseeded RNG, ad-hoc thread) is \
                  call-reachable from a deterministic root",
    },
    Rule {
        id: "G2",
        summary: "graph: lock-order cycle — a held lock can be \
                  re-acquired (or two locks acquired in both orders) \
                  along some call path",
    },
    Rule {
        id: "G3",
        summary: "graph: a panic-capable op (unwrap/expect) is \
                  call-reachable from a simulator hot loop",
    },
    Rule {
        id: "G4",
        summary: "purity: shard-merge and replay fns (merge methods, \
                  ServiceTimeDist, ConnCore steps, session::replay) must \
                  be effect-free — effects there run once per shard, not \
                  once per run",
    },
    Rule {
        id: "G5",
        summary: "purity: no effectful call inside a core::par worker \
                  closure outside the Obs channel — pool interleaving \
                  makes the effect order vary with --jobs",
    },
    Rule {
        id: "W1",
        summary: "width: unchecked widening arithmetic (*, +, <<) on a \
                  scale-tainted integer — use checked_*/saturating_* or \
                  prove the bound",
    },
    Rule {
        id: "W2",
        summary: "width: narrowing cast (as u32/usize/...) of a \
                  scale-tainted value with no dominating bound check — \
                  use try_into or bound first",
    },
    Rule {
        id: "W3",
        summary: "width: capacity allocation (Vec::with_capacity, \
                  vec![_; n]) sized by a tainted, unchecked expression — \
                  validate against an explicit cap",
    },
];

/// True when `id` names a known rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Module prefixes whose wall-clock reads are not G1 sources: the
/// wall-clock side of the observability layer is the one sanctioned
/// consumer of real time (metrics tagged `Channel::Wall`, never the
/// deterministic channel).
pub const WALL_CLOCK_EXEMPT: &[&str] = &["crates/core/src/obs/"];

/// Module prefixes whose thread creation is not a G1 source: the scoped
/// worker pool and the network server are the two sanctioned thread
/// owners. The pool's determinism is proven separately by the
/// serial-vs-parallel golden tests.
pub const THREAD_EXEMPT: &[&str] = &["crates/core/src/par.rs", "crates/serve/src/"];

/// Whether `rel` falls under any of `prefixes`.
pub fn path_has_prefix(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// One rule hit, before suppression is applied — the single currency
/// between every rule and the report layer's `lint:allow` matching.
#[derive(Debug, Clone)]
pub struct Hit {
    /// Rule identifier (`D1`, `G1`–`G5`, `W1`–`W3`).
    pub rule: &'static str,
    /// Workspace-relative file of the site a `lint:allow` can excuse.
    pub file: String,
    /// 1-based line of that site.
    pub line: usize,
    /// Diagnostic text, evidence chain included.
    pub message: String,
    /// W1–W3 only: the tainted identifier that fired the rule, as
    /// `widthflow.json` records it (empty for every other rule).
    pub ident: String,
    /// W1–W3 only: the seed→site evidence chain on its own, as
    /// `widthflow.json` records it (the other rules' chains live in
    /// `message` alone).
    pub chain: String,
}

impl Hit {
    /// A hit whose evidence is all in `message`.
    pub fn new(rule: &'static str, file: &str, line: usize, message: String) -> Hit {
        Hit {
            rule,
            file: file.to_string(),
            line,
            message,
            ident: String::new(),
            chain: String::new(),
        }
    }
}

/// Run the line rule (D1) over one sanitized code line of a non-test
/// file. `rel` is the workspace-relative path with forward slashes and
/// `line` the 1-based line number.
pub fn check_line(rel: &str, line: usize, code: &str) -> Option<Hit> {
    // `partial_cmp` as a comparator. Implementing `PartialOrd` itself
    // (a `fn partial_cmp` definition) is the one sanctioned use.
    (has_ident(code, "partial_cmp") && !code.contains("fn partial_cmp")).then(|| {
        Hit::new(
            "D1",
            rel,
            line,
            "partial_cmp in a comparator: NaN returns None and \
             poisons the ordering; use f64::total_cmp (or derive \
             Ord on a non-float key)"
                .into(),
        )
    })
}
