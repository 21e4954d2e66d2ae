//! Workspace call graph: resolution of the extractor's raw call sites
//! into edges, plus a deterministic JSON serialization.
//!
//! Name resolution is deliberately **over-approximate** (DESIGN §9): an
//! edge we cannot rule out is an edge we keep. The import-aware ladder,
//! most to least precise (per-rung counts are reported by `--write` and
//! serialized in the graph's `resolution` section):
//!
//! 1. `self.m(..)` / `Self::f(..)` where the enclosing `impl`/`trait`
//!    type defines the name → exactly those candidates;
//! 2. the first path segment (or the bare name, for unqualified calls)
//!    is bound by a **named `use` import** in the calling module → the
//!    import's target scope, with `as`-renames followed to the original
//!    name. Imports of `std`/foreign paths resolve to *zero* workspace
//!    candidates — the import tells us exactly where the name comes
//!    from, and it is not workspace code;
//! 3. `Type::f(..)` where `Type` is a known impl/trait type → that
//!    type's `f`;
//! 4. `module::f(..)` where the qualifier suffix-matches a known module
//!    path (`crate::`/`specweb_*::` prefixes normalized) → that
//!    module's `f`; unqualified `f(..)` → same-module `f` when one
//!    exists (checked before rung 2 — module items shadow imports in
//!    practice and the union would be unsound in neither direction);
//! 5. a std/foreign qualifier from the denylist → zero candidates
//!    (`Vec::new(..)` never reenters workspace code directly; closures
//!    it is handed are already attributed to the defining fn);
//! 6. a type-shaped qualifier (`T::f` with an UpperCamelCase `T`) that
//!    survived the rungs above: (a) `T` is a declared workspace type or
//!    a std trait in UFCS position (`Default::default()`) → the **assoc
//!    fallback**: every workspace fn declared inside some `impl`/`trait`
//!    block and named `f` — `T::f` can only name an associated item, so
//!    free fns are provably not candidates; (b) `T` is declared nowhere
//!    visible (macro-generated id types, unlisted foreign types) → zero
//!    candidates — no visible fn can be its associated item;
//! 7. everything else → the **any-name fallback**: every workspace fn
//!    named `f` for free/path calls; for method calls on opaque
//!    receivers, every workspace method named `m` that takes `self` (a
//!    `recv.m(..)` call cannot dispatch to a self-less constructor).
//!
//! Rung 7 is the conservative floor: it can only create false
//! reachability (handled by `lint:allow` at the source site), never
//! hide a real path — the soundness direction the whole pass is built
//! around. The precision rungs exist to shrink it: `--write` reports
//! `fallback_edges` (free/path any-name edges) and
//! `method_fallback_edges` (opaque-method edges) separately, and a
//! golden test pins the former's edge list under an audited ceiling.

use std::collections::{BTreeMap, BTreeSet};

use crate::extract::{
    ArithSite, CapacitySite, CastSite, EffectSite, FileExtract, FlowBind, LockSite, SourceKind,
    SourceSite,
};
use crate::reach::Edges;
use serde::{Serialize, Value};
use serde_json::json;

/// The workspace crate-dependency DAG, used to prune infeasible edges:
/// a fn in crate A cannot call a fn in crate B unless A (transitively)
/// depends on B — `rustc` would not even resolve the name. This is the
/// one *under*-approximation-free filter layered on the conservative
/// name fallback: it removes edges that are impossible by construction,
/// never edges that are merely unlikely.
#[derive(Debug, Clone, Default)]
pub struct CrateDeps {
    /// crate → transitive dependency closure (crate names as they
    /// appear as the first qname segment, e.g. `spec`, `core`).
    deps: BTreeMap<String, BTreeSet<String>>,
}

impl CrateDeps {
    /// No pruning: every cross-crate edge is feasible. Used by
    /// in-memory fixture analyses that have no Cargo metadata.
    pub fn permissive() -> CrateDeps {
        CrateDeps::default()
    }

    /// Builds from direct-dependency pairs `(crate, dep)`, computing
    /// the transitive closure.
    pub fn from_pairs(pairs: &[(String, String)]) -> CrateDeps {
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (a, b) in pairs {
            deps.entry(a.clone()).or_default().insert(b.clone());
            deps.entry(b.clone()).or_default();
        }
        // Closure: iterate to fixpoint (the workspace DAG is tiny).
        loop {
            let mut grew = false;
            let snapshot = deps.clone();
            for set in deps.values_mut() {
                let extra: BTreeSet<String> = set
                    .iter()
                    .filter_map(|d| snapshot.get(d))
                    .flatten()
                    .filter(|d| !set.contains(*d))
                    .cloned()
                    .collect();
                if !extra.is_empty() {
                    set.extend(extra);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        CrateDeps { deps }
    }

    /// Whether a call edge from crate `a` to crate `b` is feasible.
    /// Crates absent from the map (fixtures, the root package) are
    /// treated permissively — pruning must never under-approximate.
    pub fn edge_ok(&self, a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        match self.deps.get(a) {
            Some(set) => !self.deps.contains_key(b) || set.contains(b),
            None => true,
        }
    }
}

/// First qname segment = crate.
fn crate_of(qname: &str) -> &str {
    qname.split("::").next().unwrap_or(qname)
}

/// Std / foreign type and path qualifiers whose associated fns never
/// reenter workspace code directly (callbacks they take are closures,
/// whose bodies the extractor already attributes to the defining fn).
/// Resolving `Vec::new(..)` to every workspace `new` would only add
/// noise, so these short-circuit to "no candidates".
const STD_QUALIFIERS: &[&str] = &[
    "Arc",
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Box",
    "Cell",
    "Command",
    "Condvar",
    "Cow",
    "Duration",
    "File",
    "HashMap",
    "HashSet",
    "Instant",
    "Ipv4Addr",
    "Mutex",
    "NonZeroU32",
    "NonZeroUsize",
    "Option",
    "OsStr",
    "OsString",
    "Ordering",
    "Path",
    "PathBuf",
    "Rc",
    "RefCell",
    "Reverse",
    "RwLock",
    "SocketAddr",
    "String",
    "SystemTime",
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "Vec",
    "VecDeque",
    "char",
    "f32",
    "f64",
    "i32",
    "i64",
    "str",
    "u16",
    "u32",
    "u64",
    "u8",
    "usize",
];

fn is_std_qualifier(q: &str) -> bool {
    let first = q.split("::").next().unwrap_or(q);
    let last = q.rsplit("::").next().unwrap_or(q);
    matches!(first, "std" | "alloc") || STD_QUALIFIERS.contains(&last)
}

/// Std traits whose UFCS form (`Default::default()`, `From::from(..)`)
/// can dispatch into a manual workspace impl. Qualified calls through
/// these keep the assoc-restricted fallback instead of resolving to
/// zero, even though the trait itself is declared nowhere visible.
const STD_TRAITS: &[&str] = &[
    "AsMut",
    "AsRef",
    "Borrow",
    "BorrowMut",
    "Clone",
    "Debug",
    "Default",
    "Deref",
    "DerefMut",
    "Display",
    "Eq",
    "Extend",
    "From",
    "FromIterator",
    "FromStr",
    "Hash",
    "Into",
    "IntoIterator",
    "Iterator",
    "Ord",
    "PartialEq",
    "PartialOrd",
    "Read",
    "ToOwned",
    "ToString",
    "TryFrom",
    "TryInto",
    "Write",
];

/// Whether a path segment is type-shaped by Rust naming convention
/// (UpperCamelCase initial). Like the rest of the std-only engine this
/// leans on convention; a lowercase-named type would fall through to
/// the conservative any-name fallback, which is the sound direction.
fn type_shaped(seg: &str) -> bool {
    seg.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// The resolution rungs, in ladder order. Every call site is attributed
/// to exactly one (the rung that decided its candidate set).
pub const RUNGS: &[&str] = &[
    "self_method",
    "self_type",
    "module_local",
    "import",
    "import_foreign",
    "type_qualified",
    "module_qualified",
    "std_foreign",
    "assoc_fallback",
    "type_unknown",
    "fallback",
    "method_fallback",
];

/// Per-build resolution telemetry: how precise the ladder was on this
/// workspace. Serialized into the graph JSON (`resolution` section) and
/// summarized by `--write`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolutionStats {
    /// Total call sites resolved.
    pub calls: usize,
    /// Call sites decided per rung (all [`RUNGS`] keys present).
    pub per_rung: BTreeMap<&'static str, usize>,
    /// Distinct edges inserted by the free/path any-name fallback.
    pub fallback_edges: usize,
    /// Distinct edges inserted by the opaque-method fallback.
    pub method_fallback_edges: usize,
    /// The any-name fallback edges themselves, as sorted
    /// `caller → callee` qname pairs. Pinned by a golden test so new
    /// code cannot silently lean on the imprecise rung; serialized into
    /// `callgraph.json` and printed by `--write` (the opaque-method
    /// list is elided — thousands of entries, same information as the
    /// count).
    pub fallback_pairs: Vec<(String, String)>,
}

impl ResolutionStats {
    fn new() -> ResolutionStats {
        let mut s = ResolutionStats::default();
        for r in RUNGS {
            s.per_rung.insert(r, 0);
        }
        s
    }

    fn bump(&mut self, rung: &'static str) {
        self.calls += 1;
        *self.per_rung.entry(rung).or_insert(0) += 1;
    }

    /// The counts-only `resolution` section, rungs in ladder order —
    /// the same value in `callgraph.json` and the lint report.
    pub fn to_value(&self) -> Value {
        let rung = |r: &&'static str| {
            let decided = self.per_rung.get(*r).copied().unwrap_or(0);
            (r.to_string(), decided.to_value())
        };
        json!({
            "calls": self.calls,
            "fallback_edges": self.fallback_edges,
            "method_fallback_edges": self.method_fallback_edges,
            "rungs": Value::Obj(RUNGS.iter().map(rung).collect()),
        })
    }
}

/// A normalized `use` target: either a path into the workspace
/// (segments rebased onto qname space: `crate::deps` in crate `spec`
/// becomes `["spec", "deps"]`) or a foreign (std / external) path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ImportTarget {
    Workspace(Vec<String>),
    Foreign,
}

/// Rebases an import path onto qname space. `crate::` roots at the
/// caller's crate, `self::`/`super::` walk the module path, and
/// `specweb_x::` maps to workspace crate `x` (the package-name idiom
/// for cross-crate deps). Anything else is foreign.
fn normalize_import(
    path: &[String],
    module: &str,
    workspace_crates: &BTreeSet<&str>,
) -> ImportTarget {
    let Some(first) = path.first() else {
        return ImportTarget::Foreign;
    };
    let mut segs: Vec<String> = match first.as_str() {
        "crate" => vec![crate_of(module).to_string()],
        "self" => module.split("::").map(str::to_string).collect(),
        "super" => {
            let mut parts: Vec<String> = module.split("::").map(str::to_string).collect();
            parts.pop();
            parts
        }
        w => {
            if let Some(stripped) = w.strip_prefix("specweb_") {
                if workspace_crates.contains(stripped) {
                    vec![stripped.to_string()]
                } else {
                    return ImportTarget::Foreign;
                }
            } else if w == "specweb" && workspace_crates.contains("specweb") {
                vec![w.to_string()]
            } else {
                return ImportTarget::Foreign;
            }
        }
    };
    for s in &path[1..] {
        if s == "super" {
            segs.pop();
        } else {
            segs.push(s.clone());
        }
    }
    ImportTarget::Workspace(segs)
}

/// One resolved function node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Module path (no type/fn segments).
    pub module: String,
    /// Simple name.
    pub name: String,
    /// Enclosing impl/trait type, when any.
    pub self_type: Option<String>,
    /// True when the signature takes `&mut` (locally-mutating).
    pub sig_mut: bool,
    /// Resolved callees (qnames).
    pub calls: BTreeSet<String>,
    /// Callees resolved from call sites inside a `core::par` worker
    /// closure (always a subset of `calls`), with the first such call
    /// line — G5's edge set.
    pub par_calls: BTreeMap<String, usize>,
    /// Nondeterminism / hazard sources, deduped by (line, kind).
    pub sources: Vec<SourceSite>,
    /// Direct effect sites (IO / globals), deduped by (line, kind).
    pub effects: Vec<EffectSite>,
    /// Raw index expressions (recorded, not enforced).
    pub index_sites: usize,
    /// Lock acquisitions, in source order.
    pub locks: Vec<LockSite>,
    /// Parameter names in declaration order (`self` excluded).
    pub params: Vec<String>,
    /// Dataflow binding edges (`let` / `for` / assignment).
    pub binds: Vec<FlowBind>,
    /// Unchecked integer arithmetic sites (W1).
    pub arith: Vec<ArithSite>,
    /// `as`-casts to primitive numeric types (W2).
    pub casts: Vec<CastSite>,
    /// Capacity allocations (W3).
    pub caps: Vec<CapacitySite>,
    /// `checked_*` / `saturating_*` call sites.
    pub checked_sites: usize,
    /// Identifiers that may flow into the return value.
    pub ret_idents: BTreeSet<String>,
    /// Identifiers with a visible dominating bound.
    pub bounded: BTreeSet<String>,
    /// Call sites with their *precisely* resolved callees, for width
    /// propagation. Only edges decided by a precise rung appear in
    /// `callees` — propagating scale taint through the any-name /
    /// opaque-method fallbacks (thousands of edges) would taint the
    /// whole graph, so the width engine deliberately trades that
    /// soundness margin for precision (DESIGN §14).
    pub call_sites: Vec<ResolvedCall>,
}

/// One call site with its precise-rung callee set (see
/// [`Node::call_sites`]).
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    /// Callee as written (method or final path segment).
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// Identifier roots per argument position.
    pub args: Vec<Vec<String>>,
    /// Precisely resolved callee qnames (empty for fallback-decided or
    /// foreign calls).
    pub callees: BTreeSet<String>,
}

/// Rungs whose candidate sets are trusted for width propagation: the
/// caller demonstrably names this callee (receiver type, import, module
/// path) rather than matching on a bare name.
const PRECISE_RUNGS: &[&str] = &[
    "self_method",
    "self_type",
    "module_local",
    "import",
    "type_qualified",
    "module_qualified",
];

/// Per-module named-import scope, indexed for the resolver:
/// (module, alias) → normalized targets (unioned over cfg twins /
/// duplicate imports — the sound direction).
fn named_imports(
    files: &[FileExtract],
    workspace_crates: &BTreeSet<&str>,
) -> BTreeMap<(String, String), BTreeSet<ImportTarget>> {
    let mut named: BTreeMap<(String, String), BTreeSet<ImportTarget>> = BTreeMap::new();
    for u in files.iter().flat_map(|fx| &fx.imports) {
        named
            .entry((u.module.clone(), u.alias.clone()))
            .or_default()
            .insert(normalize_import(&u.path, &u.module, workspace_crates));
    }
    named
}

/// What an import-scope lookup decided.
enum ImportHit<'a> {
    /// The alias is imported and yields these candidates (possibly
    /// empty-but-confident: the target scope is fully visible).
    Resolved(Vec<&'a str>),
    /// The alias is imported, every target is foreign: zero candidates.
    Foreign,
    /// The alias is imported but the target scope is not one the
    /// extractor can enumerate (e.g. a type with out-of-module impls):
    /// keep climbing the ladder.
    Inconclusive,
    /// No such import in this module's scope.
    None,
}

/// The resolved workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// qname → node. BTreeMap so every traversal and the JSON dump are
    /// order-deterministic.
    pub nodes: BTreeMap<String, Node>,
    /// Union of every file's float-declared names (see
    /// [`FileExtract::float_names`]) — the width engine's type oracle.
    pub float_names: BTreeSet<String>,
    /// Names declared with a saturating unit type somewhere and with an
    /// integer primitive nowhere (see [`FileExtract::unit_names`]): W1
    /// skips arithmetic whose left operand ends in one. A name declared
    /// both ways could be the raw integer, so it stays checked.
    pub unit_names: BTreeSet<String>,
}

impl CallGraph {
    /// Builds the graph from per-file extraction results, pruning
    /// candidate edges that contradict the crate-dependency DAG (see
    /// [`CrateDeps`]), and reports how each call site was resolved.
    pub fn build(files: &[FileExtract], deps: &CrateDeps) -> (CallGraph, ResolutionStats) {
        // Index pass.
        let mut by_name: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut by_type_name: BTreeMap<(&str, &str), Vec<&str>> = BTreeMap::new();
        let mut by_module_name: BTreeMap<(&str, &str), Vec<&str>> = BTreeMap::new();
        // Full scope prefix (module + type/fn segments) → fns directly
        // inside it; the lookup space for import targets.
        let mut by_scope_name: BTreeMap<(&str, &str), Vec<&str>> = BTreeMap::new();
        let mut modules: BTreeSet<&str> = BTreeSet::new();
        for fx in files {
            for f in &fx.fns {
                by_name.entry(&f.name).or_default().push(&f.qname);
                if let Some(t) = &f.self_type {
                    by_type_name
                        .entry((t.as_str(), f.name.as_str()))
                        .or_default()
                        .push(&f.qname);
                }
                by_module_name
                    .entry((f.module.as_str(), f.name.as_str()))
                    .or_default()
                    .push(&f.qname);
                if let Some((prefix, name)) = f.qname.rsplit_once("::") {
                    by_scope_name
                        .entry((prefix, name))
                        .or_default()
                        .push(&f.qname);
                }
                modules.insert(&f.module);
            }
        }
        let known_types: BTreeSet<&str> = files
            .iter()
            .flat_map(|fx| fx.impl_types.iter().map(String::as_str))
            .collect();
        // Every type name *visible* to the engine: impl'd, trait-decl'd,
        // or struct/enum-decl'd. A type-shaped qualifier matching none
        // of these (macro-generated id types, unlisted foreign types)
        // provably has no associated fns in visible source, so `T::f`
        // through it resolves to zero workspace candidates.
        let declared_types: BTreeSet<&str> = known_types
            .iter()
            .copied()
            .chain(
                files
                    .iter()
                    .flat_map(|fx| fx.decl_types.iter().map(String::as_str)),
            )
            .collect();
        // `T::f` can only resolve to an associated item of *some* type,
        // so the tight fallback for type-shaped qualifiers is the assoc
        // fns named `f` — never free fns.
        let mut assoc_by_name: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for fx in files {
            for f in &fx.fns {
                if f.self_type.is_some() {
                    assoc_by_name.entry(&f.name).or_default().push(&f.qname);
                }
            }
        }
        // A `recv.m(..)` call can only dispatch to a fn with a `self`
        // receiver; self-less associated fns (`Opts::parse()`-style
        // constructors) are excluded so e.g. a std `.parse()` cannot
        // fallback-edge into them.
        let method_qnames: BTreeSet<&str> = files
            .iter()
            .flat_map(|fx| fx.fns.iter())
            .filter(|f| f.self_type.is_some() && f.has_self)
            .map(|f| f.qname.as_str())
            .collect();
        let workspace_crates: BTreeSet<&str> = modules.iter().map(|m| crate_of(m)).collect();
        let named = named_imports(files, &workspace_crates);

        // Looks up `prefix::name` fns through a named-import binding.
        let import_lookup = |module: &str, alias: &str, rest: &[&str], call_name: Option<&str>| {
            let Some(targets) = named.get(&(module.to_string(), alias.to_string())) else {
                return ImportHit::None;
            };
            let mut cands: Vec<&str> = Vec::new();
            let mut all_foreign = true;
            let mut confident = true;
            for t in targets {
                let ImportTarget::Workspace(segs) = t else {
                    continue;
                };
                all_foreign = false;
                // Qualified call: the target extends with the rest of
                // the written path and the call name. Unqualified call:
                // the target itself names the fn (its last segment is
                // the original name behind any `as`-rename).
                let (prefix, name) = match call_name {
                    Some(n) => {
                        let mut p = segs.clone();
                        p.extend(rest.iter().map(|s| s.to_string()));
                        (p.join("::"), n.to_string())
                    }
                    None => {
                        let Some((last, init)) = segs.split_last() else {
                            continue;
                        };
                        (init.join("::"), last.clone())
                    }
                };
                if let Some(v) = by_scope_name.get(&(prefix.as_str(), name.as_str())) {
                    cands.extend(v.iter().copied());
                } else if !modules.contains(prefix.as_str()) {
                    // The prefix is a type (or unknown scope): impls
                    // may live in sibling modules, so an empty lookup
                    // here is not proof of absence.
                    confident = false;
                }
            }
            if !cands.is_empty() {
                ImportHit::Resolved(cands)
            } else if all_foreign {
                ImportHit::Foreign
            } else if confident {
                ImportHit::Resolved(Vec::new())
            } else {
                ImportHit::Inconclusive
            }
        };

        // The two conservative candidate pools: every assoc fn, and
        // every fn at all, of a given name.
        let assoc_named = |name: &str| assoc_by_name.get(name).cloned().unwrap_or_default();
        let any_named = |name: &str| by_name.get(name).cloned().unwrap_or_default();

        let mut stats = ResolutionStats::new();
        let mut nodes: BTreeMap<String, Node> = BTreeMap::new();
        for fx in files {
            for f in &fx.fns {
                let mut calls: BTreeSet<String> = BTreeSet::new();
                let mut par_calls: BTreeMap<String, usize> = BTreeMap::new();
                let mut call_sites: Vec<ResolvedCall> = Vec::new();
                for c in &f.calls {
                    let (cands, rung): (Vec<&str>, &'static str) = if c.is_method {
                        let self_hit = if c.on_self {
                            f.self_type
                                .as_ref()
                                .and_then(|t| by_type_name.get(&(t.as_str(), c.name.as_str())))
                        } else {
                            None
                        };
                        match self_hit {
                            Some(v) => (v.clone(), "self_method"),
                            // Opaque receiver — or a self-method the
                            // enclosing type does not define (blanket
                            // trait impl, deref): every *method* named
                            // `m` (free fns can't be method targets).
                            None => (
                                any_named(&c.name)
                                    .into_iter()
                                    .filter(|q| method_qnames.contains(q))
                                    .collect(),
                                "method_fallback",
                            ),
                        }
                    } else if !c.qualifier.is_empty() {
                        let q_segs: Vec<&str> = c.qualifier.split("::").collect();
                        let last = *q_segs.last().unwrap_or(&"");
                        // Rung 1b: `Self::f` → the enclosing type.
                        let self_hit = if c.qualifier == "Self" {
                            f.self_type
                                .as_ref()
                                .and_then(|t| by_type_name.get(&(t.as_str(), c.name.as_str())))
                        } else {
                            None
                        };
                        if let Some(v) = self_hit {
                            (v.clone(), "self_type")
                        } else if c.qualifier == "Self" {
                            // `Self::f` the enclosing type does not
                            // visibly define: a derive-generated assoc
                            // fn. It can only dispatch onward to assoc
                            // fns (a derived `default` calls the field
                            // types' `default`s), never to free fns.
                            (assoc_named(&c.name), "assoc_fallback")
                        } else {
                            // Rung 2: named import on the first path
                            // segment.
                            match import_lookup(&f.module, q_segs[0], &q_segs[1..], Some(&c.name)) {
                                ImportHit::Resolved(v) => (v, "import"),
                                ImportHit::Foreign => (Vec::new(), "import_foreign"),
                                ImportHit::Inconclusive | ImportHit::None => {
                                    if known_types.contains(last) {
                                        // Rung 3: known impl/trait type.
                                        match by_type_name.get(&(last, c.name.as_str())) {
                                            Some(v) => (v.clone(), "type_qualified"),
                                            // The type is visible but
                                            // `f` is not: a derived
                                            // assoc fn. Assoc-restrict.
                                            None => (assoc_named(&c.name), "assoc_fallback"),
                                        }
                                    } else if let Some(m) =
                                        match_module(&modules, &c.qualifier, &f.module)
                                    {
                                        // Rung 4: known module path.
                                        (
                                            by_module_name
                                                .get(&(m, c.name.as_str()))
                                                .cloned()
                                                .unwrap_or_default(),
                                            "module_qualified",
                                        )
                                    } else if is_std_qualifier(&c.qualifier) {
                                        // Rung 5: std/foreign.
                                        (Vec::new(), "std_foreign")
                                    } else if type_shaped(last) {
                                        if declared_types.contains(last)
                                            || STD_TRAITS.contains(&last)
                                        {
                                            // Rung 6a: `T::f` on a declared
                                            // type or a std trait (UFCS) —
                                            // only assoc fns can match.
                                            (assoc_named(&c.name), "assoc_fallback")
                                        } else {
                                            // Rung 6b: a type with no
                                            // visible decl at all (macro-
                                            // generated ids, unlisted
                                            // foreign types): no visible fn
                                            // can be its assoc item.
                                            (Vec::new(), "type_unknown")
                                        }
                                    } else {
                                        // Rung 7: any-name fallback.
                                        (any_named(&c.name), "fallback")
                                    }
                                }
                            }
                        }
                    } else {
                        // Unqualified free call: same module first.
                        match by_module_name.get(&(f.module.as_str(), c.name.as_str())) {
                            Some(v) => (v.clone(), "module_local"),
                            None => match import_lookup(&f.module, &c.name, &[], None) {
                                ImportHit::Resolved(v) => (v, "import"),
                                ImportHit::Foreign => (Vec::new(), "import_foreign"),
                                ImportHit::Inconclusive | ImportHit::None => {
                                    (any_named(&c.name), "fallback")
                                }
                            },
                        }
                    };
                    stats.bump(rung);
                    let from_crate = crate_of(&f.qname);
                    let precise = PRECISE_RUNGS.contains(&rung);
                    let mut callees: BTreeSet<String> = BTreeSet::new();
                    for q in cands {
                        if q != f.qname && deps.edge_ok(from_crate, crate_of(q)) {
                            let inserted = calls.insert(q.to_string());
                            if inserted {
                                match rung {
                                    "fallback" => {
                                        stats.fallback_edges += 1;
                                        stats.fallback_pairs.push((f.qname.clone(), q.to_string()));
                                    }
                                    "method_fallback" => stats.method_fallback_edges += 1,
                                    _ => {}
                                }
                            }
                            if c.in_par {
                                par_calls.entry(q.to_string()).or_insert(c.line);
                            }
                            if precise {
                                callees.insert(q.to_string());
                            }
                        }
                    }
                    call_sites.push(ResolvedCall {
                        name: c.name.clone(),
                        line: c.line,
                        args: c.args.clone(),
                        callees,
                    });
                }

                // Dedup sources by (line, kind) — `SystemTime::now()`
                // trips both the ident and the call-path pattern.
                let mut seen: BTreeSet<(usize, SourceKind)> = BTreeSet::new();
                let sources: Vec<SourceSite> = f
                    .sources
                    .iter()
                    .filter(|s| seen.insert((s.line, s.kind)))
                    .cloned()
                    .collect();
                let mut eff_seen: BTreeSet<(usize, crate::extract::EffectKind)> = BTreeSet::new();
                let effects: Vec<EffectSite> = f
                    .effects
                    .iter()
                    .filter(|e| eff_seen.insert((e.line, e.kind)))
                    .cloned()
                    .collect();

                let node = Node {
                    file: fx.rel.clone(),
                    line: f.line,
                    module: f.module.clone(),
                    name: f.name.clone(),
                    self_type: f.self_type.clone(),
                    sig_mut: f.sig_mut,
                    calls,
                    par_calls,
                    sources,
                    effects,
                    index_sites: f.index_sites,
                    locks: f.locks.clone(),
                    params: f.params.clone(),
                    binds: f.binds.clone(),
                    arith: f.arith.clone(),
                    casts: f.casts.clone(),
                    caps: f.caps.clone(),
                    checked_sites: f.checked_sites,
                    ret_idents: f.ret_idents.clone(),
                    bounded: f.bounded.clone(),
                    call_sites,
                };
                match nodes.entry(f.qname.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(node);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        // Same qname twice (e.g. cfg-gated twins):
                        // merge conservatively.
                        let n = e.get_mut();
                        n.calls.extend(node.calls);
                        for (q, l) in node.par_calls {
                            n.par_calls.entry(q).or_insert(l);
                        }
                        n.sources.extend(node.sources);
                        n.effects.extend(node.effects);
                        n.sig_mut |= node.sig_mut;
                        n.index_sites += node.index_sites;
                        n.locks.extend(node.locks);
                        // Width data merges additively (extra sites and
                        // flows are the sound direction); the twin with
                        // more parameters wins the positional map.
                        if node.params.len() > n.params.len() {
                            n.params = node.params;
                        }
                        n.binds.extend(node.binds);
                        n.arith.extend(node.arith);
                        n.casts.extend(node.casts);
                        n.caps.extend(node.caps);
                        n.checked_sites += node.checked_sites;
                        n.ret_idents.extend(node.ret_idents);
                        n.bounded.extend(node.bounded);
                        n.call_sites.extend(node.call_sites);
                    }
                }
            }
        }
        stats.fallback_pairs.sort();
        stats.fallback_pairs.dedup();
        let union = |names: fn(&FileExtract) -> &BTreeSet<String>| -> BTreeSet<String> {
            files.iter().flat_map(names).cloned().collect()
        };
        let int_names = union(|fx| &fx.int_names);
        let graph = CallGraph {
            nodes,
            float_names: union(|fx| &fx.float_names),
            unit_names: &union(|fx| &fx.unit_names) - &int_names,
        };
        (graph, stats)
    }

    /// The caller → callees adjacency [`crate::reach`] searches.
    pub fn edges(&self) -> Edges {
        let calls = |(q, n): (&String, &Node)| (q.clone(), n.calls.clone());
        self.nodes.iter().map(calls).collect()
    }

    /// The `callgraph.json` artifact (schema `specweb-callgraph/v2`):
    /// every map is a `BTreeMap`, so identical inputs give the
    /// identical value — the golden test diffs it across `--jobs`.
    pub fn to_value(
        &self,
        roots: &[String],
        hot_roots: &[String],
        stats: &ResolutionStats,
    ) -> Value {
        let edge_count: usize = self.nodes.values().map(|n| n.calls.len()).sum();
        let pair = |(from, to): &(String, String)| json!({"from": from, "to": to});
        let node = |(q, n): (&String, &Node)| {
            let row = json!({
                "file": n.file,
                "line": n.line,
                "sig_mut": n.sig_mut,
                "calls": n.calls,
                "par_calls": n.par_calls,
                "sources": n.sources,
                "effects": n.effects,
                "locks": n.locks,
                "index_sites": n.index_sites,
            });
            (q.clone(), row)
        };
        json!({
            "schema": "specweb-callgraph/v2",
            "fn_count": self.nodes.len(),
            "edge_count": edge_count,
            "resolution": stats.to_value(),
            "fallback_pairs": stats.fallback_pairs.iter().map(pair).collect::<Vec<_>>(),
            "roots": roots,
            "hot_roots": hot_roots,
            "nodes": Value::Obj(self.nodes.iter().map(node).collect()),
        })
    }
}

/// Matches a call-site qualifier against the known module set:
/// an exact module path, a suffix of one (`deps::helper(..)` inside
/// `spec` matches `spec::deps`), or a `crate::`- / `specweb_*::`-
/// prefixed path rebased onto qname space.
fn match_module<'m>(
    modules: &BTreeSet<&'m str>,
    qualifier: &str,
    caller_module: &str,
) -> Option<&'m str> {
    let krate = caller_module.split("::").next().unwrap_or(caller_module);
    let q = if let Some(rest) = qualifier.strip_prefix("crate::") {
        Some(format!("{krate}::{rest}"))
    } else {
        // `specweb_core::par::…` → `core::par::…` (package-name idiom).
        qualifier.split_once("::").and_then(|(first, rest)| {
            first
                .strip_prefix("specweb_")
                .map(|c| format!("{c}::{rest}"))
        })
    };
    let q = q.as_deref().unwrap_or(qualifier);
    if qualifier == "crate" {
        return modules.get(krate).copied();
    }
    if let Some(m) = modules.get(q) {
        return Some(m);
    }
    // Suffix match: prefer the caller's own crate on ties.
    let mut hits: Vec<&str> = modules
        .iter()
        .filter(|m| m.ends_with(&format!("::{q}")))
        .copied()
        .collect();
    if hits.len() > 1 {
        if let Some(own) = hits
            .iter()
            .find(|m| m.split("::").next() == Some(krate))
            .copied()
        {
            return Some(own);
        }
    }
    hits.pop()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::extract::extract;
    use crate::lexer::sanitize;

    /// The graph of in-memory `(rel, src)` files, with its stats.
    fn graph_stats(files: &[(&str, &str)]) -> (CallGraph, ResolutionStats) {
        let extracts: Vec<FileExtract> = files
            .iter()
            .map(|(rel, src)| {
                let lines = sanitize(src);
                let skip = vec![false; lines.len()];
                extract(rel, &lines, &skip)
            })
            .collect();
        CallGraph::build(&extracts, &CrateDeps::permissive())
    }

    /// [`graph_stats`] without the stats — every analysis module's unit
    /// tests build their fixtures through this.
    pub(crate) fn graph(files: &[(&str, &str)]) -> CallGraph {
        graph_stats(files).0
    }

    #[test]
    fn cross_module_path_calls_resolve() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "pub fn entry() { helper::go(); }"),
            ("crates/a/src/helper.rs", "pub fn go() {}"),
        ]);
        let entry = &g.nodes["a::entry"];
        assert!(entry.calls.contains("a::helper::go"), "{entry:#?}");
    }

    #[test]
    fn self_calls_resolve_to_the_impl() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
struct T;
impl T {
    fn outer(&self) { self.inner(); }
    fn inner(&self) {}
}
struct U;
impl U {
    fn inner(&self) {}
}
",
        )]);
        let outer = &g.nodes["a::T::outer"];
        assert_eq!(
            outer.calls.iter().collect::<Vec<_>>(),
            ["a::T::inner"],
            "self.inner() must not edge to U::inner"
        );
    }

    #[test]
    fn self_qualified_calls_resolve_to_the_enclosing_type() {
        let (g, stats) = graph_stats(&[(
            "crates/a/src/lib.rs",
            "
struct T;
impl T {
    fn outer() { Self::helper(); }
    fn helper() {}
}
struct U;
impl U {
    fn helper() {}
}
",
        )]);
        let outer = &g.nodes["a::T::outer"];
        assert_eq!(
            outer.calls.iter().collect::<Vec<_>>(),
            ["a::T::helper"],
            "Self::helper() must not leak into the any-name set"
        );
        assert_eq!(stats.per_rung["self_type"], 1);
        assert_eq!(stats.per_rung["fallback"], 0);
    }

    #[test]
    fn self_method_misses_stay_methods_only() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
struct T;
impl T { fn run(&self) { self.visit(); } }
struct U;
impl U { fn visit(&self) {} }
fn visit() {}
",
        )]);
        let run = &g.nodes["a::T::run"];
        assert!(run.calls.contains("a::U::visit"), "{run:#?}");
        assert!(
            !run.calls.contains("a::visit"),
            "a free fn can never be a method target: {run:#?}"
        );
    }

    #[test]
    fn opaque_method_calls_fall_back_to_all_same_named_methods() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
struct T;
impl T { fn step(&self) {} }
struct U;
impl U { fn step(&self) {} }
fn drive(x: &T) { x.step(); }
",
        )]);
        let drive = &g.nodes["a::drive"];
        assert!(drive.calls.contains("a::T::step"));
        assert!(
            drive.calls.contains("a::U::step"),
            "conservative fallback keeps both"
        );
    }

    #[test]
    fn type_qualified_calls_resolve_to_the_type() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
struct T;
impl T { fn new() -> T { T } }
fn make() -> T { T::new() }
",
        )]);
        let make = &g.nodes["a::make"];
        assert_eq!(make.calls.iter().collect::<Vec<_>>(), ["a::T::new"]);
    }

    #[test]
    fn named_imports_resolve_unqualified_calls() {
        let (g, stats) = graph_stats(&[
            (
                "crates/a/src/lib.rs",
                "
use crate::util::helper;
pub fn entry() { helper(); }
pub mod util { pub fn helper() {} }
",
            ),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        let entry = &g.nodes["a::entry"];
        assert_eq!(
            entry.calls.iter().collect::<Vec<_>>(),
            ["a::util::helper"],
            "the import pins the origin; b::helper is not a candidate"
        );
        assert_eq!(stats.per_rung["import"], 1);
        assert_eq!(stats.fallback_edges, 0);
    }

    #[test]
    fn as_renamed_imports_follow_the_original_name() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
use crate::util::helper as h;
pub fn entry() { h(); }
pub mod util { pub fn helper() {} }
",
        )]);
        let entry = &g.nodes["a::entry"];
        // Name matching alone would resolve `h()` to *nothing* (a
        // missed edge — the unsound direction).
        assert_eq!(entry.calls.iter().collect::<Vec<_>>(), ["a::util::helper"]);
    }

    #[test]
    fn foreign_imports_shortcircuit_to_zero() {
        let (g, stats) = graph_stats(&[(
            "crates/a/src/lib.rs",
            "
use std::mem::replace;
pub fn entry() { replace(a, b); }
pub fn replace() {}
pub mod inner { pub fn replace() {} }
",
        )]);
        // `replace` IS module-local here, so module_local wins; move
        // the import into a submodule scope to test the foreign rung.
        assert!(g.nodes["a::entry"].calls.contains("a::replace"));
        assert_eq!(stats.per_rung["module_local"], 1);

        let (g2, stats2) = graph_stats(&[(
            "crates/a/src/lib.rs",
            "
pub mod worker {
    use std::mem::replace;
    pub fn entry() { replace(a, b); }
}
pub fn replace() {}
",
        )]);
        assert!(
            g2.nodes["a::worker::entry"].calls.is_empty(),
            "std::mem::replace never reenters the workspace: {:#?}",
            g2.nodes["a::worker::entry"]
        );
        assert_eq!(stats2.per_rung["import_foreign"], 1);
        assert_eq!(stats2.fallback_edges, 0);
    }

    #[test]
    fn qualified_calls_resolve_through_module_imports() {
        let (g, stats) = graph_stats(&[
            (
                "crates/a/src/lib.rs",
                "
use specweb_b::util;
pub fn entry() { util::go(); }
",
            ),
            ("crates/b/src/util.rs", "pub fn go() {}"),
            ("crates/c/src/util.rs", "pub fn go() {}"),
        ]);
        let entry = &g.nodes["a::entry"];
        assert_eq!(
            entry.calls.iter().collect::<Vec<_>>(),
            ["b::util::go"],
            "the import disambiguates which util module is meant"
        );
        assert_eq!(stats.per_rung["import"], 1);
    }

    #[test]
    fn type_imports_resolve_assoc_calls_to_the_right_module() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "
use specweb_b::ids::ClientId;
pub fn entry() { ClientId::from(3); }
",
            ),
            (
                "crates/b/src/ids.rs",
                "pub struct ClientId; impl ClientId { pub fn from(x: usize) -> ClientId { ClientId } }",
            ),
            (
                "crates/c/src/lib.rs",
                "pub struct Wrap; impl Wrap { pub fn from(x: usize) -> Wrap { Wrap } }",
            ),
        ]);
        let entry = &g.nodes["a::entry"];
        assert_eq!(
            entry.calls.iter().collect::<Vec<_>>(),
            ["b::ids::ClientId::from"],
            "no conservative chain through every `from` in the workspace"
        );
    }

    #[test]
    fn unknown_names_still_fall_back_conservatively() {
        let (g, stats) = graph_stats(&[
            ("crates/a/src/lib.rs", "pub fn entry() { mystery(); }"),
            ("crates/b/src/lib.rs", "pub fn mystery() {}"),
        ]);
        let entry = &g.nodes["a::entry"];
        assert!(entry.calls.contains("b::mystery"));
        assert_eq!(stats.per_rung["fallback"], 1);
        assert_eq!(stats.fallback_edges, 1);
    }

    #[test]
    fn json_is_stable_under_input_permutation() {
        let files = [
            ("crates/a/src/lib.rs", "pub fn f() { g(); }\npub fn g() {}"),
            ("crates/b/src/lib.rs", "pub fn h() {}"),
        ];
        let mut rev = files;
        rev.reverse();
        let (ga, sa) = graph_stats(&files);
        let (gb, sb) = graph_stats(&rev);
        let a = ga.to_value(&[], &[], &sa);
        assert_eq!(a, gb.to_value(&[], &[], &sb));
        assert_eq!(a["schema"], "specweb-callgraph/v2");
        assert_eq!(a["resolution"]["calls"], 1);
    }

    #[test]
    fn self_edges_are_dropped() {
        let g = graph(&[("crates/a/src/lib.rs", "pub fn rec(n: u32) { rec(n); }")]);
        assert!(g.nodes["a::rec"].calls.is_empty());
    }

    #[test]
    fn par_closure_calls_are_tracked() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
pub fn drive(pool: &Pool) { pool.map_indexed(&xs, |_, x| work(x)); finish(); }
pub fn work(x: u32) -> u32 { x }
pub fn finish() {}
",
        )]);
        let drive = &g.nodes["a::drive"];
        assert!(drive.calls.contains("a::work"));
        assert!(drive.calls.contains("a::finish"));
        assert_eq!(
            drive.par_calls.keys().collect::<Vec<_>>(),
            ["a::work"],
            "{drive:#?}"
        );
    }
}
