//! Item / call-site extraction over the sanitized token stream.
//!
//! The graph rules (DESIGN §9) need a whole-workspace call graph, but
//! the vendored-deps constraint rules out `syn`. This module
//! is the std-only middle ground: it tokenizes the per-line code
//! channel produced by [`crate::lexer::sanitize`] and runs a small
//! state machine that recognizes
//!
//! * `mod` nesting, `impl`/`trait` blocks, and `fn` items (including
//!   nested fns), yielding a qualified name per function such as
//!   `spec::deps::DepMatrix::closure`;
//! * call sites — free calls (`helper(..)`), path calls
//!   (`module::helper(..)`, `Type::method(..)`), and method calls
//!   (`x.method(..)`) — attributed to the innermost enclosing `fn`
//!   (closure bodies attribute to the defining fn, which is exactly the
//!   conservative choice taint analysis wants);
//! * nondeterminism / hazard **sources** per function: wall-clock
//!   reads, unseeded RNG constructors, hash-collection *iteration*
//!   (not mere use — see below), thread spawns, panic-capable ops
//!   (`unwrap`/`expect`; raw indexing is counted but not enforced),
//!   and lock acquisitions.
//!
//! Hash iteration is detected by first collecting, per file, the
//! identifiers declared with a hash-collection type (`x: HashMap<..>`
//! ascriptions — struct fields, params, lets — and
//! `let x = HashMap::new()`-style constructions), then flagging any
//! iteration of such a name (`for .. in x`, `x.iter()`, `x.keys()`,
//! `x.values()`, `x.drain(..)`, …). The approximation is documented in
//! DESIGN §9: names are file-scoped and matched textually, so a hash
//! map that escapes behind a generic `IntoIterator` is out of scope,
//! while a same-named non-hash binding in the same file may be flagged
//! spuriously (the `lint:allow` valve covers that direction).
//!
//! Everything here is deterministic by construction — no hashing, no
//! wall clock — so the serialized call graph is byte-identical for any
//! `--jobs` count.

use std::collections::BTreeSet;

use serde::{Serialize, Value};

use crate::lexer::Line;

/// The nondeterminism / hazard source classes the taint pass tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceKind {
    /// `Instant::now` / `SystemTime` outside the obs wall channel.
    WallClock,
    /// `thread_rng` / `from_entropy`.
    Rng,
    /// Iteration over a hash-typed binding.
    HashIter,
    /// `thread::spawn` / `thread::Builder` / `thread::scope` outside
    /// the sanctioned owners.
    ThreadSpawn,
    /// `.unwrap()` / `.expect()`.
    Panic,
}

impl SourceKind {
    /// Stable identifier used in JSON and diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall_clock",
            SourceKind::Rng => "unseeded_rng",
            SourceKind::HashIter => "hash_iter",
            SourceKind::ThreadSpawn => "thread_spawn",
            SourceKind::Panic => "panic",
        }
    }
}

impl Serialize for SourceKind {
    fn to_value(&self) -> Value {
        self.id().to_value()
    }
}

/// One detected source site inside a function (a `sources` row of
/// `callgraph.json` as it stands).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct SourceSite {
    /// 1-based line number.
    pub line: usize,
    /// Source class.
    pub kind: SourceKind,
    /// What tripped it (`follows` for a hash iteration, `unwrap` for a
    /// panic site, …).
    pub what: String,
}

/// Side-effect classes the purity engine tracks, beyond the
/// nondeterminism sources above. A function carrying (or reaching) one
/// of these is *effectful*: its work is observable outside its
/// arguments, so it can never be a shard-merge or replay function (G4)
/// and may not run inside a `core::par` worker closure (G5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EffectKind {
    /// File, socket, or std-stream IO (`fs::write`, `.write_all(..)`,
    /// `println!`, …).
    Io,
    /// Process-global state: environment, process control
    /// (`env::var`, `process::exit`, …).
    Global,
}

impl EffectKind {
    /// Stable identifier used in JSON and diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            EffectKind::Io => "io",
            EffectKind::Global => "global",
        }
    }
}

impl Serialize for EffectKind {
    fn to_value(&self) -> Value {
        self.id().to_value()
    }
}

/// One detected effect site inside a function (an `effects` row of
/// `callgraph.json` as it stands).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct EffectSite {
    /// 1-based line number.
    pub line: usize,
    /// Effect class.
    pub kind: EffectKind,
    /// What tripped it (`fs::write`, `println!`, `write_all`, …).
    pub what: String,
    /// True when the site sits inside a `core::par` worker closure
    /// (see [`Call::in_par`]) — a direct G5 hit.
    pub in_par: bool,
}

/// One `use` declaration binding, flattened from the use tree:
/// `use a::b::{c, d as e, f::*};` yields two imports. A glob binds no
/// name the resolver could look up, so it yields none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// Module path whose scope the `use` appears in (inline `mod`
    /// scopes included; fn-scoped `use`s attribute to the module,
    /// which over-approximates their scope — the sound direction).
    pub module: String,
    /// Path segments as written (`["std", "collections", "HashMap"]`).
    /// `crate`/`self`/`super` prefixes are kept verbatim; the resolver
    /// normalizes them against `module`.
    pub path: Vec<String>,
    /// The name this import binds in the module's scope: the last path
    /// segment, or the `as` rename.
    pub alias: String,
    /// 1-based line of the binding.
    pub line: usize,
}

/// An unresolved call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee as written (the final path segment / method name).
    pub name: String,
    /// `a::b` for `a::b::name(..)`; empty for free and method calls.
    pub qualifier: String,
    /// True for `x.name(..)` / `self.name(..)` forms.
    pub is_method: bool,
    /// True specifically for `self.name(..)`.
    pub on_self: bool,
    /// True when the call site sits inside the argument list of a
    /// `core::par` dispatch ([`PAR_ENTRIES`]) — i.e. inside a worker
    /// closure. G5 checks these calls against the purity
    /// classification.
    pub in_par: bool,
    /// 1-based line number.
    pub line: usize,
    /// Identifier roots per argument position (top-level commas of the
    /// argument list). The width engine maps these positionally onto
    /// the callee's parameters to propagate scale taint into calls.
    pub args: Vec<Vec<String>>,
}

/// Integer arithmetic operator classes the width engine tracks (W1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArithOp {
    /// `*` / `*=`.
    Mul,
    /// `+` / `+=`.
    Add,
    /// `<<` / `<<=`.
    Shl,
}

impl ArithOp {
    /// Operator as written, for diagnostics.
    pub fn sym(self) -> &'static str {
        match self {
            ArithOp::Mul => "*",
            ArithOp::Add => "+",
            ArithOp::Shl => "<<",
        }
    }
}

/// One unchecked integer arithmetic site (`a * b`, `a += b`, `n << k`).
/// `checked_*`/`saturating_*` calls are *not* arith sites — they are
/// counted separately as the safe form these sites should migrate to.
#[derive(Debug, Clone)]
pub struct ArithSite {
    /// 1-based line.
    pub line: usize,
    /// Operator class.
    pub op: ArithOp,
    /// True for the compound-assignment form (`+=`, `*=`, `<<=`).
    pub compound: bool,
    /// The identifier the left operand ends in (`bytes_sent` for
    /// `totals.bytes_sent += ..`): the value the operator is applied
    /// to. Empty when it ends in a call or index group — `x.get() * k`
    /// works on what `get` returned, not on `x`.
    pub left: String,
    /// Identifier roots of the left operand.
    pub lhs: Vec<String>,
    /// Identifier roots of the right operand.
    pub rhs: Vec<String>,
}

/// One `as`-cast to a primitive numeric type. The token stream carries
/// no type information for the source expression, so the cast records
/// the *target* width plus the source identifiers; the width engine
/// treats a scale-tainted source as u64-wide (its seeds are 64-bit
/// counters) and flags narrowing targets (W2).
#[derive(Debug, Clone)]
pub struct CastSite {
    /// 1-based line.
    pub line: usize,
    /// Target primitive (`u32`, `usize`, `f64`, …).
    pub target: String,
    /// Identifier roots of the source expression.
    pub src: Vec<String>,
}

/// One capacity allocation: `with_capacity(n)` or `vec![x; n]` (W3).
#[derive(Debug, Clone)]
pub struct CapacitySite {
    /// 1-based line.
    pub line: usize,
    /// `with_capacity` or `vec![_; n]`.
    pub what: &'static str,
    /// Identifier roots of the size expression.
    pub args: Vec<String>,
    /// True when the size is literally `<ident>.len()`, or an immutable
    /// local bound as `let n = <ident>.len();`: the collection being
    /// measured already exists, so the allocation at most doubles
    /// memory that is already spent. W3 skips these. (`len()` is *not*
    /// a width guard: `v.len() as u32` and `v.len() * k` stay checked.)
    pub len_sized: bool,
}

/// One dataflow binding edge: `let names = rhs;`, a `for pat in rhs`
/// header, or a (compound) assignment. Taint in any `rhs` identifier
/// flows into every name in `names` — unless the rhs passes through a
/// width guard ([`is_width_guard`]), which kills the flow.
#[derive(Debug, Clone)]
pub struct FlowBind {
    /// 1-based line.
    pub line: usize,
    /// Bound names (pattern identifiers / assignment target root).
    pub names: Vec<String>,
    /// Identifier roots of the right-hand side.
    pub rhs: Vec<String>,
    /// True when the rhs is width-guarded (`checked_*`, `try_into`, …).
    pub guarded: bool,
}

/// Width-guard call names: their results are bounds-checked, saturated,
/// or fallible conversions, so scale taint does not flow through them.
/// This is the kill set that lets a `checked_mul` fix silence W1–W3.
pub fn is_width_guard(name: &str) -> bool {
    name.starts_with("checked_")
        || name.starts_with("saturating_")
        || matches!(name, "try_into" | "try_from" | "min" | "clamp")
}

/// The workspace's unit types. Every `Add`/`AddAssign`/`Sub`/`Mul<u64>`
/// they implement saturates — `Bytes` and `ByteHops` through
/// `units::unit_arith!` (crates/core/src/units.rs), `SimTime` and
/// `Duration` through the operator impls of crates/core/src/time.rs —
/// so arithmetic *on* one cannot wrap, whatever scale it carries. (A
/// std `Duration` sharing the name panics on overflow in every build:
/// not a silent wrap either.)
const UNIT_TYPES: &[&str] = &["Bytes", "ByteHops", "SimTime", "Duration"];

/// Primitive numeric type names (cast targets worth recording).
const NUM_PRIMS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Lowercase primitive type names — never a value operand, so a `<` /
/// `>` beside one is a generic bracket, not a comparison.
fn prim_type(w: &str) -> bool {
    NUM_PRIMS.contains(&w) || matches!(w, "bool" | "str" | "char")
}

/// Cast targets narrower than the u64 scale domain. `usize`/`isize`
/// count: the portability floor is 32 bits, and the million-client
/// configs put scale products past 2^32 (DESIGN §14).
pub fn narrowing_target(t: &str) -> bool {
    matches!(
        t,
        "u8" | "u16" | "u32" | "i8" | "i16" | "i32" | "usize" | "isize"
    )
}

/// One lock acquisition (`recv.lock()`; a `locks` row of
/// `callgraph.json` as it stands).
#[derive(Debug, Clone, Serialize)]
pub struct LockSite {
    /// The receiver's base identifier (`inner` for
    /// `self.inner.lock()`), the lock's identity for the G2 check.
    pub name: String,
    /// 1-based line.
    pub line: usize,
    /// True when the guard is bound with `let` (can be held across
    /// later statements and calls); statement-temporary guards drop at
    /// the `;` and cannot participate in an ordering cycle.
    pub held: bool,
}

/// One extracted function item.
#[derive(Debug, Clone, Default)]
pub struct FnItem {
    /// Fully qualified name: module path + enclosing type/fn names +
    /// the function name, `::`-joined.
    pub qname: String,
    /// Simple name.
    pub name: String,
    /// Enclosing module path (no type/fn segments).
    pub module: String,
    /// Enclosing `impl`/`trait` type name, when any.
    pub self_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True when the signature takes `&mut` (receiver or parameter):
    /// the function mutates caller-visible state through its arguments.
    /// Distinguishes *locally-mutating* from *pure* in the purity
    /// classification; neither is effectful.
    pub sig_mut: bool,
    /// True when the signature takes a `self` receiver. Associated fns
    /// without one (`Opts::parse()`-style constructors) can never be
    /// the target of a `recv.name(..)` method call, so the resolver's
    /// opaque-method fallback excludes them.
    pub has_self: bool,
    /// Unresolved call sites, in source order.
    pub calls: Vec<Call>,
    /// Detected sources, in source order.
    pub sources: Vec<SourceSite>,
    /// Detected effect sites (IO / globals), in source order.
    pub effects: Vec<EffectSite>,
    /// Count of raw index expressions (`x[i]`): recorded as a
    /// panic-capability signal in the graph JSON but not enforced by
    /// G3 (slice indexing is ubiquitous and mostly bounds-proven).
    pub index_sites: usize,
    /// Lock acquisitions, in source order.
    pub locks: Vec<LockSite>,
    /// Parameter names in declaration order (`self` excluded), so the
    /// width engine can map caller argument taint positionally.
    pub params: Vec<String>,
    /// Dataflow binding edges (`let` / `for` / assignment), in order.
    pub binds: Vec<FlowBind>,
    /// Unchecked integer arithmetic sites (W1), in source order.
    pub arith: Vec<ArithSite>,
    /// `as`-casts to primitive numeric types (W2), in source order.
    pub casts: Vec<CastSite>,
    /// Capacity allocations (W3), in source order.
    pub caps: Vec<CapacitySite>,
    /// Count of `checked_*` / `saturating_*` call sites — the safe
    /// forms W1 migrates arithmetic toward, surfaced in `--write`.
    pub checked_sites: usize,
    /// Identifiers that may flow into the return value: operands of
    /// `return` statements plus the trailing-expression idents of the
    /// body (an over-approximation; DESIGN §14).
    pub ret_idents: BTreeSet<String>,
    /// Identifiers with a visible dominating bound: compared against
    /// something (`<`/`>`/`<=`/`>=`), passed through `min`/`clamp`/
    /// `try_into`/`try_from`, asserted on, or reduced by `%`. A bounded
    /// tainted value does not fire W1–W3.
    pub bounded: BTreeSet<String>,
}

/// Extraction result for one file.
#[derive(Debug, Clone, Default)]
pub struct FileExtract {
    /// Workspace-relative path.
    pub rel: String,
    /// Module path derived from the file path (`spec::deps`).
    pub module: String,
    /// Extracted functions, in source order.
    pub fns: Vec<FnItem>,
    /// Types this file `impl`s or declares as traits.
    pub impl_types: BTreeSet<String>,
    /// `struct` / `enum` declarations. Together with [`Self::impl_types`]
    /// these are the type names *visible* to the engine; a type-shaped
    /// qualifier matching neither (a macro-generated id type, an
    /// unlisted foreign type) provably has no visible associated fns.
    pub decl_types: BTreeSet<String>,
    /// Flattened `use` declarations, in source order.
    pub imports: Vec<UseImport>,
    /// Identifiers declared with a float-bearing type annotation
    /// (`name: f64`, struct fields and params alike). The width engine
    /// skips W1 on float arithmetic, and the lexer can't see types —
    /// this name-global set is the approximation that stands in.
    pub float_names: BTreeSet<String>,
    /// Identifiers declared with one of the [`UNIT_TYPES`]
    /// (`bytes_sent: Bytes`), by the same declaration scan.
    pub unit_names: BTreeSet<String>,
    /// Identifiers declared with an integer primitive (`n: u64`). A
    /// name in both sets is not a unit name (`CallGraph::unit_names`).
    pub int_names: BTreeSet<String>,
}

/// Maps a workspace-relative path to a module path: `crates/spec/src/
/// deps.rs` → `spec::deps`, `crates/bench/src/bin/figures.rs` →
/// `bench::bin::figures`, `src/lib.rs` → `specweb`, `examples/x.rs` →
/// `examples::x`.
pub fn module_path(rel: &str) -> String {
    let mut parts: Vec<&str> = rel.split('/').collect();
    let mut out: Vec<String> = Vec::new();
    if parts.first() == Some(&"crates") && parts.len() > 2 {
        out.push(parts[1].to_string());
        parts.drain(..2);
    } else if parts.first() == Some(&"examples") {
        out.push("examples".to_string());
        parts.remove(0);
    } else {
        out.push("specweb".to_string());
    }
    if parts.first() == Some(&"src") {
        parts.remove(0);
    }
    for (i, p) in parts.iter().enumerate() {
        let last = i + 1 == parts.len();
        let p = if last {
            p.strip_suffix(".rs").unwrap_or(p)
        } else {
            p
        };
        if last && (p == "lib" || p == "mod") {
            continue;
        }
        if last && p == "main" && out.len() == 1 {
            continue;
        }
        out.push(p.to_string());
    }
    out.join("::")
}

/// Method names that perform IO on their receiver (std `Read`/`Write`
/// and socket configuration). Matched on opaque receivers, so a
/// workspace method sharing one of these names is flagged too — a
/// sound over-approximation for the purity engine (extra effects can
/// only demote a classification toward effectful, never hide one).
const IO_METHODS: &[&str] = &[
    "accept",
    "flush",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "set_nonblocking",
    "sync_all",
    "write_all",
    "write_fmt",
];

/// Std-stream printing macros (each is an IO effect).
const IO_MACROS: &[&str] = &["dbg", "eprint", "eprintln", "print", "println"];

/// Type qualifiers whose associated fns open files or sockets.
const IO_TYPES: &[&str] = &[
    "File",
    "OpenOptions",
    "TcpListener",
    "TcpStream",
    "UdpSocket",
];

/// `core::par` dispatch points: a call inside their argument list runs
/// inside a worker closure (G5's scope). `replay_sharded` is the replay
/// kernel's entry (`netsim::replay`): the part closure handed to it is
/// what the pool's workers run.
const PAR_ENTRIES: &[&str] = &[
    "map_indexed",
    "par_map_indexed",
    "replay_sharded",
    "try_map_indexed",
];

/// Method names that iterate their receiver.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Keywords that look like call targets but are not.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "let", "fn", "impl", "mod", "struct",
    "enum", "trait", "use", "pub", "const", "static", "type", "where", "unsafe", "as", "in", "ref",
    "move", "dyn", "crate", "super", "self", "Self", "break", "continue", "async", "await", "box",
];

fn is_keyword(w: &str) -> bool {
    KEYWORDS.contains(&w)
}

/// One token of the sanitized code channel.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// Identifier (never a lifetime; those are skipped).
    I(String),
    /// Single punctuation character.
    P(char),
}

/// Tokenizes sanitized lines, skipping `skip`-masked (test) regions,
/// lifetimes, blanked literal bodies, and numeric literals. Returns
/// `(token, 1-based line)` pairs.
fn tokenize(lines: &[Line], skip: &[bool]) -> Vec<(Tok, usize)> {
    let mut toks = Vec::new();
    let mut in_str = false;
    for (idx, line) in lines.iter().enumerate() {
        if skip.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let chars: Vec<char> = line.code.chars().collect();
        let n = chars.len();
        let mut i = 0;
        if in_str {
            // Inside a blanked multi-line string: skip to its close.
            while i < n && chars[i] != '"' {
                i += 1;
            }
            if i < n {
                in_str = false;
                i += 1; // consume the closing quote
            } else {
                continue;
            }
        }
        while i < n {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c == '"' {
                // Blanked string body: skip to the close (or carry the
                // open state to the next line).
                i += 1;
                while i < n && chars[i] != '"' {
                    i += 1;
                }
                if i < n {
                    i += 1;
                } else {
                    in_str = true;
                }
            } else if c == '\'' {
                // Lifetime (`'a`) or blanked char literal (`' '`).
                i += 1;
                if i < n && (chars[i].is_ascii_alphabetic() || chars[i] == '_') {
                    while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    // A closing quote means this was a char literal
                    // whose (blanked) body looked like an identifier.
                    if i < n && chars[i] == '\'' {
                        i += 1;
                    }
                } else {
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    if i < n {
                        i += 1;
                    }
                }
            } else if c.is_ascii_digit() {
                // Numeric literal. Integer literals stay invisible (the
                // positional walks rely on commas, not operands), but a
                // float-shaped literal emits a synthetic `f64` ident so
                // the width engine can tell `x * 100.0` from `x * 100`.
                let start = i;
                i += 1;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let run: String = chars[start..i].iter().collect();
                let radix_prefixed =
                    run.starts_with("0x") || run.starts_with("0b") || run.starts_with("0o");
                let mut float = !radix_prefixed
                    && (run.ends_with("f64")
                        || run.ends_with("f32")
                        || run.contains('e')
                        || run.contains('E'));
                if i + 1 < n && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    // `100.0` — consume the fractional run too (its
                    // suffix/exponent rides along in the alnum walk).
                    float = true;
                    i += 1;
                    while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                if float {
                    toks.push((Tok::I("f64".to_string()), idx + 1));
                }
            } else if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let mut word: String = chars[start..i].iter().collect();
                // Raw identifier (`r#type`, `r#fn`): keep the whole
                // `r#ident` as one token so it is never mistaken for
                // the keyword it escapes, and definition/call sites
                // agree on the name.
                if word == "r"
                    && i + 1 < n
                    && chars[i] == '#'
                    && (chars[i + 1].is_ascii_alphabetic() || chars[i + 1] == '_')
                {
                    i += 1; // consume `#`
                    let rstart = i;
                    while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    word.push('#');
                    word.extend(&chars[rstart..i]);
                }
                toks.push((Tok::I(word), idx + 1));
            } else {
                toks.push((Tok::P(c), idx + 1));
                i += 1;
            }
        }
    }
    toks
}

/// Collects the identifiers this file declares with a hash-collection
/// type: `name: HashMap<..>` ascriptions (fields, params, lets) and
/// `let name = HashMap::new()`-style constructions.
fn hash_typed_names(lines: &[Line], skip: &[bool]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (idx, line) in lines.iter().enumerate() {
        if skip.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let code = &line.code;
        for needle in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = code[from..].find(needle) {
                let at = from + pos;
                from = at + needle.len();
                if let Some(name) = declared_name_before(code, at) {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// Given `code[..at]` ending just before a `HashMap`/`HashSet` token,
/// recovers the identifier being declared, for both ascription
/// (`name: [&mut ]Hash..`) and construction (`let [mut] name = [path::]
/// Hash..`) forms.
fn declared_name_before(code: &str, at: usize) -> Option<String> {
    let mut pre = code[..at].trim_end();
    // Strip a leading path (`std::collections::`).
    loop {
        let stripped = pre.strip_suffix("::").map(str::trim_end);
        match stripped {
            Some(rest) => {
                let ident_len = rest
                    .chars()
                    .rev()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .count();
                pre = rest[..rest.len() - ident_len].trim_end();
            }
            None => break,
        }
    }
    // Reference / mutability sigils in ascriptions.
    while let Some(rest) = pre
        .strip_suffix('&')
        .or_else(|| pre.strip_suffix("mut").filter(|r| !ends_ident(r)))
    {
        pre = rest.trim_end();
    }
    let pre = if let Some(rest) = pre.strip_suffix(':') {
        // `name: HashMap<..>` — but not a path `x::HashMap` (handled
        // above) and not a pattern-match arm `..:`.
        rest.trim_end()
    } else if let Some(rest) = pre.strip_suffix('=') {
        // `let [mut] name = HashMap::new()`; `==`/`=>` never precede a
        // type name, so a bare `=` suffix is an assignment.
        rest.trim_end_matches(['=', '>']).trim_end()
    } else {
        return None;
    };
    let name: String = pre
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

fn ends_ident(s: &str) -> bool {
    s.chars()
        .last()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum ScopeKind {
    #[default]
    Mod,
    /// `impl` block or `trait` definition.
    Type,
    Fn,
}

#[derive(Debug, Default)]
struct Scope {
    kind: ScopeKind,
    name: String,
    /// Brace depth immediately after this scope's `{`.
    depth: usize,
    /// Index into `FileExtract::fns` for `Fn` scopes.
    fn_idx: Option<usize>,
    /// For `Fn` scopes: identifiers seen since the last `;` at this
    /// scope's own depth. Whatever remains when the scope closes is the
    /// trailing expression — flushed into `FnItem::ret_idents`.
    tail: BTreeSet<String>,
    /// For `Fn` scopes: immutable locals currently bound as
    /// `let n = <ident>.len();` (see [`CapacitySite::len_sized`]).
    len_bound: BTreeSet<String>,
}

/// An `impl` header between its keyword and its `{`.
#[derive(Debug, Default)]
struct ImplHdr {
    name: Option<String>,
    after_for: bool,
    angle: i32,
    in_where: bool,
}

/// The extractor's cursor: the token stream, the position in it, and
/// everything the item state machine remembers between tokens.
/// Recording a site is one call on it; it lands in the innermost
/// enclosing fn ([`Cursor::cur_fn`]).
#[derive(Default)]
struct Cursor<'a> {
    toks: &'a [(Tok, usize)],
    /// Index of the token under the cursor.
    i: usize,
    /// Identifiers this file declares with a hash-collection type.
    hash_names: BTreeSet<String>,
    /// The sanctioned owners: the obs wall channel may read real time,
    /// and the scoped pool / server may spawn threads (DESIGN §7, §9).
    /// Sources there are policy, not hazards.
    wall_exempt: bool,
    thread_exempt: bool,
    stack: Vec<Scope>,
    depth: usize,
    /// Pending item headers between their keyword and their `{` / `;`.
    pend_fn: Option<usize>, // index into out.fns
    pend_named: Option<(ScopeKind, String)>, // mod / trait
    impl_hdr: Option<ImplHdr>,
    /// For-loop header capture: Some(seen_in) while inside one.
    for_hdr: Option<bool>,
    /// Paren nesting, and the depths at which a `core::par` dispatch's
    /// argument list opened: while the innermost entry is active, call
    /// sites run inside a worker closure (G5's scope).
    paren_depth: usize,
    par_regions: Vec<usize>,
    /// Paren depth of a pending fn's parameter list: idents followed by
    /// a single `:` at exactly this depth are parameter names.
    sig_parens: Option<usize>,
    out: FileExtract,
}

/// Extracts items, calls, and sources from one sanitized file.
///
/// `skip` is the test-region mask (same length as `lines`).
pub fn extract(rel: &str, lines: &[Line], skip: &[bool]) -> FileExtract {
    let toks = tokenize(lines, skip);
    let mut c = Cursor {
        toks: &toks,
        hash_names: hash_typed_names(lines, skip),
        wall_exempt: crate::rules::path_has_prefix(rel, crate::rules::WALL_CLOCK_EXEMPT),
        thread_exempt: crate::rules::path_has_prefix(rel, crate::rules::THREAD_EXEMPT),
        out: FileExtract {
            rel: rel.to_string(),
            module: module_path(rel),
            ..FileExtract::default()
        },
        ..Cursor::default()
    };
    while c.i < toks.len() {
        c.step();
    }
    c.out
}

impl<'a> Cursor<'a> {
    /// The token `k` places ahead of the cursor.
    fn peek(&self, k: usize) -> Option<&'a Tok> {
        self.toks.get(self.i + k).map(|(t, _)| t)
    }

    fn next_is(&self, c: char) -> bool {
        self.peek(1) == Some(&Tok::P(c))
    }

    /// The identifier right after the cursor (an item's name).
    fn next_ident(&self) -> Option<&'a String> {
        match self.peek(1) {
            Some(Tok::I(name)) => Some(name),
            _ => None,
        }
    }

    /// The token before the cursor is `c`.
    fn prev_is(&self, c: char) -> bool {
        self.i > 0 && self.toks[self.i - 1].0 == Tok::P(c)
    }

    /// 1-based line of the token under the cursor.
    fn line(&self) -> usize {
        self.toks[self.i].1
    }

    /// Inside a pending fn header (between `fn name` and its body).
    fn in_sig(&self) -> bool {
        self.pend_fn.is_some() && self.stack.last().is_none_or(|s| s.fn_idx != self.pend_fn)
    }

    /// Inside a `core::par` worker closure.
    fn in_par(&self) -> bool {
        !self.par_regions.is_empty()
    }

    /// The innermost enclosing function, if any (a pending fn header
    /// counts so signature-level sources attribute correctly).
    fn cur_fn(&mut self) -> Option<&mut FnItem> {
        let enclosing = || self.stack.iter().rev().find_map(|s| s.fn_idx);
        let fi = self.pend_fn.or_else(enclosing)?;
        self.out.fns.get_mut(fi)
    }

    /// The innermost enclosing fn *scope* (a pending header has none).
    fn fn_scope(&mut self) -> Option<&mut Scope> {
        self.stack.iter_mut().rev().find(|s| s.fn_idx.is_some())
    }

    /// Full scope prefix (module + mods + type + enclosing fns) and the
    /// innermost type name.
    fn scope_context(&self) -> (String, Option<String>) {
        let mut parts = vec![self.out.module.clone()];
        let mut self_type = None;
        for s in &self.stack {
            parts.push(s.name.clone());
            if s.kind == ScopeKind::Type {
                self_type = Some(s.name.clone());
            }
        }
        (parts.join("::"), self_type)
    }

    /// Module path including inline `mod` scopes (but not type/fn
    /// scopes).
    fn module_of(&self) -> String {
        let mods = self.stack.iter().filter(|s| s.kind == ScopeKind::Mod);
        let parts: Vec<&str> = std::iter::once(self.out.module.as_str())
            .chain(mods.map(|s| s.name.as_str()))
            .collect();
        parts.join("::")
    }

    // ---- recording: each lands in the current fn, on the cursor's line

    fn source(&mut self, kind: SourceKind, what: &str) {
        let (line, what) = (self.line(), what.to_string());
        if let Some(f) = self.cur_fn() {
            f.sources.push(SourceSite { line, kind, what });
        }
    }

    fn effect(&mut self, kind: EffectKind, what: String) {
        let (line, in_par) = (self.line(), self.in_par());
        if let Some(f) = self.cur_fn() {
            f.effects.push(EffectSite {
                line,
                kind,
                what,
                in_par,
            });
        }
    }

    fn call(&mut self, name: &str, line: usize, shape: (String, bool, bool), open: usize) {
        let (qualifier, is_method, on_self) = shape;
        let call = Call {
            name: name.to_string(),
            qualifier,
            is_method,
            on_self,
            in_par: self.in_par(),
            line,
            args: call_args(self.toks, open),
        };
        if let Some(f) = self.cur_fn() {
            f.calls.push(call);
        }
    }

    /// A dataflow edge `names ← rhs` (`let` / `for` / assignment).
    fn bind(&mut self, names: Vec<String>, rhs: Vec<String>, guarded: bool) {
        let line = self.line();
        if let Some(f) = self.cur_fn() {
            f.binds.push(FlowBind {
                line,
                names,
                rhs,
                guarded,
            });
        }
    }

    /// Identifiers with a visible dominating bound.
    fn bounded(&mut self, ids: Vec<String>) {
        if let Some(f) = self.cur_fn() {
            f.bounded.extend(ids);
        }
    }

    /// A capacity allocation whose size expression starts at token `at`
    /// and is closed by `close`.
    fn cap(&mut self, what: &'static str, args: Vec<String>, at: usize, close: char) {
        let toks = self.toks;
        let closed_at = |k: usize| toks.get(k).map(|(t, _)| t) == Some(&Tok::P(close));
        let len_sized = match toks.get(at) {
            Some((Tok::I(n), _)) if closed_at(at + 1) => {
                self.fn_scope().is_some_and(|s| s.len_bound.contains(n))
            }
            _ => is_len_call(toks, at) && closed_at(at + 5),
        };
        let line = self.line();
        if let Some(f) = self.cur_fn() {
            f.caps.push(CapacitySite {
                line,
                what,
                args,
                len_sized,
            });
        }
    }

    // ---- the token loop: item structure, plus calls to the collectors

    fn step(&mut self) {
        if self.arith_site() {
            return;
        }
        match &self.toks[self.i].0 {
            Tok::P(c) => self.punct(*c),
            Tok::I(w) => self.ident(w),
        }
    }

    /// Integer `*` / `+` / `<<` arithmetic sites and their compound
    /// forms (W1). Returns whether the cursor stood on one (and moved
    /// past it).
    fn arith_site(&mut self) -> bool {
        let (toks, i) = (self.toks, self.i);
        let Some((op, width)) = arith_op(toks, i).filter(|_| self.impl_hdr.is_none()) else {
            return false;
        };
        let compound = toks.get(i + width).map(|(t, _)| t) == Some(&Tok::P('='));
        if !self.in_sig() {
            let lhs = operand_before(toks, i);
            let (rhs, guarded) = if compound {
                idents_until_semi(toks, i + width + 1)
            } else {
                (operand_after(toks, i + width), false)
            };
            let site = ArithSite {
                line: self.line(),
                op,
                compound,
                left: operand_end(toks, i).unwrap_or_default().to_string(),
                lhs: lhs.clone(),
                rhs: rhs.clone(),
            };
            if let Some(f) = self.cur_fn() {
                f.arith.push(site);
            }
            if compound {
                self.bind(lhs, rhs, guarded);
            }
        }
        self.i += width + usize::from(compound);
        true
    }

    fn punct(&mut self, c: char) {
        let (toks, i) = (self.toks, self.i);
        let in_sig = self.in_sig();
        match c {
            '{' => {
                self.depth += 1;
                let opened = if let Some(fi) = self.pend_fn.take() {
                    self.sig_parens = None;
                    Some((ScopeKind::Fn, self.out.fns[fi].name.clone(), Some(fi)))
                } else if let Some(hdr) = self.impl_hdr.take() {
                    let name = hdr.name.unwrap_or_else(|| "?".to_string());
                    Some((ScopeKind::Type, name, None))
                } else {
                    let named = self.pend_named.take();
                    named.map(|(kind, name)| (kind, name, None))
                };
                if let Some((kind, name, fn_idx)) = opened {
                    if kind == ScopeKind::Type {
                        self.out.impl_types.insert(name.clone());
                    }
                    self.stack.push(Scope {
                        kind,
                        name,
                        depth: self.depth,
                        fn_idx,
                        ..Scope::default()
                    });
                }
                self.for_hdr = None;
            }
            '}' => {
                self.depth = self.depth.saturating_sub(1);
                while self.stack.last().is_some_and(|s| s.depth > self.depth) {
                    // A closing fn scope flushes its trailing-expression
                    // buffer into the return-flow set (over-approximate:
                    // any ident after the body's last top-level `;`).
                    if let Some(s) = self.stack.pop() {
                        if let Some(fi) = s.fn_idx {
                            self.out.fns[fi].ret_idents.extend(s.tail);
                        }
                    }
                }
            }
            ';' => {
                self.pend_fn = None;
                self.pend_named = None;
                self.impl_hdr = None;
                self.sig_parens = None;
                // A statement boundary at the innermost fn's own depth
                // resets its trailing-expression buffer.
                let depth = self.depth;
                if let Some(s) = self.fn_scope().filter(|s| s.depth == depth) {
                    s.tail.clear();
                }
            }
            '<' | '>' if self.impl_hdr.is_some() => {
                if let Some(h) = self.impl_hdr.as_mut() {
                    h.angle = (h.angle + if c == '<' { 1 } else { -1 }).max(0);
                }
            }
            // Raw index expression: `x[..]` / `f(..)[..]`.
            '[' if operand_end(toks, i).is_some() => {
                if let Some(f) = self.cur_fn() {
                    f.index_sites += 1;
                }
            }
            '(' => {
                // Turbofish call (`helper::<u64>(..)` / `x.collect::<V>(..)`):
                // the name token is not adjacent to the `(`, so the
                // identifier arm misses it.
                if let Some(ni) = turbofish_call_before(toks, i) {
                    if let (Tok::I(name), cline) = &toks[ni] {
                        let shape = if ni > 0 && toks[ni - 1].0 == Tok::P('.') {
                            let recv = receiver_before(toks, ni - 1);
                            (String::new(), true, recv.as_deref() == Some("self"))
                        } else {
                            (path_qualifier_before(toks, ni), false, false)
                        };
                        self.call(name, *cline, shape, i);
                    }
                }
                self.paren_depth += 1;
                // First paren of a pending fn header opens the
                // parameter list (generic-bound parens like `Fn(u32)`
                // come before it only inside `<..>`, where a parameter
                // ident is never followed by a single `:`).
                if in_sig && self.sig_parens.is_none() {
                    self.sig_parens = Some(self.paren_depth);
                }
            }
            ')' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                while self
                    .par_regions
                    .last()
                    .is_some_and(|d| *d > self.paren_depth)
                {
                    self.par_regions.pop();
                }
            }
            // A comparison (`x < cap`, `limit >= n`) marks both sides
            // bounded: the branch dominates the uses W1–W3 worry about.
            // Generic brackets are mostly excluded by the type-shaped /
            // keyword / primitive checks (`Vec<usize> = ..` would
            // otherwise read as `usize >= ..`); survivors only add
            // never-tainted names.
            '<' | '>'
                if !in_sig
                    && operand_end(toks, i).is_some_and(|w| !upper_shaped(w) && !prim_type(w)) =>
            {
                let after = i + 1 + usize::from(self.next_is('='));
                self.bounded(operand_before(toks, i));
                self.bounded(operand_after(toks, after));
            }
            // `x % m` bounds x below m.
            '%' if operand_end(toks, i).is_some() => self.bounded(operand_before(toks, i)),
            // Plain assignment `target = rhs;` is a flow bind. `let`
            // statements are recorded by the `let` arm; compound ops by
            // theirs; `==`/`=>`/`<=`-family operators never have an
            // identifier immediately before their `=`.
            '=' if !in_sig
                && operand_end(toks, i).is_some()
                && !self.prev_is(')')
                && !self.next_is('=')
                && !self.next_is('>')
                && !binds_with_let(toks, i) =>
            {
                let (rhs, guarded) = idents_until_semi(toks, i + 1);
                self.bind(operand_before(toks, i), rhs, guarded);
            }
            _ => {}
        }
        self.i += 1;
    }

    fn ident(&mut self, w: &'a String) {
        // Impl-header capture consumes idents until `{`.
        if let Some(h) = self.impl_hdr.as_mut() {
            if w == "for" {
                h.after_for = true;
                h.name = None;
            } else if w == "where" {
                h.in_where = true;
            } else if h.angle == 0 && !h.in_where && (h.name.is_none() || !h.after_for) {
                h.name = Some(w.clone());
            }
            self.i += 1;
            return;
        }
        // For-loop header: record iterated hash names.
        if let Some(seen_in) = self.for_hdr {
            if w == "in" {
                self.for_hdr = Some(true);
                self.i += 1;
                return;
            }
            if seen_in && self.hash_names.contains(w) && !self.next_is('(') {
                self.source(SourceKind::HashIter, w);
            }
            // fall through: calls inside the header still count.
        }
        let in_sig = self.in_sig();
        // Trailing-expression buffer for return flow: whatever
        // identifiers remain when the fn scope closes are the tail
        // expression (flushed into `ret_idents` at `}`).
        if !in_sig && !is_keyword(w) {
            if let Some(s) = self.fn_scope().filter(|s| s.tail.len() < 24) {
                s.tail.insert(w.clone());
            }
        }
        // A declaration `name: <type>` (single colon): a parameter name
        // when it sits at exactly the parameter-list paren depth of a
        // pending fn header, and always a candidate for the name-global
        // type sets.
        if self.next_is(':')
            && self.peek(2) != Some(&Tok::P(':'))
            && !self.prev_is(':')
            && !is_keyword(w)
            && !upper_shaped(w)
        {
            if let Some(fi) = self.pend_fn.filter(|_| in_sig) {
                if self.sig_parens == Some(self.paren_depth) {
                    self.out.fns[fi].params.push(w.clone());
                }
            }
            self.annotation(w);
        }
        if self.keyword(w, in_sig) {
            return;
        }
        // Source patterns on bare identifiers.
        match w.as_str() {
            "SystemTime" if !self.wall_exempt => self.source(SourceKind::WallClock, w),
            "thread_rng" | "from_entropy" => self.source(SourceKind::Rng, w),
            _ => {}
        }
        // Std-stream printing macros are IO effects. (`log!` is
        // deliberately absent: leveled obs logging is the sanctioned
        // observability channel, DESIGN §6.)
        if IO_MACROS.contains(&w.as_str()) && self.next_is('!') {
            self.effect(EffectKind::Io, format!("{w}!"));
        }
        // Call site: identifier followed by `(` (macros have a `!` in
        // between and fall outside this pattern).
        if self.next_is('(') && !is_keyword(w) {
            self.call_site(w);
        }
        // `thread::Builder` (no call parens on the path tail).
        if w == "Builder"
            && !self.thread_exempt
            && path_qualifier_before(self.toks, self.i).ends_with("thread")
        {
            self.source(SourceKind::ThreadSpawn, "thread::Builder");
        }
        self.i += 1;
    }

    /// The `<type>` of a `name: <type>` declaration (field, param or
    /// let ascription) decides which name-global set the name joins;
    /// the lexer can't see types, so these sets stand in for them. A
    /// float primitive anywhere in a short window of the annotation
    /// makes a float name. A type that *is* one of [`UNIT_TYPES`] or an
    /// integer primitive — behind `&`/`mut` at most, and not a path
    /// head such as the `Bytes::new(..)` of a struct literal — makes a
    /// unit or an integer name.
    fn annotation(&mut self, w: &str) {
        let toks = self.toks;
        let mut k = self.i + 2;
        while matches!(toks.get(k), Some((Tok::P('&'), _)))
            || matches!(toks.get(k), Some((Tok::I(m), _)) if m == "mut")
        {
            k += 1;
        }
        let path_head = toks.get(k + 1).map(|(t, _)| t) == Some(&Tok::P(':'));
        match toks.get(k) {
            Some((Tok::I(ty), _)) if !path_head && UNIT_TYPES.contains(&ty.as_str()) => {
                self.out.unit_names.insert(w.to_string());
            }
            Some((Tok::I(ty), _))
                if !path_head && NUM_PRIMS.contains(&ty.as_str()) && !ty.starts_with('f') =>
            {
                self.out.int_names.insert(w.to_string());
            }
            _ => {}
        }
        let mut d: i64 = 0;
        for (t, _) in toks.iter().skip(self.i + 2).take(10) {
            match t {
                Tok::P('<') | Tok::P('(') | Tok::P('[') => d += 1,
                Tok::P('>') | Tok::P(')') | Tok::P(']') => {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                }
                Tok::P(',') | Tok::P(';') | Tok::P('{') | Tok::P('=') if d == 0 => break,
                Tok::I(t) if t == "f64" || t == "f32" => {
                    self.out.float_names.insert(w.to_string());
                    break;
                }
                _ => {}
            }
        }
    }

    /// Item and statement keywords. Returns whether `w` was one (and
    /// the cursor moved past what it introduces).
    fn keyword(&mut self, w: &str, in_sig: bool) -> bool {
        let (toks, i) = (self.toks, self.i);
        let line = self.line();
        let advance = match w {
            "fn" => match self.next_ident() {
                Some(name) => {
                    if self.pend_fn.is_none() {
                        let (module_full, self_type) = self.scope_context();
                        self.out.fns.push(FnItem {
                            qname: format!("{module_full}::{name}"),
                            name: name.clone(),
                            module: self.module_of(),
                            self_type,
                            line,
                            ..FnItem::default()
                        });
                        self.pend_fn = Some(self.out.fns.len() - 1);
                    }
                    2 // `fn` and the name
                }
                // `fn(..)` pointer type — not an item.
                None => 1,
            },
            "mod" | "trait" | "struct" | "enum" if self.pend_fn.is_none() => {
                match self.next_ident() {
                    Some(name) => {
                        match w {
                            "mod" => self.pend_named = Some((ScopeKind::Mod, name.clone())),
                            "trait" => self.pend_named = Some((ScopeKind::Type, name.clone())),
                            _ => {
                                self.out.decl_types.insert(name.clone());
                            }
                        }
                        2
                    }
                    None => 1,
                }
            }
            "impl" if self.pend_fn.is_none() => {
                self.impl_hdr = Some(ImplHdr::default());
                1
            }
            "use" => {
                // Parse the whole use tree here so its `{`/`}` never
                // reach the scope tracker.
                let module = self.module_of();
                self.i = parse_use(toks, i + 1, &module, &mut self.out.imports);
                0
            }
            "macro_rules" if self.next_is('!') => {
                // A macro_rules! body is a template, not items:
                // extracting its fns would mint phantom nodes with
                // metavariable-mangled qnames (`$name` → `name`) that
                // the fallback rung then wires into real call chains.
                // Skip the balanced body; the expanded code is analyzed
                // where it is visible.
                let mut j = i + 2;
                while j < toks.len() && toks[j].0 != Tok::P('{') {
                    j += 1;
                }
                let mut bal = 0usize;
                while j < toks.len() {
                    match toks[j].0 {
                        Tok::P('{') => bal += 1,
                        Tok::P('}') => bal -= 1,
                        _ => {}
                    }
                    j += 1;
                    if bal == 0 {
                        break;
                    }
                }
                self.i = j;
                0
            }
            "mut" if in_sig && self.prev_is('&') => {
                if let Some(fi) = self.pend_fn {
                    self.out.fns[fi].sig_mut = true;
                }
                1
            }
            // A `self` receiver: `self` followed by `,` / `)`, or a
            // typed receiver `self: Box<Self>` (single colon).
            // `self::Path` in a parameter type has `::` and is not a
            // receiver.
            "self" if in_sig => {
                let single_colon = self.next_is(':') && self.peek(2) != Some(&Tok::P(':'));
                if self.next_is(',') || self.next_is(')') || single_colon {
                    if let Some(fi) = self.pend_fn {
                        self.out.fns[fi].has_self = true;
                    }
                }
                1
            }
            "for" if !in_sig => {
                self.for_hdr = Some(false);
                self.for_bind();
                1
            }
            "let" if !in_sig => {
                self.let_bind();
                1
            }
            "return" if !in_sig => {
                let (ids, _) = idents_until_semi(toks, i + 1);
                if let Some(f) = self.cur_fn() {
                    f.ret_idents.extend(ids);
                }
                1
            }
            "as" if !in_sig => {
                // `expr as prim` cast site (W2). `use .. as` renames
                // are consumed by parse_use; a qualified-path
                // `<A as Trait>` has a non-primitive target and falls
                // through.
                let prim = |t: &&String| NUM_PRIMS.contains(&t.as_str());
                let src = operand_before(toks, i);
                if let Some(target) = self.next_ident().filter(prim).cloned() {
                    if let Some(f) = self.cur_fn().filter(|_| !src.is_empty()) {
                        f.casts.push(CastSite { line, target, src });
                    }
                }
                1
            }
            "vec" if self.next_is('!') && self.peek(2) == Some(&Tok::P('[')) => {
                self.vec_cap();
                1
            }
            "assert" | "debug_assert"
                if self.next_is('!') && self.peek(2) == Some(&Tok::P('(')) =>
            {
                // Asserted identifiers count as bounded: the assert
                // dominates every later use in the fn.
                self.bounded(call_args(toks, i + 2).into_iter().flatten().collect());
                1
            }
            _ => return false,
        };
        self.i += advance;
        true
    }

    /// Flow bind `for names in rhs {`. Ctor/type segments in the
    /// pattern are skipped; taint in the iterated expression flows to
    /// the names.
    fn for_bind(&mut self) {
        let toks = self.toks;
        let mut names = Vec::new();
        let mut j = self.i + 1;
        let mut budget = 40usize;
        while let Some((t, _)) = toks.get(j) {
            if budget == 0 {
                break;
            }
            budget -= 1;
            match t {
                Tok::I(w2) if w2 == "in" => break,
                Tok::P('{') | Tok::P(';') => {
                    names.clear();
                    break;
                }
                Tok::I(w2) if !is_keyword(w2) && !upper_shaped(w2) && names.len() < 6 => {
                    push_unique(&mut names, w2);
                }
                _ => {}
            }
            j += 1;
        }
        if names.is_empty() {
            return;
        }
        let mut rhs = Vec::new();
        let mut guarded = false;
        let mut k = j + 1;
        let mut budget = 60usize;
        while let Some((t, _)) = toks.get(k) {
            if budget == 0 || matches!(t, Tok::P('{') | Tok::P(';')) {
                break;
            }
            budget -= 1;
            if let Tok::I(w2) = t {
                if !is_keyword(w2) {
                    guarded |= is_width_guard(w2);
                    if rhs.len() < 12 {
                        push_unique(&mut rhs, w2);
                    }
                }
            }
            k += 1;
        }
        self.bind(names, rhs, guarded);
    }

    /// Flow bind `let names(: ty)? = rhs;`. Pattern names are the
    /// lowercase idents (ctor segments like `Some` are type-shaped and
    /// skipped); rhs collection runs to the statement's `;`, over-
    /// approximating through struct literals and `if let` bodies (extra
    /// taint is the sound direction, DESIGN §14).
    fn let_bind(&mut self) {
        let (toks, i) = (self.toks, self.i);
        let mut names = Vec::new();
        let mut j = i + 1;
        let mut eq = None;
        let mut budget = 40usize;
        while let Some((t, _)) = toks.get(j) {
            if budget == 0 {
                break;
            }
            budget -= 1;
            match t {
                Tok::P(':') | Tok::P(';') | Tok::P('{') => break,
                Tok::P('=') => {
                    eq = Some(j);
                    break;
                }
                Tok::I(w2) if !is_keyword(w2) && !upper_shaped(w2) && names.len() < 6 => {
                    push_unique(&mut names, w2);
                }
                _ => {}
            }
            j += 1;
        }
        if eq.is_none() {
            // Type ascription: skip the `: ty` to the binder `=`
            // (assoc bindings `Bar = Baz` sit inside `<..>` and are
            // bracket-nested; `->` arrows must not close a bracket).
            let mut d = 0i32;
            let mut budget = 60usize;
            while let Some((t, _)) = toks.get(j) {
                if budget == 0 {
                    break;
                }
                budget -= 1;
                match t {
                    Tok::P('<') | Tok::P('(') | Tok::P('[') => d += 1,
                    Tok::P('>') if j > 0 && toks[j - 1].0 != Tok::P('-') => d -= 1,
                    Tok::P(')') | Tok::P(']') => d -= 1,
                    Tok::P('=') if d <= 0 => {
                        eq = Some(j);
                        break;
                    }
                    Tok::P(';') | Tok::P('{') if d <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
        }
        let Some(e) = eq.filter(|_| !names.is_empty()) else {
            return;
        };
        // `let n = v.len();` names a length until `n` is bound again
        // (no `mut`, no pattern: the `=` is the third token).
        let semi = toks.get(e + 6).map(|(t, _)| t) == Some(&Tok::P(';'));
        let names_len = e == i + 2 && is_len_call(toks, e + 1) && semi;
        if let Some(s) = self.fn_scope() {
            s.len_bound.retain(|n| !names.contains(n));
            if names_len {
                s.len_bound.insert(names[0].clone());
            }
        }
        let (rhs, guarded) = idents_until_semi(toks, e + 1);
        self.bind(names, rhs, guarded);
    }

    /// `vec![elem; n]` capacity site (W3): the idents after the
    /// top-level `;` size the allocation.
    fn vec_cap(&mut self) {
        let toks = self.toks;
        let mut d = 1i32;
        let mut j = self.i + 3;
        let mut semi = None;
        let mut budget = 200usize;
        while j < toks.len() && d > 0 && budget > 0 {
            budget -= 1;
            match &toks[j].0 {
                Tok::P('[') | Tok::P('(') | Tok::P('{') => d += 1,
                Tok::P(']') | Tok::P(')') | Tok::P('}') => d -= 1,
                Tok::P(';') if d == 1 => semi = Some(j),
                _ => {}
            }
            j += 1;
        }
        let Some(s) = semi else { return };
        let mut args = Vec::new();
        for (t, _) in &toks[s + 1..j.saturating_sub(1).max(s + 1)] {
            if let Tok::I(w2) = t {
                if !is_keyword(w2) && args.len() < 12 {
                    push_unique(&mut args, w2);
                }
            }
        }
        self.cap("vec![_; n]", args, s + 1, ']');
    }

    /// The call site `w(` under the cursor: the hazard, effect and
    /// capacity patterns its shape can match, then the call itself.
    fn call_site(&mut self, w: &'a String) {
        let (toks, i) = (self.toks, self.i);
        let shape = if self.prev_is('.') {
            // Method call `recv.w(..)`.
            let recv = receiver_before(toks, i - 1);
            if ITER_METHODS.contains(&w.as_str()) {
                if let Some(r) = recv.as_deref().filter(|r| self.hash_names.contains(*r)) {
                    self.source(SourceKind::HashIter, r);
                }
            }
            if w == "unwrap" || w == "expect" {
                self.source(SourceKind::Panic, w);
            }
            if w == "lock" {
                let site = LockSite {
                    name: recv.clone().unwrap_or_else(|| "?".to_string()),
                    line: self.line(),
                    held: binds_with_let(toks, i),
                };
                if let Some(f) = self.cur_fn() {
                    f.locks.push(site);
                }
            }
            if IO_METHODS.contains(&w.as_str()) {
                self.effect(EffectKind::Io, w.clone());
            }
            (String::new(), true, recv.as_deref() == Some("self"))
        } else {
            let qualifier = path_qualifier_before(toks, i);
            let qlast = qualifier.rsplit("::").next().unwrap_or("");
            if !self.thread_exempt && qlast == "thread" && matches!(w.as_str(), "spawn" | "scope") {
                self.source(SourceKind::ThreadSpawn, &format!("thread::{w}"));
            }
            if w == "now" && !self.wall_exempt && qlast == "Instant" {
                self.source(SourceKind::WallClock, "Instant::now");
            }
            // Effectful std paths: file/socket IO and process-global
            // reads, by qualifier tail.
            let io = qlast == "fs"
                || IO_TYPES.contains(&qlast)
                || (qlast == "io" && matches!(w.as_str(), "stdin" | "stdout" | "stderr" | "copy"));
            // Env *reads* (`env::var`) are deliberately not effects:
            // the environment is constant for the life of the process,
            // so a read returns the same value in every shard and every
            // worker — it is configuration, like a CLI flag. Only
            // mutation is a process-global effect.
            let global = qlast == "process"
                || (qlast == "env" && matches!(w.as_str(), "set_var" | "remove_var"));
            if io || global {
                let kind = if io {
                    EffectKind::Io
                } else {
                    EffectKind::Global
                };
                self.effect(kind, format!("{qlast}::{w}"));
            }
            (qualifier, false, false)
        };
        if w == "with_capacity" {
            let args = call_args(toks, i + 1).into_iter().flatten().collect();
            self.cap("with_capacity", args, i + 2, ')');
        }
        if w.starts_with("checked_") || w.starts_with("saturating_") {
            if let Some(f) = self.cur_fn() {
                f.checked_sites += 1;
            }
        }
        self.call(w, self.line(), shape, i + 1);
        // A `core::par` dispatch opens a worker-closure region covering
        // its argument list.
        if PAR_ENTRIES.contains(&w.as_str()) {
            self.par_regions.push(self.paren_depth + 1);
        }
    }
}

/// Whether the five tokens from `at` spell `<ident>.len()`; the caller
/// checks what closes the expression at `at + 5`.
fn is_len_call(toks: &[(Tok, usize)], at: usize) -> bool {
    use Tok::{I, P};
    matches!(
        toks.get(at..at + 5),
        Some([(I(_), _), (P('.'), _), (I(m), _), (P('('), _), (P(')'), _)]) if m == "len"
    )
}

/// The receiver identifier for the method call whose `.` is at `dot`:
/// walks back over one balanced `(..)`/`[..]` group and returns the
/// identifier found (`slots` for `slots[i].lock()`).
fn receiver_before(toks: &[(Tok, usize)], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    // Balance back over a trailing call/index group.
    let close = match &toks[j].0 {
        Tok::P(')') => Some(('(', ')')),
        Tok::P(']') => Some(('[', ']')),
        _ => None,
    };
    if let Some((open, close)) = close {
        let mut depth = 1;
        while depth > 0 {
            j = j.checked_sub(1)?;
            match &toks[j].0 {
                Tok::P(c) if *c == close => depth += 1,
                Tok::P(c) if *c == open => depth -= 1,
                _ => {}
            }
        }
        j = j.checked_sub(1)?;
    }
    match &toks[j].0 {
        Tok::I(w) => Some(w.clone()),
        _ => None,
    }
}

/// The `a::b` qualifier preceding the call-name token at `at`. Walks
/// back over turbofish generic-argument groups, so `Vec::<u64>::new`
/// yields qualifier `Vec` rather than losing the path (which used to
/// degrade the call to an any-name `new`).
fn path_qualifier_before(toks: &[(Tok, usize)], at: usize) -> String {
    let mut segs: Vec<String> = Vec::new();
    let mut j = at;
    while j >= 2 && toks[j - 1].0 == Tok::P(':') && toks[j - 2].0 == Tok::P(':') {
        // `j - 2` is one past the previous path element; balance back
        // over a `::<..>` turbofish group when one precedes the `::`.
        let mut k = j - 2;
        if k >= 1 && toks[k - 1].0 == Tok::P('>') {
            let mut depth = 1usize;
            let mut m = k - 1;
            while let Some(prev) = m.checked_sub(1) {
                m = prev;
                match &toks[m].0 {
                    Tok::P('>') => depth += 1,
                    Tok::P('<') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if depth != 0 || m < 2 || toks[m - 1].0 != Tok::P(':') || toks[m - 2].0 != Tok::P(':') {
                // Not a turbofish (e.g. a `<T as Trait>::f` qualified
                // path, or expression `>`): stop, as before.
                break;
            }
            k = m - 2;
        }
        match k.checked_sub(1).map(|p| &toks[p].0) {
            Some(Tok::I(w)) => {
                segs.push(w.clone());
                j = k - 1;
            }
            _ => break,
        }
    }
    segs.reverse();
    segs.join("::")
}

/// Detects a turbofish call whose `(` is at `open` — `name::<T>(..)` —
/// and returns the index of the `name` token. The identifier arm of the
/// extractor only sees `name(`-adjacent calls, so without this the call
/// would be dropped entirely (a missed edge).
fn turbofish_call_before(toks: &[(Tok, usize)], open: usize) -> Option<usize> {
    let mut k = open.checked_sub(1)?;
    if toks[k].0 != Tok::P('>') {
        return None;
    }
    let mut depth = 1usize;
    while depth > 0 {
        k = k.checked_sub(1)?;
        match &toks[k].0 {
            Tok::P('>') => depth += 1,
            Tok::P('<') => depth -= 1,
            _ => {}
        }
    }
    // Require the `::` introducing the generic args, then the name.
    if k < 3 || toks[k - 1].0 != Tok::P(':') || toks[k - 2].0 != Tok::P(':') {
        return None;
    }
    match &toks[k - 3].0 {
        Tok::I(w) if !is_keyword(w) => Some(k - 3),
        _ => None,
    }
}

/// Parses the use tree following a `use` keyword (`i` points just past
/// it), flattening groups and renames into [`UseImport`]s for
/// `module`'s scope (globs are skipped). Returns the token index just past the terminating
/// `;` (error recovery: end of stream).
fn parse_use(toks: &[(Tok, usize)], mut i: usize, module: &str, out: &mut Vec<UseImport>) -> usize {
    let n = toks.len();
    i = parse_use_tree(toks, i, &[], module, out);
    while i < n {
        if toks[i].0 == Tok::P(';') {
            return i + 1;
        }
        i += 1;
    }
    n
}

/// One branch of a use tree, rooted at path prefix `base`. Returns the
/// index just past the branch (before any `,` / `}` / `;`).
fn parse_use_tree(
    toks: &[(Tok, usize)],
    mut i: usize,
    base: &[String],
    module: &str,
    out: &mut Vec<UseImport>,
) -> usize {
    let n = toks.len();
    let mut path: Vec<String> = base.to_vec();
    loop {
        let Some((Tok::I(seg), line)) = toks.get(i) else {
            return i; // `}` / `,` / `;` / end: nothing (more) to bind
        };
        let line = *line;
        if seg == "as" {
            return i;
        }
        // `use a::b::{self, c}`: `self` names the base path itself (its
        // binding falls out of `path.last()` below). A leading `self::`
        // prefix is kept verbatim for the resolver to normalize.
        if seg != "self" || path.is_empty() {
            path.push(seg.clone());
        }
        // `::` continuation: another segment, a glob, or a group.
        if i + 2 < n && toks[i + 1].0 == Tok::P(':') && toks[i + 2].0 == Tok::P(':') {
            i += 3;
            match toks.get(i) {
                Some((Tok::P('*'), _)) => return i + 1,
                Some((Tok::P('{'), _)) => {
                    i += 1;
                    loop {
                        match toks.get(i) {
                            Some((Tok::P('}'), _)) => return i + 1,
                            Some((Tok::P(','), _)) => i += 1,
                            Some(_) => {
                                let next = parse_use_tree(toks, i, &path, module, out);
                                // Always advance, even on malformed
                                // input, so the group scan terminates.
                                i = next.max(i + 1);
                            }
                            None => return n,
                        }
                    }
                }
                _ => continue,
            }
        }
        // Leaf segment: optional `as` rename, then emit the binding.
        let mut alias = path.last().cloned().unwrap_or_default();
        let mut next = i + 1;
        if let Some((Tok::I(a), _)) = toks.get(next) {
            if a == "as" {
                if let Some((Tok::I(renamed), _)) = toks.get(next + 1) {
                    alias = renamed.clone();
                    next += 2;
                }
            }
        }
        if !path.is_empty() {
            out.push(UseImport {
                module: module.to_string(),
                path,
                alias,
                line,
            });
        }
        return next;
    }
}

/// UpperCamelCase initial — type/ctor-shaped by Rust convention (the
/// same heuristic the resolver uses; extract keeps a local copy so the
/// token layer stays self-contained).
fn upper_shaped(w: &str) -> bool {
    w.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Appends `w` unless already present. Operand ident sets are tiny, so
/// a linear scan preserves source order without hashing.
fn push_unique(v: &mut Vec<String>, w: &str) {
    if !v.iter().any(|x| x == w) {
        v.push(w.to_string());
    }
}

/// Whether the token before `at` can end a value operand — which is
/// what makes a `*`, `+`, `<`, `%`, `=` or `[` at `at` binary/postfix
/// rather than unary, generic or declarative. `Some(ident)` for a
/// non-keyword identifier, `Some("")` for a closing `)`/`]`.
fn operand_end(toks: &[(Tok, usize)], at: usize) -> Option<&str> {
    match &toks[at.checked_sub(1)?].0 {
        Tok::I(w) if !is_keyword(w) => Some(w),
        Tok::P(')') | Tok::P(']') => Some(""),
        _ => None,
    }
}

/// The binary arithmetic operator starting at `at`, with its width in
/// tokens. A type-shaped ident left of `<<` is the qualified-path sugar
/// `Foo<<A as B>::C>` — generics, not a shift.
fn arith_op(toks: &[(Tok, usize)], at: usize) -> Option<(ArithOp, usize)> {
    let left = operand_end(toks, at)?;
    match toks[at].0 {
        Tok::P('*') => Some((ArithOp::Mul, 1)),
        Tok::P('+') => Some((ArithOp::Add, 1)),
        Tok::P('<')
            if toks.get(at + 1).map(|(t, _)| t) == Some(&Tok::P('<')) && !upper_shaped(left) =>
        {
            Some((ArithOp::Shl, 2))
        }
        _ => None,
    }
}

/// Identifier roots of the operand that *ends* just before token `at`
/// (exclusive): a dotted ident chain (`cfg.n_clients` → both idents) or
/// a balanced `(..)`/`[..]` group plus the chain it hangs off
/// (`((a as f64) * b).round()` → every ident inside). Keywords
/// terminate the walk; budgets keep it linear and deterministic.
fn operand_before(toks: &[(Tok, usize)], at: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = at; // exclusive upper bound
    let mut budget = 64usize;
    loop {
        if out.len() >= 12 || budget == 0 {
            break;
        }
        let Some(prev) = j.checked_sub(1) else { break };
        match &toks[prev].0 {
            Tok::P(c @ (')' | ']')) => {
                let (open, close) = if *c == ')' { ('(', ')') } else { ('[', ']') };
                let mut d = 1i32;
                let mut k = prev;
                while d > 0 {
                    let Some(kk) = k.checked_sub(1) else {
                        return out;
                    };
                    k = kk;
                    budget = budget.saturating_sub(1);
                    if budget == 0 {
                        return out;
                    }
                    match &toks[k].0 {
                        Tok::P(c2) if *c2 == close => d += 1,
                        Tok::P(c2) if *c2 == open => d -= 1,
                        Tok::I(w) if !is_keyword(w) => push_unique(&mut out, w),
                        _ => {}
                    }
                }
                j = k; // at the opening token; keep walking the chain
            }
            Tok::I(w) => {
                if is_keyword(w) {
                    break;
                }
                push_unique(&mut out, w);
                budget = budget.saturating_sub(1);
                if prev >= 2 && toks[prev - 1].0 == Tok::P('.') {
                    j = prev - 1; // continue before the dot
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    out
}

/// Identifier roots of the operand *starting* at token `at`: skips
/// prefix sigils, then follows a dotted/call/path chain
/// (`zipf.sample(rng)` → `zipf`, `sample`, `rng`) or a parenthesized
/// group's ident set.
fn operand_after(toks: &[(Tok, usize)], at: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = at;
    let mut budget = 64usize;
    while matches!(toks.get(j), Some((Tok::P('&' | '*' | '-' | '!'), _))) {
        j += 1;
    }
    if matches!(toks.get(j), Some((Tok::I(w), _)) if w == "mut") {
        j += 1;
    }
    // Collects one balanced paren group whose `(` is at `k`; returns
    // the index just past the close.
    let group = |out: &mut Vec<String>, budget: &mut usize, k: usize| -> usize {
        let mut d = 1i32;
        let mut k = k + 1;
        while k < toks.len() && d > 0 && *budget > 0 {
            *budget -= 1;
            match &toks[k].0 {
                Tok::P('(') => d += 1,
                Tok::P(')') => d -= 1,
                Tok::I(w2) if !is_keyword(w2) => push_unique(out, w2),
                _ => {}
            }
            k += 1;
        }
        k
    };
    loop {
        if out.len() >= 12 || budget == 0 {
            break;
        }
        match toks.get(j).map(|(t, _)| t) {
            Some(Tok::I(w)) => {
                if is_keyword(w) {
                    break;
                }
                push_unique(&mut out, w);
                budget = budget.saturating_sub(1);
                match toks.get(j + 1).map(|(t, _)| t) {
                    Some(Tok::P('.')) => j += 2,
                    Some(Tok::P(':')) if toks.get(j + 2).map(|(t, _)| t) == Some(&Tok::P(':')) => {
                        j += 3
                    }
                    Some(Tok::P('(')) => {
                        let k = group(&mut out, &mut budget, j + 1);
                        if toks.get(k).map(|(t, _)| t) == Some(&Tok::P('.')) {
                            j = k + 1;
                        } else {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            Some(Tok::P('(')) => {
                let k = group(&mut out, &mut budget, j);
                if toks.get(k).map(|(t, _)| t) == Some(&Tok::P('.')) {
                    j = k + 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    out
}

/// All identifier roots from `from` until the terminating `;` at
/// bracket depth 0 relative to `from` (budget-capped), plus whether any
/// collected ident is a width guard ([`is_width_guard`]).
fn idents_until_semi(toks: &[(Tok, usize)], from: usize) -> (Vec<String>, bool) {
    let mut out = Vec::new();
    let mut guarded = false;
    let mut d = 0i32;
    let mut j = from;
    let mut budget = 240usize;
    while j < toks.len() && budget > 0 {
        budget -= 1;
        match &toks[j].0 {
            Tok::P('(') | Tok::P('[') | Tok::P('{') => d += 1,
            Tok::P(')') | Tok::P(']') | Tok::P('}') => {
                if d == 0 {
                    break;
                }
                d -= 1;
            }
            Tok::P(';') if d == 0 => break,
            Tok::I(w) if !is_keyword(w) => {
                guarded |= is_width_guard(w);
                if out.len() < 24 {
                    push_unique(&mut out, w);
                }
            }
            _ => {}
        }
        j += 1;
    }
    (out, guarded)
}

/// Splits the balanced argument list whose `(` sits at `open` into
/// per-argument identifier root sets (split at top-level commas).
/// Numeric literals are invisible to the tokenizer, so a literal-only
/// argument contributes an empty set — the commas still keep later
/// positions aligned with the callee's parameters.
fn call_args(toks: &[(Tok, usize)], open: usize) -> Vec<Vec<String>> {
    let mut args: Vec<Vec<String>> = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let mut d = 1i32;
    let mut j = open + 1;
    let mut budget = 200usize;
    while j < toks.len() && d > 0 && budget > 0 {
        budget -= 1;
        match &toks[j].0 {
            Tok::P('(') | Tok::P('[') | Tok::P('{') => d += 1,
            Tok::P(')') | Tok::P(']') | Tok::P('}') => d -= 1,
            Tok::P(',') if d == 1 => args.push(std::mem::take(&mut cur)),
            Tok::I(w) if !is_keyword(w) && cur.len() < 12 => {
                push_unique(&mut cur, w);
            }
            _ => {}
        }
        j += 1;
    }
    if !cur.is_empty() || !args.is_empty() {
        args.push(cur);
    }
    args
}

/// Whether the statement containing token `at` starts with `let`
/// (scanning back to the previous `;`, `{`, or `}`).
fn binds_with_let(toks: &[(Tok, usize)], at: usize) -> bool {
    let mut j = at;
    while j > 0 {
        j -= 1;
        match &toks[j].0 {
            Tok::P(';') | Tok::P('{') | Tok::P('}') => {
                return matches!(&toks.get(j + 1).map(|(t, _)| t), Some(Tok::I(w)) if w == "let");
            }
            _ => {}
        }
    }
    matches!(&toks.first().map(|(t, _)| t), Some(Tok::I(w)) if w == "let")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::sanitize;

    fn ex(rel: &str, src: &str) -> FileExtract {
        let lines = sanitize(src);
        let skip = vec![false; lines.len()];
        extract(rel, &lines, &skip)
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_path("crates/spec/src/deps.rs"), "spec::deps");
        assert_eq!(
            module_path("crates/core/src/obs/events.rs"),
            "core::obs::events"
        );
        assert_eq!(module_path("crates/core/src/obs/mod.rs"), "core::obs");
        assert_eq!(module_path("crates/core/src/lib.rs"), "core");
        assert_eq!(
            module_path("crates/bench/src/bin/figures.rs"),
            "bench::bin::figures"
        );
        assert_eq!(module_path("src/lib.rs"), "specweb");
        assert_eq!(module_path("src/bin/specweb.rs"), "specweb::bin::specweb");
        assert_eq!(
            module_path("examples/quickstart.rs"),
            "examples::quickstart"
        );
    }

    #[test]
    fn fns_impls_and_mods_get_qualified_names() {
        let src = "
mod inner {
    pub struct Thing;
    impl Thing {
        pub fn make() -> Thing { helper() }
    }
    fn helper() -> Thing { Thing }
}
impl fmt::Display for Wide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write(f) }
}
pub fn top() { inner::helper(); }
";
        let fx = ex("crates/x/src/lib.rs", src);
        let names: Vec<&str> = fx.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(
            names,
            [
                "x::inner::Thing::make",
                "x::inner::helper",
                "x::Wide::fmt",
                "x::top"
            ],
            "{fx:#?}"
        );
        assert!(fx.impl_types.contains("Thing"));
        assert!(fx.impl_types.contains("Wide"));
        let top = fx.fns.iter().find(|f| f.name == "top").unwrap();
        assert_eq!(top.calls.len(), 1);
        assert_eq!(top.calls[0].qualifier, "inner");
        assert_eq!(top.calls[0].name, "helper");
    }

    #[test]
    fn method_and_path_calls_are_distinguished() {
        let src = "fn f(x: &W) { x.step(); self.tick(); W::boot(); a::b::go(); }";
        let fx = ex("crates/x/src/lib.rs", src);
        let calls = &fx.fns[0].calls;
        assert!(calls
            .iter()
            .any(|c| c.name == "step" && c.is_method && !c.on_self));
        assert!(calls.iter().any(|c| c.name == "tick" && c.on_self));
        assert!(calls.iter().any(|c| c.name == "boot" && c.qualifier == "W"));
        assert!(calls
            .iter()
            .any(|c| c.name == "go" && c.qualifier == "a::b"));
    }

    #[test]
    fn hash_iteration_is_a_source_but_lookup_is_not() {
        let src = "
fn lookup(m: &HashMap<u32, u32>) -> Option<u32> { m.get(&1).copied() }
fn leak(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut v: Vec<u32> = m.keys().copied().collect();
    for (a, b) in &m2 { v.push(*a + *b); }
    v
}
";
        let fx = ex("crates/x/src/lib.rs", src);
        let lookup = fx.fns.iter().find(|f| f.name == "lookup").unwrap();
        assert!(
            lookup
                .sources
                .iter()
                .all(|s| s.kind != SourceKind::HashIter),
            "{lookup:#?}"
        );
        let leak = fx.fns.iter().find(|f| f.name == "leak").unwrap();
        let iters: Vec<&SourceSite> = leak
            .sources
            .iter()
            .filter(|s| s.kind == SourceKind::HashIter)
            .collect();
        // `m.keys()` trips; the for-loop over `m2` does not (m2 is not
        // hash-typed in this file).
        assert_eq!(iters.len(), 1, "{leak:#?}");
        assert_eq!(iters[0].what, "m");
    }

    #[test]
    fn for_loop_over_hash_field_is_a_source() {
        let src = "
struct B { follows: HashMap<(u32, u32), u64> }
impl B {
    fn build(&self) { for (k, n) in &self.follows { use_it(k, n); } }
}
";
        let fx = ex("crates/x/src/lib.rs", src);
        let build = fx.fns.iter().find(|f| f.name == "build").unwrap();
        assert!(
            build
                .sources
                .iter()
                .any(|s| s.kind == SourceKind::HashIter && s.what == "follows"),
            "{build:#?}"
        );
    }

    #[test]
    fn wall_clock_rng_thread_and_panic_sources() {
        let src = "
fn f() {
    let t = Instant::now();
    let st = SystemTime::now();
    let r = thread_rng();
    std::thread::spawn(|| {});
    let v = x.unwrap();
    let w = y.expect( );
}
";
        let fx = ex("crates/x/src/lib.rs", src);
        let kinds: Vec<SourceKind> = fx.fns[0].sources.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SourceKind::WallClock));
        assert!(kinds.contains(&SourceKind::Rng));
        assert!(kinds.contains(&SourceKind::ThreadSpawn));
        assert_eq!(
            kinds.iter().filter(|&&k| k == SourceKind::Panic).count(),
            2,
            "{:#?}",
            fx.fns[0].sources
        );
        // SystemTime::now yields both the ident hit and the call-path
        // hit at the same site; the graph dedups per line.
        assert!(
            kinds
                .iter()
                .filter(|&&k| k == SourceKind::WallClock)
                .count()
                >= 2
        );
    }

    #[test]
    fn lock_sites_record_receiver_and_let_binding() {
        let src = "
fn f(&self) {
    let g = self.inner.lock();
    *slots[i].lock().unwrap_or_else(e) = 1;
}
";
        let fx = ex("crates/x/src/lib.rs", src);
        let locks = &fx.fns[0].locks;
        assert_eq!(locks.len(), 2, "{locks:#?}");
        assert_eq!(locks[0].name, "inner");
        assert!(locks[0].held);
        assert_eq!(locks[1].name, "slots");
        assert!(!locks[1].held);
    }

    #[test]
    fn closure_bodies_attribute_to_the_defining_fn() {
        let src = "fn f() { pool.map_indexed(&xs, |_, x| helper(x)); }";
        let fx = ex("crates/x/src/lib.rs", src);
        assert!(fx.fns[0].calls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn trait_default_methods_are_methods_of_the_trait() {
        let src = "trait T { fn req(&self); fn has_default(&self) { self.req(); } }";
        let fx = ex("crates/x/src/lib.rs", src);
        let names: Vec<&str> = fx.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(names, ["x::T::req", "x::T::has_default"]);
        assert_eq!(fx.fns[1].self_type.as_deref(), Some("T"));
    }

    #[test]
    fn fn_pointer_types_and_sig_impls_do_not_confuse_scopes() {
        let src = "
fn f(cb: fn(u32) -> u32, it: impl Fn() -> u32) -> u32 { cb(1) + it() }
fn g() {}
";
        let fx = ex("crates/x/src/lib.rs", src);
        let names: Vec<&str> = fx.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(names, ["x::f", "x::g"], "{fx:#?}");
    }

    #[test]
    fn index_sites_are_counted_not_reported() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] + v[i + 1] }";
        let fx = ex("crates/x/src/lib.rs", src);
        assert_eq!(fx.fns[0].index_sites, 2);
        assert!(fx.fns[0].sources.is_empty());
    }

    #[test]
    fn raw_identifiers_stay_whole() {
        let src = "
fn r#type() -> u32 { 1 }
fn f() { r#type(); }
";
        let fx = ex("crates/x/src/lib.rs", src);
        let names: Vec<&str> = fx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["r#type", "f"], "{fx:#?}");
        let f = &fx.fns[1];
        assert_eq!(f.calls.len(), 1, "{f:#?}");
        assert_eq!(f.calls[0].name, "r#type");
        // Crucially: no spurious call named `r` and no phantom `type`
        // keyword confusing the scope machine.
        assert!(f.calls.iter().all(|c| c.name != "r"));
    }

    #[test]
    fn turbofish_paths_keep_their_qualifier() {
        let src = "fn f() { let v = Vec::<u64>::new(); q::helper::<u64>(1); }";
        let fx = ex("crates/x/src/lib.rs", src);
        let calls = &fx.fns[0].calls;
        assert!(
            calls
                .iter()
                .any(|c| c.name == "new" && c.qualifier == "Vec"),
            "{calls:#?}"
        );
        assert!(
            calls
                .iter()
                .any(|c| c.name == "helper" && c.qualifier == "q" && !c.is_method),
            "{calls:#?}"
        );
        // No degraded any-name `new` call without its qualifier.
        assert!(calls
            .iter()
            .all(|c| c.name != "new" || c.qualifier == "Vec"));
    }

    #[test]
    fn turbofish_method_calls_are_methods() {
        let src = "fn f(xs: &[u32]) -> Vec<u32> { xs.iter().map(double).collect::<Vec<u32>>() }";
        let fx = ex("crates/x/src/lib.rs", src);
        let calls = &fx.fns[0].calls;
        assert!(
            calls.iter().any(|c| c.name == "collect" && c.is_method),
            "{calls:#?}"
        );
    }

    #[test]
    fn use_trees_flatten_to_imports() {
        let src = "
use std::collections::{HashMap, BTreeMap as Sorted};
use specweb_core::par::*;
use crate::deps::DepMatrix;
use a::b::{self, c};
mod inner {
    use super::helper;
}
fn f() {}
";
        let fx = ex("crates/x/src/lib.rs", src);
        let got: Vec<(String, String, String)> = fx
            .imports
            .iter()
            .map(|u| (u.module.clone(), u.path.join("::"), u.alias.clone()))
            .collect();
        let x = |p: &str, a: &str| ("x".to_string(), p.to_string(), a.to_string());
        assert_eq!(
            got,
            [
                x("std::collections::HashMap", "HashMap"),
                x("std::collections::BTreeMap", "Sorted"),
                // The glob `specweb_core::par::*` binds no name.
                x("crate::deps::DepMatrix", "DepMatrix"),
                x("a::b", "b"),
                x("a::b::c", "c"),
                (
                    "x::inner".to_string(),
                    "super::helper".to_string(),
                    "helper".to_string(),
                ),
            ],
            "{fx:#?}"
        );
        // The group braces never perturb scope tracking: `f` is still
        // module-level.
        assert_eq!(fx.fns[0].qname, "x::f");
    }

    #[test]
    fn sig_mut_flags_mut_borrows_only() {
        let src = "
fn a(&mut self) {}
fn b(x: &mut u32) {}
fn c(mut x: u32) {}
fn d(x: &u32) { let mut y = 0; let r = &mut y; }
";
        let fx = ex("crates/x/src/lib.rs", src);
        let by: Vec<(String, bool)> = fx.fns.iter().map(|f| (f.name.clone(), f.sig_mut)).collect();
        assert_eq!(
            by,
            [
                ("a".to_string(), true),
                ("b".to_string(), true),
                ("c".to_string(), false),
                ("d".to_string(), false),
            ],
            "{fx:#?}"
        );
    }

    #[test]
    fn effect_sites_io_and_global() {
        let src = "
fn f() {
    println!( );
    fs::write(p, b);
    std::env::var( );
    env::set_var(k, v);
    out.write_all(buf);
    File::open(p);
    process::exit(1);
}
fn quiet(x: u32) -> u32 { x + 1 }
";
        let fx = ex("crates/x/src/lib.rs", src);
        let whats: Vec<(&str, &str)> = fx.fns[0]
            .effects
            .iter()
            .map(|e| (e.kind.id(), e.what.as_str()))
            .collect();
        assert_eq!(
            whats,
            [
                ("io", "println!"),
                ("io", "fs::write"),
                // env::var is absent: env reads are configuration, not
                // effects (constant per process).
                ("global", "env::set_var"),
                ("io", "write_all"),
                ("io", "File::open"),
                ("global", "process::exit"),
            ],
            "{fx:#?}"
        );
        assert!(fx.fns[1].effects.is_empty());
    }

    #[test]
    fn log_macro_is_not_an_effect() {
        let src = "fn f() { log!(Level::Info, \"x\"); }";
        let fx = ex("crates/x/src/lib.rs", src);
        assert!(fx.fns[0].effects.is_empty(), "{fx:#?}");
    }

    #[test]
    fn par_regions_mark_worker_closure_calls() {
        let src = "
fn f(pool: &Pool) {
    before();
    pool.map_indexed(&xs, |_, x| helper(deep(x)));
    after();
}
";
        let fx = ex("crates/x/src/lib.rs", src);
        let flag = |n: &str| {
            fx.fns[0]
                .calls
                .iter()
                .find(|c| c.name == n)
                .map(|c| c.in_par)
        };
        assert_eq!(flag("before"), Some(false));
        assert_eq!(flag("map_indexed"), Some(false), "{fx:#?}");
        assert_eq!(flag("helper"), Some(true));
        assert_eq!(flag("deep"), Some(true));
        assert_eq!(flag("after"), Some(false));
    }
}
