//! Interprocedural purity: bottom-up effect propagation over the call
//! graph, a four-way classification of every workspace fn, and the two
//! rules it backs (DESIGN §9):
//!
//! * **G4** — functions the determinism/replay contract requires to be
//!   *effect-free* must classify as pure or locally-mutating: every
//!   shard-merge method (`merge(&mut self, &Other)` is how PR 7's
//!   sharded simulators recombine, so an effect there runs
//!   once-per-shard instead of once-per-run), every `ServiceTimeDist`
//!   method (the service-time distributions feed the merged replay
//!   reports), every `ConnCore` step fn (the record/replay layer
//!   replays them byte-identically), and `session::replay` itself.
//! * **G5** — no effectful call (and no direct effect site) inside a
//!   `core::par` worker closure. Worker closures run on a pool whose
//!   interleaving varies with `--jobs`; IO from inside one is
//!   nondeterministically ordered even when the computed values are
//!   not. The Obs channel (`crates/core/src/obs/`) is the sanctioned
//!   exception — that is what it is *for*.
//!
//! Effects propagate **bottom-up**: `effectful(f)` iff `f` has a direct
//! effect site (IO / process-global / wall-clock read) or any resolved
//! callee is effectful — a reverse [`crate::reach`] search from the
//! direct sites. Because the call graph over-approximates edges
//! (DESIGN §9), the propagation over-approximates effects — the sound
//! direction: a spurious edge can only cause a false *effectful*
//! classification (suppressable with `lint:allow`), never a false
//! *pure* one. Obs-channel fns are exempt and cut propagation; they are
//! reported honestly as `effect_exempt` when they carry direct effects.

use std::collections::{BTreeMap, BTreeSet};

use crate::extract::SourceKind;
use crate::graph::{CallGraph, Node};
use crate::reach::{reach, Dir, Reach};
use crate::rules::Hit;
use serde::{Serialize, Value};
use serde_json::json;

/// Files under this prefix form the sanctioned Obs channel: effects
/// there are policy, not hazards, and do not propagate to callers.
const OBS_PREFIX: &str = "crates/core/src/obs/";

fn is_obs(n: &Node) -> bool {
    n.file.starts_with(OBS_PREFIX)
}

/// The four-way purity classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Purity {
    /// No effects on any path; signature borrows nothing mutably.
    Pure,
    /// No effects, but the signature takes `&mut`: mutates
    /// caller-visible state through its arguments (fine for G4/G5 —
    /// that is what a merge fn *is*).
    LocalMut,
    /// Reaches an IO / global / wall-clock effect site.
    Effectful,
    /// Would be effectful, but lives in the Obs channel: sanctioned.
    EffectExempt,
}

impl Purity {
    /// Stable identifier used in JSON and diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Purity::Pure => "pure",
            Purity::LocalMut => "local_mut",
            Purity::Effectful => "effectful",
            Purity::EffectExempt => "effect_exempt",
        }
    }
}

/// The computed classification for every graph node.
#[derive(Debug, Clone)]
pub struct PurityMap {
    /// qname → class.
    pub class: BTreeMap<String, Purity>,
    /// qname → its first direct effect site `(line, kind, what)`, for
    /// every fn outside the Obs channel that has one.
    direct: BTreeMap<String, (usize, &'static str, String)>,
    /// Everything that can reach a `direct` fn without passing through
    /// the Obs channel — the effectful set, with a shortest witness
    /// path per member.
    effectful: Reach,
}

impl PurityMap {
    /// Bottom-up effect propagation over the call graph: a reverse
    /// search from the direct-effect fns that never enters the Obs
    /// channel, so every witness chain is a shortest path.
    pub fn compute(g: &CallGraph) -> PurityMap {
        let mut direct: BTreeMap<String, (usize, &'static str, String)> = BTreeMap::new();
        let mut exempt: BTreeSet<&str> = BTreeSet::new();
        for (q, n) in &g.nodes {
            let site = n
                .effects
                .first()
                .map(|e| (e.line, e.kind.id(), e.what.clone()))
                .or_else(|| {
                    n.sources
                        .iter()
                        .find(|s| s.kind == SourceKind::WallClock)
                        .map(|s| (s.line, "wall", s.what.clone()))
                });
            let Some(site) = site else { continue };
            if is_obs(n) {
                exempt.insert(q);
            } else {
                direct.insert(q.clone(), site);
            }
        }
        let seeds: Vec<String> = direct.keys().cloned().collect();
        let effectful = reach(&g.edges(), Dir::Reverse, &seeds, |q| {
            g.nodes.get(q).is_some_and(is_obs)
        });
        let mut class: BTreeMap<String, Purity> = BTreeMap::new();
        for (q, n) in &g.nodes {
            let c = if exempt.contains(q.as_str()) {
                Purity::EffectExempt
            } else if effectful.contains(q) {
                Purity::Effectful
            } else if n.sig_mut {
                Purity::LocalMut
            } else {
                Purity::Pure
            };
            class.insert(q.clone(), c);
        }
        PurityMap {
            class,
            direct,
            effectful,
        }
    }

    /// Whether `q` classifies as effectful.
    pub fn is_effectful(&self, q: &str) -> bool {
        self.class.get(q) == Some(&Purity::Effectful)
    }

    /// Renders the effect witness chain for an effectful fn:
    /// `a::f -> b::g (io `fs::write` at crates/b/src/lib.rs:12)`.
    pub fn chain(&self, g: &CallGraph, q: &str) -> String {
        self.effectful.chain(q, |hop| match self.direct.get(hop) {
            Some((line, kind, what)) => {
                let file = g.nodes.get(hop).map(|n| n.file.as_str()).unwrap_or("?");
                format!("{hop} ({kind} `{what}` at {file}:{line})")
            }
            None => hop.to_string(),
        })
    }

    /// Per-class counts, in [`Purity`] id order.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m: BTreeMap<&'static str, usize> = BTreeMap::new();
        for p in [
            Purity::Pure,
            Purity::LocalMut,
            Purity::Effectful,
            Purity::EffectExempt,
        ] {
            m.insert(p.id(), 0);
        }
        for p in self.class.values() {
            *m.entry(p.id()).or_insert(0) += 1;
        }
        m
    }

    /// The `purity.json` artifact (schema `specweb-purity/v1`): every
    /// fn's class, and for an effectful one its witness chain.
    pub fn to_value(&self, g: &CallGraph) -> Value {
        let row = |(q, p): (&String, &Purity)| {
            let mut row = vec![("class".to_string(), p.id().to_value())];
            if *p == Purity::Effectful {
                row.push(("why".to_string(), self.chain(g, q).to_value()));
            }
            (q.clone(), Value::Obj(row))
        };
        json!({
            "schema": "specweb-purity/v1",
            "counts": self.counts(),
            "fns": Value::Obj(self.class.iter().map(row).collect()),
        })
    }
}

/// The role a fn plays under the effect-free contract, when any (G4's
/// target set).
fn g4_role(qname: &str, n: &Node) -> Option<&'static str> {
    if n.name == "merge" && n.self_type.is_some() {
        return Some("shard-merge fn");
    }
    match n.self_type.as_deref() {
        Some("ServiceTimeDist") => return Some("service-time distribution fn"),
        Some("ConnCore") => return Some("replayable connection step fn"),
        _ => {}
    }
    if qname.ends_with("session::replay") && n.name == "replay" {
        return Some("session replayer");
    }
    None
}

/// G4: the effect-free contract over merge/replay/report fns.
pub fn check_effect_free(g: &CallGraph, pm: &PurityMap) -> Vec<Hit> {
    let mut hits: Vec<Hit> = Vec::new();
    for (q, n) in &g.nodes {
        let Some(role) = g4_role(q, n) else { continue };
        if pm.is_effectful(q) {
            hits.push(Hit::new(
                "G4",
                &n.file,
                n.line,
                format!(
                    "{role} `{q}` must be effect-free but reaches an effect: {}",
                    pm.chain(g, q)
                ),
            ));
        }
    }
    hits
}

/// G5: no effects inside a `core::par` worker closure (outside Obs).
pub fn check_par_purity(g: &CallGraph, pm: &PurityMap) -> Vec<Hit> {
    let mut hits: Vec<Hit> = Vec::new();
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for (q, n) in &g.nodes {
        if is_obs(n) {
            continue;
        }
        let direct = n.effects.iter().filter(|e| e.in_par).map(|e| {
            let msg = format!(
                "{} effect `{}` inside a core::par worker closure in `{q}`",
                e.kind.id(),
                e.what
            );
            (e.line, msg)
        });
        let via_call = n
            .par_calls
            .iter()
            .filter(|(callee, _)| pm.is_effectful(callee))
            .map(|(callee, line)| {
                let msg = format!(
                    "effectful call inside a core::par worker closure in `{q}`: {}",
                    pm.chain(g, callee)
                );
                (*line, msg)
            });
        for (line, msg) in direct.chain(via_call) {
            if seen.insert((n.file.clone(), line, msg.clone())) {
                hits.push(Hit::new("G5", &n.file, line, msg));
            }
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::graph;

    #[test]
    fn effects_propagate_bottom_up() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
pub fn top() -> u32 { mid() }
fn mid() -> u32 { leaf() }
fn leaf() -> u32 { println!( ); 1 }
pub fn clean(x: u32) -> u32 { x + 1 }
pub fn bump(x: &mut u32) { *x += 1; }
",
        )]);
        let pm = PurityMap::compute(&g);
        assert_eq!(pm.class["a::top"], Purity::Effectful);
        assert_eq!(pm.class["a::mid"], Purity::Effectful);
        assert_eq!(pm.class["a::leaf"], Purity::Effectful);
        assert_eq!(pm.class["a::clean"], Purity::Pure);
        assert_eq!(pm.class["a::bump"], Purity::LocalMut);
        let chain = pm.chain(&g, "a::top");
        assert!(
            chain.starts_with("a::top -> a::mid -> a::leaf (io `println!`"),
            "{chain}"
        );
    }

    #[test]
    fn obs_channel_cuts_propagation() {
        let g = graph(&[
            (
                "crates/core/src/obs/log.rs",
                "pub fn emit(msg: &str) { eprintln!( ); }",
            ),
            (
                "crates/a/src/lib.rs",
                "
use specweb_core::obs::log::emit;
pub fn work(x: u32) -> u32 { emit(msg); x }
",
            ),
        ]);
        let pm = PurityMap::compute(&g);
        assert_eq!(pm.class["core::obs::log::emit"], Purity::EffectExempt);
        assert_eq!(
            pm.class["a::work"],
            Purity::Pure,
            "calling the obs channel is sanctioned"
        );
    }

    #[test]
    fn wall_clock_reads_count_as_effects() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn stamp() -> u64 { let t = Instant::now(); 0 }",
        )]);
        let pm = PurityMap::compute(&g);
        assert_eq!(pm.class["a::stamp"], Purity::Effectful);
        assert!(pm.chain(&g, "a::stamp").contains("wall `Instant::now`"));
    }

    #[test]
    fn g4_flags_effectful_merge_fns_with_evidence() {
        let g = graph(&[(
            "crates/a/src/stats.rs",
            "
pub struct Tally { n: u64 }
impl Tally {
    pub fn merge(&mut self, other: &Tally) { self.n += other.n; audit(); }
}
fn audit() { fs::write(p, b); }
",
        )]);
        let pm = PurityMap::compute(&g);
        let hits = check_effect_free(&g, &pm);
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert_eq!(hits[0].rule, "G4");
        assert!(hits[0].message.contains("shard-merge fn"), "{hits:#?}");
        assert!(hits[0].message.contains("fs::write"), "{hits:#?}");
    }

    #[test]
    fn g4_accepts_locally_mutating_merges() {
        let g = graph(&[(
            "crates/a/src/stats.rs",
            "
pub struct Tally { n: u64 }
impl Tally {
    pub fn merge(&mut self, other: &Tally) { self.n += other.n; }
}
",
        )]);
        let pm = PurityMap::compute(&g);
        assert_eq!(pm.class["a::stats::Tally::merge"], Purity::LocalMut);
        assert!(check_effect_free(&g, &pm).is_empty());
    }

    #[test]
    fn g5_flags_direct_and_transitive_par_effects() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "
pub fn fan_out(pool: &Pool) {
    pool.map_indexed(&xs, |_, x| { println!( ); chatty(x) });
    pool.map_indexed(&ys, |_, y| quiet(y));
}
fn chatty(x: u32) -> u32 { eprintln!( ); x }
fn quiet(y: u32) -> u32 { y }
",
        )]);
        let pm = PurityMap::compute(&g);
        let hits = check_par_purity(&g, &pm);
        assert_eq!(hits.len(), 2, "{hits:#?}");
        assert!(hits.iter().all(|h| h.rule == "G5"));
        assert!(hits
            .iter()
            .any(|h| h.message.contains("io effect `println!`")));
        assert!(hits.iter().any(|h| h.message.contains("a::chatty")));
    }

    #[test]
    fn g5_covers_closures_handed_to_the_replay_kernel() {
        // The simulators never call `core::par` themselves: the kernel's
        // `replay_sharded` dispatches their part closure, so G5 must
        // treat its argument list as worker code too.
        let g = graph(&[(
            "crates/a/src/simulate.rs",
            "
pub fn run(shards: &ClusterShards) {
    shards.replay_sharded(&accesses, |accs| replay_shard(accs), |whole, part| whole.merge(&part));
}
fn replay_shard(accs: Accesses) -> u32 { eprintln!( ); 0 }
",
        )]);
        let pm = PurityMap::compute(&g);
        let hits = check_par_purity(&g, &pm);
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert_eq!(hits[0].rule, "G5");
        assert!(hits[0].message.contains("a::simulate::replay_shard"));
    }

    #[test]
    fn purity_json_is_deterministic_and_counts() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn f() { println!( ); }\npub fn g(x: u32) -> u32 { x }\n",
        )]);
        let pm = PurityMap::compute(&g);
        let v = pm.to_value(&g);
        assert_eq!(v["schema"], "specweb-purity/v1");
        assert_eq!(
            v["counts"],
            json!({"effect_exempt": 0, "effectful": 1, "local_mut": 0, "pure": 1})
        );
        assert_eq!(v["fns"]["a::f"]["class"], "effectful");
        let why = v["fns"]["a::f"]["why"].as_str().expect("witness chain");
        assert!(why.starts_with("a::f (io `println!`"), "{why}");
        assert_eq!(v["fns"]["a::g"], json!({"class": "pure"}));
        assert_eq!(v, pm.to_value(&g), "stable value");
    }
}
