//! The one reachability primitive under the graph rules.
//!
//! G1 and G3 ask what the deterministic (hot) roots can reach, G2 what
//! a lock holder can reach and whether the lock-order graph loops back,
//! and the purity classification what can reach an effect site. All
//! four are the same search: a multi-source breadth-first walk over
//! call edges, forward or reverse, that refuses to enter *cut* nodes
//! and remembers, per reached node, the neighbour one hop closer to a
//! seed. That parent map is also the evidence: walking it renders the
//! shortest call chain every finding carries.
//!
//! Seeds are taken in the order given and neighbours in `BTreeSet`
//! order, so the parent map — and with it every rendered chain — is
//! deterministic. `tests/reach.rs` checks the search against a
//! brute-force transitive closure on random graphs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Caller → callees adjacency (see [`crate::graph::CallGraph::edges`]).
pub type Edges = BTreeMap<String, BTreeSet<String>>;

/// Which way a search follows the call edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Caller → callee: everything the seeds can reach.
    Forward,
    /// Callee → caller: everything that can reach a seed.
    Reverse,
}

/// The outcome of [`reach`]: the reached set with one shortest path per
/// member.
#[derive(Debug, Clone)]
pub struct Reach {
    dir: Dir,
    /// Reached node → the node it was discovered from (seeds map to
    /// themselves).
    parent: BTreeMap<String, String>,
}

/// Breadth-first search from `seeds` along `edges` in direction `dir`,
/// never entering a node `cut` holds for (a cut seed is not a seed).
pub fn reach(edges: &Edges, dir: Dir, seeds: &[String], cut: impl Fn(&str) -> bool) -> Reach {
    let transposed: Edges;
    let next = match dir {
        Dir::Forward => edges,
        Dir::Reverse => {
            let mut callers = Edges::new();
            for (from, tos) in edges {
                for to in tos {
                    callers.entry(to.clone()).or_default().insert(from.clone());
                }
            }
            transposed = callers;
            &transposed
        }
    };
    let mut parent: BTreeMap<String, String> = BTreeMap::new();
    let mut queue: VecDeque<&String> = VecDeque::new();
    for s in seeds {
        if !cut(s) && !parent.contains_key(s) {
            parent.insert(s.clone(), s.clone());
            queue.push_back(s);
        }
    }
    while let Some(q) = queue.pop_front() {
        for n in next.get(q).into_iter().flatten() {
            if !cut(n) && !parent.contains_key(n) {
                parent.insert(n.clone(), q.clone());
                queue.push_back(n);
            }
        }
    }
    Reach { dir, parent }
}

impl Reach {
    /// Whether the search reached `q`.
    pub fn contains(&self, q: &str) -> bool {
        self.parent.contains_key(q)
    }

    /// A shortest call path between `at` and a seed, caller first:
    /// seed → … → `at` after a forward search, `at` → … → seed after a
    /// reverse one. Empty when `at` was not reached.
    pub fn path(&self, at: &str) -> Vec<&str> {
        let mut hops: Vec<&str> = Vec::new();
        let mut cur = at;
        while let Some((q, p)) = self.parent.get_key_value(cur) {
            hops.push(q);
            if p == q {
                break;
            }
            cur = p;
        }
        if self.dir == Dir::Forward {
            hops.reverse();
        }
        hops
    }

    /// [`Self::path`] rendered as an evidence chain: each hop through
    /// `hop`, joined by ` -> `.
    pub fn chain(&self, at: &str, hop: impl Fn(&str) -> String) -> String {
        let hops: Vec<String> = self.path(at).into_iter().map(hop).collect();
        hops.join(" -> ")
    }
}
