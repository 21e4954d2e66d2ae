//! The clientele tree.
//!
//! §2.1: *"For a given home server, we view the WWW clientele (Internet)
//! as a tree rooted at the server. The leaves of that tree are the
//! clients and the internal nodes are the potential proxies."* The paper
//! built a 34,000-node tree for `cs-www.bu.edu` from TCP/IP record-route
//! data; we build synthetic trees with the same structure (root = the
//! server's attachment, interior = candidate proxies, leaves = client
//! attachment points) and compute hop distances exactly.

use rand::Rng;
use serde::{Deserialize, Serialize};
use specweb_core::ids::NodeId;
use specweb_core::rng::SeedTree;

/// What a tree node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// The root — the home-server side of the network.
    Root,
    /// An interior node: a potential service-proxy location.
    Interior,
    /// A leaf: a client attachment point.
    Leaf,
}

/// An immutable rooted tree with parent pointers, depths and child lists.
///
/// Node 0 is always the root. Hop distance between two nodes is computed
/// via their lowest common ancestor by walking parent pointers — O(depth),
/// which is tiny for the shallow trees that model autonomous-system
/// hierarchies (depth 3–8).
///
/// ```
/// use specweb_netsim::topology::Topology;
/// // root → 3 edges → 4 leaves each.
/// let t = Topology::two_level(3, 4);
/// let a = t.leaves()[0];
/// let b = t.leaves()[11];
/// assert_eq!(t.depth(a), 2);
/// assert_eq!(t.hops(a, Topology::ROOT), 2);
/// assert_eq!(t.hops(a, b), 4); // up to the root, down the other edge
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    parent: Vec<u32>,
    depth: Vec<u32>,
    kind: Vec<NodeKind>,
    children: Vec<Vec<u32>>,
    leaves: Vec<NodeId>,
}

impl Topology {
    /// The root node (always id 0).
    pub const ROOT: NodeId = NodeId(0);

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty (never true — builders always produce a
    /// root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The parent of `n`; the root is its own parent.
    #[inline]
    pub fn parent(&self, n: NodeId) -> NodeId {
        NodeId(self.parent[n.index()])
    }

    /// Depth of `n` (root = 0).
    #[inline]
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }

    /// The kind of `n`.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kind[n.index()]
    }

    /// Children of `n`.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children[n.index()].iter().map(|&c| NodeId(c))
    }

    /// All leaf nodes, in id order.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// All interior (candidate-proxy) nodes, in id order.
    pub fn interior_nodes(&self) -> Vec<NodeId> {
        (0..self.len() as u32)
            .map(NodeId)
            .filter(|&n| self.kind(n) == NodeKind::Interior)
            .collect()
    }

    /// Lowest common ancestor of `a` and `b`.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a);
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b);
        }
        while a != b {
            a = self.parent(a);
            b = self.parent(b);
        }
        a
    }

    /// Hop distance between `a` and `b` (edges on the tree path).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let l = self.lca(a, b);
        (self.depth(a) - self.depth(l)) + (self.depth(b) - self.depth(l))
    }

    /// The path from `n` up to the root, inclusive of both endpoints.
    pub fn path_to_root(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.depth(n) as usize + 1);
        let mut cur = n;
        out.push(cur);
        while cur != Self::ROOT {
            cur = self.parent(cur);
            out.push(cur);
        }
        out
    }

    /// The root-child subtree ("cluster") `n` lives under: its ancestor
    /// at depth 1, or `n` itself when it is the root or one of the
    /// root's children. Walks parent pointers without allocating.
    pub fn root_child(&self, n: NodeId) -> NodeId {
        let mut cur = n;
        while self.depth(cur) > 1 {
            cur = self.parent(cur);
        }
        cur
    }

    /// Whether `anc` is an ancestor of `n` (or equal to it).
    pub fn is_ancestor(&self, anc: NodeId, n: NodeId) -> bool {
        let mut cur = n;
        loop {
            if cur == anc {
                return true;
            }
            if cur == Self::ROOT {
                return false;
            }
            cur = self.parent(cur);
        }
    }

    /// The subtree leaf count below each node — useful for placing
    /// proxies where they cover many clients.
    pub fn leaf_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.len()];
        // Nodes are created parents-first, so a reverse scan accumulates
        // child counts before the parent is visited.
        for i in (0..self.len()).rev() {
            if self.kind[i] == NodeKind::Leaf {
                counts[i] = 1;
            }
            if i != 0 {
                let p = self.parent[i] as usize;
                counts[p] += counts[i];
            }
        }
        counts
    }
}

/// Incremental tree builder. Nodes must be added parent-first (the
/// builder enforces it), which gives the `Topology` its useful
/// "children have larger ids than parents" invariant.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    parent: Vec<u32>,
    depth: Vec<u32>,
    kind: Vec<NodeKind>,
}

impl TopologyBuilder {
    /// Starts a tree containing only the root.
    pub fn new() -> Self {
        TopologyBuilder {
            parent: vec![0],
            depth: vec![0],
            kind: vec![NodeKind::Root],
        }
    }

    /// Adds a node under `parent` and returns its id.
    ///
    /// # Panics
    /// Panics if `parent` does not exist yet (nodes are parent-first).
    pub fn add(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        assert!(
            parent.index() < self.parent.len(),
            "parent {parent} does not exist"
        );
        assert_ne!(kind, NodeKind::Root, "only one root allowed");
        let id = self.parent.len() as u32;
        self.parent.push(parent.raw());
        self.depth.push(self.depth[parent.index()] + 1);
        self.kind.push(kind);
        NodeId(id)
    }

    /// Finalizes the tree.
    pub fn build(self) -> Topology {
        let n = self.parent.len();
        let mut children = vec![Vec::new(); n];
        for i in 1..n {
            children[self.parent[i] as usize].push(i as u32);
        }
        let leaves = (0..n as u32)
            .map(NodeId)
            .filter(|&x| self.kind[x.index()] == NodeKind::Leaf)
            .collect();
        Topology {
            parent: self.parent,
            depth: self.depth,
            kind: self.kind,
            children,
            leaves,
        }
    }
}

impl Topology {
    /// A balanced tree: `levels` interior levels each with fan-out
    /// `fanout`, and `leaves_per_node` client leaves under every
    /// bottom-level interior node.
    ///
    /// With `levels = 2, fanout = 4, leaves_per_node = 8` this models a
    /// backbone → regional → campus hierarchy with 32 client populations.
    pub fn balanced(levels: u32, fanout: u32, leaves_per_node: u32) -> Topology {
        let mut b = TopologyBuilder::new();
        let mut frontier = vec![Topology::ROOT];
        for _ in 0..levels {
            let mut next = Vec::with_capacity(frontier.len() * fanout as usize);
            for &p in &frontier {
                for _ in 0..fanout {
                    next.push(b.add(p, NodeKind::Interior));
                }
            }
            frontier = next;
        }
        for &p in &frontier {
            for _ in 0..leaves_per_node {
                b.add(p, NodeKind::Leaf);
            }
        }
        b.build()
    }

    /// A two-level "campus" topology: `n_edges` edge networks under the
    /// root, each with `clients_per_edge` leaves. The edge nodes are the
    /// natural proxy locations ("proxies at the edge of the
    /// organization", §2).
    pub fn two_level(n_edges: u32, clients_per_edge: u32) -> Topology {
        Topology::balanced(1, n_edges, clients_per_edge)
    }

    /// A random hierarchy: starting from the root, each interior node
    /// gets `1..=max_fanout` random interior children until `n_interior`
    /// nodes exist, then `n_leaves` leaves are attached to random
    /// interior nodes. Models the irregular record-route trees of §2.1.
    pub fn random(seed: &SeedTree, n_interior: u32, n_leaves: u32, max_fanout: u32) -> Topology {
        let mut rng = seed.child("topology").rng();
        let mut b = TopologyBuilder::new();
        let mut interior = vec![Topology::ROOT];
        while interior.len() < n_interior as usize + 1 {
            let p = interior[rng.gen_range(0..interior.len())];
            let burst = rng.gen_range(1..=max_fanout.max(1));
            for _ in 0..burst {
                if interior.len() > n_interior as usize {
                    break;
                }
                interior.push(b.add(p, NodeKind::Interior));
            }
        }
        for _ in 0..n_leaves {
            // Attach leaves anywhere except the root, preferring deeper
            // nodes (clients live at the fringes of the hierarchy).
            let idx = 1 + rng.gen_range(0..interior.len().saturating_sub(1).max(1));
            let p = interior[idx.min(interior.len() - 1)];
            b.add(p, NodeKind::Leaf);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basics() {
        let mut b = TopologyBuilder::new();
        let a = b.add(Topology::ROOT, NodeKind::Interior);
        let l1 = b.add(a, NodeKind::Leaf);
        let l2 = b.add(a, NodeKind::Leaf);
        let t = b.build();
        assert_eq!(t.len(), 4);
        assert_eq!(t.parent(l1), a);
        assert_eq!(t.depth(l1), 2);
        assert_eq!(t.kind(a), NodeKind::Interior);
        assert_eq!(t.leaves(), &[l1, l2]);
        assert_eq!(t.children(a).collect::<Vec<_>>(), vec![l1, l2]);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn builder_rejects_unknown_parent() {
        let mut b = TopologyBuilder::new();
        b.add(NodeId(99), NodeKind::Leaf);
    }

    #[test]
    fn hops_and_lca() {
        //        0
        //      /   \
        //     1     2
        //    / \     \
        //   3   4     5
        let mut b = TopologyBuilder::new();
        let n1 = b.add(Topology::ROOT, NodeKind::Interior);
        let n2 = b.add(Topology::ROOT, NodeKind::Interior);
        let n3 = b.add(n1, NodeKind::Leaf);
        let n4 = b.add(n1, NodeKind::Leaf);
        let n5 = b.add(n2, NodeKind::Leaf);
        let t = b.build();
        assert_eq!(t.lca(n3, n4), n1);
        assert_eq!(t.lca(n3, n5), Topology::ROOT);
        assert_eq!(t.lca(n3, n3), n3);
        assert_eq!(t.lca(n1, n3), n1);
        assert_eq!(t.hops(n3, n4), 2);
        assert_eq!(t.hops(n3, n5), 4);
        assert_eq!(t.hops(n3, Topology::ROOT), 2);
        assert_eq!(t.hops(n3, n3), 0);
    }

    #[test]
    fn path_to_root_and_ancestry() {
        let t = Topology::balanced(2, 2, 1);
        let leaf = t.leaves()[0];
        let path = t.path_to_root(leaf);
        assert_eq!(path.first(), Some(&leaf));
        assert_eq!(path.last(), Some(&Topology::ROOT));
        assert_eq!(path.len() as u32, t.depth(leaf) + 1);
        for w in path.windows(2) {
            assert_eq!(t.parent(w[0]), w[1]);
        }
        assert!(t.is_ancestor(Topology::ROOT, leaf));
        assert!(t.is_ancestor(leaf, leaf));
        assert!(!t.is_ancestor(leaf, Topology::ROOT));
    }

    #[test]
    fn root_child_is_the_path_entry_below_the_root() {
        let t = Topology::balanced(3, 3, 6);
        for n in (0..t.len() as u32).map(NodeId) {
            let path = t.path_to_root(n);
            let expect = if path.len() >= 2 {
                path[path.len() - 2]
            } else {
                path[0]
            };
            assert_eq!(t.root_child(n), expect, "node {n}");
        }
        assert_eq!(t.root_child(Topology::ROOT), Topology::ROOT);
    }

    #[test]
    fn balanced_shape() {
        let t = Topology::balanced(2, 3, 4);
        // 1 root + 3 + 9 interior + 36 leaves.
        assert_eq!(t.len(), 1 + 3 + 9 + 36);
        assert_eq!(t.leaves().len(), 36);
        assert_eq!(t.interior_nodes().len(), 12);
        for &l in t.leaves() {
            assert_eq!(t.depth(l), 3);
        }
    }

    #[test]
    fn two_level_shape() {
        let t = Topology::two_level(5, 10);
        assert_eq!(t.leaves().len(), 50);
        assert_eq!(t.interior_nodes().len(), 5);
        for &l in t.leaves() {
            assert_eq!(t.depth(l), 2);
        }
    }

    #[test]
    fn random_tree_is_well_formed() {
        let seed = SeedTree::new(11);
        let t = Topology::random(&seed, 40, 200, 4);
        assert_eq!(t.leaves().len(), 200);
        assert_eq!(t.interior_nodes().len(), 40);
        // Parent-first invariant.
        for i in 1..t.len() {
            assert!(t.parent[i] < i as u32);
        }
        // Deterministic under the same seed.
        let t2 = Topology::random(&seed, 40, 200, 4);
        assert_eq!(t.parent, t2.parent);
    }

    #[test]
    fn leaf_counts_sum_at_root() {
        let t = Topology::balanced(2, 3, 4);
        let counts = t.leaf_counts();
        assert_eq!(counts[0], 36);
        // A bottom-level interior node covers exactly its 4 leaves.
        let bottom = t
            .interior_nodes()
            .into_iter()
            .find(|&n| t.depth(n) == 2)
            .unwrap();
        assert_eq!(counts[bottom.index()], 4);
    }

    #[test]
    fn root_is_its_own_parent() {
        let t = Topology::two_level(2, 2);
        assert_eq!(t.parent(Topology::ROOT), Topology::ROOT);
        assert_eq!(t.depth(Topology::ROOT), 0);
        assert_eq!(t.kind(Topology::ROOT), NodeKind::Root);
    }
}
