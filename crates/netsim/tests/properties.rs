//! Property-based tests for the topology substrate: the hop metric and
//! routing invariants must hold on arbitrary random trees, not just the
//! balanced fixtures of the unit suites.

use proptest::prelude::*;
use specweb_core::ids::{NodeId, ServerId};
use specweb_core::rng::SeedTree;
use specweb_netsim::cluster::{Cluster, ClusterMap};
use specweb_netsim::routing::Router;
use specweb_netsim::topology::Topology;

fn random_topology(seed: u64, n_interior: u32, n_leaves: u32) -> Topology {
    Topology::random(&SeedTree::new(seed), n_interior, n_leaves, 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hop_metric_axioms(seed in 0u64..500, ai in 0usize..64, bi in 0usize..64) {
        let topo = random_topology(seed, 20, 40);
        let n = topo.len();
        let a = NodeId::new((ai % n) as u32);
        let b = NodeId::new((bi % n) as u32);
        // Identity and symmetry.
        prop_assert_eq!(topo.hops(a, a), 0);
        prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
        // Consistency with depth: distance to the root is the depth.
        prop_assert_eq!(topo.hops(a, Topology::ROOT), topo.depth(a));
    }

    #[test]
    fn triangle_inequality(seed in 0u64..200, ai in 0usize..64, bi in 0usize..64, ci in 0usize..64) {
        let topo = random_topology(seed, 15, 30);
        let n = topo.len();
        let a = NodeId::new((ai % n) as u32);
        let b = NodeId::new((bi % n) as u32);
        let c = NodeId::new((ci % n) as u32);
        prop_assert!(topo.hops(a, b) <= topo.hops(a, c) + topo.hops(c, b));
    }

    #[test]
    fn lca_is_a_common_ancestor_on_both_paths(seed in 0u64..200, ai in 0usize..64, bi in 0usize..64) {
        let topo = random_topology(seed, 15, 30);
        let n = topo.len();
        let a = NodeId::new((ai % n) as u32);
        let b = NodeId::new((bi % n) as u32);
        let l = topo.lca(a, b);
        prop_assert!(topo.is_ancestor(l, a));
        prop_assert!(topo.is_ancestor(l, b));
        // And the hop metric decomposes exactly through it.
        prop_assert_eq!(
            topo.hops(a, b),
            topo.hops(a, l) + topo.hops(l, b)
        );
    }

    #[test]
    fn path_to_root_is_consistent(seed in 0u64..200, ai in 0usize..64) {
        let topo = random_topology(seed, 15, 30);
        let n = topo.len();
        let a = NodeId::new((ai % n) as u32);
        let path = topo.path_to_root(a);
        prop_assert_eq!(path.len() as u32, topo.depth(a) + 1);
        for (i, w) in path.windows(2).enumerate() {
            prop_assert_eq!(topo.parent(w[0]), w[1]);
            prop_assert_eq!(topo.depth(w[0]), topo.depth(a) - i as u32);
        }
    }

    #[test]
    fn leaf_counts_are_consistent(seed in 0u64..200) {
        let topo = random_topology(seed, 20, 50);
        let counts = topo.leaf_counts();
        prop_assert_eq!(counts[0] as usize, topo.leaves().len());
        // Each node's count equals the number of leaves it is an
        // ancestor of.
        for idx in (0..topo.len()).step_by(7) {
            let node = NodeId::new(idx as u32);
            let direct = topo
                .leaves()
                .iter()
                .filter(|&&l| topo.is_ancestor(node, l))
                .count();
            prop_assert_eq!(counts[idx] as usize, direct);
        }
    }

    #[test]
    fn route_interceptions_are_on_path_and_sorted(seed in 0u64..100, li in 0usize..64, k in 1usize..6) {
        let topo = random_topology(seed, 15, 30);
        let leaves = topo.leaves();
        let leaf = leaves[li % leaves.len()];
        let server = ServerId::new(0);

        // Front the server with k arbitrary interior nodes.
        let interior = topo.interior_nodes();
        let mut map = ClusterMap::new();
        for i in 0..k.min(interior.len()) {
            map.add(&topo, Cluster::new(interior[i * interior.len() / k.max(1) % interior.len()], vec![server])).ok();
        }
        let route = Router::new(&topo, &map).route(leaf, server);

        prop_assert_eq!(route.origin_hops, topo.depth(leaf));
        let mut prev = 0u32;
        for itc in &route.interceptions {
            // On the client's path to the root…
            prop_assert!(topo.is_ancestor(itc.proxy, leaf));
            // …at the correct distance…
            prop_assert_eq!(itc.hops_from_client, topo.hops(leaf, itc.proxy));
            // …sorted nearest-first and strictly before the origin.
            prop_assert!(itc.hops_from_client >= prev);
            prop_assert!(itc.hops_from_client < route.origin_hops);
            prev = itc.hops_from_client;
        }
    }

    #[test]
    fn route_table_equals_route_for_every_node_and_server(
        seed in 0u64..200,
        fronts in prop::collection::vec((0usize..64, prop::collection::vec(0u32..4, 0..4)), 0..8),
    ) {
        let topo = random_topology(seed, 12, 24);
        // Clusters anywhere in the interior, fronting any subset of four
        // servers (possibly none, possibly a server the table does not
        // cover), several at one node, some nodes fronted for one server
        // only.
        let interior = topo.interior_nodes();
        let mut map = ClusterMap::new();
        for (at, servers) in &fronts {
            let servers = servers.iter().map(|&s| ServerId::new(s)).collect();
            map.add(&topo, Cluster::new(interior[at % interior.len()], servers)).unwrap();
        }
        let router = Router::new(&topo, &map);
        let n_servers = 3;
        let table = router.table(n_servers);
        for node in (0..topo.len()).map(NodeId::from) {
            for server in (0..n_servers).map(ServerId::from) {
                let route = router.route(node, server);
                prop_assert_eq!(
                    table.interceptions(node, server),
                    &route.interceptions[..],
                    "node {} server {}", node, server
                );
            }
        }
    }
}
