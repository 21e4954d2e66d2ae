//! Request routing and interception.
//!
//! A client request travels up the clientele tree toward the home
//! server (which sits at the root — the tree is *rooted at the server*,
//! §2.1). Every proxy on that upward path that fronts the target server
//! is an interception opportunity; the one closest to the client that
//! holds the requested document serves it, shortening the path and
//! saving `bytes × hops_saved` of traffic.
//!
//! A replay asks for the same few routes millions of times, so it does
//! not call [`Router::route`] per request: [`Router::table`] resolves
//! every (node, server) route once into a [`RouteTable`], and the
//! per-request lookup is two index operations into it.

use serde::{Deserialize, Serialize};
use specweb_core::ids::{NodeId, ServerId};

use crate::cluster::ClusterMap;
use crate::topology::Topology;

/// One interception opportunity on a request path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interception {
    /// The proxy node.
    pub proxy: NodeId,
    /// Hops from the client to this proxy.
    pub hops_from_client: u32,
}

/// A resolved request path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// The requesting client's leaf node.
    pub client: NodeId,
    /// The target home server.
    pub server: ServerId,
    /// Proxies fronting `server` on the client→root path, nearest first.
    pub interceptions: Vec<Interception>,
    /// Hops from the client all the way to the home server (the root).
    pub origin_hops: u32,
}

impl Route {
    /// The hop count at which the request is served if the nearest proxy
    /// holding the document is `idx` (an index into `interceptions`),
    /// or the full origin distance when `idx` is `None`.
    pub fn served_hops(&self, idx: Option<usize>) -> u32 {
        match idx {
            Some(i) => self.interceptions[i].hops_from_client,
            None => self.origin_hops,
        }
    }
}

/// Resolves request paths over a topology and a cluster map.
#[derive(Debug, Clone)]
pub struct Router<'a> {
    topo: &'a Topology,
    clusters: &'a ClusterMap,
}

impl<'a> Router<'a> {
    /// Creates a router.
    pub fn new(topo: &'a Topology, clusters: &'a ClusterMap) -> Self {
        Router { topo, clusters }
    }

    /// The topology this router resolves against.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Resolves the path from `client` (a leaf) to `server` (at the
    /// root), collecting interception opportunities nearest-first.
    pub fn route(&self, client: NodeId, server: ServerId) -> Route {
        let path = self.topo.path_to_root(client);
        let mut interceptions = Vec::new();
        for (hops, &node) in path.iter().enumerate() {
            if node == Topology::ROOT {
                break;
            }
            if self
                .clusters
                .clusters()
                .iter()
                .any(|c| c.proxy == node && c.servers.contains(&server))
            {
                interceptions.push(Interception {
                    proxy: node,
                    hops_from_client: hops as u32,
                });
            }
        }
        Route {
            client,
            server,
            interceptions,
            origin_hops: self.topo.depth(client),
        }
    }

    /// Resolves the route from every node of the topology to each of
    /// servers `0..n_servers`, once.
    pub fn table(&self, n_servers: usize) -> RouteTable {
        let n_nodes = self.topo.len();
        let mut spans = Vec::with_capacity(n_nodes * n_servers);
        let mut interceptions = Vec::new();
        for node in (0..n_nodes).map(NodeId::from) {
            for server in (0..n_servers).map(ServerId::from) {
                let start = interceptions.len();
                interceptions.extend(self.route(node, server).interceptions);
                spans.push((start, interceptions.len()));
            }
        }
        RouteTable {
            n_servers,
            spans,
            interceptions,
        }
    }
}

/// Every (node, server) route of one topology and cluster map, resolved
/// once by [`Router::table`]. A route's origin distance is the node's
/// depth, which the topology already answers.
#[derive(Debug, Clone)]
pub struct RouteTable {
    n_servers: usize,
    /// `spans[node × n_servers + server]`: where that route's
    /// interceptions sit in `interceptions`.
    spans: Vec<(usize, usize)>,
    interceptions: Vec<Interception>,
}

impl RouteTable {
    /// The proxies fronting `server` on `node`'s path to the root,
    /// nearest first — [`Route::interceptions`] of `Router::route(node,
    /// server)`.
    #[inline]
    pub fn interceptions(&self, node: NodeId, server: ServerId) -> &[Interception] {
        let (start, end) = self.spans[node.index() * self.n_servers + server.index()];
        &self.interceptions[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::topology::{NodeKind, TopologyBuilder};

    /// root → region → edge → leaf, with proxies at region and edge.
    fn chain_topology() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let region = b.add(Topology::ROOT, NodeKind::Interior);
        let edge = b.add(region, NodeKind::Interior);
        let leaf = b.add(edge, NodeKind::Leaf);
        (b.build(), region, edge, leaf)
    }

    #[test]
    fn route_collects_interceptions_nearest_first() {
        let (topo, region, edge, leaf) = chain_topology();
        let s = ServerId::new(0);
        let mut map = ClusterMap::new();
        map.add(&topo, Cluster::new(edge, vec![s])).unwrap();
        map.add(&topo, Cluster::new(region, vec![s])).unwrap();

        let r = Router::new(&topo, &map).route(leaf, s);
        assert_eq!(r.origin_hops, 3);
        assert_eq!(r.interceptions.len(), 2);
        assert_eq!(r.interceptions[0].proxy, edge);
        assert_eq!(r.interceptions[0].hops_from_client, 1);
        assert_eq!(r.interceptions[1].proxy, region);
        assert_eq!(r.interceptions[1].hops_from_client, 2);
    }

    #[test]
    fn route_ignores_proxies_for_other_servers() {
        let (topo, _region, edge, leaf) = chain_topology();
        let mut map = ClusterMap::new();
        map.add(&topo, Cluster::new(edge, vec![ServerId::new(7)]))
            .unwrap();
        let r = Router::new(&topo, &map).route(leaf, ServerId::new(0));
        assert!(r.interceptions.is_empty());
        assert_eq!(r.served_hops(None), 3);
    }

    #[test]
    fn route_ignores_off_path_proxies() {
        // Two edges under the root; proxy on edge B must not intercept
        // requests from a leaf under edge A.
        let mut b = TopologyBuilder::new();
        let ea = b.add(Topology::ROOT, NodeKind::Interior);
        let eb = b.add(Topology::ROOT, NodeKind::Interior);
        let leaf_a = b.add(ea, NodeKind::Leaf);
        let topo = b.build();
        let s = ServerId::new(0);
        let mut map = ClusterMap::new();
        map.add(&topo, Cluster::new(eb, vec![s])).unwrap();
        let r = Router::new(&topo, &map).route(leaf_a, s);
        assert!(r.interceptions.is_empty());
    }

    #[test]
    fn served_hops_picks_interception_or_origin() {
        let (topo, region, edge, leaf) = chain_topology();
        let s = ServerId::new(0);
        let mut map = ClusterMap::new();
        map.add(&topo, Cluster::new(edge, vec![s])).unwrap();
        map.add(&topo, Cluster::new(region, vec![s])).unwrap();
        let r = Router::new(&topo, &map).route(leaf, s);
        assert_eq!(r.served_hops(Some(0)), 1);
        assert_eq!(r.served_hops(Some(1)), 2);
        assert_eq!(r.served_hops(None), 3);
    }
}
