//! Clusters and the server↔proxy mapping.
//!
//! §2.1: *"Let C = S₀, S₁, …, Sₙ denote all the servers in a particular
//! cluster, where S₀ is distinguished as the service proxy."* The model
//! explicitly allows a **many-to-many** mapping: a server may be fronted
//! by several proxies (disseminating its documents along multiple
//! routes), and a proxy may front servers from several clusters.

use serde::{Deserialize, Serialize};
use specweb_core::ids::{NodeId, ServerId};

use crate::topology::{NodeKind, Topology};

/// One cluster: a service proxy `S₀` (a topology node) plus the home
/// servers it represents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// The proxy's location in the topology tree.
    pub proxy: NodeId,
    /// The servers this proxy fronts.
    pub servers: Vec<ServerId>,
}

impl Cluster {
    /// Creates a cluster.
    pub fn new(proxy: NodeId, servers: Vec<ServerId>) -> Self {
        Cluster { proxy, servers }
    }

    /// Number of member servers (the paper's `n`).
    pub fn n(&self) -> usize {
        self.servers.len()
    }
}

/// The full many-to-many server↔proxy mapping over a topology.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterMap {
    clusters: Vec<Cluster>,
}

impl ClusterMap {
    /// An empty map.
    pub fn new() -> Self {
        ClusterMap::default()
    }

    /// Adds a cluster; the proxy node must be an interior node of `topo`.
    pub fn add(&mut self, topo: &Topology, cluster: Cluster) -> specweb_core::Result<()> {
        if cluster.proxy.index() >= topo.len() {
            return Err(specweb_core::CoreError::UnknownId {
                kind: "node",
                id: cluster.proxy.raw(),
            });
        }
        if topo.kind(cluster.proxy) != NodeKind::Interior {
            return Err(specweb_core::CoreError::invalid_config(
                "cluster.proxy",
                format!(
                    "{} is not an interior (candidate-proxy) node",
                    cluster.proxy
                ),
            ));
        }
        self.clusters.push(cluster);
        Ok(())
    }

    /// All clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// The proxies fronting `server`, in insertion order.
    pub fn proxies_of(&self, server: ServerId) -> Vec<NodeId> {
        self.clusters
            .iter()
            .filter(|c| c.servers.contains(&server))
            .map(|c| c.proxy)
            .collect()
    }

    /// The servers fronted by the proxy at `node`.
    pub fn servers_at(&self, node: NodeId) -> Vec<ServerId> {
        let mut out: Vec<ServerId> = self
            .clusters
            .iter()
            .filter(|c| c.proxy == node)
            .flat_map(|c| c.servers.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId::new).collect()
    }

    #[test]
    fn add_and_query() {
        let topo = Topology::two_level(3, 4);
        let proxies = topo.interior_nodes();
        let mut map = ClusterMap::new();
        map.add(&topo, Cluster::new(proxies[0], servers(2)))
            .unwrap();
        map.add(
            &topo,
            Cluster::new(proxies[1], vec![ServerId::new(1), ServerId::new(2)]),
        )
        .unwrap();

        assert_eq!(map.clusters().len(), 2);
        assert_eq!(
            map.proxies_of(ServerId::new(1)),
            vec![proxies[0], proxies[1]]
        );
        assert_eq!(map.proxies_of(ServerId::new(0)), vec![proxies[0]]);
        assert_eq!(map.proxies_of(ServerId::new(9)), Vec::<NodeId>::new());
        assert_eq!(
            map.servers_at(proxies[1]),
            vec![ServerId::new(1), ServerId::new(2)]
        );
    }

    #[test]
    fn rejects_leaf_as_proxy() {
        let topo = Topology::two_level(2, 2);
        let leaf = topo.leaves()[0];
        let mut map = ClusterMap::new();
        let err = map.add(&topo, Cluster::new(leaf, servers(1)));
        assert!(err.is_err());
    }

    #[test]
    fn rejects_unknown_node() {
        let topo = Topology::two_level(2, 2);
        let mut map = ClusterMap::new();
        let err = map.add(&topo, Cluster::new(NodeId(999), servers(1)));
        assert!(err.is_err());
    }

    #[test]
    fn cluster_n() {
        let c = Cluster::new(NodeId(1), servers(5));
        assert_eq!(c.n(), 5);
    }
}
