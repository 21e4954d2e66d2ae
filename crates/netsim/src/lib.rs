//! # specweb-netsim
//!
//! The network substrate for the `specweb` reproduction of Bestavros,
//! ICDE 1996. The paper models the Internet, as seen from a home server,
//! as a **tree**: clients at the leaves, candidate *service proxies* at
//! the internal nodes, and clusters (one proxy fronting a set of home
//! servers) composed into a hierarchy (§2.1).
//!
//! This crate provides:
//!
//! * [`topology`] — the clientele tree: builders, parent/depth tables,
//!   hop distances via lowest common ancestor;
//! * [`cluster`] — clusters and the many-to-many server↔proxy mapping;
//! * [`routing`] — request paths (client → chain of proxies → home
//!   server) and interception points;
//! * [`cost`] — the §3.2 cost model (`CommCost`/`ServCost`), traffic
//!   accounting in bytes×hops, and a service-time model;
//! * [`proxystore`] — proxy replica storage with per-server quotas
//!   (`B_i`) and the dynamic load-shedding of §2.3;
//! * [`queueing`] — an M/G/1 server model translating the paper's
//!   request-count "server load" into response time under load;
//! * [`fault`] — the deterministic client-side fault windows (slow
//!   clients, partial writes, stalls) the live chaos harness drives;
//! * [`replay`] — the cluster-sharded replay kernel both simulators run
//!   on: partition a trace by root-child subtree, replay the shards on
//!   `core::par`, fold the partial outcomes in canonical order.
//!
//! The substrate is deliberately *analytic*, not packet-level: the
//! paper's evaluation needs hop-weighted byte counts and a
//! request-latency model, not TCP dynamics.

#![warn(missing_docs)]

pub mod cluster;
pub mod cost;
pub mod fault;
pub mod proxystore;
pub mod queueing;
pub mod replay;
pub mod routing;
pub mod topology;

pub use cluster::{Cluster, ClusterMap};
pub use cost::{CostModel, LatencyModel, TrafficAccount};
pub use fault::FaultPlan;
pub use proxystore::ProxyStore;
pub use replay::ClusterShards;
pub use routing::Router;
pub use topology::{NodeKind, Topology, TopologyBuilder};
