//! Trace-driven dissemination simulation (Fig. 3).
//!
//! Replays a trace over a netsim topology with the most popular fraction
//! of each server's data replicated at a set of service proxies, and
//! measures the reduction in network traffic (bytes × hops) against the
//! no-dissemination baseline.
//!
//! Faithful to the paper's setup:
//!
//! * proxies are placed at the most beneficial interior nodes (the
//!   paper places them optimally from the clientele tree; we score
//!   nodes by `subtree demand × depth`, the hop-weighted benefit of an
//!   interception at that node);
//! * by default the **same** data is disseminated to all proxies, as in
//!   Fig. 3 — with the *tailored* option implementing the footnote's
//!   geographic refinement ("disseminating different data to different
//!   proxies based on the access patterns of clients served by each
//!   proxy");
//! * optional accounting of the dissemination pushes themselves and of
//!   re-dissemination on document updates;
//! * optional per-proxy load cap implementing §2.3's dynamic shedding.
//!
//! A run reads tables, not the trace. [`DisseminationSim::new`] makes one
//! pass that builds the **demand table**: for each client node, every
//! distinct document requested there, split by requester locality, with
//! its request count. Every document's remote and local counts (the
//! profiles are folds over those) and the bytes requested at each node
//! (what placement weighs) are sums over that table. A run then places
//! its proxies, resolves every (node, server) route once into a
//! [`RouteTable`], builds each proxy's [`ProxyStore`] into a node-indexed
//! slice — ranking an untailored replica once per server, or counting
//! the tailored replicas' subtree demand from the table's remote entries
//! — and replays.
//!
//! Without a daily cap, every request of one (node, document) pair
//! takes the same path, so the outcome depends only on the counts: such
//! a run replays the demand table, one interception lookup per entry
//! with its count added to every account. A cap sheds by the order of
//! requests within a day, so capped runs replay the trace in order
//! through the replay kernel; the in-order replay is also the count
//! replay's slow twin.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};
use specweb_core::ids::{DocId, NodeId, ServerId};
use specweb_core::stats::{ServiceQuantiles, ServiceTimeDist};
use specweb_core::units::{ByteHops, Bytes};
use specweb_core::{CoreError, Result};
use specweb_netsim::cluster::{Cluster, ClusterMap};
use specweb_netsim::cost::{LatencyModel, TrafficAccount};
use specweb_netsim::proxystore::ProxyStore;
use specweb_netsim::replay::ClusterShards;
use specweb_netsim::routing::{RouteTable, Router};
use specweb_netsim::topology::Topology;
use specweb_trace::clients::Locality;
use specweb_trace::generator::{Access, Trace};
use specweb_trace::updates::UpdateEvent;

use crate::analysis::ServerProfile;

/// Simulation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DisseminationConfig {
    /// Fraction of each server's remotely-accessed bytes to disseminate
    /// (Fig. 3 uses 0.04 and 0.10).
    pub fraction: f64,
    /// Number of proxies.
    pub n_proxies: usize,
    /// Tailor each proxy's replica to its own clientele (geographic
    /// locality refinement) instead of pushing the same set everywhere.
    pub tailored: bool,
    /// Account for the traffic of the dissemination pushes themselves.
    pub count_dissemination_traffic: bool,
    /// Re-disseminate documents when they update (requires `updates`).
    pub count_update_traffic: bool,
    /// §2.3 dynamic shedding: a proxy that has already served this many
    /// requests in a day passes further requests upstream.
    pub proxy_daily_request_cap: Option<u64>,
    /// Rank dissemination candidates for traffic interception (by
    /// request count — optimal for bytes×hops, Fig. 3's metric) instead
    /// of by request density (optimal for the intercepted-request
    /// fraction α).
    pub rank_for_traffic: bool,
    /// Replay only remote accesses. The paper's dissemination protocol
    /// targets traffic from clients *outside* the organization (`R_i` is
    /// remote demand); campus-local traffic never crosses the Internet
    /// tree and is excluded from Fig. 3's accounting.
    pub remote_only: bool,
    /// Explicit proxy locations, overriding demand-based placement —
    /// used by the hierarchy experiments to place whole tree levels.
    /// Each node may appear once.
    pub explicit_proxies: Option<Vec<NodeId>>,
    /// Latency model for the per-request service-time distribution
    /// (same defaults as the spec simulator's, so the two report
    /// comparable milliseconds).
    pub latency: LatencyModel,
}

impl Default for DisseminationConfig {
    fn default() -> Self {
        DisseminationConfig {
            fraction: 0.10,
            n_proxies: 4,
            tailored: false,
            count_dissemination_traffic: false,
            count_update_traffic: false,
            proxy_daily_request_cap: None,
            rank_for_traffic: true,
            remote_only: true,
            explicit_proxies: None,
            latency: LatencyModel::default(),
        }
    }
}

/// Simulation results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DisseminationOutcome {
    /// Traffic without dissemination.
    pub baseline: TrafficAccount,
    /// Client-request traffic with dissemination (excludes pushes).
    pub with_dissemination: TrafficAccount,
    /// Traffic of dissemination + update pushes (bytes × hops from the
    /// origin down to each proxy).
    pub push_traffic: ByteHops,
    /// Requests served by a proxy.
    pub proxy_hits: u64,
    /// Requests that reached the home server.
    pub origin_hits: u64,
    /// Interception opportunities shed due to proxy overload (a request
    /// skipped at two capped proxies counts twice; it may still be
    /// served by a third).
    pub shed_requests: u64,
    /// Total proxy storage in use.
    pub total_proxy_storage: Bytes,
    /// Fraction of bytes×hops saved, net of push traffic.
    pub reduction: f64,
    /// Fraction of requests intercepted (the realized α).
    pub intercepted_fraction: f64,
    /// Exact per-request service-time quantiles with dissemination:
    /// proxy hits traverse fewer hops, so interception shows up as a
    /// shorter tail, not just fewer bytes×hops.
    pub service_times: ServiceQuantiles,
    /// The same quantiles for the no-dissemination baseline (every
    /// request pays the full origin path).
    pub baseline_service_times: ServiceQuantiles,
}

/// Each client node's demand: every distinct document requested there,
/// split by requester locality, with its request count — 12 bytes an
/// entry, one entry per (node, locality, document) the trace requests.
#[derive(Debug, Default)]
struct DemandTable {
    /// `spans[n][side(l)]`: where node `n`'s entries of locality `l` sit
    /// in `docs` and `counts`, as `(start, end)`.
    spans: Vec<[(usize, usize); 2]>,
    docs: Vec<DocId>,
    counts: Vec<u64>,
}

/// A locality's index in a [`DemandTable`] span pair.
fn side(locality: Locality) -> usize {
    usize::from(locality == Locality::Local)
}

impl DemandTable {
    /// One walk over the trace buckets each request's document by
    /// (node, locality); each bucket then folds into distinct documents
    /// with counts through a `DocId`-indexed tally (branch-free: a
    /// document's first request in the bucket is one more of `seen`).
    fn build(trace: &Trace, n_nodes: usize) -> DemandTable {
        let mut buckets: Vec<[Vec<DocId>; 2]> = vec![[Vec::new(), Vec::new()]; n_nodes];
        for a in &trace.accesses {
            let node = trace.clients.get(a.client).node.index();
            buckets[node][side(a.locality)].push(a.doc);
        }
        let catalog = &trace.catalog;
        let mut table = DemandTable {
            spans: Vec::with_capacity(n_nodes),
            ..DemandTable::default()
        };
        // `tally[doc]`: the document's requests in the current bucket;
        // `seen[..n]`: the bucket's distinct documents, first request first.
        let mut tally = vec![0u64; catalog.len()];
        let mut seen = Vec::new();
        for pair in buckets {
            let spans = pair.map(|bucket| {
                let start = table.docs.len();
                seen.resize(bucket.len(), DocId::new(0));
                let mut n = 0;
                for doc in bucket {
                    let t = &mut tally[doc.index()];
                    seen[n] = doc;
                    n += usize::from(*t == 0);
                    *t += 1;
                }
                for &doc in &seen[..n] {
                    table.docs.push(doc);
                    table.counts.push(std::mem::take(&mut tally[doc.index()]));
                }
                (start, table.docs.len())
            });
            table.spans.push(spans);
        }
        table
    }

    /// Node `node`'s `(document, requests)` entries of `locality`.
    fn entries(&self, node: usize, locality: Locality) -> impl Iterator<Item = (DocId, u64)> + '_ {
        let (start, end) = self.spans[node][side(locality)];
        let docs = self.docs[start..end].iter().copied();
        docs.zip(self.counts[start..end].iter().copied())
    }
}

/// The dissemination simulator.
#[derive(Debug)]
pub struct DisseminationSim<'a> {
    trace: &'a Trace,
    topo: &'a Topology,
    profiles: Vec<ServerProfile>,
    /// What a run without a cap replays.
    demand: DemandTable,
    /// Bytes of remote requests from the clients attached at each node,
    /// indexed by `NodeId` — the demand
    /// [`DisseminationSim::place_proxies_for`] weighs under `remote_only`.
    remote_node_bytes: Vec<u64>,
    /// The same over all requests.
    node_bytes: Vec<u64>,
    /// The replay kernel's cluster partition, for the in-order replay of
    /// capped runs. A route's interceptions stop at the root, so every
    /// proxy's counters are touched by exactly one shard and the merged
    /// replay is bit-identical to a serial pass (DESIGN §12).
    shards: ClusterShards,
}

/// Partial outcome of replaying one shard of the trace.
#[derive(Debug, Default, PartialEq)]
struct ReplayPart {
    baseline: TrafficAccount,
    with_d: TrafficAccount,
    proxy_hits: u64,
    origin_hits: u64,
    shed: u64,
    /// Per-request service times of every served request (multiset, so
    /// the cluster-shard merge compares equal to a serial pass).
    service: ServiceTimeDist,
    /// Service times of the no-dissemination baseline (full origin
    /// path).
    baseline_service: ServiceTimeDist,
}

impl ReplayPart {
    /// Records `n` requests of `size` bytes from `origin_hops` below the
    /// root in the no-dissemination baseline, which pays the full origin
    /// path.
    fn record_baseline(
        &mut self,
        cfg: &DisseminationConfig,
        size: Bytes,
        origin_hops: u32,
        n: u64,
    ) {
        self.baseline.record_n(size, origin_hops, n);
        self.baseline_service
            .record_n(cfg.latency.fetch(size, origin_hops).as_millis(), n);
    }

    /// Adds another shard's partial outcome (saturating sums and
    /// multiset unions: exact and order-independent).
    fn merge(&mut self, other: &ReplayPart) {
        self.baseline.merge(&other.baseline);
        self.with_d.merge(&other.with_d);
        self.proxy_hits = self.proxy_hits.saturating_add(other.proxy_hits);
        self.origin_hits = self.origin_hits.saturating_add(other.origin_hits);
        self.shed = self.shed.saturating_add(other.shed);
        self.service.merge(&other.service);
        self.baseline_service.merge(&other.baseline_service);
    }
}

impl<'a> DisseminationSim<'a> {
    /// Builds the simulator from one pass over the trace (the paper's
    /// off-line log analysis step): the demand table, and from it every
    /// document's `(remote, local)` request counts, which one profile per
    /// server folds, and the bytes requested at each node.
    pub fn new(trace: &'a Trace, topo: &'a Topology) -> Result<Self> {
        let days = trace.days().max(1);
        let n_servers = trace
            .catalog
            .iter()
            .map(|d| d.server.index() + 1)
            .max()
            .unwrap_or(0);
        let catalog = &trace.catalog;
        let mut doc_counts = vec![(0u64, 0u64); catalog.len()];
        let mut remote_node_bytes = vec![0u64; topo.len()];
        let mut node_bytes = vec![0u64; topo.len()];
        let demand = {
            let _f = specweb_core::obs::profile::frame("dissem.demand");
            let demand = DemandTable::build(trace, topo.len());
            for node in 0..topo.len() {
                for locality in [Locality::Remote, Locality::Local] {
                    for (doc, n) in demand.entries(node, locality) {
                        let bytes = catalog.size(doc).get().saturating_mul(n);
                        let count = &mut doc_counts[doc.index()];
                        if locality == Locality::Remote {
                            count.0 += n;
                            remote_node_bytes[node] = remote_node_bytes[node].saturating_add(bytes);
                        } else {
                            count.1 += n;
                        }
                        node_bytes[node] = node_bytes[node].saturating_add(bytes);
                    }
                }
            }
            demand
        };
        let servers: Vec<ServerId> = (0..n_servers).map(ServerId::from).collect();
        let profiles = ServerProfile::from_counts(catalog, &doc_counts, &servers, days)?;
        let nodes: Vec<NodeId> = trace.clients.iter().map(|c| c.node).collect();
        let shards = ClusterShards::partition(topo, &nodes);
        Ok(DisseminationSim {
            trace,
            topo,
            profiles,
            demand,
            remote_node_bytes,
            node_bytes,
            shards,
        })
    }

    /// The mined server profiles.
    pub fn profiles(&self) -> &[ServerProfile] {
        &self.profiles
    }

    /// Places `k` proxies by greedy marginal gain — the paper's
    /// "optimally locate the set of tree nodes to use as service
    /// proxies" step. An interception at node `v` saves `depth(v)` hops
    /// for every byte requested by a client below `v`, but only beyond
    /// what an already-placed *deeper* proxy on the same path saves; the
    /// greedy therefore maximizes the submodular marginal
    /// `Σ_leaf bytes(leaf) × max(0, depth(v) − best_saved(leaf))`.
    pub fn place_proxies(&self, k: usize) -> Vec<NodeId> {
        self.place_proxies_for(k, true)
    }

    /// Like [`DisseminationSim::place_proxies`], weighting demand by
    /// remote traffic only (`remote_only`) or by all traffic.
    ///
    /// Each round credits every demand node's bytes to the ancestors it
    /// would gain from (walking up only while an ancestor is deeper than
    /// what the node already saves) and takes the unplaced candidate with
    /// the largest gain, the lower node id on a tie.
    pub fn place_proxies_for(&self, k: usize, remote_only: bool) -> Vec<NodeId> {
        let bytes = if remote_only {
            &self.remote_node_bytes
        } else {
            &self.node_bytes
        };
        let demand: Vec<(NodeId, u64)> = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b > 0)
            .map(|(n, &b)| (NodeId::from(n), b))
            .collect();
        let candidates = self.topo.interior_nodes();
        let mut best_saved = vec![0u32; self.topo.len()];
        let mut gain = vec![0u64; self.topo.len()];
        let mut is_placed = vec![false; self.topo.len()];
        let mut placed = Vec::with_capacity(k.min(candidates.len()));

        while placed.len() < k.min(candidates.len()) {
            gain.fill(0);
            for &(leaf, b) in &demand {
                let cur = best_saved[leaf.index()];
                let mut v = leaf;
                while self.topo.depth(v) > cur {
                    let g = &mut gain[v.index()];
                    *g = g.saturating_add(b.saturating_mul(u64::from(self.topo.depth(v) - cur)));
                    v = self.topo.parent(v);
                }
            }
            // A zero gain means no residual demand anywhere; the caller
            // asked for k, so keep filling — interception (not traffic)
            // can still grow.
            let Some(&v) = candidates
                .iter()
                .filter(|v| !is_placed[v.index()])
                .max_by(|a, b| gain[a.index()].cmp(&gain[b.index()]).then(b.cmp(a)))
            else {
                break;
            };
            let dv = self.topo.depth(v);
            for &(leaf, _) in &demand {
                if self.topo.is_ancestor(v, leaf) {
                    let saved = &mut best_saved[leaf.index()];
                    *saved = (*saved).max(dv);
                }
            }
            is_placed[v.index()] = true;
            placed.push(v);
        }
        placed
    }

    /// Runs the simulation.
    pub fn run(
        &self,
        cfg: &DisseminationConfig,
        updates: &[UpdateEvent],
    ) -> Result<DisseminationOutcome> {
        if !(0.0..=1.0).contains(&cfg.fraction) {
            return Err(CoreError::invalid_config(
                "dissem.fraction",
                "must be in [0, 1]",
            ));
        }
        if cfg.count_update_traffic && updates.is_empty() {
            return Err(CoreError::invalid_config(
                "dissem.updates",
                "count_update_traffic requires update events",
            ));
        }

        // Phase frames: one per run, independent of --jobs
        // (the shard gate below changes scheduling, never call counts).
        let _run_frame = specweb_core::obs::profile::frame("dissem.run");
        let (routes, stores, push_traffic, total_storage) = self.tables(cfg, updates)?;

        let _replay_frame = specweb_core::obs::profile::frame("replay");
        let whole = if cfg.proxy_daily_request_cap.is_none() {
            self.replay_demand(cfg, &routes, &stores)
        } else {
            self.replay_in_order(cfg, &routes, &stores)?
        };

        let total_with = whole.with_d.byte_hops + push_traffic;
        let reduction = 1.0 - total_with.ratio(whole.baseline.byte_hops);
        let total_requests = whole.proxy_hits.saturating_add(whole.origin_hits);
        let intercepted_fraction = if total_requests == 0 {
            0.0
        } else {
            whole.proxy_hits as f64 / total_requests as f64
        };

        // Per-replay accounting for the run's installed obs bundle
        // (deterministic channel — the replay is a pure function of
        // trace + config).
        if let Some(obs) = &specweb_core::obs::current() {
            let pairs = [
                ("dissem.requests", total_requests),
                ("dissem.proxy_hits", whole.proxy_hits),
                ("dissem.origin_hits", whole.origin_hits),
                ("dissem.shed_requests", whole.shed),
                ("dissem.push_byte_hops", push_traffic.get()),
            ];
            for (name, v) in pairs {
                obs.metrics.counter(name).add(v);
            }
            obs.metrics
                .gauge("dissem.proxy_storage_bytes")
                .record(total_storage.get());
            whole.service.publish(obs, "dissem.service_time_ms");
            whole
                .baseline_service
                .publish(obs, "dissem.baseline.service_time_ms");
        }

        Ok(DisseminationOutcome {
            baseline: whole.baseline,
            with_dissemination: whole.with_d,
            push_traffic,
            proxy_hits: whole.proxy_hits,
            origin_hits: whole.origin_hits,
            shed_requests: whole.shed,
            total_proxy_storage: total_storage,
            reduction,
            intercepted_fraction,
            service_times: whole.service.quantiles(),
            baseline_service_times: whole.baseline_service.quantiles(),
        })
    }

    /// The run's tables: routes, each proxy's replica (indexed by node),
    /// what pushing the replicas and their updates costs, and the
    /// storage they take.
    fn tables(
        &self,
        cfg: &DisseminationConfig,
        updates: &[UpdateEvent],
    ) -> Result<(RouteTable, Vec<ProxyStore>, ByteHops, Bytes)> {
        let proxy_nodes = {
            let _f = specweb_core::obs::profile::frame("placement");
            match &cfg.explicit_proxies {
                Some(nodes) => nodes.clone(),
                None => self.place_proxies_for(cfg.n_proxies, cfg.remote_only),
            }
        };

        let _f = specweb_core::obs::profile::frame("stores");
        let all_servers: Vec<ServerId> = (0..self.profiles.len()).map(ServerId::from).collect();
        let mut clusters = ClusterMap::new();
        for &node in &proxy_nodes {
            clusters.add(self.topo, Cluster::new(node, all_servers.clone()))?;
        }
        // `ClusterMap::add` checked every node is a topology node.
        let mut is_proxy = vec![false; self.topo.len()];
        for &node in &proxy_nodes {
            if std::mem::replace(&mut is_proxy[node.index()], true) {
                return Err(CoreError::invalid_config(
                    "dissem.explicit_proxies",
                    format!("{node} is listed more than once"),
                ));
            }
        }
        let routes = Router::new(self.topo, &clusters).table(self.profiles.len());
        let subtree = if cfg.tailored {
            self.subtree_counts(&proxy_nodes)
        } else {
            Vec::new()
        };

        let budgets: Vec<Bytes> = self
            .profiles
            .iter()
            .map(|p| Bytes::new((p.remotely_accessed_bytes().as_f64() * cfg.fraction) as u64))
            .collect();
        // Untailored, every proxy holds the same replica of a server.
        let shared: Vec<Vec<(DocId, Bytes)>> = if cfg.tailored {
            Vec::new()
        } else {
            self.profiles
                .iter()
                .zip(&budgets)
                .map(|(profile, &budget)| {
                    if cfg.rank_for_traffic {
                        profile.top_docs_for_traffic(budget)
                    } else {
                        profile.top_docs_within(budget)
                    }
                })
                .collect()
        };

        // Build each proxy's store.
        let mut stores = vec![ProxyStore::default(); self.topo.len()];
        let mut push_traffic = ByteHops::ZERO;
        let mut total_storage = Bytes::ZERO;
        for (slot, &node) in proxy_nodes.iter().enumerate() {
            let hops_from_origin = self.topo.depth(node);
            let mut store = ProxyStore::new(Bytes::new(u64::MAX / 2));
            for (i, (profile, &budget)) in self.profiles.iter().zip(&budgets).enumerate() {
                store.set_quota(profile.server, budget);
                let tailored;
                let docs = if cfg.tailored {
                    tailored =
                        tailored_top_docs(profile, &subtree[slot], budget, cfg.rank_for_traffic);
                    &tailored
                } else {
                    &shared[i]
                };
                for &(doc, size) in docs {
                    store.install(profile.server, doc, size)?;
                    if cfg.count_dissemination_traffic {
                        push_traffic += size.over_hops(hops_from_origin);
                    }
                }
                // lint:allow(W1): Bytes AddAssign saturates (units::unit_arith!)
                total_storage += store.used_by(profile.server);
            }
            stores[node.index()] = store;
        }

        // Update pushes: every update of a disseminated doc re-sends it
        // to each proxy holding it.
        if cfg.count_update_traffic {
            for u in updates {
                let size = self.trace.catalog.size(u.doc);
                let server = self.trace.catalog.get(u.doc).server;
                for &node in &proxy_nodes {
                    if stores[node.index()].contains(server, u.doc) {
                        push_traffic += size.over_hops(self.topo.depth(node));
                    }
                }
            }
        }
        Ok((routes, stores, push_traffic, total_storage))
    }

    /// Replays the trace in order through the kernel: every interception
    /// proxy lies strictly below the root on its client's path, so the
    /// per-proxy daily shedding counters are shard-local and the kernel's
    /// fold reproduces a serial pass bit for bit (DESIGN §12).
    fn replay_in_order(
        &self,
        cfg: &DisseminationConfig,
        routes: &RouteTable,
        stores: &[ProxyStore],
    ) -> Result<ReplayPart> {
        self.shards.replay_sharded(
            &self.trace.accesses,
            |a| a.client.index(),
            // No per-client state here, so nothing to size by the part's clients.
            |_, accesses| Ok::<_, CoreError>(self.replay_shard(cfg, routes, stores, accesses)),
            |whole: &mut ReplayPart, part| whole.merge(&part),
        )
    }

    /// Replays the demand table: the outcome of a run without a cap,
    /// where every request of one (node, document) pair takes the same
    /// path. One interception lookup per entry; its count goes
    /// into every account at once.
    fn replay_demand(
        &self,
        cfg: &DisseminationConfig,
        routes: &RouteTable,
        stores: &[ProxyStore],
    ) -> ReplayPart {
        let catalog = &self.trace.catalog;
        let localities: &[Locality] = if cfg.remote_only {
            &[Locality::Remote]
        } else {
            &[Locality::Remote, Locality::Local]
        };
        let mut part = ReplayPart::default();
        for node in (0..self.topo.len()).map(NodeId::from) {
            let origin_hops = self.topo.depth(node);
            for &locality in localities {
                for (doc, n) in self.demand.entries(node.index(), locality) {
                    let size = catalog.size(doc);
                    let server = catalog.get(doc).server;
                    part.record_baseline(cfg, size, origin_hops, n);
                    let served = routes
                        .interceptions(node, server)
                        .iter()
                        .find(|itc| stores[itc.proxy.index()].contains(server, doc));
                    let hops = match served {
                        Some(itc) => {
                            part.proxy_hits += n;
                            itc.hops_from_client
                        }
                        None => {
                            part.origin_hits += n;
                            origin_hops
                        }
                    };
                    part.with_d.record_n(size, hops, n);
                    part.service
                        .record_n(cfg.latency.fetch(size, hops).as_millis(), n);
                }
            }
        }
        part
    }

    /// Replays one shard of the trace (an in-order subsequence of
    /// accesses) into a partial outcome. The per-proxy daily shedding
    /// counters live here, which is exact because a proxy only ever
    /// intercepts clients of its own root-child subtree, i.e. of a
    /// single shard.
    fn replay_shard(
        &self,
        cfg: &DisseminationConfig,
        routes: &RouteTable,
        stores: &[ProxyStore],
        accesses: &mut dyn Iterator<Item = &Access>,
    ) -> ReplayPart {
        let mut part = ReplayPart::default();
        // Per-proxy request counters, reset daily (for shedding), by node.
        let mut day_counters = vec![0u64; self.topo.len()];
        let mut current_day = u64::MAX;

        for a in accesses {
            if cfg.remote_only && a.locality == Locality::Local {
                continue;
            }
            if a.time.day() != current_day {
                current_day = a.time.day();
                day_counters.fill(0);
            }
            let size = self.trace.catalog.size(a.doc);
            let client_node = self.trace.clients.get(a.client).node;
            let origin_hops = self.topo.depth(client_node);
            part.record_baseline(cfg, size, origin_hops, 1);

            let mut served = None;
            for itc in routes.interceptions(client_node, a.server) {
                if !stores[itc.proxy.index()].contains(a.server, a.doc) {
                    continue;
                }
                if let Some(cap) = cfg.proxy_daily_request_cap {
                    let ctr = &mut day_counters[itc.proxy.index()];
                    if *ctr >= cap {
                        part.shed += 1;
                        continue; // overloaded: try the next proxy upstream
                    }
                    *ctr += 1;
                }
                served = Some(itc.hops_from_client);
                break;
            }
            let served_hops = match served {
                Some(hops) => {
                    part.proxy_hits += 1;
                    hops
                }
                None => {
                    part.origin_hits += 1;
                    origin_hops
                }
            };
            part.with_d.record(size, served_hops);
            part.service
                .record(cfg.latency.fetch(size, served_hops).as_millis());
        }
        part
    }

    /// Remote requests per (proxy, document) from the clients in each
    /// proxy's subtree: row `slot`, indexed by `DocId`, counts for
    /// `proxies[slot]`. Each node climbs its path once through a node →
    /// slot table and adds its remote table entries to every proxy above
    /// it. Only remote demand counts: proxies never see
    /// an organization's local requests, so counting them would spend
    /// replica budget on documents a proxy cannot serve.
    fn subtree_counts(&self, proxies: &[NodeId]) -> Vec<Vec<u64>> {
        let catalog = &self.trace.catalog;
        let mut slot_of = vec![None; self.topo.len()];
        for (slot, &node) in proxies.iter().enumerate() {
            slot_of[node.index()] = Some(slot);
        }
        let mut counts: Vec<Vec<u64>> = proxies.iter().map(|_| vec![0; catalog.len()]).collect();
        let mut above = Vec::new();
        for node in (0..self.topo.len()).map(NodeId::from) {
            above.clear();
            let mut v = node;
            while v != Topology::ROOT {
                above.extend(slot_of[v.index()]);
                v = self.topo.parent(v);
            }
            for &slot in &above {
                for (doc, n) in self.demand.entries(node.index(), Locality::Remote) {
                    counts[slot][doc.index()] += n;
                }
            }
        }
        counts
    }
}

/// The tailored replica for a proxy: rank the server's documents by the
/// demand of clients in *this proxy's subtree* (`subtree[doc]`, from
/// [`DisseminationSim::subtree_counts`]), smoothed with the server-wide
/// counts (a subtree sees only a slice of the trace, so its raw counts are
/// noisy; the global profile acts as a prior). The candidates are the
/// server's documents with any remote demand: a subtree's remote access
/// is a remote access of the server's too.
///
/// The smoothed count is `c = subtree + ¼·remote`, ranked as the exact
/// integer `4c`. Ranking for α divides `c` by the size; that density is
/// non-negative, so its `f64` bits order as the number does. Document
/// ids break ties, so the order is total. The greedy fill pops that
/// order off a heap and stops once not even the smallest candidate
/// fits, so a small budget ranks only the head of the list.
fn tailored_top_docs(
    profile: &ServerProfile,
    subtree: &[u64],
    budget: Bytes,
    rank_for_traffic: bool,
) -> Vec<(DocId, Bytes)> {
    let ranked: Vec<(u64, Reverse<DocId>, Bytes)> = profile
        .docs
        .iter()
        .filter(|d| d.2 > 0)
        .map(|&(doc, size, remote, _)| {
            let c4 = 4 * subtree[doc.index()] + remote;
            let key = if rank_for_traffic {
                c4 // value/byte for traffic = request count
            } else {
                (c4 as f64 * 0.25 / size.get().max(1) as f64).to_bits()
            };
            (key, Reverse(doc), size)
        })
        .collect();
    let Some(smallest) = ranked.iter().map(|r| r.2).min() else {
        return Vec::new();
    };
    let mut heap = BinaryHeap::from(ranked);
    let mut out = Vec::new();
    let mut used = Bytes::ZERO;
    while let Some((_, Reverse(doc), size)) = heap.pop() {
        if used + smallest > budget {
            break;
        }
        if used + size > budget {
            continue;
        }
        used += size;
        out.push((doc, size));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use specweb_trace::generator::{TraceConfig, TraceGenerator};
    use specweb_trace::updates::UpdateProcess;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// The worker count is process-wide and some tests here need a given
    /// value to hold for a while, so whoever pins it holds this lock.
    static JOBS: Mutex<()> = Mutex::new(());

    fn pin_jobs() -> std::sync::MutexGuard<'static, ()> {
        JOBS.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn setup(seed: u64) -> (Trace, Topology) {
        let topo = Topology::balanced(2, 3, 4);
        let trace = TraceGenerator::new(TraceConfig::small(seed))
            .unwrap()
            .generate(&topo)
            .unwrap();
        (trace, topo)
    }

    #[test]
    fn dissemination_reduces_traffic() {
        let (trace, topo) = setup(80);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let out = sim.run(&DisseminationConfig::default(), &[]).unwrap();
        assert!(out.proxy_hits > 0, "no interceptions at all");
        assert!(
            out.reduction > 0.05,
            "expected meaningful savings, got {}",
            out.reduction
        );
        assert!(out.reduction < 1.0);
        // Default config replays remote accesses only.
        let remote = trace
            .accesses
            .iter()
            .filter(|a| a.locality == specweb_trace::clients::Locality::Remote)
            .count() as u64;
        assert_eq!(
            out.proxy_hits + out.origin_hits,
            remote,
            "every remote access must be served somewhere"
        );
        assert_eq!(out.baseline.transfers, remote);
        // One service-time sample per served request, and interception
        // (fewer hops for the popular documents) must not lengthen any
        // quantile relative to the full-origin-path baseline.
        assert_eq!(out.service_times.count, remote);
        assert_eq!(out.baseline_service_times.count, remote);
        assert!(out.service_times.p50_ms <= out.baseline_service_times.p50_ms);
        assert!(out.service_times.p99_ms <= out.baseline_service_times.p99_ms);
        assert!(out.service_times.mean_ms < out.baseline_service_times.mean_ms);
        assert!(out.service_times.max_ms > 0);
    }

    #[test]
    fn zero_fraction_is_the_baseline() {
        let (trace, topo) = setup(81);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let cfg = DisseminationConfig {
            fraction: 0.0,
            ..DisseminationConfig::default()
        };
        let out = sim.run(&cfg, &[]).unwrap();
        assert_eq!(out.proxy_hits, 0);
        assert_eq!(out.with_dissemination.byte_hops, out.baseline.byte_hops);
        assert!(out.reduction.abs() < 1e-9);
    }

    #[test]
    fn more_data_disseminated_saves_more() {
        let (trace, topo) = setup(82);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let run = |f: f64| {
            sim.run(
                &DisseminationConfig {
                    fraction: f,
                    ..DisseminationConfig::default()
                },
                &[],
            )
            .unwrap()
            .reduction
        };
        let r4 = run(0.04);
        let r10 = run(0.10);
        let r50 = run(0.50);
        assert!(r10 >= r4, "10% ({r10}) should beat 4% ({r4})");
        assert!(r50 >= r10, "50% ({r50}) should beat 10% ({r10})");
    }

    #[test]
    fn more_proxies_save_more() {
        let (trace, topo) = setup(83);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let run = |k: usize| {
            sim.run(
                &DisseminationConfig {
                    n_proxies: k,
                    ..DisseminationConfig::default()
                },
                &[],
            )
            .unwrap()
            .reduction
        };
        let r1 = run(1);
        let r4 = run(4);
        let r12 = run(12);
        assert!(r4 >= r1 - 1e-9, "4 proxies ({r4}) vs 1 ({r1})");
        assert!(r12 >= r4 - 1e-9, "12 proxies ({r12}) vs 4 ({r4})");
        assert!(r12 > r1, "proxies must help overall");
    }

    #[test]
    fn tailored_dissemination_is_at_least_as_good() {
        let (trace, topo) = setup(84);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let base = sim
            .run(
                &DisseminationConfig {
                    fraction: 0.05,
                    n_proxies: 6,
                    ..DisseminationConfig::default()
                },
                &[],
            )
            .unwrap();
        let tailored = sim
            .run(
                &DisseminationConfig {
                    fraction: 0.05,
                    n_proxies: 6,
                    tailored: true,
                    ..DisseminationConfig::default()
                },
                &[],
            )
            .unwrap();
        // The geographic refinement should not hurt (paper: "better
        // results are attainable").
        assert!(
            tailored.reduction >= base.reduction - 0.02,
            "tailored {} vs shared {}",
            tailored.reduction,
            base.reduction
        );
    }

    #[test]
    fn push_traffic_reduces_net_savings() {
        let (trace, topo) = setup(85);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let free = sim.run(&DisseminationConfig::default(), &[]).unwrap();
        let accounted = sim
            .run(
                &DisseminationConfig {
                    count_dissemination_traffic: true,
                    ..DisseminationConfig::default()
                },
                &[],
            )
            .unwrap();
        assert!(accounted.push_traffic > ByteHops::ZERO);
        assert!(accounted.reduction < free.reduction);
    }

    #[test]
    fn update_traffic_requires_events() {
        let (trace, topo) = setup(86);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let cfg = DisseminationConfig {
            count_update_traffic: true,
            ..DisseminationConfig::default()
        };
        assert!(sim.run(&cfg, &[]).is_err());
    }

    #[test]
    fn update_traffic_is_accounted() {
        use specweb_trace::updates::UpdateEvent;
        let (trace, topo) = setup(87);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        // Deterministically update one document that is certain to be
        // disseminated (the most popular one) and one that is not.
        let profile = &sim.profiles()[0];
        let budget = Bytes::new(
            (profile.remotely_accessed_bytes().as_f64() * DisseminationConfig::default().fraction)
                as u64,
        );
        let top = profile.top_docs_for_traffic(budget);
        let (hot_doc, hot_size) = top[0];
        let cold_doc = profile
            .docs
            .iter()
            .map(|d| d.0)
            .find(|d| !top.iter().any(|(t, _)| t == d))
            .expect("some doc is not disseminated");
        let updates = vec![
            UpdateEvent {
                day: 1,
                doc: hot_doc,
            },
            UpdateEvent {
                day: 1,
                doc: cold_doc,
            },
        ];
        let cfg = DisseminationConfig {
            count_update_traffic: true,
            ..DisseminationConfig::default()
        };
        let out = sim.run(&cfg, &updates).unwrap();
        // The hot doc is re-pushed to every proxy holding it; each push
        // costs size × depth(proxy) ≥ size × 1. The cold doc costs 0.
        assert!(out.push_traffic >= ByteHops(hot_size.get()));
    }

    #[test]
    fn shedding_pushes_requests_upstream() {
        let (trace, topo) = setup(88);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let uncapped = sim.run(&DisseminationConfig::default(), &[]).unwrap();
        let capped = sim
            .run(
                &DisseminationConfig {
                    proxy_daily_request_cap: Some(5),
                    ..DisseminationConfig::default()
                },
                &[],
            )
            .unwrap();
        assert!(capped.shed_requests > 0, "cap of 5/day must shed");
        assert!(capped.proxy_hits < uncapped.proxy_hits);
        assert!(capped.reduction < uncapped.reduction);
    }

    #[test]
    fn placement_is_demand_weighted() {
        let (trace, topo) = setup(89);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let p1 = sim.place_proxies(1);
        assert_eq!(p1.len(), 1);
        let all = sim.place_proxies(1_000);
        assert_eq!(all.len(), topo.interior_nodes().len());
        // The single best node must be one of the deeper, busier ones —
        // never a zero-demand node.
        let leaf_demand: u64 = trace.len() as u64;
        assert!(leaf_demand > 0);
    }

    #[test]
    fn obs_records_interception_accounting() {
        use specweb_core::obs::{MetricValue, Obs};
        let (trace, topo) = setup(95);
        let obs = Obs::new();
        let _run = obs.install();
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let out = sim
            .run(
                &DisseminationConfig {
                    proxy_daily_request_cap: Some(5),
                    count_dissemination_traffic: true,
                    ..DisseminationConfig::default()
                },
                &[],
            )
            .unwrap();
        let snap = obs.snapshot();
        let counter = |name: &str| match snap.deterministic.get(name) {
            Some(MetricValue::Counter { value }) => *value,
            other => panic!("missing counter {name}: {other:?}"),
        };
        assert_eq!(counter("dissem.proxy_hits"), out.proxy_hits);
        assert_eq!(counter("dissem.origin_hits"), out.origin_hits);
        assert_eq!(counter("dissem.shed_requests"), out.shed_requests);
        assert_eq!(counter("dissem.push_byte_hops"), out.push_traffic.get());
        assert_eq!(
            snap.deterministic["dissem.proxy_storage_bytes"],
            MetricValue::Gauge {
                value: out.total_proxy_storage.get()
            }
        );
        assert!(
            snap.wallclock.is_empty(),
            "replay metrics are deterministic"
        );
    }

    #[test]
    fn rejects_bad_fraction() {
        let (trace, topo) = setup(90);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let cfg = DisseminationConfig {
            fraction: 1.5,
            ..DisseminationConfig::default()
        };
        assert!(sim.run(&cfg, &[]).is_err());
    }

    #[test]
    fn intercepted_fraction_matches_hits() {
        let (trace, topo) = setup(91);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let out = sim.run(&DisseminationConfig::default(), &[]).unwrap();
        let expect = out.proxy_hits as f64 / (out.proxy_hits + out.origin_hits) as f64;
        assert!((out.intercepted_fraction - expect).abs() < 1e-12);
    }

    #[test]
    fn sharded_replay_equals_serial_replay() {
        // Forcing everything into one shard must reproduce the sharded
        // merge bit for bit — with a daily cap (per-proxy day counters)
        // and without. Sharding, and the per-shard gather, only engage
        // with >1 worker, and the single-shard twin never shards, so a
        // capped run must read the same at every width.
        let _pinned = pin_jobs();
        let (trace, topo) = setup(93);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        assert!(
            sim.shards.n_shards() > 1,
            "topology must yield several shards"
        );
        // The serial twin pretends every client sits at the root: one
        // cluster, hence one full-order pass.
        let mut serial_sim = DisseminationSim::new(&trace, &topo).unwrap();
        serial_sim.shards =
            ClusterShards::partition(&topo, &vec![Topology::ROOT; trace.clients.len()]);
        assert_eq!(serial_sim.shards.n_shards(), 1);

        let capped = DisseminationConfig {
            proxy_daily_request_cap: Some(5),
            ..DisseminationConfig::default()
        };
        for jobs in [1, 2, 3, 4] {
            specweb_core::par::set_default_jobs(jobs);
            for cfg in [&DisseminationConfig::default(), &capped] {
                let sharded = sim.run(cfg, &[]).unwrap();
                let serial = serial_sim.run(cfg, &[]).unwrap();
                assert_eq!(
                    sharded.shed_requests > 0,
                    cfg.proxy_daily_request_cap.is_some()
                );
                assert_eq!(
                    serde_json::to_string(&sharded).unwrap(),
                    serde_json::to_string(&serial).unwrap(),
                    "jobs {jobs}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn demand_replay_equals_the_in_order_replay(
            seed in 0u64..10_000,
            n_servers in 1usize..=3,
            fraction_pct in 0u32..=60,
            n_proxies in 0usize..8,
            explicit_mask in 0u32..256,
        ) {
            let topo = Topology::random(&specweb_core::rng::SeedTree::new(seed), 8, 20, 3);
            let mut tc = TraceConfig::small(seed);
            tc.n_servers = n_servers;
            tc.duration_days = 3;
            let trace = TraceGenerator::new(tc).unwrap().generate(&topo).unwrap();
            let Ok(sim) = DisseminationSim::new(&trace, &topo) else {
                return Ok(()); // no hit curve to fit: nothing to replay
            };
            let mut updates = UpdateProcess::default().generate(
                &specweb_core::rng::SeedTree::new(seed),
                &trace.catalog,
                trace.days(),
            );
            // Plus one update of each server's densest document, which most
            // replicas hold.
            updates.extend(sim.profiles().iter().map(|p| UpdateEvent { day: 1, doc: p.docs[0].0 }));
            let explicit: Vec<NodeId> = topo
                .interior_nodes()
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| explicit_mask >> (i % 8) & 1 == 1)
                .map(|(_, n)| n)
                .collect();
            for mask in 0u32..64 {
                let on = |bit: u32| mask >> bit & 1 == 1;
                let cfg = DisseminationConfig {
                    fraction: f64::from(fraction_pct) / 100.0,
                    n_proxies,
                    tailored: on(0),
                    rank_for_traffic: on(1),
                    remote_only: on(2),
                    count_dissemination_traffic: on(3),
                    count_update_traffic: on(4),
                    explicit_proxies: on(5).then(|| explicit.clone()),
                    ..DisseminationConfig::default()
                };
                let (routes, stores, ..) = sim.tables(&cfg, &updates).unwrap();
                prop_assert_eq!(
                    sim.replay_demand(&cfg, &routes, &stores),
                    sim.replay_in_order(&cfg, &routes, &stores).unwrap(),
                    "{:?}", cfg
                );
            }
        }
    }

    #[test]
    fn a_proxy_listed_twice_is_rejected() {
        let (trace, topo) = setup(94);
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        let level = crate::hierarchy::proxies_at_depth(&topo, 1);
        let twice = DisseminationConfig {
            explicit_proxies: Some(vec![level[0], level[1], level[0]]),
            count_dissemination_traffic: true,
            ..DisseminationConfig::default()
        };
        let err = sim.run(&twice, &[]).unwrap_err().to_string();
        assert!(err.contains("dissem.explicit_proxies"), "{err}");
        // Listed once each, the same nodes run.
        let once = DisseminationConfig {
            explicit_proxies: Some(vec![level[0], level[1]]),
            ..twice
        };
        assert!(sim.run(&once, &[]).is_ok());
    }

    /// Greedy placement as it was before the node-indexed demand: each
    /// call re-scans the trace into a `BTreeMap` of leaf bytes and scores
    /// every candidate against every leaf through `is_ancestor`.
    fn btreemap_placement(sim: &DisseminationSim<'_>, k: usize, remote_only: bool) -> Vec<NodeId> {
        let mut leaf_bytes: BTreeMap<NodeId, u64> = BTreeMap::new();
        for a in &sim.trace.accesses {
            if remote_only && a.locality == Locality::Local {
                continue;
            }
            let node = sim.trace.clients.get(a.client).node;
            let sz = sim.trace.catalog.size(a.doc).get();
            let e = leaf_bytes.entry(node).or_insert(0);
            *e = e.saturating_add(sz);
        }
        let leaves: Vec<(NodeId, u64)> = leaf_bytes.into_iter().collect();
        let candidates = sim.topo.interior_nodes();
        let mut best_saved: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut placed = Vec::with_capacity(k.min(candidates.len()));
        let mut available: Vec<NodeId> = candidates;
        while placed.len() < k && !available.is_empty() {
            let mut best: Option<(u64, usize)> = None;
            for (i, &v) in available.iter().enumerate() {
                let dv = sim.topo.depth(v);
                let mut gain = 0u64;
                for &(leaf, bytes) in &leaves {
                    if !sim.topo.is_ancestor(v, leaf) {
                        continue;
                    }
                    let cur = best_saved.get(&leaf).copied().unwrap_or(0);
                    if dv > cur {
                        gain = gain.saturating_add(bytes.saturating_mul(u64::from(dv - cur)));
                    }
                }
                if best.is_none_or(|(g, bi)| gain > g || (gain == g && v < available[bi])) {
                    best = Some((gain, i));
                }
            }
            let Some((_, idx)) = best else { break };
            let v = available.swap_remove(idx);
            let dv = sim.topo.depth(v);
            for &(leaf, _) in &leaves {
                if sim.topo.is_ancestor(v, leaf) {
                    let e = best_saved.entry(leaf).or_insert(0);
                    if dv > *e {
                        *e = dv;
                    }
                }
            }
            placed.push(v);
        }
        placed
    }

    #[test]
    fn placement_equals_the_btreemap_greedy() {
        // A balanced tree and an irregular one whose clients sit at
        // several depths, some of them directly at interior nodes.
        let (trace, topo) = setup(96);
        let random = Topology::random(&specweb_core::rng::SeedTree::new(96), 14, 30, 3);
        let random_trace = TraceGenerator::new(TraceConfig::small(96))
            .unwrap()
            .generate(&random)
            .unwrap();
        for (trace, topo) in [(&trace, &topo), (&random_trace, &random)] {
            let sim = DisseminationSim::new(trace, topo).unwrap();
            let all = topo.interior_nodes().len();
            for remote_only in [true, false] {
                for k in 0..=all + 1 {
                    assert_eq!(
                        sim.place_proxies_for(k, remote_only),
                        btreemap_placement(&sim, k, remote_only),
                        "k = {k}, remote_only = {remote_only}"
                    );
                }
            }
        }
    }

    /// The tailored replica as it was before the one-walk count: one
    /// scan of the whole trace per (proxy, server), counting into a
    /// `BTreeMap` of `f64`s.
    fn scanning_tailored_top_docs(
        sim: &DisseminationSim<'_>,
        profile: &ServerProfile,
        proxy: NodeId,
        budget: Bytes,
        rank_for_traffic: bool,
    ) -> Vec<(specweb_core::ids::DocId, Bytes)> {
        const GLOBAL_PRIOR_WEIGHT: f64 = 0.25;
        let mut counts: BTreeMap<specweb_core::ids::DocId, f64> = BTreeMap::new();
        for a in &sim.trace.accesses {
            if a.server != profile.server || a.locality == Locality::Local {
                continue;
            }
            let node = sim.trace.clients.get(a.client).node;
            if sim.topo.is_ancestor(proxy, node) {
                *counts.entry(a.doc).or_insert(0.0) += 1.0;
            }
        }
        for &(doc, _, remote, _) in &profile.docs {
            let global = remote as f64;
            if global > 0.0 {
                *counts.entry(doc).or_insert(0.0) += GLOBAL_PRIOR_WEIGHT * global;
            }
        }
        let mut ranked: Vec<(specweb_core::ids::DocId, Bytes, f64)> = counts
            .into_iter()
            .map(|(doc, c)| {
                let size = sim.trace.catalog.size(doc);
                let score = if rank_for_traffic {
                    c
                } else {
                    c / size.get().max(1) as f64
                };
                (doc, size, score)
            })
            .collect();
        ranked.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        let mut out = Vec::new();
        let mut used = Bytes::ZERO;
        for (doc, size, _) in ranked {
            if used + size > budget {
                continue;
            }
            used += size;
            out.push((doc, size));
        }
        out
    }

    #[test]
    fn tailored_replicas_equal_the_trace_scanning_ones() {
        let topo = Topology::balanced(2, 3, 4);
        let trace = TraceGenerator::new(TraceConfig::cluster(97, 3))
            .unwrap()
            .generate(&topo)
            .unwrap();
        let sim = DisseminationSim::new(&trace, &topo).unwrap();
        assert_eq!(sim.profiles().len(), 3);
        // Every interior node, so subtrees nest and clients count for
        // several proxies at once.
        let proxies = topo.interior_nodes();
        let counts = sim.subtree_counts(&proxies);
        for (&proxy, row) in proxies.iter().zip(&counts) {
            for profile in sim.profiles() {
                let remote = profile.remotely_accessed_bytes().get();
                for budget in [0, remote / 25, remote / 10, remote / 2, remote] {
                    for rank_for_traffic in [true, false] {
                        let budget = Bytes::new(budget);
                        assert_eq!(
                            tailored_top_docs(profile, row, budget, rank_for_traffic),
                            scanning_tailored_top_docs(
                                &sim,
                                profile,
                                proxy,
                                budget,
                                rank_for_traffic
                            ),
                            "proxy {proxy}, {}, budget {budget}, traffic {rank_for_traffic}",
                            profile.server
                        );
                    }
                }
            }
        }
    }
}
