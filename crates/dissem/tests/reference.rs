//! `DisseminationSim` checked against the paper, not against itself.
//!
//! [`reference`] is the simulator written from its definition (§2.2,
//! Fig. 3 and its footnote), one loop per step and nothing shared with
//! the simulator but the topology, the trace and the proxy placement:
//!
//! * each home server's replica is its top `fraction` of remotely
//!   requested bytes — most requested first (the smaller first among
//!   equally requested documents, then the lower id), or densest first
//!   when ranking for α, or, tailored, ranked by the proxy's subtree
//!   demand plus a quarter of the server-wide demand — filled greedily,
//!   skipping a document that no longer fits;
//! * a request climbs from its client toward the root and is served by
//!   the first proxy on the way that holds the document and has not
//!   served its daily cap yet (a capped proxy sheds it upward);
//! * traffic is bytes × hops travelled, the baseline pays every request's
//!   full path, pushes pay each replica's path from the root.
//!
//! The proptest replays tiny random traces through both and compares the
//! whole `DisseminationOutcome`. The same traces check profile mining
//! against the per-server `HashMap` scan it replaced.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use specweb_core::ids::{ClientId, DocId, NodeId, ServerId};
use specweb_core::rng::SeedTree;
use specweb_core::stats::ServiceTimeDist;
use specweb_core::time::{Duration, SimTime};
use specweb_core::units::{ByteHops, Bytes};
use specweb_dissem::analysis::ServerProfile;
use specweb_dissem::simulate::{DisseminationConfig, DisseminationOutcome, DisseminationSim};
use specweb_netsim::cost::TrafficAccount;
use specweb_netsim::topology::{NodeKind, Topology};
use specweb_trace::clients::{Client, ClientPopulation, Locality};
use specweb_trace::document::{Catalog, PopularityClass};
use specweb_trace::generator::{Access, Trace, TraceConfig, TraceGenerator};

/// The share of the server-wide demand a tailored ranking adds to a
/// subtree's own.
const GLOBAL_PRIOR_WEIGHT: f64 = 0.25;

/// The replica `proxy` holds for `server` under `cfg`.
fn replica(
    trace: &Trace,
    topo: &Topology,
    cfg: &DisseminationConfig,
    server: ServerId,
    proxy: NodeId,
) -> Vec<DocId> {
    let docs: Vec<(DocId, u64)> = trace
        .catalog
        .of_server(server)
        .map(|d| (d.id, d.size.get()))
        .collect();
    let remote = |doc: DocId| -> u64 {
        trace
            .accesses
            .iter()
            .filter(|a| a.doc == doc && a.locality == Locality::Remote)
            .count() as u64
    };
    let in_subtree = |doc: DocId| -> u64 {
        trace
            .accesses
            .iter()
            .filter(|a| a.doc == doc && a.locality == Locality::Remote)
            .filter(|a| topo.is_ancestor(proxy, trace.clients.get(a.client).node))
            .count() as u64
    };
    let mut ranked: Vec<(DocId, u64, u64)> = docs
        .iter()
        .map(|&(doc, size)| (doc, size, remote(doc)))
        .filter(|&(_, _, r)| r > 0)
        .collect();
    let budget = (ranked.iter().map(|d| d.1).sum::<u64>() as f64 * cfg.fraction) as u64;

    if cfg.tailored {
        let score = |&(doc, size, r): &(DocId, u64, u64)| {
            let c = in_subtree(doc) as f64 + GLOBAL_PRIOR_WEIGHT * r as f64;
            if cfg.rank_for_traffic {
                c
            } else {
                c / size.max(1) as f64
            }
        };
        ranked.sort_by(|a, b| score(b).total_cmp(&score(a)).then(a.0.cmp(&b.0)));
    } else if cfg.rank_for_traffic {
        ranked.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)).then(a.0.cmp(&b.0)));
    } else {
        let density = |&(_, size, r): &(DocId, u64, u64)| r as f64 / size.max(1) as f64;
        ranked.sort_by(|a, b| density(b).total_cmp(&density(a)).then(a.0.cmp(&b.0)));
    }
    let mut used = 0;
    let mut held = Vec::new();
    for (doc, size, _) in ranked {
        if used + size <= budget {
            used += size;
            held.push(doc);
        }
    }
    held
}

/// The dissemination outcome of `cfg` with proxies at `proxies`, from
/// the definitions in the module docs.
fn reference(
    trace: &Trace,
    topo: &Topology,
    cfg: &DisseminationConfig,
    proxies: &[NodeId],
) -> DisseminationOutcome {
    let n_servers = trace
        .catalog
        .iter()
        .map(|d| d.server.index() + 1)
        .max()
        .unwrap_or(0);
    // (proxy, doc) for every replicated document.
    let mut holds: BTreeSet<(NodeId, DocId)> = BTreeSet::new();
    let mut storage = 0u64;
    let mut push = 0u64;
    for &proxy in proxies {
        for server in (0..n_servers).map(ServerId::from) {
            for doc in replica(trace, topo, cfg, server, proxy) {
                let size = trace.catalog.size(doc).get();
                holds.insert((proxy, doc));
                storage += size;
                if cfg.count_dissemination_traffic {
                    push += size * u64::from(topo.depth(proxy));
                }
            }
        }
    }

    let mut baseline = TrafficAccount::new();
    let mut with = TrafficAccount::new();
    let (mut service, mut baseline_service) = (ServiceTimeDist::new(), ServiceTimeDist::new());
    let (mut proxy_hits, mut origin_hits, mut shed) = (0u64, 0u64, 0u64);
    // Requests each proxy has served per calendar day.
    let mut served_on: BTreeMap<(NodeId, u64), u64> = BTreeMap::new();
    for a in &trace.accesses {
        if cfg.remote_only && a.locality == Locality::Local {
            continue;
        }
        let size = trace.catalog.size(a.doc);
        let client = trace.clients.get(a.client).node;
        let full_path = topo.depth(client);
        baseline.record(size, full_path);
        baseline_service.record(cfg.latency.fetch(size, full_path).as_millis());

        let mut served_at = None;
        let (mut node, mut hops) = (client, 0);
        while node != Topology::ROOT {
            if holds.contains(&(node, a.doc)) {
                let served = served_on.entry((node, a.time.day())).or_insert(0);
                if cfg
                    .proxy_daily_request_cap
                    .is_some_and(|cap| *served >= cap)
                {
                    shed += 1;
                } else {
                    *served += 1;
                    served_at = Some(hops);
                    break;
                }
            }
            node = topo.parent(node);
            hops += 1;
        }
        let hops = match served_at {
            Some(h) => {
                proxy_hits += 1;
                h
            }
            None => {
                origin_hits += 1;
                full_path
            }
        };
        with.record(size, hops);
        service.record(cfg.latency.fetch(size, hops).as_millis());
    }

    let requests = proxy_hits + origin_hits;
    let push_traffic = ByteHops(push);
    DisseminationOutcome {
        baseline,
        with_dissemination: with,
        push_traffic,
        proxy_hits,
        origin_hits,
        shed_requests: shed,
        total_proxy_storage: Bytes::new(storage),
        reduction: 1.0 - (with.byte_hops + push_traffic).ratio(baseline.byte_hops),
        intercepted_fraction: if requests == 0 {
            0.0
        } else {
            proxy_hits as f64 / requests as f64
        },
        service_times: service.quantiles(),
        baseline_service_times: baseline_service.quantiles(),
    }
}

/// Profile mining as it was before the one-pass count: one scan of the
/// trace per server, through a `HashMap` from document id to its slot.
fn hashmap_profile(trace: &Trace, server: ServerId, days: u64) -> Option<ServerProfile> {
    if days == 0 {
        return None;
    }
    let mut per_doc: Vec<(DocId, Bytes, u64, u64)> = trace
        .catalog
        .of_server(server)
        .map(|d| (d.id, d.size, 0u64, 0u64))
        .collect();
    if per_doc.is_empty() {
        return None;
    }
    let mut index = std::collections::HashMap::with_capacity(per_doc.len());
    for (i, &(doc, ..)) in per_doc.iter().enumerate() {
        index.insert(doc, i);
    }
    let mut remote_bytes = 0u64;
    for a in &trace.accesses {
        if a.server != server {
            continue;
        }
        let i = index[&a.doc];
        match a.locality {
            Locality::Remote => {
                per_doc[i].2 += 1;
                remote_bytes = remote_bytes.saturating_add(per_doc[i].1.get());
            }
            Locality::Local => per_doc[i].3 += 1,
        }
    }
    per_doc.sort_by(|a, b| {
        let da = a.2 as f64 / a.1.get().max(1) as f64;
        let db = b.2 as f64 / b.1.get().max(1) as f64;
        db.total_cmp(&da).then(a.0.cmp(&b.0))
    });
    let curve_input: Vec<(Bytes, u64)> = per_doc.iter().map(|&(_, s, r, _)| (s, r)).collect();
    let hit_curve = specweb_core::dist::HitCurve::from_documents(&curve_input).ok()?;
    let lambda = hit_curve
        .fit_lambda(0.98)
        .or_else(|_| hit_curve.fit_lambda_at(0.25))
        .ok()?
        .lambda();
    Some(ServerProfile {
        server,
        docs: per_doc,
        remote_bytes_per_day: remote_bytes as f64 / days as f64,
        hit_curve,
        lambda,
    })
}

/// Mining equals the `HashMap` scan for every server in `servers`:
/// the same documents in the same order, the same `λ` and `R` bits, and
/// an error exactly where the scan has none to give.
fn assert_profiles_equal_the_hashmap_scan(trace: &Trace, servers: &[ServerId], days: u64) {
    let many = ServerProfile::from_trace_many(trace, servers, days);
    let scanned: Option<Vec<ServerProfile>> = servers
        .iter()
        .map(|&s| hashmap_profile(trace, s, days))
        .collect();
    assert_eq!(many.is_ok(), scanned.is_some(), "{:?}", many.as_ref().err());
    for (i, &s) in servers.iter().enumerate() {
        let one = ServerProfile::from_trace(trace, s, days);
        let old = hashmap_profile(trace, s, days);
        assert_eq!(one.is_ok(), old.is_some(), "{s}: {:?}", one.as_ref().err());
        let (Ok(one), Some(old)) = (one, old) else {
            continue;
        };
        let from_many = many.as_ref().map_or(&one, |m| &m[i]);
        for new in [&one, from_many] {
            assert_eq!(new.server, old.server);
            assert_eq!(new.docs, old.docs, "{s}");
            assert_eq!(new.lambda.to_bits(), old.lambda.to_bits(), "{s}");
            assert_eq!(
                new.remote_bytes_per_day.to_bits(),
                old.remote_bytes_per_day.to_bits(),
                "{s}"
            );
        }
    }
}

#[test]
fn profiles_equal_the_hashmap_scan_on_a_cluster_trace() {
    let topo = Topology::balanced(2, 3, 4);
    let trace = TraceGenerator::new(TraceConfig::cluster(61, 4))
        .unwrap()
        .generate(&topo)
        .unwrap();
    let servers: Vec<ServerId> = (0..4usize).map(ServerId::from).collect();
    for days in [1, 10, trace.days()] {
        assert_profiles_equal_the_hashmap_scan(&trace, &servers, days);
    }
    // An unknown server and a zero-day span fail on both sides.
    assert_profiles_equal_the_hashmap_scan(&trace, &[ServerId::new(0), ServerId::new(9)], 10);
    assert_profiles_equal_the_hashmap_scan(&trace, &servers, 0);
}

/// One tiny trace: `(topology seed, interior, leaves)`, the number of
/// servers, document sizes in KiB, clients as `(node pick, remote)`,
/// accesses as `(client, doc, day, second)`.
type TinyTrace = (
    (u64, u32, u32),
    usize,
    Vec<u64>,
    Vec<(usize, bool)>,
    Vec<(usize, usize, u64, u64)>,
);

fn tiny_trace() -> impl Strategy<Value = TinyTrace> {
    (
        (0u64..1_000, 2u32..7, 2u32..7),
        1usize..=3,
        prop::collection::vec(1u64..48, 6..=12),
        prop::collection::vec((0usize..64, 0u8..3), 1..=6)
            .prop_map(|c| c.into_iter().map(|(n, r)| (n, r > 0)).collect()),
        prop::collection::vec((0usize..6, 0usize..12, 0u64..4, 0u64..86_400), 1..60),
    )
}

/// Builds the trace, or `None` when the draw leaves a server without
/// documents. Every server's first two documents get one remote request
/// each, so each has a hit curve to fit.
fn build(raw: &TinyTrace) -> Option<(Trace, Topology)> {
    let ((seed, interior, leaves), n_servers, docs, clients, accesses) = raw;
    let topo = Topology::random(&SeedTree::new(*seed), *interior, *leaves, 3);
    let mut catalog = Catalog::new();
    for (i, &kib) in docs.iter().enumerate() {
        let server = ServerId::from(i % n_servers);
        catalog.push(
            server,
            Bytes::from_kib(kib),
            PopularityClass::Global,
            false,
            true,
        );
    }
    // Clients anywhere below the root, leaves or interior; the first is
    // remote.
    let clients: Vec<Client> = clients
        .iter()
        .enumerate()
        .map(|(i, &(pick, remote))| Client {
            id: ClientId::from(i),
            node: NodeId::from(1 + pick % (topo.len() - 1)),
            locality: if remote || i == 0 {
                Locality::Remote
            } else {
                Locality::Local
            },
        })
        .collect();
    let clients = ClientPopulation::from_clients(clients).ok()?;
    let mut list: Vec<Access> = Vec::new();
    let mut push = |client: usize, doc: usize, day: u64, second: u64| {
        let client = client % clients.len();
        let doc = DocId::from(doc % catalog.len());
        list.push(Access {
            time: SimTime::from_days(day).saturating_add(Duration::from_secs(second)),
            client: ClientId::from(client),
            doc,
            server: catalog.get(doc).server,
            locality: clients.get(ClientId::from(client)).locality,
            session: list.len() as u64,
        });
    };
    for d in 0..2 * n_servers {
        push(0, d, 0, d as u64);
    }
    for &(client, doc, day, second) in accesses {
        push(client, doc, day, second);
    }
    list.sort_by_key(|a| (a.time, a.client, a.doc, a.session));
    let trace = Trace {
        n_sessions: list.len() as u64,
        accesses: list,
        catalog,
        graphs: Vec::new(),
        clients,
        duration: Duration::from_days(4),
    };
    Some((trace, topo))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn run_equals_the_reference(
        raw in tiny_trace(),
        fraction_pct in 0u32..=100,
        n_proxies in 0usize..8,
        explicit_mask in 0u32..256,
    ) {
        let (trace, topo) = build(&raw).expect("every server has documents");
        let servers: Vec<ServerId> = (0..raw.1).map(ServerId::from).collect();
        assert_profiles_equal_the_hashmap_scan(&trace, &servers, trace.days());
        let Ok(sim) = DisseminationSim::new(&trace, &topo) else {
            // A degenerate hit curve (nothing to fit `λ` to) fails on
            // both sides; the mining check above has compared that.
            return Ok(());
        };
        let interior: Vec<NodeId> = (0..topo.len())
            .map(NodeId::from)
            .filter(|&n| topo.kind(n) == NodeKind::Interior)
            .collect();
        let explicit: Vec<NodeId> = interior
            .iter()
            .enumerate()
            .filter(|&(i, _)| explicit_mask >> (i % 8) & 1 == 1)
            .map(|(_, &n)| n)
            .collect();
        for tailored in [false, true] {
            for rank_for_traffic in [true, false] {
                for remote_only in [true, false] {
                    for count_dissemination_traffic in [false, true] {
                        for cap in [None, Some(1), Some(3)] {
                            for explicit_proxies in [None, Some(explicit.clone())] {
                                let cfg = DisseminationConfig {
                                    fraction: f64::from(fraction_pct) / 100.0,
                                    n_proxies,
                                    tailored,
                                    count_dissemination_traffic,
                                    count_update_traffic: false,
                                    proxy_daily_request_cap: cap,
                                    rank_for_traffic,
                                    remote_only,
                                    explicit_proxies,
                                    ..DisseminationConfig::default()
                                };
                                let proxies = match &cfg.explicit_proxies {
                                    Some(p) => p.clone(),
                                    None => sim.place_proxies_for(n_proxies, remote_only),
                                };
                                let run = sim.run(&cfg, &[]).unwrap();
                                let want = reference(&trace, &topo, &cfg, &proxies);
                                prop_assert_eq!(
                                    serde_json::to_string(&run).unwrap(),
                                    serde_json::to_string(&want).unwrap(),
                                    "{:?} at {:?}", cfg, proxies
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
