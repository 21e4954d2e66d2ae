//! Probes of the traced run: each redoes one layer's work through the
//! layer's public functions, under a span of that layer's name, so a
//! single layer has numbers of its own. They run after the timed body.

use std::time::Instant;

use specweb_core::ids::{DocId, NodeId, ServerId};
use specweb_core::stats::ServiceTimeDist;
use specweb_netsim::cluster::{Cluster, ClusterMap};
use specweb_netsim::routing::Router;
use specweb_netsim::topology::Topology;
use specweb_serve::overload::ServiceLevel;
use specweb_serve::{ConnCore, ProtocolLimits, Request, ServerKnowledge};
use specweb_spec::deps::DepMatrixBuilder;
use specweb_spec::estimator::{MatrixPair, MatrixStore};
use specweb_spec::policy::decide;
use specweb_spec::simulate::SpecConfig;
use specweb_trace::generator::Trace;

use crate::inputs::SpecWorkload;
use crate::metrics::Metrics;
use crate::span::Tracer;
use crate::stats;

/// What [`deps_probe`] measured.
#[derive(Debug, Default)]
pub struct DepsProbe {
    /// Accesses pushed through a `DepMatrixBuilder` over all boundaries.
    pub accesses_pushed: u64,
    /// `new` + `push_all` + `build` of the hard-window estimate.
    pub build_s: f64,
    /// Per-day estimates of the aged path (0 under a hard window).
    pub aged_day_estimate_s: f64,
    pub closure_s: f64,
    /// Rows of the direct matrices the closures started from.
    pub closure_rows: u64,
    /// Entries of the last boundary's closure.
    pub closure_entries: u64,
}

/// Redoes, for every update boundary, the `spec.deps` work inside
/// `MatrixStore::precompute`: the direct-matrix build from the history
/// window (or, under aging, the per-day estimates `estimate_aged`
/// blends) and the closure of the boundary's direct matrix.
pub fn deps_probe(
    w: &SpecWorkload,
    trace: &Trace,
    store: &MatrixStore,
    tracer: &Tracer,
) -> DepsProbe {
    let est = &w.base.estimator;
    let mut probe = DepsProbe::default();
    let _layer = tracer.span("spec.deps");
    let step = usize::try_from(est.update_cycle_days).expect("cycle fits usize");
    for day in (0..=w.total_days()).step_by(step) {
        let built;
        let direct = match est.aging_decay {
            None => {
                let t = Instant::now();
                let mut b = DepMatrixBuilder::new(est.window);
                for d in day.saturating_sub(est.history_days)..day {
                    let slice = trace.day_slice(d);
                    probe.accesses_pushed += slice.len() as u64;
                    b.push_all(slice);
                }
                built = b.build(est.min_support);
                probe.build_s += t.elapsed().as_secs_f64();
                &built
            }
            Some(decay) => {
                // The blend itself has no public twin; the per-day
                // estimates it is made of have, and they are the part
                // that grows with the horizon.
                let t = Instant::now();
                let horizon = (est.history_days * 3).min(day);
                for d in day - horizon..day {
                    let slice = trace.day_slice(d);
                    if decay.powi((day - 1 - d) as i32) < 1e-4 || slice.is_empty() {
                        continue;
                    }
                    probe.accesses_pushed += slice.len() as u64;
                    std::hint::black_box(DepMatrixBuilder::estimate(slice, est.window, 1));
                }
                probe.aged_day_estimate_s += t.elapsed().as_secs_f64();
                &store.for_day(day).direct
            }
        };
        let t = Instant::now();
        let closure = direct
            .closure_jobs(est.closure_floor, est.closure_max_row, 1)
            .expect("floor and max_row are valid");
        probe.closure_s += t.elapsed().as_secs_f64();
        probe.closure_rows += direct.n_rows() as u64;
        probe.closure_entries = closure.n_entries() as u64;
    }
    probe
}

/// What [`policy_probe`] measured.
#[derive(Debug)]
pub struct PolicyProbe {
    pub decide_per_s: f64,
    pub pushes_per_decision: f64,
}

/// Every catalog document through `policy::decide`, under the
/// reference point's policy and the last boundary's matrices.
pub fn policy_probe(
    cfg: &SpecConfig,
    matrices: &MatrixPair,
    trace: &Trace,
    tracer: &Tracer,
) -> PolicyProbe {
    const ROUNDS: usize = 20;
    let n = trace.catalog.len();
    let mut pushes = 0usize;
    let ((), secs) = tracer.time("spec.policy", || {
        for _ in 0..ROUNDS {
            for i in 0..n {
                let d = decide(
                    &cfg.policy,
                    &matrices.closure,
                    &matrices.direct,
                    DocId::from(i),
                    &trace.catalog,
                    cfg.max_size,
                    |_| false,
                );
                pushes += std::hint::black_box(d).push.len();
            }
        }
    });
    let decisions = (ROUNDS * n).max(1) as f64;
    PolicyProbe {
        decide_per_s: decisions / secs,
        pushes_per_decision: pushes as f64 / decisions,
    }
}

/// `core.stats`: merging two service-time distributions of 100 000
/// samples each, and the quantile summary of the result.
pub fn stats_probe(seed: u64, tracer: &Tracer, m: &mut Metrics) {
    const SAMPLES: u64 = 100_000;
    const ROUNDS: usize = 25;
    let fill = |salt: u64| {
        let mut d = ServiceTimeDist::new();
        for i in 0..SAMPLES {
            d.record(specweb_core::rng::splitmix64(seed ^ salt ^ i) % 2_000);
        }
        d
    };
    let (a, b) = (fill(0x5eed), fill(0xfeed));
    let _layer = tracer.span("core.stats");
    let (mut merge_s, mut quantiles_s) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let mut merged = a.clone();
        let t = Instant::now();
        merged.merge(&b);
        merge_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(merged.quantiles());
        quantiles_s.push(t.elapsed().as_secs_f64());
    }
    m.set_n("stats.dist_merge_us", stats::median(&merge_s) * 1e6, ROUNDS);
    m.set_n(
        "stats.quantiles_us",
        stats::median(&quantiles_s) * 1e6,
        ROUNDS,
    );
}

/// `netsim.routing`: `Router::route` for every leaf × server, with the
/// given proxies fronting every server. Returns routes per second.
pub fn route_probe(topo: &Topology, proxies: &[NodeId], n_servers: usize, tracer: &Tracer) -> f64 {
    const ROUNDS: usize = 50;
    let servers: Vec<ServerId> = (0..n_servers).map(ServerId::from).collect();
    let mut clusters = ClusterMap::new();
    for &p in proxies {
        clusters
            .add(topo, Cluster::new(p, servers.clone()))
            .expect("placed proxies are interior nodes");
    }
    let router = Router::new(topo, &clusters);
    let mut routes = 0usize;
    let ((), secs) = tracer.time("netsim.routing", || {
        for _ in 0..ROUNDS {
            for &leaf in topo.leaves() {
                for &s in &servers {
                    std::hint::black_box(router.route(leaf, s));
                    routes += 1;
                }
            }
        }
    });
    routes as f64 / secs
}

/// A request stream as bytes: one `GET` per document of `docs`, each
/// piggybacking the first `have` documents of the list as its digest.
pub fn request_stream(docs: &[DocId], have: usize) -> Vec<u8> {
    let digest: Vec<DocId> = docs.iter().copied().take(have).collect();
    let mut out = Vec::new();
    for &doc in docs {
        let req = Request::Get {
            doc,
            have: digest.clone(),
        };
        out.extend_from_slice(format!("{req}\n").as_bytes());
    }
    out
}

/// `serve.protocol` and `serve.conn`: the live workload's request list
/// through `Request::parse`, and through `ConnCore::on_bytes` in
/// 16 KiB fragments — the server's work with no socket in the way.
pub fn serve_cpu_probe(docs: &[DocId], k: &ServerKnowledge, tracer: &Tracer, m: &mut Metrics) {
    const ROUNDS: usize = 20;
    let limits = ProtocolLimits::default();
    for (have, parse_name, conn_name) in [
        (0usize, "protocol.parse_get_per_s", "conn.requests_per_s"),
        (
            64,
            "protocol.parse_have64_per_s",
            "conn.have_requests_per_s",
        ),
    ] {
        let stream = request_stream(docs, have);
        let text = String::from_utf8(stream.clone()).expect("requests are ASCII");
        let lines: Vec<&str> = text.lines().collect();

        let ((), secs) = tracer.time("serve.protocol", || {
            for _ in 0..ROUNDS {
                for line in &lines {
                    let _ = std::hint::black_box(Request::parse(line, &limits));
                }
            }
        });
        m.set(parse_name, (ROUNDS * lines.len()) as f64 / secs);

        let (mut requests, mut pushes, mut bytes_out) = (0u64, 0u64, 0u64);
        let ((), secs) = tracer.time("serve.conn", || {
            for round in 0..ROUNDS {
                let mut core = ConnCore::new(round as u64, limits);
                for fragment in stream.chunks(16 * 1024) {
                    core.on_bytes(fragment, ServiceLevel::Full, k);
                    let n = core.buffered();
                    core.consume_output(n);
                }
                let c = core.counters();
                requests += c.requests;
                pushes += c.pushes;
                bytes_out += c.bytes_out;
            }
        });
        m.set(conn_name, requests as f64 / secs);
        if have == 0 {
            m.set(
                "conn.bytes_out_per_request",
                bytes_out as f64 / requests.max(1) as f64,
            );
            m.set(
                "conn.pushes_per_request",
                pushes as f64 / requests.max(1) as f64,
            );
        }
    }
}
