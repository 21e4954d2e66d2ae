//! Serialization round-trips: every configuration and result type that
//! the harness persists to `results/*.json` (or that a deployment would
//! store in a config file) must survive a JSON round-trip unchanged.

use specweb::prelude::*;
use specweb::spec::cache::CacheModel;
use specweb::spec::policy::Policy;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn ids_and_units_roundtrip() {
    assert_eq!(roundtrip(&DocId::new(42)), DocId::new(42));
    assert_eq!(roundtrip(&ClientId::new(7)), ClientId::new(7));
    assert_eq!(roundtrip(&Bytes::from_kib(3)), Bytes::from_kib(3));
    assert_eq!(roundtrip(&SimTime::from_secs(9)), SimTime::from_secs(9));
    assert_eq!(roundtrip(&Duration::INFINITE), Duration::INFINITE);
    // Transparent newtypes serialize as bare numbers.
    assert_eq!(serde_json::to_string(&DocId::new(5)).unwrap(), "5");
    assert_eq!(serde_json::to_string(&Bytes::new(10)).unwrap(), "10");
}

#[test]
fn trace_config_roundtrips() {
    let cfg = TraceConfig::bu_www(123);
    let back = roundtrip(&cfg);
    assert_eq!(back.seed, cfg.seed);
    assert_eq!(back.n_servers, cfg.n_servers);
    assert_eq!(back.duration_days, cfg.duration_days);
    assert_eq!(back.site.n_pages, cfg.site.n_pages);
    assert_eq!(back.clients.n_clients, cfg.clients.n_clients);
    // And the round-tripped config generates the identical trace.
    let topo = Topology::two_level(3, 4);
    let mut small = TraceConfig::small(9);
    small.duration_days = 3;
    let small_back = roundtrip(&small);
    let a = TraceGenerator::new(small).unwrap().generate(&topo).unwrap();
    let b = TraceGenerator::new(small_back)
        .unwrap()
        .generate(&topo)
        .unwrap();
    assert_eq!(a.accesses, b.accesses);
}

#[test]
fn spec_config_roundtrips() {
    let mut cfg = SpecConfig::baseline(0.35);
    cfg.policy = Policy::Hybrid {
        push_tp: 0.9,
        hint_tp: 0.2,
    };
    cfg.cache = CacheModel::Session {
        timeout: Duration::from_secs(3_600),
    };
    cfg.max_size = Bytes::from_kib(29);
    cfg.cooperative = true;
    let back = roundtrip(&cfg);
    assert_eq!(back.policy, cfg.policy);
    assert_eq!(back.cache, cfg.cache);
    assert_eq!(back.max_size, cfg.max_size);
    assert_eq!(back.cooperative, cfg.cooperative);
    assert_eq!(back.estimator.history_days, cfg.estimator.history_days);
}

#[test]
fn dissemination_config_roundtrips() {
    let cfg = DisseminationConfig {
        fraction: 0.04,
        n_proxies: 9,
        tailored: true,
        count_dissemination_traffic: true,
        count_update_traffic: false,
        proxy_daily_request_cap: Some(500),
        rank_for_traffic: false,
        remote_only: true,
        explicit_proxies: Some(vec![NodeId::new(3), NodeId::new(4)]),
        latency: LatencyModel::default(),
    };
    let json = serde_json::to_string(&cfg).unwrap();
    let back: DisseminationConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.fraction, cfg.fraction);
    assert_eq!(back.n_proxies, cfg.n_proxies);
    assert_eq!(back.proxy_daily_request_cap, Some(500));
    assert_eq!(back.explicit_proxies, cfg.explicit_proxies);
}

#[test]
fn outcomes_roundtrip() {
    // Run a tiny simulation and round-trip its outcome.
    let topo = Topology::two_level(3, 4);
    let mut tc = TraceConfig::small(11);
    tc.duration_days = 4;
    tc.sessions_per_day = 20;
    let trace = TraceGenerator::new(tc).unwrap().generate(&topo).unwrap();

    let mut cfg = SpecConfig::baseline(0.4);
    cfg.estimator.history_days = 3;
    cfg.warmup_days = 1;
    let out = SpecSim::new(&trace, &topo).run(&cfg).unwrap();
    let back: SpecOutcome = roundtrip(&out);
    assert_eq!(back.speculative, out.speculative);
    assert_eq!(back.baseline, out.baseline);
    assert_eq!(back.pushes, out.pushes);

    let d = DisseminationSim::new(&trace, &topo)
        .unwrap()
        .run(&DisseminationConfig::default(), &[])
        .unwrap();
    let dback: DisseminationOutcome = roundtrip(&d);
    assert_eq!(dback.proxy_hits, d.proxy_hits);
    assert!((dback.reduction - d.reduction).abs() < 1e-15);
}

#[test]
fn ratios_and_totals_roundtrip() {
    let t = RunTotals {
        bytes_sent: Bytes::new(123),
        server_requests: 4,
        latency_ms: 567,
        accesses: 8,
        miss_bytes: Bytes::new(90),
        accessed_bytes: Bytes::new(1_000),
    };
    assert_eq!(roundtrip(&t), t);
    let r = Ratios::between(&t, &t);
    let back = roundtrip(&r);
    assert_eq!(back, r);
}

#[test]
fn topology_roundtrips() {
    let topo = Topology::balanced(2, 3, 4);
    let back: Topology = roundtrip(&topo);
    assert_eq!(back.len(), topo.len());
    for &l in topo.leaves() {
        assert_eq!(back.depth(l), topo.depth(l));
        assert_eq!(back.parent(l), topo.parent(l));
    }
}
