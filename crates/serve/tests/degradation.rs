//! End-to-end graceful-degradation tests for the hardened server.
//!
//! The scenario the crate exists for: under rising load the server
//! sheds **speculation first** (demand-only service, the §2.3 move),
//! refuses connections only at the hard cap — and a refused client's
//! retry succeeds once load drains. Hostile input gets a typed error
//! without taking the server down, and a graceful shutdown completes
//! in-flight sessions within the configured deadlines.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use specweb_core::{Bytes, CoreError, DocId, Duration as SimDuration};
use specweb_netsim::topology::Topology;
use specweb_serve::client::{ClientConfig, RetryConfig, SpecClient};
use specweb_serve::overload::{OverloadPolicy, ServiceLevel};
use specweb_serve::server::{ServerConfig, ServerHandle, ServerKnowledge, SpecServer};
use specweb_serve::session::KnowledgeSpec;
use specweb_spec::deps::DepMatrixBuilder;
use specweb_spec::policy::{decide, Policy};
use specweb_trace::generator::{TraceConfig, TraceGenerator};

/// Server knowledge estimated from a small synthetic trace — the §3.2
/// off-line estimation step, as in the `push_server` example.
fn knowledge() -> ServerKnowledge {
    let topo = Topology::two_level(4, 6);
    let mut tc = TraceConfig::small(77);
    tc.duration_days = 8;
    tc.sessions_per_day = 60;
    let trace = TraceGenerator::new(tc).unwrap().generate(&topo).unwrap();
    let direct = DepMatrixBuilder::estimate(&trace.accesses, SimDuration::from_secs(5), 2);
    let closure = direct.closure(0.05, 64).unwrap();
    ServerKnowledge {
        catalog: trace.catalog.clone(),
        direct,
        closure,
        policy: Policy::Threshold { tp: 0.25 },
        max_size: Bytes::INFINITE,
    }
}

/// A document whose response carries at least one speculative push.
fn pushing_doc(k: &ServerKnowledge) -> DocId {
    (0..k.catalog.len() as u32)
        .map(DocId::new)
        .find(|&d| {
            decide(
                &k.policy,
                &k.closure,
                &k.direct,
                d,
                &k.catalog,
                k.max_size,
                |_| false,
            )
            .push
            .iter()
            .any(|&(j, _)| j != d)
        })
        .expect("the estimated matrices must make at least one doc push")
}

fn spawn(overload: OverloadPolicy, read_timeout: Duration) -> ServerHandle {
    SpecServer::spawn(
        knowledge(),
        ServerConfig {
            overload,
            read_timeout,
            write_timeout: Duration::from_secs(5),
            admit_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn client(handle: &ServerHandle, max_attempts: u32) -> SpecClient {
    SpecClient::new(
        handle.addr(),
        ClientConfig {
            retry: RetryConfig {
                max_attempts,
                base: Duration::from_millis(50),
                cap: Duration::from_millis(400),
                jitter_seed: 1,
            },
            ..ClientConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn a_policy_the_simulator_refuses_is_refused_at_spawn() {
    let whole_rows = Policy::Threshold { tp: 0.0 };
    let hints_above_pushes = Policy::Hybrid {
        push_tp: 0.3,
        hint_tp: 0.9,
    };
    for policy in [whole_rows, hints_above_pushes] {
        let k = ServerKnowledge {
            policy,
            ..knowledge()
        };
        let refused = SpecServer::spawn(k, ServerConfig::default());
        assert!(
            matches!(refused, Err(CoreError::InvalidConfig { .. })),
            "{policy:?} spawned: {refused:?}"
        );
    }
    let demo = KnowledgeSpec::demo(77);
    let handle =
        SpecServer::spawn_recording(demo.build(1).unwrap(), ServerConfig::default(), demo).unwrap();
    handle.shutdown_into_trace().unwrap();
}

#[test]
fn full_service_pushes_and_the_pushes_become_cache_hits() {
    let handle = spawn(OverloadPolicy::default(), Duration::from_secs(5));
    let k = knowledge();
    let doc = pushing_doc(&k);

    let mut c = client(&handle, 2);
    let r = c.fetch(doc).unwrap();
    assert!(!r.from_cache);
    assert!(!r.pushed.is_empty(), "full service must speculate");

    // A pushed document is served locally — no wire request.
    let again = c.fetch(r.pushed[0]).unwrap();
    assert!(again.from_cache);
    c.quit().unwrap();

    let stats = handle.stats();
    handle.shutdown().unwrap();
    assert!(stats.pushes >= 1);
    assert_eq!(stats.shed_speculation, 0);
    assert_eq!(stats.requests, 1, "the cache hit never reached the server");
}

#[test]
fn overload_sheds_speculation_before_refusing_connections() {
    // One active connection is already past demand_only_at = 1: the
    // server keeps serving demand but stops speculating.
    let handle = spawn(
        OverloadPolicy {
            max_connections: 4,
            demand_only_at: 1,
        },
        Duration::from_secs(5),
    );
    let k = knowledge();
    let doc = pushing_doc(&k);

    let mut c = client(&handle, 2);
    let r = c.fetch(doc).unwrap();
    assert!(!r.from_cache, "demand service must still work");
    assert!(r.pushed.is_empty(), "speculation must be shed under load");
    assert_eq!(handle.service_level(), ServiceLevel::DemandOnly);
    c.quit().unwrap();

    let stats = handle.stats();
    handle.shutdown().unwrap();
    assert!(stats.shed_speculation >= 1);
    assert_eq!(
        stats.refused_connections, 0,
        "shedding speculation must not refuse anyone"
    );
}

#[test]
fn busy_refusal_is_transient_and_the_retry_succeeds() {
    let handle = spawn(
        OverloadPolicy {
            max_connections: 2,
            demand_only_at: 1,
        },
        Duration::from_secs(10),
    );

    // Saturate the server with two idle connections.
    let hold_a = TcpStream::connect(handle.addr()).unwrap();
    let hold_b = TcpStream::connect(handle.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().connections < 2 {
        assert!(Instant::now() < deadline, "holds were never admitted");
        thread::sleep(Duration::from_millis(5));
    }

    // Free one slot shortly after the client starts retrying.
    let freer = thread::spawn(move || {
        thread::sleep(Duration::from_millis(200));
        drop(hold_a);
    });

    let mut c = client(&handle, 8);
    let r = c.fetch(DocId::new(0)).unwrap();
    assert!(!r.from_cache, "the retried fetch must reach the server");
    freer.join().unwrap();
    c.quit().unwrap();
    drop(hold_b);

    let stats = handle.stats();
    handle.shutdown().unwrap();
    assert!(
        stats.refused_connections >= 1,
        "the saturated server must have refused at least once"
    );

    // The retry path must account its cost in the wall-clock registry:
    // at least one retry and a nonzero backoff pause.
    let wall = specweb_core::obs::global().snapshot().wallclock;
    let count = |name: &str| match wall.get(name) {
        Some(specweb_core::obs::MetricValue::Counter { value }) => *value,
        _ => 0,
    };
    assert!(count("serve.client_retries") >= 1, "retries not counted");
    assert!(
        count("serve.client_backoff_ms") >= 1,
        "backoff time not accounted"
    );
}

#[test]
fn hostile_input_gets_a_typed_error_and_the_server_survives() {
    let handle = spawn(OverloadPolicy::default(), Duration::from_secs(5));

    // An attacker sends an over-long line (the default cap is 4096).
    let mut attacker = TcpStream::connect(handle.addr()).unwrap();
    attacker.write_all(&vec![b'a'; 8192]).unwrap();
    attacker.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(attacker.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.starts_with("ERR"), "got {line:?}");
    assert!(line.contains("exceeds 4096 bytes"));
    drop(attacker);

    // Another sends an oversized HAVE digest on a well-formed line.
    let mut attacker = TcpStream::connect(handle.addr()).unwrap();
    let digest = vec!["1"; 300].join(",");
    writeln!(attacker, "GET 0 HAVE {digest}").unwrap();
    let mut line = String::new();
    BufReader::new(attacker.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.starts_with("ERR"), "got {line:?}");
    assert!(line.contains("exceeds 256 ids"));
    drop(attacker);

    // The server is unharmed: a well-behaved client is served normally.
    let mut c = client(&handle, 2);
    assert!(c.fetch(DocId::new(0)).is_ok());
    c.quit().unwrap();

    let stats = handle.stats();
    handle.shutdown().unwrap();
    assert!(stats.protocol_errors >= 2);
}

#[test]
fn graceful_shutdown_drains_within_the_read_deadline() {
    let read_timeout = Duration::from_millis(300);
    let handle = spawn(OverloadPolicy::default(), read_timeout);
    let addr = handle.addr();

    // An in-flight session: served once, then left open and idle.
    let mut c = client(&handle, 0);
    c.fetch(DocId::new(0)).unwrap();

    let start = Instant::now();
    handle.shutdown().unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed < read_timeout + Duration::from_secs(2),
        "shutdown took {elapsed:?}, expected under {read_timeout:?} + slack"
    );

    // The drained server is really gone: a fresh fetch fails with a
    // transient (typed) error once retries run out.
    let mut late = SpecClient::new(
        addr,
        ClientConfig {
            retry: RetryConfig {
                max_attempts: 1,
                base: Duration::from_millis(10),
                cap: Duration::from_millis(20),
                jitter_seed: 2,
            },
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let e = late.fetch(DocId::new(1)).unwrap_err();
    assert!(matches!(e, CoreError::Io(_)), "got {e:?}");
}
