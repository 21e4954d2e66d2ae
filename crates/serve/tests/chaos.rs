//! Slow-client chaos: the event loop vs the recorded thread-per-
//! connection baseline.
//!
//! The server faces seeded degraded load — clients that stall outright,
//! dribble one byte per write, or stretch the gap between chunks —
//! driven by [`specweb_serve::chaos`]. A thread-per-connection server
//! pins one OS thread per such peer, so its concurrency is its thread
//! budget; the reactor holds the same peer for a few kilobytes. The
//! acceptance bar: the event loop must sustain at least **10×** the
//! baseline's connection count with full correctness (every response
//! well-formed, nothing refused, nothing timed out).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use specweb_core::time::Duration as SimDuration;
use specweb_serve::session::KnowledgeSpec;
use specweb_serve::{
    run_chaos, ChaosConfig, ClientConfig, OverloadPolicy, ServerConfig, SpecClient, SpecServer,
    StatEntry,
};

/// The connection budget of the retired thread-per-connection server:
/// the count it survived this same chaos schedule at, measured in PR 6
/// (when the reactor replaced it) and kept as a recorded number since
/// that server was deleted.
const BASELINE_CLIENTS: usize = 24;
/// What we demand of the event loop: 10× the baseline.
const EVENT_LOOP_CLIENTS: usize = 240;

fn chaos_config(clients: usize) -> ChaosConfig {
    ChaosConfig {
        clients,
        requests_per_client: 2,
        n_docs: 8,
        seed: 7,
        horizon: SimDuration::from_millis(2_000),
        deadline: Duration::from_secs(30),
        chunk_delay: Duration::from_millis(1),
    }
}

fn server_config(max_connections: usize) -> ServerConfig {
    ServerConfig {
        overload: OverloadPolicy {
            max_connections,
            // Shedding speculation under load is allowed (it is the
            // ladder working); refusing or corrupting is not.
            demand_only_at: max_connections * 3 / 4,
        },
        ..ServerConfig::default()
    }
}

/// Probes `STATS` on its own connection every few milliseconds until
/// told to stop, returning the successful round-trips and the last
/// snapshot. Runs alongside the chaos load: live introspection must
/// stay answerable while the reactor is saturated with degraded peers.
fn spawn_stats_prober(
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
) -> thread::JoinHandle<(u64, Vec<StatEntry>)> {
    thread::spawn(move || {
        let mut client = SpecClient::new(addr, ClientConfig::default()).expect("prober client");
        let mut round_trips = 0u64;
        let mut last = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            if let Ok(entries) = client.stats() {
                round_trips += 1;
                last = entries;
            }
            thread::sleep(Duration::from_millis(20));
        }
        (round_trips, last)
    })
}

#[test]
fn event_loop_sustains_ten_times_the_baseline_under_chaos() {
    const { assert!(EVENT_LOOP_CLIENTS >= 10 * BASELINE_CLIENTS) };
    let knowledge = KnowledgeSpec::demo(42).build(1).expect("knowledge builds");
    // Headroom above the client count so refusal would indicate a
    // resource leak (stuck connections), not a configured cap.
    let server = SpecServer::spawn(knowledge, server_config(EVENT_LOOP_CLIENTS + 16))
        .expect("event loop spawns");

    // Live introspection under load: a prober asks STATS throughout
    // the chaos run on a connection of its own.
    let stop = Arc::new(AtomicBool::new(false));
    let prober = spawn_stats_prober(server.addr(), Arc::clone(&stop));

    let report = run_chaos(server.addr(), &chaos_config(EVENT_LOOP_CLIENTS)).expect("chaos runs");
    stop.store(true, Ordering::Relaxed);
    let (stats_round_trips, last_snapshot) = prober.join().expect("prober joins");

    assert!(
        report.clean(),
        "event loop shed correctness at 10× the baseline: {report:?}"
    );
    let stats = server.stats();
    server.shutdown().expect("event loop shuts down");
    assert!(
        stats_round_trips >= 1,
        "STATS must stay answerable under slow-client load"
    );
    let value =
        |key: &str| -> Option<u64> { last_snapshot.iter().find(|e| e.key == key).map(|e| e.value) };
    assert!(
        value("live_connections").is_some() && value("requests").is_some(),
        "snapshot must carry gauges and counters: {last_snapshot:?}"
    );
    // ≥: a probe the client gave up on may still have been answered.
    assert!(stats.stats_requests >= stats_round_trips);
    // The chaos clients plus (at least) the prober's connection.
    assert!(stats.connections > EVENT_LOOP_CLIENTS as u64);
    assert_eq!(stats.refused_connections, 0);
    assert_eq!(
        stats.requests, report.requests_sent,
        "every pipelined request must be served"
    );
}
