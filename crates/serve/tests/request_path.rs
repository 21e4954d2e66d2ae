//! No timer on the live request path.
//!
//! A wire fetch used to be two waits and almost nothing else: 40 ms on
//! the client (a request written fragment by fragment, Nagle's
//! algorithm meeting the server's delayed ACK) and 500 µs on the
//! reactor (a park after the first sweep without progress). These tests
//! hold what replaced them: one request is one segment and one reactor
//! read, a closed loop meets a sweeping reactor, an idle server still
//! sleeps, and the `HAVE` digest stops where the line cap does.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use specweb_core::DocId;
use specweb_serve::session::SessionEvent;
use specweb_serve::{
    ClientConfig, KnowledgeSpec, ProtocolLimits, Request, ServerConfig, ServerHandle, SessionTrace,
    SpecClient, SpecServer,
};

/// A server over the demo knowledge, and the size of its catalog.
fn spawn(limits: ProtocolLimits, recording: bool) -> (ServerHandle, u32) {
    let demo = KnowledgeSpec::demo(77);
    let knowledge = demo.build(1).expect("knowledge builds");
    let n_docs = knowledge.catalog.len() as u32;
    let config = ServerConfig {
        limits,
        ..ServerConfig::default()
    };
    let handle = if recording {
        SpecServer::spawn_recording(knowledge, config, demo)
    } else {
        SpecServer::spawn(knowledge, config)
    };
    (handle.expect("server spawns"), n_docs)
}

fn client(handle: &ServerHandle, limits: ProtocolLimits) -> SpecClient {
    let config = ClientConfig {
        limits,
        ..ClientConfig::default()
    };
    SpecClient::new(handle.addr(), config).expect("client config is valid")
}

/// What the reactor read from connection 0, one string per read.
fn reads_of_conn_0(trace: &SessionTrace) -> Vec<String> {
    trace
        .events
        .iter()
        .filter_map(|e| match e {
            SessionEvent::Data { conn: 0, hex } => Some(hex),
            _ => None,
        })
        .map(|hex| {
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("recorder writes hex"))
                .collect();
            String::from_utf8(bytes).expect("requests are ASCII")
        })
        .collect()
}

#[test]
fn one_request_is_one_segment_and_one_reactor_read() {
    let limits = ProtocolLimits::default();
    let (handle, n_docs) = spawn(limits, true);
    let mut c = client(&handle, limits);
    for doc in (0..n_docs).map(DocId::new) {
        c.fetch(doc).expect("fetch succeeds");
    }
    c.quit().expect("quit is sent");
    let trace = handle.shutdown_into_trace().expect("trace is captured");

    let reads = reads_of_conn_0(&trace);
    let longest_digest = reads.iter().map(|r| r.matches(',').count() + 1).max();
    assert!(
        longest_digest > Some(64),
        "the session must grow its digest past 64 ids, got {longest_digest:?}"
    );
    for read in &reads {
        assert!(
            read.ends_with('\n') && read.matches('\n').count() == 1,
            "a reactor read must be exactly one request line, got {read:?}"
        );
    }
    let outcome = specweb_serve::replay(&trace, 1).expect("replay runs");
    assert!(outcome.matches(), "diverged: {:?}", outcome.divergences);
}

#[test]
fn forty_wire_fetches_wait_on_no_timer() {
    let limits = ProtocolLimits::default();
    let (handle, n_docs) = spawn(limits, false);
    let mut c = client(&handle, limits);
    // The first fetch pays the connect and sends no digest.
    c.fetch(DocId::new(0)).expect("fetch succeeds");
    let start = Instant::now();
    let mut wire = 0;
    for doc in (1..n_docs).map(DocId::new) {
        if wire < 40 && !c.fetch(doc).expect("fetch succeeds").from_cache {
            wire += 1;
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(wire, 40, "the catalog must hold 40 wire fetches");
    // One delayed ACK is 40 ms: 40 of them are 1.6 s, 40 round trips
    // on loopback about a millisecond.
    assert!(
        elapsed < Duration::from_millis(400),
        "40 wire fetches took {elapsed:?}"
    );
    handle.shutdown().expect("server stops");
}

#[test]
fn a_closed_loop_does_not_wait_out_a_park() {
    let (handle, _) = spawn(ProtocolLimits::default(), false);
    let mut out = TcpStream::connect(handle.addr()).expect("connects");
    out.set_nodelay(true).expect("nodelay");
    let mut replies = BufReader::new(out.try_clone().expect("clones"));
    let before = handle.stats().idle_parks;
    let mut line = String::new();
    for _ in 0..2_000 {
        out.write_all(b"GET 0\n").expect("request is sent");
        while line != "END\n" {
            line.clear();
            replies.read_line(&mut line).expect("reply arrives");
        }
        line.clear();
    }
    let parks = handle.stats().idle_parks - before;
    // A reactor that parks after the first sweep without progress
    // parks once a request at least.
    assert!(parks < 1_000, "2 000 back-to-back GETs met {parks} parks");
    handle.shutdown().expect("server stops");
}

#[test]
fn an_idle_server_still_parks() {
    let (handle, _) = spawn(ProtocolLimits::default(), false);
    let before = handle.stats().idle_parks;
    // 50 parks of 500 µs and their wake-ups fit into 30 ms on a quiet
    // box; the deadline is for a crowded one. None at all would mean
    // the spin never ends.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut parks = 0;
    while parks < 50 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
        parks = handle.stats().idle_parks - before;
    }
    assert!(parks >= 50, "2 s of idle saw {parks} parks");
    handle.shutdown().expect("server stops");
}

#[test]
fn the_have_digest_fits_a_64_byte_line_cap() {
    let limits = ProtocolLimits {
        max_line_bytes: 64,
        ..ProtocolLimits::default()
    };
    let (handle, n_docs) = spawn(limits, true);
    assert!(n_docs >= 50);
    let mut c = client(&handle, limits);
    // The client's cache before each fetch that went to the wire.
    let mut cache = BTreeSet::new();
    let mut caches = Vec::new();
    for doc in (0..50).map(DocId::new) {
        let r = c
            .fetch(doc)
            .expect("a long digest must not poison the session");
        if !r.from_cache {
            caches.push(cache.clone());
            cache.insert(doc);
            cache.extend(r.pushed);
        }
    }
    c.quit().expect("quit is sent");
    let trace = handle.shutdown_into_trace().expect("trace is captured");

    let reads = reads_of_conn_0(&trace);
    assert!(reads.len() >= caches.len(), "every request was read");
    let mut cut = 0;
    for (read, cache) in reads.iter().zip(&caches) {
        let line = read.trim_end_matches('\n');
        assert!(line.len() <= 64, "{} bytes: {line:?}", line.len());
        let Ok(Request::Get { have, .. }) = Request::parse(line, &limits) else {
            panic!("not a GET: {line:?}");
        };
        let prefix: Vec<DocId> = cache.iter().take(have.len()).copied().collect();
        assert_eq!(have, prefix, "the digest must be a prefix of the cache");
        cut += usize::from(have.len() < cache.len());
    }
    assert!(cut > 0, "no digest was long enough to be cut");
}
