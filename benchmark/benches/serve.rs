//! The two live-server workloads. One load-generator thread, at most
//! two connections, beside the server's reactor thread; loopback only.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use specweb_core::obs::{self, Channel};
use specweb_core::{Bytes, DocId};
use specweb_serve::{
    ClientConfig, Request, ServerConfig, ServerHandle, ServerKnowledge, SpecClient, SpecServer,
};
use specweb_spec::deps::DepMatrixBuilder;
use specweb_spec::policy::decide;
use specweb_trace::generator::{Trace, TraceGenerator};

use crate::harness::{self, Checks, Outcome, Params, SetUp};
use crate::inputs::{self, ServeWorkload};
use crate::layers;
use crate::metrics::Metrics;
use crate::pacer::{self, Pacer};
use crate::span::Tracer;
use crate::stats;
use crate::wire::{Reply, Wire};

/// No reply takes this long unless the server is gone.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// A running server, the trace its knowledge was estimated from, and a
/// second copy of that knowledge to evaluate `decide` offline.
struct Live {
    handle: Option<ServerHandle>,
    offline: ServerKnowledge,
    trace: Trace,
}

impl Live {
    /// The off-line estimation step of §3.2 over the whole trace, then
    /// `SpecServer::spawn` with the default configuration.
    fn start(w: &ServeWorkload) -> Live {
        let topo = inputs::topology();
        let trace = TraceGenerator::new(w.world.clone())
            .and_then(|g| g.generate(&topo))
            .expect("the workload's trace configuration is valid");
        let direct = DepMatrixBuilder::estimate(&trace.accesses, w.window, w.min_support);
        let closure = direct
            .closure(w.closure_floor, w.closure_max_row)
            .expect("floor and max_row are valid");
        let knowledge = || ServerKnowledge {
            catalog: trace.catalog.clone(),
            direct: direct.clone(),
            closure: closure.clone(),
            policy: w.policy,
            max_size: Bytes::INFINITE,
        };
        let handle = SpecServer::spawn(knowledge(), ServerConfig::default())
            .expect("binding an ephemeral loopback port");
        Live {
            handle: Some(handle),
            offline: knowledge(),
            trace,
        }
    }

    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("present until drop")
    }

    fn addr(&self) -> SocketAddr {
        self.handle().addr()
    }

    /// What the server must answer to `GET doc` from a client holding
    /// `have`: `decide` evaluated offline, minus the document itself.
    fn expected(&self, doc: DocId, have: impl Fn(DocId) -> bool) -> Reply {
        let k = &self.offline;
        let pushed = decide(
            &k.policy, &k.closure, &k.direct, doc, &k.catalog, k.max_size, have,
        )
        .push
        .into_iter()
        .filter(|&(j, _)| j != doc)
        .map(|(j, _)| (j, k.catalog.size(j).get()))
        .collect();
        Reply {
            doc: Some((doc, k.catalog.size(doc).get())),
            pushed,
            ..Reply::default()
        }
    }
}

impl Drop for Live {
    /// Stops the reactor and waits until its thread has ended.
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.shutdown();
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn reply_line(r: &Reply) -> String {
    format!("{:?} {:?} {:?}", r.doc, r.pushed, r.error)
}

/// The reactor-side extras of a traced run: connection set-up, the
/// `STATS` verb, and the server's own refusal and shedding counts.
fn reactor_probes(
    live: &Live,
    first: &[u8],
    tracer: &Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    const ROUNDS: usize = 30;
    let _layer = tracer.span("serve.reactor");
    let mut connect_us = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let reply =
            Wire::connect(live.addr()).and_then(|mut c| c.roundtrip(first, (), REPLY_TIMEOUT));
        connect_us.push(t.elapsed().as_secs_f64() * 1e6);
        checks.op(reply.as_ref().is_ok_and(|r| r.error.is_none()), || {
            format!("connect + first GET: {reply:?}")
        });
    }
    m.set_n(
        "reactor.connect_to_first_reply_p50_us",
        stats::median(&connect_us),
        ROUNDS,
    );

    let mut stats_us = Vec::new();
    if let Ok(mut conn) = Wire::connect(live.addr()) {
        for _ in 0..ROUNDS {
            let t = Instant::now();
            let reply = conn.roundtrip(b"STATS\n", (), REPLY_TIMEOUT);
            stats_us.push(t.elapsed().as_secs_f64() * 1e6);
            checks.op(reply.as_ref().is_ok_and(|r| r.stats > 0), || {
                format!("STATS: {reply:?}")
            });
        }
    }
    m.set_n(
        "reactor.stats_roundtrip_us",
        stats::median(&stats_us),
        stats_us.len(),
    );
    let snapshot = live.handle().stats();
    m.set("reactor.refused", snapshot.refused_connections as f64);
    m.set("reactor.shed", snapshot.shed_speculation as f64);
}

// ---------------------------------------------------------------------
// serve-paced
// ---------------------------------------------------------------------

/// Offered rate of the open loop, requests per second.
const PACED_RATE: f64 = 500.0;
/// Pipelining depth of a burst, per connection.
const BURST_DEPTH: usize = 16;
/// Share of the run spent on paced windows; bursts get the rest.
const PACED_SHARE: f64 = 0.7;

/// The request list, with everything a reply is checked against.
struct PacedPlan {
    lines: Vec<Vec<u8>>,
    expected: Vec<Reply>,
    burst_requests: usize,
}

#[derive(Debug, Default)]
struct Window {
    latencies_us: Vec<f64>,
    /// First due instant to last completion.
    elapsed_s: f64,
    lags_us: Vec<f64>,
    /// Replies by request index, for the digest.
    replies: Vec<String>,
}

/// The load generator's two persistent connections; a request is
/// tagged with its index in the list and the instant it was due.
type Conns = [Wire<(usize, Instant)>; 2];

/// One pass over the request list, open loop, Poisson arrivals at
/// [`PACED_RATE`]: request `i` goes out on connection `i % 2` when it
/// is due, whatever is still outstanding, and its latency runs from
/// the due instant.
fn paced_window(
    plan: &PacedPlan,
    arrival_seed: u64,
    conns: &mut Conns,
    tracer: &Tracer,
    checks: &mut Checks,
) -> std::io::Result<Window> {
    let n = plan.lines.len();
    let mut w = Window {
        replies: vec![String::new(); n],
        ..Window::default()
    };
    let op = tracer.next_op();
    let start = Instant::now();
    let mut pacer = Pacer::new(start, pacer::poisson_offsets(n, PACED_RATE, arrival_seed));
    let mut completed = 0usize;
    let mut last_done = start;
    while completed < n {
        let now = Instant::now();
        while let Some((i, due)) = pacer.release(now) {
            conns[i % 2].send(&plan.lines[i], (i, due))?;
        }
        let mut arrived = false;
        for conn in conns.iter_mut() {
            arrived |= conn.poll(|(i, due), reply| {
                let end = Instant::now();
                tracer.record("serve.reactor", due, end, op);
                w.latencies_us
                    .push(end.duration_since(due).as_secs_f64() * 1e6);
                checks.op(reply == plan.expected[i], || {
                    format!(
                        "GET #{i}: got {reply:?}, decide says {:?}",
                        plan.expected[i]
                    )
                });
                w.replies[i] = reply_line(&reply);
                completed += 1;
                last_done = end;
            })?;
        }
        if arrived {
            continue;
        }
        let outstanding: usize = conns.iter().map(Wire::outstanding).sum();
        if let (0, Some(due)) = (outstanding, pacer.next_due()) {
            // Idle until the next request is due: sleep through most of
            // the gap, spin the rest so the send is not late.
            let idle = tracer.span("loadgen.idle");
            let gap = due.saturating_duration_since(Instant::now());
            if gap > Duration::from_micros(300) {
                std::thread::sleep(gap - Duration::from_micros(200));
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            drop(idle);
        } else if last_done.max(start).elapsed() > REPLY_TIMEOUT {
            return Err(std::io::ErrorKind::TimedOut.into());
        } else {
            std::thread::yield_now();
        }
    }
    w.elapsed_s = last_done.duration_since(start).as_secs_f64();
    w.lags_us = pacer.lags_us().to_vec();
    Ok(w)
}

/// `burst_requests` requests, closed loop: [`BURST_DEPTH`] pipelined
/// per connection, a new one sent for each reply. Returns the seconds
/// from the first send to the last reply.
fn burst(plan: &PacedPlan, conns: &mut Conns, checks: &mut Checks) -> std::io::Result<f64> {
    let n = plan.lines.len();
    let start = Instant::now();
    let (mut sent, mut completed) = (0usize, 0usize);
    let mut last_done = start;
    while completed < plan.burst_requests {
        for conn in conns.iter_mut() {
            while conn.outstanding() < BURST_DEPTH && sent < plan.burst_requests {
                conn.send(&plan.lines[sent % n], (sent % n, start))?;
                sent += 1;
            }
        }
        let mut arrived = false;
        for conn in conns.iter_mut() {
            arrived |= conn.poll(|(i, _), reply| {
                checks.op(reply == plan.expected[i], || {
                    format!("burst GET #{i}: got {reply:?}")
                });
                completed += 1;
            })?;
        }
        if arrived {
            last_done = Instant::now();
        } else if last_done.elapsed() > REPLY_TIMEOUT {
            return Err(std::io::ErrorKind::TimedOut.into());
        } else {
            std::thread::yield_now();
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// What the timed part of `serve-paced` measured.
#[derive(Debug, Default)]
struct PacedRun {
    windows: Vec<Window>,
    /// Which windows ran with recording on (every second one of a
    /// traced run, as in [`harness::repeat_body`]).
    traced: Vec<bool>,
    burst_s: Vec<f64>,
}

/// A warm-up window, then as many paced windows as fill [`PACED_SHARE`]
/// of the run (a window lasts as long as its arrival schedule, whatever
/// the server does) and as many bursts as filled the rest of it on the
/// box the benchmark was defined on, all on the same two connections.
/// Each window is followed by its share of the bursts, so that the
/// windows lie across the whole run: interference episodes last about
/// as long as a run, and the fastest window should fall outside one.
fn measure_paced(
    plan: &PacedPlan,
    w: &ServeWorkload,
    addr: SocketAddr,
    params: &Params,
    tracer: &Tracer,
    checks: &mut Checks,
) -> std::io::Result<PacedRun> {
    let mut run = PacedRun::default();
    let mut conns = [Wire::connect(addr)?, Wire::connect(addr)?];
    // Warm-up: one untimed pass fills socket buffers, page tables and
    // the reactor's connection table.
    tracer.set_recording(false);
    paced_window(
        plan,
        w.arrival_seed,
        &mut conns,
        tracer,
        &mut Checks::default(),
    )?;

    let window_s = plan.lines.len() as f64 / PACED_RATE;
    let n_windows = harness::reps(params.seconds * PACED_SHARE, window_s);
    let burst_seconds = params.seconds * (1.0 - PACED_SHARE);
    let n_bursts = harness::reps(burst_seconds, w.nominal_burst_s);
    for i in 0..n_windows {
        let record = params.trace && i.is_multiple_of(2);
        tracer.set_recording(record);
        let body = tracer.span("body");
        // Every window draws its own arrivals from the seed.
        let arrivals = w.arrival_seed ^ (i as u64 + 1) << 32;
        run.windows
            .push(paced_window(plan, arrivals, &mut conns, tracer, checks)?);
        drop(body);
        run.traced.push(record);

        tracer.set_recording(params.trace);
        while run.burst_s.len() < (i + 1) * n_bursts / n_windows {
            let (secs, _) = tracer.time("serve.reactor", || burst(plan, &mut conns, checks));
            run.burst_s.push(secs?);
        }
    }
    Ok(run)
}

/// Means of blocks of 50 consecutive waits.
fn block_means(waits_us: &[f64]) -> Vec<f64> {
    waits_us.chunks(50).map(mean).collect()
}

pub fn run_paced(w: &ServeWorkload, params: &Params) -> Outcome {
    let tracer = Tracer::new(params.trace);
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let (live, set_up) = SetUp::start(params, || Live::start(w));

    let docs: Vec<DocId> = live
        .trace
        .accesses
        .iter()
        .skip(w.first_request)
        .take(w.paced_requests)
        .map(|a| a.doc)
        .collect();
    let plan = PacedPlan {
        lines: docs
            .iter()
            .map(|d| format!("GET {}\n", d.raw()).into_bytes())
            .collect(),
        expected: docs.iter().map(|&d| live.expected(d, |_| false)).collect(),
        burst_requests: w.burst_requests,
    };

    let run = match measure_paced(&plan, w, live.addr(), params, &tracer, &mut checks) {
        Ok(run) => run,
        Err(e) => {
            checks.op(false, || format!("load generator: {e}"));
            return Outcome {
                metrics: m,
                checks,
                digest: String::new(),
                tracer,
            };
        }
    };
    let PacedRun {
        windows,
        traced,
        burst_s,
    } = &run;

    let digests: Vec<String> = windows
        .iter()
        .map(|w| harness::digest_of(&w.replies))
        .collect();
    let digest = checks.one_digest(&digests);

    // A window's mean wait is the median of the means of its blocks of
    // 50 consecutive requests, and the run reports its fastest window.
    // This box stalls a handful of requests a second for 2–40 ms (the
    // guest is descheduled), which moves the plain mean of a window
    // between 295 and 860 µs inside one run; a stall spoils the block
    // it falls into and no other, an episode the windows it covers.
    let window_wait: Vec<f64> = windows
        .iter()
        .map(|w| stats::median(&block_means(&w.latencies_us)))
        .collect();
    let all_us: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.latencies_us.iter().copied())
        .collect();
    // Bytes are accounted on forty times the request list: what a reply
    // announces is `decide` offline, which every live reply is checked
    // against, and 500 requests move the ratio by a tenth between seeds.
    let accounted = live
        .trace
        .accesses
        .iter()
        .skip(w.first_request)
        .take(40 * w.paced_requests);
    let (mut demand, mut announced) = (0u64, 0u64);
    for a in accounted {
        let reply = live.expected(a.doc, |_| false);
        demand += reply.doc.map_or(0, |(_, size)| size);
        announced += reply.announced_bytes();
    }
    let n = plan.lines.len() as f64;
    let rates: Vec<f64> = windows.iter().map(|w| n / w.elapsed_s).collect();
    m.set_n("sweep_s", stats::fastest(burst_s), burst_s.len());
    m.set_n(
        "access_wait_mean_us",
        stats::fastest(&window_wait),
        all_us.len(),
    );
    // No client cache: every access is a wire request.
    m.set("server_load_ratio", 1.0);
    m.set("bandwidth_ratio", announced as f64 / demand as f64);
    m.set_n("fetches_per_s", stats::highest(&rates), windows.len());
    m.set_n(
        "fetch_p50_us",
        stats::quantile_of(&all_us, 0.5),
        all_us.len(),
    );
    m.set_n(
        "fetch_p90_us",
        stats::quantile_of(&all_us, 0.9),
        all_us.len(),
    );

    if params.trace {
        if let Some(p) = stats::highest_percentile(all_us.len()) {
            // Named p99; with fewer than 1 000 samples it is the highest
            // percentile that has ten samples beyond it.
            let p99 = stats::quantile_of(&all_us, p.min(0.99));
            m.set_n("reactor.fetch_p99_us", p99, all_us.len());
        }
        m.set(
            "reactor.burst_req_per_s",
            w.burst_requests as f64 / stats::fastest(burst_s),
        );
        let lags: Vec<f64> = windows
            .iter()
            .flat_map(|w| w.lags_us.iter().copied())
            .collect();
        m.set_n(
            "loadgen.lag_p99_us",
            stats::quantile_of(&lags, 0.99),
            lags.len(),
        );
        reactor_probes(&live, &plan.lines[0], &tracer, &mut checks, &mut m);
        layers::serve_cpu_probe(&docs, &live.offline, &tracer, &mut m);
        harness::report_tracing(&tracer, &window_wait, traced, &mut m);
    }
    m.set("peak_rss_mb", harness::peak_rss_mb());
    drop(live);
    set_up.finish(&mut m, || Live::start(w));

    Outcome {
        metrics: m,
        checks,
        digest,
        tracer,
    }
}

// ---------------------------------------------------------------------
// serve-sessions
// ---------------------------------------------------------------------

/// The harness's copy of what a `SpecClient` holds, so it knows the
/// `HAVE` digest the client is about to send.
#[derive(Debug, Default)]
struct CacheMirror(BTreeSet<DocId>);

impl CacheMirror {
    fn holds(&self, doc: DocId) -> bool {
        self.0.contains(&doc)
    }

    /// The digest `SpecClient` piggybacks: its cache in id order, up to
    /// the protocol's cap.
    fn digest(&self) -> Vec<DocId> {
        let cap = ClientConfig::default().limits.max_have_ids;
        self.0.iter().take(cap).copied().collect()
    }

    fn admit(&mut self, reply: &Reply) {
        self.0.extend(reply.doc.iter().map(|&(d, _)| d));
        self.0.extend(reply.pushed.iter().map(|&(d, _)| d));
    }
}

/// Exact accounting of a session list under the protocol, against a
/// demand-only client with the same per-session cache (which fetches
/// each distinct document of a session once).
#[derive(Debug, Default)]
struct Account {
    accesses: u64,
    wire: u64,
    announced_bytes: u64,
    demand_requests: u64,
    demand_bytes: u64,
}

impl Live {
    /// Replays `sessions` against `decide` offline, the client cache
    /// mirrored: which accesses reach the wire and what each reply
    /// announces. The timed pass checks every live reply against the
    /// same function, so this is the live server's accounting on more
    /// sessions than a run has time to fetch.
    fn account(&self, sessions: &[Vec<DocId>]) -> Account {
        let mut a = Account::default();
        for docs in sessions {
            let mut cache = CacheMirror::default();
            let mut seen = BTreeSet::new();
            for &doc in docs {
                a.accesses += 1;
                if seen.insert(doc) {
                    a.demand_requests += 1;
                    a.demand_bytes += self.offline.catalog.size(doc).get();
                }
                if !cache.holds(doc) {
                    let have = cache.digest();
                    let reply = self.expected(doc, |j| have.binary_search(&j).is_ok());
                    a.wire += 1;
                    a.announced_bytes += reply.announced_bytes();
                    cache.admit(&reply);
                }
            }
        }
        a
    }
}

/// What one pass over the session list measured.
#[derive(Debug, Default)]
struct Pass {
    fetches: u64,
    wire_us: Vec<f64>,
    hit_us: Vec<f64>,
    /// The request line of every wire fetch, per session.
    requests: Vec<Vec<String>>,
    replies: Vec<String>,
}

/// One pass, closed loop, one session at a time: a new `SpecClient`
/// per session fetches the session's accesses and quits. The pass ends
/// with the `wire_fetches`-th fetch that reaches the wire, so it is the
/// same amount of work for every seed, however the hit ratio of the
/// first few sessions falls.
fn session_pass(
    live: &Live,
    sessions: &[Vec<DocId>],
    wire_fetches: usize,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Pass {
    let mut pass = Pass::default();
    for docs in sessions {
        if pass.wire_us.len() >= wire_fetches {
            break;
        }
        let op = tracer.next_op();
        let (client, _) = tracer.time("serve.client", || {
            SpecClient::new(live.addr(), ClientConfig::default())
        });
        let Ok(mut client) = client else {
            checks.op(false, || "SpecClient::new refused its configuration".into());
            continue;
        };
        let mut cache = CacheMirror::default();
        let mut lines = Vec::new();
        for &doc in docs {
            if pass.wire_us.len() >= wire_fetches {
                break;
            }
            let hit = cache.holds(doc);
            let have = if hit { Vec::new() } else { cache.digest() };
            let start = Instant::now();
            let got = client.fetch(doc);
            let end = Instant::now();
            tracer.record("serve.client", start, end, op);
            let waited_us = end.duration_since(start).as_secs_f64() * 1e6;
            pass.fetches += 1;
            let ok = match &got {
                Ok(r) if hit => {
                    pass.hit_us.push(waited_us);
                    r.from_cache
                }
                Ok(r) => {
                    let want = live.expected(doc, |j| have.binary_search(&j).is_ok());
                    let pushed: Vec<DocId> = want.pushed.iter().map(|&(j, _)| j).collect();
                    pass.wire_us.push(waited_us);
                    lines.push(format!(
                        "{}\n",
                        Request::Get {
                            doc,
                            have: have.clone()
                        }
                    ));
                    cache.admit(&want);
                    !r.from_cache && Some((doc, r.size)) == want.doc && r.pushed == pushed
                }
                Err(_) => false,
            };
            checks.op(ok, || {
                format!("fetch {doc} holding {} docs: {got:?}", have.len())
            });
            pass.replies.push(format!("{got:?}"));
        }
        let (quit, _) = tracer.time("serve.client", || client.quit());
        checks.op(quit.is_ok(), || format!("quit: {quit:?}"));
        pass.requests.push(lines);
    }
    pass
}

/// The wire fetches of one pass again, same request lines, over a raw
/// socket with one `write` per request. Returns their latencies.
fn raw_replay(live: &Live, pass: &Pass, tracer: &Tracer, checks: &mut Checks) -> Vec<f64> {
    let mut us = Vec::new();
    for lines in &pass.requests {
        let Ok(mut conn) = Wire::connect(live.addr()) else {
            checks.op(false, || "raw replay: connect".into());
            continue;
        };
        for line in lines {
            let (reply, secs) = tracer.time("serve.reactor", || {
                conn.roundtrip(line.as_bytes(), (), REPLY_TIMEOUT)
            });
            checks.op(reply.as_ref().is_ok_and(|r| r.error.is_none()), || {
                format!("raw replay of {line:?}: {reply:?}")
            });
            us.push(secs * 1e6);
        }
    }
    us
}

/// The workload's consecutive trace sessions, each as the documents it
/// fetched, in order.
fn pick_sessions(trace: &Trace, w: &ServeWorkload) -> Vec<Vec<DocId>> {
    let first = w.first_session;
    let mut by_session: BTreeMap<u64, Vec<DocId>> = BTreeMap::new();
    for a in &trace.accesses {
        if (first..first + w.sessions as u64).contains(&a.session) {
            by_session.entry(a.session).or_default().push(a.doc);
        }
    }
    by_session.into_values().collect()
}

pub fn run_sessions(w: &ServeWorkload, params: &Params) -> Outcome {
    let tracer = Tracer::new(params.trace);
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let (live, set_up) = SetUp::start(params, || Live::start(w));
    let sessions = pick_sessions(&live.trace, w);
    let account = live.account(&sessions);

    // Warm-up: a few untimed fetches.
    tracer.set_recording(false);
    session_pass(&live, &sessions, 4, &tracer, &mut Checks::default());

    let mut passes: Vec<Pass> = Vec::new();
    let n = harness::reps(params.seconds, w.nominal_pass_s);
    let (times, traced) = harness::repeat_body(params, n, &tracer, |tracer| {
        passes.push(session_pass(
            &live,
            &sessions,
            w.wire_fetches,
            tracer,
            &mut checks,
        ));
    });

    let digests: Vec<String> = passes
        .iter()
        .map(|p| harness::digest_of(&p.replies))
        .collect();
    let digest = checks.one_digest(&digests);

    // The wait of an access is measured per kind on the timed sessions;
    // how many accesses are of each kind is counted on the whole list.
    // A timed pass holds some 130 fetches, and the share of them that
    // hit the cache moves by a tenth from seed to seed.
    let per_pass = |f: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let wire_wait_us = stats::fastest(&per_pass(|p| mean(&p.wire_us)));
    let hit_wait_us = stats::fastest(&per_pass(|p| mean(&p.hit_us)));
    let hits = account.accesses - account.wire;
    let wire_us: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.wire_us.iter().copied())
        .collect();
    let sweep_s = stats::fastest(&times);
    m.set_n("sweep_s", sweep_s, times.len());
    m.set_n(
        "access_wait_mean_us",
        (account.wire as f64 * wire_wait_us + hits as f64 * hit_wait_us) / account.accesses as f64,
        wire_us.len(),
    );
    m.set(
        "server_load_ratio",
        account.wire as f64 / account.demand_requests as f64,
    );
    m.set(
        "bandwidth_ratio",
        account.announced_bytes as f64 / account.demand_bytes as f64,
    );
    m.set("fetches_per_s", passes[0].fetches as f64 / sweep_s);
    m.set_n(
        "fetch_p50_us",
        stats::quantile_of(&wire_us, 0.5),
        wire_us.len(),
    );
    m.set_n(
        "fetch_p90_us",
        stats::quantile_of(&wire_us, 0.9),
        wire_us.len(),
    );

    if params.trace {
        let wire_p50 = stats::quantile_of(&wire_us, 0.5);
        let raw_us = raw_replay(&live, &passes[0], &tracer, &mut checks);
        let raw_p50 = stats::median(&raw_us);
        m.set_n("client.wire_fetch_p50_us", wire_p50, wire_us.len());
        m.set_n("client.raw_fetch_p50_us", raw_p50, raw_us.len());
        m.set("client.overhead_us", wire_p50 - raw_p50);
        m.set(
            "client.cache_hit_ratio",
            hits as f64 / account.accesses as f64,
        );
        let counter = |name: &str| {
            obs::global()
                .metrics
                .counter_on(name, Channel::WallClock)
                .get() as f64
        };
        m.set("client.retries", counter("serve.client_retries"));
        m.set("client.backoff_ms", counter("serve.client_backoff_ms"));
        let first_line = passes[0]
            .requests
            .iter()
            .flatten()
            .next()
            .cloned()
            .unwrap_or_default();
        reactor_probes(&live, first_line.as_bytes(), &tracer, &mut checks, &mut m);
        let docs: Vec<DocId> = sessions.iter().flatten().copied().take(2_000).collect();
        layers::serve_cpu_probe(&docs, &live.offline, &tracer, &mut m);
        harness::report_tracing(&tracer, &times, &traced, &mut m);
    }
    m.set("peak_rss_mb", harness::peak_rss_mb());
    drop(live);
    set_up.finish(&mut m, || Live::start(w));

    Outcome {
        metrics: m,
        checks,
        digest,
        tracer,
    }
}
