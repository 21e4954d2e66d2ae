//! Seeded slow-client chaos harness.
//!
//! Drives many concurrent protocol clients from a **single thread** of
//! nonblocking sockets against a live server, while a seeded
//! [`FaultPlan`] degrades each client independently: `slow-client`
//! windows stretch the gap between sent chunks, `partial-write` windows
//! shrink every write to one byte, and `stall` windows freeze the
//! client entirely. Because the harness itself is an event loop, it can
//! hold hundreds of misbehaving connections open at once — exactly the
//! load shape that pins one thread per peer on a thread-per-connection
//! server but only costs buffers on the reactor.
//!
//! The schedule is deterministic given `(seed, horizon, clients)`: the
//! same windows hit the same clients at the same *simulated* offsets.
//! Wall-clock elapsed milliseconds are mapped 1:1 onto [`SimTime`], so
//! the run is reproducible in shape even though socket interleaving is
//! not — which is why chaos verdicts are counters and invariants
//! (every response well-formed, zero refusals) rather than byte
//! comparisons. Byte-level determinism is the job of
//! [`crate::session`]'s record/replay layer.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use specweb_core::ids::NodeId;
use specweb_core::obs::{self, Channel};
use specweb_core::rng::SeedTree;
use specweb_core::time::{Duration as SimDuration, SimTime};
use specweb_core::{CoreError, Result};
use specweb_netsim::fault::FaultPlan;
use specweb_netsim::topology::Topology;

/// Knobs for one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Concurrent client connections, all held open together.
    pub clients: usize,
    /// `GET` requests each client issues before `QUIT`.
    pub requests_per_client: usize,
    /// Catalog size; request ids cycle through `0..n_docs`.
    pub n_docs: usize,
    /// Master seed for the fault schedule.
    pub seed: u64,
    /// Simulated horizon the fault windows are generated over. Wall
    /// milliseconds map 1:1 onto this clock.
    pub horizon: SimDuration,
    /// Hard wall-clock budget; clients still open at the deadline are
    /// counted as timed out.
    pub deadline: Duration,
    /// Pacing unit between chunks inside a slow-client window: the gap
    /// is this delay times the window's slowdown factor.
    pub chunk_delay: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            clients: 64,
            requests_per_client: 2,
            n_docs: 16,
            seed: 7,
            horizon: SimDuration::from_millis(2_000),
            deadline: Duration::from_secs(20),
            chunk_delay: Duration::from_millis(1),
        }
    }
}

impl ChaosConfig {
    /// Checks all knobs.
    pub fn validate(&self) -> Result<()> {
        if self.clients == 0 || self.requests_per_client == 0 || self.n_docs == 0 {
            return Err(CoreError::invalid_config(
                "chaos",
                "clients, requests_per_client and n_docs must be positive",
            ));
        }
        if self.deadline.is_zero() {
            return Err(CoreError::invalid_config(
                "chaos.deadline",
                "wall-clock deadline must be positive",
            ));
        }
        Ok(())
    }
}

/// What one chaos run observed. All counts are whole clients unless
/// noted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// Clients driven.
    pub clients: usize,
    /// Clients whose sessions completed cleanly: every request answered
    /// with a well-formed `DOC…END` block, then EOF after `QUIT`.
    pub completed: usize,
    /// Clients refused with `BUSY`.
    pub refused: usize,
    /// Clients that saw a malformed or truncated response.
    pub malformed: usize,
    /// Clients still open when the wall-clock deadline expired.
    pub timed_out: usize,
    /// Total `GET` requests issued (all clients).
    pub requests_sent: u64,
    /// Total well-formed `DOC…END` responses received (all clients).
    pub responses_ok: u64,
}

impl ChaosReport {
    /// True when every client completed with full correctness: nothing
    /// refused, malformed, or timed out, and every request answered.
    pub fn clean(&self) -> bool {
        self.completed == self.clients
            && self.refused == 0
            && self.malformed == 0
            && self.timed_out == 0
            && self.responses_ok == self.requests_sent
    }
}

/// One nonblocking client connection under chaos.
struct ChaosClient {
    stream: TcpStream,
    node: NodeId,
    script: Vec<u8>,
    sent: usize,
    next_send: Instant,
    rx: Vec<u8>,
    scan_from: usize,
    requests: u64,
    ends: u64,
    in_response: bool,
    busy: bool,
    malformed: bool,
    eof: bool,
}

impl ChaosClient {
    /// Consumes newly-arrived complete lines, checking response shape:
    /// each request's block is `DOC` (or a keep-alive `ERR`), zero or
    /// more `PUSH`es, then `END`.
    fn scan_lines(&mut self) {
        while let Some(pos) = self.rx[self.scan_from..].iter().position(|&b| b == b'\n') {
            let line_end = self.scan_from + pos;
            let line = &self.rx[self.scan_from..line_end];
            self.scan_from = line_end + 1;
            let line = String::from_utf8_lossy(line);
            let word = line.split_whitespace().next().unwrap_or("");
            match word {
                "DOC" if !self.in_response => self.in_response = true,
                "PUSH" if self.in_response => {}
                "END" if self.in_response => {
                    self.in_response = false;
                    self.ends += 1;
                }
                "BUSY" => self.busy = true,
                // A keep-alive ERR replaces a whole DOC…END block.
                "ERR" if !self.in_response => self.ends += 1,
                _ => self.malformed = true,
            }
        }
        // Don't let the receive buffer grow without bound: everything
        // before scan_from has been consumed.
        if self.scan_from > 64 * 1024 {
            self.rx.drain(..self.scan_from);
            self.scan_from = 0;
        }
    }

    fn finished(&self) -> bool {
        self.eof || self.busy || self.malformed
    }
}

/// Connects `cfg.clients` sockets to `addr` and drives them all from
/// this thread until every session finishes or the deadline expires.
/// Returns the aggregate report; panics never, asserts nothing — the
/// caller decides what the numbers must look like.
pub fn run_chaos(addr: SocketAddr, cfg: &ChaosConfig) -> Result<ChaosReport> {
    cfg.validate()?;
    // One leaf per client: each gets an independent seeded schedule.
    let topo = Topology::two_level(1, cfg.clients as u32);
    let plan = FaultPlan::generate(&SeedTree::new(cfg.seed).child("chaos"), &topo, cfg.horizon)?;
    let leaves: Vec<NodeId> = topo.leaves().to_vec();

    let start = Instant::now();
    let mut clients: Vec<ChaosClient> = Vec::with_capacity(cfg.clients);
    for i in 0..cfg.clients {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        let mut script = Vec::new();
        for k in 0..cfg.requests_per_client {
            let doc = (i + k) % cfg.n_docs;
            script.extend_from_slice(format!("GET {doc}\n").as_bytes());
        }
        script.extend_from_slice(b"QUIT\n");
        clients.push(ChaosClient {
            stream,
            node: leaves[i % leaves.len()],
            script,
            sent: 0,
            next_send: start,
            rx: Vec::new(),
            scan_from: 0,
            requests: cfg.requests_per_client as u64,
            ends: 0,
            in_response: false,
            busy: false,
            malformed: false,
            eof: false,
        });
    }

    let deadline = start + cfg.deadline;
    let mut buf = [0u8; 4096];
    loop {
        let now = Instant::now();
        if now >= deadline || clients.iter().all(|c| c.finished()) {
            break;
        }
        let t = SimTime::from_millis(now.duration_since(start).as_millis() as u64);
        let mut progress = false;

        for c in clients.iter_mut() {
            if c.finished() {
                continue;
            }
            // A stalled client is frozen outright — it neither sends
            // nor drains, which is precisely the peer shape that pins a
            // handler thread on a thread-per-connection server.
            if plan.stalled_until(c.node, t).is_some() {
                continue;
            }

            if c.sent < c.script.len() && now >= c.next_send {
                let factor = plan.client_slow_factor(c.node, t);
                let chunk = if plan.partial_write_active(c.node, t) {
                    1
                } else if factor > 1.0 {
                    8
                } else {
                    c.script.len() - c.sent
                };
                let hi = (c.sent + chunk).min(c.script.len());
                match c.stream.write(&c.script[c.sent..hi]) {
                    Ok(n) => {
                        c.sent += n;
                        progress = n > 0 || progress;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.malformed = true;
                        continue;
                    }
                }
                if factor > 1.0 {
                    c.next_send = now + c.chunk_pacing(cfg.chunk_delay, factor);
                }
            }

            match c.stream.read(&mut buf) {
                Ok(0) => {
                    c.eof = true;
                    progress = true;
                    c.scan_lines();
                }
                Ok(n) => {
                    c.rx.extend_from_slice(&buf[..n]);
                    c.scan_lines();
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => c.malformed = true,
            }
        }

        if !progress {
            thread::sleep(Duration::from_micros(200));
        }
    }

    let mut report = ChaosReport {
        clients: cfg.clients,
        completed: 0,
        refused: 0,
        malformed: 0,
        timed_out: 0,
        requests_sent: 0,
        responses_ok: 0,
    };
    for c in &clients {
        report.requests_sent = report.requests_sent.saturating_add(c.requests);
        report.responses_ok += c.ends.min(c.requests);
        if c.busy {
            report.refused += 1;
        } else if c.malformed {
            report.malformed += 1;
        } else if c.eof && c.ends == c.requests {
            report.completed += 1;
        } else {
            report.timed_out += 1;
        }
    }

    let m = &obs::global().metrics;
    m.counter_on("chaos.clients", Channel::WallClock)
        .add(report.clients as u64);
    m.counter_on("chaos.completed", Channel::WallClock)
        .add(report.completed as u64);
    m.counter_on("chaos.refused", Channel::WallClock)
        .add(report.refused as u64);
    m.counter_on("chaos.malformed", Channel::WallClock)
        .add(report.malformed as u64);
    m.counter_on("chaos.timed_out", Channel::WallClock)
        .add(report.timed_out as u64);
    Ok(report)
}

impl ChaosClient {
    /// Gap until the next chunk inside a slow window.
    fn chunk_pacing(&self, unit: Duration, factor: f64) -> Duration {
        Duration::from_micros((unit.as_micros() as f64 * factor) as u64)
    }
}
