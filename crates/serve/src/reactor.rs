//! The readiness-based event loop — one thread, every connection.
//!
//! A std-only reactor: the listener and every connection socket are
//! nonblocking, and a single thread sweeps them, treating `WouldBlock`
//! as "not ready". A sweep that makes no progress is followed by more
//! sweeps, the thread yielding in between, until [`IDLE_SPIN`] has
//! passed since the last progress; only then does the thread park, for
//! [`IDLE_PARK`] at a time. A closed-loop client's next request (about
//! 15 µs after its reply on loopback) and the next batch of a
//! pipelined burst so meet a sweeping reactor, not a timer, while an
//! idle server still costs one sweep per park. Real readiness
//! notification (`poll`/`epoll`) is a syscall this std-only,
//! `forbid(unsafe_code)` build cannot make, so a request that arrives
//! later than `IDLE_SPIN` after the last one — most of an open loop at
//! a few hundred requests a second — still waits out the rest of a
//! park.
//!
//! A reply leaves in the sweep that read its request: each connection
//! is flushed (what an earlier sweep could not write), read, and
//! flushed again, so a `QUIT` also closes in the sweep that read it.
//!
//! Per-connection work is delegated to the pure [`ConnCore`] state
//! machine; this file owns everything impure — sockets, wall-clock
//! deadlines, overload admission, stats mirroring, and (when
//! recording) the session trace. That split is deliberate: the reactor
//! reads `Instant::now` freely and is **not** a registered
//! deterministic root, while `ConnCore` and the replay driver are
//! (DESIGN §9) and must stay clock- and randomness-free.
//!
//! Compared to a thread-per-connection server the resource model
//! flips: a slow, stalled or malicious peer would pin one OS thread for
//! up to a read-timeout; here it holds a few kilobytes of buffer and
//! one file descriptor, and backpressure is
//! explicit — a connection whose output buffer is over
//! [`out_buffer_cap`](crate::server::ServerConfig::out_buffer_cap) is
//! simply not read from until it drains.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use specweb_core::log;

use crate::conn::{ConnCore, ConnCounters};
use crate::overload::{ConnectionGuard, OverloadController};
use crate::server::{stats_entries, ServerConfig, ServerKnowledge, ServerStats, TraceSlot};
use crate::session::SessionRecorder;
use crate::shutdown::ShutdownToken;

/// How long the reactor keeps sweeping (yielding between sweeps) after
/// the last sweep that made progress: 13× the 15 µs a closed-loop
/// client on loopback takes to send its next request, and at most 10 %
/// of a core at 500 progress events a second.
const IDLE_SPIN: Duration = Duration::from_micros(200);

/// How long the reactor parks at a time once [`IDLE_SPIN`] has passed
/// without progress.
const IDLE_PARK: Duration = Duration::from_micros(500);

/// Read-buffer size per sweep step.
const READ_CHUNK: usize = 16 * 1024;

pub(crate) struct Reactor {
    pub(crate) listener: TcpListener,
    pub(crate) knowledge: Arc<ServerKnowledge>,
    pub(crate) config: ServerConfig,
    pub(crate) token: ShutdownToken,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) ctl: Arc<OverloadController>,
    pub(crate) recorder: Option<SessionRecorder>,
    pub(crate) trace_slot: Option<TraceSlot>,
}

/// An admitted connection under reactor management.
struct Live {
    stream: TcpStream,
    core: ConnCore,
    _guard: ConnectionGuard,
    /// When the connection was admitted — start of its lifetime.
    admitted_at: Instant,
    /// Last instant a byte moved in either direction.
    last_progress: Instant,
    /// Counters already mirrored into [`ServerStats`].
    mirrored: ConnCounters,
    /// Peer reached end of input.
    eof: bool,
}

/// A connection waiting in the admission queue.
struct Pending {
    stream: TcpStream,
    deadline: Instant,
}

impl Reactor {
    pub(crate) fn run(self) {
        let Reactor {
            listener,
            knowledge,
            config,
            token,
            stats,
            ctl,
            mut recorder,
            trace_slot,
        } = self;

        let mut conns: BTreeMap<u64, Live> = BTreeMap::new();
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let mut next_id: u64 = 0;
        let mut buf = vec![0u8; READ_CHUNK];
        // When a sweep last made progress: what the idle spin runs from.
        let mut busy_at = Instant::now();

        while !token.is_triggered() {
            let mut progress = false;

            // Phase 1: drain the accept queue into the admission queue.
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        pending.push_back(Pending {
                            stream,
                            deadline: Instant::now() + config.admit_timeout,
                        });
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }

            // Phase 2: admission with backpressure — FIFO, waiting up
            // to admit_timeout for a slot, then refusing with BUSY
            // (the last rung of the degradation ladder).
            while let Some(front) = pending.front() {
                if let Some(guard) = ctl.try_admit() {
                    let Some(p) = pending.pop_front() else { break };
                    let id = next_id;
                    next_id += 1;
                    ServerStats::bump(&stats.connections);
                    log!(Debug, "serve", "accept conn={id} active={}", ctl.active());
                    if let Some(rec) = recorder.as_mut() {
                        rec.on_accept(id);
                    }
                    conns.insert(
                        id,
                        Live {
                            stream: p.stream,
                            core: ConnCore::new(id, config.limits),
                            _guard: guard,
                            admitted_at: Instant::now(),
                            last_progress: Instant::now(),
                            mirrored: ConnCounters::default(),
                            eof: false,
                        },
                    );
                    progress = true;
                } else if Instant::now() >= front.deadline {
                    let Some(mut p) = pending.pop_front() else {
                        break;
                    };
                    ServerStats::bump(&stats.refused_connections);
                    if let Some(rec) = recorder.as_mut() {
                        rec.on_refused();
                    }
                    // Best effort; the peer may already be gone, and a
                    // nonblocking short write is as much as a refusal
                    // deserves.
                    let busy = format!(
                        "BUSY {}/{} connections\n",
                        ctl.active(),
                        ctl.policy().max_connections
                    );
                    log!(Debug, "serve", "refuse {}", busy.trim_end());
                    let _ = p.stream.write(busy.as_bytes());
                    progress = true;
                } else {
                    break;
                }
            }

            // Phase 3: sweep every live connection — flush what an
            // earlier sweep could not write, read input unless
            // backpressured, and flush what the input produced.
            let now = Instant::now();
            let live_count = conns.len() as u64;
            let mut closed: Vec<u64> = Vec::new();
            for (&id, live) in conns.iter_mut() {
                let mut dead = flush(live, now, &mut progress);

                // Read, unless the session ended or the output buffer
                // exceeds the backpressure cap.
                if !dead
                    && !live.eof
                    && !live.core.draining()
                    && live.core.buffered() < config.out_buffer_cap
                {
                    match live.stream.read(&mut buf) {
                        Ok(0) => {
                            live.eof = true;
                            live.last_progress = now;
                            progress = true;
                            if let Some(rec) = recorder.as_mut() {
                                rec.on_eof(id);
                            }
                            live.core.on_eof();
                            mirror(&stats, live);
                        }
                        Ok(n) => {
                            live.last_progress = now;
                            progress = true;
                            let level = ctl.level();
                            if let Some(rec) = recorder.as_mut() {
                                rec.on_level(level);
                                rec.on_data(id, &buf[..n]);
                            }
                            live.core.on_bytes(&buf[..n], level, &knowledge);
                            // Answer any STATS requests in this
                            // fragment with a fresh snapshot. The
                            // entries are wall-clock state, so a
                            // recording captures them as replay inputs
                            // alongside the service level.
                            let pending = live.core.take_stats_requests();
                            if pending > 0 {
                                let entries = stats_entries(&stats, &ctl, live_count);
                                for _ in 0..pending {
                                    ServerStats::bump(&stats.stats_requests);
                                    if let Some(rec) = recorder.as_mut() {
                                        rec.on_stats(id, &entries);
                                    }
                                    live.core.push_stats_reply(&entries);
                                }
                            }
                            mirror(&stats, live);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => dead = true,
                    }
                    dead = dead || flush(live, now, &mut progress);
                }

                let idle = now.duration_since(live.last_progress) > config.read_timeout;
                if dead || live.core.done() || (live.eof && live.core.buffered() == 0) || idle {
                    closed.push(id);
                }
            }
            for id in closed {
                if let Some(live) = conns.remove(&id) {
                    close_conn(&stats, &mut recorder, live);
                    progress = true;
                }
            }

            if progress {
                busy_at = now;
            } else if now.duration_since(busy_at) < IDLE_SPIN {
                thread::yield_now();
            } else {
                ServerStats::bump(&stats.idle_parks);
                thread::park_timeout(IDLE_PARK);
            }
        }

        // Shutdown drain: flush buffered responses, bounded by
        // write_timeout, then close everything and finish the trace.
        let deadline = Instant::now() + config.write_timeout;
        while Instant::now() < deadline && conns.values().any(|l| l.core.buffered() > 0) {
            let (now, mut moved) = (Instant::now(), false);
            for live in conns.values_mut() {
                flush(live, now, &mut moved);
            }
            if !moved {
                thread::park_timeout(Duration::from_millis(1));
            }
        }
        for (_, live) in std::mem::take(&mut conns) {
            close_conn(&stats, &mut recorder, live);
        }
        if let Some(rec) = recorder {
            let trace = rec.finish();
            if let Some(slot) = trace_slot {
                if let Ok(mut guard) = slot.lock() {
                    *guard = Some(trace);
                }
            }
        }
    }
}

/// Writes buffered output until the socket takes no more, noting any
/// byte moved in `progress`. Partial writes are normal, and `WouldBlock`
/// means the peer is slow: we stop pushing until the next call. Returns
/// whether the connection is dead.
fn flush(live: &mut Live, now: Instant, progress: &mut bool) -> bool {
    while live.core.buffered() > 0 {
        match live.stream.write(live.core.output()) {
            Ok(0) => return true,
            Ok(n) => {
                live.core.consume_output(n);
                live.last_progress = now;
                *progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    false
}

/// Mirrors the delta since the last mirror into the shared stats.
fn mirror(stats: &ServerStats, live: &mut Live) {
    let cur = live.core.counters();
    let prev = live.mirrored;
    ServerStats::bump_by(&stats.requests, cur.requests - prev.requests);
    ServerStats::bump_by(&stats.pushes, cur.pushes - prev.pushes);
    ServerStats::bump_by(&stats.shed_speculation, cur.shed - prev.shed);
    ServerStats::bump_by(
        &stats.protocol_errors,
        cur.protocol_errors - prev.protocol_errors,
    );
    if cur.shed > prev.shed {
        log!(
            Debug,
            "serve",
            "shed: demand-only on conn {}",
            live.core.id()
        );
    }
    live.mirrored = cur;
}

fn close_conn(stats: &ServerStats, recorder: &mut Option<SessionRecorder>, mut live: Live) {
    mirror(stats, &mut live);
    stats.record_lifetime(live.admitted_at.elapsed().as_millis() as u64);
    if let Some(rec) = recorder.as_mut() {
        rec.on_close(&live.core);
    }
    log!(
        Debug,
        "serve",
        "close conn {}: {:?}",
        live.core.id(),
        live.core.counters()
    );
}
