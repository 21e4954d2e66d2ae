//! The hardened speculative-service server.
//!
//! An event-loop TCP server speaking the [`crate::protocol`] wire
//! format. The engine is a single reactor thread ([`crate::reactor`])
//! sweeping nonblocking sockets and feeding the pure per-connection
//! state machines of [`crate::conn`]; this file owns the public
//! surface: knowledge, config, stats, and the spawn/shutdown handle.
//!
//! Robustness mechanisms, grown from the §4 prototype:
//!
//! * **bounded parsing** — request lines go through the incremental
//!   [`FrameDecoder`](crate::conn::FrameDecoder), so hostile peers hit
//!   typed [`CoreError::Protocol`] errors, never unbounded buffers;
//! * **backpressure, not threads** — a slow or stalled client costs a
//!   few kilobytes of buffer, not a pinned handler thread; a connection
//!   whose output buffer is full simply stops being read;
//! * **deadlines** — a peer that makes no progress for `read_timeout`
//!   is disconnected by the reactor's sweep;
//! * **graceful degradation** — an [`OverloadController`] sheds
//!   speculation first (demand-only service, the §2.3 move) and only
//!   refuses connections at the hard cap, after holding them in an
//!   admission queue for `admit_timeout`;
//! * **graceful shutdown** — a [`ShutdownToken`] stops the reactor,
//!   which flushes buffered responses before closing;
//! * **record/replay** — [`SpecServer::spawn_recording`] captures the
//!   session into a deterministic [`SessionTrace`] that
//!   [`crate::session::replay`] re-drives byte-identically.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use specweb_core::stats::ServiceTimeDist;
use specweb_core::{log, Bytes, CoreError, Result};
use specweb_spec::deps::DepMatrix;
use specweb_spec::policy::Policy;
use specweb_trace::document::Catalog;

use crate::overload::{OverloadController, OverloadPolicy, ServiceLevel};
use crate::protocol::ProtocolLimits;
use crate::reactor::Reactor;
use crate::session::{KnowledgeSpec, SessionRecorder, SessionTrace};
use crate::shutdown::ShutdownToken;

/// Everything the server needs to answer and speculate, fixed at
/// startup — the output of the §3.2 off-line estimation step.
#[derive(Debug)]
pub struct ServerKnowledge {
    /// The document catalog (ids and sizes).
    pub catalog: Catalog,
    /// The direct dependency matrix `P`.
    pub direct: DepMatrix,
    /// Its transitive closure `P*`.
    pub closure: DepMatrix,
    /// The speculation policy.
    pub policy: Policy,
    /// `MaxSize`: documents larger than this are never pushed.
    pub max_size: Bytes,
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Wire-format caps.
    pub limits: ProtocolLimits,
    /// Degradation thresholds.
    pub overload: OverloadPolicy,
    /// Per-connection progress deadline: a peer that neither delivers
    /// nor accepts a byte for this long is disconnected.
    pub read_timeout: Duration,
    /// Bound on the shutdown flush of buffered responses.
    pub write_timeout: Duration,
    /// How long an unadmitted connection waits in the admission queue
    /// for a free slot before being refused with `BUSY`.
    pub admit_timeout: Duration,
    /// Per-connection output-buffer cap: a connection with more than
    /// this many unflushed response bytes exerts backpressure (it is
    /// not read from) instead of growing the buffer.
    pub out_buffer_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            limits: ProtocolLimits::default(),
            overload: OverloadPolicy::default(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            admit_timeout: Duration::from_secs(1),
            out_buffer_cap: 64 * 1024,
        }
    }
}

impl ServerConfig {
    /// Checks all knobs.
    pub fn validate(&self) -> Result<()> {
        self.limits.validate()?;
        self.overload.validate()?;
        if self.read_timeout.is_zero() || self.write_timeout.is_zero() {
            return Err(CoreError::invalid_config(
                "serve.timeouts",
                "read and write timeouts must be positive",
            ));
        }
        if self.out_buffer_cap < self.limits.max_line_bytes {
            return Err(CoreError::invalid_config(
                "serve.out_buffer_cap",
                "must hold at least one maximum-length line",
            ));
        }
        Ok(())
    }
}

/// Monotonic event counters, shared with the reactor thread: the
/// server's one set of counters, read by [`ServerHandle::stats`] and
/// the `STATS` verb. They depend on real sockets and scheduling, so
/// nothing deterministic may read them.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) pushes: AtomicU64,
    pub(crate) shed_speculation: AtomicU64,
    pub(crate) refused_connections: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) stats_requests: AtomicU64,
    pub(crate) idle_parks: AtomicU64,
    /// Admit→last-byte lifetime of every closed connection, in ms —
    /// wall-clock tail-latency the `STATS` verb reports live.
    conn_lifetime: Mutex<ServiceTimeDist>,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections admitted.
    pub connections: u64,
    /// `GET` requests served.
    pub requests: u64,
    /// Documents pushed speculatively.
    pub pushes: u64,
    /// Requests served demand-only because speculation was shed.
    pub shed_speculation: u64,
    /// Connections refused with `BUSY` at the hard cap.
    pub refused_connections: u64,
    /// Connections dropped for violating the protocol.
    pub protocol_errors: u64,
    /// `STATS` introspection requests answered.
    pub stats_requests: u64,
    /// Times the reactor went to sleep for want of work: about 1 700 a
    /// second on an idle server, near none under a closed loop.
    pub idle_parks: u64,
}

impl ServerStats {
    /// Counts one event.
    pub(crate) fn bump(counter: &AtomicU64) {
        Self::bump_by(counter, 1);
    }

    /// [`ServerStats::bump`], for a batch of `n` events.
    pub(crate) fn bump_by(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            pushes: self.pushes.load(Ordering::Relaxed),
            shed_speculation: self.shed_speculation.load(Ordering::Relaxed),
            refused_connections: self.refused_connections.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            stats_requests: self.stats_requests.load(Ordering::Relaxed),
            idle_parks: self.idle_parks.load(Ordering::Relaxed),
        }
    }

    /// Records the admit→last-byte lifetime of a closed connection.
    pub(crate) fn record_lifetime(&self, ms: u64) {
        if let Ok(mut dist) = self.conn_lifetime.lock() {
            dist.record(ms);
        }
    }
}

/// The metric snapshot a `STATS` request is answered with: every
/// [`ServerStats`] counter, the live-connection and service-level
/// gauges, and the admit→last-byte lifetime distribution of closed
/// connections (count + p50/p99/max ms). Key order is fixed so replies
/// are stable for a given state.
pub(crate) fn stats_entries(
    stats: &ServerStats,
    ctl: &OverloadController,
    live_connections: u64,
) -> Vec<crate::protocol::StatEntry> {
    use crate::protocol::StatEntry;
    let snap = stats.snapshot();
    let mut entries = vec![
        StatEntry::new("connections", snap.connections),
        StatEntry::new("requests", snap.requests),
        StatEntry::new("pushes", snap.pushes),
        StatEntry::new("shed_speculation", snap.shed_speculation),
        StatEntry::new("refused_connections", snap.refused_connections),
        StatEntry::new("protocol_errors", snap.protocol_errors),
        StatEntry::new("stats_requests", snap.stats_requests),
        StatEntry::new("idle_parks", snap.idle_parks),
        StatEntry::new("live_connections", live_connections),
        StatEntry::new(
            "service_level",
            u64::from(crate::session::level_code(ctl.level())),
        ),
    ];
    if let Ok(dist) = stats.conn_lifetime.lock() {
        if !dist.is_empty() {
            let q = dist.quantiles();
            entries.push(StatEntry::new("closed_connections", q.count));
            entries.push(StatEntry::new("conn_lifetime_p50_ms", q.p50_ms as u64));
            entries.push(StatEntry::new("conn_lifetime_p99_ms", q.p99_ms as u64));
            entries.push(StatEntry::new("conn_lifetime_max_ms", q.max_ms));
        }
    }
    entries
}

pub(crate) type TraceSlot = Arc<Mutex<Option<SessionTrace>>>;

/// The server. Construct with [`SpecServer::spawn`].
#[derive(Debug)]
pub struct SpecServer;

impl SpecServer {
    /// Binds an ephemeral localhost port, starts the reactor on a
    /// background thread, and returns a handle controlling it.
    pub fn spawn(knowledge: ServerKnowledge, config: ServerConfig) -> Result<ServerHandle> {
        Self::spawn_inner(knowledge, config, None)
    }

    /// Like [`SpecServer::spawn`], but records every event-loop input
    /// into a `specweb-session/v1` trace. `spec` must describe how
    /// `knowledge` was built (it is embedded in the trace so a replay
    /// can rebuild the same knowledge from the seed). Retrieve the
    /// trace with [`ServerHandle::shutdown_into_trace`].
    pub fn spawn_recording(
        knowledge: ServerKnowledge,
        config: ServerConfig,
        spec: KnowledgeSpec,
    ) -> Result<ServerHandle> {
        Self::spawn_inner(knowledge, config, Some(spec))
    }

    fn spawn_inner(
        knowledge: ServerKnowledge,
        config: ServerConfig,
        spec: Option<KnowledgeSpec>,
    ) -> Result<ServerHandle> {
        config.validate()?;
        knowledge.policy.validate()?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let token = ShutdownToken::new();
        let stats = Arc::new(ServerStats::default());
        let ctl = Arc::new(OverloadController::new(config.overload)?);
        let trace: Option<TraceSlot> = spec.as_ref().map(|_| Arc::new(Mutex::new(None)));

        let reactor = Reactor {
            listener,
            knowledge: Arc::new(knowledge),
            config,
            token: token.clone(),
            stats: Arc::clone(&stats),
            ctl: Arc::clone(&ctl),
            recorder: spec.map(|s| SessionRecorder::new(s, config.limits)),
            trace_slot: trace.clone(),
        };
        let join = thread::Builder::new()
            .name("specweb-reactor".into())
            .spawn(move || reactor.run())
            .map_err(|e| CoreError::Io(e.to_string()))?;

        Ok(ServerHandle {
            addr,
            token,
            stats,
            ctl,
            join: Some(join),
            trace,
        })
    }
}

/// Control handle for a running [`SpecServer`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    token: ShutdownToken,
    stats: Arc<ServerStats>,
    ctl: Arc<OverloadController>,
    join: Option<JoinHandle<()>>,
    trace: Option<TraceSlot>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A copy of the event counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The current service level.
    pub fn service_level(&self) -> ServiceLevel {
        self.ctl.level()
    }

    /// Graceful shutdown: stop accepting, flush buffered responses
    /// (bounded by `write_timeout`), and join the reactor.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    /// Graceful shutdown of a recording server, returning the captured
    /// session trace. Errors if the server was not spawned with
    /// [`SpecServer::spawn_recording`].
    pub fn shutdown_into_trace(mut self) -> Result<SessionTrace> {
        let slot = self.trace.clone().ok_or_else(|| {
            CoreError::invalid_config("serve.record", "server was not spawned in recording mode")
        })?;
        self.shutdown_inner()?;
        let mut guard = slot
            .lock()
            .map_err(|_| CoreError::Io("trace slot poisoned".into()))?;
        guard
            .take()
            .ok_or_else(|| CoreError::Io("reactor exited without finishing the trace".into()))
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        log!(Debug, "serve", "shutdown addr={}", self.addr);
        self.token.trigger();
        // Nudge a possibly-sleeping reactor; it polls the token every
        // sweep, so this only shortens the last sleep.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            join.join()
                .map_err(|_| CoreError::Io("server reactor thread panicked".into()))?;
        }
        Ok(())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort stop if the user never called shutdown(); the
        // reactor thread is detached rather than joined here.
        self.token.trigger();
        let _ = TcpStream::connect(self.addr);
    }
}
