//! Deterministic session record/replay — `specweb-session/v1`.
//!
//! Recording a live serve session is inherently wall-clock work: which
//! bytes arrive in which fragments depends on sockets and scheduling.
//! The trace captures exactly those nondeterministic inputs — accepted
//! connections, request-byte fragments, service-level (shed/overload)
//! decisions, refusals — as an ordered event log, together with a
//! [`KnowledgeSpec`] describing how to rebuild the server's estimation
//! state from a seed. Everything downstream of those inputs is the pure
//! [`ConnCore`] state machine, so **replaying a given trace is
//! byte-identical**: same response bytes, same shed decisions, same
//! per-connection digests, on every run and for any `--jobs` count
//! (the closure build is worker-count invariant).
//!
//! The committed golden fixture under `crates/serve/tests/fixtures/`
//! turns this into a regression harness: any change to the protocol,
//! the speculation policy, or the state machine that alters a single
//! response byte diffs against the fixture's digests.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use specweb_core::{Bytes, CoreError, Result};
use specweb_netsim::topology::Topology;
use specweb_spec::deps::DepMatrixBuilder;
use specweb_spec::policy::Policy;
use specweb_trace::generator::{TraceConfig, TraceGenerator};

use crate::conn::{ConnCore, OutputDigest};
use crate::overload::ServiceLevel;
use crate::protocol::{ProtocolLimits, StatEntry};
use crate::server::ServerKnowledge;

/// The trace schema identifier this module reads and writes.
pub const SESSION_SCHEMA: &str = "specweb-session/v1";

/// How to rebuild [`ServerKnowledge`] deterministically from a seed —
/// the §3.2 off-line estimation step, captured as parameters instead of
/// matrices so the trace stays small and the replay proves the whole
/// estimation pipeline, not just the wire handling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnowledgeSpec {
    /// Master seed for the synthetic estimation trace.
    pub seed: u64,
    /// Trace span in days.
    pub duration_days: u64,
    /// Sessions per day across the population.
    pub sessions_per_day: u64,
    /// Speculation threshold `T_p`.
    pub tp: f64,
    /// Closure pruning floor.
    pub closure_floor: f64,
    /// Closure row cap (safety valve).
    pub closure_cap: u64,
    /// Co-access window for dependency estimation, in seconds.
    pub dep_window_secs: u64,
    /// Minimum co-access support for a dependency edge.
    pub dep_min_support: u64,
}

impl KnowledgeSpec {
    /// The spec used by the golden fixture and the demo recorder — the
    /// same shape as the E2E degradation tests.
    pub fn demo(seed: u64) -> KnowledgeSpec {
        KnowledgeSpec {
            seed,
            duration_days: 8,
            sessions_per_day: 60,
            tp: 0.25,
            closure_floor: 0.05,
            closure_cap: 64,
            dep_window_secs: 5,
            dep_min_support: 2,
        }
    }

    /// Rebuilds the server knowledge. `jobs` parallelizes the closure
    /// build; the result is bit-identical for every worker count, which
    /// is what makes `--replay --jobs N` a determinism check.
    pub fn build(&self, jobs: usize) -> Result<ServerKnowledge> {
        let topo = Topology::two_level(4, 6);
        let mut tc = TraceConfig::small(self.seed);
        tc.duration_days = self.duration_days;
        // usize::MAX on (impossible) overflow trips the generator's own
        // session-volume validation instead of panicking here.
        tc.sessions_per_day = usize::try_from(self.sessions_per_day).unwrap_or(usize::MAX);
        let trace = TraceGenerator::new(tc)?.generate(&topo)?;
        let direct = DepMatrixBuilder::estimate(
            &trace.accesses,
            specweb_core::time::Duration::from_secs(self.dep_window_secs),
            self.dep_min_support,
        );
        let closure =
            direct.closure_jobs(self.closure_floor, self.closure_cap as usize, jobs.max(1))?;
        Ok(ServerKnowledge {
            catalog: trace.catalog.clone(),
            direct,
            closure,
            policy: Policy::Threshold { tp: self.tp },
            max_size: Bytes::INFINITE,
        })
    }
}

/// One recorded input to the event loop, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionEvent {
    /// A connection was admitted and assigned an id.
    Accept {
        /// The connection id (accept order).
        conn: u64,
    },
    /// The overload ladder changed level; applies to all subsequent
    /// events until the next change. 0 = full, 1 = demand-only,
    /// 2 = refusing.
    Level {
        /// The encoded [`ServiceLevel`].
        level: u8,
    },
    /// One fragment of request bytes, exactly as the transport
    /// delivered it (hex-encoded; fragmentation is preserved so the
    /// replay exercises the same decoder paths).
    Data {
        /// The connection it arrived on.
        conn: u64,
        /// The fragment, hex-encoded.
        hex: String,
    },
    /// The peer half-closed its write side.
    Eof {
        /// The connection that reached end of input.
        conn: u64,
    },
    /// The server answered a `STATS` request with this snapshot. The
    /// entries are wall-clock server state — an *input* to the replay
    /// (like the service level), pushed verbatim so the regenerated
    /// bytes match the recording.
    Stats {
        /// The connection the reply went to.
        conn: u64,
        /// The exact `STAT` lines answered, in reply order.
        entries: Vec<StatEntry>,
    },
    /// The connection was closed (peer quit, violation, drain, or
    /// shutdown); its summary was finalized at this point.
    Close {
        /// The closed connection.
        conn: u64,
    },
    /// A connection was refused with `BUSY` at the hard cap.
    Refused,
}

/// Per-connection outcome, finalized at close.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnSummary {
    /// Connection id.
    pub conn: u64,
    /// `GET` requests served.
    pub requests: u64,
    /// Speculative pushes sent.
    pub pushes: u64,
    /// Demand-only responses (speculation shed).
    pub shed: u64,
    /// Protocol violations.
    pub protocol_errors: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Bytes emitted.
    pub bytes_out: u64,
    /// FNV-1a digest of every emitted byte, hex.
    pub digest: String,
}

/// Whole-session outcome: per-connection summaries in close order plus
/// totals and a combined digest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Connections admitted.
    pub accepted: u64,
    /// Connections refused with `BUSY`.
    pub refused: u64,
    /// Total requests served.
    pub requests: u64,
    /// Total pushes.
    pub pushes: u64,
    /// Total demand-only responses.
    pub shed: u64,
    /// Total protocol violations.
    pub protocol_errors: u64,
    /// Per-connection summaries, in close order.
    pub conns: Vec<ConnSummary>,
    /// Combined digest over the per-connection digests (in close
    /// order) and the refusal count.
    pub digest: String,
}

/// A complete `specweb-session/v1` trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTrace {
    /// Schema tag, always [`SESSION_SCHEMA`].
    pub schema: String,
    /// How to rebuild the server knowledge.
    pub knowledge: KnowledgeSpec,
    /// Wire cap: longest accepted line.
    pub max_line_bytes: u64,
    /// Wire cap: largest accepted `HAVE` digest.
    pub max_have_ids: u64,
    /// The ordered event log.
    pub events: Vec<SessionEvent>,
    /// The outcome the recording server observed; replays must
    /// reproduce it exactly.
    pub summary: SessionSummary,
}

impl SessionTrace {
    /// Parses a trace from JSON, checking the schema tag.
    pub fn from_json(text: &str) -> Result<SessionTrace> {
        let trace: SessionTrace = serde_json::from_str(text)
            .map_err(|e| CoreError::protocol(format!("bad session trace: {e}")))?;
        if trace.schema != SESSION_SCHEMA {
            return Err(CoreError::invalid_config(
                "session.schema",
                format!("expected {SESSION_SCHEMA}, got {}", trace.schema),
            ));
        }
        Ok(trace)
    }

    /// Serializes the trace as pretty JSON (the `session.json` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// The protocol limits the session ran under.
    pub fn limits(&self) -> ProtocolLimits {
        ProtocolLimits {
            max_line_bytes: self.max_line_bytes as usize,
            max_have_ids: self.max_have_ids as usize,
        }
    }
}

pub(crate) fn level_code(level: ServiceLevel) -> u8 {
    match level {
        ServiceLevel::Full => 0,
        ServiceLevel::DemandOnly => 1,
        ServiceLevel::Refusing => 2,
    }
}

fn level_from_code(code: u8) -> Result<ServiceLevel> {
    match code {
        0 => Ok(ServiceLevel::Full),
        1 => Ok(ServiceLevel::DemandOnly),
        2 => Ok(ServiceLevel::Refusing),
        other => Err(CoreError::protocol(format!(
            "bad service level code {other}"
        ))),
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(CoreError::protocol("bad hex fragment in trace"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| CoreError::protocol("bad hex fragment in trace"))
        })
        .collect()
}

fn summarize(core: &ConnCore) -> ConnSummary {
    let c = core.counters();
    ConnSummary {
        conn: core.id(),
        requests: c.requests,
        pushes: c.pushes,
        shed: c.shed,
        protocol_errors: c.protocol_errors,
        bytes_in: c.bytes_in,
        bytes_out: c.bytes_out,
        digest: core.digest_hex(),
    }
}

fn build_summary(conns: Vec<ConnSummary>, accepted: u64, refused: u64) -> SessionSummary {
    let mut digest = OutputDigest::new();
    let mut requests = 0u64;
    let mut pushes = 0u64;
    let mut shed = 0u64;
    let mut protocol_errors = 0u64;
    for c in &conns {
        digest.update(c.digest.as_bytes());
        requests = requests.saturating_add(c.requests);
        pushes = pushes.saturating_add(c.pushes);
        shed = shed.saturating_add(c.shed);
        protocol_errors = protocol_errors.saturating_add(c.protocol_errors);
    }
    digest.update(format!("refused={refused}").as_bytes());
    SessionSummary {
        accepted,
        refused,
        requests,
        pushes,
        shed,
        protocol_errors,
        conns,
        digest: digest.hex(),
    }
}

/// Accumulates a live session into a [`SessionTrace`]. Owned by the
/// reactor thread; no synchronization needed.
#[derive(Debug)]
pub struct SessionRecorder {
    spec: KnowledgeSpec,
    limits: ProtocolLimits,
    events: Vec<SessionEvent>,
    conns: Vec<ConnSummary>,
    accepted: u64,
    refused: u64,
    last_level: Option<u8>,
}

impl SessionRecorder {
    /// A recorder for a server built from `spec` with wire caps
    /// `limits`.
    pub fn new(spec: KnowledgeSpec, limits: ProtocolLimits) -> SessionRecorder {
        SessionRecorder {
            spec,
            limits,
            events: Vec::new(),
            conns: Vec::new(),
            accepted: 0,
            refused: 0,
            last_level: None,
        }
    }

    /// Records the service level in force for subsequent events,
    /// deduplicating unchanged levels.
    pub fn on_level(&mut self, level: ServiceLevel) {
        let code = level_code(level);
        if self.last_level != Some(code) {
            self.last_level = Some(code);
            self.events.push(SessionEvent::Level { level: code });
        }
    }

    /// Records an admitted connection.
    pub fn on_accept(&mut self, conn: u64) {
        self.accepted += 1;
        self.events.push(SessionEvent::Accept { conn });
    }

    /// Records one request-byte fragment exactly as it arrived.
    pub fn on_data(&mut self, conn: u64, bytes: &[u8]) {
        self.events.push(SessionEvent::Data {
            conn,
            hex: hex_encode(bytes),
        });
    }

    /// Records the peer's end of input.
    pub fn on_eof(&mut self, conn: u64) {
        self.events.push(SessionEvent::Eof { conn });
    }

    /// Records a `STATS` reply and the exact snapshot it carried.
    pub fn on_stats(&mut self, conn: u64, entries: &[StatEntry]) {
        self.events.push(SessionEvent::Stats {
            conn,
            entries: entries.to_vec(),
        });
    }

    /// Records a `BUSY` refusal.
    pub fn on_refused(&mut self) {
        self.refused += 1;
        self.events.push(SessionEvent::Refused);
    }

    /// Records a connection close and finalizes its summary.
    pub fn on_close(&mut self, core: &ConnCore) {
        self.events.push(SessionEvent::Close { conn: core.id() });
        self.conns.push(summarize(core));
    }

    /// Finishes the trace.
    pub fn finish(self) -> SessionTrace {
        SessionTrace {
            schema: SESSION_SCHEMA.to_string(),
            knowledge: self.spec,
            max_line_bytes: self.limits.max_line_bytes as u64,
            max_have_ids: self.limits.max_have_ids as u64,
            summary: build_summary(self.conns, self.accepted, self.refused),
            events: self.events,
        }
    }
}

/// What a replay produced and how it compared to the recorded summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// The summary the replayed state machines produced.
    pub summary: SessionSummary,
    /// Every way the replay diverged from the recorded summary; empty
    /// means the trace replayed byte-identically.
    pub divergences: Vec<String>,
    /// Events processed.
    pub events: u64,
}

impl ReplayOutcome {
    /// Did the replay reproduce the recording exactly?
    pub fn matches(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Serializes the outcome as pretty JSON. Deterministic: contains
    /// no wall-clock data, so two replays of one trace produce
    /// byte-identical files.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }
}

/// Re-drives the recorded event log through fresh [`ConnCore`] state
/// machines and diffs the outcome against the recorded summary.
///
/// This is a registered deterministic root (DESIGN §9): everything it
/// touches — knowledge rebuild, frame decoding, speculation decisions,
/// digests — must be free of clocks, ambient randomness and
/// hash-iteration order, so a trace replays bit-identically forever.
pub fn replay(trace: &SessionTrace, jobs: usize) -> Result<ReplayOutcome> {
    if trace.schema != SESSION_SCHEMA {
        return Err(CoreError::invalid_config(
            "session.schema",
            format!("expected {SESSION_SCHEMA}, got {}", trace.schema),
        ));
    }
    let limits = trace.limits();
    limits.validate()?;
    let knowledge = trace.knowledge.build(jobs)?;

    let mut live: BTreeMap<u64, ConnCore> = BTreeMap::new();
    let mut conns: Vec<ConnSummary> = Vec::new();
    let mut level = ServiceLevel::Full;
    let mut accepted = 0u64;
    let mut refused = 0u64;

    for event in &trace.events {
        match event {
            SessionEvent::Level { level: code } => level = level_from_code(*code)?,
            SessionEvent::Accept { conn } => {
                accepted += 1;
                live.insert(*conn, ConnCore::new(*conn, limits));
            }
            SessionEvent::Data { conn, hex } => {
                let bytes = hex_decode(hex)?;
                let core = live.get_mut(conn).ok_or_else(|| {
                    CoreError::protocol(format!("trace data for unknown conn {conn}"))
                })?;
                core.on_bytes(&bytes, level, &knowledge);
            }
            SessionEvent::Eof { conn } => {
                let core = live.get_mut(conn).ok_or_else(|| {
                    CoreError::protocol(format!("trace eof for unknown conn {conn}"))
                })?;
                core.on_eof();
            }
            SessionEvent::Stats { conn, entries } => {
                let core = live.get_mut(conn).ok_or_else(|| {
                    CoreError::protocol(format!("trace stats for unknown conn {conn}"))
                })?;
                // Consume the parsed request (keeps the pending count
                // balanced) and push the recorded snapshot verbatim.
                core.take_stats_requests();
                core.push_stats_reply(entries);
            }
            SessionEvent::Close { conn } => {
                let core = live.remove(conn).ok_or_else(|| {
                    CoreError::protocol(format!("trace close for unknown conn {conn}"))
                })?;
                conns.push(summarize(&core));
            }
            SessionEvent::Refused => refused += 1,
        }
    }
    // A well-formed trace closes every connection; tolerate truncated
    // ones by finalizing leftovers in id order.
    for (_, core) in live {
        conns.push(summarize(&core));
    }

    let summary = build_summary(conns, accepted, refused);
    let divergences = diff_summaries(&trace.summary, &summary);
    Ok(ReplayOutcome {
        summary,
        divergences,
        events: trace.events.len() as u64,
    })
}

/// Structured diff of recorded vs replayed summaries.
fn diff_summaries(recorded: &SessionSummary, replayed: &SessionSummary) -> Vec<String> {
    let mut out = Vec::new();
    let totals = [
        ("accepted", recorded.accepted, replayed.accepted),
        ("refused", recorded.refused, replayed.refused),
        ("requests", recorded.requests, replayed.requests),
        ("pushes", recorded.pushes, replayed.pushes),
        ("shed", recorded.shed, replayed.shed),
        (
            "protocol_errors",
            recorded.protocol_errors,
            replayed.protocol_errors,
        ),
    ];
    for (what, rec, rep) in totals {
        if rec != rep {
            out.push(format!("{what}: recorded {rec}, replayed {rep}"));
        }
    }
    if recorded.conns.len() != replayed.conns.len() {
        out.push(format!(
            "connection count: recorded {}, replayed {}",
            recorded.conns.len(),
            replayed.conns.len()
        ));
    }
    for (rec, rep) in recorded.conns.iter().zip(&replayed.conns) {
        if rec != rep {
            out.push(format!(
                "conn {}: recorded digest {} ({} req/{} push/{} shed), \
                 replayed digest {} ({} req/{} push/{} shed)",
                rec.conn,
                rec.digest,
                rec.requests,
                rec.pushes,
                rec.shed,
                rep.digest,
                rep.requests,
                rep.pushes,
                rep.shed,
            ));
        }
    }
    if recorded.digest != replayed.digest {
        out.push(format!(
            "session digest: recorded {}, replayed {}",
            recorded.digest, replayed.digest
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let data = [0u8, 1, 0x7f, 0xff, b'\n'];
        let h = hex_encode(&data);
        assert_eq!(h, "00017fff0a");
        assert_eq!(hex_decode(&h).unwrap(), data);
        assert!(hex_decode("0").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn level_codes_round_trip() {
        for l in [
            ServiceLevel::Full,
            ServiceLevel::DemandOnly,
            ServiceLevel::Refusing,
        ] {
            assert_eq!(level_from_code(level_code(l)).unwrap(), l);
        }
        assert!(level_from_code(9).is_err());
    }

    #[test]
    fn knowledge_spec_builds_identically_for_any_job_count() {
        let spec = KnowledgeSpec::demo(77);
        let a = spec.build(1).unwrap();
        let b = spec.build(4).unwrap();
        assert_eq!(a.closure, b.closure);
        assert_eq!(a.direct, b.direct);
        assert_eq!(a.catalog.len(), b.catalog.len());
    }

    fn demo_trace() -> SessionTrace {
        // A hand-built session: one connection GETs doc 0 under full
        // service (fragmented mid-line) and probes STATS mid-session,
        // a second is refused, a third sends garbage.
        let spec = KnowledgeSpec::demo(77);
        let limits = ProtocolLimits::default();
        let k = spec.build(1).unwrap();
        let mut rec = SessionRecorder::new(spec, limits);

        rec.on_level(ServiceLevel::Full);
        rec.on_accept(0);
        let mut c0 = ConnCore::new(0, limits);
        for frag in [&b"GE"[..], &b"T 0\n"[..], &b"STATS\n"[..]] {
            rec.on_data(0, frag);
            c0.on_bytes(frag, ServiceLevel::Full, &k);
        }
        // The reactor answers STATS with a wall-clock snapshot; the
        // recording captures the exact entries as a replay input.
        assert_eq!(c0.take_stats_requests(), 1);
        let entries = vec![
            StatEntry::new("requests", 1),
            StatEntry::new("live_connections", 1),
        ];
        rec.on_stats(0, &entries);
        c0.push_stats_reply(&entries);
        rec.on_data(0, b"QUIT\n");
        c0.on_bytes(b"QUIT\n", ServiceLevel::Full, &k);
        rec.on_refused();
        rec.on_accept(2);
        let mut c2 = ConnCore::new(2, limits);
        rec.on_data(2, b"EVIL\n");
        c2.on_bytes(b"EVIL\n", ServiceLevel::Full, &k);
        rec.on_close(&c0);
        rec.on_close(&c2);
        rec.finish()
    }

    #[test]
    fn recorded_trace_replays_byte_identically_across_jobs() {
        let trace = demo_trace();
        let a = replay(&trace, 1).unwrap();
        assert!(a.matches(), "divergences: {:?}", a.divergences);
        let b = replay(&trace, 4).unwrap();
        assert_eq!(a, b, "replay must be jobs-invariant");
        assert_eq!(a.summary.accepted, 2);
        assert_eq!(a.summary.refused, 1);
        assert_eq!(a.summary.requests, 1);
        assert_eq!(a.summary.protocol_errors, 1);
    }

    #[test]
    fn trace_round_trips_through_json() {
        let trace = demo_trace();
        let text = trace.to_json();
        let back = SessionTrace::from_json(&text).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn tampered_stats_snapshot_diverges() {
        // The STAT bytes feed the digest, so replaying a trace whose
        // recorded snapshot was altered must be caught.
        let mut trace = demo_trace();
        let tampered = trace.events.iter_mut().any(|e| {
            if let SessionEvent::Stats { entries, .. } = e {
                entries[0].value += 1;
                true
            } else {
                false
            }
        });
        assert!(tampered, "demo trace carries a stats event");
        let out = replay(&trace, 1).unwrap();
        assert!(!out.matches());
        assert!(out.divergences.iter().any(|d| d.contains("conn 0")));
    }

    #[test]
    fn tampered_trace_diverges() {
        let mut trace = demo_trace();
        trace.summary.conns[0].digest = "0000000000000000".into();
        let out = replay(&trace, 1).unwrap();
        assert!(!out.matches());
        assert!(out.divergences.iter().any(|d| d.contains("conn 0")));

        // Tampering with the combined digest is caught independently.
        let mut trace = demo_trace();
        trace.summary.digest = "0000000000000000".into();
        let out = replay(&trace, 1).unwrap();
        assert!(out.divergences.iter().any(|d| d.contains("session digest")));
    }

    #[test]
    fn bad_schema_is_rejected() {
        let mut trace = demo_trace();
        trace.schema = "specweb-session/v0".into();
        assert!(replay(&trace, 1).is_err());
        let text = trace.to_json();
        assert!(SessionTrace::from_json(&text).is_err());
    }
}
