//! The per-connection protocol state machine, factored pure.
//!
//! [`ConnCore`] is the deterministic heart of the event-loop server: a
//! byte-in/byte-out state machine with **no** sockets, clocks, threads
//! or randomness. The reactor feeds it whatever bytes the transport
//! produced (in whatever fragments they arrived) and drains whatever
//! bytes it generated; the record/replay layer feeds it the same
//! fragments from a trace and must observe byte-identical output.
//!
//! Two invariants make replay exact:
//!
//! * **fragmentation invariance** — the incremental line assembler
//!   produces the same lines (and the same typed errors, at the same
//!   byte offsets) no matter how the input is split into chunks, down
//!   to one byte at a time;
//! * **explicit service level** — the overload ladder's decision is an
//!   *input* to [`ConnCore::on_bytes`], not something the core reads
//!   from shared state, so a recorded shed decision replays as-is.
//!
//! Every output byte also feeds an FNV-1a digest; two sessions that
//! produced the same digest produced the same bytes.

use specweb_spec::policy::decide;

use crate::overload::ServiceLevel;
use crate::protocol::{ProtocolLimits, Request, ServerMsg, StatEntry};
use crate::server::ServerKnowledge;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit digest of the bytes a connection emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputDigest(u64);

impl OutputDigest {
    /// The digest of the empty byte string.
    pub fn new() -> OutputDigest {
        OutputDigest(FNV_OFFSET)
    }

    /// Folds more bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The digest as a fixed-width hex string.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for OutputDigest {
    fn default() -> Self {
        OutputDigest::new()
    }
}

/// Monotonic per-connection event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnCounters {
    /// `GET` requests served (well-formed, known or unknown doc).
    pub requests: u64,
    /// Documents pushed speculatively.
    pub pushes: u64,
    /// Requests answered demand-only because speculation was shed.
    pub shed: u64,
    /// Protocol violations (each ends the connection).
    pub protocol_errors: u64,
    /// Bytes received from the peer.
    pub bytes_in: u64,
    /// Bytes generated for the peer.
    pub bytes_out: u64,
}

/// Where the connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Reading requests, writing responses.
    Streaming,
    /// No more input will be consumed; close once the output drains.
    Draining,
}

/// An incremental, bounded line assembler — [`read_bounded_line`]
/// restated as a push-style state machine so a readiness loop can feed
/// it arbitrary fragments.
///
/// [`read_bounded_line`]: crate::protocol::read_bounded_line
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    max: usize,
}

/// What one decoding step produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete request line (without the `\n`).
    Line(String),
    /// The peer violated a bound; the reason mirrors the typed
    /// [`CoreError::Protocol`](specweb_core::CoreError) text.
    Violation(String),
}

impl FrameDecoder {
    /// A decoder enforcing `max_bytes` per line.
    pub fn new(max_bytes: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            max: max_bytes,
        }
    }

    /// Feeds a fragment, appending completed frames to `frames`.
    /// Returns `false` if a violation was emitted (the caller should
    /// stop feeding this connection).
    pub fn feed(&mut self, mut bytes: &[u8], frames: &mut Vec<Frame>) -> bool {
        while !bytes.is_empty() {
            match bytes.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if self.buf.len() + i > self.max {
                        frames.push(Frame::Violation(format!("line exceeds {} bytes", self.max)));
                        return false;
                    }
                    self.buf.extend_from_slice(&bytes[..i]);
                    let line = std::mem::take(&mut self.buf);
                    match String::from_utf8(line) {
                        Ok(s) => frames.push(Frame::Line(s)),
                        Err(_) => {
                            frames.push(Frame::Violation("line is not valid UTF-8".into()));
                            return false;
                        }
                    }
                    bytes = &bytes[i + 1..];
                }
                None => {
                    if self.buf.len() + bytes.len() > self.max {
                        frames.push(Frame::Violation(format!("line exceeds {} bytes", self.max)));
                        return false;
                    }
                    self.buf.extend_from_slice(bytes);
                    return true;
                }
            }
        }
        true
    }

    /// Bytes buffered toward an incomplete line.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// The deterministic per-connection state machine.
#[derive(Debug)]
pub struct ConnCore {
    id: u64,
    limits: ProtocolLimits,
    decoder: FrameDecoder,
    out: Vec<u8>,
    phase: Phase,
    counters: ConnCounters,
    digest: OutputDigest,
    /// `STATS` requests parsed but not yet answered. The reply needs
    /// server-wide state the pure core cannot see, so the impure caller
    /// (reactor, or the replay driver re-driving a recorded snapshot)
    /// takes these and answers via [`ConnCore::push_stats_reply`].
    pending_stats: u64,
}

impl ConnCore {
    /// A fresh connection state machine.
    pub fn new(id: u64, limits: ProtocolLimits) -> ConnCore {
        ConnCore {
            id,
            limits,
            decoder: FrameDecoder::new(limits.max_line_bytes),
            out: Vec::new(),
            phase: Phase::Streaming,
            counters: ConnCounters::default(),
            digest: OutputDigest::new(),
            pending_stats: 0,
        }
    }

    /// The connection's id (assigned in accept order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Consumes one fragment of peer input under the given service
    /// level, generating response bytes into the output buffer.
    pub fn on_bytes(&mut self, bytes: &[u8], level: ServiceLevel, k: &ServerKnowledge) {
        self.counters.bytes_in += bytes.len() as u64;
        if self.phase == Phase::Draining {
            // A violated or quit connection consumes nothing further.
            return;
        }
        let mut frames = Vec::new();
        self.decoder.feed(bytes, &mut frames);
        for frame in frames {
            if self.phase == Phase::Draining {
                break;
            }
            match frame {
                Frame::Line(line) => self.handle_line(&line, level, k),
                Frame::Violation(reason) => self.protocol_error(&reason),
            }
        }
    }

    /// Signals end of input from the peer. A half-received line is a
    /// protocol violation.
    pub fn on_eof(&mut self) {
        if self.phase == Phase::Streaming && self.decoder.pending() > 0 {
            self.protocol_error("connection closed mid-line");
        }
        self.phase = Phase::Draining;
    }

    fn handle_line(&mut self, line: &str, level: ServiceLevel, k: &ServerKnowledge) {
        let req = match Request::parse(line, &self.limits) {
            Ok(req) => req,
            Err(e) => {
                self.protocol_error(&e.to_string());
                return;
            }
        };
        match req {
            Request::Quit => self.phase = Phase::Draining,
            Request::Stats => self.pending_stats = self.pending_stats.saturating_add(1),
            Request::Get { doc, have } => {
                self.counters.requests += 1;
                if doc.index() >= k.catalog.len() {
                    // Well-formed but unknown: report and keep the
                    // session alive.
                    self.emit(&ServerMsg::Err {
                        reason: format!("no such document {}", doc.raw()),
                    });
                    return;
                }
                self.emit(&ServerMsg::Doc {
                    doc,
                    size: k.catalog.size(doc).get(),
                });
                // Speculation is the first load to shed (§2.3): under
                // DemandOnly the response carries no pushes.
                if level == ServiceLevel::Full {
                    let decision = decide(
                        &k.policy,
                        &k.closure,
                        &k.direct,
                        doc,
                        &k.catalog,
                        k.max_size,
                        |j| have.contains(&j),
                    );
                    for (j, _) in decision.push {
                        if j == doc {
                            continue;
                        }
                        self.counters.pushes += 1;
                        self.emit(&ServerMsg::Push {
                            doc: j,
                            size: k.catalog.size(j).get(),
                        });
                    }
                } else {
                    self.counters.shed += 1;
                }
                self.emit(&ServerMsg::End);
            }
        }
    }

    fn protocol_error(&mut self, reason: &str) {
        self.counters.protocol_errors += 1;
        self.emit(&ServerMsg::Err {
            reason: reason.to_string(),
        });
        self.phase = Phase::Draining;
    }

    fn emit(&mut self, msg: &ServerMsg) {
        let line = format!("{msg}\n");
        self.digest.update(line.as_bytes());
        self.counters.bytes_out += line.len() as u64;
        self.out.extend_from_slice(line.as_bytes());
    }

    /// Takes (and clears) the count of `STATS` requests awaiting a
    /// reply. The caller answers each with one
    /// [`ConnCore::push_stats_reply`].
    pub fn take_stats_requests(&mut self) -> u64 {
        std::mem::take(&mut self.pending_stats)
    }

    /// Writes one stats reply — `STAT` lines then `END` — into the
    /// output buffer (and the digest). Pure: the snapshot values come
    /// from the caller, so a replay pushing the recorded entries
    /// regenerates identical bytes.
    pub fn push_stats_reply(&mut self, entries: &[StatEntry]) {
        for e in entries {
            self.emit(&ServerMsg::Stat(e.clone()));
        }
        self.emit(&ServerMsg::End);
    }

    /// Response bytes generated but not yet taken by the transport.
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// Marks the first `n` output bytes as written to the transport.
    pub fn consume_output(&mut self, n: usize) {
        self.out.drain(..n);
    }

    /// Bytes waiting in the output buffer — the reactor's backpressure
    /// signal: a connection over its cap is not read from.
    pub fn buffered(&self) -> usize {
        self.out.len()
    }

    /// Has the session ended (peer quit, EOF, or violation)?
    pub fn draining(&self) -> bool {
        self.phase == Phase::Draining
    }

    /// Ended *and* fully flushed: the transport can close now.
    pub fn done(&self) -> bool {
        self.draining() && self.out.is_empty()
    }

    /// A snapshot of the per-connection counters.
    pub fn counters(&self) -> ConnCounters {
        self.counters
    }

    /// The FNV-1a digest of every output byte so far, as hex.
    pub fn digest_hex(&self) -> String {
        self.digest.hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_is_fragmentation_invariant() {
        let input = b"GET 1\nQUIT\n";
        let mut whole = Vec::new();
        FrameDecoder::new(64).feed(input, &mut whole);
        let mut bytewise = Vec::new();
        let mut d = FrameDecoder::new(64);
        for b in input {
            d.feed(std::slice::from_ref(b), &mut bytewise);
        }
        assert_eq!(whole, bytewise);
        assert_eq!(
            whole,
            vec![Frame::Line("GET 1".into()), Frame::Line("QUIT".into()),]
        );
    }

    #[test]
    fn decoder_enforces_the_line_cap() {
        let mut frames = Vec::new();
        let ok = FrameDecoder::new(8).feed(&[b'a'; 100], &mut frames);
        assert!(!ok);
        assert_eq!(
            frames,
            vec![Frame::Violation("line exceeds 8 bytes".into())]
        );

        // A line of exactly the cap is fine, cap+1 is not — the same
        // boundary as read_bounded_line.
        let mut frames = Vec::new();
        assert!(FrameDecoder::new(4).feed(b"abcd\n", &mut frames));
        assert_eq!(frames, vec![Frame::Line("abcd".into())]);
        let mut frames = Vec::new();
        assert!(!FrameDecoder::new(4).feed(b"abcde\n", &mut frames));
    }

    #[test]
    fn decoder_rejects_non_utf8() {
        let mut frames = Vec::new();
        let ok = FrameDecoder::new(64).feed(&[0xff, 0xfe, b'\n'], &mut frames);
        assert!(!ok);
        assert_eq!(
            frames,
            vec![Frame::Violation("line is not valid UTF-8".into())]
        );
    }

    #[test]
    fn digest_is_a_pure_function_of_the_bytes() {
        let mut a = OutputDigest::new();
        a.update(b"DOC 1 100\n");
        a.update(b"END\n");
        let mut b = OutputDigest::new();
        b.update(b"DOC 1 100\nEND\n");
        assert_eq!(a, b);
        assert_eq!(a.hex().len(), 16);
        let mut c = OutputDigest::new();
        c.update(b"DOC 1 101\nEND\n");
        assert_ne!(a, c);
    }
}
