//! The wire protocol, hardened against hostile peers.
//!
//! The same line-oriented exchange the §4 prototype sketched:
//!
//! ```text
//! client → server:  GET <doc-id> [HAVE <id>,<id>,…]\n   |  QUIT\n  |  STATS\n
//! server → client:  DOC <doc-id> <size>\n
//!                   PUSH <doc-id> <size>\n               (zero or more)
//!                   END\n
//! stats reply:      STAT <key> <value>\n                 (one per metric)
//!                   END\n
//! errors:           ERR <reason>\n                       (protocol violation)
//! overload:         BUSY <detail>\n                      (connection refused)
//! ```
//!
//! `STATS` is live introspection: the server answers with a snapshot of
//! its counters and gauges as `STAT` lines, then `END`, without ending
//! the session — so an operator (or the chaos harness) can watch a
//! server that is busy serving degraded peers.
//!
//! Unlike the prototype, every input is **bounded before it is parsed**:
//! a request line is read through [`read_bounded_line`], which refuses to
//! buffer more than [`ProtocolLimits::max_line_bytes`], and the `HAVE`
//! digest is capped at [`ProtocolLimits::max_have_ids`] entries. A peer
//! that exceeds either cap gets a typed [`CoreError::Protocol`] — never
//! an unbounded allocation. The sending side honours the same caps:
//! `SpecClient` ends its digest where either would be passed.

use std::fmt;
use std::io::BufRead;

use serde::{Deserialize, Serialize};
use specweb_core::{CoreError, DocId, Result};

/// One `STAT <key> <value>` metric in a stats reply. Serializable so a
/// recorded session trace can replay the exact snapshot the live
/// reactor answered with (the values are wall-clock state, so they are
/// an *input* to the deterministic replay, like the service level).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatEntry {
    /// Metric name (one token, no whitespace).
    pub key: String,
    /// Metric value at snapshot time.
    pub value: u64,
}

impl StatEntry {
    /// A named metric sample.
    pub fn new(key: impl Into<String>, value: u64) -> StatEntry {
        StatEntry {
            key: key.into(),
            value,
        }
    }
}

/// Caps on what the parser will accept from the wire.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolLimits {
    /// Longest request or response line, in bytes (excluding the `\n`).
    pub max_line_bytes: usize,
    /// Most ids accepted in one `HAVE` digest.
    pub max_have_ids: usize,
}

impl Default for ProtocolLimits {
    fn default() -> Self {
        ProtocolLimits {
            max_line_bytes: 4096,
            max_have_ids: 256,
        }
    }
}

impl ProtocolLimits {
    /// Checks the caps are usable.
    pub fn validate(&self) -> Result<()> {
        if self.max_line_bytes < 16 {
            return Err(CoreError::invalid_config(
                "serve.max_line_bytes",
                "must be at least 16 bytes",
            ));
        }
        if self.max_have_ids == 0 {
            return Err(CoreError::invalid_config(
                "serve.max_have_ids",
                "must be positive",
            ));
        }
        Ok(())
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `GET <doc> [HAVE <id>,…]` — fetch a document, optionally
    /// piggybacking a cache digest (§3.4 cooperative clients).
    Get {
        /// The requested document.
        doc: DocId,
        /// Ids the client already holds (pushes for these are wasted).
        have: Vec<DocId>,
    },
    /// Orderly end of the session.
    Quit,
    /// Live metrics introspection: answered with `STAT` lines then
    /// `END`, keeping the session open.
    Stats,
}

impl Request {
    /// Parses one request line. Hostile input yields
    /// [`CoreError::Protocol`], never a panic or an unbounded `Vec`.
    pub fn parse(line: &str, limits: &ProtocolLimits) -> Result<Request> {
        let msg = line.trim();
        if msg == "QUIT" {
            return Ok(Request::Quit);
        }
        if msg == "STATS" {
            return Ok(Request::Stats);
        }
        let Some(rest) = msg.strip_prefix("GET ") else {
            return Err(CoreError::protocol(format!(
                "expected GET, STATS or QUIT, got {:?}",
                truncate(msg, 32)
            )));
        };
        let (id_part, have_part) = match rest.split_once(" HAVE ") {
            Some((a, b)) => (a, Some(b)),
            None => (rest, None),
        };
        let doc = parse_id(id_part, "document id")?;
        let mut have = Vec::new();
        if let Some(h) = have_part {
            for s in h.split(',') {
                if have.len() >= limits.max_have_ids {
                    return Err(CoreError::protocol(format!(
                        "HAVE digest exceeds {} ids",
                        limits.max_have_ids
                    )));
                }
                have.push(parse_id(s, "HAVE id")?);
            }
        }
        Ok(Request::Get { doc, have })
    }

    /// Writes `GET <doc> [HAVE <id>,…]` (no `\n`) to `out`. The digest
    /// is the longest prefix of `have` a server under `limits` accepts:
    /// at most `max_have_ids` ids on a line of at most `max_line_bytes`;
    /// all of `have` when there are no limits.
    ///
    /// At the default limits the line cap never cuts: the longest line
    /// is 4 + 10 + 6 + 256 × 10 + 255 = 2 835 bytes of 4 096, so the
    /// digest there is the first 256 ids. `benchmark/`'s
    /// `CacheMirror::digest` mirrors exactly that.
    pub(crate) fn write_get<W: fmt::Write>(
        out: &mut W,
        doc: DocId,
        have: impl IntoIterator<Item = DocId>,
        limits: Option<&ProtocolLimits>,
    ) -> fmt::Result {
        let (max_ids, max_line) = limits.map_or((usize::MAX, usize::MAX), |l| {
            (l.max_have_ids, l.max_line_bytes)
        });
        write!(out, "GET {}", doc.raw())?;
        let mut len = "GET ".len() + decimal_len(doc);
        let mut sep = " HAVE ";
        for id in have.into_iter().take(max_ids) {
            len += sep.len() + decimal_len(id);
            if len > max_line {
                break;
            }
            write!(out, "{sep}{}", id.raw())?;
            sep = ",";
        }
        Ok(())
    }
}

/// Bytes `id` takes on the wire, in decimal.
fn decimal_len(id: DocId) -> usize {
    id.raw().checked_ilog10().map_or(1, |d| d as usize + 1)
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Get { doc, have } => {
                // A `Request` value is spelled whole, whatever its size.
                Request::write_get(f, *doc, have.iter().copied(), None)
            }
            Request::Quit => write!(f, "QUIT"),
            Request::Stats => write!(f, "STATS"),
        }
    }
}

/// A parsed server response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// The requested document.
    Doc {
        /// Its id.
        doc: DocId,
        /// Its size in bytes.
        size: u64,
    },
    /// A speculative push riding on the response.
    Push {
        /// The pushed document.
        doc: DocId,
        /// Its size in bytes.
        size: u64,
    },
    /// One metric sample in a `STATS` reply.
    Stat(StatEntry),
    /// End of this response.
    End,
    /// The server refused the connection or request under overload;
    /// retry after a backoff.
    Busy {
        /// Human-readable overload context.
        detail: String,
    },
    /// The peer violated the protocol; the connection will close.
    Err {
        /// What went wrong.
        reason: String,
    },
}

impl ServerMsg {
    /// Parses one response line.
    pub fn parse(line: &str) -> Result<ServerMsg> {
        let msg = line.trim();
        if msg == "END" {
            return Ok(ServerMsg::End);
        }
        if let Some(rest) = msg.strip_prefix("DOC ") {
            let (doc, size) = parse_id_size(rest)?;
            return Ok(ServerMsg::Doc { doc, size });
        }
        if let Some(rest) = msg.strip_prefix("PUSH ") {
            let (doc, size) = parse_id_size(rest)?;
            return Ok(ServerMsg::Push { doc, size });
        }
        if let Some(rest) = msg.strip_prefix("STAT ") {
            let mut parts = rest.split_whitespace();
            let key = parts
                .next()
                .filter(|k| !k.is_empty())
                .ok_or_else(|| CoreError::protocol("STAT missing key"))?;
            let value = parts
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| CoreError::protocol("STAT missing or bad value"))?;
            if parts.next().is_some() {
                return Err(CoreError::protocol("STAT has trailing tokens"));
            }
            return Ok(ServerMsg::Stat(StatEntry::new(key, value)));
        }
        if let Some(rest) = msg.strip_prefix("BUSY") {
            return Ok(ServerMsg::Busy {
                detail: rest.trim().to_string(),
            });
        }
        if let Some(rest) = msg.strip_prefix("ERR") {
            return Ok(ServerMsg::Err {
                reason: rest.trim().to_string(),
            });
        }
        Err(CoreError::protocol(format!(
            "unknown server message {:?}",
            truncate(msg, 32)
        )))
    }
}

impl fmt::Display for ServerMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerMsg::Doc { doc, size } => write!(f, "DOC {} {size}", doc.raw()),
            ServerMsg::Push { doc, size } => write!(f, "PUSH {} {size}", doc.raw()),
            ServerMsg::Stat(e) => write!(f, "STAT {} {}", e.key, e.value),
            ServerMsg::End => write!(f, "END"),
            ServerMsg::Busy { detail } => write!(f, "BUSY {detail}"),
            ServerMsg::Err { reason } => write!(f, "ERR {reason}"),
        }
    }
}

/// Reads one `\n`-terminated line without ever buffering more than
/// `max_bytes`. Returns `Ok(None)` on a clean EOF before any bytes.
///
/// This is the hostile-input chokepoint: `BufRead::read_line` would
/// happily grow its `String` until memory runs out on a peer that never
/// sends a newline; this reader fails fast with a typed error instead.
pub fn read_bounded_line<R: BufRead>(reader: &mut R, max_bytes: usize) -> Result<Option<String>> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(CoreError::protocol("connection closed mid-line"));
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if buf.len() + i > max_bytes {
                    return Err(CoreError::protocol(format!(
                        "line exceeds {max_bytes} bytes"
                    )));
                }
                buf.extend_from_slice(&chunk[..i]);
                reader.consume(i + 1);
                let s = String::from_utf8(buf)
                    .map_err(|_| CoreError::protocol("line is not valid UTF-8"))?;
                return Ok(Some(s));
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > max_bytes {
                    return Err(CoreError::protocol(format!(
                        "line exceeds {max_bytes} bytes"
                    )));
                }
                buf.extend_from_slice(chunk);
                reader.consume(n);
            }
        }
    }
}

fn parse_id(s: &str, what: &str) -> Result<DocId> {
    s.trim()
        .parse::<u32>()
        .map(DocId::new)
        .map_err(|_| CoreError::protocol(format!("bad {what} {:?}", truncate(s.trim(), 32))))
}

fn parse_id_size(rest: &str) -> Result<(DocId, u64)> {
    let mut parts = rest.split_whitespace();
    let doc = parse_id(parts.next().unwrap_or(""), "document id")?;
    let size = parts
        .next()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| CoreError::protocol("missing or bad size"))?;
    Ok((doc, size))
}

fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn limits() -> ProtocolLimits {
        ProtocolLimits::default()
    }

    #[test]
    fn request_round_trips() {
        for req in [
            Request::Quit,
            Request::Stats,
            Request::Get {
                doc: DocId::new(7),
                have: vec![],
            },
            Request::Get {
                doc: DocId::new(7),
                have: vec![DocId::new(1), DocId::new(2)],
            },
        ] {
            let line = req.to_string();
            assert_eq!(Request::parse(&line, &limits()).unwrap(), req);
        }
    }

    #[test]
    fn server_msg_round_trips() {
        for msg in [
            ServerMsg::Doc {
                doc: DocId::new(3),
                size: 1024,
            },
            ServerMsg::Push {
                doc: DocId::new(4),
                size: 2,
            },
            ServerMsg::Stat(StatEntry::new("requests", 42)),
            ServerMsg::End,
            ServerMsg::Busy {
                detail: "64/64 connections".into(),
            },
            ServerMsg::Err {
                reason: "bad id".into(),
            },
        ] {
            let line = msg.to_string();
            assert_eq!(ServerMsg::parse(&line).unwrap(), msg);
        }
    }

    #[test]
    fn hostile_stat_lines_yield_typed_errors() {
        for bad in ["STAT ", "STAT requests", "STAT requests abc", "STAT k 1 2"] {
            let e = ServerMsg::parse(bad).unwrap_err();
            assert!(
                matches!(e, CoreError::Protocol { .. }),
                "{bad:?} gave {e:?}"
            );
        }
    }

    #[test]
    fn hostile_requests_yield_typed_errors() {
        let l = limits();
        for bad in [
            "",
            "FETCH 1",
            "GET ",
            "GET abc",
            "GET 1 HAVE x",
            "GET 4294967296",
            "GET 1 HAVE 1,,2",
        ] {
            let e = Request::parse(bad, &l).unwrap_err();
            assert!(
                matches!(e, CoreError::Protocol { .. }),
                "{bad:?} gave {e:?}"
            );
        }
    }

    #[test]
    fn have_digest_is_capped() {
        let l = ProtocolLimits {
            max_have_ids: 4,
            ..limits()
        };
        let ok = format!("GET 0 HAVE {}", ["1"; 4].join(","));
        assert!(Request::parse(&ok, &l).is_ok());
        let bad = format!("GET 0 HAVE {}", ["1"; 5].join(","));
        let e = Request::parse(&bad, &l).unwrap_err();
        assert!(e.to_string().contains("exceeds 4 ids"));
    }

    #[test]
    fn get_line_is_cut_to_both_caps() {
        let widest = (0..300).map(|i| DocId::new(u32::MAX - i));
        let mut line = String::new();
        Request::write_get(
            &mut line,
            DocId::new(u32::MAX),
            widest.clone(),
            Some(&limits()),
        )
        .unwrap();
        // The longest line the default limits admit: the id cap cuts,
        // the line cap has room to spare.
        assert_eq!(line.len(), 2835);
        assert_eq!(line.matches(',').count() + 1, 256);

        let narrow = ProtocolLimits {
            max_line_bytes: 40,
            ..limits()
        };
        let mut line = String::new();
        Request::write_get(&mut line, DocId::new(7), widest, Some(&narrow)).unwrap();
        assert_eq!(line, "GET 7 HAVE 4294967295,4294967294");
    }

    #[test]
    fn bounded_reader_enforces_the_line_cap() {
        let long = [b'a'; 100];
        let mut r = BufReader::new(&long[..]);
        let e = read_bounded_line(&mut r, 64).unwrap_err();
        assert!(matches!(e, CoreError::Protocol { .. }));
        assert!(e.to_string().contains("exceeds 64 bytes"));
    }

    #[test]
    fn bounded_reader_reads_lines_and_eof() {
        let data = b"GET 1\nQUIT\n".to_vec();
        let mut r = BufReader::new(&data[..]);
        assert_eq!(read_bounded_line(&mut r, 64).unwrap().unwrap(), "GET 1");
        assert_eq!(read_bounded_line(&mut r, 64).unwrap().unwrap(), "QUIT");
        assert!(read_bounded_line(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn mid_line_eof_is_a_protocol_error() {
        let data = b"GET 1".to_vec(); // no newline
        let mut r = BufReader::new(&data[..]);
        let e = read_bounded_line(&mut r, 64).unwrap_err();
        assert!(e.to_string().contains("mid-line"));
    }

    #[test]
    fn non_utf8_is_rejected() {
        let data = [0xff, 0xfe, b'\n'];
        let mut r = BufReader::new(&data[..]);
        assert!(read_bounded_line(&mut r, 64).is_err());
    }
}
