//! A retrying protocol client with a speculative cache.
//!
//! The client half of the §4 prototype, hardened: connection and
//! request failures classified by [`CoreError::is_transient`] are
//! retried on a capped exponential backoff with seeded jitter, the
//! connection is re-established after transport errors, and `BUSY`
//! refusals (the server's overload shedding) are treated as transient —
//! the client backs off and tries again instead of failing the fetch.
//!
//! Pushed documents land in the client's cache; a later fetch of a
//! cached id never touches the wire, which is the protocol's point.
//!
//! A fetch that does reach the wire costs one round trip and no timer:
//! the request line is encoded whole into one buffer and handed to the
//! socket in a single write, with `TCP_NODELAY` set, so it leaves as
//! one segment and the reactor reads it in one piece. (Written fragment
//! by fragment — as `write!` on a bare socket does — every piece after
//! the first waited ~40 ms for the server's delayed ACK.) The `HAVE`
//! digest is cut where the line would pass the cap.

use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specweb_core::{CoreError, DocId, Result};

use crate::protocol::{read_bounded_line, ProtocolLimits, Request, ServerMsg, StatEntry};

/// Backoff schedule for transient failures.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Retries after the initial attempt.
    pub max_attempts: u32,
    /// First backoff delay; doubles each retry.
    pub base: Duration,
    /// Ceiling on a single delay (before jitter).
    pub cap: Duration,
    /// Seed for the jitter RNG — fixed so tests are reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

impl RetryConfig {
    /// Checks the schedule is usable.
    pub fn validate(&self) -> Result<()> {
        if self.base.is_zero() || self.cap < self.base {
            return Err(CoreError::invalid_config(
                "serve.retry",
                "base must be positive and cap ≥ base",
            ));
        }
        Ok(())
    }
}

/// Client tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Wire-format caps (also bounds the `HAVE` digest it sends).
    pub limits: ProtocolLimits,
    /// Transient-failure backoff.
    pub retry: RetryConfig,
    /// Read deadline per response line.
    pub read_timeout: Duration,
    /// Write deadline per request.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            limits: ProtocolLimits::default(),
            retry: RetryConfig::default(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// What one [`SpecClient::fetch`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResult {
    /// The requested document.
    pub doc: DocId,
    /// Its size in bytes (0 when served from the local cache).
    pub size: u64,
    /// Documents the server pushed alongside it.
    pub pushed: Vec<DocId>,
    /// True when no wire request was needed.
    pub from_cache: bool,
}

struct Conn {
    reader: BufReader<TcpStream>,
    out: TcpStream,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn").finish_non_exhaustive()
    }
}

/// The retrying client.
#[derive(Debug)]
pub struct SpecClient {
    addr: SocketAddr,
    config: ClientConfig,
    rng: StdRng,
    conn: Option<Conn>,
    /// A BTreeSet: the piggybacked digest enumerates this set, so its
    /// content (capped at max_have_ids) must be run-stable, not
    /// hash-order dependent.
    cache: BTreeSet<DocId>,
}

impl SpecClient {
    /// Creates a client for a server address. The TCP connection is
    /// established lazily on the first fetch (and re-established, with
    /// backoff, whenever it breaks).
    pub fn new(addr: SocketAddr, config: ClientConfig) -> Result<SpecClient> {
        config.limits.validate()?;
        config.retry.validate()?;
        Ok(SpecClient {
            addr,
            rng: StdRng::seed_from_u64(config.retry.jitter_seed),
            config,
            conn: None,
            cache: BTreeSet::new(),
        })
    }

    /// Is a document already in the local cache?
    pub fn cached(&self, doc: DocId) -> bool {
        self.cache.contains(&doc)
    }

    /// Fetches a document, retrying transient failures (I/O errors,
    /// `BUSY` overload refusals) on the backoff schedule. Protocol
    /// errors are not retried — resending the same poison cannot help.
    pub fn fetch(&mut self, doc: DocId) -> Result<FetchResult> {
        if self.cache.contains(&doc) {
            return Ok(FetchResult {
                doc,
                size: 0,
                pushed: Vec::new(),
                from_cache: true,
            });
        }
        self.with_retries(format_args!("doc {}", doc.raw()), |c| c.try_fetch(doc))
    }

    /// Asks the server for a live metrics snapshot (`STATS` →
    /// `STAT`… `END`), retrying transient failures on the same backoff
    /// schedule as [`SpecClient::fetch`]. The session stays open — a
    /// probe can interleave with fetches on one connection, or run on
    /// its own connection while the server is under load.
    pub fn stats(&mut self) -> Result<Vec<StatEntry>> {
        self.with_retries(Request::Stats, |c| c.try_stats())
    }

    /// Runs `op` until it succeeds, fails for good, or the backoff
    /// schedule is spent; returns the last transient error then.
    fn with_retries<T>(
        &mut self,
        what: impl std::fmt::Display,
        mut op: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let wall = |name| {
            specweb_core::obs::global()
                .metrics
                .counter_on(name, specweb_core::obs::Channel::WallClock)
        };
        let mut last: Option<CoreError> = None;
        for attempt in 0..=self.config.retry.max_attempts {
            if attempt > 0 {
                let pause = self.backoff(attempt - 1);
                // Backoff time is real service-time cost the retry
                // policy imposes on the user; account it next to the
                // retry count so sweeps can weigh delay against load.
                wall("serve.client_backoff_ms").add(pause.as_millis() as u64);
                thread::sleep(pause);
            }
            match op(self) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_transient() => {
                    // The transport (or the server's patience) is gone;
                    // reconnect on the next attempt.
                    wall("serve.client_retries").incr();
                    specweb_core::log!(Debug, "serve", "retry {what} attempt {}: {e}", attempt + 1);
                    self.conn = None;
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| CoreError::Io("retries exhausted".into())))
    }

    fn try_stats(&mut self) -> Result<Vec<StatEntry>> {
        let max_line = self.config.limits.max_line_bytes;
        let conn = self.ensure_conn()?;
        conn.out
            .write_all(format!("{}\n", Request::Stats).as_bytes())?;
        let mut entries = Vec::new();
        loop {
            let line = read_bounded_line(&mut conn.reader, max_line)?
                .ok_or_else(|| CoreError::Io("server closed the connection".into()))?;
            match ServerMsg::parse(&line)? {
                ServerMsg::End => break,
                ServerMsg::Stat(e) => entries.push(e),
                ServerMsg::Busy { detail } => {
                    return Err(CoreError::overload("connection", detail));
                }
                ServerMsg::Err { reason } => {
                    return Err(CoreError::protocol(reason));
                }
                other => {
                    return Err(CoreError::protocol(format!(
                        "unexpected {other} in a STATS reply"
                    )));
                }
            }
        }
        Ok(entries)
    }

    /// Ends the session politely and drops the connection.
    pub fn quit(mut self) -> Result<()> {
        if let Some(conn) = self.conn.as_mut() {
            conn.out
                .write_all(format!("{}\n", Request::Quit).as_bytes())?;
        }
        Ok(())
    }

    /// Capped exponential backoff with ±50% seeded jitter.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base_ms = self.config.retry.base.as_millis() as u64;
        let cap_ms = self.config.retry.cap.as_millis() as u64;
        let exp = base_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(cap_ms);
        let jitter: f64 = self.rng.gen_range(0.5..1.5);
        Duration::from_millis(((exp as f64) * jitter) as u64)
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn> {
        if let Some(conn) = self.conn.take() {
            return Ok(self.conn.insert(conn));
        }
        let stream = TcpStream::connect(self.addr)?;
        // A request is a whole message in one write: nothing is gained
        // by holding it back for an ACK.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.config.read_timeout))?;
        stream.set_write_timeout(Some(self.config.write_timeout))?;
        Ok(self.conn.insert(Conn {
            reader: BufReader::new(stream.try_clone()?),
            out: stream,
        }))
    }

    fn try_fetch(&mut self, doc: DocId) -> Result<FetchResult> {
        let limits = self.config.limits;
        let max_line = limits.max_line_bytes;
        // Piggyback a digest of cached ids, §3.4-style: in id order, as
        // many as both caps (ids, line length) admit.
        let mut line = String::new();
        Request::write_get(&mut line, doc, self.cache.iter().copied(), Some(&limits))
            .map_err(|e| CoreError::protocol(e.to_string()))?;
        line.push('\n');
        let conn = self.ensure_conn()?;
        // One write of the whole line: one segment, one reactor read.
        conn.out.write_all(line.as_bytes())?;

        let mut size = 0u64;
        let mut received = Vec::new();
        let mut pushed = Vec::new();
        loop {
            let line = read_bounded_line(&mut conn.reader, max_line)?
                .ok_or_else(|| CoreError::Io("server closed the connection".into()))?;
            match ServerMsg::parse(&line)? {
                ServerMsg::End => break,
                ServerMsg::Doc { doc: d, size: s } => {
                    size = s;
                    received.push(d);
                }
                ServerMsg::Push { doc: d, .. } => {
                    received.push(d);
                    pushed.push(d);
                }
                ServerMsg::Busy { detail } => {
                    return Err(CoreError::overload("connection", detail));
                }
                ServerMsg::Err { reason } => {
                    return Err(CoreError::protocol(reason));
                }
                ServerMsg::Stat(_) => {
                    return Err(CoreError::protocol("unexpected STAT in a GET reply"));
                }
            }
        }
        self.cache.extend(received);
        Ok(FetchResult {
            doc,
            size,
            pushed,
            from_cache: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        let mut c = SpecClient::new(
            "127.0.0.1:1".parse().unwrap(),
            ClientConfig {
                retry: RetryConfig {
                    max_attempts: 8,
                    base: Duration::from_millis(100),
                    cap: Duration::from_millis(400),
                    jitter_seed: 7,
                },
                ..ClientConfig::default()
            },
        )
        .unwrap();
        for (attempt, nominal) in [(0u32, 100u64), (1, 200), (2, 400), (3, 400), (62, 400)] {
            let d = c.backoff(attempt).as_millis() as u64;
            assert!(
                d >= nominal / 2 && d < nominal * 3 / 2,
                "attempt {attempt}: {d}ms outside [{}, {})",
                nominal / 2,
                nominal * 3 / 2
            );
        }
    }

    #[test]
    fn jitter_is_reproducible_for_a_seed() {
        let cfg = ClientConfig::default();
        let addr = "127.0.0.1:1".parse().unwrap();
        let mut a = SpecClient::new(addr, cfg).unwrap();
        let mut b = SpecClient::new(addr, cfg).unwrap();
        for attempt in 0..6 {
            assert_eq!(a.backoff(attempt), b.backoff(attempt));
        }
    }

    #[test]
    fn rejects_bad_retry_config() {
        let addr = "127.0.0.1:1".parse().unwrap();
        let mut cfg = ClientConfig::default();
        cfg.retry.base = Duration::ZERO;
        assert!(SpecClient::new(addr, cfg).is_err());
        let mut cfg = ClientConfig::default();
        cfg.retry.cap = Duration::from_millis(1);
        assert!(SpecClient::new(addr, cfg).is_err());
    }

    #[test]
    fn unreachable_server_fails_with_transient_io_after_retries() {
        // Port 1 on localhost refuses immediately.
        let mut c = SpecClient::new(
            "127.0.0.1:1".parse().unwrap(),
            ClientConfig {
                retry: RetryConfig {
                    max_attempts: 1,
                    base: Duration::from_millis(1),
                    cap: Duration::from_millis(2),
                    jitter_seed: 0,
                },
                ..ClientConfig::default()
            },
        )
        .unwrap();
        // The counter is process-wide: other tests move it too, so the
        // assertions are on what each call added at least.
        let retries = || {
            specweb_core::obs::global()
                .metrics
                .counter_on(
                    "serve.client_retries",
                    specweb_core::obs::Channel::WallClock,
                )
                .get()
        };
        let before = retries();
        let e = c.fetch(DocId::new(0)).unwrap_err();
        assert!(e.is_transient(), "expected transient I/O, got {e:?}");
        assert!(retries() >= before + 2, "fetch: both attempts count");
        let before = retries();
        let e = c.stats().unwrap_err();
        assert!(e.is_transient(), "expected transient I/O, got {e:?}");
        assert!(retries() >= before + 2, "stats: both attempts count");
    }
}
