//! # specweb-serve
//!
//! A hardened, event-loop TCP implementation of the speculative
//! service protocol — the paper's §4 ("work in progress involves the
//! development of prototypes to test and evaluate these protocols"),
//! grown from a demo into a fault-tolerant server:
//!
//! * [`protocol`] — the line-oriented wire format with bounded parsing:
//!   line-length and `HAVE`-digest caps turn hostile input into typed
//!   [`CoreError::Protocol`](specweb_core::CoreError) errors;
//! * [`conn`] — the pure per-connection state machine: an incremental
//!   frame decoder plus the request→response logic, free of clocks,
//!   sockets and randomness so record/replay can re-drive it exactly;
//! * [`overload`] — the graceful-degradation ladder: shed speculation
//!   first (demand-only service, the §2.3 move), refuse connections
//!   only at the hard cap;
//! * [`shutdown`] — cooperative shutdown tokens;
//! * [`server`] — the public server surface over a single-threaded
//!   readiness reactor: nonblocking sockets, incremental reads and
//!   writes, and backpressure instead of thread-per-connection;
//! * [`session`] — deterministic record/replay: capture a serve
//!   session as a `specweb-session/v1` trace, re-drive it
//!   byte-identically, and diff the outcomes;
//! * [`chaos`] — a seeded slow-client/partial-write/stall harness
//!   driving hundreds of degraded connections from one thread;
//! * [`client`] — a retrying client: capped exponential backoff with
//!   seeded jitter on transient failures (`BUSY`, I/O), a speculative
//!   cache, and §3.4 cooperative `HAVE` digests.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod conn;
pub mod overload;
pub mod protocol;
mod reactor;
pub mod server;
pub mod session;
pub mod shutdown;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use client::{ClientConfig, FetchResult, RetryConfig, SpecClient};
pub use conn::{ConnCore, FrameDecoder, OutputDigest};
pub use overload::{OverloadController, OverloadPolicy, ServiceLevel};
pub use protocol::{ProtocolLimits, Request, ServerMsg, StatEntry};
pub use server::{ServerConfig, ServerHandle, ServerKnowledge, SpecServer, StatsSnapshot};
pub use session::{replay, KnowledgeSpec, ReplayOutcome, SessionTrace, SESSION_SCHEMA};
pub use shutdown::ShutdownToken;
