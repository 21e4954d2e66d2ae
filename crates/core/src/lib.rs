//! # specweb-core
//!
//! Shared substrate for the `specweb` workspace — a reproduction of
//! Azer Bestavros, *"Speculative Data Dissemination and Service to Reduce
//! Server Load, Network Traffic and Service Time in Distributed Information
//! Systems"*, ICDE 1996.
//!
//! This crate holds everything the protocol crates have in common:
//!
//! * strongly-typed identifiers ([`ids`]) for documents, clients, servers
//!   and topology nodes;
//! * a millisecond-resolution simulated clock ([`time`]) with the
//!   session/stride arithmetic the paper's trace analysis relies on;
//! * byte and byte×hop accounting units ([`units`]);
//! * streaming statistics and histograms ([`stats`]);
//! * the probability distributions the workload model is built from, plus
//!   the paper's exponential popularity model and its fitting routines
//!   ([`dist`]);
//! * deterministic, splittable random-number plumbing ([`rng`]) so every
//!   experiment is reproducible from a single seed;
//! * a scoped work-sharing thread pool ([`par`]) whose order-preserving
//!   `par_map_indexed` keeps parallel output byte-identical to serial
//!   output (every work item draws randomness from its own [`rng`]
//!   seed-tree child);
//! * the paper's four evaluation metrics as first-class accumulators
//!   ([`metrics`]);
//! * observability — a per-subsystem metrics registry and run
//!   manifests split into deterministic vs wall-clock channels, a
//!   `SPECWEB_LOG`-gated [`log!`] macro and a span profiler ([`obs`]);
//! * a common error type ([`error`]).
//!
//! Nothing in this crate knows about HTTP, proxies or speculation — it is
//! the arithmetic bedrock on which `specweb-trace`, `specweb-netsim`,
//! `specweb-dissem` and `specweb-spec` are built.

#![warn(missing_docs)]

pub mod dist;
pub mod error;
pub mod ids;
pub mod metrics;
pub mod obs;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use error::{CoreError, Result};
pub use ids::{ClientId, DocId, NodeId, ServerId};
pub use time::{Duration, SimTime};
pub use units::{ByteHops, Bytes};
