//! # specweb-spec
//!
//! The speculative-service protocol of Bestavros, ICDE 1996, §3: a
//! server answering a request for document `D_i` also pushes documents
//! `D_j` it speculates the client will need within a short window —
//! exploiting **spatial** locality of reference (embedded objects and
//! followed links).
//!
//! Components:
//!
//! * [`deps`] — the conditional-probability matrix `P` (`p[i,j]` = Pr
//!   that `D_j` is requested within `T_w` of `D_i`) estimated from
//!   traces, and its closure `P*` (best request-sequence probability);
//! * [`estimator`] — re-estimation on the `HistoryLength` /
//!   `UpdateCycle` schedule (the §3.4 staleness machinery), precomputed
//!   per update boundary into the `MatrixStore` a replay reads;
//! * [`policy`] — which candidates to push: the baseline threshold
//!   `p*[i,j] ≥ T_p` with the `MaxSize` cap, plus the §3.4 variants
//!   (embedding-only, top-k, hybrid push+hint);
//! * [`cache`] — client cache models spanning the paper's
//!   `SessionTimeout` spectrum (none / single-session / infinite) plus a
//!   finite-LRU extension;
//! * [`cooperative`] — piggybacked cache digests (exact and Bloom);
//! * [`prefetch`] — client-side prefetching from per-user profiles and
//!   server-attached hints;
//! * [`simulate`] — the trace-driven simulator producing the paper's
//!   four ratios (bandwidth, server load, service time, miss rate).

#![warn(missing_docs)]

pub mod cache;
pub mod cooperative;
pub mod deps;
pub mod estimator;
pub mod policy;
pub mod prefetch;
pub mod simulate;

pub use cache::{CacheModel, ClientCache};
pub use deps::{DepMatrix, DepMatrixBuilder};
pub use estimator::RollingEstimator;
pub use policy::{Policy, SpecDecision};
pub use simulate::{SpecConfig, SpecOutcome, SpecSim};
