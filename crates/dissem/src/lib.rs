//! # specweb-dissem
//!
//! The demand-based data-dissemination protocol of Bestavros, ICDE 1996,
//! §2: popular documents propagate from home servers to service proxies
//! closer to their consumers, exploiting **temporal** locality (popular
//! documents stay popular) and **geographical** locality (nearby clients
//! want the same documents).
//!
//! Pipeline:
//!
//! 1. [`analysis`] — mine server logs for per-document popularity, the
//!    cumulative hit curve `H(b)` (Fig. 1), per-server demand `R_i` and
//!    the exponential-model rate `λ_i`;
//! 2. [`classify`] — split documents into remotely/locally/globally
//!    popular and mutable/immutable (§2's trichotomy);
//! 3. [`alloc`] — ration proxy storage `B_0` across servers to maximize
//!    the intercepted fraction `α_C` (eqs. 1–5), including the
//!    closed-form special cases (eqs. 6–8), sizing (eq. 10), an
//!    empirical greedy optimizer for arbitrary hit curves, and the
//!    uniform/proportional baselines;
//! 4. [`simulate`] — replay a trace over a netsim topology with
//!    disseminated replicas and measure the bytes×hops reduction
//!    (Fig. 3), including dissemination/update overheads and the §2.3
//!    dynamic load-shedding behaviour;
//! 5. [`hierarchy`] — multi-level deployments (proxies feeding proxies),
//!    §2.3's answer to the proxy-bottleneck objection.

#![warn(missing_docs)]

pub mod alloc;
pub mod analysis;
pub mod classify;
pub mod hierarchy;
pub mod simulate;

pub use alloc::{Allocation, ServerModel};
pub use analysis::{BlockPopularity, ServerProfile};
pub use classify::{ClassifiedDoc, Classifier};
pub use simulate::{DisseminationOutcome, DisseminationSim};
