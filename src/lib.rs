//! # specweb
//!
//! A production-quality Rust reproduction of:
//!
//! > Azer Bestavros. *Speculative Data Dissemination and Service to
//! > Reduce Server Load, Network Traffic and Service Time in Distributed
//! > Information Systems.* ICDE 1996.
//!
//! The paper proposes two **server-initiated** protocols for
//! distributed information systems (the 1995 WWW):
//!
//! 1. **Demand-based data dissemination** (§2) — popular documents
//!    propagate from home servers to *service proxies* closer to their
//!    consumers, with proxy storage rationed optimally across servers
//!    (exploits temporal + geographical locality). See [`dissem`].
//! 2. **Speculative service** (§3) — a server answering a request also
//!    pushes documents the client is likely to need within seconds
//!    (exploits spatial locality). See [`spec`].
//!
//! Everything is built on four substrates:
//!
//! * [`core`] — ids, simulated time, byte/hop units, statistics,
//!   distributions (including the paper's exponential popularity
//!   model), deterministic RNG, and the four evaluation metrics;
//! * [`trace`] — a synthetic WWW workload generator calibrated to the
//!   trace statistics the paper reports, plus a log format and the
//!   paper's log-cleaning pipeline;
//! * [`netsim`] — the clientele tree, clusters, routing, cost/latency
//!   models, proxy stores, and the client-side fault windows of the
//!   live chaos harness;
//! * [`dissem`] / [`spec`] — the two protocols and their trace-driven
//!   simulators;
//! * [`serve`] — a hardened multi-threaded TCP prototype of the §3/§4
//!   speculative-service protocol, with bounded parsing, deadlines,
//!   graceful overload degradation, and a retrying client.
//!
//! ## Quickstart
//!
//! ```
//! use specweb::prelude::*;
//!
//! // A two-level Internet: 6 edge networks × 8 client leaves.
//! let topo = Topology::two_level(6, 8);
//!
//! // A small cs-www.bu.edu-flavored workload.
//! let trace = TraceGenerator::new(TraceConfig::small(42))
//!     .expect("valid config")
//!     .generate(&topo)
//!     .expect("generation succeeds");
//!
//! // Speculative service at T_p = 0.4 under baseline parameters.
//! let mut cfg = SpecConfig::baseline(0.4);
//! cfg.estimator.history_days = 8;
//! cfg.warmup_days = 3;
//! let outcome = SpecSim::new(&trace, &topo).run(&cfg).expect("simulation runs");
//! assert!(outcome.ratios.server_load <= 1.0);
//!
//! // Dissemination of the top 10% of bytes to 4 proxies.
//! let sim = DisseminationSim::new(&trace, &topo).expect("profiles mined");
//! let out = sim
//!     .run(&DisseminationConfig::default(), &[])
//!     .expect("simulation runs");
//! assert!(out.reduction > 0.0);
//! ```

pub use specweb_core as core;
pub use specweb_dissem as dissem;
pub use specweb_netsim as netsim;
pub use specweb_serve as serve;
pub use specweb_spec as spec;
pub use specweb_trace as trace;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use specweb_core::dist::{ExponentialPopularity, HitCurve, Zipf};
    pub use specweb_core::metrics::{CostWeights, Ratios, RunTotals};
    pub use specweb_core::rng::SeedTree;
    pub use specweb_core::{
        Bytes, ClientId, CoreError, DocId, Duration, NodeId, ServerId, SimTime,
    };
    pub use specweb_dissem::alloc::{
        allocate_proportional, allocate_uniform, optimize, optimize_empirical, ServerModel,
    };
    pub use specweb_dissem::analysis::{BlockPopularity, ServerProfile};
    pub use specweb_dissem::classify::Classifier;
    pub use specweb_dissem::simulate::{
        DisseminationConfig, DisseminationOutcome, DisseminationSim,
    };
    pub use specweb_netsim::cost::{CostModel, LatencyModel};
    pub use specweb_netsim::topology::Topology;
    pub use specweb_serve::client::{ClientConfig, SpecClient};
    pub use specweb_serve::overload::{OverloadPolicy, ServiceLevel};
    pub use specweb_serve::server::{ServerConfig, ServerKnowledge, SpecServer};
    pub use specweb_spec::cache::CacheModel;
    pub use specweb_spec::deps::{DepMatrix, DepMatrixBuilder};
    pub use specweb_spec::estimator::EstimatorConfig;
    pub use specweb_spec::policy::Policy;
    pub use specweb_spec::prefetch::HintPolicy;
    pub use specweb_spec::simulate::{SpecConfig, SpecOutcome, SpecSim};
    pub use specweb_trace::generator::{Access, Trace, TraceConfig, TraceGenerator};
    pub use specweb_trace::updates::UpdateProcess;
}
