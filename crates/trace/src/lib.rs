//! # specweb-trace
//!
//! Workload substrate for the `specweb` reproduction of Bestavros,
//! ICDE 1996. The paper's evaluation is **trace-driven**: 22 weeks of
//! HTTP logs from `cs-www.bu.edu` (205,925 accesses, 8,474 clients,
//! >20,000 sessions) drive both protocols. Those logs are not available,
//! > so this crate provides the documented substitution: a synthetic trace
//! > generator calibrated to every distributional property the paper
//! > reports, plus a log-file format and the paper's cleaning pipeline so
//! > real logs can be dropped in instead.
//!
//! Calibration targets (from the paper):
//!
//! * block popularity: the most popular 0.5% of bytes draw ≈69% of
//!   requests; the top 10% draw ≈91% (Fig. 1);
//! * document classes: of 974 accessed documents, 99 were *remotely
//!   popular* (remote-access ratio > 85%), 510 *locally popular*
//!   (< 15%), 365 *globally popular* (§2);
//! * update behaviour: ≈0.5%/day update probability for remote/global
//!   documents, ≈2%/day for local ones, frequent updates confined to a
//!   small *mutable* subset (§2);
//! * link structure: the conditional-probability histogram of Fig. 4
//!   peaks at 1/k — links out of a page are followed near-uniformly —
//!   with an embedding peak at p ≈ 1;
//! * sessions and strides: >20k sessions, strides defined by a 5 s
//!   `StrideTimeout` (§3.2).
//!
//! Modules:
//!
//! * [`document`] — the document catalog (sizes, classes, mutability);
//! * [`sitegraph`] — per-server site graphs: pages, embedded objects,
//!   traversal links;
//! * [`clients`] — the client population and its local/remote split;
//! * [`session`] — session/stride timing processes;
//! * [`generator`] — the top-level trace generator with `bu_www` and
//!   `media_site` presets;
//! * [`updates`] — the document-update process;
//! * [`strides`] — stride/session re-derivation from timing (§3.2's
//!   `StrideTimeout`/`SessionTimeout` segmentation);
//! * [`import`] — reconstructing a [`generator::Trace`] from real,
//!   parsed log records;
//! * [`logfmt`] — a Common-Log-Format-style reader/writer;
//! * [`cleaning`] — the paper's log preprocessing (footnote 6).

#![warn(missing_docs)]

pub mod cleaning;
pub mod clients;
pub mod document;
pub mod generator;
pub mod import;
pub mod logfmt;
pub mod session;
pub mod sitegraph;
pub mod strides;
pub mod updates;

pub use clients::{ClientPopulation, Locality};
pub use document::{Catalog, Document, PopularityClass};
pub use generator::{Access, Trace, TraceConfig, TraceGenerator};
pub use sitegraph::{Page, SiteGraph};
