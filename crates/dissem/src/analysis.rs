//! Log analysis: popularity profiles per server.
//!
//! Reproduces the measurements behind Fig. 1: per-document request
//! counts split by requester locality, the cumulative hit curve `H(b)`
//! over documents ranked by popularity, the 256 KB *block* popularity
//! view, per-server remote demand `R_i` (bytes/day served outside the
//! cluster) and the fitted exponential rate `λ_i`.
//!
//! Mining is one pass over the trace, whatever the number of servers:
//! the pass counts each document's remote and local requests into a
//! `DocId`-indexed table, and every profile is a fold over that table
//! ([`ServerProfile::from_counts`]).

use serde::{Deserialize, Serialize};
use specweb_core::dist::{ExponentialPopularity, HitCurve};
use specweb_core::ids::{DocId, ServerId};
use specweb_core::units::Bytes;
use specweb_core::{CoreError, Result};
use specweb_trace::document::Catalog;
use specweb_trace::generator::Trace;

/// The paper's block size for Fig. 1.
pub const BLOCK_SIZE: Bytes = Bytes::from_kib(256);

/// Popularity profile of one home server, mined from a trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerProfile {
    /// The server.
    pub server: ServerId,
    /// Per-document `(doc, size, remote_requests, local_requests)`,
    /// sorted by remote request density (most popular first).
    pub docs: Vec<(DocId, Bytes, u64, u64)>,
    /// Remote demand: bytes per day served to clients outside the
    /// organization (the paper's `R_i`).
    pub remote_bytes_per_day: f64,
    /// Hit curve over *remote* requests (dissemination only intercepts
    /// remote traffic).
    pub hit_curve: HitCurve,
    /// Exponential-model rate fitted to the hit curve.
    pub lambda: f64,
}

impl ServerProfile {
    /// Mines the profile of `server` from a trace spanning `days` days:
    /// [`ServerProfile::from_trace_many`] for one server.
    pub fn from_trace(trace: &Trace, server: ServerId, days: u64) -> Result<ServerProfile> {
        let mut one = ServerProfile::from_trace_many(trace, &[server], days)?;
        Ok(one.remove(0))
    }

    /// Mines the profiles of several servers from one trace: one pass
    /// counts every document's `(remote, local)` requests, and each
    /// profile is [`ServerProfile::from_counts`] over those counts. The
    /// first error, if any, is reported in input order.
    pub fn from_trace_many(
        trace: &Trace,
        servers: &[ServerId],
        days: u64,
    ) -> Result<Vec<ServerProfile>> {
        let counts = trace.remote_local_counts();
        ServerProfile::from_counts(&trace.catalog, &counts, servers, days)
    }

    /// Builds the profiles of `servers` from per-document `(remote,
    /// local)` request counts (`counts[doc]`, over a trace spanning
    /// `days` days), fanning the per-server fold out on the
    /// process-default pool. Output is in input order, and the first
    /// error in input order is the one reported.
    pub fn from_counts(
        catalog: &Catalog,
        counts: &[(u64, u64)],
        servers: &[ServerId],
        days: u64,
    ) -> Result<Vec<ServerProfile>> {
        if days == 0 {
            return Err(CoreError::invalid_config(
                "analysis.days",
                "must be positive",
            ));
        }
        specweb_core::par::Pool::auto().try_map_indexed(servers, |_, &server| {
            ServerProfile::fold(catalog, counts, server, days)
        })
    }

    /// One server's profile from the dense counts.
    fn fold(
        catalog: &Catalog,
        counts: &[(u64, u64)],
        server: ServerId,
        days: u64,
    ) -> Result<ServerProfile> {
        let mut per_doc: Vec<(DocId, Bytes, u64, u64)> = catalog
            .of_server(server)
            .map(|d| {
                let (remote, local) = counts[d.id.index()];
                (d.id, d.size, remote, local)
            })
            .collect();
        if per_doc.is_empty() {
            return Err(CoreError::UnknownId {
                kind: "server",
                id: server.raw(),
            });
        }
        let remote_bytes = per_doc.iter().fold(0u64, |acc, &(_, size, remote, _)| {
            acc.saturating_add(remote.saturating_mul(size.get()))
        });
        // Rank by remote request density (remote requests per byte).
        // total_cmp, not partial_cmp: a NaN density (degenerate input)
        // must sort deterministically instead of aborting a whole sweep.
        per_doc.sort_by(|a, b| {
            let da = a.2 as f64 / a.1.get().max(1) as f64;
            let db = b.2 as f64 / b.1.get().max(1) as f64;
            db.total_cmp(&da).then(a.0.cmp(&b.0))
        });

        let curve_input: Vec<(Bytes, u64)> = per_doc.iter().map(|&(_, s, r, _)| (s, r)).collect();
        let hit_curve = HitCurve::from_documents(&curve_input)?;
        let lambda = hit_curve
            .fit_lambda(0.98)
            .or_else(|_| hit_curve.fit_lambda_at(0.25))?
            .lambda();

        Ok(ServerProfile {
            server,
            docs: per_doc,
            remote_bytes_per_day: remote_bytes as f64 / days as f64,
            hit_curve,
            lambda,
        })
    }

    /// The fitted exponential popularity model.
    pub fn model(&self) -> Result<ExponentialPopularity> {
        ExponentialPopularity::new(self.lambda)
    }

    /// Total remote requests.
    pub fn total_remote_requests(&self) -> u64 {
        self.docs.iter().map(|d| d.2).sum()
    }

    /// The most popular documents (by remote density) whose cumulative
    /// size fits in `budget` — the dissemination set for this server.
    pub fn top_docs_within(&self, budget: Bytes) -> Vec<(DocId, Bytes)> {
        let mut out = Vec::new();
        let mut used = Bytes::ZERO;
        for &(doc, size, remote, _) in &self.docs {
            if remote == 0 {
                break; // never-remotely-requested tail
            }
            if used + size > budget {
                continue; // try smaller docs further down
            }
            used += size;
            out.push((doc, size));
        }
        out
    }

    /// Like [`ServerProfile::top_docs_within`], but ranked for **traffic**
    /// interception: by remote request *count* (descending) instead of
    /// request density. Caching a document saves
    /// `requests × size × hops` of traffic for `size` bytes of storage,
    /// so the marginal value per byte is the request count — the right
    /// ranking when the objective is Fig. 3's bytes×hops, while density
    /// is right when the objective is α (requests intercepted).
    pub fn top_docs_for_traffic(&self, budget: Bytes) -> Vec<(DocId, Bytes)> {
        let mut ranked: Vec<(DocId, Bytes, u64)> = self
            .docs
            .iter()
            .filter(|d| d.2 > 0)
            .map(|&(doc, size, remote, _)| (doc, size, remote))
            .collect();
        ranked.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)).then(a.0.cmp(&b.0)));
        let mut out = Vec::new();
        let mut used = Bytes::ZERO;
        for (doc, size, _) in ranked {
            if used + size > budget {
                continue;
            }
            used += size;
            out.push((doc, size));
        }
        out
    }

    /// Total bytes of documents that received at least one remote request.
    pub fn remotely_accessed_bytes(&self) -> Bytes {
        self.docs.iter().filter(|d| d.2 > 0).map(|d| d.1).sum()
    }
}

/// Fig. 1's view: documents grouped into fixed-size blocks by decreasing
/// remote popularity, with per-block request shares and the cumulative
/// bandwidth saved by serving the top blocks at an earlier stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockPopularity {
    /// Per-block fraction of all remote requests, most popular first.
    pub block_request_share: Vec<f64>,
    /// Cumulative fraction of server *bandwidth* (bytes served) covered
    /// by the top `k+1` blocks.
    pub cumulative_bandwidth_saved: Vec<f64>,
    /// The block size used.
    pub block_size: Bytes,
}

impl BlockPopularity {
    /// Builds the block view from a server profile.
    pub fn from_profile(profile: &ServerProfile, block_size: Bytes) -> Result<BlockPopularity> {
        if block_size == Bytes::ZERO {
            return Err(CoreError::invalid_config(
                "blocks.block_size",
                "must be positive",
            ));
        }
        let total_requests: u64 = profile.docs.iter().map(|d| d.2).sum();
        let total_bytes_served: u64 = profile.docs.iter().map(|d| d.2 * d.1.get()).sum();
        if total_requests == 0 {
            return Err(CoreError::Estimation(
                "no remote requests to block-rank".into(),
            ));
        }
        let mut shares = Vec::new();
        let mut saved = Vec::new();
        let mut block_req = 0u64;
        let mut block_fill = 0u64;
        let mut cum_bytes_served = 0u64;
        for &(_, size, remote, _) in &profile.docs {
            if remote == 0 {
                break;
            }
            block_req = block_req.saturating_add(remote);
            block_fill = block_fill.saturating_add(size.get());
            cum_bytes_served = cum_bytes_served.saturating_add(remote.saturating_mul(size.get()));
            if block_fill >= block_size.get() {
                shares.push(block_req as f64 / total_requests as f64);
                saved.push(cum_bytes_served as f64 / total_bytes_served as f64);
                block_req = 0;
                block_fill = 0;
            }
        }
        if block_req > 0 {
            shares.push(block_req as f64 / total_requests as f64);
            saved.push(cum_bytes_served as f64 / total_bytes_served as f64);
        }
        Ok(BlockPopularity {
            block_request_share: shares,
            cumulative_bandwidth_saved: saved,
            block_size,
        })
    }

    /// Builds block views for several profiles at once, one per input
    /// profile, fanned out on the process-default pool. Identical to
    /// mapping [`BlockPopularity::from_profile`] serially.
    pub fn from_profiles(
        profiles: &[ServerProfile],
        block_size: Bytes,
    ) -> Result<Vec<BlockPopularity>> {
        specweb_core::par::Pool::auto().try_map_indexed(profiles, |_, p| {
            BlockPopularity::from_profile(p, block_size)
        })
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.block_request_share.len()
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.block_request_share.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specweb_netsim::topology::Topology;
    use specweb_trace::generator::{TraceConfig, TraceGenerator};

    fn trace() -> Trace {
        let topo = Topology::balanced(2, 3, 4);
        TraceGenerator::new(TraceConfig::small(60))
            .unwrap()
            .generate(&topo)
            .unwrap()
    }

    #[test]
    fn profile_counts_are_consistent() {
        let t = trace();
        let p = ServerProfile::from_trace(&t, ServerId(0), 10).unwrap();
        let total: u64 = p.docs.iter().map(|d| d.2 + d.3).sum();
        assert_eq!(total as usize, t.len(), "every access counted once");
        assert!(p.remote_bytes_per_day > 0.0);
        assert!(p.lambda > 0.0);
        assert!(p.total_remote_requests() > 0);
    }

    #[test]
    fn profile_is_ranked_by_remote_density() {
        let t = trace();
        let p = ServerProfile::from_trace(&t, ServerId(0), 10).unwrap();
        let dens: Vec<f64> = p
            .docs
            .iter()
            .map(|d| d.2 as f64 / d.1.get().max(1) as f64)
            .collect();
        for w in dens.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "density must be non-increasing");
        }
    }

    #[test]
    fn profile_rejects_unknown_server_and_zero_days() {
        let t = trace();
        assert!(ServerProfile::from_trace(&t, ServerId(9), 10).is_err());
        assert!(ServerProfile::from_trace(&t, ServerId(0), 0).is_err());
    }

    #[test]
    fn top_docs_respect_budget() {
        let t = trace();
        let p = ServerProfile::from_trace(&t, ServerId(0), 10).unwrap();
        let budget = Bytes::from_kib(64);
        let picked = p.top_docs_within(budget);
        let used: Bytes = picked.iter().map(|&(_, s)| s).sum();
        assert!(used <= budget);
        assert!(!picked.is_empty());
    }

    #[test]
    fn top_docs_unlimited_budget_takes_all_remote() {
        let t = trace();
        let p = ServerProfile::from_trace(&t, ServerId(0), 10).unwrap();
        let picked = p.top_docs_within(Bytes::new(u64::MAX / 2));
        let n_remote = p.docs.iter().filter(|d| d.2 > 0).count();
        assert_eq!(picked.len(), n_remote);
    }

    #[test]
    fn block_popularity_is_concentrated_and_monotone() {
        let t = trace();
        let p = ServerProfile::from_trace(&t, ServerId(0), 10).unwrap();
        let b = BlockPopularity::from_profile(&p, Bytes::from_kib(64)).unwrap();
        assert!(!b.is_empty());
        // First block dominates later blocks (temporal locality).
        if b.len() > 2 {
            assert!(
                b.block_request_share[0] > b.block_request_share[b.len() - 1],
                "{:?}",
                b.block_request_share
            );
        }
        // Cumulative savings are monotone and end at 1.
        for w in b.cumulative_bandwidth_saved.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        let last = *b.cumulative_bandwidth_saved.last().unwrap();
        assert!((last - 1.0).abs() < 1e-9, "last cum saved {last}");
        // Request shares sum to 1.
        let s: f64 = b.block_request_share.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "shares sum {s}");
    }

    #[test]
    fn block_popularity_rejects_bad_input() {
        let t = trace();
        let p = ServerProfile::from_trace(&t, ServerId(0), 10).unwrap();
        assert!(BlockPopularity::from_profile(&p, Bytes::ZERO).is_err());
    }

    fn cluster_trace() -> Trace {
        let topo = Topology::balanced(2, 3, 4);
        TraceGenerator::new(TraceConfig::cluster(60, 2))
            .unwrap()
            .generate(&topo)
            .unwrap()
    }

    #[test]
    fn from_trace_many_matches_serial() {
        let t = cluster_trace();
        let servers: Vec<ServerId> = (0..2usize).map(ServerId::from).collect();
        let many = ServerProfile::from_trace_many(&t, &servers, 10).unwrap();
        assert_eq!(many.len(), 2);
        for (profile, &s) in many.iter().zip(&servers) {
            let one = ServerProfile::from_trace(&t, s, 10).unwrap();
            assert_eq!(profile.server, one.server);
            assert_eq!(profile.docs, one.docs);
            assert_eq!(profile.lambda.to_bits(), one.lambda.to_bits());
            assert_eq!(
                profile.remote_bytes_per_day.to_bits(),
                one.remote_bytes_per_day.to_bits()
            );
        }
        // Errors surface in input order, not completion order.
        let bad = [ServerId::from(0usize), ServerId::from(99usize)];
        assert!(ServerProfile::from_trace_many(&t, &bad, 10).is_err());
    }

    #[test]
    fn from_profiles_matches_serial_block_views() {
        let t = cluster_trace();
        let servers: Vec<ServerId> = (0..2usize).map(ServerId::from).collect();
        let profiles = ServerProfile::from_trace_many(&t, &servers, 10).unwrap();
        let blocks = BlockPopularity::from_profiles(&profiles, Bytes::from_kib(64)).unwrap();
        assert_eq!(blocks.len(), profiles.len());
        for (b, p) in blocks.iter().zip(&profiles) {
            let one = BlockPopularity::from_profile(p, Bytes::from_kib(64)).unwrap();
            assert_eq!(b.block_request_share, one.block_request_share);
            assert_eq!(b.cumulative_bandwidth_saved, one.cumulative_bandwidth_saved);
        }
    }

    #[test]
    fn zero_demand_server_does_not_panic_ranking() {
        // Regression: the ranking sort used `partial_cmp(..).expect(..)`,
        // so a degenerate profile (zero-request server, NaN λ fit) would
        // abort a whole sweep. With total_cmp these paths must complete.
        let profile = ServerProfile {
            server: ServerId::from(0usize),
            docs: vec![
                (DocId::from(0usize), Bytes::from_kib(4), 0, 0),
                (DocId::from(1usize), Bytes::from_kib(8), 0, 0),
            ],
            remote_bytes_per_day: 0.0,
            hit_curve: {
                // A minimal legitimate curve; the degenerate part is the
                // λ and the all-zero request counts.
                specweb_core::dist::HitCurve::from_documents(&[(Bytes::from_kib(4), 1)]).unwrap()
            },
            lambda: f64::NAN,
        };
        assert!(profile.top_docs_within(Bytes::from_kib(64)).is_empty());
        assert!(profile.top_docs_for_traffic(Bytes::from_kib(64)).is_empty());
        assert_eq!(profile.total_remote_requests(), 0);
        // The block view reports the no-requests condition as an error,
        // never as a panic.
        assert!(BlockPopularity::from_profile(&profile, Bytes::from_kib(64)).is_err());
    }

    #[test]
    fn remotely_accessed_bytes_bounded_by_catalog() {
        let t = trace();
        let p = ServerProfile::from_trace(&t, ServerId(0), 10).unwrap();
        assert!(p.remotely_accessed_bytes() <= t.catalog.total_bytes());
        assert!(p.remotely_accessed_bytes() > Bytes::ZERO);
    }
}
