//! Proxy replica storage.
//!
//! A service proxy holds, for each home server it fronts, a replica of
//! that server's most popular documents, bounded by a per-server quota
//! `B_i` (the allocation the §2 optimizer computes) and the proxy-wide
//! capacity `B_0 = Σ B_i`.
//!
//! Documents are installed **most popular first** — that ordering is the
//! definition of `H_i(b)` ("disseminating the most popular b bytes") —
//! so the eviction order for §2.3's dynamic load shedding ("when the
//! proxy becomes overloaded, B₀ is reduced, thus forcing more of the
//! requests back to the servers") is simply the reverse of installation.
//!
//! A dissemination replay asks "does this proxy hold that document?" on
//! every interception opportunity, so [`ProxyStore::contains`] is two
//! index operations: the replicas are indexed by `ServerId` and each
//! replica's membership is a `DocId`-indexed bitset, grown to the largest
//! id installed.

use serde::{Deserialize, Serialize};
use specweb_core::ids::{DocId, ServerId};
use specweb_core::units::Bytes;
use specweb_core::{CoreError, Result};

/// The replica a proxy holds for one home server.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ServerReplica {
    quota: Bytes,
    used: Bytes,
    /// Installed documents in popularity order (most popular first).
    docs: Vec<(DocId, Bytes)>,
    /// Membership: bit `d` is set iff document `d` is installed.
    member: Vec<u64>,
}

/// The word and bit of `doc` in a membership bitset.
fn slot(doc: DocId) -> (usize, u64) {
    (doc.index() / 64, 1 << (doc.index() % 64))
}

impl ServerReplica {
    fn holds(&self, doc: DocId) -> bool {
        let (word, bit) = slot(doc);
        self.member.get(word).is_some_and(|w| w & bit != 0)
    }
}

/// `server`'s replica in `replicas`, created empty if it is not there.
fn replica_mut(replicas: &mut Vec<ServerReplica>, server: ServerId) -> &mut ServerReplica {
    if server.index() >= replicas.len() {
        replicas.resize_with(server.index() + 1, ServerReplica::default);
    }
    &mut replicas[server.index()]
}

/// A proxy's document store with per-server quotas.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProxyStore {
    capacity: Bytes,
    used: Bytes,
    /// Indexed by `ServerId`; a server never given a quota or a document
    /// reads as an empty replica with a zero quota.
    replicas: Vec<ServerReplica>,
}

impl ProxyStore {
    /// Creates a store with total capacity `B_0`.
    pub fn new(capacity: Bytes) -> Self {
        ProxyStore {
            capacity,
            used: Bytes::ZERO,
            replicas: Vec::new(),
        }
    }

    /// Total capacity `B_0`.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used(&self) -> Bytes {
        self.used
    }

    fn replica(&self, server: ServerId) -> Option<&ServerReplica> {
        self.replicas.get(server.index())
    }

    /// Sets the quota `B_i` for `server`. Shrinking a quota below the
    /// replica's current usage evicts least-popular documents to fit.
    pub fn set_quota(&mut self, server: ServerId, quota: Bytes) {
        let rep = replica_mut(&mut self.replicas, server);
        rep.quota = quota;
        while rep.used > rep.quota {
            // used > 0 implies docs; an empty replica just ends the loop.
            let Some((doc, size)) = rep.docs.pop() else {
                break;
            };
            let (word, bit) = slot(doc);
            rep.member[word] &= !bit;
            rep.used -= size;
            self.used -= size;
        }
    }

    /// The quota currently assigned to `server` (zero if unknown).
    pub fn quota(&self, server: ServerId) -> Bytes {
        self.replica(server).map_or(Bytes::ZERO, |r| r.quota)
    }

    /// Bytes used by `server`'s replica.
    pub fn used_by(&self, server: ServerId) -> Bytes {
        self.replica(server).map_or(Bytes::ZERO, |r| r.used)
    }

    /// Installs a document into `server`'s replica. Call in decreasing
    /// popularity order. Fails (without side effects) if the document
    /// would exceed the server quota or the proxy capacity; the caller
    /// simply stops disseminating at that point.
    pub fn install(&mut self, server: ServerId, doc: DocId, size: Bytes) -> Result<()> {
        let rep = replica_mut(&mut self.replicas, server);
        if rep.holds(doc) {
            return Ok(()); // idempotent: re-dissemination of a held doc
        }
        if rep.used + size > rep.quota {
            return Err(CoreError::invalid_config(
                "proxy.quota",
                format!("{doc} ({size}) exceeds {server}'s remaining quota"),
            ));
        }
        if self.used + size > self.capacity {
            return Err(CoreError::invalid_config(
                "proxy.capacity",
                format!("{doc} ({size}) exceeds proxy capacity"),
            ));
        }
        let (word, bit) = slot(doc);
        if word >= rep.member.len() {
            rep.member.resize(word + 1, 0);
        }
        rep.member[word] |= bit;
        rep.docs.push((doc, size));
        rep.used += size;
        self.used += size;
        Ok(())
    }

    /// Whether the proxy can serve `doc` on behalf of `server`.
    #[inline]
    pub fn contains(&self, server: ServerId, doc: DocId) -> bool {
        self.replica(server).is_some_and(|r| r.holds(doc))
    }

    /// Number of documents held for `server`.
    pub fn doc_count(&self, server: ServerId) -> usize {
        self.replica(server).map_or(0, |r| r.docs.len())
    }

    /// §2.3 dynamic load shedding: scales every server quota by `factor`
    /// (in `[0, 1]`), evicting least-popular documents as needed, which
    /// pushes the shed fraction of requests back to the home servers.
    pub fn shed(&mut self, factor: f64) -> Result<()> {
        if !(0.0..=1.0).contains(&factor) {
            return Err(CoreError::invalid_config(
                "proxy.shed_factor",
                format!("must be in [0, 1], got {factor}"),
            ));
        }
        for s in 0..self.replicas.len() {
            let new_quota = Bytes::new((self.replicas[s].quota.as_f64() * factor).floor() as u64);
            self.set_quota(ServerId::from(s), new_quota);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: ServerId = ServerId(0);

    fn store_with_quota(cap: u64, quota: u64) -> ProxyStore {
        let mut p = ProxyStore::new(Bytes::new(cap));
        p.set_quota(S, Bytes::new(quota));
        p
    }

    #[test]
    fn install_and_hit() {
        let mut p = store_with_quota(1_000, 500);
        p.install(S, DocId(1), Bytes::new(200)).unwrap();
        p.install(S, DocId(2), Bytes::new(300)).unwrap();
        assert!(p.contains(S, DocId(1)));
        assert!(p.contains(S, DocId(2)));
        assert!(!p.contains(S, DocId(3)));
        assert!(!p.contains(ServerId(9), DocId(1)));
        assert_eq!(p.used(), Bytes::new(500));
        assert_eq!(p.used_by(S), Bytes::new(500));
        assert_eq!(p.doc_count(S), 2);
    }

    #[test]
    fn install_is_idempotent() {
        let mut p = store_with_quota(1_000, 500);
        p.install(S, DocId(1), Bytes::new(200)).unwrap();
        p.install(S, DocId(1), Bytes::new(200)).unwrap();
        assert_eq!(p.used(), Bytes::new(200));
        assert_eq!(p.doc_count(S), 1);
    }

    #[test]
    fn quota_is_enforced() {
        let mut p = store_with_quota(1_000, 250);
        p.install(S, DocId(1), Bytes::new(200)).unwrap();
        assert!(p.install(S, DocId(2), Bytes::new(100)).is_err());
        // Failure has no side effects.
        assert_eq!(p.used(), Bytes::new(200));
        assert!(!p.contains(S, DocId(2)));
    }

    #[test]
    fn capacity_is_enforced_across_servers() {
        let mut p = ProxyStore::new(Bytes::new(300));
        p.set_quota(ServerId(0), Bytes::new(250));
        p.set_quota(ServerId(1), Bytes::new(250));
        p.install(ServerId(0), DocId(1), Bytes::new(200)).unwrap();
        // Within server 1's quota but over the proxy capacity.
        assert!(p.install(ServerId(1), DocId(2), Bytes::new(200)).is_err());
    }

    #[test]
    fn shrinking_quota_evicts_least_popular_first() {
        let mut p = store_with_quota(1_000, 600);
        p.install(S, DocId(1), Bytes::new(200)).unwrap(); // most popular
        p.install(S, DocId(2), Bytes::new(200)).unwrap();
        p.install(S, DocId(3), Bytes::new(200)).unwrap(); // least popular
        p.set_quota(S, Bytes::new(400));
        assert!(p.contains(S, DocId(1)));
        assert!(p.contains(S, DocId(2)));
        assert!(!p.contains(S, DocId(3)), "least popular must go first");
        assert_eq!(p.used(), Bytes::new(400));
    }

    #[test]
    fn shed_scales_all_quotas() {
        let mut p = ProxyStore::new(Bytes::new(2_000));
        p.set_quota(ServerId(0), Bytes::new(400));
        p.set_quota(ServerId(1), Bytes::new(600));
        p.install(ServerId(0), DocId(1), Bytes::new(400)).unwrap();
        p.install(ServerId(1), DocId(2), Bytes::new(300)).unwrap();
        p.install(ServerId(1), DocId(3), Bytes::new(300)).unwrap();
        p.shed(0.5).unwrap();
        assert_eq!(p.quota(ServerId(0)), Bytes::new(200));
        assert_eq!(p.quota(ServerId(1)), Bytes::new(300));
        // Server 0's single 400 B doc no longer fits its 200 B quota.
        assert!(!p.contains(ServerId(0), DocId(1)));
        // Server 1 keeps its most popular doc only.
        assert!(p.contains(ServerId(1), DocId(2)));
        assert!(!p.contains(ServerId(1), DocId(3)));
    }

    #[test]
    fn shed_rejects_bad_factor() {
        let mut p = ProxyStore::new(Bytes::new(100));
        assert!(p.shed(1.5).is_err());
        assert!(p.shed(-0.1).is_err());
        assert!(p.shed(1.0).is_ok());
    }

    #[test]
    fn shed_to_zero_forces_every_request_back_to_the_home_server() {
        let mut p = store_with_quota(1_000, 600);
        let docs = [DocId(1), DocId(2), DocId(3)];
        for d in docs {
            p.install(S, d, Bytes::new(200)).unwrap();
        }
        // Before shedding the proxy absorbs every request; afterwards
        // they all fall through — none are lost, just served upstream.
        let route = |p: &ProxyStore| {
            let (mut proxy_hits, mut origin_hits) = (0, 0);
            for d in docs {
                if p.contains(S, d) {
                    proxy_hits += 1;
                } else {
                    origin_hits += 1;
                }
            }
            (proxy_hits, origin_hits)
        };
        assert_eq!(route(&p), (3, 0));
        p.shed(0.0).unwrap();
        assert_eq!(route(&p), (0, 3), "shed work lands on the home server");
        assert_eq!(p.used(), Bytes::ZERO);
    }

    #[test]
    fn counters_are_conserved_through_shed_and_recovery() {
        let mut p = ProxyStore::new(Bytes::new(2_000));
        p.set_quota(ServerId(0), Bytes::new(600));
        p.set_quota(ServerId(1), Bytes::new(400));
        p.install(ServerId(0), DocId(1), Bytes::new(300)).unwrap();
        p.install(ServerId(0), DocId(2), Bytes::new(300)).unwrap();
        p.install(ServerId(1), DocId(3), Bytes::new(400)).unwrap();

        let check = |p: &ProxyStore| {
            let total = p.used_by(ServerId(0)) + p.used_by(ServerId(1));
            assert_eq!(p.used(), total, "proxy total must equal replica sum");
            assert!(p.used() <= p.capacity());
            assert!(p.used_by(ServerId(0)) <= p.quota(ServerId(0)));
            assert!(p.used_by(ServerId(1)) <= p.quota(ServerId(1)));
        };
        check(&p);
        p.shed(0.5).unwrap();
        check(&p);
        p.shed(0.0).unwrap();
        check(&p);
        assert_eq!(p.used(), Bytes::ZERO);
        // Recovery: quotas restored, the store accepts replicas again.
        p.set_quota(ServerId(0), Bytes::new(600));
        p.install(ServerId(0), DocId(1), Bytes::new(300)).unwrap();
        check(&p);
    }

    #[test]
    fn recovery_after_shedding_restores_service() {
        let mut p = store_with_quota(1_000, 400);
        p.install(S, DocId(1), Bytes::new(200)).unwrap(); // most popular
        p.install(S, DocId(2), Bytes::new(200)).unwrap();
        p.shed(0.5).unwrap();
        assert!(p.contains(S, DocId(1)), "survivors are the most popular");
        assert!(!p.contains(S, DocId(2)));
        // Load subsides: the quota is restored and the next
        // dissemination cycle re-installs what was evicted.
        p.set_quota(S, Bytes::new(400));
        p.install(S, DocId(2), Bytes::new(200)).unwrap();
        assert!(p.contains(S, DocId(1)));
        assert!(p.contains(S, DocId(2)));
        assert_eq!(p.used(), Bytes::new(400));
        assert_eq!(p.doc_count(S), 2);
    }

    #[test]
    fn unknown_server_queries_are_zero() {
        let p = ProxyStore::new(Bytes::new(100));
        assert_eq!(p.quota(S), Bytes::ZERO);
        assert_eq!(p.used_by(S), Bytes::ZERO);
        assert_eq!(p.doc_count(S), 0);
    }
}
