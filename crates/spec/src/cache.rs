//! Client cache models (§3.2).
//!
//! The paper emulates the whole spectrum of client caching with one
//! knob, `SessionTimeout`: a document entering the cache (by request or
//! by speculative push) stays until the session ends.
//!
//! * `SessionTimeout = 0`   ⇒ no cache at all;
//! * `SessionTimeout = 60 min` ⇒ infinite-size *single-session* cache;
//! * `SessionTimeout = ∞`  ⇒ infinite-size multi-session cache (the
//!   baseline, equivalent to the LAN cache of the paper's reference \[4\]).
//!
//! We add a finite-capacity LRU as the obvious engineering extension.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use specweb_core::ids::DocId;
use specweb_core::time::{Duration, SimTime};
use specweb_core::units::Bytes;

/// Which cache a client runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheModel {
    /// No cache (`SessionTimeout = 0`): every access misses.
    None,
    /// Infinite cache purged when the gap since the client's previous
    /// request reaches `timeout` (a new session starts).
    Session {
        /// The session timeout.
        timeout: Duration,
    },
    /// Infinite multi-session cache (`SessionTimeout = ∞`).
    Infinite,
    /// Finite capacity with least-recently-used eviction.
    Lru {
        /// Total capacity in bytes.
        capacity: Bytes,
    },
}

impl CacheModel {
    /// The paper's baseline: `SessionTimeout = ∞`.
    pub fn baseline() -> CacheModel {
        CacheModel::Infinite
    }
}

/// One client's cache state.
#[derive(Debug, Clone)]
pub struct ClientCache {
    model: CacheModel,
    /// Resident documents → (last-touch counter, size), for LRU victim
    /// choice and eviction accounting. A BTreeMap:
    /// [`ClientCache::resident_docs`] feeds cooperative digests, so the
    /// enumeration order must not depend on hash iteration order.
    resident: BTreeMap<DocId, (u64, Bytes)>,
    used: Bytes,
    /// Monotonic touch counter.
    clock: u64,
    /// Time of this client's previous request (session tracking).
    last_request: Option<SimTime>,
}

impl ClientCache {
    /// A fresh, empty cache.
    pub fn new(model: CacheModel) -> Self {
        ClientCache {
            model,
            resident: BTreeMap::new(),
            used: Bytes::ZERO,
            clock: 0,
            last_request: None,
        }
    }

    /// The model this cache runs.
    pub fn model(&self) -> CacheModel {
        self.model
    }

    /// Bytes currently resident.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Number of resident documents.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Called at the start of every client request *before* the lookup:
    /// handles session expiry. Returns `true` if a new session started
    /// (the cache was purged).
    pub fn on_request(&mut self, now: SimTime) -> bool {
        let purge = match (self.model, self.last_request) {
            (CacheModel::Session { timeout }, Some(prev)) => {
                !timeout.is_infinite() && now.since(prev) >= timeout
            }
            _ => false,
        };
        if purge {
            self.resident.clear();
            self.used = Bytes::ZERO;
        }
        self.last_request = Some(now);
        purge
    }

    /// Whether `doc` is resident (touches it for LRU recency).
    pub fn contains(&mut self, doc: DocId) -> bool {
        self.clock += 1;
        let clock = self.clock;
        match self.resident.get_mut(&doc) {
            Some((touch, _)) => {
                *touch = clock;
                true
            }
            None => false,
        }
    }

    /// Whether `doc` is resident, without touching recency — used for
    /// cooperative digests (peeking must not distort LRU order).
    pub fn peek(&self, doc: DocId) -> bool {
        self.resident.contains_key(&doc)
    }

    /// Inserts a document (by client fetch or server push).
    pub fn insert(&mut self, doc: DocId, size: Bytes) {
        match self.model {
            CacheModel::None => {}
            CacheModel::Session { timeout } if timeout == Duration::ZERO => {}
            CacheModel::Lru { capacity } => {
                if size > capacity {
                    return; // cannot ever fit
                }
                self.clock += 1;
                if let Some((touch, _)) = self.resident.get_mut(&doc) {
                    *touch = self.clock;
                    return;
                }
                self.resident.insert(doc, (self.clock, size));
                self.used += size;
                while self.used > capacity {
                    // used > 0 implies resident docs; an empty map would
                    // simply end the loop.
                    let Some((&lru, &(_, sz))) = self.resident.iter().min_by_key(|(_, &(t, _))| t)
                    else {
                        break;
                    };
                    self.resident.remove(&lru);
                    self.used -= sz;
                }
            }
            _ => {
                if !self.resident.contains_key(&doc) {
                    self.used += size;
                }
                self.clock += 1;
                self.resident.insert(doc, (self.clock, size));
            }
        }
    }

    /// All resident documents (for cooperative digests).
    pub fn resident_docs(&self) -> impl Iterator<Item = DocId> + '_ {
        self.resident.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb(n: u64) -> Bytes {
        Bytes::from_kib(n)
    }

    #[test]
    fn none_model_never_caches() {
        let mut c = ClientCache::new(CacheModel::None);
        c.insert(DocId(1), kb(1));
        assert!(!c.contains(DocId(1)));
        assert_eq!(c.used(), Bytes::ZERO);
    }

    #[test]
    fn infinite_model_keeps_everything() {
        let mut c = ClientCache::new(CacheModel::Infinite);
        for i in 0..100 {
            c.insert(DocId(i), kb(10));
        }
        assert_eq!(c.len(), 100);
        assert!(c.contains(DocId(0)));
        assert!(c.contains(DocId(99)));
        // Sessions never purge an infinite cache.
        assert!(!c.on_request(SimTime::from_days(400)));
        assert!(c.contains(DocId(0)));
    }

    #[test]
    fn duplicate_insert_does_not_double_count() {
        let mut c = ClientCache::new(CacheModel::Infinite);
        c.insert(DocId(1), kb(5));
        c.insert(DocId(1), kb(5));
        assert_eq!(c.used(), kb(5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn session_cache_purges_on_timeout() {
        let timeout = Duration::from_secs(3_600);
        let mut c = ClientCache::new(CacheModel::Session { timeout });
        assert!(!c.on_request(SimTime::from_secs(0)));
        c.insert(DocId(1), kb(1));
        // 30 minutes later: same session.
        assert!(!c.on_request(SimTime::from_secs(1_800)));
        assert!(c.contains(DocId(1)));
        // 2 hours after that: new session, purged.
        assert!(c.on_request(SimTime::from_secs(1_800 + 7_200)));
        assert!(!c.contains(DocId(1)));
        assert_eq!(c.used(), Bytes::ZERO);
    }

    #[test]
    fn session_gap_exactly_timeout_purges() {
        let timeout = Duration::from_secs(60);
        let mut c = ClientCache::new(CacheModel::Session { timeout });
        c.on_request(SimTime::from_secs(0));
        c.insert(DocId(1), kb(1));
        assert!(c.on_request(SimTime::from_secs(60)));
    }

    #[test]
    fn zero_session_timeout_is_no_cache() {
        let mut c = ClientCache::new(CacheModel::Session {
            timeout: Duration::ZERO,
        });
        c.on_request(SimTime::from_secs(1));
        c.insert(DocId(1), kb(1));
        assert!(!c.contains(DocId(1)));
    }

    #[test]
    fn infinite_session_timeout_never_purges() {
        let mut c = ClientCache::new(CacheModel::Session {
            timeout: Duration::INFINITE,
        });
        c.on_request(SimTime::from_secs(0));
        c.insert(DocId(1), kb(1));
        assert!(!c.on_request(SimTime::from_days(1_000)));
        assert!(c.contains(DocId(1)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ClientCache::new(CacheModel::Lru { capacity: kb(30) });
        c.insert(DocId(1), kb(10));
        c.insert(DocId(2), kb(10));
        c.insert(DocId(3), kb(10));
        // Touch 1 so 2 is the LRU.
        assert!(c.contains(DocId(1)));
        c.insert(DocId(4), kb(10));
        assert!(c.contains(DocId(1)));
        assert!(!c.contains(DocId(2)), "doc 2 should have been evicted");
        assert!(c.contains(DocId(3)));
        assert!(c.contains(DocId(4)));
        assert!(c.used() <= kb(30));
    }

    #[test]
    fn lru_rejects_oversized_doc() {
        let mut c = ClientCache::new(CacheModel::Lru { capacity: kb(10) });
        c.insert(DocId(1), kb(100));
        assert!(!c.contains(DocId(1)));
        assert_eq!(c.used(), Bytes::ZERO);
    }

    #[test]
    fn peek_does_not_touch() {
        let mut c = ClientCache::new(CacheModel::Lru { capacity: kb(20) });
        c.insert(DocId(1), kb(10));
        c.insert(DocId(2), kb(10));
        // Peek at 1 (no touch), then insert 3: 1 is still LRU → evicted.
        assert!(c.peek(DocId(1)));
        c.insert(DocId(3), kb(10));
        assert!(!c.peek(DocId(1)));
        assert!(c.peek(DocId(2)));
    }

    #[test]
    fn resident_docs_enumerates() {
        let mut c = ClientCache::new(CacheModel::Infinite);
        c.insert(DocId(1), kb(1));
        c.insert(DocId(2), kb(1));
        let mut docs: Vec<u32> = c.resident_docs().map(|d| d.raw()).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![1, 2]);
    }
}
