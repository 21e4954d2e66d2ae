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
//!
//! A replay asks "is this document resident?" on every access, so
//! [`ClientCache`] answers from a `DocId`-indexed bitset under every
//! model — one word test, `catalog.len() / 8` bytes for a client that
//! has seen the whole catalog and nothing for one that never appears —
//! and only `Lru` keeps more: the resident documents in recency order.

use std::collections::VecDeque;

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
    /// Membership: bit `d` is set iff document `d` is resident. Grown to
    /// the largest id inserted, emptied by a session purge.
    resident: Vec<u64>,
    /// `Lru` only: the resident documents and their sizes, least
    /// recently used first — the front is the next victim.
    recency: VecDeque<(DocId, Bytes)>,
    used: Bytes,
    /// Time of this client's previous request (session tracking).
    last_request: Option<SimTime>,
}

/// The word and bit of `doc` in a membership bitset.
fn slot(doc: DocId) -> (usize, u64) {
    (doc.index() / 64, 1 << (doc.index() % 64))
}

impl ClientCache {
    /// A fresh, empty cache.
    pub fn new(model: CacheModel) -> Self {
        ClientCache {
            model,
            resident: Vec::new(),
            recency: VecDeque::new(),
            used: Bytes::ZERO,
            last_request: None,
        }
    }

    /// Bytes currently resident.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Number of resident documents.
    pub fn len(&self) -> usize {
        self.resident.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.resident.iter().all(|&w| w == 0)
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
        let hit = self.peek(doc);
        if hit {
            self.touch(doc);
        }
        hit
    }

    /// Whether `doc` is resident, without touching recency — what a
    /// cooperative digest or a prefetching client asks (peeking must not
    /// distort LRU order).
    pub fn peek(&self, doc: DocId) -> bool {
        let (word, bit) = slot(doc);
        self.resident.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Makes a resident `doc` the most recently used (only `Lru` keeps
    /// an order to move it in).
    fn touch(&mut self, doc: DocId) {
        // Recently used documents are the likely hits: search from the back.
        if let Some(at) = self.recency.iter().rposition(|&(d, _)| d == doc) {
            if let Some(entry) = self.recency.remove(at) {
                self.recency.push_back(entry);
            }
        }
    }

    /// Inserts a document (by client fetch or server push).
    pub fn insert(&mut self, doc: DocId, size: Bytes) {
        match self.model {
            CacheModel::None => return,
            CacheModel::Session { timeout } if timeout == Duration::ZERO => return,
            CacheModel::Lru { capacity } if size > capacity => return, // cannot ever fit
            _ => {}
        }
        if self.peek(doc) {
            self.touch(doc);
            return;
        }
        let (word, bit) = slot(doc);
        if word >= self.resident.len() {
            self.resident.resize(word + 1, 0);
        }
        self.resident[word] |= bit;
        self.used += size;
        if let CacheModel::Lru { capacity } = self.model {
            self.recency.push_back((doc, size));
            while self.used > capacity {
                // `size <= capacity`, so the loop ends before it reaches
                // the document just pushed.
                let Some((victim, freed)) = self.recency.pop_front() else {
                    break;
                };
                let (word, bit) = slot(victim);
                self.resident[word] &= !bit;
                self.used -= freed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// The cache as it was before the bitset: one `BTreeMap` of resident
    /// documents → (last-touch counter, size), every lookup a tree walk
    /// and every eviction a `min_by_key` over it. Kept as the reference
    /// the differential test below replays against.
    struct Oracle {
        model: CacheModel,
        resident: BTreeMap<DocId, (u64, Bytes)>,
        used: Bytes,
        clock: u64,
        last_request: Option<SimTime>,
    }

    impl Oracle {
        fn new(model: CacheModel) -> Self {
            Oracle {
                model,
                resident: BTreeMap::new(),
                used: Bytes::ZERO,
                clock: 0,
                last_request: None,
            }
        }

        fn on_request(&mut self, now: SimTime) -> bool {
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

        fn contains(&mut self, doc: DocId) -> bool {
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

        fn peek(&self, doc: DocId) -> bool {
            self.resident.contains_key(&doc)
        }

        fn insert(&mut self, doc: DocId, size: Bytes) {
            match self.model {
                CacheModel::None => {}
                CacheModel::Session { timeout } if timeout == Duration::ZERO => {}
                CacheModel::Lru { capacity } => {
                    if size > capacity {
                        return;
                    }
                    self.clock += 1;
                    if let Some((touch, _)) = self.resident.get_mut(&doc) {
                        *touch = self.clock;
                        return;
                    }
                    self.resident.insert(doc, (self.clock, size));
                    self.used += size;
                    while self.used > capacity {
                        let Some((&lru, &(_, sz))) =
                            self.resident.iter().min_by_key(|(_, &(t, _))| t)
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
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A request `gap` seconds after the previous one.
        Request(u64),
        Contains(DocId),
        Peek(DocId),
        Insert(DocId),
    }

    /// Session timeout of the differential test, in seconds.
    const TIMEOUT_S: u64 = 60;

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let raw = (0u8..8, 0u32..10, 0u32..100_000, 0u64..TIMEOUT_S);
        prop::collection::vec(raw, 0..200).prop_map(|raw| {
            raw.into_iter()
                .map(|(kind, pick, wide, short)| {
                    // Mostly a small universe so documents collide, hit
                    // and get evicted; now and then a second bitset word
                    // or an id far beyond the bitset's length.
                    let doc = DocId::new(match pick {
                        0..=7 => wide % 24,
                        8 => 60 + wide % 10,
                        _ => 1_000 + wide,
                    });
                    match kind {
                        // Gaps below, one either side of, at, and far
                        // above the timeout.
                        0 => Op::Request(match pick {
                            0..=5 => short,
                            6..=8 => TIMEOUT_S + u64::from(pick) - 7,
                            _ => 10 * TIMEOUT_S,
                        }),
                        1..=3 => Op::Contains(doc),
                        4 => Op::Peek(doc),
                        _ => Op::Insert(doc),
                    }
                })
                .collect()
        })
    }

    /// A document's size is a function of its id, as in a catalog:
    /// 1–8 KiB, except that every seventh is larger than the LRU below.
    fn size_of(doc: DocId) -> Bytes {
        match doc.raw() % 7 {
            0 => kb(64),
            r => kb(u64::from(r) + 1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn bitset_cache_equals_the_btreemap_cache(ops in ops()) {
            let models = [
                CacheModel::None,
                CacheModel::Infinite,
                CacheModel::Lru { capacity: kb(20) },
                CacheModel::Session { timeout: Duration::from_secs(TIMEOUT_S) },
                CacheModel::Session { timeout: Duration::ZERO },
                CacheModel::Session { timeout: Duration::INFINITE },
            ];
            for model in models {
                let (mut cache, mut oracle) = (ClientCache::new(model), Oracle::new(model));
                let mut now = 0;
                for op in &ops {
                    match *op {
                        Op::Request(gap) => {
                            now += gap;
                            let t = SimTime::from_secs(now);
                            prop_assert_eq!(cache.on_request(t), oracle.on_request(t));
                        }
                        Op::Contains(d) => prop_assert_eq!(cache.contains(d), oracle.contains(d)),
                        Op::Peek(d) => prop_assert_eq!(cache.peek(d), oracle.peek(d)),
                        Op::Insert(d) => {
                            cache.insert(d, size_of(d));
                            oracle.insert(d, size_of(d));
                        }
                    }
                    // Same residents (so every LRU victim so far was the
                    // oracle's), same accounting.
                    prop_assert_eq!(cache.used(), oracle.used, "{:?} after {:?}", model, op);
                    prop_assert_eq!(cache.len(), oracle.resident.len());
                    prop_assert_eq!(cache.is_empty(), oracle.resident.is_empty());
                    for &d in oracle.resident.keys() {
                        prop_assert!(cache.peek(d), "{:?} lost {:?} after {:?}", model, d, op);
                    }
                }
            }
        }
    }
}
