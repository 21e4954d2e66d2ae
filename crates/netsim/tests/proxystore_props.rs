//! Property tests for the proxy store: accounting invariants must hold
//! under arbitrary interleavings of installs, quota changes and
//! shedding, and the store must answer exactly as the `BTreeMap` store
//! it replaced.

use std::collections::BTreeMap;

use proptest::prelude::*;
use specweb_core::ids::{DocId, ServerId};
use specweb_core::units::Bytes;
use specweb_netsim::proxystore::ProxyStore;

/// One operation against the store.
#[derive(Debug, Clone)]
enum Op {
    SetQuota { server: u8, kib: u16 },
    Install { server: u8, doc: u32, kib: u16 },
    Shed { factor_pct: u8 },
    Contains { server: u8, doc: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u16..256).prop_map(|(server, kib)| Op::SetQuota { server, kib }),
        (0u8..4, 0u32..64, 1u16..64).prop_map(|(server, doc, kib)| Op::Install {
            server,
            doc,
            kib
        }),
        (0u8..=100).prop_map(|factor_pct| Op::Shed { factor_pct }),
    ]
}

/// The store as it was before the bitset: replicas in a `BTreeMap` by
/// server, membership in a `BTreeMap` by document. Kept as the reference
/// the differential test below replays against.
#[derive(Default)]
struct BTreeStore {
    capacity: u64,
    used: u64,
    replicas: BTreeMap<u8, BTreeReplica>,
}

#[derive(Default)]
struct BTreeReplica {
    quota: u64,
    used: u64,
    docs: Vec<(u32, u64)>,
    member: BTreeMap<u32, u64>,
}

impl BTreeStore {
    fn set_quota(&mut self, server: u8, quota: u64) {
        let rep = self.replicas.entry(server).or_default();
        rep.quota = quota;
        while rep.used > rep.quota {
            let Some((doc, size)) = rep.docs.pop() else {
                break;
            };
            rep.member.remove(&doc);
            rep.used -= size;
            self.used -= size;
        }
    }

    fn install(&mut self, server: u8, doc: u32, size: u64) -> bool {
        let rep = self.replicas.entry(server).or_default();
        if rep.member.contains_key(&doc) {
            return true;
        }
        if rep.used + size > rep.quota || self.used + size > self.capacity {
            return false;
        }
        rep.docs.push((doc, size));
        rep.member.insert(doc, size);
        rep.used += size;
        self.used += size;
        true
    }

    fn contains(&self, server: u8, doc: u32) -> bool {
        self.replicas
            .get(&server)
            .is_some_and(|r| r.member.contains_key(&doc))
    }

    fn shed(&mut self, factor: f64) {
        let servers: Vec<u8> = self.replicas.keys().copied().collect();
        for s in servers {
            let quota = (self.replicas[&s].quota as f64 * factor).floor() as u64;
            self.set_quota(s, quota);
        }
    }
}

/// Mostly a handful of documents per server so installs collide and
/// evict; now and then a second bitset word or an id far beyond it.
fn doc_strategy() -> impl Strategy<Value = u32> {
    (0u8..8, 0u32..1_000_000).prop_map(|(pick, wide)| match pick {
        0..=5 => wide % 40,
        6 => 60 + wide % 140,
        _ => 10_000 + wide,
    })
}

fn differential_op() -> impl Strategy<Value = Op> {
    let install = || {
        (0u8..5, doc_strategy(), 1u16..64).prop_map(|(server, doc, kib)| Op::Install {
            server,
            doc,
            kib,
        })
    };
    let contains =
        || (0u8..6, doc_strategy()).prop_map(|(server, doc)| Op::Contains { server, doc });
    // Installs and lookups three and two times as often as the rest.
    prop_oneof![
        (0u8..5, 0u16..256).prop_map(|(server, kib)| Op::SetQuota { server, kib }),
        install(),
        install(),
        install(),
        (0u8..=100).prop_map(|factor_pct| Op::Shed { factor_pct }),
        contains(),
        contains(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_accounting_invariants(
        capacity_kib in 16u64..512,
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let capacity = Bytes::from_kib(capacity_kib);
        let mut store = ProxyStore::new(capacity);
        // Shadow model: per-server resident docs and sizes.
        let mut model: std::collections::HashMap<u8, std::collections::HashMap<u32, u64>> =
            std::collections::HashMap::new();

        for op in &ops {
            match *op {
                Op::SetQuota { server, kib } => {
                    store.set_quota(ServerId::new(server.into()), Bytes::from_kib(kib.into()));
                    // The store may evict; resync the shadow below.
                }
                Op::Install { server, doc, kib } => {
                    let r = store.install(
                        ServerId::new(server.into()),
                        DocId::new(doc),
                        Bytes::from_kib(kib.into()),
                    );
                    if r.is_ok() {
                        // Mirror the store's idempotence: a re-install of
                        // a held doc keeps the original size.
                        model
                            .entry(server)
                            .or_default()
                            .entry(doc)
                            .or_insert(u64::from(kib) * 1024);
                    }
                }
                Op::Shed { factor_pct } => {
                    store.shed(f64::from(factor_pct) / 100.0).unwrap();
                }
                Op::Contains { .. } => {}
            }
            // Resync shadow against the store's own view (evictions are
            // the store's prerogative; membership must only shrink from
            // the tail, which the unit tests check — here we check the
            // global invariants).
            for (server, docs) in model.iter_mut() {
                docs.retain(|doc, _| {
                    store.contains(ServerId::new((*server).into()), DocId::new(*doc))
                });
            }

            // Invariant 1: used never exceeds capacity.
            prop_assert!(store.used() <= capacity);
            // Invariant 2: per-server usage never exceeds its quota.
            for s in 0u8..4 {
                let sid = ServerId::new(s.into());
                prop_assert!(store.used_by(sid) <= store.quota(sid),
                    "server {s}: used {} > quota {}", store.used_by(sid), store.quota(sid));
            }
            // Invariant 3: used equals the sum of resident doc sizes.
            let model_total: u64 = model.values().flat_map(|d| d.values()).sum();
            prop_assert_eq!(store.used().get(), model_total);
            // Invariant 4: doc counts agree.
            for s in 0u8..4 {
                let sid = ServerId::new(s.into());
                let n = model.get(&s).map_or(0, |d| d.len());
                prop_assert_eq!(store.doc_count(sid), n);
            }
        }
    }

    #[test]
    fn bitset_store_equals_the_btreemap_store(
        capacity_kib in 16u64..768,
        ops in prop::collection::vec(differential_op(), 1..120),
    ) {
        let mut store = ProxyStore::new(Bytes::from_kib(capacity_kib));
        let mut oracle = BTreeStore { capacity: capacity_kib * 1024, ..BTreeStore::default() };
        let mut probed: Vec<u32> = Vec::new();
        for op in &ops {
            match *op {
                Op::SetQuota { server, kib } => {
                    store.set_quota(ServerId::new(server.into()), Bytes::from_kib(kib.into()));
                    oracle.set_quota(server, u64::from(kib) * 1024);
                }
                Op::Install { server, doc, kib } => {
                    let size = u64::from(kib) * 1024;
                    let ok = store
                        .install(ServerId::new(server.into()), DocId::new(doc), Bytes::new(size))
                        .is_ok();
                    prop_assert_eq!(ok, oracle.install(server, doc, size), "{:?}", op);
                    probed.push(doc);
                }
                Op::Shed { factor_pct } => {
                    let factor = f64::from(factor_pct) / 100.0;
                    store.shed(factor).unwrap();
                    oracle.shed(factor);
                }
                Op::Contains { server, doc } => {
                    prop_assert_eq!(
                        store.contains(ServerId::new(server.into()), DocId::new(doc)),
                        oracle.contains(server, doc),
                        "{:?}", op
                    );
                    probed.push(doc);
                }
            }
            // Same accounting and the same members after every step:
            // every evicted document was the oracle's victim too.
            prop_assert_eq!(store.used().get(), oracle.used, "after {:?}", op);
            for s in 0u8..6 {
                let sid = ServerId::new(s.into());
                let rep = oracle.replicas.get(&s);
                prop_assert_eq!(store.quota(sid).get(), rep.map_or(0, |r| r.quota));
                prop_assert_eq!(store.used_by(sid).get(), rep.map_or(0, |r| r.used));
                prop_assert_eq!(store.doc_count(sid), rep.map_or(0, |r| r.docs.len()));
                for &d in &probed {
                    prop_assert_eq!(
                        store.contains(sid, DocId::new(d)),
                        oracle.contains(s, d),
                        "server {} doc {} after {:?}", s, d, op
                    );
                }
            }
        }
    }
}
