//! The cluster-sharded replay kernel (DESIGN.md §12).
//!
//! The paper evaluates both of its protocols the same way — replay one
//! server log over the clientele tree, with and without the protocol
//! (§2.2, §3.2) — so both simulators split and reassemble that replay
//! the same way, and this module is the one place that knows how:
//!
//! 1. **Partition.** [`ClusterShards::partition`] assigns each client
//!    to the shard of the root-child subtree ([`Topology::root_child`])
//!    it lives under, shards ordered by cluster node id, and gives it a
//!    slot among the clients of its cluster, so a part holds per-client
//!    state for the clients it owns ([`ShardClients`]), not for the
//!    whole population once per shard. It holds O(clients), no access
//!    indices.
//! 2. **Gate.** [`ClusterShards::replay_sharded`] shards only when that
//!    can pay: more than one shard *and* more than one worker in the
//!    process-default pool. Only then does it gather each shard's access
//!    indices, in trace order, for that one replay; with one worker the
//!    part closure gets the whole trace in a single pass and nothing is
//!    gathered.
//! 3. **Fold.** Partial outcomes fold into `T::default()` in shard
//!    order, whatever order the workers finished in.
//!
//! The kernel knows nothing of caches, proxies or faults. That the fold
//! equals a serial pass is the caller's obligation: all replay state
//! must be local to one root-child subtree and every accumulator an
//! order-independent sum. Each simulator argues that for its own policy
//! body and pins it with a sharded ≡ serial differential test.

use specweb_core::ids::NodeId;
use specweb_core::par::Pool;

use crate::topology::Topology;

/// Static partition of a client population by root-child cluster.
#[derive(Debug, Clone)]
pub struct ClusterShards {
    /// `shard_of[c]`: the shard client `c` belongs to.
    shard_of: Vec<usize>,
    /// `slot_of[c]`: client `c`'s rank among the clients of its shard.
    slot_of: Vec<usize>,
    /// Clients per shard.
    shard_clients: Vec<usize>,
}

/// The clients whose accesses one `part` call receives, and where each
/// keeps its state: a part allocates `len()` per-client states and
/// finds client `c`'s at `slot(c)`.
#[derive(Debug, Clone, Copy)]
pub struct ShardClients<'s> {
    len: usize,
    /// `None` on the single-pass path: every client, at its own index.
    slot_of: Option<&'s [usize]>,
}

impl ShardClients<'_> {
    /// Number of clients this part owns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this part owns no client.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where client `client` (an index into the partition's
    /// `client_nodes`) keeps its state, below [`ShardClients::len`].
    #[inline]
    pub fn slot(&self, client: usize) -> usize {
        self.slot_of.map_or(client, |slots| slots[client])
    }
}

impl ClusterShards {
    /// Partitions clients by cluster. `client_nodes[c]` is the node
    /// client `c` attaches at.
    pub fn partition(topo: &Topology, client_nodes: &[NodeId]) -> ClusterShards {
        let cluster_of: Vec<NodeId> = client_nodes.iter().map(|&n| topo.root_child(n)).collect();
        let mut clusters = cluster_of.clone();
        clusters.sort_unstable();
        clusters.dedup();
        let shard_of: Vec<usize> = cluster_of
            .iter()
            .map(|c| clusters.partition_point(|x| x < c))
            .collect();
        let mut shard_clients = vec![0usize; clusters.len()];
        let slot_of = shard_of
            .iter()
            .map(|&s| {
                shard_clients[s] += 1;
                shard_clients[s] - 1
            })
            .collect();
        ClusterShards {
            shard_of,
            slot_of,
            shard_clients,
        }
    }

    /// Each shard's access indices, ascending: access `i` belongs to
    /// the shard of client `client_of(&accesses[i])`.
    fn gather<A>(&self, accesses: &[A], client_of: impl Fn(&A) -> usize) -> Vec<Vec<usize>> {
        let mut shards = vec![Vec::new(); self.shard_clients.len()];
        for (i, a) in accesses.iter().enumerate() {
            shards[self.shard_of[client_of(a)]].push(i);
        }
        shards
    }

    /// Every client at its own index: what `part` receives when the
    /// whole trace goes through it in one pass.
    pub fn all_clients(&self) -> ShardClients<'_> {
        ShardClients {
            len: self.slot_of.len(),
            slot_of: None,
        }
    }

    /// Number of shards (distinct clusters with a client in them).
    pub fn n_shards(&self) -> usize {
        self.shard_clients.len()
    }

    /// Replays `accesses` through `part`, which receives them in trace
    /// order together with the clients they belong to — everything in
    /// one call, or one call per shard's gathered subsequence on
    /// `core::par` with the results combined by `fold` in shard order
    /// (see the module docs for the gate). `client_of` names an access's
    /// client, an index into the partition's `client_nodes`. A failing
    /// shard surfaces as the first error in shard order.
    pub fn replay_sharded<A, T, E>(
        &self,
        accesses: &[A],
        client_of: impl Fn(&A) -> usize,
        part: impl Fn(ShardClients<'_>, &mut dyn Iterator<Item = &A>) -> Result<T, E> + Sync,
        mut fold: impl FnMut(&mut T, T),
    ) -> Result<T, E>
    where
        A: Sync,
        T: Default + Send,
        E: Send,
    {
        let pool = Pool::auto();
        if self.n_shards() > 1 && pool.jobs() > 1 {
            let shards = self.gather(accesses, client_of);
            let parts = pool.try_map_indexed(&shards, |shard, idxs| {
                let clients = ShardClients {
                    len: self.shard_clients[shard],
                    slot_of: Some(&self.slot_of),
                };
                part(clients, &mut idxs.iter().map(|&i| &accesses[i]))
            })?;
            let mut whole = T::default();
            for p in parts {
                fold(&mut whole, p);
            }
            Ok(whole)
        } else {
            part(self.all_clients(), &mut accesses.iter())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use specweb_core::rng::SeedTree;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The worker count is process-wide and these tests assert on the
    /// gate it drives, so whoever pins it holds this lock meanwhile.
    static JOBS: Mutex<()> = Mutex::new(());

    fn pin_jobs() -> std::sync::MutexGuard<'static, ()> {
        JOBS.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Integer-sum outcome of the toy policy.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Toy {
        weighted: u64,
        repeats: u64,
    }

    /// A toy policy with per-client state: each access `(client, doc)`
    /// is weighted by how many accesses that client made before it, and
    /// counted when it repeats the client's previous document — so the
    /// result depends on every client seeing its accesses in trace order.
    /// It holds state for the clients it is handed and no others, so a
    /// slot shared by two clients of a shard, or one past `len()`, shows.
    fn toy(clients: ShardClients<'_>, accesses: &mut dyn Iterator<Item = &(usize, u64)>) -> Toy {
        let mut seen = vec![0u64; clients.len()];
        let mut last = vec![u64::MAX; clients.len()];
        let mut out = Toy::default();
        for &(c, doc) in accesses {
            let c = clients.slot(c);
            seen[c] += 1;
            out.weighted += doc * seen[c];
            out.repeats += u64::from(last[c] == doc);
            last[c] = doc;
        }
        out
    }

    /// Sharded fold ≡ one serial pass at jobs 1/2/4, and the gate calls
    /// `part` once per shard exactly when it can pay.
    fn check(topo: &Topology, nodes: &[NodeId], accesses: &[(usize, u64)]) {
        let shards = ClusterShards::partition(topo, nodes);
        // The gather: every index once, ascending within a shard, one
        // cluster per shard, shards ordered by cluster id.
        let gathered = shards.gather(accesses, |a| a.0);
        let mut all: Vec<usize> = gathered.concat();
        all.sort_unstable();
        assert_eq!(all, (0..accesses.len()).collect::<Vec<_>>());
        let cluster_of = |i: usize| topo.root_child(nodes[accesses[i].0]);
        for shard in &gathered {
            assert!(shard.windows(2).all(|w| w[0] < w[1]));
        }
        let mut clusters: Vec<NodeId> = nodes.iter().map(|&n| topo.root_child(n)).collect();
        clusters.sort_unstable();
        clusters.dedup();
        assert_eq!(shards.n_shards(), clusters.len());
        assert_eq!(gathered.len(), clusters.len());
        for (shard, &cluster) in gathered.iter().zip(&clusters) {
            assert!(shard.iter().all(|&i| cluster_of(i) == cluster));
        }

        // The slots: each shard's clients fill `0..its count`, and the
        // counts add up to the population.
        assert_eq!(shards.shard_clients.iter().sum::<usize>(), nodes.len());
        for (s, &cluster) in clusters.iter().enumerate() {
            let mut slots: Vec<usize> = (0..nodes.len())
                .filter(|&c| topo.root_child(nodes[c]) == cluster)
                .map(|c| shards.slot_of[c])
                .collect();
            slots.sort_unstable();
            assert_eq!(slots, (0..shards.shard_clients[s]).collect::<Vec<_>>());
        }

        let serial = toy(shards.all_clients(), &mut accesses.iter());
        let _pinned = pin_jobs();
        for jobs in [1, 2, 4] {
            specweb_core::par::set_default_jobs(jobs);
            let calls = AtomicUsize::new(0);
            let folded = shards
                .replay_sharded(
                    accesses,
                    |a| a.0,
                    |clients, accs| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        Ok::<_, ()>(toy(clients, accs))
                    },
                    |whole: &mut Toy, part| {
                        whole.weighted += part.weighted;
                        whole.repeats += part.repeats;
                    },
                )
                .unwrap();
            assert_eq!(folded, serial, "jobs={jobs}");
            let sharded = jobs > 1 && shards.n_shards() > 1;
            let expect = if sharded { shards.n_shards() } else { 1 };
            assert_eq!(calls.load(Ordering::Relaxed), expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_trace_and_single_cluster_stay_serial() {
        let topo = Topology::balanced(2, 3, 2);
        let leaves = topo.leaves();
        check(&topo, &[], &[]);
        check(&topo, &[leaves[0], leaves[17]], &[]);
        // Everyone at the root, and everyone under one root child.
        let trace = [(0, 7), (1, 7), (0, 7), (1, 3)];
        check(&topo, &[Topology::ROOT, Topology::ROOT], &trace);
        check(&topo, &[leaves[0], leaves[1]], &trace);
    }

    #[test]
    fn first_error_in_shard_order_wins() {
        let _pinned = pin_jobs();
        specweb_core::par::set_default_jobs(2);
        let topo = Topology::two_level(3, 1);
        let nodes = topo.leaves().to_vec();
        let shards = ClusterShards::partition(&topo, &nodes);
        let failed = shards.replay_sharded(
            &[2usize, 1, 0],
            |&c| c,
            |_, accs| match accs.next() {
                Some(&c) if c > 0 => Err(c),
                _ => Ok(0u64),
            },
            |whole, part| *whole += part,
        );
        assert_eq!(failed, Err(1), "client 1's cluster precedes client 2's");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sharded_fold_equals_one_serial_pass(
            seed in 0u64..500,
            placement in prop::collection::vec(0usize..1000, 2..12),
            trace in prop::collection::vec((0usize..1000, 0u64..50), 0..300),
        ) {
            let topo = Topology::random(&SeedTree::new(seed), 12, 30, 4);
            // Clients anywhere in the tree — plus one at the root and one
            // directly under it (node 1 is always the root's first child).
            let mut nodes: Vec<NodeId> =
                placement.iter().map(|&p| NodeId::new((p % topo.len()) as u32)).collect();
            nodes[0] = Topology::ROOT;
            nodes[1] = NodeId::new(1);
            prop_assert_eq!(topo.parent(nodes[1]), Topology::ROOT);
            let accesses: Vec<(usize, u64)> =
                trace.iter().map(|&(c, doc)| (c % nodes.len(), doc)).collect();
            check(&topo, &nodes, &accesses);
        }
    }
}
