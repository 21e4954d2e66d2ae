//! The top-level trace generator.
//!
//! Produces a time-ordered access trace by simulating browsing sessions
//! over per-server [`SiteGraph`]s, with a client population attached to
//! a netsim topology. The generator is the documented substitution for
//! the paper's `cs-www.bu.edu` logs (see DESIGN.md): every distributional
//! property the paper reports is either built in by construction
//! (embedding deps, 1/k link choice, session/stride timing) or
//! calibrated by configuration (popularity skew, local/remote mix,
//! update rates).
//!
//! Generation is **day-sharded** (DESIGN.md §12): each day draws its
//! randomness from its own `SeedTree` child (`child_idx("day-sessions",
//! day)`), session ids are derived arithmetically (`day ×
//! sessions_per_day + i`), and site-graph churn is folded by each worker
//! on its own copy of the graphs — the rounds of the days before its run
//! first, then each day's round right after that day's sessions, every
//! round from its own `child_idx("churn", day)` stream — so days are
//! independent work items, no graph is copied per day, and the merged
//! trace is byte-identical for any worker count. The merged day blocks
//! are then ordered one day at a time in linear time ([`order_days`]).

use rand::Rng;
use serde::{Deserialize, Serialize};
use specweb_core::dist::Zipf;
use specweb_core::ids::{ClientId, DocId, ServerId};
use specweb_core::rng::SeedTree;
use specweb_core::time::{Duration, SimTime};
use specweb_core::Result;
use specweb_netsim::topology::Topology;

use crate::clients::{ClientConfig, ClientPopulation, Locality};
use crate::document::{Catalog, SizeModel};
use crate::session::SessionTiming;
use crate::sitegraph::{SiteGraph, SiteGraphConfig};

/// One access record — the unit both simulators consume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Access {
    /// When the request was issued.
    pub time: SimTime,
    /// The requesting client.
    pub client: ClientId,
    /// The requested document.
    pub doc: DocId,
    /// The document's home server.
    pub server: ServerId,
    /// Whether the client is local to the producing organization.
    pub locality: Locality,
    /// The generator's session id (ground truth; analyzers must
    /// *re-derive* sessions from timing, this is for validation only).
    /// Derived as `day × sessions_per_day + i`, so it is stable under
    /// day-sharding and cannot wrap at million-client scale (a `u32`
    /// would silently overflow past 2^32 sessions).
    pub session: u64,
}

/// A complete generated workload.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Time-ordered accesses.
    pub accesses: Vec<Access>,
    /// The document catalog.
    pub catalog: Catalog,
    /// One site graph per server (index = server id). These reflect the
    /// *final* state after any link churn.
    pub graphs: Vec<SiteGraph>,
    /// The client population.
    pub clients: ClientPopulation,
    /// Total simulated span.
    pub duration: Duration,
    /// Number of sessions generated.
    pub n_sessions: u64,
}

impl Trace {
    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Per-document request counts, indexed by doc id.
    pub fn request_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.catalog.len()];
        for a in &self.accesses {
            counts[a.doc.index()] += 1;
        }
        counts
    }

    /// Per-document (remote, local) request counts.
    pub fn remote_local_counts(&self) -> Vec<(u64, u64)> {
        let mut counts = vec![(0u64, 0u64); self.catalog.len()];
        for a in &self.accesses {
            match a.locality {
                Locality::Remote => counts[a.doc.index()].0 += 1,
                Locality::Local => counts[a.doc.index()].1 += 1,
            }
        }
        counts
    }

    /// Whole days the trace spans. Every access falls on a day in
    /// `0..=days()`, so estimates for the boundaries in `[0, days()]`
    /// cover the whole replay.
    pub fn days(&self) -> u64 {
        self.duration.as_millis() / Duration::DAY.as_millis()
    }

    /// The accesses of day `d` (zero-based) as a subslice. The trace is
    /// time-ordered, so this is a binary-search slice.
    pub fn day_slice(&self, d: u64) -> &[Access] {
        let start = self
            .accesses
            .partition_point(|a| a.time < SimTime::from_days(d));
        let end = self
            .accesses
            .partition_point(|a| a.time < SimTime::from_days(d + 1));
        &self.accesses[start..end]
    }

    /// Number of distinct clients that appear in the trace.
    pub fn active_clients(&self) -> usize {
        let mut seen = vec![false; self.clients.len()];
        let mut n = 0;
        for a in &self.accesses {
            if !seen[a.client.index()] {
                seen[a.client.index()] = true;
                n += 1;
            }
        }
        n
    }
}

/// Full generator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Number of home servers (1 for the speculative-service experiments,
    /// `n` for cluster-dissemination experiments).
    pub n_servers: usize,
    /// Site-graph structure (per server).
    pub site: SiteGraphConfig,
    /// Client-population parameters.
    pub clients: ClientConfig,
    /// Session timing parameters.
    pub timing: SessionTiming,
    /// Trace span in days (paper: 60-day history + 30-day evaluation).
    pub duration_days: u64,
    /// Sessions started per day across the whole population.
    pub sessions_per_day: usize,
    /// Whether to use the media-heavy size model.
    pub media_sizes: bool,
    /// Per-day probability that a page's out-links are re-targeted
    /// (site evolution; drives the §3.4 staleness experiment).
    pub link_churn_per_day: f64,
    /// Zipf exponent over servers (which server a session lands on);
    /// 0 = uniform.
    pub server_theta: f64,
}

impl TraceConfig {
    /// The `cs-www.bu.edu`-flavored preset: one server, ~1000 documents,
    /// 2000 clients, 90 days, ≈200k accesses.
    pub fn bu_www(seed: u64) -> TraceConfig {
        TraceConfig {
            seed,
            n_servers: 1,
            site: SiteGraphConfig::default(),
            clients: ClientConfig::default(),
            timing: SessionTiming::default(),
            duration_days: 90,
            sessions_per_day: 150,
            media_sizes: false,
            link_churn_per_day: 0.002,
            server_theta: 0.0,
        }
    }

    /// A media-heavy preset (Rolling-Stones-like: few, huge documents,
    /// overwhelmingly remote clientele).
    pub fn media_site(seed: u64) -> TraceConfig {
        TraceConfig {
            seed,
            n_servers: 1,
            site: SiteGraphConfig {
                n_pages: 120,
                mean_embedded: 2.5,
                max_links: 5,
                zipf_theta: 1.1,
                assortativity: 0.9,
                shared_object_pool: 10,
                shared_frac: 0.7,
            },
            clients: ClientConfig {
                n_clients: 4_000,
                local_fraction: 0.03,
                local_activity_boost: 2.0,
                activity_theta: 0.6,
            },
            timing: SessionTiming::default(),
            duration_days: 30,
            sessions_per_day: 400,
            media_sizes: true,
            link_churn_per_day: 0.0,
            server_theta: 0.0,
        }
    }

    /// A multi-server cluster preset for the dissemination experiments:
    /// `n` servers of varying popularity behind a shared hierarchy.
    pub fn cluster(seed: u64, n_servers: usize) -> TraceConfig {
        TraceConfig {
            seed,
            n_servers,
            site: SiteGraphConfig {
                n_pages: 200,
                ..SiteGraphConfig::default()
            },
            clients: ClientConfig {
                n_clients: 3_000,
                local_fraction: 0.15,
                local_activity_boost: 3.0,
                activity_theta: 0.7,
            },
            timing: SessionTiming::default(),
            duration_days: 30,
            sessions_per_day: 300,
            media_sizes: false,
            link_churn_per_day: 0.0,
            server_theta: 0.8,
        }
    }

    /// A small, fast preset for tests.
    pub fn small(seed: u64) -> TraceConfig {
        TraceConfig {
            seed,
            n_servers: 1,
            site: SiteGraphConfig {
                n_pages: 60,
                mean_embedded: 0.8,
                max_links: 4,
                zipf_theta: 0.9,
                assortativity: 0.9,
                shared_object_pool: 10,
                shared_frac: 0.7,
            },
            clients: ClientConfig {
                n_clients: 80,
                local_fraction: 0.25,
                local_activity_boost: 3.0,
                activity_theta: 0.7,
            },
            timing: SessionTiming::default(),
            duration_days: 10,
            sessions_per_day: 40,
            media_sizes: false,
            link_churn_per_day: 0.0,
            server_theta: 0.0,
        }
    }
}

/// Upper bound on `duration_days × sessions_per_day`: far above any
/// realistic workload (a century of a million sessions a day), but low
/// enough that every derived product (`× ~12 accesses × size_of::<Access>`)
/// stays inside `u64` arithmetic.
pub const MAX_TOTAL_SESSIONS: u64 = 1 << 40;

/// Upper bound on the simulated duration alone: almost three millennia.
/// `MAX_TOTAL_SESSIONS` caps the *product*, but with
/// `sessions_per_day == 0` the product check passes vacuously while the
/// generator still walks every day (the day list its runs are cut from,
/// one churn round per day) — so the day count needs its own ceiling.
pub const MAX_DURATION_DAYS: u64 = 1 << 20;

/// Accesses reserved per session in a run's buffer. `bu_www` worlds
/// generate 13.4–14.4 per session (nine page visits and the embedded
/// objects the session's memory cache lets through), so a run's buffer
/// is filled once and never regrown; unwritten capacity costs address
/// space, not resident memory.
const ACCESSES_PER_SESSION: usize = 16;

/// Width of a day sort's buckets: one minute of simulated time. A day
/// of `bu_www` sessions spreads its accesses over ≈ 1 440 buckets of a
/// few entries each.
const BUCKET_MS: u64 = 60_000;

/// Buckets (and slices) at most this long are finished by insertion
/// sort; longer ones by `sort_unstable_by_key`, so a dense day cannot
/// take a quadratic path.
const INSERTION_MAX: usize = 24;

/// The trace's total order. Two accesses equal on all four fields are
/// equal outright (`server` follows from `doc`, `locality` from
/// `client`), so every correct sort on this key yields the same bytes.
fn order_key(a: &Access) -> (SimTime, ClientId, DocId, u64) {
    (a.time, a.client, a.doc, a.session)
}

/// Sorts a short slice on [`order_key`] by insertion.
fn insertion_sort(v: &mut [Access]) {
    for i in 1..v.len() {
        let mut j = i;
        while j > 0 && order_key(&v[j]) < order_key(&v[j - 1]) {
            v.swap(j, j - 1);
            j -= 1;
        }
    }
}

/// A bucket sort on [`order_key`] whose buffers are reused from one
/// slice to the next.
#[derive(Debug, Default)]
struct BucketSort {
    /// A copy of the slice, scattered back into it bucket by bucket.
    scratch: Vec<Access>,
    /// Per bucket: its start, then (after the scatter) its end.
    ends: Vec<usize>,
}

impl BucketSort {
    /// Sorts `slice` on [`order_key`]: scatters it into buckets of
    /// [`BUCKET_MS`] (widened so that there are never more buckets than
    /// entries) counted from its earliest time, then finishes each
    /// bucket on the full key. The scatter is stable, so a session's
    /// accesses keep their ascending generation order inside a bucket
    /// and the insertion sort has little to move; an in-place
    /// (swapping) scatter loses that and took twice as long.
    fn sort(&mut self, slice: &mut [Access]) {
        if slice.len() <= INSERTION_MAX {
            insertion_sort(slice);
            return;
        }
        let lo = slice.iter().map(|a| a.time).min().unwrap_or(SimTime::ZERO);
        let hi = slice.iter().map(|a| a.time).max().unwrap_or(SimTime::ZERO);
        let span = hi.as_millis() - lo.as_millis();
        // `span / width < len`, so the bucket count is bounded by the
        // slice, however far forward a tail reaches.
        let width = (span / slice.len() as u64 + 1).max(BUCKET_MS);
        let bucket = |t: SimTime| ((t.as_millis() - lo.as_millis()) / width) as usize;
        self.ends.clear();
        self.ends.resize(bucket(hi) + 1, 0);
        for a in slice.iter() {
            self.ends[bucket(a.time)] += 1;
        }
        let mut start = 0;
        for slot in &mut self.ends {
            let n = *slot;
            *slot = start;
            start += n;
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(slice);
        for a in &self.scratch {
            let slot = &mut self.ends[bucket(a.time)];
            slice[*slot] = *a;
            *slot += 1;
        }
        let mut from = 0;
        for &to in &self.ends {
            let run = &mut slice[from..to];
            if run.len() <= INSERTION_MAX {
                insertion_sort(run);
            } else {
                run.sort_unstable_by_key(order_key);
            }
            from = to;
        }
    }
}

/// Orders `out` on [`order_key`], given that `out[..start]` is already
/// ordered and that no access of `out[start..]` is before `midnight`.
/// Only the tail of the ordered prefix at or after `midnight` can
/// interleave with the new block, so that tail and the block are sorted
/// together; everything before the tail is below both.
fn order_day(out: &mut [Access], start: usize, midnight: SimTime, sorter: &mut BucketSort) {
    let tail = out[..start].partition_point(|a| a.time < midnight);
    sorter.sort(&mut out[tail..]);
}

/// Orders a trace laid out as consecutive day blocks — block `d`
/// holding day `d`'s sessions in generation order, `day_lens[d]` long —
/// one day at a time. Every access of day `d`'s sessions is at
/// or after day `d`'s midnight, so by induction `accesses[..end]` is
/// ordered after each day's [`order_day`]; the key is total, so the
/// bytes are those of a global sort, in time linear in the trace (plus
/// the short midnight tails, sorted again with the next day).
fn order_days(accesses: &mut [Access], day_lens: &[usize]) {
    let mut sorter = BucketSort::default();
    let mut end = 0usize;
    for (day, &len) in (0..).zip(day_lens) {
        // The block lengths sum to `accesses.len()`, so this never saturates.
        let start = end;
        end = start.saturating_add(len);
        order_day(
            &mut accesses[..end],
            start,
            SimTime::from_days(day),
            &mut sorter,
        );
    }
}

/// What every day of a generation reads, built once before the days fan
/// out. `graphs` is the site before any churn round.
struct World {
    catalog: Catalog,
    graphs: Vec<SiteGraph>,
    clients: ClientPopulation,
    server_zipf: Zipf,
}

/// Day `day`'s link-churn round over every server's graph, drawn from
/// its own `child_idx("churn", day)` stream.
fn churn_round(seed: &SeedTree, day: u64, graphs: &mut [SiteGraph], churn: f64) {
    let mut rng = seed.child_idx("churn", day).rng();
    for g in graphs {
        g.churn_links(&mut rng, churn);
    }
}

/// The trace generator.
#[derive(Debug)]
pub struct TraceGenerator {
    cfg: TraceConfig,
}

impl TraceGenerator {
    /// Creates a generator.
    pub fn new(cfg: TraceConfig) -> Result<Self> {
        if cfg.n_servers == 0 {
            return Err(specweb_core::CoreError::invalid_config(
                "trace.n_servers",
                "must be positive",
            ));
        }
        if cfg.duration_days == 0 {
            return Err(specweb_core::CoreError::invalid_config(
                "trace.duration_days",
                "must be positive",
            ));
        }
        if cfg.duration_days > MAX_DURATION_DAYS {
            return Err(specweb_core::CoreError::invalid_config(
                "trace.duration_days",
                "exceeds MAX_DURATION_DAYS (1 << 20)",
            ));
        }
        if !(0.0..=1.0).contains(&cfg.link_churn_per_day) {
            return Err(specweb_core::CoreError::invalid_config(
                "trace.link_churn_per_day",
                "must be in [0, 1]",
            ));
        }
        // The total session count feeds capacity preallocations and the
        // arithmetic session ids; an unchecked product here is how the
        // old code could over-allocate gigabytes (or overflow `usize` on
        // 32-bit hosts) at million-client scale.
        match cfg.duration_days.checked_mul(cfg.sessions_per_day as u64) {
            Some(total) if total <= MAX_TOTAL_SESSIONS => {}
            _ => {
                return Err(specweb_core::CoreError::invalid_config(
                    "trace.duration_days × trace.sessions_per_day",
                    "session volume overflows the generator's bound",
                ));
            }
        }
        Ok(TraceGenerator { cfg })
    }

    /// The configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Generates the trace over the given topology (clients attach to
    /// its leaves), fanning days out over the process-default worker
    /// count. Byte-identical for any worker count. Under an installed
    /// [`specweb_core::obs::Obs`] each generation adds its volume to the
    /// run's `trace.accesses_generated` / `trace.sessions_generated`
    /// (deterministic channel).
    pub fn generate(&self, topo: &Topology) -> Result<Trace> {
        self.generate_with_jobs(topo, specweb_core::par::default_jobs())
    }

    /// [`TraceGenerator::generate`] with an explicit worker count.
    ///
    /// Each day is an independent work item: its sessions draw from
    /// `seed.child_idx("day-sessions", day)` and its session ids are `day
    /// × sessions_per_day + i`. A worker takes one contiguous run of days
    /// and, under link churn, one copy of the base graphs, which it brings
    /// to its first day by replaying the earlier days' churn rounds and
    /// then advances by day `d`'s round right after day `d`'s sessions;
    /// the trace's graphs are the last run's, after all
    /// `duration_days` rounds. The runs are concatenated in day order,
    /// each day's sessions one block in generation order, and the
    /// blocks are ordered one day at a time ([`order_days`]), so the
    /// result does not depend on `jobs`. Under an installed profiler the
    /// three phases are the frames `trace.world`, `trace.sessions` and
    /// `trace.order`, once per call.
    pub fn generate_with_jobs(&self, topo: &Topology, jobs: usize) -> Result<Trace> {
        let cfg = &self.cfg;
        let seed = SeedTree::new(cfg.seed);
        let world = {
            let _f = specweb_core::obs::profile::frame("trace.world");
            self.world(&seed, topo)?
        };
        let churn = cfg.link_churn_per_day;
        // Per-day preallocation: checked (satellite of the unchecked
        // `days × sessions × 12` multiply) and capped, so a huge
        // configuration degrades to amortized growth instead of a
        // gigabyte up-front reservation.
        let day_capacity = cfg
            .sessions_per_day
            .checked_mul(ACCESSES_PER_SESSION)
            .map_or(1 << 20, |n| n.min(1 << 20));
        // One contiguous run of days per worker, appended into one
        // vector: a serial generation fills the trace's own vector and
        // the merge below moves it, so the accesses are written (and
        // their pages first touched) once, not once per day shard and
        // once more merged.
        let days: Vec<u64> = (0..cfg.duration_days).collect();
        let runs: Vec<&[u64]> = days
            .chunks(days.len().div_ceil(jobs.max(1)).max(1))
            .collect();
        let sessions_frame = specweb_core::obs::profile::frame("trace.sessions");
        let shards = specweb_core::par::par_map_indexed(jobs, &runs, |_, run| {
            let mut out: Vec<Access> =
                Vec::with_capacity(day_capacity.saturating_mul(run.len()).min(1 << 22));
            let mut day_lens = Vec::with_capacity(run.len());
            // Site evolution is the one sequential process: day d's
            // sessions must see the graphs after exactly d churn rounds.
            // The run folds them on its own copy — the rounds before its
            // first day, then each day's round after its sessions. Without
            // churn every run reads the base graphs and nothing is cloned.
            let mut folded = (churn > 0.0).then(|| world.graphs.clone());
            if let Some(graphs) = folded.as_mut() {
                for day in 0..run.first().copied().unwrap_or(0) {
                    churn_round(&seed, day, graphs, churn);
                }
            }
            for &day in *run {
                let today = folded.as_deref().unwrap_or(&world.graphs);
                let before = out.len();
                self.day_sessions(&seed, &world, today, day, &mut out);
                day_lens.push(out.len() - before);
                if let Some(graphs) = folded.as_mut() {
                    churn_round(&seed, day, graphs, churn);
                }
            }
            (out, day_lens, folded)
        });

        // Deterministic merge: the runs' day blocks concatenated in day
        // order (a serial generation's one run is moved, not copied).
        // The last run's graphs have been through all `duration_days`
        // churn rounds: the trace's final site.
        let total: usize = shards.iter().map(|(out, _, _)| out.len()).sum();
        let mut shards = shards.into_iter();
        let (mut accesses, mut day_lens, mut folded) = shards.next().unwrap_or_default();
        accesses.reserve_exact(total - accesses.len());
        for (shard, lens, graphs) in shards {
            accesses.extend(shard);
            day_lens.extend(lens);
            folded = graphs;
        }
        std::mem::drop(sessions_frame);
        {
            let _f = specweb_core::obs::profile::frame("trace.order");
            order_days(&mut accesses, &day_lens);
        }
        let n_accesses = accesses.len() as u64;
        let n_sessions = cfg
            .duration_days
            .saturating_mul(cfg.sessions_per_day as u64);

        // Per-run totals (deterministic channel): a pure function of the
        // configuration, merged from the day shards in day order. Per
        // run, not per process: a global counter would double-count
        // when one process generates several traces.
        if let Some(obs) = specweb_core::obs::current() {
            obs.metrics
                .counter("trace.accesses_generated")
                .add(n_accesses);
            obs.metrics
                .counter("trace.sessions_generated")
                .add(n_sessions);
        }

        let World {
            catalog,
            graphs,
            clients,
            ..
        } = world;
        Ok(Trace {
            accesses,
            catalog,
            graphs: folded.unwrap_or(graphs),
            clients,
            duration: Duration::from_days(cfg.duration_days),
            n_sessions,
        })
    }

    /// Builds what every day reads: the catalog and the base site graphs,
    /// the client population and the server popularity.
    fn world(&self, seed: &SeedTree, topo: &Topology) -> Result<World> {
        let cfg = &self.cfg;
        let sizes = if cfg.media_sizes {
            SizeModel::media_1995()?
        } else {
            SizeModel::web_1995()?
        };
        let mut catalog = Catalog::new();
        let mut graphs = Vec::with_capacity(cfg.n_servers);
        for s in 0..cfg.n_servers {
            graphs.push(SiteGraph::generate(
                seed,
                ServerId::from(s),
                &cfg.site,
                &sizes,
                &mut catalog,
            )?);
        }
        Ok(World {
            catalog,
            graphs,
            clients: ClientPopulation::generate(seed, topo, &cfg.clients)?,
            server_zipf: Zipf::new(cfg.n_servers, cfg.server_theta)?,
        })
    }

    /// Appends day `day`'s sessions, browsed over `graphs` (the site as
    /// it stands that day), to `out`.
    fn day_sessions(
        &self,
        seed: &SeedTree,
        world: &World,
        graphs: &[SiteGraph],
        day: u64,
        out: &mut Vec<Access>,
    ) {
        let spd = self.cfg.sessions_per_day as u64;
        let mut rng = seed.child_idx("day-sessions", day).rng();
        let day_start = SimTime::from_days(day);
        let mut fetched = Vec::new();
        for i in 0..spd {
            let start =
                day_start + Duration::from_millis(rng.gen_range(0..Duration::DAY.as_millis()));
            let client_id = world.clients.sample_client(&mut rng);
            let client = *world.clients.get(client_id);
            let server_idx = world.server_zipf.sample(&mut rng);
            self.run_session(
                &mut rng,
                &graphs[server_idx],
                client_id,
                client.locality,
                start,
                day.saturating_mul(spd).saturating_add(i),
                &mut fetched,
                out,
            );
        }
    }

    /// Simulates one browsing session: strides of page visits connected
    /// by link follows, with embedded objects fetched right after each
    /// page. `fetched` is the session's memory cache, a buffer the
    /// caller reuses from session to session.
    #[allow(clippy::too_many_arguments)]
    fn run_session<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        graph: &SiteGraph,
        client: ClientId,
        locality: Locality,
        start: SimTime,
        session: u64,
        fetched: &mut Vec<DocId>,
        out: &mut Vec<Access>,
    ) {
        let timing = &self.cfg.timing;
        let server = graph.server();
        let mut t = start;
        let mut page = graph.sample_entry(rng, |c| locality.class_bias(c));
        let n_strides = timing.sample_session_strides(rng);
        // The browser's in-session memory cache (every 1995 browser had
        // one): an embedded object is requested — and thus appears in
        // the server log — at most once per session. This is what keeps
        // a *shared* icon's measured p[page → icon] well below 1, while
        // page-unique embeddings stay certain. A session fetches a
        // handful of embedded objects, so a list scan is the set.
        fetched.clear();

        for stride in 0..n_strides {
            if stride > 0 {
                t += timing.sample_inter_gap(rng);
            }
            let stride_len = timing.sample_stride_len(rng);
            for visit in 0..stride_len {
                if visit > 0 {
                    t += timing.sample_intra_gap(rng);
                }
                // Fetch the page, then its not-yet-fetched embedded
                // objects in quick succession (well inside the 5 s
                // window, so the analyzer sees them as dependencies).
                for (k, doc) in graph.visit_docs(page).enumerate() {
                    if k > 0 {
                        if fetched.contains(&doc) {
                            continue; // browser memory cache hit
                        }
                        fetched.push(doc);
                    }
                    out.push(Access {
                        time: t + Duration::from_millis(50 * k as u64),
                        client,
                        doc,
                        server,
                        locality,
                        session,
                    });
                }
                // Follow a link for the next visit. The anchor choice is
                // uniform (the 1/k behaviour of Fig. 4), but whether the
                // client *pursues* an off-taste target is class-biased:
                // a remote user who lands on a campus-internal page backs
                // off to a fresh entry point. Dead ends also restart.
                page = match graph.follow_link(rng, page) {
                    Some(next) => {
                        let stick = locality.class_bias(graph.class(next)).sqrt();
                        if rng.gen::<f64>() <= stick {
                            next
                        } else {
                            graph.sample_entry(rng, |c| locality.class_bias(c))
                        }
                    }
                    None => graph.sample_entry(rng, |c| locality.class_bias(c)),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace(seed: u64) -> Trace {
        let topo = Topology::balanced(2, 3, 4);
        TraceGenerator::new(TraceConfig::small(seed))
            .unwrap()
            .generate(&topo)
            .unwrap()
    }

    #[test]
    fn generates_nonempty_ordered_trace() {
        let t = small_trace(100);
        assert!(!t.is_empty());
        assert!(t.n_sessions > 0);
        for w in t.accesses.windows(2) {
            assert!(
                order_key(&w[0]) <= order_key(&w[1]),
                "trace must be ordered on (time, client, doc, session): {w:?}"
            );
        }
        // All ids are valid.
        for a in &t.accesses {
            assert!(a.doc.index() < t.catalog.len());
            assert!(a.client.index() < t.clients.len());
            assert_eq!(t.catalog.get(a.doc).server, a.server);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = small_trace(42);
        let b = small_trace(42);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.accesses, b.accesses);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_trace(1);
        let b = small_trace(2);
        assert_ne!(a.accesses, b.accesses);
    }

    #[test]
    fn popularity_is_skewed() {
        let t = small_trace(7);
        let mut counts = t.request_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top10 = counts.len() / 10;
        let head: u64 = counts[..top10].iter().sum();
        // The top 10% of documents should draw well over a third of all
        // requests even in a small trace (the paper measured 91% at the
        // byte level for the real server).
        assert!(
            head as f64 / total as f64 > 0.35,
            "head share {}",
            head as f64 / total as f64
        );
    }

    #[test]
    fn locality_mix_present() {
        let t = small_trace(8);
        let remote = t
            .accesses
            .iter()
            .filter(|a| a.locality == Locality::Remote)
            .count();
        let local = t.len() - remote;
        assert!(remote > 0 && local > 0);
    }

    #[test]
    fn day_slices_partition_trace() {
        let t = small_trace(9);
        let total: usize = (0..10).map(|d| t.day_slice(d).len()).sum();
        assert_eq!(total, t.len());
        for a in t.day_slice(3) {
            assert_eq!(a.time.day(), 3);
        }
        assert!(t.day_slice(99).is_empty());
    }

    #[test]
    fn embedded_objects_follow_their_page_closely() {
        let t = small_trace(10);
        // Find a page with embedded objects and check that every access
        // to the page is immediately followed by its objects.
        let g = &t.graphs[0];
        let page = g.pages().iter().find(|p| !p.embedded.is_empty());
        let Some(page) = page else {
            return;
        };
        let mut found = 0;
        for (i, a) in t.accesses.iter().enumerate() {
            if a.doc == page.doc {
                // Scan the next few accesses of the same client for the
                // first embedded object.
                let emb = page.embedded[0];
                let ok = t.accesses[i + 1..]
                    .iter()
                    .take(20)
                    .any(|b| b.client == a.client && b.doc == emb);
                if ok {
                    found += 1;
                }
            }
        }
        assert!(found > 0, "no page→embedded pairs found in trace");
    }

    #[test]
    fn multi_server_traces_cover_all_servers() {
        let topo = Topology::balanced(2, 3, 4);
        let cfg = TraceConfig {
            n_servers: 4,
            ..TraceConfig::small(11)
        };
        let t = TraceGenerator::new(cfg).unwrap().generate(&topo).unwrap();
        let mut seen = [false; 4];
        for a in &t.accesses {
            seen[a.server.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "servers missing from trace");
        assert_eq!(t.graphs.len(), 4);
    }

    #[test]
    fn server_theta_skews_server_popularity() {
        let topo = Topology::balanced(2, 3, 4);
        let cfg = TraceConfig {
            n_servers: 4,
            server_theta: 1.2,
            ..TraceConfig::small(12)
        };
        let t = TraceGenerator::new(cfg).unwrap().generate(&topo).unwrap();
        let mut per_server = [0u64; 4];
        for a in &t.accesses {
            per_server[a.server.index()] += 1;
        }
        assert!(
            per_server[0] > per_server[3],
            "expected server popularity skew: {per_server:?}"
        );
    }

    /// Every final page's `(links, embedded)`, server by server.
    fn final_pages(t: &Trace) -> Vec<Vec<(Vec<u32>, Vec<DocId>)>> {
        t.graphs
            .iter()
            .map(|g| {
                g.pages()
                    .iter()
                    .map(|p| (p.links.clone(), p.embedded.clone()))
                    .collect()
            })
            .collect()
    }

    /// The slow twin of `generate_with_jobs`: generation as it was before
    /// churn folded into the workers. Every day gets its own copy of the
    /// graphs after exactly `d` rounds, all made before any session runs;
    /// the days then run serially and the trace is stable-sorted on
    /// `(time, client, doc)`.
    fn snapshot_reference(generator: &TraceGenerator, topo: &Topology) -> Trace {
        let cfg = generator.config();
        let seed = SeedTree::new(cfg.seed);
        let world = generator.world(&seed, topo).unwrap();
        let mut graphs = world.graphs.clone();
        let mut snapshots = Vec::new();
        for day in 0..cfg.duration_days {
            snapshots.push(graphs.clone());
            if cfg.link_churn_per_day > 0.0 {
                churn_round(&seed, day, &mut graphs, cfg.link_churn_per_day);
            }
        }
        let mut accesses = Vec::new();
        for (day, today) in (0..).zip(&snapshots) {
            generator.day_sessions(&seed, &world, today, day, &mut accesses);
        }
        accesses.sort_by_key(|a| (a.time, a.client, a.doc));
        Trace {
            accesses,
            catalog: world.catalog,
            graphs,
            clients: world.clients,
            duration: Duration::from_days(cfg.duration_days),
            n_sessions: cfg.duration_days * cfg.sessions_per_day as u64,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The per-worker churn fold equals the per-day snapshots, on
        /// accesses, session count and every final page — for more
        /// workers than days, a single day, no churn and full churn.
        #[test]
        fn churn_fold_equals_per_day_snapshots(seed in 0u64..1_000_000) {
            let topo = Topology::balanced(2, 3, 4);
            for days in [1u64, 2, 9] {
                for churn in [0.0, 0.002, 0.3, 1.0] {
                    for n_servers in [1usize, 3] {
                        let mut cfg = TraceConfig::small(seed);
                        cfg.duration_days = days;
                        cfg.sessions_per_day = 12;
                        cfg.link_churn_per_day = churn;
                        cfg.n_servers = n_servers;
                        let generator = TraceGenerator::new(cfg).unwrap();
                        let reference = snapshot_reference(&generator, &topo);
                        for jobs in [1, 2, 3, 7] {
                            let fast = generator.generate_with_jobs(&topo, jobs).unwrap();
                            let at = format!("days={days} churn={churn} servers={n_servers} jobs={jobs}");
                            proptest::prop_assert_eq!(&fast.accesses, &reference.accesses, "{}", at);
                            proptest::prop_assert_eq!(fast.n_sessions, reference.n_sessions, "{}", at);
                            proptest::prop_assert_eq!(final_pages(&fast), final_pages(&reference), "{}", at);
                        }
                    }
                }
            }
        }
    }

    /// Sessions that cross midnight and outlive whole days: every
    /// reading pause sits at its 30-minute clamp and a session runs
    /// ≈ 100 strides, i.e. two days on average; strides of ≈ 25 quick
    /// visits crowd more than [`INSERTION_MAX`] accesses into one bucket.
    fn day_spanning_timing() -> SessionTiming {
        SessionTiming {
            intra_stride_mean: Duration::from_millis(200),
            inter_stride_mean: Duration::from_days(1),
            mean_stride_len: 25.0,
            mean_strides_per_session: 100.0,
        }
    }

    /// An access whose `server` and `locality` follow from its `doc`
    /// and `client`, as in a generated trace, so [`order_key`] is total.
    fn access(ms: u64, client: u32, doc: u32, session: u64) -> Access {
        Access {
            time: SimTime::from_millis(ms),
            client: ClientId::new(client),
            doc: DocId::new(doc),
            server: ServerId::new(doc % 2),
            locality: if client.is_multiple_of(2) {
                Locality::Local
            } else {
                Locality::Remote
            },
            session,
        }
    }

    /// Accesses at `base` plus an offset in `[0, span]`, with few
    /// enough clients, docs and sessions that equal times with different
    /// keys (and exact duplicates) are common.
    fn accesses_after(
        base: u64,
        span: u64,
        len: std::ops::Range<usize>,
    ) -> impl proptest::strategy::Strategy<Value = Vec<Access>> {
        use proptest::prelude::*;
        // A third of the offsets are exactly `base` (the midnight the
        // tail boundary is taken at); the rest fall anywhere in the span.
        let offset = prop_oneof![Just(0u64), 0..=span, 0..=span];
        proptest::prop::collection::vec((offset, 0u32..3, 0u32..3, 0u64..3), len).prop_map(
            move |v| {
                v.into_iter()
                    .map(|(ms, c, d, s)| access(base + ms, c, d, s))
                    .collect()
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// The day ordering equals the global sort of the slow twin when
        /// sessions cross midnight and run for days: one-day traces,
        /// more workers than days, dense buckets, with and without churn.
        #[test]
        fn day_order_equals_a_global_sort_across_midnight(seed in 0u64..1_000_000) {
            let topo = Topology::balanced(2, 3, 4);
            let mut outlived_a_day = false;
            for days in [1u64, 3] {
                for churn in [0.0, 0.3] {
                    let mut cfg = TraceConfig::small(seed);
                    cfg.duration_days = days;
                    cfg.sessions_per_day = 3;
                    cfg.timing = day_spanning_timing();
                    cfg.link_churn_per_day = churn;
                    let generator = TraceGenerator::new(cfg).unwrap();
                    let reference = snapshot_reference(&generator, &topo);
                    // A session of day d still browsing on day d + 2.
                    outlived_a_day |= reference.accesses.iter().any(|a| a.time.day() >= a.session / 3 + 2);
                    for jobs in [1, 2, 4] {
                        let fast = generator.generate_with_jobs(&topo, jobs).unwrap();
                        let at = format!("days={days} churn={churn} jobs={jobs}");
                        proptest::prop_assert_eq!(&fast.accesses, &reference.accesses, "{}", at);
                    }
                }
            }
            proptest::prop_assert!(outlived_a_day, "no session outlived a whole day");
        }
    }

    proptest::proptest! {
        /// The bucket sort equals `sort_unstable_by_key` on the full key:
        /// empty and insertion-sized slices, everything in one bucket or
        /// at one instant, and spans of weeks (buckets widened to the
        /// slice length). One sorter serves every slice, as in a
        /// generation.
        #[test]
        fn bucket_sort_equals_a_comparison_sort(
            slices in proptest::prop::collection::vec(
                proptest::prop_oneof![
                    accesses_after(5 * Duration::DAY.as_millis(), 0, 0..300),
                    accesses_after(0, BUCKET_MS - 1, 0..300),
                    accesses_after(Duration::DAY.as_millis(), 4 * BUCKET_MS, 0..300),
                    accesses_after(0, Duration::DAY.as_millis(), 0..300),
                    accesses_after(0, 40 * Duration::DAY.as_millis(), 0..300),
                ],
                1..4,
            )
        ) {
            let mut sorter = BucketSort::default();
            for mut slice in slices {
                let mut want = slice.clone();
                want.sort_unstable_by_key(order_key);
                sorter.sort(&mut slice);
                proptest::prop_assert_eq!(slice, want);
            }
        }

        /// One day's ordering step equals a full sort, given an ordered
        /// prefix and a block at or after midnight: the prefix's tail
        /// starts before, at and after midnight and reaches days past
        /// it, and many accesses sit exactly at midnight.
        #[test]
        fn order_day_equals_a_full_sort(
            before in accesses_after(3 * Duration::DAY.as_millis() - 2 * BUCKET_MS, 2 * BUCKET_MS, 0..60),
            tail in accesses_after(3 * Duration::DAY.as_millis(), 3 * Duration::DAY.as_millis(), 0..60),
            block in accesses_after(3 * Duration::DAY.as_millis(), Duration::DAY.as_millis() + 1, 0..120),
        ) {
            let midnight = SimTime::from_days(3);
            let mut out = before;
            out.extend(tail);
            out.sort_unstable_by_key(order_key);
            let start = out.len();
            out.extend(block);
            let mut want = out.clone();
            want.sort_unstable_by_key(order_key);
            order_day(&mut out, start, midnight, &mut BucketSort::default());
            proptest::prop_assert_eq!(out, want);
        }
    }

    #[test]
    fn a_world_without_sessions_generates_an_empty_trace() {
        // Every day block is empty, in every run; ordering walks them all.
        let mut cfg = TraceConfig::small(5);
        cfg.sessions_per_day = 0;
        let t = TraceGenerator::new(cfg)
            .unwrap()
            .generate_with_jobs(&Topology::balanced(2, 3, 4), 3)
            .unwrap();
        assert!(t.is_empty());
        assert_eq!(t.n_sessions, 0);
    }

    #[test]
    fn sharded_generation_is_byte_identical_across_jobs() {
        // The tentpole contract: per-day seed children + the churn fold
        // make days independent work items, so the merged trace and the
        // final site cannot depend on the worker count — with or without
        // churn, for a one-day trace, and with more workers than days.
        let topo = Topology::balanced(2, 3, 4);
        for days in [1, 10] {
            for churn in [0.0, 0.3] {
                let mut cfg = TraceConfig::small(77);
                cfg.duration_days = days;
                cfg.link_churn_per_day = churn;
                let generator = TraceGenerator::new(cfg).unwrap();
                let serial = generator.generate_with_jobs(&topo, 1).unwrap();
                for jobs in [2, 4, 7, 12] {
                    let sharded = generator.generate_with_jobs(&topo, jobs).unwrap();
                    assert_eq!(
                        serial.accesses, sharded.accesses,
                        "days={days} jobs={jobs} churn={churn}"
                    );
                    assert_eq!(serial.n_sessions, sharded.n_sessions);
                    assert_eq!(final_pages(&serial), final_pages(&sharded));
                }
            }
        }
    }

    #[test]
    fn session_ids_are_arithmetic_u64() {
        // Satellite pin: session ids are `day × sessions_per_day + i` as
        // u64 — no wrapping counter. Every id below the total must occur,
        // and the total is the arithmetic product.
        let t = small_trace(21);
        let spd = 40u64; // TraceConfig::small
        assert_eq!(t.n_sessions, 10 * spd);
        let mut seen = vec![false; t.n_sessions as usize];
        for a in &t.accesses {
            assert!(a.session < t.n_sessions);
            seen[a.session as usize] = true;
            // A session started on day d: its id encodes that day.
            assert!(a.time.day() >= a.session / spd);
        }
        assert!(seen.iter().all(|&s| s), "every session must leave accesses");
        // The field is u64: ids beyond u32 range are representable.
        let big = Access {
            session: u64::from(u32::MAX) + 1,
            ..t.accesses[0]
        };
        assert!(big.session > u64::from(u32::MAX));
    }

    #[test]
    fn day_slice_boundaries() {
        let t = small_trace(22);
        // First day: starts at the first access.
        let first = t.day_slice(0);
        assert!(!first.is_empty());
        assert_eq!(first[0], t.accesses[0]);
        // Last populated day ends at the last access.
        let last_day = t.accesses.last().unwrap().time.day();
        let last = t.day_slice(last_day);
        assert!(!last.is_empty());
        assert_eq!(*last.last().unwrap(), *t.accesses.last().unwrap());
        // Empty day: past the end of the trace.
        assert!(t.day_slice(last_day + 1).is_empty());
        assert!(t.day_slice(last_day + 1_000).is_empty());
        // The slices tile the whole trace with no gaps or overlaps.
        let total: usize = (0..=last_day).map(|d| t.day_slice(d).len()).sum();
        assert_eq!(total, t.len());
    }

    #[test]
    fn obs_accounts_generation_per_run() {
        use specweb_core::obs::{MetricValue, Obs};
        let topo = Topology::balanced(2, 3, 4);
        let obs = Obs::new();
        let run = obs.install();
        let generator = TraceGenerator::new(TraceConfig::small(23)).unwrap();
        let t = generator.generate(&topo).unwrap();
        let counter = |snap: &specweb_core::obs::MetricSnapshot, name: &str| match snap
            .deterministic
            .get(name)
        {
            Some(MetricValue::Counter { value }) => *value,
            other => panic!("missing counter {name}: {other:?}"),
        };
        let snap = obs.snapshot();
        assert_eq!(counter(&snap, "trace.accesses_generated"), t.len() as u64);
        assert_eq!(counter(&snap, "trace.sessions_generated"), t.n_sessions);
        // A second generation under the same bundle adds — whoever
        // installs the bundle owns its scope, so multi-trace sweeps that
        // want per-trace numbers install a fresh bundle per run.
        generator.generate(&topo).unwrap();
        let snap2 = obs.snapshot();
        assert_eq!(
            counter(&snap2, "trace.accesses_generated"),
            2 * t.len() as u64
        );
        // With nothing installed nothing is recorded, here or globally:
        // two different traces in one process cannot double-count.
        drop(run);
        generator.generate(&topo).unwrap();
        assert_eq!(obs.snapshot(), snap2);
        assert_eq!(
            specweb_core::obs::global()
                .snapshot()
                .deterministic
                .get("trace.accesses_generated"),
            None
        );
    }

    #[test]
    fn rejects_session_volume_overflow() {
        // The unchecked `days × sessions × 12` preallocation is gone:
        // absurd volumes are a configuration error, not an allocation.
        let mut cfg = TraceConfig::small(1);
        cfg.duration_days = u64::MAX / 2;
        cfg.sessions_per_day = 3;
        assert!(TraceGenerator::new(cfg).is_err());
        let mut cfg = TraceConfig::small(1);
        cfg.duration_days = 1 << 30;
        cfg.sessions_per_day = 1 << 20;
        assert!(TraceGenerator::new(cfg).is_err());
        // A merely-large configuration still validates.
        let mut cfg = TraceConfig::small(1);
        cfg.duration_days = 36_500;
        cfg.sessions_per_day = 1_000_000;
        assert!(TraceGenerator::new(cfg).is_ok());
    }

    /// Regression for the day-count ceiling: `sessions_per_day == 0`
    /// makes the session-volume product check pass vacuously, but the
    /// generator still walks every day (the day list, one churn round
    /// per day) — the day count needs its own bound.
    #[test]
    fn rejects_absurd_day_count_even_with_zero_sessions() {
        let mut cfg = TraceConfig::small(1);
        cfg.duration_days = MAX_DURATION_DAYS + 1;
        cfg.sessions_per_day = 0;
        assert!(TraceGenerator::new(cfg).is_err());
        let mut cfg = TraceConfig::small(1);
        cfg.duration_days = MAX_DURATION_DAYS;
        cfg.sessions_per_day = 0;
        assert!(TraceGenerator::new(cfg).is_ok());
    }

    #[test]
    fn rejects_bad_config() {
        let mut cfg = TraceConfig::small(1);
        cfg.n_servers = 0;
        assert!(TraceGenerator::new(cfg).is_err());
        let mut cfg = TraceConfig::small(1);
        cfg.duration_days = 0;
        assert!(TraceGenerator::new(cfg).is_err());
        let mut cfg = TraceConfig::small(1);
        cfg.link_churn_per_day = 2.0;
        assert!(TraceGenerator::new(cfg).is_err());
    }

    #[test]
    fn churn_changes_future_sessions_not_past() {
        let topo = Topology::balanced(2, 3, 4);
        let mut cfg = TraceConfig::small(13);
        cfg.link_churn_per_day = 0.5;
        let t1 = TraceGenerator::new(cfg.clone())
            .unwrap()
            .generate(&topo)
            .unwrap();
        cfg.link_churn_per_day = 0.0;
        let t2 = TraceGenerator::new(cfg).unwrap().generate(&topo).unwrap();
        // Day 0 is identical (churn applies at day boundaries)…
        assert_eq!(t1.day_slice(0), t2.day_slice(0));
        // …but later days diverge.
        assert_ne!(t1.accesses, t2.accesses);
    }

    #[test]
    fn active_clients_counted() {
        let t = small_trace(14);
        let n = t.active_clients();
        assert!(n > 0 && n <= t.clients.len());
    }
}
