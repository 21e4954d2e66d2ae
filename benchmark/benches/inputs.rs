//! Seeded inputs of the six workloads. `--seed` is the only thing that
//! varies them; the program under test receives nothing else.
//!
//! The generated *world* — the site graph, the catalog with its
//! heavy-tailed sizes, the client population — comes from one fixed
//! master seed, and `--seed` selects which stretch of that world's
//! days (or sessions, or requests) a run measures. With `--seed` as the
//! generator's master seed every seed is a different site: over six
//! seeds the quartiles of `sweep_s` lay 20–31 % apart on the estimator
//! workloads, peak memory 12 % and the paper's ratios 6–24 %, all input
//! and no noise, where the benchmark may not bound a metric wider than
//! 25 %. Windows of one world differ by which sessions they hold.

use specweb_core::time::{Duration, SimTime};
use specweb_core::Bytes;
use specweb_dissem::simulate::DisseminationConfig;
use specweb_netsim::topology::Topology;
use specweb_spec::cache::CacheModel;
use specweb_spec::policy::Policy;
use specweb_spec::prefetch::HintPolicy;
use specweb_spec::simulate::SpecConfig;
use specweb_trace::generator::{Trace, TraceConfig, TraceGenerator};

/// Master seed of the generated world: the paper's year.
pub const WORLD_SEED: u64 = 1996;

/// Windows a seed selects among; seed `s` starts `s % WINDOWS` days
/// (or that many strides of sessions or requests) into the world. Two
/// seeds that agree modulo `WINDOWS` give the same simulator inputs
/// (the Poisson arrivals of `serve-paced` still differ): a claim checked
/// "on a second seed" needs one from another window.
pub const WINDOWS: u64 = 31;

/// `Full` is what the benchmark measures; `Quick` is the same shape on
/// a trace small enough for the self-tests and `--check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

/// The clientele tree of every workload: server at the root, 3 → 9 →
/// 27 interior nodes, 6 client leaves under each edge network.
pub fn topology() -> Topology {
    Topology::balanced(3, 3, 6)
}

/// `TraceConfig::bu_www` with `sessions_per_day` and `n_clients`
/// multiplied by `times`, over `days` days.
fn bu_config(scale: Scale, times: usize, days: u64) -> TraceConfig {
    let mut cfg = TraceConfig::bu_www(WORLD_SEED);
    cfg.duration_days = days;
    if scale == Scale::Quick {
        cfg.site.n_pages = 80;
        cfg.clients.n_clients = 150;
        cfg.sessions_per_day = 60;
    }
    cfg.sessions_per_day *= times;
    cfg.clients.n_clients *= times;
    cfg
}

/// A window of `days` days of a generated world.
#[derive(Debug, Clone)]
pub struct TraceInput {
    /// The world; it spans `WINDOWS - 1` days more than the window,
    /// whatever the seed, so that generating it costs every seed the
    /// same. Those days are generated and not replayed: `trace.*`
    /// metrics count what the generator produced, not the window.
    pub world: TraceConfig,
    pub first_day: u64,
    pub days: u64,
}

impl TraceInput {
    fn new(seed: u64, mut world: TraceConfig) -> TraceInput {
        let days = world.duration_days;
        world.duration_days += WINDOWS - 1;
        TraceInput {
            world,
            first_day: seed % WINDOWS,
            days,
        }
    }

    /// The program's part of making the inputs: `TraceGenerator` over
    /// the whole world.
    pub fn generate_world(&self, topo: &Topology) -> Trace {
        TraceGenerator::new(self.world.clone())
            .and_then(|g| g.generate(topo))
            .expect("the workload's trace configuration is valid")
    }

    /// The harness's part: cuts the window out of the world, re-based
    /// so that the window's first day is day 0.
    pub fn window_of(&self, mut trace: Trace) -> Trace {
        let first = SimTime::from_days(self.first_day);
        let end = SimTime::from_days(self.first_day + self.days);
        trace.accesses.retain(|a| first <= a.time && a.time < end);
        for a in &mut trace.accesses {
            a.time = a.time - Duration::from_days(self.first_day);
        }
        trace.duration = Duration::from_days(self.days);
        let mut sessions: Vec<u64> = trace.accesses.iter().map(|a| a.session).collect();
        sessions.sort_unstable();
        sessions.dedup();
        trace.n_sessions = sessions.len() as u64;
        trace
    }

    pub fn generate(&self, topo: &Topology) -> Trace {
        self.window_of(self.generate_world(topo))
    }
}

/// One of the three speculative-service simulator workloads.
#[derive(Debug, Clone)]
pub struct SpecWorkload {
    pub trace: TraceInput,
    /// Estimator schedule and warm-up shared by every sweep point; the
    /// shared baseline replay runs under this configuration.
    pub base: SpecConfig,
    pub points: Vec<SpecConfig>,
    /// Index into `points` of the `T_p` 0.3 point the ratios come from.
    pub reference: usize,
    /// `replay-wide` pays trace generation in every repetition.
    pub generate_in_body: bool,
    /// Seconds one repetition of the body took, at full scale, on the
    /// box the benchmark was defined on. It fixes how many repetitions
    /// a run makes (`harness::reps`) and is no measurement.
    pub nominal_body_s: f64,
}

impl SpecWorkload {
    pub fn total_days(&self) -> u64 {
        self.trace.days
    }
}

fn spec_base(history_days: u64, update_cycle_days: u64, warmup_days: u64) -> SpecConfig {
    let mut base = SpecConfig::baseline(0.3);
    base.estimator.history_days = history_days;
    base.estimator.update_cycle_days = update_cycle_days;
    base.estimator.closure_floor = 0.01;
    base.estimator.closure_max_row = 128;
    base.warmup_days = warmup_days;
    base
}

fn threshold_points(base: &SpecConfig, tps: &[f64]) -> Vec<SpecConfig> {
    tps.iter()
        .map(|&tp| SpecConfig {
            policy: Policy::Threshold { tp },
            ..*base
        })
        .collect()
}

/// The paper's daily schedule (history = ⅔ of the trace, `UpdateCycle`
/// 1 day) on a quarter of the paper's calendar: 24 days, 16-day
/// history, 25 boundaries. The fastest repetition is only undisturbed
/// if a run holds some twenty of them (README, "Why the fastest
/// repetition"), and the shorter calendar keeps what the workload is
/// for: every boundary re-pushes its whole history window and
/// recomputes the closure.
pub fn est_daily(seed: u64, scale: Scale) -> SpecWorkload {
    let (days, history, warmup) = match scale {
        Scale::Full => (24, 16, 8),
        Scale::Quick => (12, 8, 4),
    };
    let base = spec_base(history, 1, warmup);
    SpecWorkload {
        trace: TraceInput::new(seed, bu_config(scale, 1, days)),
        points: threshold_points(&base, &[0.1, 0.3, 0.5, 0.8]),
        base,
        reference: 1,
        generate_in_body: false,
        nominal_body_s: 0.6,
    }
}

/// The drifting site under exponential aging (`estimate_aged`: per-day
/// matrices blended, no hard window), re-estimated weekly.
pub fn est_aged(seed: u64, scale: Scale) -> SpecWorkload {
    let (days, history, warmup, churn) = match scale {
        Scale::Full => (60, 30, 15, 0.025),
        Scale::Quick => (24, 10, 6, 0.05),
    };
    let mut base = spec_base(history, 7, warmup);
    base.estimator.aging_decay = Some(0.95);
    let mut world = bu_config(scale, 1, days);
    world.link_churn_per_day = churn;
    SpecWorkload {
        trace: TraceInput::new(seed, world),
        points: threshold_points(&base, &[0.1, 0.3, 0.5]),
        base,
        reference: 1,
        generate_in_body: false,
        nominal_body_s: 0.48,
    }
}

/// A wide population re-estimated at half the window and at its end: few
/// boundaries, many accesses, five points that each take a different
/// replay path.
pub fn replay_wide(seed: u64, scale: Scale) -> SpecWorkload {
    let (days, history, warmup, times) = match scale {
        Scale::Full => (30, 20, 10, 3),
        Scale::Quick => (16, 10, 6, 2),
    };
    let base = spec_base(history, days / 2, warmup);
    let mut points = threshold_points(&base, &[0.1, 0.3]);
    points.push(SpecConfig {
        cooperative: true,
        ..base
    });
    points.push(SpecConfig {
        cache: CacheModel::Lru {
            capacity: Bytes::from_mib(1),
        },
        ..base
    });
    points.push(SpecConfig {
        policy: Policy::Hybrid {
            push_tp: 0.9,
            hint_tp: 0.2,
        },
        hint_policy: HintPolicy::Threshold { tp: 0.3 },
        ..base
    });
    SpecWorkload {
        trace: TraceInput::new(seed, bu_config(scale, times, days)),
        points,
        base,
        reference: 1,
        generate_in_body: true,
        nominal_body_s: 0.5,
    }
}

/// The dissemination workload: 8 home servers of skewed popularity
/// behind one clientele tree.
#[derive(Debug, Clone)]
pub struct DissemWorkload {
    pub trace: TraceInput,
    /// Proxy storage budgets for `alloc::optimize`.
    pub budgets: Vec<Bytes>,
    pub points: Vec<DisseminationConfig>,
    /// Index into `points` of the (0.10, 4) point.
    pub reference: usize,
    /// As [`SpecWorkload::nominal_body_s`].
    pub nominal_body_s: f64,
}

pub fn dissem_cluster(seed: u64, scale: Scale) -> DissemWorkload {
    let (days, times) = match scale {
        Scale::Full => (30, 5),
        Scale::Quick => (10, 2),
    };
    let mut world = bu_config(scale, times, days);
    world.n_servers = 8;
    world.server_theta = 0.8;
    let point = |fraction, n_proxies, tailored, count_dissemination_traffic| DisseminationConfig {
        fraction,
        n_proxies,
        tailored,
        count_dissemination_traffic,
        ..DisseminationConfig::default()
    };
    DissemWorkload {
        trace: TraceInput::new(seed, world),
        budgets: [256, 1024, 4096].map(Bytes::from_kib).to_vec(),
        points: vec![
            point(0.10, 4, false, false),
            point(0.10, 27, false, false),
            point(0.04, 16, true, false),
            point(0.10, 9, true, true),
        ],
        reference: 0,
        nominal_body_s: 0.35,
    }
}

/// The live-server workloads share one knowledge base: `P`/`P*` of the
/// whole `bu_www` world, `T_p` 0.3, `MaxSize` ∞. The seed selects the
/// sessions and requests sent to it.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    pub world: TraceConfig,
    pub window: Duration,
    pub min_support: u64,
    pub closure_floor: f64,
    pub closure_max_row: usize,
    pub policy: Policy,
    /// `serve-sessions`: the session list (ids `first_session..` of the
    /// world), and the wire fetches that end a pass over it.
    pub first_session: u64,
    pub sessions: usize,
    pub wire_fetches: usize,
    /// `serve-paced`: the request list (accesses `first_request..` of
    /// the world), and the requests of one closed-loop capacity burst.
    pub first_request: usize,
    pub paced_requests: usize,
    pub burst_requests: usize,
    /// Seeds the Poisson arrival schedule of `serve-paced`.
    pub arrival_seed: u64,
    /// Seconds a `serve-sessions` pass and a `serve-paced` burst took
    /// on the box the benchmark was defined on; as
    /// [`SpecWorkload::nominal_body_s`], they fix the repetitions of a run.
    pub nominal_pass_s: f64,
    pub nominal_burst_s: f64,
}

pub fn serve(seed: u64, scale: Scale) -> ServeWorkload {
    let (days, sessions, wire_fetches, paced_requests, burst_requests) = match scale {
        Scale::Full => (90, 400, 64, 500, 5_000),
        Scale::Quick => (12, 40, 8, 50, 2_000),
    };
    let world = bu_config(scale, 1, days);
    // One stride per window: about a day of sessions, four request
    // lists. The last window still leaves the lists room in the world.
    let window = seed % WINDOWS;
    let first_day = days / 3 + window * (days / 3) / WINDOWS;
    ServeWorkload {
        first_session: first_day * world.sessions_per_day as u64,
        first_request: window as usize * 4 * paced_requests,
        world,
        window: Duration::from_secs(5),
        min_support: 2,
        closure_floor: 0.01,
        closure_max_row: 128,
        policy: Policy::Threshold { tp: 0.3 },
        sessions,
        wire_fetches,
        paced_requests,
        burst_requests,
        arrival_seed: seed,
        nominal_pass_s: 2.4,
        nominal_burst_s: 0.1,
    }
}
