//! Ablation studies — experiments the paper did not run but whose
//! design choices it makes implicitly. Each isolates one mechanism of
//! the implementation and quantifies what it buys:
//!
//! * [`exp_closure`] — speculating on `P*` vs the direct `P` (how much
//!   does the transitive closure actually contribute?);
//! * [`exp_rank`] — ranking dissemination candidates by request density
//!   (α-optimal) vs request count (traffic-optimal);
//! * [`exp_tailored`] — same-data-everywhere vs per-proxy tailored
//!   replicas (footnote 5's geographic refinement);
//! * [`exp_shed`] — §2.3 dynamic load shedding under a proxy request
//!   cap sweep;
//! * [`exp_hier`] — one- vs multi-level dissemination under load (the
//!   §2.3 bottleneck discussion);
//! * [`exp_alloc`] — the eq. 4–5 optimizer vs uniform/proportional
//!   baselines vs the empirical greedy, on *mined* profiles;
//! * [`exp_aging`] — the estimator's hard history window vs exponential
//!   aging on a drifting site (§3.4's "aging mechanism" sketch);
//! * [`exp_digest`] — exact vs Bloom cooperative cache digests: wire
//!   overhead at equal suppression quality;
//! * [`exp_queue`] — the M/G/1 extension: what the measured server-load
//!   reductions mean as response time at a peak-hour operating point.

use serde::Serialize;
use specweb_core::ids::ServerId;
use specweb_core::units::Bytes;
use specweb_core::Result;
use specweb_dissem::alloc::{
    allocate_proportional, allocate_uniform, optimize, optimize_empirical, ServerModel,
};
use specweb_dissem::analysis::ServerProfile;
use specweb_dissem::hierarchy;
use specweb_dissem::simulate::{DisseminationConfig, DisseminationSim};
use specweb_netsim::queueing::{load_relief, Mg1};
use specweb_spec::cooperative::{BloomDigest, Digest, ExactDigest};
use specweb_spec::policy::Policy;

use crate::{pct, Inputs, Report, Scale};

// ---------------------------------------------------------------------
// EXP-CLOSURE — P* vs P
// ---------------------------------------------------------------------

/// One threshold's paired outcome.
#[derive(Debug, Serialize)]
pub struct ClosureRow {
    /// Threshold.
    pub tp: f64,
    /// (traffic, load reduction) speculating on the closure `P*`.
    pub closure: (f64, f64),
    /// (traffic, load reduction) speculating on the direct `P`.
    pub direct: (f64, f64),
}

/// Machine-readable exp-closure result.
#[derive(Debug, Serialize)]
pub struct ClosureResult {
    /// Per-threshold outcomes.
    pub rows: Vec<ClosureRow>,
    /// Closure rows truncated by the safety valve across all update
    /// boundaries — nonzero means `P*` is approximate, not exact.
    pub truncated_rows: u64,
    /// Sweep of the safety-valve bound itself.
    pub valve: Vec<ValveRow>,
}

/// One safety-valve bound's outcome: how much truncation it causes and
/// what that truncation does to the headline replay.
#[derive(Debug, Serialize)]
pub struct ValveRow {
    /// The `closure_max_row` bound.
    pub max_row: usize,
    /// Closure rows cut short at this bound.
    pub truncated_rows: u64,
    /// Traffic increase (%) replaying at the probe threshold.
    pub traffic_pct: f64,
    /// Server-load reduction (%) at the probe threshold.
    pub load_reduction_pct: f64,
}

/// Runs the closure-vs-direct ablation.
pub fn exp_closure(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.bu()?;
    let (sim, store) = (bench.sim(), bench.store()?);
    let mut cfg = bench.cfg(0.5);

    let tps: &[f64] = match inputs.scale {
        Scale::Full => &[0.7, 0.5, 0.3, 0.15],
        Scale::Quick => &[0.5, 0.15],
    };
    // The whole ablation — both policies, every T_p, every safety-valve
    // bound — shares one baseline replay (same cache, same warmup).
    let baseline = sim.baseline_totals(&cfg)?;

    let mut rows = Vec::new();
    for &tp in tps {
        cfg.policy = Policy::Threshold { tp };
        let c = sim.run_with_store_and_baseline(&cfg, Some(store), Some(&baseline))?;
        cfg.policy = Policy::DirectThreshold { tp };
        let d = sim.run_with_store_and_baseline(&cfg, Some(store), Some(&baseline))?;
        rows.push(ClosureRow {
            tp,
            closure: (
                c.ratios.traffic_increase_pct(),
                c.ratios.server_load_reduction_pct(),
            ),
            direct: (
                d.ratios.traffic_increase_pct(),
                d.ratios.server_load_reduction_pct(),
            ),
        });
    }

    let mut text = String::new();
    text.push_str("speculate on P* (closure) vs the direct matrix P\n\n");
    text.push_str("  T_p     P*: traffic/load       P: traffic/load\n");
    for r in &rows {
        text.push_str(&format!(
            "{:>5.2}   {:>8} / {:>7}   {:>8} / {:>7}\n",
            r.tp,
            pct(r.closure.0),
            pct(-r.closure.1),
            pct(r.direct.0),
            pct(-r.direct.1)
        ));
    }
    text.push_str(
        "\nthe closure reaches documents two or more clicks ahead, buying\n\
         extra load reduction at extra traffic; the paper's policy is\n\
         defined on P*, and this ablation shows what that choice costs.\n",
    );
    // No silent caps: if the closure's safety valve cut any row short,
    // the comparison above is against an approximate P*. Say so.
    let truncated_rows = store.truncated_rows();
    if truncated_rows > 0 {
        text.push_str(&format!(
            "\nwarning: the closure safety valve truncated {truncated_rows} row(s)\n\
             across the update boundaries — P* here is a truncated\n\
             approximation, not the exact max-product closure.\n"
        ));
    } else {
        text.push_str("\nclosure safety valve: 0 rows truncated (P* is exact here).\n");
    }

    // Sweep the safety-valve bound itself: tighten `closure_max_row`
    // until it bites, and measure what the truncated P* costs at one
    // probe threshold. This quantifies how much headroom the default
    // bound leaves before approximation starts eating load reduction.
    let probe_tp = 0.3;
    let bounds: &[usize] = match inputs.scale {
        Scale::Full => &[2, 4, 8, 16, 32, 64, 128],
        Scale::Quick => &[2, 8, 32, 128],
    };
    let mut valve = Vec::with_capacity(bounds.len());
    cfg.policy = Policy::Threshold { tp: probe_tp };
    for &max_row in bounds {
        // The same P under each bound; the default bound's store is the
        // shared one itself.
        let reclosed = (max_row != cfg.estimator.closure_max_row)
            .then(|| store.reclose(cfg.estimator.closure_floor, max_row))
            .transpose()?;
        let vstore = reclosed.as_ref().unwrap_or(store);
        let mut vcfg = cfg;
        vcfg.estimator.closure_max_row = max_row;
        let out = sim.run_with_store_and_baseline(&vcfg, Some(vstore), Some(&baseline))?;
        valve.push(ValveRow {
            max_row,
            truncated_rows: vstore.truncated_rows(),
            traffic_pct: out.ratios.traffic_increase_pct(),
            load_reduction_pct: out.ratios.server_load_reduction_pct(),
        });
    }
    text.push_str(&format!(
        "\nsafety-valve bound sweep (T_p = {probe_tp}):\n\
         max_row   truncated     traffic      load\n"
    ));
    for v in &valve {
        text.push_str(&format!(
            "{:>7}   {:>9}   {:>9}  {:>8}\n",
            v.max_row,
            v.truncated_rows,
            pct(v.traffic_pct),
            pct(-v.load_reduction_pct)
        ));
    }
    text.push_str(
        "\nexpected: tightening the bound increases truncation and can only\n\
         shrink the speculation set (each row at a bound is a prefix of\n\
         its row at any looser one) — a bound at or above every row's\n\
         reach is free; `truncated` counts only rows reaching more than\n\
         4·max_row, so a bound may cut shorter rows while it reads 0.\n",
    );

    Ok(Report::new(
        "exp-closure",
        "ablation: speculating on P* vs direct P",
        text,
        &ClosureResult {
            rows,
            truncated_rows,
            valve,
        },
    ))
}

// ---------------------------------------------------------------------
// EXP-RANK — density vs traffic ranking for dissemination
// ---------------------------------------------------------------------

/// One configuration's outcome per ranking.
#[derive(Debug, Serialize)]
pub struct RankRow {
    /// Fraction disseminated.
    pub fraction: f64,
    /// (bytes×hops reduction, request interception) with traffic ranking.
    pub by_traffic: (f64, f64),
    /// Same with density ranking.
    pub by_density: (f64, f64),
}

/// Runs the ranking ablation.
pub fn exp_rank(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.bu()?;
    let sim = DisseminationSim::new(&bench.trace, &bench.topo)?;

    let mut rows = Vec::new();
    for fraction in [0.04, 0.10, 0.25] {
        let run = |rank_for_traffic: bool| {
            sim.run(
                &DisseminationConfig {
                    fraction,
                    n_proxies: 9,
                    rank_for_traffic,
                    ..DisseminationConfig::default()
                },
                &[],
            )
        };
        let t = run(true)?;
        let d = run(false)?;
        rows.push(RankRow {
            fraction,
            by_traffic: (t.reduction, t.intercepted_fraction),
            by_density: (d.reduction, d.intercepted_fraction),
        });
    }

    let mut text = String::new();
    text.push_str("dissemination-candidate ranking: request count vs request density\n\n");
    text.push_str("fraction   traffic-ranked: saved/intercept   density-ranked: saved/intercept\n");
    for r in &rows {
        text.push_str(&format!(
            "{:>7.0}%   {:>21.1}% / {:>5.1}%   {:>21.1}% / {:>5.1}%\n",
            r.fraction * 100.0,
            r.by_traffic.0 * 100.0,
            r.by_traffic.1 * 100.0,
            r.by_density.0 * 100.0,
            r.by_density.1 * 100.0
        ));
    }
    text.push_str(
        "\nexpected: density ranking intercepts more *requests* per byte of\n\
         storage (it is the α-optimal packing); traffic ranking saves more\n\
         *bytes×hops* (value per byte of storage = request count). The two\n\
         objectives split exactly as the theory says.\n",
    );
    Ok(Report::new(
        "exp-rank",
        "ablation: dissemination ranking objective (traffic vs α)",
        text,
        &rows,
    ))
}

// ---------------------------------------------------------------------
// EXP-TAILORED — shared vs geographically tailored replicas
// ---------------------------------------------------------------------

/// One fraction's paired outcome.
#[derive(Debug, Serialize)]
pub struct TailoredRow {
    /// Fraction disseminated.
    pub fraction: f64,
    /// Reduction with the same data at every proxy (the Fig. 3 setup).
    pub shared: f64,
    /// Reduction with per-proxy tailored replicas (footnote 5).
    pub tailored: f64,
}

/// Runs the tailoring ablation.
pub fn exp_tailored(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.bu()?;
    let sim = DisseminationSim::new(&bench.trace, &bench.topo)?;

    let mut rows = Vec::new();
    for fraction in [0.02, 0.05, 0.10] {
        let run = |tailored: bool| {
            sim.run(
                &DisseminationConfig {
                    fraction,
                    n_proxies: 9,
                    tailored,
                    ..DisseminationConfig::default()
                },
                &[],
            )
        };
        rows.push(TailoredRow {
            fraction,
            shared: run(false)?.reduction,
            tailored: run(true)?.reduction,
        });
    }

    let mut text = String::new();
    text.push_str("same data to all proxies vs per-proxy tailored replicas\n\n");
    text.push_str("fraction     shared     tailored\n");
    for r in &rows {
        text.push_str(&format!(
            "{:>7.0}%   {:>7.1}%   {:>9.1}%\n",
            r.fraction * 100.0,
            r.shared * 100.0,
            r.tailored * 100.0
        ));
    }
    text.push_str(
        "\npaper (footnote 5): \"better results are attainable if the\n\
         dissemination strategy takes advantage of the geographic locality\n\
         of reference\" — tailoring matters most when storage is scarce.\n",
    );
    Ok(Report::new(
        "exp-tailored",
        "ablation: geographic tailoring of replicas (footnote 5)",
        text,
        &rows,
    ))
}

// ---------------------------------------------------------------------
// EXP-SHED — §2.3 dynamic load shedding
// ---------------------------------------------------------------------

/// One cap's outcome.
#[derive(Debug, Serialize)]
pub struct ShedRow {
    /// Per-proxy daily request cap (`None` = uncapped).
    pub cap: Option<u64>,
    /// Requests shed upstream.
    pub shed: u64,
    /// Request interception achieved.
    pub intercepted: f64,
    /// Bytes×hops reduction achieved.
    pub reduction: f64,
}

/// Runs the shedding sweep.
pub fn exp_shed(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.bu()?;
    let sim = DisseminationSim::new(&bench.trace, &bench.topo)?;

    let caps: &[Option<u64>] = match inputs.scale {
        Scale::Full => &[None, Some(2_000), Some(500), Some(125), Some(30)],
        Scale::Quick => &[None, Some(200), Some(20)],
    };
    let mut rows = Vec::new();
    for &cap in caps {
        let out = sim.run(
            &DisseminationConfig {
                proxy_daily_request_cap: cap,
                ..DisseminationConfig::default()
            },
            &[],
        )?;
        rows.push(ShedRow {
            cap,
            shed: out.shed_requests,
            intercepted: out.intercepted_fraction,
            reduction: out.reduction,
        });
    }

    let mut text = String::new();
    text.push_str("per-proxy daily request cap (∞ → tight), 4 proxies, top 10%\n\n");
    text.push_str("      cap      shed    intercept    saved\n");
    for r in &rows {
        let cap = r
            .cap
            .map(|c| c.to_string())
            .unwrap_or_else(|| "∞".to_string());
        text.push_str(&format!(
            "{:>9}  {:>8}   {:>7.1}%   {:>6.1}%\n",
            cap,
            r.shed,
            r.intercepted * 100.0,
            r.reduction * 100.0
        ));
    }
    text.push_str(
        "\n§2.3: an overloaded proxy pushes requests back toward the origin\n\
         (smaller effective B₀) — savings degrade gracefully, never below\n\
         the no-dissemination baseline.\n",
    );
    // Shedding is this experiment's subject, so `dissem.shed_requests`
    // being nonzero here is expected — CI's shed gate exempts exp-shed
    // and exp-hier for exactly that reason.
    Ok(Report::new(
        "exp-shed",
        "§2.3 dynamic load shedding under proxy request caps",
        text,
        &rows,
    ))
}

// ---------------------------------------------------------------------
// EXP-HIER — multi-level dissemination under load
// ---------------------------------------------------------------------

/// Runs the hierarchy comparison.
pub fn exp_hier(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.bu()?;
    let sim = DisseminationSim::new(&bench.trace, &bench.topo)?;
    let cap = match inputs.scale {
        Scale::Full => 400,
        Scale::Quick => 40,
    };
    let rows = hierarchy::compare_levels(
        &sim,
        &bench.topo,
        &DisseminationConfig {
            fraction: 0.10,
            ..DisseminationConfig::default()
        },
        3,
        cap,
    )?;

    let mut text = String::new();
    text.push_str(&format!(
        "proxy levels under a per-proxy cap of {cap} requests/day\n\n"
    ));
    text.push_str("levels  proxies      shed    intercept    saved\n");
    for r in &rows {
        text.push_str(&format!(
            "{:>6}  {:>7}  {:>8}   {:>7.1}%   {:>6.1}%\n",
            r.levels,
            r.n_proxies,
            r.shed_requests,
            r.intercepted * 100.0,
            r.reduction * 100.0
        ));
    }
    text.push_str(
        "\n§2.3: one heavily-loaded proxy level sheds; continuing the\n\
         dissemination \"for another level, and so on\" spreads the load\n\
         and restores (and improves) the savings.\n",
    );
    Ok(Report::new(
        "exp-hier",
        "§2.3 multi-level dissemination dissolves the proxy bottleneck",
        text,
        &rows,
    ))
}

// ---------------------------------------------------------------------
// EXP-ALLOC — optimizer vs baselines on mined profiles
// ---------------------------------------------------------------------

/// The comparison result.
#[derive(Debug, Serialize)]
pub struct AllocResult {
    /// Predicted α per strategy at each budget (KiB).
    pub rows: Vec<(u64, f64, f64, f64, f64)>,
}

/// Runs the allocation comparison on profiles mined from a multi-server
/// cluster trace.
pub fn exp_alloc(inputs: &Inputs) -> Result<Report> {
    use specweb_trace::generator::{TraceConfig, TraceGenerator};
    let topo = crate::workloads::topology();
    let n_servers = 8usize;
    let mut tc = TraceConfig::cluster(inputs.seed, n_servers);
    if inputs.scale == Scale::Quick {
        tc.duration_days = 10;
        tc.sessions_per_day = 80;
        tc.site.n_pages = 60;
        tc.clients.n_clients = 300;
    }
    let days = tc.duration_days;
    let trace = TraceGenerator::new(tc)?.generate(&topo)?;

    let servers: Vec<ServerId> = (0..n_servers).map(ServerId::from).collect();
    let profiles = ServerProfile::from_trace_many(&trace, &servers, days)?;
    let models: Vec<ServerModel> = profiles
        .iter()
        .map(|p| ServerModel {
            lambda: p.lambda,
            demand: p.remote_bytes_per_day,
        })
        .collect();
    let profile_refs: Vec<&ServerProfile> = profiles.iter().collect();

    let budgets: &[u64] = &[64, 128, 256, 512, 1024];
    let mut rows = Vec::new();
    let mut text = String::new();
    text.push_str(&format!(
        "{n_servers}-server cluster, profiles mined from {} accesses\n\n",
        trace.len()
    ));
    text.push_str("   B₀      optimal   proportional   uniform   empirical-greedy\n");
    for &kib in budgets {
        let b0 = Bytes::from_kib(kib);
        let opt = optimize(&models, b0)?;
        let pro = allocate_proportional(&models, b0)?;
        let uni = allocate_uniform(&models, b0)?;
        let (emp, _) = optimize_empirical(&profile_refs, b0)?;
        rows.push((kib, opt.alpha, pro.alpha, uni.alpha, emp.alpha));
        text.push_str(&format!(
            "{:>5}K   {:>7.1}%   {:>11.1}%   {:>7.1}%   {:>15.1}%\n",
            kib,
            opt.alpha * 100.0,
            pro.alpha * 100.0,
            uni.alpha * 100.0,
            emp.alpha * 100.0
        ));
    }
    text.push_str(
        "\nthe closed form (exponential model) beats the uniform and\n\
         proportional baselines; the empirical greedy — which sees the\n\
         true hit curves, not a fitted exponential — bounds what any\n\
         model-based allocation can achieve.\n",
    );
    Ok(Report::new(
        "exp-alloc",
        "ablation: storage allocation strategies on mined profiles",
        text,
        &AllocResult { rows },
    ))
}

// ---------------------------------------------------------------------
// EXP-AGING — hard window vs exponential aging under drift
// ---------------------------------------------------------------------

/// One estimator variant's outcome.
#[derive(Debug, Serialize)]
pub struct AgingRow {
    /// Variant label.
    pub variant: String,
    /// Load reduction.
    pub load_reduction_pct: f64,
    /// Traffic increase.
    pub traffic_pct: f64,
}

/// Runs the aging ablation on the drifting workload.
pub fn exp_aging(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.drift()?;
    let sim = bench.sim();

    let history = match inputs.scale {
        Scale::Full => 30,
        Scale::Quick => 8,
    };
    let variants: Vec<(String, Option<f64>)> = vec![
        (format!("hard {history}-day window"), None),
        ("aging decay 0.9/day".into(), Some(0.9)),
        ("aging decay 0.7/day".into(), Some(0.7)),
    ];

    // One baseline for all estimator variants (the demand replay never
    // reads the estimator).
    let mut cfg = bench.cfg(0.3);
    cfg.estimator.history_days = history;
    let baseline = sim.baseline_totals(&cfg)?;

    let mut rows = Vec::new();
    for (label, decay) in variants {
        cfg.estimator.aging_decay = decay;
        let store = bench.store_for(&cfg.estimator)?;
        let out = sim.run_with_store_and_baseline(&cfg, Some(&store), Some(&baseline))?;
        rows.push(AgingRow {
            variant: label,
            load_reduction_pct: out.ratios.server_load_reduction_pct(),
            traffic_pct: out.ratios.traffic_increase_pct(),
        });
    }

    let mut text = String::new();
    text.push_str("drifting site; estimator history variants at T_p = 0.3\n\n");
    text.push_str("variant                     load      traffic\n");
    for r in &rows {
        text.push_str(&format!(
            "{:<24} {:>8}  {:>9}\n",
            r.variant,
            pct(-r.load_reduction_pct),
            pct(r.traffic_pct)
        ));
    }
    text.push_str(
        "\n§3.4 envisions \"an aging mechanism to phase-out dependencies\n\
         exhibited in older traces\"; exponential decay weights recent days\n\
         without discarding history outright.\n",
    );
    Ok(Report::new(
        "exp-aging",
        "ablation: hard history window vs exponential aging (§3.4)",
        text,
        &rows,
    ))
}

// ---------------------------------------------------------------------
// EXP-DIGEST — exact vs Bloom cooperative digests
// ---------------------------------------------------------------------

/// One cache-size point.
#[derive(Debug, Serialize)]
pub struct DigestRow {
    /// Number of cached documents in the digest.
    pub cached_docs: usize,
    /// Exact digest wire size (bytes).
    pub exact_bytes: u64,
    /// Bloom digest wire size (bytes).
    pub bloom_bytes: u64,
    /// Bloom false-positive rate measured against 20k absent ids.
    pub bloom_fp_rate: f64,
}

/// Runs the digest comparison (analytic; no simulation needed).
pub fn exp_digest(_inputs: &Inputs) -> Result<Report> {
    use specweb_core::ids::DocId;
    let mut rows = Vec::new();
    for cached in [50usize, 500, 5_000, 50_000] {
        let exact = ExactDigest::from_docs((0..cached as u32).map(DocId::new));
        let bloom = BloomDigest::from_docs((0..cached as u32).map(DocId::new), cached, 0.01);
        let fps = (cached as u32..cached as u32 + 20_000)
            .filter(|&x| bloom.maybe_contains(DocId::new(x)))
            .count();
        rows.push(DigestRow {
            cached_docs: cached,
            exact_bytes: exact.wire_size().get(),
            bloom_bytes: bloom.wire_size().get(),
            bloom_fp_rate: fps as f64 / 20_000.0,
        });
    }

    let mut text = String::new();
    text.push_str("piggybacked cache digests: exact id list vs Bloom filter\n\n");
    text.push_str("cached docs   exact bytes   bloom bytes   bloom FP rate\n");
    for r in &rows {
        text.push_str(&format!(
            "{:>11}   {:>11}   {:>11}   {:>12.3}%\n",
            r.cached_docs,
            r.exact_bytes,
            r.bloom_bytes,
            r.bloom_fp_rate * 100.0
        ));
    }
    text.push_str(
        "\nthe paper's cooperative clients piggyback \"a list of document\n\
         IDs\"; a Bloom digest carries the same suppression power in ~1.2\n\
         bytes per document with a bounded false-positive rate (a false\n\
         positive merely skips one useful push — safe, never wasteful).\n",
    );
    Ok(Report::new(
        "exp-digest",
        "ablation: exact vs Bloom cooperative cache digests",
        text,
        &rows,
    ))
}

// ---------------------------------------------------------------------
// EXP-QUEUE — what load reduction means at the server (M/G/1)
// ---------------------------------------------------------------------

/// One operating point.
#[derive(Debug, Serialize)]
pub struct QueueRow {
    /// The threshold used.
    pub tp: f64,
    /// Measured server-load reduction from the simulator.
    pub load_reduction_pct: f64,
    /// Server utilization without speculation.
    pub rho_before: f64,
    /// Server utilization with speculation.
    pub rho_after: f64,
    /// Mean response time without speculation, seconds (`None` =
    /// saturated).
    pub response_before: Option<f64>,
    /// Mean response time with speculation, seconds.
    pub response_after: Option<f64>,
}

/// Couples the simulator's measured load reductions to an M/G/1 server
/// at a peak-hour operating point: the paper's "−35% server load"
/// rendered as response time.
pub fn exp_queue(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.bu()?;
    let (sim, store) = (bench.sim(), bench.store()?);
    let mut cfg = bench.cfg(0.5);

    // Peak-hour operating point: a 1995 httpd (capacity 20 req/s at
    // 50 ms mean service) running hot at ρ = 0.95.
    let server = Mg1::httpd_1995();
    let lambda = 0.95 / server.mean_service_secs;

    let tps: &[f64] = match inputs.scale {
        Scale::Full => &[0.9, 0.5, 0.3, 0.15],
        Scale::Quick => &[0.5, 0.15],
    };
    // One baseline serves the whole T_p sweep.
    let baseline = sim.baseline_totals(&cfg)?;

    let mut rows = Vec::new();
    for &tp in tps {
        cfg.policy = Policy::Threshold { tp };
        let out = sim.run_with_store_and_baseline(&cfg, Some(store), Some(&baseline))?;
        let reduction = out.ratios.server_load_reduction_pct();
        let relief = load_relief(&server, lambda, reduction / 100.0)?;
        rows.push(QueueRow {
            tp,
            load_reduction_pct: reduction,
            rho_before: relief.rho_before,
            rho_after: relief.rho_after,
            response_before: relief.response_before,
            response_after: relief.response_after,
        });
    }

    let mut text = String::new();
    text.push_str(&format!(
        "M/G/1 httpd (50 ms mean service, c²=4) at peak-hour λ = {lambda:.1} req/s (ρ = 0.95)

"
    ));
    text.push_str(
        "  T_p    load-red      ρ before→after    response before→after
",
    );
    for r in &rows {
        let fmt_t = |t: Option<f64>| match t {
            Some(x) => format!("{:.0} ms", x * 1000.0),
            None => "saturated".to_string(),
        };
        text.push_str(&format!(
            "{:>5.2}   {:>7.1}%    {:>6.2} → {:>5.2}    {:>9} → {}
",
            r.tp,
            r.load_reduction_pct,
            r.rho_before,
            r.rho_after,
            fmt_t(r.response_before),
            fmt_t(r.response_after)
        ));
    }
    text.push_str(
        "\nthe paper's ServCost : CommCost = 10,000 : 1 is queueing in\n\
         disguise: near saturation, shaving a third of the requests cuts\n\
         response time by an order of magnitude.\n",
    );
    Ok(Report::new(
        "exp-queue",
        "extension: server load reduction as M/G/1 response time",
        text,
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> Inputs {
        Inputs::new(Scale::Quick, 1, seed)
    }

    #[test]
    fn closure_reaches_further_than_direct() {
        let r = exp_closure(&quick(30)).unwrap();
        // The safety-valve count is always reported, even when zero.
        assert!(r.json["truncated_rows"].as_u64().is_some());
        assert!(r.text.contains("safety valve") || r.text.contains("truncated"));
        for row in r.json["rows"].as_array().unwrap() {
            let c_load = row["closure"][1].as_f64().unwrap();
            let d_load = row["direct"][1].as_f64().unwrap();
            let c_traffic = row["closure"][0].as_f64().unwrap();
            let d_traffic = row["direct"][0].as_f64().unwrap();
            // P* is a superset of P above any threshold: at least as
            // many pushes, so at least as much load reduction and at
            // least as much traffic.
            assert!(c_load >= d_load - 0.5, "closure lost to direct: {row}");
            assert!(c_traffic >= d_traffic - 0.5);
        }
    }

    #[test]
    fn ranking_objectives_split_as_predicted() {
        let r = exp_rank(&quick(31)).unwrap();
        let rows = r.json.as_array().unwrap();
        // Density ranking never intercepts fewer requests; traffic
        // ranking never saves fewer bytes×hops (within noise).
        for row in rows {
            let (t_saved, t_int) = (
                row["by_traffic"][0].as_f64().unwrap(),
                row["by_traffic"][1].as_f64().unwrap(),
            );
            let (d_saved, d_int) = (
                row["by_density"][0].as_f64().unwrap(),
                row["by_density"][1].as_f64().unwrap(),
            );
            assert!(
                d_int >= t_int - 0.02,
                "density should win interception: {row}"
            );
            assert!(
                t_saved >= d_saved - 0.02,
                "traffic should win savings: {row}"
            );
        }
    }

    #[test]
    fn tailoring_helps_or_ties() {
        // At Quick scale a proxy subtree sees few accesses per
        // server, so tailored rankings carry sampling noise; assert
        // ties-within-noise rather than strict improvement.
        let r = exp_tailored(&quick(32)).unwrap();
        for row in r.json.as_array().unwrap() {
            let shared = row["shared"].as_f64().unwrap();
            let tailored = row["tailored"].as_f64().unwrap();
            assert!(
                tailored >= shared - 0.03,
                "tailoring should not hurt: {row}"
            );
        }
    }

    #[test]
    fn shedding_degrades_gracefully() {
        let r = exp_shed(&quick(33)).unwrap();
        let rows = r.json.as_array().unwrap();
        // Tighter caps shed more and save less, but never negative.
        let mut prev_shed = 0u64;
        let mut prev_saved = f64::INFINITY;
        for row in rows {
            let shed = row["shed"].as_u64().unwrap();
            let saved = row["reduction"].as_f64().unwrap();
            assert!(shed >= prev_shed, "shedding must grow as caps tighten");
            assert!(saved <= prev_saved + 0.01);
            assert!(saved >= -1e-9, "never below the baseline: {row}");
            prev_shed = shed;
            prev_saved = saved;
        }
        // The uncapped row sheds nothing.
        assert_eq!(rows[0]["shed"], 0);
    }

    #[test]
    fn hierarchy_absorbs_load() {
        let r = exp_hier(&quick(34)).unwrap();
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 3);
        let shed1 = rows[0]["shed_requests"].as_u64().unwrap();
        let shed3 = rows[2]["shed_requests"].as_u64().unwrap();
        assert!(shed3 <= shed1);
        let red1 = rows[0]["reduction"].as_f64().unwrap();
        let red3 = rows[2]["reduction"].as_f64().unwrap();
        assert!(red3 >= red1 - 0.02);
    }

    #[test]
    fn optimizer_beats_baselines_on_mined_profiles() {
        let r = exp_alloc(&quick(35)).unwrap();
        for row in r.json["rows"].as_array().unwrap() {
            let opt = row[1].as_f64().unwrap();
            let pro = row[2].as_f64().unwrap();
            let uni = row[3].as_f64().unwrap();
            let emp = row[4].as_f64().unwrap();
            assert!(opt >= uni - 0.01, "optimal lost to uniform: {row}");
            assert!(opt >= pro - 0.05, "optimal far below proportional: {row}");
            // The empirical greedy sees the true curves — it should not
            // be far below the model-based optimum (and usually above).
            assert!(
                emp >= opt - 0.10,
                "empirical greedy suspiciously weak: {row}"
            );
        }
    }

    #[test]
    fn aging_variants_all_work() {
        let r = exp_aging(&quick(36)).unwrap();
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 3);
        for row in rows {
            let load = row["load_reduction_pct"].as_f64().unwrap();
            assert!(load > 0.0, "variant should still speculate usefully: {row}");
        }
    }

    #[test]
    fn queue_relief_improves_response_time() {
        let r = exp_queue(&quick(37)).unwrap();
        let rows = r.json.as_array().unwrap();
        assert!(!rows.is_empty());
        for row in rows {
            let before = row["response_before"].as_f64();
            let after = row["response_after"].as_f64().unwrap();
            // ρ = 0.95 before: finite but slow; after: strictly faster.
            if let Some(b) = before {
                assert!(after < b, "relief must speed the server: {row}");
            }
            assert!(row["rho_after"].as_f64().unwrap() < 0.95);
        }
        // More aggressive speculation relieves more.
        let first = rows[0]["rho_after"].as_f64().unwrap();
        let last = rows[rows.len() - 1]["rho_after"].as_f64().unwrap();
        assert!(last <= first + 1e-9);
    }

    #[test]
    fn bloom_digest_is_compact_and_accurate() {
        let r = exp_digest(&quick(0)).unwrap();
        for row in r.json.as_array().unwrap() {
            let exact = row["exact_bytes"].as_u64().unwrap();
            let bloom = row["bloom_bytes"].as_u64().unwrap();
            let fp = row["bloom_fp_rate"].as_f64().unwrap();
            if row["cached_docs"].as_u64().unwrap() >= 500 {
                assert!(bloom < exact, "bloom should be smaller: {row}");
            }
            assert!(fp < 0.05, "false-positive rate too high: {row}");
        }
    }
}
