//! The remaining experiments: the §3.2 parameter table and the §3.4 /
//! §2.3 studies that the paper reports in prose rather than figures.

use serde::Serialize;
use specweb_core::rng::SeedTree;
use specweb_core::time::Duration;
use specweb_core::units::Bytes;
use specweb_core::Result;
use specweb_dissem::alloc;
use specweb_dissem::classify::Classifier;
use specweb_spec::cache::CacheModel;
use specweb_spec::policy::Policy;
use specweb_spec::prefetch::HintPolicy;
use specweb_spec::simulate::SpecConfig;
use specweb_trace::document::PopularityClass;
use specweb_trace::updates::UpdateProcess;

use crate::{pct, Inputs, Report, Scale};

// ---------------------------------------------------------------------
// TAB1 — the §3.2 baseline parameter table
// ---------------------------------------------------------------------

/// Renders the paper's baseline parameter table next to this
/// implementation's defaults (which must match).
pub fn tab1(_inputs: &Inputs) -> Result<Report> {
    let cfg = SpecConfig::baseline(0.5);
    #[derive(Serialize)]
    struct Tab1 {
        comm_cost: f64,
        serv_cost: f64,
        stride_timeout_s: u64,
        session_timeout: String,
        max_size: String,
        policy: String,
        history_length_days: u64,
        update_cycle_days: u64,
    }
    let row = Tab1 {
        comm_cost: cfg.cost.comm_cost,
        serv_cost: cfg.cost.serv_cost,
        stride_timeout_s: cfg.estimator.window.as_secs(),
        session_timeout: "∞".into(),
        max_size: "∞".into(),
        policy: "p*[i,j] ≥ T_p".into(),
        history_length_days: cfg.estimator.history_days,
        update_cycle_days: cfg.estimator.update_cycle_days,
    };
    let text = format!(
        "parameter        paper baseline      this implementation\n\
         CommCost         1 unit              {}\n\
         ServCost         10,000 unit         {}\n\
         StrideTimeout    5.0 secs            {} secs (T_w window)\n\
         SessionTimeout   ∞ secs              {:?} (CacheModel)\n\
         MaxSize          ∞ (no limit)        {}\n\
         Policy           p*[i,j] ≥ T_p       Policy::Threshold on P*\n\
         HistoryLength    60 days             {} days\n\
         UpdateCycle      1 day               {} day(s)\n",
        row.comm_cost,
        row.serv_cost,
        row.stride_timeout_s,
        cfg.cache,
        cfg.max_size,
        row.history_length_days,
        row.update_cycle_days,
    );
    Ok(Report::new(
        "tab1",
        "baseline model parameters (§3.2)",
        text,
        &row,
    ))
}

// ---------------------------------------------------------------------
// EXP-UPD — stability of P/P* under site drift (§3.4)
// ---------------------------------------------------------------------

/// One (cycle, history) schedule's measured metrics.
#[derive(Debug, Serialize)]
pub struct UpdRow {
    /// Re-estimation period (the paper's `D`).
    pub update_cycle_days: u64,
    /// History length (the paper's `D'`).
    pub history_days: u64,
    /// The three reductions, percent.
    pub load_reduction_pct: f64,
    /// Service-time reduction.
    pub time_reduction_pct: f64,
    /// Miss-rate reduction.
    pub miss_reduction_pct: f64,
    /// Mean absolute degradation vs the freshest schedule, percentage
    /// points over the three metrics.
    pub degradation_vs_best: f64,
    /// 99th-percentile service time of the speculative run, ms (exact
    /// order statistic over every measured access).
    pub p99_ms: f64,
    /// Baseline 99th percentile, ms — shared by every schedule.
    pub baseline_p99_ms: f64,
}

/// Runs the staleness experiment.
pub fn exp_upd(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.drift()?;
    let (trace, sim) = (&bench.trace, bench.sim());
    let total_days = trace.days();

    // (D, D') schedules, scaled: full = the paper's {1,7,60}×60 + 1×30.
    let schedules: &[(u64, u64)] = match inputs.scale {
        Scale::Full => &[(1, 60), (7, 60), (60, 60), (1, 30)],
        Scale::Quick => &[(1, 12), (4, 12), (12, 12), (1, 6)],
    };

    // All schedules must measure the same days, or the comparison is
    // meaningless: warm up past the *longest* history in the sweep.
    let max_history = schedules.iter().map(|&(_, h)| h).max().unwrap_or(1);
    let mut cfg = bench.cfg(0.3);
    cfg.warmup_days = cfg.warmup_days.max(max_history.min(total_days / 2));

    // One baseline serves every schedule: the demand replay reads only
    // the cache model and warmup days, which the sweep holds fixed.
    let baseline = sim.baseline_totals(&cfg)?;

    let mut rows: Vec<UpdRow> = Vec::new();
    for &(cycle, history) in schedules {
        cfg.estimator.history_days = history;
        cfg.estimator.update_cycle_days = cycle;
        let store = bench.store_for(&cfg.estimator)?;
        let out = sim.run_with_store_and_baseline(&cfg, Some(&store), Some(&baseline))?;
        rows.push(UpdRow {
            update_cycle_days: cycle,
            history_days: history,
            load_reduction_pct: out.ratios.server_load_reduction_pct(),
            time_reduction_pct: out.ratios.service_time_reduction_pct(),
            miss_reduction_pct: out.ratios.miss_rate_reduction_pct(),
            degradation_vs_best: 0.0,
            p99_ms: out.service_times.p99_ms,
            baseline_p99_ms: out.baseline_service_times.p99_ms,
        });
    }
    // Degradation vs the D = 1, long-history schedule (the first row).
    let best = (
        rows[0].load_reduction_pct,
        rows[0].time_reduction_pct,
        rows[0].miss_reduction_pct,
    );
    for r in rows.iter_mut() {
        r.degradation_vs_best = ((best.0 - r.load_reduction_pct)
            + (best.1 - r.time_reduction_pct)
            + (best.2 - r.miss_reduction_pct))
            / 3.0;
    }

    let mut text = String::new();
    text.push_str(&format!(
        "drifting site ({} accesses over {total_days} days); T_p = 0.3\n\n",
        trace.len()
    ));
    text.push_str("  D (cycle)  D' (history)    load     time     miss    degradation   p99 ms\n");
    for r in &rows {
        text.push_str(&format!(
            "{:>10}  {:>12}  {:>7}  {:>7}  {:>7}    {:>6.1} pts  {:>7.0}\n",
            r.update_cycle_days,
            r.history_days,
            pct(-r.load_reduction_pct),
            pct(-r.time_reduction_pct),
            pct(-r.miss_reduction_pct),
            r.degradation_vs_best,
            r.p99_ms
        ));
    }
    if let Some(r) = rows.first() {
        text.push_str(&format!(
            "\nbaseline service-time p99: {:.0} ms (every schedule shares the\n\
             same demand replay)\n",
            r.baseline_p99_ms
        ));
    }
    text.push_str(
        "\npaper: 60-day cycle ⇒ ≈7 pts absolute degradation, 7-day ⇒ ≈3 pts\n\
         (vs the 1-day cycle); shortening D' 60→30 recovers ≈5 pts.\n\
         shape check: degradation grows with the update cycle.\n",
    );

    Ok(Report::new(
        "exp-upd",
        "stability of the P and P* relations under site drift (§3.4)",
        text,
        &rows,
    ))
}

// ---------------------------------------------------------------------
// EXP-SIZE — the MaxSize optimum per traffic budget (§3.4)
// ---------------------------------------------------------------------

/// One grid cell of the (MaxSize, T_p) sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SizeCell {
    /// MaxSize in bytes (`u64::MAX` = ∞).
    pub max_size: u64,
    /// The threshold.
    pub tp: f64,
    /// Traffic increase, percent.
    pub traffic_pct: f64,
    /// Load reduction, percent.
    pub load_reduction_pct: f64,
    /// Service-time reduction, percent.
    pub time_reduction_pct: f64,
}

/// The best cell per (budget, MaxSize).
#[derive(Debug, Serialize)]
pub struct SizeResult {
    /// All grid cells.
    pub grid: Vec<SizeCell>,
    /// For each traffic budget: `(budget_pct, best_max_size,
    /// best_load_reduction)`.
    pub optima: Vec<(f64, u64, f64)>,
}

/// Runs the MaxSize experiment.
pub fn exp_size(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.bu()?;
    let (trace, sim, store) = (&bench.trace, bench.sim(), bench.store()?);
    let mut cfg = bench.cfg(0.5);

    let sizes: &[u64] = match inputs.scale {
        Scale::Full => &[
            4 << 10,
            8 << 10,
            15 << 10,
            29 << 10,
            64 << 10,
            256 << 10,
            u64::MAX,
        ],
        Scale::Quick => &[4 << 10, 15 << 10, 64 << 10, u64::MAX],
    };
    let tps: &[f64] = match inputs.scale {
        // Fine grid: the MaxSize tradeoff is about how much *lower* a
        // threshold the cap lets you afford within a traffic budget.
        Scale::Full => &[
            0.9, 0.7, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05,
        ],
        Scale::Quick => &[0.9, 0.7, 0.3, 0.1],
    };

    // One baseline serves the whole grid: neither MaxSize nor T_p is
    // read by the demand replay.
    let baseline = sim.baseline_totals(&cfg)?;

    let mut grid = Vec::new();
    for &ms in sizes {
        for &tp in tps {
            cfg.policy = Policy::Threshold { tp };
            cfg.max_size = Bytes::new(ms);
            let out = sim.run_with_store_and_baseline(&cfg, Some(store), Some(&baseline))?;
            grid.push(SizeCell {
                max_size: ms,
                tp,
                traffic_pct: out.ratios.traffic_increase_pct(),
                load_reduction_pct: out.ratios.server_load_reduction_pct(),
                time_reduction_pct: out.ratios.service_time_reduction_pct(),
            });
        }
    }

    // For each traffic budget, the best load reduction achievable per
    // MaxSize (choosing T_p freely within the budget), and the overall
    // optimal MaxSize.
    let budgets = [3.0f64, 10.0];
    let mut optima = Vec::new();
    let mut text = String::new();
    text.push_str(&format!(
        "(MaxSize × T_p) grid on {} accesses; per-budget optimum\n\n",
        trace.len()
    ));
    for &budget in &budgets {
        text.push_str(&format!("traffic budget ≤ +{budget:.0}%:\n"));
        text.push_str("  MaxSize     best load reduction (T_p chosen within budget)\n");
        let mut best: Option<(u64, f64)> = None;
        for &ms in sizes {
            let cell = grid
                .iter()
                .filter(|c| c.max_size == ms && c.traffic_pct <= budget)
                .max_by(|a, b| a.load_reduction_pct.total_cmp(&b.load_reduction_pct));
            let label = if ms == u64::MAX {
                "      ∞".to_string()
            } else {
                format!("{:>6}K", ms >> 10)
            };
            match cell {
                Some(c) => {
                    text.push_str(&format!(
                        "  {label}    −{:.1}% (T_p = {:.2}, traffic {})\n",
                        c.load_reduction_pct,
                        c.tp,
                        pct(c.traffic_pct)
                    ));
                    if best.is_none_or(|(_, b)| c.load_reduction_pct > b) {
                        best = Some((ms, c.load_reduction_pct));
                    }
                }
                None => {
                    text.push_str(&format!("  {label}    (budget unreachable)\n"));
                }
            }
        }
        if let Some((ms, red)) = best {
            optima.push((budget, ms, red));
            let label = if ms == u64::MAX {
                "∞".to_string()
            } else {
                format!("{}K", ms >> 10)
            };
            text.push_str(&format!("  → optimal MaxSize ≈ {label}\n\n"));
        }
    }
    text.push_str(
        "paper: ≈15 KB optimal at a 3% budget, ≈29 KB at 10% — the optimum\n\
         MaxSize grows with the tolerable traffic.\n",
    );

    let result = SizeResult { grid, optima };
    Ok(Report::new(
        "exp-size",
        "effect of document size: optimal MaxSize per traffic budget (§3.4)",
        text,
        &result,
    ))
}

// ---------------------------------------------------------------------
// EXP-CACHE — client caching spectrum (§3.4)
// ---------------------------------------------------------------------

/// One cache model's outcome at a fixed threshold.
#[derive(Debug, Serialize)]
pub struct CacheRow {
    /// Human label.
    pub cache: String,
    /// The threshold used.
    pub tp: f64,
    /// The four metrics (percent changes).
    pub traffic_pct: f64,
    /// Load reduction.
    pub load_reduction_pct: f64,
    /// Service-time reduction.
    pub time_reduction_pct: f64,
    /// Miss-rate reduction.
    pub miss_reduction_pct: f64,
}

/// Runs the client-caching experiment.
pub fn exp_cache(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.bu()?;
    let (sim, store) = (bench.sim(), bench.store()?);
    let mut cfg = bench.cfg(0.3);

    let models: Vec<(String, CacheModel)> = vec![
        (
            "session 10 min (no long-term cache)".into(),
            CacheModel::Session {
                timeout: Duration::from_secs(600),
            },
        ),
        (
            "session 60 min".into(),
            CacheModel::Session {
                timeout: Duration::from_secs(3_600),
            },
        ),
        (
            "LRU 1 MiB".into(),
            CacheModel::Lru {
                capacity: Bytes::from_mib(1),
            },
        ),
        ("infinite (baseline)".into(), CacheModel::Infinite),
    ];

    let mut rows = Vec::new();
    for (label, model) in &models {
        cfg.cache = *model;
        let out = sim.run_with_store_and_baseline(&cfg, Some(store), None)?;
        rows.push(CacheRow {
            cache: label.clone(),
            tp: 0.3,
            traffic_pct: out.ratios.traffic_increase_pct(),
            load_reduction_pct: out.ratios.server_load_reduction_pct(),
            time_reduction_pct: out.ratios.service_time_reduction_pct(),
            miss_reduction_pct: out.ratios.miss_rate_reduction_pct(),
        });
    }

    let mut text = String::new();
    text.push_str("speculation at T_p = 0.3 under different client caches\n\n");
    text.push_str("cache                                 traffic     load     time     miss\n");
    for r in &rows {
        text.push_str(&format!(
            "{:<36} {:>8}  {:>7}  {:>7}  {:>7}\n",
            r.cache,
            pct(r.traffic_pct),
            pct(-r.load_reduction_pct),
            pct(-r.time_reduction_pct),
            pct(-r.miss_reduction_pct)
        ));
    }
    text.push_str(
        "\npaper: gains persist even without a long-term cache; with an\n\
         infinite cache the *relative* gains shrink slightly (35/27/23 →\n\
         32/24/19 at +10% traffic) because the baseline is already good.\n",
    );

    Ok(Report::new(
        "exp-cache",
        "effect of client caching (§3.4)",
        text,
        &rows,
    ))
}

// ---------------------------------------------------------------------
// EXP-COOP — cooperative clients (§3.4)
// ---------------------------------------------------------------------

/// One row of the cooperation comparison.
#[derive(Debug, Serialize)]
pub struct CoopRow {
    /// The threshold.
    pub tp: f64,
    /// Plain traffic increase.
    pub plain_traffic_pct: f64,
    /// Cooperative traffic increase.
    pub coop_traffic_pct: f64,
    /// Plain wasted pushes.
    pub plain_wasted: u64,
    /// Cooperative wasted pushes (must be 0).
    pub coop_wasted: u64,
    /// Load reductions (plain, coop).
    pub load_reduction_pct: (f64, f64),
}

/// Runs the cooperative-clients experiment.
pub fn exp_coop(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.bu()?;
    let (sim, store) = (bench.sim(), bench.store()?);
    let mut cfg = bench.cfg(0.3);
    // Session caches create re-push opportunities (the waste that
    // cooperation eliminates).
    cfg.cache = CacheModel::Session {
        timeout: Duration::from_secs(3_600),
    };

    let tps: &[f64] = match inputs.scale {
        Scale::Full => &[0.7, 0.5, 0.3, 0.15],
        Scale::Quick => &[0.5, 0.15],
    };
    // One baseline for every (T_p, cooperation) cell — neither knob is
    // read by the demand replay.
    let baseline = sim.baseline_totals(&cfg)?;

    let mut rows = Vec::new();
    for &tp in tps {
        cfg.policy = Policy::Threshold { tp };
        cfg.cooperative = false;
        let plain = sim.run_with_store_and_baseline(&cfg, Some(store), Some(&baseline))?;
        cfg.cooperative = true;
        let coop = sim.run_with_store_and_baseline(&cfg, Some(store), Some(&baseline))?;
        rows.push(CoopRow {
            tp,
            plain_traffic_pct: plain.ratios.traffic_increase_pct(),
            coop_traffic_pct: coop.ratios.traffic_increase_pct(),
            plain_wasted: plain.wasted_pushes,
            coop_wasted: coop.wasted_pushes,
            load_reduction_pct: (
                plain.ratios.server_load_reduction_pct(),
                coop.ratios.server_load_reduction_pct(),
            ),
        });
    }

    let mut text = String::new();
    text.push_str("plain vs cooperative clients (session cache, 60 min)\n\n");
    text.push_str("  T_p    traffic plain→coop    wasted plain→coop    load plain→coop\n");
    for r in &rows {
        text.push_str(&format!(
            "{:>5.2}   {:>8} → {:>7}   {:>8} → {:>5}    −{:.1}% → −{:.1}%\n",
            r.tp,
            pct(r.plain_traffic_pct),
            pct(r.coop_traffic_pct),
            r.plain_wasted,
            r.coop_wasted,
            r.load_reduction_pct.0,
            r.load_reduction_pct.1
        ));
    }
    text.push_str(
        "\npaper: cooperation yields better bandwidth utilization — same\n\
         load savings, strictly less traffic, zero wasted pushes.\n",
    );

    Ok(Report::new(
        "exp-coop",
        "cooperative clients (§3.4)",
        text,
        &rows,
    ))
}

// ---------------------------------------------------------------------
// EXP-PREF — server-assisted & client-initiated prefetching (§3.4)
// ---------------------------------------------------------------------

/// One strategy's outcome.
#[derive(Debug, Serialize)]
pub struct PrefRow {
    /// Strategy label.
    pub strategy: String,
    /// The four metrics.
    pub traffic_pct: f64,
    /// Load reduction.
    pub load_reduction_pct: f64,
    /// Time reduction.
    pub time_reduction_pct: f64,
    /// Miss reduction.
    pub miss_reduction_pct: f64,
    /// Pushes / prefetches issued.
    pub pushes: u64,
    /// Client-initiated prefetch requests.
    pub prefetches: u64,
}

/// Runs the prefetching-strategy comparison.
pub fn exp_pref(inputs: &Inputs) -> Result<Report> {
    let bench = inputs.bu()?;
    let (sim, store) = (bench.sim(), bench.store()?);

    let base = || {
        let mut c = bench.cfg(0.3);
        c.cache = CacheModel::Session {
            timeout: Duration::from_secs(3_600),
        };
        c
    };

    // All five strategies share one baseline (same cache, same warmup).
    let baseline = sim.baseline_totals(&base())?;

    let mut rows = Vec::new();
    let mut measure = |label: &str, cfg: &SpecConfig| -> Result<()> {
        let out = sim.run_with_store_and_baseline(cfg, Some(store), Some(&baseline))?;
        rows.push(PrefRow {
            strategy: label.to_string(),
            traffic_pct: out.ratios.traffic_increase_pct(),
            load_reduction_pct: out.ratios.server_load_reduction_pct(),
            time_reduction_pct: out.ratios.service_time_reduction_pct(),
            miss_reduction_pct: out.ratios.miss_rate_reduction_pct(),
            pushes: out.pushes,
            prefetches: out.prefetches,
        });
        Ok(())
    };

    measure("server push (T_p = 0.3)", &base())?;

    let mut c = base();
    c.policy = Policy::EmbeddingOnly;
    measure("embedding-only push", &c)?;

    let mut c = base();
    c.policy = Policy::Hybrid {
        push_tp: 0.95,
        hint_tp: 0.2,
    };
    c.hint_policy = HintPolicy::Threshold { tp: 0.3 };
    measure("hybrid: push certain, hint rest", &c)?;

    let mut c = base();
    c.policy = Policy::Hybrid {
        push_tp: 0.95,
        hint_tp: 0.2,
    };
    c.hint_policy = HintPolicy::ProfileGated {
        tp: 0.25,
        own_tp: 0.4,
    };
    measure("hybrid, profile-gated hints", &c)?;

    let mut c = base();
    c.policy = Policy::TopK { k: 0, floor: 1.0 };
    c.client_profile_prefetch = Some(0.4);
    measure("client profile prefetch only", &c)?;

    let mut text = String::new();
    text.push_str("strategy                            traffic     load     time     miss   pushes  prefetch\n");
    for r in &rows {
        text.push_str(&format!(
            "{:<34} {:>8}  {:>7}  {:>7}  {:>7}  {:>7}  {:>7}\n",
            r.strategy,
            pct(r.traffic_pct),
            pct(-r.load_reduction_pct),
            pct(-r.time_reduction_pct),
            pct(-r.miss_reduction_pct),
            r.pushes,
            r.prefetches
        ));
    }
    text.push_str(
        "\npaper: client-initiated prefetching is very effective for\n\
         frequently-traversed patterns but useless for new documents —\n\
         only server speculation covers those; the hybrid combines both.\n",
    );

    Ok(Report::new(
        "exp-pref",
        "server-assisted prefetching and hybrids (§3.4)",
        text,
        &rows,
    ))
}

// ---------------------------------------------------------------------
// EXP-CLASS — document classes & update behaviour (§2)
// ---------------------------------------------------------------------

/// The classification summary.
#[derive(Debug, Serialize)]
pub struct ClassResult {
    /// Counts: remotely / locally / globally popular, never accessed.
    pub remote: usize,
    /// Locally popular.
    pub local: usize,
    /// Globally popular.
    pub global: usize,
    /// Never accessed.
    pub unaccessed: usize,
    /// Measured mean updates/day per class (remote, local, global).
    pub update_rates: (f64, f64, f64),
    /// Fraction of all updates hitting the mutable subset.
    pub mutable_update_share: f64,
}

/// Runs the classification experiment.
pub fn exp_class(inputs: &Inputs) -> Result<Report> {
    let trace = &inputs.bu()?.trace;
    let days = match inputs.scale {
        Scale::Full => 186, // the paper's monitoring span
        Scale::Quick => 30,
    };
    let updates =
        UpdateProcess::default().generate(&SeedTree::new(inputs.seed), &trace.catalog, days);
    let classified = Classifier::default().classify(trace, &updates, days);
    let (r, l, g, u) = Classifier::class_summary(&classified);

    // Measured update rates per *ground-truth* class.
    let mut per_class = [(0u64, 0usize); 3]; // (updates, docs)
    for d in trace.catalog.iter() {
        let idx = match d.class {
            PopularityClass::Remote => 0,
            PopularityClass::Local => 1,
            PopularityClass::Global => 2,
        };
        per_class[idx].1 += 1;
    }
    let mut mutable_updates = 0u64;
    for upd in &updates {
        let doc = trace.catalog.get(upd.doc);
        let idx = match doc.class {
            PopularityClass::Remote => 0,
            PopularityClass::Local => 1,
            PopularityClass::Global => 2,
        };
        per_class[idx].0 += 1;
        if doc.mutable {
            mutable_updates += 1;
        }
    }
    let rate = |i: usize| {
        if per_class[i].1 == 0 {
            0.0
        } else {
            per_class[i].0 as f64 / (per_class[i].1 as f64 * days as f64)
        }
    };
    let result = ClassResult {
        remote: r,
        local: l,
        global: g,
        unaccessed: u,
        update_rates: (rate(0), rate(1), rate(2)),
        mutable_update_share: mutable_updates as f64 / updates.len().max(1) as f64,
    };

    let text = format!(
        "classified {} documents over a {days}-day update history\n\n\
         class               paper (of 974)   here (of {})\n\
         remotely popular    99               {}\n\
         locally popular     510              {}\n\
         globally popular    365              {}\n\
         never accessed      —                {}\n\n\
         measured update probability per document per day:\n\
         remote {:.3}%/day | local {:.3}%/day | global {:.3}%/day\n\
         (paper: <0.5%/day for remote/global, ≈2%/day for local)\n\n\
         share of updates hitting the mutable subset: {:.0}%\n\
         (paper: frequent updates confined to a very small subset)\n",
        classified.len(),
        classified.len(),
        result.remote,
        result.local,
        result.global,
        result.unaccessed,
        result.update_rates.0 * 100.0,
        result.update_rates.1 * 100.0,
        result.update_rates.2 * 100.0,
        result.mutable_update_share * 100.0,
    );

    Ok(Report::new(
        "exp-class",
        "document popularity classes and update behaviour (§2)",
        text,
        &result,
    ))
}

// ---------------------------------------------------------------------
// EXP-SIZING — eq. 10 storage sizing (§2.3)
// ---------------------------------------------------------------------

/// One sizing row.
#[derive(Debug, Serialize)]
pub struct SizingRow {
    /// Number of servers.
    pub n: usize,
    /// Target shielding α.
    pub alpha: f64,
    /// Required storage (bytes).
    pub storage: u64,
}

/// Runs the sizing table.
pub fn exp_sizing(_inputs: &Inputs) -> Result<Report> {
    let lambda = specweb_core::dist::ExponentialPopularity::BU_WWW_LAMBDA;
    let mut rows = Vec::new();
    let mut text = String::new();
    text.push_str(&format!(
        "λ = {lambda:.3e} (the paper's cs-www.bu.edu fit)\n\n"
    ));
    text.push_str("  n servers   target α    storage needed\n");
    for (n, alpha) in [
        (10usize, 0.5),
        (10, 0.9),
        (10, 0.96),
        (100, 0.9),
        (100, 0.96),
    ] {
        let b = alloc::storage_for_alpha(n, lambda, alpha)?;
        rows.push(SizingRow {
            n,
            alpha,
            storage: b.get(),
        });
        text.push_str(&format!(
            "{:>10}   {:>7.0}%   {:>10.1} MB\n",
            n,
            alpha * 100.0,
            b.as_f64() / 1e6
        ));
    }
    // The reverse direction: what 500 MB buys for 100 servers.
    let a = alloc::alpha_for_storage(100, lambda, Bytes::new(500_000_000));
    text.push_str(&format!(
        "\n500 MB across 100 servers shields α = {:.1}% (paper: ≈96%)\n",
        a * 100.0
    ));
    text.push_str(
        "paper anchor: 10 servers at 90% ⇒ 36 MB. Note eq. 10 as printed\n\
         has a typo (ln 1/α); the numbers match ln 1/(1−α), implemented here.\n",
    );

    Ok(Report::new(
        "exp-sizing",
        "proxy storage sizing via eq. 10 (§2.3)",
        text,
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh quick-scale world per test, as private as before.
    fn quick(seed: u64) -> Inputs {
        Inputs::new(Scale::Quick, 1, seed)
    }

    #[test]
    fn tab1_matches_paper_defaults() {
        let r = tab1(&quick(0)).unwrap();
        assert_eq!(r.json["comm_cost"], 1.0);
        assert_eq!(r.json["serv_cost"], 10_000.0);
        assert_eq!(r.json["stride_timeout_s"], 5);
        assert_eq!(r.json["history_length_days"], 60);
        assert_eq!(r.json["update_cycle_days"], 1);
    }

    #[test]
    fn exp_upd_shows_staleness_cost() {
        let r = exp_upd(&quick(21)).unwrap();
        let rows = r.json.as_array().unwrap();
        // Row 0 is the freshest schedule; the longest cycle (row 2) must
        // degrade at least as much as the short cycle (row 1).
        let deg: Vec<f64> = rows
            .iter()
            .map(|x| x["degradation_vs_best"].as_f64().unwrap())
            .collect();
        assert_eq!(deg[0], 0.0);
        assert!(
            deg[2] >= deg[1] - 1.0,
            "long cycle should degrade at least as much: {deg:?}"
        );
        assert!(
            deg[2] > 0.0,
            "stale estimates should cost something: {deg:?}"
        );
    }

    #[test]
    fn exp_size_reports_budget_respecting_optima() {
        let r = exp_size(&quick(22)).unwrap();
        let optima = r.json["optima"].as_array().unwrap();
        assert!(!optima.is_empty(), "no budget was reachable at all");
        // Every reported optimum respects its budget: some grid cell
        // with that MaxSize achieves the reduction within the budget.
        let grid = r.json["grid"].as_array().unwrap();
        for opt in optima {
            let budget = opt[0].as_f64().unwrap();
            let ms = opt[1].as_u64().unwrap();
            let red = opt[2].as_f64().unwrap();
            let witness = grid.iter().any(|c| {
                c["max_size"].as_u64().unwrap() == ms
                    && c["traffic_pct"].as_f64().unwrap() <= budget
                    && (c["load_reduction_pct"].as_f64().unwrap() - red).abs() < 1e-9
            });
            assert!(witness, "optimum {opt} has no witness cell");
        }
    }

    #[test]
    fn exp_cache_runs_all_models() {
        let r = exp_cache(&quick(23)).unwrap();
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            let load = row["load_reduction_pct"].as_f64().unwrap();
            assert!(load >= -1.0, "cache row regressed: {row}");
        }
    }

    #[test]
    fn exp_coop_eliminates_waste() {
        let r = exp_coop(&quick(24)).unwrap();
        for row in r.json.as_array().unwrap() {
            assert_eq!(row["coop_wasted"], 0);
            let plain = row["plain_traffic_pct"].as_f64().unwrap();
            let coop = row["coop_traffic_pct"].as_f64().unwrap();
            assert!(coop <= plain + 1e-9, "cooperation increased traffic: {row}");
        }
    }

    #[test]
    fn exp_pref_compares_strategies() {
        let r = exp_pref(&quick(25)).unwrap();
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 5);
        // Client-only prefetching issues prefetches but no pushes.
        let client_only = &rows[4];
        assert_eq!(client_only["pushes"], 0);
        assert!(client_only["prefetches"].as_u64().unwrap() > 0);
    }

    #[test]
    fn exp_class_finds_all_classes() {
        let r = exp_class(&quick(26)).unwrap();
        assert!(r.json["remote"].as_u64().unwrap() > 0);
        assert!(r.json["local"].as_u64().unwrap() > 0);
        assert!(r.json["global"].as_u64().unwrap() > 0);
        // Local docs update visibly faster than remote ones.
        let rates = r.json["update_rates"].as_array().unwrap();
        let remote = rates[0].as_f64().unwrap();
        let local = rates[1].as_f64().unwrap();
        assert!(local > remote, "local {local} vs remote {remote}");
        // Mutable docs carry the bulk of updates.
        assert!(r.json["mutable_update_share"].as_f64().unwrap() > 0.5);
    }

    #[test]
    fn exp_sizing_reproduces_paper_numbers() {
        let r = exp_sizing(&quick(0)).unwrap();
        let rows = r.json.as_array().unwrap();
        // 10 servers at 90% ⇒ ≈36–37 MB.
        let row = rows
            .iter()
            .find(|x| x["n"] == 10 && x["alpha"] == 0.9)
            .unwrap();
        let mb = row["storage"].as_f64().unwrap() / 1e6;
        assert!((mb - 36.9).abs() < 1.0, "got {mb} MB");
    }
}
