//! Figures 5 & 6 — the baseline speculative-service sweep.
//!
//! Fig. 5 plots the four metrics against the speculation threshold
//! `T_p` under the baseline parameters (§3.2 table). Fig. 6 replots the
//! same runs against the % *increase in traffic*, where the paper reads
//! off its headline numbers:
//!
//! * +5% traffic  ⇒ −30% server load, −23% service time, −18% miss rate;
//! * +10% traffic ⇒ −35%, −27%, −23%;
//! * +50% traffic ⇒ −45%, −40%, −35%;
//! * +100% traffic ⇒ only ≈ 7/6/2 points more than +50%.
//!
//! Absolute values depend on the trace; the *shape* — steep gains for
//! the first few percent of traffic, hard saturation beyond — is the
//! reproduction target.

use serde::Serialize;
use specweb_core::Result;

use crate::workloads::Workbench;
use crate::{pct, Inputs, Report, Scale};

/// One sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// The threshold `T_p`.
    pub tp: f64,
    /// Traffic increase, percent.
    pub traffic_pct: f64,
    /// Server-load reduction, percent.
    pub load_reduction_pct: f64,
    /// Service-time reduction, percent.
    pub time_reduction_pct: f64,
    /// Miss-rate reduction, percent.
    pub miss_reduction_pct: f64,
    /// Raw pushes / wasted pushes.
    pub pushes: u64,
    /// Pushes that found the document already cached.
    pub wasted_pushes: u64,
}

/// The full sweep (shared by fig5 and fig6).
#[derive(Debug, Clone, Serialize)]
pub struct Sweep {
    /// Points in decreasing `T_p` order.
    pub points: Vec<SweepPoint>,
    /// Accesses in the driving trace.
    pub trace_len: usize,
}

/// The `T_p` grid.
fn tp_grid(scale: Scale) -> &'static [f64] {
    match scale {
        Scale::Full => &[
            1.0, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.05, 0.02,
        ],
        Scale::Quick => &[1.0, 0.9, 0.7, 0.5, 0.3, 0.15, 0.05],
    }
}

/// Runs the baseline sweep on `bench` with `jobs` workers on the `T_p`
/// grid.
///
/// Each grid point is an independent replay of the same trace against
/// the same precomputed matrices, so the points fan out on `jobs`
/// workers; the result is byte-identical for every `jobs` value. So
/// is the per-policy accounting the replays publish to the run —
/// counter merges are commutative sums.
fn sweep(bench: &Workbench, jobs: usize) -> Result<Sweep> {
    let (sim, store) = (bench.sim(), bench.store()?);
    let cfg = bench.cfg(0.5);

    // One baseline replay serves the whole T_p grid — the demand side
    // never reads the policy.
    let baseline = sim.baseline_totals(&cfg)?;

    let points = specweb_core::par::Pool::new(jobs).try_map_indexed(
        tp_grid(bench.scale),
        |_, &tp| -> Result<SweepPoint> {
            let mut cfg = cfg;
            cfg.policy = specweb_spec::policy::Policy::Threshold { tp };
            let out = sim.run_with_store_and_baseline(&cfg, Some(store), Some(&baseline))?;
            Ok(SweepPoint {
                tp,
                traffic_pct: out.ratios.traffic_increase_pct(),
                load_reduction_pct: out.ratios.server_load_reduction_pct(),
                time_reduction_pct: out.ratios.service_time_reduction_pct(),
                miss_reduction_pct: out.ratios.miss_rate_reduction_pct(),
                pushes: out.pushes,
                wasted_pushes: out.wasted_pushes,
            })
        },
    )?;
    Ok(Sweep {
        points,
        trace_len: bench.trace.len(),
    })
}

/// The baseline sweep replicated across independent seeds.
///
/// `seeds[0]` is the run's seed and `base` its sweep, on the shared bu
/// workbench; the extra replication seeds are derived with
/// `SeedTree::child_idx("fig5-rep", r)`, one independent trace each.
#[derive(Debug, Clone, Serialize)]
pub struct Replicated {
    /// The base-seed sweep (rendered in full).
    pub base: Sweep,
    /// Sweeps for the extra replication seeds.
    pub reps: Vec<Sweep>,
    /// All seeds: `[base, rep 1, rep 2, …]`.
    pub seeds: Vec<u64>,
}

/// Runs the baseline sweep for the base seed plus
/// [`crate::workloads::REPLICAS`] derived seeds, fanning the
/// replications out in parallel (each inner `T_p` grid then runs
/// serially so the fan-out does not nest).
fn sweep_replicated(inputs: &Inputs) -> Result<Replicated> {
    let (seeds, mut reps) = inputs.replicated("fig5-rep", |bench| sweep(bench, 1))?;
    // `seeds[0]` is the run's own seed: there is always a first sweep.
    let base = reps.remove(0);
    Ok(Replicated { base, reps, seeds })
}

/// Mean and sample standard deviation.
pub(crate) fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() > 1 {
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

/// Renders the cross-seed dispersion appendix shared by fig5 and fig6.
fn replication_appendix(r: &Replicated) -> String {
    let mut all: Vec<&Sweep> = Vec::with_capacity(1 + r.reps.len());
    all.push(&r.base);
    all.extend(r.reps.iter());
    let at_min_tp = |f: &dyn Fn(&SweepPoint) -> f64| -> Vec<f64> {
        all.iter().filter_map(|s| s.points.last()).map(f).collect()
    };
    let (lm, ls) = mean_sd(&at_min_tp(&|p| p.load_reduction_pct));
    let (tm, ts) = mean_sd(&at_min_tp(&|p| p.traffic_pct));
    format!(
        "\nreplication across {} independent seeds {:?}, at the most\n\
         aggressive T_p: load reduction {:.1}% ± {:.1}, traffic +{:.1}% ± {:.1}.\n",
        r.seeds.len(),
        r.seeds,
        lm,
        ls,
        tm,
        ts
    )
}

/// Renders Fig. 5 from a replicated sweep (the base sweep in full, the
/// replications as a dispersion appendix).
fn report(replicated: &Replicated) -> Report {
    let sweep = &replicated.base;
    let mut text = String::new();
    text.push_str(&format!(
        "baseline parameters, {} accesses; metrics vs T_p\n\n",
        sweep.trace_len
    ));
    text.push_str("  T_p    traffic     load     time     miss    pushes (wasted)\n");
    for p in &sweep.points {
        text.push_str(&format!(
            "{:>5.2}  {:>8}  {:>7}  {:>7}  {:>7}   {:>7} ({})\n",
            p.tp,
            pct(p.traffic_pct),
            pct(-p.load_reduction_pct),
            pct(-p.time_reduction_pct),
            pct(-p.miss_reduction_pct),
            p.pushes,
            p.wasted_pushes
        ));
    }
    text.push_str("\nreductions (%) vs T_p:\n");
    let series = vec![
        crate::plot::Series::new(
            "load",
            sweep
                .points
                .iter()
                .map(|p| (p.tp, p.load_reduction_pct))
                .collect(),
        ),
        crate::plot::Series::new(
            "time",
            sweep
                .points
                .iter()
                .map(|p| (p.tp, p.time_reduction_pct))
                .collect(),
        ),
        crate::plot::Series::new(
            "miss",
            sweep
                .points
                .iter()
                .map(|p| (p.tp, p.miss_reduction_pct))
                .collect(),
        ),
    ];
    text.push_str(&crate::plot::render(&series, 64, 14));
    text.push_str(
        "\nshape check: near T_p = 1 traffic is ≈ flat (embedding deps are\n\
         free); lowering T_p buys load/time/miss reductions at increasing\n\
         bandwidth cost, with diminishing returns.\n",
    );
    text.push_str(&replication_appendix(replicated));
    Report::new(
        "fig5",
        "baseline simulation results vs speculation threshold T_p",
        text,
        replicated,
    )
}

/// Linear interpolation of the sweep at a given traffic increase.
fn at_traffic(sweep: &Sweep, traffic_pct: f64) -> Option<(f64, f64, f64)> {
    // Points are in increasing-traffic order when reversed by tp.
    // total_cmp keeps a degenerate (NaN-traffic) point from panicking.
    let mut pts: Vec<&SweepPoint> = sweep.points.iter().collect();
    pts.sort_by(|a, b| a.traffic_pct.total_cmp(&b.traffic_pct));
    if pts.is_empty() || traffic_pct < pts[0].traffic_pct {
        return None;
    }
    for w in pts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.traffic_pct <= traffic_pct && traffic_pct <= b.traffic_pct {
            let span = (b.traffic_pct - a.traffic_pct).max(1e-9);
            let t = (traffic_pct - a.traffic_pct) / span;
            let lerp = |x: f64, y: f64| x + (y - x) * t;
            return Some((
                lerp(a.load_reduction_pct, b.load_reduction_pct),
                lerp(a.time_reduction_pct, b.time_reduction_pct),
                lerp(a.miss_reduction_pct, b.miss_reduction_pct),
            ));
        }
    }
    // Beyond the last point: clamp to it.
    pts.last().map(|p| {
        (
            p.load_reduction_pct,
            p.time_reduction_pct,
            p.miss_reduction_pct,
        )
    })
}

/// Machine-readable fig6 result.
#[derive(Debug, Serialize)]
pub struct Fig6 {
    /// `(traffic_pct, load_red, time_red, miss_red)` checkpoints.
    pub checkpoints: Vec<(f64, f64, f64, f64)>,
    /// The underlying replicated sweep.
    pub sweep: Replicated,
}

/// Renders Fig. 6 (gains vs % traffic increase) from the same sweep.
fn report_fig6(replicated: &Replicated) -> Report {
    let sweep = &replicated.base;
    let mut text = String::new();
    text.push_str("performance gains as a function of extra traffic\n\n");
    text.push_str("traffic    load     time     miss\n");
    let mut pts: Vec<&SweepPoint> = sweep.points.iter().collect();
    pts.sort_by(|a, b| a.traffic_pct.total_cmp(&b.traffic_pct));
    for p in &pts {
        text.push_str(&format!(
            "{:>7}  {:>7}  {:>7}  {:>7}\n",
            pct(p.traffic_pct),
            pct(-p.load_reduction_pct),
            pct(-p.time_reduction_pct),
            pct(-p.miss_reduction_pct)
        ));
    }

    let mut checkpoints = Vec::new();
    text.push_str("\npaper checkpoints (paper ⇒ here):\n");
    let paper = [
        (5.0, 30.0, 23.0, 18.0),
        (10.0, 35.0, 27.0, 23.0),
        (50.0, 45.0, 40.0, 35.0),
        (100.0, 52.0, 46.0, 37.0),
    ];
    for (traffic, pl, pt_, pm) in paper {
        if let Some((l, t, m)) = at_traffic(sweep, traffic) {
            checkpoints.push((traffic, l, t, m));
            text.push_str(&format!(
                "+{traffic:.0}% traffic: load −{pl:.0} ⇒ −{l:.0} | time −{pt_:.0} ⇒ −{t:.0} | miss −{pm:.0} ⇒ −{m:.0}\n"
            ));
        } else {
            text.push_str(&format!(
                "+{traffic:.0}% traffic: not reached by this sweep\n"
            ));
        }
    }

    text.push_str("\nreductions (%) vs extra traffic (%), traffic axis clipped at +120%:\n");
    let clip = |f: &dyn Fn(&SweepPoint) -> f64| -> Vec<(f64, f64)> {
        pts.iter()
            .filter(|p| p.traffic_pct <= 120.0)
            .map(|p| (p.traffic_pct, f(p)))
            .collect()
    };
    let series = vec![
        crate::plot::Series::new("load", clip(&|p| p.load_reduction_pct)),
        crate::plot::Series::new("time", clip(&|p| p.time_reduction_pct)),
        crate::plot::Series::new("miss", clip(&|p| p.miss_reduction_pct)),
    ];
    text.push_str(&crate::plot::render(&series, 64, 14));
    text.push_str(&replication_appendix(replicated));

    let result = Fig6 {
        checkpoints,
        sweep: replicated.clone(),
    };
    Report::new(
        "fig6",
        "performance gains versus bandwidth used",
        text,
        &result,
    )
}

/// The entry point of both figures: one replicated sweep, rendered as
/// `[fig5, fig6]`.
pub fn run(inputs: &Inputs) -> Result<[Report; 2]> {
    let sweep = sweep_replicated(inputs)?;
    Ok([report(&sweep), report_fig6(&sweep)])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep of a fresh quick-scale world.
    fn quick_sweep(seed: u64, jobs: usize) -> Sweep {
        sweep(Inputs::new(Scale::Quick, 1, seed).bu().unwrap(), jobs).unwrap()
    }

    #[test]
    fn sweep_has_the_paper_shape() {
        let s = quick_sweep(15, 2);
        assert_eq!(s.points.len(), tp_grid(Scale::Quick).len());
        // Traffic grows as T_p falls.
        for w in s.points.windows(2) {
            assert!(
                w[1].traffic_pct >= w[0].traffic_pct - 0.5,
                "traffic should grow as T_p falls: {w:?}"
            );
        }
        // The most aggressive point reduces load meaningfully.
        let last = s.points.last().unwrap();
        assert!(
            last.load_reduction_pct > 10.0,
            "aggressive speculation too weak: {last:?}"
        );
        // The T_p = 1 point is (nearly) traffic neutral.
        let first = &s.points[0];
        assert!(
            first.traffic_pct < 2.0,
            "T_p = 1 should be ≈ traffic neutral: {first:?}"
        );
    }

    #[test]
    fn fig6_interpolation_is_sane() {
        let s = quick_sweep(16, 2);
        let r = report_fig6(&Replicated {
            base: s.clone(),
            reps: Vec::new(),
            seeds: vec![16],
        });
        assert!(r.text.contains("paper checkpoints"));
        assert!(r.text.contains("replication across 1 independent seeds"));
        // Interpolating at an existing point returns that point.
        let p = &s.points[s.points.len() / 2];
        let (l, _, _) = at_traffic(&s, p.traffic_pct).unwrap();
        assert!((l - p.load_reduction_pct).abs() < 1.0);
    }

    #[test]
    fn parallel_sweep_is_identical_to_serial() {
        // The determinism contract at the bench layer: the T_p grid
        // fans out over workers, yet every float must match bit for bit,
        // and so must the metric snapshot the replays publish.
        let observed = |jobs: usize| {
            let obs = specweb_core::obs::Obs::new();
            let _run = obs.install();
            (quick_sweep(15, jobs), obs.snapshot())
        };
        let (serial, serial_metrics) = observed(1);
        let (parallel, parallel_metrics) = observed(4);
        assert!(!serial_metrics.deterministic.is_empty());
        assert_eq!(serial_metrics, parallel_metrics);
        assert_eq!(serial.trace_len, parallel.trace_len);
        assert_eq!(serial.points.len(), parallel.points.len());
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.tp.to_bits(), b.tp.to_bits());
            assert_eq!(a.traffic_pct.to_bits(), b.traffic_pct.to_bits());
            assert_eq!(
                a.load_reduction_pct.to_bits(),
                b.load_reduction_pct.to_bits()
            );
            assert_eq!(a.pushes, b.pushes);
            assert_eq!(a.wasted_pushes, b.wasted_pushes);
        }
    }

    #[test]
    fn mean_sd_is_sane() {
        let (m, s) = mean_sd(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        let (m1, s1) = mean_sd(&[5.0]);
        assert_eq!(m1, 5.0);
        assert_eq!(s1, 0.0);
    }

    #[test]
    fn diminishing_returns_visible_in_sweep() {
        let s = quick_sweep(17, 2);
        let mut pts: Vec<&SweepPoint> = s.points.iter().collect();
        pts.sort_by(|a, b| a.traffic_pct.total_cmp(&b.traffic_pct));
        // Efficiency (load reduction per unit traffic) at the cheap end
        // beats the expensive end.
        let first_eff = pts
            .iter()
            .find(|p| p.traffic_pct > 0.3)
            .map(|p| p.load_reduction_pct / p.traffic_pct);
        let last = pts.last().unwrap();
        if let Some(fe) = first_eff {
            let le = last.load_reduction_pct / last.traffic_pct.max(1e-9);
            assert!(
                fe >= le,
                "efficiency should not grow with aggression: {fe} vs {le}"
            );
        }
    }
}
