//! The four simulator workloads: a fixed body repeated a fixed number
//! of times, the fastest repetition reported.

use specweb_dissem::alloc::{self, ServerModel};
use specweb_dissem::simulate::{DisseminationOutcome, DisseminationSim};
use specweb_netsim::topology::Topology;
use specweb_spec::estimator::MatrixStore;
use specweb_spec::simulate::{BaselineRun, SpecOutcome, SpecSim};
use specweb_trace::generator::Trace;

use crate::harness::{self, Checks, Outcome, Params, SetUp};
use crate::inputs::{self, DissemWorkload, SpecWorkload};
use crate::layers;
use crate::metrics::Metrics;
use crate::span::Tracer;
use crate::stats;

/// Seconds of each layer call in one repetition of a spec body, and
/// what the repetition computed.
#[derive(Debug, Default)]
struct SpecRep {
    generate_s: f64,
    /// What the generator produced: the world, of which the body
    /// replays a window.
    generated: Generated,
    new_s: f64,
    precompute_s: f64,
    baseline_s: f64,
    point_s: Vec<f64>,
    outcomes: Vec<Option<SpecOutcome>>,
    truncated_rows: u64,
    boundaries: usize,
}

/// Accesses and sessions of a generated world.
#[derive(Debug, Default, Clone, Copy)]
struct Generated {
    accesses: usize,
    sessions: u64,
}

impl Generated {
    fn of(world: &Trace) -> Generated {
        Generated {
            accesses: world.len(),
            sessions: world.n_sessions,
        }
    }

    /// `trace.*`: the generator's call alone, counted on all it
    /// generated (the window and the `WINDOWS - 1` days around it).
    fn report(self, generate_s: f64, m: &mut Metrics) {
        m.set("trace.generate_s", generate_s);
        m.set(
            "trace.accesses_per_s",
            harness::per_s(self.accesses as f64, generate_s),
        );
        m.set("trace.accesses", self.accesses as f64);
        m.set("trace.sessions", self.sessions as f64);
    }
}

/// One repetition: [generate +] precompute + shared baseline + points.
fn spec_body(
    w: &SpecWorkload,
    topo: &Topology,
    prebuilt: Option<(&Trace, &SpecSim<'_>)>,
    tracer: &Tracer,
    checks: &mut Checks,
) -> SpecRep {
    let mut rep = SpecRep::default();
    let generated;
    let built;
    let (trace, sim) = match prebuilt {
        Some(pair) => pair,
        None => {
            let (world, secs) = tracer.time("trace.generator", || w.trace.generate_world(topo));
            rep.generate_s = secs;
            rep.generated = Generated::of(&world);
            generated = w.trace.window_of(world);
            let (s, secs) = tracer.time("spec.simulate", || SpecSim::new(&generated, topo));
            rep.new_s = secs;
            built = s;
            (&generated, &built)
        }
    };

    let (store, secs) = tracer.time("spec.estimator", || {
        MatrixStore::precompute(&w.base.estimator, trace, w.total_days())
    });
    rep.precompute_s = secs;
    checks.op(store.is_ok(), || format!("precompute: {store:?}"));
    let Ok(store) = store else { return rep };
    rep.truncated_rows = store.truncated_rows();
    rep.boundaries = store.len();

    let (baseline, secs) = tracer.time("spec.simulate", || sim.baseline_totals(&w.base));
    rep.baseline_s = secs;
    checks.op(baseline.is_ok(), || {
        format!("baseline replay: {baseline:?}")
    });
    let Ok(baseline) = baseline else { return rep };

    for cfg in &w.points {
        // The shared baseline holds for every point that replays under
        // the base cache model; the others replay their own.
        let shared: Option<&BaselineRun> = (cfg.cache == w.base.cache).then_some(&baseline);
        let (out, secs) = tracer.time("spec.simulate", || {
            sim.run_with_store_and_baseline(cfg, Some(&store), shared)
        });
        rep.point_s.push(secs);
        checks.op(out.as_ref().is_ok_and(spec_outcome_is_sane), || {
            format!("sweep point {cfg:?}: {out:?}")
        });
        rep.outcomes.push(out.ok());
    }
    rep
}

/// What any correct replay satisfies, whatever the policy.
fn spec_outcome_is_sane(o: &SpecOutcome) -> bool {
    let r = &o.ratios;
    [r.bandwidth, r.server_load, r.service_time, r.miss_rate]
        .iter()
        .all(|x| x.is_finite() && *x > 0.0)
        && o.speculative.accesses == o.baseline.accesses
        && o.speculative.accesses > 0
        && o.wasted_pushes <= o.pushes
}

/// Trace replays one repetition performs: the shared baseline, every
/// point, and one more baseline for each point with its own cache.
fn replays_per_rep(w: &SpecWorkload) -> usize {
    1 + w.points.len() + w.points.iter().filter(|c| c.cache != w.base.cache).count()
}

pub fn run_spec(w: &SpecWorkload, params: &Params) -> Outcome {
    let topo = inputs::topology();
    let tracer = Tracer::new(params.trace);
    let mut checks = Checks::default();
    let mut m = Metrics::default();

    // Set-up: the inputs every repetition shares, a trace and the
    // simulator over it. `replay-wide` builds both inside its body; its
    // set-up builds them too, so that the first timed repetition does
    // not pay the first touch of the heap they need.
    let build = || {
        let trace = w.trace.generate(&topo);
        drop(SpecSim::new(&trace, &topo));
        trace
    };
    let (trace, set_up) = SetUp::start(params, build);
    let sim = SpecSim::new(&trace, &topo);
    let prebuilt = (!w.generate_in_body).then_some((&trace, &sim));

    let mut reps: Vec<SpecRep> = Vec::new();
    let n = harness::reps(params.seconds, w.nominal_body_s);
    let (times, traced) = harness::repeat_body(params, n, &tracer, |tracer| {
        reps.push(spec_body(w, &topo, prebuilt, tracer, &mut checks));
    });

    let digests: Vec<String> = reps
        .iter()
        .map(|r| harness::digest_of(&harness::outcome_parts(&r.outcomes)))
        .collect();
    let digest = checks.one_digest(&digests);

    let sweep_s = stats::fastest(&times);
    let reference = reps[0].outcomes.get(w.reference).and_then(Option::as_ref);
    m.set_n("sweep_s", sweep_s, times.len());
    if let Some(o) = reference {
        m.set("access_wait_mean_us", o.speculative.mean_latency_ms() * 1e3);
        m.set("server_load_ratio", o.ratios.server_load);
        m.set("bandwidth_ratio", o.ratios.bandwidth);
        m.set("service_time_ratio", o.ratios.service_time);
        m.set("miss_rate_ratio", o.ratios.miss_rate);
        // Simulated client-perceived quantiles; a cache hit waits 0.
        m.set("fetch_p50_us", o.service_times.p50_ms * 1e3);
        m.set("fetch_p90_us", o.service_times.p90_ms * 1e3);
        m.set("specsim.pushes", o.pushes as f64);
        m.set(
            "specsim.wasted_push_ratio",
            o.wasted_pushes as f64 / (o.pushes.max(1)) as f64,
        );
    }
    let prefetches: u64 = reps[0]
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.prefetches)
        .sum();
    m.set("specsim.prefetches", prefetches as f64);

    if params.trace {
        let run = SpecRun {
            w,
            trace: &trace,
            sim: &sim,
            tracer: &tracer,
            reps: &reps,
        };
        spec_layers(&run, params.seed, &mut m);
        harness::report_tracing(&tracer, &times, &traced, &mut m);
    }
    m.set("peak_rss_mb", harness::peak_rss_mb());
    drop(sim);
    drop(trace);
    set_up.finish(&mut m, build);

    Outcome {
        metrics: m,
        checks,
        digest,
        tracer,
    }
}

/// A measured spec workload, as the per-layer report reads it.
struct SpecRun<'a> {
    w: &'a SpecWorkload,
    trace: &'a Trace,
    sim: &'a SpecSim<'a>,
    tracer: &'a Tracer,
    reps: &'a [SpecRep],
}

/// Per-layer numbers of a spec workload: the per-call seconds the body
/// already measured, then probes that redo one layer's work through
/// its public functions.
fn spec_layers(run: &SpecRun<'_>, seed: u64, m: &mut Metrics) {
    let &SpecRun {
        w,
        trace,
        sim,
        tracer,
        reps,
    } = run;
    let accesses = trace.len() as f64;
    let col = |f: fn(&SpecRep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };

    // trace.generator and SpecSim::new — in the body on replay-wide, in
    // set-up elsewhere, where the probe builds both once more.
    let topo = inputs::topology();
    let (generated, generate_s, new_s) = if w.generate_in_body {
        (
            reps[0].generated,
            stats::fastest(&col(|r| r.generate_s)),
            stats::fastest(&col(|r| r.new_s)),
        )
    } else {
        let (world, generate_s) = tracer.time("trace.generator", || w.trace.generate_world(&topo));
        let generated = Generated::of(&world);
        let again = w.trace.window_of(world);
        let (_, new_s) = tracer.time("spec.simulate", || SpecSim::new(&again, &topo));
        (generated, generate_s, new_s)
    };
    generated.report(generate_s, m);

    // spec.simulate
    m.set("specsim.new_s", new_s);
    m.set("specsim.baseline_s", stats::fastest(&col(|r| r.baseline_s)));
    let point_s: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.point_s.iter().copied())
        .collect();
    m.set_n(
        "specsim.point_s_p50",
        stats::median(&point_s),
        point_s.len(),
    );
    let replay_s = stats::fastest(&col(|r| r.baseline_s + r.point_s.iter().sum::<f64>()));
    m.set(
        "specsim.replay_accesses_per_s",
        accesses * replays_per_rep(w) as f64 / replay_s,
    );

    // spec.estimator, and spec.deps inside it.
    let precompute_s = stats::fastest(&col(|r| r.precompute_s));
    let boundaries = reps[0].boundaries as f64;
    m.set("estimator.precompute_s", precompute_s);
    m.set("estimator.boundaries", boundaries);
    m.set("estimator.boundaries_per_s", boundaries / precompute_s);
    m.set("deps.truncated_rows", reps[0].truncated_rows as f64);
    let store = MatrixStore::precompute(&w.base.estimator, trace, w.total_days())
        .expect("precompute succeeded in the body");
    let deps = layers::deps_probe(w, trace, &store, tracer);
    m.set("estimator.accesses_pushed", deps.accesses_pushed as f64);
    m.set(
        "estimator.repush_ratio",
        deps.accesses_pushed as f64 / accesses,
    );
    m.set("estimator.aged_day_estimate_s", deps.aged_day_estimate_s);
    m.set("deps.build_s", deps.build_s);
    m.set(
        "deps.build_accesses_per_s",
        harness::per_s(deps.accesses_pushed as f64, deps.build_s),
    );
    m.set("deps.closure_s", deps.closure_s);
    m.set(
        "deps.closure_rows_per_s",
        harness::per_s(deps.closure_rows as f64, deps.closure_s),
    );
    m.set("deps.closure_entries", deps.closure_entries as f64);
    // The probe ran once and the body's fastest repetition is what it
    // is compared with: under a hard window the remainder is noise
    // around 0, and is reported as 0 when it falls below.
    m.set(
        "estimator.self_s",
        (precompute_s - deps.build_s - deps.closure_s - deps.aged_day_estimate_s).max(0.0),
    );

    // spec.policy, core.stats
    let last = store.for_day(w.total_days());
    let policy = layers::policy_probe(&w.points[w.reference], last, trace, tracer);
    m.set("policy.decide_per_s", policy.decide_per_s);
    m.set("policy.pushes_per_decision", policy.pushes_per_decision);
    layers::stats_probe(seed, tracer, m);

    // core.par — the reference point and the estimation, 1 worker ÷ 2.
    let cfg = &w.points[w.reference];
    let replay_at = |jobs| {
        let replay = || sim.run_with_store_and_baseline(cfg, Some(&store), None);
        harness::at_jobs(jobs, || tracer.time("core.par", replay)).1
    };
    m.set("par.replay_speedup_jobs2", replay_at(1) / replay_at(2));
    let precompute = || MatrixStore::precompute(&w.base.estimator, trace, w.total_days());
    let (_, precompute_2) = harness::at_jobs(2, || tracer.time("core.par", precompute));
    m.set("par.precompute_speedup_jobs2", precompute_s / precompute_2);
}

// ---------------------------------------------------------------------
// dissem-cluster
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct DissemRep {
    mine_s: f64,
    optimize_s: Vec<f64>,
    predicted_alpha: f64,
    point_s: Vec<f64>,
    outcomes: Vec<Option<DisseminationOutcome>>,
}

/// One repetition: profile mining + `optimize` at every budget + the
/// dissemination points.
fn dissem_body(
    w: &DissemWorkload,
    trace: &Trace,
    topo: &Topology,
    tracer: &Tracer,
    checks: &mut Checks,
) -> DissemRep {
    let mut rep = DissemRep::default();
    let (sim, secs) = tracer.time("dissem.analysis", || DisseminationSim::new(trace, topo));
    rep.mine_s = secs;
    checks.op(sim.is_ok(), || {
        format!("profile mining: {:?}", sim.as_ref().err())
    });
    let Ok(sim) = sim else { return rep };

    let models: Vec<ServerModel> = sim
        .profiles()
        .iter()
        .map(|p| ServerModel {
            lambda: p.lambda,
            demand: p.remote_bytes_per_day,
        })
        .collect();
    for &b0 in &w.budgets {
        let (a, secs) = tracer.time("dissem.alloc", || alloc::optimize(&models, b0));
        rep.optimize_s.push(secs);
        let feasible = a.as_ref().is_ok_and(|a| {
            let used: u64 = a.bytes.iter().map(|b| b.get()).sum();
            used <= b0.get() && (0.0..=1.0).contains(&a.alpha)
        });
        checks.op(feasible, || format!("optimize at {b0}: {a:?}"));
        if let Ok(a) = a {
            rep.predicted_alpha = a.alpha;
        }
    }

    for cfg in &w.points {
        let (out, secs) = tracer.time("dissem.simulate", || sim.run(cfg, &[]));
        rep.point_s.push(secs);
        let sane = out.as_ref().is_ok_and(|o| {
            o.reduction.is_finite()
                && o.reduction < 1.0
                && (0.0..=1.0).contains(&o.intercepted_fraction)
                && o.proxy_hits + o.origin_hits == o.baseline.transfers
        });
        checks.op(sane, || format!("dissemination point {cfg:?}: {out:?}"));
        rep.outcomes.push(out.ok());
    }
    rep
}

fn dissem_digest(rep: &DissemRep) -> String {
    let mut parts = harness::outcome_parts(&rep.outcomes);
    parts.push(format!("{:?}", rep.predicted_alpha));
    harness::digest_of(&parts)
}

pub fn run_dissem(w: &DissemWorkload, params: &Params) -> Outcome {
    let topo = inputs::topology();
    let tracer = Tracer::new(params.trace);
    let mut checks = Checks::default();
    let mut m = Metrics::default();

    let build = || w.trace.generate(&topo);
    let (trace, set_up) = SetUp::start(params, build);

    let mut reps: Vec<DissemRep> = Vec::new();
    let n = harness::reps(params.seconds, w.nominal_body_s);
    let (times, traced) = harness::repeat_body(params, n, &tracer, |tracer| {
        reps.push(dissem_body(w, &trace, &topo, tracer, &mut checks));
    });

    let digests: Vec<String> = reps.iter().map(dissem_digest).collect();
    let digest = checks.one_digest(&digests);

    let sweep_s = stats::fastest(&times);
    let accesses = trace.len() as f64;
    m.set_n("sweep_s", sweep_s, times.len());
    if let Some(o) = reps[0].outcomes.get(w.reference).and_then(Option::as_ref) {
        let served = (o.proxy_hits + o.origin_hits).max(1) as f64;
        m.set("access_wait_mean_us", o.service_times.mean_ms * 1e3);
        m.set("server_load_ratio", o.origin_hits as f64 / served);
        m.set("bandwidth_ratio", 1.0 - o.reduction);
        m.set("traffic_reduction", o.reduction);
        m.set(
            "service_time_ratio",
            o.service_times.mean_ms / o.baseline_service_times.mean_ms,
        );
        m.set("fetch_p50_us", o.service_times.p50_ms * 1e3);
        m.set("fetch_p90_us", o.service_times.p90_ms * 1e3);
        m.set("dissemsim.intercepted_fraction", o.intercepted_fraction);
    }

    if params.trace {
        let col = |f: fn(&DissemRep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
        let (world, generate_s) = tracer.time("trace.generator", || w.trace.generate_world(&topo));
        Generated::of(&world).report(generate_s, &mut m);
        drop(world);
        let mine_s = stats::fastest(&col(|r| r.mine_s));
        m.set("analysis.mine_s", mine_s);
        m.set("analysis.accesses_per_s", accesses / mine_s);
        let optimize_s: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.optimize_s.iter().copied())
            .collect();
        m.set_n(
            "alloc.optimize_us",
            stats::median(&optimize_s) * 1e6,
            optimize_s.len(),
        );
        m.set("alloc.predicted_alpha", reps[0].predicted_alpha);
        let point_s = |tailored: bool| -> Vec<f64> {
            reps.iter()
                .flat_map(|r| r.point_s.iter().zip(&w.points))
                .filter(|(_, cfg)| cfg.tailored == tailored)
                .map(|(&s, _)| s)
                .collect()
        };
        let (untailored, tailored) = (point_s(false), point_s(true));
        m.set_n(
            "dissemsim.point_s_p50",
            stats::median(&untailored),
            untailored.len(),
        );
        m.set_n(
            "dissemsim.tailored_point_s",
            stats::median(&tailored),
            tailored.len(),
        );
        let replay_s = stats::fastest(&col(|r| r.point_s.iter().sum::<f64>()));
        // Every point replays the trace twice: with and without proxies.
        m.set(
            "dissemsim.replay_accesses_per_s",
            accesses * (2 * w.points.len()) as f64 / replay_s,
        );

        let sim = DisseminationSim::new(&trace, &topo).expect("mining succeeded in the body");
        let reference = &w.points[w.reference];
        let (proxies, place_s) = tracer.time("dissem.simulate", || {
            sim.place_proxies_for(reference.n_proxies, reference.remote_only)
        });
        m.set("dissemsim.place_s", place_s);
        m.set(
            "netsim.route_per_s",
            layers::route_probe(&topo, &proxies, w.trace.world.n_servers, &tracer),
        );
        layers::stats_probe(params.seed, &tracer, &mut m);
        let replay_at = |jobs| {
            let replay = || sim.run(reference, &[]);
            harness::at_jobs(jobs, || tracer.time("core.par", replay)).1
        };
        m.set("par.replay_speedup_jobs2", replay_at(1) / replay_at(2));
        harness::report_tracing(&tracer, &times, &traced, &mut m);
    }
    m.set("peak_rss_mb", harness::peak_rss_mb());
    drop(trace);
    set_up.finish(&mut m, build);

    Outcome {
        metrics: m,
        checks,
        digest,
        tracer,
    }
}
