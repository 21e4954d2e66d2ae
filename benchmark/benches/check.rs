//! `--check`: on a quick-scale trace, every fast path the workloads
//! time agrees with its slow twin.

use std::process::ExitCode;

use specweb_dissem::simulate::DisseminationSim;
use specweb_spec::deps::DepMatrix;
use specweb_spec::estimator::{MatrixStore, RollingEstimator};
use specweb_spec::simulate::SpecSim;

use crate::harness::at_jobs;
use crate::inputs::{self, Scale};

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("outcomes serialize")
}

fn entries(m: &DepMatrix) -> Vec<(u32, u32, u64)> {
    m.entries()
        .map(|(i, j, p)| (i.raw(), j.raw(), p.to_bits()))
        .collect()
}

/// The checks, as (what, passed).
pub fn equivalences(seed: u64) -> Vec<(String, bool)> {
    let topo = inputs::topology();
    let mut results = Vec::new();

    for (name, w) in [
        ("est-daily", inputs::est_daily(seed, Scale::Quick)),
        ("est-aged", inputs::est_aged(seed, Scale::Quick)),
    ] {
        let trace = w.trace.generate(&topo);
        let sim = SpecSim::new(&trace, &topo);
        let cfg = &w.points[w.reference];
        let days = w.total_days();
        let store = MatrixStore::precompute(&cfg.estimator, &trace, days).expect("precompute");
        let baseline = sim.baseline_totals(cfg).expect("baseline");

        let rolling = sim.run(cfg).map(|o| json(&o));
        let stored = sim
            .run_with_store_and_baseline(cfg, Some(&store), Some(&baseline))
            .map(|o| json(&o));
        results.push((
            format!("{name}: SpecSim::run (rolling estimator) == run_with_store_and_baseline"),
            rolling.is_ok() && rolling == stored,
        ));

        let two = at_jobs(2, || {
            let store = MatrixStore::precompute(&cfg.estimator, &trace, days)?;
            sim.run_with_store_and_baseline(cfg, Some(&store), None)
                .map(|o| json(&o))
        });
        results.push((
            format!("{name}: reference point at jobs 1 == jobs 2"),
            two.is_ok() && two == stored,
        ));

        let est = RollingEstimator::new(cfg.estimator, &trace).expect("valid estimator");
        let step = usize::try_from(cfg.estimator.update_cycle_days).expect("cycle fits usize");
        let boundaries: Vec<u64> = (0..=days).step_by(step).skip(1).collect();
        let sampled = [0, boundaries.len() / 2, boundaries.len() - 1].map(|i| boundaries[i]);
        for day in sampled {
            let fresh = est.estimate_at_jobs(day, 1).expect("estimate");
            let kept = store.for_day(day);
            results.push((
                format!("{name}: store.for_day({day}) == estimate_at_jobs({day}, 1)"),
                kept.estimated_on_day == fresh.estimated_on_day
                    && entries(&kept.direct) == entries(&fresh.direct)
                    && entries(&kept.closure) == entries(&fresh.closure),
            ));
        }
    }

    let w = inputs::dissem_cluster(seed, Scale::Quick);
    let trace = w.trace.generate(&topo);
    let cfg = &w.points[w.reference];
    let run = || {
        DisseminationSim::new(&trace, &topo)
            .and_then(|sim| sim.run(cfg, &[]))
            .map(|o| json(&o))
    };
    let (one, two) = (run(), at_jobs(2, run));
    results.push((
        "dissem-cluster: reference point at jobs 1 == jobs 2".to_string(),
        one.is_ok() && one == two,
    ));
    results
}

pub fn run(seed: u64) -> ExitCode {
    let results = equivalences(seed);
    for (what, ok) in &results {
        println!("check {} {what}", if *ok { "ok    " } else { "FAILED" });
    }
    if results.iter().all(|&(_, ok)| ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
