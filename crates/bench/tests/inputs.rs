//! The run's shared [`Inputs`] are invisible in the results and
//! complete in the table: every experiment renders the same report and
//! publishes the same deterministic metrics from inputs prepared for
//! the whole run as from inputs of its own, and once its declared
//! `needs` are prepared it builds nothing but what is private to it.

use specweb_bench::{Experiment, Inputs, Scale, EXPERIMENTS};
use specweb_core::obs::{MetricValue, Obs};

const SEED: u64 = 5;

type Metrics = std::collections::BTreeMap<String, MetricValue>;

/// One run of `exp` on `inputs`: rendered text and JSON per report, the
/// deterministic metric snapshot, and the collapsed profile.
fn observed(exp: &Experiment, inputs: &Inputs) -> (Vec<(String, String)>, Metrics, String) {
    let obs = Obs::new();
    let reports = {
        let _run = obs.install();
        exp.run(inputs)
            .unwrap_or_else(|e| panic!("{}: {e}", exp.id))
    };
    let rendered = reports
        .iter()
        .map(|r| (r.render(), r.json.to_string()))
        .collect();
    (
        rendered,
        obs.snapshot().deterministic,
        obs.profile.collapsed(),
    )
}

#[test]
fn inputs_shared_by_the_whole_run_equal_inputs_of_ones_own() {
    let shared = Inputs::new(Scale::Quick, 1, SEED);
    shared.prepare(EXPERIMENTS.iter().map(|e| e.needs)).unwrap();
    for exp in EXPERIMENTS {
        let own = Inputs::new(Scale::Quick, 1, SEED);
        let (shared_reports, shared_metrics, _) = observed(exp, &shared);
        let (own_reports, own_metrics, _) = observed(exp, &own);
        assert_eq!(shared_reports, own_reports, "{}: reports", exp.id);
        assert_eq!(shared_metrics, own_metrics, "{}: metrics", exp.id);
    }
}

#[test]
fn a_prepared_experiment_builds_only_what_is_private_to_it() {
    for exp in EXPERIMENTS {
        // (workload.trace, estimator.precompute) calls of its own: the
        // replica seeds of fig3 and fig5/fig6, and the estimator
        // schedules exp-upd and exp-aging sweep on the drift trace.
        // (exp-alloc's cluster trace is generated outside both frames.)
        let private = match exp.id {
            "fig3" => (2, 0),
            "fig5" | "fig6" => (2, 2),
            "exp-upd" => (0, 4),
            "exp-aging" => (0, 3),
            _ => (0, 0),
        };
        let inputs = Inputs::new(Scale::Quick, 1, SEED);
        inputs.prepare([exp.needs]).unwrap();
        let (_, _, profile) = observed(exp, &inputs);
        let calls = |frame: &str| -> u64 {
            profile
                .lines()
                .filter_map(|l| l.split_once(" calls "))
                .filter(|(path, _)| path.rsplit(';').next() == Some(frame))
                .map(|(_, rest)| rest.split(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        assert_eq!(
            (calls("workload.trace"), calls("estimator.precompute")),
            private,
            "{} under-declares its needs ({:?}): it built a shared input itself\n{profile}",
            exp.id,
            exp.needs
        );
    }
}
