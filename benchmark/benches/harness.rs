//! What every workload shares: its parameters, its result, the
//! repetition loop, set-up timing, outcome digests and peak memory.

use std::time::Instant;

use specweb_serve::OutputDigest;

use crate::inputs::Scale;
use crate::metrics::Metrics;
use crate::span::Tracer;
use crate::stats;

/// How one workload run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
    /// As early in `main` as an `Instant` can be taken.
    pub process_start: Instant,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Digest of every simulated statistic or live reply of one
    /// repetition; all repetitions of a run must agree on it.
    pub digest: String,
    /// The spans of the run, for `trace_<workload>.jsonl`.
    pub tracer: Tracer,
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checks {
    /// All repetitions of a run must yield one outcome digest: counts a
    /// failure for each that differs from the first, which it returns.
    pub fn one_digest(&mut self, digests: &[String]) -> String {
        let first = digests.first().cloned().unwrap_or_default();
        for (i, d) in digests.iter().enumerate().skip(1) {
            if *d != first {
                self.fail(format!("repetition {i} digest {d} differs from {first}"));
            }
        }
        first
    }

    /// Counts one attempted operation; it failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        // Enough to diagnose; a broken run would otherwise print one
        // line per fetch.
        if self.reasons.len() < 20 {
            self.reasons.push(reason);
        }
    }
}

/// Set-ups per run; `setup_s` is the fastest.
pub const SETUP_REPS: usize = 12;

/// The set-up of a run: built once at process start, for the inputs the
/// run measures, and `SETUP_REPS - 1` times more when the measurements
/// are done. A set-up takes 20 to 180 ms, and set-ups side by side fall
/// into one interference episode or none (see [`stats::fastest`]); with
/// a whole run between the first and the others they do not.
pub struct SetUp {
    seconds: Vec<f64>,
}

impl SetUp {
    /// Builds the inputs, timed from process start: whatever the
    /// process paid before `main` counts as set-up.
    pub fn start<T>(params: &Params, build: impl FnOnce() -> T) -> (T, SetUp) {
        let inputs = build();
        let seconds = vec![params.process_start.elapsed().as_secs_f64()];
        (inputs, SetUp { seconds })
    }

    /// Builds the inputs again, for the remaining repetitions, and
    /// reports `setup_s`. Call it last, with the first inputs dropped:
    /// a rebuild must not count towards the run's peak memory, nor run
    /// beside the first server.
    pub fn finish<T>(mut self, m: &mut Metrics, mut build: impl FnMut() -> T) {
        while self.seconds.len() < SETUP_REPS {
            let start = Instant::now();
            drop(build());
            self.seconds.push(start.elapsed().as_secs_f64());
        }
        m.set_n("setup_s", stats::fastest(&self.seconds), SETUP_REPS);
    }
}

/// Repetitions of a piece of work that took `nominal_s` seconds on the
/// box the benchmark was defined on: as many as fill `seconds` there, at
/// least 3. The number depends on the workload and on `--seconds` alone,
/// never on how fast the code under test or the box is, so two commits
/// are measured on the same number of samples.
pub fn reps(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).round() as usize).max(3)
}

/// Runs `body` `reps` times and returns the wall seconds of each
/// repetition. In a traced run every second repetition runs with
/// recording off, so the two halves give the tracing overhead;
/// `traced[i]` says which half repetition `i` belongs to.
pub fn repeat_body(
    params: &Params,
    reps: usize,
    tracer: &Tracer,
    mut body: impl FnMut(&Tracer),
) -> (Vec<f64>, Vec<bool>) {
    let (mut times, mut traced) = (Vec::new(), Vec::new());
    for i in 0..reps {
        let record = params.trace && i.is_multiple_of(2);
        tracer.set_recording(record);
        tracer.next_op();
        let guard = tracer.span("body");
        let t = Instant::now();
        body(tracer);
        times.push(t.elapsed().as_secs_f64());
        drop(guard);
        traced.push(record);
    }
    tracer.set_recording(params.trace);
    (times, traced)
}

/// Relative cost of recording: the median, over neighbouring pairs of
/// a recorded and an unrecorded repetition, of recorded ÷ unrecorded,
/// minus 1. Neighbours share whatever the box was doing at the time,
/// which the two halves of a run taken as wholes do not. 0 when the run
/// had no such pair.
pub fn tracing_overhead(times: &[f64], traced: &[bool]) -> f64 {
    let ratios: Vec<f64> = times
        .windows(2)
        .zip(traced.windows(2))
        .filter(|(_, t)| t[0] != t[1])
        .map(|(s, t)| if t[0] { s[0] / s[1] } else { s[1] / s[0] })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        stats::median(&ratios) - 1.0
    }
}

/// What every traced run reports about the tracing itself.
pub fn report_tracing(tracer: &Tracer, times: &[f64], traced: &[bool], m: &mut Metrics) {
    m.set(
        "loadgen.tracing_overhead_ratio",
        tracing_overhead(times, traced),
    );
    m.set("body.attributed_ratio", tracer.attributed_ratio("body"));
}

/// `count` per second, 0 when no time was spent.
pub fn per_s(count: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

/// Runs `f` with the process-wide worker count at `jobs`, then puts it
/// back to the 1 every timed body runs at.
pub fn at_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    specweb_core::par::set_default_jobs(jobs);
    let out = f();
    specweb_core::par::set_default_jobs(1);
    out
}

/// The outcomes of one repetition as digest parts: JSON text, or a
/// marker for a call that failed.
pub fn outcome_parts<T: serde::Serialize>(outcomes: &[Option<T>]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| match o {
            Some(o) => serde_json::to_string(o).expect("outcomes serialize"),
            None => "failed".to_string(),
        })
        .collect()
}

/// FNV-1a digest of a repetition's outcomes, rendered as text.
pub fn digest_of(parts: &[String]) -> String {
    let mut d = OutputDigest::new();
    for p in parts {
        d.update(p.as_bytes());
        d.update(b"\n");
    }
    d.hex()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_the_median_ratio_of_neighbouring_pairs() {
        // A slow episode covers the last two repetitions; their ratio
        // is the same 1.1 as the first pair's.
        let times = [1.1, 1.0, 2.2, 2.0];
        let traced = [true, false, true, false];
        // Pairs: 1.1/1.0, 2.2/1.0, 2.2/2.0 -> median 1.1.
        assert!((tracing_overhead(&times, &traced) - 0.1).abs() < 1e-12);
        assert_eq!(tracing_overhead(&times, &[false; 4]), 0.0);
        assert_eq!(per_s(10.0, 0.0), 0.0);
        assert_eq!(per_s(10.0, 2.0), 5.0);
    }

    fn params(seconds: f64, trace: bool) -> Params {
        Params {
            seed: 1,
            seconds,
            trace,
            scale: Scale::Quick,
            process_start: Instant::now(),
        }
    }

    #[test]
    fn repetitions_follow_from_seconds_alone() {
        assert_eq!(reps(12.0, 0.6), 20);
        assert_eq!(reps(12.0, 2.4), 5);
        assert_eq!(reps(0.2, 0.6), 3);
        let tracer = Tracer::new(true);
        let mut calls = 0;
        let (times, traced) = repeat_body(&params(1.0, true), 5, &tracer, |_| calls += 1);
        assert_eq!((calls, times.len()), (5, 5));
        assert_eq!(traced, [true, false, true, false, true]);
    }

    #[test]
    fn set_up_builds_a_fixed_number_of_times() {
        let mut m = Metrics::default();
        let mut builds = 0;
        let mut build = || builds += 1;
        let ((), set_up) = SetUp::start(&params(1.0, false), &mut build);
        set_up.finish(&mut m, &mut build);
        assert_eq!(builds, SETUP_REPS);
        assert_eq!(m.samples("setup_s"), Some(SETUP_REPS as u64));
        assert!(m.get("setup_s").is_some_and(|s| s > 0.0));
    }

    #[test]
    fn digest_separates_parts() {
        let a = digest_of(&["ab".into(), "c".into()]);
        let b = digest_of(&["a".into(), "bc".into()]);
        assert_ne!(a, b);
        assert_eq!(a, digest_of(&["ab".into(), "c".into()]));
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
