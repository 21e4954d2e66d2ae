//! Criterion micro-benchmarks for the §3 estimation machinery:
//! P-matrix construction from access streams, the max-product
//! closure P*, and the per-boundary schedule of `MatrixStore`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use specweb_bench::{workloads, Scale};
use specweb_core::time::Duration;
use specweb_spec::deps::DepMatrixBuilder;
use specweb_spec::estimator::{EstimatorConfig, MatrixStore};

fn bench_p_matrix(c: &mut Criterion) {
    let trace = workloads::bu_trace(Scale::Quick, 77).unwrap();
    let mut g = c.benchmark_group("deps/estimate");
    for frac in [4usize, 2, 1] {
        let n = trace.len() / frac;
        let slice = &trace.accesses[..n];
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), slice, |b, s| {
            b.iter(|| {
                DepMatrixBuilder::estimate(std::hint::black_box(s), Duration::from_secs(5), 2)
            })
        });
    }
    g.finish();
}

fn bench_closure(c: &mut Criterion) {
    let trace = workloads::bu_trace(Scale::Quick, 78).unwrap();
    let matrix = DepMatrixBuilder::estimate(&trace.accesses, Duration::from_secs(5), 2);
    let mut g = c.benchmark_group("deps/closure");
    g.throughput(Throughput::Elements(matrix.n_entries() as u64));
    for (floor, max_row) in [(0.05f64, 32usize), (0.01, 128)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("floor{floor}_row{max_row}")),
            &matrix,
            |b, m| b.iter(|| m.closure(floor, max_row).unwrap()),
        );
    }
    // The kernel alone: one worker, as `MatrixStore::precompute` runs it.
    g.bench_with_input(
        BenchmarkId::from_parameter("floor0.01_row128_jobs1"),
        &matrix,
        |b, m| b.iter(|| m.closure_jobs(0.01, 128, 1).unwrap()),
    );
    g.finish();
}

fn bench_precompute(c: &mut Criterion) {
    let trace = workloads::bu_trace(Scale::Quick, 80).unwrap();
    let days = trace.days();
    let daily = EstimatorConfig {
        history_days: days / 2,
        ..EstimatorConfig::default()
    };
    let aged = EstimatorConfig {
        aging_decay: Some(0.9),
        ..daily
    };
    let mut g = c.benchmark_group("estimator/precompute");
    g.throughput(Throughput::Elements(days + 1)); // boundaries
    for (name, cfg) in [("hard_window", daily), ("aged", aged)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| MatrixStore::precompute(cfg, std::hint::black_box(&trace), days).unwrap())
        });
    }
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let trace = workloads::bu_trace(Scale::Quick, 79).unwrap();
    let matrix = DepMatrixBuilder::estimate(&trace.accesses, Duration::from_secs(5), 2);
    c.bench_function("deps/histogram", |b| {
        b.iter(|| std::hint::black_box(&matrix).probability_histogram(20))
    });
}

criterion_group!(
    benches,
    bench_p_matrix,
    bench_closure,
    bench_precompute,
    bench_histogram
);
criterion_main!(benches);
