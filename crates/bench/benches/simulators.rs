//! Criterion end-to-end benchmarks: trace generation and both
//! trace-driven simulators at quick scale (throughput in accesses/s).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use specweb_bench::{workloads, Scale};
use specweb_dissem::simulate::{DisseminationConfig, DisseminationSim};
use specweb_spec::estimator::MatrixStore;
use specweb_spec::simulate::{SpecConfig, SpecSim};
use specweb_trace::generator::TraceGenerator;

fn bench_trace_generation(c: &mut Criterion) {
    let topo = workloads::topology();
    let cfg = workloads::bu_config(Scale::Quick, 80);
    let expected = TraceGenerator::new(cfg.clone())
        .unwrap()
        .generate(&topo)
        .unwrap()
        .len();
    let mut g = c.benchmark_group("sim/trace_generation");
    g.throughput(Throughput::Elements(expected as u64));
    g.sample_size(20);
    g.bench_function("quick_bu", |b| {
        b.iter(|| {
            TraceGenerator::new(cfg.clone())
                .unwrap()
                .generate(std::hint::black_box(&topo))
                .unwrap()
        })
    });
    g.finish();
}

fn bench_speculation_replay(c: &mut Criterion) {
    let topo = workloads::topology();
    let trace = workloads::bu_trace(Scale::Quick, 81).unwrap();
    let sim = SpecSim::new(&trace, &topo);
    let mut cfg = SpecConfig::baseline(0.3);
    cfg.estimator.history_days = workloads::history_days(Scale::Quick);
    cfg.warmup_days = workloads::warmup_days(Scale::Quick);
    let total_days = trace.days();
    let store = MatrixStore::precompute(&cfg.estimator, &trace, total_days).unwrap();

    let mut g = c.benchmark_group("sim/speculation");
    g.throughput(Throughput::Elements(2 * trace.len() as u64)); // two replays
    g.sample_size(10);
    g.bench_function("run_with_store", |b| {
        b.iter(|| {
            sim.run_with_store_and_baseline(std::hint::black_box(&cfg), Some(&store), None)
                .unwrap()
        })
    });
    g.finish();
}

fn bench_matrix_store(c: &mut Criterion) {
    let trace = workloads::bu_trace(Scale::Quick, 82).unwrap();
    let cfg = SpecConfig::baseline(0.3);
    let mut est = cfg.estimator;
    est.history_days = workloads::history_days(Scale::Quick);
    let total_days = trace.days();
    let mut g = c.benchmark_group("sim/matrix_store");
    g.sample_size(10);
    g.bench_function("precompute", |b| {
        b.iter(|| MatrixStore::precompute(&est, std::hint::black_box(&trace), total_days).unwrap())
    });
    g.finish();
}

fn bench_dissemination_replay(c: &mut Criterion) {
    let topo = workloads::topology();
    let trace = workloads::bu_trace(Scale::Quick, 83).unwrap();
    let sim = DisseminationSim::new(&trace, &topo).unwrap();
    let cfg = DisseminationConfig::default();
    let mut g = c.benchmark_group("sim/dissemination");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(10);
    g.bench_function("run_default", |b| {
        b.iter(|| sim.run(std::hint::black_box(&cfg), &[]).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_trace_generation,
    bench_speculation_replay,
    bench_matrix_store,
    bench_dissemination_replay
);
criterion_main!(benches);
