//! Typo-generation benchmarks: DL-1 candidate enumeration for single
//! targets and target lists — the §5.1 workload ("we generated all
//! possible DL-1 variations of Alexa's top one million").

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ets_core::typogen;
use ets_core::DomainName;

fn bench_single_target(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate_dl1");
    for name in ["gmail.com", "outlook.com", "10minutemail.com"] {
        let target: DomainName = name.parse().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &target, |b, t| {
            b.iter(|| black_box(typogen::generate_dl1(black_box(t))))
        });
    }
    group.finish();
}

fn bench_ff1_subset(c: &mut Criterion) {
    let target: DomainName = "outlook.com".parse().unwrap();
    c.bench_function("generate_ff1/outlook.com", |b| {
        b.iter(|| black_box(typogen::generate_ff1(black_box(&target))))
    });
}

fn bench_target_list(c: &mut Criterion) {
    let targets: Vec<DomainName> = ets_core::alexa::synthetic_top(50)
        .iter()
        .map(|e| e.domain.clone())
        .collect();
    c.bench_function("generate_for_targets/top-50", |b| {
        b.iter(|| black_box(typogen::generate_for_targets(black_box(&targets))))
    });
}

criterion_group!(
    benches,
    bench_single_target,
    bench_ff1_subset,
    bench_target_list
);
criterion_main!(benches);
