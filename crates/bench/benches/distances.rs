//! Distance-metric micro-benchmarks: DL, fat-finger, and visual distance
//! over representative domain pairs. §5.1 evaluates lexical closeness for
//! millions of candidates, so per-pair cost matters.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ets_bench::DISTANCE_PAIRS;
use ets_core::distance;

fn bench_damerau(c: &mut Criterion) {
    c.bench_function("damerau_levenshtein/6-pairs", |b| {
        b.iter(|| {
            for (x, y) in DISTANCE_PAIRS {
                black_box(distance::damerau_levenshtein(black_box(x), black_box(y)));
            }
        })
    });
}

fn bench_fat_finger(c: &mut Criterion) {
    c.bench_function("fat_finger/6-pairs", |b| {
        b.iter(|| {
            for (x, y) in DISTANCE_PAIRS {
                black_box(distance::fat_finger(black_box(x), black_box(y)));
            }
        })
    });
}

fn bench_visual(c: &mut Criterion) {
    c.bench_function("visual/6-pairs", |b| {
        b.iter(|| {
            for (x, y) in DISTANCE_PAIRS {
                black_box(distance::visual(black_box(x), black_box(y)));
            }
        })
    });
}

fn bench_long_strings(c: &mut Criterion) {
    let a = "a-very-long-second-level-domain-label-for-stress";
    let b_s = "a-very-long-second-level-domain-lable-for-stress";
    c.bench_function("damerau_levenshtein/long-48", |b| {
        b.iter(|| black_box(distance::damerau_levenshtein(black_box(a), black_box(b_s))))
    });
}

criterion_group!(
    benches,
    bench_damerau,
    bench_fat_finger,
    bench_visual,
    bench_long_strings
);
criterion_main!(benches);
