//! Criterion benchmarks for the analysis math and profile algebra —
//! the "heavy lifting" operations PerfExplorer applies per script step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use perfdmf::algebra::{aggregate_threads, difference, Aggregation};
use perfdmf::{Measurement, Profile, TrialBuilder};
use perfexplorer::derive::{derive_metric, DeriveOp};
use statistics::{
    cluster::{kmeans_flat, KMeansConfig},
    correlation::pearson,
    descriptive::Summary,
    DenseMatrix,
};
use std::hint::black_box;

fn series(n: usize, seed: u64) -> Vec<f64> {
    // Deterministic pseudo-random series without pulling in an RNG.
    let mut x = seed.max(1);
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 10_000) as f64 / 100.0
        })
        .collect()
}

fn profile_with(threads: usize, events: usize) -> Profile {
    let mut b = TrialBuilder::with_flat_threads("bench", threads);
    let time = b.metric("TIME");
    let cycles = b.metric("CPU_CYCLES");
    for e in 0..events {
        let ev = b.event(&format!("main => e{e}"));
        for t in 0..threads {
            let v = ((e * 31 + t * 7) % 100) as f64 + 1.0;
            b.set(ev, time, t, Measurement::leaf(v));
            b.set(ev, cycles, t, Measurement::leaf(v * 1e6));
        }
    }
    b.build().profile
}

fn bench_statistics(c: &mut Criterion) {
    let a = series(512, 42);
    let b = series(512, 43);
    c.bench_function("statistics/summary_512", |bench| {
        bench.iter(|| Summary::of(black_box(&a)).unwrap())
    });
    c.bench_function("statistics/pearson_512", |bench| {
        bench.iter(|| pearson(black_box(&a), black_box(&b)).unwrap())
    });
    let points: Vec<Vec<f64>> = (0..128)
        .map(|i| vec![(i % 16) as f64, (i / 16) as f64])
        .collect();
    let points = DenseMatrix::from_rows(&points).unwrap();
    c.bench_function("statistics/kmeans_128x2_k4", |bench| {
        let cfg = KMeansConfig {
            k: 4,
            ..Default::default()
        };
        bench.iter(|| kmeans_flat(black_box(points.view()), &cfg).unwrap())
    });
}

fn bench_algebra(c: &mut Criterion) {
    let p = profile_with(64, 64);
    c.bench_function("algebra/difference_64x64", |bench| {
        bench.iter(|| difference(black_box(&p), black_box(&p)).unwrap())
    });
    c.bench_function("algebra/aggregate_mean_64x64", |bench| {
        bench.iter(|| aggregate_threads(black_box(&p), Aggregation::Mean).unwrap())
    });
}

fn bench_derive(c: &mut Criterion) {
    let profile = profile_with(64, 64);
    c.bench_function("derive/divide_64x64", |bench| {
        bench.iter_batched(
            || perfdmf::Trial::new("b", profile.clone()),
            |mut trial| derive_metric(&mut trial, "TIME", DeriveOp::Divide, "CPU_CYCLES").unwrap(),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_statistics, bench_algebra, bench_derive);
criterion_main!(benches);
