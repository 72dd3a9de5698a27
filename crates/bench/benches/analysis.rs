//! Benchmarks for the analysis math and profile algebra — the "heavy
//! lifting" operations PerfExplorer applies per script step. The
//! `derive/divide_64x64` case includes cloning its input trial, since
//! a derivation adds a metric to the trial it is given. The harness
//! and its modes are in `bench::measure`; this bench writes
//! `BENCH_analysis.json`.

use bench::measure::{Bench, CountingAlloc};
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

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

fn main() {
    // Derivation fans out over events on the rayon pool.
    let mut b =
        Bench::from_env("analysis", "BENCH_analysis.json").ungated(&["derive/divide_64x64"]);
    let a = series(512, 42);
    let c = series(512, 43);
    b.case("statistics/summary_512", || {
        Summary::of(black_box(&a)).unwrap()
    });
    b.case("statistics/pearson_512", || {
        pearson(black_box(&a), black_box(&c)).unwrap()
    });
    let points: Vec<Vec<f64>> = (0..128)
        .map(|i| vec![(i % 16) as f64, (i / 16) as f64])
        .collect();
    let points = DenseMatrix::from_rows(&points).unwrap();
    let cfg = KMeansConfig {
        k: 4,
        ..Default::default()
    };
    b.case("statistics/kmeans_128x2_k4", || {
        kmeans_flat(black_box(points.view()), &cfg).unwrap()
    });

    let p = profile_with(64, 64);
    b.case("algebra/difference_64x64", || {
        difference(black_box(&p), black_box(&p)).unwrap()
    });
    b.case("algebra/aggregate_mean_64x64", || {
        aggregate_threads(black_box(&p), Aggregation::Mean).unwrap()
    });
    b.case("derive/divide_64x64", || {
        let mut trial = perfdmf::Trial::new("b", p.clone());
        derive_metric(&mut trial, "TIME", DeriveOp::Divide, "CPU_CYCLES").unwrap();
        trial
    });
    b.finish();
}
