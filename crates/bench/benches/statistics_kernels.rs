//! Flat-matrix statistics kernel microbenchmarks.
//!
//! Compares the flat [`DenseMatrix`](statistics::DenseMatrix) kernels
//! (`kmeans_flat`, `silhouette_flat`) against the nested
//! `Vec<Vec<f64>>` reference implementations in `statistics::reference`
//! — the seed's layout, kept as the executable spec — at 64–4096
//! points × 8–64 dimensions. The `*/reference` and `*/flat` pairs are
//! the numbers recorded in EXPERIMENTS.md. Before any timing, every
//! shape asserts that the two sides return bit-identical results, so a
//! pair measures layout and parallelism cost only.
//!
//! `-- --test` runs that agreement check once per shape, unmeasured
//! (the CI smoke).

use criterion::{criterion_group, Criterion, Throughput};
use statistics::cluster::KMeansConfig;
use statistics::matrix::DenseMatrix;
use statistics::{kmeans_flat, reference, silhouette_flat};
use std::hint::black_box;

/// `(points, dims)` shapes; the mid shape is the headline k-means
/// shape of `BENCH_streaming.json`.
const SHAPES: [(usize, usize); 3] = [(64, 8), (1024, 32), (4096, 64)];

/// Silhouette is O(n²·d): its pairs stop at the mid shape.
const SILHOUETTE_MAX_POINTS: usize = 1024;

const CONFIG: KMeansConfig = KMeansConfig {
    k: 8,
    max_iterations: 50,
    tolerance: 1e-9,
    seed: 0x5eed_cafe,
};

/// Deterministic synthetic observations with loose cluster structure:
/// four blobs plus per-coordinate jitter, so k-means does realistic
/// (non-degenerate, multi-iteration) work.
fn dataset(n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ ((n as u64) << 8) ^ (d as u64);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let blob = (i % 4) as f64 * 10.0;
            (0..d).map(|_| blob + next()).collect()
        })
        .collect()
}

/// Asserts that the flat kernels equal the reference bit for bit on
/// one shape, and returns the shared assignments for the silhouette
/// pair.
fn assert_agreement(points: &[Vec<f64>], flat: &DenseMatrix) -> Vec<usize> {
    let r = reference::kmeans(points, &CONFIG).unwrap();
    let f = kmeans_flat(flat.view(), &CONFIG).unwrap();
    assert_eq!(r.assignments, f.assignments, "k-means assignments");
    assert_eq!(r.centroids, f.centroids.to_nested(), "k-means centroids");
    assert_eq!(r.inertia.to_bits(), f.inertia.to_bits(), "k-means inertia");
    assert_eq!(r.iterations, f.iterations, "k-means iterations");
    if points.len() <= SILHOUETTE_MAX_POINTS {
        let rs = reference::silhouette(points, &r.assignments).unwrap();
        let fs = silhouette_flat(flat.view(), &f.assignments).unwrap();
        assert_eq!(rs.to_bits(), fs.to_bits(), "silhouette");
    }
    r.assignments
}

fn bench_kmeans(c: &mut Criterion) {
    let mut g = c.benchmark_group("statistics_kernels/kmeans");
    for (n, d) in SHAPES {
        let points = dataset(n, d);
        let flat = DenseMatrix::from_rows(&points).unwrap();
        assert_agreement(&points, &flat);
        g.throughput(Throughput::Elements((n * d) as u64));
        g.bench_function(&format!("reference/{n}x{d}"), |b| {
            b.iter(|| reference::kmeans(black_box(&points), black_box(&CONFIG)).unwrap())
        });
        g.bench_function(&format!("flat/{n}x{d}"), |b| {
            b.iter(|| kmeans_flat(black_box(flat.view()), black_box(&CONFIG)).unwrap())
        });
    }
    g.finish();
}

fn bench_silhouette(c: &mut Criterion) {
    let mut g = c.benchmark_group("statistics_kernels/silhouette");
    for (n, d) in SHAPES {
        if n > SILHOUETTE_MAX_POINTS {
            continue;
        }
        let points = dataset(n, d);
        let flat = DenseMatrix::from_rows(&points).unwrap();
        let assignments = assert_agreement(&points, &flat);
        g.throughput(Throughput::Elements((n * n * d) as u64));
        g.bench_function(&format!("reference/{n}x{d}"), |b| {
            b.iter(|| reference::silhouette(black_box(&points), black_box(&assignments)).unwrap())
        });
        g.bench_function(&format!("flat/{n}x{d}"), |b| {
            b.iter(|| silhouette_flat(black_box(flat.view()), black_box(&assignments)).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kmeans, bench_silhouette);

/// The agreement check once per shape, unmeasured: the CI smoke mode
/// (`-- --test`).
fn smoke() {
    for (n, d) in SHAPES {
        let points = dataset(n, d);
        assert_agreement(&points, &DenseMatrix::from_rows(&points).unwrap());
        println!("statistics_kernels/smoke/{n}x{d}: ok");
    }
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        smoke();
        return;
    }
    benches();
}
