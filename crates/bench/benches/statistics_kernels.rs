//! Flat-matrix statistics kernel microbenchmarks.
//!
//! Compares the flat [`DenseMatrix`](statistics::DenseMatrix) kernels
//! (`kmeans_flat`, `silhouette_flat`) against the nested
//! `Vec<Vec<f64>>` reference implementations in `statistics::reference`
//! — the seed's layout, kept as the executable spec — at 64–4096
//! points × 8–64 dimensions, as the pairs `kmeans/{n}x{d}` and
//! `silhouette/{n}x{d}` with sides `flat` and `reference`. Before any
//! case runs, every shape asserts that the two sides return
//! bit-identical results, so a pair measures layout and parallelism
//! cost only. The harness and its modes are in `bench::measure`; this
//! bench writes `BENCH_statistics.json`.
//!
//! The flat kernels split points over the rayon pool in blocks of 256,
//! so the larger shapes' allocation counts depend on the pool's thread
//! count and are not gated.

use bench::measure::{Bench, CountingAlloc};
use serde_json::Value;
use statistics::cluster::KMeansConfig;
use statistics::matrix::DenseMatrix;
use statistics::{kmeans_flat, reference, silhouette_flat};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(points, dims)` shapes.
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

fn main() {
    let mut b = Bench::from_env("statistics_kernels", "BENCH_statistics.json").ungated(&[
        "kmeans/1024x32",
        "kmeans/4096x64",
        "silhouette/1024x32",
    ]);
    b.note(
        "config",
        Value::Str(format!(
            "k = {}, at most {} iterations",
            CONFIG.k, CONFIG.max_iterations
        )),
    );
    for (n, d) in SHAPES {
        let points = dataset(n, d);
        let flat = DenseMatrix::from_rows(&points).unwrap();
        let assignments = assert_agreement(&points, &flat);
        b.pair(
            &format!("kmeans/{n}x{d}"),
            ("flat", || {
                kmeans_flat(black_box(flat.view()), &CONFIG).unwrap()
            }),
            ("reference", || {
                reference::kmeans(black_box(&points), &CONFIG).unwrap()
            }),
        );
        if n <= SILHOUETTE_MAX_POINTS {
            b.pair(
                &format!("silhouette/{n}x{d}"),
                ("flat", || {
                    silhouette_flat(black_box(flat.view()), &assignments).unwrap()
                }),
                ("reference", || {
                    reference::silhouette(black_box(&points), &assignments).unwrap()
                }),
            );
        }
    }
    b.finish();
}
