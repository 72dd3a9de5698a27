//! k-means clustering with k-means++ seeding, over the flat matrix
//! layout.
//!
//! PerfExplorer's data-mining operations include clustering of per-thread
//! behaviour (e.g. grouping threads by their event time vectors to reveal
//! distinct behavioural classes on large runs). This module provides the
//! same capability: deterministic, seedable k-means over dense vectors.
//!
//! The kernels ([`kmeans_flat`], [`silhouette_flat`]) operate on a
//! zero-copy [`MatrixView`] so data gathered once from the columnar
//! profile store is clustered in place. Every distance they compute —
//! seeding, assignment, empty-cluster reseeding, inertia, silhouette —
//! is one call of the sequential [`sq_dist`], and every reduction runs
//! in the term order of [`crate::reference`]. Parallelism only splits
//! independent work: the assignment argmin over chunks of points, and
//! the per-point silhouette scores, which are then summed sequentially
//! in input order. So assignments, centroids, inertia, iteration count
//! and silhouette are bit-identical to the reference on every host and
//! at every thread count — the property the differential proptests in
//! `tests/flat_equivalence.rs` pin.

use crate::matrix::{sq_dist, DenseMatrix, MatrixView};
use crate::reference::XorShift64;
use crate::{Result, StatError};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Points per parallel chunk of the assignment sweep and of the
/// silhouette scores. The rayon shim times chunks on the caller until
/// the work left pays for a pool handoff and only then splits the
/// rest, so a small chunk keeps that timed prefix a small share of a
/// large input (one chunk in 16 at 1 024 points). Inputs of tens of
/// rows, as the per-thread clustering sees, never pay and stay on the
/// caller.
const ASSIGN_CHUNK: usize = 64;

/// Configuration for [`kmeans_flat`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters to form.
    pub k: usize,
    /// Maximum Lloyd iterations before declaring non-convergence.
    pub max_iterations: usize,
    /// Convergence threshold on total centroid movement, relative to
    /// the total squared centroid norm (scale-invariant: multiplying
    /// every coordinate by a constant does not change the decision).
    pub tolerance: f64,
    /// Seed for the deterministic k-means++ initialisation.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 2,
            max_iterations: 200,
            tolerance: 1e-9,
            seed: 0x5eed_cafe,
        }
    }
}

/// Result of a k-means run over the flat layout: centroids stay in one
/// contiguous `k × dim` matrix, so keeping or comparing many candidate
/// clusterings does not clone per-centroid `Vec`s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatKMeans {
    /// Cluster index assigned to each input point.
    pub assignments: Vec<usize>,
    /// Final centroids as a flat `k × dim` matrix.
    pub centroids: DenseMatrix,
    /// Sum of squared distances of points to their centroid (inertia).
    pub inertia: f64,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

fn validate(rows: usize, cols: usize, config: &KMeansConfig) -> Result<()> {
    if rows == 0 {
        return Err(StatError::Empty);
    }
    if config.k == 0 {
        return Err(StatError::InvalidParameter("k must be >= 1".into()));
    }
    if config.k > rows {
        return Err(StatError::InvalidParameter(format!(
            "k = {} exceeds number of points {}",
            config.k, rows
        )));
    }
    if cols == 0 {
        return Err(StatError::InvalidParameter(
            "zero-dimensional points".into(),
        ));
    }
    Ok(())
}

/// Clusters the rows of `points` into `config.k` groups with Lloyd's
/// algorithm seeded by k-means++, entirely on the flat layout.
pub fn kmeans_flat(points: MatrixView<'_>, config: &KMeansConfig) -> Result<FlatKMeans> {
    let n = points.rows();
    let dim = points.cols();
    validate(n, dim, config)?;
    let k = config.k;

    // --- k-means++ seeding (term order identical to the reference, so
    // both draw the same RNG decisions from the same seed) ---
    let mut rng = XorShift64::new(config.seed);
    let mut centroids = DenseMatrix::zeros(k, dim);
    let first = (rng.next_u64() % n as u64) as usize;
    centroids.row_mut(0).copy_from_slice(points.row(first));
    let mut dists: Vec<f64> = points
        .iter_rows()
        .map(|p| sq_dist(p, centroids.row(0)))
        .collect();
    let mut seeded = 1;
    while seeded < k {
        let total: f64 = dists.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            (rng.next_u64() % n as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut chosen = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.row_mut(seeded).copy_from_slice(points.row(next));
        for (d, p) in dists.iter_mut().zip(points.iter_rows()) {
            let nd = sq_dist(p, centroids.row(seeded));
            if nd < *d {
                *d = nd;
            }
        }
        seeded += 1;
    }

    lloyd(points, centroids, config)
}

/// Index of the centroid nearest to `x`: a strict `<` scan, so ties
/// keep the earlier centroid, as in the reference.
fn nearest(x: &[f64], centroids: &DenseMatrix) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter_rows().enumerate() {
        let d = sq_dist(x, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Lloyd iterations from the k-means++ seeded centroids: the loop
/// [`kmeans_flat`] runs after seeding.
fn lloyd(
    points: MatrixView<'_>,
    mut centroids: DenseMatrix,
    config: &KMeansConfig,
) -> Result<FlatKMeans> {
    let n = points.rows();
    let dim = points.cols();
    let k = config.k;
    let mut assignments: Vec<usize> = vec![0; n];
    let mut iterations = 0;
    let mut scratch = vec![0.0; dim];
    loop {
        iterations += 1;
        // Assignment step: rayon fans the argmin out over contiguous
        // chunks of one reused assignment buffer (no per-iteration
        // allocation). Each point's argmin is independent, so the
        // split cannot change a result.
        let cents = &centroids;
        assignments
            .par_chunks_mut(ASSIGN_CHUNK)
            .enumerate()
            .for_each(|(ch, chunk)| {
                for (r, slot) in chunk.iter_mut().enumerate() {
                    *slot = nearest(points.row(ch * ASSIGN_CHUNK + r), cents);
                }
            });

        // Update step: one pass over the points in input order,
        // accumulating into the contiguous per-cluster rows of a flat
        // sum matrix — the reference's summation order. It is
        // deliberately sequential: chunk-partial sums would regroup the
        // floating-point additions.
        let mut sums = DenseMatrix::zeros(k, dim);
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter_rows().zip(&assignments) {
            counts[a] += 1;
            for (s, &v) in sums.row_mut(a).iter_mut().zip(p) {
                *s += v;
            }
        }
        let mut movement = 0.0;
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Empty cluster: re-seed at the point farthest from its
                // *own* assigned centroid to avoid collapsing k. Ties
                // keep the later point, matching the reference's
                // `max_by` semantics.
                let mut far = 0;
                let mut far_d = f64::NEG_INFINITY;
                for (i, &a) in assignments.iter().enumerate() {
                    let d = sq_dist(points.row(i), centroids.row(a));
                    if d.partial_cmp(&far_d) != Some(std::cmp::Ordering::Less) {
                        far_d = d;
                        far = i;
                    }
                }
                movement += sq_dist(centroids.row(c), points.row(far));
                centroids.row_mut(c).copy_from_slice(points.row(far));
                continue;
            }
            for (j, s) in sums.row(c).iter().enumerate() {
                scratch[j] = s / count as f64;
            }
            movement += sq_dist(centroids.row(c), &scratch);
            centroids.row_mut(c).copy_from_slice(&scratch);
        }
        // Scale-invariant convergence: normalise movement by the total
        // squared centroid norm so the decision is unchanged when all
        // coordinates are multiplied by a constant. Degenerate scale
        // (all centroids at the origin) falls back to the absolute
        // threshold. Term order matches the reference exactly so both
        // implementations take the same branch on the same data.
        let mut scale = 0.0;
        for &v in centroids.as_slice() {
            scale += v * v;
        }
        let threshold = if scale > 0.0 {
            config.tolerance * scale
        } else {
            config.tolerance
        };
        if movement <= threshold {
            break;
        }
        if iterations >= config.max_iterations {
            return Err(StatError::NoConvergence {
                algorithm: "kmeans",
                iterations,
            });
        }
    }

    let inertia = points
        .iter_rows()
        .zip(&assignments)
        .map(|(p, &a)| sq_dist(p, centroids.row(a)))
        .sum();
    Ok(FlatKMeans {
        assignments,
        centroids,
        inertia,
        iterations,
    })
}

/// Mean silhouette coefficient of a clustering over the flat layout,
/// in `[-1, 1]`; larger is better separated. Requires at least 2
/// populated clusters.
///
/// Query points are independent and scored in parallel, in chunks of
/// 256 points (an input of at most 256 points runs on the caller); each
/// score sums `√sq_dist` to every other point in input order, and the
/// scores are added sequentially in input order — the reference's term
/// order throughout.
pub fn silhouette_flat(points: MatrixView<'_>, assignments: &[usize]) -> Result<f64> {
    let n = points.rows();
    if n == 0 {
        return Err(StatError::Empty);
    }
    if n != assignments.len() {
        return Err(StatError::LengthMismatch {
            left: n,
            right: assignments.len(),
        });
    }
    if points.cols() == 0 {
        return Err(StatError::InvalidParameter(
            "zero-dimensional points".into(),
        ));
    }
    let k = assignments.iter().copied().max().unwrap_or(0) + 1;
    let mut cluster_sizes = vec![0usize; k];
    for &a in assignments {
        cluster_sizes[a] += 1;
    }
    if cluster_sizes.iter().filter(|&&c| c > 0).count() < 2 {
        return Err(StatError::InvalidParameter(
            "silhouette requires at least 2 populated clusters".into(),
        ));
    }
    let sizes = &cluster_sizes;
    // `sum_d` receives point `i`'s distance sums per cluster; each chunk
    // lends one buffer to all its points, so no point allocates.
    let score = |i: usize, sum_d: &mut [f64]| {
        let x = points.row(i);
        sum_d.fill(0.0);
        for (j, q) in points.iter_rows().enumerate() {
            if i != j {
                sum_d[assignments[j]] += sq_dist(x, q).sqrt();
            }
        }
        let own = assignments[i];
        let a = if sizes[own] > 1 {
            sum_d[own] / (sizes[own] - 1) as f64
        } else {
            0.0
        };
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sum_d[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if sizes[own] > 1 {
            (b - a) / a.max(b)
        } else {
            0.0
        }
    };
    let mut scores = vec![0.0; n];
    scores
        .par_chunks_mut(ASSIGN_CHUNK)
        .enumerate()
        .for_each(|(ch, chunk)| {
            let mut sum_d = vec![0.0; k];
            for (r, slot) in chunk.iter_mut().enumerate() {
                *slot = score(ch * ASSIGN_CHUNK + r, &mut sum_d);
            }
        });
    let total = scores.iter().fold(0.0, |total, &s| total + s);
    Ok(total / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gathers nested points and clusters them with [`kmeans_flat`].
    fn kmeans(points: &[Vec<f64>], config: &KMeansConfig) -> Result<FlatKMeans> {
        kmeans_flat(DenseMatrix::from_rows(points)?.view(), config)
    }

    /// Gathers nested points and scores them with [`silhouette_flat`].
    fn silhouette(points: &[Vec<f64>], assignments: &[usize]) -> Result<f64> {
        silhouette_flat(DenseMatrix::from_rows(points)?.view(), assignments)
    }

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            pts.push(vec![10.0 + 0.01 * i as f64, 10.0]);
        }
        pts
    }

    #[test]
    fn kmeans_separates_two_blobs() {
        let pts = two_blobs();
        let res = kmeans(&pts, &KMeansConfig::default()).unwrap();
        // All even indices (blob A) share a cluster; odd (blob B) the other.
        let a = res.assignments[0];
        let b = res.assignments[1];
        assert_ne!(a, b);
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(res.assignments[i], a);
        }
        for i in (1..pts.len()).step_by(2) {
            assert_eq!(res.assignments[i], b);
        }
        assert!(res.inertia < 1.0);
    }

    #[test]
    fn kmeans_is_deterministic_for_fixed_seed() {
        let pts = two_blobs();
        let cfg = KMeansConfig {
            seed: 42,
            ..Default::default()
        };
        let r1 = kmeans(&pts, &cfg).unwrap();
        let r2 = kmeans(&pts, &cfg).unwrap();
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.centroids, r2.centroids);
    }

    #[test]
    fn kmeans_k_equals_n_gives_zero_inertia() {
        let pts = vec![vec![1.0], vec![2.0], vec![3.0]];
        let cfg = KMeansConfig {
            k: 3,
            ..Default::default()
        };
        let res = kmeans(&pts, &cfg).unwrap();
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn kmeans_rejects_bad_parameters() {
        let pts = vec![vec![1.0], vec![2.0]];
        assert!(kmeans(
            &pts,
            &KMeansConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            }
        )
        .is_err());
        assert!(kmeans(&[], &KMeansConfig::default()).is_err());
    }

    #[test]
    fn kmeans_rejects_ragged_points() {
        // LengthMismatch carries (expected dim, offending row's len).
        let pts = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            kmeans(&pts, &KMeansConfig::default()),
            Err(StatError::LengthMismatch { left: 2, right: 1 })
        ));
    }

    #[test]
    fn kmeans_rejects_zero_dimensional_points() {
        let pts = vec![vec![], vec![]];
        assert!(matches!(
            kmeans(&pts, &KMeansConfig::default()),
            Err(StatError::InvalidParameter(_))
        ));
    }

    #[test]
    fn silhouette_rejects_ragged_and_zero_dimensional_points() {
        // Ragged: LengthMismatch carries (expected dim, offending len).
        assert!(matches!(
            silhouette(&[vec![1.0, 2.0], vec![3.0]], &[0, 1]),
            Err(StatError::LengthMismatch { left: 2, right: 1 })
        ));
        assert!(matches!(
            silhouette(&[vec![], vec![]], &[0, 1]),
            Err(StatError::InvalidParameter(_))
        ));
        // Assignment-length mismatch carries (points, assignments).
        assert!(matches!(
            silhouette(&[vec![1.0], vec![2.0], vec![3.0]], &[0, 1]),
            Err(StatError::LengthMismatch { left: 3, right: 2 })
        ));
    }

    #[test]
    fn empty_cluster_reseeds_at_farthest_from_own_centroid() {
        // With this seed, Lloyd dynamics empty one of the four clusters
        // mid-run. The old re-seeding measured every point against
        // *point 0's* centroid instead of each point's own, picked the
        // already-well-clustered 0.5 and collapsed two clusters onto it
        // (assignments [0,1,1,1,1,2,0], inertia ≈ 17.08). Re-seeding at
        // the point farthest from its own centroid recovers all four
        // real clusters {15.25, 15.0}, {10.0, 10.25, 10.5}, {5.5}, {0.5}.
        let pts = vec![
            vec![15.25],
            vec![10.0],
            vec![10.25],
            vec![5.5],
            vec![10.5],
            vec![0.5],
            vec![15.0],
        ];
        let cfg = KMeansConfig {
            k: 4,
            seed: 0xcb54d58de858f293,
            ..Default::default()
        };
        let res = kmeans(&pts, &cfg).unwrap();
        assert_eq!(res.assignments, vec![0, 1, 1, 2, 1, 3, 0]);
        assert!(
            res.inertia < 1.0,
            "reseed regression: inertia {}",
            res.inertia
        );
    }

    #[test]
    fn kmeans_identical_points_converges() {
        let pts = vec![vec![5.0, 5.0]; 8];
        let res = kmeans(&pts, &KMeansConfig::default()).unwrap();
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn flat_api_runs_without_gather() {
        // 4 points on a line, flat row-major buffer, no nesting anywhere.
        let data = [0.0, 0.1, 10.0, 10.1];
        let view = MatrixView::new(&data, 4, 1).unwrap();
        let res = kmeans_flat(
            view,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(res.assignments[0], res.assignments[1]);
        assert_eq!(res.assignments[2], res.assignments[3]);
        assert_ne!(res.assignments[0], res.assignments[2]);
        assert_eq!(res.centroids.rows(), 2);
        let s = silhouette_flat(view, &res.assignments).unwrap();
        assert!(s > 0.9);
    }

    #[test]
    fn convergence_is_scale_invariant() {
        // The same geometry at unit scale and at 1e8 scale must take
        // the same number of Lloyd iterations: the movement threshold
        // is relative to the total squared centroid norm, not absolute.
        let unit = two_blobs();
        let big: Vec<Vec<f64>> = unit
            .iter()
            .map(|p| p.iter().map(|v| v * 1e8).collect())
            .collect();
        let cfg = KMeansConfig::default();
        let ru = kmeans(&unit, &cfg).unwrap();
        let rb = kmeans(&big, &cfg).unwrap();
        assert_eq!(ru.iterations, rb.iterations);
        assert_eq!(ru.assignments, rb.assignments);
    }

    #[test]
    fn silhouette_high_for_separated_blobs() {
        let pts = two_blobs();
        let res = kmeans(&pts, &KMeansConfig::default()).unwrap();
        let s = silhouette(&pts, &res.assignments).unwrap();
        assert!(s > 0.9, "expected well-separated blobs, got s = {s}");
    }

    #[test]
    fn silhouette_requires_two_clusters() {
        let pts = vec![vec![1.0], vec![2.0]];
        assert!(silhouette(&pts, &[0, 0]).is_err());
    }
}
