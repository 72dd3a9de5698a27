//! Nested-`Vec` reference implementations — the executable spec for the
//! flat kernels.
//!
//! These are the original `Vec<Vec<f64>>` k-means and silhouette
//! routines, kept verbatim (modulo the empty-cluster re-seeding bugfix,
//! applied to both sides) after the production paths were rewritten
//! over [`crate::matrix::DenseMatrix`]. They exist for two reasons, the
//! same convention `rules::reference` established:
//!
//! 1. **Differential testing** — `tests/flat_equivalence.rs` pins
//!    [`crate::cluster::kmeans_flat`] and
//!    [`crate::cluster::silhouette_flat`] to these across random point
//!    sets, seeds and `k`, bit for bit: assignments, centroids,
//!    inertia, iteration count and silhouette.
//! 2. **Bench ablation** — `bench/benches/statistics_kernels.rs`
//!    measures flat vs. reference on identical inputs, so the layout
//!    win is quantified against the real former implementation rather
//!    than a strawman.
//!
//! Nothing in the analysis layer should call these; use the flat
//! kernels in [`crate::cluster`] instead.

// Index-based loops keep the per-cluster `counts`/`sums`/`centroids`
// updates in the original notation.
#![allow(clippy::needless_range_loop)]

use crate::cluster::KMeansConfig;
use crate::matrix::sq_dist;
use crate::{Result, StatError};

/// Result of a reference k-means run over nested points.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index assigned to each input point.
    pub assignments: Vec<usize>,
    /// Final centroids, `k` rows of the input dimensionality.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of points to their centroid (inertia).
    pub inertia: f64,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

/// Small deterministic xorshift generator so clustering results are
/// reproducible without pulling a full RNG dependency into this crate.
/// Shared by the reference and flat k-means so both draw identical
/// seeding decisions from the same `seed`.
pub(crate) struct XorShift64(u64);

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift64(seed.max(1))
    }
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Reference k-means: Lloyd's algorithm over nested points, k-means++
/// seeding, one heap-allocated `Vec` per point and per centroid.
pub fn kmeans(points: &[Vec<f64>], config: &KMeansConfig) -> Result<KMeansResult> {
    if points.is_empty() {
        return Err(StatError::Empty);
    }
    if config.k == 0 {
        return Err(StatError::InvalidParameter("k must be >= 1".into()));
    }
    if config.k > points.len() {
        return Err(StatError::InvalidParameter(format!(
            "k = {} exceeds number of points {}",
            config.k,
            points.len()
        )));
    }
    let dim = points[0].len();
    if dim == 0 {
        return Err(StatError::InvalidParameter(
            "zero-dimensional points".into(),
        ));
    }
    for p in points {
        if p.len() != dim {
            return Err(StatError::LengthMismatch {
                left: dim,
                right: p.len(),
            });
        }
    }

    // --- k-means++ seeding ---
    let mut rng = XorShift64::new(config.seed);
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(config.k);
    centroids.push(points[(rng.next_u64() % points.len() as u64) as usize].clone());
    let mut dists: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < config.k {
        let total: f64 = dists.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            (rng.next_u64() % points.len() as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(points[next].clone());
        for (i, p) in points.iter().enumerate() {
            let d = sq_dist(p, centroids.last().expect("just pushed"));
            if d < dists[i] {
                dists[i] = d;
            }
        }
    }

    // --- Lloyd iterations ---
    let mut assignments = vec![0usize; points.len()];
    let mut iterations = 0;
    loop {
        iterations += 1;
        // Assignment step.
        for (i, p) in points.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = sq_dist(p, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            assignments[i] = best;
        }
        // Update step.
        let mut sums = vec![vec![0.0; dim]; config.k];
        let mut counts = vec![0usize; config.k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &v) in sums[a].iter_mut().zip(p) {
                *s += v;
            }
        }
        let mut movement = 0.0;
        for c in 0..config.k {
            if counts[c] == 0 {
                // Empty cluster: re-seed at the point farthest from its
                // *own* assigned centroid to avoid collapsing k.
                let far = points
                    .iter()
                    .enumerate()
                    .max_by(|(i, a), (j, b)| {
                        sq_dist(a, &centroids[assignments[*i]])
                            .partial_cmp(&sq_dist(b, &centroids[assignments[*j]]))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                movement += sq_dist(&centroids[c], &points[far]);
                centroids[c] = points[far].clone();
                continue;
            }
            let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            movement += sq_dist(&centroids[c], &new);
            centroids[c] = new;
        }
        // Scale-invariant convergence: same normalisation (and term
        // order) as the flat implementation, so both take the same
        // branch on the same data.
        let mut scale = 0.0;
        for c in 0..config.k {
            for &v in &centroids[c] {
                scale += v * v;
            }
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
        .iter()
        .zip(&assignments)
        .map(|(p, &a)| sq_dist(p, &centroids[a]))
        .sum();
    Ok(KMeansResult {
        assignments,
        centroids,
        inertia,
        iterations,
    })
}

/// Reference silhouette: for every query point, one full O(n) scan of
/// all other points per evaluation — O(n²·d) with nested rows.
pub fn silhouette(points: &[Vec<f64>], assignments: &[usize]) -> Result<f64> {
    if points.is_empty() {
        return Err(StatError::Empty);
    }
    if points.len() != assignments.len() {
        return Err(StatError::LengthMismatch {
            left: points.len(),
            right: assignments.len(),
        });
    }
    if points[0].is_empty() {
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
    let mut total = 0.0;
    for (i, p) in points.iter().enumerate() {
        // Mean distance to every cluster.
        let mut mean_d = vec![0.0; k];
        for (j, q) in points.iter().enumerate() {
            if i != j {
                mean_d[assignments[j]] += sq_dist(p, q).sqrt();
            }
        }
        let own = assignments[i];
        let a = if cluster_sizes[own] > 1 {
            mean_d[own] / (cluster_sizes[own] - 1) as f64
        } else {
            0.0
        };
        let b = (0..k)
            .filter(|&c| c != own && cluster_sizes[c] > 0)
            .map(|c| mean_d[c] / cluster_sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        let s = if cluster_sizes[own] > 1 {
            (b - a) / a.max(b)
        } else {
            0.0
        };
        total += s;
    }
    Ok(total / points.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_kmeans_separates_blobs() {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            pts.push(vec![10.0 + 0.01 * i as f64, 10.0]);
        }
        let res = kmeans(&pts, &KMeansConfig::default()).unwrap();
        assert_ne!(res.assignments[0], res.assignments[1]);
        assert!(res.inertia < 1.0);
        let s = silhouette(&pts, &res.assignments).unwrap();
        assert!(s > 0.9);
    }

    #[test]
    fn reference_reseed_uses_own_centroid_distances() {
        // Same crafted case as the regression test in `crate::cluster`:
        // a cluster empties mid-run and the farthest-point pick must be
        // measured against each point's own centroid, not point 0's.
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
        assert!(res.inertia < 1.0);
    }
}
