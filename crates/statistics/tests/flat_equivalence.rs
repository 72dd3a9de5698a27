//! Differential tests pinning the flat kernels to the nested reference
//! implementations in `statistics::reference` (the executable spec).
//!
//! Both sides compute every distance with the one sequential `sq_dist`
//! and reduce in the same term order, so results are held to *bit
//! identity*: k-means assignments, centroids, inertia and iteration
//! count, and the silhouette score. Every property draws from two point
//! strategies: uniform reals, and points at a large offset plus small
//! integers, where exact distance ties and cancellation expose any
//! kernel that reassociates a sum or expands `‖x − c‖²` into norms.

use proptest::prelude::*;
use statistics::{kmeans_flat, reference, silhouette_flat, DenseMatrix, KMeansConfig, MatrixView};

/// Rectangular nested point sets: every row shares one dimensionality.
fn rect_points(max_dim: usize, min_n: usize, max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..=max_dim).prop_flat_map(move |dim| {
        prop::collection::vec(
            prop::collection::vec(-50.0f64..50.0, dim..=dim),
            min_n..=max_n,
        )
    })
}

/// Rectangular point sets at `1e8 + [0, 8)` in integer steps: many
/// points and centroids tie exactly, and every coordinate carries a
/// large common offset that cancels in `x − c`.
fn offset_points(
    max_dim: usize,
    min_n: usize,
    max_n: usize,
) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..=max_dim).prop_flat_map(move |dim| {
        prop::collection::vec(
            prop::collection::vec((0u32..8).prop_map(|v| 1e8 + v as f64), dim..=dim),
            min_n..=max_n,
        )
    })
}

/// Either strategy, picked per case.
fn point_sets(max_dim: usize, min_n: usize, max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop_oneof![
        rect_points(max_dim, min_n, max_n),
        offset_points(max_dim, min_n, max_n),
    ]
}

proptest! {
    #[test]
    fn kmeans_flat_is_bit_identical_to_reference(
        pts in point_sets(8, 4, 32),
        k in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let cfg = KMeansConfig { k, seed, ..Default::default() };
        let m = DenseMatrix::from_rows(&pts).unwrap();
        match (reference::kmeans(&pts, &cfg), kmeans_flat(m.view(), &cfg)) {
            (Ok(r), Ok(f)) => {
                prop_assert_eq!(&r.assignments, &f.assignments);
                prop_assert_eq!(r.centroids, f.centroids.to_nested());
                prop_assert_eq!(r.inertia.to_bits(), f.inertia.to_bits());
                prop_assert_eq!(r.iterations, f.iterations);
            }
            (Err(_), Err(_)) => {}
            (r, f) => prop_assert!(false, "reference {:?} vs flat {:?}", r.is_ok(), f.is_ok()),
        }
    }

    #[test]
    fn silhouette_flat_matches_reference(
        pts in point_sets(6, 4, 28),
        k in 2usize..=4,
        seed in 0u64..1_000_000,
    ) {
        // Assignments from the reference clustering itself so they are
        // realistic; fall back silently when clustering degenerates.
        let cfg = KMeansConfig { k: k.min(pts.len()), seed, ..Default::default() };
        if let Ok(r) = reference::kmeans(&pts, &cfg) {
            let m = DenseMatrix::from_rows(&pts).unwrap();
            match (
                reference::silhouette(&pts, &r.assignments),
                silhouette_flat(m.view(), &r.assignments),
            ) {
                (Ok(a), Ok(b)) => prop_assert!(a.to_bits() == b.to_bits(), "{a} vs {b}"),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "reference {:?} vs flat {:?}", a.is_ok(), b.is_ok()),
            }
        }
    }
}

#[test]
fn flat_kernels_reject_bad_shapes_like_reference() {
    // Zero rows / zero cols.
    assert!(matches!(
        kmeans_flat(
            MatrixView::new(&[], 0, 2).unwrap(),
            &KMeansConfig::default()
        ),
        Err(statistics::StatError::Empty)
    ));
    assert!(matches!(
        kmeans_flat(
            MatrixView::new(&[], 2, 0).unwrap(),
            &KMeansConfig::default()
        ),
        Err(statistics::StatError::InvalidParameter(_))
    ));
    assert!(matches!(
        silhouette_flat(MatrixView::new(&[], 3, 0).unwrap(), &[0, 0, 1]),
        Err(statistics::StatError::InvalidParameter(_))
    ));
    // Assignment-length mismatch carries (points, assignments).
    assert!(matches!(
        silhouette_flat(MatrixView::new(&[1.0, 2.0, 3.0], 3, 1).unwrap(), &[0, 1]),
        Err(statistics::StatError::LengthMismatch { left: 3, right: 2 })
    ));
}
