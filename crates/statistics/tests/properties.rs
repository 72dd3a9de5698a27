//! Property-based tests for the statistics kernels.

use proptest::prelude::*;
use statistics::{
    cluster::{kmeans_flat, KMeansConfig},
    correlation::pearson,
    descriptive::{mean, quantile, Summary, Welford},
    DenseMatrix,
};

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6f64, 1..max_len)
}

proptest! {
    #[test]
    fn mean_lies_within_min_max(data in finite_vec(64)) {
        let s = Summary::of(&data).unwrap();
        prop_assert!(s.mean >= s.min - 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
    }

    #[test]
    fn stddev_is_nonnegative(data in finite_vec(64)) {
        let s = Summary::of(&data).unwrap();
        prop_assert!(s.stddev >= 0.0);
    }

    #[test]
    fn median_lies_within_min_max(data in finite_vec(64)) {
        let s = Summary::of(&data).unwrap();
        prop_assert!(s.median >= s.min - 1e-9);
        prop_assert!(s.median <= s.max + 1e-9);
    }

    #[test]
    fn quantiles_are_monotone(data in finite_vec(64), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&data, lo).unwrap();
        let b = quantile(&data, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn welford_matches_summary(data in finite_vec(64)) {
        let mut w = Welford::new();
        for &x in &data { w.push(x); }
        let s = Summary::of(&data).unwrap();
        prop_assert!((w.mean() - s.mean).abs() < 1e-6 * (1.0 + s.mean.abs()));
        prop_assert!((w.variance() - s.variance).abs() < 1e-4 * (1.0 + s.variance.abs()));
    }

    #[test]
    fn welford_merge_is_order_independent(a in finite_vec(32), b in finite_vec(32)) {
        let fold = |v: &[f64]| {
            let mut w = Welford::new();
            for &x in v { w.push(x); }
            w
        };
        let mut ab = fold(&a);
        ab.merge(&fold(&b));
        let mut ba = fold(&b);
        ba.merge(&fold(&a));
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-6 * (1.0 + ab.mean().abs()));
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-4 * (1.0 + ab.variance().abs()));
        prop_assert_eq!(ab.count(), ba.count());
    }

    #[test]
    fn pearson_in_unit_interval(
        data in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..64)
    ) {
        let x: Vec<f64> = data.iter().map(|p| p.0).collect();
        let y: Vec<f64> = data.iter().map(|p| p.1).collect();
        if let Ok(r) = pearson(&x, &y) {
            prop_assert!((-1.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn pearson_is_symmetric(
        data in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..32)
    ) {
        let x: Vec<f64> = data.iter().map(|p| p.0).collect();
        let y: Vec<f64> = data.iter().map(|p| p.1).collect();
        match (pearson(&x, &y), pearson(&y, &x)) {
            (Ok(a), Ok(b)) => prop_assert!((a - b).abs() < 1e-9),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "symmetry of error behaviour violated"),
        }
    }

    #[test]
    fn pearson_invariant_under_affine_transform(
        data in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..32),
        scale in 0.1f64..10.0,
        shift in -100.0f64..100.0
    ) {
        let x: Vec<f64> = data.iter().map(|p| p.0).collect();
        let y: Vec<f64> = data.iter().map(|p| p.1).collect();
        let y2: Vec<f64> = y.iter().map(|v| v * scale + shift).collect();
        if let (Ok(a), Ok(b)) = (pearson(&x, &y), pearson(&x, &y2)) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn kmeans_assignment_count_matches_points(
        pts in prop::collection::vec(
            prop::collection::vec(-100.0f64..100.0, 2..=2), 4..32),
        k in 1usize..4
    ) {
        let cfg = KMeansConfig { k, ..Default::default() };
        let m = DenseMatrix::from_rows(&pts).unwrap();
        let res = kmeans_flat(m.view(), &cfg).unwrap();
        prop_assert_eq!(res.assignments.len(), pts.len());
        prop_assert!(res.assignments.iter().all(|&a| a < k));
        prop_assert!(res.inertia >= 0.0);
    }

    #[test]
    fn mean_of_shifted_data_shifts(data in finite_vec(64), shift in -1e3f64..1e3) {
        let m1 = mean(&data).unwrap();
        let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
        let m2 = mean(&shifted).unwrap();
        prop_assert!((m2 - (m1 + shift)).abs() < 1e-6 * (1.0 + m1.abs() + shift.abs()));
    }
}
