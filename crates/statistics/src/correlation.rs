//! Correlation and covariance.
//!
//! The paper's load-imbalance rule requires that "on a per-thread basis,
//! the times in the events are highly negatively correlated — a thread
//! that finishes the inner loop early will spend more time in the outer
//! loop waiting at the barrier". [`pearson`] is the primitive behind that
//! condition; [`spearman`] is provided for rank-robust variants.
//!
//! [`covariance_matrix_flat`] is the optimized kernel: it centres every
//! column exactly once into a contiguous column-major scratch, then
//! fills the upper triangle with one unrolled dot product per entry,
//! parallelised over triangle rows with rayon. The nested
//! [`covariance_matrix`] signature survives as a gather-once wrapper;
//! [`crate::reference::covariance_matrix`] keeps the original per-pair
//! implementation as the executable spec.

use crate::matrix::{dot, DenseMatrix, MatrixView};
use crate::{Result, StatError};
use rayon::prelude::*;

fn check_pair(x: &[f64], y: &[f64], need: usize) -> Result<()> {
    if x.len() != y.len() {
        return Err(StatError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < need {
        return Err(StatError::TooFewSamples { got: x.len(), need });
    }
    Ok(())
}

/// Population covariance of two equal-length series.
pub fn covariance(x: &[f64], y: &[f64]) -> Result<f64> {
    check_pair(x, y, 1)?;
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    Ok(x.iter()
        .zip(y)
        .map(|(&a, &b)| (a - mx) * (b - my))
        .sum::<f64>()
        / n)
}

/// Pearson product-moment correlation coefficient, in `[-1, 1]`.
///
/// Returns [`StatError::Degenerate`] when either series has zero variance
/// (correlation is undefined for a constant series).
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    check_pair(x, y, 2)?;
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatError::Degenerate("zero variance series".into()));
    }
    // Clamp to counteract floating point drift just outside [-1, 1].
    Ok((sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0))
}

/// Assigns fractional ranks (average rank for ties), 1-based.
///
/// Single forward pass over the sort order: a tie group is closed as
/// soon as the next value differs, so each position is visited once.
pub fn ranks(data: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.sort_by(|&a, &b| {
        data[a]
            .partial_cmp(&data[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![0.0; data.len()];
    let mut start = 0;
    for pos in 1..=idx.len() {
        if pos == idx.len() || data[idx[pos]] != data[idx[start]] {
            // Ranks are 1-based; a tie group spanning sorted positions
            // [start, pos) averages to the midpoint of those ranks.
            let avg = (start + pos - 1) as f64 / 2.0 + 1.0;
            for &k in &idx[start..pos] {
                out[k] = avg;
            }
            start = pos;
        }
    }
    out
}

/// Spearman rank correlation coefficient, in `[-1, 1]`.
pub fn spearman(x: &[f64], y: &[f64]) -> Result<f64> {
    check_pair(x, y, 2)?;
    pearson(&ranks(x), &ranks(y))
}

/// Covariance matrix over the flat layout: `data` holds one observation
/// per row and one variable per column; the result is the symmetric
/// `cols × cols` population covariance matrix.
///
/// Columns are centred exactly once into a contiguous column-major
/// scratch, so every matrix entry reduces to a single unrolled dot
/// product of two adjacent-memory slices; the upper-triangle rows are
/// independent and computed in parallel.
pub fn covariance_matrix_flat(data: MatrixView<'_>) -> Result<DenseMatrix> {
    let n = data.rows();
    let p = data.cols();
    if n == 0 || p == 0 {
        return Err(StatError::Empty);
    }
    let mut means = vec![0.0; p];
    for i in 0..n {
        for (m, &v) in means.iter_mut().zip(data.row(i)) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n as f64;
    }
    let mut centered = vec![0.0; p * n];
    for i in 0..n {
        for (j, &v) in data.row(i).iter().enumerate() {
            centered[j * n + i] = v - means[j];
        }
    }
    let cc = &centered;
    let tri: Vec<Vec<f64>> = (0..p)
        .into_par_iter()
        .map(|i| {
            let ci = &cc[i * n..(i + 1) * n];
            (i..p)
                .map(|j| dot(ci, &cc[j * n..(j + 1) * n]) / n as f64)
                .collect()
        })
        .collect();
    let mut out = DenseMatrix::zeros(p, p);
    for (i, row) in tri.iter().enumerate() {
        for (off, &v) in row.iter().enumerate() {
            out.set(i, i + off, v);
            out.set(i + off, i, v);
        }
    }
    Ok(out)
}

/// Full covariance matrix of column-major data: `columns[j]` is variable
/// `j`'s samples. Result is a symmetric `p × p` matrix in row-major order.
///
/// Compatibility wrapper: transposes the columns into a [`DenseMatrix`]
/// once and defers to [`covariance_matrix_flat`].
pub fn covariance_matrix(columns: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
    let m = DenseMatrix::from_columns(columns)?;
    Ok(covariance_matrix_flat(m.view())?.to_nested())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn pearson_perfect_positive() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!(approx(pearson(&x, &y).unwrap(), 1.0));
    }

    #[test]
    fn pearson_perfect_negative() {
        // The paper's barrier-wait signature: inner-loop time up,
        // outer-loop wait time down, exactly anti-correlated.
        let inner = [5.0, 7.0, 9.0, 11.0];
        let outer: Vec<f64> = inner.iter().map(|t| 20.0 - t).collect();
        assert!(approx(pearson(&inner, &outer).unwrap(), -1.0));
    }

    #[test]
    fn pearson_uncorrelated_is_near_zero() {
        // A symmetric pattern orthogonal to the linear ramp.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let y = [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0];
        assert!(pearson(&x, &y).unwrap().abs() < 1e-9);
    }

    #[test]
    fn pearson_constant_series_is_degenerate() {
        assert!(matches!(
            pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(StatError::Degenerate(_))
        ));
    }

    #[test]
    fn pearson_length_mismatch() {
        assert!(matches!(
            pearson(&[1.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(StatError::LengthMismatch { left: 2, right: 3 })
        ));
    }

    #[test]
    fn pearson_needs_two_samples() {
        assert!(matches!(
            pearson(&[1.0], &[1.0]),
            Err(StatError::TooFewSamples { got: 1, need: 2 })
        ));
    }

    #[test]
    fn covariance_known_value() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 6.0, 8.0];
        // cov = E[(x - 2)(y - 6)] = (2 + 0 + 2) / 3
        assert!(approx(covariance(&x, &y).unwrap(), 4.0 / 3.0));
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!(approx(spearman(&x, &y).unwrap(), 1.0));
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0, 3.0];
        assert!(approx(spearman(&x, &y).unwrap(), 1.0));
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn ranks_all_tied_and_leading_trailing_groups() {
        assert_eq!(ranks(&[7.0, 7.0, 7.0]), vec![2.0, 2.0, 2.0]);
        assert_eq!(
            ranks(&[1.0, 1.0, 2.0, 3.0, 3.0]),
            vec![1.5, 1.5, 3.0, 4.5, 4.5]
        );
        assert_eq!(ranks(&[]), Vec::<f64>::new());
    }

    #[test]
    fn covariance_matrix_is_symmetric_with_variances_on_diagonal() {
        let cols = vec![vec![1.0, 2.0, 3.0, 4.0], vec![2.0, 1.0, 4.0, 3.0]];
        let m = covariance_matrix(&cols).unwrap();
        assert_eq!(m.len(), 2);
        assert!(approx(m[0][1], m[1][0]));
        let var0 = covariance(&cols[0], &cols[0]).unwrap();
        assert!(approx(m[0][0], var0));
    }

    #[test]
    fn covariance_matrix_rejects_ragged_input() {
        let cols = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(matches!(
            covariance_matrix(&cols),
            Err(StatError::LengthMismatch { left: 2, right: 1 })
        ));
    }

    #[test]
    fn covariance_matrix_flat_rejects_empty_shapes() {
        assert!(matches!(
            covariance_matrix_flat(MatrixView::new(&[], 0, 3).unwrap()),
            Err(StatError::Empty)
        ));
        assert!(matches!(
            covariance_matrix_flat(MatrixView::new(&[], 4, 0).unwrap()),
            Err(StatError::Empty)
        ));
    }
}
