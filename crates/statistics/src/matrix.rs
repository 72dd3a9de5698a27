//! Flat, row-major dense matrices and the one distance kernel the
//! clustering routines are built on.
//!
//! PerfExplorer's data-mining operations (thread clustering,
//! correlation) consume per-thread feature vectors extracted from the
//! columnar profile store. [`DenseMatrix`] keeps those vectors in one
//! flat `Vec<f64>` with row-major layout — row `i` is the contiguous
//! slice `data[i * cols .. (i + 1) * cols]` — so the kernels stream
//! adjacent memory instead of chasing one heap pointer per point, and a
//! profile column view can be gathered into it exactly once.
//! [`MatrixView`] is the borrowed, zero-copy counterpart used by kernel
//! entry points so callers never clone the data to analyse it.
//!
//! [`sq_dist`] is the one distance kernel: sequential accumulation in
//! dimension order, shared with the nested implementations in
//! [`crate::reference`], so every distance the flat k-means and
//! silhouette compute is bit-identical to the one the oracle computes.

use crate::{Result, StatError};
use serde::{Deserialize, Serialize};

/// A flat, row-major `rows × cols` matrix of `f64`.
///
/// Row `i` occupies the contiguous slice `data[i*cols .. (i+1)*cols]`,
/// so per-row kernels stream adjacent memory and the whole matrix can
/// be handed to blocked kernels as one slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl DenseMatrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Builds a matrix from an existing row-major buffer.
    ///
    /// Returns [`StatError::LengthMismatch`] when `data.len()` is not
    /// `rows * cols` (left: expected, right: provided).
    pub fn from_row_major(data: Vec<f64>, rows: usize, cols: usize) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(StatError::LengthMismatch {
                left: rows * cols,
                right: data.len(),
            });
        }
        Ok(DenseMatrix { data, rows, cols })
    }

    /// Gathers nested rows (points) into the flat layout.
    ///
    /// Returns [`StatError::Empty`] for zero rows and
    /// [`StatError::LengthMismatch`] for ragged input (left: the first
    /// row's length, right: the offending row's length).
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(StatError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(StatError::LengthMismatch {
                    left: cols,
                    right: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix {
            data,
            rows: rows.len(),
            cols,
        })
    }

    /// Gathers column-major data (`columns[j]` holds variable `j`'s
    /// samples) into the row-major layout, transposing once.
    ///
    /// Returns [`StatError::Empty`] for zero columns or zero-length
    /// columns and [`StatError::LengthMismatch`] for ragged input
    /// (left: the first column's length, right: the offending one's).
    pub fn from_columns(columns: &[Vec<f64>]) -> Result<Self> {
        if columns.is_empty() {
            return Err(StatError::Empty);
        }
        let n = columns[0].len();
        if n == 0 {
            return Err(StatError::Empty);
        }
        for c in columns {
            if c.len() != n {
                return Err(StatError::LengthMismatch {
                    left: n,
                    right: c.len(),
                });
            }
        }
        let p = columns.len();
        let mut m = DenseMatrix::zeros(n, p);
        for (j, c) in columns.iter().enumerate() {
            for (i, &v) in c.iter().enumerate() {
                m.data[i * p + j] = v;
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a contiguous slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The cell at (`i`, `j`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sets the cell at (`i`, `j`).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// The whole row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole backing buffer, row-major, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates rows as contiguous slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// A borrowed, zero-copy view of the whole matrix.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Copies out to the nested representation (compat bridges only).
    pub fn to_nested(&self) -> Vec<Vec<f64>> {
        self.iter_rows().map(<[f64]>::to_vec).collect()
    }
}

/// A borrowed, zero-copy row-major matrix view.
///
/// This is the argument type of the flat kernels: any contiguous
/// row-major buffer — a [`DenseMatrix`], a profile-store gather, a
/// bench harness arena — can be analysed without copying.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixView<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
}

impl<'a> MatrixView<'a> {
    /// Wraps a row-major buffer.
    ///
    /// Returns [`StatError::LengthMismatch`] when `data.len()` is not
    /// `rows * cols`.
    pub fn new(data: &'a [f64], rows: usize, cols: usize) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(StatError::LengthMismatch {
                left: rows * cols,
                right: data.len(),
            });
        }
        Ok(MatrixView { data, rows, cols })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a contiguous slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The cell at (`i`, `j`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// The whole row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        self.data
    }

    /// Iterates rows as contiguous slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &'a [f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }
}

/// Squared Euclidean distance, sequential accumulation.
///
/// Term order and rounding are exactly those of the nested reference
/// implementations, which call this same function, so every distance
/// [`crate::cluster::kmeans_flat`] and [`crate::cluster::silhouette_flat`]
/// compute is bit-identical to [`crate::reference::kmeans`]'s and
/// [`crate::reference::silhouette`]'s.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = DenseMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(2, 1), 6.0);
        assert_eq!(m.to_nested(), rows);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_rows_rejects_ragged_and_empty() {
        assert!(matches!(
            DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]),
            Err(StatError::LengthMismatch { left: 2, right: 1 })
        ));
        assert!(matches!(DenseMatrix::from_rows(&[]), Err(StatError::Empty)));
    }

    #[test]
    fn from_columns_transposes() {
        let cols = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let m = DenseMatrix::from_columns(&cols).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(0), &[1.0, 4.0]);
        assert_eq!(m.row(2), &[3.0, 6.0]);
    }

    #[test]
    fn from_columns_rejects_ragged_and_empty() {
        assert!(matches!(
            DenseMatrix::from_columns(&[vec![1.0, 2.0], vec![3.0]]),
            Err(StatError::LengthMismatch { left: 2, right: 1 })
        ));
        assert!(matches!(
            DenseMatrix::from_columns(&[]),
            Err(StatError::Empty)
        ));
        assert!(matches!(
            DenseMatrix::from_columns(&[vec![]]),
            Err(StatError::Empty)
        ));
    }

    #[test]
    fn from_row_major_validates_length() {
        assert!(DenseMatrix::from_row_major(vec![0.0; 6], 2, 3).is_ok());
        assert!(matches!(
            DenseMatrix::from_row_major(vec![0.0; 5], 2, 3),
            Err(StatError::LengthMismatch { left: 6, right: 5 })
        ));
        assert!(matches!(
            MatrixView::new(&[0.0; 5], 2, 3),
            Err(StatError::LengthMismatch { left: 6, right: 5 })
        ));
    }

    #[test]
    fn view_matches_owner() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let v = m.view();
        assert_eq!(v.rows(), 2);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.row(1), m.row(1));
        assert_eq!(v.get(0, 1), 2.0);
        let rows: Vec<&[f64]> = v.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &[1.0, 2.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.row_mut(1)[2] = 7.0;
        m.set(0, 0, 1.0);
        assert_eq!(m.get(1, 2), 7.0);
        assert_eq!(m.as_slice(), &[1.0, 0.0, 0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn sq_dist_is_the_reference_form() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 0.0, 3.0];
        assert_eq!(sq_dist(&a, &b), 9.0 + 4.0);
        assert_eq!(sq_dist(&a, &a), 0.0);
    }
}
