//! Flat, row-major dense matrices and the contiguous-memory kernels the
//! optimized statistics routines are built on.
//!
//! PerfExplorer's data-mining operations (clustering, PCA, correlation)
//! consume per-thread feature vectors extracted from the columnar
//! profile store. [`DenseMatrix`] keeps those vectors in one flat
//! `Vec<f64>` with row-major layout — row `i` is the contiguous slice
//! `data[i * cols .. (i + 1) * cols]` — so the hot kernels stream
//! adjacent memory instead of chasing one heap pointer per point, and a
//! profile column view can be gathered into it exactly once.
//! [`MatrixView`] is the borrowed, zero-copy counterpart used by kernel
//! entry points so callers never clone the data to analyse it.
//!
//! The free functions at the bottom are the shared distance kernels:
//! [`sq_dist`] is the *specification* form (sequential accumulation,
//! bit-identical to the nested reference implementations in
//! [`crate::reference`]), while [`dot`] and [`sq_norm`] are unrolled
//! multi-accumulator reductions that break the serial floating-point
//! dependency chain — the single biggest win on the assignment step of
//! k-means, where `‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²` turns distance
//! ranking into cached norms plus one contiguous dot product.

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
/// This is the *specification* form: term order and rounding are
/// exactly those of the nested reference implementations, so the
/// seeding, update and inertia passes of the optimized k-means stay
/// bit-identical to [`crate::reference::kmeans`].
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

const LANES: usize = 8;

/// Dot product with eight independent accumulators.
///
/// A sequential `iter().sum()` is a single floating-point dependency
/// chain (one add per ~4 cycles); eight accumulators expose
/// instruction-level parallelism and let LLVM vectorize the loop. On
/// x86-64 hosts with AVX2+FMA the call dispatches (once, cached) to a
/// fused-multiply-add kernel. Either way the result differs from
/// sequential summation only by rounding order — callers that need a
/// pinned summation order (the RNG-facing k-means paths) use
/// [`sq_dist`] instead.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if *HAS_AVX2_FMA {
        // SAFETY: the feature check guarantees AVX2 and FMA.
        return unsafe { avx2::dot_fma(a, b) };
    }
    dot_portable(a, b)
}

/// Whether the host supports the AVX2+FMA kernel paths (checked once).
#[cfg(target_arch = "x86_64")]
static HAS_AVX2_FMA: std::sync::LazyLock<bool> = std::sync::LazyLock::new(|| {
    std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
});

/// Whether the host supports the AVX-512 assignment kernel (checked
/// once).
#[cfg(target_arch = "x86_64")]
static HAS_AVX512F: std::sync::LazyLock<bool> =
    std::sync::LazyLock::new(|| std::is_x86_feature_detected!("avx512f"));

/// Centroids pre-arranged for the k-means assignment argmin.
///
/// Ranks centroids by the expansion `‖c‖² − 2·x·c` (the dropped `‖x‖²`
/// term is constant per point, so the argmin is unchanged). A naive
/// `dot` per centroid ends every candidate in a horizontal-reduction
/// latency chain; instead the centroids are transposed into
/// chunk-major panels of eight (`panel[j*8 + lane]` = dimension `j` of
/// the panel's `lane`-th centroid) so the hot loop broadcasts one
/// point coordinate against contiguous panel rows and keeps eight
/// *vertical* accumulators — per-centroid sums never leave their SIMD
/// lane until the final score. One block serves a whole assignment
/// pass: build it after each centroid update, then call
/// [`nearest`](CentroidBlock::nearest) per point.
pub struct CentroidBlock {
    /// Transposed centroid panels, `panels × (dim × 8)`, zero-padded.
    panels: Vec<f64>,
    /// `‖c‖²` per centroid, padded to the panel boundary.
    cnorms: Vec<f64>,
    /// Real centroid count (`k`).
    k: usize,
    /// Dimensions per centroid.
    dim: usize,
}

/// Centroids per panel: one AVX2 register pair (2 × 4 lanes).
const PANEL: usize = 8;

impl CentroidBlock {
    /// Builds the transposed panels and norms from centroid rows.
    pub fn new(centroids: &DenseMatrix) -> Self {
        let k = centroids.rows();
        let dim = centroids.cols();
        let npanels = k.div_ceil(PANEL);
        let mut panels = vec![0.0; npanels * dim * PANEL];
        for c in 0..k {
            let row = centroids.row(c);
            let base = (c / PANEL) * dim * PANEL + c % PANEL;
            for (j, &v) in row.iter().enumerate() {
                panels[base + j * PANEL] = v;
            }
        }
        let mut cnorms = vec![f64::INFINITY; npanels * PANEL];
        for (c, cn) in cnorms.iter_mut().enumerate().take(k) {
            *cn = sq_norm(centroids.row(c));
        }
        CentroidBlock {
            panels,
            cnorms,
            k,
            dim,
        }
    }

    /// Index of the centroid nearest to `x`. Ties keep the earlier
    /// centroid, matching a strict `<` scan over full squared
    /// distances.
    pub fn nearest(&self, x: &[f64]) -> usize {
        debug_assert_eq!(x.len(), self.dim);
        let mut scores = [0.0f64; PANEL];
        let mut best = 0;
        let mut best_s = f64::INFINITY;
        // `max(1)` keeps the chunk size legal for zero-dim centroids
        // (the panel buffer is empty then, so the loop never runs).
        for (p, panel) in self
            .panels
            .chunks_exact(self.dim.max(1) * PANEL)
            .enumerate()
        {
            let cn = &self.cnorms[p * PANEL..(p + 1) * PANEL];
            #[cfg(target_arch = "x86_64")]
            if *HAS_AVX2_FMA {
                // SAFETY: the feature check guarantees AVX2 and FMA.
                unsafe { avx2::panel_scores_fma(x, panel, cn, &mut scores) };
                for (c, &s) in scores.iter().enumerate().take(self.k - p * PANEL) {
                    if s < best_s {
                        best_s = s;
                        best = p * PANEL + c;
                    }
                }
                continue;
            }
            panel_scores_portable(x, panel, cn, &mut scores);
            for (c, &s) in scores.iter().enumerate().take(self.k - p * PANEL) {
                if s < best_s {
                    best_s = s;
                    best = p * PANEL + c;
                }
            }
        }
        best
    }
}

impl CentroidBlock {
    /// Assigns rows `lo..lo + out.len()` of `points`, writing one
    /// centroid index per row into `out` — the shape a
    /// `par_chunks_mut` sweep over a flat assignment buffer needs.
    ///
    /// On AVX2+FMA hosts the whole range runs inside one SIMD region:
    /// points go through the panel scorer in pairs, so each panel row
    /// load serves two points (the loop is load-port bound, not FMA
    /// bound) and the per-point dispatch/call overhead disappears.
    pub fn assign_into(&self, points: MatrixView<'_>, lo: usize, out: &mut [usize]) {
        debug_assert_eq!(points.cols(), self.dim);
        debug_assert!(lo + out.len() <= points.rows());
        #[cfg(target_arch = "x86_64")]
        {
            if *HAS_AVX512F {
                // SAFETY: the feature check guarantees AVX-512F, and
                // the debug-asserted bounds hold for every caller.
                unsafe {
                    avx512::assign_range_512(
                        points.as_slice(),
                        self.dim,
                        lo,
                        &self.panels,
                        &self.cnorms,
                        self.k,
                        out,
                    );
                }
                return;
            }
            if *HAS_AVX2_FMA {
                // SAFETY: the feature check guarantees AVX2 and FMA,
                // and the debug-asserted bounds hold for every caller.
                unsafe {
                    avx2::assign_range_fma(
                        points.as_slice(),
                        self.dim,
                        lo,
                        &self.panels,
                        &self.cnorms,
                        self.k,
                        out,
                    );
                }
                return;
            }
        }
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = self.nearest(points.row(lo + r));
        }
    }
}

/// Writes `out[i] = sq_dist(points.row(i), c)` for every row.
///
/// The SIMD path pins one *point per lane*: each lane performs exactly
/// the scalar kernel's subtract → multiply → add sequence over
/// dimensions, so every distance is bit-identical to [`sq_dist`] —
/// the parallelism only breaks the cross-point latency chain. That
/// makes this safe for the RNG-facing k-means++ seeding pass, where
/// the distances feed weighted draws and any rounding change would
/// cascade into different seeds.
pub fn sq_dists_to(points: MatrixView<'_>, c: &[f64], out: &mut [f64]) {
    let n = points.rows();
    debug_assert_eq!(points.cols(), c.len());
    debug_assert_eq!(out.len(), n);
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    {
        let dim = points.cols();
        let data = points.as_slice();
        if *HAS_AVX512F && dim > 0 {
            while i + 8 <= n {
                // SAFETY: the feature check guarantees AVX-512F;
                // `i + 8 <= n` bounds the eight row reads.
                unsafe {
                    avx512::sq_dist_x8(data, i * dim, dim, c, &mut out[i..i + 8]);
                }
                i += 8;
            }
        }
        if *HAS_AVX2_FMA {
            while i + 4 <= n {
                // SAFETY: the feature check guarantees AVX2; `i + 4 <=
                // n` bounds the four row reads.
                unsafe {
                    avx2::sq_dist_x4(data, i * dim, dim, c, &mut out[i..i + 4]);
                }
                i += 4;
            }
        }
    }
    for (r, o) in out.iter_mut().enumerate().skip(i) {
        *o = sq_dist(points.row(r), c);
    }
}

/// Writes `out[i] = sq_dist(points.row(i), centroids.row(assignments[i]))`
/// for every row — the k-means inertia/reseed distance pass.
///
/// Like [`sq_dists_to`], the SIMD path pins one point per lane running
/// the scalar subtract → multiply → add sequence in dimension order,
/// so every distance is bit-identical to the scalar calls; only the
/// cross-point latency chain is broken. Callers that need a pinned
/// reduction order sum the buffer sequentially afterwards.
///
/// # Panics
///
/// Panics (or writes garbage distances in release builds via the
/// scalar row read) if an assignment is out of range; callers pass
/// assignments produced by [`CentroidBlock::assign_into`].
pub fn sq_dists_assigned(
    points: MatrixView<'_>,
    centroids: &DenseMatrix,
    assignments: &[usize],
    out: &mut [f64],
) {
    let n = points.rows();
    debug_assert_eq!(assignments.len(), n);
    debug_assert_eq!(out.len(), n);
    debug_assert_eq!(points.cols(), centroids.cols());
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    if *HAS_AVX512F && points.cols() > 0 {
        let dim = points.cols();
        let data = points.as_slice();
        let cents = centroids.as_slice();
        while i + 8 <= n {
            for &a in &assignments[i..i + 8] {
                assert!(a < centroids.rows(), "assignment out of range");
            }
            // SAFETY: the feature check guarantees AVX-512F; `i + 8 <=
            // n` bounds the eight row reads and the assertion above
            // bounds the centroid gathers.
            unsafe {
                avx512::sq_dist_x8_assigned(
                    data,
                    i * dim,
                    dim,
                    cents,
                    &assignments[i..i + 8],
                    &mut out[i..i + 8],
                );
            }
            i += 8;
        }
    }
    for r in i..n {
        out[r] = sq_dist(points.row(r), centroids.row(assignments[r]));
    }
}

/// Adds `src` element-wise into `dst` (`dst[j] += src[j]`).
///
/// Each dimension is an independent accumulator, so the SIMD path
/// changes no rounding: results are bit-identical to the scalar loop
/// regardless of dispatch. This is the k-means update-step primitive
/// (summing assigned points into a centroid row).
pub fn accumulate(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if *HAS_AVX2_FMA {
        // SAFETY: the feature check guarantees AVX2.
        unsafe { avx2::accumulate_avx2(dst, src) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Scatter-accumulates every row of `points` into the `sums` row its
/// assignment names, bumping the matching count — the k-means update
/// step as one fused pass.
///
/// Rows are visited in input order and each dimension is an
/// independent accumulator (the same order as per-row [`accumulate`]
/// calls), so results are bit-identical to the scalar reference loop
/// regardless of dispatch. Fusing the pass matters because a
/// `#[target_feature]` kernel cannot inline into a plain caller: one
/// region per pass instead of one per point removes the per-call
/// dispatch overhead.
///
/// # Panics
///
/// Panics if an assignment is out of range for `sums`/`counts`, or if
/// shapes disagree.
pub fn scatter_add(
    points: MatrixView<'_>,
    assignments: &[usize],
    sums: &mut DenseMatrix,
    counts: &mut [usize],
) {
    assert_eq!(points.rows(), assignments.len());
    assert_eq!(points.cols(), sums.cols());
    assert_eq!(sums.rows(), counts.len());
    #[cfg(target_arch = "x86_64")]
    {
        if *HAS_AVX512F {
            // SAFETY: the feature check guarantees AVX-512F; shapes
            // are asserted above and assignments are bounds-checked
            // inside.
            unsafe {
                avx512::scatter_add_512(
                    points.as_slice(),
                    points.cols(),
                    assignments,
                    sums.as_mut_slice(),
                    counts,
                );
            }
            return;
        }
        if *HAS_AVX2_FMA {
            // SAFETY: the feature check guarantees AVX2; shapes are
            // asserted above and assignments are bounds-checked inside.
            unsafe {
                avx2::scatter_add_avx2(
                    points.as_slice(),
                    points.cols(),
                    assignments,
                    sums.as_mut_slice(),
                    counts,
                );
            }
            return;
        }
    }
    for (i, &a) in assignments.iter().enumerate() {
        counts[a] += 1;
        for (d, &s) in sums.row_mut(a).iter_mut().zip(points.row(i)) {
            *d += s;
        }
    }
}

/// Portable panel scorer: eight vertical accumulators, same reduction
/// shape as the AVX2 path.
fn panel_scores_portable(x: &[f64], panel: &[f64], cnorms: &[f64], scores: &mut [f64; PANEL]) {
    let mut acc = [0.0f64; PANEL];
    for (j, &xv) in x.iter().enumerate() {
        for l in 0..PANEL {
            acc[l] += xv * panel[j * PANEL + l];
        }
    }
    for l in 0..PANEL {
        scores[l] = cnorms[l] - 2.0 * acc[l];
    }
}

/// Portable eight-accumulator dot kernel (the non-SIMD fallback).
fn dot_portable(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let chunks = a.len() / LANES * LANES;
    let (ah, at) = a.split_at(chunks);
    let (bh, bt) = b.split_at(chunks);
    for (ca, cb) in ah.chunks_exact(LANES).zip(bh.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0;
    for (x, y) in at.iter().zip(bt) {
        tail += x * y;
    }
    (acc[0] + acc[4]) + (acc[1] + acc[5]) + (acc[2] + acc[6]) + (acc[3] + acc[7]) + tail
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA dot kernel. The baseline x86-64 target only guarantees
    //! SSE2, so LLVM cannot emit 256-bit FMAs for the portable loop;
    //! this compiles the same four-accumulator reduction with the
    //! wider instructions and is selected at runtime.

    /// Fused-multiply-add dot over four 256-bit accumulators.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_fma(a: &[f64], b: &[f64]) -> f64 {
        use std::arch::x86_64::*;
        let n = a.len().min(b.len());
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(pa.add(i + 4)),
                _mm256_loadu_pd(pb.add(i + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(pa.add(i + 8)),
                _mm256_loadu_pd(pb.add(i + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(pa.add(i + 12)),
                _mm256_loadu_pd(pb.add(i + 12)),
                acc3,
            );
            i += 16;
        }
        while i + 4 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)), acc0);
            i += 4;
        }
        let acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
        let half = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
        let mut sum = _mm_cvtsd_f64(_mm_add_sd(half, _mm_unpackhi_pd(half, half)));
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        sum
    }

    /// Scores one transposed centroid panel (eight centroids) against
    /// `x`: `scores[l] = cnorms[l] − 2·x·cₗ`. Eight vertical
    /// accumulator registers (two per unrolled dimension phase) keep
    /// every centroid's partial sum in its own SIMD lane with no
    /// horizontal reduction inside the loop, and the four-phase unroll
    /// spaces each accumulator's reuse past the FMA latency.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 and FMA. `panel`
    /// must hold `x.len() * 8` values and `cnorms` at least 8.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn panel_scores_fma(
        x: &[f64],
        panel: &[f64],
        cnorms: &[f64],
        scores: &mut [f64; 8],
    ) {
        use std::arch::x86_64::*;
        let d = x.len();
        let px = x.as_ptr();
        let pp = panel.as_ptr();
        let mut a0 = _mm256_setzero_pd();
        let mut b0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut b1 = _mm256_setzero_pd();
        let mut a2 = _mm256_setzero_pd();
        let mut b2 = _mm256_setzero_pd();
        let mut a3 = _mm256_setzero_pd();
        let mut b3 = _mm256_setzero_pd();
        let mut j = 0;
        while j + 4 <= d {
            let x0 = _mm256_set1_pd(*px.add(j));
            a0 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(pp.add(j * 8)), a0);
            b0 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(pp.add(j * 8 + 4)), b0);
            let x1 = _mm256_set1_pd(*px.add(j + 1));
            a1 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(pp.add((j + 1) * 8)), a1);
            b1 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(pp.add((j + 1) * 8 + 4)), b1);
            let x2 = _mm256_set1_pd(*px.add(j + 2));
            a2 = _mm256_fmadd_pd(x2, _mm256_loadu_pd(pp.add((j + 2) * 8)), a2);
            b2 = _mm256_fmadd_pd(x2, _mm256_loadu_pd(pp.add((j + 2) * 8 + 4)), b2);
            let x3 = _mm256_set1_pd(*px.add(j + 3));
            a3 = _mm256_fmadd_pd(x3, _mm256_loadu_pd(pp.add((j + 3) * 8)), a3);
            b3 = _mm256_fmadd_pd(x3, _mm256_loadu_pd(pp.add((j + 3) * 8 + 4)), b3);
            j += 4;
        }
        while j < d {
            let xv = _mm256_set1_pd(*px.add(j));
            a0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(pp.add(j * 8)), a0);
            b0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(pp.add(j * 8 + 4)), b0);
            j += 1;
        }
        let lo = _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3));
        let hi = _mm256_add_pd(_mm256_add_pd(b0, b1), _mm256_add_pd(b2, b3));
        let two = _mm256_set1_pd(2.0);
        let s_lo = _mm256_fnmadd_pd(lo, two, _mm256_loadu_pd(cnorms.as_ptr()));
        let s_hi = _mm256_fnmadd_pd(hi, two, _mm256_loadu_pd(cnorms.as_ptr().add(4)));
        _mm256_storeu_pd(scores.as_mut_ptr(), s_lo);
        _mm256_storeu_pd(scores.as_mut_ptr().add(4), s_hi);
    }

    /// Two-point variant of [`panel_scores_fma`]: every panel row is
    /// loaded once and fused against both points' broadcasts, trading
    /// the four-phase unroll for a two-phase one to stay inside the
    /// sixteen YMM registers.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 and FMA. `panel`
    /// must hold `x0.len() * 8` values, `cnorms` at least 8, and
    /// `x1.len() == x0.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn panel_scores2_fma(
        x0: &[f64],
        x1: &[f64],
        panel: &[f64],
        cnorms: &[f64],
        s0: &mut [f64; 8],
        s1: &mut [f64; 8],
    ) {
        use std::arch::x86_64::*;
        let d = x0.len();
        let p0 = x0.as_ptr();
        let p1 = x1.as_ptr();
        let pp = panel.as_ptr();
        let mut a_lo0 = _mm256_setzero_pd();
        let mut a_hi0 = _mm256_setzero_pd();
        let mut a_lo1 = _mm256_setzero_pd();
        let mut a_hi1 = _mm256_setzero_pd();
        let mut b_lo0 = _mm256_setzero_pd();
        let mut b_hi0 = _mm256_setzero_pd();
        let mut b_lo1 = _mm256_setzero_pd();
        let mut b_hi1 = _mm256_setzero_pd();
        let mut j = 0;
        while j + 2 <= d {
            let r_lo = _mm256_loadu_pd(pp.add(j * 8));
            let r_hi = _mm256_loadu_pd(pp.add(j * 8 + 4));
            let xa = _mm256_set1_pd(*p0.add(j));
            let xb = _mm256_set1_pd(*p1.add(j));
            a_lo0 = _mm256_fmadd_pd(xa, r_lo, a_lo0);
            a_hi0 = _mm256_fmadd_pd(xa, r_hi, a_hi0);
            b_lo0 = _mm256_fmadd_pd(xb, r_lo, b_lo0);
            b_hi0 = _mm256_fmadd_pd(xb, r_hi, b_hi0);
            let q_lo = _mm256_loadu_pd(pp.add((j + 1) * 8));
            let q_hi = _mm256_loadu_pd(pp.add((j + 1) * 8 + 4));
            let ya = _mm256_set1_pd(*p0.add(j + 1));
            let yb = _mm256_set1_pd(*p1.add(j + 1));
            a_lo1 = _mm256_fmadd_pd(ya, q_lo, a_lo1);
            a_hi1 = _mm256_fmadd_pd(ya, q_hi, a_hi1);
            b_lo1 = _mm256_fmadd_pd(yb, q_lo, b_lo1);
            b_hi1 = _mm256_fmadd_pd(yb, q_hi, b_hi1);
            j += 2;
        }
        if j < d {
            let r_lo = _mm256_loadu_pd(pp.add(j * 8));
            let r_hi = _mm256_loadu_pd(pp.add(j * 8 + 4));
            let xa = _mm256_set1_pd(*p0.add(j));
            let xb = _mm256_set1_pd(*p1.add(j));
            a_lo0 = _mm256_fmadd_pd(xa, r_lo, a_lo0);
            a_hi0 = _mm256_fmadd_pd(xa, r_hi, a_hi0);
            b_lo0 = _mm256_fmadd_pd(xb, r_lo, b_lo0);
            b_hi0 = _mm256_fmadd_pd(xb, r_hi, b_hi0);
        }
        let two = _mm256_set1_pd(2.0);
        let cn_lo = _mm256_loadu_pd(cnorms.as_ptr());
        let cn_hi = _mm256_loadu_pd(cnorms.as_ptr().add(4));
        _mm256_storeu_pd(
            s0.as_mut_ptr(),
            _mm256_fnmadd_pd(_mm256_add_pd(a_lo0, a_lo1), two, cn_lo),
        );
        _mm256_storeu_pd(
            s0.as_mut_ptr().add(4),
            _mm256_fnmadd_pd(_mm256_add_pd(a_hi0, a_hi1), two, cn_hi),
        );
        _mm256_storeu_pd(
            s1.as_mut_ptr(),
            _mm256_fnmadd_pd(_mm256_add_pd(b_lo0, b_lo1), two, cn_lo),
        );
        _mm256_storeu_pd(
            s1.as_mut_ptr().add(4),
            _mm256_fnmadd_pd(_mm256_add_pd(b_hi0, b_hi1), two, cn_hi),
        );
    }

    /// Assigns a contiguous range of points inside one SIMD region:
    /// the panel scorers inline here (same target features), so the
    /// only per-point work is the score scan.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 and FMA; `points`
    /// must hold at least `(lo + out.len()) * dim` values, `panels`
    /// whole `dim * 8` panels covering `k` centroids, and `cnorms` 8
    /// entries per panel.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn assign_range_fma(
        points: &[f64],
        dim: usize,
        lo: usize,
        panels: &[f64],
        cnorms: &[f64],
        k: usize,
        out: &mut [usize],
    ) {
        let hi = lo + out.len();
        let pstride = dim.max(1) * 8;
        let npanels = panels.len() / pstride;
        let mut s0 = [0.0f64; 8];
        let mut s1 = [0.0f64; 8];
        let mut i = lo;
        while i + 2 <= hi {
            let x0 = points.get_unchecked(i * dim..(i + 1) * dim);
            let x1 = points.get_unchecked((i + 1) * dim..(i + 2) * dim);
            let mut best = (0usize, 0usize);
            let mut bs = (f64::INFINITY, f64::INFINITY);
            for p in 0..npanels {
                let panel = panels.get_unchecked(p * pstride..(p + 1) * pstride);
                let cn = cnorms.get_unchecked(p * 8..p * 8 + 8);
                panel_scores2_fma(x0, x1, panel, cn, &mut s0, &mut s1);
                let live = (k - p * 8).min(8);
                // Branchless select: scores are effectively random, so
                // a compare-and-branch scan would mispredict ~half the
                // time.
                for c in 0..live {
                    let idx = p * 8 + c;
                    let hit0 = s0[c] < bs.0;
                    bs.0 = if hit0 { s0[c] } else { bs.0 };
                    best.0 = if hit0 { idx } else { best.0 };
                    let hit1 = s1[c] < bs.1;
                    bs.1 = if hit1 { s1[c] } else { bs.1 };
                    best.1 = if hit1 { idx } else { best.1 };
                }
            }
            *out.get_unchecked_mut(i - lo) = best.0;
            *out.get_unchecked_mut(i + 1 - lo) = best.1;
            i += 2;
        }
        if i < hi {
            let x = points.get_unchecked(i * dim..(i + 1) * dim);
            let mut best = 0;
            let mut bs = f64::INFINITY;
            for p in 0..npanels {
                let panel = panels.get_unchecked(p * pstride..(p + 1) * pstride);
                let cn = cnorms.get_unchecked(p * 8..p * 8 + 8);
                panel_scores_fma(x, panel, cn, &mut s0);
                let live = (k - p * 8).min(8);
                for (c, &s) in s0.iter().enumerate().take(live) {
                    if s < bs {
                        bs = s;
                        best = p * 8 + c;
                    }
                }
            }
            *out.get_unchecked_mut(i - lo) = best;
        }
    }

    /// Squared distances from four consecutive matrix rows (starting
    /// at flat offset `base`) to `c`, one point per lane. Each lane
    /// runs the scalar subtract → multiply → add sequence, so the four
    /// results are bit-identical to four [`sq_dist`](super::sq_dist)
    /// calls; only the cross-point latency chain is broken.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2, that `data` holds
    /// `base + 4 * dim` values, `c` holds `dim`, and `out` holds 4.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dist_x4(data: &[f64], base: usize, dim: usize, c: &[f64], out: &mut [f64]) {
        use std::arch::x86_64::*;
        let p = data.as_ptr().add(base);
        let mut acc = _mm256_setzero_pd();
        for (j, &cj) in c.iter().enumerate().take(dim) {
            let x = _mm256_set_pd(
                *p.add(3 * dim + j),
                *p.add(2 * dim + j),
                *p.add(dim + j),
                *p.add(j),
            );
            let d = _mm256_sub_pd(x, _mm256_set1_pd(cj));
            acc = _mm256_add_pd(_mm256_mul_pd(d, d), acc);
        }
        _mm256_storeu_pd(out.as_mut_ptr(), acc);
    }

    /// `dst[j] += src[j]` with 256-bit adds. Lane-per-dimension, so
    /// bit-identical to the scalar loop.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 and that the
    /// slices are equal length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_avx2(dst: &mut [f64], src: &[f64]) {
        use std::arch::x86_64::*;
        let n = dst.len().min(src.len());
        let pd = dst.as_mut_ptr();
        let ps = src.as_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let d0 = _mm256_add_pd(_mm256_loadu_pd(pd.add(j)), _mm256_loadu_pd(ps.add(j)));
            let d1 = _mm256_add_pd(
                _mm256_loadu_pd(pd.add(j + 4)),
                _mm256_loadu_pd(ps.add(j + 4)),
            );
            _mm256_storeu_pd(pd.add(j), d0);
            _mm256_storeu_pd(pd.add(j + 4), d1);
            j += 8;
        }
        while j < n {
            *pd.add(j) += *ps.add(j);
            j += 1;
        }
    }

    /// Fused k-means update pass: for each row `i`, `counts[a] += 1`
    /// and `sums[a] += points[i]` where `a = assignments[i]`.
    /// Lane-per-dimension adds in input order, so bit-identical to
    /// the scalar loop.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2 and that `points`
    /// holds `assignments.len() * dim` values; assignment values are
    /// bounds-checked against `sums`/`counts` by safe indexing.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scatter_add_avx2(
        points: &[f64],
        dim: usize,
        assignments: &[usize],
        sums: &mut [f64],
        counts: &mut [usize],
    ) {
        use std::arch::x86_64::*;
        for (i, &a) in assignments.iter().enumerate() {
            counts[a] += 1;
            let dst = &mut sums[a * dim..(a + 1) * dim];
            let pd = dst.as_mut_ptr();
            let ps = points.as_ptr().add(i * dim);
            let mut j = 0;
            while j + 8 <= dim {
                let d0 = _mm256_add_pd(_mm256_loadu_pd(pd.add(j)), _mm256_loadu_pd(ps.add(j)));
                let d1 = _mm256_add_pd(
                    _mm256_loadu_pd(pd.add(j + 4)),
                    _mm256_loadu_pd(ps.add(j + 4)),
                );
                _mm256_storeu_pd(pd.add(j), d0);
                _mm256_storeu_pd(pd.add(j + 4), d1);
                j += 8;
            }
            while j + 4 <= dim {
                let d0 = _mm256_add_pd(_mm256_loadu_pd(pd.add(j)), _mm256_loadu_pd(ps.add(j)));
                _mm256_storeu_pd(pd.add(j), d0);
                j += 4;
            }
            while j < dim {
                *pd.add(j) += *ps.add(j);
                j += 1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512F assignment kernel. A transposed centroid panel row is
    //! exactly one 512-bit register (eight `f64` lanes, one per
    //! centroid), so scoring a point against a whole panel costs one
    //! broadcast-FMA per dimension step instead of the AVX2 path's
    //! two-register pair.

    /// Assigns a contiguous range of points, four per group, inside
    /// one AVX-512 region: each group shares every panel row load
    /// across four points, and each point keeps two phase accumulators
    /// so the FMA chains stay off the critical path. Scores are the
    /// same `‖c‖² − 2·x·c` expansion as the AVX2 path, and ties keep
    /// the lowest centroid index via the same strict `<` scan.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX-512F; `points` must
    /// hold at least `(lo + out.len()) * dim` values, `panels` whole
    /// `dim * 8` panels covering `k` centroids, and `cnorms` 8 entries
    /// per panel.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn assign_range_512(
        points: &[f64],
        dim: usize,
        lo: usize,
        panels: &[f64],
        cnorms: &[f64],
        k: usize,
        out: &mut [usize],
    ) {
        use std::arch::x86_64::*;
        let hi = lo + out.len();
        let pstride = dim.max(1) * 8;
        let npanels = panels.len() / pstride;
        let two = _mm512_set1_pd(2.0);
        let mut s = [[0.0f64; 8]; 4];
        let mut i = lo;
        while i + 4 <= hi {
            let x0 = points.as_ptr().add(i * dim);
            let x1 = points.as_ptr().add((i + 1) * dim);
            let x2 = points.as_ptr().add((i + 2) * dim);
            let x3 = points.as_ptr().add((i + 3) * dim);
            let mut best = [0usize; 4];
            let mut bs = [f64::INFINITY; 4];
            for p in 0..npanels {
                let pp = panels.as_ptr().add(p * pstride);
                let mut a0 = _mm512_setzero_pd();
                let mut a1 = _mm512_setzero_pd();
                let mut a2 = _mm512_setzero_pd();
                let mut a3 = _mm512_setzero_pd();
                let mut b0 = _mm512_setzero_pd();
                let mut b1 = _mm512_setzero_pd();
                let mut b2 = _mm512_setzero_pd();
                let mut b3 = _mm512_setzero_pd();
                let mut j = 0;
                while j + 2 <= dim {
                    let r0 = _mm512_loadu_pd(pp.add(j * 8));
                    let r1 = _mm512_loadu_pd(pp.add((j + 1) * 8));
                    a0 = _mm512_fmadd_pd(_mm512_set1_pd(*x0.add(j)), r0, a0);
                    a1 = _mm512_fmadd_pd(_mm512_set1_pd(*x1.add(j)), r0, a1);
                    a2 = _mm512_fmadd_pd(_mm512_set1_pd(*x2.add(j)), r0, a2);
                    a3 = _mm512_fmadd_pd(_mm512_set1_pd(*x3.add(j)), r0, a3);
                    b0 = _mm512_fmadd_pd(_mm512_set1_pd(*x0.add(j + 1)), r1, b0);
                    b1 = _mm512_fmadd_pd(_mm512_set1_pd(*x1.add(j + 1)), r1, b1);
                    b2 = _mm512_fmadd_pd(_mm512_set1_pd(*x2.add(j + 1)), r1, b2);
                    b3 = _mm512_fmadd_pd(_mm512_set1_pd(*x3.add(j + 1)), r1, b3);
                    j += 2;
                }
                if j < dim {
                    let r0 = _mm512_loadu_pd(pp.add(j * 8));
                    a0 = _mm512_fmadd_pd(_mm512_set1_pd(*x0.add(j)), r0, a0);
                    a1 = _mm512_fmadd_pd(_mm512_set1_pd(*x1.add(j)), r0, a1);
                    a2 = _mm512_fmadd_pd(_mm512_set1_pd(*x2.add(j)), r0, a2);
                    a3 = _mm512_fmadd_pd(_mm512_set1_pd(*x3.add(j)), r0, a3);
                }
                let cn = _mm512_loadu_pd(cnorms.as_ptr().add(p * 8));
                _mm512_storeu_pd(
                    s[0].as_mut_ptr(),
                    _mm512_fnmadd_pd(_mm512_add_pd(a0, b0), two, cn),
                );
                _mm512_storeu_pd(
                    s[1].as_mut_ptr(),
                    _mm512_fnmadd_pd(_mm512_add_pd(a1, b1), two, cn),
                );
                _mm512_storeu_pd(
                    s[2].as_mut_ptr(),
                    _mm512_fnmadd_pd(_mm512_add_pd(a2, b2), two, cn),
                );
                _mm512_storeu_pd(
                    s[3].as_mut_ptr(),
                    _mm512_fnmadd_pd(_mm512_add_pd(a3, b3), two, cn),
                );
                let live = (k - p * 8).min(8);
                // Branchless select, as in the AVX2 scan: scores are
                // effectively random, so branches would mispredict. The
                // index `c` addresses the same lane of all four score
                // rows, so the range loop is the honest shape here.
                #[allow(clippy::needless_range_loop)]
                for c in 0..live {
                    let idx = p * 8 + c;
                    for t in 0..4 {
                        let hit = s[t][c] < bs[t];
                        bs[t] = if hit { s[t][c] } else { bs[t] };
                        best[t] = if hit { idx } else { best[t] };
                    }
                }
            }
            for (t, &b) in best.iter().enumerate() {
                *out.get_unchecked_mut(i + t - lo) = b;
            }
            i += 4;
        }
        while i < hi {
            let x0 = points.as_ptr().add(i * dim);
            let mut best = 0usize;
            let mut bs = f64::INFINITY;
            for p in 0..npanels {
                let pp = panels.as_ptr().add(p * pstride);
                let mut a0 = _mm512_setzero_pd();
                let mut b0 = _mm512_setzero_pd();
                let mut j = 0;
                while j + 2 <= dim {
                    let r0 = _mm512_loadu_pd(pp.add(j * 8));
                    let r1 = _mm512_loadu_pd(pp.add((j + 1) * 8));
                    a0 = _mm512_fmadd_pd(_mm512_set1_pd(*x0.add(j)), r0, a0);
                    b0 = _mm512_fmadd_pd(_mm512_set1_pd(*x0.add(j + 1)), r1, b0);
                    j += 2;
                }
                if j < dim {
                    let r0 = _mm512_loadu_pd(pp.add(j * 8));
                    a0 = _mm512_fmadd_pd(_mm512_set1_pd(*x0.add(j)), r0, a0);
                }
                let cn = _mm512_loadu_pd(cnorms.as_ptr().add(p * 8));
                _mm512_storeu_pd(
                    s[0].as_mut_ptr(),
                    _mm512_fnmadd_pd(_mm512_add_pd(a0, b0), two, cn),
                );
                let live = (k - p * 8).min(8);
                for (c, &sc) in s[0].iter().enumerate().take(live) {
                    if sc < bs {
                        bs = sc;
                        best = p * 8 + c;
                    }
                }
            }
            *out.get_unchecked_mut(i - lo) = best;
            i += 1;
        }
    }

    /// Squared distances from eight consecutive matrix rows (starting
    /// at flat offset `base`) to `c`, one point per 512-bit lane. Like
    /// [`sq_dist_x4`](super::avx2::sq_dist_x4), each lane runs the
    /// scalar subtract → multiply → add sequence in dimension order,
    /// so the results are bit-identical to eight
    /// [`sq_dist`](super::sq_dist) calls; the strided row reads go
    /// through one gather per dimension.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX-512F, that `data`
    /// holds `base + 8 * dim` values, `c` holds `dim`, and `out` holds
    /// 8.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sq_dist_x8(data: &[f64], base: usize, dim: usize, c: &[f64], out: &mut [f64]) {
        use std::arch::x86_64::*;
        let p = data.as_ptr().add(base);
        let d = dim as i64;
        let idx = _mm512_setr_epi64(0, d, 2 * d, 3 * d, 4 * d, 5 * d, 6 * d, 7 * d);
        let mut acc = _mm512_setzero_pd();
        for (j, &cj) in c.iter().enumerate().take(dim) {
            let x = _mm512_i64gather_pd::<8>(idx, p.add(j));
            let df = _mm512_sub_pd(x, _mm512_set1_pd(cj));
            acc = _mm512_add_pd(_mm512_mul_pd(df, df), acc);
        }
        _mm512_storeu_pd(out.as_mut_ptr(), acc);
    }

    /// Like [`sq_dist_x8`], but each lane's reference row is the
    /// centroid its assignment names: one gather walks eight point
    /// rows, a second walks the eight assigned centroid rows. Per-lane
    /// operation order is unchanged, so results stay bit-identical to
    /// the scalar calls.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX-512F, that `data`
    /// holds `base + 8 * dim` values, `cents` holds a full `dim` row
    /// for every index in `aidx`, and `aidx`/`out` hold 8.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sq_dist_x8_assigned(
        data: &[f64],
        base: usize,
        dim: usize,
        cents: &[f64],
        aidx: &[usize],
        out: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        let p = data.as_ptr().add(base);
        let pc = cents.as_ptr();
        let d = dim as i64;
        let pidx = _mm512_setr_epi64(0, d, 2 * d, 3 * d, 4 * d, 5 * d, 6 * d, 7 * d);
        let cidx = _mm512_setr_epi64(
            (aidx[0] * dim) as i64,
            (aidx[1] * dim) as i64,
            (aidx[2] * dim) as i64,
            (aidx[3] * dim) as i64,
            (aidx[4] * dim) as i64,
            (aidx[5] * dim) as i64,
            (aidx[6] * dim) as i64,
            (aidx[7] * dim) as i64,
        );
        let mut acc = _mm512_setzero_pd();
        for j in 0..dim {
            let x = _mm512_i64gather_pd::<8>(pidx, p.add(j));
            let cv = _mm512_i64gather_pd::<8>(cidx, pc.add(j));
            let df = _mm512_sub_pd(x, cv);
            acc = _mm512_add_pd(_mm512_mul_pd(df, df), acc);
        }
        _mm512_storeu_pd(out.as_mut_ptr(), acc);
    }

    /// 512-bit variant of
    /// [`scatter_add_avx2`](super::avx2::scatter_add_avx2): the fused
    /// k-means update pass with eight-wide adds. Lane-per-dimension in
    /// input order, so bit-identical to the scalar loop.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX-512F and that
    /// `points` holds `assignments.len() * dim` values; assignment
    /// values are bounds-checked against `sums`/`counts` by safe
    /// indexing.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn scatter_add_512(
        points: &[f64],
        dim: usize,
        assignments: &[usize],
        sums: &mut [f64],
        counts: &mut [usize],
    ) {
        use std::arch::x86_64::*;
        for (i, &a) in assignments.iter().enumerate() {
            counts[a] += 1;
            let dst = &mut sums[a * dim..(a + 1) * dim];
            let pd = dst.as_mut_ptr();
            let ps = points.as_ptr().add(i * dim);
            let mut j = 0;
            while j + 16 <= dim {
                let d0 = _mm512_add_pd(_mm512_loadu_pd(pd.add(j)), _mm512_loadu_pd(ps.add(j)));
                let d1 = _mm512_add_pd(
                    _mm512_loadu_pd(pd.add(j + 8)),
                    _mm512_loadu_pd(ps.add(j + 8)),
                );
                _mm512_storeu_pd(pd.add(j), d0);
                _mm512_storeu_pd(pd.add(j + 8), d1);
                j += 16;
            }
            while j + 8 <= dim {
                let d0 = _mm512_add_pd(_mm512_loadu_pd(pd.add(j)), _mm512_loadu_pd(ps.add(j)));
                _mm512_storeu_pd(pd.add(j), d0);
                j += 8;
            }
            while j + 4 <= dim {
                let d0 = _mm256_add_pd(_mm256_loadu_pd(pd.add(j)), _mm256_loadu_pd(ps.add(j)));
                _mm256_storeu_pd(pd.add(j), d0);
                j += 4;
            }
            while j < dim {
                *pd.add(j) += *ps.add(j);
                j += 1;
            }
        }
    }
}

/// Squared Euclidean norm via the unrolled [`dot`] kernel.
pub fn sq_norm(a: &[f64]) -> f64 {
    dot(a, a)
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
    fn dot_matches_sequential_sum() {
        // Lengths straddling the unroll width, including the tail path.
        for len in [0usize, 1, 7, 8, 9, 16, 19, 64, 100] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 + 0.5).cos()).collect();
            let seq: f64 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            let unrolled = dot(&a, &b);
            assert!(
                (seq - unrolled).abs() <= 1e-12 * (1.0 + seq.abs()),
                "len {len}: {seq} vs {unrolled}"
            );
            let n: f64 = a.iter().map(|&x| x * x).sum();
            assert!((sq_norm(&a) - n).abs() <= 1e-12 * (1.0 + n));
        }
    }

    #[test]
    fn sq_dist_is_the_reference_form() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 0.0, 3.0];
        assert_eq!(sq_dist(&a, &b), 9.0 + 4.0);
        assert_eq!(sq_dist(&a, &a), 0.0);
    }

    #[test]
    fn norm_expansion_identity() {
        // ‖x − c‖² == ‖x‖² − 2 x·c + ‖c‖² up to rounding — the identity
        // behind the k-means assignment kernel.
        let x: Vec<f64> = (0..33).map(|i| (i as f64 * 0.7).sin() * 5.0).collect();
        let c: Vec<f64> = (0..33).map(|i| (i as f64 * 1.3).cos() * 5.0).collect();
        let direct = sq_dist(&x, &c);
        let expanded = sq_norm(&x) - 2.0 * dot(&x, &c) + sq_norm(&c);
        assert!((direct - expanded).abs() < 1e-9 * (1.0 + direct));
    }
}
