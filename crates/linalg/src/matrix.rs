//! A minimal dense row-major `f32` matrix with the handful of operations
//! the PDX pipeline needs, and a borrowed [`MatrixView`] of the same
//! shape so a caller's row buffer (a whole collection, a packed query
//! batch) can be an operand without being copied. The two products —
//! `A · x` and the multi-threaded `A · Bᵀ` that rotates whole vector
//! collections (BSA preprocessing) — both run on the one
//! dot-product kernel of [`crate::kernel`].

use crate::kernel::{dot_rows, X_BLOCK};
use pdx_core::kernels::KernelPolicy;

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match dimensions");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// This matrix as a borrowed [`MatrixView`].
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }

    /// `y = self · x` for a column vector `x`; see [`MatrixView::matvec`].
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        self.view().matvec(x)
    }

    /// `C = self · otherᵀ`; see [`MatrixView::mul_transposed`].
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn mul_transposed(&self, other: &Matrix, threads: usize) -> Matrix {
        self.view().mul_transposed(other.view(), threads)
    }
}

/// A borrowed dense row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatrixView<'a> {
    /// Views an existing row-major buffer as `rows × cols`.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match dimensions");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Rows `start..start + n` as a view of their own.
    fn row_range(&self, start: usize, n: usize) -> MatrixView<'a> {
        MatrixView {
            rows: n,
            cols: self.cols,
            data: &self.data[start * self.cols..(start + n) * self.cols],
        }
    }

    /// `y = self · x` for a column vector `x`.
    ///
    /// This is the per-query PCA rotation of BSA (`D × D` matrix,
    /// every query): one [`dot_rows`] call with a single `x` row, on the
    /// kernel the `Auto` policy resolves to. `y[r]` has the same bits
    /// as element `r` of this vector's row in
    /// [`MatrixView::mul_transposed`].
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        let mut y = vec![0.0f32; self.rows];
        dot_rows(
            *self,
            MatrixView::new(1, self.cols, x),
            &mut y,
            KernelPolicy::Auto,
        );
        y
    }

    /// `C = self · otherᵀ`, i.e. `C[i][j] = dot(self.row(i), other.row(j))`.
    ///
    /// Both operands are row-major — the layout used when rotating a
    /// collection (`rows` = vectors) by a transform matrix stored
    /// row-per-output-dimension. Work runs on the shared execution pool
    /// ([`pdx_core::exec::ThreadPool`]) in dynamically scheduled bands
    /// of `self`'s rows, each band one [`dot_rows`] call (which tiles it
    /// for registers and cache); `threads = 0` resolves the default
    /// width (`PDX_THREADS` env override, then hardware parallelism).
    /// Every element is accumulated in the kernel's canonical order, so
    /// the result does not depend on the banding or the thread count.
    /// An empty result (`self.rows() == 0` or `other.rows() == 0`)
    /// returns immediately without touching the pool.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn mul_transposed(&self, other: MatrixView<'_>, threads: usize) -> Matrix {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        let m = self.rows;
        let n = other.rows;
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 {
            return out; // degenerate: nothing to compute, no threads spawned
        }
        let pool = pdx_core::exec::ThreadPool::new(threads);
        // ~4 bands per worker to steal from, each a whole number of the
        // kernel's cache blocks so no block is cut short at a band edge
        // (and a product of a few rows stays one chunk).
        let band_rows = m.div_ceil(pool.threads() * 4).next_multiple_of(X_BLOCK);
        pool.for_each_chunk_mut(&mut out.data, band_rows * n, |start, chunk| {
            let band = self.row_range(start / n, chunk.len() / n);
            dot_rows(other, band, chunk, KernelPolicy::Auto);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mul_transposed(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let dot: f32 = a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum();
                out.set(i, j, dot);
            }
        }
        out
    }

    #[test]
    fn identity_is_identity() {
        let i3 = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i3.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn mul_transposed_matches_naive_single_thread() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, -1.0]);
        let got = a.mul_transposed(&b, 1);
        assert_eq!(got, naive_mul_transposed(&a, &b));
    }

    #[test]
    fn mul_transposed_matches_naive_multi_thread() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::from_vec(37, 19, (0..37 * 19).map(|_| rng.random::<f32>()).collect());
        let b = Matrix::from_vec(23, 19, (0..23 * 19).map(|_| rng.random::<f32>()).collect());
        let got = a.mul_transposed(&b, 8);
        let want = naive_mul_transposed(&a, &b);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn mul_transposed_identity_is_noop() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let i = Matrix::identity(3);
        assert_eq!(a.mul_transposed(&i, 2), a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mul_transposed_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let _ = a.mul_transposed(&b, 1);
    }

    #[test]
    fn mul_transposed_empty_operands_are_degenerate_noops() {
        // No rows on either side must produce the empty/zero result
        // without spawning zero-work threads, at any requested width.
        for threads in [0usize, 1, 8] {
            let empty = Matrix::zeros(0, 5);
            let b = Matrix::zeros(3, 5);
            let c = empty.mul_transposed(&b, threads);
            assert_eq!((c.rows(), c.cols()), (0, 3));
            assert!(c.as_slice().is_empty());

            let a = Matrix::zeros(4, 5);
            let no_rows = Matrix::zeros(0, 5);
            let c = a.mul_transposed(&no_rows, threads);
            assert_eq!((c.rows(), c.cols()), (4, 0));
            assert!(c.as_slice().is_empty());
        }
    }

    #[test]
    fn mul_transposed_is_thread_count_independent() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::from_vec(53, 17, (0..53 * 17).map(|_| rng.random::<f32>()).collect());
        let b = Matrix::from_vec(29, 17, (0..29 * 17).map(|_| rng.random::<f32>()).collect());
        let want = a.mul_transposed(&b, 1);
        for threads in [2usize, 4, 16] {
            assert_eq!(a.mul_transposed(&b, threads), want, "threads = {threads}");
        }
    }
}
