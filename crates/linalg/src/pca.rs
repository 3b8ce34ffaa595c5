//! Principal component analysis for the BSA preprocessing step.
//!
//! BSA (Yang et al., 2024) replaces ADSampling's random rotation with a
//! PCA rotation: after projecting onto the eigenvectors of the data
//! covariance (sorted by decreasing eigenvalue), the leading dimensions
//! carry most of the distance mass, so partial distances converge to the
//! full distance after scanning only a few dimensions. Because the
//! projection is orthonormal, L2 distances are preserved exactly.

use crate::{Matrix, MatrixView, SymmetricEigen};

/// A fitted PCA rotation: an orthonormal basis of principal axes plus the
/// per-axis variances (eigenvalues) and the training mean.
#[derive(Debug, Clone)]
pub struct Pca {
    /// `dim × dim` rotation; row `k` is the k-th principal axis.
    pub components: Matrix,
    /// Variance captured by each axis, descending.
    pub explained_variance: Vec<f64>,
    /// Per-dimension mean of the training sample.
    pub mean: Vec<f32>,
}

impl Pca {
    /// Fits a full-rank PCA on `sample` (rows = vectors).
    ///
    /// The covariance is estimated from at most `max_sample_rows` rows
    /// (pass `usize::MAX` to use all); the eigensolve itself is `O(d³)`.
    ///
    /// # Panics
    /// Panics if the sample is empty.
    pub fn fit(sample: MatrixView<'_>, max_sample_rows: usize) -> Self {
        let n = sample.rows().min(max_sample_rows);
        assert!(n > 0, "cannot fit PCA on an empty sample");
        let d = sample.cols();
        // Mean in f64 to avoid cancellation over large samples.
        let mut mean64 = vec![0.0f64; d];
        for r in 0..n {
            for (m, v) in mean64.iter_mut().zip(sample.row(r)) {
                *m += *v as f64;
            }
        }
        for m in &mut mean64 {
            *m /= n as f64;
        }
        // Covariance = CᵀC / (n−1) on the centered sample. C is stored
        // dimension-major so each cov row is a run of long dot products —
        // cache-friendly and parallel over output-row bands.
        let mut centered_t = vec![0.0f64; d * n];
        for r in 0..n {
            for (c, (v, m)) in sample.row(r).iter().zip(&mean64).enumerate() {
                centered_t[c * n + r] = *v as f64 - m;
            }
        }
        let denom = (n.max(2) - 1) as f64;
        let mut cov = vec![0.0f64; d * d];
        // Covariance rows are independent; let the shared pool schedule
        // them in bands (rows near the top of the upper triangle carry
        // more dot products, so dynamic chunks balance better than one
        // fixed band per worker).
        let pool = pdx_core::exec::ThreadPool::from_env();
        let band = d.div_ceil(pool.threads() * 4).max(1);
        let centered_t = &centered_t;
        pool.for_each_chunk_mut(&mut cov, band * d, |start, chunk| {
            for (bi, out_row) in chunk.chunks_exact_mut(d).enumerate() {
                let i = start / d + bi;
                let ci = &centered_t[i * n..(i + 1) * n];
                // Upper triangle only; mirrored below.
                for (j, out) in out_row.iter_mut().enumerate().skip(i) {
                    let cj = &centered_t[j * n..(j + 1) * n];
                    let mut acc = 0.0f64;
                    for (a, b) in ci.iter().zip(cj) {
                        acc += a * b;
                    }
                    *out = acc / denom;
                }
            }
        });
        for i in 0..d {
            for j in i + 1..d {
                cov[j * d + i] = cov[i * d + j];
            }
        }
        let eig = SymmetricEigen::new(&cov, d);
        let mut components = Matrix::zeros(d, d);
        for (k, v) in eig.eigenvectors.iter().enumerate() {
            for (c, x) in v.iter().enumerate() {
                components.set(k, c, *x as f32);
            }
        }
        Self {
            components,
            explained_variance: eig.eigenvalues,
            mean: mean64.iter().map(|m| *m as f32).collect(),
        }
    }

    /// Rotates one vector onto the principal axes (no centering — BSA
    /// rotates queries and data identically so that L2 distances are
    /// preserved; the mean cancels in every pairwise difference).
    pub fn rotate(&self, v: &[f32]) -> Vec<f32> {
        self.components.matvec(v)
    }

    /// Rotates a whole collection (rows = vectors), multi-threaded; row
    /// `r` of the result has the bits of `self.rotate(rows.row(r))`.
    pub fn rotate_rows(&self, rows: MatrixView<'_>, threads: usize) -> Matrix {
        rows.mul_transposed(self.components.view(), threads)
    }

    /// Sum of trailing eigenvalues `Σ_{k ≥ from_axis} λ_k`: the expected
    /// residual energy after scanning the first `from_axis` rotated
    /// dimensions. BSA uses this to size its error quantiles.
    pub fn residual_variance(&self, from_axis: usize) -> f64 {
        self.explained_variance[from_axis.min(self.explained_variance.len())..]
            .iter()
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sample with variance 9 along a known axis and 1 along the rest.
    fn anisotropic_sample(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = crate::Gaussian::new();
        let mut data = vec![0.0f32; n * d];
        for r in 0..n {
            for c in 0..d {
                let scale = if c == 1 { 3.0 } else { 1.0 };
                data[r * d + c] = scale * g.sample_f32(&mut rng);
            }
        }
        let _ = rng.random::<u8>();
        Matrix::from_vec(n, d, data)
    }

    #[test]
    fn first_component_finds_high_variance_axis() {
        let sample = anisotropic_sample(4000, 6, 3);
        let pca = Pca::fit(sample.view(), usize::MAX);
        // Leading eigenvalue ≈ 9, others ≈ 1.
        assert!(
            (pca.explained_variance[0] - 9.0).abs() < 1.0,
            "{:?}",
            pca.explained_variance
        );
        // Leading axis ≈ ±e_1.
        let axis = pca.components.row(0);
        assert!(axis[1].abs() > 0.99, "axis {axis:?}");
    }

    #[test]
    fn explained_variance_is_descending_and_nonnegative() {
        let sample = anisotropic_sample(1000, 8, 4);
        let pca = Pca::fit(sample.view(), usize::MAX);
        for w in pca.explained_variance.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        assert!(pca.explained_variance.iter().all(|&v| v > -1e-9));
    }

    #[test]
    fn rotation_preserves_pairwise_l2() {
        let sample = anisotropic_sample(500, 12, 5);
        let pca = Pca::fit(sample.view(), usize::MAX);
        let a = sample.row(0);
        let b = sample.row(1);
        let (ra, rb) = (pca.rotate(a), pca.rotate(b));
        let d0: f32 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        let d1: f32 = ra.iter().zip(&rb).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((d0 - d1).abs() < d0.max(1.0) * 1e-3, "{d0} vs {d1}");
    }

    #[test]
    fn residual_variance_decreases() {
        let sample = anisotropic_sample(800, 10, 6);
        let pca = Pca::fit(sample.view(), usize::MAX);
        let total = pca.residual_variance(0);
        assert!(total > 0.0);
        let mut prev = total;
        for k in 1..=10 {
            let r = pca.residual_variance(k);
            assert!(r <= prev + 1e-9);
            prev = r;
        }
        assert_eq!(pca.residual_variance(10), 0.0);
    }

    #[test]
    fn rotate_rows_matches_rotate() {
        let sample = anisotropic_sample(64, 7, 8);
        let pca = Pca::fit(sample.view(), usize::MAX);
        let rotated = pca.rotate_rows(sample.view(), 4);
        for r in [0usize, 13, 63] {
            let want = pca.rotate(sample.row(r));
            for (g, w) in rotated.row(r).iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn subsampled_fit_uses_requested_rows() {
        let sample = anisotropic_sample(1000, 4, 9);
        let full = Pca::fit(sample.view(), usize::MAX);
        let sub = Pca::fit(sample.view(), 250);
        // Same dominant axis up to sign, looser tolerance for the subsample.
        let dot: f32 = full
            .components
            .row(0)
            .iter()
            .zip(sub.components.row(0))
            .map(|(a, b)| a * b)
            .sum();
        assert!(dot.abs() > 0.9, "dominant axes disagree: dot = {dot}");
    }
}
