//! Dense linear-algebra substrate for the PDX vector-similarity-search
//! reproduction.
//!
//! The PDX paper (Kuffo, Krippner, Boncz; SIGMOD 2025) builds on two
//! dimension-pruning algorithms that both require a one-time linear
//! transformation of the vector collection:
//!
//! * **ADSampling** rotates the collection with a *random orthogonal
//!   map* so that any prefix of dimensions is a uniform random sample of
//!   the vector's energy ([`rotation`]: sign flips, block Hadamard
//!   transforms and permutations, `O(d log d)` per vector and no matrix).
//! * **BSA** rotates the collection onto its *principal components* so
//!   that the leading dimensions carry most of the energy ([`pca`],
//!   backed by the symmetric eigensolver in [`eigen`]).
//!
//! Neither transformation needs external BLAS/LAPACK: this crate provides
//! a register- and cache-tiled, multi-threaded matrix product on one
//! explicit-SIMD dot-product kernel ([`kernel`]), a
//! Householder-tridiagonalisation + implicit-QL symmetric eigensolver, and
//! ordinary least squares (used by the learned BSA ablation). Decomposition
//! internals run in `f64` for stability; vector data stays `f32`.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod eigen;
pub mod kernel;
pub mod matrix;
pub mod ols;
pub mod pca;
pub mod rotation;

pub use eigen::SymmetricEigen;
pub use matrix::{Matrix, MatrixView};
pub use ols::LinearRegression;
pub use pca::Pca;
pub use rotation::RandomRotation;

/// Deterministic standard-normal sampler (Box–Muller on top of any
/// [`rand::Rng`]), avoiding an extra `rand_distr` dependency.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gaussian {
    spare: Option<f64>,
}

impl Gaussian {
    /// Creates a sampler with an empty spare slot.
    pub fn new() -> Self {
        Self { spare: None }
    }

    /// Draws one standard-normal `f64`.
    pub fn sample<R: rand::Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // Box–Muller: two uniforms in (0, 1] -> two independent normals.
        loop {
            let u1: f64 = rng.random::<f64>();
            let u2: f64 = rng.random::<f64>();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let r = (-2.0 * u1.ln()).sqrt();
            let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
            self.spare = Some(r * sin);
            return r * cos;
        }
    }

    /// Draws one standard-normal `f32`.
    pub fn sample_f32<R: rand::Rng + ?Sized>(&mut self, rng: &mut R) -> f32 {
        self.sample(rng) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments_are_standard_normal() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = Gaussian::new();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn gaussian_uses_spare_sample() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = Gaussian::new();
        let _ = g.sample(&mut rng);
        assert!(g.spare.is_some());
        let _ = g.sample(&mut rng);
        assert!(g.spare.is_none());
    }
}
