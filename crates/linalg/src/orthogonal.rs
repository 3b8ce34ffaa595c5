//! Random orthogonal matrices via Householder QR.
//!
//! ADSampling (Gao & Long, SIGMOD 2023) preprocesses the collection with a
//! random rotation so that any dimension prefix of a rotated vector is an
//! unbiased random sample of the vector's total energy. The standard
//! construction is the Q factor of a QR decomposition of an i.i.d.
//! Gaussian matrix, with the sign convention fixed so Q is Haar-distributed.

use crate::{Gaussian, Matrix, MatrixView};
use rand::Rng;

/// Draws a Haar-distributed random `n × n` orthogonal matrix.
///
/// Runs Householder QR in `f64` on an i.i.d. standard-normal matrix and
/// returns `Q` (rounded to `f32`), with each reflector's sign chosen from
/// the diagonal of `R` so the distribution is uniform over the orthogonal
/// group rather than biased by the QR sign convention.
pub fn random_orthogonal<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Matrix {
    let mut g = Gaussian::new();
    let a: Vec<f64> = (0..n * n).map(|_| g.sample(rng)).collect();
    let (q, r_diag_signs) = householder_q(a, n);
    // Scale column j of Q by sign(R[j][j]) to de-bias the decomposition.
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            out.set(i, j, (q[i * n + j] * r_diag_signs[j]) as f32);
        }
    }
    out
}

/// Householder QR of a square column-count `n` matrix (row-major, `f64`);
/// returns the dense `Q` and the signs of `diag(R)`.
fn householder_q(mut a: Vec<f64>, n: usize) -> (Vec<f64>, Vec<f64>) {
    // Accumulate the reflectors into Q = H_0 · H_1 · … · H_{n-2} applied
    // to the identity. v vectors are stored per step and applied to an
    // explicit Q at the end (backward accumulation keeps it O(n^3)).
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut diag_signs = vec![1.0f64; n];
    for k in 0..n {
        // Compute the Householder vector for column k below the diagonal.
        let mut norm2 = 0.0;
        for i in k..n {
            let x = a[i * n + k];
            norm2 += x * x;
        }
        let norm = norm2.sqrt();
        let x0 = a[k * n + k];
        if norm == 0.0 {
            vs.push(Vec::new());
            diag_signs[k] = 1.0;
            continue;
        }
        let alpha = if x0 >= 0.0 { -norm } else { norm };
        let mut v = vec![0.0f64; n - k];
        v[0] = x0 - alpha;
        for i in k + 1..n {
            v[i - k] = a[i * n + k];
        }
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            vs.push(Vec::new());
            diag_signs[k] = if alpha >= 0.0 { 1.0 } else { -1.0 };
            continue;
        }
        // Apply H = I - 2 v vᵀ / (vᵀv) to the trailing submatrix of A.
        reflect(&mut a, n, k, k, &v, vnorm2);
        diag_signs[k] = if a[k * n + k] >= 0.0 { 1.0 } else { -1.0 };
        vs.push(v);
    }
    // Q starts as identity; apply reflectors in reverse order.
    let mut q = vec![0.0f64; n * n];
    for i in 0..n {
        q[i * n + i] = 1.0;
    }
    for k in (0..n).rev() {
        let v = &vs[k];
        if v.is_empty() {
            continue;
        }
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        reflect(&mut q, n, k, 0, v, vnorm2);
    }
    (q, diag_signs)
}

/// Applies the reflector `H = I − 2 v vᵀ / (vᵀv)` (`v` spanning rows
/// `k..n`) to columns `j0..n` of the row-major `n × n` matrix `m`.
///
/// Both passes sweep rows: the first accumulates every column's
/// `dot[j] = Σ_i v[i] · m[i][j]` at once, the second subtracts
/// `scale[j] · v[i]`. Each `dot[j]` still sums over `i` in ascending
/// order, so the result has the bits of the column-at-a-time
/// formulation, without its `n`-element stride through `m`.
fn reflect(m: &mut [f64], n: usize, k: usize, j0: usize, v: &[f64], vnorm2: f64) {
    let mut scale = vec![0.0f64; n - j0];
    for i in k..n {
        let vi = v[i - k];
        for (dot, x) in scale.iter_mut().zip(&m[i * n + j0..(i + 1) * n]) {
            *dot += vi * x;
        }
    }
    for dot in &mut scale {
        *dot = 2.0 * *dot / vnorm2;
    }
    for i in k..n {
        let vi = v[i - k];
        for (x, s) in m[i * n + j0..(i + 1) * n].iter_mut().zip(&scale) {
            *x -= s * vi;
        }
    }
}

/// Applies the transform `out_row = m · in_row` to every row of a
/// collection stored row-major (`n_rows × dim`), multi-threaded.
///
/// This is the collection-rotation entry point used by ADSampling/BSA
/// preprocessing: `m` holds one output dimension per **row**, so the
/// product is exactly [`MatrixView::mul_transposed`] with `m` as the
/// right-hand side. `rows` borrows the caller's buffer, and row `r` of
/// the result has the bits of `m.matvec(rows.row(r))`.
pub fn transform_rows(rows: MatrixView<'_>, m: &Matrix, threads: usize) -> Matrix {
    rows.mul_transposed(m.view(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_orthogonal(q: &Matrix, tol: f32) {
        let n = q.rows();
        let qtq = q.transposed().mul_transposed(&q.transposed(), 1);
        for i in 0..n {
            for j in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (qtq.get(i, j) - want).abs() < tol,
                    "QᵀQ[{i}][{j}] = {} (want {want})",
                    qtq.get(i, j)
                );
            }
        }
    }

    #[test]
    fn q_is_orthogonal_small() {
        let mut rng = StdRng::seed_from_u64(42);
        let q = random_orthogonal(8, &mut rng);
        assert_orthogonal(&q, 1e-4);
    }

    #[test]
    fn q_is_orthogonal_medium() {
        let mut rng = StdRng::seed_from_u64(9);
        let q = random_orthogonal(96, &mut rng);
        assert_orthogonal(&q, 1e-3);
    }

    #[test]
    fn rotation_preserves_norms_and_distances() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = 32;
        let q = random_orthogonal(d, &mut rng);
        let a: Vec<f32> = (0..d).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..d).map(|i| (i as f32 * 0.3).cos()).collect();
        let ra = q.matvec(&a);
        let rb = q.matvec(&b);
        let dist =
            |x: &[f32], y: &[f32]| -> f32 { x.iter().zip(y).map(|(p, q)| (p - q) * (p - q)).sum() };
        let norm = |x: &[f32]| -> f32 { x.iter().map(|v| v * v).sum() };
        assert!((norm(&a) - norm(&ra)).abs() < 1e-3);
        assert!((dist(&a, &b) - dist(&ra, &rb)).abs() < 1e-3);
    }

    #[test]
    fn different_seeds_give_different_rotations() {
        let q1 = random_orthogonal(8, &mut StdRng::seed_from_u64(1));
        let q2 = random_orthogonal(8, &mut StdRng::seed_from_u64(2));
        assert_ne!(q1.as_slice(), q2.as_slice());
    }

    #[test]
    fn transform_rows_matches_matvec() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = 16;
        let q = random_orthogonal(d, &mut rng);
        let rows = Matrix::from_vec(3, d, (0..3 * d).map(|i| (i as f32 * 0.1).sin()).collect());
        let out = transform_rows(rows.view(), &q, 2);
        for r in 0..3 {
            let want = q.matvec(rows.row(r));
            for (g, w) in out.row(r).iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    /// The column-at-a-time reflector application `reflect` replaced,
    /// kept as its oracle.
    fn householder_q_by_columns(mut a: Vec<f64>, n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut diag_signs = vec![1.0f64; n];
        for k in 0..n {
            let mut norm2 = 0.0;
            for i in k..n {
                let x = a[i * n + k];
                norm2 += x * x;
            }
            let norm = norm2.sqrt();
            let x0 = a[k * n + k];
            if norm == 0.0 {
                vs.push(Vec::new());
                continue;
            }
            let alpha = if x0 >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0f64; n - k];
            v[0] = x0 - alpha;
            for i in k + 1..n {
                v[i - k] = a[i * n + k];
            }
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            if vnorm2 == 0.0 {
                vs.push(Vec::new());
                diag_signs[k] = if alpha >= 0.0 { 1.0 } else { -1.0 };
                continue;
            }
            for j in k..n {
                let mut dot = 0.0;
                for i in k..n {
                    dot += v[i - k] * a[i * n + j];
                }
                let scale = 2.0 * dot / vnorm2;
                for i in k..n {
                    a[i * n + j] -= scale * v[i - k];
                }
            }
            diag_signs[k] = if a[k * n + k] >= 0.0 { 1.0 } else { -1.0 };
            vs.push(v);
        }
        let mut q = vec![0.0f64; n * n];
        for i in 0..n {
            q[i * n + i] = 1.0;
        }
        for k in (0..n).rev() {
            let v = &vs[k];
            if v.is_empty() {
                continue;
            }
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            for j in 0..n {
                let mut dot = 0.0;
                for i in k..n {
                    dot += v[i - k] * q[i * n + j];
                }
                let scale = 2.0 * dot / vnorm2;
                for i in k..n {
                    q[i * n + j] -= scale * v[i - k];
                }
            }
        }
        (q, diag_signs)
    }

    #[test]
    fn row_sweep_qr_is_bit_identical_to_column_sweep() {
        for n in [1usize, 2, 17, 96] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut g = Gaussian::new();
            let a: Vec<f64> = (0..n * n).map(|_| g.sample(&mut rng)).collect();
            let (q, signs) = householder_q(a.clone(), n);
            let (want_q, want_signs) = householder_q_by_columns(a, n);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&q), bits(&want_q), "Q at n = {n}");
            assert_eq!(bits(&signs), bits(&want_signs), "diag(R) signs at n = {n}");
        }
    }
}
