//! Seed-determined structured random rotation in `O(d log d)`.
//!
//! ADSampling (Gao & Long, SIGMOD 2023) rotates the collection so that
//! any dimension prefix of a vector is an unbiased random sample of its
//! energy. That needs no particular orthogonal matrix, only one that
//! mixes: [`RandomRotation`] is three rounds of
//!
//! 1. a random ±1 diagonal,
//! 2. a Walsh–Hadamard transform on each power-of-two block of the binary
//!    decomposition of `dims` (960 = 512 + 256 + 128 + 64), each block
//!    scaled by `1/√len` so it is orthogonal,
//! 3. a fixed random permutation, which carries energy between blocks and
//!    makes a coordinate prefix a sample across all of them
//!
//! — the fast Johnson–Lindenstrauss construction of Ailon & Chazelle
//! (SICOMP 2009): ≈ 23 KB of state and `3 · d · log₂ d` additions
//! per vector at `d = 960`, where a dense Haar matrix takes `d²` values
//! and multiply-adds. The tests below hold its prefix-energy spread on
//! the least-mixed inputs (one-hot, short runs) to the exact Haar value.
//!
//! Every output is a fixed sequence of single `f32` multiplies, adds and
//! subtracts in one butterfly order, in plain loops the compiler
//! vectorises: the same bits on every target, path and thread count.

use pdx_core::exec::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rounds of (diagonal, block Hadamard, permutation): one round fails
/// the prefix-energy test below, three match Haar.
const ROUNDS: usize = 3;

/// A random orthogonal map on `dims`-wide vectors (see the module docs).
#[derive(Debug, Clone)]
pub struct RandomRotation {
    dims: usize,
    /// `ROUNDS × dims`: round `r`'s diagonal, `±1/√len` of the block the
    /// coordinate falls in (the Hadamard scaling folded into the sign).
    diagonals: Vec<f32>,
    /// `ROUNDS × dims`: round `r` moves coordinate `permutations[r][i]`
    /// to position `i`.
    permutations: Vec<u32>,
}

/// The power-of-two blocks of `dims`, largest first, as `(start, len)`.
fn blocks(dims: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..usize::BITS)
        .rev()
        .map(|bit| 1usize << bit)
        .filter(move |len| dims & len != 0)
        .scan(0, |start, len| {
            *start += len;
            Some((*start - len, len))
        })
}

/// One butterfly stage: every pair `(x[j], x[j + h])` of each `2h`-long
/// group becomes its sum and difference.
#[inline(always)]
fn butterflies(x: &mut [f32], h: usize) {
    for group in x.chunks_exact_mut(2 * h) {
        let (lo, hi) = group.split_at_mut(h);
        for (a, b) in lo.iter_mut().zip(hi) {
            (*a, *b) = (*a + *b, *a - *b);
        }
    }
}

/// Unnormalised in-place Walsh–Hadamard transform of a power-of-two
/// slice: stages `h = 1, 2, 4, …`. The three stages below 8 stay inside
/// 8-element chunks, so they run chunk by chunk on a fixed-size array the
/// compiler unrolls (2.3× the plain stage loop at `d = 960`) — the same
/// operations on the same operands, hence the same bits.
fn hadamard(x: &mut [f32]) {
    for chunk in x.chunks_exact_mut(8) {
        let chunk: &mut [f32; 8] = chunk.try_into().expect("chunks are 8 long");
        for h in [1, 2, 4] {
            butterflies(chunk, h);
        }
    }
    let mut h = if x.len() < 8 { 1 } else { 8 };
    while h < x.len() {
        butterflies(x, h);
        h *= 2;
    }
}

impl RandomRotation {
    /// Draws the rotation `seed` determines for `dims`-wide vectors.
    ///
    /// # Panics
    /// Panics if `dims` is zero or does not fit a `u32`.
    pub fn new(dims: usize, seed: u64) -> Self {
        assert!(dims > 0, "a rotation needs at least one dimension");
        let width = u32::try_from(dims).expect("dims fits u32");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut diagonals = Vec::with_capacity(ROUNDS * dims);
        let mut permutations = Vec::with_capacity(ROUNDS * dims);
        for _ in 0..ROUNDS {
            for (_, len) in blocks(dims) {
                let scale = 1.0 / (len as f32).sqrt();
                diagonals.extend((0..len).map(|_| if rng.random() { scale } else { -scale }));
            }
            // Fisher–Yates.
            let round = permutations.len();
            permutations.extend(0..width);
            for i in (1..dims).rev() {
                permutations.swap(round + i, round + rng.random_range(0..=i));
            }
        }
        Self {
            dims,
            diagonals,
            permutations,
        }
    }

    /// The dimensionality this rotation maps.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Rotates `row` in place; `scratch` is `dims` of workspace.
    fn rotate(&self, row: &mut [f32], scratch: &mut [f32]) {
        let d = self.dims;
        let rounds = self.diagonals.chunks_exact(d);
        for (diagonal, permutation) in rounds.zip(self.permutations.chunks_exact(d)) {
            for (x, s) in row.iter_mut().zip(diagonal) {
                *x *= s;
            }
            for (start, len) in blocks(d) {
                hadamard(&mut row[start..start + len]);
            }
            for (y, &p) in scratch.iter_mut().zip(permutation) {
                *y = row[p as usize];
            }
            row.copy_from_slice(scratch);
        }
    }

    /// Rotates one vector (the query-time path).
    ///
    /// # Panics
    /// Panics if `x` is not `dims` wide.
    pub fn transform_vector(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.dims, "dimensionality mismatch");
        self.transform_rows(x, 1)
    }

    /// Rotates every `dims`-wide row of a packed row-major collection on
    /// the shared execution pool (`threads = 0` resolves the default
    /// width), each row as [`RandomRotation::transform_vector`] would.
    ///
    /// # Panics
    /// Panics if `rows` is not a whole number of `dims`-wide rows.
    pub fn transform_rows(&self, rows: &[f32], threads: usize) -> Vec<f32> {
        let d = self.dims;
        assert_eq!(rows.len() % d, 0, "dimensionality mismatch");
        let mut out = rows.to_vec();
        // 64-row work items: ≈ 0.25 ms each at `d = 960`.
        ThreadPool::new(threads).for_each_chunk_mut(&mut out, 64 * d, |_, band| {
            let mut scratch = vec![0.0; d];
            for row in band.chunks_exact_mut(d) {
                self.rotate(row, &mut scratch);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn norm2(v: &[f32]) -> f64 {
        v.iter().map(|x| f64::from(*x) * f64::from(*x)).sum()
    }

    fn one_hot(d: usize, at: usize) -> Vec<f32> {
        let mut x = vec![0.0; d];
        x[at] = 1.0;
        x
    }

    /// Unit vector with `len` equal entries from `at` on.
    fn run(d: usize, at: usize, len: usize) -> Vec<f32> {
        let mut x = vec![0.0; d];
        x[at..at + len].fill(1.0 / (len as f32).sqrt());
        x
    }

    #[test]
    fn blocks_are_the_binary_decomposition() {
        let of = |d| blocks(d).collect::<Vec<_>>();
        assert_eq!(of(960), [(0, 512), (512, 256), (768, 128), (896, 64)]);
        assert_eq!(of(128), [(0, 128)]);
        assert_eq!(of(7), [(0, 4), (4, 2), (6, 1)]);
        assert_eq!(of(1), [(0, 1)]);
    }

    #[test]
    fn hadamard_is_the_plain_stage_loop_and_the_walsh_matrix() {
        for n in (0..=10).map(|bit| 1usize << bit) {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let (mut got, mut want) = (x.clone(), x);
            hadamard(&mut got);
            let mut h = 1;
            while h < n {
                butterflies(&mut want, h);
                h *= 2;
            }
            assert_eq!(bits(&got), bits(&want), "n = {n}");
            // Small integers sum exactly: H[i][j] = (−1)^popcount(i & j).
            let ints: Vec<f32> = (0..n).map(|i| (i % 7) as f32 - 3.0).collect();
            let mut got = ints.clone();
            hadamard(&mut got);
            for (i, g) in got.iter().enumerate() {
                let sign = |j: usize| 1.0 - 2.0 * ((i & j).count_ones() % 2) as f32;
                let want: f32 = (0..n).map(|j| sign(j) * ints[j]).sum();
                assert_eq!(*g, want, "row {i} at n = {n}");
            }
        }
    }

    /// The images of the basis vectors are the columns of `R`: their Gram
    /// matrix is `RᵀR`, which must be the identity.
    fn assert_orthogonal(d: usize) {
        let rot = RandomRotation::new(d, d as u64);
        let mut images = Vec::with_capacity(d * d);
        for i in 0..d {
            let image = rot.transform_vector(&one_hot(d, i));
            assert!((norm2(&image) - 1.0).abs() < 1e-5, "‖R e_{i}‖² at d = {d}");
            images.extend(image);
        }
        let images = Matrix::from_vec(d, d, images);
        let gram = images.mul_transposed(&images, 1);
        for i in 0..d {
            for j in 0..d {
                let want = if i == j { 1.0 } else { 0.0 };
                let got = gram.get(i, j);
                assert!(
                    (got - want).abs() < 1e-5,
                    "RᵀR[{i}][{j}] = {got} at d = {d}"
                );
            }
        }
    }

    #[test]
    fn q_is_orthogonal_small() {
        for d in [1usize, 2, 3, 7] {
            assert_orthogonal(d);
        }
    }

    #[test]
    fn q_is_orthogonal_medium() {
        for d in [100usize, 127, 128, 960] {
            assert_orthogonal(d);
        }
    }

    #[test]
    fn rotation_preserves_norms_and_distances() {
        for d in [1usize, 2, 3, 7, 100, 127, 128, 960] {
            let rot = RandomRotation::new(d, 5);
            let a: Vec<f32> = (0..d).map(|i| (i as f32).sin()).collect();
            let b: Vec<f32> = (0..d).map(|i| (i as f32 * 0.3).cos()).collect();
            let diff =
                |x: &[f32], y: &[f32]| x.iter().zip(y).map(|(p, q)| p - q).collect::<Vec<_>>();
            let (ra, rb) = (rot.transform_vector(&a), rot.transform_vector(&b));
            for (raw, rotated) in [(&a, &ra), (&b, &rb), (&diff(&a, &b), &diff(&ra, &rb))] {
                let (want, got) = (norm2(raw), norm2(rotated));
                assert!(
                    (got - want).abs() <= 1e-5 * want,
                    "{got} vs {want} at d = {d}"
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_rotations() {
        let x: Vec<f32> = (0..100).map(|i| (i as f32 * 0.7).sin()).collect();
        let of = |seed| bits(&RandomRotation::new(100, seed).transform_vector(&x));
        assert_eq!(of(1), of(1), "a seed determines the rotation");
        assert_ne!(of(1), of(2));
    }

    #[test]
    fn transform_rows_matches_transform_vector() {
        // Three 64-row work items, the last one short.
        let (n, d) = (150, 100);
        let rot = RandomRotation::new(d, 11);
        let rows: Vec<f32> = (0..n * d).map(|i| (i as f32 * 0.1).sin()).collect();
        let want: Vec<u32> = rows
            .chunks_exact(d)
            .flat_map(|row| bits(&rot.transform_vector(row)))
            .collect();
        for threads in [1usize, 2, 3, 0] {
            assert_eq!(
                bits(&rot.transform_rows(&rows, threads)),
                want,
                "threads = {threads}"
            );
        }
        assert!(rot.transform_rows(&[], 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_width_panics() {
        let _ = RandomRotation::new(8, 0).transform_vector(&[0.0; 4]);
    }

    /// The inputs a structured rotation mixes worst: every one-hot vector
    /// and every run of 16 equal entries.
    fn least_mixed_inputs(d: usize) -> impl Iterator<Item = Vec<f32>> {
        (0..d)
            .map(move |at| one_hot(d, at))
            .chain((0..=d - 16).map(move |at| run(d, at, 16)))
    }

    /// For a Haar rotation of a unit vector, the energy of a `p`-prefix
    /// is Beta(p/2, (d−p)/2): scaled by `d/p` it has mean 1 and standard
    /// deviation `√(2(d−p) / (p(d+2)))`. ADSampling's test assumes that
    /// spread; the structured rotation must reproduce it (within 15 %)
    /// on its least-mixed inputs, and at `d = 960` the scaled energy may
    /// pass the ε₀ = 2.1 bound `(1 + ε₀/√p)²` on at most 0.5 % of them.
    #[test]
    fn prefix_energy_matches_haar_spread() {
        for d in [100usize, 128, 960] {
            let rotations: Vec<_> = (0..4).map(|seed| RandomRotation::new(d, seed)).collect();
            let images: Vec<Vec<f32>> = least_mixed_inputs(d)
                .flat_map(|x| rotations.iter().map(move |rot| rot.transform_vector(&x)))
                .collect();
            for p in [32usize, 64] {
                let scaled: Vec<f64> = images
                    .iter()
                    .map(|image| norm2(&image[..p]) * d as f64 / p as f64)
                    .collect();
                let n = scaled.len() as f64;
                let mean = scaled.iter().sum::<f64>() / n;
                let var = scaled.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
                let haar = (2.0 * (d - p) as f64 / (p as f64 * (d + 2) as f64)).sqrt();
                assert!((mean - 1.0).abs() < 0.02, "mean {mean} at d = {d}, p = {p}");
                assert!(
                    var.sqrt() / mean <= 1.15 * haar,
                    "relative std {} vs Haar {haar} at d = {d}, p = {p}",
                    var.sqrt() / mean
                );
                if d == 960 {
                    let bound = (1.0 + 2.1 / (p as f64).sqrt()).powi(2);
                    let over = scaled.iter().filter(|e| **e > bound).count();
                    assert!(
                        over as f64 <= 0.005 * n,
                        "{over} of {n} inputs over the ε₀ bound at p = {p}"
                    );
                }
            }
        }
    }
}
