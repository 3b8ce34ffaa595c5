//! The one dot-product kernel behind every dense rotation in the
//! pipeline (BSA's PCA rotation; ADSampling's structured rotation is
//! [`crate::rotation`] and has no matrix).
//!
//! [`dot_rows`] computes `out[b][r] = ⟨a.row(r), x.row(b)⟩` for every
//! row pair of two row-major operands. [`MatrixView::matvec`] (one `x`
//! row: BSA's per-query rotation), [`MatrixView::mul_transposed`] (many
//! `x` rows: the one-time collection rotation) and BSA's batched query
//! rotation (`Pruner::prepare_queries`) are all this one function, so a
//! vector rotates to the same bits whichever path carried it.
//!
//! ## Canonical accumulation order
//!
//! Every output element is accumulated the same way on every path:
//! eight lane accumulators start at `0.0`; column chunk `c` (columns
//! `8c..8c + 8`) updates lane `i` as `acc[i] = acc[i] + a[8c + i] ·
//! x[8c + i]` — a multiply and a *separate* add, two roundings; the
//! columns past the last whole chunk accumulate left to right into one
//! scalar `tail`; the result is
//! `((acc0 + acc1) + (acc2 + acc3)) + ((acc4 + acc5) + (acc6 + acc7)) + tail`.
//!
//! The scalar loop (`dot8`) spells that order out and is the oracle;
//! the SIMD tile is written once over an 8-lane vector type of
//! [`pdx_core::kernels::lanes`] (`Avx2` on x86-64, `Neon` on aarch64 —
//! this crate imports no intrinsics of its own), keeps one such
//! accumulator per output element and runs the same per-lane
//! operations in the same order, so it is **bit-identical** to the
//! oracle (pinned by the proptest below and by `tests/kernels.rs`). The
//! lane type's fused multiply-add is deliberately not used: Rust never
//! contracts `a * b + c`, so the scalar oracle rounds twice on every
//! target, and a fused SIMD step would round once and drift from it.
//!
//! ## Tile shape
//!
//! The SIMD path computes a register tile of up to 4 rows of `a` × 2
//! rows of `x` per sweep over the columns (8 accumulators, 6 loads per
//! 16 multiply-adds). Rows of `x` are taken in cache blocks of
//! `X_BLOCK` (16): within a block each 4-row strip of `a` is loaded from
//! memory once and reused from L1 for every `x` row pair, so `a`
//! streams once per block rather than once per `x` row. With a single
//! `x` row the tile degenerates to 4 × 1 and the sweep is bound by the
//! one pass over `a`.
//!
//! The variant is picked per call through [`KernelPolicy::resolve`] —
//! `Auto` honours `PDX_KERNEL` and otherwise takes the detected ISA —
//! and [`dot_rows_isa`] names it. The eight lanes are the order, not a
//! register width: an AVX-512 host runs the 8-lane AVX2 tile (every
//! such host has AVX2+FMA), since sixteen accumulators would reduce in
//! another order and move every rotated bit.

use crate::matrix::MatrixView;
use pdx_core::kernels::{KernelIsa, KernelPolicy};

/// Lane accumulators per output element.
const LANES: usize = 8;

/// Rows of `x` per cache block of the SIMD path: 16 rows of 960 `f32`
/// are 60 KB, resident in L2 while a strip of `a` passes through L1.
pub(crate) const X_BLOCK: usize = 16;

/// The canonical reduction of the eight lane accumulators and the tail.
#[inline(always)]
fn reduce(acc: [f32; LANES], tail: f32) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// `⟨row, x⟩` in the canonical accumulation order — the scalar oracle.
fn dot8(row: &[f32], x: &[f32]) -> f32 {
    debug_assert_eq!(row.len(), x.len());
    let mut acc = [0.0f32; LANES];
    let main = row.len() / LANES * LANES;
    for (rc, xc) in row[..main]
        .chunks_exact(LANES)
        .zip(x[..main].chunks_exact(LANES))
    {
        for i in 0..LANES {
            acc[i] += rc[i] * xc[i];
        }
    }
    let mut tail = 0.0f32;
    for (a, b) in row[main..].iter().zip(&x[main..]) {
        tail += a * b;
    }
    reduce(acc, tail)
}

/// The ISA [`dot_rows`] runs on under `policy`: the one it resolves to,
/// except that [`KernelIsa::Avx512`] runs the 8-lane AVX2 tile (module
/// docs).
pub fn dot_rows_isa(policy: KernelPolicy) -> KernelIsa {
    match policy.resolve() {
        KernelIsa::Avx512 => KernelIsa::Avx2,
        isa => isa,
    }
}

/// `out[b * a.rows() + r] = ⟨a.row(r), x.row(b)⟩` for every row `r` of
/// `a` and every row `b` of `x`, on the implementation [`dot_rows_isa`]
/// names for `policy`. The output bits do not depend on the policy.
///
/// # Panics
/// Panics if the operands' column counts differ or `out` is not
/// `x.rows() × a.rows()`.
pub fn dot_rows(a: MatrixView<'_>, x: MatrixView<'_>, out: &mut [f32], policy: KernelPolicy) {
    assert_eq!(a.cols(), x.cols(), "inner dimensions must agree");
    assert_eq!(
        out.len(),
        a.rows() * x.rows(),
        "output must hold one element per row pair"
    );
    if dot_rows_isa(policy) != KernelIsa::Scalar {
        assert_eq!(a.as_slice().len(), a.rows() * a.cols());
        assert_eq!(x.as_slice().len(), x.rows() * x.cols());
        // SAFETY: `dot_rows_isa` names a SIMD ISA only when the running
        // CPU has it (AVX2 on x86-64, NEON on aarch64). The asserts
        // above size `a`, `x` and `out` as `rows × cols`, `rows × cols`
        // and `x.rows × a.rows`, which bounds every load and store of
        // `simd::dot_rows`.
        return unsafe { simd::dot_rows(a, x, out) };
    }
    if a.rows() == 0 {
        return;
    }
    for (b, out_row) in out.chunks_exact_mut(a.rows()).enumerate() {
        for (r, slot) in out_row.iter_mut().enumerate() {
            *slot = dot8(a.row(r), x.row(b));
        }
    }
}

/// The register-tiled loop nest, written once over an 8-lane vector type
/// ([`Lanes<8>`](pdx_core::kernels::lanes::Lanes): one AVX2 register,
/// two NEON registers).
mod simd {
    use super::{reduce, MatrixView, LANES, X_BLOCK};
    #[cfg(target_arch = "x86_64")]
    use pdx_core::kernels::lanes::Avx2 as V;
    #[cfg(target_arch = "aarch64")]
    use pdx_core::kernels::lanes::Neon as V;
    use pdx_core::kernels::lanes::{Lane, Lanes};
    /// No SIMD lane type on this target: `dot_rows_isa` only ever says
    /// `Scalar` here, and the nest type-checks against the portable one.
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    type V = pdx_core::kernels::lanes::Portable<LANES>;

    /// Rows of `a` per register tile.
    const A_TILE: usize = 4;
    /// Rows of `x` per register tile.
    const X_TILE: usize = 2;

    /// One `R × B` register tile: `out[o + b * stride + r] = ⟨a row r, x
    /// row b⟩` for `r < R`, `b < B`, each in the canonical order — the
    /// multiply and the add of a step are separate `Lane` operations,
    /// never the fused one.
    ///
    /// # Safety
    /// Requires the ISA of `V`; `a` and `x` must hold `R` and `B` rows of
    /// `cols` values from their start, and `out[o + b * stride + r]` must
    /// exist for every `r < R`, `b < B`.
    #[inline(always)]
    unsafe fn tile<const R: usize, const B: usize>(
        a: &[f32],
        x: &[f32],
        cols: usize,
        out: &mut [f32],
        o: usize,
        stride: usize,
    ) {
        let mut acc = [[V::splat(0.0); B]; R];
        let main = cols / LANES * LANES;
        let mut c = 0;
        while c < main {
            let xv: [V; B] = std::array::from_fn(|b| V::load(x, b * cols + c));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = V::load(a, r * cols + c);
                for (slot, &xv) in acc_r.iter_mut().zip(&xv) {
                    *slot = slot.add(av.mul(xv));
                }
            }
            c += LANES;
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (b, &v) in acc_r.iter().enumerate() {
                let mut tail = 0.0f32;
                for c in main..cols {
                    tail += a.get_unchecked(r * cols + c) * x.get_unchecked(b * cols + c);
                }
                let mut lanes = [0.0f32; LANES];
                v.store(&mut lanes, 0);
                *out.get_unchecked_mut(o + b * stride + r) = reduce(lanes, tail);
            }
        }
    }

    /// One strip of `R` rows of `a` against the `x` rows `x0..x1`.
    ///
    /// # Safety
    /// As [`tile`], for rows `r0..r0 + R` of `a` and `x0..x1` of `x`.
    #[inline(always)]
    unsafe fn strip<const R: usize>(
        a: MatrixView<'_>,
        x: MatrixView<'_>,
        out: &mut [f32],
        r0: usize,
        x0: usize,
        x1: usize,
    ) {
        let (cols, stride) = (a.cols(), a.rows());
        let ap = &a.as_slice()[r0 * cols..];
        let mut b = x0;
        while b + X_TILE <= x1 {
            let xp = &x.as_slice()[b * cols..];
            tile::<R, X_TILE>(ap, xp, cols, out, b * stride + r0, stride);
            b += X_TILE;
        }
        while b < x1 {
            let xp = &x.as_slice()[b * cols..];
            tile::<R, 1>(ap, xp, cols, out, b * stride + r0, stride);
            b += 1;
        }
    }

    /// # Safety
    /// Requires the ISA named in the `target_feature` attribute, and
    /// `out.len() == x.rows() * a.rows()` with `a.cols() == x.cols()`.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "neon"))]
    pub(super) unsafe fn dot_rows(a: MatrixView<'_>, x: MatrixView<'_>, out: &mut [f32]) {
        let mut x0 = 0;
        while x0 < x.rows() {
            let x1 = (x0 + X_BLOCK).min(x.rows());
            let mut r = 0;
            while r + A_TILE <= a.rows() {
                strip::<A_TILE>(a, x, out, r, x0, x1);
                r += A_TILE;
            }
            while r < a.rows() {
                strip::<1>(a, x, out, r, x0, x1);
                r += 1;
            }
            x0 = x1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use proptest::prelude::*;

    /// Finite values with mixed signs and magnitudes, so accumulation
    /// order shows up in the low bits.
    fn values(len: usize) -> impl Strategy<Value = Vec<f32>> {
        let value = (-4.0f32..4.0, 0usize..4).prop_map(|(v, pick)| match pick {
            0 => v * 1e-3,
            1 => v * 75.0,
            _ => v,
        });
        proptest::collection::vec(value, len)
    }

    /// `a` is `rows × cols`, `x` is `xr × cols`.
    fn shapes() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
        (1usize..71, 1usize..71, 1usize..20).prop_flat_map(|(rows, cols, xr)| {
            (values(rows * cols), values(xr * cols)).prop_map(move |(a, x)| (rows, cols, xr, a, x))
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    proptest! {
        /// Tails, fewer rows than a tile, cols < 8: the dispatched
        /// kernel equals the scalar oracle bit for bit, for one `x` row
        /// (matvec) and for many.
        #[test]
        fn simd_equals_scalar_oracle((rows, cols, xr, a, x) in shapes()) {
            let (a, x) = (MatrixView::new(rows, cols, &a), MatrixView::new(xr, cols, &x));
            let mut want = vec![0.0f32; xr * rows];
            for b in 0..xr {
                for r in 0..rows {
                    want[b * rows + r] = dot8(a.row(r), x.row(b));
                }
            }
            for policy in [KernelPolicy::Scalar, KernelPolicy::Simd, KernelPolicy::Auto] {
                let mut got = vec![f32::NAN; xr * rows];
                dot_rows(a, x, &mut got, policy);
                prop_assert!(bits(&got) == bits(&want), "diverged under {policy:?}");
            }
            prop_assert_eq!(bits(&a.matvec(x.row(0))), bits(&want[..rows]));
        }

        /// Row `r` of `mul_transposed(X, M)` is `M.matvec(X.row(r))`, bit
        /// for bit, however the rows are banded over the pool.
        #[test]
        fn mul_transposed_rows_equal_matvec((rows, cols, xr, m, x) in shapes()) {
            let m = Matrix::from_vec(rows, cols, m);
            let x = Matrix::from_vec(xr, cols, x);
            for threads in [1usize, 2, 8] {
                let got = x.mul_transposed(&m, threads);
                for r in 0..xr {
                    prop_assert!(
                        bits(got.row(r)) == bits(&m.matvec(x.row(r))),
                        "row {r} diverged at {threads} threads"
                    );
                }
            }
        }
    }

    /// xorshift64 → `f32` in [-0.5, 0.5): a generator this file owns,
    /// so the golden hashes cannot move with the `rand` stand-in.
    fn golden_input(len: usize, mut s: u64) -> Vec<f32> {
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect()
    }

    fn fnv1a(v: &[f32]) -> u64 {
        v.iter()
            .flat_map(|f| f.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The hashes were taken from `Matrix::matvec` as it stood before
    /// this kernel existed: the canonical order *is* that loop's order,
    /// so a query rotates to the bits it always did.
    #[test]
    fn matvec_bits_are_pinned() {
        for (rows, cols, want) in [(37usize, 29usize, GOLDEN_37X29), (960, 960, GOLDEN_960X960)] {
            let m = golden_input(rows * cols, 0x9E37_79B9_7F4A_7C15);
            let x = golden_input(cols, 0xD1B5_4A32_D192_ED03);
            let (m, x) = (
                MatrixView::new(rows, cols, &m),
                MatrixView::new(1, cols, &x),
            );
            for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
                let mut y = vec![0.0f32; rows];
                dot_rows(m, x, &mut y, policy);
                assert_eq!(fnv1a(&y), want, "{rows}x{cols} under {policy:?}");
            }
        }
    }

    const GOLDEN_37X29: u64 = 0x5a0d_9577_c143_1539;
    const GOLDEN_960X960: u64 = 0x1317_8ea2_36ff_39cf;

    #[test]
    fn empty_operands_write_nothing() {
        let a = MatrixView::new(0, 5, &[]);
        let x = MatrixView::new(3, 5, &[0.0; 15]);
        for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
            dot_rows(a, x, &mut [], policy);
            dot_rows(x, a, &mut [], policy);
        }
    }

    #[test]
    #[should_panic(expected = "one element per row pair")]
    fn wrong_output_size_panics() {
        let a = MatrixView::new(2, 3, &[0.0; 6]);
        dot_rows(a, a, &mut [0.0; 3], KernelPolicy::Auto);
    }
}
