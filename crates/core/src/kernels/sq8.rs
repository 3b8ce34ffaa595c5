//! SQ8 distance kernels: Algorithm 1 on `u8`-quantized PDX groups.
//!
//! The shape is identical to the `f32` kernels in
//! [`pdx`](crate::kernels::pdx): dimension-by-dimension over
//! multiple-vectors-at-a-time, per-lane independent accumulators, no
//! reduction step, monomorphized over the group width. Quantization makes
//! the inner loop *better*, not messier, because the layout is
//! dimension-major: the per-dimension codec parameters (query code `qc_d`
//! and fold weight `w_d`) are loop-invariant scalars hoisted above the
//! lane loop, while the data loads shrink to one byte per value — 4× more
//! vectors per cache line than `f32`.
//!
//! ## The weighted kernels
//!
//! [`sq8_accumulate_groups`], [`sq8_scan`] and the survivor variant compute the
//! exact distance between the query and the *dequantized* vectors: for
//! L2, `Σ_d scale_d² · (qc_d − c_d)²` with `qc_d = (q_d − min_d)/scale_d`.
//! The per-dimension weight keeps per-dimension scales honest, and the
//! partial sums stay monotone for L2/L1 — which is what lets the
//! quantized PDXearch scan in
//! [`search::quantized`](crate::search::quantized) prune dimensions.
//! The `u8` code is widened and folded in `f32`; a pure-integer
//! accumulator is impossible here because each dimension carries its
//! own weight.
//!
//! [`KernelPolicy`] selects between the scalar lane loops and the one
//! SIMD nest of [`lanes`](crate::kernels::lanes) at the resolved ISA's
//! lane type, bit-identical by construction: the widening `u8 → f32`
//! conversion is exact for all 256 codes, and the three `Step` bodies
//! below are the only spelling of the weighted L2 / L1 / IP step, run at
//! `f32` by the scalar loops and at 8 or 16 lanes by the nest (see the
//! invariant note in [`pdx`](crate::kernels::pdx)). The `u8` data makes
//! these the largest SIMD win in the codebase: the dense nest's cost is
//! the `u8 → f32` widen-and-fold, so it scales with the register — a
//! 64-code group row is one 16-lane tile on AVX-512.

use crate::distance::Metric;
use crate::kernels::dispatch::{KernelPolicy, SCALAR_FMA};
use crate::kernels::lanes::{Ip, Lane, Step, L1, L2};
use crate::kernels::pdx::{accumulate, survivors, DimSel};
use crate::kernels::Tiled;
use crate::layout::{PdxBlock, Sq8Quantizer, Sq8Query};
use std::ops::Range;

// The SQ8 steps: `qc` is the query's code-space coordinate for the
// dimension, `w` the dimension's fold weight, `v` the stored code,
// widened.

/// `acc + w·(qc − v)²`, left-associated: `(w·d)·d`.
impl Step<2> for L2 {
    #[inline(always)]
    fn step<L: Lane>(acc: L, [qc, w]: [L; 2], v: L) -> L {
        let d = qc.sub(v);
        if SCALAR_FMA {
            w.mul(d).fmadd(d, acc)
        } else {
            acc.add(w.mul(d).mul(d))
        }
    }
}

/// `acc + w·|qc − v|`.
impl Step<2> for L1 {
    #[inline(always)]
    fn step<L: Lane>(acc: L, [qc, w]: [L; 2], v: L) -> L {
        acc.add(w.mul(qc.sub(v).abs()))
    }
}

/// `acc − qc·v`: the weight is folded into the query code and the bias.
impl Step<2> for Ip {
    #[inline(always)]
    fn step<L: Lane>(acc: L, [qc, _w]: [L; 2], v: L) -> L {
        if SCALAR_FMA {
            qc.fnmadd(v, acc)
        } else {
            acc.sub(qc.mul(v))
        }
    }
}

/// Accumulates the metric over storage dimensions `dims` of every vector
/// of the groups `groups` of a block of SQ8 codes into `acc`, one
/// accumulator per vector the groups cover, in block order — the SQ8
/// twin of [`pdx_accumulate_groups`](crate::kernels::pdx_accumulate_groups).
/// All policies produce bit-identical accumulators (see the module
/// docs), and each vector's are those of the one-group call `g..g + 1`
/// over its group `g`.
///
/// The accumulated value is the distance between the query and each
/// vector's *dequantized* reconstruction (the [`Sq8Query`] bias, if any,
/// is **not** added here — callers add it once per finished distance).
///
/// # Panics
/// Panics if `groups` is reversed or ends past the block's groups, if
/// `acc.len()` is not the number of vectors `groups` covers, or if `dims`
/// exceeds the block's or the query's dimensionality.
pub fn sq8_accumulate_groups(
    q: &Sq8Query,
    block: &PdxBlock<u8>,
    groups: Range<usize>,
    dims: Range<usize>,
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    let (t, query) = (Tiled::of(block), [&q.qcode[..], &q.weight[..]]);
    let dims = DimSel::Range(dims);
    match q.metric {
        Metric::L2 => accumulate::<_, L2, 2>(t, groups, query, dims, acc, kernel),
        Metric::L1 => accumulate::<_, L1, 2>(t, groups, query, dims, acc, kernel),
        Metric::NegativeIp => accumulate::<_, Ip, 2>(t, groups, query, dims, acc, kernel),
    }
}

/// PRUNE-phase kernel: accumulates only at the surviving vectors of a
/// quantized block, wherever in the block they sit — the SQ8 twin of
/// [`pdx_accumulate_survivors`](crate::kernels::pdx_accumulate_survivors).
///
/// `positions[j]` is a block-relative vector index (any group, the
/// partial tail group included); `acc[j]` is the compacted accumulator
/// of that survivor. Eight survivors share one pass over the dimensions
/// (a software gather of byte lanes), and every survivor sees `dims` in
/// order, so all policies produce identical bits — those of the
/// survivor's lane in [`sq8_accumulate_groups`].
///
/// # Panics
/// Panics if `acc.len() != positions.len()`, a position is not a vector
/// of `block`, or `dims` exceeds the block's or the query's
/// dimensionality.
pub fn sq8_accumulate_survivors(
    q: &Sq8Query,
    block: &PdxBlock<u8>,
    dims: Range<usize>,
    positions: &[u32],
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    let (t, query) = (Tiled::of(block), [&q.qcode[..], &q.weight[..]]);
    let dims = DimSel::Range(dims);
    match q.metric {
        Metric::L2 => survivors::<_, L2, 2>(t, query, dims, positions, acc, kernel),
        Metric::L1 => survivors::<_, L1, 2>(t, query, dims, positions, acc, kernel),
        Metric::NegativeIp => survivors::<_, Ip, 2>(t, query, dims, positions, acc, kernel),
    }
}

/// Full linear scan of a quantized block: fills `out[i]` with the
/// estimated distance of vector `i` (block order) to the prepared query,
/// bias included.
///
/// ```
/// use pdx_core::distance::Metric;
/// use pdx_core::kernels::sq8_scan;
/// use pdx_core::layout::Sq8Quantizer;
///
/// let rows = [0.0, 0.0, 3.0, 4.0, 1.0, 1.0f32];
/// let quantizer = Sq8Quantizer::fit(&rows, 3, 2);
/// let block = quantizer.encode_block(&rows, 3, 64);
/// let q = quantizer.prepare_query(Metric::L2, &[0.0, 0.0]);
/// let mut out = vec![0.0; 3];
/// sq8_scan(&q, &block, &mut out);
/// // Vector 1 is (3, 4): squared distance ≈ 25, up to quantization error.
/// assert!((out[1] - 25.0).abs() < 0.5);
/// ```
///
/// # Panics
/// Panics if `out.len() != block.len()` or the query width differs.
pub fn sq8_scan(q: &Sq8Query, block: &PdxBlock<u8>, out: &mut [f32]) {
    assert_eq!(out.len(), block.len(), "one output per vector required");
    assert_eq!(q.dims(), block.dims(), "query dimensionality mismatch");
    out.fill(0.0);
    let groups = 0..block.group_count();
    sq8_accumulate_groups(q, block, groups, 0..block.dims(), out, KernelPolicy::Auto);
    if q.bias != 0.0 {
        for o in out.iter_mut() {
            *o += q.bias;
        }
    }
}

/// Scalar reference: the estimated distance between a raw query and one
/// row of codes, computed by explicit dequantization. This is what the
/// vectorized kernels must agree with (used by tests and the property
/// suite; `O(dims)` per call).
///
/// # Panics
/// Panics if `codes.len()`/`query.len()` differ from the quantizer dims.
pub fn sq8_distance_scalar(
    quantizer: &Sq8Quantizer,
    metric: Metric,
    query: &[f32],
    codes: &[u8],
) -> f32 {
    assert_eq!(codes.len(), quantizer.dims(), "one code per dimension");
    assert_eq!(query.len(), quantizer.dims(), "query dimensionality");
    let mut acc = 0.0f32;
    for (d, (&qv, &c)) in query.iter().zip(codes).enumerate() {
        acc += metric.term(qv, quantizer.decode_value(d, c));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance_scalar;

    fn rows(n: usize, d: usize) -> Vec<f32> {
        (0..n * d)
            .map(|i| ((i * 37 % 101) as f32) * 0.25 - 12.0)
            .collect()
    }

    fn query(d: usize) -> Vec<f32> {
        (0..d).map(|i| (i as f32 * 0.77).sin() * 3.0).collect()
    }

    fn setup(n: usize, d: usize, group: usize) -> (Sq8Quantizer, PdxBlock<u8>, Vec<f32>) {
        let r = rows(n, d);
        let qz = Sq8Quantizer::fit(&r, n, d);
        let b = qz.encode_block(&r, n, group);
        (qz, b, r)
    }

    #[test]
    fn scan_matches_scalar_reference_all_metrics() {
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let (qz, block, _) = setup(150, 17, 64);
            let raw_q = query(17);
            let q = qz.prepare_query(metric, &raw_q);
            let mut out = vec![0.0; 150];
            sq8_scan(&q, &block, &mut out);
            let code_rows = qz.to_code_rows(&block);
            for v in 0..150 {
                let want =
                    sq8_distance_scalar(&qz, metric, &raw_q, &code_rows[v * 17..(v + 1) * 17]);
                assert!(
                    (out[v] - want).abs() <= want.abs().max(1.0) * 1e-4,
                    "{metric:?} vector {v}: {} vs {want}",
                    out[v]
                );
            }
        }
    }

    #[test]
    fn scan_with_every_specialized_group_size() {
        for group in [16usize, 32, 64, 128, 256, 512, 7] {
            let n = 530;
            let (qz, block, _) = setup(n, 9, group);
            let raw_q = query(9);
            let q = qz.prepare_query(Metric::L2, &raw_q);
            let mut out = vec![0.0; n];
            sq8_scan(&q, &block, &mut out);
            let code_rows = qz.to_code_rows(&block);
            for v in (0..n).step_by(53) {
                let want =
                    sq8_distance_scalar(&qz, Metric::L2, &raw_q, &code_rows[v * 9..(v + 1) * 9]);
                assert!(
                    (out[v] - want).abs() <= want.max(1.0) * 1e-4,
                    "group {group} vector {v}"
                );
            }
        }
    }

    #[test]
    fn estimated_distance_is_close_to_true_distance() {
        let (qz, block, r) = setup(200, 24, 64);
        let raw_q = query(24);
        let q = qz.prepare_query(Metric::L2, &raw_q);
        let mut out = vec![0.0; 200];
        sq8_scan(&q, &block, &mut out);
        for v in 0..200 {
            let truth = distance_scalar(Metric::L2, &raw_q, &r[v * 24..(v + 1) * 24]);
            // Analytic bound: Σ (|q_d − v̂_d|·s_d + s_d²/4).
            let vhat = qz.decode_vector(&block, v);
            let bound: f32 = (0..24)
                .map(|d| {
                    let s = qz.scale(d);
                    (raw_q[d] - vhat[d]).abs() * s + s * s / 4.0
                })
                .sum();
            assert!(
                (out[v] - truth).abs() <= bound * (1.0 + 1e-3) + 1e-3,
                "vector {v}: est {} true {truth} bound {bound}",
                out[v]
            );
        }
    }

    #[test]
    fn partial_ranges_compose_to_full_distance() {
        let (qz, block, _) = setup(64, 20, 64);
        let raw_q = query(20);
        let q = qz.prepare_query(Metric::L2, &raw_q);
        let mut acc = vec![0.0; 64];
        sq8_accumulate_groups(&q, &block, 0..1, 0..5, &mut acc, KernelPolicy::Auto);
        sq8_accumulate_groups(&q, &block, 0..1, 5..13, &mut acc, KernelPolicy::Auto);
        sq8_accumulate_groups(&q, &block, 0..1, 13..20, &mut acc, KernelPolicy::Auto);
        let mut full = vec![0.0; 64];
        sq8_scan(&q, &block, &mut full);
        for v in 0..64 {
            assert!((acc[v] - full[v]).abs() <= full[v].max(1.0) * 1e-5);
        }
    }

    #[test]
    fn positions_kernel_matches_dense_kernel() {
        let (qz, block, _) = setup(64, 16, 64);
        let q = qz.prepare_query(Metric::L2, &query(16));
        let mut dense = vec![0.0; 64];
        sq8_accumulate_groups(&q, &block, 0..1, 0..16, &mut dense, KernelPolicy::Auto);
        let positions: Vec<u32> = vec![3, 17, 18, 40, 63];
        let mut compact = vec![0.0; positions.len()];
        sq8_accumulate_survivors(
            &q,
            &block,
            0..16,
            &positions,
            &mut compact,
            KernelPolicy::Auto,
        );
        for (j, &p) in positions.iter().enumerate() {
            assert!((compact[j] - dense[p as usize]).abs() <= dense[p as usize].max(1.0) * 1e-5);
        }
    }

    #[test]
    fn ip_bias_makes_estimate_track_true_dot() {
        let (qz, block, r) = setup(100, 12, 32);
        let raw_q = query(12);
        let q = qz.prepare_query(Metric::NegativeIp, &raw_q);
        let mut out = vec![0.0; 100];
        sq8_scan(&q, &block, &mut out);
        for v in (0..100).step_by(13) {
            let truth = distance_scalar(Metric::NegativeIp, &raw_q, &r[v * 12..(v + 1) * 12]);
            // |error| ≤ Σ |q_d|·s_d/2.
            let bound: f32 = (0..12).map(|d| raw_q[d].abs() * qz.scale(d) / 2.0).sum();
            assert!(
                (out[v] - truth).abs() <= bound * (1.0 + 1e-3) + 1e-3,
                "vector {v}"
            );
        }
    }

    #[test]
    fn empty_dimension_range_is_noop() {
        let (qz, block, _) = setup(10, 4, 64);
        let q = qz.prepare_query(Metric::L2, &query(4));
        let mut acc = vec![1.5; 10];
        sq8_accumulate_groups(&q, &block, 0..1, 2..2, &mut acc, KernelPolicy::Auto);
        assert!(acc.iter().all(|&x| x == 1.5));
    }

    #[test]
    fn simd_policy_is_bit_identical_to_scalar() {
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            // 67 lanes across a 64-group: hits the tiles and the tail.
            let (qz, block, _) = setup(67, 13, 64);
            let q = qz.prepare_query(metric, &query(13));
            let run = |kernel| {
                let mut acc = vec![0.0; 67];
                sq8_accumulate_groups(&q, &block, 0..2, 0..13, &mut acc, kernel);
                acc
            };
            let (scalar, simd) = (run(KernelPolicy::Scalar), run(KernelPolicy::Simd));
            for v in 0..67 {
                assert_eq!(
                    scalar[v].to_bits(),
                    simd[v].to_bits(),
                    "{metric:?} vector {v}: {} vs {}",
                    scalar[v],
                    simd[v]
                );
            }
        }
    }

    #[test]
    fn positions_simd_policy_is_bit_identical_to_scalar() {
        let (qz, block, _) = setup(64, 16, 64);
        let positions: Vec<u32> = vec![3, 9, 17, 18, 21, 33, 40, 47, 55, 60, 63];
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let q = qz.prepare_query(metric, &query(16));
            let mut scalar = vec![0.0; positions.len()];
            sq8_accumulate_survivors(
                &q,
                &block,
                0..16,
                &positions,
                &mut scalar,
                KernelPolicy::Scalar,
            );
            let mut simd = vec![0.0; positions.len()];
            sq8_accumulate_survivors(&q, &block, 0..16, &positions, &mut simd, KernelPolicy::Simd);
            for j in 0..positions.len() {
                assert_eq!(scalar[j].to_bits(), simd[j].to_bits(), "{metric:?} pos {j}");
            }
        }
    }
}
