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
//! [`sq8_accumulate`], [`sq8_scan`] and their positional/survivor
//! variants compute the exact distance between the query and the
//! *dequantized* vectors: for L2, `Σ_d scale_d² · (qc_d − c_d)²` with
//! `qc_d = (q_d − min_d)/scale_d`. The per-dimension weight keeps
//! per-dimension scales honest, and the partial sums stay monotone for
//! L2/L1 — which is what lets the quantized PDXearch scan in
//! [`search::quantized`](crate::search::quantized) prune dimensions.
//! The `u8` code is widened and folded in `f32`; a pure-integer
//! accumulator is impossible here because each dimension carries its
//! own weight.
//!
//! They have explicit AVX2 and NEON variants selected by
//! [`KernelPolicy`], bit-identical to the scalar loops (the widening
//! `u8 → f32` conversion is exact for all 256 codes, and every SIMD step
//! mirrors the scalar op sequence — see the invariant note in
//! [`pdx`](crate::kernels::pdx)). The `u8` data makes these the largest
//! SIMD win in the codebase: 32 codes fit one AVX2 register load.
//!
//! [`Accum`]: crate::kernels::pdx

use crate::distance::Metric;
use crate::kernels::dispatch::KernelPolicy;
use crate::kernels::{Tiled, SURVIVOR_PASS};
use crate::layout::{QuantizedPdxBlock, QuantizedPdxGroup, Sq8Quantizer, Sq8Query};
use std::ops::Range;

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use crate::kernels::dispatch::KernelIsa;

/// One metric's SQ8 accumulation step, monomorphized into the kernels —
/// the quantized mirror of the `f32` path's `Accum` trait. `qc` is the
/// query's code-space coordinate for the dimension, `w` the dimension's
/// fold weight, `code` the stored byte.
trait Sq8Accum {
    fn accum(acc: f32, qc: f32, w: f32, code: u8) -> f32;
}

struct L2Sq8;
impl Sq8Accum for L2Sq8 {
    #[inline(always)]
    fn accum(acc: f32, qc: f32, w: f32, code: u8) -> f32 {
        let d = qc - code as f32;
        #[cfg(target_feature = "fma")]
        {
            (w * d).mul_add(d, acc)
        }
        #[cfg(not(target_feature = "fma"))]
        {
            acc + w * d * d
        }
    }
}

struct L1Sq8;
impl Sq8Accum for L1Sq8 {
    #[inline(always)]
    fn accum(acc: f32, qc: f32, w: f32, code: u8) -> f32 {
        acc + w * (qc - code as f32).abs()
    }
}

struct IpSq8;
impl Sq8Accum for IpSq8 {
    #[inline(always)]
    fn accum(acc: f32, qc: f32, _w: f32, code: u8) -> f32 {
        #[cfg(target_feature = "fma")]
        {
            qc.mul_add(-(code as f32), acc)
        }
        #[cfg(not(target_feature = "fma"))]
        {
            acc - qc * code as f32
        }
    }
}

/// Fixed-width inner kernel: `acc[l] += term(qc[d], w[d], codes[d][l])`
/// for every dimension in `dims`. `L` is the compile-time lane count, so
/// the accumulator array stays in vector registers across the dimension
/// loop.
#[inline]
fn sq8_accum_fixed<A: Sq8Accum, const L: usize>(
    data: &[u8],
    qcode: &[f32],
    weight: &[f32],
    dims: Range<usize>,
    acc: &mut [f32],
) {
    let acc: &mut [f32; L] = acc.try_into().expect("accumulator width mismatch");
    for d in dims {
        let qc = qcode[d];
        let w = weight[d];
        let row: &[u8; L] = data[d * L..d * L + L]
            .try_into()
            .expect("group row width mismatch");
        for l in 0..L {
            acc[l] = A::accum(acc[l], qc, w, row[l]);
        }
    }
}

/// Dynamic-width fallback for irregular lane counts (partial tail groups).
#[inline]
fn sq8_accum_dyn<A: Sq8Accum>(
    data: &[u8],
    lanes: usize,
    qcode: &[f32],
    weight: &[f32],
    dims: Range<usize>,
    acc: &mut [f32],
) {
    for d in dims {
        let qc = qcode[d];
        let w = weight[d];
        let row = &data[d * lanes..(d + 1) * lanes];
        for (a, &c) in acc.iter_mut().zip(row) {
            *a = A::accum(*a, qc, w, c);
        }
    }
}

#[inline]
fn sq8_dispatch<A: Sq8Accum>(
    data: &[u8],
    lanes: usize,
    qcode: &[f32],
    weight: &[f32],
    dims: Range<usize>,
    acc: &mut [f32],
) {
    match lanes {
        16 => sq8_accum_fixed::<A, 16>(data, qcode, weight, dims, acc),
        32 => sq8_accum_fixed::<A, 32>(data, qcode, weight, dims, acc),
        64 => sq8_accum_fixed::<A, 64>(data, qcode, weight, dims, acc),
        128 => sq8_accum_fixed::<A, 128>(data, qcode, weight, dims, acc),
        256 => sq8_accum_fixed::<A, 256>(data, qcode, weight, dims, acc),
        512 => sq8_accum_fixed::<A, 512>(data, qcode, weight, dims, acc),
        _ => sq8_accum_dyn::<A>(data, lanes, qcode, weight, dims, acc),
    }
}

/// Scalar survivor (software-gather) kernel: every survivor, in whatever
/// group of `t` it sits, accumulates `dims` in order — so its bits do
/// not depend on how survivors are batched.
#[inline]
fn sq8_survivors_scalar<A: Sq8Accum>(
    t: Tiled<'_, u8>,
    qcode: &[f32],
    weight: &[f32],
    dims: Range<usize>,
    positions: &[u32],
    acc: &mut [f32],
) {
    for (pos, acc) in positions
        .chunks(SURVIVOR_PASS)
        .zip(acc.chunks_mut(SURVIVOR_PASS))
    {
        let at = t.locate_pass::<SURVIVOR_PASS>(pos);
        for d in dims.clone() {
            let qc = qcode[d];
            let w = weight[d];
            for (a, &(off, stride)) in acc.iter_mut().zip(&at) {
                *a = A::accum(*a, qc, w, t.data[off + d * stride]);
            }
        }
    }
}

/// Bounds every dimension a SIMD kernel will touch (mirrors
/// `check_dim_bounds` in the f32 kernels: the SIMD loops use raw loads).
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn check_sq8_bounds(data_len: usize, lanes: usize, param_len: usize, dims: &Range<usize>) {
    if dims.start < dims.end {
        assert!(
            dims.end <= param_len,
            "dimension range exceeds query length"
        );
        assert!(
            dims.end * lanes <= data_len,
            "dimension range exceeds group"
        );
    }
}

/// Accumulates the metric over dimensions `dims` of a quantized PDX group
/// into the per-lane accumulator array `acc` (length = `group.lanes`).
/// All policies produce bit-identical accumulators (see the module
/// docs).
///
/// The accumulated value is the distance between the query and each
/// vector's *dequantized* reconstruction (the [`Sq8Query`] bias, if any,
/// is **not** added here — callers add it once per finished distance).
///
/// # Panics
/// Panics if `acc.len() != group.lanes` or `dims.end > q.dims()`.
pub fn sq8_accumulate(
    q: &Sq8Query,
    group: &QuantizedPdxGroup<'_>,
    dims: Range<usize>,
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    assert_eq!(acc.len(), group.lanes, "one accumulator per lane required");
    assert!(dims.end <= q.dims(), "dimension range exceeds query length");
    #[cfg(target_arch = "x86_64")]
    if kernel.resolve() == KernelIsa::Avx2 {
        check_sq8_bounds(
            group.data.len(),
            group.lanes,
            q.qcode.len().min(q.weight.len()),
            &dims,
        );
        // SAFETY: AVX2+FMA presence established by `resolve`; every
        // load was bounded by `check_sq8_bounds` above.
        return unsafe {
            avx2::accumulate(
                q.metric,
                group.data,
                group.lanes,
                &q.qcode,
                &q.weight,
                dims,
                acc,
            )
        };
    }
    #[cfg(target_arch = "aarch64")]
    if kernel.resolve() == KernelIsa::Neon {
        check_sq8_bounds(
            group.data.len(),
            group.lanes,
            q.qcode.len().min(q.weight.len()),
            &dims,
        );
        // SAFETY: NEON presence established by `resolve`; bounds above.
        return unsafe {
            neon::accumulate(
                q.metric,
                group.data,
                group.lanes,
                &q.qcode,
                &q.weight,
                dims,
                acc,
            )
        };
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = &kernel;
    match q.metric {
        Metric::L2 => {
            sq8_dispatch::<L2Sq8>(group.data, group.lanes, &q.qcode, &q.weight, dims, acc)
        }
        Metric::L1 => {
            sq8_dispatch::<L1Sq8>(group.data, group.lanes, &q.qcode, &q.weight, dims, acc)
        }
        Metric::NegativeIp => {
            sq8_dispatch::<IpSq8>(group.data, group.lanes, &q.qcode, &q.weight, dims, acc)
        }
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
/// order, so all policies — and the per-group
/// [`sq8_accumulate_positions`], which adapts onto this — produce
/// identical bits.
///
/// # Panics
/// Panics if `acc.len() != positions.len()`, a position is not a vector
/// of `block`, or `dims` exceeds the block's or the query's
/// dimensionality.
pub fn sq8_accumulate_survivors(
    q: &Sq8Query,
    block: &QuantizedPdxBlock,
    dims: Range<usize>,
    positions: &[u32],
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    let t = Tiled::new(
        block.as_slice(),
        block.len(),
        block.group_size(),
        block.dims(),
    );
    sq8_survivors_impl(q, t, dims, positions, acc, kernel)
}

/// Per-group form of [`sq8_accumulate_survivors`]: `positions[j]` is a
/// lane index inside this group.
///
/// # Panics
/// Panics if `acc.len() != positions.len()`.
pub fn sq8_accumulate_positions(
    q: &Sq8Query,
    group: &QuantizedPdxGroup<'_>,
    dims: Range<usize>,
    positions: &[u32],
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    let t = Tiled::of_group(group.data, group.lanes);
    sq8_survivors_impl(q, t, dims, positions, acc, kernel)
}

/// The one PRUNE-phase implementation: positions, dimensions and the ISA
/// are checked once here, not per group.
fn sq8_survivors_impl(
    q: &Sq8Query,
    t: Tiled<'_, u8>,
    dims: Range<usize>,
    positions: &[u32],
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    t.check_positions(positions, acc.len());
    #[cfg(target_arch = "x86_64")]
    if kernel.resolve() == KernelIsa::Avx2 {
        check_sq8_bounds(t.n_dims, 1, q.qcode.len().min(q.weight.len()), &dims);
        // SAFETY: AVX2+FMA presence established by `resolve`; positions
        // and dims bounded above, so every offset `locate` yields stays
        // inside `t.data`.
        return unsafe {
            avx2::accumulate_survivors(q.metric, t, &q.qcode, &q.weight, dims, positions, acc)
        };
    }
    #[cfg(target_arch = "aarch64")]
    if kernel.resolve() == KernelIsa::Neon {
        check_sq8_bounds(t.n_dims, 1, q.qcode.len().min(q.weight.len()), &dims);
        // SAFETY: NEON presence established by `resolve`; positions and
        // dims bounded above, so every offset `locate` yields stays
        // inside `t.data`.
        return unsafe {
            neon::accumulate_survivors(q.metric, t, &q.qcode, &q.weight, dims, positions, acc)
        };
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = &kernel;
    let (qcode, weight) = (&q.qcode[..], &q.weight[..]);
    match q.metric {
        Metric::L2 => sq8_survivors_scalar::<L2Sq8>(t, qcode, weight, dims, positions, acc),
        Metric::L1 => sq8_survivors_scalar::<L1Sq8>(t, qcode, weight, dims, positions, acc),
        Metric::NegativeIp => sq8_survivors_scalar::<IpSq8>(t, qcode, weight, dims, positions, acc),
    }
}

/// Full linear scan of a quantized block: fills `out[i]` with the
/// estimated distance of vector `i` (block order) to the prepared query,
/// bias included.
///
/// ```
/// use pdx_core::distance::Metric;
/// use pdx_core::kernels::sq8_scan;
/// use pdx_core::layout::{QuantizedPdxBlock, Sq8Quantizer};
///
/// let rows = [0.0, 0.0, 3.0, 4.0, 1.0, 1.0f32];
/// let quantizer = Sq8Quantizer::fit(&rows, 3, 2);
/// let block = QuantizedPdxBlock::from_rows(&rows, 3, 2, 64, &quantizer);
/// let q = quantizer.prepare_query(Metric::L2, &[0.0, 0.0]);
/// let mut out = vec![0.0; 3];
/// sq8_scan(&q, &block, &mut out);
/// // Vector 1 is (3, 4): squared distance ≈ 25, up to quantization error.
/// assert!((out[1] - 25.0).abs() < 0.5);
/// ```
///
/// # Panics
/// Panics if `out.len() != block.len()` or the query width differs.
pub fn sq8_scan(q: &Sq8Query, block: &QuantizedPdxBlock, out: &mut [f32]) {
    sq8_scan_policy(q, block, out, KernelPolicy::Auto)
}

/// [`sq8_scan`] with an explicit [`KernelPolicy`].
pub fn sq8_scan_policy(
    q: &Sq8Query,
    block: &QuantizedPdxBlock,
    out: &mut [f32],
    kernel: KernelPolicy,
) {
    assert_eq!(out.len(), block.len(), "one output per vector required");
    assert_eq!(q.dims(), block.dims(), "query dimensionality mismatch");
    out.fill(0.0);
    for g in block.groups() {
        let acc = &mut out[g.start_vector..g.start_vector + g.lanes];
        sq8_accumulate(q, &g, 0..block.dims(), acc, kernel);
    }
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

/// Explicit AVX2(+FMA) SQ8 kernels. The byte codes are widened
/// `u8 → i32 → f32` in-register (`_mm256_cvtepu8_epi32` +
/// `_mm256_cvtepi32_ps`) — exact for all 256 code values, so the widening
/// matches the scalar `code as f32` bit-for-bit. The kernels tile 32
/// lanes (4 accumulator registers).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{IpSq8, L1Sq8, L2Sq8, Sq8Accum};
    use crate::distance::Metric;
    use crate::kernels::dispatch::SCALAR_FMA;
    use crate::kernels::Tiled;
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// One metric's 8-wide weighted step — the scalar `Sq8Accum` step,
    /// widened (`v` is the already-widened code).
    trait Step {
        /// # Safety
        /// Requires AVX2+FMA (callers are `#[target_feature]` fns).
        unsafe fn step(acc: __m256, qc: __m256, w: __m256, v: __m256) -> __m256;
    }

    struct L2Step;
    impl Step for L2Step {
        #[inline(always)]
        unsafe fn step(acc: __m256, qc: __m256, w: __m256, v: __m256) -> __m256 {
            let d = _mm256_sub_ps(qc, v);
            if SCALAR_FMA {
                // (w*d).mul_add(d, acc)
                _mm256_fmadd_ps(_mm256_mul_ps(w, d), d, acc)
            } else {
                // acc + w*d*d, left-associated like the scalar step.
                _mm256_add_ps(acc, _mm256_mul_ps(_mm256_mul_ps(w, d), d))
            }
        }
    }

    struct L1Step;
    impl Step for L1Step {
        #[inline(always)]
        unsafe fn step(acc: __m256, qc: __m256, w: __m256, v: __m256) -> __m256 {
            let d = _mm256_andnot_ps(_mm256_set1_ps(-0.0), _mm256_sub_ps(qc, v));
            _mm256_add_ps(acc, _mm256_mul_ps(w, d))
        }
    }

    struct IpStep;
    impl Step for IpStep {
        #[inline(always)]
        unsafe fn step(acc: __m256, qc: __m256, _w: __m256, v: __m256) -> __m256 {
            if SCALAR_FMA {
                _mm256_fnmadd_ps(qc, v, acc)
            } else {
                _mm256_sub_ps(acc, _mm256_mul_ps(qc, v))
            }
        }
    }

    /// Widens 8 codes at `p` to `f32` (exact for `u8` values).
    ///
    /// # Safety
    /// Requires AVX2 and 8 readable bytes at `p`.
    #[inline(always)]
    unsafe fn widen8(p: *const u8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p as *const __m128i)))
    }

    /// # Safety
    /// Caller guarantees AVX2+FMA and `dims.end * lanes <= data.len()`,
    /// `dims.end <= qcode.len().min(weight.len())` (for non-empty dims).
    #[inline(always)]
    unsafe fn dense<S: Step, A: Sq8Accum>(
        data: &[u8],
        lanes: usize,
        qcode: &[f32],
        weight: &[f32],
        dims: Range<usize>,
        acc: &mut [f32],
    ) {
        let dp = data.as_ptr();
        let mut l = 0usize;
        while l + 32 <= lanes {
            let ap = acc.as_mut_ptr().add(l);
            let mut a0 = _mm256_loadu_ps(ap);
            let mut a1 = _mm256_loadu_ps(ap.add(8));
            let mut a2 = _mm256_loadu_ps(ap.add(16));
            let mut a3 = _mm256_loadu_ps(ap.add(24));
            for d in dims.clone() {
                let qc = _mm256_set1_ps(qcode[d]);
                let w = _mm256_set1_ps(weight[d]);
                let rp = dp.add(d * lanes + l);
                a0 = S::step(a0, qc, w, widen8(rp));
                a1 = S::step(a1, qc, w, widen8(rp.add(8)));
                a2 = S::step(a2, qc, w, widen8(rp.add(16)));
                a3 = S::step(a3, qc, w, widen8(rp.add(24)));
            }
            _mm256_storeu_ps(ap, a0);
            _mm256_storeu_ps(ap.add(8), a1);
            _mm256_storeu_ps(ap.add(16), a2);
            _mm256_storeu_ps(ap.add(24), a3);
            l += 32;
        }
        while l + 8 <= lanes {
            let ap = acc.as_mut_ptr().add(l);
            let mut a = _mm256_loadu_ps(ap);
            for d in dims.clone() {
                let qc = _mm256_set1_ps(qcode[d]);
                let w = _mm256_set1_ps(weight[d]);
                a = S::step(a, qc, w, widen8(dp.add(d * lanes + l)));
            }
            _mm256_storeu_ps(ap, a);
            l += 8;
        }
        for (lane, slot) in acc.iter_mut().enumerate().skip(l) {
            let mut a = *slot;
            for d in dims.clone() {
                a = A::accum(a, qcode[d], weight[d], *dp.add(d * lanes + lane));
            }
            *slot = a;
        }
    }

    /// Survivor kernel body: 8 survivors per pass over the dimensions,
    /// their bytes collected through a stack buffer and widened at once,
    /// each with its own offset and stride so a pass may span groups. A
    /// short last pass is padded ([`Tiled::locate_pass`]: a valid load,
    /// never stored), so there is no serial scalar tail.
    ///
    /// # Safety
    /// Caller guarantees AVX2+FMA, `p < t.n_vectors` for every position
    /// and `dims.end <= t.n_dims.min(qcode.len()).min(weight.len())`.
    #[inline(always)]
    unsafe fn gather<S: Step>(
        t: Tiled<'_, u8>,
        qcode: &[f32],
        weight: &[f32],
        dims: Range<usize>,
        positions: &[u32],
        acc: &mut [f32],
    ) {
        let dp = t.data.as_ptr();
        for (pos, acc) in positions.chunks(8).zip(acc.chunks_mut(8)) {
            let at = t.locate_pass::<8>(pos);
            let mut buf = [0.0f32; 8];
            buf[..acc.len()].copy_from_slice(acc);
            let mut a = _mm256_loadu_ps(buf.as_ptr());
            for d in dims.clone() {
                let mut codes = [0u8; 8];
                for (c, &(off, stride)) in codes.iter_mut().zip(&at) {
                    *c = *dp.add(off + d * stride);
                }
                let qc = _mm256_set1_ps(qcode[d]);
                let w = _mm256_set1_ps(weight[d]);
                a = S::step(a, qc, w, widen8(codes.as_ptr()));
            }
            _mm256_storeu_ps(buf.as_mut_ptr(), a);
            acc.copy_from_slice(&buf[..acc.len()]);
        }
    }

    /// # Safety
    /// Requires AVX2+FMA and the bounds of [`dense`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn accumulate(
        metric: Metric,
        data: &[u8],
        lanes: usize,
        qcode: &[f32],
        weight: &[f32],
        dims: Range<usize>,
        acc: &mut [f32],
    ) {
        match metric {
            Metric::L2 => dense::<L2Step, L2Sq8>(data, lanes, qcode, weight, dims, acc),
            Metric::L1 => dense::<L1Step, L1Sq8>(data, lanes, qcode, weight, dims, acc),
            Metric::NegativeIp => dense::<IpStep, IpSq8>(data, lanes, qcode, weight, dims, acc),
        }
    }

    /// # Safety
    /// Requires AVX2+FMA and the bounds of [`gather`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn accumulate_survivors(
        metric: Metric,
        t: Tiled<'_, u8>,
        qcode: &[f32],
        weight: &[f32],
        dims: Range<usize>,
        positions: &[u32],
        acc: &mut [f32],
    ) {
        match metric {
            Metric::L2 => gather::<L2Step>(t, qcode, weight, dims, positions, acc),
            Metric::L1 => gather::<L1Step>(t, qcode, weight, dims, positions, acc),
            Metric::NegativeIp => gather::<IpStep>(t, qcode, weight, dims, positions, acc),
        }
    }
}

/// Explicit NEON SQ8 kernels (aarch64). The kernels widen
/// `u8 → u16 → u32 → f32` in-register (exact for all 256 codes) and tile
/// 8 lanes (2 accumulator registers).
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{IpSq8, L1Sq8, L2Sq8, Sq8Accum};
    use crate::distance::Metric;
    use crate::kernels::dispatch::SCALAR_FMA;
    use crate::kernels::Tiled;
    use std::arch::aarch64::*;
    use std::ops::Range;

    /// One metric's 4-wide weighted step — the scalar `Sq8Accum` step,
    /// widened (`v` is the already-widened code).
    trait Step {
        /// # Safety
        /// Requires NEON (callers are `#[target_feature]` fns).
        unsafe fn step(
            acc: float32x4_t,
            qc: float32x4_t,
            w: float32x4_t,
            v: float32x4_t,
        ) -> float32x4_t;
    }

    struct L2Step;
    impl Step for L2Step {
        #[inline(always)]
        unsafe fn step(
            acc: float32x4_t,
            qc: float32x4_t,
            w: float32x4_t,
            v: float32x4_t,
        ) -> float32x4_t {
            let d = vsubq_f32(qc, v);
            if SCALAR_FMA {
                vfmaq_f32(acc, vmulq_f32(w, d), d)
            } else {
                vaddq_f32(acc, vmulq_f32(vmulq_f32(w, d), d))
            }
        }
    }

    struct L1Step;
    impl Step for L1Step {
        #[inline(always)]
        unsafe fn step(
            acc: float32x4_t,
            qc: float32x4_t,
            w: float32x4_t,
            v: float32x4_t,
        ) -> float32x4_t {
            vaddq_f32(acc, vmulq_f32(w, vabsq_f32(vsubq_f32(qc, v))))
        }
    }

    struct IpStep;
    impl Step for IpStep {
        #[inline(always)]
        unsafe fn step(
            acc: float32x4_t,
            qc: float32x4_t,
            _w: float32x4_t,
            v: float32x4_t,
        ) -> float32x4_t {
            if SCALAR_FMA {
                vfmsq_f32(acc, qc, v)
            } else {
                vsubq_f32(acc, vmulq_f32(qc, v))
            }
        }
    }

    /// Widens 8 codes at `p` into two `f32x4` registers (exact).
    ///
    /// # Safety
    /// Requires NEON and 8 readable bytes at `p`.
    #[inline(always)]
    unsafe fn widen8(p: *const u8) -> (float32x4_t, float32x4_t) {
        let wide = vmovl_u8(vld1_u8(p));
        (
            vcvtq_f32_u32(vmovl_u16(vget_low_u16(wide))),
            vcvtq_f32_u32(vmovl_u16(vget_high_u16(wide))),
        )
    }

    /// # Safety
    /// Caller guarantees NEON and `dims.end * lanes <= data.len()`,
    /// `dims.end <= qcode.len().min(weight.len())` (for non-empty dims).
    #[inline(always)]
    unsafe fn dense<S: Step, A: Sq8Accum>(
        data: &[u8],
        lanes: usize,
        qcode: &[f32],
        weight: &[f32],
        dims: Range<usize>,
        acc: &mut [f32],
    ) {
        let dp = data.as_ptr();
        let mut l = 0usize;
        while l + 8 <= lanes {
            let ap = acc.as_mut_ptr().add(l);
            let mut a0 = vld1q_f32(ap);
            let mut a1 = vld1q_f32(ap.add(4));
            for d in dims.clone() {
                let qc = vdupq_n_f32(qcode[d]);
                let w = vdupq_n_f32(weight[d]);
                let (v0, v1) = widen8(dp.add(d * lanes + l));
                a0 = S::step(a0, qc, w, v0);
                a1 = S::step(a1, qc, w, v1);
            }
            vst1q_f32(ap, a0);
            vst1q_f32(ap.add(4), a1);
            l += 8;
        }
        for (lane, slot) in acc.iter_mut().enumerate().skip(l) {
            let mut a = *slot;
            for d in dims.clone() {
                a = A::accum(a, qcode[d], weight[d], *dp.add(d * lanes + lane));
            }
            *slot = a;
        }
    }

    /// Survivor kernel body: 4 survivors per pass over the dimensions,
    /// each with its own offset and stride so a pass may span groups. A
    /// short last pass is padded ([`Tiled::locate_pass`]: a valid load,
    /// never stored), so there is no serial scalar tail.
    ///
    /// # Safety
    /// Caller guarantees NEON, `p < t.n_vectors` for every position and
    /// `dims.end <= t.n_dims.min(qcode.len()).min(weight.len())`.
    #[inline(always)]
    unsafe fn gather<S: Step>(
        t: Tiled<'_, u8>,
        qcode: &[f32],
        weight: &[f32],
        dims: Range<usize>,
        positions: &[u32],
        acc: &mut [f32],
    ) {
        let dp = t.data.as_ptr();
        for (pos, acc) in positions.chunks(4).zip(acc.chunks_mut(4)) {
            let at = t.locate_pass::<4>(pos);
            let mut buf = [0.0f32; 4];
            buf[..acc.len()].copy_from_slice(acc);
            let mut a = vld1q_f32(buf.as_ptr());
            for d in dims.clone() {
                let vals = [
                    *dp.add(at[0].0 + d * at[0].1) as f32,
                    *dp.add(at[1].0 + d * at[1].1) as f32,
                    *dp.add(at[2].0 + d * at[2].1) as f32,
                    *dp.add(at[3].0 + d * at[3].1) as f32,
                ];
                let qc = vdupq_n_f32(qcode[d]);
                let w = vdupq_n_f32(weight[d]);
                a = S::step(a, qc, w, vld1q_f32(vals.as_ptr()));
            }
            vst1q_f32(buf.as_mut_ptr(), a);
            acc.copy_from_slice(&buf[..acc.len()]);
        }
    }

    /// # Safety
    /// Requires NEON and the bounds of [`dense`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn accumulate(
        metric: Metric,
        data: &[u8],
        lanes: usize,
        qcode: &[f32],
        weight: &[f32],
        dims: Range<usize>,
        acc: &mut [f32],
    ) {
        match metric {
            Metric::L2 => dense::<L2Step, L2Sq8>(data, lanes, qcode, weight, dims, acc),
            Metric::L1 => dense::<L1Step, L1Sq8>(data, lanes, qcode, weight, dims, acc),
            Metric::NegativeIp => dense::<IpStep, IpSq8>(data, lanes, qcode, weight, dims, acc),
        }
    }

    /// # Safety
    /// Requires NEON and the bounds of [`gather`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn accumulate_survivors(
        metric: Metric,
        t: Tiled<'_, u8>,
        qcode: &[f32],
        weight: &[f32],
        dims: Range<usize>,
        positions: &[u32],
        acc: &mut [f32],
    ) {
        match metric {
            Metric::L2 => gather::<L2Step>(t, qcode, weight, dims, positions, acc),
            Metric::L1 => gather::<L1Step>(t, qcode, weight, dims, positions, acc),
            Metric::NegativeIp => gather::<IpStep>(t, qcode, weight, dims, positions, acc),
        }
    }
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

    fn setup(n: usize, d: usize, group: usize) -> (Sq8Quantizer, QuantizedPdxBlock, Vec<f32>) {
        let r = rows(n, d);
        let qz = Sq8Quantizer::fit(&r, n, d);
        let b = QuantizedPdxBlock::from_rows(&r, n, d, group, &qz);
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
            let code_rows = block.to_code_rows();
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
            let code_rows = block.to_code_rows();
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
            let vhat = block.decode_vector(v, &qz);
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
        let g = block.group(0);
        let mut acc = vec![0.0; 64];
        sq8_accumulate(&q, &g, 0..5, &mut acc, KernelPolicy::Auto);
        sq8_accumulate(&q, &g, 5..13, &mut acc, KernelPolicy::Auto);
        sq8_accumulate(&q, &g, 13..20, &mut acc, KernelPolicy::Auto);
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
        let g = block.group(0);
        let mut dense = vec![0.0; 64];
        sq8_accumulate(&q, &g, 0..16, &mut dense, KernelPolicy::Auto);
        let positions: Vec<u32> = vec![3, 17, 18, 40, 63];
        let mut compact = vec![0.0; positions.len()];
        sq8_accumulate_positions(&q, &g, 0..16, &positions, &mut compact, KernelPolicy::Auto);
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
        let g = block.group(0);
        let mut acc = vec![1.5; 10];
        sq8_accumulate(&q, &g, 2..2, &mut acc, KernelPolicy::Auto);
        assert!(acc.iter().all(|&x| x == 1.5));
    }

    #[test]
    fn simd_policy_is_bit_identical_to_scalar() {
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            // 67 lanes across a 64-group: hits the tiles and the tail.
            let (qz, block, _) = setup(67, 13, 64);
            let q = qz.prepare_query(metric, &query(13));
            let mut scalar = vec![0.0; 67];
            sq8_scan_policy(&q, &block, &mut scalar, KernelPolicy::Scalar);
            let mut simd = vec![0.0; 67];
            sq8_scan_policy(&q, &block, &mut simd, KernelPolicy::Simd);
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
        let g = block.group(0);
        let positions: Vec<u32> = vec![3, 9, 17, 18, 21, 33, 40, 47, 55, 60, 63];
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let q = qz.prepare_query(metric, &query(16));
            let mut scalar = vec![0.0; positions.len()];
            sq8_accumulate_positions(&q, &g, 0..16, &positions, &mut scalar, KernelPolicy::Scalar);
            let mut simd = vec![0.0; positions.len()];
            sq8_accumulate_positions(&q, &g, 0..16, &positions, &mut simd, KernelPolicy::Simd);
            for j in 0..positions.len() {
                assert_eq!(scalar[j].to_bits(), simd[j].to_bits(), "{metric:?} pos {j}");
            }
        }
    }
}
