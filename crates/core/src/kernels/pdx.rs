//! PDX distance kernels: dimension-by-dimension over
//! multiple-vectors-at-a-time (Algorithm 1 of the paper).
//!
//! The inner loop accumulates one dimension's contribution into `lanes`
//! independent accumulators. There is no loop-carried dependency and no
//! end-of-vector reduction, so LLVM auto-vectorizes the loop for any SIMD
//! width — the paper's central performance claim. The hot path is
//! monomorphized over the group width (16/32/64/128/256/512) so the
//! accumulator array can live in registers across the dimension loop;
//! other widths fall back to a dynamic-length loop.
//!
//! ## Explicit SIMD variants and the bit-identity invariant
//!
//! Next to the scalar loops live explicit AVX2(+FMA) and NEON kernels,
//! selected at runtime by [`KernelPolicy`]. They are *bit-identical* to
//! the scalar loops by construction:
//!
//! * every lane has its own accumulator and no reduction ever happens,
//!   so the only thing that matters per lane is the *order of dimension
//!   updates* — and every variant walks dimensions in the same order;
//! * each SIMD step uses exactly the scalar step's operation sequence
//!   (`sub`/`mul`/`add` in the same association, `abs` as a sign-bit
//!   clear), with FMA used **only** when the scalar path was itself
//!   compiled with FMA contraction (`SCALAR_FMA`).
//!
//! The scalar loops are therefore the oracle: `tests/kernels.rs` pins
//! `to_bits` equality between the scalar and dispatched kernels, which
//! extends the PR 3 determinism contract (identical distance bits at any
//! thread count) to any ISA.
//!

use crate::distance::Metric;
use crate::kernels::dispatch::KernelPolicy;
use crate::kernels::{Tiled, SURVIVOR_PASS};
use crate::layout::{PdxBlock, PdxGroup};
use std::ops::Range;

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use crate::kernels::dispatch::KernelIsa;

/// One metric's accumulation step, monomorphized into the kernels.
///
/// When the compile target has FMA (e.g. `-C target-cpu=native` on any
/// modern x86), the L2/IP steps use `mul_add`, matching what a C++
/// compiler's default `-ffp-contract=fast` produces for Algorithm 1.
trait Accum {
    fn accum(acc: f32, q: f32, v: f32) -> f32;
}

struct L2Accum;
impl Accum for L2Accum {
    #[inline(always)]
    fn accum(acc: f32, q: f32, v: f32) -> f32 {
        let d = q - v;
        #[cfg(target_feature = "fma")]
        {
            d.mul_add(d, acc)
        }
        #[cfg(not(target_feature = "fma"))]
        {
            acc + d * d
        }
    }
}

struct L1Accum;
impl Accum for L1Accum {
    #[inline(always)]
    fn accum(acc: f32, q: f32, v: f32) -> f32 {
        acc + (q - v).abs()
    }
}

struct IpAccum;
impl Accum for IpAccum {
    #[inline(always)]
    fn accum(acc: f32, q: f32, v: f32) -> f32 {
        #[cfg(target_feature = "fma")]
        {
            q.mul_add(-v, acc)
        }
        #[cfg(not(target_feature = "fma"))]
        {
            acc - q * v
        }
    }
}

/// Which dimensions a kernel visits, in visit order.
#[derive(Debug, Clone)]
pub enum DimSel<'a> {
    /// A contiguous range of storage dimensions (sequential scan).
    Range(Range<usize>),
    /// Explicit storage dimensions: a slice of a query-aware permutation
    /// (PDX-BOND's orders, §5).
    Ids(&'a [u32]),
}

/// Fixed-width inner kernel: `acc[l] += term(query[d], group[d][l])` for
/// every dimension in `dims`. `L` is the compile-time lane count, letting
/// LLVM keep the whole accumulator array in vector registers across the
/// dimension loop (the "tight loop" requirement of §3).
#[inline]
fn accum_fixed<A: Accum, const L: usize>(
    data: &[f32],
    query: &[f32],
    dims: Range<usize>,
    acc: &mut [f32],
) {
    let acc: &mut [f32; L] = acc.try_into().expect("accumulator width mismatch");
    for d in dims {
        let q = query[d];
        let row: &[f32; L] = data[d * L..d * L + L]
            .try_into()
            .expect("group row width mismatch");
        for l in 0..L {
            acc[l] = A::accum(acc[l], q, row[l]);
        }
    }
}

/// Dynamic-width fallback for irregular lane counts (partial tail groups).
#[inline]
fn accum_dyn<A: Accum>(
    data: &[f32],
    lanes: usize,
    query: &[f32],
    dims: Range<usize>,
    acc: &mut [f32],
) {
    for d in dims {
        let q = query[d];
        let row = &data[d * lanes..(d + 1) * lanes];
        for (a, v) in acc.iter_mut().zip(row) {
            *a = A::accum(*a, q, *v);
        }
    }
}

#[inline]
fn accum_dispatch<A: Accum>(
    data: &[f32],
    lanes: usize,
    query: &[f32],
    dims: Range<usize>,
    acc: &mut [f32],
) {
    match lanes {
        16 => accum_fixed::<A, 16>(data, query, dims, acc),
        32 => accum_fixed::<A, 32>(data, query, dims, acc),
        64 => accum_fixed::<A, 64>(data, query, dims, acc),
        128 => accum_fixed::<A, 128>(data, query, dims, acc),
        256 => accum_fixed::<A, 256>(data, query, dims, acc),
        512 => accum_fixed::<A, 512>(data, query, dims, acc),
        _ => accum_dyn::<A>(data, lanes, query, dims, acc),
    }
}

/// Permuted-dimension scalar kernel (PDX-BOND orders).
#[inline]
fn accum_perm<A: Accum>(
    data: &[f32],
    lanes: usize,
    query: &[f32],
    dim_ids: &[u32],
    acc: &mut [f32],
) {
    for &d in dim_ids {
        let d = d as usize;
        let q = query[d];
        let row = &data[d * lanes..(d + 1) * lanes];
        for (a, v) in acc.iter_mut().zip(row) {
            *a = A::accum(*a, q, *v);
        }
    }
}

/// Scalar survivor (software-gather) kernel: `acc[j] += term(query[d],
/// value of survivor j at d)` for every `d` of `dims`, in order.
/// Survivors may sit in any group of `t`; each keeps the dimension
/// order, so its bits do not depend on how survivors are batched.
#[inline]
fn survivors_scalar<A: Accum, D>(
    t: Tiled<'_, f32>,
    query: &[f32],
    dims: D,
    positions: &[u32],
    acc: &mut [f32],
) where
    D: Iterator<Item = usize> + Clone,
{
    for (pos, acc) in positions
        .chunks(SURVIVOR_PASS)
        .zip(acc.chunks_mut(SURVIVOR_PASS))
    {
        let at = t.locate_pass::<SURVIVOR_PASS>(pos);
        for d in dims.clone() {
            let q = query[d];
            for (a, &(off, stride)) in acc.iter_mut().zip(&at) {
                *a = A::accum(*a, q, t.data[off + d * stride]);
            }
        }
    }
}

/// Bounds every dimension a SIMD kernel will touch (the scalar loops
/// bound-check lazily through slice indexing; the SIMD loops use raw
/// loads, so the whole selection is validated up front).
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn check_dim_bounds(data_len: usize, lanes: usize, query_len: usize, dims: &DimSel<'_>) {
    match dims {
        DimSel::Range(r) => {
            if r.start < r.end {
                assert!(r.end <= query_len, "dimension range exceeds query length");
                assert!(r.end * lanes <= data_len, "dimension range exceeds group");
            }
        }
        DimSel::Ids(ids) => {
            for &d in *ids {
                let d = d as usize;
                assert!(d < query_len, "dimension id exceeds query length");
                assert!((d + 1) * lanes <= data_len, "dimension id exceeds group");
            }
        }
    }
}

/// Dense accumulate over a dimension selection: SIMD when the resolved
/// ISA has an explicit kernel, scalar otherwise — bit-identical either
/// way.
fn accumulate_impl(
    metric: Metric,
    data: &[f32],
    lanes: usize,
    query: &[f32],
    dims: DimSel<'_>,
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    #[cfg(target_arch = "x86_64")]
    if kernel.resolve() == KernelIsa::Avx2 {
        check_dim_bounds(data.len(), lanes, query.len(), &dims);
        // SAFETY: AVX2+FMA presence established by `resolve`; every
        // load was bounded by `check_dim_bounds` above.
        return unsafe { avx2::accumulate(metric, data, lanes, query, dims, acc) };
    }
    #[cfg(target_arch = "aarch64")]
    if kernel.resolve() == KernelIsa::Neon {
        check_dim_bounds(data.len(), lanes, query.len(), &dims);
        // SAFETY: NEON presence established by `resolve`; every load
        // was bounded by `check_dim_bounds` above.
        return unsafe { neon::accumulate(metric, data, lanes, query, dims, acc) };
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = &kernel;
    match metric {
        Metric::L2 => scalar_sel::<L2Accum>(data, lanes, query, dims, acc),
        Metric::L1 => scalar_sel::<L1Accum>(data, lanes, query, dims, acc),
        Metric::NegativeIp => scalar_sel::<IpAccum>(data, lanes, query, dims, acc),
    }
}

#[inline]
fn scalar_sel<A: Accum>(
    data: &[f32],
    lanes: usize,
    query: &[f32],
    dims: DimSel<'_>,
    acc: &mut [f32],
) {
    match dims {
        DimSel::Range(r) => accum_dispatch::<A>(data, lanes, query, r, acc),
        DimSel::Ids(ids) => accum_perm::<A>(data, lanes, query, ids, acc),
    }
}

/// Survivor (gather) accumulate over a dimension selection — the one
/// PRUNE-phase implementation behind [`pdx_accumulate_survivors`] and
/// the per-group [`pdx_accumulate_positions_policy`] adapter. Positions,
/// dimensions and the ISA are checked once here, not per group.
fn survivors_impl(
    metric: Metric,
    t: Tiled<'_, f32>,
    query: &[f32],
    dims: DimSel<'_>,
    positions: &[u32],
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    t.check_positions(positions, acc.len());
    // The hardware gather addresses survivors with 32-bit element
    // offsets; a buffer beyond that range takes the (bit-identical)
    // scalar loop.
    #[cfg(target_arch = "x86_64")]
    if kernel.resolve() == KernelIsa::Avx2 && t.data.len() <= i32::MAX as usize {
        // With one lane `check_dim_bounds` bounds every selected
        // dimension by `n_dims` (and by the query).
        check_dim_bounds(t.n_dims, 1, query.len(), &dims);
        // SAFETY: AVX2+FMA presence established by `resolve`; positions
        // and dims bounded above, so every offset `locate` yields stays
        // inside `t.data` (the gather does not bound-check) and fits an
        // `i32`.
        return unsafe { avx2::accumulate_survivors(metric, t, query, dims, positions, acc) };
    }
    #[cfg(target_arch = "aarch64")]
    if kernel.resolve() == KernelIsa::Neon {
        check_dim_bounds(t.n_dims, 1, query.len(), &dims);
        // SAFETY: NEON presence established by `resolve`; positions and
        // dims bounded above, so every offset `locate` yields stays
        // inside `t.data`.
        return unsafe { neon::accumulate_survivors(metric, t, query, dims, positions, acc) };
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = &kernel;
    match metric {
        Metric::L2 => survivors_scalar_sel::<L2Accum>(t, query, dims, positions, acc),
        Metric::L1 => survivors_scalar_sel::<L1Accum>(t, query, dims, positions, acc),
        Metric::NegativeIp => survivors_scalar_sel::<IpAccum>(t, query, dims, positions, acc),
    }
}

#[inline]
fn survivors_scalar_sel<A: Accum>(
    t: Tiled<'_, f32>,
    query: &[f32],
    dims: DimSel<'_>,
    positions: &[u32],
    acc: &mut [f32],
) {
    match dims {
        DimSel::Range(r) => survivors_scalar::<A, _>(t, query, r, positions, acc),
        DimSel::Ids(ids) => {
            survivors_scalar::<A, _>(t, query, ids.iter().map(|&d| d as usize), positions, acc)
        }
    }
}

/// Accumulates the metric over the dimensions `dims` selects of a PDX
/// group into the per-lane accumulator array `acc` (length =
/// `group.lanes`): a storage range, or a slice of a query-aware
/// permutation (PDX-BOND's orders, §5). All policies produce
/// bit-identical accumulators (see the module docs).
///
/// # Panics
/// Panics if `acc.len() != group.lanes` or a selected dimension exceeds
/// the query or the group.
pub fn pdx_accumulate(
    metric: Metric,
    group: &PdxGroup<'_>,
    query: &[f32],
    dims: DimSel<'_>,
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    assert_eq!(acc.len(), group.lanes, "one accumulator per lane required");
    if let DimSel::Range(r) = &dims {
        assert!(r.end <= query.len(), "dimension range exceeds query length");
    }
    accumulate_impl(metric, group.data, group.lanes, query, dims, acc, kernel)
}

/// PRUNE-phase kernel: accumulates only at the surviving vectors of a
/// block, wherever in the block they sit.
///
/// `positions[j]` is a block-relative vector index (any order, any
/// group, the partial tail group included); `acc[j]` is the compacted
/// accumulator of that survivor. Eight survivors share one pass over
/// the dimensions (a hardware gather on AVX2), so a handful of survivors
/// scattered over many groups still run as independent accumulators
/// instead of one serial add chain per group (§4 PHASE 2). Every
/// survivor sees `dims` in order, so all policies — and the per-group
/// [`pdx_accumulate_positions_policy`], which adapts onto this — produce
/// identical bits.
///
/// # Panics
/// Panics if `acc.len() != positions.len()`, a position is not a vector
/// of `block`, or a selected dimension exceeds the block's or the
/// query's dimensionality.
pub fn pdx_accumulate_survivors(
    metric: Metric,
    block: &PdxBlock,
    query: &[f32],
    dims: DimSel<'_>,
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
    survivors_impl(metric, t, query, dims, positions, acc, kernel)
}

/// Per-group form of [`pdx_accumulate_survivors`]: `positions[j]` is a
/// lane index inside this group.
pub fn pdx_accumulate_positions_policy(
    metric: Metric,
    group: &PdxGroup<'_>,
    query: &[f32],
    dims: DimSel<'_>,
    positions: &[u32],
    acc: &mut [f32],
    kernel: KernelPolicy,
) {
    let t = Tiled::of_group(group.data, group.lanes);
    survivors_impl(metric, t, query, dims, positions, acc, kernel)
}

/// [`pdx_accumulate_positions_policy`] over a storage range with the
/// default [`KernelPolicy::Auto`] dispatch.
pub fn pdx_accumulate_positions(
    metric: Metric,
    group: &PdxGroup<'_>,
    query: &[f32],
    dims: Range<usize>,
    positions: &[u32],
    acc: &mut [f32],
) {
    let dims = DimSel::Range(dims);
    pdx_accumulate_positions_policy(
        metric,
        group,
        query,
        dims,
        positions,
        acc,
        KernelPolicy::Auto,
    )
}

/// Full linear scan of a block: fills `out[i]` with the distance of
/// vector `i` (block order) to `query`.
///
/// # Panics
/// Panics if `out.len() != block.len()` or the query width differs.
pub fn pdx_scan(metric: Metric, block: &PdxBlock, query: &[f32], out: &mut [f32]) {
    pdx_scan_policy(metric, block, query, out, KernelPolicy::Auto)
}

/// [`pdx_scan`] with an explicit [`KernelPolicy`].
pub fn pdx_scan_policy(
    metric: Metric,
    block: &PdxBlock,
    query: &[f32],
    out: &mut [f32],
    kernel: KernelPolicy,
) {
    assert_eq!(out.len(), block.len(), "one output per vector required");
    assert_eq!(query.len(), block.dims(), "query dimensionality mismatch");
    out.fill(0.0);
    for g in block.groups() {
        let acc = &mut out[g.start_vector..g.start_vector + g.lanes];
        pdx_accumulate(
            metric,
            &g,
            query,
            DimSel::Range(0..block.dims()),
            acc,
            kernel,
        );
    }
}

/// Explicit AVX2(+FMA) kernels. Lane tiling: 32 lanes (4 × 256-bit
/// accumulator registers) held live across the dimension loop, then
/// 8-wide, then a scalar tail — every lane still sees its dimension
/// updates in the same order as the scalar loop, so the results are
/// bit-identical (the SIMD steps mirror the scalar op sequence exactly,
/// FMA only when `SCALAR_FMA`).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Accum, DimSel, IpAccum, L1Accum, L2Accum};
    use crate::distance::Metric;
    use crate::kernels::dispatch::SCALAR_FMA;
    use crate::kernels::Tiled;
    use std::arch::x86_64::*;

    /// One metric's 8-wide step — the scalar `Accum` step, widened.
    trait Step {
        /// # Safety
        /// Requires AVX2+FMA (callers are `#[target_feature]` fns).
        unsafe fn step(acc: __m256, q: __m256, v: __m256) -> __m256;
    }

    struct L2Step;
    impl Step for L2Step {
        #[inline(always)]
        unsafe fn step(acc: __m256, q: __m256, v: __m256) -> __m256 {
            let d = _mm256_sub_ps(q, v);
            if SCALAR_FMA {
                _mm256_fmadd_ps(d, d, acc)
            } else {
                _mm256_add_ps(acc, _mm256_mul_ps(d, d))
            }
        }
    }

    struct L1Step;
    impl Step for L1Step {
        #[inline(always)]
        unsafe fn step(acc: __m256, q: __m256, v: __m256) -> __m256 {
            // abs = clear the sign bit, exactly like `f32::abs`.
            let d = _mm256_andnot_ps(_mm256_set1_ps(-0.0), _mm256_sub_ps(q, v));
            _mm256_add_ps(acc, d)
        }
    }

    struct IpStep;
    impl Step for IpStep {
        #[inline(always)]
        unsafe fn step(acc: __m256, q: __m256, v: __m256) -> __m256 {
            if SCALAR_FMA {
                // q.mul_add(-v, acc) == fnmadd(q, v, acc): one rounding.
                _mm256_fnmadd_ps(q, v, acc)
            } else {
                _mm256_sub_ps(acc, _mm256_mul_ps(q, v))
            }
        }
    }

    /// Dense kernel body, generic over the step and a re-iterable
    /// dimension sequence (`Range` or a permutation slice).
    ///
    /// # Safety
    /// Caller guarantees AVX2+FMA and that every `d` in `dims` satisfies
    /// `d < query.len()` and `(d + 1) * lanes <= data.len()`.
    #[inline(always)]
    unsafe fn dense<S: Step, A: Accum, D>(
        data: &[f32],
        lanes: usize,
        query: &[f32],
        dims: D,
        acc: &mut [f32],
    ) where
        D: Iterator<Item = usize> + Clone,
    {
        let dp = data.as_ptr();
        let mut l = 0usize;
        while l + 32 <= lanes {
            let ap = acc.as_mut_ptr().add(l);
            let mut a0 = _mm256_loadu_ps(ap);
            let mut a1 = _mm256_loadu_ps(ap.add(8));
            let mut a2 = _mm256_loadu_ps(ap.add(16));
            let mut a3 = _mm256_loadu_ps(ap.add(24));
            for d in dims.clone() {
                let q = _mm256_set1_ps(query[d]);
                let rp = dp.add(d * lanes + l);
                a0 = S::step(a0, q, _mm256_loadu_ps(rp));
                a1 = S::step(a1, q, _mm256_loadu_ps(rp.add(8)));
                a2 = S::step(a2, q, _mm256_loadu_ps(rp.add(16)));
                a3 = S::step(a3, q, _mm256_loadu_ps(rp.add(24)));
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
                let v = _mm256_loadu_ps(dp.add(d * lanes + l));
                a = S::step(a, _mm256_set1_ps(query[d]), v);
            }
            _mm256_storeu_ps(ap, a);
            l += 8;
        }
        for (lane, slot) in acc.iter_mut().enumerate().skip(l) {
            let mut a = *slot;
            for d in dims.clone() {
                a = A::accum(a, query[d], *dp.add(d * lanes + lane));
            }
            *slot = a;
        }
    }

    /// Survivor kernel body: 8 survivors per pass over the dimensions
    /// via a hardware gather, each with its own offset and stride so a
    /// pass may span groups. A short last pass is padded
    /// ([`Tiled::locate_pass`]) — a padded lane repeats a valid load and
    /// is never stored — so there is no serial scalar tail.
    ///
    /// # Safety
    /// Caller guarantees AVX2+FMA, `p < t.n_vectors` for every position,
    /// `d < query.len().min(t.n_dims)` for every `d` in `dims`, and
    /// `t.data.len() <= i32::MAX`.
    #[inline(always)]
    unsafe fn gather<S: Step, D>(
        t: Tiled<'_, f32>,
        query: &[f32],
        dims: D,
        positions: &[u32],
        acc: &mut [f32],
    ) where
        D: Iterator<Item = usize> + Clone,
    {
        let dp = t.data.as_ptr();
        for (pos, acc) in positions.chunks(8).zip(acc.chunks_mut(8)) {
            let at = t.locate_pass::<8>(pos);
            let off = at.map(|(off, _)| off as i32);
            let stride = at.map(|(_, stride)| stride as i32);
            let mut buf = [0.0f32; 8];
            buf[..acc.len()].copy_from_slice(acc);
            let off = _mm256_loadu_si256(off.as_ptr() as *const __m256i);
            let stride = _mm256_loadu_si256(stride.as_ptr() as *const __m256i);
            let mut a = _mm256_loadu_ps(buf.as_ptr());
            for d in dims.clone() {
                let idx =
                    _mm256_add_epi32(off, _mm256_mullo_epi32(stride, _mm256_set1_epi32(d as i32)));
                let v = _mm256_i32gather_ps::<4>(dp, idx);
                a = S::step(a, _mm256_set1_ps(query[d]), v);
            }
            _mm256_storeu_ps(buf.as_mut_ptr(), a);
            acc.copy_from_slice(&buf[..acc.len()]);
        }
    }

    /// # Safety
    /// Requires AVX2+FMA and the dimension bounds of [`dense`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn accumulate(
        metric: Metric,
        data: &[f32],
        lanes: usize,
        query: &[f32],
        dims: DimSel<'_>,
        acc: &mut [f32],
    ) {
        match (metric, dims) {
            (Metric::L2, DimSel::Range(r)) => {
                dense::<L2Step, L2Accum, _>(data, lanes, query, r, acc)
            }
            (Metric::L1, DimSel::Range(r)) => {
                dense::<L1Step, L1Accum, _>(data, lanes, query, r, acc)
            }
            (Metric::NegativeIp, DimSel::Range(r)) => {
                dense::<IpStep, IpAccum, _>(data, lanes, query, r, acc)
            }
            (Metric::L2, DimSel::Ids(ids)) => dense::<L2Step, L2Accum, _>(
                data,
                lanes,
                query,
                ids.iter().map(|&d| d as usize),
                acc,
            ),
            (Metric::L1, DimSel::Ids(ids)) => dense::<L1Step, L1Accum, _>(
                data,
                lanes,
                query,
                ids.iter().map(|&d| d as usize),
                acc,
            ),
            (Metric::NegativeIp, DimSel::Ids(ids)) => dense::<IpStep, IpAccum, _>(
                data,
                lanes,
                query,
                ids.iter().map(|&d| d as usize),
                acc,
            ),
        }
    }

    /// # Safety
    /// Requires AVX2+FMA and the bounds of [`gather`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn accumulate_survivors(
        metric: Metric,
        t: Tiled<'_, f32>,
        query: &[f32],
        dims: DimSel<'_>,
        positions: &[u32],
        acc: &mut [f32],
    ) {
        match (metric, dims) {
            (Metric::L2, DimSel::Range(r)) => gather::<L2Step, _>(t, query, r, positions, acc),
            (Metric::L1, DimSel::Range(r)) => gather::<L1Step, _>(t, query, r, positions, acc),
            (Metric::NegativeIp, DimSel::Range(r)) => {
                gather::<IpStep, _>(t, query, r, positions, acc)
            }
            (Metric::L2, DimSel::Ids(ids)) => {
                gather::<L2Step, _>(t, query, ids.iter().map(|&d| d as usize), positions, acc)
            }
            (Metric::L1, DimSel::Ids(ids)) => {
                gather::<L1Step, _>(t, query, ids.iter().map(|&d| d as usize), positions, acc)
            }
            (Metric::NegativeIp, DimSel::Ids(ids)) => {
                gather::<IpStep, _>(t, query, ids.iter().map(|&d| d as usize), positions, acc)
            }
        }
    }
}

/// Explicit NEON kernels (aarch64). Lane tiling: 16 lanes (4 × 128-bit
/// accumulator registers), then 4-wide, then a scalar tail. aarch64 has
/// no hardware gather, so the positions kernel loads survivors through a
/// small stack buffer. Bit-identical to the scalar loops for the same
/// reasons as the AVX2 path (note `SCALAR_FMA` is `false` unless the
/// crate was compiled with an `fma` target feature, so these kernels
/// normally use unfused mul/add like the scalar oracle).
///
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{Accum, DimSel, IpAccum, L1Accum, L2Accum};
    use crate::distance::Metric;
    use crate::kernels::dispatch::SCALAR_FMA;
    use crate::kernels::Tiled;
    use std::arch::aarch64::*;

    /// One metric's 4-wide step — the scalar `Accum` step, widened.
    trait Step {
        /// # Safety
        /// Requires NEON (callers are `#[target_feature]` fns).
        unsafe fn step(acc: float32x4_t, q: float32x4_t, v: float32x4_t) -> float32x4_t;
    }

    struct L2Step;
    impl Step for L2Step {
        #[inline(always)]
        unsafe fn step(acc: float32x4_t, q: float32x4_t, v: float32x4_t) -> float32x4_t {
            let d = vsubq_f32(q, v);
            if SCALAR_FMA {
                vfmaq_f32(acc, d, d)
            } else {
                vaddq_f32(acc, vmulq_f32(d, d))
            }
        }
    }

    struct L1Step;
    impl Step for L1Step {
        #[inline(always)]
        unsafe fn step(acc: float32x4_t, q: float32x4_t, v: float32x4_t) -> float32x4_t {
            vaddq_f32(acc, vabsq_f32(vsubq_f32(q, v)))
        }
    }

    struct IpStep;
    impl Step for IpStep {
        #[inline(always)]
        unsafe fn step(acc: float32x4_t, q: float32x4_t, v: float32x4_t) -> float32x4_t {
            if SCALAR_FMA {
                vfmsq_f32(acc, q, v)
            } else {
                vsubq_f32(acc, vmulq_f32(q, v))
            }
        }
    }

    /// # Safety
    /// Caller guarantees NEON and that every `d` in `dims` satisfies
    /// `d < query.len()` and `(d + 1) * lanes <= data.len()`.
    #[inline(always)]
    unsafe fn dense<S: Step, A: Accum, D>(
        data: &[f32],
        lanes: usize,
        query: &[f32],
        dims: D,
        acc: &mut [f32],
    ) where
        D: Iterator<Item = usize> + Clone,
    {
        let dp = data.as_ptr();
        let mut l = 0usize;
        while l + 16 <= lanes {
            let ap = acc.as_mut_ptr().add(l);
            let mut a0 = vld1q_f32(ap);
            let mut a1 = vld1q_f32(ap.add(4));
            let mut a2 = vld1q_f32(ap.add(8));
            let mut a3 = vld1q_f32(ap.add(12));
            for d in dims.clone() {
                let q = vdupq_n_f32(query[d]);
                let rp = dp.add(d * lanes + l);
                a0 = S::step(a0, q, vld1q_f32(rp));
                a1 = S::step(a1, q, vld1q_f32(rp.add(4)));
                a2 = S::step(a2, q, vld1q_f32(rp.add(8)));
                a3 = S::step(a3, q, vld1q_f32(rp.add(12)));
            }
            vst1q_f32(ap, a0);
            vst1q_f32(ap.add(4), a1);
            vst1q_f32(ap.add(8), a2);
            vst1q_f32(ap.add(12), a3);
            l += 16;
        }
        while l + 4 <= lanes {
            let ap = acc.as_mut_ptr().add(l);
            let mut a = vld1q_f32(ap);
            for d in dims.clone() {
                a = S::step(a, vdupq_n_f32(query[d]), vld1q_f32(dp.add(d * lanes + l)));
            }
            vst1q_f32(ap, a);
            l += 4;
        }
        for (lane, slot) in acc.iter_mut().enumerate().skip(l) {
            let mut a = *slot;
            for d in dims.clone() {
                a = A::accum(a, query[d], *dp.add(d * lanes + lane));
            }
            *slot = a;
        }
    }

    /// Survivor kernel body: 4 survivors per pass over the dimensions,
    /// loaded through a small stack buffer (no hardware gather), each
    /// with its own offset and stride so a pass may span groups. A short
    /// last pass is padded ([`Tiled::locate_pass`]: a valid load, never
    /// stored), so there is no serial scalar tail.
    ///
    /// # Safety
    /// Caller guarantees NEON, `p < t.n_vectors` for every position and
    /// `d < query.len().min(t.n_dims)` for every `d` in `dims`.
    #[inline(always)]
    unsafe fn gather<S: Step, D>(
        t: Tiled<'_, f32>,
        query: &[f32],
        dims: D,
        positions: &[u32],
        acc: &mut [f32],
    ) where
        D: Iterator<Item = usize> + Clone,
    {
        let dp = t.data.as_ptr();
        for (pos, acc) in positions.chunks(4).zip(acc.chunks_mut(4)) {
            let at = t.locate_pass::<4>(pos);
            let mut buf = [0.0f32; 4];
            buf[..acc.len()].copy_from_slice(acc);
            let mut a = vld1q_f32(buf.as_ptr());
            for d in dims.clone() {
                let vals = [
                    *dp.add(at[0].0 + d * at[0].1),
                    *dp.add(at[1].0 + d * at[1].1),
                    *dp.add(at[2].0 + d * at[2].1),
                    *dp.add(at[3].0 + d * at[3].1),
                ];
                a = S::step(a, vdupq_n_f32(query[d]), vld1q_f32(vals.as_ptr()));
            }
            vst1q_f32(buf.as_mut_ptr(), a);
            acc.copy_from_slice(&buf[..acc.len()]);
        }
    }

    /// # Safety
    /// Requires NEON and the dimension bounds of [`dense`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn accumulate(
        metric: Metric,
        data: &[f32],
        lanes: usize,
        query: &[f32],
        dims: DimSel<'_>,
        acc: &mut [f32],
    ) {
        match (metric, dims) {
            (Metric::L2, DimSel::Range(r)) => {
                dense::<L2Step, L2Accum, _>(data, lanes, query, r, acc)
            }
            (Metric::L1, DimSel::Range(r)) => {
                dense::<L1Step, L1Accum, _>(data, lanes, query, r, acc)
            }
            (Metric::NegativeIp, DimSel::Range(r)) => {
                dense::<IpStep, IpAccum, _>(data, lanes, query, r, acc)
            }
            (Metric::L2, DimSel::Ids(ids)) => dense::<L2Step, L2Accum, _>(
                data,
                lanes,
                query,
                ids.iter().map(|&d| d as usize),
                acc,
            ),
            (Metric::L1, DimSel::Ids(ids)) => dense::<L1Step, L1Accum, _>(
                data,
                lanes,
                query,
                ids.iter().map(|&d| d as usize),
                acc,
            ),
            (Metric::NegativeIp, DimSel::Ids(ids)) => dense::<IpStep, IpAccum, _>(
                data,
                lanes,
                query,
                ids.iter().map(|&d| d as usize),
                acc,
            ),
        }
    }

    /// # Safety
    /// Requires NEON and the bounds of [`gather`].
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn accumulate_survivors(
        metric: Metric,
        t: Tiled<'_, f32>,
        query: &[f32],
        dims: DimSel<'_>,
        positions: &[u32],
        acc: &mut [f32],
    ) {
        match (metric, dims) {
            (Metric::L2, DimSel::Range(r)) => gather::<L2Step, _>(t, query, r, positions, acc),
            (Metric::L1, DimSel::Range(r)) => gather::<L1Step, _>(t, query, r, positions, acc),
            (Metric::NegativeIp, DimSel::Range(r)) => {
                gather::<IpStep, _>(t, query, r, positions, acc)
            }
            (Metric::L2, DimSel::Ids(ids)) => {
                gather::<L2Step, _>(t, query, ids.iter().map(|&d| d as usize), positions, acc)
            }
            (Metric::L1, DimSel::Ids(ids)) => {
                gather::<L1Step, _>(t, query, ids.iter().map(|&d| d as usize), positions, acc)
            }
            (Metric::NegativeIp, DimSel::Ids(ids)) => {
                gather::<IpStep, _>(t, query, ids.iter().map(|&d| d as usize), positions, acc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance_scalar;
    use crate::kernels::KernelPolicy::Auto;

    fn block_and_rows(n: usize, d: usize, group: usize) -> (PdxBlock, Vec<f32>) {
        let rows: Vec<f32> = (0..n * d)
            .map(|i| ((i * 37 % 101) as f32) * 0.25 - 12.0)
            .collect();
        (PdxBlock::from_rows(&rows, n, d, group), rows)
    }

    fn query(d: usize) -> Vec<f32> {
        (0..d).map(|i| (i as f32 * 0.77).sin() * 3.0).collect()
    }

    #[test]
    fn scan_matches_scalar_reference_all_metrics() {
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let (block, rows) = block_and_rows(150, 17, 64);
            let q = query(17);
            let mut out = vec![0.0; 150];
            pdx_scan(metric, &block, &q, &mut out);
            for v in 0..150 {
                let want = distance_scalar(metric, &q, &rows[v * 17..(v + 1) * 17]);
                assert!(
                    (out[v] - want).abs() <= want.abs().max(1.0) * 1e-5,
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
            let (block, rows) = block_and_rows(n, 9, group);
            let q = query(9);
            let mut out = vec![0.0; n];
            pdx_scan(Metric::L2, &block, &q, &mut out);
            for v in (0..n).step_by(53) {
                let want = distance_scalar(Metric::L2, &q, &rows[v * 9..(v + 1) * 9]);
                assert!(
                    (out[v] - want).abs() <= want.max(1.0) * 1e-5,
                    "group {group} vector {v}"
                );
            }
        }
    }

    #[test]
    fn partial_ranges_compose_to_full_distance() {
        let (block, rows) = block_and_rows(64, 20, 64);
        let q = query(20);
        let g = block.group(0);
        let mut acc = vec![0.0; 64];
        pdx_accumulate(Metric::L2, &g, &q, DimSel::Range(0..5), &mut acc, Auto);
        pdx_accumulate(Metric::L2, &g, &q, DimSel::Range(5..13), &mut acc, Auto);
        pdx_accumulate(Metric::L2, &g, &q, DimSel::Range(13..20), &mut acc, Auto);
        for v in 0..64 {
            let want = distance_scalar(Metric::L2, &q, &rows[v * 20..(v + 1) * 20]);
            assert!((acc[v] - want).abs() <= want.max(1.0) * 1e-5);
        }
    }

    #[test]
    fn permuted_accumulation_matches_sequential() {
        let (block, _) = block_and_rows(64, 12, 64);
        let q = query(12);
        let g = block.group(0);
        let mut seq = vec![0.0; 64];
        pdx_accumulate(Metric::L1, &g, &q, DimSel::Range(0..12), &mut seq, Auto);
        let perm: Vec<u32> = [7u32, 0, 11, 3, 4, 10, 1, 2, 9, 5, 8, 6].to_vec();
        let mut per = vec![0.0; 64];
        pdx_accumulate(Metric::L1, &g, &q, DimSel::Ids(&perm), &mut per, Auto);
        for (s, p) in seq.iter().zip(&per) {
            assert!((s - p).abs() <= s.max(1.0) * 1e-5);
        }
    }

    #[test]
    fn positions_kernel_matches_dense_kernel() {
        let (block, _) = block_and_rows(64, 16, 64);
        let q = query(16);
        let g = block.group(0);
        let mut dense = vec![0.0; 64];
        pdx_accumulate(Metric::L2, &g, &q, DimSel::Range(0..16), &mut dense, Auto);
        let positions: Vec<u32> = vec![3, 17, 18, 40, 63];
        let mut compact = vec![0.0; positions.len()];
        pdx_accumulate_positions(Metric::L2, &g, &q, 0..16, &positions, &mut compact);
        for (j, &p) in positions.iter().enumerate() {
            assert!((compact[j] - dense[p as usize]).abs() <= dense[p as usize].max(1.0) * 1e-5);
        }
    }

    #[test]
    fn positions_permuted_matches_dense() {
        let (block, _) = block_and_rows(40, 10, 64);
        let q = query(10);
        let g = block.group(0);
        let mut dense = vec![0.0; 40];
        pdx_accumulate(Metric::L2, &g, &q, DimSel::Range(0..10), &mut dense, Auto);
        let perm: Vec<u32> = (0..10u32).rev().collect();
        let positions: Vec<u32> = vec![0, 9, 39];
        let mut compact = vec![0.0; 3];
        let dims = DimSel::Ids(&perm);
        pdx_accumulate_positions_policy(Metric::L2, &g, &q, dims, &positions, &mut compact, Auto);
        for (j, &p) in positions.iter().enumerate() {
            assert!((compact[j] - dense[p as usize]).abs() <= dense[p as usize].max(1.0) * 1e-5);
        }
    }

    #[test]
    fn empty_dimension_range_is_noop() {
        let (block, _) = block_and_rows(10, 4, 64);
        let g = block.group(0);
        let mut acc = vec![1.5; 10];
        pdx_accumulate(
            Metric::L2,
            &g,
            &query(4),
            DimSel::Range(2..2),
            &mut acc,
            Auto,
        );
        assert!(acc.iter().all(|&x| x == 1.5));
    }

    #[test]
    fn simd_policy_is_bit_identical_to_scalar() {
        // The structural invariant (per-lane accumulators, same op
        // sequence) makes every policy produce the same bits; the full
        // sweep lives in tests/kernels.rs, this is the smoke pin.
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            // 67 lanes: one 64-lane group plus a 3-lane tail group,
            // exercising every SIMD tile width and the scalar tail.
            let (block, _) = block_and_rows(67, 13, 64);
            let q = query(13);
            let mut scalar = vec![0.0; 67];
            pdx_scan_policy(metric, &block, &q, &mut scalar, KernelPolicy::Scalar);
            let mut simd = vec![0.0; 67];
            pdx_scan_policy(metric, &block, &q, &mut simd, KernelPolicy::Simd);
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
        let (block, _) = block_and_rows(64, 16, 64);
        let q = query(16);
        let g = block.group(0);
        // 11 survivors: one 8-wide gather plus a 3-wide scalar tail.
        let positions: Vec<u32> = vec![3, 9, 17, 18, 21, 33, 40, 47, 55, 60, 63];
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let mut scalar = vec![0.0; positions.len()];
            pdx_accumulate_positions_policy(
                metric,
                &g,
                &q,
                DimSel::Range(0..16),
                &positions,
                &mut scalar,
                KernelPolicy::Scalar,
            );
            let mut simd = vec![0.0; positions.len()];
            pdx_accumulate_positions_policy(
                metric,
                &g,
                &q,
                DimSel::Range(0..16),
                &positions,
                &mut simd,
                KernelPolicy::Simd,
            );
            for j in 0..positions.len() {
                assert_eq!(scalar[j].to_bits(), simd[j].to_bits(), "{metric:?} pos {j}");
            }
        }
    }
}
