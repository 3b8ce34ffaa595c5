//! The one vertical kernel nest, written once over an 8-lane vector
//! type.
//!
//! Algorithm 1 of the paper is one loop — dimension by dimension over
//! multiple vectors at a time, one accumulator per lane, no reduction —
//! and this file is the only place it is spelled with explicit SIMD:
//!
//! * [`Lane`] is the arithmetic of one accumulation step (`sub` / `mul`
//!   / `add` / `abs` / fused multiply-add). `f32` implements it, so the
//!   auto-vectorised scalar lane loops of [`pdx`](super::pdx) and
//!   [`sq8`](super::sq8) and the SIMD nests run the *same* `Step`
//!   bodies: L2 / L1 / IP are written once per element, which is why
//!   every path accumulates to identical bits.
//! * [`Lanes8`] adds what a nest needs to move eight lanes: splat, load
//!   eight elements from a slice at an index (`f32` values, or `u8`
//!   codes widened), gather eight survivors, store. Three types
//!   implement it: `Avx2` (one `__m256`), `Neon` (`[float32x4_t; 2]`)
//!   and [`Portable`] (`[f32; 8]`, plain Rust, every access a checked
//!   slice index).
//! * `dense` and `survivors` are the two nests, generic over the lane
//!   type, the stored element ([`Stored`]), the metric `Step` and the
//!   dimension iterator.
//!
//! `Portable` is the kernels' scalar survivor path, and it is also the
//! bounds proof of the other two: the nests' index arithmetic is shared,
//! so a `Portable` run that does not panic shows every index the raw
//! loads of `Avx2` / `Neon` would take is inside its slice (the unit
//! proptest below runs all three against the Algorithm-1 scalar loops).

use super::Tiled;

#[cfg(target_arch = "aarch64")]
use std::arch::aarch64::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `(offset of dimension 0, stride between dimensions)` of the eight
/// survivors that share one pass over the dimensions.
pub type Pass = [(usize, usize); 8];

/// The arithmetic of one accumulation step, on one lane (`f32`) or on
/// eight. Every operation rounds exactly like its `f32` namesake, lane
/// by lane, so a metric step written over `Lane` yields the same bits
/// on every implementation.
pub trait Lane: Copy {
    /// `self - o`.
    fn sub(self, o: Self) -> Self;
    /// `self * o`.
    fn mul(self, o: Self) -> Self;
    /// `self + o`.
    fn add(self, o: Self) -> Self;
    /// `|self|`: the sign bit cleared.
    fn abs(self) -> Self;
    /// `self * b + c`, rounded once.
    fn fmadd(self, b: Self, c: Self) -> Self;
    /// `c - self * b`, rounded once.
    fn fnmadd(self, b: Self, c: Self) -> Self;
}

impl Lane for f32 {
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn fmadd(self, b: Self, c: Self) -> Self {
        self.mul_add(b, c)
    }
    #[inline(always)]
    fn fnmadd(self, b: Self, c: Self) -> Self {
        self.mul_add(-b, c)
    }
}

/// A stored element of a PDX group: an `f32` value, or an SQ8 `u8` code
/// (`Into<f32>` is its exact widening). Sealed — a `&[E]` is a `&[f32]`
/// or a `&[u8]` and nothing else, which the SIMD loads rely on.
pub trait Stored: Copy + Into<f32> + sealed::Sealed {
    /// `true` for `u8` codes, `false` for `f32` values.
    const CODE: bool;
}
impl Stored for f32 {
    const CODE: bool = false;
}
impl Stored for u8 {
    const CODE: bool = true;
}
mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for u8 {}
}

/// Eight [`Lane`]s moved together.
///
/// # Safety
/// Every method here creates a value or touches memory, and each has the
/// same two-part contract: the implementing type's instruction set is
/// present on the running CPU (nothing for [`Portable`]), and the
/// elements it names — `src[at..at + 8]`, every `src[off + d * stride]`
/// of a [`Pass`] — are inside the slice. `Portable` checks the second
/// part itself (slice indexing, a panic on a miss); `Avx2` and `Neon` do
/// not. The [`Lane`] arithmetic on a value is safe: a value only exists
/// where one of these methods made it.
pub trait Lanes8: Lane {
    /// Whether one-element reads (scalar tail, software gather) go
    /// through slice indexing.
    const CHECKED: bool = false;

    /// All eight lanes `x`.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn splat(x: f32) -> Self;

    /// `src[at..at + 8]`; codes are widened to `f32`, which is exact for
    /// all 256 of them and so equal to the scalar `code as f32`.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn load<E: Stored>(src: &[E], at: usize) -> Self;

    /// Writes the lanes to `dst[at..at + 8]`.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn store(self, dst: &mut [f32], at: usize);

    /// Dimension `d` of the eight survivors of `pass`: lane `k` is
    /// `src[off_k + d * stride_k]`, read one by one.
    ///
    /// # Safety
    /// See the trait.
    #[inline(always)]
    unsafe fn gather<E: Stored>(src: &[E], pass: &Pass, d: usize) -> Self {
        let vals = pass.map(|(off, stride)| at::<Self, E>(src, off + d * stride));
        Self::load(&vals, 0)
    }
}

/// `src[i]`: the one-element read of the scalar tail and the software
/// gather, slice-indexed when `V` is [`Portable`].
///
/// # Safety
/// `i < src.len()` unless `V::CHECKED`.
#[inline(always)]
unsafe fn at<V: Lanes8, E: Copy>(src: &[E], i: usize) -> E {
    if V::CHECKED {
        src[i]
    } else {
        *src.get_unchecked(i)
    }
}

/// Eight lanes in plain Rust. Every access is a checked slice index, so
/// this is the implementation that compiles on every target, the scalar
/// survivor kernel, and the bounds proof of the other two (module docs).
#[derive(Clone, Copy)]
pub struct Portable([f32; 8]);

impl Portable {
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Self(std::array::from_fn(|i| f(self.0[i], o.0[i])))
    }
}

impl Lane for Portable {
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        Self(self.0.map(f32::abs))
    }
    #[inline(always)]
    fn fmadd(self, b: Self, c: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i].fmadd(b.0[i], c.0[i])))
    }
    #[inline(always)]
    fn fnmadd(self, b: Self, c: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i].fnmadd(b.0[i], c.0[i])))
    }
}

impl Lanes8 for Portable {
    const CHECKED: bool = true;

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Self([x; 8])
    }
    #[inline(always)]
    unsafe fn load<E: Stored>(src: &[E], at: usize) -> Self {
        Self(std::array::from_fn(|i| src[at + i].into()))
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32], at: usize) {
        dst[at..at + 8].copy_from_slice(&self.0);
    }
}

/// Eight lanes in one AVX2 register. Invariant: a value exists only on a
/// CPU with AVX2+FMA — the field is private and every constructor is a
/// [`Lanes8`] method, whose contract says so.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Avx2(__m256);

#[cfg(target_arch = "x86_64")]
impl Lane for Avx2 {
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: AVX2+FMA is present wherever an `Avx2` exists.
        unsafe { Self(_mm256_sub_ps(self.0, o.0)) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self(_mm256_mul_ps(self.0, o.0)) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self(_mm256_add_ps(self.0, o.0)) }
    }
    #[inline(always)]
    fn abs(self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self(_mm256_andnot_ps(_mm256_set1_ps(-0.0), self.0)) }
    }
    #[inline(always)]
    fn fmadd(self, b: Self, c: Self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self(_mm256_fmadd_ps(self.0, b.0, c.0)) }
    }
    #[inline(always)]
    fn fnmadd(self, b: Self, c: Self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self(_mm256_fnmadd_ps(self.0, b.0, c.0)) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes8 for Avx2 {
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Self(_mm256_set1_ps(x))
    }
    #[inline(always)]
    unsafe fn load<E: Stored>(src: &[E], at: usize) -> Self {
        let p = src.as_ptr().add(at);
        if E::CODE {
            let codes = _mm_loadl_epi64(p as *const __m128i);
            Self(_mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(codes)))
        } else {
            Self(_mm256_loadu_ps(p as *const f32))
        }
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32], at: usize) {
        _mm256_storeu_ps(dst.as_mut_ptr().add(at), self.0)
    }
    /// `f32` values take the hardware gather (there is none for bytes).
    /// Its element offsets are 32-bit: the caller additionally
    /// guarantees `src.len() <= i32::MAX`. `off` and `stride` do not
    /// depend on `d`, so inlined into a dimension loop they are built
    /// once per pass.
    #[inline(always)]
    unsafe fn gather<E: Stored>(src: &[E], pass: &Pass, d: usize) -> Self {
        if E::CODE {
            return Self::load(
                &pass.map(|(off, stride)| at::<Self, E>(src, off + d * stride)),
                0,
            );
        }
        let [p0, p1, p2, p3, p4, p5, p6, p7] =
            pass.map(|(off, stride)| (off as i32, stride as i32));
        let off = _mm256_setr_epi32(p0.0, p1.0, p2.0, p3.0, p4.0, p5.0, p6.0, p7.0);
        let stride = _mm256_setr_epi32(p0.1, p1.1, p2.1, p3.1, p4.1, p5.1, p6.1, p7.1);
        let idx = _mm256_add_epi32(off, _mm256_mullo_epi32(stride, _mm256_set1_epi32(d as i32)));
        Self(_mm256_i32gather_ps::<4>(src.as_ptr() as *const f32, idx))
    }
}

/// Eight lanes in two NEON registers (lanes 0–3, lanes 4–7) — a
/// line-for-line mirror of [`Avx2`], under the same invariant: a value
/// exists only on a CPU with NEON. aarch64 has no hardware gather, so
/// the provided software gather stands.
#[cfg(target_arch = "aarch64")]
#[derive(Clone, Copy)]
pub struct Neon([float32x4_t; 2]);

// NEON is a baseline feature of the hosted aarch64 targets, where these
// intrinsics need no block; the targets without it (softfloat) do.
#[cfg(target_arch = "aarch64")]
#[allow(unused_unsafe)]
impl Lane for Neon {
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: NEON is present wherever a `Neon` exists.
        unsafe { Self([vsubq_f32(self.0[0], o.0[0]), vsubq_f32(self.0[1], o.0[1])]) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self([vmulq_f32(self.0[0], o.0[0]), vmulq_f32(self.0[1], o.0[1])]) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self([vaddq_f32(self.0[0], o.0[0]), vaddq_f32(self.0[1], o.0[1])]) }
    }
    #[inline(always)]
    fn abs(self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self([vabsq_f32(self.0[0]), vabsq_f32(self.0[1])]) }
    }
    #[inline(always)]
    fn fmadd(self, b: Self, c: Self) -> Self {
        let ([a0, a1], [b0, b1], [c0, c1]) = (self.0, b.0, c.0);
        // SAFETY: as `sub`.
        unsafe { Self([vfmaq_f32(c0, a0, b0), vfmaq_f32(c1, a1, b1)]) }
    }
    #[inline(always)]
    fn fnmadd(self, b: Self, c: Self) -> Self {
        let ([a0, a1], [b0, b1], [c0, c1]) = (self.0, b.0, c.0);
        // SAFETY: as `sub`.
        unsafe { Self([vfmsq_f32(c0, a0, b0), vfmsq_f32(c1, a1, b1)]) }
    }
}

#[cfg(target_arch = "aarch64")]
impl Lanes8 for Neon {
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Self([vdupq_n_f32(x); 2])
    }
    #[inline(always)]
    unsafe fn load<E: Stored>(src: &[E], at: usize) -> Self {
        let p = src.as_ptr().add(at);
        if E::CODE {
            let codes = vmovl_u8(vld1_u8(p as *const u8));
            Self([
                vcvtq_f32_u32(vmovl_u16(vget_low_u16(codes))),
                vcvtq_f32_u32(vmovl_u16(vget_high_u16(codes))),
            ])
        } else {
            let p = p as *const f32;
            Self([vld1q_f32(p), vld1q_f32(p.add(4))])
        }
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32], at: usize) {
        let p = dst.as_mut_ptr().add(at);
        vst1q_f32(p, self.0[0]);
        vst1q_f32(p.add(4), self.0[1]);
    }
}

/// The lane type a non-`Scalar` `KernelIsa` runs on the compile target.
#[cfg(target_arch = "x86_64")]
pub type Native = Avx2;
/// The lane type a non-`Scalar` `KernelIsa` runs on the compile target.
#[cfg(target_arch = "aarch64")]
pub type Native = Neon;
/// No SIMD lane type on this target: `KernelPolicy::resolve` only ever
/// says `Scalar` here, and the call sites type-check against `Portable`.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub type Native = Portable;

/// One metric's accumulation step: `acc ⊕ term(params, v)`, where
/// `params` are the element's per-dimension query-side values — `[q]`
/// for `f32`, `[qc, w]` for an SQ8 code, so the `f32` step never sees a
/// weight. Written once per element and run at `L = f32` by the scalar
/// lane loops and at `L = V` by the nests.
pub(super) trait Step<const PARAMS: usize> {
    fn step<L: Lane>(acc: L, params: [L; PARAMS], v: L) -> L;
}

/// The metrics a [`Step`] is written for, once per element:
/// `impl Step<1>` in [`pdx`](super::pdx), `impl Step<2>` in
/// [`sq8`](super::sq8).
pub(super) struct L2;
pub(super) struct L1;
pub(super) struct Ip;

/// The dimensions a nest visits: re-iterable (every lane tile walks them
/// again), a `Range` or a mapped permutation slice.
pub(super) trait Dims: Iterator<Item = usize> + Clone {}
impl<D: Iterator<Item = usize> + Clone> Dims for D {}

/// The dense nest: `acc[l] ⊕= term(params[d], data[d * lanes + l])` for
/// every lane `l` of a group and every `d` of `dims`, in order. Lanes
/// are tiled 32 (four `V` accumulators live across the dimension loop),
/// then 8, then one by one; each lane sees `dims` in the same order
/// whichever tile holds it, so the tiling never shows in the bits.
/// `query[k][d]` is the `k`-th per-dimension parameter (indexed through
/// the slice, so a short query panics here on every `V`).
///
/// # Safety
/// `V`'s instruction set is present, `acc.len() == lanes`, and
/// `(d + 1) * lanes <= data.len()` for every `d` of `dims`. Those bound
/// every index below — and `dense::<Portable, ..>` checks each of them,
/// which is how the arithmetic itself is tested.
#[inline(always)]
unsafe fn dense<V, E, S, D, const P: usize>(
    data: &[E],
    lanes: usize,
    query: [&[f32]; P],
    dims: D,
    acc: &mut [f32],
) where
    V: Lanes8,
    E: Stored,
    S: Step<P>,
    D: Dims,
{
    let mut l = 0;
    while l + 32 <= lanes {
        let mut a: [V; 4] = std::array::from_fn(|k| V::load(acc, l + 8 * k));
        for d in dims.clone() {
            let params = query.map(|q| V::splat(q[d]));
            let row = d * lanes + l;
            for (k, a) in a.iter_mut().enumerate() {
                *a = S::step(*a, params, V::load(data, row + 8 * k));
            }
        }
        for (k, a) in a.into_iter().enumerate() {
            a.store(acc, l + 8 * k);
        }
        l += 32;
    }
    while l + 8 <= lanes {
        let mut a = V::load(acc, l);
        for d in dims.clone() {
            let params = query.map(|q| V::splat(q[d]));
            a = S::step(a, params, V::load(data, d * lanes + l));
        }
        a.store(acc, l);
        l += 8;
    }
    for (lane, slot) in acc.iter_mut().enumerate().skip(l) {
        let mut a = *slot;
        for d in dims.clone() {
            let v: f32 = at::<V, E>(data, d * lanes + lane).into();
            a = S::step(a, query.map(|q| q[d]), v);
        }
        *slot = a;
    }
}

/// The survivor nest: `acc[j] ⊕= term(params[d], value of survivor
/// positions[j] at d)` for every `d` of `dims`, in order. Eight survivors
/// share one pass over the dimensions, each with its own offset and
/// stride ([`Tiled::locate_pass`]), so a pass may span groups; a short
/// last pass is padded — the padded lanes repeat a valid read and are
/// never stored — so there is no serial tail. A survivor sees `dims` in
/// the same order as its lane of [`dense`] does, hence the same bits.
///
/// # Safety
/// `V`'s instruction set is present, [`Tiled::check_positions`] passed
/// for `positions` and `acc`, and every `d` of `dims` is below
/// `t.n_dims`: together they put each `off + d * stride` inside `t.data`.
/// `V = Avx2` over `f32` also needs `t.data.len() <= i32::MAX`.
/// `survivors::<Portable, ..>` checks each index instead.
#[inline(always)]
unsafe fn survivors<V, E, S, D, const P: usize>(
    t: Tiled<'_, E>,
    query: [&[f32]; P],
    dims: D,
    positions: &[u32],
    acc: &mut [f32],
) where
    V: Lanes8,
    E: Stored,
    S: Step<P>,
    D: Dims,
{
    for (pos, acc) in positions.chunks(8).zip(acc.chunks_mut(8)) {
        let pass = t.locate_pass::<8>(pos);
        let mut buf = [0.0f32; 8];
        buf[..acc.len()].copy_from_slice(acc);
        let mut a = V::load(&buf, 0);
        for d in dims.clone() {
            let params = query.map(|q| V::splat(q[d]));
            a = S::step(a, params, V::gather(t.data, &pass, d));
        }
        a.store(&mut buf, 0);
        acc.copy_from_slice(&buf[..acc.len()]);
    }
}

/// [`dense`] at the target's SIMD lane type: the `#[target_feature]`
/// entry the nest and every [`Lanes8`] method inline into.
///
/// # Safety
/// As [`dense`] at `V = Native`.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
#[cfg_attr(target_arch = "aarch64", target_feature(enable = "neon"))]
pub(super) unsafe fn dense_native<E: Stored, S: Step<P>, D: Dims, const P: usize>(
    data: &[E],
    lanes: usize,
    query: [&[f32]; P],
    dims: D,
    acc: &mut [f32],
) {
    dense::<Native, E, S, D, P>(data, lanes, query, dims, acc)
}

/// [`survivors`] at the target's SIMD lane type, as [`dense_native`].
///
/// # Safety
/// As [`survivors`] at `V = Native`.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
#[cfg_attr(target_arch = "aarch64", target_feature(enable = "neon"))]
pub(super) unsafe fn survivors_native<E: Stored, S: Step<P>, D: Dims, const P: usize>(
    t: Tiled<'_, E>,
    query: [&[f32]; P],
    dims: D,
    positions: &[u32],
    acc: &mut [f32],
) {
    survivors::<Native, E, S, D, P>(t, query, dims, positions, acc)
}

/// [`survivors`] at [`Portable`]: the scalar policy's survivor kernel.
pub(super) fn survivors_portable<E: Stored, S: Step<P>, D: Dims, const P: usize>(
    t: Tiled<'_, E>,
    query: [&[f32]; P],
    dims: D,
    positions: &[u32],
    acc: &mut [f32],
) {
    // SAFETY: `Portable` needs no ISA and checks every index itself.
    unsafe { survivors::<Portable, E, S, D, P>(t, query, dims, positions, acc) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;
    use crate::kernels::{
        pdx_accumulate, pdx_accumulate_survivors, sq8_accumulate, sq8_accumulate_survivors, DimSel,
        KernelPolicy,
    };
    use crate::layout::{PdxBlock, QuantizedPdxBlock, Sq8Query};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The FP-edge values of `tests/kernels.rs::value_strategy`: ordinary
    /// magnitudes plus ±0, subnormals and ±inf.
    fn value() -> impl Strategy<Value = f32> {
        (-1e6f32..1e6f32, 0usize..16).prop_map(|(v, pick)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f32::MIN_POSITIVE / 2.0,
            3 => -f32::MIN_POSITIVE / 4.0,
            4 => f32::INFINITY,
            5 => f32::NEG_INFINITY,
            _ => v,
        })
    }

    /// `(n, d, n × d values, n × d codes, 3 × d query-side values)` with
    /// `n` in 1..=130 (every tile width, every tail), 256 or 512.
    type Case = (usize, usize, Vec<f32>, Vec<u32>, Vec<f32>);

    fn case() -> impl Strategy<Value = Case> {
        (0usize..132, 1usize..14).prop_flat_map(|(pick, d)| {
            let n = [256, 512]
                .get(pick.wrapping_sub(130))
                .copied()
                .unwrap_or(pick + 1);
            let floats = |len| proptest::collection::vec(value(), len);
            let codes = proptest::collection::vec(0u32..256, n * d);
            (floats(n * d), codes, floats(3 * d)).prop_map(move |(v, c, q)| (n, d, v, c, q))
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// For one metric: `Portable` == Algorithm-1 scalar == resolved ISA,
    /// dense and survivors, both elements.
    fn check<S: Step<1> + Step<2>>(
        metric: Metric,
        (n, d, values, codes, q): &Case,
        group: usize,
        pos: &[u32],
    ) -> Result<(), TestCaseError> {
        let (n, d, lo) = (*n, *d, *d / 4);
        let codes: Vec<u8> = codes.iter().map(|&c| c as u8).collect();
        let (query, params) = (&q[..d], [&q[d..2 * d], &q[2 * d..]]);
        let (qcode, weight) = (params[0].to_vec(), params[1].to_vec());
        let q8 = Sq8Query {
            metric,
            qcode,
            weight,
            bias: 0.0,
        };
        let perm: Vec<u32> = (lo as u32..d as u32).rev().collect();
        let ids = || perm.iter().map(|&d| d as usize);

        // Dense, on one group as wide as the collection: ranged and
        // permuted `f32`, ranged codes.
        let wide = PdxBlock::from_rows(values, n, d, n);
        let wide8 = QuantizedPdxBlock::from_code_rows(&codes, n, d, n);
        let (g, g8) = (wide.group(0), wide8.group(0));
        let mut dense_p = [vec![1.5f32; n], vec![1.5f32; n], vec![1.5f32; n]];
        // SAFETY: `Portable` needs no ISA and checks every index itself.
        unsafe {
            dense::<Portable, _, S, _, 1>(g.data, n, [query], lo..d, &mut dense_p[0]);
            dense::<Portable, _, S, _, 1>(g.data, n, [query], ids(), &mut dense_p[1]);
            dense::<Portable, _, S, _, 2>(g8.data, n, params, lo..d, &mut dense_p[2]);
        }
        // Survivors, in every group of a `group`-tiled block.
        let block = PdxBlock::from_rows(values, n, d, group);
        let block8 = QuantizedPdxBlock::from_code_rows(&codes, n, d, group);
        let (t, t8) = (
            Tiled::new(block.as_slice(), n, group, d),
            Tiled::new(block8.as_slice(), n, group, d),
        );
        let mut surv_p = [
            vec![1.5f32; pos.len()],
            vec![1.5f32; pos.len()],
            vec![1.5f32; pos.len()],
        ];
        survivors_portable::<_, S, _, 1>(t, [query], lo..d, pos, &mut surv_p[0]);
        survivors_portable::<_, S, _, 1>(t, [query], ids(), pos, &mut surv_p[1]);
        survivors_portable::<_, S, _, 2>(t8, params, lo..d, pos, &mut surv_p[2]);
        for k in 0..3 {
            // A survivor's bits are those of its lane in the dense kernel.
            let lanes: Vec<f32> = pos.iter().map(|&p| dense_p[k][p as usize]).collect();
            prop_assert_eq!(bits(&surv_p[k]), bits(&lanes));
        }

        for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
            let mut dense = [vec![1.5f32; n], vec![1.5f32; n], vec![1.5f32; n]];
            pdx_accumulate(
                metric,
                &g,
                query,
                DimSel::Range(lo..d),
                &mut dense[0],
                policy,
            );
            pdx_accumulate(metric, &g, query, DimSel::Ids(&perm), &mut dense[1], policy);
            sq8_accumulate(&q8, &g8, lo..d, &mut dense[2], policy);
            let mut surv = [
                vec![1.5f32; pos.len()],
                vec![1.5f32; pos.len()],
                vec![1.5f32; pos.len()],
            ];
            let (ranged, permuted) = (DimSel::Range(lo..d), DimSel::Ids(&perm));
            pdx_accumulate_survivors(metric, &block, query, ranged, pos, &mut surv[0], policy);
            pdx_accumulate_survivors(metric, &block, query, permuted, pos, &mut surv[1], policy);
            sq8_accumulate_survivors(&q8, &block8, lo..d, pos, &mut surv[2], policy);
            for k in 0..3 {
                prop_assert!(bits(&dense[k]) == bits(&dense_p[k]), "dense {k} {policy:?}");
                prop_assert!(
                    bits(&surv[k]) == bits(&surv_p[k]),
                    "survivors {k} {policy:?}"
                );
            }
        }
        Ok(())
    }

    proptest! {
        /// The three instantiations of the nests agree bit for bit. The
        /// `Portable` one indexes through slices, so a green run is also
        /// the bounds proof of the index arithmetic (`d * lanes + l`,
        /// padded passes) that `Avx2` / `Neon` trust.
        #[test]
        fn portable_equals_scalar_equals_isa(
            c in case(),
            group_pick in 0usize..3,
            every in 1usize..24,
            salt in 0usize..1000,
        ) {
            let group = [8, 16, 64][group_pick];
            // Every `every`-th vector: one to `n` survivors, in every
            // group (the partial tail group too), short last pass.
            let pos: Vec<u32> = (salt % every.min(c.0)..c.0).step_by(every).map(|p| p as u32).collect();
            check::<L2>(Metric::L2, &c, group, &pos)?;
            check::<L1>(Metric::L1, &c, group, &pos)?;
            check::<Ip>(Metric::NegativeIp, &c, group, &pos)?;
        }
    }
}
