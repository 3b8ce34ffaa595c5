//! The vertical kernel nests, each written once over an 8-lane vector
//! type.
//!
//! Algorithm 1 of the paper is one loop — dimension by dimension over
//! multiple vectors at a time, one accumulator per lane, no reduction —
//! and this file is the only place it, and the bound pass that follows
//! each of its steps, are spelled with explicit SIMD:
//!
//! * [`Lane`] is the arithmetic of one accumulation step (`sub` / `mul`
//!   / `add` / `abs` / fused multiply-add) and of a pruner's bound.
//!   `f32` implements it, so the auto-vectorised scalar lane loops of
//!   [`pdx`](super::pdx) and [`sq8`](super::sq8) and the SIMD nests run
//!   the *same* `Step` bodies: L2 / L1 / IP are written once per
//!   element, which is why every path accumulates to identical bits —
//!   and a [`Pruner::slack`] written over it keeps the same vectors one
//!   lane or eight at a time.
//! * [`Lanes8`] adds what a nest needs to move eight lanes: splat, load
//!   eight elements from a slice at an index (`f32` values, or `u8`
//!   codes widened), gather eight survivors, store, and compare eight
//!   lanes into an 8-bit mask. Three types implement it: `Avx2` (one
//!   `__m256`), `Neon` (`[float32x4_t; 2]`) and [`Portable`] (`[f32;
//!   8]`, plain Rust, every access a checked slice index).
//! * `dense`, `survivors` and `bound` are the three nests: a tile's
//!   groups accumulated in one call, its survivors accumulated wherever
//!   they sit, and its survival bits with their count. The first two are
//!   generic over the lane type, the stored element ([`Stored`]), the
//!   metric `Step` and the dimension iterator; the third over the lane
//!   type and the [`Pruner`]. Each has one `#[target_feature]` entry.
//!
//! `Portable` is the kernels' scalar survivor and bound path, and it is
//! also the bounds proof of the other two: the nests' index arithmetic
//! is shared, so a `Portable` run that does not panic shows every index
//! the raw loads of `Avx2` / `Neon` would take is inside its slice (the
//! unit proptest below runs all three against the Algorithm-1 scalar
//! loops and a loop of [`Pruner::survives`]).

use super::Tiled;
use crate::pruning::Pruner;
use std::ops::Range;

#[cfg(target_arch = "aarch64")]
use std::arch::aarch64::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `(offset of dimension 0, stride between dimensions)` of the eight
/// survivors that share one pass over the dimensions.
pub type Pass = [(usize, usize); 8];

/// The arithmetic of one accumulation step or one bound, on one lane
/// (`f32`) or on eight. Every operation rounds exactly like its `f32` namesake, lane
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
    /// `x` in every lane. It takes `self` so that a constant is only made
    /// where a value already exists (see [`Lanes8`]'s contract).
    fn fill(self, x: f32) -> Self;
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
    #[inline(always)]
    fn fill(self, x: f32) -> Self {
        x
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
/// Every method here but `le_mask` creates a value or touches memory,
/// and each of those has the same two-part contract: the implementing type's instruction set is
/// present on the running CPU (nothing for [`Portable`]), and the
/// elements it names — `src[at..at + 8]`, every `src[off + d * stride]`
/// of a [`Pass`] — are inside the slice. `Portable` checks the second
/// part itself (slice indexing, a panic on a miss); `Avx2` and `Neon` do
/// not. The [`Lane`] arithmetic on a value and [`Lanes8::le_mask`] are
/// safe: they touch no memory, and a value only exists where one of
/// these methods made it.
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

    /// Bit `k` is lane `k` of `self <= o`, an ordered compare: a NaN on
    /// either side clears the bit, as `f32`'s `<=` does. Safe like the
    /// [`Lane`] arithmetic — it reads two values that already exist and
    /// touches no memory.
    fn le_mask(self, o: Self) -> u8;
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
    #[inline(always)]
    fn fill(self, x: f32) -> Self {
        Self([x; 8])
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
    #[inline(always)]
    fn le_mask(self, o: Self) -> u8 {
        (0..8).fold(0, |m, k| m | u8::from(self.0[k] <= o.0[k]) << k)
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
    #[inline(always)]
    fn fill(self, x: f32) -> Self {
        // SAFETY: as `sub`; `splat` touches no memory.
        unsafe { Self::splat(x) }
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
    #[inline(always)]
    fn le_mask(self, o: Self) -> u8 {
        // SAFETY: AVX2+FMA is present wherever an `Avx2` exists.
        unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(self.0, o.0)) as u8 }
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
    #[inline(always)]
    fn fill(self, x: f32) -> Self {
        // SAFETY: as `sub`; `splat` touches no memory.
        unsafe { Self::splat(x) }
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
    #[inline(always)]
    fn le_mask(self, o: Self) -> u8 {
        const WEIGHTS: [u32; 4] = [1, 2, 4, 8];
        // SAFETY: NEON is present wherever a `Neon` exists; the load
        // reads the four elements of `WEIGHTS`.
        unsafe {
            let w = vld1q_u32(WEIGHTS.as_ptr());
            // A lane of the compare is all ones or zero: masked by its
            // weight and summed across, four lanes give four bits.
            let lo = vaddvq_u32(vandq_u32(vcleq_f32(self.0[0], o.0[0]), w));
            let hi = vaddvq_u32(vandq_u32(vcleq_f32(self.0[1], o.0[1]), w));
            (lo | hi << 4) as u8
        }
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
/// every lane `l` of every group of `groups` and every `d` of `dims`, in
/// order — a whole tile's checkpoint step in one call. Within a group,
/// lanes are tiled 32 (four `V` accumulators live across the dimension
/// loop), then 8, then one by one; each lane sees `dims` in the same
/// order whichever tile holds it, so neither tiling shows in the bits.
/// `query[k][d]` is the `k`-th per-dimension parameter (indexed through
/// the slice, so a short query panics here on every `V`).
///
/// # Safety
/// `V`'s instruction set is present, [`Tiled::check_groups`] passed for
/// `groups` and `acc`, and every `d` of `dims` is below `t.n_dims`: a
/// group's buffer is then `lanes × n_dims` values (sliced, so checked)
/// and `(d + 1) * lanes` stays inside it. `dense::<Portable, ..>` checks
/// each index instead, which is how the arithmetic itself is tested.
#[inline(always)]
unsafe fn dense<V, E, S, D, const P: usize>(
    t: Tiled<'_, E>,
    groups: Range<usize>,
    query: [&[f32]; P],
    dims: D,
    acc: &mut [f32],
) where
    V: Lanes8,
    E: Stored,
    S: Step<P>,
    D: Dims,
{
    for (data, acc) in t.zip_groups(groups, acc) {
        let lanes = acc.len();
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
}

/// The bound nest: bit `l % 64` of `bits[l / 64]` says whether lane `l`
/// survives — `P::slack(cp, partials[l], aux[l]) <= P::limit(cp)`, a
/// missing `aux` standing for zeros — and the return value is the number
/// of set bits. Eight lanes a compare, a scalar tail of up to seven; the
/// bits past the last lane are zero. `slack` rounds lane by lane like
/// its `f32` instance, so the bits are those of a loop of
/// [`Pruner::survives`].
///
/// # Safety
/// `V`'s instruction set is present, `bits.len() ==
/// partials.len().div_ceil(64)` and an `aux` is as long as `partials`.
/// `bound::<Portable, _>` — the scalar policy's bound pass — checks each
/// index instead.
#[inline(always)]
pub(super) unsafe fn bound<V: Lanes8, P: Pruner>(
    cp: &P::Checkpoint,
    partials: &[f32],
    aux: Option<&[f32]>,
    bits: &mut [u64],
) -> usize {
    let (limit, mut count) = (P::limit(cp), 0);
    for (w, word) in bits.iter_mut().enumerate() {
        let end = partials.len().min(64 * w + 64);
        let (mut l, mut m) = (64 * w, 0u64);
        while l + 8 <= end {
            let p = V::load(partials, l);
            let a = aux.map_or(V::splat(0.0), |aux| V::load(aux, l));
            m |= u64::from(P::slack(cp, p, a).le_mask(V::splat(limit))) << (l % 64);
            l += 8;
        }
        for l in l..end {
            let a = aux.map_or(0.0, |aux| at::<V, f32>(aux, l));
            m |= u64::from(P::slack(cp, at::<V, f32>(partials, l), a) <= limit) << (l % 64);
        }
        *word = m;
        count += m.count_ones() as usize;
    }
    count
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
    t: Tiled<'_, E>,
    groups: Range<usize>,
    query: [&[f32]; P],
    dims: D,
    acc: &mut [f32],
) {
    dense::<Native, E, S, D, P>(t, groups, query, dims, acc)
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

/// [`bound`] at the target's SIMD lane type, as [`dense_native`].
///
/// # Safety
/// As [`bound`] at `V = Native`.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2,fma"))]
#[cfg_attr(target_arch = "aarch64", target_feature(enable = "neon"))]
pub(super) unsafe fn bound_native<P: Pruner>(
    cp: &P::Checkpoint,
    partials: &[f32],
    aux: Option<&[f32]>,
    bits: &mut [u64],
) -> usize {
    bound::<Native, P>(cp, partials, aux, bits)
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
        pdx_accumulate, pdx_accumulate_groups, pdx_accumulate_survivors, sq8_accumulate,
        sq8_accumulate_groups, sq8_accumulate_survivors, survival_bits, DimSel, KernelPolicy,
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

    /// A bound with every [`Lane`] operation a pruner's `slack` uses:
    /// `partial + |aux·(aux − c)|` against `limit`.
    struct Quadratic;

    impl Pruner for Quadratic {
        type Query = Vec<f32>;
        type Checkpoint = (f32, f32);
        const NEEDS_AUX: bool = true;

        fn metric(&self) -> Metric {
            Metric::L2
        }
        fn prepare_query(&self, query: &[f32]) -> Vec<f32> {
            query.to_vec()
        }
        fn query_vector<'q>(&self, q: &'q Vec<f32>) -> &'q [f32] {
            q
        }
        fn checkpoint(&self, q: &Vec<f32>, _: usize, _: usize, threshold: f32) -> (f32, f32) {
            (q[0], threshold)
        }
        fn slack<L: Lane>(&(c, _): &(f32, f32), partial: L, aux: L) -> L {
            partial.add(aux.mul(aux.sub(aux.fill(c))).abs())
        }
        fn limit(&(_, limit): &(f32, f32)) -> f32 {
            limit
        }
    }

    /// The bound nest: a loop of `survives` == `Portable` == resolved
    /// ISA, with and without an aux row, count included. `partials`
    /// holds ±inf and a NaN, and `limit` is one of its values, so ties
    /// and unordered compares are on every run.
    fn check_bound(partials: &[f32], c: f32) -> Result<(), TestCaseError> {
        let n = partials.len();
        let aux: Vec<f32> = partials.iter().rev().copied().collect();
        let mut partials = partials.to_vec();
        partials[n / 2] = f32::NAN;
        let cp = (c, partials[n / 3]);
        for aux in [None, Some(&aux[..])] {
            let mut want = vec![0u64; n.div_ceil(64)];
            for (l, &p) in partials.iter().enumerate() {
                let keep = Quadratic::survives(&cp, p, aux.map_or(0.0, |a| a[l]));
                want[l / 64] |= u64::from(keep) << (l % 64);
            }
            let count: u32 = want.iter().map(|w| w.count_ones()).sum();
            // `Scalar` is the nest at `Portable`, `Simd` at the resolved ISA.
            for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
                let mut got = vec![u64::MAX; 3];
                let counted = survival_bits::<Quadratic>(&cp, &partials, aux, &mut got, policy);
                prop_assert!((&got, counted) == (&want, count as usize), "{policy:?}");
            }
        }
        Ok(())
    }

    /// For one metric: `Portable` == Algorithm-1 scalar == resolved ISA,
    /// dense (one group, and every group range of a tiled block) and
    /// survivors, both elements.
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
        let (w, w8) = (Tiled::of_group(g.data, n), Tiled::of_group(g8.data, n));
        let mut dense_p = [vec![1.5f32; n], vec![1.5f32; n], vec![1.5f32; n]];
        // SAFETY: `Portable` needs no ISA and checks every index itself.
        unsafe {
            dense::<Portable, _, S, _, 1>(w, 0..1, [query], lo..d, &mut dense_p[0]);
            dense::<Portable, _, S, _, 1>(w, 0..1, [query], ids(), &mut dense_p[1]);
            dense::<Portable, _, S, _, 2>(w8, 0..1, params, lo..d, &mut dense_p[2]);
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
        // The group loop: a range of groups of the tiled block (the
        // partial tail group in it, or empty) leaves each of its lanes
        // with the bits of the one-group call, and no other lane touched.
        let groups = n.div_ceil(group);
        for range in [0..groups, groups / 2..groups, 0..groups / 2, groups..groups] {
            let lanes = (range.start * group).min(n)..(range.end * group).min(n);
            let mut tiled = [vec![1.5f32; lanes.len()], vec![1.5f32; lanes.len()]];
            // SAFETY: `Portable` needs no ISA and checks every index itself.
            unsafe {
                dense::<Portable, _, S, _, 1>(t, range.clone(), [query], ids(), &mut tiled[0]);
                dense::<Portable, _, S, _, 2>(t8, range.clone(), params, lo..d, &mut tiled[1]);
            }
            prop_assert_eq!(bits(&tiled[0]), bits(&dense_p[1][lanes.clone()]));
            prop_assert_eq!(bits(&tiled[1]), bits(&dense_p[2][lanes.clone()]));
            for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
                let mut got = [vec![1.5f32; lanes.len()], vec![1.5f32; lanes.len()]];
                let (permuted, r) = (DimSel::Ids(&perm), range.clone());
                pdx_accumulate_groups(metric, &block, r, query, permuted, &mut got[0], policy);
                sq8_accumulate_groups(&q8, &block8, range.clone(), lo..d, &mut got[1], policy);
                prop_assert!(bits(&got[0]) == bits(&tiled[0]), "{range:?} {policy:?}");
                prop_assert!(bits(&got[1]) == bits(&tiled[1]), "{range:?} {policy:?} sq8");
            }
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
        /// group buffers, padded passes, bound-pass words) that `Avx2` /
        /// `Neon` trust.
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
            check_bound(&c.2[..c.0], c.4[0])?;
            check::<L2>(Metric::L2, &c, group, &pos)?;
            check::<L1>(Metric::L1, &c, group, &pos)?;
            check::<Ip>(Metric::NegativeIp, &c, group, &pos)?;
        }
    }
}
