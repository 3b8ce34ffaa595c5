//! The vertical kernel nests, each written once over a lane-width-generic
//! vector type.
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
//!   lane or sixteen at a time.
//! * [`Lanes<N>`] adds what a nest needs to move `N` lanes: splat, load
//!   `N` elements from a slice at an index (`f32` values, or `u8` codes
//!   widened) or only its first `n < N` (a group narrower than the
//!   register, masked loads and stores on AVX-512 and AVX2), gather `N`
//!   survivors, store, and compare `N` lanes into the low `N` bits of a
//!   mask. Four types implement it: `Avx512` (one `__m512`, `N = 16`),
//!   `Avx2` (one `__m256`, `N = 8`), `Neon` (`[float32x4_t; 2]`, `N = 8`)
//!   and [`Portable<N>`] (`[f32; N]`, plain Rust, every access a checked
//!   slice index).
//! * `dense`, `survivors` and `bound` are the three nests: a tile's
//!   groups accumulated in one call, its survivors accumulated wherever
//!   they sit, and its survival bits with their count. `dense` also runs
//!   a block of `Q` queries a walk of the dimensions, sharing every load
//!   of a register of vectors among them: `dense_band` is that form over
//!   a whole block for a band of queries in one storage order, which is
//!   how a band is routed through an IVF's centroids. The first two are
//!   generic over the lane width and type, the stored element
//!   ([`Stored`]), the metric `Step` and the dimension iterator; the
//!   third over the lane width and type and the [`Pruner`]. Each (nest,
//!   ISA) pair that runs has one `#[target_feature]` shim, and `dense_on`
//!   / `dense_band_on` / `survivors_on` / `bound_on` call the shim of a
//!   resolved [`KernelIsa`]. The dense and bound nests run at the ISA's
//!   full width; survivor passes are 8 lanes on every ISA, because a pass
//!   costs one gathered value per lane whether or not the lane holds a
//!   survivor (`survivors_on`).
//!
//! A lane never sees another lane, or another query, so the width and
//! the band only decide how many run side by side: every lane runs the
//! same `Step` bodies in the same dimension order at 8 lanes, at 16, at
//! one, or beside three other queries, and the bits cannot move with the
//! register or the band.
//!
//! `Portable` is the kernels' scalar survivor and bound path, and it is
//! also the bounds proof of the other three: the nests' index arithmetic
//! is shared per width, so a `Portable<8>` / `Portable<16>` run that does
//! not panic shows every index the raw loads and gathers of `Avx2` /
//! `Neon` / `Avx512` would take is inside its slice (the unit proptest
//! below runs them all against the Algorithm-1 scalar loops and a loop
//! of [`Pruner::survives`]).

use super::dispatch::KernelIsa;
use super::Tiled;
use crate::pruning::Pruner;
use std::ops::Range;

#[cfg(target_arch = "aarch64")]
use std::arch::aarch64::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `(offset of dimension 0, stride between dimensions)` of the `N`
/// survivors that share one pass over the dimensions.
pub type Pass<const N: usize> = [(usize, usize); N];

/// The arithmetic of one accumulation step or one bound, on one lane
/// (`f32`) or on many. Every operation rounds exactly like its `f32`
/// namesake, lane by lane, so a metric step written over `Lane` yields
/// the same bits on every implementation.
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
    /// where a value already exists (see [`Lanes`]'s contract).
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

/// `N` [`Lane`]s moved together (`N` divides 64).
///
/// # Safety
/// Every method here but `le_mask` creates a value or touches memory,
/// and each of those has the same two-part contract: the implementing
/// type's instruction set is present on the running CPU (nothing for
/// [`Portable`]), and the elements it names — `src[at..at + N]`, every
/// `src[off + d * stride]` of a [`Pass`] — are inside the slice.
/// `Portable` checks the second part itself (slice indexing, a panic on
/// a miss); `Avx512`, `Avx2` and `Neon` do not. The [`Lane`] arithmetic
/// on a value and [`Lanes::le_mask`] are safe: they touch no memory, and
/// a value only exists where one of these methods made it.
pub trait Lanes<const N: usize>: Lane {
    /// Whether one-element reads (a group narrower than `N`, the bound
    /// pass's last lanes, the software gather) go through slice indexing.
    const CHECKED: bool = false;

    /// All `N` lanes `x`.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn splat(x: f32) -> Self;

    /// `src[at..at + N]`; codes are widened to `f32`, which is exact for
    /// all 256 of them and so equal to the scalar `code as f32`.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn load<E: Stored>(src: &[E], at: usize) -> Self;

    /// Writes the lanes to `dst[at..at + N]`.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn store(self, dst: &mut [f32], at: usize);

    /// `src[at..at + n]` in the first `n < N` lanes and zeros in the
    /// others, as [`Lanes::load`]: the register of a group narrower than
    /// `N`. The elements it names are `src[at..at + n]`; by default they
    /// go through a stack buffer, one checked read each for `Portable`.
    ///
    /// # Safety
    /// See the trait.
    #[inline(always)]
    unsafe fn load_first<E: Stored>(src: &[E], at: usize, n: usize) -> Self {
        buffered::<N, Self, E>(src, at, n)
    }

    /// Writes the first `n < N` lanes to `dst[at..at + n]` (by default
    /// through a stack buffer and a slice copy, which checks the range).
    ///
    /// # Safety
    /// See the trait.
    #[inline(always)]
    unsafe fn store_first(self, dst: &mut [f32], at: usize, n: usize) {
        let mut buf = [0.0f32; N];
        self.store(&mut buf, 0);
        dst[at..at + n].copy_from_slice(&buf[..n]);
    }

    /// Dimension `d` of the `N` survivors of `pass`: lane `k` is
    /// `src[off_k + d * stride_k]`, read one by one.
    ///
    /// # Safety
    /// See the trait.
    #[inline(always)]
    unsafe fn gather<E: Stored>(src: &[E], pass: &Pass<N>, d: usize) -> Self {
        let vals = pass.map(|(off, stride)| at::<N, Self, E>(src, off + d * stride));
        Self::load(&vals, 0)
    }

    /// Bit `k < N` is lane `k` of `self <= o`, an ordered compare: a NaN
    /// on either side clears the bit, as `f32`'s `<=` does; the bits from
    /// `N` up are zero. Safe like the [`Lane`] arithmetic — it reads two
    /// values that already exist and touches no memory.
    fn le_mask(self, o: Self) -> u64;
}

/// `src[i]`: the one-element read of the bound pass's last lanes, the
/// software gather and the buffered partial load, slice-indexed when `V`
/// is [`Portable`].
///
/// # Safety
/// `i < src.len()` unless `V::CHECKED`.
#[inline(always)]
unsafe fn at<const N: usize, V: Lanes<N>, E: Copy>(src: &[E], i: usize) -> E {
    if V::CHECKED {
        src[i]
    } else {
        *src.get_unchecked(i)
    }
}

/// [`Lanes::load_first`] through a stack buffer: `n` one-element reads
/// widened to `f32`, zeros after them, one full load.
///
/// # Safety
/// As [`Lanes::load_first`].
#[inline(always)]
unsafe fn buffered<const N: usize, V: Lanes<N>, E: Stored>(src: &[E], start: usize, n: usize) -> V {
    let mut buf = [0.0f32; N];
    for (i, b) in buf[..n].iter_mut().enumerate() {
        *b = at::<N, V, E>(src, start + i).into();
    }
    V::load(&buf, 0)
}

/// `N` lanes in plain Rust. Every access is a checked slice index, so
/// this is the implementation that compiles on every target, the scalar
/// survivor and bound kernel (at `N = 8`), and the bounds proof of the
/// other three (module docs).
#[derive(Clone, Copy)]
pub struct Portable<const N: usize>([f32; N]);

impl<const N: usize> Portable<N> {
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Self(std::array::from_fn(|i| f(self.0[i], o.0[i])))
    }
}

impl<const N: usize> Lane for Portable<N> {
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
        Self([x; N])
    }
}

impl<const N: usize> Lanes<N> for Portable<N> {
    const CHECKED: bool = true;

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Self([x; N])
    }
    #[inline(always)]
    unsafe fn load<E: Stored>(src: &[E], at: usize) -> Self {
        Self(std::array::from_fn(|i| src[at + i].into()))
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32], at: usize) {
        dst[at..at + N].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn le_mask(self, o: Self) -> u64 {
        (0..N).fold(0, |m, k| m | u64::from(self.0[k] <= o.0[k]) << k)
    }
}

/// Sixteen lanes in one AVX-512 register. Invariant: a value exists only
/// on a CPU with AVX-512F+BW+VL (and AVX2+FMA, which every such CPU has;
/// `KernelIsa::Avx512` detection checks all five) — the field is private
/// and every constructor is a [`Lanes`] method, whose contract says so.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Avx512(__m512);

#[cfg(target_arch = "x86_64")]
impl Lane for Avx512 {
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: AVX-512F is present wherever an `Avx512` exists.
        unsafe { Self(_mm512_sub_ps(self.0, o.0)) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self(_mm512_mul_ps(self.0, o.0)) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self(_mm512_add_ps(self.0, o.0)) }
    }
    #[inline(always)]
    fn abs(self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self(_mm512_abs_ps(self.0)) }
    }
    #[inline(always)]
    fn fmadd(self, b: Self, c: Self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self(_mm512_fmadd_ps(self.0, b.0, c.0)) }
    }
    #[inline(always)]
    fn fnmadd(self, b: Self, c: Self) -> Self {
        // SAFETY: as `sub`.
        unsafe { Self(_mm512_fnmadd_ps(self.0, b.0, c.0)) }
    }
    #[inline(always)]
    fn fill(self, x: f32) -> Self {
        // SAFETY: as `sub`; `splat` touches no memory.
        unsafe { Self::splat(x) }
    }
}

/// The write mask of the first `n < 16` lanes.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn first_lanes(n: usize) -> __mmask16 {
    ((1u32 << n) - 1) as __mmask16
}

#[cfg(target_arch = "x86_64")]
impl Lanes<16> for Avx512 {
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Self(_mm512_set1_ps(x))
    }
    #[inline(always)]
    unsafe fn load<E: Stored>(src: &[E], at: usize) -> Self {
        let p = src.as_ptr().add(at);
        if E::CODE {
            let codes = _mm_loadu_si128(p as *const __m128i);
            Self(_mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(codes)))
        } else {
            Self(_mm512_loadu_ps(p as *const f32))
        }
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32], at: usize) {
        _mm512_storeu_ps(dst.as_mut_ptr().add(at), self.0)
    }
    /// A masked load, which reads nothing of the lanes it leaves out —
    /// of bytes for codes (AVX-512BW+VL), widened as [`Lanes::load`]
    /// does. A stack buffer measured ≈ 8× slower for codes: `n` byte
    /// stores read back as one load stall on store forwarding.
    #[inline(always)]
    unsafe fn load_first<E: Stored>(src: &[E], at: usize, n: usize) -> Self {
        let p = src.as_ptr().add(at);
        if E::CODE {
            let codes = _mm_maskz_loadu_epi8(first_lanes(n), p as *const i8);
            Self(_mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(codes)))
        } else {
            Self(_mm512_maskz_loadu_ps(first_lanes(n), p as *const f32))
        }
    }
    #[inline(always)]
    unsafe fn store_first(self, dst: &mut [f32], at: usize, n: usize) {
        _mm512_mask_storeu_ps(dst.as_mut_ptr().add(at), first_lanes(n), self.0)
    }
    #[inline(always)]
    fn le_mask(self, o: Self) -> u64 {
        // SAFETY: AVX-512F is present wherever an `Avx512` exists.
        unsafe { u64::from(_mm512_cmp_ps_mask::<_CMP_LE_OQ>(self.0, o.0)) }
    }
}

/// Eight lanes in one AVX2 register. Invariant: a value exists only on a
/// CPU with AVX2+FMA — the field is private and every constructor is a
/// [`Lanes`] method, whose contract says so.
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

/// The load / store mask of the first `n < 8` lanes: the sign bit set in
/// lanes `0..n`.
///
/// # Safety
/// AVX2 is present.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn first_eight(n: usize) -> __m256i {
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(n as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

#[cfg(target_arch = "x86_64")]
impl Lanes<8> for Avx2 {
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
    /// `f32` values take a masked load, which reads nothing of the lanes
    /// it leaves out. AVX2 has no masked byte load, so the `n` codes are
    /// gathered into one 64-bit word in a register (a stack buffer read
    /// back whole would stall on store forwarding) and widened.
    #[inline(always)]
    unsafe fn load_first<E: Stored>(src: &[E], at: usize, n: usize) -> Self {
        let p = src.as_ptr().add(at);
        if E::CODE {
            let p = p as *const u8;
            let word = (0..n).fold(0u64, |w, i| w | u64::from(*p.add(i)) << (8 * i));
            let codes = _mm_cvtsi64_si128(word as i64);
            Self(_mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(codes)))
        } else {
            Self(_mm256_maskload_ps(p as *const f32, first_eight(n)))
        }
    }
    #[inline(always)]
    unsafe fn store_first(self, dst: &mut [f32], at: usize, n: usize) {
        _mm256_maskstore_ps(dst.as_mut_ptr().add(at), first_eight(n), self.0)
    }
    /// `f32` values take the hardware gather (there is none for bytes).
    /// Its element offsets are 32-bit: the caller additionally
    /// guarantees `src.len() <= i32::MAX`. `off` and `stride` do not
    /// depend on `d`, so inlined into a dimension loop they are built
    /// once per pass.
    #[inline(always)]
    unsafe fn gather<E: Stored>(src: &[E], pass: &Pass<8>, d: usize) -> Self {
        if E::CODE {
            return Self::load(
                &pass.map(|(off, stride)| at::<8, Self, E>(src, off + d * stride)),
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
    fn le_mask(self, o: Self) -> u64 {
        // SAFETY: AVX2+FMA is present wherever an `Avx2` exists.
        unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(self.0, o.0)) as u8 as u64 }
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
impl Lanes<8> for Neon {
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
    fn le_mask(self, o: Self) -> u64 {
        const WEIGHTS: [u32; 4] = [1, 2, 4, 8];
        // SAFETY: NEON is present wherever a `Neon` exists; the load
        // reads the four elements of `WEIGHTS`.
        unsafe {
            let w = vld1q_u32(WEIGHTS.as_ptr());
            // A lane of the compare is all ones or zero: masked by its
            // weight and summed across, four lanes give four bits.
            let lo = vaddvq_u32(vandq_u32(vcleq_f32(self.0[0], o.0[0]), w));
            let hi = vaddvq_u32(vandq_u32(vcleq_f32(self.0[1], o.0[1]), w));
            u64::from(lo | hi << 4)
        }
    }
}

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

/// The dense nest: `acc[j][l] ⊕= term(query[j][d], data[d * lanes + l])`
/// for each of `Q` queries `j`, every lane `l` of every group of `groups`
/// and every `d` of `dims`, in order — a whole tile's checkpoint step in
/// one call (`Q = 1`), or one walk of the dimensions for `Q` queries of a
/// band ([`dense_band`]). Within a group, lanes are tiled `4N` (four `V`
/// registers live across the dimension loop for each query, and each
/// register of data is loaded once per dimension for all `Q`; at `N = 16`
/// a tile is a whole default 64-vector group, so each dimension row is
/// walked once), then the rest in one [`tile`] of up to four registers
/// whose last one ends at the group's last lane, and a group narrower
/// than `N` in one masked register. Each lane sees `dims` in the same
/// order whichever register or query block holds it, so neither tiling,
/// width nor band shows in the bits. `query[j][k][d]` is query `j`'s
/// `k`-th per-dimension parameter (indexed through the slice, so a short
/// query panics here on every `V`).
///
/// # Safety
/// `V`'s instruction set is present, [`Tiled::check_groups`] passed for
/// `groups` and each `acc[j]`, and every `d` of `dims` is below
/// `t.n_dims`: a group's buffer is then `lanes × n_dims` values (sliced,
/// so checked) and `(d + 1) * lanes` stays inside it. `dense::<_, _,
/// Portable<_>, ..>` checks each index instead, which is how the
/// arithmetic itself is tested.
#[inline(always)]
unsafe fn dense<const N: usize, const Q: usize, V, E, S, D, const P: usize>(
    t: Tiled<'_, E>,
    groups: Range<usize>,
    query: [[&[f32]; P]; Q],
    dims: D,
    acc: [&mut [f32]; Q],
) where
    V: Lanes<N>,
    E: Stored,
    S: Step<P>,
    D: Dims,
{
    for (data, mut acc) in t.zip_groups(groups, acc) {
        let lanes = acc[0].len();
        if lanes < N {
            tile::<N, 1, Q, true, V, E, S, D, P>(data, query, dims.clone(), &mut acc, [0], 0);
            continue;
        }
        let mut l = 0;
        while l + 4 * N <= lanes {
            let at = [l, l + N, l + 2 * N, l + 3 * N];
            tile::<N, 4, Q, false, V, E, S, D, P>(data, query, dims.clone(), &mut acc, at, 0);
            l += 4 * N;
        }
        // The last register starts `skip` lanes early so that it ends at
        // the group's last lane.
        let rest = lanes - l;
        let (end, skip, dims) = (lanes - N, rest.div_ceil(N) * N - rest, dims.clone());
        match rest.div_ceil(N) {
            0 => {}
            1 => tile::<N, 1, Q, false, V, E, S, D, P>(data, query, dims, &mut acc, [end], skip),
            2 => {
                let at = [l, end];
                tile::<N, 2, Q, false, V, E, S, D, P>(data, query, dims, &mut acc, at, skip)
            }
            3 => {
                let at = [l, l + N, end];
                tile::<N, 3, Q, false, V, E, S, D, P>(data, query, dims, &mut acc, at, skip)
            }
            _ => {
                let at = [l, l + N, l + 2 * N, end];
                tile::<N, 4, Q, false, V, E, S, D, P>(data, query, dims, &mut acc, at, skip)
            }
        }
    }
}

/// One register tile of [`dense`] over one group of `acc[0].len()`
/// lanes: for each query `j`, register `k` holds lanes `at[k]..at[k] +
/// N` of `acc[j]`, and all `K × Q` of them live across one walk of
/// `dims`. The last one stores only its lanes from `skip` on — it may
/// start inside lanes that an earlier register or tile owns, which it
/// computes again from whatever `acc` held and discards. `MASKED` is a
/// group narrower than `N` (`K = 1`, `at = [0]`): its register holds the
/// group's lanes and zeros past them, and only those lanes are read and
/// stored ([`Lanes::load_first`] / [`Lanes::store_first`]).
///
/// # Safety
/// As [`dense`], for one group: every `acc[j]` is `acc[0].len()` long,
/// `at[k] + N <= acc[0].len()` for every `k` unless `MASKED`, and `data`
/// holds `acc[0].len()` values per dimension of `dims`.
#[inline(always)]
unsafe fn tile<
    const N: usize,
    const K: usize,
    const Q: usize,
    const MASKED: bool,
    V,
    E,
    S,
    D,
    const P: usize,
>(
    data: &[E],
    query: [[&[f32]; P]; Q],
    dims: D,
    acc: &mut [&mut [f32]; Q],
    at: [usize; K],
    skip: usize,
) where
    V: Lanes<N>,
    E: Stored,
    S: Step<P>,
    D: Dims,
{
    let lanes = acc[0].len();
    let mut a: [[V; K]; Q] =
        std::array::from_fn(|j| at.map(|o| register::<N, MASKED, V, f32>(acc[j], o, lanes)));
    for d in dims {
        let v = at.map(|o| register::<N, MASKED, V, E>(data, d * lanes + o, lanes));
        for (a, query) in a.iter_mut().zip(&query) {
            let params = query.map(|q| V::splat(q[d]));
            for (a, &v) in a.iter_mut().zip(&v) {
                *a = S::step(*a, params, v);
            }
        }
    }
    for (a, acc) in a.into_iter().zip(acc.iter_mut()) {
        for (k, (a, o)) in a.into_iter().zip(at).enumerate() {
            if MASKED {
                a.store_first(acc, o, lanes);
            } else if k + 1 < K || skip == 0 {
                a.store(acc, o);
            } else {
                let mut buf = [0.0f32; N];
                a.store(&mut buf, 0);
                acc[o + skip..o + N].copy_from_slice(&buf[skip..]);
            }
        }
    }
}

/// One register of a [`tile`]: `src[at..at + N]`, or with `MASKED` its
/// first `n` lanes.
///
/// # Safety
/// As [`Lanes::load`] / [`Lanes::load_first`].
#[inline(always)]
unsafe fn register<const N: usize, const MASKED: bool, V: Lanes<N>, E: Stored>(
    src: &[E],
    at: usize,
    n: usize,
) -> V {
    if MASKED {
        V::load_first(src, at, n)
    } else {
        V::load(src, at)
    }
}

/// The band nest: [`dense`] over every group of `t` and the storage range
/// `dims` for each query of `band`, `Q` queries a walk of the dimensions
/// (the last `band.len() % Q` one a walk). `acc` is query-major: query
/// `j`'s accumulators are `acc[j * t.n_vectors..][..t.n_vectors]`, and
/// they end with the bits of a one-query [`dense`] — a lane runs the same
/// steps in the same order in either.
///
/// # Safety
/// As [`dense`] over every group of `t` for each query, with `acc.len() ==
/// band.len() * t.n_vectors`.
#[inline(always)]
unsafe fn dense_band<const N: usize, const Q: usize, V, E, S, const P: usize>(
    t: Tiled<'_, E>,
    band: &[[&[f32]; P]],
    dims: Range<usize>,
    acc: &mut [f32],
) where
    V: Lanes<N>,
    E: Stored,
    S: Step<P>,
{
    if t.n_vectors == 0 {
        return;
    }
    let (mut rows, groups) = (acc.chunks_exact_mut(t.n_vectors), 0..t.n_groups());
    let mut blocks = band.chunks_exact(Q);
    for queries in &mut blocks {
        let query = std::array::from_fn(|j| queries[j]);
        let acc = std::array::from_fn(|_| rows.next().expect("one accumulator row per query"));
        dense::<N, Q, V, E, S, _, P>(t, groups.clone(), query, dims.clone(), acc);
    }
    for (&query, acc) in blocks.remainder().iter().zip(rows) {
        dense::<N, 1, V, E, S, _, P>(t, groups.clone(), [query], dims.clone(), [acc]);
    }
}

/// The bound nest: bit `l % 64` of `bits[l / 64]` says whether lane `l`
/// survives — `P::slack(cp, partials[l], aux[l]) <= P::limit(cp)`, a
/// missing `aux` standing for zeros — and the return value is the number
/// of set bits. `N` lanes a compare (`N` divides 64, so a compare never
/// straddles two words), a scalar tail of up to `N − 1`; the bits past
/// the last lane are zero. `slack` rounds lane by lane like its `f32`
/// instance, so the bits are those of a loop of [`Pruner::survives`].
///
/// # Safety
/// `V`'s instruction set is present, `bits.len() ==
/// partials.len().div_ceil(64)` and an `aux` is as long as `partials`.
/// `bound::<_, Portable<_>, _>` — the scalar policy's bound pass —
/// checks each index instead.
#[inline(always)]
unsafe fn bound<const N: usize, V: Lanes<N>, P: Pruner>(
    cp: &P::Checkpoint,
    partials: &[f32],
    aux: Option<&[f32]>,
    bits: &mut [u64],
) -> usize {
    const { assert!(64 % N == 0, "a compare must not straddle two words") };
    let (limit, mut count) = (P::limit(cp), 0);
    for (w, word) in bits.iter_mut().enumerate() {
        let end = partials.len().min(64 * w + 64);
        let (mut l, mut m) = (64 * w, 0u64);
        while l + N <= end {
            let p = V::load(partials, l);
            let a = aux.map_or(V::splat(0.0), |aux| V::load(aux, l));
            m |= P::slack(cp, p, a).le_mask(V::splat(limit)) << (l % 64);
            l += N;
        }
        for l in l..end {
            let a = aux.map_or(0.0, |aux| at::<N, V, f32>(aux, l));
            m |= u64::from(P::slack(cp, at::<N, V, f32>(partials, l), a) <= limit) << (l % 64);
        }
        *word = m;
        count += m.count_ones() as usize;
    }
    count
}

/// The survivor nest: `acc[j] ⊕= term(params[d], value of survivor
/// positions[j] at d)` for every `d` of `dims`, in order. `N` survivors
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
/// `survivors::<_, Portable<_>, ..>` checks each index instead.
#[inline(always)]
unsafe fn survivors<const N: usize, V, E, S, D, const P: usize>(
    t: Tiled<'_, E>,
    query: [&[f32]; P],
    dims: D,
    positions: &[u32],
    acc: &mut [f32],
) where
    V: Lanes<N>,
    E: Stored,
    S: Step<P>,
    D: Dims,
{
    for (pos, acc) in positions.chunks(N).zip(acc.chunks_mut(N)) {
        let pass = t.locate_pass::<N>(pos);
        let mut buf = [0.0f32; N];
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

/// The nests at one SIMD lane type: one `#[target_feature]` shim each,
/// the entries the nest and every [`Lanes`] method inline into. Each
/// shim's contract is its nest's at that lane type. `$q` is the band
/// nest's query block: `4 × $q` registers of accumulators must fit the
/// register file beside the four of data. A lane type without a survivor
/// shim (`Avx512`) leaves its survivors to the 8-lane type of its ISA
/// ([`survivors_on`]).
macro_rules! shims {
    (
        $features:literal, $v:ty, $n:literal, $q:literal,
        $dense:ident, $dense_band:ident, $bound:ident $(, $survivors:ident)?
    ) => {
        #[target_feature(enable = $features)]
        unsafe fn $dense<E: Stored, S: Step<P>, D: Dims, const P: usize>(
            t: Tiled<'_, E>,
            groups: Range<usize>,
            query: [&[f32]; P],
            dims: D,
            acc: &mut [f32],
        ) {
            dense::<$n, 1, $v, E, S, D, P>(t, groups, [query], dims, [acc])
        }

        #[target_feature(enable = $features)]
        unsafe fn $dense_band<E: Stored, S: Step<P>, const P: usize>(
            t: Tiled<'_, E>,
            band: &[[&[f32]; P]],
            dims: Range<usize>,
            acc: &mut [f32],
        ) {
            dense_band::<$n, $q, $v, E, S, P>(t, band, dims, acc)
        }

        #[target_feature(enable = $features)]
        unsafe fn $bound<P: Pruner>(
            cp: &P::Checkpoint,
            partials: &[f32],
            aux: Option<&[f32]>,
            bits: &mut [u64],
        ) -> usize {
            bound::<$n, $v, P>(cp, partials, aux, bits)
        }

        $(
            #[target_feature(enable = $features)]
            unsafe fn $survivors<E: Stored, S: Step<P>, D: Dims, const P: usize>(
                t: Tiled<'_, E>,
                query: [&[f32]; P],
                dims: D,
                positions: &[u32],
                acc: &mut [f32],
            ) {
                survivors::<$n, $v, E, S, D, P>(t, query, dims, positions, acc)
            }
        )?
    };
}

#[cfg(target_arch = "x86_64")]
shims!(
    "avx512f,avx512bw,avx512vl,avx2,fma",
    Avx512,
    16,
    4,
    dense_avx512,
    dense_band_avx512,
    bound_avx512
);
#[cfg(target_arch = "x86_64")]
shims!(
    "avx2,fma",
    Avx2,
    8,
    2,
    dense_avx2,
    dense_band_avx2,
    bound_avx2,
    survivors_avx2
);
#[cfg(target_arch = "aarch64")]
shims!(
    "neon",
    Neon,
    8,
    2,
    dense_neon,
    dense_band_neon,
    bound_neon,
    survivors_neon
);

/// [`dense`] at the lane type of `isa`: `Avx512`, `Avx2` or `Neon`
/// through its shim, `Portable<8>` for `Scalar` (the kernels' scalar
/// dense path is the Algorithm-1 loops; this arm only keeps the match
/// total).
///
/// # Safety
/// `isa` is present on the running CPU (a [`KernelPolicy::resolve`]
/// value), and [`dense`]'s index contract holds.
///
/// [`KernelPolicy::resolve`]: super::KernelPolicy::resolve
pub(super) unsafe fn dense_on<E: Stored, S: Step<P>, D: Dims, const P: usize>(
    isa: KernelIsa,
    t: Tiled<'_, E>,
    groups: Range<usize>,
    query: [&[f32]; P],
    dims: D,
    acc: &mut [f32],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 => dense_avx512::<E, S, D, P>(t, groups, query, dims, acc),
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx2 => dense_avx2::<E, S, D, P>(t, groups, query, dims, acc),
        #[cfg(target_arch = "aarch64")]
        KernelIsa::Neon => dense_neon::<E, S, D, P>(t, groups, query, dims, acc),
        _ => dense::<8, 1, Portable<8>, E, S, D, P>(t, groups, [query], dims, [acc]),
    }
}

/// [`dense_band`] at the lane type of `isa`, as [`dense_on`]: four queries
/// a walk on `Avx512`, two on `Avx2` and `Neon`.
///
/// # Safety
/// As [`dense_on`], with [`dense_band`]'s index contract.
pub(super) unsafe fn dense_band_on<E: Stored, S: Step<P>, const P: usize>(
    isa: KernelIsa,
    t: Tiled<'_, E>,
    band: &[[&[f32]; P]],
    dims: Range<usize>,
    acc: &mut [f32],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 => dense_band_avx512::<E, S, P>(t, band, dims, acc),
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx2 => dense_band_avx2::<E, S, P>(t, band, dims, acc),
        #[cfg(target_arch = "aarch64")]
        KernelIsa::Neon => dense_band_neon::<E, S, P>(t, band, dims, acc),
        _ => dense_band::<8, 2, Portable<8>, E, S, P>(t, band, dims, acc),
    }
}

/// [`survivors`] at 8 lanes of `isa`, as [`dense_on`]: `Avx512` runs
/// the `Avx2` nest (its CPUs have AVX2+FMA) and `Scalar` `Portable<8>`,
/// the scalar policy's survivor kernel.
///
/// A pass gathers one value per lane, padding included, so its cost is
/// its lane count, not its register count — and a PRUNE step often has
/// few survivors (about half of `store_churn`'s SQ8 steps have at most
/// eight). Sixteen-lane passes measured ≈ 1.55 ns per value there
/// against ≈ 1.1 at eight, so every ISA runs eight.
///
/// # Safety
/// As [`dense_on`], with [`survivors`]'s index contract.
pub(super) unsafe fn survivors_on<E: Stored, S: Step<P>, D: Dims, const P: usize>(
    isa: KernelIsa,
    t: Tiled<'_, E>,
    query: [&[f32]; P],
    dims: D,
    positions: &[u32],
    acc: &mut [f32],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 | KernelIsa::Avx2 => {
            survivors_avx2::<E, S, D, P>(t, query, dims, positions, acc)
        }
        #[cfg(target_arch = "aarch64")]
        KernelIsa::Neon => survivors_neon::<E, S, D, P>(t, query, dims, positions, acc),
        _ => survivors::<8, Portable<8>, E, S, D, P>(t, query, dims, positions, acc),
    }
}

/// [`bound`] at the lane type of `isa`, as [`dense_on`]; `Scalar` runs
/// `Portable<8>`, the scalar policy's bound pass.
///
/// # Safety
/// As [`dense_on`], with [`bound`]'s length contract.
pub(super) unsafe fn bound_on<P: Pruner>(
    isa: KernelIsa,
    cp: &P::Checkpoint,
    partials: &[f32],
    aux: Option<&[f32]>,
    bits: &mut [u64],
) -> usize {
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 => bound_avx512::<P>(cp, partials, aux, bits),
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx2 => bound_avx2::<P>(cp, partials, aux, bits),
        #[cfg(target_arch = "aarch64")]
        KernelIsa::Neon => bound_neon::<P>(cp, partials, aux, bits),
        _ => bound::<8, Portable<8>, P>(cp, partials, aux, bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;
    use crate::kernels::{
        detected_isa, pdx_accumulate_band, pdx_accumulate_groups, pdx_accumulate_survivors,
        sq8_accumulate_groups, sq8_accumulate_survivors, survival_bits, DimSel, KernelPolicy,
    };
    use crate::layout::{PdxBlock, Sq8Query};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// One instantiation of the three nests: a checked portable width,
    /// or the shims of a SIMD ISA this CPU has.
    #[derive(Clone, Copy, Debug)]
    enum Nest {
        Portable8,
        Portable16,
        Isa(KernelIsa),
    }

    impl Nest {
        /// The two portable widths, then every SIMD lane type the running
        /// CPU can execute — on x86-64 `Avx2` and, where the ISA detection
        /// picks it, `Avx512` (said once when it does not).
        fn all() -> Vec<Self> {
            let mut nests = vec![Nest::Portable8, Nest::Portable16];
            #[cfg(target_arch = "x86_64")]
            {
                let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
                if avx2 {
                    nests.push(Nest::Isa(KernelIsa::Avx2));
                }
                if detected_isa() == KernelIsa::Avx512 {
                    nests.push(Nest::Isa(KernelIsa::Avx512));
                } else {
                    static SKIP: std::sync::Once = std::sync::Once::new();
                    SKIP.call_once(|| println!("kernels::lanes: no avx512f+bw+vl, Avx512 skipped"));
                }
            }
            #[cfg(target_arch = "aarch64")]
            if std::arch::is_aarch64_feature_detected!("neon") {
                nests.push(Nest::Isa(KernelIsa::Neon));
            }
            nests
        }

        // The portable widths need no ISA and check every index; `all`
        // names an ISA only when it is detected, and the callers below
        // pass the arguments the portable widths run on first. Each
        // method's SAFETY comment rests on this.
        fn dense<E: Stored, S: Step<P>, D: Dims, const P: usize>(
            self,
            t: Tiled<'_, E>,
            groups: Range<usize>,
            query: [&[f32]; P],
            dims: D,
            acc: &mut [f32],
        ) {
            // SAFETY: the portable widths check every index, and `all`
            // names only a detected ISA (see above).
            unsafe {
                match self {
                    Nest::Portable8 => {
                        dense::<8, 1, Portable<8>, E, S, D, P>(t, groups, [query], dims, [acc])
                    }
                    Nest::Portable16 => {
                        dense::<16, 1, Portable<16>, E, S, D, P>(t, groups, [query], dims, [acc])
                    }
                    Nest::Isa(isa) => dense_on::<E, S, D, P>(isa, t, groups, query, dims, acc),
                }
            }
        }

        /// The band nest, at the query block its ISA runs: two queries a
        /// walk at 8 lanes, four at 16.
        fn band<E: Stored, S: Step<P>, const P: usize>(
            self,
            t: Tiled<'_, E>,
            band: &[[&[f32]; P]],
            dims: Range<usize>,
            acc: &mut [f32],
        ) {
            // SAFETY: the portable widths check every index, and `all`
            // names only a detected ISA (see above).
            unsafe {
                match self {
                    Nest::Portable8 => dense_band::<8, 2, Portable<8>, E, S, P>(t, band, dims, acc),
                    Nest::Portable16 => {
                        dense_band::<16, 4, Portable<16>, E, S, P>(t, band, dims, acc)
                    }
                    Nest::Isa(isa) => dense_band_on::<E, S, P>(isa, t, band, dims, acc),
                }
            }
        }

        fn survivors<E: Stored, S: Step<P>, D: Dims, const P: usize>(
            self,
            t: Tiled<'_, E>,
            query: [&[f32]; P],
            dims: D,
            pos: &[u32],
            acc: &mut [f32],
        ) {
            // SAFETY: the portable widths check every index, and `all`
            // names only a detected ISA (see above).
            unsafe {
                match self {
                    Nest::Portable8 => {
                        survivors::<8, Portable<8>, E, S, D, P>(t, query, dims, pos, acc)
                    }
                    Nest::Portable16 => {
                        survivors::<16, Portable<16>, E, S, D, P>(t, query, dims, pos, acc)
                    }
                    Nest::Isa(isa) => survivors_on::<E, S, D, P>(isa, t, query, dims, pos, acc),
                }
            }
        }

        fn bound<P: Pruner>(
            self,
            cp: &P::Checkpoint,
            partials: &[f32],
            aux: Option<&[f32]>,
            bits: &mut [u64],
        ) -> usize {
            // SAFETY: the portable widths check every index, and `all`
            // names only a detected ISA (see above).
            unsafe {
                match self {
                    Nest::Portable8 => bound::<8, Portable<8>, P>(cp, partials, aux, bits),
                    Nest::Portable16 => bound::<16, Portable<16>, P>(cp, partials, aux, bits),
                    Nest::Isa(isa) => bound_on::<P>(isa, cp, partials, aux, bits),
                }
            }
        }
    }

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

    /// A fixed [`Case`] of `n` vectors: ordinary values with every FP edge
    /// of [`value`] mixed in, and every code.
    fn fixed_case(n: usize, d: usize) -> Case {
        const EDGES: [f32; 6] = [0.0, -0.0, f32::MIN_POSITIVE / 2.0, 1.0, -3.5, f32::INFINITY];
        let val = |i: usize| match i % 11 {
            k @ 0..=5 => EDGES[k],
            _ => ((i * 37 % 101) as f32) * 0.25 - 12.0,
        };
        let values = (0..n * d).map(val).collect();
        let codes = (0..n * d).map(|i| (i * 97 % 256) as u32).collect();
        let q = (0..3 * d).map(|i| val(i + 7) * 0.5).collect();
        (n, d, values, codes, q)
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

    /// The bound nest: a loop of `survives` == every [`Nest`] == both
    /// policies, with and without an aux row, count included. `partials`
    /// gets a NaN, and `limit` is one of its values, so ties and
    /// unordered compares are on every run.
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
            let count = want.iter().map(|w| w.count_ones() as usize).sum();
            for nest in Nest::all() {
                let mut got = vec![u64::MAX; n.div_ceil(64)];
                let counted = nest.bound::<Quadratic>(&cp, &partials, aux, &mut got);
                prop_assert!((&got, counted) == (&want, count), "{nest:?}");
            }
            // `Scalar` is the nest at `Portable<8>`, `Simd` at the resolved ISA.
            for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
                let mut got = vec![u64::MAX; 3];
                let counted = survival_bits::<Quadratic>(&cp, &partials, aux, &mut got, policy);
                prop_assert!((&got, counted) == (&want, count), "{policy:?}");
            }
        }
        Ok(())
    }

    /// For one metric, both elements: every [`Nest`] and both policies
    /// equal the Algorithm-1 scalar loops — dense on one group as wide as
    /// the collection (ranged and permuted `f32`, ranged codes), dense
    /// over every group range of a `group`-tiled block, survivors `pos` in
    /// that block, and the band nest over both for a band of `1 + n % 9`
    /// queries (every remainder of a two- and a four-query block).
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
        let (ranged, permuted) = (DimSel::Range(lo..d), DimSel::Ids(&perm));
        let fresh = |len| [vec![1.5f32; len], vec![1.5f32; len], vec![1.5f32; len]];

        // The oracle: the scalar lane loops on one group as wide as the
        // collection; a survivor's bits are those of its lane there.
        let (wide, wide8) = (
            PdxBlock::from_rows(values, n, d, n),
            PdxBlock::from_rows(&codes, n, d, n),
        );
        let scalar = KernelPolicy::Scalar;
        let mut want = fresh(n);
        pdx_accumulate_groups(
            metric,
            &wide,
            0..1,
            query,
            ranged.clone(),
            &mut want[0],
            scalar,
        );
        pdx_accumulate_groups(
            metric,
            &wide,
            0..1,
            query,
            permuted.clone(),
            &mut want[1],
            scalar,
        );
        sq8_accumulate_groups(&q8, &wide8, 0..1, lo..d, &mut want[2], scalar);
        let want_surv = want
            .clone()
            .map(|w| pos.iter().map(|&p| w[p as usize]).collect::<Vec<f32>>());
        // The band: the three vectors of `q` cycled, each query with the
        // bits of its own scalar loop over the storage range.
        let b = 1 + n % 9;
        let distinct = [query, params[0], params[1]];
        let band: Vec<[&[f32]; 1]> = (0..b).map(|j| [distinct[j % 3]]).collect();
        let band8 = vec![params; b];
        let mut want_band = vec![1.5f32; b * n];
        for ([query], want) in band.iter().zip(want_band.chunks_mut(n)) {
            pdx_accumulate_groups(metric, &wide, 0..1, query, ranged.clone(), want, scalar);
        }
        let want_band8 = want[2].repeat(b);

        let (w, w8) = (Tiled::of(&wide), Tiled::of(&wide8));
        let block = PdxBlock::from_rows(values, n, d, group);
        let block8 = PdxBlock::from_rows(&codes, n, d, group);
        let (t, t8) = (Tiled::of(&block), Tiled::of(&block8));
        let groups = n.div_ceil(group);
        let ranges = [0..groups, groups / 2..groups, 0..groups / 2, groups..groups];
        let covered = |r: &Range<usize>| (r.start * group).min(n)..(r.end * group).min(n);

        for nest in Nest::all() {
            let mut dense = fresh(n);
            nest.dense::<_, S, _, 1>(w, 0..1, [query], lo..d, &mut dense[0]);
            nest.dense::<_, S, _, 1>(w, 0..1, [query], ids(), &mut dense[1]);
            nest.dense::<_, S, _, 2>(w8, 0..1, params, lo..d, &mut dense[2]);
            let mut surv = fresh(pos.len());
            nest.survivors::<_, S, _, 1>(t, [query], lo..d, pos, &mut surv[0]);
            nest.survivors::<_, S, _, 1>(t, [query], ids(), pos, &mut surv[1]);
            nest.survivors::<_, S, _, 2>(t8, params, lo..d, pos, &mut surv[2]);
            for k in 0..3 {
                prop_assert!(bits(&dense[k]) == bits(&want[k]), "dense {k} {nest:?}");
                prop_assert!(bits(&surv[k]) == bits(&want_surv[k]), "surv {k} {nest:?}");
            }
            // A range of groups of the tiled block (the partial tail group
            // in it, or empty) leaves each of its lanes with the bits of
            // the one-group call.
            for range in &ranges {
                let lanes = covered(range);
                let mut tiled = [vec![1.5f32; lanes.len()], vec![1.5f32; lanes.len()]];
                nest.dense::<_, S, _, 1>(t, range.clone(), [query], ids(), &mut tiled[0]);
                nest.dense::<_, S, _, 2>(t8, range.clone(), params, lo..d, &mut tiled[1]);
                for (k, got) in tiled.iter().enumerate() {
                    let want = &want[k + 1][lanes.clone()];
                    prop_assert!(bits(got) == bits(want), "{range:?} {nest:?} #{k}");
                }
            }
            for (t, t8) in [(w, w8), (t, t8)] {
                let (mut got, mut got8) = (vec![1.5f32; b * n], vec![1.5f32; b * n]);
                nest.band::<_, S, 1>(t, &band, lo..d, &mut got);
                nest.band::<_, S, 2>(t8, &band8, lo..d, &mut got8);
                prop_assert!(bits(&got) == bits(&want_band), "band of {b} {nest:?}");
                prop_assert!(
                    bits(&got8) == bits(&want_band8),
                    "code band of {b} {nest:?}"
                );
            }
        }

        for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
            for range in &ranges {
                let lanes = covered(range);
                let mut got = [vec![1.5f32; lanes.len()], vec![1.5f32; lanes.len()]];
                let (sel, r) = (permuted.clone(), range.clone());
                pdx_accumulate_groups(metric, &block, r, query, sel, &mut got[0], policy);
                sq8_accumulate_groups(&q8, &block8, range.clone(), lo..d, &mut got[1], policy);
                for (k, got) in got.iter().enumerate() {
                    let want = &want[k + 1][lanes.clone()];
                    prop_assert!(bits(got) == bits(want), "{range:?} {policy:?} #{k}");
                }
            }
            let mut dense = fresh(n);
            let (sel, wide) = (ranged.clone(), &wide);
            pdx_accumulate_groups(metric, wide, 0..1, query, sel, &mut dense[0], policy);
            let sel = permuted.clone();
            pdx_accumulate_groups(metric, wide, 0..1, query, sel, &mut dense[1], policy);
            sq8_accumulate_groups(&q8, &wide8, 0..1, lo..d, &mut dense[2], policy);
            let mut surv = fresh(pos.len());
            let (sel, block) = (ranged.clone(), &block);
            pdx_accumulate_survivors(metric, block, query, sel, pos, &mut surv[0], policy);
            let sel = permuted.clone();
            pdx_accumulate_survivors(metric, block, query, sel, pos, &mut surv[1], policy);
            sq8_accumulate_survivors(&q8, &block8, lo..d, pos, &mut surv[2], policy);
            for k in 0..3 {
                prop_assert!(bits(&dense[k]) == bits(&want[k]), "dense {k} {policy:?}");
                prop_assert!(bits(&surv[k]) == bits(&want_surv[k]), "surv {k} {policy:?}");
            }
            let queries: Vec<&[f32]> = band.iter().map(|&[q]| q).collect();
            let mut got = vec![1.5f32; b * n];
            pdx_accumulate_band(metric, block, &queries, lo..d, &mut got, policy);
            prop_assert!(bits(&got) == bits(&want_band), "band of {b} {policy:?}");
        }
        Ok(())
    }

    /// [`check`] for all three metrics.
    fn check_metrics(c: &Case, group: usize, pos: &[u32]) -> Result<(), TestCaseError> {
        check::<L2>(Metric::L2, c, group, pos)?;
        check::<L1>(Metric::L1, c, group, pos)?;
        check::<Ip>(Metric::NegativeIp, c, group, pos)
    }

    proptest! {
        /// Every instantiation of the nests agrees bit for bit with the
        /// scalar loops. The `Portable` ones index through slices, so a
        /// green run is also the bounds proof of the index arithmetic
        /// (`d * lanes + l`, group buffers, padded passes, bound-pass
        /// words) that `Avx2` / `Neon` trust at 8 lanes and `Avx512` at 16.
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
            check_metrics(&c, group, &pos)?;
        }
    }

    /// The 16-lane tiling's edges: lane counts on each side of `N = 16`
    /// and `4N = 64` — `4N` tiles, rest tiles of one to four registers
    /// whose last one reaches back into its own tile (17, 31, 33, 63,
    /// 127) or into a finished `4N` tile (65), and groups narrower than
    /// a register, run as one masked register (1, 7 and 15; 7 also at
    /// `N = 8`, and 9 past it) — in one wide group and in tiled blocks,
    /// alone and in bands.
    #[test]
    fn every_16_lane_tail() {
        for n in [1, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 127] {
            let c = fixed_case(n, 5);
            for group in [16, 64] {
                let pos: Vec<u32> = (0..n as u32).step_by(3).collect();
                check_metrics(&c, group, &pos)
                    .unwrap_or_else(|e| panic!("n={n} group={group}: {e:?}"));
            }
        }
    }

    /// Survivor passes of every length from 1 to 17 — a short 16-lane
    /// pass, a full one, one past it — with the survivors spread over all
    /// eight groups of a 127-vector block, the partial tail group included.
    #[test]
    fn survivor_passes_span_groups() {
        let n = 127;
        let c = fixed_case(n, 6);
        for count in 1..=17u32 {
            let pos: Vec<u32> = (0..count).map(|j| (j * 37 + 5) % 127).collect();
            check_metrics(&c, 16, &pos).unwrap_or_else(|e| panic!("{count} survivors: {e:?}"));
        }
    }

    /// The partial register of a narrow group: on every lane type the
    /// first `n` lanes read and write exactly `src[at..at + n]` and the
    /// other lanes load as zero, and `Portable` — the bounds proof of the
    /// others — refuses a partial row that ends one lane past its slice.
    #[test]
    fn partial_registers_read_and_write_only_their_lanes() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        fn check<const N: usize, V: Lanes<N>>(name: &str) {
            let values: Vec<f32> = (0..40).map(|i| i as f32 * 0.5 - 3.0).collect();
            let codes: Vec<u8> = (0..40).map(|i| (i * 7) as u8).collect();
            let mut buf = [0.0f32; N];
            for n in 1..N {
                for at in [0, 3, 40 - n] {
                    let first = |x: &dyn Fn(usize) -> f32| -> [f32; N] {
                        std::array::from_fn(|i| if i < n { x(at + i) } else { 0.0 })
                    };
                    let mut dst = vec![9.0f32; 40];
                    // SAFETY: `at + n <= 40`, and `V` is a lane type this
                    // CPU has (the callers below check it).
                    unsafe {
                        V::load_first(&values, at, n).store(&mut buf, 0);
                        assert_eq!(buf, first(&|i| values[i]), "{name} load n={n} at={at}");
                        V::load_first(&codes, at, n).store(&mut buf, 0);
                        assert_eq!(
                            buf,
                            first(&|i| codes[i].into()),
                            "{name} codes n={n} at={at}"
                        );
                        V::load(&values, 24).store_first(&mut dst, at, n);
                    }
                    let want: Vec<f32> = (0..40)
                        .map(|i| {
                            if (at..at + n).contains(&i) {
                                values[24 + i - at]
                            } else {
                                9.0
                            }
                        })
                        .collect();
                    assert_eq!(dst, want, "{name} store n={n} at={at}");
                }
            }
        }
        check::<8, Portable<8>>("Portable<8>");
        check::<16, Portable<16>>("Portable<16>");
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
            if avx2 {
                check::<8, Avx2>("Avx2");
            }
            if detected_isa() == KernelIsa::Avx512 {
                check::<16, Avx512>("Avx512");
            }
        }
        // One lane past the slice: `Portable` panics on the read, and the
        // store's slice copy on every lane type.
        let values = [1.0f32; 20];
        // SAFETY: `Portable` checks every index itself.
        let load = catch_unwind(|| unsafe { Portable::<16>::load_first(&values, 10, 11) });
        assert!(
            load.is_err(),
            "a partial row one lane past the slice must panic"
        );
        let codes = [1u8; 20];
        // SAFETY: `Portable` checks every index itself.
        let load = catch_unwind(|| unsafe { Portable::<8>::load_first(&codes, 14, 7) });
        assert!(
            load.is_err(),
            "a partial code row one lane past the slice must panic"
        );
        let mut dst = [0.0f32; 20];
        // SAFETY: the store's slice copy checks every index.
        let store = catch_unwind(AssertUnwindSafe(|| unsafe {
            Portable::<16>::splat(2.0).store_first(&mut dst, 10, 11)
        }));
        assert!(
            store.is_err(),
            "a partial store one lane past the slice must panic"
        );
    }

    /// Bound words at lengths on each side of 16 and 64 with NaN, ±inf,
    /// −0.0 and +0.0 among the partials and a limit that ties some of
    /// them.
    #[test]
    fn bound_words_at_the_edges() {
        const EDGES: [f32; 7] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            2.0,
            2.0,
        ];
        for n in [1, 15, 16, 17, 63, 64, 65, 127, 130] {
            let partials: Vec<f32> = (0..n)
                .map(|l| {
                    if l % 3 == 0 {
                        EDGES[l / 3 % 7]
                    } else {
                        l as f32 * 0.25
                    }
                })
                .collect();
            for c in [0.0, -0.0, 1.0] {
                check_bound(&partials, c).unwrap_or_else(|e| panic!("n={n} c={c}: {e:?}"));
            }
        }
    }
}
