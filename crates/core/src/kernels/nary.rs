//! Horizontal (vector-at-a-time) distance kernels — the baselines.
//!
//! Three tiers, mirroring the paper's competitors:
//!
//! * [`KernelVariant::Scalar`] — one accumulator, loop-carried FP
//!   dependency (the "vanilla" / Scikit-learn tier).
//! * [`KernelVariant::Unrolled`] — eight independent accumulators; this
//!   is what a good compiler can auto-vectorize on a horizontal layout,
//!   but it still pays the end-of-vector reduction.
//! * [`KernelVariant::Simd`] — explicit AVX2+FMA intrinsics with runtime
//!   feature detection, the SimSIMD/FAISS stand-in of Table 4. Falls back
//!   to `Unrolled` when AVX2 is unavailable (non-x86 or old CPUs).

use crate::distance::Metric;

/// Which horizontal kernel tier to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// Single-accumulator scalar loop.
    Scalar,
    /// Eight-accumulator unrolled loop (auto-vectorizable).
    Unrolled,
    /// Explicit SIMD intrinsics (AVX2+FMA) when available at runtime.
    Simd,
}

/// Whether explicit SIMD intrinsics are usable on this machine
/// (AVX2+FMA on x86-64, NEON on aarch64 — detection is cached once per
/// process in [`detected_isa`](crate::kernels::dispatch::detected_isa)).
/// An AVX-512 host has AVX2+FMA too and runs the AVX2 kernels: their
/// bits are defined by eight-accumulator reductions.
pub fn simd_available() -> bool {
    crate::kernels::dispatch::detected_isa() != crate::kernels::dispatch::KernelIsa::Scalar
}

/// Distance between `query` and `vector` with the chosen kernel tier.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn nary_distance(metric: Metric, variant: KernelVariant, query: &[f32], vector: &[f32]) -> f32 {
    assert_eq!(query.len(), vector.len(), "query and vector lengths differ");
    match variant {
        KernelVariant::Scalar => scalar(metric, query, vector),
        KernelVariant::Unrolled => unrolled(metric, query, vector),
        KernelVariant::Simd => {
            #[cfg(target_arch = "x86_64")]
            {
                if simd_available() {
                    // SAFETY: AVX2+FMA presence checked above.
                    return unsafe { simd_avx2(metric, query, vector) };
                }
            }
            #[cfg(target_arch = "aarch64")]
            {
                if simd_available() {
                    // SAFETY: NEON presence checked above.
                    return unsafe { simd_neon(metric, query, vector) };
                }
            }
            unrolled(metric, query, vector)
        }
    }
}

/// `nary_distance(Metric::L2, KernelVariant::Simd, query, vector)` for a
/// caller that only wants it when it beats `bound`: when it is below
/// `bound`, or equal to it if `ties` holds.
///
/// It runs the same kernel, and every `CHECK_DIMS` (32) dimensions it
/// reduces the accumulators exactly as the kernel reduces them at the
/// end. Every L2 term is ≥ 0, and `fma` / `add` under round-to-nearest
/// are monotone, so that partial never exceeds the final value (or the
/// final value is NaN, which beats nothing). Once the partial cannot
/// beat `bound` the kernel stops and returns `None`.
///
/// Returns `Some` with exactly `nary_distance`'s bits (or a NaN when
/// that distance is NaN: Rust fixes neither the sign nor the payload of
/// a NaN an operation produces, and the two paths may reduce a NaN
/// through different operations), or `None` only when that distance does
/// not beat `bound`. A `Some` may not beat it either: the caller still
/// compares.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn nary_l2_bounded(query: &[f32], vector: &[f32], bound: f32, ties: bool) -> Option<f32> {
    assert_eq!(query.len(), vector.len(), "query and vector lengths differ");
    let cut = Cutoff { bound, ties };
    #[cfg(target_arch = "x86_64")]
    {
        if simd_available() {
            // SAFETY: AVX2+FMA presence checked above.
            return unsafe { l2_bounded_avx2(query, vector, cut) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if simd_available() {
            // SAFETY: NEON presence checked above.
            return unsafe { l2_bounded_neon(query, vector, cut) };
        }
    }
    unrolled_body::<true>(Metric::L2, query, vector, cut)
}

/// How often (in dimensions) [`nary_l2_bounded`] reduces its partial.
const CHECK_DIMS: usize = 32;

/// The bound a bounded kernel stops at; see [`nary_l2_bounded`]. The
/// unbounded instances (`BOUNDED = false`) never read it.
#[derive(Clone, Copy)]
struct Cutoff {
    bound: f32,
    ties: bool,
}

impl Cutoff {
    /// Unread by an unbounded kernel.
    const NONE: Self = Self {
        bound: f32::INFINITY,
        ties: true,
    };

    /// Whether a partial (≤ the final value, or the final is NaN) proves
    /// the final value cannot beat the bound. NaN never stops.
    #[inline(always)]
    fn stops(self, partial: f32) -> bool {
        if self.ties {
            partial > self.bound
        } else {
            partial >= self.bound
        }
    }
}

fn scalar(metric: Metric, q: &[f32], v: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (a, b) in q.iter().zip(v) {
        acc += metric.term(*a, *b);
    }
    acc
}

fn unrolled(metric: Metric, q: &[f32], v: &[f32]) -> f32 {
    let Some(total) = unrolled_body::<false>(metric, q, v, Cutoff::NONE) else {
        unreachable!("an unbounded kernel runs to the end")
    };
    total
}

/// The unrolled kernel, and with `BOUNDED` its L2 form that stops at
/// `cut` ([`nary_l2_bounded`]).
#[inline(always)]
fn unrolled_body<const BOUNDED: bool>(
    metric: Metric,
    q: &[f32],
    v: &[f32],
    cut: Cutoff,
) -> Option<f32> {
    const U: usize = 8;
    let reduce = |acc: &[f32; U]| {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    };
    let mut acc = [0.0f32; U];
    let chunks = q.len() / U;
    let (qh, qt) = q.split_at(chunks * U);
    let (vh, vt) = v.split_at(chunks * U);
    match metric {
        Metric::L2 => {
            for (c, (qc, vc)) in qh.chunks_exact(U).zip(vh.chunks_exact(U)).enumerate() {
                if BOUNDED && c > 0 && c % (CHECK_DIMS / U) == 0 && cut.stops(reduce(&acc)) {
                    return None;
                }
                for i in 0..U {
                    let d = qc[i] - vc[i];
                    acc[i] += d * d;
                }
            }
        }
        Metric::L1 => {
            for (qc, vc) in qh.chunks_exact(U).zip(vh.chunks_exact(U)) {
                for i in 0..U {
                    acc[i] += (qc[i] - vc[i]).abs();
                }
            }
        }
        Metric::NegativeIp => {
            for (qc, vc) in qh.chunks_exact(U).zip(vh.chunks_exact(U)) {
                for i in 0..U {
                    acc[i] -= qc[i] * vc[i];
                }
            }
        }
    }
    let mut total = reduce(&acc);
    for (a, b) in qt.iter().zip(vt) {
        total += metric.term(*a, *b);
    }
    Some(total)
}

/// Explicit AVX2+FMA kernels: 32 floats (4 × 256-bit registers) per
/// iteration with independent accumulators, horizontal reduction at the
/// end — faithful to the SimSIMD kernels the paper benchmarks against.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn simd_avx2(metric: Metric, q: &[f32], v: &[f32]) -> f32 {
    let Some(total) = avx2_body::<false>(metric, q, v, Cutoff::NONE) else {
        unreachable!("an unbounded kernel runs to the end")
    };
    total
}

/// [`nary_l2_bounded`] on AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn l2_bounded_avx2(q: &[f32], v: &[f32], cut: Cutoff) -> Option<f32> {
    avx2_body::<true>(Metric::L2, q, v, cut)
}

/// The one body of [`simd_avx2`] and [`l2_bounded_avx2`]: with
/// `BOUNDED`, the L2 loop reduces its accumulators every `CHECK_DIMS`
/// dimensions and stops at `cut`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn avx2_body<const BOUNDED: bool>(
    metric: Metric,
    q: &[f32],
    v: &[f32],
    cut: Cutoff,
) -> Option<f32> {
    use std::arch::x86_64::*;
    // The reduction step the PDX layout eliminates (Figure 3): the four
    // accumulators' 32 lanes summed into one value, always in this order.
    let reduce = |acc0: __m256, acc1: __m256, acc2: __m256, acc3: __m256| {
        let sum01 = _mm256_add_ps(acc0, acc1);
        let sum23 = _mm256_add_ps(acc2, acc3);
        let sum = _mm256_add_ps(sum01, sum23);
        let hi = _mm256_extractf128_ps(sum, 1);
        let lo = _mm256_castps256_ps128(sum);
        let s4 = _mm_add_ps(hi, lo);
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0b01));
        _mm_cvtss_f32(s1)
    };
    let n = q.len();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let sign_mask = _mm256_set1_ps(-0.0);
    let mut i = 0usize;
    while i + 32 <= n {
        // One iteration is `CHECK_DIMS` dimensions.
        if BOUNDED && i > 0 && cut.stops(reduce(acc0, acc1, acc2, acc3)) {
            return None;
        }
        let q0 = _mm256_loadu_ps(q.as_ptr().add(i));
        let q1 = _mm256_loadu_ps(q.as_ptr().add(i + 8));
        let q2 = _mm256_loadu_ps(q.as_ptr().add(i + 16));
        let q3 = _mm256_loadu_ps(q.as_ptr().add(i + 24));
        let v0 = _mm256_loadu_ps(v.as_ptr().add(i));
        let v1 = _mm256_loadu_ps(v.as_ptr().add(i + 8));
        let v2 = _mm256_loadu_ps(v.as_ptr().add(i + 16));
        let v3 = _mm256_loadu_ps(v.as_ptr().add(i + 24));
        match metric {
            Metric::L2 => {
                let d0 = _mm256_sub_ps(q0, v0);
                let d1 = _mm256_sub_ps(q1, v1);
                let d2 = _mm256_sub_ps(q2, v2);
                let d3 = _mm256_sub_ps(q3, v3);
                acc0 = _mm256_fmadd_ps(d0, d0, acc0);
                acc1 = _mm256_fmadd_ps(d1, d1, acc1);
                acc2 = _mm256_fmadd_ps(d2, d2, acc2);
                acc3 = _mm256_fmadd_ps(d3, d3, acc3);
            }
            Metric::L1 => {
                let d0 = _mm256_andnot_ps(sign_mask, _mm256_sub_ps(q0, v0));
                let d1 = _mm256_andnot_ps(sign_mask, _mm256_sub_ps(q1, v1));
                let d2 = _mm256_andnot_ps(sign_mask, _mm256_sub_ps(q2, v2));
                let d3 = _mm256_andnot_ps(sign_mask, _mm256_sub_ps(q3, v3));
                acc0 = _mm256_add_ps(acc0, d0);
                acc1 = _mm256_add_ps(acc1, d1);
                acc2 = _mm256_add_ps(acc2, d2);
                acc3 = _mm256_add_ps(acc3, d3);
            }
            Metric::NegativeIp => {
                acc0 = _mm256_fmadd_ps(q0, v0, acc0);
                acc1 = _mm256_fmadd_ps(q1, v1, acc1);
                acc2 = _mm256_fmadd_ps(q2, v2, acc2);
                acc3 = _mm256_fmadd_ps(q3, v3, acc3);
            }
        }
        i += 32;
    }
    while i + 8 <= n {
        let qx = _mm256_loadu_ps(q.as_ptr().add(i));
        let vx = _mm256_loadu_ps(v.as_ptr().add(i));
        match metric {
            Metric::L2 => {
                let d = _mm256_sub_ps(qx, vx);
                acc0 = _mm256_fmadd_ps(d, d, acc0);
            }
            Metric::L1 => {
                let d = _mm256_andnot_ps(sign_mask, _mm256_sub_ps(qx, vx));
                acc0 = _mm256_add_ps(acc0, d);
            }
            Metric::NegativeIp => {
                acc0 = _mm256_fmadd_ps(qx, vx, acc0);
            }
        }
        i += 8;
    }
    let mut total = reduce(acc0, acc1, acc2, acc3);
    if matches!(metric, Metric::NegativeIp) {
        total = -total;
    }
    // Scalar tail.
    for j in i..n {
        total += metric.term(q[j], v[j]);
    }
    Some(total)
}

/// Explicit NEON horizontal kernels (aarch64): 16 floats (4 × 128-bit
/// registers) per iteration with independent accumulators, horizontal
/// reduction at the end — the aarch64 mirror of [`simd_avx2`].
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn simd_neon(metric: Metric, q: &[f32], v: &[f32]) -> f32 {
    let Some(total) = neon_body::<false>(metric, q, v, Cutoff::NONE) else {
        unreachable!("an unbounded kernel runs to the end")
    };
    total
}

/// [`nary_l2_bounded`] on NEON.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn l2_bounded_neon(q: &[f32], v: &[f32], cut: Cutoff) -> Option<f32> {
    neon_body::<true>(Metric::L2, q, v, cut)
}

/// The one body of [`simd_neon`] and [`l2_bounded_neon`]: with
/// `BOUNDED`, the L2 loop reduces its accumulators every `CHECK_DIMS`
/// dimensions (every second iteration) and stops at `cut`.
#[cfg(target_arch = "aarch64")]
#[inline(always)]
unsafe fn neon_body<const BOUNDED: bool>(
    metric: Metric,
    q: &[f32],
    v: &[f32],
    cut: Cutoff,
) -> Option<f32> {
    use std::arch::aarch64::*;
    // The reduction step the PDX layout eliminates (Figure 3): the four
    // accumulators' 16 lanes summed into one value, always in this order.
    let reduce = |acc0: float32x4_t, acc1: float32x4_t, acc2: float32x4_t, acc3: float32x4_t| {
        vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)))
    };
    let n = q.len();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut acc2 = vdupq_n_f32(0.0);
    let mut acc3 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 16 <= n {
        if BOUNDED && i > 0 && i % CHECK_DIMS == 0 && cut.stops(reduce(acc0, acc1, acc2, acc3)) {
            return None;
        }
        let q0 = vld1q_f32(q.as_ptr().add(i));
        let q1 = vld1q_f32(q.as_ptr().add(i + 4));
        let q2 = vld1q_f32(q.as_ptr().add(i + 8));
        let q3 = vld1q_f32(q.as_ptr().add(i + 12));
        let v0 = vld1q_f32(v.as_ptr().add(i));
        let v1 = vld1q_f32(v.as_ptr().add(i + 4));
        let v2 = vld1q_f32(v.as_ptr().add(i + 8));
        let v3 = vld1q_f32(v.as_ptr().add(i + 12));
        match metric {
            Metric::L2 => {
                let d0 = vsubq_f32(q0, v0);
                let d1 = vsubq_f32(q1, v1);
                let d2 = vsubq_f32(q2, v2);
                let d3 = vsubq_f32(q3, v3);
                acc0 = vfmaq_f32(acc0, d0, d0);
                acc1 = vfmaq_f32(acc1, d1, d1);
                acc2 = vfmaq_f32(acc2, d2, d2);
                acc3 = vfmaq_f32(acc3, d3, d3);
            }
            Metric::L1 => {
                acc0 = vaddq_f32(acc0, vabdq_f32(q0, v0));
                acc1 = vaddq_f32(acc1, vabdq_f32(q1, v1));
                acc2 = vaddq_f32(acc2, vabdq_f32(q2, v2));
                acc3 = vaddq_f32(acc3, vabdq_f32(q3, v3));
            }
            Metric::NegativeIp => {
                acc0 = vfmaq_f32(acc0, q0, v0);
                acc1 = vfmaq_f32(acc1, q1, v1);
                acc2 = vfmaq_f32(acc2, q2, v2);
                acc3 = vfmaq_f32(acc3, q3, v3);
            }
        }
        i += 16;
    }
    while i + 4 <= n {
        let qx = vld1q_f32(q.as_ptr().add(i));
        let vx = vld1q_f32(v.as_ptr().add(i));
        match metric {
            Metric::L2 => {
                let d = vsubq_f32(qx, vx);
                acc0 = vfmaq_f32(acc0, d, d);
            }
            Metric::L1 => {
                acc0 = vaddq_f32(acc0, vabdq_f32(qx, vx));
            }
            Metric::NegativeIp => {
                acc0 = vfmaq_f32(acc0, qx, vx);
            }
        }
        i += 4;
    }
    let mut total = reduce(acc0, acc1, acc2, acc3);
    if matches!(metric, Metric::NegativeIp) {
        total = -total;
    }
    // Scalar tail.
    for j in i..n {
        total += metric.term(q[j], v[j]);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance_scalar;

    fn vecs(d: usize) -> (Vec<f32>, Vec<f32>) {
        let q: Vec<f32> = (0..d).map(|i| (i as f32 * 0.3).sin() * 2.0).collect();
        let v: Vec<f32> = (0..d).map(|i| (i as f32 * 0.7).cos() * 3.0 - 0.5).collect();
        (q, v)
    }

    #[test]
    fn all_variants_match_reference_across_lengths() {
        // Lengths chosen to hit every tail path: <8, 8..32 remainder, 32k+r.
        for d in [
            1usize, 3, 7, 8, 9, 15, 16, 31, 32, 33, 40, 64, 100, 131, 768,
        ] {
            let (q, v) = vecs(d);
            for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
                let want = distance_scalar(metric, &q, &v);
                for variant in [
                    KernelVariant::Scalar,
                    KernelVariant::Unrolled,
                    KernelVariant::Simd,
                ] {
                    let got = nary_distance(metric, variant, &q, &v);
                    assert!(
                        (got - want).abs() <= want.abs().max(1.0) * 1e-4,
                        "{metric:?}/{variant:?} d={d}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_length_is_zero() {
        for variant in [
            KernelVariant::Scalar,
            KernelVariant::Unrolled,
            KernelVariant::Simd,
        ] {
            assert_eq!(nary_distance(Metric::L2, variant, &[], &[]), 0.0);
        }
    }

    /// A bounded kernel and the unbounded one whose bits it must keep.
    type Path = (
        &'static str,
        fn(&[f32], &[f32], Cutoff) -> Option<f32>,
        fn(&[f32], &[f32]) -> f32,
    );

    /// Every bounded path compiled for this target, runnable here: the
    /// unrolled fallback, and the SIMD one of the running CPU (AVX2 on
    /// x86-64, NEON on aarch64; the fallback again without either).
    fn bounded_paths() -> [Path; 2] {
        [
            (
                "unrolled",
                |q, v, cut| unrolled_body::<true>(Metric::L2, q, v, cut),
                |q, v| nary_distance(Metric::L2, KernelVariant::Unrolled, q, v),
            ),
            (
                "simd",
                |q, v, cut| nary_l2_bounded(q, v, cut.bound, cut.ties),
                |q, v| nary_distance(Metric::L2, KernelVariant::Simd, q, v),
            ),
        ]
    }

    #[test]
    fn bounded_l2_is_the_full_kernel_or_a_proven_loss() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let hostile = [
            0.0f32,
            -0.0,
            1e19,
            -1e19,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut stopped = 0usize;
        for (name, bounded, full) in bounded_paths() {
            for d in [1usize, 7, 8, 31, 32, 33, 63, 64, 65, 100, 128, 960] {
                for trial in 0..40 {
                    let draw = |rng: &mut rand::rngs::StdRng| -> f32 {
                        if trial % 4 == 3 && rng.random_range(0..8) == 0 {
                            hostile[rng.random_range(0..hostile.len())]
                        } else {
                            rng.random_range(-2.0f32..2.0)
                        }
                    };
                    let q: Vec<f32> = (0..d).map(|_| draw(&mut rng)).collect();
                    let v: Vec<f32> = (0..d).map(|_| draw(&mut rng)).collect();
                    let want = full(&q, &v);
                    let bounds = [
                        want,
                        f32::from_bits(want.to_bits().wrapping_add(1)),
                        f32::from_bits(want.to_bits().wrapping_sub(1)),
                        want * 0.5,
                        want * 0.05,
                        0.0,
                        f32::MAX,
                        f32::INFINITY,
                        f32::NAN,
                    ];
                    for bound in bounds {
                        for ties in [false, true] {
                            let cut = Cutoff { bound, ties };
                            match bounded(&q, &v, cut) {
                                // A NaN distance promises only a NaN back.
                                Some(got) if want.is_nan() => assert!(
                                    got.is_nan(),
                                    "{name} d={d} bound={bound} ties={ties}: {got} for NaN"
                                ),
                                Some(got) => assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{name} d={d} bound={bound} ties={ties}"
                                ),
                                None => {
                                    stopped += 1;
                                    let beats = if ties { want <= bound } else { want < bound };
                                    assert!(
                                        !beats,
                                        "{name} d={d}: stopped at bound={bound} (ties={ties}) \
                                         but {want} beats it"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(stopped > 0, "no bound ever stopped a kernel");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_detection_is_consistent() {
        // Calling twice must agree (OnceLock caching).
        assert_eq!(simd_available(), simd_available());
    }
}
