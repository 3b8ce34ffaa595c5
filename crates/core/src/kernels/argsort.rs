//! The sort behind every PDX-BOND visit order (§5): a bitonic sorting
//! network over the keys [`visit_order`](crate::visit_order) builds, one
//! key per dimension (or zone).
//!
//! A query-aware order is one argsort per (query, block) pair, paid on
//! every scanned block, so it runs at register speed where it can. On
//! [`KernelIsa::Avx512`] the keys are padded to a power of two (at least
//! one register of eight) with a key that sorts last, and sorted by
//! Batcher's bitonic network (Bramas, IJACSA 2017, sorts with the same
//! network in AVX-512): up to 128 keys at a time in sixteen ZMM
//! registers; a longer input sorts its 128-key blocks in registers, then
//! runs each merge stage's strides of 128 keys and more over memory and
//! finishes the stage's shorter strides in registers. Every other ISA —
//! and the scalar policy — sorts with `sort_unstable`. The keys of one
//! argsort are distinct, so every path gives the same permutation.

use crate::kernels::KernelIsa;

/// Bits of a key that hold the index.
const INDEX_BITS: u32 = 30;

/// The key every padding lane holds: `f64::MAX`, above every
/// [`descending_key`] as an integer and as a double.
const PAD: u64 = 0x7FEF_FFFF_FFFF_FFFF;

/// The key of score `score` at index `i`: an integer that orders like
/// the score, highest first (`-0.0` as `0.0`, as `partial_cmp` has it),
/// with the index in its low 30 bits, so ties go by ascending
/// index and no two keys of one argsort are equal.
///
/// Bit 62 is set and the score's word sits in bits 30..62, so every key
/// is also the bit pattern of a positive normal `f64` (a non-NaN score's
/// word stays below `0xFF80_0001`, so the exponent is never all ones),
/// and ordering the keys as integers or as doubles agrees: the network
/// compares them with the double `min` / `max`, which issue on two ports
/// where the 64-bit integer ones issue on one.
///
/// # Panics
/// Panics if the score is NaN or `i` does not fit 30 bits.
pub fn descending_key(i: usize, score: f32) -> u64 {
    assert!(!score.is_nan(), "NaN score");
    assert!(i < 1 << INDEX_BITS, "index {i} past the key's index bits");
    let bits = (score + 0.0).to_bits();
    // Ascending float order as ascending unsigned order, then inverted:
    // the highest score sorts first.
    let ascending = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    1 << 62 | u64::from(!ascending) << INDEX_BITS | i as u64
}

/// The index a [`descending_key`] carries.
pub fn key_index(key: u64) -> u32 {
    (key & ((1 << INDEX_BITS) - 1)) as u32
}

/// Writes into `perm` the indices of the scores `|query_i − means_i|`
/// (`query_i` without means), highest first, equal scores by ascending
/// index: the sort of their [`descending_key`]s. On AVX-512 the keys
/// are built, sorted and read back in registers. `keys` is the sort's
/// buffer.
///
/// # Panics
/// Panics if a score is NaN, if `means` is shorter than `query`, or if
/// `query` has more values than a key can index.
pub fn argsort_descending(
    query: &[f32],
    means: Option<&[f32]>,
    isa: KernelIsa,
    keys: &mut Vec<u64>,
    perm: &mut Vec<u32>,
) {
    let d = query.len();
    let means = means.map(|m| &m[..d]);
    perm.clear();
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx512 {
        assert!(d <= 1 << INDEX_BITS, "{d} scores past the key's index bits");
        keys.clear();
        keys.resize(d.next_power_of_two().max(avx512::LANES), PAD);
        perm.resize(d, 0);
        // SAFETY: `KernelIsa::Avx512` resolves only on a CPU with
        // AVX-512F+VL; `keys` holds a power of two of at least `LANES`
        // keys and no fewer than `d`, `perm` holds `d`, and so do `query`
        // and `means`.
        unsafe { avx512::argsort(query, means, keys, perm) };
        return;
    }
    keys.clear();
    keys.extend(query.iter().enumerate().map(|(i, &q)| {
        let score = match means {
            Some(m) => (q - m[i]).abs(),
            None => q,
        };
        descending_key(i, score)
    }));
    sort_keys(keys, isa);
    perm.extend(keys.iter().map(|&key| key_index(key)));
}

/// Sorts [`descending_key`]s ascending on `isa`'s path. The length is
/// unchanged; the network's padding may grow the capacity once.
pub fn sort_keys(keys: &mut Vec<u64>, isa: KernelIsa) {
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx512 && keys.len() > 1 {
        let n = keys.len();
        keys.resize(n.next_power_of_two().max(avx512::LANES), PAD);
        // SAFETY: `KernelIsa::Avx512` resolves only on a CPU with
        // AVX-512F, and the length is a power of two of at least `LANES`.
        unsafe { avx512::sort(keys) };
        keys.truncate(n);
        return;
    }
    let _ = isa;
    keys.sort_unstable();
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{INDEX_BITS, PAD};
    use std::arch::x86_64::*;

    /// Keys one register holds.
    pub const LANES: usize = 8;
    /// Registers a block sorts in: 128 keys in half the register file.
    const BLOCK: usize = 16;
    /// Keys of one in-register block.
    const BLOCK_KEYS: usize = BLOCK * LANES;

    /// The lanes whose index has bit `j` set (none for `j ≥ LANES`).
    const fn with_bit(j: usize) -> u8 {
        match j {
            1 => 0xAA,
            2 => 0xCC,
            4 => 0xF0,
            _ => 0,
        }
    }

    // The helpers below are `unsafe` for one reason: each must run on a
    // CPU with AVX-512F. They inline, with every loop bound a constant,
    // into `sort`, which enables the feature: so the compiler unrolls the
    // network and keeps a block's registers out of memory. A register
    // holds eight keys as doubles (see `descending_key`).

    /// One exchange inside a register: lane `l` meets lane `l ^ J`
    /// (`J` ∈ {1, 2, 4}); the lanes of `max_lanes` keep the larger key
    /// of their pair, the others the smaller.
    #[inline(always)]
    unsafe fn exchange<const J: usize>(x: __m512d, max_lanes: u8) -> __m512d {
        let partner = match J {
            1 => _mm512_permute_pd::<0b0101_0101>(x),
            2 => _mm512_permutex_pd::<0b01_00_11_10>(x),
            _ => _mm512_shuffle_f64x2::<0b01_00_11_10>(x, x),
        };
        _mm512_mask_max_pd(_mm512_min_pd(x, partner), max_lanes, x, partner)
    }

    /// Steps `j`, `j / 2`, …, 1 of the stage that builds sorted runs of
    /// `K` keys, over the registers `x`. `desc(r)` says whether register
    /// `r` lies in a run that sorts descending; below `K = LANES` the
    /// direction changes inside a register, and `desc` must be `false`.
    #[inline(always)]
    unsafe fn steps<const R: usize, const K: usize>(
        x: &mut [__m512d; R],
        mut j: usize,
        desc: impl Fn(usize) -> bool,
    ) {
        while j >= LANES {
            let jr = j / LANES;
            for a in 0..R {
                if a & jr == 0 {
                    let b = a + jr;
                    let (lo, hi) = (_mm512_min_pd(x[a], x[b]), _mm512_max_pd(x[a], x[b]));
                    (x[a], x[b]) = if desc(a) { (hi, lo) } else { (lo, hi) };
                }
            }
            j /= 2;
        }
        for (r, reg) in x.iter_mut().enumerate() {
            let flip = if desc(r) { 0xFF } else { 0 };
            if j >= 4 {
                *reg = exchange::<4>(*reg, with_bit(4) ^ with_bit(K) ^ flip);
            }
            if j >= 2 {
                *reg = exchange::<2>(*reg, with_bit(2) ^ with_bit(K) ^ flip);
            }
            *reg = exchange::<1>(*reg, with_bit(1) ^ with_bit(K) ^ flip);
        }
    }

    #[inline(always)]
    unsafe fn load<const R: usize>(keys: &[u64]) -> [__m512d; R] {
        let keys = &keys[..R * LANES];
        std::array::from_fn(|r| _mm512_loadu_pd(keys[r * LANES..].as_ptr().cast()))
    }

    #[inline(always)]
    unsafe fn store<const R: usize>(keys: &mut [u64], x: &[__m512d; R]) {
        let keys = &mut keys[..R * LANES];
        for (r, &reg) in x.iter().enumerate() {
            _mm512_storeu_pd(keys[r * LANES..].as_mut_ptr().cast(), reg)
        }
    }

    /// The stage that builds sorted runs of `K` keys inside a block of
    /// `R` registers, if the block holds such a run; the block's last
    /// stage sorts descending when `desc`.
    #[inline(always)]
    unsafe fn stage<const R: usize, const K: usize>(x: &mut [__m512d; R], desc: bool) {
        if K <= R * LANES {
            let last = K == R * LANES;
            steps::<R, K>(x, K / 2, |r| if last { desc } else { (r * LANES) & K != 0 });
        }
    }

    /// Sorts the `R · LANES` keys of `keys` in registers: ascending, or
    /// descending when `desc`.
    #[inline(always)]
    unsafe fn sort_block<const R: usize>(keys: &mut [u64], desc: bool) {
        let mut x = load::<R>(keys);
        stage::<R, 2>(&mut x, desc);
        stage::<R, 4>(&mut x, desc);
        stage::<R, 8>(&mut x, desc);
        stage::<R, 16>(&mut x, desc);
        stage::<R, 32>(&mut x, desc);
        stage::<R, 64>(&mut x, desc);
        stage::<R, BLOCK_KEYS>(&mut x, desc);
        store(keys, &x);
    }

    /// The strides below a block of a merge stage `k > BLOCK_KEYS`, on
    /// one block whose run sorts descending when `desc`.
    #[inline(always)]
    unsafe fn finish_block(keys: &mut [u64], desc: bool) {
        let mut x = load::<BLOCK>(keys);
        // `K` only matters below a register; every `k` here is past it.
        steps::<BLOCK, { 2 * BLOCK_KEYS }>(&mut x, BLOCK_KEYS / 2, |_| desc);
        store(keys, &x);
    }

    /// [`argsort_descending`](super::argsort_descending) on AVX-512:
    /// eight keys a register from eight scores, built as
    /// [`descending_key`](super::descending_key) builds them, the lanes
    /// past `query` left at the padding key; then the network; then the
    /// indices of the first `query.len()` keys into `perm`.
    ///
    /// # Safety
    /// The CPU must have AVX-512F+VL. `keys` holds a power of two of at
    /// least [`LANES`] keys and no fewer than `query`, every one past
    /// `query` the padding key; `perm` and `means` hold exactly as many
    /// values as `query`, which fit the key's index bits.
    ///
    /// # Panics
    /// Panics if a score is NaN.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn argsort(
        query: &[f32],
        means: Option<&[f32]>,
        keys: &mut [u64],
        perm: &mut [u32],
    ) {
        let d = query.len();
        let (lane, magnitude) = (
            _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(0x7FFF_FFFF),
        );
        for (c, out) in keys[..d.next_multiple_of(LANES)]
            .chunks_exact_mut(LANES)
            .enumerate()
        {
            let at = c * LANES;
            let valid = ((1u32 << (d - at).min(LANES)) - 1) as __mmask8;
            let mut score = _mm256_maskz_loadu_ps(valid, query.as_ptr().add(at));
            if let Some(means) = means {
                let mean = _mm256_maskz_loadu_ps(valid, means.as_ptr().add(at));
                let diff = _mm256_castps_si256(_mm256_sub_ps(score, mean));
                score = _mm256_castsi256_ps(_mm256_and_si256(diff, magnitude));
            }
            let score = _mm256_add_ps(score, _mm256_setzero_ps());
            if _mm256_mask_cmp_ps_mask::<_CMP_UNORD_Q>(valid, score, score) != 0 {
                panic!("NaN score");
            }
            // The score's word: a negative score's bits as they are, the
            // others' with every bit below the sign flipped.
            let bits = _mm256_castps_si256(score);
            let flip = _mm256_andnot_si256(_mm256_srai_epi32::<31>(bits), magnitude);
            let word = _mm512_cvtepu32_epi64(_mm256_xor_si256(bits, flip));
            let index = _mm512_add_epi64(_mm512_set1_epi64((1 << 62) + at as i64), lane);
            let key = _mm512_or_si512(_mm512_slli_epi64::<INDEX_BITS>(word), index);
            let key = _mm512_mask_mov_epi64(_mm512_set1_epi64(PAD as i64), valid, key);
            _mm512_storeu_si512(out.as_mut_ptr().cast(), key);
        }
        sort(keys);
        let index_mask = _mm512_set1_epi64((1 << INDEX_BITS) - 1);
        for (c, chunk) in keys[..d.next_multiple_of(LANES)]
            .chunks_exact(LANES)
            .enumerate()
        {
            let at = c * LANES;
            let valid = ((1u32 << (d - at).min(LANES)) - 1) as __mmask8;
            let sorted = _mm512_loadu_si512(chunk.as_ptr().cast());
            let index = _mm512_and_si512(sorted, index_mask);
            _mm512_mask_cvtepi64_storeu_epi32(perm.as_mut_ptr().add(at).cast(), valid, index);
        }
    }

    /// Sorts `keys`, each a [`descending_key`](super::descending_key) or
    /// the padding key, ascending.
    ///
    /// # Safety
    /// The CPU must have AVX-512F.
    ///
    /// # Panics
    /// Panics unless the length is a power of two of at least [`LANES`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sort(keys: &mut [u64]) {
        let n = keys.len();
        assert!(n.is_power_of_two() && n >= LANES, "{n} keys");
        match n / LANES {
            1 => return sort_block::<1>(keys, false),
            2 => return sort_block::<2>(keys, false),
            4 => return sort_block::<4>(keys, false),
            8 => return sort_block::<8>(keys, false),
            BLOCK => return sort_block::<BLOCK>(keys, false),
            _ => {}
        }
        // Runs of one block, alternating in direction: the bitonic
        // input of the first merge stage.
        for (c, block) in keys.chunks_exact_mut(BLOCK_KEYS).enumerate() {
            sort_block::<BLOCK>(block, c % 2 == 1);
        }
        let mut k = 2 * BLOCK_KEYS;
        while k <= n {
            // Strides of a block and more pair registers of two blocks.
            let mut j = k / 2;
            while j >= BLOCK_KEYS {
                for i in (0..n).step_by(LANES).filter(|i| i & j == 0) {
                    let [a] = load::<1>(&keys[i..]);
                    let [b] = load::<1>(&keys[i + j..]);
                    let (lo, hi) = (_mm512_min_pd(a, b), _mm512_max_pd(a, b));
                    let (lo, hi) = if i & k != 0 { (hi, lo) } else { (lo, hi) };
                    store(&mut keys[i..], &[lo]);
                    store(&mut keys[i + j..], &[hi]);
                }
                j /= 2;
            }
            for (c, block) in keys.chunks_exact_mut(BLOCK_KEYS).enumerate() {
                finish_block(block, (c * BLOCK_KEYS) & k != 0);
            }
            k *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::detected_isa;

    /// A deterministic stream of keys of scores from a small grid, so
    /// equal scores are common, or from all non-NaN bit patterns (both
    /// infinities, zeros and subnormals included).
    fn keys(n: usize, seed: u64, narrow: bool) -> Vec<u64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let score = match narrow {
                    true => (s % 5) as f32 - 2.0,
                    false => f32::from_bits(s as u32),
                };
                descending_key(
                    i,
                    if score.is_nan() {
                        f32::NEG_INFINITY
                    } else {
                        score
                    },
                )
            })
            .collect()
    }

    #[test]
    fn every_isa_sorts_like_sort_unstable() {
        let isas = [KernelIsa::Scalar, detected_isa()];
        for n in (0..=300).chain([511, 512, 513, 960, 1024, 1025, 2048, 4100]) {
            for (seed, narrow) in [(1, false), (2, true), (n as u64 + 3, false)] {
                let mut want = keys(n, seed, narrow);
                want.sort_unstable();
                for isa in isas {
                    let mut got = keys(n, seed, narrow);
                    sort_keys(&mut got, isa);
                    assert_eq!(got, want, "n {n}, seed {seed}, {}", isa.name());
                }
            }
        }
    }

    #[test]
    fn sorted_and_reversed_inputs_sort() {
        for n in [8usize, 128, 256, 1024] {
            let want: Vec<u64> = (0..n).map(|i| descending_key(i, -(i as f32))).collect();
            let mut rev: Vec<u64> = want.iter().rev().copied().collect();
            let mut same = want.clone();
            sort_keys(&mut rev, detected_isa());
            sort_keys(&mut same, detected_isa());
            assert_eq!(rev, want);
            assert_eq!(same, want);
        }
    }

    /// Keys order as their scores do, highest first, as integers and as
    /// the doubles the network compares, and read back their index.
    #[test]
    fn keys_order_like_scores_as_integers_and_doubles() {
        let scores = [
            f32::INFINITY,
            f32::MAX,
            1.0,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0,
            0.0,
            -f32::MIN_POSITIVE / 2.0,
            -1.0,
            f32::MIN,
            f32::NEG_INFINITY,
        ];
        let keys: Vec<u64> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| descending_key(i, s))
            .collect();
        for pair in keys.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!(f64::from_bits(pair[0]) < f64::from_bits(pair[1]));
        }
        for (i, &key) in keys.iter().enumerate() {
            assert!(f64::from_bits(key).is_normal() && key < PAD);
            assert_eq!(key_index(key), i as u32);
        }
        assert_eq!(descending_key(3, -0.0), descending_key(3, 0.0));
        let last = descending_key((1 << INDEX_BITS) - 1, f32::NEG_INFINITY);
        assert!(last < PAD && f64::from_bits(last) < f64::MAX);
    }
}
