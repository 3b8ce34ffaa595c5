//! Kernel bit-identity property suite.
//!
//! The [`KernelPolicy`] contract says the explicit SIMD kernels are a
//! *pure performance knob*: for every metric, layout, lane count, tail
//! shape, permuted dimension order, and survivor subset, the dispatched
//! kernel must reproduce the scalar oracle **bit for bit** (`to_bits`
//! equality). These properties pin that contract on whatever ISA the
//! host actually detects — on a scalar-only machine they degenerate to
//! scalar-vs-scalar and stay green.

use pdx::core::kernels::{
    pdx_accumulate_band, pdx_accumulate_groups, pdx_accumulate_survivors, sq8_accumulate_groups,
    sq8_accumulate_survivors, survival_bits, DimSel,
};
use pdx::prelude::*;
use proptest::prelude::*;

/// Values that stress the FP edge cases: ordinary magnitudes plus
/// zeros, subnormals and infinities. Bit-identity must survive all of
/// them — identical op sequences produce identical NaN/Inf propagation.
fn value_strategy() -> impl Strategy<Value = f32> {
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

/// Collections with deliberately awkward shapes: lane counts from 1 up
/// past the widest SIMD tile (64 lanes on AVX-512, 32 on AVX2), so every
/// test run exercises full tiles, partial tiles, and scalar tails.
fn collection_strategy() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..130, 1usize..40).prop_flat_map(|(n, d)| {
        proptest::collection::vec(value_strategy(), n * d).prop_map(move |data| (n, d, data))
    })
}

/// Finite-valued collections for the SQ8 tests (the quantizer learns a
/// min/scale per dimension, which requires finite inputs).
fn finite_collection_strategy() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..130, 1usize..40).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-100.0f32..100.0, n * d).prop_map(move |data| (n, d, data))
    })
}

/// A deterministic pseudo-random dimension permutation.
fn permute(d: usize, salt: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..d as u32).collect();
    for i in (1..d).rev() {
        let j = (i * 2654435761 + salt * 40503) % (i + 1);
        perm.swap(i, j);
    }
    perm
}

/// A deterministic survivor subset of the lanes of one group (always
/// non-empty so the kernels have work to do).
fn survivors(lanes: usize, salt: usize) -> Vec<u32> {
    let picked: Vec<u32> = (0..lanes as u32)
        .filter(|&l| !(l as usize * 7 + salt).is_multiple_of(3))
        .collect();
    if picked.is_empty() {
        vec![(salt % lanes) as u32]
    } else {
        picked
    }
}

/// A deterministic survivor subset of a whole block: every `every`-th
/// vector from `salt` on, so the count runs from one or two (well under
/// a SIMD pass of 8) to the whole block, and survivors fall in every
/// group, the partial tail group included.
fn block_survivors(n: usize, every: usize, salt: usize) -> Vec<u32> {
    (salt % every.min(n)..n)
        .step_by(every)
        .map(|p| p as u32)
        .collect()
}

fn to_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every distance of `block` to `q` under one policy: the dense kernel
/// over all its groups and dimensions, which is what `pdx_scan` runs at
/// `Auto`.
fn scan(metric: Metric, block: &PdxBlock, q: &[f32], policy: KernelPolicy) -> Vec<f32> {
    let (mut out, dims) = (vec![0.0f32; block.len()], DimSel::Range(0..block.dims()));
    pdx_accumulate_groups(
        metric,
        block,
        0..block.group_count(),
        q,
        dims,
        &mut out,
        policy,
    );
    out
}

/// [`scan`] for a block of SQ8 codes, without the query's bias: the
/// partial sums `sq8_scan` adds it to.
fn scan8(q: &Sq8Query, block: &PdxBlock<u8>, policy: KernelPolicy) -> Vec<f32> {
    let mut out = vec![0.0f32; block.len()];
    sq8_accumulate_groups(
        q,
        block,
        0..block.group_count(),
        0..block.dims(),
        &mut out,
        policy,
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full-scan f32 kernel: scalar and dispatched SIMD agree bit
    /// for bit on every metric, including NaN/Inf propagation.
    #[test]
    fn pdx_scan_policies_bit_identical(
        (n, d, data) in collection_strategy(),
        group in 1usize..130,
    ) {
        let block = PdxBlock::from_rows(&data, n, d, group);
        let q: Vec<f32> = data[..d].iter().map(|x| x * 0.5 + 1.0).collect();
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let want = scan(metric, &block, &q, KernelPolicy::Scalar);
            for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
                let got = scan(metric, &block, &q, policy);
                let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got_bits, want_bits);
            }
        }
    }

    /// The ranged + permuted WARMUP kernels: partial dimension ranges
    /// and arbitrary storage-dimension orders stay bit-identical, and a
    /// permutation that happens to be `0..d` matches the ranged form.
    #[test]
    fn pdx_accumulate_policies_bit_identical(
        (n, d, data) in collection_strategy(),
        group in 1usize..100,
        salt in 0usize..1000,
    ) {
        let block = PdxBlock::from_rows(&data, n, d, group);
        let q: Vec<f32> = data[data.len() - d..].to_vec();
        let split = d - d / 3;
        let perm = permute(d, salt);
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            for (i, g) in block.groups().enumerate() {
                let one = || i..i + 1;
                let mut want = vec![1.5f32; g.lanes];
                pdx_accumulate_groups(
                    metric, &block, one(), &q, DimSel::Range(0..split), &mut want, KernelPolicy::Scalar,
                );
                let mut want_p = vec![0.25f32; g.lanes];
                pdx_accumulate_groups(
                    metric, &block, one(), &q, DimSel::Ids(&perm[..split]), &mut want_p,
                    KernelPolicy::Scalar,
                );
                for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
                    let mut got = vec![1.5f32; g.lanes];
                    pdx_accumulate_groups(
                        metric, &block, one(), &q, DimSel::Range(0..split), &mut got, policy,
                    );
                    prop_assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        );
                    let mut got_p = vec![0.25f32; g.lanes];
                    pdx_accumulate_groups(
                        metric, &block, one(), &q, DimSel::Ids(&perm[..split]), &mut got_p, policy,
                    );
                    prop_assert_eq!(
                        got_p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want_p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        );
                }
            }
        }
    }

    /// The PRUNE-phase gather kernels on a one-group block (the view a
    /// per-group caller such as `pdx_accumulate_positions` takes):
    /// arbitrary survivor subsets, with and without a dimension
    /// permutation.
    #[test]
    fn pdx_positions_policies_bit_identical(
        (_, d, data) in collection_strategy(),
        group in 1usize..100,
        salt in 0usize..1000,
    ) {
        let q: Vec<f32> = data[..d].to_vec();
        let lo = d / 4;
        let perm = permute(d, salt + 1);
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            for rows in data.chunks(group * d) {
                let lanes = rows.len() / d;
                let one = PdxBlock::from_rows(rows, lanes, d, lanes);
                let pos = survivors(lanes, salt);
                let run = |dims: DimSel<'_>, policy| {
                    let mut acc = vec![2.0f32; pos.len()];
                    pdx_accumulate_survivors(metric, &one, &q, dims, &pos, &mut acc, policy);
                    to_bits(&acc)
                };
                let want = run(DimSel::Range(lo..d), KernelPolicy::Scalar);
                let want_p = run(DimSel::Ids(&perm[lo..]), KernelPolicy::Scalar);
                for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
                    prop_assert_eq!(&run(DimSel::Range(lo..d), policy), &want);
                    prop_assert_eq!(&run(DimSel::Ids(&perm[lo..]), policy), &want_p);
                }
            }
        }
    }

    /// The block-level survivor kernel PDXearch's PRUNE phase calls once
    /// per tile: survivors spread over every group of the block (the
    /// partial tail group too), fewer and more than one SIMD pass of 8.
    /// Every policy must reproduce the scalar oracle bit for bit — and
    /// the oracle is the *dense* kernel's lane, because a survivor sees
    /// the same dimensions in the same order whichever kernel reads it.
    #[test]
    fn pdx_survivors_bit_identical_to_the_dense_lanes(
        (n, d, data) in collection_strategy(),
        group in 1usize..100,
        every in 1usize..24,
        salt in 0usize..1000,
    ) {
        let block = PdxBlock::from_rows(&data, n, d, group);
        let q: Vec<f32> = data[..d].to_vec();
        let lo = d / 4;
        let perm = permute(d, salt + 2);
        let pos = block_survivors(n, every, salt);
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let mut dense = vec![2.0f32; n];
            let mut dense_p = vec![2.0f32; n];
            for (i, g) in block.groups().enumerate() {
                let (lanes, scalar) = (g.start_vector..g.start_vector + g.lanes, KernelPolicy::Scalar);
                pdx_accumulate_groups(
                    metric, &block, i..i + 1, &q, DimSel::Range(lo..d), &mut dense[lanes.clone()],
                    scalar,
                );
                pdx_accumulate_groups(
                    metric, &block, i..i + 1, &q, DimSel::Ids(&perm[lo..]), &mut dense_p[lanes],
                    scalar,
                );
            }
            let want: Vec<f32> = pos.iter().map(|&p| dense[p as usize]).collect();
            let want_p: Vec<f32> = pos.iter().map(|&p| dense_p[p as usize]).collect();
            for policy in [KernelPolicy::Scalar, KernelPolicy::Auto, KernelPolicy::Simd] {
                let mut got = vec![2.0f32; pos.len()];
                pdx_accumulate_survivors(
                    metric, &block, &q, DimSel::Range(lo..d), &pos, &mut got, policy,
                );
                prop_assert_eq!(to_bits(&got), to_bits(&want));
                let mut got_p = vec![2.0f32; pos.len()];
                pdx_accumulate_survivors(
                    metric, &block, &q, DimSel::Ids(&perm[lo..]), &pos, &mut got_p, policy,
                );
                prop_assert_eq!(to_bits(&got_p), to_bits(&want_p));
            }
        }
    }

    /// The SQ8 twin of the block-level survivor kernel, under the same
    /// contract and the same oracle (the dense SQ8 kernel's lanes).
    #[test]
    fn sq8_survivors_bit_identical_to_the_dense_lanes(
        (n, d, data) in finite_collection_strategy(),
        group in 1usize..130,
        every in 1usize..24,
        salt in 0usize..1000,
    ) {
        let quantizer = Sq8Quantizer::fit(&data, n, d);
        let block = quantizer.encode_block(&data, n, group);
        let raw: Vec<f32> = data[..d].iter().map(|x| x * 0.75 - 2.0).collect();
        let lo = d / 4;
        let pos = block_survivors(n, every, salt);
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let q = quantizer.prepare_query(metric, &raw);
            let mut dense = vec![3.0f32; n];
            for (i, g) in block.groups().enumerate() {
                let lanes = g.start_vector..g.start_vector + g.lanes;
                let acc = &mut dense[lanes];
                sq8_accumulate_groups(&q, &block, i..i + 1, lo..d, acc, KernelPolicy::Scalar);
            }
            let want: Vec<f32> = pos.iter().map(|&p| dense[p as usize]).collect();
            for policy in [KernelPolicy::Scalar, KernelPolicy::Auto, KernelPolicy::Simd] {
                let mut got = vec![3.0f32; pos.len()];
                sq8_accumulate_survivors(&q, &block, lo..d, &pos, &mut got, policy);
                prop_assert_eq!(to_bits(&got), to_bits(&want));
            }
        }
    }

    /// The quantized f32-space kernels: scan, ranged accumulate, and
    /// the survivor gather all stay bit-identical across policies.
    #[test]
    fn sq8_policies_bit_identical(
        (n, d, data) in finite_collection_strategy(),
        group in 1usize..130,
        salt in 0usize..1000,
    ) {
        let quantizer = Sq8Quantizer::fit(&data, n, d);
        let block = quantizer.encode_block(&data, n, group);
        let raw: Vec<f32> = data[..d].iter().map(|x| x * 0.75 - 2.0).collect();
        let split = d - d / 3;
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let q = quantizer.prepare_query(metric, &raw);
            let want = scan8(&q, &block, KernelPolicy::Scalar);
            for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
                let got = scan8(&q, &block, policy);
                prop_assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    );
            }
            for ((i, g), rows) in block.groups().enumerate().zip(data.chunks(group * d)) {
                let pos = survivors(g.lanes, salt);
                let one = quantizer.encode_block(rows, g.lanes, g.lanes);
                let tail = split.min(d - 1)..d;
                let mut want_a = vec![0.5f32; g.lanes];
                sq8_accumulate_groups(&q, &block, i..i + 1, 0..split, &mut want_a, KernelPolicy::Scalar);
                let mut want_s = vec![3.0f32; pos.len()];
                sq8_accumulate_survivors(
                    &q, &one, tail.clone(), &pos, &mut want_s, KernelPolicy::Scalar,
                );
                for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
                    let mut got_a = vec![0.5f32; g.lanes];
                    sq8_accumulate_groups(&q, &block, i..i + 1, 0..split, &mut got_a, policy);
                    prop_assert_eq!(to_bits(&got_a), to_bits(&want_a));
                    let mut got_s = vec![3.0f32; pos.len()];
                    sq8_accumulate_survivors(&q, &one, tail.clone(), &pos, &mut got_s, policy);
                    prop_assert_eq!(to_bits(&got_s), to_bits(&want_s));
                }
            }
        }
    }
}

proptest! {
    /// The dense rotation kernel (`pdx-linalg`'s `dot_rows`, behind
    /// every BSA query and collection rotation) under the same
    /// contract: explicit policies `Scalar` and `Simd` produce the same
    /// bits, whatever `PDX_KERNEL` says, and so does the `Auto` policy
    /// the rotations actually run on.
    #[test]
    fn rotation_kernel_is_policy_independent(
        (n, d, data) in finite_collection_strategy(),
        xr in 1usize..6,
    ) {
        use pdx::linalg::{kernel::dot_rows, MatrixView};
        let a = MatrixView::new(n, d, &data);
        let xr = xr.min(n);
        let x = MatrixView::new(xr, d, &data[..xr * d]);
        let mut want = vec![0.0f32; xr * n];
        dot_rows(a, x, &mut want, KernelPolicy::Scalar);
        for policy in [KernelPolicy::Simd, KernelPolicy::Auto] {
            let mut got = vec![f32::NAN; xr * n];
            dot_rows(a, x, &mut got, policy);
            prop_assert!(
                got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()),
                "rotation diverged under {policy:?}"
            );
        }
    }
}

/// The shapes the property above reaches only by chance, pinned: two
/// full groups plus a 5-lane tail group (`lanes < group_size`), with 3
/// survivors (under one SIMD pass) and 11 (a full pass plus a short
/// one), each set touching all three groups.
#[test]
fn survivor_kernels_span_groups_and_the_tail_group() {
    let (n, d, group) = (2 * 64 + 5, 24, 64);
    let data: Vec<f32> = (0..n * d)
        .map(|i| ((i * 37 % 101) as f32) * 0.25 - 12.0)
        .collect();
    let q: Vec<f32> = (0..d).map(|i| (i as f32 * 0.77).sin() * 3.0).collect();
    let block = PdxBlock::from_rows(&data, n, d, group);
    let quantizer = Sq8Quantizer::fit(&data, n, d);
    let codes = quantizer.encode_block(&data, n, group);
    let perm = permute(d, 5);
    for pos in [
        vec![3u32, 70, 130],
        vec![0, 9, 63, 64, 65, 100, 127, 128, 129, 131, 132],
    ] {
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let q8 = quantizer.prepare_query(metric, &q);
            let run = |policy| {
                let mut ranged = vec![0.0f32; pos.len()];
                pdx_accumulate_survivors(
                    metric,
                    &block,
                    &q,
                    DimSel::Range(2..d),
                    &pos,
                    &mut ranged,
                    policy,
                );
                let mut permuted = vec![0.0f32; pos.len()];
                pdx_accumulate_survivors(
                    metric,
                    &block,
                    &q,
                    DimSel::Ids(&perm),
                    &pos,
                    &mut permuted,
                    policy,
                );
                let mut quantized = vec![0.0f32; pos.len()];
                sq8_accumulate_survivors(&q8, &codes, 2..d, &pos, &mut quantized, policy);
                [to_bits(&ranged), to_bits(&permuted), to_bits(&quantized)]
            };
            let want = run(KernelPolicy::Scalar);
            // The scalar oracle itself is the full distance's lanes.
            let full = scan(metric, &block, &q, KernelPolicy::Scalar);
            for (j, &p) in pos.iter().enumerate() {
                let tol = full[p as usize].abs().max(1.0) * 1e-4;
                let permuted = f32::from_bits(want[1][j]);
                assert!((permuted - full[p as usize]).abs() <= tol, "{metric:?}");
            }
            assert_eq!(run(KernelPolicy::Simd), want, "{metric:?} simd");
            assert_eq!(run(KernelPolicy::Auto), want, "{metric:?} auto");
        }
    }
}

/// The bound pass of one pruner at one checkpoint: for every length —
/// empty, under / at / past one compare of 8, one word of 64 and one
/// tile of 1 024 — with and without an aux row and under both policies,
/// the survival bits and their count are those of a scalar loop of
/// `survives`. The partials hold NaN, ±inf, −0.0 and, where the aux
/// value is zero, exact ties `slack == limit` (a tie survives).
fn check_bound_pass<P: Pruner>(name: &str, cp: &P::Checkpoint) {
    let limit = P::limit(cp);
    assert!(limit.is_finite(), "{name}: limit {limit}");
    let spread = limit.abs().max(1.0);
    for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025] {
        let mut state = 0x9E37_79B9u32.wrapping_mul(n as u32 + 1);
        let mut unit = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32
        };
        let aux: Vec<f32> = (0..n)
            .map(|l| {
                if l % 3 == 0 {
                    0.0
                } else {
                    unit() * spread.sqrt()
                }
            })
            .collect();
        let partials: Vec<f32> = (0..n)
            .map(|l| match l % 13 {
                0 | 3 | 6 => limit,
                1 => f32::NAN,
                2 => f32::INFINITY,
                4 => f32::NEG_INFINITY,
                5 => -0.0,
                _ => limit + (unit() - 0.5) * spread,
            })
            .collect();
        for aux in [None, Some(&aux[..])] {
            let keep = |l: usize| P::survives(cp, partials[l], aux.map_or(0.0, |a| a[l]));
            let mut want = vec![0u64; n.div_ceil(64)];
            for l in (0..n).filter(|&l| keep(l)) {
                want[l / 64] |= 1 << (l % 64);
            }
            let count = (0..n).filter(|&l| keep(l)).count();
            // Ties survive, NaN does not, whatever the aux row says.
            for l in (0..n).filter(|l| l % 39 == 0) {
                assert!(keep(l), "{name}: tie at lane {l} of {n}");
            }
            assert!((0..n).all(|l| l % 13 != 1 || !keep(l)), "{name}: NaN kept");
            for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
                let mut bits = vec![u64::MAX; 40];
                let counted = survival_bits::<P>(cp, &partials, aux, &mut bits, policy);
                let at = format!("{name} n={n} aux={} {policy:?}", aux.is_some());
                assert_eq!(bits, want, "{at}");
                assert_eq!(counted, count, "{at}");
            }
        }
    }
}

/// The bound nest serves all five pruners: what `slack` / `limit` say a
/// register of lanes at a time is what `survives` says one lane at a
/// time.
#[test]
fn bound_pass_bits_equal_the_scalar_survives_loop() {
    let (n, d) = (300usize, 16usize);
    let rows: Vec<f32> = (0..n * d)
        .map(|i| ((i * 37 % 101) as f32) * 0.25 - 12.0 + (i % 7) as f32 * 0.5)
        .collect();
    let raw_q: Vec<f32> = (0..d).map(|i| (i as f32 * 0.77).sin() * 3.0).collect();
    let sched = checkpoints(StepPolicy::default(), d);
    let (scanned, threshold) = (sched[1], 750.0f32);

    let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
    let cp = bond.checkpoint(&bond.prepare_query(&raw_q), scanned, d, threshold);
    check_bound_pass::<PdxBond>("bond", &cp);
    // BOND's bound is the threshold itself, as it was before `slack`.
    assert!(PdxBond::survives(&cp, threshold, 9.0) && !PdxBond::survives(&cp, 750.1, 0.0));

    let quantizer = Sq8Quantizer::fit(&rows, n, d);
    let sq8 = Sq8Bound::new(&quantizer, Metric::NegativeIp);
    let cp = sq8.checkpoint(&sq8.prepare_query(&raw_q), scanned, d, threshold);
    check_bound_pass::<Sq8Bound<'_>>("sq8", &cp);

    let ads = AdSampling::fit(d, 3);
    let cp = ads.checkpoint(&ads.prepare_query(&raw_q), scanned, d, threshold);
    check_bound_pass::<AdSampling>("adsampling", &cp);

    let bsa = Bsa::fit(&rows, n, d, usize::MAX);
    let cp = bsa.checkpoint(&bsa.prepare_query(&raw_q), scanned, d, threshold);
    check_bound_pass::<Bsa>("bsa", &cp);

    let rotated = bsa.transform_collection(&rows, n, 1);
    let learned = BsaLearned::fit(bsa, &rotated, n, &sched, 500, 11);
    let cp = learned.checkpoint(&learned.prepare_query(&raw_q), scanned, d, threshold);
    check_bound_pass::<BsaLearned>("bsa-learned", &cp);
}

/// One dense call over a range of groups is the per-group calls it
/// replaces, bit for bit: `f32` (ranged and permuted) and `u8` (ranged —
/// SQ8 has no dimension order), every metric, both policies, over the
/// empty range, one group, one tile of 16 groups, the partial tail group
/// alone and the whole block — and it writes nothing outside the range.
#[test]
fn dense_over_a_group_range_equals_the_per_group_calls() {
    let d = 12usize;
    for (n, group) in [(64 * 19 + 17, 64usize), (300, 16), (5, 64), (64, 64)] {
        let data: Vec<f32> = (0..n * d)
            .map(|i| ((i * 29 % 113) as f32) * 0.5 - 20.0)
            .collect();
        let block = PdxBlock::from_rows(&data, n, d, group);
        let quantizer = Sq8Quantizer::fit(&data, n, d);
        let codes = quantizer.encode_block(&data, n, group);
        let raw: Vec<f32> = (0..d).map(|i| (i as f32 * 0.6).cos() * 4.0).collect();
        let perm = permute(d, n);
        let (lo, groups) = (d / 4, block.group_count());
        let ranges = [
            0..0,
            groups..groups,
            0..1,
            0..groups.min(16),
            groups - 1..groups,
            groups / 2..groups,
            0..groups,
        ];
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let q8 = quantizer.prepare_query(metric, &raw);
            for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
                // The per-group calls, over the whole block.
                let mut want = [vec![1.5f32; n], vec![1.5f32; n], vec![1.5f32; n]];
                for (i, g) in block.groups().enumerate() {
                    let lanes = g.start_vector..g.start_vector + g.lanes;
                    let (ranged, permuted) = (DimSel::Range(lo..d), DimSel::Ids(&perm[lo..]));
                    let one = || i..i + 1;
                    let acc = &mut want[0][lanes.clone()];
                    pdx_accumulate_groups(metric, &block, one(), &raw, ranged, acc, policy);
                    let acc = &mut want[1][lanes.clone()];
                    pdx_accumulate_groups(metric, &block, one(), &raw, permuted, acc, policy);
                    sq8_accumulate_groups(&q8, &codes, one(), lo..d, &mut want[2][lanes], policy);
                }
                for range in &ranges {
                    let lanes = (range.start * group).min(n)..(range.end * group).min(n);
                    let mut got = [vec![1.5f32; n], vec![1.5f32; n], vec![1.5f32; n]];
                    let (ranged, permuted) = (DimSel::Range(lo..d), DimSel::Ids(&perm[lo..]));
                    let r = || range.clone();
                    let acc = &mut got[0][lanes.clone()];
                    pdx_accumulate_groups(metric, &block, r(), &raw, ranged, acc, policy);
                    let acc = &mut got[1][lanes.clone()];
                    pdx_accumulate_groups(metric, &block, r(), &raw, permuted, acc, policy);
                    let acc = &mut got[2][lanes.clone()];
                    sq8_accumulate_groups(&q8, &codes, r(), lo..d, acc, policy);
                    for (k, (got, want)) in got.iter().zip(&want).enumerate() {
                        let at =
                            format!("n={n} group={group} {metric:?} {policy:?} {range:?} #{k}");
                        assert_eq!(
                            to_bits(&got[lanes.clone()]),
                            to_bits(&want[lanes.clone()]),
                            "{at}"
                        );
                        let untouched = |v: &[f32]| v.iter().all(|&x| x == 1.5);
                        assert!(
                            untouched(&got[..lanes.start]) && untouched(&got[lanes.end..]),
                            "{at}"
                        );
                    }
                }
            }
        }
    }
}

/// Routing a band is a loop of single routes, bit for bit. For centroid
/// counts on each side of a 16- and a 64-lane register tile (1, 8, 15,
/// 16, 63, 64, 65 and 200 centroids in 16- and 64-wide groups, so narrow
/// groups, rest tiles and full tiles all come up), dims 1, 7, 128 and
/// 960, all three metrics and bands of 1 to 9 and 64 queries (every
/// remainder of a two- and a four-query block): `pdx_accumulate_band`
/// under `Scalar`, `Simd` and `Auto` gives every query the distance bits
/// of its own scalar `pdx_scan`, and `probe_orders` the ids of its own
/// band of one — which are those of the linear centroid scan.
#[test]
fn band_routing_equals_single_routes() {
    use pdx::index::ivf::{centroid_block, probe_orders};
    let val = |i: usize, salt: usize| ((i * 37 + salt * 101) % 997) as f32 * 0.01 - 5.0;
    let nprobe = 5;
    for d in [1usize, 7, 128, 960] {
        let packed: Vec<f32> = (0..64 * d).map(|i| val(i, 3)).collect();
        let queries: Vec<&[f32]> = packed.chunks(d).collect();
        for n in [1usize, 8, 15, 16, 63, 64, 65, 200] {
            let rows: Vec<f32> = (0..n * d).map(|i| val(i, 7)).collect();
            for (group, metric) in [16usize, 64]
                .into_iter()
                .flat_map(|g| [Metric::L2, Metric::L1, Metric::NegativeIp].map(|m| (g, m)))
            {
                let at = format!("{n} centroids of d={d} in groups of {group}, {metric:?}");
                let centroids = centroid_block(&rows, d, group);
                let alone =
                    |q: &[f32]| to_bits(&scan(metric, &centroids.pdx, q, KernelPolicy::Scalar));
                let want: Vec<Vec<u32>> = queries.iter().map(|q| alone(q)).collect();
                let single: Vec<Vec<u32>> = queries
                    .iter()
                    .map(|q| probe_orders(&centroids, &[q], nprobe, metric).remove(0))
                    .collect();
                for (bits, ids) in want.iter().zip(&single) {
                    let mut heap = KnnHeap::new(nprobe);
                    for (&id, &b) in centroids.row_ids.iter().zip(bits) {
                        heap.push(id, f32::from_bits(b));
                    }
                    let linear: Vec<u32> = heap.into_sorted().iter().map(|x| x.id as u32).collect();
                    assert_eq!(ids, &linear, "{at}: band of one vs the linear scan");
                }
                for b in (1..=9).chain([64]) {
                    for policy in [KernelPolicy::Scalar, KernelPolicy::Simd, KernelPolicy::Auto] {
                        let mut acc = vec![0.0f32; b * n];
                        pdx_accumulate_band(
                            metric,
                            &centroids.pdx,
                            &queries[..b],
                            0..d,
                            &mut acc,
                            policy,
                        );
                        for (j, got) in acc.chunks(n).enumerate() {
                            assert_eq!(to_bits(got), want[j], "{at}: q{j} of {b} under {policy:?}");
                        }
                    }
                    let band = probe_orders(&centroids, &queries[..b], nprobe, metric);
                    assert_eq!(band, single[..b], "{at}: probe lists of a band of {b}");
                }
            }
        }
    }
}

/// Dispatch sanity: detection is stable and prefers the widest ISA, the
/// policies resolve the way the docs promise, and the wire codes
/// round-trip.
#[test]
fn dispatch_is_stable_and_consistent() {
    let isa = detected_isa();
    assert_eq!(isa, detected_isa(), "detection must be cached and stable");
    // The query/collection rotation takes the `Auto` policy, so this is
    // the kernel `Matrix::matvec` / `mul_transposed` run on here: the
    // 8-lane AVX2 tile on an AVX-512 host.
    println!(
        "kernel dispatch: detected {}, rotation (Auto policy) runs {}",
        isa.name(),
        pdx::linalg::kernel::dot_rows_isa(KernelPolicy::Auto).name()
    );
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        let avx512 = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl");
        if avx2 && avx512 {
            assert_eq!(
                isa,
                KernelIsa::Avx512,
                "avx512f+bw+vl present: detection prefers it"
            );
        } else if avx2 {
            assert_eq!(isa, KernelIsa::Avx2);
        }
        if isa == KernelIsa::Avx512 {
            let rotation = pdx::linalg::kernel::dot_rows_isa(KernelPolicy::Simd);
            assert_eq!(rotation, KernelIsa::Avx2, "the rotation stays 8 lanes");
        }
    }
    assert_eq!(KernelPolicy::Scalar.resolve(), KernelIsa::Scalar);
    assert_eq!(KernelPolicy::Simd.resolve(), isa);
    // `Auto` honors the PDX_KERNEL env; with `scalar` it must land on
    // the scalar oracle, otherwise on the detected ISA.
    match std::env::var("PDX_KERNEL").as_deref() {
        Ok("scalar") => assert_eq!(KernelPolicy::Auto.resolve(), KernelIsa::Scalar),
        Ok("auto") | Ok("simd") | Err(_) => assert_eq!(KernelPolicy::Auto.resolve(), isa),
        Ok(_) => {} // invalid override: warned once, treated as auto
    }
    assert_eq!(active_kernel_isa(), KernelPolicy::Auto.resolve());
    for (isa, code, name) in [
        (KernelIsa::Scalar, 0, "scalar"),
        (KernelIsa::Avx2, 1, "avx2"),
        (KernelIsa::Neon, 2, "neon"),
        (KernelIsa::Avx512, 3, "avx512"),
    ] {
        assert_eq!((isa.wire_code(), isa.name()), (code, name));
        assert_eq!(KernelIsa::from_wire(code), Some(isa));
    }
    assert_eq!(KernelIsa::from_wire(4), None);
    for (name, want) in [
        ("auto", Some(KernelPolicy::Auto)),
        ("scalar", Some(KernelPolicy::Scalar)),
        ("simd", Some(KernelPolicy::Simd)),
        ("sse9", None),
    ] {
        assert_eq!(KernelPolicy::parse(name), want, "parse {name:?}");
    }
}

/// Every `# Panics` the vertical kernels document — and the batch entry
/// points' ragged-buffer one — as one table. The
/// SIMD loads are raw, so their bounds must be refused *before* any
/// load, and the entry points check groups, accumulators, positions and
/// dimensions once a call whatever the policy: every row panics with its
/// documented message under `Scalar` and `Simd` alike (six dimension
/// rows used to surface as a slice-index panic of the checked scalar
/// loops, with whatever message std printed). Under `Simd` the rows aim
/// at the resolved ISA's shims — the 16-lane AVX-512 ones on a host with
/// `avx512f`, `avx512bw` and `avx512vl` — and the last rows put the bad index exactly one 16-lane
/// load past a valid one.
#[test]
fn kernel_panic_contracts() {
    use pdx::core::kernels::pdx_accumulate_positions;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let (n, d, group) = (70usize, 6usize, 64usize);
    let data: Vec<f32> = (0..n * d).map(|i| (i % 17) as f32 - 8.0).collect();
    let block = PdxBlock::from_rows(&data, n, d, group);
    let quantizer = Sq8Quantizer::fit(&data, n, d);
    let codes = quantizer.encode_block(&data, n, group);
    let q = vec![0.5f32; d];
    let long_q = vec![0.5f32; d + 4];
    let q8 = quantizer.prepare_query(Metric::L2, &q);
    let g = block.group(0);
    let lanes = g.lanes;
    let block16 = PdxBlock::from_rows(&data, n, d, 16);
    let flat = FlatPdx::new(&data, n, d, n, group);
    let coll = Collection::in_memory(d, StoreConfig::default());
    coll.bulk_insert(0, &data).unwrap();

    type Case<'a> = (&'a str, &'a str, Box<dyn Fn(KernelPolicy) + 'a>);
    let cases: Vec<Case<'_>> = vec![
        (
            "pdx_accumulate_groups: acc.len() != the lanes of group 0",
            "one accumulator per lane required",
            Box::new(|p| {
                let mut acc = vec![0.0; lanes - 1];
                pdx_accumulate_groups(
                    Metric::L2,
                    &block,
                    0..1,
                    &q,
                    DimSel::Range(0..d),
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_groups: range past the query",
            "dimension range exceeds query length",
            Box::new(|p| {
                let mut acc = vec![0.0; lanes];
                pdx_accumulate_groups(
                    Metric::L2,
                    &block,
                    0..1,
                    &q,
                    DimSel::Range(0..d + 1),
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_groups: range past the group",
            "dimension range exceeds group",
            Box::new(|p| {
                let mut acc = vec![0.0; lanes];
                pdx_accumulate_groups(
                    Metric::L1,
                    &block,
                    0..1,
                    &long_q,
                    DimSel::Range(0..d + 1),
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_groups: Ids entry >= dims",
            "dimension id exceeds query length",
            Box::new(|p| {
                let mut acc = vec![0.0; lanes];
                let ids = [0u32, d as u32];
                pdx_accumulate_groups(Metric::L2, &block, 0..1, &q, DimSel::Ids(&ids), &mut acc, p)
            }),
        ),
        (
            "pdx_accumulate_groups: Ids entry past the group",
            "dimension id exceeds group",
            Box::new(|p| {
                let mut acc = vec![0.0; lanes];
                let ids = [1u32, d as u32 + 2];
                pdx_accumulate_groups(
                    Metric::NegativeIp,
                    &block,
                    0..1,
                    &long_q,
                    DimSel::Ids(&ids),
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_survivors: acc.len() != positions.len()",
            "one accumulator per survivor required",
            Box::new(|p| {
                let mut acc = vec![0.0; 2];
                pdx_accumulate_survivors(
                    Metric::L2,
                    &block,
                    &q,
                    DimSel::Range(0..d),
                    &[1, 2, 3],
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_survivors: position >= n_vectors",
            "survivor position exceeds the stored vectors",
            Box::new(|p| {
                let mut acc = vec![0.0; 2];
                pdx_accumulate_survivors(
                    Metric::L2,
                    &block,
                    &q,
                    DimSel::Range(0..d),
                    &[0, n as u32],
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_survivors: range past the query",
            "dimension range exceeds query length",
            Box::new(|p| {
                let mut acc = vec![0.0; 1];
                let short = &q[..d - 1];
                pdx_accumulate_survivors(
                    Metric::L2,
                    &block,
                    short,
                    DimSel::Range(0..d),
                    &[69],
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_survivors: Ids entry past the block",
            "dimension id exceeds group",
            Box::new(|p| {
                let mut acc = vec![0.0; 1];
                let ids = [d as u32];
                pdx_accumulate_survivors(
                    Metric::L1,
                    &block,
                    &long_q,
                    DimSel::Ids(&ids),
                    &[69],
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_positions: position >= group.lanes",
            "survivor position exceeds the stored vectors",
            Box::new(|_| {
                let mut acc = vec![0.0; 1];
                pdx_accumulate_positions(Metric::L2, &g, &q, 0..d, &[lanes as u32], &mut acc)
            }),
        ),
        (
            "pdx_accumulate_positions: acc.len() != positions.len()",
            "one accumulator per survivor required",
            Box::new(|_| {
                let mut acc = vec![0.0; 3];
                pdx_accumulate_positions(Metric::L2, &g, &q, 0..d, &[1, 2], &mut acc)
            }),
        ),
        (
            "sq8_accumulate_groups: acc.len() != the lanes of group 0",
            "one accumulator per lane required",
            Box::new(|p| {
                let mut acc = vec![0.0; lanes + 1];
                sq8_accumulate_groups(&q8, &codes, 0..1, 0..d, &mut acc, p)
            }),
        ),
        (
            "sq8_accumulate_groups: dims.end > q.dims()",
            "dimension range exceeds query length",
            Box::new(|p| {
                let mut acc = vec![0.0; lanes];
                sq8_accumulate_groups(&q8, &codes, 0..1, 0..d + 1, &mut acc, p)
            }),
        ),
        (
            "sq8_accumulate_survivors: acc.len() != positions.len()",
            "one accumulator per survivor required",
            Box::new(|p| {
                let mut acc = vec![0.0; 1];
                sq8_accumulate_survivors(&q8, &codes, 0..d, &[4, 5], &mut acc, p)
            }),
        ),
        (
            "sq8_accumulate_survivors: position >= n_vectors",
            "survivor position exceeds the stored vectors",
            Box::new(|p| {
                let mut acc = vec![0.0; 1];
                sq8_accumulate_survivors(&q8, &codes, 0..d, &[n as u32 + 7], &mut acc, p)
            }),
        ),
        (
            "sq8_accumulate_survivors: dims.end > q.dims()",
            "dimension range exceeds query length",
            Box::new(|p| {
                let mut acc = vec![0.0; 1];
                sq8_accumulate_survivors(&q8, &codes, 2..d + 1, &[3], &mut acc, p)
            }),
        ),
        (
            "pdx_accumulate_groups: group range past the block",
            "group range exceeds the block",
            Box::new(|p| {
                let mut acc = vec![0.0; n - group];
                pdx_accumulate_groups(
                    Metric::L2,
                    &block,
                    1..3,
                    &q,
                    DimSel::Range(0..d),
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_groups: reversed group range",
            "group range is reversed",
            Box::new(|p| {
                #[allow(clippy::reversed_empty_ranges)]
                let groups = 2..1;
                pdx_accumulate_groups(
                    Metric::L2,
                    &block,
                    groups,
                    &q,
                    DimSel::Range(0..d),
                    &mut [],
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_groups: acc.len() != vectors covered",
            "one accumulator per lane required",
            Box::new(|p| {
                // Two groups cover 70 vectors, not 2 × 64.
                let mut acc = vec![0.0; 2 * group];
                pdx_accumulate_groups(
                    Metric::L2,
                    &block,
                    0..2,
                    &q,
                    DimSel::Range(0..d),
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate_groups: Ids entry >= dims",
            "dimension id exceeds query length",
            Box::new(|p| {
                let mut acc = vec![0.0; n];
                let ids = [0u32, d as u32];
                pdx_accumulate_groups(Metric::L2, &block, 0..2, &q, DimSel::Ids(&ids), &mut acc, p)
            }),
        ),
        (
            "sq8_accumulate_groups: group range past the block",
            "group range exceeds the block",
            Box::new(|p| {
                let mut acc = vec![0.0; n];
                sq8_accumulate_groups(&q8, &codes, 0..3, 0..d, &mut acc, p)
            }),
        ),
        (
            "sq8_accumulate_groups: acc.len() != vectors covered",
            "one accumulator per lane required",
            Box::new(|p| {
                let mut acc = vec![0.0; n - 1];
                sq8_accumulate_groups(&q8, &codes, 0..2, 0..d, &mut acc, p)
            }),
        ),
        (
            "survival_bits: aux.len() != partials.len()",
            "one aux value per lane required",
            Box::new(|p| {
                survival_bits::<PdxBond>(&1.0, &[0.5; 9], Some(&[0.0; 8]), &mut Vec::new(), p);
            }),
        ),
        (
            "pdx_accumulate_groups: a 16-lane group one accumulator long",
            "one accumulator per lane required",
            Box::new(|p| {
                // Groups 3..5 of 16 cover lanes 48..70: 22, not 23.
                let mut acc = vec![0.0; 23];
                let sel = DimSel::Range(0..d);
                pdx_accumulate_groups(Metric::L2, &block16, 3..5, &q, sel, &mut acc, p)
            }),
        ),
        (
            "pdx_accumulate_survivors: 17th position past the vectors",
            "survivor position exceeds the stored vectors",
            Box::new(|p| {
                let mut positions: Vec<u32> = (0..16).collect();
                positions.push(n as u32);
                let mut acc = vec![0.0; 17];
                let sel = DimSel::Range(0..d);
                pdx_accumulate_survivors(Metric::L2, &block16, &q, sel, &positions, &mut acc, p)
            }),
        ),
        (
            "pdx_accumulate_band: acc.len() != queries × vectors",
            "one accumulator per query and vector required",
            Box::new(|p| {
                let mut acc = vec![0.0; 2 * n - 1];
                pdx_accumulate_band(Metric::L2, &block, &[&q, &q], 0..d, &mut acc, p)
            }),
        ),
        (
            "pdx_accumulate_band: range past the second query",
            "dimension range exceeds query length",
            Box::new(|p| {
                let mut acc = vec![0.0; 2 * n];
                let band = [&long_q[..], &q[..d - 1]];
                pdx_accumulate_band(Metric::L1, &block, &band, 0..d, &mut acc, p)
            }),
        ),
        (
            "pdx_accumulate_band: range past the block",
            "dimension range exceeds group",
            Box::new(|p| {
                let mut acc = vec![0.0; n];
                pdx_accumulate_band(Metric::L2, &block, &[&long_q], 0..d + 1, &mut acc, p)
            }),
        ),
        (
            "pdx_accumulate_band: five queries over a narrow tail group, one accumulator short",
            "one accumulator per query and vector required",
            Box::new(|p| {
                // 70 vectors in 16-wide groups end in a 6-lane group.
                let mut acc = vec![0.0; 5 * n - 1];
                let band = [&q[..]; 5];
                pdx_accumulate_band(Metric::NegativeIp, &block16, &band, 0..d, &mut acc, p)
            }),
        ),
        (
            "survival_bits: 17 partials, 16 aux values",
            "one aux value per lane required",
            Box::new(|p| {
                survival_bits::<PdxBond>(&1.0, &[0.5; 17], Some(&[0.0; 16]), &mut Vec::new(), p);
            }),
        ),
        // A ragged batch is refused before any query is prepared: by the
        // banded driver every PDXearch deployment batches through, and by
        // the one-query-a-work-item trait default a collection batches
        // with.
        (
            "FlatPdx::search_batch: queries.len() % dims != 0",
            "queries buffer must hold whole vectors",
            Box::new(|p| {
                let opts = SearchOptions::new(3).with_kernel(p);
                flat.search_batch(&data[..2 * d + 1], &opts);
            }),
        ),
        (
            "Collection::search_batch: queries.len() % dims != 0",
            "queries buffer must hold whole vectors",
            Box::new(|p| {
                let opts = SearchOptions::new(3).with_kernel(p);
                coll.search_batch(&data[..2 * d + 1], &opts);
            }),
        ),
    ];

    // The empty batch is no panic: it is the empty answer.
    let opts = SearchOptions::new(3);
    assert!(flat.search_batch(&[], &opts).is_empty());
    assert!(coll.search_batch(&[], &opts).is_empty());

    for (name, want, run) in &cases {
        for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
            let policy_isa = format!("{policy:?} ({})", policy.resolve().name());
            let err = catch_unwind(AssertUnwindSafe(|| run(policy)))
                .expect_err(&format!("{name} under {policy_isa}: no panic"));
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert!(msg.contains(want), "{name} under {policy_isa}: {msg:?}");
        }
    }
}
