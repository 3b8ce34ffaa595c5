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
    pdx_accumulate, pdx_accumulate_survivors, sq8_accumulate, sq8_accumulate_survivors, DimSel,
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
/// past the widest SIMD tile (32 lanes on AVX2), so every test run
/// exercises full tiles, partial tiles, and scalar tails.
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
        .filter(|&l| (l as usize * 7 + salt) % 3 != 0)
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
            let mut want = vec![0.0f32; n];
            pdx_scan_policy(metric, &block, &q, &mut want, KernelPolicy::Scalar);
            for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
                let mut got = vec![0.0f32; n];
                pdx_scan_policy(metric, &block, &q, &mut got, policy);
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
            for g in block.groups() {
                let mut want = vec![1.5f32; g.lanes];
                pdx_accumulate(metric, &g, &q, DimSel::Range(0..split), &mut want, KernelPolicy::Scalar);
                let mut want_p = vec![0.25f32; g.lanes];
                pdx_accumulate(
                    metric, &g, &q, DimSel::Ids(&perm[..split]), &mut want_p, KernelPolicy::Scalar,
                );
                for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
                    let mut got = vec![1.5f32; g.lanes];
                    pdx_accumulate(metric, &g, &q, DimSel::Range(0..split), &mut got, policy);
                    prop_assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        );
                    let mut got_p = vec![0.25f32; g.lanes];
                    pdx_accumulate(
                        metric, &g, &q, DimSel::Ids(&perm[..split]), &mut got_p, policy,
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
            for g in block.groups() {
                let lanes = g.start_vector..g.start_vector + g.lanes;
                pdx_accumulate(
                    metric, &g, &q, DimSel::Range(lo..d), &mut dense[lanes.clone()], KernelPolicy::Scalar,
                );
                pdx_accumulate(
                    metric, &g, &q, DimSel::Ids(&perm[lo..]), &mut dense_p[lanes], KernelPolicy::Scalar,
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
        let block = QuantizedPdxBlock::from_rows(&data, n, d, group, &quantizer);
        let raw: Vec<f32> = data[..d].iter().map(|x| x * 0.75 - 2.0).collect();
        let lo = d / 4;
        let pos = block_survivors(n, every, salt);
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let q = quantizer.prepare_query(metric, &raw);
            let mut dense = vec![3.0f32; n];
            for g in block.groups() {
                let lanes = g.start_vector..g.start_vector + g.lanes;
                sq8_accumulate(&q, &g, lo..d, &mut dense[lanes], KernelPolicy::Scalar);
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
        let block = QuantizedPdxBlock::from_rows(&data, n, d, group, &quantizer);
        let raw: Vec<f32> = data[..d].iter().map(|x| x * 0.75 - 2.0).collect();
        let split = d - d / 3;
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            let q = quantizer.prepare_query(metric, &raw);
            let mut want = vec![0.0f32; n];
            sq8_scan_policy(&q, &block, &mut want, KernelPolicy::Scalar);
            for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
                let mut got = vec![0.0f32; n];
                sq8_scan_policy(&q, &block, &mut got, policy);
                prop_assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    );
            }
            for (g, rows) in block.groups().zip(data.chunks(group * d)) {
                let pos = survivors(g.lanes, salt);
                let one = QuantizedPdxBlock::from_rows(rows, g.lanes, d, g.lanes, &quantizer);
                let tail = split.min(d - 1)..d;
                let mut want_a = vec![0.5f32; g.lanes];
                sq8_accumulate(&q, &g, 0..split, &mut want_a, KernelPolicy::Scalar);
                let mut want_s = vec![3.0f32; pos.len()];
                sq8_accumulate_survivors(
                    &q, &one, tail.clone(), &pos, &mut want_s, KernelPolicy::Scalar,
                );
                for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
                    let mut got_a = vec![0.5f32; g.lanes];
                    sq8_accumulate(&q, &g, 0..split, &mut got_a, policy);
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
    let codes = QuantizedPdxBlock::from_rows(&data, n, d, group, &quantizer);
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
            let mut full = vec![0.0f32; n];
            pdx_scan_policy(metric, &block, &q, &mut full, KernelPolicy::Scalar);
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

/// Dispatch sanity: detection is stable, the policies resolve the way
/// the docs promise, and the wire codes round-trip.
#[test]
fn dispatch_is_stable_and_consistent() {
    let isa = detected_isa();
    assert_eq!(isa, detected_isa(), "detection must be cached and stable");
    // The query/collection rotation takes the `Auto` policy, so this is
    // the kernel `Matrix::matvec` / `mul_transposed` run on here.
    println!(
        "kernel dispatch: detected {}, rotation (Auto policy) resolved {}",
        isa.name(),
        KernelPolicy::Auto.resolve().name()
    );
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
    for isa in [KernelIsa::Scalar, KernelIsa::Avx2, KernelIsa::Neon] {
        assert_eq!(KernelIsa::from_wire(isa.wire_code()), Some(isa));
    }
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
/// load: under `Simd` each row must panic with the documented message.
/// Under `Scalar` the asserts the entry points make themselves carry the
/// same message (`everywhere`); the rest surface as a slice-index panic
/// of the checked loops, which is still a panic and never a wrong read.
#[test]
fn kernel_panic_contracts() {
    use pdx::core::kernels::pdx_accumulate_positions;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let (n, d, group) = (70usize, 6usize, 64usize);
    let data: Vec<f32> = (0..n * d).map(|i| (i % 17) as f32 - 8.0).collect();
    let block = PdxBlock::from_rows(&data, n, d, group);
    let quantizer = Sq8Quantizer::fit(&data, n, d);
    let codes = QuantizedPdxBlock::from_rows(&data, n, d, group, &quantizer);
    let q = vec![0.5f32; d];
    let long_q = vec![0.5f32; d + 4];
    let q8 = quantizer.prepare_query(Metric::L2, &q);
    let (g, g8) = (block.group(0), codes.group(0));
    let lanes = g.lanes;
    let flat = FlatPdx::new(&data, n, d, n, group);
    let hnsw = Hnsw::build(&data, n, d, HnswParams::default(), 1);

    type Case<'a> = (&'a str, &'a str, bool, Box<dyn Fn(KernelPolicy) + 'a>);
    let cases: Vec<Case<'_>> = vec![
        (
            "pdx_accumulate: acc.len() != group.lanes",
            "one accumulator per lane required",
            true,
            Box::new(|p| {
                let mut acc = vec![0.0; lanes - 1];
                pdx_accumulate(Metric::L2, &g, &q, DimSel::Range(0..d), &mut acc, p)
            }),
        ),
        (
            "pdx_accumulate: range past the query",
            "dimension range exceeds query length",
            true,
            Box::new(|p| {
                let mut acc = vec![0.0; lanes];
                pdx_accumulate(Metric::L2, &g, &q, DimSel::Range(0..d + 1), &mut acc, p)
            }),
        ),
        (
            "pdx_accumulate: range past the group",
            "dimension range exceeds group",
            false,
            Box::new(|p| {
                let mut acc = vec![0.0; lanes];
                pdx_accumulate(
                    Metric::L1,
                    &g,
                    &long_q,
                    DimSel::Range(0..d + 1),
                    &mut acc,
                    p,
                )
            }),
        ),
        (
            "pdx_accumulate: Ids entry >= dims",
            "dimension id exceeds query length",
            false,
            Box::new(|p| {
                let mut acc = vec![0.0; lanes];
                let ids = [0u32, d as u32];
                pdx_accumulate(Metric::L2, &g, &q, DimSel::Ids(&ids), &mut acc, p)
            }),
        ),
        (
            "pdx_accumulate: Ids entry past the group",
            "dimension id exceeds group",
            false,
            Box::new(|p| {
                let mut acc = vec![0.0; lanes];
                let ids = [1u32, d as u32 + 2];
                pdx_accumulate(
                    Metric::NegativeIp,
                    &g,
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
            true,
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
            true,
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
            false,
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
            false,
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
            true,
            Box::new(|_| {
                let mut acc = vec![0.0; 1];
                pdx_accumulate_positions(Metric::L2, &g, &q, 0..d, &[lanes as u32], &mut acc)
            }),
        ),
        (
            "pdx_accumulate_positions: acc.len() != positions.len()",
            "one accumulator per survivor required",
            true,
            Box::new(|_| {
                let mut acc = vec![0.0; 3];
                pdx_accumulate_positions(Metric::L2, &g, &q, 0..d, &[1, 2], &mut acc)
            }),
        ),
        (
            "sq8_accumulate: acc.len() != group.lanes",
            "one accumulator per lane required",
            true,
            Box::new(|p| {
                let mut acc = vec![0.0; lanes + 1];
                sq8_accumulate(&q8, &g8, 0..d, &mut acc, p)
            }),
        ),
        (
            "sq8_accumulate: dims.end > q.dims()",
            "dimension range exceeds query length",
            true,
            Box::new(|p| {
                let mut acc = vec![0.0; lanes];
                sq8_accumulate(&q8, &g8, 0..d + 1, &mut acc, p)
            }),
        ),
        (
            "sq8_accumulate_survivors: acc.len() != positions.len()",
            "one accumulator per survivor required",
            true,
            Box::new(|p| {
                let mut acc = vec![0.0; 1];
                sq8_accumulate_survivors(&q8, &codes, 0..d, &[4, 5], &mut acc, p)
            }),
        ),
        (
            "sq8_accumulate_survivors: position >= n_vectors",
            "survivor position exceeds the stored vectors",
            true,
            Box::new(|p| {
                let mut acc = vec![0.0; 1];
                sq8_accumulate_survivors(&q8, &codes, 0..d, &[n as u32 + 7], &mut acc, p)
            }),
        ),
        (
            "sq8_accumulate_survivors: dims.end > q.dims()",
            "dimension range exceeds query length",
            false,
            Box::new(|p| {
                let mut acc = vec![0.0; 1];
                sq8_accumulate_survivors(&q8, &codes, 2..d + 1, &[3], &mut acc, p)
            }),
        ),
        // A ragged batch is refused before any query is prepared: by the
        // banded driver every PDXearch deployment batches through, and by
        // the one-query-a-work-item trait default.
        (
            "FlatPdx::search_batch: queries.len() % dims != 0",
            "queries buffer must hold whole vectors",
            true,
            Box::new(|p| {
                let opts = SearchOptions::new(3).with_kernel(p);
                flat.search_batch(&data[..2 * d + 1], &opts);
            }),
        ),
        (
            "Hnsw::search_batch: queries.len() % dims != 0",
            "queries buffer must hold whole vectors",
            true,
            Box::new(|p| {
                let opts = SearchOptions::new(3).with_kernel(p);
                VectorIndex::search_batch(&hnsw, &data[..2 * d + 1], &opts);
            }),
        ),
    ];

    // The empty batch is no panic: it is the empty answer.
    let opts = SearchOptions::new(3);
    assert!(flat.search_batch(&[], &opts).is_empty());
    assert!(VectorIndex::search_batch(&hnsw, &[], &opts).is_empty());

    for (name, want, everywhere, run) in &cases {
        for policy in [KernelPolicy::Scalar, KernelPolicy::Simd] {
            let err = catch_unwind(AssertUnwindSafe(|| run(policy)))
                .expect_err(&format!("{name} under {policy:?}: no panic"));
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or("");
            let simd = policy.resolve() != KernelIsa::Scalar;
            if simd || *everywhere {
                assert!(msg.contains(want), "{name} under {policy:?}: {msg:?}");
            }
        }
    }
}
