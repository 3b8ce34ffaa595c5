//! Golden answers: FNV-1a hashes of `(id, distance.to_bits())` over a
//! fixed query set, one constant per deployment configuration.
//!
//! Every other bit-identity suite compares two paths of the *same*
//! build (threads, kernels, tracing, cache budgets); this one compares
//! the build with the past. A refactor of the search path must leave
//! every constant below untouched: each is asserted under
//! `KernelPolicy::{Scalar, Auto}`, with tracing on and off, and through
//! `search`, `search_batch` and — for the exact configurations —
//! `search_parallel` at 1, 2, 3 and 8 workers.
//!
//! The collection comes from an xorshift generator this file owns (as
//! `pdx-linalg`'s `golden_input` does), and the IVF buckets are assigned
//! by a formula, so no constant can move with the `rand` stand-in or the
//! k-means. Bucket 0 and the first flat partition exceed
//! `THRESHOLD_TILE` and end in a partial group, so a scan crosses tile
//! boundaries inside one block.
//!
//! Only names of the `VectorIndex` serving surface are used, plus the
//! horizontal baseline's typed `search_with`, so the file compiles
//! unchanged on either side of a search-path refactor.

use pdx::prelude::*;

const N: usize = 2500;
const D: usize = 40;
const NQ: usize = 6;
const GROUP: usize = 64;
/// Flat partitions of 2 100 + 400 vectors: two full tiles and a
/// 52-vector tail group in the first.
const BLOCK: usize = 2100;
const BUCKETS: usize = 12;

/// xorshift64 → `f32` in [-2, 2).
fn xorshift(len: usize, mut s: u64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 22) as f32 - 2.0
        })
        .collect()
}

/// Bucket of vector `i`: every even vector in bucket 0 (1 250 vectors:
/// one tile, three whole groups and a 34-vector tail), the odd ones
/// spread over the other eleven.
fn bucket_of(i: usize) -> usize {
    if i % 2 == 0 {
        0
    } else {
        1 + (i / 2) % (BUCKETS - 1)
    }
}

/// Noise around seven centres, vector `i` around centre `i % 7`: a query
/// near one centre prunes the other six within a few dimensions. Every
/// bucket and partition mixes all seven, so pruning engages inside each
/// tile and a partial probe misses true neighbours.
fn clustered(n: usize, seed: u64) -> Vec<f32> {
    let mut rows = xorshift(n * D, seed);
    for (i, row) in rows.chunks_exact_mut(D).enumerate() {
        let c = i % 7;
        for (j, v) in row.iter_mut().enumerate() {
            *v = *v * 0.5 + ((c * 7 + j * 3) % 5) as f32 * 1.5;
        }
    }
    rows
}

/// More queries than one worker's band holds, all near a centre.
fn many_queries() -> Vec<f32> {
    clustered(130, 0x2545_F491_4F6C_DD1D)
}

/// Three queries near a centre, three in the middle of all of them.
fn queries() -> Vec<f32> {
    let mut q = clustered(NQ, 0xD1B5_4A32_D192_ED03);
    for v in &mut q[NQ / 2 * D..] {
        *v = *v * 0.75 + 3.0;
    }
    q
}

fn assignments() -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); BUCKETS];
    for i in 0..N {
        out[bucket_of(i)].push(i as u32);
    }
    out
}

fn fnv1a(results: &[Vec<Neighbor>]) -> u64 {
    results
        .iter()
        .flatten()
        .flat_map(|n| {
            let mut bytes = [0u8; 12];
            bytes[..8].copy_from_slice(&n.id.to_le_bytes());
            bytes[8..].copy_from_slice(&n.distance.to_bits().to_le_bytes());
            bytes
        })
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The vertical kernels answer with the same bits under every policy.
const VERTICAL: &[KernelPolicy] = &[KernelPolicy::Scalar, KernelPolicy::Auto];

/// Worker counts of `search_batch` and `search_parallel`.
const WIDTHS: [usize; 4] = [1, 2, 3, 8];

/// Asserts `want` for every kernel policy of `kernels` × tracing × entry
/// point of `index` under `opts`, over the packed `queries`, the batch
/// and parallel entry points at every width of [`WIDTHS`]. `exact` adds
/// `search_parallel`, whose contract covers the exact configurations
/// only.
fn pin_under(
    kernels: &[KernelPolicy],
    queries: &[f32],
    name: &str,
    index: &dyn VectorIndex,
    opts: SearchOptions,
    exact: bool,
    want: u64,
) {
    for &kernel in kernels {
        for trace in [false, true] {
            let opts = opts.with_kernel(kernel).with_trace(trace);
            let each = |search: &dyn Fn(&[f32]) -> Vec<Neighbor>| -> Vec<Vec<Neighbor>> {
                queries.chunks_exact(D).map(search).collect()
            };
            let tag = format!("{name} {kernel:?} trace={trace}");
            let single = fnv1a(&each(&|q| index.search(q, &opts)));
            assert_eq!(single, want, "{tag} search: {single:#018x}");
            for threads in WIDTHS {
                let opts = opts.with_threads(threads);
                let batch = fnv1a(&index.search_batch(queries, &opts));
                assert_eq!(batch, want, "{tag} search_batch@{threads}: {batch:#018x}");
                if exact {
                    let par = fnv1a(&each(&|q| index.search_parallel(q, &opts)));
                    assert_eq!(par, want, "{tag} search_parallel@{threads}: {par:#018x}");
                }
            }
        }
    }
}

fn pin(name: &str, index: &dyn VectorIndex, opts: SearchOptions, exact: bool, want: u64) {
    pin_under(VERTICAL, &queries(), name, index, opts, exact, want);
}

#[test]
fn flat_pdx_every_visit_order_and_linear() {
    let rows = clustered(N, 0x9E37_79B9_7F4A_7C15);
    let flat = FlatPdx::new(&rows, N, D, BLOCK, GROUP);
    assert_eq!(flat.collection.blocks[0].len(), BLOCK);
    let orders = [
        (VisitOrder::Sequential, FLAT_SEQUENTIAL),
        (VisitOrder::Decreasing, FLAT_DECREASING),
        (VisitOrder::DistanceToMeans, FLAT_DISTANCE_TO_MEANS),
        (VisitOrder::DimensionZones { zone_size: 8 }, FLAT_ZONES),
    ];
    for (order, want) in orders {
        let opts = SearchOptions::new(10).with_pruner(PrunerKind::Bond(order));
        pin(&format!("flat-pdx {order:?}"), &flat, opts, true, want);
    }
    let linear = SearchOptions::new(10).with_pruner(PrunerKind::Linear);
    pin("flat-pdx linear", &flat, linear, true, FLAT_LINEAR);
    let ip = linear.with_metric(Metric::NegativeIp);
    pin("flat-pdx linear IP", &flat, ip, true, FLAT_LINEAR_IP);

    // 130 queries on the batch's two workers are two bands a worker.
    let many = many_queries();
    let opts = SearchOptions::new(10);
    let name = "flat-pdx 130 queries";
    pin_under(VERTICAL, &many, name, &flat, opts, true, FLAT_130_QUERIES);
}

#[test]
fn ivf_pdx_partial_and_full_probe_resident_and_lazy() {
    let rows = clustered(N, 0x9E37_79B9_7F4A_7C15);
    let ivf = IvfPdx::new(&rows, D, &assignments(), GROUP);
    assert_eq!(ivf.blocks[0].len(), 1250);
    let partial = SearchOptions::new(10).with_nprobe(3);
    let full = SearchOptions::new(10);
    pin("ivf-pdx nprobe=3", &ivf, partial, true, IVF_PARTIAL);
    pin("ivf-pdx full", &ivf, full, true, IVF_FULL);

    // The same container behind a cache that holds one bucket at most:
    // every query churns it, and the answers may not move.
    let dir = std::env::temp_dir().join(format!("pdx_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.pdx");
    pdx::datasets::persist::write_ivf_pdx_path(&path, D, &ivf.centroids.pdx.to_rows(), &ivf.blocks)
        .unwrap();
    let one_bucket = (1250 * (8 + 4 * D) + 8 * D) as u64;
    let lazy = LazyIvf::open(&path, one_bucket).unwrap();
    pin("ivf-pdx-lazy nprobe=3", &lazy, partial, true, IVF_PARTIAL);
    pin("ivf-pdx-lazy full", &lazy, full, true, IVF_FULL);
    assert!(VectorIndex::cache_stats(&lazy).unwrap().evictions > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper's horizontal baseline is not served: its one entry point is
/// the typed `search_with`, pinned under the pruner the options name.
#[test]
fn ivf_horizontal() {
    let rows = clustered(N, 0x9E37_79B9_7F4A_7C15);
    let hor = IvfHorizontal::new(&rows, D, &assignments(), 8);
    let partial = SearchOptions::new(10).with_nprobe(3);
    let linear = SearchOptions::new(10).with_pruner(PrunerKind::Linear);
    for (name, opts, want) in [
        ("nprobe=3", partial, HORIZONTAL_PARTIAL),
        ("linear", linear, HORIZONTAL_LINEAR),
    ] {
        // The horizontal SIMD tiers reduce across lanes, so their bits
        // move with the ISA; the scalar tier is the one a constant can pin.
        let opts = opts.with_kernel(KernelPolicy::Scalar);
        for trace in [false, true] {
            let opts = opts.with_trace(trace);
            let search = |q: &[f32]| hor.search_with(&opts.bond(), q, &opts);
            let got = fnv1a(&queries().chunks_exact(D).map(search).collect::<Vec<_>>());
            assert_eq!(
                got, want,
                "ivf-horizontal {name} trace={trace}: {got:#018x}"
            );
        }
    }
}

#[test]
fn sq8_two_phase_and_scan_only() {
    let rows = clustered(N, 0x9E37_79B9_7F4A_7C15);
    // `k = 60, refine = 4` keeps 240 candidates: the shape a collection
    // with tombstones asks of a sealed SQ8 segment (`k + dead`).
    let wide = SearchOptions::new(60);
    let flat = FlatSq8::build(&rows, N, D, BLOCK, GROUP);
    pin(
        "flat-sq8 k=10",
        &flat,
        SearchOptions::new(10),
        true,
        FLAT_SQ8,
    );
    pin("flat-sq8 k=60", &flat, wide, true, FLAT_SQ8_WIDE);
    let l1 = SearchOptions::new(10).with_metric(Metric::L1);
    pin("flat-sq8 L1", &flat, l1, true, FLAT_SQ8_L1);
    let ip = SearchOptions::new(10).with_metric(Metric::NegativeIp);
    pin("flat-sq8 IP", &flat, ip, true, FLAT_SQ8_IP);

    let scan_only = FlatSq8::from_parts(D, flat.quantizer.clone(), flat.blocks.clone(), Vec::new());
    assert_eq!(scan_only.kind(), "flat-sq8-scan-only");
    pin(
        "flat-sq8-scan-only",
        &scan_only,
        SearchOptions::new(10),
        true,
        FLAT_SQ8_SCAN_ONLY,
    );

    let ivf = IvfSq8::new(&rows, D, &assignments(), GROUP);
    let partial = SearchOptions::new(10).with_nprobe(3);
    pin("ivf-sq8 nprobe=3", &ivf, partial, true, IVF_SQ8_PARTIAL);
    pin("ivf-sq8 k=60", &ivf, wide, true, IVF_SQ8_WIDE);
}

#[test]
fn fitted_pruners() {
    let rows = clustered(N, 0x9E37_79B9_7F4A_7C15);

    let ads = AdSampling::fit(D, 17);
    let rotated = ads.transform_collection(&rows, N, 1);
    let ivf = PrunedIvf::new(IvfPdx::new(&rotated, D, &assignments(), GROUP), ads);
    let partial = SearchOptions::new(10).with_nprobe(3);
    pin(
        "pruned-ivf-adsampling",
        &ivf,
        partial,
        false,
        PRUNED_IVF_ADS,
    );

    // BSA reads a per-vector aux row at every checkpoint (`NEEDS_AUX`).
    let bsa = Bsa::fit(&rows, N, D, N);
    let rotated = bsa.transform_collection(&rows, N, 1);
    let mut flat = FlatPdx::new(&rotated, N, D, BLOCK, GROUP);
    let schedule = checkpoints(StepPolicy::default(), D);
    for block in &mut flat.collection.blocks {
        bsa.attach_aux(block, &schedule);
    }
    let flat = PrunedFlat::new(flat, bsa);
    pin(
        "pruned-flat-bsa",
        &flat,
        SearchOptions::new(10),
        false,
        PRUNED_FLAT_BSA,
    );
    // An approximate pruner's answer depends on its threshold's history:
    // a query served in a band must have met every tile in its own order.
    let (many, opts) = (many_queries(), SearchOptions::new(10));
    let name = "pruned-flat-bsa 130 queries";
    pin_under(VERTICAL, &many, name, &flat, opts, false, BSA_130_QUERIES);
}

/// A collection's read path: three sealed segments, every one with
/// tombstoned rows, and rows still in the write buffer. External ids
/// are `3 i + 1`, so no segment's remap is the identity, and every fifth
/// row is deleted, so dead rows sit among each query's neighbours.
#[test]
fn store_read_path() {
    // The write buffer is scanned with the horizontal tier of the kernel
    // policy, whose SIMD bits move with the ISA (see `ivf_horizontal`);
    // the sealed segments answer alike under every policy.
    let scalar = &[KernelPolicy::Scalar];
    let rows = clustered(N, 0x9E37_79B9_7F4A_7C15);
    for (quantize, want) in [(false, STORE_F32), (true, STORE_SQ8)] {
        let config = StoreConfig {
            block_size: 512,
            group_size: GROUP,
            buffer_capacity: 800,
            quantize,
        };
        let coll = Collection::in_memory(D, config);
        for (i, row) in rows.chunks_exact(D).enumerate() {
            coll.insert(3 * i as u64 + 1, row).unwrap();
        }
        for i in (2..N).step_by(5) {
            coll.delete(3 * i as u64 + 1).unwrap();
        }
        let stats = coll.segment_stats();
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.rows == 800 && s.dead == 160));
        assert_eq!(coll.buffer_len(), 80);
        let name = format!("collection quantize={quantize}");
        let opts = SearchOptions::new(10);
        pin_under(scalar, &queries(), &name, &coll, opts, true, want);
    }
}

// Coinciding constants are answers that must coincide: a linear scan
// and the Sequential order accumulate in storage order, and an exact
// rerank over enough candidates recomputes those same distances.
const FLAT_SEQUENTIAL: u64 = 0x6a4a_fd60_94a1_8c08;
const FLAT_DECREASING: u64 = 0x345d_cc47_60c4_7b71;
const FLAT_DISTANCE_TO_MEANS: u64 = 0xd22b_ff67_0a4e_fa27;
const FLAT_ZONES: u64 = 0x9b3c_3838_6ac2_f924;
const FLAT_LINEAR: u64 = 0x6a4a_fd60_94a1_8c08;
const FLAT_LINEAR_IP: u64 = 0xb61b_c084_2ca2_732d;
const IVF_PARTIAL: u64 = 0x3cda_74da_fe1b_ada2;
const IVF_FULL: u64 = 0xf449_d057_7caa_c0b4;
const HORIZONTAL_PARTIAL: u64 = 0x1a10_df1a_731c_7adf;
const HORIZONTAL_LINEAR: u64 = 0x64eb_1304_7fa3_70be;
const FLAT_SQ8: u64 = 0x6a4a_fd60_94a1_8c08;
const FLAT_SQ8_WIDE: u64 = 0xd814_32ba_b0e1_5b2f;
const FLAT_SQ8_L1: u64 = 0x3160_4b25_a280_6d6d;
const FLAT_SQ8_IP: u64 = 0xb61b_c084_2ca2_732d;
const FLAT_SQ8_SCAN_ONLY: u64 = 0x5204_ec90_fbed_a100;
const IVF_SQ8_PARTIAL: u64 = 0xadfe_d4e0_7abd_19cd;
const IVF_SQ8_WIDE: u64 = 0xd814_32ba_b0e1_5b2f;
// Re-pinned when ADSampling's dense Haar matrix became the structured
// `RandomRotation`: a different rotation, so different distance bits.
const PRUNED_IVF_ADS: u64 = 0x774f_ea38_0230_8a1d;
const PRUNED_FLAT_BSA: u64 = 0xc478_6829_f8c4_f75c;
// Landed with the tile-major bands, computed by the per-query code
// before them.
const FLAT_130_QUERIES: u64 = 0xb8b0_503f_b5d1_1039;
const BSA_130_QUERIES: u64 = 0xf39a_a897_6bb0_d51d;
// Landed with the read path folded into `Snapshot`, computed by the
// segmented merge before it.
const STORE_F32: u64 = 0xb5f4_52f7_b3f4_acd2;
const STORE_SQ8: u64 = 0xd14e_edc7_8b52_2670;
