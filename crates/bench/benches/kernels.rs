//! Criterion microbenchmarks for the Table 4 kernel comparison:
//! PDX auto-vectorized vs N-ary explicit-SIMD vs N-ary scalar, for
//! L2 / IP / L1 at representative dimensionalities — and, in the
//! `rotation` groups, the query/collection rotations of the pruners; in
//! `bound_pass` and `dense/tile_vs_groups`, the two per-checkpoint steps
//! of a PDXearch tile; in `sq8_from_rows`, the SQ8 build of a compaction;
//! in `route`, IVF routing a query at a time against a band at a time; in
//! `visit_order`, one PDX-BOND dimension order per policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdx::core::kernels::{pdx_accumulate_groups, sq8_accumulate_groups, survival_bits, DimSel};
use pdx::prelude::*;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let n = 16_384usize;
    for metric in [Metric::L2, Metric::NegativeIp, Metric::L1] {
        let mut group = c.benchmark_group(format!("kernels/{}", metric.name()));
        for d in [8usize, 32, 128, 768] {
            let spec = DatasetSpec {
                name: "bench",
                dims: d,
                distribution: Distribution::Normal,
                paper_size: 0,
            };
            let ds = generate(&spec, n, 1, d as u64);
            let q = ds.query(0).to_vec();
            let block = PdxBlock::from_rows(&ds.data, n, d, DEFAULT_GROUP_SIZE);
            let mut out = vec![0.0f32; n];
            group.throughput(Throughput::Elements((n * d) as u64));
            group.bench_with_input(BenchmarkId::new("pdx", d), &d, |b, _| {
                b.iter(|| {
                    pdx_scan(metric, &block, black_box(&q), &mut out);
                    black_box(&out);
                })
            });
            group.bench_with_input(BenchmarkId::new("nary_simd", d), &d, |b, _| {
                b.iter(|| {
                    for (i, row) in ds.data.chunks_exact(d).enumerate() {
                        out[i] = nary_distance(metric, KernelVariant::Simd, black_box(&q), row);
                    }
                    black_box(&out);
                })
            });
            group.bench_with_input(BenchmarkId::new("nary_scalar", d), &d, |b, _| {
                b.iter(|| {
                    for (i, row) in ds.data.chunks_exact(d).enumerate() {
                        out[i] = nary_distance(metric, KernelVariant::Scalar, black_box(&q), row);
                    }
                    black_box(&out);
                })
            });
        }
        group.finish();
    }
}

/// The two rotations of the pruners, per `d`. BSA's PCA rotation is
/// `pdx-linalg`'s `dot_rows`: a `d × d` matrix against `B` packed
/// queries, scalar oracle vs the nest the `Auto` policy runs on this
/// machine (`dot_rows_isa`: the 8-lane AVX2 tile on an AVX-512 host). `B = 1` is the per-query `matvec`; larger `B` is the batched
/// rotation of `search_batch` and the collection rotation. Its
/// throughput counts the matrix bytes the arithmetic consumes (`B`
/// passes over `d × d` `f32`), so the rate is comparable with a
/// memory-bandwidth figure (`harness.calib_stream_gbps` in `perfbench`):
/// at `B = 1` it is the bandwidth of the cache level the matrix lives
/// in, and what it gains with `B` is the tile reusing each matrix strip
/// across queries. ADSampling's `RandomRotation` (`structured`) has no
/// matrix to stream, so its throughput counts rotated elements; compare
/// the two by time per query.
fn bench_rotation(c: &mut Criterion) {
    use pdx::linalg::kernel::{dot_rows, dot_rows_isa};
    use pdx::linalg::{MatrixView, RandomRotation};
    let isa = dot_rows_isa(KernelPolicy::Auto).name();
    for d in [128usize, 960] {
        let mut group = c.benchmark_group(format!("rotation/d{d}"));
        let spec = DatasetSpec {
            name: "bench",
            dims: d,
            distribution: Distribution::Normal,
            paper_size: 0,
        };
        let ds = generate(&spec, d, 16, d as u64);
        let matrix = MatrixView::new(d, d, &ds.data);
        let structured = RandomRotation::new(d, d as u64);
        for batch in [1usize, 4, 16] {
            let packed = &ds.queries[..batch * d];
            group.throughput(Throughput::Elements((batch * d) as u64));
            group.bench_with_input(BenchmarkId::new("structured", batch), &batch, |b, _| {
                b.iter(|| black_box(structured.transform_rows(black_box(packed), 1)))
            });
            group.throughput(Throughput::Bytes((batch * d * d * 4) as u64));
            let queries = MatrixView::new(batch, d, packed);
            let mut out = vec![0.0f32; batch * d];
            let auto = format!("auto-{isa}");
            for (name, policy) in [
                ("scalar", KernelPolicy::Scalar),
                (auto.as_str(), KernelPolicy::Auto),
            ] {
                group.bench_with_input(BenchmarkId::new(name, batch), &batch, |b, _| {
                    b.iter(|| {
                        dot_rows(matrix, black_box(queries), &mut out, policy);
                        black_box(&out);
                    })
                });
            }
        }
        group.finish();
    }
}

/// The bound pass of one 1 024-lane tile at 6 % survivors (what a
/// `flat_exact` WARMUP checkpoint meets): survival bits plus their
/// count, the checked portable loop against the ISA the `Auto` policy
/// resolves here. Throughput counts lanes.
fn bench_bound_pass(c: &mut Criterion) {
    let isa = KernelPolicy::Auto.resolve().name();
    let n = 1_024usize;
    let partials: Vec<f32> = (0..n).map(|l| (l * 61 % 1_000) as f32).collect();
    let threshold = 60.0f32; // keeps the 62 lanes below it
    let mut bits = Vec::new();
    let mut group = c.benchmark_group("bound_pass");
    group.throughput(Throughput::Elements(n as u64));
    let auto = format!("auto-{isa}");
    for (name, policy) in [
        ("scalar", KernelPolicy::Scalar),
        (auto.as_str(), KernelPolicy::Auto),
    ] {
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| {
                let (cp, partials) = (black_box(&threshold), black_box(&partials[..]));
                black_box(survival_bits::<PdxBond>(
                    cp, partials, None, &mut bits, policy,
                ));
                black_box(&bits);
            })
        });
    }
    group.finish();
}

/// One WARMUP checkpoint step of a 16-group tile (1 024 vectors of
/// d = 128): one dense call over the group range against sixteen
/// one-group calls, at the 2-, 4- and 8-dimension steps where the
/// per-call cost is largest, `f32` values and SQ8 codes. Throughput
/// counts values read.
fn bench_tile_vs_groups(c: &mut Criterion) {
    let (n, d, groups) = (1_024usize, 128usize, 16usize);
    let spec = DatasetSpec {
        name: "bench",
        dims: d,
        distribution: Distribution::Normal,
        paper_size: 0,
    };
    let ds = generate(&spec, n, 1, 7);
    let q = ds.query(0).to_vec();
    let block = PdxBlock::from_rows(&ds.data, n, d, DEFAULT_GROUP_SIZE);
    let quantizer = Sq8Quantizer::fit(&ds.data, n, d);
    let codes = quantizer.encode_block(&ds.data, n, DEFAULT_GROUP_SIZE);
    let q8 = quantizer.prepare_query(Metric::L2, &q);
    let (metric, policy) = (Metric::L2, KernelPolicy::Auto);
    let mut acc = vec![0.0f32; n];
    let mut group = c.benchmark_group("dense/tile_vs_groups");
    for step in [2usize, 4, 8] {
        let dims = step..2 * step;
        group.throughput(Throughput::Elements((n * step) as u64));
        group.bench_with_input(BenchmarkId::new("f32/tile", step), &step, |b, _| {
            b.iter(|| {
                let sel = DimSel::Range(dims.clone());
                pdx_accumulate_groups(
                    metric,
                    &block,
                    0..groups,
                    black_box(&q),
                    sel,
                    &mut acc,
                    policy,
                );
                black_box(&acc);
            })
        });
        group.bench_with_input(BenchmarkId::new("f32/groups", step), &step, |b, _| {
            b.iter(|| {
                for (g, acc) in (0..groups).zip(acc.chunks_mut(DEFAULT_GROUP_SIZE)) {
                    let sel = DimSel::Range(dims.clone());
                    pdx_accumulate_groups(
                        metric,
                        &block,
                        g..g + 1,
                        black_box(&q),
                        sel,
                        acc,
                        policy,
                    );
                }
                black_box(&acc);
            })
        });
        group.bench_with_input(BenchmarkId::new("sq8/tile", step), &step, |b, _| {
            b.iter(|| {
                sq8_accumulate_groups(
                    black_box(&q8),
                    &codes,
                    0..groups,
                    dims.clone(),
                    &mut acc,
                    policy,
                );
                black_box(&acc);
            })
        });
        group.bench_with_input(BenchmarkId::new("sq8/groups", step), &step, |b, _| {
            b.iter(|| {
                for (g, acc) in (0..groups).zip(acc.chunks_mut(DEFAULT_GROUP_SIZE)) {
                    sq8_accumulate_groups(
                        black_box(&q8),
                        &codes,
                        g..g + 1,
                        dims.clone(),
                        acc,
                        policy,
                    );
                }
                black_box(&acc);
            })
        });
    }
    group.finish();
}

/// The build half of an SQ8 seal or compaction at the shape a
/// `store_churn` compaction rewrites (30 200 rows of d = 128): the
/// quantizer fit, then the encode and group tiling of `from_rows`, and
/// the two together. Throughput counts values, so the rate inverts to
/// ns per value.
fn bench_sq8_from_rows(c: &mut Criterion) {
    let (n, d) = (30_200usize, 128usize);
    let spec = DatasetSpec {
        name: "bench",
        dims: d,
        distribution: Distribution::Normal,
        paper_size: 0,
    };
    let ds = generate(&spec, n, 1, 11);
    let rows = &ds.data[..n * d];
    let quantizer = Sq8Quantizer::fit(rows, n, d);
    let tile = |q: &Sq8Quantizer| q.encode_block(rows, n, DEFAULT_GROUP_SIZE);
    let mut group = c.benchmark_group(format!("sq8_from_rows/{n}x{d}"));
    group.throughput(Throughput::Elements((n * d) as u64));
    group.bench_function("fit", |b| {
        b.iter(|| Sq8Quantizer::fit(black_box(rows), n, d))
    });
    group.bench_function("encode+tile", |b| b.iter(|| tile(black_box(&quantizer))));
    group.bench_function("fit+encode+tile", |b| {
        b.iter(|| tile(&Sq8Quantizer::fit(black_box(rows), n, d)))
    });
    group.finish();
}

/// IVF routing at the `ivf_ads_hd` shape: 200 centroids of d = 960 in
/// 64-vector groups (the last one 8 wide), `nprobe` 2. `band1` routes 64
/// queries one band of one at a time, `band64` as one band — what the
/// serve driver does with a batch worker's band, each register of
/// centroids loaded once for a block of queries. Throughput counts
/// queries, so the rate inverts to ns per query.
fn bench_route(c: &mut Criterion) {
    use pdx::index::ivf::{centroid_block, probe_orders};
    let (n, d, nq) = (200usize, 960usize, 64usize);
    let spec = DatasetSpec {
        name: "bench",
        dims: d,
        distribution: Distribution::Normal,
        paper_size: 0,
    };
    let ds = generate(&spec, n, nq, 13);
    let centroids = centroid_block(&ds.data[..n * d], d, DEFAULT_GROUP_SIZE);
    let queries: Vec<&[f32]> = (0..nq).map(|i| ds.query(i)).collect();
    let mut group = c.benchmark_group(format!("route/{n}x{d}"));
    group.throughput(Throughput::Elements(nq as u64));
    group.bench_function("band1", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(probe_orders(&centroids, &[black_box(*q)], 2, Metric::L2));
            }
        })
    });
    group.bench_function("band64", |b| {
        b.iter(|| black_box(probe_orders(&centroids, black_box(&queries), 2, Metric::L2)))
    });
    group.finish();
}

/// One PDX-BOND visit order (`DistanceToMeans`) of a query against a
/// block's means, at the sift-like and gist-like widths: the sort the
/// scalar policy runs (`sort_unstable`) against the one the `Auto`
/// policy resolves here (the bitonic network on AVX-512). Throughput
/// counts orders, so the rate inverts to ns per order.
fn bench_visit_order(c: &mut Criterion) {
    use pdx::core::visit_order::dimension_permutation;
    let isa = KernelPolicy::Auto.resolve().name();
    let auto = format!("auto-{isa}");
    let mut group = c.benchmark_group("visit_order");
    group.throughput(Throughput::Elements(1));
    for d in [128usize, 960] {
        let spec = DatasetSpec {
            name: "bench",
            dims: d,
            distribution: Distribution::Normal,
            paper_size: 0,
        };
        let ds = generate(&spec, 1_024, 1, 17);
        let block = PdxBlock::from_rows(&ds.data, 1_024, d, DEFAULT_GROUP_SIZE);
        let means = BlockStats::from_block(&block).means;
        let q = ds.query(0).to_vec();
        let (mut keys, mut perm) = (Vec::new(), Vec::new());
        for (name, policy) in [
            ("scalar", KernelPolicy::Scalar),
            (auto.as_str(), KernelPolicy::Auto),
        ] {
            group.bench_with_input(BenchmarkId::new(name, d), &d, |b, _| {
                b.iter(|| {
                    let order = VisitOrder::DistanceToMeans;
                    let (q, means) = (black_box(&q[..]), Some(black_box(&means[..])));
                    dimension_permutation(order, q, means, policy, &mut keys, &mut perm);
                    black_box(&perm);
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kernels, bench_rotation, bench_bound_pass, bench_tile_vs_groups,
        bench_sq8_from_rows, bench_route, bench_visit_order
}
criterion_main!(benches);
