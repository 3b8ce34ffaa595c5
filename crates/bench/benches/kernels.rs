//! Criterion microbenchmarks for the Table 4 kernel comparison:
//! PDX auto-vectorized vs N-ary explicit-SIMD vs N-ary scalar, for
//! L2 / IP / L1 at representative dimensionalities — and, in the
//! `rotation` groups, the query/collection rotations of the pruners.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
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
            let nary = NaryMatrix::from_rows(&ds.data, n, d);
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
                    for (i, row) in nary.rows().enumerate() {
                        out[i] = nary_distance(metric, KernelVariant::Simd, black_box(&q), row);
                    }
                    black_box(&out);
                })
            });
            group.bench_with_input(BenchmarkId::new("nary_scalar", d), &d, |b, _| {
                b.iter(|| {
                    for (i, row) in nary.rows().enumerate() {
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
/// queries, scalar oracle vs the ISA the `Auto` policy resolves on this
/// machine. `B = 1` is the per-query `matvec`; larger `B` is the batched
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
    use pdx::linalg::{kernel::dot_rows, MatrixView, RandomRotation};
    let isa = KernelPolicy::Auto.resolve().name();
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

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kernels, bench_rotation
}
criterion_main!(benches);
