//! Criterion end-to-end search benchmarks: PDX-BOND, the PDX linear
//! scan and the SQ8 two-phase search on exact search, PDX-ADS on an IVF
//! index (the Figures 6/9 operating points at microbenchmark scale), and
//! the out-of-core IVF's cache hit and miss paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdx::datasets::persist::{read_container_path, write_ivf_pdx_path};
use pdx::prelude::*;
use std::hint::black_box;

/// The repo benchmark's `flat_exact` shape (sift-like, n = 50 000,
/// d = 128, five blocks of 10 240): what a change to the PDXearch tile
/// loop or the survivor kernels moves, visible without the harness.
fn bench_exact(c: &mut Criterion) {
    let spec = *spec_by_name("sift").unwrap();
    let n = 50_000;
    let ds = generate(&spec, n, 16, 3);
    let d = ds.dims();
    let flat = FlatPdx::with_defaults(&ds.data, n, d);
    let sq8 = FlatSq8::with_defaults(&ds.data, n, d);
    let nary = NaryMatrix::from_rows(&ds.data, n, d);
    let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
    let params = SearchOptions::new(10);

    let mut group = c.benchmark_group("exact_search/sift50k");
    let mut qi = 0usize;
    group.bench_function("pdx_bond", |b| {
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries;
            black_box(flat.search_with(&bond, ds.query(qi), &params));
        })
    });
    group.bench_function("pdx_linear", |b| {
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries;
            black_box(flat.linear_search(ds.query(qi), 10, Metric::L2));
        })
    });
    group.bench_function("sq8_two_phase", |b| {
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries;
            black_box(sq8.search(ds.query(qi), &params));
        })
    });
    group.bench_function("nary_simd", |b| {
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries;
            black_box(linear_scan_nary(
                &nary,
                ds.query(qi),
                10,
                Metric::L2,
                KernelVariant::Simd,
            ));
        })
    });
    // One 64-query `search_batch` on one thread — one band, every tile
    // loaded once for all of it — with its rate in queries per second:
    // against `pdx_bond` it is what a batch buys beyond threads. Last in
    // the group, since a group's throughput unit stays set.
    let band: Vec<f32> = (0..64)
        .flat_map(|i| ds.query(i % ds.n_queries))
        .copied()
        .collect();
    let one_thread = params.with_threads(1);
    group.throughput(Throughput::Elements(64));
    group.bench_function("pdx_bond_batch64", |b| {
        b.iter(|| black_box(flat.search_batch_with(&bond, &band, &one_thread)))
    });
    group.finish();
}

fn bench_ivf(c: &mut Criterion) {
    let spec = *spec_by_name("deep").unwrap();
    let n = 20_000;
    let ds = generate(&spec, n, 16, 4);
    let d = ds.dims();
    let nlist = IvfIndex::default_nlist(n);
    let index = IvfIndex::build(&ds.data, n, d, nlist, 10, 3);
    let ads = AdSampling::fit(d, 7);
    let rotated = ads.transform_collection(&ds.data, n, 0);
    let ivf = IvfPdx::new(&rotated, d, &index.assignments, DEFAULT_GROUP_SIZE);
    let ivf_hor = IvfHorizontal::new(&ds.data, d, &index.assignments, 24);
    let params = SearchOptions::new(10);
    let nprobe = (nlist / 2).max(1);

    let mut group = c.benchmark_group("ivf_search/deep20k");
    let mut qi = 0usize;
    group.bench_function("pdx_ads", |b| {
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries;
            black_box(ivf.search_with(&ads, ds.query(qi), &params.with_nprobe(nprobe)));
        })
    });
    group.bench_function("ivfflat_simd", |b| {
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries;
            black_box(ivf_hor.linear_search(
                ds.query(qi),
                10,
                nprobe,
                Metric::L2,
                KernelVariant::Simd,
            ));
        })
    });
    // One 64-query `search_batch` on one thread, as `pdx_bond_batch64`:
    // the band is routed in one pass over the centroids, then scanned a
    // query at a time. Last in the group, as there.
    let band: Vec<f32> = (0..64)
        .flat_map(|i| ds.query(i % ds.n_queries))
        .copied()
        .collect();
    let one_thread = params.with_nprobe(nprobe).with_threads(1);
    group.throughput(Throughput::Elements(64));
    group.bench_function("pdx_ads_batch64", |b| {
        b.iter(|| black_box(ivf.search_batch_with(&ads, &band, &one_thread)))
    });
    group.finish();
}

/// The out-of-core paths at the repo benchmark's `ivf_ooc` bucket shape
/// (sift-like, ≈ 256 vectors a bucket, nprobe 4), at n = 16 384. `hit`
/// is a `LazyIvf` query whose buckets are all resident; `resident` asks
/// the same queries of the same file opened resident, so the gap is
/// what the lazy index adds to a query that never misses. `miss` is one
/// cold `LazyIvf::fetch` (a zero budget caches nothing): a bucket's
/// reads plus its decode.
fn bench_lazy_ivf(c: &mut Criterion) {
    let spec = *spec_by_name("sift").unwrap();
    let n = 16_384;
    let ds = generate(&spec, n, 16, 5);
    let d = ds.dims();
    let index = IvfIndex::build(&ds.data, n, d, 64, 5, 3);
    let ivf = IvfPdx::new(&ds.data, d, &index.assignments, DEFAULT_GROUP_SIZE);
    let path = std::env::temp_dir().join(format!("pdx_bench_lazy_{}.pdx", std::process::id()));
    write_ivf_pdx_path(&path, d, &ivf.centroids.pdx.to_rows(), &ivf.blocks).unwrap();
    let resident = AnyIndex::from_container(read_container_path(&path).unwrap());
    let file_bytes = std::fs::metadata(&path).unwrap().len();
    let warm = LazyIvf::open(&path, 2 * file_bytes).unwrap();
    let cold = LazyIvf::open(&path, 0).unwrap();
    let opts = SearchOptions::new(10).with_nprobe(4);
    for qi in 0..ds.n_queries {
        warm.search(ds.query(qi), &opts);
    }

    let mut group = c.benchmark_group("lazy_ivf/sift16k");
    let mut qi = 0usize;
    group.bench_function("hit", |b| {
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries;
            black_box(warm.search(ds.query(qi), &opts));
        })
    });
    group.bench_function("resident", |b| {
        b.iter(|| {
            qi = (qi + 1) % ds.n_queries;
            black_box(resident.search(ds.query(qi), &opts));
        })
    });
    let mut bucket = 0u32;
    group.bench_function("miss", |b| {
        b.iter(|| {
            bucket = (bucket + 1) % cold.n_buckets() as u32;
            black_box(cold.fetch(bucket));
        })
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_exact, bench_ivf, bench_lazy_ivf
}
criterion_main!(benches);
