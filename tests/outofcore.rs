//! Out-of-core integration suite: engine routing for lazily opened
//! IVF-extended containers and sharded collections, bit-identity under
//! cache pressure and concurrency, corruption probes on the bucket
//! table, and proptest invariants for the byte-budgeted block cache.

use pdx::datasets::persist::{read_header_path, write_ivf_pdx_path};
use pdx::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pdx_outofcore_suite").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * d).map(|_| rng.random::<f32>() * 10.0).collect()
}

/// Builds an IVF-extended `f32` container on disk and returns the
/// equivalent fully resident deployment as the comparison baseline
/// (in memory, so assertions hold no matter what `PDX_CACHE_BYTES`
/// says in the environment).
fn build_ivf_container(path: &std::path::Path, n: usize, d: usize, seed: u64) -> IvfPdx {
    let rows = random_rows(n, d, seed);
    let index = IvfIndex::build(&rows, n, d, 16, 8, seed);
    let ivf = IvfPdx::new(&rows, d, &index.assignments, 16);
    write_ivf_pdx_path(path, d, &ivf.centroids.pdx.to_rows(), &ivf.blocks).unwrap();
    ivf
}

/// IVF search options shared by the baseline and the lazy opens.
fn ivf_opts(k: usize, nprobe: usize, threads: usize) -> SearchOptions {
    SearchOptions::new(k)
        .with_pruner(PrunerKind::Bond(VisitOrder::DistanceToMeans))
        .with_nprobe(nprobe)
        .with_threads(threads)
}

#[test]
fn engine_opens_ivf_containers_lazily_under_a_budget() {
    let dir = temp_dir("engine_lazy_routing");
    let path = dir.join("c.pdx");
    build_ivf_container(&path, 400, 12, 9);
    let lazy =
        AnyIndex::open_with(&path, OpenOptions::default().with_cache_bytes(64 << 10)).unwrap();
    assert_eq!(lazy.kind(), "ivf-pdx-lazy");
    assert_eq!(lazy.len(), 400);
    assert_eq!(lazy.dims(), 12);
    assert!(lazy.cache_stats().is_some());
    // Without an explicit budget the open also succeeds (resident, or
    // lazy when the CI leg sets PDX_CACHE_BYTES — both must serve).
    let default_open = AnyIndex::open(&path).unwrap();
    assert_eq!(default_open.len(), 400);
    let q = random_rows(1, 12, 77);
    let opts = ivf_opts(5, 4, 1);
    assert_eq!(default_open.search(&q, &opts), lazy.search(&q, &opts));
}

#[test]
fn lazy_engine_search_is_bit_identical_under_cache_churn() {
    let dir = temp_dir("engine_lazy_bitident");
    let path = dir.join("c.pdx");
    let baseline = build_ivf_container(&path, 600, 10, 21);
    let resident: &dyn VectorIndex = &baseline;
    // A budget far below the container size forces eviction on nearly
    // every probe.
    let lazy =
        AnyIndex::open_with(&path, OpenOptions::default().with_cache_bytes(4 << 10)).unwrap();
    for qi in 0..10 {
        let q = random_rows(1, 10, 1000 + qi);
        for nprobe in [2usize, 6, 0] {
            let want = resident.search(&q, &ivf_opts(7, nprobe, 1));
            for threads in [1usize, 2, 8] {
                let got = lazy.search(&q, &ivf_opts(7, nprobe, threads));
                assert_eq!(
                    want, got,
                    "query {qi} nprobe {nprobe} at {threads} threads: ids or distance bits differ"
                );
            }
        }
    }
    let stats = lazy.cache_stats().unwrap();
    assert!(stats.misses > 0, "tiny budget must miss");
    assert!(stats.evictions > 0, "tiny budget must evict");
    assert!(stats.resident_bytes <= stats.budget_bytes);
}

#[test]
fn concurrent_searches_stay_correct_during_eviction() {
    let dir = temp_dir("engine_lazy_concurrent");
    let path = dir.join("c.pdx");
    let baseline = build_ivf_container(&path, 500, 8, 5);
    let lazy: Arc<Box<dyn VectorIndex>> = Arc::new(
        AnyIndex::open_with(&path, OpenOptions::default().with_cache_bytes(4 << 10)).unwrap(),
    );
    // Per-thread expected answers, precomputed on the resident baseline.
    let jobs: Vec<(Vec<f32>, Vec<Neighbor>)> = (0..8u64)
        .map(|t| {
            let q = random_rows(1, 8, 300 + t);
            let want = (&baseline as &dyn VectorIndex).search(&q, &ivf_opts(6, 3, 1));
            (q, want)
        })
        .collect();
    std::thread::scope(|scope| {
        for (q, want) in &jobs {
            let lazy = Arc::clone(&lazy);
            scope.spawn(move || {
                // Repeated rounds so every thread both loads and gets
                // evicted under the shared 4 KiB budget.
                for round in 0..20 {
                    let got = lazy.search(q, &ivf_opts(6, 3, 1));
                    assert_eq!(want, &got, "round {round} diverged under eviction churn");
                }
            });
        }
    });
    assert!(lazy.cache_stats().unwrap().evictions > 0);
}

#[test]
fn truncated_and_corrupt_bucket_tables_are_typed_errors() {
    let dir = temp_dir("engine_lazy_corrupt");
    let path = dir.join("c.pdx");
    build_ivf_container(&path, 300, 6, 13);
    let healthy = std::fs::read(&path).unwrap();
    let n_buckets = read_header_path(&path).unwrap().buckets.len();
    // The bucket table sits right after the 28-byte fixed header and
    // the centroid rows (f32 container: no quantizer section).
    let table_at = 28 + n_buckets * 6 * 4;

    // Truncations: mid-header, mid-table, mid-bucket — all typed errors
    // naming the path, never panics.
    for cut in [16usize, table_at + 10, healthy.len() - 7] {
        std::fs::write(&path, &healthy[..cut]).unwrap();
        let err = AnyIndex::open_with(&path, OpenOptions::default().with_cache_bytes(1 << 20))
            .err()
            .expect("truncated container must fail to open");
        assert!(err.to_string().contains("c.pdx"), "cut at {cut}: {err}");
    }

    // An absurd vector count in a table entry must fail validation
    // without over-allocating (byte_len no longer matches).
    let mut corrupt = healthy.clone();
    corrupt[table_at + 16..table_at + 20].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &corrupt).unwrap();
    let err = AnyIndex::open_with(&path, OpenOptions::default().with_cache_bytes(1 << 20))
        .err()
        .expect("corrupt bucket table must fail to open");
    assert!(err.to_string().contains("c.pdx"), "{err}");

    // A bogus offset pointing past the file is caught at open.
    let mut corrupt = healthy.clone();
    corrupt[table_at..table_at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    std::fs::write(&path, &corrupt).unwrap();
    let err = AnyIndex::open_with(&path, OpenOptions::default().with_cache_bytes(1 << 20))
        .err()
        .expect("corrupt bucket table must fail to open");
    assert!(err.to_string().contains("c.pdx"), "{err}");

    // The healthy bytes still open fine (the probes above tested the
    // file, not the harness).
    std::fs::write(&path, &healthy).unwrap();
    assert_eq!(
        AnyIndex::open_with(&path, OpenOptions::default().with_cache_bytes(1 << 20))
            .unwrap()
            .len(),
        300
    );
}

#[test]
fn sharded_dir_routes_through_engine_and_matches_single() {
    let dir = temp_dir("engine_sharded");
    let sharded_dir = dir.join("sharded");
    let single_dir = dir.join("single");
    let (n, d) = (500usize, 7usize);
    let rows = random_rows(n, d, 31);
    let config = StoreConfig {
        block_size: 64,
        group_size: 16,
        buffer_capacity: 100,
        quantize: false,
    };
    let sharded = ShardedCollection::create(&sharded_dir, d, 4, config).unwrap();
    let single = Collection::create(&single_dir, d, config).unwrap();
    for i in 0..n {
        sharded.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
        single.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    sharded.sync().unwrap();
    single.sync().unwrap();
    drop(sharded);

    let opened = AnyIndex::open(&sharded_dir).unwrap();
    assert_eq!(opened.kind(), "sharded-collection");
    assert_eq!(opened.len(), n);
    // Sequential visit order makes distances row-pure, so the sharded
    // fan-out + merge is bit-identical to the single-shard build at
    // every thread count.
    for qi in 0..8 {
        let q = random_rows(1, d, 600 + qi);
        let opts = SearchOptions::new(6).with_pruner(PrunerKind::Bond(VisitOrder::Sequential));
        let want = (&single as &dyn VectorIndex).search(&q, &opts);
        for threads in [1usize, 2, 8] {
            let got = opened.search(&q, &opts.with_threads(threads));
            assert_eq!(want, got, "query {qi} at {threads} threads");
        }
    }
}

#[test]
fn env_budget_enables_lazy_open() {
    let dir = temp_dir("engine_env_budget");
    let path = dir.join("c.pdx");
    build_ivf_container(&path, 200, 5, 3);
    let saved = std::env::var(CACHE_BYTES_ENV).ok();
    std::env::set_var(CACHE_BYTES_ENV, "8192");
    let opened = AnyIndex::open(&path).unwrap();
    match saved {
        Some(v) => std::env::set_var(CACHE_BYTES_ENV, v),
        None => std::env::remove_var(CACHE_BYTES_ENV),
    }
    assert_eq!(opened.kind(), "ivf-pdx-lazy");
    let stats = opened.cache_stats().unwrap();
    assert_eq!(stats.budget_bytes, 8192);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache's own footprint never exceeds its budget, after every
    /// single operation, for arbitrary budgets and load sequences —
    /// oversized entries bypass instead of blowing the budget, and the
    /// hit/miss counters account for every access.
    #[test]
    fn cache_resident_never_exceeds_budget(
        budget in 0u64..4096,
        ops in proptest::collection::vec((0u32..64, 1u64..1024), 1..200),
    ) {
        let cache: BlockCache<u32, u64> = BlockCache::new(budget);
        for &(key, bytes) in &ops {
            let v = cache.get_or_load(&key, || Ok((u64::from(key) * 31, bytes))).unwrap();
            prop_assert_eq!(*v, u64::from(key) * 31);
            prop_assert!(cache.resident_bytes() <= budget);
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, ops.len() as u64);
        prop_assert!(s.resident_bytes <= s.budget_bytes);
    }

    /// A hit always returns the value the caller already holds pinned:
    /// eviction can change what the *next* miss loads, but it can never
    /// swap bytes under a key that is still resident.
    #[test]
    fn cache_hits_return_the_pinned_value(
        ops in proptest::collection::vec((0u32..16, 1u64..256), 1..100),
    ) {
        let cache: BlockCache<u32, u32> = BlockCache::with_shards(512, 1);
        let mut last: HashMap<u32, Arc<u32>> = HashMap::new();
        for (i, &(key, bytes)) in ops.iter().enumerate() {
            let hits_before = cache.stats().hits;
            let v = cache.get_or_load(&key, || Ok((i as u32, bytes))).unwrap();
            if cache.stats().hits > hits_before {
                prop_assert_eq!(&v, last.get(&key).expect("hit implies a prior load"));
            }
            last.insert(key, v);
        }
    }

    /// Loader failures poison nothing: the failed key stays loadable
    /// and the cache's footprint is untouched.
    #[test]
    fn cache_loader_errors_are_transient(
        keys in proptest::collection::vec(0u32..8, 1..50),
    ) {
        let cache: BlockCache<u32, u32> = BlockCache::with_shards(256, 1);
        for &key in &keys {
            let before = cache.resident_bytes();
            let err = cache
                .get_or_load(&key, || Err::<(u32, u64), _>(io::Error::other("flaky read")))
                .or_else(|_| cache.get_or_load(&key, || Ok((key, 16))));
            prop_assert_eq!(*err.unwrap(), key);
            prop_assert!(cache.resident_bytes() >= before);
        }
    }
}
