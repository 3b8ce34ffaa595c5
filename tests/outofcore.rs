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
    // The open reads the header and the centroids, never a bucket.
    let cold = lazy.cache_stats().unwrap();
    assert_eq!((cold.misses, cold.resident_bytes), (0, 0), "{cold:?}");
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

/// 2 and 8 callers share one lazy open under a 4 KiB budget (about
/// three buckets), each cycling through its own four queries: every
/// answer equals the resident open's bit for bit, and the counters
/// account for every fetch. At one probe no query starts a prefetch (it
/// needs two misses), so the fetches are exactly the scans' own; at
/// three, the prefetch adds at most one fetch per scanned bucket.
#[test]
fn concurrent_searches_stay_correct_during_eviction() {
    const ROUNDS: usize = 20;
    let dir = temp_dir("engine_lazy_concurrent");
    let path = dir.join("c.pdx");
    let baseline = build_ivf_container(&path, 500, 8, 5);
    let resident: &dyn VectorIndex = &baseline;
    for callers in [2usize, 8] {
        for nprobe in [1usize, 3] {
            let opts = ivf_opts(6, nprobe, 1);
            let open = OpenOptions::default().with_cache_bytes(4 << 10);
            let lazy = AnyIndex::open_with(&path, open).unwrap();
            let lazy = lazy.as_ref();
            // Per-caller queries and the resident answers to them.
            let jobs: Vec<Vec<(Vec<f32>, Vec<Neighbor>)>> = (0..callers as u64)
                .map(|t| {
                    (0..4)
                        .map(|j| {
                            let q = random_rows(1, 8, 300 + 4 * t + j);
                            let want = resident.search(&q, &opts);
                            (q, want)
                        })
                        .collect()
                })
                .collect();
            std::thread::scope(|scope| {
                for job in &jobs {
                    scope.spawn(move || {
                        for round in 0..ROUNDS {
                            for (q, want) in job {
                                let got = lazy.search(q, &opts);
                                assert_eq!(
                                    want, &got,
                                    "{callers} callers, nprobe {nprobe}, round {round}: \
                                     diverged under eviction churn"
                                );
                            }
                        }
                    });
                }
            });
            let s = lazy.cache_stats().unwrap();
            let scanned = (callers * 4 * ROUNDS * nprobe) as u64;
            let fetches = s.hits + s.misses;
            if nprobe == 1 {
                assert_eq!(fetches, scanned, "{callers} callers: {s:?}");
            } else {
                assert!(
                    (scanned..=2 * scanned).contains(&fetches),
                    "{callers} callers: {s:?}"
                );
            }
            assert!(s.evictions > 0, "{callers} callers, nprobe {nprobe}: {s:?}");
            assert!(s.resident_bytes <= s.budget_bytes);
        }
    }
}

/// A skewed stream of `len` draws from `0..distinct`: index `⌊u³ ·
/// distinct⌋` for a uniform `u`, so the first few indices dominate.
fn skewed_stream(distinct: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let u = rng.random::<f32>();
            ((u * u * u * distinct as f32) as usize).min(distinct - 1)
        })
        .collect()
}

/// The cache counters `(hits, misses, evictions)` of one caller replaying
/// a fixed skewed stream through a budget of a quarter of the container
/// (the `ivf_ooc` shape at test size). A change to the cache's locking
/// or to the prefetch must leave them as they are. Each query probes one
/// bucket, so no query starts a prefetch (it needs two misses) and the
/// counts are the same on any host. `search_batch` fetches in the order
/// of a loop of `search`, so both surfaces pin the same counts.
#[test]
fn cache_counters_of_a_skewed_replay_are_goldens() {
    const GOLDEN: (u64, u64, u64) = (332, 268, 264);
    let dir = temp_dir("cache_counter_goldens");
    let path = dir.join("c.pdx");
    let d = 16;
    build_ivf_container(&path, 2_000, d, 41);
    let header = read_header_path(&path).unwrap();
    let budget = header.buckets.iter().map(|e| e.byte_len).sum::<u64>() / 4;
    let population = random_rows(64, d, 4_242);
    let stream: Vec<f32> = skewed_stream(64, 600, 7)
        .into_iter()
        .flat_map(|i| population[i * d..(i + 1) * d].iter().copied())
        .collect();
    let opts = ivf_opts(10, 1, 1);
    let counts = |lazy: &LazyIvf| {
        let s = lazy.cache_stats();
        (s.hits, s.misses, s.evictions)
    };
    let one_by_one = LazyIvf::open(&path, budget).unwrap();
    for q in stream.chunks(d) {
        one_by_one.search(q, &opts);
    }
    assert_eq!(counts(&one_by_one), GOLDEN, "search");
    let batched = LazyIvf::open(&path, budget).unwrap();
    batched.search_batch(&stream, &opts);
    assert_eq!(counts(&batched), GOLDEN, "search_batch");
}

/// ROADMAP item 14(a) for `ivf_ooc`: a lazy open under a budget of a
/// quarter of the file replays a skewed stream at `nprobe` 4. What a
/// query scans is decided by routing and the pruner, never by the cache,
/// so its summed ● work counters are goldens, and the resident buckets
/// read the same ones for the same queries.
#[test]
fn ivf_ooc_work_counters_are_goldens() {
    const GOLDEN: [u64; 4] = [9_036_428, 9_577_344, 299_292, 1_200];
    let dir = temp_dir("ivf_ooc_work_counters");
    let path = dir.join("c.pdx");
    let d = 32;
    let resident = build_ivf_container(&path, 4_000, d, 63);
    let budget = std::fs::metadata(&path).unwrap().len() / 4;
    let lazy = LazyIvf::open(&path, budget).unwrap();
    let population = random_rows(64, d, 6_363);
    let opts = SearchOptions::new(10).with_nprobe(4).with_trace(true);
    let counters = |index: &dyn VectorIndex| {
        let mut sum = pdx::obs::QueryTrace::default();
        for i in skewed_stream(64, 300, 11) {
            let q = &population[i * d..(i + 1) * d];
            let (hits, trace) = pdx::obs::trace::capture(|| index.search(q, &opts));
            assert_eq!(hits.len(), opts.k);
            sum.merge(&trace);
        }
        [
            sum.dims_scanned,
            sum.dims_total,
            sum.vectors_visited,
            sum.blocks_visited,
        ]
    };
    let what = "dims_scanned, dims_total, vectors_visited, blocks_visited";
    assert_eq!(counters(&lazy), GOLDEN, "lazy open: {what}");
    assert_eq!(counters(&resident), GOLDEN, "resident buckets: {what}");
    let s = lazy.cache_stats();
    assert!(
        s.evictions > 0 && s.resident_bytes <= s.budget_bytes,
        "{s:?}"
    );
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
    /// single operation, for arbitrary budgets and load sequences and
    /// 1–4 concurrent callers — oversized entries bypass instead of
    /// blowing the budget, and the hit/miss counters account for every
    /// access.
    #[test]
    fn cache_resident_never_exceeds_budget(
        budget in 0u64..4096,
        ops in proptest::collection::vec((0u32..64, 1u64..1024), 1..200),
        callers in 1usize..5,
    ) {
        let cache: BlockCache<u32, u64> = BlockCache::new(budget);
        // Caller `c` issues every `callers`-th op, all callers at once;
        // each reports its first violation.
        let violations: Vec<Option<String>> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..callers)
                .map(|c| {
                    let (cache, ops) = (&cache, &ops);
                    s.spawn(move || {
                        ops.iter().skip(c).step_by(callers).find_map(|&(key, bytes)| {
                            let v = cache.get_or_load(&key, || Ok((u64::from(key) * 31, bytes)));
                            let v = *v.unwrap();
                            let resident = cache.resident_bytes();
                            (v != u64::from(key) * 31 || resident > budget)
                                .then(|| format!("key {key}: value {v}, resident {resident}"))
                        })
                    })
                })
                .collect();
            callers.into_iter().map(|t| t.join().unwrap()).collect()
        });
        prop_assert_eq!(violations.into_iter().flatten().next(), None);
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
