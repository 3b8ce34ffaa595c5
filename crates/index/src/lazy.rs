//! Out-of-core IVF: bucket-granular lazy loading behind a block cache.
//!
//! [`LazyIvf`] serves the same IVF-extended containers
//! ([`pdx_datasets::persist::write_ivf_pdx`]) as the fully resident
//! [`IvfPdx`](crate::IvfPdx), but opens them by reading **only the
//! header** — centroids plus the per-bucket offset/length table — so
//! cold opens cost O(header), independent of the corpus size. Bucket
//! records are then seek-read on demand, only for the `nprobe` buckets
//! a query actually probes, through a sharded, byte-budgeted
//! [`BlockCache`].
//!
//! Two invariants make this safe and exact:
//!
//! * **Pinning** — the cache hands out `Arc<SearchBlock>`s; a search
//!   holds a pin on every bucket for as long as it scans it, so
//!   eviction (even from a concurrent query) can never invalidate an
//!   in-flight scan. When the process could run on two or more CPUs
//!   at open, a query's cold buckets are prefetched by a few scoped
//!   worker threads concurrently with the scan, without changing the
//!   scan order. The cache loads under its shard lock, so the misses
//!   overlap with each other and with the scan's hits only across
//!   shards: under a one-shard budget (below 64 MiB) they are
//!   serialized.
//! * **Bit-identity** — bucket records persist their PDX tiles *and*
//!   their block statistics, and both the resident and the lazy read
//!   paths decode them with the same record codec
//!   ([`pdx_datasets::persist::read_f32_bucket`]). A query
//!   therefore sees exactly the blocks the resident deployment holds:
//!   same probe order, same scan, same distance bits, at any cache
//!   budget and any thread count.

use crate::ivf::centroid_block;
use crate::Deployment;
use pdx_core::cache::{BlockCache, CacheStats};
use pdx_core::collection::SearchBlock;
use pdx_core::engine::{SearchOptions, VectorIndex};
use pdx_core::heap::Neighbor;
use pdx_datasets::persist::{read_f32_bucket, read_header_path, ContainerHeader};
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Upper bound on background prefetch workers per query. Misses are
/// CPU-heavy (page-cache copy + tile decode), so a few workers hide
/// most of the latency; more would just contend on cache shards.
const PREFETCH_WIDTH: usize = 4;

/// An IVF deployment that keeps only the container header resident and
/// lazily loads bucket records through a byte-budgeted [`BlockCache`].
#[derive(Debug)]
pub struct LazyIvf {
    path: PathBuf,
    file: std::fs::File,
    /// The container's header: geometry, centroid rows, bucket table.
    header: ContainerHeader,
    /// Centroids rebuilt exactly as the resident reader does, so probe
    /// orders match bit-for-bit.
    centroids: SearchBlock,
    total_vectors: usize,
    header_bytes: u64,
    cache: Arc<BlockCache<u32, SearchBlock>>,
    /// The CPUs the process could run on at open: below two, queries
    /// load their misses inline instead of starting a prefetch.
    cpus: usize,
}

impl LazyIvf {
    /// Opens an IVF-extended `PDX1` container lazily with a cache
    /// budget of `cache_bytes`. Reads (and validates) only the header;
    /// no bucket record is touched until a query probes it.
    ///
    /// The open also reads how many CPUs the process may run on (the
    /// probe costs tens of µs, so queries never repeat it): with two or
    /// more, each query prefetches its cold buckets on up to four worker
    /// threads beside its scan; with one, it loads them inline. Later
    /// changes to the process's CPU affinity or cgroup quota are not
    /// observed: reopen the file to pick them up.
    ///
    /// # Errors
    /// Fails with `InvalidData` if the file is not an IVF-extended
    /// `f32` container (legacy containers have no bucket table to seek
    /// by — open those via `AnyIndex`/`read_container_path` instead),
    /// or if the header is corrupt or truncated.
    pub fn open(path: &Path, cache_bytes: u64) -> io::Result<Self> {
        let header = read_header_path(path)?;
        let refuse = |why: &str| {
            let msg = format!("{}: {why}", path.display());
            Err(io::Error::new(io::ErrorKind::InvalidData, msg))
        };
        let Some(centroid_rows) = &header.centroid_rows else {
            return refuse(
                "not an IVF-extended container (lazy opening needs the bucket table of \
                 format 1.1)",
            );
        };
        if header.quantizer.is_some() {
            return refuse(
                "lazy opening supports f32 IVF containers (PDX2 reranks against a global \
                 row payload; open it resident instead)",
            );
        }
        let n_buckets = header.buckets.len();
        let total_vectors = header.buckets.iter().map(|e| e.n_vectors as usize).sum();
        let header_bytes = (centroid_rows.len() as u64) * 4 + (n_buckets as u64) * 20;
        Ok(Self {
            file: std::fs::File::open(path)?,
            path: path.to_path_buf(),
            centroids: centroid_block(centroid_rows, header.dims, header.group),
            header,
            total_vectors,
            header_bytes,
            cache: Arc::new(BlockCache::new(cache_bytes)),
            cpus: pdx_core::exec::hardware_threads(),
        })
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.header.dims
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> usize {
        self.header.buckets.len()
    }

    /// Total vectors across all buckets (from the table — no record
    /// reads).
    pub fn total_vectors(&self) -> usize {
        self.total_vectors
    }

    /// The container file this deployment reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Cache counters (hits, misses, evictions, resident bytes).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Bytes held resident: the header (centroids + bucket table) plus
    /// whatever the cache currently holds.
    pub fn resident_bytes(&self) -> u64 {
        self.header_bytes + self.cache.resident_bytes()
    }

    /// Loads one bucket record into a [`SearchBlock`] with the record
    /// codec the resident reader uses, so results stay bit-identical to
    /// the resident deployment. On unix each record section — ids,
    /// stats, tiles — is `pread` straight into its final buffer
    /// ([`FileAt`] is a direct source): the kernel's copy out of the
    /// page cache is the only copy a miss pays. Elsewhere a private
    /// handle is positioned at the record, since a shared cursor would
    /// race between concurrent misses.
    fn load_bucket(&self, bucket: u32) -> io::Result<SearchBlock> {
        let e = self.header.buckets[bucket as usize];
        #[cfg(unix)]
        let mut src = pdx_core::codec::FileAt::new(&self.file, e.offset, e.byte_len);
        #[cfg(not(unix))]
        let mut src = {
            use std::io::{Seek, SeekFrom};
            let mut f = std::fs::File::open(&self.path)?;
            f.seek(SeekFrom::Start(e.offset))?;
            pdx_core::codec::Stream::with_len(f, e.byte_len)
        };
        read_f32_bucket(&mut src, &self.header, bucket as usize)
    }

    /// Fetches one bucket through the cache, pinning it via `Arc`.
    ///
    /// # Panics
    /// Panics (with the container path) if the record can no longer be
    /// read — the open-time validation checked every table entry
    /// against the file length, so a failure here means the file was
    /// truncated or replaced underneath a live deployment, which no
    /// search result could be trusted over anyway.
    pub fn fetch(&self, bucket: u32) -> Arc<SearchBlock> {
        let e = self.header.buckets[bucket as usize];
        self.cache
            .get_or_load(&bucket, || Ok((self.load_bucket(bucket)?, e.byte_len)))
            .unwrap_or_else(|err| {
                panic!(
                    "{}: bucket {bucket} unreadable mid-search: {err}",
                    self.path.display()
                )
            })
    }
}

impl Deployment for LazyIvf {
    type Block = SearchBlock;

    fn n_blocks(&self) -> usize {
        self.header.buckets.len()
    }

    fn centroids(&self) -> Option<&SearchBlock> {
        Some(&self.centroids)
    }

    /// The cache's `Arc`: the scan streams its pins, so it holds each
    /// bucket exactly as long as it scans it, and an eviction cannot
    /// invalidate it.
    fn pin(&self, block: u32) -> impl Deref<Target = SearchBlock> {
        self.fetch(block)
    }

    /// Runs `scan` while up to four background workers load the
    /// not-yet-resident buckets of `order` into the cache, nearest
    /// first. The scan fetches each bucket itself: already-prefetched
    /// buckets hit, and a bucket mid-load blocks on its shard lock just
    /// until the loading worker inserts it. The cache loads under its
    /// shard lock, so misses overlap with each other and with the scan's
    /// hits only when they fall in different shards; under a one-shard
    /// budget (below 64 MiB) the workers' loads are serialized, and the
    /// prefetch only moves them off the scan's thread. Purely a
    /// scheduling change: the scan's fetch order, and therefore the
    /// result, is untouched.
    fn with_prefetch<R>(&self, order: &[u32], scan: impl FnOnce() -> R) -> R {
        // Prefetch threads only pay off when a spare core can run them;
        // on a single CPU (as counted at open) they would just
        // time-slice the scan. One miss is cheapest loaded inline; zero
        // needs no workers.
        if self.cpus < 2 {
            return scan();
        }
        let missing: Vec<u32> = order
            .iter()
            .copied()
            .filter(|&b| {
                self.cache.admits(self.header.buckets[b as usize].byte_len)
                    && !self.cache.contains(&b)
            })
            .collect();
        if missing.len() < 2 {
            return scan();
        }
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..PREFETCH_WIDTH.min(missing.len()) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= missing.len() {
                        break;
                    }
                    self.fetch(missing[i]);
                });
            }
            scan()
        })
    }
}

/// Mirrors the resident `IvfPdx` implementation bucket for bucket; only
/// the block source differs (cache fetch vs `Vec` index), so answers are
/// bit-identical to the resident load of the same container at any
/// cache budget and thread count. Traced queries carry the cache
/// hit/miss delta around the scan.
impl VectorIndex for LazyIvf {
    fn dims(&self) -> usize {
        self.header.dims
    }

    fn len(&self) -> usize {
        self.total_vectors
    }

    fn kind(&self) -> &'static str {
        "ivf-pdx-lazy"
    }

    crate::engine::searches_through_serve!(|_this, opts| opts.bond());

    fn resident_bytes(&self) -> u64 {
        LazyIvf::resident_bytes(self)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(LazyIvf::cache_stats(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::{IvfIndex, IvfPdx};
    use pdx_core::bond::PdxBond;
    use pdx_core::distance::Metric;
    use pdx_core::visit_order::VisitOrder;
    use pdx_datasets::persist::write_ivf_pdx_path;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.random::<f32>() * 10.0).collect()
    }

    fn build_container(n: usize, d: usize, seed: u64, path: &Path) -> IvfPdx {
        let rows = random_rows(n, d, seed);
        let index = IvfIndex::build(&rows, n, d, 12, 8, seed);
        let ivf = IvfPdx::new(&rows, d, &index.assignments, 16);
        write_ivf_pdx_path(path, d, &ivf.centroids.pdx.to_rows(), &ivf.blocks).unwrap();
        ivf
    }

    #[test]
    fn lazy_matches_resident_bit_for_bit() {
        let dir = std::env::temp_dir().join("pdx_lazy_bitident");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.pdx");
        let resident = build_container(500, 8, 7, &path);
        // A budget far below the container size forces eviction churn.
        let lazy = LazyIvf::open(&path, 4 << 10).unwrap();
        assert_eq!(lazy.total_vectors(), 500);
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let opts = SearchOptions::new(9).with_nprobe(4);
        let queries: Vec<f32> = (0..12).flat_map(|qi| random_rows(1, 8, 100 + qi)).collect();
        let mut want = Vec::new();
        for (qi, q) in queries.chunks_exact(8).enumerate() {
            want.push(resident.search_with(&bond, q, &opts));
            let got = lazy.search_with(&bond, q, &opts);
            assert_eq!(want[qi], got, "query {qi}: ids or distance bits differ");
        }
        for threads in [1usize, 2, 8] {
            let batch = lazy.search_batch_with(&bond, &queries, &opts.with_threads(threads));
            assert_eq!(want, batch, "batch at {threads} threads");
        }
        let stats = lazy.cache_stats();
        assert!(stats.misses > 0, "tiny budget must miss");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_one_cpu_open_loads_misses_inline() {
        let dir = std::env::temp_dir().join("pdx_lazy_one_cpu");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.pdx");
        let resident = build_container(500, 8, 7, &path);
        let mut lazy = LazyIvf::open(&path, 4 << 10).unwrap();
        lazy.cpus = 1;
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let opts = SearchOptions::new(9).with_nprobe(4);
        for qi in 0..12 {
            let q = random_rows(1, 8, 100 + qi);
            assert_eq!(
                resident.search_with(&bond, &q, &opts),
                lazy.search_with(&bond, &q, &opts)
            );
        }
        // Every fetch was the scan's own: no prefetch ran beside it.
        let s = lazy.cache_stats();
        assert_eq!(s.hits + s.misses, 12 * 4);
        assert!(s.misses > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trait_surface_reports_cache_and_residency() {
        let dir = std::env::temp_dir().join("pdx_lazy_trait");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.pdx");
        let resident = build_container(300, 6, 3, &path);
        let lazy = LazyIvf::open(&path, 64 << 20).unwrap();
        let dyn_lazy: &dyn VectorIndex = &lazy;
        let dyn_resident: &dyn VectorIndex = &resident;
        assert_eq!(dyn_lazy.kind(), "ivf-pdx-lazy");
        assert_eq!(dyn_lazy.len(), 300);
        let header_only = dyn_lazy.resident_bytes();
        assert!(header_only > 0);
        let q = random_rows(1, 6, 5);
        let opts = SearchOptions::new(5);
        assert_eq!(dyn_lazy.search(&q, &opts), dyn_resident.search(&q, &opts));
        assert!(
            dyn_lazy.resident_bytes() > header_only,
            "probed buckets should now be cached"
        );
        let stats = dyn_lazy.cache_stats().unwrap();
        assert!(stats.misses > 0);
        assert_eq!(dyn_resident.cache_stats(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_container_is_refused_with_guidance() {
        let dir = std::env::temp_dir().join("pdx_lazy_legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.pdx");
        let rows = random_rows(80, 5, 1);
        let coll = pdx_core::collection::PdxCollection::from_rows_partitioned(&rows, 80, 5, 40, 16);
        pdx_datasets::persist::write_pdx_path(&path, &coll).unwrap();
        let err = LazyIvf::open(&path, 1 << 20).unwrap_err();
        assert!(err.to_string().contains("bucket table"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
