#![warn(missing_docs)]

//! # pdx-engine — the dynamic serving layer
//!
//! Thin layer on top of [`pdx_core::engine`]: it turns *persisted* or
//! *pruner-paired* deployments into `Box<dyn VectorIndex>` trait
//! objects, so everything above it (the CLI, benchmark harnesses,
//! network/sharding layers) programs against one surface and never
//! branches on the container or deployment kind.
//!
//! * [`Opened::open`] — the one place that decides what a path names: a
//!   frozen container, a collection or a sharded collection. The
//!   server's `Backend` and the CLI match on the enum it returns.
//! * [`AnyIndex`] — the same open, boxed as a `Box<dyn VectorIndex>`.
//! * [`Pruned`] ([`PrunedFlat`] / [`PrunedIvf`]) — pairs a deployment
//!   with a *fitted* pruner (ADSampling's rotation, BSA's PCA — state
//!   that cannot be chosen from plain options) and serves it through the
//!   same trait.
//!
//! ```no_run
//! use pdx_engine::AnyIndex;
//! use pdx_core::engine::SearchOptions;
//!
//! let index = AnyIndex::open("index.pdx")?; // PDX1 or PDX2, sniffed
//! let hits = index.search(&vec![0.0; index.dims()], &SearchOptions::new(10));
//! assert_eq!(hits.len(), 10);
//! # Ok::<(), std::io::Error>(())
//! ```

use pdx_core::cache::CacheStats;
use pdx_core::collection::{PdxCollection, SearchBlock};
use pdx_core::engine::{SearchOptions, VectorIndex};
use pdx_core::heap::Neighbor;
use pdx_core::pruning::Pruner;
use pdx_core::search::ScanBlock;
use pdx_datasets::persist::{read_container_path, Container};
use pdx_index::ivf::centroid_block;
use pdx_index::{Deployment, FlatPdx, FlatSq8, IvfPdx, IvfSq8, LazyIvf};
use pdx_store::{Collection, ShardedCollection};
use pdx_store::{MANIFEST_FILE, MANIFEST_MAGIC, SHARDS_FILE};
use std::io;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// Deployment-independent open knobs for [`AnyIndex::open_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenOptions {
    /// Block-cache budget for out-of-core deployments. `Some(bytes)`
    /// opens an IVF-extended `f32` container lazily ([`LazyIvf`])
    /// instead of resident; `None` defers to the `PDX_CACHE_BYTES`
    /// environment variable
    /// ([`pdx_core::cache::resolve_cache_bytes`]), and stays fully
    /// resident when that is unset too. Containers without a bucket
    /// table (legacy 1.0) ignore the budget.
    pub cache_bytes: Option<u64>,
}

impl OpenOptions {
    /// Sets an explicit cache budget (overrides the environment).
    #[must_use]
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }
}

/// What a path names, opened: the answer of [`Opened::open`], which
/// [`AnyIndex`], the server's `Backend` and the CLI all read. Derefs to
/// the [`VectorIndex`] every variant serves.
pub enum Opened {
    /// A read-only `PDX1` / `PDX2` container, resident or lazy.
    Frozen(Box<dyn VectorIndex>),
    /// A mutable `PDX3` collection.
    Collection(Arc<Collection>),
    /// A sharded collection.
    Sharded(Arc<ShardedCollection>),
}

impl Opened {
    /// Opens `path` as what it names:
    ///
    /// * a directory holding [`SHARDS_FILE`] is a [`ShardedCollection`],
    ///   one holding [`MANIFEST_FILE`] a [`Collection`];
    /// * a file is what its magic says: `PDX1` a [`FlatPdx`] — or, with
    ///   the 1.1 bucket table, an [`IvfPdx`], or a [`LazyIvf`] when a
    ///   cache budget applies ([`OpenOptions::cache_bytes`]); `PDX2` a
    ///   [`FlatSq8`] / [`IvfSq8`] (scan-only without a rerank payload);
    ///   `PDX3` the [`Collection`] it describes, accepted only when the
    ///   file is named [`MANIFEST_FILE`].
    ///
    /// # Errors
    /// Every error names `path` once: the layer that opened a file
    /// names it, so a store error names the store file it arose in
    /// (`<path>/MANIFEST`, `<path>/SHARDS`, …) and nothing else prefixes
    /// it. A directory holding neither manifest is
    /// [`io::ErrorKind::NotFound`]; an unknown magic reports the four
    /// bytes read; IO, container-format and store errors are propagated.
    pub fn open(path: impl AsRef<Path>, opts: OpenOptions) -> io::Result<Self> {
        let path = path.as_ref();
        let fail = |kind, msg: String| io::Error::new(kind, format!("{}: {msg}", path.display()));
        let named = |e: io::Error| fail(e.kind(), e.to_string());
        let dir = if path.is_dir() {
            if path.join(SHARDS_FILE).is_file() {
                let sharded = ShardedCollection::open(path).map_err(io::Error::from)?;
                return Ok(Self::Sharded(Arc::new(sharded)));
            }
            if !path.join(MANIFEST_FILE).exists() {
                let msg = format!(
                    "names no index (a directory must hold {MANIFEST_FILE} for a collection \
                     or {SHARDS_FILE} for a sharded collection)"
                );
                return Err(fail(io::ErrorKind::NotFound, msg));
            }
            path
        } else {
            let mut magic = [0u8; 4];
            std::fs::File::open(path)
                .and_then(|mut f| io::Read::read_exact(&mut f, &mut magic))
                .map_err(named)?;
            if &magic != MANIFEST_MAGIC {
                // An IVF-extended f32 container with a cache budget
                // serves lazily: O(header) open, buckets fetched on
                // demand. A legacy 1.0 container has no bucket table to
                // seek by and falls through to the resident reader.
                let budget = pdx_core::cache::resolve_cache_bytes(opts.cache_bytes);
                if let (Some(budget), b"PDX1") = (budget, &magic) {
                    if let Ok(lazy) = LazyIvf::open(path, budget) {
                        return Ok(Self::Frozen(Box::new(lazy)));
                    }
                }
                return Ok(Self::Frozen(deployment(read_container_path(path)?)));
            }
            if path.file_name() != Some(MANIFEST_FILE.as_ref()) {
                let msg = format!(
                    "a PDX3 manifest must be named {MANIFEST_FILE} inside its collection \
                     directory"
                );
                return Err(fail(io::ErrorKind::InvalidData, msg));
            }
            path.parent().unwrap_or_else(|| Path::new("."))
        };
        let coll = Collection::open(dir).map_err(io::Error::from)?;
        Ok(Self::Collection(Arc::new(coll)))
    }
}

impl Deref for Opened {
    type Target = dyn VectorIndex;

    fn deref(&self) -> &Self::Target {
        match self {
            Self::Frozen(index) => index.as_ref(),
            Self::Collection(coll) => coll.as_ref(),
            Self::Sharded(coll) => coll.as_ref(),
        }
    }
}

/// Opens any persisted PDX index — whatever [`Opened::open`] finds at
/// the path — as one boxed [`VectorIndex`].
pub struct AnyIndex;

impl AnyIndex {
    /// Opens a container file, manifest file or collection directory.
    /// Equivalent to [`AnyIndex::open_with`] with default options: the
    /// cache budget (and therefore lazy opening) is still picked up
    /// from `PDX_CACHE_BYTES` when set.
    ///
    /// # Errors
    /// Those of [`Opened::open`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<Box<dyn VectorIndex>> {
        Self::open_with(path, OpenOptions::default())
    }

    /// [`AnyIndex::open`] with explicit [`OpenOptions`].
    ///
    /// # Errors
    /// Those of [`Opened::open`].
    pub fn open_with(
        path: impl AsRef<Path>,
        opts: OpenOptions,
    ) -> io::Result<Box<dyn VectorIndex>> {
        Ok(match Opened::open(path, opts)? {
            Opened::Frozen(index) => index,
            // A collection fresh from `open` has no other owner.
            Opened::Collection(coll) => Box::new(Arc::into_inner(coll).expect("one owner")),
            Opened::Sharded(coll) => Box::new(Arc::into_inner(coll).expect("one owner")),
        })
    }
}

/// Wraps an already-loaded container in its deployment.
fn deployment(container: Container) -> Box<dyn VectorIndex> {
    // The centroid block is rebuilt with the call the lazy reader
    // uses, so resident and lazy deployments probe identically.
    match container {
        Container::F32(c) => match c.centroid_rows {
            None => Box::new(FlatPdx::from_collection(PdxCollection {
                dims: c.dims,
                blocks: c.blocks,
            })),
            Some(rows) => Box::new(IvfPdx {
                dims: c.dims,
                centroids: centroid_block(&rows, c.dims, c.group),
                blocks: c.blocks,
            }),
        },
        Container::Sq8(c) => match c.centroid_rows {
            None => Box::new(FlatSq8::from_parts(c.dims, c.quantizer, c.blocks, c.rows)),
            Some(rows) => Box::new(IvfSq8 {
                dims: c.dims,
                quantizer: c.quantizer,
                centroids: centroid_block(&rows, c.dims, c.group),
                blocks: c.blocks,
                rows: c.rows,
            }),
        },
    }
}

/// Deployment-prefixed `kind()` for the pruned adapters, so a
/// `PrunedFlat<AdSampling>` ("pruned-flat-adsampling") is
/// distinguishable from a `PrunedIvf<AdSampling>`
/// ("pruned-ivf-adsampling") in logs and reports, matching the other
/// deployments' "flat-pdx"/"ivf-pdx" convention. `kind()` returns
/// `&'static str`, hence the name table instead of concatenation.
fn pruned_kind(flat: bool, pruner: &str) -> &'static str {
    match (flat, pruner) {
        (true, "bond") => "pruned-flat-bond",
        (true, "adsampling") => "pruned-flat-adsampling",
        (true, "bsa") => "pruned-flat-bsa",
        (true, "bsa-learned") => "pruned-flat-bsa-learned",
        (true, _) => "pruned-flat",
        (false, "bond") => "pruned-ivf-bond",
        (false, "adsampling") => "pruned-ivf-adsampling",
        (false, "bsa") => "pruned-ivf-bsa",
        (false, "bsa-learned") => "pruned-ivf-bsa-learned",
        (false, _) => "pruned-ivf",
    }
}

/// A deployment paired with a fitted pruner, served through
/// [`VectorIndex`].
///
/// [`PrunerKind`](pdx_core::engine::PrunerKind) covers the strategies
/// that need no per-collection state (BOND, linear). Pruners with
/// trained state — ADSampling's random rotation, BSA's PCA — transform
/// the collection at build time; this adapter owns that pairing, so an
/// ADS- or BSA-pruned deployment is *also* a `Box<dyn VectorIndex>`.
/// The wrapped deployment must already be stored in the pruner's space
/// (i.e. built from `transform_collection` output); the adapter ignores
/// [`SearchOptions::pruner`] and `metric` — the fitted pruner defines
/// both. [`SearchOptions::nprobe`] applies as usual (`0` = all buckets).
///
/// The adapter is itself a [`Deployment`]: the wrapped one's block
/// source under its own `kind()`, so every query runs the same serve
/// driver as the plain deployments, with the fitted pruner where those
/// build a PDX-BOND. `search_batch` returns the bits of `search` at any
/// width, for ADSampling and BSA too — it prepares queries a band at a
/// time
/// ([`Pruner::prepare_queries`]: for BSA one tiled PCA rotation instead
/// of one matrix pass per query; ADSampling's structured rotation has no
/// matrix and rotates row by row), which changes no query's prepared
/// bits, and a flat adapter's band then shares one tile-major scan in
/// which every query still meets the tiles in its own order.
/// Traced queries publish under the adapter's `kind()` (the rotation is
/// their `preprocess` phase).
#[derive(Debug, Clone)]
pub struct Pruned<D, P> {
    /// The deployment, stored in the pruner's space.
    pub index: D,
    /// The fitted pruner.
    pub pruner: P,
}

/// A flat deployment paired with a fitted pruner (see [`Pruned`]).
pub type PrunedFlat<P> = Pruned<FlatPdx, P>;

/// An IVF-PDX deployment paired with a fitted pruner (see [`Pruned`]).
pub type PrunedIvf<P> = Pruned<IvfPdx, P>;

impl<D, P> Pruned<D, P> {
    /// Pairs a deployment with its fitted pruner.
    pub fn new(index: D, pruner: P) -> Self {
        Self { index, pruner }
    }
}

impl<D, P> Deployment for Pruned<D, P>
where
    D: Deployment,
    P: Pruner + Send + Sync,
    D::Block: ScanBlock<P>,
{
    type Block = D::Block;

    fn n_blocks(&self) -> usize {
        self.index.n_blocks()
    }

    fn centroids(&self) -> Option<&SearchBlock> {
        self.index.centroids()
    }

    fn pin(&self, block: u32) -> impl Deref<Target = D::Block> {
        self.index.pin(block)
    }

    fn with_prefetch<R>(&self, order: &[u32], scan: impl FnOnce() -> R) -> R {
        self.index.with_prefetch(order, scan)
    }

    fn rerank_rows(&self) -> Option<&[f32]> {
        self.index.rerank_rows()
    }
}

impl<D, P> VectorIndex for Pruned<D, P>
where
    D: Deployment,
    P: Pruner + Send + Sync,
    D::Block: ScanBlock<P>,
{
    fn dims(&self) -> usize {
        self.index.dims()
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn kind(&self) -> &'static str {
        pruned_kind(self.index.centroids().is_none(), self.pruner.name())
    }

    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        self.search_with(&self.pruner, query, opts)
    }

    fn search_batch(&self, queries: &[f32], opts: &SearchOptions) -> Vec<Vec<Neighbor>> {
        self.search_batch_with(&self.pruner, queries, opts)
    }

    fn resident_bytes(&self) -> u64 {
        self.index.resident_bytes()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.index.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdx_core::engine::PrunerKind;
    use pdx_datasets::persist::{write_pdx_path, write_sq8_path};
    use pdx_index::IvfIndex;
    use pdx_pruners::AdSampling;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.random::<f32>() * 10.0).collect()
    }

    #[test]
    fn open_round_trips_both_container_kinds() {
        let (n, d, k) = (300, 8, 5);
        let rows = random_rows(n, d, 1);
        let q = random_rows(1, d, 2);
        let dir = std::env::temp_dir().join("pdx_engine_open_test");
        std::fs::create_dir_all(&dir).unwrap();
        let opts = SearchOptions::new(k);

        let flat = FlatPdx::new(&rows, n, d, 100, 16);
        let f32_path = dir.join("f32.pdx");
        write_pdx_path(&f32_path, &flat.collection).unwrap();
        let opened = AnyIndex::open(&f32_path).unwrap();
        assert_eq!(opened.kind(), "flat-pdx");
        assert_eq!(opened.dims(), d);
        assert_eq!(opened.len(), n);
        let direct: &dyn VectorIndex = &flat;
        assert_eq!(opened.search(&q, &opts), direct.search(&q, &opts));

        let sq8 = FlatSq8::build(&rows, n, d, 100, 16);
        let sq8_path = dir.join("sq8.pdx2");
        write_sq8_path(&sq8_path, &sq8.quantizer, &sq8.blocks, Some(&sq8.rows)).unwrap();
        let opened = AnyIndex::open(&sq8_path).unwrap();
        assert_eq!(opened.kind(), "flat-sq8");
        let direct: &dyn VectorIndex = &sq8;
        assert_eq!(opened.search(&q, &opts), direct.search(&q, &opts));

        // Scan-only containers open as estimate-only deployments.
        let scan_path = dir.join("scan.pdx2");
        write_sq8_path(&scan_path, &sq8.quantizer, &sq8.blocks, None).unwrap();
        let opened = AnyIndex::open(&scan_path).unwrap();
        assert_eq!(opened.kind(), "flat-sq8-scan-only");
        assert_eq!(opened.search(&q, &opts).len(), k);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_error_names_path_and_magic_bytes() {
        let dir = std::env::temp_dir().join("pdx_engine_badmagic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not_an_index.bin");
        std::fs::write(&path, b"XXXXjunk").unwrap();
        let Err(err) = AnyIndex::open(&path) else {
            panic!("unknown magic unexpectedly opened")
        };
        let msg = err.to_string();
        assert!(msg.contains("not_an_index.bin"), "{msg}");
        assert!(msg.contains("XXXX"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_serves_collection_directories_and_manifests() {
        use pdx_store::{Collection, StoreConfig};
        let dir = std::env::temp_dir().join("pdx_engine_collection_test");
        std::fs::remove_dir_all(&dir).ok();
        let (n, d, k) = (120, 6, 4);
        let rows = random_rows(n, d, 21);
        let coll = Collection::create(
            &dir,
            d,
            StoreConfig {
                block_size: 32,
                group_size: 8,
                buffer_capacity: 50,
                quantize: false,
            },
        )
        .unwrap();
        for i in 0..n {
            coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
        }
        coll.delete(3).unwrap();
        let q = random_rows(1, d, 22);
        let opts = SearchOptions::new(k);
        let want = {
            let direct: &dyn VectorIndex = &coll;
            direct.search(&q, &opts)
        };
        drop(coll);

        // The directory and its MANIFEST file open identically.
        for target in [dir.clone(), dir.join("MANIFEST")] {
            let opened = AnyIndex::open(&target).unwrap();
            assert_eq!(opened.kind(), "collection");
            assert_eq!(opened.len(), n - 1);
            assert_eq!(opened.search(&q, &opts), want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruned_adapters_serve_fitted_pruners() {
        let (n, d, k) = (400, 12, 6);
        let rows = random_rows(n, d, 5);
        let q = random_rows(1, d, 6);
        let ads = AdSampling::fit(d, 3);
        let rotated = ads.transform_collection(&rows, n, 1);

        let flat = FlatPdx::new(&rotated, n, d, 128, 16);
        let linear = SearchOptions::new(k).with_pruner(PrunerKind::Linear);
        let exact = VectorIndex::search(&flat, &ads.transform_vector(&q), &linear);
        let served: Box<dyn VectorIndex> = Box::new(PrunedFlat::new(flat, ads.clone()));
        assert_eq!(served.kind(), "pruned-flat-adsampling");
        let opts = SearchOptions::new(k);
        let got = served.search(&q, &opts);
        // ADSampling at full depth over one flat deployment is near-exact;
        // its top-1 must match the exact scan in rotated space.
        assert_eq!(got[0].id, exact[0].id);
        // Batch default is bit-identical to the sequential loop.
        let queries = random_rows(3, d, 7);
        let batch = served.search_batch(&queries, &opts.with_threads(2));
        for (qi, got) in batch.iter().enumerate() {
            assert_eq!(got, &served.search(&queries[qi * d..(qi + 1) * d], &opts));
        }

        let index = IvfIndex::build(&rows, n, d, 8, 6, 2);
        let ads = AdSampling::fit(d, 3);
        let ivf = IvfPdx::new(&rotated, d, &index.assignments, 16);
        let served: Box<dyn VectorIndex> = Box::new(PrunedIvf::new(ivf, ads));
        assert_eq!(served.kind(), "pruned-ivf-adsampling");
        let got = served.search(&q, &opts); // nprobe = 0 → all buckets
        assert_eq!(got[0].id, exact[0].id);
        assert_eq!(served.len(), n);

        // k = 0 asks both adapters for nothing, alone or in a batch.
        let flat = PrunedFlat::new(FlatPdx::new(&rotated, n, d, 128, 16), AdSampling::fit(d, 3));
        let none = SearchOptions::new(0);
        for served in [&flat as &dyn VectorIndex, &*served] {
            assert_eq!(served.search(&q, &none), vec![], "{}", served.kind());
            let empty = vec![Vec::<Neighbor>::new(); 3];
            assert_eq!(
                served.search_batch(&queries, &none),
                empty,
                "{}",
                served.kind()
            );
        }
    }

    #[test]
    fn options_pruner_kind_is_ignored_by_adapters() {
        // The fitted pruner wins: Bond/Linear selection has no effect.
        let (n, d) = (200, 8);
        let rows = random_rows(n, d, 9);
        let q = random_rows(1, d, 10);
        let ads = AdSampling::fit(d, 4);
        let rotated = ads.transform_collection(&rows, n, 1);
        let served = PrunedFlat::new(FlatPdx::new(&rotated, n, d, 64, 16), ads);
        let dyn_served: &dyn VectorIndex = &served;
        let a = dyn_served.search(&q, &SearchOptions::new(4));
        let b = dyn_served.search(&q, &SearchOptions::new(4).with_pruner(PrunerKind::Linear));
        assert_eq!(a, b);
    }
}
