//! Sharded collections: N independent [`Collection`] shards behind one
//! directory, for corpora whose write path or resident set outgrows a
//! single collection.
//!
//! A sharded collection is a parent directory holding a tiny `SHARDS`
//! manifest (magic `PDX4`) and `shard-000` … `shard-NNN` subdirectories,
//! each a complete, independently recoverable [`Collection`] (own
//! manifest, WAL, segments). External ids route to shards by a fixed
//! FNV-1a hash, so the mapping is stable across restarts and
//! independent of insertion order.
//!
//! Reads are merged, not partitioned: a query runs against every shard
//! and the per-shard top-k lists merge canonically by `(distance, id)`
//! — the same merge a collection's snapshot uses across its segments —
//! so [`ShardedCollection::search`] returns, under the row-pure
//! `Sequential` visit order, the bits of an equivalent single-shard
//! build holding the same rows; a batch returns the bits of `search` at
//! any thread count.

use crate::manifest::replace_atomic;
use crate::{Collection, StoreConfig, StoreError};
use pdx_core::codec::{invalid, put_u32, ByteReader, Source};
use pdx_core::engine::{SearchOptions, VectorIndex};
use pdx_core::exec::merge_neighbors;
use pdx_core::heap::Neighbor;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the sharding manifest inside the parent directory.
pub const SHARDS_FILE: &str = "SHARDS";

/// Magic number of the sharding manifest.
pub const SHARDS_MAGIC: &[u8; 4] = b"PDX4";

const SHARDS_VERSION: u32 = 1;

/// A fixed id → shard hash (FNV-1a over the id's little-endian bytes).
/// Stable across platforms and releases: the manifest stores only the
/// shard count, so the routing function must never change.
fn shard_of_id(id: u64, n_shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % n_shards as u64) as usize
}

/// N independent collection shards behind one directory and one
/// [`VectorIndex`] surface.
#[derive(Debug)]
pub struct ShardedCollection {
    dir: PathBuf,
    dims: usize,
    shards: Vec<Collection>,
}

impl ShardedCollection {
    fn shard_dir(dir: &Path, i: usize) -> PathBuf {
        dir.join(format!("shard-{i:03}"))
    }

    /// Creates a sharded collection of `n_shards` shards, each an empty
    /// [`Collection`] with the given config.
    ///
    /// # Errors
    /// Fails if the directory already holds a sharding manifest, if
    /// `n_shards` is zero, or on any underlying store/IO error.
    pub fn create(
        dir: impl AsRef<Path>,
        dims: usize,
        n_shards: usize,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        if n_shards == 0 {
            return Err(StoreError::Corrupt(
                "a sharded collection needs at least one shard".into(),
            ));
        }
        std::fs::create_dir_all(dir)?;
        let manifest = dir.join(SHARDS_FILE);
        if manifest.exists() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{}: sharded collection already exists", dir.display()),
            )));
        }
        let mut shards = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            shards.push(Collection::create(Self::shard_dir(dir, i), dims, config)?);
        }
        // Written last and atomically: a crash mid-create leaves shard
        // directories but no manifest, and `create` can be retried
        // only after cleanup — `open` never sees a half-built parent.
        let mut bytes = SHARDS_MAGIC.to_vec();
        for word in [SHARDS_VERSION, n_shards as u32, dims as u32] {
            put_u32(&mut bytes, word);
        }
        replace_atomic(&manifest, &bytes)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            dims,
            shards,
        })
    }

    /// Opens a sharded collection: reads the `SHARDS` manifest and
    /// opens every shard (each with its own WAL replay and recovery).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] if the manifest is malformed or a shard
    /// disagrees with it; shard-level errors are propagated.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let path = dir.join(SHARDS_FILE);
        let (n_shards, dims) = Self::decode(&crate::read_file(&path)?)
            .map_err(|e| StoreError::Corrupt(e.to_string()).at(&path))?;
        // Grows by one per shard actually opened: the manifest's count
        // is untrusted and sizes nothing.
        let mut shards = Vec::new();
        for i in 0..n_shards {
            let shard = Collection::open(Self::shard_dir(dir, i))?;
            if shard.dims() != dims {
                let msg = format!("shard {i} has {} dims, manifest says {dims}", shard.dims());
                return Err(StoreError::Corrupt(msg).at(&path));
            }
            shards.push(shard);
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            dims,
            shards,
        })
    }

    /// The `SHARDS` manifest's shard count and dims: magic, version and
    /// those two words, with nothing after them.
    fn decode(bytes: &[u8]) -> io::Result<(usize, usize)> {
        let mut r = ByteReader::new(bytes);
        r.header(SHARDS_MAGIC, SHARDS_VERSION, "SHARDS manifest")?;
        let (n_shards, dims) = (r.u32("shard count")?, r.u32("dims")?);
        r.finish()?;
        if n_shards == 0 || dims == 0 {
            return Err(invalid("SHARDS manifest with zero shards or dims"));
        }
        Ok((n_shards as usize, dims as usize))
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The parent directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shards, in routing order.
    pub fn shards(&self) -> &[Collection] {
        &self.shards
    }

    /// Which shard owns `id`.
    pub fn shard_of(&self, id: u64) -> usize {
        shard_of_id(id, self.shards.len())
    }

    /// Live vectors across all shards.
    pub fn live_len(&self) -> usize {
        self.shards.iter().map(Collection::live_len).sum()
    }

    /// Inserts a vector under an external id (routed by id hash).
    ///
    /// # Errors
    /// Same contract as [`Collection::insert`].
    pub fn insert(&self, id: u64, vector: &[f32]) -> Result<(), StoreError> {
        self.shards[self.shard_of(id)].insert(id, vector)
    }

    /// Deletes an external id (routed by id hash).
    ///
    /// # Errors
    /// Same contract as [`Collection::delete`].
    pub fn delete(&self, id: u64) -> Result<(), StoreError> {
        self.shards[self.shard_of(id)].delete(id)
    }

    /// Whether any shard holds `id` live.
    pub fn contains(&self, id: u64) -> bool {
        self.shards[self.shard_of(id)].contains(id)
    }

    /// Durably syncs every shard's WAL.
    ///
    /// # Errors
    /// Propagates the first shard failure.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.shards.iter().try_for_each(Collection::sync)
    }

    /// Seals every shard's write buffer into immutable segments.
    ///
    /// # Errors
    /// Propagates the first shard failure.
    pub fn seal(&self) -> Result<(), StoreError> {
        self.shards.iter().try_for_each(Collection::seal)
    }

    /// Compacts every shard (purging tombstones, merging segments).
    ///
    /// # Errors
    /// Propagates the first shard failure.
    pub fn compact(&self) -> Result<(), StoreError> {
        self.shards.iter().try_for_each(Collection::compact)
    }
}

impl VectorIndex for ShardedCollection {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.live_len()
    }

    fn kind(&self) -> &'static str {
        "sharded-collection"
    }

    /// Searches every shard sequentially and merges the per-shard
    /// top-k lists canonically by `(distance, id)`.
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        let lists: Vec<Vec<Neighbor>> = self
            .shards
            .iter()
            .map(|s| VectorIndex::search(s, query, opts))
            .collect();
        merge_neighbors(&lists, opts.k)
    }

    fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(VectorIndex::resident_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdx_core::engine::PrunerKind;
    use pdx_core::visit_order::VisitOrder;

    fn small_config() -> StoreConfig {
        StoreConfig {
            block_size: 16,
            group_size: 8,
            buffer_capacity: 32,
            quantize: false,
        }
    }

    fn rows(n: usize, d: usize) -> Vec<f32> {
        (0..n * d).map(|i| (i as f32 * 0.37).sin() * 5.0).collect()
    }

    #[test]
    fn routing_is_total_and_stable() {
        assert!((0..1000u64).all(|id| shard_of_id(id, 4) < 4));
        // Pin a few values: the routing function must never change.
        assert_eq!(shard_of_id(0, 4), shard_of_id(0, 4));
        let spread: std::collections::HashSet<usize> =
            (0..100u64).map(|id| shard_of_id(id, 4)).collect();
        assert_eq!(spread.len(), 4, "hash must reach every shard");
    }

    #[test]
    fn create_insert_reopen_round_trip() {
        let dir = std::env::temp_dir().join("pdx_sharded_round_trip");
        std::fs::remove_dir_all(&dir).ok();
        let (n, d) = (150, 6);
        let data = rows(n, d);
        let sharded = ShardedCollection::create(&dir, d, 3, small_config()).unwrap();
        for i in 0..n {
            sharded.insert(i as u64, &data[i * d..(i + 1) * d]).unwrap();
        }
        sharded.delete(7).unwrap();
        sharded.sync().unwrap();
        assert_eq!(sharded.live_len(), n - 1);
        assert!(sharded.contains(3));
        assert!(!sharded.contains(7));
        let q: Vec<f32> = (0..d).map(|i| i as f32 * 0.3).collect();
        let opts = SearchOptions::new(5);
        let want = VectorIndex::search(&sharded, &q, &opts);
        drop(sharded);

        assert!(dir.join(SHARDS_FILE).is_file());
        let reopened = ShardedCollection::open(&dir).unwrap();
        assert_eq!(reopened.live_len(), n - 1);
        assert_eq!(VectorIndex::search(&reopened, &q, &opts), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_matches_single_shard_build() {
        let dir = std::env::temp_dir().join("pdx_sharded_vs_single");
        std::fs::remove_dir_all(&dir).ok();
        let (n, d) = (200, 5);
        let data = rows(n, d);
        let sharded = ShardedCollection::create(dir.join("many"), d, 4, small_config()).unwrap();
        let single = Collection::create(dir.join("one"), d, small_config()).unwrap();
        for i in 0..n {
            let row = &data[i * d..(i + 1) * d];
            sharded.insert(i as u64, row).unwrap();
            single.insert(i as u64, row).unwrap();
        }
        sharded.delete(11).unwrap();
        single.delete(11).unwrap();
        let q: Vec<f32> = (0..d).map(|i| (i as f32 * 0.9).cos()).collect();
        // Sequential visit order accumulates dimensions in a fixed
        // 0..dims order, so distances are independent of the block
        // composition — full bit-identity (ids AND distance bits)
        // between the two builds.
        let opts = SearchOptions::new(7).with_pruner(PrunerKind::Bond(VisitOrder::Sequential));
        let want = VectorIndex::search(&single, &q, &opts);
        assert_eq!(VectorIndex::search(&sharded, &q, &opts), want);
        for threads in [1usize, 2, 8] {
            assert_eq!(
                sharded.search_batch(&q, &opts.with_threads(threads)),
                std::slice::from_ref(&want),
                "{threads} threads"
            );
        }
        // Default visit order permutes dimensions per block, so only
        // the id sets are comparable across builds.
        let opts = SearchOptions::new(7);
        let a: Vec<u64> = VectorIndex::search(&sharded, &q, &opts)
            .iter()
            .map(|x| x.id)
            .collect();
        let b: Vec<u64> = VectorIndex::search(&single, &q, &opts)
            .iter()
            .map(|x| x.id)
            .collect();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = std::env::temp_dir().join("pdx_sharded_corrupt");
        std::fs::remove_dir_all(&dir).ok();
        ShardedCollection::create(&dir, 4, 2, small_config()).unwrap();
        assert!(matches!(
            ShardedCollection::create(&dir, 4, 2, small_config()),
            Err(StoreError::Io(_))
        ));
        std::fs::write(dir.join(SHARDS_FILE), b"PDX4junk").unwrap();
        assert!(matches!(
            ShardedCollection::open(&dir),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::write(dir.join(SHARDS_FILE), b"NOPE000000000000").unwrap();
        assert!(matches!(
            ShardedCollection::open(&dir),
            Err(StoreError::Corrupt(_))
        ));
        assert!(ShardedCollection::create(&dir, 4, 0, small_config()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trailing_bytes_after_the_manifest_are_corrupt() {
        let dir = std::env::temp_dir().join("pdx_sharded_trailing");
        std::fs::remove_dir_all(&dir).ok();
        drop(ShardedCollection::create(&dir, 4, 2, small_config()).unwrap());
        let path = dir.join(SHARDS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        match ShardedCollection::open(&dir) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("a trailing byte opened: {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maintenance_fans_out_to_every_shard() {
        let dir = std::env::temp_dir().join("pdx_sharded_maintenance");
        std::fs::remove_dir_all(&dir).ok();
        let (n, d) = (120, 4);
        let data = rows(n, d);
        let sharded = ShardedCollection::create(&dir, d, 3, small_config()).unwrap();
        for i in 0..n {
            sharded.insert(i as u64, &data[i * d..(i + 1) * d]).unwrap();
        }
        sharded.seal().unwrap();
        assert!(sharded.shards().iter().all(|s| s.buffer_len() == 0));
        sharded.delete(5).unwrap();
        sharded.compact().unwrap();
        assert!(!sharded.contains(5));
        assert_eq!(sharded.live_len(), n - 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
