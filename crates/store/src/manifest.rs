//! The versioned `PDX3` manifest: the commit point of a persistent
//! collection.
//!
//! The manifest is the single source of truth for what a collection
//! directory contains: the store configuration, the sealed segments (by
//! sequence number — file names derive from it), the tombstone set of
//! sealed rows, and the current WAL generation. It is replaced
//! **atomically** (write `MANIFEST.tmp`, fsync, rename), so a reader
//! always sees either the old state or the new state, never a mix; a
//! segment file only becomes reachable once the manifest naming it has
//! been renamed into place. One function of this module does that
//! replace, for the `SHARDS` manifest of a sharded collection too.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "PDX3" | version u32
//! dims u32 | block_size u32 | group u32 | buffer_cap u32 | quantize u32
//! wal_seq u64 | next_segment_seq u64
//! n_segments u32 | seq u64 × n_segments
//! n_tombstones u64 | id u64 × n_tombstones
//! ```

use crate::{StoreConfig, StoreError};
use pdx_core::codec::{invalid, put_slice, put_u32, put_u64, read_vec, ByteReader, Source};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The magic number identifying a mutable-collection manifest; what
/// `AnyIndex::open` sniffs to serve a collection directory.
pub const MANIFEST_MAGIC: &[u8; 4] = b"PDX3";
/// The manifest's file name inside a collection directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
const VERSION: u32 = 1;

/// The decoded manifest of a collection directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Dimensionality of the collection.
    pub dims: usize,
    /// The store configuration fixed at creation.
    pub config: StoreConfig,
    /// Current WAL generation: buffered state lives in `wal-<seq>.log`.
    pub wal_seq: u64,
    /// Sequence number the next sealed segment will take.
    pub next_segment_seq: u64,
    /// Sealed segments in storage order, by sequence number.
    pub segments: Vec<u64>,
    /// External ids deleted from sealed segments but not yet compacted
    /// away.
    pub tombstones: Vec<u64>,
}

/// Atomically replaces the file at `path` with `bytes`: they land in
/// `<path>.tmp`, are fsynced, take effect with a rename, and the parent
/// directory is fsynced so the rename itself is durable where the
/// platform allows it. A reader of `path` sees the old bytes or the new
/// ones, never a mix.
pub(crate) fn replace_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Ok(d) = std::fs::File::open(dir.unwrap_or(Path::new("."))) {
        d.sync_all().ok();
    }
    Ok(())
}

/// File name of a WAL generation.
pub fn wal_file(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

/// File name of a sealed segment's container.
pub fn segment_file(seq: u64) -> String {
    format!("seg-{seq:06}.pdx")
}

/// File name of a sealed segment's external-id remap table.
pub fn segment_ids_file(seq: u64) -> String {
    format!("seg-{seq:06}.ids")
}

impl Manifest {
    /// The manifest path inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Serializes the manifest.
    fn encode(&self) -> Vec<u8> {
        let mut out = MANIFEST_MAGIC.to_vec();
        let config = [
            self.dims,
            self.config.block_size,
            self.config.group_size,
            self.config.buffer_capacity,
            usize::from(self.config.quantize),
        ];
        put_u32(&mut out, VERSION);
        put_slice(&mut out, &config.map(|v| v as u32));
        put_u64(&mut out, self.wal_seq);
        put_u64(&mut out, self.next_segment_seq);
        put_u32(&mut out, self.segments.len() as u32);
        put_slice(&mut out, &self.segments);
        put_u64(&mut out, self.tombstones.len() as u64);
        put_slice(&mut out, &self.tombstones);
        out
    }

    /// Parses and validates manifest bytes. Both counts are untrusted:
    /// each is checked against the bytes present before its list is
    /// allocated ([`read_vec`]), and nothing may follow the tombstones.
    fn decode(bytes: &[u8]) -> io::Result<Self> {
        let mut r = ByteReader::new(bytes);
        if &r.array::<4>("manifest magic")? != MANIFEST_MAGIC {
            return Err(invalid("not a PDX3 manifest"));
        }
        let version = r.u32("manifest version")?;
        if version != VERSION {
            return Err(invalid(format!("unsupported manifest version {version}")));
        }
        let mut config = [0usize; 5];
        for field in &mut config {
            *field = r.u32("manifest config")? as usize;
        }
        let [dims, block_size, group_size, buffer_capacity, quantize] = config;
        if dims == 0 || block_size == 0 || group_size == 0 || buffer_capacity == 0 {
            return Err(invalid("zero dims/block/group/buffer in manifest"));
        }
        let wal_seq = r.u64("wal_seq")?;
        let next_segment_seq = r.u64("next_segment_seq")?;
        let n_segments = r.u32("segment count")? as usize;
        let segments = read_vec(&mut r, n_segments, "segment count")?;
        let n_tombstones = usize::try_from(r.u64("tombstone count")?)
            .map_err(|_| invalid("tombstone count overflows"))?;
        let tombstones = read_vec(&mut r, n_tombstones, "tombstone count")?;
        r.finish()?;
        Ok(Self {
            dims,
            config: StoreConfig {
                block_size,
                group_size,
                buffer_capacity,
                quantize: quantize != 0,
            },
            wal_seq,
            next_segment_seq,
            segments,
            tombstones,
        })
    }

    /// Atomically replaces the manifest in `dir`: the bytes land in
    /// `MANIFEST.tmp`, are fsynced, take effect with a rename, and `dir`
    /// is fsynced.
    ///
    /// # Errors
    /// Propagates IO errors.
    pub fn write_atomic(&self, dir: &Path) -> io::Result<()> {
        replace_atomic(&Self::path(dir), &self.encode())
    }

    /// Reads and validates the manifest of `dir`.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on bad magic/version or truncation; IO
    /// errors (including a missing manifest) are propagated.
    pub fn read(dir: &Path) -> Result<Self, StoreError> {
        let path = Self::path(dir);
        Self::decode(&std::fs::read(&path)?)
            .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            dims: 16,
            config: StoreConfig {
                block_size: 256,
                group_size: 32,
                buffer_capacity: 1024,
                quantize: true,
            },
            wal_seq: 7,
            next_segment_seq: 4,
            segments: vec![1, 3],
            tombstones: vec![10, 20, 30],
        }
    }

    #[test]
    fn atomic_round_trip() {
        let dir = std::env::temp_dir().join("pdx_store_manifest_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        m.write_atomic(&dir).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), m);
        // A rewrite replaces it atomically (no .tmp left behind).
        let mut m2 = m.clone();
        m2.wal_seq = 8;
        m2.write_atomic(&dir).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), m2);
        assert!(!dir.join("MANIFEST.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The replaced file holds exactly the new bytes and no `.tmp` is
    /// left behind. What a power cut between the steps leaves is not
    /// tested here: that needs a fault-injecting file system.
    #[test]
    fn replace_atomic_leaves_exactly_the_new_bytes() {
        let dir = std::env::temp_dir().join(format!("pdx_store_replace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("FILE");
        for bytes in [&b"first version"[..], b"2nd", b""] {
            replace_atomic(&path, bytes).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
            assert!(!dir.join("FILE.tmp").exists());
        }
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["FILE"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_and_truncation_are_corrupt() {
        let dir = std::env::temp_dir().join("pdx_store_manifest_bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(Manifest::path(&dir), b"NOPE").unwrap();
        assert!(matches!(Manifest::read(&dir), Err(StoreError::Corrupt(_))));
        let m = sample();
        m.write_atomic(&dir).unwrap();
        let bytes = std::fs::read(Manifest::path(&dir)).unwrap();
        std::fs::write(Manifest::path(&dir), &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(Manifest::read(&dir), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
