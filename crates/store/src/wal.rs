//! The append-only write-ahead log of buffered operations.
//!
//! Every insert/delete that touches the write buffer is appended here
//! **before** it mutates memory, so [`Collection::open`](crate::Collection::open)
//! can rebuild the buffer exactly after a crash. The log is rotated
//! (a fresh generation, named in the manifest) whenever a seal or
//! compaction makes its records redundant. Appends flush to the OS per
//! record ([`Wal::append`]) and reach stable storage at [`Wal::sync`] —
//! process-crash safety is per-record, power-loss safety is per-sync.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header  magic "PDXW" | version u32 | dims u32
//! record  tag u8 (1 = insert, 2 = delete)
//!         id u64
//!         vector dims × f32        (insert records only)
//!         checksum u32             (FNV-1a over tag..payload)
//! ```
//!
//! Replay reads records until the end of the file; a trailing record
//! that is incomplete or fails its checksum — the torn tail a crash
//! mid-append leaves — is truncated away, and every complete record
//! before it is returned. A torn *header* (crash at creation) resets the
//! file to an empty log.

use crate::StoreError;
use pdx_core::codec::{put_slice, read_vec, ByteReader, Source};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"PDXW";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 12;

/// One durable buffered operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Insert `vector` under external id `id`.
    Insert {
        /// External id of the inserted vector.
        id: u64,
        /// The vector values.
        vector: Vec<f32>,
    },
    /// Delete external id `id` (a buffered row or a sealed tombstone).
    Delete {
        /// External id of the deleted vector.
        id: u64,
    },
}

/// FNV-1a, the record checksum (catches a torn tail whose length
/// happens to look complete).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(16_777_619);
    }
    h
}

/// An open write-ahead log, positioned for appends.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    dims: usize,
    /// Bytes appended so far (header included).
    len: u64,
    /// Bytes known to have reached stable storage (grows at `sync`).
    synced_len: u64,
}

impl Wal {
    /// Creates a fresh, empty log (truncating any existing file).
    ///
    /// # Errors
    /// Propagates IO errors.
    pub fn create(path: &Path, dims: usize) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.write_all(&(dims as u32).to_le_bytes())?;
        file.sync_all()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            dims,
            len: HEADER_LEN as u64,
            synced_len: HEADER_LEN as u64,
        })
    }

    /// Opens (or creates) the log at `path`, replaying its complete
    /// records and truncating a torn tail in place. Returns the log —
    /// positioned for appends — and the replayed records in append
    /// order.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on a wrong magic/version/dims header;
    /// IO errors are propagated. Either names `path`. Torn tails are
    /// *not* errors.
    pub fn open(path: &Path, dims: usize) -> Result<(Self, Vec<WalRecord>), StoreError> {
        Self::replay(path, dims).map_err(|e| e.at(path))
    }

    /// [`Wal::open`] with errors that do not name the path.
    fn replay(path: &Path, dims: usize) -> Result<(Self, Vec<WalRecord>), StoreError> {
        if !path.exists() {
            // A crash between the manifest commit (which names this
            // generation) and the new file's creation: the log is
            // logically empty.
            return Ok((Self::create(path, dims)?, Vec::new()));
        }
        let bytes = std::fs::read(path)?;
        if bytes.len() < HEADER_LEN {
            // Torn header: the log never held a committed record.
            return Ok((Self::create(path, dims)?, Vec::new()));
        }
        let mut header = ByteReader::new(&bytes[..HEADER_LEN]);
        header
            .header(MAGIC, VERSION, "write-ahead log")
            .map_err(|e| StoreError::Corrupt(e.to_string()))?;
        let file_dims = header.u32("WAL dims")? as usize;
        if file_dims != dims {
            return Err(StoreError::Corrupt(format!(
                "WAL dims {file_dims} != collection dims {dims}"
            )));
        }
        let (records, valid_end) = parse_records(&bytes, dims);
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if valid_end < bytes.len() as u64 {
            // Torn tail: drop the partial record so future appends start
            // at a clean boundary.
            file.set_len(valid_end)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid_end))?;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                dims,
                len: valid_end,
                synced_len: valid_end,
            },
            records,
        ))
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    /// Propagates IO errors.
    ///
    /// # Panics
    /// Panics if an insert record's vector length disagrees with the
    /// log's dimensionality (the collection validates before logging).
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let t0 = std::time::Instant::now();
        let mut buf = Vec::with_capacity(1 + 8 + self.dims * 4 + 4);
        match record {
            WalRecord::Insert { id, vector } => {
                assert_eq!(vector.len(), self.dims, "insert record dims");
                buf.push(1u8);
                buf.extend_from_slice(&id.to_le_bytes());
                put_slice(&mut buf, vector);
            }
            WalRecord::Delete { id } => {
                buf.push(2u8);
                buf.extend_from_slice(&id.to_le_bytes());
            }
        }
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        self.file.write_all(&buf)?;
        self.file.flush()?;
        self.len += buf.len() as u64;
        crate::obs::wal_metrics()
            .append_us
            .record(t0.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Forces all appended records to stable storage.
    ///
    /// # Errors
    /// Propagates IO errors.
    pub fn sync(&mut self) -> io::Result<()> {
        let t0 = std::time::Instant::now();
        self.file.sync_all()?;
        self.synced_len = self.len;
        crate::obs::wal_metrics()
            .fsync_us
            .record(t0.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Bytes appended so far, header included.
    pub fn appended_len(&self) -> u64 {
        self.len
    }

    /// Bytes guaranteed durable by the log's own `sync` calls: a power
    /// loss may tear anything past this offset, nothing before it.
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Walks `bytes` from the header on, returning the complete records and
/// the offset where the first torn/corrupt record begins.
fn parse_records(bytes: &[u8], dims: usize) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut valid_end = HEADER_LEN;
    while let Some((record, len)) = parse_record(&bytes[valid_end..], dims) {
        records.push(record);
        valid_end += len;
    }
    (records, valid_end as u64)
}

/// Parses the record at the start of `bytes`, returning it with its
/// encoded length. `None` — a short read, an unknown tag, a checksum
/// mismatch — can only be a torn/corrupt tail; nothing after it can be
/// trusted.
fn parse_record(bytes: &[u8], dims: usize) -> Option<(WalRecord, usize)> {
    let mut r = ByteReader::new(bytes);
    let (tag, id) = (r.u8("tag").ok()?, r.u64("id").ok()?);
    let record = match tag {
        1 => WalRecord::Insert {
            id,
            vector: read_vec(&mut r, dims, "vector").ok()?,
        },
        2 => WalRecord::Delete { id },
        _ => return None,
    };
    let body_len = bytes.len() - r.remaining()? as usize;
    let sum = r.u32("checksum").ok()?;
    (sum == fnv1a(&bytes[..body_len])).then_some((record, body_len + 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdx_store_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                id: 3,
                vector: vec![1.0, 2.0],
            },
            WalRecord::Insert {
                id: 9,
                vector: vec![-1.0, 0.5],
            },
            WalRecord::Delete { id: 3 },
        ]
    }

    #[test]
    fn round_trip_replays_in_order() {
        let path = temp_path("round_trip.log");
        let mut wal = Wal::create(&path, 2).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        drop(wal);
        let (_wal, replayed) = Wal::open(&path, 2).unwrap();
        assert_eq!(replayed, sample_records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = temp_path("torn_tail.log");
        let mut wal = Wal::create(&path, 2).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        drop(wal);
        // Tear the last record in half.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);

        let (mut wal, replayed) = Wal::open(&path, 2).unwrap();
        assert_eq!(replayed, sample_records()[..2]);
        // The file is clean again: appends after the torn record replay.
        wal.append(&WalRecord::Delete { id: 9 }).unwrap();
        drop(wal);
        let (_wal, replayed) = Wal::open(&path, 2).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[2], WalRecord::Delete { id: 9 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_cuts_the_tail() {
        let path = temp_path("bad_sum.log");
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(&WalRecord::Insert {
            id: 1,
            vector: vec![1.0],
        })
        .unwrap();
        wal.append(&WalRecord::Delete { id: 1 }).unwrap();
        drop(wal);
        // Flip a byte inside the *last* record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_wal, replayed) = Wal::open(&path, 1).unwrap();
        assert_eq!(replayed.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_header_is_corrupt_but_missing_file_is_empty() {
        let path = temp_path("bad_header.log");
        std::fs::write(&path, b"NOPEnotawal_____").unwrap();
        assert!(matches!(Wal::open(&path, 2), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
        let (_wal, replayed) = Wal::open(&path, 2).unwrap();
        assert!(replayed.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
