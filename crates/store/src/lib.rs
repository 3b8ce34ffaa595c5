#![warn(missing_docs)]

//! # pdx-store — the mutable segmented collection store
//!
//! Every deployment below this crate is build-once and immutable: PDX
//! blocks are constructed in one shot and never change. This crate adds
//! the LSM-style mutable layer that serves live traffic on top of those
//! frozen parts:
//!
//! * [`WriteBuffer`] — an in-memory append log of `(external id,
//!   vector)` pairs, searched by exact linear scan. Inserts land here.
//! * **Sealed segments** — when the buffer fills (or on an explicit
//!   seal), its rows become an immutable [`FlatPdx`](pdx_index::FlatPdx)
//!   or [`FlatSq8`](pdx_index::FlatSq8) segment served through
//!   [`VectorIndex`](pdx_core::engine::VectorIndex), with a per-segment
//!   remap table from local row ids to external ids.
//! * **Tombstones** — a delete of a sealed row sets the row's bit in its
//!   segment's dead-row mask ([`RowMask`](pdx_core::mask::RowMask)),
//!   which the segment's scan skips, and records the id in a tombstone
//!   set for the manifest (the row is purged for good at compaction).
//! * [`Collection::compact`] — merges all segments and the buffer,
//!   drops tombstoned rows, and rewrites the surviving rows as one
//!   freshly partitioned segment. Post-compaction searches are
//!   bit-identical to a fresh flat build over the surviving rows.
//!
//! Searches run against a [`Snapshot`]: each segment answers with the
//! top-`k` of its live rows under external ids (`Segment::search` —
//! its mask goes into the PDXearch scan, where a dead row takes no heap
//! slot and loosens no threshold), and one canonical `(distance, id)`
//! merge — the same order the parallel execution engine uses — combines
//! them with the buffer scan. [`Snapshot`] states the result contract
//! per segment kind.
//! Batch and intra-query parallel searches are therefore bit-identical
//! to the sequential path at any thread count, live tombstones included.
//!
//! ## Concurrency
//!
//! A [`Collection`] is safe to share across threads (`&self` write
//! ops): reads run lock-free against an atomically-swapped immutable
//! [`Snapshot`], the writer half sits behind a mutex, and sealing or
//! compaction can run as a background job
//! ([`Collection::seal_background`] /
//! [`Collection::compact_background`]) that builds the new segment off
//! to the side and commits with one atomic view swap — reads *and*
//! writes keep flowing throughout, and a search issued at any moment
//! returns results bit-identical to the snapshot it pinned. See the
//! [`collection`](Collection) module docs for the full model and the
//! durable commit protocol.
//!
//! ## Crash safety
//!
//! A persistent collection lives in a directory:
//!
//! ```text
//! <dir>/MANIFEST        versioned "PDX3" file: config, segment list,
//!                       tombstones, current WAL generation
//! <dir>/seg-<n>.pdx     sealed segment (a PDX1/PDX2 container)
//! <dir>/seg-<n>.ids     the segment's external-id remap table
//! <dir>/wal-<n>.log     append-only write-ahead log of buffered ops
//! ```
//!
//! Invariants, in commit order:
//!
//! 1. every buffered insert/delete is appended to the WAL **before** it
//!    mutates memory;
//! 2. a seal/compaction writes its segment files first, then commits by
//!    atomically renaming a new `MANIFEST` (which names a fresh WAL
//!    generation), and only then deletes the obsolete WAL/segments;
//! 3. [`Collection::open`] replays the manifest's WAL with **torn-tail
//!    truncation**: a half-written trailing record (crash mid-append) is
//!    detected by length/checksum and truncated, and every complete
//!    record before it is replayed.
//!
//! A seal/compaction commit additionally creates its fresh WAL
//! generation — with the rows still buffered in memory re-logged and
//! fsynced — **before** the manifest rename, and deletes the old
//! generation only after it: a failure anywhere in the rotation leaves
//! the previous manifest + WAL authoritative, so no acknowledged write
//! is ever diverted into a log recovery would not read. Files such a
//! failure strands (segments, WAL generations, `MANIFEST.tmp`) are
//! swept by [`Collection::open`].
//!
//! A **process** crash at any point therefore loses at most the tail
//! record that was being written, never a committed one, and orphaned
//! segment files from an uncommitted seal are ignored by the manifest.
//! WAL appends are flushed to the OS per operation but fsynced only at
//! [`Collection::sync`] and at every seal/compaction commit — so
//! against a *power loss* the durability points are the sync calls and
//! the manifest commits (the CLI syncs at the end of each `insert`/
//! `delete` command). Call [`Collection::sync`] more often — or set a
//! [`GroupCommit`] policy via [`Collection::set_group_commit`] to fsync
//! every N records or every interval — if you need tighter power-loss
//! bounds.

use std::fmt;
use std::io;

mod buffer;
mod collection;
mod manifest;
pub mod obs;
mod segment;
mod sharded;
mod snapshot;
mod wal;

pub use buffer::{BufferSnapshot, WriteBuffer};
pub use collection::{Collection, GroupCommit, MaintenanceJob, SegmentStat};
pub use manifest::{Manifest, MANIFEST_FILE, MANIFEST_MAGIC};
pub use segment::Segment;
pub use sharded::{ShardedCollection, SHARDS_FILE, SHARDS_MAGIC};
pub use snapshot::{SegmentView, Snapshot, TombstoneSet};
pub use wal::{Wal, WalRecord};

/// Build/maintenance knobs of a mutable collection, fixed at creation
/// and persisted in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Partition size of sealed segments (vectors per PDX block).
    pub block_size: usize,
    /// PDX group size of sealed segments.
    pub group_size: usize,
    /// Buffer size at which an insert triggers an automatic seal.
    pub buffer_capacity: usize,
    /// Seal segments as SQ8-quantized deployments (`PDX2` containers
    /// with an exact rerank payload) instead of plain `f32`.
    pub quantize: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            block_size: pdx_core::DEFAULT_EXACT_BLOCK,
            group_size: pdx_core::DEFAULT_GROUP_SIZE,
            buffer_capacity: pdx_core::DEFAULT_EXACT_BLOCK,
            quantize: false,
        }
    }
}

/// Errors of the mutable store.
#[derive(Debug)]
pub enum StoreError {
    /// The external id is already live (or still tombstoned — a deleted
    /// id stays reserved until [`Collection::compact`] purges it).
    DuplicateId(u64),
    /// The external id is not live in the collection.
    NotFound(u64),
    /// A vector's length does not match the collection dimensionality.
    DimsMismatch {
        /// The collection's dimensionality.
        expected: usize,
        /// The offending vector's length.
        got: usize,
    },
    /// On-disk state that violates the format or the store invariants.
    Corrupt(String),
    /// A seal or compaction is already in flight; retry once the
    /// current [`MaintenanceJob`] finishes.
    MaintenanceBusy,
    /// An underlying IO failure.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateId(id) => {
                write!(
                    f,
                    "duplicate external id {id} (ids stay reserved until compaction)"
                )
            }
            StoreError::NotFound(id) => write!(f, "external id {id} is not in the collection"),
            StoreError::DimsMismatch { expected, got } => {
                write!(f, "vector has {got} dims, collection has {expected}")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::MaintenanceBusy => {
                write!(f, "a seal or compaction is already in flight")
            }
            StoreError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}
