//! The mutable collection: write buffer + sealed segments with dead-row
//! masks, served through [`VectorIndex`] and persisted crash-safely.
//!
//! ## Concurrency model
//!
//! A [`Collection`] is two halves:
//!
//! * an immutable **read view** — one [`Snapshot`] behind an
//!   atomically-swapped `Arc`. Every search clones the `Arc` (readers
//!   never block on writers, writers never wait for readers) and runs
//!   against a frozen, internally consistent state.
//! * a mutex-guarded **writer half** — the WAL, the write buffer, the
//!   segment list with one dead-row mask per segment (the only record
//!   of a tombstoned row), the map of every taken external id, and the
//!   manifest bookkeeping. Every mutation ends by publishing a fresh
//!   snapshot.
//!
//! Sealing and compaction share one *freeze → build → commit* path: the
//! buffer's rows are frozen (staying searchable as the snapshot's
//! "sealing" section), the new segment is built and written, and the
//! result commits by swapping the segment set and its masks, the
//! manifest, and the WAL generation. Run inline
//! ([`Collection::seal`]/[`Collection::compact`]), the whole cycle holds
//! the writer lock, so writers block until the commit; as a background
//! job on a [`pdx_core::exec`] thread
//! ([`Collection::seal_background`]/[`Collection::compact_background`]),
//! only the freeze and the commit take it, each in one short critical
//! section, and writes keep landing in the buffer during the build.
//! Reads keep flowing either way.
//!
//! ## Durable commit protocol
//!
//! A maintenance commit makes the *new* state durable before the
//! manifest points at it:
//!
//! 1. the new segment's files are written and fsynced;
//! 2. a fresh WAL generation is created and the rows still buffered in
//!    memory are re-logged into it and fsynced;
//! 3. the manifest — naming the new segment list, the ids of its masked
//!    rows (tombstones), and the WAL generation — is atomically renamed
//!    into place (the commit point);
//! 4. only then are the old WAL generation and replaced segment files
//!    deleted.
//!
//! A failure (or crash) anywhere before step 3 leaves the previous
//! manifest + WAL generation fully intact, so no acknowledged write is
//! ever lost to a failed rotation; the half-created files are orphans
//! that [`Collection::open`] cleans up.

use crate::buffer::{BufChunk, BufferSnapshot, WriteBuffer};
use crate::manifest::{segment_file, segment_ids_file, wal_file, Manifest};
use crate::snapshot::{SegmentView, Snapshot};
use crate::wal::{Wal, WalRecord};
use crate::{Segment, StoreConfig, StoreError};
use pdx_core::engine::{check_vectors, SearchOptions, VectorError, VectorIndex};
use pdx_core::exec::{spawn_job, JobHandle};
use pdx_core::heap::Neighbor;
use pdx_core::mask::RowMask;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Where a taken external id currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In the write buffer.
    Buffer,
    /// Frozen by an in-flight seal/compaction (still served from
    /// memory; becomes a segment row at the commit).
    Sealing,
    /// In a sealed segment (which one, its remap tables say).
    Segment,
    /// Deleted, with its row still stored: masked in a segment, or in
    /// the sealing section's dead set. The id stays reserved until the
    /// maintenance commit that purges the row.
    Dead,
}

/// What `in_memory` panics with and `create` returns for a zero size.
const ZERO_SIZE: &str = "dims and config knobs must be positive";

/// Whether `dims` and every size knob of `config` are positive.
fn sizes_are_positive(dims: usize, config: &StoreConfig) -> bool {
    let knobs = [config.block_size, config.group_size, config.buffer_capacity];
    dims > 0 && !knobs.contains(&0)
}

/// Per-segment statistics, as reported by [`Collection::segment_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStat {
    /// Segment sequence number.
    pub seq: u64,
    /// Deployment kind (`flat-pdx` / `flat-sq8`).
    pub kind: &'static str,
    /// Physical rows (tombstoned ones included).
    pub rows: usize,
    /// Tombstoned rows awaiting compaction.
    pub dead: usize,
}

/// The WAL group-commit policy: when appends are forced to stable
/// storage. Runtime-only (not persisted in the manifest).
///
/// The default (no count) keeps the store's original semantics: appends
/// are flushed to the OS per record and fsynced only at
/// [`Collection::sync`] and at every seal/compaction commit. Setting
/// `sync_every` *bounds the power-loss window* — at most that many
/// acknowledged records can be torn away by a power cut, at the cost of
/// periodic fsyncs on the write path. Process crashes lose nothing
/// either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommit {
    /// Fsync after this many appended records (`0` disables the count
    /// trigger).
    pub sync_every: usize,
}

/// A handle to one background seal/compaction spawned by
/// [`Collection::seal_background`] / [`Collection::compact_background`].
///
/// Dropping the handle detaches the job; it still commits (or fails)
/// on its own, but its result can no longer be observed.
#[derive(Debug)]
pub struct MaintenanceJob {
    handle: JobHandle<Result<(), StoreError>>,
}

impl MaintenanceJob {
    /// What the job does (`"seal"` or `"compact"`).
    pub fn kind(&self) -> &'static str {
        self.handle.label()
    }

    /// Whether the job has finished (a `wait` will not block).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Blocks until the job commits (or fails) and returns its result.
    pub fn wait(self) -> Result<(), StoreError> {
        self.handle.join()
    }
}

/// Releases the collection's exclusive maintenance claim (and the
/// background-job count) when the holding operation ends, however it
/// ends.
#[derive(Debug)]
struct MaintenanceClaim {
    claimed: Arc<AtomicBool>,
    background: Option<Arc<AtomicUsize>>,
}

impl Drop for MaintenanceClaim {
    fn drop(&mut self) {
        if let Some(jobs) = &self.background {
            jobs.fetch_sub(1, Ordering::AcqRel);
        }
        self.claimed.store(false, Ordering::Release);
    }
}

/// Which maintenance operation a freeze→build→commit cycle performs.
#[derive(Debug, Clone, Copy)]
enum MaintKind {
    /// Seal the frozen buffer rows into one new segment.
    Seal,
    /// Rewrite the frozen buffer rows, every segment that holds a masked
    /// row, and the clean segments the size-ratio rule gathers
    /// ([`compaction_inputs`]), minus the rows masked at the freeze, into
    /// one new segment.
    Compact,
}

/// The size ratio of the compaction tiers: a clean segment joins a run
/// of segments when it holds at most this many times the rows already
/// in the run.
const TIER_RATIO: usize = 4;

/// The segments a compaction rewrites: every segment that holds a masked
/// row, and the clean segments one size-ratio rule gathers. Walking the
/// clean segments smallest first, a segment joins the current run when
/// it holds at most [`TIER_RATIO`] times the rows already in that run;
/// otherwise it starts the next run. The first run starts from the
/// masked segments' live rows plus the `frozen` buffer rows and is
/// always rewritten; a later run is rewritten only when it has two or
/// more members. Consecutive clean segments left untouched therefore
/// differ in size by more than [`TIER_RATIO`]×, so `n` rows keep at most
/// ⌊log₄ n⌋ + 2 segments, and each row is rewritten O(log n) times.
fn compaction_inputs(segments: &[SegmentView], frozen: usize) -> Vec<SegmentView> {
    let (mut inputs, mut clean): (Vec<&SegmentView>, Vec<&SegmentView>) =
        segments.iter().partition(|v| !v.dead.is_empty());
    clean.sort_unstable_by_key(|v| (v.segment.len(), v.segment.seq()));
    let live = inputs.iter().map(|v| v.segment.len() - v.dead.len());
    let mut run_rows = frozen + live.sum::<usize>();
    // Members of the current run past the first (`None` while in it).
    let mut later: Option<usize> = None;
    for view in clean {
        let rows = view.segment.len();
        if rows > TIER_RATIO * run_rows {
            if later == Some(1) {
                inputs.pop();
            }
            (later, run_rows) = (Some(0), 0);
        }
        inputs.push(view);
        later = later.map(|n| n + 1);
        run_rows += rows;
    }
    if later == Some(1) {
        inputs.pop();
    }
    inputs.into_iter().cloned().collect()
}

/// Buffer rows frozen by an in-flight seal/compaction: immutable chunks
/// plus the ids deleted since (or before) the freeze. The rows stay
/// searchable from here until the commit swaps them into a segment.
#[derive(Debug)]
struct SealingBuffer {
    chunks: Vec<Arc<BufChunk>>,
    /// Frozen ids that are logically deleted (copy-on-write; shared
    /// with published snapshots).
    dead: Arc<HashSet<u64>>,
    /// Physical rows across `chunks`.
    total: usize,
}

impl SealingBuffer {
    fn view(&self, dims: usize) -> BufferSnapshot {
        BufferSnapshot::from_parts(
            dims,
            self.chunks.clone(),
            Arc::clone(&self.dead),
            self.total - self.dead.len(),
        )
    }
}

/// One frozen maintenance work order: everything the build phase needs
/// without touching the writer lock.
#[derive(Debug)]
struct MaintPlan {
    /// The frozen buffer rows (live at freeze time, minus `dead0`).
    frozen_chunks: Vec<Arc<BufChunk>>,
    /// Frozen ids already deleted *at* the freeze (rows excluded from
    /// the build; left over from an earlier failed commit).
    dead0: HashSet<u64>,
    /// Segments being rewritten, with their masks as of the freeze: the
    /// rows the build leaves out (empty for a plain seal). The commit
    /// finds them in the writer's list by sequence number.
    segments_in: Vec<SegmentView>,
    /// Reserved sequence number of the new segment.
    seq: u64,
}

/// The mutex-guarded writer half of a collection.
#[derive(Debug)]
struct Writer {
    buffer: WriteBuffer,
    /// The sealed segments, each with the mask of its tombstoned rows
    /// (what searches skip; published as is with every snapshot, and
    /// read off for the manifest's tombstone list).
    segments: Vec<SegmentView>,
    /// Every taken external id → where it resides: the live ones and
    /// the [`Loc::Dead`] ones whose rows are not purged yet.
    locations: HashMap<u64, Loc>,
    /// Frozen buffer rows of an in-flight (or failed) seal/compaction.
    sealing: Option<SealingBuffer>,
    wal: Option<Wal>,
    wal_seq: u64,
    next_segment_seq: u64,
    group_commit: GroupCommit,
    /// Records appended since the last fsync.
    unsynced: usize,
}

impl Writer {
    fn new(dims: usize) -> Self {
        Self {
            buffer: WriteBuffer::new(dims),
            segments: Vec::new(),
            locations: HashMap::new(),
            sealing: None,
            wal: None,
            wal_seq: 0,
            next_segment_seq: 0,
            group_commit: GroupCommit::default(),
            unsynced: 0,
        }
    }

    /// Whether `id` is unavailable for insertion: live, or dead with its
    /// row not purged yet.
    fn is_reserved(&self, id: u64) -> bool {
        self.locations.contains_key(&id)
    }

    /// Whether `id` is live (searchable).
    fn is_live(&self, id: u64) -> bool {
        self.locations.get(&id).is_some_and(|&loc| loc != Loc::Dead)
    }

    /// Number of masked rows across the segments.
    fn tombstone_count(&self) -> usize {
        self.segments.iter().map(|v| v.dead.len()).sum()
    }

    /// Number of live ids: the taken ones minus the dead ones, which are
    /// the masked rows and the sealing section's deletes. O(segments).
    fn live_len(&self) -> usize {
        let sealing_dead = self.sealing.as_ref().map_or(0, |s| s.dead.len());
        self.locations.len() - self.tombstone_count() - sealing_dead
    }

    /// The id check shared by [`Collection::insert`] and WAL replay (a
    /// replayed vector is as wide as the WAL header says).
    fn check_insert(&self, id: u64) -> Result<(), StoreError> {
        if self.is_reserved(id) {
            return Err(StoreError::DuplicateId(id));
        }
        Ok(())
    }

    /// Memory-only insert with re-validation (the WAL replay path — a
    /// duplicate in the log is corruption, not a caller bug).
    fn apply_insert(&mut self, id: u64, vector: &[f32]) -> Result<(), StoreError> {
        self.check_insert(id)?;
        self.buffer.append(id, vector)?;
        self.locations.insert(id, Loc::Buffer);
        Ok(())
    }

    /// Memory-only delete (the WAL record is already durable). A
    /// buffered id is freed at once; a frozen or sealed one stays
    /// reserved as [`Loc::Dead`] until its row is purged.
    fn apply_delete(&mut self, id: u64) -> Result<(), StoreError> {
        match self.locations.get(&id).copied() {
            None | Some(Loc::Dead) => return Err(StoreError::NotFound(id)),
            Some(Loc::Buffer) => {
                self.buffer.remove(id);
                self.locations.remove(&id);
                return Ok(());
            }
            Some(Loc::Sealing) => {
                let sealing = self
                    .sealing
                    .as_mut()
                    .expect("sealing rows without a freeze");
                Arc::make_mut(&mut sealing.dead).insert(id);
            }
            Some(Loc::Segment) => {
                let masked = self.mask_row(id);
                debug_assert!(masked, "a live sealed id has a row in some segment");
            }
        }
        self.locations.insert(id, Loc::Dead);
        Ok(())
    }

    /// Masks the sealed row that holds external id `id`, so that
    /// searches skip it; `false` if no segment holds an unmasked one.
    fn mask_row(&mut self, id: u64) -> bool {
        self.segments.iter_mut().any(|view| view.mask_id(id))
    }
}

/// An LSM-style mutable vector collection, safe to share across
/// threads.
///
/// Inserts land in an in-memory write buffer (after a WAL append
/// when persistent) and seal into immutable [`Segment`]s; deletes
/// remove buffered rows in place and tombstone sealed rows; searches
/// run lock-free against the current [`Snapshot`], merging the buffer
/// scan with every segment's PDXearch through the canonical
/// `(distance, id)` order; [`Collection::compact`] purges the tombstoned
/// rows and merges segments by size tiers, rewriting what it must as one
/// fresh segment — inline, or concurrently with reads *and* writes via
/// [`Collection::compact_background`]. See the
/// module docs for the concurrency model and the crate docs for the
/// on-disk layout.
///
/// All mutating operations take `&self` (the writer half is behind a
/// mutex), so one `Arc<Collection>` serves readers and writers alike.
///
/// A deleted external id stays **reserved** until compaction purges its
/// physical row: re-inserting it before then returns
/// [`StoreError::DuplicateId`].
///
/// ```
/// use pdx_store::{Collection, StoreConfig};
/// use pdx_core::engine::{SearchOptions, VectorIndex};
///
/// let coll = Collection::in_memory(2, StoreConfig::default());
/// coll.insert(7, &[0.0, 0.0])?;
/// coll.insert(9, &[1.0, 0.0])?;
/// let hits = coll.search(&[0.1, 0.0], &SearchOptions::new(1));
/// assert_eq!(hits[0].id, 7);
/// coll.delete(7)?;
/// let hits = coll.search(&[0.1, 0.0], &SearchOptions::new(1));
/// assert_eq!(hits[0].id, 9);
/// # Ok::<(), pdx_store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct Collection {
    dims: usize,
    config: StoreConfig,
    /// Persistence root; `None` for an in-memory collection.
    dir: Option<PathBuf>,
    /// The current read view; swapped atomically at every publication.
    view: RwLock<Arc<Snapshot>>,
    writer: Mutex<Writer>,
    /// Exclusive seal/compaction claim (one maintenance op at a time).
    claim: Arc<AtomicBool>,
    /// Background maintenance jobs currently in flight.
    background_jobs: Arc<AtomicUsize>,
    /// Buffer-row / tombstone counts last reported into the global
    /// gauges; each publish adjusts by the delta (and `Drop` retracts
    /// the rest), so several live collections sum correctly.
    obs_buffer_rows: AtomicU64,
    obs_tombstones: AtomicU64,
}

impl Collection {
    /// A purely in-memory collection (no directory, no WAL): the same
    /// semantics without durability, for tests and benchmarks.
    ///
    /// # Panics
    /// Panics if `dims == 0` or the config has a zero knob.
    pub fn in_memory(dims: usize, config: StoreConfig) -> Self {
        assert!(sizes_are_positive(dims, &config), "{ZERO_SIZE}");
        Self::assemble(dims, config, None, Writer::new(dims))
    }

    fn assemble(dims: usize, config: StoreConfig, dir: Option<PathBuf>, writer: Writer) -> Self {
        let initial = Arc::new(Self::snapshot_of(dims, &writer));
        Self {
            dims,
            config,
            dir,
            view: RwLock::new(initial),
            writer: Mutex::new(writer),
            claim: Arc::new(AtomicBool::new(false)),
            background_jobs: Arc::new(AtomicUsize::new(0)),
            obs_buffer_rows: AtomicU64::new(0),
            obs_tombstones: AtomicU64::new(0),
        }
    }

    /// Creates a new persistent collection in `dir` (created if
    /// missing), writing the initial manifest and WAL.
    ///
    /// # Errors
    /// `InvalidInput` for `dims == 0` or a zero config knob, before
    /// anything touches the disk; `AlreadyExists` if `dir` already holds
    /// a manifest; IO errors are propagated.
    pub fn create(
        dir: impl AsRef<Path>,
        dims: usize,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        if !sizes_are_positive(dims, &config) {
            let kind = std::io::ErrorKind::InvalidInput;
            return Err(StoreError::Io(std::io::Error::new(kind, ZERO_SIZE)));
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        if Manifest::path(dir).exists() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{}: collection already exists", dir.display()),
            )));
        }
        let mut coll = Self::in_memory(dims, config);
        {
            let mut w = coll.writer.lock().expect("writer lock");
            Self::manifest_of(dims, config, &w).write_atomic(dir)?;
            w.wal = Some(Wal::create(&dir.join(wal_file(0)), dims)?);
        }
        coll.dir = Some(dir.to_path_buf());
        Ok(coll)
    }

    /// Opens a persistent collection: loads the manifest and segments,
    /// applies the tombstones, cleans up orphaned files (segments or
    /// WAL generations a failed commit left behind), and replays the
    /// WAL (with torn-tail truncation) to rebuild the write buffer.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on invariant violations (a tombstone for
    /// an unknown id, a replayed duplicate insert, a mismatched remap
    /// table); IO and format errors are propagated. Each error names,
    /// once, the file it arose in — or `dir` for one between files.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let manifest = Manifest::read(dir)?;
        clean_orphans(dir, &manifest);
        let mut w = Writer::new(manifest.dims);
        w.wal_seq = manifest.wal_seq;
        w.next_segment_seq = manifest.next_segment_seq;
        for &seq in &manifest.segments {
            let segment = Segment::load(dir, seq, manifest.dims)?;
            for &ext in segment.remap() {
                if w.locations.insert(ext, Loc::Segment).is_some() {
                    let msg = format!("external id {ext} appears in two segments");
                    return Err(StoreError::Corrupt(msg).at(dir));
                }
            }
            w.segments.push(SegmentView {
                segment: Arc::new(segment),
                dead: RowMask::default(),
            });
        }
        for &id in &manifest.tombstones {
            if w.locations.get(&id) != Some(&Loc::Segment) || !w.mask_row(id) {
                let msg = format!("tombstone for id {id} which no segment holds");
                return Err(StoreError::Corrupt(msg).at(&Manifest::path(dir)));
            }
            w.locations.insert(id, Loc::Dead);
        }
        let wal_path = dir.join(wal_file(manifest.wal_seq));
        let (wal, records) = Wal::open(&wal_path, manifest.dims)?;
        for record in records {
            // Replay mutates memory only — the records are already
            // durable — and surfaces violations as corruption.
            let replayed = match record {
                WalRecord::Insert { id, vector } => w.apply_insert(id, &vector),
                WalRecord::Delete { id } => w.apply_delete(id),
            };
            let corrupt = |e| StoreError::Corrupt(format!("wal replay: {e}")).at(&wal_path);
            replayed.map_err(corrupt)?;
        }
        w.wal = Some(wal);
        Ok(Self::assemble(
            manifest.dims,
            manifest.config,
            Some(dir.to_path_buf()),
            w,
        ))
    }

    /// Dimensionality of the collection.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The store configuration fixed at creation.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The current read view: an immutable, internally consistent
    /// snapshot that stays searchable (and bit-stable) no matter what
    /// the writer does afterwards. Every `Collection` search is
    /// `self.snapshot()` + the snapshot's search; take one explicitly
    /// to pin a whole multi-query session to one state.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.view.read().expect("view lock"))
    }

    /// Publishes the writer's current state as the new read view.
    fn publish(&self, w: &Writer) {
        let snap = Arc::new(Self::snapshot_of(self.dims, w));
        *self.view.write().expect("view lock") = snap;
        self.sync_state_gauges(w);
    }

    /// Reconciles the global buffer/tombstone gauges with this
    /// collection's counts. Delta-based (each collection adjusts by
    /// what changed since its last report), so several live
    /// collections sum correctly; callers hold the writer lock, so
    /// per-collection reports are serialized.
    fn sync_state_gauges(&self, w: &Writer) {
        let m = crate::obs::state_metrics();
        let sealing = w.sealing.as_ref().map_or(0, |s| s.total - s.dead.len());
        let buffer = (w.buffer.len() + sealing) as u64;
        let tombstones = w.tombstone_count() as u64;
        let prev_b = self.obs_buffer_rows.swap(buffer, Ordering::Relaxed);
        let prev_t = self.obs_tombstones.swap(tombstones, Ordering::Relaxed);
        if buffer >= prev_b {
            m.buffer_rows.add(buffer - prev_b);
        } else {
            m.buffer_rows.sub(prev_b - buffer);
        }
        if tombstones >= prev_t {
            m.tombstones.add(tombstones - prev_t);
        } else {
            m.tombstones.sub(prev_t - tombstones);
        }
    }

    fn snapshot_of(dims: usize, w: &Writer) -> Snapshot {
        Snapshot::new(
            dims,
            w.segments.clone(),
            w.sealing.as_ref().map(|s| s.view(dims)),
            w.buffer.snapshot(),
            w.live_len(),
        )
    }

    fn manifest_of(dims: usize, config: StoreConfig, w: &Writer) -> Manifest {
        Manifest {
            dims,
            config,
            wal_seq: w.wal_seq,
            next_segment_seq: w.next_segment_seq,
            segments: w.segments.iter().map(|v| v.segment.seq()).collect(),
            tombstones: tombstone_ids(&w.segments),
        }
    }

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, Writer> {
        self.writer.lock().expect("writer lock")
    }

    /// Number of live (inserted and not deleted) vectors.
    pub fn live_len(&self) -> usize {
        self.snapshot().live_len()
    }

    /// Number of vectors currently buffered in memory (the write buffer
    /// plus any rows frozen by an in-flight seal/compaction).
    pub fn buffer_len(&self) -> usize {
        let w = self.lock_writer();
        let sealing = w.sealing.as_ref().map_or(0, |s| s.total - s.dead.len());
        w.buffer.len() + sealing
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.lock_writer().segments.len()
    }

    /// Number of tombstoned (deleted but not yet compacted) rows.
    pub fn tombstone_count(&self) -> usize {
        self.lock_writer().tombstone_count()
    }

    /// Current WAL generation (persistent collections).
    pub fn wal_seq(&self) -> u64 {
        self.lock_writer().wal_seq
    }

    /// Bytes of the current WAL generation known to be on stable
    /// storage (what a power loss is guaranteed to preserve). `0` for
    /// in-memory collections.
    pub fn wal_synced_len(&self) -> u64 {
        self.lock_writer()
            .wal
            .as_ref()
            .map_or(0, |w| w.synced_len())
    }

    /// Bytes appended to the current WAL generation (flushed to the OS;
    /// the span past [`Collection::wal_synced_len`] is what a power
    /// loss may tear). `0` for in-memory collections.
    pub fn wal_appended_len(&self) -> u64 {
        self.lock_writer()
            .wal
            .as_ref()
            .map_or(0, |w| w.appended_len())
    }

    /// The WAL group-commit policy.
    pub fn group_commit(&self) -> GroupCommit {
        self.lock_writer().group_commit
    }

    /// Replaces the WAL group-commit policy (runtime-only; not
    /// persisted). See [`GroupCommit`] for the durability trade-off.
    pub fn set_group_commit(&self, policy: GroupCommit) {
        self.lock_writer().group_commit = policy;
    }

    /// Number of background maintenance jobs currently in flight
    /// (`0` or `1`: seals and compactions are mutually exclusive).
    pub fn maintenance_in_flight(&self) -> usize {
        self.background_jobs.load(Ordering::Acquire)
    }

    /// Per-segment statistics in storage order.
    pub fn segment_stats(&self) -> Vec<SegmentStat> {
        let w = self.lock_writer();
        w.segments
            .iter()
            .map(|v| SegmentStat {
                seq: v.segment.seq(),
                kind: v.segment.kind(),
                rows: v.segment.len(),
                dead: v.dead.len(),
            })
            .collect()
    }

    /// The largest external id ever observed (live or tombstoned), or
    /// `None` for a collection that never held a row.
    pub fn max_id(&self) -> Option<u64> {
        self.lock_writer().locations.keys().max().copied()
    }

    /// Whether `id` is live (searchable) in the collection.
    pub fn contains(&self, id: u64) -> bool {
        self.lock_writer().is_live(id)
    }

    /// Whether `id` is unavailable for insertion: live, or tombstoned
    /// (deleted ids stay reserved until [`Collection::compact`]).
    pub fn is_id_reserved(&self, id: u64) -> bool {
        self.lock_writer().is_reserved(id)
    }

    /// Inserts one vector under an external id: WAL append first, then
    /// the write buffer; seals automatically when the buffer reaches
    /// its configured capacity (skipped — the buffer keeps growing —
    /// while a background job holds the maintenance claim).
    ///
    /// # Errors
    /// [`StoreError::DimsMismatch`], [`StoreError::NonFinite`] (nothing
    /// is logged), [`StoreError::DuplicateId`] (also for tombstoned ids —
    /// reserved until compaction), or an IO error.
    /// An IO error from the *automatic seal* (or a group-commit fsync)
    /// is reported here, but the insert itself is already WAL-committed
    /// and applied at that point — the collection stays consistent and
    /// the seal retries on the next trigger.
    pub fn insert(&self, id: u64, vector: &[f32]) -> Result<(), StoreError> {
        // Refused before the WAL: every later search would rank it.
        match check_vectors(vector, self.dims) {
            Ok(1) => {}
            Err(VectorError::NonFinite { dim, .. }) if vector.len() == self.dims => {
                return Err(StoreError::NonFinite { id, dim })
            }
            _ => {
                let (expected, got) = (self.dims, vector.len());
                return Err(StoreError::DimsMismatch { expected, got });
            }
        }
        let mut w = self.lock_writer();
        w.check_insert(id)?;
        if let Some(wal) = &mut w.wal {
            wal.append(&WalRecord::Insert {
                id,
                vector: vector.to_vec(),
            })?;
        }
        w.buffer.append(id, vector)?;
        w.locations.insert(id, Loc::Buffer);
        self.publish(&w);
        Self::group_commit_tick(&mut w)?;
        if w.buffer.len() >= self.config.buffer_capacity {
            if let Some(_claim) = self.try_claim(false) {
                self.maintain_locked(&mut w, MaintKind::Seal)?;
            }
        }
        Ok(())
    }

    /// Bulk-loads `rows` under consecutive ids `first_id..first_id + n`,
    /// **bypassing the WAL**: the rows (with whatever the buffer already
    /// held) are sealed once, at the end, into one segment however many
    /// `buffer_capacity`s they span, and become durable at that seal's
    /// segment + manifest commit. The whole id range is validated before
    /// anything is applied. This is the build path — logging a bulk load
    /// record-by-record only to delete the log at the next seal would
    /// double its IO for nothing, and sealing it in buffer-sized chunks
    /// would only leave the next compaction more segments to merge.
    ///
    /// # Errors
    /// [`StoreError::MaintenanceBusy`] if a background job is in
    /// flight (the load needs the seal path for durability);
    /// [`StoreError::IdOverflow`] / [`StoreError::DimsMismatch`] /
    /// [`StoreError::NonFinite`] / [`StoreError::DuplicateId`] before
    /// anything is applied; or an IO
    /// error from the seal — on an IO error (or a crash mid-call) the
    /// loaded rows are not durable, consistent with "the manifest is the
    /// commit point"; after an IO error they stay searchable and the
    /// next seal retries them.
    pub fn bulk_insert(&self, first_id: u64, rows: &[f32]) -> Result<(), StoreError> {
        let n = rows.len() / self.dims;
        let last = first_id.checked_add(n.saturating_sub(1) as u64);
        let ids = first_id..=last.ok_or(StoreError::IdOverflow {
            first: first_id,
            rows: n,
        })?;
        check_vectors(rows, self.dims).map_err(|err| match err {
            VectorError::Shape { len, dims } => StoreError::DimsMismatch {
                expected: dims,
                got: len,
            },
            // In range: the ids up to `first_id + n - 1` were checked.
            VectorError::NonFinite { row, dim, .. } => StoreError::NonFinite {
                id: first_id + row as u64,
                dim,
            },
        })?;
        let _claim = self.try_claim(false).ok_or(StoreError::MaintenanceBusy)?;
        let mut w = self.lock_writer();
        if let Some(id) = ids.clone().take(n).find(|&id| w.is_reserved(id)) {
            return Err(StoreError::DuplicateId(id));
        }
        for (id, row) in ids.zip(rows.chunks_exact(self.dims)) {
            w.buffer.append(id, row)?;
            w.locations.insert(id, Loc::Buffer);
        }
        self.maintain_locked(&mut w, MaintKind::Seal)
    }

    /// Deletes an external id: a buffered row is removed in place, a
    /// sealed row is tombstoned (filtered from every search, purged at
    /// compaction).
    ///
    /// # Errors
    /// [`StoreError::NotFound`] if the id is not live, or an IO error.
    pub fn delete(&self, id: u64) -> Result<(), StoreError> {
        let mut w = self.lock_writer();
        if !w.is_live(id) {
            return Err(StoreError::NotFound(id));
        }
        if let Some(wal) = &mut w.wal {
            wal.append(&WalRecord::Delete { id })?;
        }
        w.apply_delete(id)?;
        self.publish(&w);
        Self::group_commit_tick(&mut w)?;
        Ok(())
    }

    /// Counts an appended record against the group-commit policy and
    /// fsyncs when its count is reached.
    fn group_commit_tick(w: &mut Writer) -> Result<(), StoreError> {
        if w.wal.is_none() {
            return Ok(());
        }
        w.unsynced += 1;
        let every = w.group_commit.sync_every;
        if every > 0 && w.unsynced >= every {
            if let Some(wal) = &mut w.wal {
                wal.sync()?;
            }
            crate::obs::wal_metrics().batch.record(w.unsynced as u64);
            w.unsynced = 0;
        }
        Ok(())
    }

    /// Takes the exclusive maintenance claim, or `None` if a
    /// seal/compaction is already in flight.
    fn try_claim(&self, background: bool) -> Option<MaintenanceClaim> {
        if self
            .claim
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return None;
        }
        let background = background.then(|| {
            self.background_jobs.fetch_add(1, Ordering::AcqRel);
            Arc::clone(&self.background_jobs)
        });
        Some(MaintenanceClaim {
            claimed: Arc::clone(&self.claim),
            background,
        })
    }

    /// Seals the write buffer into a new immutable segment (no-op when
    /// the buffer is empty). Persistent collections write the segment
    /// files and commit via the durable protocol in the module docs.
    ///
    /// # Errors
    /// [`StoreError::MaintenanceBusy`] if a background job is in
    /// flight; IO errors are propagated — a failed commit leaves the
    /// previous durable state fully intact, keeps the frozen rows
    /// searchable, and the next seal retries them.
    pub fn seal(&self) -> Result<(), StoreError> {
        let _claim = self.try_claim(false).ok_or(StoreError::MaintenanceBusy)?;
        let mut w = self.lock_writer();
        self.maintain_locked(&mut w, MaintKind::Seal)
    }

    /// Purges every tombstoned row and seals the write buffer, rewriting
    /// only what that and the size tiers require: every segment that
    /// holds a tombstoned row, the buffer rows, and the clean segments
    /// one size-ratio rule gathers (a clean segment joins when it holds
    /// at most 4× the rows of the run it meets, smallest first) are
    /// rewritten — sorted by external id — as one freshly partitioned
    /// segment. A segment whose rows are all dead is dropped without a
    /// write, untouched segments keep their files and answer bits, and a
    /// compaction with nothing to purge, merge or seal writes nothing.
    /// Afterwards no row is tombstoned, all tombstoned ids are reusable,
    /// and `n` live rows sit in at most ⌊log₄ n⌋ + 2 segments.
    ///
    /// When every segment was rewritten (each held a tombstoned row, or
    /// the tiers gathered them all), the collection is one segment and
    /// its searches are bit-identical to a fresh flat build over the
    /// surviving rows; otherwise each segment answers as its own fresh
    /// build and the answers merge canonically.
    ///
    /// Blocks writers for the duration (readers keep the old view); use
    /// [`Collection::compact_background`] to rebuild off to the side.
    ///
    /// # Errors
    /// [`StoreError::MaintenanceBusy`] if a background job is in
    /// flight; IO errors are propagated (the previous durable state
    /// stays intact on failure).
    pub fn compact(&self) -> Result<(), StoreError> {
        let _claim = self.try_claim(false).ok_or(StoreError::MaintenanceBusy)?;
        let mut w = self.lock_writer();
        self.maintain_locked(&mut w, MaintKind::Compact)
    }

    /// Starts a background seal: freezes the buffer (a brief writer
    /// lock), then builds and commits the segment on a
    /// [`pdx_core::exec`] job thread. Reads and writes keep flowing;
    /// the frozen rows stay searchable throughout.
    ///
    /// # Errors
    /// [`StoreError::MaintenanceBusy`] if a job is already in flight.
    pub fn seal_background(self: &Arc<Self>) -> Result<MaintenanceJob, StoreError> {
        self.spawn_maintenance(MaintKind::Seal)
    }

    /// Starts a background compaction: picks the segments to rewrite
    /// by the rule of [`Collection::compact`], captures their tombstones
    /// and freezes the buffer (a brief writer lock), builds the merged
    /// segment off to the side, and commits by atomically swapping the
    /// rewritten segments, manifest, and WAL generation. Rows deleted
    /// during the build stay tombstoned until the next compaction. Searches
    /// issued at any point return results bit-identical to the
    /// pre-commit or post-commit snapshot (whichever was current);
    /// inserts and deletes keep landing concurrently and survive the
    /// commit.
    ///
    /// # Errors
    /// [`StoreError::MaintenanceBusy`] if a job is already in flight.
    pub fn compact_background(self: &Arc<Self>) -> Result<MaintenanceJob, StoreError> {
        self.spawn_maintenance(MaintKind::Compact)
    }

    fn spawn_maintenance(self: &Arc<Self>, kind: MaintKind) -> Result<MaintenanceJob, StoreError> {
        let claim = self.try_claim(true).ok_or(StoreError::MaintenanceBusy)?;
        let this = Arc::clone(self);
        let label = match kind {
            MaintKind::Seal => "seal",
            MaintKind::Compact => "compact",
        };
        let handle = spawn_job(label, move || {
            let _claim = claim;
            this.maintain_background(kind)
        });
        Ok(MaintenanceJob { handle })
    }

    /// The whole freeze→build→commit cycle under one writer lock (the
    /// inline seal/compact path; writers block, readers do not).
    /// Callers must hold the maintenance claim.
    fn maintain_locked(&self, w: &mut Writer, kind: MaintKind) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let Some(plan) = self.plan_maintenance(w, kind) else {
            return Ok(());
        };
        let built = self.build_maintenance(&plan)?;
        Self::record_maintenance(kind, &built);
        let out = self.commit_maintenance(w, &plan, built);
        Self::maint_metrics_of(kind)
            .duration_us
            .record(t0.elapsed().as_micros() as u64);
        out
    }

    /// The background variant: the writer lock is held only for the
    /// freeze and the commit, not the build.
    fn maintain_background(&self, kind: MaintKind) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let plan = {
            let mut w = self.lock_writer();
            match self.plan_maintenance(&mut w, kind) {
                Some(plan) => plan,
                None => return Ok(()),
            }
        };
        let built = self.build_maintenance(&plan)?;
        Self::record_maintenance(kind, &built);
        let mut w = self.lock_writer();
        let out = self.commit_maintenance(&mut w, &plan, built);
        Self::maint_metrics_of(kind)
            .duration_us
            .record(t0.elapsed().as_micros() as u64);
        out
    }

    fn maint_metrics_of(kind: MaintKind) -> &'static crate::obs::MaintMetrics {
        match kind {
            MaintKind::Seal => crate::obs::seal_metrics(),
            MaintKind::Compact => crate::obs::compact_metrics(),
        }
    }

    /// Charges the new segment's payload ([`Segment::payload_bytes`]) to
    /// the phase's bytes-rewritten counter.
    fn record_maintenance(kind: MaintKind, built: &Option<Arc<Segment>>) {
        if let Some(segment) = built {
            let bytes = segment.payload_bytes() as u64;
            Self::maint_metrics_of(kind).bytes_rewritten.add(bytes);
        }
    }

    /// Freeze phase: moves the buffer's live rows (plus any leftovers
    /// of an earlier failed commit) into the sealing section — still
    /// searchable, no longer accepting rows — and captures what the
    /// build needs. Returns `None` when a seal has nothing to do.
    fn plan_maintenance(&self, w: &mut Writer, kind: MaintKind) -> Option<MaintPlan> {
        let (mut chunks, dead_arc) = match w.sealing.take() {
            Some(s) => (s.chunks, s.dead),
            None => (Vec::new(), Arc::new(HashSet::new())),
        };
        let dead0: HashSet<u64> = (*dead_arc).clone();
        chunks.extend(w.buffer.freeze());
        let total: usize = chunks.iter().map(|c| c.ids.len()).sum();
        let segments_in = match kind {
            MaintKind::Seal => Vec::new(),
            MaintKind::Compact => compaction_inputs(&w.segments, total - dead0.len()),
        };
        if total == 0 && segments_in.is_empty() {
            return None;
        }
        for chunk in &chunks {
            for &id in &chunk.ids {
                if !dead0.contains(&id) {
                    w.locations.insert(id, Loc::Sealing);
                }
            }
        }
        w.sealing = Some(SealingBuffer {
            chunks: chunks.clone(),
            dead: dead_arc,
            total,
        });
        let seq = w.next_segment_seq;
        w.next_segment_seq += 1;
        self.publish(w);
        Some(MaintPlan {
            frozen_chunks: chunks,
            dead0,
            segments_in,
            seq,
        })
    }

    /// Build phase: assembles the survivor rows — the plan's segments
    /// minus the rows masked at the freeze, plus the frozen buffer rows —
    /// sorted by external id, seals them into one segment, and writes
    /// its files. Touches no shared state: safe off the writer lock.
    fn build_maintenance(&self, plan: &MaintPlan) -> Result<Option<Arc<Segment>>, StoreError> {
        let sealed = plan.segments_in.iter();
        let frozen = plan.frozen_chunks.iter().map(|c| c.ids.len());
        let n = sealed
            .map(|v| v.segment.len() - v.dead.len())
            .sum::<usize>()
            + frozen.sum::<usize>();
        let mut all_ids: Vec<u64> = Vec::with_capacity(n);
        let mut all_rows: Vec<f32> = Vec::with_capacity(n * self.dims);
        for view in &plan.segments_in {
            view.segment
                .live_rows(&view.dead, &mut all_ids, &mut all_rows);
        }
        for chunk in &plan.frozen_chunks {
            for (pos, &id) in chunk.ids.iter().enumerate() {
                if !plan.dead0.contains(&id) {
                    all_ids.push(id);
                    all_rows.extend_from_slice(chunk.row(pos, self.dims));
                }
            }
        }
        if all_ids.is_empty() {
            return Ok(None);
        }
        // Global external-id order: each source is sorted, and sources
        // that interleave are gathered into one run.
        let (ids, rows) = if all_ids.windows(2).all(|pair| pair[0] < pair[1]) {
            (all_ids, all_rows)
        } else {
            let mut order: Vec<usize> = (0..all_ids.len()).collect();
            order.sort_unstable_by_key(|&i| all_ids[i]);
            let mut rows = Vec::with_capacity(all_rows.len());
            for &i in &order {
                rows.extend_from_slice(&all_rows[i * self.dims..(i + 1) * self.dims]);
            }
            (order.iter().map(|&i| all_ids[i]).collect(), rows)
        };
        let segment = Arc::new(Segment::seal(plan.seq, ids, rows, self.dims, &self.config)?);
        if let Some(dir) = &self.dir {
            segment.write(dir)?;
        }
        Ok(Some(segment))
    }

    /// Commit phase: swaps the new segment in for the plan's inputs,
    /// masks in it the rows deleted during the build, commits durably
    /// (fresh WAL generation with the still-buffered rows re-logged,
    /// then the manifest rename), frees the ids of the purged rows, and
    /// publishes the new view. On error the previous durable state and
    /// the sealing section survive untouched.
    fn commit_maintenance(
        &self,
        w: &mut Writer,
        plan: &MaintPlan,
        built: Option<Arc<Segment>>,
    ) -> Result<(), StoreError> {
        // The claim is exclusive, so no other maintenance ran since the
        // freeze: every input of the plan is still in the writer's list.
        let input = |now: &SegmentView| {
            let seq = now.segment.seq();
            plan.segments_in
                .iter()
                .find(|then| then.segment.seq() == seq)
        };
        debug_assert_eq!(
            w.segments.iter().filter_map(input).count(),
            plan.segments_in.len()
        );
        // The segments that stay carry masks every delete has kept
        // current. The new one holds the rows deleted during the build
        // (one binary search each): input rows masked since the freeze,
        // and frozen rows deleted mid-build.
        let kept = w.segments.iter().filter(|now| input(now).is_none());
        let mut segments: Vec<SegmentView> = kept.cloned().collect();
        if let Some(segment) = built {
            let mut view = SegmentView {
                segment,
                dead: RowMask::default(),
            };
            for (now, then) in w.segments.iter().filter_map(|now| Some((now, input(now)?))) {
                let remap = now.segment.remap();
                for row in now.dead.iter().filter(|&row| !then.dead.contains(row)) {
                    view.mask_id(remap[row as usize]);
                }
            }
            let sealing_dead = w.sealing.iter().flat_map(|s| s.dead.iter());
            for &id in sealing_dead.filter(|id| !plan.dead0.contains(id)) {
                view.mask_id(id);
            }
            segments.push(view);
        }
        if let Some(dir) = &self.dir {
            let wal = commit_durable(
                dir,
                self.dims,
                self.config,
                w.wal_seq + 1,
                w.next_segment_seq,
                segments.iter().map(|v| v.segment.seq()).collect(),
                tombstone_ids(&segments),
                &w.buffer,
            )?;
            let old = w.wal.replace(wal);
            w.wal_seq += 1;
            w.unsynced = 0;
            if let Some(old) = old {
                std::fs::remove_file(old.path()).ok();
            }
            for view in &plan.segments_in {
                Segment::remove_files(dir, view.segment.seq());
            }
        }
        // The rows the build left out are gone, which frees their ids:
        // the inputs' rows masked at the freeze, and the frozen rows
        // deleted before it.
        for view in &plan.segments_in {
            let remap = view.segment.remap();
            for row in view.dead.iter() {
                w.locations.remove(&remap[row as usize]);
            }
        }
        for id in &plan.dead0 {
            w.locations.remove(id);
        }
        // The frozen rows are sealed now; sealed and buffered rows are
        // where they were.
        for loc in w.locations.values_mut() {
            if *loc == Loc::Sealing {
                *loc = Loc::Segment;
            }
        }
        w.segments = segments;
        w.sealing = None;
        self.publish(w);
        Ok(())
    }

    /// Forces WAL records to stable storage (appends are flushed to the
    /// OS per operation, synced to the device here — or periodically,
    /// see [`Collection::set_group_commit`]).
    ///
    /// # Errors
    /// Propagates IO errors.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut w = self.lock_writer();
        if let Some(wal) = &mut w.wal {
            wal.sync()?;
            w.unsynced = 0;
        }
        Ok(())
    }
}

/// Creates the commit's fresh WAL generation — re-logging the rows that
/// remain buffered in memory, fsynced — and then renames the manifest
/// into place (the commit point). On any failure the new generation is
/// removed and the previous manifest + WAL stay authoritative, so a
/// failed rotation can never divert acknowledged writes into a log that
/// recovery would not read.
#[allow(clippy::too_many_arguments)]
fn commit_durable(
    dir: &Path,
    dims: usize,
    config: StoreConfig,
    new_wal_seq: u64,
    next_segment_seq: u64,
    segment_seqs: Vec<u64>,
    tombstones: Vec<u64>,
    relog: &WriteBuffer,
) -> Result<Wal, StoreError> {
    let wal_path = dir.join(wal_file(new_wal_seq));
    let result = (|| {
        let mut wal = Wal::create(&wal_path, dims)?;
        for (id, row) in relog.live_entries() {
            wal.append(&WalRecord::Insert {
                id,
                vector: row.to_vec(),
            })?;
        }
        wal.sync()?;
        let manifest = Manifest {
            dims,
            config,
            wal_seq: new_wal_seq,
            next_segment_seq,
            segments: segment_seqs,
            tombstones,
        };
        manifest.write_atomic(dir)?;
        Ok(wal)
    })();
    if result.is_err() {
        std::fs::remove_file(&wal_path).ok();
    }
    result
}

/// The external ids of every masked row, ascending: the manifest's
/// tombstone list.
fn tombstone_ids(segments: &[SegmentView]) -> Vec<u64> {
    let mut ids: Vec<u64> = segments
        .iter()
        .flat_map(|v| {
            let remap = v.segment.remap();
            v.dead.iter().map(move |row| remap[row as usize])
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Deletes files in `dir` that match the store's naming scheme but are
/// unreachable from `manifest`: segments a failed commit wrote before
/// its manifest rename, superseded or half-created WAL generations, and
/// a stranded `MANIFEST.tmp`. Only files the store itself would have
/// created are touched.
fn clean_orphans(dir: &Path, manifest: &Manifest) {
    let keep_segments: HashSet<u64> = manifest.segments.iter().copied().collect();
    let keep_wal = wal_file(manifest.wal_seq);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let orphan = if name == "MANIFEST.tmp" {
            true
        } else if let Some(seq) = parse_seq(name, "seg-", ".pdx") {
            !keep_segments.contains(&seq) && name == segment_file(seq)
        } else if let Some(seq) = parse_seq(name, "seg-", ".ids") {
            !keep_segments.contains(&seq) && name == segment_ids_file(seq)
        } else if parse_seq(name, "wal-", ".log").is_some() {
            name != keep_wal
        } else {
            false
        };
        if orphan {
            std::fs::remove_file(entry.path()).ok();
        }
    }
}

/// Parses the sequence number out of a `<prefix><seq><suffix>` file
/// name.
fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

impl Drop for Collection {
    /// Retracts this collection's share of the global buffer/tombstone
    /// gauges, so dropped collections (tests, closed shards) don't
    /// leave phantom rows behind.
    fn drop(&mut self) {
        let m = crate::obs::state_metrics();
        m.buffer_rows
            .sub(self.obs_buffer_rows.load(Ordering::Relaxed));
        m.tombstones
            .sub(self.obs_tombstones.load(Ordering::Relaxed));
    }
}

impl VectorIndex for Collection {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.snapshot().live_len()
    }

    fn kind(&self) -> &'static str {
        "collection"
    }

    /// A lock-free snapshot read: clones the current view's `Arc` and
    /// runs the canonical merged search against it (see
    /// [`Snapshot::search`](crate::Snapshot)); bit-identical to the
    /// single-owner sequential semantics at the moment the view was
    /// published.
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        self.snapshot().search(query, opts)
    }

    /// Pins one snapshot for the whole batch, so every query in it
    /// answers against the same state even while writers land.
    fn search_batch(&self, queries: &[f32], opts: &SearchOptions) -> Vec<Vec<Neighbor>> {
        self.snapshot().search_batch(queries, opts)
    }

    /// Approximate payload footprint: live vectors × (per-dimension
    /// scan bytes + 8-byte id). Quantized collections also keep the
    /// `f32` rerank rows resident.
    fn resident_bytes(&self) -> u64 {
        let live = self.snapshot().live_len() as u64;
        let per_row = if self.config().quantize {
            // u8 codes + f32 rerank row
            self.dims as u64 * 5
        } else {
            self.dims as u64 * 4
        };
        live * (per_row + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdx_core::engine::SearchOptions;
    use std::collections::{BTreeMap, BTreeSet};

    fn small_config() -> StoreConfig {
        StoreConfig {
            block_size: 16,
            group_size: 8,
            buffer_capacity: 32,
            quantize: false,
        }
    }

    fn ids_of(hits: &[Neighbor]) -> Vec<u64> {
        hits.iter().map(|n| n.id).collect()
    }

    #[test]
    fn insert_search_delete_in_memory() {
        let coll = Collection::in_memory(2, small_config());
        for i in 0..10u64 {
            coll.insert(i, &[i as f32, 0.0]).unwrap();
        }
        assert_eq!(coll.live_len(), 10);
        let hits = coll.search(&[0.0, 0.0], &SearchOptions::new(3));
        assert_eq!(ids_of(&hits), vec![0, 1, 2]);

        coll.delete(1).unwrap();
        let hits = coll.search(&[0.0, 0.0], &SearchOptions::new(3));
        assert_eq!(ids_of(&hits), vec![0, 2, 3]);
        assert!(matches!(coll.delete(1), Err(StoreError::NotFound(1))));
        assert!(matches!(
            coll.insert(0, &[9.0, 9.0]),
            Err(StoreError::DuplicateId(0))
        ));
    }

    #[test]
    fn auto_seal_keeps_results_and_reserves_tombstoned_ids() {
        let coll = Collection::in_memory(2, small_config());
        for i in 0..80u64 {
            coll.insert(i, &[i as f32, 0.0]).unwrap();
        }
        // capacity 32: two seals happened, a partial buffer remains.
        assert_eq!(coll.segment_count(), 2);
        assert_eq!(coll.buffer_len(), 80 - 64);
        let hits = coll.search(&[5.0, 0.0], &SearchOptions::new(3));
        assert_eq!(ids_of(&hits), vec![5, 4, 6]);

        // Delete a sealed row: tombstoned, filtered, id reserved.
        coll.delete(5).unwrap();
        assert_eq!(coll.tombstone_count(), 1);
        let hits = coll.search(&[5.0, 0.0], &SearchOptions::new(3));
        assert_eq!(ids_of(&hits), vec![4, 6, 3]);
        assert!(matches!(
            coll.insert(5, &[5.0, 0.0]),
            Err(StoreError::DuplicateId(5))
        ));

        // Compaction purges the row and frees the id.
        coll.compact().unwrap();
        assert_eq!(coll.segment_count(), 1);
        assert_eq!(coll.tombstone_count(), 0);
        assert_eq!(coll.live_len(), 79);
        coll.insert(5, &[5.0, 0.0]).unwrap();
        let hits = coll.search(&[5.0, 0.0], &SearchOptions::new(1));
        assert_eq!(ids_of(&hits), vec![5]);
    }

    #[test]
    fn bulk_insert_matches_the_insert_loop_and_validates_up_front() {
        let rows: Vec<f32> = (0..200).map(|i| i as f32).collect(); // 100 × 2
        let a = Collection::in_memory(2, small_config());
        a.bulk_insert(10, &rows).unwrap();
        assert_eq!(a.buffer_len(), 0, "bulk load ends sealed");
        assert_eq!(a.segment_count(), 1, "sealed once, past the capacity");
        let b = Collection::in_memory(2, small_config());
        for i in 0..100 {
            b.insert(10 + i as u64, &rows[i * 2..(i + 1) * 2]).unwrap();
        }
        b.seal().unwrap();
        let opts = SearchOptions::new(5);
        assert_eq!(a.search(&[3.0, 4.0], &opts), b.search(&[3.0, 4.0], &opts));

        // A conflict anywhere in the range aborts before anything lands.
        let err = a.bulk_insert(105, &rows[..4]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateId(105)));
        assert_eq!(a.live_len(), 100);
        assert!(matches!(
            a.bulk_insert(500, &rows[..3]),
            Err(StoreError::DimsMismatch { .. })
        ));
    }

    #[test]
    fn bulk_insert_past_the_largest_id_is_rejected_unapplied() {
        let coll = Collection::in_memory(2, small_config());
        coll.bulk_insert(0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let opts = SearchOptions::new(5);
        let before = coll.search(&[0.0, 0.0], &opts);
        let err = coll.bulk_insert(u64::MAX, &[5.0; 4]).unwrap_err();
        let StoreError::IdOverflow { first, rows } = err else {
            panic!("{err}")
        };
        assert_eq!((first, rows), (u64::MAX, 2));
        assert_eq!(coll.live_len(), 2);
        assert_eq!(coll.max_id(), Some(1));
        assert_eq!(coll.search(&[0.0, 0.0], &opts), before);
        // The range may end exactly at the largest id.
        coll.bulk_insert(u64::MAX - 1, &[5.0; 4]).unwrap();
        assert_eq!(coll.max_id(), Some(u64::MAX));
    }

    #[test]
    fn compact_of_empty_collection_is_fine() {
        let coll = Collection::in_memory(3, small_config());
        coll.compact().unwrap();
        assert_eq!(coll.live_len(), 0);
        coll.insert(1, &[0.0; 3]).unwrap();
        coll.delete(1).unwrap();
        coll.compact().unwrap();
        assert_eq!(coll.segment_count(), 0);
        assert!(coll.search(&[0.0; 3], &SearchOptions::new(1)).is_empty());
    }

    #[test]
    fn quantized_collection_reranks_exactly() {
        let coll = Collection::in_memory(
            4,
            StoreConfig {
                quantize: true,
                ..small_config()
            },
        );
        for i in 0..60u64 {
            let x = i as f32 * 0.25;
            coll.insert(i, &[x, -x, x * 0.5, 1.0]).unwrap();
        }
        coll.seal().unwrap();
        assert_eq!(coll.segment_stats()[0].kind, "flat-sq8");
        let hits = coll.search(&[2.5, -2.5, 1.25, 1.0], &SearchOptions::new(2));
        assert_eq!(ids_of(&hits), vec![10, 9]);
    }

    #[test]
    fn snapshot_pins_a_state_across_mutations() {
        let coll = Collection::in_memory(2, small_config());
        for i in 0..50u64 {
            coll.insert(i, &[i as f32, 0.0]).unwrap();
        }
        let snap = coll.snapshot();
        let opts = SearchOptions::new(4);
        let before = snap.search(&[0.0, 0.0], &opts);

        coll.delete(0).unwrap();
        coll.delete(1).unwrap();
        coll.insert(1000, &[0.5, 0.0]).unwrap();

        // The pinned snapshot answers exactly as before…
        let pinned = snap.search(&[0.0, 0.0], &opts);
        assert_eq!(before, pinned);
        assert_eq!(snap.live_len(), 50);
        // …while the collection reflects the mutations.
        let now = coll.search(&[0.0, 0.0], &opts);
        assert_eq!(ids_of(&now), vec![1000, 2, 3, 4]);
    }

    #[test]
    fn background_compaction_commits_and_frees_ids() {
        let coll = Arc::new(Collection::in_memory(2, small_config()));
        for i in 0..100u64 {
            coll.insert(i, &[i as f32, 0.0]).unwrap();
        }
        for i in (0..100u64).step_by(3) {
            coll.delete(i).unwrap();
        }
        let job = coll.compact_background().unwrap();
        // A second maintenance op is refused while the job runs (the
        // job may already have finished on a fast machine, so only the
        // error type is asserted when it occurs).
        if let Err(e) = coll.compact() {
            assert!(matches!(e, StoreError::MaintenanceBusy));
        }
        job.wait().unwrap();
        assert_eq!(coll.maintenance_in_flight(), 0);
        assert_eq!(coll.tombstone_count(), 0);
        assert_eq!(coll.segment_count(), 1);
        assert_eq!(coll.live_len(), 100 - 34);
        // Tombstoned ids are reusable after the commit.
        coll.insert(0, &[0.0, 0.0]).unwrap();
        let hits = coll.search(&[0.0, 0.0], &SearchOptions::new(1));
        assert_eq!(ids_of(&hits), vec![0]);
    }

    #[test]
    fn writes_during_background_compaction_survive() {
        let coll = Arc::new(Collection::in_memory(2, small_config()));
        for i in 0..64u64 {
            coll.insert(i, &[i as f32, 0.0]).unwrap();
        }
        coll.delete(10).unwrap();
        let job = coll.compact_background().unwrap();
        // Land writes while the job is (possibly) still running.
        for i in 100..140u64 {
            coll.insert(i, &[i as f32, 0.0]).unwrap();
        }
        coll.delete(20).unwrap();
        job.wait().unwrap();
        assert_eq!(coll.live_len(), 64 - 2 + 40);
        assert!(coll.contains(100));
        assert!(!coll.contains(20));
        let hits = coll.search(&[100.0, 0.0], &SearchOptions::new(1));
        assert_eq!(ids_of(&hits), vec![100]);
    }

    /// The live rows as the test knows them: external id → vector.
    type Model = BTreeMap<u64, Vec<f32>>;

    /// The state machine draws its ids from `0..ID_SPACE`.
    const ID_SPACE: u64 = 600;

    /// The exact top-`k` of `rows` (external id → vector), canonical.
    fn brute_force<'a>(
        rows: impl Iterator<Item = (u64, &'a Vec<f32>)>,
        q: &[f32],
        k: usize,
    ) -> Vec<Neighbor> {
        let mut heap = pdx_core::heap::KnnHeap::new(k);
        for (id, row) in rows {
            let metric = pdx_core::distance::Metric::L2;
            heap.push(id, pdx_core::distance::distance_scalar(metric, q, row));
        }
        heap.into_sorted()
    }

    /// What the collection must answer, from the model alone for an
    /// `f32` collection (integer coordinates make every summation order
    /// exact, so a brute-force scan has the answer's bits) and, for an SQ8
    /// one, from each segment rebuilt without its dead rows under its own
    /// quantizer, merged with the exact scan of the unsealed rows.
    fn expected(
        coll: &Collection,
        model: &Model,
        q: &[f32],
        opts: &SearchOptions,
    ) -> Vec<Neighbor> {
        if !coll.config.quantize {
            return brute_force(model.iter().map(|(&id, row)| (id, row)), q, opts.k);
        }
        let w = coll.lock_writer();
        let mut lists = Vec::new();
        for view in &w.segments {
            let without = view
                .segment
                .sq8_without(&view.dead)
                .expect("an SQ8 segment");
            let mut hits = without.search(q, opts);
            for n in &mut hits {
                n.id = view.segment.remap()[n.id as usize];
            }
            lists.push(hits);
        }
        let sealed = |id: &u64| w.segments.iter().any(|v| v.segment.remap().contains(id));
        let unsealed = model.iter().filter(|(id, _)| !sealed(id));
        lists.push(brute_force(unsealed.map(|(&id, row)| (id, row)), q, opts.k));
        pdx_core::exec::merge_neighbors(&lists, opts.k)
    }

    /// The writer's record of deleted and taken ids agrees with the
    /// model: every segment's mask is exactly its rows whose id has left
    /// the model; over the whole id space, an id is reserved iff the model
    /// holds it or a segment masks its row (or, after a failed build, the
    /// sealing section holds it deleted), and live iff the model holds
    /// it; and `max_id` is the largest reserved id.
    fn assert_reservations_match_the_model(coll: &Collection, model: &Model) {
        let (masked, frozen_dead) = {
            let w = coll.lock_writer();
            let frozen_dead: BTreeSet<u64> = w
                .sealing
                .iter()
                .flat_map(|s| s.dead.iter())
                .copied()
                .collect();
            let mut masked = BTreeSet::new();
            for view in &w.segments {
                for (local, &id) in view.segment.remap().iter().enumerate() {
                    let dead = view.dead.contains(local as u64);
                    assert_eq!(dead, !model.contains_key(&id), "row {local} (id {id})");
                    if dead {
                        masked.insert(id);
                    }
                }
            }
            (masked, frozen_dead)
        };
        assert_eq!(coll.tombstone_count(), masked.len());
        assert_eq!(coll.snapshot().tombstone_count(), masked.len());
        for id in 0..ID_SPACE {
            let live = model.contains_key(&id);
            let reserved = live || masked.contains(&id) || frozen_dead.contains(&id);
            assert_eq!(coll.is_id_reserved(id), reserved, "id {id} reserved");
            assert_eq!(coll.contains(id), live, "id {id} live");
        }
        let largest = model.keys().chain(&masked).chain(&frozen_dead).max();
        assert_eq!(coll.max_id(), largest.copied());
    }

    #[test]
    fn mask_state_machine_matches_the_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (d, k) = (6usize, 5usize);
        for quantize in [false, true] {
            let dir = std::env::temp_dir().join(format!("pdx_store_mask_machine_{quantize}"));
            let _ = std::fs::remove_dir_all(&dir);
            let config = StoreConfig {
                quantize,
                ..small_config()
            };
            let mut coll = Collection::create(&dir, d, config).unwrap();
            let mut model = Model::new();
            let mut rng = StdRng::seed_from_u64(0x5eed + u64::from(quantize));
            let point = |rng: &mut StdRng| -> Vec<f32> {
                (0..d).map(|_| rng.random_range(-8i32..=8) as f32).collect()
            };
            let insert = |coll: &Collection, model: &mut Model, rng: &mut StdRng, most: usize| {
                for _ in 0..rng.random_range(1..most) {
                    let id = rng.random_range(0..ID_SPACE);
                    if !coll.is_id_reserved(id) {
                        let row = point(rng);
                        coll.insert(id, &row).unwrap();
                        model.insert(id, row);
                    }
                }
            };
            let delete = |coll: &Collection, model: &mut Model, rng: &mut StdRng, most: usize| {
                for _ in 0..rng.random_range(1..most).min(model.len()) {
                    let nth = rng.random_range(0..model.len());
                    let id = *model.keys().nth(nth).unwrap();
                    coll.delete(id).unwrap();
                    model.remove(&id);
                }
            };
            for step in 0..120 {
                match rng.random_range(0..20u32) {
                    0..=7 => insert(&coll, &mut model, &mut rng, 40),
                    8..=13 => delete(&coll, &mut model, &mut rng, 25),
                    14 => coll.seal().unwrap(),
                    15 => {
                        // Every dead row is purged, the segments stay
                        // within the tiers' bound, and a persisted reopen
                        // answers as the compacted collection does.
                        coll.compact().unwrap();
                        assert_eq!(coll.tombstone_count(), 0, "step {step}");
                        let bound = model.len().max(1).ilog(TIER_RATIO) as usize + 2;
                        let segments = coll.segment_count();
                        assert!(segments <= bound, "step {step}: {segments} segments");
                        let probe: Vec<f32> = (0..d).map(|i| i as f32 - 3.0).collect();
                        let (opts, stats) = (SearchOptions::new(k), coll.segment_stats());
                        let before = coll.search(&probe, &opts);
                        assert_eq!(before, expected(&coll, &model, &probe, &opts));
                        drop(coll);
                        coll = Collection::open(&dir).unwrap();
                        assert_eq!(coll.segment_stats(), stats, "step {step}");
                        assert_eq!(coll.search(&probe, &opts), before, "step {step}");
                    }
                    op @ 16..=17 => {
                        // A background job's three phases, with writes
                        // landing while the segment is built.
                        let kind = [MaintKind::Seal, MaintKind::Compact][op as usize - 16];
                        let _claim = coll.try_claim(false).unwrap();
                        let plan = coll.plan_maintenance(&mut coll.lock_writer(), kind);
                        if let Some(plan) = plan {
                            let built = coll.build_maintenance(&plan).unwrap();
                            delete(&coll, &mut model, &mut rng, 25);
                            insert(&coll, &mut model, &mut rng, 10);
                            let mut w = coll.lock_writer();
                            coll.commit_maintenance(&mut w, &plan, built).unwrap();
                        }
                    }
                    18 => {
                        // A build that fails: the frozen rows stay in the
                        // sealing section, deletes of them land there, and
                        // the next maintenance run takes them back.
                        let _claim = coll.try_claim(false).unwrap();
                        coll.plan_maintenance(&mut coll.lock_writer(), MaintKind::Seal);
                        delete(&coll, &mut model, &mut rng, 25);
                    }
                    _ => {
                        drop(coll);
                        coll = Collection::open(&dir).unwrap();
                    }
                }
                assert_eq!(coll.live_len(), model.len(), "step {step}");
                assert_reservations_match_the_model(&coll, &model);
                let queries: Vec<f32> = (0..2).flat_map(|_| point(&mut rng)).collect();
                let opts = SearchOptions::new(k);
                let at = format!("step {step} quantize={quantize}");
                let mut want = Vec::new();
                for q in queries.chunks_exact(d) {
                    let got = coll.search(q, &opts);
                    assert_eq!(got, expected(&coll, &model, q, &opts), "{at}");
                    assert_eq!(got, coll.search(q, &opts.with_trace(true)), "{at}");
                    want.push(got);
                }
                for threads in [1usize, 2, 8] {
                    let batch = coll.search_batch(&queries, &opts.with_threads(threads));
                    assert_eq!(batch, want, "{at} at {threads} threads");
                }
            }
            assert!(coll.segment_count() > 0 && !model.is_empty());
            drop(coll);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn mask_keeps_the_rerank_at_refine_times_k() {
        let (n, d, k) = (2_000usize, 8usize, 10usize);
        let config = StoreConfig {
            block_size: 512,
            group_size: 64,
            buffer_capacity: 4_096,
            quantize: true,
        };
        let coll = Collection::in_memory(d, config);
        let rows: Vec<f32> = (0..n * d).map(|i| (i as f32 * 0.61).sin()).collect();
        coll.bulk_insert(0, &rows).unwrap();
        for id in (0..n as u64).step_by(10) {
            coll.delete(id).unwrap();
        }
        let stats = coll.segment_stats();
        assert_eq!((stats.len(), stats[0].rows, stats[0].dead), (1, n, 200));
        // A count, not a timing: one segment scanned for `refine · k`
        // candidates however many of its rows are dead.
        let opts = SearchOptions::new(k).with_trace(true);
        let (hits, trace) = pdx_obs::trace::capture(|| coll.search(&rows[..d], &opts));
        assert_eq!(trace.rerank_candidates, (opts.refine * k) as u64);
        assert_eq!(hits.len(), k);
        assert!(hits.iter().all(|hit| hit.id % 10 != 0));
    }
}
