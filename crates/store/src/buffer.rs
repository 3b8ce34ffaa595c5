//! The in-memory write buffer: the mutable head of a collection.
//!
//! The buffer is chunked and persistent (in the data-structure sense):
//! rows live in immutable reference-counted chunks, only the tail chunk
//! is ever mutated, and mutation goes through [`Arc::make_mut`] — so a
//! [`BufferSnapshot`] taken at any point keeps observing exactly the
//! rows it saw, for free, while the writer keeps appending. Deletes are
//! logical (a shared dead-id set) and are physically purged when the
//! buffer is sealed or when dead rows start to dominate.

use crate::StoreError;
use pdx_core::distance::Metric;
use pdx_core::heap::{KnnHeap, Neighbor};
use pdx_core::kernels::{nary_distance, KernelVariant};
use std::collections::HashSet;
use std::sync::Arc;

/// Rows per buffer chunk. Small enough that the copy-on-write tail
/// clone after a snapshot stays cheap, large enough that a snapshot of
/// a full buffer is a short `Vec` of `Arc`s.
const CHUNK_ROWS: usize = 32;

/// One immutable run of buffered rows (ids parallel to row data).
#[derive(Debug, Clone, Default)]
pub(crate) struct BufChunk {
    pub(crate) ids: Vec<u64>,
    pub(crate) rows: Vec<f32>,
}

impl BufChunk {
    pub(crate) fn row(&self, pos: usize, dims: usize) -> &[f32] {
        &self.rows[pos * dims..(pos + 1) * dims]
    }
}

/// An append buffer of `(external id, vector)` pairs, searched by exact
/// linear scan through its [`snapshot`](WriteBuffer::snapshot).
///
/// The buffer is the only mutable part of a
/// [`Collection`](crate::Collection): inserts append here (after being
/// logged to the WAL), deletes of buffered rows hide them in place, and
/// a seal drains the whole buffer into an immutable segment. The
/// collection's writer knows which ids are buffered, and checks a
/// duplicate insert or a delete of a row the buffer does not hold
/// before it calls in, so the buffer keeps no id index of its own.
#[derive(Debug, Clone, Default)]
pub(crate) struct WriteBuffer {
    dims: usize,
    /// Full immutable chunks of `CHUNK_ROWS` rows each, oldest first.
    full: Vec<Arc<BufChunk>>,
    /// The growing tail chunk (copy-on-write once snapshotted).
    tail: Arc<BufChunk>,
    /// Ids logically deleted but still physically present in a chunk
    /// (each once: a re-insert purges its dead row first).
    dead: Arc<HashSet<u64>>,
}

impl WriteBuffer {
    /// An empty buffer for `dims`-dimensional vectors.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub(crate) fn new(dims: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        Self {
            dims,
            full: Vec::new(),
            tail: Arc::new(BufChunk::default()),
            dead: Arc::new(HashSet::new()),
        }
    }

    /// Number of buffered (live) vectors: the physical rows minus the
    /// logically deleted ones.
    pub(crate) fn len(&self) -> usize {
        self.full.len() * CHUNK_ROWS + self.tail.ids.len() - self.dead.len()
    }

    /// Appends one vector under an external id the caller has checked
    /// is free.
    ///
    /// # Errors
    /// [`StoreError::DimsMismatch`] for a wrong-length vector.
    pub(crate) fn append(&mut self, id: u64, vector: &[f32]) -> Result<(), StoreError> {
        if vector.len() != self.dims {
            return Err(StoreError::DimsMismatch {
                expected: self.dims,
                got: vector.len(),
            });
        }
        // A re-insert of a logically deleted id must not leave two
        // physical rows with the same id behind a snapshot-visible
        // chunk, so drop the dead rows first (rare path).
        if self.dead.contains(&id) {
            self.purge_dead();
        }
        self.push_row(id, vector);
        Ok(())
    }

    /// Appends a row to the tail chunk, first retiring a full tail.
    fn push_row(&mut self, id: u64, vector: &[f32]) {
        if self.tail.ids.len() >= CHUNK_ROWS {
            let sealed = std::mem::take(&mut self.tail);
            self.full.push(sealed);
        }
        let tail = Arc::make_mut(&mut self.tail);
        tail.ids.push(id);
        tail.rows.extend_from_slice(vector);
    }

    /// Removes a buffered vector the caller has checked is live
    /// (logically; the row is hidden from snapshots immediately and
    /// physically dropped at the next seal or purge).
    pub(crate) fn remove(&mut self, id: u64) {
        Arc::make_mut(&mut self.dead).insert(id);
        // Keep memory bounded when deletes dominate: once dead rows
        // outnumber live ones, rebuild the chunks without them.
        if self.dead.len() >= CHUNK_ROWS * 2 && self.dead.len() > self.len() {
            self.purge_dead();
        }
    }

    /// Rebuilds the chunks without the logically deleted rows.
    fn purge_dead(&mut self) {
        if self.dead.is_empty() {
            return;
        }
        let entries: Vec<(u64, Vec<f32>)> = self
            .live_entries()
            .map(|(id, row)| (id, row.to_vec()))
            .collect();
        self.full.clear();
        self.tail = Arc::new(BufChunk::default());
        self.dead = Arc::new(HashSet::new());
        for (id, row) in entries {
            self.push_row(id, &row);
        }
    }

    /// The live entries, in chunk order (the WAL re-log order at a
    /// maintenance commit).
    pub(crate) fn live_entries(&self) -> impl Iterator<Item = (u64, &[f32])> {
        let (dims, dead) = (self.dims, &self.dead);
        self.full
            .iter()
            .chain(std::iter::once(&self.tail))
            .flat_map(move |chunk| live_rows(chunk, dims, dead))
    }

    /// Freezes the current live contents for sealing: physically purges
    /// logically deleted rows, hands the chunk list to the caller, and
    /// leaves the buffer empty. The returned chunks are immutable and
    /// hold live rows only.
    pub(crate) fn freeze(&mut self) -> Vec<Arc<BufChunk>> {
        self.purge_dead();
        let mut chunks = std::mem::take(&mut self.full);
        let tail = std::mem::take(&mut self.tail);
        if !tail.ids.is_empty() {
            chunks.push(tail);
        }
        chunks
    }

    /// An immutable view of the current contents. The snapshot keeps
    /// observing exactly the rows (and deletions) visible now, no
    /// matter how the buffer mutates afterwards; taking one costs a
    /// handful of `Arc` clones plus one tail-chunk copy-on-write at the
    /// next append.
    pub(crate) fn snapshot(&self) -> BufferSnapshot {
        let mut chunks = self.full.clone();
        if !self.tail.ids.is_empty() {
            chunks.push(Arc::clone(&self.tail));
        }
        BufferSnapshot {
            dims: self.dims,
            chunks,
            dead: Arc::clone(&self.dead),
            live: self.len(),
        }
    }
}

/// The rows of `chunk` whose ids are not in `dead`, in chunk order.
fn live_rows<'a>(
    chunk: &'a BufChunk,
    dims: usize,
    dead: &'a HashSet<u64>,
) -> impl Iterator<Item = (u64, &'a [f32])> {
    chunk
        .ids
        .iter()
        .enumerate()
        .filter(move |(_, id)| !dead.contains(id))
        .map(move |(pos, &id)| (id, chunk.row(pos, dims)))
}

/// An immutable point-in-time view of a [`WriteBuffer`].
///
/// Snapshots share chunk storage with the buffer (and with each other);
/// they are cheap to clone and are `Send + Sync`.
#[derive(Debug, Clone, Default)]
pub(crate) struct BufferSnapshot {
    dims: usize,
    chunks: Vec<Arc<BufChunk>>,
    dead: Arc<HashSet<u64>>,
    live: usize,
}

impl BufferSnapshot {
    /// Assembles a view from raw parts (the frozen buffer section of an
    /// in-flight seal).
    pub(crate) fn from_parts(
        dims: usize,
        chunks: Vec<Arc<BufChunk>>,
        dead: Arc<HashSet<u64>>,
        live: usize,
    ) -> Self {
        Self {
            dims,
            chunks,
            dead,
            live,
        }
    }

    /// The live entries of the view, in chunk order.
    pub(crate) fn live_entries(&self) -> impl Iterator<Item = (u64, &[f32])> {
        let (dims, dead) = (self.dims, &self.dead);
        self.chunks
            .iter()
            .flat_map(move |chunk| live_rows(chunk, dims, dead))
    }

    /// Exact linear scan: the canonical top-`k` of the view's live rows
    /// by `(distance, external id)`.
    pub(crate) fn scan(
        &self,
        query: &[f32],
        k: usize,
        metric: Metric,
        variant: KernelVariant,
    ) -> Vec<Neighbor> {
        if self.live == 0 {
            return Vec::new();
        }
        let mut heap = KnnHeap::new(k);
        for (id, row) in self.live_entries() {
            heap.push(id, nary_distance(metric, variant, query, row));
        }
        heap.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids of the top-`k` rows of `buf`'s snapshot for `query`.
    fn top(buf: &WriteBuffer, query: &[f32], k: usize) -> Vec<u64> {
        let hits = buf
            .snapshot()
            .scan(query, k, Metric::L2, KernelVariant::Scalar);
        hits.iter().map(|n| n.id).collect()
    }

    /// The live entries of `snap` sorted by external id, as ids and rows.
    fn sorted(snap: &BufferSnapshot) -> (Vec<u64>, Vec<f32>) {
        let mut entries: Vec<(u64, &[f32])> = snap.live_entries().collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        let ids = entries.iter().map(|&(id, _)| id).collect();
        let rows = entries.iter().flat_map(|&(_, row)| row.iter().copied());
        (ids, rows.collect())
    }

    #[test]
    fn append_scan_and_remove() {
        let mut buf = WriteBuffer::new(2);
        buf.append(10, &[0.0, 0.0]).unwrap();
        buf.append(7, &[1.0, 0.0]).unwrap();
        buf.append(3, &[2.0, 0.0]).unwrap();
        assert_eq!(buf.len(), 3);
        assert_eq!(top(&buf, &[0.0, 0.0], 2), [10, 7]);

        buf.remove(10);
        assert_eq!(buf.len(), 2);
        assert_eq!(top(&buf, &[0.0, 0.0], 2), [7, 3]);
    }

    #[test]
    fn duplicate_and_ragged_appends_are_typed_errors() {
        let mut buf = WriteBuffer::new(2);
        buf.append(1, &[0.0, 0.0]).unwrap();
        assert!(matches!(
            buf.append(2, &[1.0]),
            Err(StoreError::DimsMismatch {
                expected: 2,
                got: 1
            })
        ));
        // The failed append left no trace.
        assert_eq!(buf.len(), 1);

        // The writer rejects a buffered duplicate before it reaches the
        // buffer, and the buffer keeps the first row.
        use pdx_core::VectorIndex;
        let coll = crate::Collection::in_memory(2, crate::StoreConfig::default());
        coll.insert(1, &[0.0, 0.0]).unwrap();
        assert!(matches!(
            coll.insert(1, &[1.0, 1.0]),
            Err(StoreError::DuplicateId(1))
        ));
        assert_eq!(coll.live_len(), 1);
        let hits = coll.search(&[1.0, 1.0], &pdx_core::engine::SearchOptions::new(2));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 2.0);
    }

    #[test]
    fn entries_sorted_by_external_id() {
        let mut buf = WriteBuffer::new(1);
        for id in [5u64, 1, 9, 2] {
            buf.append(id, &[id as f32]).unwrap();
        }
        buf.remove(9);
        assert_eq!(
            sorted(&buf.snapshot()),
            (vec![1, 2, 5], vec![1.0, 2.0, 5.0])
        );
        let relog: Vec<u64> = buf.live_entries().map(|(id, _)| id).collect();
        assert_eq!(relog, [5, 1, 2], "the re-log keeps chunk order");
    }

    #[test]
    fn snapshot_is_immune_to_later_mutation() {
        let mut buf = WriteBuffer::new(1);
        for id in 0..100u64 {
            buf.append(id, &[id as f32]).unwrap();
        }
        let snap = buf.snapshot();

        // Mutate the buffer heavily after the snapshot.
        for id in 0..50u64 {
            buf.remove(id);
        }
        for id in 200..260u64 {
            buf.append(id, &[id as f32]).unwrap();
        }
        buf.remove(203);

        // The snapshot still sees exactly the original 100 rows.
        let hits = snap.scan(&[0.0], 3, Metric::L2, KernelVariant::Scalar);
        let ids: Vec<u64> = hits.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(sorted(&snap).0, (0..100).collect::<Vec<u64>>());

        // And the buffer sees the new state.
        assert_eq!(buf.len(), 109);
        let now = sorted(&buf.snapshot()).0;
        assert!(!now.contains(&3) && !now.contains(&203) && now.contains(&204));
        assert_eq!(now.len(), 109);
    }

    #[test]
    fn reinsert_after_buffer_delete_keeps_one_physical_row() {
        let mut buf = WriteBuffer::new(1);
        buf.append(1, &[1.0]).unwrap();
        buf.append(2, &[2.0]).unwrap();
        buf.remove(1);
        buf.append(1, &[10.0]).unwrap();
        assert_eq!(buf.len(), 2);
        let hits = buf
            .snapshot()
            .scan(&[10.0], 2, Metric::L2, KernelVariant::Scalar);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[0].distance, 0.0);
        assert_eq!(sorted(&buf.snapshot()), (vec![1, 2], vec![10.0, 2.0]));
    }

    #[test]
    fn heavy_deletes_purge_physical_rows() {
        let mut buf = WriteBuffer::new(1);
        for id in 0..256u64 {
            buf.append(id, &[id as f32]).unwrap();
        }
        for id in 0..200u64 {
            buf.remove(id);
        }
        assert_eq!(buf.len(), 56);
        assert_eq!(sorted(&buf.snapshot()).0, (200..256).collect::<Vec<u64>>());
        // The purge heuristic kicked in: dead rows were dropped.
        assert!(buf.dead.len() < 200);
    }
}
