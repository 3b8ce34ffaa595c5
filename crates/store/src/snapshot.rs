//! The immutable read view of a collection: what searches actually run
//! against.
//!
//! A [`Collection`](crate::Collection) keeps exactly one current
//! [`Snapshot`] behind an atomically-swapped `Arc`. Readers clone the
//! `Arc` (one refcount bump) and search a frozen, internally consistent
//! state — sealed segments with their dead-row masks, an optional
//! in-flight sealing section, and the write-buffer view — while the
//! writer keeps mutating and publishing newer snapshots. No search ever
//! takes the writer lock, and no writer ever waits for a search.
//!
//! Everything inside a snapshot is structurally shared: segments are
//! `Arc<Segment>`, each segment's [`RowMask`] shares its pages with the
//! writer's copy (a delete copies one page), and the buffer view shares
//! chunks with the live buffer. Publishing a new snapshot after a single
//! insert or delete is therefore cheap — a handful of `Arc` clones — not
//! a copy of the collection.

use crate::buffer::BufferSnapshot;
use crate::Segment;
use pdx_core::engine::{SearchOptions, VectorIndex};
use pdx_core::exec::merge_neighbors;
use pdx_core::heap::Neighbor;
use pdx_core::mask::RowMask;
use std::sync::Arc;

/// One sealed segment as seen by a snapshot: the shared immutable
/// segment plus the local ids of its rows that were tombstoned when the
/// snapshot was taken, which its scan skips.
#[derive(Debug, Clone)]
pub struct SegmentView {
    /// The immutable sealed segment.
    pub segment: Arc<Segment>,
    /// Tombstoned rows of this segment at snapshot time (local ids).
    pub dead: RowMask,
}

impl SegmentView {
    /// Masks the row that holds external id `id`; `false` if the segment
    /// has no such row (or it is masked already). One binary search: the
    /// remap is strictly increasing.
    pub(crate) fn mask_id(&mut self, id: u64) -> bool {
        let local = self.segment.remap().binary_search(&id);
        local.is_ok_and(|local| self.dead.insert(local as u64))
    }
}

/// An immutable, internally consistent point-in-time view of a
/// collection, searchable through [`VectorIndex`] without any locking.
///
/// Obtained from [`Collection::snapshot`](crate::Collection::snapshot)
/// (or implicitly by every `Collection` search). Results are
/// bit-identical to searching the collection itself at the moment the
/// snapshot was published, no matter what the writer does afterwards.
///
/// ## Tombstones on the read path
///
/// A deleted sealed row stays in its segment until compaction; the
/// segment's mask holds its local row id and goes into the segment's
/// scan (`Segment::search`), which skips the row: it takes no slot of
/// the scan's heap and does not loosen its threshold, and `k` stays
/// `k`. The contract, per segment kind:
///
/// * an `f32` segment answers with its exact top-`k` live rows, the
///   distance bits those of the unmasked scan;
/// * an SQ8 segment answers, bit for bit, as the same segment would with
///   the dead rows physically absent under the same quantizer: the
///   `refine · k` best live estimates are reranked. (A scan that
///   over-fetched `k + dead` would rerank `(k + dead) · refine`
///   candidates and could rescue a row this one does not.)
///
/// Both are independent of thread count, kernel policy and tracing. The
/// masks are the collection's only record of its deleted sealed rows:
/// the manifest's tombstone list is read off them at every commit.
#[derive(Debug, Clone)]
pub struct Snapshot {
    dims: usize,
    segments: Vec<SegmentView>,
    /// Buffer rows frozen by an in-flight seal/compaction, still served
    /// from memory until the job commits.
    sealing: Option<BufferSnapshot>,
    buffer: BufferSnapshot,
    live: usize,
}

impl Snapshot {
    /// Assembles a snapshot (crate-internal: the collection's writer
    /// half publishes these).
    pub(crate) fn new(
        dims: usize,
        segments: Vec<SegmentView>,
        sealing: Option<BufferSnapshot>,
        buffer: BufferSnapshot,
        live: usize,
    ) -> Self {
        Self {
            dims,
            segments,
            sealing,
            buffer,
            live,
        }
    }

    /// Dimensionality of the collection.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of live (searchable) vectors in this view.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Number of sealed segments in this view.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of tombstoned ids in this view.
    pub fn tombstone_count(&self) -> usize {
        self.segments.iter().map(|v| v.dead.len()).sum()
    }
}

impl VectorIndex for Snapshot {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.live
    }

    fn kind(&self) -> &'static str {
        "collection-snapshot"
    }

    /// The collection's read path, frozen at snapshot time: the exact
    /// scans of the memory-resident rows (the in-flight sealing section,
    /// if any, and the write buffer) and every segment's top-`k` live
    /// rows under external ids (`Segment::search`), merged in one
    /// canonical `(distance, id)` pass. `k == 0` answers empty without
    /// scanning.
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        if opts.k == 0 {
            return Vec::new();
        }
        let variant = opts.kernel.horizontal_variant();
        let memory = self.sealing.iter().chain([&self.buffer]);
        let scan = |rows: &BufferSnapshot| rows.scan(query, opts.k, opts.metric, variant);
        let sealed = |v: &SegmentView| v.segment.search(query, opts, &v.dead);
        let lists: Vec<Vec<Neighbor>> = memory
            .map(scan)
            .chain(self.segments.iter().map(sealed))
            .collect();
        merge_neighbors(&lists, opts.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::WriteBuffer;
    use crate::StoreConfig;

    /// A segment of one-dimensional points, point `p` under external id
    /// `100 + p`, in blocks of two.
    fn points(seq: u64, points: &[f32], quantize: bool) -> Arc<Segment> {
        let config = StoreConfig {
            block_size: 2,
            group_size: 2,
            buffer_capacity: 64,
            quantize,
        };
        let ids = points.iter().map(|&p| 100 + p as u64).collect();
        Arc::new(Segment::seal(seq, ids, points.to_vec(), 1, &config).unwrap())
    }

    /// The read path over real segments of both kinds: hits come back
    /// under external ids, a segment's dead rows never surface (and cost
    /// no slot of the top-`k`), the write buffer's rows merge in, and a
    /// batch split across workers answers like the sequential search.
    #[test]
    fn search_remaps_masks_merges_the_buffer_and_splits_alike() {
        for quantize in [false, true] {
            let a = points(0, &[0.0, 2.0, 4.0, 6.0], quantize);
            let b = points(1, &[1.0, 3.0, 5.0, 7.0], quantize);
            let mut buffer = WriteBuffer::new(1);
            let snapshot = |dead_in_a: &[u64], buffer: &WriteBuffer| {
                let view = |segment: &Arc<Segment>, dead: &[u64]| SegmentView {
                    segment: Arc::clone(segment),
                    dead: dead.iter().copied().collect(),
                };
                let segments = vec![view(&a, dead_in_a), view(&b, &[])];
                let live = 8 - dead_in_a.len() + buffer.len();
                Snapshot::new(1, segments, None, buffer.snapshot(), live)
            };
            let ids = |hits: &[Neighbor]| hits.iter().map(|n| n.id).collect::<Vec<_>>();
            let opts = SearchOptions::new(3);
            let tag = format!("quantize={quantize}");

            let got = snapshot(&[], &buffer).search(&[0.0], &opts);
            assert_eq!(ids(&got), [100, 101, 102], "{tag}");
            // Local row 0 of segment A (external id 100) is dead.
            let got = snapshot(&[0], &buffer).search(&[0.0], &opts);
            assert_eq!(ids(&got), [101, 102, 103], "{tag}");

            buffer.append(7, &[0.25]).unwrap();
            let snap = snapshot(&[0], &buffer);
            let got = snap.search(&[0.0], &opts);
            assert_eq!(ids(&got), [7, 101, 102], "{tag}");
            let distances: Vec<f32> = got.iter().map(|n| n.distance).collect();
            assert_eq!(distances, [0.0625, 1.0, 4.0], "{tag}");
            for threads in [1, 2, 4] {
                let batch = snap.search_batch(&[0.0, 0.0], &opts.with_threads(threads));
                assert_eq!(batch, vec![got.clone(); 2], "{tag} at {threads} threads");
            }
        }
    }
}
