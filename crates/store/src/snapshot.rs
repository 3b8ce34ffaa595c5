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
use std::collections::HashSet;
use std::sync::Arc;

/// Roll the delta layer into the base once it reaches this size: keeps
/// per-delete publication O(delta) while amortizing the base copy.
const DELTA_ROLL: usize = 512;

/// A layered set of tombstoned external ids, cheap to clone and to
/// capture at every maintenance freeze.
///
/// The set is two layers: a large shared `base` and a small `delta` of
/// recent deletes. Inserting copies at most the delta (copy-on-write);
/// when the delta reaches `DELTA_ROLL` entries it is folded into the
/// base. Cloning is two `Arc` clones regardless of size.
#[derive(Debug, Clone, Default)]
pub struct TombstoneSet {
    base: Arc<HashSet<u64>>,
    delta: Arc<HashSet<u64>>,
}

impl TombstoneSet {
    /// Whether `id` is tombstoned.
    pub fn contains(&self, id: u64) -> bool {
        self.delta.contains(&id) || self.base.contains(&id)
    }

    /// Number of tombstoned ids.
    pub fn len(&self) -> usize {
        // The two layers are kept disjoint by `insert`.
        self.base.len() + self.delta.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.delta.is_empty()
    }

    /// Iterates over all tombstoned ids (unordered).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.base.iter().chain(self.delta.iter()).copied()
    }

    /// Inserts an id; returns whether it was newly inserted.
    pub fn insert(&mut self, id: u64) -> bool {
        if self.contains(id) {
            return false;
        }
        Arc::make_mut(&mut self.delta).insert(id);
        if self.delta.len() >= DELTA_ROLL {
            let delta = std::mem::take(&mut self.delta);
            Arc::make_mut(&mut self.base).extend(delta.iter().copied());
        }
        true
    }

    /// The ids of `self` that are **not** in `other` (the tombstones
    /// that arrived after `other` was captured).
    pub fn subtract(&self, other: &TombstoneSet) -> TombstoneSet {
        let survivors: HashSet<u64> = self.iter().filter(|&id| !other.contains(id)).collect();
        TombstoneSet {
            base: Arc::new(survivors),
            delta: Arc::new(HashSet::new()),
        }
    }

    /// All ids, sorted (the manifest encoding order).
    pub fn to_sorted_vec(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.iter().collect();
        ids.sort_unstable();
        ids
    }
}

impl FromIterator<u64> for TombstoneSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        TombstoneSet {
            base: Arc::new(iter.into_iter().collect()),
            delta: Arc::new(HashSet::new()),
        }
    }
}

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
/// [`TombstoneSet`] of external ids is the writer's: it feeds the
/// manifest and reconciles a maintenance commit, and no search reads it.
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

    /// The collection's read path, frozen at snapshot time: the exact
    /// scans of the memory-resident rows (the in-flight sealing section,
    /// if any, and the write buffer) and every segment's top-`k` live
    /// rows under external ids ([`Segment::search`]; `parallel` splits
    /// each segment's scan across `opts.threads` workers), merged in one
    /// canonical `(distance, id)` pass. `k == 0` answers empty without
    /// scanning.
    fn merged(&self, query: &[f32], opts: &SearchOptions, parallel: bool) -> Vec<Neighbor> {
        if opts.k == 0 {
            return Vec::new();
        }
        let variant = opts.kernel.horizontal_variant();
        let memory = self.sealing.iter().chain([&self.buffer]);
        let scan = |rows: &BufferSnapshot| rows.scan(query, opts.k, opts.metric, variant);
        let sealed = |v: &SegmentView| v.segment.search(query, opts, &v.dead, parallel);
        let lists: Vec<Vec<Neighbor>> = memory
            .map(scan)
            .chain(self.segments.iter().map(sealed))
            .collect();
        merge_neighbors(&lists, opts.k)
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

    /// Merges the memory-resident exact scans with every segment's
    /// search of its live rows through the canonical `(distance, id)`
    /// order — the collection's read path, frozen at snapshot time.
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        self.merged(query, opts, false)
    }

    /// Intra-query parallelism over the same view: each segment's scan
    /// splits its blocks across the workers (bit-identical to sequential
    /// at any thread count), the memory scans stay sequential, and the
    /// merge is canonical — so the result equals [`VectorIndex::search`]
    /// at any width.
    fn search_parallel(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        self.merged(query, opts, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoreConfig, WriteBuffer};

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
    /// no slot of the top-`k`), the write buffer's rows merge in, and
    /// the intra-query parallel path answers like the sequential one.
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
                let par = snap.search_parallel(&[0.0], &opts.with_threads(threads));
                assert_eq!(par, got, "{tag} at {threads} threads");
            }
        }
    }

    #[test]
    fn tombstone_set_layers_stay_consistent() {
        let mut set = TombstoneSet::default();
        // Push well past the roll threshold.
        for id in 0..2000u64 {
            assert!(set.insert(id));
            assert!(!set.insert(id), "double insert must report false");
        }
        assert_eq!(set.len(), 2000);
        assert!(set.contains(0));
        assert!(set.contains(1999));
        assert!(!set.contains(2000));
        let sorted = set.to_sorted_vec();
        assert_eq!(sorted.len(), 2000);
        assert_eq!(sorted[0], 0);
        assert_eq!(sorted[1999], 1999);
    }

    #[test]
    fn tombstone_clones_are_independent() {
        let mut set = TombstoneSet::default();
        for id in 0..600u64 {
            set.insert(id);
        }
        let frozen = set.clone();
        for id in 600..1200u64 {
            set.insert(id);
        }
        assert_eq!(frozen.len(), 600);
        assert!(!frozen.contains(700));
        assert_eq!(set.len(), 1200);

        let delta = set.subtract(&frozen);
        assert_eq!(delta.len(), 600);
        assert!(delta.contains(700));
        assert!(!delta.contains(10));
    }
}
