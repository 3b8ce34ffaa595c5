//! Bounded max-heap for k-nearest-neighbour candidates.
//!
//! The heap keeps the `k` smallest distances seen so far; its root (the
//! current k-th best distance) is the pruning threshold that PDXearch
//! propagates from block to block (§4).
//!
//! Candidates are ordered by `(distance, id)`: a full heap evicts its
//! worst entry whenever a strictly smaller `(distance, id)` pair is
//! offered, so the retained set is the **canonical top-k of the offered
//! candidate set** — independent of arrival order. This is the invariant
//! [`crate::exec::merge_neighbors`] builds on: the top-k lists of
//! disjoint parts (a snapshot's segments, a sharded collection's shards)
//! merge into exactly the result one scan over all of them would
//! produce, including duplicate-distance ties.

/// One search result: a vector id and its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Collection-level vector id.
    pub id: u64,
    /// Distance (metric-dependent; always minimized).
    pub distance: f32,
}

/// Bounded max-heap of the `k` best candidates by `(distance, id)`.
///
/// ```
/// use pdx_core::heap::KnnHeap;
/// let mut heap = KnnHeap::new(2);
/// assert_eq!(heap.threshold(), f32::INFINITY); // nothing can be pruned yet
/// heap.push(7, 4.0);
/// heap.push(3, 1.0);
/// heap.push(9, 9.0); // rejected: worse than the current best-2
/// assert_eq!(heap.threshold(), 4.0);
/// let ids: Vec<u64> = heap.into_sorted().iter().map(|n| n.id).collect();
/// assert_eq!(ids, vec![3, 7]);
/// ```
#[derive(Debug, Clone)]
pub struct KnnHeap {
    k: usize,
    /// Binary max-heap ordered by `(distance, id)`; `entries[0]` is the
    /// worst of the current best-k.
    entries: Vec<Neighbor>,
}

/// Whether `a` orders above `b` in the max-heap: lexicographic
/// `(distance, id)`. `false` for NaN distances — a NaN offered to a full
/// heap is rejected; one accepted while underfull panics in
/// [`KnnHeap::into_sorted`], matching the previous behavior.
#[inline(always)]
fn above(a: &Neighbor, b: &Neighbor) -> bool {
    a.distance > b.distance || (a.distance == b.distance && a.id > b.id)
}

impl KnnHeap {
    /// Creates an empty heap that retains the best `k` candidates.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            entries: Vec::with_capacity(k),
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no candidate has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The pruning threshold: the k-th best distance, or `+∞` while the
    /// heap holds fewer than `k` candidates (nothing can be pruned yet).
    pub fn threshold(&self) -> f32 {
        if self.entries.len() < self.k {
            f32::INFINITY
        } else {
            self.entries[0].distance
        }
    }

    /// Offers a candidate; keeps it only if it improves the best-k by
    /// `(distance, id)` — equal distances are won by the smaller id, so
    /// the retained set does not depend on the order candidates arrive.
    /// Returns `true` if the candidate was retained.
    pub fn push(&mut self, id: u64, distance: f32) -> bool {
        if self.entries.len() < self.k {
            self.entries.push(Neighbor { id, distance });
            self.sift_up(self.entries.len() - 1);
            true
        } else if above(&self.entries[0], &Neighbor { id, distance }) {
            self.entries[0] = Neighbor { id, distance };
            self.sift_down(0);
            true
        } else {
            false
        }
    }

    /// Consumes the heap, returning neighbours sorted by ascending
    /// distance (ties broken by id for determinism).
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        self.entries.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("NaN distance in heap")
                .then(a.id.cmp(&b.id))
        });
        self.entries
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if above(&self.entries[i], &self.entries[parent]) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && above(&self.entries[l], &self.entries[largest]) {
                largest = l;
            }
            if r < n && above(&self.entries[r], &self.entries[largest]) {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.entries.swap(i, largest);
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut h = KnnHeap::new(3);
        for (id, d) in [(0u64, 5.0f32), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)] {
            h.push(id, d);
        }
        let r = h.into_sorted();
        assert_eq!(r.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 3, 4]);
        assert_eq!(r[0].distance, 1.0);
    }

    #[test]
    fn threshold_is_infinite_until_full() {
        let mut h = KnnHeap::new(2);
        assert_eq!(h.threshold(), f32::INFINITY);
        h.push(0, 1.0);
        assert_eq!(h.threshold(), f32::INFINITY);
        h.push(1, 2.0);
        assert_eq!(h.threshold(), 2.0);
        h.push(2, 0.5);
        assert_eq!(h.threshold(), 1.0);
    }

    #[test]
    fn rejects_worse_candidates_when_full() {
        let mut h = KnnHeap::new(1);
        assert!(h.push(0, 1.0));
        assert!(!h.push(1, 2.0));
        assert!(h.push(2, 0.1));
        assert_eq!(h.into_sorted()[0].id, 2);
    }

    #[test]
    fn ties_sorted_by_id() {
        let mut h = KnnHeap::new(3);
        h.push(9, 1.0);
        h.push(4, 1.0);
        h.push(7, 1.0);
        let ids: Vec<u64> = h.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![4, 7, 9]);
    }

    #[test]
    fn random_streams_match_sorting() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let n = rng.random_range(1..200);
            let k = rng.random_range(1..=20);
            let dists: Vec<f32> = (0..n).map(|_| rng.random::<f32>()).collect();
            let mut h = KnnHeap::new(k);
            for (i, &d) in dists.iter().enumerate() {
                h.push(i as u64, d);
            }
            let got: Vec<f32> = h.into_sorted().iter().map(|x| x.distance).collect();
            let mut want = dists.clone();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            want.truncate(k);
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = KnnHeap::new(0);
    }

    #[test]
    fn k_at_least_stream_length_keeps_everything() {
        // k == n and k > n: nothing is ever evicted and the threshold
        // stays +inf (an underfull heap can never prune).
        for k in [5usize, 8, 100] {
            let mut h = KnnHeap::new(k);
            for (id, d) in [(0u64, 3.0f32), (1, 1.0), (2, 2.0), (3, 5.0), (4, 4.0)] {
                assert!(h.push(id, d), "k={k}: push into underfull heap must retain");
            }
            assert_eq!(h.len(), 5);
            if k > 5 {
                assert_eq!(h.threshold(), f32::INFINITY, "k={k}");
            } else {
                assert_eq!(h.threshold(), 5.0);
            }
            let r = h.into_sorted();
            assert_eq!(
                r.iter().map(|n| n.id).collect::<Vec<_>>(),
                vec![1, 2, 0, 4, 3]
            );
        }
    }

    #[test]
    fn duplicate_distances_tie_break_on_id() {
        // Ties at the threshold are resolved by id: a larger id is
        // rejected, a smaller id evicts the worst (largest-id) tie, so
        // the retained set never depends on arrival order.
        let mut h = KnnHeap::new(3);
        for id in [4u64, 5, 6] {
            assert!(h.push(id, 2.0));
        }
        assert_eq!(h.threshold(), 2.0);
        assert!(
            !h.push(99, 2.0),
            "tie with a larger id must not be retained"
        );
        assert!(h.push(1, 2.0), "tie with a smaller id must evict id 6");
        assert!(h.push(100, 1.5), "strictly better must evict a duplicate");
        let r = h.into_sorted();
        assert_eq!(r.len(), 3);
        assert_eq!(
            r[0],
            Neighbor {
                id: 100,
                distance: 1.5
            }
        );
        assert_eq!(
            r[1..].iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![1, 4],
            "smallest ids among the 2.0 ties survive"
        );
    }

    #[test]
    fn retained_set_is_arrival_order_independent() {
        // The canonical-top-k invariant the canonical merge relies on:
        // any permutation of the candidate stream yields the same heap.
        let mut cands: Vec<(u64, f32)> = (0..40u64).map(|id| (id, (id % 7) as f32)).collect();
        let reference = {
            let mut h = KnnHeap::new(10);
            for &(id, d) in &cands {
                h.push(id, d);
            }
            h.into_sorted()
        };
        // A handful of deterministic shuffles.
        for rot in [1usize, 7, 13, 23, 39] {
            cands.rotate_left(rot);
            cands.swap(0, 20);
            let mut h = KnnHeap::new(10);
            for &(id, d) in &cands {
                h.push(id, d);
            }
            assert_eq!(h.into_sorted(), reference, "rotation {rot}");
        }
    }

    #[test]
    fn single_candidate_heap() {
        // n == 1 stream into any k: result is exactly that neighbor.
        let mut h = KnnHeap::new(4);
        h.push(42, 0.25);
        assert_eq!(h.len(), 1);
        assert!(!h.is_empty());
        let r = h.into_sorted();
        assert_eq!(
            r,
            vec![Neighbor {
                id: 42,
                distance: 0.25
            }]
        );
    }

    #[test]
    fn neighbor_is_copy_and_compares_by_value() {
        let a = Neighbor {
            id: 1,
            distance: 0.5,
        };
        let b = a; // Copy
        assert_eq!(a, b);
        assert_ne!(
            a,
            Neighbor {
                id: 2,
                distance: 0.5
            }
        );
        assert_ne!(
            a,
            Neighbor {
                id: 1,
                distance: 0.75
            }
        );
    }
}
