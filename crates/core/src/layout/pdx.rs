//! The PDX (Partition Dimensions Across) block layout.
//!
//! A [`PdxBlock`] holds `n` vectors of `d` dimensions, tiled into *vector
//! groups* of at most `group_size` vectors. Within a group the values are
//! stored dimension-major:
//!
//! ```text
//! group g (L lanes) occupies one contiguous span:
//!   [ dim 0: v₀ v₁ … v_{L−1} | dim 1: v₀ v₁ … v_{L−1} | … | dim d−1: … ]
//! ```
//!
//! so the distance kernel's inner loop walks `L` values of *one*
//! dimension across *many* vectors — the multiple-vectors-at-a-time shape
//! that auto-vectorizes with independent accumulator lanes (Algorithm 1
//! in the paper). The final group may have fewer than `group_size`
//! vectors; it keeps its true lane count as the stride (no padding:
//! padding would corrupt inner-product results and inflate the buffer).

/// A block of vectors stored in the PDX layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PdxBlock {
    n_vectors: usize,
    n_dims: usize,
    group_size: usize,
    data: Vec<f32>,
}

/// Borrowed view of one vector group inside a [`PdxBlock`].
#[derive(Debug, Clone, Copy)]
pub struct PdxGroup<'a> {
    /// Dimension-major data: `data[dim * lanes + lane]`.
    pub data: &'a [f32],
    /// Number of vectors (lanes) in this group (= stride between dims).
    pub lanes: usize,
    /// Block-level index of this group's first vector.
    pub start_vector: usize,
}

impl PdxBlock {
    /// Builds a block from row-major vector data (`n_vectors × n_dims`).
    ///
    /// # Panics
    /// Panics if the buffer size disagrees with the dimensions or if
    /// `group_size == 0`.
    pub fn from_rows(rows: &[f32], n_vectors: usize, n_dims: usize, group_size: usize) -> Self {
        assert!(group_size > 0, "group size must be positive");
        assert_eq!(
            rows.len(),
            n_vectors * n_dims,
            "row buffer does not match dimensions"
        );
        let mut data = vec![0.0f32; n_vectors * n_dims];
        let mut out = 0usize;
        let mut v0 = 0usize;
        while v0 < n_vectors {
            let lanes = group_size.min(n_vectors - v0);
            for d in 0..n_dims {
                for l in 0..lanes {
                    data[out] = rows[(v0 + l) * n_dims + d];
                    out += 1;
                }
            }
            v0 += lanes;
        }
        debug_assert_eq!(out, data.len());
        Self {
            n_vectors,
            n_dims,
            group_size,
            data,
        }
    }

    /// Rebuilds a block from an already group-tiled buffer (the
    /// persistence read path — [`PdxBlock::as_slice`] is the matching
    /// write side). The values are stored verbatim, so a block that
    /// round-trips through a container scans bit-identically to the
    /// original.
    ///
    /// # Panics
    /// Panics if the buffer size disagrees or `group_size == 0`.
    pub fn from_tiled(tiled: Vec<f32>, n_vectors: usize, n_dims: usize, group_size: usize) -> Self {
        assert!(group_size > 0, "group size must be positive");
        assert_eq!(
            tiled.len(),
            n_vectors * n_dims,
            "tiled buffer does not match dimensions"
        );
        Self {
            n_vectors,
            n_dims,
            group_size,
            data: tiled,
        }
    }

    /// Builds a block by gathering the given `rows` indices out of a
    /// row-major collection — the IVF bucket construction path.
    ///
    /// # Panics
    /// Panics if any index is out of range or `group_size == 0`.
    pub fn from_row_ids(all_rows: &[f32], n_dims: usize, ids: &[u32], group_size: usize) -> Self {
        assert!(group_size > 0, "group size must be positive");
        let n_vectors = ids.len();
        let mut data = vec![0.0f32; n_vectors * n_dims];
        let mut out = 0usize;
        let mut v0 = 0usize;
        while v0 < n_vectors {
            let lanes = group_size.min(n_vectors - v0);
            for d in 0..n_dims {
                for l in 0..lanes {
                    let row = ids[v0 + l] as usize;
                    data[out] = all_rows[row * n_dims + d];
                    out += 1;
                }
            }
            v0 += lanes;
        }
        Self {
            n_vectors,
            n_dims,
            group_size,
            data,
        }
    }

    /// Number of vectors in the block.
    pub fn len(&self) -> usize {
        self.n_vectors
    }

    /// Whether the block holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.n_vectors == 0
    }

    /// Dimensionality of the stored vectors.
    pub fn dims(&self) -> usize {
        self.n_dims
    }

    /// Configured maximum lanes per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of vector groups (the last may be partial).
    pub fn group_count(&self) -> usize {
        self.n_vectors.div_ceil(self.group_size)
    }

    /// Borrowed view of group `g`.
    ///
    /// # Panics
    /// Panics if `g >= group_count()`.
    pub fn group(&self, g: usize) -> PdxGroup<'_> {
        let start_vector = g * self.group_size;
        assert!(
            start_vector < self.n_vectors || (self.n_vectors == 0 && g == 0),
            "group out of range"
        );
        let lanes = self.group_size.min(self.n_vectors - start_vector);
        let base = start_vector * self.n_dims;
        PdxGroup {
            data: &self.data[base..base + lanes * self.n_dims],
            lanes,
            start_vector,
        }
    }

    /// Iterator over all groups.
    pub fn groups(&self) -> impl Iterator<Item = PdxGroup<'_>> {
        (0..self.group_count()).map(|g| self.group(g))
    }

    /// Value of dimension `dim` of vector `vec` (random access; slow path
    /// for tests/updates, not for kernels).
    pub fn value(&self, vec: usize, dim: usize) -> f32 {
        let (base, lanes, lane) = self.locate(vec);
        self.data[base + dim * lanes + lane]
    }

    /// Overwrites vector `vec` in place (the paper's §3 "updates are
    /// trivial while data is memory-resident").
    ///
    /// # Panics
    /// Panics if `values.len() != dims()` or `vec` is out of range.
    pub fn set_vector(&mut self, vec: usize, values: &[f32]) {
        assert_eq!(values.len(), self.n_dims, "value count must equal dims");
        let (base, lanes, lane) = self.locate(vec);
        for (d, v) in values.iter().enumerate() {
            self.data[base + d * lanes + lane] = *v;
        }
    }

    /// Appends one vector to the block (§3: append is the typical vector
    /// workload besides bulk load).
    ///
    /// Full groups are untouched; the partial tail group (if any) is
    /// re-strided in place to make room for the new lane, so the cost is
    /// `O(group_size · dims)` worst case, independent of the block size.
    ///
    /// # Panics
    /// Panics if `values.len() != dims()`.
    pub fn push(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.n_dims, "value count must equal dims");
        let tail_lanes = self.n_vectors % self.group_size;
        if tail_lanes == 0 {
            // Start a fresh group: dimension-major with a single lane.
            self.data.extend_from_slice(values);
        } else {
            // Re-stride the tail group from `tail_lanes` to `tail_lanes+1`.
            let base = (self.n_vectors - tail_lanes) * self.n_dims;
            let old = self.data.split_off(base);
            let new_lanes = tail_lanes + 1;
            self.data.reserve(new_lanes * self.n_dims);
            for d in 0..self.n_dims {
                self.data
                    .extend_from_slice(&old[d * tail_lanes..(d + 1) * tail_lanes]);
                self.data.push(values[d]);
            }
        }
        self.n_vectors += 1;
    }

    /// Copies vector `vec` out into row form.
    pub fn vector(&self, vec: usize) -> Vec<f32> {
        let (base, lanes, lane) = self.locate(vec);
        (0..self.n_dims)
            .map(|d| self.data[base + d * lanes + lane])
            .collect()
    }

    /// Converts the whole block back to row-major form.
    pub fn to_rows(&self) -> Vec<f32> {
        let mut rows = vec![0.0f32; self.n_vectors * self.n_dims];
        for g in self.groups() {
            for l in 0..g.lanes {
                let v = g.start_vector + l;
                for d in 0..self.n_dims {
                    rows[v * self.n_dims + d] = g.data[d * g.lanes + l];
                }
            }
        }
        rows
    }

    /// Raw dimension-major buffer (group-by-group).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// `(group_base_offset, group_lanes, lane_within_group)` of a vector.
    fn locate(&self, vec: usize) -> (usize, usize, usize) {
        assert!(vec < self.n_vectors, "vector index out of range");
        super::locate(self.n_vectors, self.group_size, self.n_dims, vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, d: usize) -> Vec<f32> {
        (0..n * d).map(|i| i as f32).collect()
    }

    #[test]
    fn round_trip_exact_groups() {
        let r = rows(8, 3);
        let b = PdxBlock::from_rows(&r, 8, 3, 4);
        assert_eq!(b.group_count(), 2);
        assert_eq!(b.to_rows(), r);
    }

    #[test]
    fn round_trip_partial_tail_group() {
        let r = rows(10, 5);
        let b = PdxBlock::from_rows(&r, 10, 5, 4);
        assert_eq!(b.group_count(), 3);
        assert_eq!(b.group(2).lanes, 2);
        assert_eq!(b.to_rows(), r);
    }

    #[test]
    fn round_trip_single_vector() {
        let r = rows(1, 7);
        let b = PdxBlock::from_rows(&r, 1, 7, 64);
        assert_eq!(b.group_count(), 1);
        assert_eq!(b.to_rows(), r);
    }

    #[test]
    fn layout_is_dimension_major_within_group() {
        // 2 vectors, 2 dims, group 64: layout must be d0(v0 v1) d1(v0 v1).
        let b = PdxBlock::from_rows(&[1.0, 2.0, 3.0, 4.0], 2, 2, 64);
        assert_eq!(b.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn value_accessor_matches_rows() {
        let r = rows(9, 4);
        let b = PdxBlock::from_rows(&r, 9, 4, 4);
        for v in 0..9 {
            for d in 0..4 {
                assert_eq!(b.value(v, d), r[v * 4 + d]);
            }
        }
    }

    #[test]
    fn set_vector_updates_in_place() {
        let r = rows(6, 3);
        let mut b = PdxBlock::from_rows(&r, 6, 3, 4);
        b.set_vector(5, &[9.0, 8.0, 7.0]);
        assert_eq!(b.vector(5), vec![9.0, 8.0, 7.0]);
        // Others untouched.
        assert_eq!(b.vector(0), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn from_row_ids_gathers() {
        let r = rows(5, 2);
        let b = PdxBlock::from_row_ids(&r, 2, &[4, 0, 2], 2);
        assert_eq!(b.vector(0), vec![8.0, 9.0]);
        assert_eq!(b.vector(1), vec![0.0, 1.0]);
        assert_eq!(b.vector(2), vec![4.0, 5.0]);
    }

    #[test]
    fn groups_iterate_in_order() {
        let r = rows(7, 2);
        let b = PdxBlock::from_rows(&r, 7, 2, 3);
        let starts: Vec<usize> = b.groups().map(|g| g.start_vector).collect();
        assert_eq!(starts, vec![0, 3, 6]);
        let lanes: Vec<usize> = b.groups().map(|g| g.lanes).collect();
        assert_eq!(lanes, vec![3, 3, 1]);
    }

    #[test]
    fn empty_block() {
        let b = PdxBlock::from_rows(&[], 0, 4, 64);
        assert!(b.is_empty());
        assert_eq!(b.group_count(), 0);
        assert_eq!(b.to_rows(), Vec::<f32>::new());
    }

    #[test]
    fn push_onto_empty_block() {
        let mut b = PdxBlock::from_rows(&[], 0, 3, 4);
        b.push(&[1.0, 2.0, 3.0]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.vector(0), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn push_grows_partial_group_then_starts_new_one() {
        let r = rows(4, 2); // group size 4 -> first group exactly full
        let mut b = PdxBlock::from_rows(&r, 4, 2, 4);
        b.push(&[100.0, 101.0]); // starts group 1 with 1 lane
        b.push(&[200.0, 201.0]); // re-strides group 1 to 2 lanes
        assert_eq!(b.len(), 6);
        assert_eq!(b.group_count(), 2);
        assert_eq!(b.group(1).lanes, 2);
        assert_eq!(b.vector(4), vec![100.0, 101.0]);
        assert_eq!(b.vector(5), vec![200.0, 201.0]);
        // Equivalent to building from all rows at once.
        let mut all = r.clone();
        all.extend_from_slice(&[100.0, 101.0, 200.0, 201.0]);
        assert_eq!(b, PdxBlock::from_rows(&all, 6, 2, 4));
    }

    #[test]
    fn many_pushes_equal_bulk_load() {
        let r = rows(23, 5);
        let mut b = PdxBlock::from_rows(&[], 0, 5, 4);
        for row in r.chunks_exact(5) {
            b.push(row);
        }
        assert_eq!(b, PdxBlock::from_rows(&r, 23, 5, 4));
    }

    #[test]
    #[should_panic(expected = "row buffer")]
    fn mismatched_buffer_panics() {
        let _ = PdxBlock::from_rows(&[1.0, 2.0], 2, 2, 64);
    }
}
