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
//!
//! The block is generic over its stored element ([`Stored`]): `f32`
//! values, or the one-byte SQ8 codes
//! [`Sq8Quantizer::encode_block`](crate::layout::Sq8Quantizer::encode_block)
//! writes. The geometry is the same for both; a code block's dimension
//! `s` is a *storage position*, whose row dimension only its quantizer
//! knows.

use super::payload::{Payload, PayloadWriter};
use crate::kernels::lanes::Stored;

/// A block of vectors stored in the PDX layout: `f32` values by default,
/// SQ8 codes as `PdxBlock<u8>`. Its values are a range of a shared
/// payload arena ([`Payload`]): a clone shares them.
#[derive(Debug, Clone, PartialEq)]
pub struct PdxBlock<E: Stored = f32> {
    n_vectors: usize,
    n_dims: usize,
    group_size: usize,
    data: Payload<E>,
}

/// Borrowed view of one vector group inside a [`PdxBlock`].
#[derive(Debug, Clone, Copy)]
pub struct PdxGroup<'a, E = f32> {
    /// Dimension-major data: `data[dim * lanes + lane]`.
    pub data: &'a [E],
    /// Number of vectors (lanes) in this group (= stride between dims).
    pub lanes: usize,
    /// Block-level index of this group's first vector.
    pub start_vector: usize,
}

impl<E: Stored> PdxBlock<E> {
    /// Builds a block, in an arena of its own, from row-major vector
    /// data (`n_vectors × n_dims`). A deployment's builder tiles all its
    /// blocks into one arena instead ([`PayloadWriter`]).
    ///
    /// # Panics
    /// Panics if the buffer size disagrees with the dimensions or if
    /// `group_size == 0`.
    pub fn from_rows(rows: &[E], n_vectors: usize, n_dims: usize, group_size: usize) -> Self {
        let mut writer = PayloadWriter::new(rows.len());
        writer.tile_rows(rows, n_vectors, n_dims, group_size);
        writer.finish().pop().expect("one block")
    }

    /// A block over a range of an arena [`PayloadWriter::finish`] has
    /// filled in group-tiled order.
    pub(super) fn from_payload(
        data: Payload<E>,
        n_vectors: usize,
        n_dims: usize,
        group_size: usize,
    ) -> Self {
        debug_assert_eq!(data.len(), n_vectors * n_dims);
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
    pub fn group(&self, g: usize) -> PdxGroup<'_, E> {
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
    pub fn groups(&self) -> impl Iterator<Item = PdxGroup<'_, E>> {
        (0..self.group_count()).map(|g| self.group(g))
    }

    /// Value of storage dimension `dim` of vector `vec` (random access;
    /// slow path for tests, not for kernels).
    pub fn value(&self, vec: usize, dim: usize) -> E {
        let (base, lanes, lane) = self.locate(vec);
        self.data[base + dim * lanes + lane]
    }

    /// Copies vector `vec` out into row form, in storage order.
    pub fn vector(&self, vec: usize) -> Vec<E> {
        let (base, lanes, lane) = self.locate(vec);
        (0..self.n_dims)
            .map(|d| self.data[base + d * lanes + lane])
            .collect()
    }

    /// Converts the whole block back to row-major form, in storage order.
    pub fn to_rows(&self) -> Vec<E> {
        let mut rows = Vec::with_capacity(self.n_vectors * self.n_dims);
        for g in self.groups() {
            for l in 0..g.lanes {
                rows.extend((0..self.n_dims).map(|d| g.data[d * g.lanes + l]));
            }
        }
        rows
    }

    /// Raw dimension-major buffer (group-by-group).
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// The arena range holding the values.
    pub fn payload(&self) -> &Payload<E> {
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
    fn from_row_ids_gathers() {
        let r = rows(5, 2);
        let mut w = PayloadWriter::new(6);
        w.tile_row_ids(&r, 2, &[4, 0, 2], 2);
        let b = w.finish().pop().unwrap();
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
        let b = PdxBlock::<f32>::from_rows(&[], 0, 4, 64);
        assert!(b.is_empty());
        assert_eq!(b.group_count(), 0);
        assert_eq!(b.to_rows(), Vec::<f32>::new());
    }

    #[test]
    #[should_panic(expected = "row buffer")]
    fn mismatched_buffer_panics() {
        let _ = PdxBlock::from_rows(&[1.0, 2.0], 2, 2, 64);
    }
}
