//! Searchable PDX collections: blocks plus row ids, statistics and
//! optional pruner aux data.
//!
//! A [`SearchBlock`] is the unit PDXearch walks (an IVF bucket or a flat
//! horizontal partition); a [`PdxCollection`] owns a set of them.

use crate::layout::PdxBlock;
use crate::pruning::BlockAux;
use crate::stats::BlockStats;

/// One searchable block: PDX data, the global ids of its vectors, its
/// per-dimension statistics and optional per-vector pruner metadata.
#[derive(Debug, Clone)]
pub struct SearchBlock {
    /// The vectors, dimension-major in groups.
    pub pdx: PdxBlock,
    /// Global id of each vector (block order).
    pub row_ids: Vec<u64>,
    /// Per-dimension means/variances of this block.
    pub stats: BlockStats,
    /// Per-vector, per-checkpoint pruner data (e.g. BSA residual norms).
    pub aux: Option<BlockAux>,
}

impl SearchBlock {
    /// Builds a block from row-major data with the given global ids.
    pub fn new(rows: &[f32], ids: Vec<u64>, n_dims: usize, group_size: usize) -> Self {
        let pdx = PdxBlock::from_rows(rows, ids.len(), n_dims, group_size);
        let stats = BlockStats::from_block(&pdx);
        Self {
            pdx,
            row_ids: ids,
            stats,
            aux: None,
        }
    }

    /// Number of vectors in the block.
    pub fn len(&self) -> usize {
        self.pdx.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.pdx.is_empty()
    }
}

/// A set of searchable blocks over one vector collection.
#[derive(Debug, Clone)]
pub struct PdxCollection {
    /// Dimensionality of all vectors.
    pub dims: usize,
    /// The blocks, in storage order.
    pub blocks: Vec<SearchBlock>,
    /// Collection-level per-dimension statistics (flat exact search uses
    /// these so one visit order serves all blocks).
    pub stats: BlockStats,
}

impl PdxCollection {
    /// Partitions row-major data into consecutive blocks of at most
    /// `block_size` vectors (the index-less exact-search layout, §6.5).
    /// Vector `i` keeps global id `i`.
    ///
    /// # Panics
    /// Panics if the buffer size disagrees or `block_size == 0`.
    pub fn from_rows_partitioned(
        rows: &[f32],
        n_vectors: usize,
        n_dims: usize,
        block_size: usize,
        group_size: usize,
    ) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert_eq!(
            rows.len(),
            n_vectors * n_dims,
            "row buffer does not match dimensions"
        );
        let mut blocks = Vec::with_capacity(n_vectors.div_ceil(block_size.max(1)));
        let mut v0 = 0usize;
        while v0 < n_vectors {
            let n = block_size.min(n_vectors - v0);
            let ids: Vec<u64> = (v0 as u64..(v0 + n) as u64).collect();
            blocks.push(SearchBlock::new(
                &rows[v0 * n_dims..(v0 + n) * n_dims],
                ids,
                n_dims,
                group_size,
            ));
            v0 += n;
        }
        let stats = BlockStats::from_rows(rows, n_vectors, n_dims);
        Self {
            dims: n_dims,
            blocks,
            stats,
        }
    }

    /// Builds blocks from an explicit assignment of row ids (IVF bucket
    /// construction: one inner `Vec` per bucket).
    pub fn from_assignments(
        rows: &[f32],
        n_dims: usize,
        assignments: &[Vec<u32>],
        group_size: usize,
    ) -> Self {
        let n_vectors = rows.len() / n_dims.max(1);
        let blocks = assignments
            .iter()
            .map(|ids| {
                let pdx = PdxBlock::from_row_ids(rows, n_dims, ids, group_size);
                let stats = BlockStats::from_block(&pdx);
                SearchBlock {
                    pdx,
                    row_ids: ids.iter().map(|&i| i as u64).collect(),
                    stats,
                    aux: None,
                }
            })
            .collect();
        let stats = BlockStats::from_rows(rows, n_vectors, n_dims);
        Self {
            dims: n_dims,
            blocks,
            stats,
        }
    }

    /// Adopts already-built blocks (a persisted flat container, read
    /// block by block), deriving the collection-level statistics from
    /// them — the same bits [`PdxCollection::from_rows_partitioned`]
    /// computes from the rows.
    pub fn from_blocks(dims: usize, blocks: Vec<SearchBlock>) -> Self {
        let stats = BlockStats::from_blocks(blocks.iter().map(|b| &b.pdx), dims);
        Self {
            dims,
            blocks,
            stats,
        }
    }

    /// Total number of vectors across blocks.
    pub fn total_vectors(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_blocks_cover_all_rows_in_order() {
        let n = 25;
        let d = 3;
        let rows: Vec<f32> = (0..n * d).map(|i| i as f32).collect();
        let c = PdxCollection::from_rows_partitioned(&rows, n, d, 10, 4);
        assert_eq!(c.blocks.len(), 3);
        assert_eq!(c.total_vectors(), n);
        assert_eq!(c.blocks[2].len(), 5);
        // Ids are global and consecutive.
        assert_eq!(c.blocks[1].row_ids[0], 10);
        // Values round-trip.
        assert_eq!(c.blocks[1].pdx.vector(0), rows[10 * d..11 * d].to_vec());
    }

    #[test]
    fn assignments_gather_the_right_vectors() {
        let rows: Vec<f32> = (0..8).map(|i| i as f32).collect(); // 4 vectors × 2 dims
        let c = PdxCollection::from_assignments(&rows, 2, &[vec![3, 1], vec![0, 2]], 64);
        assert_eq!(c.blocks[0].row_ids, vec![3, 1]);
        assert_eq!(c.blocks[0].pdx.vector(0), vec![6.0, 7.0]);
        assert_eq!(c.blocks[1].pdx.vector(1), vec![4.0, 5.0]);
    }

    #[test]
    fn empty_assignment_produces_empty_block() {
        let rows = [0.0f32, 1.0];
        let c = PdxCollection::from_assignments(&rows, 2, &[vec![], vec![0]], 64);
        assert!(c.blocks[0].is_empty());
        assert_eq!(c.blocks[1].len(), 1);
    }
}
