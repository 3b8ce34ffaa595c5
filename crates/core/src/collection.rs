//! Searchable PDX collections: blocks plus row ids, statistics and
//! optional pruner aux data.
//!
//! A [`SearchBlock`] is the unit PDXearch walks (an IVF bucket or a flat
//! horizontal partition) and carries the per-dimension statistics its
//! visit order reads; a [`PdxCollection`] is nothing but a set of them.

use crate::layout::{PayloadWriter, PdxBlock};
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
    /// Builds a block, in a payload arena of its own, from row-major
    /// data with the given global ids.
    pub fn new(rows: &[f32], ids: Vec<u64>, n_dims: usize, group_size: usize) -> Self {
        Self::from_pdx(
            PdxBlock::from_rows(rows, ids.len(), n_dims, group_size),
            ids,
        )
    }

    /// Wraps a PDX block with the global ids of its vectors, deriving
    /// its statistics.
    pub fn from_pdx(pdx: PdxBlock, ids: Vec<u64>) -> Self {
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

/// A set of searchable blocks over one vector collection, and nothing
/// else: a visit order reads each block's own [`SearchBlock::stats`].
#[derive(Debug, Clone)]
pub struct PdxCollection {
    /// Dimensionality of all vectors.
    pub dims: usize,
    /// The blocks, in storage order.
    pub blocks: Vec<SearchBlock>,
}

impl PdxCollection {
    /// Partitions row-major data into consecutive blocks of at most
    /// `block_size` vectors (the index-less exact-search layout, §6.5),
    /// all tiled into one payload arena. Vector `i` keeps global id `i`.
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
        let mut payload = PayloadWriter::new(rows.len());
        for v0 in (0..n_vectors).step_by(block_size) {
            let n = block_size.min(n_vectors - v0);
            payload.tile_rows(&rows[v0 * n_dims..][..n * n_dims], n, n_dims, group_size);
        }
        let mut v0 = 0u64;
        let blocks = payload
            .finish()
            .into_iter()
            .map(|pdx| {
                let n = pdx.len() as u64;
                v0 += n;
                SearchBlock::from_pdx(pdx, (v0 - n..v0).collect())
            })
            .collect();
        Self {
            dims: n_dims,
            blocks,
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
}
