//! Per-block metadata (§3 "Metadata per block").
//!
//! Blocks carry per-dimension means (PDX-BOND's distance-to-means visit
//! order) and variances (useful for BSA-style tuning and for dataset
//! diagnostics) — the vector-search analogue of the min/max zone maps
//! analytical systems keep per row-group.

use crate::layout::PdxBlock;

/// Per-dimension statistics of one block of vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStats {
    /// Mean of each dimension over the block's vectors.
    pub means: Vec<f32>,
    /// Population variance of each dimension.
    pub variances: Vec<f32>,
}

impl BlockStats {
    /// Computes statistics directly from the dimension-major layout
    /// (each group row is one dimension — a sequential pass).
    pub fn from_block(block: &PdxBlock) -> Self {
        let d = block.dims();
        let n = block.len();
        if n == 0 {
            return Self {
                means: vec![0.0; d],
                variances: vec![0.0; d],
            };
        }
        let mut sums = vec![0.0f64; d];
        let mut squares = vec![0.0f64; d];
        for g in block.groups() {
            for dim in 0..d {
                let row = &g.data[dim * g.lanes..(dim + 1) * g.lanes];
                let mut s = 0.0f64;
                let mut sq = 0.0f64;
                for &v in row {
                    s += v as f64;
                    sq += (v as f64) * (v as f64);
                }
                sums[dim] += s;
                squares[dim] += sq;
            }
        }
        Self::from_sums(&sums, &squares, n)
    }

    /// Computes statistics from row-major data (collection-level stats
    /// for flat exact search, where one ordering serves all blocks).
    pub fn from_rows(rows: &[f32], n_vectors: usize, n_dims: usize) -> Self {
        assert_eq!(
            rows.len(),
            n_vectors * n_dims,
            "row buffer does not match dimensions"
        );
        if n_vectors == 0 {
            return Self {
                means: vec![0.0; n_dims],
                variances: vec![0.0; n_dims],
            };
        }
        let mut sums = vec![0.0f64; n_dims];
        let mut squares = vec![0.0f64; n_dims];
        for row in rows.chunks_exact(n_dims) {
            for (d, &v) in row.iter().enumerate() {
                sums[d] += v as f64;
                squares[d] += (v as f64) * (v as f64);
            }
        }
        Self::from_sums(&sums, &squares, n_vectors)
    }

    /// Statistics of the concatenation of `blocks`, bit-identical to
    /// [`BlockStats::from_rows`] over their rows in order: each
    /// dimension's sums receive the same values in the same (vector)
    /// order, whichever of the two walks them. This is how a container
    /// reader rebuilds collection-level statistics block by block,
    /// without materializing the rows.
    pub fn from_blocks<'a>(blocks: impl IntoIterator<Item = &'a PdxBlock>, n_dims: usize) -> Self {
        let mut sums = vec![0.0f64; n_dims];
        let mut squares = vec![0.0f64; n_dims];
        let mut n = 0usize;
        for block in blocks {
            assert_eq!(block.dims(), n_dims, "block dimensionality differs");
            n += block.len();
            for g in block.groups() {
                for (dim, row) in g.data.chunks_exact(g.lanes).enumerate() {
                    for &v in row {
                        sums[dim] += v as f64;
                        squares[dim] += (v as f64) * (v as f64);
                    }
                }
            }
        }
        if n == 0 {
            return Self {
                means: vec![0.0; n_dims],
                variances: vec![0.0; n_dims],
            };
        }
        Self::from_sums(&sums, &squares, n)
    }

    fn from_sums(sums: &[f64], squares: &[f64], n: usize) -> Self {
        let inv = 1.0 / n as f64;
        let means: Vec<f32> = sums.iter().map(|s| (s * inv) as f32).collect();
        let variances: Vec<f32> = squares
            .iter()
            .zip(sums)
            .map(|(sq, s)| {
                let m = s * inv;
                ((sq * inv) - m * m).max(0.0) as f32
            })
            .collect();
        Self { means, variances }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_and_variances_match_manual() {
        // Two vectors: (1, 10), (3, 10). Means (2, 10); variances (1, 0).
        let rows = [1.0, 10.0, 3.0, 10.0];
        let block = PdxBlock::from_rows(&rows, 2, 2, 64);
        let stats = BlockStats::from_block(&block);
        assert_eq!(stats.means, vec![2.0, 10.0]);
        assert_eq!(stats.variances, vec![1.0, 0.0]);
    }

    #[test]
    fn block_and_row_paths_agree() {
        let n = 97;
        let d = 7;
        let rows: Vec<f32> = (0..n * d).map(|i| ((i * 31 % 17) as f32) - 8.0).collect();
        let block = PdxBlock::from_rows(&rows, n, d, 16);
        let a = BlockStats::from_block(&block);
        let b = BlockStats::from_rows(&rows, n, d);
        for (x, y) in a.means.iter().zip(&b.means) {
            assert!((x - y).abs() < 1e-5);
        }
        for (x, y) in a.variances.iter().zip(&b.variances) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn empty_block_yields_zeros() {
        let block = PdxBlock::from_rows(&[], 0, 3, 64);
        let stats = BlockStats::from_block(&block);
        assert_eq!(stats.means, vec![0.0; 3]);
        assert_eq!(stats.variances, vec![0.0; 3]);
    }
}
