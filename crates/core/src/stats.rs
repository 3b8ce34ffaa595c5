//! Per-block metadata (§3 "Metadata per block").
//!
//! Blocks carry per-dimension means (PDX-BOND's distance-to-means visit
//! order) and variances (useful for BSA-style tuning and for dataset
//! diagnostics) — the vector-search analogue of the min/max zone maps
//! analytical systems keep per row-group. They exist only per block,
//! computed from its dimension-major layout when the block is built or
//! read; nothing sums them over a whole collection, because a visit
//! order reads the means of the block it scans.

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

    /// The row-major oracle: the same sums as [`BlockStats::from_block`],
    /// taken vector by vector.
    fn from_rows(rows: &[f32], n_dims: usize) -> BlockStats {
        let (mut sums, mut squares) = (vec![0.0f64; n_dims], vec![0.0f64; n_dims]);
        for row in rows.chunks_exact(n_dims) {
            for (d, &v) in row.iter().enumerate() {
                sums[d] += v as f64;
                squares[d] += (v as f64) * (v as f64);
            }
        }
        BlockStats::from_sums(&sums, &squares, rows.len() / n_dims)
    }

    #[test]
    fn block_and_row_paths_agree() {
        let n = 97;
        let d = 7;
        let rows: Vec<f32> = (0..n * d).map(|i| ((i * 31 % 17) as f32) - 8.0).collect();
        let block = PdxBlock::from_rows(&rows, n, d, 16);
        let a = BlockStats::from_block(&block);
        let b = from_rows(&rows, d);
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
