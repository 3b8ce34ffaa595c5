//! SQ8 scalar quantization of the PDX block layout.
//!
//! Scalar quantization (SQ8) maps each `f32` value to one byte, shrinking
//! the scan-resident data 4× and letting the distance kernels read four
//! times as many vectors per cache line. The PDX layout is a natural fit:
//! because a kernel visits one *dimension* of many vectors at a time, the
//! per-dimension quantization parameters are loop-invariant scalars that
//! hoist out of the hot lane loop — no per-element parameter lookups, the
//! failure mode that makes quantized kernels on horizontal layouts messy.
//!
//! [`Sq8Quantizer`] is a per-dimension affine codec `value ≈ min_d +
//! scale_d · code`, learned from the collection at build time. Each
//! dimension uses its own `[min, max]` range, so dimensions with small
//! spread (the majority, in power-law-scaled embeddings) keep small
//! absolute error instead of inheriting the widest dimension's grid. Its
//! codes live in a [`PdxBlock<u8>`]: the same vector groups as the `f32`
//! block, the same `data[s * lanes + lane]` addressing, one byte per
//! value — with `s` a *storage position*, not a row dimension (below).
//!
//! # The storage order
//!
//! A fit also yields a dimension permutation, [`Sq8Quantizer::order`]:
//! decreasing per-dimension variance, ties broken by index. Codes are
//! stored in that order — storage position `s` of a block holds row
//! dimension `order[s]` — and [`Sq8Quantizer::prepare_query`] emits its
//! per-dimension terms in the same order, so the kernels, which walk
//! storage positions front to back, visit the dimensions that separate
//! vectors most first and the SQ8 scan prunes after fewer of them (the
//! BOND argument), while every step still reads one contiguous row of
//! codes per group. The quantizer holds the only copy of the order, and
//! nothing outside it sees the permutation: its `min` / `scale` /
//! `encode_value` / `decode_value` and its block readers
//! [`code`](Sq8Quantizer::code), [`to_code_rows`](Sq8Quantizer::to_code_rows)
//! and [`decode_vector`](Sq8Quantizer::decode_vector) all speak row
//! dimensions. A codec rebuilt with the identity order (a container
//! written before the order existed) scans exactly as before it.
//!
//! The decoded value of a code is the *centre* of its quantization cell,
//! so the reconstruction error per value is at most `scale_d / 2` for any
//! value inside the learned range. That bound is what the SQ8 distance
//! error analysis in [`kernels::sq8`](crate::kernels::sq8) builds on.
//!
//! # The rounding contract
//!
//! The code of a value is `x = (v − min_d) / scale_d` rounded half away
//! from zero and clamped to `[0, 255]`, with NaN → 0: bit for bit
//! `x.round().clamp(0.0, 255.0) as u8` on every `f32` (±0.0, subnormals,
//! ±inf and every NaN included — a unit test checks all 2³² inputs). One
//! private function spells it, and both [`Sq8Quantizer::encode_value`]
//! and [`Sq8Quantizer::encode_block`] call it. It has no `round`
//! call: at the baseline x86-64 target `f32::round` is a libm call per
//! value (`roundps` needs SSE4.1), and a saturating `as u8` is one
//! scalar conversion per value even inside a vector loop. Instead the
//! clamped value `c` is added to 2²³, which leaves its nearest integer
//! (ties to even) in the low mantissa bits — read with `to_bits`, no
//! conversion — and a tie that went down to even (`c` minus that integer
//! is exactly 0.5, a difference `f32` represents exactly) gets its 1
//! back. Every step is an add, a compare or a bit operation: no call and
//! no branch.

use crate::distance::Metric;
use crate::layout::{PayloadWriter, PdxBlock};

/// Number of quantization levels of the 8-bit codec.
const LEVELS: f32 = 255.0;

/// The SQ8 code of `x`, a value already in code space (`(v − min_d) /
/// scale_d`): the one spelling of the rounding contract (module docs).
#[inline]
fn code(x: f32) -> u8 {
    // 2²³: the sum's unit in the last place is 1, so the add rounds `c`
    // to an integer and leaves it in the low byte of the bits.
    const ROUNDER: f32 = 8_388_608.0;
    let c = if x > 0.0 { x.min(LEVELS) } else { 0.0 }; // NaN → 0 too
    let near = c + ROUNDER;
    near.to_bits() as u8 + u8::from(c - (near - ROUNDER) == 0.5)
}

/// Per-dimension affine SQ8 codec: `value ≈ min_d + scale_d · code`.
///
/// Learned once per collection with [`Sq8Quantizer::fit`]; shared by all
/// blocks of that collection so codes are comparable across blocks.
///
/// ```
/// use pdx_core::layout::Sq8Quantizer;
///
/// // Two 2-dimensional vectors spanning [0, 10] × [−1, 1].
/// let rows = [0.0, -1.0, 10.0, 1.0f32];
/// let q = Sq8Quantizer::fit(&rows, 2, 2);
/// let code = q.encode_value(0, 5.0);
/// let back = q.decode_value(0, code);
/// // The reconstruction is within half a quantization step.
/// assert!((back - 5.0).abs() <= q.scale(0) / 2.0 + 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Quantizer {
    mins: Vec<f32>,
    scales: Vec<f32>,
    /// Storage position → row dimension (module docs): the one copy
    /// every block encoded under this codec is read through.
    order: Vec<u32>,
}

impl Sq8Quantizer {
    /// Learns per-dimension `[min, max]` ranges from row-major data and
    /// derives `scale_d = (max_d − min_d) / 255`; the storage order sorts
    /// the dimensions by decreasing variance, ties by index.
    ///
    /// A dimension whose range is empty (constant value) gets scale 1.0:
    /// every value encodes to code 0 and decodes back to the constant.
    ///
    /// # Panics
    /// Panics if the buffer size disagrees with `n_vectors × dims` or if
    /// `dims == 0`.
    pub fn fit(rows: &[f32], n_vectors: usize, dims: usize) -> Self {
        Self::fit_with_pool(rows, n_vectors, dims, &crate::exec::ThreadPool::from_env())
    }

    /// [`Sq8Quantizer::fit`] with an explicit worker pool for the range
    /// pass. Min/max merging is exact and the variance sums merge in
    /// chunk order over chunks that do not depend on the pool, so the
    /// learned codec is bitwise identical at every thread count.
    pub fn fit_with_pool(
        rows: &[f32],
        n_vectors: usize,
        dims: usize,
        pool: &crate::exec::ThreadPool,
    ) -> Self {
        let (mins, maxs, spread) = Self::ranges(rows, n_vectors, dims, pool);
        let scales = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| {
                let range = hi - lo;
                if range > 0.0 {
                    range / LEVELS
                } else {
                    1.0
                }
            })
            .collect();
        let mut order: Vec<u32> = (0..dims as u32).collect();
        // Stable: equal spreads keep index order.
        order.sort_by(|&a, &b| spread[b as usize].total_cmp(&spread[a as usize]));
        Self {
            mins,
            scales,
            order,
        }
    }

    /// Per-dimension `[min, max]` and spread (`n ·` variance) over
    /// row-major data, in one pass parallelized over row chunks on
    /// `pool`. The spread sums values shifted by the first row, which
    /// keeps the cancellation in `Σx² − (Σx)²/n` small, in `f32` within
    /// a chunk and in `f64` across chunks.
    fn ranges(
        rows: &[f32],
        n_vectors: usize,
        dims: usize,
        pool: &crate::exec::ThreadPool,
    ) -> (Vec<f32>, Vec<f32>, Vec<f64>) {
        assert!(dims > 0, "dims must be positive");
        assert_eq!(
            rows.len(),
            n_vectors * dims,
            "row buffer does not match dimensions"
        );
        // Large fixed chunks: the pass is pure streaming, so the only goal
        // is to amortize the per-chunk scheduling cost. The chunking is
        // the same at every pool width and the chunks merge in order,
        // which is what makes the merged sums bitwise reproducible.
        const CHUNK_VECTORS: usize = 8192;
        let shift = &rows[..dims.min(rows.len())];
        let partials = pool.run_chunks(n_vectors, CHUNK_VECTORS, |_ci, range| {
            let mut p = Partial::new(dims);
            for row in rows[range.start * dims..range.end * dims].chunks_exact(dims) {
                p.add(row, shift);
            }
            p
        });
        let mut mins = vec![f32::INFINITY; dims];
        let mut maxs = vec![f32::NEG_INFINITY; dims];
        let (mut sums, mut squares) = (vec![0.0f64; dims], vec![0.0f64; dims]);
        for p in partials {
            for d in 0..dims {
                mins[d] = mins[d].min(p.mins[d]);
                maxs[d] = maxs[d].max(p.maxs[d]);
                sums[d] += f64::from(p.sums[d]);
                squares[d] += f64::from(p.squares[d]);
            }
        }
        if n_vectors == 0 {
            mins.fill(0.0);
            maxs.fill(0.0);
        }
        let n = n_vectors.max(1) as f64;
        let spread = sums
            .iter()
            .zip(&squares)
            .map(|(&s, &q)| q - s * s / n)
            .collect();
        (mins, maxs, spread)
    }

    /// Dimensionality the codec was learned on.
    pub fn dims(&self) -> usize {
        self.mins.len()
    }

    /// Lower bound of dimension `d`'s learned range.
    pub fn min(&self, d: usize) -> f32 {
        self.mins[d]
    }

    /// Quantization step of dimension `d`.
    pub fn scale(&self, d: usize) -> f32 {
        self.scales[d]
    }

    /// All per-dimension minima.
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// All per-dimension scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The storage order: entry `s` is the row dimension stored at
    /// position `s` of every block encoded under this codec (module
    /// docs). A fit sorts by decreasing variance.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Rebuilds a codec from stored parameters (the persistence path);
    /// `order` is the storage order, `0..dims` for a container that
    /// stores none.
    ///
    /// # Panics
    /// Panics if the vectors differ in length, are empty, any scale is
    /// not strictly positive, or `order` is not a permutation of
    /// `0..dims`.
    pub fn from_params(mins: Vec<f32>, scales: Vec<f32>, order: Vec<u32>) -> Self {
        assert_eq!(mins.len(), scales.len(), "one scale per min required");
        assert!(!mins.is_empty(), "dims must be positive");
        assert!(
            scales.iter().all(|&s| s > 0.0),
            "scales must be strictly positive"
        );
        let mut seen = vec![false; mins.len()];
        let permutation = order.len() == mins.len()
            && order.iter().all(|&d| {
                let d = d as usize;
                d < seen.len() && !std::mem::replace(&mut seen[d], true)
            });
        assert!(permutation, "order must be a permutation of the dimensions");
        Self {
            mins,
            scales,
            order,
        }
    }

    /// Encodes one value of dimension `d`, clamping to the learned range.
    pub fn encode_value(&self, d: usize, v: f32) -> u8 {
        code((v - self.mins[d]) / self.scales[d])
    }

    /// Decodes one code of dimension `d` back to the cell centre.
    pub fn decode_value(&self, d: usize, code: u8) -> f32 {
        self.mins[d] + self.scales[d] * code as f32
    }

    /// Worst-case reconstruction error of dimension `d` for values inside
    /// the learned range: half a quantization step.
    pub fn max_error(&self, d: usize) -> f32 {
        self.scales[d] / 2.0
    }

    /// Quantizes row-major `f32` data (`n_vectors × dims()`) into a
    /// group-tiled block of codes in the storage order, one row at a
    /// time: the row is encoded into a row-sized buffer and each code
    /// goes straight to its tiled slot, with no block-sized code buffer
    /// and no transpose pass.
    ///
    /// ```
    /// use pdx_core::layout::Sq8Quantizer;
    ///
    /// let rows = [0.0, 4.0, 1.0, 5.0, 2.0, 6.0, 3.0, 7.0f32];
    /// let quantizer = Sq8Quantizer::fit(&rows, 4, 2);
    /// let block = quantizer.encode_block(&rows, 4, 64);
    /// assert_eq!(block.len(), 4);
    /// // One byte per value: 4× smaller than the f32 block.
    /// assert_eq!(block.as_slice().len(), 8);
    /// // Decoding recovers each value to within half a step.
    /// let v = quantizer.decode_vector(&block, 2);
    /// assert!((v[0] - 2.0).abs() <= quantizer.scale(0) / 2.0);
    /// ```
    ///
    /// The block gets a payload arena of its own; a deployment encodes
    /// all its blocks into one with [`Sq8Quantizer::encode_into`].
    ///
    /// # Panics
    /// Panics if the buffer size disagrees with `n_vectors × dims()` or
    /// `group_size == 0`.
    pub fn encode_block(&self, rows: &[f32], n_vectors: usize, group_size: usize) -> PdxBlock<u8> {
        let mut payload = PayloadWriter::new(rows.len());
        self.encode_into(&mut payload, rows, n_vectors, group_size);
        payload.finish().pop().expect("one block")
    }

    /// [`Sq8Quantizer::encode_block`] into the next block of `payload`.
    ///
    /// # Panics
    /// As [`Sq8Quantizer::encode_block`], and if the block does not fit
    /// what remains of the arena.
    pub fn encode_into(
        &self,
        payload: &mut PayloadWriter<u8>,
        rows: &[f32],
        n_vectors: usize,
        group_size: usize,
    ) {
        let n_dims = self.dims();
        assert_eq!(
            rows.len(),
            n_vectors * n_dims,
            "row buffer does not match dimensions"
        );
        let data = payload.push(n_vectors, n_dims, group_size);
        // The encode runs in row order over slices in step, which
        // vectorizes; gathering the `f32` row into storage order first
        // measured slower than gathering its codes.
        let (order, mins, scales) = (&self.order[..], &self.mins[..], &self.scales[..]);
        let mut row_codes = vec![0u8; n_dims];
        let span = group_size * n_dims;
        for (group_rows, tile) in rows.chunks(span).zip(data.chunks_mut(span)) {
            let lanes = group_rows.len() / n_dims;
            for (lane, row) in group_rows.chunks_exact(n_dims).enumerate() {
                for (((c, &v), &lo), &s) in row_codes.iter_mut().zip(row).zip(mins).zip(scales) {
                    *c = code((v - lo) / s);
                }
                for (col, &d) in tile.chunks_exact_mut(lanes).zip(order) {
                    col[lane] = row_codes[d as usize];
                }
            }
        }
    }

    /// Code of row dimension `dim` of vector `vec` of a block this codec
    /// encoded (random access; slow path for tests, not for kernels).
    ///
    /// # Panics
    /// Panics if `vec` or `dim` is out of range.
    pub fn code(&self, block: &PdxBlock<u8>, vec: usize, dim: usize) -> u8 {
        let s = self
            .order
            .iter()
            .position(|&d| d as usize == dim)
            .expect("dimension out of range");
        block.value(vec, s)
    }

    /// A block this codec encoded as row-major codes, in row dimension
    /// order.
    ///
    /// # Panics
    /// Panics if the block's dimensionality is not the codec's.
    pub fn to_code_rows(&self, block: &PdxBlock<u8>) -> Vec<u8> {
        assert_eq!(block.dims(), self.dims(), "quantizer dimensionality");
        let mut rows = vec![0u8; block.len() * self.dims()];
        for (row, stored) in rows
            .chunks_exact_mut(self.dims())
            .zip(block.to_rows().chunks_exact(self.dims()))
        {
            for (&d, &c) in self.order.iter().zip(stored) {
                row[d as usize] = c;
            }
        }
        rows
    }

    /// Decodes vector `vec` of a block this codec encoded back into
    /// `f32` row form.
    ///
    /// # Panics
    /// Panics if the block's dimensionality is not the codec's, or `vec`
    /// is out of range.
    pub fn decode_vector(&self, block: &PdxBlock<u8>, vec: usize) -> Vec<f32> {
        assert_eq!(block.dims(), self.dims(), "quantizer dimensionality");
        let mut row = vec![0.0; self.dims()];
        for (&d, c) in self.order.iter().zip(block.vector(vec)) {
            let d = d as usize;
            row[d] = self.decode_value(d, c);
        }
        row
    }

    /// Prepares a query for the SQ8 kernels: the query is lifted into
    /// code space once, so the per-dimension affine parameters never
    /// appear in the hot loop. Its terms come out in storage order, the
    /// order of the codes they meet. See
    /// [`kernels::sq8`](crate::kernels::sq8) for the per-metric algebra.
    pub fn prepare_query(&self, metric: Metric, query: &[f32]) -> Sq8Query {
        assert_eq!(query.len(), self.dims(), "query dimensionality mismatch");
        let d = self.dims();
        let mut qcode = Vec::with_capacity(d);
        let mut weight = Vec::with_capacity(d);
        let mut bias = 0.0f64;
        for &dim in self.order.iter() {
            let dim = dim as usize;
            let (q, s, m) = (query[dim], self.scales[dim], self.mins[dim]);
            match metric {
                // L2: Σ s²·(qc − c)² with qc the query in code space.
                Metric::L2 => {
                    qcode.push((q - m) / s);
                    weight.push(s * s);
                }
                // L1: Σ s·|qc − c|.
                Metric::L1 => {
                    qcode.push((q - m) / s);
                    weight.push(s);
                }
                // −q·v̂ = −Σ q·(m + s·c) = −Σ q·m − Σ (q·s)·c.
                Metric::NegativeIp => {
                    qcode.push(q * s);
                    weight.push(1.0);
                    bias -= (q as f64) * (m as f64);
                }
            }
        }
        Sq8Query {
            metric,
            qcode,
            weight,
            bias: bias as f32,
        }
    }
}

/// One row chunk's share of [`Sq8Quantizer::ranges`]: per-dimension
/// extremes and shifted sums.
struct Partial {
    mins: Vec<f32>,
    maxs: Vec<f32>,
    sums: Vec<f32>,
    squares: Vec<f32>,
}

impl Partial {
    fn new(dims: usize) -> Self {
        Self {
            mins: vec![f32::INFINITY; dims],
            maxs: vec![f32::NEG_INFINITY; dims],
            sums: vec![0.0; dims],
            squares: vec![0.0; dims],
        }
    }

    /// Folds in one row; `shift` is the first row of the data.
    #[inline]
    fn add(&mut self, row: &[f32], shift: &[f32]) {
        // Equal-length slices: the loop vectorizes with no bounds checks.
        let d = row.len();
        let (mins, maxs) = (&mut self.mins[..d], &mut self.maxs[..d]);
        let (sums, squares, shift) = (&mut self.sums[..d], &mut self.squares[..d], &shift[..d]);
        for j in 0..d {
            let v = row[j];
            mins[j] = mins[j].min(v);
            maxs[j] = maxs[j].max(v);
            let x = v - shift[j];
            sums[j] += x;
            squares[j] += x * x;
        }
    }
}

/// A query prepared for SQ8 scanning: per-dimension code-space
/// coordinates and fold weights, in the codec's storage order, plus a
/// per-distance constant.
///
/// Produced by [`Sq8Quantizer::prepare_query`]; consumed by the kernels
/// in [`kernels::sq8`](crate::kernels::sq8). The estimated distance a
/// kernel produces is the **exact** distance between the query and the
/// *dequantized* vector — the only approximation is the quantization of
/// the stored data itself.
#[derive(Debug, Clone)]
pub struct Sq8Query {
    /// Metric the preparation targeted.
    pub metric: Metric,
    /// Query coordinate of storage position `s`, dimension `d =
    /// order[s]`: `(q_d − min_d) / scale_d` for L2/L1, `q_d · scale_d`
    /// for inner product.
    pub qcode: Vec<f32>,
    /// Fold weight of storage position `s`: `scale_d²` (L2), `scale_d`
    /// (L1), unused (1.0) for inner product.
    pub weight: Vec<f32>,
    /// Constant added once per distance (`−Σ q_d · min_d` for inner
    /// product, summed in storage order; 0 otherwise).
    pub bias: f32,
}

impl Sq8Query {
    /// Dimensionality of the prepared query.
    pub fn dims(&self) -> usize {
        self.qcode.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, d: usize) -> Vec<f32> {
        (0..n * d)
            .map(|i| ((i * 37 % 101) as f32) * 0.25 - 12.0)
            .collect()
    }

    #[test]
    fn fit_learns_per_dimension_ranges() {
        let r = [0.0, -8.0, 10.0, 8.0f32];
        let q = Sq8Quantizer::fit(&r, 2, 2);
        assert_eq!(q.min(0), 0.0);
        assert_eq!(q.min(1), -8.0);
        assert!((q.scale(0) - 10.0 / 255.0).abs() < 1e-7);
        assert!((q.scale(1) - 16.0 / 255.0).abs() < 1e-7);
    }

    #[test]
    fn encode_decode_error_is_within_half_step() {
        let r = rows(50, 7);
        let q = Sq8Quantizer::fit(&r, 50, 7);
        for (i, &v) in r.iter().enumerate() {
            let d = i % 7;
            let back = q.decode_value(d, q.encode_value(d, v));
            assert!(
                (back - v).abs() <= q.max_error(d) * (1.0 + 1e-3),
                "dim {d}: {v} -> {back}"
            );
        }
    }

    #[test]
    fn range_extremes_map_to_code_extremes() {
        let r = [1.0f32, 3.0];
        let q = Sq8Quantizer::fit(&r, 2, 1);
        assert_eq!(q.encode_value(0, 1.0), 0);
        assert_eq!(q.encode_value(0, 3.0), 255);
        // Out-of-range values clamp.
        assert_eq!(q.encode_value(0, -100.0), 0);
        assert_eq!(q.encode_value(0, 100.0), 255);
    }

    #[test]
    fn constant_dimension_round_trips() {
        let r = [5.0f32, 5.0, 5.0];
        let q = Sq8Quantizer::fit(&r, 3, 1);
        assert_eq!(q.encode_value(0, 5.0), 0);
        assert_eq!(q.decode_value(0, 0), 5.0);
    }

    #[test]
    fn from_params_round_trips() {
        let r = rows(20, 3);
        let q = Sq8Quantizer::fit(&r, 20, 3);
        let q2 =
            Sq8Quantizer::from_params(q.mins().to_vec(), q.scales().to_vec(), q.order().to_vec());
        assert_eq!(q, q2);
    }

    /// Dimension `j` of row `i` spreads `|j − 2|` wide; dims 1 and 3 tie,
    /// and dim 2 is constant.
    fn spread_rows(n: usize) -> Vec<f32> {
        (0..n * 5)
            .map(|i| {
                let (row, j) = (i / 5, i % 5);
                let sign = if row % 2 == 0 { 1.0 } else { -1.0 };
                sign * (j as f32 - 2.0).abs() + j as f32
            })
            .collect()
    }

    #[test]
    fn storage_order_sorts_by_decreasing_variance_ties_by_index() {
        let q = Sq8Quantizer::fit(&spread_rows(10), 10, 5);
        assert_eq!(q.order(), &[0, 4, 1, 3, 2]);
        let empty = Sq8Quantizer::fit(&[], 0, 3);
        assert_eq!(empty.order(), &[0, 1, 2]);
    }

    #[test]
    fn storage_order_fit_is_identical_at_every_thread_count() {
        // Three row chunks (8 192 rows each) with a shifted mean, so the
        // chunked sums really merge.
        let (n, d) = (20_000, 6);
        let r: Vec<f32> = rows(n, d)
            .iter()
            .enumerate()
            .map(|(i, &v)| v * (1 + i % d) as f32 + (i / d / 7000) as f32 * 50.0)
            .collect();
        let one = Sq8Quantizer::fit_with_pool(&r, n, d, &crate::exec::ThreadPool::new(1));
        assert_ne!(one.order(), &[0, 1, 2, 3, 4, 5], "the fixture has an order");
        for threads in [2, 8] {
            let pool = crate::exec::ThreadPool::new(threads);
            assert_eq!(
                Sq8Quantizer::fit_with_pool(&r, n, d, &pool),
                one,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn storage_order_is_invisible_to_row_dimension_accessors() {
        let (n, d) = (37, 5);
        let r = spread_rows(n);
        let q = Sq8Quantizer::fit(&r, n, d);
        assert_ne!(q.order(), &[0, 1, 2, 3, 4]);
        let b = q.encode_block(&r, n, 16);
        let codes: Vec<u8> = (0..n * d).map(|i| q.encode_value(i % d, r[i])).collect();
        assert_eq!(q.to_code_rows(&b), codes);
        for v in 0..n {
            let back = q.decode_vector(&b, v);
            for dim in 0..d {
                assert_eq!(q.code(&b, v, dim), codes[v * d + dim]);
                assert_eq!(back[dim], q.decode_value(dim, codes[v * d + dim]));
            }
        }
        // Storage position s of a group holds dimension order[s].
        let g = b.group(0);
        for (s, &dim) in q.order().iter().enumerate() {
            assert_eq!(g.data[s * g.lanes + 3], codes[3 * d + dim as usize]);
        }
        let prepared = q.prepare_query(Metric::L2, &r[..d]);
        for (s, &dim) in q.order().iter().enumerate() {
            let dim = dim as usize;
            assert_eq!(prepared.qcode[s], (r[dim] - q.min(dim)) / q.scale(dim));
            assert_eq!(prepared.weight[s], q.scale(dim) * q.scale(dim));
        }
        let mut payload = PayloadWriter::new(n * d);
        q.encode_into(&mut payload, &r, n, 16);
        assert_eq!(payload.finish()[0], b);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn from_params_refuses_an_order_that_is_not_a_permutation() {
        let _ = Sq8Quantizer::from_params(vec![0.0; 3], vec![1.0; 3], vec![0, 2, 2]);
    }

    #[test]
    fn block_layout_is_dimension_major_within_group() {
        // 2 vectors, 2 dims: codes must tile as d0(v0 v1) d1(v0 v1).
        let codes = [1u8, 2, 3, 4];
        let b = PdxBlock::<u8>::from_rows(&codes, 2, 2, 64);
        assert_eq!(b.as_slice(), &[1, 3, 2, 4]);
    }

    #[test]
    fn code_rows_round_trip_with_partial_tail_group() {
        let codes: Vec<u8> = (0..50u8).collect();
        let b = PdxBlock::<u8>::from_rows(&codes, 10, 5, 4);
        assert_eq!(b.group_count(), 3);
        assert_eq!(b.group(2).lanes, 2);
        assert_eq!(b.to_rows(), codes);
    }

    #[test]
    fn quantized_block_matches_scalar_codec() {
        let r = rows(23, 6);
        let q = Sq8Quantizer::fit(&r, 23, 6);
        let b = q.encode_block(&r, 23, 8);
        for v in 0..23 {
            for d in 0..6 {
                assert_eq!(q.code(&b, v, d), q.encode_value(d, r[v * 6 + d]));
            }
        }
    }

    #[test]
    fn from_row_ids_gathers_and_quantizes() {
        // The IVF bucket path: the bucket's rows gathered by id, then
        // encoded.
        let r = rows(9, 4);
        let q = Sq8Quantizer::fit(&r, 9, 4);
        let gathered: Vec<f32> = [8, 0, 3]
            .iter()
            .flat_map(|&v| &r[v * 4..][..4])
            .copied()
            .collect();
        let b = q.encode_block(&gathered, 3, 2);
        assert_eq!(b.len(), 3);
        for d in 0..4 {
            assert_eq!(q.code(&b, 0, d), q.encode_value(d, r[8 * 4 + d]));
            assert_eq!(q.code(&b, 1, d), q.encode_value(d, r[d]));
        }
    }

    #[test]
    fn decode_vector_is_close_to_original() {
        let r = rows(40, 5);
        let q = Sq8Quantizer::fit(&r, 40, 5);
        let b = q.encode_block(&r, 40, 16);
        for v in [0usize, 17, 39] {
            let back = q.decode_vector(&b, v);
            for d in 0..5 {
                assert!((back[d] - r[v * 5 + d]).abs() <= q.max_error(d) * (1.0 + 1e-3));
            }
        }
    }

    #[test]
    fn resident_bytes_are_one_per_value() {
        let r = rows(30, 8);
        let q = Sq8Quantizer::fit(&r, 30, 8);
        let b = q.encode_block(&r, 30, 64);
        assert_eq!(std::mem::size_of_val(b.as_slice()), 30 * 8);
    }

    #[test]
    fn empty_block() {
        let q = Sq8Quantizer::fit(&[], 0, 3);
        let b = q.encode_block(&[], 0, 64);
        assert!(b.is_empty());
        assert_eq!(b.group_count(), 0);
    }

    #[test]
    #[should_panic(expected = "row buffer")]
    fn mismatched_buffer_panics() {
        let _ = PdxBlock::<u8>::from_rows(&[1, 2], 2, 2, 64);
    }

    /// The SQ8 code as first written, kept as the oracle: `round` (half
    /// away from zero), clamp, then the saturating cast (NaN → 0).
    fn reference_code(x: f32) -> u8 {
        x.round().clamp(0.0, LEVELS) as u8
    }

    /// The block's bytes as first built: every row encoded with
    /// [`reference_code`] into a row-major temp in storage order, then
    /// tiled.
    fn reference_block(
        rows: &[f32],
        n: usize,
        d: usize,
        group: usize,
        q: &Sq8Quantizer,
    ) -> Vec<u8> {
        let codes: Vec<u8> = (0..n * d)
            .map(|i| {
                let dim = q.order()[i % d] as usize;
                let v = rows[i - i % d + dim];
                reference_code((v - q.min(dim)) / q.scale(dim))
            })
            .collect();
        PdxBlock::<u8>::from_rows(&codes, n, d, group)
            .as_slice()
            .to_vec()
    }

    /// A one-dimensional codec with `min = 0`, `scale = 1`: its
    /// `encode_value(0, x)` is the code of `x` itself, since `(x − 0) / 1`
    /// is `x` for every `f32` (−0.0, subnormals and NaN included).
    fn unit() -> Sq8Quantizer {
        Sq8Quantizer::from_params(vec![0.0], vec![1.0], vec![0])
    }

    fn assert_codes_match(xs: impl IntoIterator<Item = f32>) {
        let q = unit();
        for x in xs {
            let (got, want) = (q.encode_value(0, x), reference_code(x));
            assert_eq!(got, want, "x = {x:e} (bits {:#010x})", x.to_bits());
        }
    }

    /// `x` moved `ulps` representable steps away from or towards zero.
    fn ulps_from(x: f32, ulps: i32) -> f32 {
        f32::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    /// xorshift64, so no case moves with the `rand` stand-in.
    fn xorshift(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn code_equals_reference_at_every_tie_and_its_neighbours() {
        let mut xs = Vec::new();
        for k in -2i32..=257 {
            let tie = k as f32 + 0.5;
            xs.push(tie);
            for ulps in 1..=8 {
                xs.extend([ulps_from(tie, ulps), ulps_from(tie, -ulps)]);
            }
        }
        assert_codes_match(xs);
    }

    #[test]
    fn code_equals_reference_on_the_edge_cases() {
        assert_codes_match([
            0.499_999_97,
            0.5,
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0xffc0_0001), // negative NaN with a payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x007f_ffff), // largest subnormal
            -f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::EPSILON,
            254.5,
            255.0,
            255.5,
            256.0,
            1e10,
            -1e10,
        ]);
        assert_eq!(unit().encode_value(0, 0.499_999_97), 0);
        assert_eq!(unit().encode_value(0, 0.5), 1);
        assert_eq!(unit().encode_value(0, 1.5), 2, "ties round away from zero");
        assert_eq!(unit().encode_value(0, 2.5), 3, "ties round away from zero");
        assert_eq!(unit().encode_value(0, f32::NAN), 0);
    }

    #[test]
    fn code_equals_reference_on_random_bit_patterns() {
        let mut next = xorshift(0x5851_F42D_4C95_7F2D);
        assert_codes_match((0..1_000_000).map(|_| f32::from_bits(next() as u32)));
    }

    /// All 2³² bit patterns, split over a few threads (about 10–20 s in
    /// release): `cargo test --release -p pdx-core --lib
    /// code_equals_reference_on_every_f32 -- --ignored`.
    #[test]
    #[ignore = "exhaustive over every f32: run in release with --ignored"]
    fn code_equals_reference_on_every_f32() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8)) as u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let q = unit();
                    let (lo, hi) = ((t << 32) / threads, ((t + 1) << 32) / threads);
                    for bits in lo..hi {
                        let x = f32::from_bits(bits as u32);
                        if q.encode_value(0, x) != reference_code(x) {
                            panic!("x = {x:e} (bits {bits:#010x})");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn from_rows_equals_the_reference_encode_then_tile() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for d in [1usize, 7, 128] {
            // Dyadic parameters: `(v − min) / scale` is exact, so the
            // half-step values below land on exact .5 ties; the values
            // past either end of the range clamp.
            let mins: Vec<f32> = (0..d).map(|j| j as f32 * 0.25 - 4.0).collect();
            let scales: Vec<f32> = (0..d).map(|j| 2f32.powi(j as i32 % 5 - 2)).collect();
            let dyadic = Sq8Quantizer::from_params(mins, scales, (0..d as u32).collect());
            for n in [0usize, 1, 63, 64, 65, 1_025] {
                let rows: Vec<f32> = (0..n * d)
                    .map(|i| {
                        let r = next();
                        let (lo, s) = (dyadic.min(i % d), dyadic.scale(i % d));
                        let step = (r % 300) as f32 - 20.0; // −20 ..= 279
                        match r >> 62 {
                            0 => lo + s * (step + 0.5),
                            1 => lo + s * step,
                            _ => (r >> 40) as f32 / (1u64 << 20) as f32 - 8.0,
                        }
                    })
                    .collect();
                let fitted = Sq8Quantizer::fit(&rows, n, d);
                for group in [1usize, 16, 64] {
                    for q in [&dyadic, &fitted] {
                        let got = q.encode_block(&rows, n, group);
                        let want = reference_block(&rows, n, d, group, q);
                        assert_eq!(got.as_slice(), want, "n {n} d {d} group {group}");
                    }
                }
            }
        }
    }
}
