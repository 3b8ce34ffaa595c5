//! HNSW (Hierarchical Navigable Small World) graph — the centroid-routing
//! substrate of the paper's "commonly used hybrid index" (§2.1): an HNSW
//! built on the IVF centroids finds the most promising buckets quickly,
//! replacing the linear centroid scan when `nlist` is large. §7 also
//! points to graph indexes as the next target for the PDX layout.
//!
//! This is a faithful, compact HNSW (Malkov & Yashunin, 2018): layered
//! proximity graph, exponentially distributed node levels, greedy descent
//! through the upper layers and beam search (`ef`) at layer 0.

use pdx_core::distance::Metric;
use pdx_core::heap::{KnnHeap, Neighbor};
use pdx_core::kernels::{nary_distance, KernelVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// Construction/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Max neighbours per node on layers ≥ 1 (layer 0 uses `2·m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 100,
        }
    }
}

/// A built HNSW graph over an owned copy of the vectors.
#[derive(Debug, Clone)]
pub struct Hnsw {
    dims: usize,
    params: HnswParams,
    /// Row-major vector storage.
    vectors: Vec<f32>,
    /// `levels[v]` = highest layer of node `v`.
    levels: Vec<u8>,
    /// `neighbors[l][v]` = adjacency of node `v` at layer `l` (empty for
    /// nodes whose level < l).
    neighbors: Vec<Vec<Vec<u32>>>,
    /// Entry point (node with the highest level).
    entry: u32,
}

/// Max-heap entry ordered by distance (for the candidate frontier we
/// negate by flipping the comparison).
#[derive(PartialEq)]
struct HeapItem {
    dist: f32,
    node: u32,
}

impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .expect("NaN distance")
            .then(self.node.cmp(&other.node))
    }
}

impl Hnsw {
    /// Builds the graph by sequential insertion.
    ///
    /// # Panics
    /// Panics if the buffer size disagrees with `dims` or the collection
    /// is empty.
    pub fn build(rows: &[f32], n: usize, dims: usize, params: HnswParams, seed: u64) -> Self {
        assert!(n > 0, "cannot build HNSW over an empty collection");
        assert_eq!(rows.len(), n * dims, "row buffer does not match dimensions");
        let mut rng = StdRng::seed_from_u64(seed);
        let level_mult = 1.0 / (params.m.max(2) as f64).ln();
        let mut hnsw = Self {
            dims,
            params,
            vectors: rows.to_vec(),
            levels: Vec::with_capacity(n),
            neighbors: vec![vec![Vec::new(); n]],
            entry: 0,
        };
        for v in 0..n as u32 {
            let level = (-(rng.random::<f64>().max(f64::MIN_POSITIVE)).ln() * level_mult) as usize;
            hnsw.insert(v, level.min(31));
        }
        hnsw
    }

    /// Highest layer currently in use.
    pub fn max_level(&self) -> usize {
        self.neighbors.len() - 1
    }

    fn vector(&self, v: u32) -> &[f32] {
        &self.vectors[v as usize * self.dims..(v as usize + 1) * self.dims]
    }

    fn distance(&self, q: &[f32], v: u32) -> f32 {
        nary_distance(Metric::L2, KernelVariant::Simd, q, self.vector(v))
    }

    fn insert(&mut self, node: u32, level: usize) {
        self.levels.push(level as u8);
        while self.neighbors.len() <= level {
            self.neighbors
                .push(vec![Vec::new(); self.vectors.len() / self.dims]);
        }
        if node == 0 {
            self.entry = 0;
            return;
        }
        let q = self.vector(node).to_vec();
        let mut ep = self.entry;
        let top = self.max_level();
        let entry_level = self.levels[self.entry as usize] as usize;
        // Greedy descent through layers above the node's level.
        for l in (level + 1..=entry_level.min(top)).rev() {
            ep = self.greedy_closest(&q, ep, l);
        }
        // Connect at each layer from min(level, entry_level) down to 0.
        for l in (0..=level.min(entry_level)).rev() {
            let found = self.search_layer(&q, ep, l, self.params.ef_construction);
            let max_links = if l == 0 {
                self.params.m * 2
            } else {
                self.params.m
            };
            let selected: Vec<u32> = found.iter().take(max_links).map(|item| item.node).collect();
            ep = selected.first().copied().unwrap_or(ep);
            for &nb in &selected {
                self.neighbors[l][node as usize].push(nb);
                self.neighbors[l][nb as usize].push(node);
                // Prune the neighbour's list if it overflowed.
                if self.neighbors[l][nb as usize].len() > max_links {
                    self.shrink_links(nb, l, max_links);
                }
            }
        }
        if level > self.levels[self.entry as usize] as usize {
            self.entry = node;
        }
    }

    /// Keeps only the `max_links` closest links of `node` at layer `l`.
    fn shrink_links(&mut self, node: u32, l: usize, max_links: usize) {
        let base = self.vector(node).to_vec();
        let mut links = std::mem::take(&mut self.neighbors[l][node as usize]);
        links.sort_by(|&a, &b| {
            self.distance(&base, a)
                .partial_cmp(&self.distance(&base, b))
                .expect("NaN")
                .then(a.cmp(&b))
        });
        links.dedup();
        links.truncate(max_links);
        self.neighbors[l][node as usize] = links;
    }

    /// Greedy hill-descent to the locally closest node at layer `l`.
    fn greedy_closest(&self, q: &[f32], mut ep: u32, l: usize) -> u32 {
        let mut best = self.distance(q, ep);
        loop {
            let mut improved = false;
            for &nb in &self.neighbors[l][ep as usize] {
                let d = self.distance(q, nb);
                if d < best {
                    best = d;
                    ep = nb;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Beam search at layer `l`; returns up to `ef` closest nodes,
    /// ascending by distance.
    fn search_layer(&self, q: &[f32], ep: u32, l: usize, ef: usize) -> Vec<HeapItem> {
        let mut visited = vec![false; self.levels.len()];
        visited[ep as usize] = true;
        let d0 = self.distance(q, ep);
        // Frontier: min-heap via Reverse ordering on HeapItem.
        let mut frontier: BinaryHeap<std::cmp::Reverse<HeapItem>> = BinaryHeap::new();
        frontier.push(std::cmp::Reverse(HeapItem { dist: d0, node: ep }));
        // Results: max-heap, worst on top.
        let mut results: BinaryHeap<HeapItem> = BinaryHeap::new();
        results.push(HeapItem { dist: d0, node: ep });
        while let Some(std::cmp::Reverse(cand)) = frontier.pop() {
            let worst = results.peek().map_or(f32::INFINITY, |r| r.dist);
            if cand.dist > worst && results.len() >= ef {
                break;
            }
            for &nb in &self.neighbors[l][cand.node as usize] {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let d = self.distance(q, nb);
                let worst = results.peek().map_or(f32::INFINITY, |r| r.dist);
                if results.len() < ef || d < worst {
                    frontier.push(std::cmp::Reverse(HeapItem { dist: d, node: nb }));
                    results.push(HeapItem { dist: d, node: nb });
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<HeapItem> = results.into_vec();
        out.sort();
        out
    }

    /// k-NN query with beam width `ef` (clamped to ≥ k).
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        let mut ep = self.entry;
        let entry_level = self.levels[self.entry as usize] as usize;
        for l in (1..=entry_level).rev() {
            ep = self.greedy_closest(query, ep, l);
        }
        let found = self.search_layer(query, ep, 0, ef.max(k));
        let mut heap = KnnHeap::new(k);
        for item in found {
            heap.push(item.node as u64, item.dist);
        }
        heap.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n_side: usize) -> (Vec<f32>, usize) {
        // n_side² points on a 2-D grid: an easy, fully connected space.
        let mut rows = Vec::new();
        for x in 0..n_side {
            for y in 0..n_side {
                rows.push(x as f32);
                rows.push(y as f32);
            }
        }
        (rows, n_side * n_side)
    }

    fn brute(rows: &[f32], dims: usize, q: &[f32], k: usize) -> Vec<u64> {
        let mut heap = KnnHeap::new(k);
        for (i, row) in rows.chunks_exact(dims).enumerate() {
            heap.push(
                i as u64,
                nary_distance(Metric::L2, KernelVariant::Scalar, q, row),
            );
        }
        heap.into_sorted().iter().map(|n| n.id).collect()
    }

    #[test]
    fn exact_on_small_grid() {
        let (rows, n) = grid(12);
        let hnsw = Hnsw::build(&rows, n, 2, HnswParams::default(), 1);
        // Query at a grid point: its 1-NN must be itself.
        for probe in [0usize, 37, 143] {
            let q = &rows[probe * 2..probe * 2 + 2];
            let res = hnsw.search(q, 1, 32);
            assert_eq!(res[0].id, probe as u64, "probe {probe}");
            assert_eq!(res[0].distance, 0.0);
        }
    }

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * d).map(|_| rng.random::<f32>() * 10.0).collect()
    }

    #[test]
    fn high_recall_on_random_data() {
        let (n, d, k) = (2000, 16, 10);
        let rows = random_rows(n, d, 3);
        let hnsw = Hnsw::build(&rows, n, d, HnswParams::default(), 5);
        let mut total = 0.0;
        let nq = 20;
        for qi in 0..nq {
            let q = random_rows(1, d, 100 + qi as u64);
            let want: std::collections::HashSet<u64> = brute(&rows, d, &q, k).into_iter().collect();
            let got = hnsw.search(&q, k, 80);
            let hits = got.iter().filter(|r| want.contains(&r.id)).count();
            total += hits as f64 / k as f64;
        }
        let recall = total / nq as f64;
        assert!(recall > 0.9, "HNSW recall too low: {recall}");
    }

    #[test]
    fn single_node_graph() {
        let hnsw = Hnsw::build(&[1.0, 2.0], 1, 2, HnswParams::default(), 0);
        let res = hnsw.search(&[0.0, 0.0], 3, 10);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, 0);
    }

    #[test]
    fn links_respect_degree_bounds() {
        let (rows, n) = grid(10);
        let p = HnswParams {
            m: 4,
            ef_construction: 40,
        };
        let hnsw = Hnsw::build(&rows, n, 2, p, 2);
        for l in 0..=hnsw.max_level() {
            let cap = if l == 0 { p.m * 2 } else { p.m };
            for v in 0..n {
                // Lists can transiently exceed cap only before shrink; the
                // built graph must respect a small slack of +cap (links
                // added by later neighbours before their own shrink).
                assert!(
                    hnsw.neighbors[l][v].len() <= cap * 2,
                    "layer {l} node {v} degree {}",
                    hnsw.neighbors[l][v].len()
                );
            }
        }
    }

    #[test]
    fn deterministic_build() {
        let (rows, n) = grid(8);
        let a = Hnsw::build(&rows, n, 2, HnswParams::default(), 9);
        let b = Hnsw::build(&rows, n, 2, HnswParams::default(), 9);
        let q = [3.3f32, 4.7];
        assert_eq!(a.search(&q, 5, 30), b.search(&q, 5, 30));
    }
}
