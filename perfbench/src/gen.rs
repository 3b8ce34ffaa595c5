//! Seeded inputs and the harness's own oracle: a small PRNG, the Zipf
//! stream, script hashing, and a brute-force exact top-k that shares no
//! code with the library it checks.

use pdx::prelude::{generate, spec_by_name, Dataset};

/// SplitMix64: tiny, seedable, and good enough to pick queries.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` (rank 0 is the most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A stream of `positions` query indexes drawn Zipf(s) over a
/// population of `distinct` queries (unpopular ones may never occur).
pub fn zipf_stream(distinct: usize, positions: usize, s: f64, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(distinct, s);
    let mut rng = Rng::new(seed ^ 0x5A1F);
    (0..positions).map(|_| zipf.sample(&mut rng)).collect()
}

/// `0..n` in an order drawn from the seed (Fisher–Yates): the script of
/// a workload whose traffic is "every query once".
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed ^ 0x0DE5);
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order
}

/// FNV-1a over a script's numbers: the identity of an op script.
pub fn script_hash(items: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in items {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// A Table-1-shaped synthetic collection (`"sift"` d = 128, `"gist"`
/// d = 960) with its population of queries, from the seed alone.
pub fn dataset(name: &str, n: usize, n_queries: usize, seed: u64) -> Dataset {
    let spec = spec_by_name(name).expect("known Table 1 collection");
    generate(spec, n, n_queries, seed)
}

/// Exact answer for one query: the top-k ids and the k-th distance
/// (recomputed in `f64`), which is what recall is judged against.
pub struct Truth {
    pub ids: Vec<u64>,
    pub kth: f64,
}

fn l2_f64(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum()
}

fn l2_f32(a: &[f32], b: &[f32]) -> f32 {
    // Eight independent lanes so the loop vectorizes.
    let mut acc = [0.0f32; 8];
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail: f32 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    for (xa, xb) in ca.zip(cb) {
        for l in 0..8 {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    acc.iter().sum::<f32>() + tail
}

/// Brute-force exact top-`k` (squared L2) of every query over `rows`
/// (`ids[i]` names row `i`), on `threads` threads split by query.
pub fn exact_topk(
    rows: &[f32],
    ids: &[u64],
    dims: usize,
    queries: &[&[f32]],
    k: usize,
    threads: usize,
) -> Vec<Truth> {
    assert_eq!(rows.len(), ids.len() * dims, "one id per row");
    let one = |q: &[f32]| -> Truth {
        // (distance, row) of the k best so far, worst last.
        let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
        for (i, row) in rows.chunks_exact(dims).enumerate() {
            let d = l2_f32(q, row);
            if best.len() < k || d < best[best.len() - 1].0 {
                let at = best.partition_point(|&(bd, _)| bd <= d);
                best.insert(at, (d, i));
                best.truncate(k);
            }
        }
        let kth = best
            .iter()
            .map(|&(_, i)| l2_f64(q, &rows[i * dims..(i + 1) * dims]))
            .fold(0.0, f64::max);
        Truth {
            ids: best.iter().map(|&(_, i)| ids[i]).collect(),
            kth,
        }
    };
    let threads = threads.clamp(1, queries.len().max(1));
    let band = queries.len().div_ceil(threads);
    let mut out = Vec::with_capacity(queries.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(band.max(1))
            .map(|chunk| scope.spawn(move || chunk.iter().map(|q| one(q)).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("oracle thread panicked"));
        }
    });
    out
}

/// Recall@k of one answer with a tie tolerance: a returned row counts
/// when its exact (`f64`) distance is within `1e-5` (relative) of the
/// true k-th distance, so two rows that tie at the boundary — or differ
/// by float summation order — are interchangeable. `row_of` resolves a
/// returned id to its vector (`None` = not a live row = a miss).
pub fn recall<'a>(
    truth: &Truth,
    query: &[f32],
    result_ids: impl IntoIterator<Item = u64>,
    row_of: impl Fn(u64) -> Option<&'a [f32]>,
) -> f64 {
    let k = truth.ids.len();
    if k == 0 {
        return 1.0;
    }
    let limit = truth.kth * (1.0 + 1e-5) + f64::MIN_POSITIVE;
    let mut seen: Vec<u64> = Vec::with_capacity(k);
    for id in result_ids {
        if seen.contains(&id) {
            continue;
        }
        if row_of(id).is_some_and(|row| l2_f64(query, row) <= limit) {
            seen.push(id);
        }
    }
    seen.len().min(k) as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.5);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[5]);
        // P(rank 0) = 1 / zeta_100(1.5) ≈ 0.41.
        assert!((3_700..4_500).contains(&counts[0]), "{}", counts[0]);
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a = zipf_stream(50, 300, 1.5, 9);
        let b = zipf_stream(50, 300, 1.5, 9);
        let c = zipf_stream(50, 300, 1.5, 10);
        let hash = |s: &[usize]| script_hash(s.iter().map(|&q| q as u64));
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(hash(&a), hash(&c));
        assert!(a.iter().all(|&q| q < 50));
    }

    #[test]
    fn permutation_is_complete_and_deterministic_per_seed() {
        let a = permutation(200, 3);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>());
        assert_eq!(a, permutation(200, 3));
        assert_ne!(a, permutation(200, 4));
        assert_ne!(a, sorted);
    }

    #[test]
    fn oracle_finds_the_nearest_rows() {
        // Rows on a line: row i = (i, 0).
        let rows: Vec<f32> = (0..20).flat_map(|i| [i as f32, 0.0]).collect();
        let ids: Vec<u64> = (100..120).collect();
        let q = [7.2f32, 0.0];
        let truth = exact_topk(&rows, &ids, 2, &[&q], 3, 2);
        assert_eq!(truth[0].ids, vec![107, 108, 106]);
        assert!((truth[0].kth - 1.44).abs() < 1e-5);
        let row_of = |id: u64| {
            let i = (id - 100) as usize;
            Some(&rows[i * 2..i * 2 + 2])
        };
        assert_eq!(recall(&truth[0], &q, [107, 108, 106], row_of), 1.0);
        assert!((recall(&truth[0], &q, [107, 108, 110], row_of) - 2.0 / 3.0).abs() < 1e-12);
        // A duplicate id is not counted twice.
        assert!((recall(&truth[0], &q, [107, 107, 107], row_of) - 1.0 / 3.0).abs() < 1e-12);
    }
}
