//! ADSampling: random-projection hypothesis-test pruning (§2.3).
//!
//! Preprocessing applies one random rotation to every vector (the
//! structured `O(d log d)` [`RandomRotation`], not a dense matrix).
//! Distances are preserved exactly, but each rotated dimension now
//! carries an equal share of the distance in expectation, so after
//! scanning `d'` of `D` dimensions the partial squared distance `p`
//! estimates the full distance as `p · D/d'`. The hypothesis test prunes
//! a vector when even an inflated confidence interval around that
//! estimate cannot undercut the current k-th best distance `thr`:
//!
//! ```text
//! prune  ⇔  p > thr · (d'/D) · (1 + ε₀/√d')²
//! ```
//!
//! ε₀ (default 2.1, the authors' recommendation) trades recall for
//! pruning power: larger ε₀ demands more evidence before pruning.

use pdx_core::distance::Metric;
use pdx_core::pruning::Pruner;
use pdx_linalg::RandomRotation;

/// The ADSampling pruner: a fitted random rotation plus ε₀.
#[derive(Debug, Clone)]
pub struct AdSampling {
    rotation: RandomRotation,
    epsilon0: f32,
}

/// Per-query state: the rotated query.
#[derive(Debug, Clone)]
pub struct AdsQuery {
    rotated: Vec<f32>,
}

/// Per-checkpoint state: the precomputed scalar pruning bound.
#[derive(Debug, Clone, Copy)]
pub struct AdsCheckpoint {
    bound: f32,
}

impl AdSampling {
    /// Recommended ε₀ from the ADSampling authors.
    pub const DEFAULT_EPSILON0: f32 = 2.1;

    /// Draws the random rotation for a `dims`-dimensional collection.
    pub fn fit(dims: usize, seed: u64) -> Self {
        Self {
            rotation: RandomRotation::new(dims, seed),
            epsilon0: Self::DEFAULT_EPSILON0,
        }
    }

    /// Overrides ε₀ (recall/speed knob).
    pub fn with_epsilon0(mut self, epsilon0: f32) -> Self {
        assert!(epsilon0 >= 0.0, "epsilon0 must be non-negative");
        self.epsilon0 = epsilon0;
        self
    }

    /// The fitted dimensionality.
    pub fn dims(&self) -> usize {
        self.rotation.dims()
    }

    /// Configured ε₀.
    pub fn epsilon0(&self) -> f32 {
        self.epsilon0
    }

    /// Rotates a whole collection (row-major) into search space,
    /// multi-threaded. One-time preprocessing; each row comes out with
    /// the bits [`AdSampling::transform_vector`] gives it.
    pub fn transform_collection(&self, rows: &[f32], n_vectors: usize, threads: usize) -> Vec<f32> {
        assert_eq!(
            rows.len(),
            n_vectors * self.dims(),
            "row buffer does not match dims"
        );
        self.rotation.transform_rows(rows, threads)
    }

    /// Rotates one vector (query-time path).
    pub fn transform_vector(&self, v: &[f32]) -> Vec<f32> {
        self.rotation.transform_vector(v)
    }
}

impl Pruner for AdSampling {
    type Query = AdsQuery;
    type Checkpoint = AdsCheckpoint;

    fn name(&self) -> &'static str {
        "adsampling"
    }

    fn metric(&self) -> Metric {
        // The hypothesis test is derived for squared Euclidean distance.
        Metric::L2
    }

    fn prepare_query(&self, query: &[f32]) -> AdsQuery {
        assert_eq!(query.len(), self.dims(), "query dimensionality mismatch");
        AdsQuery {
            rotated: self.transform_vector(query),
        }
    }

    fn query_vector<'q>(&self, q: &'q AdsQuery) -> &'q [f32] {
        &q.rotated
    }

    fn checkpoint(
        &self,
        _q: &AdsQuery,
        dims_scanned: usize,
        dims_total: usize,
        threshold: f32,
    ) -> AdsCheckpoint {
        let ratio = dims_scanned as f32 / dims_total as f32;
        let conf = 1.0 + self.epsilon0 / (dims_scanned as f32).sqrt();
        AdsCheckpoint {
            bound: threshold * ratio * conf * conf,
        }
    }

    #[inline(always)]
    fn limit(cp: &AdsCheckpoint) -> f32 {
        cp.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdx_core::distance::distance_scalar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = pdx_linalg::Gaussian::new();
        (0..n * d).map(|_| g.sample_f32(&mut rng)).collect()
    }

    #[test]
    fn transform_preserves_pairwise_distances() {
        let d = 24;
        let ads = AdSampling::fit(d, 1);
        let rows = random_rows(10, d, 2);
        let rotated = ads.transform_collection(&rows, 10, 2);
        for i in 0..10 {
            for j in (i + 1)..10 {
                let d0 = distance_scalar(
                    Metric::L2,
                    &rows[i * d..(i + 1) * d],
                    &rows[j * d..(j + 1) * d],
                );
                let d1 = distance_scalar(
                    Metric::L2,
                    &rotated[i * d..(i + 1) * d],
                    &rotated[j * d..(j + 1) * d],
                );
                assert!((d0 - d1).abs() < d0.max(1.0) * 1e-3, "{d0} vs {d1}");
            }
        }
    }

    #[test]
    fn query_and_collection_share_the_rotation() {
        let d = 16;
        let ads = AdSampling::fit(d, 3);
        let rows = random_rows(1, d, 4);
        let q = random_rows(1, d, 5);
        let rv = ads.transform_collection(&rows, 1, 1);
        let rq = ads.prepare_query(&q);
        let d0 = distance_scalar(Metric::L2, &q, &rows);
        let d1 = distance_scalar(Metric::L2, &rq.rotated, &rv);
        assert!((d0 - d1).abs() < d0.max(1.0) * 1e-3);
    }

    #[test]
    fn batched_preparation_matches_per_query_bits() {
        let d = 40;
        let ads = AdSampling::fit(d, 6);
        for nq in [1usize, 2, 5, 19] {
            let packed = random_rows(nq, d, nq as u64);
            // The trait's default batch and the collection path both give
            // a row the bits of `prepare_query`.
            let batch = ads.prepare_queries(&packed, d);
            let collection = ads.transform_collection(&packed, nq, 2);
            assert_eq!(batch.len(), nq);
            for (i, (q, raw)) in batch.iter().zip(packed.chunks_exact(d)).enumerate() {
                let want = ads.prepare_query(raw);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&q.rotated), bits(&want.rotated));
                assert_eq!(bits(&collection[i * d..(i + 1) * d]), bits(&want.rotated));
            }
        }
    }

    #[test]
    fn bound_grows_with_scanned_dims() {
        let ads = AdSampling::fit(8, 0);
        let q = AdsQuery {
            rotated: vec![0.0; 8],
        };
        let thr = 100.0;
        let bounds: Vec<f32> = (1..=8)
            .map(|d| ads.checkpoint(&q, d, 8, thr).bound)
            .collect();
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bound must grow: {bounds:?}");
        }
        // At d' = D the factor (1+ε/√D)² ≥ 1 keeps the bound above thr:
        // the final merge is threshold-checked by the heap, not the test.
        assert!(bounds[7] >= thr);
    }

    #[test]
    fn epsilon_zero_prunes_on_expectation() {
        // With ε₀ = 0 the bound is thr·d'/D exactly.
        let ads = AdSampling::fit(10, 0).with_epsilon0(0.0);
        let q = AdsQuery {
            rotated: vec![0.0; 10],
        };
        let cp = ads.checkpoint(&q, 5, 10, 80.0);
        assert!((cp.bound - 40.0).abs() < 1e-5);
        assert!(AdSampling::survives(&cp, 40.0, 0.0));
        assert!(!AdSampling::survives(&cp, 40.1, 0.0));
    }

    #[test]
    fn hypothesis_test_rarely_prunes_true_neighbours() {
        // Statistical sanity: the partial distance of the *true* distance
        // rarely violates the ε₀ = 2.1 bound when thr equals the true
        // distance itself. Gaussian pairs would be rotation-invariant
        // already and pass with the identity as "rotation", so the
        // difference vectors are the ones a rotation has to work on:
        // all their energy in one coordinate, in a short run, or on a
        // comb of a regular stride — at every offset.
        let d = 960;
        let ads = AdSampling::fit(d, 7);
        let combs = [2usize, 3, 15, 64, 480]
            .into_iter()
            .flat_map(|stride| (0..stride).map(move |at| (at, stride, d)));
        let differences = (0..d)
            .map(|at| (at, 1, at + 1))
            .chain((0..=d - 16).map(|at| (at, 1, at + 16)))
            .chain(combs);
        let a = random_rows(1, d, 11);
        let ra = ads.transform_vector(&a);
        let q = AdsQuery {
            rotated: ra.clone(),
        };
        let (mut checks, mut violations) = (0usize, 0usize);
        for (at, stride, end) in differences {
            let mut b = a.clone();
            for x in b[at..end].iter_mut().step_by(stride) {
                *x += 1.0;
            }
            let rb = ads.transform_vector(&b);
            let full = distance_scalar(Metric::L2, &ra, &rb);
            for scanned in [8usize, 32, 64] {
                let partial = distance_scalar(Metric::L2, &ra[..scanned], &rb[..scanned]);
                let cp = ads.checkpoint(&q, scanned, d, full);
                checks += 1;
                violations += usize::from(!AdSampling::survives(&cp, partial, 0.0));
            }
        }
        // ε₀ = 2.1 targets a very small false-pruning probability (≈ 0.2 %
        // of checks under a Haar rotation; with no rotation, 4.7 %).
        assert!(
            violations * 100 <= checks,
            "too many violations: {violations} of {checks}"
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_query_width_panics() {
        let ads = AdSampling::fit(8, 0);
        let _ = ads.prepare_query(&[0.0; 4]);
    }
}
