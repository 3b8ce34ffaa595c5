//! Property-based tests (proptest) of the core invariants.

use pdx::prelude::*;
use pdx_core::collection::PdxCollection;
use pdx_core::distance::distance_scalar;
use pdx_core::search::pdxearch;
use proptest::prelude::*;

/// Arbitrary small collections: n in 1..200, d in 1..48, values bounded.
fn collection_strategy() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..200, 1usize..48).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-100.0f32..100.0, n * d).prop_map(move |data| (n, d, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PDX round-trips arbitrary data for arbitrary group sizes.
    #[test]
    fn pdx_round_trip((n, d, data) in collection_strategy(), group in 1usize..130) {
        let block = PdxBlock::from_rows(&data, n, d, group);
        prop_assert_eq!(block.to_rows(), data);
    }

    /// The PDX scan equals the scalar reference within FP tolerance.
    #[test]
    fn pdx_scan_matches_reference((n, d, data) in collection_strategy(), group in 1usize..130) {
        let block = PdxBlock::from_rows(&data, n, d, group);
        let q: Vec<f32> = data[..d].to_vec();
        let mut out = vec![0.0f32; n];
        pdx_scan(Metric::L2, &block, &q, &mut out);
        for (v, row) in data.chunks_exact(d).enumerate() {
            let want = distance_scalar(Metric::L2, &q, row);
            let tol = want.abs().max(1.0) * 1e-3;
            prop_assert!((out[v] - want).abs() <= tol, "v={} got={} want={}", v, out[v], want);
        }
    }

    /// All horizontal kernel tiers agree with the scalar reference.
    #[test]
    fn nary_kernels_match_reference((n, d, data) in collection_strategy()) {
        let q: Vec<f32> = data[(n - 1) * d..].to_vec();
        for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
            for row in data.chunks_exact(d).take(16) {
                let want = distance_scalar(metric, &q, row);
                let tol = want.abs().max(1.0) * 1e-3;
                for variant in [KernelVariant::Scalar, KernelVariant::Unrolled, KernelVariant::Simd] {
                    let got = nary_distance(metric, variant, &q, row);
                    prop_assert!((got - want).abs() <= tol);
                }
            }
        }
    }

    /// PDXearch with the exact PDX-BOND predicate returns exactly the
    /// brute-force top-k distance multiset, for any partitioning, group
    /// size, visit order and selection fraction.
    #[test]
    fn pdxearch_bond_equals_brute_force(
        (n, d, data) in collection_strategy(),
        k in 1usize..20,
        block_size in 1usize..80,
        group in 1usize..100,
        frac in 0.0f32..1.0,
        order_pick in 0usize..4,
    ) {
        let coll = PdxCollection::from_rows_partitioned(&data, n, d, block_size, group);
        let q: Vec<f32> = data[..d].iter().map(|x| x * 0.5 + 1.0).collect();
        let order = [
            VisitOrder::Sequential,
            VisitOrder::Decreasing,
            VisitOrder::DistanceToMeans,
            VisitOrder::DimensionZones { zone_size: 4 },
        ][order_pick];
        let bond = PdxBond::new(Metric::L2, order);
        let opts = SearchOptions::new(k).with_selection_fraction(frac);
        let got = pdxearch(&bond, &bond.prepare_query(&q), &coll.blocks, &opts, None, None);
        // Brute force.
        let mut want: Vec<f32> = data
            .chunks_exact(d)
            .map(|row| distance_scalar(Metric::L2, &q, row))
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            // Compare by distance (ids can swap on exact ties); permuted
            // accumulation changes FP rounding, so allow a tolerance.
            let tol = w.abs().max(1.0) * 1e-3;
            prop_assert!((g.distance - w).abs() <= tol, "got={} want={}", g.distance, w);
        }
    }

    /// The k-NN heap returns the true top-k of any stream.
    #[test]
    fn heap_matches_sort(mut distances in proptest::collection::vec(-1000.0f32..1000.0, 1..300), k in 1usize..40) {
        let mut heap = KnnHeap::new(k);
        for (i, &d) in distances.iter().enumerate() {
            heap.push(i as u64, d);
        }
        let got: Vec<f32> = heap.into_sorted().iter().map(|n| n.distance).collect();
        distances.sort_by(|a, b| a.partial_cmp(b).unwrap());
        distances.truncate(k);
        prop_assert_eq!(got, distances);
    }

    /// Partial L2/L1 distances are monotonically non-decreasing in the
    /// number of scanned dimensions (the PDX-BOND soundness condition).
    #[test]
    fn partial_distance_monotonicity(
        a in proptest::collection::vec(-50.0f32..50.0, 1..64),
        bseed in 0u64..1000,
    ) {
        let b: Vec<f32> = a.iter().enumerate().map(|(i, x)| x + ((bseed as f32 + i as f32) * 0.37).sin()).collect();
        for metric in [Metric::L2, Metric::L1] {
            let mut prev = 0.0f32;
            for dims in 1..=a.len() {
                let p = distance_scalar(metric, &a[..dims], &b[..dims]);
                prop_assert!(p >= prev - prev.abs() * 1e-6);
                prev = p;
            }
        }
    }

    /// fvecs serialization round-trips arbitrary float payloads
    /// (including NaN-free extremes).
    #[test]
    fn fvecs_round_trip(data in proptest::collection::vec(proptest::num::f32::NORMAL | proptest::num::f32::ZERO, 1..128), dims in 1usize..16) {
        let n = data.len() / dims;
        prop_assume!(n > 0);
        let payload = &data[..n * dims];
        let mut buf = Vec::new();
        pdx_datasets::io::write_fvecs(&mut buf, payload, dims).unwrap();
        let back = pdx_datasets::io::read_fvecs(&buf[..]).unwrap();
        prop_assert_eq!(back.data.as_slice(), payload);
        prop_assert_eq!(back.dims, dims);
    }

    /// Checkpoint schedules always end exactly at `dims`, are strictly
    /// increasing, and adaptive steps double.
    #[test]
    fn checkpoint_schedule_invariants(dims in 1usize..4096, start in 1usize..16, step in 1usize..64) {
        use pdx_core::pruning::{checkpoints, StepPolicy};
        for policy in [StepPolicy::Adaptive { start }, StepPolicy::Fixed { step }] {
            let cps = checkpoints(policy, dims);
            prop_assert_eq!(*cps.last().unwrap(), dims);
            prop_assert!(cps.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(cps[0] <= dims);
        }
    }

    /// BSA's exact bound (ρ = 1) never exceeds the true distance —
    /// the Cauchy–Schwarz inequality applied to vector suffixes.
    #[test]
    fn cauchy_schwarz_lower_bound_is_valid(
        pair in proptest::collection::vec(-20.0f32..20.0, 2..96),
        split_pct in 0.1f64..0.9,
    ) {
        let d = pair.len() / 2;
        prop_assume!(d >= 1);
        let v = &pair[..d];
        let q = &pair[d..2 * d];
        let split = ((d as f64 * split_pct) as usize).clamp(0, d);
        let full = distance_scalar(Metric::L2, q, v);
        let partial = distance_scalar(Metric::L2, &q[..split], &v[..split]);
        let res_v: f32 = v[split..].iter().map(|x| x * x).sum();
        let res_q: f32 = q[split..].iter().map(|x| x * x).sum();
        let lower = partial + res_v + res_q - 2.0 * (res_v * res_q).sqrt();
        prop_assert!(lower <= full * (1.0 + 1e-4) + 1e-3, "lower={} full={}", lower, full);
    }
}
