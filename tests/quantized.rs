//! Property-based and integration tests of the SQ8 quantized path.
//!
//! The property suite checks the *analytic* quantization-error bound:
//! with per-value reconstruction error `e_d` bounded by `scale_d / 2`,
//! the SQ8 L2 estimate `‖q − v̂‖²` differs from the true `‖q − v‖²` by at
//! most `Σ_d (2·|q_d − v̂_d|·(scale_d/2) + (scale_d/2)²)` — expanding
//! `(a_d − e_d)²` around the estimate's terms `a_d = q_d − v̂_d`. The
//! integration tests check that the two-phase search turns that bounded
//! per-distance error into ≥ 0.95 recall on the synthetic collections.

use pdx::prelude::*;
use pdx_core::distance::distance_scalar;
use proptest::prelude::*;

/// Arbitrary small collections: n in 1..150, d in 1..48, values bounded.
fn collection_strategy() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..150, 1usize..48).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-100.0f32..100.0, n * d).prop_map(move |data| (n, d, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every reconstructed value is within half a quantization step of
    /// the original (the per-value bound everything else builds on).
    #[test]
    fn reconstruction_error_is_within_half_step((n, d, data) in collection_strategy()) {
        let qz = Sq8Quantizer::fit(&data, n, d);
        for (i, &v) in data.iter().enumerate() {
            let dim = i % d;
            let back = qz.decode_value(dim, qz.encode_value(dim, v));
            let tol = qz.max_error(dim) * (1.0 + 1e-3) + 1e-6;
            prop_assert!((back - v).abs() <= tol, "dim {} value {} decoded {}", dim, v, back);
        }
    }

    /// The SQ8 L2 distance is within the analytic quantization-error
    /// bound of the true f32 distance, for arbitrary data and queries.
    #[test]
    fn sq8_distance_within_analytic_bound(
        (n, d, data) in collection_strategy(),
        group in 1usize..100,
        qseed in 0u64..1000,
    ) {
        let qz = Sq8Quantizer::fit(&data, n, d);
        let block = qz.encode_block(&data, n, group);
        // A query inside (and slightly outside) the data's range.
        let query: Vec<f32> = data[..d]
            .iter()
            .enumerate()
            .map(|(j, x)| x * 0.7 + ((qseed as f32 + j as f32) * 0.41).sin() * 5.0)
            .collect();
        let q = qz.prepare_query(Metric::L2, &query);
        let mut est = vec![0.0f32; n];
        sq8_scan(&q, &block, &mut est);
        for v in 0..n {
            let truth = distance_scalar(Metric::L2, &query, &data[v * d..(v + 1) * d]);
            let vhat = qz.decode_vector(&block, v);
            // Analytic bound: Σ_d (|q_d − v̂_d| · s_d + s_d²/4).
            let bound: f32 = (0..d)
                .map(|dim| {
                    let s = qz.scale(dim);
                    (query[dim] - vhat[dim]).abs() * s + s * s / 4.0
                })
                .sum();
            let slack = bound * 1e-3 + truth.abs() * 1e-4 + 1e-3;
            prop_assert!(
                (est[v] - truth).abs() <= bound + slack,
                "vector {}: est {} true {} bound {}",
                v, est[v], truth, bound
            );
        }
    }

    /// The quantized PDXearch scan (with dimension pruning) returns
    /// exactly the top-c of the estimated distances: pruning never
    /// changes the result, only the work.
    #[test]
    fn quantized_scan_pruning_is_exact_wrt_estimates(
        (n, d, data) in collection_strategy(),
        block_size in 1usize..60,
        group in 1usize..80,
        c in 1usize..20,
    ) {
        let qz = Sq8Quantizer::fit(&data, n, d);
        let mut blocks = Vec::new();
        let mut v0 = 0usize;
        while v0 < n {
            let here = block_size.min(n - v0);
            let ids: Vec<u64> = (v0 as u64..(v0 + here) as u64).collect();
            blocks.push(Sq8Block::new(&data[v0 * d..(v0 + here) * d], ids, d, group, &qz));
            v0 += here;
        }
        let query: Vec<f32> = data[(n - 1) * d..].iter().map(|x| x * 0.5 + 1.0).collect();
        let q = qz.prepare_query(Metric::L2, &query);
        let bound = Sq8Bound::new(&qz, Metric::L2);
        let prepared = bound.prepare_query(&query);
        let got = pdxearch(&bound, &prepared, &blocks, &SearchOptions::new(c), None, None);
        // Reference: full scans, no pruning.
        let mut want: Vec<f32> = Vec::new();
        for b in &blocks {
            let mut out = vec![0.0f32; b.len()];
            sq8_scan(&q, &b.codes, &mut out);
            want.extend(out);
        }
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        want.truncate(c);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            let tol = w.abs().max(1.0) * 1e-3;
            prop_assert!((g.distance - w).abs() <= tol, "got={} want={}", g.distance, w);
        }
    }

    /// Two-phase rerank distances are the exact f32 distances.
    #[test]
    fn rerank_distances_are_exact(
        (n, d, data) in collection_strategy(),
        k in 1usize..10,
    ) {
        let flat = FlatSq8::build(&data, n, d, 64, 16);
        let query: Vec<f32> = data[..d].iter().map(|x| x * 0.9 - 0.5).collect();
        let hits = flat.search(&query, &SearchOptions::new(k));
        for h in &hits {
            let row = &data[h.id as usize * d..(h.id as usize + 1) * d];
            let truth = distance_scalar(Metric::L2, &query, row);
            prop_assert_eq!(h.distance, truth);
        }
    }
}

/// Two-phase search recall@10 ≥ 0.95 on the synthetic SIFT-like dataset
/// (the PR's acceptance bar), at both the flat and IVF deployments.
#[test]
fn two_phase_recall_meets_bar_on_synthetic_sift() {
    let spec = *spec_by_name("sift").unwrap();
    let (n, nq, k) = (4000, 30, 10);
    let ds = generate(&spec, n, nq, 7);
    let gt = ground_truth(&ds.data, &ds.queries, ds.dims(), k, Metric::L2, 0);

    // Flat deployment: scans everything, so recall is limited only by
    // the quantization error the rerank absorbs.
    let flat = FlatSq8::build(&ds.data, n, ds.dims(), 1024, DEFAULT_GROUP_SIZE);
    let results: Vec<Vec<u64>> = (0..nq)
        .map(|qi| {
            flat.search(ds.query(qi), &SearchOptions::new(k))
                .iter()
                .map(|r| r.id)
                .collect()
        })
        .collect();
    let recall = mean_recall(&gt, &results, k);
    assert!(recall >= 0.95, "flat two-phase recall@{k} = {recall}");

    // IVF deployment at a generous nprobe.
    let index = IvfIndex::build(&ds.data, n, ds.dims(), 32, 10, 3);
    let ivf = IvfSq8::new(&ds.data, ds.dims(), &index.assignments, DEFAULT_GROUP_SIZE);
    let results: Vec<Vec<u64>> = (0..nq)
        .map(|qi| {
            ivf.search(ds.query(qi), &SearchOptions::new(k).with_nprobe(16))
                .iter()
                .map(|r| r.id)
                .collect()
        })
        .collect();
    let recall = mean_recall(&gt, &results, k);
    assert!(recall >= 0.95, "ivf two-phase recall@{k} = {recall}");
}

/// The persisted container round-trips into a deployment that answers
/// queries identically (build → write → read → query).
#[test]
fn persisted_sq8_index_answers_identically() {
    let spec = *spec_by_name("nytimes").unwrap();
    let ds = generate(&spec, 600, 5, 11);
    let flat = FlatSq8::build(&ds.data, 600, ds.dims(), 128, 32);
    let mut buf = Vec::new();
    pdx::datasets::persist::write_sq8(&mut buf, &flat.quantizer, &flat.blocks, Some(&flat.rows))
        .unwrap();
    use pdx::datasets::persist::{read_container, Container};
    let Container::Sq8(back) = read_container(&buf).unwrap() else {
        panic!("not a PDX2 container")
    };
    let reloaded = FlatSq8::from_parts(back.dims, back.quantizer, back.blocks, back.rows);
    for qi in 0..5 {
        assert_eq!(
            flat.search(ds.query(qi), &SearchOptions::new(10)),
            reloaded.search(ds.query(qi), &SearchOptions::new(10)),
            "query {qi}"
        );
    }
}
