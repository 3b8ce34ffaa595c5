//! Trait-object conformance suite: every served deployment, as a
//! `Box<dyn VectorIndex>`, must
//!
//! (a) return a top-1 that agrees with an exact linear scan (all four
//!     configurations here are exact or rerank-exact) — and so must the
//!     paper's horizontal IVF baseline through its typed call, under the
//!     options' pruner,
//! (b) answer `search_batch` bit-identically to a sequential loop of
//!     `search` at any thread count,
//! (c) reproduce, from `SearchOptions::default()`, exactly what each
//!     deployment's inherent API returned with its old per-type
//!     defaults — the refactor must not have moved any default.
//!
//! Plus the serving path: `AnyIndex::open` must hand back deployments
//! whose results are bit-identical to the in-memory originals.

use pdx::prelude::*;
use pdx_bench::baselines::IvfHorizontal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * d).map(|_| rng.random::<f32>() * 10.0).collect()
}

/// Exact reference: brute-force scan with the canonical heap.
fn brute(rows: &[f32], d: usize, q: &[f32], k: usize) -> Vec<Neighbor> {
    let mut heap = KnnHeap::new(k);
    for (i, row) in rows.chunks_exact(d).enumerate() {
        let dist: f32 = q.iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum();
        heap.push(i as u64, dist);
    }
    heap.into_sorted()
}

/// The four resident deployments over the same collection, as trait
/// objects.
fn deployments(rows: &[f32], n: usize, d: usize) -> Vec<Box<dyn VectorIndex>> {
    let index = IvfIndex::build(rows, n, d, 12, 8, 7);
    vec![
        Box::new(FlatPdx::new(rows, n, d, 150, 16)),
        Box::new(IvfPdx::new(rows, d, &index.assignments, 16)),
        Box::new(FlatSq8::build(rows, n, d, 150, 16)),
        Box::new(IvfSq8::new(rows, d, &index.assignments, 16)),
    ]
}

/// The horizontal IVF baseline over the same buckets as [`deployments`].
fn horizontal(rows: &[f32], n: usize, d: usize) -> IvfHorizontal {
    let index = IvfIndex::build(rows, n, d, 12, 8, 7);
    IvfHorizontal::from_pdx(&IvfPdx::new(rows, d, &index.assignments, 16), d / 4)
}

#[test]
fn every_deployment_is_reachable_as_a_trait_object() {
    let (n, d) = (700, 16);
    let rows = random_rows(n, d, 1);
    let expected_kinds = ["flat-pdx", "ivf-pdx", "flat-sq8", "ivf-sq8"];
    for (dep, want) in deployments(&rows, n, d).iter().zip(expected_kinds) {
        assert_eq!(dep.kind(), want);
        assert_eq!(dep.dims(), d, "{}", dep.kind());
        assert_eq!(dep.len(), n, "{}", dep.kind());
        assert!(!dep.is_empty(), "{}", dep.kind());
    }
}

#[test]
fn top1_agrees_with_exact_linear_scan() {
    let (n, d, k) = (700, 16, 10);
    let rows = random_rows(n, d, 1);
    let deps = deployments(&rows, n, d);
    let hor = horizontal(&rows, n, d);
    let opts = SearchOptions::new(k);
    for qi in 0..5 {
        let q = random_rows(1, d, 100 + qi);
        let exact = brute(&rows, d, &q, k);
        let baseline = ("ivf-horizontal", hor.search_with(&opts.bond(), &q, &opts));
        let served = deps.iter().map(|dep| (dep.kind(), dep.search(&q, &opts)));
        for (kind, got) in served.chain([baseline]) {
            assert_eq!(got.len(), k, "{kind} query {qi}");
            assert_eq!(got[0].id, exact[0].id, "{kind} query {qi} top-1");
        }
    }
}

#[test]
fn batch_is_bit_identical_to_sequential_loop() {
    let (n, d, k, nq) = (500, 12, 6, 7);
    let rows = random_rows(n, d, 5);
    let queries = random_rows(nq, d, 6);
    let deps = deployments(&rows, n, d);
    let opts = SearchOptions::new(k);
    for dep in &deps {
        let sequential: Vec<Vec<Neighbor>> = (0..nq)
            .map(|qi| dep.search(&queries[qi * d..(qi + 1) * d], &opts))
            .collect();
        for threads in [1usize, 2, 8] {
            let batch = dep.search_batch(&queries, &opts.with_threads(threads));
            assert_eq!(batch, sequential, "{} at {threads} threads", dep.kind());
        }
    }
}

/// The kernel policy is a pure performance knob: for every deployment,
/// every policy, and every thread count, results are bit-identical —
/// the explicit SIMD kernels reproduce the scalar accumulation order.
#[test]
fn kernel_policies_are_bit_identical_across_deployments_and_threads() {
    let (n, d, k, nq) = (600, 16, 8, 5);
    let rows = random_rows(n, d, 31);
    let queries = random_rows(nq, d, 32);
    let deps = deployments(&rows, n, d);
    for dep in &deps {
        let scalar = SearchOptions::new(k).with_kernel(KernelPolicy::Scalar);
        let want: Vec<Vec<Neighbor>> = (0..nq)
            .map(|qi| dep.search(&queries[qi * d..(qi + 1) * d], &scalar))
            .collect();
        for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
            let opts = SearchOptions::new(k).with_kernel(policy);
            for threads in [1usize, 2, 8] {
                let batch = dep.search_batch(&queries, &opts.with_threads(threads));
                assert_eq!(
                    batch,
                    want,
                    "{} with {policy:?} at {threads} threads",
                    dep.kind()
                );
            }
        }
    }
    // The horizontal baseline's one entry point, query by query.
    let hor = horizontal(&rows, n, d);
    let search = |opts: SearchOptions| -> Vec<Vec<Neighbor>> {
        let each = |q: &[f32]| hor.search_with(&opts.bond(), q, &opts);
        queries.chunks_exact(d).map(each).collect()
    };
    let want = search(SearchOptions::new(k).with_kernel(KernelPolicy::Scalar));
    for policy in [KernelPolicy::Auto, KernelPolicy::Simd] {
        let got = search(SearchOptions::new(k).with_kernel(policy));
        assert_eq!(got, want, "ivf-horizontal with {policy:?}");
    }
}

/// (c) `SearchOptions::default()` must reproduce each deployment's old
/// per-type defaults bit-for-bit.
#[test]
fn default_options_match_old_per_type_defaults() {
    let (n, d, k) = (600, 16, 10);
    let rows = random_rows(n, d, 11);
    let q = random_rows(1, d, 12);
    let index = IvfIndex::build(&rows, n, d, 12, 8, 7);
    let opts = SearchOptions::new(k);
    let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);

    let flat = FlatPdx::new(&rows, n, d, 150, 16);
    let dyn_flat: &dyn VectorIndex = &flat;
    assert_eq!(
        dyn_flat.search(&q, &opts),
        flat.search_with(&bond, &q, &opts)
    );

    let ivf = IvfPdx::new(&rows, d, &index.assignments, 16);
    let dyn_ivf: &dyn VectorIndex = &ivf;
    // nprobe defaults to 0 = every bucket (exact).
    assert_eq!(dyn_ivf.search(&q, &opts), ivf.search_with(&bond, &q, &opts));

    let sq8 = FlatSq8::build(&rows, n, d, 150, 16);
    let dyn_sq8: &dyn VectorIndex = &sq8;
    // The two-phase defaults, spelled out against the typed search under
    // the SQ8 bound.
    let explicit = SearchOptions {
        metric: Metric::L2,
        refine: DEFAULT_REFINE,
        ..opts
    };
    let bound = Sq8Bound::new(&sq8.quantizer, Metric::L2);
    assert_eq!(
        dyn_sq8.search(&q, &opts),
        sq8.search_with(&bound, &q, &explicit)
    );

    let ivf_sq8 = IvfSq8::new(&rows, d, &index.assignments, 16);
    let dyn_ivf_sq8: &dyn VectorIndex = &ivf_sq8;
    let bound = Sq8Bound::new(&ivf_sq8.quantizer, Metric::L2);
    assert_eq!(
        dyn_ivf_sq8.search(&q, &opts),
        ivf_sq8.search_with(&bound, &q, &explicit)
    );
}

#[test]
fn any_index_round_trip_is_bit_identical() {
    let (n, d, k, nq) = (400, 8, 5, 4);
    let rows = random_rows(n, d, 21);
    let queries = random_rows(nq, d, 22);
    let dir = std::env::temp_dir().join("pdx_engine_conformance");
    std::fs::create_dir_all(&dir).unwrap();
    let opts = SearchOptions::new(k);

    let flat = FlatPdx::new(&rows, n, d, 120, 16);
    let f32_path = dir.join("conf.pdx");
    pdx::datasets::persist::write_pdx_path(&f32_path, &flat.collection).unwrap();

    let sq8 = FlatSq8::build(&rows, n, d, 120, 16);
    let sq8_path = dir.join("conf.pdx2");
    pdx::datasets::persist::write_sq8_path(&sq8_path, &sq8.quantizer, &sq8.blocks, Some(&sq8.rows))
        .unwrap();

    let originals: Vec<Box<dyn VectorIndex>> = vec![Box::new(flat), Box::new(sq8)];
    for (path, original) in [&f32_path, &sq8_path].into_iter().zip(&originals) {
        let opened = AnyIndex::open(path).unwrap();
        assert_eq!(opened.kind(), original.kind());
        assert_eq!(
            opened.search_batch(&queries, &opts.with_threads(2)),
            original.search_batch(&queries, &opts.with_threads(2)),
            "{}",
            original.kind()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
