//! Cross-layout consistency: every layout and kernel tier must compute
//! the same distances and the same search results on the same data.

use pdx::prelude::*;
use pdx_bench::baselines::{linear_scan, IvfHorizontal};
use pdx_core::distance::distance_scalar;

fn dataset(n: usize, name: &str, seed: u64) -> Dataset {
    let spec = *spec_by_name(name).expect("unknown dataset");
    generate(&spec, n, 4, seed)
}

/// One distance, five code paths: the scalar reference, the N-ary scalar,
/// unrolled and SIMD kernels, and the PDX block scan.
#[test]
fn every_kernel_agrees_on_distances() {
    let ds = dataset(257, "glove50", 1);
    let d = ds.dims();
    let q = ds.query(0);
    for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
        let reference: Vec<f32> = ds
            .data
            .chunks_exact(d)
            .map(|row| distance_scalar(metric, q, row))
            .collect();
        // Horizontal kernels.
        for variant in [
            KernelVariant::Scalar,
            KernelVariant::Unrolled,
            KernelVariant::Simd,
        ] {
            for (i, row) in ds.data.chunks_exact(d).enumerate() {
                let got = nary_distance(metric, variant, q, row);
                let want = reference[i];
                assert!(
                    (got - want).abs() <= want.abs().max(1.0) * 1e-3,
                    "{metric:?}/{variant:?} vector {i}: {got} vs {want}"
                );
            }
        }
        // PDX block scan.
        let block = PdxBlock::from_rows(&ds.data, ds.len, d, 64);
        let mut out = vec![0.0f32; ds.len];
        pdx_scan(metric, &block, q, &mut out);
        for (i, (&got, &want)) in out.iter().zip(&reference).enumerate() {
            assert!(
                (got - want).abs() <= want.abs().max(1.0) * 1e-3,
                "pdx vector {i}"
            );
        }
    }
}

/// Top-k results agree between the PDX and N-ary linear-scan searchers.
#[test]
fn linear_scans_return_identical_neighbours() {
    let ds = dataset(1200, "sift", 2);
    let d = ds.dims();
    let k = 15;
    let q = ds.query(1);

    let flat = FlatPdx::new(&ds.data, ds.len, d, 300, 64);
    let pdx_res = flat.search_with(&PdxBond::linear(Metric::L2), q, &SearchOptions::new(k));
    let nary_res = linear_scan(&ds.data, d, q, k, Metric::L2, KernelVariant::Simd);

    let ids = |r: &[Neighbor]| r.iter().map(|n| n.id).collect::<Vec<_>>();
    assert_eq!(ids(&pdx_res), ids(&nary_res));
}

/// The PDX round trip (rows → blocks → rows) is lossless for every
/// dataset shape of Table 1.
#[test]
fn pdx_round_trip_across_dataset_shapes() {
    for spec in TABLE1.iter() {
        let ds = generate(spec, 150, 1, 3);
        let block = PdxBlock::from_rows(&ds.data, ds.len, ds.dims(), 64);
        assert_eq!(block.to_rows(), ds.data, "{}", spec.name);
    }
}

/// The dual-block baseline's pruned search (with an exact bound) over
/// one bucket holding the whole collection matches the N-ary scan.
#[test]
fn dual_block_layout_is_faithful() {
    let ds = dataset(900, "deep", 4);
    let d = ds.dims();
    let k = 10;
    let one_bucket = vec![(0..ds.len as u32).collect()];
    let ivf = IvfPdx::new(&ds.data, d, &one_bucket, 64);
    let hor = IvfHorizontal::from_pdx(&ivf, 24);
    let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
    let got = hor.search_with(&bond, ds.query(0), &SearchOptions::new(k));
    let want = linear_scan(
        &ds.data,
        d,
        ds.query(0),
        k,
        Metric::L2,
        KernelVariant::Scalar,
    );
    assert_eq!(
        got.iter().map(|n| n.id).collect::<Vec<_>>(),
        want.iter().map(|n| n.id).collect::<Vec<_>>()
    );
}

/// Updating a vector in place (the §3 update story: rewrite its row,
/// re-tile the one block that holds it, so its statistics follow)
/// immediately affects search results.
#[test]
fn in_place_update_is_visible_to_search() {
    let ds = dataset(500, "nytimes", 5);
    let d = ds.dims();
    let mut coll = PdxCollection::from_rows_partitioned(&ds.data, ds.len, d, 250, 64);
    let q = ds.query(0).to_vec();
    // Overwrite vector 123 with the query itself -> it must become the 1-NN.
    let mut rows = coll.blocks[0].pdx.to_rows();
    rows[123 * d..124 * d].copy_from_slice(&q);
    let ids = coll.blocks[0].row_ids.clone();
    coll.blocks[0] = SearchBlock::new(&rows, ids, d, 64);
    let flat = FlatPdx::from_collection(coll);
    let res = flat.search_with(&PdxBond::linear(Metric::L2), &q, &SearchOptions::new(1));
    assert_eq!(res[0].id, 123);
    assert!(res[0].distance.abs() < 1e-3);
}

/// fvecs round trip through disk preserves a generated dataset exactly.
#[test]
fn fvecs_disk_round_trip() {
    let ds = dataset(64, "glove50", 6);
    let dir = std::env::temp_dir().join("pdx_test_fvecs");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sample.fvecs");
    pdx_datasets::io::write_fvecs_path(&path, &ds.data, ds.dims()).unwrap();
    let back = pdx_datasets::io::read_fvecs_path(&path).unwrap();
    assert_eq!(back.dims, ds.dims());
    assert_eq!(back.len, ds.len);
    assert_eq!(back.data, ds.data);
    std::fs::remove_file(&path).ok();
}

/// Kernel agreement on adversarial values: denormals, zeros, large
/// magnitudes, negative zero (failure-injection style inputs).
#[test]
fn kernels_survive_adversarial_values() {
    let d = 19;
    // Largest magnitude chosen so squared differences stay finite in f32.
    let specials = [
        0.0f32, -0.0, 1.0e-38, -1.0e-38, 3.0e15, -3.0e15, 1.0, -1.0, 0.5,
    ];
    let n = specials.len() * 3;
    let data: Vec<f32> = (0..n * d).map(|i| specials[i % specials.len()]).collect();
    let q: Vec<f32> = (0..d).map(|i| specials[(i * 7) % specials.len()]).collect();
    let block = PdxBlock::from_rows(&data, n, d, 8);
    let mut out = vec![0.0f32; n];
    for metric in [Metric::L2, Metric::L1, Metric::NegativeIp] {
        pdx_scan(metric, &block, &q, &mut out);
        for (i, row) in data.chunks_exact(d).enumerate() {
            let want = pdx_core::distance::distance_scalar(metric, &q, row);
            assert!(out[i].is_finite(), "{metric:?} vector {i} not finite");
            let tol = want.abs().max(1.0) * 1e-3;
            assert!((out[i] - want).abs() <= tol, "{metric:?} vector {i}");
        }
    }
}

/// A pruner that demands aux data must fail loudly (not silently return
/// wrong results) when the block was never preprocessed.
#[test]
#[should_panic(expected = "aux")]
fn missing_bsa_aux_panics() {
    let spec = DatasetSpec {
        name: "t",
        dims: 12,
        distribution: Distribution::Normal,
        paper_size: 0,
    };
    let ds = generate(&spec, 400, 1, 3);
    let bsa = Bsa::fit(&ds.data, ds.len, 12, 300);
    let rotated = bsa.transform_collection(&ds.data, ds.len, 2);
    // Two blocks, NO attach_aux -> the pruned scan of block 1 must panic.
    let coll = PdxCollection::from_rows_partitioned(&rotated, ds.len, 12, 200, 64);
    let q = bsa.prepare_query(ds.query(0));
    let _ = pdxearch(&bsa, &q, &coll.blocks, &SearchOptions::new(5), None, None);
}

/// The dual-block layout carries no aux data, so the vector-at-a-time
/// baseline refuses an aux pruner instead of scanning without its bound.
#[test]
#[should_panic(expected = "aux")]
fn horizontal_bsa_search_panics_for_want_of_aux() {
    let spec = DatasetSpec {
        name: "t",
        dims: 12,
        distribution: Distribution::Normal,
        paper_size: 0,
    };
    let ds = generate(&spec, 400, 1, 3);
    let bsa = Bsa::fit(&ds.data, ds.len, 12, 300);
    let rotated = bsa.transform_collection(&ds.data, ds.len, 2);
    let assignments = vec![(0..200).collect(), (200..400).collect()];
    let ivf = IvfPdx::new(&rotated, 12, &assignments, 64);
    let hor = IvfHorizontal::from_pdx(&ivf, 4);
    let _ = hor.search_with(&bsa, ds.query(0), &SearchOptions::new(5).with_nprobe(2));
}

/// Mismatched query dimensionality is rejected, not misread.
#[test]
#[should_panic(expected = "dimensionality")]
fn wrong_query_width_is_rejected() {
    let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
    let coll = PdxCollection::from_rows_partitioned(&data, 10, 10, 5, 4);
    let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
    let q = bond.prepare_query(&[1.0, 2.0]);
    let _ = pdxearch(&bond, &q, &coll.blocks, &SearchOptions::new(3), None, None);
}

/// Searching an entirely empty block list returns no neighbours.
#[test]
fn empty_block_list_returns_nothing() {
    let bond = PdxBond::new(Metric::L2, VisitOrder::Sequential);
    let q = bond.prepare_query(&[1.0, 2.0]);
    let none: [&SearchBlock; 0] = [];
    let res = pdxearch(&bond, &q, none, &SearchOptions::new(3), None, None);
    assert!(res.is_empty());
}
