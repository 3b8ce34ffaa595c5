//! The determinism suite of the parallel execution engine: every
//! `search_batch` / `search_parallel` entry point must return neighbor
//! ids AND distances bit-identical to the sequential path at 1, 2 and 8
//! threads — on the flat and IVF deployments, `f32` and SQ8, and, for
//! `search_batch`, the two fitted-pruner adapters — including
//! duplicate-distance ties.
//!
//! The data is built to tie aggressively: a small base set of vectors is
//! tiled many times, so the k-NN frontier is crowded with exact
//! duplicate distances spread across different blocks/buckets. The
//! canonical `(distance, id)` heap ordering (see `pdx_core::heap`) is
//! what makes the assertions below exact equalities rather than
//! set-comparisons.
//!
//! CI runs the whole tier-1 suite twice — `PDX_THREADS=1` and
//! `PDX_THREADS=max` — so the `threads = 0` (default-width) paths these
//! tests also exercise are pinned at both extremes.

use pdx::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Deterministic pseudo-random rows (vendored `StdRng`, fixed seed).
fn make_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * d)
        .map(|_| rng.random::<f32>() * 4.0 - 2.0)
        .collect()
}

/// A collection crowded with exact duplicates: `base_n` distinct vectors
/// tiled `copies` times. Any query ties `copies`-way at every distance.
fn tied_rows(base_n: usize, copies: usize, d: usize, seed: u64) -> Vec<f32> {
    let base = make_rows(base_n, d, seed);
    let mut rows = Vec::with_capacity(base_n * copies * d);
    for _ in 0..copies {
        rows.extend_from_slice(&base);
    }
    rows
}

/// Packed queries, the first being an exact member of the collection so
/// zero-distance ties are also exercised.
fn tied_queries(rows: &[f32], d: usize, nq: usize, seed: u64) -> Vec<f32> {
    let mut queries = rows[3 * d..4 * d].to_vec();
    queries.extend(make_rows(nq - 1, d, seed));
    queries
}

#[test]
fn flat_batch_and_parallel_match_sequential() {
    let (base_n, copies, d, k, nq) = (60, 8, 12, 10, 6);
    let rows = tied_rows(base_n, copies, d, 1);
    let n = base_n * copies;
    let queries = tied_queries(&rows, d, nq, 2);
    // Small blocks so duplicates of one vector land in many blocks.
    let flat = FlatPdx::new(&rows, n, d, 64, 16);
    let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
    let params = SearchOptions::new(k);

    let sequential: Vec<Vec<Neighbor>> = (0..nq)
        .map(|qi| flat.search_with(&bond, &queries[qi * d..(qi + 1) * d], &params))
        .collect();

    for threads in THREAD_COUNTS {
        let params = params.with_threads(threads);
        let batch = flat.search_batch_with(&bond, &queries, &params);
        assert_eq!(batch, sequential, "search_batch at {threads} threads");
        for (qi, want) in sequential.iter().enumerate() {
            let got = flat.search_parallel_with(&bond, &queries[qi * d..(qi + 1) * d], &params);
            assert_eq!(&got, want, "search_parallel q{qi} at {threads} threads");
        }
    }
}

#[test]
fn ivf_batch_and_parallel_match_sequential() {
    let (base_n, copies, d, k, nq) = (50, 6, 10, 8, 5);
    let rows = tied_rows(base_n, copies, d, 3);
    let n = base_n * copies;
    let queries = tied_queries(&rows, d, nq, 4);
    let index = IvfIndex::build(&rows, n, d, 12, 8, 7);
    let ivf = IvfPdx::new(&rows, d, &index.assignments, 16);
    let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
    let params = SearchOptions::new(k);

    // Partial and full probes: the partial probe exercises merge at an
    // nprobe-truncated candidate set.
    for nprobe in [3usize, ivf.blocks.len()] {
        let params = params.with_nprobe(nprobe);
        let sequential: Vec<Vec<Neighbor>> = (0..nq)
            .map(|qi| ivf.search_with(&bond, &queries[qi * d..(qi + 1) * d], &params))
            .collect();
        for threads in THREAD_COUNTS {
            let params = params.with_threads(threads);
            let batch = ivf.search_batch_with(&bond, &queries, &params);
            assert_eq!(
                batch, sequential,
                "search_batch nprobe={nprobe} at {threads} threads"
            );
            for (qi, want) in sequential.iter().enumerate() {
                let got = ivf.search_parallel_with(&bond, &queries[qi * d..(qi + 1) * d], &params);
                assert_eq!(
                    &got, want,
                    "search_parallel q{qi} nprobe={nprobe} at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn flat_sq8_batch_and_parallel_match_sequential() {
    let (base_n, copies, d, k, nq) = (40, 6, 8, 6, 5);
    let rows = tied_rows(base_n, copies, d, 5);
    let n = base_n * copies;
    let queries = tied_queries(&rows, d, nq, 6);
    let sq8 = FlatSq8::build(&rows, n, d, 48, 16);
    let opts = SearchOptions::new(k);

    let sequential: Vec<Vec<Neighbor>> = (0..nq)
        .map(|qi| sq8.search(&queries[qi * d..(qi + 1) * d], &opts))
        .collect();

    for threads in THREAD_COUNTS {
        let opts = opts.with_threads(threads);
        let batch = sq8.search_batch(&queries, &opts);
        assert_eq!(batch, sequential, "search_batch at {threads} threads");
        for (qi, want) in sequential.iter().enumerate() {
            let got = sq8.search_parallel(&queries[qi * d..(qi + 1) * d], &opts);
            assert_eq!(&got, want, "search_parallel q{qi} at {threads} threads");
        }
    }
}

#[test]
fn ivf_sq8_batch_matches_sequential() {
    let (base_n, copies, d, k, nq) = (40, 5, 8, 6, 5);
    let rows = tied_rows(base_n, copies, d, 8);
    let n = base_n * copies;
    let queries = tied_queries(&rows, d, nq, 9);
    let index = IvfIndex::build(&rows, n, d, 10, 8, 2);
    let sq8 = IvfSq8::new(&rows, d, &index.assignments, 16);

    for nprobe in [3usize, sq8.blocks.len()] {
        let opts = SearchOptions::new(k).with_nprobe(nprobe);
        let sequential: Vec<Vec<Neighbor>> = (0..nq)
            .map(|qi| sq8.search(&queries[qi * d..(qi + 1) * d], &opts))
            .collect();
        for threads in THREAD_COUNTS {
            let batch = sq8.search_batch(&queries, &opts.with_threads(threads));
            assert_eq!(
                batch, sequential,
                "search_batch nprobe={nprobe} at {threads} threads"
            );
        }
    }
}

/// Blocks longer than a PDXearch tile: three blocks of one full
/// 1024-vector tile plus a 200-vector partial one. A block-range split
/// hands some worker a START tile where the sequential scan was already
/// pruning, and the stream pulls blocks one at a time — both must still
/// reproduce the sequential `search` bit for bit, on `f32` and SQ8.
#[test]
fn multi_tile_blocks_parallel_and_streamed_match_sequential() {
    let (d, k, nq) = (12, 10, 4);
    let (block, n) = (1224, 3 * 1224);
    let rows = tied_rows(n / 4, 4, d, 31);
    let queries = tied_queries(&rows, d, nq, 32);
    let flat = FlatPdx::new(&rows, n, d, block, 64);
    assert_eq!(flat.collection.blocks.len(), 3);
    let sq8 = FlatSq8::build(&rows, n, d, block, 64);
    let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
    let params = SearchOptions::new(k);

    for q in queries.chunks_exact(d) {
        let want = flat.search_with(&bond, q, &params);
        // An owning stream of pins, as an out-of-core deployment hands over.
        let stream = flat
            .collection
            .blocks
            .iter()
            .cloned()
            .map(std::sync::Arc::new);
        let streamed = pdxearch(&bond, &bond.prepare_query(q), stream, &params, None, None);
        assert_eq!(streamed, want, "pdxearch over a stream");
        let want8 = sq8.search(q, &params);
        for threads in THREAD_COUNTS {
            let params = params.with_threads(threads);
            let got = flat.search_parallel_with(&bond, q, &params);
            assert_eq!(got, want, "FlatPdx search_parallel at {threads} threads");
            let got8 = sq8.search_parallel(q, &params);
            assert_eq!(got8, want8, "FlatSq8 search_parallel at {threads} threads");
        }
    }
}

/// The fitted-pruner adapters rotate a batch's queries in tiled
/// sub-batches; every query must still come out with the bits its own
/// `search` gives it — at batch sizes below, at and across the sub-batch
/// boundary, at every thread count.
#[test]
fn pruned_adapters_batch_matches_sequential_loop() {
    use pdx::core::exec::SUB_BATCH;
    let (base_n, copies, d, k) = (60, 5, 24, 7);
    let rows = tied_rows(base_n, copies, d, 21);
    let n = base_n * copies;
    let queries = tied_queries(&rows, d, 100, 22);

    let index = IvfIndex::build(&rows, n, d, 10, 8, 7);
    let ads = AdSampling::fit(d, 23);
    let by_ads = ads.transform_collection(&rows, n, 2);
    let pruned_ivf = PrunedIvf::new(IvfPdx::new(&by_ads, d, &index.assignments, 16), ads);

    let bsa = Bsa::fit(&rows, n, d, usize::MAX);
    let mut by_bsa = FlatPdx::new(&bsa.transform_collection(&rows, n, 2), n, d, 64, 16);
    let sched = checkpoints(StepPolicy::default(), d);
    for block in &mut by_bsa.collection.blocks {
        bsa.attach_aux(block, &sched);
    }
    let pruned_flat = PrunedFlat::new(by_bsa, bsa);

    let deployments: [&dyn VectorIndex; 2] = [&pruned_ivf, &pruned_flat];
    for dep in deployments {
        let opts = SearchOptions::new(k).with_nprobe(3).with_trace(false);
        let sequential: Vec<Vec<Neighbor>> = queries
            .chunks_exact(d)
            .map(|q| dep.search(q, &opts))
            .collect();
        for nq in [1usize, 3, SUB_BATCH, SUB_BATCH + 1, 100] {
            for threads in THREAD_COUNTS {
                let batch = dep.search_batch(&queries[..nq * d], &opts.with_threads(threads));
                assert_eq!(batch.len(), nq);
                for (qi, (got, want)) in batch.iter().zip(&sequential).enumerate() {
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(
                            (g.id, g.distance.to_bits()),
                            (w.id, w.distance.to_bits()),
                            "{} q{qi} of {nq} at {threads} threads",
                            dep.kind()
                        );
                    }
                }
            }
        }
    }
}

/// A batch is served a band at a time — up to `SUB_BATCH` consecutive
/// queries a worker, each tile scanned for the whole band before the
/// next is touched on the unrouted deployments — and every query must
/// still get the ids and distance bits of its own `search`: at batch
/// sizes of one query, one short of / exactly / one past a full band and
/// more than one band a worker, at every thread count, for exact and
/// approximate pruners alike. Blocks of 2 100 vectors are two full tiles
/// and a tile ending in a 52-vector group.
#[test]
fn bands_match_the_sequential_loop() {
    let (n, d, k, block, group) = (4_600usize, 16usize, 10usize, 2_100usize, 64usize);
    // Noise around seven centres, so that pruning engages in every tile.
    let clustered = |n: usize, seed: u64| {
        let mut rows = make_rows(n, d, seed);
        for (i, row) in rows.chunks_exact_mut(d).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = *v * 0.5 + (((i % 7) * 7 + j * 3) % 5) as f32 * 1.5;
            }
        }
        rows
    };
    let rows = clustered(n, 41);
    let queries = clustered(130, 42);

    let flat = FlatPdx::new(&rows, n, d, block, group);
    assert_eq!(flat.collection.blocks[0].len() % group, 52);
    let sq8 = FlatSq8::build(&rows, n, d, block, group);
    let ads = AdSampling::fit(d, 43);
    let by_ads = FlatPdx::new(&ads.transform_collection(&rows, n, 2), n, d, block, group);
    let by_ads = PrunedFlat::new(by_ads, ads);
    let bsa = Bsa::fit(&rows, n, d, usize::MAX);
    let mut by_bsa = FlatPdx::new(&bsa.transform_collection(&rows, n, 2), n, d, block, group);
    let sched = checkpoints(StepPolicy::default(), d);
    for block in &mut by_bsa.collection.blocks {
        bsa.attach_aux(block, &sched);
    }
    let by_bsa = PrunedFlat::new(by_bsa, bsa);

    let opts = SearchOptions::new(k);
    let mut cases: Vec<(String, &dyn VectorIndex, SearchOptions)> = Vec::new();
    for order in [
        VisitOrder::Sequential,
        VisitOrder::Decreasing,
        VisitOrder::DistanceToMeans,
        VisitOrder::DimensionZones { zone_size: 8 },
    ] {
        let opts = opts.with_pruner(PrunerKind::Bond(order));
        cases.push((format!("flat-pdx {order:?}"), &flat, opts));
    }
    for refine in [1usize, 4] {
        let name = format!("flat-sq8 refine={refine}");
        cases.push((name, &sq8, opts.with_refine(refine)));
    }
    cases.push(("pruned-flat adsampling".into(), &by_ads, opts));
    cases.push(("pruned-flat bsa".into(), &by_bsa, opts));

    let bits = |r: &[Neighbor]| -> Vec<(u64, u32)> {
        r.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    };
    for (name, dep, opts) in cases {
        let sequential: Vec<_> = queries
            .chunks_exact(d)
            .map(|q| bits(&dep.search(q, &opts)))
            .collect();
        for nq in [1usize, 2, 63, 64, 65, 100, 130] {
            for threads in THREAD_COUNTS {
                let batch = dep.search_batch(&queries[..nq * d], &opts.with_threads(threads));
                assert_eq!(batch.len(), nq, "{name}: {nq} queries at {threads} threads");
                for (qi, (got, want)) in batch.iter().zip(&sequential).enumerate() {
                    assert_eq!(
                        &bits(got),
                        want,
                        "{name}: q{qi} of {nq} at {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn index_build_is_thread_count_independent() {
    // IVF training (k-means) and SQ8 quantizer training run on the same
    // pool; both must produce bitwise-identical artifacts at any width.
    let (n, d) = (400, 8);
    let rows = make_rows(n, d, 12);
    let ref_index = IvfIndex::build_with_threads(&rows, n, d, 9, 8, 5, 1);
    let ref_sq8 = FlatSq8::build_with_threads(&rows, n, d, 64, 16, 1);
    for threads in [2usize, 8] {
        let index = IvfIndex::build_with_threads(&rows, n, d, 9, 8, 5, threads);
        assert_eq!(
            index.kmeans.centroids, ref_index.kmeans.centroids,
            "k-means centroids at {threads} threads"
        );
        assert_eq!(index.assignments, ref_index.assignments);
        let sq8 = FlatSq8::build_with_threads(&rows, n, d, 64, 16, threads);
        assert_eq!(
            sq8.quantizer, ref_sq8.quantizer,
            "quantizer at {threads} threads"
        );
        assert_eq!(sq8.blocks, ref_sq8.blocks);
    }
}

#[test]
fn merge_reproduces_any_partitioning() {
    // Directly pin the merge invariant on a crowded tie set: however the
    // candidate lists are partitioned, the canonical top-k is the same.
    let rows = tied_rows(30, 10, 6, 20);
    let q = make_rows(1, 6, 21);
    let all: Vec<Neighbor> = rows
        .chunks_exact(6)
        .enumerate()
        .map(|(i, row)| Neighbor {
            id: i as u64,
            distance: q.iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum(),
        })
        .collect();
    let want = merge_neighbors(std::slice::from_ref(&all), 12);
    for parts in [2usize, 3, 7, 50] {
        let size = all.len().div_ceil(parts);
        let lists: Vec<Vec<Neighbor>> = all.chunks(size).map(|c| c.to_vec()).collect();
        assert_eq!(merge_neighbors(&lists, 12), want, "{parts} partitions");
    }
}
