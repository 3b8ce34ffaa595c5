//! Integration suite of the mutable segmented collection store
//! (`pdx-store`): insert/delete visibility, seal + compaction
//! bit-identity against fresh flat builds, WAL torn-tail crash
//! recovery through `AnyIndex::open`, duplicate-id rejection at every
//! layer, batch/parallel determinism at 1/2/8 threads on a collection
//! with live tombstones, reader bit-identity during background
//! compaction, WAL-rotation fault injection, and group-commit
//! power-loss durability. Edge cases backfilled while wiring the
//! network server: `k = 0` / `k > live rows` searches, counter
//! freshness right after a background compaction commits, and a
//! truncated MANIFEST opening as a typed `Corrupt` error. A seeded
//! snapshot-swap stress test runs when `PDX_STRESS` is set.

use pdx::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn make_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * d)
        .map(|_| rng.random::<f32>() * 4.0 - 2.0)
        .collect()
}

/// `base_n` distinct vectors tiled `copies` times (distinct external
/// ids): every query's k-NN frontier is crowded with exact ties, the
/// worst case for merge determinism.
fn tied_rows(base_n: usize, copies: usize, d: usize, seed: u64) -> Vec<f32> {
    let base = make_rows(base_n, d, seed);
    let mut rows = Vec::with_capacity(base_n * copies * d);
    for _ in 0..copies {
        rows.extend_from_slice(&base);
    }
    rows
}

fn small_config(quantize: bool) -> StoreConfig {
    StoreConfig {
        block_size: 64,
        group_size: 16,
        buffer_capacity: 100,
        quantize,
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pdx_store_suite").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn ids_of(hits: &[Neighbor]) -> Vec<u64> {
    hits.iter().map(|n| n.id).collect()
}

#[test]
fn inserts_are_visible_before_and_after_seal() {
    let (n, d, k) = (150, 8, 5);
    let rows = make_rows(n, d, 1);
    let coll = Collection::in_memory(d, small_config(false));
    let opts = SearchOptions::new(k);
    for i in 0..n {
        coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
        // Freshly buffered rows are immediately searchable: the row we
        // just inserted is its own nearest neighbour.
        if i % 37 == 0 {
            let hits = coll.search(&rows[i * d..(i + 1) * d], &SearchOptions::new(1));
            assert_eq!(hits[0].id, i as u64);
            assert_eq!(hits[0].distance, 0.0);
        }
    }
    // capacity 100 → one auto-seal happened; rows live in both tiers.
    assert_eq!(coll.segment_count(), 1);
    assert!(coll.buffer_len() > 0);

    // The merged result equals an exact scan over all rows.
    let flat = FlatPdx::new(&rows, n, d, 64, 16);
    let q = make_rows(1, d, 2);
    let want = flat.linear_search(&q, k, Metric::L2);
    let got = coll.search(&q, &opts.with_pruner(PrunerKind::Linear));
    assert_eq!(ids_of(&got), ids_of(&want));
}

#[test]
fn deletes_hide_buffered_and_sealed_rows() {
    let (n, d) = (120, 6);
    let rows = make_rows(n, d, 3);
    let coll = Collection::in_memory(d, small_config(false));
    for i in 0..n {
        coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    coll.seal().unwrap();
    // Sealed delete (tombstone) and buffered delete (in-place).
    coll.insert(1000, &rows[..d]).unwrap(); // duplicate *vector*, new id
    coll.delete(0).unwrap(); // sealed → tombstone
    coll.delete(1000).unwrap(); // buffered → removed
    assert_eq!(coll.tombstone_count(), 1);

    // Query at row 0's exact position: neither deleted id appears, at
    // any k, and no neighbour is repeated.
    for k in [1usize, 5, 20] {
        let hits = coll.search(&rows[..d], &SearchOptions::new(k));
        assert_eq!(hits.len(), k);
        let ids = ids_of(&hits);
        assert!(!ids.contains(&0), "tombstoned id in top-{k}");
        assert!(!ids.contains(&1000), "buffer-deleted id in top-{k}");
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), k, "duplicate neighbour in top-{k}");
    }
    assert!(matches!(coll.delete(0), Err(StoreError::NotFound(0))));
}

/// Post-compaction searches must be bit-identical — distances included —
/// to a fresh flat build over the surviving rows, with external ids
/// related by the (monotone) survivor remap table.
fn assert_compacted_matches_fresh(quantize: bool) {
    let (n, d, k) = (500, 10, 10);
    let rows = make_rows(n, d, 7);
    let coll = Collection::in_memory(d, small_config(quantize));
    // External ids deliberately ≠ row positions to exercise the remap.
    let ext = |i: usize| (i as u64) * 3 + 7;
    for i in 0..n {
        coll.insert(ext(i), &rows[i * d..(i + 1) * d]).unwrap();
    }
    // Delete a scattered third, across both sealed rows and the buffer.
    let deleted: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
    for &i in &deleted {
        coll.delete(ext(i)).unwrap();
    }
    coll.compact().unwrap();
    assert_eq!(coll.segment_count(), 1);
    assert_eq!(coll.tombstone_count(), 0);

    let survivors: Vec<usize> = (0..n).filter(|i| i % 3 != 0).collect();
    let mut surviving_rows = Vec::with_capacity(survivors.len() * d);
    for &i in &survivors {
        surviving_rows.extend_from_slice(&rows[i * d..(i + 1) * d]);
    }
    let m = survivors.len();
    assert_eq!(coll.len(), m);

    let cfg = small_config(quantize);
    let fresh_f32;
    let fresh_sq8;
    let fresh: &dyn VectorIndex = if quantize {
        fresh_sq8 = FlatSq8::build(&surviving_rows, m, d, cfg.block_size, cfg.group_size);
        &fresh_sq8
    } else {
        fresh_f32 = FlatPdx::new(&surviving_rows, m, d, cfg.block_size, cfg.group_size);
        &fresh_f32
    };

    let queries = make_rows(6, d, 8);
    for threads in THREAD_COUNTS {
        let opts = SearchOptions::new(k).with_threads(threads);
        for qi in 0..6 {
            let q = &queries[qi * d..(qi + 1) * d];
            let got = if threads == 1 {
                coll.search(q, &opts)
            } else {
                coll.search_parallel(q, &opts)
            };
            let want = if threads == 1 {
                fresh.search(q, &opts)
            } else {
                fresh.search_parallel(q, &opts)
            };
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                // Bitwise-equal distances, ids through the remap.
                assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "q{qi}");
                assert_eq!(g.id, ext(survivors[w.id as usize]), "q{qi}");
            }
        }
    }
}

#[test]
fn compacted_f32_collection_is_bit_identical_to_fresh_build() {
    assert_compacted_matches_fresh(false);
}

#[test]
fn compacted_sq8_collection_is_bit_identical_to_fresh_build() {
    assert_compacted_matches_fresh(true);
}

#[test]
fn batch_and_parallel_match_sequential_with_live_tombstones() {
    // Tie-crowded data, several segments, a partial buffer, and live
    // (uncompacted) tombstones in every segment: the worst case for the
    // merge. Results must be bit-identical at 1/2/8 threads.
    let (base_n, copies, d, k, nq) = (60, 6, 8, 10, 6);
    let rows = tied_rows(base_n, copies, d, 11);
    let n = base_n * copies;
    for quantize in [false, true] {
        let coll = Collection::in_memory(d, small_config(quantize));
        for i in 0..n {
            coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
        }
        // Tombstone every 7th sealed row and a couple of buffered rows.
        for i in (0..n - coll.buffer_len()).step_by(7) {
            coll.delete(i as u64).unwrap();
        }
        assert!(coll.tombstone_count() > 0, "tombstones must stay live");
        assert!(coll.buffer_len() > 0, "buffer must participate");
        assert!(coll.segment_count() >= 3);

        let mut queries = rows[5 * d..6 * d].to_vec(); // exact-member query
        queries.extend(make_rows(nq - 1, d, 12));
        let dep: &dyn VectorIndex = &coll;
        let opts = SearchOptions::new(k);
        let sequential: Vec<Vec<Neighbor>> = (0..nq)
            .map(|qi| dep.search(&queries[qi * d..(qi + 1) * d], &opts))
            .collect();
        for threads in THREAD_COUNTS {
            let batch = dep.search_batch(&queries, &opts.with_threads(threads));
            assert_eq!(
                batch, sequential,
                "search_batch at {threads} threads (quantize={quantize})"
            );
            for (qi, want) in sequential.iter().enumerate() {
                let got = dep
                    .search_parallel(&queries[qi * d..(qi + 1) * d], &opts.with_threads(threads));
                assert_eq!(
                    &got, want,
                    "search_parallel q{qi} at {threads} threads (quantize={quantize})"
                );
            }
        }
    }
}

#[test]
fn wal_torn_tail_recovers_cleanly_through_any_index() {
    let d = 6;
    let dir = temp_dir("torn_tail");
    let rows = make_rows(40, d, 21);
    let coll = Collection::create(&dir, d, small_config(false)).unwrap();
    for i in 0..30 {
        coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    coll.delete(3).unwrap();
    // The last committed op: an insert that the "crash" will tear.
    coll.insert(100, &rows[30 * d..31 * d]).unwrap();
    drop(coll); // simulated crash: no clean shutdown path exists anyway

    // Tear the WAL mid-record (the torn tail a crash leaves).
    let wal_path = dir.join("wal-000000.log");
    let len = std::fs::metadata(&wal_path).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);

    // The acceptance path: AnyIndex::open on the directory replays the
    // clean prefix — 30 inserts minus one delete, the torn insert gone.
    let index = AnyIndex::open(&dir).unwrap();
    assert_eq!(index.kind(), "collection");
    assert_eq!(index.len(), 29);
    let hits = index.search(&rows[..d], &SearchOptions::new(3));
    assert!(!ids_of(&hits).contains(&3));
    assert!(!ids_of(&hits).contains(&100));
    drop(index);

    // The store stays writable after recovery, and the torn id was
    // never applied, so it is free.
    let coll = Collection::open(&dir).unwrap();
    coll.insert(100, &rows[30 * d..31 * d]).unwrap();
    coll.compact().unwrap();
    assert_eq!(coll.live_len(), 30);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopened_collection_searches_identically() {
    let (n, d, k) = (260, 8, 8);
    let dir = temp_dir("reopen");
    let rows = make_rows(n, d, 31);
    let coll = Collection::create(
        &dir,
        d,
        StoreConfig {
            quantize: true,
            ..small_config(true)
        },
    )
    .unwrap();
    for i in 0..n {
        coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    for i in (0..200).step_by(9) {
        coll.delete(i as u64).unwrap();
    }
    let q = make_rows(1, d, 32);
    let opts = SearchOptions::new(k);
    let want = coll.search(&q, &opts);
    let stats = coll.segment_stats();
    drop(coll);

    let coll = Collection::open(&dir).unwrap();
    assert_eq!(coll.segment_stats(), stats);
    assert_eq!(coll.search(&q, &opts), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_ids_are_typed_errors_at_every_layer() {
    let coll = Collection::in_memory(2, small_config(false));
    coll.insert(5, &[0.0, 0.0]).unwrap();
    assert!(matches!(
        coll.insert(5, &[1.0, 1.0]),
        Err(StoreError::DuplicateId(5))
    ));
    coll.seal().unwrap();
    // Sealed ids conflict too, and tombstoned ids stay reserved.
    assert!(matches!(
        coll.insert(5, &[1.0, 1.0]),
        Err(StoreError::DuplicateId(5))
    ));
    coll.delete(5).unwrap();
    assert!(matches!(
        coll.insert(5, &[1.0, 1.0]),
        Err(StoreError::DuplicateId(5))
    ));
    // Compaction purges the tombstone and frees the id.
    coll.compact().unwrap();
    coll.insert(5, &[1.0, 1.0]).unwrap();

    // The container readers reject duplicates the same way (the
    // `read_container` replay check).
    let rows: Vec<f32> = (0..8).map(|i| i as f32).collect();
    let coll = PdxCollection::from_assignments(&rows, 2, &[vec![0, 1], vec![2, 1]], 4);
    let mut buf = Vec::new();
    pdx::datasets::persist::write_pdx(&mut buf, &coll).unwrap();
    let err = pdx::datasets::persist::read_container(&buf[..]).unwrap_err();
    assert!(err.to_string().contains("duplicate row id 1"), "{err}");
}

/// Readers hammering a collection while a background compaction runs
/// must see, for every single search, a result bit-identical (ids AND
/// distances) to the pre-compaction state or to the post-compaction
/// state — never a mix, never anything else. The writer stays quiet so
/// exactly those two oracles exist.
fn assert_concurrent_compaction_bit_identical(threads: usize) {
    let (n, d, k, nq) = (1200, 8, 10, 4);
    let rows = make_rows(n, d, 41);
    let coll = Arc::new(Collection::in_memory(d, small_config(false)));
    for i in 0..n {
        coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    for i in (0..n).step_by(5) {
        coll.delete(i as u64).unwrap();
    }
    let queries = Arc::new(make_rows(nq, d, 42));
    let opts = SearchOptions::new(k).with_threads(threads);
    let run_query = move |coll: &Collection, queries: &[f32], qi: usize| {
        let q = &queries[qi * d..(qi + 1) * d];
        if threads == 1 {
            coll.search(q, &opts)
        } else {
            coll.search_parallel(q, &opts)
        }
    };
    let pre: Vec<Vec<Neighbor>> = (0..nq).map(|qi| run_query(&coll, &queries, qi)).collect();

    let job = coll.compact_background().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let coll = Arc::clone(&coll);
            let queries = Arc::clone(&queries);
            let pre = pre.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Collect every observation that differs from the pre
                // oracle; the main thread checks them against post.
                let mut divergent = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    for (qi, pre_q) in pre.iter().enumerate() {
                        let got = run_query(&coll, &queries, qi);
                        if got != *pre_q {
                            divergent.push((qi, got));
                        }
                    }
                }
                divergent
            })
        })
        .collect();
    job.wait().unwrap();
    stop.store(true, Ordering::Release);

    assert_eq!(coll.segment_count(), 1);
    assert_eq!(coll.tombstone_count(), 0);
    let post: Vec<Vec<Neighbor>> = (0..nq).map(|qi| run_query(&coll, &queries, qi)).collect();
    for reader in readers {
        for (qi, got) in reader.join().unwrap() {
            // Bit-identical to post (== on Neighbor compares the f32
            // distance and the id; no NaNs reach a heap).
            assert_eq!(
                got, post[qi],
                "a mid-compaction search (q{qi}, {threads} threads) matched neither the \
                 pre- nor the post-compaction oracle"
            );
        }
    }
}

#[test]
fn concurrent_compaction_is_bit_identical_at_1_thread() {
    assert_concurrent_compaction_bit_identical(1);
}

#[test]
fn concurrent_compaction_is_bit_identical_at_2_threads() {
    assert_concurrent_compaction_bit_identical(2);
}

#[test]
fn concurrent_compaction_is_bit_identical_at_8_threads() {
    assert_concurrent_compaction_bit_identical(8);
}

/// The WAL-rotation data-loss bug: a seal whose new-WAL creation fails
/// must fail the whole commit and keep the old manifest + WAL
/// authoritative, so every acknowledged write survives a reopen. (On
/// the old code the manifest naming the never-created generation was
/// already committed, so recovery replayed an empty log and the
/// acknowledged buffered writes vanished.)
#[test]
fn failed_wal_rotation_loses_no_acknowledged_write() {
    let d = 4;
    let dir = temp_dir("wal_rotation_fault");
    let rows = make_rows(64, d, 51);
    let coll = Collection::create(&dir, d, small_config(false)).unwrap();
    for i in 0..20 {
        coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    // Fault injection: a directory squatting on the next WAL
    // generation's path makes `Wal::create` fail deterministically.
    let blocker = dir.join("wal-000001.log");
    std::fs::create_dir(&blocker).unwrap();
    let err = coll.seal().unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "{err}");

    // The store keeps accepting (and acknowledging) writes, and the
    // frozen rows stay searchable.
    for i in 20..30 {
        coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    coll.delete(5).unwrap();
    assert_eq!(coll.live_len(), 29);
    let hits = coll.search(&rows[..d], &SearchOptions::new(1));
    assert_eq!(hits[0].id, 0);
    drop(coll); // crash

    // Recovery finds every acknowledged write.
    std::fs::remove_dir(&blocker).unwrap();
    let coll = Collection::open(&dir).unwrap();
    assert_eq!(coll.live_len(), 29);
    for i in 0..30u64 {
        assert_eq!(coll.contains(i), i != 5, "id {i} after recovery");
    }
    // And once the path is clear, sealing (with the retried leftovers)
    // works again.
    coll.seal().unwrap();
    assert_eq!(coll.buffer_len(), 0);
    assert_eq!(coll.live_len(), 29);
    std::fs::remove_dir_all(&dir).ok();
}

/// `GroupCommit::sync_every` bounds the power-loss window: everything
/// up to the last group fsync must survive losing the WAL tail. The
/// "power loss" is simulated by truncating the log to the last offset
/// the store reported as synced.
#[test]
fn group_commit_bounds_the_power_loss_window() {
    let d = 4;
    let dir = temp_dir("group_commit");
    let rows = make_rows(32, d, 61);
    let coll = Collection::create(&dir, d, small_config(false)).unwrap();
    coll.set_group_commit(GroupCommit {
        sync_every: 4,
        sync_interval: None,
    });
    for i in 0..10 {
        coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    // 10 appends at sync_every=4 → the 8th insert triggered the last
    // group fsync; records 9 and 10 are only in the OS cache.
    let synced = coll.wal_synced_len();
    assert!(synced > 0);
    assert!(synced < coll.wal_appended_len());
    drop(coll);

    let wal_path = dir.join("wal-000000.log");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    file.set_len(synced).unwrap(); // everything past synced_len torn
    drop(file);

    let coll = Collection::open(&dir).unwrap();
    assert_eq!(coll.live_len(), 8, "the group-committed prefix survives");
    for i in 0..8u64 {
        assert!(coll.contains(i));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Seeded stress of the snapshot swap: readers, a writer, and repeated
/// background maintenance all hammering one collection. Gated by
/// `PDX_STRESS` (the CI stress matrix runs it at 2 and 8 threads via
/// `PDX_THREADS`).
#[test]
fn stress_snapshot_swap_under_concurrent_load() {
    if std::env::var("PDX_STRESS").is_err() {
        eprintln!("skipping: set PDX_STRESS=1 to run");
        return;
    }
    let threads: usize = std::env::var("PDX_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let (d, k, rounds) = (8, 10, 12);
    let coll = Arc::new(Collection::in_memory(d, small_config(false)));
    let seed_rows = make_rows(400, d, 71);
    for i in 0..400 {
        coll.insert(i as u64, &seed_rows[i * d..(i + 1) * d])
            .unwrap();
    }
    let queries = Arc::new(make_rows(8, d, 72));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..2)
        .map(|r| {
            let coll = Arc::clone(&coll);
            let queries = Arc::clone(&queries);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let opts = SearchOptions::new(k).with_threads(threads);
                let mut searches = 0usize;
                while !stop.load(Ordering::Acquire) {
                    for qi in 0..8 {
                        let q = &queries[qi * d..(qi + 1) * d];
                        // Pin one snapshot: two searches against it must
                        // be bit-identical however the writer races.
                        let snap = coll.snapshot();
                        let a = snap.search_parallel(q, &opts);
                        let b = snap.search(q, &opts);
                        assert_eq!(a, b, "reader {r}: pinned snapshot diverged");
                        assert!(a.len() <= k);
                        let mut ids = ids_of(&a);
                        ids.sort_unstable();
                        ids.dedup();
                        assert_eq!(ids.len(), a.len(), "reader {r}: duplicate neighbour");
                        assert!(
                            a.windows(2)
                                .all(|w| (w[0].distance, w[0].id) <= (w[1].distance, w[1].id)),
                            "reader {r}: non-canonical order"
                        );
                        searches += 1;
                    }
                }
                searches
            })
        })
        .collect();

    // Writer + maintenance churn: seeded, deterministic op sequence.
    let mut rng = StdRng::seed_from_u64(73);
    let mut next_id = 400u64;
    for round in 0..rounds {
        for _ in 0..150 {
            if rng.random::<f32>() < 0.3 && coll.live_len() > 50 {
                // Delete a random live-ish id; NotFound is fine.
                let id = rng.random_range(0..next_id);
                let _ = coll.delete(id);
            } else {
                let row: Vec<f32> = (0..d).map(|_| rng.random::<f32>() * 4.0 - 2.0).collect();
                coll.insert(next_id, &row).unwrap();
                next_id += 1;
            }
        }
        let job = if round % 2 == 0 {
            coll.seal_background()
        } else {
            coll.compact_background()
        };
        match job {
            Ok(job) => job.wait().unwrap(),
            Err(StoreError::MaintenanceBusy) => {}
            Err(e) => panic!("maintenance failed: {e}"),
        }
    }
    stop.store(true, Ordering::Release);
    for reader in readers {
        assert!(reader.join().unwrap() > 0);
    }
    // Ground truth: a collection rebuilt from the final live state
    // answers identically after compaction of both.
    coll.compact().unwrap();
    assert_eq!(coll.maintenance_in_flight(), 0);
    assert!(coll.live_len() > 0);
}

#[test]
fn collection_len_dims_kind_through_the_trait() {
    let coll = Collection::in_memory(3, small_config(false));
    for i in 0..10u64 {
        coll.insert(i, &[i as f32; 3]).unwrap();
    }
    coll.delete(4).unwrap();
    let dep: &dyn VectorIndex = &coll;
    assert_eq!(dep.kind(), "collection");
    assert_eq!(dep.dims(), 3);
    assert_eq!(dep.len(), 9);
    assert!(!dep.is_empty());
}

/// `k = 0` asks for nothing and must answer nothing — at the merge and
/// through every search of the collection — and `k > live rows` must
/// return exactly the live rows in canonical `(distance, id)` order.
/// Both ends of the `k` range came up while wiring the network server,
/// where `k` arrives from the wire.
#[test]
fn k_zero_and_k_beyond_live_rows_are_well_defined() {
    let (n, d) = (300, 8);
    let rows = make_rows(n, d, 77);
    let coll = Collection::in_memory(d, small_config(false));
    for i in 0..n {
        coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    for i in (0..n).step_by(3) {
        coll.delete(i as u64).unwrap();
    }
    let live = coll.live_len();
    assert!(live < n);
    let q = &rows[..d];

    // k = 0: empty everywhere, sequential, parallel and batched.
    let one = vec![vec![Neighbor {
        id: 1,
        distance: 0.5,
    }]];
    assert!(merge_neighbors(&one, 0).is_empty());
    assert!(coll.search(q, &SearchOptions::new(0)).is_empty());
    assert!(coll
        .search_parallel(q, &SearchOptions::new(0).with_threads(4))
        .is_empty());
    let batch = coll.search_batch(&rows[..3 * d], &SearchOptions::new(0).with_threads(2));
    assert_eq!(batch, vec![Vec::<Neighbor>::new(); 3]);

    // k > live: every live row exactly once, canonically ordered, with
    // no tombstoned id leaking through; parallel path bit-identical.
    let opts = SearchOptions::new(2 * n);
    let hits = coll.search(q, &opts);
    assert_eq!(hits.len(), live);
    let mut ids = ids_of(&hits);
    for w in hits.windows(2) {
        assert!(
            (w[0].distance, w[0].id) < (w[1].distance, w[1].id),
            "canonical order violated"
        );
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), live, "a row appeared twice");
    assert!(ids.iter().all(|id| id % 3 != 0), "a tombstoned row leaked");
    let par = coll.search_parallel(q, &SearchOptions::new(2 * n).with_threads(8));
    assert_eq!(hits, par);

    // Past the end with nothing deleted: every row, sealed and buffered.
    let whole = Collection::in_memory(d, small_config(false));
    whole.bulk_insert(0, &rows[..(n - 50) * d]).unwrap();
    for i in n - 50..n {
        whole.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    assert!(whole.segment_count() > 1 && whole.buffer_len() == 50);
    let all = whole.search(q, &SearchOptions::new(n + 50));
    assert_eq!(all.len(), n);
}

/// The counters a monitoring endpoint reads (`live_len`,
/// `tombstone_count`, `segment_stats`) must describe the compacted
/// state the moment a *background* compaction commits — no settling
/// period, no extra sync.
#[test]
fn stats_are_fresh_the_moment_background_compaction_commits() {
    let (n, d) = (600, 8);
    let rows = make_rows(n, d, 78);
    let coll = Arc::new(Collection::in_memory(d, small_config(false)));
    for i in 0..n {
        coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
    }
    for i in (0..n).step_by(4) {
        coll.delete(i as u64).unwrap();
    }
    let live = coll.live_len();
    assert!(coll.tombstone_count() > 0);

    let job = coll.compact_background().unwrap();
    job.wait().unwrap();

    assert_eq!(coll.live_len(), live);
    assert_eq!(coll.tombstone_count(), 0);
    assert_eq!(coll.segment_count(), 1);
    let stats = coll.segment_stats();
    assert_eq!(stats.iter().map(|s| s.rows).sum::<usize>(), live);
    assert!(stats.iter().all(|s| s.dead == 0));

    // The serving layer reads the same counters: a Stats round-trip
    // right after the commit reports the compacted collection.
    let backend = pdx::serve::Backend::collection(Arc::clone(&coll));
    let server = Server::start(backend, ("127.0.0.1", 0), ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let report = client.stats().unwrap();
    assert_eq!(report.live, live as u64);
    assert_eq!(report.tombstones, 0);
    drop(client);
    server.shutdown();
}

/// A PDX3 directory whose MANIFEST is cut off mid-file opens as a typed
/// `Corrupt` error — through `Collection::open` and through
/// `AnyIndex::open` — never a panic, and never a partial collection.
#[test]
fn truncated_manifest_is_a_typed_corrupt_error() {
    let (n, d) = (200, 8);
    let dir = temp_dir("truncated_manifest");
    let rows = make_rows(n, d, 79);
    {
        let coll = Collection::create(&dir, d, small_config(false)).unwrap();
        for i in 0..n {
            coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
        }
        coll.sync().unwrap();
    }
    let manifest = dir.join(pdx::store::MANIFEST_FILE);
    let bytes = std::fs::read(&manifest).unwrap();
    assert!(bytes.len() > 8, "manifest unexpectedly small");
    std::fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();

    match Collection::open(&dir).map(|_| ()) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(!msg.is_empty(), "corrupt error should say what broke")
        }
        other => panic!("expected StoreError::Corrupt, got {other:?}"),
    }
    let err = match AnyIndex::open(&dir) {
        Ok(_) => panic!("truncated manifest must not open"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("corrupt"),
        "error should carry the corrupt context: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
