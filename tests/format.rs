//! Format goldens: FNV-1a hashes of the exact bytes every writer in the
//! workspace produces, one constant per file kind and wire message.
//!
//! `tests/golden.rs` pins what a search *answers*; this file pins what
//! the system *stores and sends*. A refactor of the persistence or wire
//! code must leave every constant below untouched — a moved byte in a
//! `PDX1`/`PDX2` container (flat or IVF-extended), the `PDX3` manifest,
//! the `PDXI` remap sidecar, the `SHARDS` manifest, the write-ahead log
//! or any request/response message fails here, by name. Each artefact is
//! also read back and compared value for value, so a reader that drifts
//! from its writer fails next to the hash that proves the writer did not
//! move.
//!
//! The collection comes from an xorshift generator this file owns and
//! the IVF buckets are assigned by a formula, so no constant can move
//! with the `rand` stand-in or the k-means. Every block ends in a
//! partial group (150 vectors in partitions of 64 with groups of 16
//! leave a 22-vector tail block: one whole group and 6 lanes).
//!
//! Only names that survive a redesign of the container readers are
//! used: the writers, the reader `read_container`,
//! `LazyIvf::{open, fetch, n_buckets}`, `AnyIndex::open`, the store's
//! `Manifest` / `Segment` / `ShardedCollection` / `Wal`, and the wire
//! `encode` / `decode` / `write_frame` / `read_frame`.

use pdx::datasets::persist::{
    read_container, write_ivf_pdx, write_ivf_sq8, write_pdx, write_sq8, Container, Sq8Container,
};
use pdx::prelude::*;
use pdx::serve::proto::{read_frame, write_frame};
use pdx::serve::{ErrorKind, Request, Response};
use pdx::store::{Manifest, Segment, Wal, WalRecord};
use std::path::PathBuf;

const N: usize = 150;
const D: usize = 7;
const GROUP: usize = 16;
const BLOCK: usize = 64;
const BUCKETS: usize = 4;

/// xorshift64 → `f32` in [-2, 2).
fn xorshift(len: usize, mut s: u64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 22) as f32 - 2.0
        })
        .collect()
}

fn rows() -> Vec<f32> {
    xorshift(N * D, 0x9E37_79B9_7F4A_7C15)
}

/// Bucket sizes 75 / 25 / 25 / 25: every one ends in a partial group.
fn assignments() -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); BUCKETS];
    for i in 0..N {
        let b = if i % 2 == 0 {
            0
        } else {
            1 + (i / 2) % (BUCKETS - 1)
        };
        out[b].push(i as u32);
    }
    out
}

fn queries() -> Vec<f32> {
    xorshift(4 * D, 0xD1B5_4A32_D192_ED03)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin(name: &str, bytes: &[u8], want: u64) {
    assert_eq!(
        fnv1a(bytes),
        want,
        "{name}: the written bytes moved ({} bytes, got {:#018x})",
        bytes.len(),
        fnv1a(bytes)
    );
}

/// A fresh directory under the system temp dir, unique per test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdx_format_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `bytes` served the way a file is: written to one and opened through
/// `AnyIndex` (resident, unless the environment sets a cache budget).
fn serve_file(name: &str, bytes: &[u8]) -> Box<dyn VectorIndex> {
    let dir = temp_dir(name);
    let path = dir.join("c.pdx");
    std::fs::write(&path, bytes).unwrap();
    let index = AnyIndex::open(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    index
}

/// Answers of `index` over the fixed queries at two probe widths.
fn answers(index: &dyn VectorIndex) -> Vec<Vec<Neighbor>> {
    let mut out = Vec::new();
    for nprobe in [0, 2] {
        let opts = SearchOptions::new(5).with_nprobe(nprobe);
        for q in queries().chunks_exact(D) {
            out.push(index.search(q, &opts));
        }
    }
    out
}

#[test]
fn pdx1_flat_container() {
    let coll = PdxCollection::from_rows_partitioned(&rows(), N, D, BLOCK, GROUP);
    let mut buf = Vec::new();
    write_pdx(&mut buf, &coll).unwrap();
    pin("write_pdx", &buf, 0x9ec1_e336_e08a_e807);

    let Container::F32(back) = read_container(&buf).unwrap() else {
        panic!("not a PDX1 container")
    };
    assert_eq!(back.centroid_rows, None);
    let back = PdxCollection {
        dims: back.dims,
        blocks: back.blocks,
    };
    assert_eq!(back.dims, coll.dims);
    assert_eq!(back.blocks.len(), coll.blocks.len());
    for (a, b) in coll.blocks.iter().zip(&back.blocks) {
        assert_eq!(a.row_ids, b.row_ids);
        assert_eq!(a.pdx, b.pdx);
        assert_eq!(a.stats, b.stats);
    }
    let mut again = Vec::new();
    write_pdx(&mut again, &back).unwrap();
    assert_eq!(again, buf, "read → write must reproduce the file");

    let served = serve_file("pdx1_flat", &buf);
    assert_eq!(served.kind(), "flat-pdx");
    assert_eq!(
        answers(served.as_ref()),
        answers(&FlatPdx::from_collection(coll))
    );
}

#[test]
fn pdx2_flat_container_with_and_without_rerank_rows() {
    let flat = FlatSq8::build(rows(), N, D, BLOCK, GROUP);
    let mut with_rows = Vec::new();
    write_sq8(
        &mut with_rows,
        &flat.quantizer,
        &flat.blocks,
        Some(&flat.rows),
    )
    .unwrap();
    pin("write_sq8 (rerank rows)", &with_rows, 0x2ed1_bd3c_ce90_2a07);
    let mut scan_only = Vec::new();
    write_sq8(&mut scan_only, &flat.quantizer, &flat.blocks, None).unwrap();
    pin("write_sq8 (scan only)", &scan_only, 0x9dff_b95e_9db9_ec2a);

    for (buf, rows) in [(&with_rows, &flat.rows[..]), (&scan_only, &[][..])] {
        let back = sq8_of(buf);
        assert_eq!(back.centroid_rows, None);
        assert_eq!(back.dims, D);
        assert_eq!(back.group, GROUP);
        assert_eq!(back.quantizer, flat.quantizer);
        assert_eq!(back.blocks, flat.blocks);
        assert_eq!(back.rows, rows);
        let mut again = Vec::new();
        let rerank = (!back.rows.is_empty()).then_some(&back.rows[..]);
        write_sq8(&mut again, &back.quantizer, &back.blocks, rerank).unwrap();
        assert_eq!(&again, buf, "read → write must reproduce the file");
    }
    let served = serve_file("pdx2_flat", &with_rows);
    assert_eq!(served.kind(), "flat-sq8");
    assert_eq!(answers(served.as_ref()), answers(&flat));
}

#[test]
fn pdx1_ivf_container() {
    let ivf = IvfPdx::new(&rows(), D, &assignments(), GROUP);
    let centroid_rows = ivf.centroids.pdx.to_rows();
    let mut buf = Vec::new();
    write_ivf_pdx(&mut buf, D, &centroid_rows, &ivf.blocks).unwrap();
    pin("write_ivf_pdx", &buf, 0x4a9c_5468_49ac_2cc0);

    // Resident (lazy when the environment sets a cache budget): the
    // centroids are only reachable through the probe order, so equal
    // answers at nprobe 2 pin them too.
    let served = serve_file("pdx1_ivf", &buf);
    let lazily = pdx::core::cache::resolve_cache_bytes(None).is_some();
    let kind = if lazily { "ivf-pdx-lazy" } else { "ivf-pdx" };
    assert_eq!(served.kind(), kind);
    assert_eq!(served.len(), N);
    assert_eq!(answers(served.as_ref()), answers(&ivf));

    // Lazy: every bucket record decodes to the block that was written,
    // stored statistics included.
    let dir = temp_dir("ivf_pdx");
    let path = dir.join("c.pdx");
    std::fs::write(&path, &buf).unwrap();
    let lazy = LazyIvf::open(&path, 1 << 20).unwrap();
    assert_eq!(lazy.n_buckets(), ivf.blocks.len());
    let fetched: Vec<_> = (0..lazy.n_buckets() as u32)
        .map(|b| lazy.fetch(b))
        .collect();
    for (a, b) in ivf.blocks.iter().zip(&fetched) {
        assert_eq!(a.row_ids, b.row_ids);
        assert_eq!(a.pdx, b.pdx);
        assert_eq!(a.stats, b.stats);
    }
    assert_eq!(answers(&lazy), answers(&ivf));
    let blocks: Vec<SearchBlock> = fetched.iter().map(|b| (**b).clone()).collect();
    let mut again = Vec::new();
    write_ivf_pdx(&mut again, D, &centroid_rows, &blocks).unwrap();
    assert_eq!(again, buf, "read → write must reproduce the file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pdx2_ivf_container_with_and_without_rerank_rows() {
    let ivf = IvfSq8::new(&rows(), D, &assignments(), GROUP);
    let centroid_rows = ivf.centroids.pdx.to_rows();
    let mut with_rows = Vec::new();
    write_ivf_sq8(
        &mut with_rows,
        &ivf.quantizer,
        &centroid_rows,
        &ivf.blocks,
        Some(&ivf.rows),
    )
    .unwrap();
    pin(
        "write_ivf_sq8 (rerank rows)",
        &with_rows,
        0xcad5_3182_2e1d_d7f6,
    );
    let mut scan_only = Vec::new();
    write_ivf_sq8(
        &mut scan_only,
        &ivf.quantizer,
        &centroid_rows,
        &ivf.blocks,
        None,
    )
    .unwrap();
    pin(
        "write_ivf_sq8 (scan only)",
        &scan_only,
        0xfa22_e1fe_85e6_3a53,
    );

    let served = serve_file("pdx2_ivf", &with_rows);
    assert_eq!(served.kind(), "ivf-sq8");
    assert_eq!(served.len(), N);
    assert_eq!(answers(served.as_ref()), answers(&ivf));
    let mut no_rows = ivf.clone();
    no_rows.rows = Vec::new();
    let served = serve_file("pdx2_ivf_scan", &scan_only);
    assert_eq!(answers(served.as_ref()), answers(&no_rows));
}

/// FNV-1a of `(id, distance.to_bits())` over answers, as
/// `tests/golden.rs` hashes them.
fn answer_bits(results: &[Vec<Neighbor>]) -> u64 {
    let mut bytes = Vec::new();
    for n in results.iter().flatten() {
        bytes.extend_from_slice(&n.id.to_le_bytes());
        bytes.extend_from_slice(&n.distance.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

fn sq8_of(bytes: &[u8]) -> Sq8Container {
    match read_container(bytes).unwrap() {
        Container::Sq8(c) => c,
        Container::F32(_) => panic!("not a PDX2 container"),
    }
}

#[test]
fn pdx2_storage_order_round_trips_flat_and_ivf() {
    let identity: Vec<u32> = (0..D as u32).collect();
    let flat = FlatSq8::build(rows(), N, D, BLOCK, GROUP);
    assert_ne!(
        flat.quantizer.order(),
        &identity[..],
        "the fixture has an order"
    );
    let mut buf = Vec::new();
    write_sq8(&mut buf, &flat.quantizer, &flat.blocks, None).unwrap();
    let back = sq8_of(&buf);
    assert_eq!(back.quantizer.order(), flat.quantizer.order());
    assert_eq!(back.blocks, flat.blocks);

    let ivf = IvfSq8::new(&rows(), D, &assignments(), GROUP);
    assert_ne!(
        ivf.quantizer.order(),
        &identity[..],
        "the fixture has an order"
    );
    let mut buf = Vec::new();
    let centroid_rows = ivf.centroids.pdx.to_rows();
    write_ivf_sq8(&mut buf, &ivf.quantizer, &centroid_rows, &ivf.blocks, None).unwrap();
    let back = sq8_of(&buf);
    assert_eq!(back.quantizer.order(), ivf.quantizer.order());
    assert_eq!(back.blocks, ivf.blocks);
}

/// `PDX2` containers written before the storage order existed (flags
/// bit 1 clear), by the writer of that time from this file's
/// collection: the flat one with rerank rows, the IVF 1.1 one
/// scan-only. Their hashes are that writer's pinned constants.
const OLD_PDX2_FLAT: &[u8] = include_bytes!("fixtures/pdx2_flat.pdx");
const OLD_PDX2_IVF: &[u8] = include_bytes!("fixtures/pdx2_ivf.pdx");

#[test]
fn old_pdx2_fixtures_read_with_the_identity_storage_order() {
    pin("old flat PDX2", OLD_PDX2_FLAT, 0xc633_4c9b_416a_7bb2);
    pin("old IVF PDX2", OLD_PDX2_IVF, 0xf5ed_027e_67d4_00a6);
    let identity: Vec<u32> = (0..D as u32).collect();

    // The answers the writer's own build gave, reranked and estimated.
    let flat = sq8_of(OLD_PDX2_FLAT);
    assert_eq!(flat.centroid_rows, None);
    assert_eq!(flat.quantizer.order(), &identity[..]);
    let served = serve_file("old_pdx2_flat", OLD_PDX2_FLAT);
    assert_eq!(
        answer_bits(&answers(served.as_ref())),
        0x903f_8c17_0398_e755
    );
    let scan_only = FlatSq8::from_parts(D, flat.quantizer, flat.blocks, Vec::new());
    assert_eq!(answer_bits(&answers(&scan_only)), 0x76f4_8eab_25e7_20b5);

    assert_eq!(sq8_of(OLD_PDX2_IVF).quantizer.order(), &identity[..]);
    let served = serve_file("old_pdx2_ivf", OLD_PDX2_IVF);
    assert_eq!(
        answer_bits(&answers(served.as_ref())),
        0x1f0b_9e89_e1c7_13ba
    );
}

#[test]
fn pdx3_manifest() {
    let manifest = Manifest {
        dims: D,
        config: StoreConfig {
            block_size: BLOCK,
            group_size: GROUP,
            buffer_capacity: 1024,
            quantize: true,
        },
        wal_seq: 7,
        next_segment_seq: 4,
        segments: vec![1, 3],
        tombstones: vec![10, 20, u64::MAX],
    };
    let dir = temp_dir("manifest");
    manifest.write_atomic(&dir).unwrap();
    pin(
        "Manifest",
        &std::fs::read(Manifest::path(&dir)).unwrap(),
        0x69f4_f94a_1d57_a06d,
    );
    assert_eq!(Manifest::read(&dir).unwrap(), manifest);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pdxi_sidecar_and_segment_containers() {
    let rows = rows();
    let ids: Vec<u64> = (0..N as u64).map(|i| i * 3 + 5).collect();
    let dir = temp_dir("segment");
    for (seq, quantize, ids_hash, container_hash) in [
        (3u64, false, 0x42be_3000_3c72_434c, 0x9ec1_e336_e08a_e807),
        (4u64, true, 0x42be_3000_3c72_434c, 0x2ed1_bd3c_ce90_2a07),
    ] {
        let config = StoreConfig {
            block_size: BLOCK,
            group_size: GROUP,
            buffer_capacity: 1024,
            quantize,
        };
        let segment = Segment::seal(seq, ids.clone(), rows.clone(), D, &config).unwrap();
        segment.write(&dir).unwrap();
        let sidecar = std::fs::read(dir.join(format!("seg-{seq:06}.ids"))).unwrap();
        pin("PDXI sidecar", &sidecar, ids_hash);
        let container = std::fs::read(dir.join(format!("seg-{seq:06}.pdx"))).unwrap();
        pin("segment container", &container, container_hash);
        let back = Segment::load(&dir, seq, D).unwrap();
        assert_eq!(back.remap(), &ids[..]);
        assert_eq!(back.kind(), segment.kind());
        assert_eq!(back.rows(), rows);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Rows of an SQ8 segment that reach every branch of the code function.
/// Dimensions 0–5 span exactly 255 steps of a power of two, so the
/// fitted scale is that step and the half-step values land on exact .5
/// ties in code space (even and odd codes alike). Dimension 6 spans
/// [−2, −1.408], whose fitted scale puts the maximum at code 255.00002:
/// past the top of the range, so it clamps.
fn tie_rows() -> Vec<f32> {
    let noise = xorshift(N * D, 0x2545_F491_4F6C_DD1D);
    (0..N * D)
        .map(|i| {
            let (row, j, unit) = (i / D, i % D, (noise[i] + 2.0) / 4.0);
            if j == D - 1 {
                let (lo, hi) = (-2.0f32, -1.408f32);
                return [lo, hi].get(row).copied().unwrap_or(lo + (hi - lo) * unit);
            }
            let (lo, step) = (j as f32 * 0.25 - 1.0, 2f32.powi(j as i32 % 3 - 3));
            match row {
                0 => lo,
                1 => lo + 255.0 * step,
                _ => lo + step * ((unit * 255.0) as u32 as f32 + 0.5).min(254.5),
            }
        })
        .collect()
}

#[test]
fn sq8_segment_with_ties_and_clamped_codes() {
    let rows = tie_rows();
    let q = Sq8Quantizer::fit(&rows, N, D);
    let code = |i: usize| (rows[i] - q.min(i % D)) / q.scale(i % D);
    assert!((0..N * D).any(|i| code(i) > 255.0), "no value clamps");
    let ties = (0..N * D).filter(|&i| code(i).fract() == 0.5).count();
    assert!(ties > 5 * N, "only {ties} exact .5 ties");

    let ids: Vec<u64> = (0..N as u64).map(|i| i * 7 + 2).collect();
    let config = StoreConfig {
        block_size: BLOCK,
        group_size: GROUP,
        buffer_capacity: 1024,
        quantize: true,
    };
    let dir = temp_dir("sq8_ties");
    let segment = Segment::seal(9, ids.clone(), rows.clone(), D, &config).unwrap();
    segment.write(&dir).unwrap();
    let sidecar = std::fs::read(dir.join("seg-000009.ids")).unwrap();
    pin("PDXI sidecar (ties)", &sidecar, 0x9420_0f94_1fc9_c688);
    let container = std::fs::read(dir.join("seg-000009.pdx")).unwrap();
    pin(
        "SQ8 segment container (ties)",
        &container,
        0x4676_f7b5_be49_a7bc,
    );
    let back = Segment::load(&dir, 9, D).unwrap();
    assert_eq!(back.remap(), &ids[..]);
    assert_eq!(back.rows(), rows);
    assert_eq!(answers(back.index()), answers(segment.index()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shards_manifest() {
    let dir = temp_dir("shards");
    let parent = dir.join("sharded");
    let created = ShardedCollection::create(&parent, D, 3, StoreConfig::default()).unwrap();
    drop(created);
    pin(
        "SHARDS",
        &std::fs::read(parent.join(SHARDS_FILE)).unwrap(),
        0xcff9_873a_e6bb_1918,
    );
    let back = ShardedCollection::open(&parent).unwrap();
    assert_eq!(back.n_shards(), 3);
    assert_eq!(back.dims(), D);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_ahead_log() {
    let records = vec![
        WalRecord::Insert {
            id: 3,
            vector: rows()[..D].to_vec(),
        },
        WalRecord::Delete { id: 3 },
        WalRecord::Insert {
            id: u64::MAX,
            vector: rows()[D..2 * D].to_vec(),
        },
    ];
    let dir = temp_dir("wal");
    let path = dir.join("wal-000001.log");
    let mut wal = Wal::create(&path, D).unwrap();
    for r in &records {
        wal.append(r).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    pin("WAL", &std::fs::read(&path).unwrap(), 0xdabb_a57d_9318_b4b4);
    let (_wal, replayed) = Wal::open(&path, D).unwrap();
    assert_eq!(replayed, records);
    std::fs::remove_dir_all(&dir).ok();
}

fn requests() -> Vec<(Request, u64)> {
    vec![
        (Request::Ping, 0xaf63_bc4c_8601_b62c),
        (
            Request::Search {
                deadline_ms: 25,
                k: 10,
                nprobe: 3,
                refine: 4,
                query: rows()[..D].to_vec(),
            },
            0x48f4_eb52_f83b_b08f,
        ),
        (
            Request::SearchBatch {
                deadline_ms: 0,
                k: 3,
                nprobe: 7,
                refine: 0,
                dims: D as u32,
                queries: rows()[..3 * D].to_vec(),
            },
            0xe1c8_425d_6c35_c755,
        ),
        (
            Request::Insert {
                deadline_ms: 1,
                id: u64::MAX,
                vector: rows()[D..2 * D].to_vec(),
            },
            0x5a73_b831_83ac_fdb4,
        ),
        (
            Request::Delete {
                deadline_ms: 9,
                id: 42,
            },
            0xb305_6887_7682_3eb3,
        ),
        (Request::Stats { deadline_ms: 5 }, 0xab4e_8d9d_2d2e_4a3c),
    ]
}

fn responses() -> Vec<(Response, u64)> {
    let hits = vec![
        Neighbor {
            id: 3,
            distance: 0.25,
        },
        Neighbor {
            id: u64::MAX,
            distance: f32::MAX,
        },
    ];
    let stats = StatsReport {
        dims: 16,
        live: 1000,
        tombstones: 3,
        uptime_ms: 12345,
        completed: 99,
        busy_rejected: 2,
        deadline_rejected: 1,
        protocol_errors: 4,
        in_flight: 1,
        queue_depth: 5,
        queue_capacity: 128,
        qps_x1000: 1500,
        p50_us: 100,
        p99_us: 900,
        p999_us: 2000,
        kernel_isa: 1,
        resident_bytes: 1 << 30,
        cache_hits: 77,
        cache_misses: 13,
        cache_evictions: 6,
        open_us: 450,
    };
    vec![
        (Response::Pong, 0xaf64_3c4c_8602_8fac),
        (Response::Neighbors(hits.clone()), 0xf712_056b_d8a8_62da),
        (
            Response::Batch(vec![hits, Vec::new()]),
            0x3a70_4587_9004_02b3,
        ),
        (Response::Inserted, 0xaf64_394c_8602_8a93),
        (Response::Deleted, 0xaf64_384c_8602_88e0),
        (Response::Stats(stats), 0xe16b_4c0a_0333_e62f),
        (
            Response::error(ErrorKind::Busy, "queue full — retry"),
            0x094e_59df_d146_d47f,
        ),
    ]
}

#[test]
fn wire_requests() {
    for (req, want) in requests() {
        let msg = req.encode();
        pin(&format!("{req:?}"), &msg, want);
        assert_eq!(Request::decode(&msg).unwrap(), req);
    }
}

#[test]
fn wire_responses() {
    for (resp, want) in responses() {
        let msg = resp.encode();
        pin(&format!("{resp:?}"), &msg, want);
        assert_eq!(Response::decode(&msg).unwrap(), resp);
    }
}

#[test]
fn wire_frame() {
    let (req, _) = requests().swap_remove(1);
    let mut framed = Vec::new();
    write_frame(&mut framed, 0xDEAD_BEEF, &req.encode()).unwrap();
    pin("frame", &framed, 0xf286_520c_c69f_991e);
    let (seq, msg) = read_frame(&mut &framed[..], 1 << 20).unwrap();
    assert_eq!(seq, 0xDEAD_BEEF);
    assert_eq!(Request::decode(&msg).unwrap(), req);
}
