//! Hostile inputs: truncation and mutation of every persisted file kind
//! and wire frame.
//!
//! `tests/format.rs` pins what the writers produce; this file feeds the
//! readers everything *else*. For each artefact — `PDX1`/`PDX2`
//! containers flat and IVF-extended, the `PDX3` manifest, the `PDXI`
//! sidecar, the `SHARDS` manifest, the write-ahead log, every request
//! and response message and the frame around them — two laws hold:
//!
//! * **every proper prefix is a typed error** (`InvalidData` /
//!   `UnexpectedEof`, `StoreError`, `ProtoError`), never a partial
//!   value. The one exception is the write-ahead log, whose contract is
//!   the opposite: a torn tail is what a crash leaves, so a prefix
//!   replays a prefix of the records;
//! * **any single changed byte in the header region is a typed error or
//!   a successful decode** — never a panic, never an abort.
//!
//! "Never an allocation beyond what the input backs" is asserted where
//! it can be counted — inside `pdx_core::codec`'s own tests, around the
//! one function that sizes allocations from untrusted counts — and
//! enforced here from outside: CI runs this suite under `ulimit -v`, so
//! a reader that reserved gigabytes for a mutated count would fail the
//! run on machines whose overcommit would otherwise hide it.
//!
//! The five counts that aborted the process before every untrusted count
//! went through one function (`n_blocks`, `n_vectors`, `dims` of either
//! container, the first word of an `.fvecs` file) each have a test by
//! name at the top.
//!
//! A container has one decoder, and every source it reads knows its
//! length: counts are checked against the bytes present before anything
//! is read for them. The exhaustive suites feed it every prefix and
//! every header-byte change of each container as bytes; a proptest
//! feeds it truncated and mutated files, and serves what still decodes
//! through the engine, lazily when it is IVF.

use pdx::core::codec::put_slice;
use pdx::datasets::io::read_fvecs;
use pdx::datasets::persist::{
    read_container, read_container_path, write_ivf_pdx, write_ivf_sq8, write_pdx, write_sq8,
};
use pdx::prelude::*;
use pdx::serve::proto::{read_frame, write_frame};
use pdx::serve::{ErrorKind, Request, Response};
use pdx::store::{Manifest, Segment, Wal, WalRecord};
use proptest::prelude::*;
use std::io;
use std::path::PathBuf;

const N: usize = 90;
const D: usize = 5;
const GROUP: usize = 16;
const BLOCK: usize = 40;

fn rows() -> Vec<f32> {
    (0..N * D).map(|i| (i as f32 * 0.37).sin() * 4.0).collect()
}

fn assignments() -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); 3];
    for i in 0..N {
        out[i % 3].push(i as u32);
    }
    out
}

/// A container of `magic` followed by little-endian `words`.
fn hostile(magic: &[u8; 4], words: &[u32]) -> Vec<u8> {
    let mut buf = magic.to_vec();
    put_slice(&mut buf, words);
    buf
}

fn assert_invalid_naming(bytes: &[u8], field: &str) {
    let err = read_container(bytes).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains(field), "{err} should name {field}");
}

#[test]
fn hostile_pdx1_block_count_is_invalid_data_not_an_allocation() {
    // 16 bytes claiming four billion blocks (756 GB of block headers).
    assert_invalid_naming(&hostile(b"PDX1", &[4, 64, u32::MAX]), "n_blocks");
}

#[test]
fn hostile_pdx1_vector_count_is_invalid_data_not_an_allocation() {
    // One block claiming four billion vectors (34 GB of ids).
    assert_invalid_naming(&hostile(b"PDX1", &[4, 64, 1, u32::MAX]), "n_vectors");
}

#[test]
fn hostile_pdx2_dims_is_invalid_data_not_an_allocation() {
    // 17 GB of quantizer parameters.
    assert_invalid_naming(&hostile(b"PDX2", &[u32::MAX - 1, 64, 0, 0]), "dims");
}

#[test]
fn hostile_pdx2_block_count_is_invalid_data_not_an_allocation() {
    let mut buf = hostile(b"PDX2", &[1, 64, u32::MAX, 0]);
    put_slice(&mut buf, &[0.0f32, 1.0]); // one min, one scale
    assert_invalid_naming(&buf, "n_blocks");
}

#[test]
fn hostile_fvecs_dims_is_invalid_data_not_an_allocation() {
    // The first word claims a 16 GB vector; four bytes follow.
    let mut buf = u32::MAX.to_le_bytes().to_vec();
    buf.extend_from_slice(&1.0f32.to_le_bytes());
    let err = read_fvecs(&buf[..]).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("dims"), "{err}");
}

/// A container and the length of its header region (everything before
/// the first block record).
struct Sample {
    name: &'static str,
    bytes: Vec<u8>,
    header_len: usize,
}

fn containers() -> Vec<Sample> {
    let rows = rows();
    let coll = PdxCollection::from_rows_partitioned(&rows, N, D, BLOCK, GROUP);
    let flat = FlatSq8::build(&rows, N, D, BLOCK, GROUP);
    let ivf = IvfPdx::new(&rows, D, &assignments(), GROUP);
    let ivf_sq8 = IvfSq8::new(&rows, D, &assignments(), GROUP);
    let centroids = ivf.centroids.pdx.to_rows();
    let table = 3 * (D * 4 + 20);
    let mut out = Vec::new();
    let mut push = |name, header_len, write: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = Vec::new();
        write(&mut bytes);
        out.push(Sample {
            name,
            bytes,
            header_len,
        });
    };
    push("pdx1", 16, &|b| write_pdx(b, &coll).unwrap());
    push("pdx2", 20 + D * 12, &|b| {
        write_sq8(b, &flat.quantizer, &flat.blocks, Some(&flat.rows)).unwrap()
    });
    push("pdx1-ivf", 28 + table, &|b| {
        write_ivf_pdx(b, D, &centroids, &ivf.blocks).unwrap()
    });
    push("pdx2-ivf", 28 + D * 12 + 16 + table, &|b| {
        let rows = Some(&ivf_sq8.rows[..]);
        write_ivf_sq8(b, &ivf_sq8.quantizer, &centroids, &ivf_sq8.blocks, rows).unwrap()
    });
    out
}

#[test]
fn hostile_pdx2_storage_order_that_is_not_a_permutation_is_invalid_data() {
    for sample in containers().iter().filter(|s| s.name.starts_with("pdx2")) {
        // The order follows the fixed words, the mins and the scales.
        let fixed = if sample.name.ends_with("ivf") { 28 } else { 20 };
        let at = fixed + D * 8;
        let entry = |bytes: &[u8], i: usize| {
            u32::from_le_bytes(bytes[at + 4 * i..at + 4 * i + 4].try_into().unwrap())
        };
        let order: Vec<u32> = (0..D).map(|i| entry(&sample.bytes, i)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..D as u32).collect::<Vec<_>>(), "{}", sample.name);
        for (what, first) in [("duplicate", order[1]), ("out of range", D as u32)] {
            let mut bytes = sample.bytes.clone();
            bytes[at..at + 4].copy_from_slice(&first.to_le_bytes());
            let err = read_container(&bytes[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("quantizer order"), "{what}: {err}");
            let dir = temp_dir(&format!("order_{}_{}", sample.name, first));
            let path = dir.join("c.pdx");
            std::fs::write(&path, &bytes).unwrap();
            let err = read_container_path(&path).unwrap_err();
            assert!(err.to_string().contains("quantizer order"), "{what}: {err}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A fresh directory under the system temp dir, unique per test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdx_hostile_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_typed(err: &io::Error, what: &str) {
    assert!(
        matches!(
            err.kind(),
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
        ),
        "{what}: untyped error {err:?}"
    );
}

#[test]
fn every_container_prefix_is_a_typed_error_from_bytes() {
    for sample in containers() {
        read_container(&sample.bytes[..]).expect(sample.name);
        for cut in 0..sample.bytes.len() {
            match read_container(&sample.bytes[..cut]) {
                Ok(_) => panic!("{}: prefix of {cut} bytes decoded", sample.name),
                Err(err) => assert_typed(&err, sample.name),
            }
        }
    }
}

#[test]
fn every_header_byte_change_is_typed_or_decodes_from_bytes() {
    for sample in containers() {
        let mut bytes = sample.bytes.clone();
        for at in 0..sample.header_len {
            for delta in [1u8, 0x80, 0xFF] {
                bytes[at] = bytes[at].wrapping_add(delta);
                if let Err(err) = read_container(&bytes[..]) {
                    assert_typed(&err, sample.name);
                }
                bytes[at] = sample.bytes[at];
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The same two laws through the file path, where the file's length
    /// bounds every count before anything is read for it.
    #[test]
    fn container_files_truncated_or_mutated_fail_typed(
        which in 0usize..4,
        cut in 0usize..1 << 20,
        at in 0usize..1 << 20,
        byte in 0usize..256,
    ) {
        let sample = &containers()[which];
        let dir = temp_dir(&format!("file_{which}_{cut}_{at}"));
        let path = dir.join("c.pdx");
        let cut = cut % sample.bytes.len();
        std::fs::write(&path, &sample.bytes[..cut]).unwrap();
        match read_container_path(&path) {
            Ok(_) => prop_assert!(false, "{}: prefix of {} bytes decoded", sample.name, cut),
            Err(err) => {
                assert_typed(&err, sample.name);
                prop_assert!(err.to_string().contains("c.pdx"), "{}", err);
            }
        }
        let mut bytes = sample.bytes.clone();
        bytes[at % sample.header_len] = byte as u8;
        std::fs::write(&path, &bytes).unwrap();
        if let Err(err) = read_container_path(&path) {
            assert_typed(&err, sample.name);
        }
        // Whatever a mutated header still decodes to must also serve or
        // fail typed through the engine (lazily, when it is IVF).
        let opts = OpenOptions::default().with_cache_bytes(1 << 16);
        if let Err(err) = AnyIndex::open_with(&path, opts) {
            assert_typed(&err, sample.name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn config(quantize: bool) -> StoreConfig {
    StoreConfig {
        block_size: BLOCK,
        group_size: GROUP,
        buffer_capacity: 256,
        quantize,
    }
}

#[test]
fn manifest_prefixes_and_mutations_are_corrupt_or_decode() {
    let dir = temp_dir("manifest");
    let manifest = Manifest {
        dims: D,
        config: config(true),
        wal_seq: 7,
        next_segment_seq: 4,
        segments: vec![1, 3],
        tombstones: vec![10, 20, 30],
    };
    manifest.write_atomic(&dir).unwrap();
    let path = Manifest::path(&dir);
    let healthy = std::fs::read(&path).unwrap();
    for cut in 0..healthy.len() {
        std::fs::write(&path, &healthy[..cut]).unwrap();
        let err = Manifest::read(&dir).expect_err("a manifest prefix decoded");
        assert!(matches!(err, StoreError::Corrupt(_)), "cut {cut}: {err:?}");
    }
    // The whole manifest is header: counts, then the lists they size.
    let mut bytes = healthy.clone();
    for at in 0..healthy.len() {
        for delta in [1u8, 0x80, 0xFF] {
            bytes[at] = bytes[at].wrapping_add(delta);
            std::fs::write(&path, &bytes).unwrap();
            if let Err(err) = Manifest::read(&dir) {
                assert!(matches!(err, StoreError::Corrupt(_)), "byte {at}: {err:?}");
            }
            bytes[at] = healthy[at];
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sidecar_prefixes_and_mutations_are_corrupt_or_decode() {
    let dir = temp_dir("sidecar");
    let ids: Vec<u64> = (0..N as u64).map(|i| i * 2 + 1).collect();
    let segment = Segment::seal(2, ids, rows(), D, &config(false)).unwrap();
    segment.write(&dir).unwrap();
    let path = dir.join("seg-000002.ids");
    let healthy = std::fs::read(&path).unwrap();
    for cut in 0..healthy.len() {
        std::fs::write(&path, &healthy[..cut]).unwrap();
        let err = Segment::load(&dir, 2, D).expect_err("a sidecar prefix decoded");
        assert!(matches!(err, StoreError::Corrupt(_)), "cut {cut}: {err:?}");
    }
    // Header: magic, version, count.
    let mut bytes = healthy.clone();
    for at in 0..16 {
        for delta in [1u8, 0x80, 0xFF] {
            bytes[at] = bytes[at].wrapping_add(delta);
            std::fs::write(&path, &bytes).unwrap();
            let err = Segment::load(&dir, 2, D).expect_err("any header change breaks the table");
            assert!(matches!(err, StoreError::Corrupt(_)), "byte {at}: {err:?}");
            bytes[at] = healthy[at];
        }
    }
    // The same for the segment's container, through the segment loader.
    std::fs::write(&path, &healthy).unwrap();
    let container = dir.join("seg-000002.pdx");
    let healthy = std::fs::read(&container).unwrap();
    for cut in (0..healthy.len()).step_by(7) {
        std::fs::write(&container, &healthy[..cut]).unwrap();
        let err = Segment::load(&dir, 2, D).expect_err("a container prefix loaded");
        assert!(matches!(err, StoreError::Corrupt(_)), "cut {cut}: {err:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shards_prefixes_and_mutations_are_typed_or_open() {
    let dir = temp_dir("shards");
    let parent = dir.join("sharded");
    drop(ShardedCollection::create(&parent, D, 3, config(false)).unwrap());
    let path = parent.join(SHARDS_FILE);
    let healthy = std::fs::read(&path).unwrap();
    for cut in 0..healthy.len() {
        std::fs::write(&path, &healthy[..cut]).unwrap();
        let err = ShardedCollection::open(&parent)
            .map(|_| ())
            .expect_err("a SHARDS prefix opened");
        assert!(matches!(err, StoreError::Corrupt(_)), "cut {cut}: {err:?}");
    }
    // A larger shard count runs into a shard directory that is not
    // there (an IO error, after reserving nothing for the count); a
    // smaller one opens that many.
    let mut bytes = healthy.clone();
    for at in 0..healthy.len() {
        for delta in [1u8, 0x80, 0xFF] {
            bytes[at] = bytes[at].wrapping_add(delta);
            std::fs::write(&path, &bytes).unwrap();
            if let Err(err) = ShardedCollection::open(&parent).map(|_| ()) {
                assert!(
                    matches!(err, StoreError::Corrupt(_) | StoreError::Io(_)),
                    "byte {at}: {err:?}"
                );
            }
            bytes[at] = healthy[at];
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_prefixes_replay_a_prefix_and_header_mutations_are_corrupt() {
    let dir = temp_dir("wal");
    let path = dir.join("wal-000001.log");
    let records = vec![
        WalRecord::Insert {
            id: 3,
            vector: rows()[..D].to_vec(),
        },
        WalRecord::Delete { id: 3 },
        WalRecord::Insert {
            id: 9,
            vector: rows()[D..2 * D].to_vec(),
        },
    ];
    let mut wal = Wal::create(&path, D).unwrap();
    for r in &records {
        wal.append(r).unwrap();
    }
    drop(wal);
    let healthy = std::fs::read(&path).unwrap();
    for cut in 0..healthy.len() {
        std::fs::write(&path, &healthy[..cut]).unwrap();
        let (_wal, replayed) = Wal::open(&path, D).expect("a torn log is not an error");
        assert!(replayed.len() < records.len(), "cut {cut}");
        assert_eq!(replayed[..], records[..replayed.len()], "cut {cut}");
    }
    // Header: magic, version, dims — every change is a different log.
    let mut bytes = healthy.clone();
    for at in 0..12 {
        bytes[at] = bytes[at].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path, D)
            .map(|_| ())
            .expect_err("a foreign header opened");
        assert!(matches!(err, StoreError::Corrupt(_)), "byte {at}: {err:?}");
        bytes[at] = healthy[at];
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn messages() -> (Vec<Request>, Vec<Response>) {
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
    let requests = vec![
        Request::Ping,
        Request::Search {
            deadline_ms: 25,
            k: 10,
            nprobe: 3,
            refine: 4,
            query: rows()[..D].to_vec(),
        },
        Request::SearchBatch {
            deadline_ms: 0,
            k: 3,
            nprobe: 7,
            refine: 0,
            dims: D as u32,
            queries: rows()[..3 * D].to_vec(),
        },
        Request::Insert {
            deadline_ms: 1,
            id: u64::MAX,
            vector: rows()[..D].to_vec(),
        },
        Request::Delete {
            deadline_ms: 9,
            id: 42,
        },
        Request::Stats { deadline_ms: 5 },
    ];
    let responses = vec![
        Response::Pong,
        Response::Neighbors(hits.clone()),
        Response::Batch(vec![hits, Vec::new()]),
        Response::Inserted,
        Response::Deleted,
        Response::Stats(StatsReport {
            dims: 16,
            live: 1000,
            open_us: 450,
            ..StatsReport::default()
        }),
        Response::error(ErrorKind::Busy, "queue full"),
    ];
    (requests, responses)
}

#[test]
fn message_prefixes_and_mutations_are_protocol_errors_or_decode() {
    let (requests, responses) = messages();
    let encoded = requests
        .iter()
        .map(|r| (true, r.encode()))
        .chain(responses.iter().map(|r| (false, r.encode())));
    for (is_request, healthy) in encoded {
        let decode = |bytes: &[u8]| match is_request {
            true => Request::decode(bytes).map(|_| ()),
            false => Response::decode(bytes).map(|_| ()),
        };
        decode(&healthy).unwrap();
        for cut in 0..healthy.len() {
            let err = decode(&healthy[..cut]).expect_err("a message prefix decoded");
            assert!(!err.0.is_empty());
        }
        // A message is all header: tag, scalars, counts, payload.
        let mut bytes = healthy.clone();
        for at in 0..healthy.len() {
            for delta in [1u8, 0x80, 0xFF] {
                bytes[at] = bytes[at].wrapping_add(delta);
                let _typed_or_ok = decode(&bytes);
                bytes[at] = healthy[at];
            }
        }
    }
}

#[test]
fn frame_prefixes_and_header_mutations_are_typed_or_decode() {
    let (requests, _) = messages();
    let mut healthy = Vec::new();
    write_frame(&mut healthy, 0xDEAD_BEEF, &requests[1].encode()).unwrap();
    read_frame(&mut &healthy[..], 1 << 20).unwrap();
    for cut in 0..healthy.len() {
        let err = read_frame(&mut &healthy[..cut], 1 << 20).expect_err("a frame prefix decoded");
        assert_typed(&err, "frame");
    }
    // Header: length and sequence number. A length over the cap is
    // refused before anything is reserved for it.
    let mut bytes = healthy.clone();
    for at in 0..8 {
        for delta in [1u8, 0x80, 0xFF] {
            bytes[at] = bytes[at].wrapping_add(delta);
            if let Err(err) = read_frame(&mut &bytes[..], 1 << 20) {
                assert_typed(&err, "frame");
            }
            bytes[at] = healthy[at];
        }
    }
}
