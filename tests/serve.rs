//! Integration suite of the network serving layer (`pdx-serve`):
//! remote search bit-identity against direct `AnyIndex::open` searches
//! for f32, SQ8, and mutable-collection backends; remote mutation;
//! concurrent clients; typed `busy` / `deadline-exceeded` error frames
//! under overload; malformed-frame handling with the connection
//! surviving; clean shutdown with port release — plus proptest
//! robustness laws for the wire protocol (round-trip identity, total
//! decoding of hostile bytes, capacity-bounded length fields).

use pdx::prelude::*;
use pdx::serve::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use pdx::serve::{Backend, ErrorKind, Request, Response};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn make_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * d)
        .map(|_| rng.random::<f32>() * 4.0 - 2.0)
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pdx_serve_suite");
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(name);
    std::fs::remove_dir_all(&path).ok();
    std::fs::remove_file(&path).ok();
    path
}

fn start_server(backend: Backend, config: ServeConfig) -> Server {
    Server::start(backend, ("127.0.0.1", 0), config).expect("start server")
}

/// Remote searches answer bit-identically (ids *and* f32 distance
/// bits) to a direct `AnyIndex::open` search on the same container.
fn assert_remote_matches_direct(path: &std::path::Path, queries: &[Vec<f32>], k: usize) {
    let direct = AnyIndex::open(path).expect("open direct");
    let opts = SearchOptions::new(k).with_threads(1);
    let expected: Vec<Vec<Neighbor>> = queries.iter().map(|q| direct.search(q, &opts)).collect();
    drop(direct);

    let server = start_server(
        Backend::open(path).expect("open backend"),
        ServeConfig::default(),
    );
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    for (qi, q) in queries.iter().enumerate() {
        let remote = client.search(q, k).expect("remote search");
        assert_eq!(remote.len(), expected[qi].len(), "query {qi} length");
        for (r, e) in remote.iter().zip(&expected[qi]) {
            assert_eq!(r.id, e.id, "query {qi} ids diverge");
            assert_eq!(
                r.distance.to_bits(),
                e.distance.to_bits(),
                "query {qi} distance bits diverge"
            );
        }
    }
    // The batch path answers the same thing in one frame.
    let flat: Vec<f32> = queries.iter().flatten().copied().collect();
    let dims = queries[0].len();
    let batched = client.search_batch(&flat, dims, k).expect("remote batch");
    assert_eq!(batched, expected);
    server.shutdown();
}

#[test]
fn remote_search_is_bit_identical_f32_container() {
    let (n, d, k) = (1200, 24, 10);
    let rows = make_rows(n, d, 7);
    let flat = FlatPdx::with_defaults(&rows, n, d);
    let path = temp_path("f32_container.pdx");
    pdx::datasets::persist::write_pdx_path(&path, &flat.collection).unwrap();
    let queries: Vec<Vec<f32>> = (0..12).map(|i| rows[i * d..(i + 1) * d].to_vec()).collect();
    assert_remote_matches_direct(&path, &queries, k);
}

#[test]
fn scalar_kernel_server_is_bit_identical_and_reports_the_isa() {
    // A server pinned to the scalar kernel policy answers bit-identically
    // to the default (Auto) server — the SIMD kernels reproduce the
    // scalar accumulation order — and reports `scalar` in its stats.
    let (n, d, k) = (800, 24, 10);
    let rows = make_rows(n, d, 21);
    let flat = FlatPdx::with_defaults(&rows, n, d);
    let path = temp_path("f32_container_scalar.pdx");
    pdx::datasets::persist::write_pdx_path(&path, &flat.collection).unwrap();
    let queries: Vec<Vec<f32>> = (0..8).map(|i| rows[i * d..(i + 1) * d].to_vec()).collect();

    let run = |config: ServeConfig| {
        let server = start_server(Backend::open(&path).expect("open backend"), config);
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        let results: Vec<Vec<Neighbor>> = queries
            .iter()
            .map(|q| client.search(q, k).expect("remote search"))
            .collect();
        let stats = client.stats().unwrap();
        server.shutdown();
        (results, stats)
    };

    let (auto_hits, auto_stats) = run(ServeConfig::default());
    let (scalar_hits, scalar_stats) = run(ServeConfig {
        kernel: KernelPolicy::Scalar,
        ..ServeConfig::default()
    });
    assert_eq!(scalar_stats.kernel_isa, KernelIsa::Scalar.wire_code());
    assert_eq!(
        auto_stats.kernel_isa,
        KernelPolicy::Auto.resolve().wire_code()
    );
    for (qi, (a, s)) in auto_hits.iter().zip(&scalar_hits).enumerate() {
        assert_eq!(a.len(), s.len(), "query {qi}");
        for (x, y) in a.iter().zip(s) {
            assert_eq!(x.id, y.id, "query {qi} ids diverge across policies");
            assert_eq!(
                x.distance.to_bits(),
                y.distance.to_bits(),
                "query {qi} distance bits diverge across policies"
            );
        }
    }
}

#[test]
fn remote_search_is_bit_identical_sq8_container() {
    let (n, d, k) = (1200, 24, 10);
    let rows = make_rows(n, d, 8);
    let sq8 = FlatSq8::with_defaults(&rows, n, d);
    let path = temp_path("sq8_container.pdx");
    pdx::datasets::persist::write_sq8_path(&path, &sq8.quantizer, &sq8.blocks, Some(&sq8.rows))
        .unwrap();
    let queries: Vec<Vec<f32>> = (0..12).map(|i| rows[i * d..(i + 1) * d].to_vec()).collect();
    assert_remote_matches_direct(&path, &queries, k);
}

#[test]
fn remote_search_is_bit_identical_collection() {
    let (n, d, k) = (900, 16, 10);
    let rows = make_rows(n, d, 9);
    let dir = temp_path("serve_collection");
    {
        let coll = Collection::create(
            &dir,
            d,
            StoreConfig {
                block_size: 64,
                group_size: 16,
                buffer_capacity: 100,
                quantize: false,
            },
        )
        .unwrap();
        for i in 0..n {
            coll.insert(i as u64, &rows[i * d..(i + 1) * d]).unwrap();
        }
        coll.delete(3).unwrap();
        coll.delete(500).unwrap();
        coll.sync().unwrap();
    }
    let queries: Vec<Vec<f32>> = (0..10).map(|i| rows[i * d..(i + 1) * d].to_vec()).collect();
    assert_remote_matches_direct(&dir, &queries, k);
}

#[test]
fn remote_mutations_apply_to_collections_and_stats_track_them() {
    let d = 8;
    // Small buffer so the early ids live in *sealed* segments (their
    // deletes tombstone) while fresh inserts stay buffered.
    let coll = Collection::in_memory(
        d,
        StoreConfig {
            block_size: 64,
            group_size: 16,
            buffer_capacity: 32,
            quantize: false,
        },
    );
    for i in 0..50u64 {
        coll.insert(i, &make_rows(1, d, i)).unwrap();
    }
    let server = start_server(Backend::collection(coll), ServeConfig::default());
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let stats = client.stats().unwrap();
    assert_eq!(stats.live, 50);
    assert_eq!(stats.tombstones, 0);
    assert_eq!(stats.dims, d as u64);
    // The default (Auto) config reports the machine's detected ISA.
    assert_eq!(
        stats.kernel_isa,
        pdx::prelude::KernelPolicy::Auto.resolve().wire_code()
    );

    // Insert a distinctive vector and find it remotely.
    let target = vec![99.0f32; d];
    client.insert(1000, &target).unwrap();
    let hits = client.search(&target, 1).unwrap();
    assert_eq!(hits[0].id, 1000);

    // Delete it again (a buffered row is simply removed) and delete a
    // sealed row (which must tombstone); both vanish from results.
    client.delete(1000).unwrap();
    let hits = client.search(&target, 1).unwrap();
    assert_ne!(hits[0].id, 1000);
    client.delete(5).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.live, 49);
    assert_eq!(stats.tombstones, 1);

    // Typed store errors: duplicate insert and missing delete.
    let err = client.insert(5, &target).unwrap_err();
    assert_eq!(err.server_kind(), Some(ErrorKind::Store), "{err}");
    let err = client.delete(777777).unwrap_err();
    assert_eq!(err.server_kind(), Some(ErrorKind::Store), "{err}");
    // Wrong dimensionality is a protocol-level error.
    let err = client.search(&[1.0; 3], 1).unwrap_err();
    assert_eq!(err.server_kind(), Some(ErrorKind::Protocol), "{err}");
    server.shutdown();
}

/// A query holding a NaN or an infinity is a typed `Protocol` error, not
/// a panic: the one worker survives it and answers the next query, on
/// this connection and on a new one. A collection refuses such a vector
/// as a typed `Store` error.
#[test]
fn non_finite_queries_and_vectors_get_typed_errors() {
    let (n, d) = (300, 16);
    let rows = make_rows(n, d, 21);
    let index = FlatPdx::with_defaults(&rows, n, d);
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = start_server(Backend::frozen(Box::new(index)), config);
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let finite = rows[d..2 * d].to_vec();
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        // The first dim of the first row and the last of the last.
        for (row, at) in [(0, 0), (1, d - 1)] {
            let mut query = finite.clone();
            query[at] = bad;
            let err = client.search(&query, 3).unwrap_err();
            assert_eq!(err.server_kind(), Some(ErrorKind::Protocol), "{err}");
            let mut batch = [finite.clone(), finite.clone()];
            batch[row] = query;
            let err = client.search_batch(&batch.concat(), d, 3).unwrap_err();
            assert_eq!(err.server_kind(), Some(ErrorKind::Protocol), "{err}");
            assert!(
                err.to_string()
                    .contains(&format!("row {row} holds {bad} at dim {at}")),
                "{err}"
            );
            assert_eq!(client.search(&finite, 1).unwrap()[0].id, 1);
        }
    }
    // A Search frame carries one query: two are a shape error.
    let err = client.search(&rows[..2 * d], 3).unwrap_err();
    assert_eq!(err.server_kind(), Some(ErrorKind::Protocol), "{err}");
    let mut other = ServeClient::connect(server.local_addr()).expect("connect");
    assert_eq!(other.search(&finite, 1).unwrap()[0].id, 1);
    server.shutdown();

    let coll = Collection::in_memory(d, StoreConfig::default());
    coll.insert(0, &finite).unwrap();
    let server = start_server(Backend::collection(coll), ServeConfig::default());
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let mut vector = finite.clone();
    vector[3] = f32::NAN;
    let err = client.insert(1, &vector).unwrap_err();
    assert_eq!(err.server_kind(), Some(ErrorKind::Store), "{err}");
    assert_eq!(client.search(&finite, 1).unwrap()[0].id, 0);
    assert_eq!(client.stats().unwrap().live, 1);
    server.shutdown();
}

#[test]
fn mutations_on_frozen_containers_are_typed_unsupported() {
    let (n, d) = (300, 8);
    let rows = make_rows(n, d, 10);
    let flat = FlatPdx::with_defaults(&rows, n, d);
    let coll = Collection::in_memory(d, StoreConfig::default());
    coll.bulk_insert(0, &rows).unwrap();
    coll.insert(n as u64, &rows[..d]).unwrap();
    let backends = [
        (Backend::frozen(Box::new(flat)), true),
        (Backend::collection(coll), false),
    ];
    for (backend, frozen) in backends {
        let server = start_server(backend, ServeConfig::default());
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        if frozen {
            let err = client.insert(1, &[0.0; 8]).unwrap_err();
            assert_eq!(err.server_kind(), Some(ErrorKind::Unsupported), "{err}");
            let err = client.delete(1).unwrap_err();
            assert_eq!(err.server_kind(), Some(ErrorKind::Unsupported), "{err}");
        }
        // The connection survives typed errors, and a wire-supplied
        // k = 0 reaches the index, which answers the empty list: from
        // sealed rows and buffered ones alike on the collection.
        assert!(client.search(&rows[..d], 0).unwrap().is_empty());
        let batch = client.search_batch(&rows[..2 * d], d, 0).unwrap();
        assert_eq!(batch, vec![Vec::new(); 2]);
        client.ping().unwrap();
        server.shutdown();
    }
}

/// A wire-supplied `k` of `u32::MAX` (and, on SQ8, a `refine` of
/// `u32::MAX`) answers every row, as a local search at `k = n` does,
/// through both search frames on the `f32` and SQ8 backends; and the
/// server goes on answering ordinary searches. The connection's reads
/// time out, so a server that never answers fails the test instead of
/// hanging it.
#[test]
fn k_and_refine_past_the_rows_answer_every_row() {
    let (n, d) = (300, 8);
    let rows = make_rows(n, d, 17);
    let queries = &rows[..2 * d];
    let indexes: [(Box<dyn VectorIndex>, &[u32]); 2] = [
        (Box::new(FlatPdx::with_defaults(&rows, n, d)), &[0]),
        (
            Box::new(FlatSq8::with_defaults(&rows, n, d)),
            &[0, u32::MAX],
        ),
    ];
    for (index, refines) in indexes {
        let kind = index.kind();
        let local = |k: usize| -> Vec<Vec<Neighbor>> {
            let opts = SearchOptions::new(k).with_threads(1);
            queries.chunks(d).map(|q| index.search(q, &opts)).collect()
        };
        let (every_row, top10) = (local(n), local(10));
        assert!(every_row.iter().all(|hits| hits.len() == n), "{kind}");
        let server = start_server(Backend::frozen(index), ServeConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let mut seq = 0;
        let mut ask = |k: u32, refine: u32, batch: bool| {
            seq += 1;
            let req = if batch {
                Request::SearchBatch {
                    deadline_ms: 0,
                    k,
                    nprobe: 0,
                    refine,
                    dims: d as u32,
                    queries: queries.to_vec(),
                }
            } else {
                Request::Search {
                    deadline_ms: 0,
                    k,
                    nprobe: 0,
                    refine,
                    query: queries[..d].to_vec(),
                }
            };
            write_frame(&mut stream, seq, &req.encode()).unwrap();
            let (reply, msg) = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("a reply in time");
            assert_eq!(reply, seq);
            Response::decode(&msg).expect("decodable")
        };
        for &refine in refines {
            let what = format!("{kind}, k = u32::MAX, refine = {refine}");
            let one = ask(u32::MAX, refine, false);
            assert_eq!(one, Response::Neighbors(every_row[0].clone()), "{what}");
            let batch = ask(u32::MAX, refine, true);
            assert_eq!(batch, Response::Batch(every_row.clone()), "{what}, batch");
        }
        assert_eq!(ask(10, 0, false), Response::Neighbors(top10[0].clone()));
        assert_eq!(ask(10, 0, true), Response::Batch(top10));
        server.shutdown();
    }
}

/// A `Client` argument past its `u32` wire field is a typed
/// `InvalidInput` naming the field, raised before anything is sent: a
/// cast would ask the server for `k = 0` or the default `refine`.
#[test]
fn client_arguments_past_the_wire_fields_are_typed_errors() {
    let (n, d) = (50, 4);
    let rows = make_rows(n, d, 19);
    let flat = FlatPdx::with_defaults(&rows, n, d);
    let server = start_server(Backend::frozen(Box::new(flat)), ServeConfig::default());
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let (q, past) = (&rows[..d], u32::MAX as usize + 1);
    let rejected = |err: ClientError| match err {
        ClientError::InvalidInput { field, value } => (field, value),
        other => panic!("expected InvalidInput, got {other}"),
    };
    let err = client.search_opts(q, past, 0, 0).unwrap_err();
    assert_eq!(rejected(err), ("k", past));
    let err = client.search_opts(q, 10, 0, 1 << 32).unwrap_err();
    assert_eq!(rejected(err), ("refine", 1 << 32));
    let err = client.search_opts(q, 10, past, 0).unwrap_err();
    assert_eq!(rejected(err), ("nprobe", past));
    let err = client.search_batch(q, d, past).unwrap_err();
    assert!(err.to_string().contains("invalid k = 4294967296"), "{err}");
    // Nothing reached the server: the connection answers as before.
    assert_eq!(client.search(q, 3).unwrap().len(), 3);
    server.shutdown();
}

#[test]
fn concurrent_clients_all_get_correct_results() {
    let (n, d, k, n_clients, per_client) = (1500, 16, 5, 8, 12);
    let rows = make_rows(n, d, 11);
    let flat = FlatPdx::with_defaults(&rows, n, d);
    let opts = SearchOptions::new(k).with_threads(1);
    let queries: Vec<Vec<f32>> = (0..n_clients * per_client)
        .map(|i| rows[(i * 13 % n) * d..(i * 13 % n + 1) * d].to_vec())
        .collect();
    let expected: Vec<Vec<Neighbor>> = {
        let index: &dyn VectorIndex = &flat;
        queries.iter().map(|q| index.search(q, &opts)).collect()
    };

    let server = start_server(Backend::frozen(Box::new(flat)), ServeConfig::default());
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for c in 0..n_clients {
            let (queries, expected) = (&queries, &expected);
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                for j in 0..per_client {
                    let qi = c * per_client + j;
                    let hits = client.search(&queries[qi], k).expect("search");
                    assert_eq!(hits, expected[qi], "client {c} query {j} diverges");
                }
            });
        }
    });
    server.shutdown();
}

/// A backend whose every search takes at least 2 ms: it sleeps, then
/// asks the index it wraps. The overload test's deadlines expire behind
/// it however fast the kernels scan.
struct SlowIndex(FlatPdx);

impl VectorIndex for SlowIndex {
    fn dims(&self) -> usize {
        self.0.dims()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn kind(&self) -> &'static str {
        "slow-flat-pdx"
    }
    fn search(&self, query: &[f32], opts: &SearchOptions) -> Vec<Neighbor> {
        std::thread::sleep(Duration::from_millis(2));
        self.0.search(query, opts)
    }
}

/// Floods a single pipelined connection faster than one worker can
/// drain a tiny admission queue: the overflow must come back as typed
/// `busy` frames immediately, and queued requests with a 1 ms deadline
/// must come back `deadline-exceeded` once the backlog exceeds it.
/// Every request is answered and the connection stays usable.
///
/// Each search sleeps 2 ms first ([`SlowIndex`]), so a 1 ms deadline
/// queued behind one expires whatever the kernel speed; the server
/// still reads the wall clock, so the test waits real milliseconds
/// rather than advancing an injected clock.
#[test]
fn overload_answers_typed_busy_and_deadline_frames() {
    let (n, d, k) = (6000, 64, 10);
    let rows = make_rows(n, d, 12);
    let slow = SlowIndex(FlatPdx::with_defaults(&rows, n, d));
    let config = ServeConfig {
        workers: 1,
        queue_depth: 8,
        ..ServeConfig::default()
    };
    let server = start_server(Backend::frozen(Box::new(slow)), config);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).ok();
    let query = rows[..d].to_vec();
    let flood = 400u32;
    for seq in 1..=flood {
        // The first few requests carry a generous deadline, so the head
        // of the backlog deterministically completes even on a slow or
        // loaded machine; the rest carry a 1 ms deadline that expires
        // behind the queue they pile up in.
        let deadline_ms = if seq <= 4 { 10_000 } else { 1 };
        let req = Request::Search {
            deadline_ms,
            k: k as u32,
            nprobe: 0,
            refine: 0,
            query: query.clone(),
        };
        write_frame(&mut stream, seq, &req.encode()).expect("send");
    }
    let mut tally: HashMap<&str, usize> = HashMap::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..flood {
        let (seq, msg) = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("answered");
        assert!(seen.insert(seq), "duplicate reply for seq {seq}");
        let label = match Response::decode(&msg).expect("decodable") {
            Response::Neighbors(hits) => {
                assert_eq!(hits.len(), k);
                "ok"
            }
            Response::Error { kind, .. } => match kind {
                ErrorKind::Busy => "busy",
                ErrorKind::DeadlineExceeded => "deadline",
                other => panic!("unexpected error kind {other}"),
            },
            other => panic!("unexpected response {other:?}"),
        };
        *tally.entry(label).or_default() += 1;
    }
    assert_eq!(seen.len(), flood as usize, "every request answered once");
    assert!(
        tally.get("busy").copied().unwrap_or(0) > 0,
        "a full queue must shed load with typed busy frames: {tally:?}"
    );
    assert!(
        tally.get("deadline").copied().unwrap_or(0) > 0,
        "queued requests past their deadline must be typed: {tally:?}"
    );
    assert!(
        tally.get("ok").copied().unwrap_or(0) > 0,
        "admitted requests within deadline still complete: {tally:?}"
    );

    // The connection survives the overload.
    write_frame(&mut stream, 9999, &Request::Ping.encode()).unwrap();
    let (seq, msg) = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(seq, 9999);
    assert_eq!(Response::decode(&msg).unwrap(), Response::Pong);
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let (n, d) = (200, 8);
    let rows = make_rows(n, d, 13);
    let flat = FlatPdx::with_defaults(&rows, n, d);
    let server = start_server(Backend::frozen(Box::new(flat)), ServeConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();

    // Body-level garbage (unknown tag, truncated fields): typed
    // protocol error, connection survives.
    for garbage in [
        vec![0xFFu8, 1, 2, 3],
        vec![0x02u8],             // Search tag, no fields
        vec![0x02u8, 0, 0, 0, 0], // Search tag, truncated
        Vec::new(),               // empty message
    ] {
        write_frame(&mut stream, 5, &garbage).unwrap();
        let (seq, msg) = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("typed reply");
        assert_eq!(seq, 5);
        match Response::decode(&msg).expect("decodable") {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Protocol),
            other => panic!("expected protocol error, got {other:?}"),
        }
        // Still alive:
        write_frame(&mut stream, 6, &Request::Ping.encode()).unwrap();
        let (seq, msg) = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(seq, 6);
        assert_eq!(Response::decode(&msg).unwrap(), Response::Pong);
    }

    // A hostile length header (bigger than the frame cap) cannot be
    // resynchronized: typed error, then the server closes this
    // connection — without ever allocating the claimed size.
    use std::io::Write;
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let (_, msg) = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("typed reply");
    match Response::decode(&msg).expect("decodable") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME).is_err(),
        "connection should be closed after an unresyncable frame"
    );

    // The server itself is unharmed: new connections work.
    let mut client = ServeClient::connect(server.local_addr()).expect("reconnect");
    client.ping().unwrap();
    assert!(client.stats().unwrap().protocol_errors >= 5);
    server.shutdown();
}

/// Counts live threads whose name starts with the serve prefix
/// (`pdx-job-serve-*`; `/proc` comm is truncated to 15 chars).
#[cfg(target_os = "linux")]
fn serve_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.starts_with("pdx-job-serve"))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn shutdown_is_clean_and_releases_the_port() {
    let (n, d) = (400, 8);
    let rows = make_rows(n, d, 14);
    #[cfg(target_os = "linux")]
    let threads_before = serve_thread_count();

    let flat = FlatPdx::with_defaults(&rows, n, d);
    let server = start_server(Backend::frozen(Box::new(flat)), ServeConfig::default());
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    assert_eq!(client.search(&rows[..d], 3).unwrap().len(), 3);
    server.shutdown(); // joins the accept loop, connections, workers
    drop(client);

    // The port is actually released: we can bind it again.
    let rebound = std::net::TcpListener::bind(addr);
    assert!(rebound.is_ok(), "port not released: {rebound:?}");

    // And no serve thread of ours leaked (other tests may be running
    // their own servers concurrently, so poll down to the baseline).
    #[cfg(target_os = "linux")]
    {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while serve_thread_count() > threads_before {
            assert!(
                std::time::Instant::now() < deadline,
                "leaked serve threads: {} before, {} after shutdown",
                threads_before,
                serve_thread_count()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol robustness properties (vendored proptest)
// ---------------------------------------------------------------------------

/// Finite query values: the round-trip law is about encoding, and NaN
/// payloads would break `==` without testing anything about the wire.
fn vec_f32(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1e6f32..1e6, 0..max_len)
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0usize..6,
        vec_f32(40),
        0u32..u32::MAX,
        0u64..u64::MAX,
        1usize..8,
    )
        .prop_map(|(pick, values, small, id, dims)| match pick {
            0 => Request::Ping,
            1 => Request::Search {
                deadline_ms: small,
                k: small % 100,
                nprobe: small % 17,
                refine: small % 9,
                query: values,
            },
            2 => {
                let dims = dims.min(values.len().max(1));
                let len = values.len() - values.len() % dims;
                Request::SearchBatch {
                    deadline_ms: small,
                    k: small % 100,
                    nprobe: small % 17,
                    refine: small % 9,
                    dims: dims as u32,
                    queries: values[..len].to_vec(),
                }
            }
            3 => Request::Insert {
                deadline_ms: small,
                id,
                vector: values,
            },
            4 => Request::Delete {
                deadline_ms: small,
                id,
            },
            _ => Request::Stats { deadline_ms: small },
        })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    (
        0usize..7,
        proptest::collection::vec((0u64..u64::MAX, -1e6f32..1e6), 12),
        0u64..u64::MAX,
        proptest::collection::vec(97u16..123, 0..20),
    )
        .prop_map(|(pick, pairs, v, letters)| {
            let message: String = letters.iter().map(|&b| b as u8 as char).collect();
            let hits: Vec<Neighbor> = pairs
                .iter()
                .map(|&(id, distance)| Neighbor { id, distance })
                .collect();
            match pick {
                0 => Response::Pong,
                1 => Response::Neighbors(hits),
                2 => Response::Batch(vec![hits.clone(), Vec::new(), hits]),
                3 => Response::Inserted,
                4 => Response::Deleted,
                5 => Response::Stats(StatsReport {
                    dims: v,
                    live: v.rotate_left(7),
                    tombstones: v.rotate_left(13),
                    uptime_ms: v.rotate_left(19),
                    completed: v.rotate_left(23),
                    busy_rejected: v.rotate_left(29),
                    deadline_rejected: v.rotate_left(31),
                    protocol_errors: v.rotate_left(37),
                    in_flight: v.rotate_left(41),
                    queue_depth: v.rotate_left(43),
                    queue_capacity: v.rotate_left(47),
                    qps_x1000: v.rotate_left(53),
                    p50_us: v.rotate_left(59),
                    p99_us: v.rotate_left(61),
                    p999_us: v.rotate_left(3),
                    kernel_isa: v.rotate_left(11),
                    resident_bytes: v.rotate_left(17),
                    cache_hits: v.rotate_left(21),
                    cache_misses: v.rotate_left(27),
                    cache_evictions: v.rotate_left(33),
                    open_us: v.rotate_left(39),
                }),
                _ => Response::Error {
                    kind: [
                        ErrorKind::Busy,
                        ErrorKind::DeadlineExceeded,
                        ErrorKind::Protocol,
                        ErrorKind::Store,
                        ErrorKind::Unsupported,
                    ][pick % 5],
                    message,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Round-trip law: every request decodes back to itself.
    #[test]
    fn request_round_trip(req in request_strategy()) {
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    /// Round-trip law: every response decodes back to itself.
    #[test]
    fn response_round_trip(resp in response_strategy()) {
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    /// Decoding is total: arbitrary bytes never panic, they produce
    /// a value or a typed error.
    #[test]
    fn decode_never_panics_on_random_bytes(words in proptest::collection::vec(0u16..256, 0..200)) {
        let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Truncating a valid encoding always errors (no partial parses).
    #[test]
    fn truncated_requests_error(req in request_strategy(), cut in 0usize..64) {
        let bytes = req.encode();
        let cut = cut % bytes.len().max(1);
        prop_assert!(Request::decode(&bytes[..cut]).is_err());
    }

    /// Single-bit corruption never panics, and any decode that still
    /// succeeds re-encodes canonically (no mutable aliasing of junk).
    #[test]
    fn bit_flips_never_panic(req in request_strategy(), bit in 0usize..256) {
        let mut bytes = req.encode();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) = Request::decode(&bytes) {
            prop_assert_eq!(Request::decode(&decoded.encode()).unwrap(), decoded);
        }
    }

    /// Hostile length fields are capacity-bounded: a count exceeding
    /// the bytes actually present is rejected before allocation, like
    /// `Manifest::read` does for on-disk counts.
    #[test]
    fn oversized_counts_are_rejected(count in 1024u32..u32::MAX, tag in 0u8..8) {
        // [tag | deadline | k | nprobe | refine | count] with no data.
        let mut msg = vec![tag];
        for _ in 0..4 { msg.extend_from_slice(&7u32.to_le_bytes()); }
        msg.extend_from_slice(&count.to_le_bytes());
        prop_assert!(Request::decode(&msg).is_err());
        let mut msg = vec![0x82u8]; // Neighbors response
        msg.extend_from_slice(&count.to_le_bytes());
        prop_assert!(Response::decode(&msg).is_err());
    }
}
