//! `serve_remote`: a small frozen index behind the network server.
//!
//! The collection is small enough that the local search is under half
//! of what the client sees, so the wire — framing, the admission queue,
//! the worker hand-off and the socket — decides the numbers and the
//! kernels do little. Remote answers must equal local ones bit for bit,
//! and a closed loop must never be shed (zero Busy/Deadline frames).
//!
//! As everywhere, latency passes (one request in flight) run with the
//! process on one CPU: the chain client → connection thread → worker →
//! client is then a sequence of context switches, and client-seen
//! latency is the CPU time the request costs, which repeats within 1 to
//! 5 % (across two cores the same request took 35 µs or 150 µs depending
//! on the host's mood). Throughput passes (`nproc` requests in flight)
//! keep no core idle for long and run on every CPU: the cross-core
//! hand-off and the contention for the worker are in `batch_qps`.

use super::{
    footprint, measure, reduce, resident_layer, same_bits, search_layer, setup_layer, Corpus, Ctx,
    QuerySystem, Setups, K,
};
use crate::gen;
use crate::layers;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{low_of_passes, median};
use crate::sys;
use pdx::datasets::persist::write_pdx_path;
use pdx::obs::{trace::capture, QueryTrace};
use pdx::prelude::{
    AnyIndex, Backend, FlatPdx, Neighbor, OpenOptions, SearchOptions, ServeClient, ServeConfig,
    Server, VectorIndex,
};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// The fixture collection and its 1000 queries; the seed orders them.
fn inputs(ctx: &Ctx) -> Corpus {
    let queries = ctx.size(1_000, 200);
    Corpus::generate(
        "sift",
        ctx.size(1_000, 500),
        queries,
        gen::permutation(queries, ctx.seed),
    )
}

fn open(path: &Path) -> Box<dyn VectorIndex> {
    AnyIndex::open_with(path, OpenOptions::default()).expect("open the flat container")
}

/// Build and persist the container, open it as the server's backend,
/// and start the server on an ephemeral loopback port with
/// `max(1, nproc - 1)` workers (the client needs a core too).
fn setup(inp: &Corpus, path: &Path, rec: &mut Recorder) -> Server {
    let ds = &inp.ds;
    let flat = rec.time("index.layout", 0, || {
        FlatPdx::with_defaults(&ds.data, ds.len, ds.dims())
    });
    rec.time("datasets.persist.write", 0, || {
        write_pdx_path(path, &flat.collection).expect("write the flat container")
    });
    drop(flat);
    let backend = rec.time("engine.open", 0, || Backend::frozen(open(path)));
    let config = ServeConfig {
        workers: sys::nproc().saturating_sub(1).max(1),
        ..ServeConfig::default()
    };
    rec.time("serve.start", 0, || {
        Server::start(backend, "127.0.0.1:0", config).expect("start the server")
    })
}

/// `nproc` persistent connections to the server: the first carries the
/// latency passes, all of them share a throughput pass.
struct RemoteSystem<'a> {
    corpus: &'a Corpus,
    clients: Vec<ServeClient>,
}

impl<'a> RemoteSystem<'a> {
    fn connect(corpus: &'a Corpus, addr: SocketAddr) -> Self {
        let clients = (0..sys::nproc())
            .map(|_| ServeClient::connect(addr).expect("connect to the server"))
            .collect();
        RemoteSystem { corpus, clients }
    }
}

/// An error reply is an empty answer: it can never match the reference.
fn remote_search(client: &mut ServeClient, query: &[f32]) -> Vec<Neighbor> {
    client.search(query, K).unwrap_or_default()
}

impl QuerySystem for RemoteSystem<'_> {
    fn positions(&self) -> usize {
        self.corpus.script.len()
    }

    fn script_hash(&self) -> u64 {
        gen::script_hash(self.corpus.script.iter().map(|&q| q as u64))
    }

    fn search(&mut self, pos: usize, _traced: bool) -> Vec<Neighbor> {
        remote_search(&mut self.clients[0], self.corpus.query_at(pos))
    }

    /// `threads` connections, each sending a contiguous share of the
    /// chunk and waiting for every reply.
    fn search_chunk(&mut self, chunk: Range<usize>, threads: usize) -> Vec<Vec<Neighbor>> {
        let corpus = self.corpus;
        let share = chunk.len().div_ceil(threads);
        let mut all = Vec::with_capacity(chunk.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .take(threads)
                .enumerate()
                .map(|(c, client)| {
                    let from = chunk.start + c * share;
                    let to = (from + share).min(chunk.end);
                    scope.spawn(move || {
                        (from..to)
                            .map(|pos| remote_search(client, corpus.query_at(pos)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                all.extend(h.join().expect("client thread panicked"));
            }
        });
        all
    }
}

/// Remote answers must be the local index's, bit for bit, and nothing
/// may have been shed.
fn check_answers(
    inp: &Corpus,
    local: &dyn VectorIndex,
    server: &Server,
    reference: &[Vec<Neighbor>],
    out: &mut Outcome,
) {
    let opts = SearchOptions::new(K);
    let differing = reference
        .iter()
        .enumerate()
        .filter(|(pos, remote)| !same_bits(remote, &local.search(inp.query_at(*pos), &opts)))
        .count();
    out.attempted += reference.len() as u64;
    out.failed += differing as u64;
    let stats = server.stats();
    out.failed += stats.busy_rejected + stats.deadline_rejected;
    out.set("serve.busy_rejected", stats.busy_rejected as f64);
    out.set("serve.deadline_rejected", stats.deadline_rejected as f64);
    let recall = inp.recall(reference);
    out.gate(recall == 1.0, || {
        format!("the served index is exact, yet recall@10 = {recall}")
    });
    out.set("recall_at_10", recall);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(ctx);
    let path = ctx.scratch.path("served.pdx");
    let shape = ctx.shape("serve_remote");
    let mut setups = Setups::default();
    let server = setups.time(|| setup(&inp, &path, &mut Recorder::new()));
    let mut sys = RemoteSystem::connect(&inp, server.local_addr());
    let again = ctx.scratch.path("served-again.pdx");
    let mut set_up_again = || {
        setups
            .time(|| setup(&inp, &again, &mut Recorder::new()))
            .shutdown()
    };
    let passes = measure(&mut sys, &shape, &mut set_up_again, &mut out);
    check_answers(
        &inp,
        open(&path).as_ref(),
        &server,
        &passes.reference,
        &mut out,
    );
    drop(sys);
    server.shutdown();
    reduce(&passes, &shape, &setups, &mut out);
    footprint(&mut out, sys::disk_bytes(&path), inp.ds.len);
    out
}

pub fn trace(ctx: &Ctx, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let inp = rec.time("harness.inputs", 0, || inputs(ctx));
    let path = ctx.scratch.path("served.pdx");
    let server = setup(&inp, &path, rec);
    let local = open(&path);
    let positions = inp.script.len();
    let mut sys = RemoteSystem::connect(&inp, server.local_addr());
    sys::run_on_one_cpu(true);
    let reference: Vec<Vec<Neighbor>> = (0..positions).map(|q| sys.search(q, false)).collect();
    out.attempted += reference.len() as u64;

    // Every op: the client call beside the local call of the same
    // query; the local call alternates between untraced and traced.
    let passes = 2 * ctx.passes(4);
    let (mut remote_us, mut local_us, mut traced_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut traces: Vec<QueryTrace> = Vec::new();
    for pass in 0..passes {
        let traced = pass % 2 == 0;
        let record = pass == 0;
        let opts = SearchOptions::new(K).with_trace(traced);
        let span = rec.enter("pass.remote_beside_local", pass as u64);
        let (mut remote, mut beside) = (Vec::new(), Vec::new());
        for (q, expected) in reference.iter().enumerate() {
            let op = record.then(|| rec.enter("op", q as u64));
            let t0 = Instant::now();
            let hits = sys.search(q, false);
            let ns = t0.elapsed().as_nanos() as u64;
            remote.push(ns as f64 / 1e3);
            out.attempted += 1;
            out.failed += u64::from(!same_bits(&hits, expected));
            if record {
                rec.push_ended("serve.client_search", q as u64, ns, None);
            }
            let t0 = Instant::now();
            let (hits, trace) = capture(|| local.search(inp.query_at(q), &opts));
            let ns = t0.elapsed().as_nanos() as u64;
            beside.push(ns as f64 / 1e3);
            out.failed += u64::from(!same_bits(&hits, expected));
            if record {
                rec.push_ended("serve.local_search", q as u64, ns, Some(trace));
                traces.push(trace);
            }
            if let Some(op) = op {
                rec.exit(op);
            }
        }
        rec.exit(span);
        remote_us.push(remote);
        if traced {
            &mut traced_us
        } else {
            &mut local_us
        }
        .push(beside);
    }
    let client_p50 = median(&low_of_passes(&remote_us));
    let local_p50 = median(&low_of_passes(&local_us));
    let traced_p50 = median(&low_of_passes(&traced_us));
    out.set(
        "obs.trace_overhead_pct",
        (traced_p50 / local_p50 - 1.0) * 100.0,
    );
    search_layer(&traces, traced_p50, &mut out);

    // Ping is answered inline by the connection thread: socket and
    // framing, no queue and no worker.
    let pings: Vec<f64> = (0..positions)
        .map(|_| {
            let t0 = Instant::now();
            let ok = sys.clients[0].ping().is_ok();
            out.failed += u64::from(!ok);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.attempted += pings.len() as u64;
    let ping_p50 = median(&pings);
    // The server's own p50 comes from a log-scale histogram: an
    // estimate with up to 12.5 % relative error.
    let server_p50 = sys.clients[0].stats().map_or(0.0, |s| s.p50_us as f64);
    out.set("serve.local_search_us", local_p50);
    out.set("serve.ping_rtt_us", ping_p50);
    out.set("serve.server_side_us", server_p50);
    out.set("serve.wire_overhead_us", client_p50 - local_p50);
    out.set("serve.unexplained_us", client_p50 - server_p50 - ping_p50);
    out.note(format!(
        "traced run: {} positions x {passes} passes; client-seen p50 {client_p50:.1} us = local {local_p50:.1} + wire {:.1}; share of client-seen latency: serve {:.1} %, local search {:.1} %",
        positions,
        client_p50 - local_p50,
        100.0 * (client_p50 - local_p50) / client_p50,
        100.0 * local_p50 / client_p50,
    ));

    sys::run_on_one_cpu(false);
    check_answers(&inp, local.as_ref(), &server, &reference, &mut out);
    resident_layer(local.as_ref(), &mut out);
    drop(sys);
    server.shutdown();
    layers::kernels(&inp.ds, ctx.calib_gbps, &mut out);
    setup_layer(rec, &path, &mut out);
    layers::open_ms(|| open(&path), &mut out);
    layers::read_mibps(&path, || open(&path), &mut out);
    out
}
