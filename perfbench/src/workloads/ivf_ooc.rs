//! `ivf_ooc`: out-of-core IVF behind a block cache a quarter the size
//! of the file, under a skewed (Zipf) query stream.
//!
//! The working set is larger than the program's own cache, so the
//! cache, the bucket decode and the lazy index decide the tail; the
//! resident workloads bypass all three. Every pass re-opens the index
//! (header only) and replays the identical stream from a cold cache.
//! Answers must equal the resident open of the same file bit for bit.

use super::{
    batch_scaling, cache_layer, footprint, measure, measure_traced, reduce, resident_layer,
    same_bits, setup_layer, Corpus, Ctx, IndexSystem, Setups, FIXTURE_SEED, K,
};
use crate::gen;
use crate::layers;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::median;
use crate::sys;
use pdx::datasets::persist::write_ivf_pdx_path;
use pdx::prelude::{
    AnyIndex, CacheStats, IvfIndex, IvfPdx, LazyIvf, Neighbor, OpenOptions, SearchOptions,
    VectorIndex, DEFAULT_GROUP_SIZE,
};
use std::path::Path;
use std::time::Instant;

const KMEANS_ITERS: usize = 5;
/// A query's working set (`NPROBE` of 256 buckets) must be a small part
/// of the cache, or the replay thrashes and nothing repeats.
const NPROBE: usize = 4;
const ZIPF_S: f64 = 1.5;
struct Inputs {
    /// The collection and the population of distinct queries.
    corpus: Corpus,
    nlist: usize,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let distinct = ctx.size(500, 100);
    // The seed draws the traffic: which of the population's queries are
    // asked when, rank 0 (query 0) being the hottest.
    let stream = gen::zipf_stream(distinct, ctx.size(2_400, 300), ZIPF_S, ctx.seed);
    Inputs {
        corpus: Corpus::generate("sift", ctx.size(65_536, 8_192), distinct, stream),
        nlist: ctx.size(256, 64),
    }
}

/// The cache budget: a quarter of the container.
fn budget(path: &Path) -> u64 {
    sys::disk_bytes(path) / 4
}

fn open_lazy(path: &Path) -> Box<dyn VectorIndex> {
    let opts = OpenOptions::default().with_cache_bytes(budget(path));
    AnyIndex::open_with(path, opts).expect("open the IVF container lazily")
}

fn open_resident(path: &Path) -> Box<dyn VectorIndex> {
    AnyIndex::open_with(path, OpenOptions::default()).expect("open the IVF container")
}

/// Cluster, lay out, persist, and open the container lazily.
fn setup(inp: &Inputs, path: &Path, rec: &mut Recorder) -> Box<dyn VectorIndex> {
    let (ds, d) = (&inp.corpus.ds, inp.corpus.ds.dims());
    let ivf = rec.time("index.kmeans", 0, || {
        IvfIndex::build(&ds.data, ds.len, d, inp.nlist, KMEANS_ITERS, FIXTURE_SEED)
    });
    let buckets = rec.time("index.layout", 0, || {
        IvfPdx::new(&ds.data, d, &ivf.assignments, DEFAULT_GROUP_SIZE)
    });
    rec.time("datasets.persist.write", 0, || {
        let centroids = buckets.centroids.pdx.to_rows();
        write_ivf_pdx_path(path, d, &centroids, &buckets.blocks).expect("write the IVF container")
    });
    drop((ivf, buckets));
    rec.time("engine.open", 0, || open_lazy(path))
}

fn system<'a>(inp: &Inputs, index: Box<dyn VectorIndex>, path: &'a Path) -> IndexSystem<'a> {
    IndexSystem {
        index,
        reopen: Some(Box::new(move || open_lazy(path))),
        queries: inp.corpus.packed_script(),
        opts: SearchOptions::new(K).with_nprobe(NPROBE),
    }
}

/// The lazy answers must be the resident answers, bit for bit, and the
/// lazy open must really be lazy.
fn check_answers(
    inp: &Inputs,
    sys: &IndexSystem,
    path: &Path,
    reference: &[Vec<Neighbor>],
    out: &mut Outcome,
) {
    out.gate(sys.index.kind() == "ivf-pdx-lazy", || {
        format!("a cache budget opened a '{}' index", sys.index.kind())
    });
    let resident = open_resident(path);
    out.gate(resident.cache_stats().is_none(), || {
        "the resident open reports a block cache".to_string()
    });
    let d = resident.dims();
    let mut resident_us = Vec::with_capacity(reference.len());
    for (pos, lazy) in reference.iter().enumerate() {
        let q = &sys.queries[pos * d..(pos + 1) * d];
        let t0 = Instant::now();
        let hits = resident.search(q, &sys.opts);
        resident_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        out.failed += u64::from(!same_bits(lazy, &hits));
    }
    out.note(format!(
        "the same script on the resident open of the same file: p50 {:.1} us (one pass) — the rest of this workload's query_p50_us is the cache and the lazy index",
        median(&resident_us)
    ));
    out.set("recall_at_10", inp.corpus.recall(reference));
}

/// Every latency pass replays the same stream from a cold cache on one
/// CPU, where the library loads misses inline: hits, misses and
/// evictions must be the same in every pass.
fn check_cache_repeats(cache: &[CacheStats], out: &mut Outcome) {
    let counts = |c: &CacheStats| (c.hits, c.misses, c.evictions);
    out.gate(
        cache.windows(2).all(|w| counts(&w[0]) == counts(&w[1])) && !cache.is_empty(),
        || {
            format!(
                "cache counts differ between passes: {:?}",
                cache.iter().map(counts).collect::<Vec<_>>()
            )
        },
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(ctx);
    let path = ctx.scratch.path("ivf.pdx");
    let shape = ctx.shape("ivf_ooc");
    let mut setups = Setups::default();
    let index = setups.time(|| setup(&inp, &path, &mut Recorder::new()));
    let mut sys = system(&inp, index, &path);
    let again = ctx.scratch.path("ivf-again.pdx");
    let mut set_up_again = || drop(setups.time(|| setup(&inp, &again, &mut Recorder::new())));
    let passes = measure(&mut sys, &shape, &mut set_up_again, &mut out);
    check_answers(&inp, &sys, &path, &passes.reference, &mut out);
    check_cache_repeats(&passes.cache, &mut out);
    reduce(&passes, &shape, &setups, &mut out);
    footprint(&mut out, sys::disk_bytes(&path), inp.corpus.ds.len);
    out
}

/// `index.lazy_fetch_{miss,hit}_us`: every bucket fetched once cold,
/// then once more while it is still resident.
fn fetch_layer(path: &Path, out: &mut Outcome) {
    let lazy = LazyIvf::open(path, budget(path)).expect("open the IVF container lazily");
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for bucket in 0..lazy.n_buckets() as u32 {
        for times in [&mut miss, &mut hit] {
            let t0 = Instant::now();
            std::hint::black_box(lazy.fetch(bucket));
            times.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.set("index.lazy_fetch_miss_us", median(&miss));
    out.set("index.lazy_fetch_hit_us", median(&hit));
}

pub fn trace(ctx: &Ctx, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let inp = rec.time("harness.inputs", 0, || inputs(ctx));
    let path = ctx.scratch.path("ivf.pdx");
    let index = setup(&inp, &path, rec);
    let mut sys = system(&inp, index, &path);
    let traced = measure_traced(&mut sys, ctx.passes(3), rec, &mut out);
    check_answers(&inp, &sys, &path, &traced.reference, &mut out);
    check_cache_repeats(&traced.cache, &mut out);
    cache_layer(&traced.cache, &mut out);
    resident_layer(sys.index.as_ref(), &mut out);
    batch_scaling(&mut sys, 2, &traced.reference, &mut out);
    fetch_layer(&path, &mut out);
    layers::kernels(&inp.corpus.ds, ctx.calib_gbps, &mut out);
    setup_layer(rec, &path, &mut out);
    // The per-pass open is header-only; the resident open decodes all.
    layers::open_ms(|| open_lazy(&path), &mut out);
    layers::read_mibps(&path, || open_resident(&path), &mut out);
    out
}
