//! `ivf_ads_hd`: IVF + ADSampling on a high-dimensional collection.
//!
//! The paper's headline case: the pruner discards most vectors after a
//! few dimensions, so the query rotation, the bound evaluation, the
//! centroid routing and the PRUNE-phase positional kernels do the work
//! while the full-scan kernel does little. Recall is below 1 by design,
//! which makes a speed-for-recall trade visible.

use super::{
    batch_scaling, footprint, measure, measure_traced, reduce, resident_layer, setup_layer, Corpus,
    Ctx, IndexSystem, Setups, FIXTURE_SEED, K,
};
use crate::gen;
use crate::layers;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::median;
use crate::sys;
use pdx::datasets::persist::write_ivf_pdx_path;
use pdx::prelude::{
    AdSampling, IvfIndex, IvfPdx, Neighbor, PrunedIvf, SearchOptions, DEFAULT_GROUP_SIZE,
};
use std::path::Path;
use std::time::Instant;

const KMEANS_ITERS: usize = 5;
/// Buckets probed per query: fixed here, never tuned at run time.
const NPROBE: usize = 2;
/// Recall@10 the fixed `NPROBE` must land in, on any seed (measured:
/// 0.976 to 0.988 over twenty seeds); the tiny `--quick` collection
/// scatters more (0.93 to 0.98), so its band is wider.
const RECALL_BAND: (f64, f64) = (0.93, 0.995);
const QUICK_RECALL_BAND: (f64, f64) = (0.85, 0.995);

struct Inputs {
    corpus: Corpus,
    nlist: usize,
    recall_band: (f64, f64),
}

fn inputs(ctx: &Ctx) -> Inputs {
    let queries = ctx.size(1_000, 100);
    Inputs {
        corpus: Corpus::generate(
            "gist",
            ctx.size(10_000, 1_500),
            queries,
            gen::permutation(queries, ctx.seed),
        ),
        nlist: ctx.size(200, 100),
        recall_band: if ctx.quick {
            QUICK_RECALL_BAND
        } else {
            RECALL_BAND
        },
    }
}

/// Cluster, fit the rotation and rotate the collection, lay the buckets
/// out in PDX, and persist them. The adapter that pairs the buckets
/// with the fitted pruner has no container of its own, so the served
/// index is the in-memory one and the file only feeds the disk metric.
fn setup(inp: &Inputs, path: &Path, rec: &mut Recorder) -> PrunedIvf<AdSampling> {
    let (ds, d) = (&inp.corpus.ds, inp.corpus.ds.dims());
    let ivf = rec.time("index.kmeans", 0, || {
        IvfIndex::build(&ds.data, ds.len, d, inp.nlist, KMEANS_ITERS, FIXTURE_SEED)
    });
    let (ads, rotated) = rec.time("pruners.ads_fit", 0, || {
        let ads = AdSampling::fit(d, FIXTURE_SEED ^ 0xAD5);
        let rotated = ads.transform_collection(&ds.data, ds.len, sys::nproc());
        (ads, rotated)
    });
    let buckets = rec.time("index.layout", 0, || {
        IvfPdx::new(&rotated, d, &ivf.assignments, DEFAULT_GROUP_SIZE)
    });
    rec.time("datasets.persist.write", 0, || {
        let centroids = buckets.centroids.pdx.to_rows();
        write_ivf_pdx_path(path, d, &centroids, &buckets.blocks).expect("write the IVF container")
    });
    PrunedIvf::new(buckets, ads)
}

fn system(inp: &Inputs, index: PrunedIvf<AdSampling>) -> IndexSystem<'static> {
    IndexSystem {
        index: Box::new(index),
        reopen: None,
        queries: inp.corpus.packed_script(),
        opts: SearchOptions::new(K).with_nprobe(NPROBE),
    }
}

fn check_answers(inp: &Inputs, reference: &[Vec<Neighbor>], out: &mut Outcome) {
    let recall = inp.corpus.recall(reference);
    let (low, high) = inp.recall_band;
    out.gate(recall >= low && recall <= high, || {
        format!("recall@10 = {recall} left the band [{low}, {high}] at nprobe {NPROBE}")
    });
    out.set("recall_at_10", recall);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(ctx);
    let path = ctx.scratch.path("ivf_ads.pdx");
    let shape = ctx.shape("ivf_ads_hd");
    let mut setups = Setups::default();
    let index = setups.time(|| setup(&inp, &path, &mut Recorder::new()));
    let mut sys = system(&inp, index);
    let again = ctx.scratch.path("ivf_ads-again.pdx");
    let mut set_up_again = || drop(setups.time(|| setup(&inp, &again, &mut Recorder::new())));
    let passes = measure(&mut sys, &shape, &mut set_up_again, &mut out);
    check_answers(&inp, &passes.reference, &mut out);
    reduce(&passes, &shape, &setups, &mut out);
    footprint(&mut out, sys::disk_bytes(&path), inp.corpus.ds.len);
    out
}

pub fn trace(ctx: &Ctx, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let inp = rec.time("harness.inputs", 0, || inputs(ctx));
    let path = ctx.scratch.path("ivf_ads.pdx");
    let index = setup(&inp, &path, rec);
    // The rotation every query pays before it can be routed: best of
    // three per query, as the passes take each position's best.
    let rotate_us: Vec<f64> = (0..inp.corpus.ds.n_queries.min(200))
        .map(|q| {
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(index.pruner.transform_vector(inp.corpus.ds.query(q)));
                    t0.elapsed().as_secs_f64() * 1e6
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    out.set("pruners.ads_prepare_query_us", median(&rotate_us));
    out.note(format!(
        "the adapter publishes no QueryTrace at this commit, so the phases read 0 and the query is unattributed; timed from outside, the query rotation alone is {:.1} us",
        median(&rotate_us)
    ));
    let mut sys = system(&inp, index);
    resident_layer(sys.index.as_ref(), &mut out);
    let traced = measure_traced(&mut sys, ctx.passes(3), rec, &mut out);
    check_answers(&inp, &traced.reference, &mut out);
    batch_scaling(&mut sys, 2, &traced.reference, &mut out);
    layers::kernels(&inp.corpus.ds, ctx.calib_gbps, &mut out);
    setup_layer(rec, &path, &mut out);
    out
}
