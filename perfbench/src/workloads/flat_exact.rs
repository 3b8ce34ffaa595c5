//! `flat_exact`: PDX-BOND exact search over a resident flat collection.
//!
//! Paper §6.5: every block is scanned, so the f32 vertical kernels and
//! PDXearch's START/WARMUP phases do nearly all the work; there is no
//! routing, no rotation, no cache, no store and no wire.

use super::{
    batch_scaling, footprint, measure, measure_traced, reduce, resident_layer, setup_layer, Corpus,
    Ctx, IndexSystem, Setups, K,
};
use crate::gen;
use crate::layers;
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::sys;
use pdx::datasets::persist::write_pdx_path;
use pdx::prelude::{AnyIndex, FlatPdx, Neighbor, OpenOptions, SearchOptions, VectorIndex};
use std::path::Path;

/// The fixture collection and its 1000 queries; the seed orders them.
fn inputs(ctx: &Ctx) -> Corpus {
    let queries = ctx.size(1_000, 200);
    Corpus::generate(
        "sift",
        ctx.size(50_000, 4_000),
        queries,
        gen::permutation(queries, ctx.seed),
    )
}

/// Build the flat deployment, persist it, and open the container the
/// way a server would.
fn setup(inp: &Corpus, path: &Path, rec: &mut Recorder) -> Box<dyn VectorIndex> {
    let ds = &inp.ds;
    let flat = rec.time("index.layout", 0, || {
        FlatPdx::with_defaults(&ds.data, ds.len, ds.dims())
    });
    rec.time("datasets.persist.write", 0, || {
        write_pdx_path(path, &flat.collection).expect("write the flat container")
    });
    drop(flat);
    rec.time("engine.open", 0, || open(path))
}

fn open(path: &Path) -> Box<dyn VectorIndex> {
    AnyIndex::open_with(path, OpenOptions::default()).expect("open the flat container")
}

fn system(inp: &Corpus, index: Box<dyn VectorIndex>) -> IndexSystem<'static> {
    IndexSystem {
        index,
        reopen: None,
        queries: inp.packed_script(),
        opts: SearchOptions::new(K),
    }
}

/// Exact search: every answer must match the brute-force oracle.
fn check_answers(inp: &Corpus, reference: &[Vec<Neighbor>], out: &mut Outcome) {
    let recall = inp.recall(reference);
    out.gate(recall == 1.0, || {
        format!("flat_exact is exact, yet recall@10 = {recall}")
    });
    out.set("recall_at_10", recall);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(ctx);
    let path = ctx.scratch.path("flat.pdx");
    let shape = ctx.shape("flat_exact");
    let mut setups = Setups::default();
    let index = setups.time(|| setup(&inp, &path, &mut Recorder::new()));
    let mut sys = system(&inp, index);
    let again = ctx.scratch.path("flat-again.pdx");
    let mut set_up_again = || drop(setups.time(|| setup(&inp, &again, &mut Recorder::new())));
    let passes = measure(&mut sys, &shape, &mut set_up_again, &mut out);
    check_answers(&inp, &passes.reference, &mut out);
    reduce(&passes, &shape, &setups, &mut out);
    footprint(&mut out, sys::disk_bytes(&path), inp.ds.len);
    out
}

pub fn trace(ctx: &Ctx, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let inp = rec.time("harness.inputs", 0, || inputs(ctx));
    let path = ctx.scratch.path("flat.pdx");
    let index = setup(&inp, &path, rec);
    resident_layer(index.as_ref(), &mut out);
    let mut sys = system(&inp, index);
    let traced = measure_traced(&mut sys, ctx.passes(3), rec, &mut out);
    check_answers(&inp, &traced.reference, &mut out);
    batch_scaling(&mut sys, 2, &traced.reference, &mut out);
    layers::kernels(&inp.ds, ctx.calib_gbps, &mut out);
    setup_layer(rec, &path, &mut out);
    layers::open_ms(|| open(&path), &mut out);
    layers::read_mibps(&path, || open(&path), &mut out);
    out
}
