//! The five workloads and what they share: the run shape, the closed
//! loop that replays a query script in latency and throughput passes,
//! and the reduction of those passes to the end-to-end metrics.

pub mod flat_exact;
pub mod ivf_ads_hd;
pub mod ivf_ooc;
pub mod serve_remote;
pub mod store_churn;

use crate::gen::{self, Truth};
use crate::refclock::{self, clock, factor, NOMINAL_US};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{low_of_passes, median, quantile, rate_of_low_chunks, LOW};
use crate::sys::{self, Scratch};
use pdx::obs::{trace::capture, QueryTrace};
use pdx::prelude::{CacheStats, Dataset, Neighbor, SearchOptions, VectorIndex};
use std::ops::Range;
use std::time::Instant;

pub const K: usize = 10;

/// Every collection, its clustering and its query population are
/// fixtures generated from this constant; `--seed` draws the traffic over
/// them (the order of the script, the Zipf stream, the order of the
/// writes). Regenerating the collection per seed changed nothing a later
/// change could be judged on and moved `query_p99_us` by up to 15 % and
/// `recall_at_10` by 0.5 % from seed to seed.
pub const FIXTURE_SEED: u64 = 0x0C0F_FEE5;

/// Script positions per timed call of a throughput pass.
pub const CHUNK: usize = 100;

/// Script positions between two ticks of the reference clock in a
/// latency pass.
pub const TICK_EVERY: usize = 5;

/// Consecutive positions of a latency pass that share one reading of the
/// reference clock, the median of the block's ticks.
pub const TICK_BLOCK: usize = 25;

/// Ticks read on either side of a timed call that has none inside it: a
/// throughput chunk, a store phase.
pub const EDGE_TICKS: usize = 3;

/// How often a full-size `run` repeats its work.
pub struct Shape {
    pub name: &'static str,
    /// Latency passes (`store_churn`: cycles, which serve as both kinds).
    pub latency: usize,
    pub throughput: usize,
    /// Callers of a throughput pass: `nproc`, or 1 where `nproc`
    /// callers could not be measured steadily (`ivf_ooc`).
    pub callers: usize,
    /// Set-ups `setup_s` is the lower quartile of.
    pub setups: usize,
}

/// Work is fixed, not timed: these counts are constants, because the
/// rank of a per-position lower quartile depends on how many passes it is
/// taken over. They are sized so that the passes of a run take about the
/// `run_seconds` of `BENCHMARK.json` on the machine that recorded `AA.md`.
pub fn shapes() -> [Shape; 5] {
    let nproc = sys::nproc();
    [
        Shape {
            name: "flat_exact",
            latency: 14,
            throughput: 14,
            callers: nproc,
            setups: 13,
        },
        Shape {
            name: "ivf_ads_hd",
            latency: 12,
            throughput: 12,
            callers: nproc,
            // The rotation fit takes seconds at d = 960: no more fit a run.
            setups: 2,
        },
        Shape {
            name: "ivf_ooc",
            latency: 24,
            throughput: 24,
            // With two callers the library's prefetch workers are spawned
            // and woken across cores for every query that misses twice,
            // which costs 35 to 150 us a hand-off depending on the host:
            // throughput then differed by 15 % between runs of one binary.
            // `core.exec.batch_scaling` of the traced run keeps the ratio.
            callers: 1,
            setups: 5,
        },
        Shape {
            name: "store_churn",
            latency: 10,
            throughput: 10,
            callers: 1,
            // One before the cycles and one after each.
            setups: 11,
        },
        Shape {
            name: "serve_remote",
            latency: 80,
            throughput: 80,
            callers: nproc,
            setups: 161,
        },
    ]
}

/// What the command line fixes for one process.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Tiny inputs and two passes: exercises every gate, measures nothing.
    pub quick: bool,
    /// Streaming-read calibration taken before a traced run (0 in `run`).
    pub calib_gbps: f64,
    pub scratch: &'a Scratch,
}

impl Ctx<'_> {
    /// Two passes under `--quick`, else `full`.
    pub fn passes(&self, full: usize) -> usize {
        self.size(full, 2)
    }

    /// The workload's repeat counts (two of each under `--quick`).
    pub fn shape(&self, name: &str) -> Shape {
        let full = shapes()
            .into_iter()
            .find(|s| s.name == name)
            .expect("every workload has a shape");
        Shape {
            latency: self.passes(full.latency),
            throughput: self.passes(full.throughput),
            setups: self.size(full.setups, full.setups.min(2)),
            ..full
        }
    }

    /// Full-size or `--quick` value.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "flat_exact" => flat_exact::run(ctx),
        "ivf_ads_hd" => ivf_ads_hd::run(ctx),
        "ivf_ooc" => ivf_ooc::run(ctx),
        "store_churn" => store_churn::run(ctx),
        "serve_remote" => serve_remote::run(ctx),
        other => unreachable!("workload {other} was validated at the command line"),
    }
}

pub fn trace(name: &str, ctx: &Ctx, rec: &mut Recorder) -> Outcome {
    match name {
        "flat_exact" => flat_exact::trace(ctx, rec),
        "ivf_ads_hd" => ivf_ads_hd::trace(ctx, rec),
        "ivf_ooc" => ivf_ooc::trace(ctx, rec),
        "store_churn" => store_churn::trace(ctx, rec),
        "serve_remote" => serve_remote::trace(ctx, rec),
        other => unreachable!("workload {other} was validated at the command line"),
    }
}

/// The times of a run's set-ups. The first builds the system the run
/// measures; the others build it again beside the live one, spread
/// evenly between the passes, because this VM runs everything up to 1.5
/// times slower for a tenth of a second to minutes at a time and set-ups
/// timed back to back can all fall into one slow spell. `setup_s` is
/// their lower quartile — the per-position estimator, applied to set-up.
#[derive(Default)]
pub struct Setups {
    /// Seconds in undisturbed time (see [`crate::refclock`]): the clock
    /// ticks beside every set-up, on a thread of its own.
    secs: Vec<f64>,
    wall_secs: Vec<f64>,
}

impl Setups {
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let ((built, wall), tick_us) = refclock::beside(|| {
            let t0 = Instant::now();
            let built = setup();
            (built, t0.elapsed().as_secs_f64())
        });
        self.wall_secs.push(wall);
        self.secs.push(wall * factor(tick_us));
        built
    }

    pub fn count(&self) -> usize {
        self.secs.len()
    }

    /// The lower quartile of the set-ups, undisturbed seconds.
    pub fn low(&self) -> f64 {
        quantile(&self.secs, LOW)
    }

    /// The same as the wall clock read them.
    pub fn low_wall(&self) -> f64 {
        quantile(&self.wall_secs, LOW)
    }

    /// Every set-up in order: wall-clock seconds / its factor.
    pub fn listing(&self) -> String {
        let each: Vec<String> = self
            .wall_secs
            .iter()
            .zip(&self.secs)
            .map(|(wall, s)| format!("{wall:.4}/{:.3}", s / wall))
            .collect();
        each.join(" ")
    }
}

/// A system that answers a fixed script of queries, one caller at a
/// time (`search`) or `threads` callers at once (`search_chunk`).
pub trait QuerySystem {
    fn positions(&self) -> usize;
    /// Identity of the script: a hash over its queries, in order.
    fn script_hash(&self) -> u64;
    /// Called before every pass (`ivf_ooc` re-opens from a cold cache).
    fn begin_pass(&mut self) {}
    fn search(&mut self, pos: usize, traced: bool) -> Vec<Neighbor>;
    /// The positions of `chunk`, shared among `threads` callers.
    fn search_chunk(&mut self, chunk: Range<usize>, threads: usize) -> Vec<Vec<Neighbor>>;
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

/// A `VectorIndex` behind the query-script surface.
pub struct IndexSystem<'a> {
    pub index: Box<dyn VectorIndex>,
    /// Re-opens the index before each pass, when set.
    pub reopen: Option<Box<dyn Fn() -> Box<dyn VectorIndex> + 'a>>,
    /// The script's queries, packed in position order.
    pub queries: Vec<f32>,
    pub opts: SearchOptions,
}

impl QuerySystem for IndexSystem<'_> {
    fn positions(&self) -> usize {
        self.queries.len() / self.index.dims()
    }

    fn script_hash(&self) -> u64 {
        gen::script_hash(self.queries.iter().map(|v| v.to_bits() as u64))
    }

    fn begin_pass(&mut self) {
        if let Some(reopen) = &self.reopen {
            self.index = reopen();
        }
    }

    fn search(&mut self, pos: usize, traced: bool) -> Vec<Neighbor> {
        let d = self.index.dims();
        self.index.search(
            &self.queries[pos * d..(pos + 1) * d],
            &self.opts.with_trace(traced),
        )
    }

    fn search_chunk(&mut self, chunk: Range<usize>, threads: usize) -> Vec<Vec<Neighbor>> {
        let d = self.index.dims();
        self.index.search_batch(
            &self.queries[chunk.start * d..chunk.end * d],
            &self.opts.with_threads(threads),
        )
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.index.cache_stats()
    }
}

/// Same ids and the same distance bits, in the same order.
pub fn same_bits(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits())
}

/// A fixture collection whose row numbers are its ids, its population
/// of queries, the script over them, and the oracle's exact answer to
/// each query.
pub struct Corpus {
    pub ds: Dataset,
    /// `script[pos]`: the query issued at script position `pos`.
    pub script: Vec<usize>,
    /// Indexed by query, not by position.
    pub truth: Vec<Truth>,
}

impl Corpus {
    /// `name` is a Table 1 collection (`"sift"` d = 128, `"gist"` d = 960)
    /// generated from [`FIXTURE_SEED`]; `script` indexes its queries.
    pub fn generate(name: &str, n: usize, n_queries: usize, script: Vec<usize>) -> Self {
        let ds = gen::dataset(name, n, n_queries, FIXTURE_SEED);
        let ids: Vec<u64> = (0..n as u64).collect();
        let queries: Vec<&[f32]> = (0..n_queries).map(|q| ds.query(q)).collect();
        let truth = gen::exact_topk(&ds.data, &ids, ds.dims(), &queries, K, sys::nproc());
        Corpus { ds, script, truth }
    }

    /// The query at a script position.
    pub fn query_at(&self, pos: usize) -> &[f32] {
        self.ds.query(self.script[pos])
    }

    /// The script's queries, packed in position order.
    pub fn packed_script(&self) -> Vec<f32> {
        (0..self.script.len())
            .flat_map(|pos| self.query_at(pos).iter().copied())
            .collect()
    }

    /// Mean tie-tolerant recall@k of the answers to the script.
    pub fn recall(&self, results: &[Vec<Neighbor>]) -> f64 {
        let d = self.ds.dims();
        let total: f64 = results
            .iter()
            .zip(&self.script)
            .map(|(hits, &q)| {
                gen::recall(
                    &self.truth[q],
                    self.ds.query(q),
                    hits.iter().map(|n| n.id),
                    |id| self.ds.data.get(id as usize * d..(id as usize + 1) * d),
                )
            })
            .sum();
        total / results.len().max(1) as f64
    }
}

/// `index.resident_bytes_per_vector` of the index a workload serves.
pub fn resident_layer(index: &dyn VectorIndex, out: &mut Outcome) {
    out.set(
        "index.resident_bytes_per_vector",
        index.resident_bytes() as f64 / index.len().max(1) as f64,
    );
}

/// Timings of the passes over one query script.
#[derive(Default)]
pub struct Passes {
    /// `lat[p]`: the latency of every position in latency pass `p`,
    /// microseconds.
    pub lat: Vec<Timed>,
    /// `chunks[p]`: what every chunk took in throughput pass `p`, seconds.
    pub chunks: Vec<Timed>,
    /// Cache counters at the end of each latency pass, where there is
    /// a cache.
    pub cache: Vec<CacheStats>,
    /// The warm-up pass's answers: what every later pass must repeat.
    pub reference: Vec<Vec<Neighbor>>,
}

/// The timings of one pass.
#[derive(Default)]
pub struct Timed {
    /// As the wall clock read them.
    pub wall: Vec<f64>,
    /// In undisturbed time (see [`crate::refclock`]): each multiplied by
    /// `NOMINAL_US /` the reading of the reference clock beside it.
    pub undisturbed: Vec<f64>,
    /// Every tick of the pass, microseconds.
    pub ticks: Vec<f64>,
}

/// `passes[p].undisturbed`, for the reducers.
pub fn undisturbed(passes: &[Timed]) -> Vec<Vec<f64>> {
    passes.iter().map(|p| p.undisturbed.clone()).collect()
}

/// `passes[p].wall`.
pub fn wall(passes: &[Timed]) -> Vec<Vec<f64>> {
    passes.iter().map(|p| p.wall.clone()).collect()
}

/// States consecutive timings in undisturbed time (see
/// [`crate::refclock`]): `ticks[j]` was read after the `(j + 1) *
/// TICK_EVERY`-th of them, and every block of [`TICK_BLOCK`] timings is
/// multiplied by `NOMINAL_US /` the median of the ticks read during it (a
/// last, short block without a tick of its own takes the block's before).
pub fn undisturbed_in_blocks(wall: &[f64], ticks: &[f64]) -> Vec<f64> {
    let per_block = TICK_BLOCK / TICK_EVERY;
    let mut f = 1.0;
    let mut out = Vec::with_capacity(wall.len());
    for (b, block) in wall.chunks(TICK_BLOCK).enumerate() {
        let own = (b * per_block).min(ticks.len())..((b + 1) * per_block).min(ticks.len());
        if !own.is_empty() {
            f = factor(median(&ticks[own]));
        }
        out.extend(block.iter().map(|t| t * f));
    }
    out
}

/// One latency pass: every position, one at a time, each timed alone,
/// the process on one CPU (see [`sys::run_on_one_cpu`]), the reference
/// clock ticking after every [`TICK_EVERY`] positions. Answers that
/// differ from `reference` count as failed ops. Microseconds.
fn latency_pass(
    sys: &mut dyn QuerySystem,
    traced: bool,
    reference: &[Vec<Neighbor>],
    out: &mut Outcome,
    mut on_op: impl FnMut(usize, u64, QueryTrace),
) -> Timed {
    sys::run_on_one_cpu(true);
    sys.begin_pass();
    let mut pass = Timed::default();
    for (pos, expected) in reference.iter().enumerate() {
        let t0 = Instant::now();
        let (hits, trace) = if traced {
            capture(|| sys.search(pos, true))
        } else {
            (sys.search(pos, false), QueryTrace::default())
        };
        let ns = t0.elapsed().as_nanos() as u64;
        pass.wall.push(ns as f64 / 1e3);
        out.attempted += 1;
        out.failed += u64::from(!same_bits(&hits, expected));
        on_op(pos, ns, trace);
        if (pos + 1) % TICK_EVERY == 0 {
            pass.ticks.push(clock().tick());
        }
    }
    pass.undisturbed = undisturbed_in_blocks(&pass.wall, &pass.ticks);
    pass
}

/// One throughput pass: the script in chunks of [`CHUNK`] positions,
/// each chunk one timed call shared by `threads` callers, on every CPU
/// the process has when there are several. The reference clock is read
/// before the pass and after every chunk; a chunk is stated in
/// undisturbed time by the mean of the readings on either side of it.
/// Seconds per chunk.
fn throughput_pass(
    sys: &mut dyn QuerySystem,
    threads: usize,
    reference: &[Vec<Neighbor>],
    out: &mut Outcome,
) -> Timed {
    sys::run_on_one_cpu(threads == 1);
    sys.begin_pass();
    let mut pass = Timed::default();
    let mut before = refclock::read(EDGE_TICKS);
    for (c, expected) in reference.chunks(CHUNK).enumerate() {
        let start = c * CHUNK;
        let t0 = Instant::now();
        let answers = sys.search_chunk(start..start + expected.len(), threads);
        let s = t0.elapsed().as_secs_f64();
        let after = refclock::read(EDGE_TICKS);
        pass.wall.push(s);
        pass.undisturbed.push(s * factor((before + after) / 2.0));
        pass.ticks.push(after);
        before = after;
        out.attempted += expected.len() as u64;
        out.failed += if answers.len() == expected.len() {
            answers
                .iter()
                .zip(expected)
                .filter(|(a, b)| !same_bits(a, b))
                .count() as u64
        } else {
            expected.len() as u64
        };
    }
    pass
}

/// The untraced measurement: one untimed warm-up pass (its answers
/// become the reference), then the shape's latency passes on one thread
/// and throughput passes with the shape's callers, alternating so machine
/// drift lands on both kinds alike, with the shape's further set-ups
/// (`set_up_again`) spread evenly between them.
pub fn measure(
    sys: &mut dyn QuerySystem,
    shape: &Shape,
    set_up_again: &mut dyn FnMut(),
    out: &mut Outcome,
) -> Passes {
    let (lat, thr) = (shape.latency, shape.throughput);
    let (rounds, again) = (lat.max(thr), shape.setups - 1);
    let mut passes = Passes::default();
    out.note(format!("script hash {:016x}", sys.script_hash()));
    sys::run_on_one_cpu(true);
    sys.begin_pass();
    passes.reference = (0..sys.positions()).map(|p| sys.search(p, false)).collect();
    out.attempted += passes.reference.len() as u64;
    for i in 0..rounds {
        if i < lat {
            let pass = latency_pass(sys, false, &passes.reference, out, |_, _, _| {});
            passes.lat.push(pass);
            passes.cache.extend(sys.cache_stats());
        }
        if i < thr {
            let pass = throughput_pass(sys, shape.callers, &passes.reference, out);
            passes.chunks.push(pass);
        }
        sys::run_on_one_cpu(false);
        for _ in i * again / rounds..(i + 1) * again / rounds {
            set_up_again();
        }
    }
    passes
}

/// The four timings from the set-ups and the passes, in undisturbed
/// time, with their sample counts and what the wall clock read in notes.
pub fn reduce(passes: &Passes, shape: &Shape, setups: &Setups, out: &mut Outcome) {
    let low = low_of_passes(&undisturbed(&passes.lat));
    out.set("setup_s", setups.low());
    out.set("query_p50_us", median(&low));
    out.set("query_p99_us", quantile(&low, 0.99));
    out.set(
        "batch_qps",
        rate_of_low_chunks(low.len(), &undisturbed(&passes.chunks)),
    );
    out.note(format!(
        "samples: {} positions x {} latency passes (per-position lower quartile); {} chunks of {CHUNK} positions x {} throughput passes with {} callers (per-chunk lower quartile); lower quartile of {} set-ups",
        low.len(),
        passes.lat.len(),
        passes.chunks.first().map_or(0, |p| p.wall.len()),
        passes.chunks.len(),
        shape.callers,
        setups.count(),
    ));
    let wall_low = low_of_passes(&wall(&passes.lat));
    note_wall_clock(
        [
            setups.low_wall(),
            median(&wall_low),
            quantile(&wall_low, 0.99),
            rate_of_low_chunks(wall_low.len(), &wall(&passes.chunks)),
        ],
        passes.lat.iter().flat_map(|p| p.ticks.iter().copied()),
        out,
    );
    out.note(format!(
        "each set-up, wall-clock s / factor to undisturbed time: {}",
        setups.listing()
    ));
    let per_pass: Vec<String> = passes
        .lat
        .iter()
        .map(|p| format!("{:.0}/{:.2}", median(&p.wall), median(&p.ticks)))
        .collect();
    out.note(format!(
        "each latency pass alone, wall-clock p50 / median tick, us: {}",
        per_pass.join(" ")
    ));
    let per_pass: Vec<String> = passes
        .chunks
        .iter()
        .map(|p| format!("{:.0}", low.len() as f64 / p.wall.iter().sum::<f64>()))
        .collect();
    out.note(format!(
        "each throughput pass alone by the wall clock, ops/s: {}",
        per_pass.join(" ")
    ));
}

/// Notes the same four estimators over the wall clock's own readings
/// (`[setup_s, query_p50_us, query_p99_us, batch_qps]`) beside the
/// reference clock's ticks during the latency passes.
pub fn note_wall_clock(wall: [f64; 4], ticks: impl Iterator<Item = f64>, out: &mut Outcome) {
    let ticks: Vec<f64> = ticks.collect();
    out.note(format!(
        "as the wall clock read them: setup_s {:.6}, query_p50_us {:.3}, query_p99_us {:.3}, batch_qps {:.3}; reference clock: {} ticks, quartiles {:.3} / {:.3} / {:.3} us against {NOMINAL_US} us undisturbed",
        wall[0],
        wall[1],
        wall[2],
        wall[3],
        ticks.len(),
        quantile(&ticks, 0.25),
        median(&ticks),
        quantile(&ticks, 0.75),
    ));
}

/// The memory and disk metrics every run ends with.
pub fn footprint(out: &mut Outcome, disk_bytes: u64, live_vectors: usize) {
    out.set("peak_rss_mib", sys::peak_rss_mib());
    out.set(
        "disk_bytes_per_vector",
        disk_bytes as f64 / live_vectors.max(1) as f64,
    );
}

/// What the traced run of a query script yields beyond set-up spans.
pub struct TracedPasses {
    /// Cache counters at the end of each untraced latency pass.
    pub cache: Vec<CacheStats>,
    pub reference: Vec<Vec<Neighbor>>,
}

/// The traced measurement: after a warm-up, untraced and traced latency
/// passes alternate (`pairs` of each); the first traced pass is the one
/// recorded span by span. Fills `obs.trace_overhead_pct` and the
/// `core.search.*` metrics.
pub fn measure_traced(
    sys: &mut dyn QuerySystem,
    pairs: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> TracedPasses {
    out.note(format!("script hash {:016x}", sys.script_hash()));
    sys::run_on_one_cpu(true);
    sys.begin_pass();
    let reference: Vec<Vec<Neighbor>> =
        (0..sys.positions()).map(|p| sys.search(p, false)).collect();
    out.attempted += reference.len() as u64;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut traces = Vec::new();
    let mut cache = Vec::new();
    for pair in 0..pairs {
        plain.push(latency_pass(sys, false, &reference, out, |_, _, _| {}).wall);
        cache.extend(sys.cache_stats());
        // Only the first traced pass is recorded span by span; each op
        // is timed by the pass itself and recorded after it ended.
        let span = (pair == 0).then(|| rec.enter("pass.traced", 0));
        let pass = latency_pass(sys, true, &reference, out, |pos, ns, t| {
            if pair == 0 {
                rec.push_ended("op.search", pos as u64, ns, Some(t));
                traces.push(t);
            }
        });
        traced.push(pass.wall);
        if let Some(span) = span {
            rec.exit(span);
        }
    }
    let untraced_p50_us = median(&low_of_passes(&plain));
    let traced_p50_us = median(&low_of_passes(&traced));
    out.set(
        "obs.trace_overhead_pct",
        (traced_p50_us / untraced_p50_us - 1.0) * 100.0,
    );
    search_layer(&traces, traced_p50_us, out);
    sys::run_on_one_cpu(false);
    out.note(format!(
        "traced run: {} positions x {pairs} untraced + {pairs} traced passes; p50 untraced {untraced_p50_us:.1} us, traced {traced_p50_us:.1} us",
        reference.len()
    ));
    TracedPasses { cache, reference }
}

/// `core.search.*` from the library's own per-query traces: phase times
/// as medians over the traced ops, counts as means per op. Deployments
/// that publish no trace (or a wall-time-only one) leave the phases at
/// 0, and the whole query shows up as unattributed.
pub fn search_layer(traces: &[QueryTrace], traced_p50_us: f64, out: &mut Outcome) {
    if traces.is_empty() {
        return;
    }
    let us = |f: fn(&QueryTrace) -> u64| -> f64 {
        median(&traces.iter().map(|t| f(t) as f64 / 1e3).collect::<Vec<_>>())
    };
    let mean = |f: fn(&QueryTrace) -> u64| -> f64 {
        traces.iter().map(|t| f(t) as f64).sum::<f64>() / traces.len() as f64
    };
    let phases = [
        ("core.search.preprocess_us", us(|t| t.preprocess_ns)),
        ("core.search.find_buckets_us", us(|t| t.find_buckets_ns)),
        ("core.search.bounds_us", us(|t| t.bounds_ns)),
        ("core.search.distance_us", us(|t| t.distance_ns)),
    ];
    let attributed: f64 = phases.iter().map(|p| p.1).sum();
    for (name, v) in phases {
        out.set(name, v);
    }
    out.set(
        "core.search.unattributed_us",
        (traced_p50_us - attributed).max(0.0),
    );
    out.note(format!(
        "share of the traced query p50 ({traced_p50_us:.1} us) by the library's own phases: preprocess {:.1} %, find_buckets {:.1} %, bounds {:.1} %, distance kernels {:.1} %, unattributed {:.1} %",
        100.0 * phases[0].1 / traced_p50_us,
        100.0 * phases[1].1 / traced_p50_us,
        100.0 * phases[2].1 / traced_p50_us,
        100.0 * phases[3].1 / traced_p50_us,
        100.0 * (traced_p50_us - attributed).max(0.0) / traced_p50_us,
    ));
    let (total, scanned) = (mean(|t| t.dims_total), mean(|t| t.dims_scanned));
    out.set(
        "core.search.dims_scanned_ratio",
        if total > 0.0 { scanned / total } else { 0.0 },
    );
    out.set("core.search.vectors_visited", mean(|t| t.vectors_visited));
    out.set("core.search.blocks_visited", mean(|t| t.blocks_visited));
    out.set(
        "core.search.rerank_candidates",
        mean(|t| t.rerank_candidates),
    );
}

/// The set-up spans as per-layer metrics (a step the workload does not
/// have stays 0): k-means, rows → PDX blocks, the ADSampling fit, and
/// the container write as MiB/s of the bytes it left on disk.
pub fn setup_layer(rec: &Recorder, persisted: &std::path::Path, out: &mut Outcome) {
    out.set("index.kmeans_s", rec.seconds_of("index.kmeans"));
    out.set("index.layout_s", rec.seconds_of("index.layout"));
    out.set("pruners.ads_fit_s", rec.seconds_of("pruners.ads_fit"));
    let write_s = rec.seconds_of("datasets.persist.write");
    if write_s > 0.0 {
        let mib = sys::disk_bytes(persisted) as f64 / (1 << 20) as f64;
        out.set("datasets.persist.write_mibps", mib / write_s);
    }
}

/// `core.exec.batch_scaling`: throughput on `nproc` threads over
/// throughput on one, each from `reps` passes.
pub fn batch_scaling(
    sys: &mut dyn QuerySystem,
    reps: usize,
    reference: &[Vec<Neighbor>],
    out: &mut Outcome,
) {
    let mut passes: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..reps {
        for (slot, threads) in passes.iter_mut().zip([1, sys::nproc()]) {
            slot.push(throughput_pass(sys, threads, reference, out).wall);
        }
    }
    sys::run_on_one_cpu(false);
    let [one, all] = passes.map(|p| rate_of_low_chunks(reference.len(), &p));
    out.set("core.exec.batch_scaling", all / one);
}

/// `core.cache.*` from the counters at the end of each latency pass.
/// On one CPU the library loads every miss inline, so the counts are the
/// same in every pass (`ivf_ooc` gates on it) and the medians are exact.
pub fn cache_layer(cache: &[CacheStats], out: &mut Outcome) {
    if cache.is_empty() {
        return;
    }
    let med =
        |f: fn(&CacheStats) -> u64| median(&cache.iter().map(|c| f(c) as f64).collect::<Vec<_>>());
    let (hits, misses) = (med(|c| c.hits), med(|c| c.misses));
    out.set("core.cache.hits", hits);
    out.set("core.cache.misses", misses);
    out.set("core.cache.evictions", med(|c| c.evictions));
    out.set("core.cache.hit_ratio", hits / (hits + misses).max(1.0));
    out.set(
        "core.cache.resident_frac",
        med(|c| c.resident_bytes) / med(|c| c.budget_bytes).max(1.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_share_the_median_of_their_own_ticks() {
        // 60 timings of 100: two full blocks and a short one of 10. The
        // second block's ticks read twice the undisturbed tick, so its
        // timings halve; the short block has two ticks of its own.
        let wall = vec![100.0; 60];
        let mut ticks = vec![NOMINAL_US; TICK_BLOCK / TICK_EVERY];
        ticks.extend(vec![2.0 * NOMINAL_US; TICK_BLOCK / TICK_EVERY]);
        ticks.extend([NOMINAL_US / 2.0, NOMINAL_US / 2.0]);
        let out = undisturbed_in_blocks(&wall, &ticks);
        assert_eq!(out[..TICK_BLOCK], vec![100.0; TICK_BLOCK]);
        assert_eq!(out[TICK_BLOCK..2 * TICK_BLOCK], vec![50.0; TICK_BLOCK]);
        assert_eq!(out[2 * TICK_BLOCK..], vec![200.0; 10]);
        // A short last block without a tick takes the block's before.
        let out = undisturbed_in_blocks(&wall[..TICK_BLOCK + 3], &ticks[..TICK_BLOCK / TICK_EVERY]);
        assert_eq!(out, vec![100.0; TICK_BLOCK + 3]);
    }

    #[test]
    fn set_ups_are_timed_with_the_clock_beside_them() {
        let mut setups = Setups::default();
        for ms in [40, 1, 20] {
            setups.time(|| std::thread::sleep(std::time::Duration::from_millis(ms)));
        }
        assert_eq!(setups.count(), 3);
        // Of three, the lower quartile is the fastest.
        assert!(setups.low_wall() >= 0.001 && setups.low_wall() < 0.02);
        assert!(setups.low() > 0.0);
    }
}
