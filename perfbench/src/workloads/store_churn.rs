//! `store_churn`: a persistent, SQ8-sealing `Collection` under writes
//! beside reads.
//!
//! One epoch = insert M rows → sync → S searches → delete the previous
//! epoch's M rows → S searches → `seal()` → S searches → `compact()` →
//! the rest of the epoch's searches. The same M vectors come back under fresh ids each epoch,
//! so every epoch meets the same logical state at every script position.
//! Searches are few per epoch, so that writes and maintenance are more
//! than a third of it, and the script has `SETS` epochs, each asking its
//! own queries: one pass over the script is a cycle of `SETS` epochs and
//! holds over a thousand search positions. The write buffer scan, the
//! tombstone over-fetch, the segmented merge, the SQ8 scan + rerank, the
//! WAL and the maintenance jobs all sit on the measured path;
//! `batch_qps` is mixed ops per second of the cycle, so a read gain
//! bought with write cost shows.

use super::{
    footprint, note_wall_clock, same_bits, search_layer, undisturbed_in_blocks, Ctx, Setups,
    EDGE_TICKS, FIXTURE_SEED, K, TICK_EVERY,
};
use crate::gen::{self, Truth};
use crate::layers;
use crate::refclock::{self, clock, factor};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{low_of_passes, median, quantile, rate_of_low_chunks};
use crate::sys;
use pdx::obs::{trace::capture, QueryTrace};
use pdx::prelude::{Collection, Dataset, Neighbor, SearchOptions, StoreConfig, VectorIndex};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Span names of the four search groups: one per collection state.
const SEARCH_SPANS: [&str; 4] = [
    "store.search_buffered",
    "store.search_tombstoned",
    "store.search_sealed",
    "store.search_compacted",
];

/// Epochs per cycle: each asks its own queries.
const SETS: usize = 8;

struct Inputs {
    /// Rows `0..base` are the base collection, `base..base + m` the
    /// rows that churn; `SETS` epochs' worth of queries.
    ds: Dataset,
    base: usize,
    m: usize,
    /// Searches per epoch against each of the four collection states:
    /// buffered, tombstoned, sealed, compacted.
    groups: [usize; 4],
    /// The order in which an epoch inserts the churning rows (and the
    /// next one deletes them): what `--seed` draws. The queries stay
    /// where they are, so every script position keeps its state.
    write_order: Vec<usize>,
}

impl Inputs {
    /// Positions, within an epoch, of the searches against `state`.
    fn group(&self, state: usize) -> std::ops::Range<usize> {
        let start: usize = self.groups[..state].iter().sum();
        start..start + self.groups[state]
    }

    fn searches_per_epoch(&self) -> usize {
        self.groups.iter().sum()
    }

    /// The query epoch `e` asks at its position `q`.
    fn query(&self, e: usize, q: usize) -> &[f32] {
        self.ds.query(set_of(e) * self.searches_per_epoch() + q)
    }
}

/// The set of queries epoch `e` asks (epoch 0 only primes).
fn set_of(e: usize) -> usize {
    e.saturating_sub(1) % SETS
}

fn inputs(ctx: &Ctx) -> Inputs {
    let (base, m) = (ctx.size(30_000, 3_000), ctx.size(200, 50));
    // The compacted state is where a collection spends its life, so it
    // gets most of the searches. Tombstoned and two-segment searches
    // cost 2.7 times the others: with an even split the median over all
    // positions is the edge between the two modes, and with the cheap
    // mode at 60 % of the positions it was that mode's 83rd percentile,
    // its sparse upper tail, and moved by up to 30 % between runs. At
    // 76 % it sits inside the mode.
    let groups = if ctx.quick {
        [5, 5, 5, 10]
    } else {
        [15, 15, 15, 80]
    };
    Inputs {
        ds: gen::dataset(
            "sift",
            base + m,
            SETS * groups.iter().sum::<usize>(),
            FIXTURE_SEED,
        ),
        base,
        m,
        groups,
        write_order: gen::permutation(m, ctx.seed),
    }
}

/// Create the collection, load and compact the base rows (one sealed
/// SQ8 segment), close it, and open it again — WAL replay included.
fn setup(inp: &Inputs, dir: &Path, rec: &mut Recorder) -> Collection {
    let _ = std::fs::remove_dir_all(dir);
    let d = inp.ds.dims();
    let config = StoreConfig {
        quantize: true,
        ..StoreConfig::default()
    };
    rec.time("store.load", 0, || {
        let coll = Collection::create(dir, d, config).expect("create the collection");
        coll.bulk_insert(0, &inp.ds.data[..inp.base * d])
            .expect("load the base rows");
        coll.compact().expect("compact the base rows");
    });
    rec.time("engine.open", 0, || open(dir))
}

fn open(dir: &Path) -> Collection {
    Collection::open(dir).expect("open the collection")
}

/// What one epoch measured and observed.
#[derive(Default)]
struct EpochLog {
    insert_us: Vec<f64>,
    delete_us: Vec<f64>,
    sync_us: f64,
    seal_ms: f64,
    compact_ms: f64,
    /// Latency of each search, script order, as the wall clock read it.
    wall_search_us: Vec<f64>,
    /// The same in undisturbed time (see [`crate::refclock`]): the clock
    /// ticks after every [`TICK_EVERY`] searches.
    search_us: Vec<f64>,
    /// Every tick between the epoch's searches, microseconds.
    ticks: Vec<f64>,
    traces: Vec<QueryTrace>,
    answers: Vec<Vec<Neighbor>>,
    /// `(live_len, segment_count)` after each of the four phases.
    states: Vec<(usize, usize)>,
    wal_bytes_per_row: f64,
    /// Wall time of each of the nine phases, script order: inserts,
    /// sync, searches, deletes, searches, seal, searches, compact,
    /// searches.
    wall_phase_s: Vec<f64>,
    /// The same in undisturbed time: the clock is read where one phase
    /// ends and the next begins, and a phase takes the mean of the
    /// readings at its two ends.
    phase_s: Vec<f64>,
    ops: u64,
}

impl EpochLog {
    fn wall_s(&self) -> f64 {
        self.wall_phase_s.iter().sum()
    }
}

/// The exact-scan model of the live rows: id → row of `ds.data`.
type Model = BTreeMap<u64, usize>;

fn first_id(inp: &Inputs, epoch: usize) -> u64 {
    (inp.base + epoch * inp.m) as u64
}

/// One epoch in flight: what it runs against and what it has logged.
struct Replay<'a> {
    coll: &'a Collection,
    inp: &'a Inputs,
    traced: bool,
    /// Set for the one epoch whose ops are recorded as spans.
    rec: Option<&'a mut Recorder>,
    log: EpochLog,
    failed: u64,
    /// When the phase in progress began, and the reference clock's
    /// reading then.
    phase_start: Instant,
    phase_start_tick_us: f64,
}

impl Replay<'_> {
    /// Ends the phase in progress and begins the next; the reading of the
    /// reference clock between them is part of neither.
    fn end_phase(&mut self) {
        let wall = self.phase_start.elapsed().as_secs_f64();
        let tick_us = refclock::read(EDGE_TICKS);
        self.log.wall_phase_s.push(wall);
        self.log
            .phase_s
            .push(wall * factor((self.phase_start_tick_us + tick_us) / 2.0));
        self.phase_start = Instant::now();
        self.phase_start_tick_us = tick_us;
    }

    /// Times one store call; the span is recorded after it ended.
    fn timed<E>(
        &mut self,
        name: &'static str,
        op: usize,
        f: impl FnOnce() -> Result<(), E>,
    ) -> f64 {
        let t0 = Instant::now();
        let ok = f().is_ok();
        let ns = t0.elapsed().as_nanos() as u64;
        self.failed += u64::from(!ok);
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.push_ended(name, op as u64, ns, None);
        }
        ns as f64 / 1e3
    }

    /// The search group of one collection state (a phase of its own),
    /// then the state itself.
    fn searches(&mut self, e: usize, state: usize, model: &Model) {
        let opts = SearchOptions::new(K).with_trace(self.traced);
        for q in self.inp.group(state) {
            let query = self.inp.query(e, q);
            let t0 = Instant::now();
            let (hits, trace) = if self.traced {
                capture(|| self.coll.search(query, &opts))
            } else {
                (self.coll.search(query, &opts), QueryTrace::default())
            };
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.push_ended(SEARCH_SPANS[state], q as u64, ns, Some(trace));
            }
            self.log.wall_search_us.push(ns as f64 / 1e3);
            self.log.traces.push(trace);
            self.log.answers.push(hits);
            if self.log.wall_search_us.len().is_multiple_of(TICK_EVERY) {
                // A tick is no part of the phase it falls into.
                let t0 = Instant::now();
                self.log.ticks.push(clock().tick());
                self.phase_start += t0.elapsed();
            }
        }
        self.end_phase();
        let live = self.coll.live_len();
        self.failed += u64::from(live != model.len());
        self.log.states.push((live, self.coll.segment_count()));
    }
}

/// Replays one epoch against the collection and the model. Store errors
/// and a `live_len` that disagrees with the model count as failed ops.
fn epoch(
    coll: &Collection,
    inp: &Inputs,
    e: usize,
    traced: bool,
    rec: Option<&mut Recorder>,
    model: &mut Model,
    out: &mut Outcome,
) -> EpochLog {
    let mut run = Replay {
        coll,
        inp,
        traced,
        rec,
        log: EpochLog::default(),
        failed: 0,
        phase_start_tick_us: refclock::read(EDGE_TICKS),
        phase_start: Instant::now(),
    };

    let wal_before = coll.wal_appended_len();
    for (i, &row) in inp.write_order.iter().enumerate() {
        let id = first_id(inp, e) + i as u64;
        let us = run.timed("store.insert", i, || {
            coll.insert(id, inp.ds.vector(inp.base + row))
        });
        run.log.insert_us.push(us);
        model.insert(id, inp.base + row);
    }
    run.log.wal_bytes_per_row = (coll.wal_appended_len() - wal_before) as f64 / inp.m as f64;
    run.end_phase();
    run.log.sync_us = run.timed("store.sync", 0, || coll.sync());
    run.end_phase();
    run.searches(e, 0, model);

    if e > 0 {
        for i in 0..inp.m {
            let id = first_id(inp, e - 1) + i as u64;
            let us = run.timed("store.delete", i, || coll.delete(id));
            run.log.delete_us.push(us);
            model.remove(&id);
        }
    }
    run.end_phase();
    run.searches(e, 1, model);

    run.log.seal_ms = run.timed("store.seal", 0, || coll.seal()) / 1e3;
    run.end_phase();
    run.searches(e, 2, model);

    run.log.compact_ms = run.timed("store.compact", 0, || coll.compact()) / 1e3;
    run.end_phase();
    run.searches(e, 3, model);

    let mut log = run.log;
    log.search_us = undisturbed_in_blocks(&log.wall_search_us, &log.ticks);
    log.ops = (log.insert_us.len() + log.delete_us.len() + 3 + log.search_us.len()) as u64;
    out.attempted += log.ops;
    out.failed += run.failed;
    log
}

/// Recall of one epoch's answers against an exact scan of the model at
/// each of its states. `model_after` is the model once the epoch ended;
/// the buffered state additionally held the previous epoch's rows.
fn check_epoch(
    inp: &Inputs,
    e: usize,
    log: &EpochLog,
    model_after: &Model,
    out: &mut Outcome,
) -> f64 {
    let (ds, d) = (&inp.ds, inp.ds.dims());
    let mut buffered = model_after.clone();
    for (i, &row) in inp.write_order.iter().enumerate() {
        buffered.insert(first_id(inp, e - 1) + i as u64, inp.base + row);
    }
    // The three states after the deletes hold the same rows.
    let mut total = 0.0;
    for (model, span) in [
        (&buffered, inp.group(0)),
        (model_after, inp.group(1).start..inp.searches_per_epoch()),
    ] {
        let ids: Vec<u64> = model.keys().copied().collect();
        let rows: Vec<f32> = model
            .values()
            .flat_map(|&r| ds.vector(r).iter().copied())
            .collect();
        let queries: Vec<&[f32]> = span.clone().map(|q| inp.query(e, q)).collect();
        let truth: Vec<Truth> = gen::exact_topk(&rows, &ids, d, &queries, K, sys::nproc());
        for (q, t) in span.zip(&truth) {
            total += gen::recall(
                t,
                inp.query(e, q),
                log.answers[q].iter().map(|n| n.id),
                |id| model.get(&id).map(|&r| ds.vector(r)),
            );
        }
    }
    let recall = total / log.answers.len() as f64;
    out.gate(recall >= 0.99, || {
        format!("epoch {e}: recall@10 against the model = {recall} (< 0.99)")
    });
    recall
}

/// Epoch `e`'s answers must be those of `first`, the epoch one or more
/// whole cycles earlier (`e0`), bit for bit once the churned ids are
/// shifted back: the same queries against the same logical state.
fn check_repeat(
    inp: &Inputs,
    e0: usize,
    first: &EpochLog,
    e: usize,
    log: &EpochLog,
    out: &mut Outcome,
) {
    let shift = ((e - e0) * inp.m) as u64;
    let differing = log
        .answers
        .iter()
        .zip(&first.answers)
        .filter(|(now, then)| {
            let shifted: Vec<Neighbor> = now
                .iter()
                .map(|n| Neighbor {
                    id: if n.id >= inp.base as u64 {
                        n.id - shift
                    } else {
                        n.id
                    },
                    distance: n.distance,
                })
                .collect();
            !same_bits(&shifted, then)
        })
        .count();
    out.failed += differing as u64;
    out.gate(log.states == first.states, || {
        format!(
            "epoch {e} states {:?} differ from epoch {e0}'s {:?}",
            log.states, first.states
        )
    });
}

/// Runs the priming epoch and `cycles` measured cycles of `SETS` epochs.
/// The first cycle is checked against the model (`recall_at_10` is its
/// mean), every later epoch against the first cycle's epoch of its set.
/// With a recorder (the traced run) even cycles are traced, and the
/// first is recorded span by span. `after_cycle` runs between cycles.
fn churn(
    coll: &Collection,
    inp: &Inputs,
    cycles: usize,
    mut rec: Option<&mut Recorder>,
    after_cycle: &mut dyn FnMut(),
    out: &mut Outcome,
) -> Vec<EpochLog> {
    let mut model: Model = (0..inp.base).map(|r| (r as u64, r)).collect();
    // Epoch 0 has nothing to delete: it only brings the collection into
    // the state every later epoch starts from.
    epoch(coll, inp, 0, false, None, &mut model, out);
    let mut logs: Vec<EpochLog> = Vec::with_capacity(cycles * SETS);
    let mut recall = 0.0;
    for e in 1..=cycles * SETS {
        let cycle = (e - 1) / SETS;
        let traced = rec.is_some() && cycle.is_multiple_of(2);
        let recorded = if cycle == 0 { rec.as_deref_mut() } else { None };
        let log = epoch(coll, inp, e, traced, recorded, &mut model, out);
        if cycle == 0 {
            recall += check_epoch(inp, e, &log, &model, out) / SETS as f64;
        } else {
            let e0 = set_of(e) + 1;
            check_repeat(inp, e0, &logs[e0 - 1], e, &log, out);
        }
        logs.push(log);
        if e % SETS == 0 {
            after_cycle();
        }
    }
    out.set("recall_at_10", recall);
    logs
}

/// One vector per cycle: what `f` yields for each of the cycle's epochs,
/// end to end — the cycle is the script, its epochs' ops the positions.
fn per_cycle<'a>(
    logs: impl IntoIterator<Item = &'a [EpochLog]>,
    f: impl Fn(&EpochLog) -> &[f64],
) -> Vec<Vec<f64>> {
    logs.into_iter()
        .map(|cycle| cycle.iter().flat_map(|l| f(l).iter().copied()).collect())
        .collect()
}

/// Per-position lower quartile over the given cycles of the search
/// latencies as the wall clock read them (the traced run's, like its
/// spans).
fn wall_search_passes<'a>(cycles: impl IntoIterator<Item = &'a [EpochLog]>) -> Vec<f64> {
    low_of_passes(&per_cycle(cycles, |l| &l.wall_search_us))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(ctx);
    let dir = ctx.scratch.path("store");
    let shape = ctx.shape("store_churn");
    let mut setups = Setups::default();
    let coll = setups.time(|| setup(&inp, &dir, &mut Recorder::new()));
    // The further set-ups, beside the live collection, in equal shares
    // after every cycle.
    let again = ctx.scratch.path("store-again");
    let mut set_up_again = || {
        for _ in 0..(shape.setups - 1).div_ceil(shape.latency) {
            if setups.count() < shape.setups {
                drop(setups.time(|| setup(&inp, &again, &mut Recorder::new())));
            }
        }
    };
    let logs = churn(
        &coll,
        &inp,
        shape.latency,
        None,
        &mut set_up_again,
        &mut out,
    );
    let low = low_of_passes(&per_cycle(logs.chunks(SETS), |l| &l.search_us));
    out.set("setup_s", setups.low());
    out.set("query_p50_us", median(&low));
    out.set("query_p99_us", quantile(&low, 0.99));
    let ops: u64 = logs[..SETS].iter().map(|l| l.ops).sum();
    let phases = per_cycle(logs.chunks(SETS), |l| &l.phase_s);
    out.set("batch_qps", rate_of_low_chunks(ops as usize, &phases));
    out.note(format!(
        "samples: {} search positions ({SETS} epochs of {}) x {} cycles (per-position lower quartile); batch_qps = {ops} mixed ops per cycle over its {} phases (per-phase lower quartile over the cycles), 1 thread; lower quartile of {} set-ups",
        low.len(),
        inp.searches_per_epoch(),
        logs.len() / SETS,
        phases[0].len(),
        setups.count(),
    ));
    let wall_low = low_of_passes(&per_cycle(logs.chunks(SETS), |l| &l.wall_search_us));
    let wall_phases = per_cycle(logs.chunks(SETS), |l| &l.wall_phase_s);
    note_wall_clock(
        [
            setups.low_wall(),
            median(&wall_low),
            quantile(&wall_low, 0.99),
            rate_of_low_chunks(ops as usize, &wall_phases),
        ],
        logs.iter().flat_map(|l| l.ticks.iter().copied()),
        &mut out,
    );
    out.note(format!(
        "each set-up, wall-clock s / factor to undisturbed time: {}",
        setups.listing()
    ));
    let per_cycle_p50: Vec<String> = logs
        .chunks(SETS)
        .map(|cycle| {
            let all = |f: fn(&EpochLog) -> &Vec<f64>| -> Vec<f64> {
                cycle.iter().flat_map(|l| f(l).iter().copied()).collect()
            };
            format!(
                "{:.0}/{:.2}",
                median(&all(|l| &l.wall_search_us)),
                median(&all(|l| &l.ticks))
            )
        })
        .collect();
    out.note(format!(
        "each cycle alone, wall-clock search p50 / median tick, us: {}",
        per_cycle_p50.join(" ")
    ));
    footprint(&mut out, sys::disk_bytes(&dir), coll.live_len());
    out
}

pub fn trace(ctx: &Ctx, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let inp = rec.time("harness.inputs", 0, || inputs(ctx));
    let dir = ctx.scratch.path("store");
    let coll = setup(&inp, &dir, rec);
    // Traced and untraced cycles alternate, starting with a traced one.
    let cycles = 2 * ctx.passes(2);
    let pass = rec.enter("pass.epochs", 0);
    let logs = churn(&coll, &inp, cycles, Some(rec), &mut || {}, &mut out);
    rec.exit(pass);
    let traced_p50 = median(&wall_search_passes(logs.chunks(SETS).step_by(2)));
    let plain_p50 = median(&wall_search_passes(logs.chunks(SETS).skip(1).step_by(2)));
    out.set(
        "obs.trace_overhead_pct",
        (traced_p50 / plain_p50 - 1.0) * 100.0,
    );
    let traces: Vec<QueryTrace> = logs[..SETS]
        .iter()
        .flat_map(|l| l.traces.iter().copied())
        .collect();
    search_layer(&traces, traced_p50, &mut out);

    // Writes are the same script positions in every epoch.
    let per_position = |f: fn(&EpochLog) -> &Vec<f64>| {
        median(&low_of_passes(
            &logs.iter().map(|l| f(l).clone()).collect::<Vec<_>>(),
        ))
    };
    let across = |f: fn(&EpochLog) -> f64| median(&logs.iter().map(f).collect::<Vec<_>>());
    out.set("store.insert_us", per_position(|l| &l.insert_us));
    out.set("store.delete_us", per_position(|l| &l.delete_us));
    out.set("store.sync_us", across(|l| l.sync_us));
    out.set("store.seal_ms", across(|l| l.seal_ms));
    out.set("store.compact_ms", across(|l| l.compact_ms));
    out.set("store.wal_bytes_per_row", across(|l| l.wal_bytes_per_row));
    out.set(
        "store.segments_after_compact",
        across(|l| l.states[3].1 as f64),
    );
    let low = wall_search_passes(logs.chunks(SETS));
    for (state, name) in [
        "store.search_buffered_us",
        "store.search_tombstoned_us",
        "store.search_sealed_us",
        "store.search_compacted_us",
    ]
    .into_iter()
    .enumerate()
    {
        let of_state: Vec<f64> = low
            .chunks(inp.searches_per_epoch())
            .flat_map(|epoch| epoch[inp.group(state)].iter().copied())
            .collect();
        out.set(name, median(&of_state));
    }
    let search_s = across(|l| l.wall_search_us.iter().sum::<f64>() / 1e6);
    let wall_s = across(|l| l.wall_s());
    out.note(format!(
        "share of the epoch ({wall_s:.3} s median): store writes + maintenance {:.1} %, searches {:.1} %",
        100.0 * (wall_s - search_s) / wall_s,
        100.0 * search_s / wall_s,
    ));
    out.note(format!(
        "traced run: {} search positions x {cycles} cycles, traced and untraced alternating; p50 untraced {plain_p50:.1} us, traced {traced_p50:.1} us",
        low.len(),
    ));

    super::resident_layer(&coll, &mut out);
    layers::kernels(&inp.ds, ctx.calib_gbps, &mut out);
    drop(coll);
    layers::open_ms(|| open(&dir), &mut out);
    layers::read_mibps(&dir, || open(&dir), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::Scratch;

    /// Epochs one cycle apart meet the same live count and segment count
    /// at matching script positions, and repeat each other's answers.
    #[test]
    fn epochs_are_state_equivalent() {
        let scratch = Scratch::create().unwrap();
        let ctx = Ctx {
            seed: 5,
            quick: true,
            calib_gbps: 0.0,
            scratch: &scratch,
        };
        let inp = inputs(&ctx);
        let coll = setup(&inp, &scratch.path("store-test"), &mut Recorder::new());
        let mut out = Outcome::default();
        let logs = churn(&coll, &inp, 2, None, &mut || {}, &mut out);
        assert!(out.correct(), "{:?}", out.errors);
        assert_eq!(logs.len(), 2 * SETS);
        for pair in logs.windows(2) {
            assert_eq!(pair[0].states, pair[1].states);
        }
        // buffered: base + previous + new rows; afterwards base + new.
        assert_eq!(logs[0].states[0].0, inp.base + 2 * inp.m);
        assert_eq!(logs[0].states[3], (inp.base + inp.m, 1));
        let hash = |l: &EpochLog| {
            gen::script_hash(
                l.answers
                    .iter()
                    .flatten()
                    .map(|n| n.distance.to_bits() as u64),
            )
        };
        assert_eq!(hash(&logs[0]), hash(&logs[SETS]));
        assert_ne!(hash(&logs[0]), hash(&logs[1]));
        assert_eq!(logs[0].phase_s.len(), 9);
    }
}
