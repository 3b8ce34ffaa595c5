//! Per-layer measurements the traced run takes beside the replayed
//! pass: kernel sweeps over the workload's own rows, container reads,
//! open times, and the cost of rendering the metric registry.

use crate::report::Outcome;
use crate::stats::median;
use pdx::core::kernels::pdx_accumulate_positions;
use pdx::prelude::{
    nary_distance, pdx_scan, sq8_scan, Dataset, FlatPdx, FlatSq8, KernelVariant, Metric,
    DEFAULT_EXACT_BLOCK, DEFAULT_GROUP_SIZE,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Rows the kernel sweeps cover at most: enough to leave the caches of
/// one core, small enough to keep the traced run short.
const KERNEL_ROWS: usize = 20_000;

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `core.kernels.*`: best-of-5 sweeps of each plain-named kernel over
/// (at most the first `KERNEL_ROWS` of) the workload's rows with its
/// first query, in ns per dimension-value touched.
pub fn kernels(ds: &Dataset, stream_gbps: f64, out: &mut Outcome) {
    let (dims, query) = (ds.dims(), ds.query(0));
    let n = ds.len.min(KERNEL_ROWS);
    let rows = &ds.data[..n * dims];
    let values = (n * dims) as f64;
    let flat = FlatPdx::with_defaults(rows, n, dims);
    let mut dist = vec![0.0f32; DEFAULT_EXACT_BLOCK];

    let scan = best_of(5, || {
        for block in &flat.collection.blocks {
            pdx_scan(Metric::L2, &block.pdx, query, &mut dist[..block.pdx.len()]);
        }
    });
    let scan_ns = scan * 1e9 / values;
    out.set("core.kernels.pdx_scan_ns_per_value", scan_ns);
    out.set(
        "core.kernels.pdx_scan_roofline_frac",
        (4.0 / scan_ns) / stream_gbps.max(f64::MIN_POSITIVE),
    );

    // The PRUNE-phase shape: one lane in ten survives.
    let positions: Vec<u32> = (0..DEFAULT_GROUP_SIZE as u32).step_by(10).collect();
    let mut acc = vec![0.0f32; positions.len()];
    let mut touched = 0usize;
    let gather = best_of(5, || {
        touched = 0;
        for block in &flat.collection.blocks {
            for group in block.pdx.groups() {
                let live = positions.partition_point(|&p| (p as usize) < group.lanes);
                pdx_accumulate_positions(
                    Metric::L2,
                    &group,
                    query,
                    0..dims,
                    &positions[..live],
                    &mut acc[..live],
                );
                touched += live * dims;
            }
        }
    });
    out.set(
        "core.kernels.pdx_positions_ns_per_value",
        gather * 1e9 / touched.max(1) as f64,
    );

    let sq8 = FlatSq8::build(rows, n, dims, DEFAULT_EXACT_BLOCK, DEFAULT_GROUP_SIZE);
    let q8 = sq8.quantizer.prepare_query(Metric::L2, query);
    let quantized = best_of(5, || {
        for block in &sq8.blocks {
            sq8_scan(&q8, &block.codes, &mut dist[..block.codes.len()]);
        }
    });
    out.set(
        "core.kernels.sq8_scan_ns_per_value",
        quantized * 1e9 / values,
    );

    let horizontal = best_of(5, || {
        rows.chunks_exact(dims)
            .map(|row| nary_distance(Metric::L2, KernelVariant::Simd, query, row))
            .fold(0.0f32, f32::max)
    });
    out.set("core.kernels.nary_ns_per_value", horizontal * 1e9 / values);
}

/// `engine.open_ms`: best of 5 opens the way the workload opens.
pub fn open_ms<T>(open: impl FnMut() -> T, out: &mut Outcome) {
    out.set("engine.open_ms", best_of(5, open) * 1e3);
}

/// `datasets.persist.read_mibps`: best of 3 full resident decodes of
/// what `path` holds.
pub fn read_mibps<T>(path: &Path, open_resident: impl FnMut() -> T, out: &mut Outcome) {
    let mib = crate::sys::disk_bytes(path) as f64 / (1 << 20) as f64;
    out.set(
        "datasets.persist.read_mibps",
        mib / best_of(3, open_resident),
    );
}

/// `obs.render_us`: median of 5 renders of the process-global registry.
pub fn obs_render(out: &mut Outcome) {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(pdx::obs::Registry::global().render());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.set("obs.render_us", median(&times));
}
