//! `pdx-bench`: the repository's benchmark. One workload per process.
//!
//! ```text
//! pdx-bench [run]  --workload <name> --seed <u64> [--quick]
//! pdx-bench trace  --workload <name> --seed <u64> [--quick]
//! pdx-bench aa     [--runs <n>] [--seed <u64>] [--workload <name>] [--quick]
//! ```
//!
//! `--trace 0|1` selects `run`/`trace` when no subcommand is given (the
//! driver's form). Work is fixed, not timed: `--seconds` is accepted only
//! with the value `BENCHMARK.json` declares as `run_seconds`. `run`
//! prints the seven end-to-end metrics, `trace` the per-layer metrics and
//! writes the spans of one pass to `.bench_scratch/trace-<workload>.json`;
//! both end with one JSON line. See `README.md` beside this package for
//! every definition.
//!
//! # Library surface this package compiles against
//!
//! Later PRs delete and rename library items but may not edit the
//! benchmark, so it uses a narrow, durable set of public names only:
//!
//! * `pdx::prelude`: `VectorIndex`, `SearchOptions`, `Neighbor`,
//!   `AnyIndex::open_with` with `OpenOptions`, `FlatPdx::with_defaults`,
//!   `FlatSq8::build`, `IvfIndex::build`, `IvfPdx::new`, `LazyIvf`
//!   (`open`, `fetch`, `n_buckets`), `PrunedIvf::new`, `AdSampling`
//!   (`fit`, `transform_collection`, `transform_vector`), `Collection`
//!   with `StoreConfig`, `Server`, `ServeConfig`, `Backend::frozen`,
//!   `ServeClient` (`search`, `ping`, `stats().p50_us`, and the two
//!   rejection counters of `Server::stats()`), `CacheStats`, `generate`,
//!   `spec_by_name`, `Dataset`, `Metric`, `KernelVariant`,
//!   `active_kernel_isa`, the two `DEFAULT_*` sizes;
//! * the plain-named kernels `pdx_scan`, `sq8_scan`, `nary_distance`
//!   and `pdx::core::kernels::pdx_accumulate_positions`;
//! * `pdx::obs::trace::capture`, `pdx::obs::QueryTrace`,
//!   `pdx::obs::Registry::global().render()`;
//! * the two container writers `pdx::datasets::persist::write_pdx_path`
//!   and `write_ivf_pdx_path` (nothing in the prelude persists).
//!
//! Not used: any `*_policy` twin, `pdxearch*`, `SearchParams`,
//! `with_variant`, the typed inherent `search` methods, `SearchProfile`,
//! other `StatsReport` fields, `pdx_bench::harness`, `rand`.

mod aa;
mod gen;
mod layers;
mod refclock;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use report::{Outcome, RUN_SECONDS, WORKLOADS};
use std::process::ExitCode;

/// Ambient settings that would change what is measured.
const AMBIENT_ENV: [&str; 4] = ["PDX_THREADS", "PDX_KERNEL", "PDX_TRACE", "PDX_CACHE_BYTES"];

#[derive(Debug, PartialEq)]
enum Mode {
    Run,
    Trace,
    Aa,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    quick: bool,
    runs: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: None,
        seed: 42,
        quick: false,
        runs: 5,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        let mode = match first.as_str() {
            "run" => Some(Mode::Run),
            "trace" => Some(Mode::Trace),
            "aa" => Some(Mode::Aa),
            _ => None,
        };
        if let Some(mode) = mode {
            args.mode = mode;
            it.next();
        }
    }
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        if key == "--quick" {
            args.quick = true;
            continue;
        }
        let value = match inline {
            Some(v) => v,
            None => it.next().cloned().ok_or(format!("{key} needs a value"))?,
        };
        let bad = |what: &str| format!("{key}: '{value}' is not {what}");
        match key {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            // The pass counts are part of the metrics' definitions, so
            // a run of another length would report other metrics.
            "--seconds" => {
                if value.parse() != Ok(RUN_SECONDS) {
                    return Err(bad(&format!(
                        "{RUN_SECONDS}, the only run length (work is fixed, not timed)"
                    )));
                }
            }
            "--runs" => args.runs = value.parse().map_err(|_| bad("a count"))?,
            "--trace" => match value.as_str() {
                "0" => {}
                "1" if args.mode != Mode::Aa => args.mode = Mode::Trace,
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {key}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload '{w}' (one of {WORKLOADS:?})"));
        }
    } else if args.mode != Mode::Aa {
        return Err(format!("--workload is required (one of {WORKLOADS:?})"));
    }
    Ok(args)
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One workload, one process: header, the run or the traced run, every
/// metric by name, and the driver's JSON line last.
fn execute(args: &Args) -> std::io::Result<bool> {
    let name = args.workload.as_deref().expect("validated by parse");
    let traced = args.mode == Mode::Trace;
    let scratch = sys::Scratch::create()?;
    let mut ctx = workloads::Ctx {
        seed: args.seed,
        quick: args.quick,
        calib_gbps: 0.0,
        scratch: &scratch,
    };
    let shape = ctx.shape(name);
    println!(
        "pdx-bench {} workload={name} seed={} commit={} isa={} nproc={} passes={}+{} callers={} setups={} profile={}{}",
        if traced { "trace" } else { "run" },
        args.seed,
        commit(),
        pdx::prelude::active_kernel_isa().name(),
        sys::nproc(),
        shape.latency,
        shape.throughput,
        shape.callers,
        shape.setups,
        sys::release_profile(),
        if args.quick {
            " QUICK (tiny inputs, 2 passes: these numbers are not benchmark results)"
        } else {
            ""
        },
    );
    let outcome = if traced {
        ctx.calib_gbps = sys::stream_gbps(256);
        let mut rec = spans::Recorder::new();
        let mut out = workloads::trace(name, &ctx, &mut rec);
        finish_trace(name, &ctx, &rec, &mut out)?;
        out
    } else {
        workloads::run(name, &ctx)
    };
    print!("{}", report::text(&outcome, traced));
    println!(
        "ops attempted = {}, failed = {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", report::json_line(&outcome, traced));
    Ok(outcome.correct())
}

/// What every traced run ends with: the registry render cost, the
/// second calibration reading, the self-time table and `trace.json`.
fn finish_trace(
    name: &str,
    ctx: &workloads::Ctx,
    rec: &spans::Recorder,
    out: &mut Outcome,
) -> std::io::Result<()> {
    layers::obs_render(out);
    let after = sys::stream_gbps(256);
    let before = ctx.calib_gbps;
    out.set("harness.calib_stream_gbps", before);
    // The traced run's timings are the wall clock's own, like its spans:
    // this is the reading to hold them against.
    out.set("harness.ref_tick_us", refclock::read(1001));
    out.note(format!(
        "calibration: {before:.2} GB/s before, {after:.2} GB/s after; disturbed = {}",
        (after / before - 1.0).abs() > 0.10
    ));
    let by_name = rec.self_time_by_name();
    let total: u64 = by_name.iter().map(|e| e.1).sum();
    for (span, self_ns, count) in by_name {
        out.note(format!(
            "self time {span}: {:.3} s over {count} spans ({:.1} %)",
            self_ns as f64 / 1e9,
            100.0 * self_ns as f64 / total.max(1) as f64
        ));
    }
    let path = std::path::Path::new(".bench_scratch").join(format!("trace-{name}.json"));
    std::fs::write(&path, rec.to_json())?;
    out.note(format!("spans written to {}", path.display()));
    Ok(())
}

fn main() -> ExitCode {
    // Before any thread exists and before the library reads them.
    for var in AMBIENT_ENV {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pdx-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.mode {
        Mode::Aa => aa::run(&args),
        _ => execute(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pdx-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_and_subcommand_form_agree() {
        let a = parse(&argv(&format!(
            "--workload ivf_ooc --seed 7 --seconds {RUN_SECONDS} --trace 1"
        )))
        .unwrap();
        assert_eq!(a.mode, Mode::Trace);
        assert_eq!((a.seed, a.quick), (7, false));
        let b = parse(&argv("trace --workload=ivf_ooc --seed=7 --quick")).unwrap();
        assert_eq!(b.mode, Mode::Trace);
        assert!(b.quick);
        assert_eq!(
            parse(&argv("--workload flat_exact --trace 0"))
                .unwrap()
                .mode,
            Mode::Run
        );
        assert_eq!(parse(&argv("aa --runs=3")).unwrap().runs, 3);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload flat_exact --seed x",
            "--workload flat_exact --trace 2",
            "--workload flat_exact --seconds 0",
            "--workload flat_exact --seconds 5",
            "--workload flat_exact --threads 4",
            "--workload",
        ] {
            assert!(parse(&argv(bad)).is_err(), "accepted: {bad:?}");
        }
    }
}
