//! **Table 11** (extension) — the concurrent collection store: reader
//! throughput while the writer churns and while a *background
//! compaction* rebuilds the segment set. Readers run lock-free against
//! atomically-swapped snapshots, so their QPS must never drop to zero
//! during maintenance — that is this table's gate (checked whenever the
//! compaction window is long enough to measure).
//!
//! Phases, per reader count:
//!
//! * `idle` — readers only, quiescent store (the baseline);
//! * `churn` — readers + one writer thread inserting/deleting;
//! * `compact` — readers + writer churn while `compact_background()`
//!   rebuilds and commits the segment set.
//!
//! ```text
//! cargo run --release -p pdx-bench --bin table11_concurrent [--quick]
//!     [--n=100000 --queries=16 --k=10 --readers=1,2,8 --window-ms=1000
//!      --seed=42]
//! ```

use pdx::prelude::*;
use pdx_bench::harness::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spawns `count` reader threads that loop over the query set until
/// `stop`, adding every completed search to `done`.
fn spawn_readers(
    count: usize,
    coll: &Arc<Collection>,
    queries: &Arc<Vec<f32>>,
    dims: usize,
    k: usize,
    stop: &Arc<AtomicBool>,
    done: &Arc<AtomicUsize>,
) -> Vec<std::thread::JoinHandle<()>> {
    let nq = queries.len() / dims;
    (0..count)
        .map(|r| {
            let coll = Arc::clone(coll);
            let queries = Arc::clone(queries);
            let stop = Arc::clone(stop);
            let done = Arc::clone(done);
            std::thread::spawn(move || {
                let opts = SearchOptions::new(k);
                let mut qi = r % nq; // spread the threads over the set
                while !stop.load(Ordering::Acquire) {
                    let q = &queries[qi * dims..(qi + 1) * dims];
                    std::hint::black_box(coll.search(q, &opts));
                    done.fetch_add(1, Ordering::AcqRel);
                    qi = (qi + 1) % nq;
                }
            })
        })
        .collect()
}

/// One writer burst: inserts three rows per delete for `window`,
/// returning ops/s. `live` tracks the writer's view of live ids.
fn churn(
    coll: &Collection,
    dims: usize,
    next_id: &mut u64,
    live: &mut Vec<u64>,
    window: Duration,
) -> f64 {
    let t0 = Instant::now();
    let mut ops = 0usize;
    while t0.elapsed() < window {
        for _ in 0..3 {
            let id = *next_id;
            *next_id += 1;
            let row: Vec<f32> = (0..dims)
                .map(|d| ((id as usize * 31 + d * 7) % 997) as f32 * 1e-2)
                .collect();
            coll.insert(id, &row).expect("insert");
            live.push(id);
            ops += 1;
        }
        if live.len() > 4 {
            // Deterministic victim: rotate through the live set.
            let victim = live.remove(ops % live.len());
            coll.delete(victim).expect("delete");
            ops += 1;
        }
    }
    ops as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

fn main() {
    let args = BenchArgs::parse(&["quick", "n", "queries", "k", "seed", "window-ms", "readers"]);
    let quick = args.flag("quick");
    let n: usize = args.get("n", if quick { 10_000 } else { 100_000 });
    let nq = args.get("queries", if quick { 8 } else { 16 }).max(1);
    let k = args.get("k", 10);
    let seed = args.get("seed", 42);
    let window = Duration::from_millis(args.get("window-ms", if quick { 150 } else { 1000 }));
    let readers: Vec<usize> = args.list("readers", &[1, 2, 8]);
    let config = StoreConfig {
        block_size: 4096,
        buffer_capacity: 4096,
        ..StoreConfig::default()
    };

    let spec = *spec_by_name("sift").expect("table 1 has sift");
    eprintln!(
        "generating {}/{} (n = {n}, queries = {nq})…",
        spec.name, spec.dims
    );
    let ds = generate(&spec, n, nq, seed);
    let dims = ds.dims();
    let queries = Arc::new(ds.queries.clone());

    let coll = Arc::new(Collection::in_memory(dims, config));
    for i in 0..n {
        coll.insert(i as u64, &ds.data[i * dims..(i + 1) * dims])
            .expect("insert");
    }
    coll.seal().expect("seal");
    let mut live: Vec<u64> = (0..n as u64).collect();
    let mut next_id = n as u64;

    println!(
        "\nTable 11 — concurrent store (sift-like, n = {n}, queries = {nq}, k = {k}, \
         window = {:?})",
        window
    );
    let header: Vec<String> = [
        "readers",
        "phase",
        "reader QPS",
        "writer ops/s",
        "window ms",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let widths = vec![7usize, 8, 11, 12, 9];
    println!("{}", row(&header, &widths));
    println!("{}", "-".repeat(55));

    let mut csv = Vec::new();
    let mut starved = false;
    for &r in &readers {
        // Fresh tombstones so each round's compaction has real work.
        let victims: Vec<u64> = live.iter().copied().step_by(10).collect();
        for &id in &victims {
            coll.delete(id).expect("delete");
        }
        live.retain(|id| !victims.contains(id));

        for phase in ["idle", "churn", "compact"] {
            let stop = Arc::new(AtomicBool::new(false));
            let done = Arc::new(AtomicUsize::new(0));
            let handles = spawn_readers(r, &coll, &queries, dims, k, &stop, &done);
            let t0 = Instant::now();
            let mut writer_ops = 0.0;
            match phase {
                "idle" => std::thread::sleep(window),
                "churn" => {
                    writer_ops = churn(&coll, dims, &mut next_id, &mut live, window);
                }
                _ => {
                    let job = coll.compact_background().expect("compact job");
                    // Churn in parallel with the rebuild, then wait for
                    // the commit: the measured window covers the whole
                    // background compaction.
                    writer_ops = churn(&coll, dims, &mut next_id, &mut live, window / 4);
                    job.wait().expect("compaction");
                }
            }
            let elapsed = t0.elapsed().as_secs_f64();
            stop.store(true, Ordering::Release);
            for h in handles {
                h.join().expect("reader");
            }
            let searches = done.load(Ordering::Acquire);
            let qps = searches as f64 / elapsed.max(1e-12);
            if phase == "compact" && searches == 0 && elapsed > 0.05 {
                starved = true;
                eprintln!("WARNING: readers starved during a {elapsed:.3}s compaction");
            }
            let cells: Vec<String> = vec![
                r.to_string(),
                phase.to_string(),
                format!("{qps:.0}"),
                format!("{writer_ops:.0}"),
                format!("{:.1}", elapsed * 1e3),
            ];
            println!("{}", row(&cells, &widths));
            csv.push(format!(
                "{phase},{r},{qps:.1},{writer_ops:.1},{:.1},{searches}",
                elapsed * 1e3
            ));
        }
    }

    write_csv(
        "table11_concurrent.csv",
        "phase,readers,reader_qps,writer_ops_s,window_ms,searches",
        &csv,
    );
    if starved {
        eprintln!("\nFAIL: reader QPS dropped to zero during a measurable background compaction");
        std::process::exit(1);
    }
    println!("\nreaders kept answering through every background compaction");
}
