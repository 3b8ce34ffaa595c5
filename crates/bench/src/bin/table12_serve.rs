//! Table 12 (extension): open-loop load test of the `pdx serve` network
//! layer — offered load vs completion, rejection, and tail latency.
//!
//! A closed-loop load generator can never observe overload: it slows
//! down with the server. This harness is **open-loop**: senders emit
//! search requests at scheduled Poisson arrival times (exponential
//! inter-arrivals from the vendored `rand`) regardless of how fast
//! responses come back, while separate reader threads drain and
//! classify every response. Three phases offer 0.5×, 1×, and 2× the
//! measured saturation throughput.
//!
//! Graceful-degradation gates (the run exits non-zero on violation):
//!
//! * every request sent is answered — typed `busy` / `deadline` frames
//!   count as answers; nothing times out unanswered (no stalls);
//! * under 2× saturation the server **sheds** load: either typed
//!   rejections appear, or it actually kept up (≥ 95 % completed);
//! * some requests still complete at 2× (no stall-to-zero), and the
//!   p99 of completed requests stays bounded by queueing (deadline +
//!   service), not unbounded buffering;
//! * remote results are bit-identical to a direct in-process search.
//!
//! ```text
//! cargo run --release --bin table12_serve [-- --quick --n=… --seconds=…]
//! ```

use pdx::prelude::*;
use pdx::serve::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use pdx::serve::{Backend, Request, Response, ServeConfig, Server};
use pdx_bench::harness::{percentile, row, write_csv, BenchArgs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Response tallies and completed-request latencies of one phase.
#[derive(Debug, Default)]
struct PhaseOutcome {
    sent: usize,
    ok: usize,
    busy: usize,
    deadline: usize,
    other: usize,
    /// Seconds, completed requests only.
    latencies: Vec<f64>,
}

impl PhaseOutcome {
    fn answered(&self) -> usize {
        self.ok + self.busy + self.deadline + self.other
    }
}

/// One connection's open-loop sender/reader pair: emits `Search`
/// requests at the scheduled arrival instants, classifies every reply.
fn drive_connection(
    addr: std::net::SocketAddr,
    queries: &[Vec<f32>],
    k: usize,
    deadline_ms: u32,
    rate_per_conn: f64,
    duration: Duration,
    seed: u64,
) -> PhaseOutcome {
    let stream = TcpStream::connect(addr).expect("connect load connection");
    stream.set_nodelay(true).ok();
    let mut write_half = stream.try_clone().expect("clone stream");
    let mut read_half = stream;
    read_half
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok();

    let send_times = Mutex::new(Vec::<Instant>::new());
    let sent = AtomicUsize::new(0);
    let done_sending = AtomicBool::new(false);
    let mut outcome = PhaseOutcome::default();

    std::thread::scope(|scope| {
        // Sender: open loop — the schedule, not the server, decides
        // when the next request goes out.
        scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mean_gap = 1.0 / rate_per_conn;
            let started = Instant::now();
            let mut next_at = started;
            let mut seq: u32 = 0;
            while started.elapsed() < duration {
                let now = Instant::now();
                if next_at > now {
                    std::thread::sleep(next_at - now);
                }
                seq += 1;
                let query = &queries[(seq as usize - 1) % queries.len()];
                let req = Request::Search {
                    deadline_ms,
                    k: k as u32,
                    nprobe: 0,
                    refine: 0,
                    query: query.clone(),
                };
                send_times.lock().unwrap().push(Instant::now());
                sent.fetch_add(1, Ordering::Release);
                if write_frame(&mut write_half, seq, &req.encode()).is_err() {
                    break;
                }
                // Exponential inter-arrival: Poisson process at the
                // phase rate (1 - U avoids ln(0)).
                let gap = -mean_gap * (1.0 - rng.random::<f64>()).ln();
                next_at += Duration::from_secs_f64(gap);
            }
            done_sending.store(true, Ordering::Release);
        });

        // Reader: drains replies until every sent request is answered
        // (or the server goes silent for 5 s — a gated stall).
        let reader = scope.spawn(|| {
            let mut out = PhaseOutcome::default();
            let mut last_progress = Instant::now();
            loop {
                let received = out.answered();
                if done_sending.load(Ordering::Acquire) && received >= sent.load(Ordering::Acquire)
                {
                    break;
                }
                if last_progress.elapsed() > Duration::from_secs(5) {
                    break; // stall: unanswered requests remain
                }
                let (seq, msg) = match read_frame(&mut read_half, DEFAULT_MAX_FRAME) {
                    Ok(frame) => frame,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => break,
                };
                last_progress = Instant::now();
                let sent_at = send_times.lock().unwrap()[seq as usize - 1];
                match Response::decode(&msg) {
                    Ok(Response::Neighbors(_)) => {
                        out.ok += 1;
                        out.latencies.push(sent_at.elapsed().as_secs_f64());
                    }
                    Ok(Response::Error { kind, .. }) => match kind {
                        pdx::serve::ErrorKind::Busy => out.busy += 1,
                        pdx::serve::ErrorKind::DeadlineExceeded => out.deadline += 1,
                        _ => out.other += 1,
                    },
                    _ => out.other += 1,
                }
            }
            out
        });
        outcome = reader.join().expect("reader thread");
    });
    outcome.sent = sent.load(Ordering::Acquire);
    outcome
}

/// Runs one offered-load phase across `conns` connections.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    addr: std::net::SocketAddr,
    queries: &[Vec<f32>],
    k: usize,
    deadline_ms: u32,
    rate: f64,
    duration: Duration,
    conns: usize,
    seed: u64,
) -> PhaseOutcome {
    let per_conn = rate / conns as f64;
    let mut merged = PhaseOutcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    drive_connection(
                        addr,
                        queries,
                        k,
                        deadline_ms,
                        per_conn,
                        duration,
                        seed + c as u64,
                    )
                })
            })
            .collect();
        for h in handles {
            let out = h.join().expect("connection pair");
            merged.sent += out.sent;
            merged.ok += out.ok;
            merged.busy += out.busy;
            merged.deadline += out.deadline;
            merged.other += out.other;
            merged.latencies.extend(out.latencies);
        }
    });
    merged
}

fn main() {
    let args = BenchArgs::parse(&[
        "quick",
        "n",
        "k",
        "queries",
        "conns",
        "workers",
        "queue-depth",
        "deadline-ms",
        "seconds",
        "seed",
    ]);
    let quick = args.flag("quick");
    let n: usize = args.get("n", if quick { 4_000 } else { 20_000 });
    let k: usize = args.get("k", 10);
    let n_queries: usize = args.get("queries", 32);
    let conns: usize = args.get("conns", 4);
    let workers: usize = args.get("workers", 2);
    let queue_depth: usize = args.get("queue-depth", 32);
    let deadline_ms: u32 = args.get("deadline-ms", 100);
    let seconds: f64 = args.get("seconds", if quick { 0.8 } else { 2.5 });
    let seed: u64 = args.get("seed", 42);

    eprintln!("table12_serve: open-loop load test of `pdx serve`");
    let spec = *spec_by_name("sift").expect("sift spec");
    let ds = generate(&spec, n, n_queries, seed);
    let dims = ds.dims();
    let flat = FlatPdx::with_defaults(&ds.data, ds.len, dims);
    let queries: Vec<Vec<f32>> = (0..n_queries).map(|qi| ds.query(qi).to_vec()).collect();

    // Direct in-process answers, for the bit-identity gate.
    let opts = SearchOptions::new(k).with_threads(1);
    let direct: Vec<Vec<Neighbor>> = {
        let index: &dyn VectorIndex = &flat;
        queries.iter().map(|q| index.search(q, &opts)).collect()
    };

    let config = ServeConfig {
        workers,
        queue_depth,
        default_deadline_ms: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(Backend::frozen(Box::new(flat)), ("127.0.0.1", 0), config)
        .expect("start server");
    let addr = server.local_addr();
    eprintln!(
        "  serving sift/{dims} (n = {n}) on {addr}: {workers} worker(s), queue depth {queue_depth}"
    );

    // Gate: remote results bit-identical to the direct search.
    let mut client = pdx::serve::Client::connect(addr).expect("connect client");
    for (qi, q) in queries.iter().enumerate() {
        let remote = client.search(q, k).expect("remote search");
        assert_eq!(
            remote, direct[qi],
            "remote results diverge from direct search at query {qi}"
        );
    }
    eprintln!("  bit-identity: {n_queries} remote queries match direct search exactly");

    // Saturation estimate: closed-loop mean service time of one worker,
    // scaled by the worker count.
    let probe = 100.min(n_queries * 8);
    let t0 = Instant::now();
    for i in 0..probe {
        client.search(&queries[i % n_queries], k).expect("probe");
    }
    let service = t0.elapsed().as_secs_f64() / probe as f64;
    let saturation = workers as f64 / service;
    eprintln!(
        "  measured service time {:.2} ms → saturation ≈ {:.0} QPS at {workers} worker(s)",
        service * 1e3,
        saturation
    );

    let mut rows = Vec::new();
    let mut table = Vec::new();
    let widths = [6usize, 10, 7, 7, 7, 9, 6, 9, 9, 9];
    table.push(row(
        &[
            "load".into(),
            "offered".into(),
            "sent".into(),
            "ok".into(),
            "busy".into(),
            "deadline".into(),
            "other".into(),
            "p50 ms".into(),
            "p99 ms".into(),
            "p999 ms".into(),
        ],
        &widths,
    ));

    let mut overload = PhaseOutcome::default();
    for &mult in &[0.5, 1.0, 2.0] {
        let rate = (saturation * mult).max(conns as f64);
        let outcome = run_phase(
            addr,
            &queries,
            k,
            deadline_ms,
            rate,
            Duration::from_secs_f64(seconds),
            conns,
            seed + (mult * 1000.0) as u64,
        );
        let p50 = percentile(&outcome.latencies, 50.0) * 1e3;
        let p99 = percentile(&outcome.latencies, 99.0) * 1e3;
        let p999 = percentile(&outcome.latencies, 99.9) * 1e3;
        table.push(row(
            &[
                format!("{mult:.1}x"),
                format!("{rate:.0}"),
                format!("{}", outcome.sent),
                format!("{}", outcome.ok),
                format!("{}", outcome.busy),
                format!("{}", outcome.deadline),
                format!("{}", outcome.other),
                format!("{p50:.2}"),
                format!("{p99:.2}"),
                format!("{p999:.2}"),
            ],
            &widths,
        ));
        rows.push(format!(
            "{mult},{rate:.1},{},{},{},{},{},{p50:.3},{p99:.3},{p999:.3}",
            outcome.sent, outcome.ok, outcome.busy, outcome.deadline, outcome.other
        ));
        // Gate: nothing goes unanswered at any load.
        if outcome.answered() < outcome.sent {
            eprintln!(
                "GATE FAILED: {} of {} requests never answered at {mult}x load",
                outcome.sent - outcome.answered(),
                outcome.sent
            );
            std::process::exit(1);
        }
        if mult == 2.0 {
            overload = outcome;
        }
    }

    println!("\nTable 12: open-loop load vs `pdx serve` (sift/{dims}, n = {n})\n");
    for line in &table {
        println!("  {line}");
    }
    write_csv(
        "table12_serve.csv",
        "load_multiplier,offered_qps,sent,ok,busy,deadline_exceeded,other,p50_ms,p99_ms,p999_ms",
        &rows,
    );

    // Graceful-degradation gates at 2× saturation.
    let shed = overload.busy + overload.deadline;
    if shed == 0 && (overload.ok as f64) < 0.95 * overload.sent as f64 {
        eprintln!(
            "GATE FAILED: at 2x saturation the server neither shed load (0 typed rejections) \
             nor kept up ({} / {} completed)",
            overload.ok, overload.sent
        );
        std::process::exit(1);
    }
    if overload.ok == 0 {
        eprintln!("GATE FAILED: stall-to-zero — no request completed at 2x saturation");
        std::process::exit(1);
    }
    let p99_bound = (deadline_ms as f64 + 20.0 * service * 1e3 + 250.0) / 1e3;
    let p99 = percentile(&overload.latencies, 99.0);
    if p99 > p99_bound {
        eprintln!(
            "GATE FAILED: p99 of completed requests at 2x saturation is {:.1} ms \
             (bound {:.1} ms) — queueing is unbounded",
            p99 * 1e3,
            p99_bound * 1e3
        );
        std::process::exit(1);
    }
    eprintln!(
        "\n  gates passed: all answered; at 2x saturation {} typed rejections \
         ({} busy + {} deadline), {} completed, p99 {:.1} ms ≤ {:.1} ms",
        shed,
        overload.busy,
        overload.deadline,
        overload.ok,
        p99 * 1e3,
        p99_bound * 1e3
    );
    server.shutdown();
}
