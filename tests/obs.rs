//! Observability integration suite.
//!
//! Three pillars under test:
//!
//! * **Zero overhead** — enabling per-query tracing
//!   ([`SearchOptions::with_trace`]) must not change a single result
//!   bit on any deployment, at any thread count, on either entry point
//!   (`search` / `search_batch`).
//!   Tracing only adds timer and counter side effects; the scan code
//!   it observes is the same monomorphized arithmetic.
//! * **Exposition** — a running [`MetricsServer`] (and the full
//!   `pdx-serve` server with `metrics_port` set) answers `GET
//!   /metrics` in Prometheus text format 0.0.4. The grammar is checked
//!   with a hand parser in-test; malformed or partial HTTP must never
//!   panic the listener, and concurrent scrapes during search churn
//!   must all parse.
//! * **Registry laws** — counter/gauge/histogram invariants under
//!   randomized inputs (proptest) and contention.

use pdx::obs::{Counter, Gauge, Histogram, MetricsServer, Registry};
use pdx::prelude::*;
use pdx::serve::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn random_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * d).map(|_| rng.random::<f32>() * 10.0).collect()
}

/// The four resident deployments over one collection, as trait objects
/// (the same set the engine conformance suite exercises), plus the two
/// fitted-pruner adapters over the rotated collection.
fn deployments(rows: &[f32], n: usize, d: usize) -> Vec<Box<dyn VectorIndex>> {
    let index = IvfIndex::build(rows, n, d, 12, 8, 7);
    let ads = AdSampling::fit(d, 5);
    let by_ads = ads.transform_collection(rows, n, 2);
    let bsa = Bsa::fit(rows, n, d, usize::MAX);
    let mut by_bsa = FlatPdx::new(&bsa.transform_collection(rows, n, 2), n, d, 150, 16);
    let sched = checkpoints(StepPolicy::default(), d);
    for block in &mut by_bsa.collection.blocks {
        bsa.attach_aux(block, &sched);
    }
    vec![
        Box::new(FlatPdx::new(rows, n, d, 150, 16)),
        Box::new(IvfPdx::new(rows, d, &index.assignments, 16)),
        Box::new(FlatSq8::build(rows, n, d, 150, 16)),
        Box::new(IvfSq8::new(rows, d, &index.assignments, 16)),
        Box::new(PrunedIvf::new(
            IvfPdx::new(&by_ads, d, &index.assignments, 16),
            ads,
        )),
        Box::new(PrunedFlat::new(by_bsa, bsa)),
    ]
}

fn assert_same_hits(a: &[Neighbor], b: &[Neighbor], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: result lengths diverge");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{ctx}: ids diverge");
        assert_eq!(
            x.distance.to_bits(),
            y.distance.to_bits(),
            "{ctx}: distance bits diverge"
        );
    }
}

/// The zero-overhead conformance claim: tracing on vs off is
/// bit-identical per deployment × entry point × thread count.
#[test]
fn tracing_changes_no_result_bits() {
    let (n, d, k) = (700, 16, 10);
    let rows = random_rows(n, d, 3);
    let deps = deployments(&rows, n, d);
    let queries = random_rows(8, d, 99);
    for dep in &deps {
        for threads in [1usize, 2, 8] {
            let off = SearchOptions::new(k).with_threads(threads);
            let on = off.with_trace(true);
            let ctx = format!("{} @ {threads} thread(s)", dep.kind());
            for q in queries.chunks_exact(d) {
                assert_same_hits(
                    &dep.search(q, &off),
                    &dep.search(q, &on),
                    &format!("{ctx} search"),
                );
            }
            let batch_off = dep.search_batch(&queries, &off);
            let batch_on = dep.search_batch(&queries, &on);
            for (a, b) in batch_off.iter().zip(&batch_on) {
                assert_same_hits(a, b, &format!("{ctx} search_batch"));
            }
        }
    }
}

/// Traced searches publish work counters into the process registry,
/// and the paper-native pruning ratio renders as a derived family.
#[test]
fn traced_searches_reach_the_registry() {
    let (n, d, k) = (600, 16, 5);
    let rows = random_rows(n, d, 7);
    let flat = FlatPdx::new(&rows, n, d, 150, 16);
    let dep: &dyn VectorIndex = &flat;
    let opts = SearchOptions::new(k).with_trace(true);
    for q in random_rows(4, d, 123).chunks_exact(d) {
        let _ = dep.search(q, &opts);
    }
    let mut out = Registry::global().render();
    pdx::core::obs::render_derived(&mut out);
    for family in [
        "pdx_search_latency_us",
        "pdx_search_blocks_visited_total",
        "pdx_search_dims_scanned_total",
        "pdx_search_pruning_ratio",
    ] {
        assert!(out.contains(family), "{family} missing from:\n{out}");
    }
    assert!(
        out.contains("deployment=\"flat-pdx\""),
        "per-deployment label missing:\n{out}"
    );
}

/// Every deployment whose scan is PDXearch publishes the profiled phase
/// breakdown under its own kind: preparing the query (the rotation of
/// the fitted-pruner adapters, the code-space form of the SQ8 ones) is
/// the `preprocess` phase, the centroid ranking `find_buckets`, and the
/// work counters are the scan's — SQ8 included, whose rerank is charged
/// to `distance` and counted in `rerank_candidates`.
#[test]
fn pdxearch_deployments_publish_attributed_traces() {
    let (n, d, k) = (600, 16, 5);
    let rows = random_rows(n, d, 11);
    let deps = deployments(&rows, n, d);
    let opts = SearchOptions::new(k).with_trace(true);
    let q = random_rows(1, d, 12);
    for (kind, routed, reranked) in [
        ("flat-pdx", false, 0),
        ("ivf-pdx", true, 0),
        ("flat-sq8", false, k * DEFAULT_REFINE),
        ("ivf-sq8", true, k * DEFAULT_REFINE),
        ("pruned-ivf-adsampling", true, 0),
        ("pruned-flat-bsa", false, 0),
    ] {
        let dep = deps.iter().find(|dep| dep.kind() == kind).unwrap();
        let (hits, trace) = pdx::obs::trace::capture(|| dep.search(&q, &opts));
        assert_eq!(hits.len(), k);
        assert_eq!(trace.deployment, kind);
        assert_eq!(trace.kernel_isa, active_kernel_isa().name(), "{kind}");
        assert!(trace.preprocess_ns > 0, "{kind}: preparation unattributed");
        assert!(trace.distance_ns > 0, "{kind}: scan unattributed");
        assert_eq!(trace.find_buckets_ns > 0, routed, "{kind}: routing");
        assert!(trace.blocks_visited > 0 && trace.vectors_visited > 0);
        assert!(trace.dims_scanned > 0, "{kind}: no work counted");
        assert!(
            trace.dims_scanned <= trace.dims_total,
            "{kind}: over-counted"
        );
        assert_eq!(trace.rerank_candidates, reranked as u64, "{kind}: rerank");
        assert!(
            trace.preprocess_ns + trace.find_buckets_ns + trace.bounds_ns + trace.distance_ns
                <= trace.total_ns,
            "{kind}: phases exceed the total"
        );
        let (_, untraced) = pdx::obs::trace::capture(|| dep.search(&q, &opts.with_trace(false)));
        assert_eq!(untraced.total_ns, 0, "{kind}: untraced search published");
    }
}

// ---------------------------------------------------------------- HTTP

fn render_full() -> String {
    let mut out = Registry::global().render();
    pdx::core::obs::render_derived(&mut out);
    out
}

fn start_metrics_server() -> MetricsServer {
    MetricsServer::start(0, Arc::new(render_full)).expect("bind metrics listener")
}

/// One blocking HTTP exchange; returns the raw response (the server
/// always answers `Connection: close`, so read-to-EOF terminates).
fn http_exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(request).expect("send");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let raw = http_exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

fn is_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().unwrap().is_ascii_alphabetic()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Hand check of the Prometheus text-format grammar: every line is a
/// `# HELP`/`# TYPE` comment or a `name[{labels}] value` sample whose
/// name is legal, whose labels are `key="value"` pairs, and whose
/// value parses as a float. `TYPE` must precede the family's samples.
fn assert_prometheus_grammar(body: &str) {
    let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown comment keyword in: {line}"
            );
            assert!(is_metric_name(name), "bad metric name in: {line}");
            if keyword == "TYPE" {
                let kind = parts.next().unwrap_or("");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "bad TYPE in: {line}"
                );
                typed.insert(name.to_string());
            }
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has name and value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in: {line}"
        );
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                let labels = labels.strip_suffix('}').expect("balanced label braces");
                for pair in labels.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').expect("label key=value");
                    assert!(is_metric_name(k), "bad label key in: {line}");
                    assert!(
                        v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                        "unquoted label value in: {line}"
                    );
                }
                name
            }
            None => series,
        };
        // Histogram series append _bucket/_sum/_count to the family.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains(*f))
            .unwrap_or(name);
        assert!(is_metric_name(name), "bad sample name in: {line}");
        assert!(
            typed.contains(family),
            "sample before its TYPE comment: {line}"
        );
    }
    assert!(!typed.is_empty(), "no metric families rendered");
}

#[test]
fn metrics_endpoint_speaks_prometheus_grammar() {
    // Populate the registry: traced searches + the store families.
    let (n, d) = (500, 16);
    let rows = random_rows(n, d, 11);
    let flat = FlatPdx::new(&rows, n, d, 150, 16);
    let dep: &dyn VectorIndex = &flat;
    let opts = SearchOptions::new(5).with_trace(true);
    let _ = dep.search(&rows[..d], &opts);
    pdx::core::obs::touch(dep.kind()); // cache + search families
    pdx::store::obs::touch(); // WAL + maintenance families

    let server = start_metrics_server();
    let (head, body) = http_get(server.local_addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type missing: {head}"
    );
    assert_prometheus_grammar(&body);
    for family in [
        "pdx_search_latency_us",
        "pdx_search_pruning_ratio",
        "pdx_wal_fsync_us",
        "pdx_store_maintenance_us",
        "pdx_cache_hits_total",
        "pdx_cache_misses_total",
        "pdx_cache_budget_bytes",
    ] {
        assert!(body.contains(family), "{family} missing from scrape");
    }

    let (head, body) = http_get(server.local_addr(), "/healthz");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(body, "ok\n");
}

/// Malformed, partial, oversized and wrong-method requests: the
/// listener answers (or drops) and closes, never panics, and keeps
/// serving well-formed scrapes afterwards.
#[test]
fn malformed_http_never_takes_the_listener_down() {
    let server = start_metrics_server();
    let addr = server.local_addr();

    // Each probe is answered with an error status or silently closed.
    let probes: Vec<Vec<u8>> = vec![
        b"\r\n\r\n".to_vec(),
        b"GARBAGE\r\n\r\n".to_vec(),
        b"GET\r\n\r\n".to_vec(),
        b"GET /metrics\r\n\r\n".to_vec(),        // missing version
        b"GET /metrics SMTP/9\r\n\r\n".to_vec(), // wrong protocol
        b"POST /metrics HTTP/1.1\r\n\r\n".to_vec(), // wrong method
        b"GET /nope HTTP/1.1\r\n\r\n".to_vec(),  // wrong path
        vec![0xFF, 0xFE, 0x00, b'\r', b'\n', b'\r', b'\n'], // not UTF-8
        vec![b'A'; 10_000],                      // head overruns the cap
    ];
    for probe in &probes {
        let raw = http_exchange(addr, probe);
        assert!(
            raw.is_empty()
                || raw.starts_with("HTTP/1.1 400")
                || raw.starts_with("HTTP/1.1 404")
                || raw.starts_with("HTTP/1.1 405"),
            "unexpected response to malformed probe: {raw:?}"
        );
    }
    // A partial request that just hangs up mid-line.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /met").expect("send partial");
        drop(s);
    }
    // The listener survived all of it.
    let (head, _) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
}

/// Concurrent scrapes while traced searches churn the counters: every
/// scrape must come back 200 with a grammatical body.
#[test]
fn concurrent_scrapes_during_search_churn() {
    let (n, d) = (500, 16);
    let rows = random_rows(n, d, 21);
    let flat = Arc::new(FlatPdx::new(&rows, n, d, 150, 16));
    let server = start_metrics_server();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for worker in 0..2 {
            let flat = Arc::clone(&flat);
            scope.spawn(move || {
                let opts = SearchOptions::new(5).with_trace(true);
                let queries = random_rows(40, d, 1000 + worker);
                for q in queries.chunks_exact(d) {
                    let dep: &dyn VectorIndex = flat.as_ref();
                    let _ = dep.search(q, &opts);
                }
            });
        }
        for _ in 0..3 {
            scope.spawn(move || {
                for _ in 0..5 {
                    let (head, body) = http_get(addr, "/metrics");
                    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                    assert_prometheus_grammar(&body);
                }
            });
        }
    });
}

/// The `pdx_serve_*` families a server without a slow-query log exposes
/// before its first request, with their kinds.
const SERVE_FAMILIES: [(&str, &str); 8] = [
    ("pdx_serve_requests_completed_total", "counter"),
    ("pdx_serve_rejected_total", "counter"),
    ("pdx_serve_in_flight", "gauge"),
    ("pdx_serve_queue_depth", "gauge"),
    ("pdx_serve_queue_capacity", "gauge"),
    ("pdx_serve_uptime_seconds", "gauge"),
    ("pdx_serve_latency_us", "histogram"),
    ("pdx_serve_resident_bytes", "gauge"),
];

/// Full-stack: a `pdx-serve` server with `metrics_port` set exposes
/// its own families plus the search counters, completed-request
/// counters are monotone across scrapes, and the `Stats` frame reads
/// the same counters the scrape does — per server, not per process.
#[test]
fn serve_metrics_endpoint_counts_requests() {
    let (n, d, k) = (400, 16, 5);
    let rows = random_rows(n, d, 31);
    let flat = FlatPdx::new(&rows, n, d, 150, 16);

    // ServeConfig takes a concrete metrics port (0 = disabled), so
    // grab an OS-assigned free port first and hand it over; retry in
    // case another process snatches it between drop and bind.
    let mut started = None;
    for _ in 0..5 {
        let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("probe port");
        let port = probe.local_addr().unwrap().port();
        drop(probe);
        let config = ServeConfig {
            metrics_port: port,
            ..ServeConfig::default()
        };
        let flat = FlatPdx::new(&rows, n, d, 150, 16);
        match Server::start(Backend::frozen(Box::new(flat)), ("127.0.0.1", 0), config) {
            Ok(s) => {
                started = Some(s);
                break;
            }
            Err(_) => continue,
        }
    }
    let server = started.expect("start server with metrics port");
    let metrics_addr = server.metrics_addr().expect("metrics listener bound");

    let (_, before) = http_get(metrics_addr, "/metrics");
    assert_prometheus_grammar(&before);
    for (family, kind) in SERVE_FAMILIES {
        let typed = format!("# TYPE {family} {kind}\n");
        assert!(before.contains(&typed), "{typed:?} missing from:\n{before}");
    }
    let completed_before = sample_value(&before, "pdx_serve_requests_completed_total");

    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    for q in random_rows(6, d, 77).chunks_exact(d) {
        let hits = client.search(q, k).expect("remote search");
        assert_eq!(hits.len(), k);
        // Tracing is on (metrics port bound): results still match the
        // untraced direct search bit-for-bit.
        let direct: &dyn VectorIndex = &flat;
        assert_same_hits(
            &hits,
            &direct.search(q, &SearchOptions::new(k)),
            "served vs direct",
        );
    }

    let (head, after) = http_get(metrics_addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_prometheus_grammar(&after);
    for family in [
        "pdx_serve_requests_completed_total",
        "pdx_serve_latency_us",
        "pdx_serve_in_flight",
        "pdx_search_latency_us",
        "pdx_search_pruning_ratio",
        "pdx_wal_fsync_us",
        "pdx_store_maintenance_us",
        "pdx_cache_hits_total",
    ] {
        assert!(after.contains(family), "{family} missing from scrape");
    }
    let completed_after = sample_value(&after, "pdx_serve_requests_completed_total");
    assert!(
        completed_after >= completed_before + 6.0,
        "completed counter not monotone: {completed_before} -> {completed_after}"
    );

    // Two malformed payloads (an unknown tag, a truncated search), each
    // answered with a typed protocol error.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for garbage in [vec![0xFFu8, 1, 2, 3], vec![0x02u8, 0, 0, 0, 0]] {
        write_frame(&mut raw, 5, &garbage).expect("send");
        let (seq, _) = read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("typed reply");
        assert_eq!(seq, 5);
    }
    // The Stats frame and a scrape taken at rest read the same counters.
    let stats = loop {
        let stats = client.stats().expect("stats");
        if stats.in_flight == 0 && stats.queue_depth == 0 {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let (_, body) = http_get(metrics_addr, "/metrics");
    let rejected = |reason: &str| format!("pdx_serve_rejected_total{{reason=\"{reason}\"}}");
    for (series, want) in [
        (
            "pdx_serve_requests_completed_total".to_string(),
            stats.completed,
        ),
        (rejected("busy"), stats.busy_rejected),
        (rejected("deadline"), stats.deadline_rejected),
        (rejected("protocol"), stats.protocol_errors),
        ("pdx_serve_in_flight".to_string(), stats.in_flight),
        ("pdx_serve_queue_depth".to_string(), stats.queue_depth),
        ("pdx_serve_queue_capacity".to_string(), stats.queue_capacity),
        ("pdx_serve_latency_us_count".to_string(), stats.completed),
    ] {
        assert_eq!(series_value(&body, &series), want, "{series}");
    }
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.protocol_errors, 2);

    // A second server in the same process counts for itself.
    let flat = FlatPdx::new(&rows, n, d, 150, 16);
    let config = ServeConfig::default();
    let other = Server::start(Backend::frozen(Box::new(flat)), ("127.0.0.1", 0), config)
        .expect("start a second server");
    let fresh = other.stats();
    assert_eq!((fresh.completed, fresh.protocol_errors), (0, 0));
}

/// The value of the sample whose series (name and labels) is `series`.
fn series_value(body: &str, series: &str) -> u64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .find(|(s, _)| *s == series)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample for {series}"))
}

/// First sample value of `family` in an exposition body.
fn sample_value(body: &str, family: &str) -> f64 {
    body.lines()
        .find(|l| !l.starts_with('#') && l.starts_with(family))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample for {family}"))
}

// ------------------------------------------------------- registry laws

proptest! {
    /// A counter is the sum of its increments.
    #[test]
    fn counter_sums_adds(adds in proptest::collection::vec(0u64..10_000, 0..50)) {
        let c = Counter::new();
        for &a in &adds {
            c.add(a);
        }
        prop_assert_eq!(c.get(), adds.iter().sum::<u64>());
    }

    /// A gauge applies add/sub in order, saturating at zero.
    #[test]
    fn gauge_saturates_at_zero(ops in proptest::collection::vec((0u8..2, 0u64..10_000), 0..50)) {
        let g = Gauge::new();
        let mut model = 0u64;
        for &(up, n) in &ops {
            if up == 1 {
                g.add(n);
                model = model.saturating_add(n);
            } else {
                g.sub(n);
                model = model.saturating_sub(n);
            }
        }
        prop_assert_eq!(g.get(), model);
    }

    /// Histogram laws: count and sum are exact; quantiles are
    /// monotone in q; the max quantile over-reports the true max by
    /// at most the documented 12.5 % bucket error; the cumulative
    /// octave counts are non-decreasing and bounded by count.
    #[test]
    fn histogram_laws(values in proptest::collection::vec(0u64..1 << 30, 1..200)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());

        let max = *values.iter().max().unwrap();
        let q100 = h.quantile(1.0);
        prop_assert!(q100 >= max, "q(1.0) = {} < max = {}", q100, max);
        prop_assert!(
            q100 <= max + max / 8 + 1,
            "q(1.0) = {} overshoots max = {} past the bucket error",
            q100,
            max
        );

        let mut last = 0u64;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= last, "quantiles not monotone at q = {}", q);
            last = v;
        }

        let octaves = h.cumulative_octaves();
        prop_assert!(!octaves.is_empty());
        let mut last_le = 0u64;
        let mut last_cum = 0u64;
        for &(le, cum) in &octaves {
            prop_assert!(le >= last_le, "octave bounds not increasing");
            prop_assert!(cum >= last_cum, "cumulative counts decrease");
            last_le = le;
            last_cum = cum;
        }
        prop_assert!(last_cum <= h.count());
    }
}

/// Contended recording: every increment from every thread lands.
#[test]
fn histogram_is_lossless_under_contention() {
    let h = Arc::new(Histogram::new());
    let per_thread = 5_000u64;
    let threads = 8;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let h = Arc::clone(&h);
            scope.spawn(move || {
                for i in 0..per_thread {
                    h.record(t * 1_000 + i % 977);
                }
            });
        }
    });
    assert_eq!(h.count(), per_thread * threads);
}
