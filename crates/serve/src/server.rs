//! The query server: accept loop, bounded admission queue, deadline
//! enforcement, and worker dispatch over any [`VectorIndex`].
//!
//! ## Thread model
//!
//! Every thread is a named [`spawn_job`] job:
//!
//! * one **accept** thread owns the listener and spawns one
//!   **connection** thread per client;
//! * connection threads read frames, answer `Ping`/`Stats` and
//!   protocol errors inline, and push everything else onto the bounded
//!   admission queue (full queue → typed `Busy` frame, no blocking);
//! * `workers` **worker** threads drain the queue, drop requests whose
//!   deadline passed while queued (typed `DeadlineExceeded` frame), and
//!   execute the rest against the backend.
//!
//! Responses carry the request's sequence number and go out through a
//! per-connection writer mutex, so one connection may pipeline requests
//! and receive replies out of order. All blocking reads use a short
//! timeout and poll the server's stop flag, which is what makes
//! [`Server::shutdown`] clean: no leaked threads, port released.
//!
//! ## Counters
//!
//! A server counts into its own [`Registry`] (not the process-global
//! one, so two servers in one process keep separate counts). The `Stats`
//! frame reads those handles, and `GET /metrics` renders that registry
//! ahead of the process-global one: both are views of one store.

use crate::proto::{
    check_frame_len, write_frame, ErrorKind, Request, Response, StatsReport, DEFAULT_MAX_FRAME,
};
use pdx_core::codec::{read_vec, Source, Stream};
use pdx_core::engine::{check_vectors, SearchOptions, VectorError, VectorIndex};
use pdx_core::exec::{resolve_threads, spawn_job, JobHandle};
use pdx_core::KernelPolicy;
use pdx_engine::{OpenOptions, Opened};
use pdx_obs::{trace, Counter, Gauge, Histogram, MetricsServer, Registry, SlowQueryLog};
use pdx_store::{Collection, StoreError};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often blocked reads and idle workers re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Server tuning knobs (all have serviceable defaults).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads draining the admission queue (`0` = resolve from
    /// `PDX_THREADS` / hardware, like every other parallel region).
    pub workers: usize,
    /// Admission queue capacity; a request arriving when the queue
    /// holds this many gets a typed `Busy` frame instead of waiting.
    pub queue_depth: usize,
    /// Deadline substituted for requests that carry none (`0` = no
    /// default, such requests never expire).
    pub default_deadline_ms: u32,
    /// Cap on a frame's payload length; larger frames are rejected
    /// before allocation and the connection is closed.
    pub max_frame: u32,
    /// Kernel policy applied to every search this server executes
    /// (distances are bit-identical across policies). The resolved ISA
    /// is surfaced in the `Stats` report.
    pub kernel: KernelPolicy,
    /// Port for the HTTP exposition endpoint (`GET /metrics` in
    /// Prometheus text format, `GET /healthz`); `0` disables it.
    /// Binding the port turns per-query tracing on.
    pub metrics_port: u16,
    /// Slow-query threshold in microseconds; a traced query at or over
    /// it is written to the slow-query log (one JSON line on stderr).
    /// `0` disables the log.
    pub slow_query_us: u64,
    /// Baseline sampling for the slow-query log: additionally log
    /// every `n`-th query *regardless* of latency, so the log carries
    /// a trickle of normal queries to compare the slow ones against.
    /// `0` (the default) logs slow queries only.
    pub slow_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 128,
            default_deadline_ms: 0,
            max_frame: DEFAULT_MAX_FRAME,
            kernel: KernelPolicy::Auto,
            metrics_port: 0,
            slow_query_us: 0,
            slow_sample: 0,
        }
    }
}

/// The index a [`Server`] answers queries against — what [`Opened`]
/// names: a frozen container, or a mutable collection or sharded
/// collection that also accepts `Insert`/`Delete` — plus the measured
/// cold-open time surfaced in `Stats` reports.
pub struct Backend {
    opened: Opened,
    open_us: u64,
}

impl Backend {
    /// Opens what `path` names ([`Opened::open`]) and times the open: a
    /// collection or sharded collection serves mutably, a container
    /// frozen.
    ///
    /// # Errors
    /// Those of [`Opened::open`].
    pub fn open_with(path: impl AsRef<Path>, opts: OpenOptions) -> io::Result<Self> {
        let t0 = Instant::now();
        let opened = Opened::open(path, opts)?;
        Ok(Backend {
            opened,
            open_us: t0.elapsed().as_micros() as u64,
        })
    }

    /// [`Backend::open_with`] with default options (a cache budget is
    /// still picked up from `PDX_CACHE_BYTES` when set).
    ///
    /// # Errors
    /// Propagates open/IO errors.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(path, OpenOptions::default())
    }

    /// Wraps an already-open index as a frozen backend.
    pub fn frozen(index: Box<dyn VectorIndex>) -> Self {
        Backend {
            opened: Opened::Frozen(index),
            open_us: 0,
        }
    }

    /// Wraps an already-open collection as a mutable backend. Accepts
    /// an owned collection or an `Arc` shared with other readers.
    pub fn collection(coll: impl Into<Arc<Collection>>) -> Self {
        Backend {
            opened: Opened::Collection(coll.into()),
            open_us: 0,
        }
    }

    /// Whether the backend accepts `Insert`/`Delete`.
    pub fn is_mutable(&self) -> bool {
        !matches!(self.opened, Opened::Frozen(_))
    }

    /// The search surface (all variants serve reads the same way).
    pub fn index(&self) -> &dyn VectorIndex {
        &*self.opened
    }

    fn tombstones(&self) -> u64 {
        match &self.opened {
            Opened::Frozen(_) => 0,
            Opened::Collection(coll) => coll.tombstone_count() as u64,
            Opened::Sharded(coll) => coll
                .shards()
                .iter()
                .map(|s| s.tombstone_count() as u64)
                .sum(),
        }
    }
}

/// One admitted request waiting for a worker.
struct QueuedJob {
    seq: u32,
    req: Request,
    arrived: Instant,
    deadline: Option<Instant>,
    conn: Arc<ConnWriter>,
}

/// The write half of one connection; a mutex serializes response
/// frames so workers and the connection thread can interleave replies.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, seq: u32, resp: &Response) {
        let mut stream = self.stream.lock().expect("conn writer lock");
        // A send failure means the peer is gone; its reader will notice.
        let _ = write_frame(&mut *stream, seq, &resp.encode());
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    backend: Backend,
    config: ServeConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    stop: AtomicBool,
    started: Instant,
    /// Whether workers run queries with per-query tracing (set when
    /// the metrics endpoint or the slow-query log is configured).
    trace: bool,
    /// The sampling slow-query log, when configured, and the count of
    /// traced queries it has observed.
    slow_log: Option<(SlowQueryLog, Arc<Counter>)>,
    /// This server's families; the handles below are registered in it.
    registry: Registry,
    /// Requests executed to completion.
    completed: Arc<Counter>,
    /// Requests rejected because the admission queue was full.
    busy_rejected: Arc<Counter>,
    /// Requests rejected because their deadline passed in the queue.
    deadline_rejected: Arc<Counter>,
    /// Malformed frames answered with a typed `Protocol` error.
    protocol_errors: Arc<Counter>,
    /// Requests currently executing on workers.
    in_flight: Arc<Gauge>,
    /// Service latency (arrival → response written) of completed
    /// requests, microseconds.
    latency_us: Arc<Histogram>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn queue_depth(&self) -> u64 {
        self.queue.lock().expect("queue lock").len() as u64
    }

    /// The `Stats` frame: this server's counters plus the backend's own
    /// readings.
    fn stats(&self) -> StatsReport {
        let index = self.backend.index();
        let cache = index.cache_stats().unwrap_or_default();
        let uptime = self.started.elapsed();
        let completed = self.completed.get();
        let secs = uptime.as_secs_f64();
        let qps_x1000 = if secs > 0.0 {
            (completed as f64 / secs * 1000.0) as u64
        } else {
            0
        };
        StatsReport {
            dims: index.dims() as u64,
            live: index.len() as u64,
            tombstones: self.backend.tombstones(),
            uptime_ms: uptime.as_millis() as u64,
            completed,
            busy_rejected: self.busy_rejected.get(),
            deadline_rejected: self.deadline_rejected.get(),
            protocol_errors: self.protocol_errors.get(),
            in_flight: self.in_flight.get(),
            queue_depth: self.queue_depth(),
            queue_capacity: self.config.queue_depth as u64,
            qps_x1000,
            p50_us: self.latency_us.quantile(0.50),
            p99_us: self.latency_us.quantile(0.99),
            p999_us: self.latency_us.quantile(0.999),
            kernel_isa: self.config.kernel.resolve().wire_code(),
            resident_bytes: index.resident_bytes(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            open_us: self.backend.open_us,
        }
    }

    /// Renders the full Prometheus exposition: this server's registry
    /// (its scrape-time gauges set first), then the process-global one
    /// (search, cache, WAL, maintenance, exec), then the derived ratios.
    fn render_prometheus(&self) -> String {
        let r = &self.registry;
        let gauge = |name, help| r.gauge(name, help, &[]);
        gauge(
            "pdx_serve_queue_depth",
            "Requests waiting in the admission queue.",
        )
        .set(self.queue_depth());
        gauge("pdx_serve_queue_capacity", "Admission queue capacity.")
            .set(self.config.queue_depth as u64);
        gauge(
            "pdx_serve_uptime_seconds",
            "Seconds since the server started.",
        )
        .set(self.started.elapsed().as_secs());
        gauge(
            "pdx_serve_resident_bytes",
            "Bytes the backend holds resident.",
        )
        .set(self.backend.index().resident_bytes());
        let mut out = r.render();
        out.push_str(&Registry::global().render());
        pdx_core::obs::render_derived(&mut out);
        out
    }
}

/// A running query server; dropping it shuts it down cleanly.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JobHandle<()>>,
    workers: Vec<JobHandle<()>>,
    /// The HTTP exposition endpoint, when configured (its `Drop` shuts
    /// it down with the server).
    metrics_http: Option<MetricsServer>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and worker threads. When the config names a metrics
    /// port, also binds `127.0.0.1:<metrics_port>` for `GET /metrics`
    /// and `GET /healthz` and turns per-query tracing on.
    ///
    /// # Errors
    /// Propagates bind failures (the query port and the metrics port).
    pub fn start(
        backend: Backend,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics_on = config.metrics_port != 0;
        let slow_log = (config.slow_query_us > 0 || config.slow_sample > 0)
            .then(|| SlowQueryLog::new(config.slow_query_us, config.slow_sample));
        // Pre-register the families a scrape expects, so they expose
        // at zero before the first traced query / write.
        pdx_core::obs::touch(backend.index().kind());
        pdx_store::obs::touch();
        let registry = Registry::new();
        let rejected = |reason| {
            let help = "Requests rejected before execution.";
            registry.counter("pdx_serve_rejected_total", help, &[("reason", reason)])
        };
        let shared = Arc::new(Shared {
            backend,
            config,
            queue: Mutex::new(VecDeque::with_capacity(config.queue_depth)),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            trace: metrics_on || slow_log.is_some(),
            completed: registry.counter(
                "pdx_serve_requests_completed_total",
                "Requests executed to completion.",
                &[],
            ),
            busy_rejected: rejected("busy"),
            deadline_rejected: rejected("deadline"),
            protocol_errors: rejected("protocol"),
            in_flight: registry.gauge(
                "pdx_serve_in_flight",
                "Requests currently executing on workers.",
                &[],
            ),
            latency_us: registry.histogram(
                "pdx_serve_latency_us",
                "Service latency (arrival to response written), microseconds.",
                &[],
            ),
            slow_log: slow_log.map(|log| {
                let help = "Traced queries at or over the slow-query threshold.";
                let seen = registry.counter("pdx_serve_slow_queries_total", help, &[]);
                (log, seen)
            }),
            registry,
        });
        let metrics_http = if metrics_on {
            let render_shared = Arc::clone(&shared);
            Some(MetricsServer::start(
                config.metrics_port,
                Arc::new(move || render_shared.render_prometheus()),
            )?)
        } else {
            None
        };
        let workers = (0..resolve_threads(config.workers))
            .map(|_| {
                let shared = Arc::clone(&shared);
                spawn_job("serve-worker", move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            spawn_job("serve-accept", move || accept_loop(listener, &shared))
        };
        Ok(Self {
            shared,
            addr,
            accept: Some(accept),
            workers,
            metrics_http,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics-endpoint address, when one is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(MetricsServer::local_addr)
    }

    /// A statistics snapshot (same data as the wire `Stats` response).
    pub fn stats(&self) -> StatsReport {
        self.shared.stats()
    }

    /// Stops accepting, drains the queue, joins every thread, and
    /// releases the port. Idempotent with [`Drop`].
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.available.notify_all();
        // Unblock the accept loop: it re-checks the stop flag per
        // accepted connection, so connect to ourselves once.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(accept) = self.accept.take() {
            accept.join();
        }
        for worker in self.workers.drain(..) {
            worker.join();
        }
        if let Some(metrics) = &mut self.metrics_http {
            metrics.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accepts connections until the stop flag is raised, then joins every
/// connection thread it spawned.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut conns: Vec<JobHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stopping() {
            break;
        }
        let Ok(stream) = stream else { continue };
        conns.retain(|conn| !conn.is_finished());
        let shared = Arc::clone(shared);
        conns.push(spawn_job("serve-conn", move || conn_loop(stream, &shared)));
    }
    for conn in conns {
        conn.join();
    }
}

/// A connection's read half as the frame reader sees it: a read
/// timeout polls the stop flag and retries, and a stopping server reads
/// as end-of-stream. A peer close — clean between frames or truncating
/// one — ends the connection either way: a part-read frame cannot be
/// resynchronized.
struct Polled<'a> {
    stream: &'a mut TcpStream,
    shared: &'a Shared,
}

impl Read for Polled<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.shared.stopping() {
                return Ok(0);
            }
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                other => return other,
            }
        }
    }
}

/// One connection: reads frames, answers control-plane requests inline,
/// and admits data-plane requests to the worker queue.
fn conn_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnWriter {
        stream: Mutex::new(write_half),
    });
    let mut stream = stream;
    let mut frames = Stream::new(Polled {
        stream: &mut stream,
        shared,
    });
    loop {
        let Ok(len) = frames.u32("frame length") else {
            return;
        };
        if let Err(err) = check_frame_len(len, shared.config.max_frame) {
            // The stream offset is now unknowable: answer and close.
            shared.protocol_errors.inc();
            conn.send(0, &protocol_error(err.0));
            return;
        }
        // The buffer grows as the payload arrives: a connection that
        // announces a large frame and sends nothing holds nothing.
        let Ok(payload) = read_vec::<u8, _>(&mut frames, len as usize, "frame length") else {
            return;
        };
        let seq = u32::from_le_bytes(payload[..4].try_into().expect("length checked"));
        let arrived = Instant::now();
        match Request::decode(&payload[4..]) {
            Err(err) => {
                // Frame boundaries are intact: answer and keep serving.
                shared.protocol_errors.inc();
                conn.send(seq, &protocol_error(err.0));
            }
            Ok(req) => dispatch(req, seq, arrived, &conn, shared),
        }
    }
}

/// Routes one decoded request: `Ping`/`Stats` inline (they must work
/// while the queue is full — overload has to be observable), everything
/// else through admission control.
fn dispatch(req: Request, seq: u32, arrived: Instant, conn: &Arc<ConnWriter>, shared: &Shared) {
    match req {
        Request::Ping => {
            conn.send(seq, &Response::Pong);
            return;
        }
        Request::Stats { .. } => {
            conn.send(seq, &Response::Stats(shared.stats()));
            return;
        }
        _ => {}
    }
    let deadline_ms = match req.deadline_ms() {
        0 => shared.config.default_deadline_ms,
        explicit => explicit,
    };
    let deadline =
        (deadline_ms > 0).then(|| arrived + Duration::from_millis(u64::from(deadline_ms)));
    let mut queue = shared.queue.lock().expect("queue lock");
    if queue.len() >= shared.config.queue_depth {
        drop(queue);
        shared.busy_rejected.inc();
        conn.send(
            seq,
            &Response::error(
                ErrorKind::Busy,
                format!(
                    "admission queue full ({} waiting); retry later",
                    shared.config.queue_depth
                ),
            ),
        );
        return;
    }
    queue.push_back(QueuedJob {
        seq,
        req,
        arrived,
        deadline,
        conn: Arc::clone(conn),
    });
    drop(queue);
    shared.available.notify_one();
}

/// Drains the admission queue until the server stops *and* the queue is
/// empty (admitted requests are always answered).
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.stopping() {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(queue, POLL_INTERVAL)
                    .expect("queue lock");
                queue = guard;
            }
        };
        let Some(job) = job else { return };
        if let Some(deadline) = job.deadline {
            if Instant::now() > deadline {
                shared.deadline_rejected.inc();
                job.conn.send(
                    job.seq,
                    &Response::error(
                        ErrorKind::DeadlineExceeded,
                        format!(
                            "deadline passed after {} µs in the queue",
                            job.arrived.elapsed().as_micros()
                        ),
                    ),
                );
                continue;
            }
        }
        shared.in_flight.add(1);
        let resp = if shared.trace {
            // Capture the query's trace (the index layer publishes it
            // into the registry either way) and feed the slow-query
            // log with the *service* latency — queueing included,
            // that's what the threshold means to an operator.
            let (resp, mut captured) = trace::capture(|| {
                execute_with_trace(&shared.backend, shared.config.kernel, &job.req, true)
            });
            if let Some((log, seen)) = &shared.slow_log {
                captured.total_ns = job.arrived.elapsed().as_nanos() as u64;
                seen.inc();
                log.observe(
                    &captured,
                    &[("request", request_name(&job.req).to_string())],
                );
            }
            resp
        } else {
            execute_with_trace(&shared.backend, shared.config.kernel, &job.req, false)
        };
        shared.in_flight.sub(1);
        shared.completed.inc();
        shared
            .latency_us
            .record(job.arrived.elapsed().as_micros() as u64);
        job.conn.send(job.seq, &resp);
    }
}

fn search_options(
    k: u32,
    nprobe: u32,
    refine: u32,
    kernel: KernelPolicy,
    traced: bool,
) -> SearchOptions {
    // Workers are the unit of parallelism: each request runs
    // single-threaded so `workers` requests proceed concurrently.
    let mut opts = SearchOptions::new(k as usize)
        .with_threads(1)
        .with_kernel(kernel);
    // `trace` defaults to the PDX_TRACE env; the server can only turn
    // it *on* (metrics endpoint / slow-query log), never off.
    opts.trace |= traced;
    opts = opts.with_nprobe(nprobe as usize);
    if refine > 0 {
        opts = opts.with_refine(refine as usize);
    }
    opts
}

fn store_error(err: &StoreError) -> Response {
    Response::error(ErrorKind::Store, err.to_string())
}

fn protocol_error(msg: impl ToString) -> Response {
    Response::error(ErrorKind::Protocol, msg.to_string())
}

/// The answer to an `op` against a frozen container.
fn frozen(op: &str) -> Response {
    let msg = format!("{op} requires a mutable collection (PDX3); this index is frozen");
    Response::error(ErrorKind::Unsupported, msg)
}

/// Short request tag for the slow-query log.
fn request_name(req: &Request) -> &'static str {
    match req {
        Request::Search { .. } => "search",
        Request::SearchBatch { .. } => "search_batch",
        Request::Insert { .. } => "insert",
        Request::Delete { .. } => "delete",
        Request::Ping => "ping",
        Request::Stats { .. } => "stats",
    }
}

/// Executes one admitted request against the backend, with per-query
/// tracing forced on when `traced` (results are bit-identical; the
/// traced scans differ only in timer/counter side effects). Total: every
/// outcome is a response frame, including queries [`check_vectors`]
/// refuses (typed `Protocol`) and mutations against frozen containers
/// (typed `Unsupported`). `k = 0` and `nprobe = 0` go to the index as
/// they came: it answers the empty list and probes every bucket.
fn execute_with_trace(
    backend: &Backend,
    kernel: KernelPolicy,
    req: &Request,
    traced: bool,
) -> Response {
    let dims = backend.index().dims();
    match req {
        Request::Search {
            k,
            nprobe,
            refine,
            query,
            ..
        } => match check_vectors(query, dims) {
            Ok(1) => {
                let opts = search_options(*k, *nprobe, *refine, kernel, traced);
                Response::Neighbors(backend.index().search(query, &opts))
            }
            Err(err @ VectorError::NonFinite { .. }) if query.len() == dims => protocol_error(err),
            _ => protocol_error(format!("query has {} dims, index has {dims}", query.len())),
        },
        Request::SearchBatch {
            k,
            nprobe,
            refine,
            dims: batch_dims,
            queries,
            ..
        } => {
            if *batch_dims as usize != dims {
                return protocol_error(format!(
                    "batch packed at {batch_dims} dims, index has {dims}"
                ));
            }
            if let Err(err) = check_vectors(queries, dims) {
                return protocol_error(err);
            }
            let opts = search_options(*k, *nprobe, *refine, kernel, traced);
            Response::Batch(backend.index().search_batch(queries, &opts))
        }
        Request::Insert { id, vector, .. } => {
            let done = match &backend.opened {
                Opened::Collection(coll) => coll.insert(*id, vector),
                Opened::Sharded(coll) => coll.insert(*id, vector),
                Opened::Frozen(_) => return frozen("insert"),
            };
            done.map_or_else(|err| store_error(&err), |()| Response::Inserted)
        }
        Request::Delete { id, .. } => {
            let done = match &backend.opened {
                Opened::Collection(coll) => coll.delete(*id),
                Opened::Sharded(coll) => coll.delete(*id),
                Opened::Frozen(_) => return frozen("delete"),
            };
            done.map_or_else(|err| store_error(&err), |()| Response::Deleted)
        }
        // Ping/Stats are answered inline by the connection thread.
        Request::Ping | Request::Stats { .. } => Response::Pong,
    }
}
