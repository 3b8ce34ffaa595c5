//! `pdx-cli` — operate the PDX vector-search stack from the shell.
//!
//! ```text
//! pdx-cli generate --dataset=sift --n=100000 --out=base.fvecs \
//!                  --queries=1000 --queries-out=queries.fvecs
//! pdx-cli build    --data=base.fvecs --out=index.pdx [--block-size=10240 --group=64]
//!                  [--quantize=sq8]
//! pdx-cli build    --data=base.fvecs --out=ivf.pdx --mode=ivf [--nlist=N]
//! pdx-cli query    --index=ivf.pdx --queries=queries.fvecs --k=10
//!                  [--nprobe=N --cache-bytes=N]   # lazy out-of-core open
//! pdx-cli query    --index=index.pdx --queries=queries.fvecs --k=10 [--order=means]
//!                  [--refine=4 --threads=N]
//! pdx-cli ground-truth --data=base.fvecs --queries=queries.fvecs --k=10 --out=gt.ivecs
//! pdx-cli evaluate --index=index.pdx --queries=queries.fvecs --gt=gt.ivecs --k=10
//!
//! # mutable collections (LSM-style store: WAL + segments + tombstones)
//! pdx-cli build    --data=base.fvecs --out=store --mode=collection [--quantize=sq8]
//!                  [--shards=N]   # id-hash sharded store for >RAM corpora
//! pdx-cli insert   --index=store --data=more.fvecs [--start-id=N]
//! pdx-cli delete   --index=store --ids=5,17,100..200
//! pdx-cli compact  --index=store
//! pdx-cli stat     --index=store
//!
//! # network serving (std-only TCP, length-prefixed binary protocol)
//! pdx-cli serve    --index=index.pdx [--port=4791 --host=127.0.0.1]
//!                  [--workers=N --queue-depth=128 --deadline-ms=0]
//! pdx-cli query    --remote=127.0.0.1:4791 --queries=queries.fvecs --k=10
//!                  [--deadline-ms=50 --refine=4]
//! ```
//!
//! Every `--index` path goes through the engine layer: `Opened::open`
//! decides what it names (a `PDX1` f32 or `PDX2` SQ8 container, a `PDX3`
//! collection or a sharded one) and returns a variant that derefs to
//! `dyn VectorIndex`, so one code path serves every deployment —
//! exact PDX-BOND on f32 indexes, the two-phase quantized search on SQ8
//! indexes, the buffer + segments − tombstones merge on collections —
//! from one `SearchOptions`.
//!
//! `query`, `evaluate` and `build` run on the execution engine's worker
//! pool: `--threads=N` picks the width explicitly, otherwise the
//! `PDX_THREADS` environment variable (a number or `max`) and finally
//! the hardware parallelism decide. Results are identical at every
//! width.
//!
//! Unrecognized flags are rejected with a "did you mean" suggestion and
//! the subcommand's valid flag list — a typo never silently falls back
//! to a default.

use pdx::prelude::*;
use std::collections::HashMap;
use std::num::ParseIntError;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// Valid `--key=value` flags per subcommand (the strict parser rejects
/// anything else).
const GENERATE_FLAGS: &[&str] = &["dataset", "n", "out", "queries", "queries-out", "seed"];
const BUILD_FLAGS: &[&str] = &[
    "data",
    "out",
    "block-size",
    "group",
    "quantize",
    "threads",
    "mode",
    "buffer-capacity",
    "nlist",
    "shards",
];
const QUERY_FLAGS: &[&str] = &[
    "index",
    "queries",
    "k",
    "order",
    "refine",
    "threads",
    "kernel",
    "remote",
    "deadline-ms",
    "nprobe",
    "cache-bytes",
];
const SERVE_FLAGS: &[&str] = &[
    "index",
    "host",
    "port",
    "workers",
    "queue-depth",
    "deadline-ms",
    "kernel",
    "cache-bytes",
    "metrics-port",
    "slow-query-ms",
    "slow-sample",
];
const GROUND_TRUTH_FLAGS: &[&str] = &["data", "queries", "out", "k"];
const EVALUATE_FLAGS: &[&str] = &[
    "index",
    "queries",
    "gt",
    "k",
    "order",
    "refine",
    "threads",
    "kernel",
    "nprobe",
    "cache-bytes",
];
const INSERT_FLAGS: &[&str] = &["index", "data", "start-id", "sync-every"];
const DELETE_FLAGS: &[&str] = &["index", "ids"];
const COMPACT_FLAGS: &[&str] = &["index"];
const STAT_FLAGS: &[&str] = &["index", "cache-bytes", "metrics"];
const DATASETS_FLAGS: &[&str] = &[];

#[derive(Debug)]
struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses `--key=value` flags, rejecting unknown keys (with a
    /// nearest-match suggestion), bare words and valueless flags.
    fn parse(rest: &[String], allowed: &[&str]) -> Result<Self, String> {
        let mut values = HashMap::new();
        for arg in rest {
            let Some(body) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument '{arg}' (flags are written --key=value)"
                ));
            };
            let (key, value) = match body.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (body, None),
            };
            if !allowed.contains(&key) {
                return Err(unknown_flag_error(key, allowed));
            }
            let Some(value) = value else {
                return Err(format!(
                    "flag '--{key}' is missing its value (write --{key}=…)"
                ));
            };
            values.insert(key.to_string(), value.to_string());
        }
        Ok(Self { values })
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required --{key}=…"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        Ok(PathBuf::from(self.require(key)?))
    }

    /// `--key` read straight into the integer type of the field it
    /// fills, `None` when absent: a value out of that type's range is an
    /// error naming the flag, never a wrap (`--port=70000` is not 4464).
    fn opt_int<T: FromStr<Err = ParseIntError>>(&self, key: &str) -> Result<Option<T>, String> {
        let parse = |v: &String| {
            v.parse().map_err(|e| {
                let ty = std::any::type_name::<T>();
                format!("invalid value for --{key}: '{v}' (expected a {ty} integer: {e})")
            })
        };
        self.values.get(key).map(parse).transpose()
    }

    /// [`Args::opt_int`], with `default` for an absent flag.
    fn int<T: FromStr<Err = ParseIntError>>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt_int(key)?.unwrap_or(default))
    }

    /// [`Args::int`] for a size that has no meaning at zero.
    fn positive<T>(&self, key: &str, default: T) -> Result<T, String>
    where
        T: FromStr<Err = ParseIntError> + PartialEq + From<u8>,
    {
        match self.int(key, default)? {
            n if n == T::from(0) => Err(format!(
                "invalid value for --{key}: '0' (expected a positive integer)"
            )),
            n => Ok(n),
        }
    }

    fn str_or(&self, key: &str, default: &'static str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

/// Edit distance for the "did you mean" suggestion.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Error message for an unrecognized flag: nearest valid flag (when
/// close enough to be a plausible typo) plus the full valid list.
fn unknown_flag_error(key: &str, allowed: &[&str]) -> String {
    let mut msg = format!("unknown flag '--{key}'");
    let suggestion = allowed
        .iter()
        .map(|&cand| (levenshtein(key, cand), cand))
        .min();
    if let Some((d, cand)) = suggestion {
        if d <= 2 {
            msg.push_str(&format!(" — did you mean '--{cand}'?"));
        }
    }
    if allowed.is_empty() {
        msg.push_str("\nthis subcommand takes no flags");
    } else {
        let list: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
        msg.push_str(&format!("\nvalid flags: {}", list.join(", ")));
    }
    msg
}

const USAGE: &str = "\
pdx-cli <command> [--key=value …]

commands:
  generate      synthesize a Table 1-shaped collection into .fvecs
                  --dataset=<name> --n=<count> --out=<file>
                  [--queries=<count> --queries-out=<file> --seed=…]
  build         convert an .fvecs collection into a PDX container
                  --data=<file> --out=<file> [--block-size=10240 --group=64]
                  [--quantize=sq8]   SQ8-quantize the scan blocks (4× smaller,
                                     two-phase search with exact rerank)
                  [--threads=N]      worker count for training: IVF k-means
                                     (--mode=ivf) and the SQ8 quantizer
                  [--mode=collection]  write a *mutable* collection directory
                                     (insert/delete/compact afterwards) instead
                                     of a frozen container
                  [--mode=ivf]       write an IVF-extended container: bucketed
                                     layout with a per-bucket offset table, so
                                     query/serve can open it *lazily* under a
                                     --cache-bytes budget (out-of-core search)
                  [--nlist=√n]       IVF bucket count (ivf mode only)
                  [--shards=N]       split a collection across N shard
                                     directories by id hash (collection mode;
                                     searches fan out and merge, bit-identical
                                     to the unsharded build)
                  [--buffer-capacity=N]  collection write-buffer auto-seal size
  query         run queries against any index (exact PDX-BOND on f32 indexes;
                two-phase quantized scan + rerank on SQ8 indexes; mutable
                collections merge buffer + segments minus tombstones; the
                kind is read by Opened::open)
                  --index=<path> --queries=<file> [--k=10 --order=means|zones|decreasing|seq]
                  [--refine=4]       SQ8 candidate factor (rerank refine·k)
                  [--threads=N]      parallel batch width (default: PDX_THREADS
                                     env, then all hardware threads; results
                                     are identical at every width). The query
                                     file is one batch, served tile-major on
                                     flat indexes: each worker scans a tile for
                                     its whole band of up to 64 queries
                  [--kernel=auto]    kernel policy: auto (best ISA, honors the
                                     PDX_KERNEL env), scalar, or simd —
                                     distances are bit-identical either way
                  [--nprobe=N]       IVF buckets probed per query (default 0 =
                                     every bucket, i.e. exact search)
                  [--cache-bytes=N]  open IVF-extended containers lazily with
                                     an N-byte bucket cache instead of loading
                                     them resident (default: the
                                     PDX_CACHE_BYTES env; results are
                                     bit-identical either way)
                  [--remote=host:port]  query a running `serve` instance over
                                     TCP instead of opening --index locally
                  [--deadline-ms=N]  per-request latency budget in remote mode
                                     (expired requests get a typed error)
  ground-truth  exact k-NN ids for a query set, saved as .ivecs
                  --data=<file> --queries=<file> --out=<file> [--k=10]
  evaluate      recall against stored ground truth (any index kind)
                  --index=<path> --queries=<file> --gt=<file> [--k=10 --refine=4]
                  [--threads=N]      parallel batch width (as in query)
                  [--kernel=auto]    kernel policy (as in query)
                  [--nprobe=N --cache-bytes=N]  as in query
  insert        append vectors to a mutable collection (WAL-logged)
                  --index=<dir> --data=<file> [--start-id=<max id + 1>]
                  [--sync-every=N]   group commit: fsync the WAL every N
                                     records during the load (default: once
                                     at the end)
  delete        tombstone vectors of a mutable collection
                  --index=<dir> --ids=<id,id,lo..hi,…>
  compact       merge a collection's segments + buffer, purging tombstones
                (every shard's, for a sharded collection)
                  --index=<dir>
  stat          describe any index (segments/buffer/tombstones for collections,
                shards for sharded collections, resident bytes + cache counters
                and cold-open time everywhere)
                  --index=<path> [--cache-bytes=N]  (as in query)
                  [--metrics=true]   also dump the process metric registry in
                                     Prometheus text format (the same families
                                     `serve --metrics-port` exposes)
  serve         serve any index over TCP (length-prefixed binary protocol;
                mutable collections also accept insert/delete; Ctrl-C stops)
                  --index=<path> [--host=127.0.0.1 --port=4791]
                  [--workers=N]      request workers (default: PDX_THREADS env,
                                     then all hardware threads)
                  [--queue-depth=128]  admission queue bound — a full queue
                                     answers typed `busy` frames, never stalls
                  [--deadline-ms=0]  default deadline for requests carrying
                                     none (0 = requests never expire)
                  [--kernel=auto]    kernel policy for every served search
                                     (as in query)
                  [--cache-bytes=N]  serve IVF-extended containers lazily
                                     under an N-byte bucket cache (as in
                                     query; cache counters appear in stats)
                  [--metrics-port=N] also bind 127.0.0.1:N for GET /metrics
                                     (Prometheus text format) and GET /healthz;
                                     binding turns per-query tracing on
                  [--slow-query-ms=N]  log a JSON line (stderr) for requests
                                     slower than N ms (0 = off)
                  [--slow-sample=N]  also log every Nth query regardless of
                                     latency, as a baseline (default 0 = off)
  datasets      list the built-in Table 1 dataset shapes
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = |allowed| Args::parse(&argv[1..], allowed);
    let result = match cmd.as_str() {
        "generate" => flags(GENERATE_FLAGS).and_then(|a| cmd_generate(&a)),
        "build" => flags(BUILD_FLAGS).and_then(|a| cmd_build(&a)),
        "query" => flags(QUERY_FLAGS).and_then(|a| cmd_query(&a)),
        "ground-truth" => flags(GROUND_TRUTH_FLAGS).and_then(|a| cmd_ground_truth(&a)),
        "evaluate" => flags(EVALUATE_FLAGS).and_then(|a| cmd_evaluate(&a)),
        "insert" => flags(INSERT_FLAGS).and_then(|a| cmd_insert(&a)),
        "delete" => flags(DELETE_FLAGS).and_then(|a| cmd_delete(&a)),
        "compact" => flags(COMPACT_FLAGS).and_then(|a| cmd_compact(&a)),
        "stat" => flags(STAT_FLAGS).and_then(|a| cmd_stat(&a)),
        "serve" => flags(SERVE_FLAGS).and_then(|a| cmd_serve(&a)),
        "datasets" => flags(DATASETS_FLAGS).and_then(|_| cmd_datasets()),
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_datasets() -> Result<(), String> {
    println!(
        "{:<12} {:>6} {:>12} {:>12}",
        "name", "dims", "distribution", "paper size"
    );
    for spec in TABLE1.iter() {
        println!(
            "{:<12} {:>6} {:>12} {:>12}",
            spec.name,
            spec.dims,
            format!("{:?}", spec.distribution),
            spec.paper_size
        );
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let name = args.require("dataset")?;
    let spec = *spec_by_name(name)
        .ok_or_else(|| format!("unknown dataset '{name}' (see `pdx-cli datasets`)"))?;
    let n = args.int("n", 100_000)?;
    let nq = args.int("queries", 0)?;
    let seed = args.int("seed", 42)?;
    let out = args.path("out")?;
    eprintln!(
        "generating {}/{} (n = {n}, queries = {nq})…",
        spec.name, spec.dims
    );
    let ds = generate(&spec, n, nq, seed);
    write_fvecs(&out, &ds.data, ds.dims())?;
    eprintln!("wrote {}", out.display());
    if nq > 0 {
        let qout = args.path("queries-out")?;
        write_fvecs(&qout, &ds.queries, ds.dims())?;
        eprintln!("wrote {}", qout.display());
    }
    Ok(())
}

fn cmd_build(args: &Args) -> Result<(), String> {
    let block_size = args.positive("block-size", DEFAULT_EXACT_BLOCK)?;
    let group = args.positive("group", DEFAULT_GROUP_SIZE)?;
    let buffer_capacity = args.positive("buffer-capacity", block_size)?;
    let data = read_fvecs(&args.path("data")?)?;
    let out = args.path("out")?;
    let quantize = match args.str_or("quantize", "none").as_str() {
        "none" => false,
        "sq8" => true,
        other => {
            return Err(format!(
                "unknown quantization '{other}' (try --quantize=sq8)"
            ))
        }
    };
    if data.len == 0 {
        return Err(format!(
            "--data: '{}' holds no vectors; a build needs at least one",
            args.path("data")?.display()
        ));
    }
    // A non-finite value would write a file whose every query panics.
    check_vectors(&data.data, data.dims).map_err(|e| format!("--data: {e}"))?;
    let mode = args.str_or("mode", "container");
    for note in ignored_build_flags(args, &mode) {
        eprintln!("note: {note}; ignored");
    }
    match mode.as_str() {
        "container" => {}
        "ivf" => return build_ivf(args, &data, group, &out, quantize),
        "collection" => {
            let config = StoreConfig {
                block_size,
                group_size: group,
                buffer_capacity,
                quantize,
            };
            let shards = args.int("shards", 0)?;
            if shards > 1 {
                return build_sharded(&data, &out, shards, config, quantize);
            }
            let coll = Collection::create(&out, data.dims, config).map_err(|e| e.to_string())?;
            // Bulk path: rows become durable at the seals' manifest
            // commits instead of being WAL-logged row by row.
            coll.bulk_insert(0, &data.data).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote collection {} ({} vectors × {} dims in {} {} segment(s); \
                 mutable — use insert/delete/compact)",
                out.display(),
                coll.live_len(),
                coll.dims(),
                coll.segment_count(),
                if quantize { "SQ8" } else { "f32" },
            );
            return Ok(());
        }
        other => {
            return Err(format!(
                "unknown mode '{other}' (try --mode=container, --mode=ivf or --mode=collection)"
            ))
        }
    }
    if quantize {
        let threads = args.int("threads", 0)?;
        let flat = FlatSq8::build_with_threads(
            &data.data, data.len, data.dims, block_size, group, threads,
        );
        pdx::datasets::persist::write_sq8_path(
            &out,
            &flat.quantizer,
            &flat.blocks,
            Some(&flat.rows),
        )
        .map_err(|e| e.to_string())?;
        let f32_bytes = data.len * data.dims * std::mem::size_of::<f32>();
        eprintln!(
            "wrote {} ({} vectors × {} dims in {} SQ8 blocks; scan-resident \
             {} bytes vs {} for f32, {:.1}× smaller)",
            out.display(),
            data.len,
            data.dims,
            flat.blocks.len(),
            flat.resident_block_bytes(),
            f32_bytes,
            f32_bytes as f64 / flat.resident_block_bytes().max(1) as f64,
        );
    } else {
        let coll = PdxCollection::from_rows_partitioned(
            &data.data, data.len, data.dims, block_size, group,
        );
        pdx::datasets::persist::write_pdx_path(&out, &coll).map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {} ({} vectors × {} dims in {} blocks)",
            out.display(),
            data.len,
            data.dims,
            coll.blocks.len()
        );
    }
    Ok(())
}

/// What `build` says of each flag given that its `mode` does not use.
fn ignored_build_flags(args: &Args, mode: &str) -> Vec<&'static str> {
    let (ivf, collection) = (mode == "ivf", mode == "collection");
    [
        ("nlist", !ivf, "--nlist only applies to --mode=ivf builds"),
        (
            "shards",
            !collection,
            "--shards only applies to --mode=collection builds",
        ),
        (
            "threads",
            collection,
            "--threads only applies to container builds",
        ),
        (
            "block-size",
            ivf,
            "--block-size does not apply to --mode=ivf builds",
        ),
        (
            "buffer-capacity",
            !collection,
            "--buffer-capacity only applies to --mode=collection builds",
        ),
    ]
    .into_iter()
    .filter(|&(flag, ignored, _)| ignored && args.has(flag))
    .map(|(_, _, note)| note)
    .collect()
}

/// `build --mode=ivf`: trains IVF (k-means bucketing) and writes the
/// v1.1 IVF-extended container — bucketed layout plus the per-bucket
/// offset table that lets `query`/`serve` open it lazily under a
/// `--cache-bytes` budget.
fn build_ivf(
    args: &Args,
    data: &Vecs,
    group: usize,
    out: &Path,
    quantize: bool,
) -> Result<(), String> {
    let threads = args.int("threads", 0)?;
    let nlist = match args.int("nlist", 0)? {
        0 => IvfIndex::default_nlist(data.len),
        n => n,
    };
    let t0 = Instant::now();
    let ivf = IvfIndex::build_with_threads(&data.data, data.len, data.dims, nlist, 10, 42, threads);
    if quantize {
        let deploy = IvfSq8::new(&data.data, data.dims, &ivf.assignments, group);
        pdx::datasets::persist::write_ivf_sq8_path(
            out,
            &deploy.quantizer,
            &deploy.centroids.pdx.to_rows(),
            &deploy.blocks,
            Some(&deploy.rows),
        )
        .map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {} ({} vectors × {} dims in {} SQ8 IVF bucket(s), trained in {:.3}s)",
            out.display(),
            data.len,
            data.dims,
            deploy.blocks.len(),
            t0.elapsed().as_secs_f64(),
        );
    } else {
        let deploy = IvfPdx::new(&data.data, data.dims, &ivf.assignments, group);
        pdx::datasets::persist::write_ivf_pdx_path(
            out,
            data.dims,
            &deploy.centroids.pdx.to_rows(),
            &deploy.blocks,
        )
        .map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {} ({} vectors × {} dims in {} IVF bucket(s), trained in {:.3}s; \
             open with --cache-bytes=N for out-of-core search)",
            out.display(),
            data.len,
            data.dims,
            deploy.blocks.len(),
            t0.elapsed().as_secs_f64(),
        );
    }
    Ok(())
}

/// `build --mode=collection --shards=N`: creates an id-hash sharded
/// collection and routes every row through the shard router (searches
/// later fan out across the shards and merge).
fn build_sharded(
    data: &Vecs,
    out: &Path,
    shards: usize,
    config: StoreConfig,
    quantize: bool,
) -> Result<(), String> {
    let coll =
        ShardedCollection::create(out, data.dims, shards, config).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for i in 0..data.len {
        coll.insert(i as u64, &data.data[i * data.dims..(i + 1) * data.dims])
            .map_err(|e| e.to_string())?;
    }
    coll.sync().map_err(|e| e.to_string())?; // power-loss durability point
    eprintln!(
        "wrote sharded collection {} ({} vectors × {} dims across {} {} shard(s) \
         in {:.3}s; mutable through `serve` — Insert / Delete frames)",
        out.display(),
        coll.live_len(),
        coll.dims(),
        coll.n_shards(),
        if quantize { "SQ8" } else { "f32" },
        t0.elapsed().as_secs_f64(),
    );
    Ok(())
}

fn parse_kernel(args: &Args) -> Result<KernelPolicy, String> {
    let name = args.str_or("kernel", "auto");
    KernelPolicy::parse(&name)
        .ok_or_else(|| format!("unknown kernel policy '{name}' (expected auto, scalar or simd)"))
}

fn parse_order(name: &str) -> Result<VisitOrder, String> {
    Ok(match name {
        "means" => VisitOrder::DistanceToMeans,
        "zones" => VisitOrder::DimensionZones { zone_size: 16 },
        "decreasing" => VisitOrder::Decreasing,
        "seq" | "sequential" => VisitOrder::Sequential,
        other => return Err(format!("unknown visit order '{other}'")),
    })
}

/// Engine open options from the shared flags. An absent
/// `--cache-bytes` is `None`, so the `PDX_CACHE_BYTES` environment
/// default still applies.
fn open_options(args: &Args) -> Result<OpenOptions, String> {
    let cache_bytes = args.opt_int("cache-bytes")?;
    Ok(OpenOptions { cache_bytes })
}

/// Opens the `--index` path through the engine layer, printing the
/// notes for flags its kind ignores.
fn load_index(args: &Args) -> Result<Opened, String> {
    let path = args.path("index")?;
    let index = Opened::open(&path, open_options(args)?).map_err(|e| e.to_string())?;
    // A mutable collection may hold either segment kind: both flags
    // apply, so neither note fires.
    let is_store = is_store(&index);
    if is_quantized(&index) && args.has("order") {
        eprintln!("note: --order only applies to f32 indexes; ignored");
    }
    if !is_store && !is_quantized(&index) && args.has("refine") {
        eprintln!("note: --refine only applies to SQ8 indexes; ignored");
    }
    if index.kind() == "flat-sq8-scan-only" {
        eprintln!("note: scan-only SQ8 container (no rerank payload); results are estimates");
    }
    if !is_ivf(&index) {
        if args.has("nprobe") {
            eprintln!("note: --nprobe only applies to IVF indexes; ignored");
        }
        if !is_store && args.has("cache-bytes") {
            eprintln!(
                "note: --cache-bytes only applies to IVF-extended containers \
                 (build --mode=ivf); loaded resident"
            );
        }
    }
    Ok(index)
}

/// [`load_index`] and [`search_options`], then the `--queries` file,
/// whose dims must be the index's.
fn index_and_queries(args: &Args, k: usize) -> Result<(Opened, SearchOptions, Vecs), String> {
    let index = load_index(args)?;
    let opts = search_options(args, k, &index)?;
    let queries = read_fvecs(&args.path("queries")?)?;
    if queries.dims != index.dims() {
        let dims = index.dims();
        return Err(format!("query dims {} != index dims {dims}", queries.dims));
    }
    check_vectors(&queries.data, queries.dims).map_err(|e| format!("--queries: {e}"))?;
    Ok((index, opts, queries))
}

fn is_quantized(index: &Opened) -> bool {
    index.kind().starts_with("flat-sq8") || index.kind() == "ivf-sq8"
}

fn is_ivf(index: &Opened) -> bool {
    index.kind().starts_with("ivf")
}

fn is_store(index: &Opened) -> bool {
    !matches!(index, Opened::Frozen(_))
}

/// Engine options from the query/evaluate flags. Only the flags that
/// apply to this index kind are parsed: an ignored flag (`--order` on
/// SQ8, `--refine` on f32) is truly ignored, value and all. A mutable
/// collection may hold either segment kind, so both flags apply there.
fn search_options(args: &Args, k: usize, index: &Opened) -> Result<SearchOptions, String> {
    let mut opts = SearchOptions::new(k)
        .with_threads(args.int("threads", 0)?)
        .with_kernel(parse_kernel(args)?);
    let is_store = is_store(index);
    if is_quantized(index) || is_store {
        opts = opts.with_refine(args.int("refine", DEFAULT_REFINE)?);
    }
    if !is_quantized(index) || is_store {
        let order = parse_order(&args.str_or("order", "means"))?;
        opts = opts.with_pruner(PrunerKind::Bond(order));
    }
    if is_ivf(index) {
        opts = opts.with_nprobe(args.int("nprobe", 0)?);
    }
    Ok(opts)
}

/// Opens the `--index` path for `insert` or `delete`, which take a
/// collection (the directory, or its `MANIFEST` file).
fn open_collection(args: &Args) -> Result<(PathBuf, Arc<Collection>), String> {
    let path = args.path("index")?;
    let why = match Opened::open(&path, OpenOptions::default()).map_err(|e| e.to_string())? {
        Opened::Collection(coll) => return Ok((path, coll)),
        Opened::Sharded(_) => "a sharded collection; it mutates through `serve` (the Insert and \
             Delete frames), not through insert or delete"
            .to_string(),
        Opened::Frozen(index) => frozen(index.kind()),
    };
    Err(format!("{}: {why}", path.display()))
}

/// Why a frozen container refuses `insert`, `delete` and `compact`.
fn frozen(kind: &str) -> String {
    format!(
        "a frozen {kind} container; insert, delete and compact need a mutable collection \
         (build --mode=collection)"
    )
}

fn cmd_insert(args: &Args) -> Result<(), String> {
    let (dir, coll) = open_collection(args)?;
    let data = read_fvecs(&args.path("data")?)?;
    if data.dims != coll.dims() {
        return Err(format!(
            "data dims {} != collection dims {}",
            data.dims,
            coll.dims()
        ));
    }
    let start = match args.opt_int("start-id")? {
        Some(start) => start,
        None => match coll.max_id() {
            None => 0,
            Some(m) => m.checked_add(1).ok_or(format!(
                "--start-id: the collection holds id {m}; name a free one"
            ))?,
        },
    };
    // Validate the whole batch first so a conflict aborts before any
    // row is durably applied (no half-applied insert commands).
    let ids = insert_ids(start, data.len)?;
    check_vectors(&data.data, data.dims).map_err(|e| format!("--data: {e}"))?;
    for id in ids.clone() {
        if coll.is_id_reserved(id) {
            return Err(StoreError::DuplicateId(id).to_string());
        }
    }
    let sync_every = args.int("sync-every", 0)?;
    coll.set_group_commit(GroupCommit { sync_every });
    let t0 = Instant::now();
    for (id, row) in ids.clone().zip(data.data.chunks_exact(data.dims)) {
        coll.insert(id, row).map_err(|e| e.to_string())?;
    }
    coll.sync().map_err(|e| e.to_string())?; // power-loss durability point
    let secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "inserted {} vectors (ids {ids:?}) into {} in {secs:.3}s ({:.0} vectors/s); \
         {} live, {} buffered, {} segment(s)",
        data.len,
        dir.display(),
        data.len as f64 / secs,
        coll.live_len(),
        coll.buffer_len(),
        coll.segment_count(),
    );
    Ok(())
}

/// The ids `insert` gives `n ≥ 1` rows from `start` on, or an error
/// naming `--start-id` when the last of them would pass `u64::MAX`.
fn insert_ids(start: u64, n: usize) -> Result<RangeInclusive<u64>, String> {
    let last = start.checked_add(n.saturating_sub(1) as u64);
    last.map(|last| start..=last).ok_or(format!(
        "--start-id={start}: {n} rows from it would pass the largest id {}",
        u64::MAX
    ))
}

/// Parses `--ids=3,17,100..200` (comma-separated ids and `lo..hi`
/// half-open ranges) into an ordered id list. Every id must name one of
/// the collection's `live` rows, so a range that would take the list past
/// `live` ids is rejected before it is materialised.
fn parse_id_list(spec: &str, live: usize) -> Result<Vec<u64>, String> {
    let mut ids = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        if let Some((lo, hi)) = part.split_once("..") {
            let lo: u64 = lo
                .parse()
                .map_err(|_| format!("invalid id range start '{lo}'"))?;
            let hi: u64 = hi
                .parse()
                .map_err(|_| format!("invalid id range end '{hi}'"))?;
            if hi < lo {
                return Err(format!("empty id range '{part}'"));
            }
            if hi - lo > live.saturating_sub(ids.len()) as u64 {
                return Err(format!(
                    "id range '{part}' spans {} ids; --ids can name at most the {live} live rows",
                    hi - lo
                ));
            }
            ids.extend(lo..hi);
        } else {
            ids.push(part.parse().map_err(|_| format!("invalid id '{part}'"))?);
        }
    }
    if ids.is_empty() {
        return Err("no ids given (write --ids=3,17,100..200)".to_string());
    }
    Ok(ids)
}

fn cmd_delete(args: &Args) -> Result<(), String> {
    let (dir, coll) = open_collection(args)?;
    let ids = parse_id_list(args.require("ids")?, coll.live_len())?;
    // Validate the whole list first: a missing (or repeated) id aborts
    // the command before any tombstone is durably applied.
    let mut seen = std::collections::HashSet::new();
    for &id in &ids {
        if !coll.contains(id) {
            return Err(StoreError::NotFound(id).to_string());
        }
        if !seen.insert(id) {
            return Err(format!("id {id} appears twice in --ids"));
        }
    }
    for &id in &ids {
        coll.delete(id).map_err(|e| e.to_string())?;
    }
    coll.sync().map_err(|e| e.to_string())?; // power-loss durability point
    eprintln!(
        "deleted {} vector(s) from {}; {} live, {} tombstoned (compact to purge)",
        ids.len(),
        dir.display(),
        coll.live_len(),
        coll.tombstone_count(),
    );
    Ok(())
}

/// Compacts a collection, or every shard of a sharded one, inline.
fn cmd_compact(args: &Args) -> Result<(), String> {
    let path = args.path("index")?;
    let opened = Opened::open(&path, OpenOptions::default()).map_err(|e| e.to_string())?;
    let [segs, buffered, tombs] = store_counts(&opened);
    let t0 = Instant::now();
    match &opened {
        Opened::Collection(coll) => coll.compact(),
        Opened::Sharded(sharded) => sharded.compact(),
        Opened::Frozen(index) => {
            return Err(format!("{}: {}", path.display(), frozen(index.kind())))
        }
    }
    .map_err(|e| e.to_string())?;
    eprintln!(
        "compacted {} in {:.3}s: {segs} segment(s) + {buffered} buffered − {tombs} \
         tombstoned → {} segment(s), {} live rows",
        path.display(),
        t0.elapsed().as_secs_f64(),
        store_counts(&opened)[0],
        opened.len(),
    );
    Ok(())
}

/// Segments, buffered rows and tombstones of a collection, summed over
/// the shards of a sharded one (none for a frozen container).
fn store_counts(opened: &Opened) -> [usize; 3] {
    let shards = match opened {
        Opened::Collection(coll) => std::slice::from_ref(coll.as_ref()),
        Opened::Sharded(sharded) => sharded.shards(),
        Opened::Frozen(_) => &[],
    };
    shards.iter().fold([0; 3], |[s, b, t], c| {
        [
            s + c.segment_count(),
            b + c.buffer_len(),
            t + c.tombstone_count(),
        ]
    })
}

fn cmd_stat(args: &Args) -> Result<(), String> {
    let metrics = match args.str_or("metrics", "false").as_str() {
        "true" => true,
        "false" => false,
        other => {
            return Err(format!(
                "invalid value for --metrics: '{other}' (expected true or false)"
            ))
        }
    };
    let budget = cache_budget_line(args)?;
    stat_describe(args, &|kind| {
        println!("  {budget}");
        println!("  {}", payload_line());
        if metrics {
            // Register this deployment's search families plus the store
            // families first, so the dump shows the full schema (zeroed)
            // even though this process has served no queries.
            pdx::core::obs::touch(kind);
            pdx::store::obs::touch();
            let mut out = pdx::obs::Registry::global().render();
            pdx::core::obs::render_derived(&mut out);
            print!("{out}");
        }
    })
}

/// The payload arenas this process holds, the bytes advised onto huge
/// pages, and (on Linux) the anonymous huge pages the kernel granted.
fn payload_line() -> String {
    let (bytes, advised) = pdx::core::obs::payload_bytes();
    let granted = std::fs::read_to_string("/proc/self/smaps_rollup")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("AnonHugePages:"))?;
            Some(format!(
                " | AnonHugePages {}",
                line["AnonHugePages:".len()..].trim()
            ))
        })
        .unwrap_or_default();
    format!("payload: {bytes} bytes in arenas | {advised} bytes advised MADV_HUGEPAGE{granted}")
}

/// The human-readable `stat` report; `tail` runs with the index kind
/// while the index is still open, so the payload line and the
/// `--metrics` dump see its arenas.
fn stat_describe(args: &Args, tail: &dyn Fn(&'static str)) -> Result<(), String> {
    let path = args.path("index")?;
    let t0 = Instant::now();
    let opened = Opened::open(&path, open_options(args)?).map_err(|e| e.to_string())?;
    let open_us = t0.elapsed().as_micros();
    let kernel = KernelPolicy::Auto.resolve().name();
    match &opened {
        Opened::Sharded(coll) => {
            println!(
                "sharded collection {} ({} dims, {} shard(s))",
                path.display(),
                coll.dims(),
                coll.n_shards(),
            );
            let tombstones: usize = coll.shards().iter().map(|s| s.tombstone_count()).sum();
            println!(
                "  live {} | tombstoned {tombstones} | resident ≈{} bytes | opened in {open_us} µs",
                coll.live_len(),
                coll.resident_bytes(),
            );
            println!("  kernel {kernel}");
            for (i, s) in coll.shards().iter().enumerate() {
                println!(
                    "  shard {i:>4}  {:>8} live  {:>6} buffered  {:>6} tombstoned  {} segment(s)",
                    s.live_len(),
                    s.buffer_len(),
                    s.tombstone_count(),
                    s.segment_count(),
                );
            }
        }
        Opened::Collection(coll) => {
            println!(
                "collection {} ({} dims, {})",
                path.display(),
                coll.dims(),
                if coll.config().quantize {
                    "SQ8 segments"
                } else {
                    "f32 segments"
                }
            );
            println!(
                "  live {} | buffered {} | tombstoned {} | wal generation {}",
                coll.live_len(),
                coll.buffer_len(),
                coll.tombstone_count(),
                coll.wal_seq(),
            );
            println!("  kernel {kernel}");
            if coll.maintenance_in_flight() > 0 {
                println!(
                    "  maintenance: {} background job(s) in flight",
                    coll.maintenance_in_flight()
                );
            }
            for s in coll.segment_stats() {
                println!(
                    "  segment {:>6}  {:<12} {:>8} rows  {:>6} dead",
                    s.seq, s.kind, s.rows, s.dead
                );
            }
        }
        Opened::Frozen(index) => {
            println!(
                "{} ({}, {} vectors × {} dims, kernel {kernel})",
                path.display(),
                index.kind(),
                index.len(),
                index.dims(),
            );
            println!(
                "  resident ≈{} bytes | opened in {open_us} µs",
                index.resident_bytes()
            );
            if let Some(c) = index.cache_stats() {
                println!(
                    "  cache: budget {} bytes | resident {} bytes | {} hits | {} misses | {} evictions",
                    c.budget_bytes, c.resident_bytes, c.hits, c.misses, c.evictions,
                );
            }
        }
    }
    tail(opened.kind());
    Ok(())
}

/// One line naming the resolved block-cache budget and where it came
/// from (an explicit `--cache-bytes` beats the `PDX_CACHE_BYTES`
/// environment default).
fn cache_budget_line(args: &Args) -> Result<String, String> {
    let requested = args.opt_int("cache-bytes")?;
    Ok(match resolve_cache_bytes(requested) {
        Some(b) => format!(
            "cache budget {b} bytes (from {})",
            if requested.is_some() {
                "--cache-bytes"
            } else {
                CACHE_BYTES_ENV
            }
        ),
        None => format!("cache budget unbounded (no --cache-bytes, {CACHE_BYTES_ENV} unset)"),
    })
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    // Every flag is checked before the index is opened.
    let path = args.path("index")?;
    let host = args.str_or("host", "127.0.0.1");
    let port = args.int("port", pdx::serve::DEFAULT_PORT)?;
    let slow_query_ms: u64 = args.int("slow-query-ms", 0)?;
    let config = ServeConfig {
        workers: args.int("workers", 0)?,
        queue_depth: args.int("queue-depth", 128)?,
        default_deadline_ms: args.int("deadline-ms", 0)?,
        kernel: parse_kernel(args)?,
        metrics_port: args.int("metrics-port", 0)?,
        slow_query_us: slow_query_ms.checked_mul(1_000).ok_or(format!(
            "invalid value for --slow-query-ms: '{slow_query_ms}' (over u64::MAX µs)"
        ))?,
        slow_sample: args.int("slow-sample", 0)?,
        ..ServeConfig::default()
    };
    let options = open_options(args)?;
    let backend = pdx::serve::Backend::open_with(&path, options).map_err(|e| e.to_string())?;
    let mutable = backend.is_mutable();
    let dims = backend.index().dims();
    let kind = backend.index().kind();
    let server =
        Server::start(backend, (host.as_str(), port), config).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {} ({kind}, {dims} dims, {}) on {} — {} worker(s), queue depth {}, \
         kernel {}",
        path.display(),
        if mutable {
            "mutable: search/insert/delete"
        } else {
            "frozen: search only"
        },
        server.local_addr(),
        resolve_threads(config.workers),
        config.queue_depth,
        config.kernel.resolve().name(),
    );
    eprintln!("  {}", cache_budget_line(args)?);
    if let Some(addr) = server.metrics_addr() {
        eprintln!("  metrics on http://{addr}/metrics (Prometheus text), health on http://{addr}/healthz — per-query tracing on");
    }
    if config.slow_query_us > 0 {
        eprintln!(
            "  slow-query log: JSON to stderr for requests over {} ms{}",
            config.slow_query_us / 1_000,
            if config.slow_sample > 0 {
                format!(" (+ every {}th query as a baseline)", config.slow_sample)
            } else {
                String::new()
            },
        );
    }
    // Serve until the process is killed (Ctrl-C / SIGTERM); the threads
    // are all in the server, so parking the main thread costs nothing.
    loop {
        std::thread::park();
    }
}

/// `query --remote=host:port`: the same query loop, answered by a
/// running `serve` instance instead of a locally opened index.
fn cmd_query_remote(args: &Args, remote: &str) -> Result<(), String> {
    for local_only in ["index", "order", "threads", "kernel"] {
        if args.has(local_only) {
            eprintln!("note: --{local_only} does not apply with --remote; ignored");
        }
    }
    // `k` and `refine` fill the Search frame's `u32` fields.
    let k: u32 = args.positive("k", 10)?;
    let refine: u32 = args.int("refine", 0)?;
    let deadline_ms = args.int("deadline-ms", 0)?;
    let queries = read_fvecs(&args.path("queries")?)?;
    check_vectors(&queries.data, queries.dims).map_err(|e| format!("--queries: {e}"))?;
    let mut client = ServeClient::connect(remote).map_err(|e| format!("{remote}: {e}"))?;
    client.set_deadline_ms(deadline_ms);
    let t0 = Instant::now();
    let mut results = Vec::with_capacity(queries.len);
    for qi in 0..queries.len {
        let query = &queries.data[qi * queries.dims..(qi + 1) * queries.dims];
        results.push(
            client
                .search_opts(query, k as usize, 0, refine as usize)
                .map_err(|e| format!("query {qi}: {e}"))?,
        );
    }
    let secs = t0.elapsed().as_secs_f64();
    for (qi, res) in results.iter().enumerate() {
        let ids: Vec<String> = res
            .iter()
            .map(|r| format!("{}:{:.3}", r.id, r.distance))
            .collect();
        println!("query {qi}: {}", ids.join(" "));
    }
    let stats = client.stats().map_err(|e| e.to_string())?;
    let kernel = KernelIsa::from_wire(stats.kernel_isa).map_or("unknown", KernelIsa::name);
    eprintln!(
        "{} queries against {remote} in {secs:.3}s ({:.1} QPS); server: {} live, \
         kernel {kernel}, p50 {} µs, p99 {} µs",
        queries.len,
        queries.len as f64 / secs,
        stats.live,
        stats.p50_us,
        stats.p99_us,
    );
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), String> {
    if let Some(remote) = args.values.get("remote").cloned() {
        return cmd_query_remote(args, &remote);
    }
    if args.has("deadline-ms") {
        eprintln!("note: --deadline-ms only applies with --remote; ignored");
    }
    let k = args.positive("k", 10)?;
    let (index, opts, queries) = index_and_queries(args, k)?;
    let t0 = Instant::now();
    let results = index.search_batch(&queries.data, &opts);
    let secs = t0.elapsed().as_secs_f64();
    for (qi, res) in results.iter().enumerate() {
        let ids: Vec<String> = res
            .iter()
            .map(|r| format!("{}:{:.3}", r.id, r.distance))
            .collect();
        println!("query {qi}: {}", ids.join(" "));
    }
    eprintln!(
        "{} queries ({}, {} threads) in {secs:.3}s ({:.1} QPS)",
        queries.len,
        index.kind(),
        resolve_threads(opts.threads),
        queries.len as f64 / secs
    );
    Ok(())
}

fn cmd_ground_truth(args: &Args) -> Result<(), String> {
    let k = args.positive("k", 10)?;
    let data = read_fvecs(&args.path("data")?)?;
    let queries = read_fvecs(&args.path("queries")?)?;
    if queries.dims != data.dims {
        return Err(format!(
            "query dims {} != data dims {}",
            queries.dims, data.dims
        ));
    }
    let out = args.path("out")?;
    eprintln!("computing exact top-{k} for {} queries…", queries.len);
    let gt = ground_truth(&data.data, &queries.data, data.dims, k, Metric::L2, 0);
    let flat: Vec<i32> = gt
        .iter()
        .flat_map(|ids| ids.iter().map(|&i| i as i32))
        .collect();
    let file = std::fs::File::create(&out).map_err(|e| e.to_string())?;
    pdx::datasets::io::write_ivecs(std::io::BufWriter::new(file), &flat, k)
        .map_err(|e| e.to_string())?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let k = args.positive("k", 10)?;
    let gt_path = args.path("gt")?;
    let gt_file = std::fs::File::open(&gt_path).map_err(|e| e.to_string())?;
    let gt = pdx::datasets::io::read_ivecs(std::io::BufReader::new(gt_file))
        .map_err(|e| e.to_string())?;
    if k > gt.dims {
        return Err(format!(
            "--gt={}: {} ground-truth columns, fewer than --k={k}",
            gt_path.display(),
            gt.dims
        ));
    }
    let (index, opts, queries) = index_and_queries(args, k)?;
    if gt.len < queries.len {
        return Err(format!(
            "--gt={}: {} ground-truth rows for {} queries (one row per query required)",
            gt_path.display(),
            gt.len,
            queries.len
        ));
    }
    let t0 = Instant::now();
    let results = index.search_batch(&queries.data, &opts);
    let secs = t0.elapsed().as_secs_f64();
    let mut total = 0.0;
    for (qi, res) in results.iter().enumerate() {
        let ids: Vec<u64> = res.iter().map(|r| r.id).collect();
        let truth: Vec<u64> = gt.data[qi * gt.dims..qi * gt.dims + k]
            .iter()
            .map(|&i| i as u64)
            .collect();
        total += recall_at_k(&truth, &ids, k);
    }
    println!(
        "recall@{k} = {:.4} over {} queries ({}, {} threads, {:.1} QPS)",
        total / queries.len.max(1) as f64,
        queries.len,
        index.kind(),
        resolve_threads(opts.threads),
        queries.len as f64 / secs
    );
    Ok(())
}

type Vecs = pdx::datasets::io::VecsFile<f32>;

fn read_fvecs(path: &Path) -> Result<Vecs, String> {
    pdx::datasets::io::read_fvecs_path(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_fvecs(path: &Path, data: &[f32], dims: usize) -> Result<(), String> {
    pdx::datasets::io::write_fvecs_path(path, data, dims)
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn known_flags_parse() {
        let a = Args::parse(&argv(&["--k=5", "--threads=2"]), QUERY_FLAGS).unwrap();
        assert_eq!(a.int("k", 10usize).unwrap(), 5);
        assert_eq!(a.int("threads", 0usize).unwrap(), 2);
        assert_eq!(a.int("refine", 4usize).unwrap(), 4); // default
    }

    #[test]
    fn unknown_flag_suggests_nearest() {
        let err = Args::parse(&argv(&["--thread=4"]), QUERY_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag '--thread'"), "{err}");
        assert!(err.contains("did you mean '--threads'?"), "{err}");
        assert!(err.contains("--index"), "should list valid flags: {err}");
    }

    #[test]
    fn distant_typo_lists_flags_without_suggestion() {
        let err = Args::parse(&argv(&["--bogusflagname=1"]), QUERY_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
        assert!(err.contains("valid flags:"), "{err}");
    }

    #[test]
    fn valueless_and_bare_arguments_are_rejected() {
        let err = Args::parse(&argv(&["--k"]), QUERY_FLAGS).unwrap_err();
        assert!(err.contains("missing its value"), "{err}");
        let err = Args::parse(&argv(&["index.pdx"]), QUERY_FLAGS).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
    }

    #[test]
    fn bad_integer_values_error_instead_of_defaulting() {
        let a = Args::parse(&argv(&["--k=ten"]), QUERY_FLAGS).unwrap();
        assert!(a.int("k", 10usize).is_err());
    }

    /// A value past its field's integer type is an error naming the flag,
    /// raised before `serve` or `query --remote` reads a file (none exists).
    #[test]
    fn out_of_range_integers_name_their_flag_before_any_file_is_read() {
        let missing = std::env::temp_dir().join("pdx_cli_no_such_file");
        for flag in [
            "--port=70000",
            "--metrics-port=65536",
            "--deadline-ms=4294967296",
            "--slow-query-ms=18446744073709552",
        ] {
            let (name, _) = flag.split_once('=').unwrap();
            let args = argv(&[&format!("--index={}", missing.display()), flag]);
            let err = cmd_serve(&Args::parse(&args, SERVE_FLAGS).unwrap()).unwrap_err();
            assert!(err.contains(name), "{flag}: {err}");
        }
        let queries = format!("--queries={}", missing.display());
        for flag in [
            "--deadline-ms=4294967296",
            "--k=4294967297",
            "--refine=4294967296",
        ] {
            let (name, _) = flag.split_once('=').unwrap();
            let remote = ["--remote=127.0.0.1:1", &queries, flag];
            let err = cmd_query(&Args::parse(&argv(&remote), QUERY_FLAGS).unwrap()).unwrap_err();
            assert!(err.contains(name), "{flag}: {err}");
        }
    }

    #[test]
    fn zero_build_sizes_are_rejected_before_any_output() {
        let out = std::env::temp_dir().join("pdx_cli_zero_build_sizes");
        let _ = std::fs::remove_dir_all(&out);
        for (mode, flag) in [
            ("collection", "block-size"),
            ("collection", "group"),
            ("collection", "buffer-capacity"),
            ("ivf", "group"),
            ("container", "block-size"),
        ] {
            let argv = argv(&[
                &format!("--mode={mode}"),
                "--data=missing.fvecs",
                &format!("--out={}", out.display()),
                &format!("--{flag}=0"),
            ]);
            let err = cmd_build(&Args::parse(&argv, BUILD_FLAGS).unwrap()).unwrap_err();
            assert!(err.contains(&format!("--{flag}: '0'")), "{mode}: {err}");
            assert!(!out.exists(), "{mode} --{flag}=0 left {}", out.display());
        }
    }

    #[test]
    fn zero_k_is_rejected_before_any_output() {
        let out = std::env::temp_dir().join("pdx_cli_zero_k.ivecs");
        let _ = std::fs::remove_file(&out);
        let out_flag = format!("--out={}", out.display());
        type Cmd = fn(&Args) -> Result<(), String>;
        let (index, queries) = ("--index=missing.pdx", "--queries=missing.fvecs");
        let cases: [(&str, Cmd, &[&str], &[&str]); 4] = [
            ("query", cmd_query, QUERY_FLAGS, &[index, queries]),
            (
                "query --remote",
                cmd_query,
                QUERY_FLAGS,
                &["--remote=127.0.0.1:1", queries],
            ),
            (
                "evaluate",
                cmd_evaluate,
                EVALUATE_FLAGS,
                &[index, queries, "--gt=missing.ivecs"],
            ),
            (
                "ground-truth",
                cmd_ground_truth,
                GROUND_TRUTH_FLAGS,
                &["--data=missing.fvecs", queries, &out_flag],
            ),
        ];
        for (name, cmd, flags, args) in cases {
            let argv = argv(&[args, &["--k=0"]].concat());
            let err = cmd(&Args::parse(&argv, flags).unwrap()).unwrap_err();
            assert!(err.contains("--k: '0'"), "{name}: {err}");
        }
        assert!(!out.exists(), "ground-truth --k=0 left {}", out.display());
    }

    #[test]
    fn non_finite_queries_and_rows_are_rejected_naming_the_flag() {
        let dir = std::env::temp_dir().join("pdx_cli_non_finite");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (n, d) = (40, 4);
        let rows: Vec<f32> = (0..n * d).map(|i| (i % 13) as f32).collect();
        let mut bad = rows[..3 * d].to_vec();
        bad[d + 2] = f32::NAN;
        let path = |name: &str| dir.join(name).display().to_string();
        write_fvecs(&dir.join("base.fvecs"), &rows, d).unwrap();
        write_fvecs(&dir.join("bad.fvecs"), &bad, d).unwrap();
        let builds = [
            ("bad.pdx", "--mode=container"),
            ("bad_ivf.pdx", "--mode=ivf"),
            ("bad_sq8.pdx", "--quantize=sq8"),
            ("bad_store", "--mode=collection"),
        ];
        for (out, flag) in builds {
            let build = argv(&[
                &format!("--data={}", path("bad.fvecs")),
                &format!("--out={}", path(out)),
                flag,
            ]);
            let err = cmd_build(&Args::parse(&build, BUILD_FLAGS).unwrap()).unwrap_err();
            assert_eq!(err, "--data: row 1 holds NaN at dim 2", "{flag}");
            assert!(!dir.join(out).exists(), "{flag} left {out} behind");
        }
        for (out, mode) in [("index.pdx", "container"), ("store", "collection")] {
            let build = argv(&[
                &format!("--data={}", path("base.fvecs")),
                &format!("--out={}", path(out)),
                &format!("--mode={mode}"),
            ]);
            cmd_build(&Args::parse(&build, BUILD_FLAGS).unwrap()).unwrap();
        }
        let queries = format!("--queries={}", path("bad.fvecs"));
        for target in [
            format!("--index={}", path("index.pdx")),
            "--remote=127.0.0.1:1".into(),
        ] {
            let query = argv(&[&target, &queries]);
            let err = cmd_query(&Args::parse(&query, QUERY_FLAGS).unwrap()).unwrap_err();
            assert_eq!(err, "--queries: row 1 holds NaN at dim 2", "{target}");
        }
        let insert = argv(&[
            &format!("--index={}", path("store")),
            &format!("--data={}", path("bad.fvecs")),
        ]);
        let err = cmd_insert(&Args::parse(&insert, INSERT_FLAGS).unwrap()).unwrap_err();
        assert_eq!(err, "--data: row 1 holds NaN at dim 2");
        assert_eq!(Collection::open(dir.join("store")).unwrap().live_len(), n);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluate_rejects_a_ground_truth_shorter_than_the_queries() {
        let dir = std::env::temp_dir().join("pdx_cli_short_gt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (n, d) = (40, 4);
        let rows: Vec<f32> = (0..n * d).map(|i| (i % 13) as f32).collect();
        let path = |name: &str| dir.join(name).display().to_string();
        write_fvecs(&dir.join("base.fvecs"), &rows, d).unwrap();
        write_fvecs(&dir.join("q.fvecs"), &rows[..5 * d], d).unwrap();
        let gt = std::fs::File::create(dir.join("gt.ivecs")).unwrap();
        pdx::datasets::io::write_ivecs(gt, &[0, 1, 2, 3, 4, 5], 2).unwrap();
        let build = argv(&[
            &format!("--data={}", path("base.fvecs")),
            &format!("--out={}", path("index.pdx")),
        ]);
        cmd_build(&Args::parse(&build, BUILD_FLAGS).unwrap()).unwrap();
        let evaluate = argv(&[
            &format!("--index={}", path("index.pdx")),
            &format!("--queries={}", path("q.fvecs")),
            &format!("--gt={}", path("gt.ivecs")),
            "--k=2",
        ]);
        let err = cmd_evaluate(&Args::parse(&evaluate, EVALUATE_FLAGS).unwrap()).unwrap_err();
        assert!(err.contains("--gt="), "{err}");
        assert!(err.contains("3 ground-truth rows for 5 queries"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluate_rejects_a_k_wider_than_the_ground_truth() {
        let dir = std::env::temp_dir().join("pdx_cli_narrow_gt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (n, d) = (40, 4);
        let rows: Vec<f32> = (0..n * d).map(|i| (i % 13) as f32).collect();
        let path = |name: &str| dir.join(name).display().to_string();
        write_fvecs(&dir.join("q.fvecs"), &rows[..3 * d], d).unwrap();
        let gt = std::fs::File::create(dir.join("gt.ivecs")).unwrap();
        pdx::datasets::io::write_ivecs(gt, &[0, 1, 2, 3, 4, 5], 2).unwrap();
        // No index exists: the check must come before any load or search.
        let evaluate = argv(&[
            &format!("--index={}", path("missing.pdx")),
            &format!("--queries={}", path("q.fvecs")),
            &format!("--gt={}", path("gt.ivecs")),
            "--k=3",
        ]);
        let err = cmd_evaluate(&Args::parse(&evaluate, EVALUATE_FLAGS).unwrap()).unwrap_err();
        assert!(err.contains("--gt="), "{err}");
        assert!(err.contains("2 ground-truth columns"), "{err}");
        assert!(err.contains("--k=3"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_notes_every_flag_its_mode_ignores() {
        let notes = |mode: &str, flag: &str| {
            let args = Args::parse(&argv(&[&format!("--{flag}=2")]), BUILD_FLAGS).unwrap();
            ignored_build_flags(&args, mode)
        };
        for (mode, flag) in [
            ("ivf", "block-size"),
            ("ivf", "buffer-capacity"),
            ("container", "buffer-capacity"),
            ("container", "nlist"),
            ("ivf", "shards"),
            ("collection", "threads"),
        ] {
            let notes = notes(mode, flag);
            assert_eq!(notes.len(), 1, "--mode={mode} --{flag}: {notes:?}");
            assert!(notes[0].starts_with(&format!("--{flag} ")), "{notes:?}");
        }
        for (mode, flag) in [
            ("container", "block-size"),
            ("collection", "block-size"),
            ("collection", "buffer-capacity"),
            ("ivf", "nlist"),
            ("ivf", "threads"),
            ("container", "threads"),
            ("collection", "shards"),
        ] {
            assert_eq!(
                notes(mode, flag),
                Vec::<&str>::new(),
                "--mode={mode} --{flag}"
            );
        }
    }

    /// Every build mode refuses an empty `--data` with one typed error,
    /// before it writes anything.
    #[test]
    fn empty_ivf_build_is_rejected_before_any_output() {
        let dir = std::env::temp_dir().join("pdx_cli_empty_ivf_build");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("empty.fvecs");
        std::fs::write(&data, b"").unwrap();
        let out = dir.join("e.pdx");
        for mode in ["container", "ivf", "collection"] {
            for extra in ["--quantize=none", "--quantize=sq8", "--shards=2"] {
                let argv = argv(&[
                    &format!("--mode={mode}"),
                    extra,
                    &format!("--data={}", data.display()),
                    &format!("--out={}", out.display()),
                ]);
                let err = cmd_build(&Args::parse(&argv, BUILD_FLAGS).unwrap()).unwrap_err();
                assert!(
                    err.contains("--data") && err.contains("no vectors"),
                    "{mode} {extra}: {err}"
                );
                assert!(!out.exists(), "{mode} {extra}: left {}", out.display());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_ids_stop_at_the_largest_id() {
        assert_eq!(insert_ids(7, 3).unwrap(), 7..=9);
        assert_eq!(
            insert_ids(u64::MAX - 2, 3).unwrap(),
            u64::MAX - 2..=u64::MAX
        );
        for (start, n) in [(u64::MAX, 2), (u64::MAX - 2, 4), (2, usize::MAX)] {
            let err = insert_ids(start, n).unwrap_err();
            assert!(err.contains(&format!("--start-id={start}")), "{err}");
        }
    }

    #[test]
    fn id_lists_parse_singles_and_ranges() {
        assert_eq!(parse_id_list("3", 10).unwrap(), vec![3]);
        assert_eq!(parse_id_list("3,5,4", 10).unwrap(), vec![3, 5, 4]);
        assert_eq!(parse_id_list("10..13,2", 10).unwrap(), vec![10, 11, 12, 2]);
        assert!(parse_id_list("", 10).is_err());
        assert!(parse_id_list("5..3", 10).is_err());
        assert!(parse_id_list("abc", 10).is_err());
        // A range longer than the live rows is rejected unexpanded.
        let err = parse_id_list("0..18446744073709551615", 10).unwrap_err();
        assert!(err.contains("'0..18446744073709551615'"), "{err}");
        assert_eq!(parse_id_list("5..15", 10).unwrap().len(), 10);
        let err = parse_id_list("5..16", 10).unwrap_err();
        assert!(err.contains("'5..16' spans 11 ids"), "{err}");
        assert!(err.contains("10 live rows"), "{err}");
        // The bound counts the ids named before the range too.
        let err = parse_id_list("1,2,3..12", 10).unwrap_err();
        assert!(err.contains("'3..12'"), "{err}");
    }

    /// `AnyIndex`, the server's `Backend` and `stat` agree on what each
    /// path names or fail with one error string; `insert` mutates a
    /// collection, refuses other indexes by name, or fails with that string.
    #[test]
    fn every_opener_gives_a_path_the_same_verdict() {
        let dir = std::env::temp_dir().join("pdx_cli_open_verdicts");
        let _ = std::fs::remove_dir_all(&dir);
        let at = |name: &str| dir.join(name).display().to_string();
        for sub in ["m", "junk", "nope", "shards", "empty"] {
            std::fs::create_dir_all(at(sub)).unwrap();
        }
        let rows: Vec<f32> = (0..40 * 4).map(|i| (i % 13) as f32).collect();
        write_fvecs(Path::new(&at("base.fvecs")), &rows, 4).unwrap();
        let data = format!("--data={}", at("base.fvecs"));
        let modes = ["--mode=collection", "--shards=2"];
        for (out, mode) in [
            ("flat.pdx", &[][..]),
            ("store", &modes[..1]),
            ("sharded", &modes),
        ] {
            let argv = argv(&[&[data.as_str(), &format!("--out={}", at(out))], mode].concat());
            cmd_build(&Args::parse(&argv, BUILD_FLAGS).unwrap()).unwrap();
        }
        std::fs::copy(at("flat.pdx"), at("m/MANIFEST")).unwrap();
        std::fs::write(at("junk/MANIFEST"), b"garbage, not an index").unwrap();
        std::fs::write(at("nope/MANIFEST"), b"NOPEjunk").unwrap();
        std::fs::write(at("shards/SHARDS"), b"PDXSjunk").unwrap();
        std::fs::copy(at("store/MANIFEST"), at("renamed.manifest")).unwrap();
        std::fs::write(at("cut.pdx"), &std::fs::read(at("flat.pdx")).unwrap()[..10]).unwrap();

        // The path, then the kind it opens as and how `insert` refuses
        // it, or a piece of the error every opener gives (which names the
        // path once).
        let sharded = "a sharded collection; it mutates through `serve`";
        let table = [
            ("m/MANIFEST", Ok(("flat-pdx", "a frozen flat-pdx"))),
            ("junk/MANIFEST", Err("unknown magic \"garb\"")),
            ("nope", Err("\"NOPE\"")),
            ("shards", Err("\"PDXS\"")),
            ("renamed.manifest", Err("must be named MANIFEST")),
            ("empty", Err("MANIFEST for a collection or SHARDS")),
            ("cut.pdx", Err("cut.pdx")),
            ("sharded", Ok(("sharded-collection", sharded))),
            ("store", Ok(("collection", ""))),
            ("store/MANIFEST", Ok(("collection", ""))),
        ];
        for (name, want) in table {
            let index = format!("--index={}", at(name));
            let any = AnyIndex::open(at(name)).map(|index| index.kind());
            let any = any.map_err(|e| e.to_string());
            let served = pdx::serve::Backend::open(at(name));
            let served = served.map(|b| b.index().kind()).map_err(|e| e.to_string());
            let seen = std::cell::Cell::new(None);
            let stat = Args::parse(&argv(&[&index]), STAT_FLAGS).unwrap();
            let stat = stat_describe(&stat, &|kind| seen.set(Some(kind)));
            assert_eq!(served, any, "{name}: Backend::open");
            assert_eq!(stat.map(|()| seen.get().unwrap()), any, "{name}: stat");
            match (&any, want) {
                (Ok(kind), Ok((want, _))) => assert_eq!(*kind, want, "{name}"),
                (Err(err), Err(want)) => {
                    assert!(err.contains(want), "{name}: {err}");
                    // Only the layer that opened the path names it.
                    assert_eq!(err.matches(&at(name)).count(), 1, "{name}: {err}");
                }
                (got, want) => panic!("{name}: opened as {got:?}, want {want:?}"),
            }
            let insert = Args::parse(&argv(&[&index, &data]), INSERT_FLAGS).unwrap();
            match (cmd_insert(&insert), want, &any) {
                (Ok(()), Ok(("collection", _)), _) => {}
                (Err(err), Ok((_, refusal)), _) if !refusal.is_empty() => {
                    assert!(err.contains(refusal), "{name}: {err}")
                }
                (Err(err), Err(_), Err(any)) => assert_eq!(&err, any, "{name}: insert"),
                (got, _, _) => panic!("{name}: insert gave {got:?}"),
            }
        }
        let empty = AnyIndex::open(at("empty")).err().map(|e| e.kind());
        assert_eq!(empty, Some(std::io::ErrorKind::NotFound));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("thread", "threads"), 1);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }
}
