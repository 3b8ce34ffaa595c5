//! The hand-rolled wire protocol of `pdx serve`.
//!
//! Everything on the wire is a **frame**:
//!
//! ```text
//! len: u32 LE | payload (len bytes) = seq: u32 LE | msg
//! ```
//!
//! `len` counts the payload (sequence number included), is validated
//! against a caller-supplied cap before any allocation, and `seq` is an
//! opaque correlation id: the server copies a request's `seq` into its
//! response frame, so clients may pipeline requests and match responses
//! out of order. `msg` is one encoded [`Request`] or [`Response`]: a
//! one-byte tag followed by the variant's fields, all integers
//! little-endian and every `f32` carried as its IEEE-754 bit pattern
//! (`to_bits`/`from_bits`), so encoding is lossless for every value —
//! the round-trip law `decode(encode(x)) == x` holds for NaN-free
//! payloads and is enforced by the property suite.
//!
//! Decoding is **total**: any byte sequence either decodes into a value
//! or returns a typed [`ProtoError`] — never a panic — and every length
//! field is cross-checked against the bytes actually present before a
//! buffer is reserved, so a hostile frame cannot make the server
//! allocate more than the (capped) frame it already read.

use pdx_core::codec::{put_slice, put_u32, put_u64, read_vec, ByteReader, Source, Stream};
use pdx_core::heap::Neighbor;
use std::fmt;
use std::io::{self, Read, Write};

/// Default cap on a frame's payload length (16 MiB): larger frames are
/// rejected before allocation.
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Default TCP port of `pdx serve`.
pub const DEFAULT_PORT: u16 = 4791;

const TAG_PING: u8 = 0x01;
const TAG_SEARCH: u8 = 0x02;
const TAG_SEARCH_BATCH: u8 = 0x03;
const TAG_INSERT: u8 = 0x04;
const TAG_DELETE: u8 = 0x05;
const TAG_STATS: u8 = 0x06;

const TAG_PONG: u8 = 0x81;
const TAG_NEIGHBORS: u8 = 0x82;
const TAG_BATCH: u8 = 0x83;
const TAG_INSERTED: u8 = 0x84;
const TAG_DELETED: u8 = 0x85;
const TAG_STATS_REPORT: u8 = 0x86;
const TAG_ERROR: u8 = 0xEE;

/// A malformed message: what the server answers with an
/// [`ErrorKind::Protocol`] frame (the connection survives).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

/// The shared byte reader reports truncation and lying counts as
/// `io::Error`s naming the field; on the wire they are protocol errors.
impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError(e.to_string())
    }
}

/// Typed failure classes a server can answer with, instead of hanging
/// or dropping the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The admission queue is full; retry later (the server is shedding
    /// load instead of stalling).
    Busy,
    /// The request's deadline passed before a worker could execute it.
    DeadlineExceeded,
    /// The frame or request was malformed (or referenced the wrong
    /// dimensionality).
    Protocol,
    /// A store-layer mutation failed (duplicate id, missing id, …).
    Store,
    /// The operation does not apply to this index kind (e.g. `Insert`
    /// against a frozen container).
    Unsupported,
}

impl ErrorKind {
    fn to_u8(self) -> u8 {
        match self {
            ErrorKind::Busy => 0,
            ErrorKind::DeadlineExceeded => 1,
            ErrorKind::Protocol => 2,
            ErrorKind::Store => 3,
            ErrorKind::Unsupported => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            0 => ErrorKind::Busy,
            1 => ErrorKind::DeadlineExceeded,
            2 => ErrorKind::Protocol,
            3 => ErrorKind::Store,
            4 => ErrorKind::Unsupported,
            other => return Err(ProtoError(format!("unknown error kind {other}"))),
        })
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorKind::Busy => "busy",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Store => "store",
            ErrorKind::Unsupported => "unsupported",
        };
        f.write_str(name)
    }
}

/// One client request. Every variant but [`Request::Ping`] carries
/// `deadline_ms`, the client's latency budget measured from the
/// server-side arrival of the frame; `0` means "no deadline" (the
/// server may substitute its configured default).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline, bypassing admission.
    Ping,
    /// Single k-NN query.
    Search {
        /// Latency budget in milliseconds (`0` = none).
        deadline_ms: u32,
        /// Neighbours to return.
        k: u32,
        /// IVF probe count (`0` = all buckets).
        nprobe: u32,
        /// SQ8 refinement factor (`0` = server default).
        refine: u32,
        /// The query vector.
        query: Vec<f32>,
    },
    /// A packed batch of queries, answered as one frame.
    SearchBatch {
        /// Latency budget in milliseconds (`0` = none).
        deadline_ms: u32,
        /// Neighbours to return per query.
        k: u32,
        /// IVF probe count (`0` = all buckets).
        nprobe: u32,
        /// SQ8 refinement factor (`0` = server default).
        refine: u32,
        /// Dimensionality the queries are packed at.
        dims: u32,
        /// `dims`-strided query vectors (length a multiple of `dims`).
        queries: Vec<f32>,
    },
    /// Insert one vector into a mutable collection.
    Insert {
        /// Latency budget in milliseconds (`0` = none).
        deadline_ms: u32,
        /// External id of the new row.
        id: u64,
        /// The vector.
        vector: Vec<f32>,
    },
    /// Tombstone one row of a mutable collection.
    Delete {
        /// Latency budget in milliseconds (`0` = none).
        deadline_ms: u32,
        /// External id of the row to delete.
        id: u64,
    },
    /// Server statistics snapshot; answered inline, bypassing admission
    /// (so overload is observable while the queue is full).
    Stats {
        /// Latency budget in milliseconds (`0` = none).
        deadline_ms: u32,
    },
}

impl Request {
    /// The request's latency budget in milliseconds (`0` = none).
    pub fn deadline_ms(&self) -> u32 {
        match self {
            Request::Ping => 0,
            Request::Search { deadline_ms, .. }
            | Request::SearchBatch { deadline_ms, .. }
            | Request::Insert { deadline_ms, .. }
            | Request::Delete { deadline_ms, .. }
            | Request::Stats { deadline_ms } => *deadline_ms,
        }
    }

    /// Encodes the request as a frame message (tag + fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(TAG_PING),
            Request::Search {
                deadline_ms,
                k,
                nprobe,
                refine,
                query,
            } => {
                out.push(TAG_SEARCH);
                put_u32(&mut out, *deadline_ms);
                put_u32(&mut out, *k);
                put_u32(&mut out, *nprobe);
                put_u32(&mut out, *refine);
                put_f32_vec(&mut out, query);
            }
            Request::SearchBatch {
                deadline_ms,
                k,
                nprobe,
                refine,
                dims,
                queries,
            } => {
                out.push(TAG_SEARCH_BATCH);
                put_u32(&mut out, *deadline_ms);
                put_u32(&mut out, *k);
                put_u32(&mut out, *nprobe);
                put_u32(&mut out, *refine);
                put_u32(&mut out, *dims);
                put_f32_vec(&mut out, queries);
            }
            Request::Insert {
                deadline_ms,
                id,
                vector,
            } => {
                out.push(TAG_INSERT);
                put_u32(&mut out, *deadline_ms);
                put_u64(&mut out, *id);
                put_f32_vec(&mut out, vector);
            }
            Request::Delete { deadline_ms, id } => {
                out.push(TAG_DELETE);
                put_u32(&mut out, *deadline_ms);
                put_u64(&mut out, *id);
            }
            Request::Stats { deadline_ms } => {
                out.push(TAG_STATS);
                put_u32(&mut out, *deadline_ms);
            }
        }
        out
    }

    /// Decodes a frame message into a request.
    ///
    /// # Errors
    /// [`ProtoError`] on an unknown tag, truncation, oversized length
    /// fields or trailing garbage. Never panics, never allocates beyond
    /// the input's own length.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut c = ByteReader::new(bytes);
        let req = match c.u8("request tag")? {
            TAG_PING => Request::Ping,
            TAG_SEARCH => Request::Search {
                deadline_ms: c.u32("deadline_ms")?,
                k: c.u32("k")?,
                nprobe: c.u32("nprobe")?,
                refine: c.u32("refine")?,
                query: f32_vec(&mut c, "query")?,
            },
            TAG_SEARCH_BATCH => {
                let (deadline_ms, k, nprobe, refine) = (
                    c.u32("deadline_ms")?,
                    c.u32("k")?,
                    c.u32("nprobe")?,
                    c.u32("refine")?,
                );
                let dims = c.u32("dims")?;
                let queries = f32_vec(&mut c, "queries")?;
                if dims == 0 && !queries.is_empty() {
                    return Err(ProtoError("batch with zero dims but non-empty data".into()));
                }
                if dims > 0 && queries.len() % dims as usize != 0 {
                    return Err(ProtoError(format!(
                        "batch data length {} is not a multiple of dims {dims}",
                        queries.len()
                    )));
                }
                Request::SearchBatch {
                    deadline_ms,
                    k,
                    nprobe,
                    refine,
                    dims,
                    queries,
                }
            }
            TAG_INSERT => Request::Insert {
                deadline_ms: c.u32("deadline_ms")?,
                id: c.u64("id")?,
                vector: f32_vec(&mut c, "vector")?,
            },
            TAG_DELETE => Request::Delete {
                deadline_ms: c.u32("deadline_ms")?,
                id: c.u64("id")?,
            },
            TAG_STATS => Request::Stats {
                deadline_ms: c.u32("deadline_ms")?,
            },
            other => return Err(ProtoError(format!("unknown request tag 0x{other:02x}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

/// A server-side statistics snapshot ([`Request::Stats`]'s answer).
///
/// All fields are integers so the report round-trips exactly; the QPS
/// is fixed-point (`qps_x1000 / 1000.0` queries per second) and the
/// latency percentiles come from the server's fixed-bucket histogram
/// (micro­seconds, ≤ 12.5 % relative bucket error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Dimensionality of the served index.
    pub dims: u64,
    /// Live (searchable) vectors.
    pub live: u64,
    /// Tombstoned rows awaiting compaction (0 for frozen containers).
    pub tombstones: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Requests executed to completion (admitted, deadline met).
    pub completed: u64,
    /// Requests rejected with [`ErrorKind::Busy`] (queue full).
    pub busy_rejected: u64,
    /// Requests rejected with [`ErrorKind::DeadlineExceeded`].
    pub deadline_rejected: u64,
    /// Malformed frames answered with [`ErrorKind::Protocol`].
    pub protocol_errors: u64,
    /// Requests currently executing on workers.
    pub in_flight: u64,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: u64,
    /// Capacity of the admission queue.
    pub queue_capacity: u64,
    /// Completed-requests throughput × 1000 (fixed point).
    pub qps_x1000: u64,
    /// Median service latency (arrival → response), microseconds.
    pub p50_us: u64,
    /// 99th-percentile service latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile service latency, microseconds.
    pub p999_us: u64,
    /// Kernel ISA the server's searches run on:
    /// [`KernelIsa::wire_code`](pdx_core::KernelIsa::wire_code)
    /// (0 = scalar, 1 = avx2, 2 = neon, 3 = avx512).
    pub kernel_isa: u64,
    /// Approximate bytes the backend holds resident (header +
    /// cached buckets for lazy deployments, full payload otherwise).
    pub resident_bytes: u64,
    /// Block-cache hits since start (0 for fully resident backends).
    pub cache_hits: u64,
    /// Block-cache misses since start.
    pub cache_misses: u64,
    /// Block-cache evictions since start.
    pub cache_evictions: u64,
    /// Microseconds the backend took to open (cold-open time).
    pub open_us: u64,
}

/// The report's wire form: its fields as `u64`s in this order. One list
/// drives both directions, so they cannot drift apart.
macro_rules! stats_codec {
    ($($field:ident),*) => {
        impl StatsReport {
            fn encode_into(&self, out: &mut Vec<u8>) {
                put_slice(out, &[$(self.$field),*]);
            }

            fn decode_from(c: &mut ByteReader<'_>) -> io::Result<Self> {
                Ok(StatsReport {
                    $($field: c.u64(stringify!($field))?),*
                })
            }
        }
    };
}
stats_codec!(
    dims,
    live,
    tombstones,
    uptime_ms,
    completed,
    busy_rejected,
    deadline_rejected,
    protocol_errors,
    in_flight,
    queue_depth,
    queue_capacity,
    qps_x1000,
    p50_us,
    p99_us,
    p999_us,
    kernel_isa,
    resident_bytes,
    cache_hits,
    cache_misses,
    cache_evictions,
    open_us
);

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// [`Request::Ping`]'s answer.
    Pong,
    /// [`Request::Search`]'s answer.
    Neighbors(Vec<Neighbor>),
    /// [`Request::SearchBatch`]'s answer, one list per query.
    Batch(Vec<Vec<Neighbor>>),
    /// [`Request::Insert`] succeeded.
    Inserted,
    /// [`Request::Delete`] succeeded.
    Deleted,
    /// [`Request::Stats`]'s answer.
    Stats(StatsReport),
    /// A typed failure; the connection stays usable.
    Error {
        /// The failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Self {
        Response::Error {
            kind,
            message: message.into(),
        }
    }

    /// Encodes the response as a frame message (tag + fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(TAG_PONG),
            Response::Neighbors(hits) => {
                out.push(TAG_NEIGHBORS);
                put_neighbors(&mut out, hits);
            }
            Response::Batch(lists) => {
                out.push(TAG_BATCH);
                put_u32(&mut out, lists.len() as u32);
                for hits in lists {
                    put_neighbors(&mut out, hits);
                }
            }
            Response::Inserted => out.push(TAG_INSERTED),
            Response::Deleted => out.push(TAG_DELETED),
            Response::Stats(report) => {
                out.push(TAG_STATS_REPORT);
                report.encode_into(&mut out);
            }
            Response::Error { kind, message } => {
                out.push(TAG_ERROR);
                out.push(kind.to_u8());
                put_u32(&mut out, message.len() as u32);
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }

    /// Decodes a frame message into a response.
    ///
    /// # Errors
    /// [`ProtoError`] on an unknown tag, truncation, oversized length
    /// fields or trailing garbage. Never panics, never allocates beyond
    /// the input's own length.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut c = ByteReader::new(bytes);
        let resp = match c.u8("response tag")? {
            TAG_PONG => Response::Pong,
            TAG_NEIGHBORS => Response::Neighbors(neighbors(&mut c)?),
            TAG_BATCH => {
                // The list grows by one per list actually decoded, so the
                // count itself reserves nothing.
                let n = c.u32("batch count")?;
                let mut lists = Vec::new();
                for _ in 0..n {
                    lists.push(neighbors(&mut c)?);
                }
                Response::Batch(lists)
            }
            TAG_INSERTED => Response::Inserted,
            TAG_DELETED => Response::Deleted,
            TAG_STATS_REPORT => Response::Stats(StatsReport::decode_from(&mut c)?),
            TAG_ERROR => {
                let kind = ErrorKind::from_u8(c.u8("error kind")?)?;
                let len = c.u32("message length")? as usize;
                let message = String::from_utf8(c.take(len, "message length")?.to_vec())
                    .map_err(|_| ProtoError("error message is not UTF-8".into()))?;
                Response::Error { kind, message }
            }
            other => return Err(ProtoError(format!("unknown response tag 0x{other:02x}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Writes one frame (`len | seq | msg`) and flushes.
///
/// # Errors
/// Propagates IO errors.
pub fn write_frame(w: &mut impl Write, seq: u32, msg: &[u8]) -> io::Result<()> {
    let len = (msg.len() + 4) as u32;
    let mut buf = Vec::with_capacity(8 + msg.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(msg);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame, returning `(seq, msg)`.
///
/// # Errors
/// `InvalidData` when the declared length is shorter than its own
/// sequence number or exceeds `max_frame` (the connection cannot be
/// resynchronized after either); IO errors are propagated.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> io::Result<(u32, Vec<u8>)> {
    let mut src = Stream::new(r);
    let len = src.u32("frame length")?;
    check_frame_len(len, max_frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut payload: Vec<u8> = read_vec(&mut src, len as usize, "frame length")?;
    let seq = u32::from_le_bytes(payload[..4].try_into().expect("length checked above"));
    payload.drain(..4);
    Ok((seq, payload))
}

/// Validates a frame's declared payload length against the cap.
///
/// # Errors
/// [`ProtoError`] when the length is under 4 bytes (no room for the
/// sequence number) or over `max_frame`.
pub fn check_frame_len(len: u32, max_frame: u32) -> Result<(), ProtoError> {
    if len < 4 {
        return Err(ProtoError(format!(
            "frame length {len} is shorter than its sequence number"
        )));
    }
    if len > max_frame {
        return Err(ProtoError(format!(
            "frame length {len} exceeds the {max_frame}-byte cap"
        )));
    }
    Ok(())
}

fn put_f32_vec(out: &mut Vec<u8>, v: &[f32]) {
    put_u32(out, v.len() as u32);
    put_slice(out, v);
}

fn put_neighbors(out: &mut Vec<u8>, hits: &[Neighbor]) {
    put_u32(out, hits.len() as u32);
    for n in hits {
        put_u64(out, n.id);
        put_u32(out, n.distance.to_bits());
    }
}

/// `count u32 | f32 × count`, the count checked against the bytes
/// present before the vector is allocated.
fn f32_vec(c: &mut ByteReader<'_>, what: &str) -> io::Result<Vec<f32>> {
    let n = c.u32(what)? as usize;
    read_vec(c, n, what)
}

/// `count u32 | { id u64, distance f32 } × count`. The records are
/// borrowed from the message first, so the list is sized by bytes that
/// exist.
fn neighbors(c: &mut ByteReader<'_>) -> io::Result<Vec<Neighbor>> {
    let n = c.u32("neighbor count")? as usize;
    let raw = c.take(n.saturating_mul(12), "neighbor count")?;
    Ok(raw
        .chunks_exact(12)
        .map(|r| Neighbor {
            id: u64::from_le_bytes(r[..8].try_into().expect("8 bytes")),
            distance: f32::from_le_bytes(r[8..].try_into().expect("4 bytes")),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Search {
                deadline_ms: 25,
                k: 10,
                nprobe: 0,
                refine: 4,
                query: vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE],
            },
            Request::SearchBatch {
                deadline_ms: 0,
                k: 3,
                nprobe: 7,
                refine: 0,
                dims: 2,
                queries: vec![1.0, 2.0, 3.0, 4.0],
            },
            Request::Insert {
                deadline_ms: 1,
                id: u64::MAX,
                vector: vec![0.5; 7],
            },
            Request::Delete {
                deadline_ms: 9,
                id: 42,
            },
            Request::Stats { deadline_ms: 0 },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        let hits = vec![
            Neighbor {
                id: 3,
                distance: 0.25,
            },
            Neighbor {
                id: u64::MAX,
                distance: f32::MAX,
            },
        ];
        vec![
            Response::Pong,
            Response::Neighbors(hits.clone()),
            Response::Batch(vec![hits, Vec::new()]),
            Response::Inserted,
            Response::Deleted,
            Response::Stats(StatsReport {
                dims: 16,
                live: 1000,
                tombstones: 3,
                uptime_ms: 12345,
                completed: 99,
                busy_rejected: 2,
                deadline_rejected: 1,
                protocol_errors: 4,
                in_flight: 1,
                queue_depth: 5,
                queue_capacity: 128,
                qps_x1000: 1500,
                p50_us: 100,
                p99_us: 900,
                p999_us: 2000,
                kernel_isa: 1,
                resident_bytes: 1 << 30,
                cache_hits: 77,
                cache_misses: 13,
                cache_evictions: 6,
                open_us: 450,
            }),
            Response::error(ErrorKind::Busy, "queue full"),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        for req in sample_requests() {
            let bytes = req.encode();
            for cut in 0..bytes.len() {
                assert!(Request::decode(&bytes[..cut]).is_err(), "{req:?} cut {cut}");
            }
            let mut padded = bytes;
            padded.push(0);
            assert!(Request::decode(&padded).is_err(), "{req:?} padded");
        }
    }

    #[test]
    fn hostile_counts_do_not_overallocate() {
        // A Search frame declaring 4 billion floats but carrying none:
        // must error before reserving anything.
        let mut msg = vec![TAG_SEARCH];
        put_u32(&mut msg, 0);
        put_u32(&mut msg, 10);
        put_u32(&mut msg, 0);
        put_u32(&mut msg, 0);
        put_u32(&mut msg, u32::MAX); // vector count
        assert!(Request::decode(&msg).is_err());

        let mut msg = vec![TAG_BATCH];
        put_u32(&mut msg, u32::MAX); // list count
        assert!(Response::decode(&msg).is_err());
    }

    #[test]
    fn frame_len_is_capped() {
        assert!(check_frame_len(3, 1024).is_err());
        assert!(check_frame_len(4, 1024).is_ok());
        assert!(check_frame_len(1025, 1024).is_err());
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, &Request::Ping.encode()).unwrap();
        let (seq, msg) = read_frame(&mut buf.as_slice(), 1024).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(Request::decode(&msg).unwrap(), Request::Ping);
    }

    #[test]
    fn batch_dims_mismatch_is_rejected() {
        let req = Request::SearchBatch {
            deadline_ms: 0,
            k: 1,
            nprobe: 0,
            refine: 0,
            dims: 3,
            queries: vec![1.0; 4],
        };
        assert!(Request::decode(&req.encode()).is_err());
    }
}
