//! A blocking client for the `pdx serve` protocol.
//!
//! One [`Client`] owns one connection and issues one request at a time
//! (send frame, read the matching reply); sequence numbers are still
//! checked so a desynchronized server is caught as a typed
//! [`ClientError::Protocol`] instead of silently mismatched answers.

use crate::proto::{read_frame, write_frame, ErrorKind, Request, Response, StatsReport};
use pdx_core::heap::Neighbor;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (refused, reset, closed mid-reply).
    Io(io::Error),
    /// The server answered with a typed error frame.
    Server {
        /// The failure class the server reported.
        kind: ErrorKind,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server's reply did not decode, carried the wrong sequence
    /// number, or was the wrong response type for the request.
    Protocol(String),
    /// A request argument does not fit its `u32` wire field; nothing was
    /// sent.
    InvalidInput {
        /// The argument: `k`, `nprobe`, `refine` or `dims`.
        field: &'static str,
        /// The value it was given.
        value: usize,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Server { kind, message } => write!(f, "server error ({kind}): {message}"),
            ClientError::Protocol(msg) => write!(f, "client protocol error: {msg}"),
            ClientError::InvalidInput { field, value } => write!(
                f,
                "invalid {field} = {value}: the wire carries it as a u32 (at most {})",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server-reported error kind, if this is a server error.
    pub fn server_kind(&self) -> Option<ErrorKind> {
        match self {
            ClientError::Server { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

/// `value` as the `u32` wire field `field`, or a typed error naming it
/// (never a wrap: `k = 2³²` is not `k = 0`).
fn wire_u32(field: &'static str, value: usize) -> Result<u32, ClientError> {
    u32::try_from(value).map_err(|_| ClientError::InvalidInput { field, value })
}

/// A blocking connection to a `pdx serve` server.
pub struct Client {
    stream: TcpStream,
    next_seq: u32,
    deadline_ms: u32,
    max_frame: u32,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:4791"`).
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            next_seq: 1,
            deadline_ms: 0,
            max_frame: crate::proto::DEFAULT_MAX_FRAME,
        })
    }

    /// Sets the deadline attached to subsequent requests (`0` = none,
    /// letting the server apply its configured default).
    pub fn set_deadline_ms(&mut self, deadline_ms: u32) {
        self.deadline_ms = deadline_ms;
    }

    /// Sends `req` and reads its reply (any reply type, including
    /// typed error frames — the raw exchange behind the typed helpers).
    ///
    /// # Errors
    /// [`ClientError::Io`] on connection failures,
    /// [`ClientError::Protocol`] on undecodable or out-of-sequence
    /// replies.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1).max(1);
        write_frame(&mut self.stream, seq, &req.encode())?;
        let (reply_seq, msg) = read_frame(&mut self.stream, self.max_frame)?;
        if reply_seq != seq {
            return Err(ClientError::Protocol(format!(
                "reply sequence {reply_seq} does not match request {seq}"
            )));
        }
        Response::decode(&msg).map_err(|e| ClientError::Protocol(e.0))
    }

    fn expect(&mut self, req: &Request, what: &str) -> Result<Response, ClientError> {
        match self.call(req)? {
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            resp => Ok(resp),
        }
        .and_then(|resp| {
            if resp_matches(&resp, what) {
                Ok(resp)
            } else {
                Err(ClientError::Protocol(format!(
                    "expected a {what} reply, got {resp:?}"
                )))
            }
        })
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// See [`Client::call`]; typed server errors become
    /// [`ClientError::Server`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Ping, "pong").map(|_| ())
    }

    /// Single k-NN query with default search options.
    ///
    /// # Errors
    /// See [`Client::call`]; typed server errors become
    /// [`ClientError::Server`].
    pub fn search(&mut self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, ClientError> {
        self.search_opts(query, k, 0, 0)
    }

    /// Single k-NN query with explicit `nprobe`/`refine` (0 = default).
    ///
    /// # Errors
    /// [`ClientError::InvalidInput`] naming `k`, `nprobe` or `refine`
    /// when it exceeds `u32::MAX`, before anything is sent; otherwise see
    /// [`Client::call`]; typed server errors become
    /// [`ClientError::Server`].
    pub fn search_opts(
        &mut self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        refine: usize,
    ) -> Result<Vec<Neighbor>, ClientError> {
        let req = Request::Search {
            deadline_ms: self.deadline_ms,
            k: wire_u32("k", k)?,
            nprobe: wire_u32("nprobe", nprobe)?,
            refine: wire_u32("refine", refine)?,
            query: query.to_vec(),
        };
        match self.expect(&req, "neighbors")? {
            Response::Neighbors(hits) => Ok(hits),
            _ => unreachable!("expect() checked the reply type"),
        }
    }

    /// Packed batch of `dims`-strided queries, one result list each.
    ///
    /// # Errors
    /// [`ClientError::InvalidInput`] naming `k` or `dims` when it
    /// exceeds `u32::MAX`, before anything is sent; otherwise see
    /// [`Client::call`]; typed server errors become
    /// [`ClientError::Server`].
    pub fn search_batch(
        &mut self,
        queries: &[f32],
        dims: usize,
        k: usize,
    ) -> Result<Vec<Vec<Neighbor>>, ClientError> {
        let req = Request::SearchBatch {
            deadline_ms: self.deadline_ms,
            k: wire_u32("k", k)?,
            nprobe: 0,
            refine: 0,
            dims: wire_u32("dims", dims)?,
            queries: queries.to_vec(),
        };
        match self.expect(&req, "batch")? {
            Response::Batch(lists) => Ok(lists),
            _ => unreachable!("expect() checked the reply type"),
        }
    }

    /// Inserts one vector (mutable collections only).
    ///
    /// # Errors
    /// See [`Client::call`]; typed server errors become
    /// [`ClientError::Server`].
    pub fn insert(&mut self, id: u64, vector: &[f32]) -> Result<(), ClientError> {
        let req = Request::Insert {
            deadline_ms: self.deadline_ms,
            id,
            vector: vector.to_vec(),
        };
        self.expect(&req, "inserted").map(|_| ())
    }

    /// Tombstones one row (mutable collections only).
    ///
    /// # Errors
    /// See [`Client::call`]; typed server errors become
    /// [`ClientError::Server`].
    pub fn delete(&mut self, id: u64) -> Result<(), ClientError> {
        let req = Request::Delete {
            deadline_ms: self.deadline_ms,
            id,
        };
        self.expect(&req, "deleted").map(|_| ())
    }

    /// Fetches the server's statistics snapshot.
    ///
    /// # Errors
    /// See [`Client::call`]; typed server errors become
    /// [`ClientError::Server`].
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        let req = Request::Stats {
            deadline_ms: self.deadline_ms,
        };
        match self.expect(&req, "stats")? {
            Response::Stats(report) => Ok(report),
            _ => unreachable!("expect() checked the reply type"),
        }
    }
}

fn resp_matches(resp: &Response, what: &str) -> bool {
    matches!(
        (resp, what),
        (Response::Pong, "pong")
            | (Response::Neighbors(_), "neighbors")
            | (Response::Batch(_), "batch")
            | (Response::Inserted, "inserted")
            | (Response::Deleted, "deleted")
            | (Response::Stats(_), "stats")
    )
}
