//! Request/response messages and their body codecs.
//!
//! Every frame body is one message: a tag byte (a *verb* for requests,
//! a *response tag* for responses) followed by a verb-specific payload
//! built from the workspace's shared wire primitives
//! ([`xarch_core::wire`]: LEB128 varints, length-prefixed strings and
//! byte slices). The grammar is specified byte-for-byte in
//! `docs/PROTOCOL.md`; the [`verbs`], [`tags`] and [`ErrorCode`]
//! constants here are what the docs golden test pins.
//!
//! Decoding is total: malformed bytes produce a positioned
//! [`WireError`] (wrapped in [`DecodeError`]), an unassigned tag byte
//! produces [`DecodeError::UnknownTag`], and bytes left over after a
//! complete message produce [`DecodeError::Trailing`] — nothing panics,
//! nothing is silently ignored.

use std::ops::Deref;
use std::sync::Arc;

use xarch_core::wire::{
    get_bytes, get_str, get_str_ref, get_varint, put_bytes, put_str, put_varint, WireError,
};
use xarch_core::{
    ElementHistory, KeyPart, KeyQuery, KeyValue, PathName, RangeEntry, StoreStats, TimeSet,
    VersionDelta,
};

use crate::{MIN_PROTO_VERSION, PROTO_MAGIC, PROTO_VERSION};

/// Request verb bytes — the first body byte of every request frame.
pub mod verbs {
    /// Handshake: magic, then the client's supported version range.
    pub const HELLO: u8 = 0x01;
    /// Liveness probe; answered with [`super::tags::PONG`].
    pub const PING: u8 = 0x02;
    /// Whole-version retrieval at a pin.
    pub const RETRIEVE: u8 = 0x10;
    /// Partial subtree retrieval (`as_of`).
    pub const AS_OF: u8 = 0x11;
    /// Element existence history.
    pub const HISTORY: u8 = 0x12;
    /// Existence plus distinct contents over time.
    pub const HISTORY_VALUES: u8 = 0x13;
    /// Keyed-children range scan over a version window.
    pub const RANGE: u8 = 0x14;
    /// Line diff of one element between two versions.
    pub const DIFF: u8 = 0x15;
    /// Aggregate store statistics.
    pub const STATS: u8 = 0x16;
    /// The latest archived version number.
    pub const LATEST: u8 = 0x17;
    /// Batched ingest: documents to merge as consecutive versions.
    pub const INGEST: u8 = 0x20;
    /// Pin a server-held snapshot lease.
    pub const SNAP_OPEN: u8 = 0x28;
    /// Release a snapshot lease.
    pub const SNAP_CLOSE: u8 = 0x29;
    /// Prometheus-text metrics exposition.
    pub const METRICS: u8 = 0x30;
    /// Service health summary.
    pub const HEALTH: u8 = 0x31;
    /// Begin graceful shutdown (when the server allows it).
    pub const SHUTDOWN: u8 = 0x32;
}

/// Response tag bytes — the first body byte of every response frame.
/// The high bit distinguishes responses from request verbs on the wire.
pub mod tags {
    /// Handshake accepted: negotiated version, key spec, latest version.
    pub const HELLO_OK: u8 = 0x81;
    /// Answer to [`super::verbs::PING`].
    pub const PONG: u8 = 0x82;
    /// An optional document (retrieve / as_of answers).
    pub const DOCUMENT: u8 = 0x83;
    /// An optional existence time set.
    pub const HISTORY: u8 = 0x84;
    /// An optional full element history.
    pub const HISTORY_VALUES: u8 = 0x85;
    /// Range-scan hits.
    pub const RANGE: u8 = 0x86;
    /// A version delta.
    pub const DIFF: u8 = 0x87;
    /// Aggregate statistics.
    pub const STATS: u8 = 0x88;
    /// The latest version number at the answering pin.
    pub const LATEST: u8 = 0x89;
    /// Version numbers assigned to an ingested batch.
    pub const INGESTED: u8 = 0x8A;
    /// A snapshot lease was pinned.
    pub const SNAP_OPENED: u8 = 0x8B;
    /// A snapshot lease was released.
    pub const SNAP_CLOSED: u8 = 0x8C;
    /// Prometheus-text metrics.
    pub const METRICS: u8 = 0x8D;
    /// Health summary.
    pub const HEALTH: u8 = 0x8E;
    /// Graceful shutdown acknowledged.
    pub const SHUTTING_DOWN: u8 = 0x8F;
    /// A structured error.
    pub const ERROR: u8 = 0xEE;
}

/// Structured error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame envelope was malformed (bad CRC, truncated body).
    BadFrame = 1,
    /// The request's verb byte is not assigned.
    UnknownVerb = 2,
    /// The verb is known but its payload failed to decode.
    BadPayload = 3,
    /// Handshake version ranges do not intersect, or the magic is wrong.
    VersionMismatch = 4,
    /// A non-`Hello` request arrived before the handshake completed.
    NeedHello = 5,
    /// The archive backend failed to answer (`StoreError` text attached).
    Store = 6,
    /// The frame's advertised length exceeds the receiver's limit.
    FrameTooLarge = 7,
    /// The request named a snapshot lease this connection does not hold.
    NoSuchLease = 8,
    /// The server is shutting down, or shutdown was requested but the
    /// configuration forbids remote shutdown.
    ShutdownRefused = 9,
}

impl ErrorCode {
    /// The wire byte for this code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte back into a code.
    pub fn from_code(byte: u8) -> Option<ErrorCode> {
        match byte {
            1 => Some(ErrorCode::BadFrame),
            2 => Some(ErrorCode::UnknownVerb),
            3 => Some(ErrorCode::BadPayload),
            4 => Some(ErrorCode::VersionMismatch),
            5 => Some(ErrorCode::NeedHello),
            6 => Some(ErrorCode::Store),
            7 => Some(ErrorCode::FrameTooLarge),
            8 => Some(ErrorCode::NoSuchLease),
            9 => Some(ErrorCode::ShutdownRefused),
            _ => None,
        }
    }

    /// The code's stable name, as used in diagnostics and the spec.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::UnknownVerb => "unknown-verb",
            ErrorCode::BadPayload => "bad-payload",
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::NeedHello => "need-hello",
            ErrorCode::Store => "store",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::NoSuchLease => "no-such-lease",
            ErrorCode::ShutdownRefused => "shutdown-refused",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Why a message body failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The first body byte is not an assigned verb / response tag.
    UnknownTag(u8),
    /// A payload field failed to decode (positioned).
    Wire(WireError),
    /// The message decoded completely but bytes remain after it.
    Trailing {
        /// Offset of the first unconsumed byte.
        at: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownTag(b) => write!(f, "unassigned message tag {b:#04x}"),
            DecodeError::Wire(e) => write!(f, "malformed payload: {e}"),
            DecodeError::Trailing { at } => {
                write!(f, "trailing bytes after a complete message (offset {at})")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<WireError> for DecodeError {
    fn from(e: WireError) -> Self {
        DecodeError::Wire(e)
    }
}

fn wire_err<T>(offset: usize, reason: &'static str) -> Result<T, WireError> {
    Err(WireError { offset, reason })
}

// ---- field codecs ---------------------------------------------------------

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, WireError> {
    let at = *pos;
    let v = get_varint(buf, pos)?;
    u32::try_from(v).map_err(|_| WireError {
        offset: at,
        reason: "varint exceeds u32",
    })
}

fn get_usize(buf: &[u8], pos: &mut usize) -> Result<usize, WireError> {
    let at = *pos;
    let v = get_varint(buf, pos)?;
    usize::try_from(v).map_err(|_| WireError {
        offset: at,
        reason: "varint exceeds usize",
    })
}

fn get_flag(buf: &[u8], pos: &mut usize) -> Result<bool, WireError> {
    let at = *pos;
    match buf.get(*pos) {
        Some(0) => {
            *pos += 1;
            Ok(false)
        }
        Some(1) => {
            *pos += 1;
            Ok(true)
        }
        Some(_) => wire_err(at, "flag byte must be 0 or 1"),
        None => wire_err(at, "truncated flag byte"),
    }
}

fn get_string(buf: &[u8], pos: &mut usize) -> Result<String, WireError> {
    get_str(buf, pos)
}

fn put_steps(out: &mut Vec<u8>, steps: &[KeyQuery]) {
    put_varint(out, steps.len() as u64);
    for s in steps {
        put_str(out, s.tag());
        put_varint(out, s.parts().len() as u64);
        for (path, value) in s.parts() {
            put_str(out, path);
            put_str(out, value);
        }
    }
}

/// The tags and key-path names one message has decoded so far. The rows
/// of a range answer repeat a handful of them, so a repeat shares the
/// first copy — a reference count — instead of allocating its own.
#[derive(Default)]
struct Names {
    tags: Vec<Arc<str>>,
    paths: Vec<PathName>,
}

/// How many distinct names a message shares; past that, a name is
/// allocated each time it occurs, so a crafted message of many names
/// costs no more than it did without sharing.
const SHARED_NAMES: usize = 16;

/// The copy of `name` in `seen`, put there on first sight.
fn shared<T: Clone + Deref<Target = str> + for<'a> From<&'a str>>(
    seen: &mut Vec<T>,
    name: &str,
) -> T {
    if let Some(copy) = seen.iter().find(|copy| &***copy == name) {
        return copy.clone();
    }
    let copy = T::from(name);
    if seen.len() < SHARED_NAMES {
        seen.push(copy.clone());
    }
    copy
}

fn get_steps(buf: &[u8], pos: &mut usize, names: &mut Names) -> Result<Vec<KeyQuery>, WireError> {
    let n = get_varint(buf, pos)?;
    let mut steps = Vec::new();
    for _ in 0..n {
        steps.push(get_step(buf, pos, names)?);
    }
    Ok(steps)
}

fn get_step(buf: &[u8], pos: &mut usize, names: &mut Names) -> Result<KeyQuery, WireError> {
    let tag = shared(&mut names.tags, get_str_ref(buf, pos)?);
    // the parts keep the order they came in, one allocation for one part
    let key: KeyValue = match get_varint(buf, pos)? {
        1 => std::iter::once(get_part(buf, pos, names)?).collect(),
        parts_n => {
            let mut parts = Vec::new();
            for _ in 0..parts_n {
                parts.push(get_part(buf, pos, names)?);
            }
            parts.into_iter().collect()
        }
    };
    Ok(KeyQuery::labelled(tag, key))
}

fn get_part(buf: &[u8], pos: &mut usize, names: &mut Names) -> Result<KeyPart, WireError> {
    let path = shared(&mut names.paths, get_str_ref(buf, pos)?);
    let value = get_string(buf, pos)?;
    Ok(KeyPart::new(path, value))
}

fn put_timeset(out: &mut Vec<u8>, t: &TimeSet) {
    let runs = t.intervals();
    put_varint(out, runs.len() as u64);
    for (lo, hi) in runs {
        put_varint(out, u64::from(*lo));
        put_varint(out, u64::from(*hi));
    }
}

fn get_timeset(buf: &[u8], pos: &mut usize) -> Result<TimeSet, WireError> {
    let n = get_varint(buf, pos)?;
    let mut t = TimeSet::new();
    for _ in 0..n {
        let at = *pos;
        let lo = get_u32(buf, pos)?;
        let hi = get_u32(buf, pos)?;
        if lo == 0 || lo > hi {
            return wire_err(at, "invalid time interval");
        }
        t = t.union(&TimeSet::from_range(lo, hi));
    }
    Ok(t)
}

fn put_opt_doc(out: &mut Vec<u8>, doc: Option<&str>) {
    match doc {
        None => out.push(0),
        Some(xml) => {
            out.push(1);
            put_bytes(out, xml.as_bytes());
        }
    }
}

fn get_opt_doc(buf: &[u8], pos: &mut usize) -> Result<Option<String>, WireError> {
    if !get_flag(buf, pos)? {
        return Ok(None);
    }
    let at = *pos;
    let bytes = get_bytes(buf, pos)?;
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok(Some(s.to_owned())),
        Err(_) => wire_err(at, "document is not utf-8"),
    }
}

// ---- requests -------------------------------------------------------------

/// A decoded request. `lease` selects the answering snapshot: `0` pins
/// a fresh snapshot for this request alone; a nonzero id names a lease
/// previously opened on this connection with [`Request::SnapOpen`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake: the client's supported protocol version range.
    Hello {
        /// Oldest protocol revision the client accepts.
        min: u32,
        /// Newest protocol revision the client accepts.
        max: u32,
    },
    /// Liveness probe.
    Ping,
    /// Whole-version retrieval.
    Retrieve {
        /// Answering snapshot (0 = fresh pin).
        lease: u64,
        /// Version to reconstruct.
        v: u32,
    },
    /// Partial subtree retrieval at a version.
    AsOf {
        /// Answering snapshot (0 = fresh pin).
        lease: u64,
        /// Version to answer at.
        v: u32,
        /// Key-query path addressing the element.
        steps: Vec<KeyQuery>,
    },
    /// Element existence history.
    History {
        /// Answering snapshot (0 = fresh pin).
        lease: u64,
        /// Key-query path addressing the element.
        steps: Vec<KeyQuery>,
    },
    /// Existence plus distinct contents over time.
    HistoryValues {
        /// Answering snapshot (0 = fresh pin).
        lease: u64,
        /// Key-query path addressing the element.
        steps: Vec<KeyQuery>,
    },
    /// Keyed-children scan over a version window.
    Range {
        /// Answering snapshot (0 = fresh pin).
        lease: u64,
        /// First version of the window (inclusive).
        lo: u32,
        /// Last version of the window (inclusive).
        hi: u32,
        /// Key-query path addressing the parent element.
        prefix: Vec<KeyQuery>,
    },
    /// Line diff of one element between two versions.
    Diff {
        /// Answering snapshot (0 = fresh pin).
        lease: u64,
        /// Earlier version.
        v1: u32,
        /// Later version.
        v2: u32,
        /// Key-query path addressing the element.
        steps: Vec<KeyQuery>,
    },
    /// Aggregate statistics.
    Stats {
        /// Answering snapshot (0 = fresh pin).
        lease: u64,
    },
    /// The latest archived version.
    Latest {
        /// Answering snapshot (0 = fresh pin).
        lease: u64,
    },
    /// Batched ingest: each entry is one document as XML text, merged
    /// as consecutive versions under the server's group-commit path.
    Ingest {
        /// The documents, in merge order.
        docs: Vec<String>,
    },
    /// Pin a snapshot lease held by the server for this connection.
    SnapOpen,
    /// Release a snapshot lease.
    SnapClose {
        /// The lease to release.
        lease: u64,
    },
    /// Prometheus-text metrics exposition.
    Metrics,
    /// Health summary.
    Health,
    /// Request graceful shutdown.
    Shutdown,
}

impl Request {
    /// Encodes the request as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the request, encoded as a frame body, to `out` — the
    /// mirror of [`Response::encode_into`], so a client too builds its
    /// frame in one buffer behind room for the header.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello { min, max } => {
                out.push(verbs::HELLO);
                out.extend_from_slice(&PROTO_MAGIC);
                put_varint(out, u64::from(*min));
                put_varint(out, u64::from(*max));
            }
            Request::Ping => out.push(verbs::PING),
            Request::Retrieve { lease, v } => {
                out.push(verbs::RETRIEVE);
                put_varint(out, *lease);
                put_varint(out, u64::from(*v));
            }
            Request::AsOf { lease, v, steps } => {
                out.push(verbs::AS_OF);
                put_varint(out, *lease);
                put_varint(out, u64::from(*v));
                put_steps(out, steps);
            }
            Request::History { lease, steps } => {
                out.push(verbs::HISTORY);
                put_varint(out, *lease);
                put_steps(out, steps);
            }
            Request::HistoryValues { lease, steps } => {
                out.push(verbs::HISTORY_VALUES);
                put_varint(out, *lease);
                put_steps(out, steps);
            }
            Request::Range {
                lease,
                lo,
                hi,
                prefix,
            } => {
                out.push(verbs::RANGE);
                put_varint(out, *lease);
                put_varint(out, u64::from(*lo));
                put_varint(out, u64::from(*hi));
                put_steps(out, prefix);
            }
            Request::Diff {
                lease,
                v1,
                v2,
                steps,
            } => {
                out.push(verbs::DIFF);
                put_varint(out, *lease);
                put_varint(out, u64::from(*v1));
                put_varint(out, u64::from(*v2));
                put_steps(out, steps);
            }
            Request::Stats { lease } => {
                out.push(verbs::STATS);
                put_varint(out, *lease);
            }
            Request::Latest { lease } => {
                out.push(verbs::LATEST);
                put_varint(out, *lease);
            }
            Request::Ingest { docs } => {
                out.push(verbs::INGEST);
                put_varint(out, docs.len() as u64);
                for d in docs {
                    put_bytes(out, d.as_bytes());
                }
            }
            Request::SnapOpen => out.push(verbs::SNAP_OPEN),
            Request::SnapClose { lease } => {
                out.push(verbs::SNAP_CLOSE);
                put_varint(out, *lease);
            }
            Request::Metrics => out.push(verbs::METRICS),
            Request::Health => out.push(verbs::HEALTH),
            Request::Shutdown => out.push(verbs::SHUTDOWN),
        }
    }

    /// Decodes a frame body as a request. Total: every malformed input
    /// is a typed error, and trailing bytes are rejected.
    pub fn decode(body: &[u8]) -> Result<Request, DecodeError> {
        let Some(&verb) = body.first() else {
            return Err(DecodeError::Wire(WireError {
                offset: 0,
                reason: "empty message body",
            }));
        };
        let buf = body;
        let mut pos = 1usize;
        let p = &mut pos;
        let req = match verb {
            verbs::HELLO => {
                let at = *p;
                let end = at.checked_add(PROTO_MAGIC.len());
                let magic = end.and_then(|e| buf.get(at..e));
                match magic {
                    Some(m) if m == PROTO_MAGIC => {}
                    Some(_) => {
                        return Err(DecodeError::Wire(WireError {
                            offset: at,
                            reason: "bad handshake magic",
                        }))
                    }
                    None => {
                        return Err(DecodeError::Wire(WireError {
                            offset: at,
                            reason: "truncated handshake magic",
                        }))
                    }
                }
                *p += PROTO_MAGIC.len();
                let min = get_u32(buf, p)?;
                let max = get_u32(buf, p)?;
                Request::Hello { min, max }
            }
            verbs::PING => Request::Ping,
            verbs::RETRIEVE => Request::Retrieve {
                lease: get_varint(buf, p)?,
                v: get_u32(buf, p)?,
            },
            verbs::AS_OF => Request::AsOf {
                lease: get_varint(buf, p)?,
                v: get_u32(buf, p)?,
                steps: get_steps(buf, p, &mut Names::default())?,
            },
            verbs::HISTORY => Request::History {
                lease: get_varint(buf, p)?,
                steps: get_steps(buf, p, &mut Names::default())?,
            },
            verbs::HISTORY_VALUES => Request::HistoryValues {
                lease: get_varint(buf, p)?,
                steps: get_steps(buf, p, &mut Names::default())?,
            },
            verbs::RANGE => Request::Range {
                lease: get_varint(buf, p)?,
                lo: get_u32(buf, p)?,
                hi: get_u32(buf, p)?,
                prefix: get_steps(buf, p, &mut Names::default())?,
            },
            verbs::DIFF => Request::Diff {
                lease: get_varint(buf, p)?,
                v1: get_u32(buf, p)?,
                v2: get_u32(buf, p)?,
                steps: get_steps(buf, p, &mut Names::default())?,
            },
            verbs::STATS => Request::Stats {
                lease: get_varint(buf, p)?,
            },
            verbs::LATEST => Request::Latest {
                lease: get_varint(buf, p)?,
            },
            verbs::INGEST => {
                let n = get_varint(buf, p)?;
                let mut docs = Vec::new();
                for _ in 0..n {
                    let at = *p;
                    let bytes = get_bytes(buf, p)?;
                    match std::str::from_utf8(bytes) {
                        Ok(s) => docs.push(s.to_owned()),
                        Err(_) => {
                            return Err(DecodeError::Wire(WireError {
                                offset: at,
                                reason: "ingest document is not utf-8",
                            }))
                        }
                    }
                }
                Request::Ingest { docs }
            }
            verbs::SNAP_OPEN => Request::SnapOpen,
            verbs::SNAP_CLOSE => Request::SnapClose {
                lease: get_varint(buf, p)?,
            },
            verbs::METRICS => Request::Metrics,
            verbs::HEALTH => Request::Health,
            verbs::SHUTDOWN => Request::Shutdown,
            other => return Err(DecodeError::UnknownTag(other)),
        };
        if pos != body.len() {
            return Err(DecodeError::Trailing { at: pos });
        }
        Ok(req)
    }

    /// The canonical lower-case verb name (metric labels, diagnostics).
    pub fn verb_name(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Ping => "ping",
            Request::Retrieve { .. } => "retrieve",
            Request::AsOf { .. } => "as_of",
            Request::History { .. } => "history",
            Request::HistoryValues { .. } => "history_values",
            Request::Range { .. } => "range",
            Request::Diff { .. } => "diff",
            Request::Stats { .. } => "stats",
            Request::Latest { .. } => "latest",
            Request::Ingest { .. } => "ingest",
            Request::SnapOpen => "snap_open",
            Request::SnapClose { .. } => "snap_close",
            Request::Metrics => "metrics",
            Request::Health => "health",
            Request::Shutdown => "shutdown",
        }
    }
}

// ---- responses ------------------------------------------------------------

/// The handshake acceptance payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The protocol revision the server selected from the client's range.
    pub version: u32,
    /// The archive's governing key specification, in `KeySpec::parse`
    /// text form — clients build [`KeyQuery`] paths against it.
    pub spec: String,
    /// The latest archived version at handshake time.
    pub latest: u32,
}

/// The health summary payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// Whether the service is accepting and answering requests.
    pub ok: bool,
    /// The latest archived version.
    pub latest: u32,
    /// Requests currently being served.
    pub in_flight: u64,
    /// Snapshot leases currently held open across all connections.
    pub leases: u64,
    /// Requests served since startup.
    pub served: u64,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    Hello(Hello),
    /// Answer to a ping.
    Pong,
    /// An optional document as compact XML (retrieve / as_of).
    Document(Option<String>),
    /// An optional existence history (`None` = never archived).
    History(Option<TimeSet>),
    /// An optional full element history.
    HistoryValues(Option<ElementHistory>),
    /// Range-scan hits in label order.
    Range(Vec<RangeEntry>),
    /// What changed between two versions.
    Diff(VersionDelta),
    /// Aggregate statistics.
    Stats(StoreStats),
    /// The latest version at the answering pin.
    Latest(u32),
    /// Versions assigned to an ingested batch, in order.
    Ingested(Vec<u32>),
    /// A snapshot lease was pinned.
    SnapOpened {
        /// The lease id to pass in subsequent requests.
        lease: u64,
        /// The version the lease is pinned at.
        pinned: u32,
    },
    /// A snapshot lease was released.
    SnapClosed,
    /// Prometheus-text metrics exposition.
    Metrics(String),
    /// Health summary.
    Health(Health),
    /// The server acknowledged a shutdown request and is draining.
    ShuttingDown,
    /// A structured error.
    Error {
        /// What class of failure this is.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes the response as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the response, encoded as a frame body, to `out` — so a
    /// sender can build the body behind room it reserved for the frame
    /// header and never copy it again.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Hello(h) => {
                out.push(tags::HELLO_OK);
                put_varint(out, u64::from(h.version));
                put_str(out, &h.spec);
                put_varint(out, u64::from(h.latest));
            }
            Response::Pong => out.push(tags::PONG),
            Response::Document(doc) => {
                out.push(tags::DOCUMENT);
                put_opt_doc(out, doc.as_deref());
            }
            Response::History(t) => {
                out.push(tags::HISTORY);
                match t {
                    None => out.push(0),
                    Some(t) => {
                        out.push(1);
                        put_timeset(out, t);
                    }
                }
            }
            Response::HistoryValues(h) => {
                out.push(tags::HISTORY_VALUES);
                match h {
                    None => out.push(0),
                    Some(h) => {
                        out.push(1);
                        put_timeset(out, &h.existence);
                        put_varint(out, h.values.len() as u64);
                        for (t, content) in &h.values {
                            put_timeset(out, t);
                            put_str(out, content);
                        }
                    }
                }
            }
            Response::Range(entries) => {
                out.push(tags::RANGE);
                put_varint(out, entries.len() as u64);
                for e in entries {
                    put_steps(out, std::slice::from_ref(&e.step));
                    put_timeset(out, &e.time);
                }
            }
            Response::Diff(d) => {
                out.push(tags::DIFF);
                put_varint(out, u64::from(d.v1));
                put_varint(out, u64::from(d.v2));
                out.push(u8::from(d.present.0));
                out.push(u8::from(d.present.1));
                put_varint(out, d.removed as u64);
                put_varint(out, d.added as u64);
                put_str(out, &d.script);
            }
            Response::Stats(s) => {
                out.push(tags::STATS);
                put_varint(out, u64::from(s.versions));
                put_varint(out, s.elements as u64);
                put_varint(out, s.texts as u64);
                put_varint(out, s.stamps as u64);
                put_varint(out, s.size_bytes as u64);
            }
            Response::Latest(v) => {
                out.push(tags::LATEST);
                put_varint(out, u64::from(*v));
            }
            Response::Ingested(versions) => {
                out.push(tags::INGESTED);
                put_varint(out, versions.len() as u64);
                for v in versions {
                    put_varint(out, u64::from(*v));
                }
            }
            Response::SnapOpened { lease, pinned } => {
                out.push(tags::SNAP_OPENED);
                put_varint(out, *lease);
                put_varint(out, u64::from(*pinned));
            }
            Response::SnapClosed => out.push(tags::SNAP_CLOSED),
            Response::Metrics(text) => {
                out.push(tags::METRICS);
                put_str(out, text);
            }
            Response::Health(h) => {
                out.push(tags::HEALTH);
                out.push(u8::from(h.ok));
                put_varint(out, u64::from(h.latest));
                put_varint(out, h.in_flight);
                put_varint(out, h.leases);
                put_varint(out, h.served);
            }
            Response::ShuttingDown => out.push(tags::SHUTTING_DOWN),
            Response::Error { code, message } => {
                out.push(tags::ERROR);
                out.push(code.code());
                put_str(out, message);
            }
        }
    }

    /// Room to leave before a document rendered in place, for
    /// [`Response::document_in_place`]: the tag, the present flag, and a
    /// length varint of up to five bytes (any `u32` — frames stop at
    /// `MAX_FRAME_LEN`, long before).
    pub const DOCUMENT_ROOM: usize = 2 + 5;

    /// Makes `buf[text_start..]` — a document rendered in place — the
    /// tail of the body [`Response::encode`] gives
    /// `Response::Document(Some(text))`, without moving it: checks the
    /// text is UTF-8, then writes tag, flag and the minimal length varint
    /// right-aligned against it, into the [`Response::DOCUMENT_ROOM`] the
    /// caller left. Returns where the body starts; the error says why
    /// there is no such body.
    pub fn document_in_place(buf: &mut [u8], text_start: usize) -> Result<usize, &'static str> {
        let text = buf
            .get(text_start..)
            .ok_or("document starts past its buffer")?;
        if std::str::from_utf8(text).is_err() {
            return Err("retrieved document is not utf-8");
        }
        let mut prefix = Vec::with_capacity(Response::DOCUMENT_ROOM);
        prefix.push(tags::DOCUMENT);
        prefix.push(1);
        put_varint(&mut prefix, text.len() as u64);
        let body_start = text_start
            .checked_sub(prefix.len())
            .ok_or("no room before the document for its prefix")?;
        buf.get_mut(body_start..text_start)
            .ok_or("no room before the document for its prefix")?
            .copy_from_slice(&prefix);
        Ok(body_start)
    }

    /// [`Response::decode`] for a receiver that owns the frame body: a
    /// found document or a metrics text — one string that is the whole
    /// tail of the body — keeps the body's allocation instead of being
    /// copied out of a borrow. Same answers, same errors.
    pub fn decode_owned(mut body: Vec<u8>) -> Result<Response, DecodeError> {
        let Some(text_start) = whole_tail_text(&body) else {
            return Response::decode(&body);
        };
        let document = body.first() == Some(&tags::DOCUMENT);
        body.drain(..text_start);
        match (String::from_utf8(body), document) {
            (Ok(text), true) => Ok(Response::Document(Some(text))),
            (Ok(text), false) => Ok(Response::Metrics(text)),
            // positioned as `get_opt_doc` / `get_str` position them
            (Err(_), true) => Err(DecodeError::Wire(WireError {
                offset: 2,
                reason: "document is not utf-8",
            })),
            (Err(_), false) => Err(DecodeError::Wire(WireError {
                offset: text_start,
                reason: "invalid utf-8",
            })),
        }
    }

    /// Decodes a frame body as a response — the same totality contract
    /// as [`Request::decode`].
    pub fn decode(body: &[u8]) -> Result<Response, DecodeError> {
        let Some(&tag) = body.first() else {
            return Err(DecodeError::Wire(WireError {
                offset: 0,
                reason: "empty message body",
            }));
        };
        let buf = body;
        let mut pos = 1usize;
        let p = &mut pos;
        let resp = match tag {
            tags::HELLO_OK => Response::Hello(Hello {
                version: get_u32(buf, p)?,
                spec: get_string(buf, p)?,
                latest: get_u32(buf, p)?,
            }),
            tags::PONG => Response::Pong,
            tags::DOCUMENT => Response::Document(get_opt_doc(buf, p)?),
            tags::HISTORY => {
                if get_flag(buf, p)? {
                    Response::History(Some(get_timeset(buf, p)?))
                } else {
                    Response::History(None)
                }
            }
            tags::HISTORY_VALUES => {
                if get_flag(buf, p)? {
                    let existence = get_timeset(buf, p)?;
                    let n = get_varint(buf, p)?;
                    let mut values = Vec::new();
                    for _ in 0..n {
                        let t = get_timeset(buf, p)?;
                        let content = get_string(buf, p)?;
                        values.push((t, content));
                    }
                    Response::HistoryValues(Some(ElementHistory { existence, values }))
                } else {
                    Response::HistoryValues(None)
                }
            }
            tags::RANGE => {
                let n = get_varint(buf, p)?;
                let mut entries = Vec::new();
                let mut names = Names::default();
                for _ in 0..n {
                    let at = *p;
                    let step = match get_varint(buf, p)? {
                        1 => get_step(buf, p, &mut names)?,
                        _ => {
                            // the steps are read first, so a malformed one is
                            // refused where it lies, then their count
                            *p = at;
                            get_steps(buf, p, &mut names)?;
                            return Err(DecodeError::Wire(WireError {
                                offset: at,
                                reason: "range entry must carry exactly one step",
                            }));
                        }
                    };
                    let time = get_timeset(buf, p)?;
                    entries.push(RangeEntry { step, time });
                }
                Response::Range(entries)
            }
            tags::DIFF => Response::Diff(VersionDelta {
                v1: get_u32(buf, p)?,
                v2: get_u32(buf, p)?,
                present: (get_flag(buf, p)?, get_flag(buf, p)?),
                removed: get_usize(buf, p)?,
                added: get_usize(buf, p)?,
                script: get_string(buf, p)?,
            }),
            tags::STATS => Response::Stats(StoreStats {
                versions: get_u32(buf, p)?,
                elements: get_usize(buf, p)?,
                texts: get_usize(buf, p)?,
                stamps: get_usize(buf, p)?,
                size_bytes: get_usize(buf, p)?,
            }),
            tags::LATEST => Response::Latest(get_u32(buf, p)?),
            tags::INGESTED => {
                let n = get_varint(buf, p)?;
                let mut versions = Vec::new();
                for _ in 0..n {
                    versions.push(get_u32(buf, p)?);
                }
                Response::Ingested(versions)
            }
            tags::SNAP_OPENED => Response::SnapOpened {
                lease: get_varint(buf, p)?,
                pinned: get_u32(buf, p)?,
            },
            tags::SNAP_CLOSED => Response::SnapClosed,
            tags::METRICS => Response::Metrics(get_string(buf, p)?),
            tags::HEALTH => Response::Health(Health {
                ok: get_flag(buf, p)?,
                latest: get_u32(buf, p)?,
                in_flight: get_varint(buf, p)?,
                leases: get_varint(buf, p)?,
                served: get_varint(buf, p)?,
            }),
            tags::SHUTTING_DOWN => Response::ShuttingDown,
            tags::ERROR => {
                let at = *p;
                let code_byte = match buf.get(*p) {
                    Some(&b) => {
                        *p += 1;
                        b
                    }
                    None => {
                        return Err(DecodeError::Wire(WireError {
                            offset: at,
                            reason: "truncated error code",
                        }))
                    }
                };
                let Some(code) = ErrorCode::from_code(code_byte) else {
                    return Err(DecodeError::Wire(WireError {
                        offset: at,
                        reason: "unassigned error code",
                    }));
                };
                Response::Error {
                    code,
                    message: get_string(buf, p)?,
                }
            }
            other => return Err(DecodeError::UnknownTag(other)),
        };
        if pos != body.len() {
            return Err(DecodeError::Trailing { at: pos });
        }
        Ok(resp)
    }
}

/// Where the text starts, if `body` is a found document or a metrics
/// text whose length prefix covers exactly the rest of the body (UTF-8
/// not yet checked). `None` sends anything else — every malformed body
/// included — to [`Response::decode`].
fn whole_tail_text(body: &[u8]) -> Option<usize> {
    let mut pos = match (body.first()?, body.get(1)) {
        (&tags::DOCUMENT, Some(1)) => 2,
        (&tags::METRICS, _) => 1,
        _ => return None,
    };
    let len = get_usize(body, &mut pos).ok()?;
    (pos.checked_add(len)? == body.len()).then_some(pos)
}

/// The version-negotiation rule both sides apply: the highest revision
/// inside both `[client_min, client_max]` and
/// `[`[`MIN_PROTO_VERSION`]`, `[`PROTO_VERSION`]`]`, or `None` when the
/// ranges do not intersect.
pub fn negotiate(client_min: u32, client_max: u32) -> Option<u32> {
    let lo = client_min.max(MIN_PROTO_VERSION);
    let hi = client_max.min(PROTO_VERSION);
    (lo <= hi).then_some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps() -> Vec<KeyQuery> {
        vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "42"),
        ]
    }

    fn timeset() -> TimeSet {
        let mut t = TimeSet::from_range(1, 3);
        t.insert(7);
        t
    }

    #[test]
    fn every_request_round_trips() {
        let requests = vec![
            Request::Hello { min: 1, max: 9 },
            Request::Ping,
            Request::Retrieve { lease: 0, v: 3 },
            Request::AsOf {
                lease: 5,
                v: 2,
                steps: steps(),
            },
            Request::History {
                lease: 0,
                steps: steps(),
            },
            Request::HistoryValues {
                lease: 1,
                steps: vec![],
            },
            Request::Range {
                lease: 0,
                lo: 1,
                hi: 9,
                prefix: steps(),
            },
            Request::Diff {
                lease: 2,
                v1: 1,
                v2: 2,
                steps: steps(),
            },
            Request::Stats { lease: 0 },
            Request::Latest { lease: 3 },
            Request::Ingest {
                docs: vec!["<db/>".into(), "<db><rec><id>1</id></rec></db>".into()],
            },
            Request::SnapOpen,
            Request::SnapClose { lease: 4 },
            Request::Metrics,
            Request::Health,
            Request::Shutdown,
        ];
        for req in requests {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req, "{}", req.verb_name());
        }
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Hello(Hello {
                version: 1,
                spec: "(/, (db, {}))".into(),
                latest: 12,
            }),
            Response::Pong,
            Response::Document(None),
            Response::Document(Some("<db/>".into())),
            Response::History(None),
            Response::History(Some(timeset())),
            Response::History(Some(TimeSet::new())),
            Response::HistoryValues(None),
            Response::HistoryValues(Some(ElementHistory {
                existence: timeset(),
                values: vec![(TimeSet::from_range(1, 3), "<rec/>".into())],
            })),
            Response::Range(vec![RangeEntry {
                step: KeyQuery::new("rec").with_text("id", "1"),
                time: timeset(),
            }]),
            Response::Diff(VersionDelta {
                v1: 1,
                v2: 2,
                present: (true, false),
                removed: 3,
                added: 0,
                script: "3d2\n< x".into(),
            }),
            Response::Stats(StoreStats {
                versions: 2,
                elements: 10,
                texts: 5,
                stamps: 1,
                size_bytes: 4096,
            }),
            Response::Latest(7),
            Response::Ingested(vec![3, 4, 5]),
            Response::SnapOpened {
                lease: 9,
                pinned: 4,
            },
            Response::SnapClosed,
            Response::Metrics("# TYPE x counter\nx 1\n".into()),
            Response::Health(Health {
                ok: true,
                latest: 3,
                in_flight: 1,
                leases: 2,
                served: 99,
            }),
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::NoSuchLease,
                message: "lease 9 is not held by this connection".into(),
            },
        ]
    }

    #[test]
    fn every_response_round_trips() {
        for resp in responses() {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn decoding_an_owned_body_answers_as_decoding_a_borrow() {
        let mut bodies: Vec<Vec<u8>> = responses().iter().map(Response::encode).collect();
        bodies.push(Response::Document(Some(String::new())).encode());
        bodies.push(Response::Metrics(String::new()).encode());
        bodies.push(Response::Document(Some("é€😀 <db/>".repeat(40))).encode());
        // malformed: every cut and a trailing byte of a document and a
        // metrics text, bad utf-8 in each, a bad flag, a hostile length
        for whole in [
            Response::Document(Some("<db>text</db>".into())).encode(),
            Response::Metrics("x 1\n".into()).encode(),
        ] {
            for cut in 0..whole.len() {
                bodies.push(whole[..cut].to_vec());
            }
            let mut trailing = whole.clone();
            trailing.push(0);
            bodies.push(trailing);
            let mut not_utf8 = whole;
            *not_utf8.last_mut().unwrap() = 0xFF;
            bodies.push(not_utf8);
        }
        bodies.push(vec![tags::DOCUMENT, 2, 0]);
        let mut hostile = vec![tags::DOCUMENT, 1];
        put_varint(&mut hostile, u64::MAX);
        bodies.push(hostile);
        for body in bodies {
            assert_eq!(
                Response::decode_owned(body.clone()),
                Response::decode(&body),
                "{body:02x?}"
            );
        }
    }

    #[test]
    fn a_document_finished_in_place_is_the_document_encoded() {
        // lengths on both sides of every varint width a frame can reach
        for len in [0, 1, 127, 128, 16_383, 16_384, 2_097_151, 2_097_152] {
            let text = "é".repeat(len / 2) + &"x".repeat(len % 2);
            assert_eq!(text.len(), len);
            let mut buf = vec![0xAAu8; 3 + Response::DOCUMENT_ROOM];
            let text_start = buf.len();
            buf.extend_from_slice(text.as_bytes());
            let body_start = Response::document_in_place(&mut buf, text_start).unwrap();
            assert_eq!(
                buf[body_start..],
                Response::Document(Some(text)).encode(),
                "{len} bytes"
            );
        }
        // not utf-8, no room, a start past the end: refused, nothing panics
        let mut buf = vec![0u8; Response::DOCUMENT_ROOM];
        buf.push(0xFF);
        assert!(Response::document_in_place(&mut buf, Response::DOCUMENT_ROOM).is_err());
        let mut buf = b"..<db/>".to_vec();
        assert!(Response::document_in_place(&mut buf, 2).is_err());
        assert!(Response::document_in_place(&mut buf, 8).is_err());
    }

    #[test]
    fn unknown_tags_and_empty_bodies_are_typed_errors() {
        assert!(matches!(
            Request::decode(&[0x7F]),
            Err(DecodeError::UnknownTag(0x7F))
        ));
        assert!(matches!(
            Response::decode(&[0x01]),
            Err(DecodeError::UnknownTag(0x01))
        ));
        assert!(matches!(Request::decode(&[]), Err(DecodeError::Wire(_))));
        assert!(matches!(Response::decode(&[]), Err(DecodeError::Wire(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(DecodeError::Trailing { at: 1 })
        ));
        let mut body = Response::Pong.encode();
        body.push(9);
        assert!(matches!(
            Response::decode(&body),
            Err(DecodeError::Trailing { at: 1 })
        ));
    }

    #[test]
    fn every_truncation_of_every_message_is_a_clean_error() {
        // decode(prefix) must never panic and never succeed with
        // different meaning — for every strict prefix of realistic bodies
        let bodies = vec![
            Request::Hello { min: 1, max: 1 }.encode(),
            Request::Diff {
                lease: 1,
                v1: 1,
                v2: 2,
                steps: steps(),
            }
            .encode(),
            Request::Ingest {
                docs: vec!["<db/>".into()],
            }
            .encode(),
            Response::HistoryValues(Some(ElementHistory {
                existence: timeset(),
                values: vec![(timeset(), "<x/>".into())],
            }))
            .encode(),
            Response::Range(vec![RangeEntry {
                step: KeyQuery::new("rec").with_text("id", "1"),
                time: timeset(),
            }])
            .encode(),
            Response::Error {
                code: ErrorCode::Store,
                message: "backend error".into(),
            }
            .encode(),
        ];
        for body in bodies {
            for cut in 0..body.len() {
                let prefix = &body[..cut];
                let req = Request::decode(prefix);
                let resp = Response::decode(prefix);
                assert!(
                    req.is_err() || resp.is_err(),
                    "a strict prefix decoded as both a request and a response"
                );
            }
        }
    }

    #[test]
    fn hostile_payloads_error_instead_of_allocating_or_looping() {
        // a count far larger than the buffer: must fail fast, not reserve
        let mut body = vec![verbs::INGEST];
        put_varint(&mut body, u64::MAX);
        assert!(Request::decode(&body).is_err());
        // an interval with lo > hi, and one with lo = 0
        for (lo, hi) in [(5u64, 2u64), (0, 3)] {
            let mut body = vec![tags::HISTORY, 1];
            put_varint(&mut body, 1);
            put_varint(&mut body, lo);
            put_varint(&mut body, hi);
            let err = Response::decode(&body).unwrap_err();
            assert!(matches!(err, DecodeError::Wire(_)), "{err}");
        }
        // a flag byte that is neither 0 nor 1
        let body = vec![tags::DOCUMENT, 2];
        assert!(Response::decode(&body).is_err());
        // bad handshake magic
        let mut body = vec![verbs::HELLO];
        body.extend_from_slice(b"NOPE");
        put_varint(&mut body, 1);
        put_varint(&mut body, 1);
        let err = Request::decode(&body).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        // non-utf8 ingest document
        let mut body = vec![verbs::INGEST];
        put_varint(&mut body, 1);
        put_bytes(&mut body, &[0xFF, 0xFE]);
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn version_negotiation() {
        assert_eq!(negotiate(1, 1), Some(PROTO_VERSION.min(1)));
        assert_eq!(negotiate(1, 99), Some(PROTO_VERSION));
        assert_eq!(negotiate(PROTO_VERSION + 1, PROTO_VERSION + 5), None);
        assert_eq!(negotiate(0, 0), None);
    }

    #[test]
    fn error_codes_round_trip_and_name_themselves() {
        for byte in 1..=9u8 {
            let code = ErrorCode::from_code(byte).expect("assigned");
            assert_eq!(code.code(), byte);
            assert!(!code.name().is_empty());
        }
        assert!(ErrorCode::from_code(0).is_none());
        assert!(ErrorCode::from_code(10).is_none());
    }

    #[test]
    fn range_rows_share_the_names_they_repeat() {
        let rows: Vec<RangeEntry> = (0..40)
            .map(|i| RangeEntry {
                step: KeyQuery::new(if i % 2 == 0 { "rec" } else { "note" })
                    .with_text("id", &i.to_string()),
                time: TimeSet::from_version(i + 1),
            })
            .collect();
        let back = Response::decode(&Response::Range(rows.clone()).encode()).unwrap();
        let Response::Range(back) = back else {
            panic!("a range answer decodes as one");
        };
        assert_eq!(back, rows);
        let tag = |i: usize| back[i].step.tag().as_ptr();
        let path = |i: usize| back[i].step.key().parts()[0].path.as_ptr();
        assert_eq!((tag(0), tag(1)), (tag(38), tag(39)), "one copy per tag");
        assert_ne!(tag(0), tag(1));
        assert!((1..40).all(|i| path(i) == path(0)), "one copy of `id`");
        // names past the shared ones decode as well, each its own copy
        let many: Vec<RangeEntry> = (0..3 * SHARED_NAMES as u32)
            .map(|i| RangeEntry {
                step: KeyQuery::new(&format!("t{i}")).with_text(&format!("p{i}"), "v"),
                time: TimeSet::from_version(1),
            })
            .collect();
        let back = Response::decode(&Response::Range(many.clone()).encode()).unwrap();
        assert_eq!(back, Response::Range(many));
    }

    #[test]
    fn a_range_row_of_other_than_one_step_is_refused_at_its_start() {
        for steps in [vec![], steps()] {
            let mut body = vec![tags::RANGE];
            put_varint(&mut body, 1);
            let at = body.len();
            put_steps(&mut body, &steps);
            put_timeset(&mut body, &timeset());
            let err = Response::decode(&body).unwrap_err();
            assert!(
                matches!(&err, DecodeError::Wire(WireError { offset, reason })
                    if *offset == at && reason.contains("exactly one step")),
                "{err}"
            );
        }
        // a malformed step is refused where it lies, before the count
        let mut body = vec![tags::RANGE];
        put_varint(&mut body, 1);
        put_steps(&mut body, &steps());
        body.truncate(body.len() - 2);
        let err = Response::decode(&body).unwrap_err();
        assert!(!err.to_string().contains("exactly one step"), "{err}");
    }
}
