//! A blocking client over `std::net::TcpStream`.
//!
//! [`Client::connect`] dials, performs the versioned handshake, and
//! then exposes one method per protocol verb. Every query method takes
//! a [`Lease`]: pass [`Lease::FRESH`] to have the server pin a fresh
//! snapshot for that one request, or hold a lease from
//! [`Client::open_snapshot`] to ask many questions of one frozen
//! version of history.
//!
//! Query answers deliberately stay in wire form where it matters for
//! testing: [`Client::retrieve`] and [`Client::as_of`] return the
//! document as the *compact XML text the server sent*, so differential
//! tests can byte-compare a socket answer against a local snapshot
//! without a parse/reserialize step in between.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use xarch_core::wire::WireError;
use xarch_core::{ElementHistory, KeyQuery, RangeEntry, StoreStats, TimeSet, VersionDelta};

use crate::frame::{read_frame, send_built_frame, FrameError, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use crate::msg::{ErrorCode, Health, Hello, Request, Response};
use crate::{MIN_PROTO_VERSION, PROTO_VERSION};

/// A snapshot lease id, as issued by the server.
///
/// [`Lease::FRESH`] (the zero lease) is special: it names no held
/// snapshot, and instructs the server to pin a fresh one for the single
/// request carrying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lease(pub u64);

impl Lease {
    /// The per-request lease: pin a fresh snapshot, answer, release.
    pub const FRESH: Lease = Lease(0);
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or configuring the socket failed.
    Io(std::io::Error),
    /// The frame envelope could not be read or written.
    Frame(FrameError),
    /// The server's response body failed to decode.
    Wire(WireError),
    /// The server answered with a structured error.
    Server {
        /// The error class.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server answered with the wrong response kind for the verb.
    Unexpected(&'static str),
    /// The handshake failed (magic, version negotiation, or transport).
    Handshake(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Wire(e) => write!(f, "malformed response: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            ClientError::Unexpected(what) => {
                write!(f, "unexpected response kind (wanted {what})")
            }
            ClientError::Handshake(why) => write!(f, "handshake failed: {why}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<crate::msg::DecodeError> for ClientError {
    fn from(e: crate::msg::DecodeError) -> Self {
        match e {
            crate::msg::DecodeError::Wire(w) => ClientError::Wire(w),
            crate::msg::DecodeError::UnknownTag(_) => ClientError::Unexpected("a known tag"),
            crate::msg::DecodeError::Trailing { at } => ClientError::Wire(WireError {
                offset: at,
                reason: "trailing bytes after response",
            }),
        }
    }
}

/// A blocking connection to an archive server, post-handshake.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The one buffer every request is built in, as a whole frame.
    request: Vec<u8>,
    hello: Hello,
}

/// Builds `req` in `buf` as a whole frame — body encoded behind room for
/// the header — and sends it in a single write. An oversized request is
/// refused before anything is written.
fn send_request(w: &mut impl Write, buf: &mut Vec<u8>, req: &Request) -> io::Result<()> {
    buf.clear();
    buf.resize(FRAME_HEADER_LEN, 0);
    req.encode_into(buf);
    send_built_frame(w, buf, FRAME_HEADER_LEN)
}

impl Client {
    /// Dials `addr`, performs the handshake, and returns a ready client.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Client::over(stream)
    }

    /// Performs the handshake over an already-connected stream.
    pub fn over(stream: TcpStream) -> Result<Client, ClientError> {
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer: write_half,
            request: Vec::new(),
            hello: Hello {
                version: 0,
                spec: String::new(),
                latest: 0,
            },
        };
        let resp = client.call(&Request::Hello {
            min: MIN_PROTO_VERSION,
            max: PROTO_VERSION,
        });
        match resp {
            Ok(Response::Hello(h)) => {
                client.hello = h;
                Ok(client)
            }
            Ok(Response::Error { code, message }) => Err(ClientError::Handshake(format!(
                "server refused [{code}]: {message}"
            ))),
            Ok(_) => Err(ClientError::Handshake(
                "server answered hello with the wrong response kind".into(),
            )),
            Err(e) => Err(ClientError::Handshake(e.to_string())),
        }
    }

    /// Sets (or clears) the socket read timeout for responses.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// What the server said about itself at handshake time.
    pub fn hello(&self) -> &Hello {
        &self.hello
    }

    /// One request/response exchange; the protocol is strictly
    /// call-and-answer, so this is the only transport primitive.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        send_request(&mut self.writer, &mut self.request, req)?;
        let body = read_frame(&mut self.reader, MAX_FRAME_LEN)?;
        Ok(Response::decode_owned(body)?)
    }

    /// Like [`Client::call`], but lifts a [`Response::Error`] into
    /// [`ClientError::Server`] so verb wrappers only match success kinds.
    fn call_ok(&mut self, req: &Request) -> Result<Response, ClientError> {
        match self.call(req)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call_ok(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("pong")),
        }
    }

    /// Retrieves whole version `v` as compact XML text.
    pub fn retrieve(&mut self, lease: Lease, v: u32) -> Result<Option<String>, ClientError> {
        let req = Request::Retrieve { lease: lease.0, v };
        match self.call_ok(&req)? {
            Response::Document(doc) => Ok(doc),
            _ => Err(ClientError::Unexpected("document")),
        }
    }

    /// Retrieves the subtree at `steps` as it stood in version `v`.
    pub fn as_of(
        &mut self,
        lease: Lease,
        v: u32,
        steps: &[KeyQuery],
    ) -> Result<Option<String>, ClientError> {
        let req = Request::AsOf {
            lease: lease.0,
            v,
            steps: steps.to_vec(),
        };
        match self.call_ok(&req)? {
            Response::Document(doc) => Ok(doc),
            _ => Err(ClientError::Unexpected("document")),
        }
    }

    /// The versions in which the element at `steps` exists.
    pub fn history(
        &mut self,
        lease: Lease,
        steps: &[KeyQuery],
    ) -> Result<Option<TimeSet>, ClientError> {
        let req = Request::History {
            lease: lease.0,
            steps: steps.to_vec(),
        };
        match self.call_ok(&req)? {
            Response::History(h) => Ok(h),
            _ => Err(ClientError::Unexpected("history")),
        }
    }

    /// Existence plus distinct contents over time for one element.
    pub fn history_values(
        &mut self,
        lease: Lease,
        steps: &[KeyQuery],
    ) -> Result<Option<ElementHistory>, ClientError> {
        let req = Request::HistoryValues {
            lease: lease.0,
            steps: steps.to_vec(),
        };
        match self.call_ok(&req)? {
            Response::HistoryValues(h) => Ok(h),
            _ => Err(ClientError::Unexpected("history values")),
        }
    }

    /// Keyed children of the element at `prefix` over versions
    /// `lo..=hi`.
    pub fn range(
        &mut self,
        lease: Lease,
        prefix: &[KeyQuery],
        lo: u32,
        hi: u32,
    ) -> Result<Vec<RangeEntry>, ClientError> {
        let req = Request::Range {
            lease: lease.0,
            lo,
            hi,
            prefix: prefix.to_vec(),
        };
        match self.call_ok(&req)? {
            Response::Range(entries) => Ok(entries),
            _ => Err(ClientError::Unexpected("range")),
        }
    }

    /// What changed in the element at `steps` between `v1` and `v2`.
    pub fn diff(
        &mut self,
        lease: Lease,
        steps: &[KeyQuery],
        v1: u32,
        v2: u32,
    ) -> Result<VersionDelta, ClientError> {
        let req = Request::Diff {
            lease: lease.0,
            v1,
            v2,
            steps: steps.to_vec(),
        };
        match self.call_ok(&req)? {
            Response::Diff(d) => Ok(d),
            _ => Err(ClientError::Unexpected("diff")),
        }
    }

    /// Aggregate statistics at the answering pin.
    pub fn stats(&mut self, lease: Lease) -> Result<StoreStats, ClientError> {
        match self.call_ok(&Request::Stats { lease: lease.0 })? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }

    /// The latest version at the answering pin.
    pub fn latest(&mut self, lease: Lease) -> Result<u32, ClientError> {
        match self.call_ok(&Request::Latest { lease: lease.0 })? {
            Response::Latest(v) => Ok(v),
            _ => Err(ClientError::Unexpected("latest")),
        }
    }

    /// Merges `docs` (compact XML texts) as consecutive new versions in
    /// one group-committed batch; returns the assigned version numbers.
    pub fn ingest(&mut self, docs: &[String]) -> Result<Vec<u32>, ClientError> {
        let req = Request::Ingest {
            docs: docs.to_vec(),
        };
        match self.call_ok(&req)? {
            Response::Ingested(versions) => Ok(versions),
            _ => Err(ClientError::Unexpected("ingested")),
        }
    }

    /// Pins a server-held snapshot; returns the lease and its pinned
    /// version. The lease lives until closed or the connection drops.
    pub fn open_snapshot(&mut self) -> Result<(Lease, u32), ClientError> {
        match self.call_ok(&Request::SnapOpen)? {
            Response::SnapOpened { lease, pinned } => Ok((Lease(lease), pinned)),
            _ => Err(ClientError::Unexpected("snapshot lease")),
        }
    }

    /// Releases a snapshot lease.
    pub fn close_snapshot(&mut self, lease: Lease) -> Result<(), ClientError> {
        let req = Request::SnapClose { lease: lease.0 };
        match self.call_ok(&req)? {
            Response::SnapClosed => Ok(()),
            _ => Err(ClientError::Unexpected("snapshot close")),
        }
    }

    /// The server's metrics in Prometheus text exposition format.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call_ok(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            _ => Err(ClientError::Unexpected("metrics")),
        }
    }

    /// The server's health summary.
    pub fn health(&mut self) -> Result<Health, ClientError> {
        match self.call_ok(&Request::Health)? {
            Response::Health(h) => Ok(h),
            _ => Err(ClientError::Unexpected("health")),
        }
    }

    /// Asks the server to shut down gracefully. Succeeds only when the
    /// server's configuration allows remote shutdown.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call_ok(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Unexpected("shutdown ack")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;

    /// Records each `write` it is handed, whole.
    struct Socket(Vec<Vec<u8>>);

    impl Write for Socket {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_leaves_in_one_write_as_the_frame_write_frame_writes() {
        let small = Request::Retrieve {
            lease: 1 << 49,
            v: 1,
        };
        assert_eq!(small.encode().len(), 10);
        let large = Request::Ingest {
            docs: vec!["<db/>".repeat((1 << 20) / 5)],
        };
        assert!(large.encode().len() > 1 << 20);
        let mut buf = Vec::new();
        // large between small ones: the buffer is reused, never stale
        for req in [&small, &large, &small] {
            let mut socket = Socket(Vec::new());
            send_request(&mut socket, &mut buf, req).unwrap();
            let mut want = Vec::new();
            write_frame(&mut want, &req.encode()).unwrap();
            assert_eq!(socket.0.len(), 1, "one write per request");
            assert!(socket.0[0] == want, "the bytes write_frame writes");
        }
        assert!(buf.capacity() > 0, "the buffer is kept between requests");
    }

    #[test]
    fn an_oversized_request_is_refused_before_anything_is_written() {
        let too_big = Request::Ingest {
            docs: vec![" ".repeat(MAX_FRAME_LEN as usize)],
        };
        let mut socket = Socket(Vec::new());
        let mut buf = Vec::new();
        let err = send_request(&mut socket, &mut buf, &too_big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(socket.0.is_empty(), "nothing may hit the wire");
        assert_eq!(buf.capacity(), 0, "a buffer past the keep limit is dropped");
    }
}
