//! The listener, the bounded worker pool, and the request loop.
//!
//! Topology: one acceptor thread pushes accepted sockets into a bounded
//! queue; `workers` threads each pull a socket and own that connection
//! until it closes (the protocol is strictly call-and-answer, so a
//! worker serves exactly one request at a time and per-connection state
//! — handshake status, snapshot leases — needs no synchronization).
//! When the queue is full the acceptor blocks, so a flood of
//! connections backs up into the TCP accept queue instead of spawning
//! unbounded threads.
//!
//! Robustness rules, mirrored by the torture tests in
//! `tests/service.rs`:
//!
//! * frames above the configured ceiling are refused *before* the body
//!   is read or allocated — the peer gets a `frame-too-large` error and
//!   the connection is dropped (the stream can no longer be trusted to
//!   be frame-aligned);
//! * a CRC mismatch gets a `bad-frame` error and likewise drops the
//!   connection;
//! * an unknown verb or an undecodable payload is answered with a
//!   structured error and the connection *survives* — framing is still
//!   sound;
//! * every query runs against a pinned snapshot — fresh pins and lease
//!   opens are one `Arc` clone of the handle's published view,
//!   so no worker (and therefore no client) ever waits behind an
//!   in-flight merge, and a writer fault can never take the read side
//!   of the service down;
//! * every non-`Hello` request before the handshake is refused with
//!   `need-hello`;
//! * nothing in this path panics: a worker survives any byte sequence a
//!   peer can send.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use xarch::{ArchiveHandle, Snapshot, StoreError, StoreReader};
use xarch_obs::{Level, Obs};
use xarch_proto::frame::{read_frame, send_built_frame, FrameError, FRAME_HEADER_LEN};
use xarch_proto::msg::{negotiate, DecodeError, ErrorCode, Health, Hello, Request, Response};
use xarch_xml::writer::to_compact_string;

use crate::config::ServerConfig;
use crate::metrics::ServerMetrics;

/// Why the server could not start.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// The configured archive backend failed to build.
    Store(StoreError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "cannot start server: {e}"),
            ServerError::Store(e) => write!(f, "cannot build archive: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<StoreError> for ServerError {
    fn from(e: StoreError) -> Self {
        ServerError::Store(e)
    }
}

/// Everything a worker needs, shared immutably across the pool.
struct Ctx {
    handle: ArchiveHandle,
    obs: Obs,
    metrics: ServerMetrics,
    spec_text: String,
    max_frame_len: u32,
    read_timeout: Option<std::time::Duration>,
    write_timeout: Option<std::time::Duration>,
    allow_shutdown: bool,
    shutting_down: AtomicBool,
    addr: SocketAddr,
}

impl Ctx {
    /// Flips the shutdown flag and unblocks the acceptor with a
    /// throwaway connection so it can observe the flag.
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            self.obs
                .event(Level::Info, "server", &[("shutdown", "begun".into())]);
            // poke the blocking accept(); errors are irrelevant — if the
            // connect fails the listener is already gone
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// The entry point: build the archive, bind, spawn the pool.
pub struct Server;

impl Server {
    /// Builds the configured archive, binds the listener, and starts
    /// the acceptor and worker threads. Returns once the socket is
    /// listening; the returned [`RunningServer`] controls the rest of
    /// the lifecycle.
    pub fn start(cfg: ServerConfig) -> Result<RunningServer, ServerError> {
        let (handle, obs) = cfg.builder().try_build_served()?;
        Server::serve(cfg, handle, obs)
    }

    /// Like [`Server::start`], but over an archive the caller already
    /// built (and possibly pre-populated) with
    /// `ArchiveBuilder::try_build_served`.
    pub fn serve(
        cfg: ServerConfig,
        handle: ArchiveHandle,
        obs: Obs,
    ) -> Result<RunningServer, ServerError> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let metrics = ServerMetrics::register(&obs);
        let spec_text = cfg.spec_text.clone();
        let ctx = Arc::new(Ctx {
            handle,
            obs,
            metrics,
            spec_text,
            max_frame_len: cfg.max_frame_len,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
            allow_shutdown: cfg.allow_shutdown,
            shutting_down: AtomicBool::new(false),
            addr,
        });

        // bounded hand-off queue: a full queue blocks the acceptor, so
        // overload backs up into the TCP backlog, never into memory
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(cfg.workers * 2);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let rx = Arc::clone(&rx);
            let ctx = Arc::clone(&ctx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("xarch-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &ctx))?,
            );
        }
        let acceptor = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("xarch-acceptor".into())
                .spawn(move || accept_loop(&listener, &tx, &ctx))?
        };
        ctx.obs.event(
            Level::Info,
            "server",
            &[
                ("listening", addr.to_string()),
                ("workers", cfg.workers.to_string()),
            ],
        );
        Ok(RunningServer {
            ctx,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

/// A started server: its address and its lifecycle.
pub struct RunningServer {
    ctx: Arc<Ctx>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl RunningServer {
    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// The archive being served — the curator side of the deployment:
    /// ingest through this handle while clients query over the wire.
    pub fn handle(&self) -> &ArchiveHandle {
        &self.ctx.handle
    }

    /// The observability instance every layer reports into.
    pub fn obs(&self) -> &Obs {
        &self.ctx.obs
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.ctx.shutting_down.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, let every in-flight request
    /// finish, join the pool. Committed ingest is already on disk — the
    /// journal group-commits synchronously — so draining the workers is
    /// the whole story. Idempotent.
    pub fn shutdown(&mut self) {
        self.ctx.begin_shutdown();
        self.join_all();
        self.ctx
            .obs
            .event(Level::Info, "server", &[("shutdown", "complete".into())]);
    }

    /// Blocks until the server shuts down (via [`RunningServer::shutdown`]
    /// or a client's `Shutdown` verb with `allow_shutdown = true`).
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.ctx.begin_shutdown();
        self.join_all();
    }
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, ctx: &Ctx) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if ctx.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                ctx.obs
                    .event(Level::Warn, "server", &[("accept_error", e.to_string())]);
                continue;
            }
        };
        if ctx.shutting_down.load(Ordering::SeqCst) {
            // the poke connection (or a late arrival): refuse politely
            drop(stream);
            break;
        }
        if tx.send(stream).is_err() {
            break;
        }
    }
    // dropping tx here disconnects the queue; workers drain what was
    // already accepted and then exit
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, ctx: &Ctx) {
    loop {
        let next = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => break, // a sibling worker panicked holding the lock
        };
        match next {
            Ok(stream) => handle_connection(stream, ctx),
            Err(_) => break, // acceptor gone and queue drained
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) {
    ctx.metrics.connections.inc();
    ctx.metrics.connections_active.add(1);
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".into());
    ctx.obs
        .event(Level::Debug, "server", &[("conn_open", peer.clone())]);
    let leases_at_exit = serve_connection(stream, ctx, &peer).unwrap_or(0);
    // leases die with the connection; keep the gauge honest
    if leases_at_exit > 0 {
        ctx.metrics.leases_open.add(-(leases_at_exit as i64));
    }
    ctx.metrics.connections_active.add(-1);
    ctx.obs
        .event(Level::Debug, "server", &[("conn_close", peer)]);
}

/// Per-connection protocol state.
struct ConnState {
    hello_done: bool,
    leases: HashMap<u64, Snapshot>,
    next_lease: u64,
}

/// What a request outcome means for the connection.
enum After {
    Keep,
    Drop,
}

/// Runs one connection to completion; returns how many leases were
/// still open when it ended (for gauge cleanup). `None` only when the
/// socket could not even be configured.
fn serve_connection(stream: TcpStream, ctx: &Ctx, peer: &str) -> Option<u64> {
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(ctx.read_timeout).is_err()
        || stream.set_write_timeout(ctx.write_timeout).is_err()
    {
        return None;
    }
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return None,
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = Outbox {
        w: stream,
        buf: Vec::new(),
    };
    let mut state = ConnState {
        hello_done: false,
        leases: HashMap::new(),
        next_lease: 1,
    };

    loop {
        if ctx.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let body = match read_frame(&mut reader, ctx.max_frame_len) {
            Ok(body) => body,
            Err(FrameError::Eof) => break,
            Err(e @ FrameError::TooLarge { .. }) => {
                ctx.metrics.rejected_frames.inc();
                ctx.obs.event(
                    Level::Warn,
                    "server",
                    &[("rejected_frame", e.to_string()), ("peer", peer.to_owned())],
                );
                send_error(&mut writer, ctx, ErrorCode::FrameTooLarge, &e.to_string());
                break; // cannot trust frame alignment past an unread body
            }
            Err(e @ FrameError::BadCrc { .. }) => {
                ctx.metrics.rejected_frames.inc();
                ctx.obs.event(
                    Level::Warn,
                    "server",
                    &[("rejected_frame", e.to_string()), ("peer", peer.to_owned())],
                );
                send_error(&mut writer, ctx, ErrorCode::BadFrame, &e.to_string());
                break;
            }
            Err(FrameError::Io(e)) => {
                ctx.obs.event(
                    Level::Debug,
                    "server",
                    &[("conn_io", e.to_string()), ("peer", peer.to_owned())],
                );
                break;
            }
        };
        let req = match Request::decode(&body) {
            Ok(req) => req,
            Err(DecodeError::UnknownTag(t)) => {
                send_error(
                    &mut writer,
                    ctx,
                    ErrorCode::UnknownVerb,
                    &format!("verb byte {t:#04x} is not assigned"),
                );
                continue; // framing is still sound
            }
            Err(e) => {
                send_error(&mut writer, ctx, ErrorCode::BadPayload, &e.to_string());
                continue;
            }
        };
        ctx.metrics.requests.inc();
        ctx.metrics.in_flight.add(1);
        let timer = ctx.metrics.verb_timer(req.verb_name());
        let (reply, after) = answer(req, &mut state, ctx, peer, &mut writer.buf);
        drop(timer);
        ctx.metrics.in_flight.add(-1);
        if matches!(reply, Reply::Message(Response::Error { .. })) {
            ctx.metrics.errors.inc();
        }
        if writer.send(&reply).is_err() {
            break;
        }
        if matches!(after, After::Drop) {
            break;
        }
    }
    Some(state.leases.len() as u64)
}

/// What [`answer`] hands the connection loop to send.
enum Reply {
    /// A message, still to be encoded.
    Message(Response),
    /// A found document, already rendered in the response buffer as the
    /// message body that starts at this offset.
    Rendered(usize),
}

impl From<Response> for Reply {
    fn from(resp: Response) -> Self {
        Reply::Message(resp)
    }
}

/// Where a document rendered in place starts in the response buffer:
/// behind room for the frame header and the message's own prefix.
const TEXT_START: usize = FRAME_HEADER_LEN + Response::DOCUMENT_ROOM;

/// Answers `retrieve(v)` by rendering the version once, straight into the
/// buffer its frame will leave in: the text lands at [`TEXT_START`], is
/// checked as UTF-8 where it lies, and gets its prefix written
/// right-aligned against it — the bytes on the wire are those of
/// `Response::Document(..).encode()` in a frame, with no copy made.
fn render_retrieve(
    snap: &impl StoreReader,
    v: u32,
    out: &mut Vec<u8>,
) -> Result<Reply, StoreError> {
    out.clear();
    out.resize(TEXT_START, 0);
    if !snap.retrieve_into(v, out)? {
        return Ok(Response::Document(None).into());
    }
    match Response::document_in_place(out, TEXT_START) {
        Ok(body_start) => Ok(Reply::Rendered(body_start)),
        Err(why) => Err(StoreError::Backend(why.into())),
    }
}

/// A connection's way out: the socket and the one response buffer every
/// answer is built in, as a whole frame.
struct Outbox<W> {
    w: W,
    buf: Vec<u8>,
}

impl<W: Write> Outbox<W> {
    /// Sends `reply` as one frame, header and body in a single write. An
    /// oversized body is refused before anything is written.
    fn send(&mut self, reply: &Reply) -> io::Result<()> {
        let body_start = match reply {
            Reply::Rendered(body_start) => *body_start,
            Reply::Message(resp) => {
                // cut back to the header's room first: whatever a failed
                // or empty render left behind must not reach the wire —
                // never a half document, never a frame whose CRC covers
                // stale bytes
                self.buf.clear();
                self.buf.resize(FRAME_HEADER_LEN, 0);
                resp.encode_into(&mut self.buf);
                FRAME_HEADER_LEN
            }
        };
        send_built_frame(&mut self.w, &mut self.buf, body_start)
    }
}

/// Sends a structured error outside the normal dispatch path (framing
/// and decode failures). Write failures are moot — the connection is
/// about to drop anyway.
fn send_error(w: &mut Outbox<impl Write>, ctx: &Ctx, code: ErrorCode, message: &str) {
    ctx.metrics.errors.inc();
    let resp = Response::Error {
        code,
        message: message.to_owned(),
    };
    let _ = w.send(&resp.into());
}

/// Answers one decoded request. Never panics; every failure path is a
/// structured error.
fn answer(
    req: Request,
    state: &mut ConnState,
    ctx: &Ctx,
    peer: &str,
    out: &mut Vec<u8>,
) -> (Reply, After) {
    // the handshake gate: everything but Hello needs a completed hello
    if !state.hello_done && !matches!(req, Request::Hello { .. }) {
        return (
            Response::Error {
                code: ErrorCode::NeedHello,
                message: "handshake required before any other verb".into(),
            }
            .into(),
            After::Keep,
        );
    }
    let (resp, after) = match req {
        Request::Hello { min, max } => match negotiate(min, max) {
            Some(version) => {
                state.hello_done = true;
                (
                    Response::Hello(Hello {
                        version,
                        spec: ctx.spec_text.clone(),
                        latest: ctx.handle.latest(),
                    }),
                    After::Keep,
                )
            }
            None => {
                ctx.obs.event(
                    Level::Warn,
                    "server",
                    &[
                        (
                            "handshake_mismatch",
                            format!("client offered {min}..={max}"),
                        ),
                        ("peer", peer.to_owned()),
                    ],
                );
                (
                    Response::Error {
                        code: ErrorCode::VersionMismatch,
                        message: format!(
                            "no common protocol revision: client {min}..={max}, \
                             server {}..={}",
                            xarch_proto::MIN_PROTO_VERSION,
                            xarch_proto::PROTO_VERSION
                        ),
                    },
                    After::Drop,
                )
            }
        },
        Request::Ping => (Response::Pong, After::Keep),
        Request::Retrieve { lease, v } => {
            return with_snapshot(state, ctx, lease, |snap| render_retrieve(snap, v, out))
        }
        Request::AsOf { lease, v, steps } => with_snapshot(state, ctx, lease, |snap| {
            let doc = snap.as_of(&steps, v)?;
            Ok(Response::Document(doc.map(|d| to_compact_string(&d))))
        }),
        Request::History { lease, steps } => with_snapshot(state, ctx, lease, |snap| {
            Ok(Response::History(snap.history(&steps)?))
        }),
        Request::HistoryValues { lease, steps } => with_snapshot(state, ctx, lease, |snap| {
            Ok(Response::HistoryValues(snap.history_values(&steps)?))
        }),
        Request::Range {
            lease,
            lo,
            hi,
            prefix,
        } => with_snapshot(state, ctx, lease, |snap| {
            Ok(Response::Range(snap.range(&prefix, lo..=hi)?))
        }),
        Request::Diff {
            lease,
            v1,
            v2,
            steps,
        } => with_snapshot(state, ctx, lease, |snap| {
            Ok(Response::Diff(snap.diff(&steps, v1, v2)?))
        }),
        Request::Stats { lease } => {
            with_snapshot(state, ctx, lease, |snap| Ok(Response::Stats(snap.stats()?)))
        }
        Request::Latest { lease } => with_snapshot(state, ctx, lease, |snap| {
            Ok(Response::Latest(snap.latest()))
        }),
        Request::Ingest { docs } => {
            let mut parsed = Vec::new();
            for (i, text) in docs.iter().enumerate() {
                match xarch_xml::parse(text) {
                    Ok(doc) => parsed.push(doc),
                    Err(e) => {
                        return (
                            Response::Error {
                                code: ErrorCode::BadPayload,
                                message: format!("ingest document {i} does not parse: {e}"),
                            }
                            .into(),
                            After::Keep,
                        )
                    }
                }
            }
            match ctx.handle.add_versions(&parsed) {
                Ok(versions) => (Response::Ingested(versions), After::Keep),
                Err(e) => (
                    Response::Error {
                        code: ErrorCode::Store,
                        message: e.to_string(),
                    },
                    After::Keep,
                ),
            }
        }
        Request::SnapOpen => {
            let snap = ctx.handle.snapshot();
            let pinned = snap.pinned();
            let lease = state.next_lease;
            state.next_lease += 1;
            state.leases.insert(lease, snap);
            ctx.metrics.leases_open.add(1);
            (Response::SnapOpened { lease, pinned }, After::Keep)
        }
        Request::SnapClose { lease } => match state.leases.remove(&lease) {
            Some(_) => {
                ctx.metrics.leases_open.add(-1);
                (Response::SnapClosed, After::Keep)
            }
            None => (
                Response::Error {
                    code: ErrorCode::NoSuchLease,
                    message: format!("lease {lease} is not held by this connection"),
                },
                After::Keep,
            ),
        },
        Request::Metrics => (Response::Metrics(ctx.obs.render_prometheus()), After::Keep),
        Request::Health => {
            let gauge_u64 = |v: i64| u64::try_from(v).unwrap_or(0);
            (
                Response::Health(Health {
                    ok: !ctx.shutting_down.load(Ordering::SeqCst),
                    latest: ctx.handle.latest(),
                    in_flight: gauge_u64(ctx.metrics.in_flight.get()),
                    leases: gauge_u64(ctx.metrics.leases_open.get()),
                    served: ctx.metrics.requests.get(),
                }),
                After::Keep,
            )
        }
        Request::Shutdown => {
            if ctx.allow_shutdown {
                ctx.begin_shutdown();
                (Response::ShuttingDown, After::Drop)
            } else {
                (
                    Response::Error {
                        code: ErrorCode::ShutdownRefused,
                        message: "remote shutdown is disabled (allow_shutdown = false)".into(),
                    },
                    After::Keep,
                )
            }
        }
    };
    (resp.into(), after)
}

/// Resolves the lease (0 = fresh pin) and runs `f` against the
/// snapshot, mapping `StoreError` to a structured `store` error. A
/// fresh pin is one `Arc` clone of the published view,
/// and a held lease answers exactly as it did when opened — concurrent
/// ingest through the same handle never blocks or perturbs either path.
fn with_snapshot<R: From<Response>>(
    state: &ConnState,
    ctx: &Ctx,
    lease: u64,
    f: impl FnOnce(&Snapshot) -> Result<R, StoreError>,
) -> (R, After) {
    let fresh;
    let snap = if lease == 0 {
        fresh = ctx.handle.snapshot();
        &fresh
    } else {
        match state.leases.get(&lease) {
            Some(snap) => snap,
            None => {
                return (
                    Response::Error {
                        code: ErrorCode::NoSuchLease,
                        message: format!("lease {lease} is not held by this connection"),
                    }
                    .into(),
                    After::Keep,
                )
            }
        }
    };
    match f(snap) {
        Ok(resp) => (resp, After::Keep),
        Err(e) => (
            Response::Error {
                code: ErrorCode::Store,
                message: e.to_string(),
            }
            .into(),
            After::Keep,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_core::{Archive, KeyQuery, StoreStats, TimeSet};
    use xarch_keys::KeySpec;
    use xarch_proto::frame::{write_frame, KEEP_CAPACITY, MAX_FRAME_LEN};
    use xarch_xml::Document;

    /// `<db>` + `filler` bytes of text + `</db>`, as versions 1.., with an
    /// empty version after the last.
    fn archive_of(fillers: &[usize]) -> Archive {
        let mut a = Archive::new(KeySpec::parse("(/, (db, {}))").unwrap());
        for &filler in fillers {
            let mut doc = Document::new("db");
            doc.add_text(doc.root(), &"é".repeat(filler / 2));
            doc.add_text(doc.root(), &"x".repeat(filler % 2));
            a.add_version(&doc).unwrap();
        }
        a.add_empty_version();
        a
    }

    /// What the connection loop puts on the wire for `retrieve(v)`.
    fn served(snap: &impl StoreReader, v: u32, out: &mut Outbox<Vec<u8>>) -> Vec<u8> {
        let reply = render_retrieve(snap, v, &mut out.buf).unwrap_or_else(|e| {
            Response::Error {
                code: ErrorCode::Store,
                message: e.to_string(),
            }
            .into()
        });
        out.send(&reply).unwrap();
        std::mem::take(&mut out.w)
    }

    fn outbox() -> Outbox<Vec<u8>> {
        Outbox {
            w: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// The frame `write_frame` makes of the snapshot's own answer.
    fn expected(a: &Archive, v: u32) -> Vec<u8> {
        let mut text = Vec::new();
        let doc = a
            .retrieve_into(v, &mut text)
            .unwrap()
            .then(|| String::from_utf8(text).unwrap());
        let mut wire = Vec::new();
        write_frame(&mut wire, &Response::Document(doc).encode()).unwrap();
        wire
    }

    #[test]
    fn the_frame_built_in_place_is_the_frame_written() {
        // `<db>…</db>` is 9 bytes around the filler: documents of 127, 128,
        // 16383 and 16384 bytes sit on the length varint's width boundaries
        let fillers = [118, 119, 16_374, 16_375, 300_000, 0];
        let a = archive_of(&fillers);
        let mut out = outbox();
        // found (a large answer, then small ones through the same buffer:
        // no stale tail), empty at v, never archived
        for v in [5, 1, 2, 3, 4, 6, 7, 8, 1] {
            assert_eq!(served(&a, v, &mut out), expected(&a, v), "v{v}");
        }
        let mut text = Vec::new();
        assert!(a.retrieve_into(2, &mut text).unwrap());
        assert_eq!(text.len(), 128);
    }

    /// Writes half a document, then fails.
    struct TornRender(Archive);

    impl StoreReader for TornRender {
        fn spec(&self) -> &KeySpec {
            self.0.spec()
        }

        fn latest(&self) -> u32 {
            self.0.latest()
        }

        fn retrieve(&self, v: u32) -> Result<Option<Document>, StoreError> {
            StoreReader::retrieve(&self.0, v)
        }

        fn retrieve_into(&self, _: u32, out: &mut dyn Write) -> Result<bool, StoreError> {
            out.write_all(b"<db>half a docum")?;
            Err(StoreError::Backend("the disk caught fire".into()))
        }

        fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError> {
            StoreReader::history(&self.0, steps)
        }

        fn stats(&self) -> Result<StoreStats, StoreError> {
            StoreReader::stats(&self.0)
        }
    }

    #[test]
    fn a_render_that_fails_midway_is_answered_with_an_error_and_leaves_nothing_behind() {
        let torn = TornRender(archive_of(&[40]));
        let mut out = outbox();
        let wire = served(&torn, 1, &mut out);
        let body = read_frame(&mut wire.as_slice(), MAX_FRAME_LEN).unwrap();
        match Response::decode(&body).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Store);
                assert!(message.contains("caught fire"), "{message}");
            }
            other => panic!("expected a structured error, got {other:?}"),
        }
        // the next, good retrieve through the same buffer is untouched by it
        assert_eq!(served(&torn.0, 1, &mut out), expected(&torn.0, 1));
    }

    #[test]
    fn a_buffer_grown_past_the_keep_limit_is_dropped_once_sent() {
        let a = archive_of(&[KEEP_CAPACITY + 1, 10]);
        let mut out = outbox();
        assert_eq!(served(&a, 2, &mut out), expected(&a, 2));
        assert!(out.buf.capacity() > 0, "a small buffer is reused");
        assert_eq!(served(&a, 1, &mut out), expected(&a, 1));
        assert_eq!(out.buf.capacity(), 0);
    }
}
