//! The network service's acceptance bar, in two movements.
//!
//! **Torture** (satellite 1): a peer may send any byte sequence —
//! truncated frames, oversized length prefixes, corrupt bodies, verbs
//! that do not exist, handshakes from the future — and the server must
//! answer a structured error or drop the connection, never panic and
//! never lose a worker. After every assault, a well-behaved client must
//! still get service.
//!
//! **Differential** (satellite 2): every query verb answered over a
//! real socket must equal the same query asked of a local [`Snapshot`]
//! at the same pin — byte-compared through the *same call path* on both
//! sides (`retrieve` streams via `retrieve_into` on the server, so the
//! local side streams too; `as_of` materializes and compact-prints on
//! both sides) — across three backend configurations, including while a
//! curator ingests concurrently.
//!
//! [`Snapshot`]: xarch::Snapshot

use std::io::Write as _;
use std::net::TcpStream;

use xarch::core::KeyQuery;
use xarch::storage::scratch_path;
use xarch::xml::writer::to_compact_string;
use xarch::xml::{parse, MAX_DEPTH};
use xarch::StoreReader;
use xarch_proto::{
    read_frame, write_frame, Client, ClientError, ErrorCode, FrameError, Lease, Request, Response,
    MAX_FRAME_LEN,
};
use xarch_server::{RunningServer, Server, ServerConfig};

const SPEC: &str = "(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))";

fn config(extra: &str) -> ServerConfig {
    let mut text = String::from("listen = 127.0.0.1:0\nworkers = 3\nread_timeout_ms = 5000\n");
    text.push_str(extra);
    for line in SPEC.lines() {
        text.push_str(&format!("spec = {line}\n"));
    }
    ServerConfig::from_text(&text).expect("test config must validate")
}

fn start(extra: &str) -> RunningServer {
    Server::start(config(extra)).expect("server must start")
}

/// Version `i` holds records `1..=i`, each stamped with the version.
fn doc(i: u32) -> String {
    let mut s = String::from("<db>");
    for r in 1..=i {
        s.push_str(&format!("<rec><id>{r}</id><val>v{i}</val></rec>"));
    }
    s.push_str("</db>");
    s
}

fn q(id: u32) -> Vec<KeyQuery> {
    vec![
        KeyQuery::new("db"),
        KeyQuery::new("rec").with_text("id", &id.to_string()),
    ]
}

/// Raw-socket request/response for torture tests that must control the
/// exact bytes on the wire.
fn raw_call(stream: &mut TcpStream, body: &[u8]) -> Result<Response, FrameError> {
    write_frame(stream, body)?;
    let resp = read_frame(stream, MAX_FRAME_LEN)?;
    Ok(Response::decode(&resp).expect("server responses always decode"))
}

fn raw_hello(stream: &mut TcpStream) -> Response {
    raw_call(stream, &Request::Hello { min: 1, max: 1 }.encode()).expect("hello exchange")
}

fn expect_error(resp: &Response, code: ErrorCode) {
    match resp {
        Response::Error { code: got, .. } => assert_eq!(*got, code, "{resp:?}"),
        other => panic!("expected {code} error, got {other:?}"),
    }
}

// --------------------------------------------------------------------------
// torture
// --------------------------------------------------------------------------

#[test]
fn truncated_frames_never_wedge_the_server() {
    let server = start("");
    // partial header, then gone
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&[0x05, 0x00]).unwrap();
    drop(s);
    // full header promising a body that never arrives
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&[16, 0, 0, 0, 0xAA, 0xBB, 0xCC, 0xDD]).unwrap();
    drop(s);
    // the server still serves
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
}

#[test]
fn oversized_length_prefix_is_refused_with_a_structured_error() {
    let server = start("max_frame_len = 4096\n");
    let mut s = TcpStream::connect(server.addr()).unwrap();
    // header advertising a 4 GiB body; no body follows (and none is read)
    let mut header = Vec::new();
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&header).unwrap();
    let resp = read_frame(&mut s, MAX_FRAME_LEN).expect("a structured refusal");
    expect_error(&Response::decode(&resp).unwrap(), ErrorCode::FrameTooLarge);
    // the connection is dropped afterwards: the stream is desynced
    assert!(matches!(
        read_frame(&mut s, MAX_FRAME_LEN),
        Err(FrameError::Eof | FrameError::Io(_))
    ));
    // fresh clients are unaffected
    Client::connect(server.addr()).unwrap().ping().unwrap();
}

#[test]
fn corrupt_frames_fail_the_crc_and_drop_the_connection() {
    let server = start("");
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let body = Request::Hello { min: 1, max: 1 }.encode();
    let mut framed = Vec::new();
    write_frame(&mut framed, &body).unwrap();
    let last = framed.len() - 1;
    framed[last] ^= 0x20; // flip one body byte; header CRC now lies
    s.write_all(&framed).unwrap();
    let resp = read_frame(&mut s, MAX_FRAME_LEN).expect("a structured refusal");
    expect_error(&Response::decode(&resp).unwrap(), ErrorCode::BadFrame);
    assert!(matches!(
        read_frame(&mut s, MAX_FRAME_LEN),
        Err(FrameError::Eof | FrameError::Io(_))
    ));
    Client::connect(server.addr()).unwrap().ping().unwrap();
}

#[test]
fn unknown_verbs_and_bad_payloads_keep_the_connection_alive() {
    let server = start("");
    let mut s = TcpStream::connect(server.addr()).unwrap();
    assert!(matches!(raw_hello(&mut s), Response::Hello(_)));
    // an unassigned verb byte: structured error, connection survives
    let resp = raw_call(&mut s, &[0x7F]).unwrap();
    expect_error(&resp, ErrorCode::UnknownVerb);
    // a known verb with a truncated payload: same story
    let resp = raw_call(&mut s, &[0x10]).unwrap(); // RETRIEVE with no fields
    expect_error(&resp, ErrorCode::BadPayload);
    // a decoded request with trailing garbage: same story
    let mut body = Request::Ping.encode();
    body.push(0x00);
    let resp = raw_call(&mut s, &body).unwrap();
    expect_error(&resp, ErrorCode::BadPayload);
    // and the very same connection still answers real requests
    assert!(matches!(
        raw_call(&mut s, &Request::Ping.encode()).unwrap(),
        Response::Pong
    ));
}

#[test]
fn handshake_gates_and_version_mismatch() {
    let server = start("");
    // any verb before hello is refused, and the connection survives to
    // complete the handshake afterwards
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let resp = raw_call(&mut s, &Request::Ping.encode()).unwrap();
    expect_error(&resp, ErrorCode::NeedHello);
    assert!(matches!(raw_hello(&mut s), Response::Hello(_)));
    assert!(matches!(
        raw_call(&mut s, &Request::Ping.encode()).unwrap(),
        Response::Pong
    ));

    // a client from the future is refused and dropped
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let resp = raw_call(&mut s, &Request::Hello { min: 99, max: 120 }.encode()).unwrap();
    expect_error(&resp, ErrorCode::VersionMismatch);
    assert!(matches!(
        read_frame(&mut s, MAX_FRAME_LEN),
        Err(FrameError::Eof | FrameError::Io(_))
    ));

    // the Client wrapper surfaces the refusal as a handshake error
    let err = Client::connect(server.addr())
        .map(|_| ())
        .map_err(|e| e.to_string());
    assert!(err.is_ok(), "a current client must connect: {err:?}");
}

#[test]
fn a_flood_of_garbage_does_not_leak_workers() {
    let server = start("workers = 2\nmax_frame_len = 1024\n");
    // far more hostile connections than workers, several kinds of hostility
    for i in 0..12u32 {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        match i % 4 {
            0 => {
                // oversized prefix
                let _ = s.write_all(&[0xFF; 8]);
            }
            1 => {
                // truncated header
                let _ = s.write_all(&[1, 2, 3]);
            }
            2 => {
                // wrong magic in an otherwise valid frame
                let mut body = vec![0x01];
                body.extend_from_slice(b"NOPE");
                body.extend_from_slice(&[1, 1]);
                let _ = write_frame(&mut s, &body);
            }
            _ => {
                // clean close with no bytes at all
            }
        }
        drop(s);
    }
    // with only 2 workers, service is proof nothing leaked or wedged
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("server_rejected_frames"),
        "rejected-frame counter must be exposed"
    );
}

#[test]
fn lease_lifecycle_and_errors() {
    let server = start("");
    server
        .handle()
        .add_versions(&[parse(&doc(1)).unwrap()])
        .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let (lease, pinned) = client.open_snapshot().unwrap();
    assert_eq!(pinned, 1);
    // the curator moves on; the lease does not
    server
        .handle()
        .add_versions(&[parse(&doc(2)).unwrap()])
        .unwrap();
    assert_eq!(client.latest(lease).unwrap(), 1);
    assert_eq!(client.latest(Lease::FRESH).unwrap(), 2);
    assert!(
        client.retrieve(lease, 2).unwrap().is_none(),
        "beyond the pin"
    );

    client.close_snapshot(lease).unwrap();
    let err = client.latest(lease).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::NoSuchLease,
                ..
            }
        ),
        "{err}"
    );
    let err = client.close_snapshot(Lease(777)).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::NoSuchLease,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn shutdown_is_refused_unless_enabled() {
    let server = start("");
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.shutdown().unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::ShutdownRefused,
                ..
            }
        ),
        "{err}"
    );
    client.ping().unwrap();

    let server = start("allow_shutdown = true\n");
    let mut client = Client::connect(server.addr()).unwrap();
    client.shutdown().unwrap();
    server.wait(); // must return: the verb really stops the server
}

/// `n` nested `<a>`, the innermost holding one text.
fn nested(n: usize) -> String {
    format!("{}x{}", "<a>".repeat(n), "</a>".repeat(n))
}

/// One document nesting past the bound, or far past it (200 000 levels
/// aborted the process when the parser recursed), is a positioned
/// `BadPayload` — and neither the connection nor the server goes down.
#[test]
fn documents_nested_past_max_depth_are_refused_and_the_server_survives() {
    let server = start("");
    let mut client = Client::connect(server.addr()).unwrap();
    for n in [MAX_DEPTH + 1, 200_000] {
        let err = client.ingest(&[nested(n)]).unwrap_err();
        let ClientError::Server { code, message } = err else {
            panic!("expected a server error, got {err}");
        };
        assert_eq!(code, ErrorCode::BadPayload, "{message}");
        // the refused start tag, by line and column
        let at = format!(
            "at 1:{}: elements nest deeper than {MAX_DEPTH}",
            3 * MAX_DEPTH + 1
        );
        assert!(message.contains(&at), "{message}");
        client.ping().unwrap();
        Client::connect(server.addr()).unwrap().ping().unwrap();
    }
    assert_eq!(
        server.handle().snapshot().latest(),
        0,
        "nothing was ingested"
    );
}

/// Release `i` of a record whose value nests `MAX_DEPTH` elements deep
/// in all: `db`, `rec`, `val`, then a chain that changes with `i`.
fn deepest_release(i: u32) -> String {
    let chain = MAX_DEPTH - 3;
    format!(
        "<db><rec><id>1</id><val>{}v{i}{}</val></rec></db>",
        "<d>".repeat(chain),
        "</d>".repeat(chain)
    )
}

/// A document nested exactly `MAX_DEPTH` deep goes everywhere a
/// document goes, on the default worker stacks: served ingest, a
/// restart that restores the checkpoint and replays the tail, and then
/// the same bytes back — over the wire and read cold.
#[test]
fn a_document_at_max_depth_round_trips_ingest_restart_and_cold_read() {
    let path = scratch_path("service-deepest");
    let extra = format!("durable = {}\ncheckpoint_every = 2\n", path.display());
    let releases: Vec<String> = (1..=3).map(deepest_release).collect();
    let rec_1 = |text: &str| text["<db>".len()..text.len() - "</db>".len()].to_owned();
    {
        let server = start(&extra);
        let mut client = Client::connect(server.addr()).unwrap();
        for (i, release) in releases.iter().enumerate() {
            assert_eq!(
                client.ingest(std::slice::from_ref(release)).unwrap(),
                vec![i as u32 + 1]
            );
        }
    }
    let server = start(&extra);
    let restored = server
        .obs()
        .registry()
        .get_counter("recovery.checkpoints_loaded")
        .map(|c| c.get());
    assert_eq!(restored, Some(1), "reopen restored the checkpoint");
    let mut client = Client::connect(server.addr()).unwrap();
    for (v, release) in (1..).zip(&releases) {
        assert_eq!(
            client.retrieve(Lease::FRESH, v).unwrap().as_ref(),
            Some(release)
        );
        let record = client.as_of(Lease::FRESH, v, &q(1)).unwrap();
        assert_eq!(record, Some(rec_1(release)), "v{v}");
    }
    drop(client);
    drop(server);
    let cold = xarch::ColdArchive::open(&path).unwrap();
    for (v, release) in (1..).zip(&releases) {
        let mut out = Vec::new();
        assert!(cold.retrieve_into(v, &mut out).unwrap());
        assert_eq!(&String::from_utf8(out).unwrap(), release, "cold v{v}");
        let record = cold.as_of(&q(1), v).unwrap();
        assert_eq!(record.map(|d| to_compact_string(&d)), Some(rec_1(release)));
    }
    drop(cold);
    let _ = std::fs::remove_file(&path);
}

/// Every backend a server can be configured with ingests and answers
/// every query verb on documents `MAX_DEPTH` deep, on the default worker
/// stacks. `MAX_DEPTH` is a format constant, not sized by this test:
/// with the constant raised, every backend here passes at 1536 levels in
/// a debug build, and a worker overflows at 2048.
#[test]
fn every_backend_serves_documents_at_max_depth() {
    let val = || [q(1), vec![KeyQuery::new("val")]].concat();
    for extra in ["", "indexed = true\n"] {
        let server = start(extra);
        let mut client = Client::connect(server.addr()).unwrap();
        let batch: Vec<String> = (1..=3).map(deepest_release).collect();
        assert_eq!(client.ingest(&batch).unwrap(), vec![1, 2, 3], "{extra}");
        client.ingest(&[deepest_release(4)]).unwrap();
        for steps in [q(1), val()] {
            for v in 1..=4 {
                let whole = client.retrieve(Lease::FRESH, v).unwrap();
                assert_eq!(whole, Some(deepest_release(v)), "{extra}");
                assert!(client.as_of(Lease::FRESH, v, &steps).unwrap().is_some());
            }
            client.history(Lease::FRESH, &steps).unwrap();
            let values = client.history_values(Lease::FRESH, &steps).unwrap();
            assert_eq!(values.map(|h| h.values.len()), Some(4), "{extra}");
            client.diff(Lease::FRESH, &steps, 1, 4).unwrap();
            client.range(Lease::FRESH, &steps, 1, 4).unwrap();
        }
    }
}

// --------------------------------------------------------------------------
// differential
// --------------------------------------------------------------------------

/// Streams `v` out of a local reader through the same `retrieve_into`
/// path the server uses, so both sides of the comparison share a code
/// path and the comparison is byte-exact.
fn local_retrieve(snap: &xarch::Snapshot, v: u32) -> Option<String> {
    let mut buf = Vec::new();
    let found = snap.retrieve_into(v, &mut buf).unwrap();
    found.then(|| String::from_utf8(buf).unwrap())
}

fn local_as_of(snap: &xarch::Snapshot, steps: &[KeyQuery], v: u32) -> Option<String> {
    snap.as_of(steps, v)
        .unwrap()
        .map(|d| xarch::xml::writer::to_compact_string(&d))
}

fn differential_for(extra: &str) {
    let server = Server::start(config(extra)).expect("server must start");
    let mut client = Client::connect(server.addr()).unwrap();

    // ingest over the wire; the server assigns consecutive versions
    let batch: Vec<String> = (1..=3).map(doc).collect();
    assert_eq!(client.ingest(&batch).unwrap(), vec![1, 2, 3]);

    // quiesced: a wire lease and a local snapshot pin the same version
    let (lease, pinned) = client.open_snapshot().unwrap();
    let snap = server.handle().snapshot();
    assert_eq!(pinned, snap.pinned(), "no curator is running");
    assert_eq!(client.latest(lease).unwrap(), snap.latest());

    // retrieve: every version, plus 0 and one past the pin
    for v in 0..=pinned + 1 {
        assert_eq!(
            client.retrieve(lease, v).unwrap(),
            local_retrieve(&snap, v),
            "retrieve({v}) [{extra:?}]"
        );
    }
    // as_of and the per-element verbs: live, dead, and absent paths
    for steps in [q(1), q(2), q(99), vec![KeyQuery::new("db")]] {
        for v in 1..=pinned {
            assert_eq!(
                client.as_of(lease, v, &steps).unwrap(),
                local_as_of(&snap, &steps, v),
                "as_of({steps:?}, {v}) [{extra:?}]"
            );
        }
        assert_eq!(
            client.history(lease, &steps).unwrap(),
            snap.history(&steps).unwrap(),
            "history({steps:?}) [{extra:?}]"
        );
        assert_eq!(
            client.history_values(lease, &steps).unwrap(),
            snap.history_values(&steps).unwrap(),
            "history_values({steps:?}) [{extra:?}]"
        );
        let delta_wire = client.diff(lease, &steps, 1, pinned).unwrap();
        let delta_local = snap.diff(&steps, 1, pinned).unwrap();
        assert_eq!(delta_wire, delta_local, "diff({steps:?}) [{extra:?}]");
    }
    assert_eq!(
        client
            .range(lease, &[KeyQuery::new("db")], 1, pinned)
            .unwrap(),
        snap.range(&[KeyQuery::new("db")], 1..=pinned).unwrap(),
        "range [{extra:?}]"
    );
    assert_eq!(
        client.stats(lease).unwrap(),
        snap.stats().unwrap(),
        "stats [{extra:?}]"
    );
    client.close_snapshot(lease).unwrap();

    // ingest-while-querying: the curator appends through the handle
    // while wire clients read. Pins must be monotone per connection and
    // already-committed versions must answer identically throughout.
    let v1_bytes = local_retrieve(&server.handle().snapshot(), 1).unwrap();
    let curator = server.handle().clone();
    let stop_flag = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop_flag;
        scope.spawn(move || {
            for i in 4..=9 {
                curator.add_versions(&[parse(&doc(i)).unwrap()]).unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let addr = server.addr();
        let v1 = v1_bytes.as_str();
        for _ in 0..2 {
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut last_pin = 0u32;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let (lease, pinned) = c.open_snapshot().unwrap();
                    assert!(pinned >= last_pin, "pins must be monotone per connection");
                    last_pin = pinned;
                    // a settled version answers identically forever
                    assert_eq!(c.retrieve(lease, 1).unwrap().as_deref(), Some(v1));
                    // the lease is self-consistent: latest == pin
                    assert_eq!(c.latest(lease).unwrap(), pinned);
                    c.close_snapshot(lease).unwrap();
                }
            });
        }
    });

    // after the dust settles, the full archive differs nowhere
    let snap = server.handle().snapshot();
    assert_eq!(snap.pinned(), 9);
    for v in 1..=9 {
        assert_eq!(
            client.retrieve(Lease::FRESH, v).unwrap(),
            local_retrieve(&snap, v),
            "post-churn retrieve({v}) [{extra:?}]"
        );
    }
}

#[test]
fn differential_in_memory() {
    differential_for("");
}

#[test]
fn differential_durable_checkpointed() {
    let path = scratch_path("service-diff");
    let extra = format!("durable = {}\ncheckpoint_every = 2\n", path.display());
    differential_for(&extra);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn differential_indexed() {
    differential_for("indexed = true\n");
}

#[test]
fn health_and_metrics_reflect_served_traffic() {
    let server = start("");
    let mut client = Client::connect(server.addr()).unwrap();
    client.ingest(&[doc(1)]).unwrap();
    client.retrieve(Lease::FRESH, 1).unwrap();
    let health = client.health().unwrap();
    assert!(health.ok);
    assert_eq!(health.latest, 1);
    assert!(health.served >= 3, "hello + ingest + retrieve: {health:?}");
    let metrics = client.metrics().unwrap();
    for needle in [
        "server_requests",
        "server_connections",
        "server_retrieve_duration_count",
        "server_ingest_duration_count",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in exposition");
    }
}
