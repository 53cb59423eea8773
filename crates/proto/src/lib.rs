//! # xarch_proto — the archive service wire protocol
//!
//! A dependency-free, length-prefixed, CRC-framed binary protocol
//! covering the full `StoreReader` query surface (retrieve, as_of,
//! history, history_values, range, diff, stats, latest) plus batched
//! ingest, snapshot leases, and the admin verbs an operations surface
//! needs (ping, metrics, health, shutdown) — the network face of the
//! paper's "archive as an always-on query service" deployment shape.
//!
//! The byte-level grammar is specified normatively in
//! `docs/PROTOCOL.md` (golden-tested against the constants in this
//! crate), and deliberately reuses machinery the workspace already
//! trusts: varints and length-prefixed strings come from
//! `xarch_core::wire` (the same primitives the on-disk checkpoint
//! format uses), and frame integrity uses the storage layer's CRC-32
//! ([`xarch_storage::crc32`]).
//!
//! Three layers:
//!
//! * [`frame`] — the outermost envelope: `len · crc · body`, with
//!   panic-free reads that distinguish a clean close ([`FrameError::Eof`])
//!   from truncation, oversize, and corruption;
//! * [`msg`] — [`Request`]/[`Response`] values and their body codecs.
//!   Decoding never panics: every failure is a positioned
//!   [`xarch_core::wire::WireError`] or a typed [`DecodeError`];
//! * [`client`] — a small blocking [`Client`] over `std::net::TcpStream`
//!   so tests, examples, and the bench harness drive a server over real
//!   sockets.
//!
//! ```no_run
//! use xarch_proto::{Client, Lease};
//!
//! let mut client = Client::connect("127.0.0.1:7440")?;
//! let latest = client.latest(Lease::FRESH)?;
//! let xml = client.retrieve(Lease::FRESH, latest)?;
//! println!("version {latest}: {} bytes", xml.map_or(0, |s| s.len()));
//! # Ok::<(), xarch_proto::ClientError>(())
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stderr)]
// every byte a peer sends is decoded here: refuse it, never panic on it
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod client;
pub mod frame;
pub mod msg;

pub use client::{Client, ClientError, Lease};
pub use frame::{
    finish_frame, read_frame, write_frame, FrameError, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
pub use msg::{negotiate, DecodeError, ErrorCode, Health, Hello, Request, Response};

/// The handshake magic: the first four body bytes of every `Hello`
/// request. A peer that opens with anything else is not speaking this
/// protocol and is answered with a structured error, never garbage.
pub const PROTO_MAGIC: [u8; 4] = *b"XAPR";

/// The protocol revision this build speaks.
pub const PROTO_VERSION: u32 = 1;

/// The oldest protocol revision this build still accepts in a
/// handshake. Servers negotiate the highest version inside the client's
/// offered `min..=max` range that they themselves support; an empty
/// intersection is a [`ErrorCode::VersionMismatch`].
pub const MIN_PROTO_VERSION: u32 = 1;
