//! # xarch_server — the network archive service
//!
//! Serves a shared archive ([`xarch::ArchiveHandle`]) over TCP speaking
//! the [`xarch_proto`] wire protocol: the full `StoreReader` query
//! surface, batched group-committed ingest, snapshot leases, and an
//! admin/ops surface (ping, Prometheus metrics, health, optional remote
//! shutdown). Pure `std::net` — the workspace is offline and
//! path-deps-only, so there is no async runtime; concurrency comes from
//! a bounded worker-thread pool, which is exactly the paper's serving
//! shape anyway: many readers each pinning a consistent [`Snapshot`]
//! while one curator appends versions behind them.
//!
//! The serving contract, in one paragraph: every query request is
//! answered from a *pinned snapshot* — either a fresh pin taken for
//! that one request (lease 0) or a client-held lease opened with
//! `SnapOpen` — so readers never block the curator's batch ingest and
//! never observe a half-applied batch; frames are bounded by a
//! configured byte ceiling enforced *before* allocation; socket
//! deadlines bound how long a stalled peer can hold a worker; and every
//! rejection is loud (a structured error on the wire plus a
//! [`xarch_obs`] event and a `server.*` metric).
//!
//! ```no_run
//! use xarch_server::{Server, ServerConfig};
//!
//! let cfg = ServerConfig::from_text(
//!     "listen = 127.0.0.1:0\n\
//!      workers = 4\n\
//!      spec = (/, (db, {}))\n\
//!      spec = (/db, (rec, {id}))\n",
//! )?;
//! let server = Server::start(cfg)?;
//! println!("serving on {}", server.addr());
//! server.wait();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Snapshot`]: xarch::Snapshot

#![warn(missing_docs)]
#![deny(clippy::print_stderr)]

pub mod config;
mod metrics;
pub mod serve;

pub use config::{ConfigError, ServerConfig};
pub use serve::{RunningServer, Server, ServerError};
