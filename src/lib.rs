//! # xarch — archiving scientific data
//!
//! A Rust reproduction of Buneman, Khanna, Tajima & Tan, *Archiving
//! Scientific Data* (SIGMOD 2002 / ACM TODS 29(1), 2004): a key-based,
//! merging archiver for hierarchical (XML) databases, plus every substrate
//! its evaluation depends on.
//!
//! The paper contributes one archiving *model* — all versions merged into
//! a single tree, elements identified across versions by their keys,
//! interval-set timestamps recording when each element exists — and three
//! ways of running it. This crate serves the first, in memory (§4.2), as
//! one [`Store`] configured through [`ArchiveBuilder`] and queried
//! through the [`StoreReader`] / [`VersionStore`] traits. It reproduces the other two as experiments: §5's
//! hash-partitioned chunks ([`core::chunk`]) for the ablation's sizes,
//! and §6's external-memory archiver for its I/O counts in [`extmem`].
//! Serving looks like this:
//!
//! ```
//! use xarch::core::KeyQuery;
//! use xarch::keys::KeySpec;
//! use xarch::xml::parse;
//! use xarch::ArchiveBuilder;
//!
//! let spec = KeySpec::parse("(/, (db, {}))\n(/db, (gene, {id}))\n(/db/gene, (seq, {}))")?;
//! let mut store = ArchiveBuilder::new(spec).with_index().build();
//! store.add_version(&parse("<db><gene><id>6230</id><seq>GTCG</seq></gene></db>")?)?;
//! store.add_version(&parse("<db><gene><id>6230</id><seq>GTCA</seq></gene></db>")?)?;
//!
//! // retrieve any version, materialized…
//! let v1 = store.retrieve(1)?.expect("archived");
//! assert!(xarch::xml::writer::to_compact_string(&v1).contains("GTCG"));
//! // …or streamed straight into any `io::Write` sink
//! let mut bytes = Vec::new();
//! assert!(store.retrieve_into(1, &mut bytes)?);
//! assert!(String::from_utf8(bytes)?.contains("GTCG"));
//!
//! // temporal queries (§7): history, partial as-of retrieval, range
//! // scans and diffs — indexed, so the cost tracks the answer
//! let q = [KeyQuery::new("db"), KeyQuery::new("gene").with_text("id", "6230")];
//! assert_eq!(store.history(&q)?.expect("exists").to_string(), "1-2");
//! let at_v1 = store.as_of(&q, 1)?.expect("existed at v1");
//! assert!(xarch::xml::writer::to_compact_string(&at_v1).contains("GTCG"));
//! let full = store.history_values(&q)?.expect("exists");
//! assert_eq!(full.values.len(), 2); // two distinct sequences over time
//! let genes = store.range(&[KeyQuery::new("db")], 1..=2)?;
//! assert_eq!(genes.len(), 1); // one gene alive in the window
//! assert!(!store.diff(&q, 1, 2)?.is_same());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Configuring the store
//!
//! [`ArchiveBuilder::open`] builds one [`Store`]: an in-memory
//! [`core::Archive`] plus whatever the builder asked for. Every
//! configuration answers version-for-version identically (the
//! conformance suite verifies this); they differ in how temporal queries
//! are navigated and what survives the process:
//!
//! | builder call | part of the [`Store`] | paper | queries | bulk ingest ([`VersionStore::add_versions`]) | observability (`.with_observability(..)`) |
//! |---|---|---|---|---|---|
//! | default | [`core::Archive`] | §4.2 | the query kernel ([`core::kernel`]) over [`core::kernel::Scan`]: key-path descent by sibling scan + visibility-filtered subtree walk; `history_values` emits once per interval of constant content, an unchanged `diff` emits nothing; `retrieve_into` streams the archive's own scan | batch nested merge — each archive level is sorted and walked once per batch, byte-identical to a serial replay | `query.*` / `ingest.*` latency histograms ([`core::QueryMetrics`]) |
//! | `.with_index()` | [`index::Indexes`] | §7 | the same kernel over timestamp trees + the history index — `O(l log d)` descent, probe counts proportional to the answer; the indexes are refreshed once per commit over just the nodes the merge wrote | one batch merge, then one index refresh | `index.history.comparisons` / `index.timestamp.probes` |
//! | `.durable(path)` + `.checkpoint_every(n)` | [`storage::Journal`] | — | reads never touch the journal. Every commit is journaled to a segment file checksummed block by block ([`storage::crc32`]); reopen restores the newest checkpoint and replays the tail behind it (an indexed store builds its indexes once, after replay) | **group commit** — one multi-version block, one commit word, one fsync per batch; a torn batch recovers to the pre-batch state, never a prefix | `segment.*` / `checkpoint.*` write/fsync counters, `recovery.*` replay counters + duration, structured recovery events |
//! | [`ColdArchive::open`](storage::ColdArchive::open) | — (a read-only reader of a segment file) | — | per-block: `retrieve`/`as_of` decode one block of the mmap'd segment; `range`/`history_values`/`diff` ride the trait fallbacks | n/a — read-only (a shared OS lock admits any number of readers, and refuses a live writer) | `cold.*` counters + `cold.mapped_bytes` ([`storage::ColdArchive::open_observed`]) |
//!
//! `.compaction(Compaction::Weave)` additionally selects Fig 10's
//! "further compaction" beneath frontier nodes. Durable configurations
//! can fail to open (corrupt file, key-spec mismatch), so prefer
//! [`ArchiveBuilder::open`] or [`ArchiveBuilder::try_build`] over
//! `build()` when `.durable(..)` is set. The on-disk format — superblock,
//! block grammar, checkpoint envelope, recovery rules — is specified
//! byte-for-byte in `docs/FORMAT.md`, and a golden test pins the spec's
//! constants to the source.
//!
//! ## Bulk ingest
//!
//! Real curated archives arrive as releases. [`VersionStore::add_versions`]
//! ingests a whole batch through the batch paths in the table — always
//! observably identical to one [`VersionStore::add_version`] per document
//! (`tests/batch_equivalence.rs` holds every configuration to that) — and
//! the archive validates the whole batch before mutating anything, so a
//! rejected batch leaves the store untouched. Behind an
//! [`ArchiveHandle`], the batch lands as one writer section and one
//! publication, and snapshots pin either side of it, never the middle:
//!
//! ```
//! use xarch::keys::KeySpec;
//! use xarch::xml::parse;
//! use xarch::{ArchiveBuilder, StoreReader};
//!
//! let spec = KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))")?;
//! let handle = ArchiveBuilder::new(spec).build_shared();
//! let release = vec![
//!     parse("<db><rec><id>1</id></rec></db>")?,
//!     parse("<db><rec><id>1</id></rec><rec><id>2</id></rec></db>")?,
//! ];
//! assert_eq!(handle.add_versions(&release)?, vec![1, 2]);
//! assert_eq!(handle.snapshot().pinned(), 2); // whole batch or nothing
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/bulk_load.rs` for group-committed durable bulk loading,
//! and `xarch-bench`'s `write` workload (`phase_a_ms` serial, `phase_b_ms`
//! batched) for what batching buys.
//!
//! ## Serving concurrent readers
//!
//! The contract is split read/write: every query lives on the object-safe
//! [`StoreReader`] trait with `&self` receivers, and [`VersionStore`]
//! (which is `Send + Sync` by contract) adds the two mutators. On top of
//! that split, `.build_shared()` returns an [`ArchiveHandle`] — a
//! cheaply-clonable handle with single-writer / multi-reader semantics —
//! and [`ArchiveHandle::snapshot`] pins a [`Snapshot`] at the current
//! version: it holds the immutable view published for that version, so a
//! reader observes one consistent archive while merges continue behind it.
//! The handle keeps **one** [`Store`]: each commit is applied once and
//! published as a view that shares every unchanged chunk with the store,
//! so readers never wait behind a writer and a snapshot costs one `Arc`
//! clone.
//!
//! ```
//! use xarch::keys::KeySpec;
//! use xarch::xml::parse;
//! use xarch::{ArchiveBuilder, StoreReader};
//!
//! let spec = KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))")?;
//! let handle = ArchiveBuilder::new(spec).with_index().build_shared();
//! handle.add_version(&parse("<db><rec><id>1</id></rec></db>")?)?;
//!
//! let snap = handle.snapshot(); // pinned at version 1
//! let reader = handle.clone();  // e.g. move into a request-handler thread
//! std::thread::spawn(move || {
//!     assert_eq!(snap.latest(), 1); // repeatable reads, whatever commits
//!     assert!(snap.retrieve(1).expect("read").is_some());
//!     drop(reader.snapshot()); // fresh pins track the live archive
//! })
//! .join()
//! .unwrap();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/serve_and_query.rs` for a curator racing a pool of
//! leased-snapshot readers, and `tests/concurrency.rs` for the stress
//! proof that snapshot answers are byte-identical to serial replays.
//!
//! To serve that contract over the network, `xarch-server`
//! (`crates/server`) owns an [`ArchiveHandle`] behind a TCP worker pool
//! and answers the whole query surface plus batched ingest over the
//! `xarch_proto` wire protocol — each request from a fresh snapshot pin
//! or a client-held lease (`docs/PROTOCOL.md` is the byte-level spec;
//! [`ArchiveBuilder::try_build_served`] is the construction hook).
//!
//! ## Workspace layout
//!
//! * [`xml`] — XML model, parser, writers, value order, canonical form;
//! * [`keys`] — keys for XML, Annotate Keys, fingerprints, validation;
//! * [`diff`] — Myers line diff, delta repositories, SCCS weave;
//! * [`core`] — the archiver: Nested Merge, timestamps, retrieval,
//!   temporal history, the query kernel and model
//!   (`as_of`/`history`/`history_values`/`range`/`diff`), change description, §5's chunking experiment, the
//!   Fig-5 XML form, the [`StoreReader`] / [`VersionStore`] traits and the
//!   `query.*` / `ingest.*` metric handles;
//! * [`compress`] — LZSS (gzip-class) and XMill-style compressors;
//! * [`extmem`] — the §6 reproduction: the external-memory archiver with
//!   I/O accounting (not a serving backend), and the event codec the
//!   journal payloads reuse;
//! * [`storage`] — the durable segmented archive format (specified in
//!   `docs/FORMAT.md`), the crash-safe [`storage::Journal`] with
//!   checkpointed reopen, and the mmap'd [`storage::ColdArchive`]
//!   cold-read path;
//! * [`index`] — timestamp trees, the history index, and
//!   [`index::Indexes`], the query kernel's navigator over both;
//! * [`obs`] — the dependency-free observability layer: metrics registry
//!   (counters/gauges/latency histograms over lock-free atomics),
//!   structured tracing events with a post-mortem ring buffer, and
//!   Prometheus/JSON exposition — threaded through every layer by
//!   [`ArchiveBuilder::with_observability`] (see `examples/ops_report.rs`);
//! * [`datagen`] — OMIM/Swiss-Prot/XMark-like generators and the paper's
//!   change simulators.
//!
//! Two service crates sit on top of the facade (and are therefore not
//! re-exported here): `xarch_proto` (`crates/proto`), the CRC-framed
//! wire protocol (framed with the same [`storage::crc32`] as every
//! block) and blocking client, and `xarch_server`
//! (`crates/server`), the `xarch-server` network archive service.
//!
//! ## Tooling
//!
//! | tool | run | enforces |
//! |---|---|---|
//! | `xarch_analysis` (`crates/analysis`) | `cargo run --release -p xarch_analysis -- check` | panic-freedom in decode/recovery paths, no lock guard across fsync/snapshot, no truncating casts in `storage`, `&self` [`StoreReader`] methods + `Send`/`Sync` store impls, `// SAFETY:` on every `unsafe` block, no ad-hoc `Instant::now()` timing or `eprintln!` event logging outside `xarch_obs` in library code |
//! | docs drift gate (`tests/docs.rs`) | `cargo test --test docs` | `docs/FORMAT.md`'s magic / format-revision / layout constants match `crates/storage` source, `docs/PROTOCOL.md`'s handshake constants / verb bytes / error codes match `crates/proto` source (golden tests), both specs' CRC-32 check value matches [`storage::crc32`], and every intra-repo link in `README.md` / `docs/*.md` resolves |
//!
//! The analyzer runs in CI as a required gate; deliberate exemptions use
//! in-place `// xarch-allow: <rule> -- <reason>` comments, all of which
//! the `report` mode prints as a ledger (see the README's "Enforced
//! invariants" section and the `analyze` example).

pub use xarch_compress as compress;
pub use xarch_core as core;
pub use xarch_datagen as datagen;
pub use xarch_diff as diff;
pub use xarch_extmem as extmem;
pub use xarch_index as index;
pub use xarch_keys as keys;
pub use xarch_obs as obs;
pub use xarch_storage as storage;
pub use xarch_xml as xml;

mod handle;
mod store;

// the snapshot oracle shared with `tests/concurrency.rs` names this crate
// `xarch`, as an integration test does
#[cfg(test)]
extern crate self as xarch;
#[cfg(test)]
#[path = "../tests/common/snapshot_oracle.rs"]
mod snapshot_oracle;

pub use handle::{ArchiveHandle, Snapshot};
pub use store::{ArchiveBuilder, Store};
pub use xarch_core::{
    ElementHistory, RangeEntry, StoreError, StoreReader, StoreStats, VersionDelta, VersionStore,
};
pub use xarch_storage::{ColdArchive, DurableOptions, RecoveryStats};
