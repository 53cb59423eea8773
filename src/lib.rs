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
//! ways of running it. This crate serves the first, in memory (§4.2),
//! behind one trait, [`VersionStore`], configured through
//! [`ArchiveBuilder`]. It reproduces the other two as experiments: §5's
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
//! ## Choosing a backend
//!
//! Every backend implements the same [`VersionStore`] contract and
//! produces version-for-version equivalent databases (the integration
//! suite verifies this); they differ in where the merge's working set
//! lives and how temporal queries are answered:
//!
//! | builder call | backend | paper | when to use | `as_of` / `history` / `range` / `history_values` / `diff` | bulk ingest ([`VersionStore::add_versions`]) | shared reads, published [`view`](VersionStore::view) | observability (`.with_observability(..)`) |
//! |---|---|---|---|---|---|---|---|
//! | default | [`core::Archive`] | §4.2 | archive + version fit in RAM; fastest merges and queries | native: the query kernel ([`core::kernel`]) — key-path descent by sibling scan + visibility-filtered subtree walk; `history_values` emits once per interval of constant content (cut at the subtree's own timestamps), an unchanged `diff` emits nothing | batch nested merge — each archive level is sorted and walked once per batch, byte-identical to a serial replay | `&self`, lock-free; a view is a clone over copy-on-write arena chunks — O(changed) | `query.*` / `ingest.*` latency histograms via the outermost [`core::ObservedStore`] wrapper |
//! | `.durable(path)` + `.checkpoint_every(n)` | [`storage::DurableArchive`] | — | the archive must outlive the process: every commit is journaled to a segment file checksummed block by block ([`storage::crc32`]) and replayed on reopen (composes with any row above); a checkpoint cadence keeps reopen cost flat vs history by restoring the newest snapshot block and replaying only the tail | a [`Layer`] that intercepts nothing: every query is the wrapped backend's own; indexes are re-established during replay | **group commit** — one multi-version block, one commit word, one fsync per batch; a torn batch recovers to the pre-batch state, never a prefix | `&self`; reads never touch the journal — a view is the wrapped store's, taken after the commit lands | `segment.*` / `checkpoint.*` write/fsync counters, `recovery.*` replay counters + duration, structured recovery events (torn tail, corrupt block, skipped checkpoint) |
//! | `.with_index()` | [`index::IndexedArchive`] | §7 | query-heavy service workloads on the in-memory tier: timestamp trees + history index over the archive's arena, refreshed once per commit over just the nodes the merge wrote; composes with every other builder call | indexed: the same query kernel over the §7 structures — `O(l log d)` descent, probe counts proportional to the answer | one batch merge, then one index refresh over what the whole batch wrote | `&self`; probe counters are atomics, shared by every view; index tables share chunks | `index.history.comparisons` / `index.timestamp.probes` bound to the shared registry |
//! | [`ColdArchive::open`](storage::ColdArchive::open) | [`storage::ColdArchive`] | — | rarely-read archives that must answer without startup cost: queries run straight off the mmap'd segment file via a per-block version index, decoding only the blocks each answer needs — the archive is never materialized in RAM | per-block: `retrieve`/`as_of` decode one block, `retrieve_into` writes XML straight from its bytes and `as_of` builds only the element it returns; `history` streams block-at-a-time the same way; `range`/`history_values`/`diff` ride the trait fallbacks | n/a — cold readers are read-only (a shared OS lock admits any number of them beside each other, and refuses a live writer) | `&self`; the map itself is the shared state | `cold.retrieves` / `cold.blocks_decoded` / `cold.bytes_decoded` counters + `cold.mapped_bytes` gauge ([`storage::ColdArchive::open_observed`]) |
//!
//! `.compaction(Compaction::Weave)` additionally selects Fig 10's
//! "further compaction" beneath frontier nodes. Durable configurations
//! can fail to open (corrupt file, key-spec mismatch), so prefer
//! [`ArchiveBuilder::try_build`] over `build()` when `.durable(..)` is set. The on-disk format all the
//! durable rows share — superblock, block grammar, checkpoint envelope,
//! recovery rules — is specified byte-for-byte in `docs/FORMAT.md`, and
//! a golden test pins the spec's constants to the source.
//!
//! ## Bulk ingest
//!
//! Real curated archives arrive as releases. [`VersionStore::add_versions`]
//! ingests a whole batch through the per-tier fast paths in the table —
//! always observably identical to one [`VersionStore::add_version`] per
//! document (`tests/batch_equivalence.rs` holds every backend to that) —
//! and native paths validate the whole batch before mutating anything,
//! so a rejected batch leaves the store untouched. Behind an
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
//! The handle keeps **one** archive instance: each commit is applied once
//! and published as a view that shares every unchanged chunk with the
//! store (`VersionStore::view`), so readers never wait behind a writer
//! and a snapshot costs one `Arc` clone.
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
//!   Fig-5 XML form, and the [`VersionStore`] / [`Layer`] traits;
//! * [`compress`] — LZSS (gzip-class) and XMill-style compressors;
//! * [`extmem`] — the §6 reproduction: the external-memory archiver with
//!   I/O accounting (not a serving backend), and the event codec the
//!   journal payloads reuse;
//! * [`storage`] — the durable segmented archive format (specified in
//!   `docs/FORMAT.md`), the crash-safe [`storage::DurableArchive`]
//!   backend with checkpointed reopen, and the mmap'd
//!   [`storage::ColdArchive`] cold-read path;
//! * [`index`] — timestamp trees, the history index, and the indexed
//!   `VersionStore` built on them;
//! * [`obs`] — the dependency-free observability layer: metrics registry
//!   (counters/gauges/latency histograms over lock-free atomics),
//!   structured tracing events with a post-mortem ring buffer, and
//!   Prometheus/JSON exposition — threaded through every backend by
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

pub use handle::{ArchiveHandle, Snapshot};
pub use store::ArchiveBuilder;
pub use xarch_core::{
    ElementHistory, Layer, RangeEntry, StoreError, StoreReader, StoreStats, VersionDelta,
    VersionStore,
};
pub use xarch_index::IndexedArchive;
pub use xarch_storage::{ColdArchive, DurableArchive, DurableOptions, RecoveryStats};
