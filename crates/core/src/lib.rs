//! # xarch-core
//!
//! The primary contribution of *Archiving Scientific Data* (Buneman,
//! Khanna, Tajima, Tan; SIGMOD 2002 / TODS 2004): a **key-based, merging
//! archiver** for hierarchical data. All versions of a database live in one
//! tree; elements are identified across versions by their keys; timestamps
//! (compact interval sets) record when each element exists.
//!
//! * [`timeset`] — interval-set timestamps (`t="1-3,5,7-9"`),
//! * [`archive`] — the merged tree ([`Archive`]) with timestamp inheritance,
//! * [`merge`] — **Nested Merge** (§4.2), entered via
//!   [`Archive::add_version`],
//! * [`weave`] — "further compaction" beneath frontier nodes (Fig 10),
//! * [`kernel`] — the query kernel (§7): key-path descent plus "children
//!   visible at `v`", with `retrieve` / `as_of` / `history` / `range` /
//!   `history_values` / `diff` written once over a [`kernel::Nav`] — the
//!   last two answered from the stored change points,
//! * [`retrieve`] — single-scan version retrieval (§7.1) streamed to any
//!   `io::Write` sink,
//! * [`store`] — the [`StoreReader`] / [`VersionStore`] trait pair: the
//!   shared-read query surface (all `&self`) and the mutators on top,
//!   implemented by [`Archive`] and by the facade's `xarch::Store`,
//! * [`observed`] — [`QueryMetrics`], the `query.*` / `ingest.*`
//!   latency histograms and counters the store records into,
//! * [`history`] — key-query steps and frontier value histories (§7.2),
//! * [`query`] — the temporal query model: `as_of` / `history_values` /
//!   `range` / `diff` result types and the document-side navigation the
//!   whole-retrieve fallbacks share,
//! * [`changes`] — key-aware (semantically meaningful) change descriptions,
//! * [`xmlrep`] — the `<T t="...">` XML representation (Fig 5) and its
//!   inverse, making the archive "yet another XML document",
//! * [`chunk`] — hash-partitioned chunked archiving, §5's memory
//!   workaround, kept as the ablation experiment (not a store),
//! * [`cow`] — the chunked copy-on-write arena under the archive (and the
//!   §7 index tables) that makes publishing a snapshot cost O(changed),
//! * [`equiv`] — key-aware document equivalence used to state correctness,
//! * [`wire`] — the shared varint/string wire primitives (one byte-level
//!   grammar for event streams, checkpoint states, and durable block
//!   payloads — see `docs/FORMAT.md`),
//! * [`state`] — the archive's checkpoint codec
//!   ([`state::encode_archive`] / [`state::decode_archive`]), which the
//!   journal uses to make reopen time flat in history length.

#![warn(missing_docs)]

pub mod archive;
pub mod changes;
pub mod chunk;
pub mod cow;
pub mod equiv;
pub mod history;
pub mod kernel;
pub mod merge;
pub mod observed;
pub mod query;
pub mod retrieve;
pub mod state;
pub mod store;
pub mod timeset;
pub mod weave;
pub mod wire;
pub mod xmlrep;

pub use archive::{
    AKind, ANode, ANodeId, Archive, ArchiveStats, Compaction, MergeError, MergeTally,
};
pub use changes::{describe_changes, Change, ChangeKind};
pub use chunk::ChunkedArchive;
pub use cow::CowVec;
pub use equiv::equiv_modulo_key_order;
pub use history::{cmp_labels, KeyQuery, Label};
pub use observed::QueryMetrics;
pub use query::{ElementHistory, RangeEntry, VersionDelta};
pub use store::{StoreError, StoreReader, StoreStats, VersionStore};
pub use timeset::TimeSet;
/// The key-value types a [`KeyQuery`] step holds, shared with the archive.
pub use xarch_keys::{KeyPart, KeyValue, PathName};
