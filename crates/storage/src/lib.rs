//! # xarch-storage
//!
//! Durable on-disk archive storage: an append-only, segmented,
//! self-describing file format plus [`Journal`], the crash-safe journal
//! of an in-memory archive built on it.
//!
//! The paper's archiver "reads the archive from disk, merges the incoming
//! version, and writes it back"; an in-memory archive alone loses it on
//! exit. This crate closes
//! that gap the way production cold-storage archives do (Gray et al.,
//! *Online Scientific Data Curation, Publication, and Archiving*): a
//! durable, integrity-checked, self-describing format in which every
//! acknowledged commit survives a crash.
//!
//! ## On-disk layout
//!
//! A segment file is a superblock followed by one block per committed
//! version (or version batch), with checkpoint blocks interleaved at the
//! configured cadence:
//!
//! ```text
//! ┌────────────────────────── superblock ──────────────────────────┐
//! │ magic "XARCHSG1" │ format u32 │ spec_len u32 │ key spec │ crc32 │
//! └────────────────────────────────────────────────────────────────┘
//! ┌──────────────────────── block (version 1) ─────────────────────┐
//! │ kind u8 │ codec u8 │ version u32 │ raw_len u64 │ stored_len u64│  header
//! │ payload: version document as an extmem event stream            │  (codec-encoded)
//! │ crc32 over header+payload │ commit word "CMT!"                 │  trailer
//! └────────────────────────────────────────────────────────────────┘
//! ┌──────────────────────── block (version 2) ─────────────────────┐ …
//! ┌────────────────── checkpoint block (covers 1..=n) ─────────────┐
//! │ same header/trailer grammar; payload = snapshot of the         │
//! │ archive's state, back-chained to the previous one              │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every field, block kind, and recovery rule is specified byte-for-byte
//! in `docs/FORMAT.md` at the repository root; a golden test
//! (`tests/docs.rs`) pins the spec's constants to this crate's source.
//! The current format revision is
//! [`superblock::FORMAT_VERSION`] (rev 2 introduced checkpoint blocks;
//! rev-1 files open unchanged).
//!
//! Three properties fall out of this framing:
//!
//! * **self-describing** — the superblock pins the format generation and
//!   the governing key spec, so opening with a mismatched spec fails
//!   up front instead of merging wrongly;
//! * **integrity-checked** — every block carries a CRC-32 over header and
//!   payload; bit rot surfaces as
//!   [`StoreError::Corrupt`](xarch_core::StoreError::Corrupt) with the
//!   failing byte offset;
//! * **crash-safe** — the commit word is the last thing written, so a
//!   torn final append is recognized on reopen and truncated away,
//!   recovering every fully committed version ([`RecoveryStats`] reports
//!   what happened).
//!
//! The payload reuses `xarch_extmem`'s event-stream encoding, optionally
//! LZSS-compressed per block via `xarch_compress` (incompressible blocks
//! fall back to raw — the codec byte records what was stored).
//!
//! ## Replay, not state dump
//!
//! Blocks journal the *input* documents, not the merged archive. Reopen
//! replays them through the same deterministic Nested Merge, rebuilding
//! exactly the pre-crash archive — the differential tests assert the
//! reopened store is version-for-version byte-identical to one that never
//! left memory.
//!
//! Checkpoint blocks cap what that costs: with
//! [`DurableOptions::checkpoint_every`] set (or the builder's
//! `.checkpoint_every(n)`), reopen restores the newest intact snapshot
//! and replays only the tail journal behind it, so startup stays flat as
//! history grows. Checkpoints are *pure redundancy* — a damaged one is
//! skipped loudly and recovery falls back to an older one or to a full
//! replay, never to an error the journal itself doesn't have.
//!
//! ## The cold-read path
//!
//! [`ColdArchive`] answers queries straight off the mmap'd segment file:
//! open walks only the block headers to build a per-block version index,
//! and each query decodes just the blocks its answer needs — the archive
//! is never materialized in RAM. See [`cold`] for the integrity policy
//! and [`mmap`] for the mapping itself.
//!
//! ## Enforced invariants
//!
//! The decode/recovery modules in this crate are under the workspace's
//! `panic-freedom` and `cast-safety` invariants (enforced in CI by
//! `cargo run -p xarch_analysis -- check` and backed by the clippy denies
//! below): corrupt bytes must surface as positioned
//! [`StoreError::Corrupt`](xarch_core::StoreError::Corrupt) values — never
//! a panic, never a silently truncating `as` cast.
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod block;
pub(crate) mod bytes;
pub mod checkpoint;
pub mod cold;
pub mod crc;
pub mod durable;
pub mod metrics;
pub mod mmap;
pub mod payload;
pub mod segment;
pub mod superblock;

pub use block::{BlockHeader, BlockKind, ScannedBlock};
pub use checkpoint::{decode_checkpoint, encode_checkpoint, CheckpointPayload};
pub use cold::ColdArchive;
pub use crc::{crc32, Crc32};
pub use durable::{DurableOptions, Journal};
pub use metrics::{ColdMetrics, StorageMetrics};
pub use mmap::MappedFile;
pub use segment::{scan_checkpoints, CheckpointRef, RecoveryStats, ResumeFrom, Segment};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch path under the system temp directory — for examples,
/// benches, and tests that need a throwaway segment file. Unique per
/// process and call; stale files from earlier runs are truncated by
/// [`Segment::create`].
pub fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xarch-{tag}-{}-{n}.seg", std::process::id()))
}
