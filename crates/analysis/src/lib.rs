//! # xarch_analysis — workspace invariant analyzer
//!
//! A self-contained static-analysis pass over this workspace's own Rust
//! sources, enforcing the architectural invariants the type system cannot:
//!
//! * **panic-freedom** — decode/recovery modules
//!   (`crates/storage/src/{block,payload,superblock,durable}.rs`,
//!   `crates/extmem/src/events.rs`) must never panic on untrusted bytes:
//!   no `unwrap`/`expect`/`panic!`-family macros/slice-indexing outside
//!   `#[cfg(test)]`.
//! * **lock-discipline** — no `RwLock`/`Mutex` guard binding may live
//!   across an fsync (`sync_all`/`sync_data`/`fsync`), a `.snapshot()`
//!   construction, or a `publish(..)` call (the snapshot-publication
//!   point must swap the readers' view in with no other lock held).
//! * **cast-safety** — no truncating `as` casts on offset/length
//!   arithmetic in `crates/storage`; use `try_into`/checked conversions.
//! * **unsafe-audit** — every `unsafe` carries a `// SAFETY:` comment; a
//!   full inventory is generated in `report` mode.
//! * **recursion** — no function on a decode path, in the XML parser or
//!   in the checkpoint state decoder calls itself, unless an
//!   `xarch-allow: recursion -- bounded by <const>` names what bounds its
//!   depth: a stack overflow aborts the process.
//!
//! The pipeline: a hand-rolled [`lexer`] (strings, raw strings, char
//! literals, nested block comments, attributes) feeds token-sequence rules
//! in [`rules`], orchestrated by the [`engine`] with per-rule path scopes
//! from [`config`] and `// xarch-allow: <rule> -- <reason>` suppression
//! comments (counted, reported, and flagged when unused or malformed).
//!
//! Run it:
//!
//! ```text
//! cargo run -p xarch_analysis -- check    # rustc-style diagnostics, exit 1 on violations
//! cargo run -p xarch_analysis -- report   # per-crate table, suppression ledger, unsafe inventory
//! ```

pub mod config;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use config::{Config, PathFilter, Rule};
pub use engine::{
    analyze_sources, analyze_workspace, crate_of, find_workspace_root, workspace_files, Analysis,
    Diagnostic, SourceFile, SuppressionRecord, UnsafeRecord,
};
pub use report::{render_check, render_report};
