//! # xarch-bench
//!
//! The paper's evaluation (§5, §6, §7, Appendix C) as exact integers:
//! [`figures`] renders each section of `docs/RESULTS.md`, and
//! `tests/results.rs` compares every section with the committed file byte
//! for byte and asserts the paper's claims on the same rows.
//!
//! The repository's measured benchmark — end-to-end metrics with regression
//! bounds, per-layer traces — is the `xarch-bench` binary; see
//! `crates/bench/src/bin/xarch-bench/README.md`.
#![deny(clippy::print_stderr)]

pub mod figures;
pub mod series;

pub use series::{size_series, SizeRow};
