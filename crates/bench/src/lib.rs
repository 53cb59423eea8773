//! # xarch-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (§5, §6, §7, Appendix C). The custom-harness bench
//! target `paper_figures` (run by `cargo bench`) prints each figure's data
//! series as CSV.
//!
//! The repository's measured benchmark — end-to-end metrics with regression
//! bounds, per-layer traces — is the `xarch-bench` binary; see
//! `crates/bench/src/bin/xarch-bench/README.md`.

pub mod figures;
pub mod series;

pub use series::{size_series, SizeRow};
