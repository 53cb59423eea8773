//! # xarch-diff
//!
//! The diff-based machinery of *Archiving Scientific Data*: the competitors
//! the paper benchmarks against (§5) and the fallback the archiver itself
//! uses beneath frontier nodes.
//!
//! * [`myers`] — Myers' O(ND) minimal line diff (the algorithm behind
//!   `unix diff -d`), in the linear-space divide-and-conquer formulation;
//! * [`script`] — edit scripts: application, inversion, and the byte-sized
//!   "normal format" serialization used for the paper's size series;
//! * [`repo`] — the **incremental** (V1 + successive deltas) and
//!   **cumulative** (V1 + deltas-from-V1) repositories of §5;
//! * [`sccs`] — an SCCS-style weave (Rochkind '75), the closest ancestor of
//!   the paper's merging approach (§8).
#![deny(clippy::print_stderr)]

pub mod myers;
pub mod repo;
pub mod sccs;
pub mod script;

pub use myers::{diff_lines, diff_texts, split_lines};
pub use repo::{CumulativeRepo, IncrementalRepo};
pub use sccs::Weave;
pub use script::{Edit, Script};
