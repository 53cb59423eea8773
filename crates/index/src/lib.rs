//! # xarch-index
//!
//! The auxiliary index structures of §7 of *Archiving Scientific Data*,
//! and the query-kernel navigator built from them:
//!
//! * [`tstree`] — **timestamp trees** (Fig 15): per-node binary trees over
//!   the children's timestamps, letting version retrieval probe
//!   `O(α log(k/α))` tree nodes instead of scanning all `k` children
//!   (with the paper's 2k probe cut-off fallback) — kept only for a node
//!   with a child that has a timestamp of its own, since children that
//!   all inherit are visible wherever their parent is;
//! * [`keyindex`] — sorted lists of child key values, answering the
//!   temporal history of an element addressed by an `l`-step key path in
//!   `O(l log d)` comparisons (binary search per level);
//! * [`indexed`] — [`Indexes`], both structures refreshed after every
//!   commit from the nodes the merge wrote: the `xarch_core::kernel::Nav`
//!   that answers `as_of` / `history` / `range` in time proportional to
//!   the answer (`xarch::Store` keeps one beside its archive under
//!   `.with_index()`).
//!
//! All index structures are `Send + Sync` — probe counters are atomics —
//! so one built index can serve concurrent readers. Neither rebuilds per
//! version, as the paper suggests: both re-derive only what the merge
//! wrote (`refresh` over `Archive::touched`).
#![deny(clippy::print_stderr)]

pub mod indexed;
pub mod keyindex;
pub mod tstree;

pub use indexed::Indexes;
pub use keyindex::HistoryIndex;
pub use tstree::TimestampIndex;

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn indexes_are_shareable_across_threads() {
        // the §7 structures are read-only after a build/apply; atomics
        // (not Cell) back their probe counters, so sharing one index among
        // reader threads is safe by construction
        assert_send_sync::<HistoryIndex>();
        assert_send_sync::<TimestampIndex>();
        assert_send_sync::<Indexes>();
    }
}
