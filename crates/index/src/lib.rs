//! # xarch-index
//!
//! The auxiliary index structures of §7 of *Archiving Scientific Data*,
//! and the indexed `VersionStore` built from them:
//!
//! * [`tstree`] — **timestamp trees** (Fig 15): per-node binary trees over
//!   the children's timestamps, letting version retrieval probe
//!   `O(α log(k/α))` tree nodes instead of scanning all `k` children
//!   (with the paper's 2k probe cut-off fallback);
//! * [`keyindex`] — sorted lists of child key values, answering the
//!   temporal history of an element addressed by an `l`-step key path in
//!   `O(l log d)` comparisons (binary search per level);
//! * [`indexed`] — [`IndexedArchive`], the in-memory archiver with both
//!   structures refreshed after every commit from the nodes the merge
//!   wrote, answering `as_of` / `history` / `range` in time proportional
//!   to the answer.
//!
//! All index structures are `Send + Sync` — probe counters are atomics —
//! so one built index can serve concurrent readers. Neither rebuilds per
//! version, as the paper suggests: both re-derive only what the merge
//! wrote (`refresh` over `Archive::touched`).

pub mod indexed;
pub mod keyindex;
pub mod tstree;

pub use indexed::IndexedArchive;
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
        assert_send_sync::<IndexedArchive>();
    }
}
