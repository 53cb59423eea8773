//! # xarch-extmem
//!
//! The external-memory archiver of §6 of *Archiving Scientific Data* —
//! the §6 reproduction, not a serving backend. The in-memory Nested Merge
//! cannot hold a 436 MB Swiss-Prot release on a 256 MB machine; §6
//! replaces it with a three-step pipeline over *serialized event
//! streams*:
//!
//! 1. **Annotate** — documents become token streams with key values
//!    attached to keyed nodes (§6.1's internal representation with a tag
//!    dictionary and key files; our [`events`] module fuses these into one
//!    self-describing stream);
//! 2. **Sort** — sibling groups are sorted by key value using bounded
//!    memory: in-memory runs of at most `M` bytes, then `(M/B − 1)`-way
//!    merge passes ([`sort`]);
//! 3. **Merge** — a single synchronized pass over the sorted archive and
//!    sorted version emits the new archive (§6.3, [`archiver`]).
//!
//! The "disk" is simulated by [`io::PagedWriter`]/[`io::PagedReader`],
//! which charge one I/O per `B`-byte page touched, so the I/O complexity
//! claims of §6 are measurable quantities (`O(N/B · log_{M/B} N/B)` for the
//! sort, `O(N/B)` for the merge pass): [`ExtArchive::io_stats`] is what the
//! `extmem` figure reports as M and B vary. Differential tests verify the
//! external archiver produces version-for-version the same database as the
//! in-memory [`xarch_core::Archive`], and pin its I/O counts exactly.
//!
//! The archiver is not a [`xarch_core::VersionStore`]: it archives,
//! retrieves and counts pages, nothing more. Its event codec is also the
//! journal's version-payload grammar (`xarch_storage`).
#![deny(clippy::print_stderr)]

pub mod archiver;
pub mod etree;
pub mod events;
pub mod io;
pub mod sort;

pub use archiver::ExtArchive;
pub use etree::{EKind, ETree};
pub use events::{decode_small, encode_small, get_varint, put_varint, StreamError};
pub use io::{IoConfig, IoStats, SharedIoStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archiver_is_shareable_across_threads() {
        // retrieval takes `&self` and charges its page accounting
        // through `SharedIoStats` atomics
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExtArchive>();
        assert_send_sync::<SharedIoStats>();
    }
}
