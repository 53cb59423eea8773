//! The archiver's query and ingest contract.
//!
//! The paper contributes a single archiving model — key-based nested merge
//! with interval-set timestamps — and then describes three ways of running
//! it: wholly in memory (§4.2), hash-partitioned into chunks when the data
//! outgrows memory (§5), and as a streaming external-memory pipeline
//! (§6.3). Only the first serves: the chunked archive ([`crate::chunk`])
//! is kept as §5's ablation and the external-memory pipeline
//! (`xarch_extmem`) as the §6 reproduction of its I/O counts.
//!
//! The contract is split along the read/write axis. [`StoreReader`] holds
//! every query method with a `&self` receiver: versions are immutable once
//! merged (a later merge only decides membership of *its own* version
//! number in each timestamp, never of earlier ones), so reads never need
//! to exclude each other and per-pass costs are counted with atomics
//! instead of `&mut self`. [`VersionStore`] adds the mutators on top and
//! requires `Send + Sync`. The one store the `xarch::ArchiveBuilder`
//! facade builds (`xarch::Store`: the archive, its optional §7 indexes,
//! journal and metrics) implements both; so do [`Archive`] on its own,
//! the reference the tests compare against, and `xarch_storage`'s
//! `ColdArchive` (reads only), so one test body runs hot and cold.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::ops::RangeInclusive;

use xarch_keys::KeySpec;
use xarch_xml::Document;

use crate::archive::{Archive, ArchiveStats, MergeError};
use crate::history::KeyQuery;
use crate::kernel;
use crate::query::{self, ElementHistory, RangeEntry, VersionDelta};
use crate::timeset::TimeSet;

/// Unified error type across storage backends.
///
/// In-memory merges fail with [`MergeError`]; durable and cold stores
/// fail while decoding their serialized representations (surfaced as
/// [`StoreError::Corrupt`] with the byte offset of the bad data —
/// `xarch_extmem` provides `From<StreamError> for StoreError` for the
/// event codec the journal payloads share);
/// other backend failures (configuration, key-spec mismatch) are
/// [`StoreError::Backend`]; streaming retrieval and durable journaling can
/// fail in the operating system ([`StoreError::Io`]).
#[derive(Debug)]
pub enum StoreError {
    /// The incoming version could not be merged (key violation etc.).
    Merge(MergeError),
    /// The storage backend failed (bad configuration, key-spec mismatch).
    Backend(String),
    /// Stored data failed to decode: a checksum mismatch, a truncated or
    /// malformed event stream, an impossible block header. `offset` is the
    /// byte position of the bad data within the backend's serialized form
    /// (0 when the failure is not position-specific).
    Corrupt {
        /// Byte offset of the corruption within the stream or file.
        offset: u64,
        /// What failed to decode.
        reason: String,
    },
    /// The caller's output sink or the backing file failed.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Merge(e) => write!(f, "merge error: {e}"),
            StoreError::Backend(m) => write!(f, "backend error: {m}"),
            StoreError::Corrupt { offset, reason } => {
                write!(f, "corrupt archive data at byte {offset}: {reason}")
            }
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Merge(e) => Some(e),
            StoreError::Backend(_) | StoreError::Corrupt { .. } => None,
            StoreError::Io(e) => Some(e),
        }
    }
}

impl From<MergeError> for StoreError {
    fn from(e: MergeError) -> Self {
        StoreError::Merge(e)
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Backend-independent aggregate statistics.
///
/// The node counts describe *storage* (synthetic roots and stamps
/// included), not the logical document tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of archived versions (= `latest()`).
    pub versions: u32,
    /// Element nodes stored, including synthetic roots.
    pub elements: usize,
    /// Text nodes stored.
    pub texts: usize,
    /// `<T>` stamp alternatives beneath frontier nodes.
    pub stamps: usize,
    /// Serialized size of the archive in bytes (pretty XML).
    pub size_bytes: usize,
}

impl StoreStats {
    /// Folds an in-memory [`ArchiveStats`] into the unified shape.
    pub fn from_archive(s: ArchiveStats, versions: u32, size_bytes: usize) -> Self {
        Self {
            versions,
            elements: s.elements,
            texts: s.texts,
            stamps: s.stamps,
            size_bytes,
        }
    }
}

/// The read half of the archiver contract: every query method, all on
/// `&self`.
///
/// The paper's archive is append-only — merging version `i` decides only
/// whether `i` belongs to each element's timestamp, never the membership
/// of versions `< i` — so every answer below is a pure function of the
/// stored state and reads need no mutual exclusion. Backends that account
/// per-pass costs (the index structures' probe counters) do so with
/// atomics.
///
/// The trait is object-safe; `&dyn StoreReader` is the surface a
/// snapshot or read-only service endpoint exposes.
pub trait StoreReader {
    /// The governing key specification.
    fn spec(&self) -> &KeySpec;

    /// Number of archived versions.
    fn latest(&self) -> u32;

    /// True if version `v` has been archived — it may still be an *empty*
    /// version, for which [`StoreReader::retrieve`] returns `None`.
    fn has_version(&self, v: u32) -> bool {
        v >= 1 && v <= self.latest()
    }

    /// Reconstructs version `v`. Returns `None` when `v` was never
    /// archived *or* the database was empty at `v` (use
    /// [`StoreReader::has_version`] to distinguish).
    fn retrieve(&self, v: u32) -> Result<Option<Document>, StoreError>;

    /// Streaming retrieval: serializes the nodes visible at version `v`
    /// directly into `out` as compact XML, without materializing a
    /// [`Document`]. Returns `true` iff a document was written — the same
    /// `None`-for-empty contract as [`StoreReader::retrieve`].
    fn retrieve_into(&self, v: u32, out: &mut dyn Write) -> Result<bool, StoreError>;

    /// The temporal history of the element addressed by `steps` (§7.2):
    /// the set of versions in which it exists, or `None` if no such
    /// element was ever archived.
    fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError>;

    /// Aggregate statistics of the stored archive.
    fn stats(&self) -> Result<StoreStats, StoreError>;

    // ---- temporal queries (§7) ------------------------------------------
    //
    // Every method below has a whole-document fallback, so a reader is
    // complete once the six methods above work (`ColdArchive` rides
    // these). The fast paths are overrides whose cost is proportional to
    // the answer, not the archive: the archive and the store call the
    // query kernel (`crate::kernel`, scanned or §7-indexed).

    /// Partial retrieval: the subtree addressed by `steps` as it existed
    /// at version `v`, or `None` when the element (or the version) does
    /// not exist. An empty path addresses the whole document —
    /// `as_of(&[], v)` is `retrieve(v)`.
    fn as_of(&self, steps: &[KeyQuery], v: u32) -> Result<Option<Document>, StoreError> {
        let Some(doc) = self.retrieve(v)? else {
            return Ok(None);
        };
        if steps.is_empty() {
            return Ok(Some(doc));
        }
        Ok(
            query::find_in_doc(&doc, self.spec(), steps)
                .and_then(|id| query::subtree_doc(&doc, id)),
        )
    }

    /// The full temporal account of one element: the versions it exists
    /// in (§7.2's history) plus each distinct content it held and when.
    /// The definition is per version — the element as of each, equal
    /// contents folded — and that is what this default computes; the
    /// arena backends answer it from the stored change points instead.
    fn history_values(&self, steps: &[KeyQuery]) -> Result<Option<ElementHistory>, StoreError> {
        history_values_by_version(self, steps)
    }

    /// Range scan: every keyed element that lived directly under the node
    /// addressed by `prefix` at any version in `versions`, with its
    /// lifetime clamped to that window. An empty prefix addresses the
    /// synthetic root, so its single possible hit is the document root.
    /// Results are in label order (`≤lab`), identical across backends.
    fn range(
        &self,
        prefix: &[KeyQuery],
        versions: RangeInclusive<u32>,
    ) -> Result<Vec<RangeEntry>, StoreError> {
        let lo = (*versions.start()).max(1);
        let hi = (*versions.end()).min(self.latest());
        let mut acc: BTreeMap<KeyQuery, TimeSet> = BTreeMap::new();
        for v in lo..=hi {
            let Some(doc) = self.retrieve(v)? else {
                continue;
            };
            for step in query::keyed_children_in_doc(&doc, self.spec(), prefix) {
                acc.entry(step).or_default().insert(v);
            }
        }
        Ok(acc
            .into_iter()
            .map(|(step, time)| RangeEntry { step, time })
            .collect())
    }

    /// What changed in the element addressed by `steps` between versions
    /// `v1` and `v2`, as a Myers line diff over the pretty-printed
    /// subtrees (`crates/diff`).
    fn diff(&self, steps: &[KeyQuery], v1: u32, v2: u32) -> Result<VersionDelta, StoreError> {
        diff_of_as_ofs(self, steps, v1, v2)
    }
}

/// [`StoreReader::history_values`] by its per-version definition: the
/// element as of every version it exists in, equal contents folded. The
/// trait default, the only thing a backend without a stored tree can do,
/// and the oracle the kernel's interval sweep is tested against.
fn history_values_by_version<R: StoreReader + ?Sized>(
    reader: &R,
    steps: &[KeyQuery],
) -> Result<Option<ElementHistory>, StoreError> {
    let Some(existence) = reader.history(steps)? else {
        return Ok(None);
    };
    let mut values = Vec::new();
    for v in existence.versions() {
        let Some(sub) = reader.as_of(steps, v)? else {
            continue;
        };
        let content = xarch_xml::writer::to_compact_string(&sub);
        query::record_value(&mut values, (v, v), &content);
    }
    Ok(Some(ElementHistory { existence, values }))
}

/// [`StoreReader::diff`] by its definition: [`query::delta`] of the two
/// [`StoreReader::as_of`]s.
fn diff_of_as_ofs<R: StoreReader + ?Sized>(
    reader: &R,
    steps: &[KeyQuery],
    v1: u32,
    v2: u32,
) -> Result<VersionDelta, StoreError> {
    let a = reader.as_of(steps, v1)?;
    let b = reader.as_of(steps, v2)?;
    Ok(query::delta(a.as_ref(), b.as_ref(), v1, v2))
}

/// The full archiver contract: the [`StoreReader`] query surface plus the
/// mutators. [`Archive`] implements it in memory, running the query kernel
/// over [`kernel::Scan`]; `xarch::Store` adds the §7 indexes, the journal
/// and the metrics around one archive.
///
/// `Send + Sync` is part of the contract: a store is single-writer by
/// `&mut` discipline, but its reads are `&self` and safe to share across
/// threads (per-pass accounting uses atomics, never `Cell`).
pub trait VersionStore: StoreReader + Send + Sync {
    /// Merges `doc` as the next version; returns its version number.
    fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError>;

    /// Archives an *empty* database as the next version (§2's footnote:
    /// the synthetic root keeps ticking while every element terminates).
    fn add_empty_version(&mut self) -> Result<u32, StoreError>;

    /// Bulk ingest: merges `docs` as consecutive versions and returns the
    /// version numbers assigned, in order. `add_versions(&[])` is a no-op
    /// that returns `Ok(vec![])` on every store — no version number is
    /// burned and a journal writes nothing.
    ///
    /// The observable result is identical to calling
    /// [`VersionStore::add_version`] once per document (the differential
    /// suite in `tests/batch_equivalence.rs` holds every configuration to
    /// that), but the archive pre-combines the batch and walks its own
    /// child lists once instead of once per version, and a journal writes
    /// the batch as one group-committed block with a single fsync (a torn
    /// batch recovers to the pre-batch state — never a prefix).
    ///
    /// The archive validates the whole batch *before* mutating any state,
    /// so a rejected batch leaves the store untouched; only this default
    /// loop can stop part-way (at the first rejected document).
    fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, StoreError> {
        let mut assigned = Vec::with_capacity(docs.len());
        for doc in docs {
            assigned.push(self.add_version(doc)?);
        }
        Ok(assigned)
    }
}

impl StoreReader for Archive {
    fn spec(&self) -> &KeySpec {
        Archive::spec(self)
    }

    fn latest(&self) -> u32 {
        Archive::latest(self)
    }

    fn retrieve(&self, v: u32) -> Result<Option<Document>, StoreError> {
        Ok(Archive::retrieve(self, v))
    }

    fn retrieve_into(&self, v: u32, out: &mut dyn Write) -> Result<bool, StoreError> {
        Ok(Archive::retrieve_into(self, v, out)?)
    }

    fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError> {
        Ok(Archive::history(self, steps))
    }

    fn stats(&self) -> Result<StoreStats, StoreError> {
        Ok(StoreStats::from_archive(
            Archive::stats(self),
            Archive::latest(self),
            self.size_bytes(),
        ))
    }

    fn as_of(&self, steps: &[KeyQuery], v: u32) -> Result<Option<Document>, StoreError> {
        Ok(Archive::as_of(self, steps, v))
    }

    fn history_values(&self, steps: &[KeyQuery]) -> Result<Option<ElementHistory>, StoreError> {
        Ok(kernel::history_values(self, &kernel::Scan, steps))
    }

    fn range(
        &self,
        prefix: &[KeyQuery],
        versions: RangeInclusive<u32>,
    ) -> Result<Vec<RangeEntry>, StoreError> {
        Ok(Archive::range(self, prefix, versions))
    }

    fn diff(&self, steps: &[KeyQuery], v1: u32, v2: u32) -> Result<VersionDelta, StoreError> {
        Ok(kernel::diff(self, &kernel::Scan, steps, v1, v2))
    }
}

impl VersionStore for Archive {
    fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError> {
        Ok(Archive::add_version(self, doc)?)
    }

    fn add_empty_version(&mut self) -> Result<u32, StoreError> {
        Ok(Archive::add_empty_version(self))
    }

    fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, StoreError> {
        Ok(Archive::add_versions(self, docs)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe_and_uniform() {
        let spec = KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))").unwrap();
        let mut s: Box<dyn VersionStore> = Box::new(Archive::new(spec));
        let doc = xarch_xml::parse("<db><rec><id>1</id><val>x</val></rec></db>").unwrap();
        assert_eq!(s.add_version(&doc).unwrap(), 1);
        assert!(s.has_version(1));
        assert!(!s.has_version(2));
        let got = s.retrieve(1).unwrap().unwrap();
        assert!(crate::equiv_modulo_key_order(&got, &doc, s.spec()));
        let mut bytes = Vec::new();
        assert!(s.retrieve_into(1, &mut bytes).unwrap());
        let reparsed = xarch_xml::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert!(crate::equiv_modulo_key_order(&reparsed, &doc, s.spec()));
        let stats = s.stats().unwrap();
        assert_eq!(stats.versions, 1);
        assert!(stats.elements > 0 && stats.size_bytes > 0);
        let q = [
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "1"),
        ];
        assert_eq!(s.history(&q).unwrap().unwrap().to_string(), "1");
    }

    #[test]
    fn backends_and_errors_are_shareable_across_threads() {
        // VersionStore's contract includes Send + Sync: reads are `&self`
        // and must be safe to issue from many threads at once
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<Archive>();
        assert_send_sync::<StoreError>();
        assert_send_sync::<Box<dyn VersionStore>>();
        assert_send_sync::<Box<dyn StoreReader + Send + Sync>>();
    }

    #[test]
    fn reader_trait_is_object_safe() {
        let spec = KeySpec::parse("(/, (db, {}))").unwrap();
        let reader: Box<dyn StoreReader> = Box::new(Archive::new(spec));
        assert_eq!(reader.latest(), 0);
        assert!(!reader.has_version(1));
        assert!(reader.retrieve(1).unwrap().is_none());
    }

    #[test]
    fn store_error_displays_sources() {
        let e = StoreError::from(MergeError::UnkeyedRoot("x".into()));
        assert!(e.to_string().contains("merge error"));
        let e = StoreError::Backend("truncated".into());
        assert!(e.to_string().contains("backend error"));
        let e = StoreError::Corrupt {
            offset: 42,
            reason: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("byte 42"));
        assert!(e.to_string().contains("checksum mismatch"));
        assert!(std::error::Error::source(&e).is_none());
        let e = StoreError::from(io::Error::other("sink"));
        assert!(e.to_string().contains("i/o error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
