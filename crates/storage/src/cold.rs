//! [`ColdArchive`]: read-only queries straight off the memory-mapped
//! segment file.
//!
//! A [`Journal`](crate::Journal) reopen materializes the whole archive
//! in memory before it can answer anything — the right
//! trade for a writer, but wasteful for a one-off query against a large,
//! cold segment. `ColdArchive` takes the other corner of the design
//! space: it memory-maps the file, builds a tiny *per-block version
//! index* from a header-only walk (22 bytes per block; payloads are never
//! touched), and then serves [`StoreReader`] queries by decoding exactly
//! the blocks they need. A point `retrieve`/`as_of` checksums and decodes
//! one block; the rest of the file stays untouched OS page cache at most.
//!
//! What a query then does with the decoded payload is as little as its
//! answer needs, all of it through the one payload walk
//! ([`crate::payload`]): `retrieve_into` writes the XML straight from the
//! entry bytes, and `as_of`/`history` descend the entries by their key
//! steps — over siblings by their body lengths — building of each
//! candidate only what its key reads, keyed by the evaluator `annotate`
//! runs entered at the candidate's label path
//! ([`xarch_keys::annotate_under`]), and whole only the element found.
//! `history_values`, `range` and `diff` are the trait's per-version
//! definitions over these.
//!
//! Cold readers hold a *shared* OS lock, so any number may coexist — but
//! a live writer (which holds the exclusive lock) blocks cold opens and
//! vice versa, keeping the map stable for its whole lifetime.
//!
//! Integrity policy matches the format's split (see `docs/FORMAT.md`
//! §Recovery): a torn tail at open is quietly ignored (those bytes were
//! never acknowledged), while any damage to a committed block — at open
//! where the header walk trips over it, or at query time when the block's
//! CRC fails — surfaces as a positioned
//! [`StoreError::Corrupt`]. A cold
//! reader never truncates or repairs: it has no write permission on the
//! segment at all.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use xarch_core::{query, KeyQuery, StoreError, StoreReader, StoreStats, TimeSet};
use xarch_extmem::StreamError;
use xarch_keys::{annotate_under, Key, KeySpec};
use xarch_obs::{Level, Obs};
use xarch_xml::{Document, Path as LabelPath};

use crate::block::{self, BlockKind, Scan, BLOCK_HEADER_LEN, BLOCK_TRAILER_LEN, MAX_PAYLOAD};
use crate::metrics::ColdMetrics;
use crate::mmap::MappedFile;
use crate::payload::{
    bytes_to_doc, bytes_to_xml, doc_beneath, entry_err, positioned, walk, BatchEntries, DocBuilder,
    Sink, Visit,
};
use crate::superblock;

/// One committed data block in the version index: which versions it
/// holds and where it sits in the file. Checkpoint blocks are not
/// indexed — they duplicate journal state the cold reader re-derives
/// per query anyway.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// File offset of the block header.
    offset: u64,
    kind: BlockKind,
    /// First version the block commits.
    first_version: u32,
    /// Versions the block commits (1 except for batch blocks).
    count: u32,
}

/// A read-only archive view served directly off the mmap'd segment file.
///
/// Built by [`ColdArchive::open`]; answers every [`StoreReader`] query
/// while decoding only the blocks each query touches, and of a decoded
/// block building only what the answer holds.
///
/// ```no_run
/// use xarch_core::StoreReader;
/// use xarch_storage::ColdArchive;
/// let cold = ColdArchive::open("archive.seg")?;
/// let doc = cold.retrieve(cold.latest())?;
/// # Ok::<(), xarch_core::StoreError>(())
/// ```
#[derive(Debug)]
pub struct ColdArchive {
    /// Holds the shared OS lock (and the mapping's backing fd) open for
    /// the reader's whole lifetime.
    _file: File,
    map: MappedFile,
    spec: KeySpec,
    index: Vec<IndexEntry>,
    latest: u32,
    metrics: ColdMetrics,
}

fn corrupt(offset: u64, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        offset,
        reason: reason.into(),
    }
}

impl ColdArchive {
    /// Opens the segment at `path` read-only under a shared OS lock,
    /// maps it, and indexes its blocks (headers only — no payload is
    /// read). Fails if a writer currently holds the segment, if the
    /// superblock does not verify, or if the header walk trips over
    /// interior corruption; a torn tail is quietly excluded.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_impl(path.as_ref(), ColdMetrics::detached())
    }

    /// [`ColdArchive::open`] reporting through `obs`: query work lands in
    /// the registry under the canonical `cold.*` names.
    pub fn open_observed(path: impl AsRef<Path>, obs: &Obs) -> Result<Self, StoreError> {
        Self::open_impl(path.as_ref(), ColdMetrics::registered(obs))
    }

    fn open_impl(path: &Path, metrics: ColdMetrics) -> Result<Self, StoreError> {
        use std::fs::TryLockError;
        let file = File::open(path)?;
        match file.try_lock_shared() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                return Err(StoreError::Backend(format!(
                    "segment {} is open for writing (cold readers wait for the writer to close)",
                    path.display()
                )));
            }
            Err(TryLockError::Error(e)) => return Err(StoreError::Io(e)),
        }
        let map = MappedFile::map(&file)?;
        let bytes = map.as_slice();
        let (spec, first_block) = superblock::decode(bytes)?;
        let (index, latest, decoded) = build_index(bytes, first_block)?;
        metrics.mapped_bytes.set_u64(bytes.len() as u64);
        if let Some(span) = decoded {
            metrics.blocks_decoded.inc();
            metrics.bytes_decoded.add(span);
        }
        metrics.event(
            Level::Info,
            "cold.open",
            &[
                ("path", path.display().to_string()),
                ("mapped_bytes", bytes.len().to_string()),
                ("blocks", index.len().to_string()),
                ("versions", latest.to_string()),
            ],
        );
        Ok(Self {
            _file: file,
            map,
            spec,
            index,
            latest,
            metrics,
        })
    }

    /// Bytes of segment file the reader has mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// True when the bytes are served by a real memory map rather than
    /// the buffered fallback.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Stored block bytes checksummed and decoded so far on behalf of
    /// queries (this handle's `cold.bytes_decoded` counter). A point
    /// query moves this by one block span, not by the file size.
    pub fn bytes_decoded(&self) -> u64 {
        self.metrics.bytes_decoded.get()
    }

    /// The index entry holding version `v`, if `v` is a committed,
    /// non-empty-or-otherwise version number.
    fn entry_for(&self, v: u32) -> Option<IndexEntry> {
        if v == 0 || v > self.latest {
            return None;
        }
        let pos = self.index.partition_point(|e| e.first_version <= v);
        let e = *self.index.get(pos.checked_sub(1)?)?;
        (v < e.first_version.saturating_add(e.count)).then_some(e)
    }

    /// Checksums and decodes the single block at `entry`, returning the
    /// *uncompressed* payload.
    fn load_block(&self, entry: IndexEntry) -> Result<Vec<u8>, StoreError> {
        let bytes = self.map.as_slice();
        let scanned = match block::scan_block(bytes, entry.offset) {
            Scan::Block(b) => b,
            Scan::Corrupt(e) => {
                self.metrics.event(
                    Level::Error,
                    "cold.corrupt_block",
                    &[
                        ("offset", entry.offset.to_string()),
                        ("reason", e.to_string()),
                    ],
                );
                return Err(e);
            }
            // the index only holds blocks whose full span was present at
            // open, and the shared lock bars truncation while we live
            Scan::TornTail => {
                return Err(corrupt(
                    entry.offset,
                    "indexed block vanished from the mapped segment",
                ));
            }
        };
        let span = block_span(scanned.header.stored_len);
        let raw = block::decode_payload(scanned)?;
        self.metrics.blocks_decoded.inc();
        self.metrics.bytes_decoded.add(span);
        Ok(raw)
    }

    /// Hands `read` the payload of version `v` — its own `doc_to_bytes`
    /// bytes, out of the one block holding it — and positions a refusal at
    /// that block. `None` when `v` was never archived or archived empty.
    fn read_version<T>(
        &self,
        v: u32,
        read: impl FnOnce(&[u8]) -> Result<T, StreamError>,
    ) -> Result<Option<T>, StoreError> {
        self.metrics.retrieves.inc();
        let Some(entry) = self.entry_for(v).filter(|e| e.kind != BlockKind::Empty) else {
            return Ok(None);
        };
        let raw = self.load_block(entry)?;
        let versions = versions_in(entry, &raw)?;
        let held = usize::try_from(v.saturating_sub(entry.first_version))
            .ok()
            .and_then(|i| versions.get(i));
        let Some(held) = held else {
            return Err(corrupt(entry.offset, "indexed version is not in its block"));
        };
        held.read(read).map(Some)
    }
}

/// One version's payload — its own `doc_to_bytes` bytes — inside a decoded
/// data block.
#[derive(Debug, Clone, Copy)]
struct VersionPayload<'r> {
    bytes: &'r [u8],
    /// Where in the block's payload it lies, if it is one of a batch.
    at: Option<usize>,
    /// File offset of the block.
    block: u64,
}

impl VersionPayload<'_> {
    /// What `read` makes of the payload, a refusal positioned at the block
    /// holding it.
    fn read<T>(&self, read: impl FnOnce(&[u8]) -> Result<T, StreamError>) -> Result<T, StoreError> {
        read(self.bytes).map_err(|e| {
            let e = match self.at {
                Some(at) => entry_err(at, e),
                None => e,
            };
            positioned(self.block, e)
        })
    }
}

/// The payloads of the versions the decoded data block `raw` holds, in
/// version order, each with its offset in `raw` if it is one of a batch —
/// whose entries are found by their length prefixes, none of them decoded.
fn versions_in(entry: IndexEntry, raw: &[u8]) -> Result<Vec<VersionPayload<'_>>, StoreError> {
    let block = entry.offset;
    match entry.kind {
        BlockKind::Version => Ok(vec![VersionPayload {
            bytes: raw,
            at: None,
            block,
        }]),
        BlockKind::Batch => {
            let entries = BatchEntries::new(raw).map_err(|e| positioned(entry.offset, e))?;
            if entries.declared() != u64::from(entry.count) {
                return Err(corrupt(
                    entry.offset,
                    format!(
                        "batch block holds {} versions, the index expected {}",
                        entries.declared(),
                        entry.count
                    ),
                ));
            }
            entries
                .map(|e| {
                    e.map(|(at, bytes)| VersionPayload {
                        bytes,
                        at: Some(at),
                        block,
                    })
                })
                .collect::<Result<_, _>>()
                .map_err(|e| positioned(block, e))
        }
        BlockKind::Empty => Ok(Vec::new()),
        BlockKind::Checkpoint => Err(corrupt(
            entry.offset,
            "checkpoint block reached the version index",
        )),
    }
}

/// The element `steps` address in the document the version payload
/// `payload` holds — what `query::find_in_doc` finds in the whole
/// document — as a document of its own, found without building the
/// document around it. One level per step: among the children of the
/// element found so far (the payload's root, for the first step) the
/// first the step names is the one followed, with no way back, as in
/// `find_in_doc`. A candidate is keyed from the part of it its key reads
/// ([`KeyProbe`]) and everything else is stepped over by its declared
/// length (the block's checksum has vouched for the payload; what is
/// stepped over is not verified again), so a point query builds a few
/// nodes per record it passes and, whole, the element it returns.
fn find_in_payload(
    payload: &[u8],
    spec: &KeySpec,
    steps: &[KeyQuery],
) -> Result<Option<Document>, StreamError> {
    // the element the steps so far lead to, and where in `payload` it lies
    let mut found: Option<(usize, &[u8])> = None;
    let mut above: Vec<&str> = Vec::new();
    for step in steps {
        // the key governing an element of the step's tag at this depth:
        // off the keyed paths, nothing has a key for the step to name
        let here = LabelPath::from_steps(above.iter().copied().chain([step.tag()]));
        let Some(key) = spec.key_for_path(&here) else {
            return Ok(None);
        };
        let (at, entry) = found.unwrap_or((0, payload));
        let mut level = FirstMatch {
            step,
            key,
            spec,
            above: &above,
            // the payload's root is the one candidate for the first step;
            // after it, the candidates are the children of the last found
            inside: found.is_none(),
            found: None,
        };
        // `above` names the elements the candidates sit in: the last is
        // the entry walked, the others enclose it (the payload: none)
        walk(entry, above.len().saturating_sub(1), &mut level).map_err(|e| within(at, e))?;
        let Some((child_at, child)) = level.found else {
            return Ok(None);
        };
        found = Some((at + child_at, child));
        above.push(step.tag());
    }
    let Some((at, entry)) = found else {
        return Ok(None);
    };
    // an element each earlier step found encloses the one returned
    doc_beneath(entry, steps.len().saturating_sub(1))
        .map(Some)
        .map_err(|e| within(at, e))
}

/// A failure in the entry at byte `at` of a version payload, as a failure
/// of the payload; the root entry, at 0, *is* the payload.
fn within(at: usize, e: StreamError) -> StreamError {
    if at == 0 {
        e
    } else {
        entry_err(at, e)
    }
}

/// One level of [`find_in_payload`], as a sink: enters the element whose
/// children are the candidates, steps over each child that is not the one
/// `step` names, and stops at the first that is.
struct FirstMatch<'a, 'b> {
    step: &'a KeyQuery,
    /// The key governing elements of the step's tag at this level.
    key: &'a Key,
    spec: &'a KeySpec,
    /// The label path the candidates sit beneath.
    above: &'a [&'a str],
    /// The element whose children are the candidates has been entered.
    inside: bool,
    found: Option<(usize, &'b [u8])>,
}

impl<'b> Sink<'b> for FirstMatch<'_, 'b> {
    fn open(&mut self, tag: &'b str, at: usize, entry: &'b [u8]) -> Result<Visit, StreamError> {
        if !std::mem::replace(&mut self.inside, true) {
            return Ok(Visit::Enter);
        }
        if tag != self.step.tag() {
            return Ok(Visit::Skip);
        }
        let mut probe = KeyProbe {
            // only the part the key reads is built
            built: DocBuilder::new(false),
            key: self.key,
            depth: 0,
        };
        walk(entry, self.above.len(), &mut probe).map_err(|e| entry_err(at, e))?;
        // (a key that cannot be read names nothing)
        let named = probe.built.finish().is_some_and(|doc| {
            annotate_under(&doc, self.spec, self.above)
                .is_ok_and(|ann| query::step_matches_doc(&doc, &ann, doc.root(), self.step))
        });
        if named {
            self.found = Some((at, entry));
            return Ok(Visit::Stop);
        }
        Ok(Visit::Skip)
    }

    fn attr(&mut self, _: &'b str, _: &'b str) {}
    fn text(&mut self, _: &'b str) {}
    fn close(&mut self, _: &'b str) {}
}

/// The sink that builds, of the one element a payload holds, the part its
/// key is read from, as a document for the key evaluator: its attributes,
/// and whole each child a key path begins with — all of it when it is
/// keyed by its own content (`.`). The other children are stepped over.
struct KeyProbe<'a> {
    built: DocBuilder,
    /// The key governing the element.
    key: &'a Key,
    /// Elements entered and not yet left.
    depth: usize,
}

impl KeyProbe<'_> {
    fn reads_all(&self) -> bool {
        self.key.key_paths.iter().any(LabelPath::is_empty)
    }
}

impl<'b> Sink<'b> for KeyProbe<'_> {
    fn open(&mut self, tag: &'b str, at: usize, entry: &'b [u8]) -> Result<Visit, StreamError> {
        let begins = |path: &LabelPath| path.steps().first().is_some_and(|s| s == tag);
        if self.depth == 1 && !self.reads_all() && !self.key.key_paths.iter().any(begins) {
            return Ok(Visit::Skip);
        }
        self.depth += 1;
        self.built.open(tag, at, entry)
    }

    fn attr(&mut self, name: &'b str, value: &'b str) {
        self.built.attr(name, value);
    }

    fn text(&mut self, text: &'b str) {
        if self.depth > 1 || self.reads_all() {
            self.built.text(text);
        }
    }

    fn close(&mut self, tag: &'b str) {
        self.depth = self.depth.saturating_sub(1);
        self.built.close(tag);
    }
}

/// Total file span of a block with the given stored payload size.
fn block_span(stored_len: u64) -> u64 {
    stored_len + (BLOCK_HEADER_LEN + BLOCK_TRAILER_LEN) as u64
}

/// Walks block headers (payloads untouched) building the version index.
/// Returns the data-block entries, the latest committed version, and —
/// when the final data block was a batch whose count had to be learned by
/// decoding it — the byte span that decode charged.
#[allow(clippy::type_complexity)]
fn build_index(
    bytes: &[u8],
    first_block: u64,
) -> Result<(Vec<IndexEntry>, u32, Option<u64>), StoreError> {
    struct RawEntry {
        offset: u64,
        kind: BlockKind,
        version: u32,
    }
    let len = bytes.len() as u64;
    let min_block = (BLOCK_HEADER_LEN + BLOCK_TRAILER_LEN) as u64;
    let mut raw: Vec<RawEntry> = Vec::new();
    let mut offset = first_block;
    // classify whatever made the walk stop: torn tails are quietly
    // excluded (those bytes were never acknowledged), anything else is
    // loud — scan_block applies the format's full torn-vs-rot rules
    let classify_stop = |offset: u64| -> Result<(), StoreError> {
        match block::scan_block(bytes, offset) {
            Scan::TornTail => Ok(()),
            Scan::Corrupt(e) => Err(e),
            Scan::Block(_) => Err(corrupt(
                offset,
                "header walk stopped at a block that verifies — internal inconsistency",
            )),
        }
    };
    while offset < len {
        if len - offset < min_block {
            classify_stop(offset)?;
            break;
        }
        let header = bytes
            .get(
                usize::try_from(offset)
                    .map_err(|_| corrupt(offset, "block offset exceeds the address space"))?..,
            )
            .and_then(|r| r.get(..BLOCK_HEADER_LEN));
        let Some(header) = header else {
            classify_stop(offset)?;
            break;
        };
        let (Some(&kind_byte), Some(version), Some(stored_len)) = (
            header.first(),
            crate::bytes::le_u32(header, 2),
            block::declared_payload_len(header),
        ) else {
            classify_stop(offset)?;
            break;
        };
        let end = offset
            .saturating_add(min_block)
            .saturating_add(stored_len.min(MAX_PAYLOAD));
        if stored_len > MAX_PAYLOAD || end > len || BlockKind::from_kind_byte(kind_byte).is_none() {
            classify_stop(offset)?;
            break;
        }
        // kind_byte just round-tripped through from_kind_byte above
        if let Some(kind) = BlockKind::from_kind_byte(kind_byte) {
            if kind != BlockKind::Checkpoint {
                raw.push(RawEntry {
                    offset,
                    kind,
                    version,
                });
            }
        }
        offset = end;
    }
    // counts: a block's span in version space reaches to the next data
    // block's first version; the final block needs its payload decoded
    // only if it is a batch
    let mut index = Vec::with_capacity(raw.len());
    let mut latest = 0u32;
    let mut decoded_span = None;
    for (i, e) in raw.iter().enumerate() {
        let expected = latest.saturating_add(1);
        if e.version != expected {
            return Err(corrupt(
                e.offset,
                format!(
                    "block sequence broken: expected version {expected}, found {}",
                    e.version
                ),
            ));
        }
        let count = match raw.get(i + 1) {
            Some(next) => next
                .version
                .checked_sub(e.version)
                .filter(|&c| c >= 1)
                .ok_or_else(|| {
                    corrupt(
                        next.offset,
                        format!(
                            "block sequence not increasing: version {} follows {}",
                            next.version, e.version
                        ),
                    )
                })?,
            None if e.kind == BlockKind::Batch => {
                // the only case needing a payload: the final batch block's
                // count is not derivable from a successor header
                let scanned = match block::scan_block(bytes, e.offset) {
                    Scan::Block(b) => b,
                    Scan::Corrupt(err) => return Err(err),
                    Scan::TornTail => {
                        return Err(corrupt(e.offset, "indexed block failed re-verification"))
                    }
                };
                decoded_span = Some(block_span(scanned.header.stored_len));
                let payload = block::decode_payload(scanned)?;
                // the count, held to the length prefixes: every entry in
                // bounds and nothing after the last
                let mut entries =
                    BatchEntries::new(&payload).map_err(|err| positioned(e.offset, err))?;
                let count = entries.declared();
                entries
                    .try_for_each(|entry| entry.map(drop))
                    .map_err(|err| positioned(e.offset, err))?;
                u32::try_from(count)
                    .ok()
                    .filter(|&c| c >= 1)
                    .ok_or_else(|| corrupt(e.offset, "batch block with zero versions"))?
            }
            None => 1,
        };
        latest = e.version.saturating_add(count.saturating_sub(1));
        index.push(IndexEntry {
            offset: e.offset,
            kind: e.kind,
            first_version: e.version,
            count,
        });
    }
    Ok((index, latest, decoded_span))
}

impl StoreReader for ColdArchive {
    fn spec(&self) -> &KeySpec {
        &self.spec
    }

    fn latest(&self) -> u32 {
        self.latest
    }

    fn retrieve(&self, v: u32) -> Result<Option<Document>, StoreError> {
        self.read_version(v, bytes_to_doc)
    }

    /// Block → decoded bytes → XML: rendered from the payload entries as
    /// they lie, with no [`Document`] between, and handed to `out` whole
    /// — not a byte of it unless the whole payload verifies.
    fn retrieve_into(&self, v: u32, out: &mut dyn Write) -> Result<bool, StoreError> {
        match self.read_version(v, bytes_to_xml)? {
            Some(xml) => {
                out.write_all(xml.as_bytes())?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// One block decoded, and of it the record built that is returned —
    /// not the release around it (`find_in_payload`).
    fn as_of(&self, steps: &[KeyQuery], v: u32) -> Result<Option<Document>, StoreError> {
        if steps.is_empty() {
            return self.retrieve(v);
        }
        let found = self.read_version(v, |payload| find_in_payload(payload, &self.spec, steps))?;
        Ok(found.flatten())
    }

    /// Streaming scan: decodes one block at a time (never the whole
    /// archive at once) and probes each version's payload for the
    /// addressed element.
    fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError> {
        let mut ts = TimeSet::new();
        for &entry in &self.index {
            if entry.kind == BlockKind::Empty {
                continue;
            }
            let raw = self.load_block(entry)?;
            for (v, payload) in (entry.first_version..).zip(versions_in(entry, &raw)?) {
                let found = payload.read(|bytes| find_in_payload(bytes, &self.spec, steps))?;
                if found.is_some() {
                    ts.insert(v);
                }
            }
        }
        Ok((!ts.is_empty()).then_some(ts))
    }

    /// Storage-level statistics: the cold reader never materializes the
    /// archive tree, so the node counts (`elements`, `texts`, `stamps`)
    /// are reported as 0; `size_bytes` is the mapped segment size.
    fn stats(&self) -> Result<StoreStats, StoreError> {
        Ok(StoreStats {
            versions: self.latest,
            elements: 0,
            texts: 0,
            stamps: 0,
            size_bytes: self.map.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{DurableOptions, Journal};
    use crate::scratch_path;
    use xarch_core::{Archive, Compaction};
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    fn open_journal(path: &std::path::Path, opts: DurableOptions) -> (Journal, Archive) {
        Journal::open(path, opts, spec(), Compaction::default(), None).unwrap()
    }

    fn doc_n(n: u32) -> Document {
        parse(&format!("<db><rec><id>1</id><val>v{n}</val></rec></db>")).unwrap()
    }

    fn write_segment(path: &std::path::Path, opts: DurableOptions, n: u32) {
        let (mut j, mut a) = open_journal(path, opts);
        for i in 1..=n {
            j.add_version(&mut a, &doc_n(i)).unwrap();
        }
    }

    #[test]
    fn cold_retrieve_matches_warm_and_decodes_one_block() {
        let path = scratch_path("cold-basic");
        write_segment(&path, DurableOptions::default(), 8);
        let cold = ColdArchive::open(&path).unwrap();
        assert_eq!(cold.latest(), 8);
        let before = cold.bytes_decoded();
        let got = StoreReader::retrieve(&cold, 5).unwrap().unwrap();
        assert!(xarch_core::equiv_modulo_key_order(
            &got,
            &doc_n(5),
            cold.spec()
        ));
        let decoded = cold.bytes_decoded() - before;
        assert!(decoded > 0);
        assert!(
            decoded < cold.mapped_bytes() / 2,
            "one point retrieve decoded {decoded} of {} mapped bytes",
            cold.mapped_bytes()
        );
        if cfg!(unix) {
            assert!(cold.is_mapped());
        }
        std::fs::remove_file(&path).unwrap();

        // twice the history: retrieving the newest of 16 versions decodes
        // its own block, under a quarter of the mapped segment
        let path = scratch_path("cold-basic-16");
        write_segment(&path, DurableOptions::default(), 16);
        let cold = ColdArchive::open(&path).unwrap();
        let got = StoreReader::retrieve(&cold, 16).unwrap().unwrap();
        assert!(xarch_core::equiv_modulo_key_order(
            &got,
            &doc_n(16),
            cold.spec()
        ));
        let (decoded, mapped) = (cold.bytes_decoded(), cold.mapped_bytes());
        assert!(decoded > 0);
        assert!(
            decoded * 4 < mapped,
            "retrieving v16 decoded {decoded} of {mapped} mapped bytes"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cold_reader_handles_batches_empties_and_checkpoints() {
        let path = scratch_path("cold-mixed");
        let opts = DurableOptions {
            compression: xarch_compress::BlockCodec::Lzss,
            checkpoint_every: Some(2),
            ..DurableOptions::default()
        };
        {
            let (mut j, mut a) = open_journal(&path, opts);
            j.add_version(&mut a, &doc_n(1)).unwrap();
            j.add_versions(&mut a, &[doc_n(2), doc_n(3), doc_n(4)])
                .unwrap();
            j.add_empty_version(&mut a).unwrap();
            j.add_version(&mut a, &doc_n(6)).unwrap();
            assert!(j.checkpoints_written() > 0, "cadence must have fired");
        }
        let cold = ColdArchive::open(&path).unwrap();
        assert_eq!(cold.latest(), 6);
        for v in [1u32, 2, 3, 4, 6] {
            let got = StoreReader::retrieve(&cold, v).unwrap().unwrap();
            assert!(
                xarch_core::equiv_modulo_key_order(&got, &doc_n(v), cold.spec()),
                "version {v} mismatched"
            );
        }
        assert!(StoreReader::retrieve(&cold, 5).unwrap().is_none());
        assert!(cold.has_version(5));
        assert!(StoreReader::retrieve(&cold, 7).unwrap().is_none());
        // history streams block-by-block
        let steps = [
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "1"),
        ];
        let ts = StoreReader::history(&cold, &steps).unwrap().unwrap();
        assert_eq!(ts.versions().collect::<Vec<_>>(), vec![1, 2, 3, 4, 6]);
        let sub = StoreReader::as_of(&cold, &steps, 3).unwrap().unwrap();
        assert!(xarch_xml::writer::to_compact_string(&sub).contains("v3"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cold_open_ignores_torn_tail_but_fails_on_interior_rot() {
        let path = scratch_path("cold-torn");
        write_segment(&path, DurableOptions::default(), 3);
        // torn tail: append a strict prefix of a real block (what a
        // crashed append leaves behind) — quietly excluded
        let committed = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write as _;
            let torn = block::encode_block(
                BlockKind::Version,
                xarch_compress::BlockCodec::Raw,
                4,
                3,
                b"abc",
            );
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&torn[..BLOCK_HEADER_LEN + 2]).unwrap();
        }
        let cold = ColdArchive::open(&path).unwrap();
        assert_eq!(cold.latest(), 3);
        drop(cold);
        // interior rot: flip a payload byte in the first block — the walk
        // still indexes it (headers only), but touching it is loud
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(usize::try_from(committed).unwrap());
        let first_block = {
            let sb = superblock::encode(&spec()).unwrap();
            sb.len()
        };
        bytes[first_block + BLOCK_HEADER_LEN + 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let cold = ColdArchive::open(&path).unwrap();
        let err = StoreReader::retrieve(&cold, 1).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // undamaged blocks stay readable
        assert!(StoreReader::retrieve(&cold, 2).unwrap().is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cold_open_is_refused_while_a_writer_is_live() {
        let path = scratch_path("cold-lock");
        let d = open_journal(&path, DurableOptions::default());
        let err = ColdArchive::open(&path).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("open for writing"), "{err}");
        drop(d);
        // two cold readers share happily
        let c1 = ColdArchive::open(&path).unwrap();
        let c2 = ColdArchive::open(&path).unwrap();
        assert_eq!(c1.latest(), c2.latest());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cold_archive_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ColdArchive>();
    }
}
