//! [`ColdArchive`]: read-only queries straight off the memory-mapped
//! segment file.
//!
//! A [`Journal`](crate::Journal) reopen materializes the whole archive
//! in memory before it can answer anything — the right
//! trade for a writer, but wasteful for a one-off query against a large,
//! cold segment. `ColdArchive` takes the other corner of the design
//! space: it memory-maps the file, builds a tiny *per-block version
//! index* from the block walk the journal recovers with — one positioned
//! read of the file per 22-byte header, so opening brings no page of the
//! map in and has none to hand back — and then serves [`StoreReader`]
//! queries by decoding exactly the blocks they need. A point
//! `retrieve`/`as_of` checksums and decodes one block; the rest of the file
//! stays untouched OS page cache at most.
//!
//! The last few LZSS blocks decoded stay in a small LRU cache keyed by
//! block offset (`CACHED_BLOCKS` blocks, at most `CACHED_BYTES`), so a
//! reader that comes back to a block — point queries cycling over a few
//! versions, or `range`/`diff`/`history_values` asking a batch block for
//! each of its versions — neither checksums nor decodes it again: a hit
//! skips both, which are most of a point query's cost. Raw blocks are not
//! cached: they are borrowed from the map, so there is no decode to save,
//! and checksumming them on every read keeps every answer to bytes checked
//! just before it. The `history` scan takes hits but keeps nothing, so a
//! scan does not flush the blocks point queries come back to.
//!
//! What a query then does with the decoded payload is as little as its
//! answer needs, all of it through the one payload walk
//! ([`crate::payload`]): `retrieve_into` writes the XML straight from the
//! entry bytes, and `as_of`/`history` descend the entries by their key
//! steps — over siblings by their body lengths — keying each candidate
//! straight off the entries its key reads, with `annotate`'s rules and the
//! canonical form's one writer ([`xarch_xml::canon::CanonWriter`]), and
//! building nothing but, whole, the element found. The steps' keys are
//! looked up once per query. `history_values`, `range` and `diff` are the
//! trait's per-version definitions over these.
//!
//! Cold readers hold a *shared* OS lock, so any number may coexist — but
//! a live writer (which holds the exclusive lock) blocks cold opens and
//! vice versa, keeping the map stable for its whole lifetime.
//!
//! Integrity policy matches the format's split (see `docs/FORMAT.md`
//! §Recovery): a torn tail at open is quietly ignored (those bytes were
//! never acknowledged), while any damage to a committed block — at open
//! where the header walk trips over it, or at query time when the block's
//! CRC fails (an empty version's too) — surfaces as a positioned
//! [`StoreError::Corrupt`]. Every answer comes from bytes whose CRC
//! verified: a raw block is checksummed on every read, an LZSS block when
//! a query first decodes it, and a cached payload is the output of a
//! decode whose block verified just before it. So a block that rots after
//! it was decoded still answers from the bytes checked then, until the
//! cache lets it go; the next read that decodes it refuses it. An answer
//! that no stored byte can change is not a read: `retrieve(v)` past
//! `latest` is `None`, `history(&[])` is every version (the synthetic root
//! exists in each), and steps that leave the spec's keyed paths address
//! nothing — each answered from the index built at open, with no block
//! checksummed. A cold reader never truncates or repairs: it has no write
//! permission on the segment at all.

use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use xarch_compress::BlockCodec;
use xarch_core::{KeyQuery, StoreError, StoreReader, StoreStats, TimeSet};
use xarch_extmem::StreamError;
use xarch_keys::{KeySpec, PathName};
use xarch_obs::{Level, Obs};
use xarch_xml::canon::{self, CanonWriter};
use xarch_xml::{Document, Path as LabelPath, MAX_BYTES};

use crate::block::{self, BlockKind, Scan, Step};
use crate::metrics::ColdMetrics;
use crate::mmap::MappedFile;
use crate::payload::{
    bytes_to_doc, bytes_to_xml, doc_beneath, entry_err, positioned, walk, walk_in, BatchEntries,
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

/// Decoded LZSS blocks the cache keeps, at most: a reader cycling over a
/// few versions hits, a uniform one misses whatever the size.
const CACHED_BLOCKS: usize = 4;

/// Decoded bytes the cache keeps, at most (about ten 360 KB OMIM
/// releases, so [`CACHED_BLOCKS`] binds first on them). A block that
/// decodes to more is served and dropped, so a segment of large batch
/// blocks never pins gigabytes.
const CACHED_BYTES: usize = 4 << 20;

/// The LZSS payloads decoded last, keyed by block offset, least recently
/// used first. The lock is held to look up, evict or insert — never while
/// a block is checksummed, decoded or walked — and what it evicts is freed
/// after it is released, or decoded into again: a miss reuses the buffer
/// of the block it evicts, so it touches no fresh pages (a new buffer per
/// miss, freed out of order, had the allocator trim and regrow its heap:
/// about 22 page faults a miss on 360 KB blocks).
#[derive(Default)]
struct BlockCache {
    entries: Mutex<Vec<(u64, Arc<Vec<u8>>)>>,
}

impl BlockCache {
    /// Whether a block that decodes to `len` bytes is one to keep.
    fn fits(len: usize) -> bool {
        len <= CACHED_BYTES
    }

    fn entries(&self) -> MutexGuard<'_, Vec<(u64, Arc<Vec<u8>>)>> {
        // the entries are whole after any panic: a push or a remove
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The payload of the block at `offset`, made the most recently used.
    fn get(&self, offset: u64) -> Option<Arc<Vec<u8>>> {
        let mut entries = self.entries();
        let at = entries.iter().position(|(o, _)| *o == offset)?;
        let hit = entries.remove(at);
        let payload = Arc::clone(&hit.1);
        entries.push(hit);
        Some(payload)
    }

    /// Evicts the least recently used block if the cache is full, and
    /// hands back its buffer unless a query still reads it.
    fn make_room(&self) -> Vec<u8> {
        let mut entries = self.entries();
        let evicted = (entries.len() >= CACHED_BLOCKS).then(|| entries.remove(0));
        drop(entries);
        evicted
            .and_then(|(_, payload)| Arc::try_unwrap(payload).ok())
            .unwrap_or_default()
    }

    /// Keeps `payload` as the block at `offset`'s, evicting the least
    /// recently used past either bound.
    fn insert(&self, offset: u64, payload: &Arc<Vec<u8>>) {
        if !Self::fits(payload.len()) {
            return;
        }
        let mut evicted = Vec::new();
        let mut entries = self.entries();
        // (a reader racing this one may have decoded the block too)
        entries.retain(|(o, _)| *o != offset);
        entries.push((offset, Arc::clone(payload)));
        let held = |e: &[(u64, Arc<Vec<u8>>)]| e.iter().map(|(_, p)| p.len()).sum::<usize>();
        while entries.len() > CACHED_BLOCKS || held(&entries) > CACHED_BYTES {
            evicted.push(entries.remove(0));
        }
        drop(entries);
        drop(evicted);
    }
}

impl fmt::Debug for BlockCache {
    /// Offsets and decoded lengths, not the bytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries().iter().map(|(o, p)| (o, p.len())))
            .finish()
    }
}

/// A data block's verified, decoded payload: a raw one borrowed from the
/// map, an LZSS one shared with the cache.
enum Payload<'a> {
    Mapped(&'a [u8]),
    Decoded(Arc<Vec<u8>>),
}

impl Deref for Payload<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Mapped(bytes) => bytes,
            Payload::Decoded(bytes) => bytes,
        }
    }
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
    cache: BlockCache,
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
        let (index, latest, decoded) = build_index(&file, bytes, first_block)?;
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
            cache: BlockCache::default(),
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

    /// Checksums the single block at `entry`, reporting a failure.
    fn verify(&self, entry: IndexEntry) -> Result<block::ScannedBlock<'_>, StoreError> {
        match block::scan_block(self.map.as_slice(), entry.offset) {
            Scan::Block(b) => Ok(b),
            Scan::Corrupt(e) => {
                self.metrics.event(
                    Level::Error,
                    "cold.corrupt_block",
                    &[
                        ("offset", entry.offset.to_string()),
                        ("reason", e.to_string()),
                    ],
                );
                Err(e)
            }
            // the index only holds blocks whose full span was present at
            // open, and the shared lock bars truncation while we live
            Scan::TornTail => Err(corrupt(
                entry.offset,
                "indexed block vanished from the mapped segment",
            )),
        }
    }

    /// The *uncompressed* payload of the single block at `entry`: from
    /// the cache, with no checksum and no decode, if an earlier query
    /// decoded it; else checksummed and decoded — a raw one borrowed from
    /// the mapped file, an LZSS one kept in the cache if `keep`.
    fn load_block(&self, entry: IndexEntry, keep: bool) -> Result<Payload<'_>, StoreError> {
        if let Some(hit) = self.cache.get(entry.offset) {
            self.metrics.block_cache_hits.inc();
            return Ok(Payload::Decoded(hit));
        }
        let scanned = self.verify(entry)?;
        let span = block::span(scanned.header.stored_len);
        let keep = keep
            && scanned.header.codec == BlockCodec::Lzss
            && usize::try_from(scanned.header.raw_len).is_ok_and(BlockCache::fits);
        let buf = if keep {
            self.cache.make_room()
        } else {
            Vec::new()
        };
        let raw = block::decode_payload_in(scanned, buf)?;
        self.metrics.blocks_decoded.inc();
        self.metrics.bytes_decoded.add(span);
        Ok(match raw {
            Cow::Borrowed(bytes) => Payload::Mapped(bytes),
            Cow::Owned(decoded) => {
                let decoded = Arc::new(decoded);
                if keep {
                    self.cache.insert(entry.offset, &decoded);
                }
                Payload::Decoded(decoded)
            }
        })
    }

    /// Hands `read` the payload of version `v` — its own `doc_to_bytes`
    /// bytes, out of the one block holding it — and positions a refusal at
    /// that block. `None` when `v` was never archived, or archived empty —
    /// an answer its block's checksum vouches for, like any other.
    fn read_version<T>(
        &self,
        v: u32,
        read: impl FnOnce(&[u8]) -> Result<T, StreamError>,
    ) -> Result<Option<T>, StoreError> {
        self.metrics.retrieves.inc();
        let Some(entry) = self.entry_for(v) else {
            return Ok(None);
        };
        if entry.kind == BlockKind::Empty {
            // nothing to decode, but the answer is the block's to vouch for
            return self.verify(entry).map(|_| None);
        }
        let raw = self.load_block(entry, true)?;
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

/// The key governing the elements one query step names, resolved once per
/// query ([`step_keys`]) and read by [`KeyReader`] for every candidate.
#[derive(Debug)]
struct StepKey<'s> {
    /// Each key path's name (`.` when empty) and steps, in the order the
    /// parts of a key value take ([`KeySpec::key_paths_for`]).
    paths: Vec<(&'s PathName, &'s [String])>,
    /// Some key path is `.`: a candidate is read whole.
    reads_all: bool,
}

/// The keys governing `steps`, one per step; `None` when a step leaves the
/// spec's keyed paths, past which nothing has a key for a step to name —
/// so no payload can hold what the steps address.
fn step_keys<'s>(spec: &'s KeySpec, steps: &[KeyQuery]) -> Option<Vec<StepKey<'s>>> {
    let mut here = LabelPath::empty();
    let mut keys = Vec::with_capacity(steps.len());
    for step in steps {
        here = here.child(step.tag());
        let paths = spec.key_paths_for(&here)?;
        let reads_all = paths.iter().any(|p| p.1.is_empty());
        keys.push(StepKey { paths, reads_all });
    }
    Some(keys)
}

/// The element `steps` address in the document the version payload
/// `payload` holds — what `query::find_in_doc` finds in the whole
/// document — as a document of its own, found without building the
/// document around it. `keys` are the steps' keys, one per step
/// ([`step_keys`]). One
/// level per step: among the children of the element found so far (the
/// payload's root, for the first step) the first the step names is the
/// one followed, with no way back, as in `find_in_doc`. A candidate is
/// keyed straight off the entries its key reads ([`KeyReader`]) and
/// everything else is stepped over by its declared length (the block's
/// checksum has vouched for the payload; what is stepped over is not
/// verified again), so a point query builds nothing for a record it
/// passes and, whole, the element it returns.
fn find_in_payload(
    payload: &[u8],
    keys: &[StepKey<'_>],
    steps: &[KeyQuery],
) -> Result<Option<Document>, StreamError> {
    // the element the steps so far lead to, and where in `payload` it lies
    let mut found: Option<(usize, &[u8])> = None;
    for (depth, (step, key)) in steps.iter().zip(keys).enumerate() {
        let (at, entry) = found.unwrap_or((0, payload));
        let mut level = FirstMatch {
            step,
            reader: KeyReader::new(key),
            // the candidates sit beneath the entry walked and the elements
            // enclosing it (the payload: none)
            above: depth,
            // the payload's root is the one candidate for the first step;
            // after it, the candidates are the children of the last found
            inside: found.is_none(),
            found: None,
            entered: Vec::new(),
        };
        walk(entry, depth.saturating_sub(1), &mut level).map_err(|e| within(at, e))?;
        let Some((child_at, child)) = level.found else {
            return Ok(None);
        };
        found = Some((at + child_at, child));
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
struct FirstMatch<'a, 'k, 'b> {
    step: &'a KeyQuery,
    /// Keys each candidate of the step's tag.
    reader: KeyReader<'k, 'b>,
    /// Elements enclosing the candidates in the payload.
    above: usize,
    /// The element whose children are the candidates has been entered.
    inside: bool,
    found: Option<(usize, &'b [u8])>,
    /// The stack of each candidate's walk, reused.
    entered: Vec<(usize, &'b str)>,
}

impl<'b> Sink<'b> for FirstMatch<'_, '_, 'b> {
    fn open(&mut self, tag: &'b str, at: usize, entry: &'b [u8]) -> Result<Visit, StreamError> {
        if !std::mem::replace(&mut self.inside, true) {
            return Ok(Visit::Enter);
        }
        if tag != self.step.tag() {
            return Ok(Visit::Skip);
        }
        walk_in(entry, self.above, &mut self.reader, &mut self.entered)
            .map_err(|e| entry_err(at, e))?;
        if self.reader.names(self.step) {
            self.found = Some((at, entry));
            return Ok(Visit::Stop);
        }
        Ok(Visit::Skip)
    }

    fn attr(&mut self, _: &'b str, _: &'b str) {}
    fn text(&mut self, _: &'b str) {}
    fn close(&mut self, _: &'b str) {}
}

/// The sink that keys the one element a payload entry holds, as
/// `annotate` keys it, from the entries alone: each key path is followed
/// down the children its steps name, and the canonical form of the value
/// at its end is written into one scratch string, reused candidate after
/// candidate. It reads what its key reads — the element's attributes,
/// whole each child a key path begins with, all of it when the element is
/// keyed by its own content (`.`) — and steps over the other children.
struct KeyReader<'k, 'b> {
    /// The key governing the element.
    key: &'k StepKey<'k>,
    /// Elements entered and not yet left.
    depth: usize,
    /// How far each key path has been followed, in the key's order.
    follows: Vec<Follow<'b>>,
    /// The depth of the outermost element open whose form is being
    /// written, if one is.
    writing: Option<usize>,
    canon: CanonWriter<'b>,
    /// The canonical forms of the key paths' values, and beyond them of an
    /// attribute value when [`KeyReader::names`] writes it.
    scratch: String,
}

/// How far one key path has been followed into the element being keyed,
/// under `resolve`'s rules: each step names exactly one element child,
/// the first of them is followed, and where none is, a last step may name
/// an attribute.
#[derive(Debug, Clone, Copy, Default)]
struct Follow<'b> {
    /// The depth of the element along the path open now (the element
    /// keyed: 0).
    open: usize,
    /// The depth of the deepest element along the path found so far.
    reached: usize,
    /// A step named a second element: the key cannot be read.
    twice: bool,
    /// Where the form of the element at the path's end lies in `scratch`.
    span: (usize, usize),
    /// The last value of the attribute the last step names, on the
    /// element one step short of the end.
    attr: Option<&'b str>,
}

impl<'k> KeyReader<'k, '_> {
    fn new(key: &'k StepKey<'k>) -> Self {
        KeyReader {
            key,
            depth: 0,
            follows: Vec::new(),
            writing: None,
            canon: CanonWriter::default(),
            scratch: String::new(),
        }
    }

    /// Whether the element last walked has the key value `step` names: a
    /// part per key path, each of the path's name and the canonical value
    /// found at its end. A key path that cannot be read names nothing.
    fn names(&mut self, step: &KeyQuery) -> bool {
        let key = self.key;
        if step.parts().len() != key.paths.len() {
            return false;
        }
        for ((name, steps), (f, (path, want))) in
            (key.paths.iter()).zip(self.follows.iter().zip(step.parts()))
        {
            if **name != path || f.twice {
                return false;
            }
            let (from, to) = if f.reached == steps.len() {
                f.span
            } else if let (Some(value), Some(last)) = (f.attr, steps.last()) {
                // one step short of the end, no element named by the last
                let from = self.scratch.len();
                canon::attribute_into(last, value, &mut self.scratch);
                (from, self.scratch.len())
            } else {
                return false;
            };
            if self.scratch.get(from..to) != Some(want) {
                return false;
            }
        }
        true
    }
}

impl<'b> Sink<'b> for KeyReader<'_, 'b> {
    fn open(&mut self, tag: &'b str, at: usize, entry: &'b [u8]) -> Result<Visit, StreamError> {
        let key = self.key;
        let depth = self.depth;
        if depth == 0 {
            // the element keyed, held to what a document of it could hold
            if entry.len() > MAX_BYTES {
                let long = format!("an element entry longer than {MAX_BYTES} bytes");
                return Err(StreamError::at(at, long));
            }
            self.follows.clear();
            self.follows.resize(key.paths.len(), Follow::default());
            self.scratch.clear();
        } else if depth == 1
            && !key.reads_all
            && !(key.paths.iter()).any(|p| p.1.first().is_some_and(|s| s == tag))
        {
            return Ok(Visit::Skip);
        }
        self.depth += 1;
        // the paths this element is the next step of, and those it ends
        let mut ends = false;
        for (f, (_, steps)) in self.follows.iter_mut().zip(&key.paths) {
            let next = depth > 0
                && !f.twice
                && f.open + 1 == depth
                && steps.get(depth - 1).is_some_and(|s| s == tag);
            if next {
                if f.reached >= depth {
                    f.twice = true;
                    continue;
                }
                (f.open, f.reached) = (depth, depth);
            }
            ends |= (next || depth == 0) && steps.len() == depth;
        }
        if self.writing.is_some() || ends {
            let from = self.canon.open(tag, &mut self.scratch);
            self.writing.get_or_insert(depth);
            for (f, (_, steps)) in self.follows.iter_mut().zip(&key.paths) {
                if !f.twice && f.open == depth && steps.len() == depth {
                    f.span.0 = from;
                }
            }
        }
        Ok(Visit::Enter)
    }

    fn attr(&mut self, name: &'b str, value: &'b str) {
        if self.writing.is_some() {
            self.canon.attr(name, value);
        }
        let depth = self.depth.saturating_sub(1);
        for (f, (_, steps)) in self.follows.iter_mut().zip(&self.key.paths) {
            let last = steps.len() == depth + 1 && steps.last().is_some_and(|s| s == name);
            if !f.twice && f.open == depth && last {
                f.attr = Some(value);
            }
        }
    }

    fn text(&mut self, text: &'b str) {
        if self.writing.is_some() {
            self.canon.text(text, &mut self.scratch);
        }
    }

    fn close(&mut self, tag: &'b str) {
        self.depth = self.depth.saturating_sub(1);
        let depth = self.depth;
        if self.writing.is_some() {
            self.canon.close(tag, &mut self.scratch);
        }
        if self.writing == Some(depth) {
            self.writing = None;
        }
        let end = self.scratch.len();
        for (f, (_, steps)) in self.follows.iter_mut().zip(&self.key.paths) {
            if f.open == depth && !f.twice {
                if steps.len() == depth {
                    f.span.1 = end;
                }
                f.open = depth.saturating_sub(1);
            }
        }
    }
}

/// Builds the version index of `file`, whose map is `bytes`, from the
/// block walk (headers only, read from the file: no page of the map is
/// touched). Returns the data-block entries, the latest committed
/// version, and — when the final data block was a batch whose count had
/// to be learned by decoding it — the byte span that decode charged.
#[allow(clippy::type_complexity)]
fn build_index(
    file: &File,
    bytes: &[u8],
    first_block: u64,
) -> Result<(Vec<IndexEntry>, u32, Option<u64>), StoreError> {
    let mut walk = block::walk_file(file, bytes, first_block);
    let steps: Vec<Step> = walk.by_ref().collect::<Result<_, _>>()?;
    // a torn tail is quietly excluded (those bytes were never
    // acknowledged); anything else the walk stopped at, or the header
    // sequence breaks at, is loud
    let torn = block::check_sequence(bytes, &steps)?;
    walk.torn_from()?;
    let steps: Vec<Step> = (steps.into_iter())
        .filter(|s| s.kind != BlockKind::Checkpoint && torn.is_none_or(|t| s.offset < t))
        .collect();
    // counts: a block's span in version space reaches to the next data
    // block's first version (`check_sequence` has held it above this
    // one's); the final block needs its payload decoded only if it is a
    // batch
    let mut index = Vec::with_capacity(steps.len());
    let mut latest = 0u32;
    let mut decoded_span = None;
    for (i, e) in steps.iter().enumerate() {
        let count = match steps.get(i + 1) {
            Some(next) => next.version.saturating_sub(e.version),
            None if e.kind == BlockKind::Batch => {
                // the only case needing a payload: the final batch block's
                // count is not derivable from a successor header
                let scanned = match block::scan_block(bytes, e.offset) {
                    Scan::Block(b) => b,
                    Scan::Corrupt(err) => return Err(err),
                    // the final block, not verifying: a torn append, which
                    // the journal cuts too
                    Scan::TornTail => break,
                };
                decoded_span = Some(block::span(scanned.header.stored_len));
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
        let Some(keys) = step_keys(&self.spec, steps) else {
            return Ok(None);
        };
        let found = self.read_version(v, |payload| find_in_payload(payload, &keys, steps))?;
        Ok(found.flatten())
    }

    /// Streaming scan: decodes one block at a time (never the whole
    /// archive at once) and probes each version's payload for the
    /// addressed element. A block in the cache is read from there, but the
    /// scan keeps none of those it decodes: it would flush what point
    /// queries come back to.
    fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError> {
        if steps.is_empty() {
            // the synthetic root, which exists in every version
            return Ok(Some(TimeSet::from_range(1, self.latest)));
        }
        let Some(keys) = step_keys(&self.spec, steps) else {
            return Ok(None);
        };
        let mut ts = TimeSet::new();
        for &entry in &self.index {
            if entry.kind == BlockKind::Empty {
                // holds nothing, as its verified block says
                self.verify(entry)?;
                continue;
            }
            let raw = self.load_block(entry, false)?;
            for (v, payload) in (entry.first_version..).zip(versions_in(entry, &raw)?) {
                let found = payload.read(|bytes| find_in_payload(bytes, &keys, steps))?;
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
    use crate::block::BLOCK_HEADER_LEN;
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
    fn the_block_cache_is_bounded_in_blocks_and_in_bytes() {
        let cache = BlockCache::default();
        let block = |n: usize| Arc::new(vec![7u8; n]);
        for at in 0..6 {
            cache.insert(at, &block(10));
        }
        assert!((0..2).all(|at| cache.get(at).is_none()));
        assert!((2..6).all(|at| cache.get(at).is_some()));
        // too big to keep at all
        cache.insert(9, &block(CACHED_BYTES + 1));
        assert!(cache.get(9).is_none());
        // two halves of the byte bound leave room for nothing else
        cache.insert(10, &block(CACHED_BYTES / 2));
        cache.insert(11, &block(CACHED_BYTES / 2));
        assert!((2..6).all(|at| cache.get(at).is_none()));
        assert!(cache.get(10).is_some() && cache.get(11).is_some());
    }

    #[test]
    fn a_miss_decodes_into_the_buffer_it_evicts_unless_a_query_holds_it() {
        let cache = BlockCache::default();
        assert_eq!(cache.make_room().capacity(), 0, "room to spare");
        for at in 0..4 {
            cache.insert(at, &Arc::new(vec![0u8; 100 + at as usize]));
        }
        let spare = cache.make_room();
        assert_eq!(spare.capacity(), 100);
        assert!(cache.get(0).is_none() && cache.get(1).is_some());
        cache.insert(4, &Arc::new(spare));
        // block 2 is the least recently used now, and a query reads it
        let held = cache.get(2).unwrap();
        for at in [3, 1, 4] {
            assert!(cache.get(at).is_some());
        }
        assert_eq!(cache.make_room().capacity(), 0);
        assert_eq!(held.len(), 102);
    }

    #[test]
    fn cold_archive_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ColdArchive>();
    }
}
