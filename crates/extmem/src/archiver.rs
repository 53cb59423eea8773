//! The external-memory archiver facade and the streaming merge of §6.3.
//!
//! "This step is very much like [the sort] except that frontier nodes are
//! handled differently ... Initially x is the root of A′ and y is a virtual
//! root of D′ with the same key as x, and x and y proceed through A′ and D′
//! in document order. If label(x) < label(y), we output x and its entire
//! subtree and attach the current timestamp ... If label(x) > label(y) we
//! output y and its entire subtree and attach timestamp i ... Otherwise we
//! output x [with i added] ... Since this step makes one pass through the
//! archive and version, it incurs O(N/B) I/Os."

use std::io::Write;
use std::sync::Arc;

use xarch_core::store::{StoreError, StoreReader, StoreStats, StoreView, VersionStore};
use xarch_core::{KeyQuery, RangeEntry, TimeSet};
use xarch_keys::{annotate, KeySpec};
use xarch_xml::escape::{write_attr_pair, write_text};
use xarch_xml::Document;

use crate::etree::{insert_new, merge_tree, terminate, EKind, ETree};
use crate::events::{
    encode_small, encode_spine_close, encode_spine_open, Peeked, SpineHeader, StreamCursor,
    StreamError,
};
use crate::io::{IoConfig, IoStats, PagedWriter, SharedIoStats};
use crate::sort::write_sorted_version;

type Result<T> = std::result::Result<T, StreamError>;

/// The external-memory archive: a sorted event stream plus I/O accounting.
///
/// All query passes take `&self`: the stream is immutable between merges,
/// and the per-pass page accounting is charged through atomics
/// ([`SharedIoStats`]), so concurrent readers never contend.
#[derive(Debug, Clone)]
pub struct ExtArchive {
    spec: KeySpec,
    cfg: IoConfig,
    data: Arc<Vec<u8>>,
    latest: u32,
    stats: SharedIoStats,
}

impl ExtArchive {
    /// Creates an empty external archive.
    pub fn new(spec: KeySpec, cfg: IoConfig) -> Self {
        Self::with_stats(spec, cfg, SharedIoStats::default())
    }

    /// Creates an empty external archive charging its paged I/O into
    /// counters registered under the canonical `extmem.*` names.
    pub fn observed(spec: KeySpec, cfg: IoConfig, registry: &xarch_obs::Registry) -> Self {
        Self::with_stats(spec, cfg, SharedIoStats::registered(registry))
    }

    fn with_stats(spec: KeySpec, cfg: IoConfig, stats: SharedIoStats) -> Self {
        // the empty archive: a root spine with an empty timestamp
        let mut data = Vec::new();
        encode_spine_open(
            &SpineHeader {
                tag: "root".into(),
                attrs: Vec::new(),
                sort_key: Some("root\u{0}".into()),
                time: Some(TimeSet::new()),
            },
            &mut data,
        );
        encode_spine_close(&mut data);
        Self {
            spec,
            cfg,
            data: Arc::new(data),
            latest: 0,
            stats,
        }
    }

    /// The governing key specification.
    pub fn spec(&self) -> &KeySpec {
        &self.spec
    }

    /// Number of archived versions.
    pub fn latest(&self) -> u32 {
        self.latest
    }

    /// True if version `v` has been archived (it may still be an *empty*
    /// version) — the same contract as the in-memory archiver.
    pub fn has_version(&self, v: u32) -> bool {
        v >= 1 && v <= self.latest
    }

    /// Size of the archive stream in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Cumulative I/O statistics across all operations.
    pub fn io_stats(&self) -> IoStats {
        self.stats.get()
    }

    /// The raw archive stream (diagnostics).
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// Archives the next version: annotate → external sort → one merge pass.
    pub fn add_version(&mut self, doc: &Document) -> Result<u32> {
        let ann = annotate(doc, &self.spec).map_err(|e| StreamError::new(e.to_string()))?;
        // Same contract as the in-memory archiver: an unkeyed document root
        // is rejected up front (the merge would otherwise fail mid-stream
        // with an opaque decode error).
        if !ann.is_keyed(doc.root()) {
            return Err(StreamError::new(format!(
                "document root <{}> has no root-level key in the spec",
                doc.tag_name(doc.root())
            )));
        }
        let (sorted, sort_stats) = write_sorted_version(doc, &ann, &self.cfg)?;
        self.stats.add(sort_stats);
        let i = self.latest + 1;

        let mut ar = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let mut vr = StreamCursor::new(&sorted, self.cfg.page_bytes);
        let mut out = PagedWriter::new(self.cfg.page_bytes);
        merge_spines(&mut ar, &mut vr, &mut out, &TimeSet::new(), i)?;
        self.stats.add_reads(ar.pages_read() + vr.pages_read());
        let (bytes, writes) = out.finish();
        self.stats.add_writes(writes);
        self.data = Arc::new(bytes);
        self.latest = i;
        Ok(i)
    }

    /// Bulk ingest: archives `docs` as consecutive versions by folding the
    /// whole batch into a **single streaming pass** over the archive.
    ///
    /// Each document still pays its own annotate + external sort (those
    /// are version-sized), but the archive-sized merge — the cost that
    /// dominates bulk loads, `O(N/B)` per version when applied serially —
    /// runs once for the whole batch: a (k+1)-way synchronized walk over
    /// the archive stream and all `k` sorted version streams. Per-entry
    /// semantics reconstruct exactly what `k` serial passes would emit
    /// (see `batch_merge_level` in this module), so the resulting stream
    /// answers every query identically to a one-at-a-time replay.
    ///
    /// All documents are annotated and sorted *before* the archive stream
    /// is touched and the new stream is swapped in atomically at the end,
    /// so a rejected batch leaves the archive unchanged.
    pub fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let mut sorted: Vec<Vec<u8>> = Vec::with_capacity(docs.len());
        for doc in docs {
            let ann = annotate(doc, &self.spec).map_err(|e| StreamError::new(e.to_string()))?;
            if !ann.is_keyed(doc.root()) {
                return Err(StreamError::new(format!(
                    "document root <{}> has no root-level key in the spec",
                    doc.tag_name(doc.root())
                )));
            }
            let (bytes, sort_stats) = write_sorted_version(doc, &ann, &self.cfg)?;
            self.stats.add(sort_stats);
            sorted.push(bytes);
        }
        let assigned: Vec<u32> = (1..=docs.len() as u32).map(|k| self.latest + k).collect();

        let mut ar = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let mut vcur: Vec<BatchCursor<'_>> = sorted
            .iter()
            .zip(&assigned)
            .map(|(bytes, &v)| BatchCursor {
                cur: StreamCursor::new(bytes, self.cfg.page_bytes),
                v,
            })
            .collect();
        let mut out = PagedWriter::new(self.cfg.page_bytes);

        // Every stream wraps its contents in the same synthetic root
        // spine; the root is present in every version, so its timestamp
        // simply gains the whole batch.
        let mut rh = ar.take_spine_open()?;
        let eff0 = rh.time.clone().unwrap_or_else(TimeSet::new);
        for bc in &mut vcur {
            bc.cur.take_spine_open()?;
        }
        {
            let t = rh.time.get_or_insert_with(TimeSet::new);
            for &v in &assigned {
                t.insert(v);
            }
        }
        let mut header = Vec::new();
        encode_spine_open(&rh, &mut header);
        out.write(&header);
        let active: Vec<usize> = (0..vcur.len()).collect();
        batch_merge_level(Some(&mut ar), &mut vcur, &active, &eff0, &mut out)?;
        let mut close = Vec::new();
        encode_spine_close(&mut close);
        out.write(&close);

        self.stats
            .add_reads(ar.pages_read() + vcur.iter().map(|c| c.cur.pages_read()).sum::<u64>());
        let (bytes, writes) = out.finish();
        self.stats.add_writes(writes);
        self.data = Arc::new(bytes);
        self.latest += docs.len() as u32;
        Ok(assigned)
    }

    /// Archives an *empty* database as the next version: one merge pass
    /// against a version stream holding only the virtual root, so every
    /// archived element is terminated while the root keeps ticking —
    /// `has_version` then answers `true` and `retrieve` answers `None`,
    /// matching the in-memory archiver's contract.
    pub fn add_empty_version(&mut self) -> Result<u32> {
        let i = self.latest + 1;
        let mut version = Vec::new();
        encode_spine_open(
            &SpineHeader {
                tag: "root".into(),
                attrs: Vec::new(),
                sort_key: Some("root\u{0}".into()),
                time: None,
            },
            &mut version,
        );
        encode_spine_close(&mut version);
        let mut ar = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let mut vr = StreamCursor::new(&version, self.cfg.page_bytes);
        let mut out = PagedWriter::new(self.cfg.page_bytes);
        merge_spines(&mut ar, &mut vr, &mut out, &TimeSet::new(), i)?;
        self.stats.add_reads(ar.pages_read() + vr.pages_read());
        let (bytes, writes) = out.finish();
        self.stats.add_writes(writes);
        self.data = Arc::new(bytes);
        self.latest = i;
        Ok(i)
    }

    /// Streaming retrieval: one pass over the event stream writing the
    /// nodes visible at `v` directly into `out` as compact XML — no
    /// [`Document`] and no whole-archive [`ETree`] are materialized (small
    /// entries are decoded one record at a time). Returns `true` iff a
    /// document was written.
    pub fn retrieve_into<W: Write + ?Sized>(
        &self,
        v: u32,
        out: &mut W,
    ) -> std::result::Result<bool, StoreError> {
        if !self.has_version(v) {
            return Ok(false);
        }
        let mut cur = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let result = Self::emit_root(&mut cur, v, out);
        self.stats.add_reads(cur.pages_read());
        result
    }

    /// Consumes the synthetic root spine, emitting the first visible
    /// document root (mirrors [`ExtArchive::retrieve`]'s selection).
    fn emit_root<W: Write + ?Sized>(
        cur: &mut StreamCursor<'_>,
        v: u32,
        out: &mut W,
    ) -> std::result::Result<bool, StoreError> {
        let _root = cur.take_spine_open()?;
        let mut wrote = false;
        loop {
            match cur.peek()? {
                Peeked::Close => {
                    cur.take_spine_close()?;
                    return Ok(wrote);
                }
                Peeked::Eof => return Err(StreamError::new("unterminated root spine").into()),
                Peeked::Small(_) => {
                    let t = cur.take_small()?;
                    if !wrote {
                        if let Some(ft) = filter_tree(&t, v, true) {
                            if matches!(ft.kind, EKind::Element { .. }) {
                                write_etree(&ft, out)?;
                                wrote = true;
                            }
                        }
                    }
                }
                Peeked::Spine(_) => {
                    let h = cur.take_spine_open()?;
                    let visible = h.time.as_ref().is_none_or(|t| t.contains(v));
                    if visible && !wrote {
                        emit_spine(cur, &h, v, out)?;
                        wrote = true;
                    } else {
                        skip_spine(cur)?;
                    }
                }
            }
        }
    }

    /// The temporal history of the element addressed by `steps` (§7.2),
    /// answered with one partial scan of the event stream: each level is
    /// scanned until the step's label sort key matches, then the walk
    /// descends (into the spine, or in memory once a small record is
    /// reached). Timestamp inheritance follows the spine headers.
    pub fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>> {
        let mut cur = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let root = cur.take_spine_open()?;
        let root_time = root.time.clone().unwrap_or_else(TimeSet::new);
        let result = if steps.is_empty() {
            Ok(Some(root_time))
        } else {
            history_in_spine(&mut cur, steps, 0, &root_time)
        };
        self.stats.add_reads(cur.pages_read());
        result
    }

    /// Partial retrieval with a partial scan: the walk descends the key
    /// path by sort-key comparison — skipping every non-matching sibling
    /// spine — and materializes only the addressed subtree, filtered to
    /// version `v`. An empty path addresses the whole document.
    pub fn as_of(
        &self,
        steps: &[KeyQuery],
        v: u32,
    ) -> std::result::Result<Option<xarch_xml::Document>, StoreError> {
        if !self.has_version(v) {
            return Ok(None);
        }
        if steps.is_empty() {
            return Ok(self.retrieve(v)?);
        }
        let mut cur = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let root = cur.take_spine_open()?;
        let root_time = root.time.clone().unwrap_or_else(TimeSet::new);
        let found = find_in_spine(&mut cur, steps, 0, &root_time)?;
        self.stats.add_reads(cur.pages_read());
        let Some((tree, eff)) = found else {
            return Ok(None);
        };
        if !eff.contains(v) {
            return Ok(None);
        }
        let Some(filtered) = filter_tree(&tree, v, true) else {
            return Ok(None);
        };
        if !matches!(filtered.kind, EKind::Element { .. }) {
            return Ok(None);
        }
        Ok(Some(tree_to_doc(&filtered)))
    }

    /// Range scan with a partial scan: descends to the prefix node, then
    /// enumerates its immediate children — reading each child spine's
    /// *header only* and skipping its body — clamping lifetimes to the
    /// queried window. An empty prefix addresses the synthetic root.
    pub fn range(
        &self,
        prefix: &[KeyQuery],
        versions: std::ops::RangeInclusive<u32>,
    ) -> std::result::Result<Vec<RangeEntry>, StoreError> {
        let lo = (*versions.start()).max(1);
        let hi = (*versions.end()).min(self.latest);
        let mut cur = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let root = cur.take_spine_open()?;
        let root_time = root.time.clone().unwrap_or_else(TimeSet::new);
        let mut out: Vec<RangeEntry> = Vec::new();
        let located = if prefix.is_empty() {
            // the cursor already sits inside the synthetic root's spine
            Some(LocatedLevel::Spine(root_time.clone()))
        } else {
            locate_level(&mut cur, prefix, 0, &root_time)?
        };
        match located {
            None => {}
            Some(LocatedLevel::Spine(eff)) => {
                // enumerate this spine's children from their headers
                loop {
                    match cur.peek()? {
                        Peeked::Close | Peeked::Eof => break,
                        Peeked::Small(_) => {
                            let t = cur.take_small()?;
                            push_range_entry(
                                &mut out,
                                t.sort_key.as_deref(),
                                matches!(t.kind, EKind::Element { .. }),
                                t.time.as_ref(),
                                &eff,
                                lo,
                                hi,
                            );
                        }
                        Peeked::Spine(_) => {
                            let h = cur.take_spine_open()?;
                            push_range_entry(
                                &mut out,
                                h.sort_key.as_deref(),
                                true,
                                h.time.as_ref(),
                                &eff,
                                lo,
                                hi,
                            );
                            skip_spine(&mut cur)?;
                        }
                    }
                }
            }
            Some(LocatedLevel::Tree(tree, eff)) => {
                for c in &tree.children {
                    push_range_entry(
                        &mut out,
                        c.sort_key.as_deref(),
                        matches!(c.kind, EKind::Element { .. }),
                        c.time.as_ref(),
                        &eff,
                        lo,
                        hi,
                    );
                }
            }
        }
        self.stats.add_reads(cur.pages_read());
        out.sort_by(|a, b| a.step.cmp(&b.step));
        Ok(out)
    }

    /// Aggregate statistics, computed with one pass over the stream.
    pub fn store_stats(&self) -> Result<StoreStats> {
        let mut cur = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let mut s = StoreStats {
            versions: self.latest,
            size_bytes: self.data.len(),
            ..StoreStats::default()
        };
        loop {
            match cur.peek()? {
                Peeked::Eof => break,
                Peeked::Close => {
                    cur.take_spine_close()?;
                }
                Peeked::Spine(_) => {
                    cur.take_spine_open()?;
                    s.elements += 1;
                }
                Peeked::Small(_) => {
                    let t = cur.take_small()?;
                    count_tree(&t, &mut s);
                }
            }
        }
        self.stats.add_reads(cur.pages_read());
        Ok(s)
    }

    /// Retrieves version `v` with one streaming pass.
    pub fn retrieve(&self, v: u32) -> Result<Option<Document>> {
        if v == 0 || v > self.latest {
            return Ok(None);
        }
        let mut cur = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let root = read_visible(&mut cur, v, None)?;
        self.stats.add_reads(cur.pages_read());
        // root is the synthetic "root"; its children hold the document root
        let Some(root) = root else {
            return Ok(None);
        };
        let doc_root = root
            .children
            .into_iter()
            .find(|c| matches!(c.kind, EKind::Element { .. }));
        let Some(tree) = doc_root else {
            return Ok(None); // empty version
        };
        Ok(Some(tree_to_doc(&tree)))
    }
}

impl StoreReader for ExtArchive {
    fn spec(&self) -> &KeySpec {
        ExtArchive::spec(self)
    }

    fn latest(&self) -> u32 {
        ExtArchive::latest(self)
    }

    fn retrieve(&self, v: u32) -> std::result::Result<Option<Document>, StoreError> {
        Ok(ExtArchive::retrieve(self, v)?)
    }

    fn retrieve_into(&self, v: u32, out: &mut dyn Write) -> std::result::Result<bool, StoreError> {
        ExtArchive::retrieve_into(self, v, out)
    }

    fn history(&self, steps: &[KeyQuery]) -> std::result::Result<Option<TimeSet>, StoreError> {
        Ok(ExtArchive::history(self, steps)?)
    }

    fn stats(&self) -> std::result::Result<StoreStats, StoreError> {
        Ok(ExtArchive::store_stats(self)?)
    }

    fn as_of(
        &self,
        steps: &[KeyQuery],
        v: u32,
    ) -> std::result::Result<Option<Document>, StoreError> {
        ExtArchive::as_of(self, steps, v)
    }

    fn range(
        &self,
        prefix: &[KeyQuery],
        versions: std::ops::RangeInclusive<u32>,
    ) -> std::result::Result<Vec<RangeEntry>, StoreError> {
        ExtArchive::range(self, prefix, versions)
    }
}

impl VersionStore for ExtArchive {
    fn add_version(&mut self, doc: &Document) -> std::result::Result<u32, StoreError> {
        Ok(ExtArchive::add_version(self, doc)?)
    }

    fn add_empty_version(&mut self) -> std::result::Result<u32, StoreError> {
        Ok(ExtArchive::add_empty_version(self)?)
    }

    fn add_versions(&mut self, docs: &[Document]) -> std::result::Result<Vec<u32>, StoreError> {
        Ok(ExtArchive::add_versions(self, docs)?)
    }

    fn checkpoint_state(&self) -> std::result::Result<Option<Vec<u8>>, StoreError> {
        // the external archive's materialized state IS its event stream —
        // the checkpoint payload is the stream plus enough framing to
        // verify it belongs to this configuration
        let mut out = vec![xarch_core::state::STATE_EXTMEM];
        xarch_core::wire::put_varint(&mut out, self.latest as u64);
        xarch_core::wire::put_str(&mut out, &xarch_core::state::spec_source(&self.spec));
        xarch_core::wire::put_bytes(&mut out, &self.data);
        Ok(Some(out))
    }

    fn restore_checkpoint(&mut self, state: &[u8]) -> std::result::Result<bool, StoreError> {
        use xarch_core::wire::{get_bytes, get_str, get_varint};
        if self.latest != 0 {
            return Err(StoreError::Backend(
                "restore_checkpoint requires an empty store".into(),
            ));
        }
        if state.first() != Some(&xarch_core::state::STATE_EXTMEM) {
            return Ok(false);
        }
        let mut pos = 1;
        let latest = get_varint(state, &mut pos).map_err(xarch_core::state::corrupt)?;
        let latest = u32::try_from(latest).map_err(|_| StoreError::Corrupt {
            offset: pos as u64,
            reason: "checkpoint state: version overflow".into(),
        })?;
        let spec_src = get_str(state, &mut pos).map_err(xarch_core::state::corrupt)?;
        let spec = KeySpec::parse(&spec_src).map_err(|e| StoreError::Corrupt {
            offset: pos as u64,
            reason: format!("checkpoint state: bad key spec: {e}"),
        })?;
        if spec != self.spec {
            return Ok(false);
        }
        let data = get_bytes(state, &mut pos).map_err(xarch_core::state::corrupt)?;
        if pos != state.len() {
            return Err(StoreError::Corrupt {
                offset: pos as u64,
                reason: "checkpoint state: trailing bytes".into(),
            });
        }
        // a structural sanity pass over the restored stream: every entry
        // must decode, so a damaged-but-checksummed payload fails loudly
        // here instead of mid-query
        validate_stream(data)?;
        self.data = Arc::new(data.to_vec());
        self.latest = latest;
        Ok(true)
    }

    fn view(&self) -> std::result::Result<StoreView, StoreError> {
        // the view shares the event stream (a merge swaps in a new one,
        // never writes the old) and the I/O counters (its passes are real
        // paged I/O charged to the same archive)
        Ok(Arc::new(self.clone()))
    }
}

/// Walks every entry of an event stream, erroring (positioned, loud) on
/// the first undecodable entry or unbalanced spine — the structural
/// sanity gate for checkpoint restore, so a damaged payload fails at
/// restore time instead of mid-query.
fn validate_stream(data: &[u8]) -> std::result::Result<(), StoreError> {
    use crate::events::{Peeked, StreamCursor};
    let mut cur = StreamCursor::new(data, 4096);
    let mut depth = 0u64;
    loop {
        match cur.peek().map_err(StoreError::from)? {
            Peeked::Eof => break,
            Peeked::Small(_) => {
                cur.take_small().map_err(StoreError::from)?;
            }
            Peeked::Spine(_) => {
                cur.take_spine_open().map_err(StoreError::from)?;
                depth += 1;
            }
            Peeked::Close => {
                cur.take_spine_close().map_err(StoreError::from)?;
                depth = depth.checked_sub(1).ok_or_else(|| StoreError::Corrupt {
                    offset: 0,
                    reason: "checkpoint state: unbalanced spine close".into(),
                })?;
            }
        }
    }
    if depth != 0 {
        return Err(StoreError::Corrupt {
            offset: data.len() as u64,
            reason: "checkpoint state: unclosed spine".into(),
        });
    }
    Ok(())
}

/// The label sort key a [`KeyQuery`] step addresses — the same encoding
/// [`ETree::from_doc`] attaches to keyed elements:
/// `tag \x00 (path \x01 canon \x02)*`.
fn sort_key_of(step: &KeyQuery) -> String {
    let mut s = step.tag.clone();
    s.push('\u{0}');
    for (path, canon) in &step.parts {
        s.push_str(path);
        s.push('\u{1}');
        s.push_str(canon);
        s.push('\u{2}');
    }
    s
}

/// Scans the current spine's children for `steps[depth]`, descending when
/// found. `inherited` is the enclosing spine's effective timestamp.
fn history_in_spine(
    cur: &mut StreamCursor<'_>,
    steps: &[KeyQuery],
    depth: usize,
    inherited: &TimeSet,
) -> Result<Option<TimeSet>> {
    let want = sort_key_of(&steps[depth]);
    loop {
        match cur.peek()? {
            Peeked::Close => {
                cur.take_spine_close()?;
                return Ok(None);
            }
            Peeked::Eof => return Err(StreamError::new("unterminated spine")),
            Peeked::Small(k) => {
                let matched = k.as_deref() == Some(want.as_str());
                let t = cur.take_small()?;
                if matched {
                    return Ok(history_in_tree(&t, steps, depth, inherited));
                }
            }
            Peeked::Spine(k) => {
                let matched = k.as_deref() == Some(want.as_str());
                let h = cur.take_spine_open()?;
                if matched {
                    let eff = h.time.clone().unwrap_or_else(|| inherited.clone());
                    if depth + 1 == steps.len() {
                        return Ok(Some(eff));
                    }
                    return history_in_spine(cur, steps, depth + 1, &eff);
                }
                skip_spine(cur)?;
            }
        }
    }
}

/// Decodes a label sort key (`tag \x00 (path \x01 canon \x02)*`) back
/// into the [`KeyQuery`] step it addresses.
fn step_of_sort_key(key: &str) -> Option<KeyQuery> {
    let (tag, rest) = key.split_once('\u{0}')?;
    let mut parts = Vec::new();
    let mut rest = rest;
    while !rest.is_empty() {
        let (part, tail) = rest.split_once('\u{2}')?;
        let (path, canon) = part.split_once('\u{1}')?;
        parts.push((path.to_owned(), canon.to_owned()));
        rest = tail;
    }
    Some(KeyQuery {
        tag: tag.to_owned(),
        parts,
    })
}

/// Appends one range hit if the entry is a keyed element whose lifetime
/// intersects the window.
fn push_range_entry(
    out: &mut Vec<RangeEntry>,
    sort_key: Option<&str>,
    is_element: bool,
    time: Option<&TimeSet>,
    inherited: &TimeSet,
    lo: u32,
    hi: u32,
) {
    if !is_element {
        return;
    }
    let Some(step) = sort_key.and_then(step_of_sort_key) else {
        return;
    };
    let eff = time.cloned().unwrap_or_else(|| inherited.clone());
    let clamped = eff.clamp_range(lo, hi);
    if !clamped.is_empty() {
        out.push(RangeEntry {
            step,
            time: clamped,
        });
    }
}

/// Where a key-path descent ended up: still positioned inside a spine
/// (with the spine's effective timestamp), or at an in-memory fragment.
enum LocatedLevel {
    Spine(TimeSet),
    Tree(ETree, TimeSet),
}

/// Descends to the node addressed by `steps`, leaving the cursor *inside*
/// its spine when the node is spine-encoded. Used by range scans, which
/// enumerate the children of the located node.
fn locate_level(
    cur: &mut StreamCursor<'_>,
    steps: &[KeyQuery],
    depth: usize,
    inherited: &TimeSet,
) -> Result<Option<LocatedLevel>> {
    let want = sort_key_of(&steps[depth]);
    loop {
        match cur.peek()? {
            Peeked::Close | Peeked::Eof => return Ok(None),
            Peeked::Small(k) => {
                let matched = k.as_deref() == Some(want.as_str());
                let t = cur.take_small()?;
                if matched {
                    let eff = t.time.clone().unwrap_or_else(|| inherited.clone());
                    return Ok(locate_in_tree(t, steps, depth, &eff));
                }
            }
            Peeked::Spine(k) => {
                let matched = k.as_deref() == Some(want.as_str());
                let h = cur.take_spine_open()?;
                if matched {
                    let eff = h.time.clone().unwrap_or_else(|| inherited.clone());
                    if depth + 1 == steps.len() {
                        return Ok(Some(LocatedLevel::Spine(eff)));
                    }
                    return locate_level(cur, steps, depth + 1, &eff);
                }
                skip_spine(cur)?;
            }
        }
    }
}

/// Finishes a locate inside an in-memory fragment (`t` matches
/// `steps[depth]`; `eff` is its effective timestamp).
fn locate_in_tree(
    t: ETree,
    steps: &[KeyQuery],
    depth: usize,
    eff: &TimeSet,
) -> Option<LocatedLevel> {
    if depth + 1 == steps.len() {
        return Some(LocatedLevel::Tree(t, eff.clone()));
    }
    let want = sort_key_of(&steps[depth + 1]);
    let child = t
        .children
        .into_iter()
        .find(|c| c.sort_key.as_deref() == Some(want.as_str()))?;
    let ceff = child.time.clone().unwrap_or_else(|| eff.clone());
    locate_in_tree(child, steps, depth + 1, &ceff)
}

/// Descends to the node addressed by `steps` and materializes it (plus
/// its effective timestamp). Used by `as_of`, which then filters the
/// subtree to one version.
fn find_in_spine(
    cur: &mut StreamCursor<'_>,
    steps: &[KeyQuery],
    depth: usize,
    inherited: &TimeSet,
) -> Result<Option<(ETree, TimeSet)>> {
    let want = sort_key_of(&steps[depth]);
    loop {
        match cur.peek()? {
            Peeked::Close | Peeked::Eof => return Ok(None),
            Peeked::Small(k) => {
                let matched = k.as_deref() == Some(want.as_str());
                let t = cur.take_small()?;
                if matched {
                    let eff = t.time.clone().unwrap_or_else(|| inherited.clone());
                    return Ok(find_in_tree(t, steps, depth, &eff));
                }
            }
            Peeked::Spine(k) => {
                let matched = k.as_deref() == Some(want.as_str());
                if matched {
                    if depth + 1 == steps.len() {
                        let t = materialize_spine(cur)?;
                        let eff = t.time.clone().unwrap_or_else(|| inherited.clone());
                        return Ok(Some((t, eff)));
                    }
                    let h = cur.take_spine_open()?;
                    let eff = h.time.clone().unwrap_or_else(|| inherited.clone());
                    return find_in_spine(cur, steps, depth + 1, &eff);
                }
                cur.take_spine_open()?;
                skip_spine(cur)?;
            }
        }
    }
}

/// Finishes a find inside an in-memory fragment.
fn find_in_tree(
    t: ETree,
    steps: &[KeyQuery],
    depth: usize,
    eff: &TimeSet,
) -> Option<(ETree, TimeSet)> {
    if depth + 1 == steps.len() {
        return Some((t, eff.clone()));
    }
    let want = sort_key_of(&steps[depth + 1]);
    let child = t
        .children
        .into_iter()
        .find(|c| c.sort_key.as_deref() == Some(want.as_str()))?;
    let ceff = child.time.clone().unwrap_or_else(|| eff.clone());
    find_in_tree(child, steps, depth + 1, &ceff)
}

/// Finishes a history walk inside an in-memory fragment.
fn history_in_tree(
    t: &ETree,
    steps: &[KeyQuery],
    depth: usize,
    inherited: &TimeSet,
) -> Option<TimeSet> {
    let eff = t.time.clone().unwrap_or_else(|| inherited.clone());
    if depth + 1 == steps.len() {
        return Some(eff);
    }
    let want = sort_key_of(&steps[depth + 1]);
    t.children
        .iter()
        .find(|c| c.sort_key.as_deref() == Some(want.as_str()))
        .and_then(|c| history_in_tree(c, steps, depth + 1, &eff))
}

/// Consumes a spine's remaining children and its close marker, discarding
/// everything.
fn skip_spine(cur: &mut StreamCursor<'_>) -> Result<()> {
    loop {
        match cur.peek()? {
            Peeked::Close => {
                cur.take_spine_close()?;
                return Ok(());
            }
            Peeked::Eof => return Err(StreamError::new("unterminated spine")),
            Peeked::Small(_) => {
                cur.take_small()?;
            }
            Peeked::Spine(_) => {
                cur.take_spine_open()?;
                skip_spine(cur)?;
            }
        }
    }
}

/// Streams one visible spine: open tag, visible children, close tag. The
/// open marker has already been consumed into `h`.
fn emit_spine<W: Write + ?Sized>(
    cur: &mut StreamCursor<'_>,
    h: &SpineHeader,
    v: u32,
    out: &mut W,
) -> std::result::Result<(), StoreError> {
    write_open_tag(&h.tag, &h.attrs, out)?;
    out.write_all(b">")?;
    loop {
        match cur.peek()? {
            Peeked::Close => {
                cur.take_spine_close()?;
                write_close_tag(&h.tag, out)?;
                return Ok(());
            }
            Peeked::Eof => return Err(StreamError::new("unterminated spine").into()),
            Peeked::Small(_) => {
                let t = cur.take_small()?;
                if let Some(ft) = filter_tree(&t, v, true) {
                    write_etree(&ft, out)?;
                }
            }
            Peeked::Spine(_) => {
                let ch = cur.take_spine_open()?;
                let visible = ch.time.as_ref().is_none_or(|t| t.contains(v));
                if visible {
                    emit_spine(cur, &ch, v, out)?;
                } else {
                    skip_spine(cur)?;
                }
            }
        }
    }
}

/// Writes `<tag a="v"…`: a start tag up to, not including, its `>` — bytes
/// as they are, values through the shared escaper, nothing formatted.
fn write_open_tag<W: Write + ?Sized>(
    tag: &str,
    attrs: &[(String, String)],
    out: &mut W,
) -> std::io::Result<()> {
    out.write_all(b"<")?;
    out.write_all(tag.as_bytes())?;
    for (a, val) in attrs {
        write_attr_pair(a, val, out)?;
    }
    Ok(())
}

fn write_close_tag<W: Write + ?Sized>(tag: &str, out: &mut W) -> std::io::Result<()> {
    out.write_all(b"</")?;
    out.write_all(tag.as_bytes())?;
    out.write_all(b">")
}

/// Writes an already-filtered fragment as compact XML (stamps are
/// transparent).
fn write_etree<W: Write + ?Sized>(t: &ETree, out: &mut W) -> std::io::Result<()> {
    match &t.kind {
        EKind::Text(s) => write_text(s, out),
        EKind::Stamp => {
            for c in &t.children {
                write_etree(c, out)?;
            }
            Ok(())
        }
        EKind::Element { tag, attrs } => {
            write_open_tag(tag, attrs, out)?;
            if t.children.is_empty() {
                out.write_all(b"/>")
            } else {
                out.write_all(b">")?;
                for c in &t.children {
                    write_etree(c, out)?;
                }
                write_close_tag(tag, out)
            }
        }
    }
}

/// Counts one fragment's nodes into the unified statistics.
fn count_tree(t: &ETree, s: &mut StoreStats) {
    match &t.kind {
        EKind::Element { .. } => s.elements += 1,
        EKind::Text(_) => s.texts += 1,
        EKind::Stamp => s.stamps += 1,
    }
    for c in &t.children {
        count_tree(c, s);
    }
}

/// Reads the next entry (spine or small) as a *version-v* filtered ETree.
/// Returns `None` when the entry is not visible at `v`.
fn read_visible(
    cur: &mut StreamCursor<'_>,
    v: u32,
    _inherited: Option<&TimeSet>,
) -> Result<Option<ETree>> {
    match cur.peek()? {
        Peeked::Small(_) => {
            let t = cur.take_small()?;
            Ok(filter_tree(&t, v, true))
        }
        Peeked::Spine(_) => {
            let h = cur.take_spine_open()?;
            let visible = h.time.as_ref().is_none_or(|t| t.contains(v));
            let mut children = Vec::new();
            loop {
                match cur.peek()? {
                    Peeked::Close => {
                        cur.take_spine_close()?;
                        break;
                    }
                    Peeked::Eof => return Err(StreamError::new("unterminated spine")),
                    _ => {
                        if let Some(c) = read_visible(cur, v, None)? {
                            if visible {
                                children.push(c);
                            }
                        }
                    }
                }
            }
            if !visible {
                return Ok(None);
            }
            Ok(Some(ETree {
                kind: EKind::Element {
                    tag: h.tag,
                    attrs: h.attrs,
                },
                sort_key: h.sort_key,
                frontier: false,
                time: h.time,
                children,
            }))
        }
        Peeked::Close | Peeked::Eof => Err(StreamError::new("expected an entry")),
    }
}

/// Filters an in-memory fragment to the content visible at version `v`.
/// `parent_visible` reflects timestamp inheritance.
fn filter_tree(t: &ETree, v: u32, parent_visible: bool) -> Option<ETree> {
    let visible = match &t.time {
        Some(ts) => ts.contains(v),
        None => parent_visible,
    };
    if !visible {
        return None;
    }
    match &t.kind {
        EKind::Stamp => {
            // transparent: hoist the alternative's children
            let children: Vec<ETree> = t
                .children
                .iter()
                .filter_map(|c| filter_tree(c, v, true))
                .collect();
            Some(ETree {
                kind: EKind::Stamp,
                sort_key: None,
                frontier: false,
                time: None,
                children,
            })
        }
        _ => {
            let mut children = Vec::new();
            for c in &t.children {
                if let Some(fc) = filter_tree(c, v, true) {
                    if matches!(fc.kind, EKind::Stamp) {
                        children.extend(fc.children);
                    } else {
                        children.push(fc);
                    }
                }
            }
            Some(ETree {
                kind: t.kind.clone(),
                sort_key: t.sort_key.clone(),
                frontier: t.frontier,
                time: None,
                children,
            })
        }
    }
}

fn tree_to_doc(t: &ETree) -> Document {
    let EKind::Element { tag, attrs } = &t.kind else {
        panic!("document root must be an element");
    };
    let mut doc = Document::new(tag);
    let root = doc.root();
    for (a, v) in attrs {
        doc.set_attr(root, a, v);
    }
    for c in &t.children {
        add_tree(&mut doc, root, c);
    }
    doc
}

fn add_tree(doc: &mut Document, parent: xarch_xml::NodeId, t: &ETree) {
    match &t.kind {
        EKind::Text(s) => {
            doc.add_text(parent, s);
        }
        EKind::Stamp => {
            for c in &t.children {
                add_tree(doc, parent, c);
            }
        }
        EKind::Element { tag, attrs } => {
            let e = doc.add_element(parent, tag);
            for (a, v) in attrs {
                doc.set_attr(e, a, v);
            }
            for c in &t.children {
                add_tree(doc, e, c);
            }
        }
    }
}

/// The streaming merge: both cursors are positioned at spine-open markers
/// with equal labels.
fn merge_spines(
    ar: &mut StreamCursor<'_>,
    vr: &mut StreamCursor<'_>,
    out: &mut PagedWriter,
    inherited: &TimeSet,
    i: u32,
) -> Result<()> {
    let mut ah = ar.take_spine_open()?;
    let vh = vr.take_spine_open()?;
    debug_assert_eq!(ah.sort_key, vh.sort_key, "spine labels must match");
    let t_cur = match ah.time.as_mut() {
        Some(t) => {
            t.insert(i);
            t.clone()
        }
        None => inherited.clone(),
    };
    let mut header = Vec::new();
    encode_spine_open(&ah, &mut header);
    out.write(&header);

    let mut t_term = t_cur.clone();
    t_term.remove(i);
    let t_new = TimeSet::from_version(i);

    loop {
        let pa = ar.peek()?;
        let pv = vr.peek()?;
        let ka = match &pa {
            Peeked::Small(Some(k)) | Peeked::Spine(Some(k)) => Some(k.clone()),
            Peeked::Close => None,
            _ => return Err(StreamError::new("unexpected entry in archive spine")),
        };
        let kv = match &pv {
            Peeked::Small(Some(k)) | Peeked::Spine(Some(k)) => Some(k.clone()),
            Peeked::Close => None,
            _ => return Err(StreamError::new("unexpected entry in version spine")),
        };
        match (ka, kv) {
            (None, None) => {
                ar.take_spine_close()?;
                vr.take_spine_close()?;
                let mut close = Vec::new();
                encode_spine_close(&mut close);
                out.write(&close);
                return Ok(());
            }
            (Some(_), None) => {
                // archive-only: output with terminated timestamp
                ar.copy_entry(out, Some(&t_term))?;
            }
            (None, Some(_)) => {
                // version-only: output with timestamp {i}
                vr.copy_entry(out, Some(&t_new))?;
            }
            (Some(a_key), Some(v_key)) => match a_key.cmp(&v_key) {
                std::cmp::Ordering::Less => {
                    ar.copy_entry(out, Some(&t_term))?;
                }
                std::cmp::Ordering::Greater => {
                    vr.copy_entry(out, Some(&t_new))?;
                }
                std::cmp::Ordering::Equal => {
                    match (
                        matches!(pa, Peeked::Spine(_)),
                        matches!(pv, Peeked::Spine(_)),
                    ) {
                        (true, true) => merge_spines(ar, vr, out, &t_cur, i)?,
                        (false, false) => {
                            let mut x = ar.take_small()?;
                            let y = vr.take_small()?;
                            merge_tree(&mut x, &y, &t_cur, i);
                            let mut bytes = Vec::new();
                            encode_small(&x, &mut bytes);
                            out.write(&bytes);
                        }
                        // A node crossed the size threshold between
                        // versions: materialize both sides (rare; bounded
                        // by one subtree).
                        (a_spine, _) => {
                            let mut x = if a_spine {
                                materialize_spine(ar)?
                            } else {
                                ar.take_small()?
                            };
                            let y = if a_spine {
                                vr.take_small()?
                            } else {
                                materialize_spine(vr)?
                            };
                            merge_tree(&mut x, &y, &t_cur, i);
                            let mut bytes = Vec::new();
                            encode_small(&x, &mut bytes);
                            out.write(&bytes);
                        }
                    }
                }
            },
        }
    }
}

/// One version stream of a batch: its cursor and absolute version number.
struct BatchCursor<'a> {
    cur: StreamCursor<'a>,
    v: u32,
}

/// What a cursor's front looks like at the current spine level.
enum Front {
    Key(String, bool), // sort key + whether the entry is a spine
    Close,
}

fn peek_front(cur: &StreamCursor<'_>, side: &str) -> Result<Front> {
    match cur.peek()? {
        Peeked::Close => Ok(Front::Close),
        Peeked::Small(Some(k)) => Ok(Front::Key(k, false)),
        Peeked::Spine(Some(k)) => Ok(Front::Key(k, true)),
        Peeked::Eof => Err(StreamError::new(format!("unterminated {side} spine"))),
        _ => Err(StreamError::new(format!(
            "unexpected entry in {side} spine"
        ))),
    }
}

/// The batch streaming merge: a (k+1)-way synchronized walk over one
/// archive spine and the matching spine of every version stream in
/// `active` (all cursors positioned just past their spine-open markers;
/// the walk consumes each spine's children and its close marker — the
/// caller writes the output open/close markers).
///
/// `eff0` is the current spine's **pre-batch** effective timestamp. Per
/// label, the walk reconstructs what `k` serial passes would emit:
///
/// * archive-only entries are copied with `set_time = eff0` — a serial
///   replay terminates them at the batch's first version `v₁` with
///   `t_cur(v₁) − {v₁} = eff0`, and `copy_entry` only stamps entries
///   that were inheriting, exactly like serial termination;
/// * entries matched in versions `P` recurse (spine × spines) or are
///   materialized and replayed serially in version order (any mix of
///   representations), with `t_cur(p) = eff0 ∪ {v ∈ present : v ≤ p}`;
///   a matched spine's header timestamp follows the same closed form as
///   the in-memory batch merge: `pre ∪ P` when explicit, still inherited
///   when `P` covers every present version, `eff0 ∪ P` otherwise;
/// * version-only entries are copied with timestamp `{v}` (one version)
///   or built by insert-then-merge in version order (several versions) —
///   the exact serial sequence.
fn batch_merge_level(
    mut ar: Option<&mut StreamCursor<'_>>,
    vs: &mut [BatchCursor<'_>],
    active: &[usize],
    eff0: &TimeSet,
    out: &mut PagedWriter,
) -> Result<()> {
    // versions present at this level, ascending (cursor order = version order)
    let present: Vec<u32> = active.iter().map(|&i| vs[i].v).collect();
    let t_cur = |upto: u32| {
        let mut t = eff0.clone();
        for &v in &present {
            if v <= upto {
                t.insert(v);
            }
        }
        t
    };
    loop {
        let a_front = match ar.as_deref() {
            Some(c) => Some(peek_front(c, "archive")?),
            None => None,
        };
        let ka = match &a_front {
            Some(Front::Key(k, sp)) => Some((k.clone(), *sp)),
            _ => None,
        };
        let mut fronts: Vec<(usize, String, bool)> = Vec::new();
        for &i in active {
            if let Front::Key(k, sp) = peek_front(&vs[i].cur, "version")? {
                fronts.push((i, k, sp));
            }
        }
        let min = fronts
            .iter()
            .map(|(_, k, _)| k.clone())
            .chain(ka.as_ref().map(|(k, _)| k.clone()))
            .min();
        let Some(min) = min else {
            // every cursor sits at its close marker: this level is done
            if let Some(c) = ar.as_deref_mut() {
                c.take_spine_close()?;
            }
            for &i in active {
                vs[i].cur.take_spine_close()?;
            }
            return Ok(());
        };
        let archive_here = ka.as_ref().filter(|(k, _)| *k == min).map(|&(_, sp)| sp);
        let parts: Vec<(usize, bool)> = fronts
            .iter()
            .filter(|(_, k, _)| *k == min)
            .map(|&(i, _, sp)| (i, sp))
            .collect();
        match archive_here {
            // archive-only: one serial termination at the batch's first
            // version, which resolves to the pre-batch effective time
            Some(_) if parts.is_empty() => {
                ar.as_deref_mut()
                    .expect("archive front")
                    .copy_entry(out, Some(eff0))?;
            }
            // matched, spine on every side: stay streaming
            Some(true) if parts.iter().all(|&(_, sp)| sp) => {
                let a_cur = ar.as_deref_mut().expect("archive front");
                let mut h = a_cur.take_spine_open()?;
                for &(i, _) in &parts {
                    vs[i].cur.take_spine_open()?;
                }
                let part_versions: Vec<u32> = parts.iter().map(|&(i, _)| vs[i].v).collect();
                let pre = h.time.clone();
                let eff0_child = pre.clone().unwrap_or_else(|| eff0.clone());
                h.time = match pre {
                    Some(mut t) => {
                        for &v in &part_versions {
                            t.insert(v);
                        }
                        Some(t)
                    }
                    None if part_versions == present => None,
                    None => {
                        let mut t = eff0.clone();
                        for &v in &part_versions {
                            t.insert(v);
                        }
                        Some(t)
                    }
                };
                let mut hb = Vec::new();
                encode_spine_open(&h, &mut hb);
                out.write(&hb);
                let sub: Vec<usize> = parts.iter().map(|&(i, _)| i).collect();
                batch_merge_level(ar.as_deref_mut(), vs, &sub, &eff0_child, out)?;
                let mut cb = Vec::new();
                encode_spine_close(&mut cb);
                out.write(&cb);
            }
            // matched, mixed representations (a node crossed the spine
            // threshold between versions): materialize once, then replay
            // the serial merge/terminate sequence in version order
            Some(a_spine) => {
                let a_cur = ar.as_deref_mut().expect("archive front");
                let mut x = if a_spine {
                    materialize_spine(a_cur)?
                } else {
                    a_cur.take_small()?
                };
                let mut pi = 0usize;
                for &v in &present {
                    if pi < parts.len() && vs[parts[pi].0].v == v {
                        let (i, sp) = parts[pi];
                        let y = if sp {
                            materialize_spine(&mut vs[i].cur)?
                        } else {
                            vs[i].cur.take_small()?
                        };
                        merge_tree(&mut x, &y, &t_cur(v), v);
                        pi += 1;
                    } else {
                        terminate(&mut x, &t_cur(v), v);
                    }
                }
                let mut bytes = Vec::new();
                encode_small(&x, &mut bytes);
                out.write(&bytes);
            }
            None => match parts.as_slice() {
                [] => unreachable!("min key came from some cursor"),
                // one version only: the serial copy with timestamp {v}
                [(i, _)] => {
                    let t_new = TimeSet::from_version(vs[*i].v);
                    vs[*i].cur.copy_entry(out, Some(&t_new))?;
                }
                // several versions, spine everywhere: the new spine's
                // timestamp is its presence set; children merge beneath it
                // with eff0 = ∅ (it has no pre-batch life)
                _ if parts.iter().all(|&(_, sp)| sp) => {
                    let (i0, _) = parts[0];
                    let mut h = vs[i0].cur.take_spine_open()?;
                    for &(i, _) in &parts[1..] {
                        vs[i].cur.take_spine_open()?;
                    }
                    let mut t = TimeSet::new();
                    for &(i, _) in &parts {
                        t.insert(vs[i].v);
                    }
                    h.time = Some(t);
                    let mut hb = Vec::new();
                    encode_spine_open(&h, &mut hb);
                    out.write(&hb);
                    let sub: Vec<usize> = parts.iter().map(|&(i, _)| i).collect();
                    batch_merge_level(None, vs, &sub, &TimeSet::new(), out)?;
                    let mut cb = Vec::new();
                    encode_spine_close(&mut cb);
                    out.write(&cb);
                }
                // several versions, mixed representations: insert at the
                // first version, merge the rest in — the serial sequence
                _ => {
                    let (i0, sp0) = parts[0];
                    let y0 = if sp0 {
                        materialize_spine(&mut vs[i0].cur)?
                    } else {
                        vs[i0].cur.take_small()?
                    };
                    let mut x = insert_new(&y0, vs[i0].v);
                    for &(i, sp) in &parts[1..] {
                        let y = if sp {
                            materialize_spine(&mut vs[i].cur)?
                        } else {
                            vs[i].cur.take_small()?
                        };
                        merge_tree(&mut x, &y, &t_cur(vs[i].v), vs[i].v);
                    }
                    let mut bytes = Vec::new();
                    encode_small(&x, &mut bytes);
                    out.write(&bytes);
                }
            },
        }
    }
}

/// Loads a whole spine into memory (only for size-threshold crossings).
fn materialize_spine(cur: &mut StreamCursor<'_>) -> Result<ETree> {
    let h = cur.take_spine_open()?;
    let mut children = Vec::new();
    loop {
        match cur.peek()? {
            Peeked::Close => {
                cur.take_spine_close()?;
                break;
            }
            Peeked::Eof => return Err(StreamError::new("unterminated spine")),
            Peeked::Small(_) => children.push(cur.take_small()?),
            Peeked::Spine(_) => children.push(materialize_spine(cur)?),
        }
    }
    Ok(ETree {
        kind: EKind::Element {
            tag: h.tag,
            attrs: h.attrs,
        },
        sort_key: h.sort_key,
        frontier: false,
        time: h.time,
        children,
    })
}
