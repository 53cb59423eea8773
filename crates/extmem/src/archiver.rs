//! The external-memory archiver of §6 and its streaming merge (§6.3).
//!
//! "This step is very much like [the sort] except that frontier nodes are
//! handled differently ... Initially x is the root of A′ and y is a virtual
//! root of D′ with the same key as x, and x and y proceed through A′ and D′
//! in document order. If label(x) < label(y), we output x and its entire
//! subtree and attach the current timestamp ... If label(x) > label(y) we
//! output y and its entire subtree and attach timestamp i ... Otherwise we
//! output x [with i added] ... Since this step makes one pass through the
//! archive and version, it incurs O(N/B) I/Os."
//!
//! [`ExtArchive`] is the §6 reproduction, not a serving backend: it
//! archives versions one merge pass at a time, retrieves them with one
//! streaming pass, and counts the pages each pass touches.

use std::io::Write;

use xarch_core::store::StoreError;
use xarch_core::TimeSet;
use xarch_keys::{annotate, KeySpec};
use xarch_xml::escape::{write_attr_pair, write_text};
use xarch_xml::{Builder, Document};

use crate::etree::{merge_tree, EKind, ETree};
use crate::events::{
    encode_small, encode_spine_close, encode_spine_open, Peeked, SpineHeader, StreamCursor,
    StreamError,
};
use crate::io::{IoConfig, IoStats, PagedWriter, SharedIoStats};
use crate::sort::write_sorted_version;

type Result<T> = std::result::Result<T, StreamError>;

/// The external-memory archive: a sorted event stream plus I/O accounting.
///
/// Retrieval takes `&self` and charges its page reads through atomics
/// ([`SharedIoStats`]), so the archive stays `Send + Sync`.
#[derive(Debug)]
pub struct ExtArchive {
    spec: KeySpec,
    cfg: IoConfig,
    data: Vec<u8>,
    latest: u32,
    stats: SharedIoStats,
}

/// The synthetic root spine every stream is wrapped in; `time` is `None`
/// in a version stream and the root's timestamp in the archive.
fn root_spine(time: Option<TimeSet>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_spine_open(
        &SpineHeader {
            tag: "root".into(),
            attrs: Vec::new(),
            sort_key: Some("root\u{0}".into()),
            time,
        },
        &mut out,
    );
    encode_spine_close(&mut out);
    out
}

impl ExtArchive {
    /// Creates an empty external archive.
    pub fn new(spec: KeySpec, cfg: IoConfig) -> Self {
        Self {
            spec,
            cfg,
            data: root_spine(Some(TimeSet::new())),
            latest: 0,
            stats: SharedIoStats::default(),
        }
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
        self.merge_version(&sorted)
    }

    /// Archives an *empty* database as the next version: one merge pass
    /// against a version stream holding only the virtual root, so every
    /// archived element is terminated while the root keeps ticking —
    /// `has_version` then answers `true` and `retrieve` answers `None`,
    /// matching the in-memory archiver's contract.
    pub fn add_empty_version(&mut self) -> Result<u32> {
        self.merge_version(&root_spine(None))
    }

    /// One §6.3 merge pass of the sorted version stream `sorted` into the
    /// archive, as version `latest + 1`.
    fn merge_version(&mut self, sorted: &[u8]) -> Result<u32> {
        let i = self.latest + 1;
        let mut ar = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let mut vr = StreamCursor::new(sorted, self.cfg.page_bytes);
        let mut out = PagedWriter::new(self.cfg.page_bytes);
        merge_spines(&mut ar, &mut vr, &mut out, &TimeSet::new(), i)?;
        self.stats.add_reads(ar.pages_read() + vr.pages_read());
        let (bytes, writes) = out.finish();
        self.stats.add_writes(writes);
        self.data = bytes;
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

    /// Retrieves version `v` with one streaming pass.
    pub fn retrieve(&self, v: u32) -> Result<Option<Document>> {
        if v == 0 || v > self.latest {
            return Ok(None);
        }
        let mut cur = StreamCursor::new(&self.data, self.cfg.page_bytes);
        let root = read_visible(&mut cur, v)?;
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

/// Reads the next entry (spine or small) as a *version-v* filtered ETree.
/// Returns `None` when the entry is not visible at `v`.
fn read_visible(cur: &mut StreamCursor<'_>, v: u32) -> Result<Option<ETree>> {
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
                        if let Some(c) = read_visible(cur, v)? {
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
    let mut b = Builder::new(tag);
    for (a, v) in attrs {
        b.attr(a, v);
    }
    for c in &t.children {
        add_tree(&mut b, c);
    }
    b.finish()
}

/// Adds `t` to the element open in `b`, a stamp by its children.
fn add_tree(b: &mut Builder, t: &ETree) {
    match &t.kind {
        EKind::Text(s) => {
            b.text(s);
        }
        EKind::Stamp => {
            for c in &t.children {
                add_tree(b, c);
            }
        }
        EKind::Element { tag, attrs } => {
            b.open(tag);
            for (a, v) in attrs {
                b.attr(a, v);
            }
            for c in &t.children {
                add_tree(b, c);
            }
            b.close();
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
