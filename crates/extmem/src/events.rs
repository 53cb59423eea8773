//! Serialized event streams: the external archiver's on-disk format.
//!
//! A stream is a sequence of *entries*:
//!
//! * `0x01` — a **small node** (a whole subtree that fits in memory),
//!   length-prefixed so it can be skipped or copied without parsing;
//! * `0x02` — a text node; `0x03` — a stamp alternative (both only occur
//!   inside small nodes);
//! * `0x04`/`0x05` — **spine open/close**: a node whose subtree exceeds the
//!   memory budget and is therefore streamed child by child.
//!
//! Every keyed entry carries its label sort key up front, so sorting and
//! merging read a handful of bytes per comparison — the role the paper's
//! key files play in §6.1. Tag names are stored inline (generated data has
//! tiny vocabularies; an id dictionary would change constants, not
//! asymptotics).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use xarch_core::state::MAX_TREE_DEPTH;
use xarch_core::TimeSet;

use crate::etree::{EKind, ETree};
use crate::io::{PagedReader, PagedWriter};

pub const KIND_SMALL: u8 = 0x01;
pub const KIND_TEXT: u8 = 0x02;
pub const KIND_STAMP: u8 = 0x03;
pub const KIND_SPINE_OPEN: u8 = 0x04;
pub const KIND_SPINE_CLOSE: u8 = 0x05;

pub const FLAG_TIME: u8 = 1;
pub const FLAG_KEY: u8 = 2;
const FLAG_FRONTIER: u8 = 4;

/// Errors raised while decoding a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    /// What failed to decode.
    pub reason: String,
    /// Byte offset into the stream where decoding failed, when known.
    pub offset: Option<u64>,
}

impl StreamError {
    /// A decoding failure with no specific position.
    pub fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
            offset: None,
        }
    }

    /// A decoding failure at byte `offset` of the stream.
    pub fn at(offset: usize, reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
            offset: Some(offset as u64),
        }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.offset {
            Some(o) => write!(f, "event stream error at byte {o}: {}", self.reason),
            None => write!(f, "event stream error: {}", self.reason),
        }
    }
}

impl std::error::Error for StreamError {}

/// Stream failures surface through the unified store error so
/// `Box<dyn VersionStore>` callers handle one error type. Positioned
/// errors are genuine decode failures and map to [`StoreError::Corrupt`]
/// with their byte offset; position-less ones are input/validation
/// rejections (unkeyed root, oversized node) and stay
/// [`StoreError::Backend`] — telling a caller whose *document* was bad
/// that their *archive* is corrupt would be worse than useless.
///
/// [`StoreError::Corrupt`]: xarch_core::StoreError::Corrupt
/// [`StoreError::Backend`]: xarch_core::StoreError::Backend
impl From<StreamError> for xarch_core::StoreError {
    fn from(e: StreamError) -> Self {
        match e.offset {
            Some(offset) => xarch_core::StoreError::Corrupt {
                offset,
                reason: e.reason,
            },
            None => xarch_core::StoreError::Backend(e.reason),
        }
    }
}

type Result<T> = std::result::Result<T, StreamError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(StreamError::new(msg))
}

fn err_at<T>(offset: usize, msg: impl Into<String>) -> Result<T> {
    Err(StreamError::at(offset, msg))
}

// ---------- primitive encoding ----------
//
// The byte-level primitives (LEB128 varints, length-prefixed strings)
// are shared workspace-wide: `xarch_core::wire` owns them so the event
// streams, the checkpoint state codec, and the durable block payloads
// all speak one grammar (`docs/FORMAT.md` §Primitives). These wrappers
// keep this module's positioned `StreamError` vocabulary.

pub fn put_varint(out: &mut Vec<u8>, v: u64) {
    xarch_core::wire::put_varint(out, v);
}

pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    xarch_core::wire::get_varint(buf, pos).map_err(|e| StreamError::at(e.offset, e.reason))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    xarch_core::wire::put_str(out, s);
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    xarch_core::wire::get_str(buf, pos).map_err(|e| StreamError::at(e.offset, e.reason))
}

// ---------- small-node encoding ----------

/// Encodes a whole fragment as a *small* entry.
// Recursive, bounded by MAX_TREE_DEPTH: fragments come from annotated
// documents or `decode_small`, and both refuse deeper.
pub fn encode_small(tree: &ETree, out: &mut Vec<u8>) {
    match &tree.kind {
        EKind::Text(t) => {
            out.push(KIND_TEXT);
            put_str(out, t);
        }
        EKind::Stamp => {
            out.push(KIND_STAMP);
            let mut body = Vec::new();
            #[expect(
                clippy::expect_used,
                reason = "encoder input invariant: the builder always stamps Stamp nodes; this is not a decode path"
            )]
            let time = tree.time.as_ref().expect("stamp time");
            put_str(&mut body, &time.to_string());
            for c in &tree.children {
                encode_small(c, &mut body);
            }
            put_varint(out, body.len() as u64);
            out.extend_from_slice(&body);
        }
        EKind::Element { tag, attrs } => {
            out.push(KIND_SMALL);
            let mut flags = 0u8;
            if tree.time.is_some() {
                flags |= FLAG_TIME;
            }
            if tree.sort_key.is_some() {
                flags |= FLAG_KEY;
            }
            if tree.frontier {
                flags |= FLAG_FRONTIER;
            }
            out.push(flags);
            let mut body = Vec::new();
            if let Some(k) = &tree.sort_key {
                put_str(&mut body, k);
            }
            put_str(&mut body, tag);
            put_varint(&mut body, attrs.len() as u64);
            for (a, v) in attrs {
                put_str(&mut body, a);
                put_str(&mut body, v);
            }
            if let Some(t) = &tree.time {
                put_str(&mut body, &t.to_string());
            }
            for c in &tree.children {
                encode_small(c, &mut body);
            }
            put_varint(out, body.len() as u64);
            out.extend_from_slice(&body);
        }
    }
}

/// Decodes one small entry from a raw buffer, advancing `pos`. Entries
/// nested deeper than an archive's tree reaches ([`MAX_TREE_DEPTH`]) are
/// refused.
pub fn decode_small(buf: &[u8], pos: &mut usize) -> Result<ETree> {
    decode_nested(buf, pos, 0)
}

/// [`decode_small`] of an entry `depth` entries inside the one decoded.
// Recursive, bounded by MAX_TREE_DEPTH: deeper entries are refused.
fn decode_nested(buf: &[u8], pos: &mut usize, depth: usize) -> Result<ETree> {
    if depth > MAX_TREE_DEPTH {
        return err_at(*pos, format!("entries nest deeper than {MAX_TREE_DEPTH}"));
    }
    let Some(&kind) = buf.get(*pos) else {
        return err_at(*pos, "truncated entry");
    };
    *pos += 1;
    match kind {
        KIND_TEXT => {
            let t = get_str(buf, pos)?;
            Ok(ETree {
                kind: EKind::Text(t),
                sort_key: None,
                frontier: false,
                time: None,
                children: Vec::new(),
            })
        }
        KIND_STAMP => {
            let body_len = get_varint(buf, pos)? as usize;
            let Some(end) = pos.checked_add(body_len).filter(|&e| e <= buf.len()) else {
                return err_at(*pos, "truncated stamp body");
            };
            let time =
                TimeSet::parse(&get_str(buf, pos)?).map_err(|e| StreamError::new(e.to_string()))?;
            let mut children = Vec::new();
            while *pos < end {
                children.push(decode_nested(buf, pos, depth + 1)?);
            }
            Ok(ETree {
                kind: EKind::Stamp,
                sort_key: None,
                frontier: false,
                time: Some(time),
                children,
            })
        }
        KIND_SMALL => {
            let Some(&flags) = buf.get(*pos) else {
                return err_at(*pos, "truncated flags");
            };
            *pos += 1;
            let body_len = get_varint(buf, pos)? as usize;
            let Some(end) = pos.checked_add(body_len).filter(|&e| e <= buf.len()) else {
                return err_at(*pos, "truncated node body");
            };
            let sort_key = if flags & FLAG_KEY != 0 {
                Some(get_str(buf, pos)?)
            } else {
                None
            };
            let tag = get_str(buf, pos)?;
            let n_attrs = get_varint(buf, pos)? as usize;
            // grown by pushing: the count is untrusted input
            let mut attrs = Vec::new();
            for _ in 0..n_attrs {
                let a = get_str(buf, pos)?;
                let v = get_str(buf, pos)?;
                attrs.push((a, v));
            }
            let time = if flags & FLAG_TIME != 0 {
                Some(
                    TimeSet::parse(&get_str(buf, pos)?)
                        .map_err(|e| StreamError::new(e.to_string()))?,
                )
            } else {
                None
            };
            let mut children = Vec::new();
            while *pos < end {
                children.push(decode_nested(buf, pos, depth + 1)?);
            }
            Ok(ETree {
                kind: EKind::Element { tag, attrs },
                sort_key,
                frontier: flags & FLAG_FRONTIER != 0,
                time,
                children,
            })
        }
        k => err_at(
            *pos - 1,
            format!("unexpected entry kind {k} in small context"),
        ),
    }
}

// ---------- spine encoding ----------

/// The header of a spine (streamed) node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpineHeader {
    pub tag: String,
    pub attrs: Vec<(String, String)>,
    pub sort_key: Option<String>,
    pub time: Option<TimeSet>,
}

/// Encodes a spine-open marker.
pub fn encode_spine_open(h: &SpineHeader, out: &mut Vec<u8>) {
    out.push(KIND_SPINE_OPEN);
    let mut flags = 0u8;
    if h.time.is_some() {
        flags |= FLAG_TIME;
    }
    if h.sort_key.is_some() {
        flags |= FLAG_KEY;
    }
    out.push(flags);
    if let Some(k) = &h.sort_key {
        put_str(out, k);
    }
    put_str(out, &h.tag);
    put_varint(out, h.attrs.len() as u64);
    for (a, v) in &h.attrs {
        put_str(out, a);
        put_str(out, v);
    }
    if let Some(t) = &h.time {
        put_str(out, &t.to_string());
    }
}

/// Encodes a spine-close marker.
pub fn encode_spine_close(out: &mut Vec<u8>) {
    out.push(KIND_SPINE_CLOSE);
}

fn decode_spine_header(buf: &[u8], pos: &mut usize) -> Result<SpineHeader> {
    let Some(&flags) = buf.get(*pos) else {
        return err_at(*pos, "truncated spine flags");
    };
    *pos += 1;
    let sort_key = if flags & FLAG_KEY != 0 {
        Some(get_str(buf, pos)?)
    } else {
        None
    };
    let tag = get_str(buf, pos)?;
    let n_attrs = get_varint(buf, pos)? as usize;
    // grown by pushing: the count is untrusted input
    let mut attrs = Vec::new();
    for _ in 0..n_attrs {
        let a = get_str(buf, pos)?;
        let v = get_str(buf, pos)?;
        attrs.push((a, v));
    }
    let time = if flags & FLAG_TIME != 0 {
        Some(TimeSet::parse(&get_str(buf, pos)?).map_err(|e| StreamError::new(e.to_string()))?)
    } else {
        None
    };
    Ok(SpineHeader {
        tag,
        attrs,
        sort_key,
        time,
    })
}

// ---------- stream cursor ----------

/// What the cursor sees next at the top level of a spine's child list.
#[derive(Debug)]
pub enum Peeked {
    /// A small (in-memory) entry with its sort key (None = unkeyed).
    Small(Option<String>),
    /// A nested spine with its sort key.
    Spine(Option<String>),
    /// End of the current spine's children.
    Close,
    /// End of stream.
    Eof,
}

/// A reading cursor over an event stream with paged-I/O accounting.
pub struct StreamCursor<'a> {
    pub reader: PagedReader<'a>,
    buf: &'a [u8],
}

impl<'a> StreamCursor<'a> {
    pub fn new(buf: &'a [u8], page: usize) -> Self {
        Self {
            reader: PagedReader::new(buf, page),
            buf,
        }
    }

    /// Peeks the kind and sort key of the next entry without consuming it
    /// (no I/O charged — peeks hit the read buffer).
    pub fn peek(&self) -> Result<Peeked> {
        let pos = self.reader.position();
        let Some(&kind) = self.buf.get(pos) else {
            return Ok(Peeked::Eof);
        };
        match kind {
            KIND_SPINE_CLOSE => Ok(Peeked::Close),
            KIND_SMALL => {
                let mut p = pos + 1;
                let Some(&flags) = self.buf.get(p) else {
                    return err_at(p, "truncated flags");
                };
                p += 1;
                let _body = get_varint(self.buf, &mut p)?;
                let key = if flags & FLAG_KEY != 0 {
                    Some(get_str(self.buf, &mut p)?)
                } else {
                    None
                };
                Ok(Peeked::Small(key))
            }
            KIND_TEXT => Ok(Peeked::Small(None)),
            KIND_SPINE_OPEN => {
                let mut p = pos + 1;
                let Some(&flags) = self.buf.get(p) else {
                    return err_at(p, "truncated spine flags");
                };
                p += 1;
                let key = if flags & FLAG_KEY != 0 {
                    Some(get_str(self.buf, &mut p)?)
                } else {
                    None
                };
                Ok(Peeked::Spine(key))
            }
            k => err(format!("unexpected entry kind {k}")),
        }
    }

    /// Consumes and decodes a small entry (charges reads).
    pub fn take_small(&mut self) -> Result<ETree> {
        let start = self.reader.position();
        let mut pos = start;
        let tree = decode_small(self.buf, &mut pos)?;
        let len = pos - start;
        self.reader
            .read(len)
            .ok_or_else(|| StreamError::new("EOF"))?;
        Ok(tree)
    }

    /// Consumes a spine-open marker, returning its header.
    pub fn take_spine_open(&mut self) -> Result<SpineHeader> {
        let start = self.reader.position();
        if self.buf.get(start) != Some(&KIND_SPINE_OPEN) {
            return err_at(start, "expected spine open");
        }
        let mut pos = start + 1;
        let h = decode_spine_header(self.buf, &mut pos)?;
        let len = pos - start;
        self.reader
            .read(len)
            .ok_or_else(|| StreamError::new("EOF"))?;
        Ok(h)
    }

    /// Consumes a spine-close marker.
    pub fn take_spine_close(&mut self) -> Result<()> {
        if self.buf.get(self.reader.position()) != Some(&KIND_SPINE_CLOSE) {
            return err_at(self.reader.position(), "expected spine close");
        }
        self.reader.read(1).ok_or_else(|| StreamError::new("EOF"))?;
        Ok(())
    }

    /// Copies the entire next entry (small node or nested spine) to `out`,
    /// optionally overriding the timestamp of the entry's root node.
    /// Charges reads and writes.
    pub fn copy_entry(&mut self, out: &mut PagedWriter, set_time: Option<&TimeSet>) -> Result<()> {
        let mut set_time = set_time;
        // spines opened and not yet closed: their children are copied
        // verbatim until the matching close
        let mut open = 0usize;
        loop {
            let mut bytes = Vec::new();
            match self.peek()? {
                Peeked::Small(_) => {
                    let mut tree = self.take_small()?;
                    if let Some(t) = set_time.take() {
                        tree.time.get_or_insert_with(|| t.clone());
                    }
                    encode_small(&tree, &mut bytes);
                }
                Peeked::Spine(_) => {
                    let mut h = self.take_spine_open()?;
                    if let Some(t) = set_time.take() {
                        h.time.get_or_insert_with(|| t.clone());
                    }
                    encode_spine_open(&h, &mut bytes);
                    open += 1;
                }
                Peeked::Close if open > 0 => {
                    self.take_spine_close()?;
                    encode_spine_close(&mut bytes);
                    open -= 1;
                }
                Peeked::Eof if open > 0 => return err("unterminated spine"),
                Peeked::Close => return err("cannot copy a close marker"),
                Peeked::Eof => return err("cannot copy at EOF"),
            }
            out.write(&bytes);
            if open == 0 {
                return Ok(());
            }
        }
    }

    pub fn pages_read(&self) -> u64 {
        self.reader.pages_read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::EKind;

    fn leaf(tag: &str, text: &str) -> ETree {
        ETree {
            kind: EKind::Element {
                tag: tag.into(),
                attrs: vec![("id".into(), "1".into())],
            },
            sort_key: Some(format!("{tag}\u{0}")),
            frontier: true,
            time: Some(TimeSet::from_range(1, 3)),
            children: vec![ETree {
                kind: EKind::Text(text.into()),
                sort_key: None,
                frontier: false,
                time: None,
                children: Vec::new(),
            }],
        }
    }

    #[test]
    fn small_round_trip() {
        let t = leaf("rec", "hello world");
        let mut buf = Vec::new();
        encode_small(&t, &mut buf);
        let mut pos = 0;
        let back = decode_small(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back, t);
    }

    #[test]
    fn stamp_round_trip() {
        let t = ETree {
            kind: EKind::Stamp,
            sort_key: None,
            frontier: false,
            time: Some(TimeSet::from_version(4)),
            children: vec![leaf("x", "y")],
        };
        let mut buf = Vec::new();
        encode_small(&t, &mut buf);
        let mut pos = 0;
        assert_eq!(decode_small(&buf, &mut pos).unwrap(), t);
    }

    #[test]
    fn spine_markers_and_cursor() {
        let mut buf = Vec::new();
        let h = SpineHeader {
            tag: "root".into(),
            attrs: Vec::new(),
            sort_key: Some("root\u{0}".into()),
            time: Some(TimeSet::from_version(1)),
        };
        encode_spine_open(&h, &mut buf);
        encode_small(&leaf("rec", "a"), &mut buf);
        encode_small(&leaf("rec", "b"), &mut buf);
        encode_spine_close(&mut buf);

        let mut cur = StreamCursor::new(&buf, 64);
        assert!(matches!(cur.peek().unwrap(), Peeked::Spine(Some(_))));
        let got = cur.take_spine_open().unwrap();
        assert_eq!(got, h);
        assert!(matches!(cur.peek().unwrap(), Peeked::Small(Some(_))));
        let a = cur.take_small().unwrap();
        assert_eq!(a, leaf("rec", "a"));
        // copy the second entry with a time override
        let mut out = PagedWriter::new(64);
        cur.copy_entry(&mut out, Some(&TimeSet::from_version(9)))
            .unwrap();
        assert!(matches!(cur.peek().unwrap(), Peeked::Close));
        cur.take_spine_close().unwrap();
        assert!(matches!(cur.peek().unwrap(), Peeked::Eof));
        // the copied entry kept its own (existing) time
        let (bytes, _) = out.finish();
        let mut pos = 0;
        let copied = decode_small(&bytes, &mut pos).unwrap();
        assert_eq!(copied.time, Some(TimeSet::from_range(1, 3)));
    }

    #[test]
    fn copy_sets_time_when_absent() {
        let mut t = leaf("rec", "a");
        t.time = None;
        let mut buf = Vec::new();
        encode_small(&t, &mut buf);
        let mut cur = StreamCursor::new(&buf, 64);
        let mut out = PagedWriter::new(64);
        cur.copy_entry(&mut out, Some(&TimeSet::from_version(7)))
            .unwrap();
        let (bytes, _) = out.finish();
        let mut pos = 0;
        let copied = decode_small(&bytes, &mut pos).unwrap();
        assert_eq!(copied.time, Some(TimeSet::from_version(7)));
    }

    #[test]
    fn corrupt_stream_errors() {
        assert!(decode_small(&[KIND_SMALL], &mut 0).is_err());
        assert!(decode_small(&[], &mut 0).is_err());
        let cur = StreamCursor::new(&[KIND_SPINE_CLOSE], 8);
        assert!(matches!(cur.peek().unwrap(), Peeked::Close));
    }

    #[test]
    fn crafted_huge_lengths_error_instead_of_overflowing() {
        // a text entry whose declared string length is near u64::MAX: the
        // bounds check must fail cleanly, not overflow `pos + len`
        let mut buf = vec![KIND_TEXT];
        put_varint(&mut buf, u64::MAX - 1);
        assert!(decode_small(&buf, &mut 0).is_err());
        // same for a stamp body length
        let mut buf = vec![KIND_STAMP];
        put_varint(&mut buf, u64::MAX - 1);
        assert!(decode_small(&buf, &mut 0).is_err());
        // and a small-node body length
        let mut buf = vec![KIND_SMALL, 0];
        put_varint(&mut buf, u64::MAX - 1);
        assert!(decode_small(&buf, &mut 0).is_err());
    }

    /// Entries nested as deep as an archive's tree reaches decode; one
    /// deeper — however much deeper the stream goes on — is refused at the
    /// entry, not recursed into.
    #[test]
    fn entries_nested_past_an_archives_depth_are_refused() {
        // `n` small entries, each the one child of the last, no text
        let nested = |n: usize| {
            let mut buf = Vec::new();
            for _ in 0..n {
                // an empty tag and no attributes: two body bytes before
                // the child
                let mut wrapped = vec![KIND_SMALL, 0];
                put_varint(&mut wrapped, buf.len() as u64 + 2);
                wrapped.extend_from_slice(&[0, 0]);
                wrapped.extend_from_slice(&buf);
                buf = wrapped;
            }
            buf
        };
        let deepest = nested(MAX_TREE_DEPTH + 1);
        let mut pos = 0;
        decode_small(&deepest, &mut pos).unwrap();
        assert_eq!(pos, deepest.len());
        for n in [MAX_TREE_DEPTH + 2, 5_000] {
            let e = decode_small(&nested(n), &mut 0).unwrap_err();
            assert!(e.reason.contains("nest deeper"), "{e}");
        }
    }

    #[test]
    fn store_error_taxonomy_tracks_offsets() {
        // positioned decode failures are corruption with their offset…
        let e: xarch_core::StoreError = StreamError::at(17, "truncated string").into();
        assert!(
            matches!(e, xarch_core::StoreError::Corrupt { offset: 17, .. }),
            "{e}"
        );
        // …while position-less input rejections stay backend errors
        let e: xarch_core::StoreError = StreamError::new("document root has no key").into();
        assert!(matches!(e, xarch_core::StoreError::Backend(_)), "{e}");
    }
}
