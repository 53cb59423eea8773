//! Version payloads: a [`Document`] serialized as an `xarch_extmem` event
//! stream.
//!
//! The journal records the *input* of each commit — the version document —
//! not the merged archive state: replaying the documents through the same
//! deterministic merge rebuilds the exact pre-crash archive, and the blocks
//! stay valid even if the in-memory merge representation evolves. Reusing
//! the external archiver's small-node encoding means one on-disk grammar
//! across the system (keys and timestamps are simply absent here: the
//! payload tree is a plain document).
//!
//! Both directions go straight between the bytes and the [`Document`]. A
//! small entry carries the byte length of its body *before* the body, so
//! [`doc_to_bytes`] makes two passes over the document — one to add up
//! every element's body length, one to write — instead of encoding each
//! subtree into a buffer of its own to learn its length, and
//! [`bytes_to_doc`] grows the document as it reads. The bytes are the
//! ones `encode_small` writes for the same tree and the refusals the ones
//! `decode_small` makes; the tests hold both to that.
//!
//! Reading is one `walk` over the entries, every bound checked, handing
//! what it reads — open, attribute, text, close — to a sink that says of
//! each element whether to enter it, step over it by its declared length,
//! or stop: [`bytes_to_doc`]'s sink builds the [`Document`],
//! [`bytes_to_xml`]'s writes the XML the document would serialize to
//! without building it, and the cold reader's key each candidate off its
//! entries, look for one element and step over the rest.

use xarch_core::wire;
use xarch_core::{StoreError, TimeSet};
use xarch_extmem::events::{FLAG_KEY, FLAG_TIME, KIND_SMALL, KIND_STAMP, KIND_TEXT};
use xarch_extmem::{decode_small, get_varint, StreamError};
use xarch_xml::escape::{escape_text_into, push_attr_pair};
use xarch_xml::{Builder, Document, NodeId, NodeKind, MAX_BYTES, MAX_DEPTH};

/// Encodes `doc` as one small-node event entry. A document nested deeper
/// than [`MAX_DEPTH`] is refused: the walk would refuse to read it back.
pub fn doc_to_bytes(doc: &Document) -> Result<Vec<u8>, StreamError> {
    let mut out = Vec::new();
    Encoder::default().entry(doc, false, &mut out)?;
    Ok(out)
}

/// The two passes of [`doc_to_bytes`], with the scratch list of body
/// lengths kept between documents.
#[derive(Default)]
struct Encoder {
    /// The body length of every element, in document order.
    bodies: Vec<usize>,
    /// How many of `bodies` the second pass has written.
    emitted: usize,
}

impl Encoder {
    /// Appends `doc`'s entry to `out`, after its length as a varint when
    /// `prefixed`; refuses a document nested deeper than [`MAX_DEPTH`]
    /// before writing anything.
    fn entry(
        &mut self,
        doc: &Document,
        prefixed: bool,
        out: &mut Vec<u8>,
    ) -> Result<(), StreamError> {
        self.bodies.clear();
        self.emitted = 0;
        let Some(len) = self.measure(doc, doc.root(), 1) else {
            let deep = format!("document nests deeper than {MAX_DEPTH} elements");
            return Err(StreamError::new(deep));
        };
        out.reserve(len + varint_len(len));
        if prefixed {
            wire::put_varint(out, len as u64);
        }
        self.emit(doc, doc.root(), out);
        Ok(())
    }

    /// First pass: the encoded length of the entry for `id`, `depth`
    /// elements deep, with the body length of `id` and every element
    /// beneath pushed onto `bodies` in document order — the order
    /// [`Encoder::emit`] reads them in. `None` once an element lies deeper
    /// than [`MAX_DEPTH`].
    // Recursive, bounded by MAX_DEPTH: an element deeper ends the pass.
    fn measure(&mut self, doc: &Document, id: NodeId, depth: usize) -> Option<usize> {
        match doc.kind(id) {
            NodeKind::Text(t) => Some(1 + str_len(t)),
            NodeKind::Element(tag) => {
                if depth > MAX_DEPTH {
                    return None;
                }
                let slot = self.bodies.len();
                self.bodies.push(0);
                let attrs = doc.attrs(id);
                let mut body = str_len(doc.syms().resolve(tag)) + varint_len(attrs.len());
                for (a, v) in attrs {
                    body += str_len(doc.syms().resolve(a)) + str_len(v);
                }
                for &c in doc.children(id) {
                    body += self.measure(doc, c, depth + 1)?;
                }
                if let Some(pushed) = self.bodies.get_mut(slot) {
                    *pushed = body;
                }
                // kind, flags, body length, body
                Some(2 + varint_len(body) + body)
            }
        }
    }

    /// Second pass: appends the entry for `id`.
    // Recursive, bounded by MAX_DEPTH: it runs on what `measure` admitted.
    fn emit(&mut self, doc: &Document, id: NodeId, out: &mut Vec<u8>) {
        match doc.kind(id) {
            NodeKind::Text(t) => {
                out.push(KIND_TEXT);
                wire::put_str(out, t);
            }
            NodeKind::Element(tag) => {
                // a plain document: no key, no timestamp, no frontier flag
                out.extend_from_slice(&[KIND_SMALL, 0]);
                // `measure` pushed one length per element, in this order
                let body = self.bodies.get(self.emitted).copied();
                debug_assert!(body.is_some(), "an element `measure` did not see");
                wire::put_varint(out, body.unwrap_or_default() as u64);
                self.emitted += 1;
                wire::put_str(out, doc.syms().resolve(tag));
                let attrs = doc.attrs(id);
                wire::put_varint(out, attrs.len() as u64);
                for (a, v) in attrs {
                    wire::put_str(out, doc.syms().resolve(a));
                    wire::put_str(out, v);
                }
                for &c in doc.children(id) {
                    self.emit(doc, c, out);
                }
            }
        }
    }
}

/// Bytes [`wire::put_varint`] writes for `v`.
fn varint_len(mut v: usize) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

/// Bytes [`wire::put_str`] writes for `s`.
fn str_len(s: &str) -> usize {
    varint_len(s.len()) + s.len()
}

/// Decodes a payload written by [`doc_to_bytes`] back into a [`Document`].
pub fn bytes_to_doc(buf: &[u8]) -> Result<Document, StreamError> {
    doc_beneath(buf, 0)
}

/// [`bytes_to_doc`] of an element's entry, cut from a payload in which
/// `above` elements enclose it.
pub(crate) fn doc_beneath(buf: &[u8], above: usize) -> Result<Document, StreamError> {
    let mut built = DocBuilder::default();
    walk(buf, above, &mut built)?;
    // `walk` refuses a payload that does not begin an element
    built
        .finish()
        .ok_or_else(|| StreamError::new("version payload root is not an element"))
}

/// The document a [`doc_to_bytes`] payload holds as compact XML — what
/// `to_compact_string(&bytes_to_doc(buf)?)` returns, refused exactly when
/// and as [`bytes_to_doc`] refuses — written straight from the entry
/// bytes, no document built.
pub fn bytes_to_xml(buf: &[u8]) -> Result<String, StreamError> {
    let mut written = XmlWriter {
        // markup and escapes add about a tenth to the entry bytes
        out: String::with_capacity(buf.len() + buf.len() / 4),
        open: false,
        attrs: Vec::new(),
    };
    walk(buf, 0, &mut written)?;
    Ok(written.out)
}

/// What a [`Sink`] wants of the element [`walk`] has just opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Visit {
    /// Its attributes, its content, and its close.
    Enter,
    /// Nothing: it is stepped over by its declared length, unread.
    Skip,
    /// Nothing, of it or of the rest of the payload: the walk ends here.
    Stop,
}

/// What [`walk`] hands the entries of a payload to, in document order.
pub(crate) trait Sink<'b> {
    /// An element entry begins, with this tag. `entry` is the whole of it
    /// by the length it declares — a payload of its own, for another
    /// [`walk`] — and `at` its offset in the payload walked.
    fn open(&mut self, tag: &'b str, at: usize, entry: &'b [u8]) -> Result<Visit, StreamError>;
    /// An attribute of the element just entered.
    fn attr(&mut self, name: &'b str, value: &'b str);
    /// A text entry.
    fn text(&mut self, text: &'b str);
    /// The innermost element entered, of this tag, ends.
    fn close(&mut self, tag: &'b str);
}

/// The sink that builds the [`Document`] through an `xarch_xml`
/// [`Builder`] sized from the entry walked: [`bytes_to_doc`]'s, and the
/// cold reader's for the element it returns. The builder folds what the
/// document would: empty text, and an attribute named twice.
#[derive(Debug, Default)]
struct DocBuilder {
    built: Option<Builder>,
}

impl DocBuilder {
    /// The document built; `None` if no element opened.
    fn finish(self) -> Option<Document> {
        self.built.map(Builder::finish)
    }
}

impl<'b> Sink<'b> for DocBuilder {
    #[inline]
    fn open(&mut self, tag: &'b str, at: usize, entry: &'b [u8]) -> Result<Visit, StreamError> {
        match &mut self.built {
            Some(b) => {
                b.open(tag);
            }
            // the root's entry holds every string the document will
            None if entry.len() > MAX_BYTES => {
                let long = format!("an element entry longer than {MAX_BYTES} bytes");
                return Err(StreamError::at(at, long));
            }
            None => self.built = Some(Builder::with_capacity(tag, entry.len())),
        }
        Ok(Visit::Enter)
    }

    #[inline]
    fn attr(&mut self, name: &'b str, value: &'b str) {
        if let Some(b) = &mut self.built {
            b.attr(name, value);
        }
    }

    #[inline]
    fn text(&mut self, text: &'b str) {
        if let Some(b) = &mut self.built {
            b.text(text);
        }
    }

    #[inline]
    fn close(&mut self, _: &'b str) {
        if let Some(b) = &mut self.built {
            b.close();
        }
    }
}

/// The sink that writes compact XML. What a [`Document`] built from the
/// same entries would drop or fold, it drops or folds: empty text, and an
/// attribute named twice (first position, last value).
struct XmlWriter<'b> {
    out: String,
    /// The start tag last written still lacks its `>`: the first content
    /// closes it, and an element that turns out to have none ends in `/>`.
    open: bool,
    /// The attributes of that start tag, written when it is closed.
    attrs: Vec<(&'b str, &'b str)>,
}

impl XmlWriter<'_> {
    /// Finishes the start tag still open, if one is, with `end`.
    #[inline]
    fn close_start_tag(&mut self, end: &str) -> bool {
        let was_open = std::mem::take(&mut self.open);
        if was_open {
            for (name, value) in self.attrs.drain(..) {
                push_attr_pair(name, value, &mut self.out);
            }
            self.out.push_str(end);
        }
        was_open
    }
}

impl<'b> Sink<'b> for XmlWriter<'b> {
    #[inline]
    fn open(&mut self, tag: &'b str, _: usize, _: &'b [u8]) -> Result<Visit, StreamError> {
        self.close_start_tag(">");
        self.out.push('<');
        self.out.push_str(tag);
        self.open = true;
        Ok(Visit::Enter)
    }

    #[inline]
    fn attr(&mut self, name: &'b str, value: &'b str) {
        match self.attrs.iter_mut().find(|a| a.0 == name) {
            Some(named) => named.1 = value,
            None => self.attrs.push((name, value)),
        }
    }

    #[inline]
    fn text(&mut self, text: &'b str) {
        if !text.is_empty() {
            self.close_start_tag(">");
            escape_text_into(text, &mut self.out);
        }
    }

    #[inline]
    fn close(&mut self, tag: &'b str) {
        if !self.close_start_tag("/>") {
            self.out.push_str("</");
            self.out.push_str(tag);
            self.out.push('>');
        }
    }
}

/// The one reader of small-node entries: walks the version payload `buf`
/// front to back, handing its entries to `sink`, with the bounds and the
/// positioned errors of `decode_small` — a truncated body, bad UTF-8, an
/// unknown entry kind; bytes after the root entry; a stamp entry anywhere
/// (decoded like any other, so a malformed one is reported as malformed,
/// and the payload refused at the end). A sort key is read and dropped and
/// a timestamp must parse, as `decode_small` has them. An element entered
/// deeper than [`MAX_DEPTH`] — counting the `above` elements that enclose
/// `buf` in the payload it was cut from — is refused: the parser admits
/// no deeper document, so no journal holds one. Whether a [`Document`] is
/// built of the entries, XML written, or one record looked for and the
/// rest stepped over is the sink's business. A walk a sink
/// [`Visit::Stop`]s ends there, the rest of the payload unjudged.
pub(crate) fn walk<'b>(
    buf: &'b [u8],
    above: usize,
    sink: &mut impl Sink<'b>,
) -> Result<(), StreamError> {
    walk_in(buf, above, sink, &mut Vec::new())
}

/// [`walk`] keeping the elements it has entered and not yet left in
/// `entered` (whatever it held is dropped), so a caller walking one small
/// entry after another allocates that stack once.
pub(crate) fn walk_in<'b>(
    buf: &'b [u8],
    above: usize,
    sink: &mut impl Sink<'b>,
    entered: &mut Vec<(usize, &'b str)>,
) -> Result<(), StreamError> {
    entered.clear();
    if buf.first() != Some(&KIND_SMALL) {
        // refused for certain; the stream decoder first has its say on how
        // well-formed whatever is there is
        let mut pos = 0;
        decode_small(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(trailing_bytes(pos));
        }
        return Err(StreamError::new("version payload root is not an element"));
    }
    let mut r = Reader { buf, pos: 0 };
    // `entered`: the elements entered and not yet left, outermost first:
    // where each body ends, and its tag
    let mut stamp_seen = false;
    loop {
        while let Some(&(_, tag)) = entered.last().filter(|top| r.pos >= top.0) {
            entered.pop();
            sink.close(tag);
        }
        // the root entry began at 0: once past it, nothing is open
        if entered.is_empty() && r.pos > 0 {
            break;
        }
        let start = r.pos;
        let Some(&kind) = buf.get(start) else {
            return Err(StreamError::at(start, "truncated entry"));
        };
        r.pos += 1;
        match kind {
            KIND_TEXT => sink.text(r.str()?),
            KIND_SMALL => {
                let Some(&flags) = buf.get(r.pos) else {
                    return Err(StreamError::at(r.pos, "truncated flags"));
                };
                r.pos += 1;
                let body_len = r.varint()?;
                let entry = (r.pos.checked_add(body_len)).and_then(|end| buf.get(start..end));
                let Some(entry) = entry else {
                    return Err(StreamError::at(r.pos, "truncated node body"));
                };
                let end = start + entry.len();
                if flags & FLAG_KEY != 0 {
                    r.str()?;
                }
                let tag = r.str()?;
                match sink.open(tag, start, entry)? {
                    Visit::Stop => return Ok(()),
                    Visit::Skip => r.pos = r.pos.max(end),
                    Visit::Enter => {
                        if above + entered.len() >= MAX_DEPTH {
                            let deep = format!("elements nest deeper than {MAX_DEPTH}");
                            return Err(StreamError::at(start, deep));
                        }
                        for _ in 0..r.varint()? {
                            let name = r.str()?;
                            sink.attr(name, r.str()?);
                        }
                        if flags & FLAG_TIME != 0 {
                            TimeSet::parse(r.str()?)
                                .map_err(|e| StreamError::new(e.to_string()))?;
                        }
                        entered.push((end, tag));
                    }
                }
            }
            KIND_STAMP => {
                // a stamp entry is decoded like any other — a malformed
                // one is reported as malformed — and the payload refused
                // at the end
                r.pos = start;
                decode_small(buf, &mut r.pos)?;
                stamp_seen = true;
            }
            k => {
                return Err(StreamError::at(
                    start,
                    format!("unexpected entry kind {k} in small context"),
                ))
            }
        }
    }
    if r.pos != buf.len() {
        return Err(trailing_bytes(r.pos));
    }
    if stamp_seen {
        return Err(StreamError::new(
            "stamp entry inside a version payload (payloads hold plain documents)",
        ));
    }
    Ok(())
}

/// A cursor over payload bytes.
struct Reader<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    #[inline]
    fn varint(&mut self) -> Result<usize, StreamError> {
        let v = get_varint(self.buf, &mut self.pos)?;
        usize::try_from(v).map_err(|_| StreamError::at(self.pos, "length exceeds address space"))
    }

    #[inline]
    fn str(&mut self) -> Result<&'b str, StreamError> {
        wire::get_str_ref(self.buf, &mut self.pos).map_err(|e| StreamError::at(e.offset, e.reason))
    }
}

fn trailing_bytes(pos: usize) -> StreamError {
    StreamError::at(pos, "trailing bytes after version payload")
}

/// A payload decode failure as the corruption of the block at `offset`
/// that held it. The failure's own offset addresses the *decoded* payload,
/// which coincides with file bytes only in a raw block, so it goes into
/// the reason and the error stays positioned at the block.
pub(crate) fn positioned(offset: u64, e: StreamError) -> StoreError {
    let reason = match e.offset {
        Some(p) => format!("{} (byte {p} of the decoded payload)", e.reason),
        None => e.reason,
    };
    StoreError::Corrupt { offset, reason }
}

/// Encodes a batch of version documents as one group-commit payload: a
/// varint count followed by length-prefixed [`doc_to_bytes`] payloads, so
/// the whole batch rides in a single checksummed block.
pub fn docs_to_batch_bytes(docs: &[Document]) -> Result<Vec<u8>, StreamError> {
    let mut out = Vec::new();
    wire::put_varint(&mut out, docs.len() as u64);
    let mut encoder = Encoder::default();
    for doc in docs {
        encoder.entry(doc, true, &mut out)?;
    }
    Ok(out)
}

/// Decodes a payload written by [`docs_to_batch_bytes`]. Offsets in errors
/// address the batch payload (the caller maps them to file offsets).
pub fn batch_bytes_to_docs(buf: &[u8]) -> Result<Vec<Document>, StreamError> {
    // grown by pushing, never sized by the declared count
    let mut docs = Vec::new();
    for entry in BatchEntries::new(buf)? {
        let (at, entry) = entry?;
        docs.push(bytes_to_doc(entry).map_err(|e| entry_err(at, e))?);
    }
    Ok(docs)
}

/// A failure inside the batch entry at byte `at` of its payload, as a
/// failure of the batch payload.
pub(crate) fn entry_err(at: usize, e: StreamError) -> StreamError {
    StreamError {
        reason: e.reason,
        offset: Some(e.offset.unwrap_or(0) + at as u64),
    }
}

/// The per-version entries of a [`docs_to_batch_bytes`] payload, each with
/// its offset in it, found by their length prefixes alone: no entry is
/// decoded. Ends with an error if bytes follow the last entry.
#[derive(Debug)]
pub(crate) struct BatchEntries<'b> {
    buf: &'b [u8],
    pos: usize,
    /// Entries declared and not yet handed out.
    left: u64,
}

impl<'b> BatchEntries<'b> {
    pub(crate) fn new(buf: &'b [u8]) -> Result<Self, StreamError> {
        let mut pos = 0usize;
        let count = get_varint(buf, &mut pos)?;
        // every entry costs at least a length varint plus one payload byte,
        // so a count beyond half the buffer is provably rot
        if count > (buf.len() as u64) / 2 {
            return Err(StreamError::at(
                0,
                format!(
                    "implausible batch count {count} for a {} byte payload",
                    buf.len()
                ),
            ));
        }
        Ok(BatchEntries {
            buf,
            pos,
            left: count,
        })
    }

    /// How many entries the payload declares.
    pub(crate) fn declared(&self) -> u64 {
        self.left
    }

    fn entry(&mut self) -> Result<(usize, &'b [u8]), StreamError> {
        let len_raw = get_varint(self.buf, &mut self.pos)?;
        let Ok(len) = usize::try_from(len_raw) else {
            return Err(StreamError::at(
                self.pos,
                "batch entry length exceeds address space",
            ));
        };
        let at = self.pos;
        let Some(entry) = at.checked_add(len).and_then(|end| self.buf.get(at..end)) else {
            return Err(StreamError::at(at, "truncated batch entry"));
        };
        self.pos += len;
        Ok((at, entry))
    }
}

impl<'b> Iterator for BatchEntries<'b> {
    type Item = Result<(usize, &'b [u8]), StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = if self.left > 0 {
            self.left -= 1;
            self.entry()
        } else if self.pos != self.buf.len() {
            Err(StreamError::at(
                self.pos,
                "trailing bytes after batch payload",
            ))
        } else {
            return None;
        };
        if item.is_err() {
            // an error is the last item
            self.left = 0;
            self.pos = self.buf.len();
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xarch_extmem::{encode_small, EKind, ETree};
    use xarch_xml::parse;

    /// The oracle: the document as the fragment tree `encode_small` takes
    /// — how payloads were written before the two-pass encoder.
    fn etree_of(doc: &Document, id: NodeId) -> ETree {
        let kind = match doc.kind(id) {
            NodeKind::Text(t) => EKind::Text(t.to_owned()),
            NodeKind::Element(s) => EKind::Element {
                tag: doc.syms().resolve(s).to_owned(),
                attrs: (doc.attrs(id))
                    .map(|(a, v)| (doc.syms().resolve(a).to_owned(), v.to_owned()))
                    .collect(),
            },
        };
        ETree {
            kind,
            sort_key: None,
            frontier: false,
            time: None,
            children: (doc.children(id).iter())
                .map(|&c| etree_of(doc, c))
                .collect(),
        }
    }

    fn encode_via_etree(doc: &Document) -> Vec<u8> {
        let mut out = Vec::new();
        encode_small(&etree_of(doc, doc.root()), &mut out);
        out
    }

    /// The oracle for decoding: `decode_small` to a fragment tree, then
    /// the tree copied into a document — how payloads were read before.
    fn decode_via_etree(buf: &[u8]) -> Result<Document, StreamError> {
        fn add_tree(doc: &mut Document, parent: NodeId, t: &ETree) -> Result<(), StreamError> {
            match &t.kind {
                EKind::Text(s) => {
                    doc.add_text(parent, s);
                }
                EKind::Stamp => {
                    return Err(StreamError::new(
                        "stamp entry inside a version payload (payloads hold plain documents)",
                    ));
                }
                EKind::Element { tag, attrs } => {
                    let e = doc.add_element(parent, tag);
                    for (a, v) in attrs {
                        doc.set_attr(e, a, v);
                    }
                    for c in &t.children {
                        add_tree(doc, e, c)?;
                    }
                }
            }
            Ok(())
        }
        let mut pos = 0;
        let tree = decode_small(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(StreamError::at(pos, "trailing bytes after version payload"));
        }
        let EKind::Element { tag, attrs } = &tree.kind else {
            return Err(StreamError::new("version payload root is not an element"));
        };
        let mut doc = Document::new(tag);
        let root = doc.root();
        for (a, v) in attrs {
            doc.set_attr(root, a, v);
        }
        for c in &tree.children {
            add_tree(&mut doc, root, c)?;
        }
        Ok(doc)
    }

    /// A document grown from a byte script: each byte opens an element
    /// (sometimes with attributes), adds text (ASCII, multi-byte, or long
    /// enough for a two-byte length), or closes the open element. Opens
    /// outnumber closes, so scripts nest well past depth 6.
    fn doc_from_script(script: &[u8]) -> Document {
        const TAGS: [&str; 5] = ["a", "rec", "Ünïcode", "x-y", "T"];
        const TEXTS: [&str; 5] = ["t", "x & y < z", "née 東京 🧬", " ", "\u{0}\u{7f}"];
        let mut doc = Document::new("db");
        let mut open = vec![doc.root()];
        for &b in script {
            let top = *open.last().expect("the root stays open");
            match b % 8 {
                0..=2 => open.push(doc.add_element(top, TAGS[usize::from(b / 8) % 5])),
                3 => {
                    let e = doc.add_element(top, TAGS[usize::from(b / 8) % 5]);
                    doc.set_attr(e, "id", TEXTS[usize::from(b / 16) % 5]);
                    doc.set_attr(e, TAGS[usize::from(b / 32) % 5], "");
                    open.push(e);
                }
                4 => {
                    doc.add_text(top, TEXTS[usize::from(b / 8) % 5]);
                }
                5 => {
                    doc.add_text(top, &"long ".repeat(usize::from(b)));
                }
                _ => {
                    if open.len() > 1 {
                        open.pop();
                    }
                }
            }
        }
        doc
    }

    fn depth(doc: &Document, id: NodeId) -> usize {
        1 + (doc.children(id).iter())
            .map(|&c| depth(doc, c))
            .max()
            .unwrap_or(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The two-pass encoder writes the bytes `encode_small` writes,
        /// alone and inside a batch.
        #[test]
        fn encodes_byte_identically_to_the_etree_path(
            scripts in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..120), 1..4)
        ) {
            let docs: Vec<Document> = scripts.iter().map(|s| doc_from_script(s)).collect();
            let mut batch = Vec::new();
            wire::put_varint(&mut batch, docs.len() as u64);
            for doc in &docs {
                let want = encode_via_etree(doc);
                prop_assert_eq!(&doc_to_bytes(doc).unwrap(), &want);
                wire::put_bytes(&mut batch, &want);
            }
            prop_assert_eq!(docs_to_batch_bytes(&docs).unwrap(), batch);
        }

        /// The direct decoder answers as the `ETree` path does on what the
        /// encoder wrote and on every one-byte corruption and truncation
        /// of it: the same document, or the same error at the same offset.
        #[test]
        fn decodes_as_the_etree_path_does_intact_or_damaged(
            script in proptest::collection::vec(any::<u8>(), 0..60),
            damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..24)
        ) {
            let bytes = doc_to_bytes(&doc_from_script(&script)).unwrap();
            let mut inputs = vec![bytes.clone()];
            for (at, with) in damage {
                let at = at % bytes.len();
                let mut flipped = bytes.clone();
                flipped[at] ^= with | 1;
                inputs.push(flipped);
                let mut replaced = bytes.clone();
                replaced[at] = with % 8; // the entry kinds and small varints
                inputs.push(replaced);
                inputs.push(bytes[..at].to_vec());
            }
            for input in inputs {
                match (bytes_to_doc(&input), decode_via_etree(&input)) {
                    (Ok(got), Ok(want)) => prop_assert_eq!(doc_to_bytes(&got).unwrap(), doc_to_bytes(&want).unwrap()),
                    (Err(got), Err(want)) => prop_assert_eq!(got, want),
                    (got, want) => panic!("direct {got:?} but via ETree {want:?} on {input:?}"),
                }
                // and the XML written straight from the bytes is the XML
                // of that document, or the same refusal
                prop_assert_eq!(
                    bytes_to_xml(&input),
                    bytes_to_doc(&input).map(|doc| xarch_xml::writer::to_compact_string(&doc))
                );
            }
        }
    }

    #[test]
    fn scripts_reach_the_shapes_the_properties_claim() {
        let deep = doc_from_script(&[0; 9]);
        assert!(depth(&deep, deep.root()) >= 7);
        let doc = doc_from_script(&[3, 4 + 16, 5 + 200, 6, 0, 6]);
        let text = xarch_xml::writer::to_compact_string(&doc);
        assert!(text.contains("id=") && text.contains("/>"), "{text}");
        assert_eq!(
            bytes_to_doc(&doc_to_bytes(&doc).unwrap()).map(|d| doc_to_bytes(&d).unwrap()),
            Ok(doc_to_bytes(&doc).unwrap())
        );
    }

    /// A payload `MAX_DEPTH` elements deep reads back; one deeper — written
    /// by `encode_small`, since the encoder refuses the document, and
    /// however much deeper it goes on — is refused at the start of the
    /// element entry past the bound, as is an entry cut from a payload
    /// that, counted from the payload's root, goes past it.
    #[test]
    fn the_walk_and_the_encoder_refuse_what_nests_past_max_depth() {
        let nested = |depth: usize| {
            let mut doc = Document::new("d");
            let mut at = doc.root();
            for _ in 1..depth {
                at = doc.add_element(at, "d");
            }
            doc.add_text(at, "leaf");
            doc
        };
        let at_limit = doc_to_bytes(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(at_limit, encode_via_etree(&nested(MAX_DEPTH)));
        let back = bytes_to_doc(&at_limit).unwrap();
        assert_eq!(doc_to_bytes(&back).unwrap(), at_limit);
        assert!(doc_beneath(&at_limit, 1).is_err(), "one enclosing element");
        for depth in [MAX_DEPTH + 1, 100_000] {
            let e = doc_to_bytes(&nested(depth)).unwrap_err();
            assert!(
                e.reason.contains("nests deeper") && e.offset.is_none(),
                "{e}"
            );
        }
        // `n` more elements wrapped around a payload
        let wrapped = |mut bytes: Vec<u8>, n: usize| {
            for _ in 0..n {
                let mut outer = vec![KIND_SMALL, 0];
                wire::put_varint(&mut outer, bytes.len() as u64 + 2);
                outer.extend_from_slice(&[0, 0]);
                outer.extend_from_slice(&bytes);
                bytes = outer;
            }
            bytes
        };
        for bytes in [
            encode_via_etree(&nested(MAX_DEPTH + 1)),
            wrapped(at_limit.clone(), 1),
            wrapped(at_limit, 2_000),
        ] {
            let e = bytes_to_doc(&bytes).unwrap_err();
            assert_eq!(e.reason, format!("elements nest deeper than {MAX_DEPTH}"));
            let refused_at = e.offset.unwrap() as usize;
            assert_eq!(
                bytes.get(refused_at..refused_at + 2),
                Some(&[KIND_SMALL, 0][..])
            );
            assert_eq!(bytes_to_xml(&bytes), Err(e));
        }
    }

    /// The refusals `bytes_to_doc` made before it decoded directly.
    #[test]
    fn refuses_what_the_etree_path_refused() {
        let stamp = {
            let mut t = etree_of(&parse("<db><rec>1</rec></db>").unwrap(), NodeId(0));
            t.children[0].kind = EKind::Stamp;
            t.children[0].time = Some(TimeSet::from_version(3));
            let mut out = Vec::new();
            encode_small(&t, &mut out);
            out
        };
        let e = bytes_to_doc(&stamp).unwrap_err();
        assert!(
            e.reason.contains("stamp entry") && e.offset.is_none(),
            "{e}"
        );
        assert_eq!(Some(e), decode_via_etree(&stamp).err());

        let text_root = [KIND_TEXT, 1, b'x'];
        let e = bytes_to_doc(&text_root).unwrap_err();
        assert!(e.reason.contains("root is not an element"), "{e}");
        assert_eq!(Some(e), decode_via_etree(&text_root).err());

        // a body length reaching past the buffer, at the offset after it
        let e = bytes_to_doc(&[KIND_SMALL, 0, 9, 2, b'd', b'b', 0]).unwrap_err();
        assert_eq!(e, StreamError::at(3, "truncated node body"));
    }

    /// Entries no encoder of ours writes, and a `Document` quietly absorbs:
    /// the XML written straight from the bytes absorbs them the same way.
    #[test]
    fn xml_from_the_bytes_drops_and_folds_what_a_document_does() {
        let text = |s: &str| ETree {
            kind: EKind::Text(s.into()),
            sort_key: None,
            frontier: false,
            time: None,
            children: vec![],
        };
        let element = |tag: &str, attrs: &[(&str, &str)], children: Vec<ETree>| ETree {
            kind: EKind::Element {
                tag: tag.into(),
                attrs: (attrs.iter())
                    .map(|(a, v)| ((*a).to_owned(), (*v).to_owned()))
                    .collect(),
            },
            children,
            ..text("")
        };
        let tree = element(
            "db",
            &[("a", "1"), ("b", "x\"<y"), ("a", "2 & 3")],
            vec![
                element("only-empty-text", &[], vec![text(""), text("")]),
                element("e", &[("k", "")], vec![]),
                text(""),
                element("t", &[], vec![text("a < b"), text(""), text("&c")]),
            ],
        );
        let mut bytes = Vec::new();
        encode_small(&tree, &mut bytes);
        let xml = bytes_to_xml(&bytes).unwrap();
        assert_eq!(
            xml,
            "<db a=\"2 &amp; 3\" b=\"x&quot;&lt;y\"><only-empty-text/><e k=\"\"/>\
             <t>a &lt; b&amp;c</t></db>"
        );
        let doc = bytes_to_doc(&bytes).unwrap();
        assert_eq!(xml, xarch_xml::writer::to_compact_string(&doc));
    }

    #[test]
    fn document_round_trips() {
        let doc = parse(
            "<db><rec a=\"1\" b=\"two\"><id>7</id><val>x &amp; y</val></rec><rec><id>8</id></rec></db>",
        )
        .unwrap();
        let bytes = doc_to_bytes(&doc).unwrap();
        let back = bytes_to_doc(&bytes).unwrap();
        assert!(xarch_xml::value_equal(&doc, doc.root(), &back, back.root()));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let doc = parse("<db/>").unwrap();
        let mut bytes = doc_to_bytes(&doc).unwrap();
        bytes.push(0xEE);
        assert!(bytes_to_doc(&bytes).is_err());
    }

    #[test]
    fn rejects_truncated_payload() {
        let doc = parse("<db><rec><id>1</id></rec></db>").unwrap();
        let bytes = doc_to_bytes(&doc).unwrap();
        assert!(bytes_to_doc(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn batch_round_trips() {
        let docs: Vec<Document> = [
            "<db><rec><id>1</id><val>a</val></rec></db>",
            "<db/>",
            "<db><rec a=\"x\"><id>2</id></rec><rec><id>3</id></rec></db>",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        let bytes = docs_to_batch_bytes(&docs).unwrap();
        let back = batch_bytes_to_docs(&bytes).unwrap();
        assert_eq!(back.len(), docs.len());
        for (a, b) in docs.iter().zip(&back) {
            assert!(xarch_xml::value_equal(a, a.root(), b, b.root()));
        }
        // the empty batch is representable and round-trips too
        assert!(batch_bytes_to_docs(&docs_to_batch_bytes(&[]).unwrap())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batch_rejects_corruption() {
        let docs = vec![parse("<db><rec><id>1</id></rec></db>").unwrap()];
        let bytes = docs_to_batch_bytes(&docs).unwrap();
        assert!(batch_bytes_to_docs(&bytes[..bytes.len() - 2]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0xEE);
        assert!(batch_bytes_to_docs(&trailing).is_err());
        // implausible count
        let huge = {
            let mut b = Vec::new();
            wire::put_varint(&mut b, u64::MAX - 3);
            b
        };
        assert!(batch_bytes_to_docs(&huge).is_err());
    }
}
