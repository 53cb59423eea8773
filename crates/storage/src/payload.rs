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

use xarch_core::wire;
use xarch_core::TimeSet;
use xarch_extmem::events::{FLAG_KEY, FLAG_TIME, KIND_SMALL, KIND_STAMP, KIND_TEXT};
use xarch_extmem::{decode_small, get_varint, StreamError};
use xarch_xml::{Document, NodeId, NodeKind};

/// Encodes `doc` as one small-node event entry.
pub fn doc_to_bytes(doc: &Document) -> Vec<u8> {
    let mut out = Vec::new();
    Encoder::default().entry(doc, false, &mut out);
    out
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
    /// `prefixed`.
    fn entry(&mut self, doc: &Document, prefixed: bool, out: &mut Vec<u8>) {
        self.bodies.clear();
        self.emitted = 0;
        let len = self.measure(doc, doc.root());
        out.reserve(len + varint_len(len));
        if prefixed {
            wire::put_varint(out, len as u64);
        }
        self.emit(doc, doc.root(), out);
    }

    /// First pass: the encoded length of the entry for `id`, with the body
    /// length of `id` and every element beneath pushed onto `bodies` in
    /// document order — the order [`Encoder::emit`] reads them in.
    fn measure(&mut self, doc: &Document, id: NodeId) -> usize {
        match &doc.node(id).kind {
            NodeKind::Text(t) => 1 + str_len(t),
            NodeKind::Element(tag) => {
                let slot = self.bodies.len();
                self.bodies.push(0);
                let attrs = doc.attrs(id);
                let mut body = str_len(doc.syms().resolve(*tag)) + varint_len(attrs.len());
                for (a, v) in attrs {
                    body += str_len(doc.syms().resolve(*a)) + str_len(v);
                }
                for &c in doc.children(id) {
                    body += self.measure(doc, c);
                }
                if let Some(pushed) = self.bodies.get_mut(slot) {
                    *pushed = body;
                }
                // kind, flags, body length, body
                2 + varint_len(body) + body
            }
        }
    }

    /// Second pass: appends the entry for `id`.
    fn emit(&mut self, doc: &Document, id: NodeId, out: &mut Vec<u8>) {
        match &doc.node(id).kind {
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
                wire::put_str(out, doc.syms().resolve(*tag));
                let attrs = doc.attrs(id);
                wire::put_varint(out, attrs.len() as u64);
                for (a, v) in attrs {
                    wire::put_str(out, doc.syms().resolve(*a));
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
    let mut d = Decoder {
        buf,
        pos: 0,
        stamp_seen: false,
    };
    // anything but an element at the top is refused below, once the
    // stream decoder has had its say on how well-formed it is
    let doc = if buf.first() == Some(&KIND_SMALL) {
        d.pos = 1;
        let (flags, end, tag) = d.element_head()?;
        let mut doc = Document::new(tag);
        let root = doc.root();
        d.element_body(&mut doc, root, flags, end)?;
        Some(doc)
    } else {
        decode_small(buf, &mut d.pos)?;
        None
    };
    if d.pos != buf.len() {
        return Err(StreamError::at(
            d.pos,
            "trailing bytes after version payload",
        ));
    }
    let Some(doc) = doc else {
        return Err(StreamError::new("version payload root is not an element"));
    };
    if d.stamp_seen {
        return Err(StreamError::new(
            "stamp entry inside a version payload (payloads hold plain documents)",
        ));
    }
    Ok(doc)
}

/// Reads small entries off `buf` into a [`Document`], with the bounds and
/// the positioned errors of `decode_small`.
struct Decoder<'b> {
    buf: &'b [u8],
    pos: usize,
    /// A stamp entry went by. It is decoded like any other — a malformed
    /// one is reported as malformed — and the payload refused at the end.
    stamp_seen: bool,
}

impl<'b> Decoder<'b> {
    fn varint(&mut self) -> Result<usize, StreamError> {
        let v = get_varint(self.buf, &mut self.pos)?;
        usize::try_from(v).map_err(|_| StreamError::at(self.pos, "length exceeds address space"))
    }

    fn str(&mut self) -> Result<&'b str, StreamError> {
        wire::get_str_ref(self.buf, &mut self.pos).map_err(|e| StreamError::at(e.offset, e.reason))
    }

    /// What an element entry says before its attributes, the kind byte
    /// having been read: its flags, where its body ends, and its tag.
    fn element_head(&mut self) -> Result<(u8, usize, &'b str), StreamError> {
        let Some(&flags) = self.buf.get(self.pos) else {
            return Err(StreamError::at(self.pos, "truncated flags"));
        };
        self.pos += 1;
        let body_len = self.varint()?;
        let Some(end) = (self.pos.checked_add(body_len)).filter(|&e| e <= self.buf.len()) else {
            return Err(StreamError::at(self.pos, "truncated node body"));
        };
        if flags & FLAG_KEY != 0 {
            self.str()?;
        }
        Ok((flags, end, self.str()?))
    }

    /// The rest of an element entry, decoded onto `el`: attributes, then
    /// child entries up to `end`.
    fn element_body(
        &mut self,
        doc: &mut Document,
        el: NodeId,
        flags: u8,
        end: usize,
    ) -> Result<(), StreamError> {
        for _ in 0..self.varint()? {
            let name = self.str()?;
            doc.set_attr(el, name, self.str()?);
        }
        if flags & FLAG_TIME != 0 {
            TimeSet::parse(self.str()?).map_err(|e| StreamError::new(e.to_string()))?;
        }
        while self.pos < end {
            self.entry(doc, el)?;
        }
        Ok(())
    }

    /// Decodes one entry as a new last child of `parent`.
    fn entry(&mut self, doc: &mut Document, parent: NodeId) -> Result<(), StreamError> {
        let at = self.pos;
        let Some(&kind) = self.buf.get(at) else {
            return Err(StreamError::at(at, "truncated entry"));
        };
        self.pos += 1;
        match kind {
            KIND_TEXT => {
                doc.add_text(parent, self.str()?);
            }
            KIND_SMALL => {
                let (flags, end, tag) = self.element_head()?;
                let el = doc.add_element(parent, tag);
                self.element_body(doc, el, flags, end)?;
            }
            KIND_STAMP => {
                self.pos = at;
                decode_small(self.buf, &mut self.pos)?;
                self.stamp_seen = true;
            }
            k => {
                return Err(StreamError::at(
                    at,
                    format!("unexpected entry kind {k} in small context"),
                ))
            }
        }
        Ok(())
    }
}

/// Encodes a batch of version documents as one group-commit payload: a
/// varint count followed by length-prefixed [`doc_to_bytes`] payloads, so
/// the whole batch rides in a single checksummed block.
pub fn docs_to_batch_bytes(docs: &[Document]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_varint(&mut out, docs.len() as u64);
    let mut encoder = Encoder::default();
    for doc in docs {
        encoder.entry(doc, true, &mut out);
    }
    out
}

/// Decodes a payload written by [`docs_to_batch_bytes`]. Offsets in errors
/// address the batch payload (the caller maps them to file offsets).
pub fn batch_bytes_to_docs(buf: &[u8]) -> Result<Vec<Document>, StreamError> {
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)?;
    // every entry costs at least a length varint plus one payload byte,
    // so a count beyond half the buffer is provably rot — reject before
    // any allocation sized from untrusted input (and grow `docs` by
    // pushing, never by the declared count)
    if count > (buf.len() as u64) / 2 {
        return Err(StreamError::at(
            0,
            format!(
                "implausible batch count {count} for a {} byte payload",
                buf.len()
            ),
        ));
    }
    let mut docs = Vec::new();
    for _ in 0..count {
        let len_raw = get_varint(buf, &mut pos)?;
        let Ok(len) = usize::try_from(len_raw) else {
            return Err(StreamError::at(
                pos,
                "batch entry length exceeds address space",
            ));
        };
        let Some(end) = pos.checked_add(len).filter(|&e| e <= buf.len()) else {
            return Err(StreamError::at(pos, "truncated batch entry"));
        };
        let Some(entry) = buf.get(pos..end) else {
            return Err(StreamError::at(pos, "truncated batch entry"));
        };
        let doc = bytes_to_doc(entry).map_err(|e| StreamError {
            reason: e.reason,
            offset: Some(e.offset.unwrap_or(0) + pos as u64),
        })?;
        docs.push(doc);
        pos = end;
    }
    if pos != buf.len() {
        return Err(StreamError::at(pos, "trailing bytes after batch payload"));
    }
    Ok(docs)
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
        let kind = match &doc.node(id).kind {
            NodeKind::Text(t) => EKind::Text(t.clone()),
            NodeKind::Element(s) => EKind::Element {
                tag: doc.syms().resolve(*s).to_owned(),
                attrs: (doc.attrs(id).iter())
                    .map(|(a, v)| (doc.syms().resolve(*a).to_owned(), v.clone()))
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
                prop_assert_eq!(&doc_to_bytes(doc), &want);
                wire::put_bytes(&mut batch, &want);
            }
            prop_assert_eq!(docs_to_batch_bytes(&docs), batch);
        }

        /// The direct decoder answers as the `ETree` path does on what the
        /// encoder wrote and on every one-byte corruption and truncation
        /// of it: the same document, or the same error at the same offset.
        #[test]
        fn decodes_as_the_etree_path_does_intact_or_damaged(
            script in proptest::collection::vec(any::<u8>(), 0..60),
            damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..24)
        ) {
            let bytes = doc_to_bytes(&doc_from_script(&script));
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
                    (Ok(got), Ok(want)) => prop_assert_eq!(doc_to_bytes(&got), doc_to_bytes(&want)),
                    (Err(got), Err(want)) => prop_assert_eq!(got, want),
                    (got, want) => panic!("direct {got:?} but via ETree {want:?} on {input:?}"),
                }
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
            bytes_to_doc(&doc_to_bytes(&doc)).map(|d| doc_to_bytes(&d)),
            Ok(doc_to_bytes(&doc))
        );
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

    #[test]
    fn document_round_trips() {
        let doc = parse(
            "<db><rec a=\"1\" b=\"two\"><id>7</id><val>x &amp; y</val></rec><rec><id>8</id></rec></db>",
        )
        .unwrap();
        let bytes = doc_to_bytes(&doc);
        let back = bytes_to_doc(&bytes).unwrap();
        assert!(xarch_xml::value_equal(&doc, doc.root(), &back, back.root()));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let doc = parse("<db/>").unwrap();
        let mut bytes = doc_to_bytes(&doc);
        bytes.push(0xEE);
        assert!(bytes_to_doc(&bytes).is_err());
    }

    #[test]
    fn rejects_truncated_payload() {
        let doc = parse("<db><rec><id>1</id></rec></db>").unwrap();
        let bytes = doc_to_bytes(&doc);
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
        let bytes = docs_to_batch_bytes(&docs);
        let back = batch_bytes_to_docs(&bytes).unwrap();
        assert_eq!(back.len(), docs.len());
        for (a, b) in docs.iter().zip(&back) {
            assert!(xarch_xml::value_equal(a, a.root(), b, b.root()));
        }
        // the empty batch is representable and round-trips too
        assert!(batch_bytes_to_docs(&docs_to_batch_bytes(&[]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batch_rejects_corruption() {
        let docs = vec![parse("<db><rec><id>1</id></rec></db>").unwrap()];
        let bytes = docs_to_batch_bytes(&docs);
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
