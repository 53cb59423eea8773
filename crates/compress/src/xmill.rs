//! An XMill-style XML compressor (Liefke & Suciu, SIGMOD 2000), rebuilt
//! from scratch on the LZSS backend.
//!
//! The document is separated into:
//!
//! * a **structure stream** — open/attr/text/close tokens with interned
//!   names, varint-encoded;
//! * one **text container per path** — all text occurring under the same
//!   element path (and all values of the same attribute) are concatenated,
//!   length-prefixed, into one buffer.
//!
//! Each part is compressed independently. "Since text data that belong to
//! elements of the same name tend to be fairly similar, high compression
//! ratios can usually be achieved" (§5.4) — the grouping is exactly why
//! `xmill(archive)` beats `gzip(diff repo)` in the paper's Fig 12–14.

use std::collections::HashMap;

use xarch_xml::{Document, NodeId, NodeKind};

use crate::bitio::{read_varint, write_varint};
use crate::lzss;

const TOKEN_CLOSE: u64 = 0;
const TOKEN_TEXT: u64 = 1;

#[inline]
fn token_open(name: u64) -> u64 {
    2 + name * 2
}

#[inline]
fn token_attr(name: u64) -> u64 {
    3 + name * 2
}

#[derive(Default)]
struct Containers {
    by_path: HashMap<String, usize>,
    bufs: Vec<(String, Vec<u8>)>,
}

impl Containers {
    fn push(&mut self, path: &str, data: &[u8]) {
        let idx = match self.by_path.get(path) {
            Some(&i) => i,
            None => {
                let i = self.bufs.len();
                self.by_path.insert(path.to_owned(), i);
                self.bufs.push((path.to_owned(), Vec::new()));
                i
            }
        };
        let buf = &mut self.bufs[idx].1;
        write_varint(buf, data.len() as u64);
        buf.extend_from_slice(data);
    }
}

/// Compresses a document. The output is self-contained.
pub fn xml_compress(doc: &Document) -> Vec<u8> {
    xml_compress_with(doc, lzss::compress)
}

/// [`xml_compress`] over the given byte compressor (tests put the
/// bit-at-a-time LZSS writer here to hold the real one to its bytes).
fn xml_compress_with(doc: &Document, compress: impl Fn(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let mut names: Vec<String> = Vec::new();
    let mut name_ids: HashMap<String, u64> = HashMap::new();
    let mut structure: Vec<u8> = Vec::new();
    let mut containers = Containers::default();
    let mut path: Vec<String> = Vec::new();

    fn name_id(names: &mut Vec<String>, ids: &mut HashMap<String, u64>, name: &str) -> u64 {
        if let Some(&i) = ids.get(name) {
            return i;
        }
        let i = names.len() as u64;
        names.push(name.to_owned());
        ids.insert(name.to_owned(), i);
        i
    }

    fn walk(
        doc: &Document,
        id: NodeId,
        names: &mut Vec<String>,
        ids: &mut HashMap<String, u64>,
        structure: &mut Vec<u8>,
        containers: &mut Containers,
        path: &mut Vec<String>,
    ) {
        match doc.kind(id) {
            NodeKind::Text(t) => {
                write_varint(structure, TOKEN_TEXT);
                containers.push(&path.join("/"), t.as_bytes());
            }
            NodeKind::Element(s) => {
                let tag = doc.syms().resolve(s).to_owned();
                let tid = name_id(names, ids, &tag);
                write_varint(structure, token_open(tid));
                path.push(tag);
                for (a, v) in doc.attrs(id) {
                    let an = doc.syms().resolve(a).to_owned();
                    let aid = name_id(names, ids, &an);
                    write_varint(structure, token_attr(aid));
                    let cpath = format!("{}/@{an}", path.join("/"));
                    containers.push(&cpath, v.as_bytes());
                }
                for &c in doc.children(id) {
                    walk(doc, c, names, ids, structure, containers, path);
                }
                write_varint(structure, TOKEN_CLOSE);
                path.pop();
            }
        }
    }

    walk(
        doc,
        doc.root(),
        &mut names,
        &mut name_ids,
        &mut structure,
        &mut containers,
        &mut path,
    );

    let mut out = Vec::new();
    write_varint(&mut out, names.len() as u64);
    for n in &names {
        write_varint(&mut out, n.len() as u64);
        out.extend_from_slice(n.as_bytes());
    }
    let cstructure = compress(&structure);
    write_varint(&mut out, cstructure.len() as u64);
    out.extend_from_slice(&cstructure);
    write_varint(&mut out, containers.bufs.len() as u64);
    for (cpath, buf) in &containers.bufs {
        write_varint(&mut out, cpath.len() as u64);
        out.extend_from_slice(cpath.as_bytes());
        let cbuf = compress(buf);
        write_varint(&mut out, cbuf.len() as u64);
        out.extend_from_slice(&cbuf);
    }
    out
}

/// Decompresses the output of [`xml_compress`] back into a document.
pub fn xml_decompress(buf: &[u8]) -> Option<Document> {
    let mut pos = 0usize;
    let n_names = read_varint(buf, &mut pos)? as usize;
    let mut names = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        let len = read_varint(buf, &mut pos)? as usize;
        let s = std::str::from_utf8(buf.get(pos..pos + len)?).ok()?;
        names.push(s.to_owned());
        pos += len;
    }
    let slen = read_varint(buf, &mut pos)? as usize;
    let structure = lzss::decompress(buf.get(pos..pos + slen)?)?;
    pos += slen;
    let n_containers = read_varint(buf, &mut pos)? as usize;
    // container path -> (entries buffer, cursor)
    let mut containers: HashMap<String, (Vec<u8>, usize)> = HashMap::new();
    for _ in 0..n_containers {
        let plen = read_varint(buf, &mut pos)? as usize;
        let cpath = std::str::from_utf8(buf.get(pos..pos + plen)?)
            .ok()?
            .to_owned();
        pos += plen;
        let clen = read_varint(buf, &mut pos)? as usize;
        let data = lzss::decompress(buf.get(pos..pos + clen)?)?;
        pos += clen;
        containers.insert(cpath, (data, 0));
    }

    let mut next_entry = |cpath: &str| -> Option<String> {
        let (data, cur) = containers.get_mut(cpath)?;
        let mut p = *cur;
        let len = read_varint(data, &mut p)? as usize;
        let s = std::str::from_utf8(data.get(p..p + len)?).ok()?.to_owned();
        *cur = p + len;
        Some(s)
    };

    let mut spos = 0usize;
    let mut doc: Option<Document> = None;
    let mut stack: Vec<NodeId> = Vec::new();
    let mut path: Vec<String> = Vec::new();
    while spos < structure.len() {
        let tok = read_varint(&structure, &mut spos)?;
        match tok {
            TOKEN_CLOSE => {
                stack.pop()?;
                path.pop();
            }
            TOKEN_TEXT => {
                let text = next_entry(&path.join("/"))?;
                let d = doc.as_mut()?;
                let top = *stack.last()?;
                d.add_text(top, &text);
            }
            t if t % 2 == 0 => {
                // OPEN
                let name = names.get(((t - 2) / 2) as usize)?;
                match (&mut doc, stack.last().copied()) {
                    (None, _) => {
                        let d = Document::new(name);
                        stack.push(d.root());
                        doc = Some(d);
                    }
                    (Some(d), Some(top)) => {
                        let e = d.add_element(top, name);
                        stack.push(e);
                    }
                    (Some(_), None) => return None, // second root
                }
                path.push(name.clone());
            }
            t => {
                // ATTR
                let name = names.get(((t - 3) / 2) as usize)?.clone();
                let cpath = format!("{}/@{name}", path.join("/"));
                let value = next_entry(&cpath)?;
                let d = doc.as_mut()?;
                let top = *stack.last()?;
                d.set_attr(top, &name, &value);
            }
        }
    }
    if !stack.is_empty() {
        return None;
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_xml::parse;
    use xarch_xml::value_equal;

    fn round_trip(src: &str) -> usize {
        let doc = parse(src).unwrap();
        let c = xml_compress(&doc);
        let back = xml_decompress(&c).unwrap();
        assert!(
            value_equal(&doc, doc.root(), &back, back.root()),
            "round trip failed for {src}"
        );
        c.len()
    }

    /// The size figures of §5.4 are counts of these bytes: they are the
    /// ones the bit-at-a-time writer produced.
    #[test]
    fn compresses_to_the_bytes_the_bit_at_a_time_writer_wrote() {
        let mut src = String::from("<db>");
        for i in 0..300 {
            src.push_str(&format!(
                "<rec id=\"r{i}\"><name>Name {i} &amp; co</name><val>{}</val><note/></rec>",
                i * 7919 % 1000
            ));
        }
        src.push_str("</db>");
        let doc = parse(&src).unwrap();
        assert_eq!(
            xml_compress(&doc),
            xml_compress_with(&doc, crate::lzss::tests::reference_compress)
        );
    }

    #[test]
    fn company_example_round_trips() {
        round_trip(
            "<db><dept><name>finance</name>\
             <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal><tel>123-4567</tel></emp></dept></db>",
        );
    }

    #[test]
    fn attributes_round_trip() {
        round_trip(r#"<site><item id="i1" featured="yes"><name>x &amp; y</name></item></site>"#);
    }

    #[test]
    fn archive_style_t_tags_round_trip() {
        round_trip(
            r#"<T t="1-4"><root><db><dept><name>finance</name><T t="3-4"><emp><fn>John</fn><T t="3"><sal>90K</sal></T><T t="4"><sal>95K</sal></T></emp></T></dept></db></root></T>"#,
        );
    }

    #[test]
    fn mixed_content_round_trips() {
        round_trip("<p>hello <b>world</b> goodbye <i>moon</i> end</p>");
    }

    #[test]
    fn empty_elements_round_trip() {
        round_trip("<a><b/><c/><b/></a>");
    }

    #[test]
    fn grouping_beats_plain_lzss_on_columnar_text() {
        // Interleaved dissimilar fields: grouping by path brings similar
        // text together, which plain LZSS over the serialized form cannot.
        let mut src = String::from("<recs>");
        for i in 0..400 {
            src.push_str(&format!(
                "<r><seq>AGCTAGCTAGGA{i:04}TTAGGACCA</seq><num>{}</num><flag>f{}</flag></r>",
                i * 37 % 1000,
                i % 2
            ));
        }
        src.push_str("</recs>");
        let doc = parse(&src).unwrap();
        let xmill_len = xml_compress(&doc).len();
        let plain_len = crate::lzss::compress(src.as_bytes()).len();
        assert!(
            xmill_len < plain_len,
            "xmill {} should beat plain lzss {}",
            xmill_len,
            plain_len
        );
        // and it must still round-trip
        let back = xml_decompress(&xml_compress(&doc)).unwrap();
        assert!(value_equal(&doc, doc.root(), &back, back.root()));
    }

    #[test]
    fn corrupt_buffer_is_rejected() {
        let doc = parse("<a><b>hi</b></a>").unwrap();
        let c = xml_compress(&doc);
        assert!(xml_decompress(&c[..c.len() / 2]).is_none());
        assert!(xml_decompress(&[]).is_none());
    }

    #[test]
    fn unicode_text_round_trips() {
        round_trip("<a><t>日本語 ✓ naïve</t><t>ελληνικά</t></a>");
    }
}
