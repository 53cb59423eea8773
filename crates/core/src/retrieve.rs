//! Version retrieval (§7.1): "a simple scan through the archive can
//! retrieve any version" — whenever a timestamp is encountered, its content
//! is emitted iff the requested version number lies in the timestamp.
//!
//! Two forms are provided: [`Archive::retrieve`] (the query kernel's
//! [`crate::kernel::retrieve`]) materializes the version as a `Document`,
//! and [`Archive::retrieve_into`], here, streams the visible nodes
//! directly into an [`io::Write`] sink as compact XML — the same single
//! scan, but with O(depth) memory instead of a full tree. The same writer,
//! over the caller's navigator, renders the contents of the kernel's
//! `history_values`.

use std::io::{self, Write};

use xarch_xml::escape::{write_attr_pair, write_text};
use xarch_xml::Sym;

use crate::archive::{AKind, ANodeId, Archive};
use crate::kernel::{doc_root, Nav, Scan};

/// Runs `emit` against a buffered front of `out`. The scan writes a few
/// bytes at a time (a `<`, a tag, a `>`), and behind the `dyn Write` of
/// [`crate::StoreReader::retrieve_into`] each would be a virtual call; the
/// buffer makes them inlined copies and hands `out` 8 KiB at a time. The
/// buffer is drained into `out`; `out` itself is never flushed.
fn buffered<W: Write + ?Sized>(
    out: &mut W,
    emit: impl FnOnce(&mut io::BufWriter<&mut W>) -> io::Result<()>,
) -> io::Result<()> {
    let mut front = io::BufWriter::new(out);
    emit(&mut front)?;
    front.into_inner().map_err(io::IntoInnerError::into_error)?;
    Ok(())
}

/// Gives a start tag still lacking its `>` that `>`, before its first
/// content node.
fn close_start_tag<W: Write + ?Sized>(open: &mut bool, out: &mut W) -> io::Result<()> {
    if std::mem::take(open) {
        out.write_all(b">")?;
    }
    Ok(())
}

/// Ends the element `tag`: `/>` if its start tag is still `open` (it had
/// no content), its end tag otherwise.
fn write_end<W: Write + ?Sized>(tag: &[u8], open: bool, out: &mut W) -> io::Result<()> {
    if open {
        return out.write_all(b"/>");
    }
    out.write_all(b"</")?;
    out.write_all(tag)?;
    out.write_all(b">")
}

impl Archive {
    /// True if version `v` has been archived (it may still be an *empty*
    /// version).
    pub fn has_version(&self, v: u32) -> bool {
        v >= 1 && v <= self.latest()
    }

    /// Visibility of a node at version `v` given that its parent is
    /// visible: explicit timestamp decides, otherwise inherited (= true).
    pub(crate) fn visible(&self, id: ANodeId, v: u32) -> bool {
        self.time(id).is_none_or(|t| t.contains(v))
    }

    /// Streaming retrieval: serializes version `v` directly into `out` as
    /// compact XML without materializing a document. Returns `true`
    /// iff a document was written — `false` mirrors the `None` cases of
    /// [`Archive::retrieve`] (never archived, or empty at `v`).
    pub fn retrieve_into<W: Write + ?Sized>(&self, v: u32, out: &mut W) -> io::Result<bool> {
        let Some(root) = doc_root(self, &Scan, v) else {
            return Ok(false);
        };
        let AKind::Element(tag) = self.kind(root) else {
            return Ok(false); // `doc_root` yields elements only
        };
        buffered(out, |out| self.write_element(&Scan, root, tag, v, out))?;
        Ok(true)
    }

    /// Writes the element `id`, visible at `v`, as compact XML: tag,
    /// attribute and text bytes go to `out` as they are, escaped run by
    /// run — nothing is formatted or allocated per node. `nav` lists the
    /// children visible at `v`.
    // `#[inline]` on this pair makes each instance a local copy in the
    // codegen unit that calls it, so the scan's machine code does not
    // hinge on how rustc partitions the crate into codegen units. Without
    // it, removing an unrelated module moved the `dyn Write` instance
    // behind `StoreReader::retrieve_into` by about 15 % in a default
    // release build (2-vCPU x86-64), and not at all with
    // `codegen-units = 1`. Measured again once the store had become one
    // concrete type with no `dyn` layers above the archive: without it,
    // the `read` benchmark's local and served retrieves were still about
    // 13 % slower (median of ten alternating 3 s runs, same host).
    #[inline]
    pub(crate) fn write_element<W: Write + ?Sized>(
        &self,
        nav: &impl Nav,
        id: ANodeId,
        tag: Sym,
        v: u32,
        out: &mut W,
    ) -> io::Result<()> {
        let tag = self.syms().resolve(tag).as_bytes();
        out.write_all(b"<")?;
        out.write_all(tag)?;
        for (a, val) in self.attrs(id) {
            write_attr_pair(self.syms().resolve(a), val, out)?;
        }
        let mut open = true;
        self.write_content(nav, id, v, &mut open, out)?;
        write_end(tag, open, out)
    }

    /// Writes the content of `id` visible at `v`, stamps transparent.
    /// `open` says the enclosing start tag still lacks its `>`: the first
    /// content node written closes it, so an element that turns out to
    /// have none can end in `/>` without a look-ahead pass over its
    /// children.
    #[inline]
    fn write_content<W: Write + ?Sized>(
        &self,
        nav: &impl Nav,
        id: ANodeId,
        v: u32,
        open: &mut bool,
        out: &mut W,
    ) -> io::Result<()> {
        for c in nav.visible(self, id, v) {
            match self.kind(c) {
                AKind::Stamp => self.write_content(nav, c, v, open, out)?,
                AKind::Text(t) => {
                    close_start_tag(open, out)?;
                    write_text(t, out)?;
                }
                AKind::Element(tag) => {
                    close_start_tag(open, out)?;
                    self.write_element(nav, c, tag, v, out)?;
                }
            }
        }
        Ok(())
    }

    /// Number of archive nodes touched by a full retrieval scan — the cost
    /// the timestamp trees of §7.1 reduce.
    pub fn scan_cost(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use xarch_datagen::omim::{omim_spec, OmimGen};
    use xarch_datagen::swissprot::{swissprot_spec, SwissProtGen};
    use xarch_datagen::xmark::{xmark_spec, XmarkGen};
    use xarch_keys::KeySpec;
    use xarch_xml::writer::to_compact_string;
    use xarch_xml::{parse, Document};

    use crate::archive::Archive;

    /// Every version of an archive of `docs`, streamed, is byte for byte
    /// the compact XML of the same version retrieved as a `Document`.
    fn assert_streams_as_retrieved(spec: KeySpec, docs: &[Document]) {
        let mut a = Archive::new(spec);
        for doc in docs {
            a.add_version(doc).unwrap();
        }
        for v in 1..=a.latest() {
            let doc = a.retrieve(v).unwrap();
            let mut bytes = Vec::new();
            assert!(a.retrieve_into(v, &mut bytes).unwrap());
            assert_eq!(
                String::from_utf8(bytes).unwrap(),
                to_compact_string(&doc),
                "streamed v{v} diverged"
            );
        }
    }

    #[test]
    fn retrieve_into_matches_retrieve() {
        let spec =
            KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap();
        let small = [
            "<db><rec><id>1</id><val>x</val></rec></db>",
            "<db><rec><id>1</id><val>y</val></rec><rec><id>2</id><val/></rec></db>",
        ];
        assert_streams_as_retrieved(spec, &small.map(|src| parse(src).unwrap()));
        assert_streams_as_retrieved(omim_spec(), &OmimGen::new(7).sequence(120, 12));
        assert_streams_as_retrieved(swissprot_spec(), &SwissProtGen::new(11).sequence(40, 6));
        let xmark = XmarkGen::new(13).random_change_sequence(60, 5, 0.1);
        assert_streams_as_retrieved(xmark_spec(), &xmark);
        let keyed = XmarkGen::new(17).key_mutation_sequence(60, 5, 0.1);
        assert_streams_as_retrieved(xmark_spec(), &keyed);
    }

    #[test]
    fn retrieve_into_reports_empty_and_missing_versions() {
        let spec = KeySpec::parse("(/, (db, {}))").unwrap();
        let mut a = Archive::new(spec);
        a.add_version(&parse("<db/>").unwrap()).unwrap();
        a.add_empty_version();
        let mut bytes = Vec::new();
        assert!(a.retrieve_into(1, &mut bytes).unwrap());
        assert_eq!(bytes, b"<db/>");
        // archived but empty: written nothing, distinguishable by has_version
        let mut bytes = Vec::new();
        assert!(!a.retrieve_into(2, &mut bytes).unwrap());
        assert!(bytes.is_empty());
        assert!(a.has_version(2));
        // never archived
        assert!(!a.retrieve_into(3, &mut bytes).unwrap());
        assert!(!a.has_version(3));
    }

    #[test]
    fn escaping_survives_streaming() {
        let spec = KeySpec::parse("(/, (db, {}))").unwrap();
        let mut a = Archive::new(spec);
        let mut doc = xarch_xml::Document::new("db");
        doc.set_attr(doc.root(), "k", "a\"b<c");
        doc.add_text(doc.root(), "x < y & z");
        a.add_version(&doc).unwrap();
        let mut bytes = Vec::new();
        assert!(a.retrieve_into(1, &mut bytes).unwrap());
        let reparsed = parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(reparsed.attr(reparsed.root(), "k"), Some("a\"b<c"));
        assert_eq!(reparsed.text_content(reparsed.root()), "x < y & z");
    }
}
