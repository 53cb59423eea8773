//! Version retrieval (§7.1): "a simple scan through the archive can
//! retrieve any version" — whenever a timestamp is encountered, its content
//! is emitted iff the requested version number lies in the timestamp.
//!
//! Two forms are provided: [`Archive::retrieve`] (the query kernel's
//! [`crate::kernel::retrieve`]) materializes the version as a `Document`,
//! and [`Archive::retrieve_into`], here, streams the visible nodes
//! directly into an [`io::Write`] sink as compact XML — the same single
//! scan, but with O(depth) memory instead of a full tree.

use std::io::{self, Write};

use xarch_xml::escape::{escape_attr, escape_text};

use crate::archive::{AKind, ANodeId, Archive};
use crate::kernel::{doc_root, Scan};

impl Archive {
    /// True if version `v` has been archived (it may still be an *empty*
    /// version).
    pub fn has_version(&self, v: u32) -> bool {
        v >= 1 && v <= self.latest()
    }

    /// Visibility of a node at version `v` given that its parent is
    /// visible: explicit timestamp decides, otherwise inherited (= true).
    pub(crate) fn visible(&self, id: ANodeId, v: u32) -> bool {
        self.node(id).time.as_ref().is_none_or(|t| t.contains(v))
    }

    /// Streaming retrieval: serializes version `v` directly into `out` as
    /// compact XML without materializing a document. Returns `true`
    /// iff a document was written — `false` mirrors the `None` cases of
    /// [`Archive::retrieve`] (never archived, or empty at `v`).
    pub fn retrieve_into<W: Write + ?Sized>(&self, v: u32, out: &mut W) -> io::Result<bool> {
        let Some(root) = doc_root(self, &Scan, v) else {
            return Ok(false);
        };
        self.write_visible(root, v, out)?;
        Ok(true)
    }

    /// Writes one visible archive subtree (stamps transparent) as compact
    /// XML. The caller has established that `id` is visible at `v`.
    fn write_visible<W: Write + ?Sized>(&self, id: ANodeId, v: u32, out: &mut W) -> io::Result<()> {
        match &self.node(id).kind {
            AKind::Text(t) => write!(out, "{}", escape_text(t)),
            AKind::Stamp => self.write_visible_children(id, v, out),
            AKind::Element(s) => {
                let tag = self.syms().resolve(*s);
                write!(out, "<{tag}")?;
                for (a, val) in &self.node(id).attrs {
                    write!(out, " {}=\"{}\"", self.syms().resolve(*a), escape_attr(val))?;
                }
                if self.has_visible_content(id, v) {
                    write!(out, ">")?;
                    self.write_visible_children(id, v, out)?;
                    write!(out, "</{tag}>")
                } else {
                    write!(out, "/>")
                }
            }
        }
    }

    /// Writes the visible children of `id` (used by the chunked backend to
    /// splice chunk contents under one document root).
    pub(crate) fn write_visible_children<W: Write + ?Sized>(
        &self,
        id: ANodeId,
        v: u32,
        out: &mut W,
    ) -> io::Result<()> {
        for &c in self.children(id) {
            if self.visible(c, v) {
                self.write_visible(c, v, out)?;
            }
        }
        Ok(())
    }

    /// True when the element would serialize with content at `v` — decides
    /// `<tag/>` vs `<tag></tag>`, looking through transparent stamps.
    pub(crate) fn has_visible_content(&self, id: ANodeId, v: u32) -> bool {
        self.children(id).iter().any(|&c| {
            self.visible(c, v)
                && match self.node(c).kind {
                    AKind::Stamp => self.has_visible_content(c, v),
                    _ => true,
                }
        })
    }

    /// Number of archive nodes touched by a full retrieval scan — the cost
    /// the timestamp trees of §7.1 reduce.
    pub fn scan_cost(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use xarch_keys::KeySpec;
    use xarch_xml::parse;

    use crate::archive::Archive;
    use crate::equiv::equiv_modulo_key_order;

    #[test]
    fn retrieve_into_matches_retrieve() {
        let spec =
            KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap();
        let mut a = Archive::new(spec.clone());
        for src in [
            "<db><rec><id>1</id><val>x</val></rec></db>",
            "<db><rec><id>1</id><val>y</val></rec><rec><id>2</id><val/></rec></db>",
        ] {
            a.add_version(&parse(src).unwrap()).unwrap();
        }
        for v in 1..=2 {
            let doc = a.retrieve(v).unwrap();
            let mut bytes = Vec::new();
            assert!(a.retrieve_into(v, &mut bytes).unwrap());
            let reparsed = parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
            assert!(
                equiv_modulo_key_order(&reparsed, &doc, &spec),
                "streamed v{v} diverged: {}",
                String::from_utf8_lossy(&bytes)
            );
        }
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
