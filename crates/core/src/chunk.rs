//! Chunked archiving (§5).
//!
//! "To overcome the memory limitation, we hashed our experimental data into
//! 'chunks' based on the values of keys. An incoming version is partitioned
//! in the same manner, and we apply our archiver to the corresponding
//! chunks of the archive and the incoming version. Since we never merge
//! elements with different key values, we can obtain the archive of the
//! whole data by merging the archive and the version chunk by chunk, and
//! concatenating the results."
//!
//! [`ChunkedArchive`] reproduces that experiment and nothing more: it is
//! the ablation's second row, not a store. It partitions the *top-level
//! keyed elements* (children of the document root, e.g. OMIM `Record`s) by
//! a hash of their key value. Each chunk is an independent [`Archive`];
//! retrieval concatenates the chunks' contents. The integration tests hold
//! the result equivalent to whole-document archiving.

use std::sync::Arc;

use xarch_keys::{annotate, fingerprint, Annotations, KeySpec, KeyValue};
use xarch_xml::{Document, NodeId, NodeKind};

use crate::archive::{Archive, Compaction, MergeError};

/// The partition a top-level element hashes to among `n`: `tag|canon|…`
/// over the key parts in sorted-path order.
fn partition(tag: &str, key: &KeyValue, n: usize) -> usize {
    let mut label = tag.to_owned();
    for part in key.parts() {
        label.push('|');
        label.push_str(&part.canon);
    }
    (fingerprint(&label) % n as u128) as usize
}

/// An archive split into hash-partitioned chunks.
#[derive(Debug, Clone)]
pub struct ChunkedArchive {
    chunks: Vec<Archive>,
    spec: Arc<KeySpec>,
    root_tag: Option<String>,
    latest: u32,
}

impl ChunkedArchive {
    /// Creates a chunked archive with `n` chunks (n ≥ 1).
    pub fn new(spec: KeySpec, n: usize) -> Self {
        assert!(n >= 1, "need at least one chunk");
        let spec = Arc::new(spec);
        Self {
            chunks: (0..n)
                .map(|_| Archive::with_shared_spec(Arc::clone(&spec), Compaction::default()))
                .collect(),
            spec,
            root_tag: None,
            latest: 0,
        }
    }

    /// Number of archived versions.
    pub fn latest(&self) -> u32 {
        self.latest
    }

    /// Splits `doc` into one sub-document per chunk: the root (with its
    /// attributes) plus the top-level keyed children hashing to that
    /// chunk. The caller has verified the root is keyed.
    fn sub_documents(&self, doc: &Document, ann: &Annotations) -> Vec<Document> {
        let root = doc.root();
        let n = self.chunks.len();
        let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &c in doc.children(root) {
            let idx = match (doc.kind(c), ann.key(c)) {
                (NodeKind::Element(s), Some(k)) => partition(doc.syms().resolve(s), k, n),
                _ => 0,
            };
            parts[idx].push(c);
        }
        parts
            .iter()
            .map(|part| {
                let mut sub = Document::new(doc.tag_name(root));
                let sub_root = sub.root();
                for (name, value) in doc.attrs(root) {
                    sub.set_attr(sub_root, doc.syms().resolve(name), value);
                }
                for &c in part {
                    sub.copy_subtree_from(doc, c, sub_root);
                }
                sub
            })
            .collect()
    }

    /// Partitions `doc`'s top-level keyed children by key hash and merges
    /// each partition into its chunk.
    ///
    /// Every rejection happens before any chunk is touched: the whole
    /// document is annotated once, then every sub-document is annotated
    /// and validated on its own (a sub-document can be invalid when the
    /// whole was not: a root key whose key-path children hashed to another
    /// chunk). Only then do the chunks merge, so a rejected version leaves
    /// every chunk where it was.
    pub fn add_version(&mut self, doc: &Document) -> Result<u32, MergeError> {
        let ann = annotate(doc, &self.spec)?;
        let root = doc.root();
        if !ann.is_keyed(root) {
            return Err(MergeError::UnkeyedRoot(doc.tag_name(root).to_owned()));
        }
        let subs = self.sub_documents(doc, &ann);
        let anns = subs
            .iter()
            .map(|sub| {
                let ann = annotate(sub, &self.spec)?;
                if !ann.is_keyed(sub.root()) {
                    return Err(MergeError::UnkeyedRoot(sub.tag_name(sub.root()).to_owned()));
                }
                Ok(ann)
            })
            .collect::<Result<Vec<_>, MergeError>>()?;
        for ((chunk, sub), ann) in self.chunks.iter_mut().zip(&subs).zip(&anns) {
            let v = chunk.add_annotated(sub, ann).expect("validated above");
            debug_assert_eq!(v, self.latest + 1, "chunk versions diverged");
        }
        self.root_tag = Some(doc.tag_name(root).to_owned());
        self.latest += 1;
        Ok(self.latest)
    }

    /// Retrieves version `v` by concatenating the chunks' contents.
    pub fn retrieve(&self, v: u32) -> Option<Document> {
        if v == 0 || v > self.latest {
            return None;
        }
        let root_tag = self.root_tag.as_ref()?;
        let mut out = Document::new(root_tag);
        let out_root = out.root();
        let mut any = false;
        for chunk in &self.chunks {
            if let Some(part) = chunk.retrieve(v) {
                any = true;
                let part_root = part.root();
                for (name, value) in part.attrs(part_root) {
                    out.set_attr(out_root, part.syms().resolve(name), value);
                }
                for &c in part.children(part_root) {
                    out.copy_subtree_from(&part, c, out_root);
                }
            }
        }
        any.then_some(out)
    }

    /// Total size across chunks (pretty XML form).
    pub fn size_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_xml::parse;

    #[test]
    fn a_rejected_version_touches_no_chunk() {
        // `name` keys the root: the whole document carries it, but it is
        // unkeyed, so it lands in chunk 0 and the other chunks'
        // sub-documents lack it.
        let spec = KeySpec::parse("(/, (db, {name}))\n(/db, (rec, {id}))").unwrap();
        let doc = parse(
            "<db><name>n</name><rec><id>1</id></rec><rec><id>2</id></rec><rec><id>3</id></rec></db>",
        )
        .unwrap();
        assert!(
            annotate(&doc, &spec).is_ok(),
            "the whole document annotates"
        );
        let mut c = ChunkedArchive::new(spec, 3);
        assert!(c.add_version(&doc).is_err());
        assert_eq!(c.latest(), 0);
        assert!(c.chunks.iter().all(|chunk| chunk.latest() == 0));
        assert!(c.retrieve(1).is_none());
    }
}
