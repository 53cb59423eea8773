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
//! [`ChunkedArchive`] partitions the *top-level keyed elements* (children
//! of the document root, e.g. OMIM `Record`s) by a hash of their key value.
//! Each chunk is an independent [`Archive`]; retrieval concatenates the
//! chunks' contents. Integration tests verify the result is equivalent to
//! whole-document archiving.

use std::io::{self, Write};
use std::sync::Arc;

use xarch_keys::{annotate, fingerprint, Annotations, KeySpec, KeyValue};
use xarch_xml::escape::write_attr_pair;
use xarch_xml::{Document, NodeId, NodeKind};

use crate::archive::{Archive, ArchiveStats, Compaction, MergeError};
use crate::history::KeyQuery;
use crate::kernel::{doc_root, Scan};
use crate::retrieve::{buffered, write_end};
use crate::timeset::TimeSet;

/// The partition label a top-level element (or the query step addressing
/// it) hashes to: `tag|canon|canon…` over the key parts in sorted-path
/// order. Partitioning (`add_version`) and query routing (`chunk_for`)
/// must agree byte for byte — both call this.
fn partition_label(tag: &str, key: &KeyValue) -> String {
    let mut label = tag.to_owned();
    for part in key.parts() {
        label.push('|');
        label.push_str(&part.canon);
    }
    label
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
        Self::with_compaction(spec, n, Compaction::default())
    }

    /// Creates a chunked archive whose chunks use an explicit frontier
    /// compaction mode.
    pub fn with_compaction(spec: KeySpec, n: usize, compaction: Compaction) -> Self {
        assert!(n >= 1, "need at least one chunk");
        let spec = Arc::new(spec);
        Self {
            chunks: (0..n)
                .map(|_| Archive::with_shared_spec(Arc::clone(&spec), compaction))
                .collect(),
            spec,
            root_tag: None,
            latest: 0,
        }
    }

    /// The governing key specification.
    pub fn spec(&self) -> &KeySpec {
        &self.spec
    }

    /// The cached root tag (set by the first non-empty merge); checkpoint
    /// state must carry it so a restored store keeps rejecting documents
    /// with a different root.
    pub(crate) fn root_tag(&self) -> Option<&str> {
        self.root_tag.as_deref()
    }

    /// Rebuilds a chunked archive from deserialized parts (checkpoint
    /// restore; `crate::state` has validated each chunk).
    pub(crate) fn from_parts(
        spec: KeySpec,
        chunks: Vec<Archive>,
        root_tag: Option<String>,
        latest: u32,
    ) -> Self {
        Self {
            chunks,
            spec: Arc::new(spec),
            root_tag,
            latest,
        }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The chunk archives (for inspection / size accounting).
    pub fn chunks(&self) -> &[Archive] {
        &self.chunks
    }

    /// Number of archived versions.
    pub fn latest(&self) -> u32 {
        self.latest
    }

    /// True if version `v` has been archived (it may still be an *empty*
    /// version) — the same contract as [`Archive::has_version`].
    pub fn has_version(&self, v: u32) -> bool {
        v >= 1 && v <= self.latest
    }

    /// Archives an *empty* database as the next version: every chunk
    /// terminates its contents while the synthetic roots keep ticking, so
    /// `has_version` answers `true` and `retrieve` answers `None` — the
    /// distinction documented in `crate::retrieve`.
    pub fn add_empty_version(&mut self) -> u32 {
        let mut assigned = 0;
        for chunk in &mut self.chunks {
            assigned = chunk.add_empty_version();
        }
        self.latest = assigned;
        self.latest
    }

    /// Splits `doc` into one sub-document per chunk: the root (with its
    /// attributes) plus the top-level keyed children hashing to that
    /// chunk. The caller has verified the root is keyed.
    fn sub_documents(&self, doc: &Document, ann: &Annotations) -> Vec<Document> {
        let root = doc.root();
        let root_tag = doc.tag_name(root);
        let n = self.chunks.len();
        let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &c in doc.children(root) {
            let idx = match (doc.kind(c), ann.key(c)) {
                (NodeKind::Element(s), Some(k)) => {
                    let label = partition_label(doc.syms().resolve(s), k);
                    (fingerprint(&label) % n as u128) as usize
                }
                _ => 0,
            };
            parts[idx].push(c);
        }
        parts
            .iter()
            .map(|part| {
                let mut sub = Document::new(root_tag);
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
    /// Routed through [`ChunkedArchive::add_versions`] as a one-document
    /// batch: every possible rejection (whole-document *and* per-chunk
    /// sub-document validation) happens before any chunk is touched, and
    /// the per-chunk merges then run as independent, infallible stripes on
    /// worker threads. The old serial loop could fail after some chunks
    /// had already advanced, desynchronizing the partition version
    /// counters; the batch path structurally cannot.
    pub fn add_version(&mut self, doc: &Document) -> Result<u32, MergeError> {
        let assigned = self.add_versions(std::slice::from_ref(doc))?;
        debug_assert_eq!(assigned.len(), 1, "one document merges as one version");
        Ok(self.latest)
    }

    /// Bulk ingest: partitions every document of the batch once, then
    /// merges each chunk's sub-batch on its own worker thread — §5's
    /// "merge chunk by chunk" runs chunk-parallel because the partitions
    /// are independent archives by construction. Each worker uses the
    /// in-memory archive's one-pass batch merge, so the result is
    /// version-for-version identical to a serial replay.
    ///
    /// The whole batch is annotated and validated before any chunk is
    /// touched: a rejected batch leaves the store unchanged.
    pub fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, MergeError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let anns = docs
            .iter()
            .map(|d| annotate(d, &self.spec))
            .collect::<Result<Vec<_>, _>>()?;
        let mut root_tag = self.root_tag.clone();
        for (doc, ann) in docs.iter().zip(&anns) {
            let root = doc.root();
            if !ann.is_keyed(root) {
                return Err(MergeError::UnkeyedRoot(doc.tag_name(root).to_owned()));
            }
            if let Some(prev) = &root_tag {
                debug_assert_eq!(
                    prev,
                    doc.tag_name(root),
                    "root tag must be stable across versions"
                );
            }
            root_tag = Some(doc.tag_name(root).to_owned());
        }

        // One partitioning pass per version, gathered per chunk …
        let mut subs: Vec<Vec<Document>> = (0..self.chunks.len())
            .map(|_| Vec::with_capacity(docs.len()))
            .collect();
        for (doc, ann) in docs.iter().zip(&anns) {
            for (i, sub) in self.sub_documents(doc, ann).into_iter().enumerate() {
                subs[i].push(sub);
            }
        }
        // … annotated and validated in full BEFORE any chunk is touched.
        // A sub-document can be invalid even when the whole document was
        // not (a root key whose key-path children hashed to another
        // chunk), and a merge failing after sibling chunks advanced would
        // desynchronize the partition version counters — so every
        // possible rejection happens here, and the merges below are
        // infallible ([`Archive::add_annotated_versions`]).
        let sub_anns: Vec<Vec<Annotations>> = subs
            .iter()
            .map(|chunk_subs| {
                chunk_subs
                    .iter()
                    .map(|sub| {
                        let ann = annotate(sub, &self.spec)?;
                        if !ann.is_keyed(sub.root()) {
                            return Err(MergeError::UnkeyedRoot(
                                sub.tag_name(sub.root()).to_owned(),
                            ));
                        }
                        Ok(ann)
                    })
                    .collect::<Result<Vec<_>, MergeError>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        // … then every chunk merges its sub-batch on a pool of worker
        // threads, capped at the hardware parallelism (one worker runs
        // the merges in place — no thread overhead on a single core).
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(self.chunks.len());
        let per_worker = self.chunks.len().div_ceil(workers);
        let results: Vec<Vec<u32>> = if workers <= 1 {
            self.chunks
                .iter_mut()
                .zip(&subs)
                .zip(&sub_anns)
                .map(|((chunk, sub), ann)| chunk.add_annotated_versions(sub, ann))
                .collect()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .chunks
                    .chunks_mut(per_worker)
                    .zip(subs.chunks(per_worker))
                    .zip(sub_anns.chunks(per_worker))
                    .map(|((chunk_group, sub_group), ann_group)| {
                        s.spawn(move || {
                            chunk_group
                                .iter_mut()
                                .zip(sub_group)
                                .zip(ann_group)
                                .map(|((chunk, sub), ann)| chunk.add_annotated_versions(sub, ann))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("chunk merge thread panicked"))
                    .collect()
            })
        };
        let mut assigned: Option<Vec<u32>> = None;
        for vs in results {
            match &assigned {
                None => assigned = Some(vs),
                Some(prev) => debug_assert_eq!(prev, &vs, "chunk versions diverged"),
            }
        }
        let assigned = assigned.expect("at least one chunk");
        self.root_tag = root_tag;
        self.latest = *assigned.last().expect("non-empty batch");
        Ok(assigned)
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

    /// Streaming retrieval of version `v`: splices every chunk's visible
    /// contents under one document root, written to `out` as compact XML.
    /// Returns `true` iff a document was written (same `None`-for-empty
    /// contract as [`ChunkedArchive::retrieve`]).
    pub fn retrieve_into<W: Write + ?Sized>(&self, v: u32, out: &mut W) -> io::Result<bool> {
        if !self.has_version(v) {
            return Ok(false);
        }
        let Some(root_tag) = self.root_tag.as_ref() else {
            return Ok(false);
        };
        // Chunk doc roots visible at v (an empty version leaves none).
        let visible: Vec<(usize, crate::archive::ANodeId)> = self
            .chunks
            .iter()
            .enumerate()
            .filter_map(|(i, c)| doc_root(c, &Scan, v).map(|dr| (i, dr)))
            .collect();
        let Some(&(first, first_root)) = visible.first() else {
            return Ok(false);
        };
        buffered(out, |out| {
            out.write_all(b"<")?;
            out.write_all(root_tag.as_bytes())?;
            let fc = &self.chunks[first];
            for (a, val) in &fc.node(first_root).attrs {
                write_attr_pair(fc.syms().resolve(*a), val, out)?;
            }
            let mut open = true;
            for &(i, dr) in &visible {
                self.chunks[i].write_content(&Scan, dr, v, &mut open, out)?;
            }
            write_end(root_tag.as_bytes(), open, out)
        })?;
        Ok(true)
    }

    /// The chunk owning the top-level element a query step addresses —
    /// the same `tag|canon…` label hash [`ChunkedArchive::add_version`]
    /// partitions by (both sides share [`partition_label`], so routing
    /// cannot drift from partitioning), letting a query touch one chunk
    /// instead of all of them.
    fn chunk_for(&self, step: &KeyQuery) -> usize {
        let label = partition_label(step.tag(), step.key());
        (fingerprint(&label) % self.chunks.len() as u128) as usize
    }

    /// The one chunk that can answer a query over `steps`: a path of two
    /// or more steps descends through exactly one top-level element, and
    /// everything beneath it lives in the chunk owning it. `None` for the
    /// document root and the empty path, which span every chunk.
    pub(crate) fn owner(&self, steps: &[KeyQuery]) -> Option<&Archive> {
        steps.get(1).map(|top| &self.chunks[self.chunk_for(top)])
    }

    /// The temporal history of the element addressed by `steps` (§7.2),
    /// from the owning chunk; the document root (and the empty path) carry
    /// the same timestamp in every chunk, so the union over chunks answers
    /// those.
    pub fn history(&self, steps: &[KeyQuery]) -> Option<TimeSet> {
        if let Some(chunk) = self.owner(steps) {
            return chunk.history(steps);
        }
        let mut found = None;
        for chunk in &self.chunks {
            if let Some(t) = chunk.history(steps) {
                found = Some(match found {
                    None => t,
                    Some(prev) => t.union(&prev),
                });
            }
        }
        found
    }

    /// Partial retrieval routed to the owning chunk: paths below a
    /// top-level element are answered entirely by the chunk holding it;
    /// the document root spans every chunk, so those fall back to a full
    /// concatenating retrieve.
    pub fn as_of(&self, steps: &[KeyQuery], v: u32) -> Option<Document> {
        if !self.has_version(v) {
            return None;
        }
        if let Some(chunk) = self.owner(steps) {
            return chunk.as_of(steps, v);
        }
        let doc = self.retrieve(v)?;
        if steps.is_empty() {
            return Some(doc);
        }
        // one root-level step: the subtree is the whole document, but the
        // step must actually match the document root
        crate::query::find_in_doc(&doc, &self.spec, steps)
            .and_then(|id| crate::query::subtree_doc(&doc, id))
    }

    /// Range scan: prefixes of two or more steps route to the owning
    /// chunk; the document root's children are partitioned across all
    /// chunks, so those fan out and merge (entries shared by every chunk
    /// — the root itself — union their windows).
    pub fn range(
        &self,
        prefix: &[KeyQuery],
        versions: std::ops::RangeInclusive<u32>,
    ) -> Vec<crate::query::RangeEntry> {
        if let Some(chunk) = self.owner(prefix) {
            return chunk.range(prefix, versions);
        }
        let mut acc: std::collections::BTreeMap<KeyQuery, TimeSet> =
            std::collections::BTreeMap::new();
        for chunk in &self.chunks {
            for e in chunk.range(prefix, versions.clone()) {
                acc.entry(e.step)
                    .and_modify(|t| *t = t.union(&e.time))
                    .or_insert(e.time);
            }
        }
        acc.into_iter()
            .map(|(step, time)| crate::query::RangeEntry { step, time })
            .collect()
    }

    /// Aggregate statistics summed over chunks. Each chunk carries its own
    /// synthetic root and document root, so element counts describe
    /// storage rather than the logical document tree.
    pub fn stats(&self) -> ArchiveStats {
        let mut total = ArchiveStats {
            elements: 0,
            texts: 0,
            stamps: 0,
            explicit_times: 0,
            intervals: 0,
        };
        for chunk in &self.chunks {
            let s = chunk.stats();
            total.elements += s.elements;
            total.texts += s.texts;
            total.stamps += s.stamps;
            total.explicit_times += s.explicit_times;
            total.intervals += s.intervals;
        }
        total
    }

    /// Total size across chunks (pretty XML form).
    pub fn size_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::equiv_modulo_key_order;
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    #[test]
    fn empty_version_reported_like_whole_archive() {
        let doc = parse("<db><rec><id>1</id><val>x</val></rec></db>").unwrap();
        let mut whole = Archive::new(spec());
        let mut chunked = ChunkedArchive::new(spec(), 3);
        whole.add_version(&doc).unwrap();
        chunked.add_version(&doc).unwrap();
        whole.add_empty_version();
        chunked.add_empty_version();

        for v in [1u32, 2, 3] {
            assert_eq!(whole.has_version(v), chunked.has_version(v), "v{v}");
            assert_eq!(
                whole.retrieve(v).is_some(),
                chunked.retrieve(v).is_some(),
                "v{v}"
            );
        }
        // archived-but-empty: v2 exists yet yields no document
        assert!(chunked.has_version(2));
        assert!(chunked.retrieve(2).is_none());
        // a later version still archives and retrieves
        chunked.add_version(&doc).unwrap();
        assert!(equiv_modulo_key_order(
            &chunked.retrieve(3).unwrap(),
            &doc,
            &spec()
        ));
    }

    #[test]
    fn history_routes_across_chunks() {
        let mut c = ChunkedArchive::new(spec(), 4);
        c.add_version(&parse("<db><rec><id>1</id><val>x</val></rec></db>").unwrap())
            .unwrap();
        c.add_version(
            &parse("<db><rec><id>1</id><val>x</val></rec><rec><id>2</id><val>y</val></rec></db>")
                .unwrap(),
        )
        .unwrap();
        let q = |id: &str| {
            [
                KeyQuery::new("db"),
                KeyQuery::new("rec").with_text("id", id),
            ]
        };
        assert_eq!(c.history(&q("1")).unwrap().to_string(), "1-2");
        assert_eq!(c.history(&q("2")).unwrap().to_string(), "2");
        assert!(c.history(&q("9")).is_none());
        assert_eq!(
            c.history(&[KeyQuery::new("db")]).unwrap().to_string(),
            "1-2"
        );
    }
}
