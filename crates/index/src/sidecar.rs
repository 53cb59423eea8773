//! [`QueryIndex`]: a backend-independent query sidecar, and
//! [`IndexedStore`], the wrapper that maintains it.
//!
//! The §7 structures in [`crate::keyindex`] and [`crate::tstree`] index
//! the in-memory archive's arena directly. Backends without a stable
//! node arena — the external-memory event stream is rewritten by every
//! merge, the chunked archive scatters records over partitions — need an
//! index keyed by something stable: the *key paths themselves*.
//!
//! [`QueryIndex`] is a trie over keyed element paths. Each trie node
//! holds the element's existence [`TimeSet`] and its keyed children in a
//! sorted map, fed incrementally from each incoming version document (the
//! same annotation pass the merge already performs). `history` descends
//! the trie in `O(l log d)` comparisons with zero backend I/O; `range`
//! reads one sorted level. `as_of` consults the trie to reject missing
//! elements for free and delegates content extraction to the wrapped
//! backend's partial scan.
//!
//! Because the sidecar is rebuilt through the same `add_version` path it
//! is maintained by, a durable store that replays its journal on open
//! re-establishes the sidecar as part of replay — queries after reopen
//! never pay a per-query rebuild.

use std::collections::BTreeMap;
use std::ops::{Deref, RangeInclusive};
use std::sync::Arc;

use xarch_core::state::{corrupt, get_timeset, put_timeset, STATE_INDEXED_STORE};
use xarch_core::wire::{get_bytes, get_str, get_varint, put_bytes, put_str, put_varint};
use xarch_core::{KeyQuery, RangeEntry, StoreError, StoreReader, StoreView, TimeSet, VersionStore};
use xarch_keys::{annotate, KeySpec};
use xarch_xml::{Document, NodeKind};

/// One trie node: when the element exists, and its keyed children in
/// label order. Children sit behind [`Arc`]s: absorbing a version
/// path-copies the nodes it touches ([`Arc::make_mut`]) and leaves every
/// other subtree shared with the clones taken before it.
#[derive(Debug, Clone, Default)]
struct QNode {
    time: TimeSet,
    children: BTreeMap<KeyQuery, Arc<QNode>>,
}

/// A trie over keyed element paths with existence timestamps — the query
/// sidecar any [`VersionStore`] can maintain. `Clone` is one reference
/// count bump.
#[derive(Debug, Clone, Default)]
pub struct QueryIndex {
    root: Arc<QNode>,
}

impl QueryIndex {
    /// An empty sidecar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs version `v` of the database from its source document —
    /// every keyed element present gets `v` added to its existence set.
    pub fn apply_version(
        &mut self,
        doc: &Document,
        spec: &KeySpec,
        v: u32,
    ) -> Result<(), StoreError> {
        let ann = annotate(doc, spec)
            .map_err(|e| StoreError::Backend(format!("sidecar annotation failed: {e}")))?;
        let top = Arc::make_mut(&mut self.root);
        top.time.insert(v);
        let root = doc.root();
        if let (NodeKind::Element(_), Some(_)) = (&doc.node(root).kind, ann.key(root)) {
            insert_rec(top, doc, &ann, root, v);
        }
        Ok(())
    }

    /// Absorbs an *empty* version: only the synthetic root ticks.
    pub fn apply_empty_version(&mut self, v: u32) {
        Arc::make_mut(&mut self.root).time.insert(v);
    }

    /// The existence set of the element addressed by `steps` (`None` if
    /// never archived). The empty path addresses the synthetic root.
    pub fn history(&self, steps: &[KeyQuery]) -> Option<TimeSet> {
        let mut cur = &*self.root;
        for step in steps {
            cur = cur.children.get(step)?;
        }
        Some(cur.time.clone())
    }

    /// The keyed children of the node addressed by `prefix`, lifetimes
    /// clamped to `lo..=hi`; results come out of the sorted map already
    /// in label order.
    pub fn range(&self, prefix: &[KeyQuery], lo: u32, hi: u32) -> Vec<RangeEntry> {
        let mut cur = &*self.root;
        for step in prefix {
            match cur.children.get(step) {
                Some(n) => cur = n,
                None => return Vec::new(),
            }
        }
        cur.children
            .iter()
            .filter_map(|(step, n)| {
                let time = n.time.clamp_range(lo, hi);
                (!time.is_empty()).then(|| RangeEntry {
                    step: step.clone(),
                    time,
                })
            })
            .collect()
    }

    /// Number of trie nodes (diagnostics; the sidecar holds keyed
    /// structure only, no content).
    pub fn len(&self) -> usize {
        fn count(n: &QNode) -> usize {
            1 + n.children.values().map(|c| count(c)).sum::<usize>()
        }
        count(&self.root)
    }

    /// True when nothing has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.root.time.is_empty() && self.root.children.is_empty()
    }
}

fn corrupt_at(pos: usize, reason: &str) -> StoreError {
    StoreError::Corrupt {
        offset: pos as u64,
        reason: reason.into(),
    }
}

/// Appends one trie node: timestamp, child count, then per child the
/// [`KeyQuery`] step (tag, part count, `(path, canon)` pairs) followed by
/// the child node. Encode recurses — the trie is as deep as the keyed
/// paths the spec admits.
fn put_qnode(out: &mut Vec<u8>, n: &QNode) {
    put_timeset(out, &n.time);
    put_varint(out, n.children.len() as u64);
    for (step, child) in &n.children {
        put_str(out, &step.tag);
        put_varint(out, step.parts.len() as u64);
        for (path, canon) in &step.parts {
            put_str(out, path);
            put_str(out, canon);
        }
        put_qnode(out, child);
    }
}

/// Decodes a trie written by [`put_qnode`]. Iterative (explicit frame
/// stack) so a corrupted payload claiming absurd nesting cannot overflow
/// the call stack.
fn get_qnode(buf: &[u8], pos: &mut usize) -> Result<QNode, StoreError> {
    struct Frame {
        node: QNode,
        remaining: u64,
        step: KeyQuery,
    }
    let time = get_timeset(buf, pos)?;
    let remaining = get_varint(buf, pos).map_err(corrupt)?;
    let mut stack = vec![Frame {
        node: QNode {
            time,
            children: BTreeMap::new(),
        },
        remaining,
        step: KeyQuery::new(""),
    }];
    loop {
        let Some(top) = stack.last_mut() else {
            return Err(corrupt_at(
                *pos,
                "checkpoint state: sidecar stack underflow",
            ));
        };
        if top.remaining == 0 {
            let Some(done) = stack.pop() else {
                return Err(corrupt_at(
                    *pos,
                    "checkpoint state: sidecar stack underflow",
                ));
            };
            match stack.last_mut() {
                Some(parent) => {
                    let child = Arc::new(done.node);
                    if parent.node.children.insert(done.step, child).is_some() {
                        return Err(corrupt_at(
                            *pos,
                            "checkpoint state: duplicate sidecar child",
                        ));
                    }
                }
                None => return Ok(done.node),
            }
            continue;
        }
        top.remaining -= 1;
        let at = *pos;
        let tag = get_str(buf, pos).map_err(corrupt)?.to_owned();
        let nparts = get_varint(buf, pos).map_err(corrupt)? as usize;
        // a part costs ≥ 2 encoded bytes; an implausible count is corruption
        if nparts > buf.len() / 2 + 1 {
            return Err(corrupt_at(at, "checkpoint state: implausible part count"));
        }
        let mut parts = Vec::with_capacity(nparts);
        for _ in 0..nparts {
            let path = get_str(buf, pos).map_err(corrupt)?.to_owned();
            let canon = get_str(buf, pos).map_err(corrupt)?.to_owned();
            parts.push((path, canon));
        }
        let step = KeyQuery { tag, parts };
        let time = get_timeset(buf, pos)?;
        let remaining = get_varint(buf, pos).map_err(corrupt)?;
        stack.push(Frame {
            node: QNode {
                time,
                children: BTreeMap::new(),
            },
            remaining,
            step,
        });
    }
}

fn insert_rec(
    parent: &mut QNode,
    doc: &Document,
    ann: &xarch_keys::Annotations,
    id: xarch_xml::NodeId,
    v: u32,
) {
    let Some(k) = ann.key(id) else { return };
    let step = KeyQuery {
        tag: doc.tag_name(id).to_owned(),
        parts: k
            .parts
            .iter()
            .map(|p| (p.path.to_string(), p.canon.clone()))
            .collect(),
    };
    let node = Arc::make_mut(parent.children.entry(step).or_default());
    node.time.insert(v);
    for &c in doc.children(id) {
        if let (NodeKind::Element(_), Some(_)) = (&doc.node(c).kind, ann.key(c)) {
            insert_rec(node, doc, ann, c, v);
        }
    }
}

/// Any [`VersionStore`] wrapped with a maintained [`QueryIndex`]:
/// `history` and `range` are answered from the sidecar with no backend
/// I/O; `as_of` uses the sidecar to reject missing elements and the
/// backend's own partial retrieval for content.
///
/// `S` is whatever owns the wrapped store: the default boxed
/// [`VersionStore`] for the read-write wrapper, or the `Arc`'d reader of
/// an immutable view ([`VersionStore::view`]) paired with the sidecar as
/// it stood then.
pub struct IndexedStore<S = Box<dyn VersionStore>> {
    inner: S,
    sidecar: QueryIndex,
}

impl<S> std::fmt::Debug for IndexedStore<S>
where
    S: Deref,
    S::Target: StoreReader,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexedStore")
            .field("latest", &self.inner.latest())
            .field("sidecar_nodes", &self.sidecar.len())
            .finish()
    }
}

impl IndexedStore {
    /// Wraps `inner`, backfilling the sidecar from its existing versions
    /// (a fresh store costs nothing; a populated one is replayed once).
    pub fn new(inner: Box<dyn VersionStore>) -> Result<Self, StoreError> {
        let mut sidecar = QueryIndex::new();
        let spec = inner.spec().clone();
        for v in 1..=inner.latest() {
            match inner.retrieve(v)? {
                Some(doc) => sidecar.apply_version(&doc, &spec, v)?,
                None => sidecar.apply_empty_version(v),
            }
        }
        Ok(Self { inner, sidecar })
    }

    /// The maintained sidecar (for inspection and measurements).
    pub fn query_index(&self) -> &QueryIndex {
        &self.sidecar
    }
}

/// Intercepts `history` and `range` (answered by the sidecar alone) and
/// `as_of` (gated by it); everything else is the backend's.
impl<S> xarch_core::Layer for IndexedStore<S>
where
    S: Deref,
    S::Target: StoreReader,
{
    type Inner = S::Target;

    fn inner(&self) -> &S::Target {
        &self.inner
    }

    fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError> {
        Ok(self.sidecar.history(steps))
    }

    fn as_of(&self, steps: &[KeyQuery], v: u32) -> Result<Option<Document>, StoreError> {
        // sidecar gate: a missing element or dead version costs no I/O
        match self.sidecar.history(steps) {
            None => return Ok(None),
            Some(t) if !t.contains(v) => return Ok(None),
            Some(_) => {}
        }
        self.inner.as_of(steps, v)
    }

    fn range(
        &self,
        prefix: &[KeyQuery],
        versions: RangeInclusive<u32>,
    ) -> Result<Vec<RangeEntry>, StoreError> {
        let lo = (*versions.start()).max(1);
        let hi = (*versions.end()).min(self.inner.latest());
        Ok(self.sidecar.range(prefix, lo, hi))
    }
}

impl VersionStore for IndexedStore {
    fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError> {
        let v = self.inner.add_version(doc)?;
        let spec = self.inner.spec().clone();
        self.sidecar.apply_version(doc, &spec, v)?;
        Ok(v)
    }

    fn add_empty_version(&mut self) -> Result<u32, StoreError> {
        let v = self.inner.add_empty_version()?;
        self.sidecar.apply_empty_version(v);
        Ok(v)
    }

    fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, StoreError> {
        // the backend takes its batch fast path; the sidecar absorbs the
        // same documents version by version (its trie insertion is
        // already O(|version|), so there is nothing cross-version to fold)
        let assigned = self.inner.add_versions(docs)?;
        let spec = self.inner.spec().clone();
        for (doc, &v) in docs.iter().zip(&assigned) {
            self.sidecar.apply_version(doc, &spec, v)?;
        }
        Ok(assigned)
    }

    fn checkpoint_state(&self) -> Result<Option<Vec<u8>>, StoreError> {
        // wrap the inner backend's state (if it supports checkpointing at
        // all) and append the serialized sidecar so a restore skips the
        // backfill replay too
        let Some(inner) = self.inner.checkpoint_state()? else {
            return Ok(None);
        };
        let mut out = vec![STATE_INDEXED_STORE];
        put_bytes(&mut out, &inner);
        put_qnode(&mut out, &self.sidecar.root);
        Ok(Some(out))
    }

    fn restore_checkpoint(&mut self, state: &[u8]) -> Result<bool, StoreError> {
        if self.inner.latest() != 0 {
            return Err(StoreError::Backend(
                "restore_checkpoint requires an empty store".into(),
            ));
        }
        if state.first() != Some(&STATE_INDEXED_STORE) {
            return Ok(false);
        }
        let mut pos = 1usize;
        let inner_state = get_bytes(state, &mut pos).map_err(corrupt)?;
        // decode the sidecar fully BEFORE touching the inner store so a
        // damaged payload can never leave the pair half-restored
        let root = get_qnode(state, &mut pos)?;
        if pos != state.len() {
            return Err(corrupt_at(pos, "checkpoint state: trailing bytes"));
        }
        if !self.inner.restore_checkpoint(inner_state)? {
            return Ok(false);
        }
        self.sidecar = QueryIndex {
            root: Arc::new(root),
        };
        Ok(true)
    }

    fn view(&self) -> Result<StoreView, StoreError> {
        // view the backend, share the derived sidecar — the pair stays
        // consistent because both describe the same version sequence
        Ok(Arc::new(IndexedStore {
            inner: self.inner.view()?,
            sidecar: self.sidecar.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_core::{Archive, ChunkedArchive};
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    fn stores() -> Vec<(&'static str, IndexedStore)> {
        vec![
            (
                "in-memory",
                IndexedStore::new(Box::new(Archive::new(spec()))).unwrap(),
            ),
            (
                "chunked",
                IndexedStore::new(Box::new(ChunkedArchive::new(spec(), 3))).unwrap(),
            ),
        ]
    }

    #[test]
    fn sidecar_answers_match_backend() {
        for (label, mut s) in stores() {
            s.add_version(&parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap())
                .unwrap();
            s.add_version(
                &parse(
                    "<db><rec><id>1</id><val>b</val></rec>\
                     <rec><id>2</id><val>c</val></rec></db>",
                )
                .unwrap(),
            )
            .unwrap();
            s.add_empty_version().unwrap();
            let q = |id: &str| {
                vec![
                    KeyQuery::new("db"),
                    KeyQuery::new("rec").with_text("id", id),
                ]
            };
            assert_eq!(
                s.history(&q("1")).unwrap().unwrap().to_string(),
                "1-2",
                "{label}"
            );
            assert_eq!(s.history(&q("9")).unwrap(), None, "{label}");
            // empty path = synthetic root: ticks through the empty version
            assert_eq!(
                s.history(&[]).unwrap().unwrap().to_string(),
                "1-3",
                "{label}"
            );
            // as_of gated by the sidecar, content from the backend
            let sub = s.as_of(&q("2"), 2).unwrap().expect("rec 2 at v2");
            assert!(xarch_xml::writer::to_compact_string(&sub).contains("<val>c</val>"));
            assert!(s.as_of(&q("2"), 1).unwrap().is_none(), "{label}");
            // range off the sorted trie level
            let hits = s.range(&[KeyQuery::new("db")], 1..=3).unwrap();
            assert_eq!(hits.len(), 2, "{label}: {hits:?}");
            assert_eq!(hits[0].time.to_string(), "1-2");
            assert_eq!(hits[1].time.to_string(), "2");
        }
    }

    #[test]
    fn checkpoint_round_trips_inner_state_and_sidecar() {
        let mut s = IndexedStore::new(Box::new(Archive::new(spec()))).unwrap();
        s.add_version(&parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap())
            .unwrap();
        s.add_empty_version().unwrap();
        s.add_version(
            &parse(
                "<db><rec><id>1</id><val>b</val></rec>\
                 <rec><id>2</id><val>c</val></rec></db>",
            )
            .unwrap(),
        )
        .unwrap();
        let state = s
            .checkpoint_state()
            .unwrap()
            .expect("indexed store checkpoints");

        let mut fresh = IndexedStore::new(Box::new(Archive::new(spec()))).unwrap();
        assert!(fresh.restore_checkpoint(&state).unwrap());
        assert_eq!(fresh.latest(), 3);
        let q = vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "1"),
        ];
        assert_eq!(fresh.history(&q).unwrap().unwrap().to_string(), "1,3");
        assert_eq!(fresh.history(&[]).unwrap().unwrap().to_string(), "1-3");
        assert_eq!(fresh.query_index().len(), s.query_index().len());
        let sub = fresh.as_of(&q, 3).unwrap().expect("rec 1 at v3");
        assert!(xarch_xml::writer::to_compact_string(&sub).contains("<val>b</val>"));
        // restored state re-checkpoints byte-identically
        assert_eq!(fresh.checkpoint_state().unwrap().unwrap(), state);
    }

    #[test]
    fn restore_rejects_foreign_tags_and_survives_bit_flips() {
        let mut s = IndexedStore::new(Box::new(Archive::new(spec()))).unwrap();
        s.add_version(&parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap())
            .unwrap();
        let state = s.checkpoint_state().unwrap().unwrap();

        // a bare-archive state is some other backend's: fall back to replay
        let bare = xarch_core::state::encode_archive(&Archive::new(spec()));
        let mut fresh = IndexedStore::new(Box::new(Archive::new(spec()))).unwrap();
        assert!(!fresh.restore_checkpoint(&bare).unwrap());

        // flipping any single byte must never panic: every outcome is a
        // loud error, a clean mismatch, or an intact restore
        for i in 0..state.len() {
            let mut bad = state.clone();
            bad[i] ^= 0x40;
            let mut fresh = IndexedStore::new(Box::new(Archive::new(spec()))).unwrap();
            let _ = fresh.restore_checkpoint(&bad);
        }
    }

    #[test]
    fn backfill_replays_existing_versions() {
        let mut inner = Archive::new(spec());
        inner
            .add_version(&parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap())
            .unwrap();
        inner.add_empty_version();
        let s = IndexedStore::new(Box::new(inner)).unwrap();
        assert_eq!(s.history(&[]).unwrap().unwrap().to_string(), "1-2");
        let q = vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "1"),
        ];
        assert_eq!(s.history(&q).unwrap().unwrap().to_string(), "1");
    }
}
