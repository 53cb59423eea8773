//! Checkpoint state codec for the in-memory archive.
//!
//! A durable store periodically serializes its materialized archive into
//! a *checkpoint block* (see `docs/FORMAT.md` §Checkpoint blocks) so that
//! reopen restores the snapshot and replays only the tail of the journal.
//! This module defines the state payload for [`Archive`]; the indexed
//! archive reuses it and rebuilds its indexes from it.
//!
//! Every state payload starts with a one-byte backend tag so a restoring
//! store can tell "this checkpoint was taken by a different backend
//! configuration" (answered with `Ok(None)` — the caller falls back to a
//! full journal replay, which rebuilds correctly under the new
//! configuration) apart from "this checkpoint is damaged" (a positioned
//! [`StoreError::Corrupt`]).
//!
//! The byte grammar uses the shared [`crate::wire`] primitives. A restore
//! is one decode and one walk. The decode lays each node straight into an
//! arena and pools shaped as the archive keeps them — text and attribute
//! values into the text pool, child lists and attributes as runs, key-path
//! names resolved against one table of the restoring spec's. The walk then
//! checks, iteratively, that the nodes form one tree under the root (ids
//! in range, no cycle or shared subtree, parent pointers that agree, at
//! most [`MAX_TREE_DEPTH`] deep, nothing unreachable) and every timestamp
//! rule of [`Archive::check_invariants`], and derives the
//! `written_beneath` bits the checkpoint does not store. Decoding is
//! panic-free, so a corrupted-but-checksummed state can never produce a
//! structurally broken archive.

use std::sync::Arc;

use xarch_keys::{KeyPart, KeySpec, KeyValue, NodeClass, PathName};
use xarch_xml::{Sym, SymbolTable, MAX_DEPTH};

use crate::archive::{AKind, ANodeId, Archive, Compaction, Decoded, Refusal};
use crate::store::StoreError;
use crate::timeset::TimeRef;
#[cfg(test)]
use crate::timeset::TimeSet;
use crate::wire::{get_str, get_str_ref, get_varint, put_str, put_varint, WireError};

/// State tag: a plain in-memory [`Archive`] snapshot.
pub const STATE_ARCHIVE: u8 = 1;
// Tags 2, 3 and 5 are retired (`docs/FORMAT.md`): a state carrying one
// is a configuration mismatch like any foreign tag, and none is ever
// reassigned.

/// How far below its synthetic root an archive's nodes reach: a document's
/// [`MAX_DEPTH`] elements, a stamp beneath a frontier node, and a text.
/// A stored tree deeper than that was never written by an archive.
pub const MAX_TREE_DEPTH: usize = MAX_DEPTH + 2;

/// Converts a positioned wire failure into the storage error vocabulary.
fn corrupt(e: WireError) -> StoreError {
    StoreError::Corrupt {
        offset: e.offset as u64,
        reason: format!("checkpoint state: {}", e.reason),
    }
}

fn corrupt_at(pos: usize, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        offset: pos as u64,
        reason: reason.into(),
    }
}

fn compaction_id(c: Compaction) -> u8 {
    match c {
        Compaction::Alternatives => 0,
        Compaction::Weave => 1,
    }
}

fn class_id(c: NodeClass) -> u8 {
    match c {
        NodeClass::Keyed => 0,
        NodeClass::Frontier => 1,
        NodeClass::BeyondFrontier => 2,
        NodeClass::Unkeyed => 3,
        NodeClass::Text => 4,
    }
}

fn class_from_id(id: u8) -> Option<NodeClass> {
    Some(match id {
        0 => NodeClass::Keyed,
        1 => NodeClass::Frontier,
        2 => NodeClass::BeyondFrontier,
        3 => NodeClass::Unkeyed,
        4 => NodeClass::Text,
        _ => return None,
    })
}

/// Appends a timestamp's runs as `varint run-count` then per run
/// `varint lo, varint (hi - lo)`.
fn put_timeset(out: &mut Vec<u8>, t: TimeRef<'_>) {
    let runs = t.intervals();
    put_varint(out, runs.len() as u64);
    for &(lo, hi) in runs {
        put_varint(out, lo as u64);
        put_varint(out, (hi - lo) as u64);
    }
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, StoreError> {
    let at = *pos;
    let v = get_varint(buf, pos).map_err(corrupt)?;
    u32::try_from(v).map_err(|_| corrupt_at(at, "checkpoint state: u32 overflow"))
}

fn get_byte(buf: &[u8], pos: &mut usize) -> Result<u8, StoreError> {
    let Some(&b) = buf.get(*pos) else {
        return Err(corrupt_at(*pos, "checkpoint state: truncated"));
    };
    *pos += 1;
    Ok(b)
}

/// Decodes the runs of a timestamp written by [`put_timeset`] into `out`
/// (cleared first), rejecting unordered or overflowing intervals and any
/// run reaching past `latest`, the newest version the payload can
/// mention. Adjacent runs coalesce, as a union would. The cost is per
/// run, never per version.
fn get_runs(
    buf: &[u8],
    pos: &mut usize,
    latest: u32,
    out: &mut Vec<(u32, u32)>,
) -> Result<(), StoreError> {
    out.clear();
    let runs = get_varint(buf, pos).map_err(corrupt)? as usize;
    // a run costs ≥ 2 encoded bytes; an implausible count is corruption
    if runs > buf.len() / 2 + 1 {
        return Err(corrupt_at(*pos, "checkpoint state: implausible run count"));
    }
    for _ in 0..runs {
        let at = *pos;
        let lo = get_u32(buf, pos)?;
        let span = get_u32(buf, pos)?;
        let hi = lo
            .checked_add(span)
            .ok_or_else(|| corrupt_at(at, "checkpoint state: interval overflow"))?;
        if lo == 0 || out.last().is_some_and(|&(_, p)| lo <= p) {
            return Err(corrupt_at(at, "checkpoint state: intervals out of order"));
        }
        if hi > latest {
            return Err(corrupt_at(at, "checkpoint state: interval past latest"));
        }
        match out.last_mut() {
            Some(last) if lo == last.1 + 1 => last.1 = hi,
            _ => out.push((lo, hi)),
        }
    }
    Ok(())
}

/// [`get_runs`] as a [`TimeSet`].
#[cfg(test)]
fn get_timeset(buf: &[u8], pos: &mut usize, latest: u32) -> Result<TimeSet, StoreError> {
    let mut runs = Vec::new();
    get_runs(buf, pos, latest, &mut runs)?;
    Ok(TimeRef::new(&runs).to_set())
}

/// Decodes one key part written by [`put_archive_body`]: its path, which
/// must be one of the restoring spec's `names` and takes its name from
/// there, its canonical value and its fingerprint.
fn get_key_part(buf: &[u8], pos: &mut usize, names: &[&PathName]) -> Result<KeyPart, StoreError> {
    let at = *pos;
    let path = get_str_ref(buf, pos).map_err(corrupt)?;
    let Some(&path) = names.iter().find(|name| ***name == path) else {
        return Err(corrupt_at(at, "checkpoint state: undeclared key path"));
    };
    let canon = get_str(buf, pos).map_err(corrupt)?;
    let at = *pos;
    let Some(fp_bytes) = buf.get(at..at + 16) else {
        return Err(corrupt_at(at, "checkpoint state: truncated fingerprint"));
    };
    *pos += 16;
    let mut fp = [0u8; 16];
    fp.copy_from_slice(fp_bytes);
    Ok(KeyPart {
        path: path.clone(),
        canon,
        fp: u128::from_le_bytes(fp),
    })
}

/// Appends the body of one [`Archive`] (no backend tag).
fn put_archive_body(out: &mut Vec<u8>, a: &Archive) {
    put_varint(out, a.latest() as u64);
    out.push(compaction_id(a.compaction()));
    put_str(out, &a.spec().to_string());
    let syms = a.syms();
    put_varint(out, syms.len() as u64);
    for (_, name) in syms.iter() {
        put_str(out, name);
    }
    put_varint(out, a.len() as u64);
    for i in 0..a.len() {
        let id = ANodeId(i as u32);
        match a.kind(id) {
            AKind::Element(s) => {
                out.push(0);
                put_varint(out, s.index() as u64);
            }
            AKind::Text(t) => {
                out.push(1);
                put_str(out, t);
            }
            AKind::Stamp => out.push(2),
        }
        put_varint(out, a.parent(id).map_or(0, |p| p.0 as u64 + 1));
        let children = a.children(id);
        put_varint(out, children.len() as u64);
        for c in children {
            put_varint(out, c.0 as u64);
        }
        let attrs = a.attrs(id);
        put_varint(out, attrs.len() as u64);
        for (s, v) in attrs {
            put_varint(out, s.index() as u64);
            put_str(out, v);
        }
        match a.time(id) {
            None => out.push(0),
            Some(t) => {
                out.push(1);
                put_timeset(out, t);
            }
        }
        match a.key(id) {
            None => out.push(0),
            Some(k) => {
                out.push(1);
                put_varint(out, k.parts().len() as u64);
                for p in k.parts() {
                    put_str(out, &p.path);
                    put_str(out, &p.canon);
                    out.extend_from_slice(&p.fp.to_le_bytes());
                }
            }
        }
        out.push(class_id(a.class(id)));
    }
    put_varint(out, a.root().0 as u64);
}

/// Decodes one archive body at `*pos`. `expect` carries the restoring
/// store's spec and compaction mode; a mismatch answers `Ok(None)` so the
/// caller can fall back to a full replay under its own configuration.
///
/// Each node goes straight into an arena and pools laid out as the
/// archive keeps them ([`Decoded`]) — its text, children, attributes and
/// timestamp runs where they stay — and then one walk
/// ([`Decoded::finish`]) checks the tree and derives what is not stored.
fn get_archive_body(
    buf: &[u8],
    pos: &mut usize,
    expect_spec: &KeySpec,
    expect_compaction: Compaction,
) -> Result<Option<Archive>, StoreError> {
    let latest = get_u32(buf, pos)?;
    let compaction = match get_byte(buf, pos)? {
        0 => Compaction::Alternatives,
        1 => Compaction::Weave,
        _ => return Err(corrupt_at(*pos - 1, "checkpoint state: bad compaction id")),
    };
    let spec_src = get_str_ref(buf, pos).map_err(corrupt)?;
    // the text as `encode_archive` writes it is the restoring spec; only
    // text written otherwise is parsed to be compared
    if spec_src != expect_spec.to_string() {
        let spec = KeySpec::parse(spec_src)
            .map_err(|e| corrupt_at(*pos, format!("checkpoint state: bad key spec: {e}")))?;
        if spec != *expect_spec {
            return Ok(None);
        }
    }
    if compaction != expect_compaction {
        return Ok(None);
    }

    let sym_count = get_varint(buf, pos).map_err(corrupt)? as usize;
    if sym_count > buf.len() {
        return Err(corrupt_at(
            *pos,
            "checkpoint state: implausible symbol count",
        ));
    }
    let mut syms = SymbolTable::new();
    for _ in 0..sym_count {
        let name = get_str_ref(buf, pos).map_err(corrupt)?;
        syms.intern(name);
    }
    if syms.len() != sym_count {
        return Err(corrupt_at(*pos, "checkpoint state: duplicate symbol"));
    }

    let node_count = get_varint(buf, pos).map_err(corrupt)? as usize;
    if node_count == 0 || node_count > buf.len() {
        return Err(corrupt_at(*pos, "checkpoint state: implausible node count"));
    }
    let get_sym = |buf: &[u8], pos: &mut usize| -> Result<Sym, StoreError> {
        let at = *pos;
        let i = get_u32(buf, pos)?;
        if (i as usize) < sym_count {
            Ok(Sym(i))
        } else {
            Err(corrupt_at(at, "checkpoint state: symbol out of range"))
        }
    };
    let get_id = |buf: &[u8], pos: &mut usize| -> Result<ANodeId, StoreError> {
        let at = *pos;
        let i = get_u32(buf, pos)?;
        if (i as usize) < node_count {
            Ok(ANodeId(i))
        } else {
            Err(corrupt_at(at, "checkpoint state: node id out of range"))
        }
    };
    // the restoring spec's path names, which the key parts share, looked
    // up in one table
    let mut names: Vec<&PathName> = Vec::new();
    for name in expect_spec.path_names() {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let mut d = Decoded::new();
    // one node's timestamp runs and key parts, gathered here so that
    // neither costs a block of its own
    let (mut runs, mut parts) = (Vec::new(), Vec::new());
    for _ in 0..node_count {
        let kind = match get_byte(buf, pos)? {
            0 => AKind::Element(get_sym(buf, pos)?),
            1 => AKind::Text(get_str_ref(buf, pos).map_err(corrupt)?),
            2 => AKind::Stamp,
            _ => return Err(corrupt_at(*pos - 1, "checkpoint state: bad node kind")),
        };
        let at = *pos;
        let parent_raw = get_u32(buf, pos)?;
        let parent = match parent_raw {
            0 => None,
            p if (p as usize) <= node_count => Some(ANodeId(p - 1)),
            _ => return Err(corrupt_at(at, "checkpoint state: parent out of range")),
        };
        let child_count = get_varint(buf, pos).map_err(corrupt)? as usize;
        if child_count > buf.len() {
            return Err(corrupt_at(
                *pos,
                "checkpoint state: implausible child count",
            ));
        }
        let children = d.kids.extend_with(child_count, || get_id(buf, pos))?;
        let attr_count = get_varint(buf, pos).map_err(corrupt)? as usize;
        if attr_count > buf.len() {
            return Err(corrupt_at(*pos, "checkpoint state: implausible attr count"));
        }
        if attr_count > 0 && matches!(kind, AKind::Text(_)) {
            return Err(corrupt_at(
                *pos,
                "checkpoint state: attributes on a text node",
            ));
        }
        let attrs = d.attrs.extend_with(attr_count, || {
            let name = get_sym(buf, pos)?;
            let value = get_str_ref(buf, pos).map_err(corrupt)?;
            Ok::<_, StoreError>((name, d.text.push(value)))
        })?;
        let time = match get_byte(buf, pos)? {
            0 => None,
            1 => {
                get_runs(buf, pos, latest, &mut runs)?;
                Some(&runs[..])
            }
            _ => return Err(corrupt_at(*pos - 1, "checkpoint state: bad time flag")),
        };
        let key = match get_byte(buf, pos)? {
            0 => None,
            1 => {
                let part_count = get_varint(buf, pos).map_err(corrupt)? as usize;
                if part_count > buf.len() {
                    return Err(corrupt_at(*pos, "checkpoint state: implausible key arity"));
                }
                for _ in 0..part_count {
                    parts.push(get_key_part(buf, pos, &names)?);
                }
                Some(parts.drain(..).collect::<KeyValue>())
            }
            _ => return Err(corrupt_at(*pos - 1, "checkpoint state: bad key flag")),
        };
        let class = class_from_id(get_byte(buf, pos)?)
            .ok_or_else(|| corrupt_at(*pos - 1, "checkpoint state: bad node class"))?;
        d.push(kind, parent, (children, attrs), time, key, class);
    }
    let root = get_id(buf, pos)?;
    // the restoring spec, whose path names the key parts share
    let config = (Arc::new(expect_spec.clone()), compaction, syms, latest);
    let archive = d.finish(config, root).map_err(|refusal| {
        let reason = match refusal {
            Refusal::TooDeep(_) => "tree nests too deep".to_owned(),
            Refusal::Broken(e) => format!("broken invariant: {e}"),
            other => other.to_string(),
        };
        corrupt_at(*pos, format!("checkpoint state: {reason}"))
    })?;
    Ok(Some(archive))
}

/// Serializes an [`Archive`] into a tagged checkpoint state payload.
pub fn encode_archive(a: &Archive) -> Vec<u8> {
    let mut out = vec![STATE_ARCHIVE];
    put_archive_body(&mut out, a);
    out
}

/// Restores an [`Archive`] from a tagged state payload.
///
/// Answers `Ok(None)` when the payload was taken under a different
/// backend tag, key spec, or compaction mode — the caller falls back to a
/// full journal replay. Damaged payloads are a positioned
/// [`StoreError::Corrupt`].
pub fn decode_archive(
    state: &[u8],
    expect_spec: &KeySpec,
    expect_compaction: Compaction,
) -> Result<Option<Archive>, StoreError> {
    let mut pos = 0;
    if get_byte(state, &mut pos)? != STATE_ARCHIVE {
        return Ok(None);
    }
    let Some(a) = get_archive_body(state, &mut pos, expect_spec, expect_compaction)? else {
        return Ok(None);
    };
    if pos != state.len() {
        return Err(corrupt_at(pos, "checkpoint state: trailing bytes"));
    }
    Ok(Some(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    fn docs() -> Vec<xarch_xml::Document> {
        [
            "<db><rec><id>1</id><val>a</val></rec></db>",
            "<db><rec><id>1</id><val>b</val></rec><rec><id>2</id><val>c</val></rec></db>",
            "<db><rec><id>2</id><val>c2</val></rec></db>",
        ]
        .iter()
        .map(|s| xarch_xml::parse(s).unwrap())
        .collect()
    }

    fn populated() -> Archive {
        let mut a = Archive::new(spec());
        for d in &docs() {
            a.add_version(d).unwrap();
        }
        a.add_empty_version();
        a
    }

    #[test]
    fn archive_state_round_trips_byte_identically() {
        let a = populated();
        let state = encode_archive(&a);
        let b = decode_archive(&state, &spec(), Compaction::Alternatives)
            .unwrap()
            .expect("matching config restores");
        assert_eq!(b.latest(), a.latest());
        for v in 1..=a.latest() {
            let mut want = Vec::new();
            let mut got = Vec::new();
            let w = a.retrieve_into(v, &mut want).unwrap();
            let g = b.retrieve_into(v, &mut got).unwrap();
            assert_eq!(w, g, "v{v} existence");
            assert_eq!(want, got, "v{v} bytes");
        }
        // and the restored archive keeps merging: identical next version
        let next = xarch_xml::parse("<db><rec><id>3</id><val>z</val></rec></db>").unwrap();
        let mut a2 = a.clone();
        let mut b2 = b.clone();
        a2.add_version(&next).unwrap();
        b2.add_version(&next).unwrap();
        let mut want = Vec::new();
        let mut got = Vec::new();
        a2.retrieve_into(a2.latest(), &mut want).unwrap();
        b2.retrieve_into(b2.latest(), &mut got).unwrap();
        assert_eq!(want, got);
    }

    /// A run is decoded in O(1), whatever it spans, and an archive body
    /// refuses one that reaches past its own `latest` — a flipped varint
    /// continuation bit used to spin a checkpoint restore for up to 2³²
    /// inserts.
    #[test]
    fn a_run_spanning_the_whole_version_space_decodes_promptly_and_is_refused() {
        let whole = TimeSet::from_range(1, u32::MAX);
        let mut bytes = Vec::new();
        put_timeset(&mut bytes, whole.view());
        assert_eq!(get_timeset(&bytes, &mut 0, u32::MAX).unwrap(), whole);

        let mut a = populated();
        let root = a.root();
        a.put_time(root, whole.intervals());
        let err = decode_archive(&encode_archive(&a), &spec(), Compaction::Alternatives)
            .expect_err("a timestamp past `latest` is corruption");
        assert!(
            matches!(&err, StoreError::Corrupt { offset, reason }
                if *offset > 0 && reason.contains("past latest")),
            "{err}"
        );
    }

    /// The deepest tree an archive grows — a document `MAX_DEPTH` elements
    /// deep whose frontier content changed, so alternatives sit under a
    /// stamp — restores; a node beneath its deepest is corruption, refused
    /// before `check_invariants` or any other recursive walker sees it.
    #[test]
    fn a_tree_deeper_than_any_archive_grows_is_refused() {
        let spec = KeySpec::parse("(/, (db, {}))").unwrap();
        let deep = |leaf: &str| {
            let mut d = xarch_xml::Document::new("db");
            let mut at = d.root();
            for _ in 1..MAX_DEPTH {
                at = d.add_element(at, "a");
            }
            d.add_text(at, leaf);
            d
        };
        let mut a = Archive::new(spec.clone());
        a.add_version(&deep("x")).unwrap();
        a.add_version(&deep("y")).unwrap();
        assert_eq!(a.stats().stamps, 2, "the content split into alternatives");
        let b = decode_archive(&encode_archive(&a), &spec, Compaction::Alternatives)
            .unwrap()
            .expect("the deepest archive restores");
        for v in 1..=2 {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            a.retrieve_into(v, &mut want).unwrap();
            b.retrieve_into(v, &mut got).unwrap();
            assert_eq!(want, got, "v{v}");
        }
        let leaf = (0..a.len() as u32)
            .map(ANodeId)
            .find(|&id| matches!(a.kind(id), AKind::Text(_)))
            .unwrap();
        a.push_node(leaf, AKind::Text("deeper"), NodeClass::BeyondFrontier, None);
        let err = decode_archive(&encode_archive(&a), &spec, Compaction::Alternatives)
            .expect_err("one level deeper than an archive grows");
        assert!(
            matches!(&err, StoreError::Corrupt { reason, .. } if reason.contains("too deep")),
            "{err}"
        );
    }

    /// A restored key part takes its path from the restoring spec; a path
    /// the spec does not declare is corruption at the path's offset.
    #[test]
    fn an_undeclared_key_path_is_corrupt_at_its_offset() {
        let a = populated();
        let state = encode_archive(&a);
        let part = (0..a.len() as u32)
            .find_map(|i| a.key(ANodeId(i))?.parts().first().cloned())
            .expect("a record keyed by `id`");
        assert_eq!(&*part.path, "id");
        let mut written = Vec::new();
        put_str(&mut written, &part.path);
        put_str(&mut written, &part.canon);
        written.extend_from_slice(&part.fp.to_le_bytes());
        let at = (state.windows(written.len()))
            .position(|w| w == written)
            .expect("the part is in the state");
        let mut renamed = state.clone();
        renamed[at + 2] = b'x';
        let err = decode_archive(&renamed, &spec(), Compaction::Alternatives)
            .expect_err("`ix` is no key path of the spec");
        assert!(
            matches!(&err, StoreError::Corrupt { offset, reason }
                if *offset == at as u64 && reason.contains("undeclared key path")),
            "{err}"
        );
    }

    /// A checkpoint's spec text that is not the restoring spec's own
    /// rendering is parsed: written otherwise, the same spec restores, and
    /// text that does not parse is corrupt where it ends.
    #[test]
    fn a_spec_written_otherwise_is_parsed() {
        let a = populated();
        let state = encode_archive(&a);
        // tag, `latest`, compaction, then the spec text
        let mut pos = 1;
        get_varint(&state, &mut pos).unwrap();
        pos += 1;
        let text_at = pos;
        let text = get_str_ref(&state, &mut pos).unwrap();
        assert_eq!(text, spec().to_string());
        let with_text = |text: &str| {
            let mut out = state[..text_at].to_vec();
            put_str(&mut out, text);
            out.extend_from_slice(&state[pos..]);
            (out, text_at + 1 + text.len())
        };
        let (spaced, _) =
            with_text("# the same keys\n(/,(db,{}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))");
        let b = decode_archive(&spaced, &spec(), Compaction::Alternatives)
            .unwrap()
            .expect("the same spec restores");
        assert_eq!(encode_archive(&b), state);
        let (broken, end) = with_text("(/db, (rec, {id}))");
        let err = decode_archive(&broken, &spec(), Compaction::Alternatives).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { offset, reason }
                if *offset == end as u64 && reason.contains("bad key spec")),
            "{err}"
        );
    }

    #[test]
    fn mismatched_configuration_falls_back_not_errors() {
        let a = populated();
        let state = encode_archive(&a);
        // compaction mismatch
        assert!(decode_archive(&state, &spec(), Compaction::Weave)
            .unwrap()
            .is_none());
        // spec mismatch
        let other = KeySpec::parse("(/, (db, {}))\n(/db, (item, {sku}))").unwrap();
        assert!(decode_archive(&state, &other, Compaction::Alternatives)
            .unwrap()
            .is_none());
        // a foreign backend tag: the retired chunked (2), external-memory
        // (3) and key-path sidecar (5) tags read as a mismatch like any
        // other
        for tag in [2, 3, 5] {
            let mut tagged = state.clone();
            tagged[0] = tag;
            assert!(decode_archive(&tagged, &spec(), Compaction::Alternatives)
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn bit_flip_sweep_over_state_never_panics() {
        let a = populated();
        let state = encode_archive(&a);
        for i in 0..state.len() {
            let mut mutated = state.clone();
            mutated[i] ^= 1 << (i % 8);
            // any answer is fine except a panic or a structurally broken
            // archive claiming to be valid
            if let Ok(Some(b)) = decode_archive(&mutated, &spec(), Compaction::Alternatives) {
                b.check_invariants().unwrap();
            }
        }
    }

    /// `(lo, span)` runs as [`put_timeset`] lays them out, written raw so
    /// a test can lay out what the writer never would.
    fn raw_timeset(runs: &[(u64, u64)]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, runs.len() as u64);
        for &(lo, span) in runs {
            put_varint(&mut out, lo);
            put_varint(&mut out, span);
        }
        out
    }

    #[test]
    fn a_thousand_run_timestamp_round_trips() {
        let t: TimeSet = (1..=2000).step_by(2).collect();
        assert_eq!(t.run_count(), 1000);
        let mut buf = Vec::new();
        put_timeset(&mut buf, t.view());
        let mut pos = 0;
        assert_eq!(get_timeset(&buf, &mut pos, 2000).unwrap(), t);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn adjacent_timestamp_runs_coalesce_on_decode() {
        // 1-2 and 3, then 5-7 and 8-9: what a union of the runs reads
        let buf = raw_timeset(&[(1, 1), (3, 0), (5, 2), (8, 1)]);
        let mut pos = 0;
        let t = get_timeset(&buf, &mut pos, 9).unwrap();
        assert_eq!(t.to_string(), "1-3,5-9");
        assert_eq!(t.run_count(), 2);
        let one = get_timeset(&raw_timeset(&[(2, 0), (3, 4)]), &mut 0, 9).unwrap();
        assert_eq!(one, TimeSet::from_range(2, 7));
    }

    #[test]
    fn timestamp_refusals_keep_their_offsets() {
        let refused = |runs: &[(u64, u64)], latest| {
            let buf = raw_timeset(runs);
            match get_timeset(&buf, &mut 0, latest) {
                Err(StoreError::Corrupt { offset, reason }) => (offset, reason),
                other => panic!("{runs:?} decoded to {other:?}"),
            }
        };
        // each refusal names the offset of the run it refuses: the count
        // takes byte 0 and every run here two bytes
        let (at, why) = refused(&[(1, 1), (2, 0)], 9);
        assert_eq!(at, 3);
        assert!(why.contains("out of order"), "{why}");
        let (at, why) = refused(&[(0, 1)], 9);
        assert_eq!(at, 1);
        assert!(why.contains("out of order"), "{why}");
        let (at, why) = refused(&[(1, 0), (4, 6)], 9);
        assert_eq!(at, 3);
        assert!(why.contains("past latest"), "{why}");
        let (at, why) = refused(&[(u64::from(u32::MAX), 1)], u32::MAX);
        assert_eq!(at, 1);
        assert!(why.contains("overflow"), "{why}");
    }
}
