//! External sorting of sibling groups (§6.2).
//!
//! "We read the internal representation of the document in document order
//! until we reach the memory limit M ... sort the partial tree in memory
//! and write it out to disk (a sorted run) ... To obtain a sorted tree, we
//! repeatedly merge the sorted runs" with fan-in `(M/B) − 1`.
//!
//! [`write_sorted_version`] turns an annotated document into a sorted
//! event stream under a memory budget: subtrees that fit in `M` are loaded,
//! sorted in memory and emitted as *small* entries; larger nodes become
//! *spines* whose children are run-sorted and k-way merged.

use xarch_keys::{Annotations, NodeClass};
use xarch_xml::{Document, NodeId, NodeKind};

use crate::etree::ETree;
use crate::events::{
    encode_small, encode_spine_close, encode_spine_open, Peeked, SpineHeader, StreamCursor,
    StreamError,
};
use crate::io::{IoConfig, IoStats, PagedWriter};

type Result<T> = std::result::Result<T, StreamError>;

/// Serializes `doc` as a sorted event stream wrapped in a synthetic `root`
/// spine (mirroring the in-memory archive's root), charging I/O for run
/// writes/reads and merge passes.
pub fn write_sorted_version(
    doc: &Document,
    ann: &Annotations,
    cfg: &IoConfig,
) -> Result<(Vec<u8>, IoStats)> {
    let mut stats = IoStats::default();
    // Precompute serialized-size estimates bottom-up.
    let sizes = estimate_sizes(doc);

    let mut out = PagedWriter::new(cfg.page_bytes);
    let root_header = SpineHeader {
        tag: "root".into(),
        attrs: Vec::new(),
        sort_key: Some("root\u{0}".into()),
        time: None,
    };
    let mut header = Vec::new();
    encode_spine_open(&root_header, &mut header);
    out.write(&header);
    emit_sorted(doc, ann, doc.root(), &sizes, cfg, &mut out, &mut stats)?;
    let mut close = Vec::new();
    encode_spine_close(&mut close);
    out.write(&close);
    let (bytes, writes) = out.finish();
    stats.page_writes += writes;
    Ok((bytes, stats))
}

/// Rough serialized size of every subtree (arena-indexed).
pub fn estimate_sizes(doc: &Document) -> Vec<usize> {
    let mut sizes = vec![0usize; doc.len()];
    fn rec(doc: &Document, id: NodeId, sizes: &mut Vec<usize>) -> usize {
        let mut s = 8;
        match doc.kind(id) {
            NodeKind::Text(t) => s += t.len(),
            NodeKind::Element(sym) => {
                s += doc.syms().resolve(sym).len();
                for (a, v) in doc.attrs(id) {
                    s += doc.syms().resolve(a).len() + v.len() + 4;
                }
                for &c in doc.children(id) {
                    s += rec(doc, c, sizes);
                }
            }
        }
        sizes[id.index()] = s;
        s
    }
    rec(doc, doc.root(), &mut sizes);
    sizes
}

/// Emits one (possibly big) subtree in sorted order.
fn emit_sorted(
    doc: &Document,
    ann: &Annotations,
    id: NodeId,
    sizes: &[usize],
    cfg: &IoConfig,
    out: &mut PagedWriter,
    stats: &mut IoStats,
) -> Result<()> {
    if sizes[id.index()] <= cfg.mem_bytes {
        // fits in memory: load, sort, emit as a small entry
        let mut tree = ETree::from_doc(doc, ann, id);
        tree.sort();
        let mut bytes = Vec::new();
        encode_small(&tree, &mut bytes);
        out.write(&bytes);
        return Ok(());
    }
    // spine node: must be a keyed, non-frontier element
    let NodeKind::Element(sym) = doc.kind(id) else {
        return Err(StreamError::new("oversized text node"));
    };
    match ann.class(id) {
        NodeClass::Keyed => {}
        c => {
            return Err(StreamError::new(format!(
                "node <{}> exceeds the memory budget but is {c:?}; the external \
                 archiver streams only keyed non-frontier nodes",
                doc.syms().resolve(sym)
            )))
        }
    }
    let key = ann.key(id).expect("keyed");
    let mut sort_key = doc.syms().resolve(sym).to_owned();
    sort_key.push('\u{0}');
    for p in key.parts() {
        sort_key.push_str(&p.path);
        sort_key.push('\u{1}');
        sort_key.push_str(&p.canon);
        sort_key.push('\u{2}');
    }
    let header = SpineHeader {
        tag: doc.syms().resolve(sym).to_owned(),
        attrs: doc
            .attrs(id)
            .map(|(a, v)| (doc.syms().resolve(a).to_owned(), v.to_owned()))
            .collect(),
        sort_key: Some(sort_key),
        time: None,
    };
    let mut hbytes = Vec::new();
    encode_spine_open(&header, &mut hbytes);
    out.write(&hbytes);

    // Children: build sorted runs of small entries; big children become
    // single-entry runs (recursively sorted spines).
    let mut runs: Vec<Vec<u8>> = Vec::new();
    let mut run: Vec<(String, Vec<u8>)> = Vec::new();
    let mut run_bytes = 0usize;
    let flush = |run: &mut Vec<(String, Vec<u8>)>,
                 run_bytes: &mut usize,
                 runs: &mut Vec<Vec<u8>>,
                 stats: &mut IoStats| {
        if run.is_empty() {
            return;
        }
        run.sort_by(|a, b| a.0.cmp(&b.0));
        let mut w = PagedWriter::new(cfg.page_bytes);
        for (_, bytes) in run.drain(..) {
            w.write(&bytes);
        }
        let (bytes, writes) = w.finish();
        stats.page_writes += writes;
        runs.push(bytes);
        *run_bytes = 0;
    };
    for &c in doc.children(id) {
        if matches!(doc.kind(c), NodeKind::Text(_)) || ann.key(c).is_none() {
            return Err(StreamError::new(
                "unkeyed child of a streamed (spine) node — cover it with a key",
            ));
        }
        if sizes[c.index()] <= cfg.mem_bytes {
            let mut tree = ETree::from_doc(doc, ann, c);
            tree.sort();
            let skey = tree.sort_key.clone().expect("keyed child");
            let mut bytes = Vec::new();
            encode_small(&tree, &mut bytes);
            run_bytes += bytes.len();
            run.push((skey, bytes));
            if run_bytes > cfg.mem_bytes {
                flush(&mut run, &mut run_bytes, &mut runs, stats);
            }
        } else {
            // big child: recurse into its own buffer; it forms a one-entry run
            let mut w = PagedWriter::new(cfg.page_bytes);
            emit_sorted(doc, ann, c, sizes, cfg, &mut w, stats)?;
            let (bytes, writes) = w.finish();
            stats.page_writes += writes;
            runs.push(bytes);
        }
    }
    flush(&mut run, &mut run_bytes, &mut runs, stats);

    // k-way merge passes with fan-in (M/B − 1).
    let merged = kway_merge(runs, cfg, stats)?;
    out.write(&merged);
    let mut close = Vec::new();
    encode_spine_close(&mut close);
    out.write(&close);
    Ok(())
}

/// Repeatedly merges sorted runs `fan_in` at a time until one remains.
pub fn kway_merge(mut runs: Vec<Vec<u8>>, cfg: &IoConfig, stats: &mut IoStats) -> Result<Vec<u8>> {
    if runs.is_empty() {
        return Ok(Vec::new());
    }
    let fan_in = cfg.fan_in();
    while runs.len() > 1 {
        let mut next: Vec<Vec<u8>> = Vec::with_capacity(runs.len().div_ceil(fan_in));
        for group in runs.chunks(fan_in) {
            next.push(merge_group(group, cfg, stats)?);
        }
        runs = next;
    }
    Ok(runs.pop().unwrap_or_default())
}

/// Merges one group of sorted runs into a single sorted run.
fn merge_group(group: &[Vec<u8>], cfg: &IoConfig, stats: &mut IoStats) -> Result<Vec<u8>> {
    let mut cursors: Vec<StreamCursor<'_>> = group
        .iter()
        .map(|r| StreamCursor::new(r, cfg.page_bytes))
        .collect();
    let mut out = PagedWriter::new(cfg.page_bytes);
    loop {
        // pick the cursor with the smallest next sort key
        let mut best: Option<(usize, String)> = None;
        for (i, cur) in cursors.iter().enumerate() {
            let key = match cur.peek()? {
                Peeked::Eof => continue,
                Peeked::Small(Some(k)) | Peeked::Spine(Some(k)) => k,
                Peeked::Small(None) => return Err(StreamError::new("unkeyed entry in sorted run")),
                Peeked::Spine(None) => return Err(StreamError::new("unkeyed spine in sorted run")),
                Peeked::Close => return Err(StreamError::new("stray close in run")),
            };
            match &best {
                Some((_, bk)) if *bk <= key => {}
                _ => best = Some((i, key)),
            }
        }
        let Some((i, _)) = best else {
            break;
        };
        cursors[i].copy_entry(&mut out, None)?;
    }
    for c in &cursors {
        stats.page_reads += c.pages_read();
    }
    let (bytes, writes) = out.finish();
    stats.page_writes += writes;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::decode_small;
    use xarch_keys::{annotate, KeySpec};
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    fn doc_with_n(n: usize) -> xarch_xml::Document {
        let mut s = String::from("<db>");
        for i in (0..n).rev() {
            s.push_str(&format!("<rec><id>{i:05}</id><val>value-{i}</val></rec>"));
        }
        s.push_str("</db>");
        parse(&s).unwrap()
    }

    fn sorted_keys(stream: &[u8]) -> Vec<String> {
        let mut cur = StreamCursor::new(stream, 4096);
        let _ = cur.take_spine_open().unwrap(); // root
        let mut keys = Vec::new();
        loop {
            match cur.peek().unwrap() {
                Peeked::Small(Some(_)) => {
                    let t = cur.take_small().unwrap();
                    // db subtree is small: child recs sorted inside
                    for c in &t.children {
                        keys.push(c.sort_key.clone().unwrap());
                    }
                }
                Peeked::Spine(Some(_)) => {
                    let _ = cur.take_spine_open().unwrap();
                }
                Peeked::Small(None) | Peeked::Spine(None) => panic!("unkeyed"),
                Peeked::Close => {
                    cur.take_spine_close().unwrap();
                    if matches!(cur.peek().unwrap(), Peeked::Eof) {
                        break;
                    }
                }
                Peeked::Eof => break,
            }
            if let Peeked::Small(Some(_)) = cur.peek().unwrap() {
                // children of a spine: collect their keys
                while let Peeked::Small(Some(_)) = cur.peek().unwrap() {
                    let t = cur.take_small().unwrap();
                    keys.push(t.sort_key.clone().unwrap());
                }
            }
        }
        keys
    }

    #[test]
    fn small_document_is_one_entry() {
        let doc = doc_with_n(5);
        let ann = annotate(&doc, &spec()).unwrap();
        let cfg = IoConfig::default();
        let (stream, stats) = write_sorted_version(&doc, &ann, &cfg).unwrap();
        assert!(stats.page_writes >= 1);
        let keys = sorted_keys(&stream);
        assert_eq!(keys.len(), 5);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
    }

    #[test]
    fn big_document_streams_with_runs() {
        let doc = doc_with_n(300);
        let ann = annotate(&doc, &spec()).unwrap();
        // tiny memory budget forces the db node to become a spine with
        // several runs
        let cfg = IoConfig {
            mem_bytes: 1024,
            page_bytes: 128,
        };
        let (stream, stats) = write_sorted_version(&doc, &ann, &cfg).unwrap();
        // run generation + merge must have done real I/O
        assert!(stats.page_reads > 0, "{stats:?}");
        assert!(stats.page_writes > 0);
        let keys = sorted_keys(&stream);
        assert_eq!(keys.len(), 300);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn more_memory_means_fewer_ios() {
        let doc = doc_with_n(600);
        let ann = annotate(&doc, &spec()).unwrap();
        let small = IoConfig {
            mem_bytes: 512,
            page_bytes: 128,
        };
        let big = IoConfig {
            mem_bytes: 64 << 10,
            page_bytes: 128,
        };
        let (_, s1) = write_sorted_version(&doc, &ann, &small).unwrap();
        let (_, s2) = write_sorted_version(&doc, &ann, &big).unwrap();
        assert!(
            s2.total() < s1.total(),
            "M=64K {s2:?} should beat M=512 {s1:?}"
        );
    }

    #[test]
    fn kway_merge_handles_many_runs() {
        // build runs of single entries with descending keys across runs
        let cfg = IoConfig {
            mem_bytes: 512,
            page_bytes: 64,
        };
        let mut runs = Vec::new();
        for i in (0..20).rev() {
            let tree = ETree {
                kind: crate::etree::EKind::Element {
                    tag: "rec".into(),
                    attrs: Vec::new(),
                },
                sort_key: Some(format!("rec\u{0}{i:03}")),
                frontier: true,
                time: None,
                children: Vec::new(),
            };
            let mut bytes = Vec::new();
            encode_small(&tree, &mut bytes);
            runs.push(bytes);
        }
        let mut stats = IoStats::default();
        let merged = kway_merge(runs, &cfg, &mut stats).unwrap();
        let mut pos = 0;
        let mut keys = Vec::new();
        while pos < merged.len() {
            let t = decode_small(&merged, &mut pos).unwrap();
            keys.push(t.sort_key.unwrap());
        }
        assert_eq!(keys.len(), 20);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }
}
