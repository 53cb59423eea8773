//! Allocation budgets of the label-driven queries and the XML emit path,
//! counted exactly.
//!
//! A range row shares its label with the archive node it lists — the
//! symbol table's tag and the node's key value, each behind one reference
//! count — and holds its clamped lifetime inline when that is one run.
//! So `range` allocates its result and nothing per row, and the steps and
//! timestamps it is built from allocate nothing at all. Escaping into a
//! reserved `String` allocates nothing, a streamed retrieve into a
//! reserved `Vec` only its buffered front, and `history_values` no
//! `Document` per interval of constant content. A cold point query keys
//! each record it passes straight off the decoded payload, and allocates
//! nothing for it. An indexed `as_of` of a record with no timestamp
//! beneath its own allocates what the scan's does, and indexes built over
//! one version hold no timestamp tree beneath the root. The counts here
//! are blocks asked of the allocator by the calling thread, so they repeat
//! exactly and pin that shape without timing anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xarch::compress::BlockCodec;
use xarch::core::{Archive, KeyPart, KeyQuery, KeyValue, StoreReader, TimeSet, VersionStore};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::storage::scratch_path;
use xarch::{ArchiveBuilder, ColdArchive, DurableOptions, Store};

thread_local! {
    /// Blocks this thread has asked the allocator for.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread the blocks each thread asks
/// for (reallocations included, as the trait's default `realloc` asks
/// `alloc`), so tests running side by side never see each other's.
struct Counting;

// SAFETY: every request is passed to `System` unchanged; the count is a
// const-initialized thread-local `Cell`, which never allocates itself.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s contract, which is `System`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `alloc` above, so from `System`, with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The blocks `f` allocates on this thread, and what it returns (dropped
/// by the caller, outside the count).
fn blocks<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (BLOCKS.with(Cell::get) - before, out)
}

const RECORDS: usize = 300;
const VERSIONS: u32 = 64;

/// Seed 7's OMIM releases of 300 records, ingested in batches of 8 into
/// an indexed store.
fn fixture() -> Store {
    let docs = OmimGen::new(7).sequence(RECORDS, VERSIONS as usize);
    let mut store = ArchiveBuilder::new(omim_spec())
        .with_index()
        .open()
        .unwrap();
    for batch in docs.chunks(8) {
        store.add_versions(batch).expect("OMIM releases are keyed");
    }
    store
}

#[test]
fn range_allocates_its_result_and_no_row() {
    let store = fixture();
    let root = [KeyQuery::new("ROOT")];
    let mut indexed_counts = Vec::new();
    for window in [1..=1, 3..=7, 60..=VERSIONS, 1..=VERSIONS] {
        let (n, rows) = blocks(|| store.range(&root, window.clone()).unwrap());
        assert!(rows.len() >= RECORDS / 2, "{window:?}: {} rows", rows.len());
        assert!(n <= 2, "indexed range over {window:?}: {n} blocks");
        let (again, _) = blocks(|| store.range(&root, window.clone()).unwrap());
        assert_eq!(again, n, "the count repeats");
        indexed_counts.push(n);

        // the scan sorts its rows, which may take one scratch block more
        let plain: &Archive = store.archive();
        let (n, scanned) = blocks(|| plain.range(&root, window.clone()));
        assert_eq!(scanned, rows, "{window:?}");
        assert!(n <= 2, "scanned range over {window:?}: {n} blocks");
    }
    // whatever the row count
    assert!(
        indexed_counts.windows(2).all(|w| w[0] == w[1]),
        "{indexed_counts:?}"
    );
}

#[test]
fn steps_and_one_run_lifetimes_allocate_nothing() {
    let store = fixture();
    let a = store.archive();
    let (mut keyed, mut one_run) = (0, 0);
    for i in 0..a.len() as u32 {
        let id = xarch::core::ANodeId(i);
        let (n, step) = blocks(|| a.step_of(id));
        assert_eq!(n, 0, "step_of({id:?})");
        keyed += usize::from(step.is_some());
        let (n, life) = blocks(|| a.effective_time(id));
        if life.run_count() <= 1 {
            assert_eq!(n, 0, "effective_time({id:?}) = {life}");
            one_run += 1;
        }
    }
    assert!(
        keyed > RECORDS && one_run > RECORDS,
        "{keyed} keyed, {one_run} one-run"
    );
}

#[test]
fn one_run_timestamps_stay_off_the_heap() {
    let (n, mut t) = blocks(|| TimeSet::from_range(3, 9));
    assert_eq!(n, 0, "from_range");
    let (n, clamped) = blocks(|| t.clamp_range(5, 40));
    assert_eq!(
        (n, clamped.to_string()),
        (0, "5-9".to_owned()),
        "clamp_range"
    );
    let (n, ()) = blocks(|| {
        for v in [9, 5, 10, 2, 1] {
            t.insert(v);
        }
    });
    assert_eq!(
        (n, t.to_string()),
        (0, "1-10".to_owned()),
        "insert within one run"
    );
    let (n, joined) = blocks(|| t.union(&TimeSet::from_range(11, 14)));
    assert_eq!(
        (n, joined.to_string()),
        (0, "1-14".to_owned()),
        "union into one run"
    );
    let (n, copy) = blocks(|| joined.clone());
    assert_eq!((n, copy), (0, joined), "clone");
    // a second run is what takes a block
    let (n, ()) = blocks(|| t.insert(20));
    assert_eq!((n, t.to_string()), (1, "1-10,20".to_owned()));
}

#[test]
fn a_key_value_is_one_block_and_a_clone_none() {
    let part = |path: &str, canon: &str| KeyPart::new(path.into(), canon.to_owned());
    let mut parts = vec![
        part("a", "<a>1</a>"),
        part("b", "<b>2</b>"),
        part("c", "@c=\"3\""),
    ];
    let (n, key) = blocks(|| parts.drain(..).collect::<KeyValue>());
    assert_eq!((n, key.parts().len()), (1, 3), "three parts");
    let single = part("a", "<a>1</a>");
    let (n, _) = blocks(|| std::iter::once(single).collect::<KeyValue>());
    assert_eq!(n, 1, "one part");
    let (n, unit) = blocks(|| std::iter::empty().collect::<KeyValue>());
    assert_eq!((n, unit), (0, KeyValue::unit()), "no parts");
    let (n, copy) = blocks(|| key.clone());
    assert_eq!((n, copy), (0, key), "clone");
}

#[test]
fn escaping_into_a_reserved_string_allocates_nothing() {
    let texts = [
        "",
        "plain text with nothing to escape, longer than a word",
        "a < b && c > d \"quoted\" 'single'",
        "&&&&&&&&&&&&&&&&&&&&&&&&&&&&&&&&",
        "née 東京 😀 & <€>",
    ];
    let mut out = String::with_capacity(4096);
    for s in texts {
        let (n, ()) = blocks(|| xarch::xml::escape::escape_text_into(s, &mut out));
        assert_eq!(n, 0, "escape_text_into({s:?})");
        let (n, ()) = blocks(|| xarch::xml::escape::escape_attr_into(s, &mut out));
        assert_eq!(n, 0, "escape_attr_into({s:?})");
    }
    assert!(
        out.contains("&amp;&amp;") && out.contains("&quot;"),
        "{out}"
    );
}

#[test]
fn retrieve_into_a_reserved_vec_allocates_only_its_buffered_front() {
    let store = fixture();
    let plain: &Archive = store.archive();
    for v in [1, VERSIONS / 2, VERSIONS] {
        let mut sized = Vec::new();
        assert!(plain.retrieve_into(v, &mut sized).unwrap());
        let mut out = Vec::with_capacity(sized.len());
        let (n, written) = blocks(|| plain.retrieve_into(v, &mut out).unwrap());
        assert!(written && out == sized, "v{v}");
        assert!(n <= 1, "retrieve_into(v{v}): {n} blocks");
        let mut out = Vec::with_capacity(sized.len());
        let (n, _) = blocks(|| store.retrieve_into(v, &mut out).unwrap());
        assert!(
            out == sized && n <= 1,
            "indexed retrieve_into(v{v}): {n} blocks"
        );
    }
}

/// `history_values` of the first record in label order whose content
/// changes (two distinct values over the 64 releases) renders each
/// interval with the retrieve scan's writer into one reused buffer and
/// copies out only a content not yet recorded. Built through a `Document`
/// per interval and serialized from it, the same call took 172 blocks on
/// the indexed archive and 82 on the plain one; now it takes 17 and 11.
/// The plain archive's 11 are the change points, the buffer's growth,
/// the list and one string per distinct value; the indexed archive adds
/// the timestamp index's list of visible children for each element
/// written that has a tree — one with a child that has a timestamp of its
/// own. With a tree for every element with children it took 101.
#[test]
fn history_values_renders_without_a_document_per_interval() {
    let store = fixture();
    let plain: &Archive = store.archive();
    let root = KeyQuery::new("ROOT");
    let rows = store
        .range(std::slice::from_ref(&root), 1..=VERSIONS)
        .unwrap();
    let steps = (rows.iter())
        .map(|row| vec![root.clone(), row.step.clone()])
        .find(|steps| {
            plain
                .history_values(steps)
                .unwrap()
                .is_some_and(|h| h.values.len() >= 2)
        })
        .expect("some record changes");
    let (indexed, answer) = blocks(|| store.history_values(&steps).unwrap());
    let (scanned, same) = blocks(|| plain.history_values(&steps).unwrap());
    assert_eq!(answer, same);
    assert!(
        indexed <= 24,
        "indexed: {indexed} blocks, 101 with a tree per node"
    );
    assert!(scanned <= 16, "plain: {scanned} blocks, 82 before");
}

/// A cold `as_of` whose last step names no record, on an LZSS block the
/// reader's cache already holds: every record of the release is keyed off
/// the decoded payload, none matches, and nothing is built. The blocks it
/// asks the allocator for are the query's own — the steps' keys, each
/// level's walk stacks and scratch string, the payload list: 16 — the
/// same over 30 records as over 300. Keyed through a `Document` of each
/// record's key part, the query took blocks in proportion to the records.
#[test]
fn a_cold_point_query_allocates_nothing_per_record_it_passes() {
    let steps = [
        KeyQuery::new("ROOT"),
        KeyQuery::new("Record").with_text("Num", "0"),
    ];
    let counts = [30, 300].map(|records| {
        let path = scratch_path("alloc-budget-cold");
        let options = DurableOptions {
            compression: BlockCodec::Lzss,
            sync: false,
            checkpoint_every: None,
        };
        let mut store = ArchiveBuilder::new(omim_spec())
            .durable_with(&path, options)
            .try_build()
            .unwrap();
        let release = OmimGen::new(7).sequence(records, 1);
        store.add_version(&release[0]).unwrap();
        drop(store);
        let cold = ColdArchive::open(&path).unwrap();
        // the first read decodes the block into the cache
        assert!(cold.as_of(&steps, 1).unwrap().is_none());
        let (n, found) = blocks(|| cold.as_of(&steps, 1).unwrap());
        assert!(found.is_none(), "{records} records");
        let (again, _) = blocks(|| cold.as_of(&steps, 1).unwrap());
        assert_eq!(again, n, "the count repeats");
        drop(cold);
        std::fs::remove_file(&path).unwrap();
        n
    });
    assert_eq!(counts[0], counts[1], "30 records vs 300");
    assert!(counts[0] <= 20, "{} blocks", counts[0]);
}

/// Parsing a key spec — every segment open, checkpoint restore and server
/// start does it — decides the paper's assumptions on the compiled trie of
/// keyed paths, so the blocks it asks for are the spec's own: its keys'
/// steps, the implied keys, the trie. Checked by cloning key paths into
/// sets, the OMIM spec's parse took 1 046.
#[test]
fn parsing_a_key_spec_allocates_the_spec_and_no_set_of_paths() {
    let text = omim_spec().to_string();
    let (n, spec) = blocks(|| xarch::keys::KeySpec::parse(&text).unwrap());
    assert_eq!(spec, omim_spec());
    assert!(n <= 350, "{n} blocks");
}

/// A checkpoint restore decodes each node straight into the archive's
/// arena and pools: it allocates the key values it decodes — one block
/// for each value's parts and one per non-empty canonical value — two
/// blocks per chunk of the arena and the pools (the chunk and its `Arc`),
/// and a constant besides: the restoring spec's rendering (the stored text
/// is parsed only when it differs), the copy of the spec the archive
/// keeps, the symbol table, the chunk lists and the walk's stacks. Nothing
/// per node: the constant is 295 blocks for the 12-version checkpoint's
/// 13 574 nodes and the same for 4 versions (448 while every restore
/// parsed the stored text).
#[test]
fn a_checkpoint_restore_allocates_its_key_values_its_chunks_and_a_constant() {
    use xarch::core::state::{decode_archive, encode_archive};
    use xarch::core::{ANodeId, Compaction};
    let docs = OmimGen::new(7).sequence(RECORDS, 12);
    let spec = omim_spec();
    for versions in [4, 12] {
        let mut a = Archive::new(omim_spec());
        for d in &docs[..versions] {
            a.add_version(d).unwrap();
        }
        let state = encode_archive(&a);
        let (n, restored) = blocks(|| decode_archive(&state, &spec, Compaction::Alternatives));
        let restored = restored.unwrap().expect("same spec and compaction");
        assert_eq!(encode_archive(&restored), state);
        let key_blocks: usize = (0..restored.len() as u32)
            .filter_map(|i| restored.key(ANodeId(i)))
            .filter(|k| !k.parts().is_empty())
            .map(|k| 1 + k.parts().iter().filter(|p| !p.canon.is_empty()).count())
            .sum();
        let chunk_blocks = 2 * restored.chunk_count();
        let rest = n as i64 - (key_blocks + chunk_blocks) as i64;
        assert!(
            (0..=295).contains(&rest),
            "{versions} versions, {} nodes: {n} blocks, {key_blocks} for key values, \
             {chunk_blocks} for chunks, {rest} more",
            restored.len()
        );
    }
}

/// An archive node holds its strings and lists as runs of the archive's
/// pools and owns no heap block but its key value, in 64 bytes.
#[test]
fn an_archive_node_is_64_bytes() {
    assert_eq!(std::mem::size_of::<xarch::core::ANode>(), 64);
}

/// An indexed `as_of` of a record with no timestamp beneath its own reads
/// the record's children straight off the child lists: it allocates the
/// document it returns and nothing besides, the scan's count exactly, so
/// the index adds the same number of blocks — none — whatever the
/// record's node count. A timestamp tree per node added a list of visible
/// children per element: 7 blocks more than the scan for 1 child, 1 039
/// more for 512.
#[test]
fn an_indexed_as_of_of_a_record_with_no_timestamp_beneath_adds_no_block() {
    use xarch::core::kernel::{self, Scan};
    // records of 1 to 512 children, unchanged since the first of three
    // releases — each has a timestamp of its own and none beneath it —
    // beside one whose content changes every release
    let spec = xarch::keys::KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))").unwrap();
    let sizes = [1, 8, 64, 512];
    let release = |v: u32| {
        let mut src = String::from("<db>");
        for (i, m) in sizes.iter().enumerate() {
            src.push_str(&format!("<rec><id>{i}</id>"));
            for j in 0..*m {
                src.push_str(&format!("<x n=\"{j}\">t{j}</x>"));
            }
            src.push_str("</rec>");
        }
        src.push_str(&format!("<rec><id>changed</id><x>{v}</x></rec></db>"));
        xarch::xml::parse(&src).unwrap()
    };
    let mut a = Archive::new(spec);
    for v in 1..=3 {
        a.add_version(&release(v)).unwrap();
    }
    let ix = xarch::index::Indexes::build(&a);
    let added: Vec<i64> = (sizes.iter().enumerate())
        .map(|(i, &m)| {
            let steps = [
                KeyQuery::new("db"),
                KeyQuery::new("rec").with_text("id", &i.to_string()),
            ];
            let (indexed, answer) = blocks(|| kernel::as_of(&a, &ix, &steps, 2));
            let (scanned, same) = blocks(|| kernel::as_of(&a, &Scan, &steps, 2));
            let answer = answer.expect("archived at 2");
            assert_eq!(
                answer.len(),
                same.expect("archived at 2").len(),
                "{m} children"
            );
            assert!(answer.len() > 2 * m, "{m} children: {} nodes", answer.len());
            indexed as i64 - scanned as i64
        })
        .collect();
    assert_eq!(
        added, [0; 4],
        "blocks the index adds over 1, 8, 64, 512 children"
    );
}

/// In a one-version archive every node but the document root inherits
/// its timestamp, so `Indexes::build` keeps no tree beneath the synthetic
/// root: the root's own, over its one child, is the only one, and the
/// timestamp half of the build takes the same blocks over 30 records as
/// over 300. A tree per node with children was 7 555 trees for 300.
#[test]
fn indexes_built_on_one_version_hold_no_tree_beneath_the_root() {
    use xarch::core::ANodeId;
    use xarch::index::{Indexes, TimestampIndex};
    let counts = [30, 300].map(|records| {
        let mut a = Archive::new(omim_spec());
        a.add_version(&OmimGen::new(7).sequence(records, 1)[0])
            .unwrap();
        let ix = Indexes::build(&a);
        let trees: Vec<_> = (0..a.len() as u32)
            .map(ANodeId)
            .filter_map(|id| Some((id, ix.timestamp_index().tree(id)?.fanout())))
            .collect();
        assert_eq!(
            (trees.len(), trees.first()),
            (1, Some(&(a.root(), 1))),
            "{records} records: the trees held and the first"
        );
        blocks(|| TimestampIndex::build(&a)).0
    });
    assert_eq!(counts[0], counts[1], "30 records vs 300");
}
