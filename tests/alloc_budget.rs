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
//! `Document` per interval of constant content. The counts here
//! are blocks asked of the allocator by the calling thread, so they repeat
//! exactly and pin that shape without timing anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xarch::core::{Archive, KeyPart, KeyQuery, KeyValue, StoreReader, TimeSet, VersionStore};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::{ArchiveBuilder, Store};

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
/// the indexed archive and 82 on the plain one; now it takes 101 and 11.
/// The plain archive's 11 are the change points, the buffer's growth,
/// the list and one string per distinct value; the indexed archive adds
/// the timestamp index's list of visible children, one per element
/// written.
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
    assert!(indexed < 172, "indexed: {indexed} blocks");
    assert!(scanned <= 16, "plain: {scanned} blocks, 82 before");
}
