//! The cold read path against what it replaced. `ColdArchive` answers
//! `retrieve_into`, `as_of` and `history` straight from the decoded
//! payload bytes; here each is held to the long way round — `retrieve`
//! the whole [`Document`], then `to_compact_string` or `find_in_doc` — over
//! every block kind, raw and LZSS, and over payloads no writer of ours
//! would have produced.

mod common;

use proptest::prelude::*;

use xarch::compress::BlockCodec;
use xarch::core::query::{find_in_doc, subtree_doc};
use xarch::core::{KeyQuery, StoreError};
use xarch::extmem::{encode_small, EKind, ETree};
use xarch::keys::KeySpec;
use xarch::obs::Obs;
use xarch::storage::block::{encode_block, BlockKind};
use xarch::storage::payload::{bytes_to_doc, doc_to_bytes, docs_to_batch_bytes};
use xarch::storage::{scratch_path, superblock};
use xarch::xml::writer::to_compact_string;
use xarch::xml::{parse, Document, Path as LabelPath};
use xarch::{ArchiveBuilder, ColdArchive, DurableOptions, StoreReader, VersionStore};

fn spec() -> KeySpec {
    KeySpec::parse(
        "(/, (db, {}))\n\
         (/db, (meta, {}))\n\
         (/db, (rec, {id}))\n\
         (/db/rec, (val, {}))\n\
         (/db/rec, (note, {.}))\n\
         (/db/meta, (src, {name}))",
    )
    .unwrap()
}

/// Release `n`: attributes, characters that need escaping in text and in
/// attribute values, empty elements, multi-byte text — and enough records
/// that LZSS keeps its block. Record `n` exists only in release `n`;
/// record 2's `val` changes with `n`.
fn release(n: u32) -> Document {
    let mut src = format!(
        "<db rel=\"{n}\" note=\"a &lt; b &amp; &quot;c&quot;\">\
         <meta><src name=\"omim &amp; co\" url=\"http://x/?a=1&amp;b=2\"/><src name=\"other\"/></meta>"
    );
    for id in (1..=30).chain([100 + n]) {
        src.push_str(&format!(
            "<rec kind=\"k{}\"><id>{id}</id><val>{}</val><empty/>\
             <note>x &lt; y &amp; z</note><note>née 東京 {id}</note></rec>",
            id % 3,
            if id == 2 {
                format!("v{n}")
            } else {
                "same".to_owned()
            },
        ));
    }
    src.push_str("</db>");
    parse(&src).unwrap()
}

fn rec(id: u32) -> KeyQuery {
    KeyQuery::new("rec").with_text("id", &id.to_string())
}

/// Paths that resolve at the root, at a record, deeper than the record
/// and under a second `{}` step — and paths that do not resolve, at every
/// depth and for every reason.
fn paths() -> Vec<Vec<KeyQuery>> {
    let db = || KeyQuery::new("db");
    let note = |text: &str| KeyQuery::new("note").with_canon(".", &format!("<note>{text}</note>"));
    let src = |name: &str| KeyQuery::new("src").with_canon("name", &format!("@name=\"{name}\""));
    vec![
        vec![],
        vec![db()],
        vec![db(), rec(1)],
        vec![db(), rec(2)],
        vec![db(), rec(30)],
        vec![db(), rec(103)],
        vec![db(), rec(2), KeyQuery::new("val")],
        vec![db(), rec(7), note("née 東京 7")],
        vec![db(), KeyQuery::new("meta")],
        vec![db(), KeyQuery::new("meta"), src("omim &amp; co")],
        vec![db(), KeyQuery::new("meta"), src("other")],
        // none of these is there
        vec![KeyQuery::new("nope")],
        vec![db(), rec(99)],
        vec![db(), KeyQuery::new("rec")],
        vec![db().with_text("id", "1")],
        vec![db(), KeyQuery::new("zzz")],
        vec![db(), rec(2), KeyQuery::new("zzz")],
        vec![db(), rec(2), KeyQuery::new("val"), KeyQuery::new("deeper")],
        vec![db(), rec(2), KeyQuery::new("id")],
        vec![db(), rec(7), note("no such note")],
        vec![db(), KeyQuery::new("meta"), src("absent")],
        vec![db(), KeyQuery::new("meta"), KeyQuery::new("src")],
        vec![db(), KeyQuery::new("empty"), KeyQuery::new("x")],
    ]
}

/// True when every step of `path` stays on the spec's keyed paths.
fn on_keyed_paths(spec: &KeySpec, path: &[KeyQuery]) -> bool {
    (1..=path.len()).all(|n| {
        let tags = path[..n].iter().map(KeyQuery::tag);
        spec.is_keyed_path(&LabelPath::from_steps(tags))
    })
}

/// Versions 1, a batch of 2–4, an empty 5, and 6: every data block kind.
fn write_mixed(path: &std::path::Path, compression: BlockCodec) {
    let options = DurableOptions {
        compression,
        sync: false,
        checkpoint_every: Some(2),
    };
    let mut d = ArchiveBuilder::new(spec())
        .durable_with(path, options)
        .try_build()
        .unwrap();
    d.add_version(&release(1)).unwrap();
    d.add_versions(&[release(2), release(3), release(4)])
        .unwrap();
    d.add_empty_version().unwrap();
    d.add_version(&release(6)).unwrap();
}

fn as_xml(doc: Option<Document>) -> Option<String> {
    doc.map(|d| to_compact_string(&d))
}

/// A reader's `cold.blocks_decoded` and `cold.block_cache_hits`.
struct Reads<'a>(&'a Obs);

impl Reads<'_> {
    fn now(&self) -> (u64, u64) {
        let get = |name| self.0.registry().get_counter(name).unwrap().get();
        (get("cold.blocks_decoded"), get("cold.block_cache_hits"))
    }

    /// Blocks decoded and cache hits since `before`.
    fn since(&self, before: (u64, u64)) -> (u64, u64) {
        let now = self.now();
        (now.0 - before.0, now.1 - before.1)
    }
}

/// The paths of [`paths`] beneath the root, which both stores answer
/// alike: the hot archive keeps the root's attributes as the first
/// release wrote them (`rel="1"`), the journal as each release did. Only
/// those that stay on the keyed paths, so a cold `as_of` of each reads one
/// block.
fn records() -> Vec<Vec<KeyQuery>> {
    let mut records = paths().split_off(2);
    records.retain(|p| on_keyed_paths(&spec(), p));
    records
}

/// `versions` releases, each its own block, journaled under `compression`
/// at `path` and merged into an in-memory store, which is returned.
fn write_releases(
    path: &std::path::Path,
    compression: BlockCodec,
    versions: u32,
) -> Box<dyn VersionStore> {
    let options = DurableOptions {
        compression,
        sync: false,
        checkpoint_every: None,
    };
    let mut d = ArchiveBuilder::new(spec())
        .durable_with(path, options)
        .try_build()
        .unwrap();
    let mut hot = ArchiveBuilder::new(spec()).build();
    for n in 1..=versions {
        d.add_version(&release(n)).unwrap();
        hot.add_version(&release(n)).unwrap();
    }
    hot
}

/// Point queries cycling over three versions: an LZSS block is checksummed
/// and decoded on its first read and served from the cache after it; a
/// raw block is checksummed on every read and never cached. A `history`
/// scan then takes the cached blocks and keeps none it decodes.
#[test]
fn cycling_as_of_decodes_an_lzss_block_once_and_checks_a_raw_one_every_read() {
    for (compression, want, scan) in [
        (BlockCodec::Lzss, (3, 21), (3, 3)),
        (BlockCodec::Raw, (24, 0), (6, 0)),
    ] {
        let path = scratch_path("cold-read-cycle");
        let hot = write_releases(&path, compression, 6);
        let obs = Obs::new();
        let cold = ColdArchive::open_observed(&path, &obs).unwrap();
        let reads = Reads(&obs);
        let all = records();
        let before = reads.now();
        for i in 0..24 {
            let v = [2, 4, 6][i % 3];
            let steps = &all[i % all.len()];
            assert_eq!(
                as_xml(cold.as_of(steps, v).unwrap()),
                as_xml(hot.as_of(steps, v).unwrap()),
                "as_of({steps:?}, {v}) under {compression:?}"
            );
        }
        assert_eq!(reads.since(before), want, "{compression:?}");
        let before = reads.now();
        cold.history(&all[0]).unwrap();
        assert_eq!(reads.since(before), scan, "history under {compression:?}");
        let before = reads.now();
        cold.as_of(&all[0], 1).unwrap();
        assert_eq!(reads.since(before), (1, 0), "as_of at 1 after the scan");
        drop(cold);
        std::fs::remove_file(&path).unwrap();
    }
}

/// Rot written through a second file handle after the reader opened: the
/// first read that decodes the block refuses it at its offset. A version
/// an LZSS reader decoded before the rot answers from the bytes whose
/// checksum verified then; a raw block is checked again, and refused.
#[cfg(unix)]
#[test]
fn rot_after_open_is_refused_where_a_block_is_first_decoded() {
    use std::io::{Seek, SeekFrom, Write as _};
    use xarch::storage::block::{walk, BLOCK_HEADER_LEN};
    for compression in [BlockCodec::Lzss, BlockCodec::Raw] {
        let path = scratch_path("cold-read-rot-after-open");
        let hot = write_releases(&path, compression, 3);
        let bytes = std::fs::read(&path).unwrap();
        let (_, first) = superblock::decode(&bytes).unwrap();
        let blocks: Vec<u64> = walk(&bytes, first)
            .filter(|s| s.kind == BlockKind::Version)
            .map(|s| s.offset)
            .collect();
        assert_eq!(blocks.len(), 3);

        let cold = ColdArchive::open(&path).unwrap();
        assert!(cold.is_mapped());
        let v1 = hot.retrieve(1).unwrap();
        assert_eq!(as_xml(cold.retrieve(1).unwrap()), as_xml(v1.clone()));
        // one payload byte of versions 1 and 2 flipped, on the file
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        for &at in &blocks[..2] {
            let at = at + BLOCK_HEADER_LEN as u64 + 2;
            let byte = bytes[usize::try_from(at).unwrap()] ^ 0x40;
            file.seek(SeekFrom::Start(at)).unwrap();
            file.write_all(&[byte]).unwrap();
        }
        file.sync_all().unwrap();
        drop(file);

        let (offset, reason) = corrupt_reason(cold.retrieve(2).unwrap_err());
        assert_eq!(offset, blocks[1], "{compression:?}: {reason}");
        assert!(reason.contains("checksum"), "{compression:?}: {reason}");
        let mut out = Vec::new();
        corrupt_reason(cold.retrieve_into(2, &mut out).unwrap_err());
        assert!(out.is_empty());
        match compression {
            BlockCodec::Lzss => {
                assert_eq!(as_xml(cold.retrieve(1).unwrap()), as_xml(v1));
                let steps = [KeyQuery::new("db"), rec(2)];
                assert_eq!(
                    as_xml(cold.as_of(&steps, 1).unwrap()),
                    as_xml(hot.as_of(&steps, 1).unwrap())
                );
            }
            BlockCodec::Raw => {
                let (offset, _) = corrupt_reason(cold.retrieve(1).unwrap_err());
                assert_eq!(offset, blocks[0]);
            }
        }
        // the block nobody rotted reads as ever
        let steps = [KeyQuery::new("db"), rec(2)];
        assert_eq!(
            as_xml(cold.as_of(&steps, 3).unwrap()),
            as_xml(hot.as_of(&steps, 3).unwrap())
        );
        drop(cold);
        std::fs::remove_file(&path).unwrap();
    }
}

/// The trait's per-version `range`, `diff` and `history_values` over a
/// batch block of three LZSS versions: the first read decodes it, every
/// later one — the `history` scan's included — is a cache hit.
#[test]
fn range_diff_and_history_values_decode_a_batch_block_once() {
    let path = scratch_path("cold-read-batch-once");
    let options = DurableOptions {
        compression: BlockCodec::Lzss,
        sync: false,
        checkpoint_every: None,
    };
    let docs = [release(1), release(2), release(3)];
    let mut d = ArchiveBuilder::new(spec())
        .durable_with(&path, options)
        .try_build()
        .unwrap();
    d.add_versions(&docs).unwrap();
    drop(d);
    let mut hot = ArchiveBuilder::new(spec()).build();
    hot.add_versions(&docs).unwrap();

    let obs = Obs::new();
    let cold = ColdArchive::open_observed(&path, &obs).unwrap();
    assert_eq!(cold.latest(), 3);
    let reads = Reads(&obs);
    let db = [KeyQuery::new("db")];
    let record = [KeyQuery::new("db"), rec(2)];

    let before = reads.now();
    assert_eq!(
        cold.range(&db, 1..=3).unwrap(),
        hot.range(&db, 1..=3).unwrap()
    );
    assert_eq!(reads.since(before), (1, 2), "range: one decode, two hits");

    let before = reads.now();
    assert_eq!(
        cold.diff(&record, 1, 3).unwrap(),
        hot.diff(&record, 1, 3).unwrap()
    );
    assert_eq!(reads.since(before), (0, 2), "diff: two hits");

    let before = reads.now();
    assert_eq!(
        cold.history_values(&record).unwrap(),
        hot.history_values(&record).unwrap()
    );
    // the scan, then `as_of` at each of the three versions
    assert_eq!(reads.since(before), (0, 4), "history_values: four hits");
    drop(cold);
    std::fs::remove_file(&path).unwrap();
}

/// Four threads share one reader and cycle over more versions than its
/// cache holds, so they evict what the others are about to read: every
/// answer is the hot store's, and every read is one block, decoded or hit.
#[test]
fn threads_sharing_a_reader_past_its_cache_answer_as_the_hot_store() {
    use std::sync::Arc;
    const VERSIONS: u32 = 9;
    const CALLS: usize = 45;
    let path = scratch_path("cold-read-threads");
    let hot = write_releases(&path, BlockCodec::Lzss, VERSIONS);
    let all = records();
    let want: Arc<Vec<Vec<Option<String>>>> = Arc::new(
        (1..=VERSIONS)
            .map(|v| {
                (all.iter())
                    .map(|p| as_xml(hot.as_of(p, v).unwrap()))
                    .collect()
            })
            .collect(),
    );
    let all = Arc::new(all);
    let obs = Obs::new();
    let cold = Arc::new(ColdArchive::open_observed(&path, &obs).unwrap());
    let reads = Reads(&obs);
    let before = reads.now();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let (cold, want, all) = (Arc::clone(&cold), Arc::clone(&want), Arc::clone(&all));
            std::thread::spawn(move || {
                for i in 0..CALLS {
                    let v = (t * 2 + i) % VERSIONS as usize;
                    let p = (t + i) % all.len();
                    let got = as_xml(cold.as_of(&all[p], v as u32 + 1).unwrap());
                    assert_eq!(
                        got,
                        want[v][p],
                        "thread {t}: as_of({:?}, {})",
                        all[p],
                        v + 1
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let (decoded, hits) = reads.since(before);
    assert_eq!(decoded + hits, 4 * CALLS as u64);
    assert!(
        decoded > u64::from(VERSIONS),
        "{decoded} decoded: nothing was evicted"
    );
    drop(cold);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cold_answers_equal_the_whole_document_route_over_every_block_kind() {
    let mut segment_lens = Vec::new();
    for compression in [BlockCodec::Raw, BlockCodec::Lzss] {
        let path = scratch_path("cold-read-mixed");
        write_mixed(&path, compression);
        segment_lens.push(std::fs::metadata(&path).unwrap().len());
        let obs = Obs::new();
        let cold = ColdArchive::open_observed(&path, &obs).unwrap();
        let reads = Reads(&obs);
        assert_eq!(cold.latest(), 6);

        for v in 0..=7 {
            let before = reads.now();
            let whole = cold.retrieve(v).unwrap();
            let held = u64::from(whole.is_some());
            // one block read, decoded unless an earlier version's read of
            // the same LZSS block left it in the cache
            let (decoded, hits) = reads.since(before);
            assert_eq!(decoded + hits, held, "retrieve({v}) reads");
            if compression == BlockCodec::Raw {
                assert_eq!(hits, 0, "retrieve({v}) of a raw block");
            }
            // from here on the version's block has been read: a raw one is
            // checksummed on every read, an LZSS one is in the cache
            let again = match compression {
                BlockCodec::Raw => (held, 0),
                BlockCodec::Lzss => (0, held),
            };
            let before = reads.now();
            let mut out = Vec::new();
            let wrote = cold.retrieve_into(v, &mut out).unwrap();
            assert_eq!(wrote, whole.is_some(), "version {v}");
            assert_eq!(
                String::from_utf8(out).unwrap(),
                as_xml(whole.clone()).unwrap_or_default(),
                "retrieve_into({v}) under {compression:?}"
            );
            assert_eq!(reads.since(before), again, "retrieve_into({v}) reads");

            for path in paths() {
                let before = reads.now();
                let got = cold.as_of(&path, v).unwrap();
                // steps off the keyed paths address nothing a block could
                // hold: none is read
                let again = if on_keyed_paths(cold.spec(), &path) {
                    again
                } else {
                    (0, 0)
                };
                assert_eq!(reads.since(before), again, "as_of({path:?}, {v}) reads");
                let want = match &whole {
                    Some(doc) if path.is_empty() => Some(doc.clone()),
                    Some(doc) => {
                        find_in_doc(doc, cold.spec(), &path).and_then(|id| subtree_doc(doc, id))
                    }
                    None => None,
                };
                assert_eq!(as_xml(got), as_xml(want), "as_of({path:?}, {v})");
            }
        }
        for path in &paths() {
            let want = common::history_values_by_definition(&cold, path);
            assert_eq!(
                cold.history(path).unwrap(),
                want.map(|h| h.existence),
                "history({path:?})"
            );
        }
        // some of the paths are there, in the versions they should be
        let versions =
            |p: &[KeyQuery]| (cold.history(p).unwrap()).map(|t| t.versions().collect::<Vec<_>>());
        assert_eq!(versions(&paths()[3]), Some(vec![1, 2, 3, 4, 6]));
        assert_eq!(versions(&paths()[5]), Some(vec![3]));
        assert_eq!(versions(&paths()[9]), Some(vec![1, 2, 3, 4, 6]));
        assert_eq!(versions(&paths()[12]), None);
        // and `history_values` / `diff`, the per-version definitions over
        // these, still say what the definitions say
        common::check_against_definitions(&cold, &paths()[0..8]).unwrap();
        // a history off the keyed paths decodes no block
        let before = reads.now();
        assert_eq!(cold.history(&[KeyQuery::new("nope")]).unwrap(), None);
        assert_eq!(
            reads.since(before),
            (0, 0),
            "history of steps off the keyed paths"
        );
        drop(cold);
        std::fs::remove_file(&path).unwrap();
    }
    assert!(
        segment_lens[1] < segment_lens[0] / 2,
        "LZSS fell back to raw blocks ({segment_lens:?}): the fixture no longer compresses"
    );
}

/// A segment of hand-built blocks, one version each: `(kind, payload)`.
fn write_blocks(path: &std::path::Path, blocks: &[(BlockKind, Vec<u8>)]) {
    let mut file = superblock::encode(&spec()).unwrap();
    for (i, (kind, payload)) in blocks.iter().enumerate() {
        let (codec, stored) = BlockCodec::Lzss.encode(payload);
        file.extend_from_slice(&encode_block(
            *kind,
            codec,
            i as u32 + 1,
            payload.len() as u64,
            &stored,
        ));
    }
    std::fs::write(path, file).unwrap();
}

fn corrupt_reason(e: StoreError) -> (u64, String) {
    match e {
        StoreError::Corrupt { offset, reason } => (offset, reason),
        other => panic!("expected Corrupt, got {other}"),
    }
}

/// A payload whose checksum is fine and whose bytes are not: every answer
/// is the positioned refusal `bytes_to_doc` words, and `out` stays empty.
#[test]
fn a_payload_that_does_not_verify_is_refused_alike_and_writes_nothing() {
    let good = doc_to_bytes(&release(1)).unwrap();
    let stamped = {
        let text = |s: &str| ETree {
            kind: EKind::Text(s.into()),
            sort_key: None,
            frontier: false,
            time: None,
            children: vec![],
        };
        let mut stamp = text("");
        stamp.kind = EKind::Stamp;
        stamp.time = Some(xarch::core::TimeSet::from_version(3));
        stamp.children = vec![text("inside")];
        let mut root = text("");
        root.kind = EKind::Element {
            tag: "db".into(),
            attrs: vec![],
        };
        root.children = vec![text("before"), stamp];
        let mut out = Vec::new();
        encode_small(&root, &mut out);
        out
    };
    let trailing = [&good[..], &[0xEE]].concat();
    let mut payloads = vec![stamped, trailing];
    // one flipped byte, at a spread of places: most flips break a length
    // or a kind, some only change a character and the payload still reads
    for (i, at) in (0..good.len()).step_by(good.len() / 60).enumerate() {
        let mut flipped = good.clone();
        flipped[at] ^= if i % 2 == 0 { 0x81 } else { 0x01 };
        payloads.push(flipped);
    }
    let blocks: Vec<(BlockKind, Vec<u8>)> =
        (payloads.iter().cloned().map(|p| (BlockKind::Version, p))).collect();
    let path = scratch_path("cold-read-damaged");
    write_blocks(&path, &blocks);
    let cold = ColdArchive::open(&path).unwrap();
    let (mut refused, mut read) = (0, 0);
    for (i, payload) in payloads.iter().enumerate() {
        let v = i as u32 + 1;
        let mut out = Vec::new();
        match bytes_to_doc(payload) {
            Ok(doc) => {
                assert!(cold.retrieve_into(v, &mut out).unwrap());
                assert_eq!(String::from_utf8(out).unwrap(), to_compact_string(&doc));
                read += 1;
            }
            Err(e) => {
                let (at, reason) = corrupt_reason(cold.retrieve(v).unwrap_err());
                assert!(reason.starts_with(&e.reason), "{reason} / {e}");
                let into = corrupt_reason(cold.retrieve_into(v, &mut out).unwrap_err());
                assert_eq!(into, (at, reason), "payload {i}");
                assert!(
                    out.is_empty(),
                    "payload {i} left {} bytes in `out`",
                    out.len()
                );
                refused += 1;
            }
        }
    }
    assert!(refused >= 20 && read >= 1, "{refused} refused, {read} read");
    std::fs::remove_file(&path).unwrap();
}

/// In a batch the versions are found by their length prefixes: a damaged
/// one is refused where it is asked for, at its offset in the batch, and
/// the others read as if it were not there.
#[test]
fn a_batch_is_read_one_version_at_a_time() {
    let docs = [release(1), release(2), release(3)];
    let batch = docs_to_batch_bytes(&docs).unwrap();
    // break the second entry where the last thing a scan for a record
    // reads of it lies: the `id` of its last record, "102", which its
    // offset in the batch payload then positions
    let second_ends = batch.len() - doc_to_bytes(&docs[2]).unwrap().len() - 3;
    let id_at = (0..second_ends)
        .rev()
        .filter(|&i| batch[i..].starts_with(b"102"))
        .nth(1)
        .unwrap();
    let mut damaged = batch.clone();
    damaged[id_at] = 0xFF;
    let path = scratch_path("cold-read-batch");
    // (a batch block commits three versions; the block after it says so)
    let mut file = superblock::encode(&spec()).unwrap();
    let (codec, stored) = BlockCodec::Lzss.encode(&damaged);
    file.extend_from_slice(&encode_block(
        BlockKind::Batch,
        codec,
        1,
        damaged.len() as u64,
        &stored,
    ));
    file.extend_from_slice(&encode_block(BlockKind::Empty, BlockCodec::Raw, 4, 0, &[]));
    std::fs::write(&path, file).unwrap();

    let cold = ColdArchive::open(&path).unwrap();
    assert_eq!(cold.latest(), 4);
    for v in [1u32, 3] {
        let mut out = Vec::new();
        assert!(cold.retrieve_into(v, &mut out).unwrap());
        assert_eq!(
            String::from_utf8(out).unwrap(),
            to_compact_string(&docs[v as usize - 1])
        );
        let found = cold.as_of(&[KeyQuery::new("db"), rec(2)], v).unwrap();
        assert!(as_xml(found).unwrap().contains(&format!("<val>v{v}</val>")));
    }
    let mut out = Vec::new();
    let into = corrupt_reason(cold.retrieve_into(2, &mut out).unwrap_err());
    assert!(out.is_empty());
    assert_eq!(into, corrupt_reason(cold.retrieve(2).unwrap_err()));
    let (_, reason) = into;
    let byte: usize = reason
        .split("(byte ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no payload offset in `{reason}`"));
    assert_eq!(
        byte, id_at,
        "`{reason}` does not point at the string broken"
    );
    // a scan reads every version, and is refused where it has to read the
    // damage — past record 2, which is found before it in all three
    assert!(cold.history(&[KeyQuery::new("db"), rec(99)]).is_err());
    let found = cold.history(&[KeyQuery::new("db"), rec(2)]).unwrap();
    assert_eq!(found.unwrap().versions().collect::<Vec<_>>(), [1, 2, 3]);
    std::fs::remove_file(&path).unwrap();
}

/// A block whose checksum verifies and whose LZSS stream declares a length
/// no allocator could serve: both readers answer `Corrupt` — neither
/// reserves what the stream asks for (which used to abort the process).
#[test]
fn a_hostile_declared_length_is_refused_not_allocated() {
    let leb = |mut v: u64| {
        let mut out = Vec::new();
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
        out
    };
    // (what the header says, what the stream says): a stream that
    // disagrees with its header, and the two agreeing on more than the
    // few bytes that follow could ever decode to
    for (raw_len, declared) in [(100u64, 1u64 << 60), (100, u64::MAX), (1 << 29, 1 << 29)] {
        let mut stored = leb(declared);
        stored.extend_from_slice(&[0x55; 16]);
        let mut file = superblock::encode(&spec()).unwrap();
        let at = file.len() as u64;
        file.extend_from_slice(&encode_block(
            BlockKind::Version,
            BlockCodec::Lzss,
            1,
            raw_len,
            &stored,
        ));
        let path = scratch_path("cold-read-hostile");
        std::fs::write(&path, &file).unwrap();

        let cold = ColdArchive::open(&path).unwrap();
        let (offset, reason) = corrupt_reason(cold.retrieve(1).unwrap_err());
        assert!(
            offset >= at && reason.contains("does not decode"),
            "{reason}"
        );
        let mut out = Vec::new();
        corrupt_reason(cold.retrieve_into(1, &mut out).unwrap_err());
        assert!(out.is_empty());
        corrupt_reason(cold.as_of(&[KeyQuery::new("db")], 1).unwrap_err());
        drop(cold);

        let reopened = ArchiveBuilder::new(spec()).durable(&path).try_build();
        corrupt_reason(reopened.map(|_| ()).unwrap_err());
        std::fs::remove_file(&path).unwrap();
    }
}

/// Siblings sharing a key (the merge takes them; `keys::validate` is the
/// separate checker): the first is the one followed, with no way back, on
/// the cold path as in `find_in_doc`.
#[test]
fn the_first_of_two_siblings_with_one_key_is_the_one_followed() {
    let doc = parse(
        "<db><rec><id>1</id></rec><rec><id>1</id><val>second</val></rec>\
         <rec><id>2</id><val>x</val></rec></db>",
    )
    .unwrap();
    let path = scratch_path("cold-read-twins");
    write_blocks(&path, &[(BlockKind::Version, doc_to_bytes(&doc).unwrap())]);
    let cold = ColdArchive::open(&path).unwrap();
    let db = || KeyQuery::new("db");
    for (steps, want) in [
        (vec![db(), rec(1)], Some("<rec><id>1</id></rec>")),
        (vec![db(), rec(1), KeyQuery::new("val")], None),
        (
            vec![db(), rec(2), KeyQuery::new("val")],
            Some("<val>x</val>"),
        ),
    ] {
        let by_document = find_in_doc(&doc, cold.spec(), &steps)
            .and_then(|id| subtree_doc(&doc, id))
            .map(|d| to_compact_string(&d));
        assert_eq!(by_document.as_deref(), want, "{steps:?}");
        assert_eq!(
            as_xml(cold.as_of(&steps, 1).unwrap()),
            by_document,
            "{steps:?}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// What only a payload no parser wrote can hold — an attribute named twice
/// and empty text — is keyed as the document built of it has it: the
/// attribute's last value, the text dropped.
#[test]
fn a_repeated_attribute_and_empty_text_key_as_the_document_built_of_them() {
    let node = |kind: EKind, children: Vec<ETree>| ETree {
        kind,
        sort_key: None,
        frontier: false,
        time: None,
        children,
    };
    let el = |tag: &str, attrs: &[(&str, &str)], children| {
        let attrs = (attrs.iter())
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        node(
            EKind::Element {
                tag: tag.into(),
                attrs,
            },
            children,
        )
    };
    let text = |t: &str| node(EKind::Text(t.into()), vec![]);
    let note = el(
        "note",
        &[("b", "x"), ("a", "<"), ("b", "z")],
        vec![text(""), text("p"), text(""), el("i", &[], vec![text("")])],
    );
    let tree = el(
        "db",
        &[],
        vec![
            el("rec", &[("id", "1"), ("id", "2")], vec![text("")]),
            el("rec", &[("id", "3")], vec![note, el("val", &[], vec![])]),
        ],
    );
    let mut payload = Vec::new();
    encode_small(&tree, &mut payload);
    let doc = bytes_to_doc(&payload).unwrap();
    let path = scratch_path("cold-read-folded");
    write_blocks(&path, &[(BlockKind::Version, payload)]);
    let cold = ColdArchive::open(&path).unwrap();
    let db = || KeyQuery::new("db");
    let rec = |id: &str| KeyQuery::new("rec").with_attr("id", id);
    let note = |canon: &str| KeyQuery::new("note").with_canon(".", canon);
    let folded = r#"<note a="&lt;" b="z">p<i></i></note>"#;
    let mut found = 0;
    for steps in [
        vec![db(), rec("2")],
        vec![db(), rec("1")],
        vec![db(), rec("3"), note(folded)],
        vec![
            db(),
            rec("3"),
            note(r#"<note a="&lt;" b="x">p<i></i></note>"#),
        ],
    ] {
        let want = find_in_doc(&doc, cold.spec(), &steps).and_then(|id| subtree_doc(&doc, id));
        found += usize::from(want.is_some());
        assert_eq!(
            as_xml(cold.as_of(&steps, 1).unwrap()),
            as_xml(want),
            "{steps:?}"
        );
    }
    assert_eq!(found, 2);
    std::fs::remove_file(&path).unwrap();
}

/// `db`/`rec 1`/`val`, and beneath `val` a chain of `d` that brings the
/// document to `depth` elements in all — built, not parsed, so it can be
/// deeper than the parser admits.
fn nested_record(depth: usize) -> Document {
    let mut doc = Document::new("db");
    let rec = doc.add_element(doc.root(), "rec");
    doc.add_text_element(rec, "id", "1");
    let mut at = doc.add_element(rec, "val");
    for _ in 3..depth {
        at = doc.add_element(at, "d");
    }
    doc.add_text(at, "deep");
    doc
}

/// The payload of [`nested_record`] as `encode_small` writes it — what
/// `doc_to_bytes` writes, when it does not refuse the document for its
/// depth.
fn nested_payload(depth: usize) -> Vec<u8> {
    let node = |kind: EKind, children: Vec<ETree>| ETree {
        kind,
        sort_key: None,
        frontier: false,
        time: None,
        children,
    };
    let el = |tag: &str, children| {
        let attrs = Vec::new();
        node(
            EKind::Element {
                tag: tag.into(),
                attrs,
            },
            children,
        )
    };
    let mut chain = node(EKind::Text("deep".into()), vec![]);
    for _ in 3..depth {
        chain = el("d", vec![chain]);
    }
    let id = el("id", vec![node(EKind::Text("1".into()), vec![])]);
    let tree = el("db", vec![el("rec", vec![id, el("val", vec![chain])])]);
    let mut out = Vec::new();
    encode_small(&tree, &mut out);
    out
}

/// A payload nesting one element past `MAX_DEPTH` is corrupt to every
/// cold read that reaches the depth — the whole version, and the record
/// that holds it, counted from the payload's root — and `out` stays
/// empty; one nesting exactly `MAX_DEPTH` reads back whole and by record.
#[test]
fn a_payload_nested_past_max_depth_is_corrupt_to_every_read_of_it() {
    use xarch::xml::MAX_DEPTH;
    let deepest = nested_record(MAX_DEPTH);
    assert_eq!(nested_payload(MAX_DEPTH), doc_to_bytes(&deepest).unwrap());
    let path = scratch_path("cold-read-too-deep");
    write_blocks(
        &path,
        &[
            (BlockKind::Version, nested_payload(MAX_DEPTH)),
            (BlockKind::Version, nested_payload(MAX_DEPTH + 1)),
        ],
    );
    let cold = ColdArchive::open(&path).unwrap();
    let record = vec![KeyQuery::new("db"), rec(1)];
    let value = vec![KeyQuery::new("db"), rec(1), KeyQuery::new("val")];
    let mut out = Vec::new();
    assert!(cold.retrieve_into(1, &mut out).unwrap());
    assert_eq!(String::from_utf8(out).unwrap(), to_compact_string(&deepest));
    for steps in [&record, &value] {
        let want = find_in_doc(&deepest, &spec(), steps).and_then(|id| subtree_doc(&deepest, id));
        assert_eq!(as_xml(cold.as_of(steps, 1).unwrap()), as_xml(want));
    }
    let mut out = Vec::new();
    let refusals = [
        cold.retrieve(2).map(drop),
        cold.retrieve_into(2, &mut out).map(drop),
        cold.as_of(&record, 2).map(drop),
        cold.as_of(&value, 2).map(drop),
    ];
    for refused in refusals {
        let (_, reason) = corrupt_reason(refused.unwrap_err());
        assert!(
            reason.contains(&format!("nest deeper than {MAX_DEPTH}")),
            "{reason}"
        );
    }
    assert!(out.is_empty());
    std::fs::remove_file(&path).unwrap();
}

/// A version block whose kind byte rotted to "empty" does not make the
/// version empty: the cold reader checks the block's checksum before it
/// answers "nothing here", and refuses at the block, as the journal does.
#[test]
fn an_empty_answer_is_one_its_block_vouches_for() {
    let path = scratch_path("cold-read-empty-lie");
    let payloads: Vec<_> = (1..=3)
        .map(|n| doc_to_bytes(&release(n)).unwrap())
        .collect();
    let blocks: Vec<_> = payloads
        .into_iter()
        .map(|p| (BlockKind::Version, p))
        .collect();
    write_blocks(&path, &blocks);
    let first_block = superblock::encode(&spec()).unwrap().len();
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[first_block], BlockKind::Version.kind_byte());
    bytes[first_block] = BlockKind::Empty.kind_byte();
    std::fs::write(&path, &bytes).unwrap();

    let at = first_block as u64;
    let cold = ColdArchive::open(&path).unwrap();
    assert_eq!(cold.latest(), 3);
    let mut out = Vec::new();
    for (query, result) in [
        ("retrieve", cold.retrieve(1).map(|_| ())),
        ("retrieve_into", cold.retrieve_into(1, &mut out).map(|_| ())),
        (
            "history",
            cold.history(&[KeyQuery::new("db"), rec(1)]).map(|_| ()),
        ),
    ] {
        let (offset, reason) = corrupt_reason(result.unwrap_err());
        assert_eq!(offset, at, "{query}: {reason}");
        assert!(reason.contains("checksum"), "{query}: {reason}");
    }
    assert!(out.is_empty());
    assert!(cold.retrieve(2).unwrap().is_some());
    drop(cold);
    let journal = ArchiveBuilder::new(spec()).durable(&path).open();
    let (offset, _) = corrupt_reason(journal.map(|_| ()).unwrap_err());
    assert_eq!(offset, at);
    std::fs::remove_file(&path).unwrap();
}

/// An answer no stored byte can change is not a read. The empty path
/// addresses the synthetic root, which exists in every version, an empty
/// one too: `history(&[])` and `history_values(&[])` answer as the hot
/// store does at every latest, 0 included, and `history(&[])` checksums
/// no block. Steps that leave the keyed paths — at the first step or
/// below a record — address nothing, and no block is read to say so.
#[test]
fn the_empty_path_and_steps_off_the_keyed_paths_answer_without_a_read() {
    use xarch::datagen::omim::{omim_spec, OmimGen};
    let releases = OmimGen::new(7).sequence(20, 4);
    let record = KeyQuery::new("Record").with_text("Num", "0");
    let off_keyed_paths = [
        vec![KeyQuery::new("nope")],
        vec![KeyQuery::new("ROOT"), record.clone(), KeyQuery::new("nope")],
    ];
    for latest in 0..=5u32 {
        let path = scratch_path("cold-read-empty-path");
        let options = DurableOptions {
            compression: BlockCodec::Lzss,
            sync: false,
            checkpoint_every: None,
        };
        let mut durable = ArchiveBuilder::new(omim_spec())
            .durable_with(&path, options)
            .try_build()
            .unwrap();
        let mut hot = ArchiveBuilder::new(omim_spec()).build();
        let mut docs = releases.iter();
        for v in 1..=latest {
            // version 3 is empty
            if v == 3 {
                durable.add_empty_version().unwrap();
                hot.add_empty_version().unwrap();
            } else {
                let doc = docs.next().unwrap();
                durable.add_version(doc).unwrap();
                hot.add_version(doc).unwrap();
            }
        }
        drop(durable);
        let obs = Obs::new();
        let cold = ColdArchive::open_observed(&path, &obs).unwrap();
        let reads = Reads(&obs);
        assert_eq!(cold.latest(), latest);

        let before = reads.now();
        let history = cold.history(&[]).unwrap();
        assert_eq!(reads.since(before), (0, 0), "history(&[]) at {latest}");
        assert_eq!(
            history,
            hot.history(&[]).unwrap(),
            "history(&[]) at {latest}"
        );
        let values = cold.history_values(&[]).unwrap();
        assert_eq!(values, hot.history_values(&[]).unwrap(), "at {latest}");
        // and both are what the definition says, before any version too
        let by_definition = common::history_values_by_definition(&cold, &[]);
        assert_eq!(values, by_definition, "cold by definition at {latest}");
        let hot_by_definition = common::history_values_by_definition(&*hot, &[]);
        assert_eq!(
            hot_by_definition, by_definition,
            "hot by definition at {latest}"
        );
        if latest > 0 {
            let existence = values.map(|h| h.existence.versions().collect::<Vec<_>>());
            assert_eq!(existence, Some((1..=latest).collect()), "at {latest}");
        }

        for steps in &off_keyed_paths {
            let before = reads.now();
            assert_eq!(cold.history(steps).unwrap(), None, "{steps:?} at {latest}");
            for v in 0..=latest + 1 {
                assert!(cold.as_of(steps, v).unwrap().is_none(), "{steps:?} at {v}");
                assert!(hot.as_of(steps, v).unwrap().is_none(), "{steps:?} at {v}");
            }
            assert_eq!(reads.since(before), (0, 0), "{steps:?} at {latest}");
            assert_eq!(hot.history(steps).unwrap(), None, "{steps:?} at {latest}");
        }
        drop(cold);
        std::fs::remove_file(&path).unwrap();
    }
}

/// The bytes a generated case is drawn from, read in turn; past the end
/// they come round again.
struct Draw<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Draw<'_> {
    fn below(&mut self, n: u8) -> u8 {
        let b = self.bytes[self.at % self.bytes.len()];
        self.at += 1;
        b % n
    }

    /// One of a few values, so keys collide across records and versions.
    fn value(&mut self) -> &'static str {
        ["1", "2", "a&b", "<q>", "née"][usize::from(self.below(5))]
    }
}

/// A generated element. `unreadable` marks one whose own key cannot be
/// read: a key path missing, or naming two children.
#[derive(Default)]
struct Gen {
    tag: &'static str,
    attrs: Vec<(&'static str, &'static str)>,
    kids: Vec<Kid>,
    unreadable: bool,
}

enum Kid {
    El(Gen),
    Text(&'static str),
}

impl Gen {
    fn new(tag: &'static str) -> Self {
        Gen {
            tag,
            ..Gen::default()
        }
    }

    fn with(mut self, kid: Gen) -> Self {
        self.kids.push(Kid::El(kid));
        self
    }

    fn text(tag: &'static str, text: &'static str) -> Self {
        let mut el = Gen::new(tag);
        el.kids.push(Kid::Text(text));
        el
    }

    /// The XML of the element; `renamed`, with every unreadable element's
    /// tag replaced by one no key or step names.
    fn xml(&self, renamed: bool, out: &mut String) {
        use xarch::xml::escape::escape_attr;
        let tag = if renamed && self.unreadable {
            "unreadable"
        } else {
            self.tag
        };
        out.push_str(&format!("<{tag}"));
        for (name, value) in &self.attrs {
            out.push_str(&format!(" {name}=\"{}\"", escape_attr(value)));
        }
        out.push('>');
        for kid in &self.kids {
            match kid {
                Kid::El(el) => el.xml(renamed, out),
                Kid::Text(t) => out.push_str(&escape_attr(t)),
            }
        }
        out.push_str(&format!("</{tag}>"));
    }

    fn shuffle(&mut self, d: &mut Draw) {
        for i in (1..self.kids.len()).rev() {
            let j = usize::from(d.below(255)) % (i + 1);
            self.kids.swap(i, j);
        }
    }
}

/// The keys a generated case may give `rec`: a child or an attribute, a
/// multi-part key with nested paths (OMIM's `Contributors`), its own
/// content, and none.
const REC_KEYS: [&str; 4] = [
    "id",
    "Name, CNtype, Date/Month, Date/Day, Date/Year",
    ".",
    "",
];

fn generated_spec(variant: usize) -> KeySpec {
    KeySpec::parse(&format!(
        "(/, (db, {{}}))\n\
         (/db, (rec, {{{}}}))\n\
         (/db/rec, (c, {{Name, Date/Month}}))\n\
         (/db/rec, (t, {{.}}))\n\
         (/db/rec, (u, {{}}))",
        REC_KEYS[variant]
    ))
    .unwrap()
}

/// A `Date` holding the `Month` (as a child, an attribute or both), and
/// when `full` a `Day` (sometimes twice) and a `Year` (sometimes missing).
fn date(d: &mut Draw, full: bool, unreadable: &mut bool) -> Gen {
    let mut date = Gen::new("Date");
    match d.below(4) {
        0 | 1 => date = date.with(Gen::text("Month", d.value())),
        2 => date.attrs.push(("Month", d.value())),
        _ => {
            date.attrs.push(("Month", d.value()));
            date = date.with(Gen::text("Month", d.value()));
        }
    }
    if full {
        for _ in 0..1 + usize::from(d.below(8) == 7) {
            date = date.with(Gen::text("Day", d.value()));
        }
        match d.below(8) {
            7 => *unreadable = true,
            _ => date = date.with(Gen::text("Year", d.value())),
        }
        *unreadable |= date
            .kids
            .iter()
            .filter(|k| matches!(k, Kid::El(g) if g.tag == "Day"))
            .count()
            > 1;
    }
    if d.below(3) == 0 {
        date = date.with(Gen::text("z", d.value()));
    }
    date.shuffle(d);
    date
}

/// `n` copies of an element, each drawn anew, as `unreadable` when
/// there is not exactly one.
fn key_children(n: u8, unreadable: &mut bool, mut one: impl FnMut() -> Gen) -> Vec<Gen> {
    *unreadable |= n != 1;
    (0..n).map(|_| one()).collect()
}

/// How many of a key-path child a candidate gets: mostly one, sometimes
/// two, sometimes none.
fn copies(d: &mut Draw) -> u8 {
    match d.below(8) {
        6 => 2,
        7 => 0,
        _ => 1,
    }
}

/// A `c`, keyed by `{Name, Date/Month}`; unreadable only when `may_fail`.
fn contributor(d: &mut Draw, may_fail: bool) -> Gen {
    let mut c = Gen::new("c");
    let mut unreadable = false;
    let names = if may_fail { copies(d) } else { 1 };
    for name in key_children(names, &mut unreadable, || Gen::text("Name", d.value())) {
        c = c.with(name);
    }
    let dates = if may_fail { copies(d) } else { 1 };
    let mut kids = Vec::new();
    for _ in 0..dates {
        kids.push(date(d, false, &mut unreadable));
    }
    unreadable |= dates != 1;
    for kid in kids {
        c = c.with(kid);
    }
    c.unreadable = unreadable;
    c.shuffle(d);
    c
}

/// A `rec` under key `variant` of [`REC_KEYS`], with what its key reads
/// — now and then unreadably — and other children around it.
fn record(d: &mut Draw, variant: usize) -> Gen {
    let mut rec = Gen::new("rec");
    let mut unreadable = false;
    match variant {
        0 => match d.below(6) {
            0 | 5 => rec = rec.with(Gen::text("id", d.value())),
            1 => rec.attrs.push(("id", d.value())),
            2 => {
                rec.attrs.push(("id", d.value()));
                rec = rec.with(Gen::text("id", d.value()));
            }
            3 => {
                rec = rec.with(Gen::text("id", d.value()));
                rec = rec.with(Gen::text("id", d.value()));
                unreadable = true;
            }
            _ => unreadable = true,
        },
        1 => {
            let names = copies(d);
            for name in key_children(names, &mut unreadable, || Gen::text("Name", d.value())) {
                rec = rec.with(name);
            }
            match d.below(4) {
                0 | 1 => rec = rec.with(Gen::text("CNtype", d.value())),
                2 => rec.attrs.push(("CNtype", d.value())),
                _ => {
                    rec.attrs.push(("CNtype", d.value()));
                    rec = rec.with(Gen::text("CNtype", d.value()));
                }
            }
            let dates = copies(d);
            unreadable |= dates != 1;
            for _ in 0..dates {
                let date = date(d, true, &mut unreadable);
                rec = rec.with(date);
            }
        }
        _ => {}
    }
    if d.below(3) == 0 {
        rec.attrs.push(("k", d.value()));
    }
    for _ in 0..d.below(4) {
        rec = match d.below(6) {
            // a content-keyed record holding an unreadable `c` would key
            // by the renamed tag in the renamed document
            0 | 1 => rec.with(contributor(d, variant != 2)),
            2 => rec.with(Gen::text("t", d.value()).with(Gen::text("w", d.value()))),
            3 => rec.with(Gen::text("u", d.value())),
            4 => rec.with(Gen::new("x").with(Gen::text("Name", d.value()))),
            _ => {
                rec.kids.push(Kid::Text(d.value()));
                rec
            }
        };
    }
    rec.unreadable = unreadable;
    rec.shuffle(d);
    rec
}

fn release_of(d: &mut Draw, variant: usize) -> Gen {
    let mut db = Gen::new("db");
    for _ in 0..d.below(6) {
        db = db.with(record(d, variant));
    }
    if d.below(4) == 0 {
        db.kids.push(Kid::Text(d.value()));
    }
    db
}

/// Every keyed element of `doc` addressed by the keys `annotate` gives it
/// and its ancestors, and each of those paths with its last step naming
/// a key no element has.
fn generated_paths(doc: &Document, spec: &KeySpec) -> Vec<Vec<KeyQuery>> {
    use std::sync::Arc;
    use xarch::core::{KeyPart, KeyValue};
    use xarch::xml::NodeKind;
    let ann = xarch::keys::annotate(doc, spec).expect("the renamed document annotates");
    let mut paths = Vec::new();
    for id in doc.preorder(doc.root()) {
        let mut steps = Vec::new();
        let mut at = Some(id);
        while let Some(n) = at {
            let (NodeKind::Element(tag), Some(key)) = (doc.kind(n), ann.key(n)) else {
                break;
            };
            steps.push(KeyQuery::labelled(
                Arc::clone(doc.syms().shared(tag)),
                key.clone(),
            ));
            at = doc.parent(n);
        }
        if at.is_some() || steps.is_empty() {
            continue;
        }
        steps.reverse();
        let last = steps.last().unwrap();
        let parts: Vec<KeyPart> = last.key().parts().to_vec();
        let mut elsewhere = steps.clone();
        elsewhere.pop();
        let tag: Arc<str> = last.tag().into();
        let mutated = match parts.split_last() {
            // a part's value changed, or a part dropped
            Some((p, rest)) if parts.len().is_multiple_of(2) => rest
                .iter()
                .cloned()
                .chain([KeyPart::new(p.path.clone(), format!("{}x", p.canon))])
                .collect::<KeyValue>(),
            Some((_, rest)) => rest.iter().cloned().collect(),
            None => std::iter::once(KeyPart::new("id".into(), "<id>1</id>".into())).collect(),
        };
        elsewhere.push(KeyQuery::labelled(tag, mutated));
        paths.push(steps);
        paths.push(elsewhere);
    }
    paths
}

proptest! {
    /// Generated key specs and releases: `rec` keyed by a child or an
    /// attribute, by five parts with nested paths, by its content or by
    /// nothing; `c` by two parts whose nested one may end in an attribute;
    /// candidates with a key path missing or naming two children. Each
    /// `as_of` and `history` of every keyed element, and of each with a
    /// key no element has, equals the whole-document route on the
    /// document the payload holds. A document holding a candidate whose
    /// key cannot be read is one `annotate` refuses whole; the route is
    /// taken there on the same document with each such candidate renamed
    /// to a tag no step names — which names nothing, as the cold path's
    /// candidate does — and the answer is cut from the document stored.
    #[test]
    fn cold_point_queries_equal_the_whole_document_route_on_generated_keys(
        bytes in proptest::collection::vec(any::<u8>(), 64..256)
    ) {
        let mut d = Draw { bytes: &bytes, at: 0 };
        let variant = usize::from(d.below(4));
        let spec = generated_spec(variant);
        let releases: Vec<Gen> = (0..1 + d.below(3)).map(|_| release_of(&mut d, variant)).collect();
        let xml = |g: &Gen, renamed| {
            let mut out = String::new();
            g.xml(renamed, &mut out);
            parse(&out).unwrap()
        };
        let stored: Vec<Document> = releases.iter().map(|g| xml(g, false)).collect();
        let renamed: Vec<Document> = releases.iter().map(|g| xml(g, true)).collect();

        // the first release its own block, the others one batch
        let mut file = superblock::encode(&spec).unwrap();
        let mut blocks = vec![(BlockKind::Version, 1, doc_to_bytes(&stored[0]).unwrap())];
        if stored.len() > 1 {
            blocks.push((BlockKind::Batch, 2, docs_to_batch_bytes(&stored[1..]).unwrap()));
        }
        for (kind, v, payload) in blocks {
            let (codec, bytes) = BlockCodec::Lzss.encode(&payload);
            file.extend_from_slice(&encode_block(kind, codec, v, payload.len() as u64, &bytes));
        }
        let path = scratch_path("cold-read-generated");
        std::fs::write(&path, file).unwrap();
        let cold = ColdArchive::open(&path).unwrap();
        prop_assert_eq!(cold.latest() as usize, stored.len());

        let mut paths: Vec<Vec<KeyQuery>> =
            renamed.iter().flat_map(|doc| generated_paths(doc, &spec)).collect();
        paths.push(vec![KeyQuery::new("db"), KeyQuery::new("rec")]);
        for steps in &paths {
            let mut held = Vec::new();
            for (i, (doc, renamed)) in stored.iter().zip(&renamed).enumerate() {
                let v = i as u32 + 1;
                let want = find_in_doc(renamed, &spec, steps).and_then(|id| subtree_doc(doc, id));
                if want.is_some() {
                    held.push(v);
                }
                prop_assert_eq!(
                    as_xml(cold.as_of(steps, v).unwrap()),
                    as_xml(want),
                    "as_of({:?}, {}) under {{{}}}", steps, v, REC_KEYS[variant]
                );
            }
            let history = cold.history(steps).unwrap().map(|t| t.versions().collect::<Vec<_>>());
            prop_assert_eq!(history, (!held.is_empty()).then_some(held), "history({:?})", steps);
        }
        drop(cold);
        std::fs::remove_file(&path).unwrap();
    }
}
