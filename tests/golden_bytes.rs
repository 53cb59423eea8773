//! Golden bytes: the generators, the journal encoder and the checkpoint
//! writer produce exactly the bytes they produced before `Document`'s
//! storage was laid out in flat pools.
//!
//! The generators clone their documents and mutate them in place
//! (`remove_child`, `set_text`, new records appended beneath earlier
//! parents), so a CRC-32 of each sequence's compact XML pins the mutation
//! API; the payload and checkpoint CRCs pin what the journal and the
//! checkpoints write from those documents. The wire CRCs pin the encoded
//! query requests and their answers over the same fixture, so a change to
//! how query steps or answer rows are held in memory cannot move a byte
//! on the wire. The escape-dense fixture puts every escapable character at
//! every offset of short strings, in runs and beside multi-byte UTF-8,
//! through each XML emitter: the `Document` writer, the canonical form,
//! the archive scan, the cold payload renderer and a `history_values`
//! answer. The values were taken from the code before each change; a
//! change that moves any of these bytes must say why and take them again.

use xarch::compress::BlockCodec;
use xarch::core::{equiv_modulo_key_order, Archive, KeyQuery, StoreReader};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::datagen::swissprot::SwissProtGen;
use xarch::datagen::xmark::XmarkGen;
use xarch::keys::KeySpec;
use xarch::storage::payload::{doc_to_bytes, docs_to_batch_bytes};
use xarch::storage::{crc32, scratch_path, Crc32};
use xarch::xml::canon::canonical;
use xarch::xml::writer::to_compact_string;
use xarch::xml::{Builder, Document, NodeId};
use xarch::{ArchiveBuilder, ColdArchive, DurableOptions};
use xarch_proto::{Request, Response};

/// One CRC over every document's compact XML, each followed by a newline.
fn xml_crc(docs: &[Document]) -> u32 {
    let mut crc = Crc32::new();
    for doc in docs {
        crc.update(to_compact_string(doc).as_bytes());
        crc.update(b"\n");
    }
    crc.finish()
}

fn omim() -> Vec<Document> {
    OmimGen::new(7).sequence(120, 12)
}

#[test]
fn generated_sequences_keep_their_bytes() {
    let swissprot = SwissProtGen::new(11).sequence(40, 6);
    let xmark = XmarkGen::new(13).random_change_sequence(60, 5, 0.1);
    let keyed = XmarkGen::new(17).key_mutation_sequence(60, 5, 0.1);
    let got = [
        xml_crc(&omim()),
        xml_crc(&swissprot),
        xml_crc(&xmark),
        xml_crc(&keyed),
    ];
    assert_eq!(
        got,
        [0xd009_f474, 0x16a9_d694, 0xacb0_4c14, 0xfbb0_1e3c],
        "{got:#010x?}"
    );
}

#[test]
fn journal_payloads_keep_their_bytes() {
    let docs = omim();
    let mut each = Crc32::new();
    for doc in &docs {
        each.update(&doc_to_bytes(doc).expect("generated documents nest shallowly"));
    }
    let batch = docs_to_batch_bytes(&docs).expect("generated documents nest shallowly");
    let got = [each.finish(), crc32(&batch)];
    assert_eq!(got, [0xb457_5389, 0x1c7e_e5e1], "{got:#010x?}");
}

#[test]
fn checkpoints_keep_their_bytes() {
    let mut archive = Archive::new(omim_spec());
    let mut got = Vec::new();
    for doc in omim() {
        archive.add_version(&doc).expect("OMIM releases are keyed");
        if archive.latest().is_multiple_of(4) {
            let state = xarch::core::state::encode_archive(&archive);
            got.push(crc32(&state));
        }
    }
    assert_eq!(got, [0x6f1f_ed05, 0x1474_eea5, 0x5bea_6c4f], "{got:#010x?}");
}

/// The text of the element `path` (slash-separated) leads to from `at`.
fn text_at(doc: &Document, at: NodeId, path: &str) -> String {
    let end = path
        .split('/')
        .try_fold(at, |cur, name| doc.first_child_element(cur, name));
    doc.text_content(end.expect("the fixture element carries the path"))
}

/// The key-query paths of the fixture's first record in its newest
/// release, and of that record's first contributor (a step of five key
/// parts), both built by the public constructors.
fn first_record(docs: &[Document]) -> (Vec<KeyQuery>, Vec<KeyQuery>) {
    let doc = docs.last().expect("the fixture has releases");
    let rec = (doc.child_elements(doc.root(), "Record"))
        .find(|&r| doc.first_child_element(r, "Contributors").is_some())
        .expect("some record lists contributors");
    let record = vec![
        KeyQuery::new("ROOT"),
        KeyQuery::new("Record").with_text("Num", &text_at(doc, rec, "Num")),
    ];
    let c = doc
        .first_child_element(rec, "Contributors")
        .expect("found above");
    let mut step = KeyQuery::new("Contributors");
    for path in ["Name", "CNtype", "Date/Month", "Date/Day", "Date/Year"] {
        step = step.with_text(path, &text_at(doc, c, path));
    }
    let mut deep = record.clone();
    deep.push(step);
    (record, deep)
}

#[test]
fn query_wire_messages_keep_their_bytes() {
    let docs = omim();
    let mut archive = Archive::new(omim_spec());
    for doc in &docs {
        archive.add_version(doc).expect("OMIM releases are keyed");
    }
    let (record, deep) = first_record(&docs);
    assert!(
        archive.find(&deep).is_some(),
        "the constructed path resolves"
    );
    let requests = [
        Request::AsOf {
            lease: 0,
            v: 9,
            steps: deep.clone(),
        },
        Request::Diff {
            lease: 3,
            v1: 2,
            v2: 11,
            steps: record.clone(),
        },
        Request::Range {
            lease: 0,
            lo: 3,
            hi: 7,
            prefix: vec![KeyQuery::new("ROOT")],
        },
        Request::HistoryValues {
            lease: 0,
            steps: deep.clone(),
        },
    ];
    let responses = [
        Response::Range(archive.range(&[KeyQuery::new("ROOT")], 3..=7)),
        Response::Range(archive.range(&record, 1..=12)),
        Response::HistoryValues(archive.history_values(&record).expect("in memory")),
        Response::HistoryValues(archive.history_values(&deep).expect("in memory")),
    ];
    for r in &responses {
        let answered = match r {
            Response::Range(rows) => !rows.is_empty(),
            Response::HistoryValues(h) => h.as_ref().is_some_and(|h| !h.values.is_empty()),
            _ => false,
        };
        assert!(answered, "the fixture answers every pinned query");
    }
    let mut got = Vec::new();
    for r in &requests {
        let bytes = r.encode();
        assert_eq!(Request::decode(&bytes).as_ref(), Ok(r), "{r:?}");
        got.push(crc32(&bytes));
    }
    for r in &responses {
        let bytes = r.encode();
        assert_eq!(Response::decode(&bytes).as_ref(), Ok(r));
        got.push(crc32(&bytes));
    }
    assert_eq!(
        got,
        [
            0xbd86_4e6a,
            0xab97_cb22,
            0x5fb3_fcb6,
            0x94f8_7560,
            0x0902_1fd0,
            0x6207_4e1f,
            0x735b_feba,
            0x5250_77db
        ],
        "{got:#010x?}"
    );
}

/// The strings of the escape-dense fixture: every length 0..=24 with each
/// of `& < > " '` at every offset in plain ASCII, a run of them of every
/// length, and each beside 2-, 3- and 4-byte UTF-8 at every offset mod 8.
fn dense_strings() -> Vec<String> {
    const SPECIALS: [char; 5] = ['&', '<', '>', '"', '\''];
    let filler = |i: usize| char::from(b'a' + (i % 26) as u8);
    let mut out = Vec::new();
    for len in 0..=24 {
        for c in SPECIALS {
            for at in 0..len {
                let s = (0..len).map(|i| if i == at { c } else { filler(i) });
                out.push(s.collect());
            }
        }
        out.push(SPECIALS.iter().cycle().take(len).collect());
    }
    for wide in ["é", "€", "😀"] {
        for c in SPECIALS {
            for pad in 0..8 {
                let lead: String = (0..pad).map(filler).collect();
                out.push(format!("{lead}{wide}{c}{wide}"));
                out.push(format!("{lead}{c}{wide}{c}{c}"));
            }
        }
    }
    out
}

fn dense_spec() -> KeySpec {
    KeySpec::parse(
        "(/, (db, {}))\n\
         (/db, (rec, {id}))\n\
         (/db/rec, (val, {}))\n\
         (/db/rec, (k, {.}))",
    )
    .unwrap()
}

/// Release `v` (1..=4) of the escape-dense fixture, built through the
/// `Builder`: one record per dense string, carrying it as attribute
/// values, as text, and as the value of a `{.}`-keyed element. Record `i`
/// is absent from each release `v` for which `i + v` is a multiple of 5;
/// in the unkeyed content beneath its `val`, the text gains the release
/// number where `i % 3 == v % 3` and the attribute is reversed where
/// `i % 4 == v % 4`. (A keyed element's own attributes are stored once,
/// so they stay the same in every release.)
fn dense_release(strings: &[String], v: usize) -> Document {
    let mut b = Builder::new("db");
    b.attr("rel", "\"&<>'");
    for (i, s) in strings.iter().enumerate() {
        if (i + v).is_multiple_of(5) {
            continue;
        }
        b.open("rec");
        b.attr("a", s);
        b.open("id");
        b.text(&i.to_string());
        b.close();
        b.open("val");
        b.open("t");
        let attr: String = match i % 4 == v % 4 {
            true => s.chars().rev().collect(),
            false => s.clone(),
        };
        b.attr("a", &attr);
        match i % 3 == v % 3 {
            true => b.text(&format!("{s}{v}")),
            false => b.text(s),
        };
        b.close();
        b.close();
        b.open("k");
        b.attr("q", s);
        b.text(s);
        b.close();
        b.close();
    }
    b.finish()
}

/// A record of the dense fixture that is absent from release 3, whose
/// text gains the release number in 1 and 4 and whose attribute is
/// reversed in 2, and which holds at least three escapable characters.
fn dense_record(strings: &[String]) -> Vec<KeyQuery> {
    let escapables = |s: &str| s.chars().filter(|c| "&<>\"'".contains(*c)).count();
    let i = (0..strings.len())
        .find(|&i| i % 60 == 22 && escapables(&strings[i]) >= 3)
        .expect("the fixture has runs");
    vec![
        KeyQuery::new("db"),
        KeyQuery::new("rec").with_text("id", &i.to_string()),
    ]
}

#[test]
fn escape_dense_bytes_keep_their_bytes_through_every_emitter() {
    let strings = dense_strings();
    let docs: Vec<Document> = (1..=4).map(|v| dense_release(&strings, v)).collect();
    let mut canon = Crc32::new();
    for doc in &docs {
        canon.update(canonical(doc, doc.root()).as_bytes());
    }

    let spec = dense_spec();
    let mut archive = Archive::new(spec.clone());
    for doc in &docs {
        archive.add_version(doc).expect("the fixture is keyed");
    }
    let mut hot = Crc32::new();
    for v in 1..=4 {
        let mut bytes = Vec::new();
        assert!(archive.retrieve_into(v, &mut bytes).unwrap());
        let doc = archive.retrieve(v).expect("archived");
        let given = &docs[v as usize - 1];
        assert!(equiv_modulo_key_order(&doc, given, &spec), "v{v}");
        assert_eq!(bytes, to_compact_string(&doc).as_bytes(), "v{v}");
        hot.update(&bytes);
    }

    let path = scratch_path("golden-dense");
    let options = DurableOptions {
        compression: BlockCodec::Lzss,
        sync: false,
        checkpoint_every: None,
    };
    let mut durable = ArchiveBuilder::new(spec)
        .durable_with(&path, options)
        .try_build()
        .unwrap();
    durable.add_version(&docs[0]).unwrap();
    durable.add_versions(&docs[1..]).unwrap();
    drop(durable);
    let cold = ColdArchive::open(&path).unwrap();
    let mut cold_crc = Crc32::new();
    for v in 1..=4 {
        let mut bytes = Vec::new();
        assert!(cold.retrieve_into(v, &mut bytes).unwrap());
        // the cold path renders the release as it was journaled, in its
        // own record order
        let given = to_compact_string(&docs[v as usize - 1]);
        assert_eq!(bytes, given.as_bytes(), "cold v{v}");
        cold_crc.update(&bytes);
    }
    drop(cold);
    std::fs::remove_file(&path).ok();

    let history = archive
        .history_values(&dense_record(&strings))
        .expect("in memory");
    let values = history.as_ref().map_or(0, |h| h.values.len());
    assert!(values >= 3, "the pinned record changes: {history:?}");
    let answer = Response::HistoryValues(history).encode();

    let got = [
        xml_crc(&docs),
        canon.finish(),
        hot.finish(),
        cold_crc.finish(),
        crc32(&answer),
    ];
    assert_eq!(
        got,
        [
            0x3663_d71c,
            0xa877_8227,
            0x0694_c1bf,
            0x3f62_6b22,
            0x62eb_a08b
        ],
        "{got:#010x?}"
    );
}
