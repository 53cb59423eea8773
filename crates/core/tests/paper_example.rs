//! End-to-end reproduction of the paper's running example: the company
//! database of Figure 2 archived into the structure of Figures 4/9, the
//! Fig-5 XML rendering, retrieval, temporal history, change description,
//! empty versions (§2 footnote), weave compaction (Fig 10) and chunking.

use xarch_core::{
    describe_changes, equiv_modulo_key_order, Archive, ChangeKind, ChunkedArchive, Compaction,
    KeyQuery, TimeSet,
};
use xarch_keys::KeySpec;
use xarch_xml::{parse, Document};

fn spec() -> KeySpec {
    KeySpec::parse(
        "(/, (db, {}))\n\
         (/db, (dept, {name}))\n\
         (/db/dept, (emp, {fn, ln}))\n\
         (/db/dept/emp, (sal, {}))\n\
         (/db/dept/emp, (tel, {.}))",
    )
    .unwrap()
}

/// The four versions of Figure 2.
fn versions() -> Vec<Document> {
    let v1 = "<db><dept><name>finance</name></dept></db>";
    let v2 = "<db><dept><name>finance</name>\
              <emp><fn>Jane</fn><ln>Smith</ln></emp></dept></db>";
    let v3 = "<db>\
              <dept><name>finance</name>\
                <emp><fn>John</fn><ln>Doe</ln><sal>90K</sal><tel>123-4567</tel></emp></dept>\
              <dept><name>marketing</name>\
                <emp><fn>John</fn><ln>Doe</ln></emp></dept>\
              </db>";
    let v4 = "<db><dept><name>finance</name>\
              <emp><fn>John</fn><ln>Doe</ln><sal>95K</sal><tel>123-4567</tel></emp>\
              <emp><fn>Jane</fn><ln>Smith</ln><sal>95K</sal><tel>123-6789</tel><tel>112-3456</tel></emp>\
              </dept></db>";
    [v1, v2, v3, v4].iter().map(|s| parse(s).unwrap()).collect()
}

fn archive_versions(compaction: Compaction) -> Archive {
    let mut a = Archive::with_compaction(spec(), compaction);
    for v in &versions() {
        a.add_version(v).unwrap();
        a.check_invariants().unwrap();
    }
    a
}

#[test]
fn every_version_retrievable() {
    let a = archive_versions(Compaction::Alternatives);
    let vs = versions();
    for (i, v) in vs.iter().enumerate() {
        let got = a.retrieve(i as u32 + 1).expect("version exists");
        assert!(
            equiv_modulo_key_order(&got, v, a.spec()),
            "version {} mismatch:\n got: {}\nwant: {}",
            i + 1,
            xarch_xml::writer::to_compact_string(&got),
            xarch_xml::writer::to_compact_string(v),
        );
    }
    assert!(a.retrieve(0).is_none());
    assert!(a.retrieve(5).is_none());
}

#[test]
fn every_version_retrievable_with_weave() {
    let a = archive_versions(Compaction::Weave);
    let vs = versions();
    for (i, v) in vs.iter().enumerate() {
        let got = a.retrieve(i as u32 + 1).expect("version exists");
        assert!(
            equiv_modulo_key_order(&got, v, a.spec()),
            "weave: version {} mismatch",
            i + 1
        );
    }
}

#[test]
fn figure_4_timestamps() {
    let a = archive_versions(Compaction::Alternatives);
    // root t=[1-4]
    let root_t = a.time(a.root()).unwrap().to_set();
    assert_eq!(root_t.to_string(), "1-4");

    let db = KeyQuery::new("db");
    let finance = KeyQuery::new("dept").with_text("name", "finance");
    let marketing = KeyQuery::new("dept").with_text("name", "marketing");
    let john = KeyQuery::new("emp")
        .with_text("fn", "John")
        .with_text("ln", "Doe");
    let jane = KeyQuery::new("emp")
        .with_text("fn", "Jane")
        .with_text("ln", "Smith");

    // dept{name=marketing}: t=[3]
    let t = a.history(&[db.clone(), marketing.clone()]).unwrap();
    assert_eq!(t.to_string(), "3");
    // emp{John Doe} in finance: t=[3-4]
    let t = a
        .history(&[db.clone(), finance.clone(), john.clone()])
        .unwrap();
    assert_eq!(t.to_string(), "3-4");
    // emp{Jane Smith}: t=[2,4]  — the paper's re-appearing employee
    let t = a
        .history(&[db.clone(), finance.clone(), jane.clone()])
        .unwrap();
    assert_eq!(t.to_string(), "2,4");
    // Jane's tel{123-6789}: t=[4]
    let tel = KeyQuery::new("tel").with_canon(".", "<tel>123-6789</tel>");
    let t = a
        .history(&[db.clone(), finance.clone(), jane.clone(), tel])
        .unwrap();
    assert_eq!(t.to_string(), "4");
    // John Doe of marketing exists only at 3 (distinct from finance's John)
    let t = a.history(&[db.clone(), marketing, john.clone()]).unwrap();
    assert_eq!(t.to_string(), "3");
    // nonexistent employee
    assert!(a
        .history(&[
            db,
            finance,
            KeyQuery::new("emp")
                .with_text("fn", "Bob")
                .with_text("ln", "Hope")
        ])
        .is_none());
}

#[test]
fn salary_alternatives_match_figure_4() {
    // "during these times, John has salary 90K at version 3 and 95K at
    // version 4"
    let a = archive_versions(Compaction::Alternatives);
    let path = [
        KeyQuery::new("db"),
        KeyQuery::new("dept").with_text("name", "finance"),
        KeyQuery::new("emp")
            .with_text("fn", "John")
            .with_text("ln", "Doe"),
        KeyQuery::new("sal"),
    ];
    let t90 = a.value_history(&path, "90K").unwrap();
    assert_eq!(t90.to_string(), "3");
    let t95 = a.value_history(&path, "95K").unwrap();
    assert_eq!(t95.to_string(), "4");
    let t_other = a.value_history(&path, "1M").unwrap();
    assert!(t_other.is_empty());
}

#[test]
fn figure_5_xml_round_trip() {
    let a = archive_versions(Compaction::Alternatives);
    let xml = a.to_xml();
    // top level is <T t="1-4"><root><db>...
    assert_eq!(xml.tag_name(xml.root()), "T");
    assert_eq!(xml.attr(xml.root(), "t"), Some("1-4"));
    let txt = a.to_xml_pretty();
    assert!(txt.contains("<T t=\"3\">"), "{txt}");

    // parse the XML text and rebuild the archive
    let reparsed = parse(&txt).unwrap();
    let b = xarch_core::xmlrep::from_xml(&reparsed, a.spec(), a.compaction()).unwrap();
    b.check_invariants().unwrap();
    assert_eq!(b.latest(), 4);
    for v in 1..=4 {
        let da = a.retrieve(v);
        let db = b.retrieve(v);
        match (da, db) {
            (Some(da), Some(db)) => {
                assert!(equiv_modulo_key_order(&da, &db, a.spec()), "version {v}")
            }
            (None, None) => {}
            _ => panic!("presence mismatch at version {v}"),
        }
    }
}

#[test]
fn empty_version_footnote() {
    // §2 footnote: archive an empty version 5 — root gets t=[1-5] while db
    // stays t=[1-4].
    let mut a = archive_versions(Compaction::Alternatives);
    let v5 = a.add_empty_version();
    assert_eq!(v5, 5);
    a.check_invariants().unwrap();
    assert_eq!(a.time(a.root()).unwrap().to_string(), "1-5");
    let db_t = a.history(&[KeyQuery::new("db")]).unwrap();
    assert_eq!(db_t.to_string(), "1-4");
    assert!(a.has_version(5));
    assert!(a.retrieve(5).is_none());
    // archive version 6 with data again: db returns
    let v6doc = parse("<db><dept><name>finance</name></dept></db>").unwrap();
    a.add_version(&v6doc).unwrap();
    a.check_invariants().unwrap();
    let db_t = a.history(&[KeyQuery::new("db")]).unwrap();
    assert_eq!(db_t.to_string(), "1-4,6");
    let got = a.retrieve(6).unwrap();
    assert!(equiv_modulo_key_order(&got, &v6doc, a.spec()));
}

#[test]
fn changes_are_semantically_meaningful() {
    let a = archive_versions(Compaction::Alternatives);
    // v3 -> v4: marketing dept deleted; Jane re-added; John's sal changed.
    let ch = describe_changes(&a, 3, 4);
    let find = |needle: &str, kind: ChangeKind| {
        ch.iter().any(|c| c.kind == kind && c.path.contains(needle))
    };
    assert!(find("marketing", ChangeKind::Deleted), "{ch:#?}");
    assert!(find("Jane", ChangeKind::Added), "{ch:#?}");
    let sal = ch
        .iter()
        .find(|c| {
            c.kind == ChangeKind::Modified && c.path.contains("John") && c.path.ends_with("/sal")
        })
        .expect("salary change");
    let (from, to) = sal.detail.clone().unwrap();
    assert_eq!(from, "90K");
    assert_eq!(to, "95K");
    // John himself is NOT added/deleted — his continuity is preserved.
    assert!(
        !ch.iter().any(|c| {
            c.path.contains("John")
                && c.path.contains("finance")
                && c.kind != ChangeKind::Modified
                && !c.path.ends_with("/sal")
        }),
        "{ch:#?}"
    );
}

#[test]
fn gene_swap_example_of_figure_1() {
    // The motivating example: diff reports nonsense (genes changing ids);
    // the key-based archive reports seq/pos content changes per gene.
    let spec = KeySpec::parse("(/, (genes, {}))\n(/genes, (gene, {id}))\n\
                               (/genes/gene, (name, {}))\n(/genes/gene, (seq, {}))\n(/genes/gene, (pos, {}))")
        .unwrap();
    let v1 = parse(
        "<genes>\
         <gene><id>6230</id><name>GRTM</name><seq>GTCG...</seq><pos>11A52</pos></gene>\
         <gene><id>2953</id><name>ACV2</name><seq>AGTT...</seq><pos>08A96</pos></gene>\
         </genes>",
    )
    .unwrap();
    let v2 = parse(
        "<genes>\
         <gene><id>2953</id><name>ACV2</name><seq>GTCG...</seq><pos>11A52</pos></gene>\
         <gene><id>6230</id><name>GRTM</name><seq>AGTT...</seq><pos>08A96</pos></gene>\
         </genes>",
    )
    .unwrap();
    let mut a = Archive::new(spec);
    a.add_version(&v1).unwrap();
    a.add_version(&v2).unwrap();
    a.check_invariants().unwrap();
    let ch = describe_changes(&a, 1, 2);
    // No gene is added or deleted — identity follows the key.
    assert!(ch.iter().all(|c| c.kind == ChangeKind::Modified), "{ch:#?}");
    // Each gene's seq and pos changed (2 genes × 2 fields).
    assert_eq!(ch.len(), 4, "{ch:#?}");
    assert!(ch
        .iter()
        .any(|c| c.path.contains("6230") && c.path.ends_with("/seq")));
    assert!(ch
        .iter()
        .any(|c| c.path.contains("2953") && c.path.ends_with("/pos")));
    // names did NOT change
    assert!(!ch.iter().any(|c| c.path.ends_with("/name")));
}

#[test]
fn chunked_equals_whole() {
    let whole = archive_versions(Compaction::Alternatives);
    let mut chunked = ChunkedArchive::new(spec(), 3);
    for v in &versions() {
        chunked.add_version(v).unwrap();
    }
    assert_eq!(chunked.latest(), 4);
    for v in 1..=4u32 {
        let a = whole.retrieve(v).unwrap();
        let b = chunked.retrieve(v).unwrap();
        assert!(
            equiv_modulo_key_order(&a, &b, whole.spec()),
            "chunked mismatch at version {v}"
        );
    }
}

#[test]
fn shared_elements_stored_once() {
    // The finance dept name appears in all 4 versions but is stored once.
    let a = archive_versions(Compaction::Alternatives);
    let xml = a.to_xml_compact();
    assert_eq!(xml.matches("finance").count(), 1, "{xml}");
    // John's unchanged tel appears once even though sal changed.
    assert_eq!(xml.matches("123-4567").count(), 1, "{xml}");
}

#[test]
fn timestamp_superset_invariant_is_checked() {
    let a = archive_versions(Compaction::Alternatives);
    a.check_invariants().unwrap();
    let s = a.stats();
    assert!(s.stamps >= 2, "sal alternatives expected: {s:?}");
    assert!(s.explicit_times >= 4);
}

#[test]
fn idempotent_version_is_cheap() {
    // Archiving the same version twice must not grow the element count.
    let mut a = Archive::new(spec());
    let v = versions().remove(3);
    a.add_version(&v).unwrap();
    let before = a.stats();
    a.add_version(&v).unwrap();
    a.check_invariants().unwrap();
    let after = a.stats();
    assert_eq!(before.elements, after.elements);
    assert_eq!(before.texts, after.texts);
    let t = TimeSet::from_range(1, 2);
    assert_eq!(a.time(a.root()).unwrap(), t);
}
