//! Cross-crate integration tests: the whole pipeline — generate → validate
//! → archive → serialize → compress → retrieve → query — on all three
//! datasets, plus the figure-level shapes at test scale. The paper's exact
//! figures and claims are `tests/results.rs`'s, over `docs/RESULTS.md`.
//!
//! Every version comes back, materialized and streamed, from every backend
//! the `ArchiveBuilder` can produce ([`archive_equiv`] over the
//! `VersionStore` contract). The paper's §5 equivalence claim (chunked
//! archiving reconstructs the same database as whole-document archiving)
//! is checked on the `ChunkedArchive` experiment directly; the external
//! archiver (§6) has its own differential suite in `crates/extmem/tests`.

use xarch::core::{equiv_modulo_key_order, Archive, ChunkedArchive, Compaction};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::datagen::swissprot::{swissprot_spec, SwissProtGen};
use xarch::datagen::xmark::{xmark_spec, XmarkGen};
use xarch::diff::{IncrementalRepo, Weave};
use xarch::keys::{validate, KeySpec};
use xarch::xml::writer::to_pretty_string;
use xarch::xml::{parse, Document};
use xarch::{ArchiveBuilder, VersionStore};

/// Every backend configuration the builder offers, labelled.
fn all_backends(spec: &KeySpec) -> Vec<(&'static str, Box<dyn VersionStore>)> {
    vec![
        ("in-memory", ArchiveBuilder::new(spec.clone()).build()),
        (
            "in-memory/weave",
            ArchiveBuilder::new(spec.clone())
                .compaction(Compaction::Weave)
                .build(),
        ),
    ]
}

/// The paper's equivalence claim, generically: archiving `versions` and
/// retrieving them — materialized and streamed — reconstructs every
/// version, whatever the storage tier.
fn archive_equiv(store: &mut dyn VersionStore, versions: &[Document], label: &str) {
    for d in versions {
        store.add_version(d).unwrap();
    }
    assert_eq!(store.latest() as usize, versions.len(), "{label}: latest");
    for (i, d) in versions.iter().enumerate() {
        let v = i as u32 + 1;
        assert!(store.has_version(v), "{label}: has_version({v})");
        let got = store
            .retrieve(v)
            .unwrap()
            .unwrap_or_else(|| panic!("{label}: version {v} missing"));
        assert!(
            equiv_modulo_key_order(&got, d, store.spec()),
            "{label}: version {v} mismatch"
        );
        let mut bytes = Vec::new();
        assert!(
            store.retrieve_into(v, &mut bytes).unwrap(),
            "{label}: streamed version {v} missing"
        );
        let reparsed = parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert!(
            equiv_modulo_key_order(&reparsed, d, store.spec()),
            "{label}: streamed version {v} mismatch"
        );
    }
    assert!(!store.has_version(0), "{label}: version 0");
    assert!(
        !store.has_version(versions.len() as u32 + 1),
        "{label}: future version"
    );
}

fn pipeline(versions: &[Document], spec: &xarch::keys::KeySpec) {
    // validate every version
    for (i, d) in versions.iter().enumerate() {
        let v = validate(d, spec);
        assert!(v.is_empty(), "version {} violates keys: {v:?}", i + 1);
    }
    // one generic equivalence suite, every backend
    for (label, mut store) in all_backends(spec) {
        archive_equiv(store.as_mut(), versions, label);
    }
    // in-memory extras: merge invariants (both compaction modes), the
    // Fig-5 XML round trip, and lossless XMill-style compression of the
    // archive document
    let mut weave = Archive::with_compaction(spec.clone(), Compaction::Weave);
    let mut a = Archive::new(spec.clone());
    for d in versions {
        a.add_version(d).unwrap();
        a.check_invariants().unwrap();
        weave.add_version(d).unwrap();
        weave.check_invariants().unwrap();
    }
    let xml_text = a.to_xml_pretty();
    let reparsed = parse(&xml_text).unwrap();
    let b = xarch::core::xmlrep::from_xml(&reparsed, spec, a.compaction()).unwrap();
    for (i, d) in versions.iter().enumerate() {
        let got = b.retrieve(i as u32 + 1).unwrap();
        assert!(
            equiv_modulo_key_order(&got, d, spec),
            "XML round trip: version {}",
            i + 1
        );
    }
    let doc = a.to_xml();
    let compressed = xarch::compress::xml_compress(&doc);
    let back = xarch::compress::xml_decompress(&compressed).unwrap();
    assert!(xarch::xml::value_equal(
        &doc,
        doc.root(),
        &back,
        back.root()
    ));
    // diff repositories agree on the texts (normalized to no trailing
    // newline — the repositories are line-based)
    let mut inc = IncrementalRepo::new();
    let mut weave = Weave::new();
    let texts: Vec<String> = versions
        .iter()
        .map(|d| to_pretty_string(d, 0).trim_end().to_owned())
        .collect();
    for t in &texts {
        inc.add_version(t);
        weave.add_version(t);
    }
    for (i, t) in texts.iter().enumerate() {
        assert_eq!(inc.retrieve(i + 1).as_deref(), Some(t.as_str()));
        assert_eq!(weave.retrieve(i as u32 + 1).as_deref(), Some(t.as_str()));
    }
}

#[test]
fn omim_pipeline() {
    let mut g = OmimGen::new(101);
    g.del_ratio = 0.02;
    g.ins_ratio = 0.05;
    g.mod_ratio = 0.02;
    pipeline(&g.sequence(40, 6), &omim_spec());
}

#[test]
fn swissprot_pipeline() {
    pipeline(&SwissProtGen::new(102).sequence(12, 4), &swissprot_spec());
}

#[test]
fn xmark_random_change_pipeline() {
    let mut g = XmarkGen::new(103);
    pipeline(&g.random_change_sequence(25, 5, 10.0), &xmark_spec());
}

#[test]
fn xmark_key_mutation_pipeline() {
    let mut g = XmarkGen::new(104);
    pipeline(&g.key_mutation_sequence(25, 5, 10.0), &xmark_spec());
}

/// §5: "we can obtain the archive of the whole data by merging the archive
/// and the version chunk by chunk, and concatenating the results" — every
/// version a three-chunk archive retrieves is the release, and is what
/// the whole archive retrieves.
#[test]
fn chunked_archive_retrieves_what_the_whole_archive_does() {
    let mut omim = OmimGen::new(101);
    omim.del_ratio = 0.02;
    omim.ins_ratio = 0.05;
    omim.mod_ratio = 0.02;
    let datasets = [
        ("omim", omim.sequence(40, 6), omim_spec()),
        (
            "swissprot",
            SwissProtGen::new(102).sequence(12, 4),
            swissprot_spec(),
        ),
        (
            "xmark",
            XmarkGen::new(103).random_change_sequence(25, 5, 10.0),
            xmark_spec(),
        ),
    ];
    for (label, versions, spec) in datasets {
        let mut whole = Archive::new(spec.clone());
        let mut chunked = ChunkedArchive::new(spec.clone(), 3);
        for d in &versions {
            whole.add_version(d).unwrap();
            chunked.add_version(d).unwrap();
        }
        assert_eq!(chunked.latest() as usize, versions.len(), "{label}");
        for (i, d) in versions.iter().enumerate() {
            let v = i as u32 + 1;
            let got = chunked
                .retrieve(v)
                .unwrap_or_else(|| panic!("{label}: version {v} missing"));
            assert!(equiv_modulo_key_order(&got, d, &spec), "{label} v{v}");
            let want = whole.retrieve(v).unwrap();
            assert!(equiv_modulo_key_order(&got, &want, &spec), "{label} v{v}");
        }
    }
}

#[test]
fn figure_sanity_properties_hold() {
    // The figure-level shapes the paper reports, at test scale: cumulative
    // diffs dominate incremental; xmill(archive) beats gzip(inc diffs).
    // 250 records × 40 versions is large enough that the compression margin
    // (which grows with the version count) is decisive.
    let versions = OmimGen::new(0xA11CE).sequence(250, 40);
    let rows = xarch_bench::size_series(&versions, &omim_spec(), 40);
    let last = rows.last().expect("rows");
    assert!(
        last.cumu_bytes > last.inc_bytes,
        "cumulative diffs {} should exceed incremental diffs {}",
        last.cumu_bytes,
        last.inc_bytes
    );
    let c = last.compressed.expect("the last version is sampled");
    assert!(
        c.xmill_archive < c.gzip_inc,
        "xmill(archive)={} should beat gzip(inc)={}",
        c.xmill_archive,
        c.gzip_inc
    );
}

#[test]
fn accretive_shape_archive_competitive_with_diffs() {
    // Fig 11a/12a's premise: on accretive data the archive tracks the
    // incremental-diff repository closely.
    let versions = OmimGen::new(106).sequence(60, 12);
    let mut a = Archive::new(omim_spec());
    let mut inc = IncrementalRepo::new();
    for d in &versions {
        a.add_version(d).unwrap();
        inc.add_version(&to_pretty_string(d, 0));
    }
    let ratio = a.size_bytes() as f64 / inc.size_bytes() as f64;
    assert!(
        (0.8..1.2).contains(&ratio),
        "archive/inc ratio {ratio} out of the accretive band"
    );
}
