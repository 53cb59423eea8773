//! Archiving a curated scientific database: 30 versions of an OMIM-like
//! gene-disorder catalogue (Appendix B.1 schema, the paper's measured
//! accretive change profile), comparing the archive against diff-based
//! repositories and answering temporal queries.
//!
//! ```text
//! cargo run --release --example curated_omim
//! ```

use xarch::compress::{lzss, xmill};
use xarch::core::{equiv_modulo_key_order, Archive, KeyQuery};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::diff::{CumulativeRepo, IncrementalRepo};
use xarch::index::IndexedArchive;
use xarch::xml::writer::to_pretty_string;
use xarch::{StoreReader, VersionStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut gen = OmimGen::new(2002);
    let versions = gen.sequence(150, 30);
    println!(
        "generated {} versions of the curated database",
        versions.len()
    );

    let mut archive = Archive::new(omim_spec());
    let mut inc = IncrementalRepo::new();
    let mut cumu = CumulativeRepo::new();
    for doc in &versions {
        archive.add_version(doc)?;
        let text = to_pretty_string(doc, 0);
        inc.add_version(&text);
        cumu.add_version(&text);
    }

    // Correctness: every version comes back intact — checked through the
    // backend-independent VersionStore contract, materialized and streamed.
    let store: &mut dyn VersionStore = &mut archive;
    for (i, doc) in versions.iter().enumerate() {
        let v = i as u32 + 1;
        let got = store.retrieve(v)?.expect("archived");
        assert!(equiv_modulo_key_order(&got, doc, store.spec()));
        let mut bytes = Vec::new();
        assert!(store.retrieve_into(v, &mut bytes)?);
        let reparsed = xarch::xml::parse(std::str::from_utf8(&bytes)?)?;
        assert!(equiv_modulo_key_order(&reparsed, doc, store.spec()));
    }
    println!("all {} versions retrieve correctly", versions.len());

    // Space: the paper's §5 comparison, in miniature.
    let last = to_pretty_string(versions.last().unwrap(), 0).len();
    println!("last version:          {last:>9} bytes");
    println!(
        "archive:               {:>9} bytes ({:.3}x last version)",
        archive.size_bytes(),
        archive.size_bytes() as f64 / last as f64
    );
    println!("V1 + incremental diffs:{:>9} bytes", inc.size_bytes());
    println!("V1 + cumulative diffs: {:>9} bytes", cumu.size_bytes());
    let xa = xmill::xml_compress(&archive.to_xml()).len();
    let gi = lzss::compress(inc.serialized().as_bytes()).len();
    println!("xmill(archive):        {xa:>9} bytes");
    println!("gzip(V1+inc diffs):    {gi:>9} bytes");

    // Retrieval work: one scan vs a delta chain.
    println!(
        "retrieving v2 applies {} deltas from the incremental repo, \
         but only 1 archive scan",
        inc.retrieval_work(2).max(1)
    );

    // Temporal history of the very first record, via the O(l log d) index.
    let d0 = &versions[0];
    let rec = d0.child_elements(d0.root(), "Record").next().unwrap();
    let num = d0.text_content(d0.first_child_element(rec, "Num").unwrap());
    let idx = IndexedArchive::from_archive(archive);
    let q = [
        KeyQuery::new("ROOT"),
        KeyQuery::new("Record").with_text("Num", &num),
    ];
    let t = idx.history(&q)?.expect("record exists");
    println!(
        "record {num} exists at versions {t} (found with {} comparisons)",
        idx.history_index().comparisons()
    );
    Ok(())
}
