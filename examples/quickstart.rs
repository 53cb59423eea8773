//! Quickstart: configure an archive with [`xarch::ArchiveBuilder`], feed
//! it three versions of a tiny gene database, then retrieve old versions
//! (materialized and streamed) and run the §7 temporal queries — history,
//! as-of partial retrieval, range scans, and diffs — all through the
//! backend-independent [`xarch::VersionStore`] contract.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use xarch::core::{describe_changes, Archive, KeyQuery};
use xarch::keys::KeySpec;
use xarch::xml::parse;
use xarch::ArchiveBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Declare the key structure: genes are identified by their <id>.
    let spec = KeySpec::parse(
        "(/, (db, {}))\n\
         (/db, (gene, {id}))\n\
         (/db/gene, (name, {}))\n\
         (/db/gene, (seq, {}))",
    )?;

    // 2. Configure the store. The in-memory archiver of §4.2 is the one
    //    tier; `.with_index()` maintains the §7 query indexes over it, so
    //    the temporal queries in step 5 cost time proportional to their
    //    answers, without changing any code below.
    let mut store = ArchiveBuilder::new(spec.clone()).with_index().build();

    // 3. Archive versions as they are published.
    let versions = [
        "<db><gene><id>6230</id><name>GRTM</name><seq>GTCG</seq></gene></db>",
        "<db><gene><id>6230</id><name>GRTM</name><seq>GTCA</seq></gene>\
             <gene><id>2953</id><name>ACV2</name><seq>AGTT</seq></gene></db>",
        "<db><gene><id>2953</id><name>ACV2</name><seq>AGTT</seq></gene></db>",
    ];
    for src in versions {
        store.add_version(&parse(src)?)?;
    }

    // 4. Retrieve any past version with a single scan — materialized…
    let v1 = store.retrieve(1)?.expect("version 1 exists");
    println!("version 1: {}", xarch::xml::writer::to_compact_string(&v1));
    // …or streamed directly into any io::Write sink.
    let mut bytes = Vec::new();
    store.retrieve_into(2, &mut bytes)?;
    println!("version 2 (streamed): {}", String::from_utf8(bytes)?);

    // 5. Temporal queries (§7) — the questions a text diff can't answer,
    //    each costing time proportional to its answer, not the archive.
    let gene = |id: &str| {
        vec![
            KeyQuery::new("db"),
            KeyQuery::new("gene").with_text("id", id),
        ]
    };
    // …when did a gene exist?
    for id in ["6230", "2953"] {
        println!(
            "gene {id} existed at versions {}",
            store.history(&gene(id))?.expect("archived")
        );
    }
    // …what did gene 6230 look like at version 1, without materializing
    // the rest of that version?
    let seq_v1 = store.as_of(&gene("6230"), 1)?.expect("existed at v1");
    println!(
        "gene 6230 as of v1: {}",
        xarch::xml::writer::to_compact_string(&seq_v1)
    );
    // …every value it ever held, with the versions that held it
    let full = store.history_values(&gene("6230"))?.expect("archived");
    for (versions, content) in &full.values {
        println!("gene 6230 read {content} at versions {versions}");
    }
    // …which genes were alive during versions 1-2?
    // (each hit names its child by tag and key parts, shared with the
    // archive rather than copied, and can be fed back as a query step)
    for hit in store.range(&[KeyQuery::new("db")], 1..=2)? {
        for (path, value) in hit.step.parts() {
            println!(
                "alive in v1-2: <{}> {path} = {value} at {}",
                hit.step.tag(),
                hit.time
            );
        }
    }
    // …and what changed in gene 6230 between versions 1 and 2?
    let delta = store.diff(&gene("6230"), 1, 2)?;
    println!(
        "gene 6230 v1 -> v2: -{} +{} lines\n{}",
        delta.removed, delta.added, delta.script
    );
    println!("store stats: {:?}", store.stats()?);

    // 6. The in-memory backend additionally offers change description and
    //    the Fig-5 XML form of the archive itself.
    let mut archive = Archive::new(spec);
    for src in versions {
        archive.add_version(&parse(src)?)?;
    }
    for change in describe_changes(&archive, 1, 2) {
        println!("v1 -> v2: {change}");
    }
    println!("--- archive ---\n{}", archive.to_xml_pretty());
    Ok(())
}
