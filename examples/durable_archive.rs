//! The process-restart story: archive versions into a durable store, let
//! the process "die", then reopen the same segment file and retrieve a
//! version that was committed in the previous life.
//!
//! ```text
//! cargo run --example durable_archive
//! ```

use xarch::keys::KeySpec;
use xarch::storage::scratch_path;
use xarch::xml::parse;
use xarch::{ArchiveBuilder, StoreReader};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = KeySpec::parse(
        "(/, (db, {}))\n\
         (/db, (gene, {id}))\n\
         (/db/gene, (seq, {}))",
    )?;
    let path = scratch_path("example");

    // ---- first life of the process: archive two versions --------------
    {
        let mut store = ArchiveBuilder::new(spec.clone())
            .durable(&path)
            .try_build()?;
        store.add_version(&parse(
            "<db><gene><id>6230</id><seq>GTCG</seq></gene></db>",
        )?)?;
        store.add_version(&parse(
            "<db><gene><id>6230</id><seq>GTCA</seq></gene>\
                 <gene><id>2953</id><seq>AGTT</seq></gene></db>",
        )?)?;
        println!(
            "first life : archived {} versions to {}",
            store.latest(),
            path.display()
        );
        // the store is dropped with no shutdown protocol — every
        // acknowledged commit is already checksummed and synced on disk
    }

    // ---- second life: reopen from the same path ------------------------
    let store = ArchiveBuilder::new(spec).durable(&path).open()?;
    println!("second life: reopened with {} versions", store.latest());

    // v1 was committed by the previous process and comes back intact
    let v1 = store.retrieve(1)?.expect("v1 was archived");
    println!(
        "v1 document: {}",
        xarch::xml::writer::to_compact_string(&v1)
    );

    // ---- recovery stats: the store's journal says what open() did ------
    let journal = store.journal().expect("built durable");
    let stats = journal.recovery();
    println!(
        "recovery   : {} versions from {} verified bytes, torn tail: {}",
        stats.versions_recovered,
        stats.bytes_scanned,
        if stats.recovered_torn_tail() {
            format!("{} bytes truncated", stats.truncated_bytes)
        } else {
            "none".into()
        }
    );
    println!("journal    : {} bytes on disk", journal.journal_bytes());
    drop(store);

    std::fs::remove_file(&path)?;
    Ok(())
}
