//! The external-memory archiver (§6): archive a database too big for the
//! configured memory budget, watch the I/O accounting respond to M and B,
//! and verify the result matches the in-memory archiver.
//!
//! ```text
//! cargo run --release --example external_memory
//! ```

use xarch::core::equiv_modulo_key_order;
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::extmem::{ExtArchive, IoConfig};
use xarch::ArchiveBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = omim_spec();
    let versions = OmimGen::new(42).sequence(120, 6);

    // In-memory reference.
    let mut reference = ArchiveBuilder::new(spec.clone()).build();
    for doc in &versions {
        reference.add_version(doc)?;
    }

    println!("memory M,page B,page reads,page writes,total I/O");
    for (m, b) in [(2usize << 10, 256usize), (8 << 10, 256), (8 << 10, 2048)] {
        let cfg = IoConfig {
            mem_bytes: m,
            page_bytes: b,
        };
        let mut ext = ExtArchive::new(spec.clone(), cfg);
        for doc in &versions {
            ext.add_version(doc)?;
        }
        // Differential check: the streams reconstruct the same database,
        // whether retrieval materializes or streams.
        for (i, doc) in versions.iter().enumerate() {
            let v = i as u32 + 1;
            let got = ext.retrieve(v)?.expect("version exists");
            assert!(
                equiv_modulo_key_order(&got, doc, &spec),
                "external archive diverged at version {v}"
            );
            let mut bytes = Vec::new();
            assert!(ext.retrieve_into(v, &mut bytes)?);
            let reparsed = xarch::xml::parse(std::str::from_utf8(&bytes)?)?;
            assert!(
                equiv_modulo_key_order(&reparsed, doc, &spec),
                "streamed retrieval diverged at version {v}"
            );
        }
        // Read the I/O accounting after the retrieval loop, so retrieval
        // reads are included.
        let s = ext.io_stats();
        println!("{m},{b},{},{},{}", s.page_reads, s.page_writes, s.total());
    }
    println!(
        "\nall configurations reconstruct every version exactly; larger M \
         means fewer merge passes, larger B means fewer (bigger) I/Os — \
         the O(N/B log_(M/B) N/B) behaviour of §6."
    );
    Ok(())
}
