//! Bulk loading a curated release with group commit: a whole batch of
//! versions lands through `add_versions` as one merge pass and ONE
//! journal block with a single fsync, then the process "dies" and the
//! reopened store proves the batch survived atomically.
//!
//! ```text
//! cargo run --example bulk_load
//! ```

use std::time::Instant;

use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::storage::scratch_path;
use xarch::{ArchiveBuilder, StoreReader, VersionStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = omim_spec();
    let path = scratch_path("bulk-load");

    // a "release": 32 consecutive versions of a 40-record database
    let mut gen = OmimGen::new(0xB0_1D);
    gen.ins_ratio = 0.06;
    gen.del_ratio = 0.03;
    let release = gen.sequence(40, 32);

    // ---- first life: ingest the release as TWO group-committed batches
    {
        let mut store = ArchiveBuilder::new(spec.clone())
            .with_index()
            .durable(&path)
            .open()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "an example prints its own wall time for the reader"
        )]
        let start = Instant::now();
        let first = store.add_versions(&release[..16])?;
        let second = store.add_versions(&release[16..])?;
        let elapsed = start.elapsed();
        println!(
            "ingested {} versions in {:.1} ms ({:.0} versions/sec)",
            first.len() + second.len(),
            elapsed.as_secs_f64() * 1e3,
            release.len() as f64 / elapsed.as_secs_f64(),
        );
        let journal = store.journal().expect("built durable");
        println!(
            "journal work: {} blocks, {} fsyncs (one of each per batch — \
             a serial load would have paid {} of each)",
            journal.journal_blocks(),
            journal.journal_syncs(),
            release.len(),
        );
        assert_eq!(journal.journal_blocks(), 2);
        assert_eq!(journal.journal_syncs(), 2);
        // dropped with no shutdown protocol: the batches are already
        // checksummed, commit-worded, and synced
    }

    // ---- second life: the batches replay atomically on reopen ---------
    let store = ArchiveBuilder::new(spec.clone())
        .with_index()
        .durable(&path)
        .open()?;
    let recovery = store.journal().expect("built durable").recovery();
    println!(
        "reopened: {} versions recovered from {} verified bytes",
        recovery.versions_recovered, recovery.bytes_scanned,
    );
    assert_eq!(store.latest(), release.len() as u32);
    let last = store
        .retrieve(release.len() as u32)?
        .expect("final version survives");
    assert!(xarch::core::equiv_modulo_key_order(
        &last,
        &release[release.len() - 1],
        store.spec()
    ));
    println!("final version verified against the source release");

    drop(store);
    std::fs::remove_file(&path)?;
    Ok(())
}
