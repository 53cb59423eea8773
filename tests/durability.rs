//! Crash, corruption, and recovery paths of the durable backend — the
//! process-restart story the ephemeral backends cannot tell.
//!
//! The acceptance bar: every *acknowledged* version is retrievable after a
//! kill-and-reopen, byte-identical to the in-memory backend's output,
//! including when the file ends in a torn (uncommitted) write. Corruption
//! of committed data must fail loudly with `StoreError::Corrupt`, not
//! deliver wrong versions.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::keys::KeySpec;
use xarch::storage::scratch_path;
use xarch::xml::parse;
use xarch::{ArchiveBuilder, Store, StoreError, StoreReader, VersionStore};

fn spec() -> KeySpec {
    KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
}

fn versions() -> Vec<xarch::xml::Document> {
    [
        "<db><rec><id>1</id><val>a</val></rec></db>",
        "<db><rec><id>1</id><val>b</val></rec><rec><id>2</id><val>c</val></rec></db>",
        "<db><rec><id>2</id><val>c2</val></rec></db>",
    ]
    .iter()
    .map(|s| parse(s).unwrap())
    .collect()
}

fn reopen(path: &Path) -> Result<Store, StoreError> {
    ArchiveBuilder::new(spec()).durable(path).open()
}

/// Streams version `v` out of `store`, asserting it exists.
fn bytes_of(store: &mut dyn VersionStore, v: u32) -> Vec<u8> {
    let mut out = Vec::new();
    assert!(store.retrieve_into(v, &mut out).unwrap(), "version {v}");
    out
}

#[test]
fn kill_and_reopen_recovers_every_acknowledged_version() {
    let path = scratch_path("kill-reopen");
    let docs = versions();
    let mut reference = ArchiveBuilder::new(spec()).build();
    {
        let mut durable = reopen(&path).unwrap();
        for d in &docs {
            reference.add_version(d).unwrap();
            durable.add_version(d).unwrap();
        }
        // no shutdown protocol: dropping here models `kill -9` — every
        // acknowledged commit is already synced
    }
    let mut recovered = reopen(&path).unwrap();
    assert_eq!(recovered.latest(), docs.len() as u32);
    for v in 1..=docs.len() as u32 {
        assert_eq!(
            bytes_of(&mut recovered, v),
            bytes_of(reference.as_mut(), v),
            "v{v} diverged from the never-closed in-memory store"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_final_write_is_truncated_and_all_committed_versions_survive() {
    let path = scratch_path("torn-tail");
    let docs = versions();
    let mut reference = ArchiveBuilder::new(spec()).build();
    {
        let mut durable = reopen(&path).unwrap();
        for d in &docs {
            reference.add_version(d).unwrap();
            durable.add_version(d).unwrap();
        }
    }
    // simulate a crash mid-append of version 4: header + part of a payload,
    // commit word never written
    let torn = [1u8, 0, 4, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3];
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(&torn).unwrap();
    drop(f);

    let mut store = ArchiveBuilder::new(spec())
        .durable(&path)
        .try_build()
        .unwrap();
    assert_eq!(store.latest(), docs.len() as u32);
    for v in 1..=docs.len() as u32 {
        assert_eq!(
            bytes_of(store.as_mut(), v),
            bytes_of(reference.as_mut(), v),
            "v{v} diverged after torn-tail recovery"
        );
    }
    drop(store);

    // the recovery stats record the cleanup, and the torn bytes are gone
    // from the file itself
    let d = reopen(&path).unwrap();
    assert!(
        !d.journal().unwrap().recovery().recovered_torn_tail(),
        "second open is clean"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_tail_recovery_reports_stats() {
    let path = scratch_path("torn-stats");
    {
        let mut durable = reopen(&path).unwrap();
        for d in &versions() {
            durable.add_version(d).unwrap();
        }
    }
    let torn = [1u8, 0, 4, 0, 0, 0, 99];
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(&torn).unwrap();
    drop(f);
    let d = reopen(&path).unwrap();
    let stats = d.journal().unwrap().recovery();
    assert_eq!(stats.versions_recovered, 3);
    assert_eq!(stats.truncated_bytes, torn.len() as u64);
    assert!(stats.recovered_torn_tail());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bit_flip_in_block_body_is_rejected_with_offset() {
    let path = scratch_path("bit-flip");
    let superblock_end;
    {
        let mut durable = reopen(&path).unwrap();
        superblock_end = durable.journal().unwrap().journal_bytes();
        let docs = versions();
        for d in &docs {
            durable.add_version(d).unwrap();
        }
    }
    // flip one bit inside the first block's payload
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let flip_at = superblock_end + 30; // past the 22-byte header, inside the body
    f.seek(SeekFrom::Start(flip_at)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(flip_at)).unwrap();
    f.write_all(&[b[0] ^ 0x10]).unwrap();
    drop(f);

    let err = reopen(&path).map(|_| ()).unwrap_err();
    match err {
        StoreError::Corrupt { offset, ref reason } => {
            assert_eq!(
                offset, superblock_end,
                "offset should point at the bad block"
            );
            assert!(reason.contains("checksum"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncation_mid_block_keeps_all_fully_committed_versions() {
    let path = scratch_path("truncate-mid");
    let docs = versions();
    let commit_points: Vec<u64>;
    {
        let mut durable = reopen(&path).unwrap();
        commit_points = docs
            .iter()
            .map(|d| {
                durable.add_version(d).unwrap();
                durable.journal().unwrap().journal_bytes()
            })
            .collect();
    }
    // cut the file in the middle of the final block: versions 1..n-1 must
    // all come back, the uncommitted remainder is truncated away
    let cut = (commit_points[1] + commit_points[2]) / 2;
    let f = OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(cut).unwrap();
    drop(f);

    let mut store = reopen(&path).unwrap();
    assert_eq!(store.latest(), 2, "the two fully committed versions");
    let mut reference = ArchiveBuilder::new(spec()).build();
    for d in &docs[..2] {
        reference.add_version(d).unwrap();
    }
    for v in 1..=2 {
        assert_eq!(
            bytes_of(&mut store, v),
            bytes_of(reference.as_mut(), v),
            "v{v} diverged after mid-block truncation"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_batch_block_recovers_to_the_pre_batch_state() {
    // Group commit's acceptance bar: a batch is ONE block with one commit
    // word, so a crash anywhere inside the batch append must recover the
    // pre-batch state with accurate stats — all-or-nothing, NEVER a
    // prefix of the batch. Simulated by truncating the multi-version
    // block at byte offsets spanning its whole extent.
    let docs = versions();
    let head = &docs[0];
    let batch = &docs[1..];
    // a reference segment tells us the batch block's byte extent
    let (pre_batch_end, file_end) = {
        let path = scratch_path("torn-batch-ref");
        let mut d = reopen(&path).unwrap();
        d.add_version(head).unwrap();
        let pre = std::fs::metadata(&path).unwrap().len();
        d.add_versions(batch).unwrap();
        drop(d);
        let end = std::fs::metadata(&path).unwrap().len();
        std::fs::remove_file(&path).unwrap();
        (pre, end)
    };
    let mut reference = ArchiveBuilder::new(spec()).build();
    reference.add_version(head).unwrap();
    let batch_len = file_end - pre_batch_end;
    // cut right after the batch started, mid-payload, and one byte short
    // of the commit word
    for cut in [
        pre_batch_end + 1,
        pre_batch_end + batch_len / 3,
        pre_batch_end + batch_len / 2,
        file_end - 1,
    ] {
        let path = scratch_path("torn-batch");
        {
            let mut d = reopen(&path).unwrap();
            d.add_version(head).unwrap();
            d.add_versions(batch).unwrap();
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), file_end);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let mut d = reopen(&path).unwrap();
        assert_eq!(
            d.latest(),
            1,
            "cut at {cut}: a torn batch must restore zero of its versions"
        );
        let stats = d.journal().unwrap().recovery();
        assert_eq!(stats.versions_recovered, 1, "cut at {cut}");
        assert_eq!(stats.truncated_bytes, cut - pre_batch_end, "cut at {cut}");
        assert!(stats.recovered_torn_tail(), "cut at {cut}");
        assert_eq!(
            bytes_of(&mut d, 1),
            bytes_of(reference.as_mut(), 1),
            "cut at {cut}: surviving version diverged"
        );
        // and the store keeps working: the batch can simply be re-ingested
        assert_eq!(d.add_versions(batch).unwrap(), vec![2, 3]);
        assert_eq!(d.latest(), 3);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn bit_flip_inside_a_committed_batch_block_is_corrupt_with_offset() {
    // an interior batch block that fails its checksum is bit rot on
    // committed, acknowledged data: reopen must fail loudly with the
    // block's offset, not silently drop or repair the batch
    let path = scratch_path("batch-bit-flip");
    let docs = versions();
    let batch_at;
    {
        let mut d = reopen(&path).unwrap();
        batch_at = d.journal().unwrap().journal_bytes();
        d.add_versions(&docs[..2]).unwrap();
        // a later plain block makes the batch block *interior*
        d.add_version(&docs[2]).unwrap();
    }
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let flip_at = batch_at + 40; // past the 22-byte header, inside the batch payload
    f.seek(SeekFrom::Start(flip_at)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(flip_at)).unwrap();
    f.write_all(&[b[0] ^ 0x04]).unwrap();
    drop(f);

    let err = reopen(&path).map(|_| ()).unwrap_err();
    match err {
        StoreError::Corrupt { offset, ref reason } => {
            assert_eq!(offset, batch_at, "offset should point at the batch block");
            assert!(reason.contains("checksum"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn empty_batch_writes_no_journal_block() {
    // the no-op contract at the journal level: no block, no version, no
    // fsync side effects — the file is byte-identical before and after
    let path = scratch_path("empty-batch");
    let mut d = reopen(&path).unwrap();
    d.add_version(&versions()[0]).unwrap();
    let before = std::fs::metadata(&path).unwrap().len();
    assert_eq!(d.add_versions(&[]).unwrap(), Vec::<u32>::new());
    assert_eq!(d.latest(), 1);
    assert_eq!(d.journal().unwrap().journal_bytes(), before);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
    drop(d);
    let d = reopen(&path).unwrap();
    assert_eq!(d.latest(), 1);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn batched_history_survives_reopen_byte_identically() {
    // the kill-and-reopen acceptance check with group-committed batches
    // mixed into the history: recovery replays batch blocks atomically
    // through the inner store's own batch path
    let path = scratch_path("batch-reopen");
    let sp = omim_spec();
    let mut g = OmimGen::new(0xBEE5);
    g.del_ratio = 0.05;
    g.ins_ratio = 0.07;
    let docs = g.sequence(30, 9);
    let mut reference = ArchiveBuilder::new(sp.clone()).build();
    {
        let mut durable = ArchiveBuilder::new(sp.clone())
            .durable(&path)
            .try_build()
            .unwrap();
        // single adds, a 3-batch, an empty version, then a 5-batch
        reference.add_version(&docs[0]).unwrap();
        durable.add_version(&docs[0]).unwrap();
        reference.add_versions(&docs[1..4]).unwrap();
        durable.add_versions(&docs[1..4]).unwrap();
        reference.add_empty_version().unwrap();
        durable.add_empty_version().unwrap();
        reference.add_versions(&docs[4..9]).unwrap();
        durable.add_versions(&docs[4..9]).unwrap();
    }
    let recovered = ArchiveBuilder::new(sp).durable(&path).try_build().unwrap();
    assert_eq!(recovered.latest(), reference.latest());
    for v in 1..=reference.latest() {
        let mut want = Vec::new();
        let mut got = Vec::new();
        let w = reference.retrieve_into(v, &mut want).unwrap();
        let g = recovered.retrieve_into(v, &mut got).unwrap();
        assert_eq!(w, g, "v{v} existence");
        assert_eq!(want, got, "v{v} bytes");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn key_spec_mismatch_is_a_clear_error() {
    let path = scratch_path("spec-mismatch");
    {
        let mut durable = reopen(&path).unwrap();
        durable.add_version(&versions()[0]).unwrap();
    }
    let other = KeySpec::parse("(/, (db, {}))\n(/db, (item, {sku}))").unwrap();
    let err = ArchiveBuilder::new(other)
        .durable(&path)
        .try_build()
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, StoreError::Backend(_)), "{err}");
    assert!(err.to_string().contains("key spec mismatch"), "{err}");
    // the original spec still opens fine — the mismatch probe must not
    // have damaged the file
    let store = reopen(&path).unwrap();
    assert_eq!(store.latest(), 1);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn larger_workload_survives_reopen_byte_identically() {
    // the acceptance check at datagen scale, with empty versions mixed in
    let path = scratch_path("omim-reopen");
    let spec = omim_spec();
    let mut g = OmimGen::new(0x5EED);
    g.del_ratio = 0.05;
    g.ins_ratio = 0.07;
    let docs = g.sequence(40, 8);
    let mut reference = ArchiveBuilder::new(spec.clone()).build();
    {
        let mut durable = ArchiveBuilder::new(spec.clone())
            .durable(&path)
            .try_build()
            .unwrap();
        for (i, d) in docs.iter().enumerate() {
            reference.add_version(d).unwrap();
            durable.add_version(d).unwrap();
            if i == 3 {
                reference.add_empty_version().unwrap();
                durable.add_empty_version().unwrap();
            }
        }
    }
    let recovered = ArchiveBuilder::new(spec)
        .durable(&path)
        .try_build()
        .unwrap();
    assert_eq!(recovered.latest(), reference.latest());
    for v in 1..=reference.latest() {
        let mut want = Vec::new();
        let mut got = Vec::new();
        let w = reference.retrieve_into(v, &mut want).unwrap();
        let g = recovered.retrieve_into(v, &mut got).unwrap();
        assert_eq!(w, g, "v{v} existence");
        assert_eq!(want, got, "v{v} bytes");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn indexed_durable_answers_queries_after_reopen() {
    // Acceptance criterion: a durable indexed store answers `history` /
    // `as_of` / `range` after reopen without a full index rebuild — the
    // journal replay flows through the indexed inner store's incremental
    // `add_version` path, re-establishing the index as part of recovery.
    use xarch::core::KeyQuery;
    let path = scratch_path("durable-indexed-queries");
    let q1 = vec![
        KeyQuery::new("db"),
        KeyQuery::new("rec").with_text("id", "1"),
    ];
    let q2 = vec![
        KeyQuery::new("db"),
        KeyQuery::new("rec").with_text("id", "2"),
    ];
    {
        let mut d = ArchiveBuilder::new(spec())
            .with_index()
            .durable(&path)
            .try_build()
            .unwrap();
        for doc in versions() {
            d.add_version(&doc).unwrap();
        }
        d.add_empty_version().unwrap();
        assert_eq!(d.history(&q1).unwrap().unwrap().to_string(), "1-2");
    } // process "dies"
    let d = ArchiveBuilder::new(spec())
        .with_index()
        .durable(&path)
        .try_build()
        .unwrap();
    assert_eq!(d.latest(), 4);
    // history answered from the replay-rebuilt index
    assert_eq!(d.history(&q1).unwrap().unwrap().to_string(), "1-2");
    assert_eq!(d.history(&q2).unwrap().unwrap().to_string(), "2-3");
    // as_of via indexed descent + pruned emit
    let sub = d.as_of(&q1, 2).unwrap().expect("rec 1 at v2");
    let compact = xarch::xml::writer::to_compact_string(&sub);
    assert!(compact.contains("<val>b</val>"), "{compact}");
    assert!(d.as_of(&q1, 3).unwrap().is_none(), "rec 1 dead at v3");
    // range clamps to the queried window, across the empty version
    let hits = d.range(&[KeyQuery::new("db")], 1..=4).unwrap();
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[0].time.to_string(), "1-2");
    assert_eq!(hits[1].time.to_string(), "2-3");
    std::fs::remove_file(&path).unwrap();
}

fn checkpointed(path: &Path, every: u32) -> Store {
    let options = xarch::DurableOptions {
        checkpoint_every: Some(every),
        ..xarch::DurableOptions::default()
    };
    ArchiveBuilder::new(spec())
        .durable_with(path, options)
        .open()
        .unwrap()
}

#[test]
fn kill_mid_checkpoint_write_recovers_the_pre_checkpoint_state() {
    // Cadence 3 with exactly 3 versions leaves the checkpoint as the
    // final block; truncating inside it at several offsets models a crash
    // at any point of the checkpoint append. A checkpoint is pure
    // redundancy, so every committed version must recover — the damaged
    // checkpoint is just a torn tail.
    let docs = versions();
    let path = scratch_path("cp-torn");
    let (cp_off, file_end) = {
        let mut d = checkpointed(&path, 3);
        for doc in &docs {
            d.add_version(doc).unwrap();
        }
        let off = d
            .journal()
            .unwrap()
            .last_checkpoint_offset()
            .expect("cadence 3 fired at version 3");
        (off, std::fs::metadata(&path).unwrap().len())
    };
    assert!(cp_off < file_end, "checkpoint is the tail block");
    let pristine = std::fs::read(&path).unwrap();
    let mut reference = ArchiveBuilder::new(spec()).build();
    for doc in &docs {
        reference.add_version(doc).unwrap();
    }
    for cut in [
        cp_off + 1,                       // header barely started
        cp_off + 10,                      // mid-header
        cp_off + (file_end - cp_off) / 2, // mid-payload
        file_end - 1,                     // one byte short of the commit word
    ] {
        std::fs::write(&path, &pristine).unwrap();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let mut d = checkpointed(&path, 3);
        assert_eq!(d.latest(), 3, "cut at {cut}");
        let stats = d.journal().unwrap().recovery();
        assert_eq!(stats.versions_recovered, 3, "cut at {cut}");
        assert!(stats.recovered_torn_tail(), "cut at {cut}");
        assert!(
            !stats.checkpoint_loaded,
            "cut at {cut}: the only checkpoint was torn"
        );
        assert_eq!(stats.truncated_bytes, cut - cp_off, "cut at {cut}");
        for v in 1..=3 {
            assert_eq!(
                bytes_of(&mut d, v),
                bytes_of(reference.as_mut(), v),
                "cut at {cut}: v{v} diverged"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bit_flip_inside_a_committed_checkpoint_is_skipped_loudly() {
    // Bit rot inside a committed checkpoint must not take the archive
    // down — the journal it summarizes is still intact. Recovery skips
    // the damaged checkpoint with a positioned warning event plus the
    // `recovery.checkpoints_skipped` counter, falls back to the previous
    // intact checkpoint, and still recovers every version.
    use xarch::storage::block::BLOCK_HEADER_LEN;
    let path = scratch_path("cp-bit-flip");
    let docs = versions();
    let newest_cp = {
        let mut d = checkpointed(&path, 2);
        for doc in &docs {
            d.add_version(doc).unwrap();
        }
        // a fourth version fires the second checkpoint, and a fifth puts
        // a committed block BEHIND it — rot in the file's final block is
        // indistinguishable from a torn append and is truncated instead,
        // so the interior position is what this test is about
        d.add_empty_version().unwrap();
        assert_eq!(d.journal().unwrap().checkpoints_written(), 2);
        let cp = d.journal().unwrap().last_checkpoint_offset().unwrap();
        d.add_empty_version().unwrap();
        cp
    };
    // flip one bit in the newest checkpoint's payload
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let flip_at = newest_cp + BLOCK_HEADER_LEN as u64 + 3;
    f.seek(SeekFrom::Start(flip_at)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(flip_at)).unwrap();
    f.write_all(&[b[0] ^ 0x20]).unwrap();
    drop(f);

    let obs = xarch::obs::Obs::disconnected();
    let options = xarch::DurableOptions {
        checkpoint_every: Some(2),
        ..xarch::DurableOptions::default()
    };
    let mut d = ArchiveBuilder::new(spec())
        .durable_with(&path, options)
        .with_observability(obs.clone())
        .open()
        .unwrap();
    assert_eq!(d.latest(), 5);
    let stats = d.journal().unwrap().recovery();
    assert_eq!(stats.versions_recovered, 5);
    assert!(
        stats.checkpoint_loaded,
        "the older intact checkpoint still fast-paths the reopen"
    );
    let skipped = obs
        .registry()
        .get_counter("recovery.checkpoints_skipped")
        .expect("registered")
        .get();
    assert!(skipped >= 1, "damaged checkpoint counted: {skipped}");
    // the skip is loud: a traced event names the corrupt offset
    let events = obs.recent_events();
    let warned = events.iter().any(|e| {
        e.target.contains("checkpoint")
            && e.fields
                .iter()
                .any(|(k, v)| *k == "offset" && v.parse::<u64>().is_ok())
    });
    assert!(warned, "no positioned checkpoint-skip event in {events:?}");
    // and the recovered contents are undamaged
    let mut reference = ArchiveBuilder::new(spec()).build();
    for doc in &docs {
        reference.add_version(doc).unwrap();
    }
    reference.add_empty_version().unwrap();
    reference.add_empty_version().unwrap();
    for v in 1..=3 {
        assert_eq!(
            bytes_of(&mut d, v),
            bytes_of(reference.as_mut(), v),
            "v{v} diverged after checkpoint fallback"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bit_flip_in_the_only_checkpoint_falls_back_to_full_replay() {
    let path = scratch_path("cp-only-flip");
    let docs = versions();
    let cp_off = {
        let mut d = checkpointed(&path, 3);
        for doc in &docs {
            d.add_version(doc).unwrap();
        }
        assert_eq!(d.journal().unwrap().checkpoints_written(), 1);
        d.journal().unwrap().last_checkpoint_offset().unwrap()
    };
    let mut bytes = std::fs::read(&path).unwrap();
    let flip_at = cp_off as usize + xarch::storage::block::BLOCK_HEADER_LEN + 1;
    bytes[flip_at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let mut d = checkpointed(&path, 3);
    assert_eq!(d.latest(), 3);
    let stats = d.journal().unwrap().recovery();
    assert!(!stats.checkpoint_loaded, "no intact checkpoint to load");
    assert_eq!(stats.versions_recovered, 3, "full replay still recovers");
    let mut reference = ArchiveBuilder::new(spec()).build();
    for doc in &docs {
        reference.add_version(doc).unwrap();
    }
    for v in 1..=3 {
        assert_eq!(bytes_of(&mut d, v), bytes_of(reference.as_mut(), v), "v{v}");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpointed_reopen_is_equivalent_at_datagen_scale() {
    // the larger-workload acceptance check with checkpoints in the file:
    // reopen through a checkpoint must be byte-identical to a full replay
    // and to the never-closed in-memory reference
    let spec = omim_spec();
    let mut g = OmimGen::new(0xCAFE);
    g.del_ratio = 0.05;
    g.ins_ratio = 0.07;
    let docs = g.sequence(30, 10);
    let mut reference = ArchiveBuilder::new(spec.clone()).build();
    for d in &docs {
        reference.add_version(d).unwrap();
    }
    let path = scratch_path("cp-omim");
    {
        let mut durable = ArchiveBuilder::new(spec.clone())
            .checkpoint_every(4)
            .durable(&path)
            .try_build()
            .unwrap();
        for d in &docs {
            durable.add_version(d).unwrap();
        }
    }
    // reopen once with the checkpoint fast path, once with checkpointing
    // configured off (the blocks are still in the file and must be
    // transparently skipped by a full replay)
    for every in [4u32, 0] {
        let recovered = ArchiveBuilder::new(spec.clone())
            .checkpoint_every(every)
            .durable(&path)
            .try_build()
            .unwrap();
        assert_eq!(recovered.latest(), reference.latest(), "every={every}");
        for v in 1..=reference.latest() {
            let mut want = Vec::new();
            let mut got = Vec::new();
            reference.retrieve_into(v, &mut want).unwrap();
            recovered.retrieve_into(v, &mut got).unwrap();
            assert_eq!(want, got, "every={every}: v{v} bytes");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bit_flip_sweep_never_panics_and_never_lies() {
    // Regression for the workspace `panic-freedom` invariant: corrupting
    // any single bit of a real segment file must produce either a loud
    // `StoreError` or a clean recovery — never a panic, and never a
    // recovered version whose bytes differ from what was committed.
    let path = scratch_path("bit-flip-sweep");
    let docs = versions();
    let mut reference = ArchiveBuilder::new(spec()).build();
    {
        let mut durable = reopen(&path).unwrap();
        for d in &docs {
            reference.add_version(d).unwrap();
            durable.add_version(d).unwrap();
        }
    }
    let pristine = std::fs::read(&path).unwrap();
    assert!(pristine.len() > 100, "segment unexpectedly small");

    // one flipped bit per byte position covers every field of the
    // superblock, every header, every payload byte, and every trailer
    for i in 0..pristine.len() {
        let mut mutated = pristine.clone();
        mutated[i] ^= 1 << (i % 8);
        std::fs::write(&path, &mutated).unwrap();
        match reopen(&path) {
            // loud, positioned failure is a correct answer
            Err(StoreError::Corrupt { .. }) | Err(StoreError::Backend(_)) => {}
            Err(other) => panic!("byte {i}: unexpected error class: {other}"),
            Ok(mut recovered) => {
                // recovery may truncate a torn-looking tail, but every
                // version it still claims must be byte-identical
                let latest = recovered.latest();
                assert!(
                    latest <= docs.len() as u32,
                    "byte {i}: recovered more versions than were committed"
                );
                for v in 1..=latest {
                    assert_eq!(
                        bytes_of(&mut recovered, v),
                        bytes_of(reference.as_mut(), v),
                        "byte {i}: v{v} bytes diverged after recovery"
                    );
                }
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// `db`/`rec 1`/`val`, and beneath `val` a chain of `d` that brings the
/// document to `depth` elements in all — built, not parsed, so it can be
/// deeper than the parser admits.
fn nested_record(depth: usize) -> xarch::xml::Document {
    let mut doc = xarch::xml::Document::new("db");
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
    use xarch::extmem::{encode_small, EKind, ETree};
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

/// A version block the checksum vouches for whose payload nests past
/// `MAX_DEPTH` fails the reopen loudly, positioned at the block — replay
/// never hands such a tree to the recursive merge. One `MAX_DEPTH` deep
/// replays, and a store never journals a deeper one to begin with.
#[test]
fn a_version_block_nested_past_max_depth_is_corrupt_on_open() {
    use xarch::compress::BlockCodec;
    use xarch::storage::block::{encode_block, BlockKind};
    use xarch::storage::payload::doc_to_bytes;
    use xarch::xml::MAX_DEPTH;

    let path = scratch_path("too-deep-version");
    let deepest = nested_record(MAX_DEPTH);
    {
        let mut d = reopen(&path).unwrap();
        d.add_version(&deepest).unwrap();
        let refused = d.add_version(&nested_record(MAX_DEPTH + 1)).unwrap_err();
        assert!(refused.to_string().contains("nests deeper"), "{refused}");
    }
    let mut d = reopen(&path).unwrap();
    assert_eq!(d.latest(), 1, "the refused version was never journaled");
    let mut reference = ArchiveBuilder::new(spec()).build();
    reference.add_version(&deepest).unwrap();
    assert_eq!(bytes_of(&mut d, 1), bytes_of(reference.as_mut(), 1));
    drop(d);

    let at = std::fs::metadata(&path).unwrap().len();
    assert_eq!(nested_payload(MAX_DEPTH), doc_to_bytes(&deepest).unwrap());
    let payload = nested_payload(MAX_DEPTH + 1);
    let block = encode_block(
        BlockKind::Version,
        BlockCodec::Raw,
        2,
        payload.len() as u64,
        &payload,
    );
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(&block).unwrap();
    drop(f);
    match reopen(&path).map(|_| ()).unwrap_err() {
        StoreError::Corrupt { offset, reason } => {
            assert_eq!(offset, at, "{reason}");
            assert!(
                reason.contains(&format!("nest deeper than {MAX_DEPTH}")),
                "{reason}"
            );
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    std::fs::remove_file(&path).unwrap();
}

/// Journals [`versions`] at `path` and appends a checkpoint block the
/// checksum vouches for, covering all three, whose state holds a tree
/// deeper than any archive grows. Returns the checkpoint's offset.
fn with_a_too_deep_checkpoint(path: &Path) -> u64 {
    use xarch::compress::BlockCodec;
    use xarch::core::{state, xmlrep, Compaction};
    use xarch::storage::block::{encode_block, BlockKind};
    use xarch::storage::encode_checkpoint;
    use xarch::xml::MAX_DEPTH;

    let docs = versions();
    {
        let mut d = reopen(path).unwrap();
        for doc in &docs {
            d.add_version(doc).unwrap();
        }
    }
    // the Fig-5 form of an archive one level deeper than any grows: the
    // synthetic root, `db`, `rec`, `val` and `MAX_DEPTH` stamps nested
    // beneath (an import annotates the content, stamps dissolved, and
    // refuses a *document* nested past the bound)
    let mut fig5 = xarch::xml::Document::new("T");
    let top = fig5.root();
    fig5.set_attr(top, "t", "1-3");
    let db = fig5.add_element(top, "root");
    let db = fig5.add_element(db, "db");
    let rec = fig5.add_element(db, "rec");
    fig5.add_text_element(rec, "id", "1");
    let mut at = fig5.add_element(rec, "val");
    for _ in 0..MAX_DEPTH {
        at = fig5.add_element(at, "T");
        fig5.set_attr(at, "t", "1");
    }
    let too_deep = xmlrep::from_xml(&fig5, &spec(), Compaction::Alternatives).unwrap();
    let raw = encode_checkpoint(0, 3, &state::encode_archive(&too_deep));
    let cp_at = std::fs::metadata(path).unwrap().len();
    let block = encode_block(
        BlockKind::Checkpoint,
        BlockCodec::Raw,
        3,
        raw.len() as u64,
        &raw,
    );
    let mut f = OpenOptions::new().append(true).open(path).unwrap();
    f.write_all(&block).unwrap();
    drop(f);
    cp_at
}

/// A checkpoint the checksum vouches for, holding a tree deeper than any
/// archive grows: restore refuses it, and the reopen says so — the
/// skipped-checkpoint counter and a positioned event — and replays the
/// journal instead, as for any checkpoint it cannot use.
#[test]
fn a_checkpoint_nested_past_max_depth_is_skipped_loudly() {
    let path = scratch_path("too-deep-checkpoint");
    let cp_at = with_a_too_deep_checkpoint(&path);
    let docs = versions();
    let obs = xarch::obs::Obs::disconnected();
    let mut d = ArchiveBuilder::new(spec())
        .durable(&path)
        .with_observability(obs.clone())
        .open()
        .unwrap();
    assert_eq!(d.latest(), 3);
    assert!(
        !d.journal().unwrap().recovery().checkpoint_loaded,
        "the journal was replayed"
    );
    let skipped = obs.registry().get_counter("recovery.checkpoints_skipped");
    assert_eq!(skipped.map(|c| c.get()), Some(1));
    let warned = obs.recent_events().into_iter().any(|e| {
        e.target == "recovery.checkpoint_skipped"
            && e.fields.contains(&("offset", cp_at.to_string()))
            && e.fields
                .iter()
                .any(|(k, v)| *k == "reason" && v.contains("too deep"))
    });
    assert!(
        warned,
        "no positioned skip event in {:?}",
        obs.recent_events()
    );
    let mut reference = ArchiveBuilder::new(spec()).build();
    for doc in &docs {
        reference.add_version(doc).unwrap();
    }
    for v in 1..=3 {
        assert_eq!(bytes_of(&mut d, v), bytes_of(reference.as_mut(), v), "v{v}");
    }
    std::fs::remove_file(&path).unwrap();
}

/// A second writer is refused at the lock, before it reads a byte of the
/// segment: the damaged checkpoint the first writer stepped over is not
/// decoded again, and nothing lands in the refused writer's registry.
#[test]
fn a_refused_second_writer_reads_nothing_of_the_segment() {
    let path = scratch_path("refused-writer");
    with_a_too_deep_checkpoint(&path);
    let first = reopen(&path).unwrap();
    let obs = xarch::obs::Obs::disconnected();
    let err = ArchiveBuilder::new(spec())
        .durable(&path)
        .with_observability(obs.clone())
        .open()
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("already open"), "{err}");
    let skipped = obs.registry().get_counter("recovery.checkpoints_skipped");
    assert!(
        matches!(skipped.map(|c| c.get()), None | Some(0)),
        "the refused writer decoded the checkpoint"
    );
    let recovery: Vec<_> = obs
        .recent_events()
        .into_iter()
        .filter(|e| e.target.starts_with("recovery."))
        .collect();
    assert!(recovery.is_empty(), "{recovery:?}");
    drop(first);
    std::fs::remove_file(&path).unwrap();
}

/// The journal and the cold reader step through a segment with one block
/// walk, so they agree on what its bytes say: rot in a block a later
/// checkpoint covers is refused by both at that block, and every torn
/// prefix of the segment reads back to the same latest version.
#[test]
fn the_journal_and_the_cold_reader_agree_on_rot_and_on_every_prefix() {
    use xarch::storage::block::{walk, BlockKind};
    use xarch::ColdArchive;

    let path = scratch_path("readers-agree");
    let docs = versions();
    {
        // v1, a batch of v2–v3, an empty v4 and v5, checkpoints after v3
        // and v5
        let mut d = checkpointed(&path, 2);
        d.add_version(&docs[0]).unwrap();
        d.add_versions(&docs[1..]).unwrap();
        d.add_empty_version().unwrap();
        d.add_version(&docs[0]).unwrap();
        assert_eq!(d.journal().unwrap().checkpoints_written(), 2);
    }
    let pristine = std::fs::read(&path).unwrap();
    let first_block = xarch::storage::superblock::encode(&spec()).unwrap().len();
    let steps: Vec<_> = walk(&pristine, first_block as u64).collect();
    let kinds: Vec<_> = steps.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        [
            BlockKind::Version,
            BlockKind::Batch,
            BlockKind::Checkpoint,
            BlockKind::Empty,
            BlockKind::Version,
            BlockKind::Checkpoint,
        ]
    );

    // the batch's kind byte rotted to an unassigned id
    let batch = steps[1].offset;
    let mut rotted = pristine.clone();
    rotted[batch as usize] = 0x7F;
    std::fs::write(&path, &rotted).unwrap();
    for (reader, result) in [
        ("journal", reopen(&path).map(|_| ())),
        ("cold", ColdArchive::open(&path).map(|_| ())),
    ] {
        match result {
            Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, batch, "{reader}"),
            other => panic!("{reader}: expected Corrupt at {batch}, got {other:?}"),
        }
    }

    // every prefix at or past the first block: a torn tail to both
    let copy = scratch_path("readers-agree-copy");
    for len in first_block..=pristine.len() {
        std::fs::write(&path, &pristine[..len]).unwrap();
        std::fs::write(&copy, &pristine[..len]).unwrap();
        let cold = ColdArchive::open(&path).unwrap().latest();
        let journal = reopen(&copy).unwrap().latest();
        assert_eq!(cold, journal, "prefix of {len} bytes");
    }

    // a header's version or stored_len field rotted, in an interior block
    // and in the final one — of the segment, and of its prefix that ends
    // in a data block: both refuse at the same offset, or both keep the
    // same versions
    let to_last_data = usize::try_from(steps[4].end).unwrap();
    for (segment, blocks) in [
        (&pristine[..], &steps[..]),
        (&pristine[..to_last_data], &steps[..5]),
    ] {
        for step in blocks {
            let version = (2..6).map(|at| ("version", at));
            let stored_len = (14..22).map(|at| ("stored_len", at));
            let flips = version
                .chain(stored_len)
                .flat_map(|f| [(f, 0x01), (f, 0x80)]);
            for ((field, at), bit) in flips {
                let mut rotted = segment.to_vec();
                rotted[usize::try_from(step.offset).unwrap() + at] ^= bit;
                std::fs::write(&path, &rotted).unwrap();
                std::fs::write(&copy, &rotted).unwrap();
                let cold = ColdArchive::open(&path).map(|c| c.latest());
                let journal = reopen(&copy).map(|s| s.latest());
                let case = format!(
                    "{field} byte {at} ^ {bit:#x} of the {:?} at {} in {} bytes",
                    step.kind,
                    step.offset,
                    segment.len()
                );
                match (cold, journal) {
                    (Ok(cold), Ok(journal)) => assert_eq!(cold, journal, "{case}"),
                    (
                        Err(StoreError::Corrupt { offset: cold, .. }),
                        Err(StoreError::Corrupt {
                            offset: journal, ..
                        }),
                    ) => assert_eq!(cold, journal, "{case}"),
                    other => panic!("{case}: {other:?}"),
                }
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&copy).unwrap();
}

/// A checkpoint the checksum vouches for whose state carries a retired
/// tag — 2 (the chunked archive's bodies), 3 (the external-memory event
/// stream) or 5 (the key-path query sidecar) — reads as taken under
/// another configuration: the in-memory
/// and the indexed store both replay the whole journal, nothing is
/// counted as damage, and every version comes back byte-identical.
#[test]
fn a_checkpoint_with_a_retired_state_tag_is_a_mismatch_not_damage() {
    use xarch::compress::BlockCodec;
    use xarch::core::{state, Archive};
    use xarch::storage::block::{encode_block, BlockKind};
    use xarch::storage::encode_checkpoint;

    let docs = versions();
    let mut reference = ArchiveBuilder::new(spec()).build();
    let mut archive = Archive::new(spec());
    for doc in &docs {
        reference.add_version(doc).unwrap();
        archive.add_version(doc).unwrap();
    }
    let builder = |indexed: bool| {
        let b = ArchiveBuilder::new(spec());
        if indexed {
            b.with_index()
        } else {
            b
        }
    };
    for tag in [2u8, 3, 5] {
        for indexed in [false, true] {
            let path = scratch_path("retired-state-tag");
            {
                let mut d = builder(indexed).durable(&path).try_build().unwrap();
                for doc in &docs {
                    d.add_version(doc).unwrap();
                }
            }
            // a well-formed archive body behind the retired tag, covering
            // every journaled version
            let mut retired = state::encode_archive(&archive);
            retired[0] = tag;
            let raw = encode_checkpoint(0, 3, &retired);
            let block = encode_block(
                BlockKind::Checkpoint,
                BlockCodec::Raw,
                3,
                raw.len() as u64,
                &raw,
            );
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&block).unwrap();
            drop(f);

            let obs = xarch::obs::Obs::disconnected();
            let mut d = builder(indexed)
                .durable(&path)
                .with_observability(obs.clone())
                .open()
                .unwrap();
            let at = format!("tag {tag}, indexed {indexed}");
            assert_eq!(d.latest(), 3, "{at}");
            assert!(
                !d.journal().unwrap().recovery().checkpoint_loaded,
                "{at}: the journal was replayed"
            );
            let skipped = obs.registry().get_counter("recovery.checkpoints_skipped");
            assert_eq!(
                skipped.map(|c| c.get()),
                Some(0),
                "{at}: a mismatch, not damage"
            );
            let warned = obs
                .recent_events()
                .into_iter()
                .any(|e| e.target == "recovery.checkpoint_skipped");
            assert!(!warned, "{at}: {:?}", obs.recent_events());
            for v in 1..=3 {
                assert_eq!(
                    bytes_of(&mut d, v),
                    bytes_of(reference.as_mut(), v),
                    "{at}: v{v}"
                );
            }
            drop(d);
            std::fs::remove_file(&path).unwrap();
        }
    }
}
