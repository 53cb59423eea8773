//! [`Journal`]: the archive's crash-safe segment file.
//!
//! The archive stays in memory; the segment file journals every committed
//! version. A commit runs the merge first (so a rejected document leaves
//! both archive and journal untouched), then appends one checksummed
//! block and syncs before acknowledging — after which the version
//! survives a `kill -9`. On open, the newest checkpoint is restored and
//! the journaled documents behind it are replayed through the same
//! deterministic merge, rebuilding exactly the pre-crash archive.

use std::path::{Path, PathBuf};

use xarch_compress::BlockCodec;
use xarch_core::state::{decode_archive, encode_archive};
use xarch_core::{Archive, Compaction, StoreError};
use xarch_keys::KeySpec;
use xarch_obs::{Level, Obs};
use xarch_xml::Document;

use crate::block::{decode_payload, BlockKind, Scan, BLOCK_HEADER_LEN, MAX_PAYLOAD};
use crate::checkpoint::{decode_checkpoint, encode_checkpoint};
use crate::metrics::StorageMetrics;
use crate::payload::{
    batch_bytes_to_docs, bytes_to_doc, doc_to_bytes, docs_to_batch_bytes, positioned,
};
use crate::segment::{scan_block_at, scan_checkpoints, RecoveryStats, ResumeFrom, Segment};

/// Tuning knobs for a [`Journal`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Preferred payload codec. [`BlockCodec::Lzss`] trades commit CPU for
    /// smaller segments; blocks it cannot shrink are stored raw.
    pub compression: BlockCodec,
    /// Sync the file after every commit (default). Disabling trades
    /// crash safety for throughput: after a power loss, pages may persist
    /// out of append order, leaving an *interior* block corrupt — which
    /// reopen refuses to repair (it cannot be distinguished from bit rot
    /// on committed data). Use `false` only for rebuildable archives,
    /// tests, and benchmarks, or where the platform guarantees ordered
    /// writeback.
    pub sync: bool,
    /// Append a checkpoint block after every `n` committed versions
    /// (`None` or `Some(0)` disables checkpointing, the default).
    ///
    /// A checkpoint snapshots the archive
    /// ([`xarch_core::state::encode_archive`]); reopen then restores the
    /// newest intact snapshot and replays only the journal *tail* behind
    /// it, making reopen cost proportional to the cadence instead of the
    /// full history. Checkpoints are pure redundancy — a damaged one is
    /// loudly skipped in favor of an older snapshot or a full replay, so
    /// enabling them never weakens crash safety.
    pub checkpoint_every: Option<u32>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            compression: BlockCodec::Raw,
            sync: true,
            checkpoint_every: None,
        }
    }
}

/// The crash-safe journal of one in-memory [`Archive`]: every commit
/// merges into the archive and appends the version to the segment file.
/// The commit methods take the archive [`Journal::open`] returned; reads
/// never touch the journal.
pub struct Journal {
    segment: Segment,
    options: DurableOptions,
    recovery: RecoveryStats,
    /// File offset of the newest checkpoint block's header (0 = none;
    /// offset 0 is always inside the superblock). Back-chained into the
    /// next checkpoint's payload.
    last_checkpoint: u64,
    /// Versions covered by the newest checkpoint — the cadence counter
    /// compares the archive's `latest()` against this.
    last_checkpoint_covered: u32,
    /// Set when a journal append failed *after* its merge committed:
    /// memory is then ahead of disk, so further commits are refused until
    /// the archive is reopened (reads stay available).
    poisoned: Option<String>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.segment.path())
            .field("options", &self.options)
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl Journal {
    /// Opens (or creates) the segment at `path` for an archive governed
    /// by `spec` under `compaction`, and returns the journal with the
    /// archive it recovered. `obs` receives the `segment.*` /
    /// `checkpoint.*` / `recovery.*` metrics and the recovery events
    /// (torn-tail truncation, corrupt blocks, skipped checkpoints,
    /// poisoning); without it they are detached.
    ///
    /// Recovery restores the newest intact checkpoint, walking back past
    /// damaged ones, and replays the journal tail behind it. A checkpoint
    /// taken under another configuration (compaction mode) is a mismatch:
    /// the whole journal is replayed instead, which rebuilds correctly
    /// under the new configuration.
    pub fn open(
        path: impl AsRef<Path>,
        options: DurableOptions,
        spec: KeySpec,
        compaction: Compaction,
        obs: Option<&Obs>,
    ) -> Result<(Self, Archive), StoreError> {
        let path: PathBuf = path.as_ref().to_owned();
        let metrics = obs.map_or_else(StorageMetrics::detached, StorageMetrics::registered);
        let journal = |segment, recovery, (last_checkpoint, last_checkpoint_covered)| Self {
            segment,
            options,
            recovery,
            last_checkpoint,
            last_checkpoint_covered,
            poisoned: None,
        };
        let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let expected_superblock = crate::superblock::encode(&spec)?;
        // A file shorter than its superblock *and* byte-identical to a
        // prefix of it is a create() torn by a crash: the superblock never
        // completed, so no version can have been committed — recreating is
        // safe. Anything else short-but-different is corruption and falls
        // through to Segment::open's loud failure.
        let torn_create = file_len > 0
            && file_len < expected_superblock.len() as u64
            && expected_superblock.starts_with(&std::fs::read(&path)?);
        if file_len == 0 || torn_create {
            let segment = Segment::create(&path, &spec, options.sync, metrics)?;
            let recovery = RecoveryStats {
                truncated_bytes: if torn_create { file_len } else { 0 },
                ..RecoveryStats::default()
            };
            let archive = Archive::with_compaction(spec, compaction);
            return Ok((journal(segment, recovery, (0, 0)), archive));
        }
        // Fast reopen: restore the newest intact checkpoint snapshot, then
        // have the segment scan skip the journal prefix it covers. The
        // pre-scan runs without the write lock; `Segment::open`
        // re-verifies the chosen block under the lock before trusting it.
        // Every failure here falls back — to an older snapshot, then to a
        // full replay — because a checkpoint is pure redundancy over the
        // journal.
        let mut restored: Option<(Archive, ResumeFrom)> = None;
        for cand in scan_checkpoints(&path)
            .unwrap_or_default()
            .into_iter()
            .rev()
        {
            let verified = match scan_block_at(&path, cand.offset) {
                Ok(Scan::Block(b)) if b.header.kind == BlockKind::Checkpoint => b,
                // damaged or torn candidate: an older snapshot may be fine
                _ => continue,
            };
            let covered = verified.header.version;
            // a snapshot that does not decode is one more damaged candidate
            let Ok(raw) = decode_payload(verified) else {
                continue;
            };
            let payload_at = cand.offset + BLOCK_HEADER_LEN as u64;
            let Ok(cp) = decode_checkpoint(&raw, payload_at) else {
                continue;
            };
            if cp.covered != covered {
                continue;
            }
            match decode_archive(&cp.state, &spec, compaction) {
                Ok(Some(archive)) => {
                    let resume = ResumeFrom {
                        checkpoint_offset: cand.offset,
                        versions: cp.covered,
                    };
                    restored = Some((archive, resume));
                    break;
                }
                // the snapshot is intact but was taken under a different
                // configuration — older snapshots would mismatch the same
                // way, so go straight to a full replay
                Ok(None) => break,
                // state bytes the block's checksum vouches for and the
                // decoder refuses (a tree nested too deep, say): loudly,
                // walk back to an older snapshot
                Err(e) => {
                    metrics.checkpoints_skipped.inc();
                    metrics.event(
                        Level::Warn,
                        "recovery.checkpoint_skipped",
                        &[
                            ("offset", cand.offset.to_string()),
                            ("reason", e.to_string()),
                        ],
                    );
                }
            }
        }
        let resume = restored.as_ref().map(|(_, r)| *r);
        let mut archive = match restored {
            Some((archive, _)) => archive,
            None => Archive::with_compaction(spec.clone(), compaction),
        };
        // the newest checkpoint seen — restored or replayed over — so the
        // next checkpoint back-chains to it and the cadence counter
        // continues instead of restarting
        let mut last_cp: (u64, u32) = resume.map_or((0, 0), |r| (r.checkpoint_offset, r.versions));
        // replay happens inside the scan callback, so only one block's
        // payload is ever materialized — reopening stays within the
        // archive's working set
        let (segment, recovery) = Segment::open(
            &path,
            &spec,
            options.sync,
            metrics,
            resume,
            |b| {
                let (header, offset) = (b.header, b.offset);
                let (replayed, committed) = match header.kind {
                    BlockKind::Checkpoint => {
                        // nothing to replay — the snapshot duplicates
                        // journal state — but remember it
                        last_cp = (offset, header.version);
                        return Ok(0);
                    }
                    BlockKind::Empty => (archive.add_empty_version(), 1u32),
                    BlockKind::Version => {
                        let raw = decode_payload(b)?;
                        let doc = bytes_to_doc(&raw).map_err(|e| positioned(offset, e))?;
                        (archive.add_version(&doc)?, 1)
                    }
                    BlockKind::Batch => {
                        // a verified batch block replays atomically through
                        // the archive's own batch merge, so reopening
                        // restores exactly the group-committed state
                        let raw = decode_payload(b)?;
                        let docs = batch_bytes_to_docs(&raw).map_err(|e| positioned(offset, e))?;
                        let assigned = archive.add_versions(&docs)?;
                        let Some(first) = assigned.first().copied() else {
                            return Err(StoreError::Corrupt {
                                offset,
                                reason: "batch block with zero versions".into(),
                            });
                        };
                        let count =
                            u32::try_from(assigned.len()).map_err(|_| StoreError::Corrupt {
                                offset,
                                reason: "batch version count exceeds u32".into(),
                            })?;
                        (first, count)
                    }
                };
                if replayed != header.version {
                    return Err(StoreError::Corrupt {
                    offset,
                    reason: format!(
                        "replay desynchronized: block commits version {}, store assigned {replayed}",
                        header.version
                    ),
                });
                }
                Ok(committed)
            },
        )?;
        Ok((journal(segment, recovery, last_cp), archive))
    }

    /// What `open` found and did while rebuilding from the segment file.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// File offset of the newest checkpoint block, or `None` when the
    /// segment holds no checkpoint yet.
    pub fn last_checkpoint_offset(&self) -> Option<u64> {
        (self.last_checkpoint != 0).then_some(self.last_checkpoint)
    }

    /// Checkpoint blocks appended through this journal (through this
    /// *registry* when it was opened observed against a shared one).
    pub fn checkpoints_written(&self) -> u64 {
        self.segment.metrics().checkpoints_written.get()
    }

    /// The segment file's path.
    pub fn path(&self) -> &Path {
        self.segment.path()
    }

    /// Current size of the segment file in bytes.
    pub fn journal_bytes(&self) -> u64 {
        self.segment.len_bytes()
    }

    /// Journal blocks appended by this journal — one per `add_version` /
    /// `add_empty_version`, one per whole `add_versions` batch.
    pub fn journal_blocks(&self) -> u64 {
        self.segment.blocks_appended()
    }

    /// fsyncs issued by this journal — group commit's measurable effect is
    /// exactly one per batch instead of one per version.
    pub fn journal_syncs(&self) -> u64 {
        self.segment.syncs_issued()
    }

    /// True when a journal append failed after its merge committed: the
    /// in-memory archive is ahead of the durable journal and further
    /// commits are refused. Reopen from the path to resynchronize (the
    /// unjournaled version is discarded, as it was never acknowledged).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Record that memory ran ahead of disk: further commits are refused
    /// and the event lands in the tracer's ring buffer for post-mortems.
    fn poison(&mut self, why: String) {
        self.segment
            .metrics()
            .event(Level::Error, "durable.poisoned", &[("why", why.clone())]);
        self.poisoned = Some(why);
    }

    fn check_writable(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            None => Ok(()),
            Some(why) => Err(StoreError::Backend(format!(
                "durable store refused the commit: a previous journal append failed ({why}); \
                 reopen the archive from {} to resynchronize",
                self.segment.path().display()
            ))),
        }
    }

    /// Poisons the journal if an append of an already-merged commit
    /// failed (memory would otherwise silently run ahead of disk).
    fn appended(&mut self, result: Result<(), StoreError>) -> Result<(), StoreError> {
        if let Err(e) = &result {
            self.poison(e.to_string());
        }
        result
    }

    /// Merges `doc` into `archive` as its next version and journals it.
    pub fn add_version(
        &mut self,
        archive: &mut Archive,
        doc: &Document,
    ) -> Result<u32, StoreError> {
        self.check_writable()?;
        // encode and size-check up front: everything that can be rejected
        // without touching state is rejected *before* the merge, so an
        // error here never leaves memory ahead of disk (a document nested
        // deeper than replay would read back is one)
        let raw = doc_to_bytes(doc)?;
        if raw.len() as u64 > MAX_PAYLOAD {
            return Err(StoreError::Backend(format!(
                "version payload of {} bytes exceeds the {MAX_PAYLOAD} byte block limit",
                raw.len()
            )));
        }
        // merge next: a rejected document leaves the archive unchanged and
        // nothing invalid reaches the journal
        let v = archive.add_version(doc)?;
        let (codec, payload) = self.options.compression.encode(&raw);
        let appended =
            self.segment
                .append(BlockKind::Version, codec, v, raw.len() as u64, &payload);
        self.appended(appended)?;
        self.maybe_checkpoint(archive);
        Ok(v)
    }

    /// Archives an empty version in `archive` and journals it.
    pub fn add_empty_version(&mut self, archive: &mut Archive) -> Result<u32, StoreError> {
        self.check_writable()?;
        let v = archive.add_empty_version();
        let appended = self
            .segment
            .append(BlockKind::Empty, BlockCodec::Raw, v, 0, &[]);
        self.appended(appended)?;
        self.maybe_checkpoint(archive);
        Ok(v)
    }

    /// Group commit: the whole batch is merged through the archive's batch
    /// merge and journaled as ONE length-prefixed multi-version block —
    /// one append, one commit word, **one fsync** — so either the entire
    /// batch survives a crash or none of it does. An empty batch writes
    /// nothing.
    pub fn add_versions(
        &mut self,
        archive: &mut Archive,
        docs: &[Document],
    ) -> Result<Vec<u32>, StoreError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        if let [single] = docs {
            // one version = one plain block; group commit adds nothing
            return Ok(vec![self.add_version(archive, single)?]);
        }
        self.check_writable()?;
        // encode and size-check up front, before any state moves
        let raw = docs_to_batch_bytes(docs)?;
        if raw.len() as u64 > MAX_PAYLOAD {
            return Err(StoreError::Backend(format!(
                "batch payload of {} bytes exceeds the {MAX_PAYLOAD} byte block limit \
                 (split the batch)",
                raw.len()
            )));
        }
        let before = archive.latest();
        let assigned = match archive.add_versions(docs) {
            Ok(assigned) => assigned,
            Err(e) => {
                // the archive validates the whole batch before merging any
                debug_assert_eq!(archive.latest(), before);
                return Err(e.into());
            }
        };
        debug_assert_eq!(assigned.first().copied(), Some(before + 1));
        debug_assert_eq!(assigned.len(), docs.len());
        let count = u32::try_from(assigned.len()).map_err(|_| {
            StoreError::Backend(format!(
                "batch of {} versions exceeds the u32 version space",
                assigned.len()
            ))
        })?;
        let (codec, payload) = self.options.compression.encode(&raw);
        let appended =
            self.segment
                .append_batch(codec, before + 1, count, raw.len() as u64, &payload);
        self.appended(appended)?;
        self.maybe_checkpoint(archive);
        Ok(assigned)
    }

    /// Appends a checkpoint block of `archive` if the configured cadence
    /// is due.
    ///
    /// Runs *after* the triggering commit is durable, so a checkpoint
    /// problem never fails that commit: an oversized snapshot just skips
    /// the checkpoint (with a traced event), while a failed *append*
    /// poisons the journal — the segment tail may be torn, and reopen will
    /// truncate it back to the committed prefix.
    fn maybe_checkpoint(&mut self, archive: &Archive) {
        let every = match self.options.checkpoint_every {
            Some(n) if n > 0 => n,
            _ => return,
        };
        if self.poisoned.is_some() {
            return;
        }
        let covered = archive.latest();
        if covered.saturating_sub(self.last_checkpoint_covered) < every {
            return;
        }
        let state = encode_archive(archive);
        let raw = encode_checkpoint(self.last_checkpoint, covered, &state);
        if raw.len() as u64 > MAX_PAYLOAD {
            self.segment.metrics().event(
                Level::Warn,
                "durable.checkpoint_skipped",
                &[(
                    "why",
                    format!("{}-byte snapshot exceeds block limit", raw.len()),
                )],
            );
            return;
        }
        let (codec, payload) = self.options.compression.encode(&raw);
        match self
            .segment
            .append_checkpoint(codec, raw.len() as u64, &payload)
        {
            Ok(offset) => {
                self.last_checkpoint = offset;
                self.last_checkpoint_covered = covered;
            }
            Err(e) => self.poison(format!("checkpoint append failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_path;
    use xarch_core::equiv_modulo_key_order;
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    fn open_with(path: &Path, options: DurableOptions) -> Result<(Journal, Archive), StoreError> {
        Journal::open(path, options, spec(), Compaction::default(), None)
    }

    fn open(path: &Path) -> Result<(Journal, Archive), StoreError> {
        open_with(path, DurableOptions::default())
    }

    #[test]
    fn journal_is_shareable_across_threads() {
        // reads bypass the journal entirely (segment state only matters
        // at commit/open), so a journaled store can serve reader threads
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Journal>();
    }

    #[test]
    fn versions_survive_reopen() {
        let path = scratch_path("durable-reopen");
        let v1 = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
        let v2 = parse("<db><rec><id>1</id><val>b</val></rec></db>").unwrap();
        {
            let (mut j, mut a) = open(&path).unwrap();
            assert_eq!(j.add_version(&mut a, &v1).unwrap(), 1);
            assert_eq!(j.add_version(&mut a, &v2).unwrap(), 2);
        } // dropped without any shutdown protocol — every commit is already on disk
        let (j, a) = open(&path).unwrap();
        assert_eq!(a.latest(), 2);
        assert_eq!(j.recovery().versions_recovered, 2);
        let got = a.retrieve(1).unwrap();
        assert!(equiv_modulo_key_order(&got, &v1, a.spec()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_versions_survive_reopen() {
        let path = scratch_path("durable-empty");
        let v1 = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
        {
            let (mut j, mut a) = open(&path).unwrap();
            j.add_version(&mut a, &v1).unwrap();
            assert_eq!(j.add_empty_version(&mut a).unwrap(), 2);
        }
        let (_, a) = open(&path).unwrap();
        assert_eq!(a.latest(), 2);
        assert!(a.has_version(2));
        assert!(a.retrieve(2).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_create_is_recreated_not_bricked() {
        // a crash mid-way through the very first superblock write leaves a
        // prefix of the superblock on disk; nothing was ever committed, so
        // open must recreate rather than fail forever
        let path = scratch_path("durable-torn-create");
        let full = crate::superblock::encode(&spec()).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let (mut j, mut a) = open(&path).unwrap();
        assert_eq!(a.latest(), 0);
        assert!(j.recovery().recovered_torn_tail());
        let v1 = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
        j.add_version(&mut a, &v1).unwrap();
        drop(j);
        let (_, a) = open(&path).unwrap();
        assert_eq!(a.latest(), 1);
        std::fs::remove_file(&path).unwrap();

        // a short file that is NOT a superblock prefix is corruption, not
        // a torn create — it must fail loudly
        let path = scratch_path("durable-short-garbage");
        std::fs::write(&path, b"not a segment").unwrap();
        let err = open(&path).map(|_| ()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn second_concurrent_open_is_refused() {
        // two live handles on one journal would overwrite each other's
        // acknowledged commits; the OS lock makes the segment single-writer
        let path = scratch_path("durable-lock");
        let first = open(&path).unwrap();
        let err = open(&path).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
        drop(first); // the lock dies with the journal…
        let (_, a) = open(&path).unwrap();
        assert_eq!(a.latest(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_is_one_block_and_survives_reopen() {
        let path = scratch_path("durable-batch");
        let docs: Vec<xarch_xml::Document> = [
            "<db><rec><id>1</id><val>a</val></rec></db>",
            "<db><rec><id>1</id><val>b</val></rec><rec><id>2</id><val>c</val></rec></db>",
            "<db><rec><id>2</id><val>c</val></rec></db>",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        {
            let (mut j, mut a) = open(&path).unwrap();
            let before = j.journal_bytes();
            let (blocks, syncs) = (j.journal_blocks(), j.journal_syncs());
            assert_eq!(j.add_versions(&mut a, &docs).unwrap(), vec![1, 2, 3]);
            // one block, one fsync, whatever the batch size
            assert_eq!(j.journal_blocks() - blocks, 1);
            assert_eq!(j.journal_syncs() - syncs, 1);
            // the whole batch is ONE block: header + batch payload + trailer
            let raw = crate::payload::docs_to_batch_bytes(&docs).unwrap();
            assert_eq!(
                j.journal_bytes() - before,
                (BLOCK_HEADER_LEN + raw.len() + crate::block::BLOCK_TRAILER_LEN) as u64
            );
            // empty batches write nothing and burn no version
            let mark = j.journal_bytes();
            assert_eq!(j.add_versions(&mut a, &[]).unwrap(), Vec::<u32>::new());
            assert_eq!(j.journal_bytes(), mark);
            assert_eq!(a.latest(), 3);
        }
        let (mut j, mut a) = open(&path).unwrap();
        assert_eq!(a.latest(), 3);
        assert_eq!(j.recovery().versions_recovered, 3);
        for (i, doc) in docs.iter().enumerate() {
            let got = a.retrieve(i as u32 + 1).unwrap();
            assert!(equiv_modulo_key_order(&got, doc, a.spec()));
        }
        // appending continues cleanly after a replayed batch
        assert_eq!(j.add_version(&mut a, &docs[0]).unwrap(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejected_batch_leaves_durable_store_unchanged() {
        let path = scratch_path("durable-batch-reject");
        let (mut j, mut a) = open(&path).unwrap();
        j.add_version(
            &mut a,
            &parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap(),
        )
        .unwrap();
        let journal = j.journal_bytes();
        let batch = vec![
            parse("<db><rec><id>2</id><val>b</val></rec></db>").unwrap(),
            parse("<nope><x>1</x></nope>").unwrap(),
        ];
        assert!(j.add_versions(&mut a, &batch).is_err());
        assert_eq!(a.latest(), 1, "rejected batch burned a version");
        assert_eq!(j.journal_bytes(), journal, "rejected batch reached disk");
        assert!(!j.is_poisoned(), "validation failures must not poison");
        assert_eq!(j.add_version(&mut a, &batch[0]).unwrap(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    fn doc_n(n: u32) -> xarch_xml::Document {
        parse(&format!("<db><rec><id>1</id><val>v{n}</val></rec></db>")).unwrap()
    }

    #[test]
    fn checkpointed_reopen_restores_snapshot_and_replays_only_the_tail() {
        let path = scratch_path("durable-checkpointed");
        let opts = DurableOptions {
            checkpoint_every: Some(2),
            ..DurableOptions::default()
        };
        {
            let (mut j, mut a) = open_with(&path, opts).unwrap();
            for n in 1..=5 {
                j.add_version(&mut a, &doc_n(n)).unwrap();
            }
            // cadence 2 over 5 versions: checkpoints after v2 and v4
            assert_eq!(j.checkpoints_written(), 2);
            assert!(j.last_checkpoint_offset().is_some());
        }
        let (mut j, mut a) = open_with(&path, opts).unwrap();
        let rec = j.recovery();
        assert!(rec.checkpoint_loaded, "newest checkpoint must be restored");
        assert_eq!(rec.versions_recovered, 5);
        // only v5 sits behind the checkpoint covering v4
        assert_eq!(rec.tail_blocks_replayed, 1);
        for n in 1..=5 {
            let got = a.retrieve(n).unwrap();
            assert!(equiv_modulo_key_order(&got, &doc_n(n), a.spec()));
        }
        // the cadence counter resumed: v6 completes a new 2-version stride
        j.add_version(&mut a, &doc_n(6)).unwrap();
        assert_eq!(j.checkpoints_written(), 1, "one new checkpoint after v6");
        std::fs::remove_file(&path).unwrap();

        // the replayed tail is bounded by the cadence, not the history: 3x
        // the versions at cadence 4 replays the same tail
        let opts = DurableOptions {
            checkpoint_every: Some(4),
            ..DurableOptions::default()
        };
        let tails: Vec<u32> = [8u32, 24]
            .into_iter()
            .map(|n| {
                let path = scratch_path("durable-checkpointed-tail");
                {
                    let (mut j, mut a) = open_with(&path, opts).unwrap();
                    for v in 1..=n {
                        j.add_version(&mut a, &doc_n(v)).unwrap();
                    }
                }
                let (j, a) = open_with(&path, opts).unwrap();
                let rec = j.recovery();
                assert!(rec.checkpoint_loaded, "n={n}: no checkpoint restored");
                assert_eq!(rec.versions_recovered, n);
                assert_eq!(a.latest(), n);
                std::fs::remove_file(&path).unwrap();
                rec.tail_blocks_replayed
            })
            .collect();
        assert_eq!(tails[0], tails[1], "tail grew with the history");
        assert!(tails[1] < 4, "tail {} not below the cadence", tails[1]);
    }

    #[test]
    fn checkpoint_blocks_are_transparent_to_a_full_replay() {
        // a checkpoint taken under one compaction mode is a configuration
        // mismatch for an archive reopened under the other: the full replay
        // steps over the checkpoint blocks, and the reopened state matches
        let path = scratch_path("durable-cp-fullreplay");
        let opts = DurableOptions {
            checkpoint_every: Some(1),
            ..DurableOptions::default()
        };
        {
            let (mut j, mut a) = open_with(&path, opts).unwrap();
            for n in 1..=3 {
                j.add_version(&mut a, &doc_n(n)).unwrap();
            }
            assert_eq!(j.checkpoints_written(), 3);
        }
        let (j, a) = Journal::open(&path, opts, spec(), Compaction::Weave, None).unwrap();
        assert!(!j.recovery().checkpoint_loaded);
        assert_eq!(j.recovery().versions_recovered, 3);
        assert_eq!(j.recovery().tail_blocks_replayed, 3);
        assert_eq!(a.compaction(), Compaction::Weave);
        for n in 1..=3 {
            let got = a.retrieve(n).unwrap();
            assert!(equiv_modulo_key_order(&got, &doc_n(n), a.spec()));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lzss_blocks_round_trip() {
        let path = scratch_path("durable-lzss");
        let opts = DurableOptions {
            compression: BlockCodec::Lzss,
            sync: true,
            checkpoint_every: None,
        };
        let mut src = String::from("<db>");
        for i in 0..40 {
            src.push_str(&format!(
                "<rec><id>{i}</id><val>common text body</val></rec>"
            ));
        }
        src.push_str("</db>");
        let doc = parse(&src).unwrap();
        let raw_len = crate::payload::doc_to_bytes(&doc).unwrap().len() as u64;
        {
            let (mut j, mut a) = open_with(&path, opts).unwrap();
            j.add_version(&mut a, &doc).unwrap();
            // the repetitive payload must actually have been compressed
            assert!(j.journal_bytes() < raw_len);
        }
        let (_, a) = open_with(&path, opts).unwrap();
        let got = a.retrieve(1).unwrap();
        assert!(equiv_modulo_key_order(&got, &doc, a.spec()));
        std::fs::remove_file(&path).unwrap();
    }
}
