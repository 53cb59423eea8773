//! [`DurableArchive`]: persistence as a `VersionStore` wrapper.
//!
//! The inner store (in-memory or indexed) holds the
//! merged archive; the segment file journals every committed version.
//! `add_version` runs the merge first (so a rejected document leaves both
//! layers untouched), then appends one checksummed block and syncs before
//! acknowledging — after which the version survives a `kill -9`. On open,
//! the journaled version documents are replayed through the same
//! deterministic merge, rebuilding exactly the pre-crash archive.

use std::path::{Path, PathBuf};

use xarch_compress::BlockCodec;
use xarch_core::{StoreError, StoreView, VersionStore};
use xarch_obs::{Level, Obs};
use xarch_xml::Document;

use crate::block::{decode_payload, BlockKind, Scan, BLOCK_HEADER_LEN, MAX_PAYLOAD};
use crate::checkpoint::{decode_checkpoint, encode_checkpoint};
use crate::metrics::StorageMetrics;
use crate::payload::{
    batch_bytes_to_docs, bytes_to_doc, doc_to_bytes, docs_to_batch_bytes, positioned,
};
use crate::segment::{scan_block_at, scan_checkpoints, RecoveryStats, ResumeFrom, Segment};

/// Tuning knobs for a [`DurableArchive`].
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
    /// A checkpoint snapshots the inner backend's materialized state
    /// (see [`VersionStore::checkpoint_state`]); reopen then restores the
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

/// A crash-safe, persistent [`VersionStore`] wrapping any other backend.
pub struct DurableArchive {
    inner: Box<dyn VersionStore>,
    segment: Segment,
    options: DurableOptions,
    recovery: RecoveryStats,
    /// File offset of the newest checkpoint block's header (0 = none;
    /// offset 0 is always inside the superblock). Back-chained into the
    /// next checkpoint's payload.
    last_checkpoint: u64,
    /// Versions covered by the newest checkpoint — the cadence counter
    /// compares `inner.latest()` against this.
    last_checkpoint_covered: u32,
    /// Set once the inner backend reported it cannot snapshot
    /// (`checkpoint_state()` returned `None`), so the cadence check stops
    /// re-asking on every commit.
    checkpoint_unsupported: bool,
    /// Set when a journal append failed *after* the inner merge committed:
    /// memory is then ahead of disk, so further commits are refused until
    /// the store is reopened (reads stay available).
    poisoned: Option<String>,
}

impl std::fmt::Debug for DurableArchive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableArchive")
            .field("path", &self.segment.path())
            .field("latest", &self.inner.latest())
            .field("options", &self.options)
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl DurableArchive {
    /// Opens (or creates) the segment at `path` with default options,
    /// replaying any journaled versions into `inner`.
    pub fn open(path: impl AsRef<Path>, inner: Box<dyn VersionStore>) -> Result<Self, StoreError> {
        Self::open_with(path, DurableOptions::default(), inner)
    }

    /// Opens (or creates) the segment at `path`, replaying any journaled
    /// versions into `inner` — which must be freshly built (zero versions)
    /// and carry the same [`xarch_keys::KeySpec`] the segment was created under.
    pub fn open_with(
        path: impl AsRef<Path>,
        options: DurableOptions,
        inner: Box<dyn VersionStore>,
    ) -> Result<Self, StoreError> {
        Self::open_impl(path, options, inner, StorageMetrics::detached())
    }

    /// [`DurableArchive::open_with`] reporting through `obs`: segment and
    /// recovery counters land in the registry under the canonical
    /// `segment.*` / `recovery.*` names, and recovery outcomes (torn-tail
    /// truncation, corrupt blocks, poisoning) are emitted as structured
    /// events the tracer's ring buffer keeps for post-mortems.
    pub fn open_observed(
        path: impl AsRef<Path>,
        options: DurableOptions,
        inner: Box<dyn VersionStore>,
        obs: &Obs,
    ) -> Result<Self, StoreError> {
        Self::open_impl(path, options, inner, StorageMetrics::registered(obs))
    }

    fn open_impl(
        path: impl AsRef<Path>,
        options: DurableOptions,
        inner: Box<dyn VersionStore>,
        metrics: StorageMetrics,
    ) -> Result<Self, StoreError> {
        let path: PathBuf = path.as_ref().to_owned();
        let mut inner = inner;
        if inner.latest() != 0 {
            return Err(StoreError::Backend(format!(
                "durable wrapper requires a fresh inner store (it already holds {} versions)",
                inner.latest()
            )));
        }
        let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let expected_superblock = crate::superblock::encode(inner.spec())?;
        // A file shorter than its superblock *and* byte-identical to a
        // prefix of it is a create() torn by a crash: the superblock never
        // completed, so no version can have been committed — recreating is
        // safe. Anything else short-but-different is corruption and falls
        // through to Segment::open's loud failure.
        let torn_create = file_len > 0
            && file_len < expected_superblock.len() as u64
            && expected_superblock.starts_with(&std::fs::read(&path)?);
        if file_len == 0 || torn_create {
            let segment = Segment::create_observed(&path, inner.spec(), options.sync, metrics)?;
            return Ok(Self {
                inner,
                segment,
                options,
                recovery: RecoveryStats {
                    truncated_bytes: if torn_create { file_len } else { 0 },
                    ..RecoveryStats::default()
                },
                last_checkpoint: 0,
                last_checkpoint_covered: 0,
                checkpoint_unsupported: false,
                poisoned: None,
            });
        }
        let spec = inner.spec().clone();
        // Fast reopen: restore the newest intact checkpoint snapshot into
        // the (still empty) inner store, then have the segment scan skip
        // the journal prefix it covers. The pre-scan runs without the
        // write lock; open_observed_from re-verifies the chosen block
        // under the lock before trusting it. Every failure here falls
        // back — to an older snapshot, then to a full replay — because a
        // checkpoint is pure redundancy over the journal.
        let mut resume: Option<ResumeFrom> = None;
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
            match inner.restore_checkpoint(&cp.state) {
                Ok(true) => {
                    resume = Some(ResumeFrom {
                        checkpoint_offset: cand.offset,
                        versions: cp.covered,
                    });
                    break;
                }
                // the snapshot is intact but belongs to a different
                // backend configuration — older snapshots would mismatch
                // the same way, so go straight to a full replay
                Ok(false) => break,
                // state bytes the block's checksum vouches for and the
                // decoder refuses (a tree nested too deep, say): loudly,
                // walk back to an older snapshot (restore failures leave
                // the inner store untouched)
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
        // the newest checkpoint seen — restored or replayed over — so the
        // next checkpoint back-chains to it and the cadence counter
        // continues instead of restarting
        let mut last_cp: (u64, u32) = resume.map_or((0, 0), |r| (r.checkpoint_offset, r.versions));
        // replay happens inside the scan callback, so only one block's
        // payload is ever materialized — reopening stays within the inner
        // backend's working set
        let (segment, recovery) = Segment::open_observed_from(
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
                        // journal state — but remember it so the next
                        // checkpoint back-chains to it and the cadence
                        // counter continues instead of restarting
                        last_cp = (offset, header.version);
                        return Ok(0);
                    }
                    BlockKind::Empty => (inner.add_empty_version()?, 1u32),
                    BlockKind::Version => {
                        let raw = decode_payload(b)?;
                        let doc = bytes_to_doc(&raw).map_err(|e| positioned(offset, e))?;
                        (inner.add_version(&doc)?, 1)
                    }
                    BlockKind::Batch => {
                        // a verified batch block replays atomically through
                        // the inner store's own batch fast path, so reopening
                        // restores exactly the group-committed state
                        let raw = decode_payload(b)?;
                        let docs = batch_bytes_to_docs(&raw).map_err(|e| positioned(offset, e))?;
                        if docs.is_empty() {
                            return Err(StoreError::Corrupt {
                                offset,
                                reason: "batch block with zero versions".into(),
                            });
                        }
                        let assigned = inner.add_versions(&docs)?;
                        let Some(first) = assigned.first().copied() else {
                            return Err(StoreError::Corrupt {
                                offset,
                                reason: "inner store assigned no versions for a non-empty batch"
                                    .into(),
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
        Ok(Self {
            inner,
            segment,
            options,
            recovery,
            last_checkpoint: last_cp.0,
            last_checkpoint_covered: last_cp.1,
            checkpoint_unsupported: false,
            poisoned: None,
        })
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

    /// Checkpoint blocks appended through this handle (through this
    /// *registry* when the archive was opened observed against a shared
    /// one).
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

    /// Journal blocks appended by this handle — one per `add_version` /
    /// `add_empty_version`, one per whole `add_versions` batch.
    pub fn journal_blocks(&self) -> u64 {
        self.segment.blocks_appended()
    }

    /// fsyncs issued by this handle — group commit's measurable effect is
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

    /// Journals an already-merged commit, poisoning the store if the
    /// append fails (memory would otherwise silently run ahead of disk).
    fn journal(
        &mut self,
        kind: BlockKind,
        codec: BlockCodec,
        version: u32,
        raw_len: u64,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        match self.segment.append(kind, codec, version, raw_len, payload) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poison(e.to_string());
                Err(e)
            }
        }
    }

    /// Journals an already-merged batch as one group-commit block — a
    /// single append and a single fsync — poisoning the store if the
    /// append fails.
    fn journal_batch(
        &mut self,
        codec: BlockCodec,
        first_version: u32,
        count: u32,
        raw_len: u64,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        match self
            .segment
            .append_batch(codec, first_version, count, raw_len, payload)
        {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poison(e.to_string());
                Err(e)
            }
        }
    }

    /// Appends a checkpoint block if the configured cadence is due.
    ///
    /// Runs *after* the triggering commit is durable, so a checkpoint
    /// problem never fails that commit: an unsupported or unreadable inner
    /// snapshot just skips the checkpoint (with a traced event), while a
    /// failed *append* poisons the handle — the segment tail may be torn,
    /// and reopen will truncate it back to the committed prefix.
    fn maybe_checkpoint(&mut self) {
        let every = match self.options.checkpoint_every {
            Some(n) if n > 0 => n,
            _ => return,
        };
        if self.checkpoint_unsupported || self.poisoned.is_some() {
            return;
        }
        let covered = self.inner.latest();
        if covered.saturating_sub(self.last_checkpoint_covered) < every {
            return;
        }
        let state = match self.inner.checkpoint_state() {
            Ok(Some(state)) => state,
            Ok(None) => {
                self.checkpoint_unsupported = true;
                self.segment.metrics().event(
                    Level::Warn,
                    "durable.checkpoint_unsupported",
                    &[("backend", "inner store cannot snapshot".into())],
                );
                return;
            }
            Err(e) => {
                self.segment.metrics().event(
                    Level::Error,
                    "durable.checkpoint_skipped",
                    &[("why", e.to_string())],
                );
                return;
            }
        };
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

/// Reads intercept nothing: every query goes straight to the wrapped
/// store's own method (indexed fast paths included — the indexes are
/// re-established *during* journal replay, by the same incremental
/// `add_version` path that maintains them live) with no journal
/// involvement; the segment file only matters at commit and open time.
impl xarch_core::Layer for DurableArchive {
    type Inner = dyn VersionStore;

    fn inner(&self) -> &(dyn VersionStore + 'static) {
        self.inner.as_ref()
    }
}

impl VersionStore for DurableArchive {
    fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError> {
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
        // merge next: a rejected document leaves the store unchanged and
        // nothing invalid reaches the journal
        let v = self.inner.add_version(doc)?;
        let (codec, payload) = self.options.compression.encode(&raw);
        self.journal(BlockKind::Version, codec, v, raw.len() as u64, &payload)?;
        self.maybe_checkpoint();
        Ok(v)
    }

    fn add_empty_version(&mut self) -> Result<u32, StoreError> {
        self.check_writable()?;
        let v = self.inner.add_empty_version()?;
        self.journal(BlockKind::Empty, BlockCodec::Raw, v, 0, &[])?;
        self.maybe_checkpoint();
        Ok(v)
    }

    /// Group commit: the whole batch is merged through the inner store's
    /// batch fast path and journaled as ONE length-prefixed multi-version
    /// block — one append, one commit word, **one fsync** — so either the
    /// entire batch survives a crash or none of it does. An empty batch
    /// writes nothing.
    fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, StoreError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        if let [single] = docs {
            // one version = one plain block; group commit adds nothing
            return Ok(vec![self.add_version(single)?]);
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
        let before = self.inner.latest();
        let assigned = match self.inner.add_versions(docs) {
            Ok(assigned) => assigned,
            Err(e) => {
                // native inner backends validate the batch before mutating
                // anything; if a foreign backend stopped part-way, memory
                // is ahead of the journal and commits must stop
                if self.inner.latest() != before {
                    self.poison(format!(
                        "batch merge failed after applying part of the batch: {e}"
                    ));
                }
                return Err(e);
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
        self.journal_batch(codec, before + 1, count, raw.len() as u64, &payload)?;
        self.maybe_checkpoint();
        Ok(assigned)
    }

    fn checkpoint_state(&self) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.checkpoint_state()
    }

    /// Always refuses: restoring state into a durable store without
    /// journaling it would leave memory ahead of disk. Checkpoints flow
    /// through the segment file instead — reopen from the path restores
    /// the newest snapshot automatically.
    fn restore_checkpoint(&mut self, _state: &[u8]) -> Result<bool, StoreError> {
        Err(StoreError::Backend(
            "durable stores restore checkpoints through reopen, not restore_checkpoint \
             (the snapshot must come from the journal it covers)"
                .into(),
        ))
    }

    /// Views only the wrapped in-memory store: reads never touch the
    /// journal, so the view answers byte-identically while the journal and
    /// its fsyncs stay on this instance. The shared handle takes the view
    /// after the commit lands, so a published view never holds a version
    /// that could vanish on crash.
    fn view(&self) -> Result<StoreView, StoreError> {
        self.inner.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_path;
    use xarch_core::{Archive, StoreReader};
    use xarch_keys::KeySpec;
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    fn fresh_inner() -> Box<dyn VersionStore> {
        Box::new(Archive::new(spec()))
    }

    #[test]
    fn durable_archive_is_shareable_across_threads() {
        // reads bypass the journal entirely (segment state only matters
        // at commit/open), so a durable store can serve reader threads
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DurableArchive>();
    }

    #[test]
    fn versions_survive_reopen() {
        let path = scratch_path("durable-reopen");
        let v1 = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
        let v2 = parse("<db><rec><id>1</id><val>b</val></rec></db>").unwrap();
        {
            let mut d = DurableArchive::open(&path, fresh_inner()).unwrap();
            assert_eq!(d.add_version(&v1).unwrap(), 1);
            assert_eq!(d.add_version(&v2).unwrap(), 2);
        } // dropped without any shutdown protocol — every commit is already on disk
        let d = DurableArchive::open(&path, fresh_inner()).unwrap();
        assert_eq!(d.latest(), 2);
        assert_eq!(d.recovery().versions_recovered, 2);
        let got = d.retrieve(1).unwrap().unwrap();
        assert!(xarch_core::equiv_modulo_key_order(&got, &v1, d.spec()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_versions_survive_reopen() {
        let path = scratch_path("durable-empty");
        let v1 = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
        {
            let mut d = DurableArchive::open(&path, fresh_inner()).unwrap();
            d.add_version(&v1).unwrap();
            assert_eq!(d.add_empty_version().unwrap(), 2);
        }
        let d = DurableArchive::open(&path, fresh_inner()).unwrap();
        assert_eq!(d.latest(), 2);
        assert!(d.has_version(2));
        assert!(d.retrieve(2).unwrap().is_none());
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
        let mut d = DurableArchive::open(&path, fresh_inner()).unwrap();
        assert_eq!(d.latest(), 0);
        assert!(d.recovery().recovered_torn_tail());
        let v1 = parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap();
        d.add_version(&v1).unwrap();
        drop(d);
        let d = DurableArchive::open(&path, fresh_inner()).unwrap();
        assert_eq!(d.latest(), 1);
        std::fs::remove_file(&path).unwrap();

        // a short file that is NOT a superblock prefix is corruption, not
        // a torn create — it must fail loudly
        let path = scratch_path("durable-short-garbage");
        std::fs::write(&path, b"not a segment").unwrap();
        let err = DurableArchive::open(&path, fresh_inner())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn second_concurrent_open_is_refused() {
        // two live handles on one journal would overwrite each other's
        // acknowledged commits; the OS lock makes the segment single-writer
        let path = scratch_path("durable-lock");
        let d1 = DurableArchive::open(&path, fresh_inner()).unwrap();
        let err = DurableArchive::open(&path, fresh_inner())
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
        drop(d1); // the lock dies with the handle…
        let d2 = DurableArchive::open(&path, fresh_inner()).unwrap();
        assert_eq!(d2.latest(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_populated_inner() {
        let path = scratch_path("durable-populated");
        let mut inner = Archive::new(spec());
        inner
            .add_version(&parse("<db><rec><id>1</id></rec></db>").unwrap())
            .unwrap();
        let err = DurableArchive::open(&path, Box::new(inner)).unwrap_err();
        assert!(err.to_string().contains("fresh inner store"));
        let _ = std::fs::remove_file(&path);
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
            let mut d = DurableArchive::open(&path, fresh_inner()).unwrap();
            let before = d.journal_bytes();
            let (blocks, syncs) = (d.journal_blocks(), d.journal_syncs());
            assert_eq!(d.add_versions(&docs).unwrap(), vec![1, 2, 3]);
            // one block, one fsync, whatever the batch size
            assert_eq!(d.journal_blocks() - blocks, 1);
            assert_eq!(d.journal_syncs() - syncs, 1);
            // the whole batch is ONE block: header + batch payload + trailer
            let raw = crate::payload::docs_to_batch_bytes(&docs).unwrap();
            assert_eq!(
                d.journal_bytes() - before,
                (BLOCK_HEADER_LEN + raw.len() + crate::block::BLOCK_TRAILER_LEN) as u64
            );
            // empty batches write nothing and burn no version
            let mark = d.journal_bytes();
            assert_eq!(d.add_versions(&[]).unwrap(), Vec::<u32>::new());
            assert_eq!(d.journal_bytes(), mark);
            assert_eq!(d.latest(), 3);
        }
        let d = DurableArchive::open(&path, fresh_inner()).unwrap();
        assert_eq!(d.latest(), 3);
        assert_eq!(d.recovery().versions_recovered, 3);
        for (i, doc) in docs.iter().enumerate() {
            let got = d.retrieve(i as u32 + 1).unwrap().unwrap();
            assert!(xarch_core::equiv_modulo_key_order(&got, doc, d.spec()));
        }
        // appending continues cleanly after a replayed batch
        let mut d = d;
        assert_eq!(d.add_version(&docs[0]).unwrap(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejected_batch_leaves_durable_store_unchanged() {
        let path = scratch_path("durable-batch-reject");
        let mut d = DurableArchive::open(&path, fresh_inner()).unwrap();
        d.add_version(&parse("<db><rec><id>1</id><val>a</val></rec></db>").unwrap())
            .unwrap();
        let journal = d.journal_bytes();
        let batch = vec![
            parse("<db><rec><id>2</id><val>b</val></rec></db>").unwrap(),
            parse("<nope><x>1</x></nope>").unwrap(),
        ];
        assert!(d.add_versions(&batch).is_err());
        assert_eq!(d.latest(), 1, "rejected batch burned a version");
        assert_eq!(d.journal_bytes(), journal, "rejected batch reached disk");
        assert!(!d.is_poisoned(), "validation failures must not poison");
        assert_eq!(d.add_version(&batch[0]).unwrap(), 2);
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
            let mut d = DurableArchive::open_with(&path, opts, fresh_inner()).unwrap();
            for n in 1..=5 {
                d.add_version(&doc_n(n)).unwrap();
            }
            // cadence 2 over 5 versions: checkpoints after v2 and v4
            assert_eq!(d.checkpoints_written(), 2);
            assert!(d.last_checkpoint_offset().is_some());
        }
        let d = DurableArchive::open_with(&path, opts, fresh_inner()).unwrap();
        let rec = d.recovery();
        assert!(rec.checkpoint_loaded, "newest checkpoint must be restored");
        assert_eq!(rec.versions_recovered, 5);
        // only v5 sits behind the checkpoint covering v4
        assert_eq!(rec.tail_blocks_replayed, 1);
        for n in 1..=5 {
            let got = d.retrieve(n).unwrap().unwrap();
            assert!(xarch_core::equiv_modulo_key_order(
                &got,
                &doc_n(n),
                d.spec()
            ));
        }
        // the cadence counter resumed: v6 completes a new 2-version stride
        let mut d = d;
        d.add_version(&doc_n(6)).unwrap();
        assert_eq!(d.checkpoints_written(), 1, "one new checkpoint after v6");
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
                    let mut d = DurableArchive::open_with(&path, opts, fresh_inner()).unwrap();
                    for v in 1..=n {
                        d.add_version(&doc_n(v)).unwrap();
                    }
                }
                let d = DurableArchive::open_with(&path, opts, fresh_inner()).unwrap();
                let rec = d.recovery();
                assert!(rec.checkpoint_loaded, "n={n}: no checkpoint restored");
                assert_eq!(rec.versions_recovered, n);
                assert_eq!(d.latest(), n);
                std::fs::remove_file(&path).unwrap();
                rec.tail_blocks_replayed
            })
            .collect();
        assert_eq!(tails[0], tails[1], "tail grew with the history");
        assert!(tails[1] < 4, "tail {} not below the cadence", tails[1]);
    }

    #[test]
    fn checkpoint_blocks_are_transparent_to_a_full_replay() {
        // reopening with checkpointing disabled must still work on a
        // segment that holds checkpoint blocks (full replay steps over
        // them), and the reopened state must match a checkpointed reopen
        let path = scratch_path("durable-cp-fullreplay");
        let opts = DurableOptions {
            checkpoint_every: Some(1),
            ..DurableOptions::default()
        };
        {
            let mut d = DurableArchive::open_with(&path, opts, fresh_inner()).unwrap();
            for n in 1..=3 {
                d.add_version(&doc_n(n)).unwrap();
            }
        }
        // an inner store that refuses snapshots forces the full-replay path
        struct NoSnapshot(Archive);
        impl xarch_core::Layer for NoSnapshot {
            type Inner = Archive;
            fn inner(&self) -> &Archive {
                &self.0
            }
        }
        impl VersionStore for NoSnapshot {
            fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError> {
                VersionStore::add_version(&mut self.0, doc)
            }
            fn add_empty_version(&mut self) -> Result<u32, StoreError> {
                VersionStore::add_empty_version(&mut self.0)
            }
        }
        let d = DurableArchive::open_with(&path, opts, Box::new(NoSnapshot(Archive::new(spec()))))
            .unwrap();
        assert!(!d.recovery().checkpoint_loaded);
        assert_eq!(d.recovery().versions_recovered, 3);
        assert_eq!(d.recovery().tail_blocks_replayed, 3);
        for n in 1..=3 {
            let got = d.retrieve(n).unwrap().unwrap();
            assert!(xarch_core::equiv_modulo_key_order(
                &got,
                &doc_n(n),
                d.spec()
            ));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_restore_checkpoint_is_refused() {
        let path = scratch_path("durable-no-direct-restore");
        let mut d = DurableArchive::open(&path, fresh_inner()).unwrap();
        let err = d.restore_checkpoint(&[]).unwrap_err();
        assert!(err.to_string().contains("reopen"), "{err}");
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
            let mut d = DurableArchive::open_with(&path, opts, fresh_inner()).unwrap();
            d.add_version(&doc).unwrap();
            // the repetitive payload must actually have been compressed
            assert!(d.journal_bytes() < raw_len);
        }
        let d = DurableArchive::open_with(&path, opts, fresh_inner()).unwrap();
        let got = d.retrieve(1).unwrap().unwrap();
        assert!(xarch_core::equiv_modulo_key_order(&got, &doc, d.spec()));
        std::fs::remove_file(&path).unwrap();
    }
}
