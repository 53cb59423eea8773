//! [`Journal`]: the archive's crash-safe segment file.
//!
//! The archive stays in memory; the segment file journals every committed
//! version. A commit runs the merge first (so a rejected document leaves
//! both archive and journal untouched), then appends one checksummed
//! block and syncs before acknowledging — after which the version
//! survives a `kill -9`. On open, the newest checkpoint is restored and
//! the journaled documents behind it are replayed through the same
//! deterministic merge, rebuilding exactly the pre-crash archive.
//!
//! Open locks the file before it reads a byte of it, maps it once, and
//! lists its blocks with the block walk the cold reader uses — one
//! positioned read of the file per header, so listing maps no page —
//! holding their version sequence to the cold reader's rule. While the
//! newest checkpoint that restores is verified and decoded, a reader
//! thread verifies and decodes the tail behind it from the map; the merges
//! stay on the opening thread, in journal order, and release each block's
//! pages once applied. The map is dropped before the file is cut back to
//! its committed prefix or appended to.
//!
//! The journal is the segment file's only writer: it holds the file and its
//! exclusive OS lock, and every block it writes — version, batch, empty or
//! checkpoint — goes through one append.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;

use xarch_compress::BlockCodec;
use xarch_core::state::{decode_archive, encode_archive};
use xarch_core::{Archive, Compaction, StoreError};
use xarch_keys::KeySpec;
use xarch_obs::{Level, Obs};
use xarch_xml::Document;

use crate::block::{
    self, decode_payload, encode_block, BlockKind, Scan, Step, BLOCK_HEADER_LEN, MAX_PAYLOAD,
};
use crate::checkpoint::{decode_checkpoint, encode_checkpoint};
use crate::metrics::StorageMetrics;
use crate::mmap::MappedFile;
use crate::payload::{
    batch_bytes_to_docs, bytes_to_doc, doc_to_bytes, docs_to_batch_bytes, positioned,
};
use crate::superblock;

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

/// What [`Journal::open`] found and did while rebuilding state from a
/// segment file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Total committed versions re-established by the open: versions
    /// restored from a checkpoint snapshot (when one was loaded) plus
    /// versions replayed block-by-block from the journal.
    pub versions_recovered: u32,
    /// Bytes of data verified during the open: the superblock plus every
    /// scanned block, each counted once — the restored checkpoint, any
    /// newer one passed over, and the tail. A checkpointed open skips the
    /// journal prefix the snapshot covers, so this is smaller than the file
    /// when [`RecoveryStats::checkpoint_loaded`] is set.
    pub bytes_scanned: u64,
    /// Bytes of uncommitted torn tail dropped by truncation (0 on a clean
    /// shutdown).
    pub truncated_bytes: u64,
    /// True when the open restored a checkpoint snapshot instead of
    /// replaying the whole journal — reopen cost was then proportional to
    /// the tail, not the history.
    pub checkpoint_loaded: bool,
    /// Journal blocks replayed through the merge path by this open (the
    /// tail after the checkpoint, or every block when none was loaded).
    /// Checkpoint blocks themselves are not replay work and are excluded.
    pub tail_blocks_replayed: u32,
}

impl RecoveryStats {
    /// True when the file ended in a torn write that open() cleaned up.
    pub fn recovered_torn_tail(&self) -> bool {
        self.truncated_bytes > 0
    }
}

/// The crash-safe journal of one in-memory [`Archive`]: every commit
/// merges into the archive and appends the version to the segment file.
/// The commit methods take the archive [`Journal::open`] returned; reads
/// never touch the journal.
pub struct Journal {
    /// The segment file, under this journal's exclusive lock and
    /// positioned at its end.
    file: File,
    path: PathBuf,
    /// Current length of the segment file in bytes.
    len: u64,
    /// The version the next data block must carry.
    next_version: u32,
    options: DurableOptions,
    /// Canonical `segment.*` / `checkpoint.*` / `recovery.*` metric
    /// handles — detached (per-journal) by default, registry-backed when
    /// the journal was opened observed.
    metrics: StorageMetrics,
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
            .field("path", &self.path)
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
    /// Recovery restores the newest checkpoint the block walk finds that
    /// verifies and decodes, skipping damaged ones, and replays the
    /// journal tail behind it. A checkpoint taken under another
    /// configuration (compaction mode) is a mismatch: the whole journal is
    /// replayed instead, which rebuilds correctly under the new
    /// configuration.
    pub fn open(
        path: impl AsRef<Path>,
        options: DurableOptions,
        spec: KeySpec,
        compaction: Compaction,
        obs: Option<&Obs>,
    ) -> Result<(Self, Archive), StoreError> {
        let path: PathBuf = path.as_ref().to_owned();
        let metrics = obs.map_or_else(StorageMetrics::detached, StorageMetrics::registered);
        let fresh = superblock::encode(&spec)?;
        let mut file = lock(&path)?;
        let map = MappedFile::map(&file)?;
        // An empty file, or one shorter than its superblock *and*
        // byte-identical to a prefix of it — a create() torn by a crash:
        // the superblock never completed, so no version can have been
        // committed and recreating is safe. Anything else short is
        // corruption, which the superblock decode below refuses loudly.
        let r = if map.len() < fresh.len() && fresh.starts_with(map.as_slice()) {
            let truncated_bytes = map.len() as u64;
            drop(map);
            create(&mut file, &fresh, options.sync)?;
            metrics.event(
                Level::Info,
                "segment.create",
                &[("path", path.display().to_string())],
            );
            Recovered {
                archive: Archive::with_compaction(spec, compaction),
                stats: RecoveryStats {
                    truncated_bytes,
                    ..RecoveryStats::default()
                },
                kept: fresh.len() as u64,
                last_checkpoint: (0, 0),
            }
        } else {
            let (stored_spec, first_block) = superblock::decode(map.as_slice())?;
            if stored_spec != spec {
                return Err(StoreError::Backend(format!(
                    "key spec mismatch: segment {} was created under a different key \
                     specification (stored {} keys, requested {})",
                    path.display(),
                    stored_spec.len(),
                    spec.len(),
                )));
            }
            let r = recover(&file, &map, first_block, spec, compaction, &metrics)?;
            drop(map);
            resume(&mut file, r.kept, options.sync)?;
            if r.stats.recovered_torn_tail() {
                metrics.torn_tail_truncations.inc();
                metrics.event(
                    Level::Warn,
                    "recovery.torn_tail",
                    &[
                        ("offset", r.kept.to_string()),
                        ("dropped_bytes", r.stats.truncated_bytes.to_string()),
                    ],
                );
            }
            metrics.event(
                Level::Info,
                "segment.open",
                &[
                    ("versions", r.stats.versions_recovered.to_string()),
                    ("bytes", r.kept.to_string()),
                    ("truncated_bytes", r.stats.truncated_bytes.to_string()),
                    ("checkpoint_loaded", r.stats.checkpoint_loaded.to_string()),
                ],
            );
            r
        };
        metrics.journal_len.set_u64(r.kept);
        let (last_checkpoint, last_checkpoint_covered) = r.last_checkpoint;
        let journal = Self {
            file,
            path,
            len: r.kept,
            next_version: r.stats.versions_recovered.saturating_add(1),
            options,
            metrics,
            recovery: r.stats,
            last_checkpoint,
            last_checkpoint_covered,
            poisoned: None,
        };
        Ok((journal, r.archive))
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
        self.metrics.checkpoints_written.get()
    }

    /// The segment file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current size of the segment file in bytes.
    pub fn journal_bytes(&self) -> u64 {
        self.len
    }

    /// Journal blocks appended by this journal — one per `add_version` /
    /// `add_empty_version`, one per whole `add_versions` batch (through
    /// this *registry* when it was opened observed against a shared one).
    pub fn journal_blocks(&self) -> u64 {
        self.metrics.blocks_written.get()
    }

    /// fsyncs issued by this journal — group commit's measurable effect is
    /// exactly one per batch instead of one per version.
    pub fn journal_syncs(&self) -> u64 {
        self.metrics.fsyncs.get()
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
        self.metrics
            .event(Level::Error, "durable.poisoned", &[("why", why.clone())]);
        self.poisoned = Some(why);
    }

    fn check_writable(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            None => Ok(()),
            Some(why) => Err(StoreError::Backend(format!(
                "durable store refused the commit: a previous journal append failed ({why}); \
                 reopen the archive from {} to resynchronize",
                self.path.display()
            ))),
        }
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
        self.commit(archive, BlockKind::Version, v, &raw)?;
        Ok(v)
    }

    /// Archives an empty version in `archive` and journals it.
    pub fn add_empty_version(&mut self, archive: &mut Archive) -> Result<u32, StoreError> {
        self.check_writable()?;
        let v = archive.add_empty_version();
        self.commit(archive, BlockKind::Empty, v, &[])?;
        Ok(v)
    }

    /// Group commit: the whole batch is merged by the archive, one
    /// document after another, and journaled as ONE length-prefixed
    /// multi-version block — one append, one commit word, **one fsync** —
    /// so either the entire batch survives a crash or none of it does. An
    /// empty batch writes nothing.
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
                // the archive rolls a rejected batch back whole
                debug_assert_eq!(archive.latest(), before);
                return Err(e.into());
            }
        };
        debug_assert_eq!(assigned.first().copied(), Some(before + 1));
        debug_assert_eq!(assigned.len(), docs.len());
        self.commit(archive, BlockKind::Batch, before + 1, &raw)?;
        Ok(assigned)
    }

    /// The tail every commit shares: journals the versions from `first` on
    /// that `archive` has just merged, whose payload is `raw`, as one block
    /// of `kind` — poisoning the journal if that fails, as memory is then
    /// ahead of disk — and takes a checkpoint if one is due.
    fn commit(
        &mut self,
        archive: &Archive,
        kind: BlockKind,
        first: u32,
        raw: &[u8],
    ) -> Result<(), StoreError> {
        let count = archive.latest() + 1 - first;
        if let Err(e) = self.append(kind, first, count, raw) {
            self.poison(e.to_string());
            return Err(e);
        }
        self.maybe_checkpoint(archive);
        Ok(())
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
            self.metrics.event(
                Level::Warn,
                "durable.checkpoint_skipped",
                &[(
                    "why",
                    format!("{}-byte snapshot exceeds block limit", raw.len()),
                )],
            );
            return;
        }
        match self.append(BlockKind::Checkpoint, covered, 0, &raw) {
            Ok(offset) => {
                self.last_checkpoint = offset;
                self.last_checkpoint_covered = covered;
            }
            Err(e) => self.poison(format!("checkpoint append failed: {e}")),
        }
    }

    /// Appends the payload `raw` as one block, encoded under the configured
    /// codec — one write, then a sync when `sync` is set — and returns the
    /// file offset of its header. A data block carries the first version it
    /// commits and commits `count`; a checkpoint carries the versions its
    /// snapshot covers and commits none, so it alone leaves the version
    /// counter where it is. A block that does not continue the journal's
    /// sequence is refused before a byte is written: the archive a commit
    /// merged into need not be the one this journal recovered.
    fn append(
        &mut self,
        kind: BlockKind,
        version: u32,
        count: u32,
        raw: &[u8],
    ) -> Result<u64, StoreError> {
        let expected = match kind {
            BlockKind::Checkpoint => self.next_version.saturating_sub(1),
            _ => self.next_version,
        };
        if version != expected {
            return Err(StoreError::Backend(format!(
                "out-of-order append: segment expects version {expected}, got {version}"
            )));
        }
        let (codec, payload) = self.options.compression.encode(raw);
        // the bound readers rely on: a complete header never declares an
        // implausible length, so one on disk is provably bit rot. Every
        // caller refuses or skips a raw payload over it, and a codec never
        // stores more than the raw bytes.
        debug_assert!(payload.len() <= raw.len() && payload.len() as u64 <= MAX_PAYLOAD);
        let offset = self.len;
        let block = encode_block(kind, codec, version, raw.len() as u64, &payload);
        self.file.write_all(&block)?;
        if self.options.sync {
            self.file.sync_data()?;
            self.metrics.fsyncs.inc();
        }
        let bytes = block.len() as u64;
        self.len += bytes;
        self.next_version += count;
        self.metrics.journal_len.set_u64(self.len);
        if kind == BlockKind::Checkpoint {
            self.metrics.checkpoints_written.inc();
            self.metrics.checkpoint_bytes.add(bytes);
            self.metrics.event(
                Level::Info,
                "segment.checkpoint",
                &[
                    ("covered", version.to_string()),
                    ("bytes", bytes.to_string()),
                    ("offset", offset.to_string()),
                ],
            );
        } else {
            self.metrics.blocks_written.inc();
            self.metrics.bytes_written.add(bytes);
        }
        Ok(offset)
    }
}

/// Opens the segment file at `path`, creating it when absent, and takes the
/// OS advisory lock that makes the journal single-writer — before a byte of
/// it is read. Two handles appending to one journal would overwrite each
/// other's acknowledged commits. The lock dies with the file handle (and
/// with the process, so a crash never leaves a stale lock behind).
// not .truncate(true): the file is recovered, or recreated by `create`
#[allow(clippy::suspicious_open_options)]
fn lock(path: &Path) -> Result<File, StoreError> {
    use std::fs::TryLockError;
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .open(path)?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(TryLockError::WouldBlock) => Err(StoreError::Backend(format!(
            "segment {} is already open in another archive handle \
             (concurrent writers would corrupt the journal)",
            path.display()
        ))),
        Err(TryLockError::Error(e)) => Err(StoreError::Io(e)),
    }
}

/// Starts the locked `file` afresh: whatever it held is dropped and
/// `superblock` ([`superblock::encode`]) written in its place.
fn create(file: &mut File, superblock: &[u8], sync: bool) -> Result<(), StoreError> {
    file.set_len(0)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(superblock)?;
    if sync {
        file.sync_data()?;
    }
    Ok(())
}

/// Positions the locked `file` for appending after the `len` bytes recovery
/// kept, cutting off whatever follows them (a torn tail).
fn resume(file: &mut File, len: u64, sync: bool) -> Result<(), StoreError> {
    if file.metadata()?.len() > len {
        file.set_len(len)?;
        if sync {
            file.sync_data()?;
        }
    }
    file.seek(SeekFrom::Start(len))?;
    Ok(())
}

/// What recovery made of a segment's bytes.
struct Recovered {
    archive: Archive,
    stats: RecoveryStats,
    /// Length of the committed prefix; the file is cut back to it.
    kept: u64,
    /// The newest checkpoint seen — restored or replayed over — as (file
    /// offset, versions covered), so the next checkpoint back-chains to it
    /// and the cadence counter continues instead of restarting.
    last_checkpoint: (u64, u32),
}

/// Blocks the read-ahead verifies and decodes ahead of the merge: the depth
/// of its channel. Each one holds its decoded documents until the merge
/// takes it, so it stays a small constant.
const READ_AHEAD: usize = 2;

/// One walked block, verified and decoded ([`prepare`]), waiting to be
/// applied in journal order.
enum Prepared {
    /// A verified checkpoint block and the versions its header says it
    /// covers.
    Checkpoint(u32),
    /// A verified data block: the version its header commits (a batch's
    /// first) and its decoded versions, or why they do not decode.
    Data(u32, Result<Commit, StoreError>),
    /// Committed-looking bytes that fail verification.
    Corrupt(StoreError),
    /// The file ends in an uncommitted append here.
    Torn,
}

/// The decoded versions of one data block, merged through the call that
/// committed them.
enum Commit {
    Empty,
    Version(Document),
    Batch(Vec<Document>),
}

/// Rebuilds the archive from the segment `file`, mapped as `map`, whose
/// superblock verified and whose blocks begin at `first_block`, under the
/// format's recovery rules (`docs/FORMAT.md` §Recovery).
///
/// The header walk lists the checkpoints, reading each header from the
/// file ([`block::walk_file`]), so it brings no page of the map in; a read
/// that fails fails the open. A reader thread then verifies and
/// decodes the blocks behind the newest of them ([`prepare`]), up to
/// [`READ_AHEAD`] blocks ahead, while this thread restores the newest
/// checkpoint that decodes. This thread then applies every block behind the
/// restored state in journal order — the blocks between an older restored
/// checkpoint and the newest prepared in line, then the reader's — so the
/// merges, and the archive they build, are those of a serial replay. Pages
/// are released behind the merge, so a full replay holds about one block of
/// the file at a time. Every return, early or not, joins the reader: the
/// receiver is dropped first, so a reader blocked on a full channel sees it
/// gone and stops.
fn recover(
    file: &File,
    map: &MappedFile,
    first_block: u64,
    spec: KeySpec,
    compaction: Compaction,
    metrics: &StorageMetrics,
) -> Result<Recovered, StoreError> {
    // records the wall time of every recovery, clean or failed
    let _timer = metrics.replay_duration.start_timer();
    let bytes = map.as_slice();
    let mut walk = block::walk_file(file, bytes, first_block);
    let mut listed: Vec<Step> = walk.by_ref().collect::<Result<_, _>>()?;
    // a header that breaks the version sequence is refused here, behind a
    // checkpoint too; a torn final block is the replay's to cut
    if let Err(e) = block::check_sequence(bytes, &listed) {
        return Err(match e {
            StoreError::Corrupt { offset, .. } => refused(metrics, offset, e),
            e => e,
        });
    }
    listed.retain(|s| s.kind == BlockKind::Checkpoint);
    let checkpoints = listed;
    let ahead_from = checkpoints.last().map_or(first_block, |cp| cp.end);
    std::thread::scope(|scope| {
        let (ahead, prepared) = mpsc::sync_channel(READ_AHEAD);
        scope.spawn(move || {
            for step in block::walk(bytes, ahead_from) {
                if ahead.send((step, prepare(bytes, step.offset))).is_err() {
                    return;
                }
            }
        });
        let restored = restore(map, &checkpoints, &spec, compaction, metrics);
        let mut stats = RecoveryStats {
            checkpoint_loaded: restored.is_some(),
            ..RecoveryStats::default()
        };
        // the archive to merge into, where the blocks it verified begin,
        // where those it has not yet applied begin, and the newest checkpoint
        let (mut archive, scanned_from, from, mut last_checkpoint) = match restored {
            Some((archive, cp)) => {
                metrics.checkpoints_loaded.inc();
                metrics.event(
                    Level::Info,
                    "recovery.checkpoint_loaded",
                    &[
                        ("offset", cp.offset.to_string()),
                        ("covered", cp.version.to_string()),
                    ],
                );
                (archive, cp.offset, cp.end, (cp.offset, cp.version))
            }
            None => (
                Archive::with_compaction(spec, compaction),
                first_block,
                first_block,
                (0, 0),
            ),
        };
        let restored_versions = last_checkpoint.1;
        let mut versions = restored_versions;
        // the blocks between the restored state and the read-ahead's start
        let in_line = block::walk(bytes, from)
            .take_while(|s| s.offset < ahead_from)
            .map(|s| (s, prepare(bytes, s.offset)));
        let mut torn = None;
        for (step, block) in in_line.chain(prepared) {
            let offset = step.offset;
            match block {
                // checkpoints commit nothing: the header records how many
                // versions the snapshot covers, which must agree with the
                // journal so far
                Prepared::Checkpoint(covers) => {
                    if covers != versions {
                        let reason = format!(
                            "checkpoint claims to cover version {covers}, journal holds {versions}"
                        );
                        return Err(refused(metrics, offset, corrupt(offset, reason)));
                    }
                    last_checkpoint = (offset, versions);
                }
                Prepared::Data(version, commit) => {
                    let expected = versions.saturating_add(1);
                    if version != expected {
                        let reason = format!(
                            "block sequence broken: expected version {expected}, found {version}"
                        );
                        return Err(refused(metrics, offset, corrupt(offset, reason)));
                    }
                    let merged = merge(&mut archive, commit?, offset)?;
                    if merged != version {
                        let reason = format!(
                            "replay desynchronized: block commits version {version}, \
                             store assigned {merged}"
                        );
                        return Err(corrupt(offset, reason));
                    }
                    versions = archive.latest();
                    stats.tail_blocks_replayed = stats.tail_blocks_replayed.saturating_add(1);
                }
                // a rotted checkpoint is loud but never fatal: every bit of
                // its state is rederivable from the journal, so record it and
                // step over its span — whole, by the commit word at its
                // declared end — to the blocks behind it
                Prepared::Corrupt(e)
                    if step.kind == BlockKind::Checkpoint
                        && block::ends_committed(bytes, &step) =>
                {
                    metrics.corrupt_blocks.inc();
                    metrics.checkpoints_skipped.inc();
                    metrics.event(
                        Level::Warn,
                        "recovery.checkpoint_skipped",
                        &[("offset", offset.to_string()), ("reason", e.to_string())],
                    );
                }
                Prepared::Corrupt(e) => return Err(refused(metrics, offset, e)),
                Prepared::Torn => {
                    torn = Some(offset);
                    break;
                }
            }
            map.release(offset..step.end);
        }
        // both walks stop where the bytes can no longer be stepped over
        let torn = match torn {
            Some(at) => Some(at),
            None => walk
                .torn_from()
                .map_err(|e| refused(metrics, walk.offset(), e))?,
        };
        let kept = torn.unwrap_or(bytes.len() as u64);
        stats.versions_recovered = versions;
        stats.truncated_bytes = (bytes.len() as u64).saturating_sub(kept);
        // the superblock, then every block from the restored checkpoint on,
        // each once: newer checkpoints passed over lie in that span, or past
        // the committed prefix when the newest is torn
        stats.bytes_scanned = first_block + kept.max(ahead_from).saturating_sub(scanned_from);
        metrics
            .versions_replayed
            .add(u64::from(versions.saturating_sub(restored_versions)));
        Ok(Recovered {
            archive,
            stats,
            kept,
            last_checkpoint,
        })
    })
}

fn corrupt(offset: u64, reason: String) -> StoreError {
    StoreError::Corrupt { offset, reason }
}

/// Counts and reports the block at `offset` that recovery refuses with
/// `e`, and hands `e` on.
fn refused(metrics: &StorageMetrics, offset: u64, e: StoreError) -> StoreError {
    metrics.corrupt_blocks.inc();
    metrics.event(
        Level::Error,
        "recovery.corrupt_block",
        &[("offset", offset.to_string()), ("reason", e.to_string())],
    );
    e
}

/// Restores the newest of `checkpoints` (in file order) that verifies and
/// decodes, with the block it came from. A checkpoint is pure redundancy
/// over the journal: one that is torn, damaged or does not decode is passed
/// over for an older one; one taken under another configuration ends the
/// search, as every older one would mismatch the same way — the whole
/// journal is replayed instead.
fn restore(
    map: &MappedFile,
    checkpoints: &[Step],
    spec: &KeySpec,
    compaction: Compaction,
    metrics: &StorageMetrics,
) -> Option<(Archive, Step)> {
    let bytes = map.as_slice();
    for cp in checkpoints.iter().rev() {
        let raw = match block::scan_block(bytes, cp.offset) {
            Scan::Block(b) => decode_payload(b).ok(),
            _ => None,
        };
        let payload_at = cp.offset + BLOCK_HEADER_LEN as u64;
        let decoded = raw
            .as_deref()
            .and_then(|raw| decode_checkpoint(raw, payload_at).ok())
            .filter(|p| p.covered == cp.version)
            .map(|payload| decode_archive(payload.state, spec, compaction));
        // a raw payload is read in place: release it once decoded
        map.release(cp.offset..cp.end);
        match decoded {
            None => {}
            Some(Ok(Some(archive))) => return Some((archive, *cp)),
            Some(Ok(None)) => return None,
            // state bytes the block's checksum vouches for and the decoder
            // refuses (a tree nested too deep, say): loudly, on to an
            // older snapshot
            Some(Err(e)) => {
                metrics.checkpoints_skipped.inc();
                metrics.event(
                    Level::Warn,
                    "recovery.checkpoint_skipped",
                    &[("offset", cp.offset.to_string()), ("reason", e.to_string())],
                );
            }
        }
    }
    None
}

/// Verifies the block at `offset` of the file `bytes` and decodes what a
/// data block commits. Runs on either thread: it reads `bytes` only.
fn prepare(bytes: &[u8], offset: u64) -> Prepared {
    let b = match block::scan_block(bytes, offset) {
        Scan::Block(b) => b,
        Scan::Corrupt(e) => return Prepared::Corrupt(e),
        Scan::TornTail => return Prepared::Torn,
    };
    let version = b.header.version;
    let commit = match b.header.kind {
        BlockKind::Checkpoint => return Prepared::Checkpoint(version),
        BlockKind::Empty => Ok(Commit::Empty),
        BlockKind::Version => decode_payload(b).and_then(|raw| {
            let doc = bytes_to_doc(&raw).map_err(|e| positioned(offset, e))?;
            Ok(Commit::Version(doc))
        }),
        BlockKind::Batch => decode_payload(b).and_then(|raw| {
            let docs = batch_bytes_to_docs(&raw).map_err(|e| positioned(offset, e))?;
            Ok(Commit::Batch(docs))
        }),
    };
    Prepared::Data(version, commit)
}

/// Merges the versions of the data block at `offset` into `archive` through
/// the call that committed them — a batch through `Archive::add_versions`,
/// so a reopen restores exactly the group-committed state — and returns the
/// (first) version the archive assigned.
fn merge(archive: &mut Archive, commit: Commit, offset: u64) -> Result<u32, StoreError> {
    Ok(match commit {
        Commit::Empty => archive.add_empty_version(),
        Commit::Version(doc) => archive.add_version(&doc)?,
        Commit::Batch(docs) => {
            let assigned = archive.add_versions(&docs)?;
            let first = assigned.first().copied();
            first.ok_or_else(|| corrupt(offset, "batch block with zero versions".into()))?
        }
    })
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
        let restored_at = j.last_checkpoint_offset();
        j.add_version(&mut a, &doc_n(6)).unwrap();
        assert_eq!(j.checkpoints_written(), 1, "one new checkpoint after v6");
        // and the new checkpoint back-chains to the restored one
        let bytes = std::fs::read(&path).unwrap();
        let first_block = superblock::encode(&spec()).unwrap().len() as u64;
        let checkpoints: Vec<Step> = block::walk(&bytes, first_block)
            .filter(|s| s.kind == BlockKind::Checkpoint)
            .collect();
        let [.., restored, newest] = checkpoints.as_slice() else {
            panic!("{} checkpoints", checkpoints.len());
        };
        assert_eq!(restored_at, Some(restored.offset));
        let Scan::Block(b) = block::scan_block(&bytes, newest.offset) else {
            panic!("the new checkpoint does not verify");
        };
        let raw = decode_payload(b).unwrap();
        assert_eq!(decode_checkpoint(&raw, 0).unwrap().prev, restored.offset);
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

    /// Checkpoint cadence of the segments the read-ahead tests build.
    const CADENCE: u32 = 3;

    fn every(n: u32) -> DurableOptions {
        DurableOptions {
            checkpoint_every: Some(n),
            ..DurableOptions::default()
        }
    }

    /// The blocks of the segment at `path` after its superblock, as the
    /// header walk finds them, with the superblock's length.
    fn blocks_of(path: &Path) -> (u64, Vec<Step>) {
        let bytes = std::fs::read(path).unwrap();
        let first_block = superblock::encode(&spec()).unwrap().len() as u64;
        (first_block, block::walk(&bytes, first_block).collect())
    }

    /// Writes versions `1..=checkpointed` of `doc_n` at cadence [`CADENCE`],
    /// then `tail` more without checkpoints: a segment whose newest
    /// checkpoint covers `checkpointed` and whose tail is `tail` blocks.
    fn segment_with_tail(path: &Path, checkpointed: u32, tail: u32) {
        {
            let (mut j, mut a) = open_with(path, every(CADENCE)).unwrap();
            for n in 1..=checkpointed {
                j.add_version(&mut a, &doc_n(n)).unwrap();
            }
        }
        let (mut j, mut a) = open(path).unwrap();
        for n in checkpointed + 1..=checkpointed + tail {
            j.add_version(&mut a, &doc_n(n)).unwrap();
        }
    }

    /// The archive of versions `1..=n` of `doc_n`, merged in memory by a
    /// store that never crashed.
    fn never_crashed(n: u32) -> Archive {
        let mut a = Archive::with_compaction(spec(), Compaction::default());
        for v in 1..=n {
            a.add_version(&doc_n(v)).unwrap();
        }
        a
    }

    fn flip_payload_byte(path: &Path, step: &Step) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[step.offset as usize + BLOCK_HEADER_LEN + 1] ^= 0x20;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn bytes_scanned_counts_every_block_the_open_verified() {
        // the superblock, the restored checkpoint and the tail behind it,
        // longer than the read-ahead holds
        let path = scratch_path("durable-scanned");
        let tail = 1 + 2 * READ_AHEAD as u32;
        segment_with_tail(&path, 2 * CADENCE, tail);
        let (first_block, steps) = blocks_of(&path);
        let newest = steps
            .iter()
            .rposition(|s| s.kind == BlockKind::Checkpoint)
            .unwrap();
        let spans = |from: usize| steps[from..].iter().map(|s| s.end - s.offset).sum::<u64>();
        let (j, _) = open(&path).unwrap();
        let rec = j.recovery();
        assert!(rec.checkpoint_loaded);
        assert_eq!(rec.tail_blocks_replayed, tail);
        assert_eq!(rec.bytes_scanned, first_block + spans(newest));
        drop(j);

        // the newest checkpoint rotted: the older one restores, the versions
        // between the two replay in line ahead of the tail, and the rotted
        // one is counted once, inside the span behind the older
        flip_payload_byte(&path, &steps[newest]);
        let older = steps[..newest]
            .iter()
            .rposition(|s| s.kind == BlockKind::Checkpoint)
            .unwrap();
        let (j, a) = open(&path).unwrap();
        let rec = j.recovery();
        assert!(rec.checkpoint_loaded);
        assert_eq!(rec.tail_blocks_replayed, CADENCE + tail);
        assert_eq!(rec.versions_recovered, 2 * CADENCE + tail);
        assert_eq!(
            encode_archive(&a),
            encode_archive(&never_crashed(2 * CADENCE + tail))
        );
        assert_eq!(rec.bytes_scanned, first_block + spans(older));
        assert_eq!(
            j.last_checkpoint_offset(),
            Some(steps[older].offset),
            "a rotted checkpoint is no back-chain target"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_merge_refusal_in_the_read_ahead_tail_is_the_open_error() {
        // a CRC-valid version block whose document repeats a key path, deep
        // in a tail longer than the read-ahead holds: the open returns the
        // merge's error — and returns at all, with the reader blocked on a
        // full channel until the receiver goes
        let path = scratch_path("durable-ahead-refused");
        segment_with_tail(&path, CADENCE, 2);
        let bad = parse("<db><rec><id>1</id><id>2</id><val>x</val></rec></db>").unwrap();
        let tail = 3 + 2 * READ_AHEAD as u32;
        let mut bytes = Vec::new();
        for v in CADENCE + 3..=CADENCE + 2 + tail {
            let doc = if v == CADENCE + 4 {
                bad.clone()
            } else {
                doc_n(v)
            };
            let raw = doc_to_bytes(&doc).unwrap();
            bytes.extend(block::encode_block(
                BlockKind::Version,
                BlockCodec::Raw,
                v,
                raw.len() as u64,
                &raw,
            ));
        }
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut file, &bytes).unwrap();
        drop(file);
        let mut reference = never_crashed(CADENCE + 3);
        let want = StoreError::from(reference.add_version(&bad).unwrap_err()).to_string();
        let err = open(&path).map(|_| ()).unwrap_err();
        assert_eq!(err.to_string(), want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rot_inside_the_read_ahead_tail_is_refused_at_its_offset() {
        let path = scratch_path("durable-ahead-rot");
        let tail = 3 + 2 * READ_AHEAD as u32;
        segment_with_tail(&path, CADENCE, tail);
        let (_, steps) = blocks_of(&path);
        let rotted = steps[steps.len() - tail as usize + 2];
        assert_eq!(rotted.kind, BlockKind::Version);
        flip_payload_byte(&path, &rotted);
        match open(&path).map(|_| ()).unwrap_err() {
            StoreError::Corrupt { offset, .. } => assert_eq!(offset, rotted.offset),
            other => panic!("{other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_and_empty_blocks_replay_from_the_read_ahead() {
        let path = scratch_path("durable-ahead-kinds");
        let docs: Vec<_> = (1..=12).map(doc_n).collect();
        let mut reference = Archive::with_compaction(spec(), Compaction::default());
        {
            let (mut j, mut a) = open_with(&path, every(CADENCE)).unwrap();
            for doc in &docs[..CADENCE as usize] {
                j.add_version(&mut a, doc).unwrap();
                reference.add_version(doc).unwrap();
            }
        }
        let (mut j, mut a) = open(&path).unwrap();
        let mut tail = 0;
        for (i, chunk) in docs[CADENCE as usize..].chunks(3).enumerate() {
            j.add_versions(&mut a, chunk).unwrap();
            reference.add_versions(chunk).unwrap();
            if i % 2 == 0 {
                j.add_empty_version(&mut a).unwrap();
                reference.add_empty_version();
                tail += 1;
            }
            tail += 1;
        }
        drop(j);
        assert!(tail > 2 * READ_AHEAD as u32, "tail of {tail} blocks");
        let (j, a) = open(&path).unwrap();
        let rec = j.recovery();
        assert!(rec.checkpoint_loaded);
        assert_eq!(rec.tail_blocks_replayed, tail);
        assert_eq!(rec.versions_recovered, reference.latest());
        assert_eq!(encode_archive(&a), encode_archive(&reference));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_continue_the_sequence_and_refuse_another_archives_commit() {
        let path = scratch_path("durable-sequence");
        let (mut j, mut a) = open(&path).unwrap();
        j.add_version(&mut a, &doc_n(1)).unwrap();
        // one block commits versions 2..=4
        j.add_versions(&mut a, &[doc_n(2), doc_n(3), doc_n(4)])
            .unwrap();
        j.add_empty_version(&mut a).unwrap();
        assert_eq!(j.next_version, 6);
        assert_eq!(j.journal_blocks(), 3);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(j.journal_bytes(), len);
        let (_, steps) = blocks_of(&path);
        let headers: Vec<_> = steps.iter().map(|s| (s.kind, s.version)).collect();
        assert_eq!(
            headers,
            [
                (BlockKind::Version, 1),
                (BlockKind::Batch, 2),
                (BlockKind::Empty, 5)
            ]
        );
        // an archive this journal did not recover merges the document as
        // its version 3; the journal expects 6 and refuses the block, and
        // the merge it cannot undo poisons the journal
        let mut other = never_crashed(2);
        let err = j.add_version(&mut other, &doc_n(3)).unwrap_err();
        assert!(err.to_string().contains("out-of-order"), "{err}");
        assert_eq!(other.latest(), 3);
        assert!(j.is_poisoned());
        assert_eq!(j.journal_bytes(), len, "a refused block reached disk");
        drop(j);
        let (j, _) = open(&path).unwrap();
        assert_eq!(j.recovery().versions_recovered, 5);
        assert!(!j.recovery().recovered_torn_tail());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_append_poisons_the_journal_and_reopen_recovers_the_acknowledged() {
        let path = scratch_path("durable-poisoned");
        let obs = Obs::disconnected();
        let (mut j, mut a) = Journal::open(
            &path,
            DurableOptions::default(),
            spec(),
            Compaction::default(),
            Some(&obs),
        )
        .unwrap();
        for n in 1..=2 {
            j.add_version(&mut a, &doc_n(n)).unwrap();
        }
        let acknowledged = j.journal_bytes();
        // the same file through a read-only handle: the next write fails
        j.file = File::open(&path).unwrap();
        let err = j.add_version(&mut a, &doc_n(3)).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        assert!(j.is_poisoned());
        // the merge had run: memory is now ahead of disk
        assert_eq!(a.latest(), 3);
        assert_eq!(j.journal_bytes(), acknowledged);
        let poisoned = obs
            .tracer()
            .recent()
            .into_iter()
            .filter(|e| e.target == "durable.poisoned")
            .count();
        assert_eq!(poisoned, 1);
        let refusals = [
            j.add_version(&mut a, &doc_n(4)).map(drop),
            j.add_versions(&mut a, &[doc_n(4), doc_n(5)]).map(drop),
            j.add_empty_version(&mut a).map(drop),
        ];
        for refused in refusals {
            let err = refused.unwrap_err();
            assert!(err.to_string().contains("reopen"), "{err}");
        }
        assert_eq!(a.latest(), 3, "a refused commit moved the archive");
        drop(j);
        let (j, a) = open(&path).unwrap();
        assert_eq!(j.recovery().versions_recovered, 2);
        assert_eq!(a.latest(), 2);
        assert_eq!(encode_archive(&a), encode_archive(&never_crashed(2)));
        std::fs::remove_file(&path).unwrap();
    }
}
