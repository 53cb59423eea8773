//! The segment file: superblock + append-only block sequence, with
//! crash-safe open.
//!
//! A [`Segment`] is the durable half of the archive: every committed
//! version is one appended block (synced before the commit is
//! acknowledged), and [`Segment::open`] streams the file back through a
//! per-block callback — verifying checksums, truncating an uncommitted
//! torn tail instead of refusing to open, and holding only one block's
//! payload in memory at a time so reopening never exceeds the inner
//! backend's working set.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use xarch_compress::BlockCodec;
use xarch_core::StoreError;
use xarch_keys::KeySpec;
use xarch_obs::Level;

use crate::block::{
    self, encode_block, BlockKind, Scan, ScannedBlock, BLOCK_HEADER_LEN, BLOCK_TRAILER_LEN,
    COMMIT_MAGIC,
};
use crate::metrics::StorageMetrics;
use crate::superblock;

/// What `open()` found and did while rebuilding state from a segment file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Total committed versions re-established by the open: versions
    /// restored from a checkpoint snapshot (when one was loaded) plus
    /// versions replayed block-by-block from the journal.
    pub versions_recovered: u32,
    /// Bytes of data verified during the open: the superblock plus every
    /// scanned block. A checkpointed open skips the journal prefix the
    /// snapshot covers, so this is smaller than the file when
    /// [`RecoveryStats::checkpoint_loaded`] is set.
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

/// Where a checkpointed open resumes: the verified checkpoint block and
/// the version count its snapshot restored. Produced by the durable
/// layer after [`scan_checkpoints`] + a successful state restore;
/// [`Segment::open`] re-verifies the block under the
/// exclusive lock before trusting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeFrom {
    /// File offset of the restored checkpoint block's header.
    pub checkpoint_offset: u64,
    /// Versions the restored snapshot covers; the tail scan's sequence
    /// check continues from here.
    pub versions: u32,
}

/// A checkpoint candidate found by [`scan_checkpoints`]' header-only
/// pre-scan. Unverified: the CRC is only checked when the candidate is
/// actually read (see [`scan_block_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointRef {
    /// File offset of the block header.
    pub offset: u64,
    /// The version count the header claims the snapshot covers.
    pub covered: u32,
    /// File offset one past the block's trailer — where tail replay
    /// resumes after a successful restore.
    pub end: u64,
}

/// Header-only forward scan listing every checkpoint block candidate in
/// the segment at `path`, oldest first. Reads 22 bytes per block and
/// seeks over payloads, so the cost is proportional to the block *count*,
/// not the file size. Advisory: headers are unverified and the scan stops
/// quietly at the first structural anomaly (the authoritative
/// verification happens in [`Segment::open`]); an
/// unreadable or checkpoint-free segment yields an empty list.
pub fn scan_checkpoints(path: &Path) -> Result<Vec<CheckpointRef>, StoreError> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut out = Vec::new();
    // superblock fixed prefix → spec length → first block offset
    if len < superblock::FIXED_LEN as u64 {
        return Ok(out);
    }
    let mut fixed = [0u8; superblock::FIXED_LEN];
    file.read_exact(&mut fixed)?;
    let Some(spec_len) = superblock::declared_spec_len(&fixed) else {
        return Ok(out);
    };
    if spec_len > superblock::MAX_SPEC_LEN {
        return Ok(out);
    }
    let mut offset = (superblock::FIXED_LEN as u64)
        .saturating_add(spec_len)
        .saturating_add(4);
    let min_block = (BLOCK_HEADER_LEN + BLOCK_TRAILER_LEN) as u64;
    let mut header = [0u8; BLOCK_HEADER_LEN];
    file.seek(SeekFrom::Start(offset))?;
    while offset.saturating_add(min_block) <= len {
        file.read_exact(&mut header)?;
        let Some(stored_len) = block::declared_payload_len(&header) else {
            break;
        };
        if stored_len > block::MAX_PAYLOAD {
            break;
        }
        let end = offset.saturating_add(min_block).saturating_add(stored_len);
        if end > len {
            break;
        }
        if header.first() == Some(&BlockKind::Checkpoint.kind_byte()) {
            let Some(covered) = crate::bytes::le_u32(&header, 2) else {
                break;
            };
            out.push(CheckpointRef {
                offset,
                covered,
                end,
            });
        }
        file.seek(SeekFrom::Start(end))?;
        offset = end;
    }
    Ok(out)
}

/// Reads and fully verifies the single block at `offset` in the segment
/// at `path`, classifying failures exactly like the sequential scan (torn
/// tail vs interior corruption). I/O failures are `Err`; content
/// classification is the returned [`Scan`].
pub fn scan_block_at(path: &Path, offset: u64) -> Result<Scan<'static>, StoreError> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let eof_commit_word = if len >= offset.saturating_add(4) && len >= 4 {
        let mut last = [0u8; 4];
        file.seek(SeekFrom::End(-4))?;
        file.read_exact(&mut last)?;
        last == COMMIT_MAGIC.to_le_bytes()
    } else {
        false
    };
    if len.saturating_sub(offset) < BLOCK_HEADER_LEN as u64 {
        return Ok(Scan::TornTail);
    }
    let mut header = [0u8; BLOCK_HEADER_LEN];
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(&mut header)?;
    let Some(declared) = block::declared_payload_len(&header) else {
        return Ok(Scan::TornTail);
    };
    if declared > block::MAX_PAYLOAD {
        return Ok(Scan::Corrupt(StoreError::Corrupt {
            offset,
            reason: format!("implausible payload length {declared} in block header"),
        }));
    }
    let needed = declared + BLOCK_TRAILER_LEN as u64;
    let available = needed.min(len.saturating_sub(offset + BLOCK_HEADER_LEN as u64));
    let Ok(take) = usize::try_from(available) else {
        return Ok(Scan::Corrupt(StoreError::Corrupt {
            offset,
            reason: "block span exceeds the address space".into(),
        }));
    };
    let mut body = vec![0u8; take];
    file.read_exact(&mut body)?;
    let end = offset + BLOCK_HEADER_LEN as u64 + needed;
    let bytes_after_end = len.saturating_sub(end);
    Ok(block::scan_block_parts(
        &header,
        body,
        offset,
        bytes_after_end,
        eof_commit_word,
    ))
}

/// An open segment file positioned for appending.
#[derive(Debug)]
pub struct Segment {
    file: File,
    path: PathBuf,
    len: u64,
    next_version: u32,
    sync: bool,
    /// Canonical `segment.*` / `recovery.*` metric handles — detached
    /// (per-handle) by default, registry-backed when the segment was
    /// opened observed. Group commit's measurable effect lives here: one
    /// block and one fsync per *batch* instead of per version.
    metrics: StorageMetrics,
}

fn backend(err: impl Into<String>) -> StoreError {
    StoreError::Backend(err.into())
}

/// Takes the OS advisory lock that makes the segment single-writer: two
/// handles appending to one journal would overwrite each other's
/// acknowledged commits. The lock dies with the file handle (and with the
/// process, so a crash never leaves a stale lock behind).
fn lock_exclusive(file: &File, path: &Path) -> Result<(), StoreError> {
    use std::fs::TryLockError;
    match file.try_lock() {
        Ok(()) => Ok(()),
        Err(TryLockError::WouldBlock) => Err(backend(format!(
            "segment {} is already open in another archive handle \
             (concurrent writers would corrupt the journal)",
            path.display()
        ))),
        Err(TryLockError::Error(e)) => Err(StoreError::Io(e)),
    }
}

impl Segment {
    /// Creates (or truncates) a segment file holding only the superblock,
    /// recording into the given metric handles.
    // not .truncate(true): truncation must happen *after* the lock (below)
    #[allow(clippy::suspicious_open_options)]
    pub fn create(
        path: &Path,
        spec: &KeySpec,
        sync: bool,
        metrics: StorageMetrics,
    ) -> Result<Segment, StoreError> {
        // take the lock before truncating, so losing a create race cannot
        // wipe a segment another handle is actively appending to
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .open(path)?;
        lock_exclusive(&file, path)?;
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        let sb = superblock::encode(spec)?;
        file.write_all(&sb)?;
        if sync {
            file.sync_data()?;
        }
        metrics.journal_len.set_u64(sb.len() as u64);
        metrics.event(
            Level::Info,
            "segment.create",
            &[("path", path.display().to_string())],
        );
        Ok(Segment {
            file,
            path: path.to_owned(),
            len: sb.len() as u64,
            next_version: 1,
            sync,
            metrics,
        })
    }

    /// Opens an existing segment file: verifies the superblock against
    /// `spec`, then scans, checksums, and hands each committed block to
    /// `on_block` in order (truncating a torn tail first). Replay happens
    /// inside the callback so only one block is ever materialized. The
    /// callback returns how many versions the block committed — 1 for
    /// plain and empty blocks, the batch size for group-commit blocks —
    /// which drives the sequence check and the next append's version.
    /// Recovery outcomes (torn-tail truncations, corrupt blocks, replay
    /// duration) land in the given metric handles, with structured
    /// recovery events.
    ///
    /// When `resume` is set, the block at its offset is re-verified under
    /// the exclusive lock (it must be a committed checkpoint covering
    /// exactly `resume.versions`), the journal prefix it covers is
    /// skipped, and only the tail after it is scanned and replayed —
    /// reopen cost becomes proportional to the tail, not the history.
    pub fn open(
        path: &Path,
        spec: &KeySpec,
        sync: bool,
        metrics: StorageMetrics,
        resume: Option<ResumeFrom>,
        mut on_block: impl FnMut(ScannedBlock<'static>) -> Result<u32, StoreError>,
    ) -> Result<(Segment, RecoveryStats), StoreError> {
        // records replay wall time on every exit, clean or failed
        let _replay = metrics.replay_duration.start_timer();
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        lock_exclusive(&file, path)?;
        let file_len = file.metadata()?.len();

        // superblock: fixed prefix first, then the spec + its checksum
        let prefix_len = usize::try_from(file_len.min(superblock::FIXED_LEN as u64))
            .unwrap_or(superblock::FIXED_LEN);
        let mut sb = vec![0u8; prefix_len];
        file.read_exact(&mut sb)?;
        if sb.len() == superblock::FIXED_LEN {
            let Some(spec_len) = superblock::declared_spec_len(&sb) else {
                return Err(StoreError::Corrupt {
                    offset: 12,
                    reason: "superblock fixed prefix truncated".into(),
                });
            };
            if spec_len > superblock::MAX_SPEC_LEN {
                return Err(StoreError::Corrupt {
                    offset: 12,
                    reason: format!("implausible key spec length {spec_len} in superblock"),
                });
            }
            let rest_len = spec_len
                .saturating_add(4)
                .min(file_len.saturating_sub(sb.len() as u64));
            let rest = usize::try_from(rest_len).map_err(|_| StoreError::Corrupt {
                offset: 12,
                reason: "superblock spec length exceeds the address space".into(),
            })?;
            let mut tail = vec![0u8; rest];
            file.read_exact(&mut tail)?;
            sb.extend_from_slice(&tail);
        }
        let (stored_spec, first_block) = superblock::decode(&sb)?;
        if &stored_spec != spec {
            return Err(backend(format!(
                "key spec mismatch: segment {} was created under a different key specification \
                 (stored {} keys, requested {})",
                path.display(),
                stored_spec.len(),
                spec.len(),
            )));
        }

        // whether the file's final four bytes are a commit word — the
        // signal that distinguishes a bit-rotted length field (which must
        // fail loudly) from a genuine torn append (which cannot leave a
        // later block's commit word at end of file)
        let eof_commit_word = if file_len >= first_block + 4 {
            let mut last = [0u8; 4];
            file.seek(SeekFrom::End(-4))?;
            file.read_exact(&mut last)?;
            file.seek(SeekFrom::Start(first_block))?;
            last == COMMIT_MAGIC.to_le_bytes()
        } else {
            false
        };

        // blocks, one at a time — only the current payload is in memory,
        // so reopening stays within the archive's working set
        let mut versions = 0u32;
        let mut offset = first_block;
        let mut stats = RecoveryStats::default();
        let mut len = file_len;
        if let Some(r) = resume {
            // the resume point came from an unlocked pre-scan; re-verify
            // under the exclusive lock that it is still a committed
            // checkpoint covering exactly what the snapshot restored
            let end = match scan_block_at(path, r.checkpoint_offset)? {
                Scan::Block(b)
                    if b.header.kind == BlockKind::Checkpoint && b.header.version == r.versions =>
                {
                    r.checkpoint_offset
                        + (b.payload.len() + BLOCK_HEADER_LEN + BLOCK_TRAILER_LEN) as u64
                }
                _ => {
                    metrics.corrupt_blocks.inc();
                    return Err(StoreError::Corrupt {
                        offset: r.checkpoint_offset,
                        reason: "checkpoint resume point failed re-verification".into(),
                    });
                }
            };
            versions = r.versions;
            offset = end.min(len);
            stats.checkpoint_loaded = true;
            metrics.checkpoints_loaded.inc();
            metrics.event(
                Level::Info,
                "recovery.checkpoint_loaded",
                &[
                    ("offset", r.checkpoint_offset.to_string()),
                    ("covered", r.versions.to_string()),
                ],
            );
            file.seek(SeekFrom::Start(offset))?;
        }
        let resumed_at = offset;
        let mut header = [0u8; BLOCK_HEADER_LEN];
        while offset < len {
            // Some(end) when the bytes at `offset` are identifiably a
            // *complete* checkpoint block (kind byte, commit word at its
            // declared end): a corrupt one can then be skipped instead of
            // failing the open — checkpoints are pure redundancy
            let mut checkpoint_span_end: Option<u64> = None;
            let scan = if len - offset < BLOCK_HEADER_LEN as u64 {
                Scan::TornTail
            } else {
                file.read_exact(&mut header)?;
                match block::declared_payload_len(&header) {
                    // unreachable with a full header buffer, but decode
                    // paths are total by policy
                    None => Scan::TornTail,
                    // an implausible length is rejected before any allocation
                    Some(declared) if declared > block::MAX_PAYLOAD => {
                        Scan::Corrupt(StoreError::Corrupt {
                            offset,
                            reason: format!(
                                "implausible payload length {declared} in block header"
                            ),
                        })
                    }
                    Some(declared) => {
                        let needed = declared + BLOCK_TRAILER_LEN as u64;
                        let available = needed.min(len - offset - BLOCK_HEADER_LEN as u64);
                        match usize::try_from(available) {
                            Err(_) => Scan::Corrupt(StoreError::Corrupt {
                                offset,
                                reason: "block span exceeds the address space".into(),
                            }),
                            Ok(take) => {
                                let mut body = vec![0u8; take];
                                file.read_exact(&mut body)?;
                                let end = offset + BLOCK_HEADER_LEN as u64 + needed;
                                let bytes_after_end = len.saturating_sub(end);
                                let commit_ok = available == needed
                                    && body.len().checked_sub(4).and_then(|s| body.get(s..))
                                        == Some(COMMIT_MAGIC.to_le_bytes().as_slice());
                                if commit_ok
                                    && header.first() == Some(&BlockKind::Checkpoint.kind_byte())
                                {
                                    checkpoint_span_end = Some(end);
                                }
                                block::scan_block_parts(
                                    &header,
                                    body,
                                    offset,
                                    bytes_after_end,
                                    eof_commit_word,
                                )
                            }
                        }
                    }
                }
            };
            match scan {
                Scan::Block(b) if b.header.kind == BlockKind::Checkpoint => {
                    // checkpoints commit nothing: the header records how
                    // many versions the snapshot covers, which must agree
                    // with the journal so far
                    if b.header.version != versions {
                        metrics.corrupt_blocks.inc();
                        metrics.event(
                            Level::Error,
                            "recovery.corrupt_block",
                            &[
                                ("offset", offset.to_string()),
                                ("reason", "checkpoint coverage skew".to_string()),
                            ],
                        );
                        return Err(StoreError::Corrupt {
                            offset,
                            reason: format!(
                                "checkpoint claims to cover version {}, journal holds {versions}",
                                b.header.version
                            ),
                        });
                    }
                    offset += (b.payload.len() + BLOCK_HEADER_LEN + BLOCK_TRAILER_LEN) as u64;
                    let committed = on_block(b)?;
                    if committed != 0 {
                        return Err(StoreError::Corrupt {
                            offset,
                            reason: "checkpoint block claimed to commit versions".into(),
                        });
                    }
                }
                Scan::Block(b) => {
                    let expected = versions + 1;
                    if b.header.version != expected {
                        metrics.corrupt_blocks.inc();
                        metrics.event(
                            Level::Error,
                            "recovery.corrupt_block",
                            &[
                                ("offset", offset.to_string()),
                                ("reason", "sequence broken".to_string()),
                            ],
                        );
                        return Err(StoreError::Corrupt {
                            offset,
                            reason: format!(
                                "block sequence broken: expected version {expected}, found {}",
                                b.header.version
                            ),
                        });
                    }
                    offset += (b.payload.len() + BLOCK_HEADER_LEN + BLOCK_TRAILER_LEN) as u64;
                    let committed = on_block(b)?;
                    if committed == 0 {
                        return Err(StoreError::Corrupt {
                            offset,
                            reason: "block committed zero versions".into(),
                        });
                    }
                    versions = expected + (committed - 1);
                    stats.tail_blocks_replayed = stats.tail_blocks_replayed.saturating_add(1);
                }
                Scan::Corrupt(e) if checkpoint_span_end.is_some() => {
                    // a rotted checkpoint is loud but never fatal: every
                    // bit of its state is rederivable from the journal, so
                    // record it and step over its (commit-word-delimited)
                    // span to the blocks behind it
                    let Some(end) = checkpoint_span_end else {
                        return Err(e);
                    };
                    metrics.corrupt_blocks.inc();
                    metrics.checkpoints_skipped.inc();
                    metrics.event(
                        Level::Warn,
                        "recovery.checkpoint_skipped",
                        &[("offset", offset.to_string()), ("reason", e.to_string())],
                    );
                    offset = end;
                }
                Scan::TornTail => {
                    stats.truncated_bytes = len - offset;
                    file.set_len(offset)?;
                    if sync {
                        file.sync_data()?;
                    }
                    len = offset;
                    metrics.torn_tail_truncations.inc();
                    metrics.event(
                        Level::Warn,
                        "recovery.torn_tail",
                        &[
                            ("offset", offset.to_string()),
                            ("dropped_bytes", stats.truncated_bytes.to_string()),
                        ],
                    );
                }
                Scan::Corrupt(e) => {
                    metrics.corrupt_blocks.inc();
                    metrics.event(
                        Level::Error,
                        "recovery.corrupt_block",
                        &[("offset", offset.to_string()), ("reason", e.to_string())],
                    );
                    return Err(e);
                }
            }
        }
        file.seek(SeekFrom::End(0))?;
        stats.versions_recovered = versions;
        // a checkpointed open verified the superblock and the tail only
        stats.bytes_scanned = first_block + len.saturating_sub(resumed_at);
        let restored = resume.map_or(0, |r| r.versions);
        metrics
            .versions_replayed
            .add(u64::from(versions.saturating_sub(restored)));
        metrics.journal_len.set_u64(len);
        metrics.event(
            Level::Info,
            "segment.open",
            &[
                ("versions", versions.to_string()),
                ("bytes", len.to_string()),
                ("truncated_bytes", stats.truncated_bytes.to_string()),
                ("checkpoint_loaded", stats.checkpoint_loaded.to_string()),
            ],
        );
        Ok((
            Segment {
                file,
                path: path.to_owned(),
                len,
                next_version: versions + 1,
                sync,
                metrics,
            },
            stats,
        ))
    }

    /// Appends one committed block for version `version` and (by default)
    /// syncs it to disk. `raw_len` is the payload's uncompressed size;
    /// `payload` is already encoded per `codec`.
    pub fn append(
        &mut self,
        kind: BlockKind,
        codec: BlockCodec,
        version: u32,
        raw_len: u64,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        debug_assert!(
            !matches!(kind, BlockKind::Batch),
            "batch blocks go through append_batch"
        );
        self.append_block(kind, codec, version, 1, raw_len, payload)
    }

    /// Group commit: appends ONE block covering `count` consecutive
    /// versions starting at `first_version`, with a single write and a
    /// single (optional) fsync — the whole batch becomes durable, or none
    /// of it does.
    pub fn append_batch(
        &mut self,
        codec: BlockCodec,
        first_version: u32,
        count: u32,
        raw_len: u64,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        if count == 0 {
            return Err(backend("a batch block must commit at least one version"));
        }
        self.append_block(
            BlockKind::Batch,
            codec,
            first_version,
            count,
            raw_len,
            payload,
        )
    }

    /// Appends one checkpoint block whose snapshot covers every version
    /// committed so far (the header records `next_version - 1`).
    /// Checkpoints commit no versions, so the sequence cursor does not
    /// advance. Returns the file offset of the appended block's header,
    /// which the durable layer back-chains into the *next* checkpoint's
    /// payload.
    pub fn append_checkpoint(
        &mut self,
        codec: BlockCodec,
        raw_len: u64,
        payload: &[u8],
    ) -> Result<u64, StoreError> {
        if payload.len() as u64 > block::MAX_PAYLOAD {
            return Err(backend(format!(
                "checkpoint payload of {} bytes exceeds the {} byte block limit",
                payload.len(),
                block::MAX_PAYLOAD
            )));
        }
        let covered = self.next_version.saturating_sub(1);
        let offset = self.len;
        let block = encode_block(BlockKind::Checkpoint, codec, covered, raw_len, payload);
        self.file.write_all(&block)?;
        if self.sync {
            self.file.sync_data()?;
            self.metrics.fsyncs.inc();
        }
        self.len += block.len() as u64;
        self.metrics.checkpoints_written.inc();
        self.metrics.checkpoint_bytes.add(block.len() as u64);
        self.metrics.journal_len.set_u64(self.len);
        self.metrics.event(
            Level::Info,
            "segment.checkpoint",
            &[
                ("covered", covered.to_string()),
                ("bytes", block.len().to_string()),
                ("offset", offset.to_string()),
            ],
        );
        Ok(offset)
    }

    fn append_block(
        &mut self,
        kind: BlockKind,
        codec: BlockCodec,
        version: u32,
        count: u32,
        raw_len: u64,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        if version != self.next_version {
            return Err(backend(format!(
                "out-of-order append: segment expects version {}, got {version}",
                self.next_version
            )));
        }
        // the bound readers rely on: a complete header never declares an
        // implausible length, so one on disk is provably bit rot
        if payload.len() as u64 > block::MAX_PAYLOAD {
            return Err(backend(format!(
                "payload of {} bytes exceeds the {} byte block limit",
                payload.len(),
                block::MAX_PAYLOAD
            )));
        }
        let block = encode_block(kind, codec, version, raw_len, payload);
        self.file.write_all(&block)?;
        if self.sync {
            self.file.sync_data()?;
            self.metrics.fsyncs.inc();
        }
        self.len += block.len() as u64;
        self.next_version += count;
        self.metrics.blocks_written.inc();
        self.metrics.bytes_written.add(block.len() as u64);
        self.metrics.journal_len.set_u64(self.len);
        Ok(())
    }

    /// The segment file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current file length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The version number the next append must carry.
    pub fn next_version(&self) -> u32 {
        self.next_version
    }

    /// Blocks appended through this handle (through this *registry* when
    /// the segment was opened observed against a shared one).
    pub fn blocks_appended(&self) -> u64 {
        self.metrics.blocks_written.get()
    }

    /// Commit fsyncs issued through this handle (through this *registry*
    /// when the segment was opened observed against a shared one).
    pub fn syncs_issued(&self) -> u64 {
        self.metrics.fsyncs.get()
    }

    /// The metric handles this segment records into.
    pub fn metrics(&self) -> &StorageMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_path;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))").unwrap()
    }

    #[test]
    fn create_append_reopen() {
        let path = scratch_path("segment-basic");
        let mut seg = Segment::create(&path, &spec(), true, StorageMetrics::detached()).unwrap();
        seg.append(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc")
            .unwrap();
        seg.append(BlockKind::Empty, BlockCodec::Raw, 2, 0, b"")
            .unwrap();
        drop(seg);
        let mut blocks = Vec::new();
        let (seg, stats) = Segment::open(
            &path,
            &spec(),
            true,
            StorageMetrics::detached(),
            None,
            |b| {
                blocks.push(b);
                Ok(1)
            },
        )
        .unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].payload, b"abc".as_slice());
        assert_eq!(blocks[1].header.kind, BlockKind::Empty);
        assert_eq!(stats.versions_recovered, 2);
        assert!(!stats.recovered_torn_tail());
        assert_eq!(seg.next_version(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_block_advances_the_sequence_by_its_count() {
        let path = scratch_path("segment-batch");
        let mut seg = Segment::create(&path, &spec(), true, StorageMetrics::detached()).unwrap();
        seg.append(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc")
            .unwrap();
        // one block commits versions 2..=4
        seg.append_batch(BlockCodec::Raw, 2, 3, 5, b"batch")
            .unwrap();
        assert_eq!(seg.next_version(), 5);
        seg.append(BlockKind::Empty, BlockCodec::Raw, 5, 0, b"")
            .unwrap();
        drop(seg);
        let mut kinds = Vec::new();
        let (seg, stats) = Segment::open(
            &path,
            &spec(),
            true,
            StorageMetrics::detached(),
            None,
            |b| {
                kinds.push(b.header.kind);
                Ok(if b.header.kind == BlockKind::Batch {
                    3
                } else {
                    1
                })
            },
        )
        .unwrap();
        assert_eq!(
            kinds,
            vec![BlockKind::Version, BlockKind::Batch, BlockKind::Empty]
        );
        assert_eq!(stats.versions_recovered, 5);
        assert_eq!(seg.next_version(), 6);
        // a batch may not claim zero versions
        let mut seg = seg;
        assert!(seg.append_batch(BlockCodec::Raw, 6, 0, 0, b"").is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let path = scratch_path("segment-torn");
        let mut seg = Segment::create(&path, &spec(), true, StorageMetrics::detached()).unwrap();
        seg.append(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc")
            .unwrap();
        let committed = seg.len_bytes();
        drop(seg);
        // simulate a crash mid-append: a partial second block
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[1, 0, 2, 0, 0, 0, 9, 9]).unwrap();
        drop(f);
        let mut blocks = Vec::new();
        let (seg, stats) = Segment::open(
            &path,
            &spec(),
            true,
            StorageMetrics::detached(),
            None,
            |b| {
                blocks.push(b);
                Ok(1)
            },
        )
        .unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(stats.truncated_bytes, 8);
        assert!(stats.recovered_torn_tail());
        assert_eq!(seg.len_bytes(), committed);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spec_mismatch_is_rejected() {
        let path = scratch_path("segment-spec");
        Segment::create(&path, &spec(), true, StorageMetrics::detached()).unwrap();
        let other = KeySpec::parse("(/, (other, {}))").unwrap();
        let err = Segment::open(
            &path,
            &other,
            true,
            StorageMetrics::detached(),
            None,
            |_| Ok(1),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, StoreError::Backend(_)), "{err}");
        assert!(err.to_string().contains("key spec mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_order_append_is_rejected() {
        let path = scratch_path("segment-order");
        let mut seg = Segment::create(&path, &spec(), true, StorageMetrics::detached()).unwrap();
        assert!(seg
            .append(BlockKind::Version, BlockCodec::Raw, 5, 0, b"")
            .is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
