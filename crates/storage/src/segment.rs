//! The segment file: superblock + append-only block sequence.
//!
//! A [`Segment`] is the durable half of the archive: every committed
//! version is one appended block, synced before the commit is
//! acknowledged. The segment owns the file and its exclusive OS lock.
//! Reading the file back is [`Journal::open`](crate::Journal::open)'s: it
//! maps the locked file, steps through it with the block walk
//! ([`crate::block::walk`]) that the cold reader uses too — verifying,
//! restoring the newest usable checkpoint, replaying the tail — and then
//! resumes the segment for appending, cut back to what it kept.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use xarch_compress::BlockCodec;
use xarch_core::StoreError;
use xarch_obs::Level;

use crate::block::{self, encode_block, BlockKind};
use crate::metrics::StorageMetrics;

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

impl Segment {
    /// Opens the segment file at `path`, creating it when absent, and
    /// takes the OS advisory lock that makes the segment single-writer —
    /// before a byte of it is read. Two handles appending to one journal
    /// would overwrite each other's acknowledged commits. The lock dies
    /// with the file handle (and with the process, so a crash never leaves
    /// a stale lock behind).
    // not .truncate(true): the file is recovered, or recreated by `create`
    #[allow(clippy::suspicious_open_options)]
    pub fn lock(path: &Path) -> Result<File, StoreError> {
        use std::fs::TryLockError;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .open(path)?;
        match file.try_lock() {
            Ok(()) => Ok(file),
            Err(TryLockError::WouldBlock) => Err(backend(format!(
                "segment {} is already open in another archive handle \
                 (concurrent writers would corrupt the journal)",
                path.display()
            ))),
            Err(TryLockError::Error(e)) => Err(StoreError::Io(e)),
        }
    }

    /// Starts the locked `file` afresh: whatever it held is dropped and
    /// `superblock` ([`crate::superblock::encode`]) written in its place.
    pub fn create(
        mut file: File,
        path: &Path,
        superblock: &[u8],
        sync: bool,
        metrics: StorageMetrics,
    ) -> Result<Segment, StoreError> {
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(superblock)?;
        if sync {
            file.sync_data()?;
        }
        let len = superblock.len() as u64;
        metrics.journal_len.set_u64(len);
        metrics.event(
            Level::Info,
            "segment.create",
            &[("path", path.display().to_string())],
        );
        Ok(Segment {
            file,
            path: path.to_owned(),
            len,
            next_version: 1,
            sync,
            metrics,
        })
    }

    /// Positions the locked `file` for appending after the `len` bytes
    /// recovery kept, cutting off whatever follows them (a torn tail);
    /// `next_version` is the version the next append must carry.
    pub fn resume(
        mut file: File,
        path: &Path,
        len: u64,
        next_version: u32,
        sync: bool,
        metrics: StorageMetrics,
    ) -> Result<Segment, StoreError> {
        if file.metadata()?.len() > len {
            file.set_len(len)?;
            if sync {
                file.sync_data()?;
            }
        }
        file.seek(SeekFrom::Start(len))?;
        metrics.journal_len.set_u64(len);
        Ok(Segment {
            file,
            path: path.to_owned(),
            len,
            next_version,
            sync,
            metrics,
        })
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
    use xarch_keys::KeySpec;

    fn create(path: &Path) -> Segment {
        let spec = KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))").unwrap();
        let sb = crate::superblock::encode(&spec).unwrap();
        let file = Segment::lock(path).unwrap();
        Segment::create(file, path, &sb, true, StorageMetrics::detached()).unwrap()
    }

    #[test]
    fn appends_advance_the_sequence_by_what_they_commit() {
        let path = scratch_path("segment-appends");
        let mut seg = create(&path);
        seg.append(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc")
            .unwrap();
        // one block commits versions 2..=4
        seg.append_batch(BlockCodec::Raw, 2, 3, 5, b"batch")
            .unwrap();
        assert_eq!(seg.next_version(), 5);
        seg.append(BlockKind::Empty, BlockCodec::Raw, 5, 0, b"")
            .unwrap();
        assert_eq!(seg.next_version(), 6);
        assert_eq!(seg.blocks_appended(), 3);
        assert_eq!(seg.len_bytes(), std::fs::metadata(&path).unwrap().len());
        // a batch may not claim zero versions, nor an append skip one
        assert!(seg.append_batch(BlockCodec::Raw, 6, 0, 0, b"").is_err());
        assert!(seg
            .append(BlockKind::Version, BlockCodec::Raw, 9, 0, b"")
            .is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_second_lock_is_refused_while_the_first_lives() {
        let path = scratch_path("segment-lock");
        let seg = create(&path);
        let err = Segment::lock(&path).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
        drop(seg);
        assert!(Segment::lock(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_cuts_off_what_recovery_did_not_keep() {
        let path = scratch_path("segment-resume");
        let mut seg = create(&path);
        seg.append(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc")
            .unwrap();
        let kept = seg.len_bytes();
        drop(seg);
        // a crash mid-append: a partial second block
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[1, 0, 2, 0, 0, 0, 9, 9]).unwrap();
        drop(f);
        let file = Segment::lock(&path).unwrap();
        let mut seg =
            Segment::resume(file, &path, kept, 2, true, StorageMetrics::detached()).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), kept);
        seg.append(BlockKind::Empty, BlockCodec::Raw, 2, 0, b"")
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let kinds: Vec<_> = block::walk(&bytes, kept - 33).map(|s| s.kind).collect();
        assert_eq!(kinds, [BlockKind::Version, BlockKind::Empty]);
        std::fs::remove_file(&path).unwrap();
    }
}
