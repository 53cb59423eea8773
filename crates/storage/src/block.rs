//! Block framing: one length-prefixed, checksummed, commit-stamped block
//! per committed version.
//!
//! ```text
//! header (22 bytes)                        payload            trailer (8 bytes)
//! ┌──────┬───────┬─────────┬─────────┬────────────┬─────────┬───────┬────────┐
//! │ kind │ codec │ version │ raw_len │ stored_len │ payload │ crc32 │ commit │
//! │  u8  │  u8   │ u32 LE  │ u64 LE  │  u64 LE    │  bytes  │ u32LE │ u32 LE │
//! └──────┴───────┴─────────┴─────────┴────────────┴─────────┴───────┴────────┘
//! ```
//!
//! The CRC covers header + payload; the commit word is written last.
//! Classification of a bad block depends on where it sits: any failure in
//! the *final* block (absent commit word or CRC mismatch) is treated as a
//! torn write and truncated away — a single power-lost append can persist
//! its pages out of order, so even an intact commit word cannot prove the
//! payload reached disk. An *interior* block that fails verification can
//! only be bit rot on committed data and fails loudly.
//!
//! Every reader of a segment — the journal's reopen and the cold reader —
//! lists its blocks with one header walk, [`Walk`]: from the file by one
//! positioned read per header (`walk_file`), so listing them brings no
//! page of the reader's map in, or over bytes in memory ([`walk`]). Both
//! readers hold the headers' version sequence to one rule
//! (`check_sequence`) and check each block they read, and the bytes
//! where the walk stopped, with [`scan_block`].

use std::borrow::Cow;
use std::convert::Infallible;
use std::fs::File;

use xarch_compress::BlockCodec;
use xarch_core::StoreError;

use crate::bytes::{le_u32, le_u64};
use crate::crc::crc32;

/// Fixed size of the block header.
pub const BLOCK_HEADER_LEN: usize = 22;
/// Fixed size of the block trailer (CRC + commit word).
pub const BLOCK_TRAILER_LEN: usize = 8;
/// The commit word: the last four bytes written for a block.
pub const COMMIT_MAGIC: u32 = 0x434D_5421; // "CMT!"

/// Largest accepted payload (1 GiB) — a sanity bound so a corrupted length
/// field cannot drive a multi-gigabyte allocation.
pub const MAX_PAYLOAD: u64 = 1 << 30;

/// What a block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// An archived version: the payload is the version document encoded as
    /// an `xarch_extmem` event stream (possibly compressed).
    Version,
    /// An archived *empty* version (§2's footnote): no payload.
    Empty,
    /// A **group-committed batch** of versions: the payload is a varint
    /// count followed by length-prefixed per-version document payloads.
    /// The header's `version` field is the *first* version of the batch;
    /// the whole batch shares this block's single CRC and commit word, so
    /// a torn batch is truncated as one unit on reopen — recovery restores
    /// the pre-batch state, never a prefix of the batch.
    Batch,
    /// A **checkpoint**: the payload is a serialized snapshot of the
    /// materialized archive state covering every version up to and
    /// including the header's `version` field (see `docs/FORMAT.md`
    /// §Checkpoint blocks). Checkpoints commit *zero* new versions — they
    /// are pure redundancy over the journal, written so reopen can restore
    /// the snapshot and replay only the tail instead of the whole history.
    Checkpoint,
}

impl BlockKind {
    fn id(self) -> u8 {
        match self {
            BlockKind::Version => 1,
            BlockKind::Empty => 2,
            BlockKind::Batch => 3,
            BlockKind::Checkpoint => 4,
        }
    }

    fn from_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(BlockKind::Version),
            2 => Some(BlockKind::Empty),
            3 => Some(BlockKind::Batch),
            4 => Some(BlockKind::Checkpoint),
            _ => None,
        }
    }

    /// The raw kind byte as stored in block headers (`docs/FORMAT.md`
    /// §Block kinds).
    pub fn kind_byte(self) -> u8 {
        self.id()
    }

    /// Inverse of [`BlockKind::kind_byte`]; `None` for unassigned ids.
    pub fn from_kind_byte(id: u8) -> Option<Self> {
        Self::from_id(id)
    }
}

/// A decoded block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// What the payload carries (`docs/FORMAT.md` §Block kinds).
    pub kind: BlockKind,
    /// How the payload bytes are stored (raw or LZSS-compressed).
    pub codec: BlockCodec,
    /// The version number this block committed (first block = 1, then +1).
    pub version: u32,
    /// Uncompressed payload size in bytes.
    pub raw_len: u64,
    /// Stored (possibly compressed) payload size in bytes.
    pub stored_len: u64,
}

/// One fully verified block read back from a segment.
#[derive(Debug, Clone)]
pub struct ScannedBlock<'a> {
    /// The decoded, CRC-verified header.
    pub header: BlockHeader,
    /// Stored payload bytes (still encoded per `header.codec`), borrowed
    /// from the file's bytes.
    pub payload: &'a [u8],
    /// Byte offset of the block header within the file.
    pub offset: u64,
}

/// One block as the header walk steps over it: where it lies and what its
/// header says it is. Unverified — [`scan_block`] checks the block itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// File offset of the block header.
    pub offset: u64,
    /// What the header's kind byte names.
    pub kind: BlockKind,
    /// The header's version field.
    pub version: u32,
    /// File offset one past the block's trailer: where the next block
    /// begins.
    pub end: u64,
}

/// The header walk over a segment file: every block from a given offset
/// on, one 22-byte header read per block and its payload stepped over. It
/// stops at the first header it cannot step over — an unknown kind, an
/// implausible stored length, a span past end of file — and the bytes
/// there are then classified by [`scan_block`].
///
/// The headers come from a source `S`: the file's bytes in memory
/// ([`walk`]: each step yields a [`Step`]) or the file itself, one
/// positioned read per header (`walk_file`: each step yields a
/// `Result`, as a read can fail). The rules a step follows are the same
/// for both.
#[derive(Debug, Clone)]
pub struct Walk<S> {
    source: S,
    offset: u64,
    /// The block stepped over last.
    last: Option<Step>,
}

/// Walks the block headers of the file `bytes` (all of it, so offsets are
/// file offsets) from the block at `from`.
pub fn walk(bytes: &[u8], from: u64) -> Walk<&[u8]> {
    Walk {
        source: bytes,
        offset: from,
        last: None,
    }
}

/// Walks the block headers of `file`, whose bytes (its map) are `bytes`,
/// from the block at `from`: each header is read from the file at its
/// position, so listing the blocks brings no page of the map in, and a
/// read that fails is a [`StoreError::Io`] — never a stop, which a reader
/// would take for a torn tail. A step's span is bounded by `bytes`, whose
/// blocks a reader then verifies and decodes; so the file must be locked
/// against writers while both are in use. The buffered fallback of
/// [`crate::mmap::MappedFile`] holds the file's bytes already, and walks
/// them.
pub(crate) fn walk_file<'a>(file: &'a File, bytes: &'a [u8], from: u64) -> Walk<FileHeaders<'a>> {
    Walk {
        source: FileHeaders { file, bytes },
        offset: from,
        last: None,
    }
}

/// Where a [`Walk`] reads block headers from.
pub trait Headers {
    /// What a failed read is.
    type Error;
    /// The segment file's bytes: no block the walk steps over ends past
    /// them, and `Walk::torn_from` classifies them.
    fn bytes(&self) -> &[u8];
    /// The 22 header bytes at `offset`, or `None` when fewer than that
    /// remain before the end of [`Headers::bytes`].
    fn header(&self, offset: u64) -> Result<Option<[u8; BLOCK_HEADER_LEN]>, Self::Error>;
}

impl Headers for &[u8] {
    type Error = Infallible;

    fn bytes(&self) -> &[u8] {
        self
    }

    fn header(&self, offset: u64) -> Result<Option<[u8; BLOCK_HEADER_LEN]>, Infallible> {
        let rest = usize::try_from(offset).ok().and_then(|o| self.get(o..));
        Ok(rest.and_then(|r| r.first_chunk().copied()))
    }
}

/// A segment file read by position, its length that of its map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FileHeaders<'a> {
    file: &'a File,
    bytes: &'a [u8],
}

impl Headers for FileHeaders<'_> {
    type Error = std::io::Error;

    fn bytes(&self) -> &[u8] {
        self.bytes
    }

    #[cfg(unix)]
    fn header(&self, offset: u64) -> std::io::Result<Option<[u8; BLOCK_HEADER_LEN]>> {
        use std::os::unix::fs::FileExt;
        let end = offset.checked_add(BLOCK_HEADER_LEN as u64);
        if end.is_none_or(|end| end > self.bytes.len() as u64) {
            return Ok(None);
        }
        let mut header = [0; BLOCK_HEADER_LEN];
        self.file.read_exact_at(&mut header, offset)?;
        Ok(Some(header))
    }

    #[cfg(not(unix))]
    fn header(&self, offset: u64) -> std::io::Result<Option<[u8; BLOCK_HEADER_LEN]>> {
        let _ = self.file;
        let Ok(header) = self.bytes.header(offset);
        Ok(header)
    }
}

/// The block at `offset` of `source` if its header can be stepped over: a
/// known kind byte, a stored length within [`MAX_PAYLOAD`], and a span
/// that ends inside the file.
fn step_at<S: Headers>(source: &S, offset: u64) -> Result<Option<Step>, S::Error> {
    let Some(header) = source.header(offset)? else {
        return Ok(None);
    };
    let step = || {
        let [kind, ..] = header;
        let kind = BlockKind::from_id(kind)?;
        let stored_len = declared_payload_len(&header).filter(|&l| l <= MAX_PAYLOAD)?;
        let end = offset.checked_add(span(stored_len))?;
        (end <= source.bytes().len() as u64).then_some(Step {
            offset,
            kind,
            version: le_u32(&header, 2)?,
            end,
        })
    };
    Ok(step())
}

/// The file span of a block holding `stored_len` payload bytes.
pub(crate) fn span(stored_len: u64) -> u64 {
    stored_len + (BLOCK_HEADER_LEN + BLOCK_TRAILER_LEN) as u64
}

impl<S: Headers> Walk<S> {
    /// Where the bytes the walk has not stepped over begin: once it is
    /// exhausted, the end of file or the header it stopped at.
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }

    /// Classifies the bytes from where the walk stands to end of file by
    /// the format's torn-vs-rot rules ([`scan_block`]): `Ok(None)` when
    /// there are none, `Ok(Some(offset))` when they are a torn tail — an
    /// append that never committed — and the positioned corruption
    /// otherwise. Where the walk stopped short of end of file, the block
    /// it stepped over last must end in its commit word: one that does
    /// not has a rotted length, which led the walk into the bytes behind
    /// it, and is refused as a replay of it is.
    pub(crate) fn torn_from(&self) -> Result<Option<u64>, StoreError> {
        let bytes = self.source.bytes();
        if self.offset >= bytes.len() as u64 {
            return Ok(None);
        }
        if let Some(last) = self.last.filter(|last| !ends_committed(bytes, last)) {
            return Err(match scan_block(bytes, last.offset) {
                Scan::Corrupt(e) => e,
                _ => StoreError::Corrupt {
                    offset: last.offset,
                    reason: "missing commit word on an interior block".into(),
                },
            });
        }
        match scan_block(bytes, self.offset) {
            Scan::TornTail => Ok(Some(self.offset)),
            Scan::Corrupt(e) => Err(e),
            Scan::Block(_) => Err(StoreError::Corrupt {
                offset: self.offset,
                reason: "header walk stopped at a block that verifies".into(),
            }),
        }
    }

    /// The next step, the walk moved past it.
    fn advance(&mut self) -> Result<Option<Step>, S::Error> {
        let step = step_at(&self.source, self.offset)?;
        if let Some(step) = step {
            self.offset = step.end;
            self.last = Some(step);
        }
        Ok(step)
    }
}

impl Iterator for Walk<&[u8]> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let Ok(step) = self.advance();
        step
    }
}

impl Iterator for Walk<FileHeaders<'_>> {
    type Item = Result<Step, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.advance().map_err(StoreError::Io).transpose()
    }
}

/// True when the commit word sits at the declared end of the walked block
/// `step`: its span is whole, whatever its checksum says.
pub(crate) fn ends_committed(bytes: &[u8], step: &Step) -> bool {
    usize::try_from(step.end)
        .ok()
        .and_then(|end| bytes.get(..end))
        .and_then(<[u8]>::last_chunk::<4>)
        == Some(&COMMIT_MAGIC.to_le_bytes())
}

/// Checks that the data blocks among `steps` — a walk's listing of the
/// file `bytes`, in file order — carry the versions a writer gives them:
/// 1 first, then one more than a version or empty block's, and more than
/// a batch's, whose count its header does not hold. Where a header breaks
/// the sequence, the blocks on either side of the break are classified in
/// file order, as a replay meets them ([`scan_block`]): the first that
/// does not verify is refused, or — the file's final block — cut as a
/// torn tail, `Ok(Some(offset))`. Two blocks that verify and do not
/// continue one another are refused at the second. Every header is read
/// by the walk already, so a segment whose sequence holds costs nothing
/// more; both readers run this on their listing, so a rotted version field
/// is refused by both where the cold reader's index would trust it.
pub(crate) fn check_sequence(bytes: &[u8], steps: &[Step]) -> Result<Option<u64>, StoreError> {
    let mut before: Option<&Step> = None;
    for step in steps.iter().filter(|s| s.kind != BlockKind::Checkpoint) {
        let after_batch = before.is_some_and(|b| b.kind == BlockKind::Batch);
        let expected = before.map_or(1, |b| u64::from(b.version) + 1);
        let version = u64::from(step.version);
        if version == expected || (after_batch && version > expected) {
            before = Some(step);
            continue;
        }
        for s in before.into_iter().chain([step]) {
            match scan_block(bytes, s.offset) {
                Scan::Block(_) => {}
                Scan::TornTail => return Ok(Some(s.offset)),
                Scan::Corrupt(e) => return Err(e),
            }
        }
        let reason = match before {
            Some(b) if after_batch => format!(
                "block sequence not increasing: version {version} follows {}",
                b.version
            ),
            _ => format!("block sequence broken: expected version {expected}, found {version}"),
        };
        return Err(StoreError::Corrupt {
            offset: step.offset,
            reason,
        });
    }
    Ok(None)
}

/// The payload of a verified block as it was handed to the writer: the
/// stored bytes decoded per `header.codec`, exactly `header.raw_len` of
/// them. The header's length (at most [`MAX_PAYLOAD`], or the block would
/// not have scanned) is the only one trusted: an encoding that declares
/// another is refused before anything is allocated for it. A raw payload
/// is borrowed from the file's bytes, a compressed one decompressed
/// straight from them.
pub fn decode_payload(b: ScannedBlock<'_>) -> Result<Cow<'_, [u8]>, StoreError> {
    decode_payload_in(b, Vec::new())
}

/// [`decode_payload`], a compressed payload decoded into `buf`'s
/// allocation when it holds the payload ([`BlockCodec::decode`]).
pub fn decode_payload_in(b: ScannedBlock<'_>, buf: Vec<u8>) -> Result<Cow<'_, [u8]>, StoreError> {
    let ScannedBlock {
        header,
        payload,
        offset,
    } = b;
    usize::try_from(header.raw_len)
        .ok()
        .and_then(|raw_len| header.codec.decode(payload, raw_len, buf))
        .ok_or_else(|| StoreError::Corrupt {
            offset: offset + BLOCK_HEADER_LEN as u64,
            reason: format!(
                "block payload does not decode to the {} bytes its header declares",
                header.raw_len
            ),
        })
}

/// Encodes a complete block (header, payload, trailer) ready to append.
pub fn encode_block(
    kind: BlockKind,
    codec: BlockCodec,
    version: u32,
    raw_len: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOCK_HEADER_LEN + payload.len() + BLOCK_TRAILER_LEN);
    out.push(kind.id());
    out.push(codec.id());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&raw_len.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&COMMIT_MAGIC.to_le_bytes());
    out
}

/// The outcome of examining the bytes at one block offset.
#[derive(Debug)]
pub enum Scan<'a> {
    /// A fully committed, checksum-verified block.
    Block(ScannedBlock<'a>),
    /// The file ends in an uncommitted (torn) write starting here: the
    /// block is incomplete and its commit word never made it to disk.
    /// Recovery truncates the file at this offset.
    TornTail,
    /// Committed-looking data that fails verification — bit rot, not a
    /// torn write. Opening must fail.
    Corrupt(StoreError),
}

fn corrupt(offset: u64, reason: impl Into<String>) -> Scan<'static> {
    Scan::Corrupt(StoreError::Corrupt {
        offset,
        reason: reason.into(),
    })
}

/// The declared payload size of the block whose 22-byte header is
/// `header` (unvalidated), or `None` when `header` is short.
fn declared_payload_len(header: &[u8]) -> Option<u64> {
    le_u64(header, 14)
}

/// Examines the block starting at `offset` in `buf`, where `buf` holds the
/// **whole file** (indexing is offset-absolute, and the end of `buf` is
/// treated as end of file). The CRC is checked over `buf` in place, and a
/// verified block's payload borrows from it.
///
/// Torn-write classification leans on append-only prefix semantics: a
/// crashed append leaves a strict *prefix* of the block, so a complete
/// header is authored bytes and its lengths can be trusted to be within
/// [`MAX_PAYLOAD`] (the writer enforces that bound). An impossible length
/// in a complete header is therefore bit rot, never a torn write — it must
/// fail loudly rather than silently truncate away later committed blocks.
/// A *plausible* rotted length that runs past end of file is caught by the
/// file's final four bytes: a genuine torn append cannot leave a later
/// block's commit word there, so "length overruns the file, yet the file
/// ends committed" is also bit rot, not a tear.
pub fn scan_block(buf: &[u8], offset: u64) -> Scan<'_> {
    let Ok(o) = usize::try_from(offset) else {
        return corrupt(offset, "block offset exceeds the address space");
    };
    let Some(rest) = buf.get(o..) else {
        return Scan::TornTail;
    };
    if rest.len() < BLOCK_HEADER_LEN {
        return Scan::TornTail;
    }
    let (header, body) = rest.split_at(BLOCK_HEADER_LEN);
    // a complete header makes these reads infallible, but decode paths are
    // total by policy: a short slice degrades to the torn-tail outcome
    let (Some(&kind_id), Some(&codec_id), Some(version), Some(raw_len), Some(stored_len)) = (
        header.first(),
        header.get(1),
        le_u32(header, 2),
        le_u64(header, 6),
        declared_payload_len(header),
    ) else {
        return Scan::TornTail;
    };
    if stored_len > MAX_PAYLOAD || raw_len > MAX_PAYLOAD {
        return corrupt(
            offset,
            format!("implausible payload length {stored_len} (raw {raw_len}) in block header"),
        );
    }
    let Ok(payload_len) = usize::try_from(stored_len) else {
        return corrupt(offset, "payload length exceeds the address space");
    };
    let Some(needed) = payload_len.checked_add(BLOCK_TRAILER_LEN) else {
        return corrupt(offset, "block span overflows the address space");
    };
    if body.len() < needed {
        return if buf.last_chunk::<4>() == Some(&COMMIT_MAGIC.to_le_bytes()) {
            corrupt(
                offset,
                format!(
                    "block declares {stored_len} payload bytes running past end of file, \
                     yet the file ends in a commit word — bit-rotted length field, \
                     refusing to truncate committed data"
                ),
            )
        } else {
            Scan::TornTail
        };
    }
    let at_eof = body.len() == needed;
    let (Some(trailer), Some(payload)) = (body.get(payload_len..needed), body.get(..payload_len))
    else {
        return Scan::TornTail;
    };
    let (Some(stored_crc), Some(commit)) = (le_u32(trailer, 0), le_u32(trailer, 4)) else {
        return Scan::TornTail;
    };
    if commit != COMMIT_MAGIC {
        // no commit word at the very end of the file = torn write;
        // anywhere else it is corruption
        return if at_eof {
            Scan::TornTail
        } else {
            corrupt(offset, "missing commit word on an interior block")
        };
    }
    let mut crc = crate::crc::Crc32::new();
    crc.update(header);
    crc.update(payload);
    let actual = crc.finish();
    if actual != stored_crc {
        // The final append's pages may persist out of order, so a bad CRC
        // at the very end of the file is normally a torn write (the
        // version was never acknowledged); anywhere else it is bit rot on
        // committed data and must fail loudly. One disguise remains: a
        // rotted length field can inflate this block's span to end
        // *exactly* at end of file, swallowing later committed blocks and
        // borrowing the last one's commit word — so before truncating, the
        // doomed span is searched for an intact committed block, which a
        // genuine torn append cannot contain.
        return if at_eof && !contains_committed_block(payload) {
            Scan::TornTail
        } else {
            corrupt(
                offset,
                format!(
                    "block checksum mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"
                ),
            )
        };
    }
    let Some(kind) = BlockKind::from_id(kind_id) else {
        return corrupt(offset, format!("unknown block kind {kind_id}"));
    };
    let Some(codec) = BlockCodec::from_id(codec_id) else {
        return corrupt(offset, format!("unknown block codec {codec_id}"));
    };
    Scan::Block(ScannedBlock {
        header: BlockHeader {
            kind,
            codec,
            version,
            raw_len,
            stored_len,
        },
        payload,
        offset,
    })
}

/// True if `region` contains a fully checksummed committed block at any
/// byte offset. Used to keep a bit-rotted length field from masquerading
/// as a torn tail: the region a torn-write truncation is about to discard
/// is the uncommitted prefix of a single append, which cannot contain an
/// intact committed block. The cheap header filter (a step of the header
/// walk, a known codec, a bounded raw length) passes for roughly 2⁻⁵⁰ of
/// random offsets, so the CRC is almost never computed — this only runs on
/// the rare recovery path anyway.
fn contains_committed_block(region: &[u8]) -> bool {
    (0..region.len() as u64).any(|s| {
        let Ok(step) = step_at(&region, s);
        let block = step
            .and_then(|step| region.get(usize::try_from(s).ok()?..usize::try_from(step.end).ok()?));
        let Some((covered, trailer)) =
            block.and_then(|b| b.split_last_chunk::<BLOCK_TRAILER_LEN>())
        else {
            return false;
        };
        covered
            .get(1)
            .copied()
            .and_then(BlockCodec::from_id)
            .is_some()
            && le_u64(covered, 6).is_some_and(|raw| raw <= MAX_PAYLOAD)
            && le_u32(trailer, 4) == Some(COMMIT_MAGIC)
            && le_u32(trailer, 0) == Some(crc32(covered))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_scan_round_trip() {
        let payload = b"event bytes".to_vec();
        let buf = encode_block(
            BlockKind::Version,
            BlockCodec::Raw,
            3,
            payload.len() as u64,
            &payload,
        );
        match scan_block(&buf, 0) {
            Scan::Block(b) => {
                assert_eq!(b.header.kind, BlockKind::Version);
                assert_eq!(b.header.version, 3);
                assert_eq!(b.payload, payload);
                // a raw payload is read where it lies, not copied
                assert!(matches!(decode_payload(b), Ok(Cow::Borrowed(p)) if p == payload));
            }
            other => panic!("expected a block, got {other:?}"),
        }
    }

    #[test]
    fn short_tail_is_torn() {
        let buf = encode_block(BlockKind::Empty, BlockCodec::Raw, 1, 0, &[]);
        for cut in 1..buf.len() {
            assert!(
                matches!(scan_block(&buf[..cut], 0), Scan::TornTail),
                "cut at {cut} should be a torn tail"
            );
        }
    }

    #[test]
    fn interior_body_bit_flip_is_corrupt_final_is_torn() {
        let payload = b"some payload".to_vec();
        let mut buf = encode_block(
            BlockKind::Version,
            BlockCodec::Raw,
            1,
            payload.len() as u64,
            &payload,
        );
        let one_block = buf.len();
        buf.extend_from_slice(&encode_block(BlockKind::Empty, BlockCodec::Raw, 2, 0, &[]));
        buf[BLOCK_HEADER_LEN + 2] ^= 0x01;
        // interior: committed data rotted — fail loudly
        assert!(matches!(scan_block(&buf, 0), Scan::Corrupt(_)));
        // final: indistinguishable from an out-of-order torn append — the
        // unacknowledged block is truncated, not fatal
        assert!(matches!(scan_block(&buf[..one_block], 0), Scan::TornTail));
    }

    #[test]
    fn interior_block_without_commit_word_is_corrupt() {
        let mut buf = encode_block(BlockKind::Empty, BlockCodec::Raw, 1, 0, &[]);
        let last = buf.len() - 1;
        buf[last] ^= 0xFF; // destroy the commit word…
        buf.extend_from_slice(&encode_block(BlockKind::Empty, BlockCodec::Raw, 2, 0, &[]));
        assert!(matches!(scan_block(&buf, 0), Scan::Corrupt(_)));
    }

    #[test]
    fn bit_rotted_length_field_is_corrupt_not_torn() {
        // a complete header is authored bytes (torn appends leave strict
        // prefixes), so an impossible stored_len must fail loudly — not be
        // classed as a torn tail, which would truncate away every later
        // committed block
        let mut buf = encode_block(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc");
        let second_at = buf.len();
        buf.extend_from_slice(&encode_block(BlockKind::Empty, BlockCodec::Raw, 2, 0, &[]));
        buf[14 + 7] |= 0x40; // set a high bit of the first block's stored_len
        assert!(matches!(scan_block(&buf, 0), Scan::Corrupt(_)));
        // the final block is equally protected
        let mut tail = buf[second_at..].to_vec();
        tail[14 + 7] |= 0x40;
        assert!(matches!(scan_block(&tail, 0), Scan::Corrupt(_)));
    }

    #[test]
    fn plausible_inflated_interior_length_is_corrupt_not_torn() {
        // inflate block 1's stored_len by 1 MiB (still under MAX_PAYLOAD):
        // its declared end now overruns the file, which looks like a torn
        // append — but the file ends in block 2's commit word, which a
        // genuine tear cannot produce. Truncating here would destroy the
        // committed, acknowledged block 2.
        let mut buf = encode_block(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc");
        buf.extend_from_slice(&encode_block(BlockKind::Empty, BlockCodec::Raw, 2, 0, &[]));
        let old = u64::from_le_bytes(buf[14..22].try_into().unwrap());
        buf[14..22].copy_from_slice(&(old + (1 << 20)).to_le_bytes());
        match scan_block(&buf, 0) {
            Scan::Corrupt(e) => assert!(e.to_string().contains("commit word"), "{e}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // the same overrun at the true end of file (no commit word after)
        // remains an ordinary torn tail
        let mut torn = encode_block(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc");
        let cut = torn.len() - 10;
        torn.truncate(cut);
        assert!(matches!(scan_block(&torn, 0), Scan::TornTail));
    }

    #[test]
    fn exact_fit_inflated_length_is_corrupt_not_torn() {
        // rot block 1's stored_len so its declared span ends *exactly* at
        // end of file: the candidate's trailer then aligns with block 3's
        // real trailer (commit word valid, CRC mismatching), which used to
        // read as a torn final append — truncating all three committed
        // blocks. The doomed span contains intact committed blocks, which
        // a genuine tear cannot, so this must fail loudly instead.
        let mut buf = encode_block(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc");
        buf.extend_from_slice(&encode_block(
            BlockKind::Version,
            BlockCodec::Raw,
            2,
            2,
            b"xy",
        ));
        buf.extend_from_slice(&encode_block(BlockKind::Empty, BlockCodec::Raw, 3, 0, &[]));
        let exact = (buf.len() - BLOCK_HEADER_LEN - BLOCK_TRAILER_LEN) as u64;
        buf[14..22].copy_from_slice(&exact.to_le_bytes());
        match scan_block(&buf, 0) {
            Scan::Corrupt(e) => assert!(e.to_string().contains("checksum"), "{e}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn final_block_without_commit_word_is_torn() {
        let mut buf = encode_block(BlockKind::Empty, BlockCodec::Raw, 1, 0, &[]);
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert!(matches!(scan_block(&buf, 0), Scan::TornTail));
    }

    #[test]
    fn the_walk_steps_over_every_block_and_stops_where_it_cannot() {
        let mut buf = encode_block(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc");
        buf.extend_from_slice(&encode_block(
            BlockKind::Checkpoint,
            BlockCodec::Raw,
            1,
            2,
            b"cp",
        ));
        buf.extend_from_slice(&encode_block(BlockKind::Empty, BlockCodec::Raw, 2, 0, &[]));
        let steps: Vec<(BlockKind, u32, u64, u64)> = walk(&buf, 0)
            .map(|s| (s.kind, s.version, s.offset, s.end))
            .collect();
        assert_eq!(
            steps,
            [
                (BlockKind::Version, 1, 0, 33),
                (BlockKind::Checkpoint, 1, 33, 65),
                (BlockKind::Empty, 2, 65, 95),
            ]
        );
        let mut w = walk(&buf, 0);
        assert_eq!(w.by_ref().count(), 3);
        assert_eq!((w.offset(), w.torn_from().unwrap()), (95, None));
        // a strict prefix of a fourth block is a torn tail
        let mut torn = buf.clone();
        torn.extend_from_slice(&encode_block(BlockKind::Empty, BlockCodec::Raw, 3, 0, &[])[..10]);
        let mut w = walk(&torn, 33);
        assert_eq!(w.by_ref().count(), 2);
        assert_eq!(w.torn_from().unwrap(), Some(95));
        // an unknown kind or an implausible length stops the walk at that
        // block, and in the interior that is rot
        for (at, byte) in [(33, 9u8), (33 + 21, 0x40)] {
            let mut rot = buf.clone();
            rot[at] |= byte;
            let mut w = walk(&rot, 0);
            assert_eq!((w.by_ref().count(), w.offset()), (1, 33), "byte {at}");
            let err = w.torn_from().unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt { offset: 33, .. }),
                "{err}"
            );
        }
        // a rotted codec byte or raw length is stepped over: checking the
        // block is scan_block's
        for at in [1, 6 + 7] {
            let mut rot = buf.clone();
            rot[at] |= 0x40;
            assert_eq!(walk(&rot, 0).count(), 3, "byte {at}");
            assert!(matches!(scan_block(&rot, 0), Scan::Corrupt(_)), "byte {at}");
        }
    }

    /// What a walk from `from` yields and where it stops, with how
    /// [`Walk::torn_from`] classifies the bytes there.
    fn walked<S: Headers>(
        walk: Walk<S>,
        steps: impl FnOnce(&mut Walk<S>) -> Vec<Step>,
    ) -> (Vec<Step>, u64, Result<Option<u64>, String>) {
        let mut walk = walk;
        let steps = steps(&mut walk);
        let torn = walk.torn_from().map_err(|e| e.to_string());
        (steps, walk.offset(), torn)
    }

    /// The positioned reads of the file give the steps, the stop and the
    /// classification there that the file's bytes give: on every prefix of
    /// a segment holding every block kind, and with any one header byte
    /// flipped.
    #[test]
    fn the_file_and_its_bytes_walk_alike() {
        let mut buf = encode_block(BlockKind::Version, BlockCodec::Raw, 1, 3, b"abc");
        buf.extend_from_slice(&encode_block(
            BlockKind::Batch,
            BlockCodec::Raw,
            2,
            4,
            b"wxyz",
        ));
        buf.extend_from_slice(&encode_block(
            BlockKind::Checkpoint,
            BlockCodec::Raw,
            3,
            2,
            b"cp",
        ));
        buf.extend_from_slice(&encode_block(BlockKind::Empty, BlockCodec::Raw, 4, 0, &[]));
        let starts: Vec<u64> = walk(&buf, 0).map(|s| s.offset).collect();
        assert_eq!(starts.len(), 4);
        let mut cases: Vec<Vec<u8>> = (0..=buf.len()).map(|n| buf[..n].to_vec()).collect();
        for &start in &starts {
            for i in 0..BLOCK_HEADER_LEN {
                let mut flipped = buf.clone();
                flipped[start as usize + i] ^= 0xFF;
                cases.push(flipped);
            }
        }
        let path = crate::scratch_path("block-walk-file");
        for bytes in &cases {
            std::fs::write(&path, bytes).unwrap();
            let file = File::open(&path).unwrap();
            for from in [0, starts[1]] {
                let by_bytes = walked(walk(bytes, from), |w| w.by_ref().collect());
                let by_file = walked(walk_file(&file, bytes, from), |w| {
                    w.by_ref().collect::<Result<_, _>>().unwrap()
                });
                assert_eq!(by_file, by_bytes, "{} bytes from {from}", bytes.len());
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A header the file will not give up is an I/O error, not the end of
    /// the walk — a reader would cut the blocks behind it away as a torn
    /// tail.
    #[cfg(unix)]
    #[test]
    fn a_failed_header_read_is_an_error_not_a_stop() {
        let buf = encode_block(BlockKind::Empty, BlockCodec::Raw, 1, 0, &[]);
        let path = crate::scratch_path("block-walk-unreadable");
        std::fs::write(&path, &buf).unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let mut w = walk_file(&file, &buf, 0);
        assert!(matches!(w.next(), Some(Err(StoreError::Io(_)))));
        assert_eq!(w.offset(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Versions run 1 first, then one more after a version or empty block
    /// and more after a batch. A break is refused at the first of the two
    /// blocks around it that does not verify, at the second when both do,
    /// and the file's final block that does not verify is a torn tail.
    /// Where a rotted length sends the walk into the middle of the next
    /// block, the block it came from is refused.
    #[test]
    fn a_broken_sequence_is_refused_where_the_rot_is() {
        let segment = |blocks: &[(BlockKind, u32)]| {
            let mut buf = Vec::new();
            for &(kind, version) in blocks {
                buf.extend_from_slice(&encode_block(kind, BlockCodec::Raw, version, 2, b"ab"));
            }
            let steps: Vec<Step> = walk(&buf, 0).collect();
            (buf, steps)
        };
        let (buf, steps) = segment(&[
            (BlockKind::Version, 1),
            (BlockKind::Batch, 2),
            (BlockKind::Checkpoint, 4),
            (BlockKind::Empty, 5),
            (BlockKind::Version, 6),
        ]);
        assert_eq!(check_sequence(&buf, &steps).unwrap(), None);
        let version_byte = |i: usize| usize::try_from(steps[i].offset).unwrap() + 2;
        let checked = |buf: &[u8]| check_sequence(buf, &walk(buf, 0).collect::<Vec<_>>());
        let refused_at = |buf: &[u8]| match checked(buf) {
            Err(StoreError::Corrupt { offset, reason }) => (offset, reason),
            other => panic!("expected a refusal, got {other:?}"),
        };
        // the empty block's 5 rotted to 4 still follows the batch, and
        // breaks at the block after it: the empty block is refused
        let mut rot = buf.clone();
        rot[version_byte(3)] = 4;
        let (offset, reason) = refused_at(&rot);
        assert_eq!(offset, steps[3].offset);
        assert!(reason.contains("checksum"), "{reason}");
        // the first block's version rotted: refused at it
        let mut rot = buf.clone();
        rot[version_byte(0)] = 0;
        assert_eq!(refused_at(&rot).0, 0);
        // the final block's: a torn tail
        let mut rot = buf.clone();
        rot[version_byte(4)] = 9;
        assert_eq!(checked(&rot).unwrap(), Some(steps[4].offset));
        // blocks that verify and do not continue one another
        let (buf, steps) = segment(&[(BlockKind::Version, 1), (BlockKind::Empty, 3)]);
        match check_sequence(&buf, &steps) {
            Err(StoreError::Corrupt { offset, reason }) => {
                assert_eq!(offset, steps[1].offset);
                assert!(reason.contains("expected version 2, found 3"), "{reason}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        let (buf, steps) = segment(&[(BlockKind::Batch, 1), (BlockKind::Empty, 1)]);
        match check_sequence(&buf, &steps) {
            Err(StoreError::Corrupt { offset, reason }) => {
                assert_eq!(offset, steps[1].offset);
                assert!(reason.contains("not increasing"), "{reason}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // a length one byte long leads the walk off the block boundaries
        let (mut buf, steps) = segment(&[(BlockKind::Version, 1), (BlockKind::Version, 2)]);
        buf[14] += 1;
        let mut w = walk(&buf, 0);
        assert_eq!(w.by_ref().count(), 1);
        assert_ne!(w.offset(), steps[1].offset);
        match w.torn_from() {
            Err(StoreError::Corrupt { offset: 0, reason }) => {
                assert!(reason.contains("commit word"), "{reason}")
            }
            other => panic!("expected a refusal at 0, got {other:?}"),
        }
    }
}
