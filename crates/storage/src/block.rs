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
//! steps through it with one header walk, [`walk`], and checks each block
//! it reads, and the bytes where the walk stopped, with [`scan_block`].

use std::borrow::Cow;

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

/// The header walk over a segment file's bytes: every block from a given
/// offset on, 22 header bytes read per block and its payload stepped over.
/// It stops at the first header it cannot step over — an unknown kind, an
/// implausible stored length, a span past end of file — and the bytes
/// there are then classified by [`scan_block`].
#[derive(Debug, Clone)]
pub struct Walk<'a> {
    bytes: &'a [u8],
    offset: u64,
}

/// Walks the block headers of the file `bytes` (all of it, so offsets are
/// file offsets) from the block at `from`.
pub fn walk(bytes: &[u8], from: u64) -> Walk<'_> {
    Walk {
        bytes,
        offset: from,
    }
}

/// The block at `offset` in `bytes` if its header can be stepped over.
fn step_at(bytes: &[u8], offset: u64) -> Option<Step> {
    let header = bytes
        .get(usize::try_from(offset).ok()?..)?
        .get(..BLOCK_HEADER_LEN)?;
    let kind = BlockKind::from_id(*header.first()?)?;
    let stored_len = declared_payload_len(header).filter(|&l| l <= MAX_PAYLOAD)?;
    let end = offset.checked_add(span(stored_len))?;
    (end <= bytes.len() as u64).then_some(Step {
        offset,
        kind,
        version: le_u32(header, 2)?,
        end,
    })
}

/// The file span of a block holding `stored_len` payload bytes.
pub(crate) fn span(stored_len: u64) -> u64 {
    stored_len + (BLOCK_HEADER_LEN + BLOCK_TRAILER_LEN) as u64
}

impl Walk<'_> {
    /// Where the bytes the walk has not stepped over begin: once it is
    /// exhausted, the end of file or the header it stopped at.
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }

    /// Classifies the bytes from where the walk stands to end of file by
    /// the format's torn-vs-rot rules ([`scan_block`]): `Ok(None)` when
    /// there are none, `Ok(Some(offset))` when they are a torn tail — an
    /// append that never committed — and the positioned corruption
    /// otherwise.
    pub(crate) fn torn_from(&self) -> Result<Option<u64>, StoreError> {
        if self.offset >= self.bytes.len() as u64 {
            return Ok(None);
        }
        match scan_block(self.bytes, self.offset) {
            Scan::TornTail => Ok(Some(self.offset)),
            Scan::Corrupt(e) => Err(e),
            Scan::Block(_) => Err(StoreError::Corrupt {
                offset: self.offset,
                reason: "header walk stopped at a block that verifies".into(),
            }),
        }
    }
}

impl Iterator for Walk<'_> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let step = step_at(self.bytes, self.offset)?;
        self.offset = step.end;
        Some(step)
    }
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
        let block = step_at(region, s)
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
}
