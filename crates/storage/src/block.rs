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
    /// Stored payload bytes (still encoded per `header.codec`): the buffer
    /// a streaming reader read them into, or borrowed from a mapped file.
    pub payload: Cow<'a, [u8]>,
    /// Byte offset of the block header within the file.
    pub offset: u64,
}

/// The payload of a verified block as it was handed to the writer: the
/// stored bytes decoded per `header.codec`, exactly `header.raw_len` of
/// them. The header's length (at most [`MAX_PAYLOAD`], or the block would
/// not have scanned) is the only one trusted: an encoding that declares
/// another is refused before anything is allocated for it. Takes the block
/// by value, so an owned raw payload is moved out rather than copied, and
/// a borrowed one is copied once or decompressed straight from the map.
pub fn decode_payload(b: ScannedBlock<'_>) -> Result<Vec<u8>, StoreError> {
    let ScannedBlock {
        header,
        payload,
        offset,
    } = b;
    usize::try_from(header.raw_len)
        .ok()
        .and_then(|raw_len| header.codec.decode(payload, raw_len))
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

/// The declared payload size of the block whose complete 22-byte header is
/// in `header`, or `None` when `header` is shorter than
/// [`BLOCK_HEADER_LEN`]. Used by streaming readers to know how much to
/// read next; the value is *unvalidated* (check against [`MAX_PAYLOAD`]
/// before allocating).
pub fn declared_payload_len(header: &[u8]) -> Option<u64> {
    le_u64(header, 14)
}

/// Examines one block given its complete 22-byte `header`, the bytes read
/// after it (`body` = payload + trailer, possibly short at end of file,
/// owned or borrowed: the verified payload is handed back in it, never
/// copied), its file `offset`, `bytes_after_end` — how many file bytes
/// exist beyond the block's declared end — and `eof_commit_word` — whether
/// the file's final four bytes are [`COMMIT_MAGIC`].
///
/// Torn-write classification leans on append-only prefix semantics: a
/// crashed append leaves a strict *prefix* of the block, so a complete
/// header is authored bytes and its lengths can be trusted to be within
/// [`MAX_PAYLOAD`] (the writer enforces that bound). An impossible length
/// in a complete header is therefore bit rot, never a torn write — it must
/// fail loudly rather than silently truncate away later committed blocks.
/// A *plausible* rotted length that runs past end of file is caught by
/// `eof_commit_word`: a genuine torn append cannot leave a later block's
/// commit word as the file's final bytes, so "length overruns the file,
/// yet the file ends committed" is also bit rot, not a tear.
pub fn scan_block_parts<'a>(
    header: &[u8],
    body: impl Into<Cow<'a, [u8]>>,
    offset: u64,
    bytes_after_end: u64,
    eof_commit_word: bool,
) -> Scan<'a> {
    let body = body.into();
    if header.len() < BLOCK_HEADER_LEN {
        return Scan::TornTail;
    }
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
        return if eof_commit_word {
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
        return if bytes_after_end == 0 {
            Scan::TornTail
        } else {
            corrupt(offset, "missing commit word on an interior block")
        };
    }
    let Some(header_fixed) = header.get(..BLOCK_HEADER_LEN) else {
        return Scan::TornTail;
    };
    let mut crc = crate::crc::Crc32::new();
    crc.update(header_fixed);
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
        return if bytes_after_end == 0 && !contains_committed_block(payload) {
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
    // hand the verified payload back in the buffer it was read into (the
    // trailer is 8 bytes — truncating beats copying on the replay path)
    let payload = match body {
        Cow::Owned(mut bytes) => {
            bytes.truncate(payload_len);
            Cow::Owned(bytes)
        }
        Cow::Borrowed(bytes) => Cow::Borrowed(bytes.get(..payload_len).unwrap_or_default()),
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
/// intact committed block. The byte scan's cheap header filter (kind,
/// codec, bounded lengths, in-range end) passes for roughly 2⁻⁵⁰ of random
/// offsets, so the CRC is almost never computed — this only runs on the
/// rare recovery path anyway.
fn contains_committed_block(region: &[u8]) -> bool {
    let min = BLOCK_HEADER_LEN + BLOCK_TRAILER_LEN;
    if region.len() < min {
        return false;
    }
    for s in 0..=region.len() - min {
        let Some(h) = region.get(s..s + BLOCK_HEADER_LEN) else {
            continue;
        };
        let (Some(&kind_id), Some(&codec_id)) = (h.first(), h.get(1)) else {
            continue;
        };
        if BlockKind::from_id(kind_id).is_none() || BlockCodec::from_id(codec_id).is_none() {
            continue;
        }
        let (Some(raw_len), Some(stored_len)) = (le_u64(h, 6), declared_payload_len(h)) else {
            continue;
        };
        if stored_len > MAX_PAYLOAD || raw_len > MAX_PAYLOAD {
            continue;
        }
        let Ok(payload_len) = usize::try_from(stored_len) else {
            continue;
        };
        let Some(end) = payload_len
            .checked_add(BLOCK_TRAILER_LEN)
            .and_then(|span| (s + BLOCK_HEADER_LEN).checked_add(span))
        else {
            continue;
        };
        if end > region.len() {
            continue;
        }
        let Some(trailer) = region.get(end - BLOCK_TRAILER_LEN..end) else {
            continue;
        };
        if trailer.get(4..) != Some(COMMIT_MAGIC.to_le_bytes().as_slice()) {
            continue;
        }
        let (Some(stored_crc), Some(covered)) =
            (le_u32(trailer, 0), region.get(s..end - BLOCK_TRAILER_LEN))
        else {
            continue;
        };
        if crc32(covered) == stored_crc {
            return true;
        }
    }
    false
}

/// Examines the block starting at `offset` in `buf`, where `buf` holds the
/// **whole file** (indexing is offset-absolute, and the end of `buf` is
/// treated as end of file). In-memory convenience over
/// [`scan_block_parts`]: the CRC is checked over `buf` in place, and a
/// verified block's payload borrows from it.
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
    let Some(stored_len) = declared_payload_len(header) else {
        return Scan::TornTail;
    };
    let needed = stored_len.saturating_add(BLOCK_TRAILER_LEN as u64);
    let bytes_after_end = (body.len() as u64).saturating_sub(needed);
    let Ok(take) = usize::try_from(needed.min(body.len() as u64)) else {
        return Scan::TornTail;
    };
    let Some(taken) = body.get(..take) else {
        return Scan::TornTail;
    };
    let eof_commit_word = buf.last_chunk::<4>() == Some(&COMMIT_MAGIC.to_le_bytes());
    scan_block_parts(header, taken, offset, bytes_after_end, eof_commit_word)
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
}
