//! Checkpoint block payloads: a back-chained snapshot of the
//! materialized archive state.
//!
//! A checkpoint block (kind 4, see `docs/FORMAT.md` §Checkpoint blocks)
//! carries the archive's serialized state as produced by
//! [`xarch_core::state::encode_archive`], wrapped in a small envelope:
//!
//! ```text
//! ┌───────────────────┬─────────────────┬───────────────────────────┐
//! │ prev varint       │ covered varint  │ state: varint len + bytes │
//! │ (file offset of   │ (latest version │ (opaque backend payload,  │
//! │ the previous      │ the state       │ tagged — see              │
//! │ checkpoint block, │ includes)       │ xarch_core::state)        │
//! │ 0 = none)         │                 │                           │
//! └───────────────────┴─────────────────┴───────────────────────────┘
//! ```
//!
//! `prev` back-chains each checkpoint to the one before it. It is written
//! for the format, but no reader follows it: recovery takes the
//! checkpoints the block walk finds (`crate::block::walk`), newest first.
//! `covered` duplicates the block header's version field so a decoded
//! payload is self-contained.
//! Checkpoints are *pure redundancy*: every bit of state they carry is
//! derivable by replaying the journal, so a damaged checkpoint is loudly
//! recorded and skipped — never a reason an open fails.

use xarch_core::wire::{get_bytes, get_varint, put_bytes, put_varint};
use xarch_core::StoreError;

/// A decoded checkpoint payload, borrowing the state from the payload
/// bytes it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPayload<'a> {
    /// File offset of the previous checkpoint block's header, `0` when
    /// this is the segment's first checkpoint (offset 0 is always inside
    /// the superblock, so it cannot address a block).
    pub prev: u64,
    /// The latest version the snapshot covers: restoring it and replaying
    /// blocks for versions `covered + 1..` rebuilds the full state.
    pub covered: u32,
    /// The backend-tagged opaque state (see `xarch_core::state`).
    pub state: &'a [u8],
}

/// Encodes a checkpoint payload (the *uncompressed* block payload; the
/// segment layer may still run it through a block codec).
pub fn encode_checkpoint(prev: u64, covered: u32, state: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(state.len() + 20);
    put_varint(&mut out, prev);
    put_varint(&mut out, u64::from(covered));
    put_bytes(&mut out, state);
    out
}

/// Decodes a checkpoint payload. `payload_offset` is the file offset of
/// the decoded payload's first byte, so every error is positioned in file
/// coordinates.
pub fn decode_checkpoint(
    payload: &[u8],
    payload_offset: u64,
) -> Result<CheckpointPayload<'_>, StoreError> {
    let at = |pos: usize, reason: String| StoreError::Corrupt {
        offset: payload_offset.saturating_add(pos as u64),
        reason,
    };
    let wire = |e: xarch_core::wire::WireError| at(e.offset, format!("checkpoint: {}", e.reason));
    let mut pos = 0usize;
    let prev = get_varint(payload, &mut pos).map_err(wire)?;
    let covered_at = pos;
    let covered_raw = get_varint(payload, &mut pos).map_err(wire)?;
    let covered = u32::try_from(covered_raw).map_err(|_| {
        at(
            covered_at,
            "checkpoint: covered version overflows u32".into(),
        )
    })?;
    let state = get_bytes(payload, &mut pos).map_err(wire)?;
    if pos != payload.len() {
        return Err(at(pos, "checkpoint: trailing bytes after state".into()));
    }
    Ok(CheckpointPayload {
        prev,
        covered,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let enc = encode_checkpoint(1234, 77, b"opaque state");
        let dec = decode_checkpoint(&enc, 500).unwrap();
        assert_eq!(dec.prev, 1234);
        assert_eq!(dec.covered, 77);
        assert_eq!(dec.state, b"opaque state");
    }

    #[test]
    fn first_checkpoint_has_no_back_chain() {
        let enc = encode_checkpoint(0, 1, &[]);
        let dec = decode_checkpoint(&enc, 0).unwrap();
        assert_eq!(dec.prev, 0);
        assert!(dec.state.is_empty());
    }

    #[test]
    fn truncation_and_trailing_bytes_are_positioned_errors() {
        let enc = encode_checkpoint(9, 3, b"state");
        for cut in 0..enc.len() {
            let err = decode_checkpoint(&enc[..cut], 100).unwrap_err();
            let StoreError::Corrupt { offset, .. } = err else {
                panic!("expected Corrupt, got {err}");
            };
            assert!(offset >= 100, "offset {offset} not file-positioned");
        }
        let mut long = enc.clone();
        long.push(0);
        let err = decode_checkpoint(&long, 0).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn covered_version_overflow_is_rejected() {
        let mut enc = Vec::new();
        xarch_core::wire::put_varint(&mut enc, 0);
        xarch_core::wire::put_varint(&mut enc, u64::from(u32::MAX) + 1);
        xarch_core::wire::put_bytes(&mut enc, &[]);
        let err = decode_checkpoint(&enc, 0).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }
}
