//! Pluggable block codecs for storage payloads.
//!
//! The durable archive journal (`xarch_storage`) stores one payload per
//! committed version and tags each block with the codec that encoded it,
//! so compression is a per-block choice rather than a file-level one —
//! the same framing trick cold-storage formats use so old blocks stay
//! readable when the preferred codec changes.

use std::borrow::Cow;

use crate::lzss;

/// How a storage block's payload is encoded on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockCodec {
    /// Payload bytes are stored verbatim.
    #[default]
    Raw,
    /// Payload is compressed with the LZSS (gzip-class) coder.
    Lzss,
}

impl BlockCodec {
    /// The on-disk codec tag.
    pub const fn id(self) -> u8 {
        match self {
            BlockCodec::Raw => 0,
            BlockCodec::Lzss => 1,
        }
    }

    /// Resolves an on-disk tag back to a codec.
    pub fn from_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(BlockCodec::Raw),
            1 => Some(BlockCodec::Lzss),
            _ => None,
        }
    }

    /// Encodes `data`, returning the codec actually used and the encoded
    /// bytes. A compressing codec falls back to [`BlockCodec::Raw`] when
    /// compression does not shrink the payload, so callers must record the
    /// returned codec, not the requested one. Raw (and fallback) output
    /// borrows the input — no copy on the uncompressed hot path. Empty input
    /// has nothing to shrink and is not handed to the compressor.
    pub fn encode(self, data: &[u8]) -> (BlockCodec, Cow<'_, [u8]>) {
        match self {
            BlockCodec::Lzss if !data.is_empty() => {
                let c = lzss::compress(data);
                if c.len() < data.len() {
                    (BlockCodec::Lzss, Cow::Owned(c))
                } else {
                    (BlockCodec::Raw, Cow::Borrowed(data))
                }
            }
            _ => (BlockCodec::Raw, Cow::Borrowed(data)),
        }
    }

    /// Decodes bytes written by [`BlockCodec::encode`] for a payload of
    /// `raw_len` bytes. Returns `None` when `data` is not a valid encoding
    /// of exactly that many bytes under this codec — decided from what the
    /// encoding declares, before anything is allocated on its word. A raw
    /// payload is borrowed where it lies, never copied; a compressed one
    /// is decoded from there into `buf`'s allocation when it holds the
    /// payload, else into a buffer of its own ([`lzss::decompress_exact`]).
    pub fn decode(self, data: &[u8], raw_len: usize, buf: Vec<u8>) -> Option<Cow<'_, [u8]>> {
        match self {
            BlockCodec::Raw => (data.len() == raw_len).then_some(Cow::Borrowed(data)),
            BlockCodec::Lzss => lzss::decompress_exact(data, raw_len, buf).map(Cow::Owned),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for c in [BlockCodec::Raw, BlockCodec::Lzss] {
            assert_eq!(BlockCodec::from_id(c.id()), Some(c));
        }
        assert_eq!(BlockCodec::from_id(9), None);
    }

    #[test]
    fn raw_round_trips() {
        let data = b"hello world".to_vec();
        let (c, enc) = BlockCodec::Raw.encode(&data);
        assert_eq!(c, BlockCodec::Raw);
        assert!(matches!(enc, Cow::Borrowed(_)));
        let dec = c.decode(&enc, data.len(), Vec::new());
        assert!(matches!(dec, Some(Cow::Borrowed(d)) if d == &data[..]));
        assert_eq!(c.decode(&data, data.len() + 1, Vec::new()), None);
    }

    #[test]
    fn lzss_round_trips_and_shrinks_repetitive_data() {
        let data: Vec<u8> = b"<rec><id>1</id><val>abc</val></rec>"
            .iter()
            .cycle()
            .take(3500)
            .copied()
            .collect();
        let (c, enc) = BlockCodec::Lzss.encode(&data);
        assert_eq!(c, BlockCodec::Lzss);
        assert!(enc.len() < data.len());
        assert_eq!(
            c.decode(&enc, data.len(), Vec::new()).as_deref(),
            Some(&data[..])
        );
        assert_eq!(c.decode(&enc, data.len() - 1, Vec::new()), None);
    }

    #[test]
    fn lzss_falls_back_to_raw_on_incompressible_input() {
        // a short, non-repeating payload: LZSS adds overhead, so encode
        // must report Raw and store the bytes verbatim
        let data: Vec<u8> = (0u8..=50).collect();
        let (c, enc) = BlockCodec::Lzss.encode(&data);
        assert_eq!(c, BlockCodec::Raw);
        assert!(matches!(enc, Cow::Borrowed(_)));
        assert_eq!(enc.as_ref(), &data[..]);
    }
}
