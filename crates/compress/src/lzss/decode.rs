//! The LZSS decoder: the one part of the coder that reads bytes it did
//! not write. It takes each token whole from a 32-bit view of the stream
//! and copies a match in one piece, and it answers `None` — never a panic,
//! never an allocation sized by the stream's own say-so alone — to input
//! that is not an LZSS stream.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use super::{MAX_MATCH, MIN_MATCH};
use crate::bitio::{read_varint, BitReader};

/// Fewest bits a token takes: a literal (flag, the byte).
const MIN_TOKEN_BITS: usize = 1 + 8;

/// Decompresses a buffer produced by [`compress`](super::compress).
pub fn decompress(buf: &[u8]) -> Option<Vec<u8>> {
    decode(buf, None, Vec::new())
}

/// [`decompress`] for a caller that knows how long the output must be: a
/// stream declaring any other length is refused before anything is
/// allocated for it. The output goes into `out`'s allocation, which is
/// reused (its contents dropped) when it can hold the output; else `out`
/// is freed and a buffer of exactly the output's length allocated. A
/// reader that decodes block after block into the buffers it lets go of
/// touches no fresh pages for them; `Vec::new()` allocates afresh.
pub fn decompress_exact(buf: &[u8], len: usize, out: Vec<u8>) -> Option<Vec<u8>> {
    decode(buf, Some(len), out)
}

fn decode(buf: &[u8], expected: Option<usize>, mut out: Vec<u8>) -> Option<Vec<u8>> {
    let mut pos = 0usize;
    let n = usize::try_from(read_varint(buf, &mut pos)?).ok()?;
    if expected.is_some_and(|len| len != n) {
        return None;
    }
    let stream = buf.get(pos..)?;
    // the declared length is the stream's own claim: hold it to what the
    // bits that follow could possibly produce — no more tokens than fit,
    // no token longer than the longest match — before allocating for it
    let most = (stream.len().saturating_mul(8) / MIN_TOKEN_BITS).saturating_mul(MAX_MATCH);
    if n > most {
        return None;
    }
    let mut r = BitReader::new(stream);
    out.clear();
    if out.capacity() < n {
        out = Vec::with_capacity(n);
    }
    while out.len() < n {
        let word = r.peek();
        if word & 1 == 1 {
            // literal: flag, 8 bits
            r.consume(9)?;
            out.push((word >> 1) as u8);
            continue;
        }
        // match: flag, 4-bit width, that many bits of `dist - 1`, 8 bits
        // of `len - MIN_MATCH` — 28 bits at most
        let width = (word >> 1) & 0xF;
        let dist = ((word >> 5) & ((1 << width) - 1)) as usize + 1;
        let len = ((word >> (5 + width)) & 0xFF) as usize + MIN_MATCH;
        r.consume(13 + width)?;
        let start = out.len().checked_sub(dist)?;
        // a match longer than its distance runs into its own output: what
        // lies from `start` on repeats every `dist` bytes, so each pass
        // copies all there is of it and the next finds twice as much
        let mut left = len;
        while left > 0 {
            let take = left.min(out.len() - start);
            out.extend_from_within(start..start + take);
            left -= take;
        }
    }
    (out.len() == n).then_some(out)
}
