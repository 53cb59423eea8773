//! LZSS: LZ77 with a flag bit per token (literal vs back-reference).
//!
//! * window: 32 KiB (like DEFLATE);
//! * distances: variable-length (4-bit width + payload), so *near* matches
//!   cost fewer bits than far ones — the locality property that makes
//!   container grouping (XMill) and text grouping generally pay off, just
//!   as gzip's Huffman-coded distances do;
//! * matches: length 3..=258, encoded in 8 bits (`len - 3`);
//! * match finder: 3-byte hash chains of `u32` positions with a bounded
//!   probe depth, greedy with one-step lazy matching (the standard gzip
//!   heuristic); a candidate is extended a word at a time, and only if it
//!   agrees with the input where the best match so far ends.
//!
//! The format is self-delimiting via a leading varint holding the
//! uncompressed length.

mod decode;

pub use decode::{decompress, decompress_exact};

use crate::bitio::{write_varint, BitWriter};

const WINDOW: usize = 1 << 15; // 32 KiB
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = MIN_MATCH + 255;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 64;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `data`; output starts with a varint of the original length.
///
/// # Panics
///
/// If `data` is 4 GiB or longer: the match finder's positions are `u32`.
/// (A storage block's payload is at most 1 GiB.)
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10);
    write_varint(&mut out, data.len() as u64);
    let mut w = BitWriter::new();
    tokens(data, |v, n| w.write_bits(v, n));
    out.extend_from_slice(&w.finish());
    out
}

/// Ends a hash chain. Every position a chain holds is below it: a position
/// is chained only with three bytes after it, and the input is shorter
/// than `u32::MAX`.
const NONE: u32 = u32::MAX;

/// The token stream for `data`, handed to `put` as `(value, width)` bit
/// fields in stream order — the matching is here, the packing is the
/// caller's (tests pack the same fields with the bit-at-a-time writer).
fn tokens(data: &[u8], mut put: impl FnMut(u32, u8)) {
    assert!(
        u32::try_from(data.len()).is_ok(),
        "LZSS input of {} bytes: positions are u32",
        data.len()
    );
    let mut head = vec![NONE; 1 << HASH_BITS];
    let mut prev = vec![NONE; data.len().max(1)];

    let find = |head: &[u32], prev: &[u32], i: usize| -> Option<(usize, usize)> {
        if i + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = MAX_MATCH.min(data.len() - i);
        let here = &data[i..i + max_len];
        let mut best: Option<(usize, usize)> = None; // (len, dist)
        let mut cand = head[hash3(data, i)];
        let mut chain = 0;
        while cand != NONE && chain < MAX_CHAIN {
            let at = cand as usize;
            if i - at > WINDOW {
                break;
            }
            let there = &data[at..at + max_len];
            // a candidate that differs at the best length cannot beat it
            // (and `best` is shorter than `max_len`, or the walk had ended)
            if best.is_none_or(|(bl, _)| there[bl] == here[bl]) {
                let len = common_prefix(here, there);
                if len >= MIN_MATCH && best.is_none_or(|(bl, _)| len > bl) {
                    best = Some((len, i - at));
                    if len == max_len {
                        break;
                    }
                }
            }
            cand = prev[at];
            chain += 1;
        }
        best
    };
    let insert = |head: &mut [u32], prev: &mut [u32], i: usize| {
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            prev[i] = head[h];
            head[h] = i as u32; // below `NONE`: see its definition
        }
    };

    let mut i = 0usize;
    while i < data.len() {
        let m = find(&head, &prev, i);
        // lazy matching: prefer a longer match starting at i+1
        let take = match m {
            Some((len, dist)) => {
                let next = if i + 1 < data.len() {
                    // peek without inserting i first (conservative)
                    find(&head, &prev, i + 1)
                } else {
                    None
                };
                match next {
                    Some((nlen, _)) if nlen > len + 1 => None, // emit literal, match next round
                    _ => Some((len, dist)),
                }
            }
            None => None,
        };
        match take {
            Some((len, dist)) => {
                put(0, 1);
                // `dist - 1` as a 4-bit width and that many bits: distance
                // 1 costs 4 bits, distance 32768 costs 19
                let v = (dist - 1) as u32;
                let width = (32 - v.leading_zeros()) as u8;
                debug_assert!(width <= 15);
                put(u32::from(width), 4);
                put(v, width);
                put((len - MIN_MATCH) as u32, 8);
                for k in 0..len {
                    insert(&mut head, &mut prev, i + k);
                }
                i += len;
            }
            None => {
                put(1, 1);
                put(data[i] as u32, 8);
                insert(&mut head, &mut prev, i);
                i += 1;
            }
        }
    }
}

/// How many leading bytes `a` and `b` (of equal length) share, compared
/// eight at a time: the first set bit of the xor of two little-endian
/// words is in the first byte that differs.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
    let mut len = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    let tail = a[len..].iter().zip(&b[len..]);
    len + tail.take_while(|(x, y)| x == y).count()
}

/// The match finder the word-at-a-time one replaced — `usize` chains,
/// byte-at-a-time extension, every candidate extended — kept as what the
/// tests hold `tokens` to.
#[cfg(test)]
pub(crate) mod reference {
    use super::{hash3, HASH_BITS, MAX_CHAIN, MAX_MATCH, MIN_MATCH, WINDOW};

    pub(crate) fn tokens(data: &[u8], mut put: impl FnMut(u32, u8)) {
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; data.len().max(1)];

        let find = |head: &[usize], prev: &[usize], i: usize| -> Option<(usize, usize)> {
            if i + MIN_MATCH > data.len() {
                return None;
            }
            let mut best: Option<(usize, usize)> = None; // (len, dist)
            let mut cand = head[hash3(data, i)];
            let mut chain = 0;
            while cand != usize::MAX && chain < MAX_CHAIN {
                if i - cand > WINDOW {
                    break;
                }
                let max_len = MAX_MATCH.min(data.len() - i);
                let mut len = 0;
                while len < max_len && data[cand + len] == data[i + len] {
                    len += 1;
                }
                if len >= MIN_MATCH && best.is_none_or(|(bl, _)| len > bl) {
                    best = Some((len, i - cand));
                    if len == max_len {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            best
        };
        let insert = |head: &mut [usize], prev: &mut [usize], i: usize| {
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                prev[i] = head[h];
                head[h] = i;
            }
        };

        let mut i = 0usize;
        while i < data.len() {
            let m = find(&head, &prev, i);
            // lazy matching: prefer a longer match starting at i+1
            let take = match m {
                Some((len, dist)) => {
                    let next = if i + 1 < data.len() {
                        // peek without inserting i first (conservative)
                        find(&head, &prev, i + 1)
                    } else {
                        None
                    };
                    match next {
                        Some((nlen, _)) if nlen > len + 1 => None, // emit literal, match next round
                        _ => Some((len, dist)),
                    }
                }
                None => None,
            };
            match take {
                Some((len, dist)) => {
                    put(0, 1);
                    let v = (dist - 1) as u32;
                    let width = (32 - v.leading_zeros()) as u8;
                    put(u32::from(width), 4);
                    put(v, width);
                    put((len - MIN_MATCH) as u32, 8);
                    for k in 0..len {
                        insert(&mut head, &mut prev, i + k);
                    }
                    i += len;
                }
                None => {
                    put(1, 1);
                    put(data[i] as u32, 8);
                    insert(&mut head, &mut prev, i);
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> usize {
        let c = compress(data);
        assert_eq!(decompress(&c).as_deref(), Some(data));
        c.len()
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"abcabcabcabcabcabcabcabcabcabcabcabc".repeat(100);
        let c = round_trip(&data);
        assert!(c < data.len() / 10, "{} vs {}", c, data.len());
    }

    #[test]
    fn xml_like_text_compresses() {
        let mut s = String::new();
        for i in 0..500 {
            s.push_str(&format!(
                "<emp><fn>Name{i}</fn><ln>Surname{i}</ln><sal>90K</sal></emp>\n"
            ));
        }
        let c = round_trip(s.as_bytes());
        assert!(c < s.len() / 3, "{} vs {}", c, s.len());
    }

    #[test]
    fn incompressible_data_expands_bounded() {
        // pseudo-random bytes: ~9/8 expansion + header at worst
        let mut data = Vec::with_capacity(4096);
        let mut x = 0x12345678u32;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            data.push(x as u8);
        }
        let c = round_trip(&data);
        assert!(c <= data.len() * 9 / 8 + 16);
    }

    #[test]
    fn long_runs_use_max_match() {
        let data = vec![b'x'; 100_000];
        let c = round_trip(&data);
        assert!(c < 2_000, "run-length-ish compression expected, got {c}");
    }

    #[test]
    fn overlapping_matches_decode_correctly() {
        // "aaaaa..." forces dist=1 matches that overlap the output cursor
        let data = b"a".repeat(1000);
        round_trip(&data);
    }

    #[test]
    fn matches_across_window_boundary_are_rejected() {
        // data longer than the window still round-trips
        let mut data = Vec::new();
        for i in 0..(WINDOW * 3) {
            data.push((i % 251) as u8);
        }
        round_trip(&data);
    }

    /// `decompress` as it was: one bit per step off the reference reader,
    /// one byte per push.
    fn reference_decompress(buf: &[u8]) -> Option<Vec<u8>> {
        use crate::bitio::{read_varint, reference::BitReader};
        let mut pos = 0usize;
        let n = read_varint(buf, &mut pos)? as usize;
        let mut r = BitReader::new(&buf[pos..]);
        // (the one liberty taken: no `with_capacity(n)`, which is the abort
        // on a hostile length the new decoder exists to refuse)
        let mut out = Vec::new();
        while out.len() < n {
            if r.read_bit()? {
                out.push(r.read_bits(8)? as u8);
            } else {
                let nbits = r.read_bits(4)? as u8;
                let dist = if nbits == 0 { 0 } else { r.read_bits(nbits)? } as usize + 1;
                let len = r.read_bits(8)? as usize + MIN_MATCH;
                if dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        (out.len() == n).then_some(out)
    }

    /// `compress` as it was: the reference matcher's tokens through the
    /// reference writer.
    pub(crate) fn reference_compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, data.len() as u64);
        let mut w = crate::bitio::reference::BitWriter::default();
        reference::tokens(data, |v, n| w.write_bits(v, n));
        out.extend_from_slice(&w.finish());
        out
    }

    fn xorshift_bytes(len: usize, mut x: u32) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    /// Noise with its first 64 bytes repeated `dist` bytes on.
    fn repeat_at(dist: usize) -> Vec<u8> {
        let mut data = xorshift_bytes(dist, 0xED6E);
        data.extend_from_within(..64);
        data
    }

    /// Inputs that reach every decoder path: nothing, literals only, XML
    /// with near and far matches, runs (`dist = 1`, the match overlapping
    /// its own output), short periods, and more than a window of each.
    fn corpus() -> Vec<Vec<u8>> {
        let xml: String = (0..400)
            .map(|i| {
                format!(
                    "<emp id=\"{i}\"><fn>Name{i}</fn><sal>{}K</sal></emp>\n",
                    i % 7
                )
            })
            .collect();
        vec![
            Vec::new(),
            b"a".to_vec(),
            b"abcabcabcabc".to_vec(),
            xorshift_bytes(3000, 0x1234_5678),
            xml.clone().into_bytes(),
            vec![b'x'; 9_000],
            b"ab".repeat(500),
            b"abcdefg".repeat(300),
            (0..WINDOW * 2 + 100).map(|i| (i % 251) as u8).collect(),
            [
                xml.as_bytes(),
                &xorshift_bytes(WINDOW + 7, 99),
                xml.as_bytes(),
            ]
            .concat(),
        ]
    }

    /// Compressed against `compress` as it was — the reference matcher
    /// through the bit-at-a-time writer — so a change to either the
    /// matcher or the writer shows as different bytes; with a repeat at
    /// the window's edge and one byte past it.
    #[test]
    fn compress_writes_the_bytes_the_bit_at_a_time_writer_wrote() {
        for data in corpus()
            .into_iter()
            .chain([repeat_at(WINDOW), repeat_at(WINDOW + 1)])
        {
            let packed = compress(&data);
            assert_eq!(packed, reference_compress(&data), "{} bytes in", data.len());
            assert_eq!(decompress(&packed).as_deref(), Some(&data[..]));
            assert_eq!(
                decompress_exact(&packed, data.len(), Vec::new()),
                Some(data.clone())
            );
            assert_eq!(decompress_exact(&packed, data.len() + 1, Vec::new()), None);
        }
    }

    /// Decoding into a buffer handed in: its old contents never show, its
    /// allocation is kept when it holds the output (and replaced when it
    /// does not), and a stream of another length is refused as ever.
    #[test]
    fn decompress_exact_reuses_a_buffer_that_holds_the_output() {
        for data in corpus() {
            let packed = compress(&data);
            let big = vec![0xA5; data.len() + 64];
            let at = big.as_ptr();
            let out = decompress_exact(&packed, data.len(), big).unwrap();
            assert_eq!(out, data);
            assert_eq!(out.as_ptr(), at, "{} bytes: buffer not reused", data.len());
            let small = vec![0x5A; data.len() / 2];
            assert_eq!(
                decompress_exact(&packed, data.len(), small),
                Some(data.clone())
            );
            let junk = vec![0xFF; data.len()];
            assert_eq!(decompress_exact(&packed, data.len() + 1, junk), None);
        }
    }

    /// Journal payloads (`doc_to_bytes`) of a seeded OMIM release sequence:
    /// what an LZSS journal stores, with the long near and far repeats of
    /// real records that the corpus above only imitates.
    #[test]
    fn compress_writes_the_bytes_the_reference_matcher_chose_for_omim_payloads() {
        let releases = xarch_datagen::omim::OmimGen::new(0x1A55).sequence(120, 8);
        for (at, doc) in releases.iter().enumerate() {
            let payload = xarch_storage::payload::doc_to_bytes(doc).expect("a generated release");
            assert_eq!(
                compress(&payload),
                reference_compress(&payload),
                "release {at}: {} bytes in",
                payload.len()
            );
        }
    }

    /// Valid, truncated anywhere, or with any one bit flipped: the decoder
    /// answers exactly as the bit-at-a-time one did, and never panics.
    #[test]
    fn decodes_as_the_bit_at_a_time_decoder_did_intact_or_damaged() {
        for data in corpus() {
            let packed = compress(&data);
            // every cut and flip of a short stream; of a long one, every
            // one near its ends and a stride through its middle
            let near_an_end = |i: usize, len: usize| len < 512 || i < 16 || i + 16 >= len;
            for cut in (0..packed.len()).filter(|&i| near_an_end(i, packed.len()) || i % 251 == 0) {
                let short = &packed[..cut];
                assert_eq!(
                    decompress(short),
                    reference_decompress(short),
                    "cut at {cut}"
                );
            }
            let bits = packed.len() * 8;
            for bit in (0..bits).filter(|&i| near_an_end(i / 8, packed.len()) || i % 4001 == 0) {
                let mut flipped = packed.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(
                    decompress(&flipped),
                    reference_decompress(&flipped),
                    "bit {bit} flipped"
                );
            }
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes — almost never a stream `compress` wrote — and
        /// arbitrary inputs round-tripped.
        #[test]
        fn decodes_arbitrary_bytes_as_the_bit_at_a_time_decoder_did(
            declared in 0usize..600,
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            text in proptest::collection::vec(0u8..4, 0..600),
        ) {
            let mut hostile = Vec::new();
            write_varint(&mut hostile, declared as u64);
            hostile.extend_from_slice(&noise);
            assert_eq!(decompress(&hostile), reference_decompress(&hostile));
            assert_eq!(decompress(&noise), reference_decompress(&noise));
            let packed = compress(&text);
            assert_eq!(&packed, &reference_compress(&text));
            assert_eq!(decompress(&packed), Some(text));
        }
    }

    #[test]
    fn refuses_a_declared_length_the_stream_cannot_reach() {
        // truncated header
        assert_eq!(decompress(&[0x80]), None);
        // declared length longer than the stream, up to one no allocator
        // could serve: refused, not attempted
        for declared in [1000u64, 1 << 40, 1 << 60, u64::MAX] {
            let mut bogus = Vec::new();
            write_varint(&mut bogus, declared);
            assert_eq!(decompress(&bogus), None);
            bogus.extend_from_slice(&[0x00; 64]);
            assert_eq!(decompress(&bogus), None, "declared {declared}");
        }
        // about the most a stream can declare and still deliver: matches
        // at distance 1, 13 bits for 258 bytes
        let run = vec![7u8; 1 + 258 * 40];
        assert_eq!(decompress(&compress(&run)), Some(run));
    }

    #[test]
    fn utf8_text_round_trips() {
        let s = "naïve café — ναι — 日本語のテキスト".repeat(50);
        round_trip(s.as_bytes());
    }
}
