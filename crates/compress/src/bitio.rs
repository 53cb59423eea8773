//! Bit-level I/O over byte buffers (LSB-first), plus LEB128 varints.
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

/// The low `n` bits of a word set (`n` ≤ 64).
#[inline]
fn low_bits(n: u32) -> u64 {
    u64::MAX.checked_shr(64 - n).unwrap_or(0)
}

/// Writes bits LSB-first into a growing byte vector, through a 64-bit
/// accumulator flushed four whole bytes at a time.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits not yet in `buf`, the oldest lowest; fewer than 32 between
    /// calls, and zero above them.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `n` bits of `v` (n ≤ 32).
    #[inline]
    pub fn write_bits(&mut self, v: u32, n: u8) {
        debug_assert!(n <= 32);
        let n = u32::from(n).min(32);
        self.acc |= (u64::from(v) & low_bits(n)) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.buf.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Flushes the bits still held, the last partial byte zero-padded, and
    /// returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let held = self.acc.to_le_bytes();
        self.buf
            .extend(held.iter().take(self.nbits.div_ceil(8) as usize));
        self.buf
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }
}

/// Reads bits LSB-first from a byte slice, through a 64-bit window
/// refilled by whole bytes — eight at once while the input lasts.
#[derive(Debug)]
pub struct BitReader<'a> {
    /// Input not yet in the window.
    rest: &'a [u8],
    /// The next `nbits` bits of input, the first lowest; zero above them.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            rest: buf,
            acc: 0,
            nbits: 0,
        }
    }

    /// Tops the window up to more than 56 bits, or to all that is left of
    /// the input.
    #[inline]
    fn refill(&mut self) {
        if let Some((word, _)) = self.rest.split_first_chunk::<8>() {
            // as many whole bytes as fit above the bits already held
            let take = (64 - self.nbits) / 8;
            let fresh = u64::from_le_bytes(*word) & low_bits(take * 8);
            self.acc |= fresh.checked_shl(self.nbits).unwrap_or(0);
            self.nbits += take * 8;
            self.rest = self.rest.get(take as usize..).unwrap_or_default();
        } else {
            while self.nbits <= 56 {
                let Some((&byte, rest)) = self.rest.split_first() else {
                    break;
                };
                self.acc |= u64::from(byte) << self.nbits;
                self.nbits += 8;
                self.rest = rest;
            }
        }
    }

    /// The next 32 bits of input without consuming them; bits past the end
    /// of the input read as zero. A caller decodes a whole token from the
    /// word and then [`BitReader::consume`]s its length, which is where a
    /// token the input ends inside is refused.
    #[inline]
    pub fn peek(&mut self) -> u32 {
        if self.nbits < 32 {
            self.refill();
        }
        self.acc as u32
    }

    /// Drops `n` bits from the front of the window; `None`, with nothing
    /// dropped, when the window holds fewer (call [`BitReader::peek`]
    /// first: the window is then short only at the end of the input).
    #[inline]
    pub fn consume(&mut self, n: u32) -> Option<()> {
        if n > self.nbits {
            return None;
        }
        self.acc = self.acc.checked_shr(n).unwrap_or(0);
        self.nbits -= n;
        Some(())
    }

    /// Reads `n` bits (n ≤ 32); `None` at end of input.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Option<u32> {
        debug_assert!(n <= 32);
        let n = u32::from(n).min(32);
        let word = self.peek();
        self.consume(n)?;
        Some((u64::from(word) & low_bits(n)) as u32)
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b != 0)
    }
}

/// Appends an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint, advancing `pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// The bit-at-a-time writer and reader the word-at-a-time ones replaced,
/// kept as what the tests hold them (and the LZSS coder over them) to.
#[cfg(test)]
pub(crate) mod reference {
    #[derive(Debug, Default)]
    pub struct BitWriter {
        buf: Vec<u8>,
        cur: u8,
        nbits: u8,
    }

    impl BitWriter {
        pub fn write_bits(&mut self, v: u32, n: u8) {
            for i in 0..n {
                let bit = (v >> i) & 1;
                self.cur |= (bit as u8) << self.nbits;
                self.nbits += 1;
                if self.nbits == 8 {
                    self.buf.push(self.cur);
                    self.cur = 0;
                    self.nbits = 0;
                }
            }
        }

        pub fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.buf.push(self.cur);
            }
            self.buf
        }
    }

    #[derive(Debug)]
    pub struct BitReader<'a> {
        buf: &'a [u8],
        pos: usize,
        bit: u8,
    }

    impl<'a> BitReader<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Self {
                buf,
                pos: 0,
                bit: 0,
            }
        }

        pub fn read_bits(&mut self, n: u8) -> Option<u32> {
            let mut v = 0u32;
            for i in 0..n {
                if self.pos >= self.buf.len() {
                    return None;
                }
                let bit = (self.buf[self.pos] >> self.bit) & 1;
                v |= (bit as u32) << i;
                self.bit += 1;
                if self.bit == 8 {
                    self.bit = 0;
                    self.pos += 1;
                }
            }
            Some(v)
        }

        pub fn read_bit(&mut self) -> Option<bool> {
            self.read_bits(1).map(|b| b != 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any sequence of writes yields the bytes the bit-at-a-time writer
        /// yields, and reading them back by any widths — past the end
        /// included — answers as the bit-at-a-time reader does.
        #[test]
        fn word_at_a_time_matches_bit_at_a_time(
            writes in proptest::collection::vec((any::<u32>(), 0u8..33), 0..200),
            reads in proptest::collection::vec(0u8..33, 0..260),
        ) {
            let mut w = BitWriter::new();
            let mut r = reference::BitWriter::default();
            let mut bits = 0usize;
            for &(v, n) in &writes {
                w.write_bits(v, n);
                r.write_bits(v, n);
                bits += usize::from(n);
                prop_assert_eq!(w.bit_len(), bits);
            }
            let bytes = w.finish();
            prop_assert_eq!(&bytes, &r.finish());

            let mut fast = BitReader::new(&bytes);
            let mut slow = reference::BitReader::new(&bytes);
            for &n in &reads {
                let want = slow.read_bits(n);
                prop_assert_eq!(fast.read_bits(n), want);
                if want.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn peek_and_consume_stop_at_the_end_of_input() {
        let bytes = [0xA5u8, 0x0F, 0xFF];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(), 0x00FF_0FA5);
        assert_eq!(r.consume(20), Some(()));
        assert_eq!(r.peek(), 0xF);
        assert_eq!(r.consume(5), None);
        assert_eq!(r.consume(4), Some(()));
        assert_eq!((r.peek(), r.consume(1)), (0, None));
        // a long input refills by words and loses nothing between them
        let long: Vec<u8> = (0..=255u8).collect();
        let mut r = BitReader::new(&long);
        for (i, &b) in long.iter().enumerate() {
            let n = if i % 2 == 0 { 3 } else { 5 };
            assert_eq!(r.read_bits(n), Some(u32::from(b) & ((1 << n) - 1)));
            assert_eq!(r.read_bits(8 - n), Some(u32::from(b) >> n));
        }
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn bits_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bit(true);
        w.write_bits(0xABCD, 16);
        w.write_bits(7, 5);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(16), Some(0xABCD));
        assert_eq!(r.read_bits(5), Some(7));
    }

    #[test]
    fn read_past_end_is_none() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn varint_round_trip() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncated_is_none() {
        let buf = [0x80u8]; // continuation bit but no next byte
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }

    #[test]
    fn bit_len_tracks() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 13);
        assert_eq!(w.bit_len(), 13);
    }
}
