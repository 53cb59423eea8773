//! Hand-rolled CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) —
//! the checksum gzip and zip use — computed **slice-by-8**.
//!
//! The same function sits under every wire frame in both directions, every
//! journal append, and every block verified on reopen or cold read, so it
//! is written to run at a fraction of a nanosecond per byte rather than
//! one table lookup per byte: [`Crc32::update`] folds eight input bytes
//! into the state per step through eight 256-entry tables, and finishes
//! the (at most seven byte) tail one byte at a time.
//!
//! **Table generation.** `TABLES[0]` is the classic bytewise table: entry
//! `i` is the CRC state after shifting the byte `i` through the reflected
//! polynomial eight times. `TABLES[k][i]` is that state shifted through
//! `k` further zero bytes — eight more polynomial steps applied to
//! `TABLES[k-1][i]`, which equals `(t >> 8) ^ TABLES[0][t & 0xFF]`. A CRC
//! is linear over GF(2), so the state after eight bytes is the xor of each
//! byte's contribution shifted by the number of bytes that follow it:
//! byte 0 of the step indexes `TABLES[7]`, byte 7 indexes `TABLES[0]`.
//! The environment has no registry access, so all eight tables (8 KiB) are
//! generated in a `const` context at compile time.
//!
//! **Why not the hardware CRC.** The x86 `crc32` instruction and the
//! common ARM extension's fast path compute CRC-32C (Castagnoli,
//! `0x82F63B78`), a different polynomial. `docs/FORMAT.md` and
//! `docs/PROTOCOL.md` fix the IEEE polynomial for every block and frame
//! already written, so switching would be a format revision; slice-by-8
//! keeps the bytes and needs no `unsafe` and no target feature.

/// One bit-step of the reflected polynomial, eight times: the state after
/// shifting one more zero byte through.
const fn shift_byte(mut c: u32) -> u32 {
    let mut k = 0;
    while k < 8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
        k += 1;
    }
    c
}

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        // xarch-allow: cast-safety -- i < 256 fits losslessly; u32::try_from is not const
        tables[0][i] = shift_byte(i as u32);
        let mut k = 1;
        while k < 8 {
            tables[k][i] = shift_byte(tables[k - 1][i]);
            k += 1;
        }
        i += 1;
    }
    tables
}

const TABLES: [[u32; 256]; 8] = make_tables();

/// An incremental CRC-32 hasher.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// The state after one more input byte — the classic table step, and the
/// whole algorithm of the test-only reference.
#[inline]
fn step(state: u32, b: u8) -> u32 {
    // the table index is the low state byte xor the input byte —
    // expressed via `to_le_bytes` so no truncating cast is needed
    let idx = usize::from(state.to_le_bytes()[0] ^ b);
    TABLES[0][idx] ^ (state >> 8)
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut steps = bytes.chunks_exact(8);
        for s in &mut steps {
            let &[b0, b1, b2, b3, b4, b5, b6, b7] = s else {
                continue; // chunks_exact(8) yields nothing shorter
            };
            let [s0, s1, s2, s3] = state.to_le_bytes();
            state = TABLES[7][usize::from(b0 ^ s0)]
                ^ TABLES[6][usize::from(b1 ^ s1)]
                ^ TABLES[5][usize::from(b2 ^ s2)]
                ^ TABLES[4][usize::from(b3 ^ s3)]
                ^ TABLES[3][usize::from(b4)]
                ^ TABLES[2][usize::from(b5)]
                ^ TABLES[1][usize::from(b6)]
                ^ TABLES[0][usize::from(b7)];
        }
        for &b in steps.remainder() {
            state = step(state, b);
        }
        self.state = state;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise algorithm `update` replaced, kept as the reference.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |s, &b| step(s, b))
    }

    #[test]
    fn slice_by_8_is_the_bytewise_function() {
        // a seeded buffer (xorshift), every length at every start offset:
        // covers empty input, tails of 1..=7, and steps at any alignment
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..300)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[0]
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=257 {
                let bytes = &buf[offset..offset + len];
                let mut c = Crc32::new();
                c.update(bytes);
                assert_eq!(
                    c.state,
                    bytewise(0xFFFF_FFFF, bytes),
                    "offset {offset} len {len}"
                );
            }
        }
        // fed incrementally, split anywhere: the carried state is the same
        let input = &buf[..64];
        let whole = bytewise(0xFFFF_FFFF, input);
        for cut in 0..=input.len() {
            let mut c = Crc32::new();
            c.update(&input[..cut]);
            assert_eq!(c.state, bytewise(0xFFFF_FFFF, &input[..cut]), "cut {cut}");
            c.update(&input[cut..]);
            assert_eq!(c.state, whole, "cut {cut}");
        }
    }

    #[test]
    fn known_vectors() {
        // standard check values for CRC-32/ISO-HDLC
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"archiving scientific data";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"payload bytes under test".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
