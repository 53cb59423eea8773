//! Hand-rolled CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) —
//! the checksum gzip and zip use — computed by **carry-less-multiply
//! folding** where the CPU has it and **slice-by-8** everywhere else.
//!
//! The same function sits under every wire frame in both directions, every
//! journal append, and every block verified on reopen or cold read, so it
//! has to run at memory speed: a fixity check cheap enough that no path is
//! ever tempted to skip one.
//!
//! **Which path runs.** [`Crc32::update`] decides per call:
//! * On `x86_64`, when the CPU reports `pclmulqdq` and `sse4.1` (checked at
//!   run time, once per process by `std`'s cache) and the input is at least
//!   `FOLD_MIN` (64) bytes, the folded kernel consumes every whole 16-byte
//!   lane of it; slice-by-8 finishes the tail of fewer than 16 bytes.
//! * Shorter inputs, other architectures and CPUs without the features go
//!   to slice-by-8 whole.
//!
//! Both paths compute the same function: the state carries over between
//! `update` calls whichever path each one took.
//!
//! **Folding** (Gopal et al., *Fast CRC Computation for Generic Polynomials
//! Using PCLMULQDQ*, Intel 2009). A CRC is the message polynomial times
//! `x^32`, reduced mod `P`, and multiplying by `x^n mod P` carries a chunk
//! `n` bits further along the message without changing the remainder. So
//! the kernel holds four 128-bit lanes, and each 64-byte step multiplies
//! every lane by `x^512`'s residues (two carry-less multiplies, one per
//! quadword) and xors in the next 64 input bytes. Then the four lanes fold
//! into one, whole 16-byte lanes fold in by `x^128`'s residues, and the 128
//! bits reduce to 64, then by Barrett reduction to the 32-bit state. The
//! constants are the powers of `x` each step needs, reduced mod `P` —
//! documented beside each and re-derived by the tests from the polynomial.
//!
//! **Slice-by-8.** `TABLES[0]` is the classic bytewise table: entry `i` is
//! the CRC state after shifting the byte `i` through the reflected
//! polynomial eight times. `TABLES[k][i]` is that state shifted through `k`
//! further zero bytes. A CRC is linear over GF(2), so the state after eight
//! bytes is the xor of each byte's contribution shifted by the number of
//! bytes that follow it: byte 0 of the step indexes `TABLES[7]`, byte 7
//! indexes `TABLES[0]`. All eight tables (8 KiB) are generated in a `const`
//! context at compile time, and every lookup is a `u8` into 256 entries.
//!
//! **Why not the hardware CRC.** The x86 `crc32` instruction and the
//! common ARM extension's fast path compute CRC-32C (Castagnoli,
//! `0x82F63B78`), a different polynomial. `docs/FORMAT.md` and
//! `docs/PROTOCOL.md` fix the IEEE polynomial for every block and frame
//! already written, so switching would be a format revision. Folding works
//! for any polynomial: it keeps IEEE, and no byte on disk or on the wire
//! changes.

/// The reflected IEEE polynomial: bit `31 - k` is the coefficient of `x^k`
/// (`x^32` is implied).
const POLY: u32 = 0xEDB8_8320;

/// The state after `bits` steps of the reflected polynomial from `c`: each
/// step multiplies by `x`, reducing mod `P`.
const fn shift(mut c: u32, bits: u32) -> u32 {
    let mut k = 0;
    while k < bits {
        c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
        k += 1;
    }
    c
}

/// The slice-by-8 table for a byte followed by `zeros` zero bytes.
const fn table(zeros: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut rest: &mut [u32] = &mut t;
    let mut byte = 0;
    while let Some((entry, tail)) = rest.split_first_mut() {
        *entry = shift(byte, 8 * (zeros + 1));
        rest = tail;
        byte += 1;
    }
    t
}

const TABLES: [[u32; 256]; 8] = [
    table(0),
    table(1),
    table(2),
    table(3),
    table(4),
    table(5),
    table(6),
    table(7),
];

/// The shortest input the folded kernel takes: its first step is 64 bytes,
/// and there it already beats slice-by-8 threefold — 11–12 ns against
/// 30–36 ns for 64 bytes, 15–28 against 145–160 ns for 256, 19–21 GB/s
/// against 1.5 GB/s for 360 KB (Xeon with PCLMULQDQ, 2 vCPUs, release
/// build). Shorter inputs take slice-by-8 whole.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const FOLD_MIN: usize = 64;

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

/// `table[i]`, in a form that cannot panic: a `u8` is always inside 256
/// entries, so the check compiles away.
#[inline(always)]
fn at(table: &[u32; 256], i: u8) -> u32 {
    table.get(usize::from(i)).copied().unwrap_or(0)
}

/// The state after one more input byte — the classic table step, and the
/// whole algorithm of the test-only reference.
#[inline]
fn step(state: u32, b: u8) -> u32 {
    let [t0, ..] = &TABLES;
    let [low, ..] = state.to_le_bytes();
    at(t0, low ^ b) ^ (state >> 8)
}

/// Slice-by-8: eight input bytes per step through the eight tables, then
/// the (at most seven byte) tail one byte at a time.
fn slice_by_8(mut state: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut steps = bytes.chunks_exact(8);
    for s in &mut steps {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = s else {
            continue; // chunks_exact(8) yields nothing shorter
        };
        let [s0, s1, s2, s3] = state.to_le_bytes();
        state = at(t7, b0 ^ s0)
            ^ at(t6, b1 ^ s1)
            ^ at(t5, b2 ^ s2)
            ^ at(t4, b3 ^ s3)
            ^ at(t3, b4)
            ^ at(t2, b5)
            ^ at(t1, b6)
            ^ at(t0, b7);
    }
    steps.remainder().iter().fold(state, |s, &b| step(s, b))
}

/// The folded kernel, where the CPU and the input length admit it: the
/// state after the bytes it consumed, and the bytes it left (fewer than 16
/// when it ran, all of them when it did not).
#[cfg(target_arch = "x86_64")]
fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
    if bytes.len() >= FOLD_MIN
        && std::is_x86_feature_detected!("pclmulqdq")
        && std::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `clmul::fold` enables `pclmulqdq` and `sse4.1` and
        // nothing else, and the CPU reported both just above.
        return unsafe { clmul::fold(state, bytes) };
    }
    (state, bytes)
}

#[cfg(not(target_arch = "x86_64"))]
fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
    (state, bytes)
}

/// The `PCLMULQDQ` kernel. A 128-bit lane holds 16 message bytes in order,
/// reflected like the state: bit 0 of byte 0 is the highest power of `x`,
/// so the first quadword is the lane's high half. Each residue
/// `r = x^n mod P` is stored bit-reversed and shifted left by one (33
/// bits), which a quadword reads as `x^31·r`, and a reflected carry-less
/// product gains one more factor `x`. So carrying a lane `d` bits on takes
/// `x^(d+32)` for its first quadword and `x^(d−32)` for its second. `P`
/// and `μ` are stored bit-reversed over their 33 coefficients.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(4·128+32) mod P`: carries a lane's first quadword 512 bits on.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    /// `x^(4·128−32) mod P`: carries its second quadword 512 bits on.
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32) mod P`: carries a lane's first quadword 128 bits on.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    /// `x^(128−32) mod P`: carries its second quadword 128 bits on, and
    /// folds 128 bits to 96.
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// `x^64 mod P`: folds 96 bits to 64.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// `P` itself, `x^32 + x^26 + … + 1`.
    pub(super) const P: i64 = 0x1_DB71_0641;
    /// `μ = floor(x^64 / P)`, Barrett reduction's quotient estimate.
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// Folds every whole 16-byte lane of `bytes` (at least four of them)
    /// into `state`; returns the state and the fewer than 16 bytes left.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let mut blocks = bytes.chunks_exact(64);
        let Some(first) = blocks.next() else {
            return (state, bytes);
        };
        let [mut x0, mut x1, mut x2, mut x3] = lanes(first);
        // the state enters where slice-by-8 xors it in: the first 4 bytes
        x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(state.cast_signed()));
        let by_512 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            let [y0, y1, y2, y3] = lanes(block);
            x0 = carry(x0, by_512, y0);
            x1 = carry(x1, by_512, y1);
            x2 = carry(x2, by_512, y2);
            x3 = carry(x3, by_512, y3);
        }
        let by_128 = _mm_set_epi64x(K4, K3);
        let mut x = carry(carry(carry(x0, by_128, x1), by_128, x2), by_128, x3);
        let mut rest = blocks.remainder().chunks_exact(16);
        for chunk in &mut rest {
            x = carry(x, by_128, lane(chunk));
        }
        (reduce(x, by_128), rest.remainder())
    }

    /// A 16-byte chunk as a lane: bytes 0..8 are the low quadword.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(chunk: &[u8]) -> __m128i {
        let quad = |at: usize| {
            chunk
                .get(at..at + 8)
                .and_then(|q| q.try_into().ok())
                .map_or(0, u64::from_le_bytes)
        };
        _mm_set_epi64x(quad(8).cast_signed(), quad(0).cast_signed())
    }

    /// The four lanes of a 64-byte block.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lanes(block: &[u8]) -> [__m128i; 4] {
        let mut out = [_mm_setzero_si128(); 4];
        for (x, chunk) in out.iter_mut().zip(block.chunks_exact(16)) {
            *x = lane(chunk);
        }
        out
    }

    /// `x` carried on by the residue pair `k` (first quadword by the low
    /// residue, second by the high one), plus the lane `y` it lands on.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn carry(x: __m128i, k: __m128i, y: __m128i) -> __m128i {
        let first = _mm_clmulepi64_si128(x, k, 0x00);
        let second = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(first, second), y)
    }

    /// The 32-bit state one lane stands for.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(x: __m128i, by_128: __m128i) -> u32 {
        let low_32 = _mm_set_epi32(0, -1, 0, -1);
        // 128 → 96 bits: the first quadword times x^(128−32), onto the second
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, by_128, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the first 32 bits times x^64, onto the rest
        let first = _mm_clmulepi64_si128(_mm_and_si128(x, low_32), _mm_set_epi64x(0, K5), 0x00);
        let x = _mm_xor_si128(first, _mm_srli_si128(x, 4));
        // Barrett: q = ⌊x·μ⌋ on the first 32 bits, then x − q·P
        let p_mu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low_32), p_mu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low_32), p_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, qp), 1).cast_unsigned()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let (state, tail) = fold(self.state, bytes);
        self.state = slice_by_8(state, tail);
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

    /// The bytewise algorithm both paths replaced, kept as the reference.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |s, &b| step(s, b))
    }

    /// `len` seeded bytes (xorshift64, low byte per step).
    fn seeded(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[0]
            })
            .collect()
    }

    /// Whether this host runs the folded kernel for long enough inputs.
    fn folds() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::is_x86_feature_detected!("pclmulqdq")
            && std::is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn slice_by_8_is_the_bytewise_function() {
        // called directly, so the fallback stays covered where the kernel
        // runs: every length at every start offset covers empty input,
        // tails of 1..=7, and steps at any alignment
        let buf = seeded(300);
        for offset in 0..8 {
            for len in 0..=257 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    slice_by_8(0xFFFF_FFFF, bytes),
                    bytewise(0xFFFF_FFFF, bytes),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn folded_kernel_is_the_bytewise_function() {
        // every length 0..=1024 at every start offset 0..16: no lane, one
        // to four lanes, one 64-byte step and many, each with every tail;
        // from a fresh state and from a carried one
        let buf = seeded(1024 + 16);
        for offset in 0..16 {
            for len in 0..=1024 {
                let bytes = &buf[offset..offset + len];
                for state in [0xFFFF_FFFF, 0x1234_5678] {
                    let (folded, tail) = fold(state, bytes);
                    if folds() && len >= FOLD_MIN {
                        assert_eq!(tail.len(), len % 16, "offset {offset} len {len}");
                    }
                    assert_eq!(
                        slice_by_8(folded, tail),
                        bytewise(state, bytes),
                        "offset {offset} len {len} state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_updates_split_anywhere_carry_the_state() {
        // every split of 256 bytes, including a block's 18-byte fixed
        // header and then its payload: each half takes whichever path its
        // length picks, and the state carries across
        let input = seeded(256);
        let whole = bytewise(0xFFFF_FFFF, &input);
        for cut in 0..=input.len() {
            let mut c = Crc32::new();
            c.update(&input[..cut]);
            assert_eq!(c.state, bytewise(0xFFFF_FFFF, &input[..cut]), "cut {cut}");
            c.update(&input[cut..]);
            assert_eq!(c.state, whole, "cut {cut}");
        }
    }

    #[test]
    fn a_4_mib_buffer_is_the_bytewise_function() {
        let buf = seeded(4 << 20);
        assert_eq!(crc32(&buf), bytewise(0xFFFF_FFFF, &buf) ^ 0xFFFF_FFFF);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_the_powers_of_x_they_stand_for() {
        // x^n mod P, reflected: n bit-steps from the reflected 1
        let residue = |n: u32| i64::from(shift(0x8000_0000, n)) << 1;
        assert_eq!(clmul::K1, residue(4 * 128 + 32));
        assert_eq!(clmul::K2, residue(4 * 128 - 32));
        assert_eq!(clmul::K3, residue(128 + 32));
        assert_eq!(clmul::K4, residue(128 - 32));
        assert_eq!(clmul::K5, residue(64));
        // P and ⌊x^64 / P⌋ by long division, in normal bit order, then
        // reversed over 33 bits
        let p = 1u128 << 32 | u128::from(POLY.reverse_bits());
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for d in (32..=64).rev() {
            if rem >> d & 1 == 1 {
                rem ^= p << (d - 32);
                mu |= 1 << (d - 32);
            }
        }
        let reflect_33 = |v: u64| (v.reverse_bits() >> 31).cast_signed();
        assert_eq!(clmul::P, reflect_33(u64::try_from(p).unwrap()));
        assert_eq!(clmul::MU, reflect_33(mu));
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
        // 24 bytes take slice-by-8, 200 the folded kernel
        for data in [b"payload bytes under test".to_vec(), seeded(200)] {
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
}
