//! Fingerprints of canonical XML values (§4.3).
//!
//! The paper fingerprints key values (DOMHash / MD5 in the original) so
//! comparisons touch a few bytes instead of whole subtrees. We use a 128-bit
//! FNV-1a over the canonical form — collision probability `O(1/2^128)` per
//! pair, matching the paper's `O(1/t)` analysis with `t = 2^128`.
//!
//! Because fingerprints may collide, the merge protocol *verifies* actual
//! key values whenever fingerprints match. [`Fingerprinter`] can be
//! configured with a deliberately small width (e.g. 8 bits) so tests can
//! force collisions and demonstrate that verification keeps the archive
//! correct.

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Full-width (128-bit) fingerprint of a byte string.
pub fn fingerprint(data: &str) -> u128 {
    fnv1a(data.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u128 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A fingerprint function with configurable width.
///
/// `t = 2^bits`; the expected number of collisions for `n` values is
/// `O(n²/t)` (§4.3). Widths below 128 exist only to exercise the
/// collision-verification path in tests and benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprinter {
    bits: u32,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Self { bits: 128 }
    }
}

impl Fingerprinter {
    /// A fingerprinter truncated to `bits` (1..=128).
    pub fn with_bits(bits: u32) -> Self {
        assert!((1..=128).contains(&bits), "bits must be in 1..=128");
        Self { bits }
    }

    /// Fingerprints a canonical string.
    pub fn fp(&self, data: &str) -> u128 {
        let h = fnv1a(data.as_bytes());
        if self.bits >= 128 {
            h
        } else {
            h & ((1u128 << self.bits) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
    }

    #[test]
    fn distinguishes_simple_strings() {
        assert_ne!(fingerprint("<a>1</a>"), fingerprint("<a>2</a>"));
        assert_ne!(fingerprint(""), fingerprint("\0"));
    }

    #[test]
    fn empty_string_is_offset_basis() {
        assert_eq!(fingerprint(""), FNV_OFFSET);
    }

    #[test]
    fn truncation_masks_high_bits() {
        let f = Fingerprinter::with_bits(8);
        assert!(f.fp("anything at all") < 256);
    }

    #[test]
    fn weak_fingerprints_do_collide() {
        // With 4 bits and 100 distinct strings, pigeonhole guarantees
        // collisions — the property the verification protocol exists for.
        let f = Fingerprinter::with_bits(4);
        let fps: Vec<u128> = (0..100).map(|i| f.fp(&format!("value-{i}"))).collect();
        let mut sorted = fps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() < fps.len());
    }

    #[test]
    #[should_panic]
    fn zero_bits_rejected() {
        Fingerprinter::with_bits(0);
    }
}
