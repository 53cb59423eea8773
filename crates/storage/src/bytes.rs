//! Checked little-endian field reads for the decode paths.
//!
//! Decode code must never panic on corrupt input (the crate denies
//! `clippy::indexing_slicing` and `clippy::expect_used`), so raw slice
//! indexing and `try_into().expect(..)` are banned there. These helpers
//! express the same reads as total functions: out-of-range offsets yield
//! `None`, which callers map to a positioned `StoreError::Corrupt`.

/// Reads a little-endian `u32` at `at`, if `buf` is long enough.
pub(crate) fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    let raw = buf.get(at..at.checked_add(4)?)?;
    let arr: [u8; 4] = raw.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Reads a little-endian `u64` at `at`, if `buf` is long enough.
pub(crate) fn le_u64(buf: &[u8], at: usize) -> Option<u64> {
    let raw = buf.get(at..at.checked_add(8)?)?;
    let arr: [u8; 8] = raw.try_into().ok()?;
    Some(u64::from_le_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_total() {
        let buf = 0xDEAD_BEEF_u32.to_le_bytes();
        assert_eq!(le_u32(&buf, 0), Some(0xDEAD_BEEF));
        assert_eq!(le_u32(&buf, 1), None);
        assert_eq!(le_u32(&buf, usize::MAX), None);
        let buf8 = 42u64.to_le_bytes();
        assert_eq!(le_u64(&buf8, 0), Some(42));
        assert_eq!(le_u64(&buf8, 1), None);
    }
}
