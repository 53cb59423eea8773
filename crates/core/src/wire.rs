//! Shared wire primitives: LEB128 varints and length-prefixed strings.
//!
//! One encoding, three consumers: the external-memory event streams
//! (`xarch_extmem::events` delegates here), the checkpoint state codec
//! ([`crate::state`]), and the durable checkpoint block payloads in
//! `xarch_storage`. Keeping the primitives in `xarch_core` — the crate
//! every backend already depends on — means the byte-level grammar is
//! defined exactly once (see `docs/FORMAT.md` §Primitives).
//!
//! Decoding never panics: every failure is a positioned [`WireError`]
//! that callers convert into their own error type (`StoreError::Corrupt`
//! in the storage paths).
//!
//! ```
//! use xarch_core::wire::{get_varint, put_varint};
//!
//! let mut buf = Vec::new();
//! put_varint(&mut buf, 300);
//! let mut pos = 0;
//! assert_eq!(get_varint(&buf, &mut pos).unwrap(), 300);
//! assert_eq!(pos, buf.len());
//! ```

use std::fmt;

/// A positioned decoding failure on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset into the buffer where decoding failed.
    pub offset: usize,
    /// What failed to decode.
    pub reason: &'static str,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for WireError {}

/// Shorthand for wire-decoding results.
pub type WireResult<T> = Result<T, WireError>;

fn err<T>(offset: usize, reason: &'static str) -> WireResult<T> {
    Err(WireError { offset, reason })
}

/// Appends `v` as an LEB128 varint (7 value bits per byte, high bit =
/// continuation).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Decodes an LEB128 varint at `*pos`, advancing the cursor past it.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> WireResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return err(*pos, "truncated varint");
        };
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return err(*pos, "varint overflow");
        }
    }
}

/// Appends `s` as a varint length prefix followed by its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Decodes a length-prefixed string at `*pos`, advancing the cursor.
pub fn get_str(buf: &[u8], pos: &mut usize) -> WireResult<String> {
    get_str_ref(buf, pos).map(str::to_owned)
}

/// [`get_str`] without the copy: the string borrows from `buf`.
pub fn get_str_ref<'a>(buf: &'a [u8], pos: &mut usize) -> WireResult<&'a str> {
    let len = get_varint(buf, pos)?;
    let len = usize::try_from(len).map_err(|_| WireError {
        offset: *pos,
        reason: "string length overflow",
    })?;
    let start = *pos;
    // checked: a crafted length near usize::MAX must error, not overflow
    let Some(bytes) = start.checked_add(len).and_then(|end| buf.get(start..end)) else {
        return err(start, "truncated string");
    };
    *pos += len;
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok(s),
        // report the *start* of the bad string — the offset a maintainer
        // will inspect — not the already-advanced cursor
        Err(_) => err(start, "invalid utf-8"),
    }
}

/// Appends `bytes` with a varint length prefix.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Decodes a length-prefixed byte slice at `*pos`, advancing the cursor.
/// Borrows from `buf` — no copy.
pub fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> WireResult<&'a [u8]> {
    let len = get_varint(buf, pos)?;
    let len = usize::try_from(len).map_err(|_| WireError {
        offset: *pos,
        reason: "byte-slice length overflow",
    })?;
    let start = *pos;
    let Some(bytes) = start.checked_add(len).and_then(|end| buf.get(start..end)) else {
        return err(start, "truncated byte slice");
    };
    *pos += len;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_across_widths() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_and_overflowing_varints_error_with_position() {
        let mut pos = 0;
        let e = get_varint(&[0x80], &mut pos).unwrap_err();
        assert_eq!(e.reason, "truncated varint");
        let mut pos = 0;
        let e = get_varint(&[0x80; 10], &mut pos).unwrap_err();
        assert_eq!(e.reason, "varint overflow");
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut pos = 0;
        assert_eq!(get_str(&buf, &mut pos).unwrap(), "héllo");
        assert_eq!(get_bytes(&buf, &mut pos).unwrap(), &[1, 2, 3]);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn crafted_lengths_cannot_overflow() {
        // length prefix far larger than the buffer
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(get_str(&buf, &mut pos).is_err());
        let mut pos = 0;
        assert!(get_bytes(&buf, &mut pos).is_err());
    }

    #[test]
    fn invalid_utf8_reports_the_string_start() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut pos = 0;
        let e = get_str(&buf, &mut pos).unwrap_err();
        assert_eq!(e.reason, "invalid utf-8");
        assert_eq!(e.offset, 1);
    }
}
