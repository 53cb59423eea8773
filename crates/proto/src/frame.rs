//! The frame envelope: every message travels as `len · crc · body`.
//!
//! ```text
//! ┌───────────────┬───────────────┬──────────────────┐
//! │ len: u32 LE   │ crc: u32 LE   │ body (len bytes) │
//! └───────────────┴───────────────┴──────────────────┘
//! ```
//!
//! `len` counts the body bytes only; `crc` is the CRC-32 (IEEE, the
//! storage layer's [`xarch_storage::crc32`]) of the body. The header is
//! fixed at [`FRAME_HEADER_LEN`] bytes, and no frame body may exceed
//! [`MAX_FRAME_LEN`] — receivers additionally enforce their own
//! (possibly tighter) configured ceiling and reject the frame *before*
//! reading its body, so an advertised 4 GiB length costs an attacker a
//! connection, not the server an allocation.
//!
//! Reads are panic-free: every failure mode is a typed [`FrameError`],
//! and a connection closed cleanly *between* frames is the distinct
//! [`FrameError::Eof`] — the one "error" that is not an error.

use std::io::{self, Read, Write};

use xarch_storage::crc32;

/// Bytes in the fixed frame header: a `u32` length plus a `u32` CRC.
pub const FRAME_HEADER_LEN: usize = 8;

/// The protocol-level ceiling on a frame body's length, in bytes.
/// Receivers may configure a tighter limit; they never accept more.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// A buffer frames are built in is reused from one message to the next; one
/// that grew past this is dropped once its frame is sent, so a single
/// large message does not pin its allocation for as long as the connection
/// lives.
pub const KEEP_CAPACITY: usize = 4 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Eof,
    /// The connection failed or was truncated mid-frame (includes
    /// read timeouts surfacing as `WouldBlock`/`TimedOut`).
    Io(io::Error),
    /// The header advertised a body longer than the receiver's limit.
    TooLarge {
        /// The advertised body length.
        len: u32,
        /// The receiver's configured ceiling.
        max: u32,
    },
    /// The body's checksum did not match the header's CRC.
    BadCrc {
        /// The checksum the header carried.
        expected: u32,
        /// The checksum of the bytes actually received.
        found: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed at frame boundary"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::BadCrc { expected, found } => write!(
                f,
                "frame checksum mismatch: header says {expected:#010x}, body hashes to {found:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Decodes a little-endian `u32` at `at`, if the bytes are there.
fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let bytes: [u8; 4] = buf.get(at..end)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// The header for `body`: its length and CRC.
///
/// Fails with `InvalidInput` when `body` exceeds [`MAX_FRAME_LEN`] —
/// oversized messages must be rejected at the sender, not shipped to be
/// rejected at the receiver.
fn header_for(body: &[u8]) -> io::Result<[u8; FRAME_HEADER_LEN]> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame body of {} bytes exceeds MAX_FRAME_LEN", body.len()),
            )
        })?;
    let mut header = [0u8; FRAME_HEADER_LEN];
    let (len_bytes, crc_bytes) = header.split_at_mut(4);
    len_bytes.copy_from_slice(&len.to_le_bytes());
    crc_bytes.copy_from_slice(&crc32(body).to_le_bytes());
    Ok(header)
}

/// Writes `body` as one frame: header (length + CRC) then the body.
/// Refuses a body longer than [`MAX_FRAME_LEN`] with `InvalidInput`,
/// before anything is written.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let header = header_for(body)?;
    w.write_all(&header)?;
    w.write_all(body)?;
    w.flush()
}

/// Finishes a frame built in place. The body is `buf[body_start..]` and
/// the caller left [`FRAME_HEADER_LEN`] bytes of room before it; the
/// header is written into that room and the whole frame returned — header
/// and body contiguous, the same bytes [`write_frame`] puts on the wire,
/// ready for one `write_all` with no copy of the body. Refuses an
/// oversized body exactly as [`write_frame`] does.
pub fn finish_frame(buf: &mut [u8], body_start: usize) -> io::Result<&[u8]> {
    let no_room = || io::Error::new(io::ErrorKind::InvalidInput, "no room for a frame header");
    let start = body_start
        .checked_sub(FRAME_HEADER_LEN)
        .ok_or_else(no_room)?;
    let header = header_for(buf.get(body_start..).ok_or_else(no_room)?)?;
    buf.get_mut(start..body_start)
        .ok_or_else(no_room)?
        .copy_from_slice(&header);
    buf.get(start..).ok_or_else(no_room)
}

/// Sends the frame built in `buf` — body at `body_start`, behind room for
/// the header ([`finish_frame`]) — in a single write, so a message of any
/// size leaves as one piece rather than a header packet followed by its
/// body. A buffer that grew past [`KEEP_CAPACITY`] is dropped afterwards.
pub fn send_built_frame(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    body_start: usize,
) -> io::Result<()> {
    let sent = finish_frame(buf, body_start).and_then(|frame| w.write_all(frame));
    if buf.capacity() > KEEP_CAPACITY {
        *buf = Vec::new();
    }
    sent
}

/// Reads one frame body, enforcing `max_len` (clamped to
/// [`MAX_FRAME_LEN`]) *before* the body is read or allocated.
///
/// A connection closed before the first header byte is a clean
/// [`FrameError::Eof`]; closed anywhere after that, a truncation
/// ([`FrameError::Io`] with `UnexpectedEof`).
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0usize;
    while filled < FRAME_HEADER_LEN {
        let n = match header.get_mut(filled..).map(|rest| r.read(rest)) {
            Some(Ok(n)) => n,
            // a signal landing between header bytes is not a failure —
            // the body's `read_exact` retries it too
            Some(Err(e)) if e.kind() == io::ErrorKind::Interrupted => continue,
            Some(Err(e)) => return Err(FrameError::Io(e)),
            None => 0,
        };
        if n == 0 {
            if filled == 0 {
                return Err(FrameError::Eof);
            }
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid frame header",
            )));
        }
        filled += n;
    }
    let len = le_u32(&header, 0).unwrap_or(0);
    let expected = le_u32(&header, 4).unwrap_or(0);
    let max = max_len.min(MAX_FRAME_LEN);
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let found = crc32(&body);
    if found != expected {
        return Err(FrameError::BadCrc { expected, found });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, body).unwrap();
        out
    }

    #[test]
    fn round_trip() {
        for body in [&b""[..], b"x", b"hello frame", &[0u8; 1024][..]] {
            let bytes = frame_bytes(body);
            assert_eq!(bytes.len(), FRAME_HEADER_LEN + body.len());
            let got = read_frame(&mut bytes.as_slice(), MAX_FRAME_LEN).unwrap();
            assert_eq!(got, body);
        }
    }

    #[test]
    fn clean_close_is_eof_truncation_is_io() {
        // nothing at all: clean close
        assert!(matches!(
            read_frame(&mut [].as_slice(), MAX_FRAME_LEN),
            Err(FrameError::Eof)
        ));
        let bytes = frame_bytes(b"payload");
        // every strictly-partial prefix is a truncation, never Eof, never
        // a success, never a panic
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut], MAX_FRAME_LEN).unwrap_err();
            assert!(
                matches!(err, FrameError::Io(_)),
                "cut at {cut}: expected Io, got {err}"
            );
        }
    }

    /// Yields its bytes one per `read`, with one `Interrupted` before
    /// byte `interrupt_at`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        at: usize,
        interrupt_at: Option<usize>,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_at == Some(self.at) {
                self.interrupt_at = None;
                return Err(io::ErrorKind::Interrupted.into());
            }
            match (self.bytes.get(self.at), buf.first_mut()) {
                (Some(&b), Some(slot)) => {
                    *slot = b;
                    self.at += 1;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn an_interrupted_header_read_is_retried() {
        let bytes = frame_bytes(b"still here");
        let trickle = |bytes, interrupt_at| Trickle {
            bytes,
            at: 0,
            interrupt_at,
        };
        for interrupt_at in 0..FRAME_HEADER_LEN {
            let got = read_frame(&mut trickle(&bytes, Some(interrupt_at)), MAX_FRAME_LEN)
                .unwrap_or_else(|e| panic!("interrupt before header byte {interrupt_at}: {e}"));
            assert_eq!(got, b"still here");
        }
        // the retry does not blur the two ways a header can end early
        assert!(matches!(
            read_frame(&mut trickle(&[], Some(0)), MAX_FRAME_LEN),
            Err(FrameError::Eof)
        ));
        let err = read_frame(&mut trickle(&bytes[..1], Some(1)), MAX_FRAME_LEN).unwrap_err();
        assert!(
            matches!(&err, FrameError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{err}"
        );
    }

    #[test]
    fn a_frame_finished_in_place_is_the_frame_written() {
        for body in [&b""[..], b"x", &[7u8; 300][..]] {
            for room in [FRAME_HEADER_LEN, FRAME_HEADER_LEN + 5] {
                let mut buf = vec![0xAAu8; room];
                buf.extend_from_slice(body);
                assert_eq!(finish_frame(&mut buf, room).unwrap(), frame_bytes(body));
            }
        }
        // too little room, or a body start past the end: refused, no panic
        let mut buf = vec![0u8; 16];
        assert!(finish_frame(&mut buf, FRAME_HEADER_LEN - 1).is_err());
        assert!(finish_frame(&mut buf, 17).is_err());
        // the sender-side ceiling holds in place as it does for write_frame
        let mut big = vec![0u8; FRAME_HEADER_LEN + MAX_FRAME_LEN as usize + 1];
        let err = finish_frame(&mut big, FRAME_HEADER_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = vec![0u8; FRAME_HEADER_LEN];
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut bytes.as_slice(), MAX_FRAME_LEN).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { .. }), "{err}");
        // a receiver-configured limit tightens the protocol ceiling
        let bytes = frame_bytes(&[7u8; 100]);
        let err = read_frame(&mut bytes.as_slice(), 64).unwrap_err();
        assert!(
            matches!(err, FrameError::TooLarge { len: 100, max: 64 }),
            "{err}"
        );
    }

    #[test]
    fn corrupt_bodies_fail_the_crc() {
        let reference = frame_bytes(b"check me");
        for i in FRAME_HEADER_LEN..reference.len() {
            let mut bytes = reference.clone();
            bytes[i] ^= 0x40;
            let err = read_frame(&mut bytes.as_slice(), MAX_FRAME_LEN).unwrap_err();
            assert!(
                matches!(err, FrameError::BadCrc { .. }),
                "flip at {i}: {err}"
            );
        }
        // a flipped CRC byte also fails
        let mut bytes = frame_bytes(b"check me");
        bytes[5] ^= 1;
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), MAX_FRAME_LEN),
            Err(FrameError::BadCrc { .. })
        ));
    }

    #[test]
    fn sender_refuses_oversized_bodies() {
        let body = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut out = Vec::new();
        let err = write_frame(&mut out, &body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing may hit the wire");
    }

    #[test]
    fn errors_render() {
        assert!(FrameError::Eof.to_string().contains("closed"));
        let e = FrameError::TooLarge { len: 9, max: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = FrameError::BadCrc {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("mismatch"));
    }
}
