//! The segment file's superblock: magic, format version, and the governing
//! key specification, checksummed as one unit.
//!
//! The superblock makes a segment *self-describing*: a reader needs nothing
//! but the file to know what format it speaks and which key spec governs
//! the archived versions — and it makes opening a segment with the *wrong*
//! spec a clean, early error instead of a silent wrong merge.

use xarch_core::StoreError;
use xarch_keys::KeySpec;

use crate::bytes::le_u32;
use crate::crc::crc32;

/// File magic: identifies an xarch segment file.
pub const MAGIC: &[u8; 8] = b"XARCHSG1";

/// On-disk format version written by this build. Revision 2 added the
/// checkpoint block kind (`docs/FORMAT.md` §Format revisions); the block
/// grammar is otherwise unchanged, so this build still reads revision-1
/// files (they simply contain no checkpoints), while revision-1 builds
/// refuse revision-2 files up front instead of tripping over a block kind
/// they cannot interpret.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format revision this build still reads.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Size of the superblock's fixed prefix (magic + format + spec length).
pub const FIXED_LEN: usize = 16;

/// Largest accepted key-spec text (1 MiB) — specs are a handful of lines,
/// so a larger declared length is bit rot; bounding it keeps a corrupted
/// length field from driving a multi-gigabyte read before the checksum
/// gets a chance to reject the superblock.
pub const MAX_SPEC_LEN: u64 = 1 << 20;

/// Encodes the superblock: `magic · format · spec_len · spec · crc32`.
///
/// Fails (with [`StoreError::Backend`]) on a spec whose text exceeds
/// [`MAX_SPEC_LEN`] — such a superblock could never be read back.
pub fn encode(spec: &KeySpec) -> Result<Vec<u8>, StoreError> {
    // the explicit keys: the implied ones are derived again on open
    let text = spec.to_string();
    let spec_len = u32::try_from(text.len())
        .ok()
        .filter(|&l| u64::from(l) <= MAX_SPEC_LEN)
        .ok_or_else(|| {
            StoreError::Backend(format!(
                "key spec text of {} bytes exceeds the {MAX_SPEC_LEN}-byte superblock limit",
                text.len()
            ))
        })?;
    let mut out = Vec::with_capacity(MAGIC.len() + 8 + text.len() + 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&spec_len.to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

fn corrupt(offset: u64, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        offset,
        reason: reason.into(),
    }
}

/// Decodes and verifies the superblock at the head of `buf`, returning the
/// stored [`KeySpec`] and the offset of the first block.
pub fn decode(buf: &[u8]) -> Result<(KeySpec, u64), StoreError> {
    let fixed = FIXED_LEN;
    if buf.len() < fixed + 4 {
        return Err(corrupt(0, "file too short for a superblock"));
    }
    if !buf.starts_with(MAGIC) {
        return Err(corrupt(0, "bad magic: not an xarch segment file"));
    }
    let format =
        le_u32(buf, 8).ok_or_else(|| corrupt(8, "superblock truncated at format version"))?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&format) {
        return Err(corrupt(
            8,
            format!(
                "unsupported format version {format} \
                 (this build reads {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
            ),
        ));
    }
    let spec_len_raw =
        le_u32(buf, 12).ok_or_else(|| corrupt(12, "superblock truncated at spec length"))?;
    if u64::from(spec_len_raw) > MAX_SPEC_LEN {
        return Err(corrupt(
            12,
            format!("implausible key spec length {spec_len_raw} in superblock"),
        ));
    }
    let spec_len = usize::try_from(spec_len_raw)
        .map_err(|_| corrupt(12, "key spec length exceeds the address space"))?;
    let end = fixed + spec_len;
    if buf.len() < end + 4 {
        return Err(corrupt(
            12,
            "superblock truncated: spec length exceeds file",
        ));
    }
    let stored_crc =
        le_u32(buf, end).ok_or_else(|| corrupt(end as u64, "superblock truncated at checksum"))?;
    let covered = buf
        .get(..end)
        .ok_or_else(|| corrupt(end as u64, "superblock truncated before checksum"))?;
    let actual = crc32(covered);
    if stored_crc != actual {
        return Err(corrupt(
            end as u64,
            format!(
                "superblock checksum mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"
            ),
        ));
    }
    let spec_bytes = buf
        .get(fixed..end)
        .ok_or_else(|| corrupt(fixed as u64, "superblock truncated inside key spec"))?;
    let text = std::str::from_utf8(spec_bytes)
        .map_err(|_| corrupt(fixed as u64, "superblock key spec is not UTF-8"))?;
    let spec = KeySpec::parse(text).map_err(|e| {
        corrupt(
            fixed as u64,
            format!("superblock key spec failed to parse: {e}"),
        )
    })?;
    Ok((spec, (end + 4) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))").unwrap()
    }

    #[test]
    fn round_trips() {
        let s = spec();
        let buf = encode(&s).unwrap();
        let (back, off) = decode(&buf).unwrap();
        assert_eq!(back, s);
        assert_eq!(off, buf.len() as u64);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = encode(&spec()).unwrap();
        buf[0] = b'Y';
        let err = decode(&buf).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { offset: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_checksum_mismatch() {
        let mut buf = encode(&spec()).unwrap();
        let flip = MAGIC.len() + 9; // inside the spec text
        buf[flip] ^= 0x40;
        let err = decode(&buf).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn rejects_truncation() {
        let buf = encode(&spec()).unwrap();
        assert!(decode(&buf[..4]).is_err());
        assert!(decode(&buf[..buf.len() - 2]).is_err());
    }

    #[test]
    fn accepts_every_supported_format_revision() {
        let buf = encode(&spec()).unwrap();
        let end = buf.len() - 4;
        let with_format = |format: u32| {
            let mut b = buf.clone();
            b[8..12].copy_from_slice(&format.to_le_bytes());
            let crc = crc32(&b[..end]);
            b[end..].copy_from_slice(&crc.to_le_bytes());
            b
        };
        // revision-1 files (written before checkpoints existed) still open
        assert!(decode(&with_format(MIN_FORMAT_VERSION)).is_ok());
        assert!(decode(&with_format(FORMAT_VERSION)).is_ok());
        for unsupported in [0, FORMAT_VERSION + 1, u32::MAX] {
            let err = decode(&with_format(unsupported)).unwrap_err();
            assert!(err.to_string().contains("format version"), "{err}");
        }
    }

    #[test]
    fn spec_text_reparses_to_equal_spec() {
        let s = spec();
        assert_eq!(KeySpec::parse(&s.to_string()).unwrap(), s);
    }
}
