//! Read-only memory mapping for reading a segment back: the cold reader
//! and the journal's reopen.
//!
//! [`MappedFile`] exposes a segment file as a `&[u8]` without reading it
//! into heap memory: on Unix it is a `PROT_READ`/`MAP_PRIVATE` `mmap`, so
//! the OS pages bytes in on demand and a cold query touches only the
//! blocks it actually decodes. Listing the blocks does not go through the
//! map — the header walk reads each header from the file by position — so
//! an open faults in only the payloads it reads: a reopen's restored
//! checkpoint and replayed tail, which it hands back behind itself
//! ([`MappedFile::release`], called by replay and restore only). On other
//! platforms (and for zero-length files, which `mmap` rejects) it degrades
//! to a buffered read — the same API, without the laziness.
//!
//! No external crate is involved: the Unix path declares the libc entry
//! points it needs directly.

use std::fs::File;
#[cfg(not(unix))]
use std::io::Read;

use xarch_core::StoreError;

/// A file's contents as an immutable byte slice — memory-mapped where the
/// platform allows, buffered otherwise.
#[derive(Debug)]
pub struct MappedFile {
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    /// Zero-length file: nothing to map, nothing to read.
    Empty,
    /// Heap copy (non-Unix platforms).
    #[allow(dead_code)] // constructed only on non-unix targets
    Buffered(Vec<u8>),
    #[cfg(unix)]
    Mapped(unix::Mapping),
}

impl MappedFile {
    /// Maps (or reads) the entire current extent of `file`. The caller
    /// must ensure no writer truncates the file while the map is live —
    /// the cold reader takes a shared OS lock for exactly that reason.
    pub fn map(file: &File) -> Result<Self, StoreError> {
        let len = file.metadata()?.len();
        if len == 0 {
            return Ok(Self {
                backing: Backing::Empty,
            });
        }
        let len = usize::try_from(len).map_err(|_| {
            StoreError::Backend("file exceeds the address space and cannot be mapped".into())
        })?;
        Self::map_len(file, len)
    }

    #[cfg(unix)]
    fn map_len(file: &File, len: usize) -> Result<Self, StoreError> {
        Ok(Self {
            backing: Backing::Mapped(unix::Mapping::new(file, len)?),
        })
    }

    #[cfg(not(unix))]
    fn map_len(file: &File, len: usize) -> Result<Self, StoreError> {
        let mut buf = Vec::with_capacity(len);
        let mut f = file;
        f.read_to_end(&mut buf)?;
        Ok(Self {
            backing: Backing::Buffered(buf),
        })
    }

    /// The mapped (or buffered) bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.backing {
            Backing::Empty => &[],
            Backing::Buffered(buf) => buf,
            #[cfg(unix)]
            Backing::Mapped(m) => m.as_slice(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands the pages under the file range `range` back to the OS, and
    /// those before it that reading it may have brought in (a page fault
    /// maps the cached pages around it too, up to a page table's span). The
    /// bytes stay readable — a later read faults them in again from the
    /// file — but stop counting against the process until then, so a
    /// reader that consumes the file front to back, releasing each piece
    /// it is done with, holds about one piece of it at a time. Advisory: a
    /// no-op for the buffered fallback, and wherever the OS declines.
    pub fn release(&self, range: std::ops::Range<u64>) {
        #[cfg(unix)]
        if let Backing::Mapped(m) = &self.backing {
            m.release(range);
        }
        #[cfg(not(unix))]
        let _ = range;
    }

    /// True when the bytes are served by a real memory map (false on the
    /// buffered fallback and for empty files) — the observability layer
    /// reports this so "cold read without materializing" claims are
    /// checkable.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped(_) => true,
            _ => false,
        }
    }
}

#[cfg(unix)]
mod unix {
    use std::fs::File;
    use std::os::fd::AsRawFd;

    use xarch_core::StoreError;

    // The libc entry points the map needs, declared directly so no
    // external crate is required. Flag values below are identical on
    // every Tier-1 Unix (Linux, macOS, the BSDs).
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
        fn getpagesize() -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_DONTNEED: i32 = 4;
    /// The widest span a page fault maps around itself: one page table's
    /// reach (2 MiB with 4 KiB pages).
    const FAULT_AROUND: usize = 2 << 20;
    /// `mmap`'s error return (`MAP_FAILED`), defined as `(void *) -1`.
    const MAP_FAILED: *mut core::ffi::c_void = usize::MAX as *mut core::ffi::c_void;

    /// An owned `PROT_READ` mapping, unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and private; the bytes it exposes
    // are immutable for its whole lifetime, so sharing the handle (or the
    // &[u8] borrowed from it) across threads cannot race.
    unsafe impl Send for Mapping {}
    // SAFETY: as above — read-only memory, no interior mutability.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        pub(super) fn new(file: &File, len: usize) -> Result<Self, StoreError> {
            // (zero-length maps are rejected by the OS, so MappedFile::map
            // short-circuits them before calling here)
            // SAFETY: fd is a valid open descriptor borrowed from `file`
            // for the call; len > 0 per the caller; NULL addr lets the
            // kernel choose placement.
            let ptr = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED || ptr.is_null() {
                return Err(StoreError::Io(std::io::Error::last_os_error()));
            }
            Ok(Self {
                ptr: ptr.cast::<u8>().cast_const(),
                len,
            })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr..ptr+len is exactly the live PROT_READ mapping
            // established in new(); it stays valid until munmap in Drop,
            // and the returned borrow cannot outlive self.
            unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Mapping {
        pub(super) fn release(&self, range: std::ops::Range<u64>) {
            // SAFETY: getpagesize reads a constant of the process; it has
            // no preconditions and cannot fail.
            let page = usize::try_from(unsafe { getpagesize() }).unwrap_or(0);
            let (Ok(start), Ok(end)) = (usize::try_from(range.start), usize::try_from(range.end))
            else {
                return;
            };
            let start = start.saturating_sub(FAULT_AROUND);
            // whole pages only: the mapping starts on a page boundary, so
            // rounding both ends down keeps the range page-aligned
            let end = end.min(self.len);
            let (Some(start), Some(end)) = (
                start.checked_rem(page).map(|r| start - r),
                end.checked_rem(page).map(|r| end - r),
            ) else {
                return;
            };
            if start >= end {
                return;
            }
            // The mapping is private and was never written, so
            // MADV_DONTNEED only drops page copies of the file: the next
            // read of them faults the same file bytes back in, and every
            // borrow of as_slice() keeps reading what it read before.
            // SAFETY: start..end is page-aligned and inside the live mapping
            // made in new() (end is clamped to its length); see above.
            let _ = unsafe {
                madvise(
                    self.ptr.add(start).cast_mut().cast::<core::ffi::c_void>(),
                    end - start,
                    MADV_DONTNEED,
                )
            };
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: ptr/len are the exact values returned by the mmap
            // call in new(), unmapped exactly once (Mapping is not Clone).
            let _ = unsafe { munmap(self.ptr.cast_mut().cast::<core::ffi::c_void>(), self.len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_path;

    #[test]
    fn maps_file_contents() {
        let path = scratch_path("mmap-basic");
        std::fs::write(&path, b"hello, mapping").unwrap();
        let file = File::open(&path).unwrap();
        let m = MappedFile::map(&file).unwrap();
        assert_eq!(m.as_slice(), b"hello, mapping");
        assert_eq!(m.len(), 14);
        assert!(!m.is_empty());
        if cfg!(unix) {
            assert!(m.is_mapped());
        }
        drop(m); // unmaps without error
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn released_pages_still_read_the_file() {
        let path = scratch_path("mmap-release");
        let bytes: Vec<u8> = (0..3 * 65_536u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        let file = File::open(&path).unwrap();
        let m = MappedFile::map(&file).unwrap();
        assert_eq!(m.as_slice(), bytes.as_slice());
        // unaligned, empty, whole and out-of-range releases are all fine
        m.release(1..100_001);
        m.release(7..7);
        m.release(0..bytes.len() as u64);
        m.release(0..u64::MAX);
        assert_eq!(m.as_slice(), bytes.as_slice());
        drop(m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = scratch_path("mmap-empty");
        std::fs::write(&path, b"").unwrap();
        let file = File::open(&path).unwrap();
        let m = MappedFile::map(&file).unwrap();
        assert!(m.is_empty());
        assert!(!m.is_mapped());
        assert_eq!(m.as_slice(), b"");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MappedFile>();
    }
}
