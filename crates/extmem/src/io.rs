//! Simulated paged I/O with cost accounting.
//!
//! Files are byte vectors; the unit of cost is one *page* of `B` bytes
//! (§6's block size). A writer charges one write per completed page (plus
//! the final partial page); a reader charges one read per distinct page it
//! touches while advancing.

/// External-memory parameters: `M` (memory budget, bytes) and `B` (page
/// size, bytes).
#[derive(Debug, Clone, Copy)]
pub struct IoConfig {
    /// Total memory size `M` in bytes.
    pub mem_bytes: usize,
    /// Page (disk block) size `B` in bytes.
    pub page_bytes: usize,
}

impl Default for IoConfig {
    fn default() -> Self {
        Self {
            mem_bytes: 1 << 20,  // 1 MiB
            page_bytes: 4 << 10, // 4 KiB
        }
    }
}

impl IoConfig {
    /// Merge fan-in `(M/B) − 1`, clamped to at least 2.
    pub fn fan_in(&self) -> usize {
        (self.mem_bytes / self.page_bytes).saturating_sub(1).max(2)
    }
}

/// Cumulative I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    pub page_reads: u64,
    pub page_writes: u64,
}

impl IoStats {
    pub fn total(&self) -> u64 {
        self.page_reads + self.page_writes
    }

    pub fn add(&mut self, other: IoStats) {
        self.page_reads += other.page_reads;
        self.page_writes += other.page_writes;
    }
}

/// [`IoStats`] behind [`xarch_obs::Counter`] handles: the archiver's
/// cumulative accounting, charged from `&self` retrieval passes.
///
/// Counters are monotone sums backed by relaxed atomics — the totals
/// never order other memory, and charging never takes a lock.
#[derive(Debug, Clone, Default)]
pub struct SharedIoStats {
    page_reads: xarch_obs::Counter,
    page_writes: xarch_obs::Counter,
}

impl SharedIoStats {
    /// Charges `n` page reads.
    pub fn add_reads(&self, n: u64) {
        self.page_reads.add(n);
    }

    /// Charges `n` page writes.
    pub fn add_writes(&self, n: u64) {
        self.page_writes.add(n);
    }

    /// Folds a pass's counters into the cumulative totals.
    pub fn add(&self, other: IoStats) {
        self.add_reads(other.page_reads);
        self.add_writes(other.page_writes);
    }

    /// A plain-value snapshot of the totals.
    pub fn get(&self) -> IoStats {
        IoStats {
            page_reads: self.page_reads.get(),
            page_writes: self.page_writes.get(),
        }
    }
}

/// A write-only paged file.
#[derive(Debug)]
pub struct PagedWriter {
    buf: Vec<u8>,
    page: usize,
    pages_written: u64,
}

impl PagedWriter {
    pub fn new(page: usize) -> Self {
        Self {
            buf: Vec::new(),
            page: page.max(1),
            pages_written: 0,
        }
    }

    pub fn write(&mut self, bytes: &[u8]) {
        let before = self.buf.len() / self.page;
        self.buf.extend_from_slice(bytes);
        let after = self.buf.len() / self.page;
        self.pages_written += (after - before) as u64;
    }

    /// Finishes the file, charging the final partial page.
    pub fn finish(mut self) -> (Vec<u8>, u64) {
        if !self.buf.len().is_multiple_of(self.page)
            || (self.buf.is_empty() && self.pages_written == 0)
        {
            self.pages_written += 1;
        }
        (self.buf, self.pages_written)
    }
}

/// A read-only paged file cursor.
#[derive(Debug)]
pub struct PagedReader<'a> {
    buf: &'a [u8],
    pos: usize,
    page: usize,
    last_page: Option<usize>,
    pages_read: u64,
}

impl<'a> PagedReader<'a> {
    pub fn new(buf: &'a [u8], page: usize) -> Self {
        Self {
            buf,
            pos: 0,
            page: page.max(1),
            last_page: None,
            pages_read: 0,
        }
    }

    fn touch(&mut self, from: usize, to: usize) {
        if to > from {
            let first = from / self.page;
            let last = (to - 1) / self.page;
            let start = match self.last_page {
                Some(lp) if lp >= first => lp + 1,
                _ => first,
            };
            if last >= start {
                self.pages_read += (last - start + 1) as u64;
            }
            self.last_page = Some(self.last_page.map_or(last, |lp| lp.max(last)));
        }
    }

    /// Reads exactly `n` bytes, or `None` at EOF.
    pub fn read(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.touch(self.pos, self.pos + n);
        self.pos += n;
        Some(out)
    }

    /// Peeks one byte without consuming (charges the page on first touch).
    pub fn peek_byte(&mut self) -> Option<u8> {
        if self.pos >= self.buf.len() {
            return None;
        }
        self.touch(self.pos, self.pos + 1);
        Some(self.buf[self.pos])
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn pages_read(&self) -> u64 {
        self.pages_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_charges_per_page() {
        let mut w = PagedWriter::new(4);
        w.write(&[0; 3]);
        let (buf, pages) = w.finish();
        assert_eq!(buf.len(), 3);
        assert_eq!(pages, 1);

        let mut w = PagedWriter::new(4);
        w.write(&[0; 9]); // 2 full pages + 1 partial
        let (_, pages) = w.finish();
        assert_eq!(pages, 3);
    }

    #[test]
    fn reader_charges_each_page_once() {
        let data = vec![0u8; 10];
        let mut r = PagedReader::new(&data, 4);
        assert!(r.read(2).is_some()); // page 0
        assert!(r.read(2).is_some()); // still page 0
        assert!(r.read(4).is_some()); // pages 1
        assert!(r.read(2).is_some()); // page 2
        assert!(r.read(1).is_none());
        assert_eq!(r.pages_read(), 3);
    }

    #[test]
    fn sequential_peek_then_read_charges_once() {
        let data = vec![0u8; 4];
        let mut r = PagedReader::new(&data, 4);
        assert_eq!(r.peek_byte(), Some(0));
        assert!(r.read(4).is_some());
        assert_eq!(r.pages_read(), 1);
    }

    #[test]
    fn fan_in_clamped() {
        let cfg = IoConfig {
            mem_bytes: 100,
            page_bytes: 100,
        };
        assert_eq!(cfg.fan_in(), 2);
        let cfg = IoConfig {
            mem_bytes: 1 << 20,
            page_bytes: 4 << 10,
        };
        assert_eq!(cfg.fan_in(), 255);
    }
}
