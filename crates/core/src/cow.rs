//! [`CowVec`]: a chunked, copy-on-write, append-only arena.
//!
//! The archive is append-only and a merge writes only the changed nodes
//! and their ancestor paths (timestamp inheritance, §2). `CowVec` turns
//! that into cheap immutable views: elements live in fixed-size chunks,
//! each behind an [`Arc`]. Cloning the arena bumps one reference count per
//! chunk and shares every element; the first write into a shared chunk
//! copies that one chunk ([`Arc::make_mut`]) and leaves the clone
//! untouched. A published view therefore costs O(chunks) to take and
//! O(chunks written) of extra memory to keep, never O(archive).

use std::sync::Arc;

/// Elements per chunk. Small enough that copying a chunk for one write is
/// cheap, large enough that a clone's per-chunk reference-count bumps stay
/// far below the cost of the merge that precedes it.
pub const CHUNK: usize = 64;

/// A growable sequence with structural sharing between clones.
#[derive(Debug, Clone)]
pub struct CowVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        Self {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> CowVec<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The arena of `chunks`, each full but the last, every one put behind
    /// its `Arc` as it is.
    pub(crate) fn from_chunks(chunks: Vec<Vec<T>>) -> Self {
        debug_assert!(chunks.iter().rev().skip(1).all(|c| c.len() == CHUNK));
        Self {
            len: chunks.iter().map(Vec::len).sum(),
            chunks: chunks.into_iter().map(Arc::new).collect(),
        }
    }

    /// The element at `i`, if any.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// Mutable access to the element at `i`, copying its chunk first if a
    /// clone still shares it.
    ///
    /// # Panics
    /// Panics if `i >= len()` — like slice indexing, an out-of-range id is
    /// a bug in the caller.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }

    /// Mutable access to slot `i`, first appending defaults until it
    /// exists (for tables keyed by a dense id that grow with the arena
    /// they annotate).
    pub fn slot_mut(&mut self, i: usize) -> &mut T
    where
        T: Default,
    {
        while self.len <= i {
            self.push(T::default());
        }
        self.get_mut(i)
    }

    /// Appends an element (copying only the tail chunk if it is shared).
    pub fn push(&mut self, value: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let tail = self.chunks.last_mut().expect("a tail chunk exists");
        Arc::make_mut(tail).push(value);
        self.len += 1;
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks at the same position that are not shared by pointer yet hold
    /// the same elements: copies a write did not need.
    #[cfg(test)]
    pub(crate) fn needless_copies(&self, other: &Self) -> usize
    where
        T: PartialEq,
    {
        (self.chunks.iter().zip(&other.chunks))
            .filter(|(a, b)| !Arc::ptr_eq(a, b) && a == b)
            .count()
    }

    /// How many chunks `self` and `other` share by pointer — the measure
    /// of structural sharing between a store and a view taken from it.
    pub fn shared_chunks(&self, other: &Self) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

impl<T: Clone> std::ops::Index<usize> for CowVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T: Clone> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> CowVec<usize> {
        (0..n).collect()
    }

    #[test]
    fn clone_shares_every_chunk() {
        let a = filled(3 * CHUNK + 5);
        let b = a.clone();
        assert_eq!(a.chunk_count(), 4);
        assert_eq!(a.shared_chunks(&b), 4);
        assert_eq!(b.len(), a.len());
    }

    #[test]
    fn a_write_after_clone_copies_exactly_one_chunk() {
        let mut a = filled(4 * CHUNK);
        let view = a.clone();
        *a.get_mut(CHUNK + 3) = 999;
        assert_eq!(a.shared_chunks(&view), 3);
        // a second write into the now-private chunk copies nothing more
        *a.get_mut(CHUNK + 4) = 998;
        assert_eq!(a.shared_chunks(&view), 3);
        // the old clone is unchanged
        assert_eq!(view[CHUNK + 3], CHUNK + 3);
        assert_eq!(view[CHUNK + 4], CHUNK + 4);
        assert_eq!(a[CHUNK + 3], 999);
        assert!(view.iter().copied().eq(0..4 * CHUNK));
    }

    #[test]
    fn pushes_cross_chunk_boundaries() {
        let mut a = CowVec::new();
        assert!(a.is_empty());
        for i in 0..(2 * CHUNK + 1) {
            a.push(i);
            assert_eq!(a.len(), i + 1);
            assert_eq!(a.get(i), Some(&i));
        }
        assert_eq!(a.chunk_count(), 3);
        assert_eq!(a.get(a.len()), None);
        assert!(a.iter().copied().eq(0..2 * CHUNK + 1));
    }

    #[test]
    fn push_after_clone_leaves_the_clone_alone() {
        let mut a = filled(CHUNK + 2);
        let view = a.clone();
        a.push(7);
        a.push(8);
        // only the (partial) tail chunk was copied
        assert_eq!(a.shared_chunks(&view), 1);
        assert_eq!(view.len(), CHUNK + 2);
        assert_eq!(view.get(CHUNK + 2), None);
        assert_eq!(a[CHUNK + 3], 8);
        // a push that opens a fresh chunk shares all the full ones
        let mut full = filled(2 * CHUNK);
        let view = full.clone();
        full.push(1);
        assert_eq!(full.shared_chunks(&view), 2);
    }

    #[test]
    fn slot_mut_grows_with_defaults() {
        let mut t: CowVec<Option<u32>> = CowVec::new();
        *t.slot_mut(CHUNK + 1) = Some(4);
        assert_eq!(t.len(), CHUNK + 2);
        assert_eq!(t[3], None);
        assert_eq!(t[CHUNK + 1], Some(4));
    }
}
