//! Chunked copy-on-write pools of runs: the storage beneath the archive's
//! flat nodes (`crate::archive`).
//!
//! A [`Pool`] holds elements in chunks of `SLOTS`, each behind an [`Arc`]
//! as [`crate::CowVec`]'s chunks are, and hands out [`Run`]s: a chunk, a
//! start and a length. No run straddles a chunk — a run that does not fit
//! in the tail chunk opens the next one, and a run longer than `SLOTS`
//! gets a chunk of its own — so a run is one slice. Cloning a pool bumps
//! one reference count per chunk; the first write into a shared chunk
//! copies that chunk alone. A [`TextPool`] does the same for strings,
//! whose spans are runs of bytes.
//!
//! Pools only grow. A run that must grow and does not end the tail chunk
//! moves there with as many spare slots as it held; the slots it leaves
//! are dead until the archive is rebuilt (a checkpoint restore lays every
//! run down afresh, with no spare).
//!
//! A checkpoint decoder builds its pools of [`Owned`] chunks, which no
//! clone can share, so a write costs no reference-count check;
//! [`Pool::seal`] and [`TextPool::seal`] then put each chunk behind its
//! `Arc` as it is.

use std::marker::PhantomData;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// How a pool holds a chunk: shared behind an [`Arc`] and copied on the
/// first write while a clone shares it, or [`Owned`] outright.
pub(crate) trait Chunk<B>: Deref<Target = B> {
    fn new(buf: B) -> Self;
    fn make_mut(&mut self) -> &mut B;
}

impl<B: Clone> Chunk<B> for Arc<B> {
    fn new(buf: B) -> Self {
        Arc::new(buf)
    }

    #[inline]
    fn make_mut(&mut self) -> &mut B {
        Arc::make_mut(self)
    }
}

/// A chunk no clone shares: what a decoder builds a pool of.
#[derive(Debug)]
pub(crate) struct Owned<B>(B);

impl<B> Deref for Owned<B> {
    type Target = B;

    #[inline]
    fn deref(&self) -> &B {
        &self.0
    }
}

impl<B> Chunk<B> for Owned<B> {
    fn new(buf: B) -> Self {
        Owned(buf)
    }

    #[inline]
    fn make_mut(&mut self) -> &mut B {
        &mut self.0
    }
}

/// A run of a [`Pool`], or a span of a [`TextPool`]: `len` elements from
/// `start` within chunk `chunk`. The empty run at the start of chunk 0 is
/// the default, and is valid in every pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) chunk: u32,
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl Run {
    #[inline]
    fn range(self) -> Range<usize> {
        self.start as usize..self.end()
    }

    #[inline]
    fn end(self) -> usize {
        self.start as usize + self.len as usize
    }
}

/// A pool offset as a `u32`.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("an archive pool holds fewer than 2^32 elements per chunk")
}

/// A [`Pool`] of [`Owned`] chunks, as a decoder builds one.
pub(crate) type OwnedPool<T, const SLOTS: usize> = Pool<T, SLOTS, Owned<Vec<T>>>;

/// Runs of `T` in chunks of `SLOTS` elements, copy-on-write unless a
/// decoder owns them.
#[derive(Debug, Clone)]
pub(crate) struct Pool<T, const SLOTS: usize, C = Arc<Vec<T>>> {
    chunks: Vec<C>,
    elements: PhantomData<T>,
}

impl<T: Copy, const SLOTS: usize, C: Chunk<Vec<T>>> Pool<T, SLOTS, C> {
    /// A pool of one empty chunk, which every empty run points into.
    pub(crate) fn new() -> Self {
        Self {
            chunks: vec![C::new(Vec::new())],
            elements: PhantomData,
        }
    }

    /// The elements of `run`.
    #[inline]
    pub(crate) fn get(&self, run: Run) -> &[T] {
        &self.chunks[run.chunk as usize][run.range()]
    }

    /// The elements of `run`, writable: copies its chunk first if a clone
    /// still shares it.
    pub(crate) fn get_mut(&mut self, run: Run) -> &mut [T] {
        &mut self.chunks[run.chunk as usize].make_mut()[run.range()]
    }

    /// The chunk `n` more elements go into — the tail, or a fresh chunk
    /// when the tail has no room for them — writable and reserved for
    /// them.
    fn tail_for(&mut self, n: usize) -> (usize, &mut Vec<T>) {
        let last = self.chunks.len() - 1;
        let used = self.chunks[last].len();
        let tail = if used > 0 && used + n > SLOTS {
            self.chunks.push(C::new(Vec::with_capacity(n.max(SLOTS))));
            last + 1
        } else {
            last
        };
        let chunk = self.chunks[tail].make_mut();
        if chunk.capacity() < chunk.len() + n {
            chunk.reserve_exact(n.max(SLOTS) - chunk.len());
        }
        (tail, chunk)
    }

    /// Lays down a new run of `items` and `spare` more copies of `fill`
    /// after them, and returns the run of `items`.
    pub(crate) fn extend(&mut self, items: &[T], spare: usize, fill: T) -> Run {
        if items.is_empty() && spare == 0 {
            return Run::default();
        }
        let (tail, chunk) = self.tail_for(items.len() + spare);
        let start = offset(chunk.len());
        chunk.extend_from_slice(items);
        chunk.resize(chunk.len() + spare, fill);
        Run {
            chunk: offset(tail),
            start,
            len: offset(items.len()),
        }
    }

    /// Lays down a new run of `n` elements, each written by `fill` in
    /// order, and returns it; the first error `fill` answers is returned
    /// instead, the slots laid down so far left dead.
    pub(crate) fn extend_with<E>(
        &mut self,
        n: usize,
        mut fill: impl FnMut() -> Result<T, E>,
    ) -> Result<Run, E> {
        if n == 0 {
            return Ok(Run::default());
        }
        let (tail, chunk) = self.tail_for(n);
        let start = offset(chunk.len());
        for _ in 0..n {
            chunk.push(fill()?);
        }
        Ok(Run {
            chunk: offset(tail),
            start,
            len: offset(n),
        })
    }

    /// Appends `v` to `run`, which has `spare` free slots after it: into a
    /// spare slot, onto the end of the tail chunk when the run ends it, or
    /// — neither — after moving the run to the tail, where it takes as
    /// many spare slots as it held when `grow` says so. A moved run's old
    /// slots are left as they were, so a clone that shares their chunk
    /// keeps sharing it.
    pub(crate) fn push(&mut self, run: &mut Run, spare: &mut u32, v: T, grow: bool) {
        let last = self.chunks.len() - 1;
        if *spare > 0 {
            self.get_mut(Run {
                len: run.len + 1,
                ..*run
            })[run.len as usize] = v;
            *spare -= 1;
        } else if run.chunk as usize == last
            && run.end() == self.chunks[last].len()
            && run.end() < SLOTS
        {
            let chunk = self.chunks[last].make_mut();
            if chunk.capacity() == chunk.len() {
                chunk.reserve_exact(SLOTS - chunk.len());
            }
            chunk.push(v);
        } else {
            let len = run.len as usize;
            let more = if grow { len } else { 0 };
            let (tail, _) = self.tail_for(len + 1 + more);
            let (before, after) = self.chunks.split_at_mut(tail);
            let to = after[0].make_mut();
            let start = offset(to.len());
            match before.get(run.chunk as usize) {
                Some(from) => to.extend_from_slice(&from[run.range()]),
                None => to.extend_from_within(run.range()),
            }
            to.push(v);
            to.resize(to.len() + more, v);
            *run = Run {
                chunk: offset(tail),
                start,
                len: run.len,
            };
            *spare = offset(more);
        }
        run.len += 1;
    }

    /// Number of chunks.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Slots laid down, live, spare and dead alike.
    pub(crate) fn slots(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }
}

impl<T, const SLOTS: usize> OwnedPool<T, SLOTS> {
    /// The pool with every chunk behind its `Arc`, as it is.
    pub(crate) fn seal(self) -> Pool<T, SLOTS> {
        Pool {
            chunks: self.chunks.into_iter().map(|c| Arc::new(c.0)).collect(),
            elements: PhantomData,
        }
    }
}

impl<T, const SLOTS: usize> Pool<T, SLOTS> {
    /// Chunks `self` and `other` hold at the same position by pointer.
    pub(crate) fn shared_chunks(&self, other: &Self) -> usize {
        (self.chunks.iter().zip(&other.chunks))
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Chunks at the same position that are not shared by pointer yet
    /// hold the same elements: copies a write did not need.
    #[cfg(test)]
    pub(crate) fn needless_copies(&self, other: &Self) -> usize
    where
        T: PartialEq,
    {
        (self.chunks.iter().zip(&other.chunks))
            .filter(|(a, b)| !Arc::ptr_eq(a, b) && a == b)
            .count()
    }
}

/// Strings as spans of chunks of about `BYTES` bytes, copy-on-write
/// unless a decoder owns them; a longer string gets a chunk of its own.
#[derive(Debug, Clone)]
pub(crate) struct TextPool<const BYTES: usize, C = Arc<String>> {
    chunks: Vec<C>,
}

impl<const BYTES: usize, C: Chunk<String>> TextPool<BYTES, C> {
    /// A pool of one empty chunk, which the empty span points into.
    pub(crate) fn new() -> Self {
        Self {
            chunks: vec![C::new(String::new())],
        }
    }

    /// The string of `span`.
    #[inline]
    pub(crate) fn get(&self, span: Run) -> &str {
        &self.chunks[span.chunk as usize][span.range()]
    }

    /// Appends `s` and returns its span (the empty span for "").
    pub(crate) fn push(&mut self, s: &str) -> Run {
        if s.is_empty() {
            return Run::default();
        }
        let last = self.chunks.len() - 1;
        let used = self.chunks[last].len();
        let tail = if used > 0 && used + s.len() > BYTES {
            self.chunks
                .push(C::new(String::with_capacity(s.len().max(BYTES))));
            last + 1
        } else {
            last
        };
        let chunk = self.chunks[tail].make_mut();
        if chunk.capacity() < chunk.len() + s.len() {
            chunk.reserve_exact(s.len().max(BYTES) - chunk.len());
        }
        let start = offset(chunk.len());
        chunk.push_str(s);
        Run {
            chunk: offset(tail),
            start,
            len: offset(s.len()),
        }
    }

    /// Number of chunks.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl<const BYTES: usize> TextPool<BYTES, Owned<String>> {
    /// The pool with every chunk behind its `Arc`, as it is.
    pub(crate) fn seal(self) -> TextPool<BYTES> {
        TextPool {
            chunks: self.chunks.into_iter().map(|c| Arc::new(c.0)).collect(),
        }
    }
}

impl<const BYTES: usize> TextPool<BYTES> {
    /// Chunks `self` and `other` hold at the same position by pointer.
    pub(crate) fn shared_chunks(&self, other: &Self) -> usize {
        (self.chunks.iter().zip(&other.chunks))
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// As [`Pool::needless_copies`].
    #[cfg(test)]
    pub(crate) fn needless_copies(&self, other: &Self) -> usize {
        (self.chunks.iter().zip(&other.chunks))
            .filter(|(a, b)| !Arc::ptr_eq(a, b) && a == b)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Small = Pool<u32, 8>;

    #[test]
    fn runs_never_straddle_a_chunk() {
        let mut p = Small::new();
        let a = p.extend(&[1, 2, 3, 4, 5], 0, 0);
        let b = p.extend(&[6, 7, 8, 9], 0, 0);
        assert_eq!((a.chunk, b.chunk), (0, 1), "b does not fit beside a");
        let big = p.extend(&[0; 20], 0, 0);
        assert_eq!(
            (big.chunk, big.len),
            (2, 20),
            "a long run has its own chunk"
        );
        assert_eq!(p.get(a), [1, 2, 3, 4, 5]);
        assert_eq!(p.get(b), [6, 7, 8, 9]);
        assert_eq!(p.get(Run::default()), [] as [u32; 0]);
    }

    #[test]
    fn a_growing_run_fills_its_spare_then_moves_with_as_many_again() {
        let mut p = Pool::<u32, 64>::new();
        let (mut run, mut spare) = (Run::default(), 0);
        p.push(&mut run, &mut spare, 1, true);
        p.extend(&[99], 0, 0); // the run no longer ends the pool
        p.push(&mut run, &mut spare, 2, true);
        assert_eq!(
            (run.start, run.len, spare),
            (2, 2, 1),
            "moved with one spare"
        );
        p.extend(&[99], 0, 0);
        p.push(&mut run, &mut spare, 3, true);
        assert_eq!((run.start, spare), (2, 0), "took its spare slot in place");
        assert_eq!(p.get(run), [1, 2, 3]);
        assert_eq!(p.slots(), 1 + 1 + 3 + 1, "dead, 99, the run, 99");
    }

    #[test]
    fn a_write_after_clone_copies_only_its_chunk() {
        let mut p = Small::new();
        let a = p.extend(&[1; 8], 0, 0);
        let b = p.extend(&[2; 8], 0, 0);
        let view = p.clone();
        p.get_mut(b)[0] = 7;
        assert_eq!(p.shared_chunks(&view), 1);
        assert_eq!(view.get(b)[0], 2);
        assert_eq!(p.get(a), view.get(a));
        let mut text = TextPool::<8>::new();
        let s = text.push("héllo");
        let view = text.clone();
        let t = text.push("world!");
        assert_eq!((text.get(s), text.get(t)), ("héllo", "world!"));
        assert_eq!(text.shared_chunks(&view), 1, "the full chunk stays shared");
        assert_eq!(text.push(""), Run::default());
    }

    /// A pool built of owned chunks seals into the same runs, and a failed
    /// fill leaves the pool usable.
    #[test]
    fn an_owned_pool_seals_as_it_was_built() {
        let mut p = OwnedPool::<u32, 8>::new();
        let mut next = 0..;
        let a = p
            .extend_with(6, || Ok::<_, ()>(next.next().unwrap()))
            .unwrap();
        assert_eq!(p.extend_with(3, || Err("bad")), Err("bad"));
        let b = p.extend_with(2, || Ok::<_, ()>(7)).unwrap();
        let sealed = p.seal();
        assert_eq!(sealed.get(a), [0, 1, 2, 3, 4, 5]);
        assert_eq!(sealed.get(b), [7, 7]);
        let mut text = TextPool::<8, Owned<String>>::new();
        let s = text.push("abc");
        assert_eq!(text.seal().get(s), "abc");
    }
}
