//! The concurrent service layer: one writer, many readers, over one
//! [`Store`] — published as immutable views.
//!
//! The paper's archive is *append-only*: merging version `i` decides only
//! whether `i` belongs to each element's timestamp, and — timestamps being
//! inherited — writes only the changed nodes and their ancestor paths. So
//! the archive as of version `P` is fixed the moment `P` commits *and*
//! almost entirely shared with the archive as of `P + 1`: what an online
//! archive needs to serve heavy read traffic while curation continues.
//!
//! * [`ArchiveHandle`] is cheaply clonable (an [`Arc`]), `Send + Sync`,
//!   and owns **one** store. Writes are single-writer, serialized on a
//!   mutex that **readers never touch**, and each mutation is applied
//!   once — journal and fsync included;
//! * after a mutation commits, the writer copies the store's readable
//!   state — archive, indexes and metric handles, sharing every unchanged
//!   chunk with the store, so it costs O(changed) — and **publishes** it
//!   with one pointer swap, whose lock is never held across a merge, an
//!   fsync or a query: a reader never waits behind a writer, and a writer
//!   panic cannot touch what readers see;
//! * [`ArchiveHandle::snapshot`] returns a [`Snapshot`]: a [`StoreReader`]
//!   holding the published view — a pinned root, not a window over live
//!   storage. Taking one copies no archive data, and every query through
//!   it, `stats` included, answers from exactly the archive as of the pin
//!   while merges keep landing behind it.
//!
//! ```
//! use xarch::keys::KeySpec;
//! use xarch::xml::parse;
//! use xarch::{ArchiveBuilder, StoreReader};
//!
//! let spec = KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))")?;
//! let handle = ArchiveBuilder::new(spec).build_shared();
//! handle.add_version(&parse("<db><rec><id>1</id></rec></db>")?)?;
//!
//! let snap = handle.snapshot(); // pinned at version 1
//! handle.add_version(&parse("<db><rec><id>2</id></rec></db>")?)?;
//!
//! // the snapshot still sees the world as of version 1 …
//! assert_eq!(snap.latest(), 1);
//! assert!(!snap.has_version(2));
//! // … while the handle serves the live archive
//! assert_eq!(handle.latest(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A mutation that *fails cleanly* (key rejection, oversized payload)
//! leaves the store untouched and publishes nothing. One that *panics* may
//! leave the store half-merged: the handle **quarantines** its write side
//! — later writes return [`StoreError::Backend`] — while reads keep
//! serving the last published view indefinitely.

use std::io::Write;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::store::Store;
use xarch_core::{
    ElementHistory, KeyQuery, RangeEntry, StoreError, StoreReader, StoreStats, TimeSet,
    VersionDelta, VersionStore,
};
use xarch_keys::KeySpec;
use xarch_obs::{Counter, Histogram, Obs};
use xarch_xml::Document;

/// The canonical `handle.*` metric handles.
#[derive(Clone, Debug, Default)]
struct HandleMetrics {
    /// `handle.snapshot_pins` — snapshots taken (repeatable-read pins).
    snapshot_pins: Counter,
    /// `handle.write_lock_hold` — writer section per mutation (µs):
    /// apply (durability included), copy the view, publish.
    write_lock_hold: Histogram,
    /// `handle.publications` — views published, one per committed mutation.
    publications: Counter,
}

impl HandleMetrics {
    fn registered(obs: &Obs) -> Self {
        let r = obs.registry();
        Self {
            snapshot_pins: r.counter(
                "handle.snapshot_pins",
                "snapshots",
                "repeatable-read snapshots pinned off the shared handle",
            ),
            write_lock_hold: r.histogram(
                "handle.write_lock_hold",
                "micros",
                "writer-section duration per mutation through the shared handle",
            ),
            publications: r.counter(
                "handle.publications",
                "publications",
                "immutable views published (pointer swaps) through the shared handle",
            ),
        }
    }
}

/// Runs just before the writer touches the store, given the mutation's
/// documents: tests park a merge on it, or panic in one.
#[cfg(test)]
type WriteHook = Box<dyn FnMut(&[Document]) + Send>;

/// The write side: the one store, and — once it may be inconsistent (a
/// panic mid-merge) — why writes stop.
struct Writer {
    store: Store,
    fault: Option<String>,
    #[cfg(test)]
    hook: Option<WriteHook>,
}

mod slot {
    use std::sync::{Arc, PoisonError, RwLock};

    use crate::store::Store;

    /// The view every read path answers from. Its lock is the one readers
    /// share with the writer, and it is private to this module: no guard
    /// on it lives anywhere but in `load` and `swap`, so none is ever held
    /// across a merge, an fsync or a query.
    pub(super) struct Published(RwLock<Arc<Store>>);

    impl Published {
        pub(super) fn new(view: Arc<Store>) -> Self {
            Self(RwLock::new(view))
        }

        /// The published view: one `Arc` clone. (A poisoned lock still
        /// holds a valid pointer — the only write under it is `swap`'s.)
        pub(super) fn load(&self) -> Arc<Store> {
            Arc::clone(&self.0.read().unwrap_or_else(PoisonError::into_inner))
        }

        /// The publication point: one pointer swap. The guard is a
        /// temporary of the `let`, so the displaced view drops after it
        /// (freeing a last reference can be slow).
        pub(super) fn swap(&self, view: Arc<Store>) {
            let _displaced = std::mem::replace(
                &mut *self.0.write().unwrap_or_else(PoisonError::into_inner),
                view,
            );
        }
    }
}

/// The state one handle and all its clones share.
struct Shared {
    /// Serializes writers and owns the store. Readers never touch it.
    writer: Mutex<Writer>,
    /// The view every read path answers from; only the writer mutex,
    /// which no reader takes, spans a swap.
    published: slot::Published,
    /// Cached: `StoreReader::spec` returns a borrow, which no guard may back.
    spec: KeySpec,
    metrics: HandleMetrics,
}

impl Shared {
    /// Enters the writer section. Poison is unreachable (`mutate` catches
    /// merge panics before the guard drops) and refused rather than
    /// recovered: a store abandoned mid-update must not be written again.
    fn writer(&self) -> Result<MutexGuard<'_, Writer>, StoreError> {
        self.writer
            .lock()
            .map_err(|_| StoreError::Backend("archive handle writer lock is poisoned".into()))
    }

    /// One serialized mutation of `docs`: apply `op` to the store once,
    /// then publish the store's view.
    #[cfg_attr(not(test), allow(unused_variables))]
    fn mutate<T>(
        &self,
        docs: &[Document],
        op: impl FnOnce(&mut Store) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut guard = self.writer()?;
        let w = &mut *guard;
        if let Some(why) = &w.fault {
            return Err(StoreError::Backend(format!(
                "archive handle is quarantined ({why}); reads keep serving the published \
                 version, writes are refused"
            )));
        }
        // declared after the guard, so it records the whole writer section
        let _hold = self.metrics.write_lock_hold.start_timer();
        let applied = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if let Some(hook) = &mut w.hook {
                hook(docs);
            }
            // a clean rejection returns here, the store untouched: a
            // rejected document writes nothing, a rejected batch is rolled
            // back
            op(&mut w.store)
        }));
        match applied {
            Ok(Ok(value)) => {
                self.published.swap(Arc::new(w.store.view()));
                self.metrics.publications.inc();
                Ok(value)
            }
            Ok(Err(rejected)) => Err(rejected),
            // half-applied merge: the store may be inconsistent. Readers
            // stay on the last published view; writes stop here.
            Err(panic) => {
                let why = format!("writer panicked mid-merge: {}", panic_msg(&panic));
                w.fault = Some(why.clone());
                Err(StoreError::Backend(why))
            }
        }
    }
}

/// Best-effort panic payload message for quarantine diagnostics.
fn panic_msg(p: &(dyn std::any::Any + Send)) -> &str {
    p.downcast_ref::<&'static str>()
        .copied()
        .or_else(|| p.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// A cheaply-clonable, thread-safe handle to a shared archive:
/// single-writer / multi-reader over one [`Store`], with reads that never
/// wait behind a writer (see the module docs).
///
/// Reads through the handle (it implements [`StoreReader`]) are *live* —
/// each query answers from whatever view is published when it starts; for
/// consistency across several queries take an [`ArchiveHandle::snapshot`].
/// Constructed by [`crate::ArchiveBuilder::build_shared`] /
/// [`crate::ArchiveBuilder::try_build_shared`], or from a built store
/// with [`ArchiveHandle::new`].
#[derive(Clone)]
pub struct ArchiveHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ArchiveHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArchiveHandle {{ latest: {} }}", self.latest())
    }
}

impl ArchiveHandle {
    /// Shares `store`, publishing its view at once, with detached
    /// (unregistered) `handle.*` metrics.
    pub fn new(store: Store) -> Self {
        Self::with_observability(store, None)
    }

    /// Like [`ArchiveHandle::new`], with `handle.*` registered in `obs`
    /// when there is one.
    pub(crate) fn with_observability(store: Store, obs: Option<&Obs>) -> Self {
        Self {
            shared: Arc::new(Shared {
                published: slot::Published::new(Arc::new(store.view())),
                spec: store.spec().clone(),
                writer: Mutex::new(Writer {
                    store,
                    fault: None,
                    #[cfg(test)]
                    hook: None,
                }),
                metrics: obs.map_or_else(HandleMetrics::default, HandleMetrics::registered),
            }),
        }
    }

    /// Merges `doc` as the next version. Concurrent writes serialize on
    /// the writer mutex; readers keep answering from the published view
    /// until the merge publishes, and earlier snapshots are unaffected.
    pub fn add_version(&self, doc: &Document) -> Result<u32, StoreError> {
        self.shared
            .mutate(std::slice::from_ref(doc), |s| s.add_version(doc))
    }

    /// Archives an *empty* database as the next version.
    pub fn add_empty_version(&self) -> Result<u32, StoreError> {
        self.shared.mutate(&[], |s| s.add_empty_version())
    }

    /// Bulk ingest as **one** writer section with **one** publication:
    /// the archive merges the documents one after another while readers
    /// keep answering from the published view, and a snapshot pins either
    /// the pre-batch or the post-batch version, never a prefix. An empty
    /// batch commits nothing, so it returns `Ok(vec![])` without entering
    /// the writer section.
    pub fn add_versions(&self, docs: &[Document]) -> Result<Vec<u32>, StoreError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        self.shared.mutate(docs, |s| s.add_versions(docs))
    }

    /// A read-only view pinned at the currently-published version. Taking
    /// a snapshot copies no archive data — one `Arc` clone and a counter —
    /// and proceeds at full speed while a merge is in flight.
    pub fn snapshot(&self) -> Snapshot {
        self.shared.metrics.snapshot_pins.inc();
        Snapshot {
            view: self.shared.published.load(),
        }
    }
}

/// Live reads: each query answers from the view published as it starts.
impl StoreReader for ArchiveHandle {
    fn spec(&self) -> &KeySpec {
        &self.shared.spec
    }
    fn latest(&self) -> u32 {
        self.shared.published.load().latest()
    }
    fn has_version(&self, v: u32) -> bool {
        self.shared.published.load().has_version(v)
    }
    fn retrieve(&self, v: u32) -> Result<Option<Document>, StoreError> {
        self.shared.published.load().retrieve(v)
    }
    fn retrieve_into(&self, v: u32, out: &mut dyn Write) -> Result<bool, StoreError> {
        self.shared.published.load().retrieve_into(v, out)
    }
    fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError> {
        self.shared.published.load().history(steps)
    }
    fn stats(&self) -> Result<StoreStats, StoreError> {
        self.shared.published.load().stats()
    }
    fn as_of(&self, steps: &[KeyQuery], v: u32) -> Result<Option<Document>, StoreError> {
        self.shared.published.load().as_of(steps, v)
    }
    fn history_values(&self, steps: &[KeyQuery]) -> Result<Option<ElementHistory>, StoreError> {
        self.shared.published.load().history_values(steps)
    }
    fn range(
        &self,
        prefix: &[KeyQuery],
        versions: RangeInclusive<u32>,
    ) -> Result<Vec<RangeEntry>, StoreError> {
        self.shared.published.load().range(prefix, versions)
    }
    fn diff(&self, steps: &[KeyQuery], v1: u32, v2: u32) -> Result<VersionDelta, StoreError> {
        self.shared.published.load().diff(steps, v1, v2)
    }
}

/// A read-only view of a shared archive pinned at one version `P`.
///
/// The snapshot *is* the archive as of `P`: `latest()` answers `P`,
/// versions and elements first archived after `P` do not exist, and
/// [`StoreReader::stats`] counts exactly the nodes and bytes a serial
/// replay of versions `1..=P` would hold — however many merges commit
/// after it was taken. Snapshots are cheap (one `Arc`), `Clone`, and
/// `Send + Sync`: hand one to each request handler thread. A snapshot
/// holds no lock, so a long-lived one never stalls the writer; it keeps
/// alive only the chunks later merges have since rewritten.
#[derive(Clone)]
pub struct Snapshot {
    view: Arc<Store>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Snapshot {{ pinned: {} }}", self.pinned())
    }
}

impl Snapshot {
    /// The version this snapshot is pinned at (0 over an empty archive).
    pub fn pinned(&self) -> u32 {
        self.view.latest()
    }
}

/// Pinned reads: every query is the held view's own.
impl StoreReader for Snapshot {
    fn spec(&self) -> &KeySpec {
        self.view.spec()
    }
    fn latest(&self) -> u32 {
        self.view.latest()
    }
    fn has_version(&self, v: u32) -> bool {
        self.view.has_version(v)
    }
    fn retrieve(&self, v: u32) -> Result<Option<Document>, StoreError> {
        self.view.retrieve(v)
    }
    fn retrieve_into(&self, v: u32, out: &mut dyn Write) -> Result<bool, StoreError> {
        self.view.retrieve_into(v, out)
    }
    fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError> {
        self.view.history(steps)
    }
    fn stats(&self) -> Result<StoreStats, StoreError> {
        self.view.stats()
    }
    fn as_of(&self, steps: &[KeyQuery], v: u32) -> Result<Option<Document>, StoreError> {
        self.view.as_of(steps, v)
    }
    fn history_values(&self, steps: &[KeyQuery]) -> Result<Option<ElementHistory>, StoreError> {
        self.view.history_values(steps)
    }
    fn range(
        &self,
        prefix: &[KeyQuery],
        versions: RangeInclusive<u32>,
    ) -> Result<Vec<RangeEntry>, StoreError> {
        self.view.range(prefix, versions)
    }
    fn diff(&self, steps: &[KeyQuery], v1: u32, v2: u32) -> Result<VersionDelta, StoreError> {
        self.view.diff(steps, v1, v2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot_oracle as oracle;
    use crate::store::ArchiveBuilder;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;
    use xarch_core::Archive;
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
    }

    /// Version `i` holds records 1..=i, so earlier records live on.
    fn doc(i: u32) -> Document {
        let mut s = String::from("<db>");
        for r in 1..=i {
            s.push_str(&format!("<rec><id>{r}</id><val>v{i}</val></rec>"));
        }
        s.push_str("</db>");
        parse(&s).unwrap()
    }

    /// A handle over an in-memory store whose writer runs `hook` on each
    /// mutation's documents just before it touches the store.
    fn hooked(hook: impl FnMut(&[Document]) + Send + 'static) -> ArchiveHandle {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        handle.shared.writer.lock().unwrap().hook = Some(Box::new(hook));
        handle
    }

    #[test]
    fn handle_and_snapshot_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<ArchiveHandle>();
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn handle_is_clonable_and_live() {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        let other = handle.clone();
        handle.add_version(&doc(1)).unwrap();
        assert_eq!(other.latest(), 1);
        assert!(other.retrieve(1).unwrap().is_some());
    }

    #[test]
    fn snapshot_pins_every_query() {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        handle.add_version(&doc(1)).unwrap();
        handle.add_version(&doc(2)).unwrap();
        let snap = handle.snapshot();
        assert_eq!(snap.pinned(), 2);
        handle.add_version(&doc(3)).unwrap();
        handle.add_empty_version().unwrap();

        // version axis
        assert_eq!(snap.latest(), 2);
        assert!(snap.has_version(2));
        assert!(!snap.has_version(3));
        assert!(snap.retrieve(3).unwrap().is_none());
        let mut bytes = Vec::new();
        assert!(!snap.retrieve_into(3, &mut bytes).unwrap());
        assert!(snap.retrieve(2).unwrap().is_some());

        // history clamps; elements born after the pin don't exist
        let q3 = [
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "3"),
        ];
        assert!(snap.history(&q3).unwrap().is_none());
        assert!(snap.as_of(&q3, 2).unwrap().is_none());
        let q1 = [
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "1"),
        ];
        // rec 1 lives on in v3 of the live archive; the snapshot clamps
        assert_eq!(snap.history(&q1).unwrap().unwrap().to_string(), "1-2");
        assert_eq!(
            handle.history(&q1).unwrap().unwrap().to_string(),
            "1-3",
            "live handle sees the later merge"
        );

        // range windows clamp to the pin
        let hits = snap.range(&[KeyQuery::new("db")], 1..=9).unwrap();
        assert_eq!(hits.len(), 2, "{hits:?}");
        for h in &hits {
            assert!(h.time.versions().all(|v| v <= 2), "{hits:?}");
        }

        // history_values drops post-pin contents
        let hv = snap.history_values(&q1).unwrap().unwrap();
        assert_eq!(hv.existence.to_string(), "1-2");
        assert!(hv.values.iter().all(|(t, _)| t.versions().all(|v| v <= 2)));

        // diff composes from the clamped as_of
        let d = snap.diff(&q1, 1, 3).unwrap();
        assert!(!d.is_same(), "v3 reads as absent from the snapshot");

        // stats report the pinned version count
        assert_eq!(snap.stats().unwrap().versions, 2);
    }

    #[test]
    fn snapshot_stats_are_exact_at_the_pin_and_repeatable() {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        handle.add_version(&doc(1)).unwrap();
        handle.add_version(&doc(2)).unwrap();
        let snap = handle.snapshot();
        let first = snap.stats().unwrap();

        // exact: node counts equal a serial replay of versions 1..=2
        let mut replay = Archive::new(spec());
        replay.add_version(&doc(1)).unwrap();
        replay.add_version(&doc(2)).unwrap();
        let expected = replay.stats();
        assert_eq!(first.versions, 2);
        assert_eq!(first.elements, expected.elements);
        assert_eq!(first.texts, expected.texts);
        assert_eq!(first.stamps, expected.stamps);

        // repeatable: later merges — including an empty version, which
        // terminates every element and promotes inherited timestamps to
        // explicit ones in the live tree — change nothing at the pin
        handle.add_version(&doc(3)).unwrap();
        handle.add_empty_version().unwrap();
        let second = snap.stats().unwrap();
        assert_eq!(first, second, "pinned stats moved under later merges");
        let live = handle.stats().unwrap();
        assert_eq!(live.versions, 4);
        assert!(
            live.elements >= first.elements && live.size_bytes >= first.size_bytes,
            "the live archive only grows"
        );
    }

    #[test]
    fn snapshot_of_empty_archive() {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        let snap = handle.snapshot();
        handle.add_version(&doc(1)).unwrap();
        assert_eq!(snap.pinned(), 0);
        assert_eq!(snap.latest(), 0);
        assert!(!snap.has_version(1));
        assert!(snap.retrieve(1).unwrap().is_none());
        // the synthetic root exists with an empty existence set
        assert_eq!(snap.history(&[]).unwrap().unwrap().to_string(), "");
        assert!(snap.range(&[], 1..=9).unwrap().is_empty());
    }

    #[test]
    fn handle_serves_trait_driven_code() {
        // the handle is a StoreReader itself
        let handle = ArchiveBuilder::new(spec()).build_shared();
        handle.add_version(&doc(1)).unwrap();
        let reader: &dyn StoreReader = &handle;
        assert_eq!(reader.latest(), 1);
        assert!(reader.retrieve(1).unwrap().is_some());
    }

    #[test]
    fn snapshots_and_handles_cross_threads() {
        let handle = ArchiveBuilder::new(spec()).with_index().build_shared();
        handle.add_version(&doc(1)).unwrap();
        let snap = handle.snapshot();
        let writer = handle.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 2..=5 {
                    writer.add_version(&doc(i)).unwrap();
                }
            });
            for _ in 0..4 {
                let snap = snap.clone();
                let handle = handle.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(snap.latest(), 1);
                        assert!(snap.retrieve(1).unwrap().is_some());
                        let live = handle.snapshot();
                        let p = live.pinned();
                        assert!((1..=5).contains(&p));
                        assert!(live.retrieve(p).unwrap().is_some());
                    }
                });
            }
        });
        assert_eq!(handle.latest(), 5);
    }

    /// Satellite regression: pinning snapshots (and every read) must be
    /// wait-free while a slow merge holds the write path. Deterministic —
    /// the merge is parked on a barrier, not a timer: with the old global
    /// RwLock this test would deadlock at `handle.snapshot()`.
    #[test]
    fn snapshots_pin_while_a_slow_merge_is_in_flight() {
        let stall = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(Barrier::new(2));
        let released = Arc::new(Barrier::new(2));
        let handle = hooked({
            let (stall, entered, released) = (stall.clone(), entered.clone(), released.clone());
            move |_| {
                if stall.load(Ordering::Acquire) {
                    entered.wait();
                    released.wait();
                }
            }
        });
        handle.add_version(&doc(1)).unwrap();
        stall.store(true, Ordering::Release);

        std::thread::scope(|s| {
            let writer = handle.clone();
            s.spawn(move || {
                writer.add_version(&doc(2)).unwrap();
            });
            // the merge is now parked in the writer section, mutex held …
            entered.wait();
            // … and every read path still answers instantly
            let snap = handle.snapshot();
            assert_eq!(snap.pinned(), 1);
            assert!(snap.retrieve(1).unwrap().is_some());
            assert_eq!(handle.latest(), 1);
            assert!(handle.retrieve(1).unwrap().is_some());
            stall.store(false, Ordering::Release);
            released.wait();
        });
        assert_eq!(handle.latest(), 2);
        assert!(handle.retrieve(2).unwrap().is_some());
    }

    /// One instance: a mutation through the handle reaches the store
    /// exactly once and publishes once, read off the registry.
    #[test]
    fn each_mutation_is_applied_to_the_store_exactly_once() {
        let obs = Obs::disconnected();
        let handle = ArchiveBuilder::new(spec())
            .with_observability(obs.clone())
            .build_shared();
        handle.add_version(&doc(1)).unwrap();
        handle.add_empty_version().unwrap();
        handle.add_versions(&[doc(2), doc(3)]).unwrap();
        let r = obs.registry();
        let count = |name| r.get_counter(name).unwrap().get();
        assert_eq!(count("ingest.versions"), 4);
        assert_eq!(count("ingest.batches"), 1);
        assert_eq!(count("handle.publications"), 3);
        let merges = r.get_histogram("ingest.merge_duration").unwrap();
        assert_eq!(merges.count(), 2, "one sample per single-version commit");
        assert_eq!(handle.latest(), 4);
        assert_eq!(handle.snapshot().pinned(), 4);
    }

    /// An empty batch commits nothing, so it enters no writer section and
    /// publishes nothing — on a quarantined handle too, which answers it
    /// `Ok(vec![])` as every store does.
    #[test]
    fn an_empty_batch_publishes_nothing() {
        let obs = Obs::disconnected();
        let handle = ArchiveBuilder::new(spec())
            .with_observability(obs.clone())
            .build_shared();
        handle.add_version(&doc(1)).unwrap();
        let r = obs.registry();
        let moved = || {
            (
                r.get_counter("handle.publications").unwrap().get(),
                r.get_histogram("handle.write_lock_hold").unwrap().count(),
                r.get_counter("ingest.batches").unwrap().get(),
            )
        };
        let before = moved();
        assert_eq!(before, (1, 1, 0));
        assert_eq!(handle.add_versions(&[]).unwrap(), Vec::<u32>::new());
        assert_eq!(moved(), before);
        assert_eq!(handle.snapshot().pinned(), 1);

        handle.shared.writer.lock().unwrap().fault = Some("test".into());
        assert_eq!(handle.add_versions(&[]).unwrap(), Vec::<u32>::new());
        assert!(handle.add_versions(&[doc(2)]).is_err(), "still quarantined");
    }

    /// Satellite regression: a writer panic must not cascade into the
    /// readers. With the old handle the panic poisoned the global RwLock
    /// and every later read panicked too; now readers keep serving the
    /// published version and the write side degrades to `Backend` errors.
    #[test]
    fn writer_panic_quarantines_writes_but_readers_keep_answering() {
        // a merge that panics when the incoming document carries the
        // poison marker
        let handle = hooked(|docs| {
            let poisoned = docs
                .iter()
                .any(|d| xarch_xml::writer::to_compact_string(d).contains("boom"));
            if poisoned {
                panic!("injected merge fault");
            }
        });
        handle.add_version(&doc(1)).unwrap();
        let snap = handle.snapshot();

        let poison = parse("<db><rec><id>boom</id></rec></db>").unwrap();
        let err = handle.add_version(&poison).unwrap_err();
        assert!(
            matches!(err, StoreError::Backend(ref m) if m.contains("panicked")),
            "{err}"
        );

        // reads survive — from the handle, from old snapshots, from new
        assert_eq!(handle.latest(), 1);
        assert!(handle.retrieve(1).unwrap().is_some());
        assert_eq!(snap.pinned(), 1);
        assert!(snap.retrieve(1).unwrap().is_some());
        assert_eq!(handle.snapshot().pinned(), 1);

        // the write side stays down: quarantined, never panicking
        let err = handle.add_version(&doc(2)).unwrap_err();
        assert!(
            matches!(err, StoreError::Backend(ref m) if m.contains("quarantined")),
            "{err}"
        );
        assert!(handle.add_empty_version().is_err());
    }

    /// A clean rejection (no panic) must leave the handle fully live:
    /// nothing is published and later writes succeed.
    #[test]
    fn rejected_merges_do_not_quarantine() {
        let handle = ArchiveBuilder::new(spec()).build_shared();
        handle.add_version(&doc(1)).unwrap();
        // an unkeyed root is rejected by validation before any mutation
        let bad = parse("<wrong><x>1</x></wrong>").unwrap();
        assert!(matches!(
            handle.add_version(&bad).unwrap_err(),
            StoreError::Merge(_)
        ));
        assert_eq!(handle.latest(), 1);
        handle.add_version(&doc(2)).unwrap();
        assert_eq!(handle.latest(), 2);
        assert!(handle.retrieve(2).unwrap().is_some());
    }
    /// Where a parked merge and the readers meet. `merge` counts merge starts
    /// and ends, so it is odd while a merge is parked; `probes` counts the
    /// probes completed within the current one.
    struct Latch {
        state: std::sync::Mutex<(u64, u64)>,
        probed: std::sync::Condvar,
        need: u64,
    }

    /// How long a merge waits for the readers before it fails the test.
    const LATCH_BOUND: std::time::Duration = std::time::Duration::from_secs(10);

    impl Latch {
        /// The merge a probe starting now begins in (odd: one is parked).
        fn merge(&self) -> u64 {
            self.state
                .lock()
                .expect("a thread panicked holding the latch")
                .0
        }

        /// A probe that began in `began` has ended: it counts if that merge
        /// is still parked.
        fn probed(&self, began: u64) -> bool {
            let mut state = self
                .state
                .lock()
                .expect("a thread panicked holding the latch");
            let inside = began % 2 == 1 && state.0 == began;
            if inside {
                state.1 += 1;
                self.probed.notify_all();
            }
            inside
        }

        /// Parks the calling merge until `need` probes have completed
        /// inside it; fails with the count after [`LATCH_BOUND`].
        fn park(&self) {
            let mut state = self
                .state
                .lock()
                .expect("a thread panicked holding the latch");
            *state = (state.0 + 1, 0);
            let (mut state, waited) = (self.probed)
                .wait_timeout_while(state, LATCH_BOUND, |s| s.1 < self.need)
                .expect("a thread panicked holding the latch");
            assert!(
                !waited.timed_out(),
                "readers completed only {} of {} probes while merge {} was parked",
                state.1,
                self.need,
                state.0 / 2 + 1
            );
            state.0 += 1;
        }
    }

    /// The reader-latency regression: readers must keep completing *inside*
    /// a writer's stall, not queue behind it. Every merge parks on the
    /// writer hook, holding the handle's writer side, until readers have
    /// completed probes of the byte-compare invariant that began **and**
    /// ended while it was parked. Under the old global-RwLock handle a
    /// reader that arrived mid-merge parked until the merge released the
    /// write lock, so no such probe could complete and the first merge
    /// fails after [`LATCH_BOUND`]; with wait-free publication every merge
    /// is released by the readers, with no dependence on how the threads
    /// are scheduled. Run optimized too (CI does), so the threads genuinely
    /// interleave.
    #[test]
    fn stress_reader_latency_under_writer_stall() {
        use oracle::{check_snapshot, serial_replay, version_doc, VERSIONS};

        const STALL_READERS: usize = 8;
        const PROBES_PER_MERGE: u64 = 2;

        let mut serial = Archive::new(oracle::spec());
        let exp = Arc::new(serial_replay(&mut serial));
        let latch = Arc::new(Latch {
            state: std::sync::Mutex::new((0, 0)),
            probed: std::sync::Condvar::new(),
            need: PROBES_PER_MERGE,
        });
        let handle = hooked({
            let latch = Arc::clone(&latch);
            move |_| latch.park()
        });
        let mid_merge_reads = AtomicU64::new(0);

        std::thread::scope(|s| {
            let writer = handle.clone();
            s.spawn(move || {
                for v in 1..=VERSIONS {
                    match version_doc(v) {
                        Some(doc) => assert_eq!(writer.add_version(&doc).unwrap(), v),
                        None => assert_eq!(writer.add_empty_version().unwrap(), v),
                    }
                }
            });
            for _ in 0..STALL_READERS {
                let handle = handle.clone();
                let exp = Arc::clone(&exp);
                let latch = Arc::clone(&latch);
                let mid = &mid_merge_reads;
                s.spawn(move || {
                    let mut probes = 0u64;
                    loop {
                        let began = latch.merge();
                        let snap = handle.snapshot();
                        let p = snap.pinned();
                        // cheap probe: the streamed bytes at the pin must
                        // match the serial recording, merge in flight or not
                        if p > 0 {
                            let mut sink = Vec::new();
                            let wrote = snap.retrieve_into(p, &mut sink).unwrap();
                            assert_eq!(wrote.then_some(sink), exp.bytes[p as usize]);
                        }
                        if latch.probed(began) {
                            mid.fetch_add(1, Ordering::Relaxed);
                        }
                        probes += 1;
                        if probes.is_multiple_of(32) {
                            // periodic full byte-compare across the query
                            // surface
                            check_snapshot("stalled-writer", &snap, &exp);
                        }
                        if p == VERSIONS {
                            break;
                        }
                    }
                });
            }
        });

        assert_eq!(handle.latest(), VERSIONS);
        check_snapshot("stalled-writer/final", &handle.snapshot(), &exp);
        let mid = mid_merge_reads.load(Ordering::Relaxed);
        assert!(
            mid >= u64::from(VERSIONS) * PROBES_PER_MERGE,
            "every merge is released by probes completed inside it, but only {mid} were"
        );
    }
}
