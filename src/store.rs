//! The builder facade and the one store it builds.
//!
//! [`ArchiveBuilder`] configures an archive once; [`ArchiveBuilder::open`]
//! returns the [`Store`]: the in-memory archive (§4.2), with the §7
//! indexes under `.with_index()`, a crash-safe journal under
//! `.durable(path)` and `query.*` / `ingest.*` metrics under
//! `.with_observability(..)`:
//!
//! ```
//! use xarch::ArchiveBuilder;
//! use xarch::core::Compaction;
//! use xarch::keys::KeySpec;
//!
//! let spec = KeySpec::parse("(/, (db, {}))")?;
//! let store = ArchiveBuilder::new(spec.clone())
//!     .compaction(Compaction::Weave)
//!     .build();
//! assert_eq!(store.latest(), 0);
//! let indexed = ArchiveBuilder::new(spec).with_index().open()?;
//! assert!(indexed.indexes().is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Persistence is one more axis of the same configuration: `.durable(path)`
//! journals every commit to a segment file (see `xarch_storage`),
//! replayed on reopen:
//!
//! ```
//! use xarch::keys::KeySpec;
//! use xarch::{ArchiveBuilder, StoreReader};
//!
//! let path = xarch::storage::scratch_path("builder-doc");
//! let spec = KeySpec::parse("(/, (db, {}))")?;
//! let store = ArchiveBuilder::new(spec.clone())
//!     .durable(&path)
//!     .open()?;
//! assert_eq!(store.latest(), 0);
//! assert!(store.journal().is_some());
//! drop(store);
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::Write;
use std::ops::RangeInclusive;
use std::path::PathBuf;

use crate::handle::ArchiveHandle;
use xarch_core::kernel::{self, Scan};
use xarch_core::{
    Archive, Compaction, ElementHistory, KeyQuery, QueryMetrics, RangeEntry, StoreError,
    StoreReader, StoreStats, TimeSet, VersionDelta, VersionStore,
};
use xarch_index::Indexes;
use xarch_keys::KeySpec;
use xarch_obs::{Histogram, Obs, Timer};
use xarch_storage::{DurableOptions, Journal};
use xarch_xml::Document;

/// Configures and constructs an archive: the in-memory tier (§4.2),
/// optionally indexed, journaled and observed.
#[derive(Debug, Clone)]
pub struct ArchiveBuilder {
    spec: KeySpec,
    compaction: Compaction,
    durable: Option<(PathBuf, DurableOptions)>,
    /// Checkpoint cadence requested before `.durable(..)` was called —
    /// folded into the journal options when the durable layer is added.
    checkpoint_every: Option<u32>,
    indexed: bool,
    observability: Option<Obs>,
}

impl ArchiveBuilder {
    /// Starts a builder for an archive governed by `spec`, defaulting to
    /// the in-memory archive with stamp-alternative compaction, no
    /// indexes and no persistence.
    pub fn new(spec: KeySpec) -> Self {
        Self {
            spec,
            compaction: Compaction::default(),
            durable: None,
            checkpoint_every: None,
            indexed: false,
            observability: None,
        }
    }

    /// Reports the store through `obs`: the journal registers its
    /// `segment.*` / `checkpoint.*` / `recovery.*` metrics, the indexes
    /// their probe counters, and the store times every query kind and
    /// ingest call into the `query.*` / `ingest.*` histograms
    /// ([`QueryMetrics`]). Recording is lock-free (atomic handles); keep a
    /// clone of `obs` to render the Prometheus/JSON report and read recent
    /// trace events.
    pub fn with_observability(mut self, obs: Obs) -> Self {
        self.observability = Some(obs);
        self
    }

    /// Maintains the §7 query indexes — timestamp trees and the history
    /// index over the archive's arena ([`Indexes`]) — so `as_of`,
    /// `history`, `range` and `diff` cost time proportional to the answer
    /// instead of a whole-version materialization. Composes with every
    /// other option, `.durable(..)` included: a reopened store builds its
    /// indexes once, after replay.
    pub fn with_index(mut self) -> Self {
        self.indexed = true;
        self
    }

    /// Sets the frontier compaction mode (§4.2's alternatives vs Fig 10's
    /// weave).
    pub fn compaction(mut self, compaction: Compaction) -> Self {
        self.compaction = compaction;
        self
    }

    /// Journals the store to a crash-safe segment file at `path` (created
    /// if absent, replayed if present) with default [`DurableOptions`].
    /// Composes with `.with_index()` and `.compaction(..)`. Use
    /// [`ArchiveBuilder::open`] or [`ArchiveBuilder::try_build`] to
    /// surface open/replay errors.
    pub fn durable(self, path: impl Into<PathBuf>) -> Self {
        self.durable_with(path, DurableOptions::default())
    }

    /// Like [`ArchiveBuilder::durable`], with explicit journal options
    /// (per-block compression, sync policy, checkpoint cadence).
    pub fn durable_with(mut self, path: impl Into<PathBuf>, mut options: DurableOptions) -> Self {
        if options.checkpoint_every.is_none() {
            options.checkpoint_every = self.checkpoint_every;
        }
        self.durable = Some((path.into(), options));
        self
    }

    /// Appends a checkpoint block to the durable journal after every `n`
    /// committed versions, so reopening restores the newest snapshot and
    /// replays only the tail — reopen cost stays flat as history grows.
    /// Only meaningful together with [`ArchiveBuilder::durable`] /
    /// [`ArchiveBuilder::durable_with`] (order does not matter); `n = 0`
    /// disables checkpointing.
    pub fn checkpoint_every(mut self, n: u32) -> Self {
        let cadence = (n > 0).then_some(n);
        match &mut self.durable {
            Some((_, options)) => options.checkpoint_every = cadence,
            None => self.checkpoint_every = cadence,
        }
        self
    }

    /// Builds the configured [`Store`], surfacing construction errors: a
    /// durable store can fail to open (I/O error, corrupt segment,
    /// key-spec mismatch). In-memory configurations cannot fail.
    pub fn open(self) -> Result<Store, StoreError> {
        let obs = self.observability.as_ref();
        let (archive, journal) = match self.durable {
            None => (Archive::with_compaction(self.spec, self.compaction), None),
            Some((path, options)) => {
                let (journal, archive) =
                    Journal::open(path, options, self.spec, self.compaction, obs)?;
                (archive, Some(journal))
            }
        };
        let index = self.indexed.then(|| {
            let mut index = Indexes::build(&archive);
            if let Some(o) = obs {
                index.bind_observability(o.registry());
            }
            index
        });
        Ok(Store {
            archive,
            index,
            journal,
            metrics: obs.map(QueryMetrics::registered),
        })
    }

    /// [`ArchiveBuilder::open`], boxed as a [`VersionStore`].
    pub fn try_build(self) -> Result<Box<dyn VersionStore>, StoreError> {
        Ok(Box::new(self.open()?))
    }

    /// Builds the configured store, panicking on construction failure.
    /// Durable configurations should prefer [`ArchiveBuilder::try_build`].
    pub fn build(self) -> Box<dyn VersionStore> {
        self.try_build().expect("archive construction failed")
    }

    /// Builds the configured store inside an [`ArchiveHandle`]: a
    /// cheaply-clonable, `Send + Sync` handle with single-writer /
    /// multi-reader semantics and consistent snapshots that never wait
    /// behind a merge ([`ArchiveHandle::snapshot`] clones the `Arc` of the
    /// published view). Composes with every builder axis and surfaces the
    /// same construction errors as [`ArchiveBuilder::open`].
    pub fn try_build_shared(self) -> Result<ArchiveHandle, StoreError> {
        let obs = self.observability.clone();
        let store = self.open()?;
        Ok(ArchiveHandle::with_observability(store, obs.as_ref()))
    }

    /// Like [`ArchiveBuilder::try_build_shared`], panicking on
    /// construction failure. Durable configurations should prefer the
    /// fallible variant.
    pub fn build_shared(self) -> ArchiveHandle {
        self.try_build_shared()
            .expect("archive construction failed")
    }

    /// Builds the configured store for *serving*: a shared
    /// [`ArchiveHandle`] plus the [`Obs`] instance every layer reports
    /// into. This is the hook the `xarch_server` crate calls — a service
    /// needs both the handle (to pin per-request snapshots) and the
    /// observability registry (to register its own `server.*` metrics
    /// and render the exposition), so an `Obs` is created here when the
    /// builder was not already given one via
    /// [`ArchiveBuilder::with_observability`].
    pub fn try_build_served(mut self) -> Result<(ArchiveHandle, Obs), StoreError> {
        let obs = self.observability.get_or_insert_with(Obs::new).clone();
        let handle = self.try_build_shared()?;
        Ok((handle, obs))
    }
}

/// The archive store: one in-memory [`Archive`], its §7 [`Indexes`] when
/// built `.with_index()`, its [`Journal`] when built `.durable(..)`, and
/// its [`QueryMetrics`] when built `.with_observability(..)`.
///
/// A commit merges into the archive (through the journal when there is
/// one, which appends and syncs before acknowledging), then refreshes the
/// indexes over what the merge wrote. Queries run the query kernel over
/// the indexes when there are any and over [`Scan`] otherwise;
/// `retrieve_into` is always the archive's own scan. Reads never touch the
/// journal.
pub struct Store {
    archive: Archive,
    index: Option<Indexes>,
    journal: Option<Journal>,
    metrics: Option<QueryMetrics>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("latest", &self.archive.latest())
            .field("indexed", &self.index.is_some())
            .field("journal", &self.journal)
            .finish_non_exhaustive()
    }
}

/// Runs `$body` with `$nav` bound to the store's navigator: its indexes,
/// or the plain scan.
macro_rules! with_nav {
    ($store:expr, $nav:ident => $body:expr) => {
        match &$store.index {
            Some($nav) => $body,
            None => {
                let $nav = &Scan;
                $body
            }
        }
    };
}

impl Store {
    /// The archive.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// The §7 indexes, when the store was built `.with_index()`.
    pub fn indexes(&self) -> Option<&Indexes> {
        self.index.as_ref()
    }

    /// The journal, when the store was built `.durable(..)`: recovery
    /// statistics, checkpoint and block counters, poisoning.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// The readable state as it stands now, for publication: archive,
    /// indexes and metric handles clone structurally (copy-on-write
    /// chunks, so O(changed)); the journal stays with this store.
    pub(crate) fn view(&self) -> Store {
        Store {
            archive: self.archive.clone(),
            index: self.index.clone(),
            journal: None,
            metrics: self.metrics.clone(),
        }
    }

    /// Starts timing into the histogram `pick` selects, if observed.
    fn timer(&self, pick: fn(&QueryMetrics) -> &Histogram) -> Option<Timer> {
        self.metrics.as_ref().map(|m| pick(m).start_timer())
    }

    /// One commit: `op` merges (and journals), then the indexes are
    /// refreshed over what it wrote. A journal append that fails after
    /// its merge still moved the archive, so the refresh follows the
    /// archive, not the result.
    fn commit<T>(
        &mut self,
        op: impl FnOnce(&mut Archive, Option<&mut Journal>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let before = self.archive.latest();
        let result = op(&mut self.archive, self.journal.as_mut());
        if let Some(index) = &mut self.index {
            if self.archive.latest() != before {
                index.refresh(&self.archive);
            }
        }
        result
    }

    /// Counts `versions` committed versions (and a batch) if observed.
    fn count(&self, versions: usize, batch: bool) {
        if let Some(m) = &self.metrics {
            m.ingest_versions.add(versions as u64);
            if batch {
                m.ingest_batches.inc();
            }
        }
    }
}

/// Every query kind is timed into its own `query.*` histogram; `spec`,
/// `latest`, `has_version` and `stats` are not queries and run untimed.
impl StoreReader for Store {
    fn spec(&self) -> &KeySpec {
        self.archive.spec()
    }

    fn latest(&self) -> u32 {
        self.archive.latest()
    }

    fn retrieve(&self, v: u32) -> Result<Option<Document>, StoreError> {
        let _t = self.timer(|m| &m.retrieve);
        Ok(with_nav!(self, nav => kernel::retrieve(&self.archive, nav, v)))
    }

    fn retrieve_into(&self, v: u32, out: &mut dyn Write) -> Result<bool, StoreError> {
        let _t = self.timer(|m| &m.retrieve);
        StoreReader::retrieve_into(&self.archive, v, out)
    }

    fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError> {
        let _t = self.timer(|m| &m.history);
        Ok(with_nav!(self, nav => kernel::history(&self.archive, nav, steps)))
    }

    fn stats(&self) -> Result<StoreStats, StoreError> {
        StoreReader::stats(&self.archive)
    }

    fn as_of(&self, steps: &[KeyQuery], v: u32) -> Result<Option<Document>, StoreError> {
        let _t = self.timer(|m| &m.as_of);
        Ok(with_nav!(self, nav => kernel::as_of(&self.archive, nav, steps, v)))
    }

    fn history_values(&self, steps: &[KeyQuery]) -> Result<Option<ElementHistory>, StoreError> {
        let _t = self.timer(|m| &m.history_values);
        Ok(with_nav!(self, nav => kernel::history_values(&self.archive, nav, steps)))
    }

    fn range(
        &self,
        prefix: &[KeyQuery],
        versions: RangeInclusive<u32>,
    ) -> Result<Vec<RangeEntry>, StoreError> {
        let _t = self.timer(|m| &m.range);
        Ok(with_nav!(self, nav => kernel::range(&self.archive, nav, prefix, versions)))
    }

    fn diff(&self, steps: &[KeyQuery], v1: u32, v2: u32) -> Result<VersionDelta, StoreError> {
        let _t = self.timer(|m| &m.diff);
        Ok(with_nav!(self, nav => kernel::diff(&self.archive, nav, steps, v1, v2)))
    }
}

/// Ingest is timed into `ingest.merge_duration` (one version) or
/// `ingest.batch_merge_duration` (a non-empty batch), journal and index
/// refresh included; a failed commit is timed but not counted.
impl VersionStore for Store {
    fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError> {
        let _t = self.timer(|m| &m.merge_duration);
        let v = self.commit(|archive, journal| match journal {
            Some(journal) => journal.add_version(archive, doc),
            None => Ok(archive.add_version(doc)?),
        })?;
        self.count(1, false);
        Ok(v)
    }

    fn add_empty_version(&mut self) -> Result<u32, StoreError> {
        let _t = self.timer(|m| &m.merge_duration);
        let v = self.commit(|archive, journal| match journal {
            Some(journal) => journal.add_empty_version(archive),
            None => Ok(archive.add_empty_version()),
        })?;
        self.count(1, false);
        Ok(v)
    }

    fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, StoreError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let _t = self.timer(|m| &m.batch_merge_duration);
        let assigned = self.commit(|archive, journal| match journal {
            Some(journal) => journal.add_versions(archive, docs),
            None => Ok(archive.add_versions(docs)?),
        })?;
        self.count(assigned.len(), true);
        Ok(assigned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_core::equiv_modulo_key_order;
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))").unwrap()
    }

    #[test]
    fn store_is_shareable_across_threads() {
        // the api-contract rule's assertion for `impl VersionStore for Store`
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Store>();
    }

    fn observed(obs: &Obs) -> Store {
        ArchiveBuilder::new(spec())
            .with_observability(obs.clone())
            .open()
            .unwrap()
    }

    fn doc(id: u32) -> Document {
        parse(&format!("<db><rec><id>{id}</id></rec></db>")).unwrap()
    }

    #[test]
    fn ingest_counts_versions_and_batches() {
        let obs = Obs::disconnected();
        let mut s = observed(&obs);
        s.add_version(&doc(1)).unwrap();
        s.add_versions(&[doc(1), doc(2)]).unwrap();
        assert_eq!(s.add_versions(&[]).unwrap(), Vec::<u32>::new());
        let r = obs.registry();
        assert_eq!(r.get_counter("ingest.versions").unwrap().get(), 3);
        assert_eq!(r.get_counter("ingest.batches").unwrap().get(), 1);
        let batches = r.get_histogram("ingest.batch_merge_duration").unwrap();
        assert_eq!(batches.count(), 1, "empty batches record nothing");
    }

    #[test]
    fn failed_ingest_is_timed_but_not_counted() {
        let obs = Obs::disconnected();
        let mut s = observed(&obs);
        assert!(s
            .add_version(&parse("<wrong><x>1</x></wrong>").unwrap())
            .is_err());
        let r = obs.registry();
        assert_eq!(r.get_counter("ingest.versions").unwrap().get(), 0);
        assert_eq!(r.get_histogram("ingest.merge_duration").unwrap().count(), 1);
    }

    #[test]
    fn a_view_records_queries_into_the_same_histograms() {
        let obs = Obs::disconnected();
        let mut s = observed(&obs);
        s.add_version(&doc(1)).unwrap();
        let view = s.view();
        s.add_version(&doc(2)).unwrap();
        assert_eq!(view.latest(), 1, "a view never moves");
        assert!(view.journal().is_none());
        let _ = view.retrieve(1).unwrap();
        let _ = s.retrieve(1).unwrap();
        let r = obs.registry();
        let retrieves = r.get_histogram("query.retrieve.duration").unwrap();
        assert_eq!(retrieves.count(), 2);
        assert_eq!(r.get_counter("ingest.versions").unwrap().get(), 2);
    }

    /// A reopened indexed store builds its indexes once, after replay, and
    /// binds their probe counters to the registry it reports into.
    #[test]
    fn an_indexed_store_reopened_from_a_checkpoint_charges_the_registry() {
        let path = xarch_storage::scratch_path("builder-indexed-reopen");
        let build = |obs: &Obs| {
            ArchiveBuilder::new(spec())
                .with_index()
                .checkpoint_every(2)
                .durable(&path)
                .with_observability(obs.clone())
                .open()
                .unwrap()
        };
        {
            let mut store = build(&Obs::disconnected());
            for id in 1..=5 {
                store.add_version(&doc(id)).unwrap();
            }
        }
        let obs = Obs::disconnected();
        let store = build(&obs);
        let recovery = store.journal().unwrap().recovery();
        assert!(recovery.checkpoint_loaded);
        assert_eq!(recovery.tail_blocks_replayed, 1);
        let q = [
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", "3"),
        ];
        assert_eq!(store.history(&q).unwrap().unwrap().to_string(), "3");
        let comparisons = obs.registry().get_counter("index.history.comparisons");
        assert!(comparisons.unwrap().get() > 0, "the counter is bound");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn builder_constructs_every_backend() {
        let doc = parse("<db><rec><id>1</id></rec></db>").unwrap();
        let builders = [
            ArchiveBuilder::new(spec()),
            ArchiveBuilder::new(spec()).with_index(),
            ArchiveBuilder::new(spec()).compaction(Compaction::Weave),
        ];
        for b in builders {
            let mut store = b.build();
            store.add_version(&doc).unwrap();
            let got = store.retrieve(1).unwrap().unwrap();
            assert!(equiv_modulo_key_order(&got, &doc, store.spec()));
        }
    }

    #[test]
    fn durable_composes_with_other_options() {
        let doc = parse("<db><rec><id>1</id></rec></db>").unwrap();
        let path = xarch_storage::scratch_path("builder-durable");
        {
            let mut store = ArchiveBuilder::new(spec())
                .compaction(Compaction::Weave)
                .durable(&path)
                .try_build()
                .unwrap();
            store.add_version(&doc).unwrap();
        }
        // reopening through the same builder configuration replays the journal
        let store = ArchiveBuilder::new(spec())
            .compaction(Compaction::Weave)
            .durable(&path)
            .try_build()
            .unwrap();
        assert_eq!(store.latest(), 1);
        let got = store.retrieve(1).unwrap().unwrap();
        assert!(equiv_modulo_key_order(&got, &doc, store.spec()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_cadence_folds_into_the_journal_in_either_order() {
        // cadence before .durable(..) is held on the builder and folded in;
        // cadence after edits the journal options directly; n = 0 disables
        let before = ArchiveBuilder::new(spec())
            .checkpoint_every(3)
            .durable(xarch_storage::scratch_path("builder-cp-before"));
        let after = ArchiveBuilder::new(spec())
            .durable(xarch_storage::scratch_path("builder-cp-after"))
            .checkpoint_every(3);
        for b in [before, after] {
            let (_, options) = b.durable.as_ref().unwrap();
            assert_eq!(options.checkpoint_every, Some(3));
        }
        let off = ArchiveBuilder::new(spec())
            .checkpoint_every(5)
            .checkpoint_every(0)
            .durable(xarch_storage::scratch_path("builder-cp-off"));
        assert_eq!(off.durable.as_ref().unwrap().1.checkpoint_every, None);
        // explicit options win over a builder-level cadence
        let explicit = ArchiveBuilder::new(spec())
            .checkpoint_every(9)
            .durable_with(
                xarch_storage::scratch_path("builder-cp-explicit"),
                DurableOptions {
                    checkpoint_every: Some(2),
                    ..DurableOptions::default()
                },
            );
        assert_eq!(
            explicit.durable.as_ref().unwrap().1.checkpoint_every,
            Some(2)
        );
    }

    #[test]
    fn checkpointed_builder_reopens_from_the_snapshot() {
        let path = xarch_storage::scratch_path("builder-checkpointed");
        let build = || {
            ArchiveBuilder::new(spec())
                .checkpoint_every(2)
                .durable(&path)
                .try_build()
                .unwrap()
        };
        {
            let mut store = build();
            for n in 1..=5u32 {
                let doc = parse(&format!("<db><rec><id>{n}</id></rec></db>")).unwrap();
                store.add_version(&doc).unwrap();
            }
        }
        let store = build();
        assert_eq!(store.latest(), 5);
        let got = store.retrieve(3).unwrap().unwrap();
        assert!(xarch_xml::writer::to_compact_string(&got).contains("<id>3</id>"));
        std::fs::remove_file(&path).unwrap();
    }
}
