//! The builder facade: configure an archive once, get back a
//! [`Box<dyn VersionStore>`] with the layers the workload needs.
//!
//! There is one tier, the in-memory archive (§4.2), and `.with_index()`
//! adds the §7 indexes to it:
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
//! let indexed = ArchiveBuilder::new(spec).with_index().build();
//! assert_eq!(indexed.latest(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Persistence is one more axis of the same configuration: `.durable(path)`
//! wraps the configured store in a crash-safe on-disk journal
//! (see `xarch_storage`), replayed on reopen:
//!
//! ```
//! use xarch::{ArchiveBuilder};
//! use xarch::keys::KeySpec;
//!
//! let path = xarch::storage::scratch_path("builder-doc");
//! let spec = KeySpec::parse("(/, (db, {}))")?;
//! let store = ArchiveBuilder::new(spec.clone())
//!     .durable(&path)
//!     .try_build()?;
//! assert_eq!(store.latest(), 0);
//! drop(store);
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::path::PathBuf;

use crate::handle::ArchiveHandle;
use xarch_core::{Archive, Compaction, ObservedStore, StoreError, VersionStore};
use xarch_index::IndexedArchive;
use xarch_keys::KeySpec;
use xarch_obs::Obs;
use xarch_storage::{DurableArchive, DurableOptions};

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
    /// the in-memory backend with stamp-alternative compaction and no
    /// persistence.
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

    /// Reports the store through `obs`: every backend layer registers its
    /// canonical metrics in `obs`'s registry (journal `segment.*` /
    /// `recovery.*`, index probe counters) and the built store is wrapped
    /// in an [`ObservedStore`](xarch_core::ObservedStore) timing every
    /// query kind and ingest call into `query.*` / `ingest.*` histograms.
    /// Recording is lock-free (atomic handles); keep a clone of `obs` to
    /// render the Prometheus/JSON report and read recent trace events.
    pub fn with_observability(mut self, obs: Obs) -> Self {
        self.observability = Some(obs);
        self
    }

    /// Maintains the §7 query indexes — timestamp trees and the history
    /// index over the in-memory archive's arena
    /// ([`xarch_index::IndexedArchive`]) — so `as_of`, `history`, `range`
    /// and `diff` cost time proportional to the answer instead of a
    /// whole-version materialization. Composes with every other option,
    /// `.durable(..)` included: journal replay re-establishes the
    /// index on reopen, so queries never pay a rebuild.
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

    /// Wraps the configured store in a crash-safe on-disk journal at
    /// `path` (created if absent, replayed if present) with default
    /// [`DurableOptions`]. Composes with `.with_index()` and
    /// `.compaction(..)`: those configure the wrapped store, this makes it
    /// persistent. Use [`ArchiveBuilder::try_build`] to surface open/replay
    /// errors.
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

    /// Builds the configured store, surfacing construction errors: a
    /// durable store can fail to open (I/O error, corrupt segment,
    /// key-spec mismatch). In-memory configurations cannot fail.
    pub fn try_build(self) -> Result<Box<dyn VersionStore>, StoreError> {
        let obs = self.observability;
        let inner: Box<dyn VersionStore> = if self.indexed {
            let mut idx = IndexedArchive::with_compaction(self.spec, self.compaction);
            if let Some(o) = &obs {
                idx.bind_observability(o.registry());
            }
            Box::new(idx)
        } else {
            Box::new(Archive::with_compaction(self.spec, self.compaction))
        };
        let inner: Box<dyn VersionStore> = match self.durable {
            None => inner,
            Some((path, options)) => match &obs {
                Some(o) => Box::new(DurableArchive::open_observed(path, options, inner, o)?),
                None => Box::new(DurableArchive::open_with(path, options, inner)?),
            },
        };
        // the observability wrapper goes outermost, so the query/ingest
        // histograms time what the caller experiences
        Ok(match obs {
            Some(o) => Box::new(ObservedStore::new(inner, &o)),
            None => inner,
        })
    }

    /// Builds the configured store, panicking on construction failure.
    /// Durable configurations should prefer [`ArchiveBuilder::try_build`].
    pub fn build(self) -> Box<dyn VersionStore> {
        self.try_build().expect("archive construction failed")
    }

    /// Builds the configured store wrapped in an [`ArchiveHandle`]: a
    /// cheaply-clonable, `Send + Sync` handle with single-writer /
    /// multi-reader semantics and consistent snapshots that never wait
    /// behind a merge ([`ArchiveHandle::snapshot`] clones the `Arc` of the
    /// published view). The handle owns the one built store and publishes
    /// an immutable [`VersionStore::view`] of it after every commit.
    /// Composes with every builder axis — `.with_index()` and
    /// `.durable(..)`. Surfaces the same construction
    /// errors as [`ArchiveBuilder::try_build`].
    pub fn try_build_shared(self) -> Result<ArchiveHandle, StoreError> {
        let obs = self.observability.clone();
        let store = self.try_build()?;
        Ok(match obs {
            Some(o) => ArchiveHandle::observed(store, &o),
            None => ArchiveHandle::new(store),
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_core::equiv_modulo_key_order;
    use xarch_xml::parse;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))").unwrap()
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
