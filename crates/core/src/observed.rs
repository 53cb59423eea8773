//! [`ObservedStore`]: the observability wrapper every backend reports
//! through.
//!
//! Backends own their *structural* counters (journal fsyncs, paged I/O,
//! index probes); what they cannot see is the query and ingest surface as
//! the caller experiences it. `ObservedStore` wraps any
//! [`VersionStore`] as the outermost layer and times every query kind and
//! ingest call into per-operation latency histograms registered under the
//! canonical `query.*` / `ingest.*` names — recording is a timer-guard
//! drop onto lock-free atomics, so wrapping adds no lock acquisition to
//! any read or write path.

use std::io::Write;
use std::ops::{Deref, RangeInclusive};
use std::sync::Arc;

use xarch_obs::{Counter, Histogram, Obs};
use xarch_xml::Document;

use crate::history::KeyQuery;
use crate::query::{ElementHistory, RangeEntry, VersionDelta};
use crate::store::{StoreError, StoreReader, StoreView, VersionStore};
use crate::timeset::TimeSet;

/// The canonical `query.*` / `ingest.*` metric handles an
/// [`ObservedStore`] records into.
#[derive(Clone, Debug)]
pub struct QueryMetrics {
    /// `query.retrieve.duration` — full-version retrieval latency (µs).
    pub retrieve: Histogram,
    /// `query.as_of.duration` — partial as-of retrieval latency (µs).
    pub as_of: Histogram,
    /// `query.history.duration` — temporal history latency (µs).
    pub history: Histogram,
    /// `query.history_values.duration` — value-history latency (µs).
    pub history_values: Histogram,
    /// `query.range.duration` — range scan latency (µs).
    pub range: Histogram,
    /// `query.diff.duration` — version diff latency (µs).
    pub diff: Histogram,
    /// `ingest.versions` — versions committed (plain or batched).
    pub ingest_versions: Counter,
    /// `ingest.batches` — `add_versions` batches committed.
    pub ingest_batches: Counter,
    /// `ingest.merge_duration` — single-version merge+commit latency (µs).
    pub merge_duration: Histogram,
    /// `ingest.batch_merge_duration` — whole-batch merge+commit latency
    /// (µs), one sample per batch on whichever backend ran it.
    pub batch_merge_duration: Histogram,
}

impl QueryMetrics {
    /// Handles registered under the canonical query/ingest metric names.
    pub fn registered(obs: &Obs) -> Self {
        let r = obs.registry();
        Self {
            retrieve: r.histogram("query.retrieve.duration", "micros", "retrieve latency"),
            as_of: r.histogram("query.as_of.duration", "micros", "as-of retrieval latency"),
            history: r.histogram("query.history.duration", "micros", "history query latency"),
            history_values: r.histogram(
                "query.history_values.duration",
                "micros",
                "value-history query latency",
            ),
            range: r.histogram("query.range.duration", "micros", "range scan latency"),
            diff: r.histogram("query.diff.duration", "micros", "version diff latency"),
            ingest_versions: r.counter(
                "ingest.versions",
                "versions",
                "versions committed through the store",
            ),
            ingest_batches: r.counter(
                "ingest.batches",
                "batches",
                "bulk-ingest batches committed through the store",
            ),
            merge_duration: r.histogram(
                "ingest.merge_duration",
                "micros",
                "single-version merge and commit latency",
            ),
            batch_merge_duration: r.histogram(
                "ingest.batch_merge_duration",
                "micros",
                "whole-batch merge and commit latency",
            ),
        }
    }
}

/// A store wrapper that times every query kind and ingest call into the
/// canonical latency histograms. Built by
/// `ArchiveBuilder::with_observability(..)` as the outermost layer.
///
/// `S` is whatever owns the wrapped store: the default boxed
/// [`VersionStore`] for the read-write wrapper, or the `Arc`'d reader of
/// an immutable view ([`VersionStore::view`]) — both record into the same
/// metric handles, so a query is counted once wherever it is served.
pub struct ObservedStore<S = Box<dyn VersionStore>> {
    inner: S,
    metrics: QueryMetrics,
}

impl<S> std::fmt::Debug for ObservedStore<S>
where
    S: Deref,
    S::Target: StoreReader,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedStore")
            .field("latest", &self.inner.latest())
            .finish_non_exhaustive()
    }
}

impl ObservedStore {
    /// Wraps `inner`, registering the canonical query/ingest metrics in
    /// `obs`'s registry.
    pub fn new(inner: Box<dyn VersionStore>, obs: &Obs) -> Self {
        Self {
            inner,
            metrics: QueryMetrics::registered(obs),
        }
    }

    /// The metric handles this wrapper records into.
    pub fn metrics(&self) -> &QueryMetrics {
        &self.metrics
    }
}

/// Times every query kind; `spec`, `latest`, `has_version` and `stats`
/// are not queries and forward untimed.
impl<S> crate::store::Layer for ObservedStore<S>
where
    S: Deref,
    S::Target: StoreReader,
{
    type Inner = S::Target;

    fn inner(&self) -> &S::Target {
        &self.inner
    }

    fn retrieve(&self, v: u32) -> Result<Option<Document>, StoreError> {
        let _t = self.metrics.retrieve.start_timer();
        self.inner.retrieve(v)
    }

    fn retrieve_into(&self, v: u32, out: &mut dyn Write) -> Result<bool, StoreError> {
        let _t = self.metrics.retrieve.start_timer();
        self.inner.retrieve_into(v, out)
    }

    fn history(&self, steps: &[KeyQuery]) -> Result<Option<TimeSet>, StoreError> {
        let _t = self.metrics.history.start_timer();
        self.inner.history(steps)
    }

    fn as_of(&self, steps: &[KeyQuery], v: u32) -> Result<Option<Document>, StoreError> {
        let _t = self.metrics.as_of.start_timer();
        self.inner.as_of(steps, v)
    }

    fn history_values(&self, steps: &[KeyQuery]) -> Result<Option<ElementHistory>, StoreError> {
        let _t = self.metrics.history_values.start_timer();
        self.inner.history_values(steps)
    }

    fn range(
        &self,
        prefix: &[KeyQuery],
        versions: RangeInclusive<u32>,
    ) -> Result<Vec<RangeEntry>, StoreError> {
        let _t = self.metrics.range.start_timer();
        self.inner.range(prefix, versions)
    }

    fn diff(&self, steps: &[KeyQuery], v1: u32, v2: u32) -> Result<VersionDelta, StoreError> {
        let _t = self.metrics.diff.start_timer();
        self.inner.diff(steps, v1, v2)
    }
}

impl VersionStore for ObservedStore {
    fn add_version(&mut self, doc: &Document) -> Result<u32, StoreError> {
        let _t = self.metrics.merge_duration.start_timer();
        let v = self.inner.add_version(doc)?;
        self.metrics.ingest_versions.inc();
        Ok(v)
    }

    fn add_empty_version(&mut self) -> Result<u32, StoreError> {
        let _t = self.metrics.merge_duration.start_timer();
        let v = self.inner.add_empty_version()?;
        self.metrics.ingest_versions.inc();
        Ok(v)
    }

    fn add_versions(&mut self, docs: &[Document]) -> Result<Vec<u32>, StoreError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let _t = self.metrics.batch_merge_duration.start_timer();
        let assigned = self.inner.add_versions(docs)?;
        self.metrics.ingest_batches.inc();
        self.metrics.ingest_versions.add(assigned.len() as u64);
        Ok(assigned)
    }

    fn checkpoint_state(&self) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.checkpoint_state()
    }

    fn restore_checkpoint(&mut self, state: &[u8]) -> Result<bool, StoreError> {
        self.inner.restore_checkpoint(state)
    }

    fn view(&self) -> Result<StoreView, StoreError> {
        Ok(Arc::new(ObservedStore {
            inner: self.inner.view()?,
            metrics: self.metrics.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::Archive;
    use xarch_keys::KeySpec;

    fn spec() -> KeySpec {
        KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))").expect("valid spec")
    }

    fn doc(s: &str) -> Document {
        xarch_xml::parse(s).expect("valid xml")
    }

    fn observed(obs: &Obs) -> ObservedStore {
        ObservedStore::new(Box::new(Archive::new(spec())), obs)
    }

    #[test]
    fn observed_store_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<ObservedStore>();
        assert_send_sync::<QueryMetrics>();
    }

    #[test]
    fn queries_record_into_their_own_histograms() {
        let obs = Obs::disconnected();
        let mut s = observed(&obs);
        s.add_version(&doc("<db><rec><id>1</id></rec></db>"))
            .expect("merge");
        let q = [KeyQuery::new("db")];
        let _ = s.retrieve(1).expect("retrieve");
        let _ = s.history(&q).expect("history");
        let _ = s.as_of(&q, 1).expect("as_of");
        let _ = s.history_values(&q).expect("history_values");
        let _ = s.range(&[], 1..=1).expect("range");
        let _ = s.diff(&q, 1, 1).expect("diff");
        for name in [
            "query.retrieve.duration",
            "query.history.duration",
            "query.as_of.duration",
            "query.history_values.duration",
            "query.range.duration",
            "query.diff.duration",
        ] {
            let h = obs.registry().get_histogram(name).expect("registered");
            assert_eq!(h.count(), 1, "{name}");
        }
    }

    #[test]
    fn ingest_counts_versions_and_batches() {
        let obs = Obs::disconnected();
        let mut s = observed(&obs);
        s.add_version(&doc("<db><rec><id>1</id></rec></db>"))
            .expect("merge");
        s.add_versions(&[
            doc("<db><rec><id>1</id></rec></db>"),
            doc("<db><rec><id>2</id></rec></db>"),
        ])
        .expect("batch");
        assert_eq!(s.add_versions(&[]).expect("empty"), Vec::<u32>::new());
        let r = obs.registry();
        assert_eq!(r.get_counter("ingest.versions").expect("reg").get(), 3);
        assert_eq!(r.get_counter("ingest.batches").expect("reg").get(), 1);
        assert_eq!(
            r.get_histogram("ingest.batch_merge_duration")
                .expect("reg")
                .count(),
            1,
            "empty batches record nothing"
        );
    }

    #[test]
    fn a_view_records_queries_into_the_same_histograms() {
        let obs = Obs::disconnected();
        let mut s = observed(&obs);
        s.add_version(&doc("<db><rec><id>1</id></rec></db>"))
            .expect("merge");
        let view = s.view().expect("view");
        s.add_version(&doc("<db><rec><id>2</id></rec></db>"))
            .expect("merge");
        assert_eq!(view.latest(), 1, "a view never moves");
        let _ = view.retrieve(1).expect("view read");
        let _ = s.retrieve(1).expect("store read");
        let r = obs.registry();
        assert_eq!(
            r.get_histogram("query.retrieve.duration")
                .expect("reg")
                .count(),
            2
        );
        assert_eq!(r.get_counter("ingest.versions").expect("reg").get(), 2);
    }

    #[test]
    fn failed_ingest_is_timed_but_not_counted() {
        let obs = Obs::disconnected();
        let mut s = observed(&obs);
        assert!(s.add_version(&doc("<wrong><x>1</x></wrong>")).is_err());
        let r = obs.registry();
        assert_eq!(r.get_counter("ingest.versions").expect("reg").get(), 0);
        assert_eq!(
            r.get_histogram("ingest.merge_duration")
                .expect("reg")
                .count(),
            1
        );
    }
}
