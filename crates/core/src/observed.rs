//! [`QueryMetrics`]: the query and ingest surface as the caller
//! experiences it.
//!
//! The layers own their *structural* counters (journal fsyncs, paged I/O,
//! index probes). These handles time every query kind and ingest call
//! into per-operation latency histograms under the canonical `query.*` /
//! `ingest.*` names. `xarch::Store` records into them when it was built
//! with observability; recording is a timer-guard drop onto lock-free
//! atomics, so it adds no lock acquisition to any read or write path.

use xarch_obs::{Counter, Histogram, Obs};

/// The canonical `query.*` / `ingest.*` metric handles.
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
    /// (µs), one sample per non-empty batch.
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
