//! Storage-layer observability: the canonical `segment.*` / `recovery.*`
//! metric handles and the tracer the journal reports through.
//!
//! A [`StorageMetrics`] is embedded in every [`Journal`](crate::Journal);
//! by default it is *detached* (per-handle counters, silent tracer), and
//! [`StorageMetrics::registered`] binds the same handles to an
//! [`Obs`] registry so the exposition writers see them.

use xarch_obs::{Counter, Gauge, Histogram, Level, Obs, Tracer};

/// Cheap-clone bundle of every storage-layer metric handle.
#[derive(Clone, Debug)]
pub struct StorageMetrics {
    /// `segment.fsyncs` — fsyncs issued to commit blocks (group commit's
    /// measurable effect: one per batch, not one per version; the
    /// superblock sync at create time is not a commit and is excluded).
    pub fsyncs: Counter,
    /// `segment.blocks_written` — blocks appended to the journal.
    pub blocks_written: Counter,
    /// `segment.bytes_written` — encoded block bytes appended.
    pub bytes_written: Counter,
    /// `segment.journal_len` — live length of the segment file in bytes.
    pub journal_len: Gauge,
    /// `recovery.torn_tail_truncations` — uncommitted torn tails dropped
    /// during open.
    pub torn_tail_truncations: Counter,
    /// `recovery.corrupt_blocks` — blocks rejected as bit rot (opens that
    /// failed loudly rather than truncate).
    pub corrupt_blocks: Counter,
    /// `recovery.versions_replayed` — committed versions replayed on open.
    pub versions_replayed: Counter,
    /// `recovery.replay_duration` — wall time of a reopen's recovery:
    /// checkpoint restore plus verification and replay of the tail (µs).
    pub replay_duration: Histogram,
    /// `checkpoint.blocks_written` — checkpoint blocks appended.
    pub checkpoints_written: Counter,
    /// `checkpoint.bytes_written` — encoded checkpoint block bytes
    /// appended. Tracked apart from `segment.bytes_written` (which counts
    /// version blocks only) so the journal/checkpoint split stays visible.
    pub checkpoint_bytes: Counter,
    /// `recovery.checkpoints_loaded` — opens that restored a checkpoint
    /// snapshot instead of replaying the whole journal.
    pub checkpoints_loaded: Counter,
    /// `recovery.checkpoints_skipped` — damaged checkpoint blocks loudly
    /// stepped over during recovery (each also counts as a corrupt block).
    pub checkpoints_skipped: Counter,
    tracer: Tracer,
}

impl Default for StorageMetrics {
    /// Detached handles and a silent tracer — what an unobserved
    /// `Journal` embeds.
    fn default() -> Self {
        Self {
            fsyncs: Counter::new(),
            blocks_written: Counter::new(),
            bytes_written: Counter::new(),
            journal_len: Gauge::new(),
            torn_tail_truncations: Counter::new(),
            corrupt_blocks: Counter::new(),
            versions_replayed: Counter::new(),
            replay_duration: Histogram::new(),
            checkpoints_written: Counter::new(),
            checkpoint_bytes: Counter::new(),
            checkpoints_loaded: Counter::new(),
            checkpoints_skipped: Counter::new(),
            tracer: Tracer::silent(),
        }
    }
}

impl StorageMetrics {
    /// Unregistered handles with a silent tracer — counts are recorded
    /// but reported nowhere. Used when no observability bundle is bound.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Handles registered under the canonical storage metric names, and
    /// events routed through the bundle's tracer.
    pub fn registered(obs: &Obs) -> Self {
        let r = obs.registry();
        Self {
            fsyncs: r.counter(
                "segment.fsyncs",
                "syncs",
                "fsyncs issued to commit journal blocks",
            ),
            blocks_written: r.counter(
                "segment.blocks_written",
                "blocks",
                "blocks appended to the journal",
            ),
            bytes_written: r.counter(
                "segment.bytes_written",
                "bytes",
                "encoded block bytes appended to the journal",
            ),
            journal_len: r.gauge(
                "segment.journal_len",
                "bytes",
                "live length of the segment file",
            ),
            torn_tail_truncations: r.counter(
                "recovery.torn_tail_truncations",
                "events",
                "uncommitted torn tails truncated during open",
            ),
            corrupt_blocks: r.counter(
                "recovery.corrupt_blocks",
                "blocks",
                "journal blocks rejected as corrupt during open",
            ),
            versions_replayed: r.counter(
                "recovery.versions_replayed",
                "versions",
                "committed versions replayed from the journal on open",
            ),
            replay_duration: r.histogram(
                "recovery.replay_duration",
                "micros",
                "wall time of reopen recovery: checkpoint restore and tail replay",
            ),
            checkpoints_written: r.counter(
                "checkpoint.blocks_written",
                "blocks",
                "checkpoint blocks appended to the segment",
            ),
            checkpoint_bytes: r.counter(
                "checkpoint.bytes_written",
                "bytes",
                "encoded checkpoint block bytes appended",
            ),
            checkpoints_loaded: r.counter(
                "recovery.checkpoints_loaded",
                "snapshots",
                "opens that restored a checkpoint instead of a full replay",
            ),
            checkpoints_skipped: r.counter(
                "recovery.checkpoints_skipped",
                "blocks",
                "damaged checkpoint blocks stepped over during recovery",
            ),
            tracer: obs.tracer().clone(),
        }
    }

    /// Emit a structured event through the bundle's tracer.
    pub(crate) fn event(
        &self,
        level: Level,
        target: &'static str,
        fields: &[(&'static str, String)],
    ) {
        self.tracer.event(level, target, fields);
    }
}

/// Cheap-clone bundle of the cold-read path's `cold.*` metric handles.
///
/// Embedded in every [`ColdArchive`](crate::ColdArchive). Comparing
/// `cold.bytes_decoded` against `segment.journal_len` (or the file size)
/// is how the "point query without materializing the archive" claim is
/// checked: a cold retrieve decodes one block, not the file.
#[derive(Clone, Debug)]
pub struct ColdMetrics {
    /// `cold.retrieves` — point retrievals served off the mapped segment.
    pub retrieves: Counter,
    /// `cold.blocks_decoded` — journal blocks checksummed and decoded on
    /// behalf of cold queries.
    pub blocks_decoded: Counter,
    /// `cold.bytes_decoded` — stored block bytes checksummed and decoded
    /// on behalf of cold queries.
    pub bytes_decoded: Counter,
    /// `cold.block_cache_hits` — blocks a cold query read from the
    /// reader's cache of decoded LZSS blocks, neither checksummed nor
    /// decoded again (they move neither counter above).
    pub block_cache_hits: Counter,
    /// `cold.mapped_bytes` — bytes of segment file currently mapped.
    pub mapped_bytes: Gauge,
    tracer: Tracer,
}

impl Default for ColdMetrics {
    fn default() -> Self {
        Self {
            retrieves: Counter::new(),
            blocks_decoded: Counter::new(),
            bytes_decoded: Counter::new(),
            block_cache_hits: Counter::new(),
            mapped_bytes: Gauge::new(),
            tracer: Tracer::silent(),
        }
    }
}

impl ColdMetrics {
    /// Detached handles and a silent tracer.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Handles registered under the canonical `cold.*` names, and events
    /// routed through the registry's tracer.
    pub fn registered(obs: &Obs) -> Self {
        let r = obs.registry();
        Self {
            retrieves: r.counter(
                "cold.retrieves",
                "queries",
                "point retrievals served off the mapped segment",
            ),
            blocks_decoded: r.counter(
                "cold.blocks_decoded",
                "blocks",
                "journal blocks decoded for cold queries",
            ),
            bytes_decoded: r.counter(
                "cold.bytes_decoded",
                "bytes",
                "stored block bytes decoded for cold queries",
            ),
            block_cache_hits: r.counter(
                "cold.block_cache_hits",
                "blocks",
                "decoded blocks cold queries read from the reader's cache",
            ),
            mapped_bytes: r.gauge(
                "cold.mapped_bytes",
                "bytes",
                "segment file bytes currently memory-mapped",
            ),
            tracer: obs.tracer().clone(),
        }
    }

    /// Emit a structured event through the bundle's tracer.
    pub(crate) fn event(
        &self,
        level: Level,
        target: &'static str,
        fields: &[(&'static str, String)],
    ) {
        self.tracer.event(level, target, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_handles_share_the_registry() {
        let obs = Obs::disconnected();
        let m = StorageMetrics::registered(&obs);
        m.fsyncs.inc();
        let seen = obs
            .registry()
            .get_counter("segment.fsyncs")
            .expect("canonical name registered");
        assert_eq!(seen.get(), 1);
        assert!(obs
            .registry()
            .get_histogram("recovery.replay_duration")
            .is_some());
    }

    #[test]
    fn detached_metrics_are_isolated() {
        let a = StorageMetrics::detached();
        let b = StorageMetrics::detached();
        a.blocks_written.inc();
        assert_eq!(b.blocks_written.get(), 0);
    }
}
