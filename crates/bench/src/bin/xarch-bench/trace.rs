//! The benchmark's own span recorder.
//!
//! The benchmark traces the stack from outside: it wraps a span around
//! every call it makes into a layer's public entry point, keeps the spans
//! in memory, and writes them to `trace-<workload>.jsonl` when the run
//! ends. One line per span:
//!
//! ```text
//! {"id":17,"name":"client.as_of","op":4021,"parent":3,"start_ns":…,"end_ns":…}
//! ```
//!
//! `op` is the operation's index in the seeded script (or the version
//! number for an ingest), so the spans of one operation replayed at
//! successive depths share it; `parent` is the span of the phase (or
//! replay depth) the call ran under, `null` for those phase spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans recorded by one thread. `epoch` is shared by every tracer of a
/// run, so spans from different threads line up on one clock.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.epoch, self.enabled)
    }

    /// Runs `f` inside a span (or bare, when tracing is off).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Opens a phase span whose children are recorded while it is open;
    /// returns the id children name as their parent.
    pub fn open(&mut self, name: &'static str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: 0,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
        Some((self.spans.len() - 1) as u32)
    }

    pub fn close(&mut self, id: Option<u32>) {
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Takes over another thread's spans. Worker threads record only
    /// leaf spans under a parent opened here, and ids are positions in
    /// this tracer's list, so appending keeps every parent id valid.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The steady time ([`stats::steady`]) of each operation with spans
    /// called `name`, over its repetitions, as `(op, ms)` in `op` order.
    pub fn steady_by_op(&self, name: &str) -> Vec<(u64, f64)> {
        let mut by_op: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            by_op
                .entry(s.op)
                .or_default()
                .push((s.end_ns - s.start_ns) as f64 / 1e6);
        }
        by_op
            .into_iter()
            .map(|(op, times)| (op, stats::steady(&times)))
            .collect()
    }

    /// A depth's time per operation: the mean over operations of each
    /// one's steady time. Depths are subtracted from each other, so they
    /// are read the way the end-to-end phases are — a mean over spans
    /// would carry whatever interference each replay happened to meet.
    pub fn steady_ms(&self, name: &str) -> f64 {
        let per_op: Vec<f64> = self
            .steady_by_op(name)
            .into_iter()
            .map(|(_, ms)| ms)
            .collect();
        stats::mean(&per_op)
    }

    pub fn steady_us(&self, name: &str) -> f64 {
        self.steady_ms(name) * 1e3
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                stats::quote(s.name),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
