//! Lightweight structured tracing: level-filtered key=value events with a
//! pluggable sink, a bounded ring buffer of recent events for post-mortem
//! inspection (recovery, poisoning), and timed [`Span`] scopes that feed
//! duration histograms.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::Histogram;

/// Event severity, ordered from most to least urgent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Something failed; the operation did not complete as asked.
    Error = 1,
    /// Something unusual was handled (torn tail, skipped checkpoint).
    Warn = 2,
    /// Routine milestones: opens, commits, recovery summaries.
    Info = 3,
    /// Per-operation details, including span durations.
    Debug = 4,
    /// Highest-volume diagnostics.
    Trace = 5,
}

impl Level {
    /// The level's conventional upper-case log label.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            4 => Level::Debug,
            5 => Level::Trace,
            _ => Level::Info,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured event: a severity, a dot-namespaced target naming the
/// operation (`recovery.torn_tail`), and key=value fields.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotone per-tracer sequence number (ring-buffer eviction keeps
    /// gaps visible).
    pub seq: u64,
    /// Severity the event was emitted at.
    pub level: Level,
    /// Dot-namespaced operation name, e.g. `recovery.torn_tail`.
    pub target: &'static str,
    /// Structured key=value payload, in emission order.
    pub fields: Vec<(&'static str, String)>,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>5}] {:5} {}", self.seq, self.level, self.target)?;
        for (k, v) in &self.fields {
            if v.contains([' ', '"']) {
                write!(f, " {k}={v:?}")?;
            } else {
                write!(f, " {k}={v}")?;
            }
        }
        Ok(())
    }
}

/// Where rendered events go. Implementations must tolerate concurrent
/// calls; the tracer renders before dispatch so sinks never re-enter it.
pub trait EventSink: Send + Sync {
    /// Deliver one already-rendered event.
    fn emit(&self, event: &Event);
}

/// Default sink: one line per event on standard error.
#[derive(Debug, Default)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn emit(&self, event: &Event) {
        // Ignore a broken stderr — observability must never take the
        // archiver down.
        let _ = writeln!(std::io::stderr().lock(), "{event}");
    }
}

/// Sink that drops everything; used by `Obs::disconnected()` so embedded
/// components can trace unconditionally without console side effects.
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Sink that appends to a shared vector — test and report harness helper.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl VecSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take every captured event, leaving the sink empty.
    pub fn drain(&self) -> Vec<Event> {
        let mut g = self.events.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *g)
    }
}

impl EventSink for VecSink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

/// Default capacity of the recent-events ring buffer.
pub const DEFAULT_RING_CAPACITY: usize = 256;

#[derive(Debug)]
struct TracerInner {
    /// Max level forwarded to the sink (ring capture is unconditional).
    filter: AtomicU8,
    seq: AtomicU64,
    sink: Arc<dyn EventSink>,
    ring: Mutex<VecDeque<Event>>,
    ring_cap: usize,
}

impl fmt::Debug for dyn EventSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("EventSink")
    }
}

/// Cheap-clone event dispatcher.
///
/// Every emitted event lands in the bounded ring buffer (so post-mortems
/// after recovery or poisoning can read back what happened regardless of
/// console verbosity); events at or above the level filter additionally
/// go to the sink it was built with.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_sink(Arc::new(StderrSink), Level::Warn)
    }
}

impl Tracer {
    /// Tracer with the default stderr sink, forwarding `Warn` and above.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tracer forwarding events at or above `filter` to `sink`.
    pub fn with_sink(sink: Arc<dyn EventSink>, filter: Level) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                filter: AtomicU8::new(filter as u8),
                seq: AtomicU64::new(0),
                sink,
                ring: Mutex::new(VecDeque::with_capacity(DEFAULT_RING_CAPACITY)),
                ring_cap: DEFAULT_RING_CAPACITY,
            }),
        }
    }

    /// Tracer whose sink discards everything (ring buffer still records).
    pub fn silent() -> Self {
        Self::with_sink(Arc::new(NullSink), Level::Error)
    }

    /// Current sink forwarding threshold.
    pub fn level(&self) -> Level {
        Level::from_u8(self.inner.filter.load(Ordering::Relaxed))
    }

    /// Change the sink forwarding threshold at runtime.
    pub fn set_level(&self, level: Level) {
        self.inner.filter.store(level as u8, Ordering::Relaxed);
    }

    /// Whether an event at `level` would reach the sink.
    pub fn enabled(&self, level: Level) -> bool {
        level <= self.level()
    }

    /// Emit a structured event.
    pub fn event(&self, level: Level, target: &'static str, fields: &[(&'static str, String)]) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            level,
            target,
            fields: fields.to_vec(),
        };
        {
            let mut ring = self.inner.ring.lock().unwrap_or_else(|e| e.into_inner());
            if ring.len() == self.inner.ring_cap {
                ring.pop_front();
            }
            ring.push_back(event.clone());
        }
        if self.enabled(level) {
            self.inner.sink.emit(&event);
        }
    }

    /// The last `DEFAULT_RING_CAPACITY` (or fewer) events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Total events emitted since construction (including ones evicted
    /// from the ring).
    pub fn emitted(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }
}

/// A timed scope: records its duration (µs) into a histogram on drop and,
/// when tracing is enabled at `Debug`, emits a `target elapsed_us=…`
/// event. Created via [`crate::Obs::span`].
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    tracer: Option<Tracer>,
    target: &'static str,
    start: Instant,
}

impl Span {
    /// Start a span now; its duration lands in `hist` when it ends.
    pub fn new(target: &'static str, hist: Histogram, tracer: Option<Tracer>) -> Self {
        Self {
            hist,
            tracer,
            target,
            start: Instant::now(),
        }
    }

    /// End the span now instead of at scope exit.
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.hist.record_duration(elapsed);
        if let Some(t) = &self.tracer {
            if t.enabled(Level::Debug) {
                t.event(
                    Level::Debug,
                    self.target,
                    &[("elapsed_us", elapsed.as_micros().to_string())],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_n_oldest_first() {
        let t = Tracer::silent();
        for i in 0..(DEFAULT_RING_CAPACITY as u64 + 10) {
            t.event(Level::Info, "test.tick", &[("i", i.to_string())]);
        }
        let recent = t.recent();
        assert_eq!(recent.len(), DEFAULT_RING_CAPACITY);
        assert_eq!(recent[0].seq, 10, "oldest ten evicted");
        assert_eq!(
            recent.last().expect("nonempty").seq,
            DEFAULT_RING_CAPACITY as u64 + 9
        );
        assert_eq!(t.emitted(), DEFAULT_RING_CAPACITY as u64 + 10);
    }

    #[test]
    fn level_filter_gates_sink_not_ring() {
        let sink = VecSink::new();
        let t = Tracer::with_sink(Arc::new(sink.clone()), Level::Warn);
        t.event(Level::Info, "test.quiet", &[]);
        t.event(Level::Error, "test.loud", &[("why", "boom".to_string())]);
        let seen = sink.drain();
        assert_eq!(seen.len(), 1, "info filtered from sink");
        assert_eq!(seen[0].target, "test.loud");
        assert_eq!(t.recent().len(), 2, "ring captures everything");
    }

    #[test]
    fn set_level_takes_effect() {
        let sink = VecSink::new();
        let t = Tracer::with_sink(Arc::new(sink.clone()), Level::Error);
        assert!(!t.enabled(Level::Info));
        t.set_level(Level::Trace);
        assert!(t.enabled(Level::Debug));
        t.event(Level::Debug, "test.now_visible", &[]);
        assert_eq!(sink.drain().len(), 1);
    }

    #[test]
    fn event_renders_as_key_values() {
        let e = Event {
            seq: 3,
            level: Level::Warn,
            target: "recovery.torn_tail",
            fields: vec![
                ("offset", "128".to_string()),
                ("reason", "short read".to_string()),
            ],
        };
        let s = e.to_string();
        assert!(s.contains("WARN"), "{s}");
        assert!(s.contains("recovery.torn_tail offset=128"), "{s}");
        assert!(s.contains("reason=\"short read\""), "quoted: {s}");
    }

    #[test]
    fn span_records_duration_and_debug_event() {
        let sink = VecSink::new();
        let t = Tracer::with_sink(Arc::new(sink.clone()), Level::Debug);
        let h = Histogram::new();
        Span::new("test.op", h.clone(), Some(t)).end();
        assert_eq!(h.count(), 1);
        let seen = sink.drain();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].fields[0].0, "elapsed_us");
    }
}
