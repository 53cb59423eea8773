//! # xarch_obs — unified observability for the xarch workspace
//!
//! Dependency-free metrics and tracing layer every other crate reports
//! through: atomic [`Counter`]/[`Gauge`] and a log-bucketed latency
//! [`Histogram`] (lock-free record, p50/p90/p99/max readout) behind a
//! namespaced, register-once [`Registry`]; structured key=value [`Event`]s
//! with a level filter, a pluggable [`EventSink`] (stderr by default) and
//! a ring buffer of the last N events for post-mortem inspection; and
//! timed [`Span`] scopes that feed per-operation duration histograms.
//!
//! The design splits *recording* from *reporting*:
//!
//! * recording goes through cheap-clone handles over `Arc`'d atomics —
//!   no lock is ever taken on the hot path, so handles can live inside
//!   commit loops and query paths (`tests/concurrency.rs` races them);
//! * reporting walks the registry under a mutex and renders either
//!   Prometheus text ([`render_prometheus`]) or JSON ([`render_json`]).
//!
//! [`Obs`] bundles a registry and a tracer into the single value that
//! flows through `ArchiveBuilder::with_observability`:
//!
//! ```
//! use xarch_obs::{Level, Obs};
//!
//! let obs = Obs::new();
//! let hits = obs.registry().counter("demo.hits", "events", "demo counter");
//! let lat = obs.registry().histogram("demo.duration", "micros", "demo latency");
//! {
//!     let span = obs.span("demo.op", &lat); // records on drop
//!     hits.inc();
//!     span.end();
//! }
//! obs.event(Level::Info, "demo.done", &[("hits", hits.get().to_string())]);
//! assert!(obs.render_prometheus().contains("demo_hits 1"));
//! assert_eq!(obs.recent_events().len(), 1);
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stderr)]

mod expo;
mod metrics;
mod registry;
mod trace;

pub use expo::{prometheus_name, render_json, render_prometheus};
pub use metrics::{bucket_bound, Counter, Gauge, Histogram, HistogramSnapshot, Timer, BUCKETS};
pub use registry::{MetricKind, MetricSample, Registry, SampleValue};
pub use trace::{
    Event, EventSink, Level, NullSink, Span, StderrSink, Tracer, VecSink, DEFAULT_RING_CAPACITY,
};

/// The observability bundle: one [`Registry`] plus one [`Tracer`],
/// cheaply clonable, passed to `ArchiveBuilder::with_observability` and
/// kept by the caller to render reports.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    registry: Registry,
    tracer: Tracer,
}

impl Obs {
    /// Registry plus a stderr-sink tracer forwarding `Warn` and above.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry plus a silent tracer (ring buffer still records).
    ///
    /// This is what components embed when built *without*
    /// `.with_observability(..)`: metrics still count and recent events
    /// can still be read back, but nothing reaches the console and
    /// nothing is shared beyond the component.
    pub fn disconnected() -> Self {
        Self {
            registry: Registry::new(),
            tracer: Tracer::silent(),
        }
    }

    /// The bundled metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The bundled event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Start a timed scope recording into `hist` (and emitting a `Debug`
    /// event when enabled) — see [`Span`].
    pub fn span(&self, target: &'static str, hist: &Histogram) -> Span {
        Span::new(target, hist.clone(), Some(self.tracer.clone()))
    }

    /// Emit a structured event through the bundled tracer.
    pub fn event(&self, level: Level, target: &'static str, fields: &[(&'static str, String)]) {
        self.tracer.event(level, target, fields);
    }

    /// The ring buffer of recent events, oldest first.
    pub fn recent_events(&self) -> Vec<Event> {
        self.tracer.recent()
    }

    /// Prometheus text exposition of every registered metric.
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.registry)
    }

    /// JSON exposition of every registered metric.
    pub fn render_json(&self) -> String {
        render_json(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bundles_registry_and_tracer() {
        let obs = Obs::disconnected();
        let c = obs.registry().counter("t.hits", "events", "hits");
        c.add(2);
        let clone = obs.clone();
        assert_eq!(
            clone
                .registry()
                .get_counter("t.hits")
                .expect("shared")
                .get(),
            2,
            "clones share the registry"
        );
        obs.event(Level::Error, "t.boom", &[]);
        assert_eq!(clone.recent_events().len(), 1, "clones share the tracer");
    }

    #[test]
    fn span_feeds_histogram() {
        let obs = Obs::disconnected();
        let h = obs.registry().histogram("t.duration", "micros", "latency");
        obs.span("t.op", &h).end();
        assert_eq!(h.count(), 1);
        assert!(obs.render_prometheus().contains("t_duration_count 1"));
    }
}
