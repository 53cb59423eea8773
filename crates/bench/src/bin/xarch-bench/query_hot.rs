//! `query_hot`, the first part of workload `read`: readers against an
//! in-memory, indexed archive of [`HOT_VERSIONS`] versions that fits in
//! memory, served to one leased connection.
//!
//! Two fixed scripts come from the seed: `Q`, [`Q_LEN`] point/scan
//! operations, and `T`, [`T_LEN`] whole-version retrievals. Per round:
//! (a) `Q` in-process through a `Snapshot`; (b) `T` in-process through
//! `retrieve_into`; (c) `T` over the wire. The same script in-process and
//! over the wire separates kernel from wire. `Q` over the wire is checked
//! in the warm-up round and timed per layer only: a closed loop of
//! sub-millisecond exchanges measures where the scheduler put the two
//! threads (see the README's noise rules).

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use xarch::core::equiv_modulo_key_order;
use xarch::datagen::omim::omim_spec;
use xarch::xml::parse;
use xarch::xml::writer::to_compact_string;
use xarch::{ArchiveBuilder, Snapshot, StoreReader};
use xarch_proto::{Client, Lease, Request, Response};

use crate::data::{
    query_script, retrieve_script, server_config, Op, Releases, Rng, HOT_VERSIONS, KINDS,
};
use crate::fixture::{connect, counter, start, RunningServer};
use crate::harness::{Ctx, Laps, Layers, PhaseSamples, Workload};
use crate::ops::{answer_local, proto_round_trip, request_of, run_local, run_served};
use crate::stats;

/// Operations in script `Q`.
pub const Q_LEN: usize = 1600;
/// Retrievals in script `T`.
pub const T_LEN: usize = 48;
/// Operations of `Q` timed as one lap.
const Q_LAP: usize = 100;
/// Operations of `Q` / `T` a traced run replays at each depth.
const PEEL_Q: usize = 800;
const PEEL_T: usize = 48;
/// Passes of each replay; an operation's time at a depth is its steady
/// time over the passes.
const PEEL_PASSES: usize = 5;
/// Calls timed as one batch for the pin and ping costs.
const PINS: usize = 200_000;
const PINGS: usize = 2000;

/// Span names of one depth, indexed like [`KINDS`].
macro_rules! kinds {
    ($prefix:literal) => {
        [
            concat!($prefix, ".retrieve"),
            concat!($prefix, ".as_of"),
            concat!($prefix, ".history_values"),
            concat!($prefix, ".range"),
            concat!($prefix, ".diff"),
        ]
    };
}

const ROUND_LOCAL: [&str; 5] = kinds!("snapshot");
const PEEL_CLIENT: [&str; 5] = kinds!("peel.client");
const PEEL_PROTO: [&str; 5] = kinds!("peel.proto");
const PEEL_SNAPSHOT: [&str; 5] = kinds!("peel.snapshot");
const PEEL_INDEXED: [&str; 5] = kinds!("peel.indexed");
const PEEL_PLAIN: [&str; 5] = kinds!("peel.plain");
const RETRIEVE: usize = 0;

pub struct QueryHot {
    releases: Rc<Releases>,
    q: Vec<Op>,
    t: Vec<u32>,
    snapshot: Snapshot,
    /// A connection holding a lease pinned at the preloaded archive.
    client: Client,
    lease: Lease,
    server: RunningServer,
    /// Resident memory the served archive (both replicas) took to preload.
    shared_rss_mb: f64,
}

impl Workload for QueryHot {
    fn setup(ctx: &mut Ctx) -> Self {
        let releases = ctx.releases(HOT_VERSIONS);
        let latest = HOT_VERSIONS as u32;
        let mut rng = Rng::new(ctx.seed);
        let q = query_script(&mut rng, &releases.record_keys(), latest, Q_LEN);
        let t = retrieve_script(&mut rng, latest, T_LEN);

        let before = stats::rss_mb();
        let server = start(server_config(1, true, None, None));
        let loaded = server.handle().add_versions(&releases.docs);
        ctx.tally.ok(loaded, "preload");
        let shared_rss_mb = stats::rss_mb() - before;
        let snapshot = server.handle().snapshot();
        let mut client = connect(&server);
        let lease = ctx
            .tally
            .ok(client.open_snapshot(), "open_snapshot")
            .map_or(Lease::FRESH, |(lease, _)| lease);
        QueryHot {
            releases,
            q,
            t,
            snapshot,
            client,
            lease,
            server,
            shared_rss_mb,
        }
    }

    fn round(&mut self, ctx: &mut Ctx, check: bool) -> Vec<Vec<f64>> {
        let snapshot = &self.snapshot;

        // (a) Q in-process
        let phase = ctx.tracer.open("query_hot.local_query");
        let mut a = Laps::start();
        for (i, op) in self.q.iter().enumerate() {
            let got = ctx
                .tracer
                .span(ROUND_LOCAL[op.kind()], i as u64, phase, || {
                    run_local(snapshot, op)
                });
            ctx.tally.ok(got, "local query");
            a.lap_every(i, Q_LAP);
        }
        ctx.tracer.close(phase);

        // (b) T in-process
        let mut buf = Vec::new();
        let phase = ctx.tracer.open("query_hot.local_retrieve");
        let mut b = Laps::start();
        for (i, &v) in self.t.iter().enumerate() {
            buf.clear();
            let got = ctx.tracer.span(ROUND_LOCAL[RETRIEVE], i as u64, phase, || {
                snapshot.retrieve_into(v, &mut buf)
            });
            let found = ctx.tally.ok(got, "local retrieve");
            ctx.tally
                .verify(found != Some(false), || format!("version {v} is missing"));
            black_box(&buf);
            b.lap();
        }
        ctx.tracer.close(phase);
        if check {
            // every version reads back as the release that was ingested
            let spec = omim_spec();
            for (i, doc) in self.releases.docs.iter().enumerate() {
                buf.clear();
                let found = ctx
                    .tally
                    .ok(snapshot.retrieve_into(i as u32 + 1, &mut buf), "retrieve");
                let same = found == Some(true)
                    && std::str::from_utf8(&buf)
                        .ok()
                        .and_then(|text| parse(text).ok())
                        .is_some_and(|got| equiv_modulo_key_order(&got, doc, &spec));
                ctx.tally.verify(same, || {
                    format!("retrieve({}) is not the release ingested", i + 1)
                });
            }
        }

        // every answer of Q over the wire equals the snapshot's
        let (client, lease) = (&mut self.client, self.lease);
        if check {
            for (i, op) in self.q.iter().enumerate() {
                let got = ctx.tally.ok(run_served(client, lease, op), "served query");
                let want = answer_local(snapshot, op).ok().map(|r| r.encode());
                ctx.tally.verify(got.map(|r| r.encode()) == want, || {
                    format!("served answer {i} differs from the snapshot's")
                });
            }
        }

        // (c) T over the wire
        let phase = ctx.tracer.open("query_hot.served_retrieve");
        let mut c = Laps::start();
        for (i, &v) in self.t.iter().enumerate() {
            let got = ctx.tracer.span("client.retrieve", i as u64, phase, || {
                client.retrieve(lease, v)
            });
            let got = ctx.tally.ok(got, "served retrieve").flatten();
            if check {
                buf.clear();
                let local = snapshot.retrieve_into(v, &mut buf).is_ok_and(|found| found);
                ctx.tally.verify(
                    local && got.as_ref().map(String::as_bytes) == Some(&buf[..]),
                    || format!("served retrieve({v}) differs from the snapshot's"),
                );
            }
            black_box(got);
            c.lap();
        }
        ctx.tracer.close(phase);

        vec![a.finish(), b.finish(), c.finish()]
    }

    fn divisors(&self) -> Vec<f64> {
        vec![Q_LEN as f64, T_LEN as f64, T_LEN as f64]
    }

    /// In memory the archive *is* the stored form: its canonical
    /// serialized size over the user bytes merged into it.
    fn stored_and_user_bytes(&self) -> (f64, f64) {
        let size = self.snapshot.stats().map_or(0, |s| s.size_bytes);
        (size as f64, self.releases.user_bytes(HOT_VERSIONS) as f64)
    }

    fn layers(&mut self, ctx: &mut Ctx, _phases: &[PhaseSamples], out: &mut Layers) {
        let spec = omim_spec();
        let snapshot = &self.snapshot;
        let q = &self.q[..PEEL_Q.min(self.q.len())];
        let t = &self.t[..PEEL_T.min(self.t.len())];

        // the same 64 versions in an indexed and a plain store of their own
        let before = stats::rss_mb();
        let mut indexed = ArchiveBuilder::new(spec.clone()).with_index().build();
        ctx.tally
            .ok(indexed.add_versions(&self.releases.docs), "indexed preload");
        let indexed_rss_mb = stats::rss_mb() - before;
        out.set(
            "handle.replica.rss_mb",
            (self.shared_rss_mb - indexed_rss_mb).max(0.0),
        );
        let mut plain = ArchiveBuilder::new(spec).build();
        ctx.tally
            .ok(plain.add_versions(&self.releases.docs), "plain preload");

        // depth 0: one leased connection
        let obs = self.server.obs().clone();
        let probes = counter(&obs, "index.timestamp.probes");
        let comparisons = counter(&obs, "index.history.comparisons");
        let (client, lease) = (&mut self.client, &self.lease);
        for _ in 0..PEEL_PASSES {
            let peel = ctx.tracer.open("peel.client");
            for (i, op) in q.iter().enumerate() {
                let got = ctx.tracer.span(PEEL_CLIENT[op.kind()], i as u64, peel, || {
                    run_served(client, *lease, op)
                });
                ctx.tally.ok(got, "traced served query");
            }
            for (i, &v) in t.iter().enumerate() {
                let got = ctx.tracer.span(PEEL_CLIENT[RETRIEVE], i as u64, peel, || {
                    client.retrieve(*lease, v)
                });
                ctx.tally.ok(got, "traced served retrieve");
            }
            ctx.tracer.close(peel);
        }
        let probed = (PEEL_PASSES * q.len()) as f64;
        out.set(
            "index.timestamp.probes_per_op",
            (counter(&obs, "index.timestamp.probes") - probes) / probed,
        );
        out.set(
            "index.history.comparisons_per_op",
            (counter(&obs, "index.history.comparisons") - comparisons) / probed,
        );
        let start = Instant::now();
        for _ in 0..PINGS {
            ctx.tally.ok(client.ping(), "ping");
        }
        out.set(
            "server.ping_rtt.us",
            start.elapsed().as_secs_f64() * 1e6 / PINGS as f64,
        );

        // depth 1: the protocol's work for the same exchanges, on buffers
        let answers: Vec<Option<Response>> = q
            .iter()
            .map(|op| ctx.tally.ok(answer_local(snapshot, op), "local answer"))
            .collect();
        let mut buf = Vec::new();
        let documents: Vec<Response> = t
            .iter()
            .map(|&v| {
                buf.clear();
                ctx.tally
                    .ok(snapshot.retrieve_into(v, &mut buf), "local retrieve");
                Response::Document(String::from_utf8(buf.clone()).ok())
            })
            .collect();
        let mut frame_bytes = Vec::new();
        for _ in 0..PEEL_PASSES {
            let peel = ctx.tracer.open("peel.proto");
            for (i, (op, response)) in q.iter().zip(&answers).enumerate() {
                let request = request_of(op, *lease);
                if let Some(response) = response {
                    ctx.tracer.span(PEEL_PROTO[op.kind()], i as u64, peel, || {
                        proto_round_trip(&request, response)
                    });
                }
            }
            for (i, (&v, response)) in t.iter().zip(&documents).enumerate() {
                let request = Request::Retrieve { lease: lease.0, v };
                let bytes = ctx.tracer.span(PEEL_PROTO[RETRIEVE], i as u64, peel, || {
                    proto_round_trip(&request, response)
                });
                frame_bytes.push(bytes as f64);
            }
            ctx.tracer.close(peel);
        }
        out.set("proto.retrieve.bytes", stats::mean(&frame_bytes));

        // depths 2–4: the snapshot, the indexed store, the plain store
        let depths: [(&dyn StoreReader, &[&'static str; 5], &'static str); 3] = [
            (snapshot, &PEEL_SNAPSHOT, "peel.snapshot"),
            (indexed.as_ref(), &PEEL_INDEXED, "peel.indexed"),
            (plain.as_ref(), &PEEL_PLAIN, "peel.plain"),
        ];
        for _ in 0..PEEL_PASSES {
            for (reader, names, depth) in depths {
                let peel = ctx.tracer.open(depth);
                for (i, op) in q.iter().enumerate() {
                    let got = ctx
                        .tracer
                        .span(names[op.kind()], i as u64, peel, || run_local(reader, op));
                    ctx.tally.ok(got, "replayed query");
                }
                for (i, &v) in t.iter().enumerate() {
                    buf.clear();
                    let got = ctx.tracer.span(names[RETRIEVE], i as u64, peel, || {
                        reader.retrieve_into(v, &mut buf)
                    });
                    ctx.tally.ok(got, "replayed retrieve");
                }
                ctx.tracer.close(peel);
            }

            // depth 5: the XML writer alone
            let peel = ctx.tracer.open("peel.xml");
            for (i, &v) in t.iter().enumerate() {
                if let Some(doc) = ctx.tally.ok(snapshot.retrieve(v), "retrieve").flatten() {
                    ctx.tracer.span("peel.xml.write", i as u64, peel, || {
                        black_box(to_compact_string(&doc));
                    });
                }
            }
            ctx.tracer.close(peel);
        }
        out.set("xml.write.ms", ctx.tracer.steady_ms("peel.xml.write"));

        for (k, kind) in KINDS.iter().enumerate() {
            let client_us = ctx.tracer.steady_us(PEEL_CLIENT[k]);
            let proto_us = ctx.tracer.steady_us(PEEL_PROTO[k]);
            let snapshot_us = ctx.tracer.steady_us(PEEL_SNAPSHOT[k]);
            let indexed_us = ctx.tracer.steady_us(PEEL_INDEXED[k]);
            out.set(
                &format!("core.{kind}.us"),
                ctx.tracer.steady_us(PEEL_PLAIN[k]),
            );
            out.set(&format!("index.{kind}.us"), indexed_us);
            out.set(&format!("handle.{kind}.us"), snapshot_us - indexed_us);
            out.set(&format!("proto.{kind}.us"), proto_us);
            out.set(
                &format!("server.{kind}.us"),
                client_us - proto_us - snapshot_us,
            );
        }

        let handle = self.server.handle();
        let start = Instant::now();
        for _ in 0..PINS {
            black_box(handle.snapshot());
        }
        out.set(
            "handle.pin.ns",
            start.elapsed().as_secs_f64() * 1e9 / PINS as f64,
        );
        out.set("handle.pins", counter(&obs, "handle.snapshot_pins"));
        out.set("server.requests", counter(&obs, "server.requests"));
    }
}
