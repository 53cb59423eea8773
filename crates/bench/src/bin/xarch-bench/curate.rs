//! `curate`, the first part of workload `write`: a curator publishes
//! releases into a durable, checkpointed, un-indexed served archive over
//! one connection, then the server is restarted.
//!
//! Per round: (a) [`VERSIONS`] releases, one `Client::ingest` per release,
//! into a fresh segment; (b) the same releases in batches of [`BATCH`]
//! into a second fresh segment; (c) the server on segment (a) is dropped
//! and started again — the newest checkpoint is 4 versions behind the
//! end — timed from the call to the first answered `latest`. The warm-up
//! round then reads every version back from the restarted server.

use std::hint::black_box;
use std::io::Cursor;
use std::rc::Rc;

use xarch::core::equiv_modulo_key_order;
use xarch::datagen::omim::omim_spec;
use xarch::xml::parse;
use xarch::ArchiveBuilder;
use xarch_proto::{read_frame, write_frame, Lease, Request, MAX_FRAME_LEN};

use crate::data::{server_config, Releases};
use crate::fixture::{connect, counter, ingest, start};
use crate::harness::{Ctx, Laps, Layers, PhaseSamples, Workload};
use crate::stats;

/// Releases published per phase.
pub const VERSIONS: usize = 16;
/// Releases per call in phase (b).
pub const BATCH: usize = 4;
/// Checkpoint cadence: the newest checkpoint sits at version 12, so a
/// restart restores it and replays a tail of 4 versions.
pub const CHECKPOINT_EVERY: u32 = 6;
/// Served ingests a traced run times for the ingest percentiles.
const INGEST_SAMPLES: usize = 512;
/// Passes of each peeling replay; a depth's time per version is the mean
/// over versions of each one's steady time over the passes.
const PEEL_PASSES: usize = 5;

pub struct Curate {
    releases: Rc<Releases>,
    /// Length of segment (a) after the newest round.
    segment_len: u64,
    /// Resident memory a plain in-memory archive of the releases took.
    archive_rss_mb: f64,
}

impl Workload for Curate {
    fn setup(ctx: &mut Ctx) -> Self {
        let releases = ctx.releases(VERSIONS);
        // read here, on a heap no round has churned yet: later the
        // allocator serves an archive this size from memory it kept
        let before = stats::rss_mb();
        let mut plain = ArchiveBuilder::new(omim_spec()).build();
        ctx.tally
            .ok(plain.add_versions(&releases.docs), "plain archive");
        let archive_rss_mb = (stats::rss_mb() - before).max(0.0);
        drop(plain);
        Curate {
            releases,
            segment_len: 0,
            archive_rss_mb,
        }
    }

    fn round(&mut self, ctx: &mut Ctx, check: bool) -> Vec<Vec<f64>> {
        let texts = &self.releases.texts;
        let config =
            |path: &std::path::Path| server_config(1, false, Some(path), Some(CHECKPOINT_EVERY));

        // (a) one release per call
        let seg_a = ctx.segment("curate-a");
        let server = start(config(&seg_a));
        let mut client = connect(&server);
        let phase = ctx.tracer.open("curate.ingest");
        let mut a = Laps::start();
        for (i, text) in texts.iter().enumerate() {
            let v = i as u32 + 1;
            let got = ctx.tracer.span("client.ingest", u64::from(v), phase, || {
                client.ingest(std::slice::from_ref(text))
            });
            if let Some(got) = ctx.tally.ok(got, "ingest") {
                ctx.tally
                    .verify(got == [v], || format!("ingest of {v} acknowledged {got:?}"));
            }
            a.lap();
        }
        ctx.tracer.close(phase);

        // the bytes each version reads as before the restart
        let mut before = Vec::new();
        if check {
            for (i, doc) in self.releases.docs.iter().enumerate() {
                let v = i as u32 + 1;
                let text = ctx
                    .tally
                    .ok(client.retrieve(Lease::FRESH, v), "retrieve")
                    .flatten()
                    .unwrap_or_default();
                let same =
                    parse(&text).is_ok_and(|got| equiv_modulo_key_order(&got, doc, &omim_spec()));
                ctx.tally.verify(same, || {
                    format!("retrieve({v}) is not the release ingested")
                });
                before.push(text);
            }
        }
        drop(client);

        // (b) batches, on a second segment
        let seg_b = ctx.segment("curate-b");
        let batch_server = start(config(&seg_b));
        let mut batch_client = connect(&batch_server);
        let phase = ctx.tracer.open("curate.batch_ingest");
        let mut b = Laps::start();
        for (i, chunk) in texts.chunks(BATCH).enumerate() {
            let first = (i * BATCH) as u64 + 1;
            ctx.tracer.span("client.ingest_batch", first, phase, || {
                ingest(
                    &mut batch_client,
                    &mut ctx.tally,
                    chunk,
                    BATCH,
                    first as u32,
                )
            });
            b.lap();
        }
        ctx.tracer.close(phase);
        drop(batch_client);
        drop(batch_server);

        // (c) restart segment (a)
        drop(server);
        let phase = ctx.tracer.open("curate.restart");
        let mut c = Laps::start();
        let server = start(config(&seg_a));
        let mut client = connect(&server);
        let latest = ctx
            .tally
            .ok(client.latest(Lease::FRESH), "latest after restart");
        c.lap();
        ctx.tracer.close(phase);
        ctx.tally.verify(latest == Some(texts.len() as u32), || {
            format!("restart recovered {latest:?} of {} versions", texts.len())
        });

        // every acknowledged version reads back as it did before the restart
        if check {
            for v in 1..=texts.len() as u32 {
                let got = client.retrieve(Lease::FRESH, v);
                let got = ctx.tally.ok(got, "retrieve after restart").flatten();
                ctx.tally
                    .verify(got.as_ref() == before.get(v as usize - 1), || {
                        format!("version {v} changed across the restart")
                    });
            }
        }
        drop(client);
        drop(server);
        self.segment_len = std::fs::metadata(&seg_a).map_or(0, |m| m.len());
        vec![a.finish(), b.finish(), c.finish()]
    }

    fn divisors(&self) -> Vec<f64> {
        let n = VERSIONS as f64;
        vec![n, n, 1.0]
    }

    fn stored_and_user_bytes(&self) -> (f64, f64) {
        (
            self.segment_len as f64,
            self.releases.user_bytes(VERSIONS) as f64,
        )
    }

    fn layers(&mut self, ctx: &mut Ctx, _phases: &[PhaseSamples], out: &mut Layers) {
        let spec = omim_spec();
        let texts = &self.releases.texts;
        let docs = &self.releases.docs;
        let n = texts.len();
        let user_bytes = self.releases.user_bytes(n) as f64;

        // depth 0: Client::ingest against the served archive
        let passes = INGEST_SAMPLES.div_ceil(n);
        let peel = ctx.tracer.open("peel.client");
        for pass in 0..passes {
            let seg = ctx.segment("curate-peel-served");
            let server = start(server_config(1, false, Some(&seg), Some(CHECKPOINT_EVERY)));
            let mut client = connect(&server);
            for (i, text) in texts.iter().enumerate() {
                let got = ctx
                    .tracer
                    .span("peel.client.ingest", i as u64 + 1, peel, || {
                        client.ingest(std::slice::from_ref(text))
                    });
                ctx.tally.ok(got, "traced ingest");
            }
            if pass + 1 == passes {
                let obs = server.obs();
                let written = counter(obs, "segment.bytes_written");
                out.set("storage.fsyncs", counter(obs, "segment.fsyncs"));
                out.set(
                    "storage.blocks_written",
                    counter(obs, "segment.blocks_written"),
                );
                out.set("storage.bytes_written_per_user_byte", written / user_bytes);
                let checkpoint_bytes = counter(obs, "checkpoint.bytes_written");
                out.set("storage.checkpoint.bytes", checkpoint_bytes);
                out.set(
                    "storage.journal.bytes_per_version",
                    (written - checkpoint_bytes) / n as f64,
                );
            }
        }
        ctx.tracer.close(peel);
        let served = ctx.tracer.durations_ms("peel.client.ingest");
        out.set("proto.ingest.p50_ms", stats::median(&served));
        out.set("proto.ingest.p95_ms", stats::percentile(&served, 95.0));

        for _ in 0..PEEL_PASSES {
            // depth 1: the protocol's share on in-memory buffers, and the parse
            let peel = ctx.tracer.open("peel.proto");
            for (i, text) in texts.iter().enumerate() {
                let op = i as u64 + 1;
                let request = Request::Ingest {
                    docs: vec![text.clone()],
                };
                let mut wire = Vec::new();
                ctx.tracer.span("peel.proto.ingest_encode", op, peel, || {
                    write_frame(&mut wire, &request.encode()).expect("request frames");
                });
                ctx.tracer.span("peel.proto.ingest_decode", op, peel, || {
                    let body =
                        read_frame(&mut Cursor::new(&wire), MAX_FRAME_LEN).expect("frame reads");
                    black_box(Request::decode(&body).expect("request decodes"));
                });
                ctx.tracer.span("peel.xml.parse", op, peel, || {
                    black_box(parse(text).expect("release parses"));
                });
            }
            ctx.tracer.close(peel);

            // depth 2: the shared handle over the durable store
            let seg = ctx.segment("curate-peel-handle");
            let handle = ArchiveBuilder::new(spec.clone())
                .durable(&seg)
                .checkpoint_every(CHECKPOINT_EVERY)
                .try_build_shared()
                .expect("durable shared archive builds");
            let peel = ctx.tracer.open("peel.handle");
            for (i, doc) in docs.iter().enumerate() {
                let got = ctx
                    .tracer
                    .span("peel.handle.add_version", i as u64 + 1, peel, || {
                        handle.add_version(doc)
                    });
                ctx.tally.ok(got, "handle add_version");
            }
            ctx.tracer.close(peel);
            drop(handle);

            // depth 3: the durable store alone
            let seg = ctx.segment("curate-peel-durable");
            let mut store = ArchiveBuilder::new(spec.clone())
                .durable(&seg)
                .checkpoint_every(CHECKPOINT_EVERY)
                .try_build()
                .expect("durable archive builds");
            let peel = ctx.tracer.open("peel.durable");
            for (i, doc) in docs.iter().enumerate() {
                let got = ctx
                    .tracer
                    .span("peel.durable.add_version", i as u64 + 1, peel, || {
                        store.add_version(doc)
                    });
                ctx.tally.ok(got, "durable add_version");
            }
            ctx.tracer.close(peel);
            drop(store);

            // reopening that segment: the storage share of a restart …
            let reopened = ctx.tracer.span("peel.durable.reopen", 0, None, || {
                ArchiveBuilder::new(spec.clone())
                    .durable(&seg)
                    .checkpoint_every(CHECKPOINT_EVERY)
                    .try_build()
            });
            let latest = ctx.tally.ok(reopened, "reopen").map(|s| s.latest());
            ctx.tally.verify(latest == Some(n as u32), || {
                format!("reopen recovered {latest:?}")
            });
            // … and a whole restart of the same segment
            ctx.tracer.span("peel.server.restart", 0, None, || {
                let server = start(server_config(1, false, Some(&seg), Some(CHECKPOINT_EVERY)));
                let got = connect(&server).latest(Lease::FRESH);
                ctx.tally.ok(got, "latest after restart");
                server
            });

            // depth 5: the in-memory merge, serial and batched
            let mut plain = ArchiveBuilder::new(spec.clone()).build();
            let peel = ctx.tracer.open("peel.plain");
            for (i, doc) in docs.iter().enumerate() {
                let got = ctx
                    .tracer
                    .span("peel.plain.add_version", i as u64 + 1, peel, || {
                        plain.add_version(doc)
                    });
                ctx.tally.ok(got, "plain add_version");
            }
            ctx.tracer.close(peel);
            drop(plain);
            let mut batched = ArchiveBuilder::new(spec.clone()).build();
            let peel = ctx.tracer.open("peel.plain_batch");
            for (i, chunk) in docs.chunks(BATCH).enumerate() {
                let got = ctx.tracer.span(
                    "peel.plain.add_versions",
                    (i * BATCH) as u64 + 1,
                    peel,
                    || batched.add_versions(chunk),
                );
                ctx.tally.ok(got, "plain add_versions");
            }
            ctx.tracer.close(peel);
            drop(batched);

            // depth 6: key annotation
            let peel = ctx.tracer.open("peel.keys");
            for (i, doc) in docs.iter().enumerate() {
                let got = ctx
                    .tracer
                    .span("peel.keys.annotate", i as u64 + 1, peel, || {
                        xarch::keys::annotate(doc, &spec).map(|a| a.keyed_count())
                    });
                ctx.tally.ok(got, "annotate");
            }
            ctx.tracer.close(peel);
        }

        let depth = |name: &str| ctx.tracer.steady_ms(name);
        let served_ms = depth("peel.client.ingest");
        let parse_ms = depth("peel.xml.parse");
        let encode_ms = depth("peel.proto.ingest_encode");
        let decode_ms = depth("peel.proto.ingest_decode");
        let handle_ms = depth("peel.handle.add_version");
        let durable_ms = depth("peel.durable.add_version");
        let plain_ms = depth("peel.plain.add_version");
        let reopen_ms = depth("peel.durable.reopen");
        let restart_ms = depth("peel.server.restart");
        out.set("xml.parse.ms", parse_ms);
        out.set(
            "xml.parse.mb_per_s",
            user_bytes / n as f64 / 1e6 / (parse_ms / 1e3),
        );
        out.set("keys.annotate.ms", depth("peel.keys.annotate"));
        out.set("core.merge.ms", plain_ms);
        out.set("core.archive.rss_mb", self.archive_rss_mb);
        out.set(
            "core.batch_merge.ms",
            depth("peel.plain.add_versions") / BATCH as f64,
        );
        out.set("storage.journal.ms", durable_ms - plain_ms);
        out.set("storage.reopen.ms", reopen_ms);
        out.set("handle.add.ms", handle_ms - durable_ms);
        out.set("handle.fork.ms", restart_ms - reopen_ms);
        out.set("proto.ingest_encode.ms", encode_ms);
        out.set("proto.ingest_decode.ms", decode_ms);
        out.set(
            "server.ingest.ms",
            served_ms - encode_ms - decode_ms - parse_ms - handle_ms,
        );
        // what a cadence-boundary add costs beyond the median add
        let (boundary, other): (Vec<_>, Vec<_>) = ctx
            .tracer
            .steady_by_op("peel.durable.add_version")
            .into_iter()
            .partition(|(v, _)| v % u64::from(CHECKPOINT_EVERY) == 0);
        let ms = |adds: &[(u64, f64)]| stats::median(&adds.iter().map(|a| a.1).collect::<Vec<_>>());
        out.set("storage.checkpoint.ms", ms(&boundary) - ms(&other));
    }
}
