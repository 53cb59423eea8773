//! `mixed`, the second part of workload `write`: a curator ingests while a
//! reader queries the same durable, indexed, checkpointed served archive —
//! two threads in all.
//!
//! Per round, on a fresh segment preloaded (untimed, in batches) with
//! versions 1–[`PRELOAD`]: (a, b) connection A ingests the remaining
//! [`BUSY`] versions one per call while connection B loops over script `Q`
//! — a fresh lease per [`SLICE`] operations, so its pins advance, plus one
//! `retrieve` per slice — until A finishes; (c) the server is dropped and
//! restarted on the segment. (a) is A's time per version, (b) is A's wall
//! time per operation B completed.

use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

use xarch::datagen::omim::omim_spec;
use xarch::obs::Obs;
use xarch::{ArchiveBuilder, Snapshot, StoreReader};
use xarch_proto::{Client, Lease};

use crate::data::{query_script, server_config, Op, Releases, Rng};
use crate::fixture::{connect, counter, histogram_ms, ingest, start, time_ms, RunningServer};
use crate::harness::{Ctx, Laps, Layers, PhaseSamples, Tally, Workload};
use crate::ops::{answer_local, run_served};
use crate::trace::Tracer;

/// Versions the segment holds when a round ends.
pub const VERSIONS: usize = 32;
/// Versions preloaded before anything is timed.
pub const PRELOAD: usize = 16;
/// Releases per call of the preload.
const PRELOAD_BATCH: usize = 8;
/// Versions ingested beside the reader, phases (a) and (b).
pub const BUSY: usize = VERSIONS - PRELOAD;
/// Checkpoint cadence of the segment.
pub const CHECKPOINT_EVERY: u32 = 12;
/// Operations B runs under one lease.
pub const SLICE: usize = 64;
/// Length of script `Q` (B cycles through it).
const Q_LEN: usize = 4096;
/// Operations the idle reader of a traced run completes.
const IDLE_READS: u64 = 4096;
/// Passes of the index peeling replay; a version's time is its steady
/// time over the passes.
const PEEL_PASSES: usize = 5;

pub struct Mixed {
    releases: Rc<Releases>,
    /// Every version `q` names exists at any pin B can hold.
    q: Vec<Op>,
    segment_len: u64,
    /// The registry of the newest round's first server.
    obs: Obs,
}

/// What a reading connection did.
struct Reader {
    completed: u64,
    tracer: Tracer,
    tally: Tally,
}

/// A reader's loop: slices of `q` under fresh leases, one `retrieve` per
/// slice, for as long as `go_on` (given the operations completed so far)
/// allows. With `local`, each answer is compared to the in-process
/// snapshot's.
fn read_while(
    go_on: impl Fn(u64) -> bool,
    client: &mut Client,
    q: &[Op],
    local: Option<&RunningServer>,
    mut tracer: Tracer,
    parent: Option<u32>,
) -> Reader {
    let mut tally = Tally::default();
    let mut completed = 0u64;
    let mut at = 0usize;
    'leases: loop {
        // pinned no later than the lease, so it answers every query about
        // the preloaded versions exactly as the lease does
        let reference: Option<Snapshot> = local.map(|server| server.handle().snapshot());
        let Some((lease, pinned)) = tally.ok(client.open_snapshot(), "open_snapshot") else {
            break;
        };
        for _ in 0..SLICE {
            if !go_on(completed) {
                break 'leases;
            }
            let op = &q[at % q.len()];
            let got = tracer.span("client.query", at as u64, parent, || {
                run_served(client, lease, op)
            });
            let got = tally.ok(got, "served query");
            if let Some(snapshot) = &reference {
                // a history depends on the pin; everything else only on
                // versions both pins hold
                if snapshot.pinned() == pinned || !matches!(op, Op::HistoryValues { .. }) {
                    let want = answer_local(snapshot, op).ok().map(|r| r.encode());
                    tally.verify(got.map(|r| r.encode()) == want, || {
                        format!("served answer {at} differs from the snapshot's at pin {pinned}")
                    });
                }
            }
            at += 1;
            completed += 1;
        }
        let v = 1 + (at % PRELOAD) as u32;
        let got = tracer.span("client.retrieve", at as u64, parent, || {
            client.retrieve(lease, v)
        });
        let got = tally.ok(got, "served retrieve").flatten();
        if let Some(snapshot) = &reference {
            let mut want = Vec::new();
            let found = snapshot.retrieve_into(v, &mut want).is_ok_and(|f| f);
            tally.verify(
                found && got.as_ref().map(String::as_bytes) == Some(&want[..]),
                || format!("served retrieve({v}) differs from the snapshot's"),
            );
        }
        completed += 1;
        tally.ok(client.close_snapshot(lease), "close_snapshot");
    }
    Reader {
        completed,
        tracer,
        tally,
    }
}

/// Starts the workload's server on `segment`.
fn serve(ctx: &Ctx, segment: &Path) -> RunningServer {
    start(server_config(
        ctx.p,
        true,
        Some(segment),
        Some(CHECKPOINT_EVERY),
    ))
}

impl Workload for Mixed {
    fn setup(ctx: &mut Ctx) -> Self {
        let releases = ctx.releases(VERSIONS);
        let mut rng = Rng::new(ctx.seed);
        let q = query_script(&mut rng, &releases.record_keys(), PRELOAD as u32, Q_LEN);
        Mixed {
            releases,
            q,
            segment_len: 0,
            obs: Obs::new(),
        }
    }

    fn round(&mut self, ctx: &mut Ctx, check: bool) -> Vec<Vec<f64>> {
        let texts = &self.releases.texts;
        let segment = ctx.segment("mixed");
        let server = serve(ctx, &segment);
        let mut a = connect(&server);
        let mut b = connect(&server);
        ingest(&mut a, &mut ctx.tally, &texts[..PRELOAD], PRELOAD_BATCH, 1);

        // (a, b) ingest beside the reader
        let stop = AtomicBool::new(false);
        let phase = ctx.tracer.open("mixed.busy_ingest");
        let reader_tracer = ctx.tracer.sibling();
        let mut busy = Laps::start();
        let reader = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                read_while(
                    |_| !stop.load(Ordering::Acquire),
                    &mut b,
                    &self.q,
                    check.then_some(&server),
                    reader_tracer,
                    phase,
                )
            });
            for (i, text) in texts[PRELOAD..].iter().enumerate() {
                let v = (PRELOAD + i) as u64 + 1;
                let got = ctx.tracer.span("client.ingest", v, phase, || {
                    a.ingest(std::slice::from_ref(text))
                });
                if let Some(got) = ctx.tally.ok(got, "ingest beside reads") {
                    ctx.tally.verify(got == [v as u32], || {
                        format!("ingest of {v} acknowledged {got:?}")
                    });
                }
                busy.lap();
            }
            stop.store(true, Ordering::Release);
            reader.join().expect("reader thread panicked")
        });
        let busy = busy.finish();
        let busy_ms: f64 = busy.iter().sum();
        ctx.tracer.close(phase);
        ctx.tracer.absorb(reader.tracer);
        ctx.tally.absorb(reader.tally);
        ctx.tally.verify(reader.completed > 0, || {
            "the reader completed nothing".to_owned()
        });

        self.obs = server.obs().clone();
        drop(a);
        drop(b);
        drop(server);

        // (c) restart: replay re-establishes the index
        let phase = ctx.tracer.open("mixed.restart");
        let mut restart = Laps::start();
        let server = serve(ctx, &segment);
        let latest = ctx.tally.ok(
            connect(&server).latest(Lease::FRESH),
            "latest after restart",
        );
        restart.lap();
        ctx.tracer.close(phase);
        ctx.tally.verify(latest == Some(texts.len() as u32), || {
            format!("restart recovered {latest:?} of {} versions", texts.len())
        });
        drop(server);
        self.segment_len = std::fs::metadata(&segment).map_or(0, |m| m.len());

        vec![
            busy,
            vec![busy_ms / reader.completed.max(1) as f64],
            restart.finish(),
        ]
    }

    /// Phase (b) is already A's wall time per operation B completed.
    fn divisors(&self) -> Vec<f64> {
        vec![BUSY as f64, 1.0, 1.0]
    }

    fn stored_and_user_bytes(&self) -> (f64, f64) {
        (
            self.segment_len as f64,
            self.releases.user_bytes(VERSIONS) as f64,
        )
    }

    fn layers(&mut self, ctx: &mut Ctx, phases: &[PhaseSamples], out: &mut Layers) {
        let (hold_p50, hold_p99) = histogram_ms(&self.obs, "handle.write_lock_hold");
        out.set("handle.pins", counter(&self.obs, "handle.snapshot_pins"));
        out.set("handle.write_hold.p50_ms", hold_p50);
        out.set("handle.write_hold.p99_ms", hold_p99);
        out.set("server.requests", counter(&self.obs, "server.requests"));

        // the same ingests with no reader, each pass on a fresh segment
        let texts = &self.releases.texts;
        let mut server = None;
        for _ in 0..PEEL_PASSES {
            drop(server.take());
            let fresh = serve(ctx, &ctx.segment("mixed-idle"));
            let mut a = connect(&fresh);
            ingest(&mut a, &mut ctx.tally, &texts[..PRELOAD], PRELOAD_BATCH, 1);
            let peel = ctx.tracer.open("peel.idle_ingest");
            for (i, text) in texts[PRELOAD..].iter().enumerate() {
                let v = (PRELOAD + i) as u64 + 1;
                let got = ctx.tracer.span("peel.idle.ingest", v, peel, || {
                    a.ingest(std::slice::from_ref(text))
                });
                ctx.tally.ok(got, "idle ingest");
            }
            ctx.tracer.close(peel);
            server = Some(fresh);
        }
        out.set(
            "mixed.ingest_slowdown",
            phases[0].value() / ctx.tracer.steady_ms("peel.idle.ingest"),
        );

        // the reader alone on the last of those, all versions in place
        let server = server.expect("at least one pass");
        let mut client = connect(&server);
        let peel = ctx.tracer.open("peel.idle_reads");
        let (idle_ms, reader) = time_ms(|| {
            read_while(
                |completed| completed < IDLE_READS,
                &mut client,
                &self.q,
                None,
                ctx.tracer.sibling(),
                peel,
            )
        });
        ctx.tracer.close(peel);
        ctx.tracer.absorb(reader.tracer);
        ctx.tally.absorb(reader.tally);
        drop(client);
        drop(server);
        out.set(
            "mixed.read_slowdown",
            phases[1].value() / (idle_ms / reader.completed.max(1) as f64),
        );

        // index upkeep on the write path: indexed minus plain add_version
        let spec = omim_spec();
        for _ in 0..PEEL_PASSES {
            for (with_index, depth, name) in [
                (
                    true,
                    "peel.upkeep.indexed",
                    "peel.upkeep.indexed.add_version",
                ),
                (false, "peel.upkeep.plain", "peel.upkeep.plain.add_version"),
            ] {
                let builder = ArchiveBuilder::new(spec.clone());
                let mut store = if with_index {
                    builder.with_index().build()
                } else {
                    builder.build()
                };
                let peel = ctx.tracer.open(depth);
                for (i, doc) in self.releases.docs.iter().enumerate() {
                    let got = ctx
                        .tracer
                        .span(name, i as u64 + 1, peel, || store.add_version(doc));
                    ctx.tally.ok(got, "replayed add_version");
                }
                ctx.tracer.close(peel);
            }
        }
        out.set(
            "index.apply.ms",
            ctx.tracer.steady_ms("peel.upkeep.indexed.add_version")
                - ctx.tracer.steady_ms("peel.upkeep.plain.add_version"),
        );
    }
}
