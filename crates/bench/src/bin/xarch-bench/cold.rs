//! `cold`, the second part of workload `read`: one thread reads an
//! LZSS-compressed journal of [`VERSIONS`] versions through `ColdArchive`,
//! which keeps one decoded block at most.
//!
//! The fixture (set-up) journals every release as its own block with
//! `DurableOptions { compression: Lzss, sync: true, checkpoint_every:
//! None }` and closes the segment. Per round: (a) [`OPENS`] ×
//! `ColdArchive::open` + drop; (b) [`READS`] `retrieve_into` at
//! uniform-random versions, so consecutive reads hit different blocks;
//! (c) [`READS`] `as_of` cycling over [`CYCLE`] fixed versions, so a
//! reader that kept its last blocks would hit them. The warm-up round
//! also checks one `history`, a scan of every block.

use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;

use xarch::compress::{compress, decompress, BlockCodec};
use xarch::core::{equiv_modulo_key_order, KeyQuery};
use xarch::datagen::omim::omim_spec;
use xarch::obs::Obs;
use xarch::xml::parse;
use xarch::xml::writer::to_compact_string;
use xarch::{ArchiveBuilder, ColdArchive, DurableOptions, StoreReader, VersionStore};

use crate::data::{record_path, retrieve_script, Deck, Releases, Rng};
use crate::fixture::counter;
use crate::harness::{Ctx, Laps, Layers, PhaseSamples, Workload};

/// Versions in the cold segment (≈ 23 MB of user data).
pub const VERSIONS: usize = 64;
pub const OPENS: usize = 400;
/// Opens timed as one lap.
const OPEN_LAP: usize = 50;
pub const READS: usize = 24;
/// The versions phase (c) cycles over.
pub const CYCLE: [u32; 3] = [8, 32, 56];
/// Blocks a traced run compresses and decompresses on their own.
const PEEL_BLOCKS: usize = 12;
/// Passes over those blocks; a block's time is its steady time.
const PEEL_PASSES: usize = 5;

pub struct Cold {
    releases: Rc<Releases>,
    segment: PathBuf,
    segment_len: u64,
    versions: Vec<u32>,
    paths: Vec<Vec<KeyQuery>>,
    /// The same versions in an in-memory store; lives until the warm-up
    /// round has compared every cold answer with it.
    hot: Option<Box<dyn VersionStore>>,
}

impl Workload for Cold {
    fn setup(ctx: &mut Ctx) -> Self {
        let releases = ctx.releases(VERSIONS);
        let spec = omim_spec();
        let segment = ctx.segment("cold");
        let options = DurableOptions {
            compression: BlockCodec::Lzss,
            sync: true,
            checkpoint_every: None,
        };
        let mut journal = ArchiveBuilder::new(spec.clone())
            .durable_with(&segment, options)
            .try_build()
            .expect("cold fixture segment opens");
        let mut hot = ArchiveBuilder::new(spec).build();
        for doc in &releases.docs {
            ctx.tally
                .ok(journal.add_version(doc), "journal the fixture");
            ctx.tally.ok(hot.add_version(doc), "hot reference");
        }
        drop(journal);
        let segment_len = std::fs::metadata(&segment).map_or(0, |m| m.len());

        let mut rng = Rng::new(ctx.seed);
        let versions = retrieve_script(&mut rng, VERSIONS as u32, READS);
        let keys = releases.record_keys();
        let mut deck = Deck::new(&mut rng, keys.len());
        let paths = (0..READS)
            .map(|_| record_path(&keys[deck.draw()]))
            .collect();
        Cold {
            releases,
            segment,
            segment_len,
            versions,
            paths,
            hot: Some(hot),
        }
    }

    fn round(&mut self, ctx: &mut Ctx, check: bool) -> Vec<Vec<f64>> {
        let spec = omim_spec();
        let hot = if check { self.hot.take() } else { None };

        // (a) open and drop
        let phase = ctx.tracer.open("cold.open");
        let mut a = Laps::start();
        for i in 0..OPENS {
            let got = ctx.tracer.span("cold.open_drop", i as u64, phase, || {
                ColdArchive::open(&self.segment)
            });
            ctx.tally.ok(got, "cold open");
            a.lap_every(i, OPEN_LAP);
        }
        ctx.tracer.close(phase);

        let cold = ColdArchive::open(&self.segment).expect("the segment just opened 400 times");

        // (b) whole versions, uniform
        let mut buf = Vec::new();
        let phase = ctx.tracer.open("cold.retrieve");
        let mut b = Laps::start();
        for (i, &v) in self.versions.iter().enumerate() {
            buf.clear();
            let got = ctx.tracer.span("cold.retrieve_into", i as u64, phase, || {
                cold.retrieve_into(v, &mut buf)
            });
            let found = ctx.tally.ok(got, "cold retrieve");
            ctx.tally.verify(found == Some(true), || {
                format!("cold version {v} is missing")
            });
            if let Some(hot) = &hot {
                let same = std::str::from_utf8(&buf)
                    .ok()
                    .and_then(|text| parse(text).ok())
                    .zip(hot.retrieve(v).ok().flatten())
                    .is_some_and(|(got, want)| equiv_modulo_key_order(&got, &want, &spec));
                ctx.tally.verify(same, || {
                    format!("cold retrieve({v}) differs from the hot store's")
                });
            }
            black_box(&buf);
            b.lap();
        }
        ctx.tracer.close(phase);

        // (c) one record as of a few versions, cycling
        let phase = ctx.tracer.open("cold.as_of");
        let mut c = Laps::start();
        for (i, path) in self.paths.iter().enumerate() {
            let v = CYCLE[i % CYCLE.len()];
            let got = ctx
                .tracer
                .span("cold.as_of_call", i as u64, phase, || cold.as_of(path, v));
            let got = ctx.tally.ok(got, "cold as_of");
            if let Some(hot) = &hot {
                let text = |d: Option<xarch::xml::Document>| d.map(|d| to_compact_string(&d));
                let want = hot.as_of(path, v).ok().flatten();
                ctx.tally
                    .verify(got.clone().map(text) == Some(text(want)), || {
                        format!("cold as_of at {v} differs from the hot store's")
                    });
            }
            black_box(got);
            c.lap();
        }
        ctx.tracer.close(phase);

        // a scan of every block: one record's history
        if let Some(hot) = &hot {
            let path = &self.paths[0];
            let got = ctx.tally.ok(cold.history(path), "cold history");
            ctx.tally.verify(got == hot.history(path).ok(), || {
                "cold history differs from the hot store's".to_owned()
            });
        }

        vec![a.finish(), b.finish(), c.finish()]
    }

    fn divisors(&self) -> Vec<f64> {
        vec![OPENS as f64, READS as f64, READS as f64]
    }

    fn stored_and_user_bytes(&self) -> (f64, f64) {
        (
            self.segment_len as f64,
            self.releases.user_bytes(VERSIONS) as f64,
        )
    }

    fn layers(&mut self, ctx: &mut Ctx, phases: &[PhaseSamples], out: &mut Layers) {
        out.set("storage.cold_open.ms", phases[0].value());
        let retrieve_ms = phases[1].value();

        // registry counts of the uniform reads: one client, so they repeat
        let obs = Obs::new();
        if let Some(cold) = ctx
            .tally
            .ok(ColdArchive::open_observed(&self.segment, &obs), "cold open")
        {
            out.set(
                "storage.cold.mapped_mb",
                cold.mapped_bytes() as f64 / (1 << 20) as f64,
            );
            let blocks = counter(&obs, "cold.blocks_decoded");
            let bytes = counter(&obs, "cold.bytes_decoded");
            let mut buf = Vec::new();
            for &v in &self.versions {
                buf.clear();
                ctx.tally
                    .ok(cold.retrieve_into(v, &mut buf), "observed cold retrieve");
            }
            let reads = self.versions.len() as f64;
            out.set(
                "storage.cold.blocks_decoded_per_op",
                (counter(&obs, "cold.blocks_decoded") - blocks) / reads,
            );
            out.set(
                "storage.cold.bytes_decoded_per_op",
                (counter(&obs, "cold.bytes_decoded") - bytes) / reads,
            );
        }

        // the codec and the writer alone, over the same releases
        let blocks: Vec<usize> = self
            .versions
            .iter()
            .take(PEEL_BLOCKS)
            .map(|&v| v as usize - 1)
            .collect();
        for _ in 0..PEEL_PASSES {
            let peel = ctx.tracer.open("peel.codec");
            for (i, &at) in blocks.iter().enumerate() {
                let text = &self.releases.texts[at];
                let packed = ctx.tracer.span("peel.lzss.encode", i as u64, peel, || {
                    compress(text.as_bytes())
                });
                let unpacked = ctx
                    .tracer
                    .span("peel.lzss.decode", i as u64, peel, || decompress(&packed));
                ctx.tally.ok(unpacked.ok_or("corrupt"), "lzss round trip");
                ctx.tracer.span("peel.cold.xml.write", i as u64, peel, || {
                    black_box(to_compact_string(&self.releases.docs[at]));
                });
            }
            ctx.tracer.close(peel);
        }
        let raw_mb: f64 = blocks
            .iter()
            .map(|&at| self.releases.texts[at].len() as f64 / 1e6)
            .sum();
        let encode_s = ctx.tracer.steady_ms("peel.lzss.encode") * blocks.len() as f64 / 1e3;
        let decode_ms = ctx.tracer.steady_ms("peel.lzss.decode");
        let write_ms = ctx.tracer.steady_ms("peel.cold.xml.write");
        out.set("compress.lzss_encode.mb_per_s", raw_mb / encode_s);
        out.set("compress.lzss_decode.ms_per_block", decode_ms);
        out.set(
            "storage.cold_retrieve.self_ms",
            retrieve_ms - decode_ms - write_ms,
        );
    }
}
