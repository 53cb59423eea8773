//! One function per table/figure of the paper's evaluation.
//!
//! Each function generates its workload (scaled to laptop size — the
//! *shapes* are what reproduce), computes the series, and prints CSV to
//! stdout. `run(fig)` dispatches by experiment id. Timings that carry a
//! regression bound live in `xarch-bench`
//! (`crates/bench/src/bin/xarch-bench/README.md`), not here.

use xarch::{ArchiveBuilder, StoreReader, VersionStore};
use xarch_core::{Archive, ChunkedArchive, KeyQuery};
use xarch_datagen::omim::{omim_spec, OmimGen};
use xarch_datagen::swissprot::{swissprot_spec, SwissProtGen};
use xarch_datagen::xmark::{xmark_spec, XmarkGen};
use xarch_extmem::{ExtArchive, IoConfig};
use xarch_index::IndexedArchive;
use xarch_xml::Document;

use crate::series::{size_series, SeriesOptions, SizeRow};

/// Scale knobs (versions × records) for each dataset.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub omim_records: usize,
    pub omim_versions: usize,
    pub sp_records: usize,
    pub sp_versions: usize,
    pub xmark_items: usize,
    pub xmark_versions: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            omim_records: 300,
            omim_versions: 100,
            sp_records: 30,
            sp_versions: 20,
            xmark_items: 150,
            xmark_versions: 20,
        }
    }
}

fn print_series(title: &str, rows: &[SizeRow]) {
    println!("## {title}");
    println!("{}", SizeRow::csv_header());
    for r in rows {
        println!("{}", r.csv());
    }
    println!();
}

fn omim_versions(scale: &Scale) -> Vec<Document> {
    OmimGen::new(0xA11CE).sequence(scale.omim_records, scale.omim_versions)
}

fn sp_versions(scale: &Scale) -> Vec<Document> {
    SwissProtGen::new(0xB0B).sequence(scale.sp_records, scale.sp_versions)
}

/// Figure 7: dataset statistics (size, node count N, height h) of the
/// largest version of each dataset.
pub fn fig7(scale: &Scale) {
    println!("## Figure 7: dataset statistics (largest version)");
    println!("dataset,size_bytes,nodes,height");
    let rows: Vec<(&str, Document)> = vec![
        ("OMIM-like", omim_versions(scale).pop().expect("versions")),
        (
            "SwissProt-like",
            sp_versions(scale).pop().expect("versions"),
        ),
        (
            "XMark-like",
            XmarkGen::new(0xC0DE).generate(scale.xmark_items),
        ),
    ];
    for (name, doc) in rows {
        let s = doc.stats();
        let bytes = xarch_xml::writer::to_pretty_string(&doc, 0).len();
        println!("{name},{bytes},{},{}", s.nodes(), s.height);
    }
    println!();
}

/// Figure 11a: OMIM — version/archive/incremental/cumulative sizes.
pub fn fig11a(scale: &Scale) {
    let rows = size_series(
        &omim_versions(scale),
        &omim_spec(),
        SeriesOptions {
            compress_every: 0,
            with_cumulative: true,
            with_concat: false,
        },
    );
    print_series("Figure 11a: OMIM with cumulative diffs", &rows);
}

/// Figure 11b: Swiss-Prot — same four series.
pub fn fig11b(scale: &Scale) {
    let rows = size_series(
        &sp_versions(scale),
        &swissprot_spec(),
        SeriesOptions {
            compress_every: 0,
            with_cumulative: true,
            with_concat: false,
        },
    );
    print_series("Figure 11b: Swiss-Prot with cumulative diffs", &rows);
}

/// Figure 12a: OMIM with compression.
pub fn fig12a(scale: &Scale) {
    let rows = size_series(
        &omim_versions(scale),
        &omim_spec(),
        SeriesOptions {
            compress_every: (scale.omim_versions / 10).max(1),
            with_cumulative: true,
            with_concat: true,
        },
    );
    print_series(
        "Figure 12a: OMIM with incremental diffs + compression",
        &rows,
    );
}

/// Figure 12b: Swiss-Prot with compression.
pub fn fig12b(scale: &Scale) {
    let rows = size_series(
        &sp_versions(scale),
        &swissprot_spec(),
        SeriesOptions {
            compress_every: (scale.sp_versions / 10).max(1),
            with_cumulative: true,
            with_concat: true,
        },
    );
    print_series(
        "Figure 12b: Swiss-Prot with incremental diffs + compression",
        &rows,
    );
}

fn xmark_series(scale: &Scale, pct: f64, mutate_keys: bool, title: &str) {
    let mut g = XmarkGen::new(0xF00D + pct.to_bits() + mutate_keys as u64);
    let versions = if mutate_keys {
        g.key_mutation_sequence(scale.xmark_items, scale.xmark_versions, pct)
    } else {
        g.random_change_sequence(scale.xmark_items, scale.xmark_versions, pct)
    };
    let rows = size_series(
        &versions,
        &xmark_spec(),
        SeriesOptions {
            compress_every: (scale.xmark_versions / 5).max(1),
            with_cumulative: true,
            with_concat: true,
        },
    );
    print_series(title, &rows);
}

/// Figure 13: XMark under random change (a: 1.66%, b: 10%).
pub fn fig13(scale: &Scale) {
    xmark_series(scale, 1.66, false, "Figure 13a: XMark, 1.66% random change");
    xmark_series(scale, 10.0, false, "Figure 13b: XMark, 10% random change");
}

/// Figure 14: XMark worst case — key mutation (a: 1.66%, b: 10%).
pub fn fig14(scale: &Scale) {
    xmark_series(
        scale,
        1.66,
        true,
        "Figure 14a: XMark, 1.66% key mutation (worst case)",
    );
    xmark_series(
        scale,
        10.0,
        true,
        "Figure 14b: XMark, 10% key mutation (worst case)",
    );
}

/// Appendix C.1: XMark random change at 3.33% / 6.66%.
pub fn fig_c1(scale: &Scale) {
    xmark_series(
        scale,
        3.33,
        false,
        "Appendix C.1a: XMark, 3.33% random change",
    );
    xmark_series(
        scale,
        6.66,
        false,
        "Appendix C.1b: XMark, 6.66% random change",
    );
}

/// Appendix C.2: key mutation at 3.33% / 6.66%.
pub fn fig_c2(scale: &Scale) {
    xmark_series(
        scale,
        3.33,
        true,
        "Appendix C.2a: XMark, 3.33% key mutation",
    );
    xmark_series(
        scale,
        6.66,
        true,
        "Appendix C.2b: XMark, 6.66% key mutation",
    );
}

/// §1/§5 headline claims, derived from the OMIM series:
/// archive ≤ ~1.12× last version after ~a year of dailies; xmill(archive)
/// ≈ 40% of the last version; archive within ~1% of incremental diffs.
pub fn claims(scale: &Scale) {
    let versions = omim_versions(scale);
    let rows = size_series(
        &versions,
        &omim_spec(),
        SeriesOptions {
            compress_every: scale.omim_versions,
            with_cumulative: false,
            with_concat: false,
        },
    );
    let last = rows.last().expect("rows");
    println!("## Claims (OMIM-like, {} versions)", rows.len());
    println!("metric,paper,measured");
    println!(
        "archive / last version,<= 1.12x (per year),{:.3}x",
        last.archive_bytes as f64 / last.version_bytes as f64
    );
    println!(
        "xmill(archive) / last version,~0.40x,{:.3}x",
        last.xmill_archive.expect("sampled") as f64 / last.version_bytes as f64
    );
    println!(
        "archive overhead vs inc diffs,<= 1%,{:+.2}%",
        (last.archive_bytes as f64 / last.inc_bytes as f64 - 1.0) * 100.0
    );
    println!();
}

/// §6: external archiver I/O as a function of memory budget M and page
/// size B.
pub fn fig_extmem(scale: &Scale) {
    println!("## §6: external archiver I/O (OMIM-like, 5 versions)");
    println!("mem_bytes,page_bytes,page_reads,page_writes,total_io");
    let versions = OmimGen::new(0xE47).sequence(scale.omim_records / 2, 5);
    for (m, b) in [
        (2usize << 10, 256usize),
        (8 << 10, 256),
        (32 << 10, 256),
        (8 << 10, 1024),
        (8 << 10, 4096),
    ] {
        let mut ext = ExtArchive::new(
            omim_spec(),
            IoConfig {
                mem_bytes: m,
                page_bytes: b,
            },
        );
        for d in &versions {
            ext.add_version(d).expect("merge");
        }
        let s = ext.io_stats();
        println!("{m},{b},{},{},{}", s.page_reads, s.page_writes, s.total());
    }
    println!();
}

/// §7: retrieval probes with timestamp trees vs a full scan, and history
/// lookups via the sorted index vs the naive walk.
///
/// Timestamp trees pay off when a version occupies a small fraction of the
/// archive (`α ≪ k`, §7.1), so this experiment uses a strongly accretive
/// database: early versions are a sliver of the final archive.
pub fn fig_index(scale: &Scale) {
    let mut g = OmimGen::new(0x1DE);
    g.ins_ratio = 0.08; // ~8% growth per version: v1 is a sliver of the end
    let versions = g.sequence((scale.omim_records / 10).max(10), 50);
    let spec = omim_spec();
    let mut archive = Archive::new(spec.clone());
    for d in &versions {
        archive.add_version(d).expect("merge");
    }
    let idx = IndexedArchive::from_archive(archive);
    let archive = idx.archive();
    println!("## §7.1: version retrieval — timestamp-tree probes vs full scan");
    println!("version,tree_probes,scan_nodes");
    let scan = archive.scan_cost();
    let n = versions.len() as u32;
    for v in [1, n / 4, n / 2, n] {
        let v = v.max(1);
        idx.reset_probes();
        StoreReader::retrieve(&idx, v).expect("retrieve");
        println!("{v},{},{scan}", idx.timestamp_index().probes());
    }
    println!();

    println!("## §7.2: history lookup — sorted-index comparisons vs naive scan");
    println!("query,comparisons,naive_nodes,found");
    let hidx = idx.history_index();
    // pick a real record number from the first version
    let d0 = &versions[0];
    let rec = d0
        .child_elements(d0.root(), "Record")
        .next()
        .expect("record");
    let num = d0.text_content(d0.first_child_element(rec, "Num").expect("num"));
    let q = vec![
        KeyQuery::new("ROOT"),
        KeyQuery::new("Record").with_text("Num", &num),
    ];
    hidx.reset();
    let t = StoreReader::history(&idx, &q).expect("history");
    println!(
        "Record[Num={num}],{},{},{}",
        hidx.comparisons(),
        archive.scan_cost(),
        t.is_some()
    );
    let q_missing = vec![
        KeyQuery::new("ROOT"),
        KeyQuery::new("Record").with_text("Num", "0"),
    ];
    hidx.reset();
    let t = StoreReader::history(&idx, &q_missing).expect("history");
    println!(
        "Record[Num=0] (absent),{},{},{}",
        hidx.comparisons(),
        archive.scan_cost(),
        t.is_some()
    );
    println!();
}

/// Ablation: the design choices DESIGN.md calls out — stamp alternatives
/// vs weave compaction beneath frontiers, and chunked vs whole archiving.
///
/// Weave only differs from alternatives when frontier content is a *list*
/// whose versions overlap partially (Fig 10) — on single-text frontiers the
/// two schemes emit byte-identical XML. The compaction comparison therefore
/// uses a free-text dataset: records whose `Text` field holds a sequence of
/// `<line>` elements, a few of which change per version (§2's `<line>`
/// example of data without keys beneath a point).
pub fn fig_ablation(scale: &Scale) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xarch_core::Compaction;

    let spec =
        xarch_keys::KeySpec::parse("(/, (db, {}))\n(/db, (doc, {id}))\n(/db/doc, (Text, {}))")
            .expect("spec");
    let mut rng = StdRng::seed_from_u64(0xAB1A);
    let n_docs = 40usize;
    let n_lines = 30usize;
    let mut lines: Vec<Vec<String>> = (0..n_docs)
        .map(|d| {
            (0..n_lines)
                .map(|l| format!("doc{d} line{l} original text"))
                .collect()
        })
        .collect();
    let mut versions: Vec<Document> = Vec::new();
    for v in 0..12 {
        if v > 0 {
            // change ~3 lines per document, keep the rest — weave territory
            for (d, ls) in lines.iter_mut().enumerate() {
                for _ in 0..3 {
                    let idx = rng.gen_range(0..ls.len());
                    ls[idx] = format!("doc{d} line{idx} edited at v{v}");
                }
            }
        }
        let mut doc = Document::new("db");
        for (d, ls) in lines.iter().enumerate() {
            let rec = doc.add_element(doc.root(), "doc");
            doc.add_text_element(rec, "id", &d.to_string());
            let text = doc.add_element(rec, "Text");
            for l in ls {
                doc.add_text_element(text, "line", l);
            }
        }
        versions.push(doc);
    }
    println!("## Ablation: frontier compaction (free-text lines, 3 edits/doc/version)");
    println!("variant,archive_bytes");
    for (name, mode) in [
        ("alternatives", Compaction::Alternatives),
        ("weave", Compaction::Weave),
    ] {
        let mut a = ArchiveBuilder::new(spec.clone()).compaction(mode).build();
        for d in &versions {
            a.add_version(d).expect("merge");
        }
        println!("{name},{}", a.stats().expect("stats").size_bytes);
    }
    println!();

    let mut g = XmarkGen::new(0xAB1A);
    let xversions = g.random_change_sequence(scale.xmark_items, scale.xmark_versions.min(10), 10.0);
    let xspec = xmark_spec();
    println!("## Ablation: chunked vs whole archiving (XMark, 10% change)");
    println!("variant,archive_bytes");
    let mut whole = ArchiveBuilder::new(xspec.clone()).build();
    let mut chunked = ChunkedArchive::new(xspec, 4);
    for d in &xversions {
        whole.add_version(d).expect("merge");
        chunked.add_version(d).expect("merge");
    }
    println!("whole,{}", whole.stats().expect("stats").size_bytes);
    println!("chunked(4),{}", chunked.size_bytes());
    println!();
}

/// The `queries` workload: one accretive archive per version count, one
/// record queried. Returns per-size rows for printing and sanity checks.
struct QueryRow {
    versions: usize,
    scan_nodes: usize,
    indexed_probes: usize,
    indexed_asof_us: f64,
    filter_asof_us: f64,
    indexed_hist_us: f64,
    naive_hist_us: f64,
}

fn query_rows(scale: &Scale, sizes: &[usize]) -> Vec<QueryRow> {
    use std::time::Instant;
    use xarch_core::query::{find_in_doc, subtree_doc};

    const REPS: u32 = 20;
    let spec = omim_spec();
    let mut rows = Vec::new();
    for &n in sizes {
        let mut g = OmimGen::new(0x9E5);
        g.ins_ratio = 0.08; // accretive: early records become a sliver
        let versions = g.sequence((scale.omim_records / 10).max(10), n);
        let mut idx = IndexedArchive::new(spec.clone());
        for d in &versions {
            VersionStore::add_version(&mut idx, d).expect("merge");
        }
        // a record archived in version 1, queried as of version 1: the
        // case §7 makes cheap (the answer is a sliver of the archive)
        let d0 = &versions[0];
        let rec = d0
            .child_elements(d0.root(), "Record")
            .next()
            .expect("record");
        let num = d0.text_content(d0.first_child_element(rec, "Num").expect("num"));
        let q = vec![
            KeyQuery::new("ROOT"),
            KeyQuery::new("Record").with_text("Num", &num),
        ];

        idx.reset_probes();
        StoreReader::as_of(&idx, &q, 1)
            .expect("as_of")
            .expect("archived");
        let indexed_probes = idx.history_index().comparisons() + idx.timestamp_index().probes();

        let start = Instant::now();
        for _ in 0..REPS {
            StoreReader::as_of(&idx, &q, 1).expect("as_of");
        }
        let indexed_asof_us = start.elapsed().as_secs_f64() * 1e6 / REPS as f64;

        let archive = idx.archive();
        let scan_nodes = archive.scan_cost();
        let start = Instant::now();
        for _ in 0..REPS {
            let doc = archive.retrieve(1).expect("archived");
            find_in_doc(&doc, &spec, &q)
                .and_then(|id| subtree_doc(&doc, id))
                .expect("navigates");
        }
        let filter_asof_us = start.elapsed().as_secs_f64() * 1e6 / REPS as f64;

        let start = Instant::now();
        for _ in 0..REPS {
            StoreReader::history(&idx, &q)
                .expect("history")
                .expect("exists");
        }
        let indexed_hist_us = start.elapsed().as_secs_f64() * 1e6 / REPS as f64;

        let start = Instant::now();
        for _ in 0..REPS {
            archive.history(&q).expect("exists");
        }
        let naive_hist_us = start.elapsed().as_secs_f64() * 1e6 / REPS as f64;

        rows.push(QueryRow {
            versions: n,
            scan_nodes,
            indexed_probes,
            indexed_asof_us,
            filter_asof_us,
            indexed_hist_us,
            naive_hist_us,
        });
    }
    rows
}

/// §7 sublinearity, measured: indexed `as_of` / `history` cost (probe
/// counts and wall time) vs full-retrieve-then-filter as the version
/// count grows. The workload is accretive, so the queried record is a
/// shrinking fraction of the archive: indexed probes grow sublinearly
/// with versions while the full-retrieve scan grows with archive size.
pub fn fig_queries(scale: &Scale) {
    println!("## Queries: indexed as_of/history vs full-retrieve-then-filter");
    println!(
        "versions,scan_nodes,indexed_probes,indexed_asof_us,filter_asof_us,\
         indexed_hist_us,naive_hist_us"
    );
    for r in query_rows(scale, &[10, 20, 40, 80]) {
        println!(
            "{},{},{},{:.1},{:.1},{:.1},{:.1}",
            r.versions,
            r.scan_nodes,
            r.indexed_probes,
            r.indexed_asof_us,
            r.filter_asof_us,
            r.indexed_hist_us,
            r.naive_hist_us
        );
    }
    println!();
}

/// The shape the acceptance criteria pin down: across an 8× growth in
/// version count, indexed probes must grow by a clearly sublinear factor
/// while the full-retrieve scan grows (at least) proportionally to the
/// archive.
pub fn queries_sanity(scale: &Scale) -> Result<(), String> {
    let rows = query_rows(scale, &[10, 80]);
    let (small, large) = (&rows[0], &rows[1]);
    let probe_growth = large.indexed_probes as f64 / small.indexed_probes.max(1) as f64;
    let scan_growth = large.scan_nodes as f64 / small.scan_nodes.max(1) as f64;
    let version_growth = large.versions as f64 / small.versions as f64; // 8×
    if probe_growth >= version_growth / 2.0 {
        return Err(format!(
            "indexed probes grew {probe_growth:.2}× over {version_growth}× versions — not sublinear"
        ));
    }
    if scan_growth <= probe_growth {
        return Err(format!(
            "full-retrieve scan grew {scan_growth:.2}× but probes {probe_growth:.2}× — pruning shows no separation"
        ));
    }
    Ok(())
}

/// Durability: what persistence costs and what reopen buys.
///
/// Two series: (1) add_version wall-clock throughput, in-memory vs the
/// durable wrapper (uncompressed vs LZSS blocks, fsync on every commit);
/// (2) reopen (replay) time and segment size as a function of version
/// count — the recovery path the ephemeral backends don't have.
pub fn fig_durability(scale: &Scale) {
    use std::time::Instant;
    use xarch::storage::{scratch_path, DurableOptions};
    use xarch_compress::BlockCodec;

    let spec = omim_spec();
    let versions = OmimGen::new(0xD15C).sequence(scale.omim_records / 2, 10);

    println!("## Durability: add_version cost of the journal (OMIM-like, 10 versions)");
    println!("backend,total_add_ms,adds_per_sec,journal_bytes");
    let configs: Vec<(&str, Option<DurableOptions>)> = vec![
        ("in-memory", None),
        (
            "durable/raw",
            Some(DurableOptions {
                compression: BlockCodec::Raw,
                sync: true,
                checkpoint_every: None,
            }),
        ),
        (
            "durable/lzss",
            Some(DurableOptions {
                compression: BlockCodec::Lzss,
                sync: true,
                checkpoint_every: None,
            }),
        ),
    ];
    for (label, durable) in configs {
        let path = scratch_path("bench-durability");
        let mut store = match durable {
            None => ArchiveBuilder::new(spec.clone()).build(),
            Some(opts) => ArchiveBuilder::new(spec.clone())
                .durable_with(&path, opts)
                .try_build()
                .expect("durable store"),
        };
        let start = Instant::now();
        for d in &versions {
            store.add_version(d).expect("merge");
        }
        let elapsed = start.elapsed();
        let journal = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        println!(
            "{label},{:.2},{:.0},{journal}",
            elapsed.as_secs_f64() * 1e3,
            versions.len() as f64 / elapsed.as_secs_f64()
        );
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
    println!();

    println!("## Durability: reopen (replay) time vs version count");
    println!("versions,reopen_ms,checkpointed_reopen_ms,tail_blocks_replayed,journal_bytes");
    for n in [2usize, 5, 10] {
        let mut row = Vec::new();
        // full replay vs checkpointed (cadence 2: the newest checkpoint
        // always trails the head closely, so reopen work stays flat in n)
        for every in [0u32, 2] {
            let path = scratch_path("bench-reopen");
            {
                let mut store = ArchiveBuilder::new(spec.clone())
                    .checkpoint_every(every)
                    .durable(&path)
                    .try_build()
                    .expect("durable store");
                for d in versions.iter().take(n) {
                    store.add_version(d).expect("merge");
                }
            }
            let inner = ArchiveBuilder::new(spec.clone()).build();
            let options = DurableOptions {
                checkpoint_every: (every > 0).then_some(every),
                ..DurableOptions::default()
            };
            let start = Instant::now();
            let store = xarch::DurableArchive::open_with(&path, options, inner).expect("reopen");
            let elapsed = start.elapsed();
            assert_eq!(store.latest(), n as u32);
            let journal = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            row.push((
                elapsed.as_secs_f64() * 1e3,
                store.recovery().tail_blocks_replayed,
                journal,
            ));
            drop(store);
            let _ = std::fs::remove_file(&path);
        }
        println!(
            "{n},{:.2},{:.2},{},{}",
            row[0].0, row[1].0, row[1].1, row[1].2
        );
    }
    println!();

    println!("## Durability: cold retrieve off the mmap'd segment");
    println!("versions,cold_open_ms,cold_retrieve_ms,bytes_decoded,mapped_bytes");
    for n in [5usize, 10] {
        let path = scratch_path("bench-cold");
        {
            let mut store = ArchiveBuilder::new(spec.clone())
                .durable(&path)
                .try_build()
                .expect("durable store");
            for d in versions.iter().take(n) {
                store.add_version(d).expect("merge");
            }
        }
        let start = Instant::now();
        let cold = xarch::ColdArchive::open(&path).expect("cold open");
        let open_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let got = cold.retrieve(n as u32).expect("cold retrieve");
        let retrieve_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(got.is_some());
        println!(
            "{n},{open_ms:.2},{retrieve_ms:.2},{},{}",
            cold.bytes_decoded(),
            cold.mapped_bytes()
        );
        drop(cold);
        let _ = std::fs::remove_file(&path);
    }
    println!();
}

/// The shapes the checkpoint + cold-read acceptance criteria pin down:
/// a checkpointed reopen replays a bounded tail no matter how long the
/// history grows (flat, vs the full replay's linear block count), and a
/// cold retrieve decodes only its own block's bytes — never the whole
/// mapped segment.
pub fn durability_sanity(scale: &Scale) -> Result<(), String> {
    use xarch::storage::scratch_path;
    use xarch::{ColdArchive, DurableArchive, DurableOptions};

    let spec = omim_spec();
    let versions = OmimGen::new(0xD15C).sequence((scale.omim_records / 4).max(10), 24);

    // --- checkpointed reopen: tail work is flat in history length ---
    let every = 4u32;
    let mut tails = Vec::new();
    let mut full_blocks = Vec::new();
    for n in [8usize, 24] {
        let path = scratch_path("sanity-checkpoint");
        {
            let mut store = ArchiveBuilder::new(spec.clone())
                .checkpoint_every(every)
                .durable(&path)
                .try_build()
                .map_err(|e| e.to_string())?;
            for d in versions.iter().take(n) {
                store.add_version(d).map_err(|e| e.to_string())?;
            }
        }
        let options = DurableOptions {
            checkpoint_every: Some(every),
            ..DurableOptions::default()
        };
        let store =
            DurableArchive::open_with(&path, options, ArchiveBuilder::new(spec.clone()).build())
                .map_err(|e| e.to_string())?;
        let stats = store.recovery();
        if !stats.checkpoint_loaded {
            return Err(format!("n={n}: reopen did not load a checkpoint"));
        }
        tails.push(stats.tail_blocks_replayed);
        full_blocks.push(n as u64);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
    // the tail is bounded by the cadence, so 3x the history must not
    // grow the replayed tail at all — while a full replay grows 3x
    if tails[1] > tails[0] || u64::from(tails[1]) >= u64::from(every) {
        return Err(format!(
            "checkpointed reopen is not flat: {} tail blocks at {} versions vs {} at {}",
            tails[1], full_blocks[1], tails[0], full_blocks[0]
        ));
    }

    // --- cold retrieve: decodes one block's bytes, not the archive ---
    let n = 16usize;
    let path = scratch_path("sanity-cold");
    {
        let mut store = ArchiveBuilder::new(spec.clone())
            .durable(&path)
            .try_build()
            .map_err(|e| e.to_string())?;
        for d in versions.iter().take(n) {
            store.add_version(d).map_err(|e| e.to_string())?;
        }
    }
    let cold = ColdArchive::open(&path).map_err(|e| e.to_string())?;
    let got = cold
        .retrieve(n as u32)
        .map_err(|e| e.to_string())?
        .ok_or("cold retrieve returned nothing")?;
    drop(got);
    let decoded = cold.bytes_decoded();
    let mapped = cold.mapped_bytes();
    if decoded == 0 || mapped == 0 {
        return Err("cold metrics not recorded".into());
    }
    // one version block out of 16: decoding even a quarter of the file
    // would mean the cold path materialized far more than its answer
    if decoded * 4 > mapped {
        return Err(format!(
            "cold retrieve decoded {decoded} of {mapped} mapped bytes — \
             the archive is being materialized, not read cold"
        ));
    }
    drop(cold);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// One measured ingest run: wall-clock, rate, and (durable) journal work.
struct IngestRun {
    ms: f64,
    per_sec: f64,
    blocks: u64,
    syncs: u64,
}

/// Loads `docs` in batches of `batch` into `store` (`batch <= 1` = the
/// serial `add_version` path); journal counters are the caller's to read.
fn ingest_run(store: &mut dyn VersionStore, docs: &[Document], batch: usize) -> IngestRun {
    let start = std::time::Instant::now();
    if batch <= 1 {
        for d in docs {
            store.add_version(d).expect("merge");
        }
    } else {
        for chunk in docs.chunks(batch) {
            store.add_versions(chunk).expect("batch merge");
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    IngestRun {
        ms: elapsed * 1e3,
        per_sec: docs.len() as f64 / elapsed,
        blocks: 0,
        syncs: 0,
    }
}

/// [`ingest_run`] against a fresh [`xarch::storage::DurableArchive`] at
/// `path` (removed first and after), with the journal counters filled in.
fn durable_ingest_run(
    spec: &xarch_keys::KeySpec,
    path: &std::path::Path,
    docs: &[Document],
    batch: usize,
) -> IngestRun {
    let _ = std::fs::remove_file(path);
    let mut store =
        xarch::storage::DurableArchive::open(path, ArchiveBuilder::new(spec.clone()).build())
            .expect("durable store");
    let mut run = ingest_run(&mut store, docs, batch);
    run.blocks = store.journal_blocks();
    run.syncs = store.journal_syncs();
    drop(store);
    let _ = std::fs::remove_file(path);
    run
}

/// Ingest: bulk-load throughput as a function of batch size, in-memory vs
/// durable, with the group-commit journal work alongside.
///
/// The write path the ROADMAP cares about: serial ingest pays a full
/// archive walk, an index refresh, and (durable) a journal block + fsync
/// *per version*; `add_versions` amortizes all three — one batch merge
/// pass, one index refresh, and one group-committed block with a
/// single fsync. The `blocks`/`fsyncs` columns show the amortization
/// directly (64 → 1 at batch 64); how far it moves the versions/sec
/// column depends on what an fsync costs — milliseconds on commodity
/// disks (where serial ingest is fsync-bound and batching is worth
/// 2–50×), microseconds on write-cached or virtualized storage.
pub fn fig_ingest(scale: &Scale) {
    use xarch::storage::scratch_path;

    let spec = omim_spec();
    let n_versions = 64usize;
    let docs = OmimGen::new(0x1A6E57).sequence(scale.omim_records / 2, n_versions);
    println!(
        "## Ingest: bulk-load throughput vs batch size (OMIM-like, {} versions)",
        docs.len()
    );
    println!("backend,batch,total_ms,versions_per_sec,journal_blocks,fsyncs");
    for (label, durable) in [("in-memory", false), ("durable", true)] {
        for batch in [1usize, 8, 64] {
            let r = if durable {
                let path = scratch_path("bench-ingest");
                durable_ingest_run(&spec, &path, &docs, batch)
            } else {
                let mut store = ArchiveBuilder::new(spec.clone()).build();
                ingest_run(store.as_mut(), &docs, batch)
            };
            println!(
                "{label},{batch},{:.1},{:.0},{},{}",
                r.ms, r.per_sec, r.blocks, r.syncs
            );
        }
    }
    println!();
}

/// The structural gate on the ingest figure (it holds on any machine):
/// for the same 64-version load, serial durable ingest must issue one
/// journal block + one fsync per version while batch-64 ingest issues
/// exactly ONE of each — a 64× amortization of the commit overhead, which
/// is what makes batched ingest faster wherever an fsync costs real time.
/// How much faster is `xarch-bench`'s to measure (`write`: `phase_a_ms` vs
/// `phase_b_ms`), not a tier-1 test's to assert.
pub fn ingest_sanity(scale: &Scale) -> Result<(), String> {
    use xarch::storage::scratch_path;

    let spec = omim_spec();
    let docs = OmimGen::new(0x1A6E57).sequence((scale.omim_records / 4).max(20), 64);
    let serial = durable_ingest_run(&spec, &scratch_path("ingest-sanity-serial"), &docs, 1);
    let batched = durable_ingest_run(&spec, &scratch_path("ingest-sanity-batched"), &docs, 64);
    if serial.blocks != docs.len() as u64 || serial.syncs != docs.len() as u64 {
        return Err(format!(
            "serial durable ingest should journal one block + one fsync per version, \
             saw {} blocks / {} fsyncs for {} versions",
            serial.blocks,
            serial.syncs,
            docs.len()
        ));
    }
    if batched.blocks != 1 || batched.syncs != 1 {
        return Err(format!(
            "batch-64 durable ingest should group-commit ONE block with ONE fsync, \
             saw {} blocks / {} fsyncs",
            batched.blocks, batched.syncs
        ));
    }
    Ok(())
}

/// One measured window of the concurrency experiment: `threads` reader
/// threads each pin a snapshot off `handle` and stream whole versions
/// (bounded by their own pin) in a tight loop until the window closes;
/// with `churn`, one extra thread merges documents through the same
/// handle the whole time, so every read races live publications. Returns
/// the total reads completed.
fn snapshot_read_window(
    handle: &xarch::ArchiveHandle,
    threads: usize,
    window: std::time::Duration,
    churn: Option<&[Document]>,
) -> u64 {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use xarch::StoreReader;

    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    std::thread::scope(|s| {
        if let Some(docs) = churn {
            let writer = handle.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    writer
                        .add_version(&docs[i % docs.len()])
                        .expect("churn merge");
                    i += 1;
                }
            });
        }
        for t in 0..threads {
            let snap = handle.snapshot();
            let stop = &stop;
            let total = &total;
            s.spawn(move || {
                let latest = snap.pinned();
                let mut sink = Vec::new();
                let mut v = 1 + (t as u32 % latest);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    sink.clear();
                    snap.retrieve_into(v, &mut sink).expect("read");
                    v = v % latest + 1;
                    n += 1;
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed)
}

/// Concurrency: snapshot read throughput as reader threads scale 1→8 —
/// the shared-read API's headline property. Each thread clones the
/// `ArchiveHandle`, pins a snapshot, and streams whole versions in a
/// tight loop for a fixed wall-clock window; a pin is one `Arc` clone of
/// the published view and no reader ever waits behind a writer, so
/// throughput should scale with the thread count until the memory system
/// saturates. Measured on the in-memory backend, on the durable wrapper
/// (whose reads bypass the journal entirely), and — the publication
/// design's signature row — on the in-memory backend with a **writer
/// continuously merging**: merges run beside the readers' immutable views
/// instead of blocking them, so the curve should track the writer-idle
/// one instead of flattening to the merge rate.
pub fn fig_concurrency(scale: &Scale) {
    use std::time::Duration;
    use xarch::storage::scratch_path;
    use xarch::ArchiveHandle;

    const WINDOW: Duration = Duration::from_millis(120);

    // speedup is bounded by the machine: on a single hardware thread the
    // curve is flat (the interesting signal there is that it does not
    // *degrade* — readers never block each other, writer active or not)
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "## Concurrency: snapshot read throughput vs reader threads \
         (OMIM-like, 10 versions, {cores} hardware threads)"
    );
    println!("backend,threads,total_reads,reads_per_sec,speedup_vs_1");
    let spec = omim_spec();
    let versions = OmimGen::new(0x5EED).sequence(scale.omim_records / 3, 10);

    let configs: Vec<(&str, Option<std::path::PathBuf>, bool)> = vec![
        ("in-memory", None, false),
        ("durable", Some(scratch_path("bench-concurrency")), false),
        ("in-memory+writer", None, true),
    ];
    for (label, path, writer_active) in configs {
        let store = match &path {
            None => ArchiveBuilder::new(spec.clone()).build(),
            Some(p) => ArchiveBuilder::new(spec.clone())
                .durable(p)
                .try_build()
                .expect("durable store"),
        };
        let handle = ArchiveHandle::new(store);
        for d in &versions {
            handle.add_version(d).expect("merge");
        }
        let mut baseline = 0.0;
        for threads in 1..=8usize {
            let churn = writer_active.then_some(versions.as_slice());
            let reads = snapshot_read_window(&handle, threads, WINDOW, churn);
            let per_sec = reads as f64 / WINDOW.as_secs_f64();
            if threads == 1 {
                baseline = per_sec;
            }
            println!(
                "{label},{threads},{reads},{per_sec:.0},{:.2}",
                per_sec / baseline.max(1.0)
            );
        }
        drop(handle);
        if let Some(p) = path {
            let _ = std::fs::remove_file(p);
        }
    }
    println!();
}

/// Structural gate over the concurrency figure: readers make progress in
/// every mode — alone, eight together, and eight racing a writer that
/// merges the whole time. How *much* progress is `xarch-bench`'s to
/// measure (`write`: `phase_e_ms`, `mixed.read_slowdown`); wall-clock
/// ratios between the windows lose to parallel test threads.
pub fn concurrency_sanity(scale: &Scale) -> Result<(), String> {
    use std::time::Duration;
    use xarch::ArchiveHandle;

    const WINDOW: Duration = Duration::from_millis(150);
    const THREADS: usize = 8;

    let spec = omim_spec();
    let versions = OmimGen::new(0x5EED).sequence((scale.omim_records / 6).max(20), 10);
    let handle = ArchiveHandle::new(ArchiveBuilder::new(spec).build());
    for d in &versions {
        handle.add_version(d).map_err(|e| e.to_string())?;
    }
    let single = snapshot_read_window(&handle, 1, WINDOW, None);
    let idle = snapshot_read_window(&handle, THREADS, WINDOW, None);
    let busy = snapshot_read_window(&handle, THREADS, WINDOW, Some(&versions));
    if single == 0 || idle == 0 || busy == 0 {
        return Err(format!(
            "readers must make progress in every mode: single={single}, \
             idle-8={idle}, writer-active-8={busy}"
        ));
    }
    Ok(())
}

/// Starts an `xarch-server` over an OMIM-shaped archive seeded with 10
/// versions, returning the running server and the version documents
/// (reused as churn fodder by the concurrent-ingest mode).
fn start_service(scale: &Scale) -> (xarch_server::RunningServer, Vec<Document>) {
    use xarch_server::{Server, ServerConfig};
    // the same spec omim_spec() parses, as config `spec =` lines
    let mut config = String::from("listen = 127.0.0.1:0\nworkers = 8\nindexed = true\n");
    for line in [
        "(/, (ROOT, {}))",
        "(/ROOT, (Record, {Num}))",
        "(/ROOT/Record, (Title, {}))",
        "(/ROOT/Record, (AlternativeTitle, {\\e}))",
        "(/ROOT/Record, (Text, {}))",
        "(/ROOT/Record, (Contributors, {Name, CNtype, Date/Month, Date/Day, Date/Year}))",
        "(/ROOT/Record/Contributors, (Date, {}))",
        "(/ROOT/Record, (Creation_Date, {Name, Date/Month, Date/Day, Date/Year}))",
        "(/ROOT/Record/Creation_Date, (Date, {}))",
    ] {
        config.push_str(&format!("spec = {line}\n"));
    }
    let cfg = ServerConfig::from_text(&config).expect("bench server config");
    let server = Server::start(cfg).expect("bench server starts");
    let docs = OmimGen::new(0x5EED).sequence(scale.omim_records / 3, 10);
    server.handle().add_versions(&docs).expect("seed versions");
    (server, docs)
}

/// One measurement window against a running server: `conns` client
/// threads stream `retrieve` requests over their own sockets; when
/// `churn` is set a curator thread keeps landing merges through the
/// served handle the whole time. Returns requests completed.
fn service_window(
    server: &xarch_server::RunningServer,
    conns: usize,
    churn: bool,
    docs: &[Document],
    window: std::time::Duration,
) -> u64 {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use xarch_proto::{Client, Lease};

    let addr = server.addr();
    let latest = server.handle().latest();
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    std::thread::scope(|s| {
        if churn {
            let writer = server.handle().clone();
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    writer
                        .add_version(&docs[i % docs.len()])
                        .expect("churn merge");
                    i += 1;
                }
            });
        }
        for t in 0..conns {
            let stop = &stop;
            let total = &total;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("bench client connects");
                let mut v = 1 + (t as u32 % latest);
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let doc = client
                        .retrieve(Lease::FRESH, v)
                        .expect("retrieve over wire");
                    assert!(doc.is_some(), "seeded version {v} must be archived");
                    v = v % latest + 1;
                    n += 1;
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed)
}

/// Service: network query throughput as client connections scale 1→8,
/// idle vs with a curator ingesting concurrently — the serving story's
/// headline property. Every request costs a frame round-trip and a
/// fresh snapshot pin, and the concurrent-ingest rows show what a
/// single writer landing merges does to read latency (reads never
/// block: the handle is single-writer / multi-reader).
pub fn fig_service(scale: &Scale) {
    const WINDOW: std::time::Duration = std::time::Duration::from_millis(120);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "## Service: network queries/sec vs client connections, idle vs \
         concurrent ingest (OMIM-like, 10 versions, {cores} hardware threads)"
    );
    println!("mode,connections,requests,requests_per_sec,speedup_vs_1");
    let (server, docs) = start_service(scale);
    for (mode, churn) in [("idle", false), ("concurrent-ingest", true)] {
        let mut baseline = 0.0;
        for conns in [1usize, 2, 4, 8] {
            let requests = service_window(&server, conns, churn, &docs, WINDOW);
            let per_sec = requests as f64 / WINDOW.as_secs_f64();
            if conns == 1 {
                baseline = per_sec;
            }
            println!(
                "{mode},{conns},{requests},{per_sec:.0},{:.2}",
                per_sec / baseline.max(1.0)
            );
        }
    }
    println!();
}

/// The structural service gate: with 4 client connections the server
/// answers queries both idle and while a curator lands merges through the
/// served handle — a writer may tax readers, never starve them. By how
/// much is `xarch-bench`'s to measure (`mixed.read_slowdown`).
pub fn service_sanity(scale: &Scale) -> Result<(), String> {
    const WINDOW: std::time::Duration = std::time::Duration::from_millis(200);
    const CONNS: usize = 4;
    let (server, docs) = start_service(scale);
    let idle = service_window(&server, CONNS, false, &docs, WINDOW);
    let busy = service_window(&server, CONNS, true, &docs, WINDOW);
    if idle == 0 || busy == 0 {
        return Err(format!(
            "service must answer queries in both modes: idle={idle}, concurrent-ingest={busy}"
        ));
    }
    Ok(())
}

/// Runs one experiment by id ("7", "11a", ..., "claims", "extmem",
/// "index", "queries", "ablation", "durability", "concurrency",
/// "ingest", "service") or "all".
pub fn run(fig: &str, scale: &Scale) -> bool {
    match fig {
        "7" => fig7(scale),
        "11a" => fig11a(scale),
        "11b" => fig11b(scale),
        "12a" => fig12a(scale),
        "12b" => fig12b(scale),
        "13" => fig13(scale),
        "14" => fig14(scale),
        "c1" => fig_c1(scale),
        "c2" => fig_c2(scale),
        "claims" => claims(scale),
        "extmem" => fig_extmem(scale),
        "index" => fig_index(scale),
        "queries" => fig_queries(scale),
        "ablation" => fig_ablation(scale),
        "durability" => fig_durability(scale),
        "concurrency" => fig_concurrency(scale),
        "ingest" => fig_ingest(scale),
        "service" => fig_service(scale),
        "all" => {
            for f in [
                "7",
                "11a",
                "11b",
                "12a",
                "12b",
                "13",
                "14",
                "c1",
                "c2",
                "claims",
                "extmem",
                "index",
                "queries",
                "ablation",
                "durability",
                "concurrency",
                "ingest",
                "service",
            ] {
                run(f, scale);
            }
        }
        _ => return false,
    }
    true
}

/// Verifies that one table-driven property of each headline figure holds —
/// used by integration tests so figure regressions fail CI, not just eyes.
pub fn sanity(scale: &Scale) -> Result<(), String> {
    // Fig 11: cumulative diffs overtake incremental diffs.
    let rows = size_series(
        &omim_versions(scale),
        &omim_spec(),
        SeriesOptions {
            compress_every: scale.omim_versions,
            with_cumulative: true,
            with_concat: false,
        },
    );
    let last = rows.last().ok_or("no rows")?;
    if last.cumu_bytes <= last.inc_bytes {
        return Err("cumulative diffs should exceed incremental diffs".into());
    }
    // Fig 12: xmill(archive) beats gzip(inc diffs).
    let (Some(xa), Some(gi)) = (last.xmill_archive, last.gzip_inc) else {
        return Err("compression not sampled".into());
    };
    if xa >= gi {
        return Err(format!("xmill(archive)={xa} should beat gzip(inc)={gi}"));
    }
    Ok(())
}
