//! The paper's evaluation as `docs/RESULTS.md`: one function per section,
//! each returning the section's markdown, heading line included.
//!
//! Every input is a `const` beside the section that uses it, and every
//! generator is seeded, so every number is an exact integer; ratios are
//! printed from them at fixed precision. `tests/results.rs` renders each
//! section, compares it byte for byte with the committed file, and asserts
//! the paper's claims on the same rows. Wall time is `xarch-bench`'s to
//! measure (`crates/bench/src/bin/xarch-bench/README.md`), not this
//! module's.

use std::fmt::Write as _;

use xarch::ArchiveBuilder;
use xarch_core::{kernel, Archive, ChunkedArchive, KeyQuery, MergeTally};
use xarch_datagen::omim::{omim_spec, OmimGen};
use xarch_datagen::swissprot::{swissprot_spec, SwissProtGen};
use xarch_datagen::xmark::{xmark_spec, XmarkGen};
use xarch_extmem::{ExtArchive, IoConfig};
use xarch_index::Indexes;
use xarch_xml::writer::to_pretty_string;
use xarch_xml::Document;

use crate::series::{size_series, SizeRow};

/// A section under construction: a heading, then blocks separated by blank
/// lines; the whole ends in one newline.
struct Md(String);

impl Md {
    fn new(heading: &str) -> Self {
        Md(format!("## {heading}\n"))
    }

    fn para(&mut self, text: &str) {
        let _ = writeln!(self.0, "\n{text}");
    }

    fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        self.0.push('\n');
        self.line(header);
        self.line(&vec!["---"; header.len()]);
        for r in rows {
            self.line(r);
        }
    }

    fn line<S: AsRef<str>>(&mut self, cells: &[S]) {
        self.0.push('|');
        for c in cells {
            let _ = write!(self.0, " {} |", c.as_ref());
        }
        self.0.push('\n');
    }
}

/// One table row from any displayable cells.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// `a / b` at three decimals, as `1.034×`.
fn times(a: usize, b: usize) -> String {
    format!("{:.3}×", a as f64 / b as f64)
}

/// The `Num` key of the first record in an OMIM version.
fn first_num(doc: &Document) -> String {
    let rec = doc
        .child_elements(doc.root(), "Record")
        .next()
        .expect("record");
    doc.text_content(doc.first_child_element(rec, "Num").expect("num"))
}

/// The steps to OMIM record `num`: `ROOT/Record[Num=num]`.
fn record(num: &str) -> [KeyQuery; 2] {
    [
        KeyQuery::new("ROOT"),
        KeyQuery::new("Record").with_text("Num", num),
    ]
}

/// §5's OMIM series: Fig 7's row, Figs 11a and 12a, and the claims. Over
/// 20 versions `xmill(archive)` beats `gzip(V1 + inc)` only from about 120
/// records on (110 tie), so this is the smallest series Fig 12a's claim
/// holds on.
const OMIM_SEED: u64 = 0xA11CE;
const OMIM_RECORDS: usize = 120;
const OMIM_VERSIONS: usize = 20;
const OMIM_COMPRESS_EVERY: usize = 10;

/// §5's Swiss-Prot series: Fig 7's row, Figs 11b and 12b.
const SP_SEED: u64 = 0xB0B;
const SP_RECORDS: usize = 10;
const SP_VERSIONS: usize = 5;

/// §5.3's XMark series (Figs 13–14, App. C) all start from one site, which
/// is also Fig 7's row. At 46 items the four rates change 1, 2, 3 and 5
/// items per version: no series is constant and no two coincide.
const XMARK_SEED: u64 = 0xF00D;
const XMARK_ITEMS: usize = 46;
const XMARK_VERSIONS: usize = 5;
/// Compression is most of a series' cost; every 2nd version and the last
/// keep eight series within a few seconds of a debug test.
const XMARK_COMPRESS_EVERY: usize = 2;

fn omim_versions() -> Vec<Document> {
    OmimGen::new(OMIM_SEED).sequence(OMIM_RECORDS, OMIM_VERSIONS)
}

fn sp_versions() -> Vec<Document> {
    SwissProtGen::new(SP_SEED).sequence(SP_RECORDS, SP_VERSIONS)
}

/// Figure 7: size, node count N and height h of each dataset's largest
/// version.
pub fn fig7() -> String {
    let mut md = Md::new("Figure 7: dataset statistics");
    md.para(
        "The last version of the OMIM and Swiss-Prot series below, and the \
         XMark site every XMark series starts from.",
    );
    let docs = [
        ("OMIM-like", omim_versions().pop().expect("versions")),
        ("Swiss-Prot-like", sp_versions().pop().expect("versions")),
        (
            "XMark-like",
            XmarkGen::new(XMARK_SEED).generate(XMARK_ITEMS),
        ),
    ];
    let rows: Vec<_> = docs
        .iter()
        .map(|(name, doc)| {
            let s = doc.stats();
            row![name, to_pretty_string(doc, 0).len(), s.nodes(), s.height]
        })
        .collect();
    md.table(&["dataset", "size (bytes)", "nodes N", "height h"], &rows);
    md.0
}

/// One size series as a table: every version's sizes, and the compressed
/// columns where they were sampled.
fn size_table(md: &mut Md, rows: &[SizeRow]) {
    let rows: Vec<_> = rows
        .iter()
        .map(|r| {
            let mut cells = row![
                r.version,
                r.version_bytes,
                r.archive_bytes,
                r.inc_bytes,
                r.cumu_bytes
            ];
            cells.extend(match r.compressed {
                Some(c) => row![c.gzip_inc, c.gzip_cumu, c.xmill_archive, c.xmill_concat],
                None => vec![String::new(); 4],
            });
            cells
        })
        .collect();
    md.table(
        &[
            "v",
            "version",
            "archive",
            "V1 + inc diffs",
            "V1 + cumu diffs",
            "gzip(V1 + inc)",
            "gzip(V1 + cumu)",
            "xmill(archive)",
            "xmill(V1 … Vi)",
        ],
        &rows,
    );
}

/// Figures 11a and 12a and the headline claims (§1, §5), from one OMIM
/// series. Returns the rows the claims are asserted on.
pub fn omim() -> (String, Vec<SizeRow>) {
    let rows = size_series(&omim_versions(), &omim_spec(), OMIM_COMPRESS_EVERY);
    let mut md = Md::new("OMIM: Figures 11a and 12a, and the claims");
    md.para(&format!(
        "`OmimGen::new({OMIM_SEED:#X})`, {OMIM_RECORDS} records × \
         {OMIM_VERSIONS} versions at the paper's OMIM change ratios. Figure 11a \
         plots the archive against the diff repositories, Figure 12a against \
         the compressed columns, sampled every {OMIM_COMPRESS_EVERY}th \
         version. `gzip` is the LZSS block codec; `xmill` groups text by tag \
         path before compressing."
    ));
    size_table(&mut md, &rows);

    let last = rows.last().expect("rows");
    let c = last.compressed.expect("the last version is sampled");
    let overhead = (last.archive_bytes as f64 / last.inc_bytes as f64 - 1.0) * 100.0;
    md.para(&format!("The claims, at v = {}:", last.version));
    md.table(
        &["claim", "paper", "measured", "of", "over"],
        &[
            row![
                "archive / last version",
                "≤ 1.12× (a year of dailies)",
                times(last.archive_bytes, last.version_bytes),
                last.archive_bytes,
                last.version_bytes
            ],
            row![
                "xmill(archive) / last version",
                "~0.40×",
                times(c.xmill_archive, last.version_bytes),
                c.xmill_archive,
                last.version_bytes
            ],
            row![
                "archive overhead vs V1 + inc diffs",
                "≤ 1 %",
                format!("{overhead:+.2} %"),
                last.archive_bytes,
                last.inc_bytes
            ],
            row![
                "V1 + cumu diffs / V1 + inc diffs",
                "> 1×",
                times(last.cumu_bytes, last.inc_bytes),
                last.cumu_bytes,
                last.inc_bytes
            ],
            row![
                "xmill(archive) / gzip(V1 + inc)",
                "< 1×",
                times(c.xmill_archive, c.gzip_inc),
                c.xmill_archive,
                c.gzip_inc
            ],
        ],
    );
    (md.0, rows)
}

/// Figures 11b and 12b from one Swiss-Prot series.
pub fn swissprot() -> String {
    let rows = size_series(&sp_versions(), &swissprot_spec(), 1);
    let mut md = Md::new("Swiss-Prot: Figures 11b and 12b");
    md.para(&format!(
        "`SwissProtGen::new({SP_SEED:#X})`, {SP_RECORDS} records × \
         {SP_VERSIONS} versions at the paper's Swiss-Prot change ratios; OMIM's \
         columns, every version sampled."
    ));
    size_table(&mut md, &rows);
    md.0
}

/// One XMark series: the figure it plots and its rows.
type XmarkSeries = (&'static str, Vec<SizeRow>);

/// Figure 13 and Appendix C.1: XMark under random change (§5.3).
pub fn xmark_random_change() -> (String, Vec<XmarkSeries>) {
    xmark(
        "XMark random change: Figure 13 and Appendix C.1",
        "of the items deleted, as many inserted and as many rewritten per version",
        [
            ("Figure 13a", 1.66),
            ("Appendix C.1a", 3.33),
            ("Appendix C.1b", 6.66),
            ("Figure 13b", 10.0),
        ],
        XmarkGen::random_change_sequence,
    )
}

/// Figure 14 and Appendix C.2: XMark under key mutation (§5.3), the worst
/// case: the archive stores each mutated item twice, a diff one line.
pub fn xmark_key_mutation() -> (String, Vec<XmarkSeries>) {
    xmark(
        "XMark key mutation: Figure 14 and Appendix C.2",
        "of the item keys rewritten per version, contents untouched",
        [
            ("Figure 14a", 1.66),
            ("Appendix C.2a", 3.33),
            ("Appendix C.2b", 6.66),
            ("Figure 14b", 10.0),
        ],
        XmarkGen::key_mutation_sequence,
    )
}

fn xmark(
    heading: &str,
    what: &str,
    figures: [(&'static str, f64); 4],
    sequence: fn(&mut XmarkGen, usize, usize, f64) -> Vec<Document>,
) -> (String, Vec<XmarkSeries>) {
    let mut md = Md::new(heading);
    md.para(&format!(
        "`XmarkGen::new({XMARK_SEED:#X})`, {XMARK_ITEMS} items × \
         {XMARK_VERSIONS} versions; the compressed columns every \
         {XMARK_COMPRESS_EVERY}nd version and at the last."
    ));
    let mut out = Vec::new();
    for (label, pct) in figures {
        let mut g = XmarkGen::new(XMARK_SEED);
        let rows = size_series(
            &sequence(&mut g, XMARK_ITEMS, XMARK_VERSIONS, pct),
            &xmark_spec(),
            XMARK_COMPRESS_EVERY,
        );
        md.para(&format!("### {label}: {pct} % {what}"));
        size_table(&mut md, &rows);
        out.push((label, rows));
    }
    (md.0, out)
}

/// The compaction ablation's free-text dataset.
const ABLATION_SEED: u64 = 0xAB1A;
const ABLATION_DOCS: usize = 40;
const ABLATION_LINES: usize = 30;
const ABLATION_VERSIONS: usize = 12;
const ABLATION_EDITS: usize = 3;
/// The chunking ablation's XMark series: items, versions, % changed.
const ABLATION_XMARK: (usize, usize, f64) = (150, 10, 10.0);

/// Ablation: stamp alternatives vs weave compaction beneath frontiers, and
/// chunked vs whole archiving.
///
/// Weave only differs from alternatives when frontier content is a *list*
/// whose versions overlap partially (Fig 10) — on single-text frontiers the
/// two schemes emit byte-identical XML. The compaction comparison therefore
/// uses a free-text dataset: records whose `Text` field holds a sequence of
/// `<line>` elements, a few of which change per version (§2's `<line>`
/// example of data without keys beneath a point).
pub fn ablation() -> String {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xarch_core::Compaction;

    let spec =
        xarch_keys::KeySpec::parse("(/, (db, {}))\n(/db, (doc, {id}))\n(/db/doc, (Text, {}))")
            .expect("spec");
    let mut rng = StdRng::seed_from_u64(ABLATION_SEED);
    let mut lines: Vec<Vec<String>> = (0..ABLATION_DOCS)
        .map(|d| {
            (0..ABLATION_LINES)
                .map(|l| format!("doc{d} line{l} original text"))
                .collect()
        })
        .collect();
    let mut versions: Vec<Document> = Vec::new();
    for v in 0..ABLATION_VERSIONS {
        if v > 0 {
            // change a few lines per document, keep the rest — weave territory
            for (d, ls) in lines.iter_mut().enumerate() {
                for _ in 0..ABLATION_EDITS {
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
    let mut md = Md::new("Ablation: frontier compaction and chunking");
    md.para(&format!(
        "Frontier compaction (§4.2) on free text: {ABLATION_DOCS} documents of \
         {ABLATION_LINES} `<line>`s, {ABLATION_EDITS} lines of each edited per \
         version, {ABLATION_VERSIONS} versions (`StdRng` seed `{ABLATION_SEED:#X}`)."
    ));
    let mut rows = Vec::new();
    for (name, mode) in [
        ("alternatives", Compaction::Alternatives),
        ("weave", Compaction::Weave),
    ] {
        let mut a = ArchiveBuilder::new(spec.clone()).compaction(mode).build();
        for d in &versions {
            a.add_version(d).expect("merge");
        }
        rows.push(row![name, a.stats().expect("stats").size_bytes]);
    }
    md.table(&["variant", "archive bytes"], &rows);

    let (items, n, pct) = ABLATION_XMARK;
    let xversions = XmarkGen::new(ABLATION_SEED).random_change_sequence(items, n, pct);
    let xspec = xmark_spec();
    let mut whole = ArchiveBuilder::new(xspec.clone()).build();
    let mut chunked = ChunkedArchive::new(xspec, 4);
    for d in &xversions {
        whole.add_version(d).expect("merge");
        chunked.add_version(d).expect("merge");
    }
    md.para(&format!(
        "Chunked vs whole archiving (§5): `XmarkGen::new({ABLATION_SEED:#X})`, \
         {items} items × {n} versions, {pct} % random change."
    ));
    md.table(
        &["variant", "archive bytes"],
        &[
            row!["whole", whole.stats().expect("stats").size_bytes],
            row!["chunked(4)", chunked.size_bytes()],
        ],
    );
    md.0
}

const EXTMEM_SEED: u64 = 0xE47;
const EXTMEM_RECORDS: usize = 150;
const EXTMEM_VERSIONS: usize = 5;
/// Memory budget M and page size B, in bytes.
const EXTMEM_CONFIGS: [(usize, usize); 5] = [
    (2 << 10, 256),
    (8 << 10, 256),
    (32 << 10, 256),
    (8 << 10, 1024),
    (8 << 10, 4096),
];

/// §6: the external archiver's page reads and writes as the memory budget
/// M and the page size B vary.
pub fn extmem() -> String {
    let versions = OmimGen::new(EXTMEM_SEED).sequence(EXTMEM_RECORDS, EXTMEM_VERSIONS);
    let rows: Vec<_> = EXTMEM_CONFIGS
        .iter()
        .map(|&(m, b)| {
            let config = IoConfig {
                mem_bytes: m,
                page_bytes: b,
            };
            let mut ext = ExtArchive::new(omim_spec(), config);
            for d in &versions {
                ext.add_version(d).expect("merge");
            }
            let s = ext.io_stats();
            row![m, b, s.page_reads, s.page_writes, s.total()]
        })
        .collect();
    let mut md = Md::new("§6: external archiver page I/O");
    md.para(&format!(
        "Pages read and written to archive `OmimGen::new({EXTMEM_SEED:#X})`, \
         {EXTMEM_RECORDS} records × {EXTMEM_VERSIONS} versions."
    ));
    md.table(
        &[
            "M (bytes)",
            "B (bytes)",
            "page reads",
            "page writes",
            "total I/O",
        ],
        &rows,
    );
    md.0
}

/// §7's accretive archive, in which early versions are a sliver of the
/// last: records inserted per version, as a fraction of the records.
const INDEX_SEED: u64 = 0x1DE;
const INDEX_RECORDS: usize = 30;
const INDEX_VERSIONS: u32 = 50;
const ACCRETIVE_INS_RATIO: f64 = 0.08;

/// §7: retrieval probes with timestamp trees vs a full scan, and history
/// lookups via the sorted index vs the naive walk.
///
/// Timestamp trees pay off when a version occupies a small fraction of the
/// archive (`α ≪ k`, §7.1), so this experiment uses a strongly accretive
/// database.
pub fn index() -> String {
    let mut g = OmimGen::new(INDEX_SEED);
    g.ins_ratio = ACCRETIVE_INS_RATIO;
    let versions = g.sequence(INDEX_RECORDS, INDEX_VERSIONS as usize);
    let mut archive = Archive::new(omim_spec());
    for d in &versions {
        archive.add_version(d).expect("merge");
    }
    let idx = Indexes::build(&archive);
    let scan = archive.scan_cost();
    let n = INDEX_VERSIONS;
    let retrievals: Vec<_> = [1, n / 4, n / 2, n]
        .into_iter()
        .map(|v| {
            idx.reset_probes();
            kernel::retrieve(&archive, &idx, v).expect("retrieve");
            row![v, idx.timestamp_index().probes(), scan]
        })
        .collect();

    let hidx = idx.history_index();
    let num = first_num(&versions[0]);
    let lookups: Vec<_> = [(num.as_str(), ""), ("0", " (absent)")]
        .into_iter()
        .map(|(num, note)| {
            hidx.reset();
            let found = kernel::history(&archive, &idx, &record(num)).is_some();
            row![
                format!("`Record[Num={num}]`{note}"),
                hidx.comparisons(),
                scan,
                found
            ]
        })
        .collect();

    let mut md = Md::new("§7: timestamp trees and the history index");
    md.para(&format!(
        "`OmimGen::new({INDEX_SEED:#X})`, {INDEX_RECORDS} records × \
         {INDEX_VERSIONS} versions, {} % of the records inserted per version.",
        ACCRETIVE_INS_RATIO * 100.0
    ));
    md.para("### §7.1: retrieving version v — timestamp-tree probes vs a full scan");
    md.para(
        "A node keeps a tree only where one of its children has a timestamp of \
         its own; the children of any other node inherit, so they are read off \
         its child list with no probe.",
    );
    md.table(&["version", "tree probes", "scan nodes"], &retrievals);
    md.para("### §7.2: a key's history — sorted-index comparisons vs a naive scan");
    md.table(&["query", "comparisons", "naive nodes", "found"], &lookups);
    md.0
}

const QUERIES_SEED: u64 = 0x9E5;
const QUERIES_RECORDS: usize = 30;
/// Version counts at which the one growing archive is queried.
const QUERIES_AT: [usize; 3] = [10, 20, 50];

/// One reading of the `queries` section.
#[derive(Debug, Clone, Copy)]
pub struct QueryRow {
    pub versions: usize,
    /// Nodes a full retrieve-then-filter scan visits.
    pub scan_nodes: usize,
    /// History-index comparisons plus timestamp-tree probes.
    pub probes: usize,
}

/// §7's sublinearity: `as_of(q, 1)` for a record archived in version 1,
/// read at several sizes of one accretive indexed archive. The record is a
/// shrinking fraction of the archive, so the indexed probes stay nearly
/// flat while the scan grows with the archive.
pub fn queries() -> (String, Vec<QueryRow>) {
    let mut g = OmimGen::new(QUERIES_SEED);
    g.ins_ratio = ACCRETIVE_INS_RATIO;
    let versions = g.sequence(QUERIES_RECORDS, QUERIES_AT[QUERIES_AT.len() - 1]);
    let num = first_num(&versions[0]);
    let q = record(&num);
    let mut archive = Archive::new(omim_spec());
    let mut idx = Indexes::build(&archive);
    let mut out = Vec::new();
    for (i, d) in versions.iter().enumerate() {
        archive.add_version(d).expect("merge");
        idx.refresh(&archive);
        if QUERIES_AT.contains(&(i + 1)) {
            idx.reset_probes();
            kernel::as_of(&archive, &idx, &q, 1).expect("archived");
            out.push(QueryRow {
                versions: i + 1,
                scan_nodes: archive.scan_cost(),
                probes: idx.history_index().comparisons() + idx.timestamp_index().probes(),
            });
        }
    }
    let first = out[0];
    let rows: Vec<_> = out
        .iter()
        .map(|r| {
            row![
                r.versions,
                r.scan_nodes,
                r.probes,
                times(r.scan_nodes, first.scan_nodes),
                times(r.probes, first.probes)
            ]
        })
        .collect();
    let mut md = Md::new("§7: `as_of` probes as the archive grows");
    md.para(&format!(
        "`as_of(Record[Num={num}], 1)` on one indexed archive of `OmimGen::new({QUERIES_SEED:#X})`, \
         {QUERIES_RECORDS} records at first and {} % inserted per version, read \
         as it grows. Growth is against the first row.",
        ACCRETIVE_INS_RATIO * 100.0
    ));
    md.table(
        &[
            "versions",
            "scan nodes",
            "indexed probes",
            "scan growth",
            "probe growth",
        ],
        &rows,
    );
    (md.0, out)
}

const TALLY_SEED: u64 = 0x7A11;
const TALLY_RECORDS: usize = 50;
/// The last version of each window the tally is reported over.
const TALLY_WINDOWS: [u32; 3] = [16, 64, 256];

/// Nested Merge's work per release over one long accretive OMIM series:
/// the [`MergeTally`] counts, summed over each window of releases.
pub fn merge_tally() -> String {
    let mut g = OmimGen::new(TALLY_SEED);
    let mut doc = g.initial(TALLY_RECORDS);
    let mut archive = Archive::new(omim_spec());
    let mut rows = Vec::new();
    let (mut since, mut from) = (MergeTally::default(), 1);
    for v in 1..=TALLY_WINDOWS[TALLY_WINDOWS.len() - 1] {
        if v > 1 {
            doc = g.evolve(&doc);
        }
        archive.add_version(&doc).expect("merge");
        if TALLY_WINDOWS.contains(&v) {
            let now = archive.merge_tally();
            let compared = now.nodes_compared - since.nodes_compared;
            rows.push(row![
                format!("{from}–{v}"),
                compared,
                now.subtrees_skipped - since.subtrees_skipped,
                now.keys_extracted - since.keys_extracted,
                format!("{:.1}", compared as f64 / f64::from(v - from + 1)),
            ]);
            (since, from) = (now, v + 1);
        }
    }
    let mut md = Md::new("Merge work per release");
    md.para(&format!(
        "`OmimGen::new({TALLY_SEED:#X})`, {TALLY_RECORDS} records, evolved \
         at the paper's OMIM ratios into {} versions. Per window of releases: \
         the node pairs Nested Merge's equality walks compared, the matched \
         subtrees it skipped, and the keys annotation extracted.",
        TALLY_WINDOWS[TALLY_WINDOWS.len() - 1]
    ));
    md.table(
        &[
            "releases",
            "nodes compared",
            "subtrees skipped",
            "keys extracted",
            "nodes compared per release",
        ],
        &rows,
    );
    md.0
}
