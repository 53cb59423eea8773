//! `docs/RESULTS.md` is the paper's evaluation as exact integers. Each test
//! renders one section with `xarch_bench::figures`, compares it byte for
//! byte with the section of the committed file under the same heading, and
//! asserts the paper's claims on the rows it rendered. On a mismatch the
//! failure prints the section as rendered now: paste it over the committed
//! one and review the diff.

use xarch_bench::{figures, SizeRow};

/// Compares `fresh`, a rendered section whose first line is its heading,
/// with the committed section under the same heading.
fn assert_committed(fresh: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/RESULTS.md");
    let doc = std::fs::read_to_string(path).expect("read docs/RESULTS.md");
    let heading = fresh.lines().next().expect("a heading line");
    let committed = doc.find(&format!("\n{heading}\n")).map(|at| {
        let section = &doc[at + 1..];
        section
            .find("\n\n## ")
            .map_or(section, |end| &section[..end + 1])
    });
    if committed != Some(fresh) {
        panic!(
            "docs/RESULTS.md: `{heading}` is not the section rendered now, which reads:\n\n{fresh}"
        );
    }
}

/// Every version changes something: the version's text or the diffs.
fn assert_moves(label: &str, rows: &[SizeRow]) {
    for w in rows.windows(2) {
        assert!(
            w[1].version_bytes != w[0].version_bytes || w[1].inc_bytes != w[0].inc_bytes,
            "{label}: version {} changed nothing",
            w[1].version
        );
    }
}

#[test]
fn figure_7() {
    assert_committed(&figures::fig7());
}

#[test]
fn omim_figures_11a_12a_and_the_claims() {
    let (md, rows) = figures::omim();
    assert_committed(&md);
    let last = rows.last().expect("rows");
    let c = last.compressed.expect("the last version is sampled");
    // archive ≤ 1.12 × the last version
    assert!(last.archive_bytes * 100 <= last.version_bytes * 112);
    // xmill(archive) ≤ 0.40 × the last version
    assert!(c.xmill_archive * 100 <= last.version_bytes * 40);
    // archive ≤ 1.01 × (V1 + incremental diffs)
    assert!(last.archive_bytes * 100 <= last.inc_bytes * 101);
    // Fig 11a: cumulative diffs overtake incremental ones
    assert!(last.cumu_bytes > last.inc_bytes);
    // Fig 12a: xmill(archive) beats gzip(V1 + incremental diffs)
    assert!(c.xmill_archive < c.gzip_inc);
}

#[test]
fn swissprot_figures_11b_12b() {
    assert_committed(&figures::swissprot());
}

#[test]
fn xmark_random_change_figure_13_and_appendix_c1() {
    let (md, series) = figures::xmark_random_change();
    assert_committed(&md);
    for (label, rows) in &series {
        assert_moves(label, rows);
    }
}

#[test]
fn xmark_key_mutation_figure_14_and_appendix_c2() {
    let (md, series) = figures::xmark_key_mutation();
    assert_committed(&md);
    for (label, rows) in &series {
        assert_moves(label, rows);
        // the worst case: each mutated item is archived twice, while a
        // diff records a one-line change
        let last = rows.last().expect("rows");
        assert!(
            last.archive_bytes > last.inc_bytes,
            "{label}: archive {} does not exceed V1 + inc diffs {}",
            last.archive_bytes,
            last.inc_bytes
        );
    }
}

#[test]
fn ablation() {
    assert_committed(&figures::ablation());
}

#[test]
fn section_6_page_io() {
    assert_committed(&figures::extmem());
}

#[test]
fn section_7_probes_and_comparisons() {
    assert_committed(&figures::index());
}

#[test]
fn section_7_as_of_probes_as_the_archive_grows() {
    let (md, rows) = figures::queries();
    assert_committed(&md);
    let (small, large) = (rows[0], rows[rows.len() - 1]);
    // probe growth < half the version growth, in integers
    assert!(
        2 * large.probes * small.versions < large.versions * small.probes,
        "indexed probes grew {} → {} over {} → {} versions: not sublinear",
        small.probes,
        large.probes,
        small.versions,
        large.versions
    );
    // scan growth > probe growth
    assert!(
        large.scan_nodes * small.probes > large.probes * small.scan_nodes,
        "the scan grew {} → {}, no faster than the probes",
        small.scan_nodes,
        large.scan_nodes
    );
}

#[test]
fn merge_work_per_release() {
    assert_committed(&figures::merge_tally());
}
