//! Self-check: the live workspace passes the project policy.
//!
//! This is the same gate CI runs via `cargo run -p xarch_analysis --
//! check`, embedded as a test so `cargo test` alone catches a violation
//! introduced anywhere in the workspace.

use std::path::Path;

use xarch_analysis::{analyze_workspace, render_report, Config, Rule};

fn workspace_root() -> &'static Path {
    // crates/analysis/../.. = the workspace root
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn live_workspace_passes_project_policy() {
    let analysis = analyze_workspace(workspace_root(), &Config::project_policy()).unwrap();
    assert!(analysis.files_scanned > 50, "walk found too few files");
    let violations: Vec<String> = analysis.violations().map(ToString::to_string).collect();
    assert!(
        violations.is_empty(),
        "workspace invariant violations:\n{}",
        violations.join("\n")
    );
    // the deliberate, documented exemptions stay visible in the ledger:
    // four of them recursions of the event-stream and journal codecs, each
    // held to the one nesting bound
    assert_eq!(analysis.suppressed_count(), 5);
    assert!(analysis.suppressions.iter().all(|s| s.used));
    let recursions = analysis
        .suppressions
        .iter()
        .filter(|s| s.rules == [Rule::Recursion]);
    assert!(recursions
        .map(|s| &s.reason)
        .all(|r| r.starts_with("bounded by MAX_")));
}

#[test]
fn report_renders_ledger_and_inventory_for_live_workspace() {
    let analysis = analyze_workspace(workspace_root(), &Config::project_policy()).unwrap();
    let report = render_report(&analysis);
    assert!(report.contains("suppression ledger:"), "{report}");
    let (_, inventory) = report
        .split_once("unsafe inventory:")
        .unwrap_or_else(|| panic!("no unsafe inventory in:\n{report}"));
    // unsafe code lives in two files: the cold reader's mmap wrapper, and
    // the checksum's call into its CPU-feature kernel; every block in
    // them carries a SAFETY comment
    for file in ["crates/storage/src/mmap.rs", "crates/storage/src/crc.rs"] {
        assert!(inventory.contains(file), "{file} missing from:\n{report}");
    }
    assert!(!report.contains("UNDOCUMENTED"), "{report}");
}
