//! Golden-fixture suite: every rule demonstrably fires.
//!
//! Each `tests/fixtures/*_violating.rs` file marks its expected
//! diagnostics with `//~ <rule-name>` trailing comments; the analyzer must
//! produce exactly those (line, rule) findings and no others. The paired
//! `*_clean.rs` file exercises the rule's known non-triggers (checked
//! conversions, scoped guards, test regions, …) and must come back empty.
//! Fixtures are analyzer *input*, not compile targets — `tests/fixtures/`
//! is not a cargo test directory and is excluded from workspace scans.

use std::fs;
use std::path::Path;

use xarch_analysis::{analyze_sources, Config, Rule, SourceFile};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `(line, rule)` expectations a fixture declares via `//~ <rule>`.
fn markers(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(at) = line.find("//~ ") {
            let line_no = u32::try_from(i).unwrap() + 1;
            out.push((line_no, line[at + 4..].trim().to_string()));
        }
    }
    out.sort();
    out
}

/// The `(line, rule)` unsuppressed findings for one fixture under a
/// single-rule config.
fn findings(rule: Rule, src: &str) -> Vec<(u32, String)> {
    let files = [SourceFile {
        path: "fixture.rs".into(),
        text: src.into(),
    }];
    let analysis = analyze_sources(&files, &Config::single(rule));
    let mut out: Vec<(u32, String)> = analysis
        .violations()
        .map(|d| (d.line, d.rule.name().to_string()))
        .collect();
    out.sort();
    out
}

fn assert_fires(rule: Rule, fixture_name: &str) {
    let src = fixture(fixture_name);
    let expected = markers(&src);
    assert!(
        !expected.is_empty(),
        "{fixture_name} declares no //~ markers"
    );
    assert_eq!(findings(rule, &src), expected, "in {fixture_name}");
}

fn assert_clean(rule: Rule, fixture_name: &str) {
    let src = fixture(fixture_name);
    let got = findings(rule, &src);
    assert!(
        got.is_empty(),
        "{fixture_name} should be clean, got {got:?}"
    );
}

#[test]
fn panic_freedom_fires_at_marked_lines() {
    assert_fires(Rule::PanicFreedom, "panic_freedom_violating.rs");
}

#[test]
fn panic_freedom_clean_fixture_passes() {
    assert_clean(Rule::PanicFreedom, "panic_freedom_clean.rs");
}

#[test]
fn lock_discipline_fires_at_marked_lines() {
    assert_fires(Rule::LockDiscipline, "lock_discipline_violating.rs");
}

#[test]
fn lock_discipline_clean_fixture_passes() {
    assert_clean(Rule::LockDiscipline, "lock_discipline_clean.rs");
}

#[test]
fn cast_safety_fires_at_marked_lines() {
    assert_fires(Rule::CastSafety, "cast_safety_violating.rs");
}

#[test]
fn cast_safety_clean_fixture_passes() {
    assert_clean(Rule::CastSafety, "cast_safety_clean.rs");
}

#[test]
fn unsafe_audit_fires_at_marked_lines() {
    assert_fires(Rule::UnsafeAudit, "unsafe_audit_violating.rs");
}

#[test]
fn unsafe_audit_clean_fixture_passes() {
    assert_clean(Rule::UnsafeAudit, "unsafe_audit_clean.rs");
}

#[test]
fn obs_discipline_fires_at_marked_lines() {
    assert_fires(Rule::ObsDiscipline, "obs_discipline_violating.rs");
}

#[test]
fn obs_discipline_clean_fixture_passes() {
    assert_clean(Rule::ObsDiscipline, "obs_discipline_clean.rs");
}

#[test]
fn recursion_fires_at_marked_lines() {
    assert_fires(Rule::Recursion, "recursion_violating.rs");
}

#[test]
fn recursion_clean_fixture_passes() {
    assert_clean(Rule::Recursion, "recursion_clean.rs");
}

#[test]
fn suppression_misuse_fires_at_marked_lines() {
    // the meta-rule is always active; the carrier rule is irrelevant
    assert_fires(Rule::CastSafety, "suppression_violating.rs");
}

#[test]
fn used_suppressions_silence_findings_and_are_counted() {
    let src = fixture("suppression_clean.rs");
    let files = [SourceFile {
        path: "fixture.rs".into(),
        text: src,
    }];
    let analysis = analyze_sources(&files, &Config::single(Rule::CastSafety));
    let got: Vec<String> = analysis.violations().map(ToString::to_string).collect();
    assert!(got.is_empty(), "{got:?}");
    assert_eq!(analysis.suppressed_count(), 2);
    assert_eq!(analysis.suppressions.len(), 2);
    assert!(analysis.suppressions.iter().all(|s| s.used));
    assert!(analysis
        .suppressions
        .iter()
        .any(|s| s.reason.contains("payload cap")));
}

#[test]
fn diagnostics_render_rustc_style_positions() {
    let src = "pub fn f(x: u64) -> u32 {\n    x as u32\n}\n";
    let files = [SourceFile {
        path: "src/demo.rs".into(),
        text: src.into(),
    }];
    let analysis = analyze_sources(&files, &Config::single(Rule::CastSafety));
    let rendered: Vec<String> = analysis.violations().map(ToString::to_string).collect();
    assert_eq!(
        rendered,
        [
            "src/demo.rs:2:7: error[cast-safety]: truncating `as u32` cast on offset/length \
          arithmetic — use `try_into()`/`u32::try_from` and handle the failure"
        ]
    );
}
