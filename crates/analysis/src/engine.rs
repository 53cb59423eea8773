//! The analysis driver: walks sources, runs the rules in their configured
//! scopes, detects `#[cfg(test)]` regions, resolves `xarch-allow`
//! suppressions.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::{Config, Rule};
use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::rules::{self, FileCtx, RawDiag};

/// One source file handed to [`analyze_sources`]: workspace-relative
/// `/`-separated path plus contents.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

/// A finding, positioned rustc-style.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: Rule,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// `Some(reason)` when an `xarch-allow` comment suppressed it.
    pub suppressed: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// An `xarch-allow` comment found in a file, with its usage outcome.
#[derive(Debug, Clone)]
pub struct SuppressionRecord {
    pub file: String,
    pub line: u32,
    pub rules: Vec<Rule>,
    pub reason: String,
    pub used: bool,
}

/// An `unsafe` site in the workspace inventory.
#[derive(Debug, Clone)]
pub struct UnsafeRecord {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub documented: bool,
}

/// The result of one analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by (file, line, col, rule); includes
    /// suppressed ones (with `suppressed = Some(reason)`).
    pub diagnostics: Vec<Diagnostic>,
    pub suppressions: Vec<SuppressionRecord>,
    pub unsafe_sites: Vec<UnsafeRecord>,
    pub files_scanned: usize,
}

impl Analysis {
    /// The findings that gate CI: everything not suppressed.
    pub fn violations(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_none())
    }

    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }

    pub fn suppressed_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.suppressed.is_some())
            .count()
    }
}

/// The crate a workspace-relative path belongs to, as a display key:
/// `crates/<name>` for member crates, `xarch (root)` for `src/`,
/// `examples/`, `tests/`, `benches/`.
pub fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return format!("crates/{name}");
        }
    }
    "xarch (root)".to_string()
}

/// Marks every token inside a `#[test]` / `#[cfg(test)]` item (including
/// the attribute itself and the item's full body).
fn test_flags(toks: &[Tok]) -> Vec<bool> {
    let mut flags = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // collect the attribute's identifiers up to its closing `]`
        let mut j = i + 2;
        let mut depth = 1u32;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
            } else if toks[j].kind == TokKind::Ident {
                idents.push(toks[j].text.as_str());
            }
            j += 1;
        }
        let is_test_attr = idents.as_slice() == ["test"]
            || (idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not"));
        if !is_test_attr {
            i = j;
            continue;
        }
        // skip any further attributes on the same item
        let mut k = j;
        while toks.get(k).is_some_and(|t| t.is_punct('#'))
            && toks.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut d = 1u32;
            k += 2;
            while k < toks.len() && d > 0 {
                if toks[k].is_punct('[') {
                    d += 1;
                } else if toks[k].is_punct(']') {
                    d -= 1;
                }
                k += 1;
            }
        }
        // the item extends to its body's closing `}` (or a bare `;`)
        let mut end = k;
        while end < toks.len() && !toks[end].is_punct('{') && !toks[end].is_punct(';') {
            end += 1;
        }
        if end < toks.len() && toks[end].is_punct('{') {
            let mut d = 1u32;
            end += 1;
            while end < toks.len() && d > 0 {
                if toks[end].is_punct('{') {
                    d += 1;
                } else if toks[end].is_punct('}') {
                    d -= 1;
                }
                end += 1;
            }
        } else if end < toks.len() {
            end += 1; // include the `;`
        }
        for f in flags.iter_mut().take(end.min(toks.len())).skip(i) {
            *f = true;
        }
        i = end;
    }
    flags
}

/// A parsed `xarch-allow` comment, before resolution.
struct PendingSuppression {
    line: u32,
    rules: Vec<Rule>,
    reason: String,
    used: bool,
}

/// Parses `xarch-allow: <rule>[,<rule>…] -- <reason>` comments. Malformed
/// ones (missing reason separator, empty reason, unknown rule name) become
/// `suppression`-rule diagnostics immediately.
fn parse_suppressions(comments: &[Comment]) -> (Vec<PendingSuppression>, Vec<(Rule, RawDiag)>) {
    let mut pending = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        // Only a comment *starting* with the marker is a suppression
        // attempt; prose that merely mentions `xarch-allow` is not.
        let text = c.text.trim();
        if !text.starts_with("xarch-allow") {
            continue;
        }
        let malformed = |msg: String| {
            (
                Rule::Suppression,
                RawDiag {
                    line: c.line,
                    col: c.col,
                    message: msg,
                },
            )
        };
        let rest = &text["xarch-allow".len()..];
        let Some(rest) = rest.strip_prefix(':') else {
            diags.push(malformed(
                "malformed suppression: expected `xarch-allow: <rule> -- <reason>`".into(),
            ));
            continue;
        };
        let Some((rule_list, reason)) = rest.split_once("--") else {
            diags.push(malformed(
                "malformed suppression: missing ` -- <reason>` (every exemption must say why)"
                    .into(),
            ));
            continue;
        };
        let reason = reason.trim();
        if reason.is_empty() {
            diags.push(malformed(
                "malformed suppression: empty reason (every exemption must say why)".into(),
            ));
            continue;
        }
        let mut rules = Vec::new();
        let mut bad = false;
        for name in rule_list.split(',') {
            let name = name.trim();
            match Rule::parse(name) {
                Some(r) => rules.push(r),
                None => {
                    diags.push(malformed(format!(
                        "malformed suppression: unknown rule `{name}` (rules: {})",
                        Rule::CHECKABLE
                            .iter()
                            .map(|r| r.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )));
                    bad = true;
                }
            }
        }
        if bad || rules.is_empty() {
            continue;
        }
        if rules.contains(&Rule::Recursion) && !names_a_bound(reason) {
            diags.push(malformed(
                "malformed suppression: a recursion exemption must name what bounds the depth, \
                 as `-- bounded by <const>`"
                    .into(),
            ));
            continue;
        }
        pending.push(PendingSuppression {
            line: c.line,
            rules,
            reason: reason.to_string(),
            used: false,
        });
    }
    (pending, diags)
}

/// Does a suppression reason read `bounded by <const>`, the constant a
/// `SCREAMING_CASE` name (path-qualified or not), whatever follows it?
fn names_a_bound(reason: &str) -> bool {
    let Some(rest) = reason.strip_prefix("bounded by ") else {
        return false;
    };
    let mut words = rest.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'));
    let path = words.next().unwrap_or("").trim_end_matches(':');
    let name = path.rsplit("::").next().unwrap_or("");
    name.starts_with(|c: char| c.is_ascii_uppercase())
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Per-file intermediate state, before suppressions are resolved.
struct FileAnalysis {
    path: String,
    diags: Vec<(Rule, RawDiag)>,
    suppressions: Vec<PendingSuppression>,
}

/// Runs the full analysis over in-memory sources. Paths must be
/// workspace-relative and `/`-separated; files matching `config.skip`
/// prefixes are ignored.
pub fn analyze_sources(files: &[SourceFile], config: &Config) -> Analysis {
    let mut per_file = Vec::new();
    let mut unsafe_sites = Vec::new();
    let mut scanned = 0usize;

    for f in files {
        if config.skip.iter().any(|p| f.path.starts_with(p.as_str())) {
            continue;
        }
        scanned += 1;
        let lexed = lex(&f.text);
        let in_test = test_flags(&lexed.toks);
        let ctx = FileCtx {
            toks: &lexed.toks,
            in_test: &in_test,
            comments: &lexed.comments,
        };
        let (suppressions, mut diags) = parse_suppressions(&lexed.comments);
        for rule in Rule::CHECKABLE {
            let Some(scope) = config.scope(rule) else {
                continue;
            };
            if !scope.matches(&f.path) {
                continue;
            }
            match rule {
                Rule::PanicFreedom => {
                    diags.extend(rules::panic_freedom(&ctx).into_iter().map(|d| (rule, d)));
                }
                Rule::LockDiscipline => {
                    diags.extend(rules::lock_discipline(&ctx).into_iter().map(|d| (rule, d)));
                }
                Rule::CastSafety => {
                    diags.extend(rules::cast_safety(&ctx).into_iter().map(|d| (rule, d)));
                }
                Rule::UnsafeAudit => {
                    let (ds, sites) = rules::unsafe_audit(&ctx);
                    diags.extend(ds.into_iter().map(|d| (rule, d)));
                    unsafe_sites.extend(sites.into_iter().map(|s| UnsafeRecord {
                        file: f.path.clone(),
                        line: s.line,
                        col: s.col,
                        documented: s.documented,
                    }));
                }
                Rule::ObsDiscipline => {
                    diags.extend(rules::obs_discipline(&ctx).into_iter().map(|d| (rule, d)));
                }
                Rule::Recursion => {
                    diags.extend(rules::recursion(&ctx).into_iter().map(|d| (rule, d)));
                }
                Rule::Suppression => {}
            }
        }
        per_file.push(FileAnalysis {
            path: f.path.clone(),
            diags,
            suppressions,
        });
    }

    // Suppression resolution: an allow on line L covers findings on L (a
    // trailing comment) and on L+1 (a comment directly above the code).
    let mut diagnostics = Vec::new();
    let mut suppression_records = Vec::new();
    for fa in &mut per_file {
        for (rule, raw) in std::mem::take(&mut fa.diags) {
            let mut reason = None;
            if rule != Rule::Suppression {
                for s in fa.suppressions.iter_mut() {
                    if s.rules.contains(&rule) && (s.line == raw.line || s.line + 1 == raw.line) {
                        s.used = true;
                        reason = Some(s.reason.clone());
                        break;
                    }
                }
            }
            diagnostics.push(Diagnostic {
                rule,
                file: fa.path.clone(),
                line: raw.line,
                col: raw.col,
                message: raw.message,
                suppressed: reason,
            });
        }
        for s in &fa.suppressions {
            if !s.used {
                diagnostics.push(Diagnostic {
                    rule: Rule::Suppression,
                    file: fa.path.clone(),
                    line: s.line,
                    col: 1,
                    message: format!(
                        "unused `xarch-allow` suppression for `{}` — nothing on this or the \
                         next line triggers it; remove it",
                        s.rules
                            .iter()
                            .map(|r| r.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    suppressed: None,
                });
            }
            suppression_records.push(SuppressionRecord {
                file: fa.path.clone(),
                line: s.line,
                rules: s.rules.clone(),
                reason: s.reason.clone(),
                used: s.used,
            });
        }
    }

    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    unsafe_sites.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

    Analysis {
        diagnostics,
        suppressions: suppression_records,
        unsafe_sites,
        files_scanned: scanned,
    }
}

/// Collects every `.rs` file under `root` (workspace-relative paths,
/// sorted), honoring `config.skip` and skipping hidden directories.
pub fn workspace_files(root: &Path, config: &Config) -> io::Result<Vec<SourceFile>> {
    let mut rel_paths = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let rel = rel_of(root, &path);
            if entry.file_type()?.is_dir() {
                let rel_dir = format!("{rel}/");
                if name.starts_with('.')
                    || name == "target"
                    || config.skip.iter().any(|p| rel_dir.starts_with(p.as_str()))
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs")
                && !config.skip.iter().any(|p| rel.starts_with(p.as_str()))
            {
                rel_paths.push((rel, path));
            }
        }
    }
    rel_paths.sort();
    let mut out = Vec::with_capacity(rel_paths.len());
    for (rel, abs) in rel_paths {
        out.push(SourceFile {
            path: rel,
            text: fs::read_to_string(&abs)?,
        });
    }
    Ok(out)
}

fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs the analysis over every `.rs` file under `root`.
pub fn analyze_workspace(root: &Path, config: &Config) -> io::Result<Analysis> {
    let files = workspace_files(root, config)?;
    Ok(analyze_sources(&files, config))
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    for dir in start.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rule: Rule, path: &str, src: &str) -> Vec<Diagnostic> {
        let files = [SourceFile {
            path: path.into(),
            text: src.into(),
        }];
        analyze_sources(&files, &Config::single(rule)).diagnostics
    }

    #[test]
    fn test_regions_are_exempt_from_panic_freedom() {
        let src = r#"
fn decode(buf: &[u8]) -> u8 { buf[0] }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1u8];
        assert_eq!(v[0], 1);
        v.get(0).unwrap();
    }
}
"#;
        let diags = run(Rule::PanicFreedom, "a.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn f(b: &[u8]) -> u8 { b[0] }\n";
        let diags = run(Rule::PanicFreedom, "a.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn suppression_covers_same_and_next_line_and_is_counted() {
        let src = "// xarch-allow: cast-safety -- bounded by construction\n\
                   fn f(x: u64) -> u32 { x as u32 }\n\
                   fn g(x: u64) -> u32 { x as u32 } // xarch-allow: cast-safety -- same line\n";
        let files = [SourceFile {
            path: "a.rs".into(),
            text: src.into(),
        }];
        let a = analyze_sources(&files, &Config::single(Rule::CastSafety));
        assert_eq!(a.violation_count(), 0, "{:?}", a.diagnostics);
        assert_eq!(a.suppressed_count(), 2);
        assert!(a.suppressions.iter().all(|s| s.used));
    }

    #[test]
    fn unused_and_malformed_suppressions_are_violations() {
        let src = "// xarch-allow: cast-safety -- nothing here triggers it\n\
                   fn f() {}\n\
                   // xarch-allow: cast-safety\n\
                   // xarch-allow: no-such-rule -- reason\n";
        let files = [SourceFile {
            path: "a.rs".into(),
            text: src.into(),
        }];
        let a = analyze_sources(&files, &Config::single(Rule::CastSafety));
        let msgs: Vec<_> = a.violations().map(|d| d.message.clone()).collect();
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("unused")));
        assert!(msgs.iter().any(|m| m.contains("missing ` -- <reason>`")));
        assert!(msgs.iter().any(|m| m.contains("unknown rule")));
    }

    #[test]
    fn skip_prefixes_exclude_files_entirely() {
        let files = [SourceFile {
            path: "vendor/rand/src/lib.rs".into(),
            text: "fn f(b: &[u8]) -> u8 { b.first().copied().unwrap() }".into(),
        }];
        let a = analyze_sources(&files, &Config::single(Rule::PanicFreedom));
        assert_eq!(a.files_scanned, 0);
        assert!(a.diagnostics.is_empty());
    }
}
