//! The docs drift gate: `docs/FORMAT.md` and `docs/PROTOCOL.md` are
//! normative, so their constants, verb bytes, and error codes are
//! asserted against the storage and wire-protocol sources (golden
//! tests), and every intra-repo markdown link in `README.md` /
//! `docs/*.md` must resolve — a renamed file or section fails CI
//! instead of silently breaking the specs' cross-references. The
//! committed benchmark ledgers (`BENCH_<pr>.json`) are held to the shape
//! `BENCHMARK.json` declares by the same gate.

use std::path::{Path, PathBuf};

use xarch::storage::{block, superblock};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

// ---------- golden-test helpers ----------

/// Evaluates the constant notations the specs' tables use: decimal,
/// hex with optional underscores, and `a << b` shifts.
fn eval(expr: &str) -> Option<u64> {
    let expr = expr.trim();
    if let Some((a, b)) = expr.split_once("<<") {
        return eval(a)?.checked_shl(eval(b)?.try_into().ok()?);
    }
    let digits = expr.replace('_', "");
    match digits.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => digits.parse().ok(),
    }
}

/// Finds the markdown table row `| `name` | `value` | …` and returns the
/// backticked value cell.
fn table_value<'a>(doc: &'a str, name: &str) -> &'a str {
    let row = doc
        .lines()
        .find(|l| {
            let mut cells = l.split('|').map(str::trim);
            cells.next(); // before the leading pipe
            cells.next() == Some(&format!("`{name}`"))
        })
        .unwrap_or_else(|| panic!("the spec has no table row for `{name}`"));
    let cell = row.split('|').map(str::trim).nth(2).unwrap_or_default();
    cell.strip_prefix('`')
        .and_then(|c| c.strip_suffix('`'))
        .unwrap_or_else(|| panic!("`{name}` row's value cell {cell:?} is not backticked"))
}

/// Slices out one `## heading` section, so tables in different sections
/// may reuse row names (the protocol's verb and response tables both
/// have a `history` row).
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let header = format!("## {heading}");
    let start = doc
        .find(&header)
        .unwrap_or_else(|| panic!("the spec has no `{header}` section"));
    let body = &doc[start + header.len()..];
    match body.find("\n## ") {
        Some(end) => &body[..end],
        None => body,
    }
}

// ---------- the FORMAT.md golden tests ----------

#[test]
fn format_spec_constants_match_the_storage_source() {
    let doc = read(&repo_root().join("docs/FORMAT.md"));
    // the magic is documented as its ASCII text
    assert_eq!(
        table_value(&doc, "MAGIC").as_bytes(),
        superblock::MAGIC,
        "FORMAT.md magic diverged from superblock::MAGIC"
    );
    let numeric: &[(&str, u64)] = &[
        ("FORMAT_VERSION", u64::from(superblock::FORMAT_VERSION)),
        (
            "MIN_FORMAT_VERSION",
            u64::from(superblock::MIN_FORMAT_VERSION),
        ),
        ("FIXED_LEN", superblock::FIXED_LEN as u64),
        ("MAX_SPEC_LEN", superblock::MAX_SPEC_LEN),
        ("BLOCK_HEADER_LEN", block::BLOCK_HEADER_LEN as u64),
        ("BLOCK_TRAILER_LEN", block::BLOCK_TRAILER_LEN as u64),
        ("COMMIT_MAGIC", u64::from(block::COMMIT_MAGIC)),
        ("MAX_PAYLOAD", block::MAX_PAYLOAD),
        ("MAX_DEPTH", xarch::xml::MAX_DEPTH as u64),
    ];
    for (name, actual) in numeric {
        let cell = table_value(&doc, name);
        let documented = eval(cell)
            .unwrap_or_else(|| panic!("`{name}` value {cell:?} does not evaluate to a number"));
        assert_eq!(
            documented, *actual,
            "FORMAT.md documents `{name}` as {cell} but the source says {actual}"
        );
    }
}

#[test]
fn format_spec_block_kind_table_matches_the_source() {
    let doc = read(&repo_root().join("docs/FORMAT.md"));
    let kinds = [
        (block::BlockKind::Version, "Version"),
        (block::BlockKind::Empty, "Empty"),
        (block::BlockKind::Batch, "Batch"),
        (block::BlockKind::Checkpoint, "Checkpoint"),
    ];
    for (kind, name) in kinds {
        let byte = kind.kind_byte();
        let row = doc
            .lines()
            .find(|l| {
                let mut cells = l.split('|').map(str::trim);
                cells.next();
                cells.next() == Some(&format!("`{byte}`")) && l.contains(name)
            })
            .unwrap_or_else(|| {
                panic!("FORMAT.md §Block kinds has no row mapping byte {byte} to {name}")
            });
        assert!(
            row.split('|').map(str::trim).nth(2) == Some(name),
            "FORMAT.md kind-byte row for {name} names the wrong kind: {row}"
        );
    }
    // the byte after the last assigned kind must stay documented as invalid
    assert!(
        block::BlockKind::from_kind_byte(5).is_none(),
        "a fifth block kind exists — extend FORMAT.md §Block kinds and its revision history"
    );
}

#[test]
fn format_spec_state_tags_match_the_source() {
    use xarch::core::state;
    let doc = read(&repo_root().join("docs/FORMAT.md"));
    let retired = "retired in rev 2: read as a configuration mismatch, never reassigned";
    let tags: &[(u8, &str)] = &[
        (state::STATE_ARCHIVE, "`Archive`"),
        (2, retired),
        (3, retired),
        (5, retired),
    ];
    for (tag, backend) in tags {
        assert!(
            doc.lines().any(|l| {
                let mut cells = l.split('|').map(str::trim);
                cells.next();
                cells.next() == Some(&format!("`{tag}`"))
                    && cells.next().is_some_and(|c| c.contains(backend))
            }),
            "FORMAT.md §Checkpoint blocks has no state-tag row mapping {tag} to {backend}"
        );
    }
}

/// §Codec 1 pins the LZSS stream to bytes a third party can produce and
/// read: the golden vector is what `compress` writes and `decompress`
/// reads, and the documented bounds are the coder's.
#[test]
fn format_spec_lzss_golden_vector_is_what_the_coder_writes_and_reads() {
    use xarch::compress::{compress, decompress, BlockCodec};
    let doc = read(&repo_root().join("docs/FORMAT.md"));
    let sec = section(&doc, "Codec 1: LZSS stream");
    let input = sec
        .split("Golden vector: `")
        .nth(1)
        .and_then(|rest| rest.split('`').next())
        .expect("§Codec 1 names its golden input in backticks");
    let is_hex_line = |l: &&str| {
        !l.is_empty()
            && l.split(' ')
                .all(|b| b.len() == 2 && u8::from_str_radix(b, 16).is_ok())
    };
    let stream: Vec<u8> = (sec.lines().find(is_hex_line))
        .expect("§Codec 1 gives the golden stream as a line of hex bytes")
        .split(' ')
        .map(|b| u8::from_str_radix(b, 16).unwrap())
        .collect();
    assert_eq!(compress(input.as_bytes()), stream, "FORMAT.md §Codec 1");
    assert_eq!(decompress(&stream).as_deref(), Some(input.as_bytes()));
    assert_eq!(BlockCodec::Lzss.id(), 1);

    // the documented bounds, through the coder: a run decodes from
    // matches of `dist = 1`, 258 bytes for 13 bits; a repeat 32768 back
    // is found, one 32769 back is not
    let run = vec![b'x'; 1 + 258 * 8];
    assert_eq!(compress(&run).len(), 2 + (9 + 13 * 8usize).div_ceil(8));
    let noise = |len: usize| -> Vec<u8> {
        let mut x = 0x2545_F491u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 8) as u8
            })
            .collect()
    };
    let repeat_at = |dist: usize| {
        let mut data = noise(dist);
        data.extend_from_within(..64);
        compress(&data).len() as i64 - compress(&data[..dist]).len() as i64
    };
    assert!(repeat_at(32768) < 16, "a match at the window's edge");
    assert!(repeat_at(32769) > 60, "no match past the window");
}

/// Both specs give the checksum's standard check value; the live function
/// must produce it. The CRC of a fixed seeded 1 MiB buffer pins the long
/// path as well: the value is what the slice-by-8-only implementation
/// computed, so the folded kernel must reproduce it bit for bit.
#[test]
fn crc32_check_value_is_what_the_live_function_computes() {
    use xarch::storage::crc32;
    for spec in ["docs/FORMAT.md", "docs/PROTOCOL.md"] {
        let doc = read(&repo_root().join(spec));
        let cell = table_value(&doc, "CRC32_CHECK");
        assert_eq!(
            eval(cell),
            Some(u64::from(crc32(b"123456789"))),
            "{spec} documents the CRC-32 check value as {cell}"
        );
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mib: Vec<u8> = (0..1 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes()[0]
        })
        .collect();
    assert_eq!(crc32(&mib), 0x85B1_00CB);
}

// ---------- the PROTOCOL.md golden tests ----------

#[test]
fn protocol_spec_constants_match_the_proto_source() {
    let doc = read(&repo_root().join("docs/PROTOCOL.md"));
    // the handshake magic is documented as its ASCII text
    assert_eq!(
        table_value(&doc, "PROTO_MAGIC").as_bytes(),
        &xarch_proto::PROTO_MAGIC,
        "PROTOCOL.md magic diverged from xarch_proto::PROTO_MAGIC"
    );
    let numeric: &[(&str, u64)] = &[
        ("PROTO_VERSION", u64::from(xarch_proto::PROTO_VERSION)),
        (
            "MIN_PROTO_VERSION",
            u64::from(xarch_proto::MIN_PROTO_VERSION),
        ),
        ("FRAME_HEADER_LEN", xarch_proto::FRAME_HEADER_LEN as u64),
        ("MAX_FRAME_LEN", u64::from(xarch_proto::MAX_FRAME_LEN)),
    ];
    for (name, actual) in numeric {
        let cell = table_value(&doc, name);
        let documented = eval(cell)
            .unwrap_or_else(|| panic!("`{name}` value {cell:?} does not evaluate to a number"));
        assert_eq!(
            documented, *actual,
            "PROTOCOL.md documents `{name}` as {cell} but the source says {actual}"
        );
    }
}

/// Asserts every `(name, byte)` pair has a row in the section's table,
/// and that the table has no extra rows — an undocumented verb is as
/// much drift as a misdocumented one.
fn assert_byte_table(sec: &str, what: &str, rows: &[(&str, u8)]) {
    for (name, byte) in rows {
        let cell = table_value(sec, name);
        let documented = eval(cell)
            .unwrap_or_else(|| panic!("`{name}` value {cell:?} does not evaluate to a number"));
        assert_eq!(
            documented,
            u64::from(*byte),
            "PROTOCOL.md documents {what} `{name}` as {cell} but the source says {byte:#04x}"
        );
    }
    let data_rows = sec
        .lines()
        .filter(|l| l.starts_with("| `") && !l.contains("---"))
        .count();
    assert_eq!(
        data_rows,
        rows.len(),
        "PROTOCOL.md's {what} table has {data_rows} rows but the source assigns {} — \
         document the new {what} and bump the revision history",
        rows.len()
    );
}

#[test]
fn protocol_spec_verb_table_matches_the_source() {
    use xarch_proto::msg::verbs;
    let doc = read(&repo_root().join("docs/PROTOCOL.md"));
    assert_byte_table(
        section(&doc, "Request verbs"),
        "verb",
        &[
            ("hello", verbs::HELLO),
            ("ping", verbs::PING),
            ("retrieve", verbs::RETRIEVE),
            ("as_of", verbs::AS_OF),
            ("history", verbs::HISTORY),
            ("history_values", verbs::HISTORY_VALUES),
            ("range", verbs::RANGE),
            ("diff", verbs::DIFF),
            ("stats", verbs::STATS),
            ("latest", verbs::LATEST),
            ("ingest", verbs::INGEST),
            ("snap_open", verbs::SNAP_OPEN),
            ("snap_close", verbs::SNAP_CLOSE),
            ("metrics", verbs::METRICS),
            ("health", verbs::HEALTH),
            ("shutdown", verbs::SHUTDOWN),
        ],
    );
}

#[test]
fn protocol_spec_response_tag_table_matches_the_source() {
    use xarch_proto::msg::tags;
    let doc = read(&repo_root().join("docs/PROTOCOL.md"));
    assert_byte_table(
        section(&doc, "Response tags"),
        "response tag",
        &[
            ("hello-ok", tags::HELLO_OK),
            ("pong", tags::PONG),
            ("document", tags::DOCUMENT),
            ("history", tags::HISTORY),
            ("history-values", tags::HISTORY_VALUES),
            ("range", tags::RANGE),
            ("diff", tags::DIFF),
            ("stats", tags::STATS),
            ("latest", tags::LATEST),
            ("ingested", tags::INGESTED),
            ("snap-opened", tags::SNAP_OPENED),
            ("snap-closed", tags::SNAP_CLOSED),
            ("metrics", tags::METRICS),
            ("health", tags::HEALTH),
            ("shutting-down", tags::SHUTTING_DOWN),
            ("error", tags::ERROR),
        ],
    );
}

#[test]
fn protocol_spec_error_code_table_matches_the_source() {
    use xarch_proto::ErrorCode;
    let doc = read(&repo_root().join("docs/PROTOCOL.md"));
    let sec = section(&doc, "Error codes");
    let mut codes = Vec::new();
    for byte in 1u8.. {
        match ErrorCode::from_code(byte) {
            Some(code) => codes.push(code),
            None => break,
        }
    }
    for code in &codes {
        let cell = table_value(sec, code.name());
        assert_eq!(
            eval(cell),
            Some(u64::from(code.code())),
            "PROTOCOL.md documents `{}` as code {cell} but the source says {}",
            code.name(),
            code.code()
        );
    }
    let data_rows = sec
        .lines()
        .filter(|l| l.starts_with("| `") && !l.contains("---"))
        .count();
    assert_eq!(
        data_rows,
        codes.len(),
        "PROTOCOL.md's error-code table disagrees with ErrorCode — \
         document the new code and bump the revision history"
    );
}

// ---------- the intra-repo link checker ----------

/// GitHub-style anchor slug for a markdown heading.
fn slug(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| match c {
            'A'..='Z' => Some(c.to_ascii_lowercase()),
            'a'..='z' | '0'..='9' | '-' => Some(c),
            ' ' => Some('-'),
            _ => None,
        })
        .collect()
}

fn anchors_of(doc: &str) -> Vec<String> {
    doc.lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|rest| slug(rest.trim_start_matches('#')))
        .collect()
}

/// Extracts `[text](target)` targets, skipping fenced code blocks and
/// inline code spans (rustdoc examples contain link-shaped text).
fn link_targets(doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let mut rest = line;
        while let Some(close) = rest.find("](") {
            let after = &rest[close + 2..];
            let Some(end) = after.find(')') else { break };
            out.push(after[..end].to_string());
            rest = &after[end + 1..];
        }
    }
    out
}

#[test]
fn intra_repo_markdown_links_resolve() {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs_dir = root.join("docs");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&docs_dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", docs_dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    entries.sort();
    files.extend(entries);

    let mut broken = Vec::new();
    for file in &files {
        let doc = read(file);
        let dir = file.parent().unwrap_or(&root);
        for target in link_targets(&doc) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, fragment) = match target.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (target.as_str(), None),
            };
            let resolved = if path_part.is_empty() {
                file.clone()
            } else {
                dir.join(path_part)
            };
            if !resolved.exists() {
                broken.push(format!(
                    "{}: link target {target:?} does not exist",
                    file.display()
                ));
                continue;
            }
            if let Some(frag) = fragment {
                if resolved.extension().is_some_and(|x| x == "md")
                    && !anchors_of(&read(&resolved)).iter().any(|a| a == frag)
                {
                    broken.push(format!(
                        "{}: anchor {target:?} matches no heading in {}",
                        file.display(),
                        resolved.display()
                    ));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken intra-repo links:\n{}",
        broken.join("\n")
    );
}

// ---------- the ledger gate ----------

/// A JSON value, parsed strictly enough that a truncated or hand-mangled
/// ledger file fails instead of being half-read.
#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Number(f64),
    Text(String),
    List(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(src: &str) -> Result<Json, String> {
        let mut rest = src.trim_start();
        let value = Json::value(&mut rest)?;
        match rest.trim_start() {
            "" => Ok(value),
            trailing => Err(format!(
                "trailing text {:?}",
                &trailing[..trailing.len().min(20)]
            )),
        }
    }

    fn value(rest: &mut &str) -> Result<Json, String> {
        *rest = rest.trim_start();
        let eat = |rest: &mut &str, token: &str| {
            *rest = rest.trim_start();
            rest.strip_prefix(token).map(|r| *rest = r).is_some()
        };
        if eat(rest, "{") {
            let mut members = Vec::new();
            while !eat(rest, "}") {
                if !members.is_empty() && !eat(rest, ",") {
                    return Err("expected `,` or `}` in an object".into());
                }
                let Json::Text(key) = Json::value(rest)? else {
                    return Err("an object key must be a string".into());
                };
                if !eat(rest, ":") {
                    return Err(format!("expected `:` after key {key:?}"));
                }
                members.push((key, Json::value(rest)?));
            }
            return Ok(Json::Object(members));
        }
        if eat(rest, "[") {
            let mut items = Vec::new();
            while !eat(rest, "]") {
                if !items.is_empty() && !eat(rest, ",") {
                    return Err("expected `,` or `]` in a list".into());
                }
                items.push(Json::value(rest)?);
            }
            return Ok(Json::List(items));
        }
        if eat(rest, "\"") {
            let mut text = String::new();
            let mut chars = rest.char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        *rest = &rest[i + 1..];
                        return Ok(Json::Text(text));
                    }
                    // the ledgers escape nothing but quotes and backslashes
                    '\\' => match chars.next() {
                        Some((_, c @ ('"' | '\\' | '/'))) => text.push(c),
                        other => return Err(format!("unsupported escape {other:?}")),
                    },
                    c => text.push(c),
                }
            }
            return Err("unterminated string".into());
        }
        for (word, value) in [
            ("null", Json::Null),
            ("true", Json::Bool),
            ("false", Json::Bool),
        ] {
            if eat(rest, word) {
                return Ok(value);
            }
        }
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        let (number, tail) = rest.split_at(end);
        *rest = tail;
        number
            .parse()
            .map(Json::Number)
            .map_err(|_| format!("not a JSON value: {:?}", &number[..number.len().min(20)]))
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The `name` of every object in the list under `key`.
    fn names_under(&self, key: &str) -> Vec<&str> {
        let Some(Json::List(items)) = self.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|item| match item.get("name") {
                Some(Json::Text(name)) => name.as_str(),
                _ => panic!("a `{key}` entry of BENCHMARK.json has no name"),
            })
            .collect()
    }
}

#[test]
fn every_committed_ledger_parses_and_names_what_the_benchmark_declares() {
    // A speed-up that is not in the ledger did not happen (ROADMAP aim 1)
    // — so a `BENCH_<pr>.json` that does not parse, or that leaves out a
    // workload or an end-to-end metric `BENCHMARK.json` declares, fails
    // here rather than passing for a ledger.
    let root = repo_root();
    let declared = Json::parse(&read(&root.join("BENCHMARK.json"))).expect("BENCHMARK.json parses");
    let workloads = declared.names_under("workloads");
    let metrics = declared.names_under("end_to_end");
    assert_eq!((workloads.len(), metrics.len()), (2, 9));

    let mut ledgers: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            let pr = name
                .strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"));
            pr.is_some_and(|pr| !pr.is_empty() && pr.bytes().all(|b| b.is_ascii_digit()))
        })
        .collect();
    ledgers.sort();
    assert!(!ledgers.is_empty(), "no BENCH_<pr>.json at the repo root");
    for path in ledgers {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let ledger = Json::parse(&read(&path)).unwrap_or_else(|e| panic!("{name}: {e}"));
        for workload in &workloads {
            for metric in &metrics {
                let row = ledger
                    .get("end_to_end")
                    .and_then(|e| e.get(workload))
                    .and_then(|w| w.get(metric))
                    .unwrap_or_else(|| panic!("{name} has no end_to_end.{workload}.{metric}"));
                for side in ["parent", "change"] {
                    assert!(
                        matches!(
                            row.get(side).and_then(|s| s.get("median")),
                            Some(Json::Number(m)) if m.is_finite()
                        ),
                        "{name}: end_to_end.{workload}.{metric}.{side}.median is not a number"
                    );
                }
            }
        }
    }
}

// ---------- README's metric catalogue against the live registry ----------

/// `{a,b}` alternatives in a metric name, expanded (one group at most).
fn expand_braces(name: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (name.find('{'), name.find('}')) else {
        return vec![name.to_string()];
    };
    name[open + 1..close]
        .split(',')
        .map(|alt| format!("{}{alt}{}", &name[..open], &name[close + 1..]))
        .collect()
}

/// Every name README's metric table lists: the backticked names of each
/// row's first cell (`a` / `b` lists two), `{a,b}` expanded, and
/// `server.<verb>.duration` expanded over `verbs`.
fn readme_metric_names(readme: &str, verbs: &[&str]) -> std::collections::BTreeSet<String> {
    let table = readme
        .split_once("| metric | type | unit | origin |")
        .expect("README has the metric table")
        .1;
    let mut names = std::collections::BTreeSet::new();
    for row in table.lines().skip(2).take_while(|l| l.starts_with('|')) {
        let cell = row.split('|').nth(1).unwrap_or_default();
        for (i, span) in cell.split('`').enumerate() {
            if i % 2 == 0 {
                continue; // outside the backticks
            }
            for name in expand_braces(span) {
                if name.contains("<verb>") {
                    names.extend(verbs.iter().map(|v| name.replace("<verb>", v)));
                } else {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// README's metric table is the catalogue operators read, so it must
/// name exactly what the registry holds once every layer has reported: a
/// served, durable, indexed, checkpointed store answering one request of
/// each verb, its reopen, and a cold reader of the same segment. A name
/// on one side only fails, and is printed.
#[test]
fn readme_metric_table_matches_the_live_registry() {
    use xarch::core::KeyQuery;
    use xarch::obs::Obs;
    use xarch::{ArchiveBuilder, ColdArchive};
    use xarch_proto::{Client, Request};
    use xarch_server::{Server, ServerConfig};

    const SPEC: &str = "(/, (db, {}))\n(/db, (rec, {id}))";
    // every verb of the protocol, as the server's histograms name them
    let verbs: Vec<&str> = [
        Request::Hello { min: 1, max: 1 },
        Request::Ping,
        Request::Retrieve { lease: 0, v: 1 },
        Request::AsOf {
            lease: 0,
            v: 1,
            steps: vec![],
        },
        Request::History {
            lease: 0,
            steps: vec![],
        },
        Request::HistoryValues {
            lease: 0,
            steps: vec![],
        },
        Request::Range {
            lease: 0,
            lo: 1,
            hi: 1,
            prefix: vec![],
        },
        Request::Diff {
            lease: 0,
            v1: 1,
            v2: 1,
            steps: vec![],
        },
        Request::Stats { lease: 0 },
        Request::Latest { lease: 0 },
        Request::Ingest { docs: vec![] },
        Request::SnapOpen,
        Request::SnapClose { lease: 0 },
        Request::Metrics,
        Request::Health,
        Request::Shutdown,
    ]
    .iter()
    .map(Request::verb_name)
    .collect();

    let path = xarch::storage::scratch_path("readme-metrics");
    let obs = Obs::disconnected();
    let builder = || {
        ArchiveBuilder::new(xarch::keys::KeySpec::parse(SPEC).unwrap())
            .with_index()
            .durable(&path)
            .checkpoint_every(2)
            .with_observability(obs.clone())
    };
    let mut config = String::from("listen = 127.0.0.1:0\nworkers = 1\nallow_shutdown = true\n");
    for line in SPEC.lines() {
        config.push_str(&format!("spec = {line}\n"));
    }
    let config = ServerConfig::from_text(&config).unwrap();
    let (handle, served_obs) = builder().try_build_served().unwrap();
    let server = Server::serve(config, handle, served_obs).unwrap();
    {
        // the handshake is the `hello`
        let mut client = Client::connect(server.addr()).unwrap();
        let rec = |id: &str| {
            vec![
                KeyQuery::new("db"),
                KeyQuery::new("rec").with_text("id", id),
            ]
        };
        client.ping().unwrap();
        let docs: Vec<String> = (1..=3)
            .map(|n| format!("<db><rec><id>{n}</id></rec></db>"))
            .collect();
        assert_eq!(client.ingest(&docs).unwrap(), vec![1, 2, 3]);
        let (lease, _) = client.open_snapshot().unwrap();
        assert!(client.retrieve(lease, 2).unwrap().is_some());
        assert!(client.as_of(lease, 1, &rec("1")).unwrap().is_some());
        assert!(client.history(lease, &rec("1")).unwrap().is_some());
        assert!(client.history_values(lease, &rec("1")).unwrap().is_some());
        assert!(!client
            .range(lease, &rec("1")[..1], 1, 3)
            .unwrap()
            .is_empty());
        let _ = client.diff(lease, &rec("1"), 1, 3).unwrap();
        assert_eq!(client.stats(lease).unwrap().versions, 3);
        assert_eq!(client.latest(lease).unwrap(), 3);
        client.close_snapshot(lease).unwrap();
        let _ = client.metrics().unwrap();
        let _ = client.health().unwrap();
        client.shutdown().unwrap();
    }
    server.wait();
    let reopened = builder().open().unwrap();
    assert!(reopened.journal().unwrap().recovery().checkpoint_loaded);
    drop(reopened);
    let cold = ColdArchive::open_observed(&path, &obs).unwrap();
    drop(cold);
    std::fs::remove_file(&path).unwrap();

    let live: std::collections::BTreeSet<String> = obs
        .registry()
        .samples()
        .into_iter()
        .map(|s| s.name)
        .collect();
    let documented = readme_metric_names(&read(&repo_root().join("README.md")), &verbs);
    let undocumented: Vec<_> = live.difference(&documented).collect();
    let unregistered: Vec<_> = documented.difference(&live).collect();
    assert!(
        undocumented.is_empty() && unregistered.is_empty(),
        "registered but not in README's metric table: {undocumented:?}\n\
         in README's metric table but never registered: {unregistered:?}"
    );
}
