//! Key specifications and their textual syntax.
//!
//! The paper writes a relative key as `(Q, (Q', {P1, ..., Pk}))`, e.g.
//!
//! ```text
//! (/db/dept, (emp, {fn, ln}))
//! (/db/dept/emp, (tel, {.}))      # "." (or \e) is the empty key path
//! (/ROOT, (Record, {Num}))
//! ```
//!
//! [`KeySpec::parse`] accepts one key per line with `#` comments, which is
//! the format the Appendix B specs are written in.

use std::collections::HashSet;
use std::fmt;

use xarch_xml::Path;

use crate::annotate::PathName;

/// One relative key `(context, (target, {key paths}))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    /// Context path `Q`, anchored at the root (the paper writes a leading `/`).
    pub context: Path,
    /// Target path `Q'`, relative to the context.
    pub target: Path,
    /// Key paths `P1..Pk`, relative to the target. An empty key path means
    /// "identified by content"; an empty *list* means "at most one".
    pub key_paths: Vec<Path>,
    /// True for keys synthesized by the implied-keys rule of §3: "whenever a
    /// key `(Q, (Q', {P1..Pk}))` exists, the keys `(Q/Q', (Pi, {}))` are
    /// implied ... we shall always assume that they are part of the key
    /// specification".
    pub implied: bool,
}

impl Key {
    /// The keyed path `Q/Q'` — the absolute label path of nodes this key
    /// constrains.
    pub fn keyed_path(&self) -> Path {
        self.context.concat(&self.target)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ctx = if self.context.is_empty() {
            "/".to_owned()
        } else {
            format!("/{}", self.context)
        };
        let paths: Vec<String> = self.key_paths.iter().map(|p| p.to_string()).collect();
        write!(f, "({}, ({}, {{{}}}))", ctx, self.target, paths.join(", "))
    }
}

/// Errors raised while parsing or checking a key specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number in the spec source (0 when not line-specific).
    pub line: usize,
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key spec error (line {}): {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// A complete key specification: a list of relative keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySpec {
    keys: Vec<Key>,
    /// `keys` compiled for the annotate walk; a function of `keys` alone.
    compiled: Compiled,
}

impl Default for KeySpec {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            compiled: Compiled::empty(),
        }
    }
}

impl KeySpec {
    /// Builds a spec from keys, adding the implied keys of §3 and checking
    /// the structural assumptions (`check_assumptions`), all of it on the
    /// compiled trie of keyed paths: no path is cloned to decide them.
    pub fn new(mut keys: Vec<Key>) -> Result<Self, SpecError> {
        let mut c = Compiled::empty();
        let placed: Vec<Placed> = keys.iter().map(|k| c.place(k)).collect();
        let implied = c.imply(&keys, &placed);
        keys.extend(implied);
        check_assumptions(&keys, &placed, &c)?;
        for s in &mut c.states {
            if let Some(rule) = &mut s.rule {
                // the trie holds keyed paths only, so every leaf is one and
                // every inner state has a keyed path beneath it
                rule.frontier = s.edges.is_empty();
            }
        }
        Ok(Self { keys, compiled: c })
    }

    /// The spec as the annotate walk reads it.
    pub(crate) fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// Parses the paper's line-oriented syntax. Blank lines and `#` comments
    /// are ignored.
    pub fn parse(src: &str) -> Result<Self, SpecError> {
        let mut keys = Vec::new();
        for (i, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            keys.push(parse_key(line).map_err(|m| SpecError {
                line: i + 1,
                message: m,
            })?);
        }
        Self::new(keys)
    }

    /// The names the key parts a merge extracts carry, one per key path
    /// of each key (a path rendered as `.` when empty, and repeated where
    /// keys share it), each shared with the parts that carry it.
    pub fn path_names(&self) -> impl Iterator<Item = &PathName> {
        let rules = self.compiled.states.iter().filter_map(|s| s.rule.as_ref());
        rules.flat_map(|rule| rule.key_paths.iter().map(|kp| &kp.name))
    }

    /// The keys, in declaration order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Number of keys `q`.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the spec has no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// All keyed paths `Q/Q'` (with duplicates removed, declaration order).
    pub fn keyed_paths(&self) -> Vec<Path> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for k in &self.keys {
            let p = k.keyed_path();
            if seen.insert(p.clone()) {
                out.push(p);
            }
        }
        out
    }

    /// The **frontier paths** (§3): keyed paths that are not a proper prefix
    /// of any other keyed path. Frontier nodes are the deepest keyed nodes;
    /// beneath them, Nested Merge switches to value-based matching.
    pub fn frontier_paths(&self) -> Vec<Path> {
        let all = self.keyed_paths();
        all.iter()
            .filter(|p| !all.iter().any(|q| p.is_proper_prefix_of(q)))
            .cloned()
            .collect()
    }

    /// Finds the key whose keyed path equals `path` (the key that governs a
    /// node at that label path). The paper's assumptions guarantee at most
    /// one.
    pub fn key_for_path(&self, path: &Path) -> Option<&Key> {
        let keyed = |k: &&Key| (k.context.steps().iter().chain(k.target.steps())).eq(path.steps());
        self.keys.iter().find(keyed)
    }

    /// The key paths of the key governing nodes at the label path `path`,
    /// in the order the parts of its key values take (sorted by name, the
    /// order `≤lab` assumes), each as its name and its steps; `None` if
    /// `path` is not a keyed path.
    pub fn key_paths_for(&self, path: &Path) -> Option<Vec<(&PathName, &[String])>> {
        let key = self.key_for_path(path)?;
        let c = &self.compiled;
        let mut at = Compiled::ROOT;
        for step in path.steps() {
            at = c.step_named(at, step)?;
        }
        let paths = &c.rule(at)?.key_paths;
        Some(
            paths
                .iter()
                .map(|kp| (&kp.name, key.key_paths[kp.declared].steps()))
                .collect(),
        )
    }

    /// True if `path` is a keyed path of this spec.
    pub fn is_keyed_path(&self, path: &Path) -> bool {
        self.key_for_path(path).is_some()
    }

    /// True if `path` is a frontier path of this spec.
    pub fn is_frontier_path(&self, path: &Path) -> bool {
        self.is_keyed_path(path)
            && !self
                .keyed_paths()
                .iter()
                .any(|q| path.is_proper_prefix_of(q))
    }
}

/// Where [`Compiled::place`] put one key: its context's state, its keyed
/// path's state, and whether a key before it has the same keyed path.
#[derive(Debug, Clone, Copy)]
struct Placed {
    context: usize,
    keyed: usize,
    duplicate: bool,
}

/// Checks the structural assumptions of §3 on the trie `c` of `keys`: the
/// keys declared, placed at `placed`, then the keys they imply.
///
/// 1. **insertion-friendly**: every key's context is either the root or
///    itself a keyed path (keys are relative to the parent's key) — its
///    context state is the root or carries a rule;
/// 2. keyed paths are unique (one key per target path);
/// 3. no keyed path lies strictly beneath a *key path* of another key —
///    nodes inside key values must not themselves be keyed (the paper's
///    third restriction). Every trie state leads to a keyed path, so this
///    is: the state a key path ends at has no edge.
///
/// Implied keys hold all three by construction and have no key paths, so
/// only the declared keys — one per entry of `placed` — are checked.
fn check_assumptions(keys: &[Key], placed: &[Placed], c: &Compiled) -> Result<(), SpecError> {
    let refuse = |message| Err(SpecError { line: 0, message });
    for (k, at) in keys.iter().zip(placed) {
        if at.duplicate {
            return refuse(format!("duplicate key for path {}", k.keyed_path()));
        }
        if at.context != Compiled::ROOT && c.states[at.context].rule.is_none() {
            return refuse(format!(
                "key {k} is not insertion-friendly: context {} is not itself keyed",
                k.context
            ));
        }
    }
    // restriction 3: nothing keyed strictly below a key path
    for (k, at) in keys.iter().zip(placed) {
        for p in k.key_paths.iter().filter(|p| !p.is_empty()) {
            let end = (p.steps().iter()).try_fold(at.keyed, |s, step| c.step_named(s, step));
            if end.is_some_and(|end| c.states[end].edges.is_empty()) {
                continue;
            }
            let full = k.keyed_path().concat(p);
            let mut keyed = keys.iter().map(Key::keyed_path);
            if let Some(other) = keyed.find(|o| full.is_proper_prefix_of(o)) {
                return refuse(format!(
                    "keyed path {other} lies beneath key path {full} of {k}"
                ));
            }
        }
    }
    Ok(())
}

/// A [`KeySpec`] compiled for one pass over a document: the keyed paths
/// as a trie whose states the annotate walk carries down the tree, so a
/// node is classified by one step from its parent's state instead of a
/// lookup of its whole label path.
///
/// Tag and key-path step names live once in `names`; a walk resolves them
/// against its document's symbol table once and compares `Sym`s from then
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Compiled {
    /// Every distinct tag / key-path step name; edges and steps index it.
    pub names: Vec<String>,
    /// Trie states; [`Compiled::ROOT`] is the empty path.
    states: Vec<State>,
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct State {
    /// `(name, target state)` per child step.
    edges: Vec<(usize, usize)>,
    /// The key governing nodes at this path, if it is a keyed path.
    rule: Option<Rule>,
}

/// The key of one keyed path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Rule {
    /// Key paths sorted by rendered name — the order `≤lab` assumes.
    pub key_paths: Vec<KeyPath>,
    /// No keyed path extends this one: nodes here are frontier nodes.
    pub frontier: bool,
}

/// One key path of a [`Rule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyPath {
    /// The path as [`Path`]'s `Display` renders it (`.` when empty): the
    /// name every key part extracted along it shares.
    pub name: PathName,
    /// Step names, as indexes into [`Compiled::names`].
    pub steps: Vec<usize>,
    /// Position among the key's paths as declared; when several fail to
    /// resolve, the error names the first declared.
    pub declared: usize,
}

impl Compiled {
    /// The state of the empty path, above the document root.
    pub const ROOT: usize = 0;

    fn empty() -> Self {
        Compiled {
            names: Vec::new(),
            states: vec![State::default()],
        }
    }

    /// Adds the keyed path of `k` and its rule, and says where they went.
    fn place(&mut self, k: &Key) -> Placed {
        let context = self.descend(Self::ROOT, k.context.steps());
        let keyed = self.descend(context, k.target.steps());
        let mut key_paths: Vec<KeyPath> = k
            .key_paths
            .iter()
            .enumerate()
            .map(|(declared, p)| KeyPath {
                name: p.to_string().into(),
                steps: p.steps().iter().map(|s| self.name(s)).collect(),
                declared,
            })
            .collect();
        key_paths.sort_by(|a, b| a.name.cmp(&b.name));
        let rule = Rule {
            key_paths,
            frontier: false,
        };
        let duplicate = self.states[keyed].rule.replace(rule).is_some();
        Placed {
            context,
            keyed,
            duplicate,
        }
    }

    /// The implied keys of the `keys` placed at `placed`, added to the trie:
    /// for every key `(Q, (Q', {..., Pi, ...}))` with a non-empty key path
    /// `Pi = p1/.../pm`, each node along `Q/Q'/p1/.../pj` exists uniquely,
    /// so the unit keys `(Q/Q'/p1/../p(j-1), (pj, {}))` hold where no key
    /// is declared. These make key-path nodes (e.g. `fn`, `name`)
    /// *frontier nodes* — exactly the frontier the paper lists for the
    /// company database in §3.
    fn imply(&mut self, keys: &[Key], placed: &[Placed]) -> Vec<Key> {
        let mut implied = Vec::new();
        for (k, at) in keys.iter().zip(placed) {
            for p in &k.key_paths {
                let mut state = at.keyed;
                for (j, step) in p.steps().iter().enumerate() {
                    state = self.descend(state, std::slice::from_ref(step));
                    if self.states[state].rule.is_some() {
                        continue;
                    }
                    self.states[state].rule = Some(Rule {
                        key_paths: Vec::new(),
                        frontier: false,
                    });
                    let above = p.steps().get(..j).unwrap_or_default();
                    implied.push(Key {
                        context: Path::from_steps(
                            (k.context.steps().iter())
                                .chain(k.target.steps())
                                .chain(above),
                        ),
                        target: Path::from_steps([step]),
                        key_paths: Vec::new(),
                        implied: true,
                    });
                }
            }
        }
        implied
    }

    /// The state at the end of `steps` from `at`, adding the states the
    /// trie lacks.
    fn descend(&mut self, mut at: usize, steps: &[String]) -> usize {
        for step in steps {
            let name = self.name(step);
            at = match self.step(at, |n| n == name) {
                Some(to) => to,
                None => {
                    self.states.push(State::default());
                    let to = self.states.len() - 1;
                    self.states[at].edges.push((name, to));
                    to
                }
            };
        }
        at
    }

    /// The state one step below `state` along the edge named `name`.
    fn step_named(&self, state: usize, name: &str) -> Option<usize> {
        self.step(state, |n| self.names[n] == name)
    }

    fn name(&mut self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| {
                self.names.push(name.to_owned());
                self.names.len() - 1
            })
    }

    /// The state one step below `state` along the edge `is_name` accepts
    /// (it is handed indexes into [`Compiled::names`]); `None` once the
    /// path leaves every keyed path.
    pub fn step(&self, state: usize, is_name: impl Fn(usize) -> bool) -> Option<usize> {
        self.states[state]
            .edges
            .iter()
            .find(|e| is_name(e.0))
            .map(|e| e.1)
    }

    /// The key governing nodes at `state`, if it is a keyed path.
    pub fn rule(&self, state: usize) -> Option<&Rule> {
        self.states[state].rule.as_ref()
    }
}

/// The spec's source text: its explicit (non-implied) keys, one per line,
/// in the paper's syntax — what [`KeySpec::parse`] reads back to an equal
/// spec (the implied keys are derived again), and what a segment's
/// superblock and a checkpoint record.
impl fmt::Display for KeySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let explicit = self.keys.iter().filter(|k| !k.implied);
        for (i, k) in explicit.enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            write!(f, "{k}")?;
        }
        Ok(())
    }
}

/// Parses a single `(/ctx, (target, {p1, p2}))` line.
fn parse_key(line: &str) -> Result<Key, String> {
    let s = line.trim();
    let inner = s
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or("key must be wrapped in ( ... )")?;
    // split at the first comma that is at depth 0
    let mut depth = 0usize;
    let mut split = None;
    for (i, c) in inner.char_indices() {
        match c {
            '(' | '{' => depth += 1,
            ')' | '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                split = Some(i);
                break;
            }
            _ => {}
        }
    }
    let split = split.ok_or("expected `,` between context and (target, {..})")?;
    let ctx_str = inner[..split].trim();
    let rest = inner[split + 1..].trim();
    let rest = rest
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or("expected `(target, {key paths})`")?;
    let brace = rest.find('{').ok_or("expected `{`")?;
    let target_str = rest[..brace].trim().trim_end_matches(',').trim();
    let paths_str = rest[brace..]
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected `{key paths}`")?;
    let key_paths: Vec<Path> = if paths_str.trim().is_empty() {
        Vec::new()
    } else {
        paths_str.split(',').map(Path::parse).collect()
    };
    if target_str.is_empty() {
        return Err("empty target path".into());
    }
    Ok(Key {
        context: Path::parse(ctx_str),
        target: Path::parse(target_str),
        key_paths,
        implied: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The company-database key spec of §3.
    pub(crate) fn company_spec() -> KeySpec {
        KeySpec::parse(
            "(/, (db, {}))\n\
             (/db, (dept, {name}))\n\
             (/db/dept, (emp, {fn, ln}))\n\
             (/db/dept/emp, (sal, {}))\n\
             (/db/dept/emp, (tel, {.}))",
        )
        .unwrap()
    }

    #[test]
    fn parses_company_spec() {
        let spec = company_spec();
        // 5 explicit keys + implied keys for the key-path nodes name, fn, ln
        assert_eq!(spec.keys().iter().filter(|k| !k.implied).count(), 5);
        assert_eq!(spec.len(), 8);
        let emp = spec.key_for_path(&Path::parse("db/dept/emp")).unwrap();
        assert_eq!(emp.key_paths.len(), 2);
        assert_eq!(emp.key_paths[0].to_string(), "fn");
        let tel = spec.key_for_path(&Path::parse("db/dept/emp/tel")).unwrap();
        assert_eq!(tel.key_paths, vec![Path::empty()]);
        let db = spec.key_for_path(&Path::parse("db")).unwrap();
        assert!(db.key_paths.is_empty());
    }

    #[test]
    fn frontier_paths_of_company_spec() {
        // §3: "the key specification for the company database has frontier
        // paths /db/dept/name, /db/dept/emp/fn, /db/dept/emp/ln,
        // /db/dept/emp/sal, and /db/dept/emp/tel."
        let spec = company_spec();
        let mut f: Vec<String> = spec
            .frontier_paths()
            .iter()
            .map(|p| p.to_string())
            .collect();
        f.sort();
        assert_eq!(
            f,
            vec![
                "db/dept/emp/fn",
                "db/dept/emp/ln",
                "db/dept/emp/sal",
                "db/dept/emp/tel",
                "db/dept/name",
            ]
        );
        assert!(spec.is_frontier_path(&Path::parse("db/dept/emp/tel")));
        assert!(!spec.is_frontier_path(&Path::parse("db/dept")));
        assert!(!spec.is_frontier_path(&Path::parse("db/dept/emp")));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let spec = KeySpec::parse("# header\n\n(/, (db, {}))  # root key\n").unwrap();
        assert_eq!(spec.len(), 1);
    }

    #[test]
    fn backslash_e_empty_path() {
        let spec = KeySpec::parse("(/, (ROOT, {}))\n(/ROOT, (word, {\\e}))").unwrap();
        let k = spec.key_for_path(&Path::parse("ROOT/word")).unwrap();
        assert_eq!(k.key_paths, vec![Path::empty()]);
    }

    #[test]
    fn rejects_non_insertion_friendly() {
        // context db/dept is never declared as a keyed path
        let err = KeySpec::parse("(/db/dept, (emp, {fn}))").unwrap_err();
        assert!(err.message.contains("insertion-friendly"));
    }

    #[test]
    fn rejects_duplicate_keyed_paths() {
        let err = KeySpec::parse("(/, (db, {}))\n(/, (db, {x}))").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn rejects_keyed_nodes_beneath_key_paths() {
        // emp is keyed by fn, but fn/inner is itself declared keyed
        let err = KeySpec::parse(
            "(/, (db, {}))\n(/db, (emp, {fn}))\n(/db/emp, (fn, {}))\n(/db/emp/fn, (inner, {}))",
        )
        .unwrap_err();
        assert!(err.message.contains("beneath key path"));
    }

    #[test]
    fn implied_key_paths_are_allowed() {
        // (Q/Q', (Pi, {})) implied keys may be stated explicitly (the paper
        // always assumes them); a key path with an *empty-path* key on the
        // same node is the (tel, {.}) pattern.
        let spec =
            KeySpec::parse("(/, (db, {}))\n(/db, (emp, {fn}))\n(/db/emp, (fn, {}))").unwrap();
        assert!(spec.is_keyed_path(&Path::parse("db/emp/fn")));
    }

    #[test]
    fn display_round_trips() {
        let spec = company_spec();
        for k in spec.keys().iter().filter(|k| !k.implied) {
            let printed = k.to_string();
            let reparsed = parse_key(&printed).unwrap();
            assert_eq!(&reparsed, k);
        }
    }

    #[test]
    fn appendix_b1_omim_spec_parses() {
        let spec = KeySpec::parse(
            "(/, (ROOT, {}))\n\
             (/ROOT, (Record, {Num}))\n\
             (/ROOT/Record, (Title, {}))\n\
             (/ROOT/Record, (AlternativeTitle, {\\e}))\n\
             (/ROOT/Record, (Text, {}))\n\
             (/ROOT/Record, (Contributors, {Name, CNtype, Date/Month, Date/Day, Date/Year}))\n\
             (/ROOT/Record/Contributors, (Date, {}))\n\
             (/ROOT/Record, (Creation_Date, {Name, Date/Month, Date/Day, Date/Year}))\n\
             (/ROOT/Record/Creation_Date, (Date, {}))",
        )
        .unwrap();
        assert_eq!(spec.keys().iter().filter(|k| !k.implied).count(), 9);
        let c = spec
            .key_for_path(&Path::parse("ROOT/Record/Contributors"))
            .unwrap();
        assert_eq!(c.key_paths[2].to_string(), "Date/Month");
        // implied keys cover the key-path interior, e.g. Contributors/Date/Month
        assert!(spec.is_keyed_path(&Path::parse("ROOT/Record/Contributors/Date/Month")));
        assert!(spec.is_frontier_path(&Path::parse("ROOT/Record/Contributors/Date/Month")));
        // the parts of a key value follow the paths' names, not the
        // declaration
        let paths = spec.key_paths_for(&Path::parse("ROOT/Record/Contributors"));
        let paths: Vec<(String, Vec<&str>)> = (paths.unwrap().into_iter())
            .map(|(name, steps)| (name.to_string(), steps.iter().map(|s| &**s).collect()))
            .collect();
        assert_eq!(
            paths,
            [
                ("CNtype".to_string(), vec!["CNtype"]),
                ("Date/Day".to_string(), vec!["Date", "Day"]),
                ("Date/Month".to_string(), vec!["Date", "Month"]),
                ("Date/Year".to_string(), vec!["Date", "Year"]),
                ("Name".to_string(), vec!["Name"]),
            ]
        );
        let word = spec.key_paths_for(&Path::parse("ROOT/AlternativeTitle"));
        assert!(word.is_none(), "not a keyed path");
        let alt = spec.key_paths_for(&Path::parse("ROOT/Record/AlternativeTitle"));
        let (name, steps) = alt.unwrap()[0];
        assert_eq!((name.to_string(), steps.len()), (".".to_string(), 0));
        let title = spec.key_paths_for(&Path::parse("ROOT/Record/Title"));
        assert_eq!(title.unwrap().len(), 0);
    }
}
