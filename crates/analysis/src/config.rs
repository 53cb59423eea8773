//! Rule identities and per-rule, per-path configuration.
//!
//! The project policy lives here as data: every rule carries a path scope
//! (prefix include/exclude lists over workspace-relative `/`-separated
//! paths), so invariants bind exactly where the architecture demands them
//! — panic-freedom on the decode/recovery modules, cast-safety on the
//! on-disk arithmetic, the contract rules everywhere.

/// The invariants the analyzer enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!`/slice-indexing in decode/recovery code: corruption
    /// must surface as `StoreError::Corrupt`, never a panic.
    PanicFreedom,
    /// No `RwLock`/`Mutex` guard binding held across an
    /// `fsync`/`sync_all`/`sync_data` call or a `.snapshot()`
    /// construction: a reader stall must never wait on disk.
    LockDiscipline,
    /// No truncating `as` casts (to `u8`/`u16`/`u32`/`usize`/…) in
    /// offset/length arithmetic: use `try_into`/checked conversions.
    CastSafety,
    /// Every `unsafe` token carries a `// SAFETY:` comment.
    UnsafeAudit,
    /// No ad-hoc `Instant::now()` timing or `eprintln!`/`eprint!` event
    /// logging in non-test library code: operations are timed through
    /// `xarch_obs` timers/spans and events flow through the `Tracer`, so
    /// every measurement lands in the registry instead of vanishing into
    /// a local variable or the console.
    ObsDiscipline,
    /// No function that calls itself on a path untrusted bytes reach: a
    /// stack overflow is an abort, not a panic or an error. Exempt only
    /// with `xarch-allow: recursion -- bounded by <const>`.
    Recursion,
    /// Meta-rule: `xarch-allow` comments must be well-formed and used.
    Suppression,
}

impl Rule {
    /// The six path-scoped invariant rules (excludes the suppression
    /// meta-rule, which is always active).
    pub const CHECKABLE: [Rule; 6] = [
        Rule::PanicFreedom,
        Rule::LockDiscipline,
        Rule::CastSafety,
        Rule::UnsafeAudit,
        Rule::ObsDiscipline,
        Rule::Recursion,
    ];

    /// The rule's stable name — used in diagnostics and in
    /// `// xarch-allow: <name> -- <reason>` suppression comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicFreedom => "panic-freedom",
            Rule::LockDiscipline => "lock-discipline",
            Rule::CastSafety => "cast-safety",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::ObsDiscipline => "obs-discipline",
            Rule::Recursion => "recursion",
            Rule::Suppression => "suppression",
        }
    }

    /// Parses a rule name as written in a suppression comment.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "panic-freedom" => Some(Rule::PanicFreedom),
            "lock-discipline" => Some(Rule::LockDiscipline),
            "cast-safety" => Some(Rule::CastSafety),
            "unsafe-audit" => Some(Rule::UnsafeAudit),
            "obs-discipline" => Some(Rule::ObsDiscipline),
            "recursion" => Some(Rule::Recursion),
            _ => None,
        }
    }

    /// Whether the rule also applies inside `#[cfg(test)]` / `#[test]`
    /// regions. Tests may unwrap and index freely; undocumented `unsafe`
    /// is never fine.
    pub fn applies_in_tests(self) -> bool {
        matches!(self, Rule::UnsafeAudit)
    }
}

/// A path scope: workspace-relative prefix matching. An empty `include`
/// list means "everywhere"; `exclude` wins over `include`.
#[derive(Debug, Clone, Default)]
pub struct PathFilter {
    pub include: Vec<String>,
    pub exclude: Vec<String>,
}

impl PathFilter {
    /// Scope matching everything.
    pub fn everywhere() -> Self {
        Self::default()
    }

    /// Scope matching only the given prefixes.
    pub fn only<I: IntoIterator<Item = S>, S: Into<String>>(prefixes: I) -> Self {
        Self {
            include: prefixes.into_iter().map(Into::into).collect(),
            exclude: Vec::new(),
        }
    }

    /// Whether `path` (workspace-relative, `/`-separated) is in scope.
    pub fn matches(&self, path: &str) -> bool {
        if self.exclude.iter().any(|p| path.starts_with(p.as_str())) {
            return false;
        }
        self.include.is_empty() || self.include.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// The analyzer's configuration: which rules run where, and which
/// directories are never scanned at all.
#[derive(Debug, Clone)]
pub struct Config {
    pub rules: Vec<(Rule, PathFilter)>,
    /// Path prefixes excluded from scanning entirely (vendored deps,
    /// build output, the analyzer's own intentionally-violating fixtures).
    pub skip: Vec<String>,
}

impl Config {
    /// The **project policy** — the scopes CI enforces on this workspace.
    ///
    /// * `panic-freedom` binds to the storage decode/recovery modules,
    ///   the checksum every frame and block is verified with, the bit
    ///   reader and LZSS decoder a stored block's bytes pass
    ///   through (the encoder, which reads only its caller's bytes, is
    ///   a file of its own outside the scope), the external-memory event
    ///   decoder, the wire-protocol crate, and the server's request
    ///   loop: every path a corrupted or hostile byte can reach must
    ///   answer with a typed error, never a panic —
    ///   on disk that is `StoreError::Corrupt`; on the wire it is a
    ///   `FrameError`/`DecodeError` or a structured error response.
    /// * `cast-safety` binds to the whole storage crate, where offsets and
    ///   lengths cross between `u64` file arithmetic and in-memory sizes.
    /// * `lock-discipline` and `unsafe-audit` bind workspace-wide.
    /// * `obs-discipline` binds to the library crates and the facade —
    ///   not to `crates/obs` (it *implements* the sanctioned timing), not
    ///   to `crates/analysis` (a CLI reporting to a console), not to
    ///   `crates/bench` (measurement harnesses own their stopwatches),
    ///   and not to the `xarch-server` binary entry point (startup and
    ///   usage errors go to stderr before any observability exists).
    ///   Examples and integration tests fall outside the include list.
    /// * `recursion` binds where `panic-freedom` does, plus the two other
    ///   places a tree is built from untrusted bytes: the XML parser and
    ///   the checkpoint state decoder.
    pub fn project_policy() -> Self {
        const UNTRUSTED_BYTES: [&str; 13] = [
            "crates/storage/src/block.rs",
            "crates/storage/src/payload.rs",
            "crates/storage/src/superblock.rs",
            "crates/storage/src/durable.rs",
            "crates/storage/src/checkpoint.rs",
            "crates/storage/src/cold.rs",
            "crates/storage/src/mmap.rs",
            "crates/storage/src/crc.rs",
            "crates/compress/src/bitio.rs",
            "crates/compress/src/lzss/decode.rs",
            "crates/extmem/src/events.rs",
            "crates/proto/src/",
            "crates/server/src/serve.rs",
        ];
        let tree_builders = ["crates/xml/src/parser.rs", "crates/core/src/state.rs"];
        Self {
            rules: vec![
                (Rule::PanicFreedom, PathFilter::only(UNTRUSTED_BYTES)),
                (
                    Rule::Recursion,
                    PathFilter::only(UNTRUSTED_BYTES.into_iter().chain(tree_builders)),
                ),
                (Rule::LockDiscipline, PathFilter::everywhere()),
                (Rule::CastSafety, PathFilter::only(["crates/storage/src/"])),
                (Rule::UnsafeAudit, PathFilter::everywhere()),
                (
                    Rule::ObsDiscipline,
                    PathFilter {
                        include: vec!["src/".into(), "crates/".into()],
                        exclude: vec![
                            "crates/obs/".into(),
                            "crates/analysis/".into(),
                            "crates/bench/".into(),
                            "crates/server/src/main.rs".into(),
                        ],
                    },
                ),
            ],
            skip: Self::default_skip(),
        }
    }

    /// One rule, scoped everywhere — what the golden-fixture tests use to
    /// exercise a single rule against a snippet.
    pub fn single(rule: Rule) -> Self {
        Self {
            rules: vec![(rule, PathFilter::everywhere())],
            skip: Self::default_skip(),
        }
    }

    fn default_skip() -> Vec<String> {
        [
            "vendor/",
            "target/",
            ".git/",
            // the fixtures violate rules on purpose
            "crates/analysis/tests/fixtures/",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    /// The scope for `rule`, if the rule is enabled.
    pub fn scope(&self, rule: Rule) -> Option<&PathFilter> {
        self.rules.iter().find(|(r, _)| *r == rule).map(|(_, f)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_filter_prefix_semantics() {
        let f = PathFilter::only(["crates/storage/src/"]);
        assert!(f.matches("crates/storage/src/block.rs"));
        assert!(!f.matches("crates/extmem/src/events.rs"));
        assert!(PathFilter::everywhere().matches("anything/at/all.rs"));
        let mut f = PathFilter::everywhere();
        f.exclude.push("vendor/".into());
        assert!(!f.matches("vendor/rand/src/lib.rs"));
    }

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::CHECKABLE {
            assert_eq!(Rule::parse(r.name()), Some(r));
        }
        assert_eq!(Rule::parse("no-such-rule"), None);
    }

    #[test]
    fn policy_scopes_bind_where_the_architecture_demands() {
        let p = Config::project_policy();
        let pf = p.scope(Rule::PanicFreedom).unwrap();
        assert!(pf.matches("crates/storage/src/block.rs"));
        assert!(
            pf.matches("crates/storage/src/crc.rs"),
            "reads every byte a peer sends"
        );
        assert!(pf.matches("crates/extmem/src/events.rs"));
        assert!(pf.matches("crates/proto/src/msg.rs"), "wire decode paths");
        assert!(pf.matches("crates/proto/src/frame.rs"));
        assert!(pf.matches("crates/server/src/serve.rs"), "request loop");
        assert!(
            !pf.matches("crates/server/src/main.rs"),
            "the binary may expect() on startup"
        );
        assert!(!pf.matches("crates/core/src/archive.rs"));
        let rec = p.scope(Rule::Recursion).unwrap();
        assert!(
            rec.matches("crates/storage/src/payload.rs"),
            "every decode path"
        );
        assert!(rec.matches("crates/xml/src/parser.rs"));
        assert!(rec.matches("crates/core/src/state.rs"));
        assert!(!pf.matches("crates/xml/src/parser.rs"));
        assert!(!rec.matches("crates/core/src/merge.rs"));
        let cs = p.scope(Rule::CastSafety).unwrap();
        assert!(cs.matches("crates/storage/src/crc.rs"));
        assert!(!cs.matches("src/handle.rs"));
        assert!(p.scope(Rule::UnsafeAudit).unwrap().matches("src/handle.rs"));
        let od = p.scope(Rule::ObsDiscipline).unwrap();
        assert!(od.matches("src/handle.rs"));
        assert!(od.matches("crates/storage/src/durable.rs"));
        assert!(
            !od.matches("crates/obs/src/metrics.rs"),
            "obs implements the timers"
        );
        assert!(!od.matches("crates/analysis/src/main.rs"), "the CLI prints");
        assert!(
            od.matches("crates/server/src/serve.rs"),
            "servers report through obs"
        );
        assert!(
            !od.matches("crates/server/src/main.rs"),
            "startup errors print to stderr"
        );
        assert!(
            !od.matches("crates/bench/src/figures.rs"),
            "benches stopwatch"
        );
        assert!(
            !od.matches("examples/bulk_load.rs"),
            "examples narrate freely"
        );
        assert!(!od.matches("tests/concurrency.rs"));
    }
}
