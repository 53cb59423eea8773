//! File-driven server configuration with startup validation.
//!
//! The format is deliberately plain `key = value` lines — no deps, no
//! surprises, line-numbered errors:
//!
//! ```text
//! # where to listen ("host:0" picks an ephemeral port)
//! listen = 127.0.0.1:7440
//! workers = 4
//! max_frame_len = 8388608
//! read_timeout_ms = 30000
//! write_timeout_ms = 30000
//! allow_shutdown = false
//!
//! # backend: memory (the one tier; the line may be left out)
//! backend = memory
//! indexed = true
//! durable = /var/lib/xarch/journal
//! checkpoint_every = 64
//!
//! # the governing key spec, one grammar line per `spec =` entry
//! spec = (/, (db, {}))
//! spec = (/db, (rec, {id}))
//! ```
//!
//! Every key is validated when the file is parsed, and the key spec is
//! parsed eagerly — a typo fails at startup with a line number, never
//! at first request.

use std::path::{Path, PathBuf};
use std::time::Duration;

use xarch::ArchiveBuilder;
use xarch_keys::KeySpec;
use xarch_proto::MAX_FRAME_LEN;

/// A configuration file problem, with the line it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-indexed line in the config text, when attributable to one.
    pub line: Option<usize>,
    /// What is wrong.
    pub message: String,
}

impl ConfigError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        ConfigError {
            line: Some(line),
            message: message.into(),
        }
    }

    fn general(message: impl Into<String>) -> Self {
        ConfigError {
            line: None,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(n) => write!(f, "config line {n}: {}", self.message),
            None => write!(f, "config: {}", self.message),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A validated server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7440` (`:0` = ephemeral).
    pub listen: String,
    /// Worker threads answering connections (≥ 1).
    pub workers: usize,
    /// Per-request frame-body ceiling in bytes, enforced before
    /// allocation; clamped to the protocol's `MAX_FRAME_LEN`.
    pub max_frame_len: u32,
    /// Socket read deadline per frame (`None` = unbounded).
    pub read_timeout: Option<Duration>,
    /// Socket write deadline per response (`None` = unbounded).
    pub write_timeout: Option<Duration>,
    /// Whether the `Shutdown` verb is honored (off by default).
    pub allow_shutdown: bool,
    /// The governing key spec, already parsed.
    pub spec: KeySpec,
    /// The spec's source text (echoed to clients in the handshake).
    pub spec_text: String,
    /// Maintain the §7 query indexes.
    pub indexed: bool,
    /// Journal path for crash-safe persistence.
    pub durable: Option<PathBuf>,
    /// Checkpoint cadence in committed versions (with `durable`).
    pub checkpoint_every: Option<u32>,
}

impl ServerConfig {
    /// Parses and validates config text. Every error carries the line
    /// that caused it.
    pub fn from_text(text: &str) -> Result<ServerConfig, ConfigError> {
        let mut listen = String::from("127.0.0.1:0");
        let mut workers = 4usize;
        let mut max_frame_len = MAX_FRAME_LEN;
        let mut read_timeout = Some(Duration::from_millis(30_000));
        let mut write_timeout = Some(Duration::from_millis(30_000));
        let mut allow_shutdown = false;
        let mut indexed = false;
        let mut durable = None;
        let mut checkpoint_every = None;
        let mut spec_lines: Vec<(usize, String)> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError::at(
                    n,
                    format!("expected `key = value`, got `{line}`"),
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "listen" => {
                    if value.is_empty() {
                        return Err(ConfigError::at(n, "listen address must not be empty"));
                    }
                    listen = value.to_owned();
                }
                "workers" => {
                    workers = parse_num(n, key, value)?;
                    if workers == 0 {
                        return Err(ConfigError::at(n, "workers must be at least 1"));
                    }
                }
                "max_frame_len" => {
                    let v: u64 = parse_num(n, key, value)?;
                    if v < 64 {
                        return Err(ConfigError::at(
                            n,
                            "max_frame_len below 64 bytes cannot carry a handshake",
                        ));
                    }
                    max_frame_len =
                        u32::try_from(v.min(u64::from(MAX_FRAME_LEN))).unwrap_or(MAX_FRAME_LEN);
                }
                "read_timeout_ms" => read_timeout = parse_timeout(n, key, value)?,
                "write_timeout_ms" => write_timeout = parse_timeout(n, key, value)?,
                "allow_shutdown" => allow_shutdown = parse_bool(n, key, value)?,
                "indexed" => indexed = parse_bool(n, key, value)?,
                "backend" => {
                    if value != "memory" {
                        return Err(ConfigError::at(
                            n,
                            format!("unknown backend `{value}` (expected memory)"),
                        ));
                    }
                }
                "durable" => {
                    if value.is_empty() {
                        return Err(ConfigError::at(n, "durable path must not be empty"));
                    }
                    durable = Some(PathBuf::from(value));
                }
                "checkpoint_every" => {
                    let v: u32 = parse_num(n, key, value)?;
                    checkpoint_every = (v > 0).then_some(v);
                }
                "spec" => spec_lines.push((n, value.to_owned())),
                "spec_file" => {
                    let loaded = std::fs::read_to_string(value).map_err(|e| {
                        ConfigError::at(n, format!("cannot read spec_file `{value}`: {e}"))
                    })?;
                    for l in loaded.lines() {
                        let l = l.trim();
                        if !l.is_empty() && !l.starts_with('#') {
                            spec_lines.push((n, l.to_owned()));
                        }
                    }
                }
                other => {
                    return Err(ConfigError::at(n, format!("unknown key `{other}`")));
                }
            }
        }

        if spec_lines.is_empty() {
            return Err(ConfigError::general(
                "no key spec: add at least one `spec = (...)` line (or a spec_file)",
            ));
        }
        let first_spec_line = spec_lines.first().map(|(n, _)| *n).unwrap_or(0);
        let spec_text = spec_lines
            .iter()
            .map(|(_, l)| l.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        let spec = KeySpec::parse(&spec_text)
            .map_err(|e| ConfigError::at(first_spec_line, format!("invalid key spec: {e}")))?;
        if checkpoint_every.is_some() && durable.is_none() {
            return Err(ConfigError::general(
                "checkpoint_every is set but durable is not: checkpoints need a journal",
            ));
        }

        Ok(ServerConfig {
            listen,
            workers,
            max_frame_len,
            read_timeout,
            write_timeout,
            allow_shutdown,
            spec,
            spec_text,
            indexed,
            durable,
            checkpoint_every,
        })
    }

    /// Reads and validates a config file.
    pub fn from_file(path: impl AsRef<Path>) -> Result<ServerConfig, ConfigError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::general(format!("cannot read `{}`: {e}", path.display())))?;
        ServerConfig::from_text(&text)
    }

    /// The [`ArchiveBuilder`] this configuration describes. The server
    /// calls `try_build_served` on it; tests can build the same store
    /// locally to compare answers.
    pub fn builder(&self) -> ArchiveBuilder {
        let mut b = ArchiveBuilder::new(self.spec.clone());
        if self.indexed {
            b = b.with_index();
        }
        if let Some(path) = &self.durable {
            b = b.durable(path.clone());
        }
        if let Some(n) = self.checkpoint_every {
            b = b.checkpoint_every(n);
        }
        b
    }
}

fn parse_num<T: std::str::FromStr>(n: usize, key: &str, value: &str) -> Result<T, ConfigError> {
    value.trim().parse().map_err(|_| {
        ConfigError::at(
            n,
            format!("{key} wants a non-negative integer, got `{value}`"),
        )
    })
}

fn parse_bool(n: usize, key: &str, value: &str) -> Result<bool, ConfigError> {
    match value {
        "true" | "yes" | "on" => Ok(true),
        "false" | "no" | "off" => Ok(false),
        other => Err(ConfigError::at(
            n,
            format!("{key} wants true/false, got `{other}`"),
        )),
    }
}

/// `0` disables the deadline; anything else is milliseconds.
fn parse_timeout(n: usize, key: &str, value: &str) -> Result<Option<Duration>, ConfigError> {
    let ms: u64 = parse_num(n, key, value)?;
    Ok((ms > 0).then(|| Duration::from_millis(ms)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# a comment
listen = 127.0.0.1:0
workers = 2
max_frame_len = 65536
read_timeout_ms = 100
write_timeout_ms = 0
allow_shutdown = yes
backend = memory
indexed = off
spec = (/, (db, {}))
spec = (/db, (rec, {id}))
";

    #[test]
    fn parses_a_full_config() {
        let cfg = ServerConfig::from_text(GOOD).unwrap();
        assert_eq!(cfg.listen, "127.0.0.1:0");
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.max_frame_len, 65536);
        assert_eq!(cfg.read_timeout, Some(Duration::from_millis(100)));
        assert_eq!(cfg.write_timeout, None, "0 disables the deadline");
        assert!(cfg.allow_shutdown);
        assert!(!cfg.indexed);
        assert!(cfg.spec_text.contains("rec"));
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = ServerConfig::from_text("spec = (/, (db, {}))\n").unwrap();
        assert_eq!(cfg.workers, 4);
        assert!(!cfg.allow_shutdown);
        assert_eq!(cfg.max_frame_len, MAX_FRAME_LEN);
    }

    #[test]
    fn every_bad_line_reports_its_number() {
        let cases = [
            ("listen 127.0.0.1\n", 1),
            ("workers = zero\nspec = x\n", 1),
            ("workers = 0\n", 1),
            ("\nmax_frame_len = 3\n", 2),
            ("backend = florp\n", 1),
            ("backend = chunked:0\n", 1),
            ("backend = chunked:4\n", 1),
            ("allow_shutdown = maybe\n", 1),
            ("mystery = 1\n", 1),
            ("spec = this is not a grammar\n", 1),
            ("durable = \n", 1),
        ];
        for (text, line) in cases {
            let err = ServerConfig::from_text(text).unwrap_err();
            assert_eq!(err.line, Some(line), "{text:?} → {err}");
        }
    }

    #[test]
    fn extmem_is_an_unknown_backend() {
        let err = ServerConfig::from_text("backend = extmem\nspec = (/, (db, {}))\n").unwrap_err();
        assert_eq!(err.line, Some(1), "{err}");
        assert!(err.message.contains("unknown backend `extmem`"), "{err}");
        assert!(err.message.contains("(expected memory)"), "{err}");
    }

    #[test]
    fn missing_spec_and_orphan_checkpoint_are_rejected() {
        let err = ServerConfig::from_text("workers = 2\n").unwrap_err();
        assert!(err.message.contains("spec"), "{err}");
        let err =
            ServerConfig::from_text("spec = (/, (db, {}))\ncheckpoint_every = 8\n").unwrap_err();
        assert!(err.message.contains("journal"), "{err}");
    }

    #[test]
    fn builder_reflects_the_backend_axes() {
        use xarch::StoreReader;
        let cfg = ServerConfig::from_text(GOOD).unwrap();
        // builds without error — the axes compose
        let (handle, _obs) = cfg.builder().try_build_served().unwrap();
        assert_eq!(handle.latest(), 0);
    }
}
