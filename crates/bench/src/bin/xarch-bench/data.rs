//! Inputs: everything the program under test ever sees is generated here
//! from `--seed` — the OMIM-like release sequence, the fixed operation
//! scripts, and the server configuration text.

use std::path::Path;

use xarch::core::KeyQuery;
use xarch::datagen::omim::OmimGen;
use xarch::xml::writer::to_compact_string;
use xarch::xml::Document;
use xarch_server::ServerConfig;

/// Records in the first release (each release then grows by ≈ 0.2 %).
pub const RECORDS: usize = 300;
/// Versions the hot workloads hold.
pub const HOT_VERSIONS: usize = 64;
/// Width of a `range` query's version window.
pub const RANGE_WINDOW: u32 = 5;

/// The OMIM key specification, one `spec =` line per rule (the same
/// rules `xarch::datagen::omim::omim_spec` parses).
const SPEC_LINES: [&str; 9] = [
    "(/, (ROOT, {}))",
    "(/ROOT, (Record, {Num}))",
    "(/ROOT/Record, (Title, {}))",
    "(/ROOT/Record, (AlternativeTitle, {\\e}))",
    "(/ROOT/Record, (Text, {}))",
    "(/ROOT/Record, (Contributors, {Name, CNtype, Date/Month, Date/Day, Date/Year}))",
    "(/ROOT/Record/Contributors, (Date, {}))",
    "(/ROOT/Record, (Creation_Date, {Name, Date/Month, Date/Day, Date/Year}))",
    "(/ROOT/Record/Creation_Date, (Date, {}))",
];

/// splitmix64: the scripts' only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `0..n` in a uniformly random order.
    pub fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Draws `0..n` in one shuffled order, over and over: every value comes
/// up equally often, so two seeds' scripts differ in order but hardly in
/// the work they add up to (with keys sampled with replacement, ten seeds
/// spread 4.3–6.4 % where one seed spread 2.7–4.0 %).
pub struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn new(rng: &mut Rng, n: usize) -> Self {
        Deck {
            order: rng.shuffled(n),
            next: 0,
        }
    }

    pub fn draw(&mut self) -> usize {
        let value = self.order[self.next % self.order.len()];
        self.next += 1;
        value
    }
}

/// The generated release sequence, as documents and as the compact XML
/// texts a curator sends over the wire.
pub struct Releases {
    pub docs: Vec<Document>,
    pub texts: Vec<String>,
}

impl Releases {
    pub fn generate(seed: u64, versions: usize) -> Self {
        let docs = OmimGen::new(seed).sequence(RECORDS, versions);
        let texts = docs.iter().map(to_compact_string).collect();
        Releases { docs, texts }
    }

    /// Σ compact-XML bytes of the first `n` releases: the "user bytes"
    /// every stored-bytes ratio divides by.
    pub fn user_bytes(&self, n: usize) -> u64 {
        self.texts[..n].iter().map(|t| t.len() as u64).sum()
    }

    /// The `Num` key of every record in the newest release.
    pub fn record_keys(&self) -> Vec<String> {
        let doc = self.docs.last().expect("at least one release");
        doc.child_elements(doc.root(), "Record")
            .filter_map(|r| doc.first_child_element(r, "Num"))
            .map(|num| doc.text_content(num))
            .collect()
    }
}

/// The key-query path of one record.
pub fn record_path(key: &str) -> Vec<KeyQuery> {
    vec![
        KeyQuery::new("ROOT"),
        KeyQuery::new("Record").with_text("Num", key),
    ]
}

/// One point/scan operation of script `Q`.
#[derive(Clone)]
pub enum Op {
    AsOf {
        steps: Vec<KeyQuery>,
        v: u32,
    },
    Diff {
        steps: Vec<KeyQuery>,
        v1: u32,
        v2: u32,
    },
    Range {
        prefix: Vec<KeyQuery>,
        lo: u32,
        hi: u32,
    },
    HistoryValues {
        steps: Vec<KeyQuery>,
    },
}

/// The five query kinds per-layer metrics are broken down by.
pub const KINDS: [&str; 5] = ["retrieve", "as_of", "history_values", "range", "diff"];

impl Op {
    /// Index into [`KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Op::AsOf { .. } => 1,
            Op::HistoryValues { .. } => 2,
            Op::Range { .. } => 3,
            Op::Diff { .. } => 4,
        }
    }
}

/// Script `Q`: per 16 operations 8 `as_of`, 4 `diff`, 3 `range` over a
/// [`RANGE_WINDOW`]-version window and 1 `history_values`. Each kind of
/// operation draws its record keys and versions uniformly, from decks of
/// its own.
pub fn query_script(rng: &mut Rng, keys: &[String], latest: u32, len: usize) -> Vec<Op> {
    let mut key_decks: Vec<Deck> = KINDS.iter().map(|_| Deck::new(rng, keys.len())).collect();
    let mut version_decks: Vec<Deck> = KINDS
        .iter()
        .map(|_| Deck::new(rng, latest as usize))
        .collect();
    (0..len)
        .map(|i| {
            // index into KINDS: as_of, diff, range, history_values
            let kind = match i % 16 {
                0..=7 => 1,
                8..=11 => 4,
                12..=14 => 3,
                _ => 2,
            };
            let steps = record_path(&keys[key_decks[kind].draw()]);
            let mut version = || 1 + version_decks[kind].draw() as u32;
            let v = version();
            match kind {
                1 => Op::AsOf { steps, v },
                4 => Op::Diff {
                    steps,
                    v1: v,
                    v2: version(),
                },
                3 => {
                    let lo = v.min(latest.saturating_sub(RANGE_WINDOW - 1).max(1));
                    Op::Range {
                        prefix: vec![KeyQuery::new("ROOT")],
                        lo,
                        hi: (lo + RANGE_WINDOW - 1).min(latest),
                    }
                }
                _ => Op::HistoryValues { steps },
            }
        })
        .collect()
}

/// Script `T`: uniform versions for whole-version retrieval.
pub fn retrieve_script(rng: &mut Rng, latest: u32, len: usize) -> Vec<u32> {
    let mut versions = Deck::new(rng, latest as usize);
    (0..len).map(|_| 1 + versions.draw() as u32).collect()
}

/// A server configuration over the OMIM spec. `durable` journals to that
/// path with the default options — `sync = true`, Raw codec.
pub fn server_config(
    workers: usize,
    indexed: bool,
    durable: Option<&Path>,
    checkpoint_every: Option<u32>,
) -> ServerConfig {
    let mut text = format!("listen = 127.0.0.1:0\nworkers = {workers}\nindexed = {indexed}\n");
    for line in SPEC_LINES {
        text.push_str(&format!("spec = {line}\n"));
    }
    let mut cfg = ServerConfig::from_text(&text).expect("benchmark server configuration parses");
    cfg.durable = durable.map(Path::to_path_buf);
    cfg.checkpoint_every = checkpoint_every;
    cfg
}

/// Server workers where two connections are open at once (`mixed`'s
/// writer and reader): `min(nproc, 2)`.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}
