//! The snapshot oracle the shared-read stress tests check against: a
//! fixed version sequence, the answers a serial replay gives at every pin
//! level, and the comparison of one snapshot with them. Shared by
//! `tests/concurrency.rs` and the handle's unit tests (`src/handle.rs`):
//! both include this file by path (the latter through `src/lib.rs`).

use xarch::core::KeyQuery;
use xarch::keys::KeySpec;
use xarch::xml::parse;
use xarch::{RangeEntry, StoreReader, VersionStore};

/// Versions the writer merges (version `EMPTY_VERSION` is archived
/// empty); record `r` is present in version `v` iff `(v + r) % 4 != 0`,
/// so records churn — inserted, deleted, reinserted — across the run.
pub const VERSIONS: u32 = 12;
pub const EMPTY_VERSION: u32 = 7;
pub const RECORDS: u32 = 8;

pub fn spec() -> KeySpec {
    KeySpec::parse("(/, (db, {}))\n(/db, (rec, {id}))\n(/db/rec, (val, {}))").unwrap()
}

pub fn version_doc(v: u32) -> Option<xarch::xml::Document> {
    if v == EMPTY_VERSION {
        return None;
    }
    let mut s = String::from("<db>");
    for r in 1..=RECORDS {
        if (v + r).is_multiple_of(4) {
            continue;
        }
        s.push_str(&format!("<rec><id>{r}</id><val>r{r}v{v}</val></rec>"));
    }
    s.push_str("</db>");
    Some(parse(&s).unwrap())
}

pub fn queries() -> Vec<Vec<KeyQuery>> {
    let rec = |id: &str| {
        vec![
            KeyQuery::new("db"),
            KeyQuery::new("rec").with_text("id", id),
        ]
    };
    vec![
        rec("1"),
        rec("2"),
        rec("99"), // never archived
        vec![],    // the synthetic root
    ]
}

pub fn compact(doc: &xarch::xml::Document) -> String {
    xarch::xml::writer::to_compact_string(doc)
}

/// Everything a snapshot pinned at `P` must answer, recorded from the
/// serial store the moment version `P` committed. Index 0 is the empty
/// archive.
pub struct Expected {
    /// `bytes[v]`: the streamed serialization of version `v` (`None` for
    /// empty versions). Recorded once — committed versions are immutable.
    pub bytes: Vec<Option<Vec<u8>>>,
    /// `as_of[qi][v]`: the addressed subtree at version `v`, compact.
    pub as_of: Vec<Vec<Option<String>>>,
    /// `history[qi][pin]`: the existence set (displayed) at each pin.
    pub history: Vec<Vec<Option<String>>>,
    /// `range[pin]`: keyed children of `<db>` over the whole window.
    pub range: Vec<Vec<RangeEntry>>,
}

/// Grows `store` through the full version sequence, recording the
/// expected answer set at every pin level.
pub fn serial_replay(store: &mut dyn VersionStore) -> Expected {
    let qs = queries();
    let prefix = [KeyQuery::new("db")];
    let mut exp = Expected {
        bytes: vec![None],
        as_of: vec![vec![None]; qs.len()],
        history: vec![Vec::new(); qs.len()],
        range: Vec::new(),
    };
    // pin 0: the empty archive
    for (qi, q) in qs.iter().enumerate() {
        exp.history[qi].push(store.history(q).unwrap().map(|t| t.to_string()));
    }
    exp.range.push(store.range(&prefix, 1..=u32::MAX).unwrap());
    for v in 1..=VERSIONS {
        match version_doc(v) {
            Some(doc) => assert_eq!(store.add_version(&doc).unwrap(), v),
            None => assert_eq!(store.add_empty_version().unwrap(), v),
        }
        let mut bytes = Vec::new();
        let wrote = store.retrieve_into(v, &mut bytes).unwrap();
        exp.bytes.push(wrote.then_some(bytes));
        for (qi, q) in qs.iter().enumerate() {
            exp.as_of[qi].push(store.as_of(q, v).unwrap().map(|d| compact(&d)));
            exp.history[qi].push(store.history(q).unwrap().map(|t| t.to_string()));
        }
        exp.range.push(store.range(&prefix, 1..=u32::MAX).unwrap());
    }
    exp
}

/// One reader thread: snapshot, then interrogate it and compare every
/// answer with the serial recordings at the pinned version.
pub fn check_snapshot(label: &str, snap: &xarch::Snapshot, exp: &Expected) {
    let p = snap.pinned();
    assert_eq!(snap.latest(), p, "{label}");
    let qs = queries();

    // reads beyond the pin never leak, even while the writer is ahead
    assert!(!snap.has_version(p + 1), "{label} pin {p}");
    assert!(snap.retrieve(p + 1).unwrap().is_none(), "{label} pin {p}");
    let mut sink = Vec::new();
    assert!(!snap.retrieve_into(p + 1, &mut sink).unwrap());

    // full retrieval: byte-identical to the serial replay
    for v in 1..=p {
        let mut got = Vec::new();
        let wrote = snap.retrieve_into(v, &mut got).unwrap();
        let want = &exp.bytes[v as usize];
        assert_eq!(wrote, want.is_some(), "{label} retrieve v{v} pin {p}");
        if let Some(want) = want {
            assert_eq!(&got, want, "{label} retrieve v{v} pin {p}");
        }
    }

    for (qi, q) in qs.iter().enumerate() {
        // history pinned: equal to what the serial store said at pin P
        let got = snap.history(q).unwrap().map(|t| t.to_string());
        assert_eq!(
            got, exp.history[qi][p as usize],
            "{label} history q{qi} pin {p}"
        );
        // as_of at every version up to the pin
        for v in 1..=p {
            let got = snap.as_of(q, v).unwrap().map(|d| compact(&d));
            assert_eq!(
                got, exp.as_of[qi][v as usize],
                "{label} as_of q{qi} v{v} pin {p}"
            );
        }
        // as_of beyond the pin is absent
        assert!(snap.as_of(q, p + 1).unwrap().is_none(), "{label} q{qi}");
    }

    // range over an unbounded window clamps to the pin
    let got = snap.range(&[KeyQuery::new("db")], 1..=u32::MAX).unwrap();
    assert_eq!(got, exp.range[p as usize], "{label} range pin {p}");

    assert_eq!(snap.stats().unwrap().versions, p, "{label} stats pin {p}");
}
