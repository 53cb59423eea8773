//! Random edit scripts over a model database, rendered as one version
//! per script: the inputs that hold Nested Merge to its references.
//! `merge::skip_tests` holds the no-op rule to the full walk with them,
//! and `tests/index_oracle.rs` (which includes this file by path) holds
//! the §7 index refresh to a full build.

use xarch_xml::{parse, Document};

/// One record of the model database the edit scripts evolve.
#[derive(Clone)]
struct Rec {
    id: u8,
    /// The frontier content of `val`: XML, may carry elements with
    /// attributes and mixed text.
    val: String,
    /// `val` before the latest modification, for A→B→A.
    was: String,
    tels: Vec<u8>,
    /// `grp/item/v` contents by item key.
    items: Vec<(u8, u8)>,
    /// Text directly under `rec` and an element no key covers.
    loose: Option<u8>,
    /// Rotates the order the children are written in.
    turn: usize,
}

#[derive(Default)]
struct Db {
    live: Vec<Rec>,
    gone: Vec<Rec>,
    note: Option<u8>,
    empty: bool,
}

const VALS: [&str; 6] = [
    "a",
    "b",
    "<i>x</i><i>y</i>",
    "<i>x</i>",
    "x<b k=\"1\">y</b>z",
    "x<b k=\"2\">y</b>z",
];

impl Db {
    /// Applies one edit. `a` picks the edit, `b` its operand.
    fn edit(&mut self, a: u8, b: u8) {
        let n = self.live.len();
        let at = usize::from(b) % n.max(1);
        match a % 12 {
            // insert — or, the id being taken, modify
            0 | 1 => match self.live.iter().position(|r| r.id == b % 16) {
                None => self.live.push(Rec {
                    id: b % 16,
                    val: VALS[usize::from(b) % 6].to_owned(),
                    was: VALS[usize::from(b / 6) % 6].to_owned(),
                    tels: vec![b % 3],
                    items: vec![(b % 2, b % 5)],
                    loose: None,
                    turn: 0,
                }),
                Some(p) => self.live[p].val = VALS[usize::from(b / 16) % 6].to_owned(),
            },
            // delete
            2 if n > 0 => {
                let r = self.live.remove(at);
                self.gone.push(r);
            }
            // re-insert after absence, as it was
            3 if !self.gone.is_empty() => {
                let r = self.gone.remove(usize::from(b) % self.gone.len());
                if self.live.iter().all(|l| l.id != r.id) {
                    self.live.push(r);
                }
            }
            // modify, remembering what it was; revert
            4 if n > 0 => {
                let r = &mut self.live[at];
                r.was = std::mem::replace(&mut r.val, VALS[usize::from(b / 16) % 6].to_owned());
            }
            5 if n > 0 => {
                let r = &mut self.live[at];
                std::mem::swap(&mut r.val, &mut r.was);
            }
            // an attribute beneath the frontier, and nothing else
            6 if n > 0 => {
                let r = &mut self.live[at];
                r.val = VALS[if r.val == VALS[4] { 5 } else { 4 }].to_owned();
            }
            // reorder siblings, content kept: records, then children
            7 if n > 1 => self.live.rotate_left(at.max(1)),
            8 if n > 0 => self.live[at].turn += 1,
            // keyed children come and go
            9 if n > 0 => {
                let r = &mut self.live[at];
                match r.tels.iter().position(|&t| t == b % 3) {
                    Some(p) => {
                        r.tels.remove(p);
                    }
                    None => r.tels.push(b % 3),
                }
                match r.items.iter_mut().find(|i| i.0 == b % 2) {
                    Some(i) => i.1 = b % 5,
                    None => r.items.push((b % 2, b % 5)),
                }
            }
            // mixed content no key covers
            10 if n > 0 => {
                let r = &mut self.live[at];
                r.loose = if r.loose == Some(b % 3) {
                    None
                } else {
                    Some(b % 3)
                };
            }
            10 => {
                self.note = if self.note == Some(b % 3) {
                    None
                } else {
                    Some(b % 3)
                }
            }
            11 => self.empty = true,
            _ => {}
        }
    }

    /// The current state as a version, the one-shot `empty` consumed.
    fn render(&mut self) -> Document {
        if std::mem::take(&mut self.empty) {
            return parse("<db/>").unwrap();
        }
        let mut out = String::from("<db>");
        for r in &self.live {
            let mut parts = vec![
                format!("<id>{}</id>", r.id),
                format!("<val>{}</val>", r.val),
            ];
            parts.extend(r.tels.iter().map(|t| format!("<tel>{t}</tel>")));
            if !r.items.is_empty() {
                let items: String = (r.items.iter())
                    .map(|(k, v)| format!("<item><k>{k}</k><v>{v}</v></item>"))
                    .collect();
                parts.push(format!("<grp><name>g</name>{items}</grp>"));
            }
            if let Some(l) = r.loose {
                parts.push(format!("loose{l}<note>n{l}</note>"));
            }
            let by = r.turn % parts.len();
            parts.rotate_left(by);
            out.push_str("<rec>");
            out.extend(parts);
            out.push_str("</rec>");
        }
        if let Some(n) = self.note {
            out.push_str(&format!("<note>n{n}</note>"));
        }
        out.push_str("</db>");
        parse(&out).unwrap()
    }
}

/// The key spec the rendered versions are written against.
pub(crate) const SPEC: &str = "(/, (db, {}))\n\
     (/db, (rec, {id}))\n\
     (/db/rec, (val, {}))\n\
     (/db/rec, (tel, {.}))\n\
     (/db/rec, (grp, {name}))\n\
     (/db/rec/grp, (item, {k}))\n\
     (/db/rec/grp/item, (v, {}))";

/// One version per script: each script's `(edit, operand)` pairs applied
/// to the model database in order, then the database rendered. Scripts
/// exercise insert, delete, re-insert after absence, modify and revert,
/// an attribute beneath the frontier, reorders that keep content, empty
/// versions, unkeyed mixed content and versions that change nothing.
pub(crate) fn versions_of(scripts: &[Vec<(u8, u8)>]) -> Vec<Document> {
    let mut db = Db::default();
    (scripts.iter())
        .map(|edits| {
            for &(a, b) in edits {
                db.edit(a, b);
            }
            db.render()
        })
        .collect()
}
