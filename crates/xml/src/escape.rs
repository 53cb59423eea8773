//! Escaping and unescaping of XML character data and attribute values.
//!
//! Supports the five predefined entities (`&lt; &gt; &amp; &quot; &apos;`)
//! and decimal / hexadecimal character references (`&#65;`, `&#x41;`).
//!
//! There is one escaper, `escape_runs`: it finds the escapable bytes of
//! the input — all ASCII, so a multi-byte UTF-8 sequence can never
//! contain one — and hands its sink whole unescaped runs, so text with
//! nothing to escape (nearly all of it) is one copy.
//!
//! It looks at eight bytes per step, with safe `u64` arithmetic (SWAR,
//! "SIMD within a register"): each word, read little-endian so that bit
//! position maps to byte offset on any host, yields in a few operations
//! its *candidates* — a superset of its escapable bytes — and only those
//! are checked exactly, a byte each. Words are taken four at a time while
//! they last, with one branch for the four when none has a candidate; a
//! last, partial word is read overlapping the one before it. A string
//! shorter than one word is checked a byte at a time, which is cheaper
//! there than filling a word.
//!
//! Every XML emitter escapes through it. The `String` sinks
//! ([`escape_text_into`], [`escape_attr_into`]), under the `Document`
//! writer, the canonical form and so key canonicalisation, and the
//! `io::Write` sinks ([`write_text`], [`write_attr`]), under the archive
//! scan and the cold payload renderer, are thin callers.

use std::convert::Infallible;
use std::io::{self, Write};

/// One in every byte of a word.
const ONES: u64 = u64::from_le_bytes([0x01; 8]);
/// The high bit of every byte of a word.
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);

/// The entity `b` is replaced by, if it is escaped: `& < >` always, `"`
/// only when `quote` is set.
#[inline]
fn entity(b: u8, quote: bool) -> Option<&'static str> {
    match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' if quote => Some("&quot;"),
        _ => None,
    }
}

/// The high bit of every zero byte of `x`, and possibly of a byte `0x01`
/// directly above one (the subtraction's borrow runs into it) — never of
/// a byte with its own high bit set.
#[inline]
fn zero_bytes(x: u64) -> u64 {
    x.wrapping_sub(ONES) & !x & HIGHS
}

/// The high bit of every byte of `w` that may be escapable: a superset of
/// `& < >`, and of `"` when `quote` is set. `<` (0x3C) and `>` (0x3E)
/// differ in bit 1 only, so with that bit set in every byte one compare
/// finds both; `"` (0x22) and `&` (0x26) differ in bit 2 only, which is
/// set for attribute values alone.
#[inline]
fn candidates(w: u64, quote: bool) -> u64 {
    let angle = (w | (ONES * 0x02)) ^ (ONES * u64::from(b'>'));
    let fold = if quote { ONES * 0x04 } else { 0 };
    let amp = (w | fold) ^ (ONES * u64::from(b'&'));
    zero_bytes(angle) | zero_bytes(amp)
}

/// The eight bytes of `bytes` from `at` as a word, the first in the low
/// byte.
#[inline]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// The escaper's state over one string: the sink, and where the run not
/// yet handed to it starts.
struct Runs<'a, F> {
    s: &'a str,
    quote: bool,
    run_start: usize,
    sink: F,
}

impl<E, F: FnMut(&str) -> Result<(), E>> Runs<'_, F> {
    /// Hands the sink the run before byte `i`, then `entity` in its place.
    fn escape(&mut self, i: usize, entity: &str) -> Result<(), E> {
        if self.run_start < i {
            (self.sink)(&self.s[self.run_start..i])?;
        }
        (self.sink)(entity)?;
        self.run_start = i + 1;
        Ok(())
    }

    /// Checks each candidate of the word at `at` exactly, in order.
    #[inline]
    fn word(&mut self, at: usize, mut found: u64) -> Result<(), E> {
        while found != 0 {
            let i = at + found.trailing_zeros() as usize / 8;
            if let Some(entity) = entity(self.s.as_bytes()[i], self.quote) {
                self.escape(i, entity)?;
            }
            found &= found - 1;
        }
        Ok(())
    }

    /// Hands the sink the last run.
    #[inline]
    fn finish(mut self) -> Result<(), E> {
        if self.run_start < self.s.len() {
            (self.sink)(&self.s[self.run_start..])?;
        }
        Ok(())
    }
}

/// Feeds `sink` the escaped form of `s` as a sequence of pieces: maximal
/// runs of `s` needing no escape, alternating with entities. `& < >` are
/// always replaced; `"` only when `quote` is set (attribute values, which
/// are written inside double quotes).
#[inline]
fn escape_runs<E>(s: &str, quote: bool, sink: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
    let bytes = s.as_bytes();
    let mut runs = Runs {
        s,
        quote,
        run_start: 0,
        sink,
    };
    if bytes.len() < 8 {
        for (i, &b) in bytes.iter().enumerate() {
            if let Some(entity) = entity(b, quote) {
                runs.escape(i, entity)?;
            }
        }
        return runs.finish();
    }
    // four words a step while they last, branching once when all four
    // are clean; then word by word
    let mut at = 0;
    while at + 32 <= bytes.len() {
        let found = [0, 8, 16, 24].map(|k| candidates(word_at(bytes, at + k), quote));
        if found != [0; 4] {
            for (k, found) in found.into_iter().enumerate() {
                runs.word(at + 8 * k, found)?;
            }
        }
        at += 32;
    }
    while at + 8 <= bytes.len() {
        runs.word(at, candidates(word_at(bytes, at), quote))?;
        at += 8;
    }
    if at < bytes.len() {
        // the last eight bytes, of which only those from `at` are new
        let last = bytes.len() - 8;
        let fresh = !0 << (8 * (at - last));
        runs.word(last, candidates(word_at(bytes, last), quote) & fresh)?;
    }
    runs.finish()
}

#[inline]
fn push_runs(s: &str, quote: bool, out: &mut String) {
    let pushed: Result<(), Infallible> = escape_runs(s, quote, |piece| {
        out.push_str(piece);
        Ok(())
    });
    let Ok(()) = pushed;
}

/// Appends the escaped form of `s` (text-content rules: `& < >` are
/// replaced by entities) to `out`.
#[inline]
pub fn escape_text_into(s: &str, out: &mut String) {
    push_runs(s, false, out);
}

/// Escapes an attribute value for inclusion in double quotes:
/// `& < > "` are replaced by entities.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_attr_into(s, &mut out);
    out
}

/// Appends the escaped form of `s` (attribute rules, double quotes) to `out`.
#[inline]
pub fn escape_attr_into(s: &str, out: &mut String) {
    push_runs(s, true, out);
}

/// Appends one attribute as it stands in an open tag — a space, the name,
/// and the escaped value in double quotes — to `out`: [`write_attr_pair`]
/// for a `String`.
#[inline]
pub fn push_attr_pair(name: &str, value: &str, out: &mut String) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    escape_attr_into(value, out);
    out.push('"');
}

/// Writes the escaped form of `s` (text-content rules) to `out`.
#[inline]
pub fn write_text<W: Write + ?Sized>(s: &str, out: &mut W) -> io::Result<()> {
    escape_runs(s, false, |piece| out.write_all(piece.as_bytes()))
}

/// Writes the escaped form of `s` (attribute rules, double quotes) to `out`.
#[inline]
pub fn write_attr<W: Write + ?Sized>(s: &str, out: &mut W) -> io::Result<()> {
    escape_runs(s, true, |piece| out.write_all(piece.as_bytes()))
}

/// Writes one attribute as it stands in an open tag: a space, the name,
/// and the escaped value in double quotes.
#[inline]
pub fn write_attr_pair<W: Write + ?Sized>(name: &str, value: &str, out: &mut W) -> io::Result<()> {
    out.write_all(b" ")?;
    out.write_all(name.as_bytes())?;
    out.write_all(b"=\"")?;
    write_attr(value, out)?;
    out.write_all(b"\"")
}

/// Resolves a single entity name (the part between `&` and `;`).
///
/// Returns `None` for unknown entities.
pub fn resolve_entity(name: &str) -> Option<char> {
    match name {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let rest = name.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape_text(s: &str) -> String {
        let mut out = String::new();
        escape_text_into(s, &mut out);
        out
    }

    /// The `char`-by-`char` escaper the run-based one replaced.
    fn by_char(s: &str, quote: bool) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' if quote => out.push_str("&quot;"),
                _ => out.push(c),
            }
        }
        out
    }

    #[test]
    fn every_sink_escapes_like_the_char_loop() {
        // escapable bytes first, last, in runs, and adjacent to 2-, 3- and
        // 4-byte sequences; the apostrophe is never escaped
        let cases = [
            "",
            "plain",
            "&",
            "<>",
            "&&&<<<>>>\"\"\"'''",
            "<lead",
            "trail>",
            "a&b<c>d\"e'f",
            "é&é<é>é\"é",
            "&é",
            "é&",
            "€<€>€",
            "\"€\"",
            "😀&😀\"😀<",
            ">😀",
            "é€😀",
            // a word and more: clean words, a special in the overlapped
            // tail, four-word blocks with and without one
            "1234567&",
            "12345678&",
            "&2345678<",
            "no escapes here, and more than four words of text",
            "four clean words, then one: \"x\" & <y> in the last",
            "<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<",
            "=?=?=?=?<=?=?=?=?>=?=?=?=?&=?=?=?=?\"!#%!#%!#%",
            "😀😀😀😀😀😀😀😀&😀😀😀😀😀😀😀😀",
        ];
        for s in cases {
            for quote in [false, true] {
                let want = by_char(s, quote);
                let mut pushed = String::new();
                let mut written = Vec::new();
                if quote {
                    escape_attr_into(s, &mut pushed);
                    write_attr(s, &mut written).unwrap();
                    assert_eq!(escape_attr(s), want);
                } else {
                    escape_text_into(s, &mut pushed);
                    write_text(s, &mut written).unwrap();
                }
                assert_eq!(pushed, want, "{s:?} quote={quote}");
                assert_eq!(written, want.as_bytes(), "{s:?} quote={quote}");
            }
        }
        let mut tag = Vec::new();
        write_attr_pair("k", "a\"b", &mut tag).unwrap();
        assert_eq!(tag, b" k=\"a&quot;b\"");
    }

    /// Both sinks of both modes against [`by_char`].
    fn assert_escapes_like_the_char_loop(s: &str) {
        for quote in [false, true] {
            let want = by_char(s, quote);
            let mut pushed = String::new();
            let mut written = Vec::new();
            if quote {
                escape_attr_into(s, &mut pushed);
                write_attr(s, &mut written).unwrap();
            } else {
                escape_text_into(s, &mut pushed);
                write_text(s, &mut written).unwrap();
            }
            assert_eq!(pushed, want, "{s:?} quote={quote}");
            assert_eq!(written, want.as_bytes(), "{s:?} quote={quote}");
        }
    }

    /// ASCII filler that is never escaped and that neighbours the
    /// escapable bytes in value: `=` and `?` sit beside `<` and `>`, `!`,
    /// `#`, `%` and `'` beside `"` and `&` — what a word-wide compare
    /// could confuse with them.
    const FILLER: &[u8] = b"=?!#%'x;\x7f";

    #[test]
    fn every_length_and_offset_escapes_like_the_char_loop() {
        for len in 0..=24 {
            for special in ['"', '&', '<', '>', '\''] {
                for at in 0..len {
                    let plain = (0..len).map(|i| FILLER[i % FILLER.len()] as char);
                    let s: String = plain
                        .enumerate()
                        .map(|(i, c)| if i == at { special } else { c })
                        .collect();
                    assert_escapes_like_the_char_loop(&s);
                    // beside multi-byte UTF-8 on either side: the special
                    // keeps its offset within the string, or moves by the
                    // width of the sequence put before it
                    for wide in ["é", "€", "😀"] {
                        let (head, tail) = s.split_at(at);
                        let tail = &tail[1..];
                        assert_escapes_like_the_char_loop(&format!("{head}{wide}{special}{tail}"));
                        assert_escapes_like_the_char_loop(&format!("{head}{special}{wide}{tail}"));
                        assert_escapes_like_the_char_loop(&format!("{wide}{s}"));
                    }
                }
                // every byte the special, and every other one
                let run: String = std::iter::repeat_n(special, len).collect();
                assert_escapes_like_the_char_loop(&run);
                let alternate: String = (0..len)
                    .map(|i| if i % 2 == 0 { special } else { 'é' })
                    .collect();
                assert_escapes_like_the_char_loop(&alternate);
            }
            // a pair of specials at every two offsets
            for i in 0..len {
                for j in i..len {
                    let s: String = (0..len)
                        .map(|k| match k {
                            _ if k == i => '<',
                            _ if k == j => '"',
                            _ => '=',
                        })
                        .collect();
                    assert_escapes_like_the_char_loop(&s);
                }
            }
        }
    }

    /// The pieces random strings are made of, weighted toward the
    /// escapable characters and the ends of multi-byte sequences.
    const PIECES: [&str; 16] = [
        "&", "<", ">", "\"", "'", "&&", "<\">", "=", "?", "a", "bcdefgh", "é", "€", "😀", "\u{7f}",
        "\u{80}",
    ];

    proptest::proptest! {
        #[test]
        fn random_strings_escape_like_the_char_loop(
            picks in proptest::collection::vec(0usize..PIECES.len(), 0..48),
        ) {
            let s: String = picks.iter().map(|&p| PIECES[p]).collect();
            assert_escapes_like_the_char_loop(&s);
        }
    }

    #[test]
    fn escape_round_trip_text() {
        let orig = "a < b && c > d";
        let doc = crate::parse(&format!("<a>{}</a>", escape_text(orig))).unwrap();
        assert_eq!(doc.text_content(doc.root()), orig);
    }

    #[test]
    fn escape_round_trip_attr() {
        let orig = "he said \"x < y\" & left";
        let doc = crate::parse(&format!("<a k=\"{}\"/>", escape_attr(orig))).unwrap();
        assert_eq!(doc.attr(doc.root(), "k"), Some(orig));
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(resolve_entity("#65"), Some('A'));
        assert_eq!(resolve_entity("#x41"), Some('A'));
        assert_eq!(resolve_entity("#x1F600"), Some('😀'));
        assert_eq!(resolve_entity("#xZZ"), None);
    }

    #[test]
    fn predefined_entities() {
        assert_eq!(resolve_entity("lt"), Some('<'));
        assert_eq!(resolve_entity("gt"), Some('>'));
        assert_eq!(resolve_entity("amp"), Some('&'));
        assert_eq!(resolve_entity("quot"), Some('"'));
        assert_eq!(resolve_entity("apos"), Some('\''));
        assert_eq!(resolve_entity("nbsp"), None);
    }
}
