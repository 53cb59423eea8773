//! Escaping and unescaping of XML character data and attribute values.
//!
//! Supports the five predefined entities (`&lt; &gt; &amp; &quot; &apos;`)
//! and decimal / hexadecimal character references (`&#65;`, `&#x41;`).
//!
//! There is one escaper, `escape_runs`: it scans the *bytes* of the input
//! for the escapable ones — all ASCII, so a multi-byte UTF-8 sequence can
//! never contain one — and hands its sink whole unescaped runs, so text
//! with nothing to escape (nearly all of it) is one copy. The `String`
//! sinks ([`escape_text_into`], [`escape_attr_into`]) and the `io::Write`
//! sinks ([`write_text`], [`write_attr`]) are thin callers.

use std::convert::Infallible;
use std::io::{self, Write};

/// Feeds `sink` the escaped form of `s` as a sequence of pieces: maximal
/// runs of `s` needing no escape, alternating with entities. `& < >` are
/// always replaced; `"` only when `quote` is set (attribute values, which
/// are written inside double quotes).
#[inline]
fn escape_runs<E>(
    s: &str,
    quote: bool,
    mut sink: impl FnMut(&str) -> Result<(), E>,
) -> Result<(), E> {
    let mut run_start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if quote => "&quot;",
            _ => continue,
        };
        if run_start < i {
            sink(&s[run_start..i])?;
        }
        sink(entity)?;
        run_start = i + 1;
    }
    if run_start < s.len() {
        sink(&s[run_start..])?;
    }
    Ok(())
}

fn push_runs(s: &str, quote: bool, out: &mut String) {
    let pushed: Result<(), Infallible> = escape_runs(s, quote, |piece| {
        out.push_str(piece);
        Ok(())
    });
    let Ok(()) = pushed;
}

/// Appends the escaped form of `s` (text-content rules: `& < >` are
/// replaced by entities) to `out`.
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
