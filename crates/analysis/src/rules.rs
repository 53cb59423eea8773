//! The six invariant rules, as token-sequence lints.
//!
//! Each rule is a pure function from a lexed file to raw findings
//! (line/col/message). The engine decides scope (which paths a rule binds
//! to), test-region exemptions, and suppression handling; rules only
//! recognize patterns.

use crate::config::Rule;
use crate::lexer::{Comment, Tok, TokKind};

/// One raw finding before scope/suppression processing.
#[derive(Debug, Clone)]
pub struct RawDiag {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

fn diag(tok: &Tok, message: impl Into<String>) -> RawDiag {
    RawDiag {
        line: tok.line,
        col: tok.col,
        message: message.into(),
    }
}

/// Everything a rule may look at for one file.
pub struct FileCtx<'a> {
    pub toks: &'a [Tok],
    /// Aligned with `toks`: true inside `#[cfg(test)]` / `#[test]` items.
    pub in_test: &'a [bool],
    pub comments: &'a [Comment],
}

impl FileCtx<'_> {
    fn skip(&self, rule: Rule, i: usize) -> bool {
        !rule.applies_in_tests() && self.in_test.get(i).copied().unwrap_or(false)
    }
}

/// Identifiers that may precede `[` without forming an index expression
/// (`return [..]`, `for x in [..]`, `match [..]`, …).
const NON_INDEX_KEYWORDS: [&str; 20] = [
    "return", "in", "break", "continue", "if", "else", "match", "loop", "while", "for", "let",
    "as", "move", "ref", "mut", "where", "use", "pub", "const", "static",
];

/// Rule 1 — **panic-freedom**: decode/recovery code must never panic on
/// untrusted bytes. Bans `.unwrap()`, `.expect(..)`, `panic!`,
/// `unreachable!`, `todo!`, `unimplemented!`, and slice/array indexing
/// (which panics out of bounds); `debug_assert!` is allowed (it compiles
/// out of release builds and documents invariants).
pub fn panic_freedom(ctx: &FileCtx<'_>) -> Vec<RawDiag> {
    let t = ctx.toks;
    let mut out = Vec::new();
    for i in 0..t.len() {
        if ctx.skip(Rule::PanicFreedom, i) {
            continue;
        }
        // .unwrap() — but not .unwrap_or(..) and friends
        if t[i].is_punct('.')
            && t.get(i + 1).is_some_and(|x| x.is_ident("unwrap"))
            && t.get(i + 2).is_some_and(|x| x.is_punct('('))
            && t.get(i + 3).is_some_and(|x| x.is_punct(')'))
        {
            out.push(diag(
                &t[i + 1],
                "`.unwrap()` in a decode/recovery path — corrupt input must surface as a \
                 positioned `StoreError::Corrupt`, never a panic",
            ));
        }
        // .expect(..)
        if t[i].is_punct('.')
            && t.get(i + 1).is_some_and(|x| x.is_ident("expect"))
            && t.get(i + 2).is_some_and(|x| x.is_punct('('))
        {
            out.push(diag(
                &t[i + 1],
                "`.expect(..)` in a decode/recovery path — return a positioned error instead \
                 of panicking",
            ));
        }
        // panicking macros
        if t[i].kind == TokKind::Ident
            && matches!(
                t[i].text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && t.get(i + 1).is_some_and(|x| x.is_punct('!'))
        {
            out.push(diag(
                &t[i],
                format!(
                    "`{}!` in a decode/recovery path — corrupt input must produce an error, \
                     not a panic",
                    t[i].text
                ),
            ));
        }
        // slice/array indexing: `expr[..]` panics out of bounds
        if t[i].is_punct('[') && i > 0 {
            let prev = &t[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                _ => false,
            };
            if indexes {
                out.push(diag(
                    &t[i],
                    "slice/array indexing can panic on corrupt input — use `.get(..)` and map \
                     `None` to a positioned error",
                ));
            }
        }
    }
    out
}

/// Rule 3 — **cast-safety**: `as` casts to narrower (or
/// platform-dependent) integer types silently truncate; offset/length
/// arithmetic must use `try_into()`/`usize::try_from` and surface failures
/// as errors. Widening casts (`as u64`) are allowed.
pub fn cast_safety(ctx: &FileCtx<'_>) -> Vec<RawDiag> {
    const NARROWING: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];
    let t = ctx.toks;
    let mut out = Vec::new();
    for i in 0..t.len() {
        if ctx.skip(Rule::CastSafety, i) {
            continue;
        }
        if t[i].is_ident("as") {
            if let Some(ty) = t.get(i + 1) {
                if ty.kind == TokKind::Ident && NARROWING.contains(&ty.text.as_str()) {
                    out.push(diag(
                        &t[i],
                        format!(
                            "truncating `as {}` cast on offset/length arithmetic — use \
                             `try_into()`/`{}::try_from` and handle the failure",
                            ty.text, ty.text
                        ),
                    ));
                }
            }
        }
    }
    out
}

const GUARD_ACQUIRERS: [&str; 3] = ["read", "write", "lock"];
const SYNC_CALLS: [&str; 4] = ["sync_all", "sync_data", "fsync", "fdatasync"];

/// Rule 2 — **lock-discipline**: a `let`-bound `RwLock`/`Mutex` guard must
/// not stay live across an fsync (`sync_all`/`sync_data`/`fsync`), a
/// `.snapshot()` construction, or a `publish(..)` call — a blocked reader
/// must never be waiting on the disk, and the snapshot-publication point
/// (the pointer swap that redirects every reader) must run with no other
/// lock held. Detection: a `let` whose initializer *ends* in
/// `.read()` / `.write()` / `.lock()` (optionally followed by `?` /
/// `.unwrap()` / `.expect(..)`) binds a guard; any sync call, snapshot
/// construction, or publication before the binding's scope closes (or an
/// explicit `drop(guard)`) is a violation.
pub fn lock_discipline(ctx: &FileCtx<'_>) -> Vec<RawDiag> {
    let t = ctx.toks;
    let depth = brace_depths(t);
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if !t[i].is_ident("let") || ctx.skip(Rule::LockDiscipline, i) {
            i += 1;
            continue;
        }
        // binding name (skip `mut`; give up on destructuring patterns)
        let mut j = i + 1;
        if t.get(j).is_some_and(|x| x.is_ident("mut")) {
            j += 1;
        }
        let name = match t.get(j) {
            Some(x) if x.kind == TokKind::Ident => x.text.clone(),
            _ => {
                i += 1;
                continue;
            }
        };
        // the statement's terminating `;` at neutral nesting
        let Some(semi) = statement_end(t, i) else {
            i += 1;
            continue;
        };
        if !initializer_binds_guard(&t[i..semi]) {
            i += 1;
            continue;
        }
        // scan the guard's remaining scope
        let let_depth = depth[i];
        let mut k = semi + 1;
        while k < t.len() {
            if t[k].is_punct('}') && depth[k] <= let_depth {
                break; // scope closed
            }
            // explicit early drop ends liveness
            if t[k].is_ident("drop")
                && t.get(k + 1).is_some_and(|x| x.is_punct('('))
                && t.get(k + 2).is_some_and(|x| x.is_ident(&name))
                && t.get(k + 3).is_some_and(|x| x.is_punct(')'))
            {
                break;
            }
            if t[k].kind == TokKind::Ident
                && SYNC_CALLS.contains(&t[k].text.as_str())
                && t.get(k + 1).is_some_and(|x| x.is_punct('('))
            {
                out.push(diag(
                    &t[k],
                    format!(
                        "lock guard `{name}` is live across `{}()` — scope the guard so the \
                         fsync runs lock-free (readers must never wait on the disk)",
                        t[k].text
                    ),
                ));
            }
            if t[k].is_punct('.')
                && t.get(k + 1).is_some_and(|x| x.is_ident("snapshot"))
                && t.get(k + 2).is_some_and(|x| x.is_punct('('))
            {
                out.push(diag(
                    &t[k + 1],
                    format!(
                        "lock guard `{name}` is live across `.snapshot()` construction — \
                         pin snapshots off the published view, not from inside a locked \
                         section"
                    ),
                ));
            }
            if t[k].is_ident("publish") && t.get(k + 1).is_some_and(|x| x.is_punct('(')) {
                out.push(diag(
                    &t[k],
                    format!(
                        "lock guard `{name}` is live across `publish()` — the publication \
                         point redirects every reader with one pointer swap and must run \
                         with no other lock held; drop the guard first"
                    ),
                ));
            }
            k += 1;
        }
        i = semi + 1;
    }
    out
}

/// Brace depth *before* each token.
fn brace_depths(t: &[Tok]) -> Vec<u32> {
    let mut out = Vec::with_capacity(t.len());
    let mut d = 0u32;
    for tok in t {
        out.push(d);
        if tok.is_punct('{') {
            d += 1;
        } else if tok.is_punct('}') {
            d = d.saturating_sub(1);
        }
    }
    out
}

/// Index of the `;` ending the statement starting at `start`, skipping
/// nested `(..)`, `[..]`, `{..}` groups.
fn statement_end(t: &[Tok], start: usize) -> Option<usize> {
    let mut nest = 0i32;
    for (k, tok) in t.iter().enumerate().skip(start) {
        if tok.kind == TokKind::Punct {
            match tok.text.as_bytes().first() {
                Some(b'(' | b'[' | b'{') => nest += 1,
                Some(b')' | b']' | b'}') => nest -= 1,
                Some(b';') if nest == 0 => return Some(k),
                _ => {}
            }
        }
    }
    None
}

/// Does a `let … ;` statement's initializer end in a lock acquisition?
/// The last `.read()`/`.write()`/`.lock()` must be followed only by
/// `?`, `.unwrap()`, or `.expect(..)` — anything else means a method was
/// called *on* the guard and the binding holds that result instead.
fn initializer_binds_guard(stmt: &[Tok]) -> bool {
    let mut acquired_at = None;
    for g in 0..stmt.len() {
        if stmt[g].is_punct('.')
            && stmt.get(g + 1).is_some_and(|x| {
                x.kind == TokKind::Ident && GUARD_ACQUIRERS.contains(&x.text.as_str())
            })
            && stmt.get(g + 2).is_some_and(|x| x.is_punct('('))
            && stmt.get(g + 3).is_some_and(|x| x.is_punct(')'))
        {
            acquired_at = Some(g + 4);
        }
    }
    let Some(mut p) = acquired_at else {
        return false;
    };
    while p < stmt.len() {
        if stmt[p].is_punct('?') {
            p += 1;
        } else if stmt[p].is_punct('.')
            && stmt.get(p + 1).is_some_and(|x| x.is_ident("unwrap"))
            && stmt.get(p + 2).is_some_and(|x| x.is_punct('('))
            && stmt.get(p + 3).is_some_and(|x| x.is_punct(')'))
        {
            p += 4;
        } else if stmt[p].is_punct('.')
            && stmt.get(p + 1).is_some_and(|x| x.is_ident("expect"))
            && stmt.get(p + 2).is_some_and(|x| x.is_punct('('))
        {
            let mut nest = 0i32;
            p += 2;
            while p < stmt.len() {
                if stmt[p].is_punct('(') {
                    nest += 1;
                } else if stmt[p].is_punct(')') {
                    nest -= 1;
                    if nest == 0 {
                        p += 1;
                        break;
                    }
                }
                p += 1;
            }
        } else {
            // further method calls: the binding is not a guard
            return false;
        }
    }
    true
}

/// Rule 5 — **obs-discipline**: library code must not time operations
/// with raw `Instant::now()` or log events with `eprintln!`/`eprint!` —
/// timing goes through `xarch_obs` histogram timers/spans (so the sample
/// lands in the registry) and events go through the `Tracer` (so they hit
/// the ring buffer and the configured sink). Test regions are exempt:
/// tests may stopwatch and print freely.
pub fn obs_discipline(ctx: &FileCtx<'_>) -> Vec<RawDiag> {
    let t = ctx.toks;
    let mut out = Vec::new();
    for i in 0..t.len() {
        if ctx.skip(Rule::ObsDiscipline, i) {
            continue;
        }
        // Instant::now()
        if t[i].is_ident("Instant")
            && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 3).is_some_and(|x| x.is_ident("now"))
            && t.get(i + 4).is_some_and(|x| x.is_punct('('))
        {
            out.push(diag(
                &t[i],
                "raw `Instant::now()` timing in library code — use an `xarch_obs` \
                 histogram's `start_timer()` (or `Obs::span`) so the sample lands in \
                 the registry instead of a local variable",
            ));
        }
        // eprintln! / eprint!
        if t[i].kind == TokKind::Ident
            && matches!(t[i].text.as_str(), "eprintln" | "eprint")
            && t.get(i + 1).is_some_and(|x| x.is_punct('!'))
        {
            out.push(diag(
                &t[i],
                format!(
                    "`{}!` event logging in library code — emit a structured event \
                     through the `xarch_obs` `Tracer` so it reaches the ring buffer \
                     and the configured sink",
                    t[i].text
                ),
            ));
        }
    }
    out
}

/// Rule 6 — **recursion**: a function that calls itself recurses once per
/// level of what it walks, so untrusted input nested deep enough overflows
/// the stack — an abort, which no `Result` and no `panic-freedom` catches.
/// Flags the function (at its `fn`) when its body calls it by name: a bare
/// `name(` from a free or associated function, `self.name(` from a method,
/// `Self::name(` from either. The only exemption is
/// `xarch-allow: recursion -- bounded by <const>` (the engine holds the
/// reason to that form): the constant must bound the depth.
pub fn recursion(ctx: &FileCtx<'_>) -> Vec<RawDiag> {
    let t = ctx.toks;
    let mut out = Vec::new();
    for i in 0..t.len() {
        let Some(name) = t.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        if !t[i].is_ident("fn") || ctx.skip(Rule::Recursion, i) {
            continue;
        }
        // the parameter list: the first `(` outside the generics
        let mut angle = 0i32;
        let Some(open) = (i + 2..t.len()).find(|&k| {
            let after_dash = t[k - 1].is_punct('-');
            if t[k].is_punct('<') {
                angle += 1;
            } else if t[k].is_punct('>') && !after_dash {
                angle -= 1;
            }
            angle == 0 && t[k].is_punct('(')
        }) else {
            continue;
        };
        let params_end = matching_paren(t, open);
        let method = t[open..params_end].iter().any(|x| x.is_ident("self"));
        // a declaration ends in `;` and has no body to look in
        let body = (params_end..t.len()).find(|&k| t[k].is_punct('{') || t[k].is_punct(';'));
        let Some(body) = body.filter(|&k| t[k].is_punct('{')) else {
            continue;
        };
        let before = |k: usize, back: usize| k.checked_sub(back).and_then(|p| t.get(p));
        let calls_itself = (body + 1..matching_brace(t, body)).any(|k| {
            if !t[k].is_ident(&name.text) || !t.get(k + 1).is_some_and(|x| x.is_punct('(')) {
                return false;
            }
            let is = |back, f: &dyn Fn(&Tok) -> bool| before(k, back).is_some_and(f);
            let via_self_type = is(1, &|p| p.is_punct(':'))
                && is(2, &|p| p.is_punct(':'))
                && is(3, &|p| p.is_ident("Self"));
            let via_self = is(1, &|p| p.is_punct('.'))
                && is(2, &|p| p.is_ident("self"))
                && !is(3, &|p| p.is_punct('.'));
            let bare = !is(1, &|p| {
                p.is_punct('.') || p.is_punct(':') || p.is_ident("fn")
            });
            via_self_type || if method { via_self } else { bare }
        });
        if calls_itself {
            out.push(diag(
                &t[i],
                format!(
                    "`{}` calls itself — its stack grows with the depth of the input it walks, \
                     and a deep enough input aborts the process; walk with an explicit stack, \
                     or bound the depth and say by what",
                    name.text
                ),
            ));
        }
    }
    out
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(t: &[Tok], open: usize) -> usize {
    let mut d = 0i32;
    for (k, tok) in t.iter().enumerate().skip(open) {
        if tok.is_punct('{') {
            d += 1;
        } else if tok.is_punct('}') {
            d -= 1;
            if d == 0 {
                return k;
            }
        }
    }
    t.len()
}

/// Index just past the `)` matching the `(` at `open`.
fn matching_paren(t: &[Tok], open: usize) -> usize {
    let mut d = 0i32;
    for (k, tok) in t.iter().enumerate().skip(open) {
        if tok.is_punct('(') {
            d += 1;
        } else if tok.is_punct(')') {
            d -= 1;
            if d == 0 {
                return k;
            }
        }
    }
    t.len()
}

/// One `unsafe` occurrence, for the generated inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub line: u32,
    pub col: u32,
    /// Whether a `// SAFETY:` comment accompanies it.
    pub documented: bool,
}

/// Rule 4 — **unsafe-audit**: every `unsafe` token (block, fn, impl,
/// trait) must carry a `// SAFETY:` comment on the same line or within the
/// three lines above it. Returns findings plus the full inventory
/// (documented sites included) for `report` mode.
pub fn unsafe_audit(ctx: &FileCtx<'_>) -> (Vec<RawDiag>, Vec<UnsafeSite>) {
    let mut out = Vec::new();
    let mut sites = Vec::new();
    for tok in ctx.toks {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let documented = ctx.comments.iter().any(|c| {
            c.text.contains("SAFETY:")
                && (c.line == tok.line || (c.end_line < tok.line && c.end_line + 3 >= tok.line))
        });
        sites.push(UnsafeSite {
            line: tok.line,
            col: tok.col,
            documented,
        });
        if !documented {
            out.push(diag(
                tok,
                "`unsafe` without a `// SAFETY:` comment — state the invariant that makes \
                 this sound (same line or within 3 lines above)",
            ));
        }
    }
    (out, sites)
}
