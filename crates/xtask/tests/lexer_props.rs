//! Property tests holding the two comment/string scanners to agreement.
//!
//! `lexer::lex` (whole-file token stream) and `sanitize::split_lines`
//! (per-line code/comment channels) implement the same lexical semantics
//! independently — nested block comments, raw strings, escapes,
//! char-vs-lifetime ticks. These tests generate random Rust-like sources
//! from a fragment pool and check that:
//!
//! 1. token byte offsets round-trip: spans are ordered, non-overlapping,
//!    land on UTF-8 boundaries, slice back to the token text, and the gaps
//!    between tokens are pure whitespace;
//! 2. the two scanners agree on masking: identifiers and numbers the lexer
//!    emits are visible in the sanitizer's code channel, comment content
//!    the sanitizer extracts is covered by a `Comment` token, and lines
//!    with no tokens carry no code.
//!
//! A masking bug in either pass shows up here as a differential failure
//! instead of a silently mis-scanned file.

use proptest::prelude::*;
use xtask::lexer::{lex, Token, TokenKind};
use xtask::sanitize::split_lines;

/// Fragment pool the generator draws from. Every fragment is
/// self-terminating (closed string, closed comment), so the scanner state
/// returns to plain code between fragments and any interleaving is a
/// well-formed source.
const FRAGMENTS: &[&str] = &[
    // Identifiers and keywords (`r` and `b` are deliberate: followed by a
    // separator they must lex as idents, not raw-string openers).
    "fn",
    "run_with_chaos",
    "HashMap",
    "_x1",
    "r",
    "b",
    // Numbers across the lexer's forms.
    "42",
    "0.25",
    "1e3",
    "6.25e-4",
    "2E+10",
    "0xff_u32",
    "1_000.5f64",
    "0..10",
    // Strings: plain, escaped quote, raw with hashes, byte, multi-line.
    "\"hello world\"",
    "\"esc \\\" aped // not a comment\"",
    "r#\"raw \"quote\" body\"#",
    "br\"byte raw\"",
    "\"multi\nline == 0.0\nliteral\"",
    // Chars and lifetimes.
    "'x'",
    "'\\n'",
    "'\"'",
    "'a",
    "'static",
    // Comments: line, block, nested, multi-line.
    "// line comment tail",
    "/* block */",
    "/* multi\nline\nblock */",
    "/* outer /* nested */ tail */",
    // Punctuation and operators (multi-char ops arrive as adjacent tokens).
    "{",
    "}",
    "(",
    ")",
    ";",
    ":",
    "->",
    "==",
    ".",
    "&",
    "::",
    "#",
    // Non-ASCII: lexed as a Punct token, kept in the code channel.
    "µ",
    // Explicit line breaks so fragments land on many lines.
    "\n",
    "\n\n",
];

/// Assembles a source from pool indices, space-separated so fragments
/// never merge (e.g. ident `r` + `"` would otherwise open a raw string).
fn assemble(indices: &[usize]) -> String {
    let parts: Vec<&str> = indices
        .iter()
        .map(|&i| FRAGMENTS[i % FRAGMENTS.len()])
        .collect();
    parts.join(" ")
}

/// 1-based line number of byte offset `at` in `src`.
fn line_of(src: &str, at: usize) -> usize {
    1 + src.as_bytes()[..at].iter().filter(|&&b| b == b'\n').count()
}

fn check_offsets_round_trip(src: &str, tokens: &[Token]) {
    let mut prev_end = 0usize;
    for t in tokens {
        assert!(
            t.start <= t.end && t.end <= src.len(),
            "span out of bounds: {t}"
        );
        assert!(
            src.is_char_boundary(t.start) && src.is_char_boundary(t.end),
            "span not on char boundaries: {t}"
        );
        assert!(prev_end <= t.start, "overlapping tokens at {}", t.start);
        // The gap between consecutive tokens is pure whitespace: the lexer
        // only ever skips whitespace outside a token.
        assert!(
            src[prev_end..t.start].chars().all(char::is_whitespace),
            "non-whitespace gap before {t}: {:?}",
            &src[prev_end..t.start]
        );
        match t.kind {
            // Str/Char bodies are elided and Comment text drops delimiters;
            // everything else slices back exactly.
            TokenKind::Str | TokenKind::Char | TokenKind::Comment => {}
            _ => assert_eq!(
                &src[t.start..t.end],
                t.text,
                "slice mismatch at {}",
                t.start
            ),
        }
        assert_eq!(t.line, line_of(src, t.start), "line mismatch for {t}");
        prev_end = t.end;
    }
    assert!(
        src[prev_end..].chars().all(char::is_whitespace),
        "non-whitespace tail after last token"
    );
}

fn check_masking_agreement(src: &str, tokens: &[Token]) {
    let views = split_lines(src);

    // Code-channel visibility: every ident/number the lexer emits sits in
    // code position, so the sanitizer must keep it verbatim on that line.
    for t in tokens {
        if matches!(t.kind, TokenKind::Ident | TokenKind::Number) {
            let code = &views[t.line - 1].code;
            assert!(
                code.contains(&t.text),
                "line {}: {:?} missing from code channel {:?}",
                t.line,
                t.text,
                code
            );
        }
    }

    // Comment agreement: whenever the sanitizer extracted comment text on a
    // line, some Comment token's span must cover that line.
    for (idx, view) in views.iter().enumerate() {
        let lineno = idx + 1;
        if view.comment.trim().is_empty() {
            continue;
        }
        let covered = tokens.iter().any(|t| {
            t.kind == TokenKind::Comment && t.line <= lineno && line_of(src, t.end) >= lineno
        });
        assert!(
            covered,
            "line {lineno}: sanitizer found comment {:?} but no Comment token covers it",
            view.comment
        );
    }

    // Line comments are single-channel: the token body (text after `//`)
    // must equal the tail of that line's comment channel.
    for t in tokens {
        if t.kind == TokenKind::Comment && src[t.start..].starts_with("//") {
            let comment = &views[t.line - 1].comment;
            assert!(
                comment.ends_with(&t.text),
                "line {}: comment channel {:?} does not end with token body {:?}",
                t.line,
                comment,
                t.text
            );
        }
    }

    // Token-free lines carry no code: if no token starts on a line and no
    // multi-line token (string/comment) spans across it, the sanitizer must
    // see only whitespace there.
    for (idx, view) in views.iter().enumerate() {
        let lineno = idx + 1;
        let has_start = tokens.iter().any(|t| t.line == lineno);
        let spanned = tokens
            .iter()
            .any(|t| t.line <= lineno && line_of(src, t.end.min(src.len())) >= lineno);
        if !has_start && !spanned {
            assert!(
                view.code.trim().is_empty() && view.comment.trim().is_empty(),
                "line {lineno}: no token covers it but sanitizer sees {:?} / {:?}",
                view.code,
                view.comment
            );
        }
    }
}

proptest! {
    /// Byte offsets round-trip on arbitrary fragment interleavings.
    #[test]
    fn offsets_round_trip(indices in prop::collection::vec(0usize..1000, 1..60)) {
        let src = assemble(&indices);
        let tokens = lex(&src);
        check_offsets_round_trip(&src, &tokens);
    }

    /// The lexer and the sanitizer agree on comment/string masking.
    #[test]
    fn masking_agrees_with_sanitizer(indices in prop::collection::vec(0usize..1000, 1..60)) {
        let src = assemble(&indices);
        let tokens = lex(&src);
        check_masking_agreement(&src, &tokens);
    }

    /// Nothing inside a string or char literal ever surfaces as an
    /// ident/number token — the lint rules' core masking guarantee.
    #[test]
    fn literal_bodies_never_leak(indices in prop::collection::vec(0usize..1000, 1..60)) {
        let src = assemble(&indices);
        for t in lex(&src) {
            match t.kind {
                TokenKind::Str => prop_assert_eq!(t.text.as_str(), "\"\""),
                TokenKind::Char => prop_assert_eq!(t.text.as_str(), "''"),
                _ => {}
            }
        }
    }
}

/// Deterministic spot check: the fragment pool itself exercises every
/// token kind, so the property runs are not vacuous.
#[test]
fn fragment_pool_covers_all_token_kinds() {
    let src = FRAGMENTS.join(" ");
    let tokens = lex(&src);
    let has = |k: fn(&TokenKind) -> bool| tokens.iter().any(|t| k(&t.kind));
    assert!(has(|k| *k == TokenKind::Ident));
    assert!(has(|k| *k == TokenKind::Number));
    assert!(has(|k| *k == TokenKind::Str));
    assert!(has(|k| *k == TokenKind::Char));
    assert!(has(|k| *k == TokenKind::Lifetime));
    assert!(has(|k| *k == TokenKind::Comment));
    assert!(has(|k| matches!(k, TokenKind::Punct(_))));
    check_offsets_round_trip(&src, &tokens);
    check_masking_agreement(&src, &tokens);
}
