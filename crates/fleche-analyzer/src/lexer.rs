//! A small token-level Rust lexer.
//!
//! The analyzer runs in an offline build with no registry access, so it
//! cannot depend on `syn`/`proc-macro2` (the same constraint that produced
//! the vendored shims in `vendor/`). The lint rules it feeds only need a
//! faithful *token* view of a source file — identifiers, punctuation, and
//! nesting depth, with strings/comments/lifetimes correctly skipped — not a
//! parse tree. Getting the token view right is the part that breaks naive
//! grep-based linting: `"HashMap"` inside a string, `unwrap` inside a
//! nested block comment, `'a` (a lifetime) versus `'a'` (a char literal),
//! and raw strings like `r#"..."#` all must not produce tokens.
//!
//! The lexer also extracts *suppression markers* from comments: a comment
//! containing `analyzer: allow(rule-id)` suppresses diagnostics of that
//! rule on the comment's line and on the following line, mirroring how
//! `#[allow]` attaches to the next item.

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token text. For literals this is a placeholder, not the
    /// contents — rules must never see string contents as identifiers.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
    /// Brace-nesting depth at the position of this token (before applying
    /// the token itself when it is a brace).
    pub depth: u32,
}

/// Token categories the rules distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// A lifetime such as `'a` (not a char literal).
    Lifetime,
    /// String, raw-string, byte-string, or char literal (contents hidden).
    Literal,
    /// Numeric literal.
    Number,
    /// Single punctuation character (`.`, `:`, `!`, `(`, `{`, ...).
    Punct,
}

/// A suppression extracted from an `analyzer: allow(rule)` comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppression {
    /// The rule id being allowed.
    pub rule: String,
    /// Line of the comment. The suppression covers this line and the next.
    pub line: u32,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Token stream in source order.
    pub tokens: Vec<Token>,
    /// Inline `analyzer: allow(...)` markers found in comments.
    pub suppressions: Vec<Suppression>,
    /// The contents of each plain (not raw, not byte) string literal, as
    /// written between its quotes, keyed by the literal's token index in
    /// ascending order. Only for rules that read a literal argument, such
    /// as a `#[target_feature(enable = "…")]` list; never lexed as code.
    pub strings: Vec<(usize, String)>,
}

impl Lexed {
    /// The contents of the plain string literal at token `index`, if the
    /// token is one.
    pub fn string_at(&self, index: usize) -> Option<&str> {
        self.strings
            .binary_search_by_key(&index, |(i, _)| *i)
            .ok()
            .map(|k| self.strings[k].1.as_str())
    }

    /// True when `rule` is suppressed at `line` by an inline marker.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans a comment body for `analyzer: allow(rule-a, rule-b)` markers.
fn scan_comment(body: &str, line: u32, out: &mut Vec<Suppression>) {
    let mut rest = body;
    while let Some(pos) = rest.find("analyzer:") {
        rest = &rest[pos + "analyzer:".len()..];
        let trimmed = rest.trim_start();
        let Some(args) = trimmed.strip_prefix("allow(") else {
            continue;
        };
        let Some(end) = args.find(')') else { continue };
        for rule in args[..end].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push(Suppression {
                    rule: rule.to_string(),
                    line,
                });
            }
        }
        rest = &args[end..];
    }
}

/// Lexes `src` into tokens and suppression markers.
pub fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut depth = 0u32;
    let mut out = Lexed::default();

    macro_rules! bump_lines {
        ($s:expr) => {
            line += $s.chars().filter(|&c| c == '\n').count() as u32
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        // Newlines / whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && bytes.get(i + 1) == Some(&'/') {
            let start = i;
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
            let body: String = bytes[start..i].iter().collect();
            scan_comment(&body, line, &mut out.suppressions);
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && bytes.get(i + 1) == Some(&'*') {
            let start_line = line;
            let start = i;
            i += 2;
            let mut nest = 1u32;
            while i < bytes.len() && nest > 0 {
                if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                    nest += 1;
                    i += 2;
                } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    nest -= 1;
                    i += 2;
                } else {
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let body: String = bytes[start..i.min(bytes.len())].iter().collect();
            scan_comment(&body, start_line, &mut out.suppressions);
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br##"..."## etc.
        if (c == 'r' || c == 'b') && raw_string_at(&bytes, i).is_some() {
            let (consumed, text) = raw_string_at(&bytes, i).expect("checked above");
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: String::from("\"raw\""),
                line,
                depth,
            });
            bump_lines!(text);
            i += consumed;
            continue;
        }
        // Plain and byte strings.
        if c == '"' || (c == 'b' && bytes.get(i + 1) == Some(&'"')) {
            if c == 'b' {
                i += 1;
            }
            i += 1; // opening quote
            let start = i;
            while i < bytes.len() {
                match bytes[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            if c == '"' {
                let contents = bytes[start..i.saturating_sub(1).max(start)]
                    .iter()
                    .collect();
                out.strings.push((out.tokens.len(), contents));
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: String::from("\"str\""),
                line,
                depth,
            });
            continue;
        }
        // Lifetime vs char literal. A `'` followed by ident-start is a
        // lifetime unless the next-next char closes it as a char literal
        // (`'a'`). Escapes (`'\n'`) are always char literals.
        if c == '\'' {
            let next = bytes.get(i + 1).copied();
            let closes = bytes.get(i + 2) == Some(&'\'');
            match next {
                Some(n) if is_ident_start(n) && !closes => {
                    // Lifetime: consume ident chars.
                    let mut j = i + 1;
                    while j < bytes.len() && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    let text: String = bytes[i..j].iter().collect();
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text,
                        line,
                        depth,
                    });
                    i = j;
                    continue;
                }
                _ => {
                    // Char literal: consume to the closing quote, honoring
                    // escapes.
                    let mut j = i + 1;
                    if bytes.get(j) == Some(&'\\') {
                        j += 2;
                    } else {
                        j += 1;
                    }
                    while j < bytes.len() && bytes[j] != '\'' {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: String::from("'c'"),
                        line,
                        depth,
                    });
                    i = (j + 1).min(bytes.len());
                    continue;
                }
            }
        }
        // Identifier / keyword (including raw identifiers r#ident).
        if is_ident_start(c) {
            let mut j = i;
            // r#ident raw identifier.
            if (c == 'r' || c == 'b') && bytes.get(i + 1) == Some(&'#') {
                if let Some(n) = bytes.get(i + 2) {
                    if is_ident_start(*n) {
                        j = i + 2;
                    }
                }
            }
            let start = j;
            while j < bytes.len() && is_ident_continue(bytes[j]) {
                j += 1;
            }
            let text: String = bytes[start..j].iter().collect();
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
                depth,
            });
            i = j;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let mut j = i;
            while j < bytes.len() && (is_ident_continue(bytes[j]) || bytes[j] == '.') {
                // Stop a trailing range like `0..n` from swallowing dots.
                if bytes[j] == '.' && bytes.get(j + 1) == Some(&'.') {
                    break;
                }
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Number,
                text: bytes[i..j].iter().collect(),
                line,
                depth,
            });
            i = j;
            continue;
        }
        // Punctuation; braces adjust depth.
        let tok_depth = depth;
        if c == '{' {
            depth += 1;
        } else if c == '}' {
            depth = depth.saturating_sub(1);
        }
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
            depth: tok_depth,
        });
        i += 1;
    }
    out
}

/// If a raw (byte) string starts at `i`, returns `(chars consumed, text)`.
fn raw_string_at(bytes: &[char], i: usize) -> Option<(usize, String)> {
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    // Find closing `"` followed by `hashes` hashes.
    while j < bytes.len() {
        if bytes[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                let text: String = bytes[i..k].iter().collect();
                return Some((k - i, text));
            }
        }
        j += 1;
    }
    // Unterminated raw string: consume the rest.
    let text: String = bytes[i..].iter().collect();
    Some((bytes.len() - i, text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn plain_tokens_with_lines() {
        let l = lex("let x = 1;\nlet y = x;");
        let first = &l.tokens[0];
        assert_eq!(first.text, "let");
        assert_eq!(first.line, 1);
        let y = l.tokens.iter().find(|t| t.text == "y").unwrap();
        assert_eq!(y.line, 2);
    }

    #[test]
    fn string_contents_do_not_become_idents() {
        assert_eq!(idents(r#"let s = "HashMap unwrap";"#), vec!["let", "s"]);
    }

    #[test]
    fn plain_string_contents_are_kept_beside_the_tokens() {
        let l = lex(r#"f("avx2", b"x", r"raw", "", "a\"b");"#);
        let lits: Vec<usize> = (0..l.tokens.len())
            .filter(|&i| l.tokens[i].kind == TokenKind::Literal)
            .collect();
        let got: Vec<Option<&str>> = lits.iter().map(|&i| l.string_at(i)).collect();
        assert_eq!(got, [Some("avx2"), None, None, Some(""), Some(r#"a\"b"#)]);
        assert_eq!(l.string_at(0), None, "`f` is not a literal");
    }

    #[test]
    fn raw_strings_are_opaque() {
        let src = "let s = r#\"HashMap \"quoted\" unwrap\"#; let t = 2;";
        assert_eq!(idents(src), vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn raw_string_with_many_hashes_and_newlines() {
        let src = "let s = r##\"line1\nHashMap\n\"# not the end\n\"##;\nlet after = 1;";
        let l = lex(src);
        assert!(l.tokens.iter().all(|t| t.text != "HashMap"));
        let after = l.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 5, "raw-string newlines must advance lines");
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let src = "/* outer /* inner unwrap */ still comment */ let z = 1;";
        assert_eq!(idents(src), vec!["let", "z"]);
    }

    #[test]
    fn line_comment_runs_to_eol() {
        assert_eq!(idents("// HashMap::new()\nlet a = 1;"), vec!["let", "a"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
        let chars: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .collect();
        assert_eq!(chars.len(), 1, "exactly one char literal");
    }

    #[test]
    fn escaped_char_literals() {
        let l = lex(r"let c = '\n'; let q = '\''; let s = 'x';");
        let lits = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lits, 3);
        assert!(l.tokens.iter().all(|t| t.kind != TokenKind::Lifetime));
    }

    #[test]
    fn brace_depth_tracks() {
        let l = lex("fn f() { if x { y(); } }");
        let y = l.tokens.iter().find(|t| t.text == "y").unwrap();
        assert_eq!(y.depth, 2);
        let f = l.tokens.iter().find(|t| t.text == "f").unwrap();
        assert_eq!(f.depth, 0);
    }

    #[test]
    fn suppression_markers_cover_next_line() {
        let src = "// analyzer: allow(no-panic-hot-path)\nx.unwrap();\ny.unwrap();";
        let l = lex(src);
        assert!(l.suppressed("no-panic-hot-path", 1));
        assert!(l.suppressed("no-panic-hot-path", 2));
        assert!(!l.suppressed("no-panic-hot-path", 3));
        assert!(!l.suppressed("other-rule", 2));
    }

    #[test]
    fn suppression_list_in_block_comment() {
        let src = "/* analyzer: allow(rule-a, rule-b) */\ncode();";
        let l = lex(src);
        assert!(l.suppressed("rule-a", 2));
        assert!(l.suppressed("rule-b", 2));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn numbers_do_not_merge_with_ranges() {
        let l = lex("for i in 0..10 {}");
        let nums: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10"]);
    }
}
