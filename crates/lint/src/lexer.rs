//! A small, purpose-built Rust lexer.
//!
//! The rule scanners need exactly three guarantees that naive
//! `grep`-style matching cannot give:
//!
//! 1. text inside string/char literals never produces tokens (so a rule
//!    table containing `"HashMap"` does not lint itself);
//! 2. comments are separated from code but *kept*, with line spans (so
//!    `// SAFETY:` audits and `// lint: allow(...)` pragmas can be
//!    located precisely);
//! 3. every token carries its 1-based line and column for rustc-style
//!    diagnostics.
//!
//! It is not a full Rust lexer — it does not classify keywords, handle
//! every numeric suffix corner, or validate escapes — but it is exact on
//! the comment/string/char/raw-string boundaries that matter, which is
//! what keeps the rule scanners honest.

/// Lexical class of one [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, ...).
    Ident,
    /// Integer literal (including hex/octal/binary).
    Int,
    /// Floating-point literal (`0.0`, `1e-9`, `1.5f64`, ...).
    Float,
    /// String literal (normal, raw, or byte).
    Str,
    /// Char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation; multi-char operators we care about arrive fused
    /// (`==`, `!=`, `::`, `->`, `=>`, `<=`, `>=`, `&&`, `||`, `..`).
    Punct,
}

/// One code token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Exact source text (literals keep their quotes).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

/// One comment (line or block) with its line span.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Full comment text including the `//` / `/* */` markers.
    pub text: String,
    /// 1-based first line.
    pub start_line: u32,
    /// 1-based last line (equal to `start_line` for line comments).
    pub end_line: u32,
}

/// Token stream plus retained comments for one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character punctuation fused into single tokens, longest first.
const PUNCTS: &[&str] = &["..=", "...", "==", "!=", "::", "->", "=>", "<=", ">=", "&&", "||", ".."];

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `source` into tokens and comments. Never fails: unterminated
/// literals/comments simply run to end of input (the linter's job is to
/// scan, not to validate — rustc owns rejection).
pub fn lex(source: &str) -> Lexed {
    let mut cur = Cursor { src: source.as_bytes(), pos: 0, line: 1, col: 1 };
    let mut out = Lexed::default();

    while let Some(b) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        // Whitespace.
        if b.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if b == b'/' && cur.peek(1) == Some(b'/') {
            let start = cur.pos;
            while let Some(c) = cur.peek(0) {
                if c == b'\n' {
                    break;
                }
                cur.bump();
            }
            out.comments.push(Comment {
                text: source[start..cur.pos].to_string(),
                start_line: line,
                end_line: line,
            });
            continue;
        }
        if b == b'/' && cur.peek(1) == Some(b'*') {
            let start = cur.pos;
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            while depth > 0 {
                match (cur.peek(0), cur.peek(1)) {
                    (Some(b'/'), Some(b'*')) => {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some(b'*'), Some(b'/')) => {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                    }
                    (Some(_), _) => {
                        cur.bump();
                    }
                    (None, _) => break,
                }
            }
            out.comments.push(Comment {
                text: source[start..cur.pos].to_string(),
                start_line: line,
                end_line: cur.line,
            });
            continue;
        }
        // Raw / byte strings: r"...", r#"..."#, br"...", b"...".
        if matches!(b, b'r' | b'b') {
            if let Some(len) = raw_or_byte_string_len(&cur) {
                let start = cur.pos;
                for _ in 0..len {
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: source[start..cur.pos].to_string(),
                    line,
                    col,
                });
                continue;
            }
        }
        // Identifiers / keywords.
        if is_ident_start(b) {
            let start = cur.pos;
            while cur.peek(0).is_some_and(is_ident_continue) {
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: source[start..cur.pos].to_string(),
                line,
                col,
            });
            continue;
        }
        // Numbers.
        if b.is_ascii_digit() {
            let start = cur.pos;
            let kind = lex_number(&mut cur);
            out.tokens.push(Token {
                kind,
                text: source[start..cur.pos].to_string(),
                line,
                col,
            });
            continue;
        }
        // Strings.
        if b == b'"' {
            let start = cur.pos;
            cur.bump();
            loop {
                match cur.peek(0) {
                    Some(b'\\') => {
                        cur.bump();
                        cur.bump();
                    }
                    Some(b'"') => {
                        cur.bump();
                        break;
                    }
                    Some(_) => {
                        cur.bump();
                    }
                    None => break,
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Str,
                text: source[start..cur.pos].to_string(),
                line,
                col,
            });
            continue;
        }
        // Lifetime or char literal.
        if b == b'\'' {
            let start = cur.pos;
            // `'x` where the char after is not a closing quote → lifetime.
            let is_lifetime = cur
                .peek(1)
                .is_some_and(|c| is_ident_start(c) || c.is_ascii_digit())
                && cur.peek(2) != Some(b'\'');
            cur.bump();
            if is_lifetime {
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: source[start..cur.pos].to_string(),
                    line,
                    col,
                });
            } else {
                loop {
                    match cur.peek(0) {
                        Some(b'\\') => {
                            cur.bump();
                            cur.bump();
                        }
                        Some(b'\'') => {
                            cur.bump();
                            break;
                        }
                        Some(_) => {
                            cur.bump();
                        }
                        None => break,
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Char,
                    text: source[start..cur.pos].to_string(),
                    line,
                    col,
                });
            }
            continue;
        }
        // Punctuation, multi-char ops fused.
        let rest = &source[cur.pos..];
        let fused = PUNCTS.iter().find(|p| rest.starts_with(**p));
        match fused {
            Some(p) => {
                for _ in 0..p.len() {
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (*p).to_string(),
                    line,
                    col,
                });
            }
            None => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (b as char).to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// Length of a raw/byte string starting at the cursor, if one starts
/// here (`r"`, `r#`, `br`, `b"` prefixes).
fn raw_or_byte_string_len(cur: &Cursor<'_>) -> Option<usize> {
    let mut i = 0usize;
    if cur.peek(i) == Some(b'b') {
        i += 1;
    }
    let raw = cur.peek(i) == Some(b'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0usize;
    while raw && cur.peek(i) == Some(b'#') {
        hashes += 1;
        i += 1;
    }
    if cur.peek(i) != Some(b'"') {
        return None;
    }
    // Plain `b"` handled by the caller's string path only via this fn,
    // so consume the body here for all prefixed forms.
    i += 1;
    loop {
        match cur.peek(i) {
            None => return Some(i),
            Some(b'\\') if !raw => i += 2,
            Some(b'"') => {
                i += 1;
                if !raw {
                    return Some(i);
                }
                let mut h = 0usize;
                while h < hashes && cur.peek(i + h) == Some(b'#') {
                    h += 1;
                }
                if h == hashes {
                    return Some(i + hashes);
                }
            }
            Some(_) => i += 1,
        }
    }
}

/// Consume a numeric literal; decide Int vs Float.
fn lex_number(cur: &mut Cursor<'_>) -> TokenKind {
    let mut float = false;
    let radix_prefixed = cur.peek(0) == Some(b'0')
        && matches!(cur.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'));
    if radix_prefixed {
        cur.bump();
        cur.bump();
        while cur.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
            cur.bump();
        }
        return TokenKind::Int;
    }
    while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == b'_') {
        cur.bump();
    }
    // Fractional part: `.` followed by a digit (so `0..n` and `1.max(2)`
    // stay integers), or a trailing `1.` not followed by ident/`.`.
    if cur.peek(0) == Some(b'.') {
        match cur.peek(1) {
            Some(d) if d.is_ascii_digit() => {
                float = true;
                cur.bump();
                while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == b'_') {
                    cur.bump();
                }
            }
            Some(c) if is_ident_start(c) || c == b'.' => {}
            _ => {
                float = true;
                cur.bump();
            }
        }
    }
    // Exponent.
    if matches!(cur.peek(0), Some(b'e' | b'E')) {
        let mut j = 1usize;
        if matches!(cur.peek(1), Some(b'+' | b'-')) {
            j = 2;
        }
        if cur.peek(j).is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            for _ in 0..j {
                cur.bump();
            }
            while cur.peek(0).is_some_and(|c| c.is_ascii_digit() || c == b'_') {
                cur.bump();
            }
        }
    }
    // Type suffix (`f64`, `u32`, ...).
    if cur.peek(0).is_some_and(is_ident_start) {
        let start = cur.pos;
        while cur.peek(0).is_some_and(is_ident_continue) {
            cur.bump();
        }
        let suffix = &cur.src[start..cur.pos];
        if suffix == b"f32" || suffix == b"f64" {
            float = true;
        }
    }
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

/// Index of the `}` matching the `{` at `tokens[open]`, or `None` if the
/// stream ends first.
pub fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    debug_assert_eq!(tokens[open].text, "{");
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).tokens.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_and_comments_produce_no_code_tokens() {
        let l = lex("let s = \"par_iter // not a comment\"; // real: HashMap\n/* block\nunsafe */");
        let idents: Vec<_> =
            l.tokens.iter().filter(|t| t.kind == TokenKind::Ident).map(|t| &t.text).collect();
        assert_eq!(idents, ["let", "s"]);
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("HashMap"));
        assert_eq!((l.comments[1].start_line, l.comments[1].end_line), (2, 3));
    }

    #[test]
    fn raw_strings_swallow_quotes_and_hashes() {
        let l = lex("r#\"a \" b\"# x b\"y\" z");
        let idents: Vec<_> =
            l.tokens.iter().filter(|t| t.kind == TokenKind::Ident).map(|t| &t.text).collect();
        assert_eq!(idents, ["x", "z"]);
    }

    #[test]
    fn numbers_classify_float_vs_int() {
        let ks = kinds("1 2.0 1e-9 0x1f 3f64 0..10 1.max(2) 7_000 2.5e3");
        let floats: Vec<_> =
            ks.iter().filter(|(k, _)| *k == TokenKind::Float).map(|(_, t)| t.as_str()).collect();
        assert_eq!(floats, ["2.0", "1e-9", "3f64", "2.5e3"]);
        assert!(ks.iter().any(|(k, t)| *k == TokenKind::Int && t == "0x1f"));
        assert!(ks.iter().any(|(k, t)| *k == TokenKind::Int && t == "7_000"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let ks = kinds("&'a str 'x' '\\n'");
        assert!(ks.contains(&(TokenKind::Lifetime, "'a".into())));
        assert!(ks.contains(&(TokenKind::Char, "'x'".into())));
        assert!(ks.contains(&(TokenKind::Char, "'\\n'".into())));
    }

    #[test]
    fn fused_puncts_and_positions() {
        let l = lex("a == b\nc != d");
        let eq = l.tokens.iter().find(|t| t.text == "==").expect("==");
        assert_eq!((eq.line, eq.col), (1, 3));
        let ne = l.tokens.iter().find(|t| t.text == "!=").expect("!=");
        assert_eq!((ne.line, ne.col), (2, 3));
    }

    #[test]
    fn matching_brace_spans_nested_blocks() {
        let l = lex("fn f() { if x { y(); } }");
        let open = l.tokens.iter().position(|t| t.text == "{").expect("open");
        let close = matching_brace(&l.tokens, open).expect("close");
        assert_eq!(close, l.tokens.len() - 1);
    }
}
