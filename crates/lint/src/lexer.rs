//! A minimal comment/string/raw-string-aware scanner for Rust source.
//!
//! The rule engine matches on *code text only*: this module strips comment
//! bodies and the interiors of string/char literals (replacing them with
//! spaces so columns and line numbers stay aligned) while collecting line
//! comments separately for suppression-pragma parsing. It is not a full
//! lexer — it only needs to know, for every byte, whether that byte is
//! code, comment, or literal. Handled: line comments, nested block
//! comments, string literals with escapes, byte strings, raw strings with
//! any number of `#`s, char literals, and the char-vs-lifetime ambiguity
//! (`'a'` is a literal, `<'a>` is not).

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code text with comments and literal interiors blanked to spaces.
    pub code: String,
    /// Concatenated line-comment text on this line (block comments are
    /// dropped entirely — pragmas must be line comments).
    pub comment: String,
    /// Concatenated string/char-literal interiors on this line. Comment
    /// text is *not* included, so a token found here was written in code
    /// (e.g. an `env::var("NETPACK_…")` read) rather than in prose — the
    /// distinction the mode-gate registry check (M1) depends on.
    pub literal: String,
}

impl Line {
    /// True when the line holds no code at all (blank or comment-only),
    /// which lets a pragma on its own line cover the line below.
    pub fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty() && !self.comment.trim().is_empty()
    }
}

/// Split `source` into [`Line`]s with literals and comments blanked.
pub fn scan(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut literal = String::new();
    let mut i = 0;

    // Push the current line and start a new one.
    macro_rules! newline {
        () => {{
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                literal: std::mem::take(&mut literal),
            });
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                newline!();
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                // Line comment: record its text for pragma parsing.
                i += 2;
                while i < chars.len() && chars[i] != '\n' {
                    comment.push(chars[i]);
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Nested block comment; newlines inside keep line count.
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            newline!();
                        }
                        i += 1;
                    }
                }
                code.push(' ');
            }
            '"' => {
                i = consume_string(&chars, i, &mut code, &mut lines, &mut comment, &mut literal);
            }
            'r' | 'b' if starts_literal_prefix(&chars, i) => {
                i = consume_prefixed_literal(
                    &chars,
                    i,
                    &mut code,
                    &mut lines,
                    &mut comment,
                    &mut literal,
                );
            }
            '\'' => {
                // Char literal vs lifetime: `'x'` / `'\n'` are literals,
                // `'static` is a lifetime and stays as code.
                if chars.get(i + 1) == Some(&'\\') {
                    code.push('\'');
                    i += 2; // skip the backslash
                    while i < chars.len() && chars[i] != '\'' {
                        code.push(' ');
                        i += 1;
                    }
                    if i < chars.len() {
                        code.push('\'');
                        i += 1;
                    }
                } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1).is_some() {
                    code.push('\'');
                    code.push(' ');
                    code.push('\'');
                    i += 3;
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }
    // Final line without trailing newline.
    if !code.is_empty() || !comment.is_empty() || lines.is_empty() {
        newline!();
    }
    lines
}

/// Does `r` / `b` at `i` start a (raw/byte) string literal rather than an
/// identifier? True for `r"`, `r#`, `b"`, `b'`, `br"`, `br#` when the
/// previous char is not part of an identifier.
fn starts_literal_prefix(chars: &[char], i: usize) -> bool {
    if i > 0 && is_ident_char(chars[i - 1]) {
        return false;
    }
    let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
    rest.starts_with("r\"")
        || rest.starts_with("r#")
        || rest.starts_with("b\"")
        || rest.starts_with("b'")
        || rest.starts_with("br\"")
        || rest.starts_with("br#")
}

/// Consume a `"…"` string starting at `i`, blanking its interior into
/// `code` while copying it verbatim into `literal`.
fn consume_string(
    chars: &[char],
    mut i: usize,
    code: &mut String,
    lines: &mut Vec<Line>,
    comment: &mut String,
    literal: &mut String,
) -> usize {
    code.push('"');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                code.push(' ');
                literal.push(' ');
                if i + 1 < chars.len() && chars[i + 1] != '\n' {
                    code.push(' ');
                }
                i += 2;
            }
            '"' => {
                code.push('"');
                literal.push(' ');
                return i + 1;
            }
            '\n' => {
                lines.push(Line {
                    code: std::mem::take(code),
                    comment: std::mem::take(comment),
                    literal: std::mem::take(literal),
                });
                i += 1;
            }
            c => {
                code.push(' ');
                literal.push(c);
                i += 1;
            }
        }
    }
    i
}

/// Consume a literal that starts with `r`/`b`/`br` at `i`: raw strings
/// (`r#"…"#` with any number of `#`s), byte strings, and byte chars.
fn consume_prefixed_literal(
    chars: &[char],
    mut i: usize,
    code: &mut String,
    lines: &mut Vec<Line>,
    comment: &mut String,
    literal: &mut String,
) -> usize {
    // Copy the prefix letters.
    while i < chars.len() && (chars[i] == 'r' || chars[i] == 'b') {
        code.push(chars[i]);
        i += 1;
    }
    if chars.get(i) == Some(&'\'') {
        // Byte char `b'x'` — reuse the simple escape logic.
        code.push('\'');
        i += 1;
        if chars.get(i) == Some(&'\\') {
            i += 2;
            code.push(' ');
        } else if i < chars.len() {
            code.push(' ');
            i += 1;
        }
        if chars.get(i) == Some(&'\'') {
            code.push('\'');
            i += 1;
        }
        return i;
    }
    // Count `#`s (raw string guard), then expect the opening quote.
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        code.push('#');
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return i; // Not a literal after all (e.g. `r#ident`).
    }
    code.push('"');
    i += 1;
    // Raw interior: no escapes; closes at `"` followed by `hashes` `#`s.
    while i < chars.len() {
        if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            code.push('"');
            literal.push(' ');
            i += 1;
            for _ in 0..hashes {
                code.push('#');
                i += 1;
            }
            return i;
        }
        if chars[i] == '\n' {
            lines.push(Line {
                code: std::mem::take(code),
                comment: std::mem::take(comment),
                literal: std::mem::take(literal),
            });
        } else {
            code.push(' ');
            literal.push(chars[i]);
        }
        i += 1;
    }
    i
}

/// Identifier continuation character.
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_stripped_but_recorded() {
        let lines = scan("let x = 1; // trailing note\n// full line\nlet y = 2;");
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].code.trim(), "let x = 1;");
        assert_eq!(lines[0].comment.trim(), "trailing note");
        assert!(lines[1].is_comment_only());
        assert_eq!(lines[2].code.trim(), "let y = 2;");
    }

    #[test]
    fn nested_block_comments_blank_out() {
        let c = codes("a /* one /* two */ still */ b");
        assert_eq!(c[0].replace(' ', ""), "ab");
    }

    #[test]
    fn string_interiors_are_blanked() {
        let c = codes(r#"let s = "HashMap iter \" Instant::now";"#);
        assert!(!c[0].contains("HashMap"));
        assert!(!c[0].contains("Instant"));
        assert!(c[0].contains("let s ="));
    }

    #[test]
    fn raw_strings_with_hashes_close_correctly() {
        let c = codes("let s = r#\"uses \"quotes\" and Instant::now\"#; let t = 1;");
        assert!(!c[0].contains("Instant"));
        assert!(c[0].contains("let t = 1;"));
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        let c = codes("fn f<'a>(x: &'a str) { let q = 'y'; let nl = '\\n'; }");
        assert!(c[0].contains("<'a>"), "{}", c[0]);
        assert!(c[0].contains("&'a str"));
        assert!(!c[0].contains('y'), "char interior must blank: {}", c[0]);
    }

    #[test]
    fn literal_interiors_are_collected_per_line() {
        let lines = scan("let v = std::env::var(\"NETPACK_PERF\"); // NETPACK_FAKE\nlet w = r#\"NETPACK_QUICK\"#;");
        assert!(lines[0].literal.contains("NETPACK_PERF"));
        assert!(
            !lines[0].literal.contains("NETPACK_FAKE"),
            "comment text must not leak into literal text: {:?}",
            lines[0].literal
        );
        assert!(lines[1].literal.contains("NETPACK_QUICK"));
    }

    #[test]
    fn adjacent_literals_do_not_merge_tokens() {
        let lines = scan(r#"f("NETPACK_A", "B");"#);
        assert!(lines[0].literal.contains("NETPACK_A"));
        assert!(!lines[0].literal.contains("NETPACK_AB"));
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let c = codes("let s = \"line one\nline two\";\nlet x = 3;");
        assert_eq!(c.len(), 3);
        assert_eq!(c[2].trim(), "let x = 3;");
        assert!(!c[1].contains("line two"));
    }
}
