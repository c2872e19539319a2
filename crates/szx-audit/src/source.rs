//! Line-oriented lexical model of a Rust source file.
//!
//! The audit rules never need a full parse tree — every invariant they
//! enforce is phrased over *tokens on lines* ("a `#[target_feature]` fn", "a
//! `.unwrap()` call", "a slice-index bracket") plus the comments around
//! them. What they absolutely do need is to never fire inside string
//! literals or comments, and to know which comment text sits on or above a
//! line (that is where `// SAFETY:` / `// PANIC-OK:` / `// ALLOC-OK:`
//! justifications live). This module provides exactly that: a small lexer
//! that splits each physical line into its **code** text (string/char
//! literal contents blanked, comments removed) and its **comment** text,
//! and a brace-matching pass that marks `#[cfg(test)]` regions so rules
//! about production code can skip test modules.

/// One physical source line, split into code and comment channels.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Source text with comments removed and the *contents* of string and
    /// char literals blanked (delimiters are kept, so `x["k"]` still shows
    /// an index expression).
    pub code: String,
    /// Comment text carried by this line — the body of a `//` comment
    /// and/or the part of a `/* */` comment that crosses it.
    pub comment: String,
}

impl Line {
    /// True when the line holds comment text and no code.
    pub fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty() && !self.comment.trim().is_empty()
    }

    /// True when the line holds neither code nor comment.
    pub fn is_blank(&self) -> bool {
        self.code.trim().is_empty() && self.comment.trim().is_empty()
    }

    /// True when the line is only an attribute (`#[...]` / `#![...]`),
    /// possibly with a trailing comment.
    pub fn is_attribute_only(&self) -> bool {
        let t = self.code.trim();
        (t.starts_with("#[") || t.starts_with("#![")) && t.ends_with(']')
    }
}

/// A lexed source file plus its test-region map.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the audit root, `/`-separated.
    pub rel_path: String,
    pub lines: Vec<Line>,
    /// `in_test[i]` is true when line `i` sits inside a `#[cfg(test)]`
    /// item (the conventional trailing `mod tests { ... }` block).
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Comment text of the contiguous comment block directly above `idx`
    /// (0-based), skipping attribute-only lines, concatenated top-down.
    /// A blank or code-bearing line terminates the block.
    pub fn comment_above(&self, idx: usize) -> String {
        let mut start = idx;
        while start > 0 {
            let prev = &self.lines[start - 1];
            if prev.is_comment_only() || prev.is_attribute_only() {
                start -= 1;
            } else {
                break;
            }
        }
        let mut out = String::new();
        for line in &self.lines[start..idx] {
            out.push_str(&line.comment);
            out.push('\n');
        }
        out
    }

    /// Is the marker (e.g. `"SAFETY:"`) present in this line's own comment
    /// or in the comment block directly above it?
    pub fn annotated(&self, idx: usize, marker: &str) -> bool {
        self.lines[idx].comment.contains(marker) || self.comment_above(idx).contains(marker)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nesting depth — Rust block comments nest.
    BlockComment(u32),
    Str,
    /// Number of `#` marks delimiting the raw string.
    RawStr(u32),
}

/// Lex `text` into per-line code/comment channels and mark test regions.
pub fn parse_source(rel_path: &str, text: &str) -> SourceFile {
    let chars: Vec<char> = text.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! flush_line {
        () => {
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
            });
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        code.push(' ');
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        code.push(' ');
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        code.push('"');
                        i += 1;
                    }
                    'r' | 'b' if !prev_is_ident(&chars, i) => {
                        // Possible raw/byte string intro: r", r#", br", b".
                        if let Some((hashes, skip)) = raw_string_intro(&chars, i) {
                            state = if hashes == u32::MAX {
                                State::Str
                            } else {
                                State::RawStr(hashes)
                            };
                            code.push('"');
                            i += skip;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal vs lifetime. A char literal is '\...'
                        // or 'x' (any single scalar followed by a closing
                        // quote); everything else is a lifetime tick.
                        if next == Some('\\') {
                            code.push_str("''");
                            i += 2; // consume '\
                                    // Consume the escaped character itself first
                                    // (`'\''` escapes a quote), then skip the rest
                                    // of the escape body up to the closing quote.
                            if i < chars.len() && chars[i] != '\n' {
                                i += 1;
                            }
                            while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                                i += 1;
                            }
                            // Closing quote — but never swallow a newline: a
                            // malformed literal must still flush the line so
                            // later line numbers stay aligned.
                            if i < chars.len() && chars[i] == '\'' {
                                i += 1;
                            }
                        } else if next.is_some() && chars.get(i + 2).copied() == Some('\'') {
                            code.push_str("''");
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
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Skip the escaped character — unless it is a newline
                    // (the `\` line-continuation escape): consuming that
                    // here would merge two physical lines and shift every
                    // later line number, detaching `// SAFETY:`-style
                    // annotations from their sites. Leave the newline for
                    // the flush branch at the top of the loop.
                    if chars.get(i + 1) == Some(&'\n') {
                        i += 1;
                    } else {
                        i += 2;
                    }
                } else if c == '"' {
                    state = State::Code;
                    code.push('"');
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    state = State::Code;
                    code.push('"');
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() || state != State::Code {
        flush_line!();
    }

    let in_test = mark_test_regions(&lines);
    SourceFile {
        rel_path: rel_path.to_string(),
        lines,
        in_test,
    }
}

/// Is the character before `i` part of an identifier (so `chars[i]` cannot
/// start a raw-string prefix)?
fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Match a raw/byte string introduction at `i` (`r"`, `r#"`, `br"`, `b"`,
/// ...). Returns `(hash_count, chars_to_skip)` where `hash_count` is
/// `u32::MAX` for a plain `b"..."` (an ordinary escaped string).
fn raw_string_intro(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    let mut raw = false;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        raw = true;
        j += 1;
    }
    if !raw {
        // b"..." — an ordinary string with a byte prefix.
        return (chars.get(j) == Some(&'"')).then_some((u32::MAX, j - i + 1));
    }
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some((hashes, j - i + 1))
}

/// Does the `"` at `i` terminate a raw string delimited by `hashes` marks?
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Mark every line inside a `#[cfg(test)]` item by matching braces from
/// the attribute forward.
fn mark_test_regions(lines: &[Line]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                in_test[j] = true;
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(text: &str) -> SourceFile {
        parse_source("test.rs", text)
    }

    #[test]
    fn comments_are_split_from_code() {
        let f = lex("let x = 1; // trailing note\n// full line\nlet y = 2;\n");
        assert_eq!(f.lines[0].code.trim(), "let x = 1;");
        assert_eq!(f.lines[0].comment.trim(), "trailing note");
        assert!(f.lines[1].is_comment_only());
        assert_eq!(f.lines[2].comment, "");
    }

    #[test]
    fn string_contents_are_blanked() {
        let f = lex("let s = \"unsafe .unwrap() [0] // not code\"; x[i];\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[0].code.contains("not code"));
        assert!(f.lines[0].code.contains("x[i]"), "{:?}", f.lines[0].code);
        assert_eq!(f.lines[0].comment, "");
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let f = lex(r#"let s = "a\"b"; let t = unsafe_tail;"#);
        assert!(f.lines[0].code.contains("unsafe_tail"));
        assert!(!f.lines[0].code.contains("a\\"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = lex("fn f<'a>(x: &'a [u8]) -> char { '[' }\n");
        let code = &f.lines[0].code;
        assert!(code.contains("<'a>"), "{code:?}");
        // The bracket inside the char literal must not leak into code.
        assert!(code.contains("{ '' }"), "{code:?}");
        let f = lex("let c = '\\n'; let idx = v[0];\n");
        assert!(f.lines[0].code.contains("v[0]"));
    }

    #[test]
    fn block_comments_span_lines_and_nest() {
        let f = lex("a(); /* one\ntwo /* nested */ still\ntail */ b();\n");
        assert_eq!(f.lines[0].code.trim_end(), "a();");
        assert!(f.lines[1].code.trim().is_empty());
        assert!(f.lines[1].comment.contains("nested"));
        assert!(f.lines[2].code.contains("b();"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = lex("let s = r#\"x.unwrap() \"quoted\" [i]\"#; y[j];\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("y[j]"), "{:?}", f.lines[0].code);
        let f = lex("let b = b\"bytes .unwrap()\"; z[k];\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("z[k]"));
    }

    #[test]
    fn test_regions_are_marked_by_brace_matching() {
        let src = "fn prod() { x[0]; }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() { y.unwrap(); }\n\
                   }\n\
                   fn prod2() {}\n";
        let f = lex(src);
        assert!(!f.in_test[0]);
        assert!(f.in_test[1] && f.in_test[2] && f.in_test[3] && f.in_test[4]);
        assert!(!f.in_test[5]);
    }

    #[test]
    fn comment_above_gathers_contiguous_block() {
        let src = "let a = 1;\n\
                   // SAFETY: reason one\n\
                   // continued\n\
                   #[inline]\n\
                   unsafe { go() }\n";
        let f = lex(src);
        assert!(f.annotated(4, "SAFETY:"));
        assert!(!f.annotated(0, "SAFETY:"));
        // A blank line breaks the association.
        let src2 = "// SAFETY: stale\n\nunsafe { go() }\n";
        let f2 = lex(src2);
        assert!(!f2.annotated(2, "SAFETY:"));
    }

    #[test]
    fn cfg_test_inside_string_is_ignored() {
        let f = lex("let s = \"#[cfg(test)]\";\nfn prod() {}\n");
        assert!(!f.in_test[0] && !f.in_test[1]);
    }

    #[test]
    fn string_line_continuation_does_not_drift_line_numbers() {
        // `\` at end of line is a string line-continuation escape: the
        // newline must still flush a (string-interior) line, or every
        // later line number shifts and annotations detach from sites.
        let src = "let s = \"abc\\\n   def\";\nx.unwrap();\n";
        let f = lex(src);
        assert_eq!(f.lines.len(), 3, "{:?}", f.lines);
        assert!(f.lines[2].code.contains(".unwrap()"), "{:?}", f.lines);
        assert!(
            !f.lines.iter().any(|l| l.code.contains("def")),
            "string contents leaked into the code channel: {:?}",
            f.lines
        );
    }

    #[test]
    fn quote_char_literal_does_not_leak_a_tick() {
        // `'\''` — the escaped character *is* a quote; the old skip logic
        // treated it as the terminator and leaked the real closing quote
        // into the code channel as a spurious lifetime tick.
        let f = lex("let c = '\\''; let idx = v[0];\n");
        assert!(f.lines[0].code.contains("v[0]"), "{:?}", f.lines[0].code);
        assert!(
            !f.lines[0].code.contains("'' '"),
            "stray tick leaked: {:?}",
            f.lines[0].code
        );
        // Malformed char literal at end of line: the newline still flushes.
        let f = lex("let c = '\\\nx.unwrap();\n");
        assert_eq!(f.lines.len(), 3.min(f.lines.len()).max(2));
        assert!(
            f.lines.iter().skip(1).any(|l| l.code.contains(".unwrap()")),
            "{:?}",
            f.lines
        );
    }

    #[test]
    fn multiline_raw_strings_keep_line_alignment_and_blank_contents() {
        let src = "let s = r##\"line one \"# not closed\nline two .unwrap() [i]\ntail\"##; y.expect(\"m\");\n";
        let f = lex(src);
        assert_eq!(f.lines.len(), 3, "{:?}", f.lines);
        // Interior lines carry no code and no comment.
        assert!(f.lines[1].is_blank(), "{:?}", f.lines[1]);
        assert!(!f.lines[1].code.contains("unwrap"));
        // The close on line 3 returns to the code channel.
        assert!(f.lines[2].code.contains(".expect("), "{:?}", f.lines[2]);
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let f = lex("let r#type = 1; x[r#type];\nlet b = r#fn();\n");
        assert!(f.lines[0].code.contains("x[r#type]"), "{:?}", f.lines[0]);
        assert!(f.lines[1].code.contains("r#fn()"), "{:?}", f.lines[1]);
    }

    #[test]
    fn raw_strings_ignore_escapes_and_comment_openers() {
        // `\` is not an escape inside a raw string: `r"C:\"` closes at the
        // quote. `//` and `/*` inside raw strings are content, not comments.
        let f = lex("let p = r\"C:\\\"; q.unwrap();\n");
        assert!(f.lines[0].code.contains("q.unwrap()"), "{:?}", f.lines[0]);
        let f = lex("let s = r\"// not a comment /* nor this\"; z[k];\n");
        assert!(f.lines[0].code.contains("z[k]"), "{:?}", f.lines[0]);
        assert!(f.lines[0].comment.is_empty(), "{:?}", f.lines[0]);
    }

    #[test]
    fn deeply_nested_block_comments_track_depth() {
        let src = "a(); /* 1 /* 2 /* 3 */ 2 */ 1 */ b();\n/* /* */ still */ c();\n";
        let f = lex(src);
        assert!(f.lines[0].code.contains("a()") && f.lines[0].code.contains("b()"));
        assert!(!f.lines[0].code.contains('1'), "{:?}", f.lines[0]);
        assert!(f.lines[1].code.contains("c()"), "{:?}", f.lines[1]);
        assert!(f.lines[1].comment.contains("still"));
        // Unbalanced open comment swallows the rest of the file.
        let f = lex("/* /* */ x();\ny();\n");
        assert!(!f.lines[0].code.contains("x()"));
        assert!(!f.lines[1].code.contains("y()"));
    }

    #[test]
    fn quotes_inside_comments_do_not_open_strings() {
        let src = "/* \"not a string */ let x = v[0]; // \"nor here\nlet y = 1;\n";
        let f = lex(src);
        assert!(f.lines[0].code.contains("v[0]"), "{:?}", f.lines[0]);
        assert!(f.lines[1].code.contains("let y"), "{:?}", f.lines[1]);
    }
}
