//! Item-level model of a Rust source file, built on the lexical channels
//! of [`crate::source`].
//!
//! The call-graph rules need more than "tokens on lines": they need to know
//! *which function* a line belongs to, what that function calls, and where
//! its loop bodies are. A full AST is still unnecessary — `fn` items, `impl`
//! blocks, `mod` items, call expressions, and loop bodies can all be
//! recovered from the code channel with token-tree depth tracking, because
//! the lexer has already blanked strings, chars, and comments (every brace
//! in the code channel is a real brace).
//!
//! The parser is deliberately approximate where approximation is safe:
//! closure bodies attribute their calls to the enclosing `fn` (conservative
//! for reachability), struct-literal braces open anonymous blocks, and
//! trait default methods are qualified by the trait name. What it must get
//! right — and what the unit tests pin — is brace balance (a desynced
//! scope stack corrupts every later item) and call-path extraction.

use crate::source::SourceFile;

/// One token of the code channel. `line` is 0-based; `col` is the byte
/// column of the token start, used only for adjacency checks (`<<`).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub line: usize,
    pub col: usize,
    pub kind: Tok,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    Num(String),
    Punct(char),
    Lifetime,
}

impl Token {
    fn ident(&self) -> Option<&str> {
        match &self.kind {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }
    fn is_punct(&self, c: char) -> bool {
        self.kind == Tok::Punct(c)
    }
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 0-based line of the callee token.
    pub line: usize,
    /// The path as written (`decode_block`, `dekernels::decode_nonconstant_block`,
    /// `Self::parse`), or the bare method name for method calls.
    pub path: String,
    /// True for `.name(...)` receiver calls.
    pub method: bool,
    /// True when the receiver token was literally `self`.
    pub on_self: bool,
}

/// A `+`/`*`/`<<` (or compound-assign) site inside a function body, with
/// the identifier operands the token stream exposes. `lhs`/`rhs` are empty
/// when the operand is a parenthesized expression.
#[derive(Debug, Clone)]
pub struct ArithSite {
    pub line: usize,
    pub op: &'static str,
    pub lhs: String,
    pub rhs: String,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name as written.
    pub name: String,
    /// Fully qualified symbol path: `crate_ident::module::Type::name`.
    pub sym: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based inclusive line range of the body (opening to closing brace).
    pub body: (usize, usize),
    /// True when the item sits in a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Callable from another crate: declared plain `pub` (not
    /// `pub(crate)`), or a trait or trait-impl method, whose visibility is
    /// the trait's.
    pub is_pub: bool,
    pub calls: Vec<CallSite>,
    /// 0-based inclusive line ranges of loop bodies (`for`/`while`/`loop`),
    /// innermost and outermost both recorded.
    pub loops: Vec<(usize, usize)>,
    pub arith: Vec<ArithSite>,
}

/// Parsed items of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "return", "break", "continue", "let", "mut", "ref", "move", "in", "as",
    "use", "pub", "where", "unsafe", "async", "await", "dyn", "const", "static", "type", "enum",
    "struct", "union", "extern", "crate", "super", "self", "Self", "true", "false", "fn", "mod",
    "impl", "trait", "for", "while", "loop", "box", "yield",
];

/// Tokenize the code channels of `file`.
pub fn tokenize(file: &SourceFile) -> Vec<Token> {
    let mut out = Vec::new();
    for (li, line) in file.lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_ascii_digit() {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // `1.5` — keep the fraction inside one Num token so the
                // `.` is not mistaken for a method-call receiver dot.
                if i < chars.len()
                    && chars[i] == '.'
                    && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                out.push(Token {
                    line: li,
                    col: start,
                    kind: Tok::Num(chars[start..i].iter().collect()),
                });
            } else if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    line: li,
                    col: start,
                    kind: Tok::Ident(chars[start..i].iter().collect()),
                });
            } else if c == '\'' {
                // The lexer leaves `''` for char literals and `'name` for
                // lifetimes; neither carries information the rules need.
                if chars.get(i + 1) == Some(&'\'') {
                    i += 2;
                } else {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    out.push(Token {
                        line: li,
                        col: i,
                        kind: Tok::Lifetime,
                    });
                }
            } else if c == '"' {
                // Blanked string: skip to the closing delimiter.
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    i += 1;
                }
                i += 1;
            } else {
                out.push(Token {
                    line: li,
                    col: i,
                    kind: Tok::Punct(c),
                });
                i += 1;
            }
        }
    }
    out
}

/// Module path derived from a workspace-relative file path:
/// `crates/szx-core/src/simd/mod.rs` → `szx_core::simd`.
pub fn module_path_of(rel_path: &str) -> String {
    let parts: Vec<&str> = rel_path.split('/').collect();
    // Find the `src` directory owned by a crate dir; the crate ident is
    // the directory before it with `-` mapped to `_`.
    let mut base = String::new();
    let mut rest_start = parts.len();
    for (i, p) in parts.iter().enumerate() {
        if *p == "src" && i > 0 {
            base = parts[i - 1].replace('-', "_");
            rest_start = i + 1;
            break;
        }
    }
    if base.is_empty() {
        // Integration tests, examples, benches: qualify by the path stem so
        // symbols stay unique and recognizably non-library.
        base = parts
            .first()
            .map(|p| p.replace('-', "_"))
            .unwrap_or_default();
        rest_start = 1;
    }
    let mut out = base;
    for p in &parts[rest_start..] {
        let stem = p.trim_end_matches(".rs");
        if stem == "lib" || stem == "main" || stem == "mod" {
            continue;
        }
        out.push_str("::");
        out.push_str(&stem.replace('-', "_"));
    }
    out
}

#[derive(Debug, Clone)]
enum Scope {
    Mod(String),
    /// `impl`/`trait` block with the (last-segment) type name; true for a
    /// trait or a trait impl.
    Type(String, bool),
    /// Open fn body: index into `fns`.
    Fn(usize),
    /// Loop body: (start line, owning fn index).
    Loop(usize, usize),
    Block,
}

#[derive(Debug, Clone)]
enum Pending {
    Mod(String),
    Type(String, bool),
    Fn {
        name: String,
        sig_line: usize,
        is_pub: bool,
    },
    /// Loop keyword seen at this paren depth.
    Loop {
        paren_depth: usize,
    },
}

/// Is the `fn` keyword at token `t` declared plain `pub`? Steps back over
/// the qualifiers between the visibility and `fn`; `pub(crate)` and
/// `pub(super)` end in `)` and are not.
fn declared_pub(toks: &[Token], t: usize) -> bool {
    let quals = ["const", "unsafe", "async", "extern", "default"];
    toks[..t]
        .iter()
        .rev()
        .find(|x| x.ident().is_none_or(|q| !quals.contains(&q)))
        .is_some_and(|x| x.ident() == Some("pub"))
}

/// Parse the items of `file`.
pub fn parse_items(file: &SourceFile) -> ParsedFile {
    let toks = tokenize(file);
    let base = module_path_of(&file.rel_path);
    let mut fns: Vec<FnItem> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut paren_depth = 0usize;
    let mut t = 0usize;

    let current_fn = |scopes: &[Scope]| -> Option<usize> {
        scopes.iter().rev().find_map(|s| match s {
            Scope::Fn(i) => Some(*i),
            _ => None,
        })
    };
    let sym_prefix = |scopes: &[Scope], base: &str| -> String {
        let mut out = base.to_string();
        for s in scopes {
            match s {
                Scope::Mod(m) => {
                    out.push_str("::");
                    out.push_str(m);
                }
                Scope::Type(ty, _) => {
                    out.push_str("::");
                    out.push_str(ty);
                }
                _ => {}
            }
        }
        out
    };
    let impl_type = |scopes: &[Scope]| -> Option<(String, bool)> {
        scopes.iter().rev().find_map(|s| match s {
            Scope::Type(ty, in_trait) => Some((ty.clone(), *in_trait)),
            _ => None,
        })
    };

    while t < toks.len() {
        let tok = &toks[t];
        match &tok.kind {
            Tok::Punct('#') => {
                // Attribute: `#[...]` / `#![...]` — skip the bracket tree so
                // `#[derive(Debug)]` is not read as a call.
                let mut j = t + 1;
                if toks.get(j).is_some_and(|x| x.is_punct('!')) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|x| x.is_punct('[')) {
                    let mut depth = 0i64;
                    while j < toks.len() {
                        if toks[j].is_punct('[') {
                            depth += 1;
                        } else if toks[j].is_punct(']') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    t = j + 1;
                } else {
                    t += 1;
                }
            }
            Tok::Punct('(') => {
                paren_depth += 1;
                t += 1;
            }
            Tok::Punct(')') => {
                paren_depth = paren_depth.saturating_sub(1);
                t += 1;
            }
            Tok::Punct('{') => {
                let scope = match pending.take() {
                    Some(Pending::Mod(m)) => Scope::Mod(m),
                    Some(Pending::Type(ty, in_trait)) => Scope::Type(ty, in_trait),
                    Some(Pending::Fn {
                        name,
                        sig_line,
                        is_pub,
                    }) => {
                        let sym = format!("{}::{}", sym_prefix(&scopes, &base), name);
                        let owner = impl_type(&scopes);
                        let in_trait = owner.as_ref().is_some_and(|(_, t)| *t);
                        fns.push(FnItem {
                            name,
                            sym,
                            impl_type: owner.map(|(ty, _)| ty),
                            sig_line,
                            body: (tok.line, tok.line),
                            is_test: file.in_test.get(sig_line).copied().unwrap_or(false),
                            is_pub: is_pub || in_trait,
                            calls: Vec::new(),
                            loops: Vec::new(),
                            arith: Vec::new(),
                        });
                        Scope::Fn(fns.len() - 1)
                    }
                    Some(Pending::Loop { paren_depth: pd }) if pd == paren_depth => {
                        match current_fn(&scopes) {
                            Some(f) => Scope::Loop(tok.line, f),
                            None => Scope::Block,
                        }
                    }
                    Some(p @ Pending::Loop { .. }) => {
                        // A `{` inside the loop header's parens (a closure in
                        // the iterator expression): keep waiting for the
                        // body brace at the recorded paren depth.
                        pending = Some(p);
                        Scope::Block
                    }
                    None => Scope::Block,
                };
                scopes.push(scope);
                t += 1;
            }
            Tok::Punct('}') => {
                match scopes.pop() {
                    Some(Scope::Fn(i)) => fns[i].body.1 = tok.line,
                    Some(Scope::Loop(start, f)) => fns[f].loops.push((start, tok.line)),
                    _ => {}
                }
                t += 1;
            }
            Tok::Punct('.') => {
                // Method call: `.name(` or `.name::<T>(`.
                let recv_self = t > 0 && toks[t - 1].ident() == Some("self");
                let mut next = t + 1;
                if let Some(name) = toks.get(t + 1).and_then(|x| x.ident()) {
                    if !KEYWORDS.contains(&name) {
                        let j = skip_turbofish(&toks, t + 2);
                        if toks.get(j).is_some_and(|x| x.is_punct('(')) {
                            if let Some(f) = current_fn(&scopes) {
                                fns[f].calls.push(CallSite {
                                    line: toks[t + 1].line,
                                    path: name.to_string(),
                                    method: true,
                                    on_self: recv_self,
                                });
                            }
                        }
                        // Resume after the turbofish: a `{ N }` argument in
                        // it must not open a scope.
                        next = j;
                    }
                }
                t = next;
            }
            Tok::Punct(op @ ('+' | '*' | '<')) => {
                record_arith(&toks, t, *op, &scopes, &mut fns, current_fn);
                // `<<` is two tokens; advance past the second so it is not
                // re-examined (harmless, but avoids double sites).
                if *op == '<' && is_adjacent_punct(&toks, t, '<') {
                    t += 2;
                } else {
                    t += 1;
                }
            }
            Tok::Ident(id) => {
                let id = id.as_str();
                match id {
                    "mod" => {
                        if let Some(name) = toks.get(t + 1).and_then(|x| x.ident()) {
                            // `mod name;` (out-of-line) sets no pending scope.
                            if toks.get(t + 2).is_some_and(|x| x.is_punct('{')) {
                                pending = Some(Pending::Mod(name.to_string()));
                            }
                            t += 2;
                        } else {
                            t += 1;
                        }
                    }
                    "trait" => {
                        if let Some(name) = toks.get(t + 1).and_then(|x| x.ident()) {
                            pending = Some(Pending::Type(name.to_string(), true));
                            t += 2;
                        } else {
                            t += 1;
                        }
                    }
                    "impl" => {
                        // Scan the impl header up to its `{`, taking the last
                        // path segment at angle-depth 0; `for` restarts the
                        // capture (`impl Trait for Type`).
                        let mut j = t + 1;
                        let mut angle = 0i64;
                        let mut ty = String::new();
                        let mut in_where = false;
                        let mut trait_impl = false;
                        while j < toks.len() {
                            match &toks[j].kind {
                                Tok::Punct('{') => break,
                                Tok::Punct(';') => break,
                                Tok::Punct('<') => angle += 1,
                                Tok::Punct('>') => angle -= 1,
                                Tok::Ident(w) if angle == 0 && !in_where => {
                                    if w == "for" {
                                        ty.clear();
                                        trait_impl = true;
                                    } else if w == "where" {
                                        in_where = true;
                                    } else if w != "dyn" && w != "mut" && w != "const" {
                                        ty = w.clone();
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        if toks.get(j).is_some_and(|x| x.is_punct('{')) {
                            pending = Some(Pending::Type(ty, trait_impl));
                        }
                        t = j;
                    }
                    "fn" => {
                        if let Some(name) = toks.get(t + 1).and_then(|x| x.ident()) {
                            // Consume the signature: first `{` at paren depth
                            // 0 opens the body; `;` abandons (trait decl).
                            let mut j = t + 2;
                            let mut pd = 0i64;
                            while j < toks.len() {
                                match &toks[j].kind {
                                    Tok::Punct('(') => pd += 1,
                                    Tok::Punct(')') => pd -= 1,
                                    Tok::Punct('{') if pd == 0 => break,
                                    Tok::Punct(';') if pd == 0 => break,
                                    _ => {}
                                }
                                j += 1;
                            }
                            if toks.get(j).is_some_and(|x| x.is_punct('{')) {
                                pending = Some(Pending::Fn {
                                    name: name.to_string(),
                                    sig_line: toks[t].line,
                                    is_pub: declared_pub(&toks, t),
                                });
                            }
                            t = j; // the `{`/`;` handler runs next
                        } else {
                            t += 1;
                        }
                    }
                    "for" | "while" | "loop" => {
                        // Loop keyword inside a fn body. `for<'a>` is a
                        // higher-ranked bound, not a loop.
                        let hrtb = toks.get(t + 1).is_some_and(|x| x.is_punct('<'));
                        if current_fn(&scopes).is_some() && !hrtb && pending.is_none() {
                            pending = Some(Pending::Loop { paren_depth });
                        }
                        t += 1;
                    }
                    _ if KEYWORDS.contains(&id)
                        && id != "Self"
                        && id != "self"
                        && id != "crate"
                        && id != "super" =>
                    {
                        t += 1;
                    }
                    _ => {
                        // Potential call: `path::to::f(` / `f(` / `Self::f(`.
                        let prev_dot = t > 0 && toks[t - 1].is_punct('.');
                        if prev_dot {
                            t += 1;
                            continue;
                        }
                        let start_line = tok.line;
                        let mut segs: Vec<String> = vec![id.to_string()];
                        let mut j = t + 1;
                        loop {
                            if is_path_sep(&toks, j) {
                                // `::<turbofish>` or `::ident`.
                                let after = j + 2;
                                if toks.get(after).is_some_and(|x| x.is_punct('<')) {
                                    let nj = skip_turbofish(&toks, j);
                                    if nj == j {
                                        // Unclosed turbofish: stop the path
                                        // walk instead of spinning on `j`.
                                        break;
                                    }
                                    j = nj;
                                    continue;
                                }
                                if let Some(nx) = toks.get(after).and_then(|x| x.ident()) {
                                    segs.push(nx.to_string());
                                    j = after + 1;
                                    continue;
                                }
                                j = after;
                                break;
                            }
                            break;
                        }
                        let is_macro = toks.get(j).is_some_and(|x| x.is_punct('!'));
                        let is_call = toks.get(j).is_some_and(|x| x.is_punct('('));
                        if is_call && !is_macro {
                            if let Some(f) = current_fn(&scopes) {
                                let last = segs.last().map(String::as_str).unwrap_or("");
                                if !KEYWORDS.contains(&last) || last == "Self" {
                                    fns[f].calls.push(CallSite {
                                        line: start_line,
                                        path: segs.join("::"),
                                        method: false,
                                        on_self: false,
                                    });
                                }
                            }
                        }
                        t = j.max(t + 1);
                    }
                }
            }
            _ => {
                t += 1;
            }
        }
    }
    // Unbalanced braces at EOF (should not happen on rustc-accepted code):
    // close any open fns at the last line so ranges stay usable.
    let last_line = file.lines.len().saturating_sub(1);
    for s in scopes {
        match s {
            Scope::Fn(i) => fns[i].body.1 = last_line,
            Scope::Loop(start, f) => fns[f].loops.push((start, last_line)),
            _ => {}
        }
    }
    ParsedFile { fns }
}

/// Is `toks[j], toks[j+1]` a `::` path separator (adjacent colons)?
fn is_path_sep(toks: &[Token], j: usize) -> bool {
    matches!((toks.get(j), toks.get(j + 1)),
        (Some(a), Some(b)) if a.is_punct(':') && b.is_punct(':')
            && a.line == b.line && b.col == a.col + 1)
}

/// Is `toks[t+1]` the same punct `c` directly adjacent to `toks[t]`?
fn is_adjacent_punct(toks: &[Token], t: usize, c: char) -> bool {
    matches!((toks.get(t), toks.get(t + 1)),
        (Some(a), Some(b)) if b.kind == Tok::Punct(c)
            && a.line == b.line && b.col == a.col + 1)
}

/// If `toks[j]` starts `::<...>`, return the index after the closing `>`;
/// otherwise return `j`.
fn skip_turbofish(toks: &[Token], j: usize) -> usize {
    if !is_path_sep(toks, j) || !toks.get(j + 2).is_some_and(|x| x.is_punct('<')) {
        return j;
    }
    let mut k = j + 2;
    let mut depth = 0i64;
    let mut braces = 0usize;
    while k < toks.len() {
        match &toks[k].kind {
            // A const-generic block argument (`f::<F, { N + 1 }>`): its
            // `<`/`>` are comparisons, not brackets, until it closes.
            Tok::Punct('{') => braces += 1,
            Tok::Punct('}') if braces > 0 => braces -= 1,
            Tok::Punct('<') if braces == 0 => depth += 1,
            Tok::Punct('>') if braces == 0 => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            // After `::` the `<` is necessarily a turbofish, so parens are
            // type syntax (`channel::<()>()`, fn-pointer params) — walk
            // through them. A statement end or an unmatched `}` means the
            // source was not what we thought: give up without consuming.
            Tok::Punct(';') | Tok::Punct('}') => return j,
            _ => {}
        }
        k += 1;
    }
    j
}

/// Record a binary `+`, `*`, `<<` (or `+=`, `*=`, `<<=`) site when the
/// previous token ends an expression. Deref `*x`, unary contexts, and
/// generic `<` are excluded by the prev-token test plus the adjacency
/// requirement for `<<`.
fn record_arith(
    toks: &[Token],
    t: usize,
    op: char,
    scopes: &[Scope],
    fns: &mut [FnItem],
    current_fn: impl Fn(&[Scope]) -> Option<usize>,
) {
    let Some(f) = current_fn(scopes) else { return };
    let prev = match t.checked_sub(1).and_then(|p| toks.get(p)) {
        Some(p) => p,
        None => return,
    };
    let prev_ends_expr = matches!(
        &prev.kind,
        Tok::Ident(_) | Tok::Num(_) | Tok::Punct(')') | Tok::Punct(']')
    ) && !prev.ident().is_some_and(|w| KEYWORDS.contains(&w));
    if !prev_ends_expr {
        return;
    }
    let (opname, operand_at): (&'static str, usize) = match op {
        '<' => {
            if !is_adjacent_punct(toks, t, '<') {
                return; // single `<`: comparison or generics
            }
            if toks.get(t + 2).is_some_and(|x| x.is_punct('=')) {
                ("<<=", t + 3)
            } else {
                ("<<", t + 2)
            }
        }
        '+' => {
            if toks.get(t + 1).is_some_and(|x| x.is_punct('=')) {
                ("+=", t + 2)
            } else {
                ("+", t + 1)
            }
        }
        '*' => {
            if toks.get(t + 1).is_some_and(|x| x.is_punct('=')) {
                ("*=", t + 2)
            } else {
                ("*", t + 1)
            }
        }
        _ => return,
    };
    let lhs = prev.ident().unwrap_or("").to_string();
    let rhs = toks
        .get(operand_at)
        .and_then(|x| match &x.kind {
            Tok::Ident(s) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_default();
    fns[f].arith.push(ArithSite {
        line: toks[t].line,
        op: opname,
        lhs,
        rhs,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::parse_source;

    fn parse(rel: &str, src: &str) -> ParsedFile {
        parse_items(&parse_source(rel, src))
    }

    #[test]
    fn module_paths_from_file_paths() {
        assert_eq!(module_path_of("crates/szx-core/src/lib.rs"), "szx_core");
        assert_eq!(
            module_path_of("crates/szx-core/src/decode.rs"),
            "szx_core::decode"
        );
        assert_eq!(
            module_path_of("crates/szx-core/src/simd/mod.rs"),
            "szx_core::simd"
        );
        assert_eq!(
            module_path_of("crates/szx-core/src/simd/x86.rs"),
            "szx_core::simd::x86"
        );
        assert_eq!(module_path_of("crates/szx-cli/src/main.rs"), "szx_cli");
        assert_eq!(
            module_path_of("tests/tests/roundtrip.rs"),
            "tests::tests::roundtrip"
        );
    }

    #[test]
    fn fn_items_get_symbols_and_body_ranges() {
        let p = parse(
            "crates/szx-core/src/decode.rs",
            "pub fn decompress(b: &[u8]) -> Result<Vec<f32>> {\n\
             helper(b);\n\
             }\n\
             fn helper(b: &[u8]) {}\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].sym, "szx_core::decode::decompress");
        assert_eq!(p.fns[0].body, (0, 2));
        assert_eq!(p.fns[1].sym, "szx_core::decode::helper");
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].path, "helper");
    }

    #[test]
    fn impl_methods_are_qualified_by_type() {
        let p = parse(
            "crates/szx-core/src/stream.rs",
            "impl<'a> StreamIndex<'a> {\n\
             pub(crate) fn build(b: &[u8]) -> Result<Self> { Cursor::new(b); Ok(x) }\n\
             }\n\
             impl fmt::Debug for Header {\n\
             fn fmt(&self, f: &mut fmt::Formatter) { self.go() }\n\
             }\n",
        );
        assert_eq!(p.fns[0].sym, "szx_core::stream::StreamIndex::build");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("StreamIndex"));
        assert_eq!(p.fns[1].sym, "szx_core::stream::Header::fmt");
        let m = &p.fns[1].calls[0];
        assert!(m.method && m.on_self && m.path == "go");
    }

    #[test]
    fn nested_mods_extend_the_symbol_path() {
        let p = parse(
            "crates/szx-core/src/lib.rs",
            "mod inner {\n pub fn f() {}\n }\n",
        );
        assert_eq!(p.fns[0].sym, "szx_core::inner::f");
    }

    #[test]
    fn calls_capture_paths_and_turbofish() {
        let p = parse(
            "crates/x/src/a.rs",
            "fn f() {\n\
             dekernels::decode_nonconstant_block(p);\n\
             Vec::<u8>::with_capacity(4);\n\
             Self::parse(b);\n\
             write!(out, \"x\");\n\
             s.collect::<Vec<_>>();\n\
             }\n",
        );
        let paths: Vec<&str> = p.fns[0].calls.iter().map(|c| c.path.as_str()).collect();
        assert!(paths.contains(&"dekernels::decode_nonconstant_block"));
        assert!(paths.contains(&"Vec::with_capacity"), "{paths:?}");
        assert!(paths.contains(&"Self::parse"));
        assert!(paths.contains(&"collect"));
        // Macros are not calls.
        assert!(!paths.iter().any(|p| p.contains("write")), "{paths:?}");
    }

    #[test]
    fn unit_type_turbofish_terminates_and_captures_the_call() {
        // Regression: `channel::<()>()` once looped forever — the turbofish
        // skipper refused the inner parens and the path walk never advanced.
        let p = parse(
            "crates/x/src/a.rs",
            "fn f() {\n\
             let (tx, rx) = mpsc::channel::<()>();\n\
             let v = iter.collect::<Vec<(usize, u8)>>();\n\
             }\n",
        );
        let paths: Vec<&str> = p.fns[0].calls.iter().map(|c| c.path.as_str()).collect();
        assert!(paths.contains(&"mpsc::channel"), "{paths:?}");
        assert!(paths.contains(&"collect"), "{paths:?}");
    }

    #[test]
    fn attributes_are_not_calls() {
        let p = parse(
            "crates/x/src/a.rs",
            "#[derive(Debug, Clone)]\nstruct S;\nfn f() { #[allow(dead_code)] g(); }\n",
        );
        let paths: Vec<&str> = p.fns[0].calls.iter().map(|c| c.path.as_str()).collect();
        assert_eq!(paths, vec!["g"]);
    }

    #[test]
    fn loop_bodies_are_ranged_per_fn() {
        let p = parse(
            "crates/x/src/a.rs",
            "fn f(v: &[u8]) {\n\
             for b in v {\n\
             g(b);\n\
             }\n\
             let mut i = 0;\n\
             while i < 4 {\n\
             i += 1;\n\
             }\n\
             }\n",
        );
        let mut loops = p.fns[0].loops.clone();
        loops.sort();
        assert_eq!(loops, vec![(1, 3), (5, 7)]);
    }

    #[test]
    fn closure_in_loop_header_does_not_steal_the_body() {
        let p = parse(
            "crates/x/src/a.rs",
            "fn f(v: &[u8]) {\n\
             for b in v.iter().map(|x| { x }) {\n\
             g(b);\n\
             }\n\
             }\n",
        );
        assert_eq!(p.fns[0].loops, vec![(1, 3)], "{:?}", p.fns[0].loops);
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let p = parse(
            "crates/x/src/a.rs",
            "fn f<F: for<'a> Fn(&'a u8)>(g: F) { g(&1); }\n",
        );
        assert!(p.fns[0].loops.is_empty(), "{:?}", p.fns[0].loops);
    }

    #[test]
    fn test_region_fns_are_marked() {
        let p = parse(
            "crates/x/src/a.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n fn t() { prod() }\n}\n",
        );
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
        assert_eq!(p.fns[1].sym, "x::a::tests::t");
    }

    #[test]
    fn arith_sites_record_operands_and_compound_ops() {
        let p = parse(
            "crates/x/src/a.rs",
            "fn f(pos: usize, len: usize) -> usize {\n\
             let end = pos + len;\n\
             let w = x << 3;\n\
             pos += 1;\n\
             let d = *ptr;\n\
             let v: Vec<Vec<u8>> = q(a < b);\n\
             end * 2\n\
             }\n",
        );
        let ops: Vec<(&str, &str, &str)> = p.fns[0]
            .arith
            .iter()
            .map(|a| (a.op, a.lhs.as_str(), a.rhs.as_str()))
            .collect();
        assert!(ops.contains(&("+", "pos", "len")), "{ops:?}");
        assert!(ops.contains(&("<<", "x", "")), "{ops:?}");
        assert!(ops.contains(&("+=", "pos", "")), "{ops:?}");
        assert!(ops.contains(&("*", "end", "")), "{ops:?}");
        // Deref and generics/comparison do not register.
        assert!(!ops.iter().any(|o| o.0 == "*" && o.1.is_empty()), "{ops:?}");
        assert_eq!(ops.iter().filter(|o| o.0 == "<<").count(), 1, "{ops:?}");
    }

    #[test]
    fn brace_balance_survives_struct_literals_and_match() {
        let p = parse(
            "crates/x/src/a.rs",
            "fn f() -> S {\n\
             let s = S { a: 1, b: vec![2] };\n\
             match s.a {\n\
             1 => g(),\n\
             _ => {}\n\
             }\n\
             s\n\
             }\n\
             fn tail() {}\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].body, (0, 7));
        assert_eq!(p.fns[1].sym, "x::a::tail");
    }
}
