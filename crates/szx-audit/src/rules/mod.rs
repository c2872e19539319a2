//! The audit rules: project-specific invariants phrased over the lexical
//! source model of [`crate::source`] and the call graph of
//! [`crate::callgraph`]. Each one guards a property rustc and clippy
//! cannot see; the unsafe-code policy (where unsafe code may live, its
//! `SAFETY:` comments) and the kernels' narrowing casts are lints in the
//! Cargo manifests and the kernel modules instead (DESIGN.md §10).
//!
//! | rule id                | invariant                                                        |
//! |------------------------|------------------------------------------------------------------|
//! | `target-feature-guard` | `#[target_feature]` backends are only called behind a `SAFETY:`  |
//! |                        | note naming the runtime feature-detection guard                  |
//! | `panic-reach`          | no panic vector transitively reachable from a decode entry       |
//! |                        | point without `// PANIC-OK:` (call-graph rule)                   |
//! | `hot-loop-alloc`       | no allocation in loop bodies reachable from kernel/SIMD entry    |
//! |                        | points without `// ALLOC-OK:` (call-graph rule)                  |
//! | `checked-arith`        | `+`/`*`/`<<` on length/offset locals on parse paths must be      |
//! |                        | `checked_*`/`saturating_*` (or `// ARITH-OK:` with proof)        |
//! | `atomics-protocol`     | publish fields in the lock-free modules follow release/acquire   |
//!
//! `target-feature-guard` and `atomics-protocol` are lexical (per file);
//! `panic-reach` and `hot-loop-alloc` traverse the workspace call graph
//! from their entry-point sets, and `checked-arith` runs over the parsed
//! arithmetic sites of parse-path functions. `panic-reach` walks every
//! function the decode entry points can actually reach, in any file, and
//! reports the full offending call chain.

mod allocs;
mod arith;
mod atomics;
mod lexical;
mod panics;

pub use allocs::{check_hot_loop_allocs, HOT_ENTRY_FILES};
pub use arith::{check_parse_arith, PARSE_PATH_FILES};
pub use lexical::check_target_feature_guards;
pub use panics::{check_panic_reach, is_decode_entry};

use crate::callgraph::CallGraph;
use crate::report::{Counts, Finding};
use crate::source::SourceFile;

/// Where the `#[target_feature]` backends and their dispatch layer live
/// (see [`check_target_feature_guards`]).
pub const TARGET_FEATURE_PREFIX: &str = "crates/szx-core/src/simd/";

/// Lock-free modules and the atomic fields in them that publish other
/// state: the trace buffer's `len` guards `UnsafeCell` slot contents. Each
/// must pair a release store with an acquire load; a relaxed store is a
/// finding, and a relaxed load needs an `// ORDERING:` justification.
pub const ATOMIC_PROTOCOL_MODULES: &[(&str, &[&str])] =
    &[("crates/szx-telemetry/src/trace.rs", &["len"])];

/// Run every lexical per-file rule on `file`.
pub fn check_file(file: &SourceFile, findings: &mut Vec<Finding>, counts: &mut Counts) {
    if let Some(&(_, fields)) = ATOMIC_PROTOCOL_MODULES
        .iter()
        .find(|(m, _)| *m == file.rel_path)
    {
        atomics::atomics_protocol(file, fields, findings, counts);
    }
}

/// Run the call-graph rule families. `files` must be the same slice (same
/// order) the graph was built from, so `Node::file` indexes into it.
pub fn check_graph(
    files: &[SourceFile],
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
    counts: &mut Counts,
) {
    panics::check_panic_reach(files, graph, findings, counts);
    allocs::check_hot_loop_allocs(files, graph, findings, counts);
    arith::check_parse_arith(files, graph, findings, counts);
}

/// Files that are test, bench, or example context even though their items
/// carry no `#[cfg(test)]`: integration-test trees, the shared `tests`
/// harness crate, benches, and examples. The graph rules neither treat
/// their fns as entry points nor scan their bodies — their callees are
/// still checked when a real entry reaches them.
pub(crate) fn is_test_context(rel_path: &str) -> bool {
    rel_path.starts_with("examples/")
        || rel_path.starts_with("benches/")
        || rel_path.starts_with("tests/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Macro-call search: `name` must not be preceded by an identifier char
/// (so `assert!` does not match inside `debug_assert!`).
pub(crate) fn has_macro(code: &str, name: &str) -> bool {
    let mut from = 0usize;
    while let Some(at) = code[from..].find(name) {
        let abs = from + at;
        if !code[..abs].chars().next_back().is_some_and(is_ident_char) {
            return true;
        }
        from = abs + name.len();
    }
    false
}

/// Does the line contain an index expression `expr[...]`? A `[` counts when
/// the previous non-space character ends an expression (identifier, `)`,
/// `]`), except when that identifier is a lifetime (`&'a [u8]`).
pub(crate) fn has_index_expr(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let mut j = i;
        while j > 0 && chars[j - 1] == ' ' {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let prev = chars[j - 1];
        if prev == ')' || prev == ']' {
            return true;
        }
        if is_ident_char(prev) {
            // Walk back over the identifier; a leading `'` makes it a
            // lifetime, and a keyword (`&mut [F]`, `dyn [..]`, `x in [..]`)
            // starts a type or expression — neither is an indexable value.
            let mut k = j - 1;
            while k > 0 && is_ident_char(chars[k - 1]) {
                k -= 1;
            }
            if k > 0 && chars[k - 1] == '\'' {
                continue;
            }
            const KEYWORDS: &[&str] = &[
                "mut", "dyn", "in", "as", "return", "break", "else", "match", "if", "while",
                "impl", "where", "move", "ref", "const", "static", "let", "loop",
            ];
            let ident: String = chars[k..j].iter().collect();
            if !KEYWORDS.contains(&ident.as_str()) {
                return true;
            }
        }
    }
    false
}

/// The identifier ending `s` (e.g. `"self.len"` → `"len"`).
pub(crate) fn trailing_ident(s: &str) -> String {
    s.chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect()
}

/// The identifier starting `s`.
pub(crate) fn leading_ident(s: &str) -> String {
    s.chars().take_while(|&c| is_ident_char(c)).collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::source::parse_source;

    /// Lexical-rule harness: run [`check_file`] on one synthetic source.
    pub(crate) fn run_on(rel_path: &str, src: &str) -> (Vec<Finding>, Counts) {
        let file = parse_source(rel_path, src);
        let mut findings = Vec::new();
        let mut counts = Counts::default();
        check_file(&file, &mut findings, &mut counts);
        (findings, counts)
    }

    /// Graph-rule harness: lex + parse + build the call graph over a
    /// synthetic workspace (no manifests, so no cross-crate edges), then
    /// run [`check_graph`].
    pub(crate) fn run_graph(sources: &[(&str, &str)]) -> (Vec<Finding>, Counts) {
        run_graph_with(sources, &[])
    }

    /// [`run_graph`] under the `(directory, Cargo.toml)` pairs `manifests`.
    pub(crate) fn run_graph_with(
        sources: &[(&str, &str)],
        manifests: &[(&str, &str)],
    ) -> (Vec<Finding>, Counts) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| parse_source(rel, src))
            .collect();
        let parsed: Vec<(String, crate::parse::ParsedFile)> = files
            .iter()
            .map(|f| (f.rel_path.clone(), crate::parse::parse_items(f)))
            .collect();
        let manifests: Vec<(String, String)> = manifests
            .iter()
            .map(|(dir, text)| (dir.to_string(), text.to_string()))
            .collect();
        let graph = CallGraph::build(&parsed, &manifests);
        let mut findings = Vec::new();
        let mut counts = Counts::default();
        check_graph(&files, &graph, &mut findings, &mut counts);
        findings.sort();
        (findings, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_expr_heuristic_edges() {
        assert!(has_index_expr("let x = data[i];"));
        assert!(has_index_expr("f()[0]"));
        assert!(!has_index_expr("let a: [u8; 8] = x;"));
        assert!(!has_index_expr("fn f(b: &'a [u8]) {}"));
        assert!(!has_index_expr("let v = vec![0; 4];"));
    }

    #[test]
    fn word_and_macro_helpers() {
        assert_eq!(leading_ident("scan8(d)"), "scan8");
        assert_eq!(trailing_ident("self.len"), "len");
        assert!(has_macro("assert!(x)", "assert!"));
        assert!(!has_macro("debug_assert!(x)", "assert!"));
    }
}
