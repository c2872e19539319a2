//! The `checked-arith` rule: raw `+`/`*`/`<<` on length/offset-typed
//! locals on the parse paths must be `checked_*`/`saturating_*` (or carry
//! an `// ARITH-OK:` proof; `wrapping_*`, where wrapping is intended, is
//! the third compliant form and produces no raw operator at all).
//!
//! This generalizes the PR-7 `pos + len` cursor-overflow fix into a rule
//! that would have caught it: on a path that computes offsets from
//! attacker-controllable bytes, an unchecked add or multiply can wrap and
//! defeat a later bounds check. The rule is scoped to the cursor /
//! header / TOC / stream-index code and to operands whose *names* say
//! length or offset — wide enough to catch the real bug class, narrow
//! enough that every finding is actionable.

use crate::callgraph::CallGraph;
use crate::report::{Counts, Finding};
use crate::source::SourceFile;

/// Parse-path files: every non-test `fn` defined here is in scope.
pub const PARSE_PATH_FILES: &[&str] = &[
    "crates/szx-core/src/cursor.rs",
    "crates/szx-core/src/stream.rs",
    "crates/szx-core/src/container.rs",
    "crates/szx-core/src/source.rs",
];

/// Parse-path types: methods of these are in scope wherever they live
/// (StreamIndex's offset math sits in decode.rs).
const PARSE_PATH_TYPES: &[&str] = &["ContainerReader", "ContainerIndex", "StreamIndex"];

/// Identifier name segments that mark a local as length/offset-typed.
const LENGTH_SEGMENTS: &[&str] = &[
    "len", "length", "pos", "position", "off", "offs", "offset", "size", "count", "idx", "index",
    "end", "start", "cap", "bytes", "blocks", "nbits", "nbytes", "stride",
];

/// Does this identifier name a length/offset quantity? Matching is by
/// snake_case segment so `coeff` or `append` never match `off`/`end`.
fn length_ish(ident: &str) -> bool {
    if ident.is_empty() {
        return false;
    }
    ident
        .split('_')
        .any(|seg| LENGTH_SEGMENTS.contains(&seg.to_ascii_lowercase().as_str()))
}

/// Flag unchecked arithmetic on length/offset operands in parse-path
/// functions, honoring `// ARITH-OK:` on or above the site.
pub fn check_parse_arith(
    files: &[SourceFile],
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
    counts: &mut Counts,
) {
    for node in &graph.nodes {
        if node.item.is_test || super::is_test_context(&node.rel_path) {
            continue;
        }
        let impl_type = node.item.impl_type.as_deref().unwrap_or("");
        let in_scope = PARSE_PATH_FILES.contains(&node.rel_path.as_str())
            || PARSE_PATH_TYPES.contains(&impl_type);
        if !in_scope {
            continue;
        }
        let file = &files[node.file];
        for site in &node.item.arith {
            if file.in_test[site.line] {
                continue;
            }
            if !(length_ish(&site.lhs) || length_ish(&site.rhs)) {
                continue;
            }
            if file.annotated(site.line, "ARITH-OK:") {
                counts.arith_ok += 1;
                continue;
            }
            let operand = if length_ish(&site.lhs) {
                &site.lhs
            } else {
                &site.rhs
            };
            findings.push(Finding::in_symbol(
                "checked-arith",
                &file.rel_path,
                site.line + 1,
                &node.item.sym,
                file.lines[site.line].code.trim(),
                &format!(
                    "unchecked `{}` on length/offset operand `{operand}` on a parse path — \
                     use `checked_*`/`saturating_*` (or `// ARITH-OK:` with proof, or \
                     `wrapping_*` where wrapping is intended)",
                    site.op
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_graph;
    use super::length_ish;

    #[test]
    fn length_ish_matches_segments_not_substrings() {
        assert!(length_ish("pos"));
        assert!(length_ish("frame_len"));
        assert!(length_ish("byte_offset"));
        assert!(length_ish("num_blocks"));
        assert!(length_ish("end"));
        assert!(!length_ish("coeff"), "`off` must not match inside coeff");
        assert!(!length_ish("append"), "`end` must not match inside append");
        assert!(!length_ish("value"));
        assert!(!length_ish(""));
    }

    #[test]
    fn unchecked_add_on_cursor_path_is_flagged() {
        let src = "pub fn skip(pos: usize, len: usize) -> usize {\n\
                   pos + len\n\
                   }\n";
        let (f, _) = run_graph(&[("crates/szx-core/src/cursor.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "checked-arith");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("`+`"), "{}", f[0].message);
    }

    #[test]
    fn checked_add_and_non_length_operands_pass() {
        let src = "pub fn skip(pos: usize, len: usize) -> Option<usize> {\n\
                   let a = value * scale;\n\
                   pos.checked_add(len)\n\
                   }\n";
        let (f, _) = run_graph(&[("crates/szx-core/src/cursor.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn arith_ok_note_suppresses_and_counts() {
        let src = "pub fn section(len: usize) -> usize {\n\
                   // ARITH-OK: len <= u32::MAX checked by Header::parse.\n\
                   len * 4\n\
                   }\n";
        let (f, c) = run_graph(&[("crates/szx-core/src/stream.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(c.arith_ok, 1);
    }

    #[test]
    fn parse_path_types_are_in_scope_outside_the_file_list() {
        let src = "impl StreamIndex {\n\
                   fn toc_at(&self, idx: usize) -> usize {\n\
                   idx * 8\n\
                   }\n\
                   }\n";
        let (f, _) = run_graph(&[("crates/szx-core/src/decode.rs", src)]);
        assert!(
            f.iter().any(|x| x.rule == "checked-arith" && x.line == 3),
            "{f:?}"
        );
    }

    #[test]
    fn kernel_arithmetic_is_out_of_scope() {
        // The hot kernels live on validated lengths; their index math is
        // covered by clippy's cast lints and the scratch discipline, not
        // this rule.
        let src = "pub fn pack(n_bytes: usize) -> usize { n_bytes * 4 }\n";
        let (f, _) = run_graph(&[("crates/szx-core/src/kernels.rs", src)]);
        assert!(f.iter().all(|x| x.rule != "checked-arith"), "{f:?}");
    }
}
