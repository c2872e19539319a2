//! The `panic-reach` rule: no panic vector transitively reachable from a
//! decode entry point without a `// PANIC-OK:` proof anywhere on the path.
//!
//! This replaces PR-5's `panic-path` file allowlist. Instead of trusting a
//! hand-maintained list of decode-side *files*, the rule starts from the
//! decode entry points — `decompress*`, the `Decoder`/`Encoder`/
//! `ContainerReader`/`StreamIndex` surfaces, and the header and
//! container-index parsers — walks the workspace call graph, and scans every reachable
//! function body (in any file) for `unwrap`/`expect`/panicking
//! macros/unchecked indexing. Each finding reports the full call chain from the entry point
//! so the justification (or fix) can be written where the invariant is
//! actually established.

use super::{has_index_expr, has_macro};
use crate::callgraph::{CallGraph, Node};
use crate::report::{Counts, Finding};
use crate::source::SourceFile;
use std::collections::HashSet;

/// Panicking macros (the `debug_` variants are compiled out of release
/// kernels and deliberately exempt).
const MACROS: &[&str] = &[
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

/// Impl types whose methods parse attacker-controllable bytes, read them
/// by position (`Span`) or take caller block indices and ranges.
const ENTRY_TYPES: &[&str] = &[
    "Decoder",
    "Encoder",
    "ContainerReader",
    "StreamIndex",
    "StreamHead",
    "Span",
];

/// Parser types where only the named constructors are entries (other
/// methods are accessors over already-validated state, and are still
/// checked transitively when an entry reaches them).
const PARSER_TYPES: &[&str] = &["Header", "ContainerIndex"];

/// The `szx` tool's positional file I/O: its raw-file reader and window
/// source, its container file and the frames read through it, and the
/// decoded-window writer. Pool threads read and write any window at its
/// own offset, so these take file bytes and offsets the way the decode
/// entries take stream bytes.
const POSITIONAL_IO: &[&str] = &[
    "RawFile",
    "Frame",
    "ContainerFile",
    "Frames",
    "write_frames",
    "info_report",
    "list_report",
];

/// Is this function a decode entry point — a place where untrusted bytes
/// first enter the library? Scoped to the szx-core crate, plus the `szx`
/// tool's [`POSITIONAL_IO`]: the baseline codecs (szx-baselines,
/// szx-gpu-sim) define their own `decompress*` surfaces, but they only
/// ever parse bytes they themselves produced in the bench harness — the
/// untrusted-input contract is szx-core's.
pub fn is_decode_entry(node: &Node) -> bool {
    if node.item.is_test || super::is_test_context(&node.rel_path) {
        return false;
    }
    let name = node.item.name.as_str();
    let impl_type = node.item.impl_type.as_deref().unwrap_or("");
    if node.krate == "szx_cli" {
        return POSITIONAL_IO.contains(&impl_type) || POSITIONAL_IO.contains(&name);
    }
    node.krate == "szx_core" && is_core_entry(name, impl_type)
}

fn is_core_entry(name: &str, impl_type: &str) -> bool {
    name.starts_with("decompress")
        || ENTRY_TYPES.contains(&impl_type)
        || (PARSER_TYPES.contains(&impl_type) && matches!(name, "parse" | "build" | "new"))
        || name == "inspect"
}

/// Scan every function reachable from the decode entry points for panic
/// vectors, honoring `// PANIC-OK:` on or directly above the site.
pub fn check_panic_reach(
    files: &[SourceFile],
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
    counts: &mut Counts,
) {
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| is_decode_entry(&graph.nodes[i]))
        .collect();
    counts.decode_entries = entries.len();
    let reach = graph.reach(&entries);

    // Nested fns sit inside their parent's body range; when both are
    // reachable, report each line once (shortest chain wins via sorted
    // BFS-stable order below).
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut suppressed: HashSet<(usize, usize)> = HashSet::new();
    let mut order: Vec<usize> = reach.keys().copied().collect();
    order.sort_by_key(|&i| (reach[&i].len(), graph.nodes[i].item.sym.clone()));

    for ni in order {
        let node = &graph.nodes[ni];
        if super::is_test_context(&node.rel_path) {
            continue;
        }
        let file = &files[node.file];
        let chain: Vec<String> = reach[&ni]
            .iter()
            .map(|s| format!("{} ({}:{})", s.sym, s.rel_path, s.line))
            .collect();
        let entry_sym = reach[&ni]
            .first()
            .map(|s| s.sym.clone())
            .unwrap_or_default();
        let (lo, hi) = node.item.body;
        for i in lo..=hi.min(file.lines.len().saturating_sub(1)) {
            if file.in_test[i] {
                continue;
            }
            let code = &file.lines[i].code;
            let mut hits: Vec<&str> = Vec::new();
            if code.contains(".unwrap()") {
                hits.push("`.unwrap()`");
            }
            if code.contains(".expect(") {
                hits.push("`.expect(...)`");
            }
            for m in MACROS {
                if has_macro(code, m) {
                    hits.push(m);
                }
            }
            if has_index_expr(code) {
                hits.push("slice index without `.get`");
            }
            if hits.is_empty() || !seen.insert((node.file, i)) {
                continue;
            }
            if file.annotated(i, "PANIC-OK:") {
                if suppressed.insert((node.file, i)) {
                    counts.panic_ok += hits.len();
                }
                continue;
            }
            for h in hits {
                findings.push(
                    Finding::in_symbol(
                        "panic-reach",
                        &file.rel_path,
                        i + 1,
                        &node.item.sym,
                        code.trim(),
                        &format!(
                            "{h} reachable from decode entry `{entry_sym}` \
                             (no `// PANIC-OK:` note)"
                        ),
                    )
                    .with_chain(chain.clone()),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_graph;

    #[test]
    fn panic_vector_in_entry_body_is_flagged() {
        let src = "pub fn decompress(b: &[u8]) -> u8 {\n\
                   let x = b.first().unwrap();\n\
                   let y = b[1];\n\
                   panic!(\"no\");\n\
                   }\n";
        let (f, c) = run_graph(&[("crates/szx-core/src/decode.rs", src)]);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["panic-reach"; 3], "{f:?}");
        assert_eq!(c.decode_entries, 1);
    }

    #[test]
    fn panic_in_transitively_called_helper_reports_full_chain() {
        let entry = "pub fn decompress(b: &[u8]) -> u8 {\n\
                     middle(b)\n\
                     }\n";
        let helper = "pub fn middle(b: &[u8]) -> u8 {\n\
                      deep_index(b)\n\
                      }\n\
                      pub fn deep_index(b: &[u8]) -> u8 {\n\
                      b[7]\n\
                      }\n";
        let (f, _) = run_graph(&[
            ("crates/szx-core/src/decode.rs", entry),
            ("crates/szx-core/src/dekernels.rs", helper),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "panic-reach");
        assert_eq!(f[0].path, "crates/szx-core/src/dekernels.rs");
        assert_eq!(f[0].line, 5);
        assert_eq!(f[0].symbol, "szx_core::dekernels::deep_index");
        // Full entry → middle → helper chain, with call-site coordinates.
        assert_eq!(f[0].chain.len(), 3, "{:?}", f[0].chain);
        assert!(f[0].chain[0].contains("szx_core::decode::decompress"));
        assert!(f[0].chain[1].contains("szx_core::dekernels::middle"));
        assert!(f[0].chain[2].contains("szx_core::dekernels::deep_index"));
        assert!(f[0].message.contains("szx_core::decode::decompress"));
    }

    #[test]
    fn panic_ok_note_suppresses_anywhere_on_the_path() {
        let entry = "pub fn decompress(b: &[u8]) -> u8 {\n\
                     helper(b)\n\
                     }\n";
        let helper = "pub fn helper(b: &[u8]) -> u8 {\n\
                      // PANIC-OK: decompress validated b.len() >= 8 above.\n\
                      b[7]\n\
                      }\n";
        let (f, c) = run_graph(&[
            ("crates/szx-core/src/decode.rs", entry),
            ("crates/szx-core/src/dekernels.rs", helper),
        ]);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(c.panic_ok, 1);
    }

    #[test]
    fn unreachable_helpers_are_not_scanned() {
        let entry = "pub fn decompress(b: &[u8]) -> u8 { b.len() as u8 }\n";
        let helper = "pub fn encode_only(b: &[u8]) -> u8 { b[0] }\n";
        let (f, _) = run_graph(&[
            ("crates/szx-core/src/decode.rs", entry),
            ("crates/szx-core/src/kernels.rs", helper),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn reader_methods_and_parsers_are_entries() {
        let src = "impl ContainerReader {\n\
                   pub fn frame(&self, i: usize) -> u8 { self.toc[i] }\n\
                   }\n\
                   impl Header {\n\
                   pub fn parse(b: &[u8]) -> u8 { b[0] }\n\
                   }\n";
        let (f, c) = run_graph(&[("crates/szx-core/src/container.rs", src)]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(c.decode_entries, 2);
    }

    #[test]
    fn decoder_methods_are_entries() {
        let src = "impl Decoder {\n\
                   pub fn decode(&mut self, b: &[u8]) -> u8 { b[0] }\n\
                   }\n";
        let (f, c) = run_graph(&[("crates/szx-core/src/decode.rs", src)]);
        assert_eq!(c.decode_entries, 1);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].symbol, "szx_core::decode::Decoder::decode");
    }

    #[test]
    fn encoder_methods_are_entries() {
        let src = "impl<F> Encoder<F> {\n\
                   pub fn push(&mut self, w: &[F]) -> F { w[0] }\n\
                   }\n";
        let (f, c) = run_graph(&[("crates/szx-core/src/encode.rs", src)]);
        assert_eq!(c.decode_entries, 1);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].symbol, "szx_core::encode::Encoder::push");
    }

    #[test]
    fn positional_io_of_the_cli_is_an_entry() {
        let src = "impl<F> RawFile<F> {\n\
                   fn read(&self, b: &[u8]) -> u8 { b[0] }\n\
                   }\n\
                   fn write_frames(b: &[u8]) -> u8 { b[1] }\n\
                   fn cmd_gen(b: &[u8]) -> u8 { b[2] }\n";
        let (f, c) = run_graph(&[("crates/szx-cli/src/main.rs", src)]);
        assert_eq!(c.decode_entries, 2);
        let symbols: Vec<&str> = f.iter().map(|x| x.symbol.as_str()).collect();
        assert_eq!(
            symbols,
            ["szx_cli::RawFile::read", "szx_cli::write_frames"],
            "{f:?}"
        );
    }

    #[test]
    fn container_reader_methods_are_entries() {
        let src = "impl ContainerReader {\n\
                   pub fn frame_bytes(&self, i: usize) -> u8 { self.b[i] }\n\
                   pub fn len(&self) -> usize { self.n }\n\
                   }\n\
                   impl ContainerIndex {\n\
                   pub(crate) fn parse(b: &[u8]) -> u8 { b[0] }\n\
                   fn entry(&self, i: usize) -> u8 { self.e[i] }\n\
                   }\n";
        let (f, c) = run_graph(&[("crates/szx-core/src/container.rs", src)]);
        // Every reader method is an entry; of the index only `parse` is.
        assert_eq!(c.decode_entries, 3);
        let symbols: Vec<&str> = f.iter().map(|x| x.symbol.as_str()).collect();
        assert_eq!(
            symbols,
            [
                "szx_core::container::ContainerReader::frame_bytes",
                "szx_core::container::ContainerIndex::parse",
            ],
            "{f:?}"
        );
    }

    #[test]
    fn test_functions_are_neither_entries_nor_scanned() {
        let src = "pub fn decompress(b: &[u8]) -> u8 { helper(b) }\n\
                   pub fn helper(b: &[u8]) -> u8 { b.len() as u8 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   #[test]\n\
                   fn t() { super::helper(&[0][..1]); x[0].unwrap(); }\n\
                   }\n";
        let (f, _) = run_graph(&[("crates/szx-core/src/decode.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn debug_assert_and_unwrap_or_are_not_panic_vectors() {
        let src = "pub fn decompress(v: &[u8]) {\n\
                   debug_assert!(v.len() > 1);\n\
                   debug_assert_eq!(v.len(), 2);\n\
                   let _ = v.first().copied().unwrap_or(0);\n\
                   let _ = v.first().copied().unwrap_or_default();\n\
                   }\n";
        let (f, _) = run_graph(&[("crates/szx-core/src/decode.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lifetime_slices_and_attributes_are_not_index_exprs() {
        let src = "#[derive(Debug)]\n\
                   pub struct S<'a> { pub b: &'a [u8], pub n: [u8; 4] }\n\
                   pub fn decompress(x: &'static [u8]) -> Vec<u8> { vec![0; 4] }\n";
        let (f, _) = run_graph(&[("crates/szx-core/src/decode.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }
}
