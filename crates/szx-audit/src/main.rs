//! CLI wrapper:
//!
//! ```text
//! szx-audit [--root DIR] [--json FILE] [--sarif FILE] [--quiet]
//! szx-audit explain <rule>
//! ```
//!
//! Prints `path:line: [rule] message` diagnostics (with call chains for the
//! graph rules) and a summary, optionally writes the deterministic JSON
//! report and a SARIF 2.1.0 file for code-scanning upload, and exits 1 when
//! any finding remains — so CI can gate on a plain exit code.
//!
//! `explain <rule>` prints the rule's contract, its annotation escape
//! hatch, and a minimal violating example — sourced verbatim from the
//! fixture suite under `tests/fixtures/ws/`, so the documentation cannot
//! drift from what the analyzer actually flags.

use std::path::PathBuf;
use std::process::ExitCode;

use szx_audit::report::RULE_IDS;

/// Per-rule documentation for `explain`: rule id, contract, escape hatch,
/// and the fixture files (path, source) seeding a minimal violation.
type RuleDoc = (
    &'static str,
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
);

/// `include_str!` ties the examples to the same sources the fixture tests
/// assert on, so the documentation cannot drift from the analyzer.
const EXPLAIN: &[RuleDoc] = &[
    (
        "target-feature-guard",
        "Every dispatch-layer call of a `#[target_feature]` backend sits \
         behind a `// SAFETY:` note that names the runtime feature-detection \
         guard (the note must mention detection).",
        "`// SAFETY: ... runtime feature detection ...` naming the guard, \
         e.g. the cached `is_x86_feature_detected!(\"avx2\")` check.",
        &[
            (
                "crates/szx-core/src/simd/mod.rs",
                include_str!("../tests/fixtures/ws/crates/szx-core/src/simd/mod.rs"),
            ),
            (
                "crates/szx-core/src/simd/x86.rs",
                include_str!("../tests/fixtures/ws/crates/szx-core/src/simd/x86.rs"),
            ),
        ],
    ),
    (
        "panic-reach",
        "No panic vector (`unwrap`/`expect`/panicking macro/unchecked \
         indexing) is transitively reachable from a decode entry point — \
         `decompress*`, the Decoder/Encoder/ContainerReader/StreamIndex \
         surfaces, and the header/container-index parsers. The analyzer walks the \
         workspace call graph and reports the full call chain from the \
         entry point to the offending line.",
        "`// PANIC-OK: <proof>` on or directly above the site, stating the \
         invariant that makes the panic unreachable (e.g. a bounds check \
         performed where the value was parsed).",
        &[
            (
                "crates/szx-core/src/decode.rs",
                include_str!("../tests/fixtures/ws/crates/szx-core/src/decode.rs"),
            ),
            (
                "crates/szx-core/src/dekernels.rs",
                include_str!("../tests/fixtures/ws/crates/szx-core/src/dekernels.rs"),
            ),
        ],
    ),
    (
        "hot-loop-alloc",
        "Loop bodies of functions reachable from the kernel/SIMD entry \
         points do not allocate (`Vec::new`, `vec![]`, `to_vec`, `clone`, \
         `collect`, `Box::new`, `format!`, ...) — the paper's throughput \
         claim rests on the block loops reusing the scratch arenas.",
        "`// ALLOC-OK: <reason>` on or directly above the site (e.g. a cold \
         error path taken at most once per stream).",
        &[(
            "crates/szx-core/src/kernels.rs",
            include_str!("../tests/fixtures/ws/crates/szx-core/src/kernels.rs"),
        )],
    ),
    (
        "checked-arith",
        "Raw `+`/`*`/`<<` on length/offset-named locals in cursor/header/\
         TOC/stream-index code must be `checked_*`/`saturating_*`: on a \
         path that computes offsets from attacker-controllable bytes, an \
         unchecked add can wrap and defeat a later bounds check.",
        "`// ARITH-OK: <proof>` that the arithmetic cannot wrap, or \
         `wrapping_*` where wrapping is intended.",
        &[(
            "crates/szx-core/src/cursor.rs",
            include_str!("../tests/fixtures/ws/crates/szx-core/src/cursor.rs"),
        )],
    ),
    (
        "atomics-protocol",
        "Publish fields in the lock-free modules (the trace buffer's `len`) \
         pair release stores with acquire loads; a relaxed store is a \
         finding, and a relaxed load needs justification.",
        "`// ORDERING: <reason>` — owner-thread relaxed loads.",
        &[(
            "crates/szx-telemetry/src/trace.rs",
            include_str!("../tests/fixtures/ws/crates/szx-telemetry/src/trace.rs"),
        )],
    ),
];

const USAGE: &str = "usage: szx-audit [--root DIR] [--json FILE] [--sarif FILE] [--quiet]\n       \
                     szx-audit explain <rule>";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut sarif_out: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "explain" => return explain(args.next().as_deref()),
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage("--json needs a file path"),
            },
            "--sarif" => match args.next() {
                Some(v) => sarif_out = Some(PathBuf::from(v)),
                None => return usage("--sarif needs a file path"),
            },
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let report = match szx_audit::run_audit(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("szx-audit: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("szx-audit: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = sarif_out {
        if let Err(e) = std::fs::write(&path, szx_audit::sarif::to_sarif(&report)) {
            eprintln!("szx-audit: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !quiet {
        print!("{}", report.render_text());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print one rule's contract, escape hatch, and seeded example.
fn explain(rule: Option<&str>) -> ExitCode {
    let Some(rule) = rule else {
        eprintln!(
            "szx-audit: explain needs a rule id\nrules: {}",
            RULE_IDS.join(", ")
        );
        return ExitCode::from(2);
    };
    let Some(&(id, contract, escape, examples)) = EXPLAIN.iter().find(|e| e.0 == rule) else {
        eprintln!(
            "szx-audit: unknown rule `{rule}`\nrules: {}",
            RULE_IDS.join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{id}");
    println!("{}", "=".repeat(id.len()));
    println!("\ncontract:\n  {}", rewrap(contract));
    println!("\nescape hatch:\n  {}", rewrap(escape));
    println!("\nviolating example (from the fixture suite):");
    for (path, text) in examples {
        println!("\n  --- tests/fixtures/ws/{path} ---");
        for line in text.lines() {
            println!("  {line}");
        }
    }
    ExitCode::SUCCESS
}

/// Re-wrap a doc string for 2-space-indented terminal output.
fn rewrap(text: &str) -> String {
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut out = String::new();
    let mut col = 0usize;
    for w in words {
        if col > 0 && col + 1 + w.len() > 76 {
            out.push_str("\n  ");
            col = 0;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(w);
        col += w.len();
    }
    out
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("szx-audit: {msg}\n{USAGE}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_table_covers_every_rule_in_order() {
        let explained: Vec<&str> = EXPLAIN.iter().map(|e| e.0).collect();
        assert_eq!(explained, RULE_IDS, "EXPLAIN must track report::RULE_IDS");
        for &(id, contract, escape, examples) in EXPLAIN {
            assert!(!contract.is_empty() && !escape.is_empty(), "{id}");
            assert!(!examples.is_empty(), "{id} needs a fixture example");
        }
    }

    #[test]
    fn rewrap_preserves_words_and_bounds_lines() {
        let text = "a ".repeat(100);
        let wrapped = rewrap(&text);
        assert_eq!(wrapped.split_whitespace().count(), 100);
        assert!(wrapped.lines().all(|l| l.len() <= 78), "{wrapped}");
    }
}
