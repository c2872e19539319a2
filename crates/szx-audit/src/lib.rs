//! szx-audit: in-tree static analysis for the szx-rs workspace.
//!
//! Zero dependencies, same ethos as `szx_telemetry::json`: a small,
//! hand-rolled lexer ([`source`]) feeds an item parser ([`parse`]) and a
//! workspace call graph ([`callgraph`]), over which project-specific rules
//! ([`rules`]) enforce the invariants the hot paths rely on that no
//! compiler checks — transitive panic-freedom from the decode entry
//! points, allocation-free hot loops, checked arithmetic on the parse
//! paths, the trace buffer's publish protocol, and guarded calls of
//! the `#[target_feature]` backends. The unsafe-code policy and the
//! kernels' narrowing casts are rustc and clippy lints, set in the Cargo
//! manifests. See DESIGN.md §10 for the safety model.
//!
//! Run it as `cargo run -p szx-audit` (or `scripts/check.sh --audit`);
//! the committed `results/AUDIT.json` must stay clean and fresh.

pub mod callgraph;
pub mod parse;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use report::Report;
use source::SourceFile;

/// Directories never descended into. `fixtures` holds szx-audit's own
/// seeded-violation test tree — auditing it would report its violations
/// as the workspace's.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures"];

/// Collect every `*.rs` file and every `Cargo.toml` under `root`, sorted
/// by workspace-relative path so reports are deterministic regardless of
/// filesystem order.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Workspace-relative path with `/` separators (report keys must not vary
/// by platform).
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run the full audit over the workspace rooted at `root`: lexical rules
/// per file, then the item parser and call graph feed the transitive rule
/// families.
pub fn run_audit(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut files: Vec<SourceFile> = Vec::new();
    let mut manifests: Vec<(String, String)> = Vec::new();
    for path in collect_sources(root)? {
        let text = fs::read_to_string(&path)?;
        if path.ends_with("Cargo.toml") {
            let dir = path.parent().map_or(String::new(), |d| rel_path(root, d));
            manifests.push((dir, text));
            continue;
        }
        let file = source::parse_source(&rel_path(root, &path), &text);
        report.counts.files_scanned += 1;
        report.counts.lines_scanned += file.lines.len();
        rules::check_file(&file, &mut report.findings, &mut report.counts);
        files.push(file);
    }
    rules::check_target_feature_guards(&files, &mut report.findings, &mut report.counts);

    let parsed: Vec<(String, parse::ParsedFile)> = files
        .iter()
        .map(|f| (f.rel_path.clone(), parse::parse_items(f)))
        .collect();
    let graph = callgraph::CallGraph::build(&parsed, &manifests);
    report.counts.fns_indexed = graph.nodes.len();
    report.counts.call_edges = graph.edge_count;
    rules::check_graph(&files, &graph, &mut report.findings, &mut report.counts);

    report.findings.sort();
    report.findings.dedup();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The audit's own acceptance gate: the workspace it lives in must be
    /// clean. Runs from the crate dir, so the workspace root is two up.
    #[test]
    fn audit_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run_audit(&root).expect("workspace sources must be readable");
        assert!(
            report.is_clean(),
            "szx-audit found violations:\n{}",
            report.render_text()
        );
        // Sanity: the scan actually saw the workspace.
        assert!(report.counts.files_scanned > 20, "{:?}", report.counts);
        assert!(
            report.counts.feature_guards > 0,
            "the SIMD dispatch layer's guarded #[target_feature] calls must be seen: {:?}",
            report.counts
        );
        // The call-graph stage actually ran: the item parser indexed the
        // workspace fns, resolution produced edges, and both transitive
        // rule families found their entry-point sets.
        assert!(report.counts.fns_indexed > 200, "{:?}", report.counts);
        assert!(report.counts.call_edges > 100, "{:?}", report.counts);
        assert!(report.counts.decode_entries > 10, "{:?}", report.counts);
        assert!(report.counts.hot_entries > 10, "{:?}", report.counts);
    }

    /// The unsafe-code policy is the manifests' `[lints]` tables, which
    /// rustc enforces — but Cargo applies the workspace table only to the
    /// members that opt in, so a package without one would silently allow
    /// unsafe code. Each must inherit the table or state its own.
    #[test]
    fn every_manifest_states_the_unsafe_code_lints() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let policy = [
            "unsafe_op_in_unsafe_fn = \"deny\"",
            "undocumented_unsafe_blocks = \"deny\"",
        ];
        let workspace = fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(workspace.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
        assert!(policy.iter().all(|p| workspace.contains(p)), "{workspace}");

        let mut packages = vec![root.join("examples"), root.join("tests"), root.join("fuzz")];
        for dir in ["crates", "shims"] {
            for entry in fs::read_dir(root.join(dir)).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    packages.push(path);
                }
            }
        }
        for dir in &packages {
            let text = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            let inherits = text.contains("[lints]\nworkspace = true\n");
            // szx-core, szx-telemetry and the rayon shim deny unsafe code
            // so single files can allow it; `fuzz/` is outside the
            // workspace and forbids it.
            let denies = text.contains("[lints.rust]\nunsafe_code = \"deny\"")
                && policy.iter().all(|p| text.contains(p));
            let forbids = text.contains("[lints.rust]\nunsafe_code = \"forbid\"");
            assert!(
                inherits || denies || forbids,
                "{} states no unsafe-code lints",
                dir.display()
            );
        }
        assert!(packages.len() > 15, "{packages:?}");
    }

    #[test]
    fn committed_report_is_fresh() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let committed = match fs::read_to_string(root.join("results/AUDIT.json")) {
            Ok(s) => s,
            // First run before the report exists: the CI audit job (which
            // regenerates and diffs) is the authority; skip here.
            Err(_) => return,
        };
        let report = run_audit(&root).expect("workspace sources must be readable");
        assert_eq!(
            committed,
            report.to_json(),
            "results/AUDIT.json is stale — regenerate with `cargo run -p szx-audit -- --json results/AUDIT.json`"
        );
    }
}
