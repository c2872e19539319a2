//! Lexical rules: unsafe hygiene, crate-root lint attributes,
//! `#[target_feature]` call guards, and narrowing-cast notes.

use super::{
    is_ident_char, leading_ident, DENY_UNSAFE_CODE_ROOTS, DENY_UNSAFE_OP_ROOTS,
    FORBID_UNSAFE_ROOTS, UNSAFE_ALLOWLIST, UNSAFE_ALLOWLIST_PREFIXES,
};
use crate::report::{Counts, Finding};
use crate::source::SourceFile;

/// `unsafe` only in the allowlist, and there only with a `// SAFETY:`
/// justification on or directly above the site.
pub(super) fn unsafe_hygiene(file: &SourceFile, findings: &mut Vec<Finding>, counts: &mut Counts) {
    let allowed = UNSAFE_ALLOWLIST.contains(&file.rel_path.as_str())
        || UNSAFE_ALLOWLIST_PREFIXES
            .iter()
            .any(|p| file.rel_path.starts_with(p));
    for (i, line) in file.lines.iter().enumerate() {
        if !super::has_word(&line.code, "unsafe") {
            continue;
        }
        counts.unsafe_sites += 1;
        if !allowed {
            findings.push(Finding::in_symbol(
                "unsafe-allowlist",
                &file.rel_path,
                i + 1,
                &file.rel_path,
                line.code.trim(),
                "`unsafe` outside the allowlisted unsafe surfaces",
            ));
        } else if file.annotated(i, "SAFETY:") {
            counts.safety_comments += 1;
        } else {
            findings.push(Finding::in_symbol(
                "unsafe-safety",
                &file.rel_path,
                i + 1,
                &file.rel_path,
                line.code.trim(),
                "unsafe site without a `// SAFETY:` justification",
            ));
        }
    }
}

/// Narrowing `as` casts in kernel offset arithmetic need a `// CAST:` note
/// stating why the value fits.
pub(super) fn cast_notes(file: &SourceFile, findings: &mut Vec<Finding>, counts: &mut Counts) {
    const NARROW: &[&str] = &["as u8", "as u16", "as u32", "as i8", "as i16", "as i32"];
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let mut sites = 0usize;
        for pat in NARROW {
            let mut from = 0usize;
            while let Some(at) = line.code[from..].find(pat) {
                let abs = from + at;
                let before_ok =
                    abs == 0 || !is_ident_char(line.code[..abs].chars().next_back().unwrap_or(' '));
                let after = line.code[abs + pat.len()..].chars().next().unwrap_or(' ');
                if before_ok && !is_ident_char(after) {
                    sites += 1;
                }
                from = abs + pat.len();
            }
        }
        if sites == 0 {
            continue;
        }
        if file.annotated(i, "CAST:") {
            counts.cast_notes += sites;
        } else {
            findings.push(Finding::in_symbol(
                "cast-note",
                &file.rel_path,
                i + 1,
                &file.rel_path,
                line.code.trim(),
                "narrowing `as` cast in kernel arithmetic without a `// CAST:` note",
            ));
        }
    }
}

/// Cross-file rule: crate roots carry their lint attributes. `files` is the
/// full scanned set.
pub fn check_crate_attrs(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let find = |rel: &str| files.iter().find(|f| f.rel_path == rel);
    let declares = |f: &SourceFile, attr: &str| {
        f.lines
            .iter()
            .any(|l| l.code.replace(' ', "").contains(attr))
    };
    let mut require =
        |root: &'static str, rule: &'static str, attr: &str, missing: &str| match find(root) {
            Some(f) if declares(f, attr) => {}
            Some(_) => findings.push(Finding::new(rule, root, 1, missing)),
            None => findings.push(Finding::new(
                rule,
                root,
                1,
                "expected crate root not found under the audit root",
            )),
        };
    for &root in FORBID_UNSAFE_ROOTS {
        require(
            root,
            "forbid-unsafe",
            "#![forbid(unsafe_code)]",
            "crate root is missing #![forbid(unsafe_code)]",
        );
    }
    for &root in DENY_UNSAFE_OP_ROOTS {
        require(
            root,
            "deny-unsafe-op",
            "#![deny(unsafe_op_in_unsafe_fn)]",
            "crate root is missing #![deny(unsafe_op_in_unsafe_fn)]",
        );
    }
    for &root in DENY_UNSAFE_CODE_ROOTS {
        require(
            root,
            "deny-unsafe-code",
            "#![deny(unsafe_code)]",
            "crate root is missing #![deny(unsafe_code)]",
        );
    }
}

/// Cross-file rule: every call of a `#[target_feature]` backend sits behind
/// a `// SAFETY:` note that names the runtime feature-detection guard.
///
/// Definitions are collected from the files under
/// [`UNSAFE_ALLOWLIST_PREFIXES`]; call sites are matched as
/// `<backend-module>::<fn>(` in the *other* prefix files (the dispatch
/// layer). Calls inside a defining file are exempt — there they occur
/// inside functions carrying the same `#[target_feature]` set, where the
/// compiler itself proves the features present. The note must contain the
/// word "detect" (as in `is_x86_feature_detected!` / "runtime detection")
/// so a generic justification cannot satisfy the rule.
pub fn check_target_feature_guards(
    files: &[SourceFile],
    findings: &mut Vec<Finding>,
    counts: &mut Counts,
) {
    let in_prefix = |f: &SourceFile| {
        UNSAFE_ALLOWLIST_PREFIXES
            .iter()
            .any(|p| f.rel_path.starts_with(p))
    };
    // (qualified call pattern, fn name) for every target-feature fn.
    let mut backends: Vec<(String, String)> = Vec::new();
    let mut defining: Vec<&str> = Vec::new();
    for file in files.iter().filter(|f| in_prefix(f)) {
        let stem = file
            .rel_path
            .rsplit('/')
            .next()
            .unwrap_or_default()
            .trim_end_matches(".rs");
        let mut defines = false;
        for (i, line) in file.lines.iter().enumerate() {
            if !line.code.contains("#[target_feature(") {
                continue;
            }
            defines = true;
            // The fn item follows the attribute (possibly after more
            // attributes); take the first `fn <name>` within reach.
            for j in i + 1..file.lines.len().min(i + 4) {
                if let Some(at) = file.lines[j].code.find("fn ") {
                    let name = leading_ident(&file.lines[j].code[at + 3..]);
                    if !name.is_empty() {
                        backends.push((format!("{stem}::{name}"), name));
                    }
                    break;
                }
            }
        }
        if defines {
            defining.push(&file.rel_path);
        }
    }
    for file in files.iter().filter(|f| in_prefix(f)) {
        if defining.contains(&file.rel_path.as_str()) {
            continue;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            for (qualified, name) in &backends {
                let mut from = 0usize;
                while let Some(at) = line.code[from..].find(qualified.as_str()) {
                    let abs = from + at;
                    from = abs + qualified.len();
                    let before_ok = !line.code[..abs]
                        .chars()
                        .next_back()
                        .is_some_and(is_ident_char);
                    let called = line.code[from..].trim_start().starts_with('(');
                    if !before_ok || !called {
                        continue;
                    }
                    if detection_noted(file, i) {
                        counts.feature_guards += 1;
                    } else {
                        findings.push(Finding::in_symbol(
                            "target-feature-guard",
                            &file.rel_path,
                            i + 1,
                            &file.rel_path,
                            line.code.trim(),
                            &format!(
                                "call to `#[target_feature]` backend `{name}` without a \
                                 `// SAFETY:` note naming the runtime detection guard"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Is there a `// SAFETY:` note mentioning detection on or directly above
/// line `idx`, or above the enclosing `unsafe {` opener within three lines
/// (rustfmt puts multi-line unsafe blocks' openers on their own line)?
fn detection_noted(file: &SourceFile, idx: usize) -> bool {
    (idx.saturating_sub(3)..=idx).any(|j| {
        let mut text = file.comment_above(j);
        text.push_str(&file.lines[j].comment);
        text.contains("SAFETY:") && text.to_ascii_lowercase().contains("detect")
    })
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_on;
    use super::*;
    use crate::source::parse_source;

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let (f, c) = run_on("crates/szx-core/src/lib.rs", "unsafe { boom() }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-allowlist");
        assert_eq!(c.unsafe_sites, 1);
    }

    #[test]
    fn allowlisted_unsafe_needs_safety_comment() {
        let bad = "fn f() { unsafe { go() } }\n";
        let (f, _) = run_on("crates/szx-telemetry/src/trace.rs", bad);
        assert!(f.iter().any(|x| x.rule == "unsafe-safety"), "{f:?}");

        let good = "// SAFETY: the owner thread is the only writer.\nfn f() { unsafe { go() } }\n";
        let (f, c) = run_on("crates/szx-telemetry/src/trace.rs", good);
        assert!(f.iter().all(|x| x.rule != "unsafe-safety"), "{f:?}");
        assert_eq!(c.safety_comments, 1);
    }

    /// Allowlist review for the observability layer: the resource-sampler
    /// thread, exporters, manifest, snapshot, and progress modules are pure
    /// safe code, so `szx-telemetry` keeps its `unsafe` confined to the two
    /// long-audited files — nothing new earns an allowance. The only other
    /// file entry is the rayon shim's pool (one lifetime erasure).
    #[test]
    fn observability_modules_need_no_unsafe_allowance() {
        assert_eq!(
            UNSAFE_ALLOWLIST,
            &[
                "crates/szx-telemetry/src/trace.rs",
                "crates/szx-telemetry/src/json.rs",
                "shims/rayon/src/pool.rs",
            ]
        );
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for module in ["snapshot", "export", "resource", "manifest", "progress"] {
            let rel = format!("crates/szx-telemetry/src/{module}.rs");
            let text = std::fs::read_to_string(root.join(&rel)).expect("module exists");
            let (f, c) = run_on(&rel, &text);
            assert_eq!(c.unsafe_sites, 0, "{rel} must stay safe code");
            assert!(f.iter().all(|x| x.rule != "unsafe-allowlist"), "{f:?}");
        }
    }

    #[test]
    fn unsafe_in_word_or_string_does_not_count() {
        let (f, c) = run_on(
            "crates/szx-core/src/lib.rs",
            "#![forbid(unsafe_code)]\nlet s = \"unsafe\";\n",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(c.unsafe_sites, 0);
    }

    #[test]
    fn narrowing_casts_need_cast_notes() {
        let src = "fn f(x: u64) -> u8 {\n\
                   let a = x as u8;\n\
                   // CAST: leading_zeros() <= 64 fits in u8.\n\
                   let b = (x.leading_zeros() >> 3) as u8;\n\
                   let wide = a as u64;\n\
                   a + b\n\
                   }\n";
        let (f, c) = run_on("crates/szx-core/src/kernels.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "cast-note");
        assert_eq!(f[0].line, 2);
        assert_eq!(c.cast_notes, 1);
    }

    #[test]
    fn crate_attr_rule_reports_missing_roots() {
        let present = parse_source(
            "crates/szx-core/src/lib.rs",
            "#![deny(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n",
        );
        let mut findings = Vec::new();
        check_crate_attrs(&[present], &mut findings);
        // szx-core passes both deny checks; every forbid root, the
        // telemetry deny root and the rayon shim's two deny roots are
        // missing from the set.
        assert!(findings
            .iter()
            .all(|f| f.path != "crates/szx-core/src/lib.rs"));
        assert_eq!(findings.len(), FORBID_UNSAFE_ROOTS.len() + 3);
    }

    #[test]
    fn simd_prefix_is_allowlisted_but_still_needs_safety() {
        let src = "// SAFETY: caller proved the pointer in bounds.\n\
                   let x = unsafe { load(p) };\n\
                   let y = unsafe { load(q) };\n";
        let (f, c) = run_on("crates/szx-core/src/simd/x86.rs", src);
        assert_eq!(c.unsafe_sites, 2);
        assert_eq!(c.safety_comments, 1);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unsafe-safety");
        assert_eq!(f[0].line, 3);
    }

    fn tf_backend() -> SourceFile {
        parse_source(
            "crates/szx-core/src/simd/x86.rs",
            "#[target_feature(enable = \"avx2\")]\n\
             pub(super) fn scan8(d: &[f32]) {}\n\
             fn helper() { scan8(&[]) }\n",
        )
    }

    #[test]
    fn guarded_target_feature_call_passes_and_counts() {
        let caller = parse_source(
            "crates/szx-core/src/simd/mod.rs",
            "// SAFETY: ready() confirmed AVX2 via runtime feature detection.\n\
             let r = unsafe { x86::scan8(d) };\n",
        );
        let mut findings = Vec::new();
        let mut counts = Counts::default();
        check_target_feature_guards(&[tf_backend(), caller], &mut findings, &mut counts);
        // The intra-backend `scan8(&[])` call is exempt (same-feature
        // context); the dispatch-layer call is counted once.
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(counts.feature_guards, 1);
    }

    #[test]
    fn unguarded_target_feature_call_is_flagged() {
        // A SAFETY note that never names the detection guard does not
        // satisfy the rule.
        let caller = parse_source(
            "crates/szx-core/src/simd/mod.rs",
            "// SAFETY: trust me.\nlet r = unsafe { x86::scan8(d) };\n",
        );
        let mut findings = Vec::new();
        let mut counts = Counts::default();
        check_target_feature_guards(&[tf_backend(), caller], &mut findings, &mut counts);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "target-feature-guard");
        assert_eq!(counts.feature_guards, 0);
    }

    #[test]
    fn multiline_unsafe_block_note_is_found_from_the_call_line() {
        let caller = parse_source(
            "crates/szx-core/src/simd/mod.rs",
            "// SAFETY: coder_ready() confirmed AVX2 by runtime detection.\n\
             unsafe {\n\
                 x86::scan8(\n\
                     d,\n\
                 )\n\
             };\n",
        );
        let mut findings = Vec::new();
        let mut counts = Counts::default();
        check_target_feature_guards(&[tf_backend(), caller], &mut findings, &mut counts);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(counts.feature_guards, 1);
    }
}
