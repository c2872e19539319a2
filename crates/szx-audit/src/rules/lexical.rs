//! The lexical `target-feature-guard` rule: calls of `#[target_feature]`
//! backends sit behind a `// SAFETY:` note naming the runtime detection
//! guard.

use super::{is_ident_char, leading_ident, TARGET_FEATURE_PREFIX};
use crate::report::{Counts, Finding};
use crate::source::SourceFile;

/// Cross-file rule: every call of a `#[target_feature]` backend sits behind
/// a `// SAFETY:` note that names the runtime feature-detection guard.
///
/// Definitions are collected from the files under
/// [`TARGET_FEATURE_PREFIX`]; call sites are matched as
/// `<backend-module>::<fn>(` in the *other* files there (the dispatch
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
    let in_prefix = |f: &SourceFile| f.rel_path.starts_with(TARGET_FEATURE_PREFIX);
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
    use super::*;
    use crate::source::parse_source;

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
