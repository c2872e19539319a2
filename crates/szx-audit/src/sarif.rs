//! SARIF 2.1.0 renderer.
//!
//! Emits a single-run SARIF log suitable for GitHub code scanning
//! (`github/codeql-action/upload-sarif`). The output is deterministic —
//! findings arrive pre-sorted from the report, rule metadata comes from the
//! static [`RULE_IDS`] table, and there are no timestamps — so the file can
//! be diffed across runs just like `results/AUDIT.json`.
//!
//! Mapping:
//! - each rule id becomes a `tool.driver.rules[]` entry (`ruleId` matches),
//! - each finding becomes a `results[]` entry with one physical location,
//! - the stable finding fingerprint lands in
//!   `partialFingerprints.szxAuditFingerprint/v1`, which GitHub uses to
//!   track alert identity across commits,
//! - panic-reachability call chains are appended to the message text (code
//!   scanning renders only `message.text`, so the chain must live there).

use crate::report::{json_string, Report, RULE_IDS};
use std::fmt::Write as _;

/// Short human description per rule, surfaced in the SARIF rule metadata.
fn rule_description(rule: &str) -> &'static str {
    match rule {
        "target-feature-guard" => {
            "`#[target_feature]` fn without a SAFETY note naming the runtime detection guard"
        }
        "panic-reach" => {
            "panic vector transitively reachable from a decode entry point without `// PANIC-OK:`"
        }
        "hot-loop-alloc" => {
            "allocation in a loop body reachable from a kernel entry point without `// ALLOC-OK:`"
        }
        "checked-arith" => "unchecked `+`/`*`/`<<` on a length/offset local on a parse path",
        "atomics-protocol" => "atomic access violating the documented ordering protocol",
        _ => "szx-audit rule",
    }
}

/// Render `report` as a SARIF 2.1.0 log.
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"szx-audit\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/szx/szx\",\n");
    out.push_str("          \"version\": \"3.0.0\",\n");
    out.push_str("          \"rules\": [");
    for (i, rule) in RULE_IDS.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
            json_string(rule),
            json_string(rule_description(rule))
        );
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let mut message = f.message.clone();
        if !f.chain.is_empty() {
            message.push_str("\ncall chain:\n");
            for step in &f.chain {
                message.push_str("  -> ");
                message.push_str(step);
                message.push('\n');
            }
        }
        let _ = write!(
            out,
            "{sep}\n        {{\n          \"ruleId\": {},\n          \"level\": \"error\",\n          \
             \"message\": {{\"text\": {}}},\n          \"locations\": [\n            \
             {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}\n          ],\n          \
             \"partialFingerprints\": {{\"szxAuditFingerprint/v1\": {}}}\n        }}",
            json_string(f.rule),
            json_string(&message),
            json_string(&f.path),
            f.line.max(1),
            json_string(&f.fingerprint)
        );
    }
    if report.findings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n      ]\n");
    }
    out.push_str("    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Finding;

    #[test]
    fn empty_report_is_valid_skeleton() {
        let s = to_sarif(&Report::default());
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"szx-audit\""));
        assert!(s.contains("\"results\": []"));
        // Every rule id is declared in driver metadata.
        for rule in RULE_IDS {
            assert!(s.contains(&format!("\"id\": \"{rule}\"")), "missing {rule}");
        }
    }

    #[test]
    fn findings_map_to_results_with_fingerprints_and_chains() {
        let mut r = Report::default();
        r.findings.push(
            Finding::in_symbol(
                "panic-reach",
                "crates/szx-core/src/decode.rs",
                42,
                "szx_core::decode::helper",
                "x.unwrap()",
                "`.unwrap()` reachable from `szx_core::decode::decompress`",
            )
            .with_chain(vec![
                "szx_core::decode::decompress (crates/szx-core/src/decode.rs:10)".into(),
                "szx_core::decode::helper (crates/szx-core/src/decode.rs:42)".into(),
            ]),
        );
        let s = to_sarif(&r);
        assert!(s.contains("\"ruleId\": \"panic-reach\""));
        assert!(s.contains("\"startLine\": 42"));
        assert!(s.contains("szxAuditFingerprint/v1"));
        assert!(s.contains(&r.findings[0].fingerprint));
        assert!(s.contains("call chain:"), "{s}");
        assert!(s.contains("-> szx_core::decode::decompress"));
        // Deterministic.
        assert_eq!(s, to_sarif(&r));
    }
}
