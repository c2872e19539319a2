//! True-positive suite: the audit must actually fire on the seeded
//! violations under `tests/fixtures/ws/` — one per rule — with stable
//! fingerprints. The committed-workspace tests only prove the zero-finding
//! path; this proves each rule detects what it claims to detect, and pins
//! the fingerprint scheme so a change to it is a deliberate, visible diff
//! (code scanning would see every alert as new).

use std::path::Path;

use szx_audit::report::{Report, RULE_IDS};

fn fixture_report() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    szx_audit::run_audit(&root).expect("fixture tree must be readable")
}

/// (rule, path, line, fingerprint) for every seeded violation. The
/// fingerprint hashes rule + symbol + normalized snippet — line numbers
/// are deliberately excluded, so editing a fixture's *comments* must not
/// change these values, while editing the violating code must.
const EXPECTED: &[(&str, &str, usize, &str)] = &[
    (
        "target-feature-guard",
        "crates/szx-core/src/simd/mod.rs",
        9,
        "732057a287fb89d2",
    ),
    (
        "panic-reach",
        "crates/szx-core/src/dekernels.rs",
        9,
        "2093d57f290a370f",
    ),
    (
        "hot-loop-alloc",
        "crates/szx-core/src/kernels.rs",
        7,
        "930d9743a069494b",
    ),
    (
        "checked-arith",
        "crates/szx-core/src/cursor.rs",
        5,
        "4308a758082d20ec",
    ),
    (
        "atomics-protocol",
        "crates/szx-telemetry/src/trace.rs",
        8,
        "19a34e45eca9306e",
    ),
];

#[test]
fn every_rule_fires_exactly_once_with_the_expected_fingerprint() {
    let report = fixture_report();
    assert_eq!(
        report.findings.len(),
        RULE_IDS.len(),
        "one seeded violation per rule:\n{}",
        report.render_text()
    );
    assert_eq!(EXPECTED.len(), RULE_IDS.len(), "table covers every rule");
    for &(rule, path, line, fp) in EXPECTED {
        let hits: Vec<_> = report.findings.iter().filter(|f| f.rule == rule).collect();
        assert_eq!(
            hits.len(),
            1,
            "rule {rule} must fire exactly once: {hits:?}"
        );
        let f = hits[0];
        assert_eq!(f.path, path, "{rule}");
        assert_eq!(f.line, line, "{rule}");
        assert_eq!(
            f.fingerprint, fp,
            "{rule} fingerprint drifted — a deliberate scheme change \
             re-identifies every code-scanning alert"
        );
    }
}

#[test]
fn panic_reach_reports_the_full_call_chain() {
    let report = fixture_report();
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "panic-reach")
        .expect("seeded panic-reach finding");
    assert_eq!(f.symbol, "szx_core::dekernels::deep_index");
    assert_eq!(f.chain.len(), 3, "entry → middle → helper: {:?}", f.chain);
    assert!(f.chain[0].contains("szx_core::decode::decompress"));
    assert!(f.chain[0].contains("crates/szx-core/src/decode.rs:5"));
    assert!(f.chain[1].contains("szx_core::dekernels::middle"));
    assert!(f.chain[2].contains("szx_core::dekernels::deep_index"));
    assert!(
        f.message.contains("szx_core::decode::decompress"),
        "message names the entry point: {}",
        f.message
    );
}

#[test]
fn report_is_deterministic_and_fingerprints_are_well_formed() {
    let a = fixture_report();
    let b = fixture_report();
    assert_eq!(a.to_json(), b.to_json(), "two runs must render identically");
    for f in &a.findings {
        assert_eq!(f.fingerprint.len(), 16, "{f:?}");
        assert!(
            f.fingerprint.chars().all(|c| c.is_ascii_hexdigit()),
            "{f:?}"
        );
    }
    let mut fps: Vec<&str> = a.findings.iter().map(|f| f.fingerprint.as_str()).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), a.findings.len(), "fingerprints must be distinct");
}

#[test]
fn sarif_rendering_carries_rules_results_and_fingerprints() {
    let report = fixture_report();
    let sarif = szx_audit::sarif::to_sarif(&report);
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    for rule in RULE_IDS {
        assert!(sarif.contains(&format!("\"id\": \"{rule}\"")), "{rule}");
    }
    for f in &report.findings {
        assert!(
            sarif.contains(&format!(
                "\"szxAuditFingerprint/v1\": \"{}\"",
                f.fingerprint
            )),
            "{}",
            f.fingerprint
        );
    }
    // The panic-reach result embeds its call chain in the message.
    assert!(sarif.contains("szx_core::dekernels::middle"));
}
