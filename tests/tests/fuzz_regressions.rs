//! Committed-corpus regression replay: every file under `tests/corpus/` —
//! the seed corpus plus every minimized fuzz finding committed since — runs
//! through the same target functions the fuzzing engine mutates against
//! (`szx_fuzz::run_target_guarded`). A finding that was fixed stays fixed;
//! a corpus entry that once tripped a panic or a differential divergence
//! re-tripping it fails this suite, not a nightly fuzz run.
//!
//! The corpus directory is routed by file-name prefix (`decode_*` /
//! `round_*` / `container_*`, see [`szx_fuzz::FuzzTarget::for_corpus_file`])
//! and pinned by `MANIFEST.txt`; the manifest-freshness test fails when an
//! entry is added, removed, or edited without regenerating the manifest
//! (`cargo run -p szx-fuzz -- manifest tests/corpus`).

use std::path::PathBuf;

use szx_fuzz::corpus;
use szx_fuzz::FuzzTarget;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn load_corpus() -> Vec<(String, Vec<u8>)> {
    corpus::load_dir(&corpus_dir()).expect("tests/corpus must exist and be readable")
}

#[test]
fn every_corpus_entry_routes_to_a_target() {
    let entries = load_corpus();
    assert!(
        entries.len() >= 20,
        "corpus unexpectedly small ({} entries) — seed it with \
         `cargo run -p szx-fuzz -- seed tests/corpus`",
        entries.len()
    );
    for (name, _) in &entries {
        assert!(
            FuzzTarget::for_corpus_file(name).is_some(),
            "{name}: unknown corpus prefix (want decode_*/round_*/container_*)"
        );
    }
}

#[test]
fn corpus_replays_clean_through_every_target() {
    let entries = load_corpus();
    let mut replayed = 0usize;
    for (name, bytes) in &entries {
        let target = FuzzTarget::for_corpus_file(name)
            .unwrap_or_else(|| panic!("{name}: unroutable corpus entry"));
        if let Err(failure) = szx_fuzz::run_target_guarded(target, bytes) {
            panic!(
                "{name} ({} bytes): regression resurfaced: {failure}",
                bytes.len()
            );
        }
        replayed += 1;
    }
    assert!(replayed >= 20, "only {replayed} entries replayed");
}

#[test]
fn manifest_is_fresh() {
    let dir = corpus_dir();
    let entries = load_corpus();
    let expected = corpus::manifest_string(&entries);
    let committed = std::fs::read_to_string(dir.join(corpus::MANIFEST_NAME))
        .expect("tests/corpus/MANIFEST.txt must be committed");
    assert_eq!(
        committed, expected,
        "tests/corpus/MANIFEST.txt is stale — regenerate with \
         `cargo run -p szx-fuzz -- manifest tests/corpus`"
    );
}

#[test]
fn hostile_seeds_error_without_finding() {
    // The hand-written hostile entries (zz-prefixed) must keep exercising
    // the error paths: they may not decode, but they must never become
    // findings — and the truncated archive must specifically stay an error,
    // not silently start decoding after a format change.
    let entries = load_corpus();
    let trunc = entries
        .iter()
        .find(|(name, _)| name == "decode_zz_trunc.bin")
        .expect("truncated hostile seed present");
    assert!(szx_core::decompress::<f32>(&trunc.1).is_err());
    assert!(szx_core::decompress::<f64>(&trunc.1).is_err());
    let hostile_containers: Vec<_> = entries
        .iter()
        .filter(|(name, _)| name.starts_with("container_zz_"))
        .collect();
    assert_eq!(
        hostile_containers.len(),
        2,
        "hostile container seeds present"
    );
    for (name, bytes) in hostile_containers {
        assert!(szx_core::ContainerReader::new(bytes).is_err(), "{name}");
    }
}
