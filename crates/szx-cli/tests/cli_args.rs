//! Argument checking: a misspelt or unknown flag, or a surplus argument,
//! fails the run before anything is written, and the message names the
//! token that was not understood.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("szx-cli-args-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_input(path: &Path) {
    let bytes: Vec<u8> = (0..5000)
        .flat_map(|i| ((i as f32 * 0.01).sin()).to_le_bytes())
        .collect();
    std::fs::write(path, bytes).unwrap();
}

/// Run `szx compress in.f32 out.szx --abs 1e-3` plus `extra`: it must fail
/// naming `token`, and leave neither `out.szx` nor `out.szx.partial`.
fn compress_rejects(name: &str, extra: &[&str], token: &str) {
    let dir = scratch(name);
    let input = dir.join("in.f32");
    let output = dir.join("out.szx");
    write_input(&input);
    let out = Command::new(env!("CARGO_BIN_EXE_szx"))
        .arg("compress")
        .args([&input, &output])
        .args(["--abs", "1e-3"])
        .args(extra)
        .output()
        .expect("run szx");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{extra:?} was accepted");
    assert!(stderr.contains(token), "{extra:?}: {stderr}");
    assert!(!output.exists(), "{extra:?} wrote an output");
    assert!(!dir.join("out.szx.partial").exists(), "{extra:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_scale_fails_before_creating_the_directory() {
    let dir = scratch("scale").join("fields");
    let out = Command::new(env!("CARGO_BIN_EXE_szx"))
        .args(["gen", "qmcpack"])
        .arg(&dir)
        .args(["--scale", "tinyy"])
        .output()
        .expect("run szx");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--scale tinyy was accepted");
    assert!(stderr.contains("tinyy"), "{stderr}");
    assert!(!dir.exists(), "gen created {}", dir.display());
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

#[test]
fn unknown_flags_and_surplus_paths_fail_before_writing() {
    // A misspelt flag, `--kernel` (the hot-loop path is detected, not
    // chosen), and a third path on a two-path command.
    compress_rejects("blok", &["--blok", "64"], "--blok");
    compress_rejects("kernel", &["--kernel", "simd"], "--kernel");
    compress_rejects("third", &["surplus.szx"], "surplus.szx");
}
