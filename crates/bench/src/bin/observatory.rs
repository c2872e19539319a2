//! `observatory` — the szx benchmark observatory driver.
//!
//! ```text
//! observatory run      [--scale tiny|small|medium|large|full] [--samples N]
//!                      [--fields N] [--bounds 1e-2,1e-3,1e-4]
//!                      [--out-dir DIR] [--no-gate] [--ignore-throughput]
//!                      [--max-tput-drop F] [--max-ratio-drop F]
//!                      [--max-psnr-drop F] [--quiet]
//! observatory compare  <baseline.json> <current.json> [threshold flags]
//! observatory validate <file.json>
//! ```
//!
//! `run` sweeps the grid (see `bench::observatory`), writes the next
//! `BENCH_<n>.json` in `--out-dir` (default: the working directory), and —
//! unless `--no-gate` or there is no predecessor — compares against the
//! latest prior report, exiting non-zero on regression. `compare` diffs two
//! explicit reports; `validate` checks one against the schema. Both accept
//! a CLI run manifest (`szx … --manifest run.json`) anywhere a report is
//! expected — it loads as a one-record report.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::observatory::{
    compare, latest_bench, next_bench_path, BenchReport, CompareConfig, RunOptions,
};
use szx_data::Scale;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        _ => {
            eprintln!(
                "usage: observatory run|compare|validate ... (see crates/bench/src/bin/observatory.rs)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(gate_passed) => {
            if gate_passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_f64(args: &[String], flag: &str) -> Result<Option<f64>, String> {
    flag_value(args, flag)
        .map(|v| v.parse().map_err(|_| format!("bad {flag} value {v:?}")))
        .transpose()
}

fn compare_config(args: &[String]) -> Result<CompareConfig, String> {
    let mut cfg = CompareConfig::default();
    if let Some(v) = parse_f64(args, "--max-tput-drop")? {
        cfg.max_throughput_drop = v;
    }
    if let Some(v) = parse_f64(args, "--max-ratio-drop")? {
        cfg.max_ratio_drop = v;
    }
    if let Some(v) = parse_f64(args, "--max-psnr-drop")? {
        cfg.max_psnr_drop_db = v;
    }
    if has_flag(args, "--ignore-throughput") {
        cfg.check_throughput = false;
    }
    Ok(cfg)
}

/// Accepts both `BENCH_<n>.json` reports and CLI run manifests (the
/// `szx … --manifest` output) — either side of a `compare` can be either.
fn load_report(path: &Path) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    bench::observatory::load_any(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print findings; `Ok(true)` means the gate passed.
fn report_findings(
    baseline: &Path,
    findings: &[bench::observatory::Finding],
) -> Result<bool, String> {
    if findings.is_empty() {
        eprintln!("gate: OK against {}", baseline.display());
        return Ok(true);
    }
    eprintln!(
        "gate: {} regression(s) against {}:",
        findings.len(),
        baseline.display()
    );
    for f in findings {
        eprintln!("  {f}");
    }
    Ok(false)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let scale = match flag_value(args, "--scale") {
        None => Scale::Small,
        Some(name) => Scale::parse(&name).ok_or(format!("unknown scale {name:?}"))?,
    };
    let mut opts = RunOptions {
        scale,
        quiet: has_flag(args, "--quiet"),
        ..RunOptions::default()
    };
    if let Some(v) = flag_value(args, "--samples") {
        opts.samples = v
            .parse()
            .map_err(|_| format!("bad --samples value {v:?}"))?;
    }
    if let Some(v) = flag_value(args, "--fields") {
        opts.max_fields = v.parse().map_err(|_| format!("bad --fields value {v:?}"))?;
    }
    if let Some(v) = flag_value(args, "--bounds") {
        opts.bounds = v
            .split(',')
            .map(|b| b.parse().map_err(|_| format!("bad bound {b:?}")))
            .collect::<Result<_, String>>()?;
        if opts.bounds.is_empty() {
            return Err("--bounds needs at least one value".into());
        }
    }
    let out_dir = PathBuf::from(flag_value(args, "--out-dir").unwrap_or_else(|| ".".into()));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let baseline = latest_bench(&out_dir);
    let (id, out_path) = next_bench_path(&out_dir);
    if !opts.quiet {
        let simd = if szx_core::simd::available() {
            "/simd"
        } else {
            ""
        };
        eprintln!(
            "observatory: sweeping {} suites x {} bounds x scalar/kernel{simd} x serial/parallel",
            bench::observatory::SUITES.len(),
            opts.bounds.len()
        );
    }
    let mut report = bench::observatory::run(&opts);
    report.bench_id = id;
    std::fs::write(&out_path, report.to_json())
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("{} ({} records)", out_path.display(), report.records.len());

    match baseline {
        None => {
            eprintln!("gate: no prior BENCH_*.json — bootstrapped the trajectory");
            Ok(true)
        }
        Some((_, baseline_path)) => {
            let old = load_report(&baseline_path)?;
            let findings = compare(&old, &report, &compare_config(args)?);
            let passed = report_findings(&baseline_path, &findings)?;
            Ok(passed || has_flag(args, "--no-gate"))
        }
    }
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    // Positionals = tokens that are neither flags nor the value of a
    // value-taking threshold flag.
    let mut paths = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = matches!(
                a.as_str(),
                "--max-tput-drop" | "--max-ratio-drop" | "--max-psnr-drop"
            );
            continue;
        }
        paths.push(a);
    }
    let [baseline_path, current_path] = paths[..] else {
        return Err("compare needs <baseline.json> <current.json>".into());
    };
    let baseline = load_report(Path::new(baseline_path))?;
    let current = load_report(Path::new(current_path))?;
    let findings = compare(&baseline, &current, &compare_config(args)?);
    report_findings(Path::new(baseline_path), &findings)
}

fn cmd_validate(args: &[String]) -> Result<bool, String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("validate needs a file")?;
    let report = load_report(Path::new(path))?;
    println!(
        "{}: schema v{}, bench_id {}, {} records, scale {}, {} thread(s)",
        path,
        report.schema_version,
        report.bench_id,
        report.records.len(),
        report.scale,
        report.threads
    );
    Ok(true)
}
