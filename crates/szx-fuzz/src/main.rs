//! `szx-fuzz` — deterministic fuzzing / differential torture CLI.
//!
//! Fully offline and reproducible: campaigns are pure functions of the
//! `--seed` value and the corpus directory contents.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use szx_fuzz::corpus;
use szx_fuzz::engine::{fuzz_target, Finding, FuzzOptions};
use szx_fuzz::targets::{run_target_guarded, FuzzTarget};

const USAGE: &str = "\
szx-fuzz — deterministic fuzzing + differential torture harness for szx-rs

USAGE:
  szx-fuzz seed     <corpus-dir>
      Regenerate the seed corpus (six dataset generators x configs,
      containers, roundtrip specs, hostile headers) + MANIFEST.txt.
  szx-fuzz run      <decode|round|container|all> [--corpus <dir>] [--seed <n>]
                    [--iters <n>] [--time-secs <s>] [--max-findings <k>]
                    [--save-dir <dir>]
      Fuzz one target (or all three). Findings are minimized; with
      --save-dir they are written as corpus files ready to commit.
  szx-fuzz smoke    [--corpus <dir>] [--seed <n>] [--iters <n>]
                    [--time-secs <s>]
      Bounded differential smoke: replay the corpus, then a short
      campaign per target. Exit 1 on any finding. CI entry point.
  szx-fuzz replay   <corpus-dir>
      Replay every corpus file through its target; exit 1 on failures.
  szx-fuzz manifest <corpus-dir>
      Rewrite MANIFEST.txt from the directory contents.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("seed") => cmd_seed(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("manifest") => cmd_manifest(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(clean) if clean => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects an integer, got {v:?}")),
    }
}

fn corpus_dir(args: &[String]) -> PathBuf {
    PathBuf::from(flag_value(args, "--corpus").unwrap_or("tests/corpus"))
}

/// Silence the default panic printer: every caught panic would otherwise
/// spray a backtrace line mid-campaign (minimization alone replays a
/// failing input thousands of times).
fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn hex_preview(bytes: &[u8]) -> String {
    let shown: String = bytes
        .iter()
        .take(48)
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ");
    if bytes.len() > 48 {
        format!("{shown} … ({} bytes)", bytes.len())
    } else {
        format!("{shown} ({} bytes)", bytes.len())
    }
}

fn report_findings(findings: &[Finding], save_dir: Option<&Path>) -> Result<(), String> {
    for f in findings {
        eprintln!(
            "FINDING [{}] at iteration {}: {}\n  input: {}",
            f.target.name(),
            f.iteration,
            f.failure,
            hex_preview(&f.input)
        );
        if let Some(dir) = save_dir {
            let name = corpus::finding_name(f.target.name(), &f.input);
            let path = dir.join(&name);
            std::fs::write(&path, &f.input).map_err(|e| format!("write {name}: {e}"))?;
            eprintln!("  saved: {}", path.display());
        }
    }
    if let Some(dir) = save_dir {
        if !findings.is_empty() {
            corpus::write_manifest(dir).map_err(|e| format!("manifest: {e}"))?;
        }
    }
    Ok(())
}

/// Load the corpus and bucket entries per target by file-name prefix.
fn seeds_for(dir: &Path, target: FuzzTarget) -> Result<Vec<Vec<u8>>, String> {
    let entries = corpus::load_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(entries
        .into_iter()
        .filter(|(name, _)| FuzzTarget::for_corpus_file(name) == Some(target))
        .map(|(_, bytes)| bytes)
        .collect())
}

fn campaign(
    target: FuzzTarget,
    dir: &Path,
    opts: &FuzzOptions,
    save_dir: Option<&Path>,
) -> Result<bool, String> {
    let seeds = seeds_for(dir, target)?;
    let (stats, findings) = fuzz_target(target, &seeds, opts);
    println!(
        "[{}] {} iterations, {} novel outcomes, live corpus {}, {:.2}s{}{}",
        target.name(),
        stats.iterations,
        stats.novel_outcomes,
        stats.live_corpus,
        stats.elapsed.as_secs_f64(),
        if stats.hit_time_budget {
            " (time budget hit)"
        } else {
            ""
        },
        if findings.is_empty() {
            ", clean".to_string()
        } else {
            format!(", {} FINDINGS", findings.len())
        },
    );
    report_findings(&findings, save_dir)?;
    Ok(findings.is_empty())
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let which = args.first().ok_or("run: missing target name")?;
    let targets: Vec<FuzzTarget> = if which == "all" {
        FuzzTarget::ALL.to_vec()
    } else {
        vec![FuzzTarget::from_name(which)
            .ok_or_else(|| format!("unknown target {which:?} (decode|round|container|all)"))?]
    };
    let dir = corpus_dir(args);
    let save_dir = flag_value(args, "--save-dir").map(PathBuf::from);
    let opts = FuzzOptions {
        seed: parse_u64(args, "--seed", 1)?,
        iters: parse_u64(args, "--iters", 20_000)?,
        time_budget: match flag_value(args, "--time-secs") {
            Some(v) => Some(Duration::from_secs(
                v.parse().map_err(|_| "--time-secs expects seconds")?,
            )),
            None => None,
        },
        max_findings: parse_u64(args, "--max-findings", 8)? as usize,
    };
    quiet_panics();
    let mut clean = true;
    for target in targets {
        clean &= campaign(target, &dir, &opts, save_dir.as_deref())?;
    }
    Ok(clean)
}

fn cmd_smoke(args: &[String]) -> Result<bool, String> {
    let dir = corpus_dir(args);
    let iters = parse_u64(args, "--iters", 400)?;
    let time_secs = parse_u64(args, "--time-secs", 45)?;
    let opts = FuzzOptions {
        seed: parse_u64(args, "--seed", 0x00C0_FFEE)?,
        iters,
        time_budget: Some(Duration::from_secs(time_secs)),
        max_findings: 4,
    };
    quiet_panics();
    // The corpus replay is part of the smoke: committed regression inputs
    // must stay clean before mutation even starts.
    let mut clean = replay_dir(&dir)?;
    for target in FuzzTarget::ALL {
        clean &= campaign(target, &dir, &opts, None)?;
    }
    println!(
        "smoke: {} (seed {}, {} iters/target, {}s cap)",
        if clean { "clean" } else { "FINDINGS" },
        opts.seed,
        iters,
        time_secs
    );
    Ok(clean)
}

fn replay_dir(dir: &Path) -> Result<bool, String> {
    let entries = corpus::load_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if entries.is_empty() {
        return Err(format!("{}: empty corpus", dir.display()));
    }
    let mut clean = true;
    let mut replayed = 0usize;
    for (name, bytes) in &entries {
        let Some(target) = FuzzTarget::for_corpus_file(name) else {
            eprintln!("REPLAY {name}: no target claims this prefix");
            clean = false;
            continue;
        };
        replayed += 1;
        if let Err(failure) = run_target_guarded(target, bytes) {
            eprintln!("REPLAY {name}: {failure}");
            clean = false;
        }
    }
    println!(
        "replay: {replayed}/{} corpus entries, {}",
        entries.len(),
        if clean { "clean" } else { "FAILURES" }
    );
    Ok(clean)
}

fn cmd_replay(args: &[String]) -> Result<bool, String> {
    // Positional dir or `--corpus <dir>` (matching run/smoke); defaults to
    // tests/corpus.
    let dir = match args.first().filter(|a| !a.starts_with("--")) {
        Some(d) => PathBuf::from(d),
        None => corpus_dir(args),
    };
    quiet_panics();
    replay_dir(&dir)
}

fn cmd_manifest(args: &[String]) -> Result<bool, String> {
    let dir = args.first().ok_or("manifest: missing corpus dir")?;
    let n = corpus::write_manifest(Path::new(dir)).map_err(|e| e.to_string())?;
    println!("manifest: {n} entries");
    Ok(true)
}

// ---------------------------------------------------------------------------
// Seed-corpus generation
// ---------------------------------------------------------------------------

fn cmd_seed(args: &[String]) -> Result<bool, String> {
    let dir = PathBuf::from(args.first().ok_or("seed: missing corpus dir")?);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut written = 0usize;
    let mut write = |name: &str, bytes: &[u8]| -> Result<(), String> {
        std::fs::write(dir.join(name), bytes).map_err(|e| format!("{name}: {e}"))?;
        written += 1;
        Ok(())
    };

    use szx_core::{CommitStrategy, ErrorBound, KernelPath, SzxConfig};
    use szx_fuzz::gen::{Spec, SpecType};

    let strategies = [
        CommitStrategy::ByteAligned,
        CommitStrategy::BitPack,
        CommitStrategy::BytePlusResidual,
    ];
    let block_sizes = [64usize, 17, 128, 1, 4096, 200];

    // One archive + one container per Table-2 application, rotating
    // block sizes, strategies, and bound modes so the seed corpus starts
    // on every major format path.
    for (k, app) in szx_data::Application::ALL.iter().enumerate() {
        let short = app.short_name().to_lowercase();
        let values = app.fuzz_seed_values(1024);
        let bound = if k % 2 == 0 {
            ErrorBound::Absolute(1e-3)
        } else {
            ErrorBound::Relative(1e-4)
        };
        let cfg = SzxConfig {
            block_size: block_sizes[k % block_sizes.len()],
            error_bound: bound,
            strategy: strategies[k % strategies.len()],
            kernel: KernelPath::detect(),
            parallel: false,
        };
        let archive = szx_core::compress(&values, &cfg).map_err(|e| e.to_string())?;
        write(&format!("decode_{short}.szx"), &archive)?;

        let container = (|| {
            let mut w = szx_core::ContainerWriter::new(Vec::new(), SzxConfig::absolute(1e-3))?;
            for (i, chunk) in values.chunks(300).enumerate() {
                w.push(&i.to_string(), chunk)?;
            }
            w.finish()
        })()
        .map_err(|e| e.to_string())?;
        write(&format!("container_{short}.szxc"), &container)?;
    }

    // f64 archives for two applications (the dtype byte must start on both
    // settings so mutation can cross-pollute).
    for app in [szx_data::Application::CesmAtm, szx_data::Application::Nyx] {
        let short = app.short_name().to_lowercase();
        let values: Vec<f64> = app
            .fuzz_seed_values(768)
            .into_iter()
            .map(f64::from)
            .collect();
        let archive =
            szx_core::compress(&values, &SzxConfig::absolute(1e-5)).map_err(|e| e.to_string())?;
        write(&format!("decode_{short}_f64.szx"), &archive)?;
    }

    // Roundtrip specs: hand-picked corners of the config space.
    let specs = [
        Spec {
            dtype: SpecType::F32,
            strategy: CommitStrategy::ByteAligned,
            block_size: 128,
            bound: ErrorBound::Absolute(1e-3),
            n: 5000,
            shape: 0,
            inject: 0,
            seed: 11,
        },
        Spec {
            dtype: SpecType::F64,
            strategy: CommitStrategy::ByteAligned,
            block_size: 17,
            bound: ErrorBound::Relative(1e-4),
            n: 700,
            shape: 4,
            inject: 0,
            seed: 12,
        },
        Spec {
            dtype: SpecType::F32,
            strategy: CommitStrategy::BitPack,
            block_size: 1,
            bound: ErrorBound::Absolute(1e-6),
            n: 300,
            shape: 1,
            inject: 0,
            seed: 13,
        },
        Spec {
            dtype: SpecType::F64,
            strategy: CommitStrategy::BytePlusResidual,
            block_size: 4096,
            bound: ErrorBound::Relative(1e-2),
            n: 8000,
            shape: 5,
            inject: 0,
            seed: 14,
        },
        // Lossless arm (eb = 0).
        Spec {
            dtype: SpecType::F32,
            strategy: CommitStrategy::ByteAligned,
            block_size: 128,
            bound: ErrorBound::Absolute(0.0),
            n: 2000,
            shape: 1,
            inject: 0,
            seed: 15,
        },
        // Special-value storms: NaN/Inf/denormal/huge-range blocks.
        Spec {
            dtype: SpecType::F32,
            strategy: CommitStrategy::ByteAligned,
            block_size: 64,
            bound: ErrorBound::Absolute(1e-4),
            n: 3000,
            shape: 0,
            inject: 0x1f,
            seed: 16,
        },
        Spec {
            dtype: SpecType::F64,
            strategy: CommitStrategy::ByteAligned,
            block_size: 128,
            bound: ErrorBound::Relative(1e-5),
            n: 2500,
            shape: 2,
            inject: 0x0b,
            seed: 17,
        },
        // Constant field, tiny blocks.
        Spec {
            dtype: SpecType::F32,
            strategy: CommitStrategy::BitPack,
            block_size: 3,
            bound: ErrorBound::Absolute(1e-2),
            n: 900,
            shape: 6,
            inject: 0,
            seed: 18,
        },
    ];
    for (k, spec) in specs.iter().enumerate() {
        write(&format!("round_{k}.spec"), &spec.to_bytes())?;
    }

    // Hostile parser seeds: committed Err-path regression anchors.
    write("decode_zz_empty.bin", &[])?;
    write(
        "decode_zz_badmagic.bin",
        b"NOPE\x01\x00\x02\x00AAAABBBBCCCCDDDD",
    )?;
    {
        let values = szx_data::Application::Hurricane.fuzz_seed_values(512);
        let archive =
            szx_core::compress(&values, &SzxConfig::absolute(1e-3)).map_err(|e| e.to_string())?;
        write("decode_zz_trunc.bin", &archive[..20.min(archive.len())])?;
    }
    {
        // 32-byte containers with a valid index CRC: a count claiming
        // u32::MAX entries, and an index_len reaching back past the header.
        use szx_core::container::{crc32c, MAGIC, VERSION};
        let index = [&u32::MAX.to_le_bytes()[..], &[0x11; 7]].concat();
        let crc = crc32c(&index).to_le_bytes();
        for (name, index_len) in [("hugecount", 11u64), ("badindexlen", 1000)] {
            let len = index_len.to_le_bytes();
            let bytes = [&MAGIC[..], &[VERSION], &index, &crc, &len, &MAGIC].concat();
            write(&format!("container_zz_{name}.bin"), &bytes)?;
        }
    }

    let listed = corpus::write_manifest(&dir).map_err(|e| e.to_string())?;
    println!(
        "seeded {written} corpus entries into {} ({listed} in manifest)",
        dir.display()
    );
    Ok(true)
}
