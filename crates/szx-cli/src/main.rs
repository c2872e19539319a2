//! `szx` — command-line compressor/decompressor/assessor, mirroring the
//! upstream SZx executable's workflow on raw little-endian f32/f64 files.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use szx_core::{CommitStrategy, ErrorBound, SzxConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compress") => cmd_compress(&args[1..]),
        Some("decompress") => cmd_decompress(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("assess") => cmd_assess(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("archive") => cmd_archive(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("extract") => cmd_extract(&args[1..]),
        _ => {
            eprint!("{}", USAGE);
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
szx — ultrafast error-bounded lossy compression (SZx, HPDC '22)

USAGE:
  szx compress   <in.f32> <out.szx> --abs <e> | --rel <r>
                 [--f64] [--block <n>] [--parallel] [--strategy a|b|c]
                 [--kernel auto|scalar|kernel|simd] [--stats [--json]]
                 [--trace <out.trace.json>] [--metrics <out.prom>]
                 [--events <out.jsonl>] [--manifest <run.json>]
                 [--profile <out.folded> [--profile-svg <out.svg>]]
  szx decompress <in.szx> <out.f32> [--parallel]
                 [--kernel auto|scalar|kernel|simd] [--stats [--json]]
                 [--trace <out.trace.json>] [--metrics <out.prom>]
                 [--events <out.jsonl>] [--manifest <run.json>]
                 [--profile <out.folded> [--profile-svg <out.svg>]]
  szx stream     <in.f32> <out.szxc> --abs <e> | --rel <r>
                 [--f64] [--frame <elems>] [--progress] [--stats [--json]]
                 [--metrics <out.prom>] [--events <out.jsonl>]
                 [--manifest <run.json>]
                 [--profile <out.folded> [--profile-svg <out.svg>]]
  szx assess     <orig.f32|orig.f64> <in.szx> [--stats [--json]]
                 [--profile <out.folded> [--profile-svg <out.svg>]]
  szx info       <in.szx> [--stats]
  szx gen        <cesm|hurricane|miranda|nyx|qmcpack|scale> <out-dir>
                 [--scale tiny|small|medium|large|full]
  szx archive    <out.szxc> <field1.f32> [field2.f32 ...] --abs <e> | --rel <r>
  szx list       <in.szxc>
  szx extract    <in.szxc> <field-name> <out.f32|out.f64>

  --stats collects per-stage wall times, block classification counters, and
  the required-length histogram (szx-telemetry); the report goes to stderr
  as a table, or to stdout as one JSON line with --json. Setting
  SZX_TELEMETRY=1 enables collection without the flag.

  --trace records a per-thread event timeline (stage zones, one lane per
  rayon worker) and writes Chrome trace_event JSON loadable in
  about:tracing or https://ui.perfetto.dev. SZX_TRACE=1 enables recording
  without the flag (the CLI still needs --trace to know where to write).

  assess reads the original as raw little-endian f32 or f64, matching the
  element type recorded in the compressed stream's header.

  --metrics writes the final registry snapshot as a Prometheus text
  exposition (format 0.0.4); --events streams per-frame JSON-lines events;
  --manifest writes a versioned run manifest (config, dataset digest,
  metrics, quality) the bench observatory can ingest. Any of the three
  implies telemetry collection and starts the resource accountant (peak
  RSS, CPU time, per-phase attribution via /proc/self).

  stream, archive, list and extract share one container (SZXC): named
  SZx streams written to the file as each completes, each with a CRC32C,
  and a trailing index. stream names its frames 0, 1, 2, ...; archive
  names each field after its file stem; extract writes f32 or f64 as the
  frame's header records. stream compresses the input one frame at a
  time; --progress renders a live line with EWMA GB/s, the running ratio,
  and an ETA (on stderr, so piped stdout stays clean).

  --profile runs the zone-stack sampling profiler (~997 Hz; SZX_PROFILE_HZ
  overrides) across the command and writes collapsed stacks
  (inferno/speedscope format); --profile-svg additionally renders an
  in-tree SVG flamegraph. Self/total time per zone also lands in the
  registry as profile.* entries, riding --stats/--metrics/--manifest.
";

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn read_f32s(path: &Path) -> Result<Vec<f32>, String> {
    szx_data::io::read_f32_raw(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Honor `--stats` (and the `SZX_TELEMETRY` env var, which
/// `szx_telemetry::enabled` reads on its own). Returns whether a report
/// should be emitted at the end of the command.
fn stats_requested(args: &[String]) -> bool {
    if has_flag(args, "--stats") {
        szx_telemetry::set_enabled(true);
    }
    szx_telemetry::enabled()
}

/// Emit the telemetry report: a human table on stderr, or — with `--json` —
/// exactly one JSON object line on stdout (JSON-lines framing, so pipelines
/// can append and `jq` can parse).
fn emit_stats(json: bool, extra: Vec<(&str, szx_telemetry::Value)>) {
    let mut report = szx_telemetry::global().snapshot();
    for (k, v) in extra {
        report.push_extra(k, v);
    }
    if json {
        println!("{}", szx_telemetry::render_jsonl(&report));
    } else {
        eprint!("{}", szx_telemetry::render_table(&report));
    }
    // Trace-buffer overflow is otherwise invisible in --stats-only runs.
    if let Some(dropped) = report.counter("trace.dropped_events") {
        if dropped > 0 {
            eprintln!(
                "warning: {dropped} trace events dropped — timeline is incomplete \
                 (raise SZX_TRACE_CAPACITY)"
            );
        }
    }
    // Sampler health: a high torn-read rate means very short zones kept
    // beating the seqlock and the profile under-represents them.
    if let (Some(samples), Some(torn)) = (
        report.counter("profile.samples_total"),
        report.counter("profile.torn_retries"),
    ) {
        let attempts = samples + torn;
        if torn > 0 && attempts > 0 && torn as f64 / attempts as f64 > 0.01 {
            eprintln!(
                "warning: {torn} of {attempts} profile stack reads were torn (>1%) — \
                 lower SZX_PROFILE_HZ or expect short zones to be under-sampled"
            );
        }
    }
}

/// A running `--profile` session: sampler started before the timed work,
/// output paths remembered for [`profile_finish`].
struct ProfileRun {
    folded: PathBuf,
    svg: Option<PathBuf>,
    profiler: szx_profile::Profiler,
}

/// Honor `--profile <out.folded>` (and `--profile-svg <out.svg>`): starts
/// the sampler thread and enables zone-stack publication so every thread —
/// including rayon workers, which self-register on first zone entry — is
/// sampled for the rest of the command.
fn profile_begin(args: &[String]) -> Result<Option<ProfileRun>, String> {
    let Some(folded) = flag_value(args, "--profile").map(PathBuf::from) else {
        if has_flag(args, "--profile-svg") {
            return Err("--profile-svg requires --profile <out.folded>".into());
        }
        return Ok(None);
    };
    let svg = flag_value(args, "--profile-svg").map(PathBuf::from);
    let profiler = szx_profile::Profiler::start(szx_profile::default_hz());
    Ok(Some(ProfileRun {
        folded,
        svg,
        profiler,
    }))
}

/// Stop the sampler, write the folded stacks (and the SVG flamegraph when
/// asked), and publish `profile.*` registry entries. Must run before
/// [`Obs::finish`] / [`emit_stats`] so the metrics snapshot those take
/// includes the profile.
fn profile_finish(run: Option<ProfileRun>) -> Result<(), String> {
    let Some(run) = run else { return Ok(()) };
    let hz = run.profiler.hz();
    let profile = run.profiler.stop();
    profile.publish();
    std::fs::write(&run.folded, profile.folded())
        .map_err(|e| format!("{}: {e}", run.folded.display()))?;
    eprintln!(
        "profile: {} samples over {} stacks at {} Hz -> {}",
        profile.samples,
        profile.stacks.len(),
        hz,
        run.folded.display()
    );
    if let Some(svg) = &run.svg {
        std::fs::write(svg, szx_profile::render_flamegraph_svg(&profile))
            .map_err(|e| format!("{}: {e}", svg.display()))?;
        eprintln!("flamegraph: {}", svg.display());
    }
    Ok(())
}

/// Observability outputs requested on the command line (tentpole flags).
/// `begin` turns collection on and starts the resource accountant when any
/// export is requested; `finish` stops the accountant, writes the
/// Prometheus exposition and the manifest, and closes the event sink.
struct Obs {
    metrics: Option<PathBuf>,
    events: Option<PathBuf>,
    manifest: Option<PathBuf>,
    accountant: Option<szx_telemetry::ResourceAccountant>,
}

fn obs_begin(args: &[String]) -> Result<Obs, String> {
    let metrics = flag_value(args, "--metrics").map(PathBuf::from);
    let events = flag_value(args, "--events").map(PathBuf::from);
    let manifest = flag_value(args, "--manifest").map(PathBuf::from);
    let any = metrics.is_some() || events.is_some() || manifest.is_some();
    if any {
        szx_telemetry::set_enabled(true);
    }
    if let Some(path) = &events {
        let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        szx_telemetry::install_event_sink(Box::new(std::io::BufWriter::new(f)));
        szx_telemetry::emit_event(
            "run.start",
            &[("argv", szx_telemetry::Value::Str(args.join(" ")))],
        );
    }
    let accountant =
        any.then(|| szx_telemetry::ResourceAccountant::start(std::time::Duration::from_millis(50)));
    Ok(Obs {
        metrics,
        events,
        manifest,
        accountant,
    })
}

impl Obs {
    fn any(&self) -> bool {
        self.metrics.is_some() || self.events.is_some() || self.manifest.is_some()
    }

    /// Stop sampling, flush every requested artifact. `manifest` carries the
    /// command-specific sections (config, dataset, quality); the final
    /// metrics snapshot is attached here so it includes the accountant's
    /// last (exact-peak) sample.
    fn finish(mut self, manifest: Option<szx_telemetry::Manifest>) -> Result<(), String> {
        if let Some(acc) = self.accountant.take() {
            acc.stop();
        }
        if self.events.is_some() {
            if szx_telemetry::event_sink_installed() {
                szx_telemetry::emit_event("run.complete", &[]);
            }
            drop(szx_telemetry::take_event_sink()); // flush + close
        }
        if !self.any() {
            return Ok(());
        }
        let snapshot = szx_telemetry::global().snapshot();
        if let Some(path) = &self.metrics {
            std::fs::write(path, szx_telemetry::render_prometheus(&snapshot))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("metrics: {}", path.display());
        }
        if let Some(path) = &self.manifest {
            let mut m = manifest.ok_or("internal: manifest requested but not built")?;
            m.set_metrics(&snapshot);
            let mut text = m.render();
            text.push('\n');
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("manifest: {}", path.display());
        }
        Ok(())
    }
}

/// Quality section of a compress-style manifest, from measured distortion.
/// Measuring it costs one extra decompression — documented behavior of
/// `--manifest` on the compress/stream paths.
fn quality_entries(
    d: &szx_metrics::DistortionStats,
    raw_bytes: usize,
    stream_bytes: usize,
) -> Vec<(&'static str, szx_telemetry::Value)> {
    use szx_telemetry::Value;
    vec![
        (
            "ratio",
            Value::F64(raw_bytes as f64 / stream_bytes.max(1) as f64),
        ),
        ("psnr_db", Value::F64(d.psnr)),
        ("max_abs_err", Value::F64(d.max_abs_error)),
        ("nrmse", Value::F64(d.nrmse)),
    ]
}

/// `\"label\": value` pairs summarizing one timed codec pass.
fn pass_extras(
    mode: &str,
    raw_bytes: usize,
    stream_bytes: usize,
    elapsed: std::time::Duration,
) -> Vec<(&'static str, szx_telemetry::Value)> {
    use szx_telemetry::Value;
    let secs = elapsed.as_secs_f64();
    vec![
        ("mode", Value::Str(mode.to_string())),
        ("raw_bytes", Value::U64(raw_bytes as u64)),
        ("stream_bytes", Value::U64(stream_bytes as u64)),
        (
            "compression_ratio",
            Value::F64(raw_bytes as f64 / stream_bytes as f64),
        ),
        ("elapsed_ms", Value::F64(secs * 1e3)),
        (
            "throughput_gbps",
            Value::F64(raw_bytes as f64 / 1e9 / secs.max(1e-12)),
        ),
    ]
}

/// Honor `--trace <path>` (and the `SZX_TRACE` env var): returns where the
/// Chrome trace should be written, enabling event recording as a side
/// effect so the whole command lands in the capture.
fn trace_requested(args: &[String]) -> Option<PathBuf> {
    let path = flag_value(args, "--trace").map(PathBuf::from);
    if path.is_some() {
        szx_telemetry::set_trace_enabled(true);
    }
    path
}

/// Drain the flight recorder and write Chrome `trace_event` JSON.
fn write_trace(path: &Path) -> Result<(), String> {
    let capture = szx_telemetry::take_trace();
    let events = capture.events.len();
    let json = szx_telemetry::render_chrome_trace(&capture);
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "trace: {} events -> {} (open in about:tracing or ui.perfetto.dev){}",
        events,
        path.display(),
        if capture.dropped > 0 {
            format!(
                "; {} events dropped (raise SZX_TRACE_CAPACITY)",
                capture.dropped
            )
        } else {
            String::new()
        }
    );
    Ok(())
}

/// First two non-flag tokens, skipping the values of value-taking flags.
fn io_pair(args: &[String]) -> Result<(PathBuf, PathBuf), String> {
    match positional(args)[..] {
        [ref input, ref output, ..] => Ok((input.clone(), output.clone())),
        _ => Err("need input and output paths".into()),
    }
}

/// The arguments that are neither flags nor flag values.
fn positional(args: &[String]) -> Vec<PathBuf> {
    let mut cleaned = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            if matches!(
                a.as_str(),
                "--abs"
                    | "--rel"
                    | "--block"
                    | "--strategy"
                    | "--scale"
                    | "--kernel"
                    | "--trace"
                    | "--metrics"
                    | "--events"
                    | "--manifest"
                    | "--frame"
                    | "--profile"
                    | "--profile-svg"
            ) {
                skip = true;
            }
            continue;
        }
        cleaned.push(PathBuf::from(a));
    }
    cleaned
}

/// Hot-loop selection shared by compress and decompress: `scalar` is the
/// reference oracle, `kernel` the branch-free portable path, `simd` the
/// explicit AVX2/NEON path (falls back to `kernel` when the CPU lacks the
/// ISA or `SZX_DISABLE_SIMD` is set); outputs are identical in all cases.
fn parse_kernel(args: &[String]) -> Result<szx_core::KernelSelect, String> {
    match flag_value(args, "--kernel").as_deref() {
        Some("auto") | None => Ok(szx_core::KernelSelect::Auto),
        Some("scalar") => Ok(szx_core::KernelSelect::Scalar),
        Some("kernel") => Ok(szx_core::KernelSelect::Kernel),
        Some("simd") => Ok(szx_core::KernelSelect::Simd),
        Some(other) => Err(format!("unknown kernel selection {other}")),
    }
}

/// `--abs <e>` or `--rel <r>`.
fn parse_bound(args: &[String]) -> Result<ErrorBound, String> {
    let value = |flag: &str| {
        flag_value(args, flag).map(|v| v.parse::<f64>().map_err(|_| format!("bad {flag} value")))
    };
    match (value("--abs"), value("--rel")) {
        (Some(e), _) => Ok(ErrorBound::Absolute(e?)),
        (None, Some(r)) => Ok(ErrorBound::Relative(r?)),
        (None, None) => Err("need --abs <e> or --rel <r>".into()),
    }
}

/// Full `SzxConfig` from the compression flags shared by `compress` and
/// `stream` (`--abs`/`--rel`, `--block`, `--strategy`, `--kernel`).
fn parse_config(args: &[String]) -> Result<SzxConfig, String> {
    let bound = parse_bound(args)?;
    let block: usize = flag_value(args, "--block")
        .map(|b| b.parse().map_err(|_| "bad --block value".to_string()))
        .transpose()?
        .unwrap_or(szx_core::DEFAULT_BLOCK_SIZE);
    let strategy = match flag_value(args, "--strategy").as_deref() {
        Some("a") => CommitStrategy::BitPack,
        Some("b") => CommitStrategy::BytePlusResidual,
        Some("c") | None => CommitStrategy::ByteAligned,
        Some(other) => return Err(format!("unknown strategy {other}")),
    };
    Ok(SzxConfig {
        block_size: block,
        error_bound: bound,
        strategy,
        kernel: parse_kernel(args)?,
        parallel: false,
    })
}

fn cmd_compress(args: &[String]) -> Result<(), String> {
    let (input, output) = io_pair(args)?;
    let cfg = parse_config(args)?.with_parallel(has_flag(args, "--parallel"));
    let stats = stats_requested(args);
    let trace = trace_requested(args);
    let obs = obs_begin(args)?;
    let prof = profile_begin(args)?;
    let json = has_flag(args, "--json");
    let want_quality = obs.manifest.is_some();

    let bytes = std::fs::read(&input).map_err(|e| format!("{}: {e}", input.display()))?;
    let start = std::time::Instant::now();
    let (compressed, elapsed, quality) = if has_flag(args, "--f64") {
        if bytes.len() % 8 != 0 {
            return Err("input length is not a multiple of 8".into());
        }
        let data: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let c = szx_core::compress(&data, &cfg).map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        let q = if want_quality {
            Some(szx_metrics::distortion_f64(
                &data,
                &decompress_quiet::<f64>(&c)?,
            ))
        } else {
            None
        };
        (c, elapsed, q)
    } else {
        if bytes.len() % 4 != 0 {
            return Err("input length is not a multiple of 4 (use --f64 for doubles?)".into());
        }
        let data: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let c = szx_core::compress(&data, &cfg).map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        let q = if want_quality {
            Some(szx_metrics::distortion(
                &data,
                &decompress_quiet::<f32>(&c)?,
            ))
        } else {
            None
        };
        (c, elapsed, q)
    };
    let cr = bytes.len() as f64 / compressed.len() as f64;
    std::fs::write(&output, &compressed).map_err(|e| format!("{}: {e}", output.display()))?;
    let summary = format!(
        "{} -> {} ({} -> {} bytes, CR {:.2})",
        input.display(),
        output.display(),
        bytes.len(),
        compressed.len(),
        cr
    );
    // With --json, stdout carries exactly the JSON report line.
    if stats && json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    let mode = mode_name(cfg.parallel);
    let manifest = obs.manifest.is_some().then(|| {
        let dtype = if has_flag(args, "--f64") {
            "f64"
        } else {
            "f32"
        };
        let mut m = run_manifest("compress", &cfg, dtype, &input, &bytes);
        let mut q = quality_entries(
            quality.as_ref().expect("quality measured when --manifest"),
            bytes.len(),
            compressed.len(),
        );
        q.push((
            "compress_gbps",
            szx_telemetry::Value::F64(bytes.len() as f64 / 1e9 / elapsed.as_secs_f64().max(1e-12)),
        ));
        m.set_quality(&q);
        m
    });
    profile_finish(prof)?;
    obs.finish(manifest)?;
    if stats {
        emit_stats(
            json,
            pass_extras(mode, bytes.len(), compressed.len(), elapsed),
        );
    }
    if let Some(path) = trace {
        write_trace(&path)?;
    }
    Ok(())
}

/// Decompress without polluting the live registry — used for the quality
/// measurement a `--manifest` compress run performs on its own output.
fn decompress_quiet<F: szx_core::SzxFloat>(stream: &[u8]) -> Result<Vec<F>, String> {
    let was = szx_telemetry::enabled();
    szx_telemetry::set_enabled(false);
    let r = szx_core::decompress(stream).map_err(|e| e.to_string());
    szx_telemetry::set_enabled(was);
    r
}

/// `mode` label of a run in manifests and `--stats` reports.
fn mode_name(parallel: bool) -> &'static str {
    if parallel {
        "parallel"
    } else {
        "serial"
    }
}

/// Shared manifest skeleton: command, full config, parallelism, dataset
/// identity (path, bytes, FNV-1a digest of the raw input file).
fn run_manifest(
    command: &str,
    cfg: &SzxConfig,
    dtype: &str,
    input: &Path,
    input_bytes: &[u8],
) -> szx_telemetry::Manifest {
    use szx_telemetry::Value;
    let (bound_mode, bound) = match cfg.error_bound {
        ErrorBound::Absolute(e) => ("abs", e),
        ErrorBound::Relative(r) => ("rel", r),
    };
    // The worker count the codec actually splits over (RAYON_NUM_THREADS
    // wins over the core count).
    let threads = if cfg.parallel {
        szx_core::current_num_threads() as u64
    } else {
        1
    };
    let mut m = szx_telemetry::Manifest::new(command);
    m.set_config(&[
        ("bound_mode", Value::Str(bound_mode.into())),
        ("bound", Value::F64(bound)),
        ("block_size", Value::U64(cfg.block_size as u64)),
        ("strategy", Value::Str(format!("{:?}", cfg.strategy))),
        ("kernel", Value::Str(format!("{:?}", cfg.kernel))),
        ("mode", Value::Str(mode_name(cfg.parallel).into())),
        ("threads", Value::U64(threads)),
        ("dtype", Value::Str(dtype.into())),
    ]);
    m.set_dataset(
        &input.to_string_lossy(),
        input_bytes.len() as u64,
        szx_telemetry::fnv1a64(input_bytes),
    );
    m
}

fn cmd_decompress(args: &[String]) -> Result<(), String> {
    let (input, output) = io_pair(args)?;
    let bytes = std::fs::read(&input).map_err(|e| format!("{}: {e}", input.display()))?;
    let header = szx_core::inspect(&bytes).map_err(|e| e.to_string())?;
    let parallel = has_flag(args, "--parallel");
    let kernel = parse_kernel(args)?;
    let stats = stats_requested(args);
    let trace = trace_requested(args);
    let obs = obs_begin(args)?;
    let prof = profile_begin(args)?;
    let json = has_flag(args, "--json");
    let start = std::time::Instant::now();
    let mut decoder = szx_core::Decoder::new(kernel, parallel);
    let out: Vec<u8> = if header.dtype == 0 {
        let data: Vec<f32> = decoder.decode(&bytes).map_err(|e| e.to_string())?;
        data.iter().flat_map(|v| v.to_le_bytes()).collect()
    } else {
        let data: Vec<f64> = decoder.decode(&bytes).map_err(|e| e.to_string())?;
        data.iter().flat_map(|v| v.to_le_bytes()).collect()
    };
    let elapsed = start.elapsed();
    std::fs::write(&output, &out).map_err(|e| format!("{}: {e}", output.display()))?;
    let summary = format!(
        "{} -> {} ({} values)",
        input.display(),
        output.display(),
        header.n
    );
    if stats && json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    let mode = mode_name(parallel);
    // The kernel and simd decoders cover only the ByteAligned strategy;
    // report the path the blocks actually took (resolve() folds in runtime
    // ISA detection and the SZX_DISABLE_SIMD override).
    let decode_path = if header.strategy == CommitStrategy::ByteAligned {
        kernel.resolve().name()
    } else {
        "scalar"
    };
    let manifest = obs.manifest.is_some().then(|| {
        use szx_telemetry::Value;
        let cfg = SzxConfig {
            block_size: header.block_size,
            error_bound: ErrorBound::Absolute(header.eb),
            strategy: header.strategy,
            kernel,
            parallel,
        };
        let dtype = if header.dtype == 0 { "f32" } else { "f64" };
        let mut m = run_manifest("decompress", &cfg, dtype, &input, &bytes);
        m.set_quality(&[
            (
                "ratio",
                Value::F64(out.len() as f64 / bytes.len().max(1) as f64),
            ),
            (
                "decompress_gbps",
                Value::F64(out.len() as f64 / 1e9 / elapsed.as_secs_f64().max(1e-12)),
            ),
            ("decode_path", Value::Str(decode_path.into())),
        ]);
        m
    });
    profile_finish(prof)?;
    obs.finish(manifest)?;
    if stats {
        let mut extras = pass_extras(mode, out.len(), bytes.len(), elapsed);
        extras.push((
            "decode_path",
            szx_telemetry::Value::Str(decode_path.to_string()),
        ));
        emit_stats(json, extras);
    }
    if let Some(path) = trace {
        write_trace(&path)?;
    }
    Ok(())
}

/// A container written through a buffered file as frames complete.
type FileContainer = szx_core::ContainerWriter<std::io::BufWriter<std::fs::File>>;

fn create_container(path: &Path, cfg: &SzxConfig) -> Result<FileContainer, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    szx_core::ContainerWriter::new(std::io::BufWriter::new(file), *cfg).map_err(|e| e.to_string())
}

/// Finish a file container and return its size in bytes.
fn finish_container(w: FileContainer, path: &Path) -> Result<u64, String> {
    w.finish().map_err(|e| e.to_string())?;
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(meta.len())
}

/// How a `--manifest` run scores a reconstruction against its original.
type Distortion<F> = fn(&[F], &[F]) -> szx_metrics::DistortionStats;
/// Writer stats, container bytes, and the distortion when measured.
type Streamed = (
    szx_core::FrameStats,
    u64,
    Option<szx_metrics::DistortionStats>,
);

/// Chunk `data` into frames named "0", "1", … and write each to a container
/// at `output` as it completes, narrating a `\r`-refreshed progress line
/// when asked. Returns the writer's stats, the file size and, with
/// `quality`, the distortion of the finished file re-read and decoded
/// without touching the live registry or the event sink.
fn stream_compress<F: szx_core::SzxFloat>(
    data: &[F],
    output: &Path,
    cfg: &SzxConfig,
    frame_elems: usize,
    progress: bool,
    quality: Option<Distortion<F>>,
) -> Result<Streamed, String> {
    let mut w = create_container(output, cfg)?;
    let mut meter = szx_telemetry::ProgressMeter::new(Some((data.len() * F::BYTES) as u64));
    let mut prev_compressed = 0u64;
    for (k, chunk) in data.chunks(frame_elems).enumerate() {
        w.push(&k.to_string(), chunk).map_err(|e| e.to_string())?;
        let s = *w.stats();
        let snap = meter.on_frame(
            (chunk.len() * F::BYTES) as u64,
            s.compressed_bytes - prev_compressed,
        );
        prev_compressed = s.compressed_bytes;
        if progress {
            eprint!("\r{}", snap.render_line());
        }
    }
    if progress {
        eprintln!();
    }
    let stats = *w.stats();
    let len = finish_container(w, output)?;
    let Some(measure) = quality else {
        return Ok((stats, len, None));
    };
    // Frame events are all written; close the sink so the quality decode
    // doesn't append frame.decoded noise.
    drop(szx_telemetry::take_event_sink());
    let bytes = std::fs::read(output).map_err(|e| format!("{}: {e}", output.display()))?;
    let was = szx_telemetry::enabled();
    szx_telemetry::set_enabled(false);
    let frames = szx_core::ContainerReader::new(&bytes).and_then(|r| {
        (0..r.len())
            .map(|i| r.frame::<F>(i))
            .collect::<szx_core::Result<Vec<_>>>()
    });
    szx_telemetry::set_enabled(was);
    let decoded = frames.map_err(|e| e.to_string())?.concat();
    Ok((stats, len, Some(measure(data, &decoded))))
}

/// `szx stream <in> <out>` — compress a raw float file frame by frame into
/// a container written as each frame completes, the path an instrument
/// pipeline (LCLS-II in the paper's §1) would take. Each frame is an
/// independent SZx stream; `--progress` narrates EWMA throughput, running
/// ratio, and ETA as frames land.
fn cmd_stream(args: &[String]) -> Result<(), String> {
    let (input, output) = io_pair(args)?;
    let cfg = parse_config(args)?;
    let frame_elems: usize = flag_value(args, "--frame")
        .map(|v| v.parse().map_err(|_| "bad --frame value".to_string()))
        .transpose()?
        .unwrap_or(1 << 20);
    if frame_elems == 0 {
        return Err("--frame must be positive".into());
    }
    let progress = has_flag(args, "--progress");
    let stats_on = stats_requested(args);
    let trace = trace_requested(args);
    let obs = obs_begin(args)?;
    let prof = profile_begin(args)?;
    let json = has_flag(args, "--json");
    let want_quality = obs.manifest.is_some();

    let bytes = std::fs::read(&input).map_err(|e| format!("{}: {e}", input.display()))?;
    let start = std::time::Instant::now();
    let (fstats, container_len, quality) = if has_flag(args, "--f64") {
        if bytes.len() % 8 != 0 {
            return Err("input length is not a multiple of 8".into());
        }
        let data: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let quality = want_quality.then_some(szx_metrics::distortion_f64 as _);
        stream_compress(&data, &output, &cfg, frame_elems, progress, quality)?
    } else {
        if bytes.len() % 4 != 0 {
            return Err("input length is not a multiple of 4 (use --f64 for doubles?)".into());
        }
        let data: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let quality = want_quality.then_some(szx_metrics::distortion as _);
        stream_compress(&data, &output, &cfg, frame_elems, progress, quality)?
    };
    let elapsed = start.elapsed();
    let summary = format!(
        "{} -> {} ({} frames, {} -> {} bytes, CR {:.2})",
        input.display(),
        output.display(),
        fstats.frames,
        bytes.len(),
        container_len,
        fstats.ratio()
    );
    if stats_on && json {
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    let manifest = obs.manifest.is_some().then(|| {
        use szx_telemetry::json::Json;
        use szx_telemetry::Value;
        let dtype = if has_flag(args, "--f64") {
            "f64"
        } else {
            "f32"
        };
        let mut m = run_manifest("stream", &cfg, dtype, &input, &bytes);
        let mut q = quality_entries(
            quality.as_ref().expect("quality measured when --manifest"),
            bytes.len(),
            fstats.compressed_bytes as usize,
        );
        q.push((
            "compress_gbps",
            Value::F64(bytes.len() as f64 / 1e9 / elapsed.as_secs_f64().max(1e-12)),
        ));
        m.set_quality(&q);
        m.set(
            "stream",
            Json::Obj(vec![
                ("frames".to_string(), Json::Num(fstats.frames as f64)),
                ("frame_elems".to_string(), Json::Num(frame_elems as f64)),
                (
                    "mean_frame_ns".to_string(),
                    Json::Num(fstats.mean_frame_ns()),
                ),
            ]),
        );
        m
    });
    profile_finish(prof)?;
    obs.finish(manifest)?;
    if stats_on {
        use szx_telemetry::Value;
        let mut extras = pass_extras("stream", bytes.len(), container_len as usize, elapsed);
        extras.push(("frames", Value::U64(fstats.frames)));
        extras.push(("frame_elems", Value::U64(frame_elems as u64)));
        extras.push(("min_frame_ns", Value::U64(fstats.min_frame_ns)));
        extras.push(("max_frame_ns", Value::U64(fstats.max_frame_ns)));
        emit_stats(json, extras);
    }
    if let Some(path) = trace {
        write_trace(&path)?;
    }
    Ok(())
}

fn cmd_assess(args: &[String]) -> Result<(), String> {
    let (orig_path, comp_path) = io_pair(args)?;
    let bytes = std::fs::read(&comp_path).map_err(|e| format!("{}: {e}", comp_path.display()))?;
    let header = szx_core::inspect(&bytes).map_err(|e| e.to_string())?;
    let stats_on = stats_requested(args);
    let prof = profile_begin(args)?;
    // The stream header knows its element type; read the original in the
    // matching raw layout and share one metric path for both widths.
    let start = std::time::Instant::now();
    let (stats, raw_bytes) = if header.dtype == 0 {
        let orig = read_f32s(&orig_path)?;
        let recon: Vec<f32> = szx_core::decompress(&bytes).map_err(|e| e.to_string())?;
        if recon.len() != orig.len() {
            return Err(format!(
                "length mismatch: {} vs {}",
                orig.len(),
                recon.len()
            ));
        }
        let _z = szx_telemetry::span("assess.distortion");
        (szx_metrics::distortion(&orig, &recon), orig.len() * 4)
    } else {
        let orig = szx_data::io::read_f64_raw(&orig_path)
            .map_err(|e| format!("{}: {e}", orig_path.display()))?;
        let recon: Vec<f64> = szx_core::decompress(&bytes).map_err(|e| e.to_string())?;
        if recon.len() != orig.len() {
            return Err(format!(
                "length mismatch: {} vs {}",
                orig.len(),
                recon.len()
            ));
        }
        let _z = szx_telemetry::span("assess.distortion");
        (szx_metrics::distortion_f64(&orig, &recon), orig.len() * 8)
    };
    let elapsed = start.elapsed();
    profile_finish(prof)?;
    println!(
        "element type: {}",
        if header.dtype == 0 { "f32" } else { "f64" }
    );
    println!("elements:     {}", stats.n);
    println!("error bound:  {:.6e}", header.eb);
    println!("max |error|:  {:.6e}", stats.max_abs_error);
    println!("PSNR:         {:.2} dB", stats.psnr);
    println!("NRMSE:        {:.6e}", stats.nrmse);
    println!("CR:           {:.2}", raw_bytes as f64 / bytes.len() as f64);
    println!(
        "bound ok:     {}",
        if stats.max_abs_error <= header.eb {
            "yes"
        } else {
            "NO — BUG"
        }
    );
    if stats_on {
        emit_stats(
            has_flag(args, "--json"),
            pass_extras("serial", raw_bytes, bytes.len(), elapsed),
        );
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("need a file")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let h = szx_core::inspect(&bytes).map_err(|e| e.to_string())?;
    println!(
        "element type:     {}",
        if h.dtype == 0 { "f32" } else { "f64" }
    );
    println!("elements:         {}", h.n);
    println!("block size:       {}", h.block_size);
    println!("blocks:           {}", h.num_blocks());
    println!(
        "non-constant:     {} ({:.1}%)",
        h.n_nonconstant,
        100.0 * h.n_nonconstant as f64 / h.num_blocks() as f64
    );
    println!("abs error bound:  {:.6e}", h.eb);
    println!("strategy:         {:?}", h.strategy);
    println!("stream bytes:     {}", bytes.len());
    if has_flag(args, "--stats") {
        let mut zs: Vec<u16> = if h.dtype == 0 {
            szx_core::decode::ParsedStream::parse::<f32>(&bytes)
        } else {
            szx_core::decode::ParsedStream::parse::<f64>(&bytes)
        }
        .map_err(|e| e.to_string())?
        .zsizes()
        .to_vec();
        if zs.is_empty() {
            println!("block zsize:      n/a (all blocks constant)");
        } else {
            zs.sort_unstable();
            println!(
                "block zsize:      min {}  median {}  max {}  (over {} non-constant blocks)",
                zs[0],
                zs[zs.len() / 2],
                zs[zs.len() - 1],
                zs.len()
            );
        }
    }
    Ok(())
}

fn cmd_archive(args: &[String]) -> Result<(), String> {
    let cfg = SzxConfig {
        error_bound: parse_bound(args)?,
        ..SzxConfig::relative(1e-3)
    };
    let mut positional = positional(args);
    if positional.len() < 2 {
        return Err("need an output archive and at least one field file".into());
    }
    let out_path = positional.remove(0);
    // Build beside the output and rename on success, so a failed run
    // leaves no half-written file and keeps any earlier archive intact.
    let mut partial = out_path.clone().into_os_string();
    partial.push(".partial");
    let partial = PathBuf::from(partial);
    let len = match write_archive(&partial, &cfg, &positional) {
        Ok(len) => len,
        Err(e) => {
            std::fs::remove_file(&partial).ok();
            return Err(e);
        }
    };
    std::fs::rename(&partial, &out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!(
        "{} ({} fields, {len} bytes)",
        out_path.display(),
        positional.len()
    );
    Ok(())
}

/// Write each field file to a container at `path` under its file stem.
fn write_archive(path: &Path, cfg: &SzxConfig, fields: &[PathBuf]) -> Result<u64, String> {
    let mut w = create_container(path, cfg)?;
    for path in fields {
        let data = read_f32s(path)?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("bad field file name {}", path.display()))?;
        w.push(name, &data).map_err(|e| e.to_string())?;
        println!("added {name} ({} values)", data.len());
    }
    finish_container(w, path)
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("need a container file")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let r = szx_core::ContainerReader::new(&bytes).map_err(|e| e.to_string())?;
    println!(
        "{:<20} {:>10} {:>12} {:>12} {:>8}",
        "field", "elements", "compressed", "eb", "CR"
    );
    for (i, name) in r.names().enumerate() {
        let stream = r.frame_bytes(i).map_err(|e| e.to_string())?;
        let h = szx_core::inspect(stream).map_err(|e| e.to_string())?;
        let elem_bytes = if h.dtype == 0 { 4 } else { 8 };
        println!(
            "{:<20} {:>10} {:>12} {:>12.3e} {:>8.2}",
            name,
            h.n,
            stream.len(),
            h.eb,
            (h.n * elem_bytes) as f64 / stream.len() as f64
        );
    }
    Ok(())
}

/// `szx extract <container> <name> <out>` — decode one frame to a raw file
/// of the element type its stream header records.
fn cmd_extract(args: &[String]) -> Result<(), String> {
    let [file, name, out, ..] = args else {
        return Err("need <container> <field-name> <out.f32>".into());
    };
    let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
    let r = szx_core::ContainerReader::new(&bytes).map_err(|e| e.to_string())?;
    let i = r.position(name).map_err(|e| e.to_string())?;
    // Check the frame's CRC once, then decode those bytes as the element
    // type their header records.
    let stream = r.frame_bytes(i).map_err(|e| e.to_string())?;
    let n = if szx_core::inspect(stream).map_err(|e| e.to_string())?.dtype == 1 {
        let data: Vec<f64> = szx_core::decompress(stream).map_err(|e| e.to_string())?;
        szx_data::io::write_f64_raw(Path::new(out), &data).map(|()| data.len())
    } else {
        let data: Vec<f32> = szx_core::decompress(stream).map_err(|e| e.to_string())?;
        szx_data::io::write_f32_raw(Path::new(out), &data).map(|()| data.len())
    }
    .map_err(|e| format!("{out}: {e}"))?;
    println!("{name} -> {out} ({n} values)");
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    use szx_data::{Application, Scale};
    let app = match args.first().map(String::as_str) {
        Some("cesm") => Application::CesmAtm,
        Some("hurricane") => Application::Hurricane,
        Some("miranda") => Application::Miranda,
        Some("nyx") => Application::Nyx,
        Some("qmcpack") => Application::QmcPack,
        Some("scale") => Application::ScaleLetkf,
        other => return Err(format!("unknown application {other:?}")),
    };
    let dir = PathBuf::from(args.get(1).ok_or("need an output directory")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let scale = match flag_value(args, "--scale").as_deref() {
        Some("tiny") => Scale::Tiny,
        Some("medium") => Scale::Medium,
        Some("large") => Scale::Large,
        Some("full") => Scale::Full,
        _ => Scale::Small,
    };
    let ds = app.generate(scale, 42);
    for f in &ds.fields {
        let path = dir.join(format!("{}.f32", f.name.replace('/', "_")));
        szx_data::io::write_f32_raw(&path, &f.data).map_err(|e| e.to_string())?;
        println!(
            "{}  ({}x{}x{})",
            path.display(),
            f.dims[0],
            f.dims[1],
            f.dims[2]
        );
    }
    Ok(())
}
