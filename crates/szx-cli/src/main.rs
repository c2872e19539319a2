//! `szx` — command-line compressor/decompressor/assessor, mirroring the
//! upstream SZx executable's workflow on raw little-endian f32/f64 files.

#![forbid(unsafe_code)]

use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use szx_core::{CommitStrategy, ErrorBound, SzxConfig, SzxFloat};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compress") => by_dtype(&args[1..], compress_file::<f32>, compress_file::<f64>),
        Some("decompress") => cmd_decompress(&args[1..]),
        Some("stream") => by_dtype(&args[1..], stream_file::<f32>, stream_file::<f64>),
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

  compress, decompress, stream and assess read and write one 4 MiB window
  at a time, not the whole file (a relative bound reads the input twice:
  a range pass, then the encode pass). Outputs are written to
  <out>.partial and renamed over <out> only on success.

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

/// Run the `f32` command, or the `f64` one under `--f64`.
fn by_dtype(
    args: &[String],
    f32: fn(&[String]) -> Result<(), String>,
    f64: fn(&[String]) -> Result<(), String>,
) -> Result<(), String> {
    if has_flag(args, "--f64") {
        f64(args)
    } else {
        f32(args)
    }
}

/// Prefix an I/O error with the path it happened on.
fn at(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(at(path))
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
/// asked), and publish `profile.*` registry entries. Must run before the
/// exports and [`emit_stats`] so the metrics snapshot those take includes
/// the profile.
fn profile_finish(run: Option<ProfileRun>) -> Result<(), String> {
    let Some(run) = run else { return Ok(()) };
    let hz = run.profiler.hz();
    let profile = run.profiler.stop();
    profile.publish();
    std::fs::write(&run.folded, profile.folded()).map_err(at(&run.folded))?;
    eprintln!(
        "profile: {} samples over {} stacks at {} Hz -> {}",
        profile.samples,
        profile.stacks.len(),
        hz,
        run.folded.display()
    );
    if let Some(svg) = &run.svg {
        std::fs::write(svg, szx_profile::render_flamegraph_svg(&profile)).map_err(at(svg))?;
        eprintln!("flamegraph: {}", svg.display());
    }
    Ok(())
}

/// Quality section of a compress-style manifest, from measured distortion
/// and the timed pass. Measuring it costs one extra decompression and
/// read of the input — documented behavior of `--manifest` on the
/// compress/stream paths.
fn quality_entries(
    d: &szx_metrics::DistortionStats,
    raw_bytes: usize,
    stream_bytes: usize,
    elapsed: std::time::Duration,
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
        (
            "compress_gbps",
            Value::F64(raw_bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-12)),
        ),
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
    std::fs::write(path, json).map_err(at(path))?;
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

/// Raw bytes a `compress`, `decompress` or `stream` pass holds at a time.
const WINDOW_BYTES: usize = 4 << 20;
/// Raw bytes a window passes through at once, on its way between the file
/// and its values.
const STAGING_BYTES: usize = 1 << 20;
/// Raw bytes per window of the `--manifest` measurement pass, which holds
/// a decoded window beside each original one.
const MEASURE_BYTES: usize = 256 << 10;

/// Elements per window of `F` at `block_size`: `bytes` rounded down to
/// whole groups of `DECODE_GROUP` blocks, at least one group. A group is a
/// multiple of the 8 blocks an `Encoder` window needs, so compress and
/// decompress share one window.
fn window_elems<F: SzxFloat>(bytes: usize, block_size: usize) -> usize {
    let group = block_size * szx_core::decode::DECODE_GROUP;
    (bytes / F::BYTES / group).max(1) * group
}

/// Reads a raw little-endian float file window by window into one reused
/// value buffer, through one reused staging buffer. Each pass reads
/// exactly the length the file had when it was opened.
struct WindowReader<F> {
    path: PathBuf,
    file: std::fs::File,
    len: u64,
    /// Bytes read in this pass.
    pos: u64,
    window: usize,
    staging: Vec<u8>,
    values: Vec<F>,
    /// FNV-1a of the bytes read, when asked for.
    digest: Option<szx_telemetry::Fnv1a64>,
}

impl<F: SzxFloat> WindowReader<F> {
    fn open(path: &Path, window: usize) -> Result<Self, String> {
        let file = std::fs::File::open(path).map_err(at(path))?;
        let len = file.metadata().map_err(at(path))?.len();
        if len % F::BYTES as u64 != 0 {
            let hint = if F::BYTES == 4 {
                " (use --f64 for doubles?)"
            } else {
                ""
            };
            return Err(format!(
                "input length is not a multiple of {}{hint}",
                F::BYTES
            ));
        }
        let window = (len / F::BYTES as u64).min(window as u64) as usize;
        Ok(WindowReader {
            path: path.to_path_buf(),
            file,
            len,
            pos: 0,
            window,
            staging: vec![0; (window * F::BYTES).min(STAGING_BYTES)],
            values: Vec::with_capacity(window),
            digest: None,
        })
    }

    /// The next window, or `None` at the end of the pass. A file that
    /// shrank under the reader is an error.
    fn next(&mut self) -> Result<Option<&[F]>, String> {
        let mut left =
            ((self.len - self.pos) / F::BYTES as u64).min(self.window as u64) as usize * F::BYTES;
        if left == 0 {
            return Ok(None);
        }
        self.values.clear();
        while left > 0 {
            let piece = &mut self.staging[..left.min(STAGING_BYTES)];
            {
                let _s = szx_telemetry::span("io.read");
                self.file.read_exact(piece).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        format!("{}: input shrank while being read", self.path.display())
                    } else {
                        at(&self.path)(e)
                    }
                })?;
            }
            if let Some(digest) = &mut self.digest {
                digest.update(piece);
            }
            self.values
                .extend(piece.chunks_exact(F::BYTES).map(F::read_le));
            self.pos += piece.len() as u64;
            left -= piece.len();
        }
        Ok(Some(&self.values))
    }

    /// Start another pass from the top. The file must still have the
    /// length it was opened with.
    fn rewind(&mut self) -> Result<(), String> {
        let len = self.file.metadata().map_err(at(&self.path))?.len();
        if len != self.len {
            return Err(format!(
                "{}: input changed from {} to {len} bytes between passes",
                self.path.display(),
                self.len
            ));
        }
        self.file
            .seek(std::io::SeekFrom::Start(0))
            .map_err(at(&self.path))?;
        self.pos = 0;
        Ok(())
    }
}

/// A writer that books the time of every write under the `io.write` span.
struct IoSpan<W>(W);

impl<W: Write> Write for IoSpan<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let _s = szx_telemetry::span("io.write");
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let _s = szx_telemetry::span("io.write");
        self.0.flush()
    }
}

/// The output file as the commands write it.
type OutFile = std::io::BufWriter<IoSpan<std::fs::File>>;

/// Write `out` through `<out>.partial`, renamed over `out` once `write`
/// and the final flush succeed and removed otherwise: a failed run leaves
/// no plausible output behind and keeps any earlier file at `out`.
fn write_through<T>(
    out: &Path,
    write: impl FnOnce(&mut OutFile) -> Result<T, String>,
) -> Result<T, String> {
    let mut partial = out.as_os_str().to_owned();
    partial.push(".partial");
    let partial = PathBuf::from(partial);
    let result = std::fs::File::create(&partial)
        .map_err(at(&partial))
        .and_then(|file| {
            let mut sink = std::io::BufWriter::new(IoSpan(file));
            let value = write(&mut sink)?;
            sink.flush().map_err(at(&partial))?;
            Ok(value)
        })
        .and_then(|value| {
            std::fs::rename(&partial, out)
                .map(|()| value)
                .map_err(at(out))
        });
    if result.is_err() {
        std::fs::remove_file(&partial).ok();
    }
    result
}

/// `values` as raw little-endian bytes in `out`, which is reused.
fn to_le<F: SzxFloat>(values: &[F], out: &mut Vec<u8>) {
    out.resize(values.len() * F::BYTES, 0);
    for (dst, &v) in out.chunks_exact_mut(F::BYTES).zip(values) {
        // A word holds the value's bits high-aligned.
        dst.copy_from_slice(&(v.to_word() >> (64 - 8 * F::BYTES)).to_le_bytes()[..F::BYTES]);
    }
}

/// Run `f` with telemetry collection off, so the live registry holds only
/// the timed work — used for the measurement pass of `--manifest`.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let was = szx_telemetry::enabled();
    szx_telemetry::set_enabled(false);
    let value = f();
    szx_telemetry::set_enabled(was);
    value
}

/// The `--manifest` measurement of a compress-style run: the input read
/// once more, window by window, hashed for the dataset digest and scored
/// against the reconstruction windows pushed alongside it.
struct Measure<F> {
    input: WindowReader<F>,
    distortion: szx_metrics::Distortion,
}

impl<F: SzxFloat + Into<f64>> Measure<F> {
    /// Measure the raw file at `input` against a reconstruction of `n`
    /// values pushed in windows of `window` values (the last may be short).
    fn start(input: &Path, n: usize, window: usize) -> Result<Self, String> {
        let mut input = WindowReader::open(input, window)?;
        let len = input.len / F::BYTES as u64;
        if len != n as u64 {
            return Err(format!("length mismatch: {len} vs {n}"));
        }
        input.digest = Some(szx_telemetry::Fnv1a64::new());
        Ok(Measure {
            input,
            distortion: szx_metrics::Distortion::default(),
        })
    }

    /// Score the reconstruction of the input's next window.
    fn push(&mut self, decoded: &[F]) -> Result<(), String> {
        let original = self
            .input
            .next()?
            .ok_or("reconstruction is longer than the input")?;
        if original.len() != decoded.len() {
            return Err("reconstruction windows do not match the input's".into());
        }
        self.distortion.push(original, decoded);
        Ok(())
    }

    /// Distortion and dataset digest, once the whole input is scored.
    fn finish(mut self) -> Result<(szx_metrics::DistortionStats, u64), String> {
        if self.input.next()?.is_some() {
            return Err("reconstruction is shorter than the input".into());
        }
        let digest = self.input.digest.map_or(0, |d| d.finish());
        Ok((self.distortion.finish(), digest))
    }
}

/// The observability a command was asked for, started before its timed
/// work: `--stats [--json]`, `--trace`, `--profile`, and the
/// `--metrics`/`--events`/`--manifest` exports. Any export turns collection
/// on and starts the resource accountant (peak RSS, CPU time, per-phase
/// attribution).
struct Run {
    stats: bool,
    json: bool,
    trace: Option<PathBuf>,
    prof: Option<ProfileRun>,
    metrics: Option<PathBuf>,
    events: Option<PathBuf>,
    manifest: Option<PathBuf>,
    accountant: Option<szx_telemetry::ResourceAccountant>,
}

fn run_begin(args: &[String]) -> Result<Run, String> {
    let stats = stats_requested(args);
    let trace = trace_requested(args);
    let [metrics, events, manifest] =
        ["--metrics", "--events", "--manifest"].map(|f| flag_value(args, f).map(PathBuf::from));
    let exports = metrics.is_some() || events.is_some() || manifest.is_some();
    if exports {
        szx_telemetry::set_enabled(true);
    }
    if let Some(path) = &events {
        let f = std::fs::File::create(path).map_err(at(path))?;
        szx_telemetry::install_event_sink(Box::new(std::io::BufWriter::new(f)));
        szx_telemetry::emit_event(
            "run.start",
            &[("argv", szx_telemetry::Value::Str(args.join(" ")))],
        );
    }
    Ok(Run {
        stats,
        json: has_flag(args, "--json"),
        trace,
        prof: profile_begin(args)?,
        metrics,
        events,
        manifest,
        accountant: exports.then(|| {
            szx_telemetry::ResourceAccountant::start(std::time::Duration::from_millis(50))
        }),
    })
}

impl Run {
    /// Print the command's summary line: on stdout, unless stdout carries
    /// exactly the `--stats --json` line.
    fn summary(&self, line: String) {
        if self.stats && self.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }

    /// Stop the profiler and the accountant, close the event sink, write
    /// the Prometheus exposition and `manifest` (the command's sections;
    /// the final metrics snapshot, with the accountant's exact peak, is
    /// attached here), then the `--stats` report with `extras` and the
    /// trace.
    fn finish(
        self,
        manifest: Option<szx_telemetry::Manifest>,
        extras: Vec<(&str, szx_telemetry::Value)>,
    ) -> Result<(), String> {
        profile_finish(self.prof)?;
        if let Some(acc) = self.accountant {
            acc.stop();
        }
        if self.events.is_some() {
            if szx_telemetry::event_sink_installed() {
                szx_telemetry::emit_event("run.complete", &[]);
            }
            drop(szx_telemetry::take_event_sink()); // flush + close
        }
        let snapshot = szx_telemetry::global().snapshot();
        if let Some(path) = &self.metrics {
            std::fs::write(path, szx_telemetry::render_prometheus(&snapshot)).map_err(at(path))?;
            eprintln!("metrics: {}", path.display());
        }
        if let (Some(path), Some(mut m)) = (&self.manifest, manifest) {
            m.set_metrics(&snapshot);
            std::fs::write(path, m.render() + "\n").map_err(at(path))?;
            eprintln!("manifest: {}", path.display());
        }
        if self.stats {
            emit_stats(self.json, extras);
        }
        match self.trace {
            Some(path) => write_trace(&path),
            None => Ok(()),
        }
    }
}

/// `szx compress` for element type `F`: a relative bound's range pass,
/// then the encode pass, each reading the input one window at a time; the
/// stream is written once all windows are encoded.
fn compress_file<F: SzxFloat + Into<f64>>(args: &[String]) -> Result<(), String> {
    let (input, output) = io_pair(args)?;
    let cfg = parse_config(args)?.with_parallel(has_flag(args, "--parallel"));
    cfg.validate().map_err(|e| e.to_string())?;
    let run = run_begin(args)?;
    let mut reader =
        WindowReader::<F>::open(&input, window_elems::<F>(WINDOW_BYTES, cfg.block_size))?;
    let raw_bytes = reader.len as usize;
    let start = std::time::Instant::now();
    let stream_bytes = {
        let _total = szx_telemetry::span("compress.total");
        let mut scan = szx_core::RangeScan::new(&cfg);
        if let ErrorBound::Relative(_) = cfg.error_bound {
            while let Some(window) = reader.next()? {
                let _s = szx_telemetry::span("compress.range_scan");
                scan.push(window);
            }
            reader.rewind()?;
        }
        let mut encoder =
            szx_core::Encoder::<F>::new(&cfg, scan.bound()).map_err(|e| e.to_string())?;
        while let Some(window) = reader.next()? {
            encoder.push(window).map_err(|e| e.to_string())?;
        }
        drop(reader);
        let len = encoder.stream_len();
        write_through(&output, |out| {
            encoder.finish(out).map(drop).map_err(|e| e.to_string())
        })?;
        len
    };
    let elapsed = start.elapsed();
    run.summary(format!(
        "{} -> {} ({raw_bytes} -> {stream_bytes} bytes, CR {:.2})",
        input.display(),
        output.display(),
        raw_bytes as f64 / stream_bytes as f64
    ));
    let manifest = match run.manifest {
        None => None,
        Some(_) => {
            let stream = read_file(&output)?;
            let (quality, digest) = quietly(|| measure_stream::<F>(&input, &stream))?;
            let mut m = run_manifest("compress", &cfg, F::NAME, &input, raw_bytes, digest);
            m.set_quality(&quality_entries(&quality, raw_bytes, stream_bytes, elapsed));
            Some(m)
        }
    };
    let extras = pass_extras(mode_name(cfg.parallel), raw_bytes, stream_bytes, elapsed);
    run.finish(manifest, extras)
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
    input_bytes: usize,
    digest: u64,
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
    m.set_dataset(&input.to_string_lossy(), input_bytes as u64, digest);
    m
}

fn cmd_decompress(args: &[String]) -> Result<(), String> {
    use szx_telemetry::Value;
    let (input, output) = io_pair(args)?;
    let parallel = has_flag(args, "--parallel");
    let kernel = parse_kernel(args)?;
    let run = run_begin(args)?;
    let start = std::time::Instant::now();
    let bytes = {
        let _s = szx_telemetry::span("io.read");
        read_file(&input)?
    };
    let header = szx_core::inspect(&bytes).map_err(|e| e.to_string())?;
    let mut decoder = szx_core::Decoder::new(kernel, parallel);
    let raw_bytes = if header.dtype == 0 {
        decode_file::<f32>(&mut decoder, &bytes, &header, &output)?
    } else {
        decode_file::<f64>(&mut decoder, &bytes, &header, &output)?
    };
    let elapsed = start.elapsed();
    run.summary(format!(
        "{} -> {} ({} values)",
        input.display(),
        output.display(),
        header.n
    ));
    // The kernel and simd decoders cover only the ByteAligned strategy;
    // report the path the blocks actually took (resolve() folds in runtime
    // ISA detection and the SZX_DISABLE_SIMD override).
    let decode_path = if header.strategy == CommitStrategy::ByteAligned {
        kernel.resolve().name()
    } else {
        "scalar"
    };
    let manifest = run.manifest.is_some().then(|| {
        let cfg = SzxConfig {
            block_size: header.block_size,
            error_bound: ErrorBound::Absolute(header.eb),
            strategy: header.strategy,
            kernel,
            parallel,
        };
        let dtype = if header.dtype == 0 { "f32" } else { "f64" };
        let digest = szx_telemetry::fnv1a64(&bytes);
        let mut m = run_manifest("decompress", &cfg, dtype, &input, bytes.len(), digest);
        m.set_quality(&[
            (
                "ratio",
                Value::F64(raw_bytes as f64 / bytes.len().max(1) as f64),
            ),
            (
                "decompress_gbps",
                Value::F64(raw_bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-12)),
            ),
            ("decode_path", Value::Str(decode_path.into())),
        ]);
        m
    });
    let mut extras = pass_extras(mode_name(parallel), raw_bytes, bytes.len(), elapsed);
    extras.push(("decode_path", Value::Str(decode_path.to_string())));
    run.finish(manifest, extras)
}

/// Decode `stream` to a raw little-endian file at `output` one window at a
/// time, each written through one reused staging buffer. Returns the bytes
/// written.
fn decode_file<F: SzxFloat>(
    decoder: &mut szx_core::Decoder,
    stream: &[u8],
    header: &szx_core::Header,
    output: &Path,
) -> Result<usize, String> {
    let window = window_elems::<F>(WINDOW_BYTES, header.block_size).min(header.n);
    let mut window = vec![F::ZERO; window];
    let mut le = Vec::new();
    write_through(output, |out| {
        decoder
            .decode_windows(stream, &mut window, |w| {
                for piece in w.chunks(STAGING_BYTES / F::BYTES) {
                    to_le(piece, &mut le);
                    out.write_all(&le)?;
                }
                Ok(())
            })
            .map_err(|e| e.to_string())
    })?;
    Ok(header.n * F::BYTES)
}

/// `szx stream <in> <out>` for element type `F` — compress a raw float
/// file into a container one frame at a time, each frame read and its
/// stream written as it completes: the path an instrument pipeline
/// (LCLS-II in the paper's §1) would take. Each frame is an independent SZx
/// stream; `--progress` narrates EWMA throughput, running ratio, and ETA
/// as frames land.
fn stream_file<F: SzxFloat + Into<f64>>(args: &[String]) -> Result<(), String> {
    use szx_telemetry::Value;
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
    let run = run_begin(args)?;
    let mut reader = WindowReader::<F>::open(&input, frame_elems)?;
    let raw_bytes = reader.len as usize;
    let start = std::time::Instant::now();
    let fstats = write_through(&output, move |out| {
        let mut w = szx_core::ContainerWriter::new(out, cfg).map_err(|e| e.to_string())?;
        let mut meter = szx_telemetry::ProgressMeter::new(Some(raw_bytes as u64));
        let mut prev_compressed = 0u64;
        while let Some(frame) = reader.next()? {
            w.push(&w.stats().frames.to_string(), frame)
                .map_err(|e| e.to_string())?;
            let s = *w.stats();
            let snap = meter.on_frame(
                (frame.len() * F::BYTES) as u64,
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
        w.finish().map_err(|e| e.to_string())?;
        Ok(stats)
    })?;
    let elapsed = start.elapsed();
    let container_len = std::fs::metadata(&output).map_err(at(&output))?.len() as usize;
    run.summary(format!(
        "{} -> {} ({} frames, {raw_bytes} -> {container_len} bytes, CR {:.2})",
        input.display(),
        output.display(),
        fstats.frames,
        fstats.ratio()
    ));
    let manifest = match run.manifest {
        None => None,
        Some(_) => {
            use szx_telemetry::json::Json;
            // Frame events are all written; close the sink so the quality
            // decode doesn't append frame.decoded noise.
            drop(szx_telemetry::take_event_sink());
            let bytes = read_file(&output)?;
            let (quality, digest) = quietly(|| {
                let r = szx_core::ContainerReader::new(&bytes).map_err(|e| e.to_string())?;
                let mut m = Measure::start(&input, raw_bytes / F::BYTES, frame_elems)?;
                for i in 0..r.len() {
                    m.push(&r.frame::<F>(i).map_err(|e| e.to_string())?)?;
                }
                m.finish()
            })?;
            let mut m = run_manifest("stream", &cfg, F::NAME, &input, raw_bytes, digest);
            let compressed = fstats.compressed_bytes as usize;
            m.set_quality(&quality_entries(&quality, raw_bytes, compressed, elapsed));
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
            Some(m)
        }
    };
    let mut extras = pass_extras("stream", raw_bytes, container_len, elapsed);
    extras.push(("frames", Value::U64(fstats.frames)));
    extras.push(("frame_elems", Value::U64(frame_elems as u64)));
    extras.push(("min_frame_ns", Value::U64(fstats.min_frame_ns)));
    extras.push(("max_frame_ns", Value::U64(fstats.max_frame_ns)));
    run.finish(manifest, extras)
}

fn cmd_assess(args: &[String]) -> Result<(), String> {
    let (orig_path, comp_path) = io_pair(args)?;
    let bytes = read_file(&comp_path)?;
    let header = szx_core::inspect(&bytes).map_err(|e| e.to_string())?;
    let run = run_begin(args)?;
    // The stream header knows its element type; read the original in the
    // matching raw layout and share one metric path for both widths.
    let start = std::time::Instant::now();
    let (stats, raw_bytes) = if header.dtype == 0 {
        (measure_stream::<f32>(&orig_path, &bytes)?.0, header.n * 4)
    } else {
        (measure_stream::<f64>(&orig_path, &bytes)?.0, header.n * 8)
    };
    let elapsed = start.elapsed();
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
    run.finish(None, pass_extras("serial", raw_bytes, bytes.len(), elapsed))
}

/// [`Measure`] the raw file at `orig` against `stream`, decoded window by
/// window: the distortion and the file's digest.
fn measure_stream<F: SzxFloat + Into<f64>>(
    orig: &Path,
    stream: &[u8],
) -> Result<(szx_metrics::DistortionStats, u64), String> {
    let header = szx_core::inspect(stream).map_err(|e| e.to_string())?;
    let window = window_elems::<F>(MEASURE_BYTES, header.block_size).min(header.n);
    let mut m = Measure::start(orig, header.n, window)?;
    szx_core::Decoder::default()
        .decode_windows(stream, &mut vec![F::ZERO; window], |w| {
            let _z = szx_telemetry::span("assess.distortion");
            m.push(w).map_err(szx_core::SzxError::Io)
        })
        .map_err(|e| e.to_string())?;
    m.finish()
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("need a file")?;
    let bytes = read_file(Path::new(path))?;
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
    // Each field file goes to the container under its file stem.
    write_through(&out_path, |out| {
        let mut w = szx_core::ContainerWriter::new(out, cfg).map_err(|e| e.to_string())?;
        for path in &positional {
            let data = szx_data::io::read_f32_raw(path).map_err(at(path))?;
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("bad field file name {}", path.display()))?;
            w.push(name, &data).map_err(|e| e.to_string())?;
            println!("added {name} ({} values)", data.len());
        }
        w.finish().map(drop).map_err(|e| e.to_string())
    })?;
    let len = std::fs::metadata(&out_path).map_err(at(&out_path))?.len();
    println!(
        "{} ({} fields, {len} bytes)",
        out_path.display(),
        positional.len()
    );
    Ok(())
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("need a container file")?;
    let bytes = read_file(Path::new(path))?;
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
    let bytes = read_file(Path::new(file))?;
    let r = szx_core::ContainerReader::new(&bytes).map_err(|e| e.to_string())?;
    let i = r.position(name).map_err(|e| e.to_string())?;
    // Check the frame's CRC once, then decode those bytes as the element
    // type their header records.
    let stream = r.frame_bytes(i).map_err(|e| e.to_string())?;
    let header = szx_core::inspect(stream).map_err(|e| e.to_string())?;
    let mut decoder = szx_core::Decoder::default();
    if header.dtype == 1 {
        decode_file::<f64>(&mut decoder, stream, &header, Path::new(out))?;
    } else {
        decode_file::<f32>(&mut decoder, stream, &header, Path::new(out))?;
    }
    println!("{name} -> {out} ({} values)", header.n);
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
    std::fs::create_dir_all(&dir).map_err(at(&dir))?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("szx-cli-unit-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// 3.5 windows of 1024 values.
    fn write_input(path: &Path) -> Vec<f32> {
        let data: Vec<f32> = (0..3584).map(|i| (i as f32 * 0.01).sin()).collect();
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(path, bytes).unwrap();
        data
    }

    #[test]
    fn reader_passes_read_the_whole_file_in_windows() {
        let dir = scratch("passes");
        let path = dir.join("in.f32");
        let data = write_input(&path);
        let mut r = WindowReader::<f32>::open(&path, 1024).unwrap();
        for _ in 0..2 {
            let mut got = Vec::new();
            while let Some(w) = r.next().unwrap() {
                assert!(w.len() == 1024 || got.len() == 3072);
                got.extend_from_slice(w);
            }
            assert_eq!(got, data);
            r.rewind().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn input_truncated_between_passes_is_an_error() {
        let dir = scratch("between");
        let path = dir.join("in.f32");
        write_input(&path);
        let mut r = WindowReader::<f32>::open(&path, 1024).unwrap();
        while r.next().unwrap().is_some() {}
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(2048 * 4).unwrap();
        let err = r.rewind().unwrap_err();
        assert!(err.contains("changed from 14336 to 8192 bytes"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn input_truncated_during_a_pass_is_an_error() {
        let dir = scratch("during");
        let path = dir.join("in.f32");
        write_input(&path);
        let mut r = WindowReader::<f32>::open(&path, 1024).unwrap();
        r.next().unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(1500 * 4).unwrap();
        let err = r.next().unwrap_err();
        assert!(err.contains("input shrank"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_the_earlier_output_and_no_partial() {
        let dir = scratch("partial");
        let out = dir.join("out.f32");
        std::fs::write(&out, b"earlier").unwrap();
        let r: Result<(), String> = write_through(&out, |w| {
            w.write_all(b"half a file").map_err(|e| e.to_string())?;
            Err("corrupt window".into())
        });
        assert_eq!(r.unwrap_err(), "corrupt window");
        assert_eq!(std::fs::read(&out).unwrap(), b"earlier");
        assert!(!dir.join("out.f32.partial").exists());
        write_through(&out, |w| w.write_all(b"new").map_err(|e| e.to_string())).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), b"new");
        assert!(!dir.join("out.f32.partial").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn little_endian_staging_matches_to_le_bytes() {
        let v32 = [1.5f32, -0.0, f32::NAN, f32::MIN_POSITIVE];
        let v64 = [1.5f64, -0.0, f64::INFINITY, 1e-300];
        let mut out = Vec::new();
        to_le(&v32, &mut out);
        assert_eq!(
            out,
            v32.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<_>>()
        );
        to_le(&v64, &mut out);
        assert_eq!(
            out,
            v64.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<_>>()
        );
    }
}
