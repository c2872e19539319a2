//! `szx` — command-line compressor/decompressor/assessor, mirroring the
//! upstream SZx executable's workflow on raw little-endian f32/f64 files.

use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Mutex, MutexGuard, PoisonError};

use szx_core::{
    CommitStrategy, ContainerReader, ErrorBound, ReadAt, StreamHead, SzxConfig, SzxError, SzxFloat,
    WindowSource,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let f64 = has_flag(&args, "--f64");
    let result = match args.first().map(String::as_str) {
        Some("compress") if f64 => encode_file::<f64>(&args[1..], false),
        Some("compress") => encode_file::<f32>(&args[1..], false),
        Some("stream") if f64 => encode_file::<f64>(&args[1..], true),
        Some("stream") => encode_file::<f32>(&args[1..], true),
        Some("decompress") => decode_file(&args[1..], false),
        Some("assess") => cmd_assess(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("archive") if f64 => cmd_archive::<f64>(&args[1..]),
        Some("archive") => cmd_archive::<f32>(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("extract") => decode_file(&args[1..], true),
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
  szx compress   <in.f32> <out.szx> --abs <e> | --rel <r> [--f64] [--block <n>]
                 [--parallel] [--strategy a|b|c] [--progress] [OBSERVE]
  szx stream     <in.f32> <out.szx> [--frame <elems>] and the compress flags
  szx decompress <in.szx> <out.f32> [--parallel] [OBSERVE]
  szx extract    <in.szx> <frame-name> <out.f32> and the decompress flags
  szx assess     <orig.f32|orig.f64> <in.szx> [OBSERVE]
  szx info       <in.szx> [--stats]
  szx list       <in.szx>
  szx archive    <out.szx> <field1.f32> [field2.f32 ...] and the compress flags
  szx gen        <cesm|hurricane|miranda|nyx|qmcpack|scale> <out-dir>
                 [--scale tiny|small|medium|large|full]

  OBSERVE: [--stats [--json]] [--trace <out.trace.json>] [--metrics <out.prom>]
           [--events <out.jsonl>] [--manifest <run.json>]
           [--profile <out.folded> [--profile-svg <out.svg>]]

  Every file szx writes is one container (SZXC): SZx streams written as
  each completes, each with a CRC32C, and a checksummed index. compress
  writes the whole input as frame 0; stream writes frames of --frame
  values (default 1048576) named 0, 1, 2, ...; archive names each field
  after its file stem. decompress writes all frames in order, extract
  writes one; both write f32 or f64 as the frames record, and assess reads
  the original that way. Each frame's CRC is folded in as its windows are
  read, and a frame that fails it reports the checksum mismatch, whatever
  else failed; a run that fails leaves no output. list prints each frame's
  name, stream bytes and CRC32C from the index alone; info reads the frame
  headers and sections, no payload. --progress
  renders a live line with EWMA GB/s, the running ratio and an ETA on
  stderr.

  The hot loops run on SIMD kernels where the CPU has them (AVX-512,
  AVX2, NEON); SZX_DISABLE_SIMD=1 forces the portable ones, with the same
  bytes. --stats --json and --manifest name the instruction set (isa).

  --stats collects per-stage wall times, block classification counters, and
  the required-length histogram (szx-telemetry); the report goes to stderr
  as a table, or to stdout as one JSON line with --json. Setting
  SZX_TELEMETRY=1 enables collection without the flag.

  --trace records a per-thread event timeline (stage zones, one lane per
  rayon worker) and writes Chrome trace_event JSON loadable in
  about:tracing or https://ui.perfetto.dev. SZX_TRACE=1 enables recording
  without the flag (the CLI still needs --trace to know where to write).

  --metrics writes the final registry snapshot as a Prometheus text
  exposition (format 0.0.4); --events streams per-frame JSON-lines events;
  --manifest writes a versioned run manifest (config, dataset digest,
  metrics, quality) the bench observatory can ingest. Any of the three
  implies telemetry collection and starts the resource accountant (peak
  RSS, CPU time, per-phase attribution via /proc/self).

  compress, stream, archive, decompress, extract and assess read and write
  one 512 KiB window at a time, not the whole file (a relative bound reads
  each frame twice: a range pass, then the encode pass). A container is
  read by position: its footer and index, each frame's header and
  sections, then each window's payload. With --parallel each thread reads,
  codes and writes whole windows at their own file offsets. Outputs are
  written to <out>.partial and renamed over <out> only on success.

  --profile turns collection on and writes the spans' exact self time per
  stack path, in nanoseconds, as collapsed stacks (inferno/speedscope
  format); --profile-svg also renders an in-tree SVG flamegraph. Self and
  total seconds per zone also land in the registry as profile.* gauges,
  riding --stats/--metrics/--manifest.
";

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Prefix an I/O error with the path it happened on.
fn at(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// The error of a positional read of `path`: a file that ended early
/// shrank after it was opened.
fn read_error(path: &Path, e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        format!("{}: input shrank while being read", path.display())
    } else {
        at(path)(e)
    }
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
fn emit_stats(json: bool, extra: Vec<(&str, szx_telemetry::Value)>) -> Result<(), String> {
    let mut report = szx_telemetry::global().snapshot();
    for (k, v) in extra {
        report.push_extra(k, v);
    }
    if json {
        print_out(|out| writeln!(out, "{}", szx_telemetry::render_jsonl(&report)))?;
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
    Ok(())
}

/// Where `--profile` writes: the folded stacks and, with `--profile-svg`,
/// the flamegraph.
struct ProfileRun {
    folded: PathBuf,
    svg: Option<PathBuf>,
}

/// Honor `--profile <out.folded>` (and `--profile-svg <out.svg>`): turns
/// collection on, so every span of the command lands in the folded map.
fn profile_begin(args: &[String]) -> Result<Option<ProfileRun>, String> {
    let Some(folded) = flag_value(args, "--profile").map(PathBuf::from) else {
        if has_flag(args, "--profile-svg") {
            return Err("--profile-svg requires --profile <out.folded>".into());
        }
        return Ok(None);
    };
    szx_telemetry::set_enabled(true);
    let svg = flag_value(args, "--profile-svg").map(PathBuf::from);
    Ok(Some(ProfileRun { folded, svg }))
}

/// Write the folded stacks (and the SVG flamegraph when asked).
fn profile_finish(run: Option<ProfileRun>) -> Result<(), String> {
    let Some(run) = run else { return Ok(()) };
    let profile = szx_telemetry::global().profile();
    std::fs::write(&run.folded, profile.folded()).map_err(at(&run.folded))?;
    eprintln!(
        "profile: {:.3} ms of self time over {} stacks -> {}",
        profile.total() as f64 * 1e-6,
        profile.stacks.len(),
        run.folded.display()
    );
    if let Some(svg) = &run.svg {
        std::fs::write(svg, szx_telemetry::render_flamegraph_svg(&profile)).map_err(at(svg))?;
        eprintln!("flamegraph: {}", svg.display());
    }
    Ok(())
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

/// Every flag `szx` takes, and whether a value follows it.
const FLAGS: [(&str, bool); 17] = [
    ("--abs", true),
    ("--rel", true),
    ("--block", true),
    ("--strategy", true),
    ("--frame", true),
    ("--scale", true),
    ("--trace", true),
    ("--metrics", true),
    ("--events", true),
    ("--manifest", true),
    ("--profile", true),
    ("--profile-svg", true),
    ("--f64", false),
    ("--parallel", false),
    ("--progress", false),
    ("--stats", false),
    ("--json", false),
];

/// The arguments that are neither flags nor flag values. An unknown flag
/// is an error that names it.
fn positional(args: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut cleaned = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if !a.starts_with("--") {
            cleaned.push(PathBuf::from(a));
            continue;
        }
        match FLAGS.iter().find(|(flag, _)| flag == a) {
            Some((_, true)) => {
                args.next();
            }
            Some((_, false)) => {}
            None => return Err(format!("unknown flag {a}")),
        }
    }
    Ok(cleaned)
}

/// Exactly `N` positional arguments (`what` names them); a missing one or
/// a surplus one is an error, the surplus one named.
fn paths<const N: usize>(args: &[String], what: &str) -> Result<[PathBuf; N], String> {
    <[PathBuf; N]>::try_from(positional(args)?).map_err(|extra| match extra.get(N) {
        Some(token) => format!("unexpected argument {}", token.display()),
        None => format!("need {what}"),
    })
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

/// Full `SzxConfig` from the compression flags shared by `compress`,
/// `stream` and `archive` (`--abs`/`--rel`, `--block`, `--strategy`), on
/// the detected hot-loop path (`SzxConfig::default`'s).
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
        ..SzxConfig::default()
    })
}

/// A raw little-endian float file, read by position: any thread reads any
/// window straight into its own value buffer. Reads stay inside the length
/// the file had when it was opened.
struct RawFile<F> {
    path: PathBuf,
    file: std::fs::File,
    /// Values in the file when it was opened.
    n: usize,
    /// One window buffer per thread that can read at once, kept across
    /// passes and frames so a pass does not fault in fresh pages.
    bufs: Vec<Mutex<Vec<F>>>,
}

impl<F: SzxFloat> RawFile<F> {
    /// Open `path` for `threads` threads reading at once.
    fn open(path: &Path, threads: usize) -> Result<Self, String> {
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
        Ok(RawFile {
            path: path.to_path_buf(),
            file,
            n: (len / F::BYTES as u64) as usize,
            bufs: (0..threads).map(|_| Mutex::default()).collect(),
        })
    }

    /// Values `first..first + len`, read into `buf`. A file that shrank
    /// under the reader is an error.
    fn read<'a>(&self, first: usize, len: usize, buf: &'a mut Vec<F>) -> Result<&'a [F], String> {
        if buf.len() < len {
            // Zeroed by the allocator: no page is touched before the read.
            *buf = vec![F::ZERO; len];
        }
        // PANIC-OK: at least `len` values long, by the check just above.
        let values = &mut buf[..len];
        {
            let _s = szx_telemetry::span("io.read");
            let bytes = szx_core::float::as_bytes_mut(values);
            (self.file.read_exact_at(bytes, (first * F::BYTES) as u64))
                .map_err(|e| read_error(&self.path, e))?;
        }
        if !cfg!(target_endian = "little") {
            szx_core::float::swap_bytes(values);
        }
        Ok(values)
    }

    /// Fails unless the file still has the length it was opened with.
    fn check_len(&self) -> Result<(), String> {
        let len = self.file.metadata().map_err(at(&self.path))?.len();
        let opened = (self.n * F::BYTES) as u64;
        if len != opened {
            return Err(format!(
                "{}: input changed from {opened} to {len} bytes between passes",
                self.path.display()
            ));
        }
        Ok(())
    }
}

/// Values `first..first + len` of a raw file: one frame, which the codec
/// reads window by window, on several threads with `--parallel`.
struct Frame<'a, F> {
    file: &'a RawFile<F>,
    first: usize,
    len: usize,
}

impl<'f, F: SzxFloat> WindowSource<F> for Frame<'f, F> {
    /// A free buffer of the file's, else one of the thread's own.
    type Buf = (Option<MutexGuard<'f, Vec<F>>>, Vec<F>);

    fn buf(&self) -> Self::Buf {
        let free = self.file.bufs.iter().find_map(|b| b.try_lock().ok());
        (free, Vec::new())
    }

    fn n(&self) -> usize {
        self.len
    }

    fn window<'a>(
        &'a self,
        at: usize,
        len: usize,
        buf: &'a mut Self::Buf,
    ) -> szx_core::Result<&'a [F]> {
        let buf = buf.0.as_deref_mut().unwrap_or(&mut buf.1);
        (self.file.read(self.first + at, len, buf)).map_err(SzxError::Io)
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

/// Write `out` through `<out>.partial`, renamed over `out` once `write`
/// succeeds and removed otherwise: a failed run leaves no plausible output
/// behind and keeps any earlier file at `out`.
fn write_through<T>(
    out: &Path,
    write: impl FnOnce(&std::fs::File) -> Result<T, String>,
) -> Result<T, String> {
    let mut partial = out.as_os_str().to_owned();
    partial.push(".partial");
    let partial = PathBuf::from(partial);
    let result = std::fs::File::create(&partial)
        .map_err(at(&partial))
        .and_then(|file| write(&file))
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

/// Write a command's report through the locked stdout. A closed stdout
/// (`szx info x.szx | head -1`) ends the report quietly, as it ends any
/// filter's output; any other write error fails the command.
fn print_out(
    report: impl FnOnce(&mut std::io::StdoutLock) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match report(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}

/// Run `f` on the raw little-endian bytes of `values`: their own memory on
/// a little-endian target, a swapped copy otherwise.
fn with_le_bytes<F: SzxFloat, T>(values: &[F], f: impl FnOnce(&[u8]) -> T) -> T {
    if cfg!(target_endian = "little") {
        f(szx_core::float::as_bytes(values))
    } else {
        let mut le = values.to_vec();
        szx_core::float::swap_bytes(&mut le);
        f(szx_core::float::as_bytes(&le))
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

/// Score `frames` against the raw original at `orig`: the frames decoded
/// serially, window by window, each beside the original's same window.
/// Returns the distortion, the original's FNV-1a digest, and whether every
/// value kept its frame's bound (NaN pairs pass, as `Distortion` skips
/// them).
fn measure<F: SzxFloat + Into<f64>>(
    orig: &Path,
    frames: &Frames<impl ReadAt + ?Sized>,
) -> Result<(szx_metrics::DistortionStats, u64, bool), String> {
    let input = RawFile::<F>::open(orig, 1)?;
    if input.n != frames.n() {
        return Err(format!("length mismatch: {} vs {}", input.n, frames.n()));
    }
    // The windows arrive in stream order, so the distortion and the digest
    // accumulate as they would over one buffer.
    let distortion = szx_metrics::Distortion::default();
    let state = Mutex::new((distortion, szx_telemetry::Fnv1a64::new(), true, Vec::new()));
    frames.decode(
        &mut szx_core::Decoder::default(),
        |(), first, decoded: &[F], eb| {
            let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
            let (distortion, digest, bound_ok, buf) = &mut *state;
            let original = input
                .read(first, decoded.len(), buf)
                .map_err(SzxError::Io)?;
            let _z = szx_telemetry::span("assess.distortion");
            distortion.push(original, decoded);
            let mut errors =
                (original.iter().zip(decoded)).map(|(&a, &b)| (a.into() - b.into()).abs());
            *bound_ok &= errors.all(|e| e.is_nan() || e <= eb);
            with_le_bytes(original, |le| digest.update(le));
            Ok(())
        },
    )?;
    let (distortion, digest, bound_ok, _) =
        state.into_inner().unwrap_or_else(PoisonError::into_inner);
    Ok((distortion.finish(), digest.finish(), bound_ok))
}

/// A container file read by position: the footer and the index, each
/// frame's header and sections, then each window's payload into the
/// buffer of the thread decoding it. Reads stay inside the length the file
/// had when it was opened.
struct ContainerFile {
    path: PathBuf,
    file: std::fs::File,
    len: u64,
}

impl ContainerFile {
    fn open(path: &Path) -> Result<Self, String> {
        let file = std::fs::File::open(path).map_err(at(path))?;
        let len = file.metadata().map_err(at(path))?.len();
        Ok(ContainerFile {
            path: path.to_path_buf(),
            file,
            len,
        })
    }

    /// FNV-1a digest of the whole file, read a window at a time.
    fn digest(&self) -> Result<u64, String> {
        let mut digest = szx_telemetry::Fnv1a64::new();
        let mut buf = Vec::new();
        for at in (0..self.len).step_by(szx_core::WINDOW_BYTES) {
            buf.resize(
                (self.len - at).min(szx_core::WINDOW_BYTES as u64) as usize,
                0,
            );
            self.read_exact_at(&mut buf, at)
                .map_err(|e| e.to_string())?;
            digest.update(&buf);
        }
        Ok(digest.finish())
    }
}

impl ReadAt for ContainerFile {
    fn size(&self) -> u64 {
        self.len
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> szx_core::Result<()> {
        let _s = szx_telemetry::span("io.read");
        (self.file.read_exact_at(buf, offset)).map_err(|e| SzxError::Io(read_error(&self.path, e)))
    }
}

/// The frames of a container in index order, or the one asked for by
/// name: each one's position and stream header, read up front to size the
/// output. A frame's sections are read, and its index built, when its turn
/// to decode comes; its payload is read window by window as it decodes.
struct Frames<'a, R: ?Sized> {
    reader: ContainerReader<'a, R>,
    picked: Vec<(usize, StreamHead)>,
}

impl<'a, R: ReadAt + ?Sized> Frames<'a, R> {
    /// Every frame of the container `source` holds, or only the one called
    /// `name`.
    fn read(source: &'a R, name: Option<&str>) -> Result<Self, String> {
        let err = |e: szx_core::SzxError| e.to_string();
        let reader = ContainerReader::open(source).map_err(err)?;
        let picked = match name {
            Some(name) => reader.position(name).map(|i| i..i + 1).map_err(err)?,
            None => 0..reader.len(),
        };
        let picked: szx_core::Result<_> = picked.map(|i| Ok((i, reader.stream_head(i)?))).collect();
        Ok(Frames {
            picked: picked.map_err(err)?,
            reader,
        })
    }

    fn headers(&self) -> impl Iterator<Item = &szx_core::Header> {
        self.picked.iter().map(|(_, head)| head.header())
    }
    /// Values over all frames.
    fn n(&self) -> usize {
        self.headers().map(|h| h.n).sum()
    }

    /// The first frame's element type code (f32 without frames): a frame
    /// of another type fails to decode.
    fn dtype(&self) -> u8 {
        self.headers().next().map_or(0, |h| h.dtype)
    }

    /// The loosest frame bound, which every value keeps.
    fn eb(&self) -> f64 {
        self.headers().map(|h| h.eb).fold(0.0, f64::max)
    }

    /// Stream bytes over all frames, without the container's framing.
    fn stream_bytes(&self) -> u64 {
        let entries = self
            .picked
            .iter()
            .map(|&(i, _)| self.reader.stream_entry(i));
        entries.filter_map(Result::ok).map(|(len, _)| len).sum()
    }

    /// Decode the frames in order, each one's index built as its turn comes
    /// and dropped after it, window by window, and hand `sink` the
    /// thread's `T`, each window's first value index over all frames, the
    /// window and its frame's bound: in stream order serially, as the
    /// threads finish them in parallel (`ContainerReader::decode_windows`,
    /// which folds in and checks each frame's CRC).
    fn decode<F: SzxFloat, T: Default>(
        &self,
        decoder: &mut szx_core::Decoder,
        sink: impl Fn(&mut T, usize, &[F], f64) -> szx_core::Result<()> + Sync + Send,
    ) -> Result<(), String> {
        let err = |e: szx_core::SzxError| e.to_string();
        let mut first = 0;
        for &(i, head) in &self.picked {
            let h = head.header();
            let index = self.reader.stream_index_on(i, head).map_err(err)?;
            let sink = |t: &mut T, at, w: &[F]| sink(t, first + at, w, h.eb);
            (self.reader.decode_windows(i, &index, decoder, sink)).map_err(err)?;
            first += h.n;
        }
        Ok(())
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
    fn summary(&self, line: String) -> Result<(), String> {
        if self.stats && self.json {
            eprintln!("{line}");
            Ok(())
        } else {
            print_out(|out| writeln!(out, "{line}"))
        }
    }

    /// Write the profile, stop the accountant, close the event sink, write
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
            emit_stats(self.json, extras)?;
        }
        match self.trace {
            Some(path) => write_trace(&path),
            None => Ok(()),
        }
    }
}

/// `szx compress` (the whole file is frame `"0"`) and, with `stream`,
/// `szx stream` (frames of `--frame` values, named `0, 1, 2, …`) for
/// element type `F`. Each frame gets a relative bound's range pass, then the encode
/// pass, each reading the input one window at a time, and its stream goes
/// into the container as the frame completes: the path an instrument
/// pipeline (LCLS-II in the paper's §1) takes. `--progress` narrates EWMA
/// throughput, running ratio, and ETA as frames land.
fn encode_file<F: SzxFloat + Into<f64>>(args: &[String], stream: bool) -> Result<(), String> {
    use szx_telemetry::Value;
    let err = |e: szx_core::SzxError| e.to_string();
    let [input, output] = paths(args, "input and output paths")?;
    let cfg = parse_config(args)?.with_parallel(has_flag(args, "--parallel"));
    cfg.validate().map_err(err)?;
    let progress = has_flag(args, "--progress");
    let frame = stream.then(|| frame_flag(args)).transpose()?;
    let run = run_begin(args)?;
    let file = RawFile::<F>::open(&input, threads(cfg.parallel))?;
    let n = file.n;
    let raw_bytes = n * F::BYTES;
    let frame_elems = frame.unwrap_or(n);
    let start = std::time::Instant::now();
    let fstats = write_through(&output, |out| {
        let mut w = szx_core::ContainerWriter::new(std::io::BufWriter::new(IoSpan(out)), cfg)
            .map_err(err)?;
        let mut meter = szx_telemetry::ProgressMeter::new(Some(raw_bytes as u64));
        for (k, first) in (0..n).step_by(frame_elems.max(1)).enumerate() {
            let started = std::time::Instant::now();
            let _z = szx_telemetry::trace_zone("stream.frame", k as u64);
            let _total = szx_telemetry::span("compress.total");
            let len = frame_elems.min(n - first);
            let before = w.stats().compressed_bytes;
            let encoder = encode_frame(&file, first, len, &cfg)?;
            w.push_encoder(&k.to_string(), encoder, started)
                .map_err(err)?;
            let snap = meter.on_frame((len * F::BYTES) as u64, w.stats().compressed_bytes - before);
            if progress {
                eprint!("\r{}", snap.render_line());
            }
        }
        if progress {
            eprintln!();
        }
        let stats = *w.stats();
        w.finish().map_err(err)?;
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
    ))?;
    let manifest = match run.manifest {
        None => None,
        Some(_) => {
            use szx_telemetry::json::Json;
            // Measuring quality costs one extra decode and read of the
            // input, after the timed pass.
            let (quality, digest, _) = quietly(|| {
                let file = ContainerFile::open(&output)?;
                measure::<F>(&input, &Frames::read(&file, None)?)
            })?;
            let command = if stream { "stream" } else { "compress" };
            let mut m = run_manifest(command, &cfg, F::NAME, &input, raw_bytes, digest);
            let ratio = raw_bytes as f64 / fstats.compressed_bytes.max(1) as f64;
            let gbps = raw_bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-12);
            m.set_quality(&[
                ("ratio", Value::F64(ratio)),
                ("psnr_db", Value::F64(quality.psnr)),
                ("max_abs_err", Value::F64(quality.max_abs_error)),
                ("nrmse", Value::F64(quality.nrmse)),
                ("compress_gbps", Value::F64(gbps)),
            ]);
            let stream = [
                ("frames", fstats.frames as f64),
                ("frame_elems", frame_elems as f64),
                ("mean_frame_ns", fstats.mean_frame_ns()),
            ];
            m.set(
                "stream",
                Json::Obj(stream.map(|(k, v)| (k.to_string(), Json::Num(v))).to_vec()),
            );
            Some(m)
        }
    };
    let mut extras = pass_extras(mode_name(cfg.parallel), raw_bytes, container_len, elapsed);
    extras.extend([
        ("isa", Value::Str(isa(&cfg, F::NAME).into())),
        ("frames", Value::U64(fstats.frames)),
        ("frame_elems", Value::U64(frame_elems as u64)),
        ("min_frame_ns", Value::U64(fstats.min_frame_ns)),
        ("max_frame_ns", Value::U64(fstats.max_frame_ns)),
    ]);
    run.finish(manifest, extras)
}

/// Encode values `first..first + len` of `file` as one frame: a relative
/// bound's range pass over them, then, once the file is seen to keep its
/// length, the encode pass.
fn encode_frame<F: SzxFloat>(
    file: &RawFile<F>,
    first: usize,
    len: usize,
    cfg: &SzxConfig,
) -> Result<szx_core::Encoder<F>, String> {
    let frame = Frame { file, first, len };
    let err = |e: SzxError| e.to_string();
    let mut scan = szx_core::RangeScan::new(cfg);
    if let ErrorBound::Relative(_) = cfg.error_bound {
        let _s = szx_telemetry::span("compress.range_scan");
        scan.push(&frame).map_err(err)?;
        file.check_len()?;
    }
    let mut encoder = szx_core::Encoder::new(cfg, scan.bound()).map_err(err)?;
    encoder.push(&frame).map_err(err)?;
    Ok(encoder)
}

/// Name of a stream header's element-type code (0 or 1).
fn dtype_name(code: u8) -> &'static str {
    if code == 0 {
        "f32"
    } else {
        "f64"
    }
}

/// `--frame <elems>` of `szx stream`: 1 Mi values unless given.
fn frame_flag(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--frame").map_or(Ok(1 << 20), |v| v.parse()) {
        Ok(0) | Err(_) => Err("--frame must be a positive count".into()),
        Ok(frame) => Ok(frame),
    }
}

/// The threads a run codes on: the pool's size with `--parallel`, else 1
/// (a serial run does not ask: working out the core count takes 0.1 ms).
fn threads(parallel: bool) -> usize {
    if parallel {
        szx_core::current_num_threads()
    } else {
        1
    }
}

/// `mode` label of a run in manifests and `--stats` reports.
fn mode_name(parallel: bool) -> &'static str {
    if parallel {
        "parallel"
    } else {
        "serial"
    }
}

/// The instruction set `cfg` codes values of `dtype` (`f32` or `f64`) on.
fn isa(cfg: &SzxConfig, dtype: &str) -> &'static str {
    let isa = if dtype == f64::NAME {
        cfg.kernel.isa::<f64>(cfg.strategy)
    } else {
        cfg.kernel.isa::<f32>(cfg.strategy)
    };
    isa.name()
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
    let threads = threads(cfg.parallel) as u64;
    let mut m = szx_telemetry::Manifest::new(command);
    m.set_config(&[
        ("bound_mode", Value::Str(bound_mode.into())),
        ("bound", Value::F64(bound)),
        ("block_size", Value::U64(cfg.block_size as u64)),
        ("strategy", Value::Str(format!("{:?}", cfg.strategy))),
        (
            "kernel",
            Value::Str(cfg.kernel.decoding(cfg.strategy).name().into()),
        ),
        ("isa", Value::Str(isa(cfg, dtype).into())),
        ("mode", Value::Str(mode_name(cfg.parallel).into())),
        ("threads", Value::U64(threads)),
        ("dtype", Value::Str(dtype.into())),
    ]);
    m.set_dataset(&input.to_string_lossy(), input_bytes as u64, digest);
    m
}

/// `szx decompress <in> <out>` and, with `extract`, `szx extract <in>
/// <name> <out>`: read the index and every frame's sections (or the one
/// called `name`'s), then decode the frames in index order into one raw
/// little-endian file of the element type their headers record, each
/// window's payload read as it decodes and folded into its frame's CRC.
fn decode_file(args: &[String], extract: bool) -> Result<(), String> {
    use szx_telemetry::Value;
    let (input, name, output) = if extract {
        let [input, name, output] = paths(args, "input, frame name and output")?;
        (input, Some(name.to_string_lossy().into_owned()), output)
    } else {
        let [input, output] = paths(args, "input and output paths")?;
        (input, None, output)
    };
    let parallel = has_flag(args, "--parallel");
    let run = run_begin(args)?;
    let start = std::time::Instant::now();
    let file = ContainerFile::open(&input)?;
    let frames = Frames::read(&file, name.as_deref())?;
    // One writer configuration made every frame: the first header's.
    let first = frames.headers().next();
    let cfg = SzxConfig {
        block_size: first.map_or(szx_core::DEFAULT_BLOCK_SIZE, |h| h.block_size),
        error_bound: ErrorBound::Absolute(frames.eb()),
        strategy: first.map_or(CommitStrategy::ByteAligned, |h| h.strategy),
        ..SzxConfig::default()
    }
    .with_parallel(parallel);
    let decode_path = cfg.kernel.decoding(cfg.strategy).name();
    let mut decoder = szx_core::Decoder::new(cfg.kernel, parallel);
    let raw_bytes = if frames.dtype() == 0 {
        write_frames::<f32>(&frames, &mut decoder, &output)?
    } else {
        write_frames::<f64>(&frames, &mut decoder, &output)?
    };
    let elapsed = start.elapsed();
    run.summary(format!(
        "{} -> {} ({} values)",
        name.as_deref().unwrap_or(&input.to_string_lossy()),
        output.display(),
        frames.n()
    ))?;
    let digest = run.manifest.as_ref().map(|_| file.digest()).transpose()?;
    let manifest = digest.map(|digest| {
        let command = if extract { "extract" } else { "decompress" };
        let dtype = dtype_name(frames.dtype());
        let mut m = run_manifest(command, &cfg, dtype, &input, file.len as usize, digest);
        let ratio = raw_bytes as f64 / frames.stream_bytes().max(1) as f64;
        let gbps = raw_bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-12);
        m.set_quality(&[
            ("ratio", Value::F64(ratio)),
            ("decompress_gbps", Value::F64(gbps)),
            ("decode_path", Value::Str(decode_path.into())),
        ]);
        m
    });
    let mut extras = pass_extras(mode_name(parallel), raw_bytes, file.len as usize, elapsed);
    extras.extend([
        ("frames", Value::U64(frames.picked.len() as u64)),
        ("decode_path", Value::Str(decode_path.to_string())),
        (
            "isa",
            Value::Str(isa(&cfg, dtype_name(frames.dtype())).into()),
        ),
    ]);
    run.finish(manifest, extras)
}

/// Decode `frames` to a raw little-endian file at `output`, pre-sized:
/// each thread writes the bytes of each window it decodes at the window's
/// own offset. Returns the bytes written.
fn write_frames<F: SzxFloat>(
    frames: &Frames<impl ReadAt + ?Sized>,
    decoder: &mut szx_core::Decoder,
    output: &Path,
) -> Result<usize, String> {
    let len = frames.n() * F::BYTES;
    write_through(output, |out| {
        out.set_len(len as u64).map_err(at(output))?;
        frames.decode(decoder, |_: &mut (), first, w: &[F], _| {
            let _s = szx_telemetry::span("io.write");
            let offset = (first * F::BYTES) as u64;
            Ok(with_le_bytes(w, |le| out.write_all_at(le, offset))?)
        })
    })?;
    Ok(len)
}

fn cmd_assess(args: &[String]) -> Result<(), String> {
    let [orig_path, comp_path] = paths(args, "the original and the compressed file")?;
    let file = ContainerFile::open(&comp_path)?;
    let frames = Frames::read(&file, None)?;
    let run = run_begin(args)?;
    // The stream headers know their element type; read the original in the
    // matching raw layout and share one metric path for both widths.
    let start = std::time::Instant::now();
    let (stats, _, bound_ok) = if frames.dtype() == 0 {
        measure::<f32>(&orig_path, &frames)?
    } else {
        measure::<f64>(&orig_path, &frames)?
    };
    let elapsed = start.elapsed();
    let raw_bytes = frames.n() * if frames.dtype() == 0 { 4 } else { 8 };
    print_out(|out| {
        writeln!(out, "element type: {}", dtype_name(frames.dtype()))?;
        writeln!(out, "elements:     {}", stats.n)?;
        writeln!(out, "error bound:  {:.6e}", frames.eb())?;
        writeln!(out, "max |error|:  {:.6e}", stats.max_abs_error)?;
        writeln!(out, "PSNR:         {:.2} dB", stats.psnr)?;
        writeln!(out, "NRMSE:        {:.6e}", stats.nrmse)?;
        let cr = raw_bytes as f64 / file.len as f64;
        writeln!(out, "CR:           {cr:.2}")?;
        let ok = if bound_ok { "yes" } else { "NO — BUG" };
        writeln!(out, "bound ok:     {ok}")
    })?;
    run.finish(
        None,
        pass_extras("serial", raw_bytes, file.len as usize, elapsed),
    )
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [path] = paths(args, "a file")?;
    let report = info_report(&ContainerFile::open(&path)?, has_flag(args, "--stats"))?;
    print_out(|out| out.write_all(report.as_bytes()))
}

/// `szx info` of the container `source` holds: what the frame headers
/// record, and with `stats` the spread of the non-constant blocks' payload
/// sizes, from each frame's header and sections. No payload is read.
fn info_report<R: ReadAt + ?Sized>(source: &R, stats: bool) -> Result<String, String> {
    let err = |e: szx_core::SzxError| e.to_string();
    let reader = ContainerReader::open(source).map_err(err)?;
    let (mut hs, mut stream_bytes) = (Vec::new(), 0);
    // Every non-constant block's payload size, sorted, with `--stats`.
    let mut zs = Vec::new();
    for i in 0..reader.len() {
        let index = reader.stream_index(i).map_err(err)?;
        stream_bytes += index.stream_len();
        if stats {
            let sizes: Vec<_> = match index.header().dtype {
                0 => index.blocks::<f32>(0).filter_map(|(_, p)| p).collect(),
                _ => index.blocks::<f64>(0).filter_map(|(_, p)| p).collect(),
            };
            zs.extend(sizes.iter().map(|p| p.len()));
        }
        hs.push(*index.header());
    }
    zs.sort_unstable();
    // A field every frame shares, "mixed" if they differ.
    let shared = |f: fn(&szx_core::Header) -> String| match hs.first().map(f) {
        None => "n/a".to_string(),
        Some(v) if hs.iter().all(|h| f(h) == v) => v,
        Some(_) => "mixed".to_string(),
    };
    let blocks: usize = hs.iter().map(|h| h.num_blocks()).sum();
    let nonconstant: usize = hs.iter().map(|h| h.n_nonconstant).sum();
    let elements: usize = hs.iter().map(|h| h.n).sum();
    let eb = hs.iter().map(|h| h.eb).fold(0.0, f64::max);
    let pct = 100.0 * nonconstant as f64 / blocks.max(1) as f64;
    let mut lines = vec![
        format!("frames:           {}", hs.len()),
        format!(
            "element type:     {}",
            shared(|h| dtype_name(h.dtype).into())
        ),
        format!("elements:         {elements}"),
        format!("block size:       {}", shared(|h| h.block_size.to_string())),
        format!("blocks:           {blocks}"),
        format!("non-constant:     {nonconstant} ({pct:.1}%)"),
        format!("abs error bound:  {eb:.6e}"),
        format!(
            "strategy:         {}",
            shared(|h| format!("{:?}", h.strategy))
        ),
        format!("stream bytes:     {stream_bytes}"),
        format!("container bytes:  {}", source.size()),
    ];
    if stats {
        lines.push(match (zs.first(), zs.get(zs.len() / 2), zs.last()) {
            (Some(min), Some(median), Some(max)) => format!(
                "block zsize:      min {min}  median {median}  max {max}  (over {} non-constant blocks)",
                zs.len()
            ),
            _ => "block zsize:      n/a (all blocks constant)".into(),
        });
    }
    Ok(lines.join("\n") + "\n")
}

/// `szx archive`: each field file, read window by window like the input
/// of `compress`, becomes one frame named after its file stem.
fn cmd_archive<F: SzxFloat>(args: &[String]) -> Result<(), String> {
    let err = |e: SzxError| e.to_string();
    let cfg = parse_config(args)?.with_parallel(has_flag(args, "--parallel"));
    let mut positional = positional(args)?;
    if positional.len() < 2 {
        return Err("need an output archive and at least one field file".into());
    }
    let out_path = positional.remove(0);
    write_through(&out_path, |out| {
        let mut w = szx_core::ContainerWriter::new(std::io::BufWriter::new(IoSpan(out)), cfg)
            .map_err(err)?;
        for path in &positional {
            let started = std::time::Instant::now();
            let file = RawFile::<F>::open(path, threads(cfg.parallel))?;
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("bad field file name {}", path.display()))?;
            let encoder = encode_frame(&file, 0, file.n, &cfg)?;
            w.push_encoder(name, encoder, started).map_err(err)?;
            print_out(|out| writeln!(out, "added {name} ({} values)", file.n))?;
        }
        w.finish().map(drop).map_err(err)
    })?;
    let len = std::fs::metadata(&out_path).map_err(at(&out_path))?.len();
    print_out(|out| {
        let fields = positional.len();
        writeln!(out, "{} ({fields} fields, {len} bytes)", out_path.display())
    })
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    let [path] = paths(args, "a container file")?;
    let report = list_report(&ContainerFile::open(&path)?)?;
    print_out(|out| out.write_all(report.as_bytes()))
}

/// `szx list` of the container `source` holds: one row per frame, its
/// name, stream bytes and CRC32C, from the footer and the index alone.
fn list_report<R: ReadAt + ?Sized>(source: &R) -> Result<String, String> {
    let reader = ContainerReader::open(source).map_err(|e| e.to_string())?;
    let mut out = format!("{:<20} {:>12} {:>10}\n", "field", "compressed", "crc32c");
    for (i, name) in reader.names().enumerate() {
        let (len, crc) = reader.stream_entry(i).map_err(|e| e.to_string())?;
        out += &format!("{name:<20} {len:>12}   {crc:08x}\n");
    }
    Ok(out)
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    use szx_data::{Application, Scale};
    let [app, dir] = paths(args, "an application and an output directory")?;
    let app = match app.to_str() {
        Some("cesm") => Application::CesmAtm,
        Some("hurricane") => Application::Hurricane,
        Some("miranda") => Application::Miranda,
        Some("nyx") => Application::Nyx,
        Some("qmcpack") => Application::QmcPack,
        Some("scale") => Application::ScaleLetkf,
        _ => return Err(format!("unknown application {}", app.display())),
    };
    let scale = match flag_value(args, "--scale") {
        None => Scale::Small,
        Some(name) => Scale::parse(&name).ok_or(format!("unknown scale {name}"))?,
    };
    std::fs::create_dir_all(&dir).map_err(at(&dir))?;
    let ds = app.generate(scale, 42);
    for f in &ds.fields {
        let path = dir.join(format!("{}.f32", f.name.replace('/', "_")));
        szx_data::io::write_f32_raw(&path, &f.data).map_err(|e| e.to_string())?;
        let [x, y, z] = f.dims;
        print_out(|out| writeln!(out, "{}  ({x}x{y}x{z})", path.display()))?;
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
        let file = RawFile::<f32>::open(&path, 1).unwrap();
        assert_eq!(file.n, 3584);
        let mut buf = Vec::new();
        for _ in 0..2 {
            // Any window at any time: last to first.
            let mut got = vec![0.0; 3584];
            for first in (0..3584).step_by(1024).rev() {
                let len = 1024.min(3584 - first);
                let window = file.read(first, len, &mut buf).unwrap();
                got[first..first + len].copy_from_slice(window);
            }
            assert_eq!(got, data);
            file.check_len().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn input_truncated_between_passes_is_an_error() {
        let dir = scratch("between");
        let path = dir.join("in.f32");
        write_input(&path);
        let file = RawFile::<f32>::open(&path, 1).unwrap();
        file.read(0, 3584, &mut Vec::new()).unwrap();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(2048 * 4).unwrap();
        let err = file.check_len().unwrap_err();
        assert!(err.contains("changed from 14336 to 8192 bytes"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn input_truncated_during_a_pass_is_an_error() {
        let dir = scratch("during");
        let path = dir.join("in.f32");
        write_input(&path);
        let file = RawFile::<f32>::open(&path, 1).unwrap();
        let mut buf = Vec::new();
        file.read(0, 1024, &mut buf).unwrap();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(1500 * 4).unwrap();
        let err = file.read(1024, 1024, &mut buf).unwrap_err();
        assert!(err.contains("input shrank"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A container of `frames` frames of 140,000 `f32` values (two decode
    /// windows each), named 0, 1, ...
    fn container(frames: usize) -> Vec<u8> {
        container_of(frames, 140_000)
    }

    /// A container of `frames` frames of `n` `f32` values.
    fn container_of(frames: usize, n: usize) -> Vec<u8> {
        let cfg = SzxConfig::absolute(1e-3);
        let mut w = szx_core::ContainerWriter::new(Vec::new(), cfg).unwrap();
        for k in 0..frames {
            let frame: Vec<f32> = (0..n)
                .map(|i| ((i + 977 * k) as f32 * 0.003).sin() * 5.0)
                .collect();
            w.push(&k.to_string(), &frame).unwrap();
        }
        w.finish().unwrap()
    }

    /// Container bytes that record every read (and lend none).
    struct Counting<'a> {
        bytes: &'a [u8],
        reads: Mutex<Vec<std::ops::Range<u64>>>,
    }

    impl<'a> Counting<'a> {
        fn new(bytes: &'a [u8]) -> Self {
            Counting {
                bytes,
                reads: Mutex::default(),
            }
        }

        /// The ranges read since the last call, sorted; they must not
        /// overlap: no byte is read twice.
        fn take(&self) -> Vec<std::ops::Range<u64>> {
            let mut reads = std::mem::take(&mut *self.reads.lock().unwrap());
            reads.sort_by_key(|r| r.start);
            for pair in reads.windows(2) {
                assert!(pair[0].end <= pair[1].start, "read twice: {reads:?}");
            }
            reads
        }
    }

    impl ReadAt for Counting<'_> {
        fn size(&self) -> u64 {
            self.bytes.len() as u64
        }

        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> szx_core::Result<()> {
            let end = offset + buf.len() as u64;
            self.reads.lock().unwrap().push(offset..end);
            self.bytes.read_exact_at(buf, offset)
        }
    }

    /// Bytes in `ranges`.
    fn bytes_in(ranges: &[std::ops::Range<u64>]) -> u64 {
        ranges.iter().map(|r| r.end - r.start).sum()
    }

    #[test]
    fn list_info_and_extract_read_only_what_they_print() {
        let bytes = container(3);
        let len = bytes.len() as u64;
        let reader = ContainerReader::new(&bytes).unwrap();
        // Frame k's stream: its start in the container and its sections.
        let frames: Vec<(u64, u64, u64)> = (0..3)
            .map(|k| {
                let stream = reader.frame_bytes(k).unwrap();
                let start = stream.as_ptr() as u64 - bytes.as_ptr() as u64;
                let index = szx_core::StreamIndex::parse::<f32>(stream).unwrap();
                let payload = index.blocks::<f32>(0).find_map(|(_, p)| p).unwrap();
                (start, start + stream.len() as u64, payload.start as u64)
            })
            .collect();
        let index_start = frames[2].1;
        // The 5-byte head, the index, the 16-byte footer.
        let framing = [0..5, index_start..len - 16, len - 16..len];

        // `list`: the framing, nothing else.
        let source = Counting::new(&bytes);
        let listing = list_report(&source).unwrap();
        assert_eq!(listing.lines().count(), 4, "{listing}");
        assert_eq!(source.take(), framing);

        // `info`: the framing and each frame's header and sections, each
        // once, and never a payload byte.
        for stats in [false, true] {
            let info = info_report(&source, stats).unwrap();
            assert!(info.starts_with("frames:           3\n"), "{info}");
            assert_eq!(info.contains("block zsize:"), stats, "{info}");
            let reads = source.take();
            let sections: u64 = frames.iter().map(|&(_, _, payload)| payload).sum();
            assert_eq!(bytes_in(&reads), bytes_in(&framing) + sections);
            for &(start, _, payload) in &frames {
                let inside = reads
                    .iter()
                    .filter(|r| r.start >= start && r.end <= start + payload);
                assert_eq!(inside.map(|r| r.end - r.start).sum::<u64>(), payload);
            }
        }

        // `extract 1`: the framing and frame 1's bytes, each once, and it
        // decodes to what the reader in memory decodes.
        let frames1 = Frames::read(&source, Some("1")).unwrap();
        let got = Mutex::new(vec![0f32; frames1.n()]);
        let mut decoder = szx_core::Decoder::default();
        (frames1.decode(&mut decoder, |(), at, w: &[f32], _| {
            got.lock().unwrap()[at..at + w.len()].copy_from_slice(w);
            Ok(())
        }))
        .unwrap();
        assert_eq!(got.into_inner().unwrap(), reader.frame::<f32>(1).unwrap());
        let (start, end, _) = frames[1];
        let (inside, outside): (Vec<_>, Vec<_>) =
            (source.take().into_iter()).partition(|r| r.start >= start && r.end <= end);
        assert_eq!(outside, framing);
        assert_eq!(bytes_in(&inside), end - start);
    }

    #[test]
    fn container_truncated_during_decompress_is_an_error() {
        let dir = scratch("truncated");
        let (path, out) = (dir.join("in.szx"), dir.join("out.f32"));
        // Frames of two windows, and frames of a few hundred bytes.
        for (frames, n) in [(2, 140_000), (40, 300)] {
            std::fs::write(&path, container_of(frames, n)).unwrap();
            std::fs::write(&out, b"earlier").unwrap();
            let file = ContainerFile::open(&path).unwrap();
            let frames = Frames::read(&file, None).unwrap();
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(file.len / 2).unwrap();
            let mut decoder = szx_core::Decoder::default();
            let err = write_frames::<f32>(&frames, &mut decoder, &out).unwrap_err();
            assert!(
                err.contains(&format!("{}: input shrank", path.display())),
                "{err}"
            );
            assert_eq!(std::fs::read(&out).unwrap(), b"earlier");
            assert!(!dir.join("out.f32.partial").exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_the_earlier_output_and_no_partial() {
        let dir = scratch("partial");
        let out = dir.join("out.f32");
        std::fs::write(&out, b"earlier").unwrap();
        let r: Result<(), String> = write_through(&out, |mut w| {
            w.write_all(b"half a file").map_err(|e| e.to_string())?;
            Err("corrupt window".into())
        });
        assert_eq!(r.unwrap_err(), "corrupt window");
        assert_eq!(std::fs::read(&out).unwrap(), b"earlier");
        assert!(!dir.join("out.f32.partial").exists());
        write_through(&out, |mut w| w.write_all(b"new").map_err(|e| e.to_string())).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), b"new");
        assert!(!dir.join("out.f32.partial").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
