//! The benchmark observatory: a fixed grid of szx measurements with a
//! versioned, machine-readable trajectory (`BENCH_<n>.json`) and a
//! regression gate.
//!
//! Every run sweeps the synthetic suites (CESM, Nyx, Hurricane) across
//! relative error bounds × {scalar, kernel, simd} hot loops × {serial,
//! parallel} drivers (the simd column only on hosts whose CPU supports the
//! explicit ISA path — absent cells are growth headroom, never a baseline,
//! so the gate stays portable), and records throughput, compression ratio,
//! distortion (PSNR, max-error/bound), and a per-cell memcpy roofline so
//! throughput can be read relative to what a pure copy of the same bytes
//! achieves on the same machine. Reports accumulate as
//! `BENCH_0.json`, `BENCH_1.json`, … so the repository carries its own
//! performance history; [`compare`] diffs a run against its predecessor
//! and flags regressions under configurable thresholds.
//!
//! The JSON schema (documented in DESIGN.md §9) is versioned via
//! `schema_version` and forward-compatible: readers ignore unknown fields
//! and reject only documents claiming a *newer* schema than they know.

use std::path::{Path, PathBuf};
use std::time::Instant;

use szx_core::{Decoder, KernelPath, SzxConfig};
use szx_data::{Application, Scale};
use szx_telemetry::json::Json;

/// Bump when a field changes meaning or a required field is added. Readers
/// accept any document with `schema_version <= SCHEMA_VERSION`.
pub const SCHEMA_VERSION: u64 = 1;

/// Stand-in for infinite PSNR (lossless cells) so reports stay valid JSON.
pub const PSNR_CAP_DB: f64 = 999.0;

/// The suites a standard observatory run measures: the paper's smoothest
/// (CESM), roughest (Nyx), and mid-spectrum (Hurricane) applications.
pub const SUITES: [Application; 3] = [
    Application::CesmAtm,
    Application::Nyx,
    Application::Hurricane,
];

/// One measured cell of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Suite short name (`CESM`, `NYX`, `Hurricane`).
    pub suite: String,
    /// Relative error bound the cell ran at.
    pub rel_bound: f64,
    /// Hot-loop selection: `scalar`, `kernel`, or `simd`.
    pub kernel: String,
    /// Driver: `serial` or `parallel`.
    pub mode: String,
    /// Uncompressed bytes processed (all fields of the suite).
    pub raw_bytes: u64,
    /// Compression throughput, raw GB/s (best-of-samples per field).
    pub compress_gbps: f64,
    /// Decompression throughput, raw GB/s.
    pub decompress_gbps: f64,
    /// Overall compression ratio (raw / compressed across fields).
    pub ratio: f64,
    /// Worst per-field PSNR in dB (capped at [`PSNR_CAP_DB`]).
    pub psnr_db: f64,
    /// Worst per-field `max|error| / error_bound`; > 1 means the bound was
    /// violated — always a regression regardless of thresholds.
    pub max_err_over_bound: f64,
    /// Memcpy roofline for this cell's bytes, raw GB/s: the best-of-samples
    /// speed of a plain `copy_from_slice` over the same fields, measured
    /// outside every timed region. Context for reading `compress_gbps` /
    /// `decompress_gbps` as a fraction of memory bandwidth (schema-additive
    /// in v1: absent in older documents parses as 0.0, and [`compare`]
    /// never gates on it — the roofline describes the machine, not szx).
    pub roofline_gbps: f64,
    /// Top zones by self time from an untimed pass over the cell with
    /// collection on, in nanoseconds (BENCH_4 and BENCH_5 hold sampler
    /// tick counts). Schema-additive in v1: absent in older documents
    /// parses as empty, and [`compare`] never gates on it — attribution is
    /// context, not a metric.
    pub hotspots: Vec<szx_telemetry::Hotspot>,
}

impl BenchRecord {
    /// Stable identity of the grid cell across runs.
    pub fn key(&self) -> String {
        format!(
            "{}/rel{:e}/{}/{}",
            self.suite, self.rel_bound, self.kernel, self.mode
        )
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("suite".into(), Json::Str(self.suite.clone())),
            ("rel_bound".into(), Json::Num(self.rel_bound)),
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("raw_bytes".into(), Json::Num(self.raw_bytes as f64)),
            ("compress_gbps".into(), Json::Num(self.compress_gbps)),
            ("decompress_gbps".into(), Json::Num(self.decompress_gbps)),
            ("ratio".into(), Json::Num(self.ratio)),
            ("psnr_db".into(), Json::Num(self.psnr_db)),
            (
                "max_err_over_bound".into(),
                Json::Num(self.max_err_over_bound),
            ),
            ("roofline_gbps".into(), Json::Num(self.roofline_gbps)),
            (
                "hotspots".into(),
                Json::Arr(
                    self.hotspots
                        .iter()
                        .map(|h| {
                            Json::Obj(vec![
                                ("zone".into(), Json::Str(h.name.clone())),
                                ("self_ns".into(), Json::Num(h.self_weight as f64)),
                                ("total_ns".into(), Json::Num(h.total_weight as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<BenchRecord, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record missing string field {k:?}"))
        };
        let num_field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record missing numeric field {k:?}"))
        };
        // Schema-additive (absent in pre-profiler documents → empty); a
        // present-but-malformed entry is still an error, not silence.
        let hotspots = match v.get("hotspots").and_then(Json::as_arr) {
            None => Vec::new(),
            Some(items) => items
                .iter()
                .map(|h| {
                    // Documents before exact stacks weigh in sampler ticks.
                    let weight = |ns: &str, ticks: &str| {
                        h.get(ns)
                            .or_else(|| h.get(ticks))
                            .and_then(Json::as_f64)
                            .map(|w| w as u64)
                            .ok_or(format!("hotspot missing {ns}"))
                    };
                    Ok(szx_telemetry::Hotspot {
                        name: h
                            .get("zone")
                            .and_then(Json::as_str)
                            .ok_or("hotspot missing zone name")?
                            .to_string(),
                        self_weight: weight("self_ns", "self_samples")?,
                        total_weight: weight("total_ns", "total_samples")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };
        Ok(BenchRecord {
            suite: str_field("suite")?,
            rel_bound: num_field("rel_bound")?,
            kernel: str_field("kernel")?,
            mode: str_field("mode")?,
            raw_bytes: num_field("raw_bytes")? as u64,
            compress_gbps: num_field("compress_gbps")?,
            decompress_gbps: num_field("decompress_gbps")?,
            ratio: num_field("ratio")?,
            psnr_db: num_field("psnr_db")?,
            max_err_over_bound: num_field("max_err_over_bound")?,
            // Schema-additive: pre-roofline documents carry no such field;
            // 0.0 reads as "unmeasured" and is never compared against.
            roofline_gbps: v.get("roofline_gbps").and_then(Json::as_f64).unwrap_or(0.0),
            hotspots,
        })
    }
}

/// One observatory run: context plus every measured cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub schema_version: u64,
    /// The `<n>` of the `BENCH_<n>.json` this report was written as.
    pub bench_id: u64,
    /// Seconds since the Unix epoch at measurement time.
    pub created_unix: u64,
    /// Dataset scale the suites were generated at.
    pub scale: String,
    /// Worker threads available to the parallel cells.
    pub threads: u64,
    /// Timing samples per cell (best is kept).
    pub samples: u64,
    /// Fields measured per suite (caps suite size).
    pub fields_per_suite: u64,
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    pub fn to_json(&self) -> String {
        let context = Json::Obj(vec![
            ("scale".into(), Json::Str(self.scale.clone())),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("samples".into(), Json::Num(self.samples as f64)),
            (
                "fields_per_suite".into(),
                Json::Num(self.fields_per_suite as f64),
            ),
        ]);
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("bench_id".into(), Json::Num(self.bench_id as f64)),
            ("created_unix".into(), Json::Num(self.created_unix as f64)),
            ("context".into(), context),
            (
                "records".into(),
                Json::Arr(self.records.iter().map(BenchRecord::to_json).collect()),
            ),
        ])
        .render()
    }

    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = Json::parse(text)?;
        let version = v
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or("missing schema_version")? as u64;
        if version > SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} is newer than this reader ({SCHEMA_VERSION})"
            ));
        }
        let num = |j: &Json, k: &str| -> Result<u64, String> {
            j.get(k)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("missing numeric field {k:?}"))
        };
        let ctx = v.get("context").ok_or("missing context")?;
        let records = v
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("missing records array")?
            .iter()
            .map(BenchRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema_version: version,
            bench_id: num(&v, "bench_id")?,
            created_unix: num(&v, "created_unix")?,
            scale: ctx
                .get("scale")
                .and_then(Json::as_str)
                .ok_or("missing context.scale")?
                .to_string(),
            threads: num(ctx, "threads")?,
            samples: num(ctx, "samples")?,
            fields_per_suite: num(ctx, "fields_per_suite")?,
            records,
        })
    }
}

/// Map a CLI run manifest (`szx … --manifest run.json`, schema v1 from
/// `szx_telemetry::Manifest`) onto a one-record [`BenchReport`] so the
/// comparator can diff ad-hoc CLI runs against observatory sweeps (or each
/// other). Metrics a manifest doesn't carry come out as harmless neutrals:
/// absent throughputs are 0.0 (never above any baseline floor), absent
/// PSNR is [`PSNR_CAP_DB`], absent distortion means `max_err_over_bound`
/// 0.0.
pub fn report_from_manifest(text: &str) -> Result<BenchReport, String> {
    let v = szx_telemetry::Manifest::parse(text)?;
    let qual = |k: &str| {
        v.get("quality")
            .and_then(|q| q.get(k))
            .and_then(Json::as_f64)
    };
    let cfg = v.get("config").ok_or("manifest missing config")?;
    let cfg_str = |k: &str| {
        cfg.get(k)
            .and_then(Json::as_str)
            .map(str::to_lowercase)
            .ok_or_else(|| format!("manifest config missing {k:?}"))
    };
    let dataset = v.get("dataset").ok_or("manifest missing dataset")?;
    let suite = dataset
        .get("path")
        .and_then(Json::as_str)
        .map(|p| {
            Path::new(p)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.to_string())
        })
        .ok_or("manifest dataset missing path")?;
    let bound = cfg
        .get("bound")
        .and_then(Json::as_f64)
        .ok_or("manifest config missing bound")?;
    let max_err_over_bound = match qual("max_abs_err") {
        Some(e) if bound > 0.0 => e / bound,
        _ => 0.0,
    };
    let record = BenchRecord {
        suite,
        rel_bound: bound,
        kernel: cfg_str("kernel")?,
        mode: cfg_str("mode")?,
        raw_bytes: dataset.get("bytes").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        compress_gbps: qual("compress_gbps").unwrap_or(0.0),
        decompress_gbps: qual("decompress_gbps").unwrap_or(0.0),
        ratio: qual("ratio").unwrap_or(0.0),
        psnr_db: qual("psnr_db").unwrap_or(PSNR_CAP_DB).min(PSNR_CAP_DB),
        max_err_over_bound,
        roofline_gbps: 0.0,
        hotspots: Vec::new(),
    };
    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        bench_id: 0,
        created_unix: v
            .get("created_unix_ms")
            .and_then(Json::as_f64)
            .map(|ms| (ms / 1e3) as u64)
            .unwrap_or(0),
        scale: "manifest".to_string(),
        threads: cfg.get("threads").and_then(Json::as_f64).unwrap_or(1.0) as u64,
        samples: 1,
        fields_per_suite: 1,
        records: vec![record],
    })
}

/// Load either document the observatory understands: a `BENCH_<n>.json`
/// trajectory report or a CLI run manifest, telling them apart by the
/// manifest's `kind` tag.
pub fn load_any(text: &str) -> Result<BenchReport, String> {
    let is_manifest = Json::parse(text)
        .ok()
        .and_then(|v| v.get("kind").and_then(Json::as_str).map(str::to_string))
        .is_some_and(|k| k == szx_telemetry::MANIFEST_KIND);
    if is_manifest {
        report_from_manifest(text)
    } else {
        BenchReport::from_json(text)
    }
}

/// Regression thresholds. Ratio and PSNR carry tiny tolerances (they are
/// deterministic given the data; the slack only absorbs float formatting),
/// while throughput — a wall-clock measurement — gets a real noise budget.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Max fractional throughput drop (0.05 = fail below 95% of baseline).
    pub max_throughput_drop: f64,
    /// Max fractional compression-ratio drop.
    pub max_ratio_drop: f64,
    /// Max absolute PSNR drop in dB.
    pub max_psnr_drop_db: f64,
    /// Gate on throughput at all (disable when comparing across machines).
    pub check_throughput: bool,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            max_throughput_drop: 0.05,
            max_ratio_drop: 1e-3,
            max_psnr_drop_db: 0.05,
            check_throughput: true,
        }
    }
}

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub key: String,
    pub metric: &'static str,
    pub baseline: f64,
    pub current: f64,
    /// The worst value the thresholds would still have accepted.
    pub allowed: f64,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} regressed {:.4} -> {:.4} (allowed >= {:.4})",
            self.key, self.metric, self.baseline, self.current, self.allowed
        )
    }
}

/// Diff `current` against `baseline`. Every baseline cell must still exist
/// (a vanished cell is a coverage regression) and stay within thresholds;
/// cells only present in `current` are growth, not failures. An error-bound
/// violation (`max_err_over_bound > 1`) fails unconditionally.
pub fn compare(baseline: &BenchReport, current: &BenchReport, cfg: &CompareConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for old in &baseline.records {
        let key = old.key();
        let Some(new) = current.records.iter().find(|r| r.key() == key) else {
            findings.push(Finding {
                key,
                metric: "coverage (cell missing from current run)",
                baseline: 1.0,
                current: 0.0,
                allowed: 1.0,
            });
            continue;
        };
        if cfg.check_throughput {
            for (metric, b, c) in [
                ("compress_gbps", old.compress_gbps, new.compress_gbps),
                ("decompress_gbps", old.decompress_gbps, new.decompress_gbps),
            ] {
                let floor = b * (1.0 - cfg.max_throughput_drop);
                if c < floor {
                    findings.push(Finding {
                        key: key.clone(),
                        metric,
                        baseline: b,
                        current: c,
                        allowed: floor,
                    });
                }
            }
        }
        let ratio_floor = old.ratio * (1.0 - cfg.max_ratio_drop);
        if new.ratio < ratio_floor {
            findings.push(Finding {
                key: key.clone(),
                metric: "ratio",
                baseline: old.ratio,
                current: new.ratio,
                allowed: ratio_floor,
            });
        }
        let psnr_floor = old.psnr_db - cfg.max_psnr_drop_db;
        if new.psnr_db < psnr_floor {
            findings.push(Finding {
                key: key.clone(),
                metric: "psnr_db",
                baseline: old.psnr_db,
                current: new.psnr_db,
                allowed: psnr_floor,
            });
        }
        if new.max_err_over_bound > 1.0 {
            findings.push(Finding {
                key: key.clone(),
                metric: "max_err_over_bound (error bound violated)",
                baseline: old.max_err_over_bound,
                current: new.max_err_over_bound,
                allowed: 1.0,
            });
        }
    }
    findings
}

/// Parse `BENCH_<n>.json` file names.
fn bench_id_of(name: &str) -> Option<u64> {
    name.strip_prefix("BENCH_")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// The highest-numbered `BENCH_<n>.json` in `dir`, if any.
pub fn latest_bench(dir: &Path) -> Option<(u64, PathBuf)> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        if let Some(id) = name.to_str().and_then(bench_id_of) {
            if best.as_ref().is_none_or(|(b, _)| id > *b) {
                best = Some((id, entry.path()));
            }
        }
    }
    best
}

/// The id and path the next report in `dir` should be written as
/// (`BENCH_0.json` when the directory has none — the bootstrap case).
pub fn next_bench_path(dir: &Path) -> (u64, PathBuf) {
    let id = latest_bench(dir).map_or(0, |(n, _)| n + 1);
    (id, dir.join(format!("BENCH_{id}.json")))
}

/// Knobs of one observatory run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub scale: Scale,
    /// Timing samples per cell; the fastest is recorded.
    pub samples: usize,
    /// Cap on fields generated per suite.
    pub max_fields: usize,
    /// Relative error bounds to sweep.
    pub bounds: Vec<f64>,
    /// Suppress per-cell progress on stderr.
    pub quiet: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale: Scale::Small,
            samples: 3,
            max_fields: 2,
            bounds: vec![1e-2, 1e-3, 1e-4],
            quiet: false,
        }
    }
}

/// Hotspots recorded per cell.
const HOTSPOT_TOP_N: usize = 10;

/// One *untimed* pass over the cell's workload with collection on: the
/// top zones by self time, read from the folded map. Runs strictly outside
/// the timed regions, so attribution costs the throughput numbers nothing.
fn collect_hotspots(
    dataset: &szx_data::Dataset,
    cfg: &SzxConfig,
    kernel: KernelPath,
    mode: &str,
) -> Vec<szx_telemetry::Hotspot> {
    let tel = szx_telemetry::global();
    tel.reset();
    szx_telemetry::set_enabled(true);
    let cfg = cfg.with_parallel(mode == "parallel");
    let mut decoder = Decoder::new(kernel, cfg.parallel);
    for field in &dataset.fields {
        let data = &field.data;
        let stream = szx_core::compress(data, &cfg).expect("hotspot-pass compression failed");
        let mut recon = vec![0f32; data.len()];
        decoder
            .decode_into(&stream, &mut recon)
            .expect("hotspot-pass decompression failed");
    }
    szx_telemetry::set_enabled(false);
    tel.profile().hotspots(HOTSPOT_TOP_N)
}

/// Fastest wall time of `samples` invocations, in seconds.
fn best_time<R>(samples: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(r);
    }
    (best, result.unwrap())
}

/// Measure the full grid. Deterministic data (fixed per-suite seeds), so
/// ratio/PSNR cells are exactly reproducible; throughput depends on the
/// machine.
pub fn run(opts: &RunOptions) -> BenchReport {
    let mut records = Vec::new();
    // The simd column exists only where the explicit ISA path can run (and
    // `SZX_DISABLE_SIMD` is unset): the grid grows on capable hosts and the
    // gate treats current-only cells as growth, so BENCH history stays
    // comparable across machines.
    let mut kernels = vec![KernelPath::Scalar, KernelPath::Kernel];
    if szx_core::simd::available() {
        kernels.push(KernelPath::Simd);
    }
    for app in SUITES {
        let dataset = app.generate_limited(opts.scale, crate::seed_for(app), opts.max_fields);
        for &rel in &opts.bounds {
            for &kernel in &kernels {
                for mode in ["serial", "parallel"] {
                    let cfg = SzxConfig::relative(rel)
                        .with_kernel(kernel)
                        .with_parallel(mode == "parallel");
                    let mut raw_bytes = 0u64;
                    let mut comp_bytes = 0u64;
                    let mut compress_secs = 0.0;
                    let mut decompress_secs = 0.0;
                    let mut worst_psnr = f64::INFINITY;
                    let mut worst_err_over_bound = 0.0f64;
                    for field in &dataset.fields {
                        let data = &field.data;
                        let (ct, stream) = best_time(opts.samples, || {
                            szx_core::compress(data, &cfg).expect("observatory compression failed")
                        });
                        // Preallocated output + reusable kernel arenas:
                        // the timed region is pure decode, not allocation.
                        let mut recon = vec![0f32; data.len()];
                        let mut decoder = Decoder::new(kernel, cfg.parallel);
                        let (dt, ()) = best_time(opts.samples, || {
                            decoder
                                .decode_into(&stream, &mut recon)
                                .expect("observatory decompression failed")
                        });
                        let header = szx_core::inspect(&stream).expect("own stream inspects");
                        let d = szx_metrics::distortion(data, &recon);
                        raw_bytes += (data.len() * 4) as u64;
                        comp_bytes += stream.len() as u64;
                        compress_secs += ct;
                        decompress_secs += dt;
                        worst_psnr = worst_psnr.min(d.psnr);
                        if header.eb > 0.0 {
                            worst_err_over_bound =
                                worst_err_over_bound.max(d.max_abs_error / header.eb);
                        }
                    }
                    // Memcpy roofline over the same bytes, measured after
                    // the timed loops so it costs the throughput numbers
                    // nothing: the best-of-samples speed of a plain copy is
                    // the bandwidth ceiling the compressor's GB/s should be
                    // read against.
                    let mut roofline_secs = 0.0;
                    for field in &dataset.fields {
                        let mut sink = vec![0f32; field.data.len()];
                        let (t, ()) = best_time(opts.samples, || {
                            sink.copy_from_slice(&field.data);
                            std::hint::black_box(&mut sink);
                        });
                        roofline_secs += t;
                    }
                    // Attribution pass *after* the timed loops: collection
                    // is never on while throughput is being measured.
                    let hotspots = collect_hotspots(&dataset, &cfg, kernel, mode);
                    let record = BenchRecord {
                        suite: app.short_name().to_string(),
                        rel_bound: rel,
                        kernel: kernel.name().to_string(),
                        mode: mode.to_string(),
                        raw_bytes,
                        compress_gbps: raw_bytes as f64 / compress_secs.max(1e-12) / 1e9,
                        decompress_gbps: raw_bytes as f64 / decompress_secs.max(1e-12) / 1e9,
                        ratio: raw_bytes as f64 / comp_bytes.max(1) as f64,
                        psnr_db: worst_psnr.min(PSNR_CAP_DB),
                        max_err_over_bound: worst_err_over_bound,
                        roofline_gbps: raw_bytes as f64 / roofline_secs.max(1e-12) / 1e9,
                        hotspots,
                    };
                    if !opts.quiet {
                        eprintln!(
                            "  {:<28} {:>7.3} GB/s c / {:>7.3} GB/s d   CR {:>7.2}  PSNR {:>7.2} dB",
                            record.key(),
                            record.compress_gbps,
                            record.decompress_gbps,
                            record.ratio,
                            record.psnr_db
                        );
                    }
                    records.push(record);
                }
            }
        }
    }
    BenchReport {
        schema_version: SCHEMA_VERSION,
        bench_id: 0,
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        scale: opts.scale.name().to_string(),
        threads: rayon::current_num_threads() as u64,
        samples: opts.samples as u64,
        fields_per_suite: opts.max_fields as u64,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            bench_id: 3,
            created_unix: 1_754_500_000,
            scale: "tiny".into(),
            threads: 4,
            samples: 1,
            fields_per_suite: 1,
            records: vec![BenchRecord {
                suite: "CESM".into(),
                rel_bound: 1e-3,
                kernel: "kernel".into(),
                mode: "parallel".into(),
                raw_bytes: 1 << 20,
                compress_gbps: 2.5,
                decompress_gbps: 4.0,
                ratio: 6.25,
                psnr_db: 64.5,
                max_err_over_bound: 0.93,
                roofline_gbps: 11.5,
                hotspots: vec![
                    szx_telemetry::Hotspot {
                        name: "compress.encode_blocks".into(),
                        self_weight: 120,
                        total_weight: 130,
                    },
                    szx_telemetry::Hotspot {
                        name: "compress.range_scan".into(),
                        self_weight: 45,
                        total_weight: 45,
                    },
                ],
            }],
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample_report();
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn newer_schema_is_rejected_older_accepted() {
        let mut r = sample_report();
        r.schema_version = SCHEMA_VERSION + 1;
        let err = BenchReport::from_json(&r.to_json()).unwrap_err();
        assert!(err.contains("newer"), "{err}");
        // Unknown fields from the future are ignored, not fatal.
        let doc = sample_report()
            .to_json()
            .replacen("{", "{\"from_the_future\":[1,2],", 1);
        assert!(BenchReport::from_json(&doc).is_ok());
    }

    #[test]
    fn hotspots_are_schema_additive() {
        // Pre-profiler documents carry no "hotspots" key — they must parse
        // with an empty attribution table, not an error.
        let mut r = sample_report();
        let without = r
            .to_json()
            .split(",\"hotspots\"")
            .next()
            .unwrap()
            .to_string()
            + "}]}";
        let parsed = BenchReport::from_json(&without).unwrap();
        assert!(parsed.records[0].hotspots.is_empty());
        // BENCH_4/BENCH_5 hotspots weigh in sampler ticks, under their own
        // keys: still read.
        let ticks = r
            .to_json()
            .replace("\"self_ns\"", "\"self_samples\"")
            .replace("\"total_ns\"", "\"total_samples\"");
        assert_ne!(ticks, r.to_json());
        assert_eq!(BenchReport::from_json(&ticks).unwrap(), r);
        // A present-but-malformed hotspot entry is an error, not silence.
        let broken = r.to_json().replace("\"zone\"", "\"zome\"");
        assert!(BenchReport::from_json(&broken).is_err());
        // The comparator never gates on attribution: dropping every
        // hotspot between runs is not a regression.
        let base = r.clone();
        r.records[0].hotspots.clear();
        assert!(compare(&base, &r, &CompareConfig::default()).is_empty());
    }

    #[test]
    fn roofline_is_schema_additive_and_never_gated() {
        // Pre-roofline documents carry no "roofline_gbps" key — they must
        // parse as 0.0 ("unmeasured"), not error.
        let r = sample_report();
        let without = r.to_json().replace(",\"roofline_gbps\":11.5", "");
        assert_ne!(without, r.to_json(), "field must exist to be stripped");
        let parsed = BenchReport::from_json(&without).unwrap();
        assert_eq!(parsed.records[0].roofline_gbps, 0.0);
        // The comparator never gates on the roofline: it describes the
        // machine, so collapsing it between runs is not a regression.
        let mut cur = r.clone();
        cur.records[0].roofline_gbps = 0.0;
        assert!(compare(&r, &cur, &CompareConfig::default()).is_empty());
    }

    fn sample_manifest() -> String {
        let mut m = szx_telemetry::Manifest::new("compress");
        m.set_config(&[
            ("bound_mode", szx_telemetry::Value::Str("abs".into())),
            ("bound", szx_telemetry::Value::F64(1e-3)),
            ("kernel", szx_telemetry::Value::Str("simd".into())),
            ("mode", szx_telemetry::Value::Str("serial".into())),
            ("threads", szx_telemetry::Value::U64(1)),
        ]);
        m.set_dataset("suites/CLDHGH.f32", 100800, 0xab8e_4ce8_11d6_b0a2);
        m.set_quality(&[
            ("ratio", szx_telemetry::Value::F64(3.57)),
            ("psnr_db", szx_telemetry::Value::F64(79.1)),
            ("max_abs_err", szx_telemetry::Value::F64(4.9e-4)),
            ("compress_gbps", szx_telemetry::Value::F64(2.2)),
        ]);
        m.render()
    }

    #[test]
    fn manifest_maps_to_one_record_report() {
        let r = report_from_manifest(&sample_manifest()).unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.scale, "manifest");
        let rec = &r.records[0];
        assert_eq!(rec.suite, "CLDHGH.f32");
        // The CLI's resolved path name: the key of the grid's simd cells.
        assert_eq!(rec.kernel, "simd");
        assert_eq!(rec.mode, "serial");
        assert_eq!(rec.raw_bytes, 100800);
        assert!((rec.compress_gbps - 2.2).abs() < 1e-12);
        // No decompress measurement in a compress manifest — neutral 0.0
        // so a throughput floor of `0.95 * 0.0` can never fire.
        assert_eq!(rec.decompress_gbps, 0.0);
        assert!((rec.max_err_over_bound - 0.49).abs() < 1e-9);
    }

    #[test]
    fn manifests_compare_against_each_other() {
        let base = report_from_manifest(&sample_manifest()).unwrap();
        let mut cur = base.clone();
        assert!(compare(&base, &cur, &CompareConfig::default()).is_empty());
        cur.records[0].ratio *= 0.5;
        let findings = compare(&base, &cur, &CompareConfig::default());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "ratio");
    }

    #[test]
    fn load_any_distinguishes_reports_from_manifests() {
        assert_eq!(
            load_any(&sample_report().to_json()).unwrap(),
            sample_report()
        );
        assert_eq!(load_any(&sample_manifest()).unwrap().scale, "manifest");
        assert!(load_any("{}").is_err());
    }

    #[test]
    fn bench_file_names_parse() {
        assert_eq!(bench_id_of("BENCH_0.json"), Some(0));
        assert_eq!(bench_id_of("BENCH_17.json"), Some(17));
        assert_eq!(bench_id_of("BENCH_.json"), None);
        assert_eq!(bench_id_of("bench_1.json"), None);
        assert_eq!(bench_id_of("BENCH_1.json.bak"), None);
    }
}
