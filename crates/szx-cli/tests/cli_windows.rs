//! The windowed `compress`/`decompress` path end to end: multi-window
//! inputs give the library's stream (as the container's one frame) and
//! decode, `--manifest` quality and digest do not depend on the
//! windowing, memory stays bounded by the window rather than the file,
//! and a failure leaves no output behind.

use std::path::{Path, PathBuf};
use std::process::Command;

use szx_core::container::crc32c;
use szx_core::{ContainerReader, Decoder, KernelPath, SzxConfig, SzxFloat};
use szx_telemetry::json::Json;

/// Raw bytes of one window of the windowed commands (`WINDOW_BYTES` in
/// the CLI).
const WINDOW_BYTES: usize = 512 << 10;

fn szx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_szx"))
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("szx-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` values of a wave with plateaus (constant blocks) and fine ripple
/// (non-constant ones).
fn wave(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if (i / 20_000) % 4 == 0 {
                ((i / 20_000) % 9) as f32
            } else {
                let x = i as f32 * 1e-3;
                x.sin() * 100.0 + (x * 37.0).cos() * 0.5
            }
        })
        .collect()
}

/// `n` values that are mostly plateaus, like many fields of a snapshot:
/// the compressed stream a compress run holds stays small beside the
/// raw file.
fn mostly_flat(n: usize) -> Vec<f32> {
    wave(n)
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            if (i / 20_000) % 4 == 1 {
                v
            } else {
                ((i / 20_000) % 9) as f32
            }
        })
        .collect()
}

fn write_f32(path: &Path, data: &[f32]) {
    std::fs::write(path, le_bytes(data)).unwrap();
}

/// `data` as raw little-endian bytes, for either float type.
fn le_bytes<F: SzxFloat>(data: &[F]) -> Vec<u8> {
    data.iter()
        .flat_map(|v| (v.to_word() >> (64 - 8 * F::BYTES)).to_le_bytes()[..F::BYTES].to_vec())
        .collect()
}

fn run_ok(args: &[&str]) {
    let out = szx().args(args).output().expect("run szx");
    assert!(
        out.status.success(),
        "szx {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn manifest(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).expect("manifest is JSON")
}

fn number(doc: &Json, section: &str, key: &str) -> f64 {
    doc.get(section)
        .and_then(|s| s.get(key))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("manifest {section}.{key}"))
}

fn peak_rss(doc: &Json) -> f64 {
    number(
        doc.get("metrics").expect("metrics section"),
        "gauges",
        "process.peak_rss_bytes",
    )
}

#[test]
fn multi_window_runs_match_the_library_in_bounded_memory() {
    let dir = scratch("windows");
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    // 32 MB: 61 full windows and a ragged 62nd.
    let data = mostly_flat(8_000_000);
    let raw = (data.len() * 4) as f64;
    write_f32(&dir.join("in.f32"), &data);

    run_ok(&[
        "compress",
        &p("in.f32"),
        &p("out.szx"),
        "--rel",
        "1e-3",
        "--parallel",
        "--manifest",
        &p("c.json"),
    ]);
    let cfg = SzxConfig::relative(1e-3);
    let expected = szx_core::compress(&data, &cfg).unwrap();
    let container = std::fs::read(p("out.szx")).unwrap();
    let r = ContainerReader::new(&container).unwrap();
    assert_eq!(r.len(), 1, "compress writes one frame");
    assert!(
        r.frame_bytes(0).unwrap() == expected,
        "windowed stream differs from compress"
    );

    // Quality and digest are those of the whole file in one piece.
    let c = manifest(&dir.join("c.json"));
    let decoded: Vec<f32> = Decoder::new(KernelPath::Scalar, false)
        .decode(&expected)
        .unwrap();
    let q = szx_metrics::distortion(&data, &decoded);
    assert_eq!(number(&c, "quality", "psnr_db").to_bits(), q.psnr.to_bits());
    assert_eq!(
        number(&c, "quality", "max_abs_err").to_bits(),
        q.max_abs_error.to_bits()
    );
    assert_eq!(number(&c, "quality", "nrmse").to_bits(), q.nrmse.to_bits());
    let digest = format!(
        "{:016x}",
        szx_telemetry::fnv1a64(&std::fs::read(p("in.f32")).unwrap())
    );
    assert_eq!(
        c.get("dataset")
            .and_then(|d| d.get("digest_fnv1a64"))
            .and_then(|v| v.as_str()),
        Some(digest.as_str())
    );
    // A window and the compressed stream, not the raw file (twice).
    assert!(
        peak_rss(&c) < raw / 2.0,
        "compress peak RSS {}",
        peak_rss(&c)
    );

    run_ok(&[
        "decompress",
        &p("out.szx"),
        &p("out.f32"),
        "--parallel",
        "--manifest",
        &p("d.json"),
    ]);
    let expected: Vec<u8> = decoded.iter().flat_map(|v| v.to_le_bytes()).collect();
    assert!(std::fs::read(p("out.f32")).unwrap() == expected);
    let d = manifest(&dir.join("d.json"));
    assert!(
        peak_rss(&d) < raw / 2.0,
        "decompress peak RSS {}",
        peak_rss(&d)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_quality_and_digest_keep_their_values() {
    let dir = scratch("quality");
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    // Twenty windows, the last ragged.
    write_f32(&dir.join("in.f32"), &wave(2_500_000));
    run_ok(&[
        "compress",
        &p("in.f32"),
        &p("out.szx"),
        "--abs",
        "1e-2",
        "--manifest",
        &p("c.json"),
    ]);
    // The figures the single-buffer compress this path replaced reported
    // for this input.
    let c = manifest(&dir.join("c.json"));
    for (key, value) in [
        ("ratio", RATIO),
        ("psnr_db", PSNR_DB),
        ("max_abs_err", MAX_ABS_ERR),
        ("nrmse", NRMSE),
    ] {
        assert_eq!(number(&c, "quality", key), value, "quality.{key}");
    }
    assert_eq!(
        c.get("dataset")
            .and_then(|d| d.get("digest_fnv1a64"))
            .and_then(|v| v.as_str()),
        Some(DIGEST)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

const RATIO: f64 = 3.432474642593578;
const PSNR_DB: f64 = 103.95755693574743;
const MAX_ABS_ERR: f64 = 0.00390625;
const NRMSE: f64 = 6.340480237040182e-6;
const DIGEST: &str = "d398b0c409601ee0";

#[test]
fn corrupt_last_window_leaves_no_output() {
    let dir = scratch("corrupt");
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    // Twelve windows, the last ragged.
    let data = wave(1_500_000);
    let window = WINDOW_BYTES / 4;
    let last_window = (data.len() - 1) / window * window;
    write_f32(&dir.join("in.f32"), &data);
    run_ok(&["compress", &p("in.f32"), &p("x.szx"), "--abs", "1e-3"]);
    let clean = std::fs::read(p("x.szx")).unwrap();

    // Forge an impossible required length into the last non-constant
    // block's payload, which the last window decodes, and re-seal the
    // checksums so decode, not the CRC check, finds it.
    let mut last = clean.clone();
    let block = forge_block(&mut last, last_window, 0xff);
    assert!(
        block * 128 >= last_window,
        "corrupt block sits in the last window"
    );
    // Forged blocks in windows 1 and 3: whichever thread finishes first,
    // every run reports window 1's.
    let mut two = clean.clone();
    assert_eq!(forge_block(&mut two, window, 0xfe) * 128 / window, 1);
    assert_eq!(forge_block(&mut two, 3 * window, 0xff) * 128 / window, 3);

    // An earlier output at the path survives, and nothing sits beside it.
    std::fs::write(p("x.f32"), b"earlier").unwrap();
    for (container, expected) in [(last, "required length 255"), (two, "required length 254")] {
        std::fs::write(p("x.szx"), &container).unwrap();
        let runs = [None, Some("1"), Some("2"), Some("3"), Some("4")];
        for threads in runs {
            let mut cmd = szx();
            cmd.args(["decompress", &p("x.szx"), &p("x.f32")]);
            if let Some(threads) = threads {
                cmd.arg("--parallel").env("RAYON_NUM_THREADS", threads);
            }
            let out = cmd.output().expect("run szx decompress");
            assert!(!out.status.success(), "corrupt stream must fail");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(expected), "{threads:?}: {stderr}");
            assert_eq!(std::fs::read(p("x.f32")).unwrap(), b"earlier");
            assert!(!dir.join("x.f32.partial").exists());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forge the impossible required length `r_k` into the payload of the
/// first non-constant block from value `from` on, in the one frame of
/// `container`, and re-seal its checksums. Returns the block.
fn forge_block(container: &mut [u8], from: usize, r_k: u8) -> usize {
    let stream_len = ContainerReader::new(container)
        .unwrap()
        .frame_bytes(0)
        .unwrap()
        .len();
    let stream = &mut container[FRAME_START..FRAME_START + stream_len];
    let index = szx_core::StreamIndex::parse::<f32>(stream).unwrap();
    let (block, at) = index
        .blocks::<f32>(from / 128)
        .zip(from / 128..)
        .find_map(|((_, payload), b)| Some((b, payload?.start)))
        .unwrap();
    stream[at] = r_k;
    reseal_one_frame(container, stream_len);
    block
}

/// `n` values of `F` shaped like [`wave`], a few of them zeros of both
/// signs.
fn wave_of<F: SzxFloat>(n: usize) -> Vec<F> {
    let mut data: Vec<F> = wave(n).into_iter().map(|v| F::from_f64(v.into())).collect();
    for (k, i) in (0..n).step_by(9_973).enumerate() {
        data[i] = F::from_f64(if k % 2 == 0 { -0.0 } else { 0.0 });
    }
    data
}

/// Inputs on either side of each window edge: exactly one window, one
/// window ± one value, and two windows plus one block. Frame 0 of
/// `compress` is the library's stream and `decompress` writes the
/// library's decode, serially and with `--parallel`.
fn window_edges_match_the_library<F: SzxFloat>(flags: &[&str]) {
    let dir = scratch(&format!("edges-{}", F::NAME));
    let [input, szx, out] =
        ["in.raw", "out.szx", "out.raw"].map(|name| dir.join(name).to_str().unwrap().to_string());
    let window = WINDOW_BYTES / F::BYTES;
    for n in [window, window - 1, window + 1, 2 * window + 128] {
        let data = wave_of::<F>(n);
        std::fs::write(&input, le_bytes(&data)).unwrap();
        let expected = szx_core::compress(&data, &SzxConfig::relative(1e-3)).unwrap();
        let decoded: Vec<F> = Decoder::new(KernelPath::Scalar, false)
            .decode(&expected)
            .unwrap();
        for parallel in [&[][..], &["--parallel"][..]] {
            let mut args = vec!["compress", &input, &szx, "--rel", "1e-3"];
            args.extend(flags.iter().chain(parallel));
            run_ok(&args);
            let container = std::fs::read(&szx).unwrap();
            let frame = ContainerReader::new(&container)
                .unwrap()
                .frame_bytes(0)
                .unwrap();
            assert!(frame == expected, "n = {n} {parallel:?}: stream differs");
            let mut args = vec!["decompress", &szx, &out];
            args.extend(parallel);
            run_ok(&args);
            assert!(
                std::fs::read(&out).unwrap() == le_bytes(&decoded),
                "n = {n} {parallel:?}: decode differs"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn window_edges_match_the_library_f32() {
    window_edges_match_the_library::<f32>(&[]);
}

#[test]
fn window_edges_match_the_library_f64() {
    window_edges_match_the_library::<f64>(&["--f64"]);
}

/// Where a container's first frame starts: after the magic and version.
const FRAME_START: usize = 5;

/// Recompute the frame CRC and the index CRC of a one-frame container
/// whose frame, `stream_len` bytes long, was edited in place.
fn reseal_one_frame(container: &mut [u8], stream_len: usize) {
    let frame_end = FRAME_START + stream_len;
    let crc = crc32c(&container[FRAME_START..frame_end]);
    // Index: count, then name length, the name "0", length and CRC.
    let index_len = 4 + 2 + 1 + 8 + 4;
    let crc_at = frame_end + index_len - 4;
    container[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    let index_crc = crc32c(&container[frame_end..frame_end + index_len]);
    let footer = frame_end + index_len;
    container[footer..footer + 4].copy_from_slice(&index_crc.to_le_bytes());
    assert!(ContainerReader::new(container).is_ok(), "resealed");
}
