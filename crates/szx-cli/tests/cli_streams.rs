//! CLI stream-hygiene regression tests: stdout must stay byte-clean for
//! pipelines. The live `--progress` line, `--stats` tables, and the
//! profiler's status notes all belong on stderr; stdout carries exactly
//! the one summary line (or the one JSON line under `--stats --json`).

use std::path::Path;
use std::process::Command;

fn szx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_szx"))
}

/// A small raw f32 field with enough structure to cross several frames.
fn write_field(path: &Path, n: usize) {
    let mut bytes = Vec::with_capacity(n * 4);
    for i in 0..n {
        let v = (i as f32 * 0.01).sin() * 100.0;
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn stream_progress_keeps_stdout_byte_clean() {
    let dir = std::env::temp_dir().join(format!("szx-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.f32");
    let output = dir.join("out.szxc");
    write_field(&input, 64 * 1024);

    let out = szx()
        .args([
            "stream",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--abs",
            "1e-3",
            "--frame",
            "4096",
            "--progress",
        ])
        .output()
        .expect("run szx stream");
    assert!(out.status.success(), "stderr: {:?}", out.stderr);

    // stdout is exactly the one summary line: no carriage returns, no
    // partial progress frames, valid UTF-8, one trailing newline.
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        !stdout.contains('\r'),
        "progress line leaked into stdout: {stdout:?}"
    );
    assert!(
        !stdout.contains("GB/s"),
        "progress rendering leaked into stdout: {stdout:?}"
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one summary line: {stdout:?}");
    assert!(
        lines[0].contains("frames") && lines[0].contains("CR"),
        "summary line shape: {stdout:?}"
    );

    // The progress narration itself went to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("GB/s"),
        "expected live progress on stderr: {stderr:?}"
    );
    assert!(
        !stderr.contains("inf") && !stderr.contains("NaN"),
        "progress math must stay finite: {stderr:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_flags_write_folded_and_svg_off_stdout() {
    let dir = std::env::temp_dir().join(format!("szx-cli-prof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.f32");
    write_field(&input, 256 * 1024);
    let output = dir.join("out.szx");
    let folded = dir.join("p.folded");
    let svg = dir.join("p.svg");

    let out = szx()
        .args([
            "compress",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--abs",
            "1e-3",
            "--profile",
            folded.to_str().unwrap(),
            "--profile-svg",
            svg.to_str().unwrap(),
        ])
        .output()
        .expect("run szx compress --profile");
    assert!(out.status.success(), "stderr: {:?}", out.stderr);

    // Profiler narration stays on stderr; stdout is the summary only.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 1, "{stdout:?}");
    assert!(!stdout.contains("profile:"), "{stdout:?}");

    // Both artifacts exist; the folded file round-trips through the
    // collapsed-stack parser and the SVG ends with </svg>.
    let folded_text = std::fs::read_to_string(&folded).unwrap();
    let profile = szx_telemetry::Profile::from_folded(&folded_text).unwrap();
    assert_eq!(profile.folded(), folded_text);
    // The stacks are the spans' exact time, so a one-field compress shows
    // its encode stage and the hot-loop zone inside it, however short.
    let encode_zone = match szx_core::KernelPath::detect() {
        szx_core::KernelPath::Simd => "compress.simd.encode",
        _ => "compress.encode.kernel",
    };
    let table = profile.self_total();
    assert!(table["compress.encode_blocks"].1 > 0, "{folded_text}");
    assert!(table[encode_zone].0 > 0, "{folded_text}");
    let svg_text = std::fs::read_to_string(&svg).unwrap();
    assert!(svg_text.starts_with("<svg "));
    assert!(svg_text.trim_end().ends_with("</svg>"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_svg_without_profile_is_an_error() {
    let out = szx()
        .args([
            "compress",
            "a",
            "b",
            "--abs",
            "1e-3",
            "--profile-svg",
            "x.svg",
        ])
        .output()
        .expect("run szx");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--profile-svg requires"), "{stderr:?}");
}

#[test]
fn manifest_threads_follow_rayon_num_threads() {
    let dir = std::env::temp_dir().join(format!("szx-cli-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.f32");
    let output = dir.join("out.szx");
    let manifest = dir.join("run.json");
    write_field(&input, 64 * 1024);

    // 3 differs from the core count of most hosts that run this, so a
    // count taken from the cores instead of the worker pool shows up.
    for workers in ["1", "3"] {
        let out = szx()
            .env("RAYON_NUM_THREADS", workers)
            .args([
                "compress",
                input.to_str().unwrap(),
                output.to_str().unwrap(),
                "--abs",
                "1e-3",
                "--parallel",
                "--manifest",
                manifest.to_str().unwrap(),
            ])
            .output()
            .expect("run szx compress");
        assert!(out.status.success(), "stderr: {:?}", out.stderr);
        let text = std::fs::read_to_string(&manifest).unwrap();
        let doc = szx_telemetry::json::Json::parse(&text).expect("manifest is JSON");
        let config = doc.get("config").expect("manifest config");
        assert_eq!(
            config.get("mode").and_then(|m| m.as_str()),
            Some("parallel")
        );
        assert_eq!(
            config.get("threads").and_then(|t| t.as_f64()),
            Some(workers.parse::<f64>().unwrap()),
            "RAYON_NUM_THREADS={workers}: {text}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `szx args`, assert success, and return stdout.
fn run_ok(args: &[&str]) -> String {
    let out = szx().args(args).output().expect("run szx");
    assert!(
        out.status.success(),
        "szx {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn stream_output_lists_and_extracts_like_an_archive() {
    let dir = std::env::temp_dir().join(format!("szx-cli-container-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    // 10,000 values in 4096-value frames: two full frames and a partial one.
    let n = 10_000;
    write_field(&dir.join("in.f32"), n);

    let input = p("in.f32");
    let stream = |out: &str| {
        let args = ["--abs", "1e-3", "--frame", "4096", "--stats", "--json"];
        run_ok(&[&["stream", input.as_str(), out][..], &args].concat())
    };
    let stats = stream(&p("a.szxc"));
    let doc = szx_telemetry::json::Json::parse(stats.lines().last().unwrap()).expect("JSON line");
    let derived = doc.get("derived").expect("derived section");
    assert_eq!(derived.get("frames").and_then(|v| v.as_f64()), Some(3.0));
    assert_eq!(
        derived.get("raw_bytes").and_then(|v| v.as_f64()),
        Some((n * 4) as f64)
    );
    stream(&p("b.szxc"));
    assert_eq!(
        std::fs::read(p("a.szxc")).unwrap(),
        std::fs::read(p("b.szxc")).unwrap(),
        "two stream runs write byte-identical containers"
    );

    // `list` prints a header and one row per frame, named 0, 1, 2.
    let listing = run_ok(&["list", &p("a.szxc")]);
    let rows: Vec<&str> = listing.lines().skip(1).collect();
    assert_eq!(rows.len(), 3, "{listing}");
    for (k, row) in rows.iter().enumerate() {
        assert_eq!(row.split_whitespace().next(), Some(k.to_string().as_str()));
    }
    // `list` and `info` take their path like every command: a flag before
    // it is not read as the path, and an unknown one is an error.
    assert_eq!(run_ok(&["list", "--parallel", &p("a.szxc")]), listing);
    let info = run_ok(&["info", "--parallel", &p("a.szxc")]);
    assert!(info.starts_with("frames:           3\n"), "{info}");
    let out = szx().args(["info", "--x", &p("a.szxc")]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--x"));

    // `extract <file> 0` reproduces frame 0 within the bound.
    run_ok(&["extract", &p("a.szxc"), "0", &p("frame0.f32")]);
    let original = std::fs::read(p("in.f32")).unwrap();
    let frame0 = std::fs::read(p("frame0.f32")).unwrap();
    assert_eq!(frame0.len(), 4096 * 4);
    for (a, b) in original.chunks_exact(4).zip(frame0.chunks_exact(4)) {
        let a = f32::from_le_bytes(a.try_into().unwrap());
        let b = f32::from_le_bytes(b.try_into().unwrap());
        assert!((a - b).abs() <= 1e-3, "{a} vs {b}");
    }

    // `decompress` is the inverse of `stream`: every frame, in order. Its
    // stats name the path and the instruction set the blocks decoded on,
    // as the library resolves them on this CPU.
    let stats = run_ok(&[
        "decompress",
        &p("a.szxc"),
        &p("all.f32"),
        "--stats",
        "--json",
    ]);
    let doc = szx_telemetry::json::Json::parse(stats.trim_end()).expect("one JSON line");
    let derived = doc.get("derived").expect("derived section");
    let field = |key: &str| {
        derived
            .get(key)
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };
    let path = szx_core::KernelPath::detect();
    let isa = path.isa::<f32>(szx_core::CommitStrategy::ByteAligned);
    assert_eq!(field("decode_path").as_deref(), Some(path.name()));
    assert_eq!(field("isa").as_deref(), Some(isa.name()));
    let mut frames = Vec::new();
    for k in 0..3 {
        let out = p(&format!("frame{k}.f32"));
        run_ok(&["extract", &p("a.szxc"), &k.to_string(), &out]);
        frames.extend(std::fs::read(out).unwrap());
    }
    assert_eq!(frames.len(), n * 4);
    assert!(std::fs::read(p("all.f32")).unwrap() == frames);

    // An empty input is a zero-frame container from either verb, and
    // decompresses to an empty file.
    std::fs::write(p("empty.f32"), b"").unwrap();
    run_ok(&["compress", &p("empty.f32"), &p("e1.szx"), "--rel", "1e-3"]);
    run_ok(&["stream", &p("empty.f32"), &p("e2.szx"), "--rel", "1e-3"]);
    assert_eq!(
        std::fs::read(p("e1.szx")).unwrap(),
        std::fs::read(p("e2.szx")).unwrap()
    );
    run_ok(&["decompress", &p("e1.szx"), &p("e.f32")]);
    assert!(std::fs::read(p("e.f32")).unwrap().is_empty());

    // A bare SZx stream is a frame payload, not a file `szx` reads.
    let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
    let bare = szx_core::compress(&data, &szx_core::SzxConfig::absolute(1e-3)).unwrap();
    std::fs::write(p("bare.szx"), bare).unwrap();
    for args in [
        &["decompress", &p("bare.szx"), &p("bare.f32")][..],
        &["info", &p("bare.szx")],
        &["assess", &p("in.f32"), &p("bare.szx")],
    ] {
        let out = szx().args(args).output().expect("run szx");
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bare SZx stream, not an SZXC container"),
            "{args:?}: {stderr}"
        );
    }
    assert!(!dir.join("bare.f32").exists());

    // `archive` writes the same format, one frame per field file.
    std::fs::copy(p("in.f32"), p("wave.f32")).unwrap();
    run_ok(&[
        "archive",
        &p("fields.szxc"),
        &p("in.f32"),
        &p("wave.f32"),
        "--abs",
        "1e-3",
    ]);
    let listing = run_ok(&["list", &p("fields.szxc")]);
    let names: Vec<&str> = listing
        .lines()
        .skip(1)
        .filter_map(|row| row.split_whitespace().next())
        .collect();
    assert_eq!(names, ["in", "wave"], "{listing}");

    // A missing field file fails the run and leaves the earlier archive
    // at that path untouched, with no partial file beside it.
    let before = std::fs::read(p("fields.szxc")).unwrap();
    let out = szx()
        .args([
            "archive",
            &p("fields.szxc"),
            &p("in.f32"),
            &p("missing.f32"),
        ])
        .output()
        .expect("run szx archive");
    assert!(!out.status.success(), "missing input must fail");
    assert_eq!(std::fs::read(p("fields.szxc")).unwrap(), before);
    assert!(!dir.join("fields.szxc.partial").exists());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compress_is_a_one_frame_stream() {
    let dir = std::env::temp_dir().join(format!("szx-cli-oneframe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let n = 50_000;
    write_field(&dir.join("in.f32"), n);
    // The same values as doubles.
    let doubles: Vec<u8> = std::fs::read(p("in.f32"))
        .unwrap()
        .chunks_exact(4)
        .flat_map(|b| f64::from(f32::from_le_bytes(b.try_into().unwrap())).to_le_bytes())
        .collect();
    std::fs::write(p("in.f64"), doubles).unwrap();
    for (input, dtype) in [("in.f32", None), ("in.f64", Some("--f64"))] {
        for bound in [["--abs", "1e-3"], ["--rel", "1e-4"]] {
            let mut outputs = Vec::new();
            for parallel in [None, Some("--parallel")] {
                let flags: Vec<&str> = bound.iter().copied().chain(dtype).chain(parallel).collect();
                let (c, s) = (p("c.szx"), p("s.szx"));
                run_ok(&[&["compress", &p(input), &c][..], &flags].concat());
                let frame = ["--frame", "50000"];
                run_ok(&[&["stream", &p(input), &s][..], &flags, &frame].concat());
                let compressed = std::fs::read(&c).unwrap();
                assert!(
                    compressed == std::fs::read(&s).unwrap(),
                    "{input} {flags:?}: compress and a one-frame stream differ"
                );
                outputs.push(compressed);
            }
            assert!(
                outputs[0] == outputs[1],
                "{input} {bound:?}: serial and parallel differ"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_flipped_byte_of_a_compressed_file_fails_decompress() {
    let dir = std::env::temp_dir().join(format!("szx-cli-flip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    write_field(&dir.join("in.f32"), 512);
    run_ok(&["compress", &p("in.f32"), &p("x.szx"), "--abs", "1e-1"]);
    let clean = std::fs::read(p("x.szx")).unwrap();
    assert!(clean.len() <= 1024, "{} bytes", clean.len());
    run_ok(&["decompress", &p("x.szx"), &p("x.f32")]);
    let earlier = std::fs::read(p("x.f32")).unwrap();
    for at in 0..clean.len() {
        let mut bad = clean.clone();
        bad[at] ^= 0x01;
        std::fs::write(p("bad.szx"), &bad).unwrap();
        let out = szx()
            .args(["decompress", &p("bad.szx"), &p("x.f32")])
            .output()
            .expect("run szx decompress");
        assert!(!out.status.success(), "flip at byte {at} went undetected");
        assert!(std::fs::read(p("x.f32")).unwrap() == earlier, "byte {at}");
        assert!(!dir.join("x.f32.partial").exists(), "byte {at}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn archive_takes_the_compress_flags() {
    let dir = std::env::temp_dir().join(format!("szx-cli-archive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    write_field(&dir.join("a.f32"), 50_000);
    // 100 000 doubles: 800 000 bytes, which as f32 would be 200 000 values.
    let doubles: Vec<u8> = (0..100_000)
        .flat_map(|i| ((i as f64 * 0.01).sin() * 100.0).to_le_bytes())
        .collect();
    std::fs::write(p("d.f64"), doubles).unwrap();
    let frame = |file: &str| {
        let bytes = std::fs::read(p(file)).unwrap();
        let r = szx_core::ContainerReader::new(&bytes).unwrap();
        r.frame_bytes(0).unwrap().to_vec()
    };
    for (input, flags) in [
        (
            "a.f32",
            &["--abs", "1e-3", "--block", "64", "--strategy", "a"][..],
        ),
        ("a.f32", &["--rel", "1e-3", "--strategy", "b", "--parallel"]),
        ("d.f64", &["--abs", "1e-3", "--f64"]),
    ] {
        // Each field is the frame `compress` writes with the same flags.
        run_ok(&[&["archive", &p("ar.szx"), &p(input)][..], flags].concat());
        run_ok(&[&["compress", &p(input), &p("c.szx")][..], flags].concat());
        assert!(frame("ar.szx") == frame("c.szx"), "{input} {flags:?}");
    }
    let info = run_ok(&["info", &p("ar.szx")]);
    assert!(info.contains("element type:     f64"), "{info}");
    assert!(info.contains("elements:         100000"), "{info}");
    run_ok(&[
        "archive",
        &p("ar.szx"),
        &p("a.f32"),
        "--abs",
        "1e-3",
        "--block",
        "64",
        "--strategy",
        "a",
    ]);
    let info = run_ok(&["info", &p("ar.szx")]);
    assert!(info.contains("block size:       64"), "{info}");
    assert!(info.contains("strategy:         BitPack"), "{info}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `szx args`, read its first stdout line and close the pipe, as `|
/// head -1` does: the rest of the report must end quietly, with exit 0 and
/// no panic.
fn first_line_then_closed(args: &[&str]) {
    use std::io::BufRead;
    let mut child = szx()
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run szx");
    let mut first = String::new();
    let stdout = child.stdout.take().unwrap();
    std::io::BufReader::new(stdout)
        .read_line(&mut first)
        .unwrap();
    assert!(!first.is_empty(), "szx {args:?} printed nothing");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "szx {args:?}: {stderr}");
    assert!(out.status.success(), "szx {args:?}: {stderr}");
}

#[test]
fn reports_end_quietly_on_a_closed_stdout() {
    let dir = std::env::temp_dir().join(format!("szx-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    write_field(&dir.join("in.f32"), 2000);
    // One frame per value: `list` prints more than a pipe buffer holds, so
    // its writes meet the closed pipe whatever the timing.
    run_ok(&[
        "stream",
        &p("in.f32"),
        &p("s.szxc"),
        "--abs",
        "1e-3",
        "--frame",
        "1",
    ]);
    first_line_then_closed(&["list", &p("s.szxc")]);
    first_line_then_closed(&["info", &p("s.szxc"), "--stats"]);
    first_line_then_closed(&["assess", &p("in.f32"), &p("s.szxc")]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `szx args` with its stdout already closed, as `| head -0` leaves
/// it: the command must still do all its work, with exit 0 and no panic.
fn into_closed_stdout(args: &[&str]) {
    let mut child = szx()
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run szx");
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "szx {args:?}: {stderr}");
    assert!(out.status.success(), "szx {args:?}: {stderr}");
}

#[test]
fn writers_finish_their_work_on_a_closed_stdout() {
    let dir = std::env::temp_dir().join(format!("szx-cli-closed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    // `gen` prints one line per field: all twelve are written after the
    // reader has gone.
    first_line_then_closed(&["gen", "scale", &p("gen"), "--scale", "tiny"]);
    let fields = std::fs::read_dir(dir.join("gen")).unwrap().count();
    assert_eq!(fields, 12, "gen wrote {fields} of 12 fields");
    into_closed_stdout(&["gen", "scale", &p("again"), "--scale", "tiny"]);
    assert_eq!(std::fs::read_dir(dir.join("again")).unwrap().count(), 12);
    // The summary line, then the one `--stats --json` line.
    let (input, szx_file, out) = (p("gen/T.f32"), p("t.szx"), p("t.f32"));
    for stats in [&[][..], &["--stats", "--json"]] {
        let compress = [
            "compress",
            input.as_str(),
            szx_file.as_str(),
            "--rel",
            "1e-3",
        ];
        into_closed_stdout(&[&compress[..], stats].concat());
        assert!(dir.join("t.szx").exists());
        let decompress = ["decompress", szx_file.as_str(), out.as_str()];
        into_closed_stdout(&[&decompress[..], stats].concat());
        assert_eq!(
            std::fs::metadata(&out).unwrap().len(),
            std::fs::metadata(&input).unwrap().len()
        );
        std::fs::remove_file(&szx_file).unwrap();
        std::fs::remove_file(&out).unwrap();
    }
    let archive = [
        "archive",
        &p("a.szx"),
        &input,
        &p("gen/U.f32"),
        "--abs",
        "1e-3",
    ];
    into_closed_stdout(&archive);
    assert!(dir.join("a.szx").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
