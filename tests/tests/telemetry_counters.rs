//! Telemetry counters must agree *exactly* with the ground-truth block
//! classification that `szx_core::analysis::classify` computes from the raw
//! data — for the serial encoder and for the parallel one (whose per-worker
//! collectors are merged at the assemble join point).
//!
//! The whole check lives in ONE test function: the telemetry registry is a
//! process-wide singleton, and the libtest harness runs `#[test]` functions
//! on multiple threads, so two tests snapshotting/resetting the registry
//! would race each other.

use szx_core::{analysis, SzxConfig};
use szx_data::{Application, Scale};

fn field() -> Vec<f32> {
    // A mixed field: smooth regions (constant blocks), turbulent regions
    // (a spread of required lengths). Concatenating every tiny Miranda
    // field yields hundreds of blocks, enough to span several parallel
    // chunks.
    let ds = Application::Miranda.generate(Scale::Tiny, 0x7E1E);
    ds.fields
        .iter()
        .flat_map(|f| f.data.iter().copied())
        .collect()
}

/// Compress with `compress_fn` after a registry reset, then assert the
/// published counters/histogram equal `expect` (from `analysis::classify`).
fn check_counters(
    label: &str,
    data: &[f32],
    cfg: &SzxConfig,
    expect: &analysis::BlockReport,
    compress_fn: impl Fn(&[f32], &SzxConfig) -> Vec<u8>,
) {
    let tel = szx_telemetry::global();
    tel.reset();
    let bytes = compress_fn(data, cfg);
    let report = tel.snapshot();

    let constant = report.counter("compress.blocks.constant").unwrap_or(0);
    let nonconstant = report.counter("compress.blocks.nonconstant").unwrap_or(0);
    let fallback = report.counter("compress.blocks.fallback").unwrap_or(0);
    assert_eq!(
        constant as usize, expect.n_constant,
        "{label}: constant blocks"
    );
    assert_eq!(
        (constant + nonconstant) as usize,
        expect.n_blocks,
        "{label}: total blocks"
    );
    // Fallback blocks (req_len == full width) are a subset of non-constant.
    let expect_fallback = *expect.req_len_histogram.last().unwrap();
    assert_eq!(fallback, expect_fallback, "{label}: fallback blocks");

    // The req_len histogram must match classify's bucket-for-bucket.
    let hist = report
        .hist("compress.req_len")
        .expect("req_len histogram published");
    assert_eq!(
        hist.count,
        expect.req_len_histogram.iter().sum::<u64>(),
        "{label}: histogram total"
    );
    let mut expect_buckets: Vec<(u64, u64)> = expect
        .req_len_histogram
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(r, &n)| (r as u64, n))
        .collect();
    expect_buckets.sort_unstable();
    assert_eq!(hist.buckets, expect_buckets, "{label}: histogram buckets");

    // Stream-size bookkeeping is consistent with what was actually written.
    assert_eq!(
        report.counter("compress.bytes.raw"),
        Some((data.len() * 4) as u64),
        "{label}: raw bytes"
    );
    assert_eq!(
        report.counter("compress.bytes.stream"),
        Some(bytes.len() as u64),
        "{label}: stream bytes"
    );
    // Per-stage spans fired around the pass.
    for span in [
        "compress.total",
        "compress.range_scan",
        "compress.encode_blocks",
    ] {
        let s = report
            .span(span)
            .unwrap_or_else(|| panic!("{label}: span {span} missing"));
        assert_eq!(s.count, 1, "{label}: span {span} count");
    }
}

#[test]
fn telemetry_counters_match_classify_serial_and_parallel() {
    szx_telemetry::set_enabled(true);
    let data = field();
    assert!(data.len() > 128 * 64, "need a multi-chunk field");

    for rel in [1e-2, 1e-3, 1e-4] {
        let cfg = SzxConfig::relative(rel);
        let expect = analysis::classify(&data, &cfg).unwrap();
        assert!(
            expect.n_constant > 0,
            "field should have constant blocks at rel={rel}"
        );
        assert!(
            expect.n_constant < expect.n_blocks,
            "field should have non-constant blocks at rel={rel}"
        );

        check_counters("serial", &data, &cfg, &expect, |d, c| {
            szx_core::compress(d, c).unwrap()
        });
        check_counters("parallel", &data, &cfg, &expect, |d, c| {
            szx_core::compress(d, &c.with_parallel(true)).unwrap()
        });
    }

    // Decode counters mirror the stream's own header/state array.
    let cfg = SzxConfig::relative(1e-3);
    let bytes = szx_core::compress(&data, &cfg).unwrap();
    let expect = analysis::classify(&data, &cfg).unwrap();
    let tel = szx_telemetry::global();
    tel.reset();
    let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
    assert_eq!(back.len(), data.len());
    let report = tel.snapshot();
    assert_eq!(
        report.counter("decompress.blocks.constant"),
        Some(expect.n_constant as u64),
        "decode constant blocks"
    );
    assert_eq!(
        report.counter("decompress.blocks.nonconstant"),
        Some((expect.n_blocks - expect.n_constant) as u64),
        "decode non-constant blocks"
    );
    assert_eq!(
        report.counter("decompress.bytes.out"),
        Some((data.len() * 4) as u64)
    );

    // And the parallel decoder publishes the same totals.
    tel.reset();
    let back2: Vec<f32> = szx_core::Decoder::new(szx_core::KernelSelect::Auto, true)
        .decode(&bytes)
        .unwrap();
    assert_eq!(back2, back);
    let report = tel.snapshot();
    assert_eq!(
        report.counter("decompress.blocks.constant"),
        Some(expect.n_constant as u64),
        "parallel decode constant blocks"
    );
    assert_eq!(
        report.counter("decompress.blocks.nonconstant"),
        Some((expect.n_blocks - expect.n_constant) as u64),
        "parallel decode non-constant blocks"
    );
}
