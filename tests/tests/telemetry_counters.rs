//! Telemetry counters must agree *exactly* with what the compressed stream
//! records. `compress` derives the §5.3 impact factors once per call from
//! the assembled chunks, so this test re-derives every one of them from
//! two independent sources:
//!
//! * `szx_core::analysis::classify` on the raw data: constant /
//!   non-constant / fallback block counts and the `R_k` histogram;
//! * a walk of the written stream's `StreamIndex` blocks: state bits,
//!   byte 0 of each payload (`R_k`), the zsizes and each block's real
//!   length give `compress.bytes.mid`, `compress.bytes.lead_saved` and the
//!   `compress.block_zsize` histogram.
//!
//! Every strategy × kernel × serial/parallel × f32/f64 combination runs on
//! a field with NaN-carrying blocks (bit-exact fallback) and a short,
//! non-constant last block.
//!
//! The whole check lives in ONE test function: the telemetry registry is a
//! process-wide singleton, and the libtest harness runs `#[test]` functions
//! on multiple threads, so two tests snapshotting/resetting the registry
//! would race each other.

use szx_core::config::KernelPath;
use szx_core::{analysis, CommitStrategy, StreamIndex, SzxConfig, SzxFloat};
use szx_data::{Application, Scale};
use szx_telemetry::{Histogram, HistogramKind};

/// Not a divisor of the field length, so the last block is short.
const BLOCK: usize = 100;

fn field() -> Vec<f32> {
    // A mixed field: smooth regions (constant blocks), turbulent regions
    // (a spread of required lengths). Concatenating every tiny Miranda
    // field yields hundreds of blocks, enough to span several parallel
    // chunks.
    let ds = Application::Miranda.generate(Scale::Tiny, 0x7E1E);
    let mut data: Vec<f32> = ds
        .fields
        .iter()
        .flat_map(|f| f.data.iter().copied())
        .collect();
    let range = szx_core::config::value_range(&data) as f32;
    let lo = data.iter().copied().fold(f32::INFINITY, f32::min);
    // One NaN every 29 blocks: those blocks are stored bit-exactly.
    for i in (17..data.len()).step_by(29 * BLOCK) {
        data[i] = f32::NAN;
    }
    // A noisy tail spanning the whole value range, so the short last block
    // is non-constant at every bound below.
    data.extend((0..37).map(|i| lo + range * (0.5 + 0.5 * (i as f32 * 2.3).sin())));
    data
}

/// Compress `data` with `cfg` after a registry reset, then assert the
/// published counters and histograms equal those derived from
/// `analysis::classify` and from the stream itself.
fn check_counters<F: SzxFloat>(label: &str, data: &[F], cfg: &SzxConfig) {
    let expect = analysis::classify(data, cfg).unwrap();
    let tel = szx_telemetry::global();
    tel.reset();
    let bytes = szx_core::compress(data, cfg).unwrap();
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
    let expect_fallback = expect.req_len_histogram[F::FULL_BITS as usize];
    assert_eq!(fallback, expect_fallback, "{label}: fallback blocks");
    assert!(fallback > 0, "{label}: NaN blocks must fall back");

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

    // Walk the stream: every non-constant payload starts with its R_k, then
    // ⌈2·blen/8⌉ bytes of leading codes; the rest is the body (mid-bytes).
    // Lead-byte savings are the body a codec without XOR deduplication
    // would write at the same R_k, minus the body actually written.
    let index = StreamIndex::parse::<F>(&bytes).unwrap();
    let nblocks = index.num_blocks();
    assert!(
        index.blocks::<F>(nblocks - 1).next().unwrap().1.is_some(),
        "{label}: short last block must be non-constant"
    );
    let req_hist = Histogram::new(HistogramKind::Linear { max: 64 });
    let zsize_hist = Histogram::new(HistogramKind::Log2);
    let (mut mid, mut lead_saved) = (0u64, 0u64);
    for (b, (_, payload)) in index.blocks::<F>(0).enumerate() {
        let Some(payload) = payload else { continue };
        let zsize = payload.len();
        let r = bytes[payload.start] as usize;
        let blen = BLOCK.min(data.len() - b * BLOCK);
        let body = zsize - 1 - (2 * blen).div_ceil(8);
        let no_dedup = match cfg.strategy {
            CommitStrategy::ByteAligned => r.div_ceil(8) * blen,
            CommitStrategy::BitPack => (r * blen).div_ceil(8),
            CommitStrategy::BytePlusResidual => (r / 8) * blen + ((r % 8) * blen).div_ceil(8),
        };
        mid += body as u64;
        lead_saved += (no_dedup - body) as u64;
        req_hist.record(r as u64);
        zsize_hist.record(zsize as u64);
    }
    assert_eq!(
        report.counter("compress.bytes.mid"),
        Some(mid),
        "{label}: mid bytes"
    );
    assert_eq!(
        report.counter("compress.bytes.lead_saved"),
        Some(lead_saved),
        "{label}: lead-byte savings"
    );
    assert_eq!(hist, &req_hist.snapshot(), "{label}: req_len vs stream");
    assert_eq!(
        report.hist("compress.block_zsize"),
        Some(&zsize_hist.snapshot()),
        "{label}: zsize histogram"
    );

    // Stream-size bookkeeping is consistent with what was actually written.
    assert_eq!(
        report.counter("compress.bytes.raw"),
        Some((data.len() * F::BYTES) as u64),
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
        "compress.assemble",
    ] {
        let s = report
            .span(span)
            .unwrap_or_else(|| panic!("{label}: span {span} missing"));
        assert_eq!(s.count, 1, "{label}: span {span} count");
    }
}

/// Every strategy × kernel × serial/parallel at three bounds.
fn check_matrix<F: SzxFloat>(data: &[F]) {
    for rel in [1e-2, 1e-3, 1e-4] {
        let base = SzxConfig::relative(rel).with_block_size(BLOCK);
        let expect = analysis::classify(data, &base).unwrap();
        assert!(
            expect.n_constant > 0,
            "field should have constant blocks at rel={rel}"
        );
        assert!(
            expect.n_constant < expect.n_blocks,
            "field should have non-constant blocks at rel={rel}"
        );
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            for kernel in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
                for parallel in [false, true] {
                    let cfg = base
                        .with_strategy(strategy)
                        .with_kernel(kernel)
                        .with_parallel(parallel);
                    let label = format!("{} rel={rel} {cfg:?}", F::NAME);
                    check_counters(&label, data, &cfg);
                }
            }
        }
    }
}

#[test]
fn telemetry_counters_match_classify_serial_and_parallel() {
    szx_telemetry::set_enabled(true);
    let data = field();
    assert!(data.len() > BLOCK * 64, "need a multi-chunk field");
    assert!(!data.len().is_multiple_of(BLOCK), "need a short last block");

    check_matrix(&data);
    let data64: Vec<f64> = data.iter().map(|&x| x as f64).collect();
    check_matrix(&data64);

    // Decode counters mirror the stream's own header/state array.
    let cfg = SzxConfig::relative(1e-3).with_block_size(BLOCK);
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
    let back2: Vec<f32> = szx_core::Decoder::new(KernelPath::detect(), true)
        .decode(&bytes)
        .unwrap();
    // Bitwise: the field carries NaNs, which `==` would reject.
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back2), bits(&back));
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
