//! Seeded property suite for the compressor's two core contracts:
//!
//! 1. **Error bound**: every finite element of `decompress(compress(d))` is
//!    within the stream's recorded absolute bound of the input.
//! 2. **Path equivalence**: the scalar reference path, the branch-free
//!    kernel path, and the parallel encoder all produce byte-identical
//!    archives for the same input and config — and the scalar, kernel, and
//!    parallel *decoders* reconstruct bit-identical outputs from them.
//!
//! ~200 deterministic cases (no proptest shrinking needed — the case seed
//! is printed on failure) sweep f32/f64, block sizes {1, 17, 128, 4096},
//! ragged lengths, all three commit strategies, and abs/rel bounds from
//! 1e-1 down to 1e-7.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use szx_core::config::KernelPath;
use szx_core::{CommitStrategy, Decoder, ErrorBound, SzxConfig, SzxFloat};

// Under Miri the same properties run over a reduced sweep: a handful of
// seeds and small inputs keep the interpreted run tractable while still
// crossing the block-size/strategy/bound space. `cargo miri test` (with
// `MIRIFLAGS=-Zmiri-many-seeds` in CI) picks these up automatically.
const CASES_PER_TYPE: u64 = if cfg!(miri) { 4 } else { 100 };
const MAX_N: usize = if cfg!(miri) { 512 } else { 20_000 };

const BLOCK_SIZES: [usize; 4] = [1, 17, 128, 4096];
const STRATEGIES: [CommitStrategy; 3] = [
    CommitStrategy::ByteAligned,
    CommitStrategy::BitPack,
    CommitStrategy::BytePlusResidual,
];

/// Synthesize a dataset whose character is chosen by `shape`.
fn gen_data<F: SzxFloat>(rng: &mut SmallRng, n: usize, shape: u32) -> Vec<F> {
    (0..n)
        .map(|i| {
            let x = i as f64;
            let v = match shape % 6 {
                // Smooth wave + small noise: mostly non-constant blocks.
                0 => (x * 0.01).sin() * 5.0 + rng.gen::<f64>() * 0.01,
                // Uniform noise over a wide range.
                1 => (rng.gen::<f64>() - 0.5) * 2e3,
                // Mostly constant with occasional jumps.
                2 => {
                    if rng.gen_bool(0.02) {
                        rng.gen::<f64>() * 100.0
                    } else {
                        42.5
                    }
                }
                // Tiny magnitudes near the bound.
                3 => (rng.gen::<f64>() - 0.5) * 1e-5,
                // Mixed scales: exercises exponent-driven required lengths.
                4 => {
                    let e = rng.gen_range(-8i32..8) as f64;
                    (rng.gen::<f64>() - 0.5) * 10f64.powi(e as i32)
                }
                // Smooth low-variation field: mostly constant blocks.
                _ => 1000.0 + (x * 0.001).cos(),
            };
            F::from_f64(v)
        })
        .collect()
}

/// One property case: roundtrip within bound + all paths byte-identical.
fn check_case<F: SzxFloat>(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let bs = BLOCK_SIZES[rng.gen_range(0usize..4)];
    // Ragged length: never a multiple of the block size when bs > 1.
    let blocks = rng.gen_range(1usize..8);
    let tail = if bs > 1 { rng.gen_range(1..bs) } else { 1 };
    let n = (bs * blocks + tail).min(MAX_N);
    let shape = rng.gen::<u32>();
    let data = gen_data::<F>(&mut rng, n, shape);

    let exp = rng.gen_range(1i32..=7);
    let bound = 10f64.powi(-exp);
    let error_bound = if rng.gen_bool(0.5) {
        ErrorBound::Absolute(bound)
    } else {
        ErrorBound::Relative(bound)
    };
    let strategy = STRATEGIES[(seed % 3) as usize];
    let cfg = SzxConfig {
        error_bound,
        block_size: bs,
        strategy,
        kernel: KernelPath::Scalar,
        parallel: false,
    };
    let ctx = format!(
        "seed={seed} ty={} n={n} bs={bs} strategy={strategy:?} bound={error_bound:?}",
        std::any::type_name::<F>()
    );

    let scalar = szx_core::compress(&data, &cfg).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let kernel = szx_core::compress(&data, &cfg.with_kernel(KernelPath::Kernel)).unwrap();
    assert_eq!(scalar, kernel, "{ctx}: scalar vs kernel archives differ");
    let simd = szx_core::compress(&data, &cfg.with_kernel(KernelPath::Simd)).unwrap();
    assert_eq!(scalar, simd, "{ctx}: scalar vs simd archives differ");
    let par = szx_core::compress(
        &data,
        &cfg.with_kernel(KernelPath::Kernel).with_parallel(true),
    )
    .unwrap();
    assert_eq!(scalar, par, "{ctx}: serial vs parallel archives differ");

    // The bound the decoder must honour is the absolute one recorded in the
    // stream header (relative bounds are resolved against the value range
    // at compress time).
    let eb = szx_core::inspect(&scalar).unwrap().eb;
    let back: Vec<F> = Decoder::new(KernelPath::Scalar, false)
        .decode(&scalar)
        .unwrap();
    assert_eq!(back.len(), data.len(), "{ctx}: length mismatch");
    for (i, (x, y)) in data.iter().zip(&back).enumerate() {
        let (x, y) = (x.to_f64(), y.to_f64());
        assert!(
            (x - y).abs() <= eb,
            "{ctx}: element {i}: |{x} - {y}| > eb={eb}"
        );
    }

    // Decode-path equivalence: the kernel and simd decoders (and both
    // parallel decode paths) must reconstruct *bit-identical* outputs to
    // the scalar oracle — same NaN payloads included.
    let kback: Vec<F> = Decoder::new(KernelPath::Kernel, false)
        .decode(&scalar)
        .unwrap();
    let vback: Vec<F> = Decoder::new(KernelPath::Simd, false)
        .decode(&scalar)
        .unwrap();
    let pback: Vec<F> = Decoder::new(KernelPath::Kernel, true)
        .decode(&scalar)
        .unwrap();
    let psback: Vec<F> = Decoder::new(KernelPath::Scalar, true)
        .decode(&scalar)
        .unwrap();
    for (i, x) in back.iter().enumerate() {
        let b = x.to_word();
        assert_eq!(b, kback[i].to_word(), "{ctx}: kernel decode differs at {i}");
        assert_eq!(b, vback[i].to_word(), "{ctx}: simd decode differs at {i}");
        assert_eq!(
            b,
            pback[i].to_word(),
            "{ctx}: parallel kernel decode differs at {i}"
        );
        assert_eq!(
            b,
            psback[i].to_word(),
            "{ctx}: parallel scalar decode differs at {i}"
        );
    }
}

#[test]
fn roundtrip_error_bound_and_path_equivalence_f32() {
    for seed in 0..CASES_PER_TYPE {
        check_case::<f32>(seed);
    }
}

#[test]
fn roundtrip_error_bound_and_path_equivalence_f64() {
    for seed in 100..100 + CASES_PER_TYPE {
        check_case::<f64>(seed);
    }
}

/// Corpus-replay arm: the committed fuzz corpus (`tests/corpus/`) replays
/// through the *same* differential oracle the fuzzing engine uses, so this
/// property suite and `szx-fuzz` cannot drift apart on what "correct"
/// means. `round_*.spec` entries re-assert the error-bound property here
/// with this file's own check on top of the shared target; `decode_*.szx`
/// seeds must actually decode through all five paths (the fuzz target only
/// requires agreement, not success — seeds are known-good archives).
#[test]
fn corpus_replays_through_the_shared_oracle() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = szx_fuzz::corpus::load_dir(&dir).expect("tests/corpus readable");

    let mut specs = 0usize;
    let mut archives = 0usize;
    for (name, bytes) in &entries {
        if name.starts_with("round_") {
            szx_fuzz::run_target(szx_fuzz::FuzzTarget::RoundtripConfig, bytes)
                .unwrap_or_else(|f| panic!("{name}: shared roundtrip oracle: {f}"));
            // Independent re-check of the bound property, through this
            // suite's own loop rather than the oracle's.
            let spec = szx_fuzz::Spec::from_bytes(bytes);
            let data: Vec<f64> = spec.generate();
            if let Ok(stream) = szx_core::compress(&data, &spec.config()) {
                let eb = szx_core::inspect(&stream).unwrap().eb;
                let back: Vec<f64> = szx_core::decompress(&stream).unwrap();
                for (i, (x, y)) in data.iter().zip(&back).enumerate() {
                    if x.is_finite() {
                        assert!(
                            (x - y).abs() <= eb,
                            "{name}: element {i}: |{x} - {y}| > eb={eb}"
                        );
                    }
                }
            }
            specs += 1;
        } else if name.starts_with("decode_") && !name.starts_with("decode_zz_") {
            let report = if name.contains("_f64") {
                szx_fuzz::differential_decode_typed::<f64>(bytes)
            } else {
                szx_fuzz::differential_decode_typed::<f32>(bytes)
            }
            .unwrap_or_else(|f| panic!("{name}: shared decode oracle: {f}"));
            assert!(
                report.decoded_ok,
                "{name}: known-good seed failed to decode"
            );
            archives += 1;
        }
    }
    assert!(specs >= 8, "only {specs} round specs replayed");
    assert!(archives >= 8, "only {archives} decode seeds replayed");
}

#[test]
fn lossless_when_bound_is_zero() {
    const N: usize = if cfg!(miri) { 300 } else { 5_000 };
    let mut rng = SmallRng::seed_from_u64(99);
    let data: Vec<f32> = (0..N).map(|_| (rng.gen::<f32>() - 0.5) * 1e6).collect();
    for sel in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
        let cfg = SzxConfig::absolute(0.0).with_kernel(sel);
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        assert_eq!(data, back, "e=0 must be bit-exact ({sel:?})");
    }
}

#[test]
fn streaming_frames_match_serial_per_frame() {
    // The frame writer routes through the same compress(); KernelPath
    // must not change frame bytes either.
    const N: usize = if cfg!(miri) { 1_000 } else { 10_000 };
    let mut rng = SmallRng::seed_from_u64(7);
    let data: Vec<f32> = (0..N)
        .map(|i| (i as f32 * 0.01).sin() + rng.gen::<f32>() * 0.01)
        .collect();
    let mut streams = Vec::new();
    for sel in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
        let cfg = SzxConfig::absolute(1e-4).with_kernel(sel);
        let mut w = szx_core::ContainerWriter::new(Vec::new(), cfg).unwrap();
        let frame_len = if cfg!(miri) { 300 } else { 3_000 };
        for (k, chunk) in data.chunks(frame_len).enumerate() {
            w.push(&k.to_string(), chunk).unwrap();
        }
        streams.push(w.finish().unwrap());
    }
    assert_eq!(streams[0], streams[1], "streaming bytes differ by kernel");
}
