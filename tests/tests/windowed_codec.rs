//! The windowed codec path: an `Encoder` fed consecutive windows writes
//! the stream `compress` writes for the whole slice, byte for byte, and
//! `Decoder::decode_windows` reconstructs what `decode` does — values and
//! the error of a corrupt stream alike.

use szx_core::decode::{ParsedStream, DECODE_GROUP};
use szx_core::{
    compress, CommitStrategy, Decoder, Encoder, ErrorBound, KernelSelect, RangeScan, SzxConfig,
    SzxError, SzxFloat,
};

/// Small blocks, so windows of a few groups stay small.
const BS: usize = 32;
/// Not a multiple of 8 blocks: the last window of every split is ragged.
const N: usize = 8 * BS * 37 + 19;

const STRATEGIES: [CommitStrategy; 3] = [
    CommitStrategy::ByteAligned,
    CommitStrategy::BitPack,
    CommitStrategy::BytePlusResidual,
];
const KERNELS: [KernelSelect; 3] = [
    KernelSelect::Scalar,
    KernelSelect::Kernel,
    KernelSelect::Simd,
];

/// A wave with plateaus (constant blocks), noise (non-constant ones) and a
/// NaN (a bit-exact block).
fn field<F: SzxFloat>() -> Vec<F> {
    (0..N)
        .map(|i| {
            let x = i as f64 * 0.013;
            let v = if (i / 700) % 3 == 0 {
                1.25
            } else {
                x.sin() * 50.0 + (x * 17.3).cos() * 0.3
            };
            F::from_f64(if i == 4321 { f64::NAN } else { v })
        })
        .collect()
}

/// The stream of `data` fed to an `Encoder` in windows of `window`
/// elements, with a relative bound resolved by a windowed range pass.
fn encode_windows<F: SzxFloat>(data: &[F], cfg: &SzxConfig, window: usize) -> Vec<u8> {
    let mut scan = RangeScan::new(cfg);
    if let ErrorBound::Relative(_) = cfg.error_bound {
        for w in data.chunks(window) {
            scan.push(w);
        }
    }
    let mut encoder = Encoder::new(cfg, scan.bound()).unwrap();
    for w in data.chunks(window) {
        encoder.push(w).unwrap();
    }
    let len = encoder.stream_len();
    let bytes = encoder.finish(Vec::new()).unwrap();
    assert_eq!(bytes.len(), len, "stream_len predicts the stream");
    bytes
}

fn encoder_matches_compress<F: SzxFloat>() {
    let data = field::<F>();
    // One group of 8 blocks, odd multiples of it, and a window holding the
    // whole input.
    let windows = [8 * BS, 3 * 8 * BS, 5 * 8 * BS, N];
    for bound in [ErrorBound::Absolute(1e-2), ErrorBound::Relative(1e-3)] {
        for strategy in STRATEGIES {
            for kernel in KERNELS {
                for parallel in [false, true] {
                    let cfg = SzxConfig {
                        block_size: BS,
                        error_bound: bound,
                        strategy,
                        kernel,
                        parallel,
                    };
                    let reference = compress(&data, &cfg).unwrap();
                    for window in windows {
                        assert!(
                            encode_windows(&data, &cfg, window) == reference,
                            "{} {cfg:?} windows of {window}",
                            F::NAME
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn encoder_windows_equal_compress_f32() {
    encoder_matches_compress::<f32>();
}

#[test]
fn encoder_windows_equal_compress_f64() {
    encoder_matches_compress::<f64>();
}

#[test]
fn window_after_a_ragged_window_is_an_error() {
    let data = field::<f32>();
    let cfg = SzxConfig::absolute(1e-2).with_block_size(BS);
    let mut encoder = Encoder::new(&cfg, 1e-2).unwrap();
    encoder.push(&data[..8 * BS]).unwrap();
    encoder.push(&data[8 * BS..16 * BS + 1]).unwrap();
    assert!(matches!(
        encoder.push(&data[16 * BS + 1..24 * BS]),
        Err(SzxError::InvalidConfig(_))
    ));
    // Nothing pushed: nothing to write.
    let empty = Encoder::<f32>::new(&cfg, 1e-2).unwrap();
    assert_eq!(empty.finish(Vec::new()).unwrap_err(), SzxError::EmptyInput);
    assert!(Encoder::<f32>::new(&cfg, f64::NAN).is_err());
}

/// Decode `bytes` through a window of `window` elements, collecting every
/// window the sink receives.
fn decode_windows<F: SzxFloat>(
    decoder: &mut Decoder,
    bytes: &[u8],
    window: usize,
) -> (szx_core::Result<()>, Vec<F>) {
    let mut buf = vec![F::ZERO; window];
    let mut got = Vec::new();
    let r = decoder.decode_windows(bytes, &mut buf, |w| {
        got.extend_from_slice(w);
        Ok(())
    });
    (r, got)
}

fn windowed_decode_matches_decode<F: SzxFloat>() {
    let data = field::<F>();
    let group = DECODE_GROUP * BS;
    for strategy in STRATEGIES {
        let cfg = SzxConfig::relative(1e-3)
            .with_block_size(BS)
            .with_strategy(strategy);
        let bytes = compress(&data, &cfg).unwrap();
        let reference: Vec<F> = Decoder::new(KernelSelect::Scalar, false)
            .decode(&bytes)
            .unwrap();
        for kernel in KERNELS {
            for parallel in [false, true] {
                let mut decoder = Decoder::new(kernel, parallel);
                // One group, an odd number of groups plus spare room, and
                // more than the whole stream.
                for window in [group, 3 * group + 5, N + 1] {
                    let (r, got) = decode_windows::<F>(&mut decoder, &bytes, window);
                    r.unwrap();
                    assert!(
                        got.len() == reference.len()
                            && got
                                .iter()
                                .zip(&reference)
                                .all(|(a, b)| a.to_word() == b.to_word()),
                        "{} {strategy:?} {kernel:?} parallel={parallel} window {window}",
                        F::NAME
                    );
                }
                let (r, _) = decode_windows::<F>(&mut decoder, &bytes, group - 1);
                assert!(matches!(r, Err(SzxError::InvalidConfig(_))));
            }
        }
    }
}

#[test]
fn windowed_decode_equals_decode_f32() {
    windowed_decode_matches_decode::<f32>();
}

#[test]
fn windowed_decode_equals_decode_f64() {
    windowed_decode_matches_decode::<f64>();
}

#[test]
fn corrupt_stream_fails_with_the_same_error_in_any_window() {
    let data = field::<f32>();
    let cfg = SzxConfig::absolute(1e-2).with_block_size(BS);
    let mut bytes = compress(&data, &cfg).unwrap();
    // Forge an impossible required length into the last non-constant
    // block's payload.
    let (at, corrupt_block) = {
        let parsed = ParsedStream::parse::<f32>(&bytes).unwrap();
        let last = (0..parsed.num_blocks())
            .rev()
            .find(|&b| parsed.state(b))
            .unwrap();
        let (off, _) = parsed.payload_span(last);
        (bytes.len() - parsed.payloads.len() + off, last)
    };
    bytes[at] = 0xff;
    let group = DECODE_GROUP * BS;
    for kernel in KERNELS {
        for parallel in [false, true] {
            let mut decoder = Decoder::new(kernel, parallel);
            let expected = decoder.decode::<f32>(&bytes).unwrap_err().to_string();
            for window in [group, 2 * group, N] {
                let (r, got) = decode_windows::<f32>(&mut decoder, &bytes, window);
                assert_eq!(r.unwrap_err().to_string(), expected, "window {window}");
                // Every window before the corrupt block's reached the sink.
                let before = corrupt_block * BS / window * window;
                assert_eq!(got.len(), before.min(N), "window {window}");
            }
        }
    }
}
