//! The windowed codec path: an `Encoder` fed consecutive pushes writes
//! the stream `compress` writes for the whole slice, byte for byte, and
//! `Decoder::decode_windows` reconstructs what `decode` does — values and
//! the error of a corrupt stream alike — whichever thread decodes which
//! window.

use std::sync::Mutex;

use szx_core::decode::ParsedStream;
use szx_core::{
    compress, window_len, CommitStrategy, Decoder, Encoder, ErrorBound, KernelSelect, RangeScan,
    SzxConfig, SzxError, SzxFloat,
};

const BS: usize = 32;
/// Two `f32` windows (four `f64` ones) and a ragged tail: not a multiple
/// of 8 blocks, so the last window of every split is ragged.
const N: usize = 2 * (512 << 10) / 4 + 8 * BS * 3 + 19;

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

/// The stream of `data` fed to an `Encoder` in pushes of `push`
/// elements, with a relative bound resolved by a range pass over the same
/// pushes.
fn encode_windows<F: SzxFloat>(data: &[F], cfg: &SzxConfig, push: usize) -> Vec<u8> {
    let mut scan = RangeScan::new(cfg);
    if let ErrorBound::Relative(_) = cfg.error_bound {
        for w in data.chunks(push) {
            scan.push(w).unwrap();
        }
    }
    let mut encoder = Encoder::new(cfg, scan.bound()).unwrap();
    for w in data.chunks(push) {
        encoder.push(w).unwrap();
    }
    let len = encoder.stream_len();
    let bytes = encoder.finish(Vec::new()).unwrap();
    assert_eq!(bytes.len(), len, "stream_len predicts the stream");
    bytes
}

fn encoder_matches_compress<F: SzxFloat>() {
    let data = field::<F>();
    // An odd multiple of 8 blocks shorter than a window, one window plus
    // 8 blocks, and one push of the whole input (several windows).
    let window = window_len::<F>(BS);
    let windows = [97 * 8 * BS, window + 8 * BS, N];
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
                            "{} {cfg:?} pushes of {window}",
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

/// Decode `bytes` window by window: what the sink received, each window
/// with its first value's index, in the order it arrived.
fn decode_windows<F: SzxFloat>(
    decoder: &mut Decoder,
    bytes: &[u8],
) -> (szx_core::Result<()>, Vec<(usize, Vec<F>)>) {
    let got = Mutex::new(Vec::new());
    let r = decoder.decode_windows::<F, ()>(bytes, |(), at, w| {
        got.lock().unwrap().push((at, w.to_vec()));
        Ok(())
    });
    (r, got.into_inner().unwrap())
}

fn windowed_decode_matches_decode<F: SzxFloat>() {
    let data = field::<F>();
    let window = window_len::<F>(BS);
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
                let what = format!("{} {strategy:?} {kernel:?} parallel={parallel}", F::NAME);
                let mut decoder = Decoder::new(kernel, parallel);
                let (r, mut got) = decode_windows::<F>(&mut decoder, &bytes);
                r.unwrap();
                if !parallel {
                    assert!(got.is_sorted_by_key(|&(at, _)| at), "{what}: serial order");
                }
                got.sort_unstable_by_key(|&(at, _)| at);
                // Whole windows at their offsets, the last one ragged.
                let starts: Vec<usize> = got.iter().map(|&(at, _)| at).collect();
                assert_eq!(starts, (0..N).step_by(window).collect::<Vec<_>>(), "{what}");
                let values: Vec<F> = got.into_iter().flat_map(|(_, w)| w).collect();
                assert!(
                    values.len() == reference.len()
                        && values
                            .iter()
                            .zip(&reference)
                            .all(|(a, b)| a.to_word() == b.to_word()),
                    "{what}"
                );
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

/// `bytes` with the first non-constant block from value `from` on
/// forged to the impossible required length `r_k`; returns that block.
fn forge(bytes: &mut [u8], from: usize, r_k: u8) -> usize {
    let parsed = ParsedStream::parse::<f32>(bytes).unwrap();
    let block = (from / BS..parsed.num_blocks())
        .find(|&b| parsed.state(b))
        .unwrap();
    let at = bytes.len() - parsed.payloads.len() + parsed.payload_span(block).0;
    bytes[at] = r_k;
    block
}

#[test]
fn corrupt_stream_fails_with_the_same_error_in_any_window() {
    let data = field::<f32>();
    let window = window_len::<f32>(BS);
    let cfg = SzxConfig::absolute(1e-2).with_block_size(BS);
    let mut bytes = compress(&data, &cfg).unwrap();
    // Forged blocks in the second and the last window: every path reports
    // the second window's, however the threads finish.
    let corrupt_block = forge(&mut bytes, window, 0xfe);
    assert_eq!(corrupt_block * BS / window, 1);
    forge(&mut bytes, 2 * window, 0xff);
    for kernel in KERNELS {
        for parallel in [false, true] {
            let mut decoder = Decoder::new(kernel, parallel);
            let expected = decoder.decode::<f32>(&bytes).unwrap_err().to_string();
            assert!(expected.contains("required length 254"), "{expected}");
            let (r, got) = decode_windows::<f32>(&mut decoder, &bytes);
            assert_eq!(r.unwrap_err().to_string(), expected);
            if !parallel {
                // Every window before the corrupt block's reached the sink.
                assert_eq!(got.len(), 1, "{kernel:?}");
            }
        }
    }
}
