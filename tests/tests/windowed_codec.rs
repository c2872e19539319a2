//! The windowed codec path: an `Encoder` fed consecutive pushes writes
//! the stream `compress` writes for the whole slice, byte for byte, and
//! `Decoder::decode_windows` reconstructs what `decode` does — values and
//! the error of a corrupt stream alike — whichever thread decodes which
//! window, and `Decoder::decode_range` the matching slice of it. Every stream and decode of the matrix (scalar, kernel and simd
//! paths, serial and parallel) equals the serial scalar one.

use std::sync::Mutex;

use szx_core::{
    compress, window_len, CommitStrategy, Decoder, Encoder, ErrorBound, KernelPath, RangeScan,
    StreamIndex, SzxConfig, SzxError, SzxFloat,
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
const KERNELS: [KernelPath; 3] = [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd];

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

/// Block-128 waves over several windows (2.5 of `f32`, 5 of `f64`),
/// nearly all non-constant at an absolute bound of 1e-3.
fn waves<F: SzxFloat>() -> Vec<F> {
    (0..5 * window_len::<f32>(128) / 2)
        .map(|i| {
            let x = i as f64 * 1e-3;
            F::from_f64(x.sin() * 20.0 + (x * 13.7).cos() * 0.5)
        })
        .collect()
}

/// SCALE-LetKF T-like: at a relative bound of 1e-3 nearly every block is
/// non-constant with two mid-bytes per value (the decode kernels' lead
/// clamp), and 100 003 values end in a ragged quad of a 35-value block.
fn scale_like<F: SzxFloat>() -> Vec<F> {
    (0..100_003)
        .map(|i| {
            let x = i as f64;
            let t = 257.5 + 40.0 * (x * 1e-4).sin();
            F::from_f64(t + 0.5 * (x * 0.37).sin() + 0.3 * (x * 1.913).cos())
        })
        .collect()
}

/// Runs of zeros of both signs between positive waves, and NaNs, over
/// several windows: the zero minimum a relative bound's range scan meets
/// lands in different accumulators of the SIMD min/max.
fn mixed_zeros<F: SzxFloat>() -> Vec<F> {
    (0..300_000usize)
        .map(|i| {
            let v = if i % 10_007 == 5 {
                f64::NAN
            } else if (i / 5_000) % 3 == 0 {
                if i * 7 % 3 == 0 {
                    -0.0
                } else {
                    0.0
                }
            } else {
                (50.0 * (i as f64 * 1e-3).sin() + 0.3 * (i as f64 * 0.037).cos()).abs()
            };
            F::from_f64(v)
        })
        .collect()
}

/// One input of the matrix: its values, block size, and the bounds and
/// strategies it is coded with.
struct Input<F> {
    what: &'static str,
    data: Vec<F>,
    block_size: usize,
    bounds: &'static [ErrorBound],
    strategies: &'static [CommitStrategy],
}

fn inputs<F: SzxFloat>() -> Vec<Input<F>> {
    const BYTE_ALIGNED: &[CommitStrategy] = &[CommitStrategy::ByteAligned];
    const REL: &[ErrorBound] = &[ErrorBound::Relative(1e-3)];
    vec![
        Input {
            what: "field",
            data: field(),
            block_size: BS,
            bounds: &[ErrorBound::Absolute(1e-2), ErrorBound::Relative(1e-3)],
            strategies: &STRATEGIES,
        },
        Input {
            what: "waves",
            data: waves(),
            block_size: 128,
            bounds: &[ErrorBound::Absolute(1e-3)],
            strategies: BYTE_ALIGNED,
        },
        Input {
            what: "scale-like",
            data: scale_like(),
            block_size: 128,
            bounds: REL,
            strategies: BYTE_ALIGNED,
        },
        Input {
            what: "mixed-zeros",
            data: mixed_zeros(),
            block_size: 128,
            bounds: REL,
            strategies: BYTE_ALIGNED,
        },
    ]
}

#[test]
fn scale_like_blocks_take_two_mid_bytes() {
    let data = scale_like::<f32>();
    let bytes = compress(&data, &SzxConfig::relative(1e-3)).unwrap();
    let index = StreamIndex::parse::<f32>(&bytes).unwrap();
    let payloads: Vec<_> = index.blocks::<f32>(0).filter_map(|(_, p)| p).collect();
    assert!(payloads.len() * 10 > index.num_blocks() * 9);
    for payload in payloads {
        let r_k = bytes[payload.start];
        assert!((9..=16).contains(&r_k), "payload {payload:?}: R_k {r_k}");
    }
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
    for input in inputs::<F>() {
        let (data, bs) = (&input.data, input.block_size);
        // An odd multiple of 8 blocks shorter than a window, one window
        // plus 8 blocks, and one push of the whole input.
        let pushes = [97 * 8 * bs, window_len::<F>(bs) + 8 * bs, data.len()];
        for &bound in input.bounds {
            for &strategy in input.strategies {
                let base = SzxConfig {
                    block_size: bs,
                    error_bound: bound,
                    strategy,
                    kernel: KernelPath::Scalar,
                    parallel: false,
                };
                let reference = compress(data, &base).unwrap();
                for kernel in KERNELS {
                    for parallel in [false, true] {
                        let cfg = base.with_kernel(kernel).with_parallel(parallel);
                        let what = format!("{} {} {cfg:?}", F::NAME, input.what);
                        assert!(compress(data, &cfg).unwrap() == reference, "{what}");
                        for push in pushes {
                            assert!(
                                encode_windows(data, &cfg, push) == reference,
                                "{what} pushes of {push}"
                            );
                        }
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
    for input in inputs::<F>() {
        let (data, bs) = (&input.data, input.block_size);
        let window = window_len::<F>(bs);
        for &strategy in input.strategies {
            let cfg = SzxConfig::relative(1e-3)
                .with_block_size(bs)
                .with_strategy(strategy);
            let bytes = compress(data, &cfg).unwrap();
            let reference: Vec<F> = Decoder::new(KernelPath::Scalar, false)
                .decode(&bytes)
                .unwrap();
            let same = |values: &[F]| {
                values.len() == reference.len()
                    && (values.iter().zip(&reference)).all(|(a, b)| a.to_word() == b.to_word())
            };
            let index = StreamIndex::parse::<F>(&bytes).unwrap();
            let n = data.len();
            let last_block = (n - 1) / bs * bs;
            // Empty, whole, across a block edge, across a window edge, and
            // into the last block (short in `field` and `scale-like`).
            let ranges = [
                0..0,
                0..n,
                bs - 3..bs + 5,
                (window - 7).min(n)..(window + 9).min(n),
                last_block - 3..n,
            ];
            for kernel in KERNELS {
                for parallel in [false, true] {
                    let what = format!(
                        "{} {} {strategy:?} {kernel:?} parallel={parallel}",
                        F::NAME,
                        input.what
                    );
                    let mut decoder = Decoder::new(kernel, parallel);
                    assert!(same(&decoder.decode::<F>(&bytes).unwrap()), "{what}");
                    let (r, mut got) = decode_windows::<F>(&mut decoder, &bytes);
                    r.unwrap();
                    if !parallel {
                        assert!(got.is_sorted_by_key(|&(at, _)| at), "{what}: serial order");
                    }
                    got.sort_unstable_by_key(|&(at, _)| at);
                    // Whole windows at their offsets, the last one ragged.
                    let starts: Vec<usize> = got.iter().map(|&(at, _)| at).collect();
                    let expected: Vec<usize> = (0..data.len()).step_by(window).collect();
                    assert_eq!(starts, expected, "{what}");
                    let values: Vec<F> = got.into_iter().flat_map(|(_, w)| w).collect();
                    assert!(same(&values), "{what}");
                    for range in ranges.clone() {
                        let part: Vec<F> = decoder
                            .decode_range(&index, &bytes[..], range.clone())
                            .unwrap();
                        let want = &reference[range.clone()];
                        assert!(
                            part.len() == want.len()
                                && (part.iter().zip(want)).all(|(a, b)| a.to_word() == b.to_word()),
                            "{what}: range {range:?}"
                        );
                    }
                }
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
    let index = StreamIndex::parse::<f32>(bytes).unwrap();
    let (block, at) = index
        .blocks::<f32>(from / BS)
        .zip(from / BS..)
        .find_map(|((_, payload), b)| Some((b, payload?.start)))
        .unwrap();
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
