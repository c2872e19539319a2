//! Pathological inputs the paper's fast path must survive: non-finite
//! values, denormals, degenerate block shapes, and radii that underflow or
//! overflow the exponent arithmetic behind Formula (4). Every case must
//! either roundtrip within the bound or return a clean `SzxError` — never
//! panic — and the scalar and kernel paths must agree byte-for-byte.

use szx_core::config::KernelPath;
use szx_core::{SzxConfig, SzxError};

const SELECTS: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Kernel];

/// Compress under both hot-loop implementations, assert identical streams,
/// and return one of them.
fn compress_both(data: &[f32], cfg: &SzxConfig) -> Vec<u8> {
    let a = szx_core::compress(data, &cfg.with_kernel(KernelPath::Scalar)).unwrap();
    let b = szx_core::compress(data, &cfg.with_kernel(KernelPath::Kernel)).unwrap();
    assert_eq!(a, b, "scalar and kernel streams differ");
    b
}

fn assert_bounded(data: &[f32], back: &[f32], eb: f64) {
    assert_eq!(data.len(), back.len());
    for (i, (&x, &y)) in data.iter().zip(back).enumerate() {
        if x.is_nan() {
            assert!(y.is_nan(), "index {i}: NaN lost");
        } else if x.is_infinite() {
            assert_eq!(x, y, "index {i}: infinity lost");
        } else {
            assert!(
                (x as f64 - y as f64).abs() <= eb,
                "index {i}: |{x} - {y}| > {eb}"
            );
        }
    }
}

#[test]
fn nan_inf_and_denormal_blocks() {
    let mut data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.05).sin()).collect();
    // One block of each poison, plus denormals straddling a block seam.
    for v in &mut data[0..128] {
        *v = f32::NAN;
    }
    data[130] = f32::INFINITY;
    data[131] = f32::NEG_INFINITY;
    data[140] = f32::NAN;
    for (k, v) in data[250..270].iter_mut().enumerate() {
        *v = f32::from_bits(1 + k as u32); // smallest subnormals
    }
    for eb in [1e-2, 1e-6, 0.0] {
        let cfg = SzxConfig::absolute(eb).with_block_size(128);
        let bytes = compress_both(&data, &cfg);
        let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        assert_bounded(&data, &back, eb);
        // Blocks containing non-finite values degrade to bit-exact storage.
        for i in (0..128).chain(128..256) {
            assert_eq!(data[i].to_bits(), back[i].to_bits(), "index {i} (eb={eb})");
        }
    }
}

#[test]
fn all_nan_input() {
    let data = vec![f32::NAN; 300];
    let cfg = SzxConfig::absolute(1e-3);
    let bytes = compress_both(&data, &cfg);
    let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
    assert!(back.iter().all(|v| v.is_nan()));
}

#[test]
fn all_constant_and_single_element() {
    for (data, eb) in [
        (vec![7.25f32; 10_000], 1e-3),
        (vec![7.25f32; 10_000], 0.0),
        (vec![-0.0f32, 0.0, -0.0, 0.0], 0.0),
        (vec![3.5f32], 1e-3),
        (vec![f32::MIN_POSITIVE], 0.0),
    ] {
        let cfg = SzxConfig::absolute(eb);
        let bytes = compress_both(&data, &cfg);
        let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        assert_bounded(&data, &back, eb);
    }
}

#[test]
fn denormal_only_blocks_with_tiny_bounds() {
    // Radii down in the subnormal range must not corrupt the exponent
    // arithmetic of Formula (4); with a bound even smaller, blocks fall
    // back to (bit-exact) full-length storage.
    let data: Vec<f32> = (0..256).map(|i| f32::from_bits(i as u32 * 3 + 1)).collect();
    for eb in [1e-30, 1e-42, f64::MIN_POSITIVE, 0.0] {
        let cfg = SzxConfig::absolute(eb);
        let bytes = compress_both(&data, &cfg);
        let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        assert_bounded(&data, &back, eb);
    }
}

#[test]
fn huge_dynamic_range_defeats_normalization_cleanly() {
    // radius = (MAX - MIN)/2 overflows f32 to +inf; the block must degrade
    // to bit-exact storage instead of emitting garbage.
    let mut data = vec![0.0f32; 128];
    data[0] = f32::MAX;
    data[1] = f32::MIN;
    data[2] = 1.0e-20;
    let cfg = SzxConfig::absolute(1e-3);
    let bytes = compress_both(&data, &cfg);
    let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
    for (i, (&x, &y)) in data.iter().zip(&back).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "index {i}");
    }
}

#[test]
fn mixed_sign_zero_blocks() {
    // All-zero blocks with mixed signs: μ selection must stay deterministic
    // (kernel == scalar asserted by compress_both) and the bound holds.
    let data: Vec<f32> = (0..1000)
        .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
        .collect();
    for eb in [1e-3, 0.0] {
        let cfg = SzxConfig::absolute(eb);
        let bytes = compress_both(&data, &cfg);
        let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        assert_bounded(&data, &back, eb);
    }
}

#[test]
fn empty_input_and_invalid_config_are_errors() {
    for sel in SELECTS {
        let cfg = SzxConfig::absolute(1e-3).with_kernel(sel);
        assert!(matches!(
            szx_core::compress::<f32>(&[], &cfg),
            Err(SzxError::EmptyInput)
        ));
        assert!(szx_core::compress(&[1.0f32], &cfg.with_block_size(0)).is_err());
        assert!(szx_core::compress(&[1.0f32], &SzxConfig::absolute(f64::NAN)).is_err());
        assert!(szx_core::compress(&[1.0f32], &SzxConfig::absolute(-1.0)).is_err());
    }
}

#[test]
fn f64_edge_values() {
    let mut data: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
    data[0] = f64::NAN;
    data[1] = f64::INFINITY;
    data[200] = f64::MIN_POSITIVE; // subnormal boundary
    data[201] = 5e-324; // smallest subnormal
    for eb in [1e-6, 0.0] {
        for sel in SELECTS {
            let cfg = SzxConfig::absolute(eb)
                .with_kernel(sel)
                .with_block_size(128);
            let bytes = szx_core::compress(&data, &cfg).unwrap();
            let back: Vec<f64> = szx_core::decompress(&bytes).unwrap();
            for (i, (&x, &y)) in data.iter().zip(&back).enumerate() {
                if x.is_nan() {
                    assert!(y.is_nan(), "index {i}");
                } else if x.is_infinite() {
                    assert_eq!(x, y, "index {i}");
                } else {
                    assert!((x - y).abs() <= eb, "index {i}: |{x} - {y}| > {eb}");
                }
            }
        }
    }
}
