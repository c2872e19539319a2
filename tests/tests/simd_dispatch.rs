//! Runtime dispatch behavior of the explicit SIMD path.
//!
//! The `SZX_DISABLE_SIMD` environment override must force
//! `szx_core::simd::available()` to report "unsupported", making
//! `KernelPath::detect()` (the default path) pick the portable kernel —
//! with byte-identical streams and bit-identical decodes, so flipping the
//! override can never change results, only instruction selection.
//!
//! Environment variables are process-global, so every env-touching
//! assertion lives in ONE test function (this file is its own test binary;
//! other binaries never see the variable).

use szx_core::{Decoder, KernelPath, SzxConfig};

fn field() -> Vec<f32> {
    (0..20_000)
        .map(|i| {
            let x = i as f32 * 0.004;
            x.sin() * 8.0 + (x * 41.7).cos() * 0.05
        })
        .collect()
}

#[test]
fn szx_disable_simd_forces_portable_fallback_with_identical_output() {
    let data = field();
    let cfg = SzxConfig::absolute(1e-4);
    let baseline = szx_core::compress(&data, &cfg).unwrap();
    let baseline_back: Vec<f32> = Decoder::default().decode(&baseline).unwrap();

    std::env::set_var("SZX_DISABLE_SIMD", "1");
    assert!(
        !szx_core::simd::available(),
        "override must report the SIMD path unavailable"
    );
    assert_eq!(KernelPath::detect(), KernelPath::Kernel);
    // A configuration made now defaults to the portable kernel.
    let cfg = SzxConfig::absolute(1e-4);
    assert_eq!(cfg.kernel, KernelPath::Kernel);

    let disabled = szx_core::compress(&data, &cfg).unwrap();
    let disabled_back: Vec<f32> = Decoder::default().decode(&disabled).unwrap();
    let disabled_par = szx_core::compress(&data, &cfg.with_parallel(true)).unwrap();

    // The empty string means "unset": resolution returns to hardware
    // detection.
    std::env::set_var("SZX_DISABLE_SIMD", "");
    let empty_available = szx_core::simd::available();
    std::env::remove_var("SZX_DISABLE_SIMD");
    assert_eq!(
        empty_available,
        szx_core::simd::available(),
        "SZX_DISABLE_SIMD=\"\" must behave exactly like unset"
    );

    assert_eq!(
        baseline, disabled,
        "disabling SIMD must not change the compressed stream"
    );
    assert_eq!(baseline, disabled_par);
    assert_eq!(baseline_back.len(), disabled_back.len());
    for (a, b) in baseline_back.iter().zip(&disabled_back) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn auto_prefers_simd_when_the_cpu_supports_it() {
    // On hosts with the ISA extension, detection picks simd over kernel;
    // elsewhere it lands on the portable kernel. Either way it must agree
    // with available(), and it is the path every default uses.
    let detected = KernelPath::detect();
    if szx_core::simd::available() {
        assert_eq!(detected, KernelPath::Simd);
    } else {
        assert_eq!(detected, KernelPath::Kernel);
    }
    assert_eq!(KernelPath::default(), detected);
    assert_eq!(SzxConfig::relative(1e-3).kernel, detected);
}

#[test]
fn all_selections_roundtrip_within_bound() {
    let data = field();
    for path in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
        let cfg = SzxConfig::absolute(1e-3).with_kernel(path);
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        let back: Vec<f32> = Decoder::new(path, false).decode(&bytes).unwrap();
        for (x, y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= 1e-3, "{path:?}");
        }
    }
}
