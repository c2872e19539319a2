//! Runtime dispatch behavior of the explicit SIMD path.
//!
//! The `SZX_DISABLE_SIMD` environment override must force
//! `szx_core::simd::available()` to report "unsupported", making `Auto`
//! and explicit `Simd` requests silently resolve to the portable kernel —
//! with byte-identical streams and bit-identical decodes, so flipping the
//! override can never change results, only instruction selection.
//!
//! Environment variables are process-global, so every env-touching
//! assertion lives in ONE test function (this file is its own test binary;
//! other binaries never see the variable).

use szx_core::{Decoder, KernelPath, KernelSelect, SzxConfig};

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
    let cfg = SzxConfig::absolute(1e-4).with_kernel(KernelSelect::Simd);
    let baseline = szx_core::compress(&data, &cfg).unwrap();
    let baseline_back: Vec<f32> = Decoder::new(KernelSelect::Simd, false)
        .decode(&baseline)
        .unwrap();

    std::env::set_var("SZX_DISABLE_SIMD", "1");
    assert!(
        !szx_core::simd::available(),
        "override must report the SIMD path unavailable"
    );
    assert_eq!(KernelSelect::Auto.resolve(), KernelPath::Kernel);
    assert_eq!(
        KernelSelect::Simd.resolve(),
        KernelPath::Kernel,
        "an explicit Simd request degrades silently, it does not error"
    );
    // Scalar/Kernel requests are untouched by the override.
    assert_eq!(KernelSelect::Scalar.resolve(), KernelPath::Scalar);
    assert_eq!(KernelSelect::Kernel.resolve(), KernelPath::Kernel);

    let disabled = szx_core::compress(&data, &cfg).unwrap();
    let disabled_back: Vec<f32> = Decoder::new(KernelSelect::Simd, false)
        .decode(&disabled)
        .unwrap();
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
    // On hosts with the ISA extension, Auto resolution order is
    // simd → kernel; elsewhere it lands on the portable kernel. Either
    // way it must agree with available().
    let resolved = KernelSelect::Auto.resolve();
    if szx_core::simd::available() {
        assert_eq!(resolved, KernelPath::Simd);
    } else {
        assert_eq!(resolved, KernelPath::Kernel);
    }
}

#[test]
fn all_selections_roundtrip_within_bound() {
    let data = field();
    for sel in [
        KernelSelect::Auto,
        KernelSelect::Scalar,
        KernelSelect::Kernel,
        KernelSelect::Simd,
    ] {
        let cfg = SzxConfig::absolute(1e-3).with_kernel(sel);
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        let back: Vec<f32> = Decoder::new(sel, false).decode(&bytes).unwrap();
        for (x, y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= 1e-3, "{sel:?}");
        }
    }
}
