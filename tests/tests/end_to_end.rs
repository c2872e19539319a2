//! End-to-end integration: every codec on every synthetic application,
//! verifying error bounds, compression-ratio ordering, and cross-path
//! (serial/parallel/GPU-model) agreement on realistic data.

use szx_baselines::{lzlike, szlike, zfplike};
use szx_core::{CommitStrategy, SzxConfig};
use szx_data::Application;
use szx_integration_tests::{max_err, tiny};

#[test]
fn szx_respects_bounds_on_every_app_and_field() {
    for app in Application::ALL {
        let ds = tiny(app);
        for f in &ds.fields {
            let eb = 1e-3 * f.value_range();
            let cfg = SzxConfig::absolute(eb);
            let bytes = szx_core::compress(&f.data, &cfg).unwrap();
            let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
            let err = max_err(&f.data, &back);
            assert!(err <= eb, "{}/{}: {err} > {eb}", ds.name, f.name);
        }
    }
}

#[test]
fn all_codecs_respect_bounds_on_miranda() {
    let ds = tiny(Application::Miranda);
    for f in &ds.fields {
        let eb = (1e-4 * f.value_range()).max(1e-30);
        let sz = szlike::compress(&f.data, f.dims, eb).unwrap();
        let (back, _) = szlike::decompress(&sz).unwrap();
        assert!(max_err(&f.data, &back) <= eb, "szlike {}", f.name);

        let zf = zfplike::compress(&f.data, f.dims, eb).unwrap();
        let (back, _) = zfplike::decompress(&zf).unwrap();
        assert!(max_err(&f.data, &back) <= eb, "zfplike {}", f.name);

        let lz = lzlike::compress_f32(&f.data).unwrap();
        let raw = lzlike::decompress(&lz).unwrap();
        let back: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(back, f.data, "lzlike must be lossless on {}", f.name);
    }
}

#[test]
fn table3_ordering_holds_overall() {
    // Aggregated over all Miranda fields: CR(SZ) > CR(ZFP) > CR(SZx) > CR(LZ).
    let ds = tiny(Application::Miranda);
    let (mut raw, mut szx_c, mut sz_c, mut zfp_c, mut lz_c) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for f in &ds.fields {
        let eb = 1e-3 * f.value_range();
        raw += f.raw_bytes();
        szx_c += szx_core::compress(&f.data, &SzxConfig::absolute(eb))
            .unwrap()
            .len();
        sz_c += szlike::compress(&f.data, f.dims, eb).unwrap().len();
        zfp_c += zfplike::compress(&f.data, f.dims, eb).unwrap().len();
        lz_c += lzlike::compress_f32(&f.data).unwrap().len();
    }
    let cr = |c: usize| raw as f64 / c as f64;
    assert!(cr(sz_c) > cr(zfp_c), "SZ {} vs ZFP {}", cr(sz_c), cr(zfp_c));
    assert!(
        cr(zfp_c) > cr(szx_c),
        "ZFP {} vs SZx {}",
        cr(zfp_c),
        cr(szx_c)
    );
    assert!(cr(szx_c) > cr(lz_c), "SZx {} vs LZ {}", cr(szx_c), cr(lz_c));
    assert!(
        cr(lz_c) > 1.0 && cr(lz_c) < 2.5,
        "lossless CR in the paper band: {}",
        cr(lz_c)
    );
}

#[test]
fn parallel_paths_agree_with_serial_on_real_data() {
    let ds = tiny(Application::ScaleLetkf);
    for f in ds.fields.iter().take(4) {
        let cfg = SzxConfig::relative(1e-3);
        let serial = szx_core::compress(&f.data, &cfg).unwrap();
        let par = szx_core::compress(&f.data, &cfg.with_parallel(true)).unwrap();
        assert_eq!(serial, par, "{}", f.name);
        let a: Vec<f32> = szx_core::decompress(&serial).unwrap();
        let b: Vec<f32> = szx_core::Decoder::new(szx_core::KernelPath::detect(), true)
            .decode(&serial)
            .unwrap();
        assert_eq!(a, b, "{}", f.name);
    }
}

#[test]
fn all_commit_strategies_agree_on_reconstruction_error_bound() {
    let ds = tiny(Application::Nyx);
    let f = ds.field("temperature").unwrap();
    let eb = 1e-3 * f.value_range();
    for strategy in [
        CommitStrategy::ByteAligned,
        CommitStrategy::BitPack,
        CommitStrategy::BytePlusResidual,
    ] {
        let cfg = SzxConfig::absolute(eb).with_strategy(strategy);
        let bytes = szx_core::compress(&f.data, &cfg).unwrap();
        let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        assert!(max_err(&f.data, &back) <= eb, "{strategy:?}");
    }
}

#[test]
fn solution_b_stream_is_never_larger_than_solution_c() {
    // Solutions A/B store the exact necessary bits; C trades a few percent
    // of space for speed (§5.2). Verify the direction of the trade.
    let ds = tiny(Application::Hurricane);
    let f = ds.field("TC").unwrap();
    let eb = 1e-4 * f.value_range();
    let c = szx_core::compress(&f.data, &SzxConfig::absolute(eb))
        .unwrap()
        .len();
    let b = szx_core::compress(
        &f.data,
        &SzxConfig::absolute(eb).with_strategy(CommitStrategy::BytePlusResidual),
    )
    .unwrap()
    .len();
    let a = szx_core::compress(
        &f.data,
        &SzxConfig::absolute(eb).with_strategy(CommitStrategy::BitPack),
    )
    .unwrap()
    .len();
    // Allow per-block byte padding slack for B.
    let slack = f.data.len() / 128 + 64;
    assert!(b <= c + slack, "B {b} should be <= C {c} (+slack)");
    assert!(a <= b + slack, "A {a} should be <= B {b} (+slack)");
}
