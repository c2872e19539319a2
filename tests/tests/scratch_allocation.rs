//! Regression test for the per-block allocation churn the `EncodeScratch`
//! and `DecodeScratch` arenas removed: the codec publishes how many times an
//! arena had to grow (`compress.scratch.grows`, `decompress.scratch.grows`),
//! and that number must stay O(1) per encode call / per pool thread — not
//! O(blocks) — and drop to zero when a `Decoder`, serial or parallel, is
//! reused. Solution C encodes straight into the payload and grows no arena
//! at all; only the Solution A/B bit pool remains.
//!
//! Single test function: the telemetry registry is process-global and this
//! file is its own test binary (see telemetry_counters.rs).

use szx_core::config::{CommitStrategy, KernelPath};
use szx_core::simd::Isa;
use szx_core::{Decoder, SzxConfig};

#[test]
fn scratch_arena_growth_is_bounded() {
    szx_telemetry::set_enabled(true);
    let tel = szx_telemetry::global();

    // ~4000 blocks of 128, noisy enough that every block is non-constant.
    let data: Vec<f32> = (0..512_000)
        .map(|i| (i as f32 * 0.37).sin() * 1e3 + (i as f32 * 7.91).cos())
        .collect();
    let nblocks = data.len().div_ceil(128);
    assert!(nblocks >= 4000);
    let threads = rayon::current_num_threads() as u64;
    let compress_grows = |cfg: &SzxConfig| {
        tel.reset();
        let bytes = szx_core::compress(&data, cfg).unwrap();
        assert!(!bytes.is_empty());
        let snap = tel.snapshot();
        let grows = snap.counter("compress.scratch.grows").unwrap_or(0);
        let arena = snap.gauge("compress.scratch.arena_bytes").unwrap_or(0.0);
        (bytes, grows, arena)
    };

    for sel in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
        let cfg = SzxConfig::absolute(1e-4).with_kernel(sel);

        // The Solution A/B bit pool: one per call serially, grown once to
        // the (uniform) block size; one per pool thread that claimed a
        // window in parallel. Every path keeps it.
        for strategy in [CommitStrategy::BitPack, CommitStrategy::BytePlusResidual] {
            let cfg = cfg.with_strategy(strategy);
            let (_, grows, arena) = compress_grows(&cfg);
            assert_eq!(grows, 1, "serial ({sel:?}, {strategy:?}): pool growths");
            // 128 values of at most 64 bits each.
            assert!(
                arena >= 128.0 * 8.0,
                "({sel:?}, {strategy:?}): arena_bytes {arena}"
            );
            let (_, grows, _) = compress_grows(&cfg.with_parallel(true));
            assert!(
                (1..=threads).contains(&grows),
                "parallel ({sel:?}, {strategy:?}): {grows} grows for {threads} threads"
            );
        }

        // Solution C writes straight into the payload: no arena, serial or
        // parallel, on any path.
        let (_, grows, arena) = compress_grows(&cfg);
        assert_eq!(grows, 0, "serial ({sel:?}): arena growths");
        assert_eq!(arena, 0.0, "serial ({sel:?}): arena_bytes");
        let (bytes, grows, _) = compress_grows(&cfg.with_parallel(true));
        assert_eq!(grows, 0, "parallel ({sel:?}): arena growths");

        // The decoders of every path but the scalar one use an arena, save
        // the AVX-512 `f32` decode, which reads its mid-bytes straight from
        // the payload.
        let uses_arena = match sel {
            KernelPath::Scalar => false,
            KernelPath::Simd => Isa::detect::<f32>() != Isa::Avx512,
            KernelPath::Kernel => true,
        };

        // Decode: a reused Decoder grows its arenas on the first call only
        // (the scalar loop needs none), so decoding the same stream again
        // grows nothing.
        let mut decoder = Decoder::new(sel, false);
        for call in 0..2 {
            tel.reset();
            let back: Vec<f32> = decoder.decode(&bytes).unwrap();
            assert_eq!(back.len(), data.len());
            let grows = tel
                .snapshot()
                .counter("decompress.scratch.grows")
                .unwrap_or(0);
            let expect = u64::from(call == 0 && uses_arena);
            assert_eq!(grows, expect, "decode call {call} ({sel:?}): arena growths");
        }

        // An `f64` stream runs on an arena on every path but the scalar
        // one (AVX2 or the portable kernel): grown on the first call only.
        let doubles: Vec<f64> = data.iter().map(|&v| f64::from(v)).collect();
        let doubles = szx_core::compress(&doubles, &cfg).unwrap();
        let mut decoder = Decoder::new(sel, false);
        for call in 0..2 {
            tel.reset();
            let back: Vec<f64> = decoder.decode(&doubles).unwrap();
            assert_eq!(back.len(), data.len());
            let grows = tel
                .snapshot()
                .counter("decompress.scratch.grows")
                .unwrap_or(0);
            let expect = u64::from(call == 0 && sel != KernelPath::Scalar);
            assert_eq!(
                grows, expect,
                "f64 decode call {call} ({sel:?}): arena growths"
            );
        }

        // Parallel decode: one arena per pool thread, grown on the first
        // call and reused by every group, window and later call — never
        // one per group (this stream has ~125 groups).
        let mut decoder = Decoder::new(sel, true);
        for call in 0..2 {
            tel.reset();
            let back: Vec<f32> = decoder.decode(&bytes).unwrap();
            assert_eq!(back.len(), data.len());
            let snap = tel.snapshot();
            let grows = snap.counter("decompress.scratch.grows").unwrap_or(0);
            if call == 0 && uses_arena {
                assert!(
                    (1..=threads).contains(&grows),
                    "parallel decode call 0 ({sel:?}): {grows} grows for {threads} threads"
                );
                // An arena for 128-element blocks reserves at least 8
                // bytes per element: the slack-padded mid-byte pool.
                let bytes = snap.gauge("decompress.scratch.arena_bytes").unwrap_or(0.0);
                assert!(
                    bytes >= (grows * 128 * 8) as f64,
                    "parallel ({sel:?}): arena_bytes {bytes} must cover all {grows} arenas"
                );
            } else {
                assert_eq!(
                    grows, 0,
                    "parallel decode call {call} ({sel:?}): arena growths"
                );
            }
        }
    }
}
