//! Regression test for the per-block allocation churn the `EncodeScratch`
//! and `DecodeScratch` arenas removed: the codec publishes how many times an
//! arena had to grow (`compress.scratch.grows`, `decompress.scratch.grows`),
//! and that number must stay O(1) per encode call / per parallel chunk — not
//! O(blocks) — and drop to zero when a `Decoder`, serial or parallel, is
//! reused.
//!
//! Single test function: the telemetry registry is process-global and this
//! file is its own test binary (see telemetry_counters.rs).

use szx_core::config::KernelPath;
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

    for sel in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
        // SIMD degrades to the kernel path where it is unavailable; either
        // way it sizes the same arenas with `ensure()`.
        let uses_arena = sel != KernelPath::Scalar;
        let cfg = SzxConfig::absolute(1e-4).with_kernel(sel);

        // Serial: one scratch arena for the whole call. Uniform block
        // sizes mean a single high-water-mark growth.
        tel.reset();
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        assert!(!bytes.is_empty());
        let grows = tel
            .snapshot()
            .counter("compress.scratch.grows")
            .unwrap_or(0);
        // The kernel and SIMD paths grow their word arena exactly once
        // (first block); the scalar path reuses the pre-existing bit/byte
        // pools and never grows it. Either way: O(1), not O(blocks).
        let expect = u64::from(uses_arena);
        assert_eq!(grows, expect, "serial ({sel:?}): arena growths");

        // Parallel: one arena per rayon chunk, never one per block.
        tel.reset();
        let bytes = szx_core::compress(&data, &cfg.with_parallel(true)).unwrap();
        assert!(!bytes.is_empty());
        let grows = tel
            .snapshot()
            .counter("compress.scratch.grows")
            .unwrap_or(0);
        let max_chunks = (rayon::current_num_threads() * 4 + 1) as u64;
        assert!(
            grows <= max_chunks,
            "parallel ({sel:?}): {grows} grows for {nblocks} blocks (expected <= {max_chunks})"
        );
        if uses_arena {
            assert!(grows >= 1, "parallel {sel:?} path must use the arena");
        }

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

        // Parallel decode: one arena per pool thread, grown on the first
        // call and reused by every group, window and later call — never
        // one per group (this stream has ~125 groups).
        let threads = rayon::current_num_threads() as u64;
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
