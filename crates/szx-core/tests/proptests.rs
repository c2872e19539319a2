//! Property-based tests for the core SZx invariants:
//!
//! 1. The pointwise error bound is respected for every finite input, every
//!    error bound, every block size, and every commit strategy.
//! 2. Non-finite values round-trip bit-exactly.
//! 3. The parallel compressor emits byte-identical streams and the parallel
//!    decompressor agrees with the serial one.
//! 4. A zero error bound is lossless.
//! 5. Compressed streams decode to exactly the original length.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use szx_core::{CommitStrategy, Decoder, KernelPath, SzxConfig};

fn strategies() -> impl Strategy<Value = CommitStrategy> {
    prop_oneof![
        Just(CommitStrategy::ByteAligned),
        Just(CommitStrategy::BitPack),
        Just(CommitStrategy::BytePlusResidual),
    ]
}

/// Finite f32s spanning many magnitudes, biased toward locally smooth data
/// (scientific-like) but including harsh jumps.
fn scientific_f32(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    let base = prop_oneof![
        // Smooth ramp + noise
        (any::<u32>(), 1usize..max_len).prop_map(|(seed, n)| {
            (0..n)
                .map(|i| {
                    let x = i as f32 * 0.01 + (seed % 97) as f32;
                    x.sin() * 3.0 + ((x * 13.7).sin()) * 1e-3
                })
                .collect()
        }),
        // Arbitrary finite values (harsh)
        pvec(
            any::<f32>().prop_filter("finite", |x| x.is_finite()),
            1..max_len
        ),
        // Mixed magnitudes
        pvec(
            prop_oneof![
                -1e30f32..1e30f32,
                -1.0f32..1.0f32,
                Just(0.0f32),
                Just(-0.0f32)
            ],
            1..max_len
        ),
    ];
    base
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn error_bound_respected_f32(
        data in scientific_f32(600),
        eb_exp in -8i32..1,
        block_size in 1usize..300,
        strategy in strategies(),
    ) {
        let eb = 10f64.powi(eb_exp);
        let cfg = SzxConfig::absolute(eb)
            .with_block_size(block_size)
            .with_strategy(strategy);
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        prop_assert_eq!(back.len(), data.len());
        for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
            let err = (a as f64 - b as f64).abs();
            prop_assert!(err <= eb, "index {}: {} vs {} (err {} > eb {})", i, a, b, err, eb);
        }
    }

    #[test]
    fn error_bound_respected_f64(
        data in pvec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 1..400),
        eb_exp in -12i32..1,
        block_size in 1usize..200,
        strategy in strategies(),
    ) {
        let eb = 10f64.powi(eb_exp);
        let cfg = SzxConfig::absolute(eb)
            .with_block_size(block_size)
            .with_strategy(strategy);
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        let back: Vec<f64> = szx_core::decompress(&bytes).unwrap();
        for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
            let err = (a - b).abs();
            prop_assert!(err <= eb, "index {}: {} vs {} (err {})", i, a, b, err);
        }
    }

    #[test]
    fn nonfinite_values_roundtrip_bit_exact(
        mut data in pvec(any::<f32>(), 1..400),
        block_size in 1usize..200,
        strategy in strategies(),
    ) {
        // `any::<f32>()` already generates NaN/Inf; make sure at least one
        // non-finite value is present.
        data[0] = f32::NAN;
        let cfg = SzxConfig::absolute(1e-3)
            .with_block_size(block_size)
            .with_strategy(strategy);
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        // Blocks carrying a non-finite value are stored bit-exactly; for all
        // other values the bound holds.
        for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
            if a.is_finite() {
                let err = (a as f64 - b as f64).abs();
                // The value may live in a bit-exact block (err 0) or a
                // normal block (err <= eb).
                prop_assert!(err <= 1e-3, "index {}: {} vs {}", i, a, b);
            } else {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "non-finite at {}", i);
            }
        }
    }

    #[test]
    fn zero_bound_is_lossless(
        data in pvec(any::<f32>(), 1..500),
        block_size in 1usize..200,
        strategy in strategies(),
    ) {
        let cfg = SzxConfig::absolute(0.0)
            .with_block_size(block_size)
            .with_strategy(strategy);
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        for (&a, &b) in data.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parallel_agrees_with_serial(
        data in scientific_f32(5000),
        eb_exp in -6i32..0,
        strategy in strategies(),
    ) {
        let eb = 10f64.powi(eb_exp);
        let cfg = SzxConfig::absolute(eb).with_strategy(strategy);
        let serial = szx_core::compress(&data, &cfg).unwrap();
        let par = szx_core::compress(&data, &cfg.with_parallel(true)).unwrap();
        prop_assert_eq!(&serial, &par);
        let a: Vec<f32> = szx_core::decompress(&serial).unwrap();
        let b: Vec<f32> = Decoder::new(KernelPath::detect(), true).decode(&serial).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn relative_bound_respected(
        data in scientific_f32(2000),
        rel_exp in -5i32..-1,
    ) {
        let rel = 10f64.powi(rel_exp);
        let cfg = SzxConfig::relative(rel);
        let bytes = szx_core::compress(&data, &cfg).unwrap();
        let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
        let range = szx_core::config::value_range(&data);
        let eb = rel * range;
        for (&a, &b) in data.iter().zip(&back) {
            prop_assert!((a as f64 - b as f64).abs() <= eb,
                "{} vs {} under resolved eb {}", a, b, eb);
        }
    }

    #[test]
    fn decompress_never_panics_on_mutated_streams(
        data in scientific_f32(500),
        flip_at in any::<prop::sample::Index>(),
        new_byte in any::<u8>(),
    ) {
        let cfg = SzxConfig::absolute(1e-3);
        let mut bytes = szx_core::compress(&data, &cfg).unwrap();
        let i = flip_at.index(bytes.len());
        bytes[i] = new_byte;
        // Any outcome is fine except a panic or out-of-bounds access. A
        // mutated stream may still decode (the mutation can land in payload
        // bits), in which case the length must still match.
        if let Ok(out) = szx_core::decompress::<f32>(&bytes) {
            prop_assert_eq!(out.len(), data.len());
        }
        let _ = Decoder::new(KernelPath::detect(), true).decode::<f32>(&bytes);
    }
}
