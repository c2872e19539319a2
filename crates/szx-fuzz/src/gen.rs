//! Structured generation for the roundtrip target.
//!
//! cargo-fuzz and the in-tree engine both hand targets *bytes*; the
//! roundtrip target needs a *(config, dataset)* pair. [`Spec`] is the
//! bridge: a total, lenient decoder from arbitrary bytes into a valid
//! compression configuration plus a deterministic synthetic field — every
//! byte string, including the empty one, maps to some case, and mutating
//! the bytes walks the config/data space. `Spec::to_bytes` round-trips so
//! seed corpora can be authored from known-interesting cases.

use szx_core::{CommitStrategy, ErrorBound, SzxConfig, SzxFloat, MAX_BLOCK_SIZE};

use crate::rng::XorShift;

/// Upper bound on generated field length: big enough for multi-block
/// streams at every block size that matters, small enough that a fuzz
/// iteration stays in the microsecond range.
pub const MAX_SPEC_N: usize = 8192;

/// Number of distinct data shapes [`Spec::generate`] can produce.
const N_SHAPES: u8 = 8;

/// Element type selector carried by a [`Spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecType {
    F32,
    F64,
}

/// A fully decoded roundtrip case: compressor config + data recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub dtype: SpecType,
    pub strategy: CommitStrategy,
    pub block_size: usize,
    /// Absolute or relative error bound (always finite and >= 0).
    pub bound: ErrorBound,
    /// Number of elements to generate (1..=MAX_SPEC_N).
    pub n: usize,
    /// Which synthetic shape the data takes (waves, noise, plateaus, ...).
    pub shape: u8,
    /// Special-value injection flags: bit 0 NaN, bit 1 +inf, bit 2 -inf,
    /// bit 3 denormals, bit 4 huge dynamic range.
    pub inject: u8,
    /// RNG seed for the data generator.
    pub seed: u64,
}

/// Fixed serialized length of a spec (shorter inputs parse with defaults).
pub const SPEC_LEN: usize = 18;

impl Spec {
    /// Decode a spec from arbitrary bytes. Total: every input, including
    /// the empty one, yields a valid spec (missing bytes default to zero,
    /// extra bytes are ignored).
    pub fn from_bytes(bytes: &[u8]) -> Spec {
        let b = |i: usize| bytes.get(i).copied().unwrap_or(0);
        let dtype = if b(0) & 1 == 0 {
            SpecType::F32
        } else {
            SpecType::F64
        };
        let strategy = match b(1) % 3 {
            0 => CommitStrategy::ByteAligned,
            1 => CommitStrategy::BitPack,
            _ => CommitStrategy::BytePlusResidual,
        };
        let raw_bs = u16::from_le_bytes([b(2), b(3)]) as usize;
        let block_size = raw_bs % MAX_BLOCK_SIZE + 1;
        let bound_byte = b(4);
        let exp = i32::from(bound_byte & 0x0f) % 10;
        let magnitude = if exp == 9 { 0.0 } else { 10f64.powi(-exp) };
        let bound = if bound_byte & 0x80 != 0 {
            ErrorBound::Relative(magnitude)
        } else {
            ErrorBound::Absolute(magnitude)
        };
        let raw_n = u32::from_le_bytes([b(5), b(6), b(7), 0]) as usize;
        let n = raw_n % MAX_SPEC_N + 1;
        let shape = b(8) % N_SHAPES;
        let inject = b(9);
        let seed = u64::from_le_bytes([b(10), b(11), b(12), b(13), b(14), b(15), b(16), b(17)]);
        Spec {
            dtype,
            strategy,
            block_size,
            bound,
            n,
            shape,
            inject,
            seed,
        }
    }

    /// Serialize so that `Spec::from_bytes(spec.to_bytes()) == spec`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; SPEC_LEN];
        out[0] = match self.dtype {
            SpecType::F32 => 0,
            SpecType::F64 => 1,
        };
        out[1] = match self.strategy {
            CommitStrategy::ByteAligned => 0,
            CommitStrategy::BitPack => 1,
            CommitStrategy::BytePlusResidual => 2,
        };
        let raw_bs = (self.block_size - 1) as u16;
        out[2..4].copy_from_slice(&raw_bs.to_le_bytes());
        let (rel, magnitude) = match self.bound {
            ErrorBound::Absolute(e) => (0u8, e),
            ErrorBound::Relative(e) => (0x80, e),
        };
        let exp = if magnitude == 0.0 {
            9
        } else {
            (-magnitude.log10()).round() as i32
        };
        out[4] = rel | (exp.clamp(0, 9) as u8);
        let raw_n = (self.n - 1) as u32;
        out[5..8].copy_from_slice(&raw_n.to_le_bytes()[..3]);
        out[8] = self.shape % N_SHAPES;
        out[9] = self.inject;
        out[10..18].copy_from_slice(&self.seed.to_le_bytes());
        out
    }

    /// The compressor configuration this spec describes.
    pub fn config(&self) -> SzxConfig {
        SzxConfig {
            block_size: self.block_size,
            error_bound: self.bound,
            strategy: self.strategy,
            kernel: szx_core::KernelPath::Scalar,
            parallel: false,
        }
    }

    /// Generate the dataset deterministically for element type `F`.
    pub fn generate<F: SzxFloat>(&self) -> Vec<F> {
        let mut rng = XorShift::new(self.seed ^ 0xDA7A_5EED);
        let mut data: Vec<F> = (0..self.n)
            .map(|i| F::from_f64(self.sample(i, &mut rng)))
            .collect();
        self.inject_specials(&mut data, &mut rng);
        data
    }

    /// One value of the base shape at index `i`.
    fn sample(&self, i: usize, rng: &mut XorShift) -> f64 {
        let x = i as f64;
        fn noise(rng: &mut XorShift) -> f64 {
            rng.next_u64() as f64 / u64::MAX as f64
        }
        match self.shape {
            // Smooth wave + small noise: mostly non-constant blocks.
            0 => (x * 0.01).sin() * 5.0 + noise(rng) * 0.01,
            // Wide uniform noise.
            1 => (noise(rng) - 0.5) * 2e3,
            // Mostly constant with rare jumps.
            2 => {
                if rng.one_in(50) {
                    noise(rng) * 100.0
                } else {
                    42.5
                }
            }
            // Tiny magnitudes near typical bounds.
            3 => (noise(rng) - 0.5) * 1e-5,
            // Mixed exponents: drives required-length diversity.
            4 => {
                let e = (rng.below(16) as i32) - 8;
                (noise(rng) - 0.5) * 10f64.powi(e)
            }
            // Smooth low-variation field: mostly constant blocks.
            5 => 1000.0 + (x * 0.001).cos(),
            // Exactly constant.
            6 => -7.25,
            // Alternating sign ramp: exercises the XOR leading-byte coder.
            _ => {
                let sign = if i.is_multiple_of(2) { 1.0 } else { -1.0 };
                sign * (1.0 + x * 0.125)
            }
        }
    }

    /// Sprinkle special values per the `inject` flags (~1 in 40 elements
    /// per enabled class, so multi-block inputs mix special and ordinary
    /// blocks).
    fn inject_specials<F: SzxFloat>(&self, data: &mut [F], rng: &mut XorShift) {
        if self.inject == 0 {
            return;
        }
        for slot in data.iter_mut() {
            if !rng.one_in(40) {
                continue;
            }
            let class = rng.below(5) as u8;
            let enabled = self.inject & (1 << class) != 0;
            if !enabled {
                continue;
            }
            *slot = match class {
                0 => F::from_f64(f64::NAN),
                1 => F::from_f64(f64::INFINITY),
                2 => F::from_f64(f64::NEG_INFINITY),
                // Denormal for the narrower type too: 1e-40 is subnormal in
                // f32 and tiny-but-normal in f64; both stress normalization.
                3 => F::from_f64(1e-40),
                _ => F::from_f64(if rng.one_in(2) { 1e30 } else { -1e30 }),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_is_total() {
        for input in [
            &[][..],
            &[0xff][..],
            &[0xff; 4][..],
            &[0x00; 18][..],
            &[0xff; 64][..],
        ] {
            let spec = Spec::from_bytes(input);
            assert!(spec.block_size >= 1 && spec.block_size <= MAX_BLOCK_SIZE);
            assert!(spec.n >= 1 && spec.n <= MAX_SPEC_N);
            assert!(spec.config().validate().is_ok(), "{spec:?}");
        }
    }

    #[test]
    fn to_bytes_roundtrips() {
        let mut rng = XorShift::new(5);
        for _ in 0..200 {
            let mut raw = vec![0u8; SPEC_LEN];
            rng.fill(&mut raw);
            let spec = Spec::from_bytes(&raw);
            let again = Spec::from_bytes(&spec.to_bytes());
            assert_eq!(spec, again);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = Spec::from_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 0x1f, 1, 2, 3, 4, 5, 6, 7, 8]);
        let a: Vec<f64> = spec.generate();
        let b: Vec<f64> = spec.generate();
        assert_eq!(a.len(), spec.n);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
