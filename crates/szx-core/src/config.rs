//! Compressor configuration: error-bound mode, block size, and the
//! bit-commit strategy of §5.1.

use crate::block::BlockStats;
use crate::dekernels::DecodeScratch;
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;
use crate::kernels::EncodeScratch;

/// Largest block size the stream format supports. The per-block compressed
/// size is recorded in a `u16` (`zsize_array`), so a block's worst-case
/// payload (`1 + ceil(2·b/8) + b·8` bytes for f64) must stay below 65536.
pub const MAX_BLOCK_SIZE: usize = 4096;

/// Default block size. The paper's exploration (§5.3, Figure 8) finds the
/// compression ratio saturates at 128 while PSNR is insensitive to block
/// size, so 128 is the best trade-off.
pub const DEFAULT_BLOCK_SIZE: usize = 128;

/// How the maximum allowed pointwise error is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|d_i - d'_i| <= e`.
    Absolute(f64),
    /// Value-range-based relative bound: the absolute bound is
    /// `e = rel * (max(D) - min(D))`, resolved with one extra pass over the
    /// data. This is the `REL` mode used throughout the paper's evaluation.
    Relative(f64),
}

impl ErrorBound {
    fn raw(&self) -> f64 {
        match *self {
            ErrorBound::Absolute(e) | ErrorBound::Relative(e) => e,
        }
    }
}

/// Global value range `max - min`, ignoring NaNs (a dataset of only NaNs has
/// range 0 and compresses bit-exactly regardless of the bound): the scalar
/// oracle of every range scan.
pub fn value_range<F: SzxFloat>(data: &[F]) -> f64 {
    let (min, max) = KernelPath::Scalar.minmax(data);
    range_of(min.to_f64(), max.to_f64())
}

/// `max - min`, or 0 when no number was seen (`max < min`).
pub(crate) fn range_of(min: f64, max: f64) -> f64 {
    if max >= min {
        max - min
    } else {
        0.0
    }
}

/// The three ways of committing the necessary mantissa bits (§5.1, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitStrategy {
    /// Solution A: treat the necessary bits as one arbitrary-width integer
    /// and pack it with shift/and/or into a single bit pool (Pastri-style).
    BitPack,
    /// Solution B: split into whole bytes plus residual bits kept in a
    /// separate tightly packed pool (SZ-style).
    BytePlusResidual,
    /// Solution C — the paper's contribution: right-shift the normalized
    /// value by `s = (8 - R%8) % 8` so the necessary bits always form whole
    /// bytes, committed with plain memcpy. Default.
    #[default]
    ByteAligned,
}

impl CommitStrategy {
    pub(crate) fn code(self) -> u8 {
        match self {
            CommitStrategy::BitPack => 0,
            CommitStrategy::BytePlusResidual => 1,
            CommitStrategy::ByteAligned => 2,
        }
    }

    pub(crate) fn from_code(code: u8) -> Result<Self> {
        match code {
            0 => Ok(CommitStrategy::BitPack),
            1 => Ok(CommitStrategy::BytePlusResidual),
            2 => Ok(CommitStrategy::ByteAligned),
            other => Err(SzxError::CorruptStream(format!(
                "unknown commit-strategy code {other}"
            ))),
        }
    }
}

/// Which implementation of the hot loops runs: the one selector of the
/// codec. All paths produce **byte-identical** streams and bit-identical
/// decodes (asserted by the roundtrip property suite and the fuzz
/// differential oracle); the choice only affects speed, never the format,
/// so it is not recorded in the stream header.
///
/// [`KernelPath::detect`] (the [`Default`]) picks the fastest path the
/// running CPU has. The other values are there for the oracle matrices:
/// any path can be named, and every per-path decision of the codec is a
/// method of this type, so no other module matches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// The scalar reference loops: the correctness oracle the kernels are
    /// tested against. Never picked by [`KernelPath::detect`].
    Scalar,
    /// Branch-free portable kernels ([`crate::kernels`]/[`crate::dekernels`]).
    Kernel,
    /// Explicit SIMD intrinsic kernels ([`crate::simd`]). Each entry point
    /// re-checks the CPU and runs the portable kernel where the ISA
    /// extension is missing, with identical output.
    Simd,
}

impl Default for KernelPath {
    fn default() -> Self {
        KernelPath::detect()
    }
}

impl KernelPath {
    /// The fastest path on this machine: [`KernelPath::Simd`] when
    /// [`crate::simd::available`] (the CPU has the ISA extension and
    /// `SZX_DISABLE_SIMD` is unset), else [`KernelPath::Kernel`].
    pub fn detect() -> Self {
        if crate::simd::available() {
            KernelPath::Simd
        } else {
            KernelPath::Kernel
        }
    }

    /// Short lowercase name, used by telemetry labels and CLI output.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Kernel => "kernel",
            KernelPath::Simd => "simd",
        }
    }

    /// NaN-ignoring min and max of `data`, `(+inf, −inf)` when it holds no
    /// number: what a range scan folds per window. The scalar arm is the
    /// oracle: a NaN never replaces an incumbent and a tie keeps the
    /// earlier value. The kernels return a zero extreme as +0.0.
    #[inline]
    pub(crate) fn minmax<F: SzxFloat>(self, data: &[F]) -> (F, F) {
        match self {
            KernelPath::Simd => crate::simd::minmax(data),
            KernelPath::Kernel => crate::kernels::minmax(data),
            KernelPath::Scalar => data.iter().fold(
                (F::from_f64(f64::INFINITY), F::from_f64(f64::NEG_INFINITY)),
                |(lo, hi), &d| (if d < lo { d } else { lo }, if d > hi { d } else { hi }),
            ),
        }
    }

    /// μ and radius of one block (Algorithm 1, line 3).
    #[inline]
    pub(crate) fn block_stats<F: SzxFloat>(self, block: &[F]) -> BlockStats<F> {
        match self {
            KernelPath::Simd => crate::simd::block_stats(block),
            KernelPath::Kernel => crate::kernels::block_stats(block),
            KernelPath::Scalar => BlockStats::compute(block),
        }
    }

    /// Append one non-constant block's payload to `payload`; returns the μ
    /// it used (0.0 for a block stored bit-exactly).
    #[inline]
    pub(crate) fn encode_nonconstant<F: SzxFloat>(
        self,
        block: &[F],
        stats: &BlockStats<F>,
        eb: f64,
        strategy: CommitStrategy,
        payload: &mut Vec<u8>,
        scratch: &mut EncodeScratch,
    ) -> F {
        match self {
            KernelPath::Simd => {
                crate::simd::encode_nonconstant(block, stats, eb, strategy, payload, scratch)
            }
            KernelPath::Kernel => {
                crate::kernels::encode_nonconstant(block, stats, eb, strategy, payload, scratch)
            }
            KernelPath::Scalar => {
                crate::encode::encode_nonconstant(block, stats, eb, strategy, payload, scratch)
            }
        }
    }

    /// The path that decodes blocks of `strategy` on this one: itself for
    /// `ByteAligned` (the default strategy and the paper's Solution C),
    /// the scalar loop for the other strategies, which the kernel and SIMD
    /// decoders do not cover.
    #[inline]
    pub fn decoding(self, strategy: CommitStrategy) -> KernelPath {
        if strategy == CommitStrategy::ByteAligned {
            self
        } else {
            KernelPath::Scalar
        }
    }

    /// The instruction set blocks of `F` and `strategy` are coded with on
    /// this path: the detected [`Isa`](crate::simd::Isa) where
    /// [`Self::decoding`] is the simd path, else the portable kernels.
    pub fn isa<F: SzxFloat>(self, strategy: CommitStrategy) -> crate::simd::Isa {
        match self.decoding(strategy) {
            KernelPath::Simd => crate::simd::Isa::detect::<F>(),
            KernelPath::Kernel | KernelPath::Scalar => crate::simd::Isa::Portable,
        }
    }

    /// Decode one non-constant block payload into `out` (the block's
    /// length), on [`Self::decoding`] `strategy`.
    #[inline]
    pub(crate) fn decode_nonconstant<F: SzxFloat>(
        self,
        payload: &[u8],
        out: &mut [F],
        mu: F,
        strategy: CommitStrategy,
        scratch: &mut DecodeScratch,
    ) -> Result<()> {
        match self.decoding(strategy) {
            KernelPath::Simd => crate::simd::decode_nonconstant_block(payload, out, mu, scratch),
            KernelPath::Kernel => {
                crate::dekernels::decode_nonconstant_block(payload, out, mu, scratch)
            }
            KernelPath::Scalar => {
                crate::decode::decode_nonconstant_block(payload, out, mu, strategy)
            }
        }
    }

    /// Does [`Self::decode_nonconstant`] work in a [`DecodeScratch`] for
    /// blocks of `F` and `strategy`? The scalar loop needs none, and
    /// neither does the AVX-512 decode, which reads the mid-bytes straight
    /// from the payload.
    pub(crate) fn uses_arena<F: SzxFloat>(self, strategy: CommitStrategy) -> bool {
        match self.decoding(strategy) {
            KernelPath::Scalar => false,
            KernelPath::Simd => crate::simd::Isa::detect::<F>() != crate::simd::Isa::Avx512,
            KernelPath::Kernel => true,
        }
    }

    /// The profiler zone one window's block encode runs in.
    pub(crate) fn encode_zone(self) -> &'static str {
        match self {
            KernelPath::Simd => "compress.simd.encode",
            KernelPath::Kernel => "compress.encode.kernel",
            KernelPath::Scalar => "compress.encode.scalar",
        }
    }

    /// The profiler zone one window's block decode runs in (the path asked
    /// for; a strategy other than `ByteAligned` decodes in the scalar loop).
    pub(crate) fn decode_zone(self) -> &'static str {
        match self {
            KernelPath::Simd => "decompress.simd.decode",
            KernelPath::Kernel => "decompress.path.kernel",
            KernelPath::Scalar => "decompress.path.scalar",
        }
    }
}

/// Full compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SzxConfig {
    /// Number of consecutive elements per 1-D block.
    pub block_size: usize,
    /// Error-bound specification.
    pub error_bound: ErrorBound,
    /// Bit-commit strategy; keep the default unless running the §5.1 ablation.
    pub strategy: CommitStrategy,
    /// Hot-loop implementation; keep the default ([`KernelPath::detect`])
    /// unless checking one path against another.
    pub kernel: KernelPath,
    /// Split the range scan and the block encode across the rayon workers
    /// (§6.1). Only the chunking changes: the stream is byte-identical to
    /// the serial one.
    pub parallel: bool,
}

impl SzxConfig {
    /// Configuration with the paper's defaults and an absolute error bound.
    pub fn absolute(eb: f64) -> Self {
        SzxConfig {
            block_size: DEFAULT_BLOCK_SIZE,
            error_bound: ErrorBound::Absolute(eb),
            strategy: CommitStrategy::default(),
            kernel: KernelPath::detect(),
            parallel: false,
        }
    }

    /// Configuration with the paper's defaults and a value-range-based
    /// relative error bound.
    pub fn relative(rel: f64) -> Self {
        SzxConfig {
            block_size: DEFAULT_BLOCK_SIZE,
            error_bound: ErrorBound::Relative(rel),
            strategy: CommitStrategy::default(),
            kernel: KernelPath::detect(),
            parallel: false,
        }
    }

    /// Builder-style block-size override.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Builder-style commit-strategy override.
    pub fn with_strategy(mut self, strategy: CommitStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style hot-loop selection override.
    pub fn with_kernel(mut self, kernel: KernelPath) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder-style multicore switch (see [`SzxConfig::parallel`]).
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Validate the configuration before compression.
    pub fn validate(&self) -> Result<()> {
        if self.block_size == 0 {
            return Err(SzxError::InvalidConfig("block size must be nonzero".into()));
        }
        if self.block_size > MAX_BLOCK_SIZE {
            return Err(SzxError::InvalidConfig(format!(
                "block size {} exceeds maximum {MAX_BLOCK_SIZE}",
                self.block_size
            )));
        }
        let e = self.error_bound.raw();
        // NaN fails is_finite, so the NaN-rejecting `!(e >= 0.0)` spelling
        // is not needed.
        if !e.is_finite() || e < 0.0 {
            return Err(SzxError::InvalidConfig(format!(
                "error bound must be finite and non-negative, got {e}"
            )));
        }
        Ok(())
    }
}

impl Default for SzxConfig {
    fn default() -> Self {
        SzxConfig::relative(1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_block_sizes() {
        assert!(SzxConfig::absolute(1e-3)
            .with_block_size(0)
            .validate()
            .is_err());
        assert!(SzxConfig::absolute(1e-3)
            .with_block_size(MAX_BLOCK_SIZE + 1)
            .validate()
            .is_err());
        assert!(SzxConfig::absolute(1e-3)
            .with_block_size(MAX_BLOCK_SIZE)
            .validate()
            .is_ok());
        assert!(SzxConfig::absolute(1e-3)
            .with_block_size(1)
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        assert!(SzxConfig::absolute(-1.0).validate().is_err());
        assert!(SzxConfig::absolute(f64::NAN).validate().is_err());
        assert!(SzxConfig::absolute(f64::INFINITY).validate().is_err());
        assert!(
            SzxConfig::absolute(0.0).validate().is_ok(),
            "zero bound = lossless mode"
        );
        assert!(SzxConfig::relative(1e-2).validate().is_ok());
    }

    #[test]
    fn relative_bound_resolves_against_range() {
        let data = [1.0f32, 3.0, 2.0, -1.0];
        for (cfg, eb) in [
            (SzxConfig::relative(0.5), 2.0),
            (SzxConfig::absolute(0.125), 0.125),
        ] {
            for kernel in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
                for parallel in [false, true] {
                    let cfg = cfg.with_kernel(kernel).with_parallel(parallel);
                    let bytes = crate::compress(&data, &cfg).unwrap();
                    assert_eq!(crate::inspect(&bytes).unwrap().eb, eb, "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn value_range_edge_cases() {
        assert_eq!(value_range::<f32>(&[]), 0.0);
        assert_eq!(value_range(&[5.0f32]), 0.0);
        assert_eq!(value_range(&[f32::NAN, 1.0, 4.0]), 3.0);
        assert_eq!(value_range(&[f32::NAN, f32::NAN]), 0.0);
        assert_eq!(value_range(&[-2.0f64, 2.0]), 4.0);
    }

    #[test]
    fn strategy_codes_roundtrip() {
        for s in [
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
            CommitStrategy::ByteAligned,
        ] {
            assert_eq!(CommitStrategy::from_code(s.code()).unwrap(), s);
        }
        assert!(CommitStrategy::from_code(7).is_err());
    }

    #[test]
    fn detect_resolves_to_a_runnable_path() {
        let detected = KernelPath::detect();
        assert_eq!(KernelPath::default(), detected);
        assert!(matches!(detected, KernelPath::Simd | KernelPath::Kernel));
        assert_eq!(
            detected == KernelPath::Simd,
            crate::simd::available(),
            "detect picks simd exactly when detection reports it available"
        );
        assert_eq!(SzxConfig::absolute(1e-3).kernel, detected);
    }
}
