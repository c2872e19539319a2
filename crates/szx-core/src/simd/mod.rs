//! Explicit SIMD kernels for the encode/decode hot paths, behind runtime
//! multi-ISA dispatch.
//!
//! The portable kernels in [`crate::kernels`] / [`crate::dekernels`] are
//! written so the autovectorizer *can* emit vector code, but nothing forces
//! it to — a register-allocation hiccup or a cost-model miss silently
//! degrades them to scalar. This module pins the hot loops to explicit
//! `std::arch` intrinsics:
//!
//! 1. **Range scan** ([`block_stats`] / [`minmax`]): 8-lane min/max stripes
//!    with NaN presence folded in via unordered compares — one AVX2 register
//!    of `f32`, two of `f64`. `vminps(d, acc)`/`vmaxps(d, acc)` are the
//!    scalar select `d < acc ? d : acc` itself: they return the second
//!    operand, the incumbent, on ties and on NaN, so the blocks' extrema
//!    keep the portable kernel's bits. [`minmax`] runs four independent
//!    accumulators, off the one-register dependency chain, and returns a
//!    zero extreme as +0.0 as every backend does.
//! 2. **Encode coder** ([`encode_nonconstant`]), in one pass from the
//!    input to the payload. Each value is normalized and shifted into its
//!    high-aligned word (Formulas 4–5) and XORed against its predecessor;
//!    the clamped lead bytes of the XOR are its code, and the word's bytes
//!    from the lead to `nb` its mid-bytes. cuSZx finds where each run goes
//!    with a prefix scan of `nb − lead`; here it is done in registers:
//!    - *AVX-512* (`f32`): sixteen values a step in 32-bit lanes, which
//!      hold an `f32` word's `nb <= 4` committed bytes. `vplzcntd` gives
//!      the leads, `pdep` packs them into four code bytes, and one
//!      `vpcompressb` packs every lane's run, committed with one masked
//!      store of exactly their bytes. Lane masks cover a ragged step.
//!    - *AVX2* (`f64`, and `f32` without AVX-512): four values a code byte
//!      in 64-bit lanes. Three nested byte-prefix compares spread into the
//!      code byte, and the four runs go out as overlapping 8-byte stores
//!      at offsets from the decode's lead table; a ragged tail is scalar.
//! 3. **Decode** ([`decode_nonconstant_block`]), the one-pass lane scan.
//!    Each lane's mid-bytes are fetched and placed in its word, and
//!    Hillis–Steele steps compose the `(keep, word)` pairs of
//!    [`crate::dekernels`]' recurrence before the carried word is applied.
//!    - *AVX-512* (`f32`): sixteen values a step. A masked load of the
//!      step's code bytes spreads to sixteen leads with `vpsrlvd`; one
//!      masked load takes exactly the step's mid-bytes straight from the
//!      payload, with no pool copy, and one `vpexpandb` puts each byte in
//!      its lane. Four `valignd` steps compose the pairs.
//!    - *AVX2*: per code byte, a table lookup gives the four clamped leads
//!      and their offsets, four overlapping 8-byte loads (the encoder's
//!      stores in reverse) fetch the mid-bytes from the slack-padded pool
//!      copy, and two permute+blend steps compose the pairs.
//!
//! 4. **CRC32C** ([`crc32c`]): the SSE4.2 `crc32` instruction over 8-byte
//!    words, three lanes at once, for the container's frame and index
//!    checksums; the slicing-by-8 table of [`crate::container`] is the
//!    portable path.
//!
//! **Dispatch.** Callers never invoke the backends directly: every entry
//! point here re-checks cached `is_x86_feature_detected!` guards and takes
//! the widest backend the CPU has — for the coders, AVX-512 (`f32` only),
//! then AVX2, then the portable kernel; [`Isa::detect`] names the one
//! chosen. So the simd [`KernelPath`](crate::config::KernelPath) is *safe*
//! on any machine, just not faster where the ISA extension is missing.
//! [`available`] additionally honors the `SZX_DISABLE_SIMD` environment
//! override (consulted by
//! [`KernelPath::detect`](crate::config::KernelPath::detect), once per
//! configuration, not per block) so operators can force the portable path
//! without rebuilding. Nothing selects a backend but the CPU.
//!
//! **Equivalence.** Every backend is byte-for-byte equivalent to the
//! portable kernels — same select semantics (NaN never replaces an
//! incumbent, ties keep the earlier element; [`minmax`] returns a zero
//! extreme as +0.0 on every path), same clamps, same bytes and errors —
//! which the roundtrip property suite, the fuzz differential oracle, the
//! corrupt-archive suite and the forged-block tests (each coder backend
//! the CPU has, called directly) assert. The scalar loops remain the
//! oracle of record.
//!
//! This module is the crate's unsafe surface, beside the two byte views of
//! [`crate::float`]: szx-core's manifest denies `unsafe_code`, each file
//! here opts back in with an inner `#![allow(unsafe_code)]` (the views with
//! an item-level one); clippy requires a `SAFETY:` comment on every unsafe
//! block, and szx-audit requires every `#[target_feature]` call site's
//! comment to name the runtime detection guard.

// The only unsafe in this file is *calling* the `#[target_feature]`
// backends after the runtime detection guard.
#![allow(unsafe_code)]
#![deny(clippy::cast_possible_truncation)]

use crate::block::{required_length, BlockStats};
use crate::config::CommitStrategy;
use crate::dekernels::{self, DecodeScratch};
use crate::error::Result;
use crate::float::SzxFloat;
use crate::kernels::{self, EncodeScratch};

// This file's allowance stops here: each backend states its own.
#[cfg(target_arch = "aarch64")]
#[deny(unsafe_code)]
mod neon;
#[cfg(target_arch = "x86_64")]
#[deny(unsafe_code)]
mod x86;

/// Cached runtime ISA detection: AVX2 on x86-64, NEON (an architectural
/// baseline, so unconditionally true) on aarch64, absent elsewhere. This is
/// the cheap per-call guard the dispatch wrappers use (the AVX-512 coder
/// adds its own); the env override lives in [`available`] so it is
/// consulted once per top-level call.
#[inline]
pub(crate) fn ready() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(target_arch = "aarch64")]
    {
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// Is the SIMD path available for dispatch? True when the running CPU has
/// the required ISA extension **and** the `SZX_DISABLE_SIMD` environment
/// variable is unset (or set to the empty string). This is what
/// [`KernelPath::detect`](crate::config::KernelPath::detect) consults:
/// with the override set, it picks the portable kernel, which produces
/// identical output.
pub fn available() -> bool {
    ready() && std::env::var_os("SZX_DISABLE_SIMD").is_none_or(|v| v.is_empty())
}

/// Cached runtime detection of the AVX-512 coder's features on top of
/// [`ready`]: AVX-512 F, BW, VL, CD and VBMI2, BMI2 and POPCNT.
#[cfg(target_arch = "x86_64")]
#[inline]
fn wide_ready() -> bool {
    use std::sync::OnceLock;
    static WIDE: OnceLock<bool> = OnceLock::new();
    *WIDE.get_or_init(|| {
        ready()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512cd")
            && std::arch::is_x86_feature_detected!("avx512vbmi2")
            && std::arch::is_x86_feature_detected!("bmi2")
            && std::arch::is_x86_feature_detected!("popcnt")
    })
}

/// The instruction set the simd [`KernelPath`](crate::config::KernelPath)
/// runs on for one element type, widest first: what `--stats` and run
/// manifests report beside the path, so a figure names the coder that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512 F, BW, VL, CD and VBMI2 with BMI2: the sixteen-lane `f32`
    /// coders, and the AVX2 range scan.
    Avx512,
    /// AVX2: the quad coders and the range scan.
    Avx2,
    /// NEON: the range scan; the coders are the portable kernels.
    Neon,
    /// None: the portable kernels throughout.
    Portable,
}

impl Isa {
    /// The widest backend this CPU runs for blocks of `F`. Only `f32` has
    /// an AVX-512 coder.
    pub fn detect<F: SzxFloat>() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if F::BYTES == 4 && wide_ready() {
                Isa::Avx512
            } else if ready() {
                Isa::Avx2
            } else {
                Isa::Portable
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            Isa::Neon
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            Isa::Portable
        }
    }

    /// Short lowercase name: `avx512`, `avx2`, `neon` or `portable`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
            Isa::Portable => "portable",
        }
    }
}

/// Reinterpret stats computed in the concrete backend type back into `F`.
/// Only reached when `F` *is* that concrete type (the `as_f32s`/`as_f64s`
/// downcast gates it), so the word roundtrip is the identity on bits.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
fn convert_stats<G: SzxFloat, F: SzxFloat>(s: BlockStats<G>) -> BlockStats<F> {
    debug_assert_eq!(F::FULL_BITS, G::FULL_BITS);
    BlockStats {
        mu: F::from_word(s.mu.to_word()),
        radius: F::from_word(s.radius.to_word()),
    }
}

/// SIMD block statistics: bit-identical to [`crate::kernels::block_stats`]
/// (and therefore to the scalar [`BlockStats::compute`]). Falls back to the
/// portable kernel for short blocks and unsupported targets.
#[inline]
pub fn block_stats<F: SzxFloat>(block: &[F]) -> BlockStats<F> {
    debug_assert!(!block.is_empty());
    #[cfg(target_arch = "x86_64")]
    if ready() && block.len() >= 2 * kernels::LANES {
        if let Some(b) = F::as_f32s(block) {
            // SAFETY: `ready()` confirmed AVX2 via cached runtime feature
            // detection (`is_x86_feature_detected!("avx2")`).
            return convert_stats(unsafe { x86::block_stats_f32(b) });
        }
        if let Some(b) = F::as_f64s(block) {
            // SAFETY: as above — AVX2 confirmed by runtime detection.
            return convert_stats(unsafe { x86::block_stats_f64(b) });
        }
    }
    #[cfg(target_arch = "aarch64")]
    if ready() && block.len() >= 2 * kernels::LANES {
        if let Some(b) = F::as_f32s(block) {
            return convert_stats(neon::block_stats_f32(b));
        }
    }
    kernels::block_stats(block)
}

/// SIMD global min/max (NaN-ignoring), bit-identical to
/// [`crate::kernels::minmax`] including the `(+inf, -inf)` all-NaN result.
/// The backends merge several accumulators, so a zero extreme's sign
/// depends on their layout; it leaves here as +0.0, as it does the kernel.
#[inline]
pub fn minmax<F: SzxFloat>(data: &[F]) -> (F, F) {
    let (lo, hi) = backend_minmax(data);
    (kernels::unsigned_zero(lo), kernels::unsigned_zero(hi))
}

/// [`minmax`] on the widest backend for this CPU, a zero extreme of
/// either sign.
#[inline]
fn backend_minmax<F: SzxFloat>(data: &[F]) -> (F, F) {
    #[cfg(target_arch = "x86_64")]
    if ready() && data.len() >= kernels::LANES {
        if let Some(d) = F::as_f32s(data) {
            // SAFETY: `ready()` confirmed AVX2 via cached runtime feature
            // detection.
            let (lo, hi) = unsafe { x86::minmax_f32(d) };
            return (F::from_word(lo.to_word()), F::from_word(hi.to_word()));
        }
        if let Some(d) = F::as_f64s(data) {
            // SAFETY: as above — AVX2 confirmed by runtime detection.
            let (lo, hi) = unsafe { x86::minmax_f64(d) };
            return (F::from_word(lo.to_word()), F::from_word(hi.to_word()));
        }
    }
    #[cfg(target_arch = "aarch64")]
    if ready() && data.len() >= kernels::LANES {
        if let Some(d) = F::as_f32s(data) {
            let (lo, hi) = neon::minmax_f32(d);
            return (F::from_word(lo.to_word()), F::from_word(hi.to_word()));
        }
    }
    kernels::minmax(data)
}

/// SIMD encode of one non-constant `ByteAligned` block on the widest
/// coder for `F` ([`Isa::detect`]). Byte-identical payload to
/// [`crate::kernels::encode_nonconstant`]; other strategies and targets
/// without a coder backend delegate to it outright.
pub(crate) fn encode_nonconstant<F: SzxFloat>(
    block: &[F],
    stats: &BlockStats<F>,
    eb: f64,
    strategy: CommitStrategy,
    payload: &mut Vec<u8>,
    scratch: &mut EncodeScratch,
) -> F {
    encode_on(
        Isa::detect::<F>(),
        block,
        stats,
        eb,
        strategy,
        payload,
        scratch,
    )
}

/// [`encode_nonconstant`] on the coder of `isa`: the one-pass AVX-512 or
/// AVX2 coder, each value going from the input to the payload in
/// registers, or the portable kernel. A backend the CPU lacks is never
/// called: each call re-checks its detection guard, and AVX-512 falls back
/// to AVX2, AVX2 to the portable kernel.
pub(crate) fn encode_on<F: SzxFloat>(
    isa: Isa,
    block: &[F],
    stats: &BlockStats<F>,
    eb: f64,
    strategy: CommitStrategy,
    payload: &mut Vec<u8>,
    scratch: &mut EncodeScratch,
) -> F {
    #[cfg(target_arch = "x86_64")]
    if strategy == CommitStrategy::ByteAligned && matches!(isa, Isa::Avx512 | Isa::Avx2) && ready()
    {
        let req_len = required_length::<F>(stats.radius, eb);
        let raw = req_len == F::FULL_BITS;
        let mu = if raw { F::ZERO } else { stats.mu };
        #[expect(clippy::cast_possible_truncation, reason = "req_len <= FULL_BITS = 64")]
        payload.push(req_len as u8);
        if let Some(b) = F::as_f32s(block) {
            // μ reinterpreted in the block's own type, bit-exactly (the
            // downcast proves F = f32).
            let mu32 = f32::from_word(mu.to_word());
            if isa == Isa::Avx512 && wide_ready() {
                // SAFETY: `wide_ready()` confirmed AVX-512 F/BW/VL/CD/VBMI2,
                // BMI2 and POPCNT via cached runtime feature detection.
                unsafe { x86::encode_block_f32_avx512(b, raw, mu32, req_len, payload) };
            } else {
                // SAFETY: `ready()` above confirmed AVX2 via cached runtime
                // feature detection.
                unsafe { x86::encode_block_f32(b, raw, mu32, req_len, payload) };
            }
        } else if let Some(b) = F::as_f64s(block) {
            let mu64 = f64::from_word(mu.to_word());
            // SAFETY: as above — AVX2 confirmed by runtime detection.
            unsafe { x86::encode_block_f64(b, raw, mu64, req_len, payload) };
        }
        return mu;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    kernels::encode_nonconstant(block, stats, eb, strategy, payload, scratch)
}

/// SIMD decode of one non-constant `ByteAligned` block payload on the
/// widest coder for `F` ([`Isa::detect`]). Same outputs and errors as
/// [`crate::dekernels::decode_nonconstant_block`]; targets without a coder
/// backend delegate to it outright.
pub(crate) fn decode_nonconstant_block<F: SzxFloat>(
    payload: &[u8],
    out: &mut [F],
    mu: F,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    decode_on(Isa::detect::<F>(), payload, out, mu, scratch)
}

/// [`decode_nonconstant_block`] on the coder of `isa`, falling back as
/// [`encode_on`] does. The shared validation comes first. The AVX-512
/// decode then reads the mid-bytes straight from the payload, sixteen
/// values a step; the AVX2 one runs the lane scan over whole quads from
/// the slack-padded pool copy, a ragged tail continuing the carried word
/// in the portable [`dekernels::Scan`].
pub(crate) fn decode_on<F: SzxFloat>(
    isa: Isa,
    payload: &[u8],
    out: &mut [F],
    mu: F,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    #[cfg(target_arch = "x86_64")]
    if matches!(isa, Isa::Avx512 | Isa::Avx2) && ready() {
        if isa == Isa::Avx512 && wide_ready() {
            if let Some(o) = F::as_f32s_mut(out) {
                let blk = dekernels::Block::parse::<F>(payload, o.len())?;
                let mu32 = f32::from_word(mu.to_word());
                // SAFETY: `wide_ready()` confirmed AVX-512 F/BW/VL/CD/VBMI2,
                // BMI2 and POPCNT via cached runtime feature detection.
                unsafe { x86::decode_block_f32_avx512(&blk, mu32, o) };
                return Ok(());
            }
        }
        let blk = dekernels::Block::prepare::<F>(payload, out.len(), scratch)?;
        let mut scan = dekernels::Scan::new(blk.nb);
        if let Some(o) = F::as_f32s_mut(out) {
            let mu32 = f32::from_word(mu.to_word());
            // SAFETY: `ready()` above confirmed AVX2 via cached runtime
            // feature detection.
            (scan.off, scan.w) = unsafe { x86::decode_quads_f32(&blk, mu32, o) };
        } else if let Some(o) = F::as_f64s_mut(out) {
            let mu64 = f64::from_word(mu.to_word());
            // SAFETY: as above — AVX2 confirmed by runtime detection.
            (scan.off, scan.w) = unsafe { x86::decode_quads_f64(&blk, mu64, o) };
        }
        let whole = out.len() / 4;
        if let (Some(&byte), Some(tail)) = (blk.codes.get(whole), out.get_mut(whole * 4..)) {
            scan.decode_byte(&blk, byte, tail, mu);
        }
        return Ok(());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    dekernels::decode_nonconstant_block(payload, out, mu, scratch)
}

/// Every coder backend this CPU runs for `F`, the portable kernel first:
/// the oracle tests run each one directly.
#[cfg(test)]
pub(crate) fn isas<F: SzxFloat>() -> Vec<Isa> {
    let mut isas = vec![Isa::Portable];
    #[cfg(target_arch = "x86_64")]
    {
        if ready() {
            isas.push(Isa::Avx2);
        }
        if Isa::detect::<F>() == Isa::Avx512 {
            isas.push(Isa::Avx512);
        }
    }
    isas
}

/// Fold `bytes` into the CRC32C register `reg` (see
/// [`crate::container::crc32c_update`]): the SSE4.2 `crc32` instruction,
/// 8 bytes at a time in three lanes, when [`crc_ready`], else the
/// slicing-by-8 table.
/// aarch64 stays on the table.
pub(crate) fn crc32c(reg: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if crc_ready() {
        // SAFETY: `crc_ready()` confirmed SSE4.2 via cached runtime feature
        // detection (`is_x86_feature_detected!("sse4.2")`).
        return unsafe { x86::crc32c(reg, bytes) };
    }
    crate::container::crc32c_table(reg, bytes)
}

/// Does the CRC32C run on SSE4.2? The CPU must have it and
/// `SZX_DISABLE_SIMD` be unset; both are read once per process, since a
/// checksum never depends on its backend.
#[cfg(target_arch = "x86_64")]
fn crc_ready() -> bool {
    use std::sync::OnceLock;
    static SSE42: OnceLock<bool> = OnceLock::new();
    *SSE42.get_or_init(|| {
        std::arch::is_x86_feature_detected!("sse4.2")
            && std::env::var_os("SZX_DISABLE_SIMD").is_none_or(|v| v.is_empty())
    })
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::config::{KernelPath, SzxConfig};
    use crate::encode::value_range_on;

    fn cases_f32() -> Vec<Vec<f32>> {
        let mut cases = vec![
            (0..1000).map(|i| (i as f32 * 0.01).sin() * 7.0).collect(),
            (0..513).map(|i| 100.0 + i as f32 * 1e-4).collect(),
            vec![1.5f32; 300],
            (0..97).map(|i| ((i * 37 % 97) as f32) - 48.0).collect(),
        ];
        let mut mixed: Vec<f32> = (0..256).map(|i| (i as f32 * 0.3).cos()).collect();
        mixed[3] = f32::NAN;
        mixed[77] = f32::INFINITY;
        mixed[120] = -0.0;
        cases.push(mixed);
        cases
    }

    #[test]
    fn simd_block_stats_matches_kernel() {
        for data in cases_f32() {
            for blen in [16usize, 128, data.len()] {
                for block in data.chunks(blen) {
                    let a = kernels::block_stats(block);
                    let b = block_stats(block);
                    assert_eq!(a.mu.to_bits(), b.mu.to_bits());
                    assert_eq!(a.radius.to_bits(), b.radius.to_bits());
                }
            }
        }
        let data: Vec<f64> = (0..777).map(|i| (i as f64 * 0.013).sin() * 3.0).collect();
        for block in data.chunks(128) {
            let a = kernels::block_stats(block);
            let b = block_stats(block);
            assert_eq!(a.mu.to_bits(), b.mu.to_bits());
            assert_eq!(a.radius.to_bits(), b.radius.to_bits());
        }
    }

    #[test]
    fn simd_minmax_matches_kernel() {
        for data in cases_f32() {
            let (a0, a1) = kernels::minmax(&data);
            let (b0, b1) = minmax(&data);
            assert_eq!(a0.to_bits(), b0.to_bits());
            assert_eq!(a1.to_bits(), b1.to_bits());
            for parallel in [false, true] {
                assert_eq!(
                    value_range_on(&data, KernelPath::Simd, parallel),
                    crate::config::value_range(&data)
                );
            }
        }
        assert_eq!(
            value_range_on::<f32>(&[f32::NAN; 20], KernelPath::Simd, false),
            0.0
        );
        assert_eq!(value_range_on::<f32>(&[], KernelPath::Simd, false), 0.0);
        let d64: Vec<f64> = (0..321).map(|i| ((i * 31 % 211) as f64) * 0.37).collect();
        let (a0, a1) = kernels::minmax(&d64);
        let (b0, b1) = minmax(&d64);
        assert_eq!(a0.to_bits(), b0.to_bits());
        assert_eq!(a1.to_bits(), b1.to_bits());
    }

    /// `simd::minmax` ≡ `kernels::minmax` bit for bit, and every range scan
    /// of `data` ≡ the scalar oracle's range.
    fn assert_minmax_agrees<F: SzxFloat>(data: &[F], what: &str) {
        let (a0, a1) = kernels::minmax(data);
        let (b0, b1) = minmax(data);
        assert_eq!(a0.to_word(), b0.to_word(), "min of {what}");
        assert_eq!(a1.to_word(), b1.to_word(), "max of {what}");
        let want = crate::config::value_range(data);
        for path in [KernelPath::Simd, KernelPath::Kernel] {
            for parallel in [false, true] {
                assert_eq!(value_range_on(data, path, parallel), want, "{what}");
            }
        }
    }

    /// The cases the four-accumulator AVX2 scan could get wrong, at `F`.
    fn minmax_edge_cases<F: SzxFloat>() {
        let f = F::from_f64;
        // Both zeros as the extreme, one in each of two positions, the rest
        // on one side of zero: every pairing of accumulators, lanes, the
        // unrolled loop, its whole-register tail and the scalar tail.
        let n = 83;
        for (side, what) in [(1.0, "min"), (-1.0, "max")] {
            let base: Vec<F> = (0..n).map(|i| f(side * (1.0 + i as f64))).collect();
            for i in 0..n {
                for j in (0..n).filter(|&j| j != i) {
                    let mut data = base.clone();
                    data[i] = f(-0.0);
                    data[j] = f(0.0);
                    assert_minmax_agrees(&data, &format!("zero {what}: -0 at {i}, +0 at {j}"));
                }
            }
        }
        // NaN in the first stripe, in a later one, in the tail; all NaN.
        let wave: Vec<F> = (0..200).map(|i| f((i as f64 * 0.37).sin() * 5.0)).collect();
        for at in [[0, 100], [3, 40], [9, 199], [31, 32]] {
            let mut data = wave.clone();
            for k in at {
                data[k] = f(f64::NAN);
            }
            assert_minmax_agrees(&data, &format!("NaN at {at:?}"));
        }
        for len in [8, 9, 33, 200] {
            let nan = vec![f(f64::NAN); len];
            assert_minmax_agrees(&nan, &format!("{len} NaNs"));
            assert_eq!(minmax(&nan).0.to_f64(), f64::INFINITY);
            assert_eq!(minmax(&nan).1.to_f64(), f64::NEG_INFINITY);
        }
        // Lengths 8·k ± 1 around the unroll, the extremes at the end.
        for k in 1..=12 {
            for len in [8 * k - 1, 8 * k, 8 * k + 1] {
                let mut data: Vec<F> = (0..len).map(|i| f((i % 7) as f64)).collect();
                data[len - 1] = f(-3.0);
                if len > 1 {
                    data[len - 2] = f(9.0);
                }
                assert_minmax_agrees(&data, &format!("len {len}"));
                let (lo, hi) = minmax(&data);
                assert_eq!((lo.to_f64(), hi.to_f64()), (-3.0, 9.0), "len {len}");
            }
        }
    }

    #[test]
    fn simd_minmax_agrees_on_zeros_nans_and_unroll_edges() {
        minmax_edge_cases::<f32>();
        minmax_edge_cases::<f64>();
    }

    #[test]
    fn simd_streams_are_byte_identical_to_kernel_streams() {
        for data in cases_f32() {
            for eb in [1e-2, 1e-4, 1e-7, 0.0] {
                let base = SzxConfig::absolute(eb);
                let k = crate::compress(&data, &base.with_kernel(KernelPath::Kernel)).unwrap();
                let v = crate::compress(&data, &base.with_kernel(KernelPath::Simd)).unwrap();
                assert_eq!(k, v, "eb={eb}");
                let dk: Vec<f32> = crate::Decoder::new(KernelPath::Kernel, false)
                    .decode(&k)
                    .unwrap();
                let dv: Vec<f32> = crate::Decoder::new(KernelPath::Simd, false)
                    .decode(&k)
                    .unwrap();
                assert_eq!(dk.len(), dv.len());
                for (a, b) in dk.iter().zip(&dv) {
                    assert_eq!(a.to_bits(), b.to_bits(), "eb={eb}");
                }
            }
        }
    }

    #[test]
    fn simd_roundtrips_f64_across_required_lengths() {
        let data: Vec<f64> = (0..600).map(|i| (i as f64 * 0.011).sin() * 40.0).collect();
        for eb in [1e-1, 1e-3, 1e-6, 1e-9, 1e-13, 0.0] {
            let base = SzxConfig::absolute(eb);
            let k = crate::compress(&data, &base.with_kernel(KernelPath::Kernel)).unwrap();
            let v = crate::compress(&data, &base.with_kernel(KernelPath::Simd)).unwrap();
            assert_eq!(k, v, "eb={eb}");
            let dv: Vec<f64> = crate::Decoder::new(KernelPath::Simd, false)
                .decode(&v)
                .unwrap();
            for (a, b) in data.iter().zip(&dv) {
                assert!((a - b).abs() <= eb, "eb={eb}");
            }
        }
    }

    #[test]
    fn simd_decode_rejects_truncations_like_the_kernel() {
        let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.3).sin() * 9.0).collect();
        let bytes = crate::compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
        for cut in 0..bytes.len() {
            let k = crate::Decoder::new(KernelPath::Kernel, false).decode::<f32>(&bytes[..cut]);
            let v = crate::Decoder::new(KernelPath::Simd, false).decode::<f32>(&bytes[..cut]);
            assert_eq!(k.is_err(), v.is_err(), "cut at {cut}");
            if let (Ok(k), Ok(v)) = (k, v) {
                assert_eq!(k.len(), v.len());
                for (a, b) in k.iter().zip(&v) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    /// Every CRC32C backend this CPU runs: the table, and SSE4.2 if present.
    fn crc_backends() -> Vec<fn(u32, &[u8]) -> u32> {
        let mut backends: Vec<fn(u32, &[u8]) -> u32> = vec![crate::container::crc32c_table];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: called only after `is_x86_feature_detected!("sse4.2")`
            // returned true just above.
            backends.push(|reg, bytes| unsafe { x86::crc32c(reg, bytes) });
        }
        backends
    }

    #[test]
    fn crc32c_combine_joins_any_split() {
        use crate::container::crc32c_combine;
        let long: Vec<u8> = (0..20_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % (bound as u64 + 1)) as usize
        };
        for f in crc_backends() {
            let crc = |bytes: &[u8]| !f(!0, bytes);
            // Every cut of 40 bytes at every start 0..8: empty parts, and
            // parts that end on, before and past 8-byte boundaries.
            for start in 0..8 {
                let piece = &long[start..start + 40];
                for cut in 0..=piece.len() {
                    let (a, b) = piece.split_at(cut);
                    let joined = crc32c_combine(crc(a), crc(b), b.len() as u64);
                    assert_eq!(joined, crc(piece), "start {start} cut {cut}");
                }
            }
            // Random pieces cut at random points into three parts, joined
            // in order as a frame's windows are.
            for _ in 0..300 {
                let start = next(64);
                let piece = &long[start..start + next(long.len() - 64)];
                let (i, j) = (next(piece.len()), next(piece.len()));
                let (i, j) = (i.min(j), i.max(j));
                let parts = [&piece[..i], &piece[i..j], &piece[j..]];
                let joined =
                    (parts.iter()).fold(0, |acc, p| crc32c_combine(acc, crc(p), p.len() as u64));
                assert_eq!(joined, crc(piece), "len {} cuts {i} {j}", piece.len());
            }
        }
    }

    #[test]
    fn crc32c_backends_agree_with_the_table() {
        let backends = crc_backends();
        let crc = |f: fn(u32, &[u8]) -> u32, bytes: &[u8]| !f(!0, bytes);
        for f in &backends {
            assert_eq!(crc(*f, b""), 0);
            assert_eq!(crc(*f, b"123456789"), 0xE306_9283);
            assert_eq!(crc(*f, &[0u8; 32]), 0x8A91_36AA);
        }
        let long: Vec<u8> = (0..40_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let bytes = &long[..4096];
        // Every length 0..=1024 at every start offset 0..8, then lengths
        // around whole three-lane blocks of the SSE4.2 loop.
        let lengths = (0..=1024).chain([6143, 6144, 6145, 12_288 + 7, 39_990]);
        for len in lengths {
            for start in 0..8 {
                let piece = &long[start..start + len];
                let want = crc(crate::container::crc32c_table, piece);
                for f in &backends {
                    assert_eq!(crc(*f, piece), want, "start {start} len {len}");
                }
            }
        }
        // Incremental: a 4 KiB buffer cut at every point.
        let whole = crate::container::crc32c(bytes);
        assert_eq!(whole, crc(crate::container::crc32c_table, bytes));
        for cut in 0..=bytes.len() {
            let (a, b) = bytes.split_at(cut);
            let first = crate::container::crc32c(a);
            assert_eq!(
                crate::container::crc32c_update(first, b),
                whole,
                "cut {cut}"
            );
            for f in &backends {
                assert_eq!(!f(f(!0, a), b), whole, "cut {cut}");
            }
        }
        // And a long buffer cut at a stride, across the three-lane blocks.
        let whole = crate::container::crc32c(&long);
        for cut in (0..long.len()).step_by(997) {
            let (a, b) = long.split_at(cut);
            for f in &backends {
                assert_eq!(!f(f(!0, a), b), whole, "long cut {cut}");
            }
        }
    }
}
