//! Branch-free, autovectorizer-friendly implementations of the three hot
//! loops of Algorithm 1 — the paper's premise is that SZx stays ultrafast by
//! restricting itself to adds, bitwise ops, and memcpy (§4), and these
//! kernels restructure the per-value work so the compiler can actually emit
//! that shape:
//!
//! 1. **Range scan** ([`block_stats`], [`minmax`]): min/max over fixed
//!    [`LANES`]-wide accumulator stripes with no NaN branch in the loop body
//!    (NaN presence is OR-accumulated via `is_nan()` alongside the
//!    comparisons), reduced lane-by-lane at the end.
//! 2. **Normalize → shift → XOR → leading-byte coding → commit**
//!    ([`encode_nonconstant`]): one pass, four values per code byte. Each
//!    value becomes its high-aligned, right-shifted word (Formulas 4–5);
//!    its lead code is `clz >> 3` of the XOR with the previous word,
//!    clamped branch-free with `min`; the quad's four codes are packed into
//!    their byte at once.
//! 3. **Mid-byte commit**: every value owes `nb − lead` bytes, but the
//!    kernel always writes a full 8-byte big-endian word (`w << 8·lead`)
//!    straight into the payload and advances the cursor by the true length
//!    — the next store overlaps the garbage tail, so each value is one
//!    unconditional 8-byte store instead of a variable-length append (the
//!    Solution C "memcpy-only" commit of §5.1). The payload is sized for
//!    the block's worst case plus 8 bytes of slack before the block and
//!    trimmed to its true length after it.
//!
//! Every kernel is **byte-for-byte equivalent** to the scalar reference
//! loops in [`crate::block`] / [`crate::encode`] — including the sign of
//! zero in `μ` for mixed-zero blocks and NaN classification — which the
//! roundtrip property suite asserts over the full configuration grid. The
//! scalar loops are kept as the oracle, the scalar
//! [`KernelPath`](crate::config::KernelPath).

#![deny(clippy::cast_possible_truncation)]

use crate::bitio::BitWriter;
use crate::block::{bytes_for, required_length, shift_for, BlockStats};
use crate::config::CommitStrategy;
use crate::contracts::contract;
use crate::float::SzxFloat;

/// Accumulator stripes per scan loop. Eight lanes cover a 256-bit vector of
/// `f32` (one AVX2 register) and two 256-bit vectors of `f64`; the default
/// 128-element block is 16 full stripes.
pub const LANES: usize = 8;

/// Reusable scratch for the Solution A/B encoders: the residual bit pool.
/// [`crate::Encoder::push`] gives each window's thread one (one per call
/// serially, one per pool thread that claims a window in parallel), so the
/// block loop performs **zero** allocations once the pool has grown to the
/// largest block. Solution C needs none: it writes straight into the
/// payload.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Bit pool for Solution A/B residuals.
    bits: BitWriter,
    /// Pool (re)allocation events — flushed to the
    /// `compress.scratch.grows` telemetry counter so tests can assert the
    /// hot loop stays allocation-free after warm-up.
    grows: u64,
}

impl EncodeScratch {
    /// The cleared bit pool, with room for a block of `blen` values of at
    /// most 64 bits each. Amortized free: after the first block of
    /// maximal size this never reallocates.
    #[inline]
    pub(crate) fn bits(&mut self, blen: usize) -> &mut BitWriter {
        if self.bits.capacity() < 8 * blen {
            self.grows += 1;
            self.bits = BitWriter::with_capacity(8 * blen);
        }
        self.bits.clear();
        &mut self.bits
    }

    /// Drain the growth-event count (for the telemetry flush).
    #[inline]
    pub(crate) fn take_grows(&mut self) -> u64 {
        std::mem::take(&mut self.grows)
    }

    /// Bytes currently reserved by the pool — published as the
    /// `compress.scratch.arena_bytes` gauge at the telemetry flush.
    pub(crate) fn arena_bytes(&self) -> u64 {
        self.bits.capacity() as u64
    }
}

/// Branch-free equivalent of [`BlockStats::compute`]: the min/max scan runs
/// over [`LANES`] independent accumulator stripes (select, not branch, per
/// comparison) and NaN presence is folded in with `is_nan()` — no NaN branch
/// in the loop body. Bit-identical to the scalar scan, including the
/// first-element tie-breaking that pins the sign of zero in `μ`.
#[inline]
pub fn block_stats<F: SzxFloat>(block: &[F]) -> BlockStats<F> {
    debug_assert!(!block.is_empty());
    let (stripes, tail) = block.as_chunks::<LANES>();
    let [first, rest @ ..] = stripes else {
        return BlockStats::compute(block);
    };
    if rest.is_empty() {
        return BlockStats::compute(block);
    }
    let (mut mins, mut maxs) = (*first, *first);
    let mut nans = first.map(|d| d.is_nan());
    for stripe in rest {
        let lanes = mins.iter_mut().zip(&mut maxs).zip(&mut nans);
        for (((lo, hi), nan), &d) in lanes.zip(stripe) {
            // `if c { a } else { b }` over floats lowers to a select/vmin —
            // same comparison semantics as the scalar loop (NaN never
            // replaces, ties keep the incumbent).
            *lo = if d < *lo { d } else { *lo };
            *hi = if d > *hi { d } else { *hi };
            *nan |= d.is_nan();
        }
    }
    finish_stats(mins, maxs, nans.contains(&true), tail)
}

/// The end of every striped block scan: reduce the lane extrema in stripe
/// order, then fold in the scalar `tail`. Ties keep the earlier lane or
/// element, so an all-equal block yields exactly its first value, as the
/// scalar scan does.
#[inline]
pub(crate) fn finish_stats<F: SzxFloat>(
    mins: [F; LANES],
    maxs: [F; LANES],
    mut has_nan: bool,
    tail: &[F],
) -> BlockStats<F> {
    let [mut min, lanes_min @ ..] = mins;
    let [mut max, lanes_max @ ..] = maxs;
    for (lo, hi) in lanes_min.into_iter().zip(lanes_max) {
        min = if lo < min { lo } else { min };
        max = if hi > max { hi } else { max };
    }
    for &d in tail {
        min = if d < min { d } else { min };
        max = if d > max { d } else { max };
        has_nan |= d.is_nan();
    }
    BlockStats::from_extrema(min, max, has_nan)
}

/// Branch-free global min/max (NaN-ignoring), the kernel behind the
/// relative-error-bound range scan. Returns `(+inf, -inf)` for all-NaN
/// input, matching the scalar scan's untouched sentinels. A zero extreme
/// is returned as +0.0 (see [`unsigned_zero`]).
#[inline]
pub fn minmax<F: SzxFloat>(data: &[F]) -> (F, F) {
    let mut min = F::from_f64(f64::INFINITY);
    let mut max = F::from_f64(f64::NEG_INFINITY);
    let mut stripes = data.chunks_exact(LANES);
    let mut mins = [min; LANES];
    let mut maxs = [max; LANES];
    for stripe in &mut stripes {
        for j in 0..LANES {
            let d = stripe[j];
            mins[j] = if d < mins[j] { d } else { mins[j] };
            maxs[j] = if d > maxs[j] { d } else { maxs[j] };
        }
    }
    for j in 0..LANES {
        min = if mins[j] < min { mins[j] } else { min };
        max = if maxs[j] > max { maxs[j] } else { max };
    }
    for &d in stripes.remainder() {
        min = if d < min { d } else { min };
        max = if d > max { d } else { max };
    }
    (unsigned_zero(min), unsigned_zero(max))
}

/// `x`, or +0.0 if `x` is a zero of either sign. Which zero a min/max scan
/// keeps depends on how its accumulators split the data, since −0.0 and
/// +0.0 compare equal; the range `max − min` never depends on it. Every
/// [`minmax`] backend returns its zero extremes through this, so they
/// agree bit for bit whatever their accumulator layout.
#[inline]
pub(crate) fn unsigned_zero<F: SzxFloat>(x: F) -> F {
    if x == F::ZERO {
        F::ZERO
    } else {
        x
    }
}

/// Kernel encode of one non-constant block: same payload layout and bytes as
/// the scalar [`crate::encode`] path, in one pass of four values per code
/// byte, the whole-byte runs committed straight into `payload`.
pub(crate) fn encode_nonconstant<F: SzxFloat>(
    block: &[F],
    stats: &BlockStats<F>,
    eb: f64,
    strategy: CommitStrategy,
    payload: &mut Vec<u8>,
    scratch: &mut EncodeScratch,
) -> F {
    let req_len = required_length::<F>(stats.radius, eb);
    let raw = req_len == F::FULL_BITS;
    let mu = if raw { F::ZERO } else { stats.mu };
    let blen = block.len();

    #[expect(clippy::cast_possible_truncation, reason = "req_len <= FULL_BITS = 64")]
    payload.push(req_len as u8);

    // Solution C right-shifts so the required bits fill whole bytes
    // (Formula 5) and commits `nb` bytes a value; A/B keep the word
    // unshifted, and B commits its `R/8` whole bytes the same way.
    let r8 = (req_len / 8) as usize;
    let (s, lead_cap, whole) = match strategy {
        CommitStrategy::ByteAligned => (shift_for(req_len), bytes_for(req_len), bytes_for(req_len)),
        CommitStrategy::BitPack => (0, r8, 0),
        CommitStrategy::BytePlusResidual => (0, r8, r8),
    };
    // The code bytes, then the whole-byte pool: room for its worst case
    // plus the 8 bytes of slack the overlapping stores need, trimmed to its
    // true length at the end.
    let codes_at = payload.len();
    let ncodes = blen.div_ceil(4);
    payload.resize(codes_at + ncodes + whole * blen + 8, 0);
    // PANIC-OK: the resize above made payload longer than codes_at + ncodes.
    let (codes, pool) = payload[codes_at..].split_at_mut(ncodes);
    let quads = Quads {
        block,
        raw,
        mu,
        s,
        #[expect(clippy::cast_possible_truncation, reason = "clamped to at most 3")]
        lead_cap: lead_cap.min(3) as u32,
    };
    let mut pos = 0usize;
    let bits = match strategy {
        CommitStrategy::ByteAligned => {
            quads.each(codes, |w, lead| {
                commit(pool, pos, w, lead);
                pos += whole - lead as usize;
            });
            None
        }
        CommitStrategy::BitPack => {
            let bits = scratch.bits(blen);
            quads.each(codes, |w, lead| {
                let t = req_len - 8 * lead;
                if t > 0 {
                    bits.write_bits((w << (8 * lead)) >> (64 - t), t);
                }
            });
            Some(bits)
        }
        CommitStrategy::BytePlusResidual => {
            // The scalar loop's `shift_out = 8·(lead + α)` collapses to
            // `8·(R/8)`: every value's β residual bits sit at one offset.
            let beta = req_len % 8;
            let shift_out = 8 * (req_len / 8);
            let bits = scratch.bits(blen);
            quads.each(codes, |w, lead| {
                commit(pool, pos, w, lead);
                pos += whole - lead as usize;
                if beta > 0 {
                    bits.write_bits((w << shift_out) >> (64 - beta), beta);
                }
            });
            Some(bits)
        }
    };
    payload.truncate(codes_at + ncodes + pos);
    if let Some(bits) = bits {
        payload.extend_from_slice(bits.as_bytes());
    }
    mu
}

/// One non-constant block's values on their way to words and lead codes.
struct Quads<'a, F> {
    block: &'a [F],
    /// Bit-exact block: the words are the values' own bits.
    raw: bool,
    mu: F,
    /// Right shift of Formula 5 (0 for Solutions A and B).
    s: u32,
    /// Largest lead code: the strategy's whole bytes, at most 3.
    lead_cap: u32,
}

impl<F: SzxFloat> Quads<'_, F> {
    /// Hand each value's word `w` and clamped lead code (whole leading
    /// bytes it shares with the previous word) to `commit`, in order, and
    /// pack each quad's four codes MSB-first into its byte of `codes`.
    #[inline(always)]
    fn each(&self, codes: &mut [u8], mut commit: impl FnMut(u64, u32)) {
        let mut prev = 0u64;
        for (quad, code) in self.block.chunks(4).zip(codes) {
            let mut byte = 0u32;
            for (&d, at) in quad.iter().zip([6, 4, 2, 0]) {
                // The bit-exact variant must not touch the value
                // arithmetically: `d - 0.0` would quieten signaling NaNs.
                let v = if self.raw { d } else { d - self.mu };
                let w = v.to_word() >> self.s;
                let lead = ((w ^ prev).leading_zeros() >> 3).min(self.lead_cap);
                byte |= lead << at;
                commit(w, lead);
                prev = w;
            }
            #[expect(clippy::cast_possible_truncation, reason = "four 2-bit codes")]
            {
                *code = byte as u8;
            }
        }
    }
}

/// Commit bytes `lead..` of the big-endian word `w` at `pool[pos..]`: `w <<
/// 8·lead` moves byte `lead` to the front, so one unconditional 8-byte
/// store writes them, plus a garbage tail the next store overlaps.
#[inline(always)]
fn commit(pool: &mut [u8], pos: usize, w: u64, lead: u32) {
    contract!(
        pos + 8 <= pool.len(),
        "overlapping store at {pos} must stay inside the slack-padded pool"
    );
    // PANIC-OK: every value moves pos on by at most its whole bytes, and
    // the pool holds every value's whole bytes plus 8 of slack.
    pool[pos..pos + 8].copy_from_slice(&(w << (8 * lead)).to_be_bytes());
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::config::KernelPath;
    use crate::encode::value_range_on;

    #[test]
    fn block_stats_matches_scalar_on_plain_data() {
        for n in [1usize, 7, 8, 15, 16, 17, 128, 1000] {
            let block: Vec<f32> = (0..n).map(|i| ((i * 37 % 97) as f32) - 48.0).collect();
            let a = BlockStats::compute(&block);
            let b = block_stats(&block);
            assert_eq!(a.mu.to_bits(), b.mu.to_bits(), "mu n={n}");
            assert_eq!(a.radius.to_bits(), b.radius.to_bits(), "radius n={n}");
        }
    }

    #[test]
    fn block_stats_matches_scalar_on_nan_blocks() {
        for pos in [0usize, 3, 9, 127] {
            let mut block = vec![1.5f32; 128];
            block[pos] = f32::NAN;
            let a = BlockStats::compute(&block);
            let b = block_stats(&block);
            assert!(a.radius.is_nan() && b.radius.is_nan(), "pos={pos}");
            assert_eq!(a.mu.to_bits(), b.mu.to_bits());
        }
    }

    #[test]
    fn block_stats_preserves_zero_sign_of_mu() {
        // All-zero mixed-sign blocks: μ must be exactly block[0], sign bit
        // included, in both paths (it is stored verbatim in the stream).
        let mut block = vec![0.0f32; 64];
        block[0] = -0.0;
        block[13] = -0.0;
        let a = BlockStats::compute(&block);
        let b = block_stats(&block);
        assert_eq!(a.mu.to_bits(), (-0.0f32).to_bits());
        assert_eq!(a.mu.to_bits(), b.mu.to_bits());
        assert_eq!(a.radius.to_bits(), b.radius.to_bits());
    }

    #[test]
    fn minmax_matches_scalar_value_range() {
        let data: Vec<f64> = (0..1003)
            .map(|i| ((i * 31 % 211) as f64) * 0.37 - 40.0)
            .collect();
        let with_nan: Vec<f32> = vec![f32::NAN, 3.0, -1.0, f32::NAN, 7.5];
        for path in [KernelPath::Kernel, KernelPath::Scalar] {
            for parallel in [false, true] {
                assert_eq!(
                    value_range_on(&data, path, parallel),
                    crate::config::value_range(&data)
                );
                assert_eq!(
                    value_range_on(&with_nan, path, parallel),
                    crate::config::value_range(&with_nan)
                );
                assert_eq!(value_range_on::<f32>(&[f32::NAN; 20], path, parallel), 0.0);
                assert_eq!(value_range_on::<f32>(&[], path, parallel), 0.0);
            }
        }
    }

    /// xorshift64* — a fixed, dependency-free source of forged values.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    /// A random block in one of four shapes: raw bit patterns (NaN
    /// payloads, infinities, both zeros), values sharing their high bytes
    /// (long lead runs, every lead code), zeros of both signs with a few
    /// mixed-sign values, and runs of repeats punctuated by jumps.
    fn forged_block<F: SzxFloat>(rng: &mut Rng, blen: usize, shape: u64) -> Vec<F> {
        let bits = |w: u64| F::from_word(w & (u64::MAX << (64 - F::FULL_BITS)));
        let base = rng.next();
        let mut last = bits(base);
        (0..blen)
            .map(|_| {
                let r = rng.next();
                match shape {
                    0 => bits(r),
                    1 => bits(base ^ (r >> (8 + r % 40))),
                    2 if r.is_multiple_of(7) => F::from_f64(f64::from(r as u32) - 2e9),
                    2 => F::from_f64(if r.is_multiple_of(2) { 0.0 } else { -0.0 }),
                    _ => {
                        if r.is_multiple_of(5) {
                            last = bits(r);
                        }
                        last
                    }
                }
            })
            .collect()
    }

    /// Encode `block` as a non-constant block at required length `req_len`
    /// on every path and assert the payloads and μs agree bit for bit. The
    /// stats are forged: `μ` as given, the radius `2^(req_len − SIGN_EXP_BITS
    /// − 1)` against a bound of 1, which is exactly `req_len`.
    fn assert_encoders_agree<F: SzxFloat>(block: &[F], mu: F, req_len: u32, what: &str) {
        let radius = F::from_f64((2f64).powi(req_len as i32 - F::SIGN_EXP_BITS as i32 - 1));
        assert_eq!(required_length::<F>(radius, 1.0), req_len, "{what}");
        let stats = BlockStats { mu, radius };
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            let mut scratch = EncodeScratch::default();
            let mut run = |path: KernelPath| {
                // Appended after other bytes, as in a window's payload.
                let mut payload = vec![0xA5; 3];
                let mu = path.encode_nonconstant(
                    block,
                    &stats,
                    1.0,
                    strategy,
                    &mut payload,
                    &mut scratch,
                );
                (mu.to_word(), payload)
            };
            let scalar = run(KernelPath::Scalar);
            assert_eq!(
                scalar,
                run(KernelPath::Kernel),
                "kernel: {what} {strategy:?}"
            );
            assert_eq!(scalar, run(KernelPath::Simd), "simd: {what} {strategy:?}");
            // Each coder backend this CPU has, not only the one dispatch
            // picks: on an AVX-512 host the AVX2 coder is never detected.
            for isa in crate::simd::isas::<F>() {
                let mut payload = vec![0xA5; 3];
                let mu = crate::simd::encode_on(
                    isa,
                    block,
                    &stats,
                    1.0,
                    strategy,
                    &mut payload,
                    &mut scratch,
                );
                let what = format!("{}: {what} {strategy:?}", isa.name());
                assert_eq!(scalar, (mu.to_word(), payload), "{what}");
            }
        }
    }

    /// Streams of forged blocks of length `blen`, over more than two
    /// windows and ending in a ragged block: every path, serial and
    /// parallel, every strategy, writes the scalar stream.
    fn assert_streams_agree<F: SzxFloat>(rng: &mut Rng, blen: usize) {
        let n = 2 * crate::window_len::<F>(blen) + 3 * blen + blen.div_ceil(2);
        let mut data: Vec<F> = Vec::with_capacity(n);
        while data.len() < n {
            let scale = (2f64).powi((rng.next() % 41) as i32 - 20);
            let shape = rng.next() % 4;
            let block = forged_block::<F>(rng, blen, shape);
            let scaled = block.into_iter().map(|d| match shape {
                1 => d,
                _ => F::from_f64(d.to_f64() * scale),
            });
            data.extend(scaled.take(n - data.len()));
        }
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            let cfg = crate::SzxConfig::absolute(1e-3)
                .with_block_size(blen)
                .with_strategy(strategy);
            let scalar = crate::compress(&data, &cfg.with_kernel(KernelPath::Scalar)).unwrap();
            for path in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
                for parallel in [false, true] {
                    let cfg = cfg.with_kernel(path).with_parallel(parallel);
                    let bytes = crate::compress(&data, &cfg).unwrap();
                    assert!(scalar == bytes, "{} blen={blen} {cfg:?}", F::NAME);
                }
            }
        }
    }

    /// Forged blocks of every required length and of lengths around the
    /// quad and sixteen-lane steps encode identically on every path and
    /// backend; streams of some of those lengths as well.
    fn forged_blocks_agree<F: SzxFloat>(seed: u64) {
        let mut rng = Rng(seed);
        for blen in (1..=17).chain(31..=33).chain(127..=129).chain([4096]) {
            for req_len in F::SIGN_EXP_BITS..=F::FULL_BITS {
                for shape in 0..4 {
                    let block = forged_block::<F>(&mut rng, blen, shape);
                    let mu = [F::ZERO, block[0], forged_block::<F>(&mut rng, 1, 0)[0]]
                        [(rng.next() % 3) as usize];
                    let what = format!("{} blen={blen} req_len={req_len} shape={shape}", F::NAME);
                    assert_encoders_agree(&block, mu, req_len, &what);
                }
            }
            if blen <= 8 || blen >= 127 {
                assert_streams_agree::<F>(&mut rng, blen);
            }
        }
    }

    #[test]
    fn forged_blocks_encode_identically_on_every_path() {
        forged_blocks_agree::<f32>(0x5eed_e001);
        forged_blocks_agree::<f64>(0x5eed_e002);
    }

    #[test]
    fn scratch_grows_once_per_high_water_mark() {
        let mut s = EncodeScratch::default();
        s.bits(128);
        s.bits(64);
        s.bits(128);
        assert_eq!(s.grows, 1);
        s.bits(4096);
        assert_eq!(s.take_grows(), 2);
        assert!(s.arena_bytes() >= 4096 * 8);
    }
}
