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
//! 2. **Normalize → shift → XOR → leading-byte coding**
//!    ([`encode_nonconstant`]): one pass materializes the high-aligned,
//!    right-shifted words (Formulas 4–5), a second pass XORs each word with
//!    its predecessor through a sliding window (no loop-carried scalar) and
//!    derives the 2-bit lead codes with table-free bit arithmetic
//!    (`clz >> 3`, clamped with a branch-free `min`), a third packs four
//!    codes per byte.
//! 3. **Mid-byte committer**: every value stores `nb − lead` bytes, but the
//!    kernel always writes a full 8-byte big-endian word (`w << 8·lead`)
//!    into the [`EncodeScratch`] arena and advances the cursor by the true
//!    length — the next store overlaps the garbage tail, so the inner loop
//!    is an unconditional 8-byte store instead of a variable-length
//!    bounds-checked `Vec` append (the Solution C "memcpy-only" commit of
//!    §5.1, without the per-value call).
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

/// Reusable per-chunk scratch for the encode kernels. Threaded through
/// [`crate::encode::encode_blocks`] (serial: one per call; parallel: one per
/// rayon chunk) so the block loop performs **zero** allocations once the
/// arenas have grown to the chunk's largest block.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// High-aligned, normalized, shifted words — one per block element.
    /// `pub(crate)`: the SIMD encoder materializes these with intrinsics
    /// and then shares the pack/commit passes below.
    pub(crate) words: Vec<u64>,
    /// 2-bit leading-byte code per element (stored unpacked, one byte each).
    pub(crate) leads: Vec<u8>,
    /// Mid-byte arena: worst case 8 bytes per element, plus 8 bytes of slack
    /// so the committer's unconditional 8-byte stores never overrun.
    pub(crate) mid: Vec<u8>,
    /// Whole-byte pool for Solution A/B scalar fallbacks.
    pub(crate) bytes_pool: Vec<u8>,
    /// Bit pool for Solution A/B residuals.
    pub(crate) bits: BitWriter,
    /// Arena (re)allocation events — flushed to the
    /// `compress.scratch.grows` telemetry counter so tests can assert the
    /// hot loop stays allocation-free after warm-up.
    pub(crate) grows: u64,
}

impl EncodeScratch {
    /// Grow the arenas to hold a block of `blen` elements. Amortized free:
    /// after the first block of maximal size this never reallocates.
    #[inline]
    pub(crate) fn ensure(&mut self, blen: usize) {
        if self.words.len() < blen {
            self.grows += 1;
            self.words.resize(blen, 0);
            self.leads.resize(blen, 0);
            self.mid.resize(blen * 8 + 8, 0);
        }
        contract!(
            self.mid.len() >= blen * 8 + 8,
            "mid-byte arena sized for {blen} elements plus slack"
        );
    }

    /// Drain the growth-event count (for the telemetry flush).
    #[inline]
    pub(crate) fn take_grows(&mut self) -> u64 {
        std::mem::take(&mut self.grows)
    }

    /// Bytes currently reserved by the arenas — published as the
    /// `compress.scratch.arena_bytes` gauge at the telemetry flush.
    pub(crate) fn arena_bytes(&self) -> u64 {
        (self.words.capacity() * 8
            + self.leads.capacity()
            + self.mid.capacity()
            + self.bytes_pool.capacity()) as u64
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
/// the scalar [`crate::encode`] path, produced by four flat passes over the
/// scratch arenas instead of one branchy per-value loop.
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
    scratch.ensure(blen);

    #[expect(clippy::cast_possible_truncation, reason = "req_len <= FULL_BITS = 64")]
    payload.push(req_len as u8);

    // Pass 1 — normalize and shift (Formula 5). Solution C right-shifts so
    // the required bits fill whole bytes; A/B keep the word unshifted. The
    // bit-exact (`raw`) variant must not touch the value arithmetically:
    // `d - 0.0` would quieten signaling-NaN payloads.
    let s = match strategy {
        CommitStrategy::ByteAligned => shift_for(req_len),
        _ => 0,
    };
    // PANIC-OK: ensure(blen) above sized the arenas to at least blen.
    let words = &mut scratch.words[..blen];
    if raw {
        for (w, &d) in words.iter_mut().zip(block) {
            *w = d.to_word() >> s;
        }
    } else {
        for (w, &d) in words.iter_mut().zip(block) {
            *w = (d - mu).to_word() >> s;
        }
    }

    // Pass 2 — XOR leading-byte codes, table-free: `clz >> 3` counts whole
    // identical leading bytes, clamped branch-free to the strategy's cap.
    // The predecessor comes from a two-element window over the materialized
    // words, so there is no loop-carried scalar dependence.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "both arms are clamped to at most 3"
    )]
    let lead_cap = match strategy {
        CommitStrategy::ByteAligned => bytes_for(req_len).min(3),
        _ => (req_len / 8).min(3) as usize,
    } as u8;
    // PANIC-OK: as for words.
    let leads = &mut scratch.leads[..blen];
    #[expect(
        clippy::cast_possible_truncation,
        reason = "leading_zeros() <= 64, so clz >> 3 <= 8 fits u8"
    )]
    // PANIC-OK: a non-constant block holds at least one value.
    let first = (words[0].leading_zeros() >> 3) as u8;
    leads[0] = first.min(lead_cap); // PANIC-OK: as above
    #[expect(clippy::cast_possible_truncation, reason = "clz >> 3 <= 8 fits u8")]
    // PANIC-OK: as above, so leads[1..] is at worst empty.
    for (l, pair) in leads[1..].iter_mut().zip(words.windows(2)) {
        // PANIC-OK: windows(2) yields pairs.
        let xor = pair[0] ^ pair[1];
        *l = ((xor.leading_zeros() >> 3) as u8).min(lead_cap);
    }

    // Pass 3 — pack four 2-bit codes per byte, MSB-first.
    pack_lead_codes(leads, payload);

    // Pass 4 — commit.
    match strategy {
        CommitStrategy::ByteAligned => {
            let nb = bytes_for(req_len);
            commit_byte_aligned(words, leads, nb, &mut scratch.mid, payload);
        }
        CommitStrategy::BitPack => {
            scratch.bits.clear();
            for (&w, &lead) in words.iter().zip(leads.iter()) {
                let t = req_len - 8 * lead as u32;
                if t > 0 {
                    scratch
                        .bits
                        .write_bits((w << (8 * lead as u32)) >> (64 - t), t);
                }
            }
            payload.extend_from_slice(scratch.bits.as_bytes());
        }
        CommitStrategy::BytePlusResidual => {
            // Whole-byte pool through the same arena committer (α bytes per
            // value), then a constant-width β-bit residual pool: the scalar
            // loop's `shift_out = 8·(lead + α)` collapses to `8·(R/8)`.
            let beta = req_len % 8;
            let base_alpha = (req_len / 8) as usize;
            #[expect(clippy::cast_possible_truncation, reason = "base_alpha <= 8")]
            let shift_out = 8 * base_alpha as u32;
            scratch.bits.clear();
            let mid = scratch.mid.as_mut_slice();
            let mut pos = 0usize;
            for (&w, &lead) in words.iter().zip(leads.iter()) {
                let lead = lead as usize;
                contract!(
                    lead <= base_alpha && pos + 8 <= mid.len(),
                    "byte-pool store at {pos} must stay inside the slack-padded arena"
                );
                #[expect(clippy::cast_possible_truncation, reason = "lead <= lead_cap <= 3")]
                // PANIC-OK: the contract above bounds pos + 8.
                mid[pos..pos + 8].copy_from_slice(&(w << (8 * lead as u32)).to_be_bytes());
                pos += base_alpha - lead;
                if beta > 0 {
                    scratch
                        .bits
                        .write_bits((w << shift_out) >> (64 - beta), beta);
                }
            }
            payload.extend_from_slice(&mid[..pos]); // PANIC-OK: pos <= mid.len() - 8
            payload.extend_from_slice(scratch.bits.as_bytes());
        }
    }
    mu
}

/// Pack four 2-bit lead codes per byte, MSB-first, plus a remainder byte —
/// the shared pass 3 of the kernel and SIMD encoders. `leads` may be any
/// length; a non-multiple-of-4 tail packs into one final partial byte, so
/// the SIMD path may call this on just the tail after packing full groups
/// with intrinsics (the split point must be a multiple of 4).
#[inline]
pub(crate) fn pack_lead_codes(leads: &[u8], payload: &mut Vec<u8>) {
    let (quads, rem) = leads.as_chunks::<4>();
    for &[a, b, c, d] in quads {
        payload.push(a << 6 | b << 4 | c << 2 | d);
    }
    if !rem.is_empty() {
        let mut b = 0u8;
        for (j, &l) in rem.iter().enumerate() {
            b |= l << (6 - 2 * j);
        }
        payload.push(b);
    }
}

/// The Solution C mid-byte committer — the shared pass 4 of the kernel and
/// SIMD encoders: value i owes bytes `lead..nb` of its big-endian word.
/// `w << 8·lead` moves byte `lead` to the front, so one unconditional
/// 8-byte store writes them (plus a garbage tail the next store overlaps);
/// the cursor advances by the true length. The arena carries 8 bytes of
/// slack, so the slice index below never goes out of bounds.
#[inline]
pub(crate) fn commit_byte_aligned(
    words: &[u64],
    leads: &[u8],
    nb: usize,
    mid: &mut [u8],
    payload: &mut Vec<u8>,
) {
    let mut pos = 0usize;
    for (&w, &lead) in words.iter().zip(leads.iter()) {
        let lead = lead as usize;
        contract!(
            lead <= nb && pos + 8 <= mid.len(),
            "committer store at {pos} must stay inside the slack-padded arena"
        );
        #[expect(clippy::cast_possible_truncation, reason = "lead <= lead_cap <= 3")]
        // PANIC-OK: the contract above bounds pos + 8.
        mid[pos..pos + 8].copy_from_slice(&(w << (8 * lead as u32)).to_be_bytes());
        pos += nb - lead;
    }
    payload.extend_from_slice(&mid[..pos]); // PANIC-OK: pos <= mid.len() - 8
}

#[cfg(test)]
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

    #[test]
    fn scratch_grows_once_per_high_water_mark() {
        let mut s = EncodeScratch::default();
        s.ensure(128);
        s.ensure(64);
        s.ensure(128);
        assert_eq!(s.grows, 1);
        s.ensure(4096);
        assert_eq!(s.grows, 2);
        assert!(s.mid.len() >= 4096 * 8 + 8);
    }
}
