//! AVX2 (and, for [`crc32c`], SSE4.2) backends for the dispatch layer in
//! [`super`].
//!
//! Every function here carries `#[target_feature(enable = "avx2")]` (or
//! `"sse4.2"`) and is therefore unsafe to *call* from non-feature contexts:
//! the dispatch layer guards every call with the cached
//! `is_x86_feature_detected!` check and documents it with a `SAFETY:`
//! comment (enforced by szx-audit).
//! Inside the bodies, only the pointer intrinsics (loads, stores, gathers)
//! are `unsafe`; the arithmetic/shuffle intrinsics are safe once the
//! feature is statically enabled.
//!
//! The kernels mirror [`crate::kernels`] / [`crate::dekernels`] pass for
//! pass; comments note where an instruction choice is forced by the
//! byte-identity contract (e.g. the operand order of `vminps`/`vmaxps`,
//! which return their second operand on ties and on NaN, exactly the
//! scalar select's incumbent).

#![allow(unsafe_code)]
#![deny(clippy::cast_possible_truncation)]

use core::arch::x86_64::*;

use crate::block::BlockStats;
use crate::dekernels::Block;
use crate::float::SzxFloat;
use crate::kernels::{finish_stats, LANES};

/// AVX2 equivalent of [`crate::kernels::block_stats`] for `f32`: one
/// 8-lane register of min/max stripes, NaN presence OR-accumulated from
/// unordered self-compares. Caller guarantees `block.len() >= 2 * LANES`.
#[target_feature(enable = "avx2")]
pub(super) fn block_stats_f32(block: &[f32]) -> BlockStats<f32> {
    let n = block.len();
    debug_assert!(n >= 2 * LANES);
    let full = n / LANES;
    let ptr = block.as_ptr();
    // SAFETY: n >= 2 * LANES (caller contract), so the first 8-lane load
    // is in bounds.
    let first = unsafe { _mm256_loadu_ps(ptr) };
    let mut mins = first;
    let mut maxs = first;
    let mut unord = _mm256_cmp_ps::<_CMP_UNORD_Q>(first, first);
    for k in 1..full {
        // SAFETY: k < full = n / LANES, so lanes k*8 .. k*8+8 are in bounds.
        let d = unsafe { _mm256_loadu_ps(ptr.add(k * LANES)) };
        // `vminps(d, acc)` is `d < acc ? d : acc` and `vmaxps(d, acc)` is
        // `d > acc ? d : acc`: both return the second operand, the
        // incumbent, on ties and whenever either operand is NaN, which is
        // exactly the scalar select. The reverse order would let a NaN `d`
        // replace the incumbent.
        mins = _mm256_min_ps(d, mins);
        maxs = _mm256_max_ps(d, maxs);
        unord = _mm256_or_ps(unord, _mm256_cmp_ps::<_CMP_UNORD_Q>(d, d));
    }
    let mut minl = [0f32; LANES];
    let mut maxl = [0f32; LANES];
    // SAFETY: each array is exactly 8 f32 = 32 bytes, matching the store.
    unsafe {
        _mm256_storeu_ps(minl.as_mut_ptr(), mins);
        _mm256_storeu_ps(maxl.as_mut_ptr(), maxs);
    }
    let has_nan = _mm256_movemask_ps(unord) != 0;
    // Lane reduction in stripe order, then the scalar tail — identical
    // select semantics to the portable kernel.
    finish_stats(minl, maxl, has_nan, block.as_chunks::<LANES>().1)
}

/// AVX2 equivalent of [`crate::kernels::block_stats`] for `f64`: the same
/// 8-wide stripe as the portable kernel, held in two 4-lane registers.
/// Caller guarantees `block.len() >= 2 * LANES`.
#[target_feature(enable = "avx2")]
pub(super) fn block_stats_f64(block: &[f64]) -> BlockStats<f64> {
    let n = block.len();
    debug_assert!(n >= 2 * LANES);
    let full = n / LANES;
    let ptr = block.as_ptr();
    // SAFETY: n >= 2 * LANES = 16 (caller contract), so both 4-lane loads
    // of the first stripe are in bounds.
    let (first_lo, first_hi) = unsafe { (_mm256_loadu_pd(ptr), _mm256_loadu_pd(ptr.add(4))) };
    let (mut min_lo, mut min_hi) = (first_lo, first_hi);
    let (mut max_lo, mut max_hi) = (first_lo, first_hi);
    let mut unord = _mm256_or_pd(
        _mm256_cmp_pd::<_CMP_UNORD_Q>(first_lo, first_lo),
        _mm256_cmp_pd::<_CMP_UNORD_Q>(first_hi, first_hi),
    );
    for k in 1..full {
        // SAFETY: k < full = n / LANES, so lanes k*8 .. k*8+8 are in bounds.
        let (d_lo, d_hi) = unsafe {
            (
                _mm256_loadu_pd(ptr.add(k * LANES)),
                _mm256_loadu_pd(ptr.add(k * LANES + 4)),
            )
        };
        // Incumbent second, as in `block_stats_f32`.
        min_lo = _mm256_min_pd(d_lo, min_lo);
        min_hi = _mm256_min_pd(d_hi, min_hi);
        max_lo = _mm256_max_pd(d_lo, max_lo);
        max_hi = _mm256_max_pd(d_hi, max_hi);
        unord = _mm256_or_pd(unord, _mm256_cmp_pd::<_CMP_UNORD_Q>(d_lo, d_lo));
        unord = _mm256_or_pd(unord, _mm256_cmp_pd::<_CMP_UNORD_Q>(d_hi, d_hi));
    }
    let mut minl = [0f64; LANES];
    let mut maxl = [0f64; LANES];
    // SAFETY: each half-store writes 4 f64 into an 8-element array.
    unsafe {
        _mm256_storeu_pd(minl.as_mut_ptr(), min_lo);
        _mm256_storeu_pd(minl.as_mut_ptr().add(4), min_hi);
        _mm256_storeu_pd(maxl.as_mut_ptr(), max_lo);
        _mm256_storeu_pd(maxl.as_mut_ptr().add(4), max_hi);
    }
    let has_nan = _mm256_movemask_pd(unord) != 0;
    finish_stats(minl, maxl, has_nan, block.as_chunks::<LANES>().1)
}

/// Independent min/max accumulators of the [`minmax_f32`] and
/// [`minmax_f64`] loops: each `vminps`/`vmaxps` waits only on its own
/// register, so four loads are in flight per step instead of one chain.
const ACCS: usize = 4;

/// AVX2 global min/max for `f32`, NaN-ignoring, `(+inf, -inf)` sentinels.
/// The extrema are those of [`crate::kernels::minmax`]; the sign of a zero
/// extreme may differ, which the dispatch wrapper canonicalizes. Caller
/// guarantees `data.len() >= LANES`.
#[target_feature(enable = "avx2")]
pub(super) fn minmax_f32(data: &[f32]) -> (f32, f32) {
    const W: usize = 8;
    let n = data.len();
    debug_assert!(n >= LANES);
    let ptr = data.as_ptr();
    let mut mins = [_mm256_set1_ps(f32::INFINITY); ACCS];
    let mut maxs = [_mm256_set1_ps(f32::NEG_INFINITY); ACCS];
    let steps = n / (ACCS * W);
    for k in 0..steps {
        for j in 0..ACCS {
            // SAFETY: k < n / (ACCS * W) and j < ACCS, so lanes
            // (k·ACCS + j)·W .. +W are in bounds.
            let d = unsafe { _mm256_loadu_ps(ptr.add((k * ACCS + j) * W)) };
            // Incumbent second: NaN in `d` never replaces it.
            mins[j] = _mm256_min_ps(d, mins[j]);
            maxs[j] = _mm256_max_ps(d, maxs[j]);
        }
    }
    for k in steps * ACCS..n / W {
        // SAFETY: k < n / W, so lanes k·W .. k·W + W are in bounds.
        let d = unsafe { _mm256_loadu_ps(ptr.add(k * W)) };
        mins[0] = _mm256_min_ps(d, mins[0]);
        maxs[0] = _mm256_max_ps(d, maxs[0]);
    }
    // No accumulator holds NaN (the sentinels are not NaN and NaN never
    // replaces), so the merge is a plain min/max.
    let min = _mm256_min_ps(
        _mm256_min_ps(mins[0], mins[1]),
        _mm256_min_ps(mins[2], mins[3]),
    );
    let max = _mm256_max_ps(
        _mm256_max_ps(maxs[0], maxs[1]),
        _mm256_max_ps(maxs[2], maxs[3]),
    );
    let mut minl = [0f32; W];
    let mut maxl = [0f32; W];
    // SAFETY: each array is exactly 8 f32 = 32 bytes, matching the store.
    unsafe {
        _mm256_storeu_ps(minl.as_mut_ptr(), min);
        _mm256_storeu_ps(maxl.as_mut_ptr(), max);
    }
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for j in 0..W {
        min = if minl[j] < min { minl[j] } else { min };
        max = if maxl[j] > max { maxl[j] } else { max };
    }
    for &d in &data[n / W * W..] {
        min = if d < min { d } else { min };
        max = if d > max { d } else { max };
    }
    (min, max)
}

/// AVX2 global min/max for `f64`; see [`minmax_f32`]. Caller guarantees
/// `data.len() >= LANES`.
#[target_feature(enable = "avx2")]
pub(super) fn minmax_f64(data: &[f64]) -> (f64, f64) {
    const W: usize = 4;
    let n = data.len();
    debug_assert!(n >= LANES);
    let ptr = data.as_ptr();
    let mut mins = [_mm256_set1_pd(f64::INFINITY); ACCS];
    let mut maxs = [_mm256_set1_pd(f64::NEG_INFINITY); ACCS];
    let steps = n / (ACCS * W);
    for k in 0..steps {
        for j in 0..ACCS {
            // SAFETY: k < n / (ACCS * W) and j < ACCS, so lanes
            // (k·ACCS + j)·W .. +W are in bounds.
            let d = unsafe { _mm256_loadu_pd(ptr.add((k * ACCS + j) * W)) };
            mins[j] = _mm256_min_pd(d, mins[j]);
            maxs[j] = _mm256_max_pd(d, maxs[j]);
        }
    }
    for k in steps * ACCS..n / W {
        // SAFETY: k < n / W, so lanes k·W .. k·W + W are in bounds.
        let d = unsafe { _mm256_loadu_pd(ptr.add(k * W)) };
        mins[0] = _mm256_min_pd(d, mins[0]);
        maxs[0] = _mm256_max_pd(d, maxs[0]);
    }
    let min = _mm256_min_pd(
        _mm256_min_pd(mins[0], mins[1]),
        _mm256_min_pd(mins[2], mins[3]),
    );
    let max = _mm256_max_pd(
        _mm256_max_pd(maxs[0], maxs[1]),
        _mm256_max_pd(maxs[2], maxs[3]),
    );
    let mut minl = [0f64; W];
    let mut maxl = [0f64; W];
    // SAFETY: each array is exactly 4 f64 = 32 bytes, matching the store.
    unsafe {
        _mm256_storeu_pd(minl.as_mut_ptr(), min);
        _mm256_storeu_pd(maxl.as_mut_ptr(), max);
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for j in 0..W {
        min = if minl[j] < min { minl[j] } else { min };
        max = if maxl[j] > max { maxl[j] } else { max };
    }
    for &d in &data[n / W * W..] {
        min = if d < min { d } else { min };
        max = if d > max { d } else { max };
    }
    (min, max)
}

/// Encode passes 1 + 2 for `f32`: materialize the normalized, high-aligned,
/// right-shifted words (Formulas 4–5) and derive the clamped XOR lead codes.
/// `words` and `leads` are exactly `block.len()` long.
#[target_feature(enable = "avx2")]
pub(super) fn encode_words_leads_f32(
    block: &[f32],
    raw: bool,
    mu: f32,
    s: u32,
    lead_cap: u8,
    words: &mut [u64],
    leads: &mut [u8],
) {
    let blen = block.len();
    debug_assert_eq!(words.len(), blen);
    debug_assert_eq!(leads.len(), blen);
    let full = blen / 8;
    let ptr = block.as_ptr();
    let wptr = words.as_mut_ptr();
    let mu8 = _mm256_set1_ps(mu);
    // f32's high-aligned word is `bits << 32`, so `to_word() >> s` is one
    // left shift by 32 - s (s <= 7, so no significant bit is lost).
    let lshift = _mm_cvtsi32_si128((32 - s) as i32);
    for k in 0..full {
        // SAFETY: k < blen / 8, so lanes k*8 .. k*8+8 are in bounds.
        let d = unsafe { _mm256_loadu_ps(ptr.add(k * 8)) };
        // The bit-exact (raw) variant must not touch the value: `d - 0.0`
        // would quieten signaling-NaN payloads.
        let v = if raw { d } else { _mm256_sub_ps(d, mu8) };
        let bits = _mm256_castps_si256(v);
        let lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(bits));
        let hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(bits));
        // SAFETY: words holds blen >= k*8 + 8 u64 slots, so both 4-lane
        // stores are in bounds.
        unsafe {
            _mm256_storeu_si256(
                wptr.add(k * 8).cast::<__m256i>(),
                _mm256_sll_epi64(lo, lshift),
            );
            _mm256_storeu_si256(
                wptr.add(k * 8 + 4).cast::<__m256i>(),
                _mm256_sll_epi64(hi, lshift),
            );
        }
    }
    for i in full * 8..blen {
        let d = block[i]; // PANIC-OK: i < blen
        let v = if raw { d } else { d - mu };
        words[i] = v.to_word() >> s; // PANIC-OK: words holds blen slots
    }
    lead_codes(words, leads, lead_cap);
}

/// Encode passes 1 + 2 for `f64`; see [`encode_words_leads_f32`].
#[target_feature(enable = "avx2")]
pub(super) fn encode_words_leads_f64(
    block: &[f64],
    raw: bool,
    mu: f64,
    s: u32,
    lead_cap: u8,
    words: &mut [u64],
    leads: &mut [u8],
) {
    let blen = block.len();
    debug_assert_eq!(words.len(), blen);
    debug_assert_eq!(leads.len(), blen);
    let full = blen / 4;
    let ptr = block.as_ptr();
    let wptr = words.as_mut_ptr();
    let mu4 = _mm256_set1_pd(mu);
    let rshift = _mm_cvtsi32_si128(s as i32);
    for k in 0..full {
        // SAFETY: k < blen / 4, so lanes k*4 .. k*4+4 are in bounds.
        let d = unsafe { _mm256_loadu_pd(ptr.add(k * 4)) };
        let v = if raw { d } else { _mm256_sub_pd(d, mu4) };
        let w = _mm256_srl_epi64(_mm256_castpd_si256(v), rshift);
        // SAFETY: words holds blen >= k*4 + 4 u64 slots.
        unsafe { _mm256_storeu_si256(wptr.add(k * 4).cast::<__m256i>(), w) };
    }
    for i in full * 4..blen {
        let d = block[i]; // PANIC-OK: i < blen
        let v = if raw { d } else { d - mu };
        words[i] = v.to_word() >> s; // PANIC-OK: words holds blen slots
    }
    lead_codes(words, leads, lead_cap);
}

/// Pass 2 — clamped XOR leading-byte codes over the materialized words,
/// four per iteration. The leading-zero-*byte* count (possible values
/// 0..=8, needed clamped to <= 3) is computed branch-free as the sum of
/// three nested byte-prefix zero tests: `[top1 == 0] + [top2 == 0] +
/// [top3 == 0] = min(clz >> 3, 3)`; clamping that against `lead_cap`
/// (itself <= 3) matches the portable kernel's `min(clz >> 3, lead_cap)`.
#[target_feature(enable = "avx2")]
fn lead_codes(words: &[u64], leads: &mut [u8], lead_cap: u8) {
    let blen = words.len();
    if blen == 0 {
        return;
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "leading_zeros() <= 64, so clz >> 3 <= 8 fits u8"
    )]
    // PANIC-OK: blen >= 1 here, and leads holds blen codes (callers
    // pass the two arenas cut to the block's length).
    let first = (words[0].leading_zeros() >> 3) as u8;
    leads[0] = first.min(lead_cap); // PANIC-OK: as above
    let m1 = _mm256_set1_epi64x(0xff00_0000_0000_0000_u64 as i64);
    let m2 = _mm256_set1_epi64x(0xffff_0000_0000_0000_u64 as i64);
    let m3 = _mm256_set1_epi64x(0xffff_ff00_0000_0000_u64 as i64);
    let cap = _mm256_set1_epi64x(lead_cap as i64);
    let zero = _mm256_setzero_si256();
    let ptr = words.as_ptr();
    let mut i = 1usize;
    while i + 4 <= blen {
        // SAFETY: i >= 1 and i + 4 <= blen, so both 4-lane loads (at i - 1
        // and at i) stay inside `words`.
        let (cur, prev) = unsafe {
            (
                _mm256_loadu_si256(ptr.add(i).cast::<__m256i>()),
                _mm256_loadu_si256(ptr.add(i - 1).cast::<__m256i>()),
            )
        };
        let x = _mm256_xor_si256(cur, prev);
        // Each compare yields -1 (all ones) per matching lane; summing the
        // three and negating gives the 0..=3 count in each u64 lane.
        let c1 = _mm256_cmpeq_epi64(_mm256_and_si256(x, m1), zero);
        let c2 = _mm256_cmpeq_epi64(_mm256_and_si256(x, m2), zero);
        let c3 = _mm256_cmpeq_epi64(_mm256_and_si256(x, m3), zero);
        let neg = _mm256_add_epi64(_mm256_add_epi64(c1, c2), c3);
        let cnt = _mm256_sub_epi64(zero, neg);
        // Counts and cap both fit one byte per u64 lane, so the unsigned
        // byte-min clamps each lane.
        let clamped = _mm256_min_epu8(cnt, cap);
        let mut buf = [0u64; 4];
        // SAFETY: buf is exactly 4 u64 = 32 bytes, matching the store.
        unsafe { _mm256_storeu_si256(buf.as_mut_ptr().cast::<__m256i>(), clamped) };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "each lane is clamped to <= 3"
        )]
        {
            // PANIC-OK: i + 4 <= blen, the length of leads (four below).
            leads[i] = buf[0] as u8;
            leads[i + 1] = buf[1] as u8; // PANIC-OK: as above.
            leads[i + 2] = buf[2] as u8; // PANIC-OK: as above.
            leads[i + 3] = buf[3] as u8; // PANIC-OK: as above.
        }
        i += 4;
    }
    #[expect(clippy::cast_possible_truncation, reason = "clz >> 3 <= 8 fits u8")]
    while i < blen {
        // PANIC-OK: 1 <= i < blen.
        let xor = words[i] ^ words[i - 1];
        // PANIC-OK: i < blen, the length of leads.
        leads[i] = ((xor.leading_zeros() >> 3) as u8).min(lead_cap);
        i += 1;
    }
}

/// Pass 3 — pack 2-bit lead codes, 32 per vector: `maddubs` folds byte
/// pairs to `l0·4 + l1`, `madd` folds pair-of-pairs to the final
/// `l0<<6 | l1<<4 | l2<<2 | l3` byte in each u32 lane (values <= 255, so
/// neither multiply-add can saturate). `leads.len()` must be a multiple of
/// 32; the caller packs any tail with the shared scalar packer.
#[target_feature(enable = "avx2")]
pub(super) fn pack_lead_codes(leads: &[u8], payload: &mut Vec<u8>) {
    debug_assert_eq!(leads.len() % 32, 0);
    let coeff_pairs = _mm256_set1_epi16(0x0104);
    let coeff_quads = _mm256_set1_epi32(0x0001_0010);
    for chunk in leads.chunks_exact(32) {
        // SAFETY: chunk is exactly 32 bytes, matching the load.
        let v = unsafe { _mm256_loadu_si256(chunk.as_ptr().cast::<__m256i>()) };
        let pairs = _mm256_maddubs_epi16(v, coeff_pairs);
        let quads = _mm256_madd_epi16(pairs, coeff_quads);
        let mut buf = [0u32; 8];
        // SAFETY: buf is exactly 8 u32 = 32 bytes, matching the store.
        unsafe { _mm256_storeu_si256(buf.as_mut_ptr().cast::<__m256i>(), quads) };
        for b in buf {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "each packed code byte <= 255"
            )]
            payload.push(b as u8);
        }
    }
}

/// In-register `u64::from_be_bytes`: reverse the bytes of each u64 lane.
#[inline]
#[target_feature(enable = "avx2")]
fn bswap64(v: __m256i) -> __m256i {
    let idx = _mm256_setr_epi8(
        7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8, //
        7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8,
    );
    _mm256_shuffle_epi8(v, idx)
}

/// Per-code-byte lane tables of the decode, one per lead clamp (`nb = 2`,
/// and `nb ≥ 3`, which clamps nothing; `nb ≥ 2` always): for the code byte
/// `b`, byte `k < 4` of the entry is the clamped lead of `b`'s k-th code
/// (high bits first) and byte `4 + k` the sum of the clamped leads before it.
static QUAD_LEADS: [[u64; 256]; 2] = [quad_leads(2), quad_leads(3)];

const fn quad_leads(cap: u64) -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let (mut entry, mut before, mut k) = (0u64, 0u64, 0);
        while k < 4 {
            let c = ((b >> (6 - 2 * k)) & 3) as u64;
            let l = if c < cap { c } else { cap };
            entry |= (l << (8 * k)) | (before << (32 + 8 * k));
            before += l;
            k += 1;
        }
        t[b] = entry; // PANIC-OK: b < 256
        b += 1;
    }
    t
}

/// The lane-parallel form of the decode recurrence `w_i = a_i | (w_{i-1} &
/// keep(l_i))` ([`crate::dekernels`]), four values per code byte: the
/// block's constants, the pool offset of the next quad, and the carried
/// word broadcast to every lane.
struct Quads<'a> {
    pool: &'a [u8],
    leads: &'static [u64; 256],
    /// `(0, nb, 2·nb, 3·nb)`: lane k's offset before the lead correction.
    lane_nb: __m128i,
    nb4: usize,
    top: __m256i,
    shift: __m128i,
    base: usize,
    carry: __m256i,
}

impl<'a> Quads<'a> {
    /// Scan state for `blen` values of `blk`. The pool must hold
    /// `blen·nb + 8` bytes: every offset is at most `(blen − 1)·nb`, so each
    /// lane's 8-byte gather stays inside it whatever the codes say.
    #[target_feature(enable = "avx2")]
    fn new(blk: &Block<'a>, blen: usize) -> Self {
        let (pool, nb) = (blk.pool, blk.nb);
        // PANIC-OK: Block::prepare sizes the pool to blen * 8 + 8; this is
        // the soundness check the gathers below rest on.
        assert!((2..=8).contains(&nb) && pool.len() >= blen * nb + 8);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "nb <= 8, so 3 * nb fits i32"
        )]
        let nbi = nb as i32;
        Quads {
            pool,
            leads: &QUAD_LEADS[nb.min(3) - 2], // PANIC-OK: nb >= 2 (asserted)
            lane_nb: _mm_setr_epi32(0, nbi, 2 * nbi, 3 * nbi),
            nb4: 4 * nb,
            top: _mm256_set1_epi64x(blk.top as i64),
            shift: _mm_cvtsi32_si128(blk.s as i32),
            base: 0,
            carry: _mm256_setzero_si256(),
        }
    }

    /// Decode the four values of code byte `byte` to their high-aligned
    /// words `(w & top) << s`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn next(&mut self, byte: u8) -> __m256i {
        let ones = _mm256_set1_epi64x(-1);
        let zero = _mm256_setzero_si256();
        let entry = self.leads[usize::from(byte)];
        let ev = _mm_cvtsi64_si128(entry as i64);
        // Offsets: base + k·nb − (leads before lane k).
        #[expect(
            clippy::cast_possible_truncation,
            reason = "base <= blen * nb <= 8 * MAX_BLOCK_SIZE fits i32"
        )]
        let base = _mm_set1_epi32(self.base as i32);
        let off4 = _mm_sub_epi32(
            _mm_add_epi32(base, self.lane_nb),
            _mm_cvtepu8_epi32(_mm_srli_si128::<4>(ev)),
        );
        // SAFETY: base + k·nb − (leads before lane k) lies in 0 ..= (i + k)·nb
        // for this quad's first value i, since every clamped lead is in
        // 0 ..= nb; so each offset is at most (blen − 1)·nb and its 8 bytes
        // end inside the pool, which new() checked holds blen·nb + 8.
        let loaded = unsafe { _mm256_i32gather_epi64::<1>(self.pool.as_ptr().cast::<i64>(), off4) };
        let shr = _mm256_slli_epi64::<3>(_mm256_cvtepu8_epi64(ev));
        let a = _mm256_srlv_epi64(bswap64(loaded), shr);
        let keep = _mm256_xor_si256(_mm256_srlv_epi64(ones, shr), ones);
        // Two Hillis–Steele steps of (k2, a2) ∘ (k1, a1) = (k1 & k2,
        // a2 | (k2 & a1)): combine each lane with the one 1, then 2 below;
        // lanes with none below take the identity (!0, 0).
        let (prev_a, prev_k) = (
            _mm256_blend_epi32::<0b0000_0011>(_mm256_permute4x64_epi64::<0b10_01_00_00>(a), zero),
            _mm256_blend_epi32::<0b0000_0011>(
                _mm256_permute4x64_epi64::<0b10_01_00_00>(keep),
                ones,
            ),
        );
        let a = _mm256_or_si256(a, _mm256_and_si256(keep, prev_a));
        let keep = _mm256_and_si256(keep, prev_k);
        let (prev_a, prev_k) = (
            _mm256_blend_epi32::<0b0000_1111>(_mm256_permute4x64_epi64::<0b01_00_00_00>(a), zero),
            _mm256_blend_epi32::<0b0000_1111>(
                _mm256_permute4x64_epi64::<0b01_00_00_00>(keep),
                ones,
            ),
        );
        let a = _mm256_or_si256(a, _mm256_and_si256(keep, prev_a));
        let keep = _mm256_and_si256(keep, prev_k);
        // Apply the carried word and broadcast lane 3 as the next carry.
        let w = _mm256_or_si256(a, _mm256_and_si256(keep, self.carry));
        self.carry = _mm256_permute4x64_epi64::<0b11_11_11_11>(w);
        // The quad's lead sum: lane 3's lead plus the leads before it.
        #[expect(clippy::cast_possible_truncation, reason = "at most 12")]
        let lead_sum = (((entry >> 24) & 0xff) + (entry >> 56)) as usize;
        self.base += self.nb4 - lead_sum;
        _mm256_sll_epi64(_mm256_and_si256(w, self.top), self.shift)
    }

    /// The pool offset and word the scalar tail continues from.
    #[target_feature(enable = "avx2")]
    fn carried(&self) -> (usize, u64) {
        (self.base, _mm256_extract_epi64::<0>(self.carry) as u64)
    }
}

/// One-pass decode of the whole quads of the `f32` block `blk` (`out.len()
/// / 4` code bytes): the lane scan of [`Quads`], then the high 32 bits of
/// each word compacted into one xmm and μ added. Returns the pool offset
/// and word a ragged tail continues from.
#[target_feature(enable = "avx2")]
pub(super) fn decode_quads_f32(blk: &Block<'_>, mu: f32, out: &mut [f32]) -> (usize, u64) {
    let mut quads = Quads::new(blk, out.len());
    let mu4 = _mm_set1_ps(mu);
    let high = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
    for (vals, &byte) in out.as_chunks_mut::<4>().0.iter_mut().zip(blk.codes) {
        let w = quads.next(byte);
        let v = _mm_castsi128_ps(_mm256_castsi256_si128(_mm256_permutevar8x32_epi32(w, high)));
        let v = if blk.raw { v } else { _mm_add_ps(v, mu4) };
        // SAFETY: vals is exactly 4 f32 = 16 bytes, matching the store.
        unsafe { _mm_storeu_ps(vals.as_mut_ptr(), v) };
    }
    quads.carried()
}

/// One-pass decode of the whole quads of an `f64` block; see
/// [`decode_quads_f32`] — the word *is* the value's bit pattern.
#[target_feature(enable = "avx2")]
pub(super) fn decode_quads_f64(blk: &Block<'_>, mu: f64, out: &mut [f64]) -> (usize, u64) {
    let mut quads = Quads::new(blk, out.len());
    let mu4 = _mm256_set1_pd(mu);
    for (vals, &byte) in out.as_chunks_mut::<4>().0.iter_mut().zip(blk.codes) {
        let v = _mm256_castsi256_pd(quads.next(byte));
        let v = if blk.raw { v } else { _mm256_add_pd(v, mu4) };
        // SAFETY: vals is exactly 4 f64 = 32 bytes, matching the store.
        unsafe { _mm256_storeu_pd(vals.as_mut_ptr(), v) };
    }
    quads.carried()
}

/// SSE4.2 CRC32C: fold `bytes` into the register `reg`. `crc32` has a
/// latency of three cycles and a throughput of one, so whole blocks run
/// as three lanes of [`CRC_LANE`] bytes in flight at once, joined by
/// moving each lane's register past the lanes after it
/// ([`crc_shift`]); the rest is one `crc32` per 8-byte word, then one per
/// byte. Same result as [`crate::container::crc32c_table`] for every
/// input.
#[target_feature(enable = "sse4.2")]
pub(super) fn crc32c(reg: u32, bytes: &[u8]) -> u32 {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap_or_default());
    let mut crc = u64::from(reg);
    let mut blocks = bytes.chunks_exact(3 * CRC_LANE);
    for block in &mut blocks {
        let mut lanes = block.chunks_exact(CRC_LANE).map(|l| l.chunks_exact(8));
        let (Some(a), Some(b), Some(c)) = (lanes.next(), lanes.next(), lanes.next()) else {
            break;
        };
        let (mut x, mut y, mut z) = (crc, 0, 0);
        for ((wa, wb), wc) in a.zip(b).zip(c) {
            x = _mm_crc32_u64(x, word(wa));
            y = _mm_crc32_u64(y, word(wb));
            z = _mm_crc32_u64(z, word(wc));
        }
        crc = crc_shift(crc_shift(x) ^ y) ^ z;
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, word(w));
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`crc32` leaves the register in the low 32 bits"
    )]
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Bytes per lane of the three-lane [`crc32c`] loop.
const CRC_LANE: usize = 2048;

/// Move the CRC register `reg` past [`CRC_LANE`] zero bytes: the move is
/// linear over GF(2), so one lookup per register byte.
fn crc_shift(reg: u64) -> u64 {
    let moved = (CRC_SHIFT.iter().zip((0..32).step_by(8))).fold(0, |acc, (t, shift)| {
        acc ^ crate::container::lut(t, reg >> shift)
    });
    u64::from(moved)
}

/// `CRC_SHIFT[k][b]`: the register bits `b << 8k` moved past
/// [`CRC_LANE`] zero bytes.
static CRC_SHIFT: [[u32; 256]; 4] = {
    // Column i of the one-zero-byte operator is bit i's image: eight steps
    // of the reflected polynomial 0x82F63B78.
    let mut cols = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut c = 1u32 << i;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0x82F6_3B78 & (c & 1).wrapping_neg());
            bit += 1;
        }
        cols[i] = c;
        i += 1;
    }
    // Square it up to CRC_LANE bytes: 2, 4, ..., 2048.
    let mut len = 1;
    while len < CRC_LANE {
        let mut squared = [0u32; 32];
        let mut i = 0;
        while i < 32 {
            squared[i] = gf2_apply(&cols, cols[i]);
            i += 1;
        }
        cols = squared;
        len *= 2;
    }
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        #[expect(clippy::cast_possible_truncation, reason = "b < 256 fits in u32")]
        while b < 256 {
            t[k][b] = gf2_apply(&cols, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    t
};

/// The GF(2) linear map with columns `cols` applied to `v`.
const fn gf2_apply(cols: &[u32; 32], v: u32) -> u32 {
    let mut out = 0;
    let mut i = 0;
    while i < 32 {
        if v >> i & 1 == 1 {
            out ^= cols[i];
        }
        i += 1;
    }
    out
}
