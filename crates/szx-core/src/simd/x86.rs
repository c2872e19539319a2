//! AVX2 (and, for [`crc32c`], SSE4.2; for the `f32` coder, AVX-512)
//! backends for the dispatch layer in [`super`].
//!
//! Every function here carries `#[target_feature(enable = "avx2")]` (or
//! `"sse4.2"`, or the AVX-512 coder's set) and is therefore unsafe to
//! *call* from non-feature contexts:
//! the dispatch layer guards every call with the cached
//! `is_x86_feature_detected!` check and documents it with a `SAFETY:`
//! comment (enforced by szx-audit).
//! Inside the bodies, only the pointer intrinsics (loads and stores)
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

use crate::block::{bytes_for, shift_for, BlockStats};
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

/// Per-code-byte lane tables of the decode and the encode, one per lead
/// clamp (`nb = 2`, and `nb ≥ 3`, which clamps nothing; `nb ≥ 2` always):
/// for the code byte `b`, byte `k < 4` of the entry is the clamped lead of
/// `b`'s k-th code (high bits first) and byte `4 + k` the sum of the
/// clamped leads before it.
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

/// Code-byte spread of a four-lane compare mask: lane k's bit moves to bit
/// `6 − 2k`, the low bit of the k-th 2-bit code (high bits first).
static SPREAD: [u8; 16] = {
    let mut t = [0u8; 16];
    let mut m = 0;
    while m < 16 {
        let mut k = 0;
        while k < 4 {
            if (m >> k) & 1 == 1 {
                t[m] |= 1 << (6 - 2 * k); // PANIC-OK: m < 16
            }
            k += 1;
        }
        m += 1;
    }
    t
};

/// The encode twin of [`Quads`]: one non-constant `ByteAligned` block's
/// code bytes and mid-bytes, written quad by quad into the spare capacity
/// of its payload. Per quad of words, the clamped XOR lead codes come from
/// three nested byte-prefix compares, and [`QUAD_LEADS`] turns the code
/// byte back into each lane's lead and the exclusive prefix sum of the
/// leads: the offsets of the four overlapping 8-byte stores.
struct Coder<'a> {
    payload: &'a mut Vec<u8>,
    /// The block's first code byte, in the spare capacity.
    codes: *mut u8,
    /// The block's first mid-byte, `⌈blen/4⌉` bytes after `codes`.
    mid: *mut u8,
    /// Code bytes to write: `⌈blen/4⌉`.
    ncodes: usize,
    leads: &'static [u64; 256],
    nb: usize,
    /// `k·nb` in byte k, for k in 0..4.
    lane_nb: u32,
    /// Lane mask of the third compare: none when `nb = 2` clamps leads to 2.
    third: usize,
    /// Code bytes written.
    q: usize,
    /// Mid-bytes committed.
    pos: usize,
    /// The previous word, broadcast (0 before the block's first value).
    carry: __m256i,
}

impl<'a> Coder<'a> {
    /// A coder for a `blen`-value block of `nb`-byte words, appending to
    /// `payload`, which it reserves room for: `⌈blen/4⌉` code bytes and
    /// `nb·blen` mid-bytes, plus the 8 bytes of slack of the last store.
    #[target_feature(enable = "avx2")]
    fn new(payload: &'a mut Vec<u8>, blen: usize, nb: usize) -> Self {
        // PANIC-OK: a required length of 9..=64 bits gives 2..=8 bytes;
        // the store offsets below rest on every clamped lead being <= nb.
        assert!((2..=8).contains(&nb));
        let ncodes = blen.div_ceil(4);
        payload.reserve(ncodes + nb * blen + 8);
        // SAFETY: len <= capacity, so both pointers stay inside (or one
        // past) the allocation, which the reserve above made hold them.
        let (codes, mid) = unsafe {
            let codes = payload.as_mut_ptr().add(payload.len());
            (codes, codes.add(ncodes))
        };
        Coder {
            payload,
            codes,
            mid,
            ncodes,
            // PANIC-OK: a bool indexes the two tables.
            leads: &QUAD_LEADS[usize::from(nb >= 3)],
            nb,
            #[expect(clippy::cast_possible_truncation, reason = "nb <= 8")]
            lane_nb: 0x0302_0100 * nb as u32,
            third: if nb >= 3 { 0xf } else { 0 },
            q: 0,
            pos: 0,
            carry: _mm256_setzero_si256(),
        }
    }

    /// Code and commit the next four words `w` (lane k is value k): store
    /// the code byte, then lane k's bytes from its lead on, at the
    /// exclusive prefix sum of `nb − lead` before it.
    ///
    /// # Safety
    ///
    /// At most `⌊blen/4⌋` quads go through one coder.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quad(&mut self, w: __m256i) {
        // Lane k's predecessor is lane k − 1; lane 0's is the carried word.
        let prev = _mm256_blend_epi32::<0b0000_0011>(
            _mm256_permute4x64_epi64::<0b10_01_00_00>(w),
            self.carry,
        );
        self.carry = _mm256_permute4x64_epi64::<0b11_11_11_11>(w);
        let x = _mm256_xor_si256(w, prev);
        // Lane k's bit in mask j: its first j bytes match the predecessor's.
        // The masks nest, so the clamped lead `t1 + t2 + t3` is the code
        // `2·t2 + (t1 ^ t2 ^ t3)`.
        let same = |prefix: u64| {
            let top = _mm256_and_si256(x, _mm256_set1_epi64x(prefix as i64));
            let eq = _mm256_cmpeq_epi64(top, _mm256_setzero_si256());
            _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as usize
        };
        let t1 = same(0xff00_0000_0000_0000);
        let t2 = same(0xffff_0000_0000_0000);
        let t3 = same(0xffff_ff00_0000_0000) & self.third;
        // PANIC-OK: movemask_pd sets 4 bits, so every mask is below 16,
        // the table's length.
        let code = SPREAD[t2] << 1 | SPREAD[t1 ^ t2 ^ t3];
        debug_assert!(self.q < self.ncodes);
        // SAFETY: by the caller's contract this is quad q < ⌊blen/4⌋ <=
        // ncodes, so its code byte is inside the reserved room.
        unsafe { self.codes.add(self.q).write(code) };
        self.q += 1;
        // PANIC-OK: a byte indexes the 256 entries.
        let entry = self.leads[usize::from(code)];
        let ev = _mm_cvtsi64_si128(entry as i64);
        // `8·lead` <= 24; the mask tells the compiler no lane shifts out
        // all 64 bits, so `vpsllvq` needs no out-of-range select.
        let shl = _mm256_slli_epi64::<3>(_mm256_cvtepu8_epi64(ev));
        let shl = _mm256_and_si256(shl, _mm256_set1_epi64x(0x18));
        let runs = bswap64(_mm256_sllv_epi64(w, shl));
        let (lo, hi) = (
            _mm256_castsi256_si128(runs),
            _mm256_extracti128_si256::<1>(runs),
        );
        // Lane k's store offset, k·nb less the leads before it, in byte k
        // of one word: no byte borrows, as k·nb >= the leads before lane k.
        let offs = self.lane_nb - (entry >> 32) as u32;
        let at = |k: u32| ((offs >> (8 * k)) & 0xff) as usize;
        // SAFETY: this quad's first value i = 4q sits at pos = Σ_{j<i} (nb −
        // l_j) <= i·nb, and lane k's offset adds k·nb − (the leads before it) <=
        // k·nb, so every store starts at most (i + 3)·nb <= (blen − 1)·nb
        // bytes into the mid-bytes and ends inside the reserved nb·blen + 8.
        // Stores go in lane order, each overlapping the garbage tail of the
        // one before.
        unsafe {
            let mid = self.mid.add(self.pos);
            _mm_storel_epi64(mid.cast(), lo);
            _mm_storeh_pd(mid.add(at(1)).cast(), _mm_castsi128_pd(lo));
            _mm_storel_epi64(mid.add(at(2)).cast(), hi);
            _mm_storeh_pd(mid.add(at(3)).cast(), _mm_castsi128_pd(hi));
        }
        // The cursor moves past lane 3's run: its offset plus nb − its lead.
        self.pos += at(3) + self.nb - ((entry >> 24) & 0xff) as usize;
    }

    /// Code and commit the ragged tail `words`, one at a time from the
    /// carried word, and trim the payload to the bytes the block wrote.
    ///
    /// # Safety
    ///
    /// The block's `⌊blen/4⌋` whole quads went through [`Self::quad`], and
    /// `words` yields its other `blen mod 4` values.
    #[target_feature(enable = "avx2")]
    unsafe fn finish(mut self, words: impl Iterator<Item = u64>) {
        let (nb, cap) = (self.nb, self.nb.min(3));
        let mut prev = _mm256_extract_epi64::<0>(self.carry) as u64;
        let mut code = None;
        for (w, at) in words.zip([6, 4, 2, 0]) {
            let lead = ((w ^ prev).leading_zeros() as usize >> 3).min(cap);
            code = Some(code.unwrap_or(0) | lead << at);
            // SAFETY: as in quad(): by the caller's contract this value i <
            // blen sits at pos <= i·nb, so its 8 bytes end inside the room.
            unsafe {
                let mid = self.mid.add(self.pos).cast::<u64>();
                mid.write_unaligned((w << (8 * lead)).to_be());
            }
            self.pos += nb - lead;
            prev = w;
        }
        if let Some(code) = code {
            debug_assert!(self.q < self.ncodes);
            // SAFETY: by the caller's contract q = ⌊blen/4⌋ and blen mod 4
            // > 0, so q < ⌈blen/4⌉ = ncodes.
            #[expect(clippy::cast_possible_truncation, reason = "three 2-bit codes")]
            unsafe {
                self.codes.add(self.q).write(code as u8)
            };
            self.q += 1;
        }
        debug_assert_eq!(self.q, self.ncodes);
        let len = self.payload.len() + self.ncodes + self.pos;
        // SAFETY: every code byte was written (q = ncodes), and the stores
        // cover the mid-bytes without a gap: each starts where the cursor
        // stood and writes 8 >= nb − lead bytes before the cursor moves on
        // by nb − lead. len is within the reserved room (pos <= nb·blen).
        unsafe { self.payload.set_len(len) };
    }
}

/// One-pass encode of a block's code bytes and mid-bytes, appended to
/// `payload` (which holds everything before them): `words` turns each
/// quad of values into their normalized (unless `raw`), high-aligned
/// words shifted right by [`shift_for`]`(req_len)` (Formulas 4–5), which
/// a [`Coder`] codes and commits. A ragged tail continues in scalar.
#[inline]
#[target_feature(enable = "avx2")]
fn encode_block<F: SzxFloat>(
    block: &[F],
    raw: bool,
    mu: F,
    req_len: u32,
    payload: &mut Vec<u8>,
    words: impl Fn(&[F; 4]) -> __m256i,
) {
    let s = shift_for(req_len);
    let mut coder = Coder::new(payload, block.len(), bytes_for(req_len));
    let (quads, tail) = block.as_chunks::<4>();
    for quad in quads {
        // SAFETY: one call per whole quad of the block.
        unsafe { coder.quad(words(quad)) };
    }
    let tail = tail
        .iter()
        .map(|&d| if raw { d } else { d - mu }.to_word() >> s);
    // SAFETY: the whole quads went through quad() above; `tail` is the rest.
    unsafe { coder.finish(tail) };
}

/// [`encode_block`] for `f32`: a quad widens to four u64 lanes.
#[target_feature(enable = "avx2")]
pub(super) fn encode_block_f32(
    block: &[f32],
    raw: bool,
    mu: f32,
    req_len: u32,
    payload: &mut Vec<u8>,
) {
    let mu4 = _mm_set1_ps(mu);
    // f32's high-aligned word is `bits << 32`, so `to_word() >> s` is one
    // left shift by 32 − s (s <= 7, so no significant bit is lost).
    let lshift = _mm_cvtsi32_si128((32 - shift_for(req_len)) as i32);
    encode_block(block, raw, mu, req_len, payload, |quad| {
        // SAFETY: quad is exactly 4 f32 = 16 bytes, matching the load.
        let d = unsafe { _mm_loadu_ps(quad.as_ptr()) };
        // The bit-exact variant must not touch the value: `d - 0.0` would
        // quieten signaling-NaN payloads.
        let v = if raw { d } else { _mm_sub_ps(d, mu4) };
        _mm256_sll_epi64(_mm256_cvtepu32_epi64(_mm_castps_si128(v)), lshift)
    });
}

/// [`encode_block`] for `f64`: the word *is* the value's bit pattern.
#[target_feature(enable = "avx2")]
pub(super) fn encode_block_f64(
    block: &[f64],
    raw: bool,
    mu: f64,
    req_len: u32,
    payload: &mut Vec<u8>,
) {
    let mu4 = _mm256_set1_pd(mu);
    let rshift = _mm_cvtsi32_si128(shift_for(req_len) as i32);
    encode_block(block, raw, mu, req_len, payload, |quad| {
        // SAFETY: quad is exactly 4 f64 = 32 bytes, matching the load.
        let d = unsafe { _mm256_loadu_pd(quad.as_ptr()) };
        let v = if raw { d } else { _mm256_sub_pd(d, mu4) };
        _mm256_srl_epi64(_mm256_castpd_si256(v), rshift)
    });
}

/// The lane-parallel form of the decode recurrence `w_i = a_i | (w_{i-1} &
/// keep(l_i))` ([`crate::dekernels`]), four values per code byte: the
/// block's constants, the pool offset of the next quad, and the carried
/// word broadcast to every lane.
struct Quads<'a> {
    pool: &'a [u8],
    leads: &'static [u64; 256],
    /// `k·nb` in byte k, for k in 0..4: lane k's offset before the lead
    /// correction.
    lane_nb: u32,
    nb4: usize,
    top: __m256i,
    shift: __m128i,
    base: usize,
    carry: __m256i,
}

impl<'a> Quads<'a> {
    /// Scan state for `blen` values of `blk`. The pool must hold
    /// `blen·nb + 8` bytes: every offset is at most `(blen − 1)·nb`, so each
    /// lane's 8-byte load stays inside it whatever the codes say.
    #[target_feature(enable = "avx2")]
    fn new(blk: &Block<'a>, blen: usize) -> Self {
        let (pool, nb) = (blk.pool, blk.nb);
        // PANIC-OK: Block::prepare sizes the pool to blen * 8 + 8; this is
        // the soundness check the loads below rest on.
        assert!((2..=8).contains(&nb) && pool.len() >= blen * nb + 8);
        Quads {
            pool,
            leads: &QUAD_LEADS[nb.min(3) - 2], // PANIC-OK: nb >= 2 (asserted)
            #[expect(clippy::cast_possible_truncation, reason = "nb <= 8")]
            lane_nb: 0x0302_0100 * nb as u32,
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
        // Lane k's load offset from base, k·nb less the leads before it, in
        // byte k of one word: the loads mirror `Coder::quad`'s stores.
        let offs = self.lane_nb - (entry >> 32) as u32;
        let at = |k: u32| ((offs >> (8 * k)) & 0xff) as usize;
        // SAFETY: base + k·nb − (leads before lane k) lies in 0 ..= (i + k)·nb
        // for this quad's first value i, since every clamped lead is in
        // 0 ..= nb; so each offset is at most (blen − 1)·nb and its 8 bytes
        // end inside the pool, which new() checked holds blen·nb + 8.
        let loaded = unsafe {
            let p = self.pool.as_ptr().add(self.base);
            let lo = _mm_castsi128_pd(_mm_loadl_epi64(p.cast()));
            let lo = _mm_castpd_si128(_mm_loadh_pd(lo, p.add(at(1)).cast()));
            let hi = _mm_castsi128_pd(_mm_loadl_epi64(p.add(at(2)).cast()));
            let hi = _mm_castpd_si128(_mm_loadh_pd(hi, p.add(at(3)).cast()));
            _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(lo), hi)
        };
        // `8·lead` <= 24; as in the encoder, the mask tells the compiler no
        // lane shifts out all 64 bits, so `vpsrlvq` needs no select.
        let ev = _mm_cvtsi64_si128(entry as i64);
        let shr = _mm256_slli_epi64::<3>(_mm256_cvtepu8_epi64(ev));
        let shr = _mm256_and_si256(shr, _mm256_set1_epi64x(0x18));
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

// The AVX-512 coder of `f32` blocks, sixteen values a step. An `f32` word
// `(bits << 32) >> s` commits its top `nb <= 4` bytes, all of them in the
// high 32 bits, and its lead is `clz >> 3` of the high halves' XOR clamped
// to `min(nb, 3)`; so both directions work on 32-bit lanes, one value each.
// A lane's mid-bytes are bytes `lead..nb` of its byte-swapped word: the
// encoder packs every lane's run with one `vpcompressb` and stores exactly
// their bytes, and the decoder loads exactly those bytes from the payload
// and puts each back in place with one `vpexpandb`. Lane masks cover a
// ragged step. The features are AVX-512 F, BW, VL, CD and VBMI2, BMI2 and
// POPCNT.

/// `u32::swap_bytes` of each lane, as a `vpshufb` index.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn bswap32_index() -> __m512i {
    _mm512_broadcast_i32x4(_mm_setr_epi8(
        3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,
    ))
}

/// The first `lanes` of sixteen, as a lane mask.
#[inline]
#[target_feature(enable = "bmi2")]
fn lane_mask(lanes: usize) -> __mmask16 {
    #[expect(clippy::cast_possible_truncation, reason = "lanes <= 16")]
    let mask = _bzhi_u32(0xffff, lanes as u32) as u16;
    mask
}

/// The code bytes of a step of `lanes` values, as a byte mask.
#[inline]
#[target_feature(enable = "bmi2")]
fn code_mask(lanes: usize) -> __mmask16 {
    #[expect(clippy::cast_possible_truncation, reason = "⌈lanes/4⌉ <= 4")]
    let mask = _bzhi_u32(0xf, lanes.div_ceil(4) as u32) as u16;
    mask
}

/// The mid-byte positions a step may commit: bytes `0..nb` of each of its
/// first `lanes` 4-byte lanes.
#[inline]
#[target_feature(enable = "bmi2")]
fn byte_mask(nb: usize, lanes: usize) -> __mmask64 {
    #[expect(clippy::cast_possible_truncation, reason = "4·lanes <= 64")]
    let lanes = _bzhi_u64(!0, 4 * lanes as u32);
    (((1u64 << nb) - 1) * 0x1111_1111_1111_1111) & lanes
}

/// The mid-bytes of a step: byte `p` of a lane's byte-swapped word (its
/// `p`-th byte from the top) when `lead <= p`, within the `bytes` allowed.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn kept_bytes(bytes: __mmask64, lead: __m512i) -> __mmask64 {
    let from_lead = _mm512_sllv_epi32(_mm512_set1_epi32(-1), _mm512_slli_epi32::<3>(lead));
    _mm512_mask_test_epi8_mask(bytes, from_lead, from_lead)
}

/// The AVX-512 twin of [`Coder`]: one non-constant `ByteAligned` `f32`
/// block's code bytes and mid-bytes, written sixteen values a step into the
/// spare capacity of its payload.
struct WideCoder {
    /// The block's first code byte, in the spare capacity.
    codes: *mut u8,
    /// The block's first mid-byte, `⌈blen/4⌉` bytes after `codes`.
    mid: *mut u8,
    raw: bool,
    mu: __m512,
    /// Formula 5's right shift.
    shift: __m128i,
    nb: usize,
    /// The lead clamp, `min(nb, 3)`.
    cap: __m512i,
    bswap: __m512i,
    /// Mid-bytes committed.
    pos: usize,
    /// The previous step's words (lane 15 is the last; 0 before the block).
    carry: __m512i,
}

impl WideCoder {
    /// Code and commit step `k`: the values `vals` (1 to 16 of them) that
    /// start at value `16·k` of the block. Lanes past them code 0, as the
    /// scalar coder writes the padding of a ragged last byte.
    ///
    /// # Safety
    ///
    /// The steps go in order from `k = 0`, each but the last with 16
    /// values, over a block whose room [`encode_block_f32_avx512`] reserved.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512cd,avx512vbmi2,bmi2,popcnt")]
    unsafe fn step(&mut self, k: usize, vals: &[f32]) {
        let lanes = vals.len();
        let valid = lane_mask(lanes);
        // SAFETY: the mask selects the first vals.len() lanes, all inside
        // `vals`; masked-off lanes are not read.
        let d = unsafe { _mm512_maskz_loadu_ps(valid, vals.as_ptr()) };
        // The bit-exact variant must not touch the value: `d - 0.0` would
        // quieten signaling-NaN payloads.
        let v = if self.raw {
            d
        } else {
            _mm512_sub_ps(d, self.mu)
        };
        let w = _mm512_srl_epi32(_mm512_castps_si512(v), self.shift);
        // Lane i's predecessor is lane i − 1; lane 0's is the carried word.
        let prev = _mm512_alignr_epi32::<15>(w, self.carry);
        self.carry = w;
        let lz = _mm512_lzcnt_epi32(_mm512_xor_si512(w, prev));
        let lead = _mm512_maskz_min_epu32(valid, _mm512_srli_epi32::<3>(lz), self.cap);
        // Lane 4j + k's code sits at bit 8j + 6 − 2k: reverse each group of
        // four lanes, then deposit the codes' low and high bits at the even
        // and odd bits of four code bytes.
        let rev = _mm512_shuffle_epi32::<0b00_01_10_11>(lead);
        let low = u32::from(_mm512_test_epi32_mask(rev, _mm512_set1_epi32(1)));
        let high = u32::from(_mm512_test_epi32_mask(rev, _mm512_set1_epi32(2)));
        let code = _pdep_u32(low, 0x5555_5555) | _pdep_u32(high, 0xaaaa_aaaa);
        // SAFETY: by the caller's contract this step's ⌈lanes/4⌉ code bytes
        // are bytes 4k.. of the block's ⌈blen/4⌉, inside the reserved room.
        unsafe {
            let at = self.codes.add(4 * k).cast();
            _mm_mask_storeu_epi8(at, code_mask(lanes), _mm_cvtsi32_si128(code as i32));
        }
        let kept = kept_bytes(byte_mask(self.nb, lanes), lead);
        let packed = _mm512_maskz_compress_epi8(kept, _mm512_shuffle_epi8(w, self.bswap));
        let cnt = kept.count_ones();
        // SAFETY: the store writes cnt = Σ (nb − lead) <= nb·lanes bytes at
        // pos, and pos is the same sum over the values before; so it ends
        // within nb·blen bytes of `mid`, inside the reserved room.
        unsafe {
            _mm512_mask_storeu_epi8(self.mid.add(self.pos).cast(), _bzhi_u64(!0, cnt), packed)
        };
        self.pos += cnt as usize;
    }
}

/// The AVX-512 [`encode_block_f32`]: the same code bytes and mid-bytes
/// appended to `payload`, sixteen values a step.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512cd,avx512vbmi2,bmi2,popcnt")]
pub(super) fn encode_block_f32_avx512(
    block: &[f32],
    raw: bool,
    mu: f32,
    req_len: u32,
    payload: &mut Vec<u8>,
) {
    let nb = bytes_for(req_len);
    // PANIC-OK: an f32 required length of 9..=32 bits gives 2..=4 bytes,
    // the bytes of one 32-bit lane.
    assert!((2..=4).contains(&nb));
    let ncodes = block.len().div_ceil(4);
    payload.reserve(ncodes + nb * block.len());
    let len = payload.len();
    // SAFETY: len <= capacity, so both pointers stay inside (or one past)
    // the allocation, which the reserve above made hold them.
    let (codes, mid) = unsafe {
        let codes = payload.as_mut_ptr().add(len);
        (codes, codes.add(ncodes))
    };
    let mut coder = WideCoder {
        codes,
        mid,
        raw,
        mu: _mm512_set1_ps(mu),
        shift: _mm_cvtsi32_si128(shift_for(req_len) as i32),
        nb,
        #[expect(clippy::cast_possible_truncation, reason = "nb <= 4")]
        cap: _mm512_set1_epi32(nb.min(3) as i32),
        bswap: bswap32_index(),
        pos: 0,
        carry: _mm512_setzero_si512(),
    };
    let (steps, tail) = block.as_chunks::<16>();
    for (k, vals) in steps.iter().enumerate() {
        // SAFETY: the whole steps in order from 0, then the tail.
        unsafe { coder.step(k, vals) };
    }
    if !tail.is_empty() {
        // SAFETY: the last step, after every whole one.
        unsafe { coder.step(steps.len(), tail) };
    }
    // SAFETY: every code byte was written (the steps cover the block), and
    // the mid-byte stores wrote pos bytes without a gap, within the room.
    unsafe { payload.set_len(len + ncodes + coder.pos) };
}

/// The AVX-512 decode of the `f32` block `blk`, whose `pool` holds exactly
/// the mid-bytes its codes demand ([`Block::parse`]): sixteen values a
/// step, each step's mid-bytes loaded straight from the payload.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512cd,avx512vbmi2,bmi2,popcnt")]
pub(super) fn decode_block_f32_avx512(blk: &Block<'_>, mu: f32, out: &mut [f32]) {
    let nb = blk.nb;
    // PANIC-OK: an f32 required length of 9..=32 bits gives 2..=4 bytes,
    // and Block::parse takes ⌈blen/4⌉ code bytes; the code loads rest on it.
    assert!((2..=4).contains(&nb) && blk.codes.len() == out.len().div_ceil(4));
    let mut wide = WideDecoder {
        codes: blk.codes,
        mid: blk.pool,
        raw: blk.raw,
        mu: _mm512_set1_ps(mu),
        top: _mm512_set1_epi32((blk.top >> 32) as i32),
        shift: _mm_cvtsi32_si128(blk.s as i32),
        nb,
        #[expect(clippy::cast_possible_truncation, reason = "nb <= 4")]
        cap: _mm512_set1_epi32(nb as i32),
        bswap: bswap32_index(),
        base: 0,
        carry: _mm512_setzero_si512(),
    };
    let (steps, tail) = out.as_chunks_mut::<16>();
    for (k, vals) in steps.iter_mut().enumerate() {
        // SAFETY: the whole steps in order from 0, then the tail, over the
        // ⌈blen/4⌉ code bytes asserted above.
        unsafe { wide.step(k, vals) };
    }
    if !tail.is_empty() {
        // SAFETY: the last step, after every whole one.
        unsafe { wide.step(steps.len(), tail) };
    }
}

/// The AVX-512 twin of [`Quads`]: the decode scan of one `f32` block,
/// sixteen values a step.
struct WideDecoder<'a> {
    codes: &'a [u8],
    /// The mid-bytes, exactly those the codes demand.
    mid: &'a [u8],
    raw: bool,
    mu: __m512,
    /// Mask of the `nb` significant high bytes of a 32-bit word.
    top: __m512i,
    /// Left shift back to the high-aligned word.
    shift: __m128i,
    nb: usize,
    /// The lead clamp, `nb`.
    cap: __m512i,
    bswap: __m512i,
    /// Offset in `mid` of the next step's mid-bytes.
    base: usize,
    /// The last word decoded, in every lane (0 before the block).
    carry: __m512i,
}

impl WideDecoder<'_> {
    /// Decode step `k`: the values `vals` (1 to 16 of them) that start at
    /// value `16·k`.
    ///
    /// # Safety
    ///
    /// The steps go in order from `k = 0`, each but the last with 16
    /// values, over a block of `⌈blen/4⌉` code bytes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512cd,avx512vbmi2,bmi2,popcnt")]
    unsafe fn step(&mut self, k: usize, vals: &mut [f32]) {
        let lanes = vals.len();
        let valid = lane_mask(lanes);
        // SAFETY: by the caller's contract this step's ⌈lanes/4⌉ code bytes
        // are bytes 4k.. of the block's ⌈blen/4⌉, all inside `codes`;
        // masked-off bytes are not read.
        let bytes = unsafe {
            _mm_maskz_loadu_epi8(code_mask(lanes), self.codes.as_ptr().add(4 * k).cast())
        };
        // Lane 4j + i's code is bits 8j + 6 − 2i of the four code bytes; a
        // padding code is masked off below, as the scalar loop never reads it.
        let at = _mm512_setr_epi32(6, 4, 2, 0, 14, 12, 10, 8, 22, 20, 18, 16, 30, 28, 26, 24);
        let codes = _mm512_srlv_epi32(_mm512_broadcastd_epi32(bytes), at);
        let lead = _mm512_min_epu32(_mm512_and_si512(codes, _mm512_set1_epi32(3)), self.cap);
        let kept = kept_bytes(byte_mask(self.nb, lanes), lead);
        // Block::parse checked that the codes demand exactly the mid-bytes
        // there are, so the clamp never bites; it keeps the load in bounds
        // whatever the block says.
        let cnt = (kept.count_ones() as usize).min(self.mid.len() - self.base);
        #[expect(clippy::cast_possible_truncation, reason = "cnt <= 64")]
        let load = _bzhi_u64(!0, cnt as u32);
        // SAFETY: base + cnt <= mid.len() (the clamp), and the mask selects
        // exactly bytes base..base + cnt; masked-off bytes are not read.
        let loaded =
            unsafe { _mm512_maskz_loadu_epi8(load, self.mid.as_ptr().add(self.base).cast()) };
        self.base += cnt;
        // Each lane's word `a`: its mid-bytes in place, zero elsewhere.
        let a = _mm512_shuffle_epi8(_mm512_maskz_expand_epi8(kept, loaded), self.bswap);
        // keep(lead): the top `lead` bytes, inherited from the word before.
        let ones = _mm512_set1_epi32(-1);
        let keep = _mm512_andnot_si512(_mm512_srlv_epi32(ones, _mm512_slli_epi32::<3>(lead)), ones);
        // Four Hillis–Steele steps of (k2, a2) ∘ (k1, a1) = (k1 & k2, a2 |
        // (k2 & a1)): combine each lane with the one 1, 2, 4, then 8 below;
        // lanes with none below take the identity (!0, 0). 0xf8 is a | b & c.
        let zero = _mm512_setzero_si512();
        let a = _mm512_ternarylogic_epi32::<0xf8>(a, keep, _mm512_alignr_epi32::<15>(a, zero));
        let keep = _mm512_and_si512(keep, _mm512_alignr_epi32::<15>(keep, ones));
        let a = _mm512_ternarylogic_epi32::<0xf8>(a, keep, _mm512_alignr_epi32::<14>(a, zero));
        let keep = _mm512_and_si512(keep, _mm512_alignr_epi32::<14>(keep, ones));
        let a = _mm512_ternarylogic_epi32::<0xf8>(a, keep, _mm512_alignr_epi32::<12>(a, zero));
        let keep = _mm512_and_si512(keep, _mm512_alignr_epi32::<12>(keep, ones));
        let a = _mm512_ternarylogic_epi32::<0xf8>(a, keep, _mm512_alignr_epi32::<8>(a, zero));
        let keep = _mm512_and_si512(keep, _mm512_alignr_epi32::<8>(keep, ones));
        // Apply the carried word and broadcast lane 15 as the next carry.
        let w = _mm512_ternarylogic_epi32::<0xf8>(a, keep, self.carry);
        self.carry = _mm512_permutexvar_epi32(_mm512_set1_epi32(15), w);
        let v = _mm512_sll_epi32(_mm512_and_si512(w, self.top), self.shift);
        let v = _mm512_castsi512_ps(v);
        let v = if self.raw {
            v
        } else {
            _mm512_add_ps(v, self.mu)
        };
        // SAFETY: the mask selects the first vals.len() lanes, all inside
        // `vals`; masked-off lanes are not written.
        unsafe { _mm512_mask_storeu_ps(vals.as_mut_ptr(), valid, v) };
    }
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
