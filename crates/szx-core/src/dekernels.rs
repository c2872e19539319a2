//! One-pass, branch-free decode kernel — the decompression counterpart of
//! [`crate::kernels`].
//!
//! The scalar decoder in [`crate::decode`] reconstructs a `ByteAligned`
//! block with one branchy loop carrying *two* serial dependences: the
//! mid-byte cursor (`pos += nb - lead`) and the `prev`-word recurrence (the
//! leading bytes of value *i* are copied out of the previous reconstructed
//! word). On a GPU, cuSZx breaks the second with an index-propagation pass;
//! on a CPU it need not be broken at all, only made cheap. Written as words,
//! the recurrence is
//!
//! ```text
//! w_i = a_i | (w_{i-1} & keep(l_i))
//! ```
//!
//! where `l_i` is the clamped lead code, `keep(l)` masks the top `l` bytes,
//! and `a_i` is value *i*'s own mid-bytes placed at byte positions
//! `l_i..nb`. That is two ALU operations carried per value, and the pairs
//! `(keep, a)` compose associatively — `(k2, a2) ∘ (k1, a1) = (k1 & k2,
//! a2 | (k2 & a1))`, identity `(!0, 0)` — so a SIMD backend can scan them
//! across lanes and carry one word between groups (DESIGN.md §5.2).
//!
//! The kernel is one pass per block:
//!
//! 1. **Total first.** The mid-byte pool length the codes demand is
//!    `blen·nb − Σ min(c_i, nb)`, and the sum is popcounts of the code bytes
//!    (with the `nb = 2` clamp as a bit-plane correction). It is
//!    checked against the pool before any value is written, which subsumes
//!    the scalar loop's per-value bounds check: the per-value needs are
//!    non-negative, so a prefix overruns the pool exactly when the total
//!    does.
//! 2. **Loads.** The pool is copied once into a slack-padded arena (the
//!    AVX-512 decoder of [`crate::simd`] skips the copy: its masked loads
//!    take exactly the pool's bytes from the payload); each value's `a_i`
//!    is an unconditional overlapping 8-byte big-endian load at its offset
//!    `i·nb − Σ_{j<i} l_j`, shifted right by `8·l_i` (the mirror image of
//!    the encoder's overlapping-store committer — the tail the load drags
//!    in sits past `nb` and is masked, never branched on).
//! 3. **Scan and output.** The carried word steps through the recurrence
//!    above, and each value is `(w & top) << s` → [`SzxFloat::from_word`]
//!    → `+ μ`.
//!
//! The kernel is **byte-for-byte equivalent** to the scalar decoder —
//! identical outputs on every valid stream (bit patterns included) and the
//! same error on exactly the corrupt streams the scalar loop rejects — which
//! the forged-payload tests below, the roundtrip property suite and the
//! fuzz oracle assert. The scalar decoder stays as the oracle, the scalar
//! [`KernelPath`](crate::config::KernelPath).

#![deny(clippy::cast_possible_truncation)]

use crate::block::{bytes_for, shift_for};
use crate::contracts::contract;
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;

/// Reusable scratch for the decode kernel: the slack-padded mid-byte pool.
/// A [`crate::Decoder`] owns one for its serial runs and keeps it across
/// calls; a parallel decode gives each pool thread its own, mirroring
/// [`crate::kernels::EncodeScratch`]. Either way the block loop performs
/// **zero** allocations once the arena has grown to the largest block.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Mid-byte pool copy with 8 bytes of slack so the unconditional
    /// overlapping 8-byte loads never read out of bounds.
    pool: Vec<u8>,
    /// Arena (re)allocation events, for allocation-regression tests.
    grows: u64,
}

impl DecodeScratch {
    /// Grow the arena to hold a block of `blen` elements. Amortized free:
    /// after the first block of maximal size this never reallocates.
    #[inline]
    pub(crate) fn ensure(&mut self, blen: usize) {
        if self.pool.len() < blen * 8 + 8 {
            self.grows += 1;
            self.pool.resize(blen * 8 + 8, 0);
        }
    }

    /// Drain the growth-event count (for telemetry/regression flushes).
    #[inline]
    pub(crate) fn take_grows(&mut self) -> u64 {
        std::mem::take(&mut self.grows)
    }

    /// Bytes currently reserved by the arena — published as the
    /// `decompress.scratch.arena_bytes` gauge at the telemetry flush.
    pub(crate) fn arena_bytes(&self) -> u64 {
        self.pool.capacity() as u64
    }
}

/// A validated non-constant `ByteAligned` block, ready to decode: its lead
/// codes, its mid-bytes, and the per-block constants. Shared by the kernel
/// and SIMD decoders so all reject exactly the corrupt payloads the scalar
/// loop rejects, with the same messages.
pub(crate) struct Block<'a> {
    /// The 2-bit lead codes, four per byte, first value in the high bits.
    pub(crate) codes: &'a [u8],
    /// The mid-bytes. [`Block::parse`] leaves exactly those the codes
    /// demand, in the payload itself; [`Block::prepare`] copies them into a
    /// pool at least `blen·nb + 8` bytes long: every value's offset is at
    /// most `(blen − 1)·nb`, so each 8-byte load stays inside.
    pub(crate) pool: &'a [u8],
    /// Significant bytes per word.
    pub(crate) nb: usize,
    /// Left shift back to the high-aligned word.
    pub(crate) s: u32,
    /// Mask of the `nb` significant high bytes.
    pub(crate) top: u64,
    /// Bit-exact block: μ is not added back.
    pub(crate) raw: bool,
}

impl<'a> Block<'a> {
    /// Parse and validate the `[R_k: u8][2-bit lead codes][mid-bytes]`
    /// payload of a `blen`-element block. Same checks, in the same order
    /// and with the same error messages, as the scalar
    /// [`crate::decode::decode_nonconstant_block`]. The block's `pool` is
    /// the payload's own mid-bytes, as many as its codes demand.
    pub(crate) fn parse<F: SzxFloat>(payload: &'a [u8], blen: usize) -> Result<Self> {
        let lead_bytes = (2 * blen).div_ceil(8);
        if payload.len() < 1 + lead_bytes {
            return Err(SzxError::CorruptStream("block payload truncated".into()));
        }
        // PANIC-OK: the length check above guarantees 1 + lead_bytes bytes.
        let req_len = payload[0] as u32;
        if req_len < F::SIGN_EXP_BITS || req_len > F::FULL_BITS {
            return Err(SzxError::CorruptStream(format!(
                "required length {req_len} invalid for {}",
                F::NAME
            )));
        }
        // PANIC-OK: same length check; payload.len() >= 1 + lead_bytes.
        let codes = &payload[1..1 + lead_bytes];
        let body = &payload[1 + lead_bytes..]; // PANIC-OK: as above
        let nb = bytes_for(req_len);
        let total = blen * nb - clamped_lead_sum(codes, blen, nb);
        let Some(pool) = body.get(..total) else {
            return Err(SzxError::CorruptStream("mid-byte pool truncated".into()));
        };
        Ok(Block {
            codes,
            pool,
            nb,
            s: shift_for(req_len),
            #[expect(clippy::cast_possible_truncation, reason = "nb <= 8")]
            top: !0u64 << (64 - 8 * nb as u32),
            raw: req_len == F::FULL_BITS,
        })
    }

    /// [`Self::parse`], then copy the mid-bytes into `scratch`'s
    /// slack-padded pool, for the decoders whose 8-byte loads run past them.
    pub(crate) fn prepare<F: SzxFloat>(
        payload: &'a [u8],
        blen: usize,
        scratch: &'a mut DecodeScratch,
    ) -> Result<Self> {
        let blk = Self::parse::<F>(payload, blen)?;
        scratch.ensure(blen);
        contract!(
            scratch.pool.len() >= blen * blk.nb + 8,
            "pool arena sized for {blen} values of {} bytes",
            blk.nb
        );
        // PANIC-OK: parse left at most blen * nb <= blen * 8 mid-bytes, and
        // ensure() sized the pool to blen * 8 + 8.
        scratch.pool[..blk.pool.len()].copy_from_slice(blk.pool);
        Ok(Block {
            pool: &scratch.pool,
            ..blk
        })
    }

    /// The decoded value of the carried word `w`.
    #[inline(always)]
    pub(crate) fn value<F: SzxFloat>(&self, w: u64, mu: F) -> F {
        let v = F::from_word((w & self.top) << self.s);
        if self.raw {
            v
        } else {
            v + mu
        }
    }
}

/// `Σ min(c_i, nb)` over a block's `blen` 2-bit lead codes, by popcounts
/// eight code bytes at a time. With `h` and `l` the high and low bit planes
/// of the codes (`c = 2h + l`), the sum is `2h + l`, less `h & l` (the
/// codes of 3) when `nb = 2` clamps them to 2. No other `nb` clamps: a
/// required length is at least 9 bits, so `nb ≥ 2`. The padding codes past
/// `blen` in the last byte are subtracted back out: the scalar loop never
/// reads them, so a forged stream may set them.
fn clamped_lead_sum(codes: &[u8], blen: usize, nb: usize) -> usize {
    const LO: u64 = 0x5555_5555_5555_5555;
    contract!(nb >= 2, "required lengths of at least 9 bits give nb >= 2");
    let sum = |x: u64| -> u32 {
        let (h, l) = ((x >> 1) & LO, x & LO);
        let clamped = if nb == 2 { h & l } else { 0 };
        2 * u64::count_ones(h) + u64::count_ones(l) - u64::count_ones(clamped)
    };
    let mut total = 0u32;
    for chunk in codes.chunks(8) {
        let mut bytes = [0u8; 8];
        // PANIC-OK: chunks(8) yields at most 8 bytes.
        bytes[..chunk.len()].copy_from_slice(chunk);
        total += sum(u64::from_le_bytes(bytes));
    }
    if let Some(&last) = codes.last() {
        let pad_bits = 2 * ((4 - blen % 4) % 4);
        total -= sum(u64::from(last) & ((1u64 << pad_bits) - 1));
    }
    total as usize
}

/// The carried state of the one-pass scan — the pool offset and the word
/// `w_{i-1}` — plus the block's per-code step tables: for raw lead code
/// `c` with clamped `l = min(c, nb)`, the `keep(l)` mask of the inherited
/// high bytes, the `8·l` alignment shift, and the `nb − l` pool advance.
/// The SIMD decoder hands its lane-3 word and offset to one of these for a
/// ragged tail.
pub(crate) struct Scan {
    keep: [u64; 4],
    shr: [u32; 4],
    adv: [usize; 4],
    /// Pool offset of the next value's mid-bytes.
    pub(crate) off: usize,
    /// The last reconstructed word (0 before the block's first value).
    pub(crate) w: u64,
}

impl Scan {
    pub(crate) fn new(nb: usize) -> Self {
        let (mut keep, mut shr, mut adv) = ([0; 4], [0; 4], [0; 4]);
        #[expect(clippy::cast_possible_truncation, reason = "l <= 3")]
        for c in 0..4 {
            let l = c.min(nb);
            keep[c] = !(u64::MAX >> (8 * l)); // PANIC-OK: c < 4
            shr[c] = 8 * l as u32; // PANIC-OK: as above
            adv[c] = nb - l; // PANIC-OK: as above
        }
        Scan {
            keep,
            shr,
            adv,
            off: 0,
            w: 0,
        }
    }

    /// Decode the values of `out` (at most four) from `byte`'s 2-bit codes,
    /// high bits first.
    #[inline(always)]
    pub(crate) fn decode_byte<F: SzxFloat>(
        &mut self,
        blk: &Block<'_>,
        byte: u8,
        out: &mut [F],
        mu: F,
    ) {
        for (slot, sh) in out.iter_mut().zip([6u32, 4, 2, 0]) {
            let c = usize::from((byte >> sh) & 3);
            let off = self.off;
            contract!(
                off + 8 <= blk.pool.len(),
                "overlapping load at {off} must stay inside the slack-padded pool"
            );
            // PANIC-OK: off <= (blen - 1) * nb and the pool holds
            // blen * nb + 8 bytes (Block::prepare); the unwrap is on an
            // infallible 8-byte slice -> [u8; 8] conversion; c <= 3 bounds
            // the step tables.
            let a = u64::from_be_bytes(blk.pool[off..off + 8].try_into().unwrap()) >> self.shr[c];
            self.off = off + self.adv[c]; // PANIC-OK: as above
            self.w = a | (self.w & self.keep[c]); // PANIC-OK: as above
            *slot = blk.value(self.w, mu);
        }
    }
}

/// Kernel decode of one non-constant `ByteAligned` block payload into `out`
/// (of the block's length), four values per code byte. Same validation,
/// same outputs, and same errors as the scalar
/// [`crate::decode::decode_nonconstant_block`].
pub(crate) fn decode_nonconstant_block<F: SzxFloat>(
    payload: &[u8],
    out: &mut [F],
    mu: F,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    let blk = Block::prepare::<F>(payload, out.len(), scratch)?;
    let mut scan = Scan::new(blk.nb);
    let (quads, tail) = out.as_chunks_mut::<4>();
    for (vals, &byte) in quads.iter_mut().zip(blk.codes) {
        scan.decode_byte(&blk, byte, vals, mu);
    }
    if let Some(&byte) = blk.codes.get(quads.len()) {
        scan.decode_byte(&blk, byte, tail, mu);
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::config::{CommitStrategy, SzxConfig};
    use crate::decode::decode_nonconstant_block as scalar_decode;

    /// Compress one block's worth of data and return the non-constant
    /// payload plus μ (panics if the block classified constant).
    fn one_block_payload(data: &[f32], eb: f64) -> (Vec<u8>, f32) {
        let cfg = SzxConfig::absolute(eb).with_block_size(data.len());
        let bytes = crate::compress(data, &cfg).unwrap();
        let index = crate::decode::StreamIndex::parse::<f32>(&bytes).unwrap();
        let (mu, payload) = index.blocks::<f32>(0).next().unwrap();
        let payload = payload.expect("fixture block must be non-constant");
        (bytes[payload].to_vec(), mu)
    }

    fn assert_kernel_matches_scalar(data: &[f32], eb: f64) {
        let (payload, mu) = one_block_payload(data, eb);
        let mut scalar_out = vec![0f32; data.len()];
        let mut kernel_out = vec![0f32; data.len()];
        scalar_decode(&payload, &mut scalar_out, mu, CommitStrategy::ByteAligned).unwrap();
        let mut scratch = DecodeScratch::default();
        decode_nonconstant_block(&payload, &mut kernel_out, mu, &mut scratch).unwrap();
        for (i, (a, b)) in scalar_out.iter().zip(&kernel_out).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i} differs");
        }
    }

    #[test]
    fn kernel_matches_scalar_on_plain_blocks() {
        // n = 1 is absent: a single finite value always classifies
        // constant (radius 0), so no non-constant payload exists.
        for n in [2usize, 3, 7, 8, 17, 128, 1000] {
            let data: Vec<f32> = (0..n)
                .map(|i| (i as f32 * 0.11).sin() * 5.0 + 0.25)
                .collect();
            assert_kernel_matches_scalar(&data, 1e-3);
        }
    }

    #[test]
    fn kernel_matches_scalar_on_single_element_raw_block() {
        // A lone NaN forces the bit-exact (req_len = FULL_BITS) fallback,
        // the only way a 1-element block is non-constant.
        assert_kernel_matches_scalar(&[f32::NAN], 1e-3);
    }

    #[test]
    fn kernel_matches_scalar_across_required_lengths() {
        // Sweep bounds so req_len (and therefore nb, shift, and lead caps)
        // covers the full spectrum, including the bit-exact fallback.
        let data: Vec<f32> = (0..256)
            .map(|i| ((i * 37 % 97) as f32) * 0.31 - 15.0)
            .collect();
        for eb in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 0.0] {
            assert_kernel_matches_scalar(&data, eb);
        }
    }

    #[test]
    fn kernel_matches_scalar_on_nan_inf_blocks() {
        let mut data: Vec<f32> = (0..128).map(|i| (i as f32 * 0.01).cos()).collect();
        data[3] = f32::NAN;
        data[77] = f32::INFINITY;
        data[78] = f32::NEG_INFINITY;
        assert_kernel_matches_scalar(&data, 1e-3);
    }

    #[test]
    fn kernel_matches_scalar_on_high_dedup_blocks() {
        // Slowly varying data maximizes nonzero lead codes, exercising the
        // carried word over long inheritance chains; a few restarts
        // punctuate them.
        let mut data: Vec<f32> = (0..512).map(|i| 100.0 + i as f32 * 1e-4).collect();
        data[100] = -250.0;
        data[300] = 1e20;
        assert_kernel_matches_scalar(&data, 1e-6);
    }

    #[test]
    fn truncated_pool_is_an_error_not_a_panic() {
        let data: Vec<f32> = (0..128).map(|i| (i as f32 * 0.3).sin() * 9.0).collect();
        let (payload, mu) = one_block_payload(&data, 1e-4);
        let mut scratch = DecodeScratch::default();
        let mut out = vec![0f32; data.len()];
        for cut in 0..payload.len() {
            let r = decode_nonconstant_block(&payload[..cut], &mut out, mu, &mut scratch);
            let s = scalar_decode(
                &payload[..cut],
                &mut out,
                mu,
                crate::config::CommitStrategy::ByteAligned,
            );
            assert_eq!(r.is_err(), s.is_err(), "cut at {cut}");
            assert!(r.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn scratch_grows_once_per_high_water_mark() {
        let mut s = DecodeScratch::default();
        s.ensure(128);
        s.ensure(64);
        s.ensure(128);
        assert_eq!(s.grows, 1);
        s.ensure(4096);
        assert_eq!(s.take_grows(), 2);
        assert!(s.pool.len() >= 4096 * 8 + 8);
        assert!(s.arena_bytes() >= 4096 * 8 + 8);
    }

    /// xorshift64* — a fixed, dependency-free byte source for forging.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    /// Decode `payload` as a `blen`-element block on every path, and on
    /// each coder backend this CPU has, and assert they agree bit for bit
    /// — or fail with the same message.
    fn assert_paths_agree<F: SzxFloat>(payload: &[u8], blen: usize, mu: F, what: &str) {
        let mut scratch = DecodeScratch::default();
        // A fresh output per path, so a path that skips values cannot pass
        // on another path's leftovers.
        let mut run = |path: Option<crate::simd::Isa>| {
            let mut out = vec![F::ZERO; blen];
            let r = match path {
                None => scalar_decode(payload, &mut out, mu, CommitStrategy::ByteAligned),
                Some(isa) => crate::simd::decode_on(isa, payload, &mut out, mu, &mut scratch),
            };
            r.map(|()| out.iter().map(|v| v.to_word()).collect::<Vec<_>>())
                .map_err(|e| e.to_string())
        };
        let scalar = run(None);
        // The portable backend is this module's kernel.
        for isa in crate::simd::isas::<F>() {
            assert_eq!(scalar, run(Some(isa)), "{} vs scalar: {what}", isa.name());
        }
    }

    /// Forge `[R_k][codes][pool]` payloads straight from random bytes — lead
    /// codes of 3 under `nb = 2` (the clamp), set padding bits, block
    /// lengths around the quad and sixteen-lane steps, raw blocks, every
    /// `req_len` — and check every decoder agrees on every one, and on
    /// every truncation of its pool.
    /// Beside random code bytes, three fills drive each lane's load to its
    /// extreme offset: `0x00` (no leads, so lane k of the last quad loads
    /// at `(blen − 1)·nb`, the farthest any load reaches), `0xFF` (every
    /// lead 3, all clamped under `nb = 2`, and every padding code set) and
    /// `0x1B` (leads 0, 1, 2, 3 across each quad). Each block is also decoded with a pool of exactly
    /// the bytes its codes demand, ending at the slice's end.
    fn forged_payloads_agree<F: SzxFloat>(seed: u64, mu: F) {
        let mut rng = Rng(seed);
        for blen in (1usize..=17).chain(31..=33).chain(127..=129).chain([4096]) {
            for req_len in F::SIGN_EXP_BITS..=F::FULL_BITS {
                for fill in [None, Some(0x00), Some(0xFF), Some(0x1B)] {
                    let nb = bytes_for(req_len);
                    let header = 1 + (2 * blen).div_ceil(8);
                    let mut payload = vec![req_len as u8];
                    match fill {
                        Some(b) => payload.resize(header, b),
                        None => payload.extend(rng.bytes(header - 1)),
                    }
                    // Enough mid-bytes for any codes; the decoders read only
                    // what the codes demand.
                    payload.extend(rng.bytes(blen * nb));
                    let total = blen * nb
                        - (0..blen)
                            .map(|i| ((payload[1 + i / 4] >> (6 - 2 * (i % 4))) & 3).min(nb as u8))
                            .map(usize::from)
                            .sum::<usize>();
                    let what = format!(
                        "{} blen={blen} req_len={req_len} fill={fill:#04x?}",
                        F::NAME
                    );
                    assert_paths_agree(&payload[..header + total], blen, mu, &what);
                    assert_paths_agree(&payload, blen, mu, &what);
                    // Every shorter cut, on the blocks small enough to sweep.
                    let cuts = if blen <= 129 { header + total } else { 0 };
                    for cut in 0..cuts {
                        assert_paths_agree(&payload[..cut], blen, mu, &format!("{what} cut={cut}"));
                    }
                }
            }
        }
    }

    #[test]
    fn forged_payloads_decode_identically_on_every_path() {
        forged_payloads_agree::<f32>(0x5eed_0001, 0.75);
        forged_payloads_agree::<f64>(0x5eed_0002, -3.5);
        // Invalid required lengths fail with one message on every path.
        for req_len in [0u8, 8, 33, 255] {
            assert_paths_agree::<f32>(&[req_len, 0, 0], 4, 0.0, "bad req_len f32");
        }
        for req_len in [0u8, 11, 65, 255] {
            assert_paths_agree::<f64>(&[req_len, 0, 0], 4, 0.0, "bad req_len f64");
        }
    }
}
