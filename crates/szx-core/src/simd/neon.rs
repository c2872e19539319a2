//! NEON backend for the dispatch layer in [`super`] (aarch64 only).
//!
//! NEON is an architectural baseline of aarch64, so the vector compare and
//! select intrinsics used here are statically available — no
//! `#[target_feature]` and therefore no unsafe-to-call surface; only the
//! pointer loads/stores are `unsafe`. The backend currently covers the
//! 8-lane `f32` range scan (the dominant cost of constant-block
//! classification); the coder passes delegate to the portable kernels
//! ([`super::Isa::Neon`]).
//!
//! The one semantic trap: `vminq_f32`/`vmaxq_f32` propagate NaN, but the
//! scalar oracle's `if d < min { d } else { min }` keeps the incumbent on
//! NaN. The kernels therefore use compare (`vcltq`/`vcgtq`, false on any
//! NaN operand) + bitwise select (`vbslq`). The AVX2 backend gets the same
//! select from `vminps(d, acc)`/`vmaxps(d, acc)`, which return their second
//! operand on NaN; NEON's min/max have no such operand order.

#![allow(unsafe_code)]
#![deny(clippy::cast_possible_truncation)]

use core::arch::aarch64::*;

use crate::block::BlockStats;
use crate::kernels::{finish_stats, LANES};

/// NEON equivalent of [`crate::kernels::block_stats`] for `f32`: one
/// 8-lane stripe held in two quad registers. Caller guarantees
/// `block.len() >= 2 * LANES`.
pub(super) fn block_stats_f32(block: &[f32]) -> BlockStats<f32> {
    let n = block.len();
    debug_assert!(n >= 2 * LANES);
    let full = n / LANES;
    let ptr = block.as_ptr();
    // SAFETY: n >= 2 * LANES = 16 (caller contract), so both 4-lane loads
    // of the first stripe are in bounds.
    let (first_lo, first_hi) = unsafe { (vld1q_f32(ptr), vld1q_f32(ptr.add(4))) };
    let (mut min_lo, mut min_hi) = (first_lo, first_hi);
    let (mut max_lo, mut max_hi) = (first_lo, first_hi);
    // A NaN lane fails the self-equality compare; accumulate complements.
    let mut nan_acc = vorrq_u32(
        vmvnq_u32(vceqq_f32(first_lo, first_lo)),
        vmvnq_u32(vceqq_f32(first_hi, first_hi)),
    );
    for k in 1..full {
        // SAFETY: k < full = n / LANES, so lanes k*8 .. k*8+8 are in bounds.
        let (d_lo, d_hi) = unsafe {
            (
                vld1q_f32(ptr.add(k * LANES)),
                vld1q_f32(ptr.add(k * LANES + 4)),
            )
        };
        min_lo = vbslq_f32(vcltq_f32(d_lo, min_lo), d_lo, min_lo);
        min_hi = vbslq_f32(vcltq_f32(d_hi, min_hi), d_hi, min_hi);
        max_lo = vbslq_f32(vcgtq_f32(d_lo, max_lo), d_lo, max_lo);
        max_hi = vbslq_f32(vcgtq_f32(d_hi, max_hi), d_hi, max_hi);
        nan_acc = vorrq_u32(nan_acc, vmvnq_u32(vceqq_f32(d_lo, d_lo)));
        nan_acc = vorrq_u32(nan_acc, vmvnq_u32(vceqq_f32(d_hi, d_hi)));
    }
    let mut minl = [0f32; LANES];
    let mut maxl = [0f32; LANES];
    // SAFETY: each half-store writes 4 f32 into an 8-element array.
    unsafe {
        vst1q_f32(minl.as_mut_ptr(), min_lo);
        vst1q_f32(minl.as_mut_ptr().add(4), min_hi);
        vst1q_f32(maxl.as_mut_ptr(), max_lo);
        vst1q_f32(maxl.as_mut_ptr().add(4), max_hi);
    }
    let has_nan = vmaxvq_u32(nan_acc) != 0;
    // Lane reduction in stripe order, then the scalar tail — identical
    // select semantics to the portable kernel.
    finish_stats(minl, maxl, has_nan, block.as_chunks::<LANES>().1)
}

/// NEON global min/max for `f32`, NaN-ignoring, `(+inf, -inf)` sentinels —
/// bit-identical to [`crate::kernels::minmax`]. Caller guarantees
/// `data.len() >= LANES`.
pub(super) fn minmax_f32(data: &[f32]) -> (f32, f32) {
    let n = data.len();
    debug_assert!(n >= LANES);
    let full = n / LANES;
    let ptr = data.as_ptr();
    let mut min_lo = vdupq_n_f32(f32::INFINITY);
    let mut min_hi = min_lo;
    let mut max_lo = vdupq_n_f32(f32::NEG_INFINITY);
    let mut max_hi = max_lo;
    for k in 0..full {
        // SAFETY: k < full = n / LANES, so lanes k*8 .. k*8+8 are in bounds.
        let (d_lo, d_hi) = unsafe {
            (
                vld1q_f32(ptr.add(k * LANES)),
                vld1q_f32(ptr.add(k * LANES + 4)),
            )
        };
        min_lo = vbslq_f32(vcltq_f32(d_lo, min_lo), d_lo, min_lo);
        min_hi = vbslq_f32(vcltq_f32(d_hi, min_hi), d_hi, min_hi);
        max_lo = vbslq_f32(vcgtq_f32(d_lo, max_lo), d_lo, max_lo);
        max_hi = vbslq_f32(vcgtq_f32(d_hi, max_hi), d_hi, max_hi);
    }
    let mut minl = [0f32; LANES];
    let mut maxl = [0f32; LANES];
    // SAFETY: each half-store writes 4 f32 into an 8-element array.
    unsafe {
        vst1q_f32(minl.as_mut_ptr(), min_lo);
        vst1q_f32(minl.as_mut_ptr().add(4), min_hi);
        vst1q_f32(maxl.as_mut_ptr(), max_lo);
        vst1q_f32(maxl.as_mut_ptr().add(4), max_hi);
    }
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for j in 0..LANES {
        min = if minl[j] < min { minl[j] } else { min };
        max = if maxl[j] > max { maxl[j] } else { max };
    }
    for &d in &data[full * LANES..] {
        min = if d < min { d } else { min };
        max = if d > max { d } else { max };
    }
    (min, max)
}
