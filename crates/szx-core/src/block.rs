//! Per-block statistics and the required-length computation of Formula (4).

use crate::float::{f64_exponent, SzxFloat};

/// Statistics of one fixed-size 1-D block (Algorithm 1, line 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockStats<F: SzxFloat> {
    /// Mean of min and max — `μ_k`, the single value stored for constant
    /// blocks and the normalization offset for non-constant blocks.
    pub mu: F,
    /// Variation radius `r_k = max(max − μ, μ − min)`: the farthest any
    /// block value sits from the stored μ. μ is the *rounded* midpoint, so
    /// the two sides can differ — when min and max are a single ULP apart
    /// the midpoint can round onto one endpoint exactly, and taking only
    /// `max − μ` would report a zero radius for a block that is not
    /// constant. NaN if the block contains a NaN, which classifies the
    /// block as non-constant and (via the saturated exponent) forces
    /// bit-exact storage.
    pub radius: F,
}

impl<F: SzxFloat> BlockStats<F> {
    /// One pass of comparisons and one add + one halving per block — the
    /// only non-bitwise arithmetic in the classification stage.
    #[inline]
    pub fn compute(block: &[F]) -> Self {
        debug_assert!(!block.is_empty());
        let [first, rest @ ..] = block else {
            // No block is empty; a zero radius keeps this total.
            return BlockStats {
                mu: F::ZERO,
                radius: F::ZERO,
            };
        };
        let (mut min, mut max) = (*first, *first);
        // `<`/`>` are false for NaN, so a mid-block NaN would silently be
        // skipped by the min/max scan; track it in the same loop (branchless
        // OR) so NaN-carrying blocks degrade to bit-exact storage instead of
        // corrupting the payload.
        let mut has_nan = first.is_nan();
        for &d in rest {
            if d < min {
                min = d;
            }
            if d > max {
                max = d;
            }
            has_nan |= d.is_nan();
        }
        Self::from_extrema(min, max, has_nan)
    }

    /// The stats of a block whose NaN-ignoring extrema are `min` and `max`:
    /// μ their rounded midpoint, or a NaN radius (bit-exact storage) when
    /// the block `has_nan`. Every block-stats path ends here.
    #[inline]
    pub(crate) fn from_extrema(min: F, max: F, has_nan: bool) -> Self {
        if has_nan {
            return BlockStats {
                mu: F::ZERO,
                radius: F::from_f64(f64::NAN),
            };
        }
        let mu = F::half_sum(min, max);
        BlockStats {
            mu,
            radius: radius_about(mu, min, max),
        }
    }

    /// Constant-block test (Algorithm 1, line 4): every value in the block
    /// is within `e` of `μ` iff the radius is within `e`.
    ///
    /// A valid radius is non-negative; NaN (block carries a NaN) fails the
    /// `r >= 0` half and `+inf` (the `min+max` sum overflowed, e.g. a block
    /// of values near `f32::MAX`, making μ = ±inf and one deviation
    /// infinite) fails the `r <= e` half — either way the block classifies
    /// as non-constant, where the saturated radius exponent then selects
    /// bit-exact storage.
    #[inline]
    pub fn is_constant(&self, eb: f64) -> bool {
        let r = self.radius.to_f64();
        r >= 0.0 && r <= eb
    }

    /// Constant-block test honoring the `eb = 0` bit-exactness promise.
    ///
    /// With `eb = 0` a radius of zero is not sufficient: `+0.0` and `-0.0`
    /// compare equal, so a mixed-zero block would collapse to one sign and
    /// lose bits. The (rare, perfectly predicted) extra branch only runs in
    /// lossless mode; every other numerically-equal value pair shares a bit
    /// pattern, so checking the first element's pattern suffices.
    #[inline]
    pub fn is_constant_for(&self, eb: f64, block: &[F]) -> bool {
        if !self.is_constant(eb) {
            return false;
        }
        if eb == 0.0 {
            let mut words = block.iter().map(|d| d.to_word());
            let first = words.next();
            return words.all(|w| Some(w) == first);
        }
        true
    }
}

/// Distance from the rounded midpoint `mu` to the farther of the two block
/// extremes. Shared by the scalar and kernel stat scans so their radii stay
/// bit-identical.
#[inline]
pub(crate) fn radius_about<F: SzxFloat>(mu: F, min: F, max: F) -> F {
    let lo = mu - min;
    let hi = max - mu;
    if lo > hi {
        lo
    } else {
        hi
    }
}

/// Required number of significant bits `R_k` for a non-constant block
/// (Formula (4) with the sign+exponent prefix made explicit, exactly as the
/// reference implementation's `computeReqLength_float` does):
///
/// ```text
/// R_k = SIGN_EXP_BITS + (p(r_k) - p(e) + 1)    clamped to [SIGN_EXP_BITS, FULL_BITS]
/// ```
///
/// `p(r) - p(e) + 1` mantissa bits guarantee a truncation error below
/// `2^(p(e) - 1) <= e/2`, leaving headroom for the normalize/denormalize
/// rounding (see the error-bound analysis in DESIGN.md §5). A result of
/// `FULL_BITS` signals bit-exact storage: the caller must then force `μ = 0`
/// and skip normalization so even NaN payloads round-trip.
#[inline]
pub fn required_length<F: SzxFloat>(radius: F, eb: f64) -> u32 {
    let rad_expo = radius.exponent();
    let req_expo = f64_exponent(eb);
    let req = F::SIGN_EXP_BITS as i64 + (rad_expo as i64 - req_expo as i64 + 1);
    req.clamp(F::SIGN_EXP_BITS as i64, F::FULL_BITS as i64) as u32
}

/// The right-shift distance of Formula (5): after shifting, the `R_k`
/// significant bits occupy exactly `ceil(R_k/8)` whole bytes.
#[inline]
pub fn shift_for(req_len: u32) -> u32 {
    (8 - req_len % 8) % 8
}

/// Number of whole bytes holding the (shifted) significant bits.
#[inline]
pub fn bytes_for(req_len: u32) -> usize {
    req_len.div_ceil(8) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = BlockStats::compute(&[1.0f32, 3.0, 2.0]);
        assert_eq!(s.mu, 2.0);
        assert_eq!(s.radius, 1.0);
        assert!(s.is_constant(1.0));
        assert!(!s.is_constant(0.999));
    }

    #[test]
    fn stats_single_element() {
        let s = BlockStats::compute(&[-4.5f64]);
        assert_eq!(s.mu, -4.5);
        assert_eq!(s.radius, 0.0);
        assert!(s.is_constant(0.0), "radius 0 is constant even at eb 0");
    }

    #[test]
    fn stats_all_equal() {
        let s = BlockStats::compute(&[7.25f32; 128]);
        assert_eq!(s.mu, 7.25);
        assert_eq!(s.radius, 0.0);
    }

    #[test]
    fn nan_anywhere_defeats_constant_classification() {
        for pos in [0usize, 1, 63, 127] {
            let mut block = vec![1.0f32; 128];
            block[pos] = f32::NAN;
            let s = BlockStats::compute(&block);
            assert!(
                !s.is_constant(f64::INFINITY),
                "NaN at {pos} must be non-constant"
            );
            assert_eq!(
                required_length::<f32>(s.radius, 1e-3),
                32,
                "NaN forces bit-exact"
            );
        }
    }

    #[test]
    fn mu_overflow_is_not_misclassified_as_constant() {
        // Regression: (min+max) overflows for a single value near f32::MAX,
        // making μ = inf and radius = -inf; a naive `radius <= eb` check
        // then stored inf as the representative value.
        let s = BlockStats::compute(&[2.2873212e38f32]);
        assert!(!s.is_constant(1e-3));
        assert_eq!(
            required_length::<f32>(s.radius, 1e-3),
            32,
            "must fall back to bit-exact"
        );
        let s = BlockStats::compute(&[3e38f32, 3.2e38]);
        assert!(!s.is_constant(f64::MAX));
    }

    #[test]
    fn one_ulp_spread_is_not_constant_below_ulp_bound() {
        // Regression (found by fuzzing): min and max one ULP apart. The
        // midpoint is exactly halfway, so `half_sum` ties-to-even onto one
        // endpoint — here max itself — and the old `radius = max - mu`
        // reported 0.0, classifying the block as constant for ANY bound and
        // decoding min a full ULP off. The radius must cover the farther
        // endpoint.
        let max = 1001.0f32;
        let min = f32::from_bits(max.to_bits() - 1);
        let s = BlockStats::compute(&[max, max, min, min]);
        assert_eq!(s.mu, max, "midpoint rounds onto the even endpoint");
        let ulp = f64::from(max) - f64::from(min);
        assert_eq!(s.radius.to_f64(), ulp, "radius covers the far endpoint");
        assert!(!s.is_constant(ulp / 16.0));
        assert!(s.is_constant(ulp), "a bound of one ULP still collapses it");
    }

    #[test]
    fn mixed_sign_zeros_are_not_constant_at_zero_bound() {
        // Regression: +0.0 and -0.0 compare equal, so radius is 0 and a
        // naive constant classification at eb=0 would erase the zero sign.
        let block = [0.0f32, -0.0, 0.0];
        let s = BlockStats::compute(&block);
        assert!(s.is_constant(0.0), "numerically constant");
        assert!(!s.is_constant_for(0.0, &block), "but not bit-constant");
        assert!(
            s.is_constant_for(1e-9, &block),
            "lossy bounds may collapse zeros"
        );
        let same = [-0.0f32, -0.0];
        assert!(BlockStats::compute(&same).is_constant_for(0.0, &same));
    }

    #[test]
    fn opposite_huge_values_overflow_to_lossless() {
        let s = BlockStats::compute(&[f32::MAX, f32::MIN]);
        // mu = 0, radius = MAX; required length for any practical bound
        // saturates at 32 only when the exponent gap is >= 23 bits.
        assert_eq!(s.mu, 0.0);
        assert_eq!(required_length::<f32>(s.radius, 1e-3), 32);
    }

    #[test]
    fn required_length_matches_hand_computation() {
        // radius 1.0 (expo 0), eb 1e-3 (expo -10): 9 + 0 - (-10) + 1 = 20.
        assert_eq!(required_length::<f32>(1.0f32, 1e-3), 20);
        // radius 8.0 (expo 3), eb 0.5 (expo -1): 9 + 3 + 1 + 1 = 14.
        assert_eq!(required_length::<f32>(8.0f32, 0.5), 14);
        // f64: 12 + 0 + 10 + 1 = 23.
        assert_eq!(required_length::<f64>(1.0f64, 1e-3), 23);
    }

    #[test]
    fn required_length_clamps() {
        // Huge precision gap -> full bits.
        assert_eq!(required_length::<f32>(1.0f32, 1e-30), 32);
        assert_eq!(required_length::<f64>(1.0f64, 0.0), 64, "eb=0 is lossless");
        // Radius far below bound (defensive: such a block would be constant).
        assert_eq!(required_length::<f32>(1e-20f32, 1.0), 9);
    }

    #[test]
    fn nonconstant_block_always_needs_a_mantissa_bit() {
        // For a genuinely non-constant block r > e, so p(r) >= p(e) and the
        // required length exceeds the sign+exponent prefix.
        for (r, e) in [(0.002f32, 1e-3f64), (1.5, 1.0), (100.0, 0.03)] {
            assert!(r as f64 > e);
            assert!(required_length::<f32>(r, e) > f32::SIGN_EXP_BITS);
        }
    }

    #[test]
    fn shift_makes_required_bits_byte_aligned() {
        for req in 9..=64u32 {
            let s = shift_for(req);
            assert!(s < 8);
            assert_eq!((req + s) % 8, 0, "req={req} s={s}");
            assert_eq!(bytes_for(req) * 8, (req + s) as usize);
        }
        assert_eq!(shift_for(16), 0);
        assert_eq!(shift_for(20), 4);
        assert_eq!(bytes_for(20), 3);
        assert_eq!(bytes_for(32), 4);
    }
}
