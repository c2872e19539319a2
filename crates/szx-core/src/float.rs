//! Abstraction over the IEEE-754 element types SZx compresses.
//!
//! The codec manipulates values through a *high-aligned* 64-bit word: the raw
//! bit pattern of an `f32` is shifted into the top 32 bits of a `u64`, while
//! an `f64` occupies the whole word. High alignment makes every bit-level
//! operation of the algorithm — the right shift of §5.1, the XOR
//! leading-byte comparison, and the big-endian byte extraction of the
//! mid-bytes — identical for both element types, so the encoder and decoder
//! are written once, generically.

/// Sealed marker so downstream crates cannot add element types that the
/// stream format does not know how to tag.
mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// An IEEE-754 element type compressible by SZx (`f32` or `f64`).
pub trait SzxFloat:
    Copy
    + PartialOrd
    + core::ops::Sub<Output = Self>
    + core::ops::Add<Output = Self>
    + core::fmt::Debug
    + Default
    + Send
    + Sync
    + sealed::Sealed
    + 'static
{
    /// Total bits in the type: 32 or 64. `fullbits(type)` in Formula (4).
    const FULL_BITS: u32;
    /// Bytes per element.
    const BYTES: usize;
    /// Sign bit plus exponent field width: 9 for `f32`, 12 for `f64`.
    /// These bits are always part of the "required" prefix of a normalized
    /// value because the truncation analysis only discards mantissa bits.
    const SIGN_EXP_BITS: u32;
    /// IEEE exponent bias: 127 / 1023.
    const EXP_BIAS: i32;
    /// Mantissa field width: 23 / 52.
    const MANT_BITS: u32;
    /// Tag byte stored in the stream header.
    const DTYPE_CODE: u8;
    /// Human-readable name used in error messages.
    const NAME: &'static str;
    /// Additive identity.
    const ZERO: Self;

    /// Raw bit pattern, shifted so the sign bit lands in bit 63 of the word.
    fn to_word(self) -> u64;
    /// Inverse of [`to_word`](Self::to_word).
    fn from_word(word: u64) -> Self;
    /// Unbiased binary exponent extracted directly from the bit pattern —
    /// the `p(x)` of Formula (4). Zero and subnormals report `-EXP_BIAS`;
    /// infinities and NaN report `EXP_BIAS + 1`, which drives the required
    /// length to `FULL_BITS` and therefore falls back to bit-exact storage.
    fn exponent(self) -> i32;
    /// `(a + b) * 0.5` — the only multiplication in the whole compressor,
    /// executed once per block exactly as the reference implementation does.
    fn half_sum(a: Self, b: Self) -> Self;
    /// NaN test (generic code can't use the inherent `is_nan`).
    fn is_nan(self) -> bool;
    /// Lossless widening for metrics and error-bound math.
    fn to_f64(self) -> f64;
    /// Narrowing conversion used when resolving relative error bounds.
    fn from_f64(x: f64) -> Self;
    /// Serialize one element little-endian into `out`.
    fn write_le(self, out: &mut Vec<u8>);
    /// Deserialize one element little-endian from the front of `src`.
    /// Caller guarantees `src.len() >= Self::BYTES`.
    fn read_le(src: &[u8]) -> Self;

    /// View as an `f32` slice when `Self` is `f32` — the zero-unsafe
    /// downcast the SIMD dispatch layer uses to route generic calls to
    /// concretely typed intrinsic kernels. `None` for `f64`.
    fn as_f32s(data: &[Self]) -> Option<&[f32]>;
    /// Mutable variant of [`as_f32s`](Self::as_f32s).
    fn as_f32s_mut(data: &mut [Self]) -> Option<&mut [f32]>;
    /// View as an `f64` slice when `Self` is `f64`. `None` for `f32`.
    fn as_f64s(data: &[Self]) -> Option<&[f64]>;
    /// Mutable variant of [`as_f64s`](Self::as_f64s).
    fn as_f64s_mut(data: &mut [Self]) -> Option<&mut [f64]>;
}

impl SzxFloat for f32 {
    const FULL_BITS: u32 = 32;
    const BYTES: usize = 4;
    const SIGN_EXP_BITS: u32 = 9;
    const EXP_BIAS: i32 = 127;
    const MANT_BITS: u32 = 23;
    const DTYPE_CODE: u8 = 0;
    const NAME: &'static str = "f32";
    const ZERO: Self = 0.0;

    #[inline(always)]
    fn to_word(self) -> u64 {
        (self.to_bits() as u64) << 32
    }

    #[inline(always)]
    fn from_word(word: u64) -> Self {
        f32::from_bits((word >> 32) as u32)
    }

    #[inline(always)]
    fn exponent(self) -> i32 {
        let biased = ((self.to_bits() >> 23) & 0xff) as i32;
        biased - Self::EXP_BIAS
    }

    #[inline(always)]
    fn half_sum(a: Self, b: Self) -> Self {
        (a + b) * 0.5
    }

    #[inline(always)]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }

    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> Self {
        f32::from_le_bytes([src[0], src[1], src[2], src[3]])
    }

    #[inline(always)]
    fn as_f32s(data: &[Self]) -> Option<&[f32]> {
        Some(data)
    }

    #[inline(always)]
    fn as_f32s_mut(data: &mut [Self]) -> Option<&mut [f32]> {
        Some(data)
    }

    #[inline(always)]
    fn as_f64s(_data: &[Self]) -> Option<&[f64]> {
        None
    }

    #[inline(always)]
    fn as_f64s_mut(_data: &mut [Self]) -> Option<&mut [f64]> {
        None
    }
}

impl SzxFloat for f64 {
    const FULL_BITS: u32 = 64;
    const BYTES: usize = 8;
    const SIGN_EXP_BITS: u32 = 12;
    const EXP_BIAS: i32 = 1023;
    const MANT_BITS: u32 = 52;
    const DTYPE_CODE: u8 = 1;
    const NAME: &'static str = "f64";
    const ZERO: Self = 0.0;

    #[inline(always)]
    fn to_word(self) -> u64 {
        self.to_bits()
    }

    #[inline(always)]
    fn from_word(word: u64) -> Self {
        f64::from_bits(word)
    }

    #[inline(always)]
    fn exponent(self) -> i32 {
        let biased = ((self.to_bits() >> 52) & 0x7ff) as i32;
        biased - Self::EXP_BIAS
    }

    #[inline(always)]
    fn half_sum(a: Self, b: Self) -> Self {
        (a + b) * 0.5
    }

    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }

    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> Self {
        f64::from_le_bytes([
            src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7],
        ])
    }

    #[inline(always)]
    fn as_f32s(_data: &[Self]) -> Option<&[f32]> {
        None
    }

    #[inline(always)]
    fn as_f32s_mut(_data: &mut [Self]) -> Option<&mut [f32]> {
        None
    }

    #[inline(always)]
    fn as_f64s(data: &[Self]) -> Option<&[f64]> {
        Some(data)
    }

    #[inline(always)]
    fn as_f64s_mut(data: &mut [Self]) -> Option<&mut [f64]> {
        Some(data)
    }
}

/// Unbiased exponent of an `f64`, used for the error bound `e` regardless of
/// the element type being compressed (`p(e)` in Formula (4)).
#[inline]
pub fn f64_exponent(x: f64) -> i32 {
    x.exponent()
}

/// The native-endian bytes of `values`, in place: on a little-endian
/// target, the layout of a raw `.f32`/`.f64` file.
#[inline]
#[allow(unsafe_code)]
pub fn as_bytes<F: SzxFloat>(values: &[F]) -> &[u8] {
    // SAFETY: `F` is sealed to f32 and f64, which have no padding, so every
    // byte of the slice is initialized; u8 has alignment 1, and the view
    // covers exactly `size_of_val(values)` bytes of the same borrow.
    unsafe { core::slice::from_raw_parts(values.as_ptr().cast(), size_of_val(values)) }
}

/// [`as_bytes`], writable: any bytes written leave valid values, as every
/// bit pattern is an f32 or f64 (some of them NaN).
#[inline]
#[allow(unsafe_code)]
pub fn as_bytes_mut<F: SzxFloat>(values: &mut [F]) -> &mut [u8] {
    let len = size_of_val(values);
    // SAFETY: as in `as_bytes`; the view holds the unique borrow, and f32
    // and f64 have no invalid bit patterns.
    unsafe { core::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), len) }
}

/// Reverse the bytes of every value in place: on a big-endian target, the
/// conversion between a window's [`as_bytes`] and its little-endian file
/// layout, either way.
pub fn swap_bytes<F: SzxFloat>(values: &mut [F]) {
    for v in values {
        *v = F::from_word(v.to_word().swap_bytes() << (64 - F::FULL_BITS));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_word_roundtrip() {
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.5,
            3.4e38,
            1e-44,
            f32::INFINITY,
            f32::MIN_POSITIVE,
        ] {
            assert_eq!(f32::from_word(v.to_word()).to_bits(), v.to_bits());
        }
        let nan = f32::from_bits(0x7fc0_1234);
        assert_eq!(f32::from_word(nan.to_word()).to_bits(), nan.to_bits());
    }

    #[test]
    fn f64_word_roundtrip() {
        for v in [0.0f64, -0.0, 1.0, -1.5, 1e300, 5e-324, f64::INFINITY] {
            assert_eq!(f64::from_word(v.to_word()).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn f32_word_is_high_aligned() {
        assert_eq!(1.0f32.to_word() >> 32, 1.0f32.to_bits() as u64);
        assert_eq!(1.0f32.to_word() & 0xffff_ffff, 0);
        // The sign bit of a negative value must land in bit 63.
        assert_eq!((-1.0f32).to_word() >> 63, 1);
        assert_eq!((-1.0f64).to_word() >> 63, 1);
    }

    #[test]
    fn exponent_matches_log2_for_normals() {
        for (v, e) in [
            (1.0f32, 0),
            (2.0, 1),
            (3.99, 1),
            (0.5, -1),
            (0.0009765625, -10),
        ] {
            assert_eq!(v.exponent(), e, "exponent of {v}");
            assert_eq!((-v).exponent(), e, "exponent of -{v}");
        }
        for (v, e) in [(1.0f64, 0), (1024.0, 10), (1e-3, -10), (0.75, -1)] {
            assert_eq!(SzxFloat::exponent(v), e, "exponent of {v}");
        }
    }

    #[test]
    fn exponent_edge_cases() {
        // Zero and subnormals collapse to -bias: conservative (smaller than the
        // true magnitude), which only ever *increases* the stored precision.
        assert_eq!(0.0f32.exponent(), -127);
        assert_eq!(f32::from_bits(1).exponent(), -127); // smallest subnormal
        assert_eq!(0.0f64.exponent(), -1023);
        // Non-finite values saturate, forcing bit-exact block storage.
        assert_eq!(f32::INFINITY.exponent(), 128);
        assert_eq!(f32::NAN.exponent(), 128);
        assert_eq!(f64::INFINITY.exponent(), 1024);
    }

    #[test]
    fn half_sum_is_midpoint() {
        assert_eq!(f32::half_sum(2.0, 4.0), 3.0);
        assert_eq!(f64::half_sum(-1.0, 1.0), 0.0);
    }

    #[test]
    fn le_io_roundtrip() {
        let mut buf = Vec::new();
        12.5f32.write_le(&mut buf);
        (-7.25f64).write_le(&mut buf);
        assert_eq!(buf.len(), 12);
        assert_eq!(f32::read_le(&buf[0..4]), 12.5);
        assert_eq!(f64::read_le(&buf[4..12]), -7.25);
    }

    /// Bit patterns a byte view must carry untouched: signaling-NaN
    /// payloads, −0.0, subnormals and ±inf.
    const F32_EDGES: [u32; 8] = [
        0x7f80_0001, // signaling NaN, lowest payload
        0xffa0_beef, // negative signaling NaN
        0x7fc0_1234, // quiet NaN with a payload
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // negative subnormal of the largest magnitude
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
    ];
    /// The same cases, in the same order, for f64.
    const F64_EDGES: [u64; 8] = [
        0x7ff0_0000_0000_0001,
        0xfff4_0000_dead_beef,
        0x7ff8_0000_0000_1234,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x800f_ffff_ffff_ffff,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
    ];

    /// The views agree with `write_le`/`read_le` (`to_le_bytes`/
    /// `from_le_bytes`) bit for bit, with the swap applied on a big-endian
    /// target; and the swap, called directly, gives the other byte order.
    fn byte_views_match_le_bytes<F: SzxFloat>(values: &[F]) {
        let bits = |v: &[F]| v.iter().map(|x| x.to_word()).collect::<Vec<_>>();
        let mut le = Vec::new();
        values.iter().for_each(|v| v.write_le(&mut le));
        let be: Vec<u8> = (le.chunks_exact(F::BYTES))
            .flat_map(|c| c.iter().rev().copied())
            .collect();
        let (native, other) = if cfg!(target_endian = "little") {
            (&le, &be)
        } else {
            (&be, &le)
        };
        assert_eq!(as_bytes(values), &native[..]);
        // Read: file bytes into the mutable view, then to native order.
        let mut read = vec![F::ZERO; values.len()];
        as_bytes_mut(&mut read).copy_from_slice(&le);
        if !cfg!(target_endian = "little") {
            swap_bytes(&mut read);
        }
        let from_le: Vec<F> = le.chunks_exact(F::BYTES).map(F::read_le).collect();
        assert_eq!(bits(&read), bits(&from_le));
        assert_eq!(bits(&read), bits(values));
        // The big-endian branch, run on any host: one swap gives the other
        // order's bytes, and a second restores every bit.
        let mut swapped = values.to_vec();
        swap_bytes(&mut swapped);
        assert_eq!(as_bytes(&swapped), &other[..]);
        swap_bytes(&mut swapped);
        assert_eq!(bits(&swapped), bits(values));
    }

    #[test]
    fn byte_view_f32_keeps_every_bit() {
        let values: Vec<f32> = F32_EDGES.iter().map(|&b| f32::from_bits(b)).collect();
        byte_views_match_le_bytes(&values);
        byte_views_match_le_bytes(&[1.5f32, -0.1, f32::MIN_POSITIVE]);
        byte_views_match_le_bytes::<f32>(&[]);
    }

    #[test]
    fn byte_view_f64_keeps_every_bit() {
        let values: Vec<f64> = F64_EDGES.iter().map(|&b| f64::from_bits(b)).collect();
        byte_views_match_le_bytes(&values);
        byte_views_match_le_bytes(&[1.5f64, -0.1, 1e-300]);
        byte_views_match_le_bytes::<f64>(&[]);
    }

    #[test]
    fn f64_exponent_of_error_bounds() {
        assert_eq!(f64_exponent(1e-3), -10);
        assert_eq!(f64_exponent(1e-4), -14);
        assert_eq!(f64_exponent(0.5), -1);
        assert_eq!(f64_exponent(1.0), 0);
    }
}
