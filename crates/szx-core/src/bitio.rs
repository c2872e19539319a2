//! MSB-first bit-level writer/reader.
//!
//! Used for the per-block state bits, the 2-bit leading-byte codes, and the
//! residual-bit pools of commit Solutions A and B. The byte-aligned Solution C
//! path (the paper's contribution) deliberately avoids this module in its
//! inner loop — that is the whole point of §5.1.

/// Append-only MSB-first bit writer backed by a `Vec<u8>`.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits already used in the final byte of `buf` (0 when byte-aligned).
    used: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bytes),
            used: 0,
        }
    }

    /// Reset to empty, keeping the allocation (for per-block reuse).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.used = 0;
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.used == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.used as usize
        }
    }

    /// Write the lowest `n` bits of `value`, most significant first.
    /// `n` must be at most 64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        // Mask away anything above the requested width so callers can pass
        // raw words.
        let value = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        let mut remaining = n;
        while remaining > 0 {
            if self.used == 0 {
                self.buf.push(0);
                self.used = 0;
            }
            let free = 8 - self.used;
            let take = free.min(remaining);
            let chunk = (value >> (remaining - take)) as u8 & ((1u16 << take) - 1) as u8;
            // PANIC-OK: when used == 0 a byte was just pushed above, so the
            // buffer is never empty here. (Writer side; not fed untrusted
            // bytes, but the whole module is audited uniformly.)
            let last = self.buf.last_mut().expect("buffer has a current byte");
            *last |= chunk << (free - take);
            self.used = (self.used + take) % 8;
            remaining -= take;
        }
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Write the low `n` bits of `value`, least significant first (the
    /// convention of ZFP-style bitplane coding).
    #[inline]
    pub fn write_bits_lsb(&mut self, value: u64, n: u32) {
        for i in 0..n {
            self.write_bit((value >> i) & 1 != 0);
        }
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        self.used = 0;
    }

    /// Finish and return the underlying bytes (final partial byte is
    /// zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes the writer holds room for without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Bits still available.
    pub fn remaining(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Read `n <= 64` bits MSB-first. Returns `None` past the end.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        if n == 0 {
            return Some(0);
        }
        if n as usize > self.remaining() {
            return None;
        }
        let mut out = 0u64;
        let mut remaining = n;
        while remaining > 0 {
            // PANIC-OK: the remaining() check above guarantees pos + n bits
            // fit, so pos / 8 stays within buf for the whole loop.
            let byte = self.buf[self.pos / 8];
            let offset = (self.pos % 8) as u32;
            let avail = 8 - offset;
            let take = avail.min(remaining);
            let chunk = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
            out = (out << take) | chunk as u64;
            self.pos += take as usize;
            remaining -= take;
        }
        Some(out)
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b != 0)
    }

    /// Read `n` bits least-significant-first (inverse of
    /// [`BitWriter::write_bits_lsb`]).
    #[inline]
    pub fn read_bits_lsb(&mut self, n: u32) -> Option<u64> {
        let mut v = 0u64;
        for i in 0..n {
            v |= (self.read_bit()? as u64) << i;
        }
        Some(v)
    }

    /// Peek `n <= 64` bits without consuming them.
    #[inline]
    pub fn peek_bits(&self, n: u32) -> Option<u64> {
        let mut copy = self.clone();
        copy.read_bits(n)
    }

    /// Advance the cursor by `n` bits (saturating at the end).
    #[inline]
    pub fn skip_bits(&mut self, n: u32) {
        self.pos = (self.pos + n as usize).min(self.buf.len() * 8);
    }

    /// Skip forward to the next byte boundary.
    pub fn align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Absolute bit position (for diagnostics).
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

/// Borrowed, zero-copy view over the paper's per-block state bit array
/// (MSB-first, one bit per block: `1` = non-constant).
///
/// The decoder used to expand this section into a `Vec<bool>` on every
/// decompression; the view answers the same queries straight from the
/// stream bytes, so building a [`crate::decode::StreamIndex`] no longer
/// allocates O(nblocks) for block states.
#[derive(Debug, Clone, Copy)]
pub struct StateBits<'a> {
    bytes: &'a [u8],
    n: usize,
}

impl<'a> StateBits<'a> {
    /// Wrap `n` state bits stored MSB-first in `bytes`. Returns `None` when
    /// the section is too short to hold them.
    pub fn new(bytes: &'a [u8], n: usize) -> Option<Self> {
        if bytes.len() < n.div_ceil(8) {
            return None;
        }
        Some(StateBits { bytes, n })
    }

    /// Number of blocks covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// State of block `i` (`true` = non-constant). Panics if out of range,
    /// matching slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        // PANIC-OK: the documented out-of-range panic mirrors slice
        // indexing; new() guaranteed bytes covers ceil(n / 8).
        assert!(i < self.n, "state bit {i} out of range ({} blocks)", self.n);
        // PANIC-OK: i < n just asserted; new() guaranteed ceil(n / 8) bytes.
        (self.bytes[i / 8] >> (7 - i % 8)) & 1 != 0
    }

    /// Number of set bits (non-constant blocks), ignoring any padding bits
    /// past `n` in the final byte — a forged tail must not inflate the count.
    pub fn count_ones(&self) -> usize {
        let full = self.n / 8;
        // PANIC-OK: new() guaranteed bytes.len() >= ceil(n / 8), which
        // covers both the full-byte prefix and the partial final byte.
        let mut count: usize = self.bytes[..full]
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum();
        let rem = self.n % 8;
        if rem > 0 {
            let mask = !0u8 << (8 - rem);
            // PANIC-OK: rem > 0 means ceil(n / 8) == full + 1 <= bytes.len().
            count += (self.bytes[full] & mask).count_ones() as usize;
        }
        count
    }

    /// The states of blocks `first..first + n` (fewer at the end), with
    /// `first` a multiple of 8 like a window's first block.
    pub fn window(&self, first: usize, n: usize) -> Self {
        let bytes = self.bytes.get(first / 8..).unwrap_or_default();
        StateBits {
            bytes,
            n: n.min(self.n.saturating_sub(first)),
        }
    }

    /// Iterate the `n` states in block order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.n).map(move |i| self.get(i))
    }
}

/// Pack one `bool` per block into the paper's state bit array (MSB-first).
pub fn pack_state_bits(states: &[bool]) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(states.len().div_ceil(8));
    for &s in states {
        w.write_bit(s);
    }
    w.into_bytes()
}

/// Unpack `n` state bits.
pub fn unpack_state_bits(bytes: &[u8], n: usize) -> Option<Vec<bool>> {
    if bytes.len() < n.div_ceil(8) {
        return None;
    }
    let mut r = BitReader::new(bytes);
    (0..n).map(|_| r.read_bit()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xdead_beef, 32);
        w.write_bits(1, 1);
        w.write_bits(0x3f, 6);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(32), Some(0xdead_beef));
        assert_eq!(r.read_bits(1), Some(1));
        assert_eq!(r.read_bits(6), Some(0x3f));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn write_masks_excess_high_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0xffff, 4); // only the low 4 bits should land
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1111_0000]);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 5);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(0, 9);
        assert_eq!(w.bit_len(), 17);
    }

    #[test]
    fn align_pads_to_byte() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.align();
        w.write_bits(0xab, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000, 0xab]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit(), Some(true));
        r.align();
        assert_eq!(r.read_bits(8), Some(0xab));
    }

    #[test]
    fn read_past_end_is_none() {
        let bytes = [0xff];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0xff));
        assert_eq!(r.read_bits(1), None);
        // Partial over-read must not consume anything.
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(9), None);
        assert_eq!(r.remaining(), 8);
    }

    #[test]
    fn zero_width_ops() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0), Some(0));
    }

    #[test]
    fn state_bits_roundtrip() {
        let states: Vec<bool> = (0..37).map(|i| i % 3 == 0).collect();
        let packed = pack_state_bits(&states);
        assert_eq!(packed.len(), 5);
        assert_eq!(unpack_state_bits(&packed, 37).unwrap(), states);
        assert!(unpack_state_bits(&packed, 41).is_none());
    }

    #[test]
    fn state_bits_view_matches_unpack() {
        for n in [0usize, 1, 7, 8, 9, 37, 64, 129] {
            let states: Vec<bool> = (0..n).map(|i| i % 5 == 0 || i % 3 == 1).collect();
            let packed = pack_state_bits(&states);
            let view = StateBits::new(&packed, n).unwrap();
            assert_eq!(view.len(), n);
            assert_eq!(view.is_empty(), n == 0);
            assert_eq!(view.iter().collect::<Vec<_>>(), states, "n={n}");
            assert_eq!(
                view.count_ones(),
                states.iter().filter(|&&s| s).count(),
                "n={n}"
            );
            for (i, &s) in states.iter().enumerate() {
                assert_eq!(view.get(i), s);
            }
        }
        assert!(StateBits::new(&[0u8; 2], 17).is_none(), "section too short");
    }

    #[test]
    fn state_bits_ignore_padding_in_final_byte() {
        // 3 bits used, the 5 padding bits all forged to 1: the count must
        // still see only the real bits.
        let bytes = [0b101_11111u8];
        let view = StateBits::new(&bytes, 3).unwrap();
        assert_eq!(view.count_ones(), 2);
        assert!(view.get(0) && !view.get(1) && view.get(2));
    }

    #[test]
    fn msb_first_layout_is_stable() {
        // The exact bit layout is part of the stream format; lock it down.
        let mut w = BitWriter::new();
        for bit in [true, false, true, true, false, false, false, true] {
            w.write_bit(bit);
        }
        assert_eq!(w.into_bytes(), vec![0b1011_0001]);
    }
}
