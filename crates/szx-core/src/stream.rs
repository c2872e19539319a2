//! On-disk/in-memory layout of an SZx compressed stream.
//!
//! ```text
//! Header (36 bytes)
//!   0..4    magic  b"SZXR"
//!   4       format version (1)
//!   5       element-type code (0 = f32, 1 = f64)
//!   6       commit-strategy code (0 = A/BitPack, 1 = B/BytePlusResidual, 2 = C/ByteAligned)
//!   7       reserved (0)
//!   8..12   block_size   u32 LE
//!   12..20  n (elements) u64 LE
//!   20..28  absolute error bound f64 LE (relative bounds are resolved at
//!           compression time; the stream always carries the absolute bound)
//!   28..36  number of non-constant blocks u64 LE
//! Sections (in order)
//!   state bits    ceil(nblocks/8) bytes, 1 bit per block, MSB-first
//!                 (0 = constant, 1 = non-constant)
//!   μ array       nblocks elements LE (constant blocks: the representative
//!                 value; non-constant: the normalization offset; bit-exact
//!                 blocks: 0.0)
//!   zsize array   one u16 LE per non-constant block: its payload length —
//!                 this is what makes block-parallel decompression possible
//!   payloads      concatenated non-constant block payloads; each starts
//!                 with its required length R_k as one byte (see encode.rs)
//! ```

use crate::config::{CommitStrategy, MAX_BLOCK_SIZE};
use crate::cursor::Cursor;
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;

pub(crate) const MAGIC: [u8; 4] = *b"SZXR";
pub(crate) const VERSION: u8 = 1;
/// Byte length of the fixed header.
pub const HEADER_LEN: usize = 36;

/// Parsed stream header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Header {
    pub dtype: u8,
    pub strategy: CommitStrategy,
    pub block_size: usize,
    pub n: usize,
    pub eb: f64,
    pub n_nonconstant: usize,
}

impl Header {
    /// Number of blocks the stream describes. Written to avoid the
    /// `n + bs - 1` overflow a forged header could trigger.
    pub fn num_blocks(&self) -> usize {
        // ARITH-OK: `n / block_size < usize::MAX` and the rounding term is
        // 0 or 1, so the sum cannot wrap for any forged header value.
        self.n / self.block_size + usize::from(!self.n.is_multiple_of(self.block_size))
    }

    /// Serialize the header (public for alternative stream producers, e.g.
    /// the GPU execution model, which must emit byte-identical streams).
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.dtype);
        out.push(self.strategy.code());
        out.push(0);
        out.extend_from_slice(&(self.block_size as u32).to_le_bytes());
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        out.extend_from_slice(&self.eb.to_le_bytes());
        out.extend_from_slice(&(self.n_nonconstant as u64).to_le_bytes());
    }

    pub(crate) fn parse(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < HEADER_LEN {
            return Err(SzxError::CorruptStream(format!(
                "stream shorter than header: {} < {HEADER_LEN}",
                bytes.len()
            )));
        }
        // The length check above makes every cursor read below succeed; the
        // fallback error is unreachable but keeps the path panic-free even
        // if the layout constants drift.
        let mut c = Cursor::new(bytes);
        let trunc = || SzxError::CorruptStream("stream shorter than header".into());
        if c.take(4).ok_or_else(trunc)? != MAGIC {
            return Err(SzxError::CorruptStream("bad magic".into()));
        }
        let version = c.u8().ok_or_else(trunc)?;
        if version != VERSION {
            return Err(SzxError::CorruptStream(format!(
                "unsupported version {version}"
            )));
        }
        let dtype = c.u8().ok_or_else(trunc)?;
        if dtype > 1 {
            return Err(SzxError::CorruptStream(format!(
                "unknown dtype code {dtype}"
            )));
        }
        let strategy = CommitStrategy::from_code(c.u8().ok_or_else(trunc)?)?;
        let _reserved = c.u8().ok_or_else(trunc)?;
        let block_size = c.u32_le().ok_or_else(trunc)? as usize;
        if block_size == 0 || block_size > MAX_BLOCK_SIZE {
            return Err(SzxError::CorruptStream(format!(
                "block size {block_size} out of range"
            )));
        }
        let n = c.u64_le().ok_or_else(trunc)? as usize;
        if n == 0 {
            return Err(SzxError::CorruptStream(
                "stream declares zero elements".into(),
            ));
        }
        let eb = c.f64_le().ok_or_else(trunc)?;
        if !eb.is_finite() || eb < 0.0 {
            return Err(SzxError::CorruptStream(format!("bad error bound {eb}")));
        }
        let n_nonconstant = c.u64_le().ok_or_else(trunc)? as usize;
        let header = Header {
            dtype,
            strategy,
            block_size,
            n,
            eb,
            n_nonconstant,
        };
        if n_nonconstant > header.num_blocks() {
            return Err(SzxError::CorruptStream(format!(
                "{n_nonconstant} non-constant blocks exceeds {} total",
                header.num_blocks()
            )));
        }
        Ok(header)
    }

    /// Bytes per value of the stream's element type.
    pub(crate) fn value_bytes(&self) -> usize {
        if self.dtype == 0 {
            4
        } else {
            8
        }
    }

    pub(crate) fn expect_dtype<F: SzxFloat>(&self) -> Result<()> {
        if self.dtype != F::DTYPE_CODE {
            let found = if self.dtype == 0 { "f32" } else { "f64" };
            return Err(SzxError::TypeMismatch {
                expected: F::NAME,
                found,
            });
        }
        Ok(())
    }
}

/// Offsets of the variable-length sections, derived from the header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SectionLayout {
    pub state_off: usize,
    pub mu_off: usize,
    pub zsize_off: usize,
    pub payload_off: usize,
}

impl SectionLayout {
    /// Checked layout computation: a forged header can declare element
    /// counts whose section offsets overflow `usize`; that must surface as
    /// a corrupt-stream error, not an arithmetic panic or a huge allocation.
    pub(crate) fn for_header(h: &Header) -> Result<SectionLayout> {
        let nblocks = h.num_blocks();
        let state_off = HEADER_LEN;
        let overflow = || SzxError::CorruptStream("section offsets overflow".into());
        let mu_off = state_off
            .checked_add(nblocks / 8 + usize::from(!nblocks.is_multiple_of(8)))
            .ok_or_else(overflow)?;
        let zsize_off = nblocks
            .checked_mul(h.value_bytes())
            .and_then(|b| mu_off.checked_add(b))
            .ok_or_else(overflow)?;
        let payload_off = h
            .n_nonconstant
            .checked_mul(2)
            .and_then(|b| zsize_off.checked_add(b))
            .ok_or_else(overflow)?;
        Ok(SectionLayout {
            state_off,
            mu_off,
            zsize_off,
            payload_off,
        })
    }
}

/// Peek at a compressed stream without decompressing it.
pub fn inspect(bytes: &[u8]) -> Result<Header> {
    Header::parse(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            dtype: 0,
            strategy: CommitStrategy::ByteAligned,
            block_size: 128,
            n: 1000,
            eb: 1e-3,
            n_nonconstant: 3,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(Header::parse(&buf).unwrap(), h);
    }

    #[test]
    fn num_blocks_rounds_up() {
        let mut h = sample_header();
        assert_eq!(h.num_blocks(), 8); // 1000 / 128 = 7.8125
        h.n = 1024;
        assert_eq!(h.num_blocks(), 8);
        h.n = 1;
        assert_eq!(h.num_blocks(), 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.write(&mut buf);

        assert!(Header::parse(&buf[..10]).is_err(), "truncated");

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(Header::parse(&bad).is_err(), "magic");

        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(Header::parse(&bad).is_err(), "version");

        let mut bad = buf.clone();
        bad[5] = 3;
        assert!(Header::parse(&bad).is_err(), "dtype");

        let mut bad = buf.clone();
        bad[6] = 9;
        assert!(Header::parse(&bad).is_err(), "strategy");

        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(Header::parse(&bad).is_err(), "zero block size");

        let mut bad = buf.clone();
        bad[12..20].copy_from_slice(&0u64.to_le_bytes());
        assert!(Header::parse(&bad).is_err(), "zero elements");

        let mut bad = buf.clone();
        bad[20..28].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(Header::parse(&bad).is_err(), "NaN bound");

        let mut bad = buf;
        bad[28..36].copy_from_slice(&10_000u64.to_le_bytes());
        assert!(Header::parse(&bad).is_err(), "too many non-constant blocks");
    }

    #[test]
    fn dtype_check() {
        let h = sample_header();
        assert!(h.expect_dtype::<f32>().is_ok());
        let err = h.expect_dtype::<f64>().unwrap_err();
        assert_eq!(
            err,
            SzxError::TypeMismatch {
                expected: "f64",
                found: "f32"
            }
        );
    }

    #[test]
    fn layout_offsets() {
        let h = sample_header(); // 8 blocks, 3 non-constant
        let l = SectionLayout::for_header(&h).unwrap();
        assert_eq!(l.state_off, 36);
        assert_eq!(l.mu_off, 37); // 8 blocks -> 1 state byte
        assert_eq!(l.zsize_off, 37 + 32); // 8 * 4-byte μ
        assert_eq!(l.payload_off, 69 + 6); // 3 * u16
    }
}
