//! Random-access decompression.
//!
//! The `zsize_array` that enables the paper's parallel decompression (§6.1)
//! also enables *partial* decompression: a prefix sum over the per-block
//! compressed sizes locates any block in O(1) once the index is built, so
//! an application can pull an arbitrary element range out of a compressed
//! stream without touching the rest — the access pattern of in-memory
//! compression use cases (e.g. the paper's quantum-circuit simulation
//! scenario, which decompresses only the amplitudes a gate touches).

use core::cell::RefCell;

use crate::config::CommitStrategy;
use crate::decode::{Decoder, ParsedStream};
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;

/// A reusable random-access view over one compressed stream.
pub struct RandomAccess<'a, F: SzxFloat> {
    parsed: ParsedStream<'a>,
    strategy: CommitStrategy,
    block_size: usize,
    n: usize,
    /// Decode path and kernel arenas, reused across `decode_block` calls. A
    /// `RefCell` keeps the decode methods `&self` (the reader is a view,
    /// not a mutator); the borrow never escapes a single block decode.
    decoder: RefCell<Decoder>,
    _marker: core::marker::PhantomData<F>,
}

impl<'a, F: SzxFloat> RandomAccess<'a, F> {
    /// Parse and index the stream (one pass over the state bits and zsize
    /// array; no payload is decoded yet).
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        let parsed = ParsedStream::parse::<F>(bytes)?;
        let header = *parsed.header();
        Ok(RandomAccess {
            parsed,
            strategy: header.strategy,
            block_size: header.block_size,
            n: header.n,
            decoder: RefCell::default(),
            _marker: core::marker::PhantomData,
        })
    }

    /// Decode with `decoder`'s path (simd vs kernel vs scalar — identical
    /// outputs). Blocks are decoded one at a time, so its parallel switch
    /// has no effect here.
    pub fn with_decoder(mut self, decoder: Decoder) -> Self {
        self.decoder = RefCell::new(decoder);
        self
    }

    /// Total number of elements in the stream.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.parsed.num_blocks()
    }

    /// Decode block `b` into `out` (must hold exactly the block's length;
    /// use [`Self::block_len`]).
    pub fn decode_block(&self, b: usize, out: &mut [F]) -> Result<()> {
        if b >= self.num_blocks() {
            return Err(SzxError::InvalidConfig(format!(
                "block {b} out of range ({} blocks)",
                self.num_blocks()
            )));
        }
        let blen = self.block_len(b);
        if out.len() != blen {
            return Err(SzxError::InvalidConfig(format!(
                "output holds {} elements, block {b} has {blen}",
                out.len()
            )));
        }
        let mu = self.parsed.mu::<F>(b);
        if self.parsed.state(b) {
            let (off, len) = self.parsed.payload_span(b);
            self.decoder.borrow_mut().decode_block(
                // PANIC-OK: parse() validated every payload span against
                // `payloads.len()` when the stream was indexed.
                &self.parsed.payloads[off..off + len],
                out,
                mu,
                self.strategy,
            )
        } else {
            out.fill(mu);
            Ok(())
        }
    }

    /// Elements in block `b` (the final block may be short).
    pub fn block_len(&self, b: usize) -> usize {
        self.block_size.min(self.n - b * self.block_size)
    }

    /// Decode the element range `[start, end)` into a fresh vector,
    /// touching only the blocks that overlap it.
    pub fn decode_range(&self, start: usize, end: usize) -> Result<Vec<F>> {
        if start > end || end > self.n {
            return Err(SzxError::InvalidConfig(format!(
                "range {start}..{end} out of bounds (n = {})",
                self.n
            )));
        }
        let mut out = Vec::with_capacity(end - start);
        if start == end {
            return Ok(out);
        }
        let first_block = start / self.block_size;
        let last_block = (end - 1) / self.block_size;
        let mut scratch = vec![F::ZERO; self.block_size];
        for b in first_block..=last_block {
            let blen = self.block_len(b);
            let block_start = b * self.block_size;
            // PANIC-OK: `blen <= block_size` and scratch holds block_size
            // elements.
            self.decode_block(b, &mut scratch[..blen])?;
            let lo = start.max(block_start) - block_start;
            let hi = end.min(block_start + blen) - block_start;
            // PANIC-OK: `lo <= hi <= blen` by the max/min clamps above.
            out.extend_from_slice(&scratch[lo..hi]);
        }
        Ok(out)
    }

    /// Decode a single element (convenience wrapper over
    /// [`Self::decode_range`]).
    pub fn decode_at(&self, index: usize) -> Result<F> {
        let v = self.decode_range(index, index + 1)?;
        // PANIC-OK: decode_range(i, i + 1) returns exactly one element when
        // it returns Ok.
        Ok(v[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SzxConfig;

    fn wave(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.013).sin() * 7.0 + (i as f32 * 0.11).cos() * 0.02)
            .collect()
    }

    #[test]
    fn ranges_match_full_decompression() {
        let data = wave(10_000);
        let bytes = crate::compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        let full: Vec<f32> = crate::decompress(&bytes).unwrap();
        let ra = RandomAccess::<f32>::new(&bytes).unwrap();
        assert_eq!(ra.len(), 10_000);
        for (start, end) in [
            (0, 10),
            (0, 10_000),
            (127, 129),
            (5000, 5001),
            (9_990, 10_000),
            (42, 42),
        ] {
            let range = ra.decode_range(start, end).unwrap();
            assert_eq!(range, &full[start..end], "{start}..{end}");
        }
    }

    #[test]
    fn single_element_access() {
        let data = wave(1000);
        let bytes = crate::compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
        let full: Vec<f32> = crate::decompress(&bytes).unwrap();
        let ra = RandomAccess::<f32>::new(&bytes).unwrap();
        for i in [0usize, 1, 127, 128, 500, 999] {
            assert_eq!(ra.decode_at(i).unwrap(), full[i], "index {i}");
        }
    }

    #[test]
    fn per_block_access_and_lengths() {
        let data = wave(300); // 2 full blocks + 44-element tail
        let bytes = crate::compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        let full: Vec<f32> = crate::decompress(&bytes).unwrap();
        let ra = RandomAccess::<f32>::new(&bytes).unwrap();
        assert_eq!(ra.num_blocks(), 3);
        assert_eq!(ra.block_len(0), 128);
        assert_eq!(ra.block_len(2), 44);
        let mut block = vec![0f32; 44];
        ra.decode_block(2, &mut block).unwrap();
        assert_eq!(block, &full[256..300]);
    }

    #[test]
    fn works_for_all_strategies_and_f64() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.01).sin()).collect();
        for strategy in [
            crate::CommitStrategy::ByteAligned,
            crate::CommitStrategy::BitPack,
            crate::CommitStrategy::BytePlusResidual,
        ] {
            let cfg = SzxConfig::absolute(1e-6).with_strategy(strategy);
            let bytes = crate::compress(&data, &cfg).unwrap();
            let full: Vec<f64> = crate::decompress(&bytes).unwrap();
            let ra = RandomAccess::<f64>::new(&bytes).unwrap();
            assert_eq!(
                ra.decode_range(100, 400).unwrap(),
                &full[100..400],
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn out_of_bounds_errors() {
        let data = wave(100);
        let bytes = crate::compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        let ra = RandomAccess::<f32>::new(&bytes).unwrap();
        assert!(ra.decode_range(50, 101).is_err());
        assert!(ra.decode_range(60, 50).is_err());
        assert!(ra.decode_at(100).is_err());
        let mut tiny = vec![0f32; 3];
        assert!(ra.decode_block(0, &mut tiny).is_err(), "wrong buffer size");
        assert!(ra.decode_block(5, &mut tiny).is_err(), "block out of range");
    }

    #[test]
    fn kernel_and_scalar_paths_agree_bitwise() {
        let mut data = wave(5000);
        data[700] = f32::NAN; // one bit-exact block in the middle
        let bytes = crate::compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
        let scalar = RandomAccess::<f32>::new(&bytes)
            .unwrap()
            .with_decoder(Decoder::new(crate::KernelPath::Scalar, false));
        let kernel = RandomAccess::<f32>::new(&bytes)
            .unwrap()
            .with_decoder(Decoder::new(crate::KernelPath::Kernel, false));
        for (start, end) in [(0, 5000), (100, 400), (699, 702), (4990, 5000)] {
            let a = scalar.decode_range(start, end).unwrap();
            let b = kernel.decode_range(start, end).unwrap();
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{start}..{end} elem {i}");
            }
        }
    }

    #[test]
    fn type_mismatch_rejected() {
        let data = wave(100);
        let bytes = crate::compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        assert!(RandomAccess::<f64>::new(&bytes).is_err());
    }
}
