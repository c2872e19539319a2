//! The SZx decompressor: stream indexing, the [`Decoder`] (serial or
//! parallel over one window loop), and the per-block routines.

use std::sync::Mutex;

use crate::bitio::{BitReader, StateBits};
use crate::block::{bytes_for, shift_for};
use crate::config::{CommitStrategy, KernelPath};
use crate::dekernels::DecodeScratch;
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;
use crate::stream::{Header, SectionLayout};
use crate::window::{for_each_window, window_len, windows};

/// Everything needed to locate each block inside a compressed stream.
/// Building it costs one pass over the state bits and the zsize array —
/// the prefix sum of §6.1 that unlocks block-parallel decompression.
#[derive(Debug)]
pub(crate) struct StreamIndex<'a> {
    pub header: Header,
    /// Per block: `true` = non-constant. A borrowed view straight into the
    /// stream's state-bit section — building the index allocates nothing
    /// per block for the states.
    pub states: StateBits<'a>,
    /// Per block: μ (normalization offset / constant value) as raw LE bytes
    /// region; decoded lazily per block.
    pub mu_bytes: &'a [u8],
    /// Per non-constant block: byte offset of its payload inside `payloads`.
    pub payload_offsets: Vec<usize>,
    /// Per non-constant block: payload length.
    pub zsizes: Vec<u16>,
    /// The payload section.
    pub payloads: &'a [u8],
}

impl<'a> StreamIndex<'a> {
    pub(crate) fn build<F: SzxFloat>(bytes: &'a [u8]) -> Result<Self> {
        let header = Header::parse(bytes)?;
        header.expect_dtype::<F>()?;
        let layout = SectionLayout::for_header::<F>(&header)?;
        if bytes.len() < layout.payload_off {
            return Err(SzxError::CorruptStream(format!(
                "sections end at {} but stream holds {}",
                layout.payload_off,
                bytes.len()
            )));
        }
        let nblocks = header.num_blocks();
        // The payload_off length check above guarantees every section range
        // below is in bounds; `get` keeps this path panic-free regardless.
        let truncated = || SzxError::CorruptStream("section out of bounds".into());
        let state_bytes = bytes
            .get(layout.state_off..layout.mu_off)
            .ok_or_else(truncated)?;
        let states = StateBits::new(state_bytes, nblocks)
            .ok_or_else(|| SzxError::CorruptStream("state bit section truncated".into()))?;

        let n_nonconstant = states.count_ones();
        if n_nonconstant != header.n_nonconstant {
            return Err(SzxError::CorruptStream(format!(
                "header declares {} non-constant blocks, state bits say {}",
                header.n_nonconstant, n_nonconstant
            )));
        }

        let mu_bytes = bytes
            .get(layout.mu_off..layout.zsize_off)
            .ok_or_else(truncated)?;

        let zsize_bytes = bytes
            .get(layout.zsize_off..layout.payload_off)
            .ok_or_else(truncated)?;
        let mut zsizes = Vec::with_capacity(n_nonconstant);
        let mut payload_offsets = Vec::with_capacity(n_nonconstant);
        let mut acc = 0usize;
        // The layout gives zsize_bytes exactly 2 * n_nonconstant bytes.
        for pair in zsize_bytes.chunks_exact(2) {
            let z = match pair {
                [a, b] => u16::from_le_bytes([*a, *b]),
                _ => 0, // unreachable: chunks_exact yields 2-byte windows
            };
            payload_offsets.push(acc);
            zsizes.push(z);
            acc += z as usize;
        }
        let payloads = bytes.get(layout.payload_off..).unwrap_or(&[]);
        if payloads.len() < acc {
            return Err(SzxError::CorruptStream(format!(
                "payload section holds {} bytes, zsize array requires {acc}",
                payloads.len()
            )));
        }
        Ok(StreamIndex {
            header,
            states,
            mu_bytes,
            payload_offsets,
            zsizes,
            payloads,
        })
    }

    /// [`Self::build`] inside the `decompress.index` span.
    fn build_traced<F: SzxFloat>(bytes: &'a [u8]) -> Result<Self> {
        let _s = szx_telemetry::span("decompress.index");
        Self::build::<F>(bytes)
    }

    #[inline]
    pub(crate) fn mu<F: SzxFloat>(&self, block: usize) -> F {
        // PANIC-OK: build() sliced mu_bytes to exactly nblocks * F::BYTES,
        // and every caller iterates block < nblocks.
        F::read_le(&self.mu_bytes[block * F::BYTES..])
    }
}

/// Read-only parsed view of a compressed stream, exposed for alternative
/// block decoders (e.g. the GPU execution model in `szx-gpu-sim`), which
/// need per-block payload locations without committing to this crate's
/// decode loop.
pub struct ParsedStream<'a> {
    index: StreamIndex<'a>,
    /// Non-constant blocks preceding each block.
    nc_before: Vec<usize>,
    /// The concatenated payload section.
    pub payloads: &'a [u8],
}

impl<'a> ParsedStream<'a> {
    /// Parse and validate all stream sections.
    pub fn parse<F: SzxFloat>(bytes: &'a [u8]) -> Result<ParsedStream<'a>> {
        let index = StreamIndex::build::<F>(bytes)?;
        let mut nc_before = Vec::with_capacity(index.states.len());
        let mut acc = 0usize;
        for s in index.states.iter() {
            nc_before.push(acc);
            acc += s as usize;
        }
        let payloads = index.payloads;
        Ok(ParsedStream {
            index,
            nc_before,
            payloads,
        })
    }

    /// Parsed header.
    pub fn header(&self) -> &Header {
        &self.index.header
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.index.states.len()
    }

    /// `true` if block `b` is non-constant (reads the stream's state bit
    /// directly — no unpacked copy exists).
    pub fn state(&self, b: usize) -> bool {
        self.index.states.get(b)
    }

    /// μ of block `b`.
    pub fn mu<F: SzxFloat>(&self, b: usize) -> F {
        self.index.mu::<F>(b)
    }

    /// Compressed payload sizes of the non-constant blocks, in stream order
    /// (the `zsize_array` of §6.1). Constant blocks have no payload and do
    /// not appear here.
    pub fn zsizes(&self) -> &[u16] {
        &self.index.zsizes
    }

    /// (offset, length) of block `b`'s payload within [`Self::payloads`].
    /// Block `b` must be non-constant.
    pub fn payload_span(&self, b: usize) -> (usize, usize) {
        debug_assert!(self.state(b), "block {b} is constant");
        // PANIC-OK: documented contract — `b` must index a non-constant
        // block (state(b) itself panics past num_blocks, matching slices);
        // nc_before[b] < n_nonconstant then bounds both per-block arrays.
        let nc = self.nc_before[b];
        (
            self.index.payload_offsets[nc], // PANIC-OK: nc < n_nonconstant
            self.index.zsizes[nc] as usize, // PANIC-OK: nc < n_nonconstant
        )
    }
}

/// Decompress a stream produced by [`crate::compress`] with the default
/// [`Decoder`] (fastest kernel, serial). The element type must match the
/// stream's; use [`crate::stream::inspect`] to discover it.
pub fn decompress<F: SzxFloat>(bytes: &[u8]) -> Result<Vec<F>> {
    Decoder::default().decode(bytes)
}

/// The SZx decompressor: a decode path, a serial/parallel switch, and the
/// kernel arenas it reuses across calls.
///
/// Every path and both modes reconstruct bit-identical values and fail
/// with identical errors; the settings only choose *how* blocks are
/// decoded, never *what* they decode to. The parallel mode is the paper's
/// multicore design (§6.1): the pool's threads claim whole windows (see
/// [`crate::window`]), and the non-constant blocks before a window give
/// its first payload's offset in the prefix-summed `zsize_array`.
#[derive(Debug)]
pub struct Decoder {
    kernel: KernelPath,
    parallel: bool,
    /// The arena of random-access block decodes.
    scratch: DecodeScratch,
    /// Arenas for the window loop, one per thread that can take part,
    /// reused across calls: once grown to the largest block they never
    /// grow again. Each thread locks a free one for all the windows it
    /// claims.
    shelf: Vec<Mutex<DecodeScratch>>,
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new(KernelPath::detect(), false)
    }
}

impl Decoder {
    /// A decoder running `kernel`, serially or on the rayon workers.
    pub fn new(kernel: KernelPath, parallel: bool) -> Self {
        Decoder {
            kernel,
            parallel,
            scratch: DecodeScratch::default(),
            shelf: Vec::new(),
        }
    }

    /// Decompress `bytes` into a new vector.
    pub fn decode<F: SzxFloat>(&mut self, bytes: &[u8]) -> Result<Vec<F>> {
        let _total = szx_telemetry::span("decompress.total");
        // Build (and thereby validate) the index *before* allocating the
        // output: a forged header could otherwise demand an absurd
        // allocation.
        let index = StreamIndex::build_traced::<F>(bytes)?;
        let mut out = vec![F::ZERO; index.header.n];
        self.decode_into_index(&index, &mut out)?;
        Ok(out)
    }

    /// Decompress `bytes` into `out`, which must hold exactly the stream's
    /// element count, so repeated decodes reuse one output buffer.
    pub fn decode_into<F: SzxFloat>(&mut self, bytes: &[u8], out: &mut [F]) -> Result<()> {
        let _total = szx_telemetry::span("decompress.total");
        let index = StreamIndex::build_traced::<F>(bytes)?;
        if out.len() != index.header.n {
            return Err(SzxError::InvalidConfig(format!(
                "output buffer holds {} elements, stream has {}",
                out.len(),
                index.header.n
            )));
        }
        self.decode_into_index(&index, out)
    }

    /// Decode straight into `out`, window by window.
    fn decode_into_index<F: SzxFloat>(&mut self, index: &StreamIndex, out: &mut [F]) -> Result<()> {
        let windows = out.chunks_mut(window_len::<F>(index.header.block_size));
        let path = self.kernel;
        self.each_window::<F, _, ()>(index, windows.collect(), |(), scratch, (b, nc), out| {
            decode_run(index, b, nc, out, path, scratch)
        })
    }

    /// Decompress `bytes` window by window (see [`crate::window`]), each
    /// into a buffer of the thread decoding it, and hand `sink` the
    /// thread's `T`, the index of the window's first value and the window.
    /// Serially the windows reach `sink` in stream order on the calling
    /// thread; in parallel each pool thread hands over the windows it
    /// claims, in any order. The values, and the error of a corrupt stream,
    /// are those of [`Self::decode`]: the error is the first corrupt
    /// window's, and serially the windows before it have reached `sink`.
    pub fn decode_windows<F: SzxFloat, T: Default>(
        &mut self,
        bytes: &[u8],
        sink: impl Fn(&mut T, usize, &[F]) -> Result<()> + Sync + Send,
    ) -> Result<()> {
        let _total = szx_telemetry::span("decompress.total");
        let index = StreamIndex::build_traced::<F>(bytes)?;
        let items = windows(index.header.n, window_len::<F>(index.header.block_size));
        let path = self.kernel;
        self.each_window::<F, _, (Vec<F>, T)>(&index, items, |(buf, t), scratch, (b, nc), w| {
            buf.resize(w.len(), F::ZERO);
            decode_run(&index, b, nc, buf, path, scratch)?;
            sink(t, w.start, buf)
        })
    }

    /// Decode one non-constant block payload (random access).
    pub(crate) fn decode_block<F: SzxFloat>(
        &mut self,
        payload: &[u8],
        out: &mut [F],
        mu: F,
        strategy: CommitStrategy,
    ) -> Result<()> {
        self.kernel
            .decode_nonconstant(payload, out, mu, strategy, &mut self.scratch)
    }

    /// The one window loop: `f` decodes window `k`'s `item` with the
    /// thread's state and arena, given the window's first block and the
    /// non-constant blocks before it.
    fn each_window<F: SzxFloat, I: Send, S: Default>(
        &mut self,
        index: &StreamIndex<'_>,
        items: Vec<I>,
        f: impl Fn(&mut S, &mut DecodeScratch, (usize, usize), I) -> Result<()> + Sync + Send,
    ) -> Result<()> {
        if szx_telemetry::enabled() {
            flush_decode_telemetry::<F>(index);
        }
        let bs = index.header.block_size;
        let win_blocks = window_len::<F>(bs) / bs;
        // Non-constant blocks before each window: where its first payload
        // sits in the zsize prefix sum.
        let starts = (0..index.states.len()).step_by(win_blocks);
        let counts = starts.map(|b| index.states.window(b, win_blocks).count_ones());
        let nc_before: Vec<usize> = counts
            .scan(0, |nc, c| Some(std::mem::replace(nc, *nc + c)))
            .collect();
        // One arena per thread that can take part, sized for a whole block
        // up front where the path uses one, so growth depends on the stream
        // and not on which threads claim which window.
        let threads = if self.parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        self.shelf.resize_with(threads, Mutex::default);
        if self.kernel.uses_arena(index.header.strategy) {
            for s in self.shelf.iter_mut().filter_map(|s| s.get_mut().ok()) {
                s.ensure(bs);
            }
        }
        let _s = szx_telemetry::span("decompress.blocks");
        // Zone-only path attribution for the profiler, one zone per window.
        let zone = self.kernel.decode_zone();
        // At most one thread per arena takes part, so each finds a free one.
        let shelf = &self.shelf;
        let init = || {
            (
                shelf.iter().find_map(|s| s.try_lock().ok()),
                <(DecodeScratch, S)>::default(),
            )
        };
        let result = for_each_window(
            items,
            self.parallel,
            init,
            |(lease, (spare, state)), k, item| {
                let _z = szx_telemetry::trace_zone(zone, k as u64);
                let nc = nc_before[k]; // PANIC-OK: the items are the stream's windows.
                f(
                    state,
                    lease.as_deref_mut().unwrap_or(spare),
                    (k * win_blocks, nc),
                    item,
                )
            },
        );
        // Runs publish the growth of the arena they used; what is left was
        // grown outside a run (the shelf's up-front sizing, random-access
        // block decodes).
        let mut bytes = 0;
        let shelf = self.shelf.iter_mut().filter_map(|s| s.get_mut().ok());
        for s in std::iter::once(&mut self.scratch).chain(shelf) {
            flush_grows(s);
            bytes += s.arena_bytes();
        }
        if bytes > 0 && szx_telemetry::enabled() {
            szx_telemetry::global()
                .gauge("decompress.scratch.arena_bytes")
                .set_max(bytes as f64);
        }
        result.map(drop)
    }
}

/// Publish what a decompression saw — block classes come for free from the
/// already-built index, so decode telemetry costs nothing per block.
fn flush_decode_telemetry<F: SzxFloat>(index: &StreamIndex<'_>) {
    let tel = szx_telemetry::global();
    let nblocks = index.states.len() as u64;
    let nc = index.header.n_nonconstant as u64;
    tel.counter("decompress.calls").incr();
    tel.counter("decompress.blocks.constant").add(nblocks - nc);
    tel.counter("decompress.blocks.nonconstant").add(nc);
    tel.counter("decompress.bytes.out")
        .add((index.header.n * F::BYTES) as u64);
}

/// Decode the consecutive blocks starting at `first_block` into `out` (a
/// whole number of blocks, except possibly the stream's last), stopping at
/// the first corrupt one. `nc` counts the non-constant blocks before
/// `first_block`, whose payloads precede this run's.
fn decode_run<F: SzxFloat>(
    index: &StreamIndex<'_>,
    first_block: usize,
    mut nc: usize,
    out: &mut [F],
    path: KernelPath,
    scratch: &mut DecodeScratch,
) -> Result<()> {
    let bs = index.header.block_size;
    let strategy = index.header.strategy;
    for (j, block_out) in out.chunks_mut(bs).enumerate() {
        let b = first_block + j;
        let mu = index.mu::<F>(b);
        if index.states.get(b) {
            // PANIC-OK: build() verified count_ones == n_nonconstant
            // (bounding nc) and that the payload section holds the full
            // zsize prefix sum, so off + len <= payloads.len().
            let off = index.payload_offsets[nc];
            let len = index.zsizes[nc] as usize; // PANIC-OK: as above
            let payload = &index.payloads[off..off + len]; // PANIC-OK: as above
            path.decode_nonconstant(payload, block_out, mu, strategy, scratch)?;
            nc += 1;
        } else {
            block_out.fill(mu);
        }
    }
    flush_grows(scratch);
    Ok(())
}

/// Publish the growth events `scratch` has seen since its last flush.
fn flush_grows(scratch: &mut DecodeScratch) {
    let grows = scratch.take_grows();
    if grows > 0 && szx_telemetry::enabled() {
        szx_telemetry::global()
            .counter("decompress.scratch.grows")
            .add(grows);
    }
}

/// Decode one non-constant block payload into `out` (of the block's
/// length): the scalar oracle of [`KernelPath::decode_nonconstant`], and
/// the one decoder of the `BitPack` and `BytePlusResidual` strategies.
pub(crate) fn decode_nonconstant_block<F: SzxFloat>(
    payload: &[u8],
    out: &mut [F],
    mu: F,
    strategy: CommitStrategy,
) -> Result<()> {
    let blen = out.len();
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
    let raw = req_len == F::FULL_BITS;
    // PANIC-OK: same length check; payload.len() >= 1 + lead_bytes.
    let codes = &payload[1..1 + lead_bytes];
    let body = &payload[1 + lead_bytes..]; // PANIC-OK: as above

    #[inline]
    fn code_at(codes: &[u8], i: usize) -> usize {
        // PANIC-OK: callers pass i < blen, and codes holds
        // ceil(2 * blen / 8) bytes, so i / 4 < codes.len().
        ((codes[i / 4] >> (6 - 2 * (i % 4))) & 3) as usize
    }

    match strategy {
        CommitStrategy::ByteAligned => {
            let s = shift_for(req_len);
            let nb = bytes_for(req_len);
            let mut pos = 0usize;
            let mut prev = 0u64;
            for (i, slot) in out.iter_mut().enumerate() {
                let lead = code_at(codes, i).min(nb);
                let k = nb - lead;
                if pos + k > body.len() {
                    return Err(SzxError::CorruptStream("mid-byte pool truncated".into()));
                }
                let mut be = prev.to_be_bytes();
                // PANIC-OK: lead <= nb <= 8 by the min() above, and the
                // pos + k bound was just checked against body.len().
                be[lead..nb].copy_from_slice(&body[pos..pos + k]);
                pos += k;
                let w = u64::from_be_bytes(be);
                let v = F::from_word(w << s);
                *slot = if raw { v } else { v + mu };
                prev = w;
            }
        }
        CommitStrategy::BitPack => {
            let lead_cap = (req_len / 8).min(3) as usize;
            let mut r = BitReader::new(body);
            let mut prev = 0u64;
            for (i, slot) in out.iter_mut().enumerate() {
                let lead = code_at(codes, i).min(lead_cap);
                let t = req_len - 8 * lead as u32;
                let top = if lead > 0 {
                    (prev >> (64 - 8 * lead as u32)) << (64 - 8 * lead as u32)
                } else {
                    0
                };
                let bits = if t > 0 {
                    r.read_bits(t)
                        .ok_or_else(|| SzxError::CorruptStream("bit pool truncated".into()))?
                } else {
                    0
                };
                let w = top | (bits << (64 - req_len));
                let v = F::from_word(w);
                *slot = if raw { v } else { v + mu };
                prev = w;
            }
        }
        CommitStrategy::BytePlusResidual => {
            let beta = req_len % 8;
            let base_alpha = (req_len / 8) as usize;
            let lead_cap = base_alpha.min(3);
            // The whole-byte pool length follows from the leading codes.
            let mut total_alpha = 0usize;
            for i in 0..blen {
                total_alpha += base_alpha - code_at(codes, i).min(lead_cap);
            }
            if body.len() < total_alpha {
                return Err(SzxError::CorruptStream("byte pool truncated".into()));
            }
            let (pool, resid) = body.split_at(total_alpha);
            let mut r = BitReader::new(resid);
            let mut pos = 0usize;
            let mut prev = 0u64;
            for (i, slot) in out.iter_mut().enumerate() {
                let lead = code_at(codes, i).min(lead_cap);
                let alpha = base_alpha - lead;
                let prev_be = prev.to_be_bytes();
                let mut be = [0u8; 8];
                // PANIC-OK: lead + alpha == base_alpha <= 8, and the pool
                // holds total_alpha == sum(alpha_i) bytes (checked above).
                be[..lead].copy_from_slice(&prev_be[..lead]);
                // PANIC-OK: as above.
                be[lead..lead + alpha].copy_from_slice(&pool[pos..pos + alpha]);
                pos += alpha;
                let mut w = u64::from_be_bytes(be);
                if beta > 0 {
                    let bits = r
                        .read_bits(beta)
                        .ok_or_else(|| SzxError::CorruptStream("residual pool truncated".into()))?;
                    w |= bits << (64 - req_len);
                }
                let v = F::from_word(w);
                *slot = if raw { v } else { v + mu };
                prev = w;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SzxConfig;
    use crate::encode::compress;

    fn wave(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.01).sin() * 10.0 + 0.3)
            .collect()
    }

    #[test]
    fn roundtrip_respects_bound_all_strategies() {
        let data = wave(10_000);
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            let cfg = SzxConfig::absolute(1e-3).with_strategy(strategy);
            let bytes = compress(&data, &cfg).unwrap();
            let back: Vec<f32> = decompress(&bytes).unwrap();
            assert_eq!(back.len(), data.len());
            for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
                assert!(
                    (a - b).abs() as f64 <= 1e-3,
                    "{strategy:?}: index {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_f64() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.01).cos() * 3.0).collect();
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            let cfg = SzxConfig::absolute(1e-6).with_strategy(strategy);
            let bytes = compress(&data, &cfg).unwrap();
            let back: Vec<f64> = decompress(&bytes).unwrap();
            for (&a, &b) in data.iter().zip(&back) {
                assert!((a - b).abs() <= 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_bound_is_bit_exact() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32).sqrt().sin() * 1e20).collect();
        let bytes = compress(&data, &SzxConfig::absolute(0.0)).unwrap();
        let back: Vec<f32> = decompress(&bytes).unwrap();
        for (&a, &b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn nan_and_inf_blocks_roundtrip_bit_exact() {
        let mut data = wave(512);
        data[10] = f32::NAN;
        data[300] = f32::INFINITY;
        data[301] = f32::NEG_INFINITY;
        let bytes = compress(&data, &SzxConfig::absolute(1e-2).with_block_size(128)).unwrap();
        let back: Vec<f32> = decompress(&bytes).unwrap();
        assert!(back[10].is_nan());
        assert_eq!(back[300], f32::INFINITY);
        assert_eq!(back[301], f32::NEG_INFINITY);
        // The NaN-carrying blocks are stored bit-exactly, so every value in
        // them must match exactly.
        for i in (0..128).chain(256..384) {
            assert_eq!(data[i].to_bits(), back[i].to_bits(), "index {i}");
        }
    }

    #[test]
    fn ragged_tail_block() {
        for n in [1usize, 5, 127, 128, 129, 255, 257] {
            let data = wave(n);
            let bytes = compress(&data, &SzxConfig::absolute(1e-4).with_block_size(128)).unwrap();
            let back: Vec<f32> = decompress(&bytes).unwrap();
            assert_eq!(back.len(), n);
            for (&a, &b) in data.iter().zip(&back) {
                assert!((a - b).abs() <= 1e-4);
            }
        }
    }

    #[test]
    fn decompress_type_mismatch() {
        let data = wave(100);
        let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        assert!(matches!(
            decompress::<f64>(&bytes),
            Err(SzxError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn decode_into_wrong_size() {
        let data = wave(100);
        let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        for parallel in [false, true] {
            let mut decoder = Decoder::new(KernelPath::detect(), parallel);
            let mut buf = vec![0f32; 99];
            assert!(decoder.decode_into(&bytes, &mut buf).is_err());
            let mut buf = vec![0f32; 100];
            decoder.decode_into(&bytes, &mut buf).unwrap();
        }
    }

    #[test]
    fn parallel_roundtrip_cross_decoders() {
        let data: Vec<f32> = (0..123_457) // ragged tail
            .map(|i| {
                let x = i as f32 * 0.003;
                x.sin() * 5.0 + (x * 37.1).sin() * 0.02
            })
            .collect();
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            let cfg = SzxConfig::absolute(1e-4).with_strategy(strategy);
            let bytes = compress(&data, &cfg).unwrap();
            let reference: Vec<f32> = Decoder::new(KernelPath::Scalar, false)
                .decode(&bytes)
                .unwrap();
            for (&x, &y) in data.iter().zip(&reference) {
                assert!((x - y).abs() <= 1e-4);
            }
            for kernel in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
                for parallel in [false, true] {
                    let mut decoder = Decoder::new(kernel, parallel);
                    let back: Vec<f32> = decoder.decode(&bytes).unwrap();
                    assert!(
                        back.iter()
                            .zip(&reference)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{strategy:?} {kernel:?} parallel={parallel}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_f64_roundtrip() {
        let data: Vec<f64> = (0..40_000)
            .map(|i| (i as f64 * 0.001).sinh().sin())
            .collect();
        let cfg = SzxConfig::absolute(1e-7).with_parallel(true);
        let bytes = compress(&data, &cfg).unwrap();
        let back: Vec<f64> = Decoder::new(KernelPath::detect(), true)
            .decode(&bytes)
            .unwrap();
        for (&x, &y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= 1e-7);
        }
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let data = wave(4096);
        let bytes = compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
        for cut in [0, 10, 36, 50, bytes.len() / 2, bytes.len() - 1] {
            assert!(decompress::<f32>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_zsize_is_an_error_not_a_panic() {
        let data = wave(4096);
        let mut bytes = compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
        let h = crate::stream::inspect(&bytes).unwrap();
        assert!(h.n_nonconstant > 0);
        // Blow up the first zsize entry.
        let layout_zsize_off = {
            let nblocks = h.num_blocks();
            crate::stream::HEADER_LEN + nblocks.div_ceil(8) + nblocks * 4
        };
        bytes[layout_zsize_off] = 0xff;
        bytes[layout_zsize_off + 1] = 0xff;
        assert!(decompress::<f32>(&bytes).is_err());
    }
}
