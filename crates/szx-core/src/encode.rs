//! The SZx compressor (Algorithm 1 + the §5.1 commit strategies).

use std::io::Write;

use crate::block::{bytes_for, required_length, shift_for, BlockStats};
use crate::config::{range_of, CommitStrategy, ErrorBound, KernelPath, SzxConfig};
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;
use crate::kernels::EncodeScratch;
use crate::stream::Header;
use crate::window::{for_each_window, window_len, windows, WindowSource};

/// One window's compression output; [`Encoder::finish`] writes the windows
/// out as one stream.
#[derive(Debug, Default)]
pub(crate) struct ChunkOutput<F: SzxFloat> {
    /// One entry per block: `true` = non-constant.
    pub states: Vec<bool>,
    /// One `μ` per block (0.0 for bit-exact blocks).
    pub mus: Vec<F>,
    /// Payload length per non-constant block.
    pub zsizes: Vec<u16>,
    /// Concatenated non-constant payloads.
    pub payload: Vec<u8>,
    /// Scratch-arena growth events — nonzero only while the encoding
    /// thread's [`EncodeScratch`] warms up to the largest block.
    pub scratch_grows: u64,
    /// Final arena footprint of that [`EncodeScratch`] in bytes,
    /// published (max over windows) as the `compress.scratch.arena_bytes`
    /// gauge.
    pub scratch_arena_bytes: u64,
}

/// The running value range (max − min, NaN-ignoring) a relative bound is
/// resolved against, fed the data window by window (see [`crate::window`]).
///
/// The configured kernel path selects the per-window min/max. Every path
/// *picks* the same extrema (they are never computed), so the range — and
/// therefore the resolved bound and the stream — is identical for every
/// path, serial or parallel, and any split of the data into pushes.
#[derive(Debug, Clone, Copy)]
pub struct RangeScan {
    bound: ErrorBound,
    path: KernelPath,
    parallel: bool,
    block_size: usize,
    min: f64,
    max: f64,
}

impl RangeScan {
    /// An empty scan for `cfg`'s bound, kernel, block size and switch.
    pub fn new(cfg: &SzxConfig) -> Self {
        RangeScan {
            bound: cfg.error_bound,
            path: cfg.kernel,
            parallel: cfg.parallel,
            block_size: cfg.block_size,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold the extrema of `source`'s values into the scan: one min/max
    /// per window, on the pool's threads when the config is parallel.
    pub fn push<F: SzxFloat, S: WindowSource<F> + ?Sized>(&mut self, source: &S) -> Result<()> {
        let path = self.path;
        let items = windows(source.n(), window_len::<F>(self.block_size));
        let extrema = for_each_window(
            items,
            self.parallel,
            || source.buf(),
            |buf, k, w| {
                let _z = szx_telemetry::trace_zone("compress.range_chunk", k as u64);
                let data = source.window(w.start, w.len(), buf)?;
                let (lo, hi) = path.minmax(data);
                Ok((lo.to_f64(), hi.to_f64()))
            },
        )?;
        for (lo, hi) in extrema {
            self.min = self.min.min(lo);
            self.max = self.max.max(hi);
        }
        Ok(())
    }

    /// Value range of everything pushed so far. Equal to the scalar oracle
    /// [`crate::config::value_range`] of the concatenated pushes.
    pub fn range(&self) -> f64 {
        range_of(self.min, self.max)
    }

    /// The absolute bound the configured bound resolves to: an absolute
    /// bound as is, a relative one times [`Self::range`].
    pub fn bound(&self) -> f64 {
        match self.bound {
            ErrorBound::Absolute(e) => e,
            ErrorBound::Relative(rel) => rel * self.range(),
        }
    }
}

/// The value range of `data` on `path`, serially or split: what a
/// [`RangeScan`] finds.
#[cfg(test)]
pub(crate) fn value_range_on<F: SzxFloat>(data: &[F], path: KernelPath, parallel: bool) -> f64 {
    let cfg = SzxConfig::default()
        .with_kernel(path)
        .with_parallel(parallel);
    let mut scan = RangeScan::new(&cfg);
    scan.push(data).unwrap();
    scan.range()
}

/// Resolve the configured error bound against `data`: a relative bound
/// scans it (see [`RangeScan`]), an absolute one does not.
pub(crate) fn resolve_bound<F: SzxFloat>(data: &[F], cfg: &SzxConfig) -> Result<f64> {
    let mut scan = RangeScan::new(cfg);
    if let ErrorBound::Relative(_) = cfg.error_bound {
        scan.push(data)?;
    }
    Ok(scan.bound())
}

/// Compress `data` into a self-describing SZx stream.
///
/// The relative error bound, if configured, is resolved against the global
/// value range here and the stream records the resulting absolute bound.
/// The data then goes through an [`Encoder`], which borrows its windows
/// (see [`crate::window`]) and copies nothing. With [`SzxConfig::parallel`]
/// the pool's threads claim whole windows; the stream is byte-identical
/// to the serial one.
pub fn compress<F: SzxFloat>(data: &[F], cfg: &SzxConfig) -> Result<Vec<u8>> {
    let _total = szx_telemetry::span("compress.total");
    cfg.validate()?;
    if data.is_empty() {
        return Err(SzxError::EmptyInput);
    }
    let eb = {
        let _s = szx_telemetry::span("compress.range_scan");
        resolve_bound(data, cfg)?
    };
    let mut encoder = Encoder::new(cfg, eb)?;
    encoder.push(data)?;
    let mut bytes = Vec::with_capacity(encoder.stream_len());
    encoder.finish(&mut bytes)?;
    Ok(bytes)
}

/// Compresses one stream from consecutive pushes of its data and writes
/// it to a sink in one pass.
///
/// Every push but the last must hold a whole multiple of 8 blocks, so
/// each push's state bits start on a byte boundary and the stream equals
/// [`compress`] of the concatenated pushes byte for byte. A push is coded
/// window by window (see [`crate::window`]), each window into its own
/// [`ChunkOutput`]; the encoder holds only these compressed sections.
#[derive(Debug)]
pub struct Encoder<F: SzxFloat> {
    cfg: SzxConfig,
    eb: f64,
    /// Elements pushed so far.
    n: usize,
    /// One per window, in stream order.
    chunks: Vec<ChunkOutput<F>>,
    /// Set by a push that is not a whole multiple of 8 blocks: it must be
    /// the last.
    ragged: bool,
}

impl<F: SzxFloat> Encoder<F> {
    /// An encoder for `cfg` with the absolute bound `eb` (a relative bound
    /// is resolved first, e.g. by a [`RangeScan`] pass over the data).
    pub fn new(cfg: &SzxConfig, eb: f64) -> Result<Self> {
        cfg.validate()?;
        if !eb.is_finite() || eb < 0.0 {
            return Err(SzxError::InvalidConfig(format!(
                "resolved error bound is not usable: {eb}"
            )));
        }
        Ok(Encoder {
            cfg: *cfg,
            eb,
            n: 0,
            chunks: Vec::new(),
            ragged: false,
        })
    }

    /// Encode `source`'s values, the next of the data. With
    /// [`SzxConfig::parallel`] the pool's threads claim its windows, each
    /// encoding window `k` with its own arena into slot `k`.
    pub fn push<S: WindowSource<F> + ?Sized>(&mut self, source: &S) -> Result<()> {
        let bs = self.cfg.block_size;
        if self.ragged {
            return Err(SzxError::InvalidConfig(format!(
                "only the last push may be other than a multiple of 8 blocks of {bs}"
            )));
        }
        let len = source.n();
        if len == 0 {
            return Ok(());
        }
        let _s = szx_telemetry::span("compress.encode_blocks");
        self.ragged = !len.is_multiple_of(8 * bs);
        let (eb, strategy, path) = (self.eb, self.cfg.strategy, self.cfg.kernel);
        let first = self.chunks.len();
        let init = || (source.buf(), EncodeScratch::default());
        // The block loop keeps no telemetry: finish() derives every counter
        // from the window outputs, once per stream.
        let items = windows(len, window_len::<F>(bs));
        let outs = for_each_window(items, self.cfg.parallel, init, |(buf, scratch), k, w| {
            // One timeline lane entry per window: the flight recorder's view
            // of skew across the pool's threads.
            let _z = szx_telemetry::trace_zone("compress.chunk", (first + k) as u64);
            let data = source.window(w.start, w.len(), buf)?;
            Ok(encode_blocks(data, bs, eb, strategy, path, scratch))
        })?;
        self.chunks.extend(outs);
        self.n += len;
        Ok(())
    }

    /// Elements pushed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Has no element been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Byte length of the stream [`Self::finish`] writes for the windows
    /// pushed so far.
    pub fn stream_len(&self) -> usize {
        let (mut nblocks, mut nonconstant, mut payload) = (0, 0, 0);
        for c in &self.chunks {
            nblocks += c.states.len();
            nonconstant += c.zsizes.len();
            payload += c.payload.len();
        }
        crate::stream::HEADER_LEN
            + nblocks.div_ceil(8)
            + nblocks * F::BYTES
            + nonconstant * 2
            + payload
    }

    /// Write the stream to `sink` and return the sink: the header, then the
    /// state-bit, μ and zsize sections through one small staging buffer,
    /// then each window's payloads as they are. Nothing the size of the
    /// stream is assembled or copied.
    pub fn finish<W: Write>(self, mut sink: W) -> Result<W> {
        if self.n == 0 {
            return Err(SzxError::EmptyInput);
        }
        let _s = szx_telemetry::span("compress.assemble");
        let header = Header {
            dtype: F::DTYPE_CODE,
            strategy: self.cfg.strategy,
            block_size: self.cfg.block_size,
            n: self.n,
            eb: self.eb,
            n_nonconstant: self.chunks.iter().map(|c| c.zsizes.len()).sum(),
        };
        let mut staging = Vec::with_capacity(STAGING_BYTES);
        header.write(&mut staging);
        // State bits, MSB first. Every window but the last holds a multiple
        // of 8 blocks, so each packs into whole bytes of its own.
        for c in &self.chunks {
            for bits in c.states.chunks(8) {
                let byte = bits
                    .iter()
                    .enumerate()
                    .fold(0u8, |byte, (i, &s)| byte | u8::from(s) << (7 - i));
                staging.push(byte);
            }
            flush_full(&mut sink, &mut staging)?;
        }
        for c in &self.chunks {
            for &mu in &c.mus {
                mu.write_le(&mut staging);
            }
            flush_full(&mut sink, &mut staging)?;
        }
        for c in &self.chunks {
            for &z in &c.zsizes {
                staging.extend_from_slice(&z.to_le_bytes());
            }
            flush_full(&mut sink, &mut staging)?;
        }
        sink.write_all(&staging)?;
        for c in &self.chunks {
            sink.write_all(&c.payload)?;
        }
        if szx_telemetry::enabled() {
            flush_encode_telemetry(&self.chunks, self.n, &self.cfg, self.stream_len());
        }
        Ok(sink)
    }
}

/// Bytes [`Encoder::finish`] stages before writing them to its sink.
const STAGING_BYTES: usize = 64 * 1024;

/// Write `staging` to `sink` once it holds [`STAGING_BYTES`].
fn flush_full<W: Write>(sink: &mut W, staging: &mut Vec<u8>) -> Result<()> {
    if staging.len() >= STAGING_BYTES {
        sink.write_all(staging)?;
        staging.clear();
    }
    Ok(())
}

/// Encode every block of `data` (a whole number of blocks except possibly
/// the last): one [`Encoder`] window, on `path`'s block statistics and
/// non-constant coder (byte-identical outputs, see [`KernelPath`]).
fn encode_blocks<F: SzxFloat>(
    data: &[F],
    block_size: usize,
    eb: f64,
    strategy: CommitStrategy,
    path: KernelPath,
    scratch: &mut EncodeScratch,
) -> ChunkOutput<F> {
    // Zone-only attribution of which hot-loop path ran: the profiler and
    // flight recorder see simd vs kernel vs scalar time separately, at the
    // cost of one zone per window (never per block).
    let _z = szx_telemetry::trace_zone(path.encode_zone(), 0);
    // Non-constant payloads rarely exceed half the raw size on
    // compressible data; growing is cheap if they do.
    let payload = Vec::with_capacity(data.len() * F::BYTES / 2 + 64);
    let mut out = ChunkOutput {
        payload,
        ..ChunkOutput::default()
    };
    for block in data.chunks(block_size) {
        let stats = path.block_stats(block);
        if stats.is_constant_for(eb, block) {
            out.states.push(false);
            out.mus.push(stats.mu);
        } else {
            out.states.push(true);
            let start = out.payload.len();
            let mu =
                path.encode_nonconstant(block, &stats, eb, strategy, &mut out.payload, scratch);
            out.mus.push(mu);
            let zsize = out.payload.len() - start;
            debug_assert!(
                zsize <= u16::MAX as usize,
                "payload {zsize} exceeds zsize range"
            );
            out.zsizes.push(zsize as u16);
        }
    }
    // Surface the scratch arena's growth events through the window output so
    // the allocation-regression test can observe them; the counter is reset
    // so a reused scratch is not double-counted.
    out.scratch_grows = scratch.take_grows();
    out.scratch_arena_bytes = scratch.arena_bytes();
    out
}

/// Derive the §5.3 impact factors from the window outputs and publish them
/// to the global registry — the single join point of [`Encoder::finish`],
/// so the registry sees exactly one flush per stream however many windows
/// and pool threads produced them. Everything is read back from what the
/// stream records (state bits, zsizes, each payload's leading `R_k` byte);
/// the block loop itself keeps no accounting.
fn flush_encode_telemetry<F: SzxFloat>(
    chunks: &[ChunkOutput<F>],
    n: usize,
    cfg: &SzxConfig,
    stream_bytes: usize,
) {
    // One pass over the payloads: the R_k and zsize histograms. The zsize
    // one is indexed by value and flushed with one record_n per value.
    let mut req_len_hist = [0u64; 65];
    let mut zsize_hist: Vec<u64> = Vec::new();
    let (mut nblocks, mut nonconstant, mut payload_len) = (0usize, 0usize, 0usize);
    let (mut scratch_grows, mut scratch_arena_bytes) = (0u64, 0u64);
    for c in chunks {
        let mut offset = 0;
        for &z in &c.zsizes {
            // PANIC-OK: the encoder wrote these payloads back to back, each
            // `z >= 1` bytes starting with its R_k <= 64, so `offset` stays
            // inside `payload` and R_k inside the 65-entry histogram.
            req_len_hist[usize::from(c.payload[offset])] += 1;
            let z = usize::from(z);
            if z >= zsize_hist.len() {
                zsize_hist.resize(z + 1, 0);
            }
            zsize_hist[z] += 1; // PANIC-OK: resized to hold z just above.
            offset += z;
        }
        nblocks += c.states.len();
        nonconstant += c.zsizes.len();
        payload_len += c.payload.len();
        scratch_grows += c.scratch_grows;
        scratch_arena_bytes = scratch_arena_bytes.max(c.scratch_arena_bytes);
    }

    // Every payload is `[R_k][⌈2·blen/8⌉ leading codes][body]`; the bodies
    // are the mid-bytes written. Lead-byte savings are what a codec without
    // XOR deduplication would write as body at the same R_k, minus that.
    let bs = cfg.block_size;
    let prefix = |blen: usize| 1 + (2 * blen).div_ceil(8);
    let no_dedup = |r: usize, blen: usize| match cfg.strategy {
        CommitStrategy::ByteAligned => bytes_for(r as u32) * blen,
        CommitStrategy::BitPack => (r * blen).div_ceil(8),
        CommitStrategy::BytePlusResidual => (r / 8) * blen + ((r % 8) * blen).div_ceil(8),
    };
    let mut mid_bytes = payload_len - nonconstant * prefix(bs);
    let mut no_dedup_bytes: usize = req_len_hist
        .iter()
        .enumerate()
        .map(|(r, &count)| count as usize * no_dedup(r, bs))
        .sum();
    // Every block has `bs` elements except a short last one; if that one is
    // non-constant, swap its real length in.
    let tail = n - (nblocks - 1) * bs;
    if let Some(c) = chunks.last().filter(|_| tail < bs) {
        if let (Some(true), Some(&z)) = (c.states.last(), c.zsizes.last()) {
            // PANIC-OK: the last payload is the last `z` bytes of `payload`.
            let r = usize::from(c.payload[c.payload.len() - usize::from(z)]);
            mid_bytes += prefix(bs) - prefix(tail);
            no_dedup_bytes -= no_dedup(r, bs) - no_dedup(r, tail);
        }
    }

    let tel = szx_telemetry::global();
    tel.counter("compress.calls").incr();
    tel.counter("compress.blocks.constant")
        .add((nblocks - nonconstant) as u64);
    tel.counter("compress.blocks.nonconstant")
        .add(nonconstant as u64);
    tel.counter("compress.blocks.fallback")
        // PANIC-OK: FULL_BITS is 32 or 64, inside the 65-entry histogram.
        .add(req_len_hist[F::FULL_BITS as usize]);
    tel.counter("compress.bytes.mid").add(mid_bytes as u64);
    tel.counter("compress.bytes.lead_saved")
        .add((no_dedup_bytes - mid_bytes) as u64);
    tel.counter("compress.bytes.raw").add((n * F::BYTES) as u64);
    tel.counter("compress.bytes.stream")
        .add(stream_bytes as u64);
    tel.counter("compress.scratch.grows").add(scratch_grows);
    tel.gauge("compress.scratch.arena_bytes")
        .set_max(scratch_arena_bytes as f64);

    let req_hist = tel.hist_linear("compress.req_len", 64);
    for (r, &count) in req_len_hist.iter().enumerate() {
        req_hist.record_n(r as u64, count);
    }
    let block_zsize = tel.hist_log2("compress.block_zsize");
    for (z, &count) in zsize_hist.iter().enumerate() {
        block_zsize.record_n(z as u64, count);
    }
}

/// Encode one non-constant block: the scalar oracle of
/// [`KernelPath::encode_nonconstant`]. Returns the μ actually used (0.0
/// when the block is stored bit-exactly).
///
/// Payload layout (all strategies): `[R_k: u8][2-bit leading codes][data...]`
/// where `data` depends on the strategy:
/// * Solution C: mid-bytes only (plain memcpy commits) — the paper's design.
/// * Solution A: one tightly bit-packed pool of `R_k − 8·L_i` bits per value.
/// * Solution B: whole-byte pool followed by a `β = R_k mod 8`-bit residual
///   pool.
pub(crate) fn encode_nonconstant<F: SzxFloat>(
    block: &[F],
    stats: &BlockStats<F>,
    eb: f64,
    strategy: CommitStrategy,
    payload: &mut Vec<u8>,
    scratch: &mut EncodeScratch,
) -> F {
    let req_len = required_length::<F>(stats.radius, eb);
    let raw = req_len == F::FULL_BITS;
    let mu = if raw { F::ZERO } else { stats.mu };

    payload.push(req_len as u8);
    let lead_off = payload.len();
    let lead_bytes = (2 * block.len()).div_ceil(8);
    payload.resize(lead_off + lead_bytes, 0);

    match strategy {
        CommitStrategy::ByteAligned => {
            let s = shift_for(req_len);
            let nb = bytes_for(req_len);
            let lead_cap = nb.min(3);
            let mut prev = 0u64;
            for (i, &d) in block.iter().enumerate() {
                let v = if raw { d } else { d - mu };
                let w = v.to_word() >> s;
                let xor = w ^ prev;
                let lead = ((xor.leading_zeros() / 8) as usize).min(lead_cap);
                // PANIC-OK: i < blen, and the ⌈2·blen/8⌉ code bytes from
                // lead_off on were resized in above.
                payload[lead_off + i / 4] |= (lead as u8) << (6 - 2 * (i % 4));
                let be = w.to_be_bytes();
                // PANIC-OK: lead <= lead_cap <= nb <= 8.
                payload.extend_from_slice(&be[lead..nb]);
                prev = w;
            }
        }
        CommitStrategy::BitPack => {
            let lead_cap = (req_len / 8).min(3) as usize;
            let bits = scratch.bits(block.len());
            let mut prev = 0u64;
            for (i, &d) in block.iter().enumerate() {
                let v = if raw { d } else { d - mu };
                let w = v.to_word();
                let xor = w ^ prev;
                let lead = ((xor.leading_zeros() / 8) as usize).min(lead_cap);
                // PANIC-OK: as in the ByteAligned arm.
                payload[lead_off + i / 4] |= (lead as u8) << (6 - 2 * (i % 4));
                let t = req_len - 8 * lead as u32;
                if t > 0 {
                    bits.write_bits((w << (8 * lead)) >> (64 - t), t);
                }
                prev = w;
            }
            payload.extend_from_slice(bits.as_bytes());
        }
        CommitStrategy::BytePlusResidual => {
            let beta = req_len % 8;
            let lead_cap = (req_len / 8).min(3) as usize;
            let bits = scratch.bits(block.len());
            let mut prev = 0u64;
            for (i, &d) in block.iter().enumerate() {
                let v = if raw { d } else { d - mu };
                let w = v.to_word();
                let xor = w ^ prev;
                let lead = ((xor.leading_zeros() / 8) as usize).min(lead_cap);
                // PANIC-OK: as in the ByteAligned arm.
                payload[lead_off + i / 4] |= (lead as u8) << (6 - 2 * (i % 4));
                // α whole bytes after the identical prefix, straight into
                // the payload's whole-byte pool...
                let alpha = (req_len / 8) as usize - lead;
                let be = w.to_be_bytes();
                // PANIC-OK: lead + alpha == req_len / 8 <= 8.
                payload.extend_from_slice(&be[lead..lead + alpha]);
                // ...then β residual bits, identical width for every value,
                // into the pool that follows it.
                if beta > 0 {
                    let shift_out = 8 * (lead + alpha) as u32;
                    bits.write_bits((w << shift_out) >> (64 - beta), beta);
                }
                prev = w;
            }
            payload.extend_from_slice(bits.as_bytes());
        }
    }
    mu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorBound;

    #[test]
    fn compress_rejects_empty() {
        let err = compress::<f32>(&[], &SzxConfig::absolute(1e-3)).unwrap_err();
        assert_eq!(err, SzxError::EmptyInput);
    }

    #[test]
    fn compress_rejects_invalid_config() {
        let cfg = SzxConfig::absolute(1e-3).with_block_size(0);
        assert!(compress(&[1.0f32], &cfg).is_err());
    }

    #[test]
    fn constant_data_compresses_to_mu_only() {
        let data = vec![3.25f32; 1024];
        let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        // 8 blocks: header 36 + 1 state byte + 8 μ (32 bytes) = 69 bytes.
        assert_eq!(bytes.len(), 69);
        let h = crate::stream::inspect(&bytes).unwrap();
        assert_eq!(h.n_nonconstant, 0);
    }

    #[test]
    fn relative_bound_with_nonfinite_range_errors_cleanly() {
        let data = [f32::MAX, f32::MIN, 0.0, 1.0];
        let cfg = SzxConfig {
            block_size: 4,
            error_bound: ErrorBound::Relative(1e-3),
            strategy: CommitStrategy::ByteAligned,
            kernel: KernelPath::detect(),
            parallel: false,
        };
        // Range overflows f64? No — f32::MAX fits in f64, so this resolves
        // fine and must compress.
        assert!(compress(&data, &cfg).is_ok());
    }

    fn noisy_wave(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = i as f32 * 0.003;
                x.sin() * 5.0 + (x * 37.1).sin() * 0.02
            })
            .collect()
    }

    #[test]
    fn parallel_stream_equals_serial_stream() {
        let data = noisy_wave(300_000);
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            let cfg = SzxConfig::relative(1e-3).with_strategy(strategy);
            let reference = compress(&data, &cfg.with_kernel(KernelPath::Scalar)).unwrap();
            for kernel in [KernelPath::Scalar, KernelPath::Kernel, KernelPath::Simd] {
                for parallel in [false, true] {
                    let cfg = cfg.with_kernel(kernel).with_parallel(parallel);
                    let bytes = compress(&data, &cfg).unwrap();
                    assert_eq!(reference, bytes, "streams must be byte-identical ({cfg:?})");
                }
            }
        }
    }

    #[test]
    fn parallel_handles_tiny_inputs() {
        let data = vec![1.0f32, 2.0, 3.0];
        let cfg = SzxConfig::absolute(1e-3).with_parallel(true);
        let bytes = compress(&data, &cfg).unwrap();
        assert_eq!(bytes, compress(&data, &cfg.with_parallel(false)).unwrap());
        let back: Vec<f32> = crate::decompress(&bytes).unwrap();
        for (&x, &y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= 1e-3);
        }
    }

    #[test]
    fn parallel_relative_bound_matches_serial_resolution() {
        // Spans several windows, so the parallel reduction runs.
        let data = noisy_wave(300_000);
        let cfg = SzxConfig::relative(1e-2);
        let serial = compress(&data, &cfg).unwrap();
        let par = compress(&data, &cfg.with_parallel(true)).unwrap();
        let hs = crate::inspect(&serial).unwrap();
        let hp = crate::inspect(&par).unwrap();
        assert_eq!(hs.eb.to_bits(), hp.eb.to_bits());
        assert_eq!(hs.eb, 1e-2 * crate::config::value_range(&data));
    }

    #[test]
    fn payload_grows_with_entropy() {
        let smooth: Vec<f32> = (0..4096).map(|i| (i as f32 * 1e-4).sin()).collect();
        let rough: Vec<f32> = (0..4096)
            .map(|i| ((i as f32 * 12.9898).sin() * 43_758.547).fract())
            .collect();
        let cfg = SzxConfig::absolute(1e-3);
        let a = compress(&smooth, &cfg).unwrap().len();
        let b = compress(&rough, &cfg).unwrap().len();
        assert!(a < b, "smooth {a} must compress smaller than rough {b}");
    }
}
