//! The SZx decompressor: the [`StreamIndex`], the [`Decoder`] (serial or
//! parallel over one window loop, or block by block over a range), and
//! the per-block routines.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::bitio::{BitReader, StateBits};
use crate::block::{bytes_for, shift_for};
use crate::config::{CommitStrategy, KernelPath};
use crate::container::{crc32c, crc32c_combine};
use crate::dekernels::DecodeScratch;
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;
use crate::source::{ReadAt, Span};
use crate::stream::{Header, SectionLayout, HEADER_LEN};
use crate::window::{for_each_window, window_len, window_values, windows};

/// A stream's header as read from its first [`HEADER_LEN`] bytes, with
/// the CRC32C of those bytes: what a [`StreamIndex`] is built on. A
/// container's frames can be sized from their heads alone, and each
/// frame's index built on its head when its turn comes, without reading
/// the header twice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamHead {
    header: Header,
    crc: u32,
}

impl StreamHead {
    /// Read and parse the header of the stream `span` holds.
    pub(crate) fn read<R: ReadAt + ?Sized>(span: &Span<'_, R>) -> Result<Self> {
        let mut buf = [0; HEADER_LEN];
        let len = usize::try_from(span.len()).map_or(HEADER_LEN, |len| len.min(HEADER_LEN));
        let bytes = buf.get_mut(..len).unwrap_or_default();
        span.fill(0, bytes)?;
        Ok(StreamHead {
            header: Header::parse(bytes)?,
            crc: crc32c(bytes),
        })
    }

    /// [`Self::read`] inside the `decompress.index` span.
    pub(crate) fn read_traced<R: ReadAt + ?Sized>(span: &Span<'_, R>) -> Result<Self> {
        let _s = szx_telemetry::span("decompress.index");
        Self::read(span)
    }

    /// The stream's header.
    pub fn header(&self) -> &Header {
        &self.header
    }
}

/// The one index of a compressed stream: where block `b`'s μ and payload
/// are. It holds the stream's header and its state-bit, μ and zsize
/// sections (borrowed from a stream in memory, else read) and keeps one
/// `zsize_array` prefix (§6.1) per window, so a window finds its payload
/// span without a scan, and any block with at most one window of zsizes.
/// It never holds a payload: the decoder reads each window's payload span
/// from the stream's source. Building it validates every section against
/// the stream's length; nothing it holds is sized by blocks.
#[derive(Debug)]
pub struct StreamIndex<'a> {
    header: Header,
    /// CRC32C of the header's bytes.
    head_crc: u32,
    /// The stream's bytes from the end of its header to its first
    /// payload: the state-bit, μ and zsize sections.
    sections: Cow<'a, [u8]>,
    layout: SectionLayout,
    /// Bytes in the stream.
    len: usize,
    /// Stream offset just past the last payload.
    payload_end: usize,
    /// Blocks per window of the stream's element type.
    window_blocks: usize,
    /// Per window: the non-constant blocks before it, and the stream
    /// offset of its first payload.
    windows: Vec<(usize, usize)>,
}

impl<'a> StreamIndex<'a> {
    /// Parse and validate the stream `bytes` of `F` values: its header,
    /// its section layout, its state bits against the non-constant block
    /// count, and its zsizes against the payload section.
    pub fn parse<F: SzxFloat>(bytes: &'a [u8]) -> Result<Self> {
        let index = Self::read(&Span::whole(bytes))?;
        index.header.expect_dtype::<F>()?;
        Ok(index)
    }

    /// Read and validate the index of the stream `span` holds, of either
    /// element type: its header, then its sections (see [`Self::read_on`]).
    pub(crate) fn read<R: ReadAt + ?Sized>(span: &Span<'a, R>) -> Result<Self> {
        Self::read_on(span, StreamHead::read(span)?)
    }

    /// The index of the stream `span` holds, whose header `head` was read
    /// from it: its sections, lent by a source in memory and read from any
    /// other. Every offset is checked against the stream's length before
    /// anything is read or allocated for it.
    pub(crate) fn read_on<R: ReadAt + ?Sized>(
        span: &Span<'a, R>,
        head: StreamHead,
    ) -> Result<Self> {
        let corrupt = |m: String| SzxError::CorruptStream(m);
        let len = usize::try_from(span.len())
            .map_err(|_| corrupt(format!("stream of {} bytes", span.len())))?;
        let StreamHead { header, crc } = head;
        let layout = SectionLayout::for_header(&header)?;
        if len < layout.payload_off {
            return Err(corrupt(format!(
                "sections end at {} but stream holds {len}",
                layout.payload_off
            )));
        }
        // The layout starts the sections at HEADER_LEN.
        let sections_len = layout.payload_off.saturating_sub(HEADER_LEN);
        let sections = match span.lend(HEADER_LEN as u64, sections_len) {
            Some(bytes) => Cow::Borrowed(bytes),
            None => {
                let mut bytes = vec![0; sections_len];
                span.fill(HEADER_LEN as u64, &mut bytes)?;
                Cow::Owned(bytes)
            }
        };
        let nblocks = header.num_blocks();
        let section = |r: Range<usize>| section_of(&sections, r);
        let states = StateBits::new(section(layout.state_off..layout.mu_off), nblocks)
            .ok_or_else(|| corrupt("state bit section truncated".into()))?;

        let n_nonconstant = states.count_ones();
        if n_nonconstant != header.n_nonconstant {
            return Err(corrupt(format!(
                "header declares {} non-constant blocks, state bits say {}",
                header.n_nonconstant, n_nonconstant
            )));
        }

        // One pass over the zsizes, window by window: the prefix before
        // each window, then the sum the payload section must hold.
        let zsize_bytes = section(layout.zsize_off..layout.payload_off);
        let window_blocks =
            window_values(header.value_bytes(), header.block_size) / header.block_size;
        let mut windows = Vec::with_capacity(nblocks.div_ceil(window_blocks));
        let (mut nc, mut at) = (0, layout.payload_off);
        for first in (0..nblocks).step_by(window_blocks) {
            windows.push((nc, at));
            let count = states.window(first, window_blocks).count_ones();
            let mut sizes = zsizes(zsize_bytes, nc).take(count);
            at = (sizes.try_fold(at, usize::checked_add))
                .ok_or_else(|| corrupt("zsize array overflows".into()))?;
            // ARITH-OK: the counts sum to the state bits' count_ones().
            nc += count;
        }
        if at > len {
            return Err(corrupt(format!(
                "payload section holds {} bytes, zsize array requires {}",
                len - layout.payload_off,
                at - layout.payload_off
            )));
        }
        Ok(StreamIndex {
            header,
            head_crc: crc,
            sections,
            layout,
            len,
            payload_end: at,
            window_blocks,
            windows,
        })
    }

    /// [`Self::read`] inside the `decompress.index` span.
    pub(crate) fn read_traced<R: ReadAt + ?Sized>(span: &Span<'a, R>) -> Result<Self> {
        let _s = szx_telemetry::span("decompress.index");
        Self::read(span)
    }

    /// [`Self::read_on`] inside the `decompress.index` span.
    pub(crate) fn read_on_traced<R: ReadAt + ?Sized>(
        span: &Span<'a, R>,
        head: StreamHead,
    ) -> Result<Self> {
        let _s = szx_telemetry::span("decompress.index");
        Self::read_on(span, head)
    }

    /// The stream's header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.header.num_blocks()
    }

    /// Bytes in the stream.
    pub fn stream_len(&self) -> usize {
        self.len
    }

    /// CRC32C of the stream's header and sections.
    pub(crate) fn sections_crc(&self) -> u32 {
        let sections = crc32c(&self.sections);
        crc32c_combine(self.head_crc, sections, self.sections.len() as u64)
    }

    fn section(&self, range: Range<usize>) -> &[u8] {
        section_of(&self.sections, range)
    }

    /// The state bits (`None` never happens: [`Self::read`] checked them).
    fn states(&self) -> Option<StateBits<'_>> {
        let l = &self.layout;
        StateBits::new(self.section(l.state_off..l.mu_off), self.num_blocks())
    }

    fn zsize_bytes(&self) -> &[u8] {
        self.section(self.layout.zsize_off..self.layout.payload_off)
    }

    /// Walk the blocks in order from block `first`: each block's μ, and
    /// its payload as a byte range into the stream (`None` for a constant
    /// block). Empty from `first >= num_blocks()` on.
    pub fn blocks<F: SzxFloat>(
        &self,
        first: usize,
    ) -> impl Iterator<Item = (F, Option<Range<usize>>)> + '_ {
        let (nc, mut at) = self.prefix(first);
        let mus = self.section(self.layout.mu_off..self.layout.zsize_off);
        let mus = mus.get(first.saturating_mul(F::BYTES)..);
        let mus = mus.unwrap_or_default().chunks_exact(F::BYTES);
        let mut zsizes = zsizes(self.zsize_bytes(), nc);
        let states = self.states();
        (first..self.num_blocks())
            .zip(mus)
            .map_while(move |(b, mu)| {
                let mu = F::read_le(mu);
                if !states?.get(b) {
                    return Some((mu, None));
                }
                // read() checked the whole zsize sum against the stream.
                let payload = at..at + zsizes.next()?;
                at = payload.end;
                Some((mu, Some(payload)))
            })
    }

    /// The non-constant blocks before `block` and the stream offset of
    /// the next payload: the covering window's prefix plus the zsizes of
    /// its non-constant blocks before `block`; past the last block, every
    /// block and the end of the payloads.
    fn prefix(&self, block: usize) -> (usize, usize) {
        let w = block / self.window_blocks;
        let (Some(&(nc, at)), Some(states)) = (self.windows.get(w), self.states()) else {
            return (self.header.n_nonconstant, self.payload_end);
        };
        // ARITH-OK: w * window_blocks <= block, both below num_blocks.
        let first = w * self.window_blocks;
        let count = states.window(first, block - first).count_ones();
        // read() checked every window's zsize sum against the stream.
        let at = at + zsizes(self.zsize_bytes(), nc).take(count).sum::<usize>();
        // ARITH-OK: at most the state bits' count_ones().
        (nc + count, at)
    }

    /// The stream bytes of window `k`'s payloads: from its first payload
    /// to the next window's, the last window's to the stream's end.
    fn window_span(&self, k: usize) -> Range<usize> {
        let start = self.windows.get(k).map_or(self.len, |w| w.1);
        let end = self.windows.get(k + 1).map_or(self.len, |w| w.1);
        start..end
    }
}

/// Stream bytes `range` of a section, given `sections`, the stream's bytes
/// from the end of its header on.
fn section_of(sections: &[u8], range: Range<usize>) -> &[u8] {
    let from = |at: usize| at.checked_sub(HEADER_LEN);
    let range = from(range.start).zip(from(range.end));
    range
        .and_then(|(start, end)| sections.get(start..end))
        .unwrap_or_default()
}

/// The little-endian zsizes of `zsize_bytes` from zsize `from` on.
fn zsizes(zsize_bytes: &[u8], from: usize) -> impl Iterator<Item = usize> + '_ {
    let pairs = zsize_bytes.get(from.saturating_mul(2)..);
    let (pairs, _) = pairs.unwrap_or_default().as_chunks::<2>();
    pairs.iter().map(|&p| usize::from(u16::from_le_bytes(p)))
}

/// Decompress a stream produced by [`crate::compress`] with the default
/// [`Decoder`] (fastest kernel, serial). The element type must match the
/// stream's; use [`crate::stream::inspect`] to discover it.
pub fn decompress<F: SzxFloat>(bytes: &[u8]) -> Result<Vec<F>> {
    Decoder::default().decode(bytes)
}

/// What a checked window loop saw: the CRC32C of every byte of the stream
/// (its sections, then each window's payload span in stream order), and
/// the first failing window's error. A frame whose CRC fails reports that
/// instead of whatever else failed.
pub(crate) struct Checked {
    pub(crate) crc: u32,
    pub(crate) result: Result<()>,
}

/// The SZx decompressor: a decode path, a serial/parallel switch, and the
/// buffers it reuses across calls.
///
/// Every path and both modes reconstruct bit-identical values and fail
/// with identical errors; the settings only choose *how* blocks are
/// decoded, never *what* they decode to. The parallel mode is the paper's
/// multicore design (§6.1): the pool's threads claim whole windows (see
/// [`crate::window`]), and the [`StreamIndex`] holds each window's first
/// payload offset in the prefix-summed `zsize_array`.
#[derive(Debug)]
pub struct Decoder {
    kernel: KernelPath,
    parallel: bool,
    /// Buffers, one set per thread that can take part in the window loop,
    /// reused across calls: once grown to the largest block and window
    /// they never grow again. Each thread locks a free one for all the
    /// windows it claims; [`Self::decode_range`] uses the first.
    shelf: Vec<Mutex<Buffers>>,
}

/// One thread's decode buffers: the kernel arena and the payload bytes of
/// the window it decodes.
#[derive(Debug, Default)]
struct Buffers {
    scratch: DecodeScratch,
    payload: Vec<u8>,
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
            shelf: Vec::new(),
        }
    }

    /// Decompress `bytes` into a new vector.
    pub fn decode<F: SzxFloat>(&mut self, bytes: &[u8]) -> Result<Vec<F>> {
        let _total = szx_telemetry::span("decompress.total");
        // Build (and thereby validate) the index *before* allocating the
        // output: a forged header could otherwise demand an absurd
        // allocation.
        let span = Span::whole(bytes);
        let index = StreamIndex::read_traced(&span)?;
        index.header.expect_dtype::<F>()?;
        let mut out = vec![F::ZERO; index.header.n];
        self.decode_to(&index, &span, &mut out, false)?.result?;
        Ok(out)
    }

    /// Decode values `range` of the stream `index` indexes, whose bytes
    /// `stream` holds, touching only the blocks that cover it (random
    /// access, §6.1) and reading only their payloads: block by block on
    /// the calling thread, whatever the parallel switch, with this
    /// decoder's path. The values equal the matching slice of
    /// [`Self::decode`]. A range past the stream's end, a `stream` of
    /// another length than the one indexed, or a `F` other than the
    /// stream's, is an error.
    pub fn decode_range<F: SzxFloat>(
        &mut self,
        index: &StreamIndex<'_>,
        stream: &(impl ReadAt + ?Sized),
        range: Range<usize>,
    ) -> Result<Vec<F>> {
        if stream.size() != index.len as u64 {
            return Err(SzxError::InvalidConfig(format!(
                "index of a {}-byte stream given for a stream of {} bytes",
                index.len,
                stream.size()
            )));
        }
        index.header.expect_dtype::<F>()?;
        let (n, bs) = (index.header.n, index.header.block_size);
        if range.start > range.end || range.end > n {
            return Err(SzxError::InvalidConfig(format!(
                "range {}..{} out of bounds (n = {n})",
                range.start, range.end
            )));
        }
        if range.is_empty() {
            return Ok(Vec::new());
        }
        // The covering blocks, decoded whole, then cut to the range.
        let first = range.start / bs;
        let covered = first * bs..n.min(range.end.div_ceil(bs).saturating_mul(bs));
        let mut out = vec![F::ZERO; covered.len()];
        let payloads = index.prefix(first).1..index.prefix(covered.end.div_ceil(bs)).1;
        if self.shelf.is_empty() {
            self.shelf.push(Mutex::default());
        }
        let mut spare = Buffers::default();
        let lease = self.shelf.iter_mut().find_map(|s| s.get_mut().ok());
        let Buffers { scratch, payload } = lease.unwrap_or(&mut spare);
        let stream = Span::whole(stream);
        let len = payloads.end.saturating_sub(payloads.start);
        let payload = stream.read(payloads.start as u64, len, payload)?;
        let path = self.kernel;
        decode_run(
            index,
            first,
            &mut out,
            path,
            scratch,
            payload,
            payloads.start,
        )?;
        out.copy_within(range.start - covered.start..range.end - covered.start, 0);
        out.truncate(range.len());
        Ok(out)
    }

    /// Decompress `bytes` into `out`, which must hold exactly the stream's
    /// element count, so repeated decodes reuse one output buffer.
    pub fn decode_into<F: SzxFloat>(&mut self, bytes: &[u8], out: &mut [F]) -> Result<()> {
        let _total = szx_telemetry::span("decompress.total");
        let span = Span::whole(bytes);
        let index = StreamIndex::read_traced(&span)?;
        index.header.expect_dtype::<F>()?;
        if out.len() != index.header.n {
            return Err(SzxError::InvalidConfig(format!(
                "output buffer holds {} elements, stream has {}",
                out.len(),
                index.header.n
            )));
        }
        self.decode_to(&index, &span, out, false)?.result
    }

    /// Decode the stream `span` holds, which `index` indexes and whose
    /// element type is `F`, straight into `out` (its `n` values), window
    /// by window. With `crc`, also fold the CRC32C of its bytes.
    pub(crate) fn decode_to<F: SzxFloat, R: ReadAt + ?Sized>(
        &mut self,
        index: &StreamIndex<'_>,
        span: &Span<'_, R>,
        out: &mut [F],
        crc: bool,
    ) -> Result<Checked> {
        let windows = out.chunks_mut(window_len::<F>(index.header.block_size));
        let path = self.kernel;
        self.each_window::<F, R, _, ()>(
            index,
            span,
            crc,
            windows.collect(),
            |(), scratch, b, payload, at, out| {
                decode_run(index, b, out, path, scratch, payload, at)
            },
        )
    }

    /// Decompress the stream `stream` holds window by window (see
    /// [`crate::window`]): read each window's payload into a buffer of the
    /// thread decoding it, decode it into another, and hand `sink` the
    /// thread's `T`, the index of the window's first value and the window.
    /// Serially the windows reach `sink` in stream order on the calling
    /// thread; in parallel each pool thread hands over the windows it
    /// claims, in any order. The values, and the error of a corrupt stream,
    /// are those of [`Self::decode`]: the error is the first corrupt
    /// window's, and serially the windows before it have reached `sink`.
    pub fn decode_windows<F: SzxFloat, T: Default>(
        &mut self,
        stream: &(impl ReadAt + ?Sized),
        sink: impl Fn(&mut T, usize, &[F]) -> Result<()> + Sync + Send,
    ) -> Result<()> {
        let _total = szx_telemetry::span("decompress.total");
        let span = Span::whole(stream);
        let index = StreamIndex::read_traced(&span)?;
        index.header.expect_dtype::<F>()?;
        self.windows_to(&index, &span, false, sink)?.result
    }

    /// [`Self::decode_windows`] of the stream `span` holds, which `index`
    /// indexes and whose element type is `F`; with `crc`, also fold the
    /// CRC32C of its bytes.
    pub(crate) fn windows_to<F: SzxFloat, R: ReadAt + ?Sized, T: Default>(
        &mut self,
        index: &StreamIndex<'_>,
        span: &Span<'_, R>,
        crc: bool,
        sink: impl Fn(&mut T, usize, &[F]) -> Result<()> + Sync + Send,
    ) -> Result<Checked> {
        let items = windows(index.header.n, window_len::<F>(index.header.block_size));
        let path = self.kernel;
        self.each_window::<F, R, _, (Vec<F>, T)>(
            index,
            span,
            crc,
            items,
            |(buf, t), scratch, b, payload, at, w| {
                buf.resize(w.len(), F::ZERO);
                decode_run(index, b, buf, path, scratch, payload, at)?;
                sink(t, w.start, buf)
            },
        )
    }

    /// The one window loop: read window `k`'s payload span into the
    /// thread's buffer (or borrow it from a stream in memory), fold its
    /// CRC32C when asked, and have `f` decode `item` from it with the
    /// thread's state and arena, given the window's first block and the
    /// stream offset of its payload span. After a window fails, later
    /// windows are only read for the CRC, and not read at all without one.
    /// A failed read ends the loop with its error; no CRC is known then.
    fn each_window<F: SzxFloat, R: ReadAt + ?Sized, I: Send, S: Default>(
        &mut self,
        index: &StreamIndex<'_>,
        span: &Span<'_, R>,
        crc: bool,
        items: Vec<I>,
        f: impl Fn(&mut S, &mut DecodeScratch, usize, &[u8], usize, I) -> Result<()> + Sync + Send,
    ) -> Result<Checked> {
        if szx_telemetry::enabled() {
            flush_decode_telemetry::<F>(index);
        }
        let bs = index.header.block_size;
        // One set of buffers per thread that can take part, the arena
        // sized for a whole block up front where the blocks use one, so
        // growth depends on the stream and not on which threads claim
        // which window.
        let threads = if self.parallel {
            rayon::current_num_threads()
        } else {
            1
        };
        self.shelf.resize_with(threads, Mutex::default);
        if self.kernel.uses_arena::<F>(index.header.strategy) {
            for s in self.shelf.iter_mut().filter_map(|s| s.get_mut().ok()) {
                s.scratch.ensure(bs);
            }
        }
        let _s = szx_telemetry::span("decompress.blocks");
        // Zone-only path attribution for the profiler, one zone per window.
        let zone = self.kernel.decode_zone();
        // The first window that failed so far: windows after it need no
        // decode, so whichever thread fails first, the error reported is
        // the first failing window's.
        let failed = AtomicUsize::new(usize::MAX);
        // At most one thread per set of buffers takes part, so each finds
        // a free one.
        let shelf = &self.shelf;
        let init = || {
            (
                shelf.iter().find_map(|s| s.try_lock().ok()),
                <(Buffers, S)>::default(),
            )
        };
        let windows = for_each_window(
            items,
            self.parallel,
            init,
            |(lease, (spare, state)), k, item| {
                let decode = k < failed.load(Ordering::Relaxed);
                let w = index.window_span(k);
                if !(decode || crc) {
                    return Ok((0, 0, Ok(())));
                }
                let _z = szx_telemetry::trace_zone(zone, k as u64);
                let Buffers { scratch, payload } = lease.as_deref_mut().unwrap_or(spare);
                let payload = span.read(w.start as u64, w.len(), payload)?;
                let window_crc = if crc {
                    let _s = szx_telemetry::span("container.crc");
                    crc32c(payload)
                } else {
                    0
                };
                let mut result = Ok(());
                if decode {
                    let first = k * index.window_blocks;
                    result = f(state, scratch, first, payload, w.start, item);
                    if result.is_err() {
                        failed.fetch_min(k, Ordering::Relaxed);
                    }
                }
                Ok((window_crc, w.len(), result))
            },
        );
        // Runs publish the growth of the arena they used; what is left was
        // grown outside a run (the shelf's up-front sizing).
        let mut bytes = 0;
        for s in self.shelf.iter_mut().filter_map(|s| s.get_mut().ok()) {
            flush_grows(&mut s.scratch);
            bytes += s.scratch.arena_bytes();
        }
        if bytes > 0 && szx_telemetry::enabled() {
            szx_telemetry::global()
                .gauge("decompress.scratch.arena_bytes")
                .set_max(bytes as f64);
        }
        let mut checked = Checked {
            crc: if crc { index.sections_crc() } else { 0 },
            result: Ok(()),
        };
        for (window_crc, len, result) in windows? {
            if crc {
                checked.crc = crc32c_combine(checked.crc, window_crc, len as u64);
            }
            if checked.result.is_ok() {
                checked.result = result;
            }
        }
        Ok(checked)
    }
}

/// Publish what a decompression saw — block classes come for free from the
/// already-built index, so decode telemetry costs nothing per block.
fn flush_decode_telemetry<F: SzxFloat>(index: &StreamIndex<'_>) {
    let tel = szx_telemetry::global();
    let nblocks = index.num_blocks() as u64;
    let nc = index.header.n_nonconstant as u64;
    tel.counter("decompress.calls").incr();
    tel.counter("decompress.blocks.constant").add(nblocks - nc);
    tel.counter("decompress.blocks.nonconstant").add(nc);
    tel.counter("decompress.bytes.out")
        .add((index.header.n * F::BYTES) as u64);
}

/// Decode the consecutive blocks starting at `first_block` into `out` (a
/// whole number of blocks, except possibly the stream's last), stopping at
/// the first corrupt one. `payloads` holds the stream's bytes from offset
/// `at` on, through the last of these blocks' payloads.
fn decode_run<F: SzxFloat>(
    index: &StreamIndex<'_>,
    first_block: usize,
    out: &mut [F],
    path: KernelPath,
    scratch: &mut DecodeScratch,
    payloads: &[u8],
    at: usize,
) -> Result<()> {
    let strategy = index.header.strategy;
    let blocks = index.blocks::<F>(first_block);
    for ((mu, span), block_out) in blocks.zip(out.chunks_mut(index.header.block_size)) {
        match span {
            // A block of this run has its payload inside `payloads`.
            Some(span) => {
                let local = span.start.checked_sub(at).zip(span.end.checked_sub(at));
                let payload = local.and_then(|(start, end)| payloads.get(start..end));
                let payload = payload.unwrap_or_default();
                path.decode_nonconstant(payload, block_out, mu, strategy, scratch)?;
            }
            None => block_out.fill(mu),
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

    fn ripple(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.013).sin() * 7.0 + (i as f32 * 0.11).cos() * 0.02)
            .collect()
    }

    fn bits<F: SzxFloat>(v: &[F]) -> Vec<u64> {
        v.iter().map(|x| x.to_word()).collect()
    }

    #[test]
    fn ranges_match_full_decompression() {
        let data = ripple(10_000);
        let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        let full: Vec<f32> = decompress(&bytes).unwrap();
        let index = StreamIndex::parse::<f32>(&bytes).unwrap();
        assert_eq!(index.header().n, 10_000);
        let mut decoder = Decoder::default();
        for range in [
            0..10,
            0..10_000,
            127..129,
            5000..5001,
            9_990..10_000,
            42..42,
        ] {
            let part: Vec<f32> = decoder
                .decode_range(&index, &bytes[..], range.clone())
                .unwrap();
            assert_eq!(part, &full[range.clone()], "{range:?}");
        }
    }

    #[test]
    fn single_element_access() {
        let data = ripple(1000);
        let bytes = compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
        let full: Vec<f32> = decompress(&bytes).unwrap();
        let index = StreamIndex::parse::<f32>(&bytes).unwrap();
        let mut decoder = Decoder::default();
        for i in [0usize, 1, 127, 128, 500, 999] {
            let one: Vec<f32> = decoder.decode_range(&index, &bytes[..], i..i + 1).unwrap();
            assert_eq!(one, [full[i]], "index {i}");
        }
    }

    #[test]
    fn per_block_access_and_lengths() {
        let data = ripple(300); // 2 full blocks + 44-element tail
        let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        let full: Vec<f32> = decompress(&bytes).unwrap();
        let index = StreamIndex::parse::<f32>(&bytes).unwrap();
        assert_eq!(index.num_blocks(), 3);
        assert_eq!(index.blocks::<f32>(0).count(), 3);
        assert_eq!(index.blocks::<f32>(2).count(), 1);
        let mut decoder = Decoder::default();
        let last: Vec<f32> = decoder.decode_range(&index, &bytes[..], 256..300).unwrap();
        assert_eq!(last, &full[256..300]);
        // The walk from any block finds the payloads the walk from 0 does.
        let all: Vec<_> = index.blocks::<f32>(0).collect();
        for b in 0..3 {
            assert_eq!(index.blocks::<f32>(b).collect::<Vec<_>>(), all[b..]);
        }
    }

    #[test]
    fn works_for_all_strategies_and_f64() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.01).sin()).collect();
        for strategy in [
            CommitStrategy::ByteAligned,
            CommitStrategy::BitPack,
            CommitStrategy::BytePlusResidual,
        ] {
            let cfg = SzxConfig::absolute(1e-6).with_strategy(strategy);
            let bytes = compress(&data, &cfg).unwrap();
            let full: Vec<f64> = decompress(&bytes).unwrap();
            let index = StreamIndex::parse::<f64>(&bytes).unwrap();
            let part: Vec<f64> = Decoder::default()
                .decode_range(&index, &bytes[..], 100..400)
                .unwrap();
            assert_eq!(part, &full[100..400], "{strategy:?}");
        }
    }

    #[test]
    #[expect(clippy::reversed_empty_ranges, reason = "the case under test")]
    fn out_of_bounds_errors() {
        let data = ripple(100);
        let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        let index = StreamIndex::parse::<f32>(&bytes).unwrap();
        let mut decoder = Decoder::default();
        assert!(decoder
            .decode_range::<f32>(&index, &bytes[..], 50..101)
            .is_err());
        assert!(decoder
            .decode_range::<f32>(&index, &bytes[..], 60..50)
            .is_err());
        assert!(decoder
            .decode_range::<f32>(&index, &bytes[..], 100..101)
            .is_err());
        assert!(decoder
            .decode_range::<f32>(&index, &bytes[..], 100..100)
            .unwrap()
            .is_empty());
        // A stream other than the one indexed, shorter or longer.
        for stream in [
            bytes[..bytes.len() - 1].to_vec(),
            [&bytes[..], &[0]].concat(),
        ] {
            let err = decoder
                .decode_range::<f32>(&index, &stream[..], 0..10)
                .unwrap_err();
            assert!(matches!(err, SzxError::InvalidConfig(_)), "{err}");
        }
        assert_eq!(index.blocks::<f32>(index.num_blocks()).next(), None);
    }

    #[test]
    fn kernel_and_scalar_paths_agree_bitwise() {
        let mut data = ripple(5000);
        data[700] = f32::NAN; // one bit-exact block in the middle
        let bytes = compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
        let index = StreamIndex::parse::<f32>(&bytes).unwrap();
        let mut scalar = Decoder::new(KernelPath::Scalar, false);
        for range in [0..5000, 100..400, 699..702, 4990..5000] {
            let want: Vec<f32> = scalar
                .decode_range(&index, &bytes[..], range.clone())
                .unwrap();
            for kernel in [KernelPath::Kernel, KernelPath::Simd] {
                let got: Vec<f32> = Decoder::new(kernel, true)
                    .decode_range(&index, &bytes[..], range.clone())
                    .unwrap();
                assert_eq!(bits(&got), bits(&want), "{kernel:?} {range:?}");
            }
        }
    }

    #[test]
    fn type_mismatch_rejected() {
        let data = ripple(100);
        let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
        assert!(StreamIndex::parse::<f64>(&bytes).is_err());
        let index = StreamIndex::parse::<f32>(&bytes).unwrap();
        assert!(matches!(
            Decoder::default().decode_range::<f64>(&index, &bytes[..], 0..1),
            Err(SzxError::TypeMismatch { .. })
        ));
    }
}
