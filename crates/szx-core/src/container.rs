//! One container for named, independently compressed SZx streams: the
//! fields of a snapshot (Table 2: CESM-ATM has 77) or the endless frames of
//! an instrument (LCLS-II, §1), and every file the `szx` tool writes.
//! [`ContainerWriter`] has an [`Encoder`] write each frame's stream
//! straight to any [`Write`] sink, CRC-ing it on the way, and keeps only
//! its index entry; [`ContainerReader`] reads a container by position
//! through a [`ReadAt`] source (a file, or bytes in memory): the footer
//! and index first, then only the frames and parts of frames it is asked
//! for. The bare SZx stream (`SZXR`, [`crate::stream`]) is the frame
//! payload.
//!
//! ```text
//! magic b"SZXC" | version u8 = 1
//! frame streams, back to back
//! index:  u32 count, per frame [u16 name_len][name utf-8][u64 len][u32 crc32c(stream)]
//! footer: [u32 crc32c(index)][u64 index_len][b"SZXC"]
//! ```
//!
//! Every byte is covered by a check: magics and version by value, the index
//! by the footer CRC, each frame by its index CRC. Frame offsets are the
//! prefix sum of the lengths (the paper's zsize idea, §6.1) and the frames
//! must tile the data region exactly, so no offset field can be forged.
//! A frame's CRC is folded in as its bytes arrive, window by window, and
//! its mismatch is the error a damaged frame reports, whatever else fails.

use core::cell::RefCell;
use std::collections::HashSet;
use std::io::Write;

use crate::config::SzxConfig;
use crate::cursor::Cursor;
use crate::decode::{Checked, Decoder, StreamHead, StreamIndex};
use crate::encode::Encoder;
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;
use crate::source::{ReadAt, Span};

pub const MAGIC: [u8; 4] = *b"SZXC";
pub const VERSION: u8 = 1;
/// Magic plus version byte.
const HEAD_LEN: usize = 5;
/// Index CRC, index length, magic.
const FOOTER_LEN: usize = 16;
/// Smallest index entry: empty name, length, CRC.
const MIN_ENTRY_LEN: usize = 2 + 8 + 4;

/// CRC32C (Castagnoli, reflected polynomial `0x82F63B78`) of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_update(0, bytes)
}

/// Extend `crc`, the CRC32C of some bytes, by `bytes`:
/// `crc32c_update(crc32c(a), b) == crc32c(a ++ b)`, and the CRC of no
/// bytes is 0. Runs on the SSE4.2 `crc32` instruction where the CPU has it
/// (see [`crate::simd`]), else on [`crc32c_table`].
pub fn crc32c_update(crc: u32, bytes: &[u8]) -> u32 {
    !crate::simd::crc32c(!crc, bytes)
}

/// The CRC32C of `a ++ b` from `crc_a = crc32c(a)`, `crc_b = crc32c(b)`
/// and `len_b = b.len()`: how the CRCs of a frame's windows, each computed
/// as its bytes arrive, join into the frame's, in stream order.
pub fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // Appending `len_b` bytes multiplies `a`'s remainder by x^(8 len_b);
    // the pre- and post-inversions of the two CRCs cancel.
    let mut shift = 1 << 31; // x^0, bit-reflected
    let (mut n, mut k) = (len_b, 3);
    while n != 0 {
        if n & 1 != 0 {
            // PANIC-OK: the index is reduced modulo the table's length.
            shift = multmodp(X2N[k % 32], shift);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(shift, crc_a) ^ crc_b
}

/// `a · b` modulo the CRC32C polynomial, bit-reflected (x^0 is bit 31).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let (mut p, mut m) = (0, 1u32 << 31);
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = (b >> 1) ^ (0x82F6_3B78 & (b & 1).wrapping_neg());
        m >>= 1;
    }
    p
}

/// `X2N[k]` is x^(2^k) modulo the polynomial. The powers of x cycle with a
/// period dividing 2^32 − 1, so 32 entries cover every `len_b`.
const X2N: [u32; 32] = {
    let mut t = [0; 32];
    t[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 32 {
        t[k] = multmodp(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// Fold `bytes` into the CRC32C register `reg` (the CRC before its final
/// inversion) with slicing-by-8 over tables built at compile time: the
/// portable backend, and the oracle of the hardware one.
pub(crate) fn crc32c_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().unwrap_or_default()) ^ u64::from(crc);
        // Table 7 folds in the first byte, table 0 the last.
        crc = (CRC_TABLES.iter().rev().zip((0..64).step_by(8)))
            .fold(0, |acc, (t, shift)| acc ^ lut(t, w >> shift));
    }
    let [t0, ..] = &CRC_TABLES;
    for &b in words.remainder() {
        crc = lut(t0, u64::from(crc ^ u32::from(b))) ^ (crc >> 8);
    }
    crc
}

/// `table[x & 0xff]`.
pub(crate) fn lut(table: &[u32; 256], x: u64) -> u32 {
    // PANIC-OK: the index is masked to 0..=255.
    table[(x & 0xff) as usize]
}

/// Table `s` maps a byte to the CRC register after that byte and `s`
/// zero bytes, which is what slicing-by-8 folds in per input lane.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 64 {
            c = (c >> 1) ^ (0x82F6_3B78 & (c & 1).wrapping_neg());
            bit += 1;
            if bit % 8 == 0 {
                t[bit / 8 - 1][i] = c;
            }
        }
        i += 1;
    }
    t
};

/// Per-frame accounting a [`ContainerWriter`] keeps as it goes — the numbers
/// an instrument pipeline watches live (frame latency, sustained ratio).
/// Always maintained: one clock read per frame is noise next to compressing
/// the frame, and it spares callers ad-hoc `Instant` bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameStats {
    /// Frames compressed so far.
    pub frames: u64,
    /// Uncompressed input bytes so far.
    pub raw_bytes: u64,
    /// Compressed stream bytes so far (excluding container framing).
    pub compressed_bytes: u64,
    /// Total wall time spent compressing, in nanoseconds.
    pub compress_ns: u64,
    /// Fastest single frame, in nanoseconds (0 before the first frame).
    pub min_frame_ns: u64,
    /// Slowest single frame, in nanoseconds.
    pub max_frame_ns: u64,
}

impl FrameStats {
    /// Cumulative compression ratio (raw / compressed).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Mean per-frame compression wall time in nanoseconds.
    pub fn mean_frame_ns(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.compress_ns as f64 / self.frames as f64
        }
    }

    /// Sustained compression throughput in GB/s (raw bytes over wall time).
    pub fn throughput_gbps(&self) -> f64 {
        if self.compress_ns == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.compress_ns as f64
        }
    }

    fn record(&mut self, raw: u64, compressed: u64, ns: u64) {
        self.frames = self.frames.saturating_add(1);
        self.raw_bytes = self.raw_bytes.saturating_add(raw);
        self.compressed_bytes = self.compressed_bytes.saturating_add(compressed);
        self.compress_ns = self.compress_ns.saturating_add(ns);
        self.min_frame_ns = if self.frames == 1 {
            ns
        } else {
            self.min_frame_ns.min(ns)
        };
        self.max_frame_ns = self.max_frame_ns.max(ns);
    }
}

/// Compresses frames into a container written through to `W`.
pub struct ContainerWriter<W: Write> {
    sink: W,
    cfg: SzxConfig,
    /// The serialized index so far, behind a 4-byte count patched by
    /// [`ContainerWriter::finish`].
    index: Vec<u8>,
    names: HashSet<String>,
    stats: FrameStats,
    /// Set while a sink write is in flight and left set if it fails.
    failed: bool,
}

impl<W: Write> ContainerWriter<W> {
    /// Validate `cfg` and write the container header to `sink`.
    pub fn new(mut sink: W, cfg: SzxConfig) -> Result<Self> {
        cfg.validate()?;
        sink.write_all(&[MAGIC.as_slice(), &[VERSION]].concat())?;
        Ok(ContainerWriter {
            sink,
            cfg,
            index: vec![0; 4],
            names: HashSet::new(),
            stats: FrameStats::default(),
            failed: false,
        })
    }

    /// Compress `frame` and write its stream under `name`, which must be
    /// unique and at most 65535 bytes of UTF-8. Frames may differ in length
    /// and element type. This is [`Self::push_encoder`] of the frame as one
    /// window.
    pub fn push<F: SzxFloat>(&mut self, name: &str, frame: &[F]) -> Result<()> {
        let started = std::time::Instant::now();
        let _z = szx_telemetry::trace_zone("stream.frame", self.stats.frames);
        let _total = szx_telemetry::span("compress.total");
        let eb = {
            let _s = szx_telemetry::span("compress.range_scan");
            crate::encode::resolve_bound(frame, &self.cfg)?
        };
        let mut encoder = Encoder::new(&self.cfg, eb)?;
        encoder.push(frame)?;
        self.push_encoder(name, encoder, started)
    }

    /// Write the stream of `encoder` under `name` (rules as for
    /// [`Self::push`]): [`Encoder::finish`] writes it straight to the sink,
    /// which counts its bytes and folds them into the frame's CRC32C on the
    /// way. `started` is when the frame's coding began, so the frame's
    /// time in [`FrameStats`] covers its scan, encode and write.
    pub fn push_encoder<F: SzxFloat>(
        &mut self,
        name: &str,
        encoder: Encoder<F>,
        started: std::time::Instant,
    ) -> Result<()> {
        let invalid = |m: String| Err(SzxError::InvalidConfig(m));
        let Ok(name_len) = u16::try_from(name.len()) else {
            return invalid(format!("frame name too long ({} bytes)", name.len()));
        };
        if self.names.contains(name) {
            return invalid(format!("duplicate frame name {name:?}"));
        }
        if self.stats.frames == u64::from(u32::MAX) {
            return invalid("too many frames".into());
        }
        if encoder.is_empty() {
            return Err(SzxError::EmptyInput);
        }
        let raw = encoder.len() * F::BYTES;
        let (zsize, crc) = self.with_sink(|sink| {
            let out = encoder.finish(FrameSink {
                sink,
                len: 0,
                crc: 0,
            })?;
            Ok((out.len, out.crc))
        })?;
        let ns = started.elapsed().as_nanos() as u64;
        self.names.insert(name.to_string());
        self.index.extend_from_slice(&name_len.to_le_bytes());
        self.index.extend_from_slice(name.as_bytes());
        self.index.extend_from_slice(&zsize.to_le_bytes());
        self.index.extend_from_slice(&crc.to_le_bytes());

        self.stats.record(raw as u64, zsize, ns);
        if szx_telemetry::enabled() {
            let tel = szx_telemetry::global();
            tel.span_stats("stream.frame").record(ns);
            tel.hist_log2("stream.frame_bytes").record(zsize);
            tel.counter("stream.bytes.raw").add(raw as u64);
            tel.counter("stream.bytes.compressed").add(zsize);
        }
        if szx_telemetry::event_sink_installed() {
            use szx_telemetry::Value;
            szx_telemetry::emit_event(
                "frame.compressed",
                &[
                    ("frame", Value::U64(self.stats.frames - 1)),
                    ("raw_bytes", Value::U64(raw as u64)),
                    ("compressed_bytes", Value::U64(zsize)),
                    ("ns", Value::U64(ns)),
                    ("ratio", Value::F64(raw as f64 / zsize.max(1) as f64)),
                ],
            );
        }
        Ok(())
    }

    /// Cumulative per-frame statistics (latency, sizes, ratio).
    pub fn stats(&self) -> &FrameStats {
        &self.stats
    }

    /// Run `f` on the sink. A failed write may leave bytes there that no
    /// index entry describes, so a failure poisons the writer: every later
    /// `push` and `finish` errors.
    fn with_sink<T>(&mut self, f: impl FnOnce(&mut W) -> Result<T>) -> Result<T> {
        if self.failed {
            return Err(SzxError::Io("container sink failed earlier".into()));
        }
        self.failed = true;
        let value = f(&mut self.sink)?;
        self.failed = false;
        Ok(value)
    }

    /// Write the index and footer, flush, and hand back the sink.
    pub fn finish(mut self) -> Result<W> {
        let mut tail = std::mem::take(&mut self.index);
        let count = self.stats.frames as u32;
        tail[..4].copy_from_slice(&count.to_le_bytes());
        let index_len = tail.len() as u64;
        tail.extend_from_slice(&crc32c(&tail).to_le_bytes());
        tail.extend_from_slice(&index_len.to_le_bytes());
        tail.extend_from_slice(&MAGIC);
        self.with_sink(|sink| {
            sink.write_all(&tail)?;
            Ok(sink.flush()?)
        })?;
        Ok(self.sink)
    }
}

/// The container's sink as one frame's stream passes through it: counts
/// the bytes and folds them into the frame's CRC32C.
struct FrameSink<'a, W> {
    sink: &'a mut W,
    len: u64,
    crc: u32,
}

impl<W: Write> Write for FrameSink<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_all(buf).map(|()| buf.len())
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.sink.write_all(buf)?;
        let _s = szx_telemetry::span("container.crc");
        self.crc = crc32c_update(self.crc, buf);
        self.len = self.len.saturating_add(buf.len() as u64);
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.sink.flush()
    }
}

/// One frame's index entry: its name, where its stream starts in the
/// container and how long it is, and the stream's CRC32C.
#[derive(Debug)]
struct Entry {
    name: String,
    start: u64,
    len: u64,
    crc: u32,
}

/// The parsed and validated frame index of a container.
#[derive(Debug)]
pub(crate) struct ContainerIndex {
    entries: Vec<Entry>,
}

impl ContainerIndex {
    /// Read and check the header, the footer and the index CRC, then parse
    /// the entries and require the frames to tile the data region exactly.
    /// Reads the 5-byte header, the footer and the index, nothing else.
    pub(crate) fn parse<R: ReadAt + ?Sized>(source: &R) -> Result<Self> {
        let corrupt = |m: &str| SzxError::CorruptStream(format!("container: {m}"));
        let file = Span::whole(source);
        let size = file.len();
        let mut buf = Vec::new();
        let head_len = size.min(HEAD_LEN as u64) as usize;
        let head_bytes = file.read(0, head_len, &mut buf)?;
        let mut head = Cursor::new(head_bytes);
        if head.take(4) != Some(MAGIC.as_slice()) {
            if head_bytes.starts_with(&crate::stream::MAGIC) {
                return Err(corrupt("bare SZx stream, not an SZXC container"));
            }
            return Err(corrupt("bad magic"));
        }
        match head.u8() {
            Some(VERSION) => {}
            Some(v) => return Err(corrupt(&format!("unsupported version {v}"))),
            None => return Err(corrupt("truncated header")),
        }
        let footer_start = size
            .checked_sub(FOOTER_LEN as u64)
            .filter(|&s| s >= HEAD_LEN as u64)
            .ok_or_else(|| corrupt("truncated footer"))?;
        let mut foot = Cursor::new(file.read(footer_start, FOOTER_LEN, &mut buf)?);
        let index_crc = foot.u32_le().ok_or_else(|| corrupt("truncated footer"))?;
        let index_len = foot.u64_le().ok_or_else(|| corrupt("truncated footer"))?;
        if foot.take(4) != Some(MAGIC.as_slice()) {
            return Err(corrupt("bad footer magic"));
        }
        // Checked against the file before anything is read for it.
        let index_start = footer_start
            .checked_sub(index_len)
            .filter(|&s| s >= HEAD_LEN as u64)
            .ok_or_else(|| corrupt("index length points past the start"))?;
        let index_len = usize::try_from(index_len)
            .map_err(|_| corrupt("index length points past the start"))?;
        let index = file.read(index_start, index_len, &mut buf)?;
        if crc32c(index) != index_crc {
            return Err(corrupt("index checksum mismatch"));
        }

        let mut c = Cursor::new(index);
        let count = c.u32_le().ok_or_else(|| corrupt("truncated index"))? as usize;
        // Bound the claimed count by the bytes present before allocating.
        if count > c.remaining() / MIN_ENTRY_LEN {
            return Err(corrupt("implausible frame count"));
        }
        let mut entries = Vec::with_capacity(count);
        let mut pos = HEAD_LEN as u64;
        for _ in 0..count {
            let name_len = c.u16_le().ok_or_else(|| corrupt("truncated index"))?;
            let name = c
                .take(usize::from(name_len))
                .ok_or_else(|| corrupt("frame name runs past the index"))?;
            let name = std::str::from_utf8(name).map_err(|_| corrupt("frame name is not UTF-8"))?;
            let len = c.u64_le().ok_or_else(|| corrupt("truncated index"))?;
            let crc = c.u32_le().ok_or_else(|| corrupt("truncated index"))?;
            let end = pos
                .checked_add(len)
                .filter(|&end| end <= index_start)
                .ok_or_else(|| corrupt(&format!("frame {:?} runs past the data region", name)))?;
            entries.push(Entry {
                name: name.to_string(),
                start: pos,
                len,
                crc,
            });
            pos = end;
        }
        if !c.rest().is_empty() || pos != index_start {
            return Err(corrupt("frames do not tile the data region"));
        }
        Ok(ContainerIndex { entries })
    }
}

/// Reads frames out of a container through its [`ReadAt`] source, by
/// position: opening it reads the footer and the index;
/// [`Self::stream_index`] reads a frame's header and sections (or
/// [`Self::stream_head`] the header alone, and [`Self::stream_index_on`]
/// the sections after it, when the frame's turn comes); decoding
/// reads each window's payload as the window comes up, and folds the
/// frame's CRC32C in as it goes. The default source is bytes in memory,
/// which lend their pieces instead of copying them.
pub struct ContainerReader<'a, R: ?Sized = [u8]> {
    source: &'a R,
    index: ContainerIndex,
    /// Decoder reused across frames (serially, its kernel arenas grow once
    /// to the largest block, then stay allocation-free). `RefCell` keeps
    /// `frame` a `&self` method; the borrow is scoped to one frame decode.
    decoder: RefCell<Decoder>,
}

impl<'a> ContainerReader<'a> {
    /// Parse and validate the index of the container `bytes` holds (frame
    /// CRCs are checked when each frame is accessed).
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        Self::open(bytes)
    }

    /// Raw compressed stream of frame `i` (e.g. to forward downstream),
    /// after checking its CRC32C.
    pub fn frame_bytes(&self, i: usize) -> Result<&'a [u8]> {
        let e = self.entry(i)?;
        let stream = usize::try_from(e.len)
            .ok()
            .and_then(|len| self.span(e).lend(0, len))
            .ok_or_else(|| SzxError::CorruptStream("container: frame out of bounds".into()))?;
        let crc = {
            let _s = szx_telemetry::span("container.crc");
            crc32c(stream)
        };
        if crc != e.crc {
            return Err(mismatch(e));
        }
        Ok(stream)
    }
}

impl<'a, R: ReadAt + ?Sized> ContainerReader<'a, R> {
    /// Read and validate the header, footer and index of the container
    /// `source` holds, and nothing else (frame CRCs are checked when each
    /// frame is decoded).
    pub fn open(source: &'a R) -> Result<Self> {
        Ok(ContainerReader {
            source,
            index: ContainerIndex::parse(source)?,
            decoder: RefCell::default(),
        })
    }

    pub fn len(&self) -> usize {
        self.index.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.entries.is_empty()
    }

    /// Frame names in container order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.index.entries.iter().map(|e| e.name.as_str())
    }

    /// Bytes of frame `i`'s stream and their CRC32C, as the index records
    /// them.
    pub fn stream_entry(&self, i: usize) -> Result<(u64, u32)> {
        let e = self.entry(i)?;
        Ok((e.len, e.crc))
    }

    /// The [`StreamIndex`] of frame `i`: its header and sections, read
    /// (or lent) and validated against the frame's length; no payload is
    /// read. Sections that fail to parse report the frame's checksum
    /// mismatch, if it has one, found by reading the rest of the frame.
    pub fn stream_index(&self, i: usize) -> Result<StreamIndex<'a>> {
        self.stream_index_on(i, self.stream_head(i)?)
    }

    /// The header of frame `i`'s stream, read alone: enough to size the
    /// frame before its index is built. A header that fails to parse
    /// reports the frame's checksum mismatch first, as in
    /// [`Self::stream_index`].
    pub fn stream_head(&self, i: usize) -> Result<StreamHead> {
        let e = self.entry(i)?;
        StreamHead::read_traced(&self.span(e)).map_err(|err| self.verified(e, err))
    }

    /// [`Self::stream_index`] of frame `i`, built on `head`, which
    /// [`Self::stream_head`] read from frame `i`: only the sections after
    /// the header are read. The head of another frame, with other header
    /// bytes, makes frame `i` fail its section checks or its checksum.
    pub fn stream_index_on(&self, i: usize, head: StreamHead) -> Result<StreamIndex<'a>> {
        let e = self.entry(i)?;
        StreamIndex::read_on_traced(&self.span(e), head).map_err(|err| self.verified(e, err))
    }

    /// Decode frame `i`, which `index` (from [`Self::stream_index`]) indexes,
    /// window by window with `decoder`, handing `sink` each window as
    /// [`Decoder::decode_windows`] does. Each window's payload is read as
    /// its turn comes, into a buffer of the thread decoding it, and folded
    /// into the frame's CRC32C. A mismatch is the error, whatever else
    /// failed; else a failed window's error (serially, after the windows
    /// before it reached `sink`).
    pub fn decode_windows<F: SzxFloat, T: Default>(
        &self,
        i: usize,
        index: &StreamIndex<'_>,
        decoder: &mut Decoder,
        sink: impl Fn(&mut T, usize, &[F]) -> Result<()> + Sync + Send,
    ) -> Result<()> {
        let e = self.expect::<F>(i, index)?;
        let _total = szx_telemetry::span("decompress.total");
        settle(e, decoder.windows_to(index, &self.span(e), true, sink))
    }

    /// Decompress frame `i`.
    pub fn frame<F: SzxFloat>(&self, i: usize) -> Result<Vec<F>> {
        let index = self.stream_index(i)?;
        let e = self.expect::<F>(i, &index)?;
        let _total = szx_telemetry::span("decompress.total");
        // Clock read only when somebody is listening on the event sink.
        let started = szx_telemetry::event_sink_installed().then(std::time::Instant::now);
        let mut out = vec![F::ZERO; index.header().n];
        let checked = (self.decoder.borrow_mut()).decode_to(&index, &self.span(e), &mut out, true);
        settle(e, checked)?;
        if let Some(start) = started {
            use szx_telemetry::Value;
            szx_telemetry::emit_event(
                "frame.decoded",
                &[
                    ("frame", Value::U64(i as u64)),
                    ("compressed_bytes", Value::U64(e.len)),
                    ("raw_bytes", Value::U64((out.len() * F::BYTES) as u64)),
                    ("ns", Value::U64(start.elapsed().as_nanos() as u64)),
                ],
            );
        }
        Ok(out)
    }

    /// Position of the frame called `name`.
    pub fn position(&self, name: &str) -> Result<usize> {
        self.names()
            .position(|n| n == name)
            .ok_or_else(|| SzxError::InvalidConfig(format!("no frame named {name:?}")))
    }

    /// Decompress the frame called `name`.
    pub fn field<F: SzxFloat>(&self, name: &str) -> Result<Vec<F>> {
        self.frame(self.position(name)?)
    }

    fn entry(&self, i: usize) -> Result<&Entry> {
        self.index
            .entries
            .get(i)
            .ok_or_else(|| SzxError::InvalidConfig(format!("frame {i} out of range")))
    }

    /// The bytes of `e`'s stream (inside the source: the index tiles the
    /// data region, which ends before the index).
    fn span(&self, e: &Entry) -> Span<'a, R> {
        Span::new(self.source, e.start, e.len)
    }

    /// Frame `i`'s entry, if `index` is the index of a frame that long
    /// whose values are `F`s; a mismatched type reports the frame's
    /// checksum mismatch first, if it has one.
    fn expect<F: SzxFloat>(&self, i: usize, index: &StreamIndex<'_>) -> Result<&Entry> {
        let e = self.entry(i)?;
        if index.stream_len() as u64 != e.len {
            return Err(SzxError::InvalidConfig(format!(
                "index of a {}-byte stream given for frame {:?} of {} bytes",
                index.stream_len(),
                e.name,
                e.len
            )));
        }
        index
            .header()
            .expect_dtype::<F>()
            .map_err(|err| self.verified(e, err))?;
        Ok(e)
    }

    /// `err`, unless `e`'s frame fails its CRC (read whole for it), or
    /// cannot be read.
    fn verified(&self, e: &Entry, err: SzxError) -> SzxError {
        match self.span(e).crc() {
            Err(read) => read,
            Ok(crc) if crc != e.crc => mismatch(e),
            Ok(_) => err,
        }
    }
}

/// The outcome of a checked decode of `e`'s frame: a failed read, else a
/// checksum mismatch, else the decode's own result.
fn settle(e: &Entry, checked: Result<Checked>) -> Result<()> {
    let checked = checked?;
    if checked.crc != e.crc {
        return Err(mismatch(e));
    }
    checked.result
}

/// The error of frame `e` failing its CRC32C.
fn mismatch(e: &Entry) -> SzxError {
    SzxError::CorruptStream(format!("container: frame {:?} checksum mismatch", e.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(k: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i + 37 * k) as f32 * 0.01).sin() * (k + 1) as f32)
            .collect()
    }

    /// A container of `frames` named "0", "1", ….
    fn container(cfg: SzxConfig, frames: &[Vec<f32>]) -> Vec<u8> {
        let mut w = ContainerWriter::new(Vec::new(), cfg).unwrap();
        for (k, f) in frames.iter().enumerate() {
            w.push(&k.to_string(), f).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn crc32c_matches_reference_vectors() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // Slicing-by-8 agrees with the bytewise tail at every length.
        let bytes: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(31)).collect();
        for n in 0..bytes.len() {
            let mut crc = !0u32;
            for &b in &bytes[..n] {
                crc = lut(&CRC_TABLES[0], u64::from(crc ^ u32::from(b))) ^ (crc >> 8);
            }
            assert_eq!(crc32c(&bytes[..n]), !crc, "length {n}");
        }
    }

    #[test]
    fn frames_roundtrip_in_order() {
        let originals: Vec<Vec<f32>> = (0..5).map(|k| frame(k, 1000 + 17 * k)).collect();
        let bytes = container(SzxConfig::absolute(1e-4), &originals);
        let r = ContainerReader::new(&bytes).unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.names().collect::<Vec<_>>(), ["0", "1", "2", "3", "4"]);
        for (k, orig) in originals.iter().enumerate() {
            let back: Vec<f32> = r.frame(k).unwrap();
            assert_eq!(back.len(), orig.len());
            for (&a, &b) in orig.iter().zip(&back) {
                assert!((a - b).abs() <= 1e-4);
            }
        }
    }

    #[test]
    fn every_frame_reachable_by_index_and_name() {
        let bytes = container(
            SzxConfig::absolute(1e-3),
            &(0..4).map(|k| frame(k, 256)).collect::<Vec<_>>(),
        );
        let r = ContainerReader::new(&bytes).unwrap();
        let by_index: Vec<Vec<f32>> = (0..r.len())
            .map(|k| r.frame(k))
            .collect::<Result<_>>()
            .unwrap();
        let by_name: Vec<Vec<f32>> = r
            .names()
            .map(|n| r.field(n))
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(by_index.len(), 4);
        assert_eq!(by_index, by_name);
    }

    #[test]
    fn index_built_on_a_read_head_decodes_and_a_foreign_head_fails() {
        let originals: Vec<Vec<f32>> = (0..3).map(|k| frame(k, 3000 + 500 * k)).collect();
        let bytes = container(SzxConfig::absolute(1e-4), &originals);
        let r = ContainerReader::new(&bytes).unwrap();
        let decode = |i, index: &StreamIndex<'_>| {
            let out = std::sync::Mutex::new(vec![0f32; index.header().n]);
            let mut decoder = Decoder::default();
            r.decode_windows(i, index, &mut decoder, |(), at, w: &[f32]| {
                out.lock().unwrap()[at..at + w.len()].copy_from_slice(w);
                Ok(())
            })
            .map(|()| out.into_inner().unwrap())
        };
        let heads: Vec<StreamHead> = (0..3).map(|i| r.stream_head(i).unwrap()).collect();
        for (i, &head) in heads.iter().enumerate() {
            assert_eq!(head.header().n, originals[i].len());
            let index = r.stream_index_on(i, head).unwrap();
            assert_eq!(index.header(), r.stream_index(i).unwrap().header());
            assert_eq!(decode(i, &index).unwrap(), r.frame::<f32>(i).unwrap());
        }
        // Frame 0's head on frame 1: its sections do not parse, or the
        // decode fails frame 1's checksum.
        let err = r
            .stream_index_on(1, heads[0])
            .and_then(|index| decode(1, &index).map(drop))
            .unwrap_err();
        assert!(matches!(err, SzxError::CorruptStream(_)), "{err}");
        assert!(r.stream_head(3).is_err());
    }

    #[test]
    fn named_fields_roundtrip() {
        let names = ["pressure", "density", "velocity-x"];
        let mut w = ContainerWriter::new(Vec::new(), SzxConfig::absolute(1e-4)).unwrap();
        for (k, name) in names.iter().enumerate() {
            w.push(name, &frame(k, 2000)).unwrap();
        }
        assert_eq!(w.stats().frames, 3);
        let bytes = w.finish().unwrap();
        let r = ContainerReader::new(&bytes).unwrap();
        assert_eq!(r.names().collect::<Vec<_>>(), names);
        for (k, name) in names.iter().enumerate() {
            let back: Vec<f32> = r.field(name).unwrap();
            assert!(frame(k, 2000)
                .iter()
                .zip(&back)
                .all(|(a, b)| (a - b).abs() <= 1e-4));
        }
        assert!(r.field::<f32>("missing").is_err());
    }

    #[test]
    fn random_access_to_any_frame() {
        let frames: Vec<Vec<f32>> = (0..10).map(|k| frame(k, 500)).collect();
        let bytes = container(SzxConfig::absolute(1e-3), &frames);
        let r = ContainerReader::new(&bytes).unwrap();
        let f7: Vec<f32> = r.frame(7).unwrap();
        assert_eq!(f7.len(), 500);
        assert!(r.frame_bytes(7).unwrap().len() < 500 * 4);
        assert!(r.frame::<f32>(10).is_err());
        assert!(r.frame_bytes(10).is_err());
    }

    #[test]
    fn selective_extraction_reads_one_stream() {
        let bytes = container(SzxConfig::absolute(1e-3), &[frame(0, 2000), frame(1, 2000)]);
        let r = ContainerReader::new(&bytes).unwrap();
        let b = r.frame_bytes(r.position("1").unwrap()).unwrap();
        assert_eq!(crate::inspect(b).unwrap().n, 2000);
        // Streams plus header, index and footer fill the container exactly.
        let a = r.frame_bytes(0).unwrap();
        let index_len = 4 + 2 * (2 + 1 + 8 + 4);
        assert_eq!(
            a.len() + b.len() + HEAD_LEN + index_len + FOOTER_LEN,
            bytes.len()
        );
    }

    #[test]
    fn duplicate_and_invalid_names_rejected() {
        let mut w = ContainerWriter::new(Vec::new(), SzxConfig::absolute(1e-3)).unwrap();
        w.push("x", &frame(0, 100)).unwrap();
        assert!(w.push("x", &frame(1, 100)).is_err(), "duplicate");
        assert!(
            w.push(&"n".repeat(70_000), &frame(1, 100)).is_err(),
            "name too long"
        );
        assert!(w.push::<f32>("empty", &[]).is_err(), "nothing to compress");
        assert_eq!(w.stats().frames, 1, "rejected frames leave no trace");
        let bytes = w.finish().unwrap();
        assert_eq!(ContainerReader::new(&bytes).unwrap().len(), 1);
        assert!(ContainerWriter::new(Vec::new(), SzxConfig::absolute(-1.0)).is_err());
    }

    #[test]
    fn mixed_element_types() {
        // Each frame is a self-describing SZx stream; the container does
        // not force one element type.
        let mut w = ContainerWriter::new(Vec::new(), SzxConfig::absolute(1e-6)).unwrap();
        w.push("singles", &frame(0, 300)).unwrap();
        let doubles: Vec<f64> = (0..200).map(|i| (i as f64 * 0.02).cos()).collect();
        w.push("doubles", &doubles).unwrap();
        let bytes = w.finish().unwrap();
        let r = ContainerReader::new(&bytes).unwrap();
        assert_eq!(crate::inspect(r.frame_bytes(0).unwrap()).unwrap().dtype, 0);
        assert_eq!(crate::inspect(r.frame_bytes(1).unwrap()).unwrap().dtype, 1);
        assert!(r.field::<f32>("singles").is_ok());
        assert!(r.field::<f64>("doubles").is_ok());
        assert!(r.field::<f32>("doubles").is_err(), "type mismatch surfaces");
    }

    #[test]
    fn mixed_precision_frames() {
        // Frames of either precision sit side by side and decode by index.
        let doubles: Vec<f64> = (0..200).map(|i| (i as f64 * 0.02).cos()).collect();
        let mut w = ContainerWriter::new(Vec::new(), SzxConfig::absolute(1e-6)).unwrap();
        w.push("0", &doubles).unwrap();
        w.push("1", &frame(1, 300)).unwrap();
        w.push("2", &doubles).unwrap();
        let bytes = w.finish().unwrap();
        let r = ContainerReader::new(&bytes).unwrap();
        for k in [0, 2] {
            let back: Vec<f64> = r.frame(k).unwrap();
            assert!(doubles
                .iter()
                .zip(&back)
                .all(|(a, b)| (a - b).abs() <= 1e-6));
            assert!(r.frame::<f32>(k).is_err(), "type mismatch surfaces");
        }
        assert_eq!(r.frame::<f32>(1).unwrap().len(), 300);
        assert!(r.frame::<f64>(1).is_err(), "type mismatch surfaces");
    }

    #[test]
    fn corrupt_containers_error_not_panic() {
        assert!(ContainerReader::new(b"nope").is_err());
        let bytes = container(SzxConfig::absolute(1e-3), &[frame(0, 100)]);
        for cut in [0, 3, 5, 20, bytes.len() - 17, bytes.len() - 3] {
            assert!(ContainerReader::new(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for at in [0, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] = b'!';
            assert!(ContainerReader::new(&bad).is_err(), "bad magic at {at}");
        }
        let mut bad = bytes.clone();
        bad[4] = VERSION + 1;
        let err = ContainerReader::new(&bad).err().unwrap();
        assert!(err.to_string().contains("version"), "{err}");
        // A forged frame count behind a valid index CRC.
        assert!(ContainerReader::new(&forge(&[], &u32::MAX.to_le_bytes())).is_err());
        // The empty container is valid.
        let empty = container(SzxConfig::absolute(1e-3), &[]);
        assert_eq!(empty.len(), HEAD_LEN + 4 + FOOTER_LEN);
        assert!(ContainerReader::new(&empty).unwrap().is_empty());
    }

    #[test]
    fn damaged_frames_error() {
        let bytes = container(SzxConfig::absolute(1e-3), &[frame(0, 100), frame(1, 100)]);
        let mut bad = bytes.clone();
        bad.insert(5, 0);
        assert!(
            ContainerReader::new(&bad).is_err(),
            "frames must tile the data"
        );
        // A flipped payload byte passes the index but fails the frame CRC,
        // and only for the frame it lands in.
        let mut bad = bytes.clone();
        bad[HEAD_LEN + 10] ^= 0x40;
        let r = ContainerReader::new(&bad).unwrap();
        let err = r.frame::<f32>(0).err().unwrap();
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(r.frame::<f32>(1).unwrap().len(), 100);
    }

    /// Wrap `index` (count included) in a header, `data` and a footer with
    /// a valid index CRC, so only the index contents are hostile.
    fn forge(data: &[u8], index: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(VERSION);
        out.extend_from_slice(data);
        out.extend_from_slice(index);
        out.extend_from_slice(&crc32c(index).to_le_bytes());
        out.extend_from_slice(&(index.len() as u64).to_le_bytes());
        out.extend_from_slice(&MAGIC);
        out
    }

    #[test]
    fn hostile_frame_length_is_rejected_not_overflowed() {
        // A frame length near u64::MAX must not wrap the prefix sum.
        let mut index = 1u32.to_le_bytes().to_vec();
        index.extend_from_slice(&0u16.to_le_bytes());
        index.extend_from_slice(&u64::MAX.to_le_bytes());
        index.extend_from_slice(&0u32.to_le_bytes());
        let err = ContainerReader::new(&forge(&[0; 16], &index))
            .err()
            .unwrap();
        assert!(
            err.to_string().contains("runs past the data region"),
            "{err}"
        );
        // An index length reaching back past the header.
        let mut bad = forge(&[], &0u32.to_le_bytes());
        let at = bad.len() - 12;
        bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = ContainerReader::new(&bad).err().unwrap();
        assert!(err.to_string().contains("past the start"), "{err}");
    }

    /// Container bytes that record the largest read (and lend none).
    struct Counting<'a> {
        bytes: &'a [u8],
        largest: std::sync::atomic::AtomicUsize,
    }

    impl ReadAt for Counting<'_> {
        fn size(&self) -> u64 {
            self.bytes.len() as u64
        }

        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
            self.largest
                .fetch_max(buf.len(), std::sync::atomic::Ordering::Relaxed);
            self.bytes.read_exact_at(buf, offset)
        }
    }

    fn counting(bytes: &[u8]) -> Counting<'_> {
        Counting {
            bytes,
            largest: 0.into(),
        }
    }

    /// A one-entry index: name "0", stream length and CRC.
    fn one_entry(len: u64, crc: u32) -> Vec<u8> {
        let mut index = 1u32.to_le_bytes().to_vec();
        index.extend_from_slice(&1u16.to_le_bytes());
        index.push(b'0');
        index.extend_from_slice(&len.to_le_bytes());
        index.extend_from_slice(&crc.to_le_bytes());
        index
    }

    #[test]
    fn forged_lengths_error_before_anything_is_read_for_them() {
        // A frame length near u64::MAX behind a valid index CRC.
        let forged = forge(&[0; 64], &one_entry(u64::MAX - 7, 0));
        let source = counting(&forged);
        let err = ContainerReader::open(&source).err().unwrap();
        assert!(
            err.to_string().contains("runs past the data region"),
            "{err}"
        );
        assert!(source.largest.into_inner() < forged.len());

        // zsizes that sum past the frame, resealed so only they are wrong:
        // the index errors, and no read reaches past the frame (the rest
        // of the frame is read only to rule out a checksum mismatch).
        let data = frame(0, 4096);
        let mut stream = crate::compress(&data, &SzxConfig::absolute(1e-4)).unwrap();
        let h = crate::inspect(&stream).unwrap();
        let layout = crate::stream::SectionLayout::for_header(&h).unwrap();
        assert!(h.n_nonconstant > 0);
        stream[layout.zsize_off..layout.zsize_off + 2].copy_from_slice(&[0xff, 0xff]);
        let forged = forge(&stream, &one_entry(stream.len() as u64, crc32c(&stream)));
        let source = counting(&forged);
        let r = ContainerReader::open(&source).unwrap();
        let err = r.stream_index(0).err().unwrap();
        assert!(err.to_string().contains("zsize array requires"), "{err}");
        let err = r.frame::<f32>(0).err().unwrap();
        assert!(err.to_string().contains("zsize array requires"), "{err}");
        assert!(source.largest.into_inner() <= stream.len());
    }

    #[test]
    fn frame_stats_track_sizes_and_latency() {
        let mut w = ContainerWriter::new(Vec::new(), SzxConfig::absolute(1e-3)).unwrap();
        assert_eq!(w.stats().frames, 0);
        assert_eq!(w.stats().ratio(), 0.0);
        for k in 0..3 {
            w.push(&k.to_string(), &frame(k, 1000)).unwrap();
        }
        let s = *w.stats();
        let bytes = w.finish().unwrap();
        assert_eq!(s.frames, 3);
        assert_eq!(s.raw_bytes, 3 * 1000 * 4);
        // Container = header + streams + index (3 one-byte names) + footer.
        let framing = HEAD_LEN + 4 + 3 * (2 + 1 + 8 + 4) + FOOTER_LEN;
        assert_eq!(s.compressed_bytes as usize, bytes.len() - framing);
        assert!(s.ratio() > 1.0, "sine frames compress: {}", s.ratio());
        assert!(s.compress_ns > 0);
        assert!(s.min_frame_ns <= s.max_frame_ns);
        assert!(s.mean_frame_ns() * 3.0 <= s.compress_ns as f64 + 1.0);
    }

    #[test]
    fn kernel_and_scalar_frames_agree_bitwise() {
        // The reader's decode of each frame matches the scalar reference
        // and the parallel kernel path on the same checked bytes.
        let frames: Vec<Vec<f32>> = (0..4).map(|k| frame(k, 700 + 31 * k)).collect();
        let bytes = container(SzxConfig::absolute(1e-4), &frames);
        let r = ContainerReader::new(&bytes).unwrap();
        for k in 0..4 {
            let ours: Vec<f32> = r.frame(k).unwrap();
            for (sel, parallel) in [
                (crate::KernelPath::Scalar, false),
                (crate::KernelPath::Kernel, true),
            ] {
                let theirs: Vec<f32> = Decoder::new(sel, parallel)
                    .decode(r.frame_bytes(k).unwrap())
                    .unwrap();
                assert_eq!(ours.len(), theirs.len());
                for (i, (x, y)) in ours.iter().zip(&theirs).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "frame {k} elem {i} {sel:?}");
                }
            }
        }
    }

    /// A sink that accepts `budget` bytes, then fails one write.
    struct FlakySink {
        data: Vec<u8>,
        budget: usize,
    }

    impl Write for FlakySink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                self.budget = usize::MAX;
                return Err(std::io::Error::other("transient"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_error_mid_frame_poisons_the_writer() {
        let sink = FlakySink {
            data: Vec::new(),
            budget: HEAD_LEN + 40,
        };
        let mut w = ContainerWriter::new(sink, SzxConfig::absolute(1e-3)).unwrap();
        let err = w.push("0", &frame(0, 2000)).err().unwrap();
        assert!(matches!(err, SzxError::Io(_)), "{err}");
        // The sink now holds a partial frame: later pushes and the finish
        // must fail rather than produce a container no reader accepts.
        let err = w.push("1", &frame(1, 2000)).err().unwrap();
        assert!(matches!(err, SzxError::Io(_)), "{err}");
        assert!(w.finish().is_err());
    }
}
