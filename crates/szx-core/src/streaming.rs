//! Framed streaming compression for unbounded inputs.
//!
//! The paper's instrument use case (LCLS-II, §1) compresses an endless
//! sequence of detector frames; holding the whole sequence in memory is
//! exactly what compression is supposed to avoid. [`FrameWriter`] appends
//! independently-compressed frames to one self-describing container, and
//! [`FrameReader`] iterates or random-accesses them. Frames are
//! independent SZx streams, so any frame can be dropped, decoded, or
//! re-encoded without touching the others.
//!
//! Container layout:
//! ```text
//! magic  b"SZXS"  (4 bytes)
//! frames, each:  [len: u64 LE][SZx stream bytes]
//! ```

use core::cell::RefCell;

use crate::config::SzxConfig;
use crate::decode::Decoder;
use crate::error::{Result, SzxError};
use crate::float::SzxFloat;

const MAGIC: [u8; 4] = *b"SZXS";

/// Per-frame accounting a [`FrameWriter`] keeps as it goes — the numbers an
/// instrument pipeline watches live (frame latency, sustained ratio). Always
/// maintained: one clock read per frame is noise next to compressing the
/// frame, and it spares callers ad-hoc `Instant` bookkeeping.
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

    fn record(&mut self, raw: usize, compressed: usize, ns: u64) {
        self.frames += 1;
        self.raw_bytes += raw as u64;
        self.compressed_bytes += compressed as u64;
        self.compress_ns += ns;
        self.min_frame_ns = if self.frames == 1 {
            ns
        } else {
            self.min_frame_ns.min(ns)
        };
        self.max_frame_ns = self.max_frame_ns.max(ns);
    }
}

/// Appends compressed frames to an in-memory container (wrap your own
/// `Write` sink around [`FrameWriter::as_bytes`] flushes as needed).
pub struct FrameWriter {
    cfg: SzxConfig,
    buf: Vec<u8>,
    stats: FrameStats,
}

impl FrameWriter {
    pub fn new(cfg: SzxConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(FrameWriter {
            cfg,
            buf: MAGIC.to_vec(),
            stats: FrameStats::default(),
        })
    }

    /// Compress and append one frame. Frames may have different lengths.
    pub fn push<F: SzxFloat>(&mut self, frame: &[F]) -> Result<()> {
        let _z = szx_telemetry::trace_zone("stream.frame", self.stats.frames);
        let start = std::time::Instant::now();
        let bytes = crate::compress(frame, &self.cfg)?;
        let ns = start.elapsed().as_nanos() as u64;
        self.buf
            .extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(&bytes);
        self.stats.record(frame.len() * F::BYTES, bytes.len(), ns);
        if szx_telemetry::enabled() {
            let tel = szx_telemetry::global();
            tel.span_stats("stream.frame").record(ns);
            tel.hist_log2("stream.frame_bytes")
                .record(bytes.len() as u64);
            tel.counter("stream.bytes.raw")
                .add((frame.len() * F::BYTES) as u64);
            tel.counter("stream.bytes.compressed")
                .add(bytes.len() as u64);
        }
        if szx_telemetry::event_sink_installed() {
            use szx_telemetry::Value;
            let raw = (frame.len() * F::BYTES) as u64;
            szx_telemetry::emit_event(
                "frame.compressed",
                &[
                    ("frame", Value::U64(self.stats.frames - 1)),
                    ("raw_bytes", Value::U64(raw)),
                    ("compressed_bytes", Value::U64(bytes.len() as u64)),
                    ("ns", Value::U64(ns)),
                    ("ratio", Value::F64(raw as f64 / bytes.len().max(1) as f64)),
                ],
            );
        }
        Ok(())
    }

    /// Frames appended so far.
    pub fn frames(&self) -> usize {
        self.stats.frames as usize
    }

    /// Cumulative per-frame statistics (latency, sizes, ratio).
    pub fn stats(&self) -> &FrameStats {
        &self.stats
    }

    /// The container so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Finish and take the container.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads frames back out of a container.
pub struct FrameReader<'a> {
    /// (start, end) byte range of each frame's SZx stream, validated
    /// against the container length when the index was built.
    index: Vec<(usize, usize)>,
    bytes: &'a [u8],
    /// Decoder reused across frames (serially, its kernel arenas grow once
    /// to the largest block, then stay allocation-free). `RefCell` keeps
    /// `frame` a `&self` method; the borrow is scoped to one frame decode.
    decoder: RefCell<Decoder>,
}

impl<'a> FrameReader<'a> {
    /// Parse the container's frame index (headers only).
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        // PANIC-OK: the `len() < 4` check short-circuits before the index.
        if bytes.len() < 4 || bytes[0..4] != MAGIC {
            return Err(SzxError::CorruptStream(
                "bad streaming container magic".into(),
            ));
        }
        let mut index = Vec::new();
        let mut pos = 4usize;
        while pos < bytes.len() {
            let Some(hdr_end) = pos.checked_add(8).filter(|&e| e <= bytes.len()) else {
                return Err(SzxError::CorruptStream("truncated frame length".into()));
            };
            // PANIC-OK: `hdr_end <= bytes.len()` established by the
            // checked_add/filter above.
            let len64 = u64::from_le_bytes(bytes[pos..hdr_end].try_into().unwrap());
            pos = hdr_end;
            // Compare in u64: a hostile length near u64::MAX would make
            // `pos + len` wrap on 64-bit targets (overflow panic in debug,
            // silent false pass in release).
            if len64 > (bytes.len() - pos) as u64 {
                return Err(SzxError::CorruptStream(format!(
                    "frame at {pos} claims {len64} bytes, container has {}",
                    bytes.len() - pos
                )));
            }
            let start = pos;
            // ARITH-OK: `len64 <= bytes.len() - pos` was just checked, so
            // the sum stays <= bytes.len() and cannot wrap.
            pos += len64 as usize;
            index.push((start, pos));
        }
        Ok(FrameReader {
            index,
            bytes,
            decoder: RefCell::default(),
        })
    }

    /// Decode frames with `decoder` (its path and serial/parallel mode —
    /// identical outputs either way).
    pub fn with_decoder(mut self, decoder: Decoder) -> Self {
        self.decoder = RefCell::new(decoder);
        self
    }

    pub fn num_frames(&self) -> usize {
        self.index.len()
    }

    /// Decompress frame `i`.
    pub fn frame<F: SzxFloat>(&self, i: usize) -> Result<Vec<F>> {
        let &(off, end) = self
            .index
            .get(i)
            .ok_or_else(|| SzxError::InvalidConfig(format!("frame {i} out of range")))?;
        // PANIC-OK: every index range was validated against the container
        // length when `new` built it.
        let stream = &self.bytes[off..end];
        let len = end - off;
        // Clock read only when somebody is listening on the event sink.
        let started = szx_telemetry::event_sink_installed().then(std::time::Instant::now);
        let out = self.decoder.borrow_mut().decode::<F>(stream)?;
        if let Some(start) = started {
            use szx_telemetry::Value;
            szx_telemetry::emit_event(
                "frame.decoded",
                &[
                    ("frame", Value::U64(i as u64)),
                    ("compressed_bytes", Value::U64(len as u64)),
                    ("raw_bytes", Value::U64((out.len() * F::BYTES) as u64)),
                    ("ns", Value::U64(start.elapsed().as_nanos() as u64)),
                ],
            );
        }
        Ok(out)
    }

    /// Raw compressed bytes of frame `i` (e.g. to forward downstream).
    pub fn frame_bytes(&self, i: usize) -> Option<&'a [u8]> {
        self.index
            .get(i)
            // PANIC-OK: index ranges were bounds-checked by `new`.
            .map(|&(off, end)| &self.bytes[off..end])
    }

    /// Iterate all frames, decompressing lazily.
    pub fn iter<F: SzxFloat>(&self) -> impl Iterator<Item = Result<Vec<F>>> + '_ {
        (0..self.num_frames()).map(move |i| self.frame::<F>(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(k: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i + 37 * k) as f32 * 0.01).sin() * (k + 1) as f32)
            .collect()
    }

    #[test]
    fn frames_roundtrip_in_order() {
        let mut w = FrameWriter::new(SzxConfig::absolute(1e-4)).unwrap();
        let originals: Vec<Vec<f32>> = (0..5).map(|k| frame(k, 1000 + 17 * k)).collect();
        for f in &originals {
            w.push(f).unwrap();
        }
        assert_eq!(w.frames(), 5);
        let bytes = w.into_bytes();
        let r = FrameReader::new(&bytes).unwrap();
        assert_eq!(r.num_frames(), 5);
        for (k, orig) in originals.iter().enumerate() {
            let back: Vec<f32> = r.frame(k).unwrap();
            assert_eq!(back.len(), orig.len());
            for (&a, &b) in orig.iter().zip(&back) {
                assert!((a - b).abs() <= 1e-4);
            }
        }
    }

    #[test]
    fn random_access_to_any_frame() {
        let mut w = FrameWriter::new(SzxConfig::absolute(1e-3)).unwrap();
        for k in 0..10 {
            w.push(&frame(k, 500)).unwrap();
        }
        let bytes = w.into_bytes();
        let r = FrameReader::new(&bytes).unwrap();
        // Decode only the seventh frame.
        let f7: Vec<f32> = r.frame(7).unwrap();
        assert_eq!(f7.len(), 500);
        assert!(r.frame_bytes(7).unwrap().len() < 500 * 4);
        assert!(r.frame::<f32>(10).is_err());
    }

    #[test]
    fn iterator_visits_every_frame() {
        let mut w = FrameWriter::new(SzxConfig::absolute(1e-3)).unwrap();
        for k in 0..4 {
            w.push(&frame(k, 256)).unwrap();
        }
        let bytes = w.into_bytes();
        let r = FrameReader::new(&bytes).unwrap();
        let frames: Vec<Vec<f32>> = r.iter().collect::<Result<_>>().unwrap();
        assert_eq!(frames.len(), 4);
    }

    #[test]
    fn corrupt_containers_error() {
        assert!(FrameReader::new(b"nope").is_err());
        let mut w = FrameWriter::new(SzxConfig::absolute(1e-3)).unwrap();
        w.push(&frame(0, 100)).unwrap();
        let bytes = w.into_bytes();
        assert!(
            FrameReader::new(&bytes[..bytes.len() - 3]).is_err(),
            "truncated frame"
        );
        assert!(FrameReader::new(&bytes[..7]).is_err(), "truncated length");
        // Empty container is fine — zero frames.
        assert_eq!(FrameReader::new(&MAGIC).unwrap().num_frames(), 0);
    }

    #[test]
    fn hostile_frame_length_is_rejected_not_overflowed() {
        // Regression (found by corpus replay in a debug build): a frame
        // length near u64::MAX made the old `pos + len` bounds check
        // overflow — panic in debug, silently wrapped-and-passed in
        // release. Must be a clean CorruptStream error.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let err = match FrameReader::new(&bytes) {
            Err(e) => e,
            Ok(_) => panic!("hostile frame length accepted"),
        };
        assert!(err.to_string().contains("claims"), "{err}");
    }

    #[test]
    fn frame_stats_track_sizes_and_latency() {
        let mut w = FrameWriter::new(SzxConfig::absolute(1e-3)).unwrap();
        assert_eq!(w.stats().frames, 0);
        assert_eq!(w.stats().ratio(), 0.0);
        for k in 0..3 {
            w.push(&frame(k, 1000)).unwrap();
        }
        let s = *w.stats();
        assert_eq!(s.frames, 3);
        assert_eq!(s.raw_bytes, 3 * 1000 * 4);
        // Container = magic + 3 × (8-byte length + stream).
        assert_eq!(s.compressed_bytes as usize, w.as_bytes().len() - 4 - 3 * 8);
        assert!(s.ratio() > 1.0, "sine frames compress: {}", s.ratio());
        assert!(s.compress_ns > 0);
        assert!(s.min_frame_ns <= s.max_frame_ns);
        assert!(s.mean_frame_ns() * 3.0 <= s.compress_ns as f64 + 1.0);
    }

    #[test]
    fn kernel_and_scalar_frames_agree_bitwise() {
        let mut w = FrameWriter::new(SzxConfig::absolute(1e-4)).unwrap();
        for k in 0..4 {
            w.push(&frame(k, 700 + 31 * k)).unwrap();
        }
        let bytes = w.into_bytes();
        let scalar = FrameReader::new(&bytes)
            .unwrap()
            .with_decoder(Decoder::new(crate::KernelSelect::Scalar, false));
        let kernel = FrameReader::new(&bytes)
            .unwrap()
            .with_decoder(Decoder::new(crate::KernelSelect::Kernel, true));
        for k in 0..4 {
            let a: Vec<f32> = scalar.frame(k).unwrap();
            let b: Vec<f32> = kernel.frame(k).unwrap();
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "frame {k} elem {i}");
            }
        }
    }

    #[test]
    fn mixed_precision_frames() {
        // The container doesn't force one element type; each frame is a
        // self-describing SZx stream.
        let mut w = FrameWriter::new(SzxConfig::absolute(1e-6)).unwrap();
        w.push(&frame(0, 300)).unwrap();
        let doubles: Vec<f64> = (0..200).map(|i| (i as f64 * 0.02).cos()).collect();
        w.push(&doubles).unwrap();
        let bytes = w.into_bytes();
        let r = FrameReader::new(&bytes).unwrap();
        assert!(r.frame::<f32>(0).is_ok());
        assert!(r.frame::<f64>(1).is_ok());
        assert!(r.frame::<f32>(1).is_err(), "type mismatch surfaces");
    }
}
