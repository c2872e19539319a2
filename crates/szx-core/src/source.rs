//! Byte sources read by position. A container file is read through
//! [`ReadAt`] a piece at a time: its footer and index, each frame's header
//! and sections, then each window's payload into the buffer of the thread
//! decoding it. Bytes already in memory (`[u8]`) take the same path and
//! lend their pieces instead of copying them.

use crate::error::{Result, SzxError};

/// A byte source that any thread reads at any offset.
pub trait ReadAt: Sync {
    /// Bytes in the source.
    fn size(&self) -> u64;

    /// Fill `buf` with the bytes from `offset` on. A source that ends
    /// first is an error.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<()>;

    /// Bytes `offset..offset + len` in place, where the source holds them
    /// in memory; `None` has them read with [`Self::read_exact_at`].
    fn borrow_at(&self, offset: u64, len: usize) -> Option<&[u8]> {
        let _ = (offset, len);
        None
    }
}

impl ReadAt for [u8] {
    fn size(&self) -> u64 {
        self.len() as u64
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        let bytes = self.borrow_at(offset, buf.len()).ok_or_else(|| {
            SzxError::CorruptStream(format!(
                "read of {} bytes at {offset} past the end ({} bytes)",
                buf.len(),
                self.len()
            ))
        })?;
        buf.copy_from_slice(bytes);
        Ok(())
    }

    fn borrow_at(&self, offset: u64, len: usize) -> Option<&[u8]> {
        let start = usize::try_from(offset).ok()?;
        self.get(start..start.checked_add(len)?)
    }
}

/// `len` bytes of `source` from `start` on: one stream, the whole of a
/// slice or one frame of a container. Every read stays inside it.
#[derive(Debug)]
pub(crate) struct Span<'a, R: ?Sized> {
    source: &'a R,
    start: u64,
    len: u64,
}

impl<'a, R: ReadAt + ?Sized> Span<'a, R> {
    /// Bytes `start..start + len` of `source`, which the caller has checked
    /// against the source's size.
    pub(crate) fn new(source: &'a R, start: u64, len: u64) -> Self {
        Span { source, start, len }
    }

    /// All of `source`.
    pub(crate) fn whole(source: &'a R) -> Self {
        Span::new(source, 0, source.size())
    }

    /// Bytes in the span.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// The source offset of span bytes `offset..offset + len`, if they lie
    /// inside the span.
    fn locate(&self, offset: u64, len: usize) -> Option<u64> {
        let end = offset.checked_add(u64::try_from(len).ok()?)?;
        if end > self.len {
            return None;
        }
        self.start.checked_add(offset)
    }

    /// [`Self::locate`], or the error of a read past the span.
    fn at(&self, offset: u64, len: usize) -> Result<u64> {
        self.locate(offset, len).ok_or_else(|| {
            SzxError::CorruptStream(format!(
                "read of {len} bytes at {offset} past the stream ({} bytes)",
                self.len
            ))
        })
    }

    /// Span bytes `offset..offset + len`, where the source lends them.
    pub(crate) fn lend(&self, offset: u64, len: usize) -> Option<&'a [u8]> {
        self.source.borrow_at(self.locate(offset, len)?, len)
    }

    /// Span bytes `offset..offset + len`: lent where the source holds them
    /// in memory, else read into `buf`, which grows only for a read inside
    /// the span.
    pub(crate) fn read<'b>(&self, offset: u64, len: usize, buf: &'b mut Vec<u8>) -> Result<&'b [u8]>
    where
        'a: 'b,
    {
        let at = self.at(offset, len)?;
        if let Some(bytes) = self.source.borrow_at(at, len) {
            return Ok(bytes);
        }
        buf.resize(len, 0);
        self.source.read_exact_at(buf, at)?;
        Ok(buf)
    }

    /// Read span bytes `offset..offset + buf.len()` into `buf`.
    pub(crate) fn fill(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.source.read_exact_at(buf, self.at(offset, buf.len())?)
    }

    /// CRC32C of the span's bytes, read a window at a time: the check of a
    /// frame that cannot be decoded.
    pub(crate) fn crc(&self) -> Result<u32> {
        let mut buf = Vec::new();
        let (mut crc, mut at) = (0, 0);
        while at < self.len {
            let len = usize::try_from(self.len - at)
                .unwrap_or(usize::MAX)
                .min(crate::window::WINDOW_BYTES);
            crc = crate::container::crc32c_update(crc, self.read(at, len, &mut buf)?);
            // ARITH-OK: at + len <= self.len, checked by read().
            at += len as u64;
        }
        Ok(crc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_lend_and_spans_stay_inside() {
        let bytes: Vec<u8> = (0..100).collect();
        let span = Span::new(&bytes[..], 10, 50);
        assert_eq!(span.lend(0, 5), Some(&bytes[10..15]));
        assert_eq!(span.lend(45, 5), Some(&bytes[55..60]));
        assert_eq!(span.lend(46, 5), None, "past the span");
        assert_eq!(span.lend(u64::MAX, 2), None, "offset overflow");
        let mut buf = Vec::new();
        assert_eq!(span.read(40, 10, &mut buf).unwrap(), &bytes[50..60]);
        assert!(span.read(41, 10, &mut buf).is_err());
        assert!(buf.is_empty(), "a slice never copies");
        assert_eq!(
            span.crc().unwrap(),
            crate::container::crc32c(&bytes[10..60])
        );
        let mut out = [0; 4];
        bytes[..].read_exact_at(&mut out, 96).unwrap();
        assert_eq!(out, [96, 97, 98, 99]);
        assert!(bytes[..].read_exact_at(&mut out, 97).is_err());
    }
}
