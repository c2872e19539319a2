//! # szx-core
//!
//! A pure-Rust implementation of **SZx**, the ultrafast error-bounded lossy
//! compressor for scientific floating-point datasets introduced in
//!
//! > Yu, Di, Zhao, Tian, Tao, Liang, Cappello.
//! > *Ultrafast Error-Bounded Lossy Compression for Scientific Datasets.*
//! > HPDC '22. <https://doi.org/10.1145/3502181.3531473>
//!
//! SZx restricts itself to lightweight operations — comparisons,
//! addition/subtraction, bitwise shifts/XOR, and memcpy — and still bounds
//! every pointwise error by a user-specified `e`:
//!
//! * the dataset is scanned as fixed-size 1-D blocks (default 128 elements);
//! * blocks whose variation radius fits inside `e` are **constant** blocks,
//!   stored as a single value `μ = (min+max)/2`;
//! * other blocks are normalized by `μ` and truncated to the *required
//!   significant bits* derived from the block radius and `e` (Formula 4),
//!   right-shifted so those bits form whole bytes (Formula 5), and
//!   deduplicated against the previous value via an XOR leading-byte code.
//!
//! ## Quick start
//!
//! ```
//! use szx_core::{compress, decompress, SzxConfig};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
//! let cfg = SzxConfig::relative(1e-3); // value-range-based bound, block 128
//! let bytes = compress(&data, &cfg).unwrap();
//! let restored: Vec<f32> = decompress(&bytes).unwrap();
//!
//! let eb = 1e-3 * 2.0; // range of sin is 2.0
//! assert!(data.iter().zip(&restored).all(|(a, b)| (a - b).abs() as f64 <= eb));
//! assert!(bytes.len() < data.len() * 4 / 2, "compresses at least 2x");
//! ```
//!
//! ## Multicore
//!
//! Serial and multicore runs are the same codec with one switch:
//! [`SzxConfig::parallel`] on compression and the `parallel` argument of
//! [`Decoder::new`] on decompression. The pool's threads claim whole
//! [`window`]s, the paper's OpenMP layout (§6.1): each codes one run of
//! blocks with its own buffers, and a decoding thread finds its window's
//! first payload in the [`StreamIndex`], which keeps the `zsize_array`
//! prefix sum once per window. Streams and decodes are byte-identical
//! either way.
//!
//! ```
//! use szx_core::{compress, Decoder, KernelPath, SzxConfig};
//!
//! let data: Vec<f32> = (0..100_000).map(|i| (i as f32 * 1e-3).cos()).collect();
//! let cfg = SzxConfig::relative(1e-3);
//! let bytes = compress(&data, &cfg.with_parallel(true)).unwrap();
//! assert_eq!(bytes, compress(&data, &cfg).unwrap());
//!
//! // Parallel decode into a caller-held buffer.
//! let mut decoder = Decoder::new(KernelPath::detect(), true);
//! let mut out = vec![0f32; data.len()];
//! decoder.decode_into(&bytes, &mut out).unwrap();
//! ```
//!
//! ## Windows
//!
//! An [`Encoder`] takes the data in consecutive pushes (each a multiple
//! of 8 blocks but the last, read window by window from a [`WindowSource`])
//! and writes the stream [`compress`] writes for the whole slice; a
//! relative bound is resolved first by a [`RangeScan`] over the same
//! pushes. [`Decoder::decode_windows`] hands each decoded window to a sink.
//!
//! ```
//! use szx_core::{compress, Encoder, RangeScan, SzxConfig};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
//! let cfg = SzxConfig::relative(1e-3);
//! let mut scan = RangeScan::new(&cfg);
//! data.chunks(1024).for_each(|w| scan.push(w).unwrap());
//! let mut encoder = Encoder::new(&cfg, scan.bound()).unwrap();
//! for window in data.chunks(1024) {
//!     encoder.push(window).unwrap();
//! }
//! assert_eq!(encoder.finish(Vec::new()).unwrap(), compress(&data, &cfg).unwrap());
//! ```
//!
//! ## Random access
//!
//! The prefix-summed `zsize_array` that lets threads decode windows in
//! parallel also finds any one block: a [`StreamIndex`] parses a stream's
//! header and sections once, and [`Decoder::decode_range`] reads from the
//! stream's [`ReadAt`] source (a file, or bytes in memory) and decodes only
//! the payloads of the blocks a range of values touches. A
//! [`ContainerReader`] reads a container file the same way: footer and
//! index, each frame's header and sections, then each window's payload as
//! it decodes.
//!
//! ```
//! use szx_core::{compress, decompress, Decoder, StreamIndex, SzxConfig};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
//! let bytes = compress(&data, &SzxConfig::absolute(1e-3)).unwrap();
//! let index = StreamIndex::parse::<f32>(&bytes).unwrap();
//! let mut decoder = Decoder::default();
//! let part: Vec<f32> = decoder.decode_range(&index, &bytes[..], 4000..4100).unwrap();
//! let full: Vec<f32> = decompress(&bytes).unwrap();
//! assert_eq!(part, full[4000..4100]);
//! let one: Vec<f32> = decoder.decode_range(&index, &bytes[..], 9_999..10_000).unwrap();
//! assert_eq!(one, [full[9_999]]);
//! assert!(decoder.decode_range::<f32>(&index, &bytes[..], 9_999..10_001).is_err());
//! ```
//!
//! ## Guarantees
//!
//! * `max |d_i − d'_i| ≤ e` for every finite input — enforced by
//!   construction and by property tests;
//! * blocks containing NaN or ±∞ (and blocks whose dynamic range defeats
//!   normalization) degrade to bit-exact storage rather than corrupting data;
//! * `e = 0` yields a lossless (bit-exact) stream;
//! * decompression of corrupt or truncated streams returns an error, never
//!   panics or reads out of bounds.

pub mod analysis;
pub mod bitio;
pub mod block;
pub mod config;
pub mod container;
pub(crate) mod contracts;
pub(crate) mod cursor;
pub mod decode;
pub mod dekernels;
pub mod encode;
pub mod error;
pub mod float;
pub mod kernels;
pub mod simd;
pub mod source;
pub mod stream;
pub mod window;

pub use config::{
    CommitStrategy, ErrorBound, KernelPath, SzxConfig, DEFAULT_BLOCK_SIZE, MAX_BLOCK_SIZE,
};
pub use container::{ContainerReader, ContainerWriter, FrameStats};
pub use decode::{decompress, Decoder, StreamHead, StreamIndex};
pub use encode::{compress, Encoder, RangeScan};
pub use error::{Result, SzxError};
pub use float::SzxFloat;
/// Worker threads a parallel compress or decode uses at most
/// (`RAYON_NUM_THREADS`, else the available cores).
pub use rayon::current_num_threads;
pub use source::ReadAt;
pub use stream::{inspect, Header};
pub use window::{window_len, WindowSource, WINDOW_BYTES};

/// Compression ratio helper: original bytes / compressed bytes.
pub fn compression_ratio<F: SzxFloat>(n_elements: usize, compressed_len: usize) -> f64 {
    (n_elements * F::BYTES) as f64 / compressed_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_ratio_math() {
        assert_eq!(compression_ratio::<f32>(1000, 400), 10.0);
        assert_eq!(compression_ratio::<f64>(1000, 800), 10.0);
    }
}
