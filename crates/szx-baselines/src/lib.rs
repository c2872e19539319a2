//! # szx-baselines
//!
//! From-scratch implementations of the codecs the SZx paper (HPDC '22)
//! compares against, reproducing each algorithm's *skeleton* — and hence
//! its operation profile and compression behaviour:
//!
//! * [`szlike`] — SZ-style error-bounded compressor: multidimensional
//!   Lorenzo prediction, linear-scale quantization (one FP division per
//!   point), canonical Huffman coding. Best compression ratios, slowest.
//! * [`zfplike`] — ZFP-style transform codec: 4^d blocks, block floating
//!   point, integer lifting transform, negabinary, embedded group-tested
//!   bitplane coding, fixed-accuracy mode. Middle ground.
//! * [`lzlike`] — zstd-style lossless: LZ77 hash chains + Huffman. The
//!   lossless reference row of Table 3 (CR ≈ 1.1–1.5 on scientific data).
//! * [`chunked`] — OpenMP-style slab parallelization of the above for the
//!   multicore experiments (Tables 6–7).
//! * [`huffman`] — the shared canonical Huffman substrate.

pub mod chunked;
pub mod error;
pub mod huffman;
pub mod lzlike;
pub mod szlike;
pub mod zfplike;

pub use error::BaselineError;
