//! # szx-gpu-sim
//!
//! A deterministic SIMT execution model — warps, shuffles, ballots, shared
//! memory, barriers, all charged to an operation counter — hosting the
//! **cuSZx** kernels of the SZx paper's §6.2:
//!
//! * warp-level min/max reductions for block classification;
//! * the two-level in-warp prefix scan that breaks the mid-byte address
//!   dependency (Solution 1);
//! * predecessor re-reads that break the compression value dependency
//!   (Solution 2);
//! * the recursive-doubling **index propagation** of Figure 11 that
//!   resolves leading-byte RAW chains during parallel decompression.
//!
//! The kernels are validated *byte-for-byte* against the CPU codec: the
//! simulated device produces identical compressed streams and identical
//! reconstructions. A physical cost model ([`cost::GpuSpec`]) converts the
//! counted operations into modeled A100/V100 throughput for the Figure
//! 14/15 experiments; see `models` for the cuSZ-like and cuZFP-like
//! comparator models.

pub mod cost;
pub mod cusz_kernels;
pub mod kernels;
pub mod machine;
pub mod models;

pub use cost::{Cost, GpuSpec, A100, V100};
pub use kernels::{compress_gpu, decompress_gpu};
