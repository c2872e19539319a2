//! # szx-io-sim
//!
//! Reproduction substrate for the paper's Figure-16 experiment: data
//! dumping/loading on a parallel file system at 64–1024 MPI ranks.
//! (De)compression runs for real with the real codecs; the Lustre-class
//! PFS is replaced by a bandwidth/latency contention model ([`pfs`]),
//! per the substitution policy in DESIGN.md §4.

pub mod experiment;
pub mod pfs;

pub use experiment::{dump, load, Breakdown, IoCodec};
pub use pfs::PfsConfig;
