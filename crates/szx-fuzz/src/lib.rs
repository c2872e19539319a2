//! # szx-fuzz
//!
//! Deterministic in-tree fuzzing + differential torture harness for the
//! szx-rs workspace. Zero external dependencies: a seeded xorshift
//! mutation engine and a structured case generator drive three targets —
//!
//! * **decode** ([`targets::FuzzTarget::DecodeArbitrary`]): arbitrary
//!   bytes through every decode entry point, asserting error-not-panic and
//!   differential agreement (the `Decoder` kernel × serial/parallel
//!   matrix, random access);
//! * **round** ([`targets::FuzzTarget::RoundtripConfig`]): bytes decoded
//!   into a (config, synthetic field) pair, asserting bitwise encode-path
//!   stream identity, the header error bound, and decode agreement;
//! * **container** ([`targets::FuzzTarget::Container`]): bytes treated as
//!   a container, torturing the header / footer / index parser and
//!   differentially decoding every frame that passes its CRC.
//!
//! The same target functions back three harnesses: the in-tree engine
//! (`cargo run -p szx-fuzz -- …`, fully offline and reproducible from one
//! seed), the committed-corpus regression replay
//! (`tests/tests/fuzz_regressions.rs`), and the optional libFuzzer
//! wrappers under `fuzz/` for instrumented runs where cargo-fuzz is
//! available. See DESIGN.md §12 for the architecture and the corpus
//! lifecycle (find → minimize → commit → replay).

pub mod corpus;
pub mod engine;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod rng;
pub mod targets;

pub use corpus::{fnv1a64, minimize};
pub use engine::{fuzz_target, CampaignStats, Finding, FuzzOptions};
pub use gen::{Spec, SpecType};
pub use oracle::{differential_decode, differential_decode_typed, Failure};
pub use rng::XorShift;
pub use targets::{run_target, run_target_guarded, FuzzTarget};
