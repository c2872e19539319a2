//! # szx-data
//!
//! Synthetic scientific-dataset generators standing in for the six SDRBench
//! applications the SZx paper evaluates on (Table 2): CESM-ATM, Hurricane
//! ISABEL, Miranda, Nyx, QMCPack, and SCALE-LetKF.
//!
//! The generators are built from seeded noise, separable smoothing, and a
//! small library of structural elements (plateaus, spikes, vortices,
//! log-normal tails). Each application profile is tuned so the statistics
//! that drive error-bounded compressors — block value-range CDFs, sparsity,
//! dynamic range — land in the regime the paper reports for that
//! application. See DESIGN.md §4 for the substitution rationale.
//!
//! ```
//! use szx_data::{Application, Scale};
//!
//! let miranda = Application::Miranda.generate(Scale::Tiny, 42);
//! assert_eq!(miranda.fields.len(), 7);
//! let pressure = miranda.field("pressure").unwrap();
//! assert!(pressure.data.iter().all(|v| v.is_finite()));
//! ```

pub mod apps;
pub mod fields;
pub mod grf;
pub mod io;
pub mod registry;

pub use fields::{Dataset, Field};
pub use registry::{Application, Scale};
