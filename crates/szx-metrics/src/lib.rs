//! # szx-metrics
//!
//! Z-checker-style quality assessment for lossy compression of scientific
//! data, providing every metric the SZx paper reports:
//!
//! * [`psnr`] — max error, MSE, PSNR (Formula 7), NRMSE;
//! * [`ssim`] — windowed 2-D structural similarity (Figure 12);
//! * [`pdf`] — compression-error probability densities (Figure 13);
//! * [`cdf`] — block relative-value-range CDFs (Figure 2);
//! * [`crstats`] — min / harmonic-mean / max compression ratios (Table 3);
//! * [`render`] — PGM/PPM heatmaps of 2-D slices (Figures 1 and 12).

pub mod cdf;
pub mod crstats;
pub mod pdf;
pub mod psnr;
pub mod render;
pub mod ssim;

pub use cdf::{block_range_cdf, block_relative_ranges, empirical_cdf};
pub use crstats::{aggregate, overall_from_sizes, CrStats};
pub use pdf::{error_pdf, ErrorPdf};
pub use psnr::{distortion, distortion_f64, Distortion, DistortionStats};
pub use render::{to_pgm, to_ppm};
pub use ssim::ssim_2d;
