//! Shared helpers for the cross-crate integration tests.

use szx_data::{Application, Scale};

/// Tiny-scale dataset for fast integration tests; deterministic per app.
pub fn tiny(app: Application) -> szx_data::Dataset {
    app.generate(Scale::Tiny, 0xC0FFEE)
}

/// Max pointwise |a - b| over two f32 slices (NaN pairs skipped).
pub fn max_err(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| !x.is_nan() && !y.is_nan())
        .map(|(&x, &y)| (x as f64 - y as f64).abs())
        .fold(0.0, f64::max)
}
