//! Pointwise distortion statistics: max error, MSE, PSNR, NRMSE.

/// Summary of the pointwise difference between an original dataset and its
/// lossy reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistortionStats {
    /// Largest absolute pointwise error.
    pub max_abs_error: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Peak signal-to-noise ratio in dB (Formula (7) of the paper):
    /// `20·log10((d_max − d_min)/sqrt(MSE))`. Infinite when MSE is 0.
    pub psnr: f64,
    /// Root-mean-square error normalized by the value range.
    pub nrmse: f64,
    /// Global value range of the *original* data.
    pub value_range: f64,
    /// Number of elements compared.
    pub n: usize,
}

/// Running pointwise distortion of a reconstruction, fed window by window:
/// [`push`](Self::push) each window of the original with its
/// reconstruction, then [`finish`](Self::finish). Windows accumulate in
/// order, so any windowing of the same data gives bit-identical stats.
///
/// NaNs in either input are skipped pairwise (they carry no distortion
/// information); if all pairs are NaN the result is all-zero with
/// `psnr = inf`.
#[derive(Debug, Clone, Copy)]
pub struct Distortion {
    max_err: f64,
    sq_sum: f64,
    min: f64,
    max: f64,
    n: usize,
}

impl Default for Distortion {
    fn default() -> Self {
        Distortion {
            max_err: 0.0,
            sq_sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            n: 0,
        }
    }
}

impl Distortion {
    /// Add one window of `original` against `reconstructed` (equal length;
    /// errors are accumulated in f64).
    pub fn push<T: Copy + Into<f64>>(&mut self, original: &[T], reconstructed: &[T]) {
        assert_eq!(
            original.len(),
            reconstructed.len(),
            "original and reconstruction must have equal length"
        );
        for (&a, &b) in original.iter().zip(reconstructed) {
            let (a, b): (f64, f64) = (a.into(), b.into());
            if a.is_nan() || b.is_nan() {
                continue;
            }
            let e = (a - b).abs();
            if e > self.max_err {
                self.max_err = e;
            }
            self.sq_sum += e * e;
            if a < self.min {
                self.min = a;
            }
            if a > self.max {
                self.max = a;
            }
            self.n += 1;
        }
    }

    /// The statistics of every window pushed so far.
    pub fn finish(&self) -> DistortionStats {
        let n = self.n;
        if n == 0 {
            return DistortionStats {
                max_abs_error: 0.0,
                mse: 0.0,
                psnr: f64::INFINITY,
                nrmse: 0.0,
                value_range: 0.0,
                n: 0,
            };
        }
        let mse = self.sq_sum / n as f64;
        let range = if self.max >= self.min {
            self.max - self.min
        } else {
            0.0
        };
        let psnr = if mse == 0.0 {
            f64::INFINITY
        } else if range == 0.0 {
            // Degenerate constant data: report against the error itself.
            -10.0 * mse.log10()
        } else {
            20.0 * (range / mse.sqrt()).log10()
        };
        let nrmse = if range == 0.0 {
            0.0
        } else {
            mse.sqrt() / range
        };
        DistortionStats {
            max_abs_error: self.max_err,
            mse,
            psnr,
            nrmse,
            value_range: range,
            n,
        }
    }
}

/// Compare `original` against `reconstructed` (must be the same length):
/// one [`Distortion`] window.
pub fn distortion_f64(original: &[f64], reconstructed: &[f64]) -> DistortionStats {
    let mut d = Distortion::default();
    d.push(original, reconstructed);
    d.finish()
}

/// `f32` convenience wrapper (errors are accumulated in f64).
pub fn distortion(original: &[f32], reconstructed: &[f32]) -> DistortionStats {
    let mut d = Distortion::default();
    d.push(original, reconstructed);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_data_has_infinite_psnr() {
        let d = vec![1.0f32, 2.0, 3.0];
        let s = distortion(&d, &d);
        assert_eq!(s.max_abs_error, 0.0);
        assert_eq!(s.mse, 0.0);
        assert!(s.psnr.is_infinite());
        assert_eq!(s.n, 3);
    }

    #[test]
    fn known_psnr() {
        // range 1.0, constant error 0.1 -> mse 0.01 -> psnr = 20*log10(1/0.1) = 20 dB
        let a = vec![0.0f32, 1.0];
        let b = vec![0.1f32, 0.9];
        let s = distortion(&a, &b);
        assert!((s.psnr - 20.0).abs() < 1e-4, "psnr {}", s.psnr);
        assert!((s.max_abs_error - 0.1).abs() < 1e-7);
        assert!((s.nrmse - 0.1).abs() < 1e-7);
    }

    #[test]
    fn nan_pairs_are_skipped() {
        let a = vec![f32::NAN, 1.0, 2.0];
        let b = vec![f32::NAN, 1.0, 2.5];
        let s = distortion(&a, &b);
        assert_eq!(s.n, 2);
        assert!((s.max_abs_error - 0.5).abs() < 1e-7);
    }

    #[test]
    fn all_nan_is_degenerate_not_a_panic() {
        let a = vec![f32::NAN; 4];
        let s = distortion(&a, &a);
        assert_eq!(s.n, 0);
        assert!(s.psnr.is_infinite());
    }

    #[test]
    fn f64_variant_matches_f32_on_f32_data() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32 * 0.1).sin()).collect();
        let b: Vec<f32> = a.iter().map(|x| x + 0.001).collect();
        let a64: Vec<f64> = a.iter().map(|&x| x as f64).collect();
        let b64: Vec<f64> = b.iter().map(|&x| x as f64).collect();
        let s32 = distortion(&a, &b);
        let s64 = distortion_f64(&a64, &b64);
        assert!((s32.psnr - s64.psnr).abs() < 1e-6);
    }

    #[test]
    fn windows_accumulate_bit_identically() {
        let a: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin() * 9.0).collect();
        let mut b: Vec<f32> = a.iter().map(|x| x + (x * 13.0).cos() * 1e-3).collect();
        b[17] = f32::NAN;
        let whole = distortion(&a, &b);
        for window in [1usize, 7, 128, 999, 1000] {
            let mut d = Distortion::default();
            for (x, y) in a.chunks(window).zip(b.chunks(window)) {
                d.push(x, y);
            }
            let s = d.finish();
            assert_eq!(s.n, whole.n);
            for (p, q) in [
                (s.max_abs_error, whole.max_abs_error),
                (s.mse, whole.mse),
                (s.psnr, whole.psnr),
                (s.nrmse, whole.nrmse),
                (s.value_range, whole.value_range),
            ] {
                assert_eq!(p.to_bits(), q.to_bits(), "window {window}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        distortion_f64(&[1.0], &[1.0, 2.0]);
    }
}
