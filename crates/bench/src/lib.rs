//! Shared harness for the experiment binaries (one per paper table/figure;
//! see DESIGN.md §6 for the experiment index).

pub mod observatory;

use std::time::Instant;

use szx_data::{Application, Scale};

/// Experiment scale, overridable with `SZX_SCALE=tiny|small|medium|large|full`
/// (unset or empty: `small` = the paper's grids divided by 8 per axis).
///
/// # Panics
///
/// When `SZX_SCALE` names no scale: a misspelt value must not quietly run
/// the default grids.
pub fn scale_from_env() -> Scale {
    let name = std::env::var("SZX_SCALE")
        .unwrap_or_default()
        .to_lowercase();
    if name.is_empty() {
        return Scale::Small;
    }
    Scale::parse(&name).unwrap_or_else(|| panic!("unknown SZX_SCALE value {name:?}"))
}

/// Deterministic per-application seed so every binary sees the same data.
pub fn seed_for(app: Application) -> u64 {
    0x5a5a_0000 + app.short_name().bytes().map(|b| b as u64).sum::<u64>()
}

/// Wall-time one closure invocation.
pub fn timeit<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// Median wall time over `runs` invocations (one extra warmup run first).
pub fn median_time<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    assert!(runs > 0);
    let mut times = Vec::with_capacity(runs);
    let _ = f(); // warmup
    for _ in 0..runs {
        times.push(timeit(&mut f).0);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// MB/s (decimal) for `bytes` processed in `secs`.
pub fn mbs(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e6
}

/// GB/s (decimal).
pub fn gbs(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// Ensure the results directory exists and return the path of `name` in it.
pub fn results_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    dir.join(name)
}

/// The REL error bounds used across the paper's tables.
pub const REL_BOUNDS: [f64; 3] = [1e-2, 1e-3, 1e-4];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers() {
        let (t, v) = timeit(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
        let m = median_time(3, || std::hint::black_box(1 + 1));
        assert!(m >= 0.0);
        assert_eq!(mbs(2_000_000, 2.0), 1.0);
        assert_eq!(gbs(3_000_000_000, 1.0), 3.0);
    }

    #[test]
    fn seeds_are_distinct_per_app() {
        let mut seen = std::collections::HashSet::new();
        for app in Application::ALL {
            assert!(seen.insert(seed_for(app)), "{}", app.short_name());
        }
    }

    #[test]
    fn default_scale_is_small() {
        if std::env::var("SZX_SCALE").is_err() {
            assert_eq!(scale_from_env(), Scale::Small);
        }
    }
}
