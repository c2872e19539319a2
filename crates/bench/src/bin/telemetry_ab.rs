//! Interleaved A/B check of telemetry overhead on a 64 MB field: the
//! acceptance bar is <2% for telemetry enabled (which includes the span
//! stack's folded self times). Interleaving the arms within each round
//! cancels the host-load drift that makes sequential benches lie.
//!
//! Two readings: min-of-N (the enabled arm's fastest round against the
//! disabled arm's fastest), and the paired per-round overhead (each
//! enabled run against the disabled run of the same round) as median and
//! quartiles. The paired figure is the one to quote: min-of-N compares
//! runs from different moments, so on a noisy host it swings by tens of
//! percent for an unchanged tree.
//!
//! Usage: `telemetry_ab [ROUNDS]` (default 8).
use szx_core::SzxConfig;

fn field() -> Vec<f32> {
    let n = 16 * 1024 * 1024; // 64 MB of f32
    (0..n)
        .map(|i| {
            let x = i as f32 * 1.9e-4;
            // Slow envelope gates a fast carrier: long constant-block
            // plateaus plus busy non-constant stretches.
            let envelope = (x * 0.11).sin().max(0.0);
            envelope * (x * 37.0).sin() * 12.5
        })
        .collect()
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8)
        .max(1);
    let data = field();
    let cfg = SzxConfig::relative(1e-3);
    for _ in 0..2 {
        szx_core::compress(&data, &cfg).unwrap();
    }
    const ARMS: [&str; 2] = ["disabled", "enabled"];
    let mut best = [f64::INFINITY; 2];
    // Per-round overhead (%) of the enabled run against that round's
    // disabled run.
    let mut paired = Vec::new();
    for round in 0..rounds {
        let mut round_ms = [0.0; 2];
        for (k, arm) in ARMS.into_iter().enumerate() {
            szx_telemetry::set_enabled(k == 1);
            let t = std::time::Instant::now();
            let b = szx_core::compress(&data, &cfg).unwrap();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            best[k] = best[k].min(ms);
            round_ms[k] = ms;
            println!("round {round} {arm:<9} {ms:8.2} ms  ({} bytes)", b.len());
        }
        paired.push((round_ms[1] - round_ms[0]) / round_ms[0] * 100.0);
    }
    szx_telemetry::set_enabled(false);
    let overhead = (best[1] - best[0]) / best[0] * 100.0;
    println!(
        "min enabled: {:.2} ms vs disabled {:.2} ms, overhead {overhead:+.2}%",
        best[1], best[0]
    );
    paired.sort_by(f64::total_cmp);
    println!(
        "paired enabled: median {:+.2}%, quartiles {:+.2}% .. {:+.2}% over {rounds} rounds",
        quantile(&paired, 0.5),
        quantile(&paired, 0.25),
        quantile(&paired, 0.75)
    );
}

/// Linearly interpolated `q`-quantile of a non-empty ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}
