//! Cost of the observability layer: compression throughput with telemetry
//! disabled (the default — every instrument site is behind one relaxed
//! atomic load) versus enabled (counters derived from the assembled chunks
//! once per pass at the assemble join point, and each span's self time
//! folded into its thread's stack map on drop), and with the flight
//! recorder on top (per-thread lock-free event buffers). The acceptance
//! bar is <2% overhead for every enabled arm on a ≥64 MB field; with everything
//! merely *compiled in* but off (the shipped default), the cost is the
//! same one relaxed load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szx_core::SzxConfig;

/// 16 Mi f32 = 64 MB, a synthetic field with the usual mix of smooth
/// (constant-block) stretches and oscillatory (non-constant) ones.
fn field() -> Vec<f32> {
    let n = 16 * 1024 * 1024;
    (0..n)
        .map(|i| {
            let x = i as f32 * 1.9e-4;
            // Slowly-varying envelope gates a fast carrier: long plateaus
            // where the envelope is tiny, busy blocks where it is not.
            let envelope = (x * 0.11).sin().max(0.0);
            envelope * (x * 37.0).sin() * 12.5
        })
        .collect()
}

fn bench_overhead(c: &mut Criterion) {
    let data = field();
    let bytes = data.len() * 4;
    let cfg = SzxConfig::relative(1e-3);

    let mut g = c.benchmark_group("telemetry-overhead");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(10);
    for (label, telemetry, trace) in [
        ("disabled", false, false),
        ("enabled", true, false),
        ("enabled-plus-trace", true, true),
    ] {
        g.bench_function(BenchmarkId::new("compress-64MB", label), |b| {
            szx_telemetry::set_enabled(telemetry);
            szx_telemetry::set_trace_enabled(trace);
            b.iter(|| szx_core::compress(&data, &cfg).unwrap());
        });
    }
    // The full `--metrics` path: instrumented compression plus a registry
    // snapshot rendered to Prometheus text every iteration. Real runs
    // export once at exit, so this is a generous upper bound on what the
    // exposition layer can ever add.
    g.bench_function(
        BenchmarkId::new("compress-64MB", "enabled-plus-export"),
        |b| {
            szx_telemetry::set_enabled(true);
            szx_telemetry::set_trace_enabled(false);
            b.iter(|| {
                let stream = szx_core::compress(&data, &cfg).unwrap();
                let text = szx_telemetry::render_prometheus(&szx_telemetry::global().snapshot());
                (stream, text)
            });
        },
    );
    szx_telemetry::set_enabled(false);
    szx_telemetry::set_trace_enabled(false);
    let _ = szx_telemetry::take_trace(); // free the recorded events
    g.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
