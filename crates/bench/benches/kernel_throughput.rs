//! Tentpole acceptance bench: the branch-free kernel path
//! (`KernelPath::Kernel`) vs. the scalar reference path
//! (`KernelPath::Scalar`) — plus, on capable hosts, the explicit SIMD
//! path (`KernelPath::Simd`) — on 64 MB f32 inputs drawn from the
//! CESM-ATM and Nyx generators. All paths produce byte-identical archives
//! (asserted at setup), so any delta is pure hot-loop throughput.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szx_core::config::KernelPath;
use szx_core::SzxConfig;
use szx_data::{Application, Scale};

/// 64 MB of f32 (16 Mi elements), stitched from the application's fields.
const TARGET_ELEMS: usize = 16 * 1024 * 1024;

fn dataset_64mb(app: Application) -> Vec<f32> {
    let ds = app.generate_limited(Scale::Large, 7, 16);
    let mut data = Vec::with_capacity(TARGET_ELEMS);
    'outer: loop {
        for f in &ds.fields {
            let room = TARGET_ELEMS - data.len();
            if room == 0 {
                break 'outer;
            }
            data.extend_from_slice(&f.data[..f.data.len().min(room)]);
        }
    }
    data
}

fn bench_kernels(c: &mut Criterion) {
    for (name, app) in [("cesm", Application::CesmAtm), ("nyx", Application::Nyx)] {
        let data = dataset_64mb(app);
        let bytes = (data.len() * 4) as u64;

        // The acceptance criterion only counts if both paths agree.
        let cfg = SzxConfig::relative(1e-3);
        let scalar = szx_core::compress(&data, &cfg.with_kernel(KernelPath::Scalar)).unwrap();
        let kernel = szx_core::compress(&data, &cfg.with_kernel(KernelPath::Kernel)).unwrap();
        assert_eq!(scalar, kernel, "{name}: paths must be byte-identical");
        let mut arms = vec![
            ("scalar", KernelPath::Scalar),
            ("kernel", KernelPath::Kernel),
        ];
        if szx_core::simd::available() {
            let simd = szx_core::compress(&data, &cfg.with_kernel(KernelPath::Simd)).unwrap();
            assert_eq!(scalar, simd, "{name}: simd path must be byte-identical");
            arms.push(("simd", KernelPath::Simd));
        }
        drop((scalar, kernel));

        let mut g = c.benchmark_group("kernel-throughput-compress");
        g.throughput(Throughput::Bytes(bytes));
        g.sample_size(10);
        for &(kname, sel) in &arms {
            let cfg = cfg.with_kernel(sel);
            g.bench_function(BenchmarkId::new(kname, name), |b| {
                b.iter(|| szx_core::compress(&data, &cfg).unwrap());
            });
        }
        g.finish();

        // Where the time goes: the two kernels in isolation.
        let mut g = c.benchmark_group("kernel-primitives");
        g.throughput(Throughput::Bytes(bytes));
        g.sample_size(10);
        g.bench_function(BenchmarkId::new("minmax-scalar", name), |b| {
            b.iter(|| {
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for &d in &data {
                    if d < lo {
                        lo = d;
                    }
                    if d > hi {
                        hi = d;
                    }
                }
                (lo, hi)
            });
        });
        g.bench_function(BenchmarkId::new("minmax-kernel", name), |b| {
            b.iter(|| szx_core::kernels::minmax(&data));
        });
        if szx_core::simd::available() {
            g.bench_function(BenchmarkId::new("minmax-simd", name), |b| {
                b.iter(|| szx_core::simd::minmax(&data));
            });
        }
        g.finish();
    }
}

/// The relative bound's range pass alone, apart from file I/O: the SIMD
/// min/max and a `RangeScan` over one CLI window (512 KiB, cache-resident)
/// and over 64 MB (memory-bound), f32 and f64.
fn bench_range_scan(c: &mut Criterion) {
    let f32s = dataset_64mb(Application::CesmAtm);
    let f64s: Vec<f64> = f32s[..f32s.len() / 2].iter().map(|&v| v.into()).collect();
    let mut g = c.benchmark_group("range-scan");
    g.sample_size(10);
    range_scan_arms(&mut g, "f32", &f32s);
    range_scan_arms(&mut g, "f64", &f64s);
    g.finish();
}

fn range_scan_arms<F: szx_core::SzxFloat>(
    g: &mut criterion::BenchmarkGroup<'_>,
    dtype: &str,
    data: &[F],
) {
    let cfg = SzxConfig::relative(1e-3);
    for (size, bytes) in [("512KiB", 512 << 10), ("64MB", data.len() * F::BYTES)] {
        let slice = &data[..bytes / F::BYTES];
        let id = format!("{dtype}-{size}");
        g.throughput(Throughput::Bytes(bytes as u64));
        g.bench_function(BenchmarkId::new("simd-minmax", &id), |b| {
            b.iter(|| szx_core::simd::minmax(black_box(slice)));
        });
        g.bench_function(BenchmarkId::new("range-scan-push", &id), |b| {
            b.iter(|| {
                let mut scan = szx_core::RangeScan::new(&cfg);
                scan.push(black_box(slice)).unwrap();
                scan.range()
            });
        });
    }
}

criterion_group!(benches, bench_kernels, bench_range_scan);
criterion_main!(benches);
