//! Decode-side acceptance bench: the one-pass branch-free decode kernel
//! (`KernelPath::Kernel`) vs. the scalar reference decoder
//! (`KernelPath::Scalar`) — plus, on capable hosts, the SIMD lane-scan
//! decoder (`KernelPath::Simd`) — on 64 MB f32 streams from the CESM-ATM,
//! Nyx and SCALE-LetKF generators. Both kernels carry the lead-byte
//! recurrence `w_i = a_i | (w_{i-1} & keep(l_i))` as a running word: the
//! portable one four values per code byte, the SIMD one as a `(keep, word)`
//! scan across four lanes plus one carried word (DESIGN.md §5.2). SCALE at
//! REL 1e-3 is almost all `nb = 2` non-constant blocks, the lead-clamp path
//! and the heaviest decode load. All paths reconstruct bit-identical outputs
//! (asserted at setup), so any delta is pure decode-loop throughput. Timed
//! calls reuse a preallocated output buffer and a persistent `Decoder`
//! (whose pool arena survives across calls), so no allocation is inside the
//! measured region.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szx_core::config::KernelPath;
use szx_core::{Decoder, SzxConfig};
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

fn bench_decode(c: &mut Criterion) {
    for (name, app) in [
        ("cesm", Application::CesmAtm),
        ("nyx", Application::Nyx),
        ("scale", Application::ScaleLetkf),
    ] {
        let data = dataset_64mb(app);
        let bytes = (data.len() * 4) as u64;
        let stream = szx_core::compress(&data, &SzxConfig::relative(1e-3)).unwrap();

        // The acceptance criterion only counts if both decoders agree on
        // every bit of the reconstruction.
        let scalar: Vec<f32> = Decoder::new(KernelPath::Scalar, false)
            .decode(&stream)
            .unwrap();
        let kernel: Vec<f32> = Decoder::new(KernelPath::Kernel, false)
            .decode(&stream)
            .unwrap();
        for (i, (a, b)) in scalar.iter().zip(&kernel).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name}: decode paths diverge at {i}"
            );
        }
        let mut arms = vec![
            ("scalar", KernelPath::Scalar),
            ("kernel", KernelPath::Kernel),
        ];
        if szx_core::simd::available() {
            let simd: Vec<f32> = Decoder::new(KernelPath::Simd, false)
                .decode(&stream)
                .unwrap();
            for (i, (a, b)) in scalar.iter().zip(&simd).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name}: simd decode diverges at {i}"
                );
            }
            arms.push(("simd", KernelPath::Simd));
        }
        drop((scalar, kernel));

        let mut out = vec![0f32; data.len()];
        let mut g = c.benchmark_group("decode-throughput");
        g.throughput(Throughput::Bytes(bytes));
        g.sample_size(10);
        for &(kname, sel) in &arms {
            for (id, parallel) in [
                (kname.to_string(), false),
                (format!("{kname}-parallel"), true),
            ] {
                let mut decoder = Decoder::new(sel, parallel);
                g.bench_function(BenchmarkId::new(id, name), |b| {
                    b.iter(|| decoder.decode_into(&stream, &mut out).unwrap());
                });
            }
        }
        g.finish();
    }
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
