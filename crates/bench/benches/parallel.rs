//! Criterion microbenchmarks behind Tables 6–7: multicore SZx (rayon,
//! mirroring omp-SZx) vs the chunk-parallel baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szx_baselines::chunked::{self, Codec};
use szx_core::{Decoder, KernelPath, SzxConfig};
use szx_data::{Application, Scale};

fn field() -> (Vec<f32>, [usize; 3], f64) {
    let ds = Application::Nyx.generate(Scale::Medium, 42);
    let f = ds.field("velocity-x").unwrap();
    let eb = 1e-3 * f.value_range();
    (f.data.clone(), f.dims, eb)
}

fn bench_parallel(c: &mut Criterion) {
    let (data, dims, eb) = field();
    let bytes = data.len() * 4;
    let threads = rayon::current_num_threads();
    let mut g = c.benchmark_group("parallel");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(15);

    let cfg = SzxConfig::absolute(eb).with_parallel(true);
    g.bench_function(BenchmarkId::new("szx-compress", "nyx-vx"), |b| {
        b.iter(|| szx_core::compress(&data, &cfg).unwrap());
    });
    let stream = szx_core::compress(&data, &cfg).unwrap();
    let mut out = vec![0f32; data.len()];
    let mut decoder = Decoder::new(KernelPath::detect(), true);
    g.bench_function(BenchmarkId::new("szx-decompress", "nyx-vx"), |b| {
        b.iter(|| decoder.decode_into(&stream, &mut out).unwrap());
    });
    g.bench_function(BenchmarkId::new("szlike-compress", "nyx-vx"), |b| {
        b.iter(|| chunked::compress_par(&data, dims, eb, Codec::SzLike, threads).unwrap());
    });
    g.bench_function(BenchmarkId::new("zfplike-compress", "nyx-vx"), |b| {
        b.iter(|| chunked::compress_par(&data, dims, eb, Codec::ZfpLike, threads).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
