//! Tables 6 & 7: multicore compression/decompression throughput (GB/s) of
//! omp-SZx (rayon), omp-ZFP-like, and omp-SZ-like. Matches the paper's
//! caveats: omp-SZ skips 2-D data (CESM) and omp-ZFP has no multithreaded
//! decompressor, so those cells print n/a.

use bench::{gbs, median_time, scale_from_env, seed_for, REL_BOUNDS};
use szx_baselines::chunked::{self, Codec};
use szx_core::{Decoder, KernelPath, SzxConfig};
use szx_data::Application;

fn main() {
    let scale = scale_from_env();
    let threads = rayon::current_num_threads();
    let datasets: Vec<_> = Application::ALL
        .iter()
        .map(|app| app.generate(scale, seed_for(*app)))
        .collect();

    for table in ["Table 6: compression", "Table 7: decompression"] {
        let decomp = table.contains("decompression");
        println!("\n{table} throughput on a multicore CPU (GB/s; {threads} threads; {scale:?})");
        print!("{:<6} {:>5} |", "codec", "REL");
        for app in Application::ALL {
            print!(" {:>8}", app.short_name());
        }
        println!();
        for codec in ["SZx", "ZFP", "SZ"] {
            for rel in REL_BOUNDS {
                print!("{codec:<6} {rel:>5.0e} |");
                for (ds, app) in datasets.iter().zip(Application::ALL) {
                    // Paper caveats reproduced faithfully.
                    if codec == "SZ" && app == Application::CesmAtm {
                        print!(" {:>8}", "n/a");
                        continue;
                    }
                    if codec == "ZFP" && decomp {
                        print!(" {:>8}", "n/a");
                        continue;
                    }
                    let mut total_bytes = 0usize;
                    let mut total_time = 0f64;
                    for f in &ds.fields {
                        let eb = (rel * f.value_range()).max(1e-30);
                        total_bytes += f.raw_bytes();
                        let t = match (codec, decomp) {
                            ("SZx", false) => {
                                let cfg = SzxConfig::absolute(eb).with_parallel(true);
                                median_time(3, || szx_core::compress(&f.data, &cfg).expect("szx"))
                            }
                            ("SZx", true) => {
                                let cfg = SzxConfig::absolute(eb).with_parallel(true);
                                let bytes = szx_core::compress(&f.data, &cfg).expect("szx");
                                let mut out = vec![0f32; f.data.len()];
                                let mut decoder = Decoder::new(KernelPath::detect(), true);
                                median_time(3, || {
                                    decoder.decode_into(&bytes, &mut out).expect("szx d")
                                })
                            }
                            ("ZFP", false) => median_time(3, || {
                                chunked::compress_par(&f.data, f.dims, eb, Codec::ZfpLike, threads)
                                    .expect("zfp")
                            }),
                            ("SZ", false) => median_time(3, || {
                                chunked::compress_par(&f.data, f.dims, eb, Codec::SzLike, threads)
                                    .expect("sz")
                            }),
                            _ => {
                                let bytes = chunked::compress_par(
                                    &f.data,
                                    f.dims,
                                    eb,
                                    Codec::SzLike,
                                    threads,
                                )
                                .expect("sz");
                                median_time(3, || chunked::decompress_par(&bytes).expect("sz d"))
                            }
                        };
                        total_time += t;
                    }
                    print!(" {:>8.2}", gbs(total_bytes, total_time));
                }
                println!();
            }
        }
    }
    println!("\n(paper shape: omp-SZx 3.4-6.8x omp-ZFP and 2.4-4.8x omp-SZ in compression,");
    println!(" 2.3-4.6x omp-SZ in decompression)");
}
