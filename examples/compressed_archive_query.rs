//! Compressed-archive query: bundle a simulation snapshot's fields into one
//! SZx container, then answer point/region queries straight from the
//! compressed bytes using random-access decompression — only the blocks a
//! query touches are ever decoded. This is the post-hoc analysis workflow
//! the paper's instrument/PFS use cases feed into.
//!
//! ```sh
//! cargo run --release -p szx-examples --bin compressed_archive_query
//! ```

use szx_core::{ContainerReader, ContainerWriter, Decoder, StreamIndex, SzxConfig};
use szx_data::{Application, Scale};

fn main() {
    // Build the container: all Miranda fields at REL 1e-4.
    let ds = Application::Miranda.generate(Scale::Small, 7);
    let mut writer = ContainerWriter::new(Vec::new(), SzxConfig::relative(1e-4)).expect("config");
    for f in &ds.fields {
        writer.push(&f.name, &f.data).expect("add field");
    }
    let archive = writer.finish().expect("finish container");
    let raw: usize = ds.fields.iter().map(|f| f.raw_bytes()).sum();
    println!(
        "archived {} fields: {:.2} MB -> {:.2} MB (CR {:.2})",
        ds.fields.len(),
        raw as f64 / 1e6,
        archive.len() as f64 / 1e6,
        raw as f64 / archive.len() as f64
    );

    // Query 1: a single probe value from `pressure` without decompressing
    // the field.
    let reader = ContainerReader::new(&archive).expect("parse container");
    let stream = |name| reader.frame_bytes(reader.position(name)?);
    let mut decoder = Decoder::default();
    let pressure = stream("pressure").expect("pressure");
    let index = StreamIndex::parse::<f32>(pressure).expect("index");
    let probe_idx = index.header().n / 3;
    let probe: Vec<f32> = decoder
        .decode_range(&index, pressure, probe_idx..probe_idx + 1)
        .expect("probe");
    let probe = probe[0];
    let truth = ds.field("pressure").unwrap().data[probe_idx];
    println!("probe pressure[{probe_idx}] = {probe:.5} (original {truth:.5})");

    // Query 2: a contiguous x-line out of `velocity-x`.
    let vx = ds.field("velocity-x").unwrap();
    let nx = vx.dims[0];
    let line_start = 17 * nx; // y=17, z=0
    let velocity = stream("velocity-x").unwrap();
    let index = StreamIndex::parse::<f32>(velocity).unwrap();
    let line: Vec<f32> = decoder
        .decode_range(&index, velocity, line_start..line_start + nx)
        .expect("line");
    let blocks_touched = nx.div_ceil(128) + 1;
    println!(
        "extracted one x-line ({} values) touching <= {blocks_touched} of {} blocks",
        line.len(),
        index.num_blocks()
    );
    let max_err = line
        .iter()
        .zip(&vx.data[line_start..line_start + nx])
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("line max |error| = {max_err:.2e}");

    // Query 3: headers only — which field compressed best?
    let mut best = (String::new(), 0.0f64);
    for name in reader.names() {
        let bytes = stream(name).unwrap();
        let cr = (szx_core::inspect(bytes).unwrap().n * 4) as f64 / bytes.len() as f64;
        if cr > best.1 {
            best = (name.to_string(), cr);
        }
    }
    println!("best-compressing field: {} (CR {:.2})", best.0, best.1);
}
