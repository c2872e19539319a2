//! Online instrument-data compression: the LCLS-II use case from the
//! paper's introduction — a detector produces frames at a fixed rate and
//! each frame must be compressed before the next one arrives, or data is
//! dropped. The example streams frames through a
//! [`szx_core::ContainerWriter`] — each frame's stream goes to the sink as
//! soon as it is compressed — and reads the sustained throughput and
//! per-frame latency straight off its built-in [`szx_core::FrameStats`] —
//! no ad-hoc stopwatch code.
//!
//! ```sh
//! cargo run --release -p szx-examples --bin instrument_stream
//! ```

use szx_core::{ContainerReader, ContainerWriter, SzxConfig};
use szx_data::grf;

/// Synthesize a detector frame: a diffraction-like pattern (smooth rings +
/// shot noise), different per frame.
fn make_frame(width: usize, height: usize, frame_no: u64) -> Vec<f32> {
    let dims = [width, height, 1];
    let mut frame = vec![0f32; width * height];
    let (cx, cy) = (width as f32 * 0.5, height as f32 * 0.5);
    let phase = frame_no as f32 * 0.21;
    for y in 0..height {
        for x in 0..width {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            let r = (dx * dx + dy * dy).sqrt();
            frame[y * width + x] = ((r * 0.08 + phase).sin() * (-r * 0.004).exp()).max(0.0) * 1e3;
        }
    }
    let noise = grf::fractal_field(dims, &[(2, 12.0)], 0x1c15 + frame_no);
    for (f, n) in frame.iter_mut().zip(&noise) {
        *f += n.abs();
    }
    frame
}

fn main() {
    const W: usize = 1024;
    const H: usize = 1024;
    const FRAMES: u64 = 40;
    // Target: a 4 MP float detector at 1 kHz = 4 GB/s per node.
    const TARGET_GBPS: f64 = 4.0;
    const FRAME_BUDGET_NS: f64 = 1e6; // 1 kHz → 1 ms per frame

    // Synthesize up front so the stats measure compression, not generation.
    let frames: Vec<Vec<f32>> = (0..FRAMES).map(|i| make_frame(W, H, i)).collect();

    // A detector pipeline would hand in a file or socket, not a Vec.
    let mut writer = ContainerWriter::new(Vec::new(), SzxConfig::relative(1e-3)).expect("config");
    for (k, frame) in frames.iter().enumerate() {
        writer.push(&k.to_string(), frame).expect("compress frame");
    }

    // Everything below comes from the writer's own per-frame accounting.
    let s = *writer.stats();
    let gbps = s.throughput_gbps();
    println!(
        "frames:            {} x {W}x{H} f32 ({:.1} MB each)",
        s.frames,
        (W * H * 4) as f64 / 1e6
    );
    println!("compress time:     {:.2} s", s.compress_ns as f64 / 1e9);
    println!("compress rate:     {gbps:.2} GB/s (target {TARGET_GBPS} GB/s)");
    println!("compression ratio: {:.2}x", s.ratio());
    println!(
        "frame latency:     min {:.2} ms  mean {:.2} ms  max {:.2} ms",
        s.min_frame_ns as f64 / 1e6,
        s.mean_frame_ns() / 1e6,
        s.max_frame_ns as f64 / 1e6
    );
    println!(
        "frame budget used: {:.0}% (worst frame)",
        100.0 * s.max_frame_ns as f64 / FRAME_BUDGET_NS
    );
    if gbps >= TARGET_GBPS {
        println!("=> keeps up with the instrument ✓");
    } else {
        println!("=> needs {:.1} more nodes at this rate", TARGET_GBPS / gbps);
    }

    // The container is self-describing: prove any frame reads back.
    let bytes = writer.finish().expect("finish container");
    let reader = ContainerReader::new(&bytes).expect("parse container");
    let mid: Vec<f32> = reader.frame(FRAMES as usize / 2).expect("decode frame");
    assert_eq!(mid.len(), W * H);
    println!(
        "container:         {} frames, {:.1} MB total",
        reader.len(),
        bytes.len() as f64 / 1e6
    );
}
