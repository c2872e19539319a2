//! In-memory state cache: the quantum-circuit-simulation use case from the
//! paper's introduction. A long-running computation keeps many state
//! vectors; holding them compressed in memory trades a bounded error for a
//! large capacity win — but only if (de)compression is fast enough not to
//! dominate the iteration time. SZx is built for exactly this.
//!
//! The example simulates an iterative solver that checkpoints state
//! snapshots into a compressed in-memory cache and periodically restores
//! one, tracking the time and memory budget.
//!
//! ```sh
//! cargo run --release -p szx-examples --bin in_memory_state_cache
//! ```

use std::time::Instant;

use szx_core::{compress, Decoder, SzxConfig};

/// A minimal compressed-snapshot store.
struct StateCache {
    cfg: SzxConfig,
    /// Reused across restores: its kernel arenas survive between calls.
    decoder: Decoder,
    slots: Vec<Vec<u8>>,
    raw_bytes_per_state: usize,
}

impl StateCache {
    fn new(cfg: SzxConfig, state_len: usize) -> Self {
        StateCache {
            cfg,
            decoder: Decoder::default(),
            slots: Vec::new(),
            raw_bytes_per_state: state_len * 4,
        }
    }

    fn store(&mut self, state: &[f32]) -> usize {
        let bytes = compress(state, &self.cfg).expect("compress state");
        self.slots.push(bytes);
        self.slots.len() - 1
    }

    fn restore(&mut self, slot: usize, out: &mut [f32]) {
        self.decoder
            .decode_into(&self.slots[slot], out)
            .expect("decompress state");
    }

    fn compressed_bytes(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    fn raw_bytes(&self) -> usize {
        self.slots.len() * self.raw_bytes_per_state
    }
}

/// One "solver" step: a smooth evolution with slowly growing modes, like
/// amplitudes in a state-vector simulation.
fn evolve(state: &mut [f32], step: usize) {
    let phase = step as f32 * 0.1;
    for (i, v) in state.iter_mut().enumerate() {
        let x = i as f32 * 1e-5 + phase;
        *v = 0.9 * *v + 0.1 * (x.sin() * (x * 0.37).cos());
    }
}

fn main() {
    const STATE_LEN: usize = 1 << 21; // 8 MB per snapshot
    const SNAPSHOTS: usize = 12;

    let mut state = vec![0f32; STATE_LEN];
    for (i, v) in state.iter_mut().enumerate() {
        *v = ((i as f32) * 1e-5).sin();
    }

    let mut cache = StateCache::new(SzxConfig::relative(1e-4), STATE_LEN);
    let mut scratch = vec![0f32; STATE_LEN];

    let mut compress_time = 0.0;
    let mut restore_time = 0.0;
    for step in 0..SNAPSHOTS {
        evolve(&mut state, step);
        let t = Instant::now();
        let slot = cache.store(&state);
        compress_time += t.elapsed().as_secs_f64();

        // Every few steps, restore an earlier snapshot (e.g. for a
        // re-computation against a previous state).
        if step % 3 == 2 {
            let t = Instant::now();
            cache.restore(slot / 2, &mut scratch);
            restore_time += t.elapsed().as_secs_f64();
            assert!(scratch.iter().all(|v| v.is_finite()));
        }
    }

    let raw = cache.raw_bytes();
    let compressed = cache.compressed_bytes();
    println!(
        "snapshots:        {SNAPSHOTS} x {} MB",
        STATE_LEN * 4 / (1 << 20)
    );
    println!("raw footprint:    {:.1} MB", raw as f64 / 1e6);
    println!("cached footprint: {:.1} MB", compressed as f64 / 1e6);
    println!("memory saved:     {:.1}x", raw as f64 / compressed as f64);
    println!(
        "compress speed:   {:.0} MB/s",
        raw as f64 / compress_time / 1e6
    );
    if restore_time > 0.0 {
        println!(
            "restore speed:    {:.0} MB/s",
            (SNAPSHOTS / 3 * STATE_LEN * 4) as f64 / restore_time / 1e6
        );
    }
}
