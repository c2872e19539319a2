//! `RAYON_NUM_THREADS=1`: every operation runs inline on the caller and
//! the pool never starts a thread. Its own test binary, so the pool size
//! is set before anything in the process reads it.

use rayon::prelude::*;

#[test]
fn one_thread_runs_inline_and_starts_no_worker() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    assert_eq!(rayon::current_num_threads(), 1);
    let me = std::thread::current().id();
    let items: Vec<u32> = (0..500).collect();
    let out: Vec<u32> = items
        .par_iter()
        .map(|&v| {
            assert_eq!(std::thread::current().id(), me, "item ran off the caller");
            v * 2
        })
        .collect();
    assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
    let mut data = vec![0u8; 1000];
    let chunks: Vec<&mut [u8]> = data.chunks_mut(7).collect();
    let filled: Result<Vec<()>, ()> = chunks
        .into_par_iter()
        .enumerate()
        .map_init(
            || assert_eq!(std::thread::current().id(), me, "state made off the caller"),
            |_, (i, c)| {
                c.fill(i as u8);
                Ok(())
            },
        )
        .collect();
    assert!(filled.is_ok());
    assert!(data
        .chunks(7)
        .enumerate()
        .all(|(i, c)| c.iter().all(|&v| v == i as u8)));
    assert_eq!(rayon::started_workers(), 0);
}
