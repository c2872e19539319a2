//! The persistent pool under stress: skewed item costs, panics, nesting
//! and several callers at once. Every test pins the pool to four threads
//! before its first parallel call, so the pool has workers to schedule on
//! even on a one-core host.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex, Once};
use std::time::Duration;

use rayon::prelude::*;

fn four_threads() {
    static SET: Once = Once::new();
    SET.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
    assert_eq!(rayon::current_num_threads(), 4);
}

#[test]
fn skewed_items_keep_their_order() {
    four_threads();
    let items: Vec<u64> = (0..96).collect();
    let out: Vec<u64> = items
        .par_iter()
        .map(|&i| {
            // Every seventh item costs far more than the rest, and the
            // slow ones cluster at the front.
            if i % 7 == 0 || i < 4 {
                std::thread::sleep(Duration::from_millis(3));
            }
            i * i
        })
        .collect();
    assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
}

#[test]
fn map_init_gives_each_thread_one_state() {
    four_threads();
    let inits = AtomicUsize::new(0);
    let mut data = vec![0u32; 4000];
    let chunks: Vec<&mut [u32]> = data.chunks_mut(10).collect();
    let seen: Result<Vec<usize>, ()> = chunks
        .into_par_iter()
        .enumerate()
        .map_init(
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u32>::new()
            },
            |seen, (i, chunk)| {
                seen.push(i as u32);
                chunk.fill(i as u32);
                Ok(seen.len())
            },
        )
        .collect();
    assert_eq!(seen.map(|s| s.len()), Ok(400));
    for (i, c) in data.chunks(10).enumerate() {
        assert!(c.iter().all(|&v| v == i as u32));
    }
    let inits = inits.load(Ordering::Relaxed);
    assert!((1..=4).contains(&inits), "{inits} states for 4 threads");
}

#[test]
fn panic_reaches_the_caller_after_every_item_stopped() {
    four_threads();
    let running = AtomicUsize::new(0);
    let items: Vec<usize> = (0..64).collect();
    let caught = panic::catch_unwind(|| {
        items
            .par_iter()
            .map(|&i| {
                running.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                running.fetch_sub(1, Ordering::SeqCst);
                assert_ne!(i, 37, "item 37 fails");
                i
            })
            .collect::<Vec<_>>()
    });
    let payload = caught.expect_err("the panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(msg.contains("item 37 fails"), "payload: {msg:?}");
    assert_eq!(
        running.load(Ordering::SeqCst),
        0,
        "a closure outlived the call"
    );

    // The pool survives: the next operation runs normally.
    let out: Vec<usize> = items.par_iter().map(|&i| i).collect();
    assert_eq!(out, items);
}

#[test]
fn nested_operations_complete() {
    four_threads();
    let outer: Vec<usize> = (0..16).collect();
    let inner: Vec<usize> = (0..50).collect();
    let sums: Vec<usize> = outer
        .par_iter()
        .map(|&i| {
            let products: Vec<usize> = inner.par_iter().map(|&j| i * j).collect();
            products.into_iter().sum::<usize>()
        })
        .collect();
    let expect: Vec<usize> = outer.iter().map(|&i| i * (49 * 50 / 2)).collect();
    assert_eq!(sums, expect);
}

#[test]
fn concurrent_callers_get_their_own_results() {
    four_threads();
    std::thread::scope(|s| {
        for caller in 0..4u64 {
            s.spawn(move || {
                for round in 0..50u64 {
                    let items: Vec<u64> = (0..200).map(|i| i + caller * 1000 + round).collect();
                    let out: Vec<u64> = items.par_iter().map(|&v| v * 3).collect();
                    assert_eq!(out, items.iter().map(|v| v * 3).collect::<Vec<_>>());
                }
            });
        }
    });
}

#[test]
fn pool_size_is_fixed_at_first_use() {
    four_threads();
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let n = rayon::current_num_threads();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert_eq!(n, 4, "a later env change must not resize the pool");
    let items: Vec<u32> = (0..100).collect();
    let out: Vec<u32> = items.par_iter().map(|&v| v + 1).collect();
    assert_eq!(out.len(), 100);
    assert!(rayon::started_workers() <= 3);
}

#[test]
fn an_operation_does_not_wait_for_a_busy_pool() {
    four_threads();
    let started = Barrier::new(5);
    let gate = Mutex::new(());
    let held = gate.lock().unwrap();
    std::thread::scope(|s| {
        // Four items that hold the three workers and their caller until
        // the gate opens.
        s.spawn(|| {
            let items: Vec<u32> = (0..4).collect();
            let _: Vec<()> = items
                .par_iter()
                .map(|_| {
                    started.wait();
                    drop(gate.lock().unwrap());
                })
                .collect();
        });
        started.wait();
        // Every worker is busy, so this caller claims all of its items
        // itself and must return without waiting for a worker.
        let (tx, rx) = mpsc::channel();
        s.spawn(move || {
            let items: Vec<u64> = (0..100).collect();
            let out: Vec<u64> = items.par_iter().map(|&v| v).collect();
            tx.send(out.into_iter().sum::<u64>()).unwrap();
        });
        let sum = rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        assert_eq!(sum, Ok(4950), "the operation waited for the busy pool");
    });
}
