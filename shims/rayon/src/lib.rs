//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this minimal drop-in that implements exactly the data-parallel subset the
//! codebase uses — `par_iter` on a slice, `into_par_iter` on a `Vec`, `map`,
//! `map_init`, `enumerate`, `collect` (into a `Vec` or a `Result<Vec, E>`),
//! and `current_num_threads` — on a persistent pool of OS threads (the
//! `pool` module).
//!
//! Semantics match rayon where it matters here:
//! * closures run concurrently on up to [`current_num_threads`] threads:
//!   the pool's workers plus the calling thread;
//! * item order is preserved by all collecting adapters;
//! * a panic in any closure is re-raised in the caller once every thread
//!   of that operation has stopped;
//! * an operation started inside a worker closure runs inline on that
//!   worker, so nesting cannot deadlock.
//!
//! It is *not* a work-stealing scheduler: each terminal operation collects
//! its items, and every participating thread claims them one at a time
//! from a shared counter until none are left. A slow item therefore holds
//! up only the thread running it — the dynamic balance of the paper's
//! OpenMP `parallel for` over block groups, at item granularity.

mod pool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use pool::lock;

#[doc(hidden)]
pub use pool::started_workers;

/// Number of threads a parallel operation runs on at most: the pool's
/// workers plus the caller. Read from `RAYON_NUM_THREADS` (else the
/// available cores) once per process and fixed from then on.
pub fn current_num_threads() -> usize {
    pool::size()
}

/// Run `f` over `items` on up to [`current_num_threads`] threads, preserving
/// item order in the result. Each thread taking part calls `init` once,
/// before its first item, and hands the state to `f` for every item it
/// claims.
fn par_apply<T: Send, R: Send, S>(
    items: Vec<T>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    // A single item (a serial codec call) or a one-thread pool runs inline.
    if n <= 1 || current_num_threads() <= 1 {
        let mut state = None;
        return items
            .into_iter()
            .map(|item| f(state.get_or_insert_with(&init), item))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    pool::run(current_num_threads().min(n) - 1, &|| {
        let mut state = None;
        let mut mine = Vec::new();
        loop {
            // ORDERING: the counter only hands out indices; items and
            // results travel through their mutexes and the pool's join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            // Each index is claimed once, so the slot still holds its item.
            let item = lock(slot).take();
            if let Some(item) = item {
                mine.push((i, f(state.get_or_insert_with(&init), item)));
            }
        }
        lock(&done).append(&mut mine);
    });
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The parallel-iterator trait: adapters build lazily, terminal operations
/// evaluate on worker threads.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;

    /// Evaluate the pipeline, returning all items in order (terminal).
    fn collect_items(self) -> Vec<Self::Item>;

    fn map<R: Send, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// [`Self::map`] with per-thread state: every thread taking part calls
    /// `init` once and passes the state to `f` for each item it claims.
    fn map_init<INIT, S, R, F>(self, init: INIT, f: F) -> MapInit<Self, INIT, F>
    where
        INIT: Fn() -> S + Sync + Send,
        F: Fn(&mut S, Self::Item) -> R + Sync + Send,
        R: Send,
    {
        MapInit {
            base: self,
            init,
            f,
        }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_items(self.collect_items())
    }
}

/// Conversion out of a finished parallel pipeline (rayon's `collect` bound).
pub trait FromParallelIterator<T> {
    fn from_par_items(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_par_items(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_par_items(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// `map` adapter. The mapping closure is what actually runs in parallel.
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
    type Item = R;

    fn collect_items(self) -> Vec<R> {
        let f = self.f;
        par_apply(self.base.collect_items(), || (), |_, item| f(item))
    }
}

/// `map_init` adapter.
pub struct MapInit<I, INIT, F> {
    base: I,
    init: INIT,
    f: F,
}

impl<I, INIT, S, R, F> ParallelIterator for MapInit<I, INIT, F>
where
    I: ParallelIterator,
    INIT: Fn() -> S + Sync + Send,
    F: Fn(&mut S, I::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;

    fn collect_items(self) -> Vec<R> {
        par_apply(self.base.collect_items(), self.init, self.f)
    }
}

/// `enumerate` adapter (indices follow source order, as in rayon's indexed
/// iterators).
pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn collect_items(self) -> Vec<(usize, I::Item)> {
        self.base.collect_items().into_iter().enumerate().collect()
    }
}

/// Source: `slice.par_iter()`.
pub struct Iter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for Iter<'a, T> {
    type Item = &'a T;

    fn collect_items(self) -> Vec<&'a T> {
        self.slice.iter().collect()
    }
}

/// Source: `vec.into_par_iter()`.
pub struct IntoIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for IntoIter<T> {
    type Item = T;

    fn collect_items(self) -> Vec<T> {
        self.items
    }
}

pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = IntoIter<T>;
    fn into_par_iter(self) -> IntoIter<T> {
        IntoIter { items: self }
    }
}

pub trait IntoParallelRefIterator<'a> {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = Iter<'a, T>;
    fn par_iter(&'a self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let data: Vec<u32> = (0..1000).collect();
        let out: Vec<u32> = data.par_iter().map(|&v| v * 7 + 1).collect();
        assert_eq!(out, data.iter().map(|&v| v * 7 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_map_init_fills_each_chunk() {
        let mut data = vec![0u32; 100];
        let chunks: Vec<&mut [u32]> = data.chunks_mut(9).collect();
        let out: Result<Vec<()>, ()> = chunks
            .into_par_iter()
            .enumerate()
            .map_init(
                || (),
                |_, (i, c)| {
                    c.fill(i as u32);
                    Ok(())
                },
            )
            .collect();
        assert_eq!(out.map(|v| v.len()), Ok(12));
        for (i, c) in data.chunks(9).enumerate() {
            assert!(c.iter().all(|&v| v == i as u32));
        }
    }

    #[test]
    fn map_init_keeps_order_and_one_state_per_thread() {
        let inits = std::sync::atomic::AtomicUsize::new(0);
        let out: Vec<(usize, usize)> = (0..100usize)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map_init(
                || inits.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                |_, i| (i, i * 2),
            )
            .collect();
        assert_eq!(out, (0..100).map(|i| (i, i * 2)).collect::<Vec<_>>());
        let inits = inits.into_inner();
        assert!(
            (1..=crate::current_num_threads()).contains(&inits),
            "{inits}"
        );
    }

    #[test]
    fn collect_result_propagates_the_error() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ok: Result<Vec<u32>, String> = data.par_iter().map(|&v| Ok(v as u32)).collect();
        assert_eq!(ok.unwrap().len(), 100);
        let err: Result<Vec<u32>, String> = data
            .par_iter()
            .map(|&v| {
                if v > 50.0 {
                    Err(format!("boom at {v}"))
                } else {
                    Ok(v as u32)
                }
            })
            .collect();
        // The first failing item's error, in item order.
        assert_eq!(err, Err("boom at 51".to_string()));
    }
}
