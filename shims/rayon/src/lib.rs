//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this minimal drop-in that implements exactly the data-parallel subset the
//! codebase uses — `par_chunks`, `par_chunks_mut`, `par_iter`,
//! `into_par_iter`, `map`, `map_init`, `enumerate`, `collect`, `reduce`,
//! `for_each`, `try_for_each`, `try_for_each_init`, and
//! `current_num_threads` — on a persistent pool of OS threads (the `pool`
//! module).
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

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

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
/// item order in the result.
fn par_apply<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    par_apply_init(items, || (), |_, item| f(item))
}

/// [`par_apply`] with per-thread state: each thread taking part calls
/// `init` once, before its first item, and hands the state to `f` for
/// every item it claims.
fn par_apply_init<T: Send, R: Send, S>(
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

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        par_apply(self.collect_items(), f);
    }

    fn try_for_each<F, E>(self, f: F) -> Result<(), E>
    where
        F: Fn(Self::Item) -> Result<(), E> + Sync + Send,
        E: Send,
    {
        par_apply(self.collect_items(), f).into_iter().collect()
    }

    /// [`Self::try_for_each`] with per-thread state: every thread taking
    /// part calls `init` once and passes the state to `f` for each item
    /// it claims (rayon calls `init` per split; here a split is a thread).
    fn try_for_each_init<INIT, S, F, E>(self, init: INIT, f: F) -> Result<(), E>
    where
        INIT: Fn() -> S + Sync + Send,
        F: Fn(&mut S, Self::Item) -> Result<(), E> + Sync + Send,
        E: Send,
    {
        par_apply_init(self.collect_items(), init, f)
            .into_iter()
            .collect()
    }

    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        self.collect_items().into_iter().fold(identity(), &op)
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send,
    {
        self.collect_items().into_iter().sum()
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
        par_apply(self.base.collect_items(), self.f)
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
        par_apply_init(self.base.collect_items(), self.init, self.f)
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

/// Source: `&slice.par_chunks(n)`.
pub struct Chunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];

    fn collect_items(self) -> Vec<&'a [T]> {
        self.slice.chunks(self.size).collect()
    }
}

/// Source: `&mut slice.par_chunks_mut(n)`.
pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn collect_items(self) -> Vec<&'a mut [T]> {
        self.slice.chunks_mut(self.size).collect()
    }
}

/// Source: `collection.par_iter()`.
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

pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, size: usize) -> Chunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> Chunks<'_, T> {
        // PANIC-OK: programmer contract on chunk size (mirrors rayon and
        // std::slice::chunks_mut) — callers pass compile-time group sizes.
        assert!(size > 0, "chunk size must be non-zero");
        Chunks { slice: self, size }
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T> {
        // PANIC-OK: programmer contract on chunk size (mirrors rayon and
        // std::slice::chunks_mut) — callers pass compile-time group sizes.
        assert!(size > 0, "chunk size must be non-zero");
        ChunksMut { slice: self, size }
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

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = Iter<'a, T>;
    fn par_iter(&'a self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
        ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_map_collect_preserves_order() {
        let data: Vec<u32> = (0..1000).collect();
        let sums: Vec<u32> = data.par_chunks(7).map(|c| c.iter().sum::<u32>()).collect();
        let expect: Vec<u32> = data.chunks(7).map(|c| c.iter().sum::<u32>()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn par_chunks_mut_enumerate_try_for_each() {
        let mut data = vec![0u32; 100];
        data.par_chunks_mut(9)
            .enumerate()
            .try_for_each(|(i, c)| -> Result<(), ()> {
                for v in c.iter_mut() {
                    *v = i as u32;
                }
                Ok(())
            })
            .unwrap();
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
    fn reduce_and_collect_result() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (lo, hi) = data.par_chunks(13).map(|c| (c[0], c[c.len() - 1])).reduce(
            || (f64::INFINITY, f64::NEG_INFINITY),
            |a, b| (a.0.min(b.0), a.1.max(b.1)),
        );
        assert_eq!((lo, hi), (0.0, 99.0));

        let ok: Result<Vec<u32>, String> = data.par_iter().map(|&v| Ok(v as u32)).collect();
        assert_eq!(ok.unwrap().len(), 100);
        let err: Result<Vec<u32>, String> = data
            .par_iter()
            .map(|&v| {
                if v > 50.0 {
                    Err("boom".to_string())
                } else {
                    Ok(v as u32)
                }
            })
            .collect();
        assert!(err.is_err());
    }
}
