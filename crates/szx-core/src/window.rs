//! The window, the one unit of parallel work: [`WINDOW_BYTES`] of raw
//! values, a whole multiple of 8 blocks so its state bits start on a byte
//! boundary (only a stream's last window may be shorter). Serially the
//! caller takes the windows in order; in parallel the pool's threads claim
//! whole windows one at a time, the paper's OpenMP layout (§6.1).

use std::ops::Range;

use rayon::prelude::*;

use crate::error::Result;
use crate::float::SzxFloat;

/// Raw bytes of one window. A window of values and its raw byte twin fit
/// in a 2 MiB per-core L2 together (DESIGN.md §15).
pub const WINDOW_BYTES: usize = 512 << 10;

/// Values of `F` per window at `block_size`: [`WINDOW_BYTES`] rounded down
/// to a whole multiple of 8 blocks, at least 8 blocks.
pub fn window_len<F: SzxFloat>(block_size: usize) -> usize {
    window_values(F::BYTES, block_size)
}

/// [`window_len`] of values `value_bytes` wide.
pub(crate) fn window_values(value_bytes: usize, block_size: usize) -> usize {
    let unit = 8 * block_size;
    (WINDOW_BYTES / value_bytes / unit).max(1) * unit
}

/// Where an [`Encoder`](crate::Encoder) or a [`RangeScan`](crate::RangeScan)
/// gets its values, a window at a time, on several threads at once when
/// parallel. A slice lends its windows; a file source reads each one into
/// the buffer of the thread asking.
pub trait WindowSource<F>: Sync {
    /// A thread's buffer for the windows it gets.
    type Buf;

    /// A buffer for one more thread of a pass.
    fn buf(&self) -> Self::Buf;

    /// Number of values.
    fn n(&self) -> usize;

    /// Values `at..at + len`, a range inside the source.
    fn window<'a>(&'a self, at: usize, len: usize, buf: &'a mut Self::Buf) -> Result<&'a [F]>;
}

impl<F: SzxFloat> WindowSource<F> for [F] {
    type Buf = ();

    fn buf(&self) {}

    fn n(&self) -> usize {
        self.len()
    }

    fn window<'a>(&'a self, at: usize, len: usize, _: &'a mut ()) -> Result<&'a [F]> {
        // PANIC-OK: callers ask only for windows inside the slice.
        Ok(&self[at..at + len])
    }
}

/// The value ranges of the windows of `win` values over `n` values.
pub(crate) fn windows(n: usize, win: usize) -> Vec<Range<usize>> {
    (0..n).step_by(win).map(|at| at..n.min(at + win)).collect()
}

/// Run `f(state, k, item)` for each window `k` and its `item`: in order on
/// the calling thread, or with `parallel` on the pool's threads, each
/// claiming the next window as it comes free and keeping one `state` from
/// `init` for all the windows it claims. Returns the results in window
/// order; the error is the first failing window's.
pub(crate) fn for_each_window<I: Send, S, R: Send>(
    items: Vec<I>,
    parallel: bool,
    init: impl Fn() -> S + Sync + Send,
    f: impl Fn(&mut S, usize, I) -> Result<R> + Sync + Send,
) -> Result<Vec<R>> {
    let f = |state: &mut S, (k, item): (usize, I)| f(state, k, item);
    if parallel {
        items
            .into_par_iter()
            .enumerate()
            .map_init(init, f)
            .collect()
    } else {
        let mut state = init();
        items
            .into_iter()
            .enumerate()
            .map(|w| f(&mut state, w))
            .collect()
    }
}
