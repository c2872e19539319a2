//! The persistent worker pool every parallel operation runs on.
//!
//! The pool holds `current_num_threads() - 1` OS threads, started by the
//! first parallel operation and parked on one job channel for the life of
//! the process. An operation sends one job per helper it wants and runs
//! the same work on the calling thread, so the caller is the pool's last
//! worker. The work itself (claiming items, collecting results) lives in
//! the crate root; this module only runs a borrowed closure on several
//! threads at once and waits for every copy that started. A job no worker
//! has started by the time the caller's copy returns is dropped unrun: the
//! caller has claimed every item by then, so an operation never waits for
//! a parked worker to wake only to find nothing left.
//!
//! This is the crate's one `unsafe` surface: a job carries the caller's
//! closure to a thread that outlives it, which needs one lifetime erasure.

#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// What each participant of an operation runs.
type Work<'a> = dyn Fn() + Sync + 'a;

/// Lock `m`, ignoring poison: no lock in this crate is held while user
/// code runs, so a poisoned lock still guards consistent data.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pool size, fixed on first use: `RAYON_NUM_THREADS` if it is a
/// positive integer, else the available cores.
pub(crate) fn size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

struct Pool {
    jobs: Sender<Job>,
    /// Workers actually started (fewer than asked only if the OS refused
    /// a thread).
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set on pool threads: an operation started there runs inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = 0;
        // The threads live as long as the process and are never joined: a
        // panic in a job is caught in `worker_loop` and re-raised in the
        // job's caller.
        for i in 0..size().saturating_sub(1) {
            let rx = Arc::clone(&rx);
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || worker_loop(&rx));
            // A refused thread only means fewer helpers: the caller claims
            // whatever no worker does.
            workers += usize::from(spawned.is_ok());
        }
        Pool { jobs: tx, workers }
    })
}

/// Number of pool workers started so far (0 until the first parallel
/// operation, and always 0 when the pool size is 1).
pub fn started_workers() -> usize {
    POOL.get().map_or(0, |p| p.workers)
}

/// The shared record of one operation: how many of its jobs have yet to
/// report, and the first panic one of them raised.
#[derive(Default)]
struct Op {
    state: Mutex<OpState>,
    reported: Condvar,
}

#[derive(Default)]
struct OpState {
    /// Jobs a worker started that have not reported yet.
    pending: usize,
    /// Set when the caller's own copy has returned: a job a worker takes
    /// after that is dropped unrun.
    closed: bool,
    panic: Option<Box<dyn Any + Send>>,
}

/// The caller's closure with its lifetime erased (see [`run`]).
struct WorkPtr(*const Work<'static>);

// SAFETY: the pointee is `Sync`, so calling it from another thread is
// sound; `run` keeps it alive for as long as any job holding it runs.
unsafe impl Send for WorkPtr {}

struct Job {
    work: WorkPtr,
    op: Arc<Op>,
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    IN_WORKER.set(true);
    loop {
        // The sender lives in a static and is never dropped, so the
        // channel stays open for the life of the process.
        let Ok(job) = lock(rx).recv() else { return };
        {
            let mut state = lock(&job.op.state);
            if state.closed {
                continue;
            }
            state.pending += 1;
        }
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: this job registered as started while its operation
            // was open, and `run` does not return or unwind until every
            // started job has reported below, so the closure behind the
            // pointer is alive for the whole call.
            unsafe { (*job.work.0)() }
        }));
        let mut state = lock(&job.op.state);
        state.pending -= 1;
        if let Err(payload) = result {
            state.panic.get_or_insert(payload);
        }
        drop(state);
        job.op.reported.notify_one();
    }
}

/// Run `work` on the calling thread and on up to `helpers` pool workers
/// at once, returning when every copy that started has returned; `work`
/// must not need the helpers, which start only if a worker takes their job
/// before the caller's copy returns. A panic in any copy is re-raised
/// here, after all of them have reported. On a pool thread the call runs
/// `work` once, inline, so nesting cannot deadlock.
pub(crate) fn run(helpers: usize, work: &Work<'_>) {
    if helpers == 0 || IN_WORKER.get() {
        work();
        return;
    }
    let pool = pool();
    let helpers = helpers.min(pool.workers);
    if helpers == 0 {
        work();
        return;
    }
    let op = Arc::new(Op::default());
    // SAFETY: erases the borrow's lifetime so the jobs can carry `work` to
    // the pool threads. A worker calls through the pointer only after
    // registering its job as started under `op`'s lock while `closed` is
    // unset, and reports after its last use. This function sets `closed`
    // under that lock and then waits until every started job has
    // reported, and does not return or unwind before: the caller's own
    // panic is caught and re-raised only after the wait below. A job taken
    // after `closed` is dropped without a call. So no call through the
    // pointer outlives the borrow.
    let ptr = unsafe { std::mem::transmute::<*const Work<'_>, *const Work<'static>>(work) };
    for _ in 0..helpers {
        let job = Job {
            work: WorkPtr(ptr),
            op: Arc::clone(&op),
        };
        // A job that never reaches a worker never starts.
        let _ = pool.jobs.send(job);
    }
    let mine = panic::catch_unwind(AssertUnwindSafe(work));
    let mut state = lock(&op.state);
    state.closed = true;
    while state.pending > 0 {
        state = op
            .reported
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
    let theirs = state.panic.take();
    drop(state);
    if let Some(payload) = mine.err().or(theirs) {
        panic::resume_unwind(payload);
    }
}
