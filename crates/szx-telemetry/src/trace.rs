//! Flight recorder: per-thread event tracing with Chrome `trace_event`
//! export.
//!
//! Where the registry's [`crate::Span`]s aggregate (count/total/min/max per
//! name), the recorder keeps a *timeline*: every begin/end/instant event
//! with its thread id and a monotonic nanosecond timestamp, so chunk skew,
//! join-point stalls, and stage overlap in the rayon paths become visible
//! as per-thread lanes in `about:tracing` / Perfetto.
//!
//! ## Design
//!
//! * **Off by default, near-free when off.** Every entry point checks one
//!   relaxed atomic ([`trace_enabled`], seeded from `SZX_TRACE`); a
//!   disabled [`crate::trace_zone`] reads no clock and touches no memory.
//! * **One writer per buffer, no locks on the hot path.** Each thread owns
//!   a bounded event buffer reached through a thread-local; recording is a
//!   plain slot write plus one release store of the published length. The
//!   global side only takes a mutex to *register* a new thread's buffer and
//!   to drain — never per event.
//! * **Bounded, drop-and-count.** A buffer that fills (default 1 Mi events
//!   per thread, `SZX_TRACE_CAPACITY` overrides) drops further events and
//!   counts them; [`TraceCapture::dropped`] reports the loss instead of
//!   silently truncating the timeline.
//! * **Drain at quiescent points.** [`take_trace`] is meant to run after
//!   the instrumented call returns (all rayon workers joined). Draining
//!   while other threads are still recording is memory-safe but may leave
//!   their in-flight events for the next capture.

// The owner-thread slot writes and the drain's reads of published slots
// go through `UnsafeCell`; szx-telemetry denies unsafe code everywhere else.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Event kind, mirroring the Chrome trace phases we emit (`B`/`E`/`i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TracePhase {
    Begin,
    End,
    Instant,
}

/// One recorded event. `ts_ns` is nanoseconds since the process's trace
/// epoch (the first trace activity); `tid` is a small dense id assigned per
/// OS thread in registration order; `arg` is a free u64 the instrumentation
/// site chooses (chunk index, frame number, element count, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: &'static str,
    pub phase: TracePhase,
    pub ts_ns: u64,
    pub tid: u64,
    pub arg: u64,
}

/// Everything one [`take_trace`] call collected.
#[derive(Debug, Clone, Default)]
pub struct TraceCapture {
    /// All events, sorted by timestamp (ties keep per-thread order).
    pub events: Vec<TraceEvent>,
    /// Events lost to full buffers since the previous drain.
    pub dropped: u64,
}

const DEFAULT_CAPACITY: usize = 1 << 20;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("SZX_TRACE_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_CAPACITY)
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Is event recording on? One relaxed load (plus a first-call read of the
/// `SZX_TRACE` environment variable); safe on hot paths.
#[inline]
pub fn trace_enabled() -> bool {
    crate::switches() & crate::TRACE != 0
}

/// Turn event recording on/off at runtime (overrides `SZX_TRACE`). Enabling
/// also pins the trace epoch so the first event starts near t=0.
pub fn set_trace_enabled(on: bool) {
    if on {
        epoch();
    }
    crate::set_switch(crate::TRACE, on);
}

/// A per-thread bounded event log. Only the owning thread appends; the
/// published length is release-stored after the slot write so a draining
/// thread acquire-loading `len` observes fully-written events only.
struct ThreadBuf {
    tid: u64,
    len: AtomicUsize,
    dropped: AtomicU64,
    slots: Box<[UnsafeCell<MaybeUninit<TraceEvent>>]>,
}

// SAFETY: slot `i` is written exactly once by the owning thread before
// `len` is release-stored past `i`; every other thread only reads slots
// strictly below an acquire-loaded `len`. `drain` resets `len` to 0, which
// is only called at quiescent points (documented on `take_trace`) — and a
// racing writer at worst re-publishes an already-drained prefix, never a
// torn event.
unsafe impl Sync for ThreadBuf {}

impl ThreadBuf {
    fn new(tid: u64, cap: usize) -> Self {
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || UnsafeCell::new(MaybeUninit::uninit()));
        ThreadBuf {
            tid,
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Append one event (owning thread only).
    fn push(&self, name: &'static str, phase: TracePhase, arg: u64) {
        // ORDERING: relaxed is sufficient for this load — only the owning
        // thread stores `len` (drain's reset happens at quiescent points),
        // so this read observes the thread's own last store.
        let n = self.len.load(Ordering::Relaxed);
        if n == self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            // Mirror the loss into the registry so `--stats`-only runs
            // (which never render the Chrome trace) still see it.
            crate::global().counter("trace.dropped_events").incr();
            return;
        }
        let ev = TraceEvent {
            name,
            phase,
            ts_ns: now_ns(),
            tid: self.tid,
            arg,
        };
        // SAFETY: slot `n` is unpublished (>= len), so no reader looks at it.
        unsafe { (*self.slots[n].get()).write(ev) };
        self.len.store(n + 1, Ordering::Release);
    }

    /// Copy out the published events and reset the buffer.
    fn drain(&self) -> (Vec<TraceEvent>, u64) {
        let n = self.len.load(Ordering::Acquire);
        let mut out = Vec::with_capacity(n);
        for slot in &self.slots[..n] {
            // SAFETY: slots below the acquire-loaded `len` are fully written.
            out.push(unsafe { (*slot.get()).assume_init() });
        }
        self.len.store(0, Ordering::Release);
        (out, self.dropped.swap(0, Ordering::Relaxed))
    }
}

/// Registered buffers: Arcs shared with the owning threads' thread-locals.
/// Kept alive here past thread exit so scoped rayon workers' events survive
/// until the drain at the join point.
fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static BUFS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: UnsafeCell<Option<Arc<ThreadBuf>>> = const { UnsafeCell::new(None) };
}

/// Record into this thread's buffer, registering one on first use.
#[inline]
pub(crate) fn record(name: &'static str, phase: TracePhase, arg: u64) {
    LOCAL.with(|cell| {
        // SAFETY: the thread-local cell is only touched from this thread,
        // and `with` does not reenter.
        let local = unsafe { &mut *cell.get() };
        let buf = local.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf::new(
                NEXT_TID.fetch_add(1, Ordering::Relaxed),
                capacity(),
            ));
            buffers()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&buf));
            buf
        });
        buf.push(name, phase, arg);
    });
}

/// Record an instant (zero-duration) event.
#[inline]
pub fn trace_instant(name: &'static str, arg: u64) {
    if trace_enabled() {
        record(name, TracePhase::Instant, arg);
    }
}

/// Drain every thread's buffer into one timestamp-sorted capture and reset
/// them. Call after the instrumented work has joined (see module docs);
/// buffers of threads that have since exited are unregistered here.
pub fn take_trace() -> TraceCapture {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut bufs = buffers().lock().unwrap_or_else(|e| e.into_inner());
    bufs.retain(|buf| {
        let (evs, drops) = buf.drain();
        events.extend(evs);
        dropped += drops;
        // strong_count == 1 means the owning thread is gone; its (now
        // drained) buffer can be forgotten.
        Arc::strong_count(buf) > 1
    });
    drop(bufs);
    events.sort_by_key(|e| e.ts_ns);
    TraceCapture { events, dropped }
}

/// Render a capture as Chrome `trace_event` JSON (the "JSON Object Format"),
/// loadable in `about:tracing` and Perfetto. Durations are `B`/`E` pairs,
/// instants are `i`; timestamps are microseconds with nanosecond precision;
/// each tid additionally gets a `thread_name` metadata record so lanes are
/// labeled.
pub fn render_chrome_trace(capture: &TraceCapture) -> String {
    let mut o = String::with_capacity(64 + capture.events.len() * 96);
    o.push_str("{\"traceEvents\":[");
    o.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"szx\"}}",
    );
    let mut tids: Vec<u64> = capture.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        o.push_str(&format!(
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"szx-thread-{tid}\"}}}}"
        ));
    }
    for e in &capture.events {
        let us_whole = e.ts_ns / 1_000;
        let ns_frac = e.ts_ns % 1_000;
        o.push_str(",{\"name\":");
        crate::report::json_escape(e.name, &mut o);
        let (ph, extra) = match e.phase {
            TracePhase::Begin => ("B", format!(",\"args\":{{\"arg\":{}}}", e.arg)),
            TracePhase::End => ("E", String::new()),
            TracePhase::Instant => ("i", format!(",\"s\":\"t\",\"args\":{{\"arg\":{}}}", e.arg)),
        };
        o.push_str(&format!(
            ",\"ph\":\"{ph}\",\"ts\":{us_whole}.{ns_frac:03},\"pid\":1,\"tid\":{}{extra}}}",
            e.tid
        ));
    }
    o.push_str(&format!(
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}}}}}",
        capture.dropped
    ));
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace state is process-global; tests serialize on the same lock the
    /// registry tests use and drain on entry.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        let guard = crate::tests::lock_global();
        let _ = take_trace();
        guard
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = lock();
        set_trace_enabled(false);
        {
            let _z = crate::trace_zone("test.zone", 1);
            trace_instant("test.instant", 2);
        }
        assert!(take_trace().events.is_empty());
    }

    #[test]
    fn zone_emits_matched_begin_end() {
        let _g = lock();
        set_trace_enabled(true);
        {
            let _z = crate::trace_zone("test.zone", 7);
            trace_instant("test.mark", 9);
        }
        set_trace_enabled(false);
        let cap = take_trace();
        assert_eq!(cap.dropped, 0);
        let phases: Vec<(TracePhase, u64)> = cap.events.iter().map(|e| (e.phase, e.arg)).collect();
        assert_eq!(
            phases,
            vec![
                (TracePhase::Begin, 7),
                (TracePhase::Instant, 9),
                (TracePhase::End, 0),
            ]
        );
        let begin = cap.events[0].ts_ns;
        let end = cap.events[2].ts_ns;
        assert!(begin <= end, "begin {begin} must precede end {end}");
        assert!(cap.events.iter().all(|e| e.tid == cap.events[0].tid));
    }

    #[test]
    fn threads_get_distinct_tids_and_all_events_survive_thread_exit() {
        let _g = lock();
        set_trace_enabled(true);
        std::thread::scope(|s| {
            for i in 0..3u64 {
                s.spawn(move || {
                    let _z = crate::trace_zone("test.worker", i);
                });
            }
        });
        set_trace_enabled(false);
        let cap = take_trace();
        let mut tids: Vec<u64> = cap.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "one lane per worker: {:?}", cap.events);
        assert_eq!(cap.events.len(), 6, "begin+end per worker");
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let buf = ThreadBuf::new(42, 2);
        buf.push("a", TracePhase::Instant, 0);
        buf.push("b", TracePhase::Instant, 1);
        buf.push("c", TracePhase::Instant, 2);
        let (events, dropped) = buf.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 1);
        assert_eq!(events[1].name, "b");
        // Drained buffer accepts new events again.
        buf.push("d", TracePhase::Instant, 3);
        let (events, dropped) = buf.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn chrome_render_contains_lanes_and_drop_count() {
        let cap = TraceCapture {
            events: vec![
                TraceEvent {
                    name: "z",
                    phase: TracePhase::Begin,
                    ts_ns: 1_500,
                    tid: 3,
                    arg: 4,
                },
                TraceEvent {
                    name: "z",
                    phase: TracePhase::End,
                    ts_ns: 2_750,
                    tid: 3,
                    arg: 0,
                },
            ],
            dropped: 5,
        };
        let j = render_chrome_trace(&cap);
        assert!(j.contains("\"ph\":\"B\""));
        assert!(j.contains("\"ph\":\"E\""));
        assert!(j.contains("\"ts\":1.500"));
        assert!(j.contains("\"ts\":2.750"));
        assert!(j.contains("szx-thread-3"));
        assert!(j.contains("\"dropped_events\":5"));
    }
}
