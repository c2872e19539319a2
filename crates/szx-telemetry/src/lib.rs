//! # szx-telemetry
//!
//! Zero-dependency observability for the szx compression pipeline: atomic
//! [`Counter`]s, log2/linear-bucketed [`Histogram`]s, RAII [`Span`] timers
//! on monotonic clocks, and a global [`Registry`] snapshotted into a
//! [`Report`] that renders through pluggable sinks (human-readable table or
//! JSON-lines for machines).
//!
//! ## Design rules
//!
//! * **Off by default, near-free when off.** Every entry point checks one
//!   relaxed atomic ([`enabled`]); the per-block/per-element loops in
//!   `szx-core` keep no accounting at all. Counters are derived once per
//!   API call from what the call produced (the compressor reads its §5.3
//!   counters back from the assembled state bits, zsizes and each
//!   payload's `R_k` byte), so disabling telemetry removes all shared-memory traffic
//!   and enabling it adds nothing to the hot loops.
//! * **No contention across workers.** Parallel code keeps one local
//!   collector per chunk/thread and merges at the join point — the global
//!   registry only sees one flush per top-level call.
//! * **One span stack.** Every [`span`] and [`trace_zone`] is a frame on
//!   its thread's stack; closing one folds its exact self time into the
//!   thread's map, which [`Registry::profile`] merges. The folded stacks,
//!   the flamegraph and the per-phase RSS all read that one stack.
//! * **Paper-relevant counters for free.** `szx-core` publishes the §5.3
//!   impact factors (constant / non-constant / bit-exact-fallback block
//!   counts, the required-length histogram, mid-bytes written, leading-byte
//!   savings) on every instrumented compression, so a single run reproduces
//!   the paper's impact-factor analysis.
//!
//! ## Quick start
//!
//! ```
//! use szx_telemetry as tel;
//!
//! tel::set_enabled(true);
//! {
//!     let _span = tel::span("demo.work");
//!     tel::global().counter("demo.items").add(3);
//!     tel::global().hist_log2("demo.sizes").record(4096);
//! } // span records its wall time on drop
//!
//! let report = tel::global().snapshot();
//! assert_eq!(report.counter("demo.items"), Some(3));
//! println!("{}", tel::render_table(&report));
//! println!("{}", tel::render_jsonl(&report)); // one JSON object per line
//! # tel::global().reset();
//! # tel::set_enabled(false);
//! ```
//!
//! ## Adding a new counter
//!
//! Call `tel::global().counter("area.name").add(n)` (or `hist_log2` /
//! `hist_linear` / `span`) — names are created on first use, no central
//! enum to extend. Keep names `area.metric`-shaped so the table sink groups
//! sensibly, and gate any non-trivial computation of `n` behind
//! [`enabled`].

mod export;
mod flame;
mod hist;
pub mod json;
mod manifest;
mod profile;
mod progress;
mod registry;
mod report;
mod resource;
mod snapshot;
mod stack;
mod trace;

pub use export::{
    emit_event, escape_label_value, event_sink_installed, install_event_sink, render_prometheus,
    sanitize_metric_name, take_event_sink,
};
pub use flame::render_flamegraph_svg;
pub use hist::{Histogram, HistogramKind, HistogramSnapshot};
pub use manifest::{fnv1a64, Fnv1a64, Manifest, MANIFEST_KIND, MANIFEST_SCHEMA_VERSION};
pub use profile::{Hotspot, Profile};
pub use progress::{ProgressMeter, ProgressSnapshot};
pub use registry::{Counter, Registry, SpanStats};
pub use report::{render_jsonl, render_table, Report, SpanSnapshot, Value};
pub use resource::{read_proc_sample, ProcSample, ResourceAccountant};
pub use snapshot::{diff, Gauge, GaugeSnapshot};
pub use trace::{
    render_chrome_trace, set_trace_enabled, take_trace, trace_enabled, trace_instant, TraceCapture,
    TraceEvent, TracePhase,
};

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Bits of [`SWITCHES`]: collection ([`enabled`]) and event recording
/// ([`trace_enabled`]).
const TELEMETRY: u8 = 1;
const TRACE: u8 = 2;

/// The master switches, one word so a span guard reads both with one
/// relaxed load. Seeded once from the `SZX_TELEMETRY` and `SZX_TRACE`
/// environment variables (`1`/`true`/`on`/`yes` enable); flipped at
/// runtime with [`set_enabled`] and [`set_trace_enabled`].
static SWITCHES: AtomicU8 = AtomicU8::new(0);
static ENV_INIT: OnceLock<()> = OnceLock::new();

#[inline]
fn switches() -> u8 {
    ENV_INIT.get_or_init(|| {
        let on = |var| {
            std::env::var(var).is_ok_and(|v| {
                matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes")
            })
        };
        let bits = if on("SZX_TELEMETRY") { TELEMETRY } else { 0 }
            | if on("SZX_TRACE") { TRACE } else { 0 };
        SWITCHES.fetch_or(bits, Ordering::Relaxed);
    });
    SWITCHES.load(Ordering::Relaxed)
}

fn set_switch(bit: u8, on: bool) {
    switches(); // seed from the environment first, so this store wins
    if on {
        SWITCHES.fetch_or(bit, Ordering::Relaxed);
    } else {
        SWITCHES.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Is telemetry collection on? One relaxed load; safe to call on hot paths
/// (but prefer hoisting out of per-element loops).
#[inline]
pub fn enabled() -> bool {
    switches() & TELEMETRY != 0
}

/// Turn collection on/off at runtime (overrides `SZX_TELEMETRY`).
pub fn set_enabled(on: bool) {
    set_switch(TELEMETRY, on);
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// RAII guard over one stage, opened by [`span`] or [`trace_zone`].
///
/// While telemetry is on, the guard is a frame on its thread's span stack:
/// its drop adds its self time to the folded map ([`Registry::profile`]),
/// and a [`span`] also records its wall time under its name in the
/// registry. While the flight recorder is on, it emits begin/end trace
/// events. Off, it costs one relaxed load and reads no clock.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    name: &'static str,
    /// Set when telemetry was on at entry: the frame is on the stack.
    start: Option<Instant>,
    /// [`span`] records `span_stats`; [`trace_zone`] does not.
    stats: bool,
    /// The recorder was on at entry, so an end event is due.
    traced: bool,
    /// The frame is on this thread's stack, so the guard drops here.
    _thread: PhantomData<*const ()>,
}

impl Span {
    #[inline]
    fn open(name: &'static str, stats: bool, arg: u64) -> Span {
        let on = switches();
        let start = (on & TELEMETRY != 0).then(|| {
            stack::push(name);
            Instant::now()
        });
        let traced = on & TRACE != 0;
        if traced {
            trace::record(name, TracePhase::Begin, arg);
        }
        Span {
            name,
            start,
            stats,
            traced,
            _thread: PhantomData,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            stack::pop(ns);
            if self.stats {
                global().span_stats(self.name).record(ns);
            }
        }
        if self.traced {
            trace::record(self.name, TracePhase::End, 0);
        }
    }
}

/// Open a [`Span`] under `name` (`area.stage`-shaped names render grouped)
/// that records its wall time in the registry.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::open(name, true, 0)
}

/// Open a zone: a [`Span`] that records no registry timer, with a
/// site-chosen `arg` (chunk index, frame number, …) on its begin event.
#[inline]
pub fn trace_zone(name: &'static str, arg: u64) -> Span {
    Span::open(name, false, arg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The global registry is process-wide; tests touching it serialize
    /// here and reset it on entry.
    pub(crate) fn lock_global() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        global().reset();
        guard
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = lock_global();
        set_enabled(false);
        {
            let _s = span("test.off");
        }
        // Only this test's own span: a reset keeps other tests' entries
        // (zeroed), so the registry as a whole need not be empty.
        let off = global().snapshot().span("test.off").map_or(0, |s| s.count);
        assert_eq!(off, 0);
    }

    #[test]
    fn enabled_span_records_on_drop() {
        let _g = lock_global();
        set_enabled(true);
        {
            let _s = span("test.on");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let r = global().snapshot();
        let s = r.span("test.on").expect("span recorded");
        assert_eq!(s.count, 1);
        assert!(
            s.total_ns >= 2_000_000,
            "slept 2ms, recorded {}",
            s.total_ns
        );
        set_enabled(false);
    }

    #[test]
    fn nested_spans_accumulate_independently() {
        let _g = lock_global();
        set_enabled(true);
        {
            let _outer = span("test.outer");
            for _ in 0..3 {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let r = global().snapshot();
        let outer = r.span("test.outer").unwrap();
        let inner = r.span("test.inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        // The outer span encloses all inner spans, so its wall time
        // dominates their sum.
        assert!(
            outer.total_ns >= inner.total_ns,
            "outer {} must enclose inner {}",
            outer.total_ns,
            inner.total_ns
        );
        set_enabled(false);
    }

    #[test]
    fn runtime_toggle_beats_env() {
        let _g = lock_global();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
