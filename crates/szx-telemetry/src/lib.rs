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
mod hist;
pub mod json;
mod manifest;
mod progress;
mod registry;
mod report;
mod resource;
mod snapshot;
mod trace;
pub mod zones;

pub use export::{
    emit_event, escape_label_value, event_sink_installed, install_event_sink, render_prometheus,
    sanitize_metric_name, take_event_sink,
};
pub use hist::{Histogram, HistogramKind, HistogramSnapshot};
pub use manifest::{fnv1a64, Fnv1a64, Manifest, MANIFEST_KIND, MANIFEST_SCHEMA_VERSION};
pub use progress::{ProgressMeter, ProgressSnapshot};
pub use registry::{Counter, Registry, SpanStats};
pub use report::{render_jsonl, render_table, Report, SpanSnapshot, Value};
pub use resource::{
    current_phase, read_proc_sample, set_phase_tracking, ProcSample, ResourceAccountant,
};
pub use snapshot::{diff, Gauge, GaugeSnapshot};
pub use trace::{
    render_chrome_trace, set_trace_enabled, take_trace, trace_enabled, trace_instant, trace_zone,
    TraceCapture, TraceEvent, TracePhase, TraceZone,
};
pub use zones::{
    profiling_enabled, sample_stacks, set_profiling_enabled, zone_name, SampleSweep,
    MAX_STACK_DEPTH,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Master switch. Reads the `SZX_TELEMETRY` environment variable once
/// (`1`/`true`/`on` enable) and can be flipped at runtime with
/// [`set_enabled`].
static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: OnceLock<()> = OnceLock::new();

fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        if let Ok(v) = std::env::var("SZX_TELEMETRY") {
            let on = matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes");
            ENABLED.store(on, Ordering::Relaxed);
        }
    });
}

/// Is telemetry collection on? One relaxed load; safe to call on hot paths
/// (but prefer hoisting out of per-element loops).
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on/off at runtime (overrides `SZX_TELEMETRY`).
pub fn set_enabled(on: bool) {
    init_from_env();
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// RAII span timer: measures monotonic wall time from construction to drop
/// and records it under `name` in the global registry. A disabled-telemetry
/// span is a no-op (no clock read).
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    /// Keeps the flight-recorder zone open for the span's lifetime when
    /// event tracing is on (see [`trace_zone`]); `None`-named when off.
    _zone: TraceZone,
    /// Entry on the resource accountant's phase stack (`Some` only while
    /// phase tracking is on — see [`set_phase_tracking`]).
    phase_id: Option<u64>,
}

impl Span {
    /// Nanoseconds elapsed so far (0 when telemetry is disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map(|s| s.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            global().span_stats(self.name).record(ns);
        }
        if let Some(id) = self.phase_id {
            resource::phase_pop(id);
        }
    }
}

/// Open a [`Span`] under `name` (`area.stage`-shaped names render grouped).
/// When the flight recorder is on ([`trace_enabled`]), the span also emits
/// begin/end trace events, so every aggregated stage timer doubles as a
/// timeline zone for free.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
        _zone: trace_zone(name, 0),
        phase_id: resource::phase_push(name),
    }
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
            let s = span("test.off");
            assert_eq!(s.elapsed_ns(), 0);
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
