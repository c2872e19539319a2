//! The global name → instrument registry.
//!
//! Instruments are created on first use and live for the process lifetime;
//! lookups take a read lock, so callers on hot paths should hold the
//! returned `Arc` (or, better, accumulate locally and flush once per call —
//! the pattern `szx-core` uses).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::hist::{Histogram, HistogramKind};
use crate::profile::Profile;
use crate::report::{Report, SpanSnapshot};
use crate::snapshot::{Gauge, GaugeSnapshot};
use crate::stack::Stacks;

/// Gauges are keyed by name *plus* label set — `(name, [(k, v), …])` — so
/// `process.phase_peak_rss_bytes{phase="compress"}` and `{phase="write"}`
/// are distinct instruments.
type GaugeKey = (String, Vec<(String, String)>);

const R: Ordering = Ordering::Relaxed;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, R);
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(R)
    }

    pub fn reset(&self) {
        self.0.store(0, R);
    }
}

/// Aggregated timings of one span name.
#[derive(Debug)]
pub struct SpanStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStats {
    fn new() -> Self {
        SpanStats {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, R);
        self.total_ns.fetch_add(ns, R);
        self.min_ns.fetch_min(ns, R);
        self.max_ns.fetch_max(ns, R);
    }

    pub fn snapshot(&self) -> SpanSnapshot {
        let count = self.count.load(R);
        SpanSnapshot {
            count,
            total_ns: self.total_ns.load(R),
            min_ns: if count == 0 { 0 } else { self.min_ns.load(R) },
            max_ns: self.max_ns.load(R),
        }
    }

    fn reset(&self) {
        self.count.store(0, R);
        self.total_ns.store(0, R);
        self.min_ns.store(u64::MAX, R);
        self.max_ns.store(0, R);
    }
}

/// Holds every named instrument. Normally accessed through
/// [`crate::global`]; independent registries are constructible for tests.
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    hists: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
    spans: RwLock<BTreeMap<&'static str, Arc<SpanStats>>>,
    gauges: RwLock<BTreeMap<GaugeKey, Arc<Gauge>>>,
    /// Every thread's span stack and the folded map (global registry only:
    /// threads register with [`crate::global`]).
    pub(crate) stacks: Stacks,
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            counters: RwLock::new(BTreeMap::new()),
            hists: RwLock::new(BTreeMap::new()),
            spans: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            stacks: Stacks::default(),
        }
    }

    fn get_or_insert<T>(
        map: &RwLock<BTreeMap<&'static str, Arc<T>>>,
        name: &'static str,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        // PANIC-OK: lock poisoning is not data-dependent — it only occurs
        // after another thread has already panicked while registering.
        if let Some(v) = map.read().expect("registry poisoned").get(name) {
            return Arc::clone(v);
        }
        // PANIC-OK: as above — poisoning, not untrusted input.
        let mut w = map.write().expect("registry poisoned");
        Arc::clone(w.entry(name).or_insert_with(|| Arc::new(make())))
    }

    /// Counter named `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, name, Counter::default)
    }

    /// Log2-bucketed histogram (latencies, sizes).
    pub fn hist_log2(&self, name: &'static str) -> Arc<Histogram> {
        Self::get_or_insert(&self.hists, name, || Histogram::new(HistogramKind::Log2))
    }

    /// Linear histogram over `0..=max` (small bounded domains; a histogram
    /// created once keeps its original `max`).
    pub fn hist_linear(&self, name: &'static str, max: u64) -> Arc<Histogram> {
        Self::get_or_insert(&self.hists, name, || {
            Histogram::new(HistogramKind::Linear { max })
        })
    }

    /// Aggregated span stats for `name` (usually fed by [`crate::span`]).
    pub fn span_stats(&self, name: &'static str) -> Arc<SpanStats> {
        Self::get_or_insert(&self.spans, name, SpanStats::new)
    }

    /// Unlabeled gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_labeled(name, &[])
    }

    /// Labeled gauge: `(name, labels)` is the instrument identity. Unlike
    /// counters/histograms, gauge names are not `&'static` — the label
    /// values (phase names, field names) are often computed at runtime.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key: GaugeKey = (
            name.to_string(),
            labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
        // PANIC-OK: lock poisoning is not data-dependent — it only occurs
        // after another thread has already panicked while registering.
        if let Some(g) = self.gauges.read().expect("registry poisoned").get(&key) {
            return Arc::clone(g);
        }
        // PANIC-OK: as above — poisoning, not untrusted input.
        let mut w = self.gauges.write().expect("registry poisoned");
        Arc::clone(w.entry(key).or_default())
    }

    /// The folded map: every thread's span self time per stack path,
    /// merged as of now (see [`crate::Span`]).
    pub fn profile(&self) -> Profile {
        self.stacks.merge()
    }

    /// Point-in-time copy of every instrument. The folded map's self/total
    /// seconds per zone are read in as the `profile.zone_self_seconds` and
    /// `profile.zone_total_seconds` gauges, labelled `zone`.
    pub fn snapshot(&self) -> Report {
        for (zone, (self_ns, total_ns)) in self.profile().self_total() {
            let labels = [("zone", zone.as_str())];
            self.gauge_labeled("profile.zone_self_seconds", &labels)
                .set(self_ns as f64 * 1e-9);
            self.gauge_labeled("profile.zone_total_seconds", &labels)
                .set(total_ns as f64 * 1e-9);
        }
        Report {
            counters: self
                .counters
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            hists: self
                .hists
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect(),
            spans: self
                .spans
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry poisoned")
                .iter()
                .map(|((name, labels), g)| {
                    (
                        name.clone(),
                        GaugeSnapshot {
                            labels: labels.clone(),
                            value: g.get(),
                        },
                    )
                })
                .collect(),
            extra: Vec::new(),
        }
    }

    /// Zero all instruments (names stay registered).
    pub fn reset(&self) {
        for c in self.counters.read().expect("registry poisoned").values() {
            c.reset();
        }
        for h in self.hists.read().expect("registry poisoned").values() {
            h.reset();
        }
        for s in self.spans.read().expect("registry poisoned").values() {
            s.reset();
        }
        for g in self.gauges.read().expect("registry poisoned").values() {
            g.reset();
        }
        self.stacks.reset();
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        r.counter("b").incr();
        assert_eq!(r.counter("a").get(), 5);
        assert_eq!(r.counter("b").get(), 1);
    }

    #[test]
    fn snapshot_contains_all_instruments() {
        let r = Registry::new();
        r.counter("n").add(7);
        r.hist_log2("h").record(100);
        r.hist_linear("l", 8).record(3);
        r.span_stats("s").record(500);
        r.gauge("g").set(1.5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), Some(7));
        assert_eq!(snap.hist("h").unwrap().count, 1);
        assert_eq!(snap.hist("l").unwrap().buckets, vec![(3, 1)]);
        assert_eq!(snap.span("s").unwrap().total_ns, 500);
        assert_eq!(snap.gauge("g"), Some(1.5));
    }

    #[test]
    fn labeled_gauges_are_distinct_instruments() {
        let r = Registry::new();
        r.gauge_labeled("phase.rss", &[("phase", "compress")])
            .set(10.0);
        r.gauge_labeled("phase.rss", &[("phase", "write")])
            .set(20.0);
        r.gauge_labeled("phase.rss", &[("phase", "compress")])
            .set_max(15.0);
        let snap = r.snapshot();
        assert_eq!(
            snap.gauge_labeled("phase.rss", &[("phase", "compress")]),
            Some(15.0)
        );
        assert_eq!(
            snap.gauge_labeled("phase.rss", &[("phase", "write")]),
            Some(20.0)
        );
        assert_eq!(snap.gauge("phase.rss"), None, "unlabeled variant unset");
    }

    #[test]
    fn reset_keeps_names_but_zeroes_values() {
        let r = Registry::new();
        r.counter("x").add(9);
        r.span_stats("sp").record(10);
        r.gauge("g").set(4.0);
        r.reset();
        assert_eq!(r.counter("x").get(), 0);
        assert_eq!(r.snapshot().span("sp").unwrap().count, 0);
        assert_eq!(r.snapshot().gauge("g"), Some(0.0));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = std::sync::Arc::new(Registry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    let c = r.counter("hot");
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(r.counter("hot").get(), 40_000);
    }
}
