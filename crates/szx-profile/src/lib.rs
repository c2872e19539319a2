//! # szx-profile
//!
//! Zone-stack sampling profiler for the szx pipeline. A sampler thread
//! wakes at a configurable rate (default ~997 Hz — prime, so it cannot
//! phase-lock with millisecond-periodic work), snapshots every registered
//! thread's published zone stack (see `szx_telemetry::zones` for the
//! seqlock protocol), and accumulates the folded stacks into a
//! hash-counted [`Profile`]. Instrumentation is free: the existing
//! `trace_zone`/`Span` RAII guards are the only write sites, so anything
//! already visible to the flight recorder is visible to the profiler.
//!
//! Export three ways:
//!
//! * [`Profile::folded`] — collapsed-stack text (`a;b;c 42` per line),
//!   directly consumable by inferno / speedscope / `flamegraph.pl`;
//! * [`render_flamegraph_svg`] — an in-tree, self-contained, deterministic
//!   SVG flamegraph (no external tooling needed);
//! * [`Profile::publish`] — a self/total-time table merged into the global
//!   registry as `profile.*` entries, riding the existing Prometheus
//!   renderer and run manifests.
//!
//! ```
//! let profiler = szx_profile::Profiler::start(szx_profile::default_hz());
//! // ... instrumented work on any threads ...
//! let profile = profiler.stop();
//! print!("{}", profile.folded());
//! ```

#![deny(missing_docs)]

mod flame;

pub use flame::render_flamegraph_svg;

use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use szx_telemetry::zones;

/// Default sampling rate (Hz). Prime, so the tick cannot phase-lock with
/// millisecond-granular frame or chunk boundaries and systematically miss
/// (or over-count) one phase.
pub const DEFAULT_HZ: u32 = 997;

/// Sampling rate: `SZX_PROFILE_HZ` when set to a positive integer,
/// [`DEFAULT_HZ`] otherwise. Clamped to 10 kHz — beyond that the sampler's
/// own lock traffic starts to show up in the profile it is taking.
pub fn default_hz() -> u32 {
    std::env::var("SZX_PROFILE_HZ")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .filter(|&hz| hz > 0)
        .unwrap_or(DEFAULT_HZ)
        .min(10_000)
}

/// One zone's aggregate in the self/total table: `self_samples` counts
/// samples where the zone was the innermost frame, `total_samples` counts
/// samples where it appeared anywhere on the stack (once per sample, so a
/// recursive zone is not double-counted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hotspot {
    /// Zone name (a `trace_zone`/`span` name, e.g. `compress.range_scan`).
    pub name: String,
    /// Samples with this zone innermost.
    pub self_samples: u64,
    /// Samples with this zone anywhere on the stack.
    pub total_samples: u64,
}

/// Accumulated sampling profile: folded stacks with counts plus sampler
/// health statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Folded stacks (rootmost frame first) → sample count. `BTreeMap` so
    /// every export iterates in one deterministic order.
    pub stacks: BTreeMap<Vec<String>, u64>,
    /// Total stack samples accumulated (sum of all counts; one sample per
    /// non-idle thread per tick).
    pub samples: u64,
    /// Sampler wakeups (each sweeps all registered threads).
    pub ticks: u64,
    /// Torn or in-progress slot reads retried or abandoned.
    pub torn_retries: u64,
    /// Maximum registered threads observed in one sweep.
    pub threads_seen: u64,
    /// Configured sampling rate.
    pub hz: u32,
    /// Wall time the sampler ran for.
    pub elapsed_secs: f64,
}

impl Profile {
    /// Wall seconds one tick represents (measured when the sampler ran,
    /// nominal `1/hz` for profiles parsed from folded text).
    pub fn tick_seconds(&self) -> f64 {
        if self.ticks > 0 && self.elapsed_secs > 0.0 {
            self.elapsed_secs / self.ticks as f64
        } else if self.hz > 0 {
            1.0 / self.hz as f64
        } else {
            1.0 / DEFAULT_HZ as f64
        }
    }

    /// Collapsed-stack text: one `frame;frame;frame count` line per folded
    /// stack, deterministically ordered, consumable by inferno/speedscope.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.stacks {
            out.push_str(&stack.join(";"));
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Parse collapsed-stack text (the [`Profile::folded`] format) back
    /// into a profile — the round-trip anchor for golden tests and for
    /// rendering a flamegraph from a saved `.folded` file. Health fields
    /// are reconstructed as far as the format allows (`samples` from the
    /// counts, everything else zero / nominal).
    pub fn from_folded(text: &str) -> Result<Profile, String> {
        let mut p = Profile {
            hz: DEFAULT_HZ,
            ..Profile::default()
        };
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (stack, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no count field", lineno + 1))?;
            let count: u64 = count
                .parse()
                .map_err(|e| format!("line {}: bad count: {e}", lineno + 1))?;
            let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
            if frames.iter().any(String::is_empty) {
                return Err(format!("line {}: empty frame name", lineno + 1));
            }
            p.samples += count;
            *p.stacks.entry(frames).or_insert(0) += count;
        }
        Ok(p)
    }

    /// Self/total sample table per zone name, deterministically ordered.
    pub fn self_total(&self) -> BTreeMap<String, (u64, u64)> {
        let mut table: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (stack, &count) in &self.stacks {
            if let Some(leaf) = stack.last() {
                table.entry(leaf.clone()).or_insert((0, 0)).0 += count;
            }
            let mut seen: Vec<&str> = Vec::with_capacity(stack.len());
            for frame in stack {
                // Count each name once per sample even when recursive.
                if !seen.contains(&frame.as_str()) {
                    seen.push(frame);
                    table.entry(frame.clone()).or_insert((0, 0)).1 += count;
                }
            }
        }
        table
    }

    /// Top `n` zones by self samples (ties broken by name for determinism).
    pub fn hotspots(&self, n: usize) -> Vec<Hotspot> {
        let mut all: Vec<Hotspot> = self
            .self_total()
            .into_iter()
            .map(|(name, (s, t))| Hotspot {
                name,
                self_samples: s,
                total_samples: t,
            })
            .collect();
        all.sort_by(|a, b| {
            b.self_samples
                .cmp(&a.self_samples)
                .then_with(|| a.name.cmp(&b.name))
        });
        all.truncate(n);
        all
    }

    /// Fraction of slot reads that came back torn (0 when nothing sampled).
    /// Above ~1% means the sampler is losing races to very short zones and
    /// the profile under-represents them; the CLI warns under `--stats`.
    pub fn torn_rate(&self) -> f64 {
        let attempts = self.samples + self.torn_retries;
        if attempts == 0 {
            0.0
        } else {
            self.torn_retries as f64 / attempts as f64
        }
    }

    /// Merge this profile into the global registry as `profile.*` entries:
    /// `profile.samples_total` / `profile.torn_retries` / `profile.ticks`
    /// counters, a `profile.threads_seen` gauge, and per-zone
    /// `profile.zone_self_seconds{zone=…}` / `profile.zone_total_seconds`
    /// labeled gauges — so the existing Prometheus exposition, `--stats`
    /// table, and run manifests all carry the profile without new plumbing.
    pub fn publish(&self) {
        let reg = szx_telemetry::global();
        reg.counter("profile.samples_total").add(self.samples);
        reg.counter("profile.torn_retries").add(self.torn_retries);
        reg.counter("profile.ticks").add(self.ticks);
        reg.gauge("profile.threads_seen")
            .set(self.threads_seen as f64);
        let tick = self.tick_seconds();
        for (name, (self_n, total_n)) in self.self_total() {
            reg.gauge_labeled("profile.zone_self_seconds", &[("zone", &name)])
                .set(self_n as f64 * tick);
            reg.gauge_labeled("profile.zone_total_seconds", &[("zone", &name)])
                .set(total_n as f64 * tick);
        }
    }
}

/// A running sampler. [`Profiler::start`] enables zone-stack publication
/// and spawns the sampler thread; [`Profiler::stop`] tears both down and
/// returns the accumulated [`Profile`].
pub struct Profiler {
    stop_tx: mpsc::Sender<()>,
    handle: JoinHandle<Profile>,
    hz: u32,
}

impl Profiler {
    /// Enable zone publication and start sampling at `hz`. Threads
    /// (including rayon workers) self-register with the profiler the first
    /// time they enter a zone, so no pool integration is needed.
    pub fn start(hz: u32) -> Profiler {
        let hz = hz.clamp(1, 10_000);
        zones::set_profiling_enabled(true);
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("szx-profile-sampler".into())
            .spawn(move || sampler_loop(hz, &stop_rx))
            .expect("spawn sampler thread");
        Profiler {
            stop_tx,
            handle,
            hz,
        }
    }

    /// Configured sampling rate.
    pub fn hz(&self) -> u32 {
        self.hz
    }

    /// Disable zone publication, stop the sampler, and return the profile.
    pub fn stop(self) -> Profile {
        zones::set_profiling_enabled(false);
        // A dropped receiver (sampler already exited) is fine; the join
        // below still collects its result.
        let _ = self.stop_tx.send(());
        self.handle
            .join()
            .expect("sampler thread never panics (all-safe seqlock reads)")
    }
}

/// Raw id-stacks during accumulation (resolution to names happens once at
/// stop, off the sampling tick).
fn sampler_loop(hz: u32, stop_rx: &mpsc::Receiver<()>) -> Profile {
    let period = Duration::from_secs_f64(1.0 / hz as f64);
    let started = Instant::now();
    let mut stacks: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
    let mut profile = Profile {
        hz,
        ..Profile::default()
    };
    // Ok(()) (stop requested) and Disconnected (Profiler dropped) both end
    // the loop; only the timeout tick samples.
    while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(period) {
        profile.ticks += 1;
        let sweep = zones::sample_stacks(|stack| {
            *stacks.entry(stack.to_vec()).or_insert(0) += 1;
        });
        profile.samples += sweep.stacks;
        profile.torn_retries += sweep.torn_retries;
        profile.threads_seen = profile.threads_seen.max(sweep.threads_seen);
    }
    profile.elapsed_secs = started.elapsed().as_secs_f64();
    for (ids, count) in stacks {
        let named: Vec<String> = ids
            .iter()
            // An unresolvable id would be a zone-slot protocol bug; keep
            // the sample but mark the frame so smoke tests catch it.
            .map(|&id| match zones::zone_name(id) {
                Some(name) => name.to_string(),
                None => format!("??{id}"),
            })
            .collect();
        *profile.stacks.entry(named).or_insert(0) += count;
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        let mut p = Profile {
            hz: 1000,
            ..Profile::default()
        };
        let mut add = |stack: &[&str], n: u64| {
            p.stacks
                .insert(stack.iter().map(|s| s.to_string()).collect(), n);
            p.samples += n;
        };
        add(&["compress.total"], 5);
        add(&["compress.total", "compress.range_scan"], 40);
        add(&["compress.total", "compress.encode_blocks"], 50);
        add(&["compress.total", "compress.encode_blocks", "io.write"], 5);
        p
    }

    #[test]
    fn folded_roundtrip_is_lossless() {
        let p = sample_profile();
        let text = p.folded();
        assert!(text.contains("compress.total;compress.range_scan 40\n"));
        let back = Profile::from_folded(&text).unwrap();
        assert_eq!(back.stacks, p.stacks);
        assert_eq!(back.samples, p.samples);
        // Second round-trip is byte-identical (deterministic ordering).
        assert_eq!(back.folded(), text);
    }

    #[test]
    fn from_folded_rejects_malformed_lines() {
        assert!(Profile::from_folded("no-count-here").is_err());
        assert!(Profile::from_folded("a;b notanumber").is_err());
        assert!(Profile::from_folded("a;;b 3").is_err());
        let empty = Profile::from_folded("\n  \n").unwrap();
        assert_eq!(empty.samples, 0);
    }

    #[test]
    fn self_total_attribution() {
        let p = sample_profile();
        let table = p.self_total();
        // encode_blocks: self excludes the io.write leaf samples, total
        // includes them.
        assert_eq!(table["compress.encode_blocks"], (50, 55));
        assert_eq!(table["compress.range_scan"], (40, 40));
        // The root: self only where it was the leaf, total everywhere.
        assert_eq!(table["compress.total"], (5, 100));
        assert_eq!(table["io.write"], (5, 5));
    }

    #[test]
    fn recursive_frames_count_once_per_sample_in_total() {
        let mut p = Profile::default();
        p.stacks.insert(vec!["a".into(), "b".into(), "a".into()], 7);
        p.samples = 7;
        let table = p.self_total();
        assert_eq!(table["a"], (7, 7), "recursion must not double-count");
        assert_eq!(table["b"], (0, 7));
    }

    #[test]
    fn hotspots_rank_by_self_samples() {
        let p = sample_profile();
        let top = p.hotspots(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "compress.encode_blocks");
        assert_eq!(top[0].self_samples, 50);
        assert_eq!(top[1].name, "compress.range_scan");
    }

    #[test]
    fn torn_rate_and_tick_seconds() {
        let mut p = sample_profile();
        assert_eq!(p.torn_rate(), 0.0);
        p.torn_retries = 100;
        assert!((p.torn_rate() - 0.5).abs() < 1e-12);
        assert!((p.tick_seconds() - 1e-3).abs() < 1e-9, "nominal 1/hz");
        p.ticks = 10;
        p.elapsed_secs = 0.05;
        assert!(
            (p.tick_seconds() - 5e-3).abs() < 1e-12,
            "measured beats nominal"
        );
    }

    #[test]
    fn sampler_captures_a_held_zone() {
        // End-to-end: start the sampler, hold a zone long enough for
        // several ticks, and the profile must attribute samples to it.
        let profiler = Profiler::start(2000);
        {
            let _z = szx_telemetry::trace_zone("test.profile.held", 0);
            std::thread::sleep(Duration::from_millis(40));
        }
        let profile = profiler.stop();
        assert!(profile.ticks > 0, "sampler ticked");
        let table = self_total_or_empty(&profile);
        let held = table.get("test.profile.held");
        assert!(
            held.map(|&(s, _)| s > 0).unwrap_or(false),
            "held zone must appear as self time: {:?}",
            profile.stacks
        );
        assert!(
            !profile.folded().contains("??"),
            "every frame resolves: {}",
            profile.folded()
        );
    }

    fn self_total_or_empty(p: &Profile) -> BTreeMap<String, (u64, u64)> {
        p.self_total()
    }

    #[test]
    fn default_hz_is_prime_and_clamped() {
        assert_eq!(DEFAULT_HZ, 997);
        let hz = default_hz();
        assert!(hz > 0 && hz <= 10_000);
    }
}
