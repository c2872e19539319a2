//! Resource accounting: a background sampler thread that reads
//! `/proc/self/{status,statm,stat}` and publishes process gauges —
//! resident set size, its peak, and user/system CPU time — plus per-phase
//! peak RSS attributed, at each sample, to the innermost open frame of
//! each thread's span stack (see [`crate::Span`]).
//!
//! Everything here is best-effort and strictly read-only: on platforms
//! without procfs the sampler publishes the gauges once at zero and exits
//! (the promised "no-op gauges" portable fallback). The final sample at
//! [`ResourceAccountant::stop`] reads `VmHWM` — the kernel's own
//! high-water mark — so the reported peak is exact even if the sampler
//! never woke during a transient spike.
//!
//! Gauges published (bytes / seconds):
//!
//! | gauge                              | meaning                          |
//! |------------------------------------|----------------------------------|
//! | `process.rss_bytes`                | resident set at last sample      |
//! | `process.peak_rss_bytes`           | `VmHWM` (exact at stop)          |
//! | `process.utime_seconds`            | user CPU since process start     |
//! | `process.stime_seconds`            | system CPU since process start   |
//! | `process.phase_peak_rss_bytes{phase=…}` | peak RSS while a thread had that frame innermost |

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// /proc parsing (pure string functions, unit-testable off-Linux)

/// One process sample; all fields best-effort.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    pub rss_bytes: u64,
    /// Kernel high-water mark (`VmHWM`); 0 when only `statm` was readable.
    pub peak_rss_bytes: u64,
    pub utime_seconds: f64,
    pub stime_seconds: f64,
}

/// `VmRSS:    1234 kB`-style line values from `/proc/self/status`, in bytes.
pub(crate) fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let rest = rest.trim_start_matches(':').trim();
            let kb: u64 = rest.split_whitespace().next()?.parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Resident bytes from `/proc/self/statm` (second field, in pages; the
/// kernel page size is 4 KiB on every platform this workspace targets).
pub(crate) fn parse_statm_resident(statm: &str) -> Option<u64> {
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// `(utime, stime)` seconds from a `/proc/self/stat` line. The comm field
/// may contain spaces and parentheses, so tokens are counted from after
/// the *last* `)`: state is token 0, utime token 11, stime token 12.
/// Ticks are divided by the de-facto universal `USER_HZ` of 100.
pub(crate) fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut toks = after.split_whitespace();
    let utime: u64 = toks.nth(11)?.parse().ok()?;
    let stime: u64 = toks.next()?.parse().ok()?;
    Some((utime as f64 / 100.0, stime as f64 / 100.0))
}

/// Read one sample from procfs; `None` where `/proc/self` is unavailable.
pub fn read_proc_sample() -> Option<ProcSample> {
    let status = std::fs::read_to_string("/proc/self/status").ok();
    let rss_bytes = status
        .as_deref()
        .and_then(|s| parse_status_kb(s, "VmRSS"))
        .or_else(|| {
            std::fs::read_to_string("/proc/self/statm")
                .ok()
                .as_deref()
                .and_then(parse_statm_resident)
        })?;
    let peak_rss_bytes = status
        .as_deref()
        .and_then(|s| parse_status_kb(s, "VmHWM"))
        .unwrap_or(0);
    let (utime_seconds, stime_seconds) = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_stat_cpu)
        .unwrap_or((0.0, 0.0));
    Some(ProcSample {
        rss_bytes,
        peak_rss_bytes,
        utime_seconds,
        stime_seconds,
    })
}

fn publish(sample: &ProcSample) {
    let reg = crate::global();
    reg.gauge("process.rss_bytes").set_u64(sample.rss_bytes);
    let peak = reg.gauge("process.peak_rss_bytes");
    peak.set_max(sample.peak_rss_bytes as f64);
    peak.set_max(sample.rss_bytes as f64);
    reg.gauge("process.utime_seconds").set(sample.utime_seconds);
    reg.gauge("process.stime_seconds").set(sample.stime_seconds);
    for phase in reg.stacks.innermost() {
        reg.gauge_labeled("process.phase_peak_rss_bytes", &[("phase", phase)])
            .set_max(sample.rss_bytes as f64);
    }
}

fn publish_zeroes() {
    let reg = crate::global();
    for name in [
        "process.rss_bytes",
        "process.peak_rss_bytes",
        "process.utime_seconds",
        "process.stime_seconds",
    ] {
        reg.gauge(name).set(0.0);
    }
}

// ---------------------------------------------------------------------------
// The sampler thread

/// Owns the sampler thread; construct with [`start`](Self::start), finish
/// with [`stop`](Self::stop) (also run on drop). The thread holds no locks
/// between samples and costs one procfs read per interval.
pub struct ResourceAccountant {
    stop_tx: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<()>>,
}

impl ResourceAccountant {
    /// Spawn the sampler. `interval` is how often procfs is polled;
    /// 50–200 ms keeps the cost unmeasurable.
    pub fn start(interval: Duration) -> Self {
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("szx-resource-sampler".into())
            .spawn(move || {
                if read_proc_sample().is_none() {
                    // Portable fallback: gauges exist, values stay zero.
                    publish_zeroes();
                    return;
                }
                loop {
                    if let Some(s) = read_proc_sample() {
                        publish(&s);
                    }
                    match stop_rx.recv_timeout(interval) {
                        Err(RecvTimeoutError::Timeout) => continue,
                        _ => break,
                    }
                }
            })
            .ok();
        ResourceAccountant {
            stop_tx: Some(stop_tx),
            handle,
        }
    }

    /// Stop the sampler and take a final exact-peak sample (`VmHWM`).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.stop_tx.is_none() && self.handle.is_none() {
            return; // already stopped (stop() followed by drop)
        }
        if let Some(tx) = self.stop_tx.take() {
            let _ = tx.send(());
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        if let Some(s) = read_proc_sample() {
            publish(&s);
        }
    }
}

impl Drop for ResourceAccountant {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_kb_parsing() {
        let status = "Name:\tszx\nVmPeak:\t  999 kB\nVmRSS:\t  1234 kB\nVmHWM:\t 2000 kB\n";
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1234 * 1024));
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2000 * 1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn statm_resident_parsing() {
        assert_eq!(
            parse_statm_resident("5000 300 120 5 0 190 0"),
            Some(300 * 4096)
        );
        assert_eq!(parse_statm_resident(""), None);
    }

    #[test]
    fn stat_cpu_parsing_survives_hostile_comm() {
        // comm contains spaces AND a ')': tokens must count from the LAST ')'.
        let stat = "1234 (a b) c) R 1 1 1 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 1 0 100 1000 50";
        let (u, s) = parse_stat_cpu(stat).unwrap();
        assert!((u - 2.5).abs() < 1e-9, "utime {u}");
        assert!((s - 0.75).abs() < 1e-9, "stime {s}");
        assert_eq!(parse_stat_cpu("no parens here"), None);
    }

    /// A thread that holds a span across several sampler intervals gets
    /// its phase gauge from the span stack alone.
    #[cfg(target_os = "linux")]
    #[cfg_attr(miri, ignore = "reads procfs and sleeps on the wall clock")]
    #[test]
    fn a_held_span_gets_its_phase_gauge() {
        let _g = crate::tests::lock_global();
        crate::set_enabled(true);
        let acc = ResourceAccountant::start(Duration::from_millis(5));
        std::thread::spawn(|| {
            let _s = crate::span("test.resource.held");
            std::thread::sleep(Duration::from_millis(30));
        })
        .join()
        .unwrap();
        acc.stop();
        crate::set_enabled(false);
        let phase = crate::global().snapshot().gauge_labeled(
            "process.phase_peak_rss_bytes",
            &[("phase", "test.resource.held")],
        );
        assert!(phase.is_some_and(|rss| rss > 0.0), "{phase:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_sample_reads_plausible_values() {
        let s = read_proc_sample().expect("procfs available on linux");
        assert!(s.rss_bytes > 0, "a running test has nonzero RSS");
        assert!(s.peak_rss_bytes >= s.rss_bytes);
    }
}
