//! Flight-recorder end-to-end checks: the Chrome-trace export must be valid
//! JSON (asserted by parsing it back with the in-tree parser), every Begin
//! must have a matching End at a later-or-equal timestamp, each coding
//! thread must land on its own lane, a parallel run must code every window
//! exactly once, and two identical runs must produce the same event *set*
//! (names/phases/args — timestamps and thread ids are of course
//! run-dependent).
//!
//! Everything lives in ONE test function: the trace recorder is a
//! process-wide singleton (like the telemetry registry, see
//! `telemetry_counters.rs`), and libtest runs `#[test]` functions on
//! multiple threads, so separate tests would interleave their events.

use std::collections::{HashMap, HashSet};

use szx_core::SzxConfig;
use szx_data::{Application, Scale};
use szx_telemetry::json::Json;
use szx_telemetry::{take_trace, TraceCapture, TraceEvent, TracePhase};

/// The tiny Miranda fields over and over, for eight windows: a pool
/// thread claims a whole window, so a parallel run needs several.
fn field() -> Vec<f32> {
    let ds = Application::Miranda.generate(Scale::Tiny, 0x7E1E);
    let n = 8 * szx_core::window_len::<f32>(szx_core::DEFAULT_BLOCK_SIZE);
    ds.fields
        .iter()
        .flat_map(|f| f.data.iter().copied())
        .cycle()
        .take(n)
        .collect()
}

/// Per-thread Begin/End events must nest like brackets, with end >= begin.
fn check_pairing(capture: &TraceCapture) {
    let mut stacks: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
    for ev in &capture.events {
        match ev.phase {
            TracePhase::Begin => stacks.entry(ev.tid).or_default().push(ev),
            TracePhase::End => {
                let open = stacks
                    .get_mut(&ev.tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| {
                        panic!("End {:?} on tid {} with no open zone", ev.name, ev.tid)
                    });
                assert_eq!(
                    open.name, ev.name,
                    "mismatched zone nesting on tid {}",
                    ev.tid
                );
                assert!(
                    open.ts_ns <= ev.ts_ns,
                    "zone {:?} ends ({}) before it begins ({})",
                    ev.name,
                    ev.ts_ns,
                    open.ts_ns
                );
            }
            TracePhase::Instant => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} left zones open: {stack:?}");
    }
}

/// The run-independent identity of a capture: sorted (name, phase, arg).
fn event_set(capture: &TraceCapture) -> Vec<(&'static str, u8, u64)> {
    let mut set: Vec<_> = capture
        .events
        .iter()
        .map(|e| {
            let ph = match e.phase {
                TracePhase::Begin => 0u8,
                TracePhase::End => 1,
                TracePhase::Instant => 2,
            };
            (e.name, ph, e.arg)
        })
        .collect();
    set.sort_unstable();
    set
}

fn names(capture: &TraceCapture) -> Vec<&'static str> {
    capture.events.iter().map(|e| e.name).collect()
}

#[test]
fn chrome_trace_roundtrip_lanes_and_determinism() {
    // The rayon shim fixes its pool size from this env var on first use,
    // and this binary's only test sets it before any parallel call; the CI
    // box may expose a single core, so force real parallelism explicitly.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    szx_telemetry::set_trace_enabled(true);
    let _ = take_trace(); // drop anything a previous run left behind

    let data = field();
    let cfg = SzxConfig::relative(1e-3);

    // --- Serial pipeline: structural checks on the raw capture. ---
    let bytes = szx_core::compress(&data, &cfg).unwrap();
    let back: Vec<f32> = szx_core::decompress(&bytes).unwrap();
    assert_eq!(back.len(), data.len());
    let serial = take_trace();
    assert_eq!(serial.dropped, 0, "default capacity must not overflow here");
    for stage in [
        "compress.total",
        "compress.range_scan",
        "compress.encode_blocks",
        "decompress.total",
    ] {
        assert!(
            names(&serial).contains(&stage),
            "missing stage zone {stage}"
        );
    }
    check_pairing(&serial);

    // --- Chrome export parses back as JSON with the documented shape. ---
    let rendered = szx_telemetry::render_chrome_trace(&serial);
    let doc = Json::parse(&rendered).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    // Metadata rows (process/thread names) plus one row per event.
    assert!(events.len() > serial.events.len());
    let mut begins = 0usize;
    let mut ends = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        assert!(ev.get("pid").and_then(Json::as_f64).is_some());
        assert!(ev.get("tid").and_then(Json::as_f64).is_some());
        match ph {
            "B" => begins += 1,
            "E" => ends += 1,
            "i" => assert_eq!(ev.get("s").and_then(Json::as_str), Some("t")),
            "M" => continue, // metadata carries no timestamp
            other => panic!("unexpected phase {other:?}"),
        }
        assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "ts on {ph}");
    }
    assert_eq!(begins, ends, "unbalanced B/E rows in the export");
    assert!(begins > 0);
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(Json::as_f64);
    assert_eq!(dropped, Some(0.0));

    // --- Lanes: every coding thread gets its own thread_name row. ---
    // Two threads that each compress have two lanes by construction; the
    // pool promises no such thing (a parked worker may wake only after the
    // caller has claimed every window).
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| szx_core::compress(&data, &cfg).unwrap());
        }
    });
    let lanes = take_trace();
    check_pairing(&lanes);
    let chunk_tids: HashSet<u64> = lanes
        .events
        .iter()
        .filter(|e| e.name == "compress.chunk" && e.phase == TracePhase::Begin)
        .map(|e| e.tid)
        .collect();
    assert!(
        chunk_tids.len() >= 2,
        "expected chunk zones on >=2 threads, got tids {chunk_tids:?}"
    );
    let lrendered = szx_telemetry::render_chrome_trace(&lanes);
    let ldoc = Json::parse(&lrendered).unwrap();
    let lane_rows = ldoc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .count();
    assert!(lane_rows >= chunk_tids.len());

    // --- Parallel pipeline: every window is coded exactly once. ---
    let pbytes = szx_core::compress(&data, &cfg.with_parallel(true)).unwrap();
    let pback: Vec<f32> = szx_core::Decoder::new(szx_core::KernelPath::detect(), true)
        .decode(&pbytes)
        .unwrap();
    assert_eq!(pback.len(), data.len());
    let parallel = take_trace();
    check_pairing(&parallel);
    let mut chunks: Vec<u64> = parallel
        .events
        .iter()
        .filter(|e| e.name == "compress.chunk" && e.phase == TracePhase::Begin)
        .map(|e| e.arg)
        .collect();
    chunks.sort_unstable();
    assert_eq!(
        chunks,
        (0..8).collect::<Vec<u64>>(),
        "one chunk zone per window"
    );

    // --- Determinism: identical runs emit the identical event set. ---
    let run = || {
        let b = szx_core::compress(&data, &cfg.with_parallel(true)).unwrap();
        let _: Vec<f32> = szx_core::Decoder::new(szx_core::KernelPath::detect(), true)
            .decode(&b)
            .unwrap();
        take_trace()
    };
    let (a, b) = (run(), run());
    assert_eq!(event_set(&a), event_set(&b), "event set is run-dependent");

    szx_telemetry::set_trace_enabled(false);
    let _ = take_trace();
}
