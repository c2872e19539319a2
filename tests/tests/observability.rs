//! End-to-end observability: stream frames through `ContainerWriter` /
//! `ContainerReader` with a JSON-lines event sink installed and the resource
//! accountant sampling, then check the registry snapshot renders to
//! Prometheus text and embeds in a schema-valid run manifest.
//!
//! The whole check lives in ONE test function: the telemetry registry and
//! the event sink are process-wide singletons, and the libtest harness runs
//! `#[test]` functions on multiple threads.

use std::sync::mpsc;

use szx_telemetry::json::Json;

/// Event sink that forwards every write to a channel so the test can
/// inspect the emitted lines without touching the filesystem.
struct ChanWriter(mpsc::Sender<Vec<u8>>);

impl std::io::Write for ChanWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.send(buf.to_vec()).ok();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn streaming_run_exports_events_metrics_and_manifest() {
    let tel = szx_telemetry::global();
    szx_telemetry::set_enabled(true);
    tel.reset();

    let (tx, rx) = mpsc::channel();
    szx_telemetry::install_event_sink(Box::new(ChanWriter(tx)));
    let acc = szx_telemetry::ResourceAccountant::start(std::time::Duration::from_millis(5));

    // 40k f32 in 8192-element frames: 4 full frames + 1 partial.
    let data: Vec<f32> = (0..40_000).map(|i| (i as f32 * 0.01).sin()).collect();
    let total_raw = (data.len() * 4) as u64;
    let mut w = szx_core::ContainerWriter::new(Vec::new(), szx_core::SzxConfig::absolute(1e-3))
        .expect("valid config");
    let mut meter = szx_telemetry::ProgressMeter::new(Some(total_raw));
    let mut prev = 0u64;
    for (k, chunk) in data.chunks(8192).enumerate() {
        w.push(&k.to_string(), chunk).expect("frame compresses");
        let s = *w.stats();
        meter.on_frame((chunk.len() * 4) as u64, s.compressed_bytes - prev);
        prev = s.compressed_bytes;
    }
    let progress = meter.snapshot();
    assert_eq!(progress.frames, 5);
    assert_eq!(progress.raw_bytes, total_raw);
    assert_eq!(progress.fraction, Some(1.0), "all input accounted for");
    assert!(progress.gbps > 0.0);

    let container = w.finish().expect("container finishes");
    let reader = szx_core::ContainerReader::new(&container).expect("container parses");
    let back: Vec<f32> = reader.frame(2).expect("random access decodes");
    assert_eq!(back.len(), 8192);

    acc.stop();
    drop(szx_telemetry::take_event_sink());
    assert!(!szx_telemetry::event_sink_installed());

    // Every event is one parseable JSON line, seq strictly sequential:
    // 5 frame.compressed from the writer, 1 frame.decoded from the reader.
    let text: String = rx
        .try_iter()
        .map(|b| String::from_utf8(b).expect("utf-8 event bytes"))
        .collect();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "events:\n{text}");
    let mut names = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let v = Json::parse(line).expect("event line parses as JSON");
        assert_eq!(v.get("seq").and_then(Json::as_f64), Some(i as f64));
        assert!(v.get("ts_ms").and_then(Json::as_f64).is_some());
        names.push(v.get("event").and_then(Json::as_str).unwrap().to_string());
    }
    assert_eq!(names.iter().filter(|n| *n == "frame.compressed").count(), 5);
    assert_eq!(names.iter().filter(|n| *n == "frame.decoded").count(), 1);

    let report = tel.snapshot();
    // The accountant published the process gauges — real values on Linux,
    // explicit zeroes where procfs is absent, but always present.
    assert!(report.gauge("process.peak_rss_bytes").is_some());
    assert!(report.gauge("process.utime_seconds").is_some());
    assert_eq!(
        report.counter("stream.bytes.raw"),
        Some(total_raw),
        "streaming counters reached the registry"
    );

    // The snapshot renders as Prometheus text exposition…
    let prom = szx_telemetry::render_prometheus(&report);
    assert!(prom.contains("# TYPE szx_stream_bytes_raw_total counter"));
    assert!(prom.contains("# TYPE szx_process_peak_rss_bytes gauge"));
    assert!(prom.contains("szx_stream_frame_bytes_bucket"));

    // …and embeds in a run manifest that round-trips through validation.
    let mut m = szx_telemetry::Manifest::new("stream");
    m.set_config(&[("bound", szx_telemetry::Value::F64(1e-3))]);
    m.set_dataset("synthetic", total_raw, szx_telemetry::fnv1a64(b"synthetic"));
    m.set_metrics(&report);
    let parsed = szx_telemetry::Manifest::parse(&m.render()).expect("manifest validates");
    let metrics = parsed.get("metrics").expect("metrics section present");
    assert!(
        metrics.get("counters").is_some() || metrics.get("spans").is_some(),
        "metrics snapshot carries instrument sections"
    );

    szx_telemetry::set_enabled(false);
}
